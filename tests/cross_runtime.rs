//! Cross-runtime equivalence: the same deployment description produces the
//! same *stable* output stream under the deterministic simulator and under
//! the real-time thread engine.
//!
//! This is the paper's eventual-consistency guarantee turned into a
//! portability test. Source stimes and payloads are pure functions of the
//! sequence number, SUnion serializes buckets deterministically by
//! `(stime, origin, id)`, and reconciliation replays corrections into the
//! identical stable prefix — so even though the thread engine's arrival
//! timing jitters (and may force tentative data the simulator never
//! produces), the corrected stable stream must be identical tuple for
//! tuple, in order, on both runtimes.

use borealis::prelude::*;
use borealis_workloads::{
    chain_builder, run_tcp_parent, sharded_chain_builder, ChainOptions, ShardedChainOptions,
    TcpChainSpec, DISTRIBUTED_VARIANTS,
};

mod common;
use common::stable_stream;

/// Serializes the tests in this binary. Every test here deploys on the
/// wall-clock thread engine (some additionally fork OS processes) and
/// compares the result against the virtual-time simulator; running them
/// concurrently oversubscribes the CPU far enough that keep-alives go
/// stale spuriously and the runs diverge for scheduling reasons, not
/// protocol ones.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Chain options tuned so a wall-clock run finishes in a few seconds.
fn fast_chain() -> ChainOptions {
    ChainOptions {
        depth: 2,
        total_rate: 300.0,
        per_node_delay: Duration::from_millis(500),
        variant: DISTRIBUTED_VARIANTS[1], // Process & Process
        per_tuple_cost: Duration::from_micros(10),
        // A starved wall-clock runner (1-CPU CI, debug profile, host
        // steal) can stall any thread past the default 250 ms staleness
        // window; stretched keep-alives make spurious failovers
        // impossible while the sim recomputes the identical reference.
        heartbeat_period: Duration::from_millis(400),
        seed: 21,
        ..Default::default()
    }
}

/// The chain workload with replication 2 and one scripted replica crash:
/// run under the simulator and under the thread runtime, the delivered
/// stable streams must be identical (same tuples, same order) over their
/// common prefix — the shorter run is a prefix of the longer one.
#[test]
fn chain_stable_stream_identical_across_runtimes() {
    let _serial = serial();
    let o = fast_chain();
    let crash_frag = o.depth - 1; // the fragment the client watches
    let horizon = Time::from_secs(6);

    // --- Simulator run ---------------------------------------------------
    let (builder, out) = chain_builder(&o);
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let mut sim_sys = builder
        .metrics(metrics)
        .fault(FaultSpec::CrashReplica {
            frag: crash_frag,
            shard: 0,
            replica: 0,
            from: Time::from_millis(1500),
            to: None,
        })
        .build();
    sim_sys.run_until(horizon);
    let (sim_stable, sim_dups) = sim_sys.metrics.with(out, |m| {
        (
            stable_stream(m.trace.as_ref().expect("trace enabled")),
            m.dup_stable,
        )
    });

    // --- Thread-runtime run ----------------------------------------------
    // The identical description — same topology, same scripted crash of the
    // client's initial upstream replica — deployed on OS threads.
    let (builder, out2) = chain_builder(&o);
    assert_eq!(out, out2, "same diagram, same output stream");
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let layout = builder
        .metrics(metrics)
        .fault(FaultSpec::CrashReplica {
            frag: crash_frag,
            shard: 0,
            replica: 0,
            from: Time::from_millis(1500),
            to: None,
        })
        .layout();
    let threads = deploy_threads(layout);
    threads.run_for(std::time::Duration::from_millis(4500));
    let (thr_stable, thr_dups) = threads.metrics.with(out, |m| {
        (
            stable_stream(m.trace.as_ref().expect("trace enabled")),
            m.dup_stable,
        )
    });
    let drops = threads.shutdown();

    // --- Equivalence ------------------------------------------------------
    assert_eq!(sim_dups, 0, "simulator run violated stable-id monotonicity");
    assert_eq!(thr_dups, 0, "thread run violated stable-id monotonicity");
    assert!(
        drops.send_unreachable_drops + drops.delivery_drops > 0,
        "the scripted crash must actually sever traffic: {drops:?}"
    );
    // Thresholds leave >4x headroom below the ~1350 tuples a nominal run
    // delivers, so a starved CI runner slows the stream without failing it.
    let common = sim_stable.len().min(thr_stable.len());
    assert!(
        common >= 300,
        "both runs must deliver a substantial stable stream: sim={} threads={}",
        sim_stable.len(),
        thr_stable.len()
    );
    assert_eq!(
        sim_stable[..common],
        thr_stable[..common],
        "stable streams diverge within the common prefix"
    );
}

/// Shard-merge determinism: the key-partitioned chain (ingest → work × K
/// shards → deliver) produces an identical stable output stream under the
/// simulator and the thread runtime, with one *shard replica* crashed
/// mid-run. The downstream SUnion's bucket-serialized merge of the shard
/// substreams — plus DPC's per-shard replica failover — must be
/// deterministic across runtimes.
#[test]
fn sharded_chain_stable_stream_identical_across_runtimes() {
    let _serial = serial();
    let o = ShardedChainOptions {
        shards: 2,
        total_rate: 300.0,
        per_node_delay: Duration::from_millis(500),
        work_cost: Duration::from_micros(10),
        light_cost: Duration::from_micros(5),
        heartbeat_period: Duration::from_millis(400),
        seed: 33,
        ..Default::default()
    };
    // Crash replica 0 of shard 1 of the "work" stage (logical fragment 1)
    // at t=1.5s, permanently: the shard's surviving replica must carry its
    // partition while everything else flows undisturbed.
    let crash = FaultSpec::CrashReplica {
        frag: 1,
        shard: 1,
        replica: 0,
        from: Time::from_millis(1500),
        to: None,
    };
    let horizon = Time::from_secs(6);

    let (builder, out) = sharded_chain_builder(&o);
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let mut sim_sys = builder.metrics(metrics).fault(crash.clone()).build();
    sim_sys.run_until(horizon);
    let (sim_stable, sim_dups) = sim_sys.metrics.with(out, |m| {
        (
            stable_stream(m.trace.as_ref().expect("trace enabled")),
            m.dup_stable,
        )
    });

    let (builder, out2) = sharded_chain_builder(&o);
    assert_eq!(out, out2, "same diagram, same output stream");
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let layout = builder.metrics(metrics).fault(crash).layout();
    assert!(
        !layout.partitions.is_empty(),
        "shard replicas carry partition filters"
    );
    let threads = deploy_threads(layout);
    threads.run_for(std::time::Duration::from_millis(4500));
    let (thr_stable, thr_dups) = threads.metrics.with(out, |m| {
        (
            stable_stream(m.trace.as_ref().expect("trace enabled")),
            m.dup_stable,
        )
    });
    let drops = threads.shutdown();

    assert_eq!(sim_dups, 0, "simulator run violated stable-id monotonicity");
    assert_eq!(thr_dups, 0, "thread run violated stable-id monotonicity");
    assert!(
        drops.send_unreachable_drops + drops.delivery_drops > 0,
        "the scripted shard crash must actually sever traffic: {drops:?}"
    );
    let common = sim_stable.len().min(thr_stable.len());
    assert!(
        common >= 300,
        "both runs must deliver a substantial stable stream: sim={} threads={}",
        sim_stable.len(),
        thr_stable.len()
    );
    assert_eq!(
        sim_stable[..common],
        thr_stable[..common],
        "sharded stable streams diverge within the common prefix"
    );
}

/// The slow-consumer overload chain: three sources → light ingest → a
/// work stage whose modeled CPU cannot keep up with the offered load →
/// light deliver → client. Under a bounded credit window the ingest→work
/// links stall, the work stage's input SUnions declare the overload, and
/// the client sees delayed (tentative, later corrected) buckets instead of
/// silent unbounded buffering.
fn overload_chain(
    policy: CreditPolicy,
    seed: u64,
    episode: Option<u64>,
) -> (SystemBuilder, StreamId) {
    let o = ShardedChainOptions {
        shards: 1,
        replication: 2,
        total_rate: 300.0,
        per_node_delay: Duration::from_millis(500),
        // ~170 tuples/s of effective work-stage capacity (ingest + emission
        // both charge the CPU) — well under the offered 300/s.
        work_cost: Duration::from_millis(3),
        light_cost: Duration::from_micros(5),
        // `Some(n)`: each source stops after n tuples — a finite overload
        // burst that later drains, so stabilization can complete. `None`:
        // sustained overload (the node never catches up, §4.4.2, so no
        // REC_DONE — used for the boundedness measurements).
        source_limit: episode,
        heartbeat_period: Duration::from_millis(400),
        seed,
        ..Default::default()
    };
    let (builder, out) = sharded_chain_builder(&o);
    (builder.credit_policy(policy), out)
}

/// Bounded credit window under sustained overload (simulator): the
/// receiver-side in-flight depth stays at the window while the accounted
/// never-stalling baseline grows monotonically with the horizon — the
/// ROADMAP's "delayed, not unboundedly buffered" contract, measured.
#[test]
fn overload_bounded_window_caps_inflight_where_baseline_grows() {
    let _serial = serial();
    // --- Bounded: Window(4), sustained overload --------------------------
    let (builder, out) = overload_chain(CreditPolicy::Window(4), 77, None);
    let mut sys = builder.build();
    sys.run_until(Time::from_secs(8));
    let g = sys.flow_gauges();
    assert!(g.queued > 0, "overload must force credit stalls: {g:?}");
    assert!(g.stalls > 0);
    assert!(g.stall_time > Duration::ZERO);
    assert!(
        g.inflight_peak <= 4,
        "in-flight depth bounded by the window: {g:?}"
    );
    let (n_stable, n_tentative, dup) = sys
        .metrics
        .with(out, |m| (m.n_stable, m.n_tentative, m.dup_stable));
    assert!(
        n_tentative > 0,
        "the stall must surface as tentative (delayed) buckets, not silence"
    );
    // Under *sustained* overload the node never catches up with normal
    // execution, so stabilization cannot complete (§4.4.2) — the episode
    // tests below cover the corrected path. Stable output still covers the
    // pre-detection era.
    assert!(n_stable >= 100, "pre-stall stable prefix: {n_stable}");
    assert_eq!(dup, 0);

    // --- Never-stalling baseline: buffering grows with the horizon -------
    let peak_at = |secs: u64| {
        let (builder, _) = overload_chain(CreditPolicy::Window(u32::MAX), 77, None);
        let mut sys = builder.build();
        sys.run_until(Time::from_secs(secs));
        sys.flow_gauges().inflight_peak
    };
    let (peak4, peak8) = (peak_at(4), peak_at(8));
    assert!(
        peak8 > peak4,
        "unbounded baseline must keep growing: {peak4} → {peak8}"
    );
    assert!(
        peak8 > 4 * 4,
        "baseline buffering dwarfs the bounded window: {peak8}"
    );
}

/// Cross-runtime equivalence under credit-stall overload: the same
/// bounded-window slow-consumer deployment produces identical stable
/// output streams under the simulator and the thread engine — credit
/// backpressure may delay buckets, never reorder or drop stable data.
#[test]
fn overload_stable_stream_identical_across_runtimes() {
    let _serial = serial();
    let horizon = Time::from_secs(10);

    let (builder, out) = overload_chain(CreditPolicy::Window(4), 78, Some(150));
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let mut sim_sys = builder.metrics(metrics).build();
    sim_sys.run_until(horizon);
    let sim_gauges = sim_sys.flow_gauges();
    let (sim_stable, sim_dups) = sim_sys.metrics.with(out, |m| {
        // Availability through the stall (§6, Fig. 11's criterion): the
        // maximum gap between *new* tuples stays under the chain's total
        // delay budget (3 SUnion hops × 500 ms) — the overload manifests
        // as delayed buckets inside the budget, not as silence.
        assert!(
            m.max_gap <= Duration::from_millis(1500),
            "per-bucket added delay exceeded the delay budget: {}",
            m.max_gap
        );
        (
            stable_stream(m.trace.as_ref().expect("trace enabled")),
            m.dup_stable,
        )
    });

    let (builder, out2) = overload_chain(CreditPolicy::Window(4), 78, Some(150));
    assert_eq!(out, out2);
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let threads = deploy_threads(builder.metrics(metrics).layout());
    threads.run_for(std::time::Duration::from_millis(8500));
    let thr_gauges = threads.flow_gauges();
    let (thr_stable, thr_dups) = threads.metrics.with(out, |m| {
        (
            stable_stream(m.trace.as_ref().expect("trace enabled")),
            m.dup_stable,
        )
    });
    threads.shutdown();

    assert!(sim_gauges.queued > 0, "sim run must stall: {sim_gauges:?}");
    assert!(
        thr_gauges.queued > 0,
        "thread run must stall: {thr_gauges:?}"
    );
    assert!(sim_gauges.inflight_peak <= 4);
    assert!(thr_gauges.inflight_peak <= 4);
    assert_eq!(sim_dups, 0);
    assert_eq!(thr_dups, 0);
    // The episode is 450 data tuples; the simulator run converges to all
    // of them stable (eventual consistency through the stall), and the
    // wall-clock run must match over the common prefix.
    assert_eq!(sim_stable.len(), 450, "sim run fully stabilized");
    let common = sim_stable.len().min(thr_stable.len());
    assert!(
        common >= 300,
        "both runs must deliver a substantial stable stream: sim={} threads={}",
        sim_stable.len(),
        thr_stable.len()
    );
    assert_eq!(
        sim_stable[..common],
        thr_stable[..common],
        "stable streams diverge under credit stalls"
    );
}

/// The overload scenario composed with a mid-run replica crash: one work
/// replica dies while its input links are credit-stalled. The crash purges
/// that replica's queued sends, failover moves the client stream to the
/// survivor, and the stable streams still match across runtimes.
#[test]
fn overload_with_replica_crash_identical_across_runtimes() {
    let _serial = serial();
    let crash = FaultSpec::CrashReplica {
        frag: 1, // the overloaded work stage
        shard: 0,
        replica: 0,
        from: Time::from_millis(2500),
        to: None,
    };
    let horizon = Time::from_secs(12);

    let (builder, out) = overload_chain(CreditPolicy::Window(4), 79, Some(150));
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let mut sim_sys = builder.metrics(metrics).fault(crash.clone()).build();
    sim_sys.run_until(horizon);
    let (sim_stable, sim_dups) = sim_sys.metrics.with(out, |m| {
        (
            stable_stream(m.trace.as_ref().expect("trace enabled")),
            m.dup_stable,
        )
    });

    let (builder, _) = overload_chain(CreditPolicy::Window(4), 79, Some(150));
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let threads = deploy_threads(builder.metrics(metrics).fault(crash).layout());
    threads.run_for(std::time::Duration::from_millis(9000));
    let (thr_stable, thr_dups) = threads.metrics.with(out, |m| {
        (
            stable_stream(m.trace.as_ref().expect("trace enabled")),
            m.dup_stable,
        )
    });
    let drops = threads.shutdown();

    assert_eq!(sim_dups, 0);
    assert_eq!(thr_dups, 0);
    assert!(
        drops.total_drops() > 0,
        "the crash must sever traffic (stalled sends purged or in-flight lost): {drops:?}"
    );
    let common = sim_stable.len().min(thr_stable.len());
    assert!(
        common >= 250,
        "sim={} threads={}",
        sim_stable.len(),
        thr_stable.len()
    );
    assert_eq!(
        sim_stable[..common],
        thr_stable[..common],
        "stable streams diverge under overload + crash"
    );
}

/// Healthy-path equivalence at higher rate and no faults: sanity-checks
/// that wall-clock jitter alone (no failure handling involved) cannot
/// reorder or drop stable output.
#[test]
fn healthy_chain_stable_stream_identical_across_runtimes() {
    let _serial = serial();
    let o = ChainOptions {
        seed: 9,
        ..fast_chain()
    };

    let (builder, out) = chain_builder(&o);
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let mut sim_sys = builder.metrics(metrics).build();
    sim_sys.run_until(Time::from_secs(4));
    let sim_stable = sim_sys
        .metrics
        .with(out, |m| stable_stream(m.trace.as_ref().unwrap()));

    let (builder, _) = chain_builder(&o);
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let threads = deploy_threads(builder.metrics(metrics).layout());
    threads.run_for(std::time::Duration::from_millis(3000));
    let thr_stable = threads
        .metrics
        .with(out, |m| stable_stream(m.trace.as_ref().unwrap()));
    let drops = threads.shutdown();

    assert_eq!(drops.total_drops(), 0, "healthy run loses nothing");
    let common = sim_stable.len().min(thr_stable.len());
    assert!(
        common >= 250,
        "sim={} threads={}",
        sim_stable.len(),
        thr_stable.len()
    );
    assert_eq!(sim_stable[..common], thr_stable[..common]);
}

/// Fresh wall-clock deployments the paced test below compares with one
/// simulator reference; raise it to soak the ordering guarantee (the
/// scenario used to lose a bucket's tail in 1 of 160 episodes).
const PACED_EPISODES: usize = 4;

/// Per-link FIFO on the paced path, end to end on the wall clock: the
/// sharded chain (K = 4, replication 2, two workers) at 90k tuples/s with a
/// **non-zero modelled cost** — every node's outputs wait in its
/// publisher's departure queue for their instant — delivers, episode after
/// episode, exactly the simulator's stable stream: whole stream, not a
/// common prefix, with no duplicate, no tentative tuple and no drop. A
/// message overtaken on a link would be discarded by the receiver's
/// duplicate filter and show up here as missing tuples.
#[test]
fn paced_sharded_chain_whole_stream_identical_on_the_wall_clock() {
    let _serial = serial();
    const PER_SOURCE: u64 = 30_000; // one second of input
    let o = ShardedChainOptions {
        shards: 4,
        replication: 2,
        total_rate: 90_000.0,
        per_node_delay: Duration::from_secs(2),
        work_cost: Duration::from_micros(1),
        light_cost: Duration::from_micros(1),
        source_limit: Some(PER_SOURCE),
        heartbeat_period: Duration::from_millis(400),
        seed: 91,
        ..Default::default()
    };
    let expected = 3 * PER_SOURCE as usize;

    let (builder, out) = sharded_chain_builder(&o);
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let mut sim_sys = builder.metrics(metrics).build();
    sim_sys.run_until(Time::from_secs(4));
    let sim_stable = sim_sys
        .metrics
        .with(out, |m| stable_stream(m.trace.as_ref().expect("trace")));
    assert_eq!(sim_stable.len(), expected, "the reference is complete");

    let mut failed = Vec::new();
    for episode in 0..PACED_EPISODES {
        let (builder, _) = sharded_chain_builder(&o);
        let metrics = MetricsHub::new();
        metrics.enable_trace(out);
        let threads = deploy_threads(builder.metrics(metrics).workers(2).layout());
        // Input ends after one second; wait (bounded: a lost tuple never
        // arrives) for the output to drain.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while threads.metrics.with(out, |m| m.n_stable) < expected as u64
            && std::time::Instant::now() < deadline
        {
            threads.run_for(std::time::Duration::from_millis(20));
        }
        let (thr_stable, dups, tentative) = threads.metrics.with(out, |m| {
            let stream = stable_stream(m.trace.as_ref().expect("trace"));
            (stream, m.dup_stable, m.n_tentative)
        });
        let drops = threads.shutdown().total_drops();
        if thr_stable != sim_stable || dups + tentative + drops > 0 {
            failed.push(format!(
                "episode {episode}: {} of {expected} stable tuples; \
                 dup_stable {dups}, tentative {tentative}, drops {drops}",
                thr_stable.len(),
            ));
        }
    }
    println!(
        "paced wall-clock chain: {PACED_EPISODES} episodes run, {} failed",
        failed.len()
    );
    assert!(failed.is_empty(), "{failed:#?}");
}

/// The full portability ladder: the same [`TcpChainSpec`] deployment —
/// sharded chain, replication 2, one work-shard replica crashed mid-run —
/// executed (a) under the deterministic simulator, (b) on one in-process
/// worker pool, and (c) across **three OS processes** over loopback TCP,
/// must deliver byte-identical stable output over the common prefix.
///
/// This is the transport-independence guarantee the socket layer must not
/// break: credit windows ride the wire as explicit `CreditGrant` frames, a
/// torn connection is handled through the same NodeDown/purge path as an
/// in-process crash, and SUnion's deterministic bucket serialization makes
/// the corrected stable stream a function of the deployment description
/// alone — not of which transport carried it.
#[test]
fn stable_stream_identical_across_sim_threads_and_sockets() {
    let _serial = serial();
    let spec = TcpChainSpec {
        shards: 2,
        per_source_rate: 100.0,
        wall_ms: 4500,
        crash: true,
        procs: 3,
        workers: 2,
        seed: 33,
        source_limit: None,
        heartbeat_ms: 400,
        ..TcpChainSpec::default()
    };

    // (a) Deterministic simulator, virtual time.
    let (layout, out) = spec.layout(true);
    let mut sim_sys = layout.deploy_sim();
    sim_sys.run_until(Time::from_secs(6));
    let (sim_stable, sim_dups) = sim_sys.metrics.with(out, |m| {
        (
            stable_stream(m.trace.as_ref().expect("trace enabled")),
            m.dup_stable,
        )
    });

    // (b) One process, worker-pool threads.
    let (layout, _) = spec.layout(true);
    let threads = deploy_threads(layout);
    threads.run_for(std::time::Duration::from_millis(spec.wall_ms));
    let (thr_stable, thr_dups) = threads.metrics.with(out, |m| {
        (
            stable_stream(m.trace.as_ref().expect("trace enabled")),
            m.dup_stable,
        )
    });
    threads.shutdown();

    // (c) Three OS processes over loopback sockets: this process hosts the
    // sources and the client; two forked `tcp_node` children host the
    // fragment replicas (same-fragment replicas in different processes).
    let report =
        run_tcp_parent(&spec, env!("CARGO_BIN_EXE_tcp_node")).expect("tcp deployment runs");
    let tcp_stable = stable_stream(report.trace.as_ref().expect("trace enabled"));

    assert_eq!(sim_dups, 0, "simulator run violated stable-id monotonicity");
    assert_eq!(thr_dups, 0, "thread run violated stable-id monotonicity");
    assert_eq!(report.dup, 0, "socket run violated stable-id monotonicity");
    assert!(
        report.drops > 0,
        "the scripted crash must sever traffic somewhere in the cluster: {report:?}"
    );
    assert!(
        report.wire.frames_sent > 0 && report.wire.frames_recv > 0,
        "data must actually cross the wire: {:?}",
        report.wire
    );
    assert!(
        report.wire.frames_per_flush() >= 1.0,
        "the writer coalesces at least one frame per syscall: {:?}",
        report.wire
    );

    let common = sim_stable.len().min(thr_stable.len()).min(tcp_stable.len());
    assert!(
        common >= 300,
        "all three runs must deliver a substantial stable stream: sim={} threads={} tcp={}",
        sim_stable.len(),
        thr_stable.len(),
        tcp_stable.len()
    );
    assert_eq!(
        sim_stable[..common],
        thr_stable[..common],
        "thread run diverges from the simulator"
    );
    assert_eq!(
        sim_stable[..common],
        tcp_stable[..common],
        "socket run diverges from the simulator within the common prefix"
    );
}

/// Worker-count invariance: the sharded chain with a mid-run shard-replica
/// crash, deployed on pools of 1, 2, and 8 workers, must deliver the same
/// stable output stream as the single-threaded deterministic simulator —
/// over the common prefix, tuple for tuple. Pool sizing and steal
/// interleavings are scheduling details; the stable stream is a function of
/// the deployment description alone.
#[test]
fn stable_stream_invariant_across_worker_counts() {
    let _serial = serial();
    let o = ShardedChainOptions {
        shards: 2,
        total_rate: 300.0,
        per_node_delay: Duration::from_millis(500),
        work_cost: Duration::from_micros(10),
        light_cost: Duration::from_micros(5),
        heartbeat_period: Duration::from_millis(400),
        seed: 55,
        ..Default::default()
    };
    let crash = FaultSpec::CrashReplica {
        frag: 1,
        shard: 1,
        replica: 0,
        from: Time::from_millis(1500),
        to: None,
    };

    // Single-threaded simulator reference.
    let (builder, out) = sharded_chain_builder(&o);
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let mut sim_sys = builder.metrics(metrics).fault(crash.clone()).build();
    sim_sys.run_until(Time::from_secs(6));
    let sim_stable = sim_sys
        .metrics
        .with(out, |m| stable_stream(m.trace.as_ref().expect("trace")));

    for workers in [1usize, 2, 8] {
        let (builder, _) = sharded_chain_builder(&o);
        let metrics = MetricsHub::new();
        metrics.enable_trace(out);
        let layout = builder
            .metrics(metrics)
            .fault(crash.clone())
            .workers(workers)
            .layout();
        assert_eq!(layout.workers, Some(workers));
        let threads = deploy_threads(layout);
        threads.run_for(std::time::Duration::from_millis(4000));
        let (thr_stable, thr_dups) = threads.metrics.with(out, |m| {
            (
                stable_stream(m.trace.as_ref().expect("trace")),
                m.dup_stable,
            )
        });
        threads.shutdown();

        assert_eq!(thr_dups, 0, "workers={workers}: duplicate stable tuples");
        let common = sim_stable.len().min(thr_stable.len());
        assert!(
            common >= 250,
            "workers={workers}: sim={} threads={}",
            sim_stable.len(),
            thr_stable.len()
        );
        assert_eq!(
            sim_stable[..common],
            thr_stable[..common],
            "workers={workers}: stable stream diverged from the simulator"
        );
    }
}

/// Scratch directory for a durable-store test, clean at entry.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "borealis-cross-durable-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reads every node store's `last_recovery.marker` under `root`.
fn recovery_markers(root: &std::path::Path) -> Vec<String> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else {
        return found;
    };
    for e in entries.flatten() {
        if let Ok(s) = std::fs::read_to_string(e.path().join("last_recovery.marker")) {
            found.push(s.trim().to_string());
        }
    }
    found
}

/// Crash-then-restart with durable stores, sim vs threads: the replica the
/// client watches is killed mid-run and respawned 300 ms later; under both
/// runtimes it reloads its latest checkpoint from disk, replays the logged
/// input suffix, rejoins — and the delivered stable stream stays
/// byte-identical to the single-threaded simulator's, with zero duplicate
/// stable tuples.
#[test]
fn durable_restart_stable_stream_identical_across_runtimes() {
    let _serial = serial();
    let o = fast_chain();
    let frag = o.depth - 1; // the fragment the client watches
    let restart = FaultSpec::RestartReplica {
        frag,
        shard: 0,
        replica: 0,
        after: Time::from_millis(1500),
    };

    // --- Simulator run, durable stores on virtual time -------------------
    let sim_root = scratch("sim");
    let (builder, out) = chain_builder(&o);
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let mut sim_sys = builder
        .metrics(metrics)
        .durability(&sim_root, Duration::from_millis(250), false)
        .fault(restart.clone())
        .build();
    sim_sys.run_until(Time::from_secs(6));
    let (sim_stable, sim_dups) = sim_sys.metrics.with(out, |m| {
        (
            stable_stream(m.trace.as_ref().expect("trace enabled")),
            m.dup_stable,
        )
    });
    let sim_markers = recovery_markers(&sim_root);

    // --- Thread-runtime run, background flusher --------------------------
    let thr_root = scratch("threads");
    let (builder, out2) = chain_builder(&o);
    assert_eq!(out, out2);
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let layout = builder
        .metrics(metrics)
        .durability(&thr_root, Duration::from_millis(250), true)
        .fault(restart)
        .layout();
    let threads = deploy_threads(layout);
    threads.run_for(std::time::Duration::from_millis(4500));
    let (thr_stable, thr_dups) = threads.metrics.with(out, |m| {
        (
            stable_stream(m.trace.as_ref().expect("trace enabled")),
            m.dup_stable,
        )
    });
    threads.shutdown();

    assert_eq!(sim_dups, 0, "sim restart re-delivered stable tuples");
    assert_eq!(thr_dups, 0, "thread restart re-delivered stable tuples");
    assert_eq!(
        sim_markers.len(),
        1,
        "exactly the respawned replica recovers from disk: {sim_markers:?}"
    );
    let thr_markers = recovery_markers(&thr_root);
    assert_eq!(
        thr_markers.len(),
        1,
        "thread runtime: exactly one disk recovery: {thr_markers:?}"
    );
    assert!(
        thr_markers[0].starts_with("snapshot="),
        "marker records the recovered snapshot: {}",
        thr_markers[0]
    );
    let common = sim_stable.len().min(thr_stable.len());
    assert!(
        common >= 300,
        "both runs must deliver a substantial stable stream: sim={} threads={}",
        sim_stable.len(),
        thr_stable.len()
    );
    assert_eq!(
        sim_stable[..common],
        thr_stable[..common],
        "disk recovery changed the stable output"
    );
    let _ = std::fs::remove_dir_all(&sim_root);
    let _ = std::fs::remove_dir_all(&thr_root);
}

/// Kill-then-respawn across OS processes: worker process 1 (hosting one
/// replica of every fragment) is SIGKILLed at t=2 s and respawned with
/// `rejoin=true`; its nodes reload their checkpoints from the durable
/// stores, replay their input-log suffixes, and re-dial the mesh. The
/// stable stream the client retains must match the failure-free
/// deterministic simulator run of the same spec, tuple for tuple, with
/// zero duplicates — the tentpole guarantee on the real transport.
#[test]
fn tcp_killed_worker_respawns_and_recovers_from_disk() {
    let _serial = serial();
    let root = scratch("tcp");
    let spec = TcpChainSpec {
        shards: 2,
        per_source_rate: 100.0,
        wall_ms: 5000,
        crash: false,
        procs: 3,
        workers: 2,
        seed: 33,
        source_limit: None,
        durable_dir: Some(root.to_string_lossy().into_owned()),
        restart: Some((1, 2000)),
        // Subscription cleanup on the kill comes from the connection
        // reset, not staleness — stretched keep-alives only remove the
        // spurious-failover hazard on a starved runner.
        heartbeat_ms: 400,
        ..TcpChainSpec::default()
    };

    // Failure-free simulator reference of the identical topology (no
    // durable stores — the sim must not seed the TCP run's directories;
    // durability does not change the layout's id space).
    let sim_spec = TcpChainSpec {
        durable_dir: None,
        restart: None,
        ..spec.clone()
    };
    let (layout, out) = sim_spec.layout(true);
    let mut sim_sys = layout.deploy_sim();
    sim_sys.run_until(Time::from_secs(6));
    let sim_stable = sim_sys
        .metrics
        .with(out, |m| stable_stream(m.trace.as_ref().expect("trace")));

    let report = run_tcp_parent(&spec, env!("CARGO_BIN_EXE_tcp_node")).expect("tcp restart run");
    let tcp_stable = stable_stream(report.trace.as_ref().expect("trace enabled"));

    assert_eq!(report.dup, 0, "restart must not re-deliver stable tuples");
    // Evidence of the kill that cannot race: recovery markers are written
    // only by nodes that restarted from their (fresh, per-run) stores. A
    // drop count cannot serve — an immediate respawn can reconnect before
    // any peer sends into the dead connection, and then nothing is lost.
    assert!(
        !report.recoveries.is_empty(),
        "the respawned worker's nodes must recover from disk: {report:?}"
    );
    for marker in &report.recoveries {
        assert!(
            marker.starts_with("snapshot="),
            "marker records the recovered snapshot: {marker}"
        );
    }
    let common = sim_stable.len().min(tcp_stable.len());
    assert!(
        common >= 300,
        "both runs must deliver a substantial stable stream: sim={} tcp={}",
        sim_stable.len(),
        tcp_stable.len()
    );
    assert_eq!(
        sim_stable[..common],
        tcp_stable[..common],
        "kill + disk recovery changed the stable output on the wire"
    );
    let _ = std::fs::remove_dir_all(&root);
}
