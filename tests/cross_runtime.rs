//! Cross-runtime equivalence: the same deployment description produces the
//! same *stable* output stream under the deterministic simulator, on the
//! real-time worker pool, and across a socket mesh.
//!
//! This is the paper's eventual-consistency guarantee turned into a
//! portability test. Source stimes and payloads are pure functions of the
//! sequence number, SUnion serializes buckets deterministically by
//! `(stime, origin, id)`, and reconciliation replays corrections into the
//! identical stable prefix — so even though a wall-clock run's arrival
//! timing jitters (and may force tentative data the simulator never
//! produces), the corrected stable stream must be identical tuple for
//! tuple, in order, on every runtime.
//!
//! Every test describes its deployment once, as a `scenario` closure, and
//! hands it to `common::run_on` per runtime; what it spells out is what is
//! particular to it — options, faults, runtimes, horizons, extra gauges.
//! `common::assert_same_stable_prefix` also holds every compared run to
//! `dup_stable == 0` (stable ids never repeat) and to the same stream id.

use borealis::prelude::*;
use borealis_workloads::{
    chain_builder, sharded_chain_builder, ChainOptions, ShardedChainOptions, DISTRIBUTED_VARIANTS,
};

mod common;
use common::{
    assert_same_stable_prefix, crash, ms, read_recovery_markers, run_on, run_while, secs, Runtime,
};

/// Serializes the tests in this binary. Every test here deploys on the
/// wall-clock thread engine (some on three of them joined by loopback
/// sockets) and compares the result against the virtual-time simulator;
/// running them concurrently oversubscribes the CPU far enough that
/// keep-alives go stale spuriously and the runs diverge for scheduling
/// reasons, not protocol ones.
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

/// The key-partitioned chain (ingest → work × 2 shards → deliver) at the
/// same pace, stretched keep-alives included.
fn fast_sharded_chain(seed: u64) -> ShardedChainOptions {
    ShardedChainOptions {
        shards: 2,
        total_rate: 300.0,
        per_node_delay: Duration::from_millis(500),
        work_cost: Duration::from_micros(10),
        light_cost: Duration::from_micros(5),
        heartbeat_period: Duration::from_millis(400),
        seed,
        ..Default::default()
    }
}

/// The chain workload with replication 2 and one scripted crash of the
/// replica the client watches, simulator vs thread runtime.
#[test]
fn chain_stable_stream_identical_across_runtimes() {
    let _serial = serial();
    let o = fast_chain();
    let scenario = || {
        let (builder, out) = chain_builder(&o);
        (builder.fault(crash(o.depth - 1, 0, ms(1500))), out)
    };
    let sim = run_on(Runtime::Sim, &scenario, secs(6));
    let thr = run_on(Runtime::Threads, &scenario, ms(4500));

    let lost = thr.stats.send_unreachable_drops + thr.stats.delivery_drops;
    assert!(lost > 0, "the crash must sever traffic: {:?}", thr.stats);
    // Thresholds leave >4x headroom below the ~1350 tuples a nominal run
    // delivers, so a starved CI runner slows the stream without failing it.
    assert_same_stable_prefix(&sim, &thr, 300);
}

/// Shard-merge determinism, on all three runtimes: replica 0 of shard 1 of
/// the "work" stage (logical fragment 1) crashes at t=1.5 s, for good; the
/// shard's surviving replica must carry its partition while everything else
/// flows undisturbed. The downstream SUnion's bucket-serialized merge of
/// the shard substreams and DPC's per-shard failover must be deterministic.
#[test]
fn sharded_chain_stable_stream_identical_across_runtimes() {
    let _serial = serial();
    let o = fast_sharded_chain(33);
    let scenario = || {
        let (builder, out) = sharded_chain_builder(&o);
        (builder.fault(crash(1, 1, ms(1500))), out)
    };
    let partitions = scenario().0.layout().partitions;
    assert!(!partitions.is_empty(), "shard replicas carry filters");
    let sim = run_on(Runtime::Sim, &scenario, secs(6));
    let thr = run_on(Runtime::Threads, &scenario, ms(4500));
    let tcp = run_on(Runtime::Tcp, &scenario, ms(4500));

    let lost = thr.stats.send_unreachable_drops + thr.stats.delivery_drops;
    assert!(lost > 0, "the crash must sever traffic: {:?}", thr.stats);
    let wire = tcp.stats.wire;
    assert!(wire.frames_sent > 0, "data crosses the sockets: {wire:?}");
    assert!(wire.frames_recv > 0, "in both directions: {wire:?}");
    // A flush carries at least one frame.
    assert!(wire.frames_per_flush() >= 1.0, "{wire:?}");
    assert_same_stable_prefix(&sim, &thr, 300);
    assert_same_stable_prefix(&sim, &tcp, 300);
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
        // ~170 tuples/s of effective work-stage capacity (ingest + emission
        // both charge the CPU) — well under the offered 300/s.
        work_cost: Duration::from_millis(3),
        // `Some(n)`: each source stops after n tuples — a finite overload
        // burst that later drains, so stabilization can complete. `None`:
        // sustained overload (the node never catches up, §4.4.2, so no
        // REC_DONE — used for the boundedness measurements).
        source_limit: episode,
        ..fast_sharded_chain(seed)
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
    let bounded = || overload_chain(CreditPolicy::Window(4), 77, None);
    let run = run_on(Runtime::Sim, &bounded, secs(8));
    let g = run.stats.flow;
    assert!(g.queued > 0, "overload must force credit stalls: {g:?}");
    assert!(g.stalls > 0);
    assert!(g.stall_time > Duration::ZERO);
    assert!(g.inflight_peak <= 4, "bounded by the window: {g:?}");
    // The stall must surface as tentative (delayed) buckets, not silence.
    assert!(run.n_tentative > 0);
    // Under *sustained* overload the node never catches up with normal
    // execution, so stabilization cannot complete (§4.4.2) — the episode
    // tests below cover the corrected path. Stable output still covers the
    // pre-detection era.
    assert!(run.n_stable >= 100, "pre-stall prefix: {}", run.n_stable);
    assert_eq!(run.dup_stable, 0);

    // --- Never-stalling baseline: buffering grows with the horizon -------
    let baseline = || overload_chain(CreditPolicy::Window(u32::MAX), 77, None);
    let flow_at = |s: u64| run_on(Runtime::Sim, &baseline, secs(s)).stats.flow;
    let (peak4, peak8) = (flow_at(4).inflight_peak, flow_at(8).inflight_peak);
    assert!(peak8 > peak4, "must keep growing: {peak4} → {peak8}");
    assert!(peak8 > 4 * 4, "dwarfs the bounded window: {peak8}");
}

/// Credit-stall overload on all three runtimes: backpressure may delay
/// buckets, never reorder or drop stable data.
#[test]
fn overload_stable_stream_identical_across_runtimes() {
    let _serial = serial();
    let scenario = || overload_chain(CreditPolicy::Window(4), 78, Some(150));
    let sim = run_on(Runtime::Sim, &scenario, secs(10));
    let thr = run_on(Runtime::Threads, &scenario, ms(8500));
    let tcp = run_on(Runtime::Tcp, &scenario, ms(8500));

    // Availability through the stall (§6, Fig. 11's criterion): the
    // maximum gap between *new* tuples stays under the chain's total
    // delay budget (3 SUnion hops × 500 ms) — the overload manifests
    // as delayed buckets inside the budget, not as silence.
    let budget = Duration::from_millis(1500);
    assert!(sim.max_gap <= budget, "added delay {}", sim.max_gap);
    let (sim_flow, thr_flow) = (sim.stats.flow, thr.stats.flow);
    assert!(sim_flow.queued > 0, "sim run must stall: {sim_flow:?}");
    assert!(thr_flow.queued > 0, "thread run must stall: {thr_flow:?}");
    assert!(sim_flow.inflight_peak <= 4);
    assert!(thr_flow.inflight_peak <= 4);
    // The episode is 450 data tuples; the simulator run converges to all
    // of them stable (eventual consistency through the stall), and the
    // wall-clock run must match over the common prefix.
    assert_eq!(sim.stable().len(), 450, "sim run fully stabilized");
    assert_same_stable_prefix(&sim, &thr, 300);
    assert_same_stable_prefix(&sim, &tcp, 300);
    // Ingest and work replicas sit in different shares: the stall is read
    // by the sender and reaches the work stage in its keep-alive reply.
    assert!(tcp.n_tentative > 0, "overload surfaced across the wire");
}

/// Overload composed with a mid-run replica crash: one work replica dies
/// while its input links are credit-stalled. The crash purges its queued
/// sends and failover moves the client stream to the survivor.
#[test]
fn overload_with_replica_crash_identical_across_runtimes() {
    let _serial = serial();
    let scenario = || {
        let (builder, out) = overload_chain(CreditPolicy::Window(4), 79, Some(150));
        (builder.fault(crash(1, 0, ms(2500))), out) // the overloaded work stage
    };
    let sim = run_on(Runtime::Sim, &scenario, secs(12));
    let thr = run_on(Runtime::Threads, &scenario, ms(9000));

    // Stalled sends purged or in-flight messages lost.
    let lost = thr.stats.total_drops();
    assert!(lost > 0, "the crash must sever traffic: {:?}", thr.stats);
    assert_same_stable_prefix(&sim, &thr, 250);
}

/// Healthy-path equivalence at higher rate and no faults: sanity-checks
/// that wall-clock jitter alone (no failure handling involved) cannot
/// reorder or drop stable output — in one pool, and across the socket mesh
/// under a 64-message credit window. There every consumer reads the
/// replica in its own share, so data crosses the sockets only from the
/// sources and to the client; the credits of those crossings go back as
/// `CreditGrant` frames, 32 at a time or with the next ack or keep-alive
/// to that share — so share 0, whose client reads across the wire, sends
/// some too.
#[test]
fn healthy_chain_stable_stream_identical_across_runtimes() {
    let _serial = serial();
    let o = ChainOptions {
        seed: 9,
        ..fast_chain()
    };
    let scenario = || chain_builder(&o);
    let windowed = || {
        let (builder, out) = chain_builder(&o);
        (builder.credit_policy(CreditPolicy::Window(64)), out)
    };
    let sim = run_on(Runtime::Sim, &scenario, secs(4));
    let thr = run_on(Runtime::Threads, &scenario, ms(3000));
    let tcp = run_on(Runtime::Tcp, &windowed, ms(3000));

    assert_eq!(thr.stats.total_drops(), 0, "healthy run loses nothing");
    let wire = tcp.stats.wire;
    assert!(wire.frames_sent > 0, "data crosses the sockets: {wire:?}");
    assert!(wire.grants_sent > 0, "and so does credit: {wire:?}");
    assert_same_stable_prefix(&sim, &thr, 250);
    assert_same_stable_prefix(&sim, &tcp, 250);
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
    const EXPECTED: u64 = 3 * 30_000; // one second of input from each source
    let o = ShardedChainOptions {
        shards: 4,
        replication: 2,
        total_rate: EXPECTED as f64,
        per_node_delay: Duration::from_secs(2),
        work_cost: Duration::from_micros(1),
        light_cost: Duration::from_micros(1),
        source_limit: Some(EXPECTED / 3),
        ..fast_sharded_chain(91)
    };
    let scenario = || {
        let (builder, out) = sharded_chain_builder(&o);
        (builder.workers(2), out)
    };
    let sim_stable = run_on(Runtime::Sim, &scenario, secs(4)).stable();
    assert_eq!(sim_stable.len() as u64, EXPECTED, "complete reference");

    let mut failed = Vec::new();
    for episode in 0..PACED_EPISODES {
        // Input ends after one second; wait (bounded: a lost tuple never
        // arrives) for the output to drain.
        let draining = |m: &borealis::dpc::StreamMetrics| m.n_stable < EXPECTED;
        let thr = run_while(Runtime::Threads, &scenario, secs(20), draining);
        let (dups, tentative) = (thr.dup_stable, thr.n_tentative);
        let drops = thr.stats.total_drops();
        if thr.stable() != sim_stable || dups + tentative + drops > 0 {
            failed.push(format!(
                "episode {episode}: {} of {EXPECTED} stable tuples; \
                 dup_stable {dups}, tentative {tentative}, drops {drops}",
                thr.stable().len(),
            ));
        }
    }
    let n_failed = failed.len();
    println!("paced wall-clock chain: {PACED_EPISODES} episodes run, {n_failed} failed");
    assert!(failed.is_empty(), "{failed:#?}");
}

/// Worker-count invariance: the sharded chain with a mid-run shard-replica
/// crash delivers the simulator's stable stream on pools of 1, 2 and 8
/// workers. Pool sizing and steal interleavings are scheduling details.
#[test]
fn stable_stream_invariant_across_worker_counts() {
    let _serial = serial();
    let o = fast_sharded_chain(55);
    let crashed = || {
        let (builder, out) = sharded_chain_builder(&o);
        (builder.fault(crash(1, 1, ms(1500))), out)
    };
    let sim = run_on(Runtime::Sim, &crashed, secs(6));
    for workers in [1usize, 2, 8] {
        println!("workers = {workers}"); // shown with a failing assertion
        let scenario = || {
            let (builder, out) = crashed();
            (builder.workers(workers), out)
        };
        assert_eq!(scenario().0.layout().workers, Some(workers));
        let thr = run_on(Runtime::Threads, &scenario, ms(4000));
        assert_same_stable_prefix(&sim, &thr, 250);
    }
}

/// Scratch directory for a durable-store test, clean at entry.
fn scratch(name: &str) -> std::path::PathBuf {
    let name = format!("borealis-cross-durable-{}-{name}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Crash-then-restart with durable stores, on every runtime: the replica
/// the client watches is killed mid-run and respawned 300 ms later; it
/// reloads its latest checkpoint from disk, replays the logged input
/// suffix and rejoins, without changing or repeating a stable tuple. The
/// crash is silent (§2.2): the client learns of it by missed keep-alives,
/// and re-subscribes once the restarted replica answers again, so stable
/// output resumes after the restart.
#[test]
fn durable_restart_stable_stream_identical_across_runtimes() {
    let _serial = serial();
    let o = fast_chain();
    let restart = FaultSpec::RestartReplica {
        frag: o.depth - 1, // the fragment the client watches
        shard: 0,
        replica: 0,
        after: ms(1500),
    };
    // Durable stores on virtual time under the simulator, behind each
    // process's flusher on the wall clock.
    let roots = [scratch("sim"), scratch("threads"), scratch("tcp")];
    let stored = |root: &std::path::Path, background: bool| {
        let (builder, out) = chain_builder(&o);
        let every = Duration::from_millis(250);
        let builder = builder.durability(root, every, background);
        (builder.fault(restart.clone()), out)
    };
    let sim = run_on(Runtime::Sim, &|| stored(&roots[0], false), secs(6));
    let thr = run_on(Runtime::Threads, &|| stored(&roots[1], true), ms(4500));
    let tcp = run_on(Runtime::Tcp, &|| stored(&roots[2], true), ms(4500));

    for (run, root) in [&sim, &thr, &tcp].into_iter().zip(&roots) {
        // Exactly the respawned replica recovers from disk, and its marker
        // records the snapshot it recovered.
        let markers = read_recovery_markers(root);
        assert_eq!(markers.len(), 1, "{root:?}: {markers:?}");
        assert!(markers[0].starts_with("snapshot="), "{root:?}: {markers:?}");
        // Stable output resumes: a stime well past the restart reaches
        // the client.
        let last = run.stable().last().map_or(0, |&(_, stime)| stime);
        assert!(
            last >= ms(3000).as_micros(),
            "{root:?}: {} stable tuples, the last at {last} µs",
            run.stable().len()
        );
        let _ = std::fs::remove_dir_all(root);
    }
    // Disk recovery re-delivers nothing and changes nothing.
    assert_same_stable_prefix(&sim, &thr, 300);
    assert_same_stable_prefix(&sim, &tcp, 300);
}

/// Episodes of the durability-only soak below, ≈ 5 s each.
const DURABLE_SOAK_EPISODES: usize = 20;

/// Durable stores and nothing else, at default detection settings: the
/// benchmark's sharded chain (K = 4, replication 2, two workers) at 45k
/// tuples/s with 1 µs modelled cost, 100 ms keep-alives and 500 ms per
/// SUnion, every replica checkpointing every 250 ms behind the process's
/// flusher, and no fault. Every episode on the pool must deliver the
/// simulator's whole stable stream. Evidence for the wall-clock failure
/// table, so a failing episode is reported with its signature; run it with
/// `cargo test --release --test cross_runtime durability_only -- --ignored
/// --nocapture`.
#[test]
#[ignore = "a soak of ≈ 2 minutes"]
fn durability_only_chain_delivers_the_whole_stream_on_threads() {
    let _serial = serial();
    const EXPECTED: u64 = 3 * 60_000; // four seconds of input from each source
    let o = ShardedChainOptions {
        shards: 4,
        replication: 2,
        total_rate: 45_000.0,
        per_node_delay: Duration::from_millis(500),
        heartbeat_period: Duration::from_millis(100),
        work_cost: Duration::from_micros(1),
        light_cost: Duration::from_micros(1),
        source_limit: Some(EXPECTED / 3),
        seed: 7,
        ..ShardedChainOptions::default()
    };
    let chain = || {
        let (builder, out) = sharded_chain_builder(&o);
        (builder.workers(2), out)
    };
    let sim = run_on(Runtime::Sim, &chain, secs(8));
    assert_eq!(sim.stable().len() as u64, EXPECTED, "complete reference");

    let mut failed = Vec::new();
    for episode in 0..DURABLE_SOAK_EPISODES {
        let root = scratch(&format!("soak-{episode}"));
        let stored = || {
            let (builder, out) = chain();
            (
                builder.durability(&root, Duration::from_millis(250), true),
                out,
            )
        };
        let draining = |m: &borealis::dpc::StreamMetrics| m.n_stable < EXPECTED;
        let thr = run_while(Runtime::Threads, &stored, secs(10), draining);
        let same = std::panic::catch_unwind(|| assert_same_stable_prefix(&sim, &thr, 1));
        let stable = thr.stable().len() as u64;
        if same.is_err() || stable != EXPECTED {
            let (sim_stable, thr_stable) = (sim.stable(), thr.stable());
            let diverged = sim_stable.iter().zip(&thr_stable).position(|(a, b)| a != b);
            failed.push(format!(
                "episode {episode}: {stable} of {EXPECTED} stable tuples, first divergence \
                 {diverged:?}; dup_stable {}, tentative left {}, drops {}",
                thr.dup_stable,
                thr.tentative_left(),
                thr.stats.total_drops(),
            ));
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    let n_failed = failed.len();
    println!("durability-only chain: {DURABLE_SOAK_EPISODES} episodes run, {n_failed} failed");
    assert!(failed.is_empty(), "{failed:#?}");
}

/// Kill-then-respawn of a whole process, from one fault list on every
/// runtime: share 1 of [`common::TCP_SHARES`], which hosts one replica of
/// every fragment, crashes at t = 2 s and respawns at once. Every survivor
/// hears the crash at once — over TCP through its torn connections, every
/// connection torn without a `Goodbye` and a fresh share rejoining the
/// mesh. The respawned nodes reload their checkpoints from the durable
/// stores, replay their input-log suffixes and re-subscribe. Each runtime
/// must keep the stream flowing past the crash and agree with the
/// simulator's run of the same crash, and share 0 must hold every
/// respawned actor up again.
#[test]
fn tcp_killed_worker_respawns_and_recovers_from_disk() {
    let _serial = serial();
    let o = fast_sharded_chain(33);
    let kill = FaultSpec::Crash {
        domain: CrashDomain::Share {
            share: 1,
            shares: common::TCP_SHARES,
        },
        from: ms(2000),
        to: Some(ms(2000)),
    };
    // Durable stores on virtual time under the simulator, behind each
    // process's flusher on the wall clock.
    let roots = [
        scratch("kill-sim"),
        scratch("kill-threads"),
        scratch("kill-tcp"),
    ];
    let stored = |root: &std::path::Path, background: bool| {
        let (builder, out) = sharded_chain_builder(&o);
        let every = Duration::from_millis(250);
        let builder = builder.durability(root, every, background);
        (builder.fault(kill.clone()), out)
    };
    let sim = run_on(Runtime::Sim, &|| stored(&roots[0], false), secs(6));
    let thr = run_on(Runtime::Threads, &|| stored(&roots[1], true), ms(5000));
    let tcp = run_on(Runtime::Tcp, &|| stored(&roots[2], true), ms(5000));

    for (run, root) in [&sim, &thr, &tcp].into_iter().zip(&roots) {
        // Evidence of the kill that cannot race: recovery markers are
        // written only by nodes that restarted from their (fresh, per-run)
        // stores. A drop count cannot serve — the respawn can reconnect
        // before any peer sends into the dead connection, and then nothing
        // is lost.
        let recovered = read_recovery_markers(root);
        assert!(!recovered.is_empty(), "{root:?}: nodes recover from disk");
        for marker in &recovered {
            assert!(marker.starts_with("snapshot="), "marker {marker}");
        }
        // The survivors carry the stream on with the respawned share:
        // stable output from a second past the crash reaches the client.
        let last = run.stable().last().map_or(0, |&(_, stime)| stime);
        assert!(
            last >= ms(3000).as_micros(),
            "{root:?}: stable output stops at {last} µs"
        );
        let _ = std::fs::remove_dir_all(root);
    }
    // The survivors admitted the respawned share's actors back up.
    assert!(tcp.down.is_empty(), "left down in share 0: {:?}", tcp.down);
    // Kill + disk recovery re-delivers nothing and changes nothing.
    assert_same_stable_prefix(&sim, &thr, 300);
    assert_same_stable_prefix(&sim, &tcp, 300);
}
