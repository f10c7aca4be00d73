//! Failure-injection edge cases beyond the paper's scripted experiments:
//! partitions, back-to-back failures, combined fault types, total crashes.

use borealis::prelude::*;

mod common;
use common::{disconnect, secs};

/// The replicated three-source merge at 100 tuples/s a source, with the
/// test's fault schedule, under the simulator.
fn merge3(seed: u64, faults: impl IntoIterator<Item = FaultSpec>) -> (RunningSystem, StreamId) {
    let (builder, out) = common::merge3(seed, 2, 100.0, false);
    (builder.faults(faults).build(), out)
}

/// Back-to-back failures with a short gap: the second failure begins while
/// the system may still be stabilizing the first (Fig. 11(b) generalized).
#[test]
fn back_to_back_failures_converge() {
    let faults = [
        disconnect(2, secs(6), secs(10)),
        disconnect(2, secs(11), secs(15)),
        disconnect(1, secs(12), secs(16)),
    ];
    let (mut sys, out) = merge3(41, faults);
    sys.run_until(Time::from_secs(45));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_rec_done >= 1);
        assert!(m.n_stable > 10000, "stream converges: {}", m.n_stable);
        assert!(
            m.max_gap < Duration::from_millis(2600),
            "availability held: {}",
            m.max_gap
        );
    });
}

/// Boundary-mute and full disconnection combined on different streams.
#[test]
fn mixed_fault_types_converge() {
    let mute = FaultSpec::MuteBoundaries {
        stream: StreamId(0),
        from: secs(6),
        to: secs(12),
    };
    let (mut sys, out) = merge3(43, [mute, disconnect(2, secs(8), secs(14))]);
    sys.run_until(Time::from_secs(40));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_tentative > 0);
        assert!(m.n_rec_done >= 1);
    });
}

/// Crash of BOTH replicas (the paper's §2.2: with persistently logged
/// sources, DPC "can cope with the crash failure of all processing
/// nodes"). During the outage clients get nothing; after restart, nodes
/// rebuild from the source logs and the stream resumes without duplicates.
#[test]
fn total_crash_recovers_from_source_logs() {
    let crash = |replica| FaultSpec::Crash {
        domain: CrashDomain::Replica {
            frag: 0,
            shard: 0,
            replica,
        },
        from: secs(8),
        to: Some(secs(12)),
    };
    let (mut sys, out) = merge3(47, [crash(0), crash(1)]);
    sys.run_until(Time::from_secs(40));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0, "deterministic rebuild reuses the same ids");
        assert!(
            m.n_stable > 8000,
            "stream must resume after total crash: {}",
            m.n_stable
        );
    });
}

/// A network partition separating ONE replica from all sources: that
/// replica detects the silence via missed keep-alives (Fig. 5) and
/// advertises UP_FAILURE without ever producing tentative data; the client
/// switches to the healthy replica within the keep-alive bound.
#[test]
fn partitioned_replica_client_switches_fast() {
    let partition = (0..3).map(|s| FaultSpec::CutSourceLink {
        stream: StreamId(s),
        frag: 0,
        shard: 0,
        replica: 0,
        from: secs(8),
        to: secs(14),
    });
    let (mut sys, out) = merge3(53, partition);
    sys.run_until(Time::from_secs(40));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_stable > 9000);
        // The healthy replica serves throughout: the only gap is the
        // detection + switch window, far below the 2 s budget.
        assert!(m.max_gap < Duration::from_millis(1500), "gap {}", m.max_gap);
    });
}

/// A total input blackout (every source unreachable from every replica):
/// no availability guarantee exists — "as long as some path of non-blocking
/// operators is available" (Property 1) — but the system must deliver the
/// complete stream after the heal, without duplicates or tentative data
/// (nothing was processed from partial inputs).
#[test]
fn total_blackout_recovers_completely() {
    let blackout = (0..3).map(|s| disconnect(s, secs(8), secs(14)));
    let (mut sys, out) = merge3(57, blackout);
    sys.run_until(Time::from_secs(40));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0);
        // The blackout gap itself is expected; afterwards the backlog is
        // delivered stably and completely.
        assert!(m.n_stable > 10000, "complete delivery: {}", m.n_stable);
    });
}

/// Bounded output buffers (§8.1 convergent-capable mode): the system keeps
/// running with eviction; late subscribers may miss evicted history but
/// the live stream stays consistent.
#[test]
fn bounded_buffers_keep_live_stream_consistent() {
    let mut q = QueryBuilder::new();
    let s1 = q.source("s1");
    let s2 = q.source("s2");
    let u = q.union("merged", &[s1, s2]);
    q.output(u);
    let d = q.build().unwrap();
    let cfg = DpcConfig {
        total_delay: Duration::from_secs(2),
        ..DpcConfig::default()
    };
    let spec = DeploymentSpec::new()
        .fragment(FragmentSpec::named("all").buffer(BufferPolicy::DropOldest(2_000)));
    let p = plan_deployment(&d, &spec, &cfg).unwrap();
    let u = u.id();
    let mut sys = SystemBuilder::new(59, Duration::from_millis(1))
        .source(SourceConfig::seq(s1.id(), 100.0))
        .source(SourceConfig::seq(s2.id(), 100.0))
        .plan(p)
        .client_streams(vec![u])
        .fault(disconnect(1, secs(6), secs(10)))
        .build();
    sys.run_until(Time::from_secs(30));
    sys.metrics.with(u, |m| {
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_stable > 4000);
        assert!(m.n_rec_done >= 1);
    });
}

/// Flapping link: many short failures in sequence must not wedge the
/// protocol or leak inconsistency.
#[test]
fn flapping_link_does_not_wedge() {
    let flaps = (0..5u64).map(|k| {
        let start = secs(6 + 4 * k);
        disconnect(2, start, start + Duration::from_millis(1500))
    });
    let (mut sys, out) = merge3(61, flaps);
    sys.run_until(Time::from_secs(50));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0);
        assert!(
            m.n_stable > 12000,
            "stream survives flapping: {}",
            m.n_stable
        );
    });
}
