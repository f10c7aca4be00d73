//! End-to-end integration tests spanning all crates: the paper's core
//! guarantees checked on full simulated deployments.

use borealis::prelude::*;

mod common;
use common::{disconnect, run_on, secs, Runtime};

/// The three-source merge at 100 tuples/s a source, with the test's fault
/// schedule, under the simulator.
fn merge3(
    seed: u64,
    replication: usize,
    trace: bool,
    faults: impl IntoIterator<Item = FaultSpec>,
) -> (RunningSystem, StreamId) {
    let (builder, out) = common::merge3(seed, replication, 100.0, trace);
    (builder.faults(faults).build(), out)
}

/// Definition 1 (eventual consistency), checked literally: after failures
/// heal, the client's final stream equals the failure-free run's stream —
/// for the Union merge and for the paper's §1 applications, whose Filter,
/// Aggregate and Join state must come back exactly through checkpoint,
/// undo and redo. Each row: a deployment, a source outage, the fewest
/// stable tuples its client must retain by 40 s, and whether the outage
/// must show as tentative output (a Join missing one input has nothing to
/// emit).
#[test]
fn eventual_consistency_exact_stream_equivalence() {
    type Scenario = fn() -> (SystemBuilder, StreamId);
    let rows: [(&str, Scenario, FaultSpec, usize, bool); 5] = [
        (
            "merge3",
            || common::merge3(5, 2, 100.0, false),
            disconnect(2, secs(8), secs(16)),
            9000,
            true,
        ),
        (
            "financial",
            || common::financial_feed(37),
            disconnect(1, secs(12), secs(18)),
            800,
            true,
        ),
        (
            "network",
            || common::network_monitoring(11),
            disconnect(2, secs(10), secs(18)),
            100,
            true,
        ),
        (
            "sensor-join",
            || {
                let (builder, alerts, _) = common::sensor_pipeline(23);
                (builder, alerts)
            },
            disconnect(1, secs(10), secs(20)),
            4000,
            false,
        ),
        (
            "sensor-liveness",
            || {
                let (builder, _, liveness) = common::sensor_pipeline(23);
                (builder, liveness)
            },
            disconnect(1, secs(10), secs(20)),
            35,
            true,
        ),
    ];
    for (name, scenario, outage, min_stable, tentative) in rows {
        let run = |faults: Vec<FaultSpec>| {
            let faulted = || {
                let (builder, out) = scenario();
                (builder.faults(faults.clone()), out)
            };
            run_on(Runtime::Sim, &faulted, secs(40))
        };
        let (clean, faulty) = (run(vec![]), run(vec![outage]));
        for o in [&clean, &faulty] {
            assert_eq!(o.dup_stable, 0, "{name}: duplicate stable tuples");
            assert_eq!(o.tentative_left(), 0, "{name}: tentative tuples left");
        }
        if tentative {
            assert!(faulty.n_tentative > 0, "{name}: no tentative output");
        }
        // Everything delivered stably agrees exactly: same ids, same
        // stimes, same order, same length.
        let stable = clean.stable();
        assert!(
            stable.len() >= min_stable,
            "{name}: {} stable",
            stable.len()
        );
        assert!(stable == faulty.stable(), "{name}: stable streams differ");
    }
}

/// Property 1 (availability): with a live replica path, new results keep
/// arriving within the incremental bound plus normal processing, at all
/// times — even while one replica reconciles a long failure.
#[test]
fn availability_bound_through_long_failure() {
    let (mut sys, out) = merge3(9, 2, false, [disconnect(2, secs(8), secs(38))]);
    sys.run_until(Time::from_secs(70));
    sys.metrics.with(out, |m| {
        // 1.8 s effective suspend + serialization/dispatch slack.
        assert!(
            m.max_gap < Duration::from_millis(2600),
            "gap {} exceeds the bound",
            m.max_gap
        );
        assert!(m.n_tentative > 0);
        assert_eq!(m.dup_stable, 0);
    });
}

/// A node crash mid-failure: the surviving replica carries the stream, the
/// crashed one recovers from upstream logs (§4.5), and no duplicates or
/// inconsistencies appear.
#[test]
fn crash_during_failure_and_recovery() {
    let crash = FaultSpec::Crash {
        domain: CrashDomain::Replica {
            frag: 0,
            shard: 0,
            replica: 0,
        },
        from: secs(10),
        to: Some(secs(20)),
    };
    let (mut sys, out) = merge3(13, 2, false, [disconnect(2, secs(8), secs(14)), crash]);
    sys.run_until(Time::from_secs(45));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_rec_done >= 1);
        assert!(m.n_stable > 8000, "stream must continue: {}", m.n_stable);
    });
}

/// Unreplicated deployments still guarantee eventual consistency (Fig. 11):
/// availability suffers during reconciliation, but all tentative data is
/// corrected and nothing is duplicated.
#[test]
fn single_replica_eventual_consistency() {
    let (mut sys, out) = merge3(17, 1, true, [disconnect(0, secs(8), secs(20))]);
    sys.run_until(Time::from_secs(45));
    sys.metrics.with(out, |m| {
        assert!(m.n_tentative > 0);
        assert!(m.n_undo >= 1);
        assert!(m.n_rec_done >= 1);
        assert_eq!(m.dup_stable, 0);
        let stream = final_stream(m.trace.as_ref().unwrap());
        // After the run, the retained stream must be stable except for the
        // in-flight tail.
        let first_tentative = stream
            .iter()
            .position(|&(_, _, k)| k == TupleKind::Tentative)
            .unwrap_or(stream.len());
        assert!(
            stream.len() - first_tentative < 400,
            "only the tail may remain tentative ({} of {})",
            stream.len() - first_tentative,
            stream.len()
        );
    });
}

/// Overlapping failures on two different input streams (Fig. 11(a)): a
/// single correction wave after the second failure heals; no duplicates.
#[test]
fn overlapping_failures_single_correction_wave() {
    let faults = [
        disconnect(0, secs(8), secs(16)),
        disconnect(2, secs(12), secs(20)),
    ];
    let (mut sys, out) = merge3(21, 1, true, faults);
    sys.run_until(Time::from_secs(45));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_rec_done >= 1);
        // The first heal (t=16) must not trigger reconciliation: stream 3
        // is still down. Tentative data spans both failures.
        assert!(m.n_tentative > 0);
    });
}

/// Buffer truncation under acknowledgments (§8.1): with clients acking,
/// output buffers stay bounded during failure-free operation.
#[test]
fn buffers_truncate_under_acks() {
    let (mut sys, out) = merge3(29, 2, false, []);
    sys.run_until(Time::from_secs(30));
    // Indirect check: the run completes with full delivery and no protocol
    // violations. (Buffer sizes are node-internal; the truncation path is
    // unit-tested in borealis-dpc; here we verify it does not corrupt the
    // stream over a long run with periodic acks.)
    sys.metrics.with(out, |m| {
        assert!(m.n_stable > 8500);
        assert_eq!(m.dup_stable, 0);
    });
}

/// Determinism: identical seeds and scripts yield byte-identical outcomes.
#[test]
fn runs_are_deterministic() {
    let run = || {
        let (mut sys, out) = merge3(31, 2, false, [disconnect(1, secs(5), secs(9))]);
        sys.run_until(Time::from_secs(20));
        sys.metrics.with(out, |m| {
            (m.n_stable, m.n_tentative, m.n_undo, m.n_rec_done, m.procnew)
        })
    };
    assert_eq!(run(), run());
}
