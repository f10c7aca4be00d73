//! Integration tests of distributed (multi-fragment) deployments: the
//! paper's chain dynamics (§6.2, Fig. 17) as assertions.

use borealis::prelude::*;
use borealis_workloads::{chain_builder, ChainOptions, DISTRIBUTED_VARIANTS};

mod common;
use common::{disconnect, secs};

/// The Fig. 14 chain under the simulator with the §6.2 failure: stream 3's
/// boundaries muted from t = 10 s until `heal`.
fn muted_chain(o: &ChainOptions, heal: Time) -> (RunningSystem, StreamId) {
    let (builder, out) = chain_builder(o);
    let mute = FaultSpec::MuteBoundaries {
        stream: StreamId(2),
        from: secs(10),
        to: heal,
    };
    (builder.fault(mute).build(), out)
}

/// A chain of three replicated node pairs survives a boundary-mute failure:
/// tentative data flows end-to-end and is corrected through the whole chain
/// (each stage reconciles, Fig. 17's parallel stabilization).
#[test]
fn chain_corrects_through_all_stages() {
    let o = ChainOptions {
        depth: 3,
        variant: DISTRIBUTED_VARIANTS[1], // Process & Process
        ..Default::default()
    };
    let (mut sys, out) = muted_chain(&o, secs(18));
    sys.run_until(Time::from_secs(50));
    sys.metrics.with(out, |m| {
        assert!(m.n_tentative > 0, "failure must propagate down the chain");
        assert!(m.n_rec_done >= 1, "corrections must reach the client");
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_stable > 12000, "stable stream restored: {}", m.n_stable);
    });
}

/// §6.2's headline: in a chain, Process & Process keeps end-to-end latency
/// near a single node's delay because all SUnions suspend simultaneously
/// (the first node's silence cuts boundaries for everyone downstream).
#[test]
fn chain_suspends_simultaneously_under_process_mode() {
    let run = |depth| {
        let o = ChainOptions {
            depth,
            variant: DISTRIBUTED_VARIANTS[1],
            ..Default::default()
        };
        let (mut sys, out) = muted_chain(&o, secs(25));
        sys.run_until(Time::from_secs(55));
        sys.metrics.with(out, |m| m.procnew)
    };
    let d1 = run(1);
    let d4 = run(4);
    // Depth 4 must cost far less than 4x the single-node latency (the
    // paper: ~+0.3 s per node, not +D per node).
    assert!(
        d4 < Duration::from_micros(d1.as_micros() * 2),
        "depth-4 latency {d4} should be < 2x depth-1 latency {d1}"
    );
}

/// §6.2's consistency result: with Delay & Delay and a short failure,
/// deeper chains produce FEWER tentative tuples (the delay accumulates
/// along the chain and reconciliation catches the delayed data).
#[test]
fn delaying_reduces_tentative_count_with_depth() {
    let run = |depth| {
        let o = ChainOptions {
            depth,
            variant: DISTRIBUTED_VARIANTS[0], // Delay & Delay
            ..Default::default()
        };
        let (mut sys, out) = muted_chain(&o, secs(15));
        sys.run_until(Time::from_secs(45));
        sys.metrics.with(out, |m| m.n_tentative)
    };
    let shallow = run(1);
    let deep = run(4);
    assert!(
        deep < shallow,
        "delaying should reduce tentative output with depth: depth1={shallow} depth4={deep}"
    );
}

/// §6.3's delay-assignment result: granting every SUnion the full budget
/// masks failures shorter than the budget entirely.
#[test]
fn full_delay_assignment_masks_short_failures() {
    let o = ChainOptions {
        depth: 4,
        assignment: DelayAssignment::Full {
            effective: Duration::from_secs_f64(6.5),
        },
        variant: DISTRIBUTED_VARIANTS[1],
        ..Default::default()
    };
    let (mut sys, out) = muted_chain(&o, secs(15));
    sys.run_until(Time::from_secs(45));
    sys.metrics.with(out, |m| {
        assert_eq!(m.n_tentative, 0, "a 5 s failure must be fully masked");
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_stable > 15000);
    });
}

/// Fine-grained failure advertisement (§8.2): a failure on one diagram
/// branch leaves the other branch's output stream stable — its consumers
/// never see tentative data.
#[test]
fn unaffected_streams_stay_stable() {
    let mut q = QueryBuilder::new();
    let s1 = q.source("s1");
    let s2 = q.source("s2");
    let f1 = q.filter("branch1", s1, Expr::Const(Value::Bool(true)));
    let f2 = q.filter("branch2", s2, Expr::Const(Value::Bool(true)));
    q.output(f1);
    q.output(f2);
    let d = q.build().unwrap();
    let cfg = DpcConfig {
        total_delay: Duration::from_secs(2),
        ..DpcConfig::default()
    };
    let p = plan_deployment(&d, &DeploymentSpec::single(2), &cfg).unwrap();
    let (f1, f2) = (f1.id(), f2.id());
    let mut sys = SystemBuilder::new(3, Duration::from_millis(1))
        .source(SourceConfig::seq(s1.id(), 100.0))
        .source(SourceConfig::seq(s2.id(), 100.0))
        .plan(p)
        .client_streams(vec![f1, f2])
        .fault(disconnect(1, secs(8), secs(14)))
        .build();
    sys.run_until(Time::from_secs(30));
    sys.metrics.with(f1, |m| {
        assert_eq!(m.n_tentative, 0, "branch 1 must be unaffected");
        assert!(m.n_stable > 2500);
    });
    sys.metrics.with(f2, |m| {
        assert!(m.n_tentative > 0, "branch 2 must have failed over");
        assert!(m.n_rec_done >= 1);
        assert_eq!(m.dup_stable, 0);
    });
}
