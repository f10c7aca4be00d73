//! Cross-crate semantic tests of the engine's DPC guarantees at the
//! fragment level: deterministic replay equivalence, operator composition
//! under failures, and window semantics across reconciliation.

use borealis::prelude::*;
use borealis_engine::Fragment;

/// Builds a fragment: two sources → filter(value odd) on s1 → union →
/// tumbling count aggregate → output.
fn pipeline_fragment() -> (Fragment, StreamId, StreamId, StreamId) {
    let mut q = QueryBuilder::new();
    let s1 = q.source("s1");
    let s2 = q.source("s2");
    let is_odd = Expr::eq(Expr::modulo(Expr::field(0), Expr::int(2)), Expr::int(1));
    let odd = q.filter("odd", s1, is_odd);
    let merged = q.union("merged", &[odd, s2]);
    let counted = q.aggregate(
        "counted",
        merged,
        AggregateSpec {
            window: Duration::from_millis(200),
            slide: Duration::from_millis(200),
            group_by: vec![],
            aggs: vec![AggFn::count(), AggFn::sum(Expr::field(0))],
        },
    );
    q.output(counted);
    let d = q.build().unwrap();
    let cfg = DpcConfig {
        total_delay: Duration::from_secs(1),
        ..DpcConfig::default()
    };
    let p = plan_deployment(&d, &DeploymentSpec::single(1), &cfg).unwrap();
    let f = Fragment::from_plan(&p.fragments[0]);
    (f, s1.id(), s2.id(), counted.id())
}

fn feed(f: &mut Fragment, stream: StreamId, id: u64, ms: u64, v: i64) -> Vec<(StreamId, Tuple)> {
    let t = Tuple::insertion(TupleId(id), Time::from_millis(ms), vec![Value::Int(v)]);
    f.push(stream, &t, Time::from_millis(ms)).tuples()
}

fn boundary(f: &mut Fragment, stream: StreamId, ms: u64) -> Vec<(StreamId, Tuple)> {
    let b = Tuple::boundary(TupleId::NONE, Time::from_millis(ms));
    f.push(stream, &b, Time::from_millis(ms)).tuples()
}

/// Two identical replicas fed the same tuples with different interleavings
/// produce byte-identical output — the core replica-consistency property
/// the SUnion serialization exists for (§4.2).
#[test]
fn replicas_stay_mutually_consistent() {
    let run = |swap: bool| {
        let (mut f, s1, s2, out) = pipeline_fragment();
        let mut emitted = Vec::new();
        for round in 0..10u64 {
            let ms = round * 100 + 10;
            if swap {
                emitted.extend(feed(&mut f, s2, round + 1, ms + 5, round as i64));
                emitted.extend(feed(&mut f, s1, round + 1, ms, round as i64));
            } else {
                emitted.extend(feed(&mut f, s1, round + 1, ms, round as i64));
                emitted.extend(feed(&mut f, s2, round + 1, ms + 5, round as i64));
            }
            emitted.extend(boundary(&mut f, s1, ms + 90));
            emitted.extend(boundary(&mut f, s2, ms + 90));
        }
        emitted
            .into_iter()
            .filter(|(s, t)| *s == out && t.is_data())
            .map(|(_, t)| (t.id, t.stime, t.values))
            .collect::<Vec<_>>()
    };
    let a = run(false);
    let b = run(true);
    assert!(!a.is_empty());
    assert_eq!(a, b, "replicas diverged under different arrival orders");
}

/// Aggregate windows spanning a failure are corrected exactly: the stable
/// correction for a window counts ALL tuples, not just the ones available
/// during the failure.
#[test]
fn window_corrections_count_missing_data() {
    let (mut f, s1, s2, out) = pipeline_fragment();
    // Healthy round.
    feed(&mut f, s1, 1, 50, 3);
    feed(&mut f, s2, 1, 60, 10);
    boundary(&mut f, s1, 190);
    boundary(&mut f, s2, 190);

    // s2 goes silent; s1 keeps flowing through stimes 200-400.
    feed(&mut f, s1, 2, 250, 5);
    boundary(&mut f, s1, 400);
    let released = f.tick(Time::from_millis(1500)).tuples(); // detection + tentative
    let tentative: Vec<&Tuple> = released
        .iter()
        .filter(|(s, t)| *s == out && t.is_tentative())
        .map(|(_, t)| t)
        .collect();
    assert!(!tentative.is_empty(), "tentative window expected");
    // Tentative window [200,400) counted only s1's odd tuple.
    let w = tentative.iter().find(|t| t.stime == Time::from_millis(400));
    if let Some(w) = w {
        assert_eq!(w.values[0], Value::Int(1), "only the available tuple");
    }

    // Heal: s2's backlog arrives with boundaries.
    feed(&mut f, s2, 2, 260, 20);
    feed(&mut f, s2, 3, 300, 30);
    boundary(&mut f, s1, 500);
    boundary(&mut f, s2, 500);
    assert!(f.can_reconcile());
    let mut all = f.reconcile(Time::from_millis(1600)).tuples();
    all.extend(f.finish_reconciliation(Time::from_millis(1700)).tuples());
    let corrected: Vec<&Tuple> = all
        .iter()
        .filter(|(s, t)| *s == out && t.is_stable_data())
        .map(|(_, t)| t)
        .collect();
    // The corrected [200,400) window must count s1's odd tuple AND both
    // s2 tuples: 3 total, sum 5+20+30 = 55.
    let w = corrected
        .iter()
        .find(|t| t.stime == Time::from_millis(400))
        .expect("corrected window");
    assert_eq!(w.values[0], Value::Int(3));
    assert_eq!(w.values[1], Value::Int(55));
}

/// The filter keeps operating on tentative data: failure-era tentative
/// output respects the same predicate as stable output.
#[test]
fn operators_apply_identically_to_tentative_data() {
    let (mut f, s1, s2, out) = pipeline_fragment();
    boundary(&mut f, s1, 10);
    boundary(&mut f, s2, 10);
    // s2 dies; even (filtered) and odd values arrive on s1.
    feed(&mut f, s1, 1, 100, 2); // filtered out
    feed(&mut f, s1, 2, 120, 7); // kept
    feed(&mut f, s1, 3, 350, 9); // kept, second window
    feed(&mut f, s1, 4, 450, 11); // kept, third window (closes the second)
    boundary(&mut f, s1, 400);
    let mut released = f.tick(Time::from_secs(3)).tuples();
    // A second tick releases the buckets the first release created inside
    // the fragment (mid-diagram SUnion, 300 ms Process-mode wait).
    released.extend(f.tick(Time::from_secs(4)).tuples());
    let windows: Vec<&Tuple> = released
        .iter()
        .filter(|(s, t)| *s == out && t.is_data())
        .map(|(_, t)| t)
        .collect();
    // Window [0,200): count 1 (only the 7); window [200,400): count 1 (the 9).
    assert_eq!(windows.len(), 2, "{windows:?}");
    assert!(windows.iter().all(|t| t.is_tentative()));
    assert_eq!(windows[0].values[0], Value::Int(1));
    assert_eq!(windows[1].values[0], Value::Int(1));
}

/// Repeated checkpoint/reconcile cycles keep regenerating identical ids —
/// the determinism that duplicate suppression (§4.4.2) relies on.
#[test]
fn repeated_reconciliations_stay_deterministic() {
    let (mut f, s1, s2, out) = pipeline_fragment();
    let mut stable_ids = Vec::new();
    for cycle in 0..3u64 {
        let base = cycle * 1000 + 100;
        // s2 silent for this cycle's first window.
        feed(&mut f, s1, cycle * 10 + 1, base, 1);
        boundary(&mut f, s1, base + 150);
        f.tick(Time::from_millis(base + 1200)); // tentative release
                                                // heal
        feed(&mut f, s2, cycle * 10 + 1, base + 20, 4);
        boundary(&mut f, s1, base + 900);
        boundary(&mut f, s2, base + 900);
        assert!(f.can_reconcile(), "cycle {cycle}");
        let mut tuples = f.reconcile(Time::from_millis(base + 1300)).tuples();
        tuples.extend(
            f.finish_reconciliation(Time::from_millis(base + 1400))
                .tuples(),
        );
        for (s, t) in tuples {
            if s == out && t.is_stable_data() {
                stable_ids.push(t.id);
            }
        }
    }
    assert!(
        stable_ids.len() >= 3,
        "three corrected windows: {stable_ids:?}"
    );
    assert!(
        stable_ids.windows(2).all(|w| w[0] < w[1]),
        "stable ids strictly increase across reconciliation cycles: {stable_ids:?}"
    );
}

/// Credit-stall surfacing at the fragment level: a stall on one input
/// stream outlasting its SUnion's detection delay takes the failure
/// checkpoint first (checkpoint-before-tentative, §4.4.1), flips the input
/// SUnion into UP_FAILURE, and starts the replay log — so when the stall
/// clears, standard reconciliation replays the stall era and emits it
/// stably, identically to a clean run.
#[test]
fn input_stall_checkpoints_declares_and_reconciles() {
    // Reference: a clean run of the same data.
    let clean = {
        let (mut f, s1, s2, _) = pipeline_fragment();
        let mut emitted = Vec::new();
        emitted.extend(feed(&mut f, s1, 1, 50, 3));
        emitted.extend(feed(&mut f, s2, 1, 120, 4));
        emitted.extend(boundary(&mut f, s1, 400));
        emitted.extend(boundary(&mut f, s2, 400));
        emitted
    };

    let (mut f, s1, s2, _) = pipeline_fragment();
    let mut emitted = Vec::new();
    emitted.extend(feed(&mut f, s1, 1, 50, 3));
    assert!(!f.is_tainted());

    // A short stall is ignored: no checkpoint, no failure.
    let b = f.note_input_stall(s1, Duration::from_millis(100), Time::from_millis(200));
    assert!(b.signals.is_empty());
    assert!(!f.is_tainted());

    // A long stall on s1: checkpoint, UP_FAILURE, recording on.
    let b = f.note_input_stall(s1, Duration::from_secs(5), Time::from_millis(300));
    assert!(b
        .signals
        .contains(&borealis::types::ControlSignal::UpFailure));
    assert!(f.is_tainted(), "checkpoint taken before the declaration");

    // The stall era's data arrives late and is recorded for replay; the
    // stalled input SUnion is in UP_FAILURE and its buffered bucket
    // releases tentatively under the failure-mode budget (into the
    // fragment-internal serializer, which buckets it in turn).
    emitted.extend(feed(&mut f, s2, 1, 120, 4));
    f.tick(Time::from_secs(2));
    assert!(
        !f.can_reconcile(),
        "the stalled input must still be in UP_FAILURE, uncorrected"
    );

    // Stall clears: boundaries cover everything, the fragment reconciles,
    // and the replay reproduces the clean run's stable output.
    emitted.extend(boundary(&mut f, s1, 400));
    emitted.extend(boundary(&mut f, s2, 400));
    assert!(f.can_reconcile(), "corrected inputs enable reconciliation");
    let mut stable: Vec<(StreamId, Tuple)> = f.reconcile(Time::from_secs(3)).tuples();
    stable.extend(f.finish_reconciliation(Time::from_secs(3)).tuples());
    let stable_data: Vec<&Tuple> = stable
        .iter()
        .map(|(_, t)| t)
        .filter(|t| t.kind == TupleKind::Insertion)
        .collect();
    let clean_data: Vec<&Tuple> = clean
        .iter()
        .map(|(_, t)| t)
        .filter(|t| t.kind == TupleKind::Insertion)
        .collect();
    assert_eq!(
        stable_data, clean_data,
        "stall era reconciles to the clean run"
    );
}
