//! Durable snapshot codec round trips: for every stateful operator, a
//! checkpoint serialized through its [`SnapshotCodec`] and decoded into a
//! **fresh** operator instance must continue the stream exactly like the
//! original — same outputs for the same subsequent input. This is the
//! contract disk recovery rests on: a restarted process holds only bytes.

use borealis_ops::{AggFn, BatchEmitter, Operator, SOutput, SnapshotCodec};
use borealis_ops::{OperatorSpec, SUnionConfig};
use borealis_types::wire::Reader;
use borealis_types::{Duration, Expr, Time, Tuple, TupleId, Value};

/// Encode op A's checkpoint, decode into a fresh instance of `spec`, and
/// return that instance.
fn reload(op: &dyn Operator, spec: &OperatorSpec) -> Box<dyn Operator> {
    let codec: SnapshotCodec = op.snapshot_codec();
    let snap = op.checkpoint();
    let mut bytes = Vec::new();
    (codec.encode)(&snap, &mut bytes);
    let mut r = Reader::new(&bytes);
    let decoded = (codec.decode)(&mut r).expect("durable bytes decode");
    r.finish().expect("codec consumed all bytes");
    let mut fresh = spec.instantiate();
    fresh.restore(&decoded);
    fresh
}

fn drive(op: &mut dyn Operator, tuples: &[(usize, Tuple)], now: Time) -> Vec<Tuple> {
    let mut out = BatchEmitter::new();
    for (port, t) in tuples {
        op.process(*port, t, now, &mut out);
    }
    op.tick(now, true, &mut out);
    let (tuples, _) = out.take_tuples();
    tuples
}

fn data(id: u64, ms: u64, v: i64) -> Tuple {
    Tuple::insertion(TupleId(id), Time::from_millis(ms), vec![Value::Int(v)])
}

fn boundary(ms: u64) -> Tuple {
    Tuple::boundary(TupleId::NONE, Time::from_millis(ms))
}

/// Feed `warmup`, round-trip through the codec, then assert `probe`
/// produces identical output from the original and the reloaded clone.
fn assert_equivalent_after_reload(
    spec: OperatorSpec,
    warmup: Vec<(usize, Tuple)>,
    probe: Vec<(usize, Tuple)>,
    now: Time,
) {
    let mut original = spec.instantiate();
    drive(original.as_mut(), &warmup, now);
    let mut reloaded = reload(original.as_ref(), &spec);
    let later = Time(now.0 + Duration::from_millis(500).as_micros());
    let a = drive(original.as_mut(), &probe, later);
    let b = drive(reloaded.as_mut(), &probe, later);
    assert_eq!(a, b, "{spec:?}: reloaded operator diverged");
    assert!(
        !a.is_empty() || !probe.is_empty(),
        "probe should exercise the operator"
    );
}

#[test]
fn union_codec_round_trips() {
    assert_equivalent_after_reload(
        OperatorSpec::Union { n_inputs: 2 },
        vec![(0, data(1, 10, 7)), (1, data(2, 12, 8)), (0, boundary(20))],
        vec![(1, boundary(30)), (0, data(9, 25, 1))],
        Time::from_millis(40),
    );
}

#[test]
fn aggregate_codec_round_trips() {
    let spec = OperatorSpec::Aggregate(borealis_ops::AggregateSpec {
        window: Duration::from_millis(100),
        slide: Duration::from_millis(100),
        group_by: vec![Expr::field(0)],
        aggs: vec![AggFn::count(), AggFn::sum(Expr::field(0))],
    });
    assert_equivalent_after_reload(
        spec,
        vec![
            (0, data(1, 10, 1)),
            (0, data(2, 40, 2)),
            (0, data(3, 110, 1)),
        ],
        vec![(0, data(4, 130, 2)), (0, boundary(250))],
        Time::from_millis(150),
    );
}

#[test]
fn sjoin_codec_round_trips() {
    let spec = OperatorSpec::SJoin(borealis_ops::SJoinSpec {
        window: Duration::from_millis(200),
        left_key: Expr::field(0),
        right_key: Expr::field(0),
        max_state: Some(64),
        left_split: 1,
    });
    let mut left = data(1, 10, 42);
    left.origin = 0;
    let mut right = data(2, 20, 42);
    right.origin = 1;
    let mut probe_right = data(3, 30, 42);
    probe_right.origin = 1;
    assert_equivalent_after_reload(
        spec,
        vec![(0, left), (1, right)],
        vec![(1, probe_right)],
        Time::from_millis(50),
    );
}

#[test]
fn sunion_codec_round_trips_with_buffered_buckets() {
    let cfg = SUnionConfig {
        n_inputs: 2,
        bucket: Duration::from_millis(100),
        detect_delay: Duration::from_millis(300),
        delay_budget: Duration::from_millis(100),
        failure_mode: borealis_ops::DelayMode::Delay,
        stabilization_mode: borealis_ops::DelayMode::Delay,
        is_input: true,
    };
    // Warmup leaves data buffered in open buckets (no boundaries beyond
    // 100 ms), so the codec must carry non-trivial bucket state.
    assert_equivalent_after_reload(
        OperatorSpec::SUnion(cfg),
        vec![
            (0, data(1, 10, 1)),
            (1, data(2, 20, 2)),
            (0, data(3, 120, 3)),
            (0, boundary(100)),
            (1, boundary(100)),
        ],
        vec![(1, data(4, 150, 4)), (0, boundary(200)), (1, boundary(200))],
        Time::from_millis(130),
    );
}

#[test]
fn soutput_codec_round_trips_dedup_memory() {
    let spec = OperatorSpec::SOutput;
    let mut original = spec.instantiate();
    let now = Time::from_millis(10);
    drive(
        original.as_mut(),
        &[(0, data(1, 1, 0)), (0, data(2, 2, 0))],
        now,
    );
    let mut reloaded = reload(original.as_ref(), &spec);
    let so = reloaded
        .downcast_ref::<SOutput>()
        .expect("soutput downcast");
    assert_eq!(
        so.last_stable(),
        TupleId(2),
        "duplicate-suppression memory survives the byte round trip"
    );
    // A restarted node replaying its input log must drop regenerated
    // duplicates exactly like a live stabilization replay would.
    reloaded
        .downcast_mut::<SOutput>()
        .expect("soutput downcast")
        .begin_stabilization();
    let out = drive(
        reloaded.as_mut(),
        &[(0, data(2, 2, 0)), (0, data(3, 3, 0))],
        now,
    );
    let ids: Vec<u64> = out.iter().map(|t| t.id.0).collect();
    assert_eq!(
        ids,
        vec![3],
        "replayed duplicate suppressed, fresh tuple kept"
    );
}

#[test]
fn stateless_ops_use_the_unit_codec() {
    for spec in [
        OperatorSpec::Filter {
            predicate: Expr::ge(Expr::int(1), Expr::int(0)),
        },
        OperatorSpec::Map {
            outputs: vec![Expr::field(0)],
        },
    ] {
        let op = spec.instantiate();
        let codec = op.snapshot_codec();
        let mut bytes = Vec::new();
        (codec.encode)(&op.checkpoint(), &mut bytes);
        assert!(
            bytes.is_empty(),
            "{spec:?}: stateless encode writes nothing"
        );
        let mut r = Reader::new(&bytes);
        (codec.decode)(&mut r).expect("unit decode");
    }
}
