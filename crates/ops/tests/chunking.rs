//! Chunking invariance, for every operator: how a stream is cut into
//! batches is an optimization, never a semantic. A seeded random mixed-kind
//! stream (stable, tentative, boundary, UNDO, REC_DONE) arrives as a script
//! of deliveries — a port, an arrival time, a run of tuples — and is fed
//! once tuple by tuple (singleton batches) and once under a random cut of
//! every delivery; both feeds must leave the same output tuples, control
//! signals, replay log (SUnion) and durable snapshot bytes. This is the one
//! safety net under the zero-copy batch paths: `SUnion` buffering shared
//! views, `SOutput` forwarding whole batches, `Filter` forwarding runs,
//! `Map` forwarding a batch it reproduces.
//! Payloads are zero to three attributes wide, so every `Payload` variant
//! crosses every operator.

use borealis_ops::{
    AggFn, AggregateSpec, BatchEmitter, OpSnapshot, Operator, OperatorSpec, SJoinSpec, SOutput,
    SUnion, SUnionConfig,
};
use borealis_types::{
    ControlSignal, Duration, Expr, Time, Tuple, TupleBatch, TupleId, TupleKind, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One instance of every [`OperatorSpec`] variant, and a second `Map`.
fn every_spec() -> Vec<OperatorSpec> {
    let sunion = SUnionConfig {
        is_input: true,
        ..SUnionConfig::new(2)
    };
    vec![
        OperatorSpec::Filter {
            predicate: Expr::gt(Expr::field(0), Expr::int(0)),
        },
        // Narrows a shared payload to one inline attribute.
        OperatorSpec::Map {
            outputs: vec![Expr::add(Expr::field(0), Expr::int(1))],
        },
        // Forwards a chunk of one-attribute tuples, computes any other.
        OperatorSpec::Map {
            outputs: vec![Expr::field(0)],
        },
        OperatorSpec::Union { n_inputs: 2 },
        OperatorSpec::Aggregate(AggregateSpec {
            window: Duration::from_millis(100),
            slide: Duration::from_millis(50),
            group_by: vec![Expr::field(1)],
            aggs: vec![AggFn::count(), AggFn::sum(Expr::field(0))],
        }),
        OperatorSpec::SJoin(SJoinSpec {
            window: Duration::from_millis(50),
            left_key: Expr::field(1),
            right_key: Expr::field(1),
            max_state: Some(16),
            left_split: 1,
        }),
        OperatorSpec::SUnion(sunion),
        OperatorSpec::SOutput,
    ]
}

/// One arrival: a run of one shared allocation, on one port at one instant.
struct Delivery {
    port: usize,
    at: Time,
    tuples: TupleBatch,
    /// `SOutput` only: a reconciliation replay starts before this arrival.
    stabilize: bool,
    /// Take a checkpoint before this arrival and keep it to the end.
    hold: bool,
}

fn script(rng: &mut StdRng, n_ports: usize) -> Vec<Delivery> {
    let mut next_id = 1u64;
    let mut at = Time::from_millis(1);
    let mut deliveries = Vec::new();
    for _ in 0..rng.gen_range(1usize..12) {
        let stabilize = rng.gen_range(0u32..10) == 0;
        if stabilize {
            // The replay regenerates earlier ids.
            next_id = next_id.saturating_sub(rng.gen_range(0u64..20)).max(1);
        }
        let tuples = (0..rng.gen_range(1usize..40)).map(|_| {
            let stime = Time::from_millis(rng.gen_range(0u64..1_000));
            // Every payload variant: empty, one attribute inline, or two
            // and three shared.
            let values: Vec<Value> = [
                Value::Int(rng.gen_range(-5i64..5)),
                Value::Int(rng.gen_range(0i64..3)),
                Value::str("elm"),
            ][..rng.gen_range(0usize..4)]
                .to_vec();
            let mut t = match rng.gen_range(0u32..100) {
                0..60 => Tuple::insertion(TupleId(next_id), stime, values),
                60..82 => Tuple::tentative(TupleId(next_id), stime, values),
                82..93 => return Tuple::boundary(TupleId::NONE, stime),
                93..97 => return Tuple::undo(TupleId::NONE, TupleId(next_id / 2)),
                _ => return Tuple::rec_done(TupleId::NONE, stime),
            };
            next_id += 1;
            t.origin = rng.gen_range(0u32..2) as u16; // the join's side
            t
        });
        let tuples: Vec<Tuple> = tuples.collect();
        deliveries.push(Delivery {
            port: rng.gen_range(0..n_ports),
            at,
            tuples: TupleBatch::from_vec(tuples),
            stabilize,
            hold: rng.gen_range(0u32..5) == 0,
        });
        at = Time(at.0 + rng.gen_range(0u64..5_000));
    }
    deliveries
}

fn snapshot_bytes(op: &dyn Operator, snap: &OpSnapshot) -> Vec<u8> {
    let mut bytes = Vec::new();
    (op.snapshot_codec().encode)(snap, &mut bytes);
    bytes
}

/// Everything a feed leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    tuples: Vec<Tuple>,
    signals: Vec<ControlSignal>,
    replay_log: Vec<(Time, usize, Tuple)>,
    snapshot: Vec<u8>,
}

/// Feeds `script` to a fresh `spec`, cutting every delivery into random
/// chunks of at most `max_chunk` tuples. `tally` counts how often `SOutput`
/// forwarded a chunk whole, and how often it could not.
fn feed(
    spec: &OperatorSpec,
    script: &[Delivery],
    max_chunk: usize,
    rng: &mut StdRng,
    tally: &mut [usize; 2],
) -> Observed {
    let mut op = spec.instantiate();
    if let Some(sunion) = op.downcast_mut::<SUnion>() {
        sunion.set_recording(true);
    }
    let (mut tuples, mut signals, mut held) = (Vec::new(), Vec::new(), Vec::new());
    let mut emit = |mut out: BatchEmitter| {
        let (chunks, s) = out.take();
        tuples.extend(chunks.iter().flat_map(|c| c.to_vec()));
        signals.extend(s);
        chunks
    };
    // SOutput deduplicates a replay from here until its REC_DONE.
    let mut stabilizing = false;
    for d in script {
        if d.stabilize {
            if let Some(soutput) = op.downcast_mut::<SOutput>() {
                soutput.begin_stabilization();
                stabilizing = true;
            }
        }
        if d.hold {
            let snap = op.checkpoint();
            held.push((snapshot_bytes(op.as_ref(), &snap), snap));
        }
        let mut start = 0;
        while start < d.tuples.len() {
            let left = d.tuples.len() - start;
            let len = 1 + rng.gen_range(0..left.min(max_chunk));
            let chunk = d.tuples.slice(start..start + len);
            start += len;
            // Outside stabilization a REC_DONE-free batch is a pure
            // pass-through: the *same* allocation goes downstream.
            let rec_done = chunk.iter().any(|t| t.kind == TupleKind::RecDone);
            let passes_whole = op
                .downcast_ref::<SOutput>()
                .map(|_| !stabilizing && !rec_done);
            stabilizing &= !rec_done;
            let mut out = BatchEmitter::new();
            op.process_batch(d.port, &chunk, d.at, &mut out);
            let chunks = emit(out);
            if passes_whole == Some(true) {
                assert_eq!(chunks.len(), 1, "one forwarded batch");
                assert!(chunks[0].shares_backing(&chunk), "zero-copy");
            }
            if let Some(whole) = passes_whole {
                tally[whole as usize] += 1;
            }
        }
    }
    // Flush whatever the availability path would still release.
    let mut out = BatchEmitter::new();
    op.tick(Time::from_secs(100), true, &mut out);
    emit(out);
    // A held checkpoint never observes later batches.
    for (then, snap) in &held {
        let now = snapshot_bytes(op.as_ref(), snap);
        assert_eq!(&now, then, "{}: checkpoint mutated", spec.kind_name());
    }
    let log = op.downcast_mut::<SUnion>().map(|s| s.take_replay_log());
    let flat = |(at, port, b): (Time, usize, TupleBatch)| {
        b.to_vec().into_iter().map(move |t| (at, port, t))
    };
    let snap = op.checkpoint();
    Observed {
        tuples,
        signals,
        replay_log: log.into_iter().flatten().flat_map(flat).collect(),
        snapshot: snapshot_bytes(op.as_ref(), &snap),
    }
}

#[test]
fn chunking_never_shows_in_any_operators_output_or_state() {
    let specs = every_spec();
    let mut kinds: Vec<&str> = specs.iter().map(|s| s.kind_name()).collect();
    kinds.dedup();
    assert_eq!(kinds.len(), 7, "one spec a variant: {kinds:?}");

    let mut rng = StdRng::seed_from_u64(0xC4_0B);
    let (mut singly, mut chunked) = ([0; 2], [0; 2]);
    for spec in &specs {
        for case in 0..60 {
            let script = script(&mut rng, spec.n_inputs());
            let by_tuple = feed(spec, &script, 1, &mut rng, &mut singly);
            let by_chunk = feed(spec, &script, 17, &mut rng, &mut chunked);
            assert_eq!(by_tuple, by_chunk, "{} case {case}", spec.kind_name());
        }
    }
    for [stepped, whole] in [singly, chunked] {
        assert!(whole > 100 && stepped > 100, "{whole}/{stepped}");
    }
}
