//! One fragment crossing of the chain job, measured per tuple — the
//! in-tree counterpart of `engine.fragment_push_ns_per_tuple` in
//! `benchmark/`:
//!
//! * `fragment_crossing/ingest_*` — three source streams through
//!   SUnion → SOutput (serialize, renumber, pass through);
//! * `fragment_crossing/work_*` — one stream through
//!   SUnion → Map → SOutput (the Map computes one payload per tuple).
//!
//! Swept over payloads of one `Int` and of four values including a `Str`,
//! at delivery batches of 32 and 300 tuples. Tuple payloads are shared, so
//! the ingest figures should not depend on payload width; what is
//! allocated per crossing is asserted exactly by `tests/alloc_budget.rs`.

use borealis_engine::Fragment;
use borealis_types::{StreamId, Time, Tuple, TupleBatch, TupleId, Value};
use borealis_workloads::{sharded_chain_builder, ShardedChainOptions};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

/// Buckets (100 ms each) pushed per measured iteration.
const STEPS: u64 = 20;

fn payload(id: u64, wide: bool) -> Vec<Value> {
    if wide {
        vec![
            Value::Int(id as i64),
            Value::str("sensor-17"),
            Value::Float(id as f64 * 0.5),
            Value::Bool(id.is_multiple_of(2)),
        ]
    } else {
        vec![Value::Int(id as i64)]
    }
}

/// Bucket `step` as delivery batches of `per_batch` tuples (300 tuples per
/// bucket), the last one closed by the bucket's boundary.
fn bucket(step: u64, per_batch: u64, wide: bool) -> Vec<TupleBatch> {
    const PER_BUCKET: u64 = 300;
    const BUCKET_US: u64 = 100_000;
    let mut tuples: Vec<Tuple> = (0..PER_BUCKET)
        .map(|i| {
            let id = step * PER_BUCKET + i + 1;
            let stime = Time(step * BUCKET_US + i * BUCKET_US / PER_BUCKET);
            Tuple::insertion(TupleId(id), stime, payload(id, wide))
        })
        .collect();
    tuples.push(Tuple::boundary(TupleId::NONE, Time((step + 1) * BUCKET_US)));
    TupleBatch::from_vec(tuples)
        .chunks_shared(per_batch as usize)
        .collect()
}

fn bench_crossing(c: &mut Criterion) {
    let layout = sharded_chain_builder(&ShardedChainOptions::default())
        .0
        .layout();
    let mut g = c.benchmark_group("fragment_crossing");
    for (stage, plan) in [
        ("ingest", layout.shard_plan(0, 0)),
        ("work", layout.shard_plan(1, 0)),
    ] {
        let streams: Vec<StreamId> = plan.inputs.iter().map(|i| i.stream).collect();
        g.throughput(Throughput::Elements(STEPS * 300 * streams.len() as u64));
        for wide in [false, true] {
            for per_batch in [32u64, 300] {
                let width = if wide { "4val" } else { "1int" };
                g.bench_function(format!("{stage}_{width}_b{per_batch}"), |b| {
                    b.iter_batched(
                        || {
                            let input: Vec<Vec<TupleBatch>> = (0..STEPS)
                                .map(|step| bucket(step, per_batch, wide))
                                .collect();
                            (Fragment::from_plan(plan), input)
                        },
                        |(mut fragment, input)| {
                            let mut emitted = 0;
                            for (step, batches) in input.iter().enumerate() {
                                let now = Time((step as u64 + 1) * 100_000);
                                for batch in batches {
                                    for stream in &streams {
                                        let out = fragment.push_batch(*stream, batch, now);
                                        emitted += out.outputs.len();
                                    }
                                }
                            }
                            black_box((emitted, fragment))
                        },
                        BatchSize::SmallInput,
                    );
                });
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench_crossing);
criterion_main!(benches);
