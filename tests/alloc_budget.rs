//! Allocation budget of one steady-state fragment crossing.
//!
//! Under the counting `#[global_allocator]` of `common/counting_alloc.rs`
//! (this test binary and `wire_formats` only) this drives the chain job's
//! `ingest` (SUnion → SOutput) and `work` (SUnion → Map → SOutput)
//! fragments with warm batches and asserts how often the allocator is
//! entered: a per-batch constant, and nothing per tuple in either. Each
//! stream's bucket arrives in several segments, interleaved with the other
//! streams', so a per-port buffer that grew with the bucket would show.
//! The chain job's tuples carry one attribute, which a `Payload` holds
//! inline, so SUnion's renumbering copies 48-byte headers only, and
//! `work`'s `Map` — the projection `[field(0)]` — and SOutput forward the
//! batch they are given. A payload of two or more attributes would cost a
//! computing operator one allocation per tuple and every copy a reference
//! count.
//!
//! The routing row does the same for `ShardRouter`: splitting a produced
//! batch for the work shards allocates per shard, not per tuple, and every
//! further chunk and receiver of that batch allocates nothing.

use borealis::diagram::FragmentPlan;
use borealis::dpc::ActorSpec;
use borealis::engine::{Batch, Fragment};
use borealis::prelude::*;
use borealis::types::{BatchView, ShardRouter};
use borealis_workloads::{sharded_chain_builder, ShardedChainOptions};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

const WARM_STEPS: u64 = 20;
const STEPS: u64 = 50;
/// Deliveries a step's bucket is cut into, per input stream.
const SEGMENTS: u64 = 3;

/// One 100 ms bucket of `per_batch` data tuples closed by its boundary —
/// what a source (or an upstream fragment) delivers per step.
fn step_batch(step: u64, per_batch: u64) -> TupleBatch {
    let bucket_us = 100_000;
    let mut tuples: Vec<Tuple> = (0..per_batch)
        .map(|i| {
            let id = step * per_batch + i + 1;
            Tuple::insertion(
                TupleId(id),
                Time(step * bucket_us + i * bucket_us / per_batch),
                vec![Value::Int(id as i64)],
            )
        })
        .collect();
    tuples.push(Tuple::boundary(TupleId::NONE, Time((step + 1) * bucket_us)));
    TupleBatch::from_vec(tuples)
}

/// Allocator entries per step of a warm fragment fed `per_batch`-tuple
/// batches on every input stream, each cut into [`SEGMENTS`] deliveries
/// that alternate between the streams, and the data tuples it emitted per
/// step.
fn allocs_per_step(plan: &FragmentPlan, per_batch: u64) -> (u64, u64) {
    let streams: Vec<StreamId> = plan.inputs.iter().map(|i| i.stream).collect();
    let mut fragment = Fragment::from_plan(plan);
    // Inputs are built up front: the budget is the fragment's, not the
    // test's.
    let cut = |batch: TupleBatch| {
        let bound = |s: u64| (s * batch.len() as u64 / SEGMENTS) as usize;
        (0..SEGMENTS)
            .map(|s| batch.slice(bound(s)..bound(s + 1)))
            .collect::<Vec<_>>()
    };
    let inputs: Vec<Vec<TupleBatch>> = (0..WARM_STEPS + STEPS)
        .map(|step| cut(step_batch(step, per_batch)))
        .collect();
    let (mut allocs, mut emitted) = (0, 0);
    for (step, pieces) in inputs.iter().enumerate() {
        let now = Time((step as u64 + 1) * 100_000);
        let before = counting_alloc::allocs();
        let mut out = Batch::default();
        for piece in pieces {
            for stream in &streams {
                out.merge(fragment.push_batch(*stream, piece, now));
            }
        }
        let after = counting_alloc::allocs();
        if step as u64 >= WARM_STEPS {
            allocs += after - before;
            emitted += out.outputs.iter().map(|(_, b)| b.data_count()).sum::<u64>();
        }
    }
    assert_eq!(emitted % STEPS, 0, "every measured step emits one bucket");
    (allocs / STEPS, emitted / STEPS)
}

#[test]
fn steady_state_crossing_allocates_only_computed_payloads() {
    let layout = sharded_chain_builder(&ShardedChainOptions::default())
        .0
        .layout();
    // The plan every replica of shard 0 of logical fragment `frag` runs.
    let plan_of = |frag| match &layout.actors[layout.shard_replicas(frag, 0)[0].index()] {
        ActorSpec::Node(cfg) => &cfg.plan,
        _ => unreachable!("fragment replicas are node actors"),
    };
    // Per-step budgets: `work`'s Map forwards the batch its SUnion emits, so
    // it allocates less than `ingest`, whose SUnion merges three inputs.
    for (name, plan, budget) in [("ingest", plan_of(0), 12), ("work", plan_of(1), 9)] {
        let (small, small_out) = allocs_per_step(plan, 300);
        let (large, large_out) = allocs_per_step(plan, 600);
        assert_eq!(small_out, 300 * plan.inputs.len() as u64);
        assert_eq!(large_out, 600 * plan.inputs.len() as u64);
        println!(
            "alloc budget: {name}: {small} allocations per {small_out}-tuple step, \
             {large} per {large_out}-tuple step"
        );
        // Doubling the batch isolates the per-tuple share (none) from the
        // per-step constant (output batch, queue and emitter vectors).
        assert_eq!(large, small, "{name}: allocations per tuple");
        assert!(
            small <= budget,
            "{name}: {small} allocations per step, budget {budget}"
        );
    }
}

/// Allocator entries of routing one `n`-tuple produced batch, in chunks of
/// 500, to the chain job's K work shards × 2 replicas: (the first route,
/// every further one).
fn routing_allocs(spec: &PartitionSpec, n: u64) -> (u64, u64) {
    let chunks: Vec<BatchView> = step_batch(0, n)
        .chunks_shared(500)
        .map(BatchView::whole)
        .collect();
    let mut router = ShardRouter::new();
    let receiver = |i: u32| PartitionSpec {
        index: i % spec.shards,
        ..spec.clone()
    };
    let receivers: Vec<PartitionSpec> = (0..2 * spec.shards).map(receiver).collect();
    let before = counting_alloc::allocs();
    let first = router.route(&receivers[0], &chunks[0]);
    let after_first = counting_alloc::allocs();
    let mut routed = Vec::with_capacity(chunks.len() * receivers.len());
    let reserved = counting_alloc::allocs();
    for chunk in &chunks {
        for spec in &receivers {
            routed.push(router.route(spec, chunk));
        }
    }
    let after = counting_alloc::allocs();
    assert!(first.len() <= 500 && routed.len() == chunks.len() * receivers.len());
    (after_first - before, after - reserved)
}

#[test]
fn shard_routing_allocates_per_batch_not_per_tuple() {
    let layout = sharded_chain_builder(&ShardedChainOptions::default())
        .0
        .layout();
    let (_, spec) = layout.partitions[0].clone();
    let (small, small_rest) = routing_allocs(&spec, 1_000);
    let (large, large_rest) = routing_allocs(&spec, 9_000);
    println!(
        "alloc budget: routing (K = {}): {small} allocations for the first route of a \
         1000-tuple batch, {large} of a 9000-tuple one, {large_rest} for the other routes",
        spec.shards
    );
    assert_eq!(large, small, "the split allocates per shard, not per tuple");
    // Per shard its positions and its batch, plus five: the owner and count
    // passes, the two outer vectors and the memo's entry list.
    let budget = 5 + 2 * spec.shards as u64;
    assert!(small <= budget, "{small} allocations, budget {budget}");
    assert_eq!(
        (small_rest, large_rest),
        (0, 0),
        "a memo hit allocates nothing"
    );
}
