//! Property-style tests: DPC's guarantees must hold for *arbitrary* failure
//! schedules, not just the scripted scenarios of the paper's evaluation.
//!
//! The registry-free build has no `proptest`, so cases are generated with
//! the workspace's deterministic seeded RNG: every run explores the same
//! randomized schedules, and a failing case prints its seed and its
//! schedule — a `Vec<FaultSpec>`, ready to paste into a regression test.

use borealis::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{run_on, Outcome, Runtime};

/// A randomly generated failure of one of the three input streams:
/// starting 5–15 s in, lasting 0.5–8 s, cutting either the whole stream or
/// only its boundaries.
fn random_fault(rng: &mut StdRng) -> FaultSpec {
    let stream = StreamId(rng.gen_range(0u32..3));
    let from = Time::from_millis(rng.gen_range(5_000u64..15_000));
    let to = from + Duration::from_millis(rng.gen_range(500u64..8_000));
    if rng.gen_range(0u32..2) == 1 {
        FaultSpec::MuteBoundaries { stream, from, to }
    } else {
        FaultSpec::DisconnectSource {
            stream,
            frag: 0,
            from,
            to,
        }
    }
}

/// The replicated three-source merge at 60 tuples/s a source through
/// `schedule`: 45 s under the simulator (`run_on` takes any runtime).
fn run(seed: u64, schedule: &[FaultSpec]) -> Outcome {
    let scenario = || {
        let (builder, out) = common::merge3(seed, 2, 60.0, false);
        (builder.faults(schedule.to_vec()), out)
    };
    run_on(Runtime::Sim, &scenario, Time::from_secs(45))
}

/// For any schedule of 1-3 failures (a failing case prints its schedule:
/// paste it into a regression test):
/// (a) no duplicate stable tuples ever reach the client,
/// (b) the retained stable stream is a prefix of the failure-free run's
///     stream (Definition 1: same tuples, same order), and
/// (c) stable ids are strictly increasing after undo application.
#[test]
fn dpc_invariants_hold_under_random_failures() {
    let mut rng = StdRng::seed_from_u64(0xD1C);
    for case in 0..12 {
        let n_faults = rng.gen_range(1usize..4);
        let schedule: Vec<FaultSpec> = (0..n_faults).map(|_| random_fault(&mut rng)).collect();
        let seed = rng.gen_range(0u64..1000);
        let at = format!("case {case} seed {seed} {schedule:?}");

        let reference = run(seed, &[]).stable();
        let faulty = run(seed, &schedule);
        // (a) No duplicates.
        assert_eq!(faulty.dup_stable, 0, "{at}");
        let retained = faulty.stable();
        // (c) Strictly increasing stable ids.
        let increasing = retained.windows(2).all(|w| w[0].0 < w[1].0);
        assert!(increasing, "{at}: stable ids not increasing");
        // (b) Prefix equivalence with the failure-free run.
        let n = retained.len().min(reference.len());
        assert!(n > 0, "{at}: no stable output");
        assert_eq!(&retained[..n], &reference[..n], "{at}");
    }
}

/// Availability: for failures comfortably inside the run, the client keeps
/// receiving new data — the maximum gap stays within the detection delay
/// plus protocol slack, for any single episode.
#[test]
fn availability_holds_for_any_single_failure() {
    let mut rng = StdRng::seed_from_u64(0xA11);
    for case in 0..12 {
        let schedule = [random_fault(&mut rng)];
        let seed = rng.gen_range(0u64..1000);
        let gap = run(seed, &schedule).max_gap;
        assert!(
            gap < Duration::from_millis(2900),
            "case {case} seed {seed} {schedule:?}: gap {gap} exceeds bound"
        );
    }
}

/// Copy-on-write snapshot soundness: for random inputs and a random
/// checkpoint position, mutating an operator after its checkpoint (forcing
/// the CoW divergence) and then restoring must reproduce exactly the
/// outputs of a run that never diverged — for both the SUnion buffering
/// state and the Aggregate window state.
#[test]
fn cow_checkpoint_restore_round_trips_under_divergence() {
    use borealis::ops::{AggFn, AggregateSpec, BatchEmitter, Operator, OperatorSpec};

    let mut rng = StdRng::seed_from_u64(0xC0_57);
    for case in 0..25 {
        let mk = |rng: &mut StdRng, id: u64| {
            Tuple::insertion(
                TupleId(id),
                Time::from_millis(rng.gen_range(0u64..2_000)),
                vec![Value::Int(rng.gen_range(-5i64..5))],
            )
        };
        let prefix: Vec<Tuple> = (0..rng.gen_range(1u64..40))
            .map(|i| mk(&mut rng, i + 1))
            .collect();
        let junk: Vec<Tuple> = (0..rng.gen_range(1u64..40))
            .map(|i| mk(&mut rng, 100 + i))
            .collect();
        let suffix: Vec<Tuple> = (0..rng.gen_range(1u64..40))
            .map(|i| mk(&mut rng, 200 + i))
            .collect();
        let close = Tuple::boundary(TupleId::NONE, Time::from_secs(10));

        let specs = [
            OperatorSpec::SUnion({
                let mut c = SUnionConfig::new(1);
                c.is_input = true;
                c
            }),
            OperatorSpec::Aggregate(AggregateSpec {
                window: Duration::from_millis(100),
                slide: Duration::from_millis(100),
                group_by: vec![],
                aggs: vec![AggFn::count(), AggFn::sum(Expr::field(0))],
            }),
        ];
        for spec in &specs {
            let op = &mut spec.instantiate();
            let feed = |op: &mut Box<dyn Operator>, tuples: &[Tuple], out: &mut BatchEmitter| {
                for t in tuples {
                    op.process(0, t, Time::from_millis(1), out);
                }
            };
            // Continuous reference run: prefix, then suffix + close.
            let mut sink = BatchEmitter::new();
            feed(op, &prefix, &mut sink);
            let mut reference = BatchEmitter::new();
            feed(op, &suffix, &mut reference);
            op.process(0, &close, Time::from_millis(1), &mut reference);

            // Diverged run on a fresh twin: prefix, checkpoint, junk
            // (mutates the CoW state), restore, then the same suffix.
            let mut twin = spec.instantiate();
            let mut sink = BatchEmitter::new();
            feed(&mut twin, &prefix, &mut sink);
            let snap = twin.checkpoint();
            feed(&mut twin, &junk, &mut sink);
            twin.process(0, &close, Time::from_millis(1), &mut sink);
            twin.restore(&snap);
            let mut replayed = BatchEmitter::new();
            feed(&mut twin, &suffix, &mut replayed);
            twin.process(0, &close, Time::from_millis(1), &mut replayed);

            assert_eq!(
                reference.take_tuples(),
                replayed.take_tuples(),
                "case {case}: {} diverged after checkpoint/restore",
                spec.kind_name()
            );
        }
    }
}

/// Deterministic serialization: feeding the same tuples in arbitrary
/// per-stream interleavings produces identical SUnion output order — the
/// §4.2 replica-consistency guarantee at the operator level.
#[test]
fn sunion_total_order_is_interleaving_invariant() {
    use borealis::ops::{BatchEmitter, Operator, SUnion};

    let mut rng = StdRng::seed_from_u64(0x50_u64);
    for case in 0..100 {
        // Random per-stream tuples with random stimes over four buckets,
        // delivered in two different interleavings.
        let n = rng.gen_range(1usize..40);
        let mut items: Vec<(usize, u64)> = (0..n)
            .map(|_| (rng.gen_range(0usize..3), rng.gen_range(0u64..400)))
            .collect();
        if case % 2 == 1 {
            // Every stream in `stime` order on its own, as a source's is:
            // only the interleaving across streams is out of order.
            for port in 0..3 {
                let mut stimes: Vec<u64> =
                    items.iter().filter(|i| i.0 == port).map(|i| i.1).collect();
                stimes.sort_unstable();
                let slots = items.iter_mut().filter(|i| i.0 == port);
                slots.zip(stimes).for_each(|(slot, stime)| slot.1 = stime);
            }
        }

        let run = |order: &[(usize, u64)]| {
            let mut cfg = SUnionConfig::new(3);
            cfg.bucket = Duration::from_millis(100);
            cfg.is_input = true;
            let mut s = SUnion::new(cfg);
            let mut out = BatchEmitter::new();
            let mut ids = [1u64; 3];
            for &(port, stime_ms) in order {
                let t = Tuple::insertion(
                    TupleId(ids[port]),
                    Time::from_millis(stime_ms),
                    vec![Value::Int(stime_ms as i64)],
                );
                ids[port] += 1;
                s.process(port, &t, Time::from_millis(1), &mut out);
            }
            for port in 0..3 {
                let b = Tuple::boundary(TupleId::NONE, Time::from_millis(500));
                s.process(port, &b, Time::from_millis(2), &mut out);
            }
            out.tuples()
                .iter()
                .filter(|t| t.is_data())
                .map(|t| (t.stime.as_micros(), t.origin, t.values.clone()))
                .collect::<Vec<_>>()
        };

        // Original order vs per-port-stable shuffled order (port-major).
        let mut shuffled = items.clone();
        shuffled.sort_by_key(|&(port, _)| port); // stable: per-port order kept
        assert_eq!(
            run(&items),
            run(&shuffled),
            "interleaving changed the order"
        );
    }
}

/// Credit-based backpressure is delay, never semantics: for arbitrary
/// per-port batch scripts delivered through credit-gated links with random
/// windows ≥ 1 (random consumption interleavings across ports, FIFO per
/// port — exactly what the transport guarantees), the batch-native SUnion
/// emits byte-identical stable output to the ungated run. Backpressure may
/// delay buckets; it must never reorder or drop stable data.
#[test]
fn credit_gated_sunion_output_identical_to_unbounded() {
    use borealis::ops::Operator;
    use borealis::sim::FlowControl;
    use std::collections::VecDeque;

    let mut rng = StdRng::seed_from_u64(0xF10);
    for case in 0..20 {
        let n_ports = rng.gen_range(1usize..4);
        // Per-port scripts of batches respecting the §4.2.1 punctuation
        // contract: a boundary follows all of its port's data with smaller
        // or equal stimes; later data is strictly newer.
        let mut scripts: Vec<Vec<TupleBatch>> = Vec::new();
        for port in 0..n_ports {
            let mut batches = Vec::new();
            let mut frontier_ms = 0u64;
            let mut next_id = 1u64;
            let n_batches = rng.gen_range(4u32..12);
            for _ in 0..n_batches {
                if rng.gen_range(0u32..4) == 0 {
                    // Boundary batch: covers everything emitted so far.
                    frontier_ms += rng.gen_range(50..400);
                    batches.push(TupleBatch::single(Tuple::boundary(
                        TupleId::NONE,
                        Time::from_millis(frontier_ms),
                    )));
                } else {
                    let n = rng.gen_range(1usize..6);
                    let mut v = Vec::with_capacity(n);
                    for _ in 0..n {
                        let stime = frontier_ms + 1 + rng.gen_range(0..300);
                        v.push(Tuple::insertion(
                            TupleId(next_id),
                            Time::from_millis(stime),
                            vec![Value::Int((port as i64) << 32 | next_id as i64)],
                        ));
                        next_id += 1;
                    }
                    batches.push(TupleBatch::from_vec(v));
                }
            }
            // Closing boundary so every bucket stabilizes.
            batches.push(TupleBatch::single(Tuple::boundary(
                TupleId::NONE,
                Time::from_millis(10_000),
            )));
            scripts.push(batches);
        }

        let mk_sunion = || {
            let mut c = SUnionConfig::new(n_ports);
            c.detect_delay = Duration::from_secs(3600); // never tentative
            c.delay_budget = Duration::from_secs(3600);
            c.is_input = true;
            borealis::ops::SUnion::new(c)
        };
        let data_of = |tuples: Vec<Tuple>| {
            tuples
                .into_iter()
                .filter(|t| t.is_data())
                .map(|t| (t.kind, t.id, t.stime, t.origin, t.values))
                .collect::<Vec<_>>()
        };

        // --- Ungated reference: round-robin delivery in script order -----
        let reference = {
            let mut s = mk_sunion();
            let mut out = borealis::ops::BatchEmitter::new();
            let mut cursors = vec![0usize; n_ports];
            let mut step = 0u64;
            loop {
                let mut progressed = false;
                for port in 0..n_ports {
                    if cursors[port] < scripts[port].len() {
                        s.process_batch(
                            port,
                            &scripts[port][cursors[port]],
                            Time::from_millis(step),
                            &mut out,
                        );
                        cursors[port] += 1;
                        step += 1;
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            data_of(out.take_tuples().0)
        };

        // --- Credit-gated run: random windows, random interleaving -------
        let gated = {
            let window = rng.gen_range(1u32..5);
            let mut flow: FlowControl<(usize, TupleBatch)> =
                FlowControl::new(CreditPolicy::Window(window));
            let sink = NodeId(99);
            let mut s = mk_sunion();
            let mut out = borealis::ops::BatchEmitter::new();
            let mut cursors = vec![0usize; n_ports];
            // Delivered-but-unprocessed, FIFO per port (the transport's
            // per-link ordering guarantee).
            let mut mailbox: Vec<VecDeque<TupleBatch>> = vec![VecDeque::new(); n_ports];
            let mut step = 0u64;
            loop {
                let deliverable: Vec<usize> =
                    (0..n_ports).filter(|&p| !mailbox[p].is_empty()).collect();
                let sendable: Vec<usize> = (0..n_ports)
                    .filter(|&p| cursors[p] < scripts[p].len())
                    .collect();
                if deliverable.is_empty() && sendable.is_empty() {
                    break;
                }
                let process =
                    !deliverable.is_empty() && (sendable.is_empty() || rng.gen_range(0u32..2) == 0);
                if process {
                    let p = deliverable[rng.gen_range(0..deliverable.len() as u64) as usize];
                    let batch = mailbox[p].pop_front().expect("deliverable port");
                    s.process_batch(p, &batch, Time::from_millis(step), &mut out);
                    step += 1;
                    // Consumption returns the credit; the link releases the
                    // next queued batch in FIFO order.
                    if let Some((port, released)) =
                        flow.replenish(NodeId(p as u32), sink, Time::from_millis(step))
                    {
                        assert_eq!(port, p, "links must not cross");
                        mailbox[p].push_back(released);
                    }
                } else {
                    let p = sendable[rng.gen_range(0..sendable.len() as u64) as usize];
                    let batch = scripts[p][cursors[p]].clone();
                    cursors[p] += 1;
                    if let Some((port, admitted)) =
                        flow.admit(NodeId(p as u32), sink, (p, batch), Time::from_millis(step))
                    {
                        assert_eq!(port, p);
                        mailbox[p].push_back(admitted);
                    }
                }
            }
            assert_eq!(flow.gauges().queued_now, 0, "everything drained");
            data_of(out.take_tuples().0)
        };

        assert_eq!(
            reference, gated,
            "case {case}: credit gating changed the stable output"
        );
        assert!(
            reference.iter().all(|(k, ..)| *k == TupleKind::Insertion),
            "case {case}: nothing tentative in a stall-free stable run"
        );
    }
}

/// One-pass partitioner equivalence: for random mixed batches (data +
/// control tuples), random key expressions (including ones that fail to
/// evaluate), and random shard counts, every chunk of one shared backing —
/// random chunk sizes, routed chunk by chunk or shard by shard through one
/// `ShardRouter` — comes out as exactly what each receiver link keeps under
/// `PartitionSpec::keeps`. Data tuples land on exactly one shard (total and
/// disjoint); control tuples reach every shard; and replica links (same
/// spec routed again) observe the very same view.
#[test]
fn shard_views_match_per_link_keeps() {
    use borealis::types::{BatchView, ShardRouter};

    let mut rng = StdRng::seed_from_u64(0x5AAD);
    for case in 0..60 {
        // A random mixed-kind batch: two value fields so a key on field 2
        // exercises the eval-failure -> shard 0 fallback.
        let n = rng.gen_range(0usize..150);
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| {
                let id = TupleId(i as u64 + 1);
                let stime = Time::from_millis(rng.gen_range(0u64..1_000));
                match rng.gen_range(0u32..10) {
                    0 => Tuple::boundary(TupleId::NONE, stime),
                    1 => Tuple::undo(TupleId::NONE, id),
                    2 => Tuple::tentative(
                        id,
                        stime,
                        vec![
                            Value::Int(rng.gen_range(-1000i64..1000)),
                            Value::Str(format!("g{}", rng.gen_range(0u32..5)).into()),
                        ],
                    ),
                    _ => Tuple::insertion(
                        id,
                        stime,
                        vec![
                            Value::Int(rng.gen_range(-1000i64..1000)),
                            Value::Str(format!("g{}", rng.gen_range(0u32..5)).into()),
                        ],
                    ),
                }
            })
            .collect();
        let batch = TupleBatch::from_vec(tuples);
        let key = Expr::field(rng.gen_range(0usize..3)); // field 2 never evals
        let k = [1u32, 2, 3, 4, 8][rng.gen_range(0usize..5)];
        // One chunk is the whole batch; smaller ones are sub-views of it.
        let chunk = rng.gen_range(1..n.max(1) + 1);
        let chunks: Vec<BatchView> = batch.chunks_shared(chunk).map(BatchView::whole).collect();
        let mut sends: Vec<(usize, u32)> = (0..chunks.len())
            .flat_map(|c| (0..k).map(move |shard| (c, shard)))
            .collect();
        if rng.gen_range(0u32..2) == 0 {
            sends.sort_by_key(|&(c, shard)| (shard, c));
        }

        let mut router = ShardRouter::new();
        let mut data_seen = 0usize;
        for (c, shard) in sends {
            let input = &chunks[c];
            let spec = PartitionSpec {
                key: key.clone(),
                shards: k,
                index: shard,
            };
            let view = router.route(&spec, input);
            let expect: Vec<Tuple> = input.iter().filter(|t| spec.keeps(t)).cloned().collect();
            assert_eq!(
                view.as_slice(),
                &expect[..],
                "case {case}: chunk {c}, shard {shard}/{k} diverges from `keeps`"
            );
            // A replica link routing the same spec sees the same view.
            let replica = router.route(&spec, input);
            assert_eq!(view, replica, "case {case}: replica view differs");
            data_seen += view.data_count() as usize;
            assert_eq!(
                view.iter().filter(|t| !t.is_data()).count(),
                input.iter().filter(|t| !t.is_data()).count(),
                "case {case}: control tuples must reach every shard"
            );
        }
        // Total and disjoint: every data tuple on exactly one shard.
        assert_eq!(
            data_seen,
            batch.data_count() as usize,
            "case {case}: data tuples must land on exactly one shard"
        );
    }
}

/// Per-sender-link FIFO under the pooled scheduler: for worker counts 1, 2,
/// and 8 and randomized send cadences (each seed yields a different steal /
/// activation interleaving), every consumer observes each producer's
/// messages in send order, with nothing lost or duplicated. This is the
/// ordering contract the DPC layer builds on — stealing an actor between
/// workers must never reorder a link.
#[test]
fn pooled_scheduler_preserves_per_sender_fifo() {
    use borealis::dpc::{DpcActor, NetMsg, RuntimeCtx};
    use std::sync::{Arc, Mutex};

    const PRODUCERS: usize = 6;
    const PER_PRODUCER: u64 = 150;

    /// Sends `PER_PRODUCER` sequence-numbered messages to the consumer in
    /// randomized bursts at randomized cadence.
    struct Producer {
        consumer: NodeId,
        next: u64,
    }
    impl DpcActor<NetMsg> for Producer {
        fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
            ctx.set_timer(ctx.now(), 1);
        }
        fn on_message(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _from: NodeId, _msg: NetMsg) {}
        fn on_timer(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, _kind: u64) {
            let burst = 1 + ctx.rand_range(4);
            for _ in 0..burst {
                if self.next == PER_PRODUCER {
                    return;
                }
                let seq = self.next;
                self.next += 1;
                ctx.send(
                    self.consumer,
                    NetMsg::Ack {
                        stream: StreamId(0),
                        through: TupleId(seq),
                    },
                );
            }
            let wait = Duration::from_micros(100 + ctx.rand_range(900));
            ctx.set_timer(ctx.now() + wait, 1);
        }
    }

    /// Records every (sender, sequence) arrival.
    struct Consumer {
        seen: Arc<Mutex<Vec<(NodeId, u64)>>>,
    }
    impl DpcActor<NetMsg> for Consumer {
        fn on_message(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, from: NodeId, msg: NetMsg) {
            if let NetMsg::Ack { through, .. } = msg {
                self.seen.lock().unwrap().push((from, through.0));
            }
        }
        fn on_timer(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _kind: u64) {}
    }

    for workers in [1usize, 2, 8] {
        for seed in [0xF1F0u64, 0xF1F1, 0xF1F2] {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let consumer = NodeId(PRODUCERS as u32);
            let mut actors: Vec<Box<dyn DpcActor<NetMsg>>> = (0..PRODUCERS)
                .map(|_| Box::new(Producer { consumer, next: 0 }) as Box<dyn DpcActor<NetMsg>>)
                .collect();
            actors.push(Box::new(Consumer { seen: seen.clone() }));
            let rt = ThreadRuntime::spawn(
                actors,
                vec![],
                seed,
                vec![],
                CreditPolicy::Unbounded,
                workers,
                None,
            );
            let expected = PRODUCERS as u64 * PER_PRODUCER;
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            while (seen.lock().unwrap().len() as u64) < expected {
                assert!(
                    std::time::Instant::now() < deadline,
                    "workers={workers} seed={seed:#x}: timed out at {}/{expected}",
                    seen.lock().unwrap().len()
                );
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            rt.shutdown();

            let seen = seen.lock().unwrap();
            assert_eq!(seen.len() as u64, expected, "nothing lost or duplicated");
            let mut next = [0u64; PRODUCERS];
            for &(from, seq) in seen.iter() {
                let p = from.0 as usize;
                assert_eq!(
                    seq, next[p],
                    "workers={workers} seed={seed:#x}: producer {p} reordered"
                );
                next[p] += 1;
            }
            assert!(next.iter().all(|&n| n == PER_PRODUCER));
        }
    }
}
