//! Single-threaded replays of the job's own traffic through each layer's
//! public functions: the first second of the three sources' 10 ms batches
//! is pushed through the real fragments once (untimed) to materialize
//! every stage's input, then each layer is timed on its stage's input,
//! one span per call.
//!
//! Everything here runs on the calling thread: no scheduler, no sockets,
//! no timers — what remains is the layer's own cost per tuple.

use super::{Job, SHARDS};
use crate::spans::Tracer;
use borealis_diagram::FragmentPlan;
use borealis_dpc::{
    decode_frame, encode_frame, ActorSpec, BufferPolicy, DurabilityConfig, MetricsHub, NetMsg,
    NodeDisk, OutputBuffer, WireMsg,
};
use borealis_engine::{encode_durable_capture, Fragment};
use borealis_ops::{BatchEmitter, Operator, OperatorSpec, Union};
use borealis_sim::FlowControl;
use borealis_store::{LogWriter, NodeStore};
use borealis_types::wire::{put_view, Reader};
use borealis_types::{
    BatchView, CreditPolicy, Duration, Expr, NodeId, PartitionSpec, ShardRouter, StreamId, Time,
    Tuple, TupleBatch, TupleId, Value,
};
use std::hint::black_box;
use std::path::Path;

/// Replayed span of traffic.
const REPLAY_US: u64 = 1_000_000;
/// Source batch period of the job.
const SOURCE_BATCH_US: u64 = 10_000;
/// Source boundary period of the job.
const BOUNDARY_US: u64 = 100_000;

/// One timed pass of a replay: nanoseconds spent inside the layer's calls
/// and how many units (tuples, calls, records — per layer) they covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pass {
    pub ns: u64,
    pub units: u64,
}

impl Pass {
    fn add(&mut self, ns: u64, units: u64) {
        self.ns += ns;
        self.units += units;
    }

    /// Nanoseconds per unit.
    pub fn per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.ns as f64 / self.units as f64
        }
    }
}

/// What one repetition of all replays measured: per-layer metric name and
/// value, in the unit the name states.
pub type Measured = Vec<(&'static str, f64)>;

type StageInput = Vec<(Time, Vec<(StreamId, BatchView)>)>;

/// The job's fragment plans and the materialized input of every stage.
pub struct Replay {
    job: Job,
    ingest: FragmentPlan,
    work: Vec<FragmentPlan>,
    deliver: FragmentPlan,
    partition_key: Expr,
    /// Source batches (data + boundaries) per 10 ms step.
    sources: StageInput,
    /// What the ingest fragment emitted per step (unrouted).
    ingest_out: StageInput,
    /// Per shard: its key partition of `ingest_out`.
    work_in: Vec<StageInput>,
    /// The work shards' emissions per step (all shards).
    deliver_in: StageInput,
    /// The deliver fragment's emissions per step (what the client records).
    client_in: StageInput,
}

fn plan_of(layout: &borealis_dpc::SystemLayout, physical_fragment: usize) -> FragmentPlan {
    let node = layout.fragment_replicas[physical_fragment][0];
    match &layout.actors[node.index()] {
        ActorSpec::Node(cfg) => cfg.plan.clone(),
        _ => unreachable!("fragment replicas are node actors"),
    }
}

/// The tuples source `stream` releases at the 10 ms mark `now_us`, exactly
/// as `DataSource` stamps them: `stime = id / rate`, payload `[Int(id)]`,
/// and a boundary at every 100 ms mark.
fn source_batch(per_source_rate: f64, prev_us: u64, now_us: u64) -> TupleBatch {
    let stime_of = |id: u64| (id as f64 * 1_000_000.0 / per_source_rate) as u64;
    let mut id = (prev_us as f64 * per_source_rate / 1_000_000.0) as u64;
    while stime_of(id) <= prev_us {
        id += 1;
    }
    let mut tuples = Vec::new();
    while stime_of(id) <= now_us {
        tuples.push(Tuple::insertion(
            TupleId(id),
            Time(stime_of(id)),
            vec![Value::Int(id as i64)],
        ));
        id += 1;
    }
    if now_us.is_multiple_of(BOUNDARY_US) {
        tuples.push(Tuple::boundary(TupleId::NONE, Time(now_us)));
    }
    TupleBatch::from_vec(tuples)
}

/// Pushes `input` through a fresh fragment, timing each `push_view` and
/// `tick`; emissions go to `emitted` (untimed).
fn drive_fragment(
    names: (&'static str, &'static str),
    plan: &FragmentPlan,
    input: &StageInput,
    tracer: &mut Tracer,
    mut emitted: impl FnMut(usize, Time, StreamId, TupleBatch),
) -> Pass {
    let mut f = Fragment::from_plan(plan);
    let mut pass = Pass::default();
    let root = tracer.open(names.0);
    for (step, (now, msgs)) in input.iter().enumerate() {
        for (stream, view) in msgs {
            let (out, ns) = tracer.time(names.1, root, step, || f.push_view(*stream, view, *now));
            pass.add(ns, view.data_count());
            for (s, b) in out.outputs {
                emitted(step, *now, s, b);
            }
        }
        let (out, ns) = tracer.time("engine.fragment_tick", root, step, || f.tick(*now));
        pass.add(ns, 0);
        for (s, b) in out.outputs {
            emitted(step, *now, s, b);
        }
    }
    tracer.close(root);
    pass
}

fn shard_spec(key: &Expr, index: u32) -> PartitionSpec {
    PartitionSpec {
        key: key.clone(),
        shards: SHARDS,
        index,
    }
}

fn steps_like(input: &StageInput) -> StageInput {
    input.iter().map(|(now, _)| (*now, Vec::new())).collect()
}

impl Replay {
    /// Builds the replay for `job`: its plans, its first second of source
    /// traffic, and every stage's input (one untimed pass through the real
    /// fragments).
    pub fn prepare(job: &Job) -> Replay {
        // Planned with the default 500 ms delay per SUnion (450 ms
        // detection): the failure-path replays script a 600 ms outage
        // inside the one replayed second.
        let layout = job
            .chain(
                Duration::from_millis(500),
                Duration::from_millis(100),
                Duration::ZERO,
            )
            .0
            .layout();
        let ingest = plan_of(&layout, layout.groups[0][0]);
        let work: Vec<FragmentPlan> = layout.groups[1]
            .iter()
            .map(|&fi| plan_of(&layout, fi))
            .collect();
        let deliver = plan_of(&layout, layout.groups[2][0]);
        let partition_key = work[0]
            .shard
            .as_ref()
            .expect("the work stage is sharded")
            .key
            .clone();

        let per_source_rate = job.total_rate / 3.0;
        let source_streams: Vec<StreamId> = ingest.inputs.iter().map(|i| i.stream).collect();
        let mut sources: StageInput = Vec::new();
        let mut prev = 0;
        for now_us in (SOURCE_BATCH_US..=REPLAY_US).step_by(SOURCE_BATCH_US as usize) {
            let batch = source_batch(per_source_rate, prev, now_us);
            // The three sources are identical sequence generators.
            let msgs = source_streams
                .iter()
                .map(|s| (*s, BatchView::whole(batch.clone())))
                .collect();
            sources.push((Time(now_us), msgs));
            prev = now_us;
        }

        let mut quiet = Tracer::new();
        let mut ingest_out = steps_like(&sources);
        drive_fragment(("", ""), &ingest, &sources, &mut quiet, |step, _, s, b| {
            ingest_out[step].1.push((s, BatchView::whole(b)))
        });

        let mut router = ShardRouter::new();
        let mut work_in: Vec<StageInput> = Vec::new();
        let mut deliver_in = steps_like(&sources);
        for (k, plan) in work.iter().enumerate() {
            let spec = shard_spec(&partition_key, k as u32);
            let mut input = steps_like(&sources);
            for (step, (_, msgs)) in ingest_out.iter().enumerate() {
                for (s, view) in msgs {
                    let routed = router.route(&spec, view);
                    if !routed.is_empty() {
                        input[step].1.push((*s, routed));
                    }
                }
            }
            drive_fragment(("", ""), plan, &input, &mut quiet, |step, _, s, b| {
                deliver_in[step].1.push((s, BatchView::whole(b)))
            });
            work_in.push(input);
        }

        let mut client_in = steps_like(&sources);
        drive_fragment(
            ("", ""),
            &deliver,
            &deliver_in,
            &mut quiet,
            |step, _, s, b| client_in[step].1.push((s, BatchView::whole(b))),
        );

        Replay {
            job: job.clone(),
            ingest,
            work,
            deliver,
            partition_key,
            sources,
            ingest_out,
            work_in,
            deliver_in,
            client_in,
        }
    }

    /// One repetition of every in-memory replay. `scratch` hosts the
    /// durable stores of the disk replays.
    pub fn run_once(&self, tracer: &mut Tracer, scratch: &Path) -> Result<Measured, String> {
        let mut m: Measured = Vec::new();
        self.shard_route(tracer, &mut m);
        self.wire_and_codec(tracer, &mut m);
        self.fragments(tracer, &mut m);
        self.operators(tracer, &mut m);
        self.failure_path(tracer, &mut m)?;
        self.client_and_buffers(tracer, &mut m);
        self.flow_control(tracer, &mut m);
        self.durability(tracer, scratch, &mut m)
            .map_err(|e| format!("durability replay: {e}"))?;
        // Planning: `sharded_chain_builder` runs `plan_deployment`.
        let (_, ns) = tracer.time("diagram.plan", None, 0, || self.job.builder(None));
        m.push(("diagram.plan_us", ns as f64 / 1000.0));
        Ok(m)
    }

    /// `ShardRouter::route` at K=4: the first receiver of a batch computes
    /// all four views (one key evaluation + hash per tuple); the other
    /// seven receivers (4 shards × 2 replicas − 1) hit the memo.
    fn shard_route(&self, tracer: &mut Tracer, m: &mut Measured) {
        let specs: Vec<PartitionSpec> = (0..SHARDS)
            .map(|k| shard_spec(&self.partition_key, k))
            .collect();
        let mut router = ShardRouter::new();
        let (mut miss, mut hit) = (Pass::default(), Pass::default());
        let root = tracer.open("replay:types.shard_route");
        for (step, (_, msgs)) in self.ingest_out.iter().enumerate() {
            for (_, view) in msgs {
                let (_, ns) = tracer.time("types.shard_route", root, step, || {
                    router.route(&specs[0], view)
                });
                miss.add(ns, view.data_count());
                for receiver in 1..(SHARDS as usize * 2) {
                    let spec = &specs[receiver % SHARDS as usize];
                    let (_, ns) = tracer.time("types.shard_route_memo_hit", root, step, || {
                        router.route(spec, view)
                    });
                    hit.add(ns, 1);
                }
            }
        }
        tracer.close(root);
        m.push(("types.shard_route_ns_per_tuple", miss.per_unit()));
        m.push(("types.shard_route_memo_hit_ns_per_batch", hit.per_unit()));
    }

    /// Wire primitives and the frame codec on the routed (run-list) views a
    /// work replica actually receives.
    fn wire_and_codec(&self, tracer: &mut Tracer, m: &mut Measured) {
        let (mut put, mut read, mut enc, mut dec) = (
            Pass::default(),
            Pass::default(),
            Pass::default(),
            Pass::default(),
        );
        let mut bytes = 0u64;
        let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
        let (from, to) = (NodeId(3), NodeId(5));
        let root = tracer.open("replay:wire+codec");
        for (step, (_, msgs)) in self.work_in[0].iter().enumerate() {
            for (stream, view) in msgs {
                let n = view.data_count();
                // The codec goes first: it meets the tuples cold, as the
                // writer does on the real path; the wire primitives inside
                // it are then timed on their own, warm.
                let msg = WireMsg::Net(NetMsg::Data {
                    stream: *stream,
                    tuples: view.clone(),
                });
                buf.clear();
                let (_, ns) = tracer.time("core.codec_encode", root, step, || {
                    encode_frame(&mut buf, from, to, &msg)
                });
                enc.add(ns, n);
                let (frame, ns) =
                    tracer.time("core.codec_decode", root, step, || decode_frame(&buf));
                dec.add(ns, n);
                debug_assert!(matches!(frame, Ok(Some(_))));

                buf.clear();
                let ((), ns) = tracer.time("types.wire_put_view", root, step, || {
                    put_view(&mut buf, view)
                });
                put.add(ns, n);
                bytes += buf.len() as u64;
                let (decoded, ns) = tracer.time("types.wire_read_batch", root, step, || {
                    Reader::new(&buf).batch()
                });
                read.add(ns, n);
                debug_assert!(decoded.is_ok());
            }
        }
        tracer.close(root);
        m.push(("types.wire_put_view_ns_per_tuple", put.per_unit()));
        m.push(("types.wire_read_batch_ns_per_tuple", read.per_unit()));
        m.push((
            "types.wire_bytes_per_tuple",
            bytes as f64 / put.units.max(1) as f64,
        ));
        m.push(("core.codec_encode_ns_per_tuple", enc.per_unit()));
        m.push(("core.codec_decode_ns_per_tuple", dec.per_unit()));
    }

    /// `Fragment::push_view` + `tick` on each of the three stages; the
    /// reported figure is the mean cost of one crossing (a stable tuple
    /// crosses three stages, each twice — once per replica).
    fn fragments(&self, tracer: &mut Tracer, m: &mut Measured) {
        let mut total = drive_fragment(
            ("replay:engine.fragment(ingest)", "engine.fragment_push"),
            &self.ingest,
            &self.sources,
            tracer,
            |_, _, _, _| {},
        );
        for (plan, input) in self.work.iter().zip(&self.work_in) {
            let p = drive_fragment(
                ("replay:engine.fragment(work)", "engine.fragment_push"),
                plan,
                input,
                tracer,
                |_, _, _, _| {},
            );
            total.add(p.ns, p.units);
        }
        let p = drive_fragment(
            ("replay:engine.fragment(deliver)", "engine.fragment_push"),
            &self.deliver,
            &self.deliver_in,
            tracer,
            |_, _, _, _| {},
        );
        total.add(p.ns, p.units);
        m.push(("engine.fragment_push_ns_per_tuple", total.per_unit()));
    }

    /// The operators a fragment is made of, driven directly: the ingest
    /// SUnion (three inputs) in stable mode, the SOutput behind it, the
    /// work stage's Map. `Union` is measured too although the planner
    /// lowers this job's Union into its entry SUnion (zero crossings).
    fn operators(&self, tracer: &mut Tracer, m: &mut Measured) {
        let op = |plan: &FragmentPlan, pick: fn(&OperatorSpec) -> bool| -> Box<dyn Operator> {
            plan.ops
                .iter()
                .find(|o| pick(&o.spec))
                .expect("the job's fragments hold SUnion, Map and SOutput")
                .spec
                .instantiate()
        };
        let mut sunion = op(&self.ingest, OperatorSpec::is_sunion);
        let mut soutput = op(&self.ingest, OperatorSpec::is_soutput);
        let mut map = op(&self.work[0], |s| matches!(s, OperatorSpec::Map { .. }));
        // A second SUnion that loses its third input after 100 ms and
        // turns tentative once the 450 ms detection delay has passed.
        let mut sunion_failing = op(&self.ingest, OperatorSpec::is_sunion);
        let healthy_steps = 10;
        let mut union = Union::new(3);
        let (mut su, mut so, mut mp, mut un) = (
            Pass::default(),
            Pass::default(),
            Pass::default(),
            Pass::default(),
        );
        let mut st = Pass::default();
        let root = tracer.open("replay:ops");
        for (step, (now, msgs)) in self.sources.iter().enumerate() {
            let mut em = BatchEmitter::new();
            for (port, (_, view)) in msgs.iter().enumerate() {
                let batch = view.to_batch();
                let ((), ns) = tracer.time("ops.sunion_stable", root, step, || {
                    sunion.process_batch(port, &batch, *now, &mut em)
                });
                su.add(ns, batch.data_count());
                let mut sink = BatchEmitter::new();
                let ((), ns) = tracer.time("ops.union", root, step, || {
                    union.process_batch(port, &batch, *now, &mut sink)
                });
                un.add(ns, batch.data_count());
                black_box(sink.take());
                if step < healthy_steps || port < 2 {
                    let ((), ns) = tracer.time("ops.sunion_tentative", root, step, || {
                        sunion_failing.process_batch(port, &batch, *now, &mut sink)
                    });
                    if step >= healthy_steps {
                        st.add(ns, batch.data_count());
                    }
                }
            }
            let ((), ns) = tracer.time("ops.sunion_stable", root, step, || {
                sunion.tick(*now, false, &mut em)
            });
            su.add(ns, 0);
            let mut sink = BatchEmitter::new();
            let ((), ns) = tracer.time("ops.sunion_tentative", root, step, || {
                sunion_failing.tick(*now, true, &mut sink)
            });
            if step >= healthy_steps {
                st.add(ns, 0);
            }
            black_box(sink.take());
            let (chunks, _) = em.take();
            for chunk in chunks {
                let mut out = BatchEmitter::new();
                let ((), ns) = tracer.time("ops.soutput", root, step, || {
                    soutput.process_batch(0, &chunk, *now, &mut out)
                });
                so.add(ns, chunk.data_count());
                black_box(out.take());
                let mut out = BatchEmitter::new();
                let ((), ns) = tracer.time("ops.map", root, step, || {
                    map.process_batch(0, &chunk, *now, &mut out)
                });
                mp.add(ns, chunk.data_count());
                black_box(out.take());
            }
        }
        tracer.close(root);
        m.push(("ops.sunion_stable_ns_per_tuple", su.per_unit()));
        m.push(("ops.soutput_ns_per_tuple", so.per_unit()));
        m.push(("ops.map_ns_per_tuple", mp.per_unit()));
        m.push(("ops.union_ns_per_tuple", un.per_unit()));
        m.push(("ops.sunion_tentative_ns_per_tuple", st.per_unit()));
    }

    /// The failure path of one fragment, scripted: 100 ms healthy, then
    /// source 3 falls silent for 600 ms (the SUnion turns tentative after
    /// its 450 ms detection delay: checkpoint-before-tentative), then it
    /// heals with its backlog and the fragment reconciles.
    fn failure_path(&self, tracer: &mut Tracer, m: &mut Measured) -> Result<(), String> {
        let (healthy, outage_end) = (10usize, 70usize);
        let mut f = Fragment::from_plan(&self.ingest);
        let root = tracer.open("replay:failure_path");
        for (step, (now, msgs)) in self.sources[..outage_end].iter().enumerate() {
            let live = if step < healthy { 3 } else { 2 };
            for (stream, view) in &msgs[..live] {
                f.push_view(*stream, view, *now);
            }
            if step == healthy {
                // A checkpoint of a warm fragment, as taken at detection.
                let mut probe = Fragment::from_plan(&self.ingest);
                for (now, msgs) in &self.sources[..healthy] {
                    for (stream, view) in msgs {
                        probe.push_view(*stream, view, *now);
                    }
                }
                let ((), ns) =
                    tracer.time("engine.checkpoint", root, step, || probe.take_checkpoint());
                m.push(("engine.checkpoint_us", ns as f64 / 1000.0));
            }
            f.tick(*now);
        }
        if !f.is_tainted() {
            return Err("the scripted outage did not turn the fragment tentative".into());
        }
        // Heal: the silent source replays its backlog, then every source
        // delivers the next step so all boundaries pass the outage.
        let (heal_now, _) = self.sources[outage_end];
        for (_, msgs) in &self.sources[healthy..outage_end] {
            let (stream, view) = &msgs[2];
            f.push_view(*stream, view, heal_now);
        }
        for (stream, view) in &self.sources[outage_end].1 {
            f.push_view(*stream, view, heal_now);
        }
        if !f.can_reconcile() {
            return Err("the healed fragment cannot reconcile".into());
        }
        let replayed = f.replay_buffered() as u64;
        let (_, ns) = tracer.time("engine.reconcile", root, outage_end, || {
            let mut b = f.reconcile(heal_now);
            b.merge(f.finish_reconciliation(heal_now));
            b
        });
        tracer.close(root);
        m.push((
            "engine.reconcile_us_per_ktuple",
            ns as f64 / replayed.max(1) as f64,
        ));
        Ok(())
    }

    /// The client's recorder with the arrival trace on (the measurement's
    /// own cost) and a node's output buffer.
    fn client_and_buffers(&self, tracer: &mut Tracer, m: &mut Measured) {
        let out_stream = self.deliver.outputs[0].stream;
        let hub = MetricsHub::new();
        hub.enable_trace(out_stream);
        let recorder = hub.recorder(out_stream);
        let mut buffer = OutputBuffer::new(BufferPolicy::Unbounded);
        let (mut rec, mut buf) = (Pass::default(), Pass::default());
        let root = tracer.open("replay:client+outbuf");
        for (step, (now, msgs)) in self.client_in.iter().enumerate() {
            for (_, view) in msgs {
                let ((), ns) = tracer.time("core.client_record", root, step, || {
                    recorder.record_all(*now, view.iter())
                });
                rec.add(ns, view.data_count());
                let batch = view.to_batch();
                let ((), ns) = tracer.time("core.outbuf_append", root, step, || {
                    buffer.append_batch(batch)
                });
                buf.add(ns, view.data_count());
            }
        }
        tracer.close(root);
        m.push(("core.client_record_ns_per_tuple", rec.per_unit()));
        m.push(("core.outbuf_append_ns_per_tuple", buf.per_unit()));
    }

    /// The credit ledger at `Window(64)`: one admit + one replenish per
    /// data message.
    fn flow_control(&self, tracer: &mut Tracer, m: &mut Measured) {
        let mut flow: FlowControl<NetMsg> = FlowControl::new(CreditPolicy::Window(64));
        let (from, to) = (NodeId(3), NodeId(5));
        let mut pass = Pass::default();
        let root = tracer.open("replay:sim.flow");
        for (step, (now, msgs)) in self.ingest_out.iter().enumerate() {
            for (stream, view) in msgs {
                let msg = NetMsg::Data {
                    stream: *stream,
                    tuples: view.clone(),
                };
                let (_, ns) = tracer.time("sim.flow_admit_replenish", root, step, || {
                    let admitted = flow.admit(from, to, msg, *now);
                    (admitted, flow.replenish(from, to, *now))
                });
                pass.add(ns, 1);
            }
        }
        tracer.close(root);
        m.push(("sim.flow_admit_replenish_ns", pass.per_unit()));
    }

    /// The durable path of one ingest replica on a real directory: input
    /// log appends for the replayed second with a checkpoint at half time,
    /// then a restart from that store.
    fn durability(
        &self,
        tracer: &mut Tracer,
        scratch: &Path,
        m: &mut Measured,
    ) -> Result<(), borealis_store::StoreError> {
        let dir = scratch.join("node");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DurabilityConfig {
            dir: dir.clone(),
            interval: Duration::from_millis(250),
            // Inline flush: the replay times the whole publish.
            background: false,
            sync_log: false,
        };
        let root = tracer.open("replay:durability");
        let mut disk = NodeDisk::open(&cfg)?;
        let mut f = Fragment::from_plan(&self.ingest);
        let mut append = Pass::default();
        let half = self.sources.len() / 2;
        let positions: Vec<(StreamId, TupleId, bool)> = self
            .ingest
            .inputs
            .iter()
            .map(|i| (i.stream, TupleId::NONE, false))
            .collect();
        for (step, (now, msgs)) in self.sources.iter().enumerate() {
            for (stream, view) in msgs {
                let ((), ns) = tracer.time("core.durable_append", root, step, || {
                    disk.append_input(*stream, view)
                });
                append.add(ns, view.data_count());
                f.push_view(*stream, view, *now);
            }
            f.tick(*now);
            if step + 1 == half {
                let (parts, ns) =
                    tracer.time("engine.capture_durable", root, step, || f.capture_durable());
                let parts = parts.expect("a healthy fragment can be captured");
                m.push(("engine.capture_durable_us", ns as f64 / 1000.0));
                let mut bytes = Vec::new();
                encode_durable_capture(&parts, &mut bytes);
                m.push(("engine.capture_durable_bytes", bytes.len() as f64));
                let (_, ns) = tracer.time("core.durable_checkpoint", root, step, || {
                    disk.checkpoint(parts, &positions)
                });
                m.push(("core.durable_checkpoint_us", ns as f64 / 1000.0));
            }
        }
        drop(disk);
        m.push(("core.durable_append_ns_per_tuple", append.per_unit()));
        let log_bytes: u64 = std::fs::read_dir(dir.join("log"))
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|md| md.len())
                    .sum()
            })
            .unwrap_or(0);
        // The log was pruned at the checkpoint: what is left holds the
        // second half of the traffic.
        let logged_tuples: u64 = self.sources[half..]
            .iter()
            .flat_map(|(_, msgs)| msgs.iter())
            .map(|(_, v)| v.data_count())
            .sum();
        m.push((
            "store.disk_bytes_per_tuple",
            log_bytes as f64 / logged_tuples.max(1) as f64,
        ));

        // Restart from disk: load, restore, replay the log suffix.
        let restart = tracer.open("core.restart_recover");
        let started = std::time::Instant::now();
        let mut disk = NodeDisk::open(&cfg)?;
        let (image, ns) = tracer.time("core.durable_recover", restart, 0, || disk.recover());
        let image = image?.expect("the store holds a snapshot");
        m.push(("core.durable_recover_us", ns as f64 / 1000.0));
        let mut restored = Fragment::from_plan(&self.ingest);
        let (ok, _) = tracer.time("engine.restore_durable", restart, 0, || {
            restored.restore_durable(&image.ops_bytes)
        });
        ok.map_err(borealis_store::StoreError::from)?;
        let (heal_now, _) = self.sources[self.sources.len() - 1];
        for (i, (stream, batch)) in image.replay.iter().enumerate() {
            tracer.time("engine.fragment_push", restart, i, || {
                restored.push_batch(*stream, batch, heal_now)
            });
        }
        tracer.close(restart);
        m.push((
            "core.restart_recover_us",
            started.elapsed().as_nanos() as f64 / 1000.0,
        ));
        m.push(("core.restart_replayed_records", image.replay.len() as f64));
        drop(disk);

        // The store underneath, on its own.
        let store = NodeStore::open(&dir)?;
        let (loaded, ns) = tracer.time("store.load_latest", root, 0, || store.load_latest());
        let mut payload = loaded?.map(|s| s.payload).unwrap_or_default();
        m.push(("store.load_latest_us", ns as f64 / 1000.0));
        // Objects are content-addressed: change the content, or publishing
        // it again would skip the object write and time only the HEAD flip.
        payload.push(0);
        let (records, ns) = tracer.time("store.read_log", root, 0, || store.read_log(0));
        let n_records = records?.0.len().max(1);
        m.push((
            "store.read_log_us_per_record",
            ns as f64 / 1000.0 / n_records as f64,
        ));
        let (published, ns) = tracer.time("store.publish", root, 0, || {
            store.publish(1_000_000, &payload)
        });
        published?;
        m.push(("store.publish_us", ns as f64 / 1000.0));
        let mut log = LogWriter::open(&store, false)?;
        let mut record = Vec::new();
        put_view(&mut record, &self.sources[0].1[0].1);
        let mut app = Pass::default();
        for i in 0..100 {
            let (seq, ns) = tracer.time("store.log_append", root, i, || log.append(&record));
            seq?;
            app.add(ns, 1);
        }
        m.push(("store.log_append_us", app.per_unit() / 1000.0));
        tracer.close(root);
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}
