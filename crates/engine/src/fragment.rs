//! The per-node fragment executor.
//!
//! A [`Fragment`] is one node's slice of the query diagram: a topologically
//! ordered set of operators with intra-node wiring, external input bindings,
//! and SOutput-guarded output streams. It implements the node-local half of
//! DPC:
//!
//! * **Checkpoint before tentative** (§4.4.1): the first tentative tuple to
//!   enter the fragment — or the first SUnion about to release tentative
//!   data — triggers a whole-fragment checkpoint *before* the tuple is
//!   processed, and switches the input SUnions' replay logs on.
//! * **Taint tracking**: once an operator has processed tentative data its
//!   state may have diverged, so all its subsequent data outputs are
//!   relabelled tentative until reconciliation (the paper's observation
//!   that "the state of replicas diverges as they process different
//!   inputs").
//! * **Checkpoint/redo reconciliation** (§4.4): restore every operator from
//!   the checkpoint (except SOutput, which keeps its duplicate-suppression
//!   memory), replay the input SUnions' logs in original arrival order, and
//!   emit REC_DONE markers that propagate to the outputs.
//!
//! The fragment alone talks to SUnion and SOutput: it finds its SUnions
//! once, in [`Fragment::from_plan`], and reaches both through
//! `<dyn Operator>::downcast_ref`/`downcast_mut`.
//!
//! Execution is **batch-wise**: external input arrives as shared
//! [`TupleBatch`] views, operators run their
//! [`Operator::process_batch`] path,
//! and intra-fragment routing and the produced [`Batch::outputs`] move
//! reference-counted views. Per tuple, a crossing allocates only payloads
//! an operator computes (`Aggregate`, `SJoin`, a `Map` that changes them);
//! SUnion emission and the failure path's divergence relabelling build one
//! batch of tuple headers over shared payloads, and SOutput and a `Map`
//! that reproduces its input forward the batch they are given
//! (`tests/alloc_budget.rs` holds the exact counts).

use borealis_diagram::FragmentPlan;
use borealis_ops::sunion::Phase;
use borealis_ops::{BatchEmitter, OpSnapshot, Operator, SOutput, SUnion, SnapshotCodec};
use borealis_types::wire::{self, Reader, WireError};
use borealis_types::{
    BatchView, ControlSignal, Duration, StreamId, Time, Tuple, TupleBatch, TupleKind,
};
use std::collections::VecDeque;

/// Everything a fragment produced while handling one call: output-stream
/// batches, control signals for the Consistency Manager, and the number of
/// data tuples processed (the node's CPU-cost accounting).
#[derive(Debug, Default)]
pub struct Batch {
    /// Batches leaving the node, per output stream, in emission order.
    /// Cloning an entry is O(1): the views share the operator's allocation.
    pub outputs: Vec<(StreamId, TupleBatch)>,
    /// Control signals raised by SUnion/SOutput operators.
    pub signals: Vec<ControlSignal>,
    /// Data tuples processed by operators during this call.
    pub work: u64,
}

impl Batch {
    /// Appends another result batch (outputs, signals, work accounting).
    pub fn merge(&mut self, mut other: Batch) {
        self.outputs.append(&mut other.outputs);
        self.signals.append(&mut other.signals);
        self.work += other.work;
    }

    /// Flattens the emitted batches into owned `(stream, tuple)` pairs —
    /// a copying convenience for tests and diagnostics; the runtime data
    /// path consumes [`Batch::outputs`] directly.
    pub fn tuples(&self) -> Vec<(StreamId, Tuple)> {
        self.outputs
            .iter()
            .flat_map(|(s, b)| b.as_slice().iter().map(move |t| (*s, t.clone())))
            .collect()
    }
}

/// A running instance of one fragment's physical diagram.
pub struct Fragment {
    ops: Vec<Box<dyn Operator>>,
    fanout: Vec<Vec<(usize, usize)>>,
    external_output: Vec<Option<StreamId>>,
    /// `(stream, op, port)` bindings for external inputs.
    input_bindings: Vec<(StreamId, usize, usize)>,
    /// Indexes of all SUnions (deadline holders).
    sunions: Vec<usize>,
    /// Indexes of input SUnions (replay-log holders).
    input_sunions: Vec<usize>,
    /// Per-op input queues of shared batch views.
    queues: Vec<VecDeque<(usize, TupleBatch)>>,
    /// Per-op divergence flags.
    op_tainted: Vec<bool>,
    /// Fragment-level: checkpoint taken, tentative processing under way.
    tainted: bool,
    checkpoint: Option<Vec<OpSnapshot>>,
    /// Cumulative data tuples processed (all time).
    total_work: u64,
}

impl Fragment {
    /// Instantiates a fragment from its physical plan.
    pub fn from_plan(plan: &FragmentPlan) -> Fragment {
        let ops: Vec<Box<dyn Operator>> = plan.ops.iter().map(|o| o.spec.instantiate()).collect();
        let n = ops.len();
        let sunion = |i: usize| ops[i].downcast_ref::<SUnion>();
        Fragment {
            sunions: (0..n).filter(|&i| sunion(i).is_some()).collect(),
            input_sunions: (0..n)
                .filter(|&i| sunion(i).is_some_and(|s| s.config().is_input))
                .collect(),
            fanout: plan.ops.iter().map(|o| o.fanout.clone()).collect(),
            external_output: plan.ops.iter().map(|o| o.external_output).collect(),
            input_bindings: plan
                .inputs
                .iter()
                .map(|i| (i.stream, i.target, i.port))
                .collect(),
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            op_tainted: vec![false; n],
            tainted: false,
            checkpoint: None,
            total_work: 0,
            ops,
        }
    }

    /// Output streams this fragment produces.
    pub fn output_streams(&self) -> Vec<StreamId> {
        self.external_output.iter().flatten().copied().collect()
    }

    /// True once a failure checkpoint has been taken and tentative data has
    /// entered the fragment (the node is in UP_FAILURE or awaiting
    /// reconciliation).
    pub fn is_tainted(&self) -> bool {
        self.tainted
    }

    /// Total data tuples processed since construction.
    pub fn total_work(&self) -> u64 {
        self.total_work
    }

    /// True when reconciliation is both needed and possible: a checkpoint
    /// exists and every input SUnion reports its streams corrected (§4.4).
    pub fn can_reconcile(&self) -> bool {
        self.tainted
            && self
                .input_sunions
                .iter()
                .all(|&i| self.sunion(i).corrected_now())
    }

    /// Earliest SUnion deadline (bucket releases).
    pub fn next_deadline(&self) -> Option<Time> {
        self.sunions
            .iter()
            .filter_map(|&i| self.sunion(i).next_deadline())
            .min()
    }

    /// Total tuples buffered in replay logs, for buffer accounting (§8.1).
    pub fn replay_buffered(&self) -> usize {
        self.input_sunions
            .iter()
            .map(|&i| self.sunion(i).replay_log_len())
            .sum()
    }

    /// Delivers one external tuple to the fragment (convenience wrapper
    /// over the batch path).
    pub fn push(&mut self, stream: StreamId, tuple: &Tuple, now: Time) -> Batch {
        self.push_batch(stream, &TupleBatch::single(tuple.clone()), now)
    }

    /// Delivers a shared batch of external tuples (all on one stream) —
    /// the zero-copy data-plane entry point: the batch is enqueued by
    /// view, never copied.
    ///
    /// Checkpoint-before-tentative (§4.4.1): if the batch carries the first
    /// tentative tuple to reach a consistent fragment, the stable prefix is
    /// processed first, the whole-fragment checkpoint is taken, and only
    /// then does the tentative suffix enter — identical semantics to
    /// tuple-at-a-time delivery.
    pub fn push_batch(&mut self, stream: StreamId, tuples: &TupleBatch, now: Time) -> Batch {
        let mut batch = Batch::default();
        self.admit(tuples, now, &mut batch, |f, piece| {
            f.enqueue_external(stream, piece)
        });
        batch
    }

    /// Delivers a received message's view — one contiguous slice (a
    /// sharded replica's is a slice of its shard's batch), so this is
    /// [`Fragment::push_batch`] on it.
    pub fn push_view(&mut self, stream: StreamId, view: &BatchView, now: Time) -> Batch {
        self.push_batch(stream, view, now)
    }

    /// Checkpoint-before-tentative (§4.4.1), for live input and replay
    /// alike: if `chunk` carries the first tentative tuple to reach a
    /// consistent fragment, its stable prefix is enqueued and processed
    /// first, the whole-fragment checkpoint is taken, and only then does
    /// the tentative rest enter. `enqueue` puts one piece on the queues.
    fn admit(
        &mut self,
        chunk: &TupleBatch,
        at: Time,
        batch: &mut Batch,
        enqueue: impl Fn(&mut Self, &TupleBatch),
    ) {
        let split = if self.tainted {
            None
        } else {
            chunk.first_tentative()
        };
        match split {
            Some(k) => {
                if k > 0 {
                    enqueue(self, &chunk.slice(0..k));
                    self.drain(at, batch);
                }
                self.take_checkpoint();
                enqueue(self, &chunk.slice(k..chunk.len()));
            }
            None => enqueue(self, chunk),
        }
        self.drain(at, batch);
    }

    /// Queues one external batch view on every bound operator port.
    fn enqueue_external(&mut self, stream: StreamId, tuples: &TupleBatch) {
        if tuples.is_empty() {
            return;
        }
        for bi in 0..self.input_bindings.len() {
            let (s, op, port) = self.input_bindings[bi];
            if s == stream {
                self.queues[op].push_back((port, tuples.clone()));
            }
        }
    }

    /// Advances virtual time: fires SUnion deadlines, taking the failure
    /// checkpoint first if a release is pending.
    pub fn tick(&mut self, now: Time) -> Batch {
        let mut batch = Batch::default();
        if !self.tainted
            && self
                .sunions
                .iter()
                .any(|&i| self.sunion(i).wants_tentative(now))
        {
            self.take_checkpoint();
        }
        let permitted = self.tainted;
        for i in 0..self.ops.len() {
            let mut em = BatchEmitter::new();
            self.ops[i].tick(now, permitted, &mut em);
            if !em.is_empty() {
                self.route(i, em, &mut batch);
            }
        }
        self.drain(now, &mut batch);
        batch
    }

    /// Checkpoint/redo reconciliation (§4.4): restore, replay, stabilize.
    ///
    /// # Panics
    /// Panics if called without a prior checkpoint — the node state machine
    /// only enters STABILIZATION from UP_FAILURE.
    pub fn reconcile(&mut self, _now: Time) -> Batch {
        let snapshot = self
            .checkpoint
            .take()
            .expect("reconcile requires a failure checkpoint");
        // 1. Take the replay logs (this also stops recording). Entries are
        //    shared batch ranges — replay moves views, never tuple copies.
        let mut log: Vec<(Time, usize, usize, TupleBatch)> = Vec::new();
        for k in 0..self.input_sunions.len() {
            let i = self.input_sunions[k];
            let entries = self.sunion_mut(i).take_replay_log();
            log.extend(
                entries
                    .into_iter()
                    .map(|(t, port, chunk)| (t, i, port, chunk)),
            );
        }
        // Original arrival order across all inputs (stable by op index;
        // tuples within one recorded range already share arrival metadata).
        log.sort_by_key(|(t, i, port, _)| (*t, *i, *port));

        // 2. Restore operators; SOutput keeps its memory and enters
        //    duplicate-suppression mode instead.
        for (i, snap) in snapshot.iter().enumerate() {
            match self.ops[i].downcast_mut::<SOutput>() {
                Some(so) => so.begin_stabilization(),
                None => self.ops[i].restore(snap),
            }
            self.op_tainted[i] = false;
            self.queues[i].clear();
        }
        self.tainted = false;

        // 3. Replay in arrival order. A tentative entry (an uncorrected
        //    newer failure) re-triggers the checkpoint machinery exactly as
        //    live input would.
        let mut batch = Batch::default();
        for (arrival, op, port, chunk) in log {
            self.admit(&chunk, arrival, &mut batch, |f, piece| {
                if !piece.is_empty() {
                    f.queues[op].push_back((port, piece.clone()));
                }
            });
        }

        batch
    }

    /// Ends a reconciliation once the node has caught up with normal
    /// execution (§4.4.2): REC_DONE flows from every input SUnion to the
    /// outputs, where SOutput rolls back any remaining tentative suffix and
    /// signals the Consistency Manager. The node calls this when its CPU
    /// queue drains — the paper's "catches up with current execution".
    pub fn finish_reconciliation(&mut self, now: Time) -> Batch {
        let mut batch = Batch::default();
        for k in 0..self.input_sunions.len() {
            let i = self.input_sunions[k];
            let mut em = BatchEmitter::new();
            self.sunion_mut(i).emit_rec_done(now, &mut em);
            if !em.is_empty() {
                self.route(i, em, &mut batch);
            }
        }
        self.drain(now, &mut batch);
        batch
    }

    /// Surfaces a transport-level credit stall on one of this fragment's
    /// input streams (the stream's producer reads it off its own ledger,
    /// `RuntimeCtx::outbound_stall`, and reports it in its keep-alive
    /// reply; the node's Consistency Manager passes it on): forwarded to
    /// the stream's input SUnions, which treat a stall outlasting their
    /// detection delay as an upstream failure. The failure checkpoint is
    /// taken *before* the declaration, exactly as for a deadline-triggered
    /// tentative release (§4.4.1), so the stall era is recorded for replay
    /// and later reconciled.
    pub fn note_input_stall(
        &mut self,
        stream: StreamId,
        stalled_for: Duration,
        now: Time,
    ) -> Batch {
        let mut targets: Vec<usize> = self
            .input_bindings
            .iter()
            .filter(|(s, _, _)| *s == stream)
            .map(|(_, op, _)| *op)
            .filter(|op| self.input_sunions.contains(op))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        let mut batch = Batch::default();
        if targets.is_empty() {
            return batch;
        }
        let would_declare = targets.iter().any(|&i| {
            let su = self.sunion(i);
            su.phase() == Phase::Stable && stalled_for >= su.config().detect_delay
        });
        if would_declare && !self.tainted {
            self.take_checkpoint();
        }
        for i in targets {
            let mut em = BatchEmitter::new();
            self.sunion_mut(i).note_input_stall(stalled_for, &mut em);
            if !em.is_empty() {
                self.route(i, em, &mut batch);
            }
        }
        self.drain(now, &mut batch);
        batch
    }

    /// Immediate checkpoint (exposed for crash-recovery tooling and tests;
    /// the fragment takes its own checkpoints during normal operation).
    ///
    /// With copy-on-write snapshots this is O(#operators) reference-count
    /// bumps regardless of how much state the operators hold — cheap enough
    /// to run at the failure-detection instant (§4.4.1). Operators pay the
    /// divergence copy lazily on their next mutation instead.
    pub fn take_checkpoint(&mut self) {
        let snaps: Vec<OpSnapshot> = self.ops.iter().map(|o| o.checkpoint()).collect();
        self.checkpoint = Some(snaps);
        self.tainted = true;
        for k in 0..self.input_sunions.len() {
            let i = self.input_sunions[k];
            self.sunion_mut(i).set_recording(true);
        }
    }

    /// The SUnion at operator index `i` (an entry of `sunions`).
    fn sunion(&self, i: usize) -> &SUnion {
        self.ops[i].downcast_ref().expect("sunions holds SUnions")
    }

    /// The SUnion at operator index `i`, mutably.
    fn sunion_mut(&mut self, i: usize) -> &mut SUnion {
        self.ops[i].downcast_mut().expect("sunions holds SUnions")
    }

    /// Routes one operator's emitted batches: relabels outputs of diverged
    /// operators, feeds intra-fragment consumers, and collects output-stream
    /// batches and control signals. On the healthy path every destination
    /// receives a shared view (reference-count bump); only a diverged
    /// operator's stable emissions are rebuilt (relabelled tentative, over
    /// the same payloads).
    fn route(&mut self, from: usize, mut em: BatchEmitter, batch: &mut Batch) {
        let (chunks, signals) = em.take();
        batch.signals.extend(signals);
        let exempt = self.ops[from].downcast_ref::<SOutput>().is_some();
        for chunk in chunks {
            let chunk = if self.op_tainted[from]
                && !exempt
                && chunk
                    .as_slice()
                    .iter()
                    .any(|t| t.kind == TupleKind::Insertion)
            {
                // Divergence relabel: a diverged operator cannot vouch for
                // stability (SOutput is exempt — it is the stabilizer).
                TupleBatch::from_vec(
                    chunk
                        .as_slice()
                        .iter()
                        .map(|t| {
                            if t.kind == TupleKind::Insertion {
                                t.as_tentative()
                            } else {
                                t.clone()
                            }
                        })
                        .collect(),
                )
            } else {
                chunk
            };
            if let Some(stream) = self.external_output[from] {
                batch.outputs.push((stream, chunk.clone()));
            }
            for &(op, port) in &self.fanout[from] {
                self.queues[op].push_back((port, chunk.clone()));
            }
        }
    }

    /// Runs one operator over one queued batch view.
    fn exec(&mut self, i: usize, port: usize, chunk: &TupleBatch, now: Time, batch: &mut Batch) {
        let mut em = BatchEmitter::new();
        self.ops[i].process_batch(port, chunk, now, &mut em);
        self.route(i, em, batch);
    }

    /// Drains all queues in topological order until quiescent.
    fn drain(&mut self, now: Time, batch: &mut Batch) {
        loop {
            let mut progressed = false;
            for i in 0..self.ops.len() {
                while let Some((port, chunk)) = self.queues[i].pop_front() {
                    progressed = true;
                    let work = chunk.data_count();
                    self.total_work += work;
                    batch.work += work;
                    // Divergence split: tuples ahead of the batch's first
                    // tentative one are processed (and routed) with the
                    // operator still clean, exactly as tuple-at-a-time
                    // execution would.
                    let mut rest = chunk;
                    loop {
                        if !self.op_tainted[i] {
                            if let Some(k) = rest.first_tentative() {
                                if k > 0 {
                                    let prefix = rest.slice(0..k);
                                    self.exec(i, port, &prefix, now, batch);
                                }
                                self.op_tainted[i] = true;
                                rest = rest.slice(k..rest.len());
                                continue;
                            }
                        }
                        if !rest.is_empty() {
                            self.exec(i, port, &rest, now, batch);
                        }
                        break;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Captures the fragment for the *durable* store: `(codec, snapshot)`
    /// pairs, one per operator, in operator order. The capture itself is
    /// O(#operators) reference-count bumps; [`encode_durable_capture`]
    /// then serializes it, on the same thread, straight into the
    /// checkpoint record.
    ///
    /// Returns `None` while the fragment is tainted: a durable checkpoint
    /// must describe a stable-era state (tentative divergence is repaired by
    /// live reconciliation, never persisted), and taking it only when clean
    /// also guarantees the SUnion replay logs — which the durable image
    /// deliberately omits — are empty.
    pub fn capture_durable(&self) -> Option<Vec<(SnapshotCodec, OpSnapshot)>> {
        if self.tainted {
            return None;
        }
        Some(
            self.ops
                .iter()
                .map(|o| (o.snapshot_codec(), o.checkpoint()))
                .collect(),
        )
    }

    /// Restores every operator from bytes produced by
    /// [`encode_durable_capture`], resetting queues, taint flags, and the
    /// reconciliation checkpoint — the fragment comes back exactly as the
    /// stable-era capture left it. Corrupt or mismatched bytes (wrong
    /// operator count, trailing data) come back as a typed [`WireError`].
    pub fn restore_durable(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(bytes);
        let n = r.u32()? as usize;
        if n != self.ops.len() {
            return Err(WireError::BadLength(n));
        }
        // Decode everything before mutating any operator: a torn payload
        // must not leave the fragment half-restored.
        let mut snaps = Vec::with_capacity(n);
        for op in &self.ops {
            let mut record = r.nested()?;
            snaps.push((op.snapshot_codec().decode)(&mut record)?);
            record.finish()?;
        }
        r.finish()?;
        for (i, snap) in snaps.iter().enumerate() {
            self.ops[i].restore(snap);
            self.op_tainted[i] = false;
            self.queues[i].clear();
        }
        self.tainted = false;
        self.checkpoint = None;
        for k in 0..self.input_sunions.len() {
            let i = self.input_sunions[k];
            self.sunion_mut(i).set_recording(false);
        }
        Ok(())
    }

    /// Per-output-stream health (§8.2 fine-grained failure advertisement):
    /// `true` means the stream currently ends in an uncorrected tentative
    /// suffix.
    pub fn output_health(&self) -> Vec<(StreamId, bool)> {
        (0..self.ops.len())
            .filter_map(|i| {
                let stream = self.external_output[i]?;
                let so = self.ops[i].downcast_ref::<SOutput>()?;
                Some((stream, so.tentative_since_stable()))
            })
            .collect()
    }
}

/// Serializes a [`Fragment::capture_durable`] result: operator count, then
/// one length-prefixed state record per operator in operator order. The
/// durable store calls it on the actor's thread to encode the checkpoint
/// record's payload in place; only the record's fsync and the log's prune
/// leave that thread.
pub fn encode_durable_capture(parts: &[(SnapshotCodec, OpSnapshot)], buf: &mut Vec<u8>) {
    wire::put_u32(buf, parts.len() as u32);
    for (codec, snap) in parts {
        wire::put_len_prefixed(buf, |buf| (codec.encode)(snap, buf));
    }
}
