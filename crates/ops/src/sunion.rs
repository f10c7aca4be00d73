//! SUnion: the data-serializing operator at the core of DPC (§4.2).
//!
//! SUnion takes one or more input streams and orders all their tuples into a
//! single deterministic sequence so that every replica of a query-diagram
//! fragment processes identical input in identical order. It buffers tuples
//! in **buckets** — fixed, disjoint intervals of `tuple_stime` — and uses
//! **boundary tuples** to decide when a bucket is *stable* (eq. 1 of the
//! paper): a bucket `[kB, (k+1)B)` is stable once every input stream has
//! delivered a boundary with stime ≥ `(k+1)B`.
//!
//! Because it already buffers tuples, SUnion is also where DPC implements
//! the availability/consistency trade-off (§4.3, §6):
//!
//! * While **stable**, buckets are emitted in order as they become stable,
//!   followed by an output boundary.
//! * When a bucket overruns its **detection delay** (the assigned initial
//!   suspend, §6.3) without becoming stable, the SUnion declares an upstream
//!   failure, asks the fragment to checkpoint (§4.4.1), and emits the
//!   bucket's available tuples as **tentative**.
//! * While failed, subsequent buckets are released according to the
//!   configured [`DelayMode`] — `Process` (almost immediately), `Delay`
//!   (each bucket held up to the delay budget), or `Suspend` (held
//!   indefinitely) — the six §6.1 variants are combinations of these for the
//!   UP_FAILURE and STABILIZATION phases.
//!
//! SUnions placed on a node's *input streams* additionally record a replay
//! log of everything received since the last checkpoint; reconciliation
//! replays that log through the restored fragment (§4.4.1). They also
//! consume UNDO / REC_DONE tuples arriving from stabilizing upstream
//! neighbors, replacing undone tentative input with its stable corrections
//! (§4.4.2).
//!
//! # Batch-native buffering
//!
//! Every tuple in the system crosses an SUnion, so its buffering is the
//! serialization hot path. Ingestion is **clone-free**: an arriving
//! [`TupleBatch`] is split into maximal same-bucket runs and each run is
//! buffered as an O(1) shared *view* of the arrival batch (a bucket
//! segment); the port tag lives on the segment, not on copied tuples. The
//! replay log likewise records shared batch ranges, not per-tuple clones.
//! Emission is where the protocol *requires* new tuples (the canonical
//! renumbering that makes replicas identical): one sealed output batch of
//! renumbered tuple headers per stabilization — the attribute payloads are
//! shared with the arrival batches, so nothing is allocated per tuple.
//! The canonical order, the stable sort by `(stime, port, id)`, is a merge
//! of the ports' arrivals, each in `stime` order already unless its input
//! reordered it; no bucket is sorted whole.
//!
//! Checkpoints are copy-on-write: the whole operator state lives behind an
//! `Arc`, [`crate::Operator::checkpoint`] is a reference-count bump, and the
//! first post-checkpoint mutation clones containers-of-views (cheap), never
//! tuples. See [`crate::snapshot`] for the contract.

use crate::snapshot::SnapshotCodec;
use crate::{BatchEmitter, OpSnapshot, Operator};
use borealis_types::{wire_enum, wire_struct};
use borealis_types::{ControlSignal, Duration, Time, Tuple, TupleBatch, TupleId, TupleKind};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// How an SUnion treats buckets that cannot (yet) be emitted stably.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayMode {
    /// Hold new tuples indefinitely (consistency over availability; only
    /// viable for failures shorter than the delay bound, §6.1).
    Suspend,
    /// Hold each bucket up to the delay budget before emitting tentatively
    /// ("running on the verge of breaking the availability requirement").
    Delay,
    /// Emit buckets almost as they arrive, after a short minimum wait (the
    /// paper's 300 ms: without tentative boundaries an SUnion cannot know
    /// how soon a tentative bucket is complete, footnote 5).
    Process,
}

/// Static + policy configuration of an [`SUnion`].
#[derive(Debug, Clone)]
pub struct SUnionConfig {
    /// Number of input streams to serialize.
    pub n_inputs: usize,
    /// Bucket granularity (§4.2.1).
    pub bucket: Duration,
    /// Failure-detection threshold and initial suspend: a bucket older than
    /// this that is still unstable triggers UP_FAILURE. §6.3 shows this
    /// should be the application's full incremental latency budget (minus a
    /// queueing safety margin) at *every* SUnion.
    pub detect_delay: Duration,
    /// Per-bucket delay used by [`DelayMode::Delay`] after detection.
    pub delay_budget: Duration,
    /// Policy while an upstream failure is in progress (UP_FAILURE).
    pub failure_mode: DelayMode,
    /// Policy after the failure healed but before this node reconciled
    /// (STABILIZATION of this node or its replica).
    pub stabilization_mode: DelayMode,
    /// True if this SUnion sits on a node input stream: it then keeps the
    /// reconciliation replay log and consumes UNDO/REC_DONE from upstream.
    pub is_input: bool,
}

impl SUnionConfig {
    /// A reasonable starting configuration for `n` inputs: 100 ms buckets,
    /// 3 s detection delay, Process & Process policies.
    pub fn new(n_inputs: usize) -> SUnionConfig {
        SUnionConfig {
            n_inputs,
            bucket: Duration::from_millis(100),
            detect_delay: Duration::from_secs(3),
            delay_budget: Duration::from_secs(3),
            failure_mode: DelayMode::Process,
            stabilization_mode: DelayMode::Process,
            is_input: false,
        }
    }
}

/// Consistency phase of one SUnion (a per-operator shadow of the node state
/// machine in Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// All inputs stable; emitting stable buckets.
    Stable,
    /// An upstream failure is in progress: some input is missing boundaries
    /// or carries uncorrected tentative data.
    Failure,
    /// All inputs corrected; awaiting fragment reconciliation.
    Healed,
}

wire_enum!(Phase, "phase", { Stable = 0, Failure = 1, Healed = 2, });

wire_struct! {
    /// One arrival-ordered run of buffered tuples: a shared view of the
    /// batch they arrived in, tagged with the input port it arrived on (the
    /// port tag lives here so ingestion never copies tuples to stamp
    /// `origin`).
    #[derive(Debug, Clone)]
    struct BucketSeg {
        port: u16,
        batch: TupleBatch,
    }
}

wire_struct! {
    #[derive(Debug, Clone)]
    struct Bucket {
        /// Buffered tuples, as arrival-ordered shared segments.
        segs: Vec<BucketSeg>,
        /// Total buffered tuples (sum of segment lengths).
        len: usize,
        /// Earliest arrival time of any tuple in the bucket; deadlines are
        /// measured from here ("within D time-units of their arrival", §2.3.1).
        first_arrival: Time,
        /// Tentative-release deadline, frozen under the delay policy in force
        /// when the bucket was created. Freezing is what produces the paper's
        /// §6.1 trade-off: a bucket still unexpired when reconciliation
        /// replaces it is never emitted tentatively (the Delay savings), while
        /// a long stabilization lets deadlines expire and the data flows
        /// tentatively anyway (why delaying stops helping for long failures,
        /// Fig. 18).
        deadline: Time,
        /// True while every appended tuple extended the canonical
        /// `(stime, port, id)` order — one input delivering in order;
        /// emission then concatenates the segments as they are.
        sorted: bool,
        /// Canonical key of the most recently appended tuple — while `sorted`,
        /// an upper bound on every key in the bucket. Removals (UNDO) may leave
        /// it above the remaining maximum; that only clears `sorted`
        /// conservatively on a later append, never wrongly keeps it.
        last_key: (Time, u16, TupleId),
    }
}

impl Bucket {
    fn new(now: Time, deadline: Time) -> Bucket {
        Bucket {
            segs: Vec::new(),
            len: 0,
            first_arrival: now,
            deadline,
            sorted: true,
            last_key: (Time::ZERO, 0, TupleId::NONE),
        }
    }

    /// Appends one same-bucket run by shared view, maintaining the sorted
    /// flag (comparisons on borrowed tuples; no copies).
    fn append_run(&mut self, port: u16, run: TupleBatch) {
        if self.sorted {
            for t in run.as_slice() {
                let key = (t.stime, port, t.id);
                if key < self.last_key {
                    self.sorted = false;
                    break;
                }
                self.last_key = key;
            }
        }
        self.len += run.len();
        self.segs.push(BucketSeg { port, batch: run });
    }
}

/// One entry of the reconciliation replay log: (arrival time, input port,
/// shared batch range). Arrival times are preserved so replayed buckets
/// keep their original deadlines; the batch shares its backing allocation
/// with the arrival message — recording costs a range, not a copy.
pub type ReplayEntry = (Time, usize, TupleBatch);

wire_struct! {
    #[derive(Clone)]
    struct SUnionState {
        buckets: BTreeMap<u64, Bucket>,
        /// Latest boundary stime per port.
        watermarks: Vec<Option<Time>>,
        /// Highest bucket index emitted (stably or tentatively).
        emitted_through: Option<u64>,
        /// Stable-boundary frontier already announced downstream.
        announced_wm: Option<Time>,
        phase: Phase,
        /// Ports that delivered tentative tuples not yet corrected by an
        /// UNDO + REC_DONE sequence.
        awaiting_correction: Vec<bool>,
        /// REC_DONE merge tracking for mid-diagram SUnions.
        rec_done_seen: Vec<bool>,
        /// Output id generator.
        next_id: u64,
    }
}

/// The serializing union. See the module docs for the full protocol role.
pub struct SUnion {
    cfg: SUnionConfig,
    /// Copy-on-write state: checkpoints share this `Arc`; mutation paths go
    /// through [`Arc::make_mut`], so the first post-checkpoint mutation
    /// clones containers of shared views (never tuples).
    state: Arc<SUnionState>,
    /// Reconciliation replay log (input SUnions only); *not* part of the
    /// checkpointed state — it is the data replayed after a restore.
    replay_log: Vec<ReplayEntry>,
    recording: bool,
}

impl SUnion {
    /// Builds an SUnion from its configuration.
    ///
    /// # Panics
    /// Panics on a zero bucket size or zero inputs (configuration errors).
    pub fn new(cfg: SUnionConfig) -> SUnion {
        assert!(cfg.n_inputs >= 1, "sunion needs at least one input");
        assert!(cfg.bucket.as_micros() > 0, "bucket size must be positive");
        let n = cfg.n_inputs;
        SUnion {
            cfg,
            state: Arc::new(SUnionState {
                buckets: BTreeMap::new(),
                watermarks: vec![None; n],
                emitted_through: None,
                announced_wm: None,
                phase: Phase::Stable,
                awaiting_correction: vec![false; n],
                rec_done_seen: vec![false; n],
                next_id: 1,
            }),
            replay_log: Vec::new(),
            recording: false,
        }
    }

    /// Current consistency phase.
    pub fn phase(&self) -> Phase {
        self.state.phase
    }

    /// Configuration access.
    pub fn config(&self) -> &SUnionConfig {
        &self.cfg
    }

    /// Number of buffered (unemitted) tuples, for buffer accounting.
    pub fn buffered_tuples(&self) -> usize {
        self.state.buckets.values().map(|b| b.len).sum()
    }

    /// Tuples held in the reconciliation replay log, for buffer accounting
    /// (§8.1).
    pub fn replay_log_len(&self) -> usize {
        self.replay_log.iter().map(|(_, _, b)| b.len()).sum()
    }

    /// Starts (or stops) recording arrivals into the replay log. The
    /// fragment enables recording when it takes its pre-failure checkpoint.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
        if !on {
            self.replay_log.clear();
        }
    }

    /// Takes the replay log for reconciliation, leaving recording off. The
    /// entries are shared batch ranges in arrival order.
    pub fn take_replay_log(&mut self) -> Vec<ReplayEntry> {
        self.recording = false;
        std::mem::take(&mut self.replay_log)
    }

    /// True when this (input) SUnion's failed inputs have all been
    /// corrected: every tentative port saw its REC_DONE and boundaries cover
    /// every bucket emitted so far. This is the per-stream part of the
    /// node's "can reconcile" condition (§4.4).
    pub fn corrected_now(&self) -> bool {
        if self.state.phase == Phase::Stable {
            return true;
        }
        self.conditions_for_healed()
    }

    /// Emits the REC_DONE marker at the end of a reconciliation replay
    /// (§4.4.2) — called by the fragment on input SUnions.
    pub fn emit_rec_done(&mut self, now: Time, out: &mut BatchEmitter) {
        out.push(Tuple::rec_done(TupleId::NONE, now));
    }

    /// Surfaces a transport-level credit stall on this SUnion's input: the
    /// upstream's data sits queued awaiting credit because this node (or a
    /// consumer behind it) cannot keep up.
    ///
    /// A stall that has outlasted the detection delay is handled exactly
    /// like a missing-boundary failure (§4.3): enter UP_FAILURE, so the
    /// buckets that do trickle in are released as *delayed* tentative data
    /// under the configured [`DelayMode`] and the overload is visible
    /// downstream — bounded delay governed by the delay budget, never
    /// silent unbounded buffering. When the stall clears and boundaries
    /// catch up, the standard heal → REC_REQUEST → reconciliation path
    /// corrects everything, so stable output is unaffected.
    ///
    /// Shorter stalls are ignored: transient backpressure at saturation is
    /// normal queueing, not a failure.
    pub fn note_input_stall(&mut self, stalled_for: Duration, out: &mut BatchEmitter) {
        if stalled_for >= self.cfg.detect_delay {
            self.enter_failure(out);
        }
    }

    fn bucket_index(&self, stime: Time) -> u64 {
        stime.as_micros() / self.cfg.bucket.as_micros()
    }

    fn bucket_end(&self, index: u64) -> Time {
        Time((index + 1) * self.cfg.bucket.as_micros())
    }

    fn min_watermark(&self) -> Option<Time> {
        let mut min = Time::MAX;
        for wm in &self.state.watermarks {
            match wm {
                Some(t) => min = min.min(*t),
                None => return None,
            }
        }
        Some(min)
    }

    /// Minimum wait before a tentative bucket is released in
    /// [`DelayMode::Process`] (the paper's footnote 5).
    const TENTATIVE_WAIT: Duration = Duration::from_millis(300);

    /// The delay a given [`DelayMode`] grants an unstable bucket; `None`
    /// means hold indefinitely.
    fn mode_delay(&self, mode: DelayMode) -> Option<Duration> {
        match mode {
            DelayMode::Suspend => None,
            DelayMode::Delay => Some(self.cfg.delay_budget),
            DelayMode::Process => Some(Self::TENTATIVE_WAIT),
        }
    }

    /// The delay applied to the next unstable bucket in the current phase;
    /// `None` means hold indefinitely.
    fn phase_delay(&self) -> Option<Duration> {
        let mode = match self.state.phase {
            Phase::Stable => return Some(self.cfg.detect_delay),
            Phase::Failure => self.cfg.failure_mode,
            Phase::Healed => self.cfg.stabilization_mode,
        };
        self.mode_delay(mode)
    }

    /// Earliest tentative-release deadline over the non-empty buckets: the
    /// next instant at which this SUnion needs a [`Operator::tick`], if any.
    pub fn next_deadline(&self) -> Option<Time> {
        self.state
            .buckets
            .values()
            .filter(|b| b.len > 0)
            .map(|b| b.deadline)
            .filter(|&d| d != Time::MAX)
            .min()
    }

    /// True if a tick at `now` would release tentative data. The fragment
    /// polls this before ticking to take the reconciliation checkpoint
    /// first.
    pub fn wants_tentative(&self, now: Time) -> bool {
        self.next_deadline().is_some_and(|d| now >= d)
    }

    fn conditions_for_healed(&self) -> bool {
        if self.state.awaiting_correction.iter().any(|&w| w) {
            return false;
        }
        let Some(min_wm) = self.min_watermark() else {
            return false;
        };
        match self.state.emitted_through {
            Some(et) => min_wm >= self.bucket_end(et),
            None => true,
        }
    }

    /// Re-evaluates the phase from current facts; signals REC_REQUEST on the
    /// Failure → Healed edge (Table I, control streams).
    fn recheck_phase(&mut self, out: &mut BatchEmitter) {
        match self.state.phase {
            Phase::Stable => {}
            Phase::Failure => {
                if self.conditions_for_healed() {
                    Arc::make_mut(&mut self.state).phase = Phase::Healed;
                    out.signal(ControlSignal::RecRequest);
                }
            }
            Phase::Healed => {
                if !self.conditions_for_healed() {
                    Arc::make_mut(&mut self.state).phase = Phase::Failure;
                }
            }
        }
    }

    fn enter_failure(&mut self, out: &mut BatchEmitter) {
        if self.state.phase == Phase::Stable {
            // The initial suspend is over: the buffered backlog follows the
            // UP_FAILURE policy from here ("after the initial delay, nodes
            // process subsequent tuples without any delay" for Process).
            let delay = self.mode_delay(self.cfg.failure_mode);
            let st = Arc::make_mut(&mut self.state);
            st.phase = Phase::Failure;
            for b in st.buckets.values_mut() {
                b.deadline = match delay {
                    Some(d) => b.deadline.min(b.first_arrival + d),
                    None => Time::MAX,
                };
            }
            out.signal(ControlSignal::UpFailure);
        } else if self.state.phase == Phase::Healed {
            Arc::make_mut(&mut self.state).phase = Phase::Failure;
        }
    }

    /// Buffers one same-bucket run of data tuples by shared view.
    fn insert_run(&mut self, idx: u64, port: usize, run: TupleBatch, now: Time) {
        let delay = self.phase_delay();
        let st = Arc::make_mut(&mut self.state);
        let entry = st.buckets.entry(idx).or_insert_with(|| {
            Bucket::new(
                now,
                match delay {
                    Some(d) => now + d,
                    None => Time::MAX,
                },
            )
        });
        entry.first_arrival = entry.first_arrival.min(now);
        entry.append_run(port as u16, run);
    }

    /// Buffers the data run `[start, end)` of `batch`, splitting it into
    /// maximal same-bucket sub-runs; each sub-run is an O(1) shared view.
    /// Late tuples for already-emitted buckets are dropped (under stable
    /// operation the boundary contract makes this impossible; during
    /// failures it happens — e.g. right after an upstream switch — and
    /// reconciliation replays them from the log, paper footnote 6).
    fn ingest_data_run(
        &mut self,
        port: usize,
        batch: &TupleBatch,
        start: usize,
        end: usize,
        now: Time,
    ) {
        let slice = batch.as_slice();
        let bucket_us = self.cfg.bucket.as_micros();
        let mut i = start;
        while i < end {
            // One division per run, not per tuple: the run extends while
            // stimes stay inside the first tuple's bucket interval.
            let idx = self.bucket_index(slice[i].stime);
            let from = idx * bucket_us;
            let bucket = from..from.saturating_add(bucket_us);
            let mut j = i + 1;
            while j < end && bucket.contains(&slice[j].stime.as_micros()) {
                j += 1;
            }
            if self.state.emitted_through.is_none_or(|et| idx > et) {
                self.insert_run(idx, port, batch.slice(i..j), now);
            }
            i = j;
        }
    }

    /// Handles one non-data tuple (boundary / undo / rec-done).
    fn process_control(&mut self, port: usize, tuple: &Tuple, out: &mut BatchEmitter) {
        match tuple.kind {
            TupleKind::Boundary => {
                {
                    let st = Arc::make_mut(&mut self.state);
                    let wm = &mut st.watermarks[port];
                    *wm = Some(wm.map_or(tuple.stime, |w| w.max(tuple.stime)));
                }
                if self.state.phase == Phase::Stable {
                    self.emit_stable_ready(out);
                } else {
                    self.recheck_phase(out);
                }
            }
            TupleKind::Undo => {
                if self.cfg.is_input {
                    self.apply_undo(port);
                } else {
                    out.push(tuple.clone());
                }
            }
            TupleKind::RecDone => {
                if self.cfg.is_input {
                    // Upstream finished stabilizing this stream: the stream
                    // is fully corrected from here (§4.4: tentative tuples
                    // after the REC_DONE belong to a *new* failure).
                    self.apply_undo(port);
                    Arc::make_mut(&mut self.state).awaiting_correction[port] = false;
                    self.recheck_phase(out);
                } else {
                    // Mid-diagram merge: forward one REC_DONE once every
                    // input port has delivered one (§4.4.2).
                    let st = Arc::make_mut(&mut self.state);
                    st.rec_done_seen[port] = true;
                    if st.rec_done_seen.iter().all(|&b| b) {
                        st.rec_done_seen.iter_mut().for_each(|b| *b = false);
                        st.awaiting_correction.iter_mut().for_each(|b| *b = false);
                        out.push(tuple.clone());
                    }
                }
            }
            TupleKind::Insertion | TupleKind::Tentative => {
                unreachable!("data kinds are handled by the run path")
            }
        }
    }

    /// Emits every bucket that the boundary frontier now covers, stably, in
    /// index order; then announces the new frontier downstream. Only valid
    /// in the Stable phase — after a failure all output must stay tentative
    /// until reconciliation (stable output is a prefix property). All
    /// released buckets and the trailing boundary seal into one shared
    /// output batch.
    fn emit_stable_ready(&mut self, out: &mut BatchEmitter) {
        debug_assert_eq!(self.state.phase, Phase::Stable);
        let Some(frontier) = self.min_watermark() else {
            return;
        };
        let bucket_us = self.cfg.bucket.as_micros();
        let frontier_idx = frontier.as_micros() / bucket_us; // buckets < this are covered
        if frontier_idx == 0 {
            return;
        }
        let covered_through = frontier_idx - 1;
        if self
            .state
            .emitted_through
            .is_some_and(|et| et >= covered_through)
        {
            return;
        }
        let announce = self.bucket_end(covered_through);
        let mut outv: Vec<Tuple> = Vec::new();
        let st = Arc::make_mut(&mut self.state);
        while let Some((&idx, _)) = st.buckets.iter().next() {
            if idx > covered_through {
                break;
            }
            let bucket = st.buckets.remove(&idx).expect("bucket key just read");
            Self::emit_bucket_into(&mut st.next_id, bucket, false, &mut outv);
        }
        st.emitted_through = Some(
            st.emitted_through
                .map_or(covered_through, |et| et.max(covered_through)),
        );
        // Announce the covered frontier downstream (§4.2.1: operators
        // produce boundaries with monotonically increasing values).
        if st.announced_wm.is_none_or(|w| announce > w) {
            st.announced_wm = Some(announce);
            outv.push(Tuple::boundary(TupleId::NONE, announce));
        }
        out.push_batch(TupleBatch::from_vec(outv));
    }

    /// Serializes one bucket into `outv` in the canonical deterministic
    /// order, the stable sort of its arrivals by `(stime, port, id)`. The
    /// protocol requires fresh tuples here (renumbered ids, the port as
    /// `origin`), so the bucket's shared views are materialized once into
    /// the output batch; each tuple's payload is shared, not copied. A
    /// bucket already in that order is emitted as it arrived; otherwise
    /// the ports' runs — each input's own arrivals, which are almost never
    /// out of order although their interleaving almost always is — merge.
    fn emit_bucket_into(
        next_id: &mut u64,
        bucket: Bucket,
        force_tentative: bool,
        outv: &mut Vec<Tuple>,
    ) {
        outv.reserve(bucket.len);
        let mut emit = |t: &Tuple, port: u16| {
            let mut t = t.clone();
            t.origin = port;
            t.id = TupleId(*next_id);
            *next_id += 1;
            if force_tentative {
                t.kind = TupleKind::Tentative;
            }
            outv.push(t);
        };
        if bucket.sorted {
            for seg in &bucket.segs {
                for t in seg.batch.as_slice() {
                    emit(t, seg.port);
                }
            }
            return;
        }
        // Each port's arrivals as one run of `flat`; a port out of order on
        // its own is sorted, stably: equal keys keep their arrival order.
        let key = |t: &&Tuple| (t.stime, t.id);
        let ports = bucket.segs.iter().map(|s| s.port + 1).max().unwrap_or(0);
        let mut flat: Vec<&Tuple> = Vec::with_capacity(bucket.len);
        let mut runs: Vec<Range<usize>> = Vec::with_capacity(ports as usize);
        for port in 0..ports {
            let start = flat.len();
            for seg in bucket.segs.iter().filter(|s| s.port == port) {
                flat.extend(seg.batch.as_slice());
            }
            if !flat[start..].is_sorted_by_key(key) {
                flat[start..].sort_by_key(key);
            }
            runs.push(start..flat.len());
        }
        // Merge: smallest `stime` first, ties to the lower port. A port's
        // head is emitted while it precedes every other port's head.
        let head =
            |runs: &[Range<usize>], p: usize| runs[p].clone().next().map(|i| (flat[i].stime, p));
        while let Some((_, p)) = (0..runs.len()).filter_map(|p| head(&runs, p)).min() {
            let limit = (0..runs.len())
                .filter(|&q| q != p)
                .filter_map(|q| head(&runs, q))
                .min();
            while head(&runs, p).is_some_and(|k| limit.is_none_or(|l| k < l)) {
                emit(flat[runs[p].start], p as u16);
                runs[p].start += 1;
            }
        }
    }

    /// Releases expired buckets tentatively (availability path). Buckets
    /// whose frozen deadlines have not passed stay buffered — if a
    /// reconciliation replaces them first, they are emitted stably instead
    /// (the Delay-mode savings).
    fn emit_overdue(&mut self, now: Time, out: &mut BatchEmitter) {
        loop {
            let expired: Option<u64> = self
                .state
                .buckets
                .iter()
                .find(|(_, b)| b.len > 0 && b.deadline <= now)
                .map(|(&k, _)| k);
            let Some(idx) = expired else {
                return;
            };
            // Release is a failure event if we were stable (this also
            // re-deadlines the backlog under the UP_FAILURE policy, so keep
            // looping: more buckets may now be expired).
            self.enter_failure(out);
            if self.state.buckets[&idx].deadline > now {
                continue;
            }
            let st = Arc::make_mut(&mut self.state);
            let bucket = st.buckets.remove(&idx).expect("bucket key just read");
            let mut outv: Vec<Tuple> = Vec::new();
            Self::emit_bucket_into(&mut st.next_id, bucket, true, &mut outv);
            st.emitted_through = Some(st.emitted_through.map_or(idx, |et| et.max(idx)));
            out.push_batch(TupleBatch::from_vec(outv));
        }
    }

    /// The maximal non-tentative sub-runs of a batch. Survivors covering at
    /// least half the *backing allocation* stay O(1) shared slices; a small
    /// survivor set is compacted into a fresh allocation instead, so an
    /// UNDO can never leave a sliver pinning a large arrival batch in
    /// memory (the §8.1 buffer accounting counts tuples, and resident
    /// memory must track it).
    fn stable_runs(batch: &TupleBatch) -> Vec<TupleBatch> {
        let slice = batch.as_slice();
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut survivors = 0;
        let mut i = 0;
        while i < slice.len() {
            if slice[i].is_tentative() {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < slice.len() && !slice[j].is_tentative() {
                j += 1;
            }
            survivors += j - i;
            runs.push((i, j));
            i = j;
        }
        if survivors * 2 < batch.backing_len() {
            if survivors == 0 {
                return Vec::new();
            }
            let mut v = Vec::with_capacity(survivors);
            for &(i, j) in &runs {
                v.extend_from_slice(&slice[i..j]);
            }
            return vec![TupleBatch::from_vec(v)];
        }
        runs.into_iter().map(|(i, j)| batch.slice(i..j)).collect()
    }

    /// Handles an UNDO arriving from a stabilizing upstream neighbor: drop
    /// the uncorrected tentative input of that port from the replay log and
    /// from unemitted buckets; stable corrections follow on the stream.
    /// Edits are range splits on the shared views while survivors dominate
    /// their backing batch; mostly-undone batches are compacted instead
    /// (one copy of the survivors), so the undone arrivals are actually
    /// reclaimed rather than pinned by slivers. An emptied bucket stays, so
    /// its corrections leave when the undone data would have (§2.3.1).
    fn apply_undo(&mut self, port: usize) {
        // Every entry of the undone port goes through `stable_runs`, even
        // pure-stable ones: the compaction decision is per backing
        // allocation, and because a delivery batch arrives on exactly one
        // port, one UNDO pass visits every view of that batch this SUnion
        // holds (bucket segments and log entries alike) — compacting them
        // together is what releases the backing.
        let old = std::mem::take(&mut self.replay_log);
        self.replay_log.reserve(old.len());
        for (at, p, batch) in old {
            if p != port {
                self.replay_log.push((at, p, batch));
                continue;
            }
            self.replay_log
                .extend(Self::stable_runs(&batch).into_iter().map(|b| (at, p, b)));
        }
        let p16 = port as u16;
        let st = Arc::make_mut(&mut self.state);
        for bucket in st.buckets.values_mut() {
            if !bucket.segs.iter().any(|s| s.port == p16) {
                continue;
            }
            let mut segs = Vec::with_capacity(bucket.segs.len());
            let mut len = 0;
            for seg in &bucket.segs {
                if seg.port != p16 {
                    len += seg.batch.len();
                    segs.push(seg.clone());
                    continue;
                }
                for run in Self::stable_runs(&seg.batch) {
                    len += run.len();
                    segs.push(BucketSeg {
                        port: seg.port,
                        batch: run,
                    });
                }
            }
            // Removal keeps relative order, so a sorted bucket stays
            // sorted (`last_key` remains an upper bound on what is left).
            bucket.segs = segs;
            bucket.len = len;
        }
    }
}

impl Operator for SUnion {
    /// Batch-native ingestion — the serialization hot path. Data runs are
    /// buffered (and recorded for replay) as O(1) shared views of `batch`;
    /// control tuples are handled in place. How the arrivals were cut into
    /// batches never shows in the output.
    fn process_batch(
        &mut self,
        port: usize,
        batch: &TupleBatch,
        now: Time,
        out: &mut BatchEmitter,
    ) {
        assert!(port < self.cfg.n_inputs, "port out of range");
        let record = self.recording && self.cfg.is_input;
        let slice = batch.as_slice();
        let mut i = 0;
        while i < slice.len() {
            let kind = slice[i].kind;
            match kind {
                TupleKind::Insertion | TupleKind::Tentative => {
                    let mut j = i + 1;
                    while j < slice.len() && slice[j].kind == kind {
                        j += 1;
                    }
                    // Data is recorded for replay as a shared range; UNDO
                    // and REC_DONE are not — they *edit* the log (replacing
                    // undone input with its corrections) rather than
                    // belonging to it.
                    if record {
                        self.replay_log.push((now, port, batch.slice(i..j)));
                    }
                    if kind == TupleKind::Tentative {
                        Arc::make_mut(&mut self.state).awaiting_correction[port] = true;
                        self.enter_failure(out);
                    }
                    self.ingest_data_run(port, batch, i, j, now);
                    i = j;
                }
                TupleKind::Boundary => {
                    if record {
                        self.replay_log.push((now, port, batch.slice(i..i + 1)));
                    }
                    self.process_control(port, &slice[i], out);
                    i += 1;
                }
                TupleKind::Undo | TupleKind::RecDone => {
                    self.process_control(port, &slice[i], out);
                    i += 1;
                }
            }
        }
    }

    fn tick(&mut self, now: Time, tentative_permitted: bool, out: &mut BatchEmitter) {
        if self.state.phase == Phase::Stable {
            self.emit_stable_ready(out);
        }
        if tentative_permitted {
            self.emit_overdue(now, out);
        }
        self.recheck_phase(out);
    }

    fn checkpoint(&self) -> OpSnapshot {
        OpSnapshot::share(&self.state)
    }

    fn restore(&mut self, snap: &OpSnapshot) {
        self.state = snap.shared::<SUnionState>();
    }

    // The reconciliation replay log is deliberately NOT part of the durable
    // image: durable checkpoints are only taken while the fragment is
    // untainted, and recording starts strictly after the taint checkpoint.
    fn snapshot_codec(&self) -> SnapshotCodec {
        SnapshotCodec::of::<SUnionState>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::Value;

    fn cfg(n: usize) -> SUnionConfig {
        SUnionConfig {
            n_inputs: n,
            bucket: Duration::from_millis(100),
            detect_delay: Duration::from_secs(2),
            delay_budget: Duration::from_secs(2),
            failure_mode: DelayMode::Process,
            stabilization_mode: DelayMode::Process,
            is_input: true,
        }
    }

    fn data(id: u64, ms: u64) -> Tuple {
        Tuple::insertion(
            TupleId(id),
            Time::from_millis(ms),
            vec![Value::Int(id as i64)],
        )
    }

    fn boundary(ms: u64) -> Tuple {
        Tuple::boundary(TupleId::NONE, Time::from_millis(ms))
    }

    /// Feeds the same tuples in two different arrival interleavings and
    /// checks the emitted order is identical — the core §4.2 guarantee.
    #[test]
    fn serialization_is_order_insensitive() {
        let run = |swap: bool| {
            let mut s = SUnion::new(cfg(2));
            let mut out = BatchEmitter::new();
            let now = Time::from_millis(1);
            let a = data(1, 30);
            let b = data(1, 10);
            if swap {
                s.process(1, &b, now, &mut out);
                s.process(0, &a, now, &mut out);
            } else {
                s.process(0, &a, now, &mut out);
                s.process(1, &b, now, &mut out);
            }
            s.process(0, &boundary(100), now, &mut out);
            s.process(1, &boundary(100), now, &mut out);
            out.tuples()
                .iter()
                .filter(|t| t.is_data())
                .map(|t| (t.stime.as_millis(), t.origin))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
        assert_eq!(run(false), vec![(10, 1), (30, 0)]);
    }

    #[test]
    fn stable_emission_waits_for_all_ports() {
        let mut s = SUnion::new(cfg(2));
        let mut out = BatchEmitter::new();
        let now = Time::from_millis(1);
        s.process(0, &data(1, 50), now, &mut out);
        s.process(0, &boundary(200), now, &mut out);
        assert!(out.tuples().is_empty(), "port 1 has no boundary yet");
        s.process(1, &boundary(200), now, &mut out);
        let kinds: Vec<TupleKind> = out.tuples().iter().map(|t| t.kind).collect();
        assert_eq!(kinds, vec![TupleKind::Insertion, TupleKind::Boundary]);
        assert_eq!(out.tuples()[1].stime, Time::from_millis(200));
    }

    #[test]
    fn out_of_order_within_bucket_is_sorted() {
        let mut s = SUnion::new(cfg(1));
        let mut out = BatchEmitter::new();
        let now = Time::from_millis(1);
        s.process(0, &data(1, 80), now, &mut out);
        s.process(0, &data(2, 20), now, &mut out);
        s.process(0, &boundary(100), now, &mut out);
        let stimes: Vec<u64> = out
            .tuples()
            .iter()
            .filter(|t| t.is_data())
            .map(|t| t.stime.as_millis())
            .collect();
        assert_eq!(stimes, vec![20, 80]);
    }

    #[test]
    fn detection_fires_after_detect_delay_and_signals_up_failure() {
        let mut s = SUnion::new(cfg(2));
        let mut out = BatchEmitter::new();
        let arrival = Time::from_millis(100);
        s.process(0, &data(1, 50), arrival, &mut out);
        // Port 1 never delivers a boundary: the bucket cannot stabilize.
        assert!(!s.wants_tentative(Time::from_millis(2099)));
        assert!(s.wants_tentative(Time::from_millis(2100)));
        s.tick(Time::from_millis(2100), true, &mut out);
        assert_eq!(s.phase(), Phase::Failure);
        assert_eq!(out.signals(), vec![ControlSignal::UpFailure]);
        let emitted: Vec<TupleKind> = out.tuples().iter().map(|t| t.kind).collect();
        assert_eq!(emitted, vec![TupleKind::Tentative]);
    }

    #[test]
    fn tentative_release_respects_permission() {
        let mut s = SUnion::new(cfg(2));
        let mut out = BatchEmitter::new();
        s.process(0, &data(1, 50), Time::from_millis(100), &mut out);
        // Overdue but the fragment has not checkpointed yet.
        s.tick(Time::from_secs(10), false, &mut out);
        assert!(out.tuples().is_empty());
        s.tick(Time::from_secs(10), true, &mut out);
        assert_eq!(out.tuples().len(), 1);
    }

    #[test]
    fn process_mode_emits_subsequent_buckets_after_short_wait() {
        let mut s = SUnion::new(cfg(2));
        let mut out = BatchEmitter::new();
        s.process(0, &data(1, 50), Time::from_millis(100), &mut out);
        s.tick(Time::from_millis(2100), true, &mut out); // detection
        out.take();
        // Next bucket arrives at t=2200; in Process mode it is released
        // after TENTATIVE_WAIT (300 ms), not after detect_delay.
        s.process(0, &data(2, 2150), Time::from_millis(2200), &mut out);
        assert!(!s.wants_tentative(Time::from_millis(2499)));
        assert!(s.wants_tentative(Time::from_millis(2500)));
        s.tick(Time::from_millis(2500), true, &mut out);
        assert_eq!(out.tuples().len(), 1);
        assert_eq!(out.tuples()[0].kind, TupleKind::Tentative);
    }

    #[test]
    fn delay_mode_holds_each_bucket_for_the_budget() {
        let mut c = cfg(2);
        c.failure_mode = DelayMode::Delay;
        let mut s = SUnion::new(c);
        let mut out = BatchEmitter::new();
        s.process(0, &data(1, 50), Time::from_millis(100), &mut out);
        s.tick(Time::from_millis(2100), true, &mut out); // detection
        out.take();
        s.process(0, &data(2, 2150), Time::from_millis(2200), &mut out);
        s.tick(Time::from_millis(2500), true, &mut out);
        assert!(out.tuples().is_empty(), "delay mode holds the full budget");
        s.tick(Time::from_millis(4200), true, &mut out);
        assert_eq!(out.tuples().len(), 1);
    }

    /// An UNDO empties a held bucket; the stable correction that refills
    /// it leaves at the deadline the tentative data had, not a fresh one.
    #[test]
    fn undo_keeps_the_emptied_buckets_deadline() {
        let mut c = cfg(2);
        c.failure_mode = DelayMode::Delay;
        let mut s = SUnion::new(c);
        let mut out = BatchEmitter::new();
        s.process(0, &data(1, 50), Time::from_millis(100), &mut out);
        s.tick(Time::from_millis(2100), true, &mut out); // detection
        let held = Tuple::tentative(TupleId(2), Time::from_millis(2150), vec![]);
        s.process(0, &held, Time::from_millis(2200), &mut out);
        assert_eq!(s.next_deadline(), Some(Time::from_millis(4200)));
        let undo = Tuple::undo(TupleId::NONE, TupleId::NONE);
        s.process(0, &undo, Time::from_millis(3000), &mut out);
        assert_eq!(s.buffered_tuples(), 0);
        assert_eq!(s.next_deadline(), None, "an empty bucket is never due");
        out.take();
        s.process(0, &data(3, 2150), Time::from_millis(3500), &mut out);
        assert_eq!(s.next_deadline(), Some(Time::from_millis(4200)));
        s.tick(Time::from_millis(4200), true, &mut out);
        assert_eq!(out.tuples().len(), 1, "the correction leaves on time");
    }

    #[test]
    fn suspend_mode_never_releases() {
        let mut c = cfg(2);
        c.failure_mode = DelayMode::Suspend;
        let mut s = SUnion::new(c);
        let mut out = BatchEmitter::new();
        s.process(0, &data(1, 50), Time::from_millis(100), &mut out);
        s.tick(Time::from_millis(2100), true, &mut out); // detection releases 1st
        out.take();
        s.process(0, &data(2, 2150), Time::from_millis(2200), &mut out);
        s.tick(Time::from_secs(100), true, &mut out);
        assert!(out.tuples().is_empty());
        assert_eq!(s.next_deadline(), None);
    }

    #[test]
    fn heal_signals_rec_request() {
        let mut s = SUnion::new(cfg(2));
        let mut out = BatchEmitter::new();
        s.process(0, &data(1, 50), Time::from_millis(100), &mut out);
        s.tick(Time::from_millis(2100), true, &mut out); // detection
        out.take();
        // Failure heals: both ports deliver boundaries covering everything
        // emitted so far.
        s.process(0, &boundary(100), Time::from_millis(2200), &mut out);
        s.process(1, &boundary(100), Time::from_millis(2200), &mut out);
        assert_eq!(s.phase(), Phase::Healed);
        assert!(out.signals().contains(&ControlSignal::RecRequest));
        assert!(s.corrected_now());
    }

    #[test]
    fn tentative_input_triggers_failure_and_requires_rec_done() {
        let mut s = SUnion::new(cfg(1));
        let mut out = BatchEmitter::new();
        let t = Tuple::tentative(TupleId(1), Time::from_millis(10), vec![]);
        s.process(0, &t, Time::from_millis(20), &mut out);
        assert_eq!(s.phase(), Phase::Failure);
        assert_eq!(out.signals(), vec![ControlSignal::UpFailure]);
        // Boundary alone does not heal: the tentative input is uncorrected.
        s.process(0, &boundary(100), Time::from_millis(30), &mut out);
        assert_eq!(s.phase(), Phase::Failure);
        // UNDO + corrections + REC_DONE heal it.
        s.process(
            0,
            &Tuple::undo(TupleId::NONE, TupleId::NONE),
            Time::from_millis(40),
            &mut out,
        );
        s.process(0, &data(1, 10), Time::from_millis(40), &mut out);
        s.process(
            0,
            &Tuple::rec_done(TupleId::NONE, Time::from_millis(40)),
            Time::from_millis(40),
            &mut out,
        );
        assert_eq!(s.phase(), Phase::Healed);
    }

    #[test]
    fn undo_drops_tentative_from_log_and_buckets() {
        let mut s = SUnion::new(cfg(1));
        s.set_recording(true);
        let mut out = BatchEmitter::new();
        let t = Tuple::tentative(TupleId(5), Time::from_millis(10), vec![]);
        s.process(0, &t, Time::from_millis(20), &mut out);
        s.process(0, &data(9, 15), Time::from_millis(21), &mut out);
        assert_eq!(s.replay_log_len(), 2);
        assert_eq!(s.buffered_tuples(), 2);
        s.process(
            0,
            &Tuple::undo(TupleId::NONE, TupleId::NONE),
            Time::from_millis(30),
            &mut out,
        );
        assert_eq!(s.replay_log_len(), 1, "stable entry kept");
        assert_eq!(s.buffered_tuples(), 1);
    }

    #[test]
    fn undo_splits_mixed_batches_by_range() {
        // One arrival batch carries a stable majority and a tentative
        // suffix; the UNDO must strip only the tentative tuples, keeping
        // the surviving stable run as a shared range view (no copies: the
        // survivors dominate the backing allocation).
        let mut s = SUnion::new(cfg(1));
        s.set_recording(true);
        let mut out = BatchEmitter::new();
        let arrivals = TupleBatch::from_vec(vec![
            data(1, 10),
            data(2, 20),
            data(3, 30),
            Tuple::tentative(TupleId(4), Time::from_millis(40), vec![]),
            Tuple::tentative(TupleId(5), Time::from_millis(50), vec![]),
        ]);
        s.process_batch(0, &arrivals, Time::from_millis(60), &mut out);
        assert_eq!(s.buffered_tuples(), 5);
        assert_eq!(s.replay_log_len(), 5);
        s.process(
            0,
            &Tuple::undo(TupleId::NONE, TupleId::NONE),
            Time::from_millis(70),
            &mut out,
        );
        assert_eq!(s.buffered_tuples(), 3);
        assert_eq!(s.replay_log_len(), 3);
        // The surviving log entry still shares the arrival backing.
        let log = s.take_replay_log();
        assert!(log.iter().all(|(_, _, b)| b.shares_backing(&arrivals)));
        // And release (tentative, we are in UP_FAILURE) serializes exactly
        // the survivors.
        s.tick(Time::from_secs(10), true, &mut out);
        let stimes: Vec<u64> = out
            .tuples()
            .iter()
            .filter(|t| t.is_data())
            .map(|t| t.stime.as_millis())
            .collect();
        assert_eq!(stimes, vec![10, 20, 30]);
    }

    #[test]
    fn undo_compacts_sliver_survivors_instead_of_pinning_the_batch() {
        // 1 stable survivor out of 8: keeping a shared view would pin the
        // whole 8-tuple arrival allocation; the UNDO must compact instead.
        let mut s = SUnion::new(cfg(1));
        s.set_recording(true);
        let mut out = BatchEmitter::new();
        let mut v: Vec<Tuple> = (1..8)
            .map(|i| Tuple::tentative(TupleId(i), Time::from_millis(10 + i), vec![]))
            .collect();
        v.insert(3, data(8, 14));
        let arrivals = TupleBatch::from_vec(v);
        s.process_batch(0, &arrivals, Time::from_millis(50), &mut out);
        s.process(
            0,
            &Tuple::undo(TupleId::NONE, TupleId::NONE),
            Time::from_millis(60),
            &mut out,
        );
        assert_eq!(s.buffered_tuples(), 1);
        assert_eq!(s.replay_log_len(), 1);
        let log = s.take_replay_log();
        assert!(
            log.iter().all(|(_, _, b)| !b.shares_backing(&arrivals)),
            "a sliver survivor must be compacted, not pin the arrival batch"
        );
        let kept = s
            .state
            .buckets
            .values()
            .flat_map(|b| b.segs.iter())
            .all(|seg| !seg.batch.shares_backing(&arrivals));
        assert!(kept, "bucket survivors compacted too");
    }

    #[test]
    fn input_stall_outlasting_detection_enters_failure() {
        let mut s = SUnion::new(cfg(2));
        let mut out = BatchEmitter::new();
        s.process(0, &data(1, 50), Time::from_millis(100), &mut out);
        // A short stall is normal queueing: ignored.
        s.note_input_stall(Duration::from_millis(500), &mut out);
        assert_eq!(s.phase(), Phase::Stable);
        assert!(out.signals().is_empty());
        // A stall past the detection delay is an upstream failure: the
        // buffered bucket is re-deadlined under the failure mode and the
        // UP_FAILURE signal is raised.
        s.note_input_stall(Duration::from_secs(3), &mut out);
        assert_eq!(s.phase(), Phase::Failure);
        assert_eq!(out.signals(), vec![ControlSignal::UpFailure]);
        // The bucket now releases after the (Process-mode) tentative wait,
        // not the full detection delay.
        s.tick(Time::from_millis(401), true, &mut out);
        assert_eq!(out.tuples().len(), 1);
        assert_eq!(out.tuples()[0].kind, TupleKind::Tentative);
        // Repeated stall reports while already failed are no-ops.
        s.note_input_stall(Duration::from_secs(9), &mut out);
        assert_eq!(s.phase(), Phase::Failure);
    }

    #[test]
    fn mid_diagram_sunion_merges_rec_done() {
        let mut c = cfg(2);
        c.is_input = false;
        let mut s = SUnion::new(c);
        let mut out = BatchEmitter::new();
        let rd = Tuple::rec_done(TupleId::NONE, Time::ZERO);
        s.process(0, &rd, Time::ZERO, &mut out);
        assert!(out.tuples().is_empty(), "waits for all ports");
        s.process(1, &rd, Time::ZERO, &mut out);
        assert_eq!(out.tuples().len(), 1);
        assert_eq!(out.tuples()[0].kind, TupleKind::RecDone);
    }

    #[test]
    fn checkpoint_restore_resets_serialization_but_keeps_replay_log() {
        let mut s = SUnion::new(cfg(1));
        let mut out = BatchEmitter::new();
        let snap = s.checkpoint();
        s.set_recording(true);
        s.process(0, &data(1, 50), Time::from_millis(60), &mut out);
        s.tick(Time::from_secs(10), true, &mut out); // tentative release
        assert_eq!(s.phase(), Phase::Failure);
        s.restore(&snap);
        assert_eq!(s.phase(), Phase::Stable);
        assert_eq!(s.buffered_tuples(), 0);
        assert_eq!(s.replay_log_len(), 1, "replay log survives restore");
    }

    #[test]
    fn replay_regenerates_identical_stable_output() {
        let run = |mut s: SUnion| {
            let mut out = BatchEmitter::new();
            s.process(0, &data(1, 10), Time::from_millis(20), &mut out);
            s.process(0, &data(2, 60), Time::from_millis(70), &mut out);
            s.process(0, &boundary(100), Time::from_millis(110), &mut out);
            out.tuples()
        };
        let first = run(SUnion::new(cfg(1)));
        // Restore-from-checkpoint then replay produces identical ids/kinds.
        let mut s = SUnion::new(cfg(1));
        let snap = s.checkpoint();
        s.restore(&snap);
        let second = run(s);
        assert_eq!(first, second);
    }

    #[test]
    fn cow_checkpoint_is_isolated_from_later_mutation() {
        // The snapshot is a shared capture: processing more data after the
        // checkpoint must copy-on-write the live state, never the capture —
        // and the capture stays restorable multiple times (Fig. 11(b)).
        let mut s = SUnion::new(cfg(1));
        let mut out = BatchEmitter::new();
        s.process(0, &data(1, 50), Time::from_millis(60), &mut out);
        let snap = s.checkpoint();
        s.process(0, &data(2, 70), Time::from_millis(80), &mut out);
        s.process(0, &data(3, 150), Time::from_millis(160), &mut out);
        assert_eq!(s.buffered_tuples(), 3);
        s.restore(&snap);
        assert_eq!(s.buffered_tuples(), 1, "capture predates the mutations");
        s.process(0, &data(2, 70), Time::from_millis(80), &mut out);
        s.restore(&snap);
        assert_eq!(s.buffered_tuples(), 1, "capture restorable repeatedly");
    }

    #[test]
    fn in_order_buckets_skip_the_stabilization_sort() {
        // White-box: a bucket fed in canonical order keeps sorted=true; one
        // fed out of order flips it. Both must emit correctly either way.
        let mut s = SUnion::new(cfg(1));
        let mut out = BatchEmitter::new();
        s.process_batch(
            0,
            &TupleBatch::from_vec(vec![data(1, 10), data(2, 20), data(3, 30)]),
            Time::from_millis(1),
            &mut out,
        );
        assert!(s.state.buckets.values().all(|b| b.sorted));
        s.process(0, &data(4, 15), Time::from_millis(2), &mut out);
        assert!(!s.state.buckets.values().all(|b| b.sorted));
        s.process(0, &boundary(100), Time::from_millis(3), &mut out);
        let stimes: Vec<u64> = out
            .tuples()
            .iter()
            .filter(|t| t.is_data())
            .map(|t| t.stime.as_millis())
            .collect();
        assert_eq!(stimes, vec![10, 15, 20, 30]);
    }

    #[test]
    fn buffered_runs_share_the_arrival_backing() {
        let mut s = SUnion::new(cfg(1));
        let mut out = BatchEmitter::new();
        let arrivals = TupleBatch::from_vec(vec![data(1, 10), data(2, 20), data(3, 120)]);
        s.process_batch(0, &arrivals, Time::from_millis(1), &mut out);
        assert_eq!(s.buffered_tuples(), 3);
        let all_shared = s
            .state
            .buckets
            .values()
            .all(|b| b.segs.iter().all(|seg| seg.batch.shares_backing(&arrivals)));
        assert!(all_shared, "ingestion must buffer views, not copies");
    }

    #[test]
    fn late_tuple_for_emitted_bucket_is_dropped() {
        let mut s = SUnion::new(cfg(1));
        let mut out = BatchEmitter::new();
        s.process(0, &data(1, 50), Time::from_millis(60), &mut out);
        s.process(0, &boundary(100), Time::from_millis(110), &mut out);
        let n = out.tuples().len();
        // stime 30 belongs to the already-emitted bucket 0.
        s.process(0, &data(2, 30), Time::from_millis(120), &mut out);
        s.process(0, &boundary(200), Time::from_millis(210), &mut out);
        let data_after: Vec<u64> = out.tuples()[n..]
            .iter()
            .filter(|t| t.is_data())
            .map(|t| t.stime.as_millis())
            .collect();
        assert!(data_after.is_empty(), "late tuple dropped: {data_after:?}");
    }

    #[test]
    fn empty_buckets_advance_frontier_with_boundaries_only() {
        let mut s = SUnion::new(cfg(1));
        let mut out = BatchEmitter::new();
        s.process(0, &boundary(500), Time::from_millis(510), &mut out);
        assert_eq!(out.tuples().len(), 1);
        assert_eq!(out.tuples()[0].kind, TupleKind::Boundary);
        assert_eq!(out.tuples()[0].stime, Time::from_millis(500));
    }
}
