//! The DPC processing node: fragment execution + Data Path + Consistency
//! Manager (§3, Fig. 4(b)).
//!
//! Each node actor runs one replica of one query-diagram fragment and
//! implements, around it:
//!
//! * the **Data Path**: per-output-stream emission logs with
//!   subscription/replay (Fig. 8) and ack-driven truncation (§8.1), and
//!   per-input-stream upstream managers;
//! * the **Consistency Manager**: the node state machine (Fig. 5),
//!   keep-alive monitoring of upstream replicas with the Table II switching
//!   rules, per-stream state advertisement (§8.2), and the inter-replica
//!   stagger protocol that keeps one replica live while the other
//!   stabilizes (§4.4.3, Fig. 9);
//! * a **CPU cost model**: each processed tuple charges a configurable
//!   service time; outputs leave the node when the work completes. This is
//!   what makes reconciliation of a long failure take proportionally long
//!   (the effect behind the paper's §6.1 trade-off study) and creates the
//!   queueing delays §6.3 subtracts from the delay budget.

use crate::buffers::{BufferPolicy, OutputBuffer};
use crate::durable::{DurabilityConfig, NodeDisk};
use crate::msg::{NetMsg, NodeState};
use crate::runtime::{DpcActor, RuntimeCtx};
use crate::upstream::{UpstreamAction, UpstreamManager};
use borealis_diagram::FragmentPlan;
use borealis_engine::{Batch, Fragment};
use borealis_sim::FaultEvent;
use borealis_types::{BatchView, Duration, NodeId, StreamId, Time, Tuple, TupleBatch, TupleId};
use std::collections::HashMap;

/// Upstream binding of one input stream.
#[derive(Debug, Clone)]
pub struct UpstreamSpec {
    /// The input stream.
    pub stream: StreamId,
    /// Nodes able to produce it (a source, or the replicas of the upstream
    /// fragment).
    pub candidates: Vec<NodeId>,
    /// Whether to monitor and switch between candidates.
    pub monitor: bool,
}

/// Performance/protocol tuning knobs shared by all nodes of a deployment.
#[derive(Debug, Clone)]
pub struct NodeTuning {
    /// CPU service time per processed data tuple.
    pub per_tuple_cost: Duration,
    /// Keep-alive period (100 ms in the paper's §5.1).
    pub heartbeat_period: Duration,
    /// Silence after which an upstream replica is considered Failed.
    pub stale_timeout: Duration,
    /// Cumulative-ack period for buffer truncation.
    pub ack_period: Duration,
    /// Output buffer policy (§8.1).
    pub buffer_policy: BufferPolicy,
    /// Tuples per Data message when draining large output windows.
    pub dispatch_chunk: usize,
    /// How long a stabilization grant to a replica remains binding.
    pub grant_timeout: Duration,
    /// Wait before retrying a rejected stabilization request.
    pub retry_wait: Duration,
}

impl Default for NodeTuning {
    fn default() -> Self {
        NodeTuning {
            per_tuple_cost: Duration::from_micros(60),
            heartbeat_period: Duration::from_millis(100),
            stale_timeout: Duration::from_millis(250),
            ack_period: Duration::from_secs(1),
            buffer_policy: BufferPolicy::Unbounded,
            dispatch_chunk: 500,
            grant_timeout: Duration::from_secs(120),
            retry_wait: Duration::from_millis(100),
        }
    }
}

/// Full configuration of one node replica.
pub struct NodeConfig {
    /// The fragment this node executes.
    pub plan: FragmentPlan,
    /// The other replicas of the same fragment.
    pub replicas: Vec<NodeId>,
    /// Input stream bindings.
    pub upstreams: Vec<UpstreamSpec>,
    /// Expected number of downstream consumers per output stream (replicas
    /// of consuming fragments plus clients) — required for safe truncation.
    pub downstream_counts: Vec<(StreamId, usize)>,
    /// Tuning knobs.
    pub tuning: NodeTuning,
    /// Durable checkpoints + input log (None: volatile node, crash
    /// recovery rebuilds from an empty state as in §4.5).
    pub durability: Option<DurabilityConfig>,
}

const TIMER_TICK: u64 = 1;
const TIMER_HEARTBEAT: u64 = 2;
const TIMER_ACK: u64 = 3;
const TIMER_RETRY: u64 = 4;
const TIMER_STAB_DONE: u64 = 5;
const TIMER_GRANT_TIMEOUT: u64 = 6;
const TIMER_RECOVERY_DONE: u64 = 7;
const TIMER_CHECKPOINT: u64 = 8;

/// The processing-node actor.
pub struct ProcessingNode {
    cfg: NodeConfig,
    fragment: Fragment,
    ums: Vec<UpstreamManager>,
    out: HashMap<StreamId, OutputBuffer>,
    /// Per-output-stream subscriber positions into the emission log.
    subscribers: HashMap<StreamId, HashMap<NodeId, usize>>,
    /// Per-output-stream cumulative acks.
    acks: HashMap<StreamId, HashMap<NodeId, TupleId>>,
    busy_until: Time,
    state: NodeState,
    /// Outstanding stabilization request target.
    pending_request: Option<NodeId>,
    /// Replicas we promised to stay available for, with grant times.
    granted_to: Vec<(NodeId, Time)>,
    /// Who authorized our current stabilization.
    authorized_by: Option<NodeId>,
    /// End of the current stabilization's busy window.
    stab_done_at: Option<Time>,
    scheduled_tick: Option<Time>,
    /// True while rebuilding after a crash (§4.5): no requests answered.
    recovering: bool,
    /// Open durable store, when configured.
    disk: Option<NodeDisk>,
}

impl ProcessingNode {
    /// Creates the node from its configuration.
    pub fn new(cfg: NodeConfig) -> ProcessingNode {
        let fragment = Fragment::from_plan(&cfg.plan);
        let out = fragment
            .output_streams()
            .into_iter()
            .map(|s| (s, OutputBuffer::new(cfg.tuning.buffer_policy)))
            .collect();
        ProcessingNode {
            cfg,
            fragment,
            ums: Vec::new(),
            out,
            subscribers: HashMap::new(),
            acks: HashMap::new(),
            busy_until: Time::ZERO,
            state: NodeState::Stable,
            pending_request: None,
            granted_to: Vec::new(),
            authorized_by: None,
            stab_done_at: None,
            scheduled_tick: None,
            recovering: false,
            disk: None,
        }
    }

    /// Current node state (tests/diagnostics).
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// Fragment access (tests/diagnostics).
    pub fn fragment(&self) -> &Fragment {
        &self.fragment
    }

    fn apply_actions(
        &mut self,
        ctx: &mut dyn RuntimeCtx<NetMsg>,
        stream: StreamId,
        actions: Vec<UpstreamAction>,
    ) {
        for a in actions {
            match a {
                UpstreamAction::Subscribe {
                    to,
                    last_stable,
                    saw_tentative,
                    fresh_only,
                } => {
                    ctx.send(
                        to,
                        NetMsg::Subscribe {
                            stream,
                            last_stable,
                            saw_tentative,
                            fresh_only,
                        },
                    );
                }
                UpstreamAction::Unsubscribe { from } => {
                    ctx.send(from, NetMsg::Unsubscribe { stream });
                }
            }
        }
    }

    /// Charges CPU time for a batch and retains its output batches by
    /// shared view, then dispatches across the busy window.
    fn handle_batch(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, batch: Batch, event_time: Time) {
        let start = self.busy_until.max(event_time);
        let cost = Duration::from_micros(
            self.cfg
                .tuning
                .per_tuple_cost
                .as_micros()
                .saturating_mul(batch.work),
        );
        self.busy_until = start + cost;
        for (stream, tuples) in batch.outputs {
            if let Some(buf) = self.out.get_mut(&stream) {
                buf.append_batch(tuples);
            }
        }
        self.flush_subscribers(ctx, start, self.busy_until);
    }

    /// Sends every subscriber its pending emission-log suffix, spreading
    /// departures across `[w_start, w_end]` (outputs stream out as the CPU
    /// produces them, rather than in one burst at the end).
    ///
    /// The suffix is taken as shared batch views and re-chunked by range
    /// split, so N subscribers behind the same position cost N
    /// reference-count bumps per batch — fan-out is independent of
    /// replication degree.
    fn flush_subscribers(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, w_start: Time, w_end: Time) {
        let chunk = self.cfg.tuning.dispatch_chunk.max(1);
        for (&stream, subs) in &mut self.subscribers {
            let Some(buf) = self.out.get(&stream) else {
                continue;
            };
            let end = buf.end();
            for (&sub, pos) in subs.iter_mut() {
                if *pos >= end {
                    continue;
                }
                let pieces: Vec<_> = buf
                    .batches_from(*pos)
                    .iter()
                    .flat_map(|b| b.chunks_shared(chunk))
                    .collect();
                *pos = end;
                let n_chunks = pieces.len();
                let window = w_end.since(w_start);
                for (j, piece) in pieces.into_iter().enumerate() {
                    let frac = (j + 1) as u64;
                    let depart = w_start
                        + Duration::from_micros(window.as_micros() * frac / n_chunks.max(1) as u64);
                    ctx.send_after(
                        sub,
                        NetMsg::Data {
                            stream,
                            tuples: piece.into(),
                        },
                        depart,
                    );
                }
            }
        }
    }

    fn refresh_state(&mut self) {
        if self.state != NodeState::Stabilization {
            let input_dead = self.ums.iter().any(|u| !u.has_live_producer());
            self.state = if self.fragment.is_tainted() || input_dead {
                NodeState::UpFailure
            } else {
                NodeState::Stable
            };
        }
    }

    fn post_event(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
        self.refresh_state();
        if let Some(d) = self.fragment.next_deadline() {
            let at = d.max(ctx.now());
            if self.scheduled_tick != Some(at) {
                self.scheduled_tick = Some(at);
                ctx.set_timer(at, TIMER_TICK);
            }
        }
        self.check_reconcile(ctx);
    }

    /// The stagger protocol's requesting side (Fig. 9).
    fn check_reconcile(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
        if self.state == NodeState::Stabilization
            || self.pending_request.is_some()
            || !self.granted_to.is_empty()
            || !self.fragment.can_reconcile()
        {
            return;
        }
        let reachable: Vec<NodeId> = self
            .cfg
            .replicas
            .iter()
            .copied()
            .filter(|&r| ctx.reachable(r))
            .collect();
        if reachable.is_empty() {
            // No partner can cover for us (or we are unreplicated, as in
            // the paper's Fig. 11 single-node runs): reconcile directly.
            self.do_reconcile(ctx);
            return;
        }
        let target = reachable[ctx.rand_range(reachable.len() as u64) as usize];
        self.pending_request = Some(target);
        ctx.send(target, NetMsg::ReconcileRequest);
        ctx.set_timer(
            ctx.now() + self.cfg.tuning.retry_wait.saturating_mul(5),
            TIMER_RETRY,
        );
    }

    fn do_reconcile(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
        let now = ctx.now();
        self.state = NodeState::Stabilization;
        let batch = self.fragment.reconcile(now);
        self.handle_batch(ctx, batch, now);
        self.stab_done_at = Some(self.busy_until.max(now));
        ctx.set_timer(self.busy_until.max(now), TIMER_STAB_DONE);
    }

    fn stream_states(&self) -> Vec<(StreamId, NodeState)> {
        // With an input stream whose every producer is unreachable, all
        // outputs are suspect (coarse §8.2 fallback: we do not track which
        // branch each input feeds).
        let input_dead = self.ums.iter().any(|u| !u.has_live_producer());
        self.fragment
            .output_health()
            .into_iter()
            .map(|(s, tentative)| {
                let st = if self.state == NodeState::Stabilization {
                    NodeState::Stabilization
                } else if tentative || input_dead {
                    NodeState::UpFailure
                } else {
                    NodeState::Stable
                };
                (s, st)
            })
            .collect()
    }
}

impl ProcessingNode {
    /// Opens the durable store and, when it holds a snapshot, performs
    /// the crash→restart→catch-up sequence: restore the operator states,
    /// replay the logged input suffix through the fragment (charging the
    /// modeled CPU — catching up takes real time), and seed the upstream
    /// managers so their first `Subscribe` resumes where the disk image
    /// ends. A cold or unreadable store degrades to the volatile §4.5
    /// empty-state start.
    fn recover_from_disk(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, dcfg: &DurabilityConfig) {
        self.disk = None; // close a previous incarnation's handles first
        let wall_start = std::time::Instant::now();
        let mut disk = match NodeDisk::open(dcfg) {
            Ok(d) => d,
            Err(_) => return, // disk unavailable: run without durability
        };
        let image = match disk.recover() {
            Ok(Some(image)) => image,
            Ok(None) | Err(_) => {
                self.disk = Some(disk);
                return;
            }
        };
        if self.fragment.restore_durable(&image.ops_bytes).is_err() {
            // Undecodable operator region (e.g. plan changed across the
            // restart): fall back to the empty-state rebuild.
            self.disk = Some(disk);
            return;
        }
        let now = ctx.now();
        for &(stream, last_stable, saw_tentative) in &image.positions {
            if let Some(um) = self.ums.iter_mut().find(|u| u.stream() == stream) {
                um.seed_recovered(last_stable, saw_tentative);
            }
        }
        let n_replay = image.replay.len();
        for (stream, tuples) in image.replay {
            if let Some(um) = self.ums.iter_mut().find(|u| u.stream() == stream) {
                for t in tuples.as_slice() {
                    um.observe_replay(t);
                }
            }
            let batch = self.fragment.push_batch(stream, &tuples, now);
            self.handle_batch(ctx, batch, now);
        }
        let recover_us = wall_start.elapsed().as_micros() as u64;
        disk.write_recovery_marker(image.snapshot_id, recover_us, n_replay);
        self.disk = Some(disk);
        self.recovering = true;
        ctx.set_timer(self.busy_until.max(now), TIMER_RECOVERY_DONE);
    }
}

/// The protocol body, written once against [`RuntimeCtx`]: the identical
/// logic runs under the simulator, the worker pool and the TCP deployment.
impl DpcActor<NetMsg> for ProcessingNode {
    /// Startup: recover from disk if a durable store exists, then
    /// subscribe to upstreams and arm the periodic timers. The disk
    /// recovery runs *before* the first `Subscribe`, so the subscription
    /// carries the recovered stable positions — the upstream replays only
    /// the suffix the disk image does not cover.
    fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
        let now = ctx.now();
        let specs = self.cfg.upstreams.clone();
        for spec in specs {
            self.ums.push(UpstreamManager::new(
                spec.stream,
                spec.candidates,
                spec.monitor,
                now,
            ));
        }
        if let Some(dcfg) = self.cfg.durability.clone() {
            self.recover_from_disk(ctx, &dcfg);
            ctx.set_timer(now + dcfg.interval, TIMER_CHECKPOINT);
        }
        for i in 0..self.ums.len() {
            let actions = self.ums[i].initial_subscribe();
            let stream = self.ums[i].stream();
            self.apply_actions(ctx, stream, actions);
        }
        ctx.set_timer(now + self.cfg.tuning.heartbeat_period, TIMER_HEARTBEAT);
        ctx.set_timer(now + self.cfg.tuning.ack_period, TIMER_ACK);
    }

    /// Handles one protocol message.
    fn on_message(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, from: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Data { stream, tuples } => {
                let now = ctx.now();
                let Some(i) = self.ums.iter().position(|u| u.stream() == stream) else {
                    return;
                };
                if !self.ums[i].accepts_from(from) {
                    return; // stale sender (already unsubscribed)
                }
                let mut actions = Vec::new();
                // Duplicate detection (retransmissions after a link heal)
                // interleaves with prefix bookkeeping, as tuple-at-a-time
                // processing would.
                let mut dup_idx: Vec<usize> = Vec::new();
                for (k, t) in tuples.iter().enumerate() {
                    if self.ums[i].is_duplicate(t) {
                        dup_idx.push(k);
                        continue;
                    }
                    actions.extend(self.ums[i].observe_tuple(from, t));
                }
                let batch = if dup_idx.is_empty() {
                    // Common case: the received view enters the fragment
                    // run by run as shared slices, no tuple copies.
                    if let Some(disk) = self.disk.as_mut() {
                        disk.append_input(stream, &tuples);
                    }
                    self.fragment.push_view(stream, &tuples, now)
                } else {
                    let mut fresh: Vec<Tuple> = Vec::with_capacity(tuples.len() - dup_idx.len());
                    let mut d = 0;
                    for (k, t) in tuples.iter().enumerate() {
                        if d < dup_idx.len() && dup_idx[d] == k {
                            d += 1;
                            continue;
                        }
                        fresh.push(t.clone());
                    }
                    let fresh: BatchView = TupleBatch::from_vec(fresh).into();
                    // Only deduplicated input reaches the log, so a replay
                    // feeds the fragment the exact accepted stream.
                    if let Some(disk) = self.disk.as_mut() {
                        disk.append_input(stream, &fresh);
                    }
                    self.fragment.push_view(stream, &fresh, now)
                };
                self.handle_batch(ctx, batch, now);
                // Credit accounting: this delivery is consumed when the
                // modeled CPU has processed it — a saturated node returns
                // credits late, which is what makes its upstream links
                // stall instead of flooding its mailbox.
                ctx.data_consumed_at(self.busy_until);
                self.apply_actions(ctx, stream, actions);
                self.post_event(ctx);
            }
            NetMsg::Subscribe {
                stream,
                last_stable,
                saw_tentative,
                fresh_only,
            } => {
                if self.recovering {
                    return;
                }
                let Some(buf) = self.out.get_mut(&stream) else {
                    return;
                };
                let pos = if fresh_only {
                    buf.end()
                } else {
                    buf.position_after_stable(last_stable)
                };
                if saw_tentative && !fresh_only {
                    ctx.send(
                        from,
                        NetMsg::Data {
                            stream,
                            tuples: TupleBatch::single(Tuple::undo(TupleId::NONE, last_stable))
                                .into(),
                        },
                    );
                }
                self.subscribers
                    .entry(stream)
                    .or_default()
                    .insert(from, pos);
                let start = self.busy_until.max(ctx.now());
                self.flush_subscribers(ctx, start, start);
            }
            NetMsg::Unsubscribe { stream } => {
                if let Some(subs) = self.subscribers.get_mut(&stream) {
                    subs.remove(&from);
                }
            }
            NetMsg::Ack { stream, through } => {
                let acks = self.acks.entry(stream).or_default();
                let e = acks.entry(from).or_insert(TupleId::NONE);
                *e = (*e).max(through);
                let expected = self
                    .cfg
                    .downstream_counts
                    .iter()
                    .find(|(s, _)| *s == stream)
                    .map(|(_, n)| *n)
                    .unwrap_or(usize::MAX);
                if acks.len() >= expected {
                    let min = acks.values().copied().min().unwrap_or(TupleId::NONE);
                    if let Some(buf) = self.out.get_mut(&stream) {
                        buf.truncate_through(min);
                    }
                }
            }
            NetMsg::HeartbeatReq => {
                if self.recovering {
                    return; // §4.5: no replies until consistent again
                }
                let resp = NetMsg::HeartbeatResp {
                    node_state: self.state,
                    stream_states: self.stream_states(),
                };
                ctx.send(from, resp);
            }
            NetMsg::HeartbeatResp {
                node_state,
                stream_states,
            } => {
                let now = ctx.now();
                let stale = self.cfg.tuning.stale_timeout;
                for i in 0..self.ums.len() {
                    self.ums[i].heartbeat_response(from, node_state, &stream_states, now);
                    let actions = self.ums[i].evaluate(now, stale);
                    let stream = self.ums[i].stream();
                    self.apply_actions(ctx, stream, actions);
                }
            }
            NetMsg::ReconcileRequest => {
                let must_reject = self.state == NodeState::Stabilization
                    || self.recovering
                    || (self.fragment.can_reconcile() && ctx.id() < from);
                if must_reject {
                    ctx.send(from, NetMsg::ReconcileReject);
                } else {
                    self.granted_to.push((from, ctx.now()));
                    ctx.set_timer(
                        ctx.now() + self.cfg.tuning.grant_timeout,
                        TIMER_GRANT_TIMEOUT,
                    );
                    ctx.send(from, NetMsg::ReconcileGrant);
                }
            }
            NetMsg::ReconcileGrant => {
                if self.pending_request == Some(from) {
                    self.pending_request = None;
                    if self.state != NodeState::Stabilization
                        && self.granted_to.is_empty()
                        && self.fragment.can_reconcile()
                    {
                        self.authorized_by = Some(from);
                        self.do_reconcile(ctx);
                    }
                }
            }
            NetMsg::ReconcileReject => {
                if self.pending_request == Some(from) {
                    self.pending_request = None;
                    ctx.set_timer(ctx.now() + self.cfg.tuning.retry_wait, TIMER_RETRY);
                }
            }
            NetMsg::ReconcileDone => {
                self.granted_to.retain(|(n, _)| *n != from);
                self.check_reconcile(ctx);
            }
        }
    }

    /// Handles one timer callback.
    fn on_timer(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, kind: u64) {
        let now = ctx.now();
        match kind {
            TIMER_TICK => {
                self.scheduled_tick = None;
                let batch = self.fragment.tick(now);
                self.handle_batch(ctx, batch, now);
                self.post_event(ctx);
            }
            TIMER_HEARTBEAT => {
                let stale = self.cfg.tuning.stale_timeout;
                for i in 0..self.ums.len() {
                    let actions = self.ums[i].evaluate(now, stale);
                    let stream = self.ums[i].stream();
                    self.apply_actions(ctx, stream, actions);
                    for target in self.ums[i].heartbeat_targets() {
                        ctx.send(target, NetMsg::HeartbeatReq);
                    }
                }
                // A stabilization grant held for a peer that is no longer
                // reachable (crashed or partitioned away) staggers nothing
                // — the partner cannot be mid-stabilization relying on us
                // if it cannot even talk to us. Drop such grants so this
                // replica stays free to reconcile its own state; the
                // grant_timeout remains the backstop for in-flight races.
                let before = self.granted_to.len();
                self.granted_to.retain(|(n, _)| ctx.reachable(*n));
                if self.granted_to.len() < before {
                    self.check_reconcile(ctx);
                }
                // Credit-stall surfacing: when the active producer of an
                // input stream has its sends queued awaiting credit, report
                // the stall to that stream's input SUnions. A stall that
                // outlasts the detection delay becomes an explicit
                // UP_FAILURE — overload turns into delayed buckets under
                // the DelayMode budget, not silent unbounded buffering.
                for i in 0..self.ums.len() {
                    let from = self.ums[i].current();
                    let stalled = ctx.inbound_stall(from);
                    if stalled > Duration::ZERO {
                        let stream = self.ums[i].stream();
                        let batch = self.fragment.note_input_stall(stream, stalled, now);
                        self.handle_batch(ctx, batch, now);
                        self.post_event(ctx);
                    }
                }
                self.refresh_state();
                ctx.set_timer(now + self.cfg.tuning.heartbeat_period, TIMER_HEARTBEAT);
            }
            TIMER_ACK => {
                for um in &self.ums {
                    let through = um.last_stable();
                    for &cand in um.candidates() {
                        ctx.send(
                            cand,
                            NetMsg::Ack {
                                stream: um.stream(),
                                through,
                            },
                        );
                    }
                }
                ctx.set_timer(now + self.cfg.tuning.ack_period, TIMER_ACK);
            }
            TIMER_RETRY => {
                self.pending_request = None;
                self.check_reconcile(ctx);
            }
            TIMER_STAB_DONE => {
                if self.stab_done_at.is_none() {
                    return; // stale timer from a superseded stabilization
                }
                if now < self.busy_until {
                    // Fresh input extended the queue past the original
                    // estimate: stabilization ends only when the node
                    // "catches up with normal execution" (§4.4.2).
                    self.stab_done_at = Some(self.busy_until);
                    ctx.set_timer(self.busy_until, TIMER_STAB_DONE);
                    return;
                }
                self.stab_done_at = None;
                // Caught up: emit REC_DONE (and any final UNDO) on every
                // output stream, then leave STABILIZATION.
                let batch = self.fragment.finish_reconciliation(now);
                self.handle_batch(ctx, batch, now);
                self.state = if self.fragment.is_tainted() {
                    NodeState::UpFailure
                } else {
                    NodeState::Stable
                };
                if let Some(partner) = self.authorized_by.take() {
                    ctx.send(partner, NetMsg::ReconcileDone);
                }
                self.post_event(ctx);
            }
            TIMER_CHECKPOINT => {
                if let Some(disk) = self.disk.as_mut() {
                    // Only an untainted fragment yields a durable image
                    // (checkpoint-before-tentative, §4.4.1: tentative eras
                    // are recovered via upstream replay, not from disk).
                    if let Some(parts) = self.fragment.capture_durable() {
                        let positions: Vec<(StreamId, TupleId, bool)> = self
                            .ums
                            .iter()
                            .map(|u| (u.stream(), u.last_stable(), u.saw_tentative()))
                            .collect();
                        disk.checkpoint(parts, &positions);
                    }
                    let interval = self
                        .cfg
                        .durability
                        .as_ref()
                        .map(|d| d.interval)
                        .unwrap_or(Duration::from_millis(250));
                    ctx.set_timer(now + interval, TIMER_CHECKPOINT);
                }
            }
            TIMER_GRANT_TIMEOUT => {
                let timeout = self.cfg.tuning.grant_timeout;
                self.granted_to.retain(|(_, t)| now.since(*t) < timeout);
                self.check_reconcile(ctx);
            }
            TIMER_RECOVERY_DONE => {
                if now >= self.busy_until {
                    self.recovering = false;
                    self.post_event(ctx);
                } else {
                    // Still draining the recovery backlog: check again when
                    // the CPU catches up.
                    ctx.set_timer(self.busy_until, TIMER_RECOVERY_DONE);
                }
            }
            _ => {}
        }
    }

    /// Reacts to a fault notification (link heals, own crash/restart).
    fn on_fault(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, fault: &FaultEvent) {
        match fault {
            FaultEvent::LinkUp { a, b } => {
                // In-flight output tuples may have been lost: rewind healed
                // subscribers to their acknowledged positions and resend
                // (consumers deduplicate the overlap).
                let peer = if *a == ctx.id() { *b } else { *a };
                for (&stream, subs) in &mut self.subscribers {
                    let Some(pos) = subs.get_mut(&peer) else {
                        continue;
                    };
                    let acked = self
                        .acks
                        .get(&stream)
                        .and_then(|m| m.get(&peer))
                        .copied()
                        .unwrap_or(TupleId::NONE);
                    if let Some(buf) = self.out.get_mut(&stream) {
                        *pos = (*pos).min(buf.position_after_stable(acked));
                    }
                }
                let start = self.busy_until.max(ctx.now());
                self.flush_subscribers(ctx, start, start);
            }
            FaultEvent::NodeUp(n) if *n == ctx.id() => {
                // Crash recovery: restart from an empty state (§4.5) —
                // unless a durable store is configured, in which case
                // `start` reloads the newest snapshot and replays the
                // logged input suffix before resubscribing.
                self.fragment = Fragment::from_plan(&self.cfg.plan);
                self.out = self
                    .fragment
                    .output_streams()
                    .into_iter()
                    .map(|s| (s, OutputBuffer::new(self.cfg.tuning.buffer_policy)))
                    .collect();
                self.subscribers.clear();
                self.acks.clear();
                self.ums.clear();
                self.busy_until = ctx.now();
                self.state = NodeState::Stable;
                self.pending_request = None;
                self.granted_to.clear();
                self.authorized_by = None;
                self.recovering = true;
                self.on_start(ctx);
                ctx.set_timer(ctx.now() + Duration::from_millis(500), TIMER_RECOVERY_DONE);
            }
            FaultEvent::NodeDown(n) if *n != ctx.id() => {
                // The transport saw the connection to `n`'s process torn (a
                // crash, not a scripted fault — those only notify the
                // victim). Everything `n` knew about us died with it:
                // upstream subscriptions we held there are gone even if it
                // restarts before a keep-alive goes stale, and a
                // subscription *it* held here will be re-requested from
                // scratch once it recovers.
                let now = ctx.now();
                for um in &mut self.ums {
                    um.connection_lost(*n, now);
                }
                for subs in self.subscribers.values_mut() {
                    subs.remove(n);
                }
                for acks in self.acks.values_mut() {
                    acks.remove(n);
                }
            }
            _ => {}
        }
    }
}
