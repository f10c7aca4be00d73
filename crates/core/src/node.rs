//! The DPC processing node: fragment execution + Data Path + Consistency
//! Manager (§3, Fig. 4(b)).
//!
//! Each node actor runs one replica of one query-diagram fragment between
//! the two halves of the Data Path, each written once and shared:
//!
//! * the **consumer half** ([`Inputs`], also the client proxy's): per input
//!   stream, subscription with exact resume positions, duplicate filtering,
//!   keep-alive monitoring with the Table II switching rules, acks;
//! * the **producer half** ([`Publisher`], also the data source's): per
//!   output stream, the emission log with subscription/replay (Fig. 8),
//!   ack-driven truncation (§8.1), and the paced departure of outputs.
//!
//! The node's own are the **Consistency Manager** — the state machine
//! (Fig. 5), per-stream state advertisement (§8.2), and the inter-replica
//! stagger protocol that keeps one replica live while the other stabilizes
//! (§4.4.3, Fig. 9) — and the **CPU cost model**: each processed tuple
//! charges a configurable service time and outputs leave as the work
//! completes, which makes reconciliation of a long failure take
//! proportionally long (§6.1) and creates the queueing delays §6.3
//! subtracts from the delay budget. The node only computes the busy
//! window; *when* a message leaves is the publisher's state, and it leaves
//! through the runtime's single send verb from one of this actor's handlers.

use crate::buffers::BufferPolicy;
use crate::durable::{DurabilityConfig, NodeDisk};
use crate::msg::{NetMsg, NodeState};
use crate::publisher::Publisher;
use crate::runtime::{DpcActor, RuntimeCtx};
use crate::upstream::{stale_after, Inputs, UpstreamSpec, ACK_PERIOD};
use borealis_diagram::FragmentPlan;
use borealis_engine::{Batch, Fragment};
use borealis_sim::FaultEvent;
use borealis_types::{Duration, NodeId, StreamId, Time, TupleId};

/// The two tuning knobs of a deployment.
#[derive(Debug, Clone)]
pub struct NodeTuning {
    /// CPU service time per processed data tuple (a fragment's
    /// `work_cost` takes precedence for its replicas).
    pub per_tuple_cost: Duration,
    /// Keep-alive period of every node and of the client proxy (100 ms in
    /// the paper's §5.1); a peer silent for 2.5 periods is considered
    /// Failed.
    pub heartbeat_period: Duration,
}

impl Default for NodeTuning {
    fn default() -> Self {
        NodeTuning {
            per_tuple_cost: Duration::from_micros(60),
            heartbeat_period: Duration::from_millis(100),
        }
    }
}

/// Tuples per `Data` message when draining large output windows.
const DISPATCH_CHUNK: usize = 500;
/// How long a stabilization grant to a replica remains binding.
const GRANT_TIMEOUT: Duration = Duration::from_secs(120);
/// Wait before retrying a rejected stabilization request; an unanswered
/// one is abandoned after five times as long.
const RETRY_WAIT: Duration = Duration::from_millis(100);

/// Full configuration of one node replica.
#[derive(Clone)]
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
    /// Output buffer policy (§8.1; `FragmentSpec::buffer`).
    pub buffer: BufferPolicy,
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
    /// The consumer half: one upstream manager per input stream.
    inputs: Inputs,
    /// The producer half: emission logs, subscribers, paced departures.
    out: Publisher,
    busy_until: Time,
    state: NodeState,
    /// Outstanding stabilization request target.
    pending_request: Option<NodeId>,
    /// Replicas we promised to stay available for, with grant times.
    granted_to: Vec<(NodeId, Time)>,
    /// Who authorized our current stabilization.
    authorized_by: Option<NodeId>,
    scheduled_tick: Option<Time>,
    /// Set while rebuilding after a crash (§4.5), when no request is
    /// answered: the silence lasts until this instant and until the
    /// recovery replay is done (`busy_until`), whichever is later.
    recovering_until: Option<Time>,
    /// Open durable store, when configured.
    disk: Option<NodeDisk>,
}

impl ProcessingNode {
    /// Creates the node from its configuration.
    pub fn new(cfg: NodeConfig) -> ProcessingNode {
        let fragment = Fragment::from_plan(&cfg.plan);
        let out = Self::publisher(&cfg, &fragment);
        ProcessingNode {
            cfg,
            fragment,
            inputs: Inputs::default(),
            out,
            busy_until: Time::ZERO,
            state: NodeState::Stable,
            pending_request: None,
            granted_to: Vec::new(),
            authorized_by: None,
            scheduled_tick: None,
            recovering_until: None,
            disk: None,
        }
    }

    /// An empty producer half for `fragment`'s output streams. A stream
    /// with no configured consumer count is never truncated.
    fn publisher(cfg: &NodeConfig, fragment: &Fragment) -> Publisher {
        let streams = fragment.output_streams().into_iter().map(|s| {
            let expected = cfg.downstream_counts.iter().find(|(d, _)| *d == s);
            (s, expected.map_or(usize::MAX, |(_, n)| *n))
        });
        Publisher::new(streams, cfg.buffer, DISPATCH_CHUNK)
    }

    /// Charges CPU time for a batch, retains its output batches by shared
    /// view, and lets them depart across the busy window.
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
            self.out.publish(stream, tuples);
        }
        self.out.flush(ctx, start, self.busy_until);
    }

    fn refresh_state(&mut self) {
        if self.state != NodeState::Stabilization {
            let input_dead = self.inputs.ums.iter().any(|u| !u.has_live_producer());
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
        ctx.set_timer(ctx.now() + RETRY_WAIT.saturating_mul(5), TIMER_RETRY);
    }

    fn do_reconcile(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
        let now = ctx.now();
        self.state = NodeState::Stabilization;
        let batch = self.fragment.reconcile(now);
        self.handle_batch(ctx, batch, now);
        ctx.set_timer(self.busy_until.max(now), TIMER_STAB_DONE);
    }

    fn stream_states(&self) -> Vec<(StreamId, NodeState)> {
        // With an input stream whose every producer is unreachable, all
        // outputs are suspect (coarse §8.2 fallback: we do not track which
        // branch each input feeds).
        let input_dead = self.inputs.ums.iter().any(|u| !u.has_live_producer());
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
        let Ok(mut disk) = NodeDisk::open(dcfg) else {
            return; // disk unavailable: run without durability
        };
        let image = disk.recover();
        self.disk = Some(disk);
        // A cold or unreadable store, or an undecodable operator region
        // (e.g. the plan changed across the restart): the empty-state
        // rebuild.
        let Ok(Some(image)) = image else { return };
        if self.fragment.restore_durable(&image.ops_bytes).is_err() {
            return;
        }
        let now = ctx.now();
        for &(stream, last_stable, saw_tentative) in &image.positions {
            if let Some(um) = self.inputs.ums.iter_mut().find(|u| u.stream() == stream) {
                um.seed_recovered(last_stable, saw_tentative);
            }
        }
        let n_replay = image.replay.len();
        for (stream, tuples) in image.replay {
            if let Some(um) = self.inputs.ums.iter_mut().find(|u| u.stream() == stream) {
                for t in tuples.as_slice() {
                    um.advance(t);
                }
            }
            let batch = self.fragment.push_batch(stream, &tuples, now);
            self.handle_batch(ctx, batch, now);
        }
        let recover_us = wall_start.elapsed().as_micros() as u64;
        if let Some(disk) = &self.disk {
            disk.write_recovery_marker(image.snapshot_id, recover_us, n_replay);
        }
        let replayed = Some(self.busy_until.max(now));
        self.recovering_until = self.recovering_until.max(replayed);
    }
}

/// The protocol body, written once against [`RuntimeCtx`]: the identical
/// logic runs under the simulator, the worker pool and the TCP deployment.
impl DpcActor<NetMsg> for ProcessingNode {
    /// Startup: recover from disk if a durable store exists, then
    /// subscribe to upstreams and arm the periodic timers. The disk
    /// recovery runs *before* the first `Subscribe`, so the subscription
    /// carries the recovered stable positions — the upstream replays only
    /// the suffix the disk image does not cover. A node that restarted or
    /// recovered from disk answers nothing until its recovery is done.
    fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
        let now = ctx.now();
        self.inputs = Inputs::new(&self.cfg.upstreams, now);
        if let Some(dcfg) = self.cfg.durability.clone() {
            self.recover_from_disk(ctx, &dcfg);
            ctx.set_timer(now + dcfg.interval, TIMER_CHECKPOINT);
        }
        if let Some(until) = self.recovering_until {
            ctx.set_timer(until, TIMER_RECOVERY_DONE);
        }
        self.inputs.subscribe_all(ctx);
        ctx.set_timer(now + self.cfg.tuning.heartbeat_period, TIMER_HEARTBEAT);
        ctx.set_timer(now + ACK_PERIOD, TIMER_ACK);
    }

    /// Handles one protocol message.
    fn on_message(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, from: NodeId, msg: NetMsg) {
        self.out.release_due(ctx);
        match msg {
            NetMsg::Data { stream, tuples } => {
                let now = ctx.now();
                let Some((_, fresh, actions)) = self.inputs.intake(from, stream, tuples) else {
                    return;
                };
                // Only deduplicated input reaches the log, so a replay
                // feeds the fragment the exact accepted stream.
                if let Some(disk) = self.disk.as_mut() {
                    disk.append_input(stream, &fresh);
                }
                let batch = self.fragment.push_view(stream, &fresh, now);
                self.handle_batch(ctx, batch, now);
                // Credit accounting: this delivery is consumed when the
                // modeled CPU has processed it — a saturated node returns
                // credits late, which is what makes its upstream links
                // stall instead of flooding its mailbox.
                ctx.data_consumed_at(self.busy_until);
                Inputs::send(ctx, actions);
                self.post_event(ctx);
            }
            // §4.5: a recovering node serves no subscriptions.
            NetMsg::Subscribe { .. } if self.recovering_until.is_some() => {}
            NetMsg::Subscribe { .. } | NetMsg::Unsubscribe { .. } | NetMsg::Ack { .. } => {
                let ready = self.busy_until.max(ctx.now()); // when the modelled CPU is free
                self.out.on_message(ctx, from, msg, ready);
            }
            NetMsg::HeartbeatReq => {
                if self.recovering_until.is_some() {
                    return; // §4.5: no replies until consistent again
                }
                let resp = NetMsg::HeartbeatResp {
                    node_state: self.state,
                    stream_states: self.stream_states(),
                    stalled: ctx.outbound_stall(from),
                };
                ctx.send(from, resp);
            }
            NetMsg::HeartbeatResp {
                node_state,
                stream_states,
                stalled,
            } => {
                let period = self.cfg.tuning.heartbeat_period;
                self.inputs
                    .heartbeat_response(ctx, from, node_state, &stream_states, period);
                // Credit-stall surfacing: the responder's sends to us sit
                // queued awaiting credit. On every input it currently
                // feeds, a stall that outlasts the detection delay becomes
                // an explicit UP_FAILURE — overload turns into delayed
                // buckets under the DelayMode budget, not silent unbounded
                // buffering.
                let now = ctx.now();
                for i in 0..self.inputs.ums.len() {
                    let um = &self.inputs.ums[i];
                    if stalled > Duration::ZERO && um.current() == from {
                        let batch = self.fragment.note_input_stall(um.stream(), stalled, now);
                        self.handle_batch(ctx, batch, now);
                        self.post_event(ctx);
                    }
                }
            }
            NetMsg::ReconcileRequest => {
                let must_reject = self.state == NodeState::Stabilization
                    || self.recovering_until.is_some()
                    || (self.fragment.can_reconcile() && ctx.id() < from);
                if must_reject {
                    ctx.send(from, NetMsg::ReconcileReject);
                } else {
                    self.granted_to.push((from, ctx.now()));
                    ctx.set_timer(ctx.now() + GRANT_TIMEOUT, TIMER_GRANT_TIMEOUT);
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
                    ctx.set_timer(ctx.now() + RETRY_WAIT, TIMER_RETRY);
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
        self.out.release_due(ctx);
        let now = ctx.now();
        match kind {
            TIMER_TICK => {
                self.scheduled_tick = None;
                let batch = self.fragment.tick(now);
                self.handle_batch(ctx, batch, now);
                self.post_event(ctx);
            }
            TIMER_HEARTBEAT => {
                self.inputs
                    .heartbeat_round(ctx, self.cfg.tuning.heartbeat_period);
                // A stabilization grant held for a peer that is no longer
                // reachable (crashed or partitioned away) staggers nothing
                // — the partner cannot be mid-stabilization relying on us
                // if it cannot even talk to us. Drop such grants so this
                // replica stays free to reconcile its own state; the
                // GRANT_TIMEOUT remains the backstop for in-flight races.
                let before = self.granted_to.len();
                self.granted_to.retain(|(n, _)| ctx.reachable(*n));
                if self.granted_to.len() < before {
                    self.check_reconcile(ctx);
                }
                self.refresh_state();
                ctx.set_timer(now + self.cfg.tuning.heartbeat_period, TIMER_HEARTBEAT);
            }
            TIMER_ACK => {
                self.inputs.send_acks(ctx);
                ctx.set_timer(now + ACK_PERIOD, TIMER_ACK);
            }
            TIMER_RETRY => {
                self.pending_request = None;
                self.check_reconcile(ctx);
            }
            TIMER_STAB_DONE => {
                if self.state != NodeState::Stabilization {
                    return; // no stabilization to finish
                }
                if now < self.busy_until {
                    // Fresh input extended the queue past the original
                    // estimate: stabilization ends only when the node
                    // "catches up with normal execution" (§4.4.2).
                    ctx.set_timer(self.busy_until, TIMER_STAB_DONE);
                    return;
                }
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
                if let (Some(disk), Some(dcfg)) = (self.disk.as_mut(), &self.cfg.durability) {
                    // Only an untainted fragment yields a durable image
                    // (checkpoint-before-tentative, §4.4.1: tentative eras
                    // are recovered via upstream replay, not from disk).
                    if let Some(parts) = self.fragment.capture_durable() {
                        let positions: Vec<(StreamId, TupleId, bool)> = self
                            .inputs
                            .ums
                            .iter()
                            .map(|u| (u.stream(), u.last_stable(), u.saw_tentative()))
                            .collect();
                        disk.checkpoint(parts, &positions);
                    }
                    ctx.set_timer(now + dcfg.interval, TIMER_CHECKPOINT);
                }
            }
            TIMER_GRANT_TIMEOUT => {
                self.granted_to
                    .retain(|(_, t)| now.since(*t) < GRANT_TIMEOUT);
                self.check_reconcile(ctx);
            }
            TIMER_RECOVERY_DONE => {
                let Some(until) = self.recovering_until else {
                    return;
                };
                let done = until.max(self.busy_until);
                if now >= done {
                    self.recovering_until = None;
                    self.post_event(ctx);
                } else {
                    // Still draining the recovery backlog: check again when
                    // the CPU catches up.
                    ctx.set_timer(done, TIMER_RECOVERY_DONE);
                }
            }
            _ => {}
        }
    }

    /// Reacts to a fault notification (link heals, own crash/restart).
    fn on_fault(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, fault: &FaultEvent) {
        self.out.release_due(ctx);
        match fault {
            FaultEvent::NodeUp(n) if *n == ctx.id() => {
                // Crash recovery: restart from an empty state (§4.5) —
                // unless a durable store is configured, in which case
                // `start` reloads the newest snapshot and replays the
                // logged input suffix before resubscribing. Logs,
                // subscribers and queued departures are volatile state —
                // and so is what the crashed incarnation's timers stood
                // for: every driver drops those when they come due (they
                // carry the incarnation that armed them), and the fields
                // they would have read are cleared all the same: the new
                // incarnation is the one `new` builds.
                //
                // A replica crash is silent (§2.2): its consumers learn of
                // it only by missed keep-alives. The node stays silent one
                // staleness window plus one keep-alive round, so each of
                // them has declared it failed, and dropped the subscription
                // it no longer holds, before it answers again.
                *self = ProcessingNode::new(self.cfg.clone());
                let period = self.cfg.tuning.heartbeat_period;
                self.recovering_until = Some(ctx.now() + stale_after(period) + period);
                self.on_start(ctx);
                return;
            }
            FaultEvent::NodeDown(n) if *n != ctx.id() => {
                // A torn connection to `n`'s process: upstream subscriptions
                // we held there are gone even if it restarts before a
                // keep-alive goes stale (what it held *here* is the
                // publisher's to forget, below).
                self.inputs.connection_lost(*n, ctx.now());
            }
            _ => {}
        }
        let ready = self.busy_until.max(ctx.now()); // when the modelled CPU is free
        self.out.on_fault(ctx, fault, ready);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Resume;
    use crate::runtime::fake::FakeCtx;
    use borealis_diagram::{plan_deployment, DeploymentSpec, DpcConfig, QueryBuilder};
    use borealis_ops::OperatorSpec;
    use borealis_types::{BatchView, Tuple, TupleBatch, TupleKind, Value};

    const SOURCE: NodeId = NodeId(1);
    const CLIENT: NodeId = NodeId(2);

    /// An unreplicated relay node (`FakeCtx::default()`'s id 0) between a
    /// source and a client, and its output stream.
    fn relay_node() -> (ProcessingNode, StreamId) {
        let mut q = QueryBuilder::new();
        let s = q.source("in");
        let out = q.relay("out", s);
        q.output(out);
        let d = q.build().unwrap();
        let p = plan_deployment(&d, &DeploymentSpec::single(1), &DpcConfig::default()).unwrap();
        let node = ProcessingNode::new(NodeConfig {
            plan: p.fragments[0].clone(),
            replicas: Vec::new(),
            upstreams: vec![UpstreamSpec {
                stream: s.id(),
                candidates: vec![SOURCE],
            }],
            downstream_counts: vec![(out.id(), 1)],
            tuning: NodeTuning::default(),
            buffer: BufferPolicy::Unbounded,
            durability: None,
        });
        (node, out.id())
    }

    /// No driver purges a crashed actor's timers, so a `TIMER_STAB_DONE`
    /// armed before a crash can come due in the restarted incarnation. It
    /// must find no stabilization to finish: a `REC_DONE` sent then would
    /// announce a correction that never ran.
    #[test]
    fn stab_done_timer_of_a_crashed_incarnation_is_stale_after_restart() {
        let (mut node, out) = relay_node();
        let mut ctx = FakeCtx::default();
        let me = ctx.id;
        node.on_start(&mut ctx);
        // Mid-stabilization, its timer due at t = 2 s, when the node
        // crashes.
        node.state = NodeState::Stabilization;
        ctx.now = Time::from_secs(1);
        node.on_fault(&mut ctx, &FaultEvent::NodeDown(me));
        ctx.now = Time::from_secs(1) + crate::system::RESTART_DELAY;
        node.on_fault(&mut ctx, &FaultEvent::NodeUp(me));
        // Silent for one staleness window plus one keep-alive period.
        let (restart, period) = (ctx.now, node.cfg.tuning.heartbeat_period);
        let silence_end = restart + stale_after(period) + period;
        assert!(ctx.timers.contains(&(silence_end, TIMER_RECOVERY_DONE)));
        ctx.now = restart + stale_after(period);
        node.on_timer(&mut ctx, TIMER_RECOVERY_DONE); // early: changes nothing
        node.on_message(&mut ctx, CLIENT, NetMsg::HeartbeatReq);
        assert!(ctx.sent.iter().all(|(_, to, _)| *to != CLIENT), "silent");
        ctx.now = silence_end;
        node.on_timer(&mut ctx, TIMER_RECOVERY_DONE);
        assert!(
            node.recovering_until.is_none(),
            "the restarted node serves again"
        );
        let subscribe = NetMsg::Subscribe {
            stream: out,
            last_stable: TupleId::NONE,
            resume: Resume::Replay,
        };
        node.on_message(&mut ctx, CLIENT, subscribe);

        ctx.sent.clear();
        ctx.now = Time::from_secs(2);
        node.on_timer(&mut ctx, TIMER_STAB_DONE);
        assert!(
            ctx.sent.is_empty(),
            "the old incarnation's timer sent {:?}",
            ctx.sent
        );
        assert_eq!(node.state, NodeState::Stable);
    }

    /// A producer reports its own credit stall in its keep-alive reply, and
    /// the consumer acts on it where the reply arrives: a stall from the
    /// current upstream that reaches the SUnion's detection delay is an
    /// UP_FAILURE; a zero stall, or one from a node feeding no input, is
    /// nothing.
    #[test]
    fn heartbeat_reply_carries_the_stall_and_a_long_one_declares_up_failure() {
        let (mut node, _) = relay_node();
        let OperatorSpec::SUnion(su) = &node.cfg.plan.ops[0].spec else {
            panic!("the fragment starts with its input SUnion");
        };
        let (detect, mut ctx) = (su.detect_delay, FakeCtx::default());
        ctx.stall = Duration::from_millis(7);
        node.on_start(&mut ctx);
        ctx.sent.clear();
        node.on_message(&mut ctx, CLIENT, NetMsg::HeartbeatReq);
        let [(_, to, NetMsg::HeartbeatResp { stalled, .. })] = &ctx.sent[..] else {
            panic!("one reply expected: {:?}", ctx.sent);
        };
        assert_eq!((*to, *stalled), (CLIENT, ctx.stall));
        let reply = |stalled| NetMsg::HeartbeatResp {
            node_state: NodeState::Stable,
            stream_states: Vec::new(),
            stalled,
        };
        node.on_message(&mut ctx, SOURCE, reply(Duration::ZERO));
        node.on_message(&mut ctx, CLIENT, reply(detect));
        assert_eq!(node.state, NodeState::Stable);
        assert!(!node.fragment.is_tainted());
        node.on_message(&mut ctx, SOURCE, reply(detect));
        assert_eq!(node.state, NodeState::UpFailure);
        assert!(node.fragment.is_tainted());
    }

    /// A store failing under a running node costs durability only: here
    /// its log directory vanishes, so the next checkpoint cannot begin its
    /// segment and no append after it lands. Each failure is counted, and
    /// the node keeps delivering stable output from memory.
    #[test]
    fn a_failing_store_is_counted_and_output_still_flows() {
        let (mut node, out) = relay_node();
        let input = node.cfg.upstreams[0].stream;
        let dir = std::env::temp_dir().join(format!(
            "borealis-node-failing-store-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        node.cfg.durability = Some(DurabilityConfig::new(&dir));
        let mut ctx = FakeCtx::default();
        node.on_start(&mut ctx);
        let subscribe = NetMsg::Subscribe {
            stream: out,
            last_stable: TupleId::NONE,
            resume: Resume::Replay,
        };
        node.on_message(&mut ctx, CLIENT, subscribe);
        // One second of input: two tuples and the boundary that makes them
        // stable; then the node's own timers up to the next second.
        let second = |node: &mut ProcessingNode, ctx: &mut FakeCtx, s: u64| {
            ctx.now = Time::from_secs(s);
            let at = |ms| Time::from_millis(s * 1000 + ms);
            let tuples = TupleBatch::from_vec(vec![
                Tuple::insertion(TupleId(2 * s), at(10), vec![Value::Int(1)]),
                Tuple::insertion(TupleId(2 * s + 1), at(20), vec![Value::Int(2)]),
                Tuple::boundary(TupleId::NONE, at(999)),
            ]);
            let data = NetMsg::Data {
                stream: input,
                tuples: BatchView::from(tuples),
            };
            node.on_message(ctx, SOURCE, data);
            ctx.now = Time::from_secs(s + 1);
            node.on_timer(ctx, TIMER_TICK);
            node.on_timer(ctx, TIMER_CHECKPOINT);
        };
        let stable_delivered = |ctx: &FakeCtx| {
            let to_client = ctx.sent.iter().filter(|(_, to, _)| *to == CLIENT);
            let tuples = to_client.flat_map(|(_, _, msg)| match msg {
                NetMsg::Data { tuples, .. } => tuples.as_slice().to_vec(),
                _ => Vec::new(),
            });
            tuples.filter(|t| t.kind == TupleKind::Insertion).count()
        };
        let failures = |node: &ProcessingNode| node.disk.as_ref().expect("durable").failures();

        second(&mut node, &mut ctx, 1);
        assert_eq!(failures(&node), 0);
        let before = stable_delivered(&ctx);
        assert!(before > 0, "stable output flows: {:?}", ctx.sent);
        std::fs::remove_dir_all(dir.join("log")).unwrap();
        for s in 2..5 {
            second(&mut node, &mut ctx, s);
        }
        assert!(
            failures(&node) >= 1,
            "a checkpoint with no segment to begin"
        );
        assert!(
            stable_delivered(&ctx) > before,
            "stable output still flows once the store fails"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
