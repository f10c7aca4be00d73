//! The consumer half of the Data Path plus the Consistency Manager's
//! monitoring and switching logic (§4.2.3, §4.3, Table II): an
//! [`UpstreamManager`] per input stream, and [`Inputs`] — the set of them
//! with everything a consumer does across it (intake and duplicate
//! filtering of `Data`, keep-alive rounds, acks, torn connections) —
//! shared by the processing node and the client proxy.
//!
//! For each input stream a node (or client proxy) tracks the set of
//! upstream replicas able to produce it, their advertised consistency
//! states (from keep-alive responses), and what this consumer has received
//! so far (last stable tuple, tentative suffix). From those facts it
//! decides, per Table II:
//!
//! * stay with a STABLE upstream;
//! * switch to a STABLE replica as soon as the current upstream is not
//!   STABLE;
//! * otherwise prefer an UP_FAILURE replica (tentative data maintains
//!   availability);
//! * while the current upstream is STABILIZING, stay connected for the
//!   corrections *and* subscribe to an UP_FAILURE replica for fresh
//!   tentative data — the §4.4.3 dual subscription — until a REC_DONE
//!   arrives, at which point the stabilized upstream becomes the sole
//!   provider.

use crate::msg::{NetMsg, NodeState, Resume};
use crate::runtime::RuntimeCtx;
use borealis_types::{
    BatchView, Duration, NodeId, StreamId, Time, Tuple, TupleBatch, TupleId, TupleKind,
};
use std::collections::BTreeSet;

/// Subscription changes a manager asks for: `Subscribe`/`Unsubscribe`
/// messages with their destinations, for the owning actor to send.
pub type Requests = Vec<(NodeId, NetMsg)>;

#[derive(Debug, Clone, Copy)]
struct PeerInfo {
    state: NodeState,
    last_heard: Time,
}

/// Manager for one input stream of one consumer.
#[derive(Debug)]
pub struct UpstreamManager {
    /// Debug tracing (set via BOREALIS_TRACE_SWITCH env).
    trace: bool,
    stream: StreamId,
    candidates: Vec<NodeId>,
    /// The primary upstream (Curr(s) in Table II).
    curr: NodeId,
    /// All live subscriptions (curr plus, during upstream stabilization,
    /// one UP_FAILURE replica for fresh data).
    subscribed: BTreeSet<NodeId>,
    peers: Vec<PeerInfo>,
    last_stable: TupleId,
    saw_tentative: bool,
}

impl UpstreamManager {
    /// Creates a manager; the first candidate is the initial upstream.
    ///
    /// # Panics
    /// Panics if `candidates` is empty — a stream with no producer is a
    /// deployment bug.
    pub fn new(stream: StreamId, candidates: Vec<NodeId>, now: Time) -> Self {
        assert!(!candidates.is_empty(), "stream {stream} has no producers");
        let curr = candidates[0];
        let peers = candidates
            .iter()
            .map(|_| PeerInfo {
                state: NodeState::Stable,
                last_heard: now,
            })
            .collect();
        UpstreamManager {
            trace: std::env::var("BOREALIS_TRACE_SWITCH").is_ok(),
            stream,
            candidates,
            curr,
            subscribed: BTreeSet::new(),
            peers,
            last_stable: TupleId::NONE,
            saw_tentative: false,
        }
    }

    /// The managed stream.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// Current primary upstream.
    pub fn current(&self) -> NodeId {
        self.curr
    }

    /// All upstream replicas of this stream.
    pub fn candidates(&self) -> &[NodeId] {
        &self.candidates
    }

    /// Id of the last stable tuple received.
    pub fn last_stable(&self) -> TupleId {
        self.last_stable
    }

    /// Whether tentative data was accepted since the stable prefix.
    pub fn saw_tentative(&self) -> bool {
        self.saw_tentative
    }

    /// Seeds the position recovered from a durable checkpoint. Must run
    /// before [`UpstreamManager::initial_subscribe`], so the first
    /// `Subscribe` resumes after the disk image instead of replaying the
    /// upstream buffer from the beginning.
    pub fn seed_recovered(&mut self, last_stable: TupleId, saw_tentative: bool) {
        self.last_stable = last_stable;
        self.saw_tentative = saw_tentative;
    }

    /// The received-prefix bookkeeping of one input tuple: the
    /// `last_stable` / `saw_tentative` transitions, the same for live
    /// intake ([`UpstreamManager::observe_tuple`]) and for a durable
    /// restart replaying its input log (there is no live peer yet, so
    /// nothing else applies).
    pub(crate) fn advance(&mut self, t: &Tuple) {
        match t.kind {
            TupleKind::Insertion => self.last_stable = self.last_stable.max(t.id),
            TupleKind::Tentative => self.saw_tentative = true,
            TupleKind::Undo => {
                if let Some(target) = t.undo_target() {
                    self.last_stable = self.last_stable.min(target);
                }
                self.saw_tentative = false;
            }
            TupleKind::RecDone => self.saw_tentative = false,
            TupleKind::Boundary => {}
        }
    }

    /// The transport reported the connection to `peer` torn (a process
    /// crash seen as a TCP reset). The peer has lost our subscription
    /// state, so the subscription is gone even if the peer restarts before
    /// any keep-alive goes stale: mark it failed and forget the
    /// subscription — the next [`UpstreamManager::evaluate`] switches to a
    /// live replica (Table II) or re-subscribes when the peer recovers.
    pub fn connection_lost(&mut self, peer: NodeId, now: Time) {
        let Some(i) = self.candidates.iter().position(|&c| c == peer) else {
            return;
        };
        if self.trace {
            eprintln!("[um {}] connection to {} lost", self.stream, peer);
        }
        self.peers[i] = PeerInfo {
            state: NodeState::Failed,
            last_heard: now,
        };
        self.subscribed.remove(&peer);
    }

    /// True if data from `from` should be accepted (we are subscribed).
    pub fn accepts_from(&self, from: NodeId) -> bool {
        self.subscribed.contains(&from)
    }

    /// True for stable tuples already received (an upstream retransmission
    /// after a link heal): consumers drop these before processing. Stable
    /// ids are identical across replicas (determinism), so the check is
    /// valid across switches too.
    pub fn is_duplicate(&self, t: &Tuple) -> bool {
        t.is_stable_data() && t.id <= self.last_stable
    }

    /// True if at least one producer of this stream is believed reachable.
    /// A stream whose every producer misses keep-alives is a failed input
    /// even before any data deadline expires (Fig. 5: "missing
    /// heartbeats").
    pub fn has_live_producer(&self) -> bool {
        self.peers.iter().any(|p| p.state != NodeState::Failed)
    }

    /// The initial subscription at startup.
    pub fn initial_subscribe(&mut self) -> Requests {
        vec![self.subscribe(self.curr, false)]
    }

    /// Subscribes to `to`, resuming after the stable prefix held (with an
    /// UNDO first if tentative tuples followed it; `fresh_only` skips
    /// history — the dual subscription).
    fn subscribe(&mut self, to: NodeId, fresh_only: bool) -> (NodeId, NetMsg) {
        self.subscribed.insert(to);
        let resume = match (fresh_only, self.saw_tentative) {
            (true, _) => Resume::FreshOnly,
            (false, true) => Resume::Undo,
            (false, false) => Resume::Replay,
        };
        let msg = NetMsg::Subscribe {
            stream: self.stream,
            last_stable: self.last_stable,
            resume,
        };
        (to, msg)
    }

    /// Drops every subscription except the one to `keep`.
    fn leave_all_but(&mut self, keep: Option<NodeId>) -> Requests {
        let stream = self.stream;
        let left = self.subscribed.iter().filter(|&&n| Some(n) != keep);
        let out = left.map(|&n| (n, NetMsg::Unsubscribe { stream })).collect();
        self.subscribed.retain(|&n| Some(n) == keep);
        out
    }

    /// Records a keep-alive response.
    pub fn heartbeat_response(
        &mut self,
        from: NodeId,
        node_state: NodeState,
        stream_states: &[(StreamId, NodeState)],
        now: Time,
    ) {
        let Some(i) = self.candidates.iter().position(|&c| c == from) else {
            return;
        };
        // Fine-grained (§8.2): the per-stream state overrides the node
        // state when advertised.
        let state = stream_states
            .iter()
            .find(|(s, _)| *s == self.stream)
            .map(|(_, st)| *st)
            .unwrap_or(node_state);
        self.peers[i] = PeerInfo {
            state,
            last_heard: now,
        };
    }

    /// Updates received-prefix bookkeeping (`advance`) and handles the
    /// REC_DONE switchback. Returns subscription changes to apply.
    pub fn observe_tuple(&mut self, from: NodeId, t: &Tuple) -> Requests {
        self.advance(t);
        if t.kind == TupleKind::RecDone {
            // §4.4: "The downstream node stays connected to both upstream
            // replicas until it receives a REC_DONE tuple on the corrected
            // stream" — then the stabilized replica is up to date and
            // becomes the sole provider.
            if self.trace {
                eprintln!("[um {}] RecDone from {} -> collapse", self.stream, from);
            }
            if self.subscribed.contains(&from) {
                self.curr = from;
                return self.leave_all_but(Some(from));
            }
        }
        Vec::new()
    }

    fn state_of(&self, node: NodeId) -> NodeState {
        self.candidates
            .iter()
            .position(|&c| c == node)
            .map(|i| self.peers[i].state)
            .unwrap_or(NodeState::Failed)
    }

    /// Applies staleness (a peer silent for two and a half keep-alive
    /// periods — the paper's 100 ms / 250 ms — is Failed) and the Table II
    /// condition-action rules. Returns subscription changes.
    pub fn evaluate(&mut self, now: Time, heartbeat_period: Duration) -> Requests {
        let stale_after = stale_after(heartbeat_period);
        for (i, p) in self.peers.iter_mut().enumerate() {
            if now.since(p.last_heard) > stale_after && p.state != NodeState::Failed {
                p.state = NodeState::Failed;
                // A peer that stopped answering keep-alives has lost (or
                // will lose) our subscription state: treat the connection
                // as broken, like a TCP reset.
                self.subscribed.remove(&self.candidates[i]);
            }
        }
        let curr_state = self.state_of(self.curr);
        let mut actions = Vec::new();
        if self.trace {
            let states: Vec<String> = self
                .candidates
                .iter()
                .map(|&c| format!("{}={:?}", c, self.state_of(c)))
                .collect();
            eprintln!(
                "[um {} @{}] curr={} states={:?} subs={:?}",
                self.stream, now, self.curr, states, self.subscribed
            );
        }

        match curr_state {
            NodeState::Stable => {
                // Shed any extra (dual) subscriptions left over.
                actions = self.leave_all_but(Some(self.curr));
                // Re-establish a connection broken while the peer was
                // unreachable (e.g. it crashed and recovered, §4.5).
                if !self.subscribed.contains(&self.curr) {
                    actions.push(self.subscribe(self.curr, false));
                }
            }
            _ => {
                let find = |state: NodeState| {
                    let mut others = self.candidates.iter().copied();
                    others.find(|&c| c != self.curr && self.state_of(c) == state)
                };
                // Rule 2: a STABLE replica exists — switch to it. With the
                // current upstream FAILED, else prefer UP_FAILURE, else a
                // stabilizing replica (at least corrections flow), else
                // nothing. Rule 3: stay with an UP_FAILURE upstream.
                let next = find(NodeState::Stable).or_else(|| match curr_state {
                    NodeState::Failed => {
                        find(NodeState::UpFailure).or_else(|| find(NodeState::Stabilization))
                    }
                    _ => None,
                });
                if let Some(next) = next {
                    actions = self.leave_all_but(None);
                    self.curr = next;
                    actions.push(self.subscribe(next, false));
                } else if curr_state == NodeState::Stabilization {
                    // §4.4.3 dual subscription: keep the corrections
                    // flowing and add an UP_FAILURE replica for fresh
                    // tentative data (the consumer already holds the
                    // tentative era: only new data, please).
                    if let Some(fresh) = find(NodeState::UpFailure) {
                        if !self.subscribed.contains(&fresh) {
                            actions.push(self.subscribe(fresh, true));
                        }
                    }
                }
            }
        }
        actions
    }
}

/// How long a peer may stay silent before its consumers call it Failed
/// ([`UpstreamManager::evaluate`]). A restarted node stays silent this
/// long plus one keep-alive period (§4.5), so every consumer has dropped
/// its subscription by the time it answers again.
pub(crate) fn stale_after(heartbeat_period: Duration) -> Duration {
    Duration::from_micros(heartbeat_period.as_micros() * 5 / 2)
}

/// Upstream binding of one input stream of a node or a client.
#[derive(Debug, Clone)]
pub struct UpstreamSpec {
    /// The input stream.
    pub stream: StreamId,
    /// Nodes able to produce it (a source, or the replicas of the producing
    /// fragment), monitored by keep-alives and switched between.
    pub candidates: Vec<NodeId>,
}

/// The consumer half of DPC's Data Path, written once: one
/// [`UpstreamManager`] per input stream plus everything a consumer does
/// with them as a set — intake of `Data` (subscription check, duplicate
/// filter, prefix bookkeeping), keep-alive rounds and responses, cumulative
/// acks, torn connections. [`ProcessingNode`](crate::ProcessingNode) and
/// [`ClientProxy`](crate::ClientProxy) each hold one.
#[derive(Debug, Default)]
pub struct Inputs {
    /// The managers, in binding order.
    pub(crate) ums: Vec<UpstreamManager>,
}

/// Cumulative-ack period of every consumer (§8.1 buffer truncation): its
/// owner calls [`Inputs::send_acks`] this often.
pub(crate) const ACK_PERIOD: Duration = Duration::from_secs(1);

impl Inputs {
    /// One manager per binding, in order (the index [`Inputs::intake`]
    /// reports is the position here).
    pub fn new(specs: &[UpstreamSpec], now: Time) -> Self {
        let manager = |s: &UpstreamSpec| UpstreamManager::new(s.stream, s.candidates.clone(), now);
        Inputs {
            ums: specs.iter().map(manager).collect(),
        }
    }

    /// Sends what a manager asked for.
    pub fn send(ctx: &mut dyn RuntimeCtx<NetMsg>, requests: Requests) {
        for (to, msg) in requests {
            ctx.send(to, msg);
        }
    }

    /// Sends every input's initial subscription (startup, after any
    /// [`UpstreamManager::seed_recovered`]).
    pub fn subscribe_all(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
        for um in &mut self.ums {
            Self::send(ctx, um.initial_subscribe());
        }
    }

    /// Takes in one `Data` message. `None`: not an input stream, or a stale
    /// sender (already unsubscribed). Otherwise the input's index, the
    /// *fresh* tuples — the received view itself when nothing was a
    /// duplicate: the common case copies no tuple — and the subscription
    /// changes they caused, for the caller to [`send`](Inputs::send) once
    /// it has processed the tuples. Duplicate detection (retransmissions
    /// after a link heal) interleaves with prefix bookkeeping, as
    /// tuple-at-a-time processing would.
    pub fn intake(
        &mut self,
        from: NodeId,
        stream: StreamId,
        tuples: BatchView,
    ) -> Option<(usize, BatchView, Requests)> {
        let i = self.ums.iter().position(|u| u.stream() == stream)?;
        let um = &mut self.ums[i];
        if !um.accepts_from(from) {
            return None;
        }
        let mut actions = Vec::new();
        // Allocated at the first duplicate: the tuples kept so far.
        let mut fresh: Option<Vec<Tuple>> = None;
        for (k, t) in tuples.iter().enumerate() {
            if um.is_duplicate(t) {
                fresh.get_or_insert_with(|| tuples.iter().take(k).cloned().collect());
            } else {
                actions.extend(um.observe_tuple(from, t));
                if let Some(kept) = &mut fresh {
                    kept.push(t.clone());
                }
            }
        }
        let fresh = fresh.map_or(tuples, |kept| TupleBatch::from_vec(kept).into());
        Some((i, fresh, actions))
    }

    /// Records a keep-alive response and re-evaluates every input against
    /// it (Table II).
    pub fn heartbeat_response(
        &mut self,
        ctx: &mut dyn RuntimeCtx<NetMsg>,
        from: NodeId,
        node_state: NodeState,
        stream_states: &[(StreamId, NodeState)],
        period: Duration,
    ) {
        let now = ctx.now();
        for um in &mut self.ums {
            um.heartbeat_response(from, node_state, stream_states, now);
            Self::send(ctx, um.evaluate(now, period));
        }
    }

    /// One keep-alive round (there is one every `period`): re-evaluates
    /// every input (staleness, Table II), then requests a heartbeat from
    /// each of its producers.
    pub fn heartbeat_round(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, period: Duration) {
        let now = ctx.now();
        for um in &mut self.ums {
            Self::send(ctx, um.evaluate(now, period));
            for &target in um.candidates() {
                ctx.send(target, NetMsg::HeartbeatReq);
            }
        }
    }

    /// Acknowledges each input's stable prefix to every producer able to
    /// serve it (§8.1: any of them may be asked to replay later).
    pub fn send_acks(&self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
        for um in &self.ums {
            let (stream, through) = (um.stream(), um.last_stable());
            for &cand in um.candidates() {
                ctx.send(cand, NetMsg::Ack { stream, through });
            }
        }
    }

    /// The transport reported the connection to `peer` torn: every
    /// subscription held there is gone (see
    /// [`UpstreamManager::connection_lost`]).
    pub fn connection_lost(&mut self, peer: NodeId, now: Time) {
        for um in &mut self.ums {
            um.connection_lost(peer, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::fake::FakeCtx;

    fn um() -> UpstreamManager {
        UpstreamManager::new(StreamId(0), vec![NodeId(10), NodeId(11)], Time::ZERO)
    }

    fn hb(u: &mut UpstreamManager, from: NodeId, state: NodeState, ms: u64) {
        u.heartbeat_response(from, state, &[], Time::from_millis(ms));
    }

    /// The keep-alive period: a peer goes stale after 250 ms.
    const HEARTBEAT: Duration = Duration::from_millis(100);

    /// The `Subscribe` request a manager of stream 0 sends to `to`.
    fn sub(to: u32, last_stable: u64, resume: Resume) -> (NodeId, NetMsg) {
        let msg = NetMsg::Subscribe {
            stream: StreamId(0),
            last_stable: TupleId(last_stable),
            resume,
        };
        (NodeId(to), msg)
    }

    fn unsub(from: u32) -> (NodeId, NetMsg) {
        let stream = StreamId(0);
        (NodeId(from), NetMsg::Unsubscribe { stream })
    }

    #[test]
    fn initial_subscribe_targets_first_candidate() {
        let mut u = um();
        let actions = u.initial_subscribe();
        assert_eq!(actions, [sub(10, 0, Resume::Replay)]);
        assert!(u.accepts_from(NodeId(10)));
        assert!(!u.accepts_from(NodeId(11)));
    }

    #[test]
    fn stays_with_stable_upstream() {
        let mut u = um();
        u.initial_subscribe();
        hb(&mut u, NodeId(10), NodeState::Stable, 100);
        hb(&mut u, NodeId(11), NodeState::Stable, 100);
        assert!(u.evaluate(Time::from_millis(150), HEARTBEAT).is_empty());
        assert_eq!(u.current(), NodeId(10));
    }

    #[test]
    fn switches_to_stable_replica_when_current_fails() {
        let mut u = um();
        u.initial_subscribe();
        hb(&mut u, NodeId(10), NodeState::UpFailure, 100);
        hb(&mut u, NodeId(11), NodeState::Stable, 100);
        let actions = u.evaluate(Time::from_millis(150), HEARTBEAT);
        assert_eq!(u.current(), NodeId(11));
        assert_eq!(actions, [unsub(10), sub(11, 0, Resume::Replay)]);
    }

    #[test]
    fn stays_with_up_failure_when_no_stable_exists() {
        let mut u = um();
        u.initial_subscribe();
        hb(&mut u, NodeId(10), NodeState::UpFailure, 100);
        hb(&mut u, NodeId(11), NodeState::UpFailure, 100);
        assert!(u.evaluate(Time::from_millis(150), HEARTBEAT).is_empty());
        assert_eq!(u.current(), NodeId(10));
    }

    #[test]
    fn missed_heartbeats_mark_peer_failed_and_switch() {
        let mut u = um();
        u.initial_subscribe();
        hb(&mut u, NodeId(11), NodeState::UpFailure, 900);
        // Node 10 last heard at t=0; at t=1000 it is stale.
        let actions = u.evaluate(Time::from_millis(1000), HEARTBEAT);
        assert_eq!(u.current(), NodeId(11));
        assert!(!actions.is_empty());
    }

    #[test]
    fn dual_subscription_during_upstream_stabilization() {
        let mut u = um();
        u.initial_subscribe();
        hb(&mut u, NodeId(10), NodeState::Stabilization, 100);
        hb(&mut u, NodeId(11), NodeState::UpFailure, 100);
        let actions = u.evaluate(Time::from_millis(150), HEARTBEAT);
        // Keeps node 10 (corrections) and adds node 11 (fresh data).
        assert_eq!(u.current(), NodeId(10));
        assert!(u.accepts_from(NodeId(10)));
        assert!(u.accepts_from(NodeId(11)));
        assert_eq!(actions, [sub(11, 0, Resume::FreshOnly)]);
        // Idempotent: a second evaluation adds nothing.
        assert!(u.evaluate(Time::from_millis(200), HEARTBEAT).is_empty());
    }

    #[test]
    fn rec_done_collapses_dual_subscription() {
        let mut u = um();
        u.initial_subscribe();
        hb(&mut u, NodeId(10), NodeState::Stabilization, 100);
        hb(&mut u, NodeId(11), NodeState::UpFailure, 100);
        u.evaluate(Time::from_millis(150), HEARTBEAT);
        let rd = Tuple::rec_done(TupleId::NONE, Time::from_millis(200));
        let actions = u.observe_tuple(NodeId(10), &rd);
        assert_eq!(actions, [unsub(11)]);
        assert_eq!(u.current(), NodeId(10));
        assert!(!u.accepts_from(NodeId(11)));
    }

    #[test]
    fn bookkeeping_tracks_prefix_and_tentative_suffix() {
        let mut u = um();
        u.initial_subscribe();
        let s = Tuple::insertion(TupleId(4), Time::ZERO, vec![]);
        u.observe_tuple(NodeId(10), &s);
        assert_eq!(u.last_stable(), TupleId(4));
        let t = Tuple::tentative(TupleId(9), Time::ZERO, vec![]);
        u.observe_tuple(NodeId(10), &t);
        // A switch now must request correction of the tentative suffix.
        hb(&mut u, NodeId(10), NodeState::Failed, 100);
        hb(&mut u, NodeId(11), NodeState::Stable, 100);
        let actions = u.evaluate(Time::from_millis(150), HEARTBEAT);
        assert!(actions.contains(&sub(11, 4, Resume::Undo)));
        // The UNDO from the new upstream clears the tentative flag.
        let undo = Tuple::undo(TupleId::NONE, TupleId(4));
        u.observe_tuple(NodeId(11), &undo);
        assert_eq!(u.last_stable(), TupleId(4));
    }

    /// An input with one producer is monitored like any other, the client
    /// proxy's too: its consumer asks the producer for keep-alives, drops
    /// the subscription when the producer falls silent (a restart forgets
    /// its subscribers), and renews it from the prefix held as soon as the
    /// producer answers STABLE again.
    #[test]
    fn a_single_stale_producer_is_resubscribed_when_it_answers_stable() {
        let spec = UpstreamSpec {
            stream: StreamId(0),
            candidates: vec![NodeId(5)],
        };
        let (mut inputs, mut ctx) = (Inputs::new(&[spec], Time::ZERO), FakeCtx::default());
        inputs.subscribe_all(&mut ctx);
        let held = TupleBatch::single(Tuple::insertion(TupleId(3), Time::ZERO, vec![]));
        inputs.intake(NodeId(5), StreamId(0), held.into()).unwrap();
        let at = |ctx: &mut FakeCtx, ms| {
            ctx.sent.clear();
            ctx.now = Time::from_millis(ms);
        };
        let sent = |ctx: &FakeCtx| -> Vec<(NodeId, NetMsg)> {
            ctx.sent.iter().map(|(_, to, m)| (*to, m.clone())).collect()
        };
        let keep_alive = [(NodeId(5), NetMsg::HeartbeatReq)];

        at(&mut ctx, 100);
        inputs.heartbeat_round(&mut ctx, HEARTBEAT);
        assert_eq!(sent(&ctx), keep_alive);
        inputs.heartbeat_response(&mut ctx, NodeId(5), NodeState::Stable, &[], HEARTBEAT);
        at(&mut ctx, 350);
        inputs.heartbeat_round(&mut ctx, HEARTBEAT);
        assert_eq!(sent(&ctx), keep_alive, "heard 250 ms ago: still live");
        assert!(inputs.ums[0].accepts_from(NodeId(5)));

        // Silent for more than 250 ms: Failed, and the subscription is gone.
        at(&mut ctx, 450);
        inputs.heartbeat_round(&mut ctx, HEARTBEAT);
        assert_eq!(sent(&ctx), keep_alive);
        assert!(!inputs.ums[0].accepts_from(NodeId(5)));
        assert!(!inputs.ums[0].has_live_producer());
        at(&mut ctx, 460);
        inputs.heartbeat_response(&mut ctx, NodeId(5), NodeState::Stable, &[], HEARTBEAT);
        assert_eq!(sent(&ctx), [sub(5, 3, Resume::Replay)]);
        assert!(inputs.ums[0].accepts_from(NodeId(5)));
    }

    #[test]
    fn intake_shares_a_clean_view_and_filters_retransmissions() {
        let spec = UpstreamSpec {
            stream: StreamId(0),
            candidates: vec![NodeId(10), NodeId(11)],
        };
        let mut inputs = Inputs::new(&[spec], Time::ZERO);
        inputs.ums[0].initial_subscribe();
        let stable = |id| Tuple::insertion(TupleId(id), Time::ZERO, vec![]);
        let view = |ids: &[u64]| -> BatchView {
            TupleBatch::from_vec(ids.iter().map(|&id| stable(id)).collect()).into()
        };
        assert!(inputs.intake(NodeId(10), StreamId(9), view(&[1])).is_none());
        assert!(
            inputs.intake(NodeId(11), StreamId(0), view(&[1])).is_none(),
            "not subscribed to that replica"
        );
        // Nothing seen before: the fresh tuples are the received view.
        let sent = view(&[1, 2, 3]);
        let (i, fresh, actions) = inputs
            .intake(NodeId(10), StreamId(0), sent.clone())
            .unwrap();
        assert!(i == 0 && actions.is_empty() && fresh == sent && fresh.shares_backing(&sent));
        // A post-heal retransmission overlapping the prefix: only the new
        // tuples come through, and the prefix advances over them.
        let (_, fresh, _) = inputs
            .intake(NodeId(10), StreamId(0), view(&[2, 3, 4, 5]))
            .unwrap();
        let ids: Vec<u64> = fresh.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, [4, 5]);
        assert_eq!(inputs.ums[0].last_stable(), TupleId(5));
    }

    #[test]
    fn failed_current_prefers_up_failure_then_stabilizing() {
        let mut u = UpstreamManager::new(
            StreamId(0),
            vec![NodeId(1), NodeId(2), NodeId(3)],
            Time::ZERO,
        );
        u.initial_subscribe();
        hb(&mut u, NodeId(1), NodeState::Failed, 100);
        hb(&mut u, NodeId(2), NodeState::Stabilization, 100);
        hb(&mut u, NodeId(3), NodeState::UpFailure, 100);
        u.evaluate(Time::from_millis(150), HEARTBEAT);
        assert_eq!(u.current(), NodeId(3), "UP_FAILURE preferred");

        // If only a stabilizing replica remains, use it.
        hb(&mut u, NodeId(3), NodeState::Failed, 200);
        u.evaluate(Time::from_millis(250), HEARTBEAT);
        assert_eq!(u.current(), NodeId(2));
    }
}
