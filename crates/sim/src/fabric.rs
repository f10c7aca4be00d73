//! The link fabric: the paper's §2.2 system model — reliable in-order
//! links, crash failures, link failures and partitions — written once and
//! shared by every runtime.
//!
//! A [`Fabric`] owns the link state, the per-receiver partition map, the
//! credit ledger ([`FlowControl`]) and the drop/delivery counters. It is
//! plain single-threaded data; three drivers sit on top of it:
//!
//! * the simulator kernel owns one directly and adds a clock, an event
//!   queue and link latency;
//! * the worker pool shares one behind a mutex and adds mailboxes and a
//!   timer wheel;
//! * the TCP mesh uses that same shared copy from its reader and reset
//!   paths and adds sockets.
//!
//! The rules are four `&mut self` verbs, and a driver may not re-derive any
//! of them:
//!
//! * [`Fabric::send`] — send-time reachability, then shard partition
//!   through the caller's [`ShardRouter`], then credit admission;
//! * [`Fabric::arrive`] — delivery-time reachability, delivered/drop
//!   accounting, and "a tracked loss still returns its credit";
//! * [`Fabric::consumed`] — a credit returns and releases the next queued
//!   message;
//! * [`Fabric::apply`] — a fault mutates the link state, a crash purges the
//!   node's queued sends (counted once, as delivery drops), and the result
//!   says who hears what: a down node hears nothing but its own `NodeDown`,
//!   and only a process crash is heard by every live actor.
//!
//! Only data messages are credit-controlled (see
//! [`ShardMsg::credit_controlled`]); control traffic always passes, so a
//! stalled link still heartbeats and a backpressured peer is never mistaken
//! for a dead one. Faults gate reachability *around* the ledger: a send to
//! a dead peer is a counted drop, never a queued stall.

use crate::fault::FaultEvent;
use crate::flow::FlowControl;
use borealis_types::{
    CreditPolicy, Duration, FlowGauges, NodeId, PartitionSpec, SchedGauges, ShardRouter, Time,
    WireGauges,
};
use std::collections::{HashMap, HashSet};

/// Messages routable over key-partitioned, credit-controlled links. The
/// fabric consults the receiving node's [`PartitionSpec`] (if any) on
/// every send and keeps only the message content belonging to that shard;
/// returning `None` suppresses the delivery entirely (nothing of the
/// message belongs to the shard).
///
/// The default implementation passes every message through unchanged, so
/// protocol-free message types opt in with an empty `impl`.
pub trait ShardMsg: Sized {
    /// This shard's view of the message, or `None` if nothing remains.
    ///
    /// `router` is the sending driver's one-pass partition memo: the first
    /// route of a produced batch splits it into one contiguous batch per
    /// shard, and every chunk of it for any of the K·R receivers is a slice
    /// of its shard's — the shard key is evaluated and hashed once per
    /// tuple regardless of fan-out and chunking.
    fn partition(self, _spec: &PartitionSpec, _router: &mut ShardRouter) -> Option<Self> {
        Some(self)
    }

    /// True if this message consumes link credits under a tracking
    /// [`CreditPolicy`] (data payloads). Control traffic returns `false`
    /// (the default) so backpressure never blocks heartbeats,
    /// subscriptions, acks, or the stagger protocol.
    fn credit_controlled(&self) -> bool {
        false
    }
}

/// Message-loss and delivery accounting of one running deployment — the
/// one statistics type every runtime returns (`Sim::stats`,
/// `ThreadRuntime::stats`, `RunningTcp::stats`).
///
/// Faults silently eat messages in two places — at send time (the sender's
/// link or endpoint is already down) and at delivery time (the link broke
/// while the message was in flight). Both are counted by the [`Fabric`] so
/// tests can assert exact lost-message counts instead of inferring them
/// from absent side effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Messages dropped because the destination was unreachable at send
    /// time.
    pub send_unreachable_drops: u64,
    /// Messages dropped in flight: sent while reachable, undeliverable at
    /// arrival time (broken TCP connection semantics), or purged from a
    /// crashed node's pending queues.
    pub delivery_drops: u64,
    /// Timer callbacks suppressed because the actor was crashed when they
    /// came due, or had crashed since it armed them.
    pub timers_suppressed: u64,
    /// Messages successfully delivered to handlers.
    pub messages_delivered: u64,
    /// Queue-depth and stall-time gauges of the credit ledger (zero under
    /// [`CreditPolicy::Unbounded`]).
    pub flow: FlowGauges,
    /// Worker-pool scheduler gauges (zero under the simulator; filled by
    /// the thread runtime).
    pub sched: SchedGauges,
    /// Socket-transport wire gauges (zero for in-process deployments;
    /// filled by the TCP deployment).
    pub wire: WireGauges,
}

impl StatsSnapshot {
    /// Total messages lost to faults.
    pub fn total_drops(&self) -> u64 {
        self.send_unreachable_drops + self.delivery_drops
    }
}

/// What [`Fabric::send`] decided about one message.
#[derive(Debug, PartialEq)]
pub enum Sent<M> {
    /// Hand this (shard-filtered, credit-admitted) message to the link now.
    Go(M),
    /// No credit on the link: queued at the sender; a later
    /// [`Fabric::consumed`] releases it in FIFO order.
    Queued,
    /// Nothing of the message belongs to the receiving shard — routing,
    /// not loss: nothing is counted and no credit is consumed.
    NotForShard,
    /// The link or an endpoint is down: dropped and counted.
    Dropped,
}

/// What [`Fabric::arrive`] decided about one arriving message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Hand the message to the receiving actor (`false`: it was lost in
    /// flight, already counted).
    pub deliver: bool,
    /// The message holds a link credit the receiving driver must return
    /// (through [`Fabric::consumed`], or a wire grant to a remote sender):
    /// at the handler's consumption mark if delivered, immediately if lost.
    pub owes_credit: bool,
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Link state, partition map, credit ledger and loss counters of one
/// deployment (see the module docs for the four verbs).
#[derive(Debug)]
pub struct Fabric<M> {
    down_links: HashSet<(NodeId, NodeId)>,
    down_nodes: HashSet<NodeId>,
    /// Key-partition filters per receiving node: a shard replica only
    /// accepts its partition of any data stream.
    partitions: HashMap<NodeId, PartitionSpec>,
    flow: FlowControl<M>,
    /// The four loss/delivery counters; the gauge fields stay zero here
    /// and are filled in on read.
    counts: StatsSnapshot,
}

impl<M> Default for Fabric<M> {
    fn default() -> Self {
        Fabric::new(Vec::new(), CreditPolicy::Unbounded)
    }
}

impl<M> Fabric<M> {
    /// A fully connected fabric whose listed nodes are key-partitioned
    /// receivers, with every link under the given credit policy.
    pub fn new(partitions: Vec<(NodeId, PartitionSpec)>, policy: CreditPolicy) -> Fabric<M> {
        Fabric {
            down_links: HashSet::new(),
            down_nodes: HashSet::new(),
            partitions: partitions.into_iter().collect(),
            flow: FlowControl::new(policy),
            counts: StatsSnapshot::default(),
        }
    }

    /// True if a message from `a` can currently reach `b`: both endpoints
    /// up and the (bidirectional) link between them not cut.
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        self.node_up(a) && self.node_up(b) && !self.down_links.contains(&ordered(a, b))
    }

    /// True if the node itself is up.
    pub fn node_up(&self, n: NodeId) -> bool {
        !self.down_nodes.contains(&n)
    }

    /// The credit policy governing every link.
    pub fn policy(&self) -> CreditPolicy {
        self.flow.policy()
    }

    /// Continuous credit-stall duration of the directed link `from → to`
    /// ([`Duration::ZERO`] when credit is flowing or flow control is off).
    pub fn stalled_for(&self, from: NodeId, to: NodeId, now: Time) -> Duration {
        self.flow.stalled_for(from, to, now)
    }

    /// The counters so far plus the credit ledger's gauges (`sched` and
    /// `wire` are the driver's to fill).
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            flow: self.flow.gauges(),
            ..self.counts
        }
    }

    /// Records a message the driver's last hop lost *after* the fabric
    /// cleared it (a socket that died between the reachability check and
    /// the enqueue): sent while reachable and never delivered, so a
    /// delivery drop.
    pub fn count_lost(&mut self) {
        self.counts.delivery_drops += 1;
    }

    /// A timer of `actor` came due: `true` if it may fire. A crashed
    /// actor's timer is consumed and counted as suppressed, and so is a
    /// `stale` one: armed by an incarnation the driver saw crash since.
    pub fn timer_fires(&mut self, actor: NodeId, stale: bool) -> bool {
        let fires = !stale && self.node_up(actor);
        if !fires {
            self.counts.timers_suppressed += 1;
        }
        fires
    }

    /// One delivery on `from → to` was consumed by the receiver (at its
    /// *modeled* CPU completion, not its arrival): the freed credit
    /// releases the oldest pending message, which the driver now hands to
    /// the link.
    pub fn consumed(&mut self, from: NodeId, to: NodeId, now: Time) -> Option<M> {
        let released = self.flow.replenish(from, to, now);
        self.debug_check();
        released
    }

    /// Applies a fault (or heal) at `now` and returns who hears what among
    /// `hosted`, the actors the caller drives — one rule for every runtime
    /// and the socket mesh's torn connections: a link fault's live ends, a
    /// `Custom` fault's live target, a crashed or restarted node alone (its
    /// peers detect a crash by keep-alives, §2.2) — but a process crash is
    /// heard at once by every live actor, as each of its nodes' `NodeDown`.
    /// A crash purges the node's pending credits and queued sends, counted
    /// once as delivery drops, and its links restart with a full window. A
    /// down node hears nothing but its own crash.
    pub fn apply(
        &mut self,
        fault: &FaultEvent,
        now: Time,
        hosted: impl IntoIterator<Item = NodeId>,
    ) -> Vec<(NodeId, FaultEvent)> {
        use FaultEvent::*;
        match fault {
            LinkDown { a, b } => _ = self.down_links.insert(ordered(*a, *b)),
            LinkUp { a, b } => _ = self.down_links.remove(&ordered(*a, *b)),
            NodeDown(n) => self.crash(*n, now),
            ProcessDown(dead) => dead.iter().for_each(|&n| self.crash(n, now)),
            NodeUp(n) => _ = self.down_nodes.remove(n),
            ProcessUp(back) => back.iter().for_each(|n| _ = self.down_nodes.remove(n)),
            Custom { .. } => {}
        }
        let hosted: Vec<NodeId> = hosted.into_iter().collect();
        let hosts: HashSet<NodeId> = hosted.iter().copied().collect();
        let heard: Vec<(NodeId, FaultEvent)> = match fault {
            LinkDown { a, b } | LinkUp { a, b } => vec![(*a, fault.clone()), (*b, fault.clone())],
            NodeDown(n) | NodeUp(n) | Custom { target: n, .. } => vec![(*n, fault.clone())],
            ProcessDown(dead) => {
                let each = |&h: &NodeId| dead.iter().map(move |&n| (h, NodeDown(n)));
                hosted.iter().flat_map(each).collect()
            }
            ProcessUp(back) => back.iter().map(|&n| (n, NodeUp(n))).collect(),
        };
        let hears = |(h, e): &(NodeId, FaultEvent)| {
            hosts.contains(h) && (self.node_up(*h) || *e == NodeDown(*h))
        };
        heard.into_iter().filter(hears).collect()
    }

    /// Marks `n` down and purges its ledger state (see [`Fabric::apply`]).
    fn crash(&mut self, n: NodeId, now: Time) {
        self.down_nodes.insert(n);
        self.counts.delivery_drops += self.flow.reset_node(n, now);
        self.debug_check();
    }

    /// Debug builds re-verify the ledger's gauge/window invariants after
    /// every mutation — which is what the model checker's interleaving
    /// tests check on the pool's shared copy.
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        if self.flow.policy().is_tracking() {
            self.flow.check_invariants();
        }
    }
}

impl<M: ShardMsg> Fabric<M> {
    /// Sends `msg` on `from → to` at `now` — THE send rule: reachability
    /// (an unreachable destination is a counted send drop) → shard
    /// partition through the caller's `router` → credit admission.
    /// Partitioning precedes admission so a suppressed delivery never
    /// consumes a credit.
    pub fn send(
        &mut self,
        router: &mut ShardRouter,
        from: NodeId,
        to: NodeId,
        msg: M,
        now: Time,
    ) -> Sent<M> {
        if !self.reachable(from, to) {
            self.counts.send_unreachable_drops += 1;
            return Sent::Dropped;
        }
        let msg = match self.partitions.get(&to) {
            Some(spec) => match msg.partition(spec, router) {
                Some(m) => m,
                None => return Sent::NotForShard,
            },
            None => msg,
        };
        if !self.flow.tracks(&msg) {
            return Sent::Go(msg);
        }
        let admitted = self.flow.admit(from, to, msg, now);
        self.debug_check();
        admitted.map_or(Sent::Queued, Sent::Go)
    }

    /// `msg` reached the far end of `from → to`: a link (or endpoint) that
    /// went down while it was in flight loses it (counted). A tracked loss
    /// still returns its credit — a broken link must not shrink the window
    /// forever.
    pub fn arrive(&mut self, from: NodeId, to: NodeId, msg: &M) -> Arrival {
        let deliver = self.reachable(from, to);
        if deliver {
            self.counts.messages_delivered += 1;
        } else {
            self.counts.delivery_drops += 1;
        }
        Arrival {
            deliver,
            owes_credit: self.flow.tracks(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::Expr;

    /// A toy message: data (payload id, owning shard) is credit-controlled
    /// and key-partitioned; the rest is control traffic.
    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Data(u32, u32),
        Control(u32),
    }

    impl ShardMsg for Msg {
        fn partition(self, spec: &PartitionSpec, _router: &mut ShardRouter) -> Option<Msg> {
            match self {
                Msg::Data(_, shard) if shard != spec.index => None,
                m => Some(m),
            }
        }
        fn credit_controlled(&self) -> bool {
            matches!(self, Msg::Data(..))
        }
    }

    fn data(id: u32) -> Msg {
        Msg::Data(id, 0)
    }

    fn control(id: u32) -> Msg {
        Msg::Control(id)
    }

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);
    const N3: NodeId = NodeId(3);

    /// Expected result of a send, by payload id where a message moves.
    #[derive(Debug, PartialEq)]
    enum Out {
        Go(u32),
        Queued,
        NotForShard,
        Dropped,
    }

    /// One step of a conformance case: an operation on the fabric at
    /// `t = step index` ms, with its expected result.
    enum Step {
        /// `send(from, to, msg)` → outcome.
        Send(NodeId, NodeId, Msg, Out),
        /// `arrive(from, to, msg)` → (deliver, owes_credit).
        Arrive(NodeId, NodeId, Msg, bool, bool),
        /// `consumed(from, to)` → released payload id.
        Consumed(NodeId, NodeId, Option<u32>),
        /// `apply(fault)` among every node → who hears it.
        Fault(FaultEvent, &'static [NodeId]),
        /// `apply(ProcessDown(nodes))` among every node → who hears whose
        /// `NodeDown`.
        Crash(Vec<NodeId>, &'static [(NodeId, NodeId)]),
        /// `reachable(a, b)` in both directions.
        Reach(NodeId, NodeId, bool),
        /// `timer_fires(actor, stale)`.
        Timer(NodeId, bool, bool),
        /// `stalled_for(from, to)` in ms (a step takes 1 ms).
        Stalled(NodeId, NodeId, u64),
        /// Counters so far: (send drops, delivery drops, delivered,
        /// timers suppressed).
        Counts(u64, u64, u64, u64),
        /// A predicate over the ledger gauges.
        Flow(fn(&FlowGauges) -> bool),
    }
    use Step::*;

    struct Case {
        name: &'static str,
        policy: CreditPolicy,
        steps: Vec<Step>,
    }

    fn link_down(a: NodeId, b: NodeId) -> FaultEvent {
        FaultEvent::LinkDown { a, b }
    }

    fn link_up(a: NodeId, b: NodeId) -> FaultEvent {
        FaultEvent::LinkUp { a, b }
    }

    fn cases() -> Vec<Case> {
        use CreditPolicy::{Unbounded, Window};
        vec![
            Case {
                name: "a link cut is bidirectional and heals",
                policy: Unbounded,
                steps: vec![
                    Reach(N0, N1, true),
                    Fault(link_down(N1, N0), &[N1, N0]),
                    Reach(N0, N1, false),
                    Reach(N0, N2, true),
                    Send(N0, N1, control(1), Out::Dropped),
                    Send(N1, N0, control(2), Out::Dropped),
                    Counts(2, 0, 0, 0),
                    Fault(link_up(N0, N1), &[N0, N1]),
                    Reach(N0, N1, true),
                    Send(N0, N1, control(3), Out::Go(3)),
                ],
            },
            Case {
                name: "a node crash blocks every one of its links",
                policy: Unbounded,
                steps: vec![
                    Fault(FaultEvent::NodeDown(N2), &[N2]),
                    Reach(N0, N2, false),
                    Reach(N2, N1, false),
                    Reach(N0, N1, true),
                    Timer(N2, false, false),
                    Timer(N0, false, true),
                    Fault(FaultEvent::NodeUp(N2), &[N2]),
                    Reach(N0, N2, true),
                    Timer(N2, false, true),
                    // One the crashed incarnation armed, due after the restart.
                    Timer(N2, true, false),
                    Counts(0, 0, 0, 2),
                ],
            },
            Case {
                name: "a partition cuts cross links only, and heals",
                policy: Unbounded,
                steps: vec![
                    Fault(link_down(N0, N2), &[N0, N2]),
                    Fault(link_down(N0, N3), &[N0, N3]),
                    Fault(link_down(N1, N2), &[N1, N2]),
                    Fault(link_down(N1, N3), &[N1, N3]),
                    Reach(N0, N2, false),
                    Reach(N1, N3, false),
                    Reach(N0, N1, true),
                    Reach(N2, N3, true),
                    Fault(link_up(N0, N2), &[N0, N2]),
                    Fault(link_up(N0, N3), &[N0, N3]),
                    Fault(link_up(N1, N2), &[N1, N2]),
                    Fault(link_up(N1, N3), &[N1, N3]),
                    Reach(N0, N3, true),
                    Reach(N1, N2, true),
                ],
            },
            Case {
                name: "the window gates data and releases it FIFO",
                policy: Window(2),
                steps: vec![
                    Send(N0, N1, data(1), Out::Go(1)),
                    Send(N0, N1, data(2), Out::Go(2)),
                    Send(N0, N1, data(3), Out::Queued),
                    Send(N0, N1, data(4), Out::Queued),
                    Send(N1, N0, data(5), Out::Go(5)), // links are directed
                    Flow(|g| g.inflight_peak == 2 && g.queued == 2 && g.stalls == 1),
                    // Stalled since step 2, visible per link while pending.
                    Stalled(N0, N1, 4),
                    Stalled(N1, N0, 0),
                    Arrive(N0, N1, data(1), true, true),
                    Consumed(N0, N1, Some(3)),
                    // With the queue non-empty a fresh send may not
                    // overtake it, even right after a credit returned.
                    Send(N0, N1, data(6), Out::Queued),
                    Consumed(N0, N1, Some(4)),
                    Consumed(N0, N1, Some(6)),
                    // The queue drained at step 12: the episode closes into
                    // the gauges.
                    Stalled(N0, N1, 0),
                    Flow(|g| g.stall_time == Duration::from_millis(10)),
                    Consumed(N0, N1, None),
                    Consumed(N0, N1, None),
                    Flow(|g| g.released == 3 && g.queued_now == 0 && g.inflight_now == 1),
                    Send(N0, N1, data(7), Out::Go(7)),
                    Counts(0, 0, 1, 0),
                ],
            },
            Case {
                name: "control traffic bypasses credits",
                policy: Window(1),
                steps: vec![
                    Send(N0, N1, data(1), Out::Go(1)),
                    Send(N0, N1, data(2), Out::Queued),
                    Send(N0, N1, control(3), Out::Go(3)),
                    Send(N0, N1, control(4), Out::Go(4)),
                    Arrive(N0, N1, control(3), true, false),
                    Flow(|g| g.delivered == 1 && g.queued == 1),
                ],
            },
            Case {
                name: "a crash purge is counted exactly once, as delivery drops",
                policy: Window(1),
                steps: vec![
                    Send(N0, N1, data(1), Out::Go(1)),
                    Send(N0, N1, data(2), Out::Queued),
                    Send(N0, N1, data(3), Out::Queued),
                    Fault(FaultEvent::NodeDown(N1), &[N1]),
                    Counts(0, 2, 0, 0),
                    Flow(|g| g.purged == 2 && g.queued_now == 0 && g.inflight_now == 0),
                    // Re-applying the crash (the pool replays t=0 faults)
                    // finds nothing left to purge.
                    Fault(FaultEvent::NodeDown(N1), &[N1]),
                    Counts(0, 2, 0, 0),
                    // The in-flight message arrives at a dead node: lost,
                    // and its credit comes back to a link that was reset.
                    Arrive(N0, N1, data(1), false, true),
                    Consumed(N0, N1, None),
                    Counts(0, 3, 0, 0),
                    Send(N0, N1, data(4), Out::Dropped),
                    Counts(1, 3, 0, 0),
                    // The link restarts with a full window.
                    Fault(FaultEvent::NodeUp(N1), &[N1]),
                    Send(N0, N1, data(5), Out::Go(5)),
                    Flow(|g| g.inflight_now == 1),
                ],
            },
            Case {
                name: "a tracked delivery loss still returns its credit",
                policy: Window(1),
                steps: vec![
                    Send(N0, N1, data(1), Out::Go(1)),
                    Send(N0, N1, data(2), Out::Queued),
                    Fault(link_down(N0, N1), &[N0, N1]),
                    Arrive(N0, N1, data(1), false, true),
                    Counts(0, 1, 0, 0),
                    // The returned credit releases the queued message; the
                    // window is not shrunk by the loss.
                    Consumed(N0, N1, Some(2)),
                    Fault(link_up(N0, N1), &[N0, N1]),
                    Arrive(N0, N1, data(2), true, true),
                    Consumed(N0, N1, None),
                    Send(N0, N1, data(3), Out::Go(3)),
                ],
            },
            Case {
                name: "shard routing suppresses without a drop or a credit",
                policy: Window(1),
                steps: vec![
                    // N3 is shard 1 of 2 (see `fabric_conformance`): shard-0 data is not
                    // for it, control traffic and shard-1 data are.
                    Send(N0, N3, data(1), Out::NotForShard),
                    Send(N0, N3, control(2), Out::Go(2)),
                    Send(N0, N3, Msg::Data(3, 1), Out::Go(3)),
                    Flow(|g| g.delivered == 1 && g.queued == 0),
                    Counts(0, 0, 0, 0),
                ],
            },
            Case {
                name: "the unbounded policy touches no ledger state",
                policy: Unbounded,
                steps: vec![
                    Send(N0, N1, data(1), Out::Go(1)),
                    Send(N0, N1, data(2), Out::Go(2)),
                    Arrive(N0, N1, data(1), true, false),
                    Consumed(N0, N1, None),
                    Fault(FaultEvent::NodeDown(N1), &[N1]),
                    Flow(|g| *g == FlowGauges::default()),
                    Counts(0, 0, 1, 0),
                ],
            },
            Case {
                name: "a down node hears nothing but its own NodeDown",
                policy: Unbounded,
                steps: vec![
                    Fault(FaultEvent::Custom { target: N0, tag: 9 }, &[N0]),
                    Fault(FaultEvent::NodeDown(N0), &[N0]),
                    Fault(link_down(N0, N1), &[N1]),
                    Fault(link_up(N0, N1), &[N1]),
                    Fault(FaultEvent::Custom { target: N0, tag: 9 }, &[]),
                    Fault(FaultEvent::NodeDown(N0), &[N0]),
                    Fault(FaultEvent::NodeUp(N0), &[N0]),
                    Fault(link_down(N0, N1), &[N0, N1]),
                ],
            },
            Case {
                name: "every live node hears a process crash, a restart its own",
                policy: Unbounded,
                steps: vec![
                    Fault(FaultEvent::NodeDown(N3), &[N3]),
                    Crash(vec![N1, N2], &[(N0, N1), (N0, N2), (N1, N1), (N2, N2)]),
                    Reach(N0, N1, false),
                    Reach(N1, N2, false),
                    Fault(FaultEvent::ProcessUp(vec![N1, N2]), &[N1, N2]),
                    Reach(N0, N2, true),
                    Reach(N2, N3, false),
                ],
            },
        ]
    }

    fn out_of(sent: Sent<Msg>) -> Out {
        match sent {
            Sent::Go(Msg::Data(id, _) | Msg::Control(id)) => Out::Go(id),
            Sent::Queued => Out::Queued,
            Sent::NotForShard => Out::NotForShard,
            Sent::Dropped => Out::Dropped,
        }
    }

    /// The link-model conformance table: every rule of the §2.2 system
    /// model and the credit protocol, stated once against the one fabric
    /// all three runtimes drive.
    #[test]
    fn fabric_conformance() {
        for case in cases() {
            let shard1 = PartitionSpec {
                key: Expr::field(0),
                shards: 2,
                index: 1,
            };
            let mut f: Fabric<Msg> = Fabric::new(vec![(N3, shard1)], case.policy);
            assert_eq!(f.policy(), case.policy);
            let mut router = ShardRouter::new();
            for (i, step) in case.steps.into_iter().enumerate() {
                let at = format!("case '{}', step {i}", case.name);
                let now = Time::from_millis(i as u64);
                match step {
                    Send(from, to, msg, want) => {
                        assert_eq!(
                            out_of(f.send(&mut router, from, to, msg, now)),
                            want,
                            "{at}"
                        )
                    }
                    Arrive(from, to, msg, deliver, owes_credit) => assert_eq!(
                        f.arrive(from, to, &msg),
                        Arrival {
                            deliver,
                            owes_credit
                        },
                        "{at}"
                    ),
                    Consumed(from, to, want) => {
                        assert_eq!(
                            f.consumed(from, to, now).map(Sent::Go).map(out_of),
                            want.map(Out::Go),
                            "{at}"
                        )
                    }
                    Fault(fault, want) => {
                        let heard = f.apply(&fault, now, [N0, N1, N2, N3]);
                        let own = |h, e: &FaultEvent| *e == fault || *e == FaultEvent::NodeUp(h);
                        assert!(heard.iter().all(|(h, e)| own(*h, e)), "{at}");
                        let hearers: Vec<NodeId> = heard.into_iter().map(|(n, _)| n).collect();
                        assert_eq!(hearers, want, "{at}");
                    }
                    Crash(nodes, want) => {
                        let heard = f.apply(&FaultEvent::ProcessDown(nodes), now, [N0, N1, N2, N3]);
                        let want: Vec<_> = want
                            .iter()
                            .map(|&(h, n)| (h, FaultEvent::NodeDown(n)))
                            .collect();
                        assert_eq!(heard, want, "{at}");
                    }
                    Reach(a, b, want) => {
                        assert_eq!(f.reachable(a, b), want, "{at}");
                        assert_eq!(f.reachable(b, a), want, "{at} (reverse)");
                    }
                    Timer(actor, stale, want) => {
                        assert_eq!(f.timer_fires(actor, stale), want, "{at}")
                    }
                    Stalled(from, to, ms) => assert_eq!(
                        f.stalled_for(from, to, now),
                        Duration::from_millis(ms),
                        "{at}"
                    ),
                    Counts(send, delivery, delivered, timers) => {
                        let s = f.stats();
                        assert_eq!(
                            (
                                s.send_unreachable_drops,
                                s.delivery_drops,
                                s.messages_delivered,
                                s.timers_suppressed
                            ),
                            (send, delivery, delivered, timers),
                            "{at}"
                        );
                        assert_eq!(s.total_drops(), send + delivery, "{at}");
                    }
                    Flow(pred) => assert!(pred(&f.stats().flow), "{at}: {:?}", f.stats().flow),
                }
            }
        }
    }
}
