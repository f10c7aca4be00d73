//! The inter-node protocol messages of DPC.
//!
//! Nodes, sources, and client proxies exchange these over the simulated
//! network's reliable in-order links: data subscriptions and replays
//! (§4.3, Fig. 8), keep-alive heartbeats carrying consistency states
//! (§4.2.3), acknowledgments for output-buffer truncation (§8.1), and the
//! inter-replica stabilization stagger protocol (§4.4.3, Fig. 9).

use borealis_sim::ShardMsg;
use borealis_types::{BatchView, Duration, PartitionSpec, ShardRouter, StreamId, TupleId};

/// Consistency state of a node or of one of its output streams (Fig. 5,
/// plus the `Failed` state a monitor assigns to unreachable peers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// All inputs stable, outputs stable.
    Stable,
    /// An upstream failure is in progress; outputs may be tentative.
    UpFailure,
    /// Reconciling state and correcting outputs.
    Stabilization,
    /// Not responding to keep-alives (crashed or partitioned away).
    Failed,
}

borealis_types::wire_enum!(NodeState, "node state", {
    Stable = 0,
    UpFailure = 1,
    Stabilization = 2,
    Failed = 3,
});

/// A message between two participants of the deployed system.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMsg {
    /// Tuples on a stream, in order.
    ///
    /// The payload is a shared contiguous view: fanning the same tuples
    /// out to every replica of every downstream neighbor clones reference
    /// counts, not tuples, and a key-sharded receiver's part is a slice of
    /// the one batch its shard's tuples were copied into, once per produced
    /// batch — so per-hop cost is independent of both replication degree
    /// and shard count.
    Data {
        /// The stream they belong to.
        stream: StreamId,
        /// The tuples (data, boundaries, undo, rec-done).
        tuples: BatchView,
    },
    /// Subscribe to a stream, stating exactly what was already received so
    /// the upstream peer can replay missing tuples or correct tentative
    /// ones (§4.3: "it indicates the last stable tuple it received and
    /// whether it received tentative tuples after stable ones").
    Subscribe {
        /// The requested stream.
        stream: StreamId,
        /// Last stable tuple received on it ([`TupleId::NONE`] for none).
        last_stable: TupleId,
        /// Where the new stream picks up after `last_stable`.
        resume: Resume,
    },
    /// Stop sending a stream.
    Unsubscribe {
        /// The stream to drop.
        stream: StreamId,
    },
    /// Cumulative acknowledgment of stable delivery, enabling upstream
    /// output-buffer truncation (§8.1). Broadcast to every replica of the
    /// upstream neighbor, since any of them may serve the stream later.
    Ack {
        /// The acknowledged stream.
        stream: StreamId,
        /// All stable tuples up to and including this id were received.
        through: TupleId,
    },
    /// Keep-alive request (the Consistency Manager "periodically requests a
    /// heartbeat response from each replica of each upstream neighbor").
    HeartbeatReq,
    /// Keep-alive response advertising the node's consistency state and the
    /// per-output-stream states (§8.2 fine-grained advertisement).
    HeartbeatResp {
        /// Overall node state.
        node_state: NodeState,
        /// Per-output-stream states (streams unaffected by a failure stay
        /// `Stable`).
        stream_states: Vec<(StreamId, NodeState)>,
        /// The responder's credit stall towards the requester
        /// (`RuntimeCtx::outbound_stall`; zero while credit flows).
        stalled: Duration,
    },
    /// Stagger protocol (Fig. 9): ask a replica for permission to enter
    /// STABILIZATION (the replica promises to keep processing new tuples).
    ReconcileRequest,
    /// Permission granted.
    ReconcileGrant,
    /// Permission denied (the replica is stabilizing itself, or needs to
    /// and wins the id tie-break).
    ReconcileReject,
    /// The requester finished stabilizing; the partner's promise is
    /// released.
    ReconcileDone,
}

borealis_types::wire_enum!(NetMsg, "frame kind", {
    Data { stream, tuples } = 0x00,
    Subscribe { stream, last_stable, resume } = 0x01,
    Unsubscribe { stream } = 0x02,
    Ack { stream, through } = 0x03,
    HeartbeatReq = 0x04,
    HeartbeatResp { node_state, stream_states, stalled } = 0x05,
    ReconcileRequest = 0x06,
    ReconcileGrant = 0x07,
    ReconcileReject = 0x08,
    ReconcileDone = 0x09,
});

/// What a [`NetMsg::Subscribe`] asks the upstream peer to send first. A
/// §4.3 subscription "indicates the last stable tuple it received and
/// whether it received tentative tuples after stable ones", which is two
/// of these; §4.4.3 adds the third.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// Only stable tuples were received: replay every tuple after the
    /// last stable one.
    Replay,
    /// Tentative tuples followed the stable prefix (from another replica,
    /// or junk from a dead one): the peer first sends an UNDO back to that
    /// prefix, then replays.
    Undo,
    /// New emissions only, no history: the §4.4.3 dual subscription. While
    /// the current upstream is stabilizing, the consumer stays connected to
    /// it for the corrections and also subscribes to an UP_FAILURE replica
    /// for fresh tentative data; it already holds the tentative era.
    FreshOnly,
}

borealis_types::wire_enum!(Resume, "resume", {
    Replay = 0,
    Undo = 1,
    FreshOnly = 2,
});

/// The partitioned send path: a key-sharded receiver gets only its shard
/// of every `Data` payload (control tuples — boundaries, undo, rec-done —
/// always pass; see [`PartitionSpec`]). A batch with nothing left for the
/// shard suppresses the delivery. All other protocol messages
/// (subscriptions, acks, heartbeats, stagger control) pass unchanged.
///
/// `Data` is also the only credit-controlled variant: under a bounded
/// [`CreditPolicy`](borealis_types::CreditPolicy) every data batch consumes
/// one link credit, while control traffic always passes — a backpressured
/// link still heartbeats, so a stalled peer is never mistaken for a dead
/// one.
impl ShardMsg for NetMsg {
    fn partition(self, spec: &PartitionSpec, router: &mut ShardRouter) -> Option<NetMsg> {
        match self {
            NetMsg::Data { stream, tuples } => {
                let tuples = router.route(spec, &tuples);
                if tuples.is_empty() {
                    None
                } else {
                    Some(NetMsg::Data { stream, tuples })
                }
            }
            other => Some(other),
        }
    }

    fn credit_controlled(&self) -> bool {
        matches!(self, NetMsg::Data { .. })
    }
}
