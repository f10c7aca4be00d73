//! Failure injection events (§2.2's failure model).
//!
//! DPC handles crash failures of processing nodes and network failures that
//! "cause message losses and delays, preventing any subset of nodes from
//! communicating with one another, possibly partitioning the system". Every
//! runtime scripts those as timed [`FaultEvent`]s; what a fault does to the
//! links, and who hears about it, is [`Fabric::apply`](crate::Fabric::apply).

use borealis_types::NodeId;

/// A scripted fault (or heal) applied to a running deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// The link between two endpoints stops delivering messages (both
    /// directions). Models network failures and, pairwise, partitions.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The link heals.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Crash failure: the node stops sending, receiving, and firing timers.
    /// Volatile state is lost (§2.2: "buffers are lost when a processing
    /// node fails").
    NodeDown(NodeId),
    /// The node restarts (empty state; see §4.5 failed-node recovery).
    NodeUp(NodeId),
    /// A process crash: `NodeDown` of every listed node at once, which
    /// every live actor hears too — the process's connections tear.
    ProcessDown(Vec<NodeId>),
    /// The crashed process is back: `NodeUp` of every listed node.
    ProcessUp(Vec<NodeId>),
    /// An application-defined fault delivered to one actor's `on_fault`
    /// hook. Used for source-level scripting: muting a source's output or
    /// just its boundary tuples (the §6.2 failure mode).
    Custom {
        /// The actor the fault applies to.
        target: NodeId,
        /// Application-defined discriminator.
        tag: u64,
    },
}

impl FaultEvent {
    /// A process crash's (`false`) or restart's (`true`) nodes: a launcher
    /// of real processes kills or respawns the process instead of replaying it.
    pub fn process(&self) -> Option<(&[NodeId], bool)> {
        match self {
            FaultEvent::ProcessDown(nodes) => Some((nodes, false)),
            FaultEvent::ProcessUp(nodes) => Some((nodes, true)),
            _ => None,
        }
    }
}
