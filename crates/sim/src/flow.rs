//! The credit ledger: per-link credit windows, sender-side pending queues,
//! and the queue-depth / stall-time gauges.
//!
//! Every runtime implements credit-based flow control through this one
//! structure, owned by the link [`Fabric`](crate::Fabric) (which decides
//! *when* each verb applies — see its module docs):
//!
//! * **admit** — a data message bound for a directed link either consumes a
//!   credit (delivered) or joins the link's FIFO pending queue (stalled);
//! * **replenish** — the receiver consumed one delivery (at its *modeled*
//!   CPU completion, not its arrival): the freed credit immediately
//!   releases the oldest pending message, if any, keeping the link at its
//!   window;
//! * **reset** — a crashed endpoint purges its links' state (pending
//!   messages are lost like in-flight segments of a broken connection, and
//!   credits return to the full window for the restart).

use borealis_types::{CreditPolicy, Duration, FlowGauges, NodeId, Time};
use std::collections::{HashMap, VecDeque};

/// Per-directed-link credit state.
#[derive(Debug)]
struct LinkFlow<M> {
    /// Admitted, not yet consumed deliveries.
    inflight: u32,
    /// Sends awaiting credit, oldest first.
    queue: VecDeque<M>,
    /// When the current stall episode began (queue became non-empty).
    stalled_since: Option<Time>,
}

impl<M> Default for LinkFlow<M> {
    fn default() -> Self {
        LinkFlow {
            inflight: 0,
            queue: VecDeque::new(),
            stalled_since: None,
        }
    }
}

/// The credit ledger of one running deployment.
#[derive(Debug)]
pub struct FlowControl<M> {
    policy: CreditPolicy,
    links: HashMap<(NodeId, NodeId), LinkFlow<M>>,
    gauges: FlowGauges,
}

impl<M> FlowControl<M> {
    /// A ledger under the given policy.
    pub fn new(policy: CreditPolicy) -> FlowControl<M> {
        FlowControl {
            policy,
            links: HashMap::new(),
            gauges: FlowGauges::default(),
        }
    }

    /// The governing policy.
    pub fn policy(&self) -> CreditPolicy {
        self.policy
    }

    /// Current gauges snapshot.
    pub fn gauges(&self) -> FlowGauges {
        self.gauges
    }

    /// True when `msg` must pass through this ledger — THE tracking rule
    /// of the flow-control layer: a credit-controlled message under a
    /// tracking policy.
    pub fn tracks(&self, msg: &M) -> bool
    where
        M: crate::fabric::ShardMsg,
    {
        self.policy.is_tracking() && msg.credit_controlled()
    }

    /// Admits a data message to the directed link `from → to`.
    ///
    /// Returns the message when it may be handed to the link now (credit
    /// consumed); `None` means it was queued at the sender awaiting credit.
    /// Under a non-tracking policy this is the identity function.
    pub fn admit(&mut self, from: NodeId, to: NodeId, msg: M, now: Time) -> Option<M> {
        let Some(window) = self.policy.window() else {
            return Some(msg);
        };
        let link = self.links.entry((from, to)).or_default();
        if link.queue.is_empty() && link.inflight < window {
            link.inflight += 1;
            self.gauges.delivered += 1;
            self.gauges.inflight_now += 1;
            self.gauges.inflight_peak = self.gauges.inflight_peak.max(link.inflight as u64);
            Some(msg)
        } else {
            if link.queue.is_empty() {
                link.stalled_since = Some(now);
                self.gauges.stalls += 1;
            }
            link.queue.push_back(msg);
            self.gauges.queued += 1;
            self.gauges.queued_now += 1;
            self.gauges.queued_peak = self.gauges.queued_peak.max(link.queue.len() as u64);
            None
        }
    }

    /// One delivery on `from → to` was consumed by the receiver: the freed
    /// credit releases the oldest pending message, if any (its credit stays
    /// consumed by the released message, keeping the link at its window).
    pub fn replenish(&mut self, from: NodeId, to: NodeId, now: Time) -> Option<M> {
        if !self.policy.is_tracking() {
            return None;
        }
        let link = self.links.get_mut(&(from, to))?;
        match link.queue.pop_front() {
            Some(msg) => {
                // in-flight count unchanged: one consumed, one released.
                self.gauges.released += 1;
                self.gauges.queued_now = self.gauges.queued_now.saturating_sub(1);
                if link.queue.is_empty() {
                    if let Some(since) = link.stalled_since.take() {
                        self.gauges.stall_time = self.gauges.stall_time + now.since(since);
                    }
                }
                Some(msg)
            }
            None => {
                // A credit can come back for a link that no longer has
                // in-flight deliveries — a crash purge (`reset_node`) ran
                // while the consumption was pending. The link count and
                // the global gauge must saturate *together*, or the gauge
                // drifts below the actual total across the other links.
                if link.inflight > 0 {
                    link.inflight -= 1;
                    self.gauges.inflight_now -= 1;
                }
                None
            }
        }
    }

    /// Continuous stall duration of `from → to` — how long its pending
    /// queue has been non-empty ([`Duration::ZERO`] when credit is
    /// flowing).
    pub fn stalled_for(&self, from: NodeId, to: NodeId, now: Time) -> Duration {
        self.links
            .get(&(from, to))
            .and_then(|l| l.stalled_since)
            .map_or(Duration::ZERO, |since| now.since(since))
    }

    /// Purges every link touching a crashed node: pending messages are lost
    /// (returned count; the caller records them as delivery drops) and
    /// credits reset to the full window for the restart.
    pub fn reset_node(&mut self, n: NodeId, now: Time) -> u64 {
        let mut purged = 0;
        for (&(_, _), link) in self
            .links
            .iter_mut()
            .filter(|(&(a, b), _)| a == n || b == n)
        {
            purged += link.queue.len() as u64;
            self.gauges.queued_now = self
                .gauges
                .queued_now
                .saturating_sub(link.queue.len() as u64);
            self.gauges.inflight_now = self
                .gauges
                .inflight_now
                .saturating_sub(link.inflight as u64);
            link.queue.clear();
            link.inflight = 0;
            if let Some(since) = link.stalled_since.take() {
                self.gauges.stall_time = self.gauges.stall_time + now.since(since);
            }
        }
        self.gauges.purged += purged;
        purged
    }

    /// Asserts the gauge/ledger consistency invariants: the `queued_now`
    /// and `inflight_now` gauges must equal the actual totals across
    /// links, no link's in-flight count may exceed the policy window, and
    /// a non-empty pending queue must have an open stall episode. Called
    /// by the `Fabric` after every ledger operation in debug builds — the
    /// invariant the model checker's interleaving tests check.
    pub fn check_invariants(&self) {
        let queued: u64 = self.links.values().map(|l| l.queue.len() as u64).sum();
        assert_eq!(
            self.gauges.queued_now, queued,
            "queued_now gauge must equal the actual pending-queue total"
        );
        let inflight: u64 = self.links.values().map(|l| l.inflight as u64).sum();
        assert_eq!(
            self.gauges.inflight_now, inflight,
            "inflight_now gauge must equal the actual in-flight total"
        );
        if let Some(w) = self.policy.window() {
            for (&(a, b), l) in &self.links {
                assert!(
                    l.inflight <= w,
                    "link {a:?}→{b:?} exceeds its credit window: {} > {w}",
                    l.inflight
                );
                assert!(
                    l.queue.is_empty() || l.stalled_since.is_some(),
                    "link {a:?}→{b:?} has pending sends but no stall episode"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);

    #[test]
    fn unbounded_is_identity() {
        let mut f: FlowControl<u32> = FlowControl::new(CreditPolicy::Unbounded);
        for i in 0..100 {
            assert_eq!(f.admit(A, B, i, Time::ZERO), Some(i));
        }
        assert_eq!(f.gauges(), FlowGauges::default());
        assert_eq!(f.replenish(A, B, Time::ZERO), None);
    }

    #[test]
    fn window_gates_and_replenish_releases_fifo() {
        let mut f: FlowControl<u32> = FlowControl::new(CreditPolicy::Window(2));
        assert_eq!(f.admit(A, B, 1, Time::ZERO), Some(1));
        assert_eq!(f.admit(A, B, 2, Time::ZERO), Some(2));
        assert_eq!(f.admit(A, B, 3, Time::from_millis(5)), None);
        assert_eq!(f.admit(A, B, 4, Time::from_millis(6)), None);
        let g = f.gauges();
        assert_eq!((g.delivered, g.queued, g.queued_now), (2, 2, 2));
        assert_eq!(g.inflight_peak, 2);
        assert_eq!(g.stalls, 1, "one stall episode");

        // Consuming 1 releases 3 (credit stays consumed); consuming 2
        // releases 4; the next two replenishes free the window.
        assert_eq!(f.replenish(A, B, Time::from_millis(10)), Some(3));
        assert_eq!(f.replenish(A, B, Time::from_millis(20)), Some(4));
        assert_eq!(f.gauges().stall_time, Duration::from_millis(15));
        assert_eq!(f.replenish(A, B, Time::from_millis(30)), None);
        assert_eq!(f.replenish(A, B, Time::from_millis(30)), None);
        assert_eq!(f.gauges().inflight_now, 0);
        assert_eq!(f.admit(A, B, 5, Time::from_millis(31)), Some(5));
    }

    #[test]
    fn queue_order_beats_fresh_credit() {
        // With the queue non-empty, a new send must join the queue even if
        // a credit just freed — FIFO per link, no overtaking.
        let mut f: FlowControl<u32> = FlowControl::new(CreditPolicy::Window(1));
        assert_eq!(f.admit(A, B, 1, Time::ZERO), Some(1));
        assert_eq!(f.admit(A, B, 2, Time::ZERO), None);
        assert_eq!(f.admit(A, B, 3, Time::ZERO), None);
        assert_eq!(f.replenish(A, B, Time::ZERO), Some(2));
        assert_eq!(f.admit(A, B, 4, Time::ZERO), None, "3 still queued");
        assert_eq!(f.replenish(A, B, Time::ZERO), Some(3));
        assert_eq!(f.replenish(A, B, Time::ZERO), Some(4));
    }

    #[test]
    fn links_are_independent() {
        let mut f: FlowControl<u32> = FlowControl::new(CreditPolicy::Window(1));
        assert_eq!(f.admit(A, B, 1, Time::ZERO), Some(1));
        assert_eq!(f.admit(B, A, 2, Time::ZERO), Some(2), "reverse direction");
        assert_eq!(f.admit(A, NodeId(9), 3, Time::ZERO), Some(3));
        assert_eq!(f.admit(A, B, 4, Time::ZERO), None);
    }

    #[test]
    fn max_window_accounts_without_stalling() {
        let mut f: FlowControl<u32> = FlowControl::new(CreditPolicy::Window(u32::MAX));
        for i in 0..50 {
            assert_eq!(f.admit(A, B, i, Time::ZERO), Some(i));
        }
        assert_eq!(f.gauges().inflight_peak, 50);
        assert_eq!(f.gauges().queued, 0);
        assert_eq!(f.replenish(A, B, Time::ZERO), None);
        assert_eq!(f.gauges().inflight_now, 49);
    }

    #[test]
    fn node_reset_purges_and_restores_credits() {
        let mut f: FlowControl<u32> = FlowControl::new(CreditPolicy::Window(1));
        assert_eq!(f.admit(A, B, 1, Time::ZERO), Some(1));
        assert_eq!(f.admit(A, B, 2, Time::ZERO), None);
        assert_eq!(f.reset_node(B, Time::from_millis(4)), 1, "queued 2 purged");
        assert_eq!(f.gauges().purged, 1);
        assert_eq!(f.gauges().inflight_now, 0);
        assert_eq!(f.stalled_for(A, B, Time::from_millis(9)), Duration::ZERO);
        // Fresh window after the crash.
        assert_eq!(f.admit(A, B, 5, Time::from_millis(10)), Some(5));
    }

    #[test]
    fn stalled_for_reports_continuous_stall() {
        let mut f: FlowControl<u32> = FlowControl::new(CreditPolicy::Window(1));
        assert_eq!(f.stalled_for(A, B, Time::from_millis(1)), Duration::ZERO);
        f.admit(A, B, 1, Time::ZERO);
        f.admit(A, B, 2, Time::from_millis(10));
        assert_eq!(
            f.stalled_for(A, B, Time::from_millis(25)),
            Duration::from_millis(15)
        );
        f.replenish(A, B, Time::from_millis(30));
        assert_eq!(f.stalled_for(A, B, Time::from_millis(40)), Duration::ZERO);
    }
}
