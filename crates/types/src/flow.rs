//! Flow-control and buffering policy types shared by every transport
//! layer.
//!
//! Borealis (§6) trades availability for consistency under a *delay
//! budget*; that trade only exists if overload turns into **bounded,
//! visible delay** rather than unbounded buffering. These types express the
//! policy half of that contract:
//!
//! * [`CreditPolicy`] — how many unconsumed data messages a directed link
//!   may hold in flight (the credit window). Every runtime implements it
//!   through the link fabric's credit ledger (`borealis_sim::FlowControl`).
//! * [`FlowGauges`] — queue-depth and stall-time gauges the transport
//!   maintains so overload is measurable, never silent.
//! * [`BufferPolicy`] — the §8.1 *output-buffer* bound (orthogonal to
//!   credits: the emission log a node retains for replay, not the link
//!   window).

use crate::time::Duration;

/// Credit-based flow control policy of a deployment's links.
///
/// Credits are counted in **data messages** (batches), not tuples: a sender
/// consumes one credit per `Data` message admitted to a directed link, and
/// the receiver returns it when its (modeled) CPU has consumed the batch.
/// Control traffic — subscriptions, acks, heartbeats, the stagger protocol
/// — always passes, so backpressure can never be mistaken for a dead peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CreditPolicy {
    /// No flow control and no accounting — the pre-credit behavior, with
    /// zero overhead on the send path. Overload becomes unbounded
    /// buffering, invisible to the gauges.
    #[default]
    Unbounded,
    /// At most this many unconsumed data messages in flight per directed
    /// link; further sends queue at the sender until the receiver's
    /// consumption returns credits. `Window(u32::MAX)` never stalls and is
    /// the accounted "unbounded baseline" the overload tests compare against.
    Window(u32),
}

impl CreditPolicy {
    /// True when the ledger must account sends.
    pub fn is_tracking(&self) -> bool {
        !matches!(self, CreditPolicy::Unbounded)
    }

    /// The credit window, if sends are accounted.
    pub fn window(&self) -> Option<u32> {
        match self {
            CreditPolicy::Window(w) => Some(*w),
            CreditPolicy::Unbounded => None,
        }
    }
}

/// Queue-depth and stall-time gauges of a transport's credit ledger.
///
/// All counters are cumulative over the run except the `*_now` depths.
/// Under [`CreditPolicy::Unbounded`] everything stays zero (no accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowGauges {
    /// Data messages admitted with credit available.
    pub delivered: u64,
    /// Data messages that had to wait for credit.
    pub queued: u64,
    /// Queued messages later released by a credit return.
    pub released: u64,
    /// Queued messages purged by a node crash (counted as delivery drops).
    pub purged: u64,
    /// Current sender-side queue depth, summed over links.
    pub queued_now: u64,
    /// Peak sender-side queue depth of any single link.
    pub queued_peak: u64,
    /// Current in-flight (admitted, unconsumed) messages, summed over links.
    pub inflight_now: u64,
    /// Peak in-flight depth of any single link — bounded by the credit
    /// window under [`CreditPolicy::Window`].
    pub inflight_peak: u64,
    /// Number of stall episodes (a link's queue going empty → non-empty).
    pub stalls: u64,
    /// Total time links spent stalled (closed episodes only).
    pub stall_time: Duration,
}

/// What to do when an output buffer grows past its bound (§8.1).
///
/// This caps the *emission log* a node retains for downstream replay — a
/// per-stream durability trade, configured per fragment through
/// `FragmentSpec::buffer` — and is independent of the link-level
/// [`CreditPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferPolicy {
    /// Keep everything (the paper's default assumption, §2.2).
    Unbounded,
    /// Keep at most this many entries, evicting the oldest. Downstream
    /// replicas that fall behind the eviction horizon permanently miss the
    /// evicted tuples.
    DropOldest(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_tracking_and_window() {
        assert!(!CreditPolicy::Unbounded.is_tracking());
        assert!(CreditPolicy::Window(4).is_tracking());
        assert_eq!(CreditPolicy::Unbounded.window(), None);
        assert_eq!(CreditPolicy::Window(4).window(), Some(4));
        assert_eq!(CreditPolicy::default(), CreditPolicy::Unbounded);
    }

    #[test]
    fn gauges_default_to_zero() {
        let g = FlowGauges::default();
        assert_eq!(g.delivered + g.queued + g.inflight_peak, 0);
        assert_eq!(g.stall_time, Duration::ZERO);
    }
}
