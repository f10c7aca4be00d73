//! Scheduler observability types shared by the runtimes.
//!
//! The thread engine multiplexes every actor onto a fixed worker pool
//! (per-worker run queues with work stealing plus a global injector).
//! [`SchedGauges`] is the point-in-time export of that scheduler's
//! counters, surfaced next to [`FlowGauges`](crate::FlowGauges) so
//! scheduling behavior — steal pressure, queue depth, how long actors run
//! per activation — is measurable, never silent.

/// Upper bounds (exclusive, in microseconds) of the actor run-time
/// histogram buckets; the last bucket is unbounded. An "activation" is one
/// scheduled run of an actor: draining up to a batch of mailbox envelopes.
pub const RUN_BUCKET_BOUNDS_US: [u64; 4] = [10, 100, 1_000, 10_000];

/// Point-in-time counters of the worker-pool scheduler.
///
/// All counters are cumulative over the run except the `*_depth` /
/// `*_peak` gauges. Under the pooled engine every actor activation passes
/// through exactly one of `local_polls`, `global_polls`, or `steals` —
/// their sum is the total number of activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedGauges {
    /// Number of worker threads in the pool.
    pub workers: u64,
    /// Activations popped from the running worker's own queue.
    pub local_polls: u64,
    /// Activations popped from the global injector (cross-worker wakeups:
    /// fault notifications, shutdown, pushes from non-worker threads).
    pub global_polls: u64,
    /// Activations stolen from a sibling worker's queue.
    pub steals: u64,
    /// Times an idle worker parked (condvar wait; with its wake ≈ 24 µs of
    /// CPU on a 2-vCPU host, mostly system time — not free).
    pub parks: u64,
    /// Current local run-queue depth, summed over workers.
    pub local_depth: u64,
    /// Peak depth of any single worker's local queue.
    pub local_peak: u64,
    /// Current global injector depth.
    pub global_depth: u64,
    /// Peak global injector depth.
    pub global_peak: u64,
    /// Actor activation run-time histogram: `[<10µs, <100µs, <1ms, <10ms,
    /// ≥10ms]` (bounds in [`RUN_BUCKET_BOUNDS_US`]).
    pub run_hist: [u64; 5],
}

impl SchedGauges {
    /// Total actor activations (local + global + stolen).
    pub fn activations(&self) -> u64 {
        self.local_polls + self.global_polls + self.steals
    }

    /// The histogram bucket index for an activation that ran `micros` µs.
    pub fn bucket_for(micros: u64) -> usize {
        RUN_BUCKET_BOUNDS_US
            .iter()
            .position(|&b| micros < b)
            .unwrap_or(RUN_BUCKET_BOUNDS_US.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_range() {
        assert_eq!(SchedGauges::bucket_for(0), 0);
        assert_eq!(SchedGauges::bucket_for(9), 0);
        assert_eq!(SchedGauges::bucket_for(10), 1);
        assert_eq!(SchedGauges::bucket_for(999), 2);
        assert_eq!(SchedGauges::bucket_for(5_000), 3);
        assert_eq!(SchedGauges::bucket_for(10_000), 4);
        assert_eq!(SchedGauges::bucket_for(u64::MAX), 4);
    }

    #[test]
    fn activations_sum_the_poll_sources() {
        let g = SchedGauges {
            local_polls: 5,
            global_polls: 2,
            steals: 3,
            ..SchedGauges::default()
        };
        assert_eq!(g.activations(), 10);
        assert_eq!(SchedGauges::default(), SchedGauges::default());
    }
}
