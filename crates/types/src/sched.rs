//! Scheduler observability types shared by the runtimes.
//!
//! The thread engine multiplexes every actor onto a fixed worker pool that
//! shares one run queue. [`SchedGauges`] is the point-in-time export of
//! that scheduler's counters, surfaced next to
//! [`FlowGauges`](crate::FlowGauges) so scheduling behavior — how often
//! work moves between workers, queue depth, how long actors run per
//! activation — is measurable, never silent.

/// Upper bounds (exclusive, in microseconds) of the actor run-time
/// histogram buckets; the last bucket is unbounded. An "activation" is one
/// scheduled run of an actor: draining up to a batch of mailbox envelopes.
pub const RUN_BUCKET_BOUNDS_US: [u64; 4] = [10, 100, 1_000, 10_000];

/// Point-in-time counters of the worker-pool scheduler.
///
/// All counters are cumulative over the run except `local_depth`. Each
/// actor activation is classified by where the task it ran was queued
/// from: exactly one of `local_polls`, `global_polls` or `steals` counts
/// it, so their sum is the total number of activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedGauges {
    /// Number of worker threads in the pool.
    pub workers: u64,
    /// Activations run by the worker whose activation queued the task.
    pub local_polls: u64,
    /// Activations of tasks queued from outside the pool: the actors'
    /// starts, socket readers, shutdown.
    pub global_polls: u64,
    /// Activations run by a worker other than the one whose activation
    /// queued the task — a cross-core move.
    pub steals: u64,
    /// Times an idle worker parked (condvar wait; with its wake ≈ 24 µs of
    /// CPU on a 2-vCPU host, mostly system time — not free).
    pub parks: u64,
    /// Current depth of the pool's one run queue.
    pub local_depth: u64,
    /// Peak depth of the run queue.
    pub local_peak: u64,
    /// Actor activation run-time histogram: `[<10µs, <100µs, <1ms, <10ms,
    /// ≥10ms]` (bounds in [`RUN_BUCKET_BOUNDS_US`]).
    pub run_hist: [u64; 5],
}

impl SchedGauges {
    /// Total actor activations (local + global + moved).
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
