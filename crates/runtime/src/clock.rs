//! The monotonic wall clock shared by every thread of a runtime.

use borealis_types::Time;
use std::time::Instant;

/// Maps `std::time::Instant` onto the protocol's [`Time`] axis: zero at
/// runtime start, microsecond resolution — the same axis the simulator
/// uses for virtual time, so every period (`heartbeat_period`, a
/// checkpoint interval, …) means the same thing under both runtimes.
#[derive(Debug, Clone, Copy)]
pub struct MonotonicClock {
    start: Instant,
}

impl MonotonicClock {
    /// Starts the clock: `now()` is zero at this instant.
    pub fn start() -> MonotonicClock {
        MonotonicClock {
            start: Instant::now(),
        }
    }

    /// Microseconds elapsed since the runtime started.
    pub fn now(&self) -> Time {
        Time(self.start.elapsed().as_micros() as u64)
    }

    /// Std-duration until `at` (zero if already past).
    pub fn until(&self, at: Time) -> std::time::Duration {
        let now = self.now();
        std::time::Duration::from_micros(at.as_micros().saturating_sub(now.as_micros()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_starts_at_zero() {
        let c = MonotonicClock::start();
        let a = c.now();
        let b = c.now();
        assert!(a <= b);
        assert!(a.as_micros() < 1_000_000, "fresh clock is near zero");
    }

    #[test]
    fn until_saturates_for_past_instants() {
        let c = MonotonicClock::start();
        assert_eq!(c.until(Time::ZERO), std::time::Duration::ZERO);
        assert!(c.until(Time::from_secs(3600)) > std::time::Duration::from_secs(3000));
    }
}
