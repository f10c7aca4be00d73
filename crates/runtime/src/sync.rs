//! The sync facade: every synchronization primitive used by this crate,
//! in one place.
//!
//! **The facade rule:** code in `crates/runtime` never names `std::sync`
//! directly — it imports from `crate::sync`. In normal builds everything
//! here is a zero-cost re-export of `std::sync`; under `--cfg
//! borealis_model` the same names resolve to the instrumented virtual
//! primitives from [`borealis_check::sync`], so the model checker can
//! enumerate interleavings of the real scheduler/ledger code. The rule is
//! enforced by a source-level lint (`scripts/lints.sh`, run in CI): a
//! direct `std::sync` use outside this module fails the build, because it
//! would silently escape the model.
//!
//! The facade is also where the **poisoned-lock policy** lives: the
//! runtime's state machines guarantee exclusive access (a task is Running
//! on at most one worker), so a panic that poisoned a lock left no torn
//! invariant behind — every acquisition goes through [`relock`] /
//! [`cv_wait`] / [`cv_wait_timeout`], which strip the `PoisonError` in one
//! place instead of ad-hoc `unwrap_or_else` calls at every site. (The
//! virtual primitives don't poison at all — a model execution dies as a
//! whole — so the helpers keep one signature across both builds.)

#[cfg(not(borealis_model))]
mod imp {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::PoisonError;
    pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::Duration;

    /// Locks a mutex, tolerating poisoning (see module docs).
    pub fn relock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Condvar wait, tolerating poisoning.
    pub fn cv_wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        cv.wait(g).unwrap_or_else(PoisonError::into_inner)
    }

    /// Condvar wait with timeout; the second return value is `true` if
    /// the wait timed out.
    pub fn cv_wait_timeout<'a, T>(
        cv: &Condvar,
        g: MutexGuard<'a, T>,
        d: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let (g, r) = cv
            .wait_timeout(g, d)
            .unwrap_or_else(PoisonError::into_inner);
        (g, r.timed_out())
    }
}

#[cfg(borealis_model)]
mod imp {
    pub use borealis_check::sync::{
        AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard,
    };
    pub use std::sync::atomic::Ordering;
    pub use std::sync::Arc;
    use std::time::Duration;

    /// Locks a virtual mutex (no poisoning in the model).
    pub fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock()
    }

    /// Virtual condvar wait.
    pub fn cv_wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        cv.wait(g)
    }

    /// Virtual condvar wait where the timeout is a scheduling choice of
    /// the explorer (the duration itself is ignored).
    pub fn cv_wait_timeout<'a, T>(
        cv: &Condvar,
        g: MutexGuard<'a, T>,
        d: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        cv.wait_timeout(g, d)
    }
}

pub use imp::*;
