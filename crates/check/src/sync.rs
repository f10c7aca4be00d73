//! Virtual sync primitives for model executions.
//!
//! Same shapes as `std::sync` minus poisoning (a model execution dies as a
//! whole on panic, so poison never escapes): [`Mutex::lock`] returns the
//! guard directly. Every operation is a scheduling point for the explorer
//! in [`crate::explore`]; the data itself lives in an uncontended real
//! primitive (only one virtual thread runs at a time), while *ownership*
//! is tracked virtually so the explorer can see blocking and interleave
//! around it.
//!
//! These types only work on virtual threads (inside `explore`); using them
//! outside panics with a clear message.

use crate::{with_current, yield_point, BlockedOn, TState};
use std::sync::atomic::Ordering;
use std::time::Duration;

fn next_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Virtual mutex: blocking is visible to the explorer.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    id: u64,
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex`]; virtual release on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    release_virtual: bool,
}

impl<T> Mutex<T> {
    /// Creates a new virtual mutex.
    pub fn new(t: T) -> Self {
        Mutex {
            id: next_id(),
            inner: std::sync::Mutex::new(t),
        }
    }

    /// Acquires the lock, blocking the virtual thread (visibly to the
    /// explorer) while another virtual thread holds it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        acquire_mutex(self.id);
        MutexGuard {
            lock: self,
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            release_virtual: true,
        }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if self.release_virtual {
            release_mutex(self.lock.id);
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

fn acquire_mutex(id: u64) {
    yield_point();
    with_current(|ex, me| {
        let mut st = ex.lock_st();
        loop {
            let info = st.mutexes.entry(id).or_default();
            if !info.held {
                info.held = true;
                return;
            }
            info.waiters.push(me);
            st.threads[me] = TState::Blocked(BlockedOn::Mutex(id));
            ex.schedule_from(&mut st, me, false);
            st = ex.wait_until_active(st, me);
        }
    });
}

fn release_mutex(id: u64) {
    // The release is immediately visible; the *next* operation's yield
    // point is the preemption opportunity, so no scheduling here.
    with_current(|ex, _me| {
        let mut st = ex.lock_st();
        let info = st.mutexes.entry(id).or_default();
        info.held = false;
        let ws = std::mem::take(&mut info.waiters);
        for w in ws {
            st.threads[w] = TState::Runnable;
        }
    });
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Virtual condvar. No memory (a notify with no waiter is lost, like the
/// real one); `notify_one` wakes the lowest-id waiter; a timed wait keeps
/// the waiter in the enabled set — the explorer scheduling it while still
/// blocked *is* the timeout firing, so "timeout races notify" schedules
/// are explored.
#[derive(Debug)]
pub struct Condvar {
    id: u64,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// Creates a new virtual condvar.
    pub fn new() -> Self {
        Condvar { id: next_id() }
    }

    /// Releases the guard, blocks until notified, reacquires.
    pub fn wait<'a, T>(&self, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait_inner(g, false).0
    }

    /// Like [`Condvar::wait`] but the waiter may also wake by timeout
    /// (second return value `true`); the actual duration is ignored —
    /// timeouts are a scheduling choice in the model.
    pub fn wait_timeout<'a, T>(
        &self,
        g: MutexGuard<'a, T>,
        _d: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        self.wait_inner(g, true)
    }

    fn wait_inner<'a, T>(
        &self,
        mut g: MutexGuard<'a, T>,
        timed: bool,
    ) -> (MutexGuard<'a, T>, bool) {
        let lock = g.lock;
        // Release the real lock now; suppress the virtual release so it
        // can happen atomically with the waiter registration below.
        drop(g.inner.take());
        g.release_virtual = false;
        drop(g);
        let timed_out = with_current(|ex, me| {
            let mut st = ex.lock_st();
            // Atomically: release the mutex and become a condvar waiter.
            let info = st.mutexes.entry(lock.id).or_default();
            info.held = false;
            let ws = std::mem::take(&mut info.waiters);
            for w in ws {
                st.threads[w] = TState::Runnable;
            }
            st.condvars.entry(self.id).or_default().waiters.push(me);
            st.timed_out[me] = false;
            st.threads[me] = TState::Blocked(BlockedOn::Cv { cv: self.id, timed });
            ex.schedule_from(&mut st, me, false);
            st = ex.wait_until_active(st, me);
            st.timed_out[me]
        });
        (lock.lock(), timed_out)
    }

    /// Wakes the lowest-id waiter, if any (lost otherwise).
    pub fn notify_one(&self) {
        with_current(|ex, _me| {
            let mut st = ex.lock_st();
            if let Some(info) = st.condvars.get_mut(&self.id) {
                if let Some(&w) = info.waiters.iter().min() {
                    info.waiters.retain(|&x| x != w);
                    st.timed_out[w] = false;
                    st.threads[w] = TState::Runnable;
                }
            }
        });
    }

    /// Wakes every current waiter.
    pub fn notify_all(&self) {
        with_current(|ex, _me| {
            let mut st = ex.lock_st();
            if let Some(info) = st.condvars.get_mut(&self.id) {
                let ws = std::mem::take(&mut info.waiters);
                for w in ws {
                    st.timed_out[w] = false;
                    st.threads[w] = TState::Runnable;
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

macro_rules! model_atomic_int {
    ($name:ident, $std:ty, $prim:ty) => {
        /// Virtual atomic: storage is the real atomic (uncontended — one
        /// virtual thread runs at a time), but every operation is a
        /// scheduling point. Orderings are accepted and ignored: model
        /// executions are sequentially consistent by construction.
        #[derive(Debug, Default)]
        pub struct $name($std);

        impl $name {
            /// Creates a new virtual atomic.
            pub const fn new(v: $prim) -> Self {
                $name(<$std>::new(v))
            }

            /// Atomic load (scheduling point).
            pub fn load(&self, _o: Ordering) -> $prim {
                yield_point();
                self.0.load(Ordering::SeqCst)
            }

            /// Atomic store (scheduling point).
            pub fn store(&self, v: $prim, _o: Ordering) {
                yield_point();
                self.0.store(v, Ordering::SeqCst)
            }

            /// Atomic add (scheduling point).
            pub fn fetch_add(&self, v: $prim, _o: Ordering) -> $prim {
                yield_point();
                self.0.fetch_add(v, Ordering::SeqCst)
            }
        }
    };
}

model_atomic_int!(AtomicU64, std::sync::atomic::AtomicU64, u64);
model_atomic_int!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

/// Virtual atomic bool; see the integer atomics for the model.
#[derive(Debug, Default)]
pub struct AtomicBool(std::sync::atomic::AtomicBool);

impl AtomicBool {
    /// Creates a new virtual atomic bool.
    pub const fn new(v: bool) -> Self {
        AtomicBool(std::sync::atomic::AtomicBool::new(v))
    }

    /// Atomic load (scheduling point).
    pub fn load(&self, _o: Ordering) -> bool {
        yield_point();
        self.0.load(Ordering::SeqCst)
    }

    /// Atomic store (scheduling point).
    pub fn store(&self, v: bool, _o: Ordering) {
        yield_point();
        self.0.store(v, Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

/// Virtual threads: spawn/join that the explorer schedules.
pub mod thread {
    use crate::{with_current, yield_point, BlockedOn, TState};

    /// Handle to a virtual thread.
    #[must_use = "a virtual thread should be joined before the test body returns"]
    pub struct JoinHandle {
        id: usize,
    }

    /// Spawns a virtual thread running `f` under the explorer's schedule.
    pub fn spawn<F: FnOnce() + Send + 'static>(f: F) -> JoinHandle {
        let id = with_current(|ex, _me| {
            let mut st = ex.lock_st();
            st.threads.push(TState::Runnable);
            st.timed_out.push(false);
            let id = st.threads.len() - 1;
            let ex2 = ex.clone();
            let h = std::thread::Builder::new()
                .name(format!("vthread-{id}"))
                .spawn(move || crate::vthread_main(ex2, id, f))
                .expect("spawn virtual thread");
            st.handles.push(h);
            id
        });
        // The child is now schedulable: make the spawn itself visible.
        yield_point();
        JoinHandle { id }
    }

    impl JoinHandle {
        /// Blocks (visibly to the explorer) until the thread finishes.
        pub fn join(self) {
            with_current(|ex, me| {
                let mut st = ex.lock_st();
                loop {
                    if matches!(st.threads[self.id], TState::Finished) {
                        return;
                    }
                    st.joiners.entry(self.id).or_default().push(me);
                    st.threads[me] = TState::Blocked(BlockedOn::Join(self.id));
                    ex.schedule_from(&mut st, me, false);
                    st = ex.wait_until_active(st, me);
                }
            });
        }
    }
}
