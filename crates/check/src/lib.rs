//! # borealis-check
//!
//! Model checker for the borealis concurrency core.
//!
//! **A bounded exhaustive interleaving explorer** ([`explore`]) in the
//! loom/CHESS style: test code runs on cooperative *virtual threads* (real
//! OS threads serialized so exactly one runs at a time), every operation on
//! the virtual sync primitives in [`sync`] is a scheduling point, and the
//! explorer enumerates schedules depth-first with an iterative *preemption
//! bound* — a context switch away from a thread that could have kept
//! running costs one unit of budget; switches at blocking points are free.
//! Violations (assertion failures, deadlocks, step-limit livelocks) abort
//! the run with a **replayable trace**: the sequence of branch choices,
//! which can be fed back through the `BOREALIS_MODEL_REPLAY` environment
//! variable to re-run exactly the failing schedule under a debugger.
//!
//! The runtime is model-checkable only while `crates/runtime` takes every
//! sync primitive from its `sync.rs` facade; `scripts/lints.sh` fails on a
//! direct `std::sync` use anywhere else there.
//!
//! Like the `crates/shims/*` crates, this crate has **no dependencies**:
//! the explorer is plain std. It compiles identically with and without
//! `--cfg borealis_model`; the cfg only switches which primitives the
//! *runtime's* facade re-exports.
//!
//! ## Model of the world
//!
//! The explorer checks *interleavings*, not memory orderings: because only
//! one virtual thread executes at a time, every execution is sequentially
//! consistent. Condvars have no memory (a notify with no waiter is lost,
//! like the real thing), `notify_one` deterministically wakes the
//! lowest-id waiter, and a *timed* wait is modeled by keeping the waiter
//! in the enabled set — scheduling it while still blocked is the timeout
//! firing. Test bodies must be deterministic (no wall clock, no OS
//! randomness); the explorer fails with a "diverged" violation otherwise.

pub mod sync;

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Exploration options: the knobs of the bounded search.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Maximum number of *preemptive* context switches per execution
    /// (switches at blocking points are free). Bound 2 already catches
    /// most real-world concurrency bugs (the CHESS observation).
    pub preemption_bound: usize,
    /// Per-execution scheduling-point budget; exceeding it is reported as
    /// a livelock violation.
    pub max_steps: u64,
    /// Hard cap on explored executions; exceeding it panics so a state
    /// space blow-up is loud, not slow.
    pub max_executions: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            preemption_bound: 2,
            max_steps: 20_000,
            max_executions: 500_000,
        }
    }
}

/// What an [`explore`] call did: the model tests print it, so a protocol
/// whose state space grows is visible.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Number of complete executions (interleavings) explored.
    pub executions: u64,
    /// The preemption bound the space was explored under.
    pub preemption_bound: usize,
    /// Deepest branch point (scheduling decision with ≥ 2 enabled
    /// threads) reached by any execution.
    pub max_branch_depth: usize,
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

/// Resource a virtual thread is blocked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockedOn {
    Mutex(u64),
    Cv { cv: u64, timed: bool },
    Join(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TState {
    Runnable,
    Blocked(BlockedOn),
    Finished,
}

#[derive(Debug, Default)]
pub(crate) struct MxInfo {
    pub held: bool,
    pub waiters: Vec<usize>,
}

#[derive(Debug, Default)]
pub(crate) struct CvInfo {
    pub waiters: Vec<usize>,
}

/// One branch point on the DFS path: a scheduling decision where more than
/// one thread was enabled.
#[derive(Debug)]
struct PathNode {
    /// Enabled thread ids, ascending.
    enabled: Vec<usize>,
    /// Default choice taken when this node was first created.
    first: usize,
    /// Choice for the current execution.
    choice: usize,
    /// Next index into `enabled` to consider when backtracking.
    next_alt: usize,
    /// Thread that was running when the decision was made.
    from: usize,
    /// True if `from` could have continued (so switching away costs one
    /// preemption).
    from_counts: bool,
    /// Preemptions spent on the path strictly before this node.
    preemptions_before: usize,
}

pub(crate) struct ExecState {
    pub threads: Vec<TState>,
    /// Per-thread flag: last condvar wake was a timeout, not a notify.
    pub timed_out: Vec<bool>,
    pub active: usize,
    branch_depth: usize,
    steps: u64,
    preemptions: usize,
    /// Choices taken at branch points this execution (the replay trace).
    trace: Vec<usize>,
    path: Vec<PathNode>,
    replay: Option<Vec<usize>>,
    pub failed: Option<String>,
    pub done: bool,
    pub mutexes: HashMap<u64, MxInfo>,
    pub condvars: HashMap<u64, CvInfo>,
    pub joiners: HashMap<usize, Vec<usize>>,
    pub handles: Vec<std::thread::JoinHandle<()>>,
    opts: Opts,
}

/// Shared handle to one execution: the real lock + condvar that serialize
/// the virtual threads.
pub(crate) struct Exec {
    pub st: StdMutex<ExecState>,
    pub cv: StdCondvar,
}

/// Panic payload used to silently unwind virtual threads once a violation
/// has been recorded (delivered with `resume_unwind`, so the panic hook
/// stays quiet).
struct Cancel;

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Exec>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with the current execution handle and virtual thread id.
/// Panics if called from outside [`explore`] — virtual primitives only
/// work on virtual threads.
pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<Exec>, usize) -> R) -> R {
    CURRENT.with(|c| {
        let b = c.borrow();
        let (ex, me) = b
            .as_ref()
            .expect("borealis-check virtual sync primitive used outside explore()");
        f(ex, *me)
    })
}

impl Exec {
    pub(crate) fn lock_st(&self) -> StdMutexGuard<'_, ExecState> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records a violation and wakes everyone so they can cancel. Never
    /// unwinds itself; callers fall through to `wait_until_active` (which
    /// cancels) or return.
    pub(crate) fn fail(&self, st: &mut StdMutexGuard<'_, ExecState>, msg: String) {
        if st.failed.is_none() {
            st.failed = Some(msg);
        }
        self.cv.notify_all();
    }

    fn enabled(st: &ExecState) -> Vec<usize> {
        st.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                matches!(
                    t,
                    TState::Runnable | TState::Blocked(BlockedOn::Cv { timed: true, .. })
                )
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// The scheduler: picks the next thread to run. `from` is the thread
    /// making the call; `from_counts` is true when it could have kept
    /// running (so switching away is a preemption).
    pub(crate) fn schedule_from(
        &self,
        st: &mut StdMutexGuard<'_, ExecState>,
        from: usize,
        from_counts: bool,
    ) {
        if st.failed.is_some() || st.done {
            self.cv.notify_all();
            return;
        }
        let enabled = Self::enabled(st);
        if enabled.is_empty() {
            let blocked: Vec<(usize, TState)> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| !matches!(t, TState::Finished))
                .map(|(i, t)| (i, *t))
                .collect();
            if blocked.is_empty() {
                st.done = true;
                self.cv.notify_all();
            } else {
                self.fail(
                    st,
                    format!("deadlock: no runnable thread, blocked: {blocked:?}"),
                );
            }
            return;
        }
        let from_counts = from_counts && enabled.contains(&from);
        let choice = if enabled.len() == 1 {
            enabled[0]
        } else {
            let d = st.branch_depth;
            st.branch_depth += 1;
            let c = if let Some(replay) = &st.replay {
                replay.get(d).copied().unwrap_or_else(|| {
                    if enabled.contains(&from) {
                        from
                    } else {
                        enabled[0]
                    }
                })
            } else if d < st.path.len() {
                st.path[d].choice
            } else {
                let first = if enabled.contains(&from) {
                    from
                } else {
                    enabled[0]
                };
                let preemptions_before = st.preemptions;
                st.path.push(PathNode {
                    enabled: enabled.clone(),
                    first,
                    choice: first,
                    next_alt: 0,
                    from,
                    from_counts,
                    preemptions_before,
                });
                first
            };
            st.trace.push(c);
            c
        };
        if !enabled.contains(&choice) {
            self.fail(
                st,
                format!(
                    "model execution diverged from the recorded schedule \
                     (chose {choice}, enabled {enabled:?}) — is the test body \
                     nondeterministic?"
                ),
            );
            return;
        }
        if from_counts && choice != from {
            st.preemptions += 1;
        }
        // Scheduling a timed-blocked waiter IS its timeout firing.
        if let TState::Blocked(BlockedOn::Cv { cv, timed: true }) = st.threads[choice] {
            if let Some(info) = st.condvars.get_mut(&cv) {
                info.waiters.retain(|&w| w != choice);
            }
            st.timed_out[choice] = true;
            st.threads[choice] = TState::Runnable;
        }
        st.active = choice;
        self.cv.notify_all();
    }

    /// Parks the calling virtual thread until the scheduler hands it the
    /// execution slot. Cancels (quiet unwind) if the execution failed.
    pub(crate) fn wait_until_active<'a>(
        &'a self,
        mut st: StdMutexGuard<'a, ExecState>,
        me: usize,
    ) -> StdMutexGuard<'a, ExecState> {
        loop {
            if st.failed.is_some() {
                drop(st);
                panic::resume_unwind(Box::new(Cancel));
            }
            if st.active == me && matches!(st.threads[me], TState::Runnable) {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A scheduling point: gives the explorer the chance to preempt the
/// calling virtual thread before its next visible operation. Called by
/// every operation in [`sync`]; no-op while unwinding so guard drops
/// during a violation don't re-enter the scheduler.
pub(crate) fn yield_point() {
    if std::thread::panicking() {
        return;
    }
    with_current(|ex, me| {
        let mut st = ex.lock_st();
        if st.failed.is_some() {
            drop(st);
            panic::resume_unwind(Box::new(Cancel));
        }
        st.steps += 1;
        if st.steps > st.opts.max_steps {
            let max = st.opts.max_steps;
            ex.fail(
                &mut st,
                format!("step limit exceeded ({max} scheduling points): possible livelock"),
            );
        }
        ex.schedule_from(&mut st, me, true);
        let st = ex.wait_until_active(st, me);
        drop(st);
    });
}

pub(crate) fn vthread_main(ex: Arc<Exec>, id: usize, f: impl FnOnce()) {
    CURRENT.with(|c| *c.borrow_mut() = Some((ex.clone(), id)));
    let r = panic::catch_unwind(AssertUnwindSafe(|| {
        // Wait to be scheduled for the first time.
        let st = ex.lock_st();
        let st = ex.wait_until_active(st, id);
        drop(st);
        f()
    }));
    let mut st = ex.lock_st();
    st.threads[id] = TState::Finished;
    if let Some(js) = st.joiners.remove(&id) {
        for j in js {
            st.threads[j] = TState::Runnable;
        }
    }
    match r {
        Ok(()) => ex.schedule_from(&mut st, id, false),
        Err(e) => {
            if !e.is::<Cancel>() && st.failed.is_none() {
                let msg = payload_to_string(&e);
                ex.fail(&mut st, format!("virtual thread {id} panicked: {msg}"));
            } else {
                ex.cv.notify_all();
            }
        }
    }
    drop(st);
    CURRENT.with(|c| *c.borrow_mut() = None);
}

fn payload_to_string(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// The DFS driver
// ---------------------------------------------------------------------------

struct ExecOutcome {
    failed: Option<String>,
    trace: Vec<usize>,
    path: Vec<PathNode>,
    branch_depth: usize,
}

fn run_once(
    opts: Opts,
    f: &Arc<dyn Fn() + Send + Sync>,
    path: Vec<PathNode>,
    replay: Option<Vec<usize>>,
) -> ExecOutcome {
    let ex = Arc::new(Exec {
        st: StdMutex::new(ExecState {
            threads: vec![TState::Runnable],
            timed_out: vec![false],
            active: 0,
            branch_depth: 0,
            steps: 0,
            preemptions: 0,
            trace: Vec::new(),
            path,
            replay,
            failed: None,
            done: false,
            mutexes: HashMap::new(),
            condvars: HashMap::new(),
            joiners: HashMap::new(),
            handles: Vec::new(),
            opts,
        }),
        cv: StdCondvar::new(),
    });
    let ex2 = ex.clone();
    let ff = f.clone();
    let root = std::thread::Builder::new()
        .name("vthread-0".into())
        .spawn(move || vthread_main(ex2, 0, move || ff()))
        .expect("spawn model root thread");
    let (failed, trace, path, branch_depth, handles) = {
        let mut st = ex.lock_st();
        while !(st.done || st.failed.is_some()) {
            st = ex.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        ex.cv.notify_all();
        (
            st.failed.clone(),
            std::mem::take(&mut st.trace),
            std::mem::take(&mut st.path),
            st.branch_depth,
            std::mem::take(&mut st.handles),
        )
    };
    let _ = root.join();
    for h in handles {
        let _ = h.join();
    }
    ExecOutcome {
        failed,
        trace,
        path,
        branch_depth,
    }
}

fn next_alternative(node: &mut PathNode, bound: usize) -> Option<usize> {
    while node.next_alt < node.enabled.len() {
        let c = node.enabled[node.next_alt];
        node.next_alt += 1;
        if c == node.first {
            continue;
        }
        let cost = node.preemptions_before + usize::from(node.from_counts && c != node.from);
        if cost <= bound {
            return Some(c);
        }
    }
    None
}

fn format_violation(msg: &str, trace: &[usize], opts: Opts, execution: u64) -> String {
    let t = trace
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "model violation (execution #{execution}, preemption bound {bound}): {msg}\n  \
         branch trace: [{t}]\n  \
         replay: BOREALIS_MODEL_REPLAY={t} RUSTFLAGS=\"--cfg borealis_model\" \
         cargo test -p borealis-runtime --lib <test-name> -- --nocapture",
        bound = opts.preemption_bound,
    )
}

fn explore_inner(opts: Opts, f: Arc<dyn Fn() + Send + Sync>) -> (Report, Option<String>) {
    let mut path: Vec<PathNode> = Vec::new();
    let mut executions: u64 = 0;
    let mut max_branch_depth = 0usize;
    loop {
        assert!(
            executions < opts.max_executions,
            "model state space exceeded max_executions ({}): shrink the test \
             or raise Opts::max_executions",
            opts.max_executions
        );
        let out = run_once(opts, &f, path, None);
        executions += 1;
        max_branch_depth = max_branch_depth.max(out.branch_depth);
        let report = Report {
            executions,
            preemption_bound: opts.preemption_bound,
            max_branch_depth,
        };
        if let Some(msg) = out.failed {
            return (
                report,
                Some(format_violation(&msg, &out.trace, opts, executions)),
            );
        }
        path = out.path;
        loop {
            let Some(node) = path.last_mut() else {
                return (report, None);
            };
            if let Some(alt) = next_alternative(node, opts.preemption_bound) {
                node.choice = alt;
                break;
            }
            path.pop();
        }
    }
}

/// Exhaustively explores every interleaving of `f` within the preemption
/// bound. Panics with a replayable trace on the first violation (assertion
/// failure, deadlock, or step-limit livelock); returns a [`Report`] of the
/// explored state space otherwise.
///
/// If `BOREALIS_MODEL_REPLAY=c1,c2,...` is set, runs exactly one execution
/// following that branch trace instead of exploring (run a single test so
/// the trace lines up with the right `explore` call).
pub fn explore(opts: Opts, f: impl Fn() + Send + Sync + 'static) -> Report {
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    if let Ok(replay) = std::env::var("BOREALIS_MODEL_REPLAY") {
        let choices: Vec<usize> = replay
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| s.trim().parse().expect("BOREALIS_MODEL_REPLAY: bad choice"))
            .collect();
        let out = run_once(opts, &f, Vec::new(), Some(choices));
        let report = Report {
            executions: 1,
            preemption_bound: opts.preemption_bound,
            max_branch_depth: out.branch_depth,
        };
        if let Some(msg) = out.failed {
            panic!("{}", format_violation(&msg, &out.trace, opts, 1));
        }
        return report;
    }
    match explore_inner(opts, f) {
        (report, None) => report,
        (_, Some(full)) => panic!("{full}"),
    }
}

/// Like [`explore`], but *expects* the seeded bug: returns the violation
/// message (with its replayable trace) and panics if the whole space is
/// explored without one. This is the mutation-check harness — it proves
/// the explorer can actually see a given bug class.
pub fn explore_expect_violation(opts: Opts, f: impl Fn() + Send + Sync + 'static) -> String {
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    match explore_inner(opts, f) {
        (report, Some(full)) => {
            assert!(
                full.contains("violation"),
                "violation message should be formatted: {full}"
            );
            let _ = report;
            full
        }
        (report, None) => panic!(
            "expected a model violation but none found in {} executions",
            report.executions
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{thread as vthread, Mutex};

    fn small() -> Opts {
        Opts {
            preemption_bound: 2,
            max_steps: 5_000,
            max_executions: 100_000,
        }
    }

    /// Two incrementers under a virtual mutex: no interleaving loses an
    /// update, and the explorer visits more than one schedule.
    #[test]
    fn mutex_counter_is_atomic() {
        let r = explore(small(), || {
            let n = std::sync::Arc::new(Mutex::new(0u32));
            let n2 = n.clone();
            let t = vthread::spawn(move || {
                let mut g = n2.lock();
                *g += 1;
            });
            {
                let mut g = n.lock();
                *g += 1;
            }
            t.join();
            assert_eq!(*n.lock(), 2);
        });
        assert!(r.executions > 1, "should branch: {r:?}");
    }

    /// An unsynchronized read-modify-write twin loses updates in some
    /// schedule — the explorer must find it and name a replayable trace.
    #[test]
    fn racy_counter_is_caught() {
        use crate::sync::AtomicU64;
        use std::sync::atomic::Ordering;
        let msg = explore_expect_violation(small(), || {
            let n = std::sync::Arc::new(AtomicU64::new(0));
            let n2 = n.clone();
            let t = vthread::spawn(move || {
                let v = n2.load(Ordering::SeqCst);
                n2.store(v + 1, Ordering::SeqCst);
            });
            let v = n.load(Ordering::SeqCst);
            n.store(v + 1, Ordering::SeqCst);
            t.join();
            assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
        });
        assert!(msg.contains("replay: BOREALIS_MODEL_REPLAY="), "{msg}");
    }

    /// A thread that locks a mutex and never unlocks while another waits
    /// is reported as a deadlock, not a hang.
    #[test]
    fn deadlock_is_reported() {
        let msg = explore_expect_violation(small(), || {
            let a = std::sync::Arc::new(Mutex::new(()));
            let b = std::sync::Arc::new(Mutex::new(()));
            let (a2, b2) = (a.clone(), b.clone());
            let t = vthread::spawn(move || {
                let ga = a2.lock();
                let gb = b2.lock();
                drop((ga, gb));
            });
            let gb = b.lock();
            let ga = a.lock();
            drop((ga, gb));
            t.join();
        });
        assert!(msg.contains("deadlock"), "{msg}");
    }

    /// A check-then-wait gap (flag tested, lock released, lock retaken,
    /// THEN wait) loses the only notify in the schedule where the
    /// notifier runs inside the gap — reported as a deadlock.
    #[test]
    fn lost_wakeup_is_caught() {
        use crate::sync::Condvar;
        let msg = explore_expect_violation(small(), || {
            let m = std::sync::Arc::new(Mutex::new(false));
            let cv = std::sync::Arc::new(Condvar::new());
            let (m2, cv2) = (m.clone(), cv.clone());
            let t = vthread::spawn(move || {
                *m2.lock() = true;
                cv2.notify_one();
            });
            let g = m.lock();
            if !*g {
                // BUG (seeded): the lock is dropped between the check and
                // the wait, so the notify can land in the gap and be lost.
                drop(g);
                let g2 = m.lock();
                let _ = cv.wait(g2);
            } else {
                drop(g);
            }
            t.join();
        });
        assert!(msg.contains("deadlock"), "{msg}");
    }

    /// Correct condvar protocol passes exhaustively.
    #[test]
    fn condvar_handshake_is_clean() {
        use crate::sync::Condvar;
        let r = explore(small(), || {
            let m = std::sync::Arc::new(Mutex::new(false));
            let cv = std::sync::Arc::new(Condvar::new());
            let (m2, cv2) = (m.clone(), cv.clone());
            let t = vthread::spawn(move || {
                *m2.lock() = true;
                cv2.notify_one();
            });
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
            drop(g);
            t.join();
        });
        assert!(r.executions >= 1);
    }
}
