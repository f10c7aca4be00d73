//! The work-stealing scheduling fabric of the pooled thread engine.
//!
//! Every actor is a [`Task`]: a mailbox of activation [`Input`]s plus its
//! protocol state, runnable by any worker. The scheduler's contract is the
//! *queued-exactly-once* state machine — a mailbox push transitions an
//! Idle task to Queued and enqueues it on exactly one run queue; pushes to
//! a Queued or Running task only append to the mailbox. A worker that
//! drains a task's mailbox transitions it back to Idle under the mailbox
//! lock, so no envelope can arrive between "queue observed empty" and
//! "state set Idle" without re-queueing the task.
//!
//! Run queues come in two kinds:
//!
//! * one **local queue per worker** — pushes made *by* a worker land on
//!   its own queue (locality) and wake nobody: the worker runs them after
//!   its activation, before it may park. Idle siblings steal from the back;
//! * a **global injector** — pushes from non-worker threads (socket
//!   readers, shutdown) land here and deposit a wake token.
//!
//! Idle workers park on a token condvar ([`IdleLot`]): a worker observing
//! empty queues either consumes a pending token and rescans or sleeps
//! until the next deposit — wakeups are never lost. A park and its wake
//! cost ≈ 24 µs of CPU on a 2-vCPU host, so a worker brings a sibling in
//! only for **backlog** — its own queue's oldest task waited over
//! [`BACKLOG`] — and a light cascade of activations stays on one core. One
//! parked worker, the **timekeeper**, waits for the wheel's next deadline.
//!
//! FIFO guarantees: one mailbox is one `VecDeque` behind one mutex, and a
//! task is Running on at most one worker at a time, so per-sender delivery
//! order is preserved no matter which workers run the task or how runs
//! interleave with steals.

use crate::sync::{
    cv_wait, cv_wait_timeout, relock, Arc, AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex,
    Ordering,
};
use crate::SharedFabric;
use borealis_dpc::{DpcActor, NetMsg};
use borealis_sim::{ActorCell, Input};
use borealis_types::{Duration, NodeId, SchedGauges, Time};
use rand::rngs::StdRng;
use std::collections::VecDeque;

/// How long the oldest task on a worker's own queue may wait before the
/// worker wakes a sibling to steal (checked as it queues a task and after
/// each activation): about forty park-and-wake costs.
const BACKLOG: Duration = Duration::from_millis(1);

/// A worker's own run queue: each task with the instant it was queued.
type LocalQueue = VecDeque<(Arc<Task>, Time)>;

/// True if the oldest task of `q` has waited longer than [`BACKLOG`].
fn backlogged(q: &LocalQueue, now: Time) -> bool {
    q.front().is_some_and(|&(_, at)| now - at > BACKLOG)
}

/// One delivery into a task's mailbox.
pub(crate) enum Envelope {
    /// One input of the activation step, in mailbox order: the start, a
    /// message, a timer that came due on the pool wheel, a fault.
    Input(Input<NetMsg>),
    /// Orderly shutdown: process everything queued before this, then stop.
    Stop,
}

/// Scheduling state of a task — the queued-exactly-once machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RunState {
    /// Mailbox empty, not on any run queue.
    Idle,
    /// On exactly one run queue (or in a worker's hand, pre-`begin`).
    Queued,
    /// A worker is draining the mailbox.
    Running,
}

struct MailboxInner {
    queue: VecDeque<Envelope>,
    state: RunState,
    /// Stop processed (or the actor panicked): further pushes are dropped
    /// silently, like a connection reset during teardown.
    stopped: bool,
}

/// One schedulable actor.
pub(crate) struct Task {
    pub(crate) id: NodeId,
    mailbox: Mutex<MailboxInner>,
    /// The mutable protocol half — the actor's cell and the pool's
    /// per-actor RNG — locked by the running worker. The run-state machine
    /// makes the lock uncontended: a task is Running on at most one worker,
    /// and nothing else touches the actor.
    pub(crate) cell: Mutex<(ActorCell<NetMsg>, StdRng)>,
}

impl Task {
    /// A Queued task whose mailbox holds its `Start`, as the simulator
    /// queues one for every actor it adds.
    fn new(id: NodeId, actor: Box<dyn DpcActor<NetMsg>>, rng: StdRng) -> Task {
        Task {
            id,
            mailbox: Mutex::new(MailboxInner {
                queue: VecDeque::from([Envelope::Input(Input::Start)]),
                state: RunState::Queued,
                stopped: false,
            }),
            cell: Mutex::new((ActorCell::new(actor), rng)),
        }
    }

    /// The dequeuing worker takes ownership: Queued → Running.
    pub(crate) fn begin(&self) {
        let mut mb = relock(&self.mailbox);
        debug_assert_eq!(mb.state, RunState::Queued);
        mb.state = RunState::Running;
    }

    /// Pops the next envelope while Running; `None` transitions the task
    /// back to Idle (mailbox drained) under the same lock, closing the
    /// push race.
    pub(crate) fn pop_envelope(&self) -> Option<Envelope> {
        let mut mb = relock(&self.mailbox);
        debug_assert!(
            mb.state == RunState::Running || mb.stopped,
            "pop_envelope on a task that is not Running: {:?}",
            mb.state
        );
        match mb.queue.pop_front() {
            Some(env) => Some(env),
            None => {
                mb.state = RunState::Idle;
                None
            }
        }
    }

    /// Ends an activation that hit its batch budget: Running → Queued if
    /// work remains (caller re-enqueues; returns `true`), else → Idle.
    pub(crate) fn yield_back(&self) -> bool {
        let mut mb = relock(&self.mailbox);
        debug_assert!(
            mb.state == RunState::Running || mb.stopped,
            "yield_back on a task that is not Running: {:?}",
            mb.state
        );
        if mb.queue.is_empty() {
            mb.state = RunState::Idle;
            false
        } else {
            mb.state = RunState::Queued;
            true
        }
    }

    /// Marks the task stopped (Stop processed, or the actor panicked):
    /// drops everything still queued and refuses future pushes. Returns
    /// `false` if it was already stopped.
    pub(crate) fn mark_stopped(&self) -> bool {
        let mut mb = relock(&self.mailbox);
        if mb.stopped {
            return false;
        }
        mb.stopped = true;
        mb.queue.clear();
        mb.state = RunState::Idle;
        true
    }
}

/// The token-based parking lot: `unpark_one` deposits a wake token
/// (capped at the worker count) and signals a parked worker, if any; a
/// parking worker first consumes a pending token (then rescans the queues)
/// and only sleeps when none is banked. The token closes the
/// scan-then-sleep race — a push landing between a worker's empty scan and
/// its sleep leaves a token the sleep consumes immediately.
pub(crate) struct IdleLot {
    pub(crate) lot: Mutex<Lot>,
    cv: Condvar,
    cap: usize,
}

#[derive(Default)]
pub(crate) struct Lot {
    pub(crate) tokens: usize,
    /// Each parked worker's deadline, `None` if it waits for a token only.
    pub(crate) parked: Vec<Option<Time>>,
}

impl IdleLot {
    pub(crate) fn new(cap: usize) -> IdleLot {
        let (lot, cv) = (Mutex::new(Lot::default()), Condvar::new());
        IdleLot { lot, cv, cap }
    }

    pub(crate) fn unpark_one(&self) {
        let mut lot = relock(&self.lot);
        if lot.tokens < self.cap {
            lot.tokens += 1;
        }
        debug_assert!(lot.tokens <= self.cap, "token bank never exceeds the cap");
        let parked = !lot.parked.is_empty();
        drop(lot);
        if parked {
            self.cv.notify_one();
        }
    }

    fn unpark_all(&self) {
        relock(&self.lot).tokens = self.cap;
        self.cv.notify_all();
    }

    /// Parks until a token is available or, if no parked worker waits for
    /// an earlier or equal deadline, until the caller's earliest deadline
    /// `due` (its instant and the time left to it) — the pool needs one
    /// timekeeper. Consumes at most one token.
    pub(crate) fn park(&self, due: Option<(Time, std::time::Duration)>) {
        let mut lot = relock(&self.lot);
        if lot.tokens > 0 {
            lot.tokens -= 1;
            return;
        }
        let due = due.filter(|(at, _)| lot.parked.iter().flatten().all(|t| t > at));
        let wait = due.map(|(at, _)| at);
        lot.parked.push(wait);
        match due {
            Some((_, d)) => lot = cv_wait_timeout(&self.cv, lot, d).0,
            None => {
                while lot.tokens == 0 {
                    lot = cv_wait(&self.cv, lot);
                }
            }
        }
        lot.tokens = lot.tokens.saturating_sub(1);
        let me = lot.parked.iter().position(|w| *w == wait).expect("listed");
        lot.parked.swap_remove(me);
    }
}

/// Cumulative scheduler counters (atomics; relaxed — totals are exact
/// only after shutdown).
#[derive(Default)]
struct SchedCounters {
    local_polls: AtomicU64,
    global_polls: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    local_peak: AtomicU64,
    global_peak: AtomicU64,
    run_hist: [AtomicU64; 5],
}

/// The shared scheduling fabric: every task, every run queue, the parking
/// lot, and the shutdown rendezvous.
pub(crate) struct Scheduler {
    pub(crate) tasks: Vec<Arc<Task>>,
    locals: Vec<Mutex<LocalQueue>>,
    injector: Mutex<VecDeque<Arc<Task>>>,
    pub(crate) idle: IdleLot,
    counters: SchedCounters,
    /// Set when shutdown begins, before the Stops go out: a scripted fault
    /// due from then on is never applied, so the statistics a shutdown
    /// returns cannot change behind it.
    stopping: AtomicBool,
    /// Set once every task has stopped: workers exit their loops.
    exiting: AtomicBool,
    stopped: AtomicUsize,
    exit_mx: Mutex<()>,
    exit_cv: Condvar,
    /// Worker names that panicked while running an actor.
    crashed: Mutex<Vec<String>>,
}

impl Scheduler {
    /// Builds the fabric and seeds every task, its `Start` queued, onto
    /// the run queues round-robin, so each actor's `on_start` runs as soon
    /// as a worker picks it up.
    pub(crate) fn new(
        actors: Vec<(Box<dyn DpcActor<NetMsg>>, StdRng)>,
        workers: usize,
    ) -> Scheduler {
        let tasks: Vec<Arc<Task>> = actors
            .into_iter()
            .enumerate()
            .map(|(i, (actor, rng))| Arc::new(Task::new(NodeId(i as u32), actor, rng)))
            .collect();
        let mut locals: Vec<LocalQueue> = (0..workers).map(|_| VecDeque::new()).collect();
        for (i, task) in tasks.iter().enumerate() {
            locals[i % workers].push_back((Arc::clone(task), Time::ZERO));
        }
        Scheduler {
            tasks,
            locals: locals.into_iter().map(Mutex::new).collect(),
            injector: Mutex::new(VecDeque::new()),
            idle: IdleLot::new(workers),
            counters: SchedCounters::default(),
            stopping: AtomicBool::new(false),
            exiting: AtomicBool::new(false),
            stopped: AtomicUsize::new(0),
            exit_mx: Mutex::new(()),
            exit_cv: Condvar::new(),
            crashed: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn workers(&self) -> usize {
        self.locals.len()
    }

    pub(crate) fn actors(&self) -> impl Iterator<Item = NodeId> {
        (0..self.tasks.len() as u32).map(NodeId)
    }

    #[cfg(test)]
    pub(crate) fn task(&self, id: NodeId) -> Option<&Arc<Task>> {
        self.tasks.get(id.index())
    }

    /// Delivers `env` into `to`'s mailbox, transitioning an Idle task to
    /// Queued exactly once. `from_worker` is the pushing worker's index
    /// and clock reading (its local queue takes the task); non-worker
    /// threads pass `None` (the global injector takes it). Pushes to a
    /// stopped task are dropped silently.
    pub(crate) fn push(&self, to: NodeId, env: Envelope, from_worker: Option<(usize, Time)>) {
        let Some(task) = self.tasks.get(to.index()) else {
            return;
        };
        let newly_queued = {
            let mut mb = relock(&task.mailbox);
            if mb.stopped {
                return;
            }
            mb.queue.push_back(env);
            if mb.state == RunState::Idle {
                mb.state = RunState::Queued;
                true
            } else {
                false
            }
        };
        if newly_queued {
            self.enqueue(Arc::clone(task), from_worker);
        }
    }

    /// Returns one credit of the local link `from → to` and delivers the
    /// queued message it releases, if any, into `to`'s mailbox **before
    /// letting go of the fabric lock**: a link's credits come back from
    /// several threads (the receiver's activation, `Replenish` entries that
    /// other workers pop off the pool wheel), and pushing after the unlock
    /// would let two of them swap consecutive messages. Lock order is wheel
    /// → fabric → mailbox → run queue → idle lot everywhere.
    pub(crate) fn release_credit(
        &self,
        fabric: &SharedFabric,
        from: NodeId,
        to: NodeId,
        now: Time,
        from_worker: Option<usize>,
    ) {
        let mut fabric = relock(fabric);
        if let Some(msg) = fabric.consumed(from, to, now) {
            let message = Input::Message { from, msg };
            self.push(to, Envelope::Input(message), from_worker.map(|w| (w, now)));
        }
    }

    /// Puts an already-Queued task on a run queue (batch-budget yields come
    /// through here too), waking a worker for the injector or a backlog.
    pub(crate) fn enqueue(&self, task: Arc<Task>, from_worker: Option<(usize, Time)>) {
        let (depth, peak, wake) = match from_worker {
            Some((w, now)) => {
                let mut q = relock(&self.locals[w]);
                q.push_back((task, now));
                (q.len(), &self.counters.local_peak, backlogged(&q, now))
            }
            None => {
                let mut q = relock(&self.injector);
                q.push_back(task);
                (q.len(), &self.counters.global_peak, true)
            }
        };
        peak.fetch_max(depth as u64, Ordering::Relaxed);
        if wake {
            self.idle.unpark_one();
        }
    }

    /// Finds the next runnable task for worker `w` at `now`: own queue
    /// front (waking a sibling if what stays behind it is backlogged),
    /// then the global injector, then steal from a sibling's back.
    pub(crate) fn pop(&self, w: usize, now: Time) -> Option<Arc<Task>> {
        let mut own = relock(&self.locals[w]);
        if let Some((t, _)) = own.pop_front() {
            let wake = backlogged(&own, now);
            drop(own);
            if wake {
                self.idle.unpark_one();
            }
            self.counters.local_polls.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
        drop(own);
        let injected = relock(&self.injector).pop_front();
        if let Some(t) = injected {
            self.counters.global_polls.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
        let n = self.locals.len();
        for off in 1..n {
            let stolen = relock(&self.locals[(w + off) % n]).pop_back();
            if let Some((t, _)) = stolen {
                self.counters.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// Parks the calling worker ([`IdleLot::park`]).
    pub(crate) fn park(&self, due: Option<(Time, std::time::Duration)>) {
        self.counters.parks.fetch_add(1, Ordering::Relaxed);
        self.idle.park(due);
    }

    /// Records one actor activation's run time in the histogram.
    pub(crate) fn record_run(&self, elapsed: std::time::Duration) {
        let bucket = SchedGauges::bucket_for(elapsed.as_micros() as u64);
        self.counters.run_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// One task stopped for good (Stop processed or actor panicked). The
    /// last one releases [`Scheduler::wait_all_stopped`].
    pub(crate) fn note_stopped(&self) {
        let stopped = self.stopped.fetch_add(1, Ordering::AcqRel) + 1;
        if stopped >= self.tasks.len() {
            let _g = relock(&self.exit_mx);
            self.exit_cv.notify_all();
        }
    }

    /// Records a worker panic while running an actor.
    pub(crate) fn note_crashed(&self, task_name: String) {
        relock(&self.crashed).push(task_name);
    }

    /// Names of actors that panicked so far.
    pub(crate) fn crashed(&self) -> Vec<String> {
        relock(&self.crashed).clone()
    }

    /// Blocks until every task has processed its Stop (or died).
    pub(crate) fn wait_all_stopped(&self) {
        let mut g = relock(&self.exit_mx);
        while self.stopped.load(Ordering::Acquire) < self.tasks.len() {
            g = cv_wait(&self.exit_cv, g);
        }
    }

    /// Begins shutdown: from now on no scripted fault applies, and every
    /// task stops once it has drained what it had queued before its Stop.
    pub(crate) fn stop_all(&self) {
        self.stopping.store(true, Ordering::Release);
        for task in &self.tasks {
            self.push(task.id, Envelope::Stop, None);
        }
    }

    /// True once [`Scheduler::stop_all`] has begun shutdown.
    pub(crate) fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    /// Tells every worker to exit and wakes them all.
    pub(crate) fn begin_exit(&self) {
        self.exiting.store(true, Ordering::Release);
        self.idle.unpark_all();
    }

    pub(crate) fn exiting(&self) -> bool {
        self.exiting.load(Ordering::Acquire)
    }

    /// Point-in-time scheduler gauges (depths read under the queue locks;
    /// a cold path).
    pub(crate) fn gauges(&self) -> SchedGauges {
        let c = &self.counters;
        SchedGauges {
            workers: self.locals.len() as u64,
            local_polls: c.local_polls.load(Ordering::Relaxed),
            global_polls: c.global_polls.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            parks: c.parks.load(Ordering::Relaxed),
            local_depth: self.locals.iter().map(|q| relock(q).len() as u64).sum(),
            local_peak: c.local_peak.load(Ordering::Relaxed),
            global_depth: relock(&self.injector).len() as u64,
            global_peak: c.global_peak.load(Ordering::Relaxed),
            run_hist: [
                c.run_hist[0].load(Ordering::Relaxed),
                c.run_hist[1].load(Ordering::Relaxed),
                c.run_hist[2].load(Ordering::Relaxed),
                c.run_hist[3].load(Ordering::Relaxed),
                c.run_hist[4].load(Ordering::Relaxed),
            ],
        }
    }
}

#[cfg(all(test, not(borealis_model)))]
mod tests {
    use super::*;
    use borealis_dpc::RuntimeCtx;
    use rand::SeedableRng;

    struct Inert;
    impl DpcActor<NetMsg> for Inert {
        fn on_message(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _from: NodeId, _msg: NetMsg) {}
        fn on_timer(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _kind: u64) {}
    }

    fn sched(n_actors: usize, workers: usize) -> Scheduler {
        let actors = (0..n_actors)
            .map(|i| {
                (
                    Box::new(Inert) as Box<dyn DpcActor<NetMsg>>,
                    StdRng::seed_from_u64(i as u64),
                )
            })
            .collect();
        Scheduler::new(actors, workers)
    }

    /// A due timer of `kind`, as the pool wheel hands it to a mailbox.
    fn timer(kind: u64) -> Envelope {
        Envelope::Input(Input::Timer {
            kind,
            incarnation: 0,
        })
    }

    /// The kind of a popped timer.
    fn timer_kind(env: Option<Envelope>) -> Option<u64> {
        match env? {
            Envelope::Input(Input::Timer { kind, .. }) => Some(kind),
            _ => None,
        }
    }

    /// Drains the initial seeding so every task is Idle.
    fn drain_initial(s: &Scheduler) {
        for w in 0..s.workers() {
            while let Some(t) = s.pop(w, Time::ZERO) {
                t.begin();
                while t.pop_envelope().is_some() {}
            }
        }
    }

    #[test]
    fn push_queues_idle_task_exactly_once() {
        let s = sched(2, 2);
        drain_initial(&s);
        s.push(NodeId(0), timer(1), None);
        s.push(NodeId(0), timer(2), None);
        // Two pushes, one enqueue: the second saw Queued.
        let t = s.pop(0, Time::ZERO).expect("task queued");
        assert!(s.pop(0, Time::ZERO).is_none(), "queued exactly once");
        t.begin();
        assert_eq!(timer_kind(t.pop_envelope()), Some(1));
        // Pushes while Running only append.
        s.push(NodeId(0), timer(3), None);
        assert!(
            s.pop(0, Time::ZERO).is_none(),
            "running task is not re-queued"
        );
        assert_eq!(timer_kind(t.pop_envelope()), Some(2));
        assert_eq!(timer_kind(t.pop_envelope()), Some(3));
        assert!(t.pop_envelope().is_none(), "drained back to Idle");
        // Idle again: next push re-queues.
        s.push(NodeId(0), timer(4), None);
        assert!(s.pop(1, Time::ZERO).is_some(), "any worker can pick it up");
    }

    #[test]
    fn steal_takes_from_sibling_back() {
        let s = sched(4, 2);
        // Initial seeding round-robins 0,2 → worker 0 and 1,3 → worker 1.
        let t = s.pop(0, Time::ZERO).unwrap();
        assert_eq!(t.id, NodeId(0));
        t.begin();
        let start = t.pop_envelope();
        assert!(
            matches!(start, Some(Envelope::Input(Input::Start))),
            "seeded"
        );
        assert_eq!(
            s.pop(1, Time::ZERO).unwrap().id,
            NodeId(1),
            "own queue first"
        );
        assert_eq!(s.pop(1, Time::ZERO).unwrap().id, NodeId(3));
        // Worker 1's queue and the injector are empty: steal from 0's back.
        let stolen = s.pop(1, Time::ZERO).unwrap();
        assert_eq!(stolen.id, NodeId(2), "stolen from worker 0's queue");
        assert!(s.gauges().steals >= 1);
    }

    #[test]
    fn stopped_tasks_drop_pushes_silently() {
        let s = sched(1, 1);
        drain_initial(&s);
        let t = Arc::clone(s.task(NodeId(0)).unwrap());
        assert!(t.mark_stopped());
        assert!(!t.mark_stopped(), "idempotent");
        s.push(NodeId(0), timer(1), None);
        assert!(
            s.pop(0, Time::ZERO).is_none(),
            "push to stopped task dropped"
        );
    }

    #[test]
    fn yield_back_requeues_only_with_work_left() {
        let s = sched(1, 1);
        drain_initial(&s);
        s.push(NodeId(0), timer(1), Some((0, Time::ZERO)));
        let t = s.pop(0, Time::ZERO).unwrap();
        t.begin();
        // Arrives while Running: appends, no second enqueue.
        s.push(NodeId(0), timer(2), Some((0, Time::ZERO)));
        assert!(
            s.pop(0, Time::ZERO).is_none(),
            "running task is not re-queued"
        );
        assert_eq!(timer_kind(t.pop_envelope()), Some(1));
        // Budget hit with work left: yield re-queues.
        assert!(t.yield_back(), "work left: requeue");
        s.enqueue(Arc::clone(&t), Some((0, Time::ZERO)));
        let t2 = s.pop(0, Time::ZERO).unwrap();
        assert_eq!(t2.id, t.id);
        t2.begin();
        assert_eq!(timer_kind(t2.pop_envelope()), Some(2));
        assert!(!t2.yield_back(), "drained: idle");
    }

    #[test]
    fn tokens_cover_the_scan_then_sleep_race() {
        let lot = IdleLot::new(2);
        // A push deposited a token before the worker parked: the park
        // consumes it and returns immediately (no deadline needed).
        lot.unpark_one();
        lot.park(None);
        // Tokens cap at the worker count.
        lot.unpark_one();
        lot.unpark_one();
        lot.unpark_one();
        let due = |ms| Some((Time::from_millis(ms), std::time::Duration::from_millis(ms)));
        lot.park(due(0));
        lot.park(due(0));
        // Third park finds no token and, the only parker, times out.
        let start = std::time::Instant::now();
        lot.park(due(10));
        assert!(start.elapsed() >= std::time::Duration::from_millis(5));
    }

    #[test]
    fn only_a_backlog_or_an_outside_push_wakes_a_sibling() {
        let s = sched(3, 2);
        drain_initial(&s);
        let on_worker_0_at = |ms| Some((0, Time::from_millis(ms)));
        s.push(NodeId(0), timer(1), on_worker_0_at(0));
        s.push(NodeId(1), timer(1), on_worker_0_at(0));
        assert_eq!(
            relock(&s.idle.lot).tokens,
            0,
            "a worker's own push wakes nobody"
        );
        // Task 1, behind the one popped, has waited exactly the backlog.
        let t = s.pop(0, Time::from_millis(1)).unwrap();
        assert_eq!(t.id, NodeId(0));
        assert_eq!(relock(&s.idle.lot).tokens, 0, "not yet a backlog");
        t.begin();
        while t.pop_envelope().is_some() {}
        s.push(NodeId(2), timer(1), on_worker_0_at(2));
        assert_eq!(
            relock(&s.idle.lot).tokens,
            1,
            "the oldest task waited 2 ms: wake one"
        );
        // Task 2, now the oldest, was queued just now.
        assert_eq!(s.pop(0, Time::from_millis(2)).unwrap().id, NodeId(1));
        assert_eq!(
            relock(&s.idle.lot).tokens,
            1,
            "no backlog left behind the pop"
        );
        s.push(NodeId(0), timer(2), None);
        assert_eq!(
            relock(&s.idle.lot).tokens,
            2,
            "an outside push always wakes"
        );
    }

    #[test]
    fn stop_rendezvous_releases_waiter() {
        let s = Arc::new(sched(2, 1));
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.wait_all_stopped());
        for id in [NodeId(0), NodeId(1)] {
            s.task(id).unwrap().mark_stopped();
            s.note_stopped();
        }
        waiter.join().unwrap();
        assert!(!s.exiting());
        s.begin_exit();
        assert!(s.exiting());
    }
}
