//! The scheduling fabric of the pooled thread engine: one run queue that
//! idle workers wait on.
//!
//! Every actor is a [`Task`]: a mailbox of activation [`Input`]s plus its
//! protocol state, runnable by any worker. The scheduler's contract is the
//! *queued-exactly-once* state machine — a mailbox push transitions an
//! Idle task to Queued and puts it on the run queue; pushes to a Queued or
//! Running task only append to the mailbox. A worker that drains a task's
//! mailbox transitions it back to Idle under the mailbox lock, so no
//! envelope can arrive between "queue observed empty" and "state set Idle"
//! without re-queueing the task.
//!
//! The run queue is one FIFO behind one mutex, with the list of parked
//! workers under the same lock and one condvar they wait on
//! ([`Scheduler::next`]): a worker pops the front or, finding it empty,
//! parks in the same critical section, so a push cannot slip between the
//! empty check and the wait. A park and its wake cost ≈ 24 µs of CPU on a
//! 2-vCPU host, so what a worker's own activations push wakes nobody — the
//! worker runs it after its activation — unless the queue's oldest task
//! has waited over [`BACKLOG`]; a push from outside the pool (socket
//! readers, shutdown) always wakes one. One parked worker, the
//! **timekeeper**, waits for the wheel's next deadline.
//!
//! FIFO guarantees: one mailbox is one `VecDeque` behind one mutex, and a
//! task is Running on at most one worker at a time, so per-sender delivery
//! order is preserved no matter which workers run the task.

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

/// How long the run queue's oldest task may wait before a worker wakes a
/// sibling (checked as a worker queues a task and as it pops one): about
/// forty park-and-wake costs.
const BACKLOG: Duration = Duration::from_millis(1);
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
    /// On the run queue (or in a worker's hand, pre-`begin`).
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

/// The one run queue and the workers parked on it, under one lock.
pub(crate) struct RunQueue {
    /// Each queued task with the instant it was queued and the worker
    /// whose activation queued it (`None`: from outside the pool).
    queue: VecDeque<(Arc<Task>, Time, Option<usize>)>,
    /// Each parked worker's deadline, `None` if it waits for a push only.
    pub(crate) parked: Vec<Option<Time>>,
    /// Activations by origin, parks and the peak depth.
    counts: SchedGauges,
}

impl RunQueue {
    /// True if the oldest task has waited longer than [`BACKLOG`].
    fn backlogged(&self, now: Time) -> bool {
        let waited = |&(_, at, _): &(Arc<Task>, Time, Option<usize>)| now - at > BACKLOG;
        self.queue.front().is_some_and(waited)
    }
}

/// The shared scheduling fabric: every task, the run queue, and the
/// shutdown rendezvous.
pub(crate) struct Scheduler {
    pub(crate) tasks: Vec<Arc<Task>>,
    workers: usize,
    pub(crate) run: Mutex<RunQueue>,
    /// Where parked workers wait for a push.
    cv: Condvar,
    /// Activation run times, bucketed as [`SchedGauges::run_hist`].
    run_hist: [AtomicU64; 5],
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
    /// Builds the fabric with every task, its `Start` queued, on the run
    /// queue, so each actor's `on_start` runs as soon as a worker picks it
    /// up.
    pub(crate) fn new(
        actors: Vec<(Box<dyn DpcActor<NetMsg>>, StdRng)>,
        workers: usize,
    ) -> Scheduler {
        let tasks: Vec<Arc<Task>> = actors
            .into_iter()
            .enumerate()
            .map(|(i, (actor, rng))| Arc::new(Task::new(NodeId(i as u32), actor, rng)))
            .collect();
        let queue = tasks.iter().map(|t| (Arc::clone(t), Time::ZERO, None));
        let run = RunQueue {
            queue: queue.collect(),
            parked: Vec::with_capacity(workers),
            counts: SchedGauges::default(),
        };
        Scheduler {
            tasks,
            workers,
            run: Mutex::new(run),
            cv: Condvar::new(),
            run_hist: Default::default(),
            stopping: AtomicBool::new(false),
            exiting: AtomicBool::new(false),
            stopped: AtomicUsize::new(0),
            exit_mx: Mutex::new(()),
            exit_cv: Condvar::new(),
            crashed: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    pub(crate) fn actors(&self) -> impl Iterator<Item = NodeId> {
        (0..self.tasks.len() as u32).map(NodeId)
    }

    #[cfg(test)]
    pub(crate) fn task(&self, id: NodeId) -> Option<&Arc<Task>> {
        self.tasks.get(id.index())
    }

    /// Delivers `env` into `to`'s mailbox at `now`, transitioning an Idle
    /// task to Queued exactly once. `by` is the pushing worker's index;
    /// threads outside the pool pass `None`. Pushes to a stopped task are
    /// dropped silently.
    pub(crate) fn push(&self, to: NodeId, env: Envelope, by: Option<usize>, now: Time) {
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
            self.enqueue(Arc::clone(task), by, now);
        }
    }

    /// Returns one credit of the local link `from → to` and delivers the
    /// queued message it releases, if any, into `to`'s mailbox **before
    /// letting go of the fabric lock**: a link's credits come back from
    /// several threads (the receiver's activation, `Replenish` entries that
    /// other workers pop off the pool wheel), and pushing after the unlock
    /// would let two of them swap consecutive messages. Lock order is wheel
    /// → fabric → mailbox → run queue everywhere.
    pub(crate) fn release_credit(
        &self,
        fabric: &SharedFabric,
        from: NodeId,
        to: NodeId,
        now: Time,
        by: Option<usize>,
    ) {
        let mut fabric = relock(fabric);
        if let Some(msg) = fabric.consumed(from, to, now) {
            let message = Input::Message { from, msg };
            self.push(to, Envelope::Input(message), by, now);
        }
    }

    /// Puts an already-Queued task on the run queue (batch-budget yields
    /// come through here too). A push from outside the pool wakes a parked
    /// worker; a worker's own push wakes one only for a backlog.
    pub(crate) fn enqueue(&self, task: Arc<Task>, by: Option<usize>, now: Time) {
        let mut rq = relock(&self.run);
        rq.queue.push_back((task, now, by));
        let depth = rq.queue.len() as u64;
        rq.counts.local_peak = rq.counts.local_peak.max(depth);
        let wake = !rq.parked.is_empty() && (by.is_none() || rq.backlogged(now));
        drop(rq);
        if wake {
            self.cv.notify_one();
        }
    }

    /// Worker `w`'s next task at `now`: the run queue's front, waking a
    /// sibling if what stays behind it is backlogged. On an empty queue
    /// the worker parks in the same critical section, so no push slips
    /// between its empty check and its wait, and returns `None` once woken
    /// (or at once if the pool is exiting). `due` is the worker's earliest
    /// wheel deadline (its instant and the time left to it): the parker
    /// waits for it only if no parked worker waits for an earlier or
    /// equal one — the pool needs one timekeeper.
    pub(crate) fn next(
        &self,
        w: usize,
        now: Time,
        due: Option<(Time, std::time::Duration)>,
    ) -> Option<Arc<Task>> {
        let mut rq = relock(&self.run);
        if let Some((task, _, by)) = rq.queue.pop_front() {
            let c = &mut rq.counts;
            match by {
                None => c.global_polls += 1,
                Some(b) if b == w => c.local_polls += 1,
                Some(_) => c.steals += 1,
            }
            let wake = !rq.parked.is_empty() && rq.backlogged(now);
            drop(rq);
            if wake {
                self.cv.notify_one();
            }
            return Some(task);
        }
        if self.exiting() {
            return None;
        }
        rq.counts.parks += 1;
        let due = due.filter(|(at, _)| rq.parked.iter().flatten().all(|t| t > at));
        let wait = due.map(|(at, _)| at);
        rq.parked.push(wait);
        rq = match due {
            Some((_, d)) => cv_wait_timeout(&self.cv, rq, d).0,
            None => cv_wait(&self.cv, rq),
        };
        let me = rq.parked.iter().position(|p| *p == wait).expect("listed");
        rq.parked.swap_remove(me);
        None
    }

    /// Records one actor activation's run time in the histogram.
    pub(crate) fn record_run(&self, elapsed: std::time::Duration) {
        let bucket = SchedGauges::bucket_for(elapsed.as_micros() as u64);
        self.run_hist[bucket].fetch_add(1, Ordering::Relaxed);
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

    /// Begins shutdown at `now`: from now on no scripted fault applies,
    /// and every task stops once it has drained what it had queued before
    /// its Stop.
    pub(crate) fn stop_all(&self, now: Time) {
        self.stopping.store(true, Ordering::Release);
        for task in &self.tasks {
            self.push(task.id, Envelope::Stop, None, now);
        }
    }

    /// True once [`Scheduler::stop_all`] has begun shutdown.
    pub(crate) fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    /// Tells every worker to exit and wakes them all. The run-queue lock
    /// taken between the flag and the notify orders them after any
    /// parker's check of the flag.
    pub(crate) fn begin_exit(&self) {
        self.exiting.store(true, Ordering::Release);
        let _rq = relock(&self.run);
        self.cv.notify_all();
    }

    pub(crate) fn exiting(&self) -> bool {
        self.exiting.load(Ordering::Acquire)
    }

    /// Point-in-time scheduler gauges (read under the run-queue lock; a
    /// cold path).
    pub(crate) fn gauges(&self) -> SchedGauges {
        let rq = relock(&self.run);
        SchedGauges {
            workers: self.workers as u64,
            local_depth: rq.queue.len() as u64,
            run_hist: self.run_hist.each_ref().map(|h| h.load(Ordering::Relaxed)),
            ..rq.counts
        }
    }
}

#[cfg(all(test, not(borealis_model)))]
mod tests {
    use super::*;
    use borealis_dpc::RuntimeCtx;
    use rand::SeedableRng;
    use std::thread::JoinHandle;
    use std::time::Duration as StdDuration;

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

    /// Tasks on the run queue.
    fn queued(s: &Scheduler) -> u64 {
        s.gauges().local_depth
    }

    /// Workers parked on the run queue.
    fn parked(s: &Scheduler) -> usize {
        relock(&s.run).parked.len()
    }

    /// Worker `w`'s next task at instant zero; the queue must hold one.
    fn pop(s: &Scheduler, w: usize) -> Arc<Task> {
        s.next(w, Time::ZERO, None).expect("a task is queued")
    }

    /// Drains the initial seeding so every task is Idle.
    fn drain_initial(s: &Scheduler) {
        while queued(s) > 0 {
            run(pop(s, 0));
        }
    }

    /// Runs `t`'s activation to the end, leaving it Idle.
    fn run(t: Arc<Task>) {
        t.begin();
        while t.pop_envelope().is_some() {}
    }

    /// Parks worker `w` on a thread of its own with deadline `due` until
    /// it is woken; returns once one more worker is listed as parked.
    fn park_sibling(s: &Arc<Scheduler>, w: usize, due: Option<u64>) -> JoinHandle<()> {
        let s2 = Arc::clone(s);
        let before = parked(s);
        let due = due.map(|ms| (Time::from_millis(ms), StdDuration::from_millis(ms)));
        let sibling = std::thread::spawn(move || assert!(s2.next(w, Time::ZERO, due).is_none()));
        while parked(s) == before {
            std::thread::yield_now();
        }
        sibling
    }

    /// Asserts that no parked worker leaves the list within 20 ms.
    fn stays_parked(s: &Scheduler, n: usize, why: &str) {
        std::thread::sleep(StdDuration::from_millis(20));
        assert_eq!(parked(s), n, "{why}");
    }

    /// Asserts that a parked worker leaves the list within 2 s.
    fn wakes(s: &Scheduler, n: usize, why: &str) {
        let deadline = std::time::Instant::now() + StdDuration::from_secs(2);
        while parked(s) > n && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(parked(s), n, "{why}");
    }

    #[test]
    fn push_queues_idle_task_exactly_once() {
        let s = sched(2, 2);
        drain_initial(&s);
        s.push(NodeId(0), timer(1), None, Time::ZERO);
        s.push(NodeId(0), timer(2), None, Time::ZERO);
        // Two pushes, one enqueue: the second saw Queued.
        let t = pop(&s, 0);
        assert_eq!(queued(&s), 0, "queued exactly once");
        t.begin();
        assert_eq!(timer_kind(t.pop_envelope()), Some(1));
        // Pushes while Running only append.
        s.push(NodeId(0), timer(3), None, Time::ZERO);
        assert_eq!(queued(&s), 0, "running task is not re-queued");
        assert_eq!(timer_kind(t.pop_envelope()), Some(2));
        assert_eq!(timer_kind(t.pop_envelope()), Some(3));
        assert!(t.pop_envelope().is_none(), "drained back to Idle");
        // Idle again: next push re-queues.
        s.push(NodeId(0), timer(4), None, Time::ZERO);
        assert_eq!(pop(&s, 1).id, NodeId(0), "any worker can pick it up");
    }

    #[test]
    fn activations_are_classified_by_origin() {
        let s = sched(3, 2);
        drain_initial(&s);
        let seeded = s.gauges().global_polls;
        assert_eq!(seeded, 3, "the seeded starts come from outside the pool");
        s.push(NodeId(0), timer(1), Some(0), Time::ZERO);
        s.push(NodeId(1), timer(1), Some(0), Time::ZERO);
        s.push(NodeId(2), timer(1), None, Time::ZERO);
        // One FIFO: the tasks come off in push order, whoever asks.
        assert_eq!(pop(&s, 0).id, NodeId(0), "queued by worker 0, run by it");
        assert_eq!(pop(&s, 1).id, NodeId(1), "queued by worker 0, run by 1");
        assert_eq!(pop(&s, 1).id, NodeId(2), "queued from outside the pool");
        let g = s.gauges();
        assert_eq!(
            (g.local_polls, g.steals, g.global_polls - seeded),
            (1, 1, 1),
            "{g:?}"
        );
        assert_eq!(g.activations(), 6);
        assert_eq!((g.local_depth, g.local_peak), (0, 3));
    }

    #[test]
    fn stopped_tasks_drop_pushes_silently() {
        let s = sched(1, 1);
        drain_initial(&s);
        let t = Arc::clone(s.task(NodeId(0)).unwrap());
        assert!(t.mark_stopped());
        assert!(!t.mark_stopped(), "idempotent");
        s.push(NodeId(0), timer(1), None, Time::ZERO);
        assert_eq!(queued(&s), 0, "push to stopped task dropped");
    }

    #[test]
    fn yield_back_requeues_only_with_work_left() {
        let s = sched(1, 1);
        drain_initial(&s);
        s.push(NodeId(0), timer(1), Some(0), Time::ZERO);
        let t = pop(&s, 0);
        t.begin();
        // Arrives while Running: appends, no second enqueue.
        s.push(NodeId(0), timer(2), Some(0), Time::ZERO);
        assert_eq!(queued(&s), 0, "running task is not re-queued");
        assert_eq!(timer_kind(t.pop_envelope()), Some(1));
        // Budget hit with work left: yield re-queues.
        assert!(t.yield_back(), "work left: requeue");
        s.enqueue(Arc::clone(&t), Some(0), Time::ZERO);
        let t2 = pop(&s, 0);
        assert_eq!(t2.id, t.id);
        t2.begin();
        assert_eq!(timer_kind(t2.pop_envelope()), Some(2));
        assert!(!t2.yield_back(), "drained: idle");
    }

    #[test]
    fn the_empty_check_and_the_park_are_one_step() {
        let s = Arc::new(sched(2, 2));
        drain_initial(&s);
        // A push that lands before the worker asks is popped, not slept
        // through: no park while a task is queued.
        s.push(NodeId(0), timer(1), None, Time::ZERO);
        run(pop(&s, 0));
        assert_eq!((parked(&s), s.gauges().parks), (0, 0));
        // A lone parker is the timekeeper: it waits out its deadline.
        let start = std::time::Instant::now();
        let due = Some((Time::from_millis(10), StdDuration::from_millis(10)));
        assert!(s.next(0, Time::ZERO, due).is_none());
        assert!(start.elapsed() >= StdDuration::from_millis(5));
        // Behind a timekeeper of an earlier or equal deadline a parker
        // waits for a push only.
        let keeper = park_sibling(&s, 0, Some(500));
        let sibling = park_sibling(&s, 1, Some(500));
        let mut waits = relock(&s.run).parked.clone();
        waits.sort();
        assert_eq!(waits, [None, Some(Time::from_millis(500))]);
        s.push(NodeId(0), timer(2), None, Time::ZERO);
        wakes(&s, 1, "an outside push wakes one");
        s.begin_exit();
        wakes(&s, 0, "the exit wakes the rest");
        keeper.join().unwrap();
        sibling.join().unwrap();
        assert_eq!(s.gauges().parks, 3);
    }

    #[test]
    fn only_a_backlog_or_an_outside_push_wakes_a_sibling() {
        let s = Arc::new(sched(3, 2));
        drain_initial(&s);
        let at = Time::from_millis;
        let sibling = park_sibling(&s, 1, None);
        for id in 0..3 {
            s.push(NodeId(id), timer(1), Some(0), at(0));
        }
        stays_parked(&s, 1, "a worker's own push wakes nobody");
        // Task 1, behind the one popped, has waited exactly the backlog.
        run(s.next(0, at(1), None).unwrap());
        stays_parked(&s, 1, "not yet a backlog");
        // Task 2, behind the next one, has waited 2 ms.
        run(s.next(0, at(2), None).unwrap());
        wakes(&s, 0, "a pop that leaves a backlog behind wakes one");
        sibling.join().unwrap();
        run(s.next(0, at(2), None).unwrap());
        let sibling = park_sibling(&s, 1, None);
        s.push(NodeId(0), timer(2), Some(0), at(3));
        s.push(NodeId(1), timer(2), Some(0), at(4));
        stays_parked(&s, 1, "the oldest task waited exactly 1 ms");
        s.push(NodeId(2), timer(2), Some(0), at(5));
        wakes(&s, 0, "the oldest task waited 2 ms: the push wakes one");
        sibling.join().unwrap();
        for _ in 0..3 {
            run(s.next(0, at(5), None).unwrap());
        }
        let sibling = park_sibling(&s, 1, None);
        s.push(NodeId(0), timer(3), None, at(5));
        wakes(&s, 0, "an outside push always wakes");
        sibling.join().unwrap();
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
