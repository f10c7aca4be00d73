//! The thread engine: every actor is a schedulable task multiplexed onto a
//! **fixed pool of worker threads** (one run queue that idle workers wait
//! on — see the `scheduler` module), sharing one wheel of deadlines
//! against the monotonic clock.
//!
//! The engine is a *driver* of the system model in `borealis_sim`, like the
//! simulator kernel, and speaks its vocabulary: a mailbox holds the
//! [`Input`]s of [`ActorCell::activate`], and the pool wheel holds the
//! kernel's [`Event`]s — every timer, credit return and scripted fault —
//! which `Worker::fire_due` handles with the same three arms as the kernel,
//! on whichever worker finds them due. What a send, a credit return or a
//! fault means is the one shared [`Fabric`]'s call ([`SharedFabric`]), and
//! what an arriving message, a due timer or the actor's own crash means is
//! the activation step's. What the engine owns is the clock, the mailboxes
//! and the wheel, the threads, and a message's last hop.
//!
//! The engine delivers and wakes; it never sends on an actor's behalf. A
//! [`RuntimeCtx::send`] reaches the destination's mailbox (or socket) from
//! inside the sender's activation, and an actor is Running on at most one
//! worker at a time — so whichever workers run it, and however late or out
//! of order its timers fire, each link carries its messages in the order
//! its handlers sent them. (The one message the engine moves on its own, a
//! queued send released by a returning credit, is pushed under the fabric
//! lock that released it: `Scheduler::release_credit`.)
//!
//! A worker runs what its own activations queued and wakes a sibling only
//! for backlog; idle workers park, the timekeeper until the wheel's next
//! deadline — no polling backstop, no sleep loops.

use crate::clock::MonotonicClock;
use crate::scheduler::{Envelope, Scheduler, Task};
use crate::sync::{relock, Arc, Mutex, MutexGuard};
use crate::tcp::TcpFabric;
use crate::SharedFabric;
use borealis_dpc::{DpcActor, NetMsg, RuntimeCtx};
use borealis_sim::{
    ActorCell, DeadlineQueue, Event, Fabric, FaultEvent, Host, Input, Sent, StatsSnapshot,
};
use borealis_types::{CreditPolicy, Duration, NodeId, PartitionSpec, ShardRouter, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::DerefMut;
use std::thread::JoinHandle;

/// Envelopes one activation may process before yielding the worker (the
/// task re-queues behind its siblings if work remains) — bounds how long
/// one busy actor can starve the others sharing its worker.
const ACTIVATION_BATCH: usize = 32;

/// What every thread of a runtime — each worker and each socket-mesh I/O
/// thread — shares: the mailboxes, the link fabric, the clock and the wheel.
pub(crate) struct Hub {
    pub(crate) sched: Scheduler,
    pub(crate) fabric: SharedFabric,
    pub(crate) clock: MonotonicClock,
    /// Every armed timer, credit owed later and scripted fault, pushed and
    /// popped under its lock with the clock read inside it, so pops keep
    /// `(deadline, seq)` order across workers. No message waits here (see
    /// `borealis_dpc::Publisher`): firing one actor's entries in either
    /// order can delay a send but cannot reorder a link.
    wheel: Mutex<DeadlineQueue<Event<NetMsg>>>,
}

impl Hub {
    /// The shared fabric, locked.
    pub(crate) fn fabric(&self) -> MutexGuard<'_, Fabric<NetMsg>> {
        relock(&self.fabric)
    }

    /// Puts `event` on the pool wheel at `at`, or now if that has passed.
    fn arm(&self, at: Time, event: Event<NetMsg>) {
        let mut wheel = relock(&self.wheel);
        wheel.push(at.max(self.clock.now()), event);
    }
}

/// The [`RuntimeCtx`] handed to protocol handlers on a worker thread: the
/// worker itself (its router serves the running actor) plus the actor's
/// identity and RNG.
struct ThreadCtx<'a> {
    id: NodeId,
    incarnation: u32,
    now: Time,
    worker: &'a mut Worker,
    rng: &'a mut StdRng,
    /// The handler's consumption mark for the delivery being processed
    /// (credit returns then; see [`RuntimeCtx::data_consumed_at`]).
    consumed_at: Option<Time>,
}

impl RuntimeCtx<NetMsg> for ThreadCtx<'_> {
    fn now(&self) -> Time {
        self.now
    }

    fn id(&self) -> NodeId {
        self.id
    }

    fn send(&mut self, to: NodeId, msg: NetMsg) {
        self.worker.send(self.id, to, msg, self.now);
    }

    fn data_consumed_at(&mut self, at: Time) {
        self.consumed_at = Some(at.max(self.now));
    }

    fn outbound_stall(&self, to: NodeId) -> Duration {
        // The sender's ledger is this process's fabric whether `to` is
        // local or remote (over TCP it is the wire window).
        self.worker.hub.fabric().stalled_for(self.id, to, self.now)
    }

    fn set_timer(&mut self, at: Time, kind: u64) {
        let incarnation = self.incarnation;
        let timer = Event::Input(self.id, Input::Timer { kind, incarnation });
        self.worker.hub.arm(at, timer);
    }

    fn reachable(&self, to: NodeId) -> bool {
        self.worker.hub.fabric().reachable(self.id, to)
    }

    fn rand_range(&mut self, n: u64) -> u64 {
        self.rng.gen_range(0..n)
    }
}

impl Host<NetMsg> for ThreadCtx<'_> {
    fn fabric(&mut self) -> impl DerefMut<Target = Fabric<NetMsg>> {
        self.worker.hub.fabric()
    }

    fn consumed_at(&self) -> Option<Time> {
        self.consumed_at
    }
}

/// How one activation ended.
enum Activation {
    /// Mailbox drained (task went Idle under the mailbox lock).
    Drained,
    /// Batch budget hit with work possibly remaining.
    Budget,
    /// The task processed its Stop.
    Stopped,
}

/// One pool worker: a run-queue consumer. What its activations push wakes
/// nobody unless the run queue is backlogged.
struct Worker {
    idx: usize,
    hub: Arc<Hub>,
    tcp: Option<Arc<TcpFabric>>,
    /// Worker-local one-pass partition memo (no cross-thread sharing): an
    /// actor's sends run on whichever worker runs its activation, so a
    /// produced batch is split once per worker that sends any of it —
    /// usually one — and every other chunk and receiver is a slice of that.
    router: ShardRouter,
    /// This worker queued frames on the socket mesh since its last flush.
    unflushed: bool,
}

impl Worker {
    /// The worker main loop: fire due wheel entries, run one task
    /// activation, flush the frames they queued, repeat; park when no task
    /// is runnable, timed to the wheel's next deadline if it is the pool's
    /// timekeeper ([`Scheduler::next`]).
    fn run(mut self) {
        loop {
            let due = self.fire_due().map(|at| (at, self.hub.clock.until(at)));
            let task = self.hub.sched.next(self.idx, self.hub.clock.now(), due);
            if let Some(task) = &task {
                self.run_task(task);
            }
            if std::mem::take(&mut self.unflushed) {
                if let Some(tcp) = &self.tcp {
                    tcp.flush();
                }
            }
            if task.is_none() && self.hub.sched.exiting() {
                break;
            }
        }
    }

    /// One send of `from`, an actor running on this worker: the fabric
    /// decides, the worker carries the message to its last hop — the
    /// destination's mailbox, or its process's connection. A send to a
    /// stopped mailbox (shutdown in progress) is dropped silently, like a
    /// connection reset during teardown.
    ///
    /// With a socket mesh, a remote destination changes only that last
    /// hop: admission still debits the **local** ledger (it is the wire
    /// credit window — see [`crate::tcp`]), and the frame waits in the
    /// connection's buffer for this worker's flush.
    fn send(&mut self, from: NodeId, to: NodeId, msg: NetMsg, now: Time) {
        let Sent::Go(msg) = self.hub.fabric().send(&mut self.router, from, to, msg, now) else {
            return; // queued awaiting credit, not for this shard, or dropped
        };
        match self.tcp.as_deref().filter(|t| t.is_remote(to)) {
            None => {
                let message = Envelope::Input(Input::Message { from, msg });
                self.hub.sched.push(to, message, Some(self.idx), now);
            }
            Some(tcp) => {
                self.unflushed = true;
                if !tcp.send_net(from, to, msg) {
                    // The connection died between the reachability check
                    // and the enqueue: the frame is lost.
                    self.hub.fabric().count_lost();
                }
            }
        }
    }

    /// Fires every wheel entry due now — the three arms of the simulator
    /// kernel's dispatch, with a mailbox push in place of an activation —
    /// and returns the next deadline.
    fn fire_due(&mut self) -> Option<Time> {
        loop {
            let mut wheel = relock(&self.hub.wheel);
            let now = self.hub.clock.now();
            let Some((_, event)) = wheel.pop_due(now) else {
                return wheel.next_due();
            };
            match event {
                // Queued behind the actor's pending mailbox work; whether
                // a timer still fires is the activation step's call.
                Event::Input(to, input) => {
                    drop(wheel);
                    let input = Envelope::Input(input);
                    self.hub.sched.push(to, input, Some(self.idx), now);
                }
                // The consumer's modelled CPU finished a delivery.
                Event::Replenish { from, to } => {
                    drop(wheel);
                    self.return_credit(from, to);
                }
                // A fault due after shutdown began never applies: the
                // statistics `shutdown` returns are final.
                Event::Fault(_) if self.hub.sched.stopping() => {}
                // Applied and heard under the wheel lock: faults two workers
                // pop reach the fabric and the mailboxes in script order.
                Event::Fault(fault) => {
                    let actors = self.hub.sched.actors();
                    let heard = self.hub.fabric().apply(&fault, now, actors);
                    for (id, heard) in heard {
                        let heard = Envelope::Input(Input::Fault(heard));
                        self.hub.sched.push(id, heard, Some(self.idx), now);
                    }
                }
            }
        }
    }

    /// Returns the credit of one consumed delivery on `from → to`; a
    /// queued message it releases goes to `to`'s own mailbox — the
    /// delivery-time checks still apply there. A *remote* sender's ledger
    /// lives in its process: the credit travels back as a `CreditGrant`
    /// frame instead, held on the connection until the link has half a
    /// window of them or another frame leaves for that process (see
    /// [`crate::tcp`]) — so most returns queue nothing to flush.
    fn return_credit(&mut self, from: NodeId, to: NodeId) {
        match &self.tcp {
            Some(t) if t.is_remote(from) => {
                self.unflushed |= t.send_grant(from, to);
            }
            _ => {
                let now = self.hub.clock.now();
                let hub = &self.hub;
                hub.sched
                    .release_credit(&hub.fabric, from, to, now, Some(self.idx));
            }
        }
    }

    /// Runs one activation of `task`, containing actor panics: a panicking
    /// actor is marked stopped (its mailbox drops everything) and reported
    /// at shutdown, without taking the worker — or the pool — down.
    fn run_task(&mut self, task: &Arc<Task>) {
        task.begin();
        let started = std::time::Instant::now();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.activate(task)));
        self.hub.sched.record_run(started.elapsed());
        match outcome {
            Ok(Activation::Drained) | Ok(Activation::Stopped) => {}
            Ok(Activation::Budget) => {
                if task.yield_back() {
                    let (sched, now) = (&self.hub.sched, self.hub.clock.now());
                    sched.enqueue(Arc::clone(task), Some(self.idx), now);
                }
            }
            Err(_) => {
                if task.mark_stopped() {
                    self.hub
                        .sched
                        .note_crashed(format!("dpc-actor-{}", task.id.index()));
                    self.hub.sched.note_stopped();
                }
            }
        }
    }

    /// Drains up to [`ACTIVATION_BATCH`] envelopes from `task`'s mailbox,
    /// each one input of the activation step.
    fn activate(&mut self, task: &Arc<Task>) -> Activation {
        let mut guard = relock(&task.cell);
        let (cell, rng) = &mut *guard;
        for _ in 0..ACTIVATION_BATCH {
            match task.pop_envelope() {
                None => return Activation::Drained,
                Some(Envelope::Input(input)) => self.step(task.id, cell, rng, input),
                Some(Envelope::Stop) => {
                    if task.mark_stopped() {
                        self.hub.sched.note_stopped();
                    }
                    return Activation::Stopped;
                }
            }
        }
        Activation::Budget
    }

    /// One input of actor `id` with a fresh context at the current instant.
    /// The credit the step reports returns at the handler's consumption
    /// mark (the modeled CPU completion) through the pool wheel, or right
    /// away for infinitely fast consumers and in-flight losses.
    fn step(
        &mut self,
        id: NodeId,
        cell: &mut ActorCell<NetMsg>,
        rng: &mut StdRng,
        input: Input<NetMsg>,
    ) {
        let mut ctx = ThreadCtx {
            id,
            incarnation: cell.incarnation(),
            now: self.hub.clock.now(),
            worker: self,
            rng,
            consumed_at: None,
        };
        if let Some((from, at)) = cell.activate(&mut ctx, input) {
            if at > self.hub.clock.now() {
                self.hub.arm(at, Event::Replenish { from, to: id });
            } else {
                self.return_credit(from, id);
            }
        }
    }
}

/// A running thread engine: a fixed worker pool multiplexing every actor
/// and replaying the fault script. Dropping it (or calling
/// [`ThreadRuntime::shutdown`]) stops every thread in order.
pub struct ThreadRuntime {
    hub: Arc<Hub>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadRuntime {
    /// The pool size used when a layout requests none: the machine's
    /// available parallelism clamped to `[2, 8]` (at least two so work can
    /// move between workers even on one core; at most eight — the scaling
    /// target's pool size).
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8)
    }

    /// Spawns a pool of `workers` threads multiplexing every actor
    /// (`actors[i]` becomes `NodeId(i)`); the pool wheel replays
    /// `script`. `partitions` declares key-sharded receivers: every data
    /// batch sent to such a node is filtered to its shard on the way out.
    /// `flow_policy` governs credit-based flow control on every link.
    ///
    /// With a socket mesh (`tcp`), sends to actors it plans in another
    /// process travel the wire, and its per-connection reader threads feed
    /// incoming frames into local mailboxes.
    ///
    /// Every actor starts Queued with its `Start` in its mailbox, so its
    /// `on_start` runs as soon as a worker picks it up; the clock starts
    /// just before the pool spawns. The OS-thread budget is exactly
    /// `workers` spawned threads, independent of the topology size.
    pub fn spawn(
        actors: Vec<Box<dyn DpcActor<NetMsg>>>,
        script: Vec<(Time, FaultEvent)>,
        seed: u64,
        partitions: Vec<(NodeId, PartitionSpec)>,
        flow_policy: CreditPolicy,
        workers: usize,
        tcp: Option<Arc<TcpFabric>>,
    ) -> ThreadRuntime {
        let workers = workers.max(1);
        let clock = MonotonicClock::start();
        let mut fabric = Fabric::new(partitions, flow_policy);
        // Faults scripted at t=0 shape the initial connectivity: apply them
        // before any worker starts, as the simulator does for faults
        // scheduled ahead of the Start events. (Popped off the wheel, they
        // re-apply idempotently and are heard.)
        let mut wheel = DeadlineQueue::default();
        for (at, fault) in script {
            if at == Time::ZERO {
                fabric.apply(&fault, Time::ZERO, []);
            }
            wheel.push(at, Event::Fault(fault));
        }
        let tasks = actors
            .into_iter()
            .enumerate()
            .map(|(i, actor)| {
                // Decorrelate per-actor streams from one shared seed, so
                // runs stay comparable across pool sizes.
                let rng = StdRng::seed_from_u64(
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64),
                );
                (actor, rng)
            })
            .collect();
        let hub = Arc::new(Hub {
            sched: Scheduler::new(tasks, workers),
            fabric: Mutex::new(fabric),
            clock,
            wheel: Mutex::new(wheel),
        });
        if let Some(t) = &tcp {
            t.start_io(Arc::clone(&hub));
        }
        let handles = (0..workers)
            .map(|idx| {
                let worker = Worker {
                    idx,
                    hub: Arc::clone(&hub),
                    tcp: tcp.clone(),
                    router: ShardRouter::new(),
                    unflushed: false,
                };
                std::thread::Builder::new()
                    .name(format!("dpc-worker-{idx}"))
                    .spawn(move || worker.run())
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadRuntime {
            hub,
            workers: handles,
        }
    }

    /// Time since the runtime started (the actors' clock).
    pub fn now(&self) -> Time {
        self.hub.clock.now()
    }

    /// The shared link fabric, locked (for ad-hoc inspection and fault
    /// injection in tests; scripted runs should use the layout's fault
    /// script).
    pub fn fabric(&self) -> MutexGuard<'_, Fabric<NetMsg>> {
        self.hub.fabric()
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.hub.sched.workers()
    }

    /// Stops one task (used by the socket deployment to retire the inert
    /// stubs standing in for remote actors).
    pub(crate) fn stop_task(&self, id: NodeId) {
        self.hub.sched.push(id, Envelope::Stop, None, self.now());
    }

    /// Message-loss statistics so far, including the fabric's flow-control
    /// gauges and the pool's scheduler gauges.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            sched: self.hub.sched.gauges(),
            ..self.hub.fabric().stats()
        }
    }

    /// Lets the system run for `wall` — the actors make progress on the
    /// worker pool; this just blocks the caller.
    pub fn run_for(&self, wall: std::time::Duration) {
        std::thread::sleep(wall);
    }

    /// Stops every thread: no scripted fault applies from here on, each
    /// actor stops after it drains its mailbox (Stop is an ordinary
    /// envelope, so everything queued before it is processed), then the
    /// pool exits. Returns final statistics.
    ///
    /// # Panics
    /// Panics if any actor panicked during the run — a protocol bug must
    /// fail the run, not silently degrade it to a partial deployment.
    pub fn shutdown(mut self) -> StatsSnapshot {
        let crashed = self.stop_threads();
        assert!(
            crashed.is_empty(),
            "actor thread(s) panicked during the run: {crashed:?}"
        );
        self.stats()
    }

    /// Stops and joins everything; returns the names of actors that
    /// panicked.
    fn stop_threads(&mut self) -> Vec<String> {
        let sched = &self.hub.sched;
        sched.stop_all(self.hub.clock.now());
        sched.wait_all_stopped();
        sched.begin_exit();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        sched.crashed()
    }
}

impl Drop for ThreadRuntime {
    fn drop(&mut self) {
        let crashed = self.stop_threads();
        // Surface swallowed actor panics even when the runtime is dropped
        // without an explicit shutdown — unless we are already unwinding
        // (a double panic would abort and mask the original failure).
        if !crashed.is_empty() && !std::thread::panicking() {
            panic!("actor thread(s) panicked during the run: {crashed:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;
    use borealis_types::{Duration, StreamId};

    /// Records everything it receives; replies to heartbeats.
    struct Recorder {
        log: Arc<Mutex<Vec<(NodeId, &'static str)>>>,
        peer: Option<NodeId>,
    }

    impl DpcActor<NetMsg> for Recorder {
        fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, NetMsg::HeartbeatReq);
                ctx.set_timer(ctx.now() + Duration::from_millis(20), 7);
            }
        }
        fn on_message(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, from: NodeId, msg: NetMsg) {
            let kind = match msg {
                NetMsg::HeartbeatReq => "hb-req",
                NetMsg::Unsubscribe { .. } => "unsubscribe",
                other => panic!("a recorder's peers send no {other:?}"),
            };
            self.log.lock().unwrap().push((from, kind));
        }
        fn on_timer(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, kind: u64) {
            assert_eq!(kind, 7);
            self.log.lock().unwrap().push((NodeId(u32::MAX), "timer"));
            // A delayed send, the only way there is: from the handler of
            // the timer that waited for it.
            if let Some(peer) = self.peer {
                let stream = StreamId(0);
                ctx.send(peer, NetMsg::Unsubscribe { stream });
            }
        }
        fn on_fault(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, fault: &FaultEvent) {
            let tag = match fault {
                FaultEvent::LinkDown { .. } => "link-down",
                FaultEvent::LinkUp { .. } => "link-up",
                FaultEvent::NodeDown(_) => "node-down",
                FaultEvent::NodeUp(_) => "node-up",
                FaultEvent::Custom { .. } => "custom",
                FaultEvent::ProcessDown(_) | FaultEvent::ProcessUp(_) => {
                    unreachable!("heard as each node's NodeDown / NodeUp")
                }
            };
            self.log.lock().unwrap().push((NodeId(u32::MAX), tag));
        }
    }

    /// Two recorders on a two-worker pool, no sharding, no flow control.
    fn spawn_pair(
        a: Box<Recorder>,
        b: Box<Recorder>,
        script: Vec<(Time, FaultEvent)>,
    ) -> ThreadRuntime {
        ThreadRuntime::spawn(
            vec![a, b],
            script,
            1,
            Vec::new(),
            CreditPolicy::Unbounded,
            2,
            None,
        )
    }

    fn wait_until(pred: impl Fn() -> bool, ms: u64) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(ms);
        while std::time::Instant::now() < deadline {
            if pred() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        pred()
    }

    #[test]
    fn messages_timers_and_delayed_sends_flow() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let a = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: Some(NodeId(1)),
        });
        let b = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: None,
        });
        let rt = spawn_pair(a, b, Vec::new());
        assert!(
            wait_until(
                || {
                    let l = log.lock().unwrap();
                    l.contains(&(NodeId(0), "hb-req"))
                        && l.contains(&(NodeId(u32::MAX), "timer"))
                        && l.contains(&(NodeId(0), "unsubscribe"))
                },
                2000
            ),
            "log: {:?}",
            log.lock().unwrap()
        );
        let stats = rt.shutdown();
        assert_eq!(stats.total_drops(), 0);
        assert!(stats.messages_delivered >= 2);
        assert!(
            stats.sched.activations() >= 2,
            "activations must be accounted: {:?}",
            stats.sched
        );
    }

    #[test]
    fn scripted_link_failure_drops_and_notifies() {
        let log = Arc::new(Mutex::new(Vec::new()));
        // Link is down from the start; heals at 80 ms.
        let script = vec![
            (
                Time::ZERO,
                FaultEvent::LinkDown {
                    a: NodeId(0),
                    b: NodeId(1),
                },
            ),
            (
                Time::from_millis(80),
                FaultEvent::LinkUp {
                    a: NodeId(0),
                    b: NodeId(1),
                },
            ),
        ];
        let a = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: Some(NodeId(1)),
        });
        let b = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: None,
        });
        let rt = spawn_pair(a, b, script);
        assert!(
            wait_until(
                || {
                    let l = log.lock().unwrap();
                    l.iter().filter(|e| e.1 == "link-up").count() >= 2
                },
                2000
            ),
            "both endpoints must hear the heal: {:?}",
            log.lock().unwrap()
        );
        // The initial heartbeat and the unsubscribe sent from the 20 ms
        // timer both meet the dead link.
        let stats = rt.shutdown();
        assert!(
            stats.total_drops() >= 1,
            "sends while the link was down must be counted: {stats:?}"
        );
        let l = log.lock().unwrap();
        assert!(
            !l.contains(&(NodeId(0), "hb-req")),
            "initial heartbeat was sent while down: {l:?}"
        );
    }

    #[test]
    fn timer_of_a_crashed_incarnation_stays_silent_after_the_restart() {
        // Actor 0 arms its 20 ms timer in `on_start`, crashes at once and
        // is back at 5 ms: the timer comes due with the actor up again.
        let log = Arc::new(Mutex::new(Vec::new()));
        let script = vec![
            (Time::ZERO, FaultEvent::NodeDown(NodeId(0))),
            (Time::from_millis(5), FaultEvent::NodeUp(NodeId(0))),
        ];
        let a = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: Some(NodeId(1)),
        });
        let b = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: None,
        });
        let rt = spawn_pair(a, b, script);
        let restarted = || log.lock().unwrap().contains(&(NodeId(u32::MAX), "node-up"));
        assert!(wait_until(restarted, 2000), "the actor hears its NodeUp");
        rt.run_for(std::time::Duration::from_millis(100));
        let stats = rt.shutdown();
        let l = log.lock().unwrap();
        let heard_crash = l.contains(&(NodeId(u32::MAX), "node-down"));
        assert!(heard_crash, "the crashing node observes its own NodeDown");
        assert!(!l.contains(&(NodeId(u32::MAX), "timer")), "stale: {l:?}");
        assert_eq!(stats.timers_suppressed, 1, "dropped and counted");
    }

    #[test]
    fn fault_due_after_shutdown_began_is_not_applied() {
        /// Two peers start together, one on each worker, and the one on
        /// worker 0 sends the other two heartbeats. The first heartbeat's
        /// handler runs 800 ms, then answers. Whichever worker runs it, the
        /// other is free to pop the link's fault off the pool wheel when it
        /// comes due.
        struct Peer {
            started: Arc<Mutex<usize>>,
            heard: Arc<Mutex<usize>>,
        }
        impl DpcActor<NetMsg> for Peer {
            fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
                *self.started.lock().unwrap() += 1;
                while *self.started.lock().unwrap() < 2 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                if std::thread::current().name() == Some("dpc-worker-0") {
                    let other = NodeId(1 - ctx.id().0);
                    ctx.send(other, NetMsg::HeartbeatReq);
                    ctx.send(other, NetMsg::HeartbeatReq);
                }
            }
            fn on_message(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, from: NodeId, _: NetMsg) {
                let mut heard = self.heard.lock().unwrap();
                *heard += 1;
                if *heard == 1 {
                    drop(heard);
                    std::thread::sleep(std::time::Duration::from_millis(800));
                    ctx.send(from, NetMsg::HeartbeatReq);
                }
            }
            fn on_timer(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _kind: u64) {}
        }
        let (started, heard) = (Arc::new(Mutex::new(0)), Arc::new(Mutex::new(0)));
        let peer = || {
            let (started, heard) = (Arc::clone(&started), Arc::clone(&heard));
            Box::new(Peer { started, heard }) as Box<dyn DpcActor<NetMsg>>
        };
        let (a, b) = (NodeId(0), NodeId(1));
        let script = vec![(Time::from_millis(400), FaultEvent::LinkDown { a, b })];
        let policy = CreditPolicy::Unbounded;
        let rt = ThreadRuntime::spawn(vec![peer(), peer()], script, 1, Vec::new(), policy, 2, None);
        assert!(wait_until(|| *heard.lock().unwrap() == 1, 2000));
        // The link's scripted instant falls after shutdown began and
        // while the first handler still runs.
        assert!(rt.now() < Time::from_millis(400), "shutdown begins first");
        let stats = rt.shutdown();
        assert_eq!(
            *heard.lock().unwrap(),
            2,
            "the queued heartbeat is delivered"
        );
        assert_eq!(stats.total_drops(), 0, "the answer is no drop: {stats:?}");
    }

    /// A pool of two running `actors` with no script, sharding or flow
    /// control.
    fn spawn_two_workers(actors: Vec<Box<dyn DpcActor<NetMsg>>>) -> ThreadRuntime {
        let policy = CreditPolicy::Unbounded;
        ThreadRuntime::spawn(actors, Vec::new(), 1, Vec::new(), policy, 2, None)
    }

    #[test]
    fn a_timer_driven_relay_stays_on_one_worker() {
        /// Every millisecond a timer fires and relays one heartbeat.
        struct Ticker {
            ticks: Arc<Mutex<u64>>,
        }
        impl DpcActor<NetMsg> for Ticker {
            fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
                ctx.set_timer(ctx.now() + Duration::from_millis(1), 0);
            }
            fn on_message(&mut self, _: &mut dyn RuntimeCtx<NetMsg>, _: NodeId, _: NetMsg) {}
            fn on_timer(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, _kind: u64) {
                *self.ticks.lock().unwrap() += 1;
                ctx.send(NodeId(1), NetMsg::HeartbeatReq);
                ctx.set_timer(ctx.now() + Duration::from_millis(1), 0);
            }
        }
        let (ticks, log) = (Arc::new(Mutex::new(0)), Arc::new(Mutex::new(Vec::new())));
        let ticker = Box::new(Ticker {
            ticks: Arc::clone(&ticks),
        });
        let sink = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: None,
        });
        let rt = spawn_two_workers(vec![ticker, sink]);
        rt.run_for(std::time::Duration::from_millis(300));
        let sched = rt.shutdown().sched;
        let ticks = *ticks.lock().unwrap();
        assert!(ticks >= 100, "the timer keeps its pace: {ticks} ticks");
        // The relay's push wakes nobody and the firing worker runs it: the
        // sibling sleeps through the run, and the timekeeper parks once a
        // tick.
        assert!(sched.steals <= 2, "{ticks} ticks: {sched:?}");
        assert!(
            sched.parks <= ticks + ticks / 10 + 10,
            "{ticks} ticks: {sched:?}"
        );
    }

    #[test]
    fn a_cpu_bound_burst_brings_the_sibling_in() {
        const SPIN: std::time::Duration = std::time::Duration::from_millis(5);
        /// Spins `SPIN` on each message, then notes when it finished.
        struct Spinner {
            done: Arc<Mutex<Vec<std::time::Instant>>>,
        }
        impl DpcActor<NetMsg> for Spinner {
            fn on_message(&mut self, _: &mut dyn RuntimeCtx<NetMsg>, _: NodeId, _: NetMsg) {
                let start = std::time::Instant::now();
                while start.elapsed() < SPIN {}
                self.done.lock().unwrap().push(std::time::Instant::now());
            }
            fn on_timer(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _kind: u64) {}
        }
        /// Once every spinner has started and gone idle, sends each one
        /// message from one activation; three such bursts, 100 ms apart.
        struct Burst {
            sent: Arc<Mutex<Vec<std::time::Instant>>>,
        }
        impl DpcActor<NetMsg> for Burst {
            fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
                ctx.set_timer(ctx.now() + Duration::from_millis(20), 0);
            }
            fn on_message(&mut self, _: &mut dyn RuntimeCtx<NetMsg>, _: NodeId, _: NetMsg) {}
            fn on_timer(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, _kind: u64) {
                let mut sent = self.sent.lock().unwrap();
                sent.push(std::time::Instant::now());
                for to in 1..=8 {
                    ctx.send(NodeId(to), NetMsg::HeartbeatReq);
                }
                if sent.len() < 3 {
                    ctx.set_timer(ctx.now() + Duration::from_millis(100), 0);
                }
            }
        }
        let (sent, done) = (
            Arc::new(Mutex::new(Vec::new())),
            Arc::new(Mutex::new(Vec::new())),
        );
        let mut actors: Vec<Box<dyn DpcActor<NetMsg>>> = vec![Box::new(Burst {
            sent: Arc::clone(&sent),
        })];
        for _ in 0..8 {
            let done = Arc::clone(&done);
            actors.push(Box::new(Spinner { done }));
        }
        let rt = spawn_two_workers(actors);
        assert!(wait_until(|| done.lock().unwrap().len() == 24, 2000));
        let sched = rt.shutdown().sched;
        let (sent, mut done) = (sent.lock().unwrap(), done.lock().unwrap());
        done.sort();
        // The fastest burst, so that other threads sharing the cores during
        // one burst do not decide the verdict.
        let wall = (sent.iter().zip(done.chunks(8)))
            .map(|(sent, done)| done[7] - *sent)
            .min()
            .unwrap();
        // All eight are queued by one worker; once the oldest has waited
        // out the backlog, the sibling is woken and takes some.
        assert!(sched.steals > 0, "{sched:?}");
        assert!(
            wall < SPIN * 8 * 3 / 4,
            "{wall:?} against {:?} serial",
            SPIN * 8
        );
    }

    #[test]
    fn pool_stays_fixed_size_regardless_of_actor_count() {
        // 200 actors on 3 workers: the pool stays at three threads, and
        // the batch budget keeps every mailbox moving.
        let log = Arc::new(Mutex::new(Vec::new()));
        let actors: Vec<Box<dyn DpcActor<NetMsg>>> = (0..200)
            .map(|i| {
                Box::new(Recorder {
                    log: Arc::clone(&log),
                    // A ring: each actor heartbeats its successor.
                    peer: Some(NodeId(((i + 1) % 200) as u32)),
                }) as Box<dyn DpcActor<NetMsg>>
            })
            .collect();
        let rt = ThreadRuntime::spawn(
            actors,
            Vec::new(),
            3,
            Vec::new(),
            CreditPolicy::Unbounded,
            3,
            None,
        );
        assert_eq!(rt.workers(), 3);
        assert!(
            wait_until(
                || log
                    .lock()
                    .unwrap()
                    .iter()
                    .filter(|e| e.1 == "hb-req")
                    .count()
                    >= 200,
                5000
            ),
            "every ring member must deliver its heartbeat"
        );
        let stats = rt.shutdown();
        assert_eq!(stats.total_drops(), 0);
        assert!(stats.messages_delivered >= 200);
        assert_eq!(stats.sched.workers, 3);
        assert!(
            stats.sched.activations() >= 200,
            "every actor ran at least once: {:?}",
            stats.sched
        );
    }

    #[test]
    fn actor_panic_is_contained_and_reported_at_shutdown() {
        struct Bomb;
        impl DpcActor<NetMsg> for Bomb {
            fn on_start(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>) {
                panic!("boom");
            }
            fn on_message(
                &mut self,
                _ctx: &mut dyn RuntimeCtx<NetMsg>,
                _from: NodeId,
                _msg: NetMsg,
            ) {
            }
            fn on_timer(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _kind: u64) {}
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let survivor = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: None,
        });
        let rt = ThreadRuntime::spawn(
            vec![Box::new(Bomb), survivor],
            Vec::new(),
            1,
            Vec::new(),
            CreditPolicy::Unbounded,
            2,
            None,
        );
        // The panic takes down only actor 0; the pool keeps running and
        // shutdown reports the casualty.
        rt.run_for(std::time::Duration::from_millis(50));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.shutdown()))
            .expect_err("shutdown must surface the actor panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("dpc-actor-0"),
            "panic report names the actor: {msg}"
        );
    }
}
