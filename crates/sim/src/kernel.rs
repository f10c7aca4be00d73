//! The deterministic discrete-event kernel.
//!
//! A [`Sim`] is one of the drivers of the system model — the link
//! [`Fabric`] and the node-side activation step ([`ActorCell::activate`]):
//! it adds a virtual clock, one totally ordered event queue (a
//! [`DeadlineQueue`]: time, then insertion sequence), constant link latency
//! and a seeded RNG, and asks the model what every send, arrival, timer,
//! credit return and fault means. Two runs with the same seed and script
//! produce identical event interleavings — which is what lets the test
//! suite assert exact protocol behaviour and lets the benchmark harness
//! reproduce the paper's experiments without a physical cluster.

use crate::actor::{Actor, Ctx};
use crate::fabric::{Fabric, Sent, ShardMsg, StatsSnapshot};
use crate::fault::FaultEvent;
use crate::node::{ActorCell, DeadlineQueue, Event, Host, Input};
use borealis_types::{Duration, NodeId, ShardRouter, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::DerefMut;

/// The [`Host`] handed to the activation step: sends go through the fabric
/// and become arrival events one link latency later.
struct SimCtx<'a, M> {
    now: Time,
    id: NodeId,
    incarnation: u32,
    latency: Duration,
    fabric: &'a mut Fabric<M>,
    router: &'a mut ShardRouter,
    rng: &'a mut StdRng,
    queue: &'a mut DeadlineQueue<Event<M>>,
    consumed_at: Option<Time>,
}

impl<M: ShardMsg> Ctx<M> for SimCtx<'_, M> {
    fn now(&self) -> Time {
        self.now
    }

    fn id(&self) -> NodeId {
        self.id
    }

    fn send(&mut self, to: NodeId, msg: M) {
        let from = self.id;
        if let Sent::Go(msg) = self.fabric.send(self.router, from, to, msg, self.now) {
            let arrival = Event::Input(to, Input::Message { from, msg });
            self.queue.push(self.now + self.latency, arrival);
        }
    }

    fn data_consumed_at(&mut self, at: Time) {
        self.consumed_at = Some(at.max(self.now));
    }

    fn outbound_stall(&self, to: NodeId) -> Duration {
        self.fabric.stalled_for(self.id, to, self.now)
    }

    fn set_timer(&mut self, at: Time, kind: u64) {
        let incarnation = self.incarnation;
        let timer = Event::Input(self.id, Input::Timer { kind, incarnation });
        self.queue.push(at.max(self.now), timer);
    }

    fn reachable(&self, to: NodeId) -> bool {
        self.fabric.reachable(self.id, to)
    }

    fn rand_range(&mut self, n: u64) -> u64 {
        self.rng.gen_range(0..n)
    }
}

impl<M: ShardMsg> Host<M> for SimCtx<'_, M> {
    fn fabric(&mut self) -> impl DerefMut<Target = Fabric<M>> {
        &mut *self.fabric
    }

    fn consumed_at(&self) -> Option<Time> {
        self.consumed_at
    }
}

/// The discrete-event simulation.
pub struct Sim<M> {
    cells: Vec<ActorCell<M>>,
    fabric: Fabric<M>,
    /// One-way latency of every link (FIFO order falls out of the
    /// deterministic event queue).
    latency: Duration,
    queue: DeadlineQueue<Event<M>>,
    now: Time,
    rng: StdRng,
    events_dispatched: u64,
    /// One-pass partition memo shared by every send in the simulation
    /// (single-threaded, so one router covers all senders): each produced
    /// batch is split once, whatever order its chunks leave in.
    router: ShardRouter,
}

impl<M: ShardMsg> Sim<M> {
    /// Creates a simulation with the given RNG seed and one-way link
    /// latency over `fabric` (link state, partitioned receivers, credit
    /// policy).
    pub fn new(seed: u64, latency: Duration, fabric: Fabric<M>) -> Sim<M> {
        Sim {
            cells: Vec::new(),
            fabric,
            latency,
            queue: DeadlineQueue::default(),
            now: Time::ZERO,
            rng: StdRng::seed_from_u64(seed),
            events_dispatched: 0,
            router: ShardRouter::new(),
        }
    }

    /// Registers an actor; its `on_start` fires at time zero (or at the
    /// current time if the simulation is already running).
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> NodeId {
        let id = NodeId(self.cells.len() as u32);
        self.cells.push(ActorCell::new(actor));
        self.queue.push(self.now, Event::Input(id, Input::Start));
        id
    }

    /// The link fabric (reachability, credit policy, per-link stalls).
    pub fn fabric(&self) -> &Fabric<M> {
        &self.fabric
    }

    /// Schedules a fault (or heal) at `at`.
    pub fn schedule_fault(&mut self, at: Time, fault: FaultEvent) {
        self.queue.push(at, Event::Fault(fault));
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events dispatched so far (throughput benchmarking).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Message-loss and delivery statistics, with the credit ledger's
    /// gauges.
    pub fn stats(&self) -> StatsSnapshot {
        self.fabric.stats()
    }

    /// Runs until the queue is empty or virtual time would exceed `until`.
    /// Returns the number of events dispatched.
    pub fn run_until(&mut self, until: Time) -> u64 {
        let mut dispatched = 0;
        while let Some((at, event)) = self.queue.pop_due(until) {
            self.now = self.now.max(at);
            self.dispatch(event);
            dispatched += 1;
        }
        self.now = self.now.max(until);
        self.events_dispatched += dispatched;
        dispatched
    }

    fn dispatch(&mut self, event: Event<M>) {
        match event {
            Event::Input(to, input) => self.activate(to, input),
            Event::Replenish { from, to } => {
                if let Some(msg) = self.fabric.consumed(from, to, self.now) {
                    let arrival = Event::Input(to, Input::Message { from, msg });
                    self.queue.push(self.now + self.latency, arrival);
                }
            }
            Event::Fault(fault) => {
                let actors = (0..self.cells.len() as u32).map(NodeId);
                for (id, heard) in self.fabric.apply(&fault, self.now, actors) {
                    self.activate(id, Input::Fault(heard));
                }
            }
        }
    }

    /// One activation of `id` with a fresh context at the current instant;
    /// the credit it owes becomes a `Replenish` event.
    fn activate(&mut self, id: NodeId, input: Input<M>) {
        let Some(cell) = self.cells.get_mut(id.index()) else {
            return;
        };
        let mut ctx = SimCtx {
            now: self.now,
            id,
            incarnation: cell.incarnation(),
            latency: self.latency,
            fabric: &mut self.fabric,
            router: &mut self.router,
            rng: &mut self.rng,
            queue: &mut self.queue,
            consumed_at: None,
        };
        if let Some((from, at)) = cell.activate(&mut ctx, input) {
            self.queue.push(at, Event::Replenish { from, to: id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::CreditPolicy;
    use std::sync::{Arc, Mutex};

    impl ShardMsg for String {}

    type Log = Arc<Mutex<Vec<(u64, NodeId, String)>>>;

    /// Echoes every message back and logs receipt times (ms).
    struct Echo {
        log: Log,
        replies: u32,
    }

    impl Actor<String> for Echo {
        fn on_message(&mut self, ctx: &mut dyn Ctx<String>, from: NodeId, msg: String) {
            self.log
                .lock()
                .unwrap()
                .push((ctx.now().as_millis(), ctx.id(), msg.clone()));
            if self.replies > 0 {
                self.replies -= 1;
                ctx.send(from, format!("re:{msg}"));
            }
        }
        fn on_timer(&mut self, _ctx: &mut dyn Ctx<String>, _kind: u64) {}
    }

    /// Sends one message at start and logs timer firings.
    struct Starter {
        to: NodeId,
        log: Log,
    }

    impl Actor<String> for Starter {
        fn on_start(&mut self, ctx: &mut dyn Ctx<String>) {
            ctx.send(self.to, "hello".into());
            ctx.set_timer(Time::from_millis(50), 7);
        }
        fn on_message(&mut self, ctx: &mut dyn Ctx<String>, _from: NodeId, msg: String) {
            self.log
                .lock()
                .unwrap()
                .push((ctx.now().as_millis(), ctx.id(), msg));
        }
        fn on_timer(&mut self, ctx: &mut dyn Ctx<String>, kind: u64) {
            self.log.lock().unwrap().push((
                ctx.now().as_millis(),
                ctx.id(),
                format!("timer{kind}"),
            ));
        }
    }

    fn new_sim() -> Sim<String> {
        Sim::new(42, Duration::from_millis(1), Fabric::default())
    }

    #[test]
    fn messages_arrive_after_latency_in_order() {
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = new_sim();
        let echo = sim.add_actor(Box::new(Echo {
            log: log.clone(),
            replies: 1,
        }));
        let _starter = sim.add_actor(Box::new(Starter {
            to: echo,
            log: log.clone(),
        }));
        sim.run_until(Time::from_secs(1));
        let entries = log.lock().unwrap();
        // hello arrives at 1 ms, reply at 2 ms, timer at 50 ms.
        assert_eq!(entries[0], (1, NodeId(0), "hello".into()));
        assert_eq!(entries[1], (2, NodeId(1), "re:hello".into()));
        assert_eq!(entries[2], (50, NodeId(1), "timer7".into()));
        assert_eq!(sim.stats().total_drops(), 0, "a healthy run loses nothing");
    }

    #[test]
    fn send_time_unreachable_drops_are_counted() {
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = new_sim();
        // Fault scheduled before the actors start: the link is already
        // down when Starter's on_start sends, so the drop happens at send
        // time.
        sim.schedule_fault(
            Time::ZERO,
            FaultEvent::LinkDown {
                a: NodeId(0),
                b: NodeId(1),
            },
        );
        let echo = sim.add_actor(Box::new(Echo {
            log: log.clone(),
            replies: 0,
        }));
        sim.add_actor(Box::new(Starter {
            to: echo,
            log: log.clone(),
        }));
        sim.run_until(Time::from_secs(1));
        assert_eq!(
            sim.stats().send_unreachable_drops,
            1,
            "the hello was dropped at send"
        );
        assert_eq!(sim.stats().delivery_drops, 0);
        assert_eq!(sim.stats().total_drops(), 1);
    }

    #[test]
    fn in_flight_delivery_drops_are_counted_separately() {
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = new_sim();
        let echo = sim.add_actor(Box::new(Echo {
            log: log.clone(),
            replies: 0,
        }));
        let starter = sim.add_actor(Box::new(Starter {
            to: echo,
            log: log.clone(),
        }));
        // The link breaks after the send (t=0, same instant but later event
        // order) and before delivery (t=1 ms): an in-flight loss.
        sim.schedule_fault(
            Time::ZERO,
            FaultEvent::LinkDown {
                a: echo,
                b: starter,
            },
        );
        sim.run_until(Time::from_secs(1));
        assert_eq!(sim.stats().send_unreachable_drops, 0);
        assert_eq!(sim.stats().delivery_drops, 1);
        // Only the timer fires; the hello was dropped.
        let entries = log.lock().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].2, "timer7");
    }

    #[test]
    fn crashed_node_receives_nothing_and_fires_no_timers() {
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = new_sim();
        let echo = sim.add_actor(Box::new(Echo {
            log: log.clone(),
            replies: 0,
        }));
        let starter = sim.add_actor(Box::new(Starter {
            to: echo,
            log: log.clone(),
        }));
        sim.schedule_fault(Time::ZERO, FaultEvent::NodeDown(starter));
        sim.run_until(Time::from_secs(1));
        assert!(log.lock().unwrap().is_empty(), "{:?}", log.lock().unwrap());
    }

    /// Re-arms a 1 s periodic timer from `on_start` and — like a protocol
    /// node restarting — from its own `NodeUp`; logs every callback.
    struct Periodic(Log);

    impl Actor<String> for Periodic {
        fn on_start(&mut self, ctx: &mut dyn Ctx<String>) {
            ctx.set_timer(ctx.now() + Duration::from_secs(1), 1);
        }
        fn on_message(&mut self, _ctx: &mut dyn Ctx<String>, _from: NodeId, _msg: String) {}
        fn on_timer(&mut self, ctx: &mut dyn Ctx<String>, _kind: u64) {
            let entry = (ctx.now().as_millis(), ctx.id(), "tick".to_string());
            self.0.lock().unwrap().push(entry);
            self.on_start(ctx);
        }
        fn on_fault(&mut self, ctx: &mut dyn Ctx<String>, fault: &FaultEvent) {
            if *fault == FaultEvent::NodeUp(ctx.id()) {
                self.on_start(ctx);
            }
        }
    }

    #[test]
    fn restart_leaves_one_periodic_timer_chain() {
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = new_sim();
        let a = sim.add_actor(Box::new(Periodic(log.clone())));
        // A 300 ms outage between two ticks: the crashed incarnation's next
        // timer (t = 4 s) comes due with the actor up again.
        sim.schedule_fault(Time::from_millis(3500), FaultEvent::NodeDown(a));
        sim.schedule_fault(Time::from_millis(3800), FaultEvent::NodeUp(a));
        sim.run_until(Time::from_millis(13_800));
        let ticks: Vec<u64> = log.lock().unwrap().iter().map(|e| e.0).collect();
        let after: Vec<u64> = ticks.iter().copied().filter(|&t| t > 3800).collect();
        let expect: Vec<u64> = (0..10).map(|i| 4800 + 1000 * i).collect();
        assert_eq!(after, expect, "one chain, re-armed at the restart");
        assert_eq!(sim.stats().timers_suppressed, 1, "the t = 4 s timer");
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = || {
            let log: Log = Arc::new(Mutex::new(Vec::new()));
            let mut sim = new_sim();
            let echo = sim.add_actor(Box::new(Echo {
                log: log.clone(),
                replies: 3,
            }));
            sim.add_actor(Box::new(Starter {
                to: echo,
                log: log.clone(),
            }));
            sim.run_until(Time::from_secs(2));
            let v = log.lock().unwrap().clone();
            v
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_respects_horizon() {
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = new_sim();
        let echo = sim.add_actor(Box::new(Echo {
            log: log.clone(),
            replies: 0,
        }));
        sim.add_actor(Box::new(Starter {
            to: echo,
            log: log.clone(),
        }));
        sim.run_until(Time::from_millis(10));
        assert_eq!(log.lock().unwrap().len(), 1, "timer at 50 ms not yet fired");
        assert_eq!(sim.now(), Time::from_millis(10));
        sim.run_until(Time::from_millis(100));
        assert_eq!(log.lock().unwrap().len(), 2);
    }

    /// A data-plane message for flow-control tests.
    #[derive(Debug, Clone, PartialEq)]
    struct Payload(u32);
    impl ShardMsg for Payload {
        fn credit_controlled(&self) -> bool {
            true
        }
    }

    /// Sends `n` payloads in one burst at start.
    struct Flood {
        to: NodeId,
        n: u32,
    }
    impl Actor<Payload> for Flood {
        fn on_start(&mut self, ctx: &mut dyn Ctx<Payload>) {
            for i in 0..self.n {
                ctx.send(self.to, Payload(i));
            }
        }
        fn on_message(&mut self, _ctx: &mut dyn Ctx<Payload>, _from: NodeId, _msg: Payload) {}
        fn on_timer(&mut self, _ctx: &mut dyn Ctx<Payload>, _kind: u64) {}
    }

    /// Consumes each payload `per_msg` of modeled CPU after the previous.
    struct SlowSink {
        seen: Arc<Mutex<Vec<u32>>>,
        per_msg: Duration,
        busy: Time,
    }
    impl Actor<Payload> for SlowSink {
        fn on_message(&mut self, ctx: &mut dyn Ctx<Payload>, _from: NodeId, msg: Payload) {
            self.seen.lock().unwrap().push(msg.0);
            self.busy = self.busy.max(ctx.now()) + self.per_msg;
            ctx.data_consumed_at(self.busy);
        }
        fn on_timer(&mut self, _ctx: &mut dyn Ctx<Payload>, _kind: u64) {}
    }

    fn flood_sim(policy: CreditPolicy, n: u32) -> (Sim<Payload>, Arc<Mutex<Vec<u32>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let fabric = Fabric::new(Vec::new(), policy);
        let mut sim: Sim<Payload> = Sim::new(3, Duration::from_millis(1), fabric);
        let sink = sim.add_actor(Box::new(SlowSink {
            seen: seen.clone(),
            per_msg: Duration::from_millis(10),
            busy: Time::ZERO,
        }));
        sim.add_actor(Box::new(Flood { to: sink, n }));
        (sim, seen)
    }

    #[test]
    fn bounded_window_caps_inflight_and_preserves_order() {
        let (mut sim, seen) = flood_sim(CreditPolicy::Window(3), 20);
        sim.run_until(Time::from_secs(5));
        assert_eq!(
            *seen.lock().unwrap(),
            (0..20).collect::<Vec<_>>(),
            "backpressure may delay, never reorder or drop"
        );
        let g = sim.stats().flow;
        assert_eq!(g.inflight_peak, 3, "in-flight bounded by the window");
        assert_eq!(g.queued, 17, "the burst past the window queued");
        assert_eq!(g.released, 17);
        assert_eq!(g.queued_now, 0);
        assert_eq!(g.inflight_now, 0, "all credits returned at quiescence");
        assert!(g.stall_time > Duration::ZERO);
        assert_eq!(sim.stats().total_drops(), 0);
    }

    #[test]
    fn max_window_baseline_shows_unbounded_inflight() {
        let (mut sim, seen) = flood_sim(CreditPolicy::Window(u32::MAX), 20);
        sim.run_until(Time::from_secs(5));
        assert_eq!(seen.lock().unwrap().len(), 20);
        let g = sim.stats().flow;
        assert_eq!(g.inflight_peak, 20, "the whole burst floods the receiver");
        assert_eq!(g.queued, 0, "the maximal window never stalls");
    }

    #[test]
    fn unbounded_policy_keeps_the_ledger_silent() {
        let (mut sim, seen) = flood_sim(CreditPolicy::Unbounded, 20);
        sim.run_until(Time::from_secs(5));
        assert_eq!(seen.lock().unwrap().len(), 20);
        assert_eq!(sim.stats().flow, borealis_types::FlowGauges::default());
    }

    #[test]
    fn crash_purges_queued_sends_as_delivery_drops() {
        let (mut sim, seen) = flood_sim(CreditPolicy::Window(2), 10);
        // Crash the sink while most of the burst is still queued: the
        // queued messages are purged (counted) and never delivered.
        sim.schedule_fault(Time::from_millis(15), FaultEvent::NodeDown(NodeId(0)));
        sim.run_until(Time::from_secs(5));
        assert!(seen.lock().unwrap().len() < 10, "crash cut the stream");
        assert!(
            sim.stats().delivery_drops > 0,
            "purged queue counted: {:?}",
            sim.stats()
        );
        assert_eq!(sim.stats().flow.queued_now, 0);
    }

    #[test]
    fn stalled_for_visible_while_link_saturated() {
        let (mut sim, _seen) = flood_sim(CreditPolicy::Window(1), 50);
        sim.run_until(Time::from_millis(100));
        assert!(
            sim.fabric().stalled_for(NodeId(1), NodeId(0), sim.now()) > Duration::ZERO,
            "mid-burst the sender is stalled"
        );
        sim.run_until(Time::from_secs(10));
        assert_eq!(
            sim.fabric().stalled_for(NodeId(1), NodeId(0), sim.now()),
            Duration::ZERO,
            "drained"
        );
    }
}
