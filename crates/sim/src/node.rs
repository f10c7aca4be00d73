//! The node half of the system model (§2.2, §4.5): a node runs one handler
//! at a time until it crashes, loses its volatile state, and comes back as
//! a new *incarnation* — written once, next to the link half ([`Fabric`]),
//! and shared by every runtime.
//!
//! * [`DeadlineQueue`] is the one `(deadline, insertion sequence)` heap and
//!   [`Event`] what it holds: the simulator's event queue and the worker
//!   pool's one wheel are both a `DeadlineQueue<Event<M>>`, so they share a
//!   total order and one vocabulary by construction.
//! * [`ActorCell`] is one actor's driver-side state — the boxed actor,
//!   whether it has started, and its incarnation — and
//!   [`ActorCell::activate`] is the one activation step. A driver turns
//!   whatever woke the actor into an [`Input`], supplies a [`Host`] (the
//!   handler context plus its route to the fabric) and acts on the credit
//!   the step reports; the rules in between are the step's alone:
//!
//!   * an actor starts once;
//!   * a message is delivered only if [`Fabric::arrive`] says so, and a
//!     credit-holding one owes its credit back either way — at the
//!     handler's [`Ctx::data_consumed_at`] mark if delivered, at once if
//!     lost in flight;
//!   * a timer fires only in the incarnation that armed it, and only while
//!     the actor is up ([`Fabric::timer_fires`] counts the rest);
//!   * an actor's own `NodeDown` ends its incarnation *after* its handler
//!     ran, so whatever that handler armed never fires either.
//!
//! What stays with a driver is the clock, the queue discipline (one global
//! event heap, or mailboxes of [`Input`]s plus one pool wheel), and the
//! last hop of a message.

use crate::actor::{Actor, Ctx};
use crate::fabric::{Fabric, ShardMsg};
use crate::fault::FaultEvent;
use borealis_types::{NodeId, Time};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::DerefMut;

struct Pending<T> {
    at: Time,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first, insertion
        // order (seq) breaking ties.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Deadline-ordered pending work: earliest first, insertion order breaking
/// ties.
pub struct DeadlineQueue<T> {
    heap: BinaryHeap<Pending<T>>,
    seq: u64,
    /// Deadline/seq of the last popped entry: pops must be monotone in
    /// `(at, seq)` — nothing may be pushed earlier than what already ran
    /// (debug builds assert this in [`DeadlineQueue::pop_due`]).
    #[cfg(debug_assertions)]
    last_popped: Option<(Time, u64)>,
}

impl<T> Default for DeadlineQueue<T> {
    fn default() -> Self {
        DeadlineQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            #[cfg(debug_assertions)]
            last_popped: None,
        }
    }
}

impl<T> DeadlineQueue<T> {
    /// Schedules `item` at `at`.
    pub fn push(&mut self, at: Time, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Pending { at, seq, item });
    }

    /// Deadline of the earliest entry, if any.
    pub fn next_due(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the earliest entry if it is due at `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, T)> {
        if self.next_due()? > now {
            return None;
        }
        let e = self.heap.pop().expect("peeked entry exists");
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.last_popped.is_none_or(|last| last < (e.at, e.seq)),
                "deadline queue popped out of (deadline, seq) order: {:?} after {:?}",
                (e.at, e.seq),
                self.last_popped
            );
            self.last_popped = Some((e.at, e.seq));
        }
        Some((e.at, e.item))
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// What woke an actor: the input of one activation.
#[derive(Debug)]
pub enum Input<M> {
    /// The runtime starts the actor (a no-op after the first).
    Start,
    /// `msg` reached this end of the link from `from`.
    Message {
        /// Sending actor.
        from: NodeId,
        /// The message.
        msg: M,
    },
    /// A timer came due.
    Timer {
        /// Timer kind, as passed to [`Ctx::set_timer`].
        kind: u64,
        /// The incarnation that armed it (see [`ActorCell::incarnation`]).
        incarnation: u32,
    },
    /// A fault the fabric says this actor hears of.
    Fault(FaultEvent),
}

/// Deferred work on a driver's [`DeadlineQueue`]: the simulator's one event
/// queue and the worker pool's one wheel hold these three kinds.
#[derive(Debug)]
pub enum Event<M> {
    /// One activation of an actor: its start, a message reaching the far
    /// end of its link, or a timer (stamped with the incarnation that
    /// armed it).
    Input(NodeId, Input<M>),
    /// A delivery on `from → to` was consumed: return its credit and
    /// release the next queued message, if any.
    Replenish {
        /// The sender whose link credit returns.
        from: NodeId,
        /// The consuming actor.
        to: NodeId,
    },
    /// A scripted fault (or heal): [`Fabric::apply`] it, then notify the
    /// actors it names with an [`Input::Fault`].
    Fault(FaultEvent),
}

/// The driver's side of one activation: the handler context — fresh for
/// every input, its timers stamped with [`ActorCell::incarnation`] — plus
/// what the step itself needs from the driver.
pub trait Host<M>: Ctx<M> {
    /// The deployment's fabric, for one verdict: a plain borrow in the
    /// simulator, one lock hold on the pool (never across a handler).
    fn fabric(&mut self) -> impl DerefMut<Target = Fabric<M>>;

    /// The consumption mark the handler left through
    /// [`Ctx::data_consumed_at`], if any.
    fn consumed_at(&self) -> Option<Time>;
}

/// One actor as a driver holds it: the protocol state plus what survives
/// the actor's crashes on the driver's side.
pub struct ActorCell<M> {
    actor: Box<dyn Actor<M>>,
    started: bool,
    incarnation: u32,
}

impl<M: ShardMsg> ActorCell<M> {
    /// A cell for an actor that has not started yet.
    pub fn new(actor: Box<dyn Actor<M>>) -> ActorCell<M> {
        ActorCell {
            actor,
            started: false,
            incarnation: 0,
        }
    }

    /// Crashes this actor has been through. A driver stamps every timer
    /// with the value current when it was armed.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Runs one activation of actor `host.id()` at `host.now()` (see the
    /// module docs for the rules). Returns the link credit the driver now
    /// owes, as `(sender, when)`: return it through [`Fabric::consumed`]
    /// — or a wire grant to a remote sender — once `when` has come.
    pub fn activate(&mut self, host: &mut impl Host<M>, input: Input<M>) -> Option<(NodeId, Time)> {
        let id = host.id();
        match input {
            Input::Start => {
                if !self.started {
                    self.started = true;
                    self.actor.on_start(host);
                }
            }
            Input::Message { from, msg } => {
                let arrival = host.fabric().arrive(from, id, &msg);
                let mark = if arrival.deliver {
                    self.actor.on_message(host, from, msg);
                    host.consumed_at()
                } else {
                    None
                };
                if arrival.owes_credit {
                    return Some((from, mark.unwrap_or(host.now())));
                }
            }
            Input::Timer { kind, incarnation } => {
                let stale = incarnation != self.incarnation;
                if host.fabric().timer_fires(id, stale) {
                    self.actor.on_timer(host, kind);
                }
            }
            Input::Fault(fault) => {
                self.actor.on_fault(host, &fault);
                if fault == FaultEvent::NodeDown(id) {
                    self.incarnation += 1;
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::{CreditPolicy, Duration};
    use std::sync::{Arc, Mutex};

    #[test]
    fn deadline_queue_pops_due_entries_in_deadline_then_insertion_order() {
        let mut q = DeadlineQueue::default();
        for (ms, item) in [(20, 'd'), (15, 'c'), (10, 'a'), (10, 'b'), (40, 'e')] {
            q.push(Time::from_millis(ms), item);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.next_due(), Some(Time::from_millis(10)));
        assert!(q.pop_due(Time::from_millis(5)).is_none(), "nothing due yet");
        let now = Time::from_millis(30);
        let fired: Vec<(Time, char)> = std::iter::from_fn(|| q.pop_due(now)).collect();
        let order: String = fired.iter().map(|e| e.1).collect();
        assert_eq!(order, "abcd", "deadline order, ties by insertion");
        assert!(fired.iter().all(|e| e.0 <= now), "never later than now");
        assert_eq!(q.next_due(), Some(Time::from_millis(40)));
        assert!(q.pop_due(Time::from_millis(40)).is_some() && q.is_empty());
    }

    /// Credit-controlled toy data; the payload is the consumption mark the
    /// receiving handler sets, in ms (0: it sets none).
    #[derive(Debug)]
    struct Data(u64);
    impl ShardMsg for Data {
        fn credit_controlled(&self) -> bool {
            true
        }
    }

    const ME: NodeId = NodeId(0);
    const PEER: NodeId = NodeId(1);

    /// Logs every callback; arms timer 1 when it starts and timer 2 from
    /// its own `NodeDown` handler.
    struct Probe(Arc<Mutex<Vec<String>>>);

    impl Actor<Data> for Probe {
        fn on_start(&mut self, ctx: &mut dyn Ctx<Data>) {
            self.0.lock().unwrap().push("start".into());
            ctx.set_timer(ctx.now(), 1);
        }
        fn on_message(&mut self, ctx: &mut dyn Ctx<Data>, _from: NodeId, msg: Data) {
            self.0.lock().unwrap().push(format!("msg {}", msg.0));
            if msg.0 > 0 {
                ctx.data_consumed_at(Time::from_millis(msg.0));
            }
        }
        fn on_timer(&mut self, _ctx: &mut dyn Ctx<Data>, kind: u64) {
            self.0.lock().unwrap().push(format!("timer {kind}"));
        }
        fn on_fault(&mut self, ctx: &mut dyn Ctx<Data>, fault: &FaultEvent) {
            self.0.lock().unwrap().push("fault".into());
            if *fault == FaultEvent::NodeDown(ctx.id()) {
                ctx.set_timer(ctx.now(), 2);
            }
        }
    }

    /// The scripted driver: a fabric of its own, a fixed instant, and the
    /// timers the actor armed as `(kind, incarnation)`.
    struct Script<'a> {
        now: Time,
        incarnation: u32,
        fabric: &'a mut Fabric<Data>,
        armed: &'a mut Vec<(u64, u32)>,
        consumed_at: Option<Time>,
    }

    impl Ctx<Data> for Script<'_> {
        fn now(&self) -> Time {
            self.now
        }
        fn id(&self) -> NodeId {
            ME
        }
        fn send(&mut self, _to: NodeId, _msg: Data) {}
        fn data_consumed_at(&mut self, at: Time) {
            self.consumed_at = Some(at.max(self.now));
        }
        fn outbound_stall(&self, _to: NodeId) -> Duration {
            Duration::ZERO
        }
        fn set_timer(&mut self, _at: Time, kind: u64) {
            self.armed.push((kind, self.incarnation));
        }
        fn reachable(&self, to: NodeId) -> bool {
            self.fabric.reachable(ME, to)
        }
        fn rand_range(&mut self, _n: u64) -> u64 {
            0
        }
    }

    impl Host<Data> for Script<'_> {
        fn fabric(&mut self) -> impl DerefMut<Target = Fabric<Data>> {
            &mut *self.fabric
        }
        fn consumed_at(&self) -> Option<Time> {
            self.consumed_at
        }
    }

    /// One step of a conformance case, run at `t = step index` ms.
    enum Step {
        /// Feed one input → the credit owed to `PEER`, as its due time in ms.
        In(Input<Data>, Option<u64>),
        /// The `n`-th timer the actor armed comes due.
        Fire(usize),
        /// A timer of kind 9 armed by the current incarnation comes due.
        FireFresh,
        /// The driver applies a fault and notifies whom the fabric names.
        Fault(FaultEvent),
        /// Every callback so far.
        Log(&'static [&'static str]),
        /// `timers_suppressed` so far.
        Suppressed(u64),
    }
    use Step::*;

    fn msg(mark_ms: u64) -> Input<Data> {
        let (from, msg) = (PEER, Data(mark_ms));
        Input::Message { from, msg }
    }

    fn cases() -> Vec<(&'static str, Vec<Step>)> {
        let cut = FaultEvent::LinkDown { a: ME, b: PEER };
        let custom = FaultEvent::Custom { target: ME, tag: 7 };
        vec![
            (
                "an actor starts once",
                vec![
                    In(Input::Start, None),
                    In(Input::Start, None),
                    Log(&["start"]),
                ],
            ),
            (
                "a delivered message owes its credit at the handler's mark",
                vec![
                    In(msg(50), Some(50)),
                    // No mark (an infinitely fast consumer), or one in the
                    // past: now.
                    In(msg(0), Some(1)),
                    In(msg(1), Some(2)),
                    Log(&["msg 50", "msg 0", "msg 1"]),
                ],
            ),
            (
                "a message lost in flight is not delivered and owes its credit now",
                vec![
                    Fault(cut.clone()),
                    In(msg(50), Some(1)),
                    Fault(FaultEvent::LinkUp { a: ME, b: PEER }),
                    In(msg(50), Some(50)),
                    Log(&["fault", "fault", "msg 50"]),
                ],
            ),
            (
                "a timer fires only in the incarnation that armed it",
                vec![
                    In(Input::Start, None), // arms timer 1
                    FireFresh,
                    Fault(FaultEvent::NodeDown(ME)), // its handler arms timer 2
                    Fault(FaultEvent::NodeUp(ME)),
                    Fire(0),
                    Fire(1),
                    Suppressed(2),
                    FireFresh,
                    Log(&["start", "timer 9", "fault", "fault", "timer 9"]),
                ],
            ),
            (
                "a down actor fires no timer and hears only its own NodeDown",
                vec![
                    Fault(custom.clone()),
                    Fault(FaultEvent::NodeDown(ME)),
                    FireFresh,
                    Suppressed(1),
                    Fault(cut),
                    Fault(custom),
                    Fault(FaultEvent::NodeDown(ME)),
                    Log(&["fault", "fault", "fault"]),
                ],
            ),
        ]
    }

    /// The node-model conformance table: every rule of the activation
    /// step, stated once against the one step both drivers call.
    #[test]
    fn activation_conformance() {
        for (name, steps) in cases() {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut cell = ActorCell::new(Box::new(Probe(Arc::clone(&log))));
            let mut fabric = Fabric::new(Vec::new(), CreditPolicy::Window(4));
            let mut armed = Vec::new();
            for (i, step) in steps.into_iter().enumerate() {
                let at = format!("case '{name}', step {i}");
                let now = Time::from_millis(i as u64);
                let incarnation = cell.incarnation();
                let (input, owed) = match step {
                    In(input, owed) => (input, owed),
                    Fire(n) => {
                        let (kind, incarnation) = armed[n];
                        (Input::Timer { kind, incarnation }, None)
                    }
                    FireFresh => {
                        let kind = 9;
                        (Input::Timer { kind, incarnation }, None)
                    }
                    Fault(fault) => {
                        let Some((_, heard)) = fabric.apply(&fault, now, [ME]).pop() else {
                            continue;
                        };
                        (Input::Fault(heard), None)
                    }
                    Log(want) => {
                        assert_eq!(*log.lock().unwrap(), want, "{at}");
                        continue;
                    }
                    Suppressed(n) => {
                        assert_eq!(fabric.stats().timers_suppressed, n, "{at}");
                        continue;
                    }
                };
                let mut host = Script {
                    now,
                    incarnation,
                    fabric: &mut fabric,
                    armed: &mut armed,
                    consumed_at: None,
                };
                let want = owed.map(|ms| (PEER, Time::from_millis(ms)));
                assert_eq!(cell.activate(&mut host, input), want, "{at}");
            }
        }
    }
}
