//! Exhaustive interleaving tests for the runtime's core concurrency
//! protocols, run under `borealis-check`'s bounded model checker
//! (`RUSTFLAGS="--cfg borealis_model" cargo test -p borealis-runtime --lib`).
//!
//! Every test explores *all* thread interleavings up to the preemption
//! bound (2 — the CHESS observation: almost all real concurrency bugs
//! need at most two preemptive switches). Seven protocols are covered:
//!
//! 1. the mailbox queued-exactly-once state machine ([`Scheduler::push`]);
//! 2. the one run queue's park ([`Scheduler::next`]: a push racing a
//!    parker's empty check is never slept through — the check and the
//!    wait are one critical section);
//! 3. credit-window accounting on the [`SharedFabric`] — the one
//!    `Mutex<Fabric<NetMsg>>` the pool's workers and the TCP readers
//!    share;
//! 4. crash purge vs in-flight sends on that same shared fabric (every
//!    purged send counted exactly once as a delivery drop);
//! 5. credit release vs link order ([`Scheduler::release_credit`]: two
//!    threads returning credits of one link deliver the released messages
//!    in ledger order);
//! 6. the socket outbox's flush role ([`Outbox::flush`]: frames appended
//!    by concurrent senders, each flushing its own, are written exactly
//!    once, in each sender's order, and none is left behind);
//! 7. the pool's timekeeper and its quiet pushes ([`Scheduler::next`]:
//!    the earliest deadline always has a timed parker; a worker's own push
//!    wakes nobody and is run before that worker parks).
//!
//! Each protocol also has a **seeded-bug twin**: a compact
//! reimplementation with one critical line mutated the way a plausible
//! refactor would, checked with [`explore_expect_violation`] — proving
//! the explorer *detects* the class of bug the real code avoids, and
//! printing the replayable trace a real regression would produce.

use crate::outbox::{Outbox, Sink};
use crate::scheduler::{Envelope, Scheduler, Task};
use crate::sync::{cv_wait, cv_wait_timeout, relock, Arc, AtomicU64, Condvar, Mutex, Ordering};
use crate::SharedFabric;
use borealis_check::sync::thread;
use borealis_check::{explore, explore_expect_violation, Opts, Report};
use borealis_dpc::{DpcActor, NetMsg, RuntimeCtx};
use borealis_sim::{Fabric, FaultEvent, Input};
use borealis_types::{CreditPolicy, NodeId, ShardRouter, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

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

/// Tasks on the run queue.
fn queued(s: &Scheduler) -> u64 {
    s.gauges().local_depth
}

/// Worker `w`'s next task; the run queue must hold one (on an empty one
/// the worker would park).
fn pop(s: &Scheduler, w: usize) -> Arc<Task> {
    s.next(w, Time::ZERO, None).expect("a task is queued")
}

/// Drains the initial seeding so every task is Idle.
fn drain_initial(s: &Scheduler) {
    while queued(s) > 0 {
        let t = pop(s, 0);
        t.begin();
        while t.pop_envelope().is_some() {}
    }
}

/// The pool's shared fabric under a one-credit window.
fn shared_fabric() -> Arc<SharedFabric> {
    Arc::new(Mutex::new(Fabric::new(Vec::new(), CreditPolicy::Window(1))))
}

/// One worker-side send of a data message on `a → b`, as `Worker::send`
/// issues it: the whole reachability → partition → admission rule inside
/// one critical section.
fn send_data(t: &SharedFabric, a: NodeId, b: NodeId) {
    relock(t).send(&mut ShardRouter::new(), a, b, data_msg(0), Time::ZERO);
}

/// A data message, numbered through its stream id.
fn data_msg(n: u32) -> NetMsg {
    NetMsg::Data {
        stream: borealis_types::StreamId(n),
        tuples: borealis_types::TupleBatch::single(borealis_types::Tuple::boundary(
            borealis_types::TupleId::NONE,
            Time::ZERO,
        ))
        .into(),
    }
}

/// Prints the explored state-space size (shown with `-- --nocapture`).
fn report(name: &str, r: Report) {
    println!(
        "model-state-space {name}: executions={} bound={} depth={}",
        r.executions, r.preemption_bound, r.max_branch_depth
    );
}

// ---------------------------------------------------------------------------
// Protocol 1: the mailbox queued-exactly-once machine
// ---------------------------------------------------------------------------

/// Two concurrent pushers against one parked worker: every envelope is
/// processed exactly once, the task is never double-enqueued (the
/// `begin()` debug assert fires on a second run-queue entry), and the
/// worker never misses a wakeup (a lost one deadlocks the exploration,
/// which the checker reports).
#[test]
fn model_mailbox_queued_exactly_once() {
    let r = explore(Opts::default(), || {
        let s = Arc::new(sched(1, 1));
        drain_initial(&s);
        let s1 = Arc::clone(&s);
        let p1 = thread::spawn(move || s1.push(NodeId(0), timer(1), None, Time::ZERO));
        let s2 = Arc::clone(&s);
        let p2 = thread::spawn(move || s2.push(NodeId(0), timer(2), None, Time::ZERO));
        // The worker loop: drain, else park on the run queue like the real
        // engine — a lost wakeup shows up as a deadlock violation.
        let mut seen: Vec<u64> = Vec::new();
        while seen.len() < 2 {
            let Some(t) = s.next(0, Time::ZERO, None) else {
                continue; // parked and woken: ask again
            };
            t.begin();
            while let Some(env) = t.pop_envelope() {
                match env {
                    Envelope::Input(Input::Timer { kind, .. }) => seen.push(kind),
                    _ => unreachable!("only timers pushed"),
                }
            }
        }
        p1.join();
        p2.join();
        seen.sort_unstable();
        assert_eq!(seen, [1, 2], "each envelope delivered exactly once");
        assert_eq!(queued(&s), 0, "no residual run-queue entry");
    });
    report("mailbox_queued_exactly_once", r);
}

/// Seeded-bug twin of [`Scheduler::push`]: the Idle→Queued decision is
/// made *after* the mailbox lock is dropped (the real code flips the state
/// under the same lock that appends the envelope — `scheduler.rs`,
/// `push()`). Two pushers can then both observe Idle and enqueue twice.
#[test]
fn model_mailbox_double_enqueue_twin_is_caught() {
    struct TwinSched {
        /// (mailbox queue, queued-or-running flag).
        mailbox: Mutex<(VecDeque<u64>, bool)>,
        /// Run-queue entries for the one task.
        runq: Mutex<Vec<u8>>,
    }
    impl TwinSched {
        fn buggy_push(&self, v: u64) {
            let was_idle = {
                let mut mb = relock(&self.mailbox);
                mb.0.push_back(v);
                !mb.1
            };
            // BUG: the decision leaves the critical section before the
            // state flips — a second pusher interleaving here also sees
            // Idle and enqueues the task again.
            if was_idle {
                relock(&self.mailbox).1 = true;
                relock(&self.runq).push(1);
            }
        }
    }
    let msg = explore_expect_violation(Opts::default(), || {
        let s = Arc::new(TwinSched {
            mailbox: Mutex::new((VecDeque::new(), false)),
            runq: Mutex::new(Vec::new()),
        });
        let s1 = Arc::clone(&s);
        let p1 = thread::spawn(move || s1.buggy_push(1));
        let s2 = Arc::clone(&s);
        let p2 = thread::spawn(move || s2.buggy_push(2));
        p1.join();
        p2.join();
        assert!(relock(&s.runq).len() <= 1, "task enqueued more than once");
    });
    assert!(
        msg.contains("BOREALIS_MODEL_REPLAY"),
        "violation trace is replayable: {msg}"
    );
    println!("seeded double-enqueue trace:\n{msg}");
}

// ---------------------------------------------------------------------------
// Protocol 2: no lost wakeup on the one run queue
// ---------------------------------------------------------------------------

/// Two workers run the worker loop — pop, else park — while shutdown
/// pushes each of two idle tasks its Stop from outside the pool, waits
/// for both to stop and lets the workers exit. Each push races a parker's
/// empty check; because [`Scheduler::next`] checks the queue and waits
/// under one lock hold, no push is slept through (a lost wakeup leaves a
/// Stop unrun and deadlocks the exploration, which the checker reports).
#[test]
fn model_run_queue_no_lost_wakeup() {
    let r = explore(Opts::default(), || {
        let s = Arc::new(sched(2, 2));
        drain_initial(&s);
        let worker = |w: usize| {
            let s = Arc::clone(&s);
            thread::spawn(move || loop {
                match s.next(w, Time::ZERO, None) {
                    Some(t) => {
                        t.begin();
                        while let Some(env) = t.pop_envelope() {
                            assert!(matches!(env, Envelope::Stop), "only Stops pushed");
                            if t.mark_stopped() {
                                s.note_stopped();
                            }
                        }
                    }
                    None if s.exiting() => break,
                    None => {}
                }
            })
        };
        let (w0, w1) = (worker(0), worker(1));
        s.stop_all(Time::ZERO);
        s.wait_all_stopped();
        s.begin_exit();
        w0.join();
        w1.join();
        assert_eq!(queued(&s), 0, "no residual run-queue entry");
    });
    report("run_queue_no_lost_wakeup", r);
}

/// Seeded-bug twin of [`Scheduler::next`]: the worker checks the queue
/// under one guard and waits under a re-taken one (the real code parks
/// in the critical section that found the queue empty). A push landing
/// between the two finds no waiter to notify, and the parker sleeps
/// through it: a deadlock the checker finds.
#[test]
fn model_run_queue_recheck_twin_loses_wakeup() {
    struct TwinQueue {
        queue: Mutex<VecDeque<u64>>,
        cv: Condvar,
    }
    impl TwinQueue {
        fn buggy_next(&self) -> Option<u64> {
            if let Some(task) = relock(&self.queue).pop_front() {
                return Some(task);
            }
            // BUG: the wait re-takes the lock the empty check let go of —
            // a notify that happened in the gap is gone (condvars have no
            // memory).
            let _g = cv_wait(&self.cv, relock(&self.queue));
            None
        }
        fn push(&self, task: u64) {
            relock(&self.queue).push_back(task);
            self.cv.notify_one();
        }
    }
    let msg = explore_expect_violation(Opts::default(), || {
        let q = Arc::new(TwinQueue {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        });
        let q2 = Arc::clone(&q);
        let worker = thread::spawn(move || while q2.buggy_next().is_none() {});
        q.push(1);
        worker.join();
    });
    assert!(
        msg.contains("BOREALIS_MODEL_REPLAY"),
        "violation trace is replayable: {msg}"
    );
    println!("seeded lost-wakeup trace:\n{msg}");
}

// ---------------------------------------------------------------------------
// Protocol 3: credit-window accounting on the shared fabric
// ---------------------------------------------------------------------------

/// A sender and a consumer race on one Window(1) link of the shared
/// fabric: the in-flight count never exceeds the window, no credit is
/// double-replenished, and the queue-depth gauges equal the actual ledger
/// totals (`FlowControl::check_invariants` runs inside every mutating
/// `Fabric` verb in debug builds — which every model interleaving is).
#[test]
fn model_flow_window_accounting() {
    let r = explore(Opts::default(), || {
        let t = shared_fabric();
        let (a, b) = (NodeId(0), NodeId(1));
        let t1 = Arc::clone(&t);
        let sender = thread::spawn(move || {
            send_data(&t1, a, b);
            send_data(&t1, a, b);
        });
        let t2 = Arc::clone(&t);
        let consumer = thread::spawn(move || {
            relock(&t2).consumed(a, b, Time::ZERO);
        });
        sender.join();
        consumer.join();
        let g = relock(&t).stats().flow;
        assert!(g.inflight_peak <= 1, "credit window exceeded: {g:?}");
        assert_eq!(
            g.delivered + g.queued,
            2,
            "each admit exactly once delivered or queued: {g:?}"
        );
        assert_eq!(
            g.queued_now,
            g.queued - g.released,
            "no double-replenish: {g:?}"
        );
    });
    report("flow_window_accounting", r);
}

/// Seeded-bug twin of the ledger's window check: `FlowControl::admit`'s
/// `link.inflight < w` test is safe only because the pool calls
/// `Fabric::send` with the [`SharedFabric`] lock held across check *and*
/// increment — split into two atomic ops (as lock-free "optimization"
/// would), two senders both pass the check and the window is exceeded.
#[test]
fn model_flow_check_then_act_twin_exceeds_window() {
    struct BuggyLedger {
        inflight: AtomicU64,
    }
    impl BuggyLedger {
        fn buggy_admit(&self) {
            // BUG: check-then-act across two atomics instead of one
            // critical section (the shared fabric's lock covers both).
            if self.inflight.load(Ordering::SeqCst) < 1 {
                self.inflight.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    let msg = explore_expect_violation(Opts::default(), || {
        let l = Arc::new(BuggyLedger {
            inflight: AtomicU64::new(0),
        });
        let l1 = Arc::clone(&l);
        let s1 = thread::spawn(move || l1.buggy_admit());
        let l2 = Arc::clone(&l);
        let s2 = thread::spawn(move || l2.buggy_admit());
        s1.join();
        s2.join();
        assert!(
            l.inflight.load(Ordering::SeqCst) <= 1,
            "credit window exceeded"
        );
    });
    assert!(
        msg.contains("BOREALIS_MODEL_REPLAY"),
        "violation trace is replayable: {msg}"
    );
    println!("seeded window-overrun trace:\n{msg}");
}

// ---------------------------------------------------------------------------
// Protocol 4: crash purge vs in-flight sends
// ---------------------------------------------------------------------------

/// A sender races a node crash on its link of the shared fabric: however
/// the crash interleaves with the sends, every send ends up in exactly one
/// bucket — admitted, queued then purged (counted as a delivery drop), or
/// refused at send time because the crash already landed (counted as a
/// send drop). Nothing is dropped twice and nothing vanishes.
#[test]
fn model_crash_purge_counts_each_send_once() {
    let r = explore(Opts::default(), || {
        let t = shared_fabric();
        let (a, b) = (NodeId(0), NodeId(1));
        let t1 = Arc::clone(&t);
        let sender = thread::spawn(move || {
            for _ in 0..3 {
                send_data(&t1, a, b);
            }
        });
        let t2 = Arc::clone(&t);
        let crasher = thread::spawn(move || {
            // The fault arm of `Worker::fire_due` (engine.rs): link state,
            // purge and drop count change in one critical section.
            relock(&t2).apply(&FaultEvent::NodeDown(b), Time::ZERO, []);
        });
        sender.join();
        crasher.join();
        let stats = relock(&t).stats();
        let g = stats.flow;
        assert_eq!(
            g.delivered + g.queued + stats.send_unreachable_drops,
            3,
            "every send admitted, queued or refused exactly once: {stats:?}"
        );
        assert_eq!(
            g.queued, g.purged,
            "nothing consumes, so every queued send is purged by the crash: {g:?}"
        );
        assert_eq!(g.queued_now, 0, "the crash leaves no pending send: {g:?}");
        assert_eq!(
            stats.delivery_drops, g.purged,
            "every purged send counted exactly once as a delivery drop"
        );
    });
    report("crash_purge_counts_each_send_once", r);
}

/// Seeded-bug twin of `Fabric::apply`'s NodeDown arm as the pool runs it:
/// the purge count read in one critical section, the purge done in
/// another (the real code purges and counts inside one [`SharedFabric`]
/// lock hold). A send landing in the gap is purged but never counted.
#[test]
fn model_crash_purge_outside_lock_twin_drops_counts() {
    struct TwinLedger {
        q: Mutex<VecDeque<u64>>,
        drops: AtomicU64,
    }
    impl TwinLedger {
        fn buggy_purge(&self) {
            // BUG: count and clear in two separate lock acquisitions.
            let n = relock(&self.q).len() as u64;
            relock(&self.q).clear();
            self.drops.fetch_add(n, Ordering::SeqCst);
        }
    }
    let msg = explore_expect_violation(Opts::default(), || {
        let l = Arc::new(TwinLedger {
            q: Mutex::new(VecDeque::new()),
            drops: AtomicU64::new(0),
        });
        let l1 = Arc::clone(&l);
        let sender = thread::spawn(move || l1.q.lock().push_back(7));
        let l2 = Arc::clone(&l);
        let crasher = thread::spawn(move || l2.buggy_purge());
        sender.join();
        crasher.join();
        let still_queued = relock(&l.q).len() as u64;
        assert_eq!(
            l.drops.load(Ordering::SeqCst) + still_queued,
            1,
            "the send must be counted dropped or still queued, exactly once"
        );
    });
    assert!(
        msg.contains("BOREALIS_MODEL_REPLAY"),
        "violation trace is replayable: {msg}"
    );
    println!("seeded purge-undercount trace:\n{msg}");
}

// ---------------------------------------------------------------------------
// Protocol 5: credit release vs link order
// ---------------------------------------------------------------------------

/// One Window(2) link `0 → 1` with messages 1 and 2 in flight and 3 and 4
/// queued, an idle sink, and two threads returning one credit each through
/// `release` — the receiver's activation and a `Replenish` entry another
/// worker pops off the pool wheel. Returns the numbers of the messages in the sink's
/// mailbox, in order.
fn credit_release_race(release: fn(&Scheduler, &SharedFabric)) -> Vec<u32> {
    let s = Arc::new(sched(2, 1));
    drain_initial(&s);
    let t = Arc::new(Mutex::new(Fabric::new(Vec::new(), CreditPolicy::Window(2))));
    for n in 1..=4 {
        let (mut router, msg) = (ShardRouter::new(), data_msg(n));
        relock(&t).send(&mut router, NodeId(0), NodeId(1), msg, Time::ZERO);
    }
    let spawn = || {
        let (s, t) = (Arc::clone(&s), Arc::clone(&t));
        thread::spawn(move || release(&s, &t))
    };
    let (r1, r2) = (spawn(), spawn());
    r1.join();
    r2.join();
    let task = pop(&s, 0);
    task.begin();
    std::iter::from_fn(|| task.pop_envelope())
        .map(|env| match env {
            Envelope::Input(Input::Message {
                msg: NetMsg::Data { stream, .. },
                ..
            }) => stream.0,
            _ => unreachable!("only data released"),
        })
        .collect()
}

/// Two threads return credits of one link concurrently: the ledger releases
/// the queued messages in send order, and because
/// [`Scheduler::release_credit`] pushes each one before it lets go of the
/// fabric lock, the sink's mailbox holds them in that order in every
/// interleaving.
#[test]
fn model_credit_release_keeps_link_order() {
    let r = explore(Opts::default(), || {
        let got =
            credit_release_race(|s, t| s.release_credit(t, NodeId(0), NodeId(1), Time::ZERO, None));
        assert_eq!(got, [3, 4], "released out of ledger order");
    });
    report("credit_release_keeps_link_order", r);
}

/// Seeded-bug twin of [`Scheduler::release_credit`], as `Worker::
/// return_credit` used to be written: the fabric guard is a temporary,
/// dropped before the released message is pushed. A second returner
/// interleaving in the gap releases *and pushes* the next message first.
#[test]
fn model_credit_release_outside_lock_twin_reorders() {
    let msg = explore_expect_violation(Opts::default(), || {
        let got = credit_release_race(|s, t| {
            let (from, to) = (NodeId(0), NodeId(1));
            // BUG: the lock is gone by the end of this statement.
            let released = relock(t).consumed(from, to, Time::ZERO);
            if let Some(msg) = released {
                let message = Envelope::Input(Input::Message { from, msg });
                s.push(to, message, None, Time::ZERO);
            }
        });
        assert_eq!(got, [3, 4], "released out of ledger order");
    });
    assert!(
        msg.contains("BOREALIS_MODEL_REPLAY"),
        "violation trace is replayable: {msg}"
    );
    println!("seeded credit-reorder trace:\n{msg}");
}

// ---------------------------------------------------------------------------
// Panic containment (engine.rs `run_task` Err arm, modeled)
// ---------------------------------------------------------------------------

/// The worker's panic path — `mark_stopped` while the task is Running —
/// races a concurrent pusher: the dead mailbox drops pushes instead of
/// deadlocking or re-queueing, and the scheduler keeps serving the
/// healthy task in every interleaving.
#[test]
fn model_panic_containment_stops_mailbox_not_worker() {
    let r = explore(Opts::default(), || {
        let s = Arc::new(sched(2, 1));
        drain_initial(&s);
        s.push(NodeId(0), timer(1), None, Time::ZERO);
        let t = pop(&s, 0);
        t.begin();
        let s2 = Arc::clone(&s);
        let racer = thread::spawn(move || s2.push(NodeId(0), timer(9), None, Time::ZERO));
        let _ = t.pop_envelope();
        // The panic path runs while the task is still Running, exactly as
        // engine.rs does after catch_unwind — the racer's push lands in a
        // Running mailbox (append only) or after the stop (dropped);
        // neither re-queues the task.
        assert!(t.mark_stopped());
        racer.join();
        assert_eq!(queued(&s), 0, "dead task never re-queued");
        s.push(NodeId(0), timer(3), None, Time::ZERO);
        assert_eq!(queued(&s), 0, "pushes to the stopped task dropped");
        // The pool keeps scheduling the healthy sibling.
        s.push(NodeId(1), timer(2), None, Time::ZERO);
        let healthy = pop(&s, 0);
        assert_eq!(healthy.id, NodeId(1));
        healthy.begin();
        assert!(matches!(
            healthy.pop_envelope(),
            Some(Envelope::Input(Input::Timer { kind: 2, .. }))
        ));
        assert!(healthy.pop_envelope().is_none());
    });
    report("panic_containment_stops_mailbox_not_worker", r);
}

// ---------------------------------------------------------------------------
// Protocol 6: the outbox's flush role
// ---------------------------------------------------------------------------

/// An in-memory sink that takes at most three bytes a `write` — a chunk of
/// two-byte frames crosses several calls — and times out on call
/// `refuse`, the way a socket whose peer stopped reading does.
struct Recorder {
    written: Mutex<Vec<u8>>,
    calls: AtomicU64,
    refuse: u64,
}

impl Recorder {
    fn new(refuse: Option<u64>) -> Recorder {
        let (written, calls) = (Mutex::new(Vec::new()), AtomicU64::new(0));
        let refuse = refuse.unwrap_or(u64::MAX);
        Recorder {
            written,
            calls,
            refuse,
        }
    }

    /// The frames written, as `(sender, sequence number)` pairs.
    fn frames(&self) -> Vec<(u8, u8)> {
        let written = relock(&self.written);
        written.chunks(2).map(|f| (f[0], f[1])).collect()
    }
}

impl Sink for Recorder {
    fn write(&self, bytes: &[u8]) -> std::io::Result<usize> {
        if self.calls.fetch_add(1, Ordering::SeqCst) == self.refuse {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        let n = bytes.len().min(3);
        relock(&self.written).extend_from_slice(&bytes[..n]);
        Ok(n)
    }

    fn close(&self) {}
}

/// Two senders each append two frames `[sender, n]` and flush after each,
/// as a worker does after an activation; the sink refuses its call
/// `refuse`, if any. Returns the outbox once both have returned.
fn outbox_race(refuse: Option<u64>) -> Arc<Outbox<Recorder>> {
    let out = Arc::new(Outbox::new(Recorder::new(refuse)));
    let sender = |id: u8| {
        let out = Arc::clone(&out);
        thread::spawn(move || {
            for n in 0..2 {
                assert!(out.append(1, |buf| buf.extend([id, n])));
                out.flush();
            }
        })
    };
    let (a, b) = (sender(1), sender(2));
    a.join();
    b.join();
    out
}

/// Each sender's frames appear exactly once and in its order.
fn assert_each_once_in_order(frames: &[(u8, u8)]) {
    assert_eq!(frames.len(), 4, "a frame lost or doubled: {frames:?}");
    for id in [1, 2] {
        let mine: Vec<u8> = frames.iter().filter(|f| f.0 == id).map(|f| f.1).collect();
        assert_eq!(mine, [0, 1], "sender {id}'s frames: {frames:?}");
    }
}

/// Two senders race for the flush role: whoever loses it leaves its frames
/// to the holder, which re-checks the buffer under the lock hold that
/// gives the role up — so once both return, every frame is written
/// exactly once, each sender's in order, and nothing is left queued.
#[test]
fn model_outbox_writes_each_frame_once_in_order() {
    let r = explore(Opts::default(), || {
        let out = outbox_race(None);
        assert_eq!(out.pending(), 0, "a frame stranded in the buffer");
        assert_each_once_in_order(&out.sink().frames());
    });
    report("outbox_writes_each_frame_once_in_order", r);
}

/// The same race against a sink that times out once, mid-chunk in some
/// interleavings: the unwritten tail stays at the head of the buffer,
/// ahead of frames appended meanwhile, and the next flush — a reader's,
/// once the peer reads again — writes it and everything behind it.
#[test]
fn model_outbox_resumes_a_stalled_tail_in_order() {
    let r = explore(Opts::default(), || {
        let out = outbox_race(Some(1));
        out.flush();
        assert_eq!(out.pending(), 0, "the resumed flush left bytes");
        assert_each_once_in_order(&out.sink().frames());
    });
    report("outbox_resumes_a_stalled_tail_in_order", r);
}

/// Seeded-bug twin of [`Outbox::flush`]: the holder finds the buffer empty
/// in one critical section and gives the role up in the next (the real
/// code does both under one lock hold). A sender appending in the gap sees
/// the role taken and leaves its frame to a holder that is already gone:
/// the frame is stranded.
#[test]
fn model_outbox_release_after_recheck_twin_strands_a_frame() {
    struct TwinOutbox {
        /// (queued bytes, flush role held).
        q: Mutex<(Vec<u8>, bool)>,
        sink: Recorder,
    }
    impl TwinOutbox {
        fn buggy_flush(&self) {
            {
                let mut q = relock(&self.q);
                if q.1 {
                    return;
                }
                q.1 = true;
            }
            loop {
                let chunk = std::mem::take(&mut relock(&self.q).0);
                if chunk.is_empty() {
                    // BUG: the role is given up in a second critical
                    // section, after the one that found nothing queued.
                    relock(&self.q).1 = false;
                    return;
                }
                let mut off = 0;
                while off < chunk.len() {
                    off += self.sink.write(&chunk[off..]).expect("never refuses");
                }
            }
        }
    }
    let msg = explore_expect_violation(Opts::default(), || {
        let out = Arc::new(TwinOutbox {
            q: Mutex::new((Vec::new(), false)),
            sink: Recorder::new(None),
        });
        let sender = |id: u8| {
            let out = Arc::clone(&out);
            thread::spawn(move || {
                relock(&out.q).0.extend([id, 0]);
                out.buggy_flush();
            })
        };
        let (a, b) = (sender(1), sender(2));
        a.join();
        b.join();
        assert!(
            relock(&out.q).0.is_empty(),
            "a frame stranded in the buffer"
        );
    });
    assert!(
        msg.contains("BOREALIS_MODEL_REPLAY"),
        "violation trace is replayable: {msg}"
    );
    println!("seeded stranded-frame trace:\n{msg}");
}

// ---------------------------------------------------------------------------
// Protocol 7: the pool's timekeeper and its quiet pushes
// ---------------------------------------------------------------------------

/// What the timekeeper race needs of a run queue.
trait Parking: Send + Sync + 'static {
    /// Parks a worker whose earliest deadline is `due`, if nothing is
    /// queued.
    fn park_until(&self, due: Time);
    /// Queues idle task `id` from outside the pool.
    fn wake(&self, id: u32);
    /// Parked workers and the earliest deadline one of them waits for.
    fn waits(&self) -> (usize, Option<Time>);
}

impl Parking for Scheduler {
    fn park_until(&self, due: Time) {
        self.next(0, Time::ZERO, Some((due, std::time::Duration::ZERO)));
    }
    fn wake(&self, id: u32) {
        self.push(NodeId(id), timer(1), None, Time::ZERO);
    }
    fn waits(&self) -> (usize, Option<Time>) {
        let parked = &relock(&self.run).parked;
        (parked.len(), parked.iter().flatten().min().copied())
    }
}

/// One worker parks on the wheel's later deadline (10 ms), another arms an
/// earlier one (5 ms) and parks, in either order. Whenever both are parked,
/// a timed wait covers the earlier deadline — it never sleeps behind the
/// later one's timekeeper. The two pushes queued last release whoever
/// waits untimed.
fn timekeeper_race(q: Arc<impl Parking>) {
    let (later, earlier) = (Time::from_millis(10), Time::from_millis(5));
    let parker = |due| {
        let q = Arc::clone(&q);
        thread::spawn(move || q.park_until(due))
    };
    let (a, b) = (parker(later), parker(earlier));
    let (parked, earliest) = q.waits();
    assert!(
        parked < 2 || earliest.is_some_and(|at| at <= earlier),
        "both parked, and the earliest timed wait is {earliest:?}"
    );
    q.wake(0);
    q.wake(1);
    a.join();
    b.join();
}

#[test]
fn model_timekeeper_never_sleeps_past_the_earliest_deadline() {
    let r = explore(Opts::default(), || {
        let s = sched(2, 2);
        drain_initial(&s);
        timekeeper_race(Arc::new(s))
    });
    report("timekeeper_never_sleeps_past_the_earliest_deadline", r);
}

/// Seeded-bug twin of [`Scheduler::next`]'s timekeeper rule: a parker
/// defers to any timed parker, whatever the deadlines (the real code
/// defers only to one that waits for an earlier or equal deadline). A
/// worker that armed an earlier deadline then sleeps untimed behind the
/// later one's wait.
#[test]
fn model_timekeeper_deferring_to_any_twin_oversleeps() {
    /// (queued tasks, each parked worker's timed deadline).
    struct DeferringQueue {
        run: Mutex<(usize, Vec<Option<Time>>)>,
        cv: Condvar,
    }
    impl Parking for DeferringQueue {
        fn park_until(&self, due: Time) {
            let mut run = relock(&self.run);
            if run.0 > 0 {
                run.0 -= 1;
                return;
            }
            // BUG: any timed parker is taken to cover this deadline too.
            let wait = Some(due).filter(|_| run.1.iter().all(Option::is_none));
            run.1.push(wait);
            run = match wait {
                Some(_) => cv_wait_timeout(&self.cv, run, std::time::Duration::ZERO).0,
                None => cv_wait(&self.cv, run),
            };
            let me = run.1.iter().position(|w| *w == wait).expect("listed");
            run.1.swap_remove(me);
        }
        fn wake(&self, _id: u32) {
            let mut run = relock(&self.run);
            run.0 += 1;
            let parked = !run.1.is_empty();
            drop(run);
            if parked {
                self.cv.notify_one();
            }
        }
        fn waits(&self) -> (usize, Option<Time>) {
            let run = relock(&self.run);
            (run.1.len(), run.1.iter().flatten().min().copied())
        }
    }
    let msg = explore_expect_violation(Opts::default(), || {
        timekeeper_race(Arc::new(DeferringQueue {
            run: Mutex::new((0, Vec::new())),
            cv: Condvar::new(),
        }))
    });
    assert!(
        msg.contains("BOREALIS_MODEL_REPLAY"),
        "violation trace is replayable: {msg}"
    );
    println!("seeded oversleeping-timekeeper trace:\n{msg}");
}

/// Worker 0 pushes to an idle task from inside its activation while its
/// sibling runs the worker loop — pop, else park untimed — until the pool
/// exits. The push notifies nobody, so no parked sibling is woken — only
/// the exit releases a parked one — and worker 0's next step pops the
/// task or, if the sibling was awake to take it, parks on an empty queue:
/// the task runs exactly once, and nothing is left queued.
#[test]
fn model_own_push_runs_before_its_worker_parks() {
    let r = explore(Opts::default(), || {
        let s = Arc::new(sched(1, 2));
        drain_initial(&s);
        let ran = Arc::new(AtomicU64::new(0));
        let run = |t: Arc<Task>, ran: &AtomicU64| {
            t.begin();
            while t.pop_envelope().is_some() {
                ran.fetch_add(1, Ordering::SeqCst);
            }
        };
        let (s1, ran1) = (Arc::clone(&s), Arc::clone(&ran));
        let sibling = thread::spawn(move || loop {
            match s1.next(1, Time::ZERO, None) {
                Some(t) => run(t, &ran1),
                None => {
                    assert!(s1.exiting(), "a parked sibling woken by an own push");
                    break;
                }
            }
        });
        s.push(NodeId(0), timer(1), Some(0), Time::ZERO);
        // Worker 0's loop: it pops the task, or parks (timed, as the
        // timekeeper) if the sibling took it — never with it still queued.
        let due = Some((Time::ZERO, std::time::Duration::ZERO));
        if let Some(t) = s.next(0, Time::ZERO, due) {
            run(t, &ran);
        }
        assert_eq!(queued(&s), 0, "the push is stranded");
        s.begin_exit();
        sibling.join();
        assert_eq!(ran.load(Ordering::SeqCst), 1, "run exactly once");
    });
    report("own_push_runs_before_its_worker_parks", r);
}
