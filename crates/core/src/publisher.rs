//! The producer half of DPC's Data Path, written once (§4.3, Fig. 8; §8.1).
//!
//! Whoever produces a stream — a [`ProcessingNode`](crate::ProcessingNode)
//! for its fragment's outputs, a [`DataSource`](crate::DataSource) for its
//! one stream (§2.2: sources take part through proxies running the same DPC
//! functionality as a node) — owns one [`Publisher`]: per stream, the
//! emission log ([`OutputBuffer`]), one replay cursor per subscriber and
//! the consumers' cumulative acks. `Subscribe` / `Unsubscribe` / `Ack`, the
//! link-heal rewind and a torn peer connection are handled here and nowhere
//! else.
//!
//! The CPU cost model's *pacing* lives here too, as protocol state rather
//! than a runtime service: [`Publisher::flush`] spreads what each
//! subscriber is owed over the busy window, sends what is due with the
//! runtime's one send verb and queues the rest by (departure, insertion)
//! behind one node timer; [`Publisher::release_due`] — run on that timer
//! and at the top of every handler of the owner — sends what has come due.
//! Every send thus happens inside the actor's own serial activation, in
//! program order: whatever a runtime does with timers (late, out of order,
//! on another thread), it cannot reorder a link. With zero modelled cost
//! nothing is ever queued.

use crate::buffers::{BufferPolicy, OutputBuffer};
use crate::msg::{NetMsg, Resume};
use crate::runtime::RuntimeCtx;
use borealis_sim::FaultEvent;
use borealis_types::{Duration, NodeId, StreamId, Time, Tuple, TupleBatch, TupleId};
use std::collections::{BTreeMap, VecDeque};

/// Timer kind armed for the head of the departure queue. Owners number
/// their kinds from 1 and need no arm for this one: their handlers all
/// start with [`Publisher::release_due`], which is all the wake-up is for.
const TIMER_DEPART: u64 = 0;

/// One published stream: its log and who is reading it.
struct Topic {
    log: OutputBuffer,
    /// Consumers that must have acked before the log may be truncated
    /// (`usize::MAX`: never — a source's log is persistent, §2.2).
    expected_acks: usize,
    /// Next log position to send, per subscriber. Ordered, so fan-out order
    /// is a function of the deployment, not of a hasher's seed.
    cursors: BTreeMap<NodeId, usize>,
    /// Last stable tuple each consumer acknowledged: the truncation horizon
    /// (§8.1) and the rewind point after a link failure.
    acks: BTreeMap<NodeId, TupleId>,
}

/// One data message waiting for its departure instant.
struct Departure {
    at: Time,
    to: NodeId,
    stream: StreamId,
    tuples: TupleBatch,
}

/// Emission logs, subscriber cursors, acks and paced departures of one
/// producing actor (see the module docs).
pub struct Publisher {
    topics: BTreeMap<StreamId, Topic>,
    /// Tuples per `Data` message.
    chunk: usize,
    /// Pending departures, earliest first; every entry is later than the
    /// instant of the last [`Publisher::release_due`].
    queue: VecDeque<Departure>,
    /// The instant the release timer is armed for, if one is outstanding.
    armed: Option<Time>,
}

impl Publisher {
    /// A publisher of `streams`, each with the number of consumers whose
    /// acks gate its truncation (`usize::MAX`: never truncate), retaining
    /// under `policy` and sending at most `chunk` tuples per message.
    pub fn new(
        streams: impl IntoIterator<Item = (StreamId, usize)>,
        policy: BufferPolicy,
        chunk: usize,
    ) -> Publisher {
        let topics = streams
            .into_iter()
            .map(|(stream, expected_acks)| {
                let topic = Topic {
                    log: OutputBuffer::new(policy),
                    expected_acks,
                    cursors: BTreeMap::new(),
                    acks: BTreeMap::new(),
                };
                (stream, topic)
            })
            .collect();
        Publisher {
            topics,
            chunk: chunk.max(1),
            queue: VecDeque::new(),
            armed: None,
        }
    }

    /// Appends an emitted batch to `stream`'s log by shared view (ignored
    /// for a stream this publisher does not produce).
    pub fn publish(&mut self, stream: StreamId, batch: TupleBatch) {
        if let Some(topic) = self.topics.get_mut(&stream) {
            topic.log.append_batch(batch);
        }
    }

    /// Sends every queued message whose departure instant has come, oldest
    /// first, and keeps one timer armed for the next. The owning actor
    /// calls this at the top of every handler, so data that is due leaves
    /// before anything the handler itself sends.
    pub fn release_due(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
        let now = ctx.now();
        while self.queue.front().is_some_and(|d| d.at <= now) {
            let d = self.queue.pop_front().expect("peeked departure exists");
            let (stream, tuples) = (d.stream, d.tuples.into());
            ctx.send(d.to, NetMsg::Data { stream, tuples });
        }
        if self.armed.is_some_and(|at| at <= now) {
            self.armed = None; // fired, or about to: harmless if it still does
        }
        if let (None, Some(head)) = (self.armed, self.queue.front()) {
            ctx.set_timer(head.at, TIMER_DEPART);
            self.armed = Some(head.at);
        }
    }

    /// Hands every subscriber its pending log suffix, spreading departures
    /// across `[w_start, w_end]` (outputs stream out as the CPU produces
    /// them, rather than in one burst at the end).
    ///
    /// Owners flush their busy windows in order — each starts no earlier
    /// than the previous one ended, because the modelled CPU serves one
    /// window at a time — so the queue stays sorted by appending and a
    /// subscriber's messages depart in emission order by construction.
    ///
    /// The suffix is taken as shared batch views and re-chunked by range
    /// split, so N subscribers behind the same position cost N
    /// reference-count bumps per batch — fan-out is independent of
    /// replication degree.
    pub fn flush(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, w_start: Time, w_end: Time) {
        let now = ctx.now();
        let window = w_end.max(w_start).since(w_start).as_micros();
        let first_new = self.queue.len();
        for (&stream, topic) in &mut self.topics {
            let end = topic.log.end();
            for (&to, pos) in &mut topic.cursors {
                if *pos >= end {
                    continue;
                }
                let pieces: Vec<TupleBatch> = topic
                    .log
                    .batches_from(*pos)
                    .iter()
                    .flat_map(|b| b.chunks_shared(self.chunk))
                    .collect();
                *pos = end;
                let n = pieces.len() as u64;
                for (j, tuples) in pieces.into_iter().enumerate() {
                    let at = w_start + Duration::from_micros(window * (j as u64 + 1) / n);
                    if at <= now && self.queue.is_empty() {
                        let tuples = tuples.into();
                        ctx.send(to, NetMsg::Data { stream, tuples });
                    } else {
                        self.queue.push_back(Departure {
                            at,
                            to,
                            stream,
                            tuples,
                        });
                    }
                }
            }
        }
        // The loop appended subscriber by subscriber; departure order is by
        // instant, ties in insertion order (a stable sort of the new tail).
        self.queue.make_contiguous()[first_new..].sort_by_key(|d| d.at);
        self.release_due(ctx);
    }

    /// Handles the producer-half messages — `Subscribe`, `Unsubscribe`,
    /// `Ack` — from `from`; anything else is not the publisher's and is
    /// ignored. A subscription's replay departs at `ready` (when the
    /// owner's modelled CPU is free).
    pub fn on_message(
        &mut self,
        ctx: &mut dyn RuntimeCtx<NetMsg>,
        from: NodeId,
        msg: NetMsg,
        ready: Time,
    ) {
        match msg {
            NetMsg::Subscribe {
                stream,
                last_stable,
                resume,
            } => {
                let Some(topic) = self.topics.get_mut(&stream) else {
                    return;
                };
                let pos = match resume {
                    Resume::FreshOnly => topic.log.end(),
                    Resume::Replay | Resume::Undo => topic.log.position_after_stable(last_stable),
                };
                topic.cursors.insert(from, pos);
                self.drop_queued(from, Some(stream));
                if resume == Resume::Undo {
                    // The subscriber holds tentative tuples from another
                    // replica (or junk from a dead one): roll them back
                    // before the replay corrects them.
                    let undo = TupleBatch::single(Tuple::undo(TupleId::NONE, last_stable));
                    let tuples = undo.into();
                    ctx.send(from, NetMsg::Data { stream, tuples });
                }
                self.flush(ctx, ready, ready);
            }
            NetMsg::Unsubscribe { stream } => {
                if let Some(topic) = self.topics.get_mut(&stream) {
                    topic.cursors.remove(&from);
                    self.drop_queued(from, Some(stream));
                }
            }
            NetMsg::Ack { stream, through } => {
                let Some(topic) = self.topics.get_mut(&stream) else {
                    return;
                };
                let acked = topic.acks.entry(from).or_insert(TupleId::NONE);
                *acked = (*acked).max(through);
                if topic.acks.len() >= topic.expected_acks {
                    let min = topic.acks.values().copied().min().unwrap_or(TupleId::NONE);
                    topic.log.truncate_through(min);
                }
            }
            _ => {}
        }
    }

    /// Reacts to the faults that concern a producer; a replay after a link
    /// heal departs at `ready`.
    pub fn on_fault(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, fault: &FaultEvent, ready: Time) {
        match *fault {
            FaultEvent::LinkUp { a, b } => {
                // Tuples in flight when the link broke were lost: rewind the
                // subscriber at the other end to its acknowledged position
                // and resend (consumers deduplicate the overlap). What was
                // still queued for it is part of that replay.
                let peer = if a == ctx.id() { b } else { a };
                for topic in self.topics.values_mut() {
                    let Some(pos) = topic.cursors.get_mut(&peer) else {
                        continue;
                    };
                    let acked = topic.acks.get(&peer).copied().unwrap_or(TupleId::NONE);
                    *pos = (*pos).min(topic.log.position_after_stable(acked));
                }
                self.drop_queued(peer, None);
                self.flush(ctx, ready, ready);
            }
            FaultEvent::NodeDown(n) if n != ctx.id() => {
                // The transport saw the connection to `n`'s process torn (a
                // scripted crash only notifies the victim). Its subscription
                // state died with it; it re-subscribes from scratch, with
                // its recovered position, when it comes back.
                for topic in self.topics.values_mut() {
                    topic.cursors.remove(&n);
                    topic.acks.remove(&n);
                }
                self.drop_queued(n, None);
            }
            _ => {}
        }
    }

    /// Forgets what is queued for `to` (on `stream`, or on every stream):
    /// its cursor was reset or removed, so the messages are unwanted or
    /// about to be replayed — sent too, they would be stale data ahead of
    /// the replay.
    fn drop_queued(&mut self, to: NodeId, stream: Option<StreamId>) {
        self.queue
            .retain(|d| d.to != to || stream.is_some_and(|s| d.stream != s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::fake::FakeCtx;
    use borealis_types::TupleKind;

    const ME: NodeId = NodeId(0); // `FakeCtx::default()`'s id
    const A: NodeId = NodeId(1);
    const B: NodeId = NodeId(2);
    const S: StreamId = StreamId(7);

    fn ms(n: u64) -> Time {
        Time::from_millis(n)
    }

    fn stable(id: u64) -> Tuple {
        Tuple::insertion(TupleId(id), ms(id), vec![])
    }

    fn stables(ids: std::ops::RangeInclusive<u64>) -> TupleBatch {
        ids.map(stable).collect()
    }

    /// A node-like publisher of `S` (two expected consumers) sending
    /// `chunk` tuples per message.
    fn publisher(chunk: usize) -> Publisher {
        Publisher::new([(S, 2)], BufferPolicy::Unbounded, chunk)
    }

    fn subscribe(p: &mut Publisher, ctx: &mut FakeCtx, from: NodeId, after: u64, resume: Resume) {
        let msg = NetMsg::Subscribe {
            stream: S,
            last_stable: TupleId(after),
            resume,
        };
        let now = ctx.now;
        p.on_message(ctx, from, msg, now);
    }

    /// What `to` was sent in `sent[skip..]`, tuple by tuple in send order:
    /// (send instant, tuple kind, tuple id).
    fn received(ctx: &FakeCtx, to: NodeId, skip: usize) -> Vec<(Time, TupleKind, u64)> {
        let mut out = Vec::new();
        for (at, dest, msg) in &ctx.sent[skip..] {
            let NetMsg::Data { stream, tuples } = msg else {
                panic!("a publisher sends only data: {msg:?}");
            };
            assert_eq!(*stream, S);
            if *dest == to {
                out.extend(tuples.iter().map(|t| (*at, t.kind, t.id.0)));
            }
        }
        out
    }

    /// The ids of [`received`].
    fn ids(ctx: &FakeCtx, to: NodeId, skip: usize) -> Vec<u64> {
        received(ctx, to, skip).iter().map(|g| g.2).collect()
    }

    #[test]
    fn zero_window_sends_now_and_arms_nothing() {
        let mut ctx = FakeCtx::default();
        let mut p = publisher(2);
        subscribe(&mut p, &mut ctx, A, 0, Resume::Replay);
        ctx.now = ms(5);
        p.publish(S, stables(1..=5));
        p.flush(&mut ctx, ms(5), ms(5));
        assert_eq!(ids(&ctx, A, 0), [1, 2, 3, 4, 5]);
        assert!(ctx.sent.iter().all(|s| s.0 == ms(5)), "sent at once");
        assert_eq!(ctx.sent.len(), 3, "chunks of two");
        assert!(ctx.timers.is_empty(), "zero cost never queues");
    }

    #[test]
    fn late_reversed_timers_keep_emission_order_and_departure_times() {
        let mut ctx = FakeCtx::default();
        let mut p = publisher(2);
        subscribe(&mut p, &mut ctx, A, 0, Resume::Replay);
        subscribe(&mut p, &mut ctx, B, 0, Resume::Replay);
        // Six tuples over a busy window [10, 16] ms: chunks depart at 12,
        // 14 and 16 ms, for each subscriber.
        p.publish(S, stables(1..=6));
        p.flush(&mut ctx, ms(10), ms(16));
        assert!(ctx.sent.is_empty(), "nothing leaves before its departure");
        assert_eq!(ctx.timers, [(ms(12), TIMER_DEPART)], "one timer: the head");

        // An unrelated handler runs at 13 ms, before the 12 ms timer was
        // delivered: what is due leaves, the next head gets its own timer.
        ctx.now = ms(13);
        p.release_due(&mut ctx);
        assert_eq!(ids(&ctx, A, 0), [1, 2]);
        assert_eq!(ids(&ctx, B, 0), [1, 2]);
        assert_eq!(ctx.timers.last(), Some(&(ms(14), TIMER_DEPART)));

        // More output while the first is still queued: [16, 20] ms, one
        // chunk at 18 and one at 20.
        p.publish(S, stables(7..=10));
        p.flush(&mut ctx, ms(16), ms(20));
        assert_eq!(ctx.timers.len(), 2, "a timer is already armed");

        // The runtime delivers both timers late and in reverse order.
        ctx.now = ms(19);
        p.release_due(&mut ctx); // the 14 ms timer
        ctx.now = ms(26);
        p.release_due(&mut ctx); // the stale 12 ms timer
        let depart = |id: u64| ms([12, 14, 16, 18, 20][(id as usize - 1) / 2]);
        for to in [A, B] {
            assert!(ids(&ctx, to, 0).into_iter().eq(1..=10), "emission order");
            for (at, _, id) in received(&ctx, to, 0) {
                assert!(at >= depart(id), "{id} left at {at}, due {}", depart(id));
            }
        }
        // 20 ms was still queued at 19 ms and has a timer of its own.
        assert_eq!(ctx.timers.last(), Some(&(ms(20), TIMER_DEPART)));
        let at_19 = ctx.sent.iter().filter(|s| s.0 == ms(19)).count();
        assert_eq!(at_19, 6, "14, 16 and 18 ms chunks of both subscribers");
    }

    #[test]
    fn link_up_rewinds_to_the_acked_position() {
        let mut ctx = FakeCtx::default();
        let mut p = publisher(100);
        subscribe(&mut p, &mut ctx, A, 0, Resume::Replay);
        subscribe(&mut p, &mut ctx, B, 0, Resume::Replay);
        p.publish(S, stables(1..=10));
        p.flush(&mut ctx, ms(0), ms(0));
        let through = TupleId(4);
        p.on_message(&mut ctx, A, NetMsg::Ack { stream: S, through }, ms(0));
        // Two more tuples are still waiting for their departure (the CPU is
        // busy until 60 ms) when the link to A heals: they are part of the
        // replay, not sent twice.
        p.publish(S, stables(11..=12));
        p.flush(&mut ctx, ms(50), ms(60));
        let before = ctx.sent.len();
        ctx.now = ms(20);
        p.on_fault(&mut ctx, &FaultEvent::LinkUp { a: A, b: ME }, ms(60));
        assert_eq!(ctx.sent.len(), before, "the replay waits for the CPU too");
        ctx.now = ms(70);
        p.release_due(&mut ctx);
        assert!(ids(&ctx, A, before).into_iter().eq(5..=12));
        // B's link did not heal: its queued tuples leave when due, once.
        assert_eq!(ids(&ctx, B, before), [11, 12]);
        // Only one of two expected consumers acked: nothing was truncated.
        assert_eq!(p.topics[&S].log.len(), 12);
    }

    /// The log is truncated only through the slowest expected consumer's
    /// ack: with acks through 4 and through 8 it still holds 5 onward, and
    /// the slow consumer's re-subscription replays from 5.
    #[test]
    fn truncation_waits_for_the_slowest_ack() {
        let mut ctx = FakeCtx::default();
        let mut p = publisher(100);
        subscribe(&mut p, &mut ctx, A, 0, Resume::Replay);
        subscribe(&mut p, &mut ctx, B, 0, Resume::Replay);
        p.publish(S, stables(1..=10));
        p.flush(&mut ctx, ms(0), ms(0));
        for (from, through) in [(A, 4), (B, 8)] {
            let ack = NetMsg::Ack {
                stream: S,
                through: TupleId(through),
            };
            p.on_message(&mut ctx, from, ack, ms(0));
        }
        assert_eq!(p.topics[&S].log.len(), 6, "5 through 10 are kept");
        let sent = ctx.sent.len();
        subscribe(&mut p, &mut ctx, A, 4, Resume::Replay);
        assert!(ids(&ctx, A, sent).into_iter().eq(5..=10));
    }

    #[test]
    fn undone_tentative_suffix_is_not_replayed_to_a_new_subscriber() {
        let mut ctx = FakeCtx::default();
        let mut p = publisher(100);
        let tentative = |id| Tuple::tentative(TupleId(id), ms(id), vec![]);
        let undo = Tuple::undo(TupleId::NONE, TupleId(1));
        p.publish(
            S,
            [stable(1), tentative(2), tentative(3)]
                .into_iter()
                .collect(),
        );
        p.publish(S, [undo, stable(2)].into_iter().collect());
        p.flush(&mut ctx, ms(0), ms(0));

        // A fresh subscriber gets the live log: the rolled-back tentative
        // tuples are dead history.
        subscribe(&mut p, &mut ctx, A, 0, Resume::Replay);
        let (t0, stable, undo) = (ms(0), TupleKind::Insertion, TupleKind::Undo);
        let replay = [(t0, stable, 1), (t0, undo, 0), (t0, stable, 2)];
        assert_eq!(received(&ctx, A, 0), replay);
        // One that holds tentative tuples after stable 1 (from another
        // replica) is first told to roll them back, then corrected.
        subscribe(&mut p, &mut ctx, B, 1, Resume::Undo);
        assert_eq!(received(&ctx, B, 0)[0], (t0, undo, 0));
        assert_eq!(received(&ctx, B, 0)[1..], replay[1..]);
    }

    #[test]
    fn untruncated_log_serves_resubscribes_without_walking_it() {
        const N: u64 = 10_000;
        let mut ctx = FakeCtx::default();
        // A source's publisher: never truncating, whole batches.
        let mut p = Publisher::new([(S, usize::MAX)], BufferPolicy::Unbounded, usize::MAX);
        subscribe(&mut p, &mut ctx, A, 0, Resume::Replay);
        for id in 1..=N {
            p.publish(S, stables(id..=id));
            p.flush(&mut ctx, ms(0), ms(0));
        }
        let through = TupleId(N / 2);
        p.on_message(&mut ctx, A, NetMsg::Ack { stream: S, through }, ms(0));
        assert_eq!(p.topics[&S].log.len(), N as usize, "never truncated");
        let walked = |p: &Publisher| p.topics[&S].log.walked.get();
        assert_eq!(walked(&p), N as usize, "each flush looked at one segment");

        // A crashed subscriber comes back with nothing: the position is
        // found without a scan, the replay touches each segment once.
        let (sent, seen) = (ctx.sent.len(), walked(&p));
        subscribe(&mut p, &mut ctx, A, 0, Resume::Replay);
        assert!(ids(&ctx, A, sent).into_iter().eq(1..=N));
        assert_eq!(walked(&p) - seen, N as usize);

        // From then on neither a new batch nor a resubscribe near the end
        // costs more than the suffix it sends.
        let (sent, seen) = (ctx.sent.len(), walked(&p));
        p.publish(S, stables(N + 1..=N + 1));
        p.flush(&mut ctx, ms(0), ms(0));
        subscribe(&mut p, &mut ctx, B, N - 9, Resume::Replay);
        assert_eq!(ids(&ctx, A, sent), [N + 1]);
        assert!(ids(&ctx, B, sent).into_iter().eq(N - 8..=N + 1));
        assert!(walked(&p) - seen <= 25, "walked {}", walked(&p) - seen);
    }
}
