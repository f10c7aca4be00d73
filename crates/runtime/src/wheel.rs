//! The per-worker timer wheel: deadline-ordered deferred work against the
//! monotonic clock.
//!
//! Under the pooled engine each **worker** (not each actor) owns one wheel
//! holding owner-tagged entries for every actor it has recently run: their
//! pending [`RuntimeCtx`] timers and their credit replenishments. The
//! worker fires due entries between actor activations and parks at most
//! until its earliest deadline, so timer precision is bounded by
//! scheduling granularity, not by a polling period — and an idle worker
//! with an empty wheel parks indefinitely.
//!
//! A wheel never holds a message: what an actor wants to leave later stays
//! in its own state behind a timer (`borealis_dpc::Publisher`), so two
//! wheels firing one actor's entries in either order can delay a send but
//! cannot reorder a link.
//!
//! An entry stays on the wheel of the worker that was running its owner
//! when it was scheduled; if the owner migrates to another worker in the
//! meantime the entry still fires on time (a due `Timer` is re-enqueued
//! into the owner's mailbox; a `Replenish` is executed directly by the
//! wheel-owning worker on the owner's behalf).
//!
//! [`RuntimeCtx`]: borealis_dpc::RuntimeCtx

use borealis_types::{NodeId, Time};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What to do when an entry comes due. Every variant carries the actor it
/// belongs to (`owner`), since one wheel serves many actors.
#[derive(Debug)]
pub enum Due {
    /// Re-enqueue `on_timer(kind)` into `owner`'s mailbox (suppressed if
    /// the owner is crashed, or has crashed since, as in the simulator).
    Timer {
        /// The actor whose timer fires.
        owner: NodeId,
        /// Timer kind.
        kind: u64,
        /// The incarnation of `owner` that armed it.
        incarnation: u32,
    },
    /// `owner`'s modeled CPU finished consuming a delivery from `from`:
    /// return the link credit (releasing the sender's next queued
    /// message, if any).
    Replenish {
        /// The consuming actor.
        owner: NodeId,
        /// The sender whose link credit returns.
        from: NodeId,
    },
}

struct Entry {
    at: Time,
    seq: u64,
    due: Due,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first, insertion
        // order (seq) breaking ties — same total order as the simulator's
        // event queue.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Deadline-ordered pending work for one worker's actors.
#[derive(Default)]
pub struct TimerWheel {
    heap: BinaryHeap<Entry>,
    seq: u64,
    /// Deadline/seq of the last popped entry: pops must be monotone in
    /// `(at, seq)` or the wheel no longer matches the simulator's event
    /// order (debug builds assert this in [`TimerWheel::pop_due`]).
    #[cfg(debug_assertions)]
    last_popped: Option<(Time, u64)>,
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> TimerWheel {
        TimerWheel::default()
    }

    /// Schedules `on_timer(kind)` at `at` for this `incarnation` of `owner`.
    pub fn push_timer(&mut self, at: Time, owner: NodeId, kind: u64, incarnation: u32) {
        let due = Due::Timer {
            owner,
            kind,
            incarnation,
        };
        self.push(at, due);
    }

    /// Schedules a credit return for `owner`'s delivery from `from`, due
    /// when `owner`'s modeled CPU finishes consuming it.
    pub fn push_replenish(&mut self, at: Time, owner: NodeId, from: NodeId) {
        self.push(at, Due::Replenish { owner, from });
    }

    fn push(&mut self, at: Time, due: Due) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, due });
    }

    /// Deadline of the next entry, if any (bounds the owning worker's
    /// park).
    pub fn next_due(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the earliest entry if it is due at `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, Due)> {
        if self.heap.peek().is_some_and(|e| e.at <= now) {
            let e = self.heap.pop().expect("peeked entry exists");
            #[cfg(debug_assertions)]
            {
                debug_assert!(
                    self.last_popped.is_none_or(|last| last < (e.at, e.seq)),
                    "timer wheel popped out of (deadline, seq) order: \
                     {:?} after {:?}",
                    (e.at, e.seq),
                    self.last_popped
                );
                self.last_popped = Some((e.at, e.seq));
            }
            Some((e.at, e.due))
        } else {
            None
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_deadline_then_insertion_order() {
        let mut w = TimerWheel::new();
        let me = NodeId(0);
        w.push_timer(Time::from_millis(20), me, 2, 0);
        w.push_replenish(Time::from_millis(15), me, NodeId(9));
        w.push_timer(Time::from_millis(10), me, 1, 0);
        w.push_timer(Time::from_millis(10), NodeId(7), 3, 0);
        assert_eq!(w.len(), 4);
        assert_eq!(w.next_due(), Some(Time::from_millis(10)));
        assert!(w.pop_due(Time::from_millis(5)).is_none(), "nothing due yet");
        let fired: Vec<(u32, u64)> = std::iter::from_fn(|| w.pop_due(Time::from_millis(30)))
            .map(|(_, d)| match d {
                Due::Timer { owner, kind, .. } => (owner.0, kind),
                Due::Replenish { owner, from } => (owner.0, from.0 as u64),
            })
            .collect();
        assert_eq!(
            fired,
            vec![(0, 1), (7, 3), (0, 9), (0, 2)],
            "deadline order across owners and kinds, ties by insertion"
        );
        assert!(w.is_empty());
    }
}
