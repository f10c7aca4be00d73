//! Shared-ownership tuple batches: the zero-copy data plane.
//!
//! DPC's protocol machinery multiplies every emitted tuple: it is buffered
//! for replay (§8.1), fanned out to every replica of every downstream
//! neighbor, and re-sent on subscription. With owned `Vec<Tuple>` messages
//! each of those hops copies every tuple, so per-tuple cost grows with
//! replication degree — exactly where the paper's availability bound needs
//! headroom. A [`TupleBatch`] is an immutable, `Arc`-backed slice view:
//! `clone` is a reference-count bump, [`TupleBatch::slice`] is O(1) range
//! arithmetic, and one batch built by an operator can back the emission
//! log, every subscriber's in-flight message, and every replay
//! simultaneously. Where the protocol needs *new* tuples (SUnion's
//! renumbering, a divergence relabel, one shard's part of a key-routed
//! batch) it builds one new batch of tuple headers; the attribute payloads
//! stay shared ([`Tuple::values`]). What travels in a message is a
//! [`BatchView`]: always one contiguous range of one such batch.

use crate::tuple::Tuple;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

/// An immutable, cheaply clonable batch of tuples.
///
/// Internally an `Arc<[Tuple]>` plus a sub-range: clones and slices share
/// the backing allocation. The backing memory is freed only when the last
/// view over it drops — so truncating a log that handed out views never
/// invalidates them.
#[derive(Clone)]
pub struct TupleBatch {
    data: Arc<[Tuple]>,
    start: usize,
    end: usize,
}

impl TupleBatch {
    /// An empty batch. Every empty batch shares one process-wide cached
    /// allocation — heartbeat and tick paths call this constantly, and a
    /// fresh zero-length `Arc` per call is still a heap allocation.
    pub fn empty() -> TupleBatch {
        static EMPTY: OnceLock<Arc<[Tuple]>> = OnceLock::new();
        TupleBatch {
            data: Arc::clone(EMPTY.get_or_init(|| Arc::from(Vec::new()))),
            start: 0,
            end: 0,
        }
    }

    /// Seals a vector into a batch (single allocation move, no per-tuple
    /// clone).
    pub fn from_vec(tuples: Vec<Tuple>) -> TupleBatch {
        let end = tuples.len();
        TupleBatch {
            data: Arc::from(tuples),
            start: 0,
            end,
        }
    }

    /// A batch holding one tuple.
    pub fn single(t: Tuple) -> TupleBatch {
        TupleBatch::from_vec(vec![t])
    }

    /// The viewed tuples.
    pub fn as_slice(&self) -> &[Tuple] {
        &self.data[self.start..self.end]
    }

    /// Number of tuples in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// An O(1) sub-view sharing the same backing allocation.
    ///
    /// # Panics
    /// Panics if the range exceeds this view's bounds.
    pub fn slice(&self, range: Range<usize>) -> TupleBatch {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice out of bounds"
        );
        TupleBatch {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Splits into consecutive sub-views of at most `max` tuples each
    /// (message-size chunking for dispatch). O(1) per chunk.
    pub fn chunks_shared(&self, max: usize) -> impl Iterator<Item = TupleBatch> + '_ {
        let max = max.max(1);
        (0..self.len())
            .step_by(max)
            .map(move |i| self.slice(i..(i + max).min(self.len())))
    }

    /// True if the two views share one backing allocation (diagnostics and
    /// sharing assertions in tests/benches).
    pub fn shares_backing(&self, other: &TupleBatch) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Length of the backing allocation this view pins (≥ [`TupleBatch::len`]).
    /// Compaction heuristics compare the two to decide when holding a
    /// narrow view of a large batch should copy out instead.
    pub fn backing_len(&self) -> usize {
        self.data.len()
    }

    /// The backing allocation and this view's range within it: the shard
    /// router's memo key and the bounds it slices by.
    pub(crate) fn backing(&self) -> (&Arc<[Tuple]>, Range<usize>) {
        (&self.data, self.start..self.end)
    }

    /// Index of the first tentative tuple, if any (checkpoint-before-
    /// tentative split point, §4.4.1).
    pub fn first_tentative(&self) -> Option<usize> {
        self.as_slice().iter().position(Tuple::is_tentative)
    }

    /// Number of data-carrying tuples (stable + tentative) in the view —
    /// the CPU cost model's work unit.
    pub fn data_count(&self) -> u64 {
        self.as_slice().iter().filter(|t| t.is_data()).count() as u64
    }

    /// Copies the viewed tuples into an owned vector (interop; the hot path
    /// never needs this).
    pub fn to_vec(&self) -> Vec<Tuple> {
        self.as_slice().to_vec()
    }
}

impl Deref for TupleBatch {
    type Target = [Tuple];

    fn deref(&self) -> &[Tuple] {
        self.as_slice()
    }
}

impl Default for TupleBatch {
    fn default() -> TupleBatch {
        TupleBatch::empty()
    }
}

impl From<Vec<Tuple>> for TupleBatch {
    fn from(v: Vec<Tuple>) -> TupleBatch {
        TupleBatch::from_vec(v)
    }
}

/// Collects straight into the shared allocation: an iterator of known
/// length (a `map` over a slice) allocates once and copies nothing after.
impl FromIterator<Tuple> for TupleBatch {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> TupleBatch {
        let data: Arc<[Tuple]> = iter.into_iter().collect();
        TupleBatch {
            end: data.len(),
            data,
            start: 0,
        }
    }
}

impl<'a> IntoIterator for &'a TupleBatch {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for TupleBatch {
    fn eq(&self, other: &TupleBatch) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for TupleBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// The payload of a `Data` message: one contiguous view of a shared batch.
///
/// A producer's batch travels whole or in chunks, and a shard receiver's
/// part of it is a slice of the contiguous batch
/// [`ShardRouter`](crate::ShardRouter) built for that shard — so a view is
/// always one range of one allocation, `clone` is a reference-count bump,
/// and every replica of a shard shares its view. Reads go through
/// [`TupleBatch`] (`Deref`).
#[derive(Clone, Default, PartialEq)]
pub struct BatchView(TupleBatch);

impl BatchView {
    /// A view over an entire batch.
    pub fn whole(base: TupleBatch) -> BatchView {
        BatchView(base)
    }

    /// An empty view (shares the cached empty allocation).
    pub fn empty() -> BatchView {
        BatchView(TupleBatch::empty())
    }

    /// The viewed tuples as a batch (zero-copy).
    pub fn to_batch(&self) -> TupleBatch {
        self.0.clone()
    }
}

impl Deref for BatchView {
    type Target = TupleBatch;

    fn deref(&self) -> &TupleBatch {
        &self.0
    }
}

impl From<TupleBatch> for BatchView {
    fn from(b: TupleBatch) -> BatchView {
        BatchView(b)
    }
}

impl fmt::Debug for BatchView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use crate::tuple::TupleId;
    use crate::value::Value;

    fn stable(id: u64) -> Tuple {
        Tuple::insertion(
            TupleId(id),
            Time::from_millis(id),
            vec![Value::Int(id as i64)],
        )
    }

    #[test]
    fn empty_batches_share_one_cached_allocation() {
        let a = TupleBatch::empty();
        let b = TupleBatch::empty();
        assert!(a.shares_backing(&b), "no fresh allocation per empty()");
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn view_is_a_zero_copy_batch() {
        let b = TupleBatch::from_vec((1..=8).map(stable).collect());
        let whole = BatchView::from(b.clone());
        assert_eq!(whole.len(), 8);
        assert!(whole.to_batch().shares_backing(&b), "the view is the batch");

        let part = BatchView::whole(b.slice(2..6));
        assert!(part.shares_backing(&b), "a slice stays zero-copy");
        assert_eq!(
            part.iter().map(|t| t.id.0).collect::<Vec<_>>(),
            [3, 4, 5, 6]
        );
        assert_eq!(part.data_count(), 4);

        let copy = BatchView::from(TupleBatch::from_vec(b.to_vec()));
        assert!(!copy.shares_backing(&b));
        assert_eq!(whole, copy, "equality tracks contents");
        assert!(BatchView::empty().is_empty());
    }

    #[test]
    fn clone_and_slice_share_backing() {
        let b = TupleBatch::from_vec((1..=8).map(stable).collect());
        let c = b.clone();
        let s = b.slice(2..6);
        assert!(b.shares_backing(&c));
        assert!(b.shares_backing(&s));
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].id, TupleId(3));
        assert_eq!(s.slice(1..3)[0].id, TupleId(4));
    }

    #[test]
    fn chunks_cover_everything_in_order() {
        let b = TupleBatch::from_vec((1..=7).map(stable).collect());
        let chunks: Vec<TupleBatch> = b.chunks_shared(3).collect();
        assert_eq!(
            chunks.iter().map(TupleBatch::len).collect::<Vec<_>>(),
            vec![3, 3, 1]
        );
        let ids: Vec<u64> = chunks
            .iter()
            .flat_map(|c| c.iter().map(|t| t.id.0))
            .collect();
        assert_eq!(ids, (1..=7).collect::<Vec<_>>());
        assert!(chunks.iter().all(|c| c.shares_backing(&b)));
    }

    #[test]
    fn scans_find_tentative_and_count_data() {
        let mut v: Vec<Tuple> = (1..=3).map(stable).collect();
        v.push(Tuple::boundary(TupleId::NONE, Time::from_secs(1)));
        v.push(Tuple::tentative(TupleId(4), Time::from_secs(1), vec![]));
        let b = TupleBatch::from_vec(v);
        assert_eq!(b.first_tentative(), Some(4));
        assert_eq!(b.data_count(), 4);
        assert_eq!(b.slice(0..3).first_tentative(), None);
    }

    #[test]
    fn equality_ignores_backing_identity() {
        let a = TupleBatch::from_vec(vec![stable(1), stable(2)]);
        let b = TupleBatch::from_vec(vec![stable(1), stable(2)]);
        assert_eq!(a, b);
        assert!(!a.shares_backing(&b));
        assert_ne!(a, a.slice(0..1));
    }

    #[test]
    fn batch_views_outlive_log_truncation_semantics() {
        // A view taken before the source of the data is dropped stays
        // valid: ownership is shared, not borrowed.
        let view;
        {
            let b = TupleBatch::from_vec((1..=4).map(stable).collect());
            view = b.slice(1..3);
        }
        assert_eq!(view.len(), 2);
        assert_eq!(view[1].id, TupleId(3));
    }
}
