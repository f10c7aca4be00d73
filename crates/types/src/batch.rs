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
//! renumbering, a divergence relabel) it builds one new batch of tuple
//! headers; the attribute payloads stay shared ([`Tuple::values`]).

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

impl FromIterator<Tuple> for TupleBatch {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> TupleBatch {
        TupleBatch::from_vec(iter.into_iter().collect())
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

/// A selection view over a shared batch: the unit shard routing ships.
///
/// Holds the producing batch's allocation plus an optional sorted run
/// list selecting which of its tuples are visible. A contiguous selection
/// collapses to plain range arithmetic (`sel == None` over a
/// [`TupleBatch::slice`]) — the whole-batch and single-run cases allocate
/// nothing; a fragmented selection stores one `(start, end)` pair per run,
/// never a per-tuple copy. All R replicas of one shard share a single view
/// through its internal `Arc`s: `clone` is reference-count bumps, so a
/// K-shard fan-out of one batch costs one key-hash pass plus K run lists
/// regardless of replication degree.
#[derive(Clone)]
pub struct BatchView {
    base: TupleBatch,
    /// Sorted, disjoint, non-empty `[start, end)` runs relative to `base`;
    /// `None` selects all of `base`. Invariant: `Some` holds at least two
    /// runs (anything less collapses into `base` itself).
    sel: Option<Arc<[(u32, u32)]>>,
    len: usize,
}

impl BatchView {
    /// A view over an entire batch (no selection metadata).
    pub fn whole(base: TupleBatch) -> BatchView {
        let len = base.len();
        BatchView {
            base,
            sel: None,
            len,
        }
    }

    /// An empty view (shares the cached empty allocation).
    pub fn empty() -> BatchView {
        BatchView::whole(TupleBatch::empty())
    }

    /// Builds a view from sorted, disjoint, non-empty runs relative to
    /// `base`. Zero or one runs collapse to the run-list-free form; a full
    /// single run is `base` itself.
    ///
    /// # Panics
    /// Panics (debug builds) if the runs are unsorted, overlapping, empty,
    /// or out of `base`'s bounds.
    pub fn from_runs(base: TupleBatch, runs: Vec<(u32, u32)>) -> BatchView {
        #[cfg(debug_assertions)]
        {
            let mut prev = 0u32;
            for &(s, e) in &runs {
                assert!(
                    s >= prev && s < e && e as usize <= base.len(),
                    "bad run list"
                );
                prev = e;
            }
        }
        match runs.len() {
            0 => BatchView::empty(),
            1 => {
                let (s, e) = runs[0];
                BatchView::whole(base.slice(s as usize..e as usize))
            }
            _ => {
                let len = runs.iter().map(|&(s, e)| (e - s) as usize).sum();
                BatchView {
                    base,
                    sel: Some(Arc::from(runs)),
                    len,
                }
            }
        }
    }

    /// Number of selected tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the view selects nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The selected run bounds, relative to the base view (one implicit
    /// whole-base run when there is no run list).
    fn bounds(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let empty: &[(u32, u32)] = &[];
        let (implicit, sel) = match &self.sel {
            None if self.base.is_empty() => (None, empty),
            None => (Some((0, self.base.len())), empty),
            Some(s) => (None, &s[..]),
        };
        implicit
            .into_iter()
            .chain(sel.iter().map(|&(s, e)| (s as usize, e as usize)))
    }

    /// The selected tuples as contiguous runs (no allocation, no `Arc`
    /// traffic) — the wire encoder and batch-native consumers walk these.
    pub fn runs(&self) -> impl Iterator<Item = &[Tuple]> + '_ {
        self.bounds().map(|(s, e)| &self.base.as_slice()[s..e])
    }

    /// The selected runs as zero-copy [`TupleBatch`] slices sharing the
    /// base allocation (SUnion's batch-native intake consumes these).
    pub fn run_batches(&self) -> impl Iterator<Item = TupleBatch> + '_ {
        self.bounds().map(|(s, e)| self.base.slice(s..e))
    }

    /// Iterates the selected tuples in order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.runs().flatten()
    }

    /// Number of data-carrying tuples (stable + tentative) in the view —
    /// the CPU cost model's work unit.
    pub fn data_count(&self) -> u64 {
        self.iter().filter(|t| t.is_data()).count() as u64
    }

    /// A contiguous batch of the selected tuples. Zero-copy when the view
    /// is already contiguous (the overwhelmingly common case); a
    /// fragmented selection copies out once.
    pub fn to_batch(&self) -> TupleBatch {
        match &self.sel {
            None => self.base.clone(),
            Some(_) => {
                let mut v = Vec::with_capacity(self.len);
                for run in self.runs() {
                    v.extend_from_slice(run);
                }
                TupleBatch::from_vec(v)
            }
        }
    }

    /// Identity (not content) comparison: true when both views are the
    /// same selection of the same backing range. The shard router's memo
    /// uses this — entries hold a clone of the compared view, so a true
    /// result can never be an address-reuse coincidence.
    pub fn same_view(&self, other: &BatchView) -> bool {
        self.base.shares_backing(&other.base)
            && self.base.start == other.base.start
            && self.base.end == other.base.end
            && match (&self.sel, &other.sel) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl From<TupleBatch> for BatchView {
    fn from(b: TupleBatch) -> BatchView {
        BatchView::whole(b)
    }
}

impl Default for BatchView {
    fn default() -> BatchView {
        BatchView::empty()
    }
}

impl PartialEq for BatchView {
    fn eq(&self, other: &BatchView) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for BatchView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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
    fn view_collapses_contiguous_runs() {
        let b = TupleBatch::from_vec((1..=8).map(stable).collect());
        let whole = BatchView::from(b.clone());
        assert_eq!(whole.len(), 8);
        assert!(
            whole.to_batch().shares_backing(&b),
            "whole view is the batch"
        );

        let single = BatchView::from_runs(b.clone(), vec![(2, 6)]);
        assert_eq!(single.len(), 4);
        assert!(
            single.to_batch().shares_backing(&b),
            "one run is a zero-copy slice"
        );
        assert_eq!(
            single.iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );

        let none = BatchView::from_runs(b.clone(), vec![]);
        assert!(none.is_empty());
        assert_eq!(none.to_batch().len(), 0);
    }

    #[test]
    fn fragmented_view_iterates_runs_in_order() {
        let b = TupleBatch::from_vec((1..=8).map(stable).collect());
        let v = BatchView::from_runs(b.clone(), vec![(0, 2), (3, 4), (6, 8)]);
        assert_eq!(v.len(), 5);
        assert_eq!(
            v.iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![1, 2, 4, 7, 8]
        );
        let runs: Vec<usize> = v.run_batches().map(|r| r.len()).collect();
        assert_eq!(runs, vec![2, 1, 2]);
        assert!(
            v.run_batches().all(|r| r.shares_backing(&b)),
            "runs share the base"
        );
        assert_eq!(v.to_batch().len(), 5, "materializes only on demand");
        assert_eq!(v.data_count(), 5);
    }

    #[test]
    fn view_identity_vs_equality() {
        let b = TupleBatch::from_vec((1..=4).map(stable).collect());
        let v1 = BatchView::from(b.clone());
        let v2 = BatchView::from(b.clone());
        let copy = BatchView::from(TupleBatch::from_vec(b.to_vec()));
        assert!(v1.same_view(&v2));
        assert!(!v1.same_view(&copy), "identity tracks the allocation");
        assert_eq!(v1, copy, "equality tracks contents");
        assert!(!v1.same_view(&BatchView::from(b.slice(1..3))));
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
