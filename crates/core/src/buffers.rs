//! Output-buffer management (§8.1).
//!
//! "A node must buffer the output tuples it produces until all replicas of
//! all downstream neighbors receive these tuples" — any downstream replica
//! may subscribe at any time and ask for everything after its last stable
//! tuple. The buffer is the emission *log* of one output stream (stable
//! data, boundaries, tentative data, undo and rec-done markers, in emission
//! order); new subscriptions are served by replaying a suffix of the log.
//!
//! The log retains the engine's emitted [`TupleBatch`]es as shared
//! segments: the node appends a batch by view (no copy), and replay hands
//! out O(1) sub-views of the same allocations ([`OutputBuffer::batches_from`]),
//! so one emission backs the buffer *and* every subscriber's in-flight
//! messages simultaneously. Rolled-back (dead) entries are tracked by
//! segment-local flags — never by mutating the shared tuples.
//!
//! Truncation: cumulative acknowledgments from downstream consumers move
//! the safe horizon forward; everything at or before the acked stable tuple
//! is dropped by *splitting ranges* — whole segments are released (by
//! their last stable id, without reading their tuples), a partially-acked
//! segment is narrowed to its live sub-range. Views already
//! handed to slower subscribers keep their shared backing alive until they
//! drop, so acking mid-batch can never free or corrupt tuples another
//! replay cursor still references. With bounded buffers
//! ([`BufferPolicy::DropOldest`]) the buffer additionally evicts its oldest
//! entries under memory pressure — the paper's convergent-capable mode,
//! where only "a predefined window of most recent results will be corrected
//! after the failure heals".

use borealis_types::{Tuple, TupleBatch, TupleId, TupleKind};
use std::collections::VecDeque;

// The policy type lives in `borealis-types` so the deployment planner
// (`borealis-diagram`) can carry per-fragment overrides without depending
// on this crate; re-exported here at its historical path.
pub use borealis_types::BufferPolicy;

/// One retained emission batch plus segment-local liveness flags.
#[derive(Debug)]
struct Segment {
    /// Logical position of the segment's first entry. Strictly increasing
    /// along the log, so suffix lookups binary-search instead of walking
    /// every retained segment (a source's log is never truncated).
    start: usize,
    batch: TupleBatch,
    /// Aligned with `batch`; empty means every entry is live. Allocated
    /// lazily — only reconciliations (UNDO appends) ever populate it.
    dead: Vec<bool>,
    /// Index of the segment's last stable data entry. Stable ids increase
    /// along the log, so its id bounds every stable id in the segment:
    /// truncation releases whole segments by it without reading them.
    last_stable: Option<usize>,
}

impl Segment {
    fn len(&self) -> usize {
        self.batch.len()
    }

    fn mark_dead(&mut self, i: usize) {
        if self.dead.is_empty() {
            self.dead = vec![false; self.batch.len()];
        }
        self.dead[i] = true;
    }

    /// Narrows the segment to `[k, len)` — range arithmetic on the view;
    /// the shared backing is untouched.
    fn drop_front(&mut self, k: usize) {
        self.start += k;
        self.batch = self.batch.slice(k..self.batch.len());
        if !self.dead.is_empty() {
            self.dead.drain(..k);
        }
        self.last_stable = self.last_stable.and_then(|i| i.checked_sub(k));
    }

    /// The id of the last stable data entry among the first `k`.
    fn last_stable_before(&self, k: usize) -> Option<TupleId> {
        let i = match self.last_stable? {
            i if i < k => i,
            _ => self.batch[..k].iter().rposition(Tuple::is_stable_data)?,
        };
        Some(self.batch[i].id)
    }

    /// Appends the live (non-dead) runs of `[start, len)` as O(1) shared
    /// views.
    fn push_live_runs(&self, start: usize, out: &mut Vec<TupleBatch>) {
        if start >= self.len() {
            return;
        }
        if self.dead.is_empty() {
            out.push(self.batch.slice(start..self.len()));
            return;
        }
        let mut run_start = start;
        for i in start..self.len() {
            if self.dead[i] {
                if i > run_start {
                    out.push(self.batch.slice(run_start..i));
                }
                run_start = i + 1;
            }
        }
        if self.len() > run_start {
            out.push(self.batch.slice(run_start..self.len()));
        }
    }
}

/// The emission log of one output stream.
#[derive(Debug)]
pub struct OutputBuffer {
    /// Logical index of the first retained entry (grows as the prefix is
    /// truncated).
    base: usize,
    segs: VecDeque<Segment>,
    /// Retained entries (sum of segment lengths).
    retained: usize,
    /// Last stable id dropped from the front (ack truncation or bounded
    /// eviction) — the highest, as stable ids increase along the log: a
    /// subscriber is "missed" only when it resumes behind this horizon.
    dropped_stable_id: TupleId,
    policy: BufferPolicy,
    truncation_misses: u64,
    /// Segments examined by position and suffix lookups so far: lets tests
    /// assert that a lookup near the end of a long log does not walk it.
    #[cfg(test)]
    pub(crate) walked: std::cell::Cell<usize>,
}

impl OutputBuffer {
    /// An empty buffer with the given policy.
    pub fn new(policy: BufferPolicy) -> OutputBuffer {
        OutputBuffer {
            base: 0,
            segs: VecDeque::new(),
            retained: 0,
            dropped_stable_id: TupleId::NONE,
            policy,
            truncation_misses: 0,
            #[cfg(test)]
            walked: Default::default(),
        }
    }

    /// Appends one emitted tuple (wrapper over [`OutputBuffer::append_batch`]
    /// for tests and single-tuple emissions).
    pub fn append(&mut self, t: Tuple) {
        self.append_batch(TupleBatch::single(t));
    }

    /// Appends an emitted batch by shared view — the zero-copy retention
    /// path. Appending a batch containing an UNDO marks the tentative
    /// suffix it rolls back as dead (excluded from future replays): current
    /// subscribers already received those tuples (and the UNDO), and new
    /// subscribers must not — replaying dead history would only re-inflate
    /// their tentative input.
    pub fn append_batch(&mut self, batch: TupleBatch) {
        if batch.is_empty() {
            return;
        }
        let seg_start = self.end();
        let mut undos: Vec<(usize, TupleId)> = Vec::new();
        for (i, t) in batch.as_slice().iter().enumerate() {
            if t.kind == TupleKind::Undo {
                undos.push((i, t.undo_target().unwrap_or(TupleId::NONE)));
            }
        }
        self.retained += batch.len();
        self.segs.push_back(Segment {
            start: seg_start,
            last_stable: batch.iter().rposition(Tuple::is_stable_data),
            batch,
            dead: Vec::new(),
        });
        for (i, target) in undos {
            self.mark_dead_before(seg_start + i, target);
        }
        if let BufferPolicy::DropOldest(max) = self.policy {
            if self.retained > max {
                self.drop_front_entries(self.retained - max);
            }
        }
    }

    /// Walks backward from logical position `upto` (exclusive), marking
    /// tentative entries dead until the first stable entry with
    /// `id <= target`.
    fn mark_dead_before(&mut self, upto: usize, target: TupleId) {
        for seg in self.segs.iter_mut().rev() {
            for li in (0..upto.saturating_sub(seg.start).min(seg.len())).rev() {
                let t = &seg.batch[li];
                if t.kind == TupleKind::Insertion && t.id <= target {
                    return;
                }
                if t.kind == TupleKind::Tentative {
                    seg.mark_dead(li);
                }
            }
        }
    }

    /// Drops the `k` oldest retained entries by releasing whole segments
    /// and narrowing the first survivor (range split, no copying). A
    /// released segment's last stable id is known; a narrowed one is read
    /// backward from the cut only.
    fn drop_front_entries(&mut self, mut k: usize) {
        while k > 0 {
            let Some(front) = self.segs.front_mut() else {
                return;
            };
            if let Some(id) = front.last_stable_before(front.len().min(k)) {
                self.dropped_stable_id = id;
            }
            if front.len() <= k {
                k -= front.len();
                self.base += front.len();
                self.retained -= front.len();
                self.segs.pop_front();
            } else {
                front.drop_front(k);
                self.base += k;
                self.retained -= k;
                k = 0;
            }
        }
    }

    /// Logical end position (total entries ever appended).
    pub fn end(&self) -> usize {
        self.base + self.retained
    }

    /// Entries currently buffered.
    pub fn len(&self) -> usize {
        self.retained
    }

    /// True if no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.retained == 0
    }

    /// Number of subscriptions that requested data older than the buffer
    /// holds (possible only with bounded buffers).
    pub fn truncation_misses(&self) -> u64 {
        self.truncation_misses
    }

    /// Live entries from logical position `pos` as O(1) shared batch views
    /// — the zero-copy replay path. Every returned batch shares its backing
    /// allocation with the buffer (and with every other replay cursor),
    /// so serving N subscribers costs N reference-count bumps, not N deep
    /// copies. The first segment is found by binary search over the segment
    /// starts: the cost is O(log segments + suffix segments), independent
    /// of how much log precedes `pos`.
    pub fn batches_from(&self, pos: usize) -> Vec<TupleBatch> {
        // Last segment starting at or before `pos` (the first retained one
        // when `pos` precedes the truncation horizon).
        let first = self
            .segs
            .partition_point(|s| s.start <= pos)
            .saturating_sub(1);
        let mut out = Vec::new();
        for seg in self.segs.range(first..) {
            #[cfg(test)]
            self.walked.set(self.walked.get() + 1);
            seg.push_live_runs(pos.saturating_sub(seg.start), &mut out);
        }
        out
    }

    /// The logical position just after the stable data tuple `id` — where a
    /// subscriber that already has the stable prefix through `id` should
    /// start replaying. If the buffer was truncated past `id`, replay
    /// starts at the earliest retained entry (and the miss is counted).
    ///
    /// Stable ids increase along the log, so the scan runs backward from
    /// the end and stops at the first stable entry at or before `id`: its
    /// cost is the suffix the subscriber is about to be sent, not the
    /// length of the log.
    pub fn position_after_stable(&mut self, id: TupleId) -> usize {
        if id <= self.dropped_stable_id {
            // Nothing at or before `id` is retained: the subscriber has no
            // prefix, is exactly at the truncation horizon, or misses what
            // was dropped beyond its prefix. Replay from what we hold.
            if id < self.dropped_stable_id {
                self.truncation_misses += 1;
            }
            return self.base;
        }
        // Everything before the found entry (interleaved boundaries and
        // undone tentatives included) was covered by the subscriber's prefix.
        for seg in self.segs.iter().rev() {
            #[cfg(test)]
            self.walked.set(self.walked.get() + 1);
            let hit = seg
                .batch
                .as_slice()
                .iter()
                .rposition(|t| t.is_stable_data() && t.id <= id);
            if let Some(li) = hit {
                return seg.start + li + 1;
            }
        }
        self.base
    }

    /// Drops every entry up to and including the last stable tuple with
    /// `id <= through` (cumulative-ack truncation, §8.1). Segments are
    /// released whole or narrowed by range split; batch views already
    /// handed out for replay keep their shared backing alive.
    ///
    /// Stable ids increase along the log, so a segment whose last stable id
    /// is covered by the ack is released by that id alone, and only the
    /// segment the ack ends in is read — up to its first stable entry
    /// beyond the ack.
    pub fn truncate_through(&mut self, through: TupleId) {
        // Logical position of the last stable entry with `id <= through`.
        let mut cut = None;
        for seg in &self.segs {
            let Some(last) = seg.last_stable else {
                continue;
            };
            if seg.batch[last].id <= through {
                cut = Some(seg.start + last);
                continue;
            }
            for (i, t) in seg.batch.iter().enumerate() {
                if t.is_stable_data() {
                    if t.id > through {
                        break;
                    }
                    cut = Some(seg.start + i);
                }
            }
            break;
        }
        if let Some(p) = cut {
            self.drop_front_entries(p + 1 - self.base);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::{Time, Value};

    fn stable(id: u64) -> Tuple {
        Tuple::insertion(
            TupleId(id),
            Time::from_millis(id),
            vec![Value::Int(id as i64)],
        )
    }

    fn tentative(id: u64) -> Tuple {
        Tuple::tentative(TupleId(id), Time::from_millis(id), vec![])
    }

    fn boundary(ms: u64) -> Tuple {
        Tuple::boundary(TupleId::NONE, Time::from_millis(ms))
    }

    /// What a subscriber resuming at `pos` is sent.
    fn replay(b: &OutputBuffer, pos: usize) -> Vec<Tuple> {
        let batches = b.batches_from(pos);
        batches.iter().flat_map(|c| c.iter().cloned()).collect()
    }

    #[test]
    fn append_and_replay_from_position() {
        let mut b = OutputBuffer::new(BufferPolicy::Unbounded);
        b.append(stable(1));
        b.append(boundary(10));
        b.append(stable(2));
        let pos = b.position_after_stable(TupleId(1));
        let rest = replay(&b, pos);
        assert_eq!(rest, vec![boundary(10), stable(2)]);
    }

    #[test]
    fn replay_from_none_returns_everything() {
        let mut b = OutputBuffer::new(BufferPolicy::Unbounded);
        b.append(stable(1));
        b.append(stable(2));
        let pos = b.position_after_stable(TupleId::NONE);
        assert_eq!(replay(&b, pos).len(), 2);
    }

    #[test]
    fn replay_skips_undone_tentative_history() {
        let mut b = OutputBuffer::new(BufferPolicy::Unbounded);
        b.append(stable(1));
        b.append(tentative(2));
        b.append(Tuple::undo(TupleId::NONE, TupleId(1)));
        b.append(stable(2));
        let pos = b.position_after_stable(TupleId(1));
        let rest: Vec<TupleKind> = replay(&b, pos).iter().map(|t| t.kind).collect();
        // The rolled-back tentative tuple is dead history: a new subscriber
        // gets the undo (harmless) and the corrections only.
        assert_eq!(rest, vec![TupleKind::Undo, TupleKind::Insertion]);
    }

    #[test]
    fn undo_inside_one_appended_batch_kills_earlier_tentatives() {
        let mut b = OutputBuffer::new(BufferPolicy::Unbounded);
        b.append_batch(TupleBatch::from_vec(vec![
            stable(1),
            tentative(2),
            tentative(3),
            Tuple::undo(TupleId::NONE, TupleId(1)),
            stable(2),
        ]));
        let pos = b.position_after_stable(TupleId(1));
        let rest: Vec<TupleKind> = replay(&b, pos).iter().map(|t| t.kind).collect();
        assert_eq!(rest, vec![TupleKind::Undo, TupleKind::Insertion]);
        let batches = b.batches_from(pos);
        let kinds: Vec<TupleKind> = batches
            .iter()
            .flat_map(|c| c.iter().map(|t| t.kind))
            .collect();
        assert_eq!(kinds, vec![TupleKind::Undo, TupleKind::Insertion]);
    }

    #[test]
    fn live_tentative_suffix_still_replays() {
        let mut b = OutputBuffer::new(BufferPolicy::Unbounded);
        b.append(stable(1));
        b.append(tentative(2));
        b.append(tentative(3));
        let pos = b.position_after_stable(TupleId(1));
        assert_eq!(replay(&b, pos).len(), 2, "uncorrected suffix replays");
    }

    #[test]
    fn truncation_drops_prefix_and_tracks_base() {
        let mut b = OutputBuffer::new(BufferPolicy::Unbounded);
        for i in 1..=5 {
            b.append(stable(i));
        }
        b.truncate_through(TupleId(3));
        assert_eq!(b.len(), 2);
        assert_eq!(b.end(), 5);
        let pos = b.position_after_stable(TupleId(4));
        let rest: Vec<_> = replay(&b, pos).iter().map(|t| t.id.0).collect();
        assert_eq!(rest, vec![5]);
    }

    #[test]
    fn truncated_past_subscriber_counts_miss() {
        let mut b = OutputBuffer::new(BufferPolicy::Unbounded);
        for i in 1..=5 {
            b.append(stable(i));
        }
        b.truncate_through(TupleId(4));
        // Subscriber only has tuple 1; tuples 2-4 are gone.
        let pos = b.position_after_stable(TupleId(1));
        assert_eq!(pos, b.end() - 1, "replay starts at earliest retained");
        assert_eq!(b.truncation_misses(), 1);
    }

    #[test]
    fn bounded_buffer_evicts_oldest() {
        let mut b = OutputBuffer::new(BufferPolicy::DropOldest(3));
        for i in 1..=10 {
            b.append(stable(i));
        }
        assert_eq!(b.len(), 3);
        let all: Vec<u64> = replay(&b, 0).iter().map(|t| t.id.0).collect();
        assert_eq!(all, vec![8, 9, 10]);
    }

    #[test]
    fn truncate_keeps_interleaved_metadata_after_point() {
        let mut b = OutputBuffer::new(BufferPolicy::Unbounded);
        b.append(stable(1));
        b.append(boundary(5));
        b.append(stable(2));
        b.append(boundary(15));
        b.truncate_through(TupleId(1));
        let rest: Vec<TupleKind> = replay(&b, b.end() - b.len())
            .iter()
            .map(|t| t.kind)
            .collect();
        // The boundary directly after stable 1 is retained: a subscriber
        // resuming after stable 1 still needs that watermark.
        assert_eq!(
            rest,
            vec![
                TupleKind::Boundary,
                TupleKind::Insertion,
                TupleKind::Boundary
            ]
        );
    }

    // ------------------------------------------------------------------
    // Shared-ownership semantics: retention, replay, and ack truncation
    // must never copy or invalidate tuples another cursor references.
    // ------------------------------------------------------------------

    #[test]
    fn retention_and_replay_share_the_emitted_allocation() {
        let mut b = OutputBuffer::new(BufferPolicy::Unbounded);
        let emitted = TupleBatch::from_vec((1..=4).map(stable).collect());
        b.append_batch(emitted.clone());

        // Two subscribers at different positions: both replays are views of
        // the emitted batch — zero tuple copies for either.
        let fast_pos = b.position_after_stable(TupleId(3));
        let slow_pos = b.position_after_stable(TupleId::NONE);
        let fast = b.batches_from(fast_pos);
        let slow = b.batches_from(slow_pos);
        assert_eq!(fast.len(), 1);
        assert_eq!(slow.len(), 1);
        assert!(fast[0].shares_backing(&emitted));
        assert!(slow[0].shares_backing(&emitted));
        assert_eq!(fast[0].iter().map(|t| t.id.0).collect::<Vec<_>>(), vec![4]);
        assert_eq!(slow[0].len(), 4);
    }

    #[test]
    fn ack_mid_batch_splits_ranges_without_touching_shared_views() {
        let mut b = OutputBuffer::new(BufferPolicy::Unbounded);
        let emitted = TupleBatch::from_vec((1..=6).map(stable).collect());
        b.append_batch(emitted.clone());

        // A slow subscriber's replay cursor took its views first.
        let slow_pos = b.position_after_stable(TupleId::NONE);
        let slow_view = b.batches_from(slow_pos);
        assert_eq!(slow_view[0].len(), 6);

        // Ack lands mid-batch: the buffer narrows its segment by range
        // split rather than draining tuples.
        b.truncate_through(TupleId(4));
        assert_eq!(b.len(), 2);
        assert_eq!(b.end(), 6);

        // The slow subscriber's already-taken views are intact: same
        // tuples, same values, still backed by the original allocation.
        assert_eq!(
            slow_view[0].iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5, 6],
            "ack truncation must not mutate shared replay views"
        );
        assert!(slow_view[0].shares_backing(&emitted));
        assert_eq!(*slow_view[0][0].values, [Value::Int(1)]);

        // And the buffer's own retained suffix still shares that backing
        // (narrowed view, not a copy).
        let rest = b.batches_from(b.end() - b.len());
        assert_eq!(rest.len(), 1);
        assert!(rest[0].shares_backing(&emitted));
        assert_eq!(
            rest[0].iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![5, 6]
        );
    }

    #[test]
    fn ack_from_one_subscriber_leaves_other_cursor_replayable() {
        // Two replicas subscribe; replica A acks through 5, but replica B
        // is still at 2. Truncation follows the *minimum* ack (computed by
        // the node), so position_after_stable for B must stay serviceable —
        // and if an over-eager ack did truncate past B, the miss is counted
        // rather than handing B corrupted data.
        let mut b = OutputBuffer::new(BufferPolicy::Unbounded);
        b.append_batch(TupleBatch::from_vec((1..=6).map(stable).collect()));

        // Min-ack truncation (B's position): nothing before 2 is needed.
        b.truncate_through(TupleId(2));
        let pos_b = b.position_after_stable(TupleId(2));
        let replay_b: Vec<u64> = b
            .batches_from(pos_b)
            .iter()
            .flat_map(|c| c.iter().map(|t| t.id.0))
            .collect();
        assert_eq!(replay_b, vec![3, 4, 5, 6]);
        assert_eq!(b.truncation_misses(), 0);

        // Once every subscriber acked through 5, truncation narrows
        // further; B resumes exactly at its ack with no miss.
        b.truncate_through(TupleId(5));
        let pos_b = b.position_after_stable(TupleId(5));
        let replay_b: Vec<u64> = b
            .batches_from(pos_b)
            .iter()
            .flat_map(|c| c.iter().map(|t| t.id.0))
            .collect();
        assert_eq!(
            replay_b,
            vec![6],
            "entries at/before the min ack were split off"
        );
        assert_eq!(b.truncation_misses(), 0);

        // A subscriber genuinely behind the horizon (ack 4 < dropped 5) is
        // detected as a miss instead of being handed corrupted data.
        let pos_late = b.position_after_stable(TupleId(4));
        assert_eq!(pos_late, b.end() - b.len(), "resume at earliest retained");
        assert_eq!(b.truncation_misses(), 1);
    }

    #[test]
    fn dead_marking_never_mutates_shared_tuples() {
        let mut b = OutputBuffer::new(BufferPolicy::Unbounded);
        let emitted = TupleBatch::from_vec(vec![stable(1), tentative(2), tentative(3)]);
        b.append_batch(emitted.clone());
        // A subscriber took the tentative suffix before the rollback.
        let view_pos = b.position_after_stable(TupleId(1));
        let view = b.batches_from(view_pos);
        b.append(Tuple::undo(TupleId::NONE, TupleId(1)));

        // The buffer's replay now skips the dead tentatives...
        let after_pos = b.position_after_stable(TupleId(1));
        let after: Vec<TupleKind> = b
            .batches_from(after_pos)
            .iter()
            .flat_map(|c| c.iter().map(|t| t.kind))
            .collect();
        assert_eq!(after, vec![TupleKind::Undo]);

        // ...but the earlier view still sees the original, unmutated tuples
        // (its consumer will roll them back via the UNDO it receives).
        let kinds: Vec<TupleKind> = view.iter().flat_map(|c| c.iter().map(|t| t.kind)).collect();
        assert_eq!(kinds, vec![TupleKind::Tentative, TupleKind::Tentative]);
        assert!(view[0].shares_backing(&emitted));
    }

    #[test]
    fn bounded_eviction_splits_segments_by_range() {
        let mut b = OutputBuffer::new(BufferPolicy::DropOldest(4));
        let first = TupleBatch::from_vec((1..=6).map(stable).collect());
        b.append_batch(first.clone());
        assert_eq!(b.len(), 4, "evicted down to the bound");
        let kept = b.batches_from(b.end() - b.len());
        assert!(kept[0].shares_backing(&first), "narrowed, not copied");
        assert_eq!(
            kept[0].iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );

        b.append_batch(TupleBatch::from_vec((7..=8).map(stable).collect()));
        assert_eq!(b.len(), 4);
        let all: Vec<u64> = b
            .batches_from(b.end() - b.len())
            .iter()
            .flat_map(|c| c.iter().map(|t| t.id.0))
            .collect();
        assert_eq!(all, vec![5, 6, 7, 8]);
    }

    /// A naive reference of the buffer's front: every appended entry, how
    /// many are gone, and the highest stable id among those.
    struct Model {
        log: Vec<Tuple>,
        base: usize,
        dropped: TupleId,
    }

    impl Model {
        fn drop_front(&mut self, k: usize) {
            for t in &self.log[self.base..self.base + k] {
                if t.is_stable_data() {
                    self.dropped = self.dropped.max(t.id);
                }
            }
            self.base += k;
        }

        /// Up to the last stable entry at or below `through`, scanning from
        /// the front until a stable entry beyond it.
        fn truncate_through(&mut self, through: TupleId) {
            let mut last = None;
            for (i, t) in self.log[self.base..].iter().enumerate() {
                if t.is_stable_data() {
                    if t.id > through {
                        break;
                    }
                    last = Some(i);
                }
            }
            if let Some(i) = last {
                self.drop_front(i + 1);
            }
        }
    }

    #[test]
    fn truncation_matches_a_naive_scan_over_random_logs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7A11);
        for case in 0..300 {
            let policy = match rng.gen_range(0u32..3) {
                0 => BufferPolicy::DropOldest(rng.gen_range(1usize..40)),
                _ => BufferPolicy::Unbounded,
            };
            let mut b = OutputBuffer::new(policy);
            let mut m = Model {
                log: Vec::new(),
                base: 0,
                dropped: TupleId::NONE,
            };
            let (mut next, mut last_stable) = (1u64, TupleId::NONE);
            for step in 0..40 {
                if rng.gen_range(0u32..3) == 0 {
                    // Acks may lag, repeat, or run ahead of what was sent.
                    let through = TupleId(rng.gen_range(0..next + 3));
                    b.truncate_through(through);
                    m.truncate_through(through);
                } else {
                    let batch: Vec<Tuple> = (0..rng.gen_range(1usize..8))
                        .map(|_| match rng.gen_range(0u32..10) {
                            0 | 1 => boundary(next),
                            2 | 3 => tentative(next + 1000),
                            4 => Tuple::undo(TupleId::NONE, last_stable),
                            _ => {
                                last_stable = TupleId(next);
                                next += 1;
                                stable(last_stable.0)
                            }
                        })
                        .collect();
                    m.log.extend(batch.iter().cloned());
                    b.append_batch(TupleBatch::from_vec(batch));
                    if let BufferPolicy::DropOldest(max) = policy {
                        let excess = (m.log.len() - m.base).saturating_sub(max);
                        m.drop_front(excess);
                    }
                }
                let retained: Vec<Tuple> = b
                    .segs
                    .iter()
                    .flat_map(|seg| seg.batch.iter().cloned())
                    .collect();
                let at = format!("case {case}, step {step}");
                assert_eq!(retained, m.log[m.base..], "{at}: retained entries");
                assert_eq!((b.base, b.end()), (m.base, m.log.len()), "{at}");
                assert_eq!(b.dropped_stable_id, m.dropped, "{at}: dropped horizon");
            }
        }
    }
}
