//! SJoin: the DPC-modified Join operator (§3).
//!
//! A Borealis Join matches tuples from two streams whose stimes fall within
//! a window of each other (§2.1). Under DPC every Join is preceded by an
//! SUnion that serializes its two input streams into one deterministic
//! sequence; the Join is "slightly modified to always process input tuples
//! in the order prepared by the preceding SUnion" (§3) — that modified
//! operator is SJoin.
//!
//! SJoin therefore has a *single* input port carrying the SUnion's merged
//! stream; the `origin` tag on each tuple identifies the logical side
//! (0 = left, 1 = right).

use crate::snapshot::SnapshotCodec;
use crate::{BatchEmitter, OpSnapshot, Operator};
use borealis_types::wire_struct;
use borealis_types::{Duration, Expr, Payload, Time, Tuple, TupleBatch, TupleId, TupleKind, Value};
use std::collections::VecDeque;
use std::sync::Arc;

/// Static configuration of an [`SJoin`].
#[derive(Debug, Clone)]
pub struct SJoinSpec {
    /// Maximum stime distance between matching tuples.
    pub window: Duration,
    /// Key expression evaluated on left-side tuples.
    pub left_key: Expr,
    /// Key expression evaluated on right-side tuples.
    pub right_key: Expr,
    /// Maximum number of tuples retained per side (the paper's experiments
    /// use an SJoin "with a 100-tuple state size"). `None` keeps every tuple
    /// within the time window.
    pub max_state: Option<usize>,
    /// Tuples whose `origin` tag is below this value belong to the left
    /// side. The preceding SUnion tags tuples with their input-port index,
    /// so an SUnion over `k` streams can feed a join of its first
    /// `left_split` streams against the rest.
    pub left_split: u16,
}

wire_struct! {
    #[derive(Clone)]
    struct SJoinState {
        left: VecDeque<(Value, Tuple)>,
        right: VecDeque<(Value, Tuple)>,
        next_id: u64,
    }
}

/// The serialized, windowed equi-join.
pub struct SJoin {
    spec: SJoinSpec,
    /// Copy-on-write state: checkpoints share this `Arc` (see
    /// [`crate::snapshot`] for the contract).
    state: Arc<SJoinState>,
}

impl SJoin {
    /// Builds an SJoin from its spec.
    pub fn new(spec: SJoinSpec) -> SJoin {
        SJoin {
            spec,
            state: Arc::new(SJoinState {
                left: VecDeque::new(),
                right: VecDeque::new(),
                next_id: 1,
            }),
        }
    }

    /// Current buffered state size (both sides), for tests and buffer
    /// accounting.
    pub fn state_size(&self) -> usize {
        self.state.left.len() + self.state.right.len()
    }

    /// Drops buffered tuples that can no longer match anything at or after
    /// `frontier` (input is stime-ordered downstream of SUnion).
    fn evict_before(&mut self, frontier: Time) {
        let horizon = Time(
            frontier
                .as_micros()
                .saturating_sub(self.spec.window.as_micros()),
        );
        let needs_evict =
            |side: &VecDeque<(Value, Tuple)>| side.front().is_some_and(|(_, t)| t.stime < horizon);
        // Probe before make_mut: a no-op eviction must not force the
        // copy-on-write divergence of a checkpointed state.
        if !needs_evict(&self.state.left) && !needs_evict(&self.state.right) {
            return;
        }
        let st = Arc::make_mut(&mut self.state);
        while st.left.front().is_some_and(|(_, t)| t.stime < horizon) {
            st.left.pop_front();
        }
        while st.right.front().is_some_and(|(_, t)| t.stime < horizon) {
            st.right.pop_front();
        }
    }

    fn handle_data(&mut self, tuple: &Tuple, out: &mut BatchEmitter) {
        self.evict_before(tuple.stime);
        let is_left = tuple.origin < self.spec.left_split;
        let key_expr = if is_left {
            &self.spec.left_key
        } else {
            &self.spec.right_key
        };
        let key = match key_expr.eval(tuple) {
            Ok(k) => k,
            Err(_) => return, // deterministic drop on evaluation error
        };
        let window = self.spec.window;
        let st = Arc::make_mut(&mut self.state);
        // Match against the opposite side, in its arrival order.
        let opposite = if is_left { &st.right } else { &st.left };
        let mut matches: Vec<Tuple> = Vec::new();
        let mut next_id = st.next_id;
        for (other_key, other) in opposite {
            if *other_key != key {
                continue;
            }
            let gap = if other.stime > tuple.stime {
                other.stime - tuple.stime
            } else {
                tuple.stime - other.stime
            };
            if gap > window {
                continue;
            }
            let (l, r) = if is_left {
                (tuple, other)
            } else {
                (other, tuple)
            };
            // Exact-size chain: collected straight into the one payload
            // allocation, or inline when it is one attribute wide.
            let values: Payload = l.values.iter().chain(r.values.iter()).cloned().collect();
            let stime = l.stime.max(r.stime);
            let tentative = l.is_tentative() || r.is_tentative();
            let id = TupleId(next_id);
            next_id += 1;
            matches.push(if tentative {
                Tuple::tentative(id, stime, values)
            } else {
                Tuple::insertion(id, stime, values)
            });
        }
        st.next_id = next_id;
        for m in matches {
            out.push(m);
        }
        // Store this tuple for future matches.
        let side = if is_left { &mut st.left } else { &mut st.right };
        side.push_back((key, tuple.clone()));
        if let Some(max) = self.spec.max_state {
            while side.len() > max {
                side.pop_front();
            }
        }
    }

    /// One tuple, in the serialized order the upstream SUnion fixed.
    fn step(&mut self, tuple: &Tuple, out: &mut BatchEmitter) {
        match tuple.kind {
            TupleKind::Insertion | TupleKind::Tentative => self.handle_data(tuple, out),
            TupleKind::Boundary => {
                self.evict_before(tuple.stime);
                out.push(tuple.clone());
            }
            TupleKind::Undo | TupleKind::RecDone => out.push(tuple.clone()),
        }
    }
}

impl Operator for SJoin {
    fn process_batch(&mut self, _: usize, batch: &TupleBatch, _: Time, out: &mut BatchEmitter) {
        for t in batch.as_slice() {
            self.step(t, out);
        }
    }

    fn checkpoint(&self) -> OpSnapshot {
        OpSnapshot::share(&self.state)
    }

    fn restore(&mut self, snap: &OpSnapshot) {
        self.state = snap.shared::<SJoinState>();
    }

    fn snapshot_codec(&self) -> SnapshotCodec {
        SnapshotCodec::of::<SJoinState>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(window_ms: u64) -> SJoinSpec {
        SJoinSpec {
            window: Duration::from_millis(window_ms),
            left_key: Expr::field(0),
            right_key: Expr::field(0),
            max_state: None,
            left_split: 1,
        }
    }

    fn side(origin: u16, id: u64, ms: u64, key: i64, payload: i64) -> Tuple {
        let mut t = Tuple::insertion(
            TupleId(id),
            Time::from_millis(ms),
            vec![Value::Int(key), Value::Int(payload)],
        );
        t.origin = origin;
        t
    }

    #[test]
    fn joins_matching_keys_within_window() {
        let mut j = SJoin::new(spec(50));
        let mut out = BatchEmitter::new();
        j.process(0, &side(0, 1, 100, 7, 11), Time::ZERO, &mut out);
        j.process(0, &side(1, 1, 120, 7, 22), Time::ZERO, &mut out);
        assert_eq!(out.tuples().len(), 1);
        let m = &out.tuples()[0];
        assert_eq!(
            *m.values,
            [
                Value::Int(7),
                Value::Int(11), // left
                Value::Int(7),
                Value::Int(22), // right
            ]
        );
        assert_eq!(m.stime, Time::from_millis(120));
        assert_eq!(m.kind, TupleKind::Insertion);
    }

    #[test]
    fn no_match_outside_window_or_key() {
        let mut j = SJoin::new(spec(50));
        let mut out = BatchEmitter::new();
        j.process(0, &side(0, 1, 100, 7, 0), Time::ZERO, &mut out);
        // Wrong key.
        j.process(0, &side(1, 2, 110, 8, 0), Time::ZERO, &mut out);
        // Right key but too far in time.
        j.process(0, &side(1, 3, 200, 7, 0), Time::ZERO, &mut out);
        assert!(out.tuples().is_empty());
    }

    #[test]
    fn tentative_inputs_make_tentative_outputs() {
        let mut j = SJoin::new(spec(50));
        let mut out = BatchEmitter::new();
        j.process(0, &side(0, 1, 100, 1, 0), Time::ZERO, &mut out);
        let mut t = side(1, 2, 110, 1, 0).as_tentative();
        t.origin = 1;
        j.process(0, &t, Time::ZERO, &mut out);
        assert_eq!(out.tuples()[0].kind, TupleKind::Tentative);
    }

    #[test]
    fn eviction_keeps_state_bounded_by_window() {
        let mut j = SJoin::new(spec(50));
        let mut out = BatchEmitter::new();
        j.process(0, &side(0, 1, 0, 1, 0), Time::ZERO, &mut out);
        j.process(0, &side(0, 2, 10, 1, 0), Time::ZERO, &mut out);
        assert_eq!(j.state_size(), 2);
        // A tuple far in the future evicts both (they can't match anymore).
        j.process(0, &side(1, 3, 500, 1, 0), Time::ZERO, &mut out);
        assert!(out.tuples().is_empty());
        assert_eq!(j.state_size(), 1);
    }

    #[test]
    fn max_state_caps_each_side() {
        let mut j = SJoin::new(SJoinSpec {
            max_state: Some(2),
            ..spec(10_000)
        });
        let mut out = BatchEmitter::new();
        for i in 0..5 {
            j.process(0, &side(0, i, 100 + i, i as i64, 0), Time::ZERO, &mut out);
        }
        assert_eq!(j.state_size(), 2);
    }

    #[test]
    fn boundary_forwards_and_evicts() {
        let mut j = SJoin::new(spec(50));
        let mut out = BatchEmitter::new();
        j.process(0, &side(0, 1, 0, 1, 0), Time::ZERO, &mut out);
        j.process(
            0,
            &Tuple::boundary(TupleId::NONE, Time::from_millis(200)),
            Time::ZERO,
            &mut out,
        );
        assert_eq!(out.tuples().len(), 1);
        assert_eq!(out.tuples()[0].kind, TupleKind::Boundary);
        assert_eq!(j.state_size(), 0);
    }

    #[test]
    fn checkpoint_restore_replays_identically() {
        let mut j = SJoin::new(spec(50));
        let mut out = BatchEmitter::new();
        j.process(0, &side(0, 1, 100, 1, 5), Time::ZERO, &mut out);
        let snap = j.checkpoint();
        j.process(0, &side(1, 2, 110, 1, 6), Time::ZERO, &mut out);
        let first = out.take_tuples().0;
        j.restore(&snap);
        let mut out2 = BatchEmitter::new();
        j.process(0, &side(1, 2, 110, 1, 6), Time::ZERO, &mut out2);
        assert_eq!(first, out2.tuples());
    }
}
