//! Aggregate: computes aggregate functions over sliding windows of data
//! (§2.1), possibly grouping tuples first.
//!
//! Windows are aligned to multiples of the slide from time zero — the
//! paper's *independent-window-alignment* requirement (§2.1), which keeps
//! window boundaries independent of the first tuple processed and therefore
//! keeps the operator deterministic across replicas.
//!
//! Window closing has two paths, mirroring DPC's two operating regimes:
//!
//! * **Stable close** — a boundary tuple with stime `W` closes every window
//!   ending at or before `W`; outputs are stable (unless the window absorbed
//!   tentative data).
//! * **Tentative close** — during failures boundaries stop flowing (upstream
//!   SUnions do not produce tentative boundaries), so a *tentative* data
//!   tuple with stime `s` closes windows ending at or before `s`. This is
//!   sound because SUnion emits tuples in stime order; the results are
//!   labelled tentative and corrected during reconciliation.

use crate::snapshot::SnapshotCodec;
use crate::{BatchEmitter, OpSnapshot, Operator};
use borealis_types::{wire_enum, wire_struct};
use borealis_types::{Duration, Expr, Payload, Time, Tuple, TupleBatch, TupleId, TupleKind, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The aggregate functions supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFnKind {
    /// Number of tuples in the window.
    Count,
    /// Sum of the input expression.
    Sum,
    /// Arithmetic mean of the input expression.
    Avg,
    /// Minimum of the input expression (by canonical value order).
    Min,
    /// Maximum of the input expression.
    Max,
}

/// One aggregate column: a function applied to an expression.
#[derive(Debug, Clone)]
pub struct AggFn {
    /// Which function.
    pub kind: AggFnKind,
    /// Input expression (ignored by `Count`).
    pub input: Expr,
}

impl AggFn {
    /// `COUNT(*)`.
    pub fn count() -> AggFn {
        AggFn {
            kind: AggFnKind::Count,
            input: Expr::int(0),
        }
    }
    /// `SUM(input)`.
    pub fn sum(input: Expr) -> AggFn {
        AggFn {
            kind: AggFnKind::Sum,
            input,
        }
    }
    /// `AVG(input)`.
    pub fn avg(input: Expr) -> AggFn {
        AggFn {
            kind: AggFnKind::Avg,
            input,
        }
    }
    /// `MIN(input)`.
    pub fn min(input: Expr) -> AggFn {
        AggFn {
            kind: AggFnKind::Min,
            input,
        }
    }
    /// `MAX(input)`.
    pub fn max(input: Expr) -> AggFn {
        AggFn {
            kind: AggFnKind::Max,
            input,
        }
    }
}

/// Static configuration of an [`Aggregate`].
#[derive(Debug, Clone)]
pub struct AggregateSpec {
    /// Window length.
    pub window: Duration,
    /// Distance between consecutive window starts; `slide == window` gives
    /// tumbling windows.
    pub slide: Duration,
    /// Grouping expressions (empty for a single global group).
    pub group_by: Vec<Expr>,
    /// Aggregate columns.
    pub aggs: Vec<AggFn>,
}

/// Per-aggregate-column accumulator.
#[derive(Debug, Clone)]
enum Accum {
    Count(u64),
    SumInt(i64),
    SumFloat(f64),
    Avg { sum: f64, count: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Accum {
    fn new(kind: AggFnKind) -> Accum {
        match kind {
            AggFnKind::Count => Accum::Count(0),
            AggFnKind::Sum => Accum::SumInt(0),
            AggFnKind::Avg => Accum::Avg { sum: 0.0, count: 0 },
            AggFnKind::Min => Accum::Min(None),
            AggFnKind::Max => Accum::Max(None),
        }
    }

    fn update(&mut self, v: &Value) {
        match self {
            Accum::Count(c) => *c += 1,
            Accum::SumInt(s) => match v {
                Value::Int(i) => *s = s.wrapping_add(*i),
                other => {
                    // Promote to float on the first non-integer input.
                    let f = *s as f64 + other.as_f64().unwrap_or(0.0);
                    *self = Accum::SumFloat(f);
                }
            },
            Accum::SumFloat(s) => *s += v.as_f64().unwrap_or(0.0),
            Accum::Avg { sum, count } => {
                *sum += v.as_f64().unwrap_or(0.0);
                *count += 1;
            }
            Accum::Min(m) => {
                if m.as_ref().is_none_or(|cur| v < cur) {
                    *m = Some(v.clone());
                }
            }
            Accum::Max(m) => {
                if m.as_ref().is_none_or(|cur| v > cur) {
                    *m = Some(v.clone());
                }
            }
        }
    }

    fn finish(&self) -> Value {
        match self {
            Accum::Count(c) => Value::Int(*c as i64),
            Accum::SumInt(s) => Value::Int(*s),
            Accum::SumFloat(s) => Value::Float(*s),
            Accum::Avg { sum, count } => Value::Float(if *count == 0 {
                0.0
            } else {
                sum / *count as f64
            }),
            Accum::Min(m) | Accum::Max(m) => m.clone().unwrap_or(Value::Int(0)),
        }
    }
}

wire_enum!(Accum, "accum", {
    Count(n) = 0,
    SumInt(sum) = 1,
    SumFloat(sum) = 2,
    Avg { sum, count } = 3,
    Min(least) = 4,
    Max(greatest) = 5,
});

wire_struct! {
    #[derive(Debug, Clone)]
    struct WindowState {
        accums: Vec<Accum>,
        saw_tentative: bool,
    }
}

/// Key ordering `(window_start_micros, group_values)` makes stable emission
/// order deterministic across replicas.
type WindowKey = (u64, Vec<Value>);

wire_struct! {
    #[derive(Clone)]
    struct AggState {
        windows: BTreeMap<WindowKey, WindowState>,
        /// Highest boundary stime seen (stable close frontier).
        stable_wm: Option<Time>,
        /// Output id generator.
        next_id: u64,
    }
}

/// The windowed, grouped aggregate operator.
pub struct Aggregate {
    spec: AggregateSpec,
    /// Copy-on-write state: checkpoints share this `Arc` (see
    /// [`crate::snapshot`] for the contract).
    state: Arc<AggState>,
}

impl Aggregate {
    /// Builds an aggregate from its spec.
    ///
    /// # Panics
    /// Panics if the window or slide is zero, or if no aggregate columns are
    /// configured — all construction-time configuration errors.
    pub fn new(spec: AggregateSpec) -> Aggregate {
        assert!(spec.window.as_micros() > 0, "window must be positive");
        assert!(spec.slide.as_micros() > 0, "slide must be positive");
        assert!(!spec.aggs.is_empty(), "aggregate needs at least one column");
        Aggregate {
            spec,
            state: Arc::new(AggState {
                windows: BTreeMap::new(),
                stable_wm: None,
                next_id: 1,
            }),
        }
    }

    /// Window starts (aligned to the slide grid) whose window contains `s`.
    fn window_starts(&self, s: Time) -> Vec<u64> {
        let slide = self.spec.slide.as_micros();
        let size = self.spec.window.as_micros();
        let s = s.as_micros();
        let last = (s / slide) * slide;
        let mut starts = Vec::new();
        let mut w = last;
        loop {
            if w + size > s {
                starts.push(w);
            } else {
                break;
            }
            if w < slide {
                break;
            }
            w -= slide;
        }
        starts.reverse();
        starts
    }

    fn add_tuple(&mut self, tuple: &Tuple) {
        let key: Vec<Value> = self
            .spec
            .group_by
            .iter()
            .map(|e| e.eval(tuple).unwrap_or(Value::Int(0)))
            .collect();
        let tentative = tuple.is_tentative();
        for w in self.window_starts(tuple.stime) {
            let st = Arc::make_mut(&mut self.state);
            let entry = st
                .windows
                .entry((w, key.clone()))
                .or_insert_with(|| WindowState {
                    accums: self.spec.aggs.iter().map(|a| Accum::new(a.kind)).collect(),
                    saw_tentative: false,
                });
            entry.saw_tentative |= tentative;
            for (acc, agg) in entry.accums.iter_mut().zip(&self.spec.aggs) {
                let v = agg.input.eval(tuple).unwrap_or(Value::Int(0));
                acc.update(&v);
            }
        }
    }

    /// Closes every window ending at or before `frontier`. `stable` selects
    /// the output label for windows without tentative content.
    fn close_through(&mut self, frontier: Time, stable: bool, out: &mut BatchEmitter) {
        let size = self.spec.window.as_micros();
        let cutoff = frontier.as_micros();
        // BTreeMap iterates keys in (window_start, group) order: the
        // deterministic emission order the paper requires.
        let closed: Vec<WindowKey> = self
            .state
            .windows
            .keys()
            .take_while(|(w, _)| w + size <= cutoff)
            .cloned()
            .collect();
        for key in closed {
            let st = Arc::make_mut(&mut self.state);
            let win = st.windows.remove(&key).expect("window key just listed");
            let (start, group) = key;
            // Exact-size chain: collected straight into the one payload
            // allocation, or inline when it is one attribute wide.
            let values: Payload = group
                .into_iter()
                .chain(win.accums.iter().map(Accum::finish))
                .collect();
            let end = Time(start + size);
            let id = TupleId(st.next_id);
            st.next_id += 1;
            let t = if stable && !win.saw_tentative {
                Tuple::insertion(id, end, values)
            } else {
                Tuple::tentative(id, end, values)
            };
            out.push(t);
        }
    }

    /// One tuple, in stream order: data joins its windows, a boundary (or
    /// tentative data, once boundaries have stopped) closes overdue ones.
    fn step(&mut self, tuple: &Tuple, out: &mut BatchEmitter) {
        match tuple.kind {
            TupleKind::Insertion => self.add_tuple(tuple),
            TupleKind::Tentative => {
                // Tentative data also closes overdue windows: boundaries have
                // stopped, and SUnion's emission order guarantees stime order.
                self.close_through(tuple.stime, false, out);
                self.add_tuple(tuple);
            }
            TupleKind::Boundary => {
                let advanced = self.state.stable_wm.is_none_or(|w| tuple.stime > w);
                if advanced {
                    Arc::make_mut(&mut self.state).stable_wm = Some(tuple.stime);
                    self.close_through(tuple.stime, true, out);
                    out.push(Tuple::boundary(TupleId::NONE, tuple.stime));
                }
            }
            TupleKind::Undo | TupleKind::RecDone => out.push(tuple.clone()),
        }
    }
}

impl Operator for Aggregate {
    fn process_batch(&mut self, _: usize, batch: &TupleBatch, _: Time, out: &mut BatchEmitter) {
        for t in batch.as_slice() {
            self.step(t, out);
        }
    }

    fn checkpoint(&self) -> OpSnapshot {
        OpSnapshot::share(&self.state)
    }

    fn restore(&mut self, snap: &OpSnapshot) {
        self.state = snap.shared::<AggState>();
    }

    fn snapshot_codec(&self) -> SnapshotCodec {
        SnapshotCodec::of::<AggState>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_tumbling(ms: u64) -> AggregateSpec {
        AggregateSpec {
            window: Duration::from_millis(ms),
            slide: Duration::from_millis(ms),
            group_by: vec![],
            aggs: vec![AggFn::count(), AggFn::sum(Expr::field(0))],
        }
    }

    fn data(id: u64, ms: u64, v: i64) -> Tuple {
        Tuple::insertion(TupleId(id), Time::from_millis(ms), vec![Value::Int(v)])
    }

    fn boundary(ms: u64) -> Tuple {
        Tuple::boundary(TupleId::NONE, Time::from_millis(ms))
    }

    #[test]
    fn tumbling_window_closes_on_boundary() {
        let mut a = Aggregate::new(spec_tumbling(100));
        let mut out = BatchEmitter::new();
        a.process(0, &data(1, 10, 5), Time::ZERO, &mut out);
        a.process(0, &data(2, 60, 7), Time::ZERO, &mut out);
        assert!(out.tuples().is_empty(), "window still open");
        a.process(0, &boundary(100), Time::ZERO, &mut out);
        // One aggregate tuple + the forwarded boundary.
        assert_eq!(out.tuples().len(), 2);
        let agg = &out.tuples()[0];
        assert_eq!(agg.kind, TupleKind::Insertion);
        assert_eq!(agg.stime, Time::from_millis(100));
        assert_eq!(*agg.values, [Value::Int(2), Value::Int(12)]);
        assert_eq!(out.tuples()[1].kind, TupleKind::Boundary);
    }

    #[test]
    fn sliding_windows_assign_tuples_to_all_covering_windows() {
        let mut a = Aggregate::new(AggregateSpec {
            window: Duration::from_millis(100),
            slide: Duration::from_millis(50),
            group_by: vec![],
            aggs: vec![AggFn::count()],
        });
        let mut out = BatchEmitter::new();
        // stime 60 is covered by windows [0,100) and [50,150).
        a.process(0, &data(1, 60, 0), Time::ZERO, &mut out);
        assert_eq!(a.state.windows.len(), 2);
        a.process(0, &boundary(150), Time::ZERO, &mut out);
        let counts: Vec<_> = out
            .tuples()
            .iter()
            .filter(|t| t.is_data())
            .map(|t| (t.stime.as_millis(), t.values[0].clone()))
            .collect();
        assert_eq!(counts, vec![(100, Value::Int(1)), (150, Value::Int(1))]);
    }

    #[test]
    fn group_by_produces_one_tuple_per_group_in_order() {
        let mut a = Aggregate::new(AggregateSpec {
            window: Duration::from_millis(100),
            slide: Duration::from_millis(100),
            group_by: vec![Expr::field(0)],
            aggs: vec![AggFn::count()],
        });
        let mut out = BatchEmitter::new();
        a.process(0, &data(1, 10, 2), Time::ZERO, &mut out);
        a.process(0, &data(2, 20, 1), Time::ZERO, &mut out);
        a.process(0, &data(3, 30, 2), Time::ZERO, &mut out);
        a.process(0, &boundary(100), Time::ZERO, &mut out);
        let groups: Vec<_> = out
            .tuples()
            .iter()
            .filter(|t| t.is_data())
            .map(|t| t.values.to_vec())
            .collect();
        // Deterministic group order: key 1 before key 2.
        assert_eq!(
            groups,
            vec![
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(2), Value::Int(2)],
            ]
        );
    }

    #[test]
    fn tentative_input_closes_windows_tentatively() {
        let mut a = Aggregate::new(spec_tumbling(100));
        let mut out = BatchEmitter::new();
        a.process(0, &data(1, 10, 5), Time::ZERO, &mut out);
        // A tentative tuple past the window end closes [0,100) tentatively.
        let t = Tuple::tentative(TupleId(2), Time::from_millis(130), vec![Value::Int(1)]);
        a.process(0, &t, Time::ZERO, &mut out);
        assert_eq!(out.tuples().len(), 1);
        assert_eq!(out.tuples()[0].kind, TupleKind::Tentative);
        assert_eq!(*out.tuples()[0].values, [Value::Int(1), Value::Int(5)]);
    }

    #[test]
    fn window_with_tentative_content_is_tentative_even_on_stable_close() {
        let mut a = Aggregate::new(spec_tumbling(100));
        let mut out = BatchEmitter::new();
        let t = Tuple::tentative(TupleId(1), Time::from_millis(10), vec![Value::Int(5)]);
        a.process(0, &t, Time::ZERO, &mut out);
        a.process(0, &boundary(100), Time::ZERO, &mut out);
        let tuples = out.tuples();
        let agg = tuples.iter().find(|t| t.is_data()).unwrap();
        assert_eq!(agg.kind, TupleKind::Tentative);
    }

    #[test]
    fn avg_min_max() {
        let mut a = Aggregate::new(AggregateSpec {
            window: Duration::from_millis(100),
            slide: Duration::from_millis(100),
            group_by: vec![],
            aggs: vec![
                AggFn::avg(Expr::field(0)),
                AggFn::min(Expr::field(0)),
                AggFn::max(Expr::field(0)),
            ],
        });
        let mut out = BatchEmitter::new();
        for (i, v) in [4, 8, 6].iter().enumerate() {
            a.process(0, &data(i as u64, 10 + i as u64, *v), Time::ZERO, &mut out);
        }
        a.process(0, &boundary(100), Time::ZERO, &mut out);
        let agg = &out.tuples()[0];
        assert_eq!(
            *agg.values,
            [Value::Float(6.0), Value::Int(4), Value::Int(8)]
        );
    }

    #[test]
    fn checkpoint_restore_replays_identically() {
        let mut a = Aggregate::new(spec_tumbling(100));
        let mut out = BatchEmitter::new();
        a.process(0, &data(1, 10, 5), Time::ZERO, &mut out);
        let snap = a.checkpoint();
        a.process(0, &data(2, 20, 7), Time::ZERO, &mut out);
        a.process(0, &boundary(100), Time::ZERO, &mut out);
        let first_run: Vec<Tuple> = out.take_tuples().0;

        a.restore(&snap);
        let mut out2 = BatchEmitter::new();
        a.process(0, &data(2, 20, 7), Time::ZERO, &mut out2);
        a.process(0, &boundary(100), Time::ZERO, &mut out2);
        assert_eq!(
            first_run,
            out2.tuples(),
            "replay after restore is identical"
        );
    }

    #[test]
    fn empty_windows_produce_no_output() {
        let mut a = Aggregate::new(spec_tumbling(100));
        let mut out = BatchEmitter::new();
        a.process(0, &boundary(500), Time::ZERO, &mut out);
        assert_eq!(out.tuples().len(), 1); // just the boundary
        assert_eq!(out.tuples()[0].kind, TupleKind::Boundary);
    }

    #[test]
    fn stale_boundary_is_ignored() {
        let mut a = Aggregate::new(spec_tumbling(100));
        let mut out = BatchEmitter::new();
        a.process(0, &boundary(200), Time::ZERO, &mut out);
        a.process(0, &boundary(100), Time::ZERO, &mut out);
        assert_eq!(out.tuples().len(), 1, "non-advancing boundary dropped");
    }
}
