//! Map: transforms each input tuple into a single output tuple (§2.1).

use crate::{BatchEmitter, OpSnapshot, Operator};
use borealis_types::{Expr, Time, Tuple, TupleBatch};

/// A stateless projection/transformation.
///
/// Each output attribute is an expression over the input tuple. Ids, stime,
/// and kind pass through unchanged so that downstream duplicate suppression
/// and serialization behave identically before and after a Map.
pub struct Map {
    outputs: Vec<Expr>,
    /// The outputs are exactly `Field(0), …, Field(n−1)`: a tuple of width
    /// `n` maps to itself.
    identity: bool,
}

impl Map {
    /// Builds a map producing one attribute per expression.
    pub fn new(outputs: Vec<Expr>) -> Map {
        let identity = outputs.iter().zip(0..).all(|(e, i)| *e == Expr::Field(i));
        Map { outputs, identity }
    }

    /// The output for one input tuple; `None` is the deterministic drop on
    /// an evaluation error (as Filter). The computed payload is the only
    /// allocation; punctuation and recovery markers pass as they are.
    fn apply(&self, tuple: &Tuple) -> Option<Tuple> {
        if !tuple.is_data() {
            return Some(tuple.clone());
        }
        let values = Tuple::try_values(self.outputs.len(), |i| self.outputs[i].eval(tuple)).ok()?;
        Some(Tuple { values, ..*tuple })
    }
}

impl Operator for Map {
    /// A batch the map reproduces (an identity over data all of its width)
    /// is forwarded as it is, as Filter forwards an all-pass batch; any
    /// other is built once (right capacity, one sealed chunk).
    fn process_batch(&mut self, _: usize, batch: &TupleBatch, _: Time, out: &mut BatchEmitter) {
        let width = self.outputs.len();
        let reproduced = |t: &Tuple| !t.is_data() || t.values.len() == width;
        if self.identity && batch.iter().all(reproduced) {
            out.push_batch(batch.clone());
            return;
        }
        let mut result: Vec<Tuple> = Vec::with_capacity(batch.len());
        result.extend(batch.iter().filter_map(|t| self.apply(t)));
        out.push_batch(TupleBatch::from_vec(result));
    }

    fn checkpoint(&self) -> OpSnapshot {
        OpSnapshot::new(())
    }

    fn restore(&mut self, _snap: &OpSnapshot) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::{TupleId, TupleKind, Value};

    #[test]
    fn transforms_values_and_keeps_identity() {
        let mut m = Map::new(vec![
            Expr::add(Expr::field(0), Expr::int(100)),
            Expr::field(1),
        ]);
        let t = Tuple::insertion(
            TupleId(7),
            Time::from_millis(3),
            vec![Value::Int(1), Value::str("k")],
        );
        let mut out = BatchEmitter::new();
        m.process(0, &t, Time::ZERO, &mut out);
        let r = &out.tuples()[0];
        assert_eq!(*r.values, [Value::Int(101), Value::str("k")]);
        assert_eq!(r.id, TupleId(7));
        assert_eq!(r.stime, Time::from_millis(3));
    }

    #[test]
    fn tentative_stays_tentative() {
        let mut m = Map::new(vec![Expr::field(0)]);
        let t = Tuple::tentative(TupleId(1), Time::ZERO, vec![Value::Int(2)]);
        let mut out = BatchEmitter::new();
        m.process(0, &t, Time::ZERO, &mut out);
        assert_eq!(out.tuples()[0].kind, TupleKind::Tentative);
    }

    #[test]
    fn boundary_passes_untouched() {
        let mut m = Map::new(vec![Expr::field(0)]);
        let b = Tuple::boundary(TupleId::NONE, Time::from_secs(2));
        let mut out = BatchEmitter::new();
        m.process(0, &b, Time::ZERO, &mut out);
        assert_eq!(out.tuples()[0], b);
    }

    #[test]
    fn batch_path_seals_one_output_batch() {
        let mut m = Map::new(vec![Expr::add(Expr::field(0), Expr::int(1))]);
        let batch = TupleBatch::from_vec(vec![
            Tuple::insertion(TupleId(1), Time::ZERO, vec![Value::Int(10)]),
            Tuple::boundary(TupleId::NONE, Time::from_secs(1)),
            // Evaluation error (missing field): dropped.
            Tuple::insertion(TupleId(3), Time::from_secs(2), vec![]),
        ]);
        let mut out = BatchEmitter::new();
        m.process_batch(0, &batch, Time::ZERO, &mut out);
        let (chunks, _) = out.take();
        assert_eq!(chunks.len(), 1, "one sealed output batch");
        assert_eq!(chunks[0].len(), 2);
    }

    fn one(id: u64, v: i64) -> Tuple {
        Tuple::insertion(TupleId(id), Time::from_millis(id), vec![Value::Int(v)])
    }

    fn two(id: u64) -> Tuple {
        let values = vec![Value::Int(id as i64), Value::str("k")];
        Tuple::insertion(TupleId(id), Time::from_millis(id), values)
    }

    /// The chunks `outputs` emit for `batch`.
    fn run(outputs: Vec<Expr>, batch: &TupleBatch) -> Vec<TupleBatch> {
        let mut out = BatchEmitter::new();
        Map::new(outputs).process_batch(0, batch, Time::ZERO, &mut out);
        out.take().0
    }

    #[test]
    fn identity_map_forwards_the_input_view() {
        let batch = TupleBatch::from_vec(vec![
            one(1, 10),
            Tuple::boundary(TupleId::NONE, Time::from_secs(1)),
            Tuple::tentative(TupleId(2), Time::from_secs(1), vec![Value::Int(20)]),
        ]);
        let chunks = run(vec![Expr::field(0)], &batch);
        assert_eq!(chunks.len(), 1);
        assert!(chunks[0].shares_backing(&batch), "forwarded, not rebuilt");
        assert_eq!(chunks[0], batch);
    }

    #[test]
    fn identity_map_materializes_a_batch_of_another_width() {
        // A zero-attribute tuple is dropped (missing field), a two-attribute
        // one truncated — exactly as before, in a batch of its own.
        for odd in [Tuple::insertion(TupleId(2), Time::ZERO, vec![]), two(2)] {
            let batch = TupleBatch::from_vec(vec![one(1, 10), odd.clone(), one(3, 30)]);
            let chunks = run(vec![Expr::field(0)], &batch);
            assert_eq!(chunks.len(), 1);
            assert!(!chunks[0].shares_backing(&batch));
            let mut expect = vec![one(1, 10), one(3, 30)];
            if odd.values.len() == 2 {
                expect.insert(
                    1,
                    Tuple::insertion(TupleId(2), odd.stime, vec![Value::Int(2)]),
                );
            }
            assert_eq!(chunks[0].to_vec(), expect);
        }
    }

    #[test]
    fn other_projections_are_computed() {
        let batch = TupleBatch::from_vec(vec![two(1), two(2)]);
        let swapped = run(vec![Expr::field(1), Expr::field(0)], &batch);
        assert!(!swapped[0].shares_backing(&batch));
        assert_eq!(
            *swapped[0].as_slice()[0].values,
            [Value::str("k"), Value::Int(1)]
        );
        let narrowed = run(vec![Expr::field(0)], &batch);
        assert!(!narrowed[0].shares_backing(&batch));
        assert_eq!(*narrowed[0].as_slice()[1].values, [Value::Int(2)]);
        // The identity of width two reproduces two-attribute tuples.
        let same = run(vec![Expr::field(0), Expr::field(1)], &batch);
        assert!(same[0].shares_backing(&batch));
    }
}
