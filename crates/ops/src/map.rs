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
}

impl Map {
    /// Builds a map producing one attribute per expression.
    pub fn new(outputs: Vec<Expr>) -> Map {
        Map { outputs }
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
    fn name(&self) -> &'static str {
        "map"
    }

    /// The transformation must materialize fresh tuples, but it builds the
    /// output batch exactly once (right capacity, one sealed chunk) —
    /// every downstream consumer then shares that allocation.
    fn process_batch(&mut self, _: usize, batch: &TupleBatch, _: Time, out: &mut BatchEmitter) {
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
}
