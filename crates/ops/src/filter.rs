//! Filter: tests each input tuple against a predicate (§2.1).

use crate::{BatchEmitter, OpSnapshot, Operator};
use borealis_types::{Expr, Time, Tuple, TupleBatch};

/// A stateless predicate filter.
///
/// Data tuples that satisfy the predicate pass through unchanged (same id,
/// same stime, same kind — tentative stays tentative). Boundary, undo, and
/// rec-done tuples always pass: they are stream metadata, not data.
/// Tuples on which the predicate errors (type mismatch, missing field) are
/// dropped deterministically; a deterministic drop preserves replica
/// consistency, which is all DPC requires.
pub struct Filter {
    predicate: Expr,
}

impl Filter {
    /// Builds a filter with the given predicate expression.
    pub fn new(predicate: Expr) -> Filter {
        Filter { predicate }
    }

    /// Data passes if the predicate holds (an evaluation error drops it);
    /// punctuation and recovery markers always propagate.
    fn keeps(&self, t: &Tuple) -> bool {
        !t.is_data() || self.predicate.eval_bool(t).unwrap_or(false)
    }
}

impl Operator for Filter {
    /// Zero-copy: contiguous runs of passing tuples are forwarded as
    /// shared sub-views of the input batch — when every tuple passes (the
    /// common stable-stream case) the whole batch moves on with a single
    /// reference-count bump.
    fn process_batch(&mut self, _: usize, batch: &TupleBatch, _: Time, out: &mut BatchEmitter) {
        let tuples = batch.as_slice();
        let mut run_start = 0;
        for (i, t) in tuples.iter().enumerate() {
            if !self.keeps(t) {
                if i > run_start {
                    out.push_batch(batch.slice(run_start..i));
                }
                run_start = i + 1;
            }
        }
        if tuples.len() > run_start {
            out.push_batch(batch.slice(run_start..tuples.len()));
        }
    }

    fn checkpoint(&self) -> OpSnapshot {
        // Stateless: nothing to capture.
        OpSnapshot::new(())
    }

    fn restore(&mut self, _snap: &OpSnapshot) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::{TupleId, TupleKind, Value};

    fn data(id: u64, v: i64) -> Tuple {
        Tuple::insertion(TupleId(id), Time::from_millis(id), vec![Value::Int(v)])
    }

    #[test]
    fn passes_matching_drops_rest() {
        let mut f = Filter::new(Expr::gt(Expr::field(0), Expr::int(10)));
        let mut out = BatchEmitter::new();
        f.process(0, &data(1, 5), Time::ZERO, &mut out);
        f.process(0, &data(2, 15), Time::ZERO, &mut out);
        assert_eq!(out.tuples().len(), 1);
        assert_eq!(out.tuples()[0].id, TupleId(2));
    }

    #[test]
    fn preserves_tentative_kind() {
        let mut f = Filter::new(Expr::gt(Expr::field(0), Expr::int(0)));
        let mut out = BatchEmitter::new();
        let t = Tuple::tentative(TupleId(3), Time::ZERO, vec![Value::Int(1)]);
        f.process(0, &t, Time::ZERO, &mut out);
        assert_eq!(out.tuples()[0].kind, TupleKind::Tentative);
    }

    #[test]
    fn metadata_always_passes() {
        let mut f = Filter::new(Expr::Const(Value::Bool(false)));
        let mut out = BatchEmitter::new();
        f.process(
            0,
            &Tuple::boundary(TupleId::NONE, Time::from_secs(1)),
            Time::ZERO,
            &mut out,
        );
        f.process(
            0,
            &Tuple::undo(TupleId::NONE, TupleId(4)),
            Time::ZERO,
            &mut out,
        );
        f.process(
            0,
            &Tuple::rec_done(TupleId::NONE, Time::ZERO),
            Time::ZERO,
            &mut out,
        );
        assert_eq!(out.tuples().len(), 3);
    }

    #[test]
    fn predicate_errors_drop_the_tuple() {
        let mut f = Filter::new(Expr::gt(Expr::field(7), Expr::int(0)));
        let mut out = BatchEmitter::new();
        f.process(0, &data(1, 1), Time::ZERO, &mut out);
        assert!(out.tuples().is_empty());
    }

    #[test]
    fn batch_path_forwards_all_pass_batch_by_reference() {
        let mut f = Filter::new(Expr::gt(Expr::field(0), Expr::int(0)));
        let batch = TupleBatch::from_vec((1..=4).map(|i| data(i, i as i64)).collect());
        let mut out = BatchEmitter::new();
        f.process_batch(0, &batch, Time::ZERO, &mut out);
        let (chunks, _) = out.take();
        assert_eq!(chunks.len(), 1);
        assert!(
            chunks[0].shares_backing(&batch),
            "all-pass forwards a shared view"
        );
        assert_eq!(chunks[0], batch);
    }

    #[test]
    fn batch_path_forwards_passing_runs_as_views() {
        let mut f = Filter::new(Expr::gt(Expr::field(0), Expr::int(10)));
        let batch = TupleBatch::from_vec(vec![
            data(1, 20),
            data(2, 5), // dropped
            data(3, 30),
            Tuple::boundary(TupleId::NONE, Time::from_secs(1)),
            data(4, 2), // dropped
        ]);
        let mut out = BatchEmitter::new();
        f.process_batch(0, &batch, Time::ZERO, &mut out);
        let (chunks, _) = out.take();
        let lens: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(lens, [1, 2], "two runs around the dropped tuple");
        assert!(chunks.iter().all(|c| c.shares_backing(&batch)));
    }
}
