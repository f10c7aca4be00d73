//! Union: merges tuples from two or more input streams (§2.1).
//!
//! This is the *plain*, non-serializing union kept as the non-fault-tolerant
//! baseline (the paper's Tables IV and V compare SUnion+SOutput against a
//! standard Union). It forwards data tuples in arrival order — which is why
//! it cannot keep replicas consistent — and merges boundaries by emitting
//! the minimum watermark across its inputs.

use crate::snapshot::SnapshotCodec;
use crate::{BatchEmitter, OpSnapshot, Operator};
use borealis_types::wire_struct;
use borealis_types::{Time, Tuple, TupleBatch, TupleId, TupleKind};
use std::sync::Arc;

/// Non-serializing merge of `n` input streams.
pub struct Union {
    /// Copy-on-write state: checkpoints share this `Arc` (see
    /// [`crate::snapshot`] for the contract).
    state: Arc<UnionState>,
}

wire_struct! {
    #[derive(Clone)]
    struct UnionState {
        /// Latest boundary stime per input port.
        watermarks: Vec<Option<Time>>,
        /// Last boundary stime emitted downstream.
        emitted_wm: Option<Time>,
        /// Output id generator (inputs from different streams may collide, so
        /// Union renumbers).
        next_id: u64,
    }
}

impl Union {
    /// Builds a union over `n_inputs` streams.
    pub fn new(n_inputs: usize) -> Union {
        assert!(n_inputs >= 1, "union needs at least one input");
        Union {
            state: Arc::new(UnionState {
                watermarks: vec![None; n_inputs],
                emitted_wm: None,
                next_id: 1,
            }),
        }
    }

    fn min_watermark(&self) -> Option<Time> {
        let mut min = Time::MAX;
        for wm in &self.state.watermarks {
            match wm {
                Some(t) => min = min.min(*t),
                None => return None,
            }
        }
        Some(min)
    }

    /// One tuple: data is renumbered and forwarded in arrival order,
    /// boundaries merge to the minimum watermark.
    fn step(&mut self, port: usize, tuple: &Tuple, out: &mut BatchEmitter) {
        match tuple.kind {
            TupleKind::Insertion | TupleKind::Tentative => {
                let st = Arc::make_mut(&mut self.state);
                let mut t = tuple.clone();
                t.id = TupleId(st.next_id);
                st.next_id += 1;
                t.origin = port as u16;
                out.push(t);
            }
            TupleKind::Boundary => {
                {
                    let st = Arc::make_mut(&mut self.state);
                    st.watermarks[port] =
                        Some(st.watermarks[port].map_or(tuple.stime, |w| w.max(tuple.stime)));
                }
                if let Some(min) = self.min_watermark() {
                    if self.state.emitted_wm.is_none_or(|w| min > w) {
                        Arc::make_mut(&mut self.state).emitted_wm = Some(min);
                        out.push(Tuple::boundary(TupleId::NONE, min));
                    }
                }
            }
            // Forwarding recovery markers from a plain Union is best-effort:
            // DPC diagrams never contain plain Unions (they are replaced by
            // SUnion, §3), so these arise only in baseline runs.
            TupleKind::Undo | TupleKind::RecDone => out.push(tuple.clone()),
        }
    }
}

impl Operator for Union {
    fn process_batch(&mut self, port: usize, batch: &TupleBatch, _: Time, out: &mut BatchEmitter) {
        for t in batch.as_slice() {
            self.step(port, t, out);
        }
    }

    fn checkpoint(&self) -> OpSnapshot {
        OpSnapshot::share(&self.state)
    }

    fn restore(&mut self, snap: &OpSnapshot) {
        self.state = snap.shared::<UnionState>();
    }

    fn snapshot_codec(&self) -> SnapshotCodec {
        SnapshotCodec::of::<UnionState>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::Value;

    fn data(id: u64, ms: u64) -> Tuple {
        Tuple::insertion(TupleId(id), Time::from_millis(ms), vec![Value::Int(0)])
    }

    #[test]
    fn forwards_in_arrival_order_with_fresh_ids() {
        let mut u = Union::new(2);
        let mut out = BatchEmitter::new();
        u.process(1, &data(10, 5), Time::ZERO, &mut out);
        u.process(0, &data(10, 3), Time::ZERO, &mut out);
        assert_eq!(out.tuples().len(), 2);
        assert_eq!(out.tuples()[0].id, TupleId(1));
        assert_eq!(out.tuples()[0].origin, 1);
        assert_eq!(out.tuples()[1].id, TupleId(2));
        assert_eq!(out.tuples()[1].origin, 0);
    }

    #[test]
    fn boundary_is_min_across_ports() {
        let mut u = Union::new(2);
        let mut out = BatchEmitter::new();
        u.process(
            0,
            &Tuple::boundary(TupleId::NONE, Time::from_millis(10)),
            Time::ZERO,
            &mut out,
        );
        assert!(
            out.tuples().is_empty(),
            "no boundary until all ports heard from"
        );
        u.process(
            1,
            &Tuple::boundary(TupleId::NONE, Time::from_millis(4)),
            Time::ZERO,
            &mut out,
        );
        assert_eq!(out.tuples().len(), 1);
        assert_eq!(out.tuples()[0].stime, Time::from_millis(4));
        // A higher boundary on port 1 raises the min.
        u.process(
            1,
            &Tuple::boundary(TupleId::NONE, Time::from_millis(20)),
            Time::ZERO,
            &mut out,
        );
        assert_eq!(out.tuples().last().unwrap().stime, Time::from_millis(10));
    }

    #[test]
    fn non_increasing_min_emits_nothing() {
        let mut u = Union::new(1);
        let mut out = BatchEmitter::new();
        u.process(
            0,
            &Tuple::boundary(TupleId::NONE, Time::from_millis(5)),
            Time::ZERO,
            &mut out,
        );
        u.process(
            0,
            &Tuple::boundary(TupleId::NONE, Time::from_millis(5)),
            Time::ZERO,
            &mut out,
        );
        assert_eq!(out.tuples().len(), 1);
    }

    #[test]
    fn checkpoint_restores_id_counter() {
        let mut u = Union::new(1);
        let mut out = BatchEmitter::new();
        u.process(0, &data(1, 1), Time::ZERO, &mut out);
        let snap = u.checkpoint();
        u.process(0, &data(2, 2), Time::ZERO, &mut out);
        u.restore(&snap);
        u.process(0, &data(2, 2), Time::ZERO, &mut out);
        // Replay after restore regenerates the same output id.
        assert_eq!(out.tuples()[1].id, out.tuples()[2].id);
    }
}
