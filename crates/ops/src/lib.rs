//! # borealis-ops
//!
//! The Borealis/Aurora operator set (§2.1 of the paper) extended for DPC
//! (§3): `Filter`, `Map`, `Union`, windowed `Aggregate`, and the three
//! DPC-specific operators — the serializing [`SUnion`], the order-driven
//! [`SJoin`], and the output-stabilizing [`SOutput`].
//!
//! All operators are **deterministic** (§2.1): their outputs depend only on
//! input data and order, never on arrival times or randomness. They support
//! the extended tuple model (stable / tentative / boundary / undo /
//! rec-done), label their outputs correctly (tentative in → tentative out),
//! propagate boundary tuples, and implement `checkpoint`/`restore` so a
//! whole query-diagram fragment can be rolled back and replayed during DPC
//! state reconciliation (§4.4.1).

#![warn(missing_docs)]

pub mod aggregate;
pub mod filter;
pub mod join;
pub mod map;
pub mod snapshot;
pub mod soutput;
pub mod spec;
pub mod sunion;
pub mod union;

pub use aggregate::{AggFn, Aggregate, AggregateSpec};
pub use filter::Filter;
pub use join::{SJoin, SJoinSpec};
pub use map::Map;
pub use snapshot::{OpSnapshot, SnapshotCodec};
pub use soutput::SOutput;
pub use spec::OperatorSpec;
pub use sunion::{DelayMode, SUnion, SUnionConfig};
pub use union::Union;

use borealis_types::{ControlSignal, Time, Tuple, TupleBatch};
use std::any::Any;

/// The single emission path: collects the tuples and control signals an
/// operator emits, as ordered shared batches.
///
/// Operators have a single output stream in this engine (as in Aurora);
/// the fragment routes emitted tuples to all consumers of that stream.
///
/// Two producer styles share this collector:
///
/// * **owned pushes** ([`BatchEmitter::push`]) — for output an operator
///   has to build tuple by tuple (window closes, join matches, renumbered
///   merges, markers); contiguous runs are sealed into one shared batch;
/// * **shared-batch pushes** ([`BatchEmitter::push_batch`]) — pass-through
///   operators emit O(1) views of their input batch instead of cloning
///   tuples (the zero-copy fan-out path).
///
/// Either way the downstream engine, node buffers, and network fan-out all
/// share the resulting allocations.
#[derive(Debug, Default)]
pub struct BatchEmitter {
    chunks: Vec<TupleBatch>,
    pending: Vec<Tuple>,
    signals: Vec<ControlSignal>,
}

impl BatchEmitter {
    /// Creates an empty emitter.
    pub fn new() -> BatchEmitter {
        BatchEmitter::default()
    }

    /// Emits one owned tuple (buffered; sealed into a shared batch when a
    /// batch boundary is reached).
    pub fn push(&mut self, t: Tuple) {
        self.pending.push(t);
    }

    /// Emits a shared batch view without copying its tuples.
    pub fn push_batch(&mut self, batch: TupleBatch) {
        if batch.is_empty() {
            return;
        }
        self.seal();
        self.chunks.push(batch);
    }

    /// Emits a control signal to the Consistency Manager.
    pub fn signal(&mut self, s: ControlSignal) {
        self.signals.push(s);
    }

    /// True if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty() && self.pending.is_empty() && self.signals.is_empty()
    }

    fn seal(&mut self) {
        if !self.pending.is_empty() {
            self.chunks
                .push(TupleBatch::from_vec(std::mem::take(&mut self.pending)));
        }
    }

    /// Moves the contents out as ordered shared batches plus signals,
    /// leaving the emitter empty — the data plane's consumption path.
    pub fn take(&mut self) -> (Vec<TupleBatch>, Vec<ControlSignal>) {
        self.seal();
        (
            std::mem::take(&mut self.chunks),
            std::mem::take(&mut self.signals),
        )
    }

    /// Moves the contents out flattened to owned tuples — a copying
    /// convenience for tests and per-tuple consumers.
    pub fn take_tuples(&mut self) -> (Vec<Tuple>, Vec<ControlSignal>) {
        let (chunks, signals) = self.take();
        let tuples = chunks
            .iter()
            .flat_map(|c| c.as_slice().iter().cloned())
            .collect();
        (tuples, signals)
    }

    /// Flattened copy of the tuples emitted so far (non-consuming; tests
    /// and diagnostics).
    pub fn tuples(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self
            .chunks
            .iter()
            .flat_map(|c| c.as_slice().iter().cloned())
            .collect();
        v.extend(self.pending.iter().cloned());
        v
    }

    /// Control signals emitted so far (non-consuming).
    pub fn signals(&self) -> &[ControlSignal] {
        &self.signals
    }
}

/// A deterministic stream operator.
///
/// The unit of work is the batch — the paper's unit of serialization is
/// the bucket, not the tuple (§4.2) — so [`Operator::process_batch`] is the
/// one data entry point and the only one the engine calls; an operator
/// that thinks per tuple loops over a private helper. Operators may also
/// react to the passage of virtual time through [`Operator::tick`]; SUnion
/// uses ticks to enforce the availability deadline (`Delaynew < X`,
/// Property 1) by emitting overdue buckets tentatively.
///
/// The contract is what every operator has: process, tick, and save and
/// recover state for checkpoint/redo (§4.4.1). What only SUnion or SOutput
/// offers stays on its own type, where the fragment reaches it through
/// [`downcast_ref`](#method.downcast_ref)/[`downcast_mut`](#method.downcast_mut).
pub trait Operator: Any + Send {
    /// Processes a shared batch arriving on `port` at virtual time `now`.
    /// How a stream is cut into batches must never show in what is
    /// emitted. Pass-through operators emit O(1) views of `batch` instead
    /// of cloning tuples (the zero-copy fan-out path).
    fn process_batch(&mut self, port: usize, batch: &TupleBatch, now: Time, out: &mut BatchEmitter);

    /// One tuple as a singleton batch: the convenience unit tests feed
    /// operators through. It has this one body for every operator — no
    /// implementor defines it (CI greps for a second `fn process`).
    fn process(&mut self, port: usize, tuple: &Tuple, now: Time, out: &mut BatchEmitter) {
        self.process_batch(port, &TupleBatch::single(tuple.clone()), now, out);
    }

    /// Reacts to the passage of time. `tentative_permitted` is set by the
    /// fragment once the pre-failure checkpoint has been taken (§4.4.1):
    /// SUnion must not release tentative data before the fragment state has
    /// been captured.
    fn tick(&mut self, _now: Time, _tentative_permitted: bool, _out: &mut BatchEmitter) {}

    /// Captures the operator's state for checkpoint/redo reconciliation.
    ///
    /// # Implementor contract (copy-on-write)
    ///
    /// Checkpoints run at the failure-detection instant, before the first
    /// tentative tuple may be released (§4.4.1), so this method must be
    /// cheap: keep mutable state behind an `Arc` and return
    /// [`OpSnapshot::share`] — an O(1) reference-count bump — mutating
    /// through [`std::sync::Arc::make_mut`] so the first post-checkpoint
    /// mutation pays the (lazy) divergence copy instead. Whatever strategy
    /// is used, a snapshot must never observe mutations made after it was
    /// taken, and must stay restorable multiple times (a node can fail
    /// again during stabilization, Fig. 11(b)). See [`snapshot`] for the
    /// full contract.
    fn checkpoint(&self) -> OpSnapshot;

    /// Restores the operator's state from a checkpoint. `Arc`-state
    /// operators adopt the snapshot's allocation ([`OpSnapshot::shared`],
    /// O(1)) and diverge later by copy-on-write.
    fn restore(&mut self, snap: &OpSnapshot);

    /// Codec that serializes this operator's checkpoints for the durable
    /// store (disk recovery). Stateless operators keep the default unit
    /// codec; stateful operators must override it — a fragment is only
    /// durably checkpointable if every stateful operator round-trips.
    fn snapshot_codec(&self) -> SnapshotCodec {
        SnapshotCodec::unit()
    }
}

impl dyn Operator {
    /// The operator as its concrete type `T`, if it is one.
    pub fn downcast_ref<T: Operator>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref()
    }

    /// The operator as its concrete type `T`, mutably, if it is one.
    pub fn downcast_mut<T: Operator>(&mut self) -> Option<&mut T> {
        (self as &mut dyn Any).downcast_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::TupleId;

    #[test]
    fn batch_emitter_preserves_order_across_owned_and_shared_pushes() {
        let mut e = BatchEmitter::new();
        let t1 = Tuple::insertion(TupleId(1), Time::ZERO, vec![]);
        let t2 = Tuple::insertion(TupleId(2), Time::ZERO, vec![]);
        let shared = TupleBatch::from_vec(vec![
            Tuple::insertion(TupleId(3), Time::ZERO, vec![]),
            Tuple::insertion(TupleId(4), Time::ZERO, vec![]),
        ]);
        e.push(t1);
        e.push(t2);
        e.push_batch(shared.clone());
        e.push(Tuple::insertion(TupleId(5), Time::ZERO, vec![]));
        let (chunks, _) = e.take();
        assert_eq!(chunks.len(), 3, "owned run, shared batch, owned run");
        assert!(chunks[1].shares_backing(&shared));
        let ids: Vec<u64> = chunks
            .iter()
            .flat_map(|c| c.iter().map(|t| t.id.0))
            .collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert!(e.is_empty());
    }

    #[test]
    fn take_tuples_flattens_and_resets() {
        let mut e = BatchEmitter::new();
        assert!(e.is_empty());
        e.push(Tuple::boundary(TupleId::NONE, Time::ZERO));
        e.push_batch(TupleBatch::single(Tuple::insertion(
            TupleId(9),
            Time::ZERO,
            vec![],
        )));
        e.signal(ControlSignal::UpFailure);
        assert!(!e.is_empty());
        assert_eq!(e.tuples().len(), 2, "non-consuming view sees both");
        assert_eq!(e.signals(), vec![ControlSignal::UpFailure]);
        let (tuples, signals) = e.take_tuples();
        assert_eq!(tuples.len(), 2);
        assert_eq!(tuples[1].id, TupleId(9));
        assert_eq!(signals, vec![ControlSignal::UpFailure]);
        assert!(e.is_empty());
    }
}
