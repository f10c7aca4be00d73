//! Type-erased operator state snapshots for checkpoint/redo reconciliation
//! (§4.4.1): "all operators are extended with the ability to save and
//! recover their state from a checkpoint".
//!
//! # The copy-on-write snapshot contract
//!
//! Checkpoints happen at the worst possible moment — the failure-detection
//! instant, right before the first tentative tuple may be released (§4.4.1)
//! — so [`OpSnapshot`] is designed to make `Operator::checkpoint` O(1):
//!
//! * A snapshot is an **immutable, shared** view of the operator's state:
//!   internally an `Arc`, so capturing, cloning, and restoring a snapshot
//!   are reference-count bumps, never deep copies.
//! * Operators that want O(1) checkpoints keep their mutable state behind an
//!   `Arc<State>` and mutate through [`std::sync::Arc::make_mut`]. Taking a
//!   checkpoint is then [`OpSnapshot::share`]; the *first* mutation after a
//!   checkpoint pays one lazy state clone (copy-on-write), off the critical
//!   failure-detection path — and when the state itself stores shared batch
//!   views (see `borealis_types::TupleBatch`), even that lazy clone is
//!   O(containers), not O(tuples).
//! * `restore` is [`OpSnapshot::shared`]: the operator adopts the snapshot's
//!   `Arc` directly, which keeps the snapshot restorable again later (a node
//!   can fail once more during stabilization, Fig. 11(b)) — the next
//!   mutation diverges by copy-on-write instead of corrupting the capture.
//!
//! Operators with trivial or tiny state may still pass an owned value to
//! [`OpSnapshot::new`]; the contract only requires that a snapshot, once
//! taken, never observes later mutations.

use std::any::Any;
use std::sync::Arc;

use borealis_types::wire::{Reader, Wire, WireError};

/// A type-erased, immutable, cheaply clonable snapshot of one operator's
/// state.
///
/// A checkpoint may be restored multiple times (a node can fail again during
/// stabilization, Fig. 11(b)); snapshots hand out borrowed or shared views
/// and the operator copies-on-write what it later mutates.
pub struct OpSnapshot(Arc<dyn Any + Send + Sync>);

impl OpSnapshot {
    /// Wraps an owned state value (one allocation; no further copies on
    /// snapshot clone or restore).
    pub fn new<T: Any + Send + Sync>(state: T) -> OpSnapshot {
        OpSnapshot(Arc::new(state))
    }

    /// Captures an `Arc`-held state by reference-count bump — the O(1)
    /// copy-on-write checkpoint path.
    pub fn share<T: Any + Send + Sync>(state: &Arc<T>) -> OpSnapshot {
        OpSnapshot(Arc::clone(state) as Arc<dyn Any + Send + Sync>)
    }

    /// Borrows the concrete state.
    ///
    /// # Panics
    /// Panics if the snapshot holds a different type than requested — that
    /// is always a wiring bug (a snapshot restored into the wrong operator).
    pub fn get<T: Any>(&self) -> &T {
        self.0
            .downcast_ref::<T>()
            .expect("operator snapshot restored into an operator of a different type")
    }

    /// The shared state handle — the O(1) restore path: the operator adopts
    /// the snapshot's allocation and diverges later by copy-on-write.
    ///
    /// # Panics
    /// Panics on a type mismatch, exactly as [`OpSnapshot::get`].
    pub fn shared<T: Any + Send + Sync>(&self) -> Arc<T> {
        Arc::clone(&self.0).downcast::<T>().unwrap_or_else(|_| {
            panic!("operator snapshot restored into an operator of a different type")
        })
    }
}

impl Clone for OpSnapshot {
    fn clone(&self) -> Self {
        OpSnapshot(Arc::clone(&self.0))
    }
}

impl std::fmt::Debug for OpSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OpSnapshot(..)")
    }
}

/// Encode/decode function pair turning a type-erased [`OpSnapshot`] into
/// durable bytes and back — the bridge between the O(1) in-memory
/// checkpoint and the on-disk durability layer (`borealis-store`).
///
/// Plain function pointers keep the codec `Copy + Send + 'static`: a
/// checkpoint only *captures* (an `Arc` refcount bump via
/// `Operator::checkpoint`) and hands `(codec, snapshot)` pairs to the
/// durable store, which walks the shared state and encodes it straight
/// into the checkpoint record.
///
/// An operator writes neither function: its state type implements
/// [`Wire`] next to its definition and `snapshot_codec` returns
/// [`SnapshotCodec::of`] that type, so the bytes are the
/// `borealis_types::wire` vocabulary and corrupted input decodes to a
/// typed [`WireError`], never a panic.
#[derive(Clone, Copy)]
pub struct SnapshotCodec {
    /// Serializes the snapshot's state into `buf`.
    ///
    /// # Panics
    /// Panics if the snapshot holds a different state type than the codec
    /// expects — pairing a codec with a foreign snapshot is a wiring bug.
    pub encode: fn(&OpSnapshot, &mut Vec<u8>),
    /// Rebuilds a snapshot from bytes produced by `encode`.
    pub decode: fn(&mut Reader<'_>) -> Result<OpSnapshot, WireError>,
}

impl SnapshotCodec {
    /// The codec of an operator whose checkpoint holds an `S`: encode is
    /// `S::put` on the shared state, decode is `S::get` into a fresh
    /// snapshot.
    pub fn of<S: Wire + Any + Send + Sync>() -> SnapshotCodec {
        SnapshotCodec {
            encode: |snap, buf| snap.get::<S>().put(buf),
            decode: |r| S::get(r).map(OpSnapshot::new),
        }
    }

    /// Codec for stateless operators (`Filter`, `Map`): writes nothing and
    /// restores the unit snapshot.
    pub fn unit() -> SnapshotCodec {
        SnapshotCodec {
            encode: |_snap, _buf| {},
            decode: |_r| Ok(OpSnapshot::new(())),
        }
    }
}

impl std::fmt::Debug for SnapshotCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SnapshotCodec(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct DemoState {
        counter: u64,
        items: Vec<i64>,
    }

    #[test]
    fn snapshot_round_trip() {
        let st = DemoState {
            counter: 9,
            items: vec![1, 2, 3],
        };
        let snap = OpSnapshot::new(st.clone());
        assert_eq!(snap.get::<DemoState>(), &st);
    }

    #[test]
    fn snapshot_clone_shares_the_capture() {
        let snap = OpSnapshot::new(DemoState {
            counter: 1,
            items: vec![5],
        });
        let copy = snap.clone();
        assert_eq!(copy.get::<DemoState>().items, vec![5]);
        assert!(
            std::ptr::eq(copy.get::<DemoState>(), snap.get::<DemoState>()),
            "cloning a snapshot bumps a reference count, it does not copy state"
        );
    }

    #[test]
    fn share_is_a_refcount_bump_and_cow_diverges() {
        let mut state = Arc::new(DemoState {
            counter: 1,
            items: vec![7],
        });
        let snap = OpSnapshot::share(&state);
        // Mutating through make_mut diverges the live state lazily...
        Arc::make_mut(&mut state).counter = 2;
        // ...while the snapshot still sees the captured value.
        assert_eq!(snap.get::<DemoState>().counter, 1);
        // Restore adopts the capture; it stays restorable afterwards.
        let restored: Arc<DemoState> = snap.shared();
        assert_eq!(restored.counter, 1);
        assert_eq!(snap.get::<DemoState>().counter, 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn wrong_type_panics() {
        let snap = OpSnapshot::new(1u64);
        let _ = snap.get::<String>();
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn wrong_type_shared_panics() {
        let snap = OpSnapshot::new(1u64);
        let _: Arc<String> = snap.shared();
    }
}
