//! SOutput: output-stream stabilization (§3, §4.4.2).
//!
//! An SOutput sits on every stream that crosses a node boundary. At runtime
//! it is a pass-through filter that remembers the last *stable* tuple it
//! forwarded — batch-natively: [`Operator::process_batch`] forwards the
//! batch it was given and allocates nothing. During state reconciliation
//! it:
//!
//! 1. drops the duplicate stable tuples regenerated by the replay (outputs
//!    the node had already sent before checkpointing),
//! 2. emits a single **UNDO** identifying the tentative suffix to roll back
//!    when it sees the first genuinely new tuple, and
//! 3. forwards the REC_DONE marker downstream and signals the Consistency
//!    Manager that stabilization of this stream finished.
//!
//! Unlike every other operator, SOutput is **not** restored during
//! fragment-wide reconciliation: its duplicate-suppression memory spans
//! the rollback.

use crate::snapshot::SnapshotCodec;
use crate::{BatchEmitter, OpSnapshot, Operator};
use borealis_types::wire_struct;
use borealis_types::{ControlSignal, Time, Tuple, TupleBatch, TupleId, TupleKind};
use std::sync::Arc;

wire_struct! {
    /// Runtime memory of an SOutput.
    #[derive(Debug, Clone, Default)]
    struct SOutputState {
        /// Id of the last stable data tuple forwarded downstream.
        last_stable: TupleId,
        /// True if tentative tuples were forwarded after the last stable one
        /// (an UNDO will be required to stabilize the stream).
        tentative_since_stable: bool,
        /// True while deduplicating a reconciliation replay.
        stabilizing: bool,
        /// True once this stabilization's UNDO has been emitted.
        undo_emitted: bool,
    }
}

/// The output-stabilizing pass-through operator.
pub struct SOutput {
    /// Copy-on-write state: checkpoints share this `Arc` (see
    /// [`crate::snapshot`] for the contract).
    state: Arc<SOutputState>,
}

impl Default for SOutput {
    fn default() -> Self {
        Self::new()
    }
}

impl SOutput {
    /// Builds a fresh SOutput.
    pub fn new() -> SOutput {
        SOutput {
            state: Arc::new(SOutputState::default()),
        }
    }

    /// Enters duplicate-suppression mode for a reconciliation replay;
    /// called by the fragment right after restoring the other operators.
    pub fn begin_stabilization(&mut self) {
        let st = Arc::make_mut(&mut self.state);
        st.stabilizing = true;
        st.undo_emitted = false;
    }

    /// Id of the last stable tuple forwarded (for tests and diagnostics).
    pub fn last_stable(&self) -> TupleId {
        self.state.last_stable
    }

    /// True if the stream currently ends in an uncorrected tentative suffix
    /// — the per-stream failure indicator used for fine-grained state
    /// advertisement (§8.2).
    pub fn tentative_since_stable(&self) -> bool {
        self.state.tentative_since_stable
    }

    /// Emits the pending UNDO if the stream has a tentative suffix that has
    /// not been rolled back yet.
    fn emit_undo_if_needed(&mut self, out: &mut BatchEmitter) {
        if self.state.tentative_since_stable && !self.state.undo_emitted {
            out.push(Tuple::undo(TupleId::NONE, self.state.last_stable));
            let st = Arc::make_mut(&mut self.state);
            st.undo_emitted = true;
            st.tentative_since_stable = false;
        }
    }

    /// The §4.4.2 protocol for one tuple — the only copy of it: duplicate
    /// suppression and the single UNDO while stabilizing, REC_DONE ending
    /// the stabilization. `process_batch` falls back to it whenever a batch
    /// is not a pure pass-through.
    fn step(&mut self, tuple: &Tuple, out: &mut BatchEmitter) {
        match tuple.kind {
            TupleKind::Insertion => {
                if self.state.stabilizing {
                    if tuple.id <= self.state.last_stable {
                        // Duplicate regenerated by the replay: drop (§4.4.2).
                        return;
                    }
                    self.emit_undo_if_needed(out);
                }
                let st = Arc::make_mut(&mut self.state);
                st.last_stable = tuple.id;
                st.tentative_since_stable = false;
                out.push(tuple.clone());
            }
            TupleKind::Tentative => {
                if self.state.stabilizing {
                    // "…or another tentative tuple" also triggers the UNDO:
                    // the replay has caught up and a new failure follows.
                    self.emit_undo_if_needed(out);
                }
                Arc::make_mut(&mut self.state).tentative_since_stable = true;
                out.push(tuple.clone());
            }
            TupleKind::Boundary => {
                if self.state.stabilizing
                    && self.state.tentative_since_stable
                    && !self.state.undo_emitted
                {
                    // Replay-duplicate boundaries before the UNDO are
                    // dropped; fresh ones follow the corrections.
                    return;
                }
                out.push(tuple.clone());
            }
            TupleKind::RecDone => {
                // End of this stream's stabilization: roll back any
                // remaining tentative suffix, forward the marker, and tell
                // the Consistency Manager.
                self.emit_undo_if_needed(out);
                let st = Arc::make_mut(&mut self.state);
                st.stabilizing = false;
                st.undo_emitted = false;
                out.push(tuple.clone());
                out.signal(ControlSignal::RecDone);
            }
            TupleKind::Undo => out.push(tuple.clone()),
        }
    }
}

impl Operator for SOutput {
    /// The failure-free path (§4.4.2: "a pass-through filter that remembers
    /// the last stable tuple"): outside stabilization every tuple is
    /// forwarded as it is and only REC_DONE does more than update the two
    /// remembered facts, so one scan folds them over the batch and the
    /// *same* batch goes downstream — no tuple is touched, nothing is
    /// allocated. Stabilization and REC_DONE take the per-tuple
    /// `step` above, which stays the only copy of the protocol.
    fn process_batch(&mut self, _: usize, batch: &TupleBatch, _: Time, out: &mut BatchEmitter) {
        let st = &self.state;
        let folded = if st.stabilizing {
            None
        } else {
            batch.iter().try_fold(
                (st.last_stable, st.tentative_since_stable),
                |(last_stable, tentative), t| match t.kind {
                    TupleKind::Insertion => Some((t.id, false)),
                    TupleKind::Tentative => Some((last_stable, true)),
                    TupleKind::Boundary | TupleKind::Undo => Some((last_stable, tentative)),
                    TupleKind::RecDone => None,
                },
            )
        };
        let Some(memory) = folded else {
            for t in batch.as_slice() {
                self.step(t, out);
            }
            return;
        };
        if memory != (st.last_stable, st.tentative_since_stable) {
            let st = Arc::make_mut(&mut self.state);
            (st.last_stable, st.tentative_since_stable) = memory;
        }
        out.push_batch(batch.clone());
    }

    fn checkpoint(&self) -> OpSnapshot {
        OpSnapshot::share(&self.state)
    }

    fn restore(&mut self, snap: &OpSnapshot) {
        self.state = snap.shared::<SOutputState>();
    }

    // Reconciliation never restores SOutput, but *durable* restart must:
    // `last_stable` is exactly the duplicate-suppression memory that lets a
    // process restarted from disk replay its inputs without re-emitting
    // tuples downstream consumers already acked.
    fn snapshot_codec(&self) -> SnapshotCodec {
        SnapshotCodec::of::<SOutputState>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::Value;

    fn stable(id: u64) -> Tuple {
        Tuple::insertion(
            TupleId(id),
            Time::from_millis(id),
            vec![Value::Int(id as i64)],
        )
    }

    fn tentative(id: u64) -> Tuple {
        Tuple::tentative(
            TupleId(id),
            Time::from_millis(id),
            vec![Value::Int(id as i64)],
        )
    }

    fn run(s: &mut SOutput, t: &Tuple) -> (Vec<Tuple>, Vec<ControlSignal>) {
        let mut out = BatchEmitter::new();
        s.process(0, t, Time::ZERO, &mut out);
        out.take_tuples()
    }

    #[test]
    fn passes_through_and_remembers_last_stable() {
        let mut s = SOutput::new();
        run(&mut s, &stable(1));
        run(&mut s, &stable(2));
        assert_eq!(s.last_stable(), TupleId(2));
    }

    #[test]
    fn reconciliation_drops_duplicates_then_undoes_then_corrects() {
        let mut s = SOutput::new();
        run(&mut s, &stable(1));
        run(&mut s, &stable(2));
        run(&mut s, &tentative(3));
        run(&mut s, &tentative(4));
        s.begin_stabilization();
        // Replay regenerates 1, 2 (duplicates) then corrected 3, 4, 5.
        assert!(run(&mut s, &stable(1)).0.is_empty());
        assert!(run(&mut s, &stable(2)).0.is_empty());
        let (out, _) = run(&mut s, &stable(3));
        assert_eq!(out.len(), 2, "undo then the correction");
        assert_eq!(out[0].kind, TupleKind::Undo);
        assert_eq!(out[0].undo_target(), Some(TupleId(2)));
        assert_eq!(out[1], stable(3));
        let (out, _) = run(&mut s, &stable(4));
        assert_eq!(out, vec![stable(4)], "only one undo per stabilization");
    }

    #[test]
    fn rec_done_finishes_stabilization_and_signals() {
        let mut s = SOutput::new();
        run(&mut s, &stable(1));
        run(&mut s, &tentative(2));
        s.begin_stabilization();
        run(&mut s, &stable(1)); // duplicate
        run(&mut s, &stable(2)); // correction (emits undo first)
        let rd = Tuple::rec_done(TupleId::NONE, Time::from_secs(1));
        let (out, signals) = run(&mut s, &rd);
        assert_eq!(out, vec![rd]);
        assert_eq!(signals, vec![ControlSignal::RecDone]);
        assert!(!s.state.stabilizing);
    }

    #[test]
    fn undo_on_rec_done_when_no_new_stable_arrived() {
        // All failure-era outputs were tentative and the replay regenerates
        // nothing new: the UNDO must still be emitted before REC_DONE.
        let mut s = SOutput::new();
        run(&mut s, &stable(1));
        run(&mut s, &tentative(2));
        s.begin_stabilization();
        run(&mut s, &stable(1)); // duplicate only
        let rd = Tuple::rec_done(TupleId::NONE, Time::from_secs(1));
        let (out, _) = run(&mut s, &rd);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].kind, TupleKind::Undo);
        assert_eq!(out[0].undo_target(), Some(TupleId(1)));
        assert_eq!(out[1].kind, TupleKind::RecDone);
    }

    #[test]
    fn tentative_during_stabilization_triggers_undo_first() {
        // Fig. 11(b): a second failure during recovery — the replay catches
        // up and is followed directly by new tentative data.
        let mut s = SOutput::new();
        run(&mut s, &stable(1));
        run(&mut s, &tentative(2));
        s.begin_stabilization();
        run(&mut s, &stable(1));
        let (out, _) = run(&mut s, &tentative(9));
        assert_eq!(out[0].kind, TupleKind::Undo);
        assert_eq!(out[0].undo_target(), Some(TupleId(1)));
        assert_eq!(out[1].kind, TupleKind::Tentative);
    }

    #[test]
    fn no_undo_when_nothing_tentative_was_emitted() {
        let mut s = SOutput::new();
        run(&mut s, &stable(1));
        s.begin_stabilization();
        run(&mut s, &stable(1));
        let (out, _) = run(&mut s, &stable(2));
        assert_eq!(out, vec![stable(2)], "no tentative suffix, no undo");
    }

    #[test]
    fn boundaries_held_until_undo_during_stabilization() {
        let mut s = SOutput::new();
        run(&mut s, &stable(1));
        run(&mut s, &tentative(2));
        s.begin_stabilization();
        let b = Tuple::boundary(TupleId::NONE, Time::from_millis(50));
        assert!(run(&mut s, &b).0.is_empty(), "pre-undo boundary dropped");
        run(&mut s, &stable(2)); // triggers undo
        assert_eq!(run(&mut s, &b).0.len(), 1, "post-undo boundary passes");
    }

    /// The pass-through fold of `process_batch` against `step`, the
    /// reference it abbreviates: whatever state stepping through a prefix
    /// of a mixed run leaves, the window that follows goes downstream as
    /// the same allocation and leaves the two remembered facts as stepping
    /// through it does.
    #[test]
    fn batch_fold_agrees_with_the_per_tuple_step() {
        let mixed = TupleBatch::from_vec(vec![
            tentative(1),
            stable(2),
            tentative(3),
            Tuple::boundary(TupleId::NONE, Time::from_millis(3)),
            Tuple::undo(TupleId::NONE, TupleId(2)),
            stable(4),
            stable(5),
            Tuple::boundary(TupleId::NONE, Time::from_millis(5)),
        ]);
        for (from, to) in (0..8).flat_map(|i| (i + 1..=8).map(move |j| (i, j))) {
            let (mut folded, mut stepped) = (SOutput::new(), SOutput::new());
            for t in &mixed.as_slice()[..from] {
                folded.step(t, &mut BatchEmitter::new());
                stepped.step(t, &mut BatchEmitter::new());
            }
            let window = mixed.slice(from..to);
            let (mut got, mut want) = (BatchEmitter::new(), BatchEmitter::new());
            folded.process_batch(0, &window, Time::ZERO, &mut got);
            window.iter().for_each(|t| stepped.step(t, &mut want));
            let (chunks, signals) = got.take();
            assert!(chunks.len() == 1 && chunks[0].shares_backing(&mixed));
            assert_eq!((chunks[0].to_vec(), signals), want.take_tuples());
            let facts = |s: &SOutput| (s.last_stable(), s.tentative_since_stable());
            assert_eq!(facts(&folded), facts(&stepped), "window {from}..{to}");
        }
    }
}
