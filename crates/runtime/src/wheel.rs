//! The per-worker timer wheel: deadline-ordered deferred work against the
//! monotonic clock.
//!
//! Each pool **worker** (not each actor) owns one wheel — a
//! `borealis_sim::DeadlineQueue<`[`Due`]`>`, the heap type the simulator
//! keeps its events in — holding owner-tagged entries for every actor it
//! has recently run. The worker fires due entries between activations and
//! parks at most until its earliest deadline, so timer precision is bounded
//! by scheduling granularity, not by a polling period.
//!
//! A wheel never holds a message: what an actor wants to leave later stays
//! in its own state behind a timer (`borealis_dpc::Publisher`), so two
//! wheels firing one actor's entries in either order can delay a send but
//! cannot reorder a link. An entry stays on the wheel of the worker that
//! scheduled it; if its owner has migrated since, it still fires on time.

use borealis_types::NodeId;

/// What to do when an entry comes due. Every variant carries the actor it
/// belongs to (`owner`), since one wheel serves many actors.
#[derive(Debug)]
pub enum Due {
    /// Re-enqueue `on_timer(kind)` into `owner`'s mailbox; whether it
    /// fires is the activation step's call.
    Timer {
        /// The actor whose timer fires.
        owner: NodeId,
        /// Timer kind.
        kind: u64,
        /// The incarnation of `owner` that armed it.
        incarnation: u32,
    },
    /// `owner`'s modeled CPU finished consuming a delivery from `from`:
    /// return the link credit (releasing the sender's next queued
    /// message, if any).
    Replenish {
        /// The consuming actor.
        owner: NodeId,
        /// The sender whose link credit returns.
        from: NodeId,
    },
}
