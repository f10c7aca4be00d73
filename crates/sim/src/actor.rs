//! The actor interface every runtime drives, and the handler-side context
//! every runtime supplies.
//!
//! Protocol participants are written once against [`Actor`] and
//! `&mut dyn` [`Ctx`]; the simulator kernel, the worker pool and the TCP
//! deployment each provide a `Ctx` implementation and drive the *same*
//! boxed actors. Both traits are generic over the message type `M` so the
//! kernel's own tests can substitute toy messages; deployments instantiate
//! them at `borealis_dpc::NetMsg` (where they are re-exported as `DpcActor`
//! and `RuntimeCtx`).

use crate::fault::FaultEvent;
use borealis_types::{Duration, NodeId, SendOutcome, Time};

/// The handler-side view of a runtime: what an actor may do while reacting
/// to an event.
///
/// Protocol code must not assume anything beyond this interface — in
/// particular, `now()` may be virtual or wall-clock time, and `send` may
/// deliver with simulated or native latency.
pub trait Ctx<M> {
    /// Current time (virtual in the simulator, monotonic wall clock in the
    /// thread engine).
    fn now(&self) -> Time;

    /// This actor's id.
    fn id(&self) -> NodeId;

    /// Sends `msg` to `to` through the runtime's link
    /// [`Fabric`](crate::Fabric). Lost if the link or either endpoint is
    /// down ([`SendOutcome::DroppedFault`]); under a bounded credit policy
    /// a data message may instead be queued at the sender awaiting credit
    /// ([`SendOutcome::Queued`] — released in FIFO order once the receiver
    /// consumes earlier deliveries).
    fn send(&mut self, to: NodeId, msg: M) -> SendOutcome;

    /// Sends `msg` so it departs at `depart` (clamped to now) — used by the
    /// CPU cost model: outputs leave the node when the work completes. A
    /// future departure reports [`SendOutcome::Deferred`]; credit
    /// admission happens at the departure instant.
    fn send_after(&mut self, to: NodeId, msg: M, depart: Time) -> SendOutcome;

    /// Marks the data message currently being handled as consumed at `at`
    /// (the receiver's modeled CPU completion): its link credit returns
    /// then. Handlers that never call this consume instantly.
    fn data_consumed_at(&mut self, at: Time);

    /// Continuous credit-stall duration of the inbound link `from → self`:
    /// how long `from`'s sends to this actor have been queued awaiting
    /// credit ([`Duration::ZERO`] when credit is flowing or flow control is
    /// off). This is how an overloaded consumer's backpressure is surfaced
    /// to the protocol layer (and from there to `SUnion`).
    fn inbound_stall(&self, from: NodeId) -> Duration;

    /// Schedules an `on_timer(kind)` callback at `at` (clamped to now).
    fn set_timer(&mut self, at: Time, kind: u64);

    /// True if `to` is currently reachable from this actor.
    fn reachable(&self, to: NodeId) -> bool;

    /// Uniform random sample from `[0, n)`; deterministic (seeded) in the
    /// simulator.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    fn rand_range(&mut self, n: u64) -> u64;
}

/// A participant of a deployment: processing node, data source, or client
/// proxy — the boxed interface a runtime uses to drive them without knowing
/// which is which.
///
/// `Send` is required so the thread engine can run an actor on whichever
/// pool worker picks it up; the simulator ignores the bound.
pub trait Actor<M>: Send {
    /// Called once when the runtime starts the actor.
    fn on_start(&mut self, _ctx: &mut dyn Ctx<M>) {}

    /// Handles a message delivered from another actor.
    fn on_message(&mut self, ctx: &mut dyn Ctx<M>, from: NodeId, msg: M);

    /// Handles a timer previously set with [`Ctx::set_timer`].
    fn on_timer(&mut self, ctx: &mut dyn Ctx<M>, kind: u64);

    /// Notified of faults involving this actor (link/node failures, custom
    /// scripted faults).
    fn on_fault(&mut self, _ctx: &mut dyn Ctx<M>, _fault: &FaultEvent) {}
}
