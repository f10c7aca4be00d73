//! The actor interface every runtime drives, and the handler-side context
//! every runtime supplies.
//!
//! Protocol participants are written once against [`Actor`] and
//! `&mut dyn` [`Ctx`]; the simulator kernel, the worker pool and the TCP
//! deployment each provide a `Ctx` implementation and drive the *same*
//! boxed actors — every one of them through the one activation step,
//! [`ActorCell::activate`](crate::ActorCell::activate), which decides when
//! each handler below runs. Both traits are generic over the message type
//! `M` so the kernel's own tests can substitute toy messages; deployments
//! instantiate them at `borealis_dpc::NetMsg` (where they are re-exported
//! as `DpcActor` and `RuntimeCtx`).
//!
//! *Actors send, runtimes deliver and wake.* There is one send verb,
//! [`Ctx::send`], and it means "now": an actor that wants a message to
//! leave later keeps it in its own state behind a timer and sends it from
//! the handler the timer wakes (`borealis_dpc::Publisher` does exactly that
//! for the CPU cost model). Every send thus happens inside one of the
//! actor's own handlers, which a runtime runs one at a time — so each link
//! carries an actor's messages in program order on every runtime, and the
//! §2.2 "reliable, in-order" link needs no sequence numbers to hold.

use crate::fault::FaultEvent;
use borealis_types::{Duration, NodeId, Time};

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

    /// Sends `msg` to `to`, now, through the runtime's link
    /// [`Fabric`](crate::Fabric) — the only way a message leaves an actor.
    /// Lost (and counted) if the link or either endpoint is down; under a
    /// bounded credit policy a data message may instead wait at the sender
    /// for credit, released in FIFO order once the receiver consumes
    /// earlier deliveries. Either way the sender learns nothing: DPC
    /// recovers losses end to end (acks, replay), never per send.
    fn send(&mut self, to: NodeId, msg: M);

    /// Marks the data message currently being handled as consumed at `at`
    /// (the receiver's modeled CPU completion): its link credit returns
    /// then. Handlers that never call this consume instantly.
    fn data_consumed_at(&mut self, at: Time);

    /// Continuous credit-stall duration of this actor's own link to `to`
    /// ([`Duration::ZERO`] when credit flows or flow control is off), read
    /// off the sender's ledger — its home on every runtime. The sender
    /// reports it to `to` in its keep-alive reply: how an overloaded
    /// consumer's backpressure reaches its protocol layer and `SUnion`.
    fn outbound_stall(&self, to: NodeId) -> Duration;

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
