//! The runtime abstraction that decouples the DPC protocol from any
//! particular execution engine.
//!
//! Every protocol participant — [`crate::node::ProcessingNode`],
//! [`crate::source::DataSource`], [`crate::client::ClientProxy`] — is
//! written against two small traits, defined once in `borealis-sim` next to
//! the link fabric and re-exported here at the names protocol code uses:
//!
//! * [`RuntimeCtx`]`<NetMsg>` (`borealis_sim::Ctx`): the handler-side view
//!   of a runtime (clock, messaging, timers, reachability, randomness). The
//!   deterministic simulator's kernel implements it (virtual time, seeded
//!   RNG), and so does the worker pool's context in `borealis-runtime`
//!   (monotonic wall clock, mailboxes, sockets). It has one send verb,
//!   and it means "now": a runtime delivers and wakes, it never sends for
//!   an actor — pacing is the actor's own state ([`crate::Publisher`]).
//! * [`DpcActor`]`<NetMsg>` (`borealis_sim::Actor`): the actor interface.
//!   It takes `&mut dyn RuntimeCtx`, so every runtime drives the same boxed
//!   protocol actors without knowing their concrete types.
//!
//! The protocol types implement `DpcActor<NetMsg>` directly — one body,
//! no adapters, no `#[cfg]` forks: the exact same protocol code runs under
//! virtual and wall-clock time. What a send, an arrival or a fault *means*
//! (reachability, shard routing, credits, loss accounting) is not decided
//! here or in any runtime either: that is `borealis_sim::Fabric`.

pub use borealis_sim::{Actor as DpcActor, Ctx as RuntimeCtx};

/// A scripted [`RuntimeCtx`] for unit tests of protocol code: the test sets
/// the clock and plays the runtime (delivering messages, firing timers — or
/// not, or late, or in any order); everything the code under test sends or
/// arms is recorded.
#[cfg(test)]
pub(crate) mod fake {
    use super::RuntimeCtx;
    use crate::msg::NetMsg;
    use borealis_types::{Duration, NodeId, Time};

    #[derive(Default)]
    pub(crate) struct FakeCtx {
        pub now: Time,
        pub id: NodeId,
        /// Every send so far: (instant, destination, message).
        pub sent: Vec<(Time, NodeId, NetMsg)>,
        /// Every timer armed so far: (due instant, kind).
        pub timers: Vec<(Time, u64)>,
        /// What [`RuntimeCtx::outbound_stall`] answers, for every link.
        pub stall: Duration,
    }

    impl RuntimeCtx<NetMsg> for FakeCtx {
        fn now(&self) -> Time {
            self.now
        }
        fn id(&self) -> NodeId {
            self.id
        }
        fn send(&mut self, to: NodeId, msg: NetMsg) {
            self.sent.push((self.now, to, msg));
        }
        fn data_consumed_at(&mut self, _at: Time) {}
        fn outbound_stall(&self, _to: NodeId) -> Duration {
            self.stall
        }
        fn set_timer(&mut self, at: Time, kind: u64) {
            self.timers.push((at.max(self.now), kind));
        }
        fn reachable(&self, _to: NodeId) -> bool {
            true
        }
        fn rand_range(&mut self, _n: u64) -> u64 {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::NetMsg;
    use borealis_sim::{Fabric, Sim};
    use borealis_types::{Duration, NodeId, Time};

    /// An actor written purely against RuntimeCtx, driven by the simulator:
    /// exercises the full surface
    /// (now/id/send/set_timer/reachable/rand_range).
    struct Probe {
        peer: NodeId,
        got: Vec<(u64, String)>,
    }

    impl DpcActor<NetMsg> for Probe {
        fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
            assert!(ctx.reachable(self.peer));
            let r = ctx.rand_range(10);
            assert!(r < 10);
            ctx.set_timer(ctx.now() + Duration::from_millis(5), 42);
            ctx.send(
                self.peer,
                NetMsg::Unsubscribe {
                    stream: borealis_types::StreamId(7),
                },
            );
        }
        fn on_message(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, _from: NodeId, msg: NetMsg) {
            let kind = match msg {
                NetMsg::Unsubscribe { .. } => "unsubscribe",
                NetMsg::HeartbeatReq => "hb-req",
                other => panic!("a probe sends no {other:?}"),
            };
            self.got.push((ctx.now().as_millis(), kind.into()));
        }
        fn on_timer(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, kind: u64) {
            self.got
                .push((ctx.now().as_millis(), format!("timer{kind}")));
            ctx.send(self.peer, NetMsg::HeartbeatReq);
        }
    }

    #[test]
    fn sim_ctx_satisfies_runtime_ctx() {
        let mut sim: Sim<NetMsg> = Sim::new(1, Duration::from_millis(1), Fabric::default());
        let a = sim.add_actor(Box::new(Probe {
            peer: NodeId(1),
            got: Vec::new(),
        }));
        let _b = sim.add_actor(Box::new(Probe {
            peer: a,
            got: Vec::new(),
        }));
        sim.run_until(Time::from_secs(1));
        // Both probes exchanged messages and fired their timers; the run
        // completing without panics exercises every RuntimeCtx method.
    }
}
