//! The client proxy (§2.2): applications "communicate with the system
//! through proxies … that implement the required functionality".
//!
//! The proxy is the consumer half of DPC ([`Inputs`], the same one a
//! processing node runs) with a recorder behind it instead of a fragment:
//! subscription with exact resume positions, keep-alive monitoring of every
//! producer of every input (a lone one too: a restarted producer has
//! forgotten the subscription, and missed keep-alives are how the proxy
//! learns to renew it), Table II switching (preferring stable replicas —
//! Property 3), duplicate filtering, and cumulative acks for upstream
//! buffer truncation. Every accepted tuple is recorded into a
//! [`MetricsHub`] so experiments can read `Procnew` and `Ntentative`
//! afterwards. It produces no stream, so it has no producer half; what it
//! sends is control traffic through the runtime's single send verb.

use crate::metrics::{MetricsHub, StreamRecorder};
use crate::msg::NetMsg;
use crate::runtime::{DpcActor, RuntimeCtx};
use crate::upstream::{Inputs, UpstreamSpec, ACK_PERIOD};
use borealis_sim::FaultEvent;
use borealis_types::{Duration, NodeId};

const TIMER_HEARTBEAT: u64 = 1;
const TIMER_ACK: u64 = 2;

/// The client-proxy actor.
pub struct ClientProxy {
    streams: Vec<UpstreamSpec>,
    /// Keep-alive period — the deployment's, the same its nodes run with.
    heartbeat_period: Duration,
    metrics: MetricsHub,
    inputs: Inputs,
    /// Per-watched-stream metric shards, parallel to the inputs — resolved
    /// once at startup so the delivery hot path locks only its own stream's
    /// recorder (once per batch), never the hub registry.
    recorders: Vec<StreamRecorder>,
}

impl ClientProxy {
    /// Creates a proxy consuming `streams`, monitoring their producers
    /// every `heartbeat_period` and recording into `metrics`.
    pub fn new(
        streams: Vec<UpstreamSpec>,
        heartbeat_period: Duration,
        metrics: MetricsHub,
    ) -> Self {
        ClientProxy {
            streams,
            heartbeat_period,
            metrics,
            inputs: Inputs::default(),
            recorders: Vec::new(),
        }
    }
}

/// The protocol body, written once against [`RuntimeCtx`] and driven
/// unchanged by every runtime.
impl DpcActor<NetMsg> for ClientProxy {
    /// Startup: subscribe to every watched stream, arm the timers.
    fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
        let now = ctx.now();
        self.inputs = Inputs::new(&self.streams, now);
        let watched = self.streams.iter();
        self.recorders = watched.map(|cs| self.metrics.recorder(cs.stream)).collect();
        self.inputs.subscribe_all(ctx);
        ctx.set_timer(now + self.heartbeat_period, TIMER_HEARTBEAT);
        ctx.set_timer(now + ACK_PERIOD, TIMER_ACK);
    }

    /// Handles one protocol message.
    fn on_message(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, from: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Data { stream, tuples } => {
                let Some((i, fresh, actions)) = self.inputs.intake(from, stream, tuples) else {
                    return;
                };
                // One lock acquisition per delivered batch, on this
                // stream's own shard (none when everything was a
                // duplicate, e.g. a post-heal retransmission storm).
                if !fresh.is_empty() {
                    self.recorders[i].record_all(ctx.now(), fresh.iter());
                }
                Inputs::send(ctx, actions);
            }
            NetMsg::HeartbeatResp {
                node_state,
                stream_states,
                ..
            } => {
                let period = self.heartbeat_period;
                self.inputs
                    .heartbeat_response(ctx, from, node_state, &stream_states, period);
            }
            _ => {}
        }
    }

    /// Handles one timer callback.
    fn on_timer(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, kind: u64) {
        let now = ctx.now();
        match kind {
            TIMER_HEARTBEAT => {
                self.inputs.heartbeat_round(ctx, self.heartbeat_period);
                ctx.set_timer(now + self.heartbeat_period, TIMER_HEARTBEAT);
            }
            TIMER_ACK => {
                self.inputs.send_acks(ctx);
                ctx.set_timer(now + ACK_PERIOD, TIMER_ACK);
            }
            _ => {}
        }
    }

    /// Reacts to a fault notification: a torn transport connection (crash
    /// of a producer's process) invalidates the subscriptions that process
    /// held for us — the next evaluation switches to a live replica or
    /// re-subscribes when the producer recovers from disk.
    fn on_fault(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, fault: &FaultEvent) {
        match fault {
            FaultEvent::NodeDown(n) if *n != ctx.id() => {
                self.inputs.connection_lost(*n, ctx.now());
            }
            _ => {}
        }
    }
}
