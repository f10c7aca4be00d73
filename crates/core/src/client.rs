//! The client proxy (§2.2): applications "communicate with the system
//! through proxies … that implement the required functionality".
//!
//! The proxy runs the consumer half of DPC for each output stream it
//! watches: subscription with exact resume positions, keep-alive monitoring
//! of the producing replicas, Table II switching (preferring stable
//! replicas — Property 3), UNDO/correction application, and cumulative acks
//! for upstream buffer truncation. Every arriving tuple is recorded into a
//! [`MetricsHub`] so experiments can read `Procnew` and `Ntentative`
//! afterwards.

use crate::metrics::{MetricsHub, StreamRecorder};
use crate::msg::NetMsg;
use crate::runtime::{DpcActor, RuntimeCtx};
use crate::upstream::{UpstreamAction, UpstreamManager};
use borealis_sim::FaultEvent;
use borealis_types::{Duration, NodeId, StreamId, Tuple};

/// Tuning knobs for a client proxy.
#[derive(Debug, Clone)]
pub struct ClientTuning {
    /// Keep-alive period.
    pub heartbeat_period: Duration,
    /// Silence after which a producing replica is considered Failed.
    pub stale_timeout: Duration,
    /// Cumulative-ack period.
    pub ack_period: Duration,
}

impl Default for ClientTuning {
    fn default() -> Self {
        ClientTuning {
            heartbeat_period: Duration::from_millis(100),
            stale_timeout: Duration::from_millis(250),
            ack_period: Duration::from_secs(1),
        }
    }
}

/// One watched stream: the stream and the replicas producing it.
#[derive(Debug, Clone)]
pub struct ClientStream {
    /// Output stream to consume.
    pub stream: StreamId,
    /// Producing replicas (monitored and switched between).
    pub candidates: Vec<NodeId>,
}

const TIMER_HEARTBEAT: u64 = 1;
const TIMER_ACK: u64 = 2;

/// The client-proxy actor.
pub struct ClientProxy {
    streams: Vec<ClientStream>,
    tuning: ClientTuning,
    metrics: MetricsHub,
    ums: Vec<UpstreamManager>,
    /// Per-watched-stream metric shards, parallel to `ums` — resolved once
    /// at startup so the delivery hot path locks only its own stream's
    /// recorder (once per batch), never the hub registry.
    recorders: Vec<StreamRecorder>,
}

impl ClientProxy {
    /// Creates a proxy consuming `streams`, recording into `metrics`.
    pub fn new(streams: Vec<ClientStream>, tuning: ClientTuning, metrics: MetricsHub) -> Self {
        ClientProxy {
            streams,
            tuning,
            metrics,
            ums: Vec::new(),
            recorders: Vec::new(),
        }
    }

    fn apply_actions(
        &self,
        ctx: &mut dyn RuntimeCtx<NetMsg>,
        stream: StreamId,
        actions: Vec<UpstreamAction>,
    ) {
        for a in actions {
            match a {
                UpstreamAction::Subscribe {
                    to,
                    last_stable,
                    saw_tentative,
                    fresh_only,
                } => {
                    ctx.send(
                        to,
                        NetMsg::Subscribe {
                            stream,
                            last_stable,
                            saw_tentative,
                            fresh_only,
                        },
                    );
                }
                UpstreamAction::Unsubscribe { from } => {
                    ctx.send(from, NetMsg::Unsubscribe { stream });
                }
            }
        }
    }
}

/// The protocol body, written once against [`RuntimeCtx`] and driven
/// unchanged by every runtime.
impl DpcActor<NetMsg> for ClientProxy {
    /// Startup: subscribe to every watched stream, arm the timers.
    fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
        let now = ctx.now();
        for cs in self.streams.clone() {
            let monitor = cs.candidates.len() > 1;
            let mut um = UpstreamManager::new(cs.stream, cs.candidates, monitor, now);
            let actions = um.initial_subscribe();
            self.ums.push(um);
            self.recorders.push(self.metrics.recorder(cs.stream));
            self.apply_actions(ctx, cs.stream, actions);
        }
        ctx.set_timer(now + self.tuning.heartbeat_period, TIMER_HEARTBEAT);
        ctx.set_timer(now + self.tuning.ack_period, TIMER_ACK);
    }

    /// Handles one protocol message.
    fn on_message(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, from: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Data { stream, tuples } => {
                let now = ctx.now();
                let Some(i) = self.ums.iter().position(|u| u.stream() == stream) else {
                    return;
                };
                if !self.ums[i].accepts_from(from) {
                    return;
                }
                let mut actions = Vec::new();
                let mut accepted: Vec<&Tuple> = Vec::with_capacity(tuples.len());
                for t in tuples.iter() {
                    if self.ums[i].is_duplicate(t) {
                        continue; // retransmission after a link heal
                    }
                    actions.extend(self.ums[i].observe_tuple(from, t));
                    accepted.push(t);
                }
                // One lock acquisition per delivered batch, on this
                // stream's own shard (none when everything was a
                // duplicate, e.g. a post-heal retransmission storm).
                if !accepted.is_empty() {
                    self.recorders[i].record_all(now, accepted);
                }
                self.apply_actions(ctx, stream, actions);
            }
            NetMsg::HeartbeatResp {
                node_state,
                stream_states,
            } => {
                let now = ctx.now();
                let stale = self.tuning.stale_timeout;
                for i in 0..self.ums.len() {
                    self.ums[i].heartbeat_response(from, node_state, &stream_states, now);
                    let actions = self.ums[i].evaluate(now, stale);
                    let stream = self.ums[i].stream();
                    self.apply_actions(ctx, stream, actions);
                }
            }
            _ => {}
        }
    }

    /// Handles one timer callback.
    fn on_timer(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, kind: u64) {
        let now = ctx.now();
        match kind {
            TIMER_HEARTBEAT => {
                let stale = self.tuning.stale_timeout;
                for i in 0..self.ums.len() {
                    let actions = self.ums[i].evaluate(now, stale);
                    let stream = self.ums[i].stream();
                    self.apply_actions(ctx, stream, actions);
                    for target in self.ums[i].heartbeat_targets() {
                        ctx.send(target, NetMsg::HeartbeatReq);
                    }
                }
                ctx.set_timer(now + self.tuning.heartbeat_period, TIMER_HEARTBEAT);
            }
            TIMER_ACK => {
                for um in &self.ums {
                    let through = um.last_stable();
                    for &cand in um.candidates() {
                        ctx.send(
                            cand,
                            NetMsg::Ack {
                                stream: um.stream(),
                                through,
                            },
                        );
                    }
                }
                ctx.set_timer(now + self.tuning.ack_period, TIMER_ACK);
            }
            _ => {}
        }
    }

    /// Reacts to a fault notification: a torn transport connection (crash
    /// of a producer's process) invalidates the subscriptions that process
    /// held for us — the next evaluation switches to a live replica or
    /// re-subscribes when the producer recovers from disk.
    fn on_fault(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, fault: &FaultEvent) {
        if let FaultEvent::NodeDown(n) = fault {
            if *n == ctx.id() {
                return;
            }
            let now = ctx.now();
            for um in &mut self.ums {
                um.connection_lost(*n, now);
            }
        }
    }
}
