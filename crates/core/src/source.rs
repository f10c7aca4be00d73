//! Data sources (§2.2).
//!
//! Sources stamp tuples with the (virtual) clock, emit periodic boundary
//! tuples as punctuation + heartbeat (§4.2.1), and "log input tuples
//! persistently before transmitting them to all replicas that process the
//! corresponding streams". The paper lets sources take part in DPC through
//! a proxy running the same functionality as a node, and that is what this
//! actor is: a generator in front of the producer half every producing
//! actor shares ([`Publisher`]) — one stream, a log never truncated, whole
//! batches per message, no modelled CPU (everything leaves at once). A
//! subscriber cut off by a link failure is sent to regardless (the fabric
//! counts the drops); when the link heals it is rewound to its acknowledged
//! position — the paper's "the data source replays all missing tuples while
//! continuing to produce new tuples".
//!
//! Scripted faults: [`DataSource::MUTE_BOUNDARIES`] suppresses boundary
//! production only (the §6.2 failure mode used by the chain experiments,
//! where the output rate must stay unchanged), and link failures are
//! injected at the network layer.

use crate::buffers::BufferPolicy;
use crate::msg::{NetMsg, NodeState};
use crate::publisher::Publisher;
use crate::runtime::{DpcActor, RuntimeCtx};
use borealis_sim::FaultEvent;
use borealis_types::{
    Duration, NodeId, Payload, StreamId, Time, Tuple, TupleBatch, TupleId, Value,
};

/// Deterministic tuple-payload generators.
#[derive(Debug, Clone)]
pub enum ValueGen {
    /// `[Int(seq)]` — a sequence number.
    Seq,
    /// `[Int(seq % keys), Int(seq)]` — a group key plus sequence.
    Keyed {
        /// Number of distinct keys.
        keys: i64,
    },
}

impl ValueGen {
    /// The payload of tuple `seq`: inline for `Seq`, else built in its one
    /// shared allocation (an array converts in place; a `Vec` would be
    /// allocated and then copied).
    fn gen(&self, seq: u64) -> Payload {
        match self {
            ValueGen::Seq => Payload::One(Value::Int(seq as i64)),
            ValueGen::Keyed { keys } => {
                [Value::Int(seq as i64 % keys), Value::Int(seq as i64)].into()
            }
        }
    }
}

/// Static configuration of one data source.
#[derive(Debug, Clone)]
pub struct SourceConfig {
    /// The stream this source produces.
    pub stream: StreamId,
    /// Data rate in tuples per second.
    pub rate: f64,
    /// Boundary (punctuation/heartbeat) period; `Duration::ZERO` disables
    /// boundaries (the paper's non-fault-tolerant baseline).
    pub boundary_interval: Duration,
    /// Generation tick: tuples are produced in batches every tick.
    pub batch_period: Duration,
    /// Payload generator.
    pub values: ValueGen,
    /// Stop generating data after this many tuples (`None` = unbounded).
    /// Boundaries keep flowing afterwards, so downstream buckets still
    /// stabilize — this models a finite load episode (e.g. an overload
    /// burst that later drains).
    pub limit: Option<u64>,
}

impl SourceConfig {
    /// A sequence source at `rate` tuples/second with 100 ms boundaries.
    pub fn seq(stream: StreamId, rate: f64) -> SourceConfig {
        SourceConfig {
            stream,
            rate,
            boundary_interval: Duration::from_millis(100),
            batch_period: Duration::from_millis(10),
            values: ValueGen::Seq,
            limit: None,
        }
    }
}

const TIMER_GEN: u64 = 1;
const TIMER_BOUNDARY: u64 = 2;

/// Where a periodic timer is armed: the first multiple of `period` after
/// `now`. Boundaries close buckets `[kB, (k+1)B)`, so ticks on that grid
/// release a bucket the instant it ends; ticks in whatever phase the actor
/// happened to start (or a late tick re-armed at `now + period`) make every
/// bucket wait out that phase on a wall-clock runtime. Under the simulator
/// `now` is already on the grid and this is `now + period`.
fn next_tick(now: Time, period: Duration) -> Time {
    let period = period.as_micros().max(1);
    Time((now.as_micros() / period + 1) * period)
}

/// The data-source actor.
pub struct DataSource {
    cfg: SourceConfig,
    /// The persistent input log and its subscribers: the producer half,
    /// never truncating.
    out: Publisher,
    next_id: u64,
    boundaries_muted: bool,
}

impl DataSource {
    /// Custom fault tag: stop producing boundary tuples (§6.2 failures).
    pub const MUTE_BOUNDARIES: u64 = 1;
    /// Custom fault tag: resume producing boundary tuples.
    pub const UNMUTE_BOUNDARIES: u64 = 2;

    /// Creates a source from its configuration.
    pub fn new(cfg: SourceConfig) -> DataSource {
        // One stream, no ack count that would ever allow truncation (the
        // log is persistent, §2.2; acks still mark the rewind point after a
        // link failure), and every generated batch as one message.
        let out = Publisher::new(
            [(cfg.stream, usize::MAX)],
            BufferPolicy::Unbounded,
            usize::MAX,
        );
        DataSource {
            cfg,
            out,
            next_id: 1,
            boundaries_muted: false,
        }
    }

    /// The deterministic stime of sequence number `id`: `id / rate` after
    /// the origin, independent of when generation actually runs.
    fn stime_of(&self, id: u64) -> Time {
        Time((id as f64 * 1_000_000.0 / self.cfg.rate) as u64)
    }

    /// Generates every tuple whose stime has been reached by `now`.
    ///
    /// Generation is time-based (not tick-based) so it can run from both
    /// the generation timer and the boundary timer: a boundary with stime
    /// `now` may only be emitted after every tuple with stime <= `now` is
    /// in the log — the §4.2.1 punctuation contract.
    ///
    /// Stimes (and payloads) are pure functions of the sequence number, so
    /// the logged stream is identical run to run and **runtime to
    /// runtime**: the discrete-event simulator and the wall-clock thread
    /// engine feed byte-identical input into the diagram, which is what
    /// makes cross-runtime output equivalence testable. Timer jitter only
    /// affects *when* a tuple is released, never its content.
    ///
    /// The generated tuples — followed by a boundary at `now`, if asked for
    /// — are logged as one batch and sent to every subscriber at once.
    fn emit(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, boundary: bool) {
        let now = ctx.now();
        let mut batch = Vec::new();
        while self.cfg.limit.is_none_or(|l| self.next_id <= l) && self.stime_of(self.next_id) <= now
        {
            batch.push(Tuple::insertion(
                TupleId(self.next_id),
                self.stime_of(self.next_id),
                self.cfg.values.gen(self.next_id),
            ));
            self.next_id += 1;
        }
        if boundary {
            batch.push(Tuple::boundary(TupleId::NONE, now));
        }
        self.out
            .publish(self.cfg.stream, TupleBatch::from_vec(batch));
        self.out.flush(ctx, now, now);
    }
}

/// The protocol body, written once against [`RuntimeCtx`] and driven
/// unchanged by every runtime.
impl DpcActor<NetMsg> for DataSource {
    /// Startup: arm the generation and boundary timers.
    fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
        ctx.set_timer(next_tick(ctx.now(), self.cfg.batch_period), TIMER_GEN);
        if self.cfg.boundary_interval > Duration::ZERO {
            let at = next_tick(ctx.now(), self.cfg.boundary_interval);
            ctx.set_timer(at, TIMER_BOUNDARY);
        }
    }

    /// Handles one protocol message.
    fn on_message(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, from: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Subscribe { .. } | NetMsg::Unsubscribe { .. } | NetMsg::Ack { .. } => {
                let now = ctx.now();
                self.out.on_message(ctx, from, msg, now);
            }
            NetMsg::HeartbeatReq => {
                ctx.send(
                    from,
                    NetMsg::HeartbeatResp {
                        node_state: NodeState::Stable,
                        stream_states: vec![(self.cfg.stream, NodeState::Stable)],
                        stalled: ctx.outbound_stall(from),
                    },
                );
            }
            _ => {}
        }
    }

    /// Handles one timer callback.
    fn on_timer(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, kind: u64) {
        match kind {
            TIMER_GEN => {
                self.emit(ctx, false);
                ctx.set_timer(next_tick(ctx.now(), self.cfg.batch_period), TIMER_GEN);
            }
            TIMER_BOUNDARY => {
                if !self.boundaries_muted {
                    // Data with stime <= now must precede the boundary.
                    self.emit(ctx, true);
                }
                let at = next_tick(ctx.now(), self.cfg.boundary_interval);
                ctx.set_timer(at, TIMER_BOUNDARY);
            }
            _ => {}
        }
    }

    /// Reacts to a fault notification (boundary muting; link heals and torn
    /// subscriber connections are the producer half's).
    fn on_fault(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, fault: &FaultEvent) {
        match fault {
            FaultEvent::Custom { tag, .. } if *tag == Self::MUTE_BOUNDARIES => {
                self.boundaries_muted = true;
            }
            FaultEvent::Custom { tag, .. } if *tag == Self::UNMUTE_BOUNDARIES => {
                self.boundaries_muted = false;
            }
            _ => {
                let now = ctx.now();
                self.out.on_fault(ctx, fault, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::fake::FakeCtx;

    /// Both periodic timers sit on the grid of their period whatever phase
    /// the actor starts in, and a tick that fires late does not drag the
    /// chain off it.
    #[test]
    fn timers_are_armed_on_the_period_grid() {
        let mut source = DataSource::new(SourceConfig::seq(StreamId(1), 100.0));
        let mut ctx = FakeCtx {
            now: Time::from_millis(37),
            ..FakeCtx::default()
        };
        source.on_start(&mut ctx);
        assert_eq!(
            ctx.timers,
            vec![
                (Time::from_millis(40), TIMER_GEN),
                (Time::from_millis(100), TIMER_BOUNDARY)
            ]
        );
        ctx.now = Time(203_700);
        source.on_timer(&mut ctx, TIMER_BOUNDARY);
        assert_eq!(
            ctx.timers.last(),
            Some(&(Time::from_millis(300), TIMER_BOUNDARY))
        );
    }
}
