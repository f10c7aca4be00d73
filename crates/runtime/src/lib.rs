//! # borealis-runtime
//!
//! The wall-clock drivers of the DPC protocol: the same
//! `ProcessingNode` / `DataSource` / `ClientProxy` actors that run under
//! the deterministic simulator, driven against the monotonic clock on a
//! **fixed pool of worker threads**, in one process or several.
//!
//! * every actor is a schedulable task: one run queue under one lock that
//!   idle workers park on, and an Idle/Queued/Running state machine so a
//!   mailbox push schedules an idle actor exactly once (see the
//!   `scheduler` module) — thousands of actors multiplex onto a handful of
//!   OS threads. A worker's own push wakes a sibling only for backlog, so
//!   a light cascade stays on one core;
//! * `NetMsg::Data` payloads are `Arc`-backed `TupleBatch` views, so
//!   cross-thread fan-out moves reference counts, not tuples;
//! * one pool wheel — a `DeadlineQueue` of the simulator kernel's own
//!   `Event`s — drives protocol timers, modelled-CPU credit returns and
//!   the scripted faults; its earliest deadline bounds the park of one
//!   idle worker, the timekeeper, while the others sleep until woken, so
//!   idle workers burn no CPU. It holds no messages:
//!   actors send, from inside their own serial activations, and the
//!   runtime only delivers and wakes — which is why every link is FIFO by
//!   construction;
//! * the system model is `borealis_sim`'s, not this crate's: one
//!   [`SharedFabric`] — the very `Fabric` the simulator kernel owns, behind
//!   a mutex — decides what every send, credit return and fault means, and
//!   every mailbox entry is an `Input` of the one `ActorCell::activate`
//!   step (delivery, timer staleness, incarnations, the credit owed), so
//!   the fault model and the node model exist once for all three runtimes;
//! * [`deploy_threads`] launches a runtime-independent [`SystemLayout`] —
//!   the very object `deploy_sim` consumes, its `FaultSpec` schedule
//!   already lowered to events — and [`deploy_tcp`] launches one process's share of it over a
//!   [`TcpFabric`] socket mesh; the layout's `workers` field sizes the
//!   pool. These two and `deploy_sim` are the only launchers, and the
//!   layout stays the topology lookup: the running handles carry the
//!   driver and the metrics only.
//!
//! The protocol code itself lives in `borealis-dpc` and is runtime-unaware
//! (see `borealis_dpc::runtime`); this crate only supplies the
//! [`RuntimeCtx`](borealis_dpc::RuntimeCtx) implementation and the pool
//! scaffolding.

#![warn(missing_docs)]

pub mod clock;
#[cfg(not(borealis_model))]
pub mod engine;
// In model builds the engine and the socket mesh are compiled out, so the
// scheduler and the outbox are reachable only from the model tests — the
// non-test model build would flag them dead.
#[cfg_attr(borealis_model, allow(dead_code))]
mod outbox;
#[cfg_attr(borealis_model, allow(dead_code))]
pub(crate) mod scheduler;
pub mod sync;
#[cfg(not(borealis_model))]
pub mod tcp;

// Model builds (`--cfg borealis_model`) swap the sync facade for the
// virtual primitives of `borealis-check` and compile only the protocol
// cores the model tests exercise (scheduler, shared fabric, outbox); the
// real OS-thread engine and TCP mesh need wall clocks and sockets, which
// have no meaning under the interleaving explorer.
#[cfg(all(test, borealis_model))]
mod model_tests;

pub use borealis_dpc::plan_processes;
pub use borealis_sim::StatsSnapshot;
pub use clock::MonotonicClock;
#[cfg(not(borealis_model))]
pub use engine::ThreadRuntime;
#[cfg(not(borealis_model))]
pub use tcp::{deploy_tcp, RunningTcp, TcpFabric};

/// The one link fabric of a wall-clock runtime: the simulator's
/// single-threaded `borealis_sim::Fabric`, shared by the pool's workers
/// and the socket mesh's reader threads behind one lock. One lock, because the fabric is cold (a few thousand crossings a
/// second against microseconds of per-tuple work) and every rule — the
/// send-time window check, the crash purge and its drop count — is then
/// trivially atomic; the model checker verifies exactly this type.
pub type SharedFabric = sync::Mutex<borealis_sim::Fabric<borealis_dpc::NetMsg>>;

#[cfg(not(borealis_model))]
use borealis_dpc::{MetricsHub, SystemLayout};

/// A deployment running under the thread engine.
///
/// The mirror of `borealis_dpc::RunningSystem` — the driver and the
/// metrics; the [`SystemLayout`] is the topology lookup — but progress
/// happens in wall-clock time on background threads:
/// [`RunningThreads::run_for`] simply lets it.
#[cfg(not(borealis_model))]
pub struct RunningThreads {
    /// The engine driving the actors.
    pub runtime: ThreadRuntime,
    /// Metrics collected by the client proxy (readable live).
    pub metrics: MetricsHub,
}

#[cfg(not(borealis_model))]
impl RunningThreads {
    /// Lets the system run for `wall` (blocks the caller; the actors run on
    /// the worker pool).
    pub fn run_for(&self, wall: std::time::Duration) {
        self.runtime.run_for(wall);
    }

    /// Stops every thread in order and returns message-loss statistics
    /// (including the final flow-control and scheduler gauges).
    pub fn shutdown(self) -> StatsSnapshot {
        self.runtime.shutdown()
    }
}

/// Launches a resolved [`SystemLayout`] under the thread engine: the
/// wall-clock sibling of `SystemLayout::deploy_sim`.
///
/// The scripted faults lowered by the layout replay at their scripted
/// offsets from runtime start. The pool size is the layout's `workers`
/// field if set (`SystemBuilder::workers`), else a machine-derived default
/// ([`ThreadRuntime::default_workers`]).
#[cfg(not(borealis_model))]
pub fn deploy_threads(layout: SystemLayout) -> RunningThreads {
    let metrics = layout.metrics.clone();
    let actors = layout
        .actors
        .into_iter()
        .map(|spec| spec.into_actor(&metrics))
        .collect();
    let workers = layout
        .workers
        .unwrap_or_else(ThreadRuntime::default_workers);
    let runtime = ThreadRuntime::spawn(
        actors,
        layout.script,
        layout.seed,
        layout.partitions,
        layout.flow_policy,
        workers,
        None,
    );
    RunningThreads { runtime, metrics }
}

#[cfg(all(test, not(borealis_model)))]
mod tests {
    use super::*;
    use borealis_diagram::{plan_deployment, DeploymentSpec, DpcConfig, QueryBuilder};
    use borealis_dpc::{FaultSpec, SourceConfig, SystemBuilder};
    use borealis_types::{Duration, Time};

    /// End-to-end smoke test: a replicated union pipeline serves real
    /// traffic on OS threads, the client records stable tuples, and a
    /// scripted source disconnection forces tentative data plus a
    /// completed stabilization — DPC running in wall-clock time.
    #[test]
    fn thread_runtime_serves_and_recovers() {
        let mut q = QueryBuilder::new();
        let s1 = q.source("s1");
        let s2 = q.source("s2");
        let u = q.union("u", &[s1, s2]);
        q.output(u);
        let d = q.build().unwrap();
        let cfg = DpcConfig {
            total_delay: Duration::from_millis(400),
            ..DpcConfig::default()
        };
        let p = plan_deployment(&d, &DeploymentSpec::single(2), &cfg).unwrap();
        let (s2, u) = (s2.id(), u.id());
        let layout = SystemBuilder::new(11, Duration::from_millis(1))
            .source(SourceConfig::seq(s1.id(), 200.0))
            .source(SourceConfig::seq(s2, 200.0))
            .plan(p)
            .client_streams(vec![u])
            .fault(FaultSpec::DisconnectSource {
                stream: s2,
                frag: 0,
                from: Time::from_millis(700),
                to: Time::from_millis(1400),
            })
            .layout();
        let sys = deploy_threads(layout);
        sys.run_for(std::time::Duration::from_millis(3200));
        let stats = sys.metrics.with(u, |m| {
            (m.n_stable, m.n_tentative, m.n_rec_done, m.dup_stable)
        });
        let (n_stable, n_tentative, n_rec_done, dup_stable) = stats;
        let drops = sys.shutdown();
        assert!(n_stable > 200, "live traffic flows: {n_stable} stable");
        assert!(
            n_tentative > 0,
            "the disconnection must force tentative output"
        );
        assert!(n_rec_done >= 1, "stabilization must complete");
        assert_eq!(dup_stable, 0, "no duplicate stable tuples");
        assert!(
            drops.send_unreachable_drops > 0,
            "messages into the dead link are counted: {drops:?}"
        );
    }
}
