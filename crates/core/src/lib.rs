//! # borealis-dpc
//!
//! The DPC (Delay, Process, and Correct) fault-tolerance protocol for
//! distributed stream processing — the primary contribution of
//! *Fault-Tolerance in the Borealis Distributed Stream Processing System*
//! (Balazinska, Balakrishnan, Madden, Stonebraker).
//!
//! DPC replicates query-diagram fragments across processing nodes and makes
//! the availability/consistency trade-off explicit: the application states
//! the maximum incremental latency `X` it tolerates, and the system
//! guarantees (Property 1) that results — possibly **tentative**, computed
//! from the subset of available inputs — are delivered within `X`, while
//! guaranteeing eventual consistency (Property 2): once failures heal,
//! every tentative tuple is corrected through checkpoint/redo
//! reconciliation, and every replica converges to the same stable output
//! stream.
//!
//! This crate provides the distributed half of the protocol on top of the
//! `borealis-engine` fragment executor and the `borealis-sim` deterministic
//! simulator:
//!
//! * the two halves of the Data Path, each written once:
//!   [`publisher::Publisher`] (producer: emission logs, subscriptions and
//!   replay, ack-driven truncation, paced departures) and
//!   [`upstream::Inputs`] (consumer: resume positions, duplicate filtering,
//!   keep-alives, Table II switching, acks);
//! * [`node::ProcessingNode`] — the node actor: a fragment between the two
//!   halves, plus the Consistency Manager (state machine, the Fig. 9
//!   stagger protocol) and the CPU cost model;
//! * [`source::DataSource`] — a rate-controlled generator in front of a
//!   producer half (persistent log, boundary emission, fault hooks);
//! * [`client::ClientProxy`] — a consumer half recording the paper's
//!   metrics (`Procnew`, `Ntentative`) into a [`metrics::MetricsHub`];
//! * [`system::SystemBuilder`] — deployment wiring (Fig. 2).

#![warn(missing_docs)]

pub mod buffers;
pub mod client;
pub mod codec;
pub mod durable;
pub mod metrics;
pub mod msg;
pub mod node;
pub mod publisher;
pub mod runtime;
pub mod source;
pub mod system;
pub mod upstream;

pub use buffers::{BufferPolicy, OutputBuffer};
pub use client::ClientProxy;
pub use codec::{decode_frame, encode_frame, WireMsg};
pub use durable::{DurabilityConfig, NodeDisk, RecoveredImage};
pub use metrics::{final_stream, MetricsHub, StreamMetrics, StreamRecorder, TraceEntry};
pub use msg::{NetMsg, NodeState, Resume};
pub use node::{NodeConfig, NodeTuning, ProcessingNode};
pub use publisher::Publisher;
pub use runtime::{DpcActor, RuntimeCtx};
pub use source::{DataSource, SourceConfig, ValueGen};
pub use system::{plan_processes, CrashDomain, RunningSystem, RESTART_DELAY};
pub use system::{ActorSpec, FaultSpec, SystemBuilder, SystemLayout};
pub use upstream::{Inputs, Requests, UpstreamManager, UpstreamSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_diagram::{plan_deployment, DeploymentSpec, DpcConfig, QueryBuilder};
    use borealis_sim::{Fabric, FaultEvent, Sim};
    use borealis_types::{Duration, NodeId, StreamId, Time};
    use std::sync::{Arc, Mutex};

    /// Three sources → Union → output, replicated; client watching.
    fn merge3_system(faults: Vec<FaultSpec>) -> (RunningSystem, StreamId) {
        let (layout, out) = merge3_layout(faults);
        (layout.deploy_sim(), out)
    }

    fn merge3_layout(faults: Vec<FaultSpec>) -> (SystemLayout, StreamId) {
        let mut q = QueryBuilder::new();
        let s1 = q.source("s1");
        let s2 = q.source("s2");
        let s3 = q.source("s3");
        let u = q.union("merged", &[s1, s2, s3]);
        q.output(u);
        let d = q.build().unwrap();
        let cfg = DpcConfig {
            total_delay: Duration::from_secs(2),
            ..DpcConfig::default()
        };
        let p = plan_deployment(&d, &DeploymentSpec::single(2), &cfg).unwrap();
        let layout = SystemBuilder::new(7, Duration::from_millis(1))
            .source(SourceConfig::seq(s1.id(), 100.0))
            .source(SourceConfig::seq(s2.id(), 100.0))
            .source(SourceConfig::seq(s3.id(), 100.0))
            .plan(p)
            .client_streams(vec![u.id()])
            .faults(faults)
            .layout();
        (layout, u.id())
    }

    #[test]
    fn healthy_system_delivers_stable_data_with_low_latency() {
        let (mut sys, out) = merge3_system(Vec::new());
        sys.run_until(Time::from_secs(10));
        let m = &sys.metrics;
        m.with(out, |m| {
            assert!(m.n_stable > 2500, "got {} stable tuples", m.n_stable);
            assert_eq!(m.n_tentative, 0);
            assert_eq!(m.dup_stable, 0);
            // Serialization delay only: well under one second.
            assert!(
                m.procnew < Duration::from_millis(600),
                "procnew={}",
                m.procnew
            );
        });
    }

    #[test]
    fn source_failure_produces_tentative_then_corrections() {
        // Disconnect source 3 from both replicas from t=5s to t=10s.
        let (mut sys, out) = merge3_system(vec![FaultSpec::DisconnectSource {
            stream: StreamId(2),
            frag: 0,
            from: Time::from_secs(5),
            to: Time::from_secs(10),
        }]);
        sys.run_until(Time::from_secs(25));
        let m = &sys.metrics;
        m.with(out, |m| {
            assert!(m.n_tentative > 0, "failure must force tentative output");
            assert!(m.n_undo >= 1, "corrections must roll back the suffix");
            assert!(m.n_rec_done >= 1, "stabilization must complete");
            assert_eq!(m.dup_stable, 0, "no duplicate stable tuples");
            // Availability: max gap between new tuples stays under the
            // 2 s budget plus slack for serialization.
            assert!(
                m.max_gap < Duration::from_millis(2600),
                "max gap {} exceeds bound",
                m.max_gap
            );
        });
    }

    #[test]
    fn eventual_consistency_stable_count_catches_up() {
        // Compare a failure-free run against a failure+heal run: after
        // stabilization, both deliver the same number of *stable* tuples
        // (all tentative data was corrected).
        let horizon = Time::from_secs(30);
        let (mut clean, out) = merge3_system(Vec::new());
        clean.run_until(horizon);
        let clean_stable = clean.metrics.with(out, |m| m.n_stable);

        let (mut faulty, out2) = merge3_system(vec![FaultSpec::DisconnectSource {
            stream: StreamId(2),
            frag: 0,
            from: Time::from_secs(5),
            to: Time::from_secs(12),
        }]);
        faulty.run_until(horizon);
        let faulty_stable = faulty.metrics.with(out2, |m| m.n_stable);
        let diff = clean_stable.abs_diff(faulty_stable);
        // The tail may differ by what is still in flight at the horizon.
        assert!(
            diff <= 60,
            "stable outputs diverge: clean={clean_stable} faulty={faulty_stable}"
        );
        assert_eq!(faulty.metrics.with(out2, |m| m.dup_stable), 0);
    }

    #[test]
    fn replica_crash_switches_client_within_keepalive_bound() {
        // Crash replica 0 permanently at t=5s.
        let (mut sys, out) = merge3_system(vec![FaultSpec::Crash {
            domain: CrashDomain::Replica {
                frag: 0,
                shard: 0,
                replica: 0,
            },
            from: Time::from_secs(5),
            to: None,
        }]);
        sys.run_until(Time::from_secs(15));
        sys.metrics.with(out, |m| {
            assert_eq!(m.dup_stable, 0);
            assert!(m.n_stable > 2000, "stream continues: {}", m.n_stable);
            // Switchover gap: detection (<= 2 heartbeats + stale timeout)
            // plus replay; far below the 2 s failure bound.
            assert!(m.max_gap < Duration::from_millis(1000), "gap {}", m.max_gap);
        });
    }

    /// Stands in front of an actor and logs when an `Ack` from `watched`
    /// reaches it.
    struct AckSpy {
        inner: Box<dyn DpcActor<NetMsg>>,
        watched: NodeId,
        acks: Arc<Mutex<Vec<Time>>>,
    }

    impl DpcActor<NetMsg> for AckSpy {
        fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
            self.inner.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, from: NodeId, msg: NetMsg) {
            if from == self.watched && matches!(msg, NetMsg::Ack { .. }) {
                self.acks.lock().unwrap().push(ctx.now());
            }
            self.inner.on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, kind: u64) {
            self.inner.on_timer(ctx, kind);
        }
        fn on_fault(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, fault: &FaultEvent) {
            self.inner.on_fault(ctx, fault);
        }
    }

    /// A restart between two ticks of the 1 s ack chain (down 4.5–4.8 s;
    /// the crashed incarnation's next `TIMER_ACK` is due at 5 s) must leave
    /// ONE chain: a source hears as many acks per second from the restarted
    /// replica as it did before.
    #[test]
    fn restarted_replica_acks_its_upstream_at_the_rate_it_did_before() {
        let (layout, _) = merge3_layout(vec![FaultSpec::RestartReplica {
            frag: 0,
            shard: 0,
            replica: 0,
            after: Time::from_millis(4500),
        }]);
        let (source, replica) = (layout.source_ids[0].1, layout.fragment_replicas[0][0]);
        let acks = Arc::new(Mutex::new(Vec::new()));
        let mut sim: Sim<NetMsg> = Sim::new(layout.seed, layout.latency, Fabric::default());
        for (i, spec) in layout.actors.into_iter().enumerate() {
            let inner = spec.into_actor(&layout.metrics);
            sim.add_actor(if NodeId(i as u32) == source {
                let (watched, acks) = (replica, acks.clone());
                Box::new(AckSpy {
                    inner,
                    watched,
                    acks,
                })
            } else {
                inner
            });
        }
        for (at, fault) in layout.script {
            sim.schedule_fault(at, fault);
        }
        sim.run_until(Time::from_secs(11));
        let acks = acks.lock().unwrap();
        let in_4s_from = |ms: u64| {
            let window = Time::from_millis(ms)..Time::from_millis(ms + 4000);
            acks.iter().filter(|at| window.contains(at)).count()
        };
        assert_eq!(in_4s_from(500), 4, "one ack a second: {acks:?}");
        assert_eq!(in_4s_from(7000), 4, "as after the restart: {acks:?}");
    }
}
