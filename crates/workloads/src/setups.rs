//! Deployment setups matching the paper's experimental configurations
//! (Figs. 10, 12, 14, 22), expressed on the `QueryBuilder` /
//! `DeploymentSpec` surface, plus the key-partitioned sharded chain used
//! by the scaling benchmarks.

use borealis_diagram::{
    plan_deployment, DelayAssignment, DeploymentSpec, DpcConfig, FragmentSpec, JoinSpec,
    PhysicalPlan, Protection, QueryBuilder,
};
use borealis_dpc::{NodeTuning, SourceConfig, SystemBuilder, ValueGen};
use borealis_ops::DelayMode;
use borealis_types::{Duration, Expr, StreamId};

/// The six §6.1 policy variants (UP_FAILURE mode & STABILIZATION mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyVariant {
    /// Display name matching the paper ("Delay & Process" etc.).
    pub name: &'static str,
    /// Mode during UP_FAILURE.
    pub failure: DelayMode,
    /// Mode during STABILIZATION.
    pub stabilization: DelayMode,
}

/// All six §6.1 variants, in the paper's legend order.
pub const VARIANTS: [PolicyVariant; 6] = [
    PolicyVariant {
        name: "Process & Process",
        failure: DelayMode::Process,
        stabilization: DelayMode::Process,
    },
    PolicyVariant {
        name: "Delay & Process",
        failure: DelayMode::Delay,
        stabilization: DelayMode::Process,
    },
    PolicyVariant {
        name: "Process & Delay",
        failure: DelayMode::Process,
        stabilization: DelayMode::Delay,
    },
    PolicyVariant {
        name: "Delay & Delay",
        failure: DelayMode::Delay,
        stabilization: DelayMode::Delay,
    },
    PolicyVariant {
        name: "Process & Suspend",
        failure: DelayMode::Process,
        stabilization: DelayMode::Suspend,
    },
    PolicyVariant {
        name: "Delay & Suspend",
        failure: DelayMode::Delay,
        stabilization: DelayMode::Suspend,
    },
];

/// The two variants §6.2 compares in distributed settings: Delay & Delay,
/// then Process & Process.
pub const DISTRIBUTED_VARIANTS: [PolicyVariant; 2] = [VARIANTS[3], VARIANTS[0]];

/// Planning parameters of a setup: `variant`'s policies within a budget of
/// `total_delay`, everything else the paper's defaults (100 ms buckets, the
/// 0.9 safety factor, uniform assignment, full DPC).
fn dpc_config(variant: PolicyVariant, total_delay: Duration) -> DpcConfig {
    DpcConfig {
        total_delay,
        failure_mode: variant.failure,
        stabilization_mode: variant.stabilization,
        ..DpcConfig::default()
    }
}

/// The description every setup ends in: `plan` on 1 ms links, the client
/// watching `outs`, the deployment's tuning and its sources.
fn system(
    seed: u64,
    plan: PhysicalPlan,
    outs: Vec<StreamId>,
    tuning: NodeTuning,
    sources: impl IntoIterator<Item = SourceConfig>,
) -> SystemBuilder {
    let builder = SystemBuilder::new(seed, Duration::from_millis(1))
        .plan(plan)
        .client_streams(outs)
        .node_tuning(tuning);
    sources.into_iter().fold(builder, SystemBuilder::source)
}

/// Options for the single-node setups (Figs. 10 and 12).
#[derive(Debug, Clone)]
pub struct SingleNodeOptions {
    /// Replicas of the processing node (1 for Fig. 11, 2 for Table III and
    /// Fig. 13).
    pub replication: usize,
    /// Aggregate input rate across the three streams (tuples/second).
    pub total_rate: f64,
    /// The application's incremental latency budget `X` (the per-SUnion
    /// detection delay is `0.9 X`, as in the paper's implementation).
    pub delay: Duration,
    /// Availability/consistency policy.
    pub variant: PolicyVariant,
    /// Include the SJoin stage (Table III / Fig. 12 setup).
    pub with_join: bool,
    /// Per-tuple CPU cost of the nodes.
    pub per_tuple_cost: Duration,
    /// Determinism seed.
    pub seed: u64,
}

impl Default for SingleNodeOptions {
    fn default() -> Self {
        SingleNodeOptions {
            replication: 2,
            total_rate: 900.0,
            delay: Duration::from_secs(3),
            variant: VARIANTS[0],
            with_join: false,
            per_tuple_cost: Duration::from_micros(40),
            seed: 42,
        }
    }
}

/// Output stream of the single-node setups.
pub const SINGLE_NODE_OUT: StreamId = StreamId(3);

/// Describes the single-node system (Figs. 10/12): three sources feeding a
/// (possibly replicated) node, client watching [`SINGLE_NODE_OUT`]. The
/// Fig. 12 variant joins stream 1 against streams 2 and 3 through a single
/// three-input SUnion (an SJoin with a 100-tuple state).
pub fn single_node_builder(o: &SingleNodeOptions) -> SystemBuilder {
    let mut q = QueryBuilder::new();
    let s1 = q.source("s1");
    let s2 = q.source("s2");
    let s3 = q.source("s3");
    let out = if o.with_join {
        q.join_many(
            "joined",
            s1,
            &[s2, s3],
            JoinSpec {
                window: Duration::from_millis(100),
                left_key: Expr::field(0),
                right_key: Expr::field(0),
                max_state: Some(100),
            },
        )
    } else {
        q.union("merged", &[s1, s2, s3])
    };
    q.output(out);
    let d = q.build().expect("single-node diagram is valid");
    debug_assert_eq!(out.id(), SINGLE_NODE_OUT);

    let cfg = dpc_config(o.variant, o.delay);
    let p = plan_deployment(&d, &DeploymentSpec::single(o.replication), &cfg)
        .expect("single-node plan is valid");
    let tuning = NodeTuning {
        per_tuple_cost: o.per_tuple_cost,
        ..NodeTuning::default()
    };
    let source = |stream| SourceConfig {
        values: if o.with_join {
            ValueGen::Keyed { keys: 25 }
        } else {
            ValueGen::Seq
        },
        ..SourceConfig::seq(stream, o.total_rate / 3.0)
    };
    let sources = [s1, s2, s3].map(|s| source(s.id()));
    system(o.seed, p, vec![SINGLE_NODE_OUT], tuning, sources)
}

/// Options for the chain setups (Fig. 14).
#[derive(Debug, Clone)]
pub struct ChainOptions {
    /// Number of processing nodes in sequence (1–4 in the paper).
    pub depth: usize,
    /// Aggregate input rate (500 tuples/s in §6.2).
    pub total_rate: f64,
    /// Per-SUnion delay `D` under uniform assignment (2 s in §6.2), or the
    /// full-X effective value under [`DelayAssignment::Full`].
    pub per_node_delay: Duration,
    /// Delay assignment strategy (§6.3).
    pub assignment: DelayAssignment,
    /// Availability/consistency policy.
    pub variant: PolicyVariant,
    /// Per-tuple CPU cost of the nodes.
    pub per_tuple_cost: Duration,
    /// Keep-alive period for nodes and the client (a peer is stale after
    /// 2.5 periods, the paper's 100 ms/250 ms ratio). Wall-clock
    /// equivalence tests stretch it so a scheduling hiccup on a starved
    /// host cannot trip spurious staleness.
    pub heartbeat_period: Duration,
    /// Determinism seed.
    pub seed: u64,
}

impl Default for ChainOptions {
    fn default() -> Self {
        ChainOptions {
            depth: 4,
            total_rate: 500.0,
            per_node_delay: Duration::from_secs(2),
            assignment: DelayAssignment::Uniform,
            variant: DISTRIBUTED_VARIANTS[1],
            per_tuple_cost: Duration::from_micros(40),
            heartbeat_period: Duration::from_millis(100),
            seed: 42,
        }
    }
}

/// Builds the Fig. 14 chain deployment description: three sources → Union
/// (node 1) → identity Maps (nodes 2..depth) → client. Every node pair is
/// replicated.
///
/// Returns the configured builder (script faults / pick a runtime on it)
/// and the client-visible output stream.
pub fn chain_builder(o: &ChainOptions) -> (SystemBuilder, StreamId) {
    assert!(o.depth >= 1);
    let mut q = QueryBuilder::new();
    let s1 = q.source("s1");
    let s2 = q.source("s2");
    let s3 = q.source("s3");
    let mut last = q.union("stage1", &[s1, s2, s3]);
    let mut spec = DeploymentSpec::new().fragment(FragmentSpec::named("stage1").op("stage1"));
    for stage in 1..o.depth {
        let name = format!("stage{}", stage + 1);
        last = q.map(&name, last, vec![Expr::field(0)]);
        spec = spec.fragment(FragmentSpec::named(&name).op(&name));
    }
    q.output(last);
    let d = q.build().expect("chain diagram is valid");
    // Under Uniform, `total_delay` is per-node-delay × depth so each SUnion
    // receives `0.9 × per_node_delay` (the paper's 0.9 D safety margin).
    let cfg = DpcConfig {
        assignment: o.assignment,
        ..dpc_config(o.variant, o.per_node_delay.saturating_mul(o.depth as u64))
    };
    let p = plan_deployment(&d, &spec, &cfg).expect("chain plan is valid");
    let tuning = NodeTuning {
        per_tuple_cost: o.per_tuple_cost,
        heartbeat_period: o.heartbeat_period,
    };
    let sources = [s1, s2, s3].map(|s| SourceConfig::seq(s.id(), o.total_rate / 3.0));
    let builder = system(o.seed, p, vec![last.id()], tuning, sources);
    (builder, last.id())
}

/// Options for the key-partitioned sharded chain: three sources → ingest
/// Union → an expensive "work" stage fanned out over `shards`
/// key-partitioned instances → a cheap "deliver" merge stage → client.
#[derive(Debug, Clone)]
pub struct ShardedChainOptions {
    /// Shard fan-out of the work stage (1 = the unsharded baseline).
    pub shards: u32,
    /// Replicas per fragment (per shard for the work stage).
    pub replication: usize,
    /// Aggregate input rate (tuples/second).
    pub total_rate: f64,
    /// Per-SUnion delay under uniform assignment (the chain has three
    /// SUnion hops: ingest, work, deliver).
    pub per_node_delay: Duration,
    /// Availability/consistency policy.
    pub variant: PolicyVariant,
    /// Per-tuple CPU cost of the ingest/deliver stages.
    pub light_cost: Duration,
    /// Per-tuple CPU cost of the work stage (the sharding payoff: K shards
    /// split this bill K ways).
    pub work_cost: Duration,
    /// Stop each source after this many tuples (`None` = unbounded) — a
    /// finite load episode: the overload scenarios burst past saturation,
    /// then drain and stabilize.
    pub source_limit: Option<u64>,
    /// Keep-alive period for nodes and the client (a peer is stale after
    /// 2.5 periods, the paper's 100 ms/250 ms ratio). Wall-clock
    /// equivalence tests stretch it so a scheduling hiccup on a starved
    /// host cannot trip spurious staleness.
    pub heartbeat_period: Duration,
    /// Determinism seed.
    pub seed: u64,
}

impl Default for ShardedChainOptions {
    fn default() -> Self {
        ShardedChainOptions {
            shards: 2,
            replication: 2,
            total_rate: 600.0,
            per_node_delay: Duration::from_millis(500),
            variant: DISTRIBUTED_VARIANTS[1],
            light_cost: Duration::from_micros(2),
            work_cost: Duration::from_micros(40),
            source_limit: None,
            heartbeat_period: Duration::from_millis(100),
            seed: 42,
        }
    }
}

/// Builds the sharded chain deployment description; the returned stream is
/// the client-visible merged output.
pub fn sharded_chain_builder(o: &ShardedChainOptions) -> (SystemBuilder, StreamId) {
    assert!(o.shards >= 1);
    let mut q = QueryBuilder::new();
    let s1 = q.source("s1");
    let s2 = q.source("s2");
    let s3 = q.source("s3");
    let ingest = q.union("ingest", &[s1, s2, s3]);
    let work = q.map("work", ingest, vec![Expr::field(0)]);
    let deliver = q.map("deliver", work, vec![Expr::field(0)]);
    q.output(deliver);
    let d = q.build().expect("sharded chain diagram is valid");

    let spec = DeploymentSpec::new()
        .fragment(
            FragmentSpec::named("ingest")
                .op("ingest")
                .replication(o.replication),
        )
        .fragment(
            FragmentSpec::named("work")
                .op("work")
                .replication(o.replication)
                .shards(o.shards, Expr::field(0))
                .work_cost(o.work_cost),
        )
        .fragment(
            FragmentSpec::named("deliver")
                .op("deliver")
                .replication(o.replication),
        );
    let cfg = dpc_config(o.variant, o.per_node_delay.saturating_mul(3));
    let p = plan_deployment(&d, &spec, &cfg).expect("sharded chain plan is valid");
    let tuning = NodeTuning {
        per_tuple_cost: o.light_cost,
        heartbeat_period: o.heartbeat_period,
    };
    let sources = [s1, s2, s3].map(|s| SourceConfig {
        limit: o.source_limit,
        ..SourceConfig::seq(s.id(), o.total_rate / 3.0)
    });
    let builder = system(o.seed, p, vec![deliver.id()], tuning, sources);
    (builder, deliver.id())
}

/// Options for the many-chain scale grid: `chains` independent
/// source → work (K key-partitioned shards) → deliver pipelines in one
/// diagram, one client watching every output. The fragment count is
/// `chains × (shards + 1)` — the workload the worker-pool scheduler
/// multiplexes onto a handful of OS threads (1040 fragments at the
/// 16-chain/K=64 point).
#[derive(Debug, Clone)]
pub struct ScaleOptions {
    /// Number of independent pipelines.
    pub chains: u32,
    /// Shard fan-out of each chain's work stage.
    pub shards: u32,
    /// Replicas per fragment (per shard for the work stages).
    pub replication: usize,
    /// Input rate per chain (tuples/second).
    pub rate_per_chain: f64,
    /// Per-SUnion delay under uniform assignment (each chain has two
    /// SUnion hops: work, deliver).
    pub per_node_delay: Duration,
    /// Per-tuple CPU cost of the deliver stage.
    pub light_cost: Duration,
    /// Per-tuple CPU cost of the work stage.
    pub work_cost: Duration,
    /// Keep-alive period for nodes *and* the client. At thousands of
    /// actors the paper's 100 ms default makes the control plane itself
    /// the dominant load; scale runs stretch it (a peer is stale after 2.5
    /// periods, the default 100 ms/250 ms ratio).
    pub heartbeat_period: Duration,
    /// Determinism seed.
    pub seed: u64,
}

impl Default for ScaleOptions {
    fn default() -> Self {
        ScaleOptions {
            chains: 4,
            shards: 4,
            replication: 2,
            rate_per_chain: 200.0,
            per_node_delay: Duration::from_secs(1),
            light_cost: Duration::from_micros(2),
            work_cost: Duration::from_micros(40),
            heartbeat_period: Duration::from_millis(500),
            seed: 7,
        }
    }
}

/// Physical fragments the scale grid deploys: `chains × (shards + 1)`.
pub fn scale_grid_fragments(o: &ScaleOptions) -> u32 {
    o.chains * (o.shards + 1)
}

/// Total actors: every fragment replicated, plus one source per chain and
/// one client.
pub fn scale_grid_actors(o: &ScaleOptions) -> u32 {
    scale_grid_fragments(o) * o.replication as u32 + o.chains + 1
}

/// Builds the scale grid deployment description; the returned streams are
/// the per-chain client-visible outputs, in chain order. Chain `c`'s work
/// stage is logical fragment `2c` and its deliver stage `2c + 1` (for
/// `FaultSpec` targeting).
pub fn scale_grid_builder(o: &ScaleOptions) -> (SystemBuilder, Vec<StreamId>) {
    assert!(o.chains >= 1 && o.shards >= 1);
    let mut q = QueryBuilder::new();
    let mut spec = DeploymentSpec::new();
    let mut sources = Vec::new();
    let mut outs = Vec::new();
    for c in 0..o.chains {
        let s = q.source(&format!("s{c}"));
        let work_name = format!("work{c}");
        let deliver_name = format!("deliver{c}");
        let work = q.map(&work_name, s, vec![Expr::field(0)]);
        let deliver = q.map(&deliver_name, work, vec![Expr::field(0)]);
        q.output(deliver);
        spec = spec
            .fragment(
                FragmentSpec::named(&work_name)
                    .op(&work_name)
                    .replication(o.replication)
                    .shards(o.shards, Expr::field(0))
                    .work_cost(o.work_cost),
            )
            .fragment(
                FragmentSpec::named(&deliver_name)
                    .op(&deliver_name)
                    .replication(o.replication),
            );
        sources.push(s);
        outs.push(deliver.id());
    }
    let d = q.build().expect("scale grid diagram is valid");
    let cfg = DpcConfig {
        bucket: Duration::from_millis(250),
        ..dpc_config(DISTRIBUTED_VARIANTS[1], o.per_node_delay.saturating_mul(2))
    };
    let p = plan_deployment(&d, &spec, &cfg).expect("scale grid plan is valid");
    let tuning = NodeTuning {
        per_tuple_cost: o.light_cost,
        heartbeat_period: o.heartbeat_period,
    };
    let sources = sources.iter().map(|s| SourceConfig {
        boundary_interval: Duration::from_millis(250),
        batch_period: Duration::from_millis(50),
        ..SourceConfig::seq(s.id(), o.rate_per_chain)
    });
    let builder = system(o.seed, p, outs.clone(), tuning, sources);
    (builder, outs)
}

/// Options for the serialization-overhead setup (Fig. 22, Tables IV & V).
#[derive(Debug, Clone)]
pub struct OverheadOptions {
    /// SUnion bucket size; `None` runs the plain (no SUnion, no SOutput)
    /// baseline with no boundary tuples at all (the tables' 0 column).
    pub bucket: Option<Duration>,
    /// Source boundary interval (ignored for the baseline).
    pub boundary_interval: Duration,
    /// Input rate (1 tuple per 10 ms in §7).
    pub rate: f64,
    /// Determinism seed.
    pub seed: u64,
}

impl Default for OverheadOptions {
    fn default() -> Self {
        OverheadOptions {
            bucket: Some(Duration::from_millis(10)),
            boundary_interval: Duration::from_millis(10),
            rate: 100.0,
            seed: 42,
        }
    }
}

/// Output stream of the overhead setup.
pub const OVERHEAD_OUT: StreamId = StreamId(1);

/// Describes the Fig. 22 setup: one source → (SUnion + SOutput tap | plain
/// pass-through Map without fault tolerance) → client on [`OVERHEAD_OUT`].
pub fn overhead_builder(o: &OverheadOptions) -> SystemBuilder {
    let mut q = QueryBuilder::new();
    let input = q.source("overhead-in");
    let out = match o.bucket {
        // DPC tap: the relay lowers to exactly [entry SUnion, SOutput].
        Some(_) => q.relay("overhead-out", input),
        // Baseline without fault tolerance: a pass-through Map with no
        // serialization (Fig. 22(b)).
        None => q.map("overhead-out", input, vec![Expr::field(0)]),
    };
    q.output(out);
    let d = q.build().expect("overhead diagram is valid");
    debug_assert_eq!(out.id(), OVERHEAD_OUT);

    let cfg = DpcConfig {
        bucket: o.bucket.unwrap_or(Duration::from_millis(10)),
        safety: 1.0,
        protection: if o.bucket.is_some() {
            Protection::Dpc
        } else {
            Protection::Baseline
        },
        // An hour's budget: nothing fails here.
        ..dpc_config(VARIANTS[0], Duration::from_secs(3600))
    };
    let p = plan_deployment(&d, &DeploymentSpec::single(1), &cfg).expect("overhead plan is valid");
    let source = SourceConfig {
        boundary_interval: if o.bucket.is_some() {
            o.boundary_interval
        } else {
            Duration::ZERO
        },
        ..SourceConfig::seq(input.id(), o.rate)
    };
    system(
        o.seed,
        p,
        vec![OVERHEAD_OUT],
        NodeTuning::default(),
        [source],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_dpc::{CrashDomain, FaultSpec};
    use borealis_types::Time;

    /// A permanent crash, two seconds in, of replica 0 of shard 1 of `frag`.
    fn crash_shard_one(frag: usize) -> FaultSpec {
        FaultSpec::Crash {
            domain: CrashDomain::Replica {
                frag,
                shard: 1,
                replica: 0,
            },
            from: Time::from_secs(2),
            to: None,
        }
    }

    #[test]
    fn single_node_system_runs_clean() {
        let mut sys = single_node_builder(&SingleNodeOptions::default()).build();
        sys.run_until(Time::from_secs(5));
        sys.metrics.with(SINGLE_NODE_OUT, |m| {
            assert!(m.n_stable > 1000);
            assert_eq!(m.n_tentative, 0);
        });
    }

    #[test]
    fn join_variant_produces_matches() {
        let o = SingleNodeOptions {
            with_join: true,
            ..Default::default()
        };
        let mut sys = single_node_builder(&o).build();
        sys.run_until(Time::from_secs(5));
        sys.metrics.with(SINGLE_NODE_OUT, |m| {
            assert!(m.n_stable > 0, "join must produce matches");
            assert_eq!(m.n_tentative, 0);
        });
    }

    #[test]
    fn chain_depth_three_runs_clean() {
        let (builder, out) = chain_builder(&ChainOptions {
            depth: 3,
            ..Default::default()
        });
        let mut sys = builder.build();
        sys.run_until(Time::from_secs(6));
        sys.metrics.with(out, |m| {
            assert!(m.n_stable > 1500, "stable = {}", m.n_stable);
            assert_eq!(m.n_tentative, 0);
            assert_eq!(m.dup_stable, 0);
        });
    }

    #[test]
    fn sharded_chain_runs_clean_and_spreads_work() {
        let (builder, out) = sharded_chain_builder(&ShardedChainOptions {
            shards: 3,
            ..Default::default()
        });
        let layout = builder.layout();
        // 3 sources + ingest 2 + work 3×2 + deliver 2 + client.
        assert_eq!(layout.fragment_replicas.len(), 5);
        assert_eq!(layout.groups, vec![vec![0], vec![1, 2, 3], vec![4]]);
        let mut sys = layout.deploy_sim();
        sys.run_until(Time::from_secs(6));
        sys.metrics.with(out, |m| {
            assert!(m.n_stable > 1500, "stable = {}", m.n_stable);
            assert_eq!(m.n_tentative, 0);
            assert_eq!(m.dup_stable, 0);
        });
    }

    #[test]
    fn sharded_chain_recovers_from_shard_replica_crash() {
        let (builder, out) = sharded_chain_builder(&ShardedChainOptions::default());
        let mut sys = builder.fault(crash_shard_one(1)).build();
        sys.run_until(Time::from_secs(8));
        sys.metrics.with(out, |m| {
            assert!(m.n_stable > 2000, "stable = {}", m.n_stable);
            assert_eq!(m.dup_stable, 0, "failover must not duplicate");
        });
    }

    #[test]
    fn scale_grid_runs_clean_in_sim() {
        let o = ScaleOptions {
            chains: 3,
            shards: 2,
            ..Default::default()
        };
        let (builder, outs) = scale_grid_builder(&o);
        let layout = builder.layout();
        assert_eq!(
            layout.fragment_replicas.len(),
            scale_grid_fragments(&o) as usize
        );
        let mut sys = layout.deploy_sim();
        sys.run_until(Time::from_secs(6));
        for out in outs {
            sys.metrics.with(out, |m| {
                assert!(m.n_stable > 200, "stable = {}", m.n_stable);
                assert_eq!(m.n_tentative, 0);
                assert_eq!(m.dup_stable, 0);
            });
        }
    }

    #[test]
    fn scale_grid_crash_is_contained_to_its_chain() {
        let o = ScaleOptions {
            chains: 2,
            shards: 2,
            ..Default::default()
        };
        let (builder, outs) = scale_grid_builder(&o);
        // Chain 1's work stage is logical fragment 2; kill shard 1's
        // replica 0 permanently mid-run.
        let mut sys = builder.fault(crash_shard_one(2)).build();
        sys.run_until(Time::from_secs(8));
        sys.metrics.with(outs[1], |m| {
            assert!(m.n_stable > 500, "failover keeps chain 1 flowing");
            assert_eq!(m.dup_stable, 0, "failover must not duplicate");
        });
        sys.metrics.with(outs[0], |m| {
            assert!(m.n_stable > 800, "chain 0 unaffected");
            assert_eq!(m.n_tentative, 0, "crash must not leak across chains");
            assert_eq!(m.dup_stable, 0);
        });
    }

    #[test]
    fn overhead_baseline_has_tiny_latency() {
        let mut sys = overhead_builder(&OverheadOptions {
            bucket: None,
            ..Default::default()
        })
        .build();
        sys.run_until(Time::from_secs(5));
        sys.metrics.with(OVERHEAD_OUT, |m| {
            assert!(m.n_stable > 400);
            assert!(m.lat_avg() < borealis_types::Duration::from_millis(20));
        });
    }
}
