//! Deployment description and launchers: wires sources, replicated fragment
//! nodes, and a client proxy into one runnable system (the Fig. 2
//! replicated query diagram).
//!
//! This is the last step of the one path from a description to a running
//! deployment — `QueryBuilder` → `DeploymentSpec` → `plan_deployment` →
//! [`SystemBuilder`] (+ [`FaultSpec`]s) → [`SystemLayout`] → `deploy_*` —
//! and each step has one entry point:
//!
//! 1. [`SystemBuilder`] accumulates the description: sources, plan,
//!    tuning, watched streams, and the fault schedule — a `Vec<FaultSpec>`
//!    expressed against the *topology* (stream ids, fragment, shard and
//!    replica indexes — never raw actor ids). It is the only way to say a
//!    fault, so every schedule is a printable value that runs unchanged on
//!    every runtime.
//! 2. [`SystemBuilder::layout`] resolves it into a [`SystemLayout`]: a
//!    deterministic actor-id assignment (sources, then each fragment's
//!    replicas in order, then the client), per-actor configurations with
//!    upstream candidate sets and downstream consumer counts (for §8.1
//!    truncation), the topology lookup tables, and the schedule lowered to
//!    concrete [`FaultEvent`]s by the one lowering function,
//!    `SystemLayout::lower_fault`.
//! 3. A launcher turns the layout into a running system:
//!    [`SystemLayout::deploy_sim`] (or the [`SystemBuilder::build`]
//!    shorthand) under the deterministic simulator,
//!    `borealis_runtime::deploy_threads` on the real-time worker pool, and
//!    `borealis_runtime::deploy_tcp` across OS processes. All deploy the
//!    *same* actor objects over the same link `Fabric` — the protocol code
//!    never knows which runtime drives it. The running handles carry the
//!    driver and the metrics only; the layout is the topology lookup.

use crate::buffers::BufferPolicy;
use crate::client::ClientProxy;
use crate::durable::DurabilityConfig;
use crate::metrics::MetricsHub;
use crate::msg::NetMsg;
use crate::node::{NodeConfig, NodeTuning, ProcessingNode};
use crate::runtime::DpcActor;
use crate::source::{DataSource, SourceConfig};
use crate::upstream::UpstreamSpec;
use borealis_diagram::PhysicalPlan;
use borealis_sim::{Fabric, FaultEvent, Sim};
use borealis_types::{CreditPolicy, Duration, NodeId, PartitionSpec, StreamId, Time};
use std::collections::HashMap;

/// A scripted fault expressed against the runtime-independent topology:
/// streams, fragment indexes, and replica indexes instead of raw actor
/// ids, so the same script runs under any runtime.
#[derive(Debug, Clone)]
pub enum FaultSpec {
    /// Disconnect `stream`'s source from every replica of fragment `frag`
    /// between `from` and `to` (§5/§6.1: "temporarily disconnecting one of
    /// the input streams without stopping the data source").
    DisconnectSource {
        /// The source's stream.
        stream: StreamId,
        /// Fragment whose replicas lose the source.
        frag: usize,
        /// Disconnection instant.
        from: Time,
        /// Heal instant.
        to: Time,
    },
    /// Cut `stream`'s source off from one replica of one shard of fragment
    /// `frag` between `from` and `to` — a §2.2 partition separating that
    /// replica from the source while its peers keep receiving.
    /// [`FaultSpec::DisconnectSource`] is this, for every shard and replica.
    CutSourceLink {
        /// The source's stream.
        stream: StreamId,
        /// Logical fragment index (deployment-spec order).
        frag: usize,
        /// Shard index within the fragment (0 for unsharded fragments).
        shard: usize,
        /// Replica index within the shard.
        replica: usize,
        /// Disconnection instant.
        from: Time,
        /// Heal instant.
        to: Time,
    },
    /// Mute only the boundary tuples of `stream`'s source between `from`
    /// and `to` (the §6.2 chain-experiment failure: data keeps flowing).
    MuteBoundaries {
        /// The source's stream.
        stream: StreamId,
        /// Mute instant.
        from: Time,
        /// Unmute instant.
        to: Time,
    },
    /// Crash every actor of `domain` at `from`, and restart them at `to` if
    /// given (§2.2: volatile state is lost; a durable store survives).
    Crash {
        /// What fails together.
        domain: CrashDomain,
        /// Crash instant.
        from: Time,
        /// Optional restart instant.
        to: Option<Time>,
    },
    /// A [`CrashDomain::Replica`] crash at `after`, respawned
    /// [`RESTART_DELAY`] later — *from disk* with durability enabled
    /// ([`SystemBuilder::durability`]): it loads its latest checkpoint,
    /// replays the input-log suffix and re-registers with its upstreams.
    RestartReplica {
        /// Logical fragment index (deployment-spec order).
        frag: usize,
        /// Shard index within the fragment (0 for unsharded fragments).
        shard: usize,
        /// Replica index within the shard.
        replica: usize,
        /// Kill instant; the respawn follows [`RESTART_DELAY`] later.
        after: Time,
    },
}

/// What one [`FaultSpec::Crash`] takes down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashDomain {
    /// One replica, whose peers detect its crash by keep-alives (§2.2).
    Replica {
        /// Logical fragment index (deployment-spec order).
        frag: usize,
        /// Shard index within the fragment (0 for unsharded fragments).
        shard: usize,
        /// Replica index within the shard.
        replica: usize,
    },
    /// One process: every actor [`plan_processes`] places in share `share`
    /// of `shares`, whose crash every live actor hears at once. Share 0
    /// holds the sources and the client, and cannot crash.
    Share {
        /// The process that crashes, `1..shares`.
        share: u32,
        /// Processes of the deployment.
        shares: u32,
    },
}

/// How long a [`FaultSpec::RestartReplica`] stays down: the modeled
/// process-respawn time between the kill and the restart.
pub const RESTART_DELAY: Duration = Duration::from_millis(300);

/// Builds a complete deployment description from a planned
/// [`PhysicalPlan`] (which carries the fragment cut, per-fragment
/// replication, and sharding — see `borealis_diagram::plan_deployment`),
/// the data sources, the watched client streams, and a [`FaultSpec`] list.
pub struct SystemBuilder {
    seed: u64,
    latency: Duration,
    sources: Vec<SourceConfig>,
    plan: Option<PhysicalPlan>,
    node_tuning: NodeTuning,
    client_streams: Vec<StreamId>,
    metrics: MetricsHub,
    faults: Vec<FaultSpec>,
    flow_policy: CreditPolicy,
    workers: Option<usize>,
    durability: Option<(std::path::PathBuf, Duration, bool)>,
}

impl SystemBuilder {
    /// Starts a builder with the given determinism seed and link latency
    /// (the latency applies to the simulator; the thread engine runs at
    /// native channel latency).
    pub fn new(seed: u64, latency: Duration) -> SystemBuilder {
        SystemBuilder {
            seed,
            latency,
            sources: Vec::new(),
            plan: None,
            node_tuning: NodeTuning::default(),
            client_streams: Vec::new(),
            metrics: MetricsHub::new(),
            faults: Vec::new(),
            flow_policy: CreditPolicy::default(),
            workers: None,
            durability: None,
        }
    }

    /// Enables durable checkpoints and a replayable input log on every
    /// node replica. Each replica gets its own store under
    /// `root/node-<id>`; `interval` is the checkpoint period;
    /// `background` moves each checkpoint's fsync and the log's prune to
    /// the process's one flusher thread (keep it `false` for deterministic
    /// simulator runs, which run them inline).
    pub fn durability(
        mut self,
        root: impl Into<std::path::PathBuf>,
        interval: Duration,
        background: bool,
    ) -> Self {
        self.durability = Some((root.into(), interval, background));
        self
    }

    /// Sets the link fabric's credit-based flow-control policy (all links;
    /// defaults to [`CreditPolicy::Unbounded`], the pre-credit behavior).
    pub fn credit_policy(mut self, policy: CreditPolicy) -> Self {
        self.flow_policy = policy;
        self
    }

    /// Sets the thread runtime's worker-pool size (the number of OS
    /// threads every actor multiplexes onto). Ignored by the simulator.
    /// Unset, the runtime picks a machine-derived default.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n.max(1));
        self
    }

    /// Adds a data source.
    pub fn source(mut self, cfg: SourceConfig) -> Self {
        self.sources.push(cfg);
        self
    }

    /// Sets the physical plan to deploy. The plan's groups determine each
    /// fragment's replication degree, shard fan-out, and CPU-cost override.
    pub fn plan(mut self, plan: PhysicalPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The deployment's tuning knobs: the per-tuple CPU cost (a fragment's
    /// `work_cost` takes precedence for its replicas) and the keep-alive
    /// period of every node and of the client.
    pub fn node_tuning(mut self, t: NodeTuning) -> Self {
        self.node_tuning = t;
        self
    }

    /// The client consumes these output streams.
    pub fn client_streams(mut self, streams: Vec<StreamId>) -> Self {
        self.client_streams = streams;
        self
    }

    /// Shares a metrics hub (to read results after the run).
    pub fn metrics(mut self, hub: MetricsHub) -> Self {
        self.metrics = hub;
        self
    }

    /// Adds one scripted fault (topology-level; see [`FaultSpec`]).
    pub fn fault(mut self, f: FaultSpec) -> Self {
        self.faults.push(f);
        self
    }

    /// Adds a list of scripted faults.
    pub fn faults(mut self, faults: impl IntoIterator<Item = FaultSpec>) -> Self {
        self.faults.extend(faults);
        self
    }

    /// Resolves the description into a runtime-independent [`SystemLayout`].
    ///
    /// # Panics
    /// Panics if no plan was provided, a consumed stream has no producer,
    /// or a scripted fault references a missing source/fragment/replica or
    /// share, or crashes share 0 (the sources and the client) — all
    /// deployment bugs.
    pub fn layout(self) -> SystemLayout {
        let plan = self.plan.expect("SystemBuilder requires a plan");
        let n_sources = self.sources.len();
        let n_fragments = plan.fragments.len();

        // A physical fragment's replication, cost and buffer settings are
        // those of the group (logical fragment) the planner put it in.
        let group_of = |fi: usize| {
            let group = plan.groups.iter().find(|g| g.fragments.contains(&fi));
            group.expect("every planned fragment belongs to a group")
        };
        let replication: Vec<usize> = (0..n_fragments)
            .map(|fi| group_of(fi).replication)
            .collect();
        let groups = plan.groups.iter().map(|g| g.fragments.clone()).collect();

        // Deterministic id layout: sources, then each physical fragment's
        // replicas in order (cumulative — replication varies per fragment),
        // then the client.
        let source_id = |i: usize| NodeId(i as u32);
        let mut frag_base = Vec::with_capacity(n_fragments);
        let mut next = n_sources;
        for &r in &replication {
            frag_base.push(next);
            next += r;
        }
        let node_id = |frag: usize, rep: usize| NodeId((frag_base[frag] + rep) as u32);
        let client_id = NodeId(next as u32);

        // Stream producers.
        let mut producers: HashMap<StreamId, Vec<NodeId>> = HashMap::new();
        for (i, s) in self.sources.iter().enumerate() {
            producers.insert(s.stream, vec![source_id(i)]);
        }
        for (fi, fp) in plan.fragments.iter().enumerate() {
            for out in &fp.outputs {
                let reps = (0..replication[fi]).map(|r| node_id(fi, r)).collect();
                producers.insert(out.stream, reps);
            }
        }

        // Downstream consumer counts per crossing stream.
        let mut consumer_counts: HashMap<StreamId, usize> = HashMap::new();
        for (fi, fp) in plan.fragments.iter().enumerate() {
            for input in &fp.inputs {
                *consumer_counts.entry(input.stream).or_default() += replication[fi];
            }
        }
        for s in &self.client_streams {
            *consumer_counts.entry(*s).or_default() += 1;
        }

        let mut actors: Vec<ActorSpec> = Vec::new();
        let mut source_ids = Vec::new();
        for (i, cfg) in self.sources.iter().enumerate() {
            actors.push(ActorSpec::Source(cfg.clone()));
            source_ids.push((cfg.stream, source_id(i)));
        }

        let mut fragment_replicas: Vec<Vec<NodeId>> = Vec::new();
        let mut partitions: Vec<(NodeId, PartitionSpec)> = Vec::new();
        for (fi, fp) in plan.fragments.iter().enumerate() {
            let ids: Vec<NodeId> = (0..replication[fi]).map(|r| node_id(fi, r)).collect();
            // A shard's replicas only accept their key partition of any
            // data stream: the layout turns the plan's shard assignment
            // into per-receiver filters every runtime installs in its fabric.
            if let Some(sa) = &fp.shard {
                for &id in &ids {
                    partitions.push((
                        id,
                        PartitionSpec {
                            key: sa.key.clone(),
                            shards: sa.count,
                            index: sa.index,
                        },
                    ));
                }
            }
            let group = group_of(fi);
            let tuning = NodeTuning {
                per_tuple_cost: group
                    .per_tuple_cost
                    .unwrap_or(self.node_tuning.per_tuple_cost),
                ..self.node_tuning
            };
            for &my_id in &ids {
                let replicas = ids.iter().copied().filter(|&r| r != my_id).collect();
                // One upstream spec per distinct input stream.
                let mut upstreams: Vec<UpstreamSpec> = Vec::new();
                for input in &fp.inputs {
                    if upstreams.iter().any(|u| u.stream == input.stream) {
                        continue;
                    }
                    let candidates = producers
                        .get(&input.stream)
                        .unwrap_or_else(|| panic!("no producer for {}", input.stream))
                        .clone();
                    upstreams.push(UpstreamSpec {
                        stream: input.stream,
                        candidates,
                    });
                }
                let downstream_counts = fp
                    .outputs
                    .iter()
                    .map(|o| {
                        (
                            o.stream,
                            consumer_counts.get(&o.stream).copied().unwrap_or(0),
                        )
                    })
                    .collect();
                debug_assert_eq!(actors.len(), my_id.index(), "id layout mismatch");
                let durability = self
                    .durability
                    .as_ref()
                    .map(|(root, interval, background)| DurabilityConfig {
                        dir: root.join(format!("node-{}", my_id.index())),
                        interval: *interval,
                        background: *background,
                        sync_log: false,
                    });
                actors.push(ActorSpec::Node(Box::new(NodeConfig {
                    plan: fp.clone(),
                    replicas,
                    upstreams,
                    downstream_counts,
                    tuning: tuning.clone(),
                    buffer: group.buffer_policy.unwrap_or(BufferPolicy::Unbounded),
                    durability,
                })));
            }
            fragment_replicas.push(ids);
        }

        let client = if self.client_streams.is_empty() {
            None
        } else {
            let streams = self
                .client_streams
                .iter()
                .map(|&s| UpstreamSpec {
                    stream: s,
                    candidates: producers
                        .get(&s)
                        .unwrap_or_else(|| panic!("no producer for {s}"))
                        .clone(),
                })
                .collect();
            debug_assert_eq!(actors.len(), client_id.index(), "id layout mismatch");
            actors.push(ActorSpec::Client {
                streams,
                heartbeat_period: self.node_tuning.heartbeat_period,
            });
            Some(client_id)
        };

        let mut layout = SystemLayout {
            seed: self.seed,
            latency: self.latency,
            metrics: self.metrics,
            actors,
            source_ids,
            fragment_replicas,
            groups,
            partitions,
            client,
            script: Vec::new(),
            flow_policy: self.flow_policy,
            workers: self.workers,
        };
        for f in &self.faults {
            layout.lower_fault(f);
        }
        layout.script.sort_by_key(|(at, _)| *at);
        layout
    }

    /// Resolves and deploys under the deterministic simulator (shorthand
    /// for `self.layout().deploy_sim()`; kept as the primary entry point of
    /// simulator-based tests and experiments).
    pub fn build(self) -> RunningSystem {
        self.layout().deploy_sim()
    }
}

/// Configuration of one actor in the deterministic id layout — everything a
/// runtime needs to instantiate it.
pub enum ActorSpec {
    /// A data source.
    Source(SourceConfig),
    /// A processing-node replica (boxed: a node's fragment plan dwarfs the
    /// other variants).
    Node(Box<NodeConfig>),
    /// The client proxy.
    Client {
        /// Watched output streams with their producing replicas.
        streams: Vec<UpstreamSpec>,
        /// Keep-alive period (the nodes').
        heartbeat_period: Duration,
    },
}

impl ActorSpec {
    /// Instantiates the actor behind the runtime-agnostic [`DpcActor`]
    /// interface every runtime drives.
    pub fn into_actor(self, metrics: &MetricsHub) -> Box<dyn DpcActor<NetMsg>> {
        match self {
            ActorSpec::Source(cfg) => Box::new(DataSource::new(cfg)),
            ActorSpec::Node(cfg) => Box::new(ProcessingNode::new(*cfg)),
            ActorSpec::Client {
                streams,
                heartbeat_period,
            } => Box::new(ClientProxy::new(streams, heartbeat_period, metrics.clone())),
        }
    }
}

/// A resolved, runtime-independent deployment: actor configurations in
/// deterministic id order, topology lookup tables, and the fault script
/// lowered to concrete events. Feed it to [`SystemLayout::deploy_sim`] or
/// to `borealis_runtime::deploy_threads`.
pub struct SystemLayout {
    /// Determinism seed (simulator RNG; ignored by the thread engine except
    /// for per-actor RNG seeding).
    pub seed: u64,
    /// Link latency (simulated; the thread engine runs at native latency).
    pub latency: Duration,
    /// Metrics hub shared with the client proxy.
    pub metrics: MetricsHub,
    /// Actor configurations; index `i` is actor `NodeId(i)`.
    pub actors: Vec<ActorSpec>,
    /// Source actor ids, per stream.
    pub source_ids: Vec<(StreamId, NodeId)>,
    /// Node ids per physical fragment (outer index = physical fragment
    /// index; a sharded group contributes one entry per shard).
    pub fragment_replicas: Vec<Vec<NodeId>>,
    /// Physical fragment indexes per logical fragment, in shard order
    /// (identity for unsharded plans).
    pub groups: Vec<Vec<usize>>,
    /// Key-partition filters per shard-replica node, installed into the
    /// runtime's link fabric at deploy time.
    pub partitions: Vec<(NodeId, PartitionSpec)>,
    /// The client proxy, if any.
    pub client: Option<NodeId>,
    /// Scripted faults, lowered to concrete events, sorted by time.
    pub script: Vec<(Time, FaultEvent)>,
    /// Credit-based flow-control policy of every link (every runtime
    /// installs it into its link fabric at deploy time).
    pub flow_policy: CreditPolicy,
    /// Worker-pool size for the thread runtime (`None`: runtime default).
    /// The simulator ignores it — scheduling there is virtual-time driven.
    pub workers: Option<usize>,
}

impl SystemLayout {
    /// Replica node ids of shard `shard` of logical fragment `frag`.
    ///
    /// # Panics
    /// Panics if the indexes are out of range (an experiment-script bug).
    pub fn shard_replicas(&self, frag: usize, shard: usize) -> &[NodeId] {
        &self.fragment_replicas[self.groups[frag][shard]]
    }
    /// The actor id of the source producing `stream`.
    ///
    /// # Panics
    /// Panics if no source produces `stream` (an experiment-script bug).
    pub fn source_of(&self, stream: StreamId) -> NodeId {
        self.source_ids
            .iter()
            .find(|(s, _)| *s == stream)
            .map(|(_, id)| *id)
            .unwrap_or_else(|| panic!("no source for {stream}"))
    }

    /// Lowers one topology-level fault into concrete events — the one
    /// place a [`FaultSpec`] acquires actor ids.
    fn lower_fault(&mut self, f: &FaultSpec) {
        match *f {
            FaultSpec::DisconnectSource {
                stream,
                frag,
                from,
                to,
            } => {
                for shard in 0..self.groups[frag].len() {
                    for replica in 0..self.shard_replicas(frag, shard).len() {
                        self.lower_fault(&FaultSpec::CutSourceLink {
                            stream,
                            frag,
                            shard,
                            replica,
                            from,
                            to,
                        });
                    }
                }
            }
            FaultSpec::CutSourceLink {
                stream,
                frag,
                shard,
                replica,
                from,
                to,
            } => {
                let a = self.source_of(stream);
                let b = self.shard_replicas(frag, shard)[replica];
                self.script.push((from, FaultEvent::LinkDown { a, b }));
                self.script.push((to, FaultEvent::LinkUp { a, b }));
            }
            FaultSpec::MuteBoundaries { stream, from, to } => {
                let target = self.source_of(stream);
                let tags = [
                    (from, DataSource::MUTE_BOUNDARIES),
                    (to, DataSource::UNMUTE_BOUNDARIES),
                ];
                for (at, tag) in tags {
                    self.script.push((at, FaultEvent::Custom { target, tag }));
                }
            }
            FaultSpec::Crash { domain, from, to } => {
                let (down, up) = match domain {
                    CrashDomain::Replica {
                        frag,
                        shard,
                        replica,
                    } => {
                        let node = self.shard_replicas(frag, shard)[replica];
                        (FaultEvent::NodeDown(node), FaultEvent::NodeUp(node))
                    }
                    CrashDomain::Share { share, shares } => {
                        assert!(0 < share && share < shares, "share {share} of {shares}");
                        let plan = plan_processes(self, shares);
                        let ids = (0..plan.len() as u32).map(NodeId);
                        let nodes: Vec<NodeId> = ids.filter(|n| plan[n.index()] == share).collect();
                        let down = FaultEvent::ProcessDown(nodes.clone());
                        (down, FaultEvent::ProcessUp(nodes))
                    }
                };
                self.script.push((from, down));
                self.script.extend(to.map(|to| (to, up)));
            }
            FaultSpec::RestartReplica {
                frag,
                shard,
                replica,
                after,
            } => self.lower_fault(&FaultSpec::Crash {
                domain: CrashDomain::Replica {
                    frag,
                    shard,
                    replica,
                },
                from: after,
                to: Some(after + RESTART_DELAY),
            }),
        }
    }

    /// Launches the layout under the deterministic simulator.
    pub fn deploy_sim(self) -> RunningSystem {
        let fabric = Fabric::new(self.partitions, self.flow_policy);
        let mut sim: Sim<NetMsg> = Sim::new(self.seed, self.latency, fabric);
        for (i, spec) in self.actors.into_iter().enumerate() {
            let id = sim.add_actor(spec.into_actor(&self.metrics));
            assert_eq!(id, NodeId(i as u32), "id layout mismatch");
        }
        for (at, fault) in self.script {
            sim.schedule_fault(at, fault);
        }
        RunningSystem {
            sim,
            metrics: self.metrics,
        }
    }
}

/// Maps every actor of `layout` to a process: sources and the client stay
/// in process 0 (the launcher, which reads the metrics), and the replicas
/// of each physical fragment spread round-robin over processes `1..procs`
/// such that **same-fragment replicas land in different processes** —
/// killing one process then behaves like the paper's independent node
/// failures. Every process computes the identical plan from the shared
/// layout, so no coordination is needed.
pub fn plan_processes(layout: &SystemLayout, procs: u32) -> Vec<u32> {
    let mut plan = vec![0u32; layout.actors.len()];
    if procs <= 1 {
        return plan;
    }
    for (fi, replicas) in layout.fragment_replicas.iter().enumerate() {
        for (r, id) in replicas.iter().enumerate() {
            plan[id.index()] = 1 + ((fi + r) as u32 % (procs - 1));
        }
    }
    plan
}

/// A deployment running under the simulator.
pub struct RunningSystem {
    /// The simulation.
    pub sim: Sim<NetMsg>,
    /// Metrics collected by the client proxy.
    pub metrics: MetricsHub,
}

impl RunningSystem {
    /// Runs the simulation to `until`.
    pub fn run_until(&mut self, until: Time) {
        self.sim.run_until(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_diagram::{
        plan_deployment, DeploymentSpec, DpcConfig, FragmentSpec, QueryBuilder,
    };
    use borealis_types::Expr;

    fn tiny_layout(faults: Vec<FaultSpec>) -> SystemLayout {
        let mut q = QueryBuilder::new();
        let s1 = q.source("s1");
        let s2 = q.source("s2");
        let u = q.union("u", &[s1, s2]);
        q.output(u);
        let d = q.build().unwrap();
        let cfg = DpcConfig {
            total_delay: Duration::from_secs(2),
            ..DpcConfig::default()
        };
        let p = plan_deployment(&d, &DeploymentSpec::single(2), &cfg).unwrap();
        SystemBuilder::new(1, Duration::from_millis(1))
            .source(SourceConfig::seq(s1.id(), 100.0))
            .source(SourceConfig::seq(s2.id(), 100.0))
            .plan(p)
            .client_streams(vec![u.id()])
            .faults(faults)
            .layout()
    }

    #[test]
    fn layout_assigns_sources_nodes_client_in_order() {
        let l = tiny_layout(Vec::new());
        assert_eq!(l.actors.len(), 5, "2 sources + 2 replicas + 1 client");
        assert!(matches!(l.actors[0], ActorSpec::Source(_)));
        assert!(matches!(l.actors[1], ActorSpec::Source(_)));
        assert!(matches!(l.actors[2], ActorSpec::Node(_)));
        assert!(matches!(l.actors[3], ActorSpec::Node(_)));
        assert!(matches!(l.actors[4], ActorSpec::Client { .. }));
        assert_eq!(l.fragment_replicas, vec![vec![NodeId(2), NodeId(3)]]);
        assert_eq!(l.client, Some(NodeId(4)));
        assert_eq!(l.source_of(StreamId(1)), NodeId(1));
    }

    #[test]
    fn plan_spreads_replicas_across_processes() {
        let layout = tiny_layout(Vec::new());
        let plan = plan_processes(&layout, 3);
        assert_eq!(plan.len(), layout.actors.len());
        // Sources and client stay in process 0.
        for (_, id) in &layout.source_ids {
            assert_eq!(plan[id.index()], 0);
        }
        assert_eq!(plan[layout.client.unwrap().index()], 0);
        // Same-fragment replicas land in different processes.
        for replicas in &layout.fragment_replicas {
            let procs: std::collections::HashSet<u32> =
                replicas.iter().map(|id| plan[id.index()]).collect();
            assert_eq!(procs.len(), replicas.len().min(2));
            assert!(!procs.contains(&0), "replicas avoid the client process");
        }
        let single = plan_processes(&layout, 1);
        assert!(single.iter().all(|p| *p == 0));
    }

    fn sharded_layout(k: u32, work_replication: usize, faults: Vec<FaultSpec>) -> SystemLayout {
        let mut q = QueryBuilder::new();
        let s1 = q.source("s1");
        let s2 = q.source("s2");
        let u = q.union("ingest", &[s1, s2]);
        let w = q.map("work", u, vec![Expr::field(0)]);
        let out = q.map("deliver", w, vec![Expr::field(0)]);
        q.output(out);
        let d = q.build().unwrap();
        let spec = DeploymentSpec::new()
            .fragment(FragmentSpec::named("ingest").op("ingest"))
            .fragment(
                FragmentSpec::named("work")
                    .op("work")
                    .replication(work_replication)
                    .shards(k, Expr::field(0))
                    .work_cost(Duration::from_micros(80)),
            )
            .fragment(FragmentSpec::named("deliver").op("deliver"));
        let cfg = DpcConfig {
            total_delay: Duration::from_secs(3),
            ..DpcConfig::default()
        };
        let p = plan_deployment(&d, &spec, &cfg).unwrap();
        SystemBuilder::new(5, Duration::from_millis(1))
            .source(SourceConfig::seq(s1.id(), 150.0))
            .source(SourceConfig::seq(s2.id(), 150.0))
            .plan(p)
            .client_streams(vec![out.id()])
            .faults(faults)
            .layout()
    }

    /// Sharded layouts: cumulative id assignment across heterogeneous
    /// replication, one partition filter per shard replica, and
    /// logical→physical fragment groups.
    #[test]
    fn sharded_layout_assigns_ids_partitions_and_groups() {
        let l = sharded_layout(2, 2, Vec::new());
        // 2 sources + ingest 2 + work 2 shards × 2 + deliver 2 + client.
        assert_eq!(l.actors.len(), 2 + 2 + 4 + 2 + 1);
        assert_eq!(l.groups, vec![vec![0], vec![1, 2], vec![3]]);
        assert_eq!(l.fragment_replicas.len(), 4);
        assert_eq!(l.shard_replicas(1, 1), &[NodeId(6), NodeId(7)]);
        assert_eq!(l.client, Some(NodeId(10)));
        // One filter per work replica, with matching shard indexes.
        assert_eq!(l.partitions.len(), 4);
        for (node, spec) in &l.partitions {
            assert_eq!(spec.shards, 2);
            let shard = if node.index() < 6 { 0 } else { 1 };
            assert_eq!(spec.index, shard);
        }
        // Work-stage cost override sticks to work replicas only.
        let cost_of = |id: usize| match &l.actors[id] {
            ActorSpec::Node(cfg) => cfg.tuning.per_tuple_cost,
            _ => panic!("not a node"),
        };
        assert_eq!(cost_of(4), Duration::from_micros(80));
        assert_ne!(cost_of(2), Duration::from_micros(80));
    }

    /// Every [`FaultSpec`] variant, lowered on the sharded layout (sources
    /// 0-1, ingest 2-3, work shard 0 = 4-5 and shard 1 = 6-7, deliver 8-9):
    /// the exact events, in script order.
    #[test]
    fn topology_faults_lower_to_concrete_events_on_both_replicas() {
        use FaultEvent::{Custom, LinkDown, LinkUp, NodeDown, NodeUp, ProcessDown, ProcessUp};
        let script = |faults: &[FaultSpec]| sharded_layout(2, 2, faults.to_vec()).script;
        let (t1, t2) = (Time::from_secs(1), Time::from_secs(2));
        let s1 = StreamId(0);
        let cut = |shard, replica| FaultSpec::CutSourceLink {
            stream: s1,
            frag: 1,
            shard,
            replica,
            from: t1,
            to: t2,
        };
        let disconnect = |frag, from, to| FaultSpec::DisconnectSource {
            stream: s1,
            frag,
            from,
            to,
        };
        let mute = FaultSpec::MuteBoundaries {
            stream: StreamId(1),
            from: t1,
            to: t2,
        };
        let crash = |to| FaultSpec::Crash {
            domain: CrashDomain::Replica {
                frag: 1,
                shard: 1,
                replica: 0,
            },
            from: t1,
            to,
        };
        let restart = |after| FaultSpec::RestartReplica {
            frag: 1,
            shard: 1,
            replica: 0,
            after,
        };
        let share_crash = |share, to| FaultSpec::Crash {
            domain: CrashDomain::Share { share, shares: 3 },
            from: t1,
            to,
        };
        let down = |at, b| (at, LinkDown { a: NodeId(0), b });
        let up = |at, b| (at, LinkUp { a: NodeId(0), b });
        let custom = |at, tag| {
            let target = NodeId(1);
            (at, Custom { target, tag })
        };
        let work = [NodeId(4), NodeId(5), NodeId(6), NodeId(7)];
        let victim = NodeId(6);
        // `plan_processes` over 3 shares: replica r of physical fragment f
        // in share 1 + (f + r) % 2.
        let share1 = vec![NodeId(2), NodeId(5), NodeId(6), NodeId(9)];
        let share2 = vec![NodeId(3), NodeId(4), NodeId(7), NodeId(8)];
        let t1_up = t1 + RESTART_DELAY;

        let cases: Vec<(FaultSpec, Vec<(Time, FaultEvent)>)> = vec![
            (cut(1, 0), vec![down(t1, victim), up(t2, victim)]),
            (
                disconnect(1, t1, t2),
                work.iter()
                    .map(|&n| down(t1, n))
                    .chain(work.iter().map(|&n| up(t2, n)))
                    .collect(),
            ),
            (
                mute,
                vec![
                    custom(t1, DataSource::MUTE_BOUNDARIES),
                    custom(t2, DataSource::UNMUTE_BOUNDARIES),
                ],
            ),
            (crash(None), vec![(t1, NodeDown(victim))]),
            (
                crash(Some(t2)),
                vec![(t1, NodeDown(victim)), (t2, NodeUp(victim))],
            ),
            (
                restart(t1),
                vec![(t1, NodeDown(victim)), (t1_up, NodeUp(victim))],
            ),
            (
                share_crash(1, Some(t2)),
                vec![
                    (t1, ProcessDown(share1.clone())),
                    (t2, ProcessUp(share1.clone())),
                ],
            ),
            (share_crash(2, None), vec![(t1, ProcessDown(share2))]),
        ];
        for (fault, want) in cases {
            assert_eq!(script(std::slice::from_ref(&fault)), want, "{fault:?}");
        }
        // Share 0 holds the sources and the client: crashing it, or a
        // share the deployment does not have, is refused at layout.
        for share in [0, 3] {
            let refused = std::panic::catch_unwind(|| script(&[share_crash(share, None)]));
            assert!(refused.is_err(), "share {share} of 3 crashed");
        }
        // Every actor still up hears a share crash at once, as each
        // victim's NodeDown; a victim hears its own only. A replica crash
        // stays its victim's own (§2.2: keep-alive detection).
        let everyone = || (0..11).map(NodeId);
        let hears = |h| {
            if share1.contains(&h) {
                vec![h]
            } else {
                share1.clone()
            }
        };
        let want: Vec<(NodeId, FaultEvent)> = everyone()
            .flat_map(|h| hears(h).into_iter().map(move |v| (h, NodeDown(v))))
            .collect();
        let mut fabric: Fabric<NetMsg> = Fabric::new(Vec::new(), CreditPolicy::Unbounded);
        let (_, crash_share1) = &script(&[share_crash(1, None)])[0];
        assert_eq!(fabric.apply(crash_share1, t1, everyone()), want);
        let alone = fabric.apply(&NodeDown(NodeId(3)), t1, everyone());
        assert_eq!(alone, vec![(NodeId(3), NodeDown(NodeId(3)))]);
        assert_eq!(
            script(&[disconnect(1, t1, t2)]),
            script(&[cut(0, 0), cut(0, 1), cut(1, 0), cut(1, 1)]),
            "DisconnectSource is CutSourceLink on every shard and replica"
        );
        assert_eq!(script(&[restart(t1)]), script(&[crash(Some(t1_up))]));

        // The benchmark's `chain_faults` schedule: a source outage on the
        // ingest stage, then a work replica restarted from disk. Same-time
        // events keep the order the faults were given in, across faults
        // too (the sort by time is stable).
        let (t5, t8) = (Time::from_secs(5), Time::from_secs(8));
        let (i0, i1) = (NodeId(2), NodeId(3));
        assert_eq!(
            script(&[disconnect(0, t2, t5), restart(t8)]),
            vec![
                down(t2, i0),
                down(t2, i1),
                up(t5, i0),
                up(t5, i1),
                (t8, NodeDown(victim)),
                (t8 + RESTART_DELAY, NodeUp(victim)),
            ]
        );
        assert_eq!(
            script(&[crash(Some(t2)), cut(1, 0)]),
            vec![
                (t1, NodeDown(victim)),
                down(t1, victim),
                (t2, NodeUp(victim)),
                up(t2, victim),
            ]
        );
    }

    /// End to end under the simulator: a sharded middle stage produces the
    /// same deduplicated stable stream a client expects, and the downstream
    /// SUnion merges the shard substreams.
    #[test]
    fn sharded_system_runs_clean_under_sim() {
        let out = StreamId(4);
        let mut sys = sharded_layout(2, 2, Vec::new()).deploy_sim();
        sys.run_until(Time::from_secs(10));
        sys.metrics.with(out, |m| {
            assert!(m.n_stable > 1500, "stable = {}", m.n_stable);
            assert_eq!(m.n_tentative, 0);
            assert_eq!(m.dup_stable, 0);
        });
    }

    /// A fragment's buffer policy from the deployment spec reaches exactly
    /// that fragment's replicas; the others keep everything.
    #[test]
    fn fragment_buffer_policy_reaches_its_replicas() {
        let mut q = QueryBuilder::new();
        let s1 = q.source("s1");
        let f = q.map("front", s1, vec![borealis_types::Expr::field(0)]);
        let b = q.map("back", f, vec![borealis_types::Expr::field(0)]);
        q.output(b);
        let d = q.build().unwrap();
        let spec = DeploymentSpec::new()
            .fragment(
                FragmentSpec::named("front")
                    .op("front")
                    .buffer(BufferPolicy::DropOldest(256)),
            )
            .fragment(FragmentSpec::named("back").op("back"));
        let p = plan_deployment(&d, &spec, &DpcConfig::default()).unwrap();
        let l = SystemBuilder::new(1, Duration::from_millis(1))
            .source(SourceConfig::seq(s1.id(), 50.0))
            .plan(p)
            .client_streams(vec![b.id()])
            .layout();
        let policy_of = |id: usize| match &l.actors[id] {
            ActorSpec::Node(cfg) => cfg.buffer,
            _ => panic!("not a node"),
        };
        // ids: source 0, front replicas 1-2, back replicas 3-4, client 5.
        assert_eq!(policy_of(1), BufferPolicy::DropOldest(256));
        assert_eq!(policy_of(2), BufferPolicy::DropOldest(256));
        assert_eq!(policy_of(3), BufferPolicy::Unbounded, "the default");
    }

    /// The builder's credit policy reaches the simulator's fabric, and
    /// a bounded deployment still runs clean below saturation (credits are
    /// returned as the modeled CPU consumes, so a healthy run never sees
    /// the window as a limit).
    #[test]
    fn credit_policy_reaches_sim_fabric() {
        let l = tiny_layout(Vec::new());
        let sys = l.deploy_sim();
        assert_eq!(sys.sim.fabric().policy(), CreditPolicy::Unbounded);

        let mut q = QueryBuilder::new();
        let s1 = q.source("s1");
        let u = q.relay("out", s1);
        q.output(u);
        let d = q.build().unwrap();
        let cfg = DpcConfig {
            total_delay: Duration::from_secs(2),
            ..DpcConfig::default()
        };
        let p = plan_deployment(&d, &DeploymentSpec::single(2), &cfg).unwrap();
        let mut sys = SystemBuilder::new(9, Duration::from_millis(1))
            .source(SourceConfig::seq(s1.id(), 200.0))
            .plan(p)
            .client_streams(vec![u.id()])
            .credit_policy(CreditPolicy::Window(32))
            .build();
        assert_eq!(sys.sim.fabric().policy(), CreditPolicy::Window(32));
        sys.run_until(Time::from_secs(5));
        sys.metrics.with(u.id(), |m| {
            assert!(m.n_stable > 500, "stable = {}", m.n_stable);
            assert_eq!(m.n_tentative, 0, "no stall below saturation");
            assert_eq!(m.dup_stable, 0);
        });
        let g = sys.sim.stats().flow;
        assert!(g.delivered > 0, "data messages were metered: {g:?}");
    }

    #[test]
    fn scripted_layout_deploys_and_runs_under_sim() {
        let l = tiny_layout(vec![FaultSpec::DisconnectSource {
            stream: StreamId(0),
            frag: 0,
            from: Time::from_secs(3),
            to: Time::from_secs(5),
        }]);
        let out = StreamId(2);
        let mut sys = l.deploy_sim();
        sys.run_until(Time::from_secs(12));
        sys.metrics.with(out, |m| {
            assert!(m.n_stable > 0);
            assert!(
                m.n_rec_done >= 1,
                "scripted disconnect must trigger a stabilization"
            );
            assert_eq!(m.dup_stable, 0);
        });
    }
}
