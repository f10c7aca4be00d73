//! DPC physical planning (§3, §6.3).
//!
//! [`plan_deployment`] — the one entry point — turns a validated logical
//! [`Diagram`] plus a [`DeploymentSpec`] into the per-fragment *physical*
//! diagrams that nodes execute:
//!
//! * every stream entering a fragment passes through an **input SUnion**
//!   (failure detection, delay management, replay logging — §4.2.3);
//! * every `Union` becomes an **SUnion**, every `Join` becomes an SUnion
//!   followed by an **SJoin** (§3);
//! * every stream leaving a fragment passes through an **SOutput** (§4.4.2);
//! * a fragment with `shards = K` runs as K key-partitioned physical
//!   fragments, each producing its own substream of every output, and the
//!   consumer's input SUnion merges the K substreams back into one
//!   deterministic stream;
//! * each SUnion receives its share of the application's incremental latency
//!   budget `X` according to the chosen [`DelayAssignment`] (§6.3).
//!
//! Planning is one pass. The physical streams are decided first — which
//! streams cross a fragment boundary, and the K substreams of each sharded
//! fragment's outputs — so each logical fragment is lowered once, every
//! external input bound to one port per physical substream, and a sharded
//! fragment's K physical fragments are copies that differ only in their
//! [`ShardAssignment`] and the names of their output streams.

use crate::graph::{Diagram, DiagramError, LogicalOp, OpNode};
use crate::spec::DeploymentSpec;
use borealis_ops::{DelayMode, OperatorSpec, SJoinSpec, SUnionConfig};
use borealis_types::{BufferPolicy, Duration, Expr, FragmentId, StreamId};
use std::collections::{HashMap, HashSet};

/// Whether the planner wraps the diagram in DPC's fault-tolerance
/// machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protection {
    /// Full DPC: entry SUnions on every external input, SOutputs on every
    /// crossing stream (§3). The default.
    #[default]
    Dpc,
    /// The paper's non-fault-tolerant baseline (§7, Fig. 22(b)): external
    /// inputs bind directly to their consuming operators, `Union` stays a
    /// plain union, and crossing streams leave from the producing operator
    /// with no SOutput. No serialization, no failure handling.
    Baseline,
}

/// How the total incremental latency `X` is divided among SUnions (§6.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayAssignment {
    /// `X / max-SUnions-per-path` at each SUnion — the naive division the
    /// paper shows to be suboptimal.
    Uniform,
    /// The full budget (minus a queueing safety margin chosen by the caller,
    /// e.g. 6.5 s of an 8 s budget) at *every* SUnion — the paper's
    /// recommended strategy: on a failure every downstream SUnion suspends
    /// simultaneously, so the initial delays do not add up.
    Full {
        /// The effective per-SUnion delay (X minus the safety margin).
        effective: Duration,
    },
}

/// DPC deployment parameters.
#[derive(Debug, Clone)]
pub struct DpcConfig {
    /// SUnion bucket granularity (§4.2.1).
    pub bucket: Duration,
    /// The application's maximum incremental processing latency `X`
    /// (§2.3.1).
    pub total_delay: Duration,
    /// Fraction of the assigned delay actually used before declaring a
    /// failure; the paper's implementation uses 0.9 "as a precaution"
    /// because operators do not control when the scheduler runs them.
    pub safety: f64,
    /// Delay division strategy.
    pub assignment: DelayAssignment,
    /// Policy during UP_FAILURE (§6.1).
    pub failure_mode: DelayMode,
    /// Policy during STABILIZATION (§6.1).
    pub stabilization_mode: DelayMode,
    /// DPC machinery on ([`Protection::Dpc`]) or the non-fault-tolerant
    /// baseline ([`Protection::Baseline`]).
    pub protection: Protection,
}

impl Default for DpcConfig {
    fn default() -> Self {
        DpcConfig {
            bucket: Duration::from_millis(100),
            total_delay: Duration::from_secs(3),
            safety: 0.9,
            assignment: DelayAssignment::Uniform,
            failure_mode: DelayMode::Process,
            stabilization_mode: DelayMode::Process,
            protection: Protection::Dpc,
        }
    }
}

/// A physical operator instance within a fragment.
#[derive(Debug, Clone)]
pub struct PhysOp {
    /// What to instantiate.
    pub spec: OperatorSpec,
    /// Intra-fragment consumers of this op's output: `(op index, port)`.
    pub fanout: Vec<(usize, usize)>,
    /// Set if this op's output leaves the fragment (it is then an SOutput).
    pub external_output: Option<StreamId>,
}

/// An external input binding of a fragment.
#[derive(Debug, Clone)]
pub struct FragmentInput {
    /// The global stream (a source's, or another fragment's output).
    pub stream: StreamId,
    /// Index of the receiving op (an input SUnion under DPC).
    pub target: usize,
    /// Port on that op.
    pub port: usize,
}

/// An output binding of a fragment.
#[derive(Debug, Clone)]
pub struct FragmentOutput {
    /// The global stream.
    pub stream: StreamId,
    /// Index of the SOutput op producing it.
    pub op: usize,
}

/// One physical instance's slice of a key-partitioned fragment.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardAssignment {
    /// Key expression partitioning the fragment's input streams.
    pub key: Expr,
    /// Total number of shards (K).
    pub count: u32,
    /// This instance's shard index in `[0, K)`.
    pub index: u32,
}

/// The physical diagram of one fragment.
#[derive(Debug, Clone)]
pub struct FragmentPlan {
    /// Fragment identity.
    pub id: FragmentId,
    /// Operators in topological order.
    pub ops: Vec<PhysOp>,
    /// External input bindings.
    pub inputs: Vec<FragmentInput>,
    /// Output bindings.
    pub outputs: Vec<FragmentOutput>,
    /// Set when this fragment is one shard of a key-partitioned group: the
    /// deployment layer installs the matching partition filter on every
    /// replica, so only this shard's slice of each input stream arrives.
    pub shard: Option<ShardAssignment>,
}

/// Deployment settings of one *logical* fragment in a physical plan: its
/// replication degree and the physical fragment indexes belonging to it
/// (one per shard).
#[derive(Debug, Clone)]
pub struct PlanGroup {
    /// Fragment name (from the deployment spec).
    pub name: String,
    /// Replicas per physical fragment (the paper requires two for
    /// availability during stabilization; one is allowed for single-node
    /// studies).
    pub replication: usize,
    /// Physical fragment indexes of this group, in shard order.
    pub fragments: Vec<usize>,
    /// Optional per-fragment CPU cost override (heterogeneous stages).
    pub per_tuple_cost: Option<Duration>,
    /// Optional per-fragment §8.1 output-buffer policy (unset: unbounded).
    pub buffer_policy: Option<BufferPolicy>,
}

/// The full physical plan.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// One plan per physical fragment, indexed by [`FragmentId::index`].
    pub fragments: Vec<FragmentPlan>,
    /// Per-logical-fragment deployment settings (replication, sharding).
    pub groups: Vec<PlanGroup>,
    /// Maximum number of SUnions on any source→output path (drives the
    /// Uniform delay assignment).
    pub max_sunion_depth: usize,
    /// The per-SUnion detection delay that was assigned.
    pub per_sunion_delay: Duration,
}

/// Plans a diagram against a declarative [`DeploymentSpec`] in one pass:
/// resolves the fragment cut by operator name, decides the physical
/// streams, lowers each logical fragment once, and assigns the SUnion
/// delays (§6.3).
///
/// A fragment with `shards = K > 1` becomes K key-partitioned physical
/// fragments:
///
/// * each shard produces its own substream of every output stream, so the
///   K instances are complementary producers rather than replicas;
/// * every consumer's input SUnion has one port per substream and merges
///   the K serialized substreams back into one deterministic stream (§4.2's
///   bucket ordering makes the merge identical on every replica and every
///   runtime);
/// * the shard's [`ShardAssignment`] tells the deployment layer to install
///   a [`PartitionSpec`](borealis_types::PartitionSpec) filter on each
///   replica, so senders fan data out by `hash(key) % K` on the wire.
///
/// Sharding composes with DPC replication unchanged: each shard is its own
/// fragment with its own replica set, stagger protocol, and upstream
/// monitoring. A cut whose fragments feed each other in a cycle is
/// rejected ([`DiagramError::BackwardsEdge`]).
pub fn plan_deployment(
    diagram: &Diagram,
    spec: &DeploymentSpec,
    cfg: &DpcConfig,
) -> Result<PhysicalPlan, DiagramError> {
    let (assignment, metas) = spec.resolve(diagram)?;
    for m in &metas {
        if m.shards > 1 && cfg.protection != Protection::Dpc {
            return Err(DiagramError::ShardsRequireDpc(m.name.clone()));
        }
        if m.buffer_policy == Some(BufferPolicy::DropOldest(0)) {
            return Err(DiagramError::ZeroCapacityBuffer(m.name.clone()));
        }
    }
    let frag_of = |op: &OpNode| assignment[op.id.index()].index();
    let topo = || {
        diagram
            .topo_order()
            .iter()
            .map(move |id| &diagram.ops()[id.index()])
    };

    let mut streams = Streams {
        cfg,
        produced_in: diagram
            .ops()
            .iter()
            .map(|o| (o.output, frag_of(o)))
            .collect(),
        uses: HashMap::new(),
        crosses: diagram.output_streams().iter().copied().collect(),
        subs: HashMap::new(),
    };
    // Streams leave their fragment when another fragment consumes them (or
    // clients do); `feeds[f]` lists the fragments consuming `f`'s outputs.
    let mut feeds = vec![Vec::new(); metas.len()];
    for op in diagram.ops() {
        let f = frag_of(op);
        for &s in &op.inputs {
            *streams.uses.entry((s, f)).or_default() += 1;
            match streams.produced_in.get(&s) {
                Some(&from) if from != f => {
                    streams.crosses.insert(s);
                    if !feeds[from].contains(&f) {
                        feeds[from].push(f);
                    }
                }
                _ => {}
            }
        }
    }
    if let Some((from, to)) = fragment_cycle(&feeds) {
        return Err(DiagramError::BackwardsEdge {
            from: FragmentId(from as u32),
            to: FragmentId(to as u32),
        });
    }

    // Each output of a sharded fragment becomes K fresh substreams,
    // numbered after the diagram's own streams by fragment, then output
    // (in topological order), then shard.
    let mut next = diagram.n_streams() as u32;
    for (f, m) in metas.iter().enumerate().filter(|(_, m)| m.shards > 1) {
        for op in topo().filter(|o| frag_of(o) == f && streams.crosses.contains(&o.output)) {
            if diagram.output_streams().contains(&op.output) {
                return Err(DiagramError::ShardedOutput(op.output));
            }
            let subs = (next..next + m.shards).map(StreamId).collect();
            streams.subs.insert(op.output, subs);
            next += m.shards;
        }
    }

    let mut lowered: Vec<Lowering> = (0..metas.len()).map(Lowering::new).collect();
    for op in topo() {
        lowered[frag_of(op)].lower(op, &streams)?;
    }

    let mut fragments = Vec::new();
    let mut groups = Vec::with_capacity(metas.len());
    for (lowering, m) in lowered.into_iter().zip(metas) {
        let first = fragments.len();
        for index in 0..m.shards.max(1) {
            let mut fp = lowering.plan.clone();
            fp.id = FragmentId(fragments.len() as u32);
            if m.shards > 1 {
                fp.shard = Some(ShardAssignment {
                    key: m
                        .shard_key
                        .clone()
                        .expect("FragmentSpec::shards sets a key"),
                    count: m.shards,
                    index,
                });
                for out in &mut fp.outputs {
                    out.stream = streams.subs[&out.stream][index as usize];
                    fp.ops[out.op].external_output = Some(out.stream);
                }
            }
            fragments.push(fp);
        }
        groups.push(PlanGroup {
            name: m.name,
            replication: m.replication,
            fragments: (first..fragments.len()).collect(),
            per_tuple_cost: m.per_tuple_cost,
            buffer_policy: m.buffer_policy,
        });
    }

    // Delay assignment (§6.3).
    let max_sunion_depth = max_sunion_depth(&fragments);
    let per_sunion_delay = match cfg.assignment {
        DelayAssignment::Uniform => {
            let d = cfg.total_delay.as_micros() / max_sunion_depth.max(1) as u64;
            Duration::from_micros((d as f64 * cfg.safety) as u64)
        }
        DelayAssignment::Full { effective } => effective,
    };
    for op in fragments.iter_mut().flat_map(|fp| &mut fp.ops) {
        if let OperatorSpec::SUnion(su) = &mut op.spec {
            su.detect_delay = per_sunion_delay;
            su.delay_budget = per_sunion_delay;
        }
    }

    Ok(PhysicalPlan {
        fragments,
        groups,
        max_sunion_depth,
        per_sunion_delay,
    })
}

/// The physical streams of a deployment, decided before any fragment is
/// lowered.
struct Streams<'a> {
    cfg: &'a DpcConfig,
    /// The logical fragment producing each stream (sources: none).
    produced_in: HashMap<StreamId, usize>,
    /// How many input ports of a logical fragment's operators read a stream.
    uses: HashMap<(StreamId, usize), usize>,
    /// Streams leaving their producing fragment.
    crosses: HashSet<StreamId>,
    /// The K substreams of each sharded fragment's outputs.
    subs: HashMap<StreamId, Vec<StreamId>>,
}

impl Streams<'_> {
    fn dpc(&self) -> bool {
        self.cfg.protection == Protection::Dpc
    }

    /// Whether `s` enters logical fragment `f` from outside.
    fn external(&self, s: StreamId, f: usize) -> bool {
        self.produced_in.get(&s) != Some(&f)
    }

    /// The physical streams carrying `s`: its substreams, or itself.
    fn physical<'s>(&'s self, s: &'s StreamId) -> &'s [StreamId] {
        self.subs
            .get(s)
            .map_or(std::slice::from_ref(s), Vec::as_slice)
    }

    fn sunion(&self, n_inputs: usize, is_input: bool) -> OperatorSpec {
        // Delays are assigned once the whole plan is known.
        OperatorSpec::SUnion(SUnionConfig {
            bucket: self.cfg.bucket,
            failure_mode: self.cfg.failure_mode,
            stabilization_mode: self.cfg.stabilization_mode,
            is_input,
            ..SUnionConfig::new(n_inputs)
        })
    }
}

/// One logical fragment's physical diagram under construction.
struct Lowering {
    fragment: usize,
    plan: FragmentPlan,
    /// The op carrying each stream available inside the fragment: its
    /// producer, or an external stream's entry SUnion.
    local: HashMap<StreamId, usize>,
}

impl Lowering {
    fn new(fragment: usize) -> Lowering {
        Lowering {
            fragment,
            plan: FragmentPlan {
                id: FragmentId(fragment as u32),
                ops: Vec::new(),
                inputs: Vec::new(),
                outputs: Vec::new(),
                shard: None,
            },
            local: HashMap::new(),
        }
    }

    fn push(&mut self, spec: OperatorSpec) -> usize {
        self.plan.ops.push(PhysOp {
            spec,
            fanout: Vec::new(),
            external_output: None,
        });
        self.plan.ops.len() - 1
    }

    /// An input SUnion over the external `inputs`, one port per physical
    /// substream, in order.
    fn entry(&mut self, inputs: &[StreamId], streams: &Streams) -> usize {
        let ports: Vec<StreamId> = inputs
            .iter()
            .flat_map(|s| streams.physical(s))
            .copied()
            .collect();
        let target = self.push(streams.sunion(ports.len(), true));
        for (port, stream) in ports.into_iter().enumerate() {
            self.plan.inputs.push(FragmentInput {
                stream,
                target,
                port,
            });
        }
        target
    }

    /// The op carrying `s` inside the fragment: its local producer, or its
    /// entry SUnion, created on first use.
    fn feeder(&mut self, s: StreamId, streams: &Streams) -> usize {
        if let Some(&idx) = self.local.get(&s) {
            return idx;
        }
        let idx = self.entry(&[s], streams);
        self.local.insert(s, idx);
        idx
    }

    /// Pushes `spec` reading `inputs`, port by port. Each input's feeder is
    /// materialized first, so ops stay in topological order; in a baseline
    /// plan an external input binds to the op itself.
    fn op(&mut self, spec: OperatorSpec, inputs: &[StreamId], streams: &Streams) -> usize {
        let dpc = streams.dpc();
        let feeders: Vec<Option<usize>> = inputs
            .iter()
            .map(|&s| (dpc || !streams.external(s, self.fragment)).then(|| self.feeder(s, streams)))
            .collect();
        let idx = self.push(spec);
        for (port, (feeder, &stream)) in feeders.into_iter().zip(inputs).enumerate() {
            match feeder {
                Some(feeder) => self.plan.ops[feeder].fanout.push((idx, port)),
                None => self.plan.inputs.push(FragmentInput {
                    stream,
                    target: idx,
                    port,
                }),
            }
        }
        idx
    }

    /// Lowers one logical operator of this fragment (operators arrive in
    /// topological order).
    fn lower(&mut self, node: &OpNode, streams: &Streams) -> Result<(), DiagramError> {
        let dpc = streams.dpc();
        // A multi-input op is the fragment's entry for all of its inputs
        // when each is external, feeds only this op here, and has no entry
        // SUnion yet (DPC only).
        let absorbs = dpc
            && node.inputs.iter().all(|&s| {
                streams.external(s, self.fragment)
                    && streams.uses[&(s, self.fragment)] == 1
                    && !self.local.contains_key(&s)
            });
        let n = node.inputs.len();
        let out = match &node.op {
            LogicalOp::Union if absorbs => self.entry(&node.inputs, streams),
            LogicalOp::Union if dpc => self.op(streams.sunion(n, false), &node.inputs, streams),
            // Baseline: a plain, non-serializing union.
            LogicalOp::Union => self.op(OperatorSpec::Union { n_inputs: n }, &node.inputs, streams),
            LogicalOp::Join(js) => {
                // An SUnion serializing all inputs (the first is the left
                // side), then the SJoin. Joins keep their serializer even in
                // baseline mode — deterministic matching requires it.
                let (su, left_split) = if absorbs {
                    let left = streams.physical(&node.inputs[0]).len();
                    (self.entry(&node.inputs, streams), left)
                } else {
                    (self.op(streams.sunion(n, false), &node.inputs, streams), 1)
                };
                let join = self.push(OperatorSpec::SJoin(SJoinSpec {
                    window: js.window,
                    left_key: js.left_key.clone(),
                    right_key: js.right_key.clone(),
                    max_state: js.max_state,
                    left_split: left_split as u16,
                }));
                self.plan.ops[su].fanout.push((join, 0));
                join
            }
            // Identity: no physical operator. The input's feeder stands in
            // for it — a DPC tap is exactly [entry SUnion, SOutput].
            LogicalOp::Passthrough if dpc => self.feeder(node.inputs[0], streams),
            LogicalOp::Passthrough => {
                return Err(DiagramError::UnprotectedPassthrough(node.output))
            }
            LogicalOp::Filter { predicate } => {
                let spec = OperatorSpec::Filter {
                    predicate: predicate.clone(),
                };
                self.op(spec, &node.inputs, streams)
            }
            LogicalOp::Map { outputs } => {
                let spec = OperatorSpec::Map {
                    outputs: outputs.clone(),
                };
                self.op(spec, &node.inputs, streams)
            }
            LogicalOp::Aggregate(a) => {
                self.op(OperatorSpec::Aggregate(a.clone()), &node.inputs, streams)
            }
        };
        self.local.insert(node.output, out);

        // A stream crossing the fragment boundary leaves through an SOutput
        // (DPC) or directly from its producing op (baseline).
        if streams.crosses.contains(&node.output) {
            let op = if dpc {
                let so = self.push(OperatorSpec::SOutput);
                self.plan.ops[out].fanout.push((so, 0));
                so
            } else {
                out
            };
            self.plan.ops[op].external_output = Some(node.output);
            self.plan.outputs.push(FragmentOutput {
                stream: node.output,
                op,
            });
        }
        Ok(())
    }
}

/// A fragment edge `(from, to)` on a cycle of the fragment graph, if there
/// is one: `feeds[f]` lists the fragments consuming `f`'s outputs. Such a
/// cut could never stabilize — each fragment would wait on the other's
/// corrections.
fn fragment_cycle(feeds: &[Vec<usize>]) -> Option<(usize, usize)> {
    let reaches = |start: usize, goal: usize| {
        let mut seen = vec![false; feeds.len()];
        let mut stack = vec![start];
        while let Some(f) = stack.pop() {
            if f == goal {
                return true;
            }
            if !std::mem::replace(&mut seen[f], true) {
                stack.extend(&feeds[f]);
            }
        }
        false
    };
    feeds
        .iter()
        .enumerate()
        .flat_map(|(from, tos)| tos.iter().map(move |&to| (from, to)))
        .find(|&(from, to)| reaches(to, from))
}

/// Longest source→output path measured in SUnion hops, across fragments.
fn max_sunion_depth(fragments: &[FragmentPlan]) -> usize {
    // Global node = (fragment index, op index). Longest-path DP over the
    // global DAG; depth counts SUnion nodes.
    type Node = (usize, usize);
    let mut enters: HashMap<StreamId, Vec<Node>> = HashMap::new();
    for (fi, fp) in fragments.iter().enumerate() {
        for input in &fp.inputs {
            enters
                .entry(input.stream)
                .or_default()
                .push((fi, input.target));
        }
    }

    fn depth(
        (fi, oi): Node,
        fragments: &[FragmentPlan],
        enters: &HashMap<StreamId, Vec<Node>>,
        memo: &mut HashMap<Node, usize>,
    ) -> usize {
        if let Some(&d) = memo.get(&(fi, oi)) {
            return d;
        }
        let op = &fragments[fi].ops[oi];
        let local = op.fanout.iter().map(|&(c, _)| (fi, c));
        let remote = op
            .external_output
            .iter()
            .flat_map(|s| enters.get(s))
            .flatten()
            .copied();
        let best = local
            .chain(remote)
            .map(|next| depth(next, fragments, enters, memo))
            .max();
        let d = usize::from(op.spec.is_sunion()) + best.unwrap_or(0);
        memo.insert((fi, oi), d);
        d
    }

    // Paths start at the streams no fragment produces: the sources.
    let produced: HashSet<StreamId> = fragments
        .iter()
        .flat_map(|fp| &fp.outputs)
        .map(|o| o.stream)
        .collect();
    let mut memo = HashMap::new();
    let starts = enters.iter().filter(|(s, _)| !produced.contains(s));
    starts
        .flat_map(|(_, nodes)| nodes)
        .map(|&node| depth(node, fragments, &enters, &mut memo))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::JoinSpec;
    use crate::query::QueryBuilder;
    use crate::spec::FragmentSpec;

    /// Plans `d` as one fragment.
    fn plan_single(d: &Diagram, cfg: &DpcConfig) -> Result<PhysicalPlan, DiagramError> {
        plan_deployment(d, &DeploymentSpec::single(2), cfg)
    }

    /// The `f0` → `f1` chain cut into one fragment per operator.
    fn two_fragments() -> DeploymentSpec {
        DeploymentSpec::new()
            .fragment(FragmentSpec::named("a").op("f0"))
            .fragment(FragmentSpec::named("b").op("f1"))
    }

    fn filter() -> LogicalOp {
        LogicalOp::Filter {
            predicate: Expr::Const(borealis_types::Value::Bool(true)),
        }
    }

    /// The physical fragment whose outputs include `stream`.
    fn producer(p: &PhysicalPlan, stream: StreamId) -> Option<usize> {
        p.fragments
            .iter()
            .position(|fp| fp.outputs.iter().any(|o| o.stream == stream))
    }

    /// The SUnion ops of `fp`.
    fn sunions(fp: &FragmentPlan) -> Vec<&PhysOp> {
        fp.ops.iter().filter(|o| o.spec.is_sunion()).collect()
    }

    /// Union over three sources in one fragment: the SUnion absorbs the
    /// inputs (one SUnion, is_input = true), plus an SOutput.
    #[test]
    fn union_absorbs_external_inputs() {
        let mut b = QueryBuilder::new();
        let s1 = b.source("s1");
        let s2 = b.source("s2");
        let s3 = b.source("s3");
        let u = b.add("merged", LogicalOp::Union, &[s1, s2, s3]);
        b.output(u);
        let d = b.build().unwrap();
        let p = plan_single(&d, &DpcConfig::default()).unwrap();
        assert_eq!(p.fragments.len(), 1);
        let fp = &p.fragments[0];
        assert_eq!(fp.ops.len(), 2, "SUnion + SOutput");
        assert!(
            matches!(&fp.ops[0].spec, OperatorSpec::SUnion(c) if c.n_inputs == 3 && c.is_input)
        );
        assert!(fp.ops[1].spec.is_soutput());
        assert_eq!(fp.inputs.len(), 3);
        assert_eq!(fp.outputs.len(), 1);
        assert_eq!(p.max_sunion_depth, 1);
    }

    /// Single-input op on an external stream gets an entry SUnion.
    #[test]
    fn single_input_gets_entry_sunion() {
        let mut b = QueryBuilder::new();
        let s = b.source("s");
        let f = b.add("f", filter(), &[s]);
        b.output(f);
        let d = b.build().unwrap();
        let p = plan_single(&d, &DpcConfig::default()).unwrap();
        let fp = &p.fragments[0];
        let kinds: Vec<&str> = fp.ops.iter().map(|o| o.spec.kind_name()).collect();
        assert_eq!(kinds, vec!["sunion", "filter", "soutput"]);
        assert!(matches!(&fp.ops[0].spec, OperatorSpec::SUnion(c) if c.is_input));
    }

    /// A two-fragment chain: fragment 1's filter reads fragment 0's output
    /// through its own entry SUnion; uniform assignment splits X.
    #[test]
    fn chain_divides_delay_uniformly() {
        let mut b = QueryBuilder::new();
        let s = b.source("s");
        let f0 = b.add("f0", filter(), &[s]);
        let f1 = b.add("f1", filter(), &[f0]);
        b.output(f1);
        let d = b.build().unwrap();
        let cfg = DpcConfig {
            total_delay: Duration::from_secs(4),
            safety: 1.0,
            ..DpcConfig::default()
        };
        let p = plan_deployment(&d, &two_fragments(), &cfg).unwrap();
        assert_eq!(p.max_sunion_depth, 2);
        assert_eq!(p.per_sunion_delay, Duration::from_secs(2));
        // Fragment 1's input comes from fragment 0.
        let f1p = &p.fragments[1];
        assert_eq!(f1p.inputs.len(), 1);
        assert_eq!(producer(&p, f1p.inputs[0].stream), Some(0));
        // Fragment 0's output is the crossing stream.
        assert_eq!(p.fragments[0].outputs.len(), 1);
    }

    /// Full assignment gives every SUnion the same large delay.
    #[test]
    fn full_assignment_sets_effective_everywhere() {
        let mut b = QueryBuilder::new();
        let s = b.source("s");
        let f0 = b.add("f0", filter(), &[s]);
        let f1 = b.add("f1", filter(), &[f0]);
        b.output(f1);
        let d = b.build().unwrap();
        let cfg = DpcConfig {
            total_delay: Duration::from_secs(8),
            assignment: DelayAssignment::Full {
                effective: Duration::from_secs_f64(6.5),
            },
            ..DpcConfig::default()
        };
        let p = plan_deployment(&d, &two_fragments(), &cfg).unwrap();
        for fp in &p.fragments {
            for op in sunions(fp) {
                if let OperatorSpec::SUnion(su) = &op.spec {
                    assert_eq!(su.detect_delay, Duration::from_secs_f64(6.5));
                }
            }
        }
    }

    /// Join becomes SUnion + SJoin.
    #[test]
    fn join_lowered_to_sunion_sjoin() {
        let mut b = QueryBuilder::new();
        let l = b.source("l");
        let r = b.source("r");
        let j = b.add(
            "j",
            LogicalOp::Join(JoinSpec {
                window: Duration::from_millis(50),
                left_key: Expr::field(0),
                right_key: Expr::field(0),
                max_state: Some(100),
            }),
            &[l, r],
        );
        b.output(j);
        let d = b.build().unwrap();
        let p = plan_single(&d, &DpcConfig::default()).unwrap();
        let kinds: Vec<&str> = p.fragments[0]
            .ops
            .iter()
            .map(|o| o.spec.kind_name())
            .collect();
        assert_eq!(kinds, vec!["sunion", "sjoin", "soutput"]);
    }

    /// A stream consumed by two ops in the same fragment gets one entry
    /// SUnion, fanned out.
    #[test]
    fn shared_external_stream_single_entry() {
        let mut b = QueryBuilder::new();
        let s = b.source("s");
        let a = b.add("a", filter(), &[s]);
        let c = b.add("c", filter(), &[s]);
        b.output(a);
        b.output(c);
        let d = b.build().unwrap();
        let p = plan_single(&d, &DpcConfig::default()).unwrap();
        let fp = &p.fragments[0];
        let sunions = sunions(fp);
        assert_eq!(sunions.len(), 1, "one shared entry SUnion");
        assert_eq!(sunions[0].fanout.len(), 2);
    }

    /// A passthrough lowers to entry SUnion + SOutput and nothing else —
    /// the §7 serialization-overhead probe.
    #[test]
    fn passthrough_is_sunion_plus_soutput() {
        let mut b = QueryBuilder::new();
        let s = b.source("in");
        let t = b.add("tapped", LogicalOp::Passthrough, &[s]);
        b.output(t);
        let d = b.build().unwrap();
        let p = plan_single(&d, &DpcConfig::default()).unwrap();
        let fp = &p.fragments[0];
        let kinds: Vec<&str> = fp.ops.iter().map(|o| o.spec.kind_name()).collect();
        assert_eq!(kinds, vec!["sunion", "soutput"]);
        assert_eq!(fp.outputs.len(), 1);
        assert_eq!(
            fp.outputs[0].stream,
            t.id(),
            "output carries the tap's name"
        );
        assert_eq!(fp.inputs[0].stream, s.id(), "input is the tapped source");
    }

    /// Baseline protection: no entry SUnions, no SOutputs; the output
    /// leaves from the producing operator directly.
    #[test]
    fn baseline_strips_dpc_machinery() {
        let mut b = QueryBuilder::new();
        let s1 = b.source("s1");
        let s2 = b.source("s2");
        let u = b.add("u", LogicalOp::Union, &[s1, s2]);
        let f = b.add("f", filter(), &[u]);
        b.output(f);
        let d = b.build().unwrap();
        let cfg = DpcConfig {
            protection: Protection::Baseline,
            ..DpcConfig::default()
        };
        let p = plan_single(&d, &cfg).unwrap();
        let fp = &p.fragments[0];
        let kinds: Vec<&str> = fp.ops.iter().map(|o| o.spec.kind_name()).collect();
        assert_eq!(kinds, vec!["union", "filter"]);
        assert_eq!(fp.inputs.len(), 2, "sources bind directly to the union");
        assert_eq!(fp.ops[1].external_output, Some(f.id()));
        // Passthrough has no op to carry its output in baseline mode.
        let mut b = QueryBuilder::new();
        let s = b.source("in");
        let t = b.add("t", LogicalOp::Passthrough, &[s]);
        b.output(t);
        let d = b.build().unwrap();
        assert!(matches!(
            plan_single(&d, &cfg),
            Err(DiagramError::UnprotectedPassthrough(_))
        ));
    }

    /// A baseline op mixing a locally-fed port with a direct external
    /// binding keeps its logical port numbering: the external stream's
    /// port must not collide with the local feeder's.
    #[test]
    fn baseline_mixed_ports_survive_shard_pass() {
        let mut b = QueryBuilder::new();
        let s1 = b.source("s1");
        let s2 = b.source("s2");
        let up = b.add(
            "up",
            LogicalOp::Map {
                outputs: vec![Expr::field(0)],
            },
            &[s1],
        );
        let loc = b.add(
            "loc",
            LogicalOp::Map {
                outputs: vec![Expr::field(0)],
            },
            &[s2],
        );
        // Union port 0 fed locally by `loc`, port 1 externally by `up`.
        let u = b.add("u", LogicalOp::Union, &[loc, up]);
        b.output(u);
        let d = b.build().unwrap();
        let spec = DeploymentSpec::new()
            .fragment(FragmentSpec::named("a").op("up"))
            .fragment(FragmentSpec::named("b").ops(["loc", "u"]));
        let cfg = DpcConfig {
            protection: Protection::Baseline,
            ..DpcConfig::default()
        };
        let p = plan_deployment(&d, &spec, &cfg).unwrap();
        let fb = &p.fragments[1];
        let union_idx = fb
            .ops
            .iter()
            .position(|o| matches!(o.spec, OperatorSpec::Union { .. }))
            .expect("plain union present");
        let loc_idx = fb
            .ops
            .iter()
            .position(|o| o.fanout.contains(&(union_idx, 0)))
            .expect("local feeder wired to port 0");
        assert_ne!(loc_idx, union_idx);
        let ext: Vec<(usize, usize)> = fb
            .inputs
            .iter()
            .filter(|i| i.target == union_idx)
            .map(|i| (i.port, i.stream.index()))
            .collect();
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].0, 1, "external binding keeps port 1");
        assert_eq!(producer(&p, up.id()), Some(0));
        assert_eq!(ext[0].1, up.id().index());
    }

    fn sharded_chain_spec(k: u32) -> (Diagram, DeploymentSpec) {
        let mut b = QueryBuilder::new();
        let s1 = b.source("s1");
        let s2 = b.source("s2");
        let u = b.add("ingest", LogicalOp::Union, &[s1, s2]);
        let w = b.add(
            "work",
            LogicalOp::Map {
                outputs: vec![Expr::field(0)],
            },
            &[u],
        );
        let out = b.add(
            "deliver",
            LogicalOp::Map {
                outputs: vec![Expr::field(0)],
            },
            &[w],
        );
        b.output(out);
        let d = b.build().unwrap();
        let spec = DeploymentSpec::new()
            .fragment(FragmentSpec::named("ingest").op("ingest"))
            .fragment(
                FragmentSpec::named("work")
                    .op("work")
                    .shards(k, Expr::field(0)),
            )
            .fragment(FragmentSpec::named("deliver").op("deliver"));
        (d, spec)
    }

    /// A sharded fragment plans as K copies with per-shard output
    /// substreams, and the downstream entry SUnion has one port per
    /// substream to merge them.
    #[test]
    fn shard_pass_clones_and_rewires() {
        let (d, spec) = sharded_chain_spec(3);
        let p = plan_deployment(&d, &spec, &DpcConfig::default()).unwrap();
        assert_eq!(p.fragments.len(), 5, "1 ingest + 3 work shards + 1 deliver");
        assert_eq!(p.groups.len(), 3);
        assert_eq!(p.groups[1].fragments, vec![1, 2, 3]);

        // Each work shard: same ops, unique output stream, shard filter.
        let mut out_streams = Vec::new();
        for (k, &fi) in p.groups[1].fragments.iter().enumerate() {
            let fp = &p.fragments[fi];
            let sa = fp.shard.as_ref().expect("work shards carry assignments");
            assert_eq!((sa.count, sa.index), (3, k as u32));
            assert_eq!(fp.outputs.len(), 1);
            out_streams.push(fp.outputs[0].stream);
            assert!(
                out_streams[k].index() >= d.n_streams(),
                "substreams are fresh ids"
            );
            // The shard consumes the *original* ingest output; partitioning
            // happens on the wire, not by renaming inputs.
            assert_eq!(fp.inputs.len(), 1);
            assert_eq!(producer(&p, fp.inputs[0].stream), Some(0));
        }
        out_streams.sort();
        out_streams.dedup();
        assert_eq!(out_streams.len(), 3, "one substream per shard");

        // The deliver fragment's entry SUnion merges the three substreams.
        let deliver = &p.fragments[4];
        assert!(deliver.shard.is_none());
        assert_eq!(deliver.inputs.len(), 3);
        let target = deliver.inputs[0].target;
        assert!(deliver.inputs.iter().all(|i| i.target == target));
        let ports: Vec<usize> = deliver.inputs.iter().map(|i| i.port).collect();
        assert_eq!(ports, vec![0, 1, 2]);
        assert!(
            matches!(&deliver.ops[target].spec, OperatorSpec::SUnion(c) if c.n_inputs == 3 && c.is_input)
        );
        // Each port reads one shard fragment's substream.
        let producers: Vec<Option<usize>> = deliver
            .inputs
            .iter()
            .map(|i| producer(&p, i.stream))
            .collect();
        assert_eq!(producers, vec![Some(1), Some(2), Some(3)]);
    }

    /// shards = 1 is a plain deployment: no renaming, no filters.
    #[test]
    fn single_shard_is_identity() {
        let (d, spec) = sharded_chain_spec(1);
        let p = plan_deployment(&d, &spec, &DpcConfig::default()).unwrap();
        assert_eq!(p.fragments.len(), 3);
        assert!(p.fragments.iter().all(|f| f.shard.is_none()));
        assert_eq!(p.groups[1].fragments.len(), 1);
    }

    /// A sharded fragment may not feed clients directly — its substreams
    /// must merge in a downstream fragment first.
    #[test]
    fn sharded_client_output_rejected() {
        let mut b = QueryBuilder::new();
        let s = b.source("s");
        let w = b.add(
            "work",
            LogicalOp::Map {
                outputs: vec![Expr::field(0)],
            },
            &[s],
        );
        b.output(w);
        let d = b.build().unwrap();
        let spec = DeploymentSpec::new().fragment(
            FragmentSpec::named("work")
                .op("work")
                .shards(2, Expr::field(0)),
        );
        assert!(matches!(
            plan_deployment(&d, &spec, &DpcConfig::default()),
            Err(DiagramError::ShardedOutput(_))
        ));
    }

    /// Per-fragment buffer policies reach the plan's groups (sharded
    /// fragments included); a zero-capacity bound is a planning error.
    #[test]
    fn buffer_policy_flows_to_groups_and_zero_capacity_rejected() {
        let (d, spec) = sharded_chain_spec(2);
        let spec = DeploymentSpec::new()
            .fragment(
                FragmentSpec::named("ingest")
                    .op("ingest")
                    .buffer(BufferPolicy::DropOldest(4_096)),
            )
            .fragment(spec.fragments()[1].clone())
            .fragment(spec.fragments()[2].clone());
        let p = plan_deployment(&d, &spec, &DpcConfig::default()).unwrap();
        assert_eq!(
            p.groups[0].buffer_policy,
            Some(BufferPolicy::DropOldest(4_096))
        );
        assert_eq!(p.groups[1].buffer_policy, None);

        let (d, _) = sharded_chain_spec(1);
        let bad = DeploymentSpec::new().fragment(
            FragmentSpec::named("all")
                .ops(["ingest", "work", "deliver"])
                .buffer(BufferPolicy::DropOldest(0)),
        );
        assert!(matches!(
            plan_deployment(&d, &bad, &DpcConfig::default()),
            Err(DiagramError::ZeroCapacityBuffer(n)) if n == "all"
        ));
    }

    /// Sharding requires the DPC machinery.
    #[test]
    fn sharding_rejected_without_dpc() {
        let (d, spec) = sharded_chain_spec(2);
        let cfg = DpcConfig {
            protection: Protection::Baseline,
            ..DpcConfig::default()
        };
        assert!(matches!(
            plan_deployment(&d, &spec, &cfg),
            Err(DiagramError::ShardsRequireDpc(n)) if n == "work"
        ));
    }

    /// A join whose left input comes from a sharded upstream splits left
    /// from right after the left input's substreams.
    #[test]
    fn join_split_follows_shard_expansion() {
        let mut b = QueryBuilder::new();
        let l = b.source("l");
        let r = b.source("r");
        let lw = b.add(
            "lwork",
            LogicalOp::Map {
                outputs: vec![Expr::field(0)],
            },
            &[l],
        );
        let j = b.add(
            "j",
            LogicalOp::Join(JoinSpec {
                window: Duration::from_millis(50),
                left_key: Expr::field(0),
                right_key: Expr::field(0),
                max_state: None,
            }),
            &[lw, r],
        );
        b.output(j);
        let d = b.build().unwrap();
        let spec = DeploymentSpec::new()
            .fragment(
                FragmentSpec::named("lwork")
                    .op("lwork")
                    .shards(2, Expr::field(0)),
            )
            .fragment(FragmentSpec::named("join").op("j"));
        let p = plan_deployment(&d, &spec, &DpcConfig::default()).unwrap();
        let join_frag = &p.fragments[2];
        // SUnion over [lwork#0, lwork#1, r] followed by SJoin split at 2.
        assert_eq!(join_frag.inputs.len(), 3);
        let su = join_frag.inputs[0].target;
        assert!(matches!(&join_frag.ops[su].spec, OperatorSpec::SUnion(c) if c.n_inputs == 3));
        let sj = join_frag
            .ops
            .iter()
            .find_map(|o| match &o.spec {
                OperatorSpec::SJoin(js) => Some(js),
                _ => None,
            })
            .expect("sjoin present");
        assert_eq!(sj.left_split, 2, "both left substreams are left-side");
    }

    /// Union with one internal and one external input: external port gets an
    /// entry SUnion, the union itself is a non-input SUnion.
    #[test]
    fn mixed_union_uses_entry_sunions() {
        let mut b = QueryBuilder::new();
        let s1 = b.source("s1");
        let s2 = b.source("s2");
        let f = b.add("f", filter(), &[s1]);
        let u = b.add("u", LogicalOp::Union, &[f, s2]);
        b.output(u);
        let d = b.build().unwrap();
        let p = plan_single(&d, &DpcConfig::default()).unwrap();
        let fp = &p.fragments[0];
        let sunions = sunions(fp);
        // entry for s1, entry for s2, plus the union's serializer.
        assert_eq!(sunions.len(), 3);
        let input_count = sunions
            .iter()
            .filter(|op| matches!(&op.spec, OperatorSpec::SUnion(c) if c.is_input))
            .count();
        assert_eq!(input_count, 2);
    }

    /// A cut whose fragments feed each other is rejected: `a` and `c` in
    /// one fragment, `b` between them in another, would each wait on the
    /// other's corrections forever.
    #[test]
    fn fragment_cycle_rejected() {
        let mut b = QueryBuilder::new();
        let s = b.source("s");
        let a = b.add("a", filter(), &[s]);
        let m = b.add("b", filter(), &[a]);
        let c = b.add("c", filter(), &[m]);
        b.output(c);
        let d = b.build().unwrap();
        let spec = DeploymentSpec::new()
            .fragment(FragmentSpec::named("outer").ops(["a", "c"]))
            .fragment(FragmentSpec::named("inner").op("b"));
        for protection in [Protection::Dpc, Protection::Baseline] {
            let cfg = DpcConfig {
                protection,
                ..DpcConfig::default()
            };
            assert_eq!(
                plan_deployment(&d, &spec, &cfg).unwrap_err(),
                DiagramError::BackwardsEdge {
                    from: FragmentId(0),
                    to: FragmentId(1)
                }
            );
        }
    }
}
