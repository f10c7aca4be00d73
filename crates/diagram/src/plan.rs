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
//! * each SUnion receives its share of the application's incremental latency
//!   budget `X` according to the chosen [`DelayAssignment`] (§6.3).

use crate::graph::{Diagram, DiagramError, LogicalOp};
use crate::spec::{DeploymentSpec, FragmentSpec};
use borealis_ops::{DelayMode, OperatorSpec, SJoinSpec, SUnionConfig};
use borealis_types::{BufferPolicy, Duration, Expr, FragmentId, OpId, StreamId};
use std::collections::HashMap;

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

/// Where a fragment input stream comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOrigin {
    /// Produced by a data source outside the query diagram.
    Source,
    /// Produced by another fragment (its SOutput).
    Fragment(FragmentId),
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
    /// The global stream.
    pub stream: StreamId,
    /// Index of the receiving op (always an input SUnion).
    pub target: usize,
    /// Port on that op.
    pub port: usize,
    /// Who produces the stream.
    pub origin: StreamOrigin,
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
/// replication degree, shard fan-out, and the physical fragment indexes
/// belonging to it (one per shard).
#[derive(Debug, Clone)]
pub struct PlanGroup {
    /// Fragment name (from the deployment spec).
    pub name: String,
    /// Replicas per physical fragment (the paper requires two for
    /// availability during stabilization; one is allowed for single-node
    /// studies).
    pub replication: usize,
    /// Shard fan-out (1 = unsharded).
    pub shards: u32,
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

/// The logical fragments' physical diagrams, before the sharding pass.
struct LogicalPlan {
    fragments: Vec<FragmentPlan>,
    max_sunion_depth: usize,
    per_sunion_delay: Duration,
}

/// Plans the per-fragment physical diagrams of a resolved fragment cut:
/// `assignment[op.index()]` is the (logical) fragment of each operator.
fn plan_fragments(
    diagram: &Diagram,
    assignment: &[FragmentId],
    n_fragments: usize,
    cfg: &DpcConfig,
) -> Result<LogicalPlan, DiagramError> {
    let frag_of = |op: OpId| assignment[op.index()];
    let dpc = cfg.protection == Protection::Dpc;
    let mut fragments: Vec<FragmentPlan> = (0..n_fragments)
        .map(|i| FragmentPlan {
            id: FragmentId(i as u32),
            ops: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            shard: None,
        })
        .collect();

    // Which fragment produces each stream (None = source).
    let mut produced_in: HashMap<StreamId, FragmentId> = HashMap::new();
    for op in diagram.ops() {
        produced_in.insert(op.output, frag_of(op.id));
    }

    // Streams that must leave their producing fragment: consumed by another
    // fragment or delivered to clients.
    let mut crosses: Vec<StreamId> = Vec::new();
    for op in diagram.ops() {
        for &s in &op.inputs {
            match produced_in.get(&s) {
                Some(&pf) if pf != frag_of(op.id) => crosses.push(s),
                _ => {}
            }
        }
    }
    crosses.extend(diagram.output_streams().iter().copied());
    crosses.sort();
    crosses.dedup();

    // Build each fragment.
    // Per fragment: map from global stream -> (op index, is origin-tagging needed)
    // local_producer[frag][stream] = op index producing it inside the fragment.
    let mut local_producer: Vec<HashMap<StreamId, usize>> = vec![HashMap::new(); n_fragments];
    // Entry SUnions created per (frag, external stream).
    let mut entry_sunion: Vec<HashMap<StreamId, usize>> = vec![HashMap::new(); n_fragments];

    let base_sunion = |n: usize, is_input: bool| -> SUnionConfig {
        SUnionConfig {
            bucket: cfg.bucket,
            // Delays are assigned after planning; placeholder here.
            detect_delay: cfg.total_delay,
            delay_budget: cfg.total_delay,
            failure_mode: cfg.failure_mode,
            stabilization_mode: cfg.stabilization_mode,
            is_input,
            // The paper's 300 ms minimum tentative wait (footnote 5).
            ..SUnionConfig::new(n)
        }
    };

    // How many fragment-local consumers a stream has (to decide whether a
    // multi-input op can absorb its external inputs into its own SUnion).
    let consumers_in_frag = |s: StreamId, f: FragmentId| -> usize {
        diagram
            .ops()
            .iter()
            .filter(|o| frag_of(o.id) == f)
            .map(|o| o.inputs.iter().filter(|&&i| i == s).count())
            .sum()
    };

    for &opid in diagram.topo_order() {
        let node = &diagram.ops()[opid.index()];
        let f = frag_of(node.id);
        let fp = &mut fragments[f.index()];
        let external = |s: StreamId| produced_in.get(&s).copied() != Some(f);
        let origin_of = |s: StreamId| {
            produced_in
                .get(&s)
                .map_or(StreamOrigin::Source, |&p| StreamOrigin::Fragment(p))
        };

        // Ensures `s` is available inside the fragment, returning the local
        // producing op index. Creates an entry SUnion for external streams
        // (DPC mode only; baseline callers bind externals directly).
        macro_rules! ensure_local {
            ($s:expr) => {{
                let s: StreamId = $s;
                if let Some(&idx) = local_producer[f.index()].get(&s) {
                    idx
                } else if let Some(&idx) = entry_sunion[f.index()].get(&s) {
                    idx
                } else {
                    let idx = fp.ops.len();
                    fp.ops.push(PhysOp {
                        spec: OperatorSpec::SUnion(base_sunion(1, true)),
                        fanout: Vec::new(),
                        external_output: None,
                    });
                    fp.inputs.push(FragmentInput {
                        stream: s,
                        target: idx,
                        port: 0,
                        origin: origin_of(s),
                    });
                    entry_sunion[f.index()].insert(s, idx);
                    idx
                }
            }};
        }

        // Two-phase input binding, keeping ops in topological order: the
        // feeder (local producer or DPC entry SUnion) is materialized
        // *before* the consuming op is pushed; baseline external streams
        // bind directly to the consumer once its index is known.
        enum Bind {
            Feeder(usize),
            External(StreamId),
        }
        macro_rules! prebind {
            ($s:expr) => {{
                let s: StreamId = $s;
                if !external(s) || dpc {
                    Bind::Feeder(ensure_local!(s))
                } else {
                    Bind::External(s)
                }
            }};
        }
        macro_rules! apply_bind {
            ($bind:expr, $idx:expr, $port:expr) => {{
                match $bind {
                    Bind::Feeder(feeder) => fp.ops[feeder].fanout.push(($idx, $port)),
                    Bind::External(s) => fp.inputs.push(FragmentInput {
                        stream: s,
                        target: $idx,
                        port: $port,
                        origin: origin_of(s),
                    }),
                }
            }};
        }

        // True when a multi-input op can act as the fragment entry for all
        // of its inputs: every input is external, feeds only this op, and no
        // entry SUnion exists for it yet (DPC mode only).
        let absorb_ok = dpc
            && node.inputs.iter().all(|&s| {
                external(s)
                    && consumers_in_frag(s, f) == 1
                    && !entry_sunion[f.index()].contains_key(&s)
            });

        let out_idx = match &node.op {
            LogicalOp::Union if dpc => {
                let idx = fp.ops.len();
                if absorb_ok {
                    fp.ops.push(PhysOp {
                        spec: OperatorSpec::SUnion(base_sunion(node.inputs.len(), true)),
                        fanout: Vec::new(),
                        external_output: None,
                    });
                    for (port, &s) in node.inputs.iter().enumerate() {
                        fp.inputs.push(FragmentInput {
                            stream: s,
                            target: idx,
                            port,
                            origin: origin_of(s),
                        });
                    }
                    idx
                } else {
                    let feeders: Vec<usize> =
                        node.inputs.iter().map(|&s| ensure_local!(s)).collect();
                    let idx = fp.ops.len();
                    fp.ops.push(PhysOp {
                        spec: OperatorSpec::SUnion(base_sunion(node.inputs.len(), false)),
                        fanout: Vec::new(),
                        external_output: None,
                    });
                    for (port, &src) in feeders.iter().enumerate() {
                        fp.ops[src].fanout.push((idx, port));
                    }
                    idx
                }
            }
            LogicalOp::Union => {
                // Baseline: a plain, non-serializing union.
                let binds: Vec<Bind> = node.inputs.iter().map(|&s| prebind!(s)).collect();
                let idx = fp.ops.len();
                fp.ops.push(PhysOp {
                    spec: OperatorSpec::Union {
                        n_inputs: node.inputs.len(),
                    },
                    fanout: Vec::new(),
                    external_output: None,
                });
                for (port, bind) in binds.into_iter().enumerate() {
                    apply_bind!(bind, idx, port);
                }
                idx
            }
            LogicalOp::Join(js) => {
                // An SUnion serializing all inputs (the first is the left
                // side), then the SJoin. Joins keep their serializer even in
                // baseline mode — deterministic matching requires it.
                let n = node.inputs.len();
                let su_idx = if absorb_ok {
                    let su_idx = fp.ops.len();
                    fp.ops.push(PhysOp {
                        spec: OperatorSpec::SUnion(base_sunion(n, true)),
                        fanout: Vec::new(),
                        external_output: None,
                    });
                    for (port, &s) in node.inputs.iter().enumerate() {
                        fp.inputs.push(FragmentInput {
                            stream: s,
                            target: su_idx,
                            port,
                            origin: origin_of(s),
                        });
                    }
                    su_idx
                } else {
                    let binds: Vec<Bind> = node.inputs.iter().map(|&s| prebind!(s)).collect();
                    let su_idx = fp.ops.len();
                    fp.ops.push(PhysOp {
                        spec: OperatorSpec::SUnion(base_sunion(n, false)),
                        fanout: Vec::new(),
                        external_output: None,
                    });
                    for (port, bind) in binds.into_iter().enumerate() {
                        apply_bind!(bind, su_idx, port);
                    }
                    su_idx
                };
                let j_idx = fp.ops.len();
                fp.ops.push(PhysOp {
                    spec: OperatorSpec::SJoin(SJoinSpec {
                        window: js.window,
                        left_key: js.left_key.clone(),
                        right_key: js.right_key.clone(),
                        max_state: js.max_state,
                        left_split: 1,
                    }),
                    fanout: Vec::new(),
                    external_output: None,
                });
                fp.ops[su_idx].fanout.push((j_idx, 0));
                j_idx
            }
            LogicalOp::Passthrough => {
                // Identity: no physical operator. The input's local producer
                // (an entry SUnion for external streams) stands in for it —
                // a DPC tap is exactly [entry SUnion, SOutput].
                if !dpc {
                    return Err(DiagramError::UnprotectedPassthrough(node.output));
                }
                ensure_local!(node.inputs[0])
            }
            single => {
                let input = node.inputs[0];
                let spec = match single {
                    LogicalOp::Filter { predicate } => OperatorSpec::Filter {
                        predicate: predicate.clone(),
                    },
                    LogicalOp::Map { outputs } => OperatorSpec::Map {
                        outputs: outputs.clone(),
                    },
                    LogicalOp::Aggregate(a) => OperatorSpec::Aggregate(a.clone()),
                    LogicalOp::Union | LogicalOp::Join(_) | LogicalOp::Passthrough => {
                        unreachable!("handled above")
                    }
                };
                let bind = prebind!(input);
                let idx = fp.ops.len();
                fp.ops.push(PhysOp {
                    spec,
                    fanout: Vec::new(),
                    external_output: None,
                });
                apply_bind!(bind, idx, 0);
                idx
            }
        };
        local_producer[f.index()].insert(node.output, out_idx);

        // A stream crossing the fragment boundary leaves through an SOutput
        // (DPC) or directly from its producing op (baseline).
        if crosses.contains(&node.output) {
            if dpc {
                let so_idx = fp.ops.len();
                fp.ops.push(PhysOp {
                    spec: OperatorSpec::SOutput,
                    fanout: Vec::new(),
                    external_output: Some(node.output),
                });
                fp.ops[out_idx].fanout.push((so_idx, 0));
                fp.outputs.push(FragmentOutput {
                    stream: node.output,
                    op: so_idx,
                });
            } else {
                fp.ops[out_idx].external_output = Some(node.output);
                fp.outputs.push(FragmentOutput {
                    stream: node.output,
                    op: out_idx,
                });
            }
        }
    }

    // Fragment DAG sanity: a fragment may only consume from strictly earlier
    // fragments or sources (prevents cross-fragment cycles).
    for fp in &fragments {
        for input in &fp.inputs {
            if let StreamOrigin::Fragment(from) = input.origin {
                if from == fp.id {
                    return Err(DiagramError::BackwardsEdge { from, to: fp.id });
                }
            }
        }
    }

    // Delay assignment (§6.3).
    let max_depth = max_sunion_depth(&fragments);
    let per_delay = match cfg.assignment {
        DelayAssignment::Uniform => {
            let d = cfg.total_delay.as_micros() / max_depth.max(1) as u64;
            Duration::from_micros((d as f64 * cfg.safety) as u64)
        }
        DelayAssignment::Full { effective } => effective,
    };
    for fp in &mut fragments {
        for op in &mut fp.ops {
            if let OperatorSpec::SUnion(su) = &mut op.spec {
                su.detect_delay = per_delay;
                su.delay_budget = per_delay;
            }
        }
    }

    Ok(LogicalPlan {
        fragments,
        max_sunion_depth: max_depth,
        per_sunion_delay: per_delay,
    })
}

/// Plans a diagram against a declarative [`DeploymentSpec`]: resolves the
/// fragment cut by operator name, runs the DPC physical planner, then
/// applies the **sharding pass** — every fragment with `shards = K > 1` is
/// cloned into K key-partitioned physical instances:
///
/// * each shard's output streams are renamed to per-shard substreams, so
///   the K instances are complementary producers rather than replicas;
/// * every downstream consumer's entry SUnion is widened to merge the K
///   serialized substreams back into one deterministic stream (§4.2's
///   bucket ordering makes the merge identical on every replica and every
///   runtime);
/// * the shard's [`ShardAssignment`] tells the deployment layer to install
///   a [`PartitionSpec`](borealis_types::PartitionSpec) filter on each
///   replica, so senders fan data out by `hash(key) % K` on the wire.
///
/// Sharding composes with DPC replication unchanged: each shard is its own
/// fragment with its own replica set, stagger protocol, and upstream
/// monitoring.
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
    let base = plan_fragments(diagram, &assignment, metas.len(), cfg)?;
    shard_pass(diagram, base, &metas)
}

/// Expands a logical-fragment plan set into physical fragments, cloning
/// sharded fragments and rewiring streams (see [`plan_deployment`]).
fn shard_pass(
    diagram: &Diagram,
    base: LogicalPlan,
    metas: &[FragmentSpec],
) -> Result<PhysicalPlan, DiagramError> {
    debug_assert_eq!(base.fragments.len(), metas.len());

    // Physical index ranges, one per logical fragment (one entry per shard).
    let mut phys_of: Vec<Vec<usize>> = Vec::with_capacity(metas.len());
    let mut n_phys = 0usize;
    for m in metas {
        let k = m.shards.max(1) as usize;
        phys_of.push((n_phys..n_phys + k).collect());
        n_phys += k;
    }

    // Substream allocation: each output stream of a sharded fragment
    // becomes K fresh streams, one per shard.
    let mut next_stream = diagram.n_streams() as u32;
    let mut subs: HashMap<StreamId, Vec<StreamId>> = HashMap::new();
    let mut sub_producer: HashMap<StreamId, usize> = HashMap::new();
    for (f, m) in metas.iter().enumerate() {
        if m.shards <= 1 {
            continue;
        }
        for out in &base.fragments[f].outputs {
            if diagram.output_streams().contains(&out.stream) {
                return Err(DiagramError::ShardedOutput(out.stream));
            }
            let ids: Vec<StreamId> = (0..m.shards)
                .map(|k| {
                    let s = StreamId(next_stream);
                    next_stream += 1;
                    sub_producer.insert(s, phys_of[f][k as usize]);
                    s
                })
                .collect();
            subs.insert(out.stream, ids);
        }
    }

    let mut phys: Vec<FragmentPlan> = Vec::with_capacity(n_phys);
    for (f, m) in metas.iter().enumerate() {
        let shards = m.shards.max(1);
        for k in 0..shards {
            let mut fp = base.fragments[f].clone();
            fp.id = FragmentId(phys.len() as u32);
            if shards > 1 {
                fp.shard = Some(ShardAssignment {
                    key: m
                        .shard_key
                        .clone()
                        .expect("FragmentSpec::shards always sets a key"),
                    count: shards,
                    index: k,
                });
                for oi in 0..fp.outputs.len() {
                    let sub = subs[&fp.outputs[oi].stream][k as usize];
                    fp.ops[fp.outputs[oi].op].external_output = Some(sub);
                    fp.outputs[oi].stream = sub;
                }
            }
            expand_inputs(&mut fp, &subs, &sub_producer, &phys_of);
            phys.push(fp);
        }
    }

    let groups = metas
        .iter()
        .enumerate()
        .map(|(f, m)| PlanGroup {
            name: m.name.clone(),
            replication: m.replication,
            shards: m.shards.max(1),
            fragments: phys_of[f].clone(),
            per_tuple_cost: m.per_tuple_cost,
            buffer_policy: m.buffer_policy,
        })
        .collect();

    Ok(PhysicalPlan {
        fragments: phys,
        groups,
        max_sunion_depth: base.max_sunion_depth,
        per_sunion_delay: base.per_sunion_delay,
    })
}

/// Rewrites one physical fragment's external inputs for sharded upstreams:
/// an input on a sharded stream becomes K inputs, one per substream, and
/// the receiving SUnion widens accordingly (an SJoin behind it keeps its
/// left/right split aligned with the widened port set). Origins are
/// remapped from logical to physical fragment ids.
///
/// Only targets that actually consume a sharded stream are renumbered.
/// Those are always DPC entry SUnions, whose ports are contiguous and all
/// externally fed; every other target keeps its original ports — in
/// baseline plans an op may mix locally-fed ports with external bindings,
/// and renumbering its externals from zero would collide with the local
/// feeders.
fn expand_inputs(
    fp: &mut FragmentPlan,
    subs: &HashMap<StreamId, Vec<StreamId>>,
    sub_producer: &HashMap<StreamId, usize>,
    phys_of: &[Vec<usize>],
) {
    let remap_origin = |origin: StreamOrigin| match origin {
        StreamOrigin::Fragment(lf) => {
            StreamOrigin::Fragment(FragmentId(phys_of[lf.index()][0] as u32))
        }
        o => o,
    };
    let sharded_targets: Vec<usize> = fp
        .inputs
        .iter()
        .filter(|i| subs.contains_key(&i.stream))
        .map(|i| i.target)
        .collect();

    let mut old = std::mem::take(&mut fp.inputs);
    old.sort_by_key(|i| (i.target, i.port));
    let mut new_inputs: Vec<FragmentInput> = Vec::with_capacity(old.len());
    // Per-renumbered-target state: (next port, per-original-port expansion
    // counts — used to re-aim SJoin split points).
    let mut per_target: HashMap<usize, (usize, Vec<usize>)> = HashMap::new();
    for inp in old {
        if !sharded_targets.contains(&inp.target) {
            new_inputs.push(FragmentInput {
                origin: remap_origin(inp.origin),
                ..inp
            });
            continue;
        }
        let (next_port, expansion) = per_target.entry(inp.target).or_insert((0, Vec::new()));
        if let Some(sub_ids) = subs.get(&inp.stream) {
            expansion.push(sub_ids.len());
            for sub in sub_ids {
                new_inputs.push(FragmentInput {
                    stream: *sub,
                    target: inp.target,
                    port: *next_port,
                    origin: StreamOrigin::Fragment(FragmentId(sub_producer[sub] as u32)),
                });
                *next_port += 1;
            }
        } else {
            expansion.push(1);
            new_inputs.push(FragmentInput {
                stream: inp.stream,
                target: inp.target,
                port: *next_port,
                origin: remap_origin(inp.origin),
            });
            *next_port += 1;
        }
    }
    fp.inputs = new_inputs;

    // Widen the receiving SUnions and re-aim any SJoin split points.
    for (&target, (n_ports, expansion)) in &per_target {
        let consumers = fp.ops[target].fanout.clone();
        if let OperatorSpec::SUnion(su) = &mut fp.ops[target].spec {
            su.n_inputs = *n_ports;
        }
        for (c, _) in consumers {
            if let OperatorSpec::SJoin(js) = &mut fp.ops[c].spec {
                // The planner always splits after the first logical input;
                // with that input expanded to `expansion[0]` substreams the
                // split moves accordingly.
                let old_split = js.left_split as usize;
                let new_split: usize = expansion.iter().take(old_split).sum();
                js.left_split = new_split as u16;
            }
        }
    }
}

/// Longest source→output path measured in SUnion hops, across fragments.
fn max_sunion_depth(fragments: &[FragmentPlan]) -> usize {
    // Global node = (fragment index, op index). Longest-path DP over the
    // global DAG; depth counts SUnion nodes.
    let mut memo: HashMap<(usize, usize), usize> = HashMap::new();

    fn depth(
        node: (usize, usize),
        fragments: &[FragmentPlan],
        memo: &mut HashMap<(usize, usize), usize>,
    ) -> usize {
        if let Some(&d) = memo.get(&node) {
            return d;
        }
        let (fi, oi) = node;
        let op = &fragments[fi].ops[oi];
        let own = usize::from(op.spec.is_sunion());
        let mut best = 0;
        for &(c, _) in &op.fanout {
            best = best.max(depth((fi, c), fragments, memo));
        }
        if let Some(stream) = op.external_output {
            // Find fragments consuming this stream.
            for (cfi, cfp) in fragments.iter().enumerate() {
                for inp in &cfp.inputs {
                    if inp.stream == stream {
                        best = best.max(depth((cfi, inp.target), fragments, memo));
                    }
                }
            }
        }
        let d = own + best;
        memo.insert(node, d);
        d
    }

    let mut max = 0;
    for (fi, fp) in fragments.iter().enumerate() {
        for inp in &fp.inputs {
            if inp.origin == StreamOrigin::Source {
                max = max.max(depth((fi, inp.target), fragments, &mut memo));
            }
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::JoinSpec;
    use crate::query::QueryBuilder;
    use borealis_types::Expr;

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
        assert_eq!(f1p.inputs[0].origin, StreamOrigin::Fragment(FragmentId(0)));
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

    /// Baseline plans survive the (no-op) sharding pass untouched: an op
    /// mixing a locally-fed port with a direct external binding keeps its
    /// original port numbering (regression: expand_inputs used to renumber
    /// every target's external ports from zero, colliding with the local
    /// feeder).
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
        assert_eq!(
            fb.inputs
                .iter()
                .find(|i| i.target == union_idx)
                .unwrap()
                .origin,
            StreamOrigin::Fragment(FragmentId(0))
        );
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

    /// The sharding pass clones the sharded fragment K ways, renames its
    /// outputs into per-shard substreams, and widens the downstream entry
    /// SUnion to merge them.
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
            assert_eq!(fp.inputs[0].origin, StreamOrigin::Fragment(FragmentId(0)));
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
        // Origins point at the individual shard fragments.
        let origins: Vec<StreamOrigin> = deliver.inputs.iter().map(|i| i.origin).collect();
        assert_eq!(
            origins,
            vec![
                StreamOrigin::Fragment(FragmentId(1)),
                StreamOrigin::Fragment(FragmentId(2)),
                StreamOrigin::Fragment(FragmentId(3)),
            ]
        );
    }

    /// shards = 1 is a plain deployment: no renaming, no filters.
    #[test]
    fn single_shard_is_identity() {
        let (d, spec) = sharded_chain_spec(1);
        let p = plan_deployment(&d, &spec, &DpcConfig::default()).unwrap();
        assert_eq!(p.fragments.len(), 3);
        assert!(p.fragments.iter().all(|f| f.shard.is_none()));
        assert_eq!(p.groups[1].shards, 1);
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

    /// A join whose left input comes from a sharded upstream keeps its
    /// left/right split aligned with the widened SUnion port set.
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
}
