//! Logical query diagrams: loop-free, directed graphs of operators (§2.1).
//!
//! Applications describe *what* to compute with [`LogicalOp`]s connected by
//! named streams; the DPC planner ([`mod@crate::plan`]) then derives the
//! *physical* per-fragment diagrams with SUnion/SJoin/SOutput inserted.

use borealis_ops::AggregateSpec;
use borealis_types::{Duration, Expr, FragmentId, OpId, StreamId};
use std::collections::HashMap;
use std::fmt;

/// A logical (pre-DPC) join specification. The planner turns each `Join`
/// into an SUnion (serializing its two inputs) followed by an SJoin (§3).
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Maximum stime distance between matching tuples.
    pub window: Duration,
    /// Equality key on the left input.
    pub left_key: Expr,
    /// Equality key on the right input.
    pub right_key: Expr,
    /// Optional cap on buffered tuples per side.
    pub max_state: Option<usize>,
}

/// A logical operator, before DPC planning.
#[derive(Debug, Clone)]
pub enum LogicalOp {
    /// Predicate filter.
    Filter {
        /// Predicate tuples must satisfy.
        predicate: Expr,
    },
    /// Per-tuple projection.
    Map {
        /// One expression per output attribute.
        outputs: Vec<Expr>,
    },
    /// Merge of several streams (becomes an SUnion).
    Union,
    /// Windowed aggregate.
    Aggregate(AggregateSpec),
    /// Windowed equi-join: the first input is the left side, every further
    /// input the right (becomes SUnion + SJoin; the paper's Fig. 12
    /// three-stream join is `Join` over three inputs).
    Join(JoinSpec),
    /// Identity tap: renames a stream so it can cross a fragment boundary
    /// or reach clients through DPC's SUnion/SOutput machinery without any
    /// computation (the §7 serialization-overhead probe). The planner
    /// lowers it to *no* physical operator.
    Passthrough,
}

impl LogicalOp {
    /// Short kind name, for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            LogicalOp::Filter { .. } => "filter",
            LogicalOp::Map { .. } => "map",
            LogicalOp::Union => "union",
            LogicalOp::Aggregate(_) => "aggregate",
            LogicalOp::Join(_) => "join",
            LogicalOp::Passthrough => "passthrough",
        }
    }

    /// The exact input count the kind requires (`None`: any number ≥ 2).
    pub(crate) fn expected_inputs(&self) -> Option<usize> {
        match self {
            LogicalOp::Union | LogicalOp::Join(_) => None,
            _ => Some(1),
        }
    }
}

/// One operator node in the logical diagram.
#[derive(Debug, Clone)]
pub struct OpNode {
    /// Operator id.
    pub id: OpId,
    /// What it computes.
    pub op: LogicalOp,
    /// Input streams, in port order.
    pub inputs: Vec<StreamId>,
    /// The stream it produces.
    pub output: StreamId,
}

/// Errors detected while building or validating a diagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagramError {
    /// A stream name was declared twice.
    DuplicateStream(String),
    /// An operator has the wrong number of inputs for its kind.
    ArityMismatch {
        /// The offending operator.
        op: OpId,
        /// What its kind requires.
        expected: usize,
        /// What it was given.
        actual: usize,
    },
    /// Union needs at least two inputs.
    UnionTooNarrow(OpId),
    /// The graph contains a cycle (query diagrams are loop-free, §2.1).
    Cyclic,
    /// An operator was assigned to no fragment during deployment.
    Unassigned(OpId),
    /// The fragment cut has a cycle: `from` feeds `to`, whose outputs lead
    /// back into `from`. Neither fragment could stabilize — each would wait
    /// on the other's corrections.
    BackwardsEdge {
        /// Producing fragment.
        from: FragmentId,
        /// Consuming fragment.
        to: FragmentId,
    },
    /// A deployment spec referenced an operator name the diagram does not
    /// define.
    UnknownOp(String),
    /// A deployment spec assigned the same operator to two fragments.
    DuplicateAssignment(String),
    /// A deployment spec declared a fragment with no operators.
    EmptyFragment(String),
    /// A stream handle from one `QueryBuilder` was used with another.
    ForeignHandle,
    /// A sharded fragment produces a client-visible output stream; shards
    /// must be merged by a downstream fragment's SUnion before delivery.
    ShardedOutput(StreamId),
    /// Key-partitioned sharding needs the DPC machinery (entry SUnions to
    /// merge substreams); it cannot be combined with
    /// [`Protection::Baseline`](crate::plan::Protection).
    ShardsRequireDpc(String),
    /// A [`LogicalOp::Passthrough`] has no physical operator to carry its
    /// output in baseline (no-SOutput) mode.
    UnprotectedPassthrough(StreamId),
    /// A fragment declared a bounded output buffer of capacity zero — its
    /// replicas could never replay anything to a reconnecting consumer.
    ZeroCapacityBuffer(String),
}

impl fmt::Display for DiagramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagramError::DuplicateStream(n) => write!(f, "stream {n:?} declared twice"),
            DiagramError::ArityMismatch {
                op,
                expected,
                actual,
            } => {
                write!(f, "operator {op} expects {expected} inputs, got {actual}")
            }
            DiagramError::UnionTooNarrow(op) => write!(f, "union {op} needs >= 2 inputs"),
            DiagramError::Cyclic => write!(f, "query diagram contains a cycle"),
            DiagramError::Unassigned(op) => write!(f, "operator {op} not assigned to a fragment"),
            DiagramError::BackwardsEdge { from, to } => {
                write!(
                    f,
                    "fragment {from} feeds fragment {to}, which feeds it back (cycle between fragments)"
                )
            }
            DiagramError::UnknownOp(n) => write!(f, "deployment references unknown operator {n:?}"),
            DiagramError::DuplicateAssignment(n) => {
                write!(f, "operator {n:?} assigned to two fragments")
            }
            DiagramError::EmptyFragment(n) => write!(f, "fragment {n:?} contains no operators"),
            DiagramError::ForeignHandle => {
                write!(f, "stream handle belongs to a different QueryBuilder")
            }
            DiagramError::ShardedOutput(s) => {
                write!(
                    f,
                    "sharded fragment produces client-visible stream {s}; merge it in a downstream fragment first"
                )
            }
            DiagramError::ShardsRequireDpc(n) => {
                write!(
                    f,
                    "fragment {n:?} is sharded but planned without DPC protection"
                )
            }
            DiagramError::UnprotectedPassthrough(s) => {
                write!(f, "passthrough stream {s} requires DPC protection")
            }
            DiagramError::ZeroCapacityBuffer(n) => {
                write!(f, "fragment {n:?} declares a zero-capacity output buffer")
            }
        }
    }
}

impl std::error::Error for DiagramError {}

/// A validated logical query diagram.
#[derive(Debug, Clone)]
pub struct Diagram {
    ops: Vec<OpNode>,
    source_streams: Vec<StreamId>,
    output_streams: Vec<StreamId>,
    stream_names: Vec<String>,
    /// op ids in topological order.
    topo: Vec<OpId>,
}

impl Diagram {
    /// Freezes what a [`QueryBuilder`](crate::query::QueryBuilder)
    /// collected — every operator consumes declared streams only, its
    /// handles see to that — ordering the operators topologically.
    pub(crate) fn new(
        ops: Vec<OpNode>,
        source_streams: Vec<StreamId>,
        output_streams: Vec<StreamId>,
        stream_names: Vec<String>,
    ) -> Result<Diagram, DiagramError> {
        let topo = topo_sort(&ops)?;
        Ok(Diagram {
            ops,
            source_streams,
            output_streams,
            stream_names,
            topo,
        })
    }

    /// The operators, indexable by [`OpId::index`].
    pub fn ops(&self) -> &[OpNode] {
        &self.ops
    }

    /// Streams entering the diagram from data sources.
    pub fn source_streams(&self) -> &[StreamId] {
        &self.source_streams
    }

    /// Streams delivered to client applications.
    pub fn output_streams(&self) -> &[StreamId] {
        &self.output_streams
    }

    /// Operator ids in a topological order.
    pub fn topo_order(&self) -> &[OpId] {
        &self.topo
    }

    /// Name of a stream.
    pub fn stream_name(&self, s: StreamId) -> &str {
        &self.stream_names[s.index()]
    }

    /// Number of streams (source + intermediate).
    pub fn n_streams(&self) -> usize {
        self.stream_names.len()
    }

    /// The operator producing `stream`, if any (sources produce none).
    pub fn producer(&self, stream: StreamId) -> Option<&OpNode> {
        self.ops.iter().find(|o| o.output == stream)
    }

    /// The operators consuming `stream`.
    pub fn consumers(&self, stream: StreamId) -> Vec<&OpNode> {
        self.ops
            .iter()
            .filter(|o| o.inputs.contains(&stream))
            .collect()
    }

    /// The stream with the given name, if declared.
    pub fn stream_named(&self, name: &str) -> Option<StreamId> {
        self.stream_names
            .iter()
            .position(|n| n == name)
            .map(|i| StreamId(i as u32))
    }

    /// The operator whose output stream has the given name (operators are
    /// addressed by the stream they produce — the deployment-spec naming
    /// convention).
    pub fn op_named(&self, name: &str) -> Option<&OpNode> {
        let s = self.stream_named(name)?;
        self.producer(s)
    }
}

/// Kahn's algorithm over operator nodes; detects cycles.
fn topo_sort(ops: &[OpNode]) -> Result<Vec<OpId>, DiagramError> {
    let n = ops.len();
    // producer_of[stream] = op index
    let mut producer_of: HashMap<StreamId, usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        producer_of.insert(op.output, i);
    }
    let mut indegree = vec![0usize; n];
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, op) in ops.iter().enumerate() {
        for s in &op.inputs {
            if let Some(&p) = producer_of.get(s) {
                indegree[i] += 1;
                consumers[p].push(i);
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(OpId(i as u32));
        for &c in &consumers[i] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                queue.push(c);
            }
        }
    }
    if order.len() != n {
        return Err(DiagramError::Cyclic);
    }
    Ok(order)
}
