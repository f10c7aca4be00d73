//! The query-construction API — the one way to describe a diagram: typed
//! stream handles and per-kind combinators.
//!
//! A [`QueryBuilder`] produces the validated [`Diagram`] the planner
//! consumes, and callers never touch raw `StreamId`s: every combinator takes
//! and returns a [`StreamHandle`] bound to its builder, so wiring mistakes
//! (a handle from another query, a join with one input) are caught at
//! `build()` with a typed [`DiagramError`].

use crate::graph::{Diagram, DiagramError, JoinSpec, LogicalOp, OpNode};
use borealis_ops::AggregateSpec;
use borealis_types::{Expr, OpId, StreamId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

static NEXT_TAG: AtomicU32 = AtomicU32::new(1);

/// A named, typed handle to a stream under construction. Obtained from
/// [`QueryBuilder`] combinators; only valid with the builder that created
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHandle {
    id: StreamId,
    tag: u32,
}

impl StreamHandle {
    /// The underlying stream id (stable across `build()`; used to address
    /// sources, client subscriptions, and metrics).
    pub fn id(self) -> StreamId {
        self.id
    }
}

impl From<StreamHandle> for StreamId {
    fn from(h: StreamHandle) -> StreamId {
        h.id
    }
}

/// Fluent construction of a validated query diagram.
///
/// ```
/// use borealis_diagram::{plan_deployment, DeploymentSpec, DpcConfig, FragmentSpec, QueryBuilder};
/// use borealis_types::{BinOp, Expr};
///
/// // Merge two feeds, keep the readings over 50, shard the scoring stage
/// // four ways by sensor id, and merge the shards for delivery.
/// let mut q = QueryBuilder::new();
/// let a = q.source("feed-a");
/// let b = q.source("feed-b");
/// let merged = q.union("merged", &[a, b]);
/// let hot = q.filter("hot", merged, Expr::bin(BinOp::Gt, Expr::field(0), Expr::int(50)));
/// let scored = q.map("scored", hot, vec![Expr::field(0)]);
/// let out = q.relay("final", scored);
/// q.output(out);
/// let diagram = q.build().expect("valid diagram");
///
/// let spec = DeploymentSpec::new()
///     .fragment(FragmentSpec::named("ingest").ops(["merged", "hot"]))
///     .fragment(FragmentSpec::named("score").op("scored").shards(4, Expr::field(0)))
///     .fragment(FragmentSpec::named("deliver").op("final"));
/// let plan = plan_deployment(&diagram, &spec, &DpcConfig::default()).expect("plannable");
/// // 1 ingest + 4 score shards + 1 deliver = 6 physical fragments.
/// assert_eq!(plan.fragments.len(), 6);
/// ```
#[derive(Debug, Default)]
pub struct QueryBuilder {
    ops: Vec<OpNode>,
    stream_names: Vec<String>,
    stream_index: HashMap<String, StreamId>,
    source_streams: Vec<StreamId>,
    output_streams: Vec<StreamId>,
    /// Mistakes so far; `build()` reports the first.
    errors: Vec<DiagramError>,
    tag: u32,
}

impl QueryBuilder {
    /// Starts an empty query.
    pub fn new() -> QueryBuilder {
        QueryBuilder {
            tag: NEXT_TAG.fetch_add(1, Ordering::Relaxed),
            ..QueryBuilder::default()
        }
    }

    /// Declares the stream `name` (a second declaration is an error and
    /// resolves to the first).
    fn declare(&mut self, name: &str) -> StreamHandle {
        let id = match self.stream_index.get(name) {
            Some(&id) => {
                self.errors
                    .push(DiagramError::DuplicateStream(name.to_string()));
                id
            }
            None => {
                let id = StreamId(self.stream_names.len() as u32);
                self.stream_names.push(name.to_string());
                self.stream_index.insert(name.to_string(), id);
                id
            }
        };
        StreamHandle { id, tag: self.tag }
    }

    /// A handle's stream id. Every handle of this builder names a declared
    /// stream, so an operator can only consume what something produces.
    fn stream_of(&mut self, h: StreamHandle) -> StreamId {
        if h.tag != self.tag {
            self.errors.push(DiagramError::ForeignHandle);
        }
        h.id
    }

    /// Declares a source stream (produced outside the diagram).
    pub fn source(&mut self, name: &str) -> StreamHandle {
        let s = self.declare(name);
        self.source_streams.push(s.id);
        s
    }

    /// Adds an operator producing stream `name` from `inputs` (the
    /// per-kind combinators below are the public face of this).
    pub(crate) fn add(
        &mut self,
        name: &str,
        op: LogicalOp,
        inputs: &[StreamHandle],
    ) -> StreamHandle {
        let inputs: Vec<StreamId> = inputs.iter().map(|&h| self.stream_of(h)).collect();
        let output = self.declare(name);
        let id = OpId(self.ops.len() as u32);
        match op.expected_inputs() {
            Some(n) if n != inputs.len() => {
                self.errors.push(DiagramError::ArityMismatch {
                    op: id,
                    expected: n,
                    actual: inputs.len(),
                });
            }
            None if inputs.len() < 2 => self.errors.push(match op {
                LogicalOp::Join(_) => DiagramError::ArityMismatch {
                    op: id,
                    expected: 2,
                    actual: inputs.len(),
                },
                _ => DiagramError::UnionTooNarrow(id),
            }),
            _ => {}
        }
        self.ops.push(OpNode {
            id,
            op,
            inputs,
            output: output.id,
        });
        output
    }

    /// Predicate filter: keeps tuples satisfying `predicate`.
    pub fn filter(&mut self, name: &str, input: StreamHandle, predicate: Expr) -> StreamHandle {
        self.add(name, LogicalOp::Filter { predicate }, &[input])
    }

    /// Per-tuple projection: one expression per output attribute.
    pub fn map(&mut self, name: &str, input: StreamHandle, outputs: Vec<Expr>) -> StreamHandle {
        self.add(name, LogicalOp::Map { outputs }, &[input])
    }

    /// Windowed, grouped aggregate.
    pub fn aggregate(
        &mut self,
        name: &str,
        input: StreamHandle,
        spec: AggregateSpec,
    ) -> StreamHandle {
        self.add(name, LogicalOp::Aggregate(spec), &[input])
    }

    /// Merge of two or more streams (lowered to a serializing SUnion).
    pub fn union(&mut self, name: &str, inputs: &[StreamHandle]) -> StreamHandle {
        self.add(name, LogicalOp::Union, inputs)
    }

    /// Windowed equi-join of `left` against `right` (lowered to an SUnion
    /// serializing both inputs followed by an SJoin, §3).
    pub fn join(
        &mut self,
        name: &str,
        left: StreamHandle,
        right: StreamHandle,
        spec: JoinSpec,
    ) -> StreamHandle {
        self.join_many(name, left, &[right], spec)
    }

    /// Windowed equi-join of `left` against the union of `rights` — the
    /// paper's Fig. 12 shape (one stream joined against two others through
    /// a single three-input SUnion).
    pub fn join_many(
        &mut self,
        name: &str,
        left: StreamHandle,
        rights: &[StreamHandle],
        spec: JoinSpec,
    ) -> StreamHandle {
        let inputs: Vec<StreamHandle> = std::iter::once(left)
            .chain(rights.iter().copied())
            .collect();
        self.add(name, LogicalOp::Join(spec), &inputs)
    }

    /// Identity tap: renames `input` so it can cross a fragment boundary or
    /// reach clients through DPC's machinery without any computation
    /// (lowered to no physical operator — the stream leaves through the
    /// fragment's entry SUnion and an SOutput).
    pub fn relay(&mut self, name: &str, input: StreamHandle) -> StreamHandle {
        self.add(name, LogicalOp::Passthrough, &[input])
    }

    /// Marks a stream as a client-visible output.
    pub fn output(&mut self, stream: StreamHandle) {
        let id = self.stream_of(stream);
        self.output_streams.push(id);
    }

    /// Validates and freezes the diagram.
    pub fn build(self) -> Result<Diagram, DiagramError> {
        if let Some(first) = self.errors.into_iter().next() {
            return Err(first);
        }
        Diagram::new(
            self.ops,
            self.source_streams,
            self.output_streams,
            self.stream_names,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::{Duration, Value};

    fn filter() -> LogicalOp {
        LogicalOp::Filter {
            predicate: Expr::Const(Value::Bool(true)),
        }
    }

    fn join_spec() -> JoinSpec {
        JoinSpec {
            window: Duration::from_millis(50),
            left_key: Expr::field(0),
            right_key: Expr::field(0),
            max_state: None,
        }
    }

    #[test]
    fn simple_chain_builds() {
        let mut b = QueryBuilder::new();
        let s = b.source("in");
        let f = b.add("filtered", filter(), &[s]);
        b.output(f);
        let d = b.build().unwrap();
        assert_eq!(d.ops().len(), 1);
        assert_eq!(d.source_streams(), &[StreamId(0)]);
        assert_eq!(d.output_streams(), &[f.id()]);
        assert_eq!(d.stream_name(s.id()), "in");
        assert!(d.producer(f.id()).is_some());
        assert!(d.producer(s.id()).is_none());
        assert_eq!(d.consumers(s.id()).len(), 1);
    }

    #[test]
    fn duplicate_stream_rejected() {
        let mut b = QueryBuilder::new();
        b.source("x");
        b.source("x");
        assert!(matches!(b.build(), Err(DiagramError::DuplicateStream(_))));
    }

    #[test]
    fn arity_checked() {
        let mut b = QueryBuilder::new();
        let a = b.source("a");
        b.add("j", LogicalOp::Join(join_spec()), &[a]);
        assert!(matches!(b.build(), Err(DiagramError::ArityMismatch { .. })));
    }

    #[test]
    fn union_needs_two_inputs() {
        let mut b = QueryBuilder::new();
        let a = b.source("a");
        b.union("u", &[a]);
        assert!(matches!(b.build(), Err(DiagramError::UnionTooNarrow(_))));
    }

    #[test]
    fn topo_order_covers_all_ops() {
        let mut b = QueryBuilder::new();
        let a = b.source("a");
        let c = b.source("b");
        let u = b.union("u", &[a, c]);
        let f = b.add("f", filter(), &[u]);
        b.output(f);
        let d = b.build().unwrap();
        assert_eq!(d.topo_order().len(), 2);
        // Union must precede filter.
        let pos = |id: OpId| d.topo_order().iter().position(|&o| o == id).unwrap();
        assert!(pos(OpId(0)) < pos(OpId(1)));
    }

    #[test]
    fn fan_out_is_allowed() {
        let mut b = QueryBuilder::new();
        let a = b.source("a");
        let f1 = b.add("f1", filter(), &[a]);
        let f2 = b.add("f2", filter(), &[a]);
        b.output(f1);
        b.output(f2);
        let d = b.build().unwrap();
        assert_eq!(d.consumers(a.id()).len(), 2);
    }

    #[test]
    fn builds_a_validated_diagram() {
        let mut q = QueryBuilder::new();
        let a = q.source("a");
        let b = q.source("b");
        let u = q.union("u", &[a, b]);
        let f = q.filter("f", u, Expr::Const(Value::Bool(true)));
        q.output(f);
        let d = q.build().unwrap();
        assert_eq!(d.ops().len(), 2);
        assert_eq!(d.output_streams(), &[f.id()]);
        assert_eq!(d.stream_name(a.id()), "a");
        assert_eq!(d.op_named("u").unwrap().op.kind_name(), "union");
    }

    #[test]
    fn foreign_handles_are_rejected() {
        let mut q1 = QueryBuilder::new();
        let s1 = q1.source("s");
        let mut q2 = QueryBuilder::new();
        let _s2 = q2.source("s");
        let f = q2.filter("f", s1, Expr::Const(Value::Bool(true)));
        q2.output(f);
        assert!(matches!(q2.build(), Err(DiagramError::ForeignHandle)));
        drop(q1);
    }

    #[test]
    fn relay_and_join_many_lower_to_logical_ops() {
        let mut q = QueryBuilder::new();
        let l = q.source("l");
        let r1 = q.source("r1");
        let r2 = q.source("r2");
        let j = q.join_many("j", l, &[r1, r2], join_spec());
        let t = q.relay("tapped", j);
        q.output(t);
        let d = q.build().unwrap();
        assert_eq!(d.op_named("j").unwrap().inputs.len(), 3);
        assert_eq!(d.op_named("tapped").unwrap().op.kind_name(), "passthrough");
    }
}
