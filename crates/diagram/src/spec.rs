//! Declarative deployment specifications: the fragment cut by operator
//! name, with per-fragment replication and key-partitioned sharding.
//!
//! A [`DeploymentSpec`] says *where* a validated [`Diagram`] runs: which
//! operators form each fragment (the unit of replication, §2.1), how many
//! replicas each fragment gets, and — for fragments under heavy load — how
//! many key-partitioned shards to fan it out over.
//! [`plan_deployment`](crate::plan::plan_deployment) resolves it against a
//! diagram into a [`PhysicalPlan`](crate::plan::PhysicalPlan).
//!
//! ```
//! use borealis_diagram::{DeploymentSpec, FragmentSpec};
//! use borealis_types::Expr;
//!
//! let spec = DeploymentSpec::new()
//!     .fragment(FragmentSpec::named("ingest").op("merged"))
//!     .fragment(
//!         FragmentSpec::named("work")
//!             .op("scored")
//!             .replication(2)
//!             .shards(4, Expr::field(0)),
//!     )
//!     .fragment(FragmentSpec::named("deliver").op("final"));
//! assert_eq!(spec.fragments().len(), 3);
//! ```

use crate::graph::{Diagram, DiagramError};
use borealis_types::{BufferPolicy, Duration, Expr, FragmentId};

/// One fragment of a [`DeploymentSpec`]: a named set of operators with its
/// replication degree and optional shard fan-out.
#[derive(Debug, Clone)]
pub struct FragmentSpec {
    pub(crate) name: String,
    pub(crate) ops: Vec<String>,
    pub(crate) replication: usize,
    pub(crate) shards: u32,
    pub(crate) shard_key: Option<Expr>,
    pub(crate) per_tuple_cost: Option<Duration>,
    pub(crate) buffer_policy: Option<BufferPolicy>,
}

impl FragmentSpec {
    /// Starts a fragment with the paper's default of two replicas.
    pub fn named(name: impl Into<String>) -> FragmentSpec {
        FragmentSpec {
            name: name.into(),
            ops: Vec::new(),
            replication: 2,
            shards: 1,
            shard_key: None,
            per_tuple_cost: None,
            buffer_policy: None,
        }
    }

    /// Adds one operator, addressed by the name of the stream it produces.
    pub fn op(mut self, name: impl Into<String>) -> Self {
        self.ops.push(name.into());
        self
    }

    /// Adds several operators.
    pub fn ops<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.ops.extend(names.into_iter().map(Into::into));
        self
    }

    /// Number of replicas per physical fragment (per shard, if sharded).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn replication(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one replica per fragment");
        self.replication = n;
        self
    }

    /// Fans the fragment out over `count` key-partitioned shards: data
    /// tuples route to shard `hash(key) % count`, each shard is replicated
    /// independently, and the downstream entry SUnion merges the shard
    /// substreams back into one deterministic stream.
    ///
    /// # Panics
    /// Panics if `count == 0`.
    pub fn shards(mut self, count: u32, key: Expr) -> Self {
        assert!(count >= 1, "at least one shard");
        self.shards = count;
        self.shard_key = Some(key);
        self
    }

    /// Overrides the per-tuple CPU cost for this fragment's nodes
    /// (heterogeneous stage costs; the deployment-wide tuning supplies the
    /// default).
    pub fn work_cost(mut self, per_tuple: Duration) -> Self {
        self.per_tuple_cost = Some(per_tuple);
        self
    }

    /// Sets the §8.1 output-buffer policy of this fragment's replicas
    /// (default `BufferPolicy::Unbounded`). A bounded buffer
    /// caps the emission log retained for downstream replay — the paper's
    /// convergent-capable mode, where only a window of recent results is
    /// corrected after a failure heals.
    ///
    /// Zero-capacity bounds are rejected at planning time
    /// ([`DiagramError::ZeroCapacityBuffer`]).
    pub fn buffer(mut self, policy: BufferPolicy) -> Self {
        self.buffer_policy = Some(policy);
        self
    }

    /// The fragment's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// The declarative deployment of a diagram: an ordered list of
/// [`FragmentSpec`]s covering every operator.
#[derive(Debug, Clone, Default)]
pub struct DeploymentSpec {
    fragments: Vec<FragmentSpec>,
}

impl DeploymentSpec {
    /// An empty spec; add fragments with [`DeploymentSpec::fragment`].
    pub fn new() -> DeploymentSpec {
        DeploymentSpec::default()
    }

    /// Every operator in one fragment with `replication` replicas — the
    /// single-node deployments of Figs. 10–13.
    pub fn single(replication: usize) -> DeploymentSpec {
        DeploymentSpec::new().fragment(FragmentSpec::named("all").replication(replication))
    }

    /// Adds a fragment.
    pub fn fragment(mut self, f: FragmentSpec) -> Self {
        self.fragments.push(f);
        self
    }

    /// The declared fragments.
    pub fn fragments(&self) -> &[FragmentSpec] {
        &self.fragments
    }

    /// Resolves operator names against `diagram` into the fragment of each
    /// operator (indexed by `OpId::index`) plus the per-fragment settings,
    /// checking that every operator is assigned exactly once.
    ///
    /// The single-fragment shorthand (one fragment with no listed ops)
    /// absorbs every operator.
    pub(crate) fn resolve(
        &self,
        diagram: &Diagram,
    ) -> Result<(Vec<FragmentId>, Vec<FragmentSpec>), DiagramError> {
        let mut metas = self.fragments.clone();
        if metas.is_empty() {
            metas.push(FragmentSpec::named("all"));
        }
        let all_in_one = metas.len() == 1 && metas[0].ops.is_empty();
        if all_in_one {
            metas[0].ops = diagram
                .ops()
                .iter()
                .map(|o| diagram.stream_name(o.output).to_string())
                .collect();
        }
        let mut assignment: Vec<Option<FragmentId>> = vec![None; diagram.ops().len()];
        for (fi, fs) in metas.iter().enumerate() {
            if fs.ops.is_empty() {
                return Err(DiagramError::EmptyFragment(fs.name.clone()));
            }
            for name in &fs.ops {
                let op = diagram
                    .op_named(name)
                    .ok_or_else(|| DiagramError::UnknownOp(name.clone()))?;
                let slot = &mut assignment[op.id.index()];
                if slot.is_some() {
                    return Err(DiagramError::DuplicateAssignment(name.clone()));
                }
                *slot = Some(FragmentId(fi as u32));
            }
        }
        let mut resolved = Vec::with_capacity(assignment.len());
        for (i, a) in assignment.into_iter().enumerate() {
            match a {
                Some(f) => resolved.push(f),
                None => return Err(DiagramError::Unassigned(borealis_types::OpId(i as u32))),
            }
        }
        Ok((resolved, metas))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LogicalOp;
    use crate::query::QueryBuilder;
    use borealis_types::{Expr, Value};

    fn two_stage() -> Diagram {
        let mut b = QueryBuilder::new();
        let s = b.source("s");
        let f = b.add(
            "hot",
            LogicalOp::Filter {
                predicate: Expr::Const(Value::Bool(true)),
            },
            &[s],
        );
        let m = b.add(
            "scaled",
            LogicalOp::Map {
                outputs: vec![Expr::field(0)],
            },
            &[f],
        );
        b.output(m);
        b.build().unwrap()
    }

    #[test]
    fn resolves_names_to_assignment() {
        let d = two_stage();
        let spec = DeploymentSpec::new()
            .fragment(FragmentSpec::named("a").op("hot").replication(3))
            .fragment(FragmentSpec::named("b").op("scaled"));
        let (assignment, metas) = spec.resolve(&d).unwrap();
        assert_eq!(assignment, vec![FragmentId(0), FragmentId(1)]);
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].replication, 3);
        assert_eq!(metas[1].replication, 2, "default replication");
    }

    #[test]
    fn single_shorthand_absorbs_all_ops() {
        let d = two_stage();
        let (assignment, metas) = DeploymentSpec::single(1).resolve(&d).unwrap();
        assert_eq!(assignment, vec![FragmentId(0); 2]);
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].replication, 1);
    }

    #[test]
    fn empty_spec_defaults_to_single_fragment() {
        let d = two_stage();
        let (_, metas) = DeploymentSpec::new().resolve(&d).unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].replication, 2);
    }

    #[test]
    fn buffer_policy_rides_the_fragment_spec() {
        use borealis_types::BufferPolicy;
        let d = two_stage();
        let spec = DeploymentSpec::new()
            .fragment(
                FragmentSpec::named("a")
                    .op("hot")
                    .buffer(BufferPolicy::DropOldest(512)),
            )
            .fragment(FragmentSpec::named("b").op("scaled"));
        let (_, metas) = spec.resolve(&d).unwrap();
        assert_eq!(metas[0].buffer_policy, Some(BufferPolicy::DropOldest(512)));
        assert_eq!(metas[1].buffer_policy, None, "default: unbounded");
    }

    #[test]
    fn unknown_duplicate_and_missing_ops_are_errors() {
        let d = two_stage();
        let unknown = DeploymentSpec::new()
            .fragment(FragmentSpec::named("a").op("hot").op("nope"))
            .fragment(FragmentSpec::named("b").op("scaled"));
        assert!(matches!(
            unknown.resolve(&d),
            Err(DiagramError::UnknownOp(n)) if n == "nope"
        ));

        let dup = DeploymentSpec::new()
            .fragment(FragmentSpec::named("a").op("hot"))
            .fragment(FragmentSpec::named("b").op("hot").op("scaled"));
        assert!(matches!(
            dup.resolve(&d),
            Err(DiagramError::DuplicateAssignment(n)) if n == "hot"
        ));

        let missing = DeploymentSpec::new().fragment(FragmentSpec::named("a").op("hot"));
        assert!(matches!(
            missing.resolve(&d),
            Err(DiagramError::Unassigned(_))
        ));

        let empty = DeploymentSpec::new()
            .fragment(FragmentSpec::named("a").ops(["hot", "scaled"]))
            .fragment(FragmentSpec::named("b"));
        assert!(matches!(
            empty.resolve(&d),
            Err(DiagramError::EmptyFragment(n)) if n == "b"
        ));
    }
}
