//! Declarative operator specifications.
//!
//! A query diagram (`borealis-diagram`) is described with [`OperatorSpec`]s
//! rather than live operators so that the same diagram can be instantiated
//! identically on every replica of a fragment — the replication model of
//! §2.1 ("each operator in the query diagram is instantiated on at least two
//! distinct processing nodes").

use crate::{
    Aggregate, AggregateSpec, Filter, Map, Operator, SJoin, SJoinSpec, SOutput, SUnion,
    SUnionConfig, Union,
};
use borealis_types::Expr;

/// The specification of one operator instance.
#[derive(Debug, Clone)]
pub enum OperatorSpec {
    /// Predicate filter (§2.1).
    Filter {
        /// The predicate tuples must satisfy to pass.
        predicate: Expr,
    },
    /// Per-tuple transformation (§2.1).
    Map {
        /// One expression per output attribute.
        outputs: Vec<Expr>,
    },
    /// Plain, non-serializing union — baseline only; DPC diagrams replace it
    /// with SUnion (§3).
    Union {
        /// Number of input streams.
        n_inputs: usize,
    },
    /// Windowed, grouped aggregate (§2.1).
    Aggregate(AggregateSpec),
    /// Serialized windowed join (§3).
    SJoin(SJoinSpec),
    /// Serializing union (§4.2).
    SUnion(SUnionConfig),
    /// Output stabilization (§4.4.2).
    SOutput,
}

impl OperatorSpec {
    /// Instantiates a live operator from the spec.
    pub fn instantiate(&self) -> Box<dyn Operator> {
        match self {
            OperatorSpec::Filter { predicate } => Box::new(Filter::new(predicate.clone())),
            OperatorSpec::Map { outputs } => Box::new(Map::new(outputs.clone())),
            OperatorSpec::Union { n_inputs } => Box::new(Union::new(*n_inputs)),
            OperatorSpec::Aggregate(spec) => Box::new(Aggregate::new(spec.clone())),
            OperatorSpec::SJoin(spec) => Box::new(SJoin::new(spec.clone())),
            OperatorSpec::SUnion(cfg) => Box::new(SUnion::new(cfg.clone())),
            OperatorSpec::SOutput => Box::new(SOutput::new()),
        }
    }

    /// Number of input ports the instantiated operator will have.
    pub fn n_inputs(&self) -> usize {
        match self {
            OperatorSpec::Union { n_inputs } => *n_inputs,
            OperatorSpec::SUnion(cfg) => cfg.n_inputs,
            _ => 1,
        }
    }

    /// True for SUnion specs.
    pub fn is_sunion(&self) -> bool {
        matches!(self, OperatorSpec::SUnion(_))
    }

    /// True for SOutput specs.
    pub fn is_soutput(&self) -> bool {
        matches!(self, OperatorSpec::SOutput)
    }

    /// Short kind name, for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            OperatorSpec::Filter { .. } => "filter",
            OperatorSpec::Map { .. } => "map",
            OperatorSpec::Union { .. } => "union",
            OperatorSpec::Aggregate(_) => "aggregate",
            OperatorSpec::SJoin(_) => "sjoin",
            OperatorSpec::SUnion(_) => "sunion",
            OperatorSpec::SOutput => "soutput",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiation_matches_spec() {
        use borealis_types::Duration;
        let specs = [
            OperatorSpec::Filter {
                predicate: Expr::Const(borealis_types::Value::Bool(true)),
            },
            OperatorSpec::Map {
                outputs: vec![Expr::field(0)],
            },
            OperatorSpec::Union { n_inputs: 3 },
            OperatorSpec::Aggregate(AggregateSpec {
                window: Duration::from_millis(100),
                slide: Duration::from_millis(100),
                group_by: vec![],
                aggs: vec![crate::AggFn::count()],
            }),
            OperatorSpec::SJoin(SJoinSpec {
                window: Duration::from_millis(100),
                left_key: Expr::field(0),
                right_key: Expr::field(0),
                max_state: None,
                left_split: 1,
            }),
            OperatorSpec::SUnion(SUnionConfig::new(2)),
            OperatorSpec::SOutput,
        ];
        for spec in &specs {
            let op = spec.instantiate();
            let kinds = [
                ("filter", op.downcast_ref::<Filter>().is_some()),
                ("map", op.downcast_ref::<Map>().is_some()),
                ("union", op.downcast_ref::<Union>().is_some()),
                ("aggregate", op.downcast_ref::<Aggregate>().is_some()),
                ("sjoin", op.downcast_ref::<SJoin>().is_some()),
                ("sunion", op.downcast_ref::<SUnion>().is_some()),
                ("soutput", op.downcast_ref::<SOutput>().is_some()),
            ];
            let matched: Vec<&str> = kinds.iter().filter(|k| k.1).map(|k| k.0).collect();
            assert_eq!(matched, [spec.kind_name()], "{spec:?}");
        }
        let mut su = OperatorSpec::SUnion(SUnionConfig::new(2)).instantiate();
        assert_eq!(
            su.downcast_mut::<SUnion>().map(|s| s.config().n_inputs),
            Some(2)
        );
        assert!(su.downcast_mut::<SOutput>().is_none());
    }

    #[test]
    fn predicates_and_flags() {
        assert!(OperatorSpec::SUnion(SUnionConfig::new(1)).is_sunion());
        assert!(OperatorSpec::SOutput.is_soutput());
        assert!(!OperatorSpec::SOutput.is_sunion());
        assert_eq!(OperatorSpec::Union { n_inputs: 4 }.n_inputs(), 4);
    }
}
