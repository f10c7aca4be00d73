//! # borealis-diagram
//!
//! Logical query diagrams (loop-free operator DAGs, §2.1 of the paper),
//! the fluent [`QueryBuilder`] construction API, declarative
//! [`DeploymentSpec`]s (fragment cut by operator name, per-fragment
//! replication, key-partitioned sharding), and the DPC physical planner
//! that inserts SUnion / SJoin / SOutput operators, assigns delay budgets
//! (§3, §6.3), and fans sharded fragments out into key-partitioned
//! physical instances.

#![warn(missing_docs)]

pub mod graph;
pub mod plan;
pub mod query;
pub mod spec;

pub use graph::{Diagram, DiagramError, JoinSpec, LogicalOp, OpNode};
pub use plan::{
    plan_deployment, DelayAssignment, DpcConfig, FragmentInput, FragmentOutput, FragmentPlan,
    PhysOp, PhysicalPlan, PlanGroup, Protection, ShardAssignment,
};
pub use query::{QueryBuilder, StreamHandle};
pub use spec::{DeploymentSpec, FragmentSpec};
