//! # Borealis DPC — fault-tolerant distributed stream processing
//!
//! A from-scratch Rust reproduction of *Fault-Tolerance in the Borealis
//! Distributed Stream Processing System* (Balazinska, Balakrishnan, Madden,
//! Stonebraker; SIGMOD 2005 / ACM TODS): the **DPC** (Delay, Process, and
//! Correct) protocol, the Borealis-style stream engine it runs on, and a
//! deterministic distributed-systems simulator that reproduces every
//! experiment in the paper's evaluation.
//!
//! ## The thirty-second tour
//!
//! ```
//! use borealis::prelude::*;
//!
//! // 1. Describe a query diagram: three monitor streams merged into one.
//! let mut q = QueryBuilder::new();
//! let (m1, m2, m3) = (q.source("m1"), q.source("m2"), q.source("m3"));
//! let merged = q.union("merged", &[m1, m2, m3]);
//! q.output(merged);
//! let diagram = q.build().unwrap();
//!
//! // 2. Plan it for DPC: one replicated fragment, 2-second latency budget.
//! let cfg = DpcConfig { total_delay: Duration::from_secs(2), ..DpcConfig::default() };
//! let plan = plan_deployment(&diagram, &DeploymentSpec::single(2), &cfg).unwrap();
//!
//! // 3. Deploy: replicated node pair, three sources, one client, and a
//! //    scripted failure — monitor 3 unreachable from t=5s to t=8s.
//! let mut sys = SystemBuilder::new(7, Duration::from_millis(1))
//!     .source(SourceConfig::seq(m1.id(), 100.0))
//!     .source(SourceConfig::seq(m2.id(), 100.0))
//!     .source(SourceConfig::seq(m3.id(), 100.0))
//!     .plan(plan)
//!     .client_streams(vec![merged.id()])
//!     .fault(FaultSpec::DisconnectSource {
//!         stream: m3.id(),
//!         frag: 0,
//!         from: Time::from_secs(5),
//!         to: Time::from_secs(8),
//!     })
//!     .build();
//! sys.run_until(Time::from_secs(20));
//!
//! // 4. The client saw low-latency tentative results during the failure
//! //    and received stable corrections afterwards.
//! sys.metrics.with(merged.id(), |m| {
//!     assert!(m.n_tentative > 0);
//!     assert!(m.n_rec_done >= 1);
//!     assert_eq!(m.dup_stable, 0);
//! });
//! ```
//!
//! A fragment under heavy load scales out declaratively: give its
//! `FragmentSpec` a shard count and key
//! (`FragmentSpec::named("work").op("work").shards(4, Expr::field(0))`) and
//! the planner clones it into four key-partitioned instances — sources and
//! upstream fragments fan batches out by `hash(key) % 4` on the wire, the
//! downstream entry SUnion merges the substreams deterministically, and
//! replication, scripted faults, and recovery compose unchanged.
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | `borealis-types` | Tuple model (stable/tentative/boundary/undo/rec-done), time, expressions, shard routing, and the shared-ownership [`TupleBatch`](borealis_types::TupleBatch) data plane |
//! | `borealis-ops` | Operators: Filter, Map, Union, Aggregate, SJoin, SUnion, SOutput — one batch execution path each (`Operator::process_batch`) |
//! | `borealis-diagram` | Query diagrams, validation, DPC planning, delay assignment |
//! | `borealis-engine` | Per-node fragment executor (batch-wise) with checkpoint/redo reconciliation |
//! | `borealis-store` | Durability: one segmented, checksummed append-only log per node, holding input records and checkpoint records |
//! | `borealis-sim` | The §2.2 system model written once — the link `Fabric` (link state, shard routing, credit ledger, loss stats, fault application) and the `Actor`/`Ctx` traits — plus its deterministic discrete-event driver |
//! | `borealis-dpc` | The DPC protocol: nodes, sources, clients, replica management — runtime-agnostic |
//! | `borealis-runtime` | The wall-clock drivers of the same fabric: a worker pool on one run queue and a TCP mesh across OS processes |
//! | `borealis-check` | Bounded exhaustive interleaving explorer for the runtime's concurrency protocols |
//! | `borealis-workloads` | Paper-experiment setups and runners; `tests/reproduce.rs` asserts the paper's claims on them |
//!
//! ## The batch data plane
//!
//! Every layer that moves tuples — operator emissions, the fragment
//! executor, `NetMsg::Data` payloads, output-buffer retention/replay,
//! source logs — carries an `Arc`-backed, immutable
//! [`TupleBatch`](borealis_types::TupleBatch): cloning is a reference-count
//! bump, slicing is O(1) range arithmetic. One emitted batch backs the
//! emission log, every replica's and client's in-flight messages, and every
//! replay cursor simultaneously, so fan-out cost is independent of
//! replication degree. Ack-driven truncation (§8.1) narrows retained
//! segments by range split — views already handed to slower subscribers
//! stay valid.

pub use borealis_diagram as diagram;
pub use borealis_dpc as dpc;
pub use borealis_engine as engine;
pub use borealis_ops as ops;
pub use borealis_runtime as runtime;
pub use borealis_sim as sim;
pub use borealis_types as types;
pub use borealis_workloads as workloads;

/// Everything needed to describe, run and observe a fault-tolerant stream
/// deployment — the names of the one path `QueryBuilder` → `DeploymentSpec`
/// → `plan_deployment` → `SystemBuilder` (+ `FaultSpec`s) → `SystemLayout` →
/// `deploy_sim` / `deploy_threads` / `deploy_tcp`.
pub mod prelude {
    pub use borealis_diagram::{
        plan_deployment, DelayAssignment, DeploymentSpec, Diagram, DpcConfig, FragmentSpec,
        JoinSpec, PhysicalPlan, Protection, QueryBuilder, StreamHandle,
    };
    pub use borealis_dpc::{
        final_stream, BufferPolicy, CrashDomain, FaultSpec, MetricsHub, NodeState, NodeTuning,
        RunningSystem, SourceConfig, SystemBuilder, SystemLayout, TraceEntry, ValueGen,
    };
    pub use borealis_ops::{AggFn, AggregateSpec, DelayMode, SJoinSpec, SUnionConfig};
    pub use borealis_runtime::plan_processes;
    #[cfg(not(borealis_model))]
    pub use borealis_runtime::{
        deploy_tcp, deploy_threads, RunningTcp, RunningThreads, TcpFabric, ThreadRuntime,
    };
    pub use borealis_types::{
        CreditPolicy, Duration, Expr, FlowGauges, FragmentId, NodeId, PartitionSpec, SchedGauges,
        StreamId, Time, Tuple, TupleBatch, TupleId, TupleKind, Value, WireGauges,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_builder_api() {
        use crate::prelude::*;
        let mut q = QueryBuilder::new();
        let s = q.source("s");
        let f = q.filter("f", s, Expr::Const(Value::Bool(true)));
        q.output(f);
        assert!(q.build().is_ok());
    }
}
