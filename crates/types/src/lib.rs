//! # borealis-types
//!
//! Foundational types for the Borealis/DPC reproduction: virtual time, tuple
//! values, the DPC tuple model (stable / tentative / boundary / undo /
//! rec-done tuples, §4.1 of the paper), the shared-ownership
//! [`TupleBatch`] data plane, shared identifiers, and a small
//! deterministic expression language used by operator specifications.
//!
//! Everything in this crate is deliberately free of protocol logic so that
//! operators (`borealis-ops`), the engine (`borealis-engine`), the simulator
//! (`borealis-sim`), and the DPC protocol (`borealis-dpc`) can all share one
//! vocabulary.

#![warn(missing_docs)]

pub mod batch;
pub mod expr;
pub mod flow;
pub mod ids;
pub mod sched;
pub mod shard;
pub mod time;
pub mod tuple;
pub mod value;
pub mod wire;

pub use batch::{BatchView, TupleBatch};
pub use expr::{BinOp, EvalError, Expr};
pub use flow::{BufferPolicy, CreditPolicy, FlowGauges};
pub use ids::{FragmentId, NodeId, OpId, StreamId};
pub use sched::SchedGauges;
pub use shard::{route_key_evals, PartitionSpec, ShardRouter};
pub use time::{Duration, Time};
pub use tuple::{ControlSignal, Payload, Tuple, TupleId, TupleKind};
pub use value::Value;
pub use wire::{WireError, WireGauges};
