//! # borealis-sim
//!
//! The §2.2 system model of the paper — reliable in-order links, crash
//! failures, link failures and partitions — and a deterministic way to run
//! it on one machine.
//!
//! * [`Fabric`] is the model itself: link state, key-partitioned receivers,
//!   the credit ledger ([`FlowControl`]) and loss accounting
//!   ([`StatsSnapshot`]), with the send / arrive / consumed / apply-fault
//!   rules written once. Every runtime drives one.
//! * [`ActorCell`] is the node half (§2.2, §4.5): one actor as a driver
//!   holds it — started once, one handler at a time, a new incarnation
//!   after every crash — with the one activation step
//!   ([`ActorCell::activate`] over an [`Input`], through the driver's
//!   [`Host`]) that decides delivery, timer staleness and the credit owed.
//!   Every runtime calls it, and orders its deferred work in a
//!   [`DeadlineQueue`].
//! * [`Actor`] and [`Ctx`] are the interface protocol code is written
//!   against; scripted [`FaultEvent`]s recreate every failure scenario of
//!   the paper's evaluation.
//! * [`Sim`] is the discrete-event driver: virtual clock, one event queue,
//!   seeded RNG, constant link latency. (The wall-clock drivers — worker
//!   pool and TCP mesh — live in `borealis-runtime`.)

#![warn(missing_docs)]

pub mod actor;
pub mod fabric;
pub mod fault;
pub mod flow;
pub mod kernel;
pub mod node;

pub use actor::{Actor, Ctx};
pub use fabric::{Arrival, Fabric, Sent, ShardMsg, StatsSnapshot};
pub use fault::FaultEvent;
pub use flow::FlowControl;
pub use kernel::Sim;
pub use node::{ActorCell, DeadlineQueue, Event, Host, Input};
