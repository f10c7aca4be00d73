//! # borealis-workloads
//!
//! Deployment descriptions (workload generators and setups) and the
//! simulator runners reproducing every table and figure of the paper's
//! evaluation (§5–§7).
//! `tests/reproduce.rs` asserts the paper's claims over these runners; the
//! integration tests reuse the same setups.

#![warn(missing_docs)]

pub mod experiments;
pub mod setups;

pub use experiments::{
    run_chain, run_delay_assignment, run_fig11, run_fig13, run_switchover, run_table3, run_table4,
    run_table5, AvailabilityRow, ChainRow, Fig11Result, OverheadRow, SwitchoverResult,
};
pub use setups::{
    chain_builder, overhead_builder, scale_grid_actors, scale_grid_builder, scale_grid_fragments,
    sharded_chain_builder, single_node_builder, ChainOptions, OverheadOptions, PolicyVariant,
    ScaleOptions, ShardedChainOptions, SingleNodeOptions, DISTRIBUTED_VARIANTS, SINGLE_NODE_OUT,
    VARIANTS,
};
