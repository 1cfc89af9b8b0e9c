//! # em-shard — the sharded message-passing runtime
//!
//! The paper's headline scale result (Table 1: DBLP-BIG on a 30-machine
//! grid, ~11× speedup) was previously only *simulated* by replaying
//! measured costs onto virtual machines. This crate is the real thing,
//! at thread granularity: the [`em_core::framework::DependencyIndex`]
//! is partitioned into shards along **neighborhood-overlap connected
//! components** — in the evidence-routing sense of overlap, two
//! neighborhoods sharing a candidate pair
//! ([`em_core::framework::DependencyIndex::evidence_components`]) —
//! components are packed onto `k` shards with a locality-aware LPT
//! balancer keyed by estimated (or measured) neighborhood cost
//! ([`partition`]), and one delta-driven scheduler per shard runs on
//! its own thread with cross-shard evidence exchanged as epoch-fenced
//! delta messages over channels ([`runtime`]), converging to a
//! deterministic global fixpoint byte-identical to the single-machine
//! run.
//!
//! Why components are the unit of placement, what happens when one
//! component dwarfs the share (real canopy covers chain into exactly
//! that), and what crosses shards anyway, is documented on
//! [`partition`] and [`runtime`]; the one-paragraph version: all
//! *activation* is component-local, so a shard is self-driving within
//! an epoch, but MMP's promotion check reads the whole `M+` and the
//! message-merge closure is global — so every shard keeps an evidence
//! replica lagged by at most one epoch, maximal messages flow to the
//! coordinator's single store, and supermodularity makes promotion
//! against a lagged replica sound and eventually complete.

#![warn(missing_docs)]

pub mod fault;
pub mod partition;
pub mod runtime;

pub use fault::{FaultKind, FaultPlan, RuntimeOptions};
pub use partition::{estimate_costs, PlacementUnit, ShardPlan, SplitPolicy};
pub use runtime::{
    shard_mmp_planned_opts, shard_no_mp_planned_opts, shard_smp_planned_opts, ShardLoad,
    ShardReport,
};
