//! # em-parallel — the Table 1 grid simulator (§6.3)
//!
//! The paper ran DBLP-BIG on a 30-machine grid in rounds and observed an
//! ~11× speedup, not 30×. [`grid`] reproduces that observation: it
//! replays the per-epoch evaluation traces of a real `em-shard` run
//! ([`em_core::framework::EvalTrace`], one per epoch) onto `m` simulated
//! machines with random or LPT assignment and per-round job overhead.
//! The parallel execution itself is `em-shard`'s.

#![warn(missing_docs)]

pub mod grid;

pub use grid::{simulate, Assignment, GridParams, GridReport};
