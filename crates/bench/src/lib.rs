//! # em-bench — the experiment harness
//!
//! Shared plumbing for the bench binaries that regenerate the paper's
//! tables and figures, plus the load and soak drivers that gate the
//! serving stack:
//!
//! | binary | regenerates / drives |
//! |--------|-------------|
//! | `fig3_accuracy` | Fig. 3(a), 3(b), 3(c) |
//! | `fig3_runtime`  | Fig. 3(d), 3(e), plus the identity-gated ablations |
//! | `fig3_scaling`  | Fig. 3(f) |
//! | `table1_grid`   | Table 1 |
//! | `fig4_rules`    | Fig. 4(a), 4(b), 4(c) |
//! | `serve_load`    | the serving daemon under burst load, in-process or over a socket |
//! | `soak`          | adversarial churn with injected shard faults and invariant sweeps |
//! | `serve_ctl`     | admin commands against a running daemon's socket |
//!
//! The experiment binaries accept `--scale` (fraction of the paper's
//! dataset size; defaults keep runtimes in seconds–minutes) plus
//! experiment-specific flags, listed in each binary's module doc.
//! `fig3_runtime`, `serve_load` and `soak` write their structured
//! output as an `em-metrics-v1` stream ([`metrics`]).

#![warn(missing_docs)]

pub mod cli;
pub mod metrics;
pub mod workload;

pub use cli::Flags;
pub use metrics::{MetricValue, MetricsRecord, MetricsWriter};
pub use workload::{prepare, prepare_opts, profile_by_name, Workload};
