//! # em — large-scale collective entity matching, behind one front door
//!
//! Umbrella crate for the workspace reproducing *"Large-Scale Collective
//! Entity Matching"* (Rastogi, Dalvi, Garofalakis; PVLDB 4(4), 2011),
//! grown into a session-owning library: callers submit datasets and
//! growth deltas, not orchestration scripts.
//!
//! ## Quickstart
//!
//! ```
//! use em::{Backend, MatcherChoice, Pipeline, Scheme};
//! use em_core::testing::paper_example;
//!
//! // The paper's running example ships with a hand-built total cover,
//! // so this session skips blocking; datasets without a cover get the
//! // canopy blocking pipeline run for them at build() (see
//! // `Pipeline::blocking`).
//! let (dataset, cover, matcher, expected) = paper_example();
//! let mut session = Pipeline::new(dataset)
//!     .cover(cover)
//!     .matcher(MatcherChoice::custom_probabilistic(matcher))
//!     .scheme(Scheme::Mmp)
//!     .backend(Backend::Sequential)
//!     .build()
//!     .expect("coherent configuration");
//! let outcome = session.run();
//! assert_eq!(outcome.matches, expected);
//!
//! // Runs are resumable: a second run warm-starts from the fixpoint.
//! let again = session.run();
//! assert!(again.warm_started);
//! assert_eq!(again.matches, expected);
//! ```
//!
//! The builder validates incoherent combinations into typed
//! [`PipelineError`]s, and [`MatchSession::update`] mutates the dataset
//! in place with a bidirectional [`DatasetDelta`] — adding *and
//! retracting* entities, tuples, and links — re-blocking only the
//! affected region and rolling back exactly the carried warm-start
//! state the retractions invalidate, so the next run is byte-identical
//! to a cold run over the edited dataset (exact matchers). See
//! [`pipeline`] for the full tour and [`delta`] for the mutation
//! language.
//!
//! ## Workspace map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`em_core`] (re-exported as [`core`]) | data model, matcher traits, the framework engines |
//! | [`em_blocking`] | canopy blocking → total covers |
//! | [`em_similarity`] | interned feature cache + similarity kernels |
//! | [`em_mln`], [`em_rules`] | the paper's MLN and RULES matchers |
//! | [`em_shard`] | epoch-fenced sharded runtime (the parallel backend) |
//! | [`em_parallel`] | Table 1 grid simulator, replaying sharded-run epoch traces |
//! | [`em_store`] | `em-store-v1` codec: versioned snapshots + the CRC-guarded WAL behind [`Pipeline::store`](pipeline::Pipeline::store) |
//! | `em-serve` | serving daemon hosting N sessions over a change stream (sits *above* this crate, so no re-export: micro-batching, freshness scheduling, per-session workers, LRU eviction) |
//! | `em-net` | socket transport + query protocol for `em-serve` (Unix-domain / localhost TCP, store-codec framing) |

#![warn(missing_docs)]

pub mod delta;
pub mod growth;
pub mod pipeline;
pub mod store;

pub use delta::{AppliedDelta, ChurnOptions, DatasetDelta, RetractTuple};
pub use growth::{DatasetGrowth, GrowthEntity, GrowthRef, GrowthTuple};
pub use pipeline::{
    Backend, BackendReport, DegradeReason, FaultKind, FaultPlan, MatchOutcome, MatchSession,
    MatcherChoice, Pipeline, PipelineError, RuntimeOptions, Scheme, SessionStatus, SplitPolicy,
    StageTimings, UpdateReport,
};
pub use store::{SessionStore, SessionStoreError};

pub use em_core as core;

// The pieces a Pipeline caller configures or consumes, re-exported so
// `em` alone is enough for most programs.
pub use em_blocking::{BlockingConfig, SimilarityKernel};
pub use em_core::framework::{InvariantChecker, InvariantReport, InvariantViolation, RunStats};
pub use em_core::{Cover, Dataset, EntityId, Evidence, Pair, PairSet, SimLevel};
pub use em_shard::{ShardPlan, ShardReport};
pub use em_similarity::FeatureCache;
