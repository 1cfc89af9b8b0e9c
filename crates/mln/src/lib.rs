//! # em-mln — the Markov Logic Network collective entity matcher
//!
//! A native implementation of the paper's primary black box: the MLN
//! matcher of Singla & Domingos \[18\] with the learned rule set of
//! Appendix B. The score of a match set is the total weight of the ground
//! rules it makes true (body **and** head; §2.1), which for rules with a
//! single `Match` term in the implicant is a supermodular function
//! (Proposition 4): unary weights per candidate pair plus positive
//! hyperedges.
//!
//! Pipeline per matcher invocation:
//!
//! 1. [`ground()`] the model over the view (one variable per candidate
//!    pair; deduplicated groundings following the paper's accounting) —
//!    or, while a global scorer over the view's dataset is alive,
//!    restrict the scorer's whole-dataset [`GlobalGround`] to the view;
//! 2. condition on the evidence (`V+` contracted, `V−` deleted);
//! 3. solve MAP — exactly by max-weight closure / min-cut
//!    ([`infer`], via the in-tree Dinic solver in [`maxflow`]), or
//!    approximately by MaxWalkSAT-style [`local_search`].
//!
//! [`MlnMatcher`] is the [`em_core::ProbabilisticMatcher`] the framework
//! consumes; [`learning`] provides structured-perceptron weight learning
//! (the stand-in for the paper's Alchemy training).

#![warn(missing_docs)]

pub mod ground;
pub mod infer;
pub mod learning;
pub mod local_search;
pub mod matcher;
pub mod maxflow;
pub mod model;

pub use ground::{ground, GlobalGround, GroundEdge, GroundModel};
pub use infer::{solve_map, solve_map_brute_force, MapSolver};
pub use learning::{features, learn_weights, PerceptronConfig};
pub use local_search::{solve_local_search, LocalSearchParams};
pub use matcher::{InferenceBackend, MlnGlobalScorer, MlnMatcher};
pub use model::{MlnModel, RelationalRule};
