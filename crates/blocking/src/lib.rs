//! # em-blocking — canopy blocking and total-cover construction
//!
//! The paper constructs its covers by "first constructing a total cover
//! over the Similar relation using the Canopies algorithm [McCallum,
//! Nigam, Ungar; KDD 2000], and then taking the boundary of each
//! neighborhood with respect to other relations" (§4). This crate is that
//! pipeline:
//!
//! 1. [`inverted_index`] — an n-gram inverted index providing the *cheap*
//!    distance canopies require;
//! 2. [`canopy`] — deterministic canopy clustering with loose/tight
//!    thresholds;
//! 3. similarity annotation — an exact kernel scores every pair within a
//!    canopy, discretized into the dataset's candidate-pair levels. The
//!    kernel is configurable ([`SimilarityKernel`]): raw Jaro-Winkler
//!    (the paper's stated choice and the default), structure-aware
//!    author-name scoring, or TF-IDF cosine;
//! 4. [`cover`] — assembling a total [`em_core::Cover`]: canopies +
//!    singleton residuals + relational boundary expansion, with exact
//!    duplicates dropped;
//! 5. connected-component splitting of oversized neighborhoods (keeps
//!    the cover total while shrinking `k`), the last step of [`cover`].
//!
//! The one-call entry point is [`pipeline::block_dataset`].

#![warn(missing_docs)]

pub mod canopy;
pub mod cover;
pub mod inverted_index;
mod partition;
pub mod pipeline;

pub use canopy::{
    canopies, canopies_cached, canopies_cached_incremental, CanopyDelta, CanopyMemo, CanopyParams,
    ChangedCanopy,
};
pub use inverted_index::InvertedIndex;
pub use pipeline::{
    block_dataset, block_dataset_churn, block_dataset_session, block_dataset_with_features,
    AnnotationChange, BlockingConfig, BlockingOutput, ChurnBlockingOutput, SimilarityKernel,
};
