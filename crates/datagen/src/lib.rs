//! # em-datagen — synthetic bibliographies with ground truth
//!
//! The paper evaluates on HEPTH (KDD Cup 2003), a mutated DBLP snapshot,
//! and full DBLP ("DBLP-BIG"). None of those are redistributable with
//! this repository, so this crate generates synthetic bibliographic
//! worlds with the same statistical signature (the paper's §6 dataset
//! statistics, tabulated in [`profiles`]):
//!
//! * a latent [`world`] of true authors (Zipf-shared names, Zipf
//!   productivity, community-structured coauthorship, backward
//!   citations);
//! * a [`noise`] model rendering each paper-author slot as a noisy
//!   *reference* — abbreviation-heavy for HEPTH, mutation-only for DBLP
//!   (the paper's own DBLP is also synthetic noise over clean data);
//! * [`profiles`] with the paper's exact reference/paper/author counts
//!   at `scale = 1.0`;
//! * a [`generator`] producing an [`em_core::Dataset`] (entities,
//!   `authored`/`coauthor`/`cites` relations) plus [`GroundTruth`].

#![warn(missing_docs)]

pub mod generator;
pub mod ground_truth;
pub mod names;
pub mod noise;
pub mod profiles;
pub mod world;

pub use generator::{generate, GeneratedDataset};
pub use ground_truth::GroundTruth;
pub use noise::NoiseParams;
pub use profiles::{CoauthorStyle, DatasetProfile};
pub use world::{generate_world, World, WorldParams};
