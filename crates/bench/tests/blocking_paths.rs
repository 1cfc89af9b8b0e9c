//! The two canopy loops must block a generated world identically.
//!
//! `em_bench::prepare` blocks with `block_dataset_with_features` (the
//! one-shot canopy pass); `Pipeline::build` blocks with
//! `block_dataset_churn` under an empty canopy memo (the incremental
//! pass, seeding the memo). On HEPTH- and DBLP-shaped worlds both must
//! produce the same cover — neighborhood order and members — and the
//! same `(pair, level)` annotations.

use em_blocking::{
    block_dataset_churn, block_dataset_with_features, BlockingConfig, CanopyMemo, SimilarityKernel,
};
use em_core::hash::FxHashMap;
use em_core::{Cover, Dataset, Pair, PairCache, SimLevel};
use em_datagen::{generate, DatasetProfile};

fn annotations(dataset: &Dataset) -> Vec<(Pair, SimLevel)> {
    let mut pairs: Vec<(Pair, SimLevel)> = dataset.candidate_pairs().collect();
    pairs.sort_unstable();
    pairs
}

fn neighborhoods(cover: &Cover) -> Vec<Vec<em_core::EntityId>> {
    cover.ids().map(|id| cover.members(id).to_vec()).collect()
}

fn check_paths_agree(profile: DatasetProfile) {
    let generated = generate(&profile);
    let config = BlockingConfig {
        kernel: SimilarityKernel::AuthorName,
        ..Default::default()
    };

    let mut one_shot = generated.dataset.clone();
    let cold = block_dataset_with_features(&mut one_shot, &config, Some(&generated.features))
        .expect("one-shot blocking yields a total cover");

    let mut seeded = generated.dataset.clone();
    let protected: FxHashMap<Pair, SimLevel> = seeded.candidate_pairs().collect();
    let mut memo = CanopyMemo::new();
    let churn = block_dataset_churn(
        &mut seeded,
        &config,
        &generated.features,
        &PairCache::new(),
        &mut memo,
        &[],
        false,
        &protected,
    )
    .expect("incremental blocking yields a total cover");

    assert!(
        cold.candidate_pairs > 0,
        "{}: a non-trivial world",
        profile.name
    );
    assert_eq!(cold.canopies, churn.output.canopies, "{}", profile.name);
    assert_eq!(
        cold.candidate_pairs, churn.output.candidate_pairs,
        "{}",
        profile.name
    );
    assert_eq!(
        annotations(&one_shot),
        annotations(&seeded),
        "{}",
        profile.name
    );
    assert_eq!(
        neighborhoods(&cold.cover),
        neighborhoods(&churn.output.cover),
        "{}: cover order and members",
        profile.name
    );
    assert!(!memo.is_empty(), "the incremental pass seeds its memo");
}

#[test]
fn hepth_world_blocks_the_same_on_both_canopy_loops() {
    check_paths_agree(DatasetProfile::hepth().scaled(0.02).with_seed(7));
}

#[test]
fn dblp_world_blocks_the_same_on_both_canopy_loops() {
    check_paths_agree(DatasetProfile::dblp().scaled(0.05).with_seed(7));
}
