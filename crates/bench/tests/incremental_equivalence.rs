//! End-to-end property tests of the evidence-delta engine on random
//! datagen worlds with the real MLN matcher (exact backend).
//!
//! The incremental machinery — epoch-fenced evidence, the dependency
//! index scheduler, per-neighborhood probe memos with isolated-pair
//! elision — must be *invisible* in the outputs: for every generated
//! world, incremental MMP is byte-identical to full-recompute MMP and
//! never issues more conditioned probes. (The sharded backend's
//! equivalence with the sequential schemes is `shard_equivalence.rs`'s.)

use em_blocking::{block_dataset_with_features, BlockingConfig, SimilarityKernel};
use em_core::framework::{mmp_with_order, MmpConfig};
use em_core::{Cover, Dataset, Evidence};
use em_datagen::{generate, DatasetProfile};
use em_mln::{MlnMatcher, MlnModel};
use proptest::prelude::*;

/// Generate and block a tiny world (profile picked by parity, seed free).
fn world(seed: u64) -> (Dataset, Cover, MlnMatcher) {
    let profile = if seed.is_multiple_of(2) {
        DatasetProfile::hepth()
    } else {
        DatasetProfile::dblp()
    };
    let generated = generate(&profile.scaled(0.003).with_seed(seed));
    let mut dataset = generated.dataset;
    let config = BlockingConfig {
        kernel: SimilarityKernel::AuthorName,
        ..Default::default()
    };
    let blocking = block_dataset_with_features(&mut dataset, &config, Some(&generated.features))
        .expect("valid total cover");
    let coauthor = dataset
        .relations
        .relation_id("coauthor")
        .expect("generated datasets declare coauthor");
    let matcher = MlnMatcher::new(MlnModel::paper_model(coauthor));
    (dataset, blocking.cover, matcher)
}

// Engine-hook shims (the plain free functions are deprecated in favour
// of `em::Pipeline`; these property tests target the engines).
fn mmp(
    matcher: &MlnMatcher,
    ds: &Dataset,
    cover: &Cover,
    ev: &Evidence,
    config: &MmpConfig,
) -> em_core::MatchOutput {
    mmp_with_order(matcher, ds, cover, ev, config, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn incremental_mmp_equals_full_recompute_on_datagen_worlds(seed in 0u64..10_000) {
        let (ds, cover, matcher) = world(seed);
        let none = Evidence::none();
        let full_cfg = MmpConfig { incremental: false, ..Default::default() };
        let full = mmp(&matcher, &ds, &cover, &none, &full_cfg);
        let incr = mmp(&matcher, &ds, &cover, &none, &MmpConfig::default());
        prop_assert_eq!(&incr.matches, &full.matches,
            "seed {}: incremental MMP diverged from full recompute", seed);
        prop_assert!(incr.stats.conditioned_probes <= full.stats.conditioned_probes,
            "seed {}: incremental issued more probes ({} > {})",
            seed, incr.stats.conditioned_probes, full.stats.conditioned_probes);
        prop_assert_eq!(
            incr.stats.conditioned_probes + incr.stats.probes_replayed,
            full.stats.conditioned_probes,
            "seed {}: probe ledger must balance", seed);
    }
}
