//! Generated inputs and the checks shared by every workload.

use em::{Backend, BlockingConfig, MatcherChoice, Pipeline, Scheme, SimilarityKernel};
use em_core::{Dataset, EntityId, Pair, PairSet};
use em_datagen::generator::render;
use em_datagen::{generate_world, DatasetProfile, GroundTruth};

/// A datagen world: the dataset the program receives, and the ground
/// truth only the benchmark sees.
pub struct World {
    /// The generated (unblocked) dataset.
    pub dataset: Dataset,
    /// Reference → true author.
    pub truth: GroundTruth,
}

impl World {
    /// The `profile` (`hepth` or `dblp`) bibliography at `scale`, drawn
    /// from `world_seed`: its structure (authors, papers, teams,
    /// citations) and its noisy references (typos, abbreviations,
    /// name-order swaps).
    pub fn generate(profile: &str, scale: f64, world_seed: u64) -> Self {
        Self::perturbed(profile, scale, world_seed, world_seed, 0.0)
    }

    /// [`World::generate`], with a `share` of the references rendered
    /// again with noise drawn from `seed`: the same bibliography, a
    /// seed-dependent sample of its references spelled differently.
    pub fn perturbed(profile: &str, scale: f64, world_seed: u64, seed: u64, share: f64) -> Self {
        let profile = match profile {
            "hepth" => DatasetProfile::hepth(),
            "dblp" => DatasetProfile::dblp(),
            other => panic!("unknown profile {other:?}"),
        }
        .scaled(scale)
        .with_seed(world_seed);
        let world = generate_world(&profile.world);
        let mut generated = render(&profile, &world);
        if share > 0.0 {
            let other = render(&profile.clone().with_seed(seed), &world);
            let entities = &mut generated.dataset.entities;
            let ty = entities
                .type_id("author_ref")
                .expect("datagen declares author_ref");
            let chosen: Vec<EntityId> = entities
                .ids_of_type(ty)
                .filter(|e| unit_hash(seed, e.0) < share)
                .collect();
            for e in chosen {
                for (attr, value) in other.dataset.entities.attributes(e).iter() {
                    entities.set_attr(e, attr, value);
                }
            }
        }
        Self {
            dataset: generated.dataset,
            truth: generated.truth,
        }
    }

    /// The pipeline every workload runs, over this world's dataset.
    pub fn pipeline(&self, matcher: MatcherChoice, scheme: Scheme) -> Pipeline {
        pipeline(self.dataset.clone(), matcher, scheme)
    }

    /// F1 of `matches` (closed transitively) against the ground truth,
    /// counting only true pairs whose references are both in `dataset`.
    pub fn f1(&self, dataset: &Dataset, matches: &PairSet) -> f64 {
        em_eval::pairwise_metrics(
            matches,
            |p| self.truth.is_match(p),
            self.live_true_pairs(dataset),
        )
        .f1()
    }

    /// Candidate pairs of a blocked `dataset` that are true pairs ÷ true
    /// pairs whose references are both in `dataset`: the recall ceiling
    /// blocking leaves the matcher.
    pub fn blocking_recall(&self, dataset: &Dataset) -> f64 {
        let co_blocked = dataset
            .candidate_pairs()
            .filter(|&(p, _)| self.truth.is_match(p))
            .count();
        co_blocked as f64 / self.live_true_pairs(dataset).max(1) as f64
    }

    /// True pairs whose references are both live in `dataset`. Entity
    /// ids are the world's: churn scripts without re-adds keep them.
    fn live_true_pairs(&self, dataset: &Dataset) -> usize {
        let live = |e: EntityId| dataset.entities.is_live(e);
        self.truth
            .true_pairs()
            .filter(|p| live(p.lo()) && live(p.hi()))
            .count()
    }
}

/// The workloads' configuration: canopy blocking with the author-name
/// kernel, the given matcher and scheme, sequential backend.
pub fn pipeline(dataset: Dataset, matcher: MatcherChoice, scheme: Scheme) -> Pipeline {
    Pipeline::new(dataset)
        .blocking(blocking_config())
        .matcher(matcher)
        .scheme(scheme)
        .backend(Backend::Sequential)
}

/// Canopy blocking with the author-name kernel.
pub fn blocking_config() -> BlockingConfig {
    BlockingConfig {
        kernel: SimilarityKernel::AuthorName,
        ..Default::default()
    }
}

/// A uniform draw in `[0, 1)` keyed by `(seed, x)` (splitmix64).
fn unit_hash(seed: u64, x: u32) -> f64 {
    let mut z = seed ^ (u64::from(x) << 32 | u64::from(x)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a over the sorted pairs: a short, stable name for a match set.
pub fn digest(pairs: &[Pair]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(pairs.len() as u32);
    for p in pairs {
        eat(p.lo().0);
        eat(p.hi().0);
    }
    format!("{h:016x}")
}

/// One digest naming several digests, in order.
pub fn digest_of(digests: &[String]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in digests.join(",").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
