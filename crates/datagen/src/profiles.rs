//! Dataset profiles mirroring the paper's three evaluation datasets.
//!
//! Reference statistics from §6 of the paper:
//!
//! | dataset  | references | papers    | authors   | character |
//! |----------|-----------:|----------:|----------:|-----------|
//! | HEPTH    | 58,515     | 29,555    | 13,092    | abbreviated names → few, large neighborhoods (13K / 1.3M pairs) |
//! | DBLP     | 50,195     | 19,408    | 21,278    | full names + injected mutations → many small neighborhoods (30K / 0.5M pairs) |
//! | DBLP-BIG | 4,606,712  | 2,303,254 | —         | grid-scale (1.7M neighborhoods / 41.7M pairs) |
//!
//! Profiles default to `scale = 0.1`-ish sizes for test/bench turnaround;
//! `scaled(1.0)` reproduces the paper's counts.

use crate::noise::NoiseParams;
use crate::world::WorldParams;

/// How the `coauthor` relation is materialized from paper teams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CoauthorStyle {
    /// Adjacent author positions only (`t1–t2, t2–t3, …`), as extraction
    /// pipelines that respect author order produce. This is the topology
    /// of the paper's own Figure 1 (a path `a1–b2–c2–d1`, *not* a
    /// clique), and it is what makes evidence chains span neighborhoods —
    /// the regime message passing exists for.
    Chain,
    /// Adjacent author positions plus the closing `t_k–t1` edge. Still a
    /// subgraph of true co-authorships, but 4-author repeat teams now
    /// induce *cycles* in the pair-evidence graph — the all-or-nothing
    /// correlated sets that only maximal message passing recovers under
    /// the learned weights (a path of three weak pairs scores
    /// 3·(−2.28) + 2·2.46 < 0, while a 4-cycle scores
    /// 4·(−2.28) + 4·2.46 > 0).
    #[default]
    Ring,
    /// Full per-paper cliques (the literal "self-join on Authored").
    /// Under cliques, every pair's entire evidence closure lies inside
    /// its one-hop relational boundary, so local runs are already
    /// complete (a reproduction finding).
    Clique,
}

/// A named generation profile: world shape + noise regime.
#[derive(Debug, Clone)]
pub struct DatasetProfile {
    /// Profile name (used in reports).
    pub name: String,
    /// World-generation parameters.
    pub world: WorldParams,
    /// Reference noise parameters.
    pub noise: NoiseParams,
    /// Coauthor materialization topology.
    pub coauthor_style: CoauthorStyle,
}

impl DatasetProfile {
    /// HEPTH-style: heavy first-name abbreviation, KDD-Cup scale at 1.0.
    pub fn hepth() -> Self {
        Self {
            name: "hepth".to_owned(),
            world: WorldParams {
                n_authors: 13_092,
                n_papers: 29_555,
                max_authors_per_paper: 4,
                collaboration_locality: 0.75,
                max_citations_per_paper: 4,
                productivity_exponent: 0.85,
                last_name_pool_fraction: 0.55,
                name_zipf_exponent: 0.55,
                team_repeat: 0.30,
                seed: 0x4E47,
            },
            noise: NoiseParams {
                abbreviate_first: 0.65,
                typo: 0.04,
                swap_order: 0.10,
            },
            coauthor_style: CoauthorStyle::Ring,
        }
    }

    /// DBLP-style: full names with injected mutations.
    pub fn dblp() -> Self {
        Self {
            name: "dblp".to_owned(),
            world: WorldParams {
                n_authors: 21_278,
                n_papers: 19_408,
                max_authors_per_paper: 4,
                collaboration_locality: 0.5,
                max_citations_per_paper: 3,
                productivity_exponent: 0.8,
                last_name_pool_fraction: 0.65,
                name_zipf_exponent: 0.45,
                team_repeat: 0.25,
                seed: 0xDB1,
            },
            noise: NoiseParams {
                abbreviate_first: 0.0,
                typo: 0.20,
                swap_order: 0.05,
            },
            coauthor_style: CoauthorStyle::Ring,
        }
    }

    /// DBLP-BIG: the full-DBLP grid workload.
    pub fn dblp_big() -> Self {
        let mut profile = Self::dblp();
        profile.name = "dblp-big".to_owned();
        profile.world.n_authors = 1_200_000;
        profile.world.n_papers = 2_303_254;
        profile.world.seed = 0xB16;
        profile
    }

    /// Scale the world size by `factor` (noise regime unchanged).
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.world.n_authors = ((self.world.n_authors as f64 * factor) as usize).max(4);
        self.world.n_papers = ((self.world.n_papers as f64 * factor) as usize).max(4);
        self
    }

    /// Override the seed (for multi-trial experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.world.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_counts() {
        let h = DatasetProfile::hepth();
        assert_eq!(h.world.n_authors, 13_092);
        assert_eq!(h.world.n_papers, 29_555);
        let d = DatasetProfile::dblp();
        assert_eq!(d.world.n_authors, 21_278);
        assert!(d.noise.abbreviate_first == 0.0 && d.noise.typo > 0.0);
        let big = DatasetProfile::dblp_big();
        assert_eq!(big.world.n_papers, 2_303_254);
    }

    #[test]
    fn scaling_shrinks_worlds() {
        let s = DatasetProfile::hepth().scaled(0.01);
        assert_eq!(s.world.n_authors, 130);
        assert_eq!(s.world.n_papers, 295);
        // Noise is independent of scale.
        assert_eq!(s.noise.abbreviate_first, 0.65);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = DatasetProfile::dblp().scaled(0.0);
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let a = DatasetProfile::dblp().with_seed(99);
        assert_eq!(a.world.seed, 99);
        assert_eq!(a.world.n_authors, DatasetProfile::dblp().world.n_authors);
    }
}
