//! The MLN entity matcher: the paper's Type-II black box.
//!
//! [`MlnMatcher`] wires the pieces together: ground the model over the
//! view ([`crate::ground()`]), condition on the evidence, and solve MAP
//! either exactly ([`crate::infer`], the default) or by local search
//! ([`crate::local_search`]). It implements both
//! [`em_core::Matcher`] and [`em_core::ProbabilisticMatcher`], so every
//! scheme — NO-MP, SMP, MMP — can drive it.

use crate::ground::{ground, GlobalGround, GroundModel};
use crate::infer::{solve_map, MapSolver};
use crate::local_search::{solve_local_search, solve_local_search_with_gap, LocalSearchParams};
use crate::model::MlnModel;
use em_core::hash::FxHashMap;
use em_core::{
    Dataset, Evidence, GlobalScorer, Matcher, Pair, PairSet, ProbabilisticMatcher, Score, View,
};
use std::sync::{Arc, Mutex, Weak};

/// Which MAP solver the matcher uses.
#[derive(Debug, Clone, Copy, Default)]
pub enum InferenceBackend {
    /// Exact maximum-weight closure via min-cut (sound, deterministic).
    #[default]
    Exact,
    /// MaxWalkSAT-style stochastic local search (what Alchemy runs;
    /// approximate — voids the framework's soundness guarantee).
    LocalSearch(LocalSearchParams),
}

/// A collective entity matcher backed by a Markov Logic Network.
///
/// Every evaluation needs its view's ground model. While a
/// [`ProbabilisticMatcher::global_scorer`] of this matcher is alive,
/// the model is *restricted* from the scorer's whole-dataset
/// [`GlobalGround`] ([`GlobalGround::restrict`]) instead of grounded
/// from the relations again; without one (NO-MP, SMP, learning, or a
/// view over another dataset) it is grounded with [`ground`].
///
/// The matcher finds the live grounding through a [`Weak`] keyed by the
/// dataset's address. That needs no invalidation: the scorer borrows
/// the dataset immutably for its whole life and a view borrows it for
/// the whole call, so a successful upgrade for the view's dataset
/// address proves the dataset is the one grounded and has not changed
/// since. (A scorer leaked with `mem::forget` would outlive its borrow
/// and void that proof; scorers are dropped, never leaked.)
#[derive(Debug)]
pub struct MlnMatcher {
    model: MlnModel,
    backend: InferenceBackend,
    grounds: Mutex<Grounds>,
}

/// The matcher's grounding state, under one lock.
#[derive(Debug, Default)]
struct Grounds {
    /// Ground models by `(dataset address, members hash)`. An
    /// evaluation grounds its view in `match_view` and reads the same
    /// model again in `probe_entailed` (or `probe_certificate`); across
    /// evaluations the cache barely hits (0.4% of batch-dblp
    /// evaluations even with unlimited capacity), so it is bounded and
    /// cleared when full.
    cache: FxHashMap<(usize, u64), Arc<GroundModel>>,
    /// The grounding of the most recent global scorer, by dataset
    /// address; dead once that scorer is dropped.
    live: Option<(usize, Weak<GlobalGround>)>,
}

/// Cache entries kept before the cache is cleared wholesale: enough
/// for the evaluations in flight (one per shard thread) to find their
/// own model between `match_view` and the probes.
const GROUND_CACHE_CAP: usize = 64;

impl Clone for MlnMatcher {
    fn clone(&self) -> Self {
        Self {
            model: self.model.clone(),
            backend: self.backend,
            grounds: Mutex::default(),
        }
    }
}

impl MlnMatcher {
    /// Matcher with exact inference.
    ///
    /// # Panics
    /// Panics if the model is not supermodular (negative relational
    /// weight): exact closure inference and MMP's soundness both require
    /// supermodularity.
    pub fn new(model: MlnModel) -> Self {
        assert!(
            model.is_supermodular(),
            "MlnMatcher requires a supermodular model (positive relational weights)"
        );
        Self {
            model,
            backend: InferenceBackend::Exact,
            grounds: Mutex::default(),
        }
    }

    /// Matcher with an explicit inference backend.
    pub fn with_backend(model: MlnModel, backend: InferenceBackend) -> Self {
        assert!(model.is_supermodular(), "model must be supermodular");
        Self {
            model,
            backend,
            grounds: Mutex::default(),
        }
    }

    /// The model in use.
    pub fn model(&self) -> &MlnModel {
        &self.model
    }

    /// Ground the model over a view, through the cache: restricted from
    /// the live global grounding of the view's dataset if there is one,
    /// grounded from scratch otherwise. Either way the result equals
    /// [`ground`] over the view.
    pub fn ground_view(&self, view: &View<'_>) -> Arc<GroundModel> {
        let address = view.dataset() as *const Dataset as usize;
        let key = (address, Self::members_hash(view));
        let live = {
            let grounds = self.grounds.lock().expect("grounds lock");
            if let Some(gm) = grounds.cache.get(&key) {
                return Arc::clone(gm);
            }
            grounds
                .live
                .as_ref()
                .filter(|(live_address, _)| *live_address == address)
                .and_then(|(_, global)| global.upgrade())
        };
        // Grounded outside the lock, so concurrent shard threads do not
        // queue behind each other's groundings.
        let gm = Arc::new(match live {
            Some(global) => global.restrict(view),
            None => ground(&self.model, view),
        });
        let mut grounds = self.grounds.lock().expect("grounds lock");
        if grounds.cache.len() >= GROUND_CACHE_CAP {
            grounds.cache.clear();
        }
        grounds.cache.insert(key, Arc::clone(&gm));
        gm
    }

    fn members_hash(view: &View<'_>) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = em_core::hash::FxHasher::default();
        view.members().hash(&mut hasher);
        hasher.finish()
    }
}

impl Matcher for MlnMatcher {
    fn match_view(&self, view: &View<'_>, evidence: &Evidence) -> PairSet {
        let gm = self.ground_view(view);
        match &self.backend {
            InferenceBackend::Exact => solve_map(&gm, evidence),
            InferenceBackend::LocalSearch(params) => solve_local_search(&gm, evidence, params),
        }
    }

    fn probe_entailed(
        &self,
        view: &View<'_>,
        evidence: &Evidence,
        base: &PairSet,
        probes: &[Pair],
    ) -> Vec<Vec<Pair>> {
        match &self.backend {
            InferenceBackend::Exact => {
                // Shared grounding, and the caller's base as the base
                // solution (the trait requires it to be this matcher's
                // output, so no base max-flow runs again); each probe
                // solves only the probed pair's component.
                let gm = self.ground_view(view);
                let solver = MapSolver::from_base(&gm, evidence, base);
                probes
                    .iter()
                    .map(|&p| {
                        let mut delta = solver.probe_delta(p);
                        delta.retain(|&q| q != p);
                        delta
                    })
                    .collect()
            }
            InferenceBackend::LocalSearch(_) => probes
                .iter()
                .map(|&p| {
                    self.match_view(view, &evidence.with_extra_positive(p))
                        .iter()
                        .filter(|&q| !base.contains(q) && q != p)
                        .collect()
                })
                .collect(),
        }
    }

    fn probe_certificate(
        &self,
        view: &View<'_>,
        evidence: &Evidence,
        base: &PairSet,
        probes: &[Pair],
    ) -> Option<Vec<(Vec<Pair>, Score)>> {
        // Only the approximate backend produces gap evidence; the exact
        // backend keeps the default `None` — its incremental replay is
        // justified by component factorization, not by score margins.
        let InferenceBackend::LocalSearch(params) = &self.backend else {
            return None;
        };
        let gm = self.ground_view(view);
        Some(
            probes
                .iter()
                .map(|&p| {
                    let (out, gap) =
                        solve_local_search_with_gap(&gm, &evidence.with_extra_positive(p), params);
                    let entailed = out
                        .iter()
                        .filter(|&q| !base.contains(q) && q != p)
                        .collect();
                    (entailed, gap)
                })
                .collect(),
        )
    }

    fn name(&self) -> &str {
        match self.backend {
            InferenceBackend::Exact => "mln-exact",
            InferenceBackend::LocalSearch(_) => "mln-walksat",
        }
    }

    fn invalidate_caches(&self) {
        // The grounding cache is keyed by (dataset address, member hash);
        // a session that mutates its dataset in place (retraction, links
        // between existing entities) must evict it or identical member
        // lists would replay pre-mutation ground models. The live global
        // grounding needs no eviction: a dataset cannot be mutated while
        // the scorer holding it is alive.
        self.grounds.lock().expect("grounds lock").cache.clear();
    }
}

impl ProbabilisticMatcher for MlnMatcher {
    fn log_score(&self, view: &View<'_>, matches: &PairSet) -> Score {
        self.ground_view(view).score_where(|p| matches.contains(p))
    }

    fn global_scorer<'a>(
        &'a self,
        dataset: &'a Dataset,
    ) -> Box<dyn GlobalScorer + Send + Sync + 'a> {
        let global = Arc::new(GlobalGround::build(&self.model, dataset));
        self.grounds.lock().expect("grounds lock").live =
            Some((dataset as *const Dataset as usize, Arc::downgrade(&global)));
        Box::new(MlnGlobalScorer { global })
    }
}

/// Global score oracle: the model grounded once over the whole dataset,
/// answering deltas through the incident-edge index. While it is alive,
/// its matcher restricts view groundings from the same model.
pub struct MlnGlobalScorer {
    global: Arc<GlobalGround>,
}

impl MlnGlobalScorer {
    /// The underlying global ground model.
    pub fn ground_model(&self) -> &GroundModel {
        self.global.ground_model()
    }
}

impl GlobalScorer for MlnGlobalScorer {
    fn delta(&self, base: &PairSet, added: &[Pair]) -> Score {
        let gm = self.ground_model();
        let mut total = Score::ZERO;
        let mut added_vars: Vec<u32> = Vec::with_capacity(added.len());
        for &p in added {
            if base.contains(p) {
                continue;
            }
            if let Some(v) = gm.var_of(p) {
                added_vars.push(v);
                total += gm.unary[v as usize];
            }
        }
        let in_new = |v: u32| {
            let p = gm.vars[v as usize];
            base.contains(p) || added_vars.contains(&v)
        };
        // Each edge incident to an added var is examined once.
        let mut seen_edges: em_core::hash::FxHashSet<u32> = em_core::hash::FxHashSet::default();
        for &v in &added_vars {
            for &ei in &gm.incident[v as usize] {
                if !seen_edges.insert(ei) {
                    continue;
                }
                let e = &gm.edges[ei as usize];
                let was_fired = e.vars.iter().all(|&u| base.contains(gm.vars[u as usize]));
                if !was_fired && e.vars.iter().all(|&u| in_new(u)) {
                    total += e.weight;
                }
            }
        }
        total
    }

    fn score(&self, matches: &PairSet) -> Score {
        self.ground_model().score_where(|p| matches.contains(p))
    }

    fn affected_pairs(&self, pair: Pair) -> Vec<Pair> {
        let gm = self.ground_model();
        let Some(v) = gm.var_of(pair) else {
            return Vec::new();
        };
        let mut out: Vec<Pair> = gm.incident[v as usize]
            .iter()
            .flat_map(|&ei| gm.edges[ei as usize].vars.iter().copied())
            .filter(|&u| u != v)
            .map(|u| gm.vars[u as usize])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn touched_weight(&self, pair: Pair) -> Score {
        // The total score weight the pair's ground terms command: its
        // unary clause plus every incident relational clause, in
        // absolute value. A delta toggling this pair cannot move any
        // assignment's score by more than that, which is what makes the
        // sum a sound clause footprint for gap certificates.
        let gm = self.ground_model();
        let Some(v) = gm.var_of(pair) else {
            return Score::ZERO;
        };
        let mut total = gm.unary[v as usize].0.abs();
        for &ei in &gm.incident[v as usize] {
            total = total.saturating_add(gm.edges[ei as usize].weight.0.abs());
        }
        Score(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::{Dataset, EntityId, SimLevel};

    fn e(id: u32) -> EntityId {
        EntityId(id)
    }

    fn example() -> Dataset {
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("author_ref");
        for _ in 0..9 {
            ds.entities.add_entity(ty);
        }
        let co = ds.relations.declare("coauthor", true);
        for (x, y) in [(0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8), (6, 8)] {
            ds.relations.add_tuple(co, e(x), e(y));
        }
        for (x, y) in [(0, 1), (2, 3), (2, 4), (3, 4), (5, 6), (5, 7), (6, 7)] {
            ds.set_similar(Pair::new(e(x), e(y)), SimLevel(2));
        }
        ds
    }

    fn matcher(ds: &Dataset) -> MlnMatcher {
        let co = ds.relations.relation_id("coauthor").unwrap();
        MlnMatcher::new(MlnModel::example_model(co))
    }

    #[test]
    fn full_run_matches_paper_output() {
        let ds = example();
        let m = matcher(&ds);
        let out = m.match_view(&ds.full_view(), &Evidence::none());
        assert_eq!(out.len(), 5);
        assert_eq!(m.log_score(&ds.full_view(), &out), Score::from_weight(7.0));
    }

    #[test]
    fn global_scorer_delta_agrees_with_absolute_difference() {
        let ds = example();
        let m = matcher(&ds);
        let scorer = m.global_scorer(&ds);
        let base: PairSet = [Pair::new(e(5), e(6))].into_iter().collect();
        let added = [Pair::new(e(2), e(3)), Pair::new(e(2), e(4))];
        let mut combined = base.clone();
        combined.extend(added);
        assert_eq!(
            scorer.delta(&base, &added),
            scorer.score(&combined) - scorer.score(&base)
        );
    }

    #[test]
    fn delta_ignores_already_based_and_unknown_pairs() {
        let ds = example();
        let m = matcher(&ds);
        let scorer = m.global_scorer(&ds);
        let base: PairSet = [Pair::new(e(5), e(6))].into_iter().collect();
        // Re-adding a based pair is free; a non-candidate pair is ignored.
        assert_eq!(scorer.delta(&base, &[Pair::new(e(5), e(6))]), Score::ZERO);
        assert_eq!(scorer.delta(&base, &[Pair::new(e(0), e(8))]), Score::ZERO);
    }

    #[test]
    fn chain_delta_is_positive_only_jointly() {
        let ds = example();
        let m = matcher(&ds);
        let scorer = m.global_scorer(&ds);
        let empty = PairSet::new();
        let chain = [
            Pair::new(e(0), e(1)),
            Pair::new(e(3), e(4)),
            Pair::new(e(6), e(7)),
        ];
        assert_eq!(scorer.delta(&empty, &chain), Score::from_weight(1.0));
        for p in chain {
            assert!(scorer.delta(&empty, &[p]) < Score::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "supermodular")]
    fn non_supermodular_model_is_rejected() {
        let mut model = MlnModel::paper_model(em_core::RelationId(0));
        model.relational[0].weight = Score(-100);
        let _ = MlnMatcher::new(model);
    }

    #[test]
    fn probe_certificate_gated_by_backend() {
        let ds = example();
        let exact = matcher(&ds);
        let view = ds.full_view();
        let ev = Evidence::none();
        let base = exact.match_view(&view, &ev);
        let probes: Vec<Pair> = view
            .candidate_pairs()
            .iter()
            .map(|&(p, _)| p)
            .filter(|&p| !base.contains(p))
            .collect();
        assert!(!probes.is_empty());
        assert!(
            exact
                .probe_certificate(&view, &ev, &base, &probes)
                .is_none(),
            "exact backend produces no gap evidence"
        );

        let co = ds.relations.relation_id("coauthor").unwrap();
        let walksat = MlnMatcher::with_backend(
            MlnModel::example_model(co),
            InferenceBackend::LocalSearch(LocalSearchParams::default()),
        );
        let base = walksat.match_view(&view, &ev);
        let probes: Vec<Pair> = view
            .candidate_pairs()
            .iter()
            .map(|&(p, _)| p)
            .filter(|&p| !base.contains(p))
            .collect();
        let certified = walksat
            .probe_certificate(&view, &ev, &base, &probes)
            .expect("walksat backend certifies probes");
        assert_eq!(certified.len(), probes.len());
        // The entailed sets must agree with the plain probe path, and
        // every gap must be positive (the accepted assignment won).
        let plain = walksat.probe_entailed(&view, &ev, &base, &probes);
        for ((entailed, gap), expected) in certified.iter().zip(&plain) {
            assert_eq!(entailed, expected);
            assert!(*gap > Score::ZERO, "gap = {gap}");
        }
    }

    #[test]
    fn touched_weight_sums_unary_and_incident_clause_weights() {
        let ds = example();
        let m = matcher(&ds);
        let scorer = m.global_scorer(&ds);
        // Candidate pairs carry their (negative) unary weight plus every
        // incident relational clause's weight, in absolute value. Pair
        // (3,4) sits on two relational edges, (0,1) on one.
        let w = scorer.touched_weight(Pair::new(e(3), e(4)));
        assert!(w > Score::ZERO);
        let fewer = scorer.touched_weight(Pair::new(e(0), e(1)));
        assert!(
            w > fewer,
            "more incident clauses means more touched weight ({w} vs {fewer})"
        );
        // Pairs outside the grounding touch nothing.
        assert_eq!(scorer.touched_weight(Pair::new(e(0), e(8))), Score::ZERO);
    }

    #[test]
    fn local_search_backend_runs() {
        let ds = example();
        let co = ds.relations.relation_id("coauthor").unwrap();
        let m = MlnMatcher::with_backend(
            MlnModel::example_model(co),
            InferenceBackend::LocalSearch(LocalSearchParams::default()),
        );
        let out = m.match_view(&ds.full_view(), &Evidence::none());
        // Local search on this small instance finds the optimum.
        assert_eq!(m.log_score(&ds.full_view(), &out), Score::from_weight(7.0));
        assert_eq!(m.name(), "mln-walksat");
    }
}
