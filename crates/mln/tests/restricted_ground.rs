//! The restricted ground model: every view's grounding read out of the
//! whole dataset's [`GlobalGround`] must equal [`ground`] over the view
//! field by field — on generated bibliographies with their blocking
//! covers, on hand-made edge cases, and on random worlds — and the
//! matcher must only use a live global grounding for the dataset it
//! was built from, unchanged.

use em_blocking::{block_dataset_with_features, BlockingConfig, SimilarityKernel};
use em_core::cover::Cover;
use em_core::dataset::{Dataset, SimLevel, View};
use em_core::entity::EntityId;
use em_core::evidence::Evidence;
use em_core::matcher::{Matcher, ProbabilisticMatcher};
use em_core::pair::Pair;
use em_core::{RelationId, Score};
use em_datagen::DatasetProfile;
use em_mln::{ground, solve_map, GlobalGround, GroundModel, MlnMatcher, MlnModel, RelationalRule};
use proptest::prelude::*;

fn e(id: u32) -> EntityId {
    EntityId(id)
}

fn rule(relation: RelationId, weight: f64) -> RelationalRule {
    RelationalRule {
        relation,
        weight: Score::from_weight(weight),
    }
}

fn assert_same_model(got: &GroundModel, want: &GroundModel, what: &str) {
    assert_eq!(got.vars, want.vars, "{what}: vars");
    assert_eq!(got.index, want.index, "{what}: index");
    assert_eq!(got.unary, want.unary, "{what}: unary");
    assert_eq!(got.edges, want.edges, "{what}: edges, in order");
    assert_eq!(got.incident, want.incident, "{what}: incident");
}

/// `global` restricted to `view` equals `ground(model, view)`.
fn assert_restriction(global: &GlobalGround, model: &MlnModel, view: &View<'_>) {
    let what = format!("view {:?}", view.members());
    assert_same_model(&global.restrict(view), &ground(model, view), &what);
}

/// Every view of `cover`, plus the full view, restricts exactly; and
/// so does the matcher's `ground_view` while a scorer over `ds` is
/// alive.
fn assert_cover_restricts(ds: &Dataset, cover: &Cover, model: &MlnModel) {
    let global = GlobalGround::build(model, ds);
    assert_restriction(&global, model, &ds.full_view());
    for id in cover.ids() {
        assert_restriction(&global, model, &cover.view(ds, id));
    }
    let matcher = MlnMatcher::new(model.clone());
    let scorer = matcher.global_scorer(ds);
    for id in cover.ids() {
        let view = cover.view(ds, id);
        assert_same_model(
            &matcher.ground_view(&view),
            &ground(model, &view),
            "ground_view",
        );
    }
    drop(scorer);
}

/// A generated bibliography at `scale`, blocked as the benchmark
/// blocks it (canopies with the author-name kernel).
fn generated(profile: DatasetProfile, scale: f64) -> (Dataset, Cover) {
    let mut generated = em_datagen::generate(&profile.scaled(scale).with_seed(7));
    let config = BlockingConfig {
        kernel: SimilarityKernel::AuthorName,
        ..Default::default()
    };
    let out =
        block_dataset_with_features(&mut generated.dataset, &config, Some(&generated.features))
            .expect("blocking builds a total cover");
    (generated.dataset, out.cover)
}

/// The paper's model, and one that adds a second relation whose
/// witnesses are papers (every shared paper is a reflexive bonus) and a
/// second rule over `coauthor`.
fn models(ds: &Dataset) -> [MlnModel; 2] {
    let coauthor = ds.relations.relation_id("coauthor").expect("coauthor");
    let authored = ds.relations.relation_id("authored").expect("authored");
    let paper = MlnModel::paper_model(coauthor);
    let richer = MlnModel {
        relational: vec![
            rule(coauthor, 2.46),
            rule(authored, 1.0),
            rule(coauthor, 0.5),
        ],
        ..paper.clone()
    };
    [paper, richer]
}

#[test]
fn restriction_equals_grounding_on_generated_hepth() {
    let (ds, cover) = generated(DatasetProfile::hepth(), 0.02);
    for model in models(&ds) {
        assert_cover_restricts(&ds, &cover, &model);
    }
}

#[test]
fn restriction_equals_grounding_on_generated_dblp() {
    let (ds, cover) = generated(DatasetProfile::dblp(), 0.05);
    for model in models(&ds) {
        assert_cover_restricts(&ds, &cover, &model);
    }
}

/// The §2.1 example dataset: refs 0–8, `coauthor` tuples, seven
/// candidate pairs.
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

/// Every subset of the example's entities, as a view.
fn all_views(ds: &Dataset) -> impl Iterator<Item = View<'_>> {
    let n = ds.entities.len() as u32;
    (0u32..1 << n).map(move |mask| ds.view((0..n).filter(|i| mask & (1 << i) != 0).map(e)))
}

#[test]
fn restriction_equals_grounding_on_the_edge_cases() {
    let mut ds = example();
    let co = ds.relations.relation_id("coauthor").unwrap();
    let cites = ds.relations.declare("cites", false);
    // A pair whose endpoints witness each other: b2 and b3 coauthor, so
    // (b2, b3) carries a self-witness bonus in every view holding it.
    ds.relations.add_tuple(co, e(3), e(4));
    // A directed relation with a shared witness d1 of c2 and c3; d1 is
    // outside every view without entity 8.
    ds.relations.add_tuple(cites, e(5), e(6));
    ds.relations.add_tuple(cites, e(6), e(8));
    ds.relations.add_tuple(cites, e(8), e(7));
    // A `cites` edge between the lowest variables, (a1, a2) and
    // (b1, b2): in grounding order it follows every `coauthor` edge.
    ds.relations.add_tuple(cites, e(0), e(2));
    ds.relations.add_tuple(cites, e(1), e(3));
    // Two rules over one relation, and rules over two relations (their
    // edges interleave in grounding order).
    let model = MlnModel {
        relational: vec![rule(co, 8.0), rule(cites, 3.0), rule(co, 2.0)],
        ..MlnModel::example_model(co)
    };
    let global = GlobalGround::build(&model, &ds);
    for view in all_views(&ds) {
        assert_restriction(&global, &model, &view);
    }
    // The shared witness d1 is a reflexive bonus of (c1, c2) only while
    // d1 is a member.
    let c_pair = Pair::new(e(5), e(6));
    let with_d1 = global.restrict(&ds.view([e(5), e(6), e(8)]));
    let without = global.restrict(&ds.view([e(5), e(6)]));
    assert!(
        with_d1.unary[with_d1.var_of(c_pair).unwrap() as usize]
            > without.unary[without.var_of(c_pair).unwrap() as usize]
    );

    // A retracted entity: its pairs and tuples are gone from the
    // dataset, so from the global grounding and from every view.
    ds.retract_entity(e(2));
    let global = GlobalGround::build(&model, &ds);
    assert_restriction(&global, &model, &ds.full_view());
    for view in all_views(&ds) {
        let live = view
            .members()
            .iter()
            .copied()
            .filter(|&m| ds.entities.is_live(m));
        assert_restriction(&global, &model, &ds.view(live));
    }
}

/// Two relations (symmetric `coauthor`, directed `cites`), three rules
/// (two over `coauthor`), tuples and candidate pairs from `(a, offset)`
/// draws, then the listed entities retracted.
fn random_world(
    n: u32,
    coauthor: &[(u32, u32)],
    cites: &[(u32, u32)],
    pairs: &[(u32, u32, u8)],
    retract: &[u32],
) -> (Dataset, MlnModel) {
    let mut ds = Dataset::new();
    let ty = ds.entities.intern_type("author_ref");
    for _ in 0..n {
        ds.entities.add_entity(ty);
    }
    let co = ds.relations.declare("coauthor", true);
    let ci = ds.relations.declare("cites", false);
    for (rel, tuples) in [(co, coauthor), (ci, cites)] {
        for &(a, off) in tuples {
            ds.relations.add_tuple(rel, e(a), e((a + off) % n));
        }
    }
    for &(a, off, level) in pairs {
        let b = (a + 1 + off) % n;
        if a != b {
            ds.set_similar(Pair::new(e(a), e(b)), SimLevel(level));
        }
    }
    for &r in retract {
        if ds.entities.is_live(e(r)) {
            ds.retract_entity(e(r));
        }
    }
    let model = MlnModel {
        relational: vec![rule(co, 2.46), rule(ci, 1.5), rule(co, 0.5)],
        ..MlnModel::paper_model(co)
    };
    (ds, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn restriction_equals_grounding_on_random_views(
        (n, coauthor, cites, pairs, retract, views) in (3u32..12).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec((0..n, 0..n), 0..16),
            proptest::collection::vec((0..n, 0..n), 0..10),
            proptest::collection::vec((0..n, 0..n - 1, 1u8..=3), 0..16),
            proptest::collection::vec(0..n, 0..3),
            proptest::collection::vec(proptest::collection::vec(0..n, 0..=(n as usize)), 1..4),
        ))
    ) {
        let (ds, model) = random_world(n, &coauthor, &cites, &pairs, &retract);
        let global = GlobalGround::build(&model, &ds);
        assert_restriction(&global, &model, &ds.full_view());
        for members in views {
            let members = members
                .into_iter()
                .map(e)
                .filter(|&m| ds.entities.is_live(m));
            assert_restriction(&global, &model, &ds.view(members));
        }
    }
}

/// A fresh exact solve of `view`: ground from scratch, no cache, no
/// global grounding.
fn fresh_solve(model: &MlnModel, view: &View<'_>) -> em_core::PairSet {
    solve_map(&ground(model, view), &Evidence::none())
}

#[test]
fn a_dropped_scorer_leaves_no_model_behind() {
    let mut ds = example();
    let co = ds.relations.relation_id("coauthor").unwrap();
    let model = MlnModel::example_model(co);
    let matcher = MlnMatcher::new(model.clone());
    let members = [e(2), e(3), e(4), e(5), e(6), e(7), e(8)];
    let before = {
        let scorer = matcher.global_scorer(&ds);
        let out = matcher.match_view(&ds.view(members), &Evidence::none());
        drop(scorer);
        out
    };
    assert_eq!(before, fresh_solve(&model, &ds.view(members)));
    // Retract the tuple that gives (c1, c2) its shared witness d1: the
    // answer changes, and the session evicts the grounding cache as
    // the trait asks of a caller that mutates its dataset in place.
    assert!(ds.relations.remove_tuple(co, e(5), e(8)));
    matcher.invalidate_caches();
    let after = matcher.match_view(&ds.view(members), &Evidence::none());
    assert_eq!(after, fresh_solve(&model, &ds.view(members)));
    assert_ne!(after, before, "the retraction must change the answer");
}

#[test]
fn a_live_scorer_serves_only_its_own_dataset() {
    let ds = example();
    let co = ds.relations.relation_id("coauthor").unwrap();
    let model = MlnModel::example_model(co);
    let matcher = MlnMatcher::new(model.clone());
    let scorer = matcher.global_scorer(&ds);
    let members = [e(2), e(3), e(4), e(5), e(6), e(7), e(8)];
    let original = matcher.match_view(&ds.view(members), &Evidence::none());
    // A mutated clone lives at another address: its views must ground
    // from the clone, never restrict the original's live model.
    let mut clone = ds.clone();
    assert!(clone.relations.remove_tuple(co, e(5), e(8)));
    for view in all_views(&clone) {
        assert_same_model(
            &matcher.ground_view(&view),
            &ground(&model, &view),
            "view over the clone",
        );
        assert_eq!(
            matcher.match_view(&view, &Evidence::none()),
            fresh_solve(&model, &view)
        );
    }
    assert_ne!(
        matcher.match_view(&clone.view(members), &Evidence::none()),
        original,
        "the clone's retraction must change the answer"
    );
    // The original's views still restrict from its live model.
    assert_eq!(
        matcher.match_view(&ds.view(members), &Evidence::none()),
        original
    );
    drop(scorer);
}
