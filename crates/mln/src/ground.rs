//! Grounding: instantiate the MLN rules over a view's candidate pairs.
//!
//! The result is a [`GroundModel`]: one boolean variable per candidate
//! pair, a unary weight per variable (from the `similar` rules plus any
//! reflexive relational groundings), and positive hyperedges (from
//! relational groundings whose body `equals` atom is itself a candidate
//! pair).
//!
//! Grounding identity follows the paper's weight accounting in §2.1
//! ("R2 fires two times" for the three-pair chain): a ground instance is
//! identified by its *set of equals atoms* together with its *set of
//! witness relation tuples*, so the head/body orientation of the same
//! witness tuples does not double-count, while genuinely different
//! witness tuples between the same pairs do count separately.

use crate::model::MlnModel;
use em_core::hash::{FxHashMap, FxHashSet};
use em_core::{EntityId, Pair, Score, View};

/// A ground hyperedge: `weight` is gained when every variable in `vars`
/// is matched. Always `weight > 0` for supermodular models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundEdge {
    /// Variable indices (into [`GroundModel::vars`]), ascending.
    pub vars: Vec<u32>,
    /// Positive weight.
    pub weight: Score,
}

/// The grounded model over one view.
#[derive(Debug, Clone, Default)]
pub struct GroundModel {
    /// Candidate pairs of the view, ascending (variable id = position).
    pub vars: Vec<Pair>,
    /// Pair → variable id.
    pub index: FxHashMap<Pair, u32>,
    /// Unary weight per variable (similar-rule weight + reflexive
    /// relational bonuses).
    pub unary: Vec<Score>,
    /// Positive hyperedges.
    pub edges: Vec<GroundEdge>,
    /// Variable → incident edge ids.
    pub incident: Vec<Vec<u32>>,
}

impl GroundModel {
    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Variable id of a pair, if it is a variable of this model.
    #[inline]
    pub fn var_of(&self, pair: Pair) -> Option<u32> {
        self.index.get(&pair).copied()
    }

    /// Total score of a complete assignment given as a set membership
    /// test over the model's variables.
    pub fn score_where(&self, is_matched: impl Fn(Pair) -> bool) -> Score {
        let mut total = Score::ZERO;
        let mut selected = vec![false; self.vars.len()];
        for (i, &p) in self.vars.iter().enumerate() {
            if is_matched(p) {
                selected[i] = true;
                total += self.unary[i];
            }
        }
        for e in &self.edges {
            if e.vars.iter().all(|&v| selected[v as usize]) {
                total += e.weight;
            }
        }
        total
    }
}

/// Witness-set key for grounding deduplication: the relation tuples used
/// by a ground instance, as unordered entity pairs, sorted.
type WitnessKey = [Pair; 2];

fn witness_key(a: Pair, b: Pair) -> WitnessKey {
    if a <= b {
        [a, b]
    } else {
        [b, a]
    }
}

/// Ground `model` over `view`.
///
/// Each view member's witness list is built once per relational rule
/// and shared by every candidate pair containing the member.
pub fn ground(model: &MlnModel, view: &View<'_>) -> GroundModel {
    ground_recording(model, view, |_, _, _| {})
}

/// [`ground`], reporting every reflexive-witness bonus to `on_bonus` as
/// `(variable, witness, weight)` in grounding order.
fn ground_recording(
    model: &MlnModel,
    view: &View<'_>,
    mut on_bonus: impl FnMut(u32, EntityId, Score),
) -> GroundModel {
    let candidate_pairs = view.sorted_candidate_pairs();
    let vars: Vec<Pair> = candidate_pairs.iter().map(|&(p, _)| p).collect();
    let index: FxHashMap<Pair, u32> = vars
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u32))
        .collect();
    let mut unary: Vec<Score> = candidate_pairs
        .iter()
        .map(|&(_, level)| model.sim_weight(level))
        .collect();

    let relations = &view.dataset().relations;
    let mut edges: Vec<GroundEdge> = Vec::new();
    // Deduplication sets, keyed per paper semantics.
    let mut seen_unary: FxHashSet<(u32, u16, WitnessKey)> = FxHashSet::default();
    let mut seen_binary: FxHashSet<(u32, u32, u16, WitnessKey)> = FxHashSet::default();
    let mut witnesses: FxHashMap<EntityId, Vec<EntityId>> = FxHashMap::default();

    for rule in &model.relational {
        let rel = rule.relation;
        // Witnesses: relation neighbors in either direction, restricted
        // to the view. Symmetric relations already report both ways.
        let around = |e: EntityId| -> Vec<EntityId> {
            let mut out: Vec<EntityId> = relations
                .neighbors_out(rel, e)
                .iter()
                .chain(relations.neighbors_in(rel, e).iter())
                .copied()
                .filter(|&c| c != e && view.contains(c))
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        witnesses.clear();
        for p in &vars {
            for e in [p.lo(), p.hi()] {
                witnesses.entry(e).or_insert_with(|| around(e));
            }
        }
        for (pv, &p) in vars.iter().enumerate() {
            let pv = pv as u32;
            let (e1, e2) = (p.lo(), p.hi());
            for &c1 in &witnesses[&e1] {
                for &c2 in &witnesses[&e2] {
                    let w1 = Pair::new(e1, c1);
                    let w2 = Pair::new(e2, c2);
                    let wkey = witness_key(w1, w2);
                    if c1 == c2 {
                        // Reflexive body atom equals(c, c): always true.
                        if seen_unary.insert((pv, rel.0, wkey)) {
                            unary[pv as usize] += rule.weight;
                            on_bonus(pv, c1, rule.weight);
                        }
                        continue;
                    }
                    let q = Pair::new(c1, c2);
                    if q == p {
                        // Body atom is the head pair itself: fires iff the
                        // pair is matched — a unary bonus.
                        if seen_unary.insert((pv, rel.0, wkey)) {
                            unary[pv as usize] += rule.weight;
                        }
                        continue;
                    }
                    let Some(qv) = index.get(&q).copied() else {
                        continue; // equals(c1, c2) can never hold
                    };
                    let key = (pv.min(qv), pv.max(qv), rel.0, wkey);
                    if seen_binary.insert(key) {
                        edges.push(GroundEdge {
                            vars: vec![pv.min(qv), pv.max(qv)],
                            weight: rule.weight,
                        });
                    }
                }
            }
        }
    }

    let incident = incident_lists(vars.len(), &edges);
    GroundModel {
        vars,
        index,
        unary,
        edges,
        incident,
    }
}

/// Variable → ids of the edges incident to it, ascending.
fn incident_lists(var_count: usize, edges: &[GroundEdge]) -> Vec<Vec<u32>> {
    let mut incident: Vec<Vec<u32>> = vec![Vec::new(); var_count];
    for (ei, e) in edges.iter().enumerate() {
        for &v in &e.vars {
            incident[v as usize].push(ei as u32);
        }
    }
    incident
}

/// The model grounded once over a whole dataset, kept in a form every
/// view's ground model can be *restricted* from instead of re-derived
/// (a materialized view over the dataset, read through a selection).
///
/// A view's grounding is a restriction of the global one:
///
/// * its variables are the global variables whose pair lies in the
///   view (both endpoints members);
/// * its edges are the global edges whose variables are all in the
///   view — an edge's witnesses are the endpoints of its variables, so
///   they are members too — in global edge order (the view grounds the
///   same `(rule, head pair, witness)` sequence, minus what it cannot
///   see, and deduplicates by the same keys);
/// * its unary weight is the similar-rule weight and the self-witness
///   bonus (the head pair's endpoints witness each other; both are
///   members of every view holding the pair), plus each
///   reflexive-witness bonus whose shared witness is a member.
///
/// So the global grounding records, per variable, its reflexive
/// bonuses with their witness entity, and the rest of its unary
/// weight. [`GlobalGround::restrict`] equals [`ground`] over the same
/// view field by field, provided the dataset has not changed since
/// [`GlobalGround::build`].
#[derive(Debug, Clone)]
pub struct GlobalGround {
    /// The whole dataset's ground model.
    model: GroundModel,
    /// Per variable: the similar-rule weight plus its self-witness
    /// bonuses — the part of its unary weight every view sees.
    fixed_unary: Vec<Score>,
    /// `bonus_start[v]..bonus_start[v + 1]` indexes variable `v`'s
    /// reflexive-witness bonuses in `bonuses`.
    bonus_start: Vec<u32>,
    /// Reflexive-witness bonuses as `(witness, weight)`, grouped by
    /// variable, in grounding order within a variable.
    bonuses: Vec<(EntityId, Score)>,
}

impl GlobalGround {
    /// Ground `model` over every live entity of `dataset`.
    pub fn build(model: &MlnModel, dataset: &em_core::Dataset) -> Self {
        let mut found: Vec<(u32, EntityId, Score)> = Vec::new();
        let model = ground_recording(model, &dataset.full_view(), |v, c, w| {
            found.push((v, c, w));
        });
        // Group the bonuses by variable; the stable sort keeps each
        // variable's bonuses in grounding order.
        found.sort_by_key(|&(v, _, _)| v);
        let n = model.var_count();
        let mut bonus_start = vec![0u32; n + 1];
        let mut fixed_unary = model.unary.clone();
        for &(v, _, w) in &found {
            bonus_start[v as usize + 1] += 1;
            fixed_unary[v as usize] = fixed_unary[v as usize] - w;
        }
        for v in 0..n {
            bonus_start[v + 1] += bonus_start[v];
        }
        let bonuses = found.into_iter().map(|(_, c, w)| (c, w)).collect();
        Self {
            model,
            fixed_unary,
            bonus_start,
            bonuses,
        }
    }

    /// The whole dataset's ground model.
    pub fn ground_model(&self) -> &GroundModel {
        &self.model
    }

    fn bonuses_of(&self, v: u32) -> &[(EntityId, Score)] {
        let v = v as usize;
        &self.bonuses[self.bonus_start[v] as usize..self.bonus_start[v + 1] as usize]
    }

    /// The ground model of `view`, restricted from this one: equal to
    /// [`ground`] over `view` when `view` is over the dataset this
    /// grounding was built from, unchanged since.
    ///
    /// # Panics
    /// Panics if a candidate pair of `view` is not a variable of this
    /// grounding (the view's dataset is not the one grounded).
    pub fn restrict(&self, view: &View<'_>) -> GroundModel {
        let global = &self.model;
        let candidate_pairs = view.sorted_candidate_pairs();
        let vars: Vec<Pair> = candidate_pairs.iter().map(|&(p, _)| p).collect();
        // Global variable of each view variable. Both sides are sorted
        // by pair, so this list ascends too and a binary search maps a
        // global variable back to its view variable.
        let global_of: Vec<u32> = vars
            .iter()
            .map(|&p| {
                global
                    .var_of(p)
                    .expect("view pair missing from the dataset's ground model")
            })
            .collect();
        let unary: Vec<Score> = global_of
            .iter()
            .map(|&g| {
                let mut u = self.fixed_unary[g as usize];
                for &(c, w) in self.bonuses_of(g) {
                    if view.contains(c) {
                        u += w;
                    }
                }
                u
            })
            .collect();
        // Each global edge is visited once, from its lowest variable,
        // and kept iff every one of its variables is in the view.
        let mut kept: Vec<u32> = Vec::new();
        for &g in &global_of {
            for &ei in &global.incident[g as usize] {
                let e = &global.edges[ei as usize];
                if e.vars[0] == g && e.vars.iter().all(|u| global_of.binary_search(u).is_ok()) {
                    kept.push(ei);
                }
            }
        }
        kept.sort_unstable();
        let edges: Vec<GroundEdge> = kept
            .iter()
            .map(|&ei| {
                let e = &global.edges[ei as usize];
                GroundEdge {
                    vars: e
                        .vars
                        .iter()
                        .map(|u| global_of.binary_search(u).expect("kept edge") as u32)
                        .collect(),
                    weight: e.weight,
                }
            })
            .collect();
        let index: FxHashMap<Pair, u32> = vars
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u32))
            .collect();
        let incident = incident_lists(vars.len(), &edges);
        GroundModel {
            vars,
            index,
            unary,
            edges,
            incident,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MlnModel, RelationalRule};
    use em_core::{Dataset, SimLevel};
    use proptest::prelude::*;

    fn e(id: u32) -> EntityId {
        EntityId(id)
    }

    /// The per-pair-witness grounding [`ground`] must reproduce field by
    /// field: it rebuilds both endpoints' witness lists for every
    /// candidate pair and every relational rule.
    fn ground_reference(model: &MlnModel, view: &View<'_>) -> GroundModel {
        let candidate_pairs = view.candidate_pairs();
        let mut vars: Vec<Pair> = candidate_pairs.iter().map(|&(p, _)| p).collect();
        vars.sort_unstable();
        let index: FxHashMap<Pair, u32> = vars
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u32))
            .collect();
        let mut unary = vec![Score::ZERO; vars.len()];
        for &(p, level) in &candidate_pairs {
            unary[index[&p] as usize] += model.sim_weight(level);
        }

        let relations = &view.dataset().relations;
        let mut edges: Vec<GroundEdge> = Vec::new();
        // Deduplication sets, keyed per paper semantics.
        let mut seen_unary: FxHashSet<(u32, u16, WitnessKey)> = FxHashSet::default();
        let mut seen_binary: FxHashSet<(u32, u32, u16, WitnessKey)> = FxHashSet::default();

        for rule in &model.relational {
            let rel = rule.relation;
            for &p in &vars {
                let pv = index[&p];
                let (e1, e2) = (p.lo(), p.hi());
                // Witnesses: relation neighbors in either direction, restricted
                // to the view. Symmetric relations already report both ways.
                let around = |e: EntityId| -> Vec<EntityId> {
                    let mut out: Vec<EntityId> = relations
                        .neighbors_out(rel, e)
                        .iter()
                        .chain(relations.neighbors_in(rel, e).iter())
                        .copied()
                        .filter(|&c| c != e && view.contains(c))
                        .collect();
                    out.sort_unstable();
                    out.dedup();
                    out
                };
                let c1s = around(e1);
                let c2s = around(e2);
                for &c1 in &c1s {
                    for &c2 in &c2s {
                        let w1 = Pair::new(e1, c1);
                        let w2 = Pair::new(e2, c2);
                        let wkey = witness_key(w1, w2);
                        if c1 == c2 {
                            // Reflexive body atom equals(c, c): always true.
                            if seen_unary.insert((pv, rel.0, wkey)) {
                                unary[pv as usize] += rule.weight;
                            }
                            continue;
                        }
                        let q = Pair::new(c1, c2);
                        if q == p {
                            // Body atom is the head pair itself: fires iff the
                            // pair is matched — a unary bonus.
                            if seen_unary.insert((pv, rel.0, wkey)) {
                                unary[pv as usize] += rule.weight;
                            }
                            continue;
                        }
                        let Some(qv) = index.get(&q).copied() else {
                            continue; // equals(c1, c2) can never hold
                        };
                        let key = (pv.min(qv), pv.max(qv), rel.0, wkey);
                        if seen_binary.insert(key) {
                            edges.push(GroundEdge {
                                vars: vec![pv.min(qv), pv.max(qv)],
                                weight: rule.weight,
                            });
                        }
                    }
                }
            }
        }

        let mut incident: Vec<Vec<u32>> = vec![Vec::new(); vars.len()];
        for (ei, e) in edges.iter().enumerate() {
            for &v in &e.vars {
                incident[v as usize].push(ei as u32);
            }
        }
        GroundModel {
            vars,
            index,
            unary,
            edges,
            incident,
        }
    }

    /// The §2.1 example dataset (same ids as `em_core::testing`).
    fn example() -> Dataset {
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("author_ref");
        for _ in 0..9 {
            ds.entities.add_entity(ty);
        }
        let co = ds.relations.declare("coauthor", true);
        for (x, y) in [
            (0, 3), // a1 - b2
            (1, 4), // a2 - b3
            (2, 5), // b1 - c1
            (3, 6), // b2 - c2
            (4, 7), // b3 - c3
            (5, 8), // c1 - d1
            (6, 8), // c2 - d1
        ] {
            ds.relations.add_tuple(co, e(x), e(y));
        }
        for (x, y) in [(0, 1), (2, 3), (2, 4), (3, 4), (5, 6), (5, 7), (6, 7)] {
            ds.set_similar(Pair::new(e(x), e(y)), SimLevel(2));
        }
        ds
    }

    #[test]
    fn example_grounding_reproduces_paper_accounting() {
        let ds = example();
        let co = ds.relations.relation_id("coauthor").unwrap();
        let model = MlnModel::example_model(co);
        let gm = ground(&model, &ds.full_view());
        assert_eq!(gm.var_count(), 7);
        // Four binary groundings: {a,b-chain}, {b-chain,c-chain},
        // {(b1,b2),(c1,c2)}, {(b1,b3),(c1,c3)}.
        assert_eq!(gm.edges.len(), 4);
        // (c1, c2) gets the reflexive d1 bonus: −5 + 8 = +3.
        let c_pair = gm.var_of(Pair::new(e(5), e(6))).unwrap();
        assert_eq!(gm.unary[c_pair as usize], Score::from_weight(3.0));
        // Other pairs keep the bare −5.
        let a_pair = gm.var_of(Pair::new(e(0), e(1))).unwrap();
        assert_eq!(gm.unary[a_pair as usize], Score::from_weight(-5.0));
    }

    #[test]
    fn score_where_matches_paper_values() {
        let ds = example();
        let co = ds.relations.relation_id("coauthor").unwrap();
        let model = MlnModel::example_model(co);
        let gm = ground(&model, &ds.full_view());
        // Empty set scores zero.
        assert_eq!(gm.score_where(|_| false), Score::ZERO);
        // The chain {(a1,a2), (b2,b3), (c2,c3)} scores −15 + 16 = +1.
        let chain: Vec<Pair> = vec![
            Pair::new(e(0), e(1)),
            Pair::new(e(3), e(4)),
            Pair::new(e(6), e(7)),
        ];
        assert_eq!(
            gm.score_where(|p| chain.contains(&p)),
            Score::from_weight(1.0)
        );
        // Everything §2.1 matches: +7 total.
        let all: Vec<Pair> = vec![
            Pair::new(e(0), e(1)),
            Pair::new(e(2), e(3)),
            Pair::new(e(3), e(4)),
            Pair::new(e(5), e(6)),
            Pair::new(e(6), e(7)),
        ];
        assert_eq!(
            gm.score_where(|p| all.contains(&p)),
            Score::from_weight(7.0)
        );
    }

    #[test]
    fn view_restriction_drops_out_of_view_bonuses() {
        let ds = example();
        let co = ds.relations.relation_id("coauthor").unwrap();
        let model = MlnModel::example_model(co);
        // C2 of Figure 2: b and c entities, but no d1.
        let view = ds.view([e(2), e(3), e(4), e(5), e(6), e(7)]);
        let gm = ground(&model, &view);
        let c_pair = gm.var_of(Pair::new(e(5), e(6))).unwrap();
        assert_eq!(
            gm.unary[c_pair as usize],
            Score::from_weight(-5.0),
            "without d1 in view, (c1, c2) has no reflexive bonus"
        );
    }

    #[test]
    fn incident_lists_are_consistent() {
        let ds = example();
        let co = ds.relations.relation_id("coauthor").unwrap();
        let gm = ground(&MlnModel::example_model(co), &ds.full_view());
        for (v, edges) in gm.incident.iter().enumerate() {
            for &ei in edges {
                assert!(gm.edges[ei as usize].vars.contains(&(v as u32)));
            }
        }
        let incident_total: usize = gm.incident.iter().map(Vec::len).sum();
        let edge_total: usize = gm.edges.iter().map(|e| e.vars.len()).sum();
        assert_eq!(incident_total, edge_total);
    }

    #[test]
    fn multiple_shared_witnesses_stack() {
        // Two refs share two distinct coauthor entities: two reflexive
        // bonuses.
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("author_ref");
        for _ in 0..4 {
            ds.entities.add_entity(ty);
        }
        let co = ds.relations.declare("coauthor", true);
        ds.relations.add_tuple(co, e(0), e(2));
        ds.relations.add_tuple(co, e(1), e(2));
        ds.relations.add_tuple(co, e(0), e(3));
        ds.relations.add_tuple(co, e(1), e(3));
        ds.set_similar(Pair::new(e(0), e(1)), SimLevel(1));
        let model = MlnModel::paper_model(co);
        let gm = ground(&model, &ds.full_view());
        let v = gm.var_of(Pair::new(e(0), e(1))).unwrap();
        // −2.28 + 2·2.46 = +2.64.
        assert_eq!(gm.unary[v as usize], Score::from_weight(-2.28 + 2.0 * 2.46));
    }

    fn assert_same_grounding(model: &MlnModel, view: &View<'_>) {
        let fast = ground(model, view);
        let reference = ground_reference(model, view);
        assert_eq!(fast.vars, reference.vars, "vars");
        assert_eq!(fast.index, reference.index, "index");
        assert_eq!(fast.unary, reference.unary, "unary");
        assert_eq!(fast.edges, reference.edges, "edges, in order");
        assert_eq!(fast.incident, reference.incident, "incident");
    }

    /// Two relations (symmetric `coauthor`, directed `cites`), three
    /// rules (two over `coauthor`), tuples and candidate pairs from
    /// `(a, offset)` draws, then the listed entities retracted.
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
        let rule = |relation, weight| RelationalRule {
            relation,
            weight: Score::from_weight(weight),
        };
        let model = MlnModel {
            relational: vec![rule(co, 2.46), rule(ci, 1.5), rule(co, 0.5)],
            ..MlnModel::paper_model(co)
        };
        (ds, model)
    }

    #[test]
    fn grounding_matches_the_per_pair_reference_on_the_edge_cases() {
        let mut ds = example();
        let co = ds.relations.relation_id("coauthor").unwrap();
        let cites = ds.relations.declare("cites", false);
        // A witness that is the head pair itself: b2 and b3 coauthor.
        ds.relations.add_tuple(co, e(3), e(4));
        // A directed relation: c1 → c2 only, and a reflexive cites
        // witness d1 of c2 and c3.
        ds.relations.add_tuple(cites, e(5), e(6));
        ds.relations.add_tuple(cites, e(6), e(8));
        ds.relations.add_tuple(cites, e(8), e(7));
        let model = MlnModel {
            relational: vec![
                RelationalRule {
                    relation: co,
                    weight: Score::from_weight(8.0),
                },
                RelationalRule {
                    relation: cites,
                    weight: Score::from_weight(3.0),
                },
            ],
            ..MlnModel::example_model(co)
        };
        assert_same_grounding(&model, &ds.full_view());
        // d1 outside the view: the reflexive witness of (c1, c2) and
        // (c2, c3) is out of reach.
        assert_same_grounding(&model, &ds.view([e(2), e(3), e(4), e(5), e(6), e(7)]));
        // Retract b1: its pairs and tuples disappear.
        ds.retract_entity(e(2));
        assert_same_grounding(&model, &ds.full_view());
        assert_same_grounding(&model, &ds.view([e(3), e(4), e(5), e(6), e(8)]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn grounding_matches_the_per_pair_reference_on_random_views(
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
            assert_same_grounding(&model, &ds.full_view());
            for members in views {
                let members = members
                    .into_iter()
                    .map(e)
                    .filter(|&m| ds.entities.is_live(m));
                assert_same_grounding(&model, &ds.view(members));
            }
        }
    }
}
