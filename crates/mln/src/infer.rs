//! Exact MAP inference for supermodular ground models via
//! maximum-weight closure.
//!
//! The ground model's score is `Σ_v u_v·x_v + Σ_e w_e·∏_{v∈e} x_v` with
//! `w_e > 0`. Maximizing it is a *project selection* problem: each
//! hyperedge is a "project" with profit `w_e` that requires all its
//! variables; each variable has profit `u_v` (possibly negative). Project
//! selection is a maximum-weight closure instance, solved exactly by a
//! min-cut:
//!
//! * source → node with capacity `profit` for positive-profit nodes,
//! * node → sink with capacity `−profit` for negative-profit nodes,
//! * edge-node → member-variable with capacity ∞ (precedence).
//!
//! The *maximal* min-cut source side (complement of the nodes that reach
//! the sink in the residual graph) realizes Definition 5's "largest
//! most-likely set" tie-break: for supermodular objectives the maximizers
//! form a lattice, and the maximal source side is their union.
//!
//! Evidence is folded in before the cut: `V−` variables are deleted along
//! with their edges; `V+` variables are contracted (removed from edges,
//! and edges they fully satisfy become unary bonuses on the remainder).
//!
//! The reduced problem factorizes over the connected components of the
//! reduced hyperedges, and so does the cut. Two components' closure
//! networks share only the source and the sink; after max-flow the
//! source cannot reach the sink in the residual graph, so no residual
//! path crosses from one component to another. Each component is
//! therefore cut on its own network, and the union of the per-component
//! maximal source sides is the maximal source side of the whole network.
//! A variable that no reduced hyperedge touches is a component of its
//! own, selected iff its profit is non-negative.

use crate::ground::GroundModel;
use crate::maxflow::MaxFlow;
use em_core::{Evidence, Pair, PairSet, Score};

/// Exact MAP assignment of `gm` conditioned on `evidence`.
///
/// Returns the matched pairs: the selected free variables plus the
/// positive-evidence pairs that are variables of the model.
pub fn solve_map(gm: &GroundModel, evidence: &Evidence) -> PairSet {
    MapSolver::new(gm, evidence).base_solution()
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Free,
    ForcedTrue,
    ForcedFalse,
}

/// Marks a free variable that no reduced hyperedge touches.
const UNCOUPLED: u32 = u32::MAX;

/// One connected component of the reduced hyperedges.
#[derive(Default)]
struct Component {
    /// Member free indices, ascending; a member's position here is its
    /// local index.
    vars: Vec<u32>,
    /// Reduced profit per member, by local index.
    profit: Vec<Score>,
    /// Reduced hyperedges over local indices.
    edges: Vec<(Vec<u32>, Score)>,
}

impl Component {
    /// Maximal optimum of this component's closure problem, by local
    /// index, with member `forced` (if any) pinned to the source side.
    fn solve(&self, forced: Option<usize>) -> Vec<bool> {
        let k = self.vars.len();
        let source = k + self.edges.len();
        let sink = source + 1;
        let mut net = MaxFlow::new(sink + 1);
        for (i, &p) in self.profit.iter().enumerate() {
            if p > Score::ZERO {
                net.add_edge(source, i, p.0);
            } else if p < Score::ZERO {
                net.add_edge(i, sink, -p.0);
            }
        }
        for (ei, (vars, w)) in self.edges.iter().enumerate() {
            let enode = k + ei;
            net.add_edge(source, enode, w.0);
            for &v in vars {
                net.add_edge(enode, v as usize, MaxFlow::INF);
            }
        }
        if let Some(v) = forced {
            net.add_edge(source, v, MaxFlow::INF);
        }
        net.max_flow(source, sink);
        let mut side = net.max_source_side(sink);
        side.truncate(k);
        side
    }
}

/// Union-find root of `x`, with path halving.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// A solved conditioned MAP problem that supports cheap *probes*:
/// `E(C, V+ ∪ {p})` for many `p` against the same view and evidence.
///
/// `COMPUTEMAXIMAL` (Algorithm 2) issues one conditioned matcher call per
/// undecided candidate pair; re-solving the whole view from scratch makes
/// that the dominant cost of MMP. Forcing `p` true can only change
/// decisions inside `p`'s component (see the module docs), so a probe
/// solves that component's network alone with `p` pinned to the source
/// side, and a probe of a variable no hyperedge touches needs no flow
/// computation at all. A probe's cost is independent of the size of the
/// rest of the view.
pub struct MapSolver<'a> {
    gm: &'a GroundModel,
    state: Vec<State>,
    /// Free variable ids (into `gm.vars`), ascending.
    free: Vec<u32>,
    /// var id → free index (or `u32::MAX`).
    free_index: Vec<u32>,
    /// free index → component id, or [`UNCOUPLED`].
    component_of: Vec<u32>,
    components: Vec<Component>,
    /// Maximal optimum of the base problem, per free index.
    base_selected: Vec<bool>,
}

impl<'a> MapSolver<'a> {
    /// Reduce `gm` under `evidence`, split it into components and solve
    /// each one.
    pub fn new(gm: &'a GroundModel, evidence: &Evidence) -> Self {
        let mut solver = Self::reduce(gm, evidence);
        for comp in &solver.components {
            for (&fi, selected) in comp.vars.iter().zip(comp.solve(None)) {
                solver.base_selected[fi as usize] = selected;
            }
        }
        solver
    }

    /// [`MapSolver::new`] without the base solves: `base` must be
    /// [`solve_map`]`(gm, evidence)`, and its free variables are taken as
    /// the base optimum. Probes then answer exactly as
    /// [`MapSolver::new`]'s would, and building the solver runs no
    /// max-flow — what a caller that already solved the base (MMP's
    /// `COMPUTEMAXIMAL` after the evaluation's matcher call) saves.
    pub fn from_base(gm: &'a GroundModel, evidence: &Evidence, base: &PairSet) -> Self {
        let mut solver = Self::reduce(gm, evidence);
        for (fi, &v) in solver.free.iter().enumerate() {
            solver.base_selected[fi] = base.contains(gm.vars[v as usize]);
        }
        solver
    }

    /// Reduce `gm` under `evidence` and split it into components; the
    /// base optimum is filled in only for uncoupled variables (selected
    /// iff their profit is non-negative).
    fn reduce(gm: &'a GroundModel, evidence: &Evidence) -> Self {
        let n = gm.var_count();
        let mut state = vec![State::Free; n];
        for (i, &p) in gm.vars.iter().enumerate() {
            if evidence.negative.contains(p) {
                state[i] = State::ForcedFalse;
            } else if evidence.positive.contains(p) {
                state[i] = State::ForcedTrue;
            }
        }

        let mut free: Vec<u32> = Vec::new();
        let mut free_index = vec![u32::MAX; n];
        for (i, &s) in state.iter().enumerate() {
            if matches!(s, State::Free) {
                free_index[i] = free.len() as u32;
                free.push(i as u32);
            }
        }

        // Reduce edges under the evidence.
        let mut profit: Vec<Score> = free.iter().map(|&v| gm.unary[v as usize]).collect();
        let mut reduced: Vec<(Vec<u32>, Score)> = Vec::new(); // over free indices
        'edges: for e in &gm.edges {
            let mut remaining: Vec<u32> = Vec::with_capacity(e.vars.len());
            for &v in &e.vars {
                match state[v as usize] {
                    State::ForcedFalse => continue 'edges,
                    State::ForcedTrue => {}
                    State::Free => remaining.push(free_index[v as usize]),
                }
            }
            match remaining.len() {
                0 => {} // fires unconditionally; constant offset
                1 => profit[remaining[0] as usize] += e.weight,
                _ => reduced.push((remaining, e.weight)),
            }
        }

        // Label the components of the reduced hyperedges (union-find).
        let nf = free.len();
        let mut parent: Vec<u32> = (0..nf as u32).collect();
        let mut coupled = vec![false; nf];
        for (vars, _) in &reduced {
            let root = find(&mut parent, vars[0]);
            for &v in vars {
                coupled[v as usize] = true;
                let r = find(&mut parent, v);
                parent[r as usize] = root;
            }
        }
        let mut component_of = vec![UNCOUPLED; nf];
        let mut component_of_root = vec![UNCOUPLED; nf];
        let mut local = vec![0u32; nf];
        let mut components: Vec<Component> = Vec::new();
        for fi in (0..nf).filter(|&fi| coupled[fi]) {
            let root = find(&mut parent, fi as u32) as usize;
            if component_of_root[root] == UNCOUPLED {
                component_of_root[root] = components.len() as u32;
                components.push(Component::default());
            }
            let c = component_of_root[root];
            component_of[fi] = c;
            let comp = &mut components[c as usize];
            local[fi] = comp.vars.len() as u32;
            comp.vars.push(fi as u32);
            comp.profit.push(profit[fi]);
        }
        for (mut vars, w) in reduced {
            let c = component_of[vars[0] as usize] as usize;
            for v in &mut vars {
                *v = local[*v as usize];
            }
            components[c].edges.push((vars, w));
        }

        let base_selected: Vec<bool> = profit.iter().map(|&p| p >= Score::ZERO).collect();

        Self {
            gm,
            state,
            free,
            free_index,
            component_of,
            components,
            base_selected,
        }
    }

    fn collect(&self, selected: impl Fn(usize) -> bool) -> PairSet {
        let mut out = PairSet::new();
        for (fi, &v) in self.free.iter().enumerate() {
            if selected(fi) {
                out.insert(self.gm.vars[v as usize]);
            }
        }
        for (i, &s) in self.state.iter().enumerate() {
            if matches!(s, State::ForcedTrue) {
                out.insert(self.gm.vars[i]);
            }
        }
        out
    }

    /// The base MAP solution `E(C, V+, V−)`.
    pub fn base_solution(&self) -> PairSet {
        self.collect(|fi| self.base_selected[fi])
    }

    /// The pairs that forcing `extra` true *adds* beyond the base
    /// solution: `E(C, V+ ∪ {extra}) − E(C, V+)`, including `extra`
    /// itself (empty when `extra` is already decided), ascending.
    ///
    /// Solves only `extra`'s component, with `extra` pinned to the
    /// source side; every other component keeps its base decision.
    pub fn probe_delta(&self, extra: Pair) -> Vec<Pair> {
        let Some(&v) = self.gm.index.get(&extra) else {
            return Vec::new();
        };
        match self.state[v as usize] {
            State::ForcedTrue | State::ForcedFalse => return Vec::new(),
            State::Free => {}
        }
        let fi = self.free_index[v as usize];
        if self.base_selected[fi as usize] {
            return Vec::new(); // already in the maximal optimum
        }
        let c = self.component_of[fi as usize];
        if c == UNCOUPLED {
            // No hyperedge touches this variable: forcing it true cannot
            // change any other decision.
            return vec![extra];
        }
        let comp = &self.components[c as usize];
        let forced = comp
            .vars
            .binary_search(&fi)
            .expect("member of its component");
        comp.vars
            .iter()
            .zip(comp.solve(Some(forced)))
            .filter(|&(&fi, selected)| selected && !self.base_selected[fi as usize])
            .map(|(&fi, _)| self.gm.vars[self.free[fi as usize] as usize])
            .collect()
    }

    /// `E(C, V+ ∪ {extra}, V−)`: the full probed solution
    /// (base ∪ [`MapSolver::probe_delta`]).
    ///
    /// Pairs that are not free variables fall back to the base solution
    /// (forced-false pairs stay excluded: negative evidence wins; unknown
    /// pairs are out of scope for the view).
    pub fn probe(&self, extra: Pair) -> PairSet {
        let delta = self.probe_delta(extra);
        let mut out = self.base_solution();
        out.extend(delta);
        if self.gm.index.contains_key(&extra)
            && !matches!(
                self.state[*self.gm.index.get(&extra).expect("checked") as usize],
                State::ForcedFalse
            )
        {
            out.insert(extra);
        }
        out
    }
}

/// Score of an assignment under the ground model (no conditioning):
/// convenience wrapper over [`GroundModel::score_where`].
pub fn score_assignment(gm: &GroundModel, matches: &PairSet) -> Score {
    gm.score_where(|p| matches.contains(p))
}

/// Brute-force MAP (exponential; ≤ 20 variables) used to validate the
/// min-cut solver in tests and available for debugging.
pub fn solve_map_brute_force(gm: &GroundModel, evidence: &Evidence) -> PairSet {
    let free: Vec<u32> = (0..gm.var_count() as u32)
        .filter(|&v| {
            let p = gm.vars[v as usize];
            !evidence.positive.contains(p) && !evidence.negative.contains(p)
        })
        .collect();
    assert!(free.len() <= 20, "brute force limited to 20 free vars");
    let forced: Vec<Pair> = gm
        .vars
        .iter()
        .copied()
        .filter(|p| evidence.positive.contains(*p))
        .collect();

    let mut best_score = None;
    let mut best_union = 0u64;
    for mask in 0..(1u64 << free.len()) {
        let mut set: PairSet = forced.iter().copied().collect();
        for (i, &v) in free.iter().enumerate() {
            if mask & (1 << i) != 0 {
                set.insert(gm.vars[v as usize]);
            }
        }
        let s = score_assignment(gm, &set);
        match best_score {
            None => {
                best_score = Some(s);
                best_union = mask;
            }
            Some(bs) if s > bs => {
                best_score = Some(s);
                best_union = mask;
            }
            Some(bs) if s == bs => best_union |= mask,
            _ => {}
        }
    }
    // For supermodular models the union of maximizers is a maximizer.
    let mut out: PairSet = forced.into_iter().collect();
    for (i, &v) in free.iter().enumerate() {
        if best_union & (1 << i) != 0 {
            out.insert(gm.vars[v as usize]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::ground;
    use crate::model::MlnModel;
    use em_core::{Dataset, EntityId, SimLevel};

    fn e(id: u32) -> EntityId {
        EntityId(id)
    }

    fn example() -> (Dataset, MlnModel) {
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
        let co = ds.relations.relation_id("coauthor").unwrap();
        (ds, MlnModel::example_model(co))
    }

    #[test]
    fn exact_map_reproduces_paper_optimum() {
        let (ds, model) = example();
        let gm = ground(&model, &ds.full_view());
        let map = solve_map(&gm, &Evidence::none());
        let expected: PairSet = [
            Pair::new(e(0), e(1)),
            Pair::new(e(2), e(3)),
            Pair::new(e(3), e(4)),
            Pair::new(e(5), e(6)),
            Pair::new(e(6), e(7)),
        ]
        .into_iter()
        .collect();
        assert_eq!(map, expected);
        assert_eq!(score_assignment(&gm, &map), Score::from_weight(7.0));
    }

    #[test]
    fn exact_matches_brute_force_on_example() {
        let (ds, model) = example();
        let gm = ground(&model, &ds.full_view());
        assert_eq!(
            solve_map(&gm, &Evidence::none()),
            solve_map_brute_force(&gm, &Evidence::none())
        );
    }

    #[test]
    fn conditioning_on_positive_evidence() {
        let (ds, model) = example();
        // C1 of Figure 2: {a1, a2, b2, b3}.
        let view = ds.view([e(0), e(1), e(3), e(4)]);
        let gm = ground(&model, &view);
        // Unconditioned: matching both pairs is −10 + 8 < 0 ⇒ empty.
        assert!(solve_map(&gm, &Evidence::none()).is_empty());
        // Given (b2, b3): (a1, a2) becomes −5 + 8 > 0 ⇒ matched.
        let ev = Evidence::positive([Pair::new(e(3), e(4))].into_iter().collect());
        let out = solve_map(&gm, &ev);
        assert!(out.contains(Pair::new(e(0), e(1))));
        assert!(out.contains(Pair::new(e(3), e(4))), "evidence echoed");
    }

    #[test]
    fn conditioning_on_negative_evidence() {
        let (ds, model) = example();
        let gm = ground(&model, &ds.full_view());
        let ev = Evidence::new(
            PairSet::new(),
            [Pair::new(e(5), e(6))].into_iter().collect(),
        );
        let out = solve_map(&gm, &ev);
        assert!(!out.contains(Pair::new(e(5), e(6))));
        // (b1, b2) depended on (c1, c2); it must drop too.
        assert!(!out.contains(Pair::new(e(2), e(3))));
        // The chain is independent and survives.
        assert!(out.contains(Pair::new(e(0), e(1))));
        assert_eq!(out, solve_map_brute_force(&gm, &ev));
    }

    #[test]
    fn maximal_tie_break_prefers_larger_set() {
        // A single pair with unary exactly zero: matching and not matching
        // tie; the largest most-likely set matches it.
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("t");
        ds.entities.add_entity(ty);
        ds.entities.add_entity(ty);
        ds.set_similar(Pair::new(e(0), e(1)), SimLevel(1));
        let model = MlnModel {
            sim_weights: [Score::ZERO; 4],
            relational: vec![],
        };
        let gm = ground(&model, &ds.full_view());
        let out = solve_map(&gm, &Evidence::none());
        assert!(out.contains(Pair::new(e(0), e(1))));
    }

    #[test]
    fn empty_model_yields_empty_output() {
        let ds = Dataset::new();
        let model = MlnModel {
            sim_weights: [Score::ZERO; 4],
            relational: vec![],
        };
        let gm = ground(&model, &ds.full_view());
        assert!(solve_map(&gm, &Evidence::none()).is_empty());
    }
}
