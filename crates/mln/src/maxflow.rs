//! Dinic's maximum-flow algorithm over integer capacities.
//!
//! MAP inference for the supermodular MLN model reduces to one
//! maximum-weight closure problem per connected component of the
//! evidence-reduced ground model (see [`crate::infer`]), each solved by a
//! min-cut on its own small network. Dinic's algorithm (BFS level graph +
//! blocking flows) runs in `O(V²E)` generally and much faster on the
//! shallow, sparse networks the closure reduction produces.
//!
//! Capacities are `i64` (fixed-point milli-weights), with
//! [`MaxFlow::INF`] for the closure's precedence edges.

/// A directed flow edge (paired with its reverse).
#[derive(Debug, Clone)]
struct Edge {
    to: u32,
    /// Remaining capacity.
    cap: i64,
    /// Index of the reverse edge in the global edge list.
    rev: u32,
}

/// Max-flow network and solver.
#[derive(Debug, Clone)]
pub struct MaxFlow {
    /// adjacency: node → indices into `edges`
    graph: Vec<Vec<u32>>,
    edges: Vec<Edge>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl MaxFlow {
    /// Effectively infinite capacity (room to sum without overflow).
    pub const INF: i64 = i64::MAX / 4;

    /// Network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Self {
            graph: vec![Vec::new(); n],
            edges: Vec::new(),
            level: vec![0; n],
            iter: vec![0; n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Add a directed edge `from → to` with capacity `cap ≥ 0`.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64) {
        debug_assert!(cap >= 0, "negative capacity");
        let e1 = self.edges.len() as u32;
        let e2 = e1 + 1;
        self.edges.push(Edge {
            to: to as u32,
            cap,
            rev: e2,
        });
        self.edges.push(Edge {
            to: from as u32,
            cap: 0,
            rev: e1,
        });
        self.graph[from].push(e1);
        self.graph[to].push(e2);
    }

    fn bfs(&mut self, source: usize, sink: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut queue = std::collections::VecDeque::new();
        self.level[source] = 0;
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            for &ei in &self.graph[u] {
                let e = &self.edges[ei as usize];
                if e.cap > 0 && self.level[e.to as usize] < 0 {
                    self.level[e.to as usize] = self.level[u] + 1;
                    queue.push_back(e.to as usize);
                }
            }
        }
        self.level[sink] >= 0
    }

    fn dfs(&mut self, u: usize, sink: usize, pushed: i64) -> i64 {
        if u == sink {
            return pushed;
        }
        while self.iter[u] < self.graph[u].len() {
            let ei = self.graph[u][self.iter[u]] as usize;
            let (to, cap) = (self.edges[ei].to as usize, self.edges[ei].cap);
            if cap > 0 && self.level[to] == self.level[u] + 1 {
                let d = self.dfs(to, sink, pushed.min(cap));
                if d > 0 {
                    self.edges[ei].cap -= d;
                    let rev = self.edges[ei].rev as usize;
                    self.edges[rev].cap += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0
    }

    /// Compute the maximum flow from `source` to `sink`.
    pub fn max_flow(&mut self, source: usize, sink: usize) -> i64 {
        let mut flow = 0i64;
        while self.bfs(source, sink) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(source, sink, Self::INF);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }

    /// After `max_flow`, the *maximal* source side of a minimum cut: the
    /// complement of the nodes that can reach `sink` in the residual
    /// graph. This realizes the "largest most-likely set" tie-break of
    /// Definition 5 when used for closure problems.
    pub fn max_source_side(&self, sink: usize) -> Vec<bool> {
        // Reverse residual reachability from the sink: v can reach sink if
        // some residual edge v → u exists with u already reaching sink.
        // Residual edge v → u exists iff edges[ei].cap > 0 for the edge
        // ei: v → u; we walk backwards using the paired reverse edges.
        let mut reaches = vec![false; self.graph.len()];
        let mut stack = vec![sink];
        reaches[sink] = true;
        while let Some(u) = stack.pop() {
            for &ei in &self.graph[u] {
                // Edge u → w with reverse w → u; residual w → u has
                // capacity edges[rev].cap... we need edges INTO u with
                // residual capacity. The reverse edge of (u → w) is
                // (w → u); its residual capacity is edges[ei].rev's cap.
                let rev = self.edges[ei as usize].rev as usize;
                let w = self.edges[ei as usize].to as usize;
                if self.edges[rev].cap > 0 && !reaches[w] {
                    reaches[w] = true;
                    stack.push(w);
                }
            }
        }
        reaches.iter().map(|&r| !r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_two_path_network() {
        // s → a → t (cap 3), s → b → t (cap 2).
        let mut net = MaxFlow::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        net.add_edge(s, a, 3);
        net.add_edge(a, t, 3);
        net.add_edge(s, b, 2);
        net.add_edge(b, t, 2);
        assert_eq!(net.max_flow(s, t), 5);
    }

    #[test]
    fn bottleneck_limits_flow() {
        // s → a (10), a → b (1), b → t (10).
        let mut net = MaxFlow::new(4);
        net.add_edge(0, 1, 10);
        net.add_edge(1, 2, 1);
        net.add_edge(2, 3, 10);
        assert_eq!(net.max_flow(0, 3), 1);
    }

    #[test]
    fn classic_crlf_network() {
        // A standard 6-node example with answer 23.
        let mut net = MaxFlow::new(6);
        let edges = [
            (0, 1, 16),
            (0, 2, 13),
            (1, 2, 10),
            (2, 1, 4),
            (1, 3, 12),
            (3, 2, 9),
            (2, 4, 14),
            (4, 3, 7),
            (3, 5, 20),
            (4, 5, 4),
        ];
        for (u, v, c) in edges {
            net.add_edge(u, v, c);
        }
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn disconnected_sink_has_zero_flow() {
        let mut net = MaxFlow::new(3);
        net.add_edge(0, 1, 5);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn max_source_side_keeps_zero_capacity_ties() {
        // s → a (1), a → t (1), plus node b connected to t with 0
        // demand: b can go on either side of a minimum cut, and the
        // maximal source side includes it.
        let mut net = MaxFlow::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        net.add_edge(s, a, 1);
        net.add_edge(a, t, 1);
        net.add_edge(b, t, 0); // zero-capacity edge: no residual to t
        let _ = net.max_flow(s, t);
        let max_side = net.max_source_side(t);
        assert!(max_side[b]);
        assert!(max_side[s] && !max_side[t]);
    }

    #[test]
    fn large_capacities_do_not_overflow() {
        let mut net = MaxFlow::new(3);
        net.add_edge(0, 1, MaxFlow::INF);
        net.add_edge(1, 2, MaxFlow::INF);
        assert_eq!(net.max_flow(0, 2), MaxFlow::INF);
    }
}
