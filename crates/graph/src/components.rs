//! Union–find and connected components.
//!
//! [`forest_of`] is the one component pass: the served connectivity
//! artifact and the exact labels every check compares it against both
//! come from it, so they share one label convention (the smallest vertex
//! of each component). [`is_spanning_forest`] is the verification target
//! for the AGM spanning-forest sketch (Theorem 10): a correct forest must
//! connect exactly the pairs connected in the input graph.

use crate::graph::Graph;
use crate::ids::{Edge, Vertex};

/// Disjoint-set union with path compression and union by rank.
///
/// # Examples
///
/// ```
/// use dsg_graph::components::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(!uf.union(1, 0)); // already joined
/// assert!(uf.connected(0, 1));
/// assert_eq!(uf.num_components(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// The representative of `x`'s set.
    pub fn find(&mut self, x: Vertex) -> Vertex {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Joins the sets of `a` and `b`; returns whether they were distinct.
    pub fn union(&mut self, a: Vertex, b: Vertex) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: Vertex, b: Vertex) -> bool {
        self.find(a) == self.find(b)
    }

    /// Current number of disjoint sets.
    pub fn num_components(&self) -> usize {
        self.components
    }
}

/// A spanning forest of an edge list, with the component structure it
/// induces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Forest {
    /// The edges that joined two components, in input order.
    pub edges: Vec<Edge>,
    /// Component label per vertex: the smallest vertex of its component
    /// (two vertices are connected iff their labels are equal).
    pub labels: Vec<Vertex>,
    /// Number of connected components (isolated vertices included).
    pub num_components: usize,
}

/// One union–find pass over `edges` on `n` vertices. Every edge that
/// joins two components becomes a forest edge, so a sorted input gives a
/// deterministic forest.
pub fn forest_of<I: IntoIterator<Item = Edge>>(n: usize, edges: I) -> Forest {
    let mut uf = UnionFind::new(n);
    let edges: Vec<Edge> = edges
        .into_iter()
        .filter(|e| uf.union(e.u(), e.v()))
        .collect();
    let mut labels = vec![0 as Vertex; n];
    let mut smallest = vec![Vertex::MAX; n];
    for v in 0..n as Vertex {
        let r = uf.find(v) as usize;
        if smallest[r] == Vertex::MAX {
            smallest[r] = v;
        }
        labels[v as usize] = smallest[r];
    }
    Forest {
        edges,
        labels,
        num_components: uf.num_components(),
    }
}

/// Labels each vertex with a component id (the smallest vertex in its
/// component).
pub fn connected_components(g: &Graph) -> Vec<Vertex> {
    forest_of(g.num_vertices(), g.edges().iter().copied()).labels
}

/// Number of connected components.
pub fn num_components(g: &Graph) -> usize {
    let mut uf = UnionFind::new(g.num_vertices());
    for e in g.edges() {
        uf.union(e.u(), e.v());
    }
    uf.num_components()
}

/// Checks that `forest` is a spanning forest of `g`: acyclic, a subgraph of
/// `g`, and connecting exactly the pairs `g` connects.
pub fn is_spanning_forest(g: &Graph, forest: &[Edge]) -> bool {
    let edge_set = g.edge_set();
    let mut uf = UnionFind::new(g.num_vertices());
    for e in forest {
        if !edge_set.contains(e) {
            return false; // not a subgraph
        }
        if !uf.union(e.u(), e.v()) {
            return false; // cycle
        }
    }
    // Same connectivity relation as g: every g-edge's endpoints must be
    // joined by the forest (the converse holds because the forest is a
    // subgraph).
    let mut forest_uf = UnionFind::new(g.num_vertices());
    for e in forest {
        forest_uf.union(e.u(), e.v());
    }
    for e in g.edges() {
        if !forest_uf.connected(e.u(), e.v()) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn union_find_components() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_components(), 5);
        uf.union(0, 1);
        uf.union(2, 3);
        assert_eq!(uf.num_components(), 3);
        assert!(uf.connected(1, 0));
        assert!(!uf.connected(0, 2));
        uf.union(1, 3);
        assert!(uf.connected(0, 2));
    }

    #[test]
    fn component_labels() {
        let g = Graph::from_edges(5, [Edge::new(0, 1), Edge::new(3, 4)]);
        let labels = connected_components(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(labels[2], 2);
        assert_eq!(num_components(&g), 3);
    }

    #[test]
    fn spanning_forest_accepts_tree() {
        let g = gen::cycle(5);
        // Remove one edge of the cycle: a valid spanning tree.
        let forest: Vec<Edge> = g.edges()[1..].to_vec();
        assert!(is_spanning_forest(&g, &forest));
    }

    #[test]
    fn spanning_forest_rejects_cycle() {
        let g = gen::cycle(5);
        assert!(!is_spanning_forest(&g, g.edges()));
    }

    #[test]
    fn spanning_forest_rejects_disconnecting() {
        let g = gen::path(4);
        let forest = vec![Edge::new(0, 1)]; // leaves 2,3 disconnected
        assert!(!is_spanning_forest(&g, &forest));
    }

    #[test]
    fn spanning_forest_rejects_non_subgraph() {
        let g = gen::path(4);
        let forest = vec![Edge::new(0, 3)];
        assert!(!is_spanning_forest(&g, &forest));
    }

    #[test]
    fn forest_of_keeps_joining_edges_and_smallest_labels() {
        let g = Graph::from_edges(
            6,
            [
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(1, 2),
                Edge::new(3, 5),
            ],
        );
        let f = forest_of(6, g.edges().iter().copied());
        assert_eq!(
            f.edges,
            vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(3, 5)]
        );
        assert_eq!(f.labels, vec![0, 0, 0, 3, 4, 3]);
        assert_eq!(f.num_components, 3);
        assert!(is_spanning_forest(&g, &f.edges));
    }

    #[test]
    fn forest_of_disconnected_graph() {
        let g = Graph::from_edges(6, [Edge::new(0, 1), Edge::new(1, 2), Edge::new(4, 5)]);
        let forest = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(4, 5)];
        assert!(is_spanning_forest(&g, &forest));
    }
}
