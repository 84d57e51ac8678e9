//! Approximate minimum spanning forests from AGM sketches.
//!
//! One of the headline AGM applications the paper lists ("minimum spanning
//! trees"): layer the weight range geometrically, keep one connectivity
//! sketch per prefix class `w ≤ (1+γ)^i`, and assemble a forest greedily
//! from the cheapest layer up. The resulting forest weighs at most
//! `(1+γ)` times the true MSF (each edge's weight is known to its class
//! upper bound), computable entirely from linear sketches of a dynamic
//! weighted stream.

use crate::forest::AgmSketch;
use dsg_graph::components::UnionFind;
use dsg_graph::{Edge, Vertex};
use dsg_util::SpaceUsage;

/// A sketch bank supporting `(1+γ)`-approximate MSF extraction from a
/// dynamic weighted stream.
///
/// # Examples
///
/// ```
/// use dsg_agm::msf::MsfSketch;
/// use dsg_graph::{gen, mst};
///
/// let g = gen::with_random_weights(&gen::complete(12), 1.0, 8.0, 3);
/// let mut sk = MsfSketch::new(12, 0.25, 1.0, 8.0, 42);
/// for (e, w) in g.edges() {
///     sk.update(*e, *w, 1);
/// }
/// let approx = sk.forest();
/// let (_, exact) = mst::minimum_spanning_forest(&g);
/// let approx_weight: f64 = approx.iter().map(|(_, w)| w).sum();
/// assert!(approx_weight <= exact * 1.25 + 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct MsfSketch {
    n: usize,
    gamma: f64,
    w_min: f64,
    /// `layers[i]` sketches the subgraph of edges with weight
    /// `≤ w_min (1+γ)^{i+1}` (prefix classes).
    layers: Vec<AgmSketch>,
}

impl MsfSketch {
    /// Creates the bank for weights in `[w_min, w_max]` with rounding
    /// parameter `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if the weight range or `gamma` is invalid, or `n < 2`.
    pub fn new(n: usize, gamma: f64, w_min: f64, w_max: f64, seed: u64) -> Self {
        assert!(n >= 2, "need at least two vertices");
        assert!(gamma > 0.0, "gamma must be positive");
        assert!(w_min > 0.0 && w_max >= w_min, "invalid weight range");
        let classes = ((w_max / w_min).ln() / (1.0 + gamma).ln()).floor() as usize + 1;
        let tree = dsg_hash::SeedTree::new(seed ^ 0x4D53_4653_4B45_5431); // "MSFSKET1"
        let layers = (0..classes)
            .map(|i| AgmSketch::new(n, tree.child(i as u64).seed()))
            .collect();
        Self {
            n,
            gamma,
            w_min,
            layers,
        }
    }

    /// Number of weight classes (sketch layers).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The class index of weight `w` (clamped to the declared range).
    fn class_of(&self, w: f64) -> usize {
        let c = ((w / self.w_min).ln() / (1.0 + self.gamma).ln()).floor();
        (c.max(0.0) as usize).min(self.layers.len() - 1)
    }

    /// The upper rounding bound of class `c`.
    fn class_weight(&self, c: usize) -> f64 {
        self.w_min * (1.0 + self.gamma).powi(c as i32 + 1)
    }

    /// Applies a weighted edge update: the edge joins every prefix layer
    /// from its class upward (so layer `i` holds all edges of weight
    /// `≤ w_min(1+γ)^{i+1}`).
    ///
    /// # Panics
    ///
    /// Panics if the weight is not positive and finite.
    pub fn update(&mut self, edge: Edge, weight: f64, delta: i128) {
        assert!(
            weight.is_finite() && weight > 0.0,
            "invalid weight {weight}"
        );
        let class = self.class_of(weight);
        for layer in &mut self.layers[class..] {
            layer.update(edge, delta);
        }
    }

    /// Extracts a `(1+γ)`-approximate minimum spanning forest as
    /// `(edge, rounded_weight)` pairs.
    ///
    /// Kruskal over classes: connect as much as possible with the cheapest
    /// prefix layer, then let each subsequent layer extend the forest over
    /// the components left behind.
    pub fn forest(&self) -> Vec<(Edge, f64)> {
        let mut uf = UnionFind::new(self.n);
        let mut out: Vec<(Edge, f64)> = Vec::new();
        let mut labels: Vec<Vertex> = (0..self.n as Vertex).collect();
        for (c, layer) in self.layers.iter().enumerate() {
            if uf.num_components() == 1 {
                break;
            }
            // Contract the current components, then span what this layer
            // can reach.
            for v in 0..self.n as Vertex {
                labels[v as usize] = uf.find(v);
            }
            let f = layer.spanning_forest_with_partition(&labels);
            let w = self.class_weight(c);
            for e in f.edges {
                if uf.union(e.u(), e.v()) {
                    out.push((e, w));
                }
            }
        }
        out.sort_unstable_by_key(|(e, _)| *e);
        out
    }
}

impl SpaceUsage for MsfSketch {
    fn space_bytes(&self) -> usize {
        self.layers.iter().map(SpaceUsage::space_bytes).sum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dsg_graph::components::num_components;
    use dsg_graph::{gen, mst, Graph};

    fn sketch_of(g: &dsg_graph::WeightedGraph, gamma: f64, seed: u64) -> MsfSketch {
        let (lo, hi) = g.weight_range().unwrap();
        let mut sk = MsfSketch::new(g.num_vertices(), gamma, lo, hi, seed);
        for (e, w) in g.edges() {
            sk.update(*e, *w, 1);
        }
        sk
    }

    #[test]
    fn forest_spans_the_graph() {
        let g = gen::with_random_weights(&gen::erdos_renyi(40, 0.2, 1), 1.0, 16.0, 2);
        let sk = sketch_of(&g, 0.5, 3);
        let forest = sk.forest();
        let skeleton = Graph::from_edges(40, forest.iter().map(|(e, _)| *e));
        assert_eq!(
            num_components(&skeleton),
            num_components(&g.skeleton()),
            "forest does not span"
        );
        assert_eq!(
            forest.len(),
            40 - num_components(&g.skeleton()),
            "wrong forest size"
        );
    }

    #[test]
    fn weight_within_1_plus_gamma_of_optimum() {
        for seed in 0..5u64 {
            let g = gen::with_random_weights(&gen::complete(16), 1.0, 32.0, seed);
            let gamma = 0.25;
            let sk = sketch_of(&g, gamma, seed * 7 + 1);
            let approx: f64 = sk.forest().iter().map(|(_, w)| w).sum();
            let (_, exact) = mst::minimum_spanning_forest(&g);
            assert!(
                approx <= exact * (1.0 + gamma) + 1e-9,
                "seed {seed}: approx {approx} vs exact {exact}"
            );
            assert!(approx >= exact - 1e-9, "approx below optimum?");
        }
    }

    #[test]
    fn forest_edges_are_graph_edges() {
        let g = gen::with_random_weights(&gen::erdos_renyi(30, 0.3, 4), 0.5, 8.0, 5);
        let sk = sketch_of(&g, 0.5, 6);
        for (e, _) in sk.forest() {
            assert!(g.weight(e.u(), e.v()).is_some(), "phantom edge {e}");
        }
    }

    #[test]
    fn deletions_respected() {
        // Insert a cheap spanning path plus an expensive clique; delete the
        // path — the forest must fall back to clique edges.
        let n = 10;
        let mut sk = MsfSketch::new(n, 0.5, 1.0, 100.0, 7);
        for i in 0..n as u32 - 1 {
            sk.update(Edge::new(i, i + 1), 1.0, 1);
        }
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                sk.update(Edge::new(u, v), 100.0, 1);
            }
        }
        for i in 0..n as u32 - 1 {
            sk.update(Edge::new(i, i + 1), 1.0, -1); // delete the cheap path
        }
        let forest = sk.forest();
        assert_eq!(forest.len(), n - 1);
        for (_, w) in forest {
            assert!(w >= 100.0, "deleted cheap edge resurfaced (w={w})");
        }
    }

    #[test]
    fn layer_count_tracks_range() {
        let few = MsfSketch::new(4, 0.5, 1.0, 2.0, 1);
        let many = MsfSketch::new(4, 0.5, 1.0, 1024.0, 1);
        assert!(many.num_layers() > 3 * few.num_layers());
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn bad_weight_panics() {
        let mut sk = MsfSketch::new(4, 0.5, 1.0, 2.0, 1);
        sk.update(Edge::new(0, 1), 0.0, 1);
    }
}
