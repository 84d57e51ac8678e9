//! k-edge-connectivity certificates from layered AGM sketches.
//!
//! The AGM line of work (cited by the paper for "connectivity,
//! k-connectivity") builds a k-edge-connectivity certificate by peeling
//! forests: `F_1` is a spanning forest of `G`; `F_2` a spanning forest of
//! `G - F_1`; …; `F_i` of `G - F_1 - … - F_{i-1}`. The union `F_1 ∪ … ∪ F_k`
//! preserves edge connectivity up to `k` (Nagamochi–Ibaraki sparsification)
//! and is computable from `k` independent linear sketches because known
//! edges can be subtracted by linearity.

use crate::forest::AgmSketch;
use dsg_graph::Edge;
use dsg_util::SpaceUsage;

/// `k` layered AGM sketches supporting certificate extraction.
///
/// # Examples
///
/// ```
/// use dsg_agm::KConnectivitySketch;
/// use dsg_graph::gen;
///
/// let g = gen::complete(8);
/// let mut sk = KConnectivitySketch::new(8, 3, 42);
/// for e in g.edges() {
///     sk.update(*e, 1);
/// }
/// let cert = sk.certificate();
/// // 3 forests of a connected graph: up to 3·(n-1) = 21 edges.
/// assert!(cert.len() <= 21 && cert.len() >= 7);
/// ```
#[derive(Debug, Clone)]
pub struct KConnectivitySketch {
    layers: Vec<AgmSketch>,
}

impl KConnectivitySketch {
    /// Creates `k` independent layers for graphs on `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `k == 0`.
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        assert!(k > 0, "need at least one layer");
        let tree = dsg_hash::SeedTree::new(seed ^ 0x4B43_4F4E_4E31); // "KCONN1"
        Self {
            layers: (0..k)
                .map(|i| AgmSketch::new(n, tree.child(i as u64).seed()))
                .collect(),
        }
    }

    /// Number of layers `k`.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Applies a signed edge update to every layer.
    pub fn update(&mut self, edge: Edge, delta: i128) {
        for layer in &mut self.layers {
            layer.update(edge, delta);
        }
    }

    /// Extracts the layered-forest certificate `F_1 ∪ … ∪ F_k`.
    ///
    /// Consumes working copies; the sketch itself is reusable.
    pub fn certificate(&self) -> Vec<Edge> {
        let mut peeled: Vec<Edge> = Vec::new();
        let mut layers = self.layers.clone();
        for layer in &mut layers {
            // Subtract everything already taken from this layer, then
            // extract its forest.
            layer.subtract_edges(peeled.iter());
            let forest = layer.spanning_forest();
            peeled.extend(forest.edges);
        }
        peeled.sort_unstable();
        peeled.dedup();
        peeled
    }
}

impl SpaceUsage for KConnectivitySketch {
    fn space_bytes(&self) -> usize {
        self.layers.iter().map(SpaceUsage::space_bytes).sum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dsg_graph::components::UnionFind;
    use dsg_graph::{gen, Graph};
    use std::collections::HashSet;

    /// Min cut between 0 and every other vertex must survive in the
    /// certificate up to value k. We check a weaker, testable property:
    /// removing any single certificate edge leaves the certificate of a
    /// 2-connected graph connected.
    fn is_connected(n: usize, edges: &[Edge]) -> bool {
        let mut uf = UnionFind::new(n);
        for e in edges {
            uf.union(e.u(), e.v());
        }
        uf.num_components() == 1
    }

    #[test]
    fn certificate_is_subgraph() {
        let g = gen::erdos_renyi(30, 0.3, 1);
        let mut sk = KConnectivitySketch::new(30, 2, 2);
        for e in g.edges() {
            sk.update(*e, 1);
        }
        let cert = sk.certificate();
        let edge_set: HashSet<Edge> = g.edge_set();
        for e in &cert {
            assert!(edge_set.contains(e), "certificate edge {e} not in graph");
        }
    }

    #[test]
    fn two_layers_preserve_2_connectivity_of_cycle() {
        // A cycle is 2-edge-connected; a 2-layer certificate must keep it
        // connected after removing any one edge.
        let g = gen::cycle(16);
        let mut sk = KConnectivitySketch::new(16, 2, 3);
        for e in g.edges() {
            sk.update(*e, 1);
        }
        let cert = sk.certificate();
        assert!(is_connected(16, &cert));
        for skip in 0..cert.len() {
            let reduced: Vec<Edge> = cert
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, e)| *e)
                .collect();
            assert!(
                is_connected(16, &reduced),
                "removing edge {skip} disconnected certificate"
            );
        }
    }

    #[test]
    fn certificate_size_bounded_by_k_forests() {
        let g = gen::complete(12);
        let k = 3;
        let mut sk = KConnectivitySketch::new(12, k, 4);
        for e in g.edges() {
            sk.update(*e, 1);
        }
        let cert = sk.certificate();
        assert!(
            cert.len() <= k * 11,
            "certificate too large: {}",
            cert.len()
        );
        assert!(is_connected(12, &cert));
    }

    #[test]
    fn respects_deletions() {
        let g = gen::complete(8);
        let mut sk = KConnectivitySketch::new(8, 2, 5);
        for e in g.edges() {
            sk.update(*e, 1);
        }
        // Isolate vertex 0 by deleting all its edges.
        for v in 1..8u32 {
            sk.update(Edge::new(0, v), -1);
        }
        let cert = sk.certificate();
        let h = Graph::from_edges(8, cert.clone());
        assert_eq!(
            h.adjacency().degree(0),
            0,
            "deleted edges reappeared: {cert:?}"
        );
    }
}
