//! Graph Laplacians and quadratic forms.
//!
//! For a weighted graph `G = (V, E, w)`, `L_G(i,j) = -w(i,j)` off-diagonal
//! and `L_G(i,i) = Σ_j w(i,j)` (Section 2 of the paper). A weighted graph
//! `H` is a `(1±eps)`-spectral sparsifier of `G` when
//! `x^T L_H x = (1±eps) x^T L_G x` for all `x` — the definition this module
//! makes measurable.

use dsg_graph::{Edge, Graph, Vertex, WeightedGraph};

/// A sparse symmetric Laplacian.
///
/// # Examples
///
/// ```
/// use dsg_graph::{WeightedGraph, Edge};
/// use dsg_sparsifier::Laplacian;
///
/// let g = WeightedGraph::from_edges(3, [(Edge::new(0, 1), 2.0)]);
/// let l = Laplacian::from_weighted(&g);
/// assert_eq!(l.quadratic_form(&[1.0, 0.0, 0.0]), 2.0);
/// assert_eq!(l.quadratic_form(&[1.0, 1.0, 0.0]), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Laplacian {
    n: usize,
    /// `(u, v, w)` triples with `u < v`, `w > 0`.
    edges: Vec<(Vertex, Vertex, f64)>,
    degree: Vec<f64>,
}

impl Laplacian {
    /// Builds the Laplacian of `n` vertices from `(edge, weight)` pairs in
    /// one pass, keeping their order — the shared constructor behind
    /// [`from_weighted`](Laplacian::from_weighted) and
    /// [`from_graph`](Laplacian::from_graph). The pairs are taken as
    /// given: distinct edges with positive weights, as a [`Graph`], a
    /// [`WeightedGraph`] or a canonical net multiset holds them.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges<I: IntoIterator<Item = (Edge, f64)>>(n: usize, pairs: I) -> Self {
        let pairs = pairs.into_iter();
        let mut degree = vec![0.0; n];
        let mut edges = Vec::with_capacity(pairs.size_hint().0);
        for (e, w) in pairs {
            degree[e.u() as usize] += w;
            degree[e.v() as usize] += w;
            edges.push((e.u(), e.v(), w));
        }
        Self { n, edges, degree }
    }

    /// Builds the Laplacian of a weighted graph.
    pub fn from_weighted(g: &WeightedGraph) -> Self {
        Self::from_edges(g.num_vertices(), g.edges().iter().copied())
    }

    /// Builds the Laplacian of an unweighted graph (unit weights).
    pub fn from_graph(g: &Graph) -> Self {
        Self::from_edges(g.num_vertices(), g.edges().iter().map(|&e| (e, 1.0)))
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of weighted edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The weighted degree of `v`.
    pub fn degree(&self, v: Vertex) -> f64 {
        self.degree[v as usize]
    }

    /// The edge triples `(u, v, w)`.
    pub fn edge_triples(&self) -> &[(Vertex, Vertex, f64)] {
        &self.edges
    }

    /// Matrix–vector product `y = Lx`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        let mut y: Vec<f64> = (0..self.n).map(|i| self.degree[i] * x[i]).collect();
        for &(u, v, w) in &self.edges {
            y[u as usize] -= w * x[v as usize];
            y[v as usize] -= w * x[u as usize];
        }
        y
    }

    /// The quadratic form `x^T L x = Σ_e w_e (x_u - x_v)^2`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        self.edges
            .iter()
            .map(|&(u, v, w)| {
                let d = x[u as usize] - x[v as usize];
                w * d * d
            })
            .sum()
    }

    /// The dense matrix (row-major), for the eigensolver.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut m = vec![vec![0.0; self.n]; self.n];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = self.degree[i];
        }
        for &(u, v, w) in &self.edges {
            m[u as usize][v as usize] -= w;
            m[v as usize][u as usize] -= w;
        }
        m
    }

    /// The cut value of the vertex set `s` (quadratic form of its
    /// indicator).
    pub fn cut_value(&self, s: &[bool]) -> f64 {
        assert_eq!(s.len(), self.n, "dimension mismatch");
        self.edges
            .iter()
            .filter(|&&(u, v, _)| s[u as usize] != s[v as usize])
            .map(|&(_, _, w)| w)
            .sum()
    }

    /// Total edge weight (half the trace).
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }

    /// The edge list as unweighted edges.
    pub fn skeleton_edges(&self) -> Vec<Edge> {
        self.edges
            .iter()
            .map(|&(u, v, _)| Edge::new(u, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsg_graph::gen;

    fn path3() -> Laplacian {
        Laplacian::from_graph(&gen::path(3))
    }

    #[test]
    fn quadratic_form_matches_definition() {
        let l = path3();
        // x = [0, 1, 3]: (0-1)^2 + (1-3)^2 = 5.
        assert_eq!(l.quadratic_form(&[0.0, 1.0, 3.0]), 5.0);
    }

    #[test]
    fn constants_in_null_space() {
        let l = Laplacian::from_graph(&gen::erdos_renyi(20, 0.3, 1));
        let ones = vec![2.5; 20];
        assert_eq!(l.quadratic_form(&ones), 0.0);
        let y = l.matvec(&ones);
        assert!(y.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn matvec_matches_dense() {
        let g = gen::with_random_weights(&gen::erdos_renyi(15, 0.4, 2), 0.5, 3.0, 3);
        let l = Laplacian::from_weighted(&g);
        let dense = l.to_dense();
        let x: Vec<f64> = (0..15).map(|i| (i as f64).sin()).collect();
        let y = l.matvec(&x);
        for i in 0..15 {
            let expect: f64 = (0..15).map(|j| dense[i][j] * x[j]).sum();
            assert!(
                (y[i] - expect).abs() < 1e-9,
                "row {i}: {} vs {expect}",
                y[i]
            );
        }
    }

    #[test]
    fn quadratic_form_equals_x_t_l_x() {
        let g = gen::with_random_weights(&gen::cycle(10), 1.0, 2.0, 4);
        let l = Laplacian::from_weighted(&g);
        let x: Vec<f64> = (0..10).map(|i| (i as f64 * 0.7).cos()).collect();
        let lx = l.matvec(&x);
        let xtlx: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        assert!((l.quadratic_form(&x) - xtlx).abs() < 1e-9);
    }

    #[test]
    fn cut_value_counts_crossing_weight() {
        let l = Laplacian::from_graph(&gen::complete(6));
        let s = [true, true, true, false, false, false];
        assert_eq!(l.cut_value(&s), 9.0);
        let quad = l.quadratic_form(
            &s.iter()
                .map(|&b| if b { 1.0 } else { 0.0 })
                .collect::<Vec<_>>(),
        );
        assert_eq!(quad, 9.0);
    }

    #[test]
    fn degrees_accumulate() {
        let g = WeightedGraph::from_edges(3, [(Edge::new(0, 1), 2.0), (Edge::new(0, 2), 3.0)]);
        let l = Laplacian::from_weighted(&g);
        assert_eq!(l.degree(0), 5.0);
        assert_eq!(l.degree(1), 2.0);
        assert_eq!(l.total_weight(), 5.0);
    }
}
