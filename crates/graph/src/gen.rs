//! Seeded graph generators.
//!
//! All generators are deterministic functions of their seed, so every
//! experiment row in DESIGN.md's experiment index can be regenerated exactly.

use crate::graph::{Graph, WeightedGraph};
use crate::ids::{index_to_pair, num_pairs, Edge, Vertex};
use dsg_hash::SplitMix64;

/// Erdős–Rényi `G(n, p)`: each of the `C(n,2)` pairs independently.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
///
/// # Examples
///
/// ```
/// let g = dsg_graph::gen::erdos_renyi(50, 0.1, 7);
/// assert_eq!(g.num_vertices(), 50);
/// ```
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p {p} outside [0, 1]");
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::new();
    for u in 0..n as Vertex {
        for v in (u + 1)..n as Vertex {
            if rng.next_f64() < p {
                edges.push(Edge::new(u, v));
            }
        }
    }
    Graph::from_edges(n, edges)
}

/// Uniform `G(n, m)`: exactly `m` distinct edges.
///
/// # Panics
///
/// Panics if `m > C(n,2)`.
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m as u64 <= num_pairs(n), "m={m} exceeds C({n},2)");
    let mut rng = SplitMix64::new(seed);
    let mut set = std::collections::HashSet::with_capacity(m);
    while set.len() < m {
        let idx = rng.next_below(num_pairs(n));
        set.insert(idx);
    }
    Graph::from_edges(
        n,
        set.into_iter().map(|i| {
            let (u, v) = index_to_pair(i, n);
            Edge::new(u, v)
        }),
    )
}

/// Path `0 - 1 - … - (n-1)`.
pub fn path(n: usize) -> Graph {
    Graph::from_edges(
        n,
        (0..n.saturating_sub(1)).map(|i| Edge::new(i as Vertex, i as Vertex + 1)),
    )
}

/// Cycle on `n >= 3` vertices.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut edges: Vec<Edge> = (0..n - 1)
        .map(|i| Edge::new(i as Vertex, i as Vertex + 1))
        .collect();
    edges.push(Edge::new(0, (n - 1) as Vertex));
    Graph::from_edges(n, edges)
}

/// `rows × cols` grid.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let id = |r: usize, c: usize| (r * cols + c) as Vertex;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push(Edge::new(id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push(Edge::new(id(r, c), id(r + 1, c)));
            }
        }
    }
    Graph::from_edges(rows * cols, edges)
}

/// Star: vertex 0 joined to all others.
pub fn star(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| Edge::new(0, i as Vertex)))
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n as Vertex {
        for v in (u + 1)..n as Vertex {
            edges.push(Edge::new(u, v));
        }
    }
    Graph::from_edges(n, edges)
}

/// Barbell: two `K_{cliques}` joined by a path of `bridge` edges.
///
/// A classic hard case for spectral methods — the bridge edges have high
/// effective resistance and must survive sparsification.
///
/// # Panics
///
/// Panics if `clique < 2`.
pub fn barbell(clique: usize, bridge: usize) -> Graph {
    assert!(clique >= 2, "cliques need at least 2 vertices");
    let n = 2 * clique + bridge.saturating_sub(1);
    let mut edges = Vec::new();
    // Left clique on 0..clique.
    for u in 0..clique {
        for v in (u + 1)..clique {
            edges.push(Edge::new(u as Vertex, v as Vertex));
        }
    }
    // Right clique on the last `clique` vertices.
    let right0 = clique + bridge.saturating_sub(1);
    for u in 0..clique {
        for v in (u + 1)..clique {
            edges.push(Edge::new((right0 + u) as Vertex, (right0 + v) as Vertex));
        }
    }
    // Bridge path from vertex clique-1 to vertex right0.
    let mut prev = clique - 1;
    for b in 0..bridge {
        let next = if b + 1 == bridge { right0 } else { clique + b };
        edges.push(Edge::new(prev as Vertex, next as Vertex));
        prev = next;
    }
    Graph::from_edges(n.max(right0 + clique), edges)
}

/// Chung–Lu power-law graph: vertex `i` has target weight `∝ (i+1)^{-1/(β-1)}`.
///
/// Produces heavy-tailed degree sequences like social networks — the
/// motivating workload of the paper's introduction.
///
/// # Panics
///
/// Panics if `beta <= 1`.
pub fn power_law(n: usize, beta: f64, avg_degree: f64, seed: u64) -> Graph {
    assert!(beta > 1.0, "beta must exceed 1");
    let mut rng = SplitMix64::new(seed);
    let exponent = -1.0 / (beta - 1.0);
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(exponent)).collect();
    let wsum: f64 = weights.iter().sum();
    // Scale so the expected average degree is as requested.
    let scale = avg_degree * n as f64 / (wsum * wsum);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let p = (weights[u] * weights[v] * scale).min(1.0);
            if rng.next_f64() < p {
                edges.push(Edge::new(u as Vertex, v as Vertex));
            }
        }
    }
    Graph::from_edges(n, edges)
}

/// The Theorem-4 hard instance: `blocks` disjoint `G(d, 1/2)` graphs, plus
/// Bob's chaining path connecting a designated pair `(U_ℓ, V_ℓ)` per block.
///
/// Returns the graph and the designated pairs (one per block).
pub fn lower_bound_instance(blocks: usize, d: usize, seed: u64) -> (Graph, Vec<(Vertex, Vertex)>) {
    assert!(d >= 2, "blocks need at least 2 vertices");
    let mut rng = SplitMix64::new(seed);
    let n = blocks * d;
    let mut edges = Vec::new();
    let mut pairs = Vec::with_capacity(blocks);
    for b in 0..blocks {
        let base = (b * d) as Vertex;
        for u in 0..d as Vertex {
            for v in (u + 1)..d as Vertex {
                if rng.next_u64() & 1 == 1 {
                    edges.push(Edge::new(base + u, base + v));
                }
            }
        }
        // Bob's uniformly random distinct pair in this block.
        let u = rng.next_below(d as u64) as Vertex;
        let mut v = rng.next_below(d as u64) as Vertex;
        while v == u {
            v = rng.next_below(d as u64) as Vertex;
        }
        pairs.push((base + u, base + v));
    }
    // Chain: V_b -- U_{b+1}.
    for b in 0..blocks.saturating_sub(1) {
        edges.push(Edge::new(pairs[b].1, pairs[b + 1].0));
    }
    (Graph::from_edges(n, edges), pairs)
}

/// Assigns seeded random weights in `[w_min, w_max]` (log-uniform) to a
/// graph's edges.
///
/// # Panics
///
/// Panics if the range is invalid or non-positive.
pub fn with_random_weights(g: &Graph, w_min: f64, w_max: f64, seed: u64) -> WeightedGraph {
    assert!(
        w_min > 0.0 && w_max >= w_min,
        "invalid weight range [{w_min}, {w_max}]"
    );
    let mut rng = SplitMix64::new(seed);
    let (lo, hi) = (w_min.ln(), w_max.ln());
    WeightedGraph::from_edges(
        g.num_vertices(),
        g.edges()
            .iter()
            .map(|&e| (e, (lo + rng.next_f64() * (hi - lo)).exp())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::connected_components;

    #[test]
    fn erdos_renyi_edge_count_concentrates() {
        let n = 100;
        let p = 0.2;
        let g = erdos_renyi(n, p, 1);
        let expect = p * num_pairs(n) as f64;
        assert!((g.num_edges() as f64 - expect).abs() < 5.0 * expect.sqrt());
    }

    #[test]
    fn erdos_renyi_deterministic() {
        assert_eq!(erdos_renyi(30, 0.3, 5), erdos_renyi(30, 0.3, 5));
        assert_ne!(erdos_renyi(30, 0.3, 5), erdos_renyi(30, 0.3, 6));
    }

    #[test]
    fn gnm_exact_count() {
        let g = gnm(20, 50, 3);
        assert_eq!(g.num_edges(), 50);
    }

    #[test]
    fn path_cycle_shapes() {
        assert_eq!(path(10).num_edges(), 9);
        assert_eq!(cycle(10).num_edges(), 10);
        assert_eq!(path(1).num_edges(), 0);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4); // horizontal + vertical
    }

    #[test]
    fn star_and_complete() {
        assert_eq!(star(10).num_edges(), 9);
        assert_eq!(complete(10).num_edges(), 45);
        assert_eq!(star(10).adjacency().degree(0), 9);
    }

    #[test]
    fn barbell_connected_with_long_distance() {
        let g = barbell(10, 5);
        let labels = connected_components(&g);
        assert!(
            labels.iter().all(|&c| c == labels[0]),
            "barbell must be connected"
        );
        let dist = crate::bfs::bfs_distances(&g.adjacency(), 0);
        let far = *dist.iter().max().unwrap();
        assert!(far >= 6, "far={far}");
    }

    #[test]
    fn power_law_has_heavy_head() {
        let g = power_law(200, 2.5, 8.0, 9);
        let adj = g.adjacency();
        let max_deg = (0..200).map(|u| adj.degree(u)).max().unwrap();
        let avg = 2.0 * g.num_edges() as f64 / 200.0;
        assert!(max_deg as f64 > 2.5 * avg, "max={max_deg}, avg={avg}");
    }

    #[test]
    fn lower_bound_instance_shape() {
        let (g, pairs) = lower_bound_instance(6, 10, 4);
        assert_eq!(g.num_vertices(), 60);
        assert_eq!(pairs.len(), 6);
        // Blocks + chain must be connected as one component whp.
        let labels = connected_components(&g);
        let first = labels[pairs[0].0 as usize];
        for (u, v) in &pairs {
            assert_eq!(labels[*u as usize], first);
            assert_eq!(labels[*v as usize], first);
        }
        // Each designated pair lives inside one block.
        for (b, (u, v)) in pairs.iter().enumerate() {
            assert_eq!(*u as usize / 10, b);
            assert_eq!(*v as usize / 10, b);
            assert_ne!(u, v);
        }
    }

    #[test]
    fn random_weights_in_range() {
        let g = cycle(20);
        let wg = with_random_weights(&g, 0.5, 8.0, 2);
        let (lo, hi) = wg.weight_range().unwrap();
        assert!(lo >= 0.5 && hi <= 8.0);
        assert_eq!(wg.num_edges(), 20);
    }
}
