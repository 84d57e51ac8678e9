//! Integration tests for AGM spanning-forest sketches under streaming
//! churn, contraction and distribution (Theorem 10's role).

use dsg_agm::AgmSketch;
use dsg_core::prelude::*;
use dsg_graph::components::{is_spanning_forest, num_components};

fn sketch_stream(stream: &GraphStream, seed: u64) -> AgmSketch {
    let mut sk = AgmSketch::new(stream.num_vertices(), seed);
    for up in stream.updates() {
        sk.update(up.edge, up.delta as i128);
    }
    sk
}

#[test]
fn forest_correct_across_densities() {
    for (p, seed) in [(0.02, 1u64), (0.05, 2), (0.2, 3), (0.6, 4)] {
        let g = gen::erdos_renyi(60, p, seed);
        let stream = GraphStream::with_churn(&g, 2.0, seed * 31);
        let sk = sketch_stream(&stream, seed * 77);
        let f = sk.spanning_forest();
        assert!(
            is_spanning_forest(&g, &f.edges),
            "p={p}: bad forest ({} decode failures)",
            f.decode_failures
        );
        assert_eq!(f.edges.len(), 60 - num_components(&g), "p={p}");
    }
}

#[test]
fn distributed_merge_equals_central() {
    // Four servers each see a quarter of the stream; merged sketches must
    // produce a valid forest of the union.
    let g = gen::erdos_renyi(50, 0.1, 5);
    let stream = GraphStream::with_churn(&g, 1.0, 6);
    let mut shards: Vec<AgmSketch> = (0..4).map(|_| AgmSketch::new(50, 7)).collect();
    for (i, up) in stream.updates().iter().enumerate() {
        shards[i % 4].update(up.edge, up.delta as i128);
    }
    let mut merged = shards.remove(0);
    for s in &shards {
        merged.merge(s);
    }
    let f = merged.spanning_forest();
    assert!(is_spanning_forest(&g, &f.edges));
}

#[test]
fn contraction_matches_algorithm3_pattern() {
    // Contract a partition, subtract intra-cluster edges — the forest on
    // supernodes must connect exactly the inter-cluster structure.
    let g = gen::grid(6, 6); // vertex v = row*6 + col
    let stream = GraphStream::insert_only(&g, 8);
    let mut sk = sketch_stream(&stream, 9);
    // Partition into 6 row-clusters.
    let partition: Vec<Vertex> = (0..36).map(|v| (v / 6) as Vertex).collect();
    // Remove all horizontal (intra-row) edges by linearity.
    let horizontal: Vec<Edge> = g
        .edges()
        .iter()
        .filter(|e| e.u() / 6 == e.v() / 6)
        .copied()
        .collect();
    sk.subtract_edges(horizontal.iter());
    let f = sk.spanning_forest_with_partition(&partition);
    // 6 row-clusters chained vertically: 5 forest edges between adjacent
    // rows.
    assert_eq!(f.edges.len(), 5, "forest: {:?}", f.edges);
    for e in &f.edges {
        assert_eq!(
            (e.v() / 6) - (e.u() / 6),
            1,
            "edge {e} not between adjacent rows"
        );
    }
}

#[test]
fn space_is_near_linear_in_n() {
    // Theorem 10 promises O(n log^3 n): doubling n should far less than
    // quadruple nominal space.
    let small = AgmSketch::new(100, 1);
    let large = AgmSketch::new(200, 1);
    let ratio = large.nominal_bytes() as f64 / small.nominal_bytes() as f64;
    assert!(ratio < 3.5, "nominal space ratio {ratio} too steep");
    assert!(ratio > 1.5, "nominal space ratio {ratio} suspiciously flat");
    // Touched space of an empty sketch is tiny by comparison.
    assert!(small.space_bytes() < small.nominal_bytes());
}
