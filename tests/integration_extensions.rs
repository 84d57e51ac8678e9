//! Integration tests for the extension APIs: spanner-backed distance
//! oracles (the KP12 contract) and the JL resistance estimator — each
//! driven through the public crate APIs on streamed inputs.

use dsg_core::prelude::*;
use dsg_spanner::oracle::DistanceOracle;
use dsg_sparsifier::resistance::{self, ResistanceEstimator};

#[test]
fn oracle_from_streamed_spanner_satisfies_kp12_contract() {
    let n = 80;
    let g = gen::erdos_renyi(n, 0.12, 1);
    let stream = GraphStream::with_churn(&g, 1.0, 2);
    let k = 2;
    let out = SpannerBuilder::new(n)
        .stretch_exponent(k)
        .seed(3)
        .build_from_stream(&stream);
    let oracle = DistanceOracle::new(out.spanner, 1 << k);
    let adj = g.adjacency();
    for src in [0u32, 20, 55] {
        let exact = dsg_graph::bfs::bfs_distances(&adj, src);
        let est = oracle.estimates_from(src);
        for v in 0..n {
            match (exact[v], est[v]) {
                (dsg_graph::bfs::UNREACHABLE, None) => {}
                (d, Some(e)) => {
                    assert!(e >= d, "oracle underestimated {src}->{v}");
                    assert!(
                        e as u64 <= (1u64 << k) * d as u64,
                        "oracle overshot stretch at {src}->{v}: {e} vs {d}"
                    );
                }
                other => panic!("reachability mismatch at {v}: {other:?}"),
            }
        }
    }
}

#[test]
fn jl_resistances_feed_ss08_style_sampling() {
    // The near-linear-time SS08 loop: approximate resistances via JL, then
    // sample by them; the result must still be spectrally bounded.
    let g = gen::complete(24);
    let l = Laplacian::from_graph(&g);
    let est = ResistanceEstimator::new(&l, 80, 11);
    let logn = 24f64.log2();
    let mut rng = dsg_hash::SplitMix64::new(12);
    let mut edges = Vec::new();
    for e in g.edges() {
        let r = est.estimate(e.u(), e.v());
        let p = (2.0 * r * logn).clamp(0.05, 1.0);
        if rng.next_f64() < p {
            edges.push((*e, 1.0 / p));
        }
    }
    let h = WeightedGraph::from_edges(24, edges);
    let eps = dsg_sparsifier::spectral::spectral_epsilon(&l, &Laplacian::from_weighted(&h));
    assert!(eps < 0.95, "JL-driven sampling eps={eps}");
    // JL estimates stay close to the exact ones.
    let exact = resistance::effective_resistance(&l, 0, 1);
    let approx = est.estimate(0, 1);
    assert!((approx / exact - 1.0).abs() < 0.5);
}
