//! End-to-end tests of the query-serving layer, centered on **snapshot
//! isolation**: answers read from an epoch snapshot during live concurrent
//! ingest must be bit-identical to a single-threaded offline recomputation
//! over the stream prefix frozen at that epoch. This is the linearity
//! story run in reverse — the serving layer is only correct because a
//! fork-merge of the shard sketches at any stream position equals the one
//! sketch of that prefix, and every artifact build is deterministic.

use dsg_agm::AgmSketch;
use dsg_graph::components::UnionFind;
use dsg_graph::{gen, GraphStream, StreamUpdate, Vertex};
use dsg_service::{GraphConfig, GraphRegistry, LoadGen, Query, QueryMix, QueryService, Response};
use dsg_spanner::baswana_sen;
use dsg_spanner::oracle::DistanceOracle;
use proptest::prelude::*;
use std::sync::Arc;

/// Single-threaded ground truth over a frozen prefix: the AGM forest and
/// the component labels, computed exactly the way an epoch snapshot does
/// but with no engine, no shards, and no threads.
fn offline_forest(
    n: usize,
    seed: u64,
    prefix: &[StreamUpdate],
) -> (Vec<dsg_graph::Edge>, Vec<Vertex>) {
    let mut sketch = AgmSketch::new(n, seed);
    for up in prefix {
        sketch.update(up.edge, up.delta as i128);
    }
    let forest = sketch.spanning_forest();
    let mut uf = UnionFind::new(n);
    for e in &forest.edges {
        uf.union(e.u(), e.v());
    }
    let labels = (0..n as Vertex).map(|v| uf.find(v)).collect();
    (forest.edges, labels)
}

/// Single-threaded ground-truth distance oracle over a frozen prefix:
/// the Baswana–Sen spanner of the prefix's final graph, stretch `2k − 1`.
fn offline_oracle(config: &GraphConfig, prefix: &[StreamUpdate]) -> DistanceOracle {
    let stream = GraphStream::new(config.n, prefix.to_vec());
    let p = config.oracle_params();
    let spanner = baswana_sen::build_spanner(&stream.final_graph(), p.k, p.seed);
    DistanceOracle::new(spanner, config.oracle_stretch())
}

proptest! {
    /// The headline property. Freeze an epoch, then hammer it with reads
    /// *while a writer thread keeps ingesting and even advances further
    /// epochs*; afterwards recompute everything offline over the frozen
    /// prefix and demand exact agreement.
    #[test]
    fn epoch_answers_match_offline_recompute_under_live_ingest(
        graph_seed in 0u64..40,
        service_seed in 0u64..1000,
        shards in 1usize..4,
        cut_frac in 0.2f64..0.8,
    ) {
        let n = 28;
        let g = gen::erdos_renyi(n, 0.14, graph_seed);
        let stream = GraphStream::with_churn(&g, 1.0, graph_seed ^ 0xA5);
        let updates = stream.updates().to_vec();
        let cut = ((updates.len() as f64 * cut_frac) as usize).max(1).min(updates.len());

        let config = GraphConfig::new(n).seed(service_seed).shards(shards).batch_size(8);
        let registry = GraphRegistry::new();
        let served = registry.create("g", config).unwrap();
        served.apply(&updates[..cut]).unwrap();
        let epoch = served.advance_epoch();
        prop_assert_eq!(epoch.epoch(), 1);
        prop_assert_eq!(epoch.total_updates(), cut as u64);

        // Writer: ingest the rest in dribs, advancing an epoch mid-way.
        let writer = {
            let served = Arc::clone(&served);
            let tail = updates[cut..].to_vec();
            std::thread::spawn(move || {
                for (i, chunk) in tail.chunks(5).enumerate() {
                    served.apply(chunk).unwrap();
                    if i == 1 {
                        served.advance_epoch();
                    }
                }
                served.advance_epoch();
            })
        };

        // Readers: query the *pinned* epoch-1 snapshot while the writer
        // races. Collect answers to check against the offline recompute.
        let mut same_component = Vec::new();
        let mut distances = Vec::new();
        for round in 0..3u32 {
            for u in 0..n as Vertex {
                let v = (u + 1 + round) % n as Vertex;
                let Response::SameComponent(sc) =
                    epoch.execute(&Query::SameComponent(u, v)).unwrap()
                else { panic!("wrong variant") };
                same_component.push((u, v, sc));
            }
            // Hot-source distance queries (exercise the oracle cache).
            for v in 0..n as Vertex {
                let Response::Distance(d) = epoch.execute(&Query::Distance(0, v)).unwrap()
                else { panic!("wrong variant") };
                distances.push((0, v, d));
            }
        }
        writer.join().unwrap();

        // Offline ground truth over exactly the frozen prefix.
        let (forest_edges, labels) = offline_forest(n, service_seed, &updates[..cut]);
        prop_assert_eq!(&epoch.forest().result.edges, &forest_edges,
            "epoch forest diverged from offline recompute");
        for (u, v, sc) in same_component {
            prop_assert_eq!(sc, labels[u as usize] == labels[v as usize],
                "same-component answer for ({}, {}) diverged", u, v);
        }
        let oracle = offline_oracle(&config, &updates[..cut]);
        for (u, v, d) in distances {
            prop_assert_eq!(d, oracle.estimate(u, v),
                "distance answer for ({}, {}) diverged", u, v);
        }

        // And the final epoch must equal the offline recompute over the
        // whole stream — nothing was lost while snapshots were taken.
        let last = served.snapshot();
        prop_assert_eq!(last.total_updates(), updates.len() as u64);
        let (final_edges, _) = offline_forest(n, service_seed, &updates);
        prop_assert_eq!(&last.forest().result.edges, &final_edges);
    }
}

/// Cut values are part of the same isolation contract: the served cut is
/// the exact cut of the frozen prefix's live graph, to the last bit, even
/// when ingest has moved on before the cut artifact is first built.
#[test]
fn cut_estimates_match_offline_recompute() {
    let n = 32;
    let g = gen::erdos_renyi(n, 0.2, 9);
    let stream = GraphStream::with_churn(&g, 0.5, 10);
    let updates = stream.updates().to_vec();
    let cut = updates.len() / 2;

    let config = GraphConfig::new(n).seed(77).shards(2);
    let registry = GraphRegistry::new();
    let served = registry.create("g", config).unwrap();
    served.apply(&updates[..cut]).unwrap();
    let epoch = served.advance_epoch();
    // Keep ingesting past the epoch before the artifact is ever built:
    // the lazy build must still see only the frozen prefix.
    served.apply(&updates[cut..]).unwrap();

    let side: Vec<Vertex> = (0..n as Vertex / 2).collect();
    let Response::CutEstimate(est) = epoch.execute(&Query::CutEstimate(side.clone())).unwrap()
    else {
        panic!("wrong variant")
    };

    let prefix = GraphStream::new(n, updates[..cut].to_vec())
        .net_multiset()
        .final_graph();
    let mut in_side = vec![false; n];
    for &v in &side {
        in_side[v as usize] = true;
    }
    let truth = dsg_sparsifier::Laplacian::from_graph(&prefix).cut_value(&in_side);
    assert!(
        truth > 0.0,
        "a half/half cut of G(32, 0.2) crosses some edge"
    );
    assert_eq!(
        est.to_bits(),
        truth.to_bits(),
        "served cut diverged from the frozen prefix's exact cut"
    );
}

/// The wire epoch path (serialize → peek → decode → merge) answers
/// identically to the in-memory path under the same prefix.
#[test]
fn wire_epochs_are_isolation_equivalent() {
    let n = 40;
    let g = gen::erdos_renyi(n, 0.12, 21);
    let stream = GraphStream::with_churn(&g, 1.0, 22);
    let registry = GraphRegistry::new();
    let mem = registry
        .create("mem", GraphConfig::new(n).seed(4).shards(3))
        .unwrap();
    let wire = registry
        .create("wire", GraphConfig::new(n).seed(4).shards(3))
        .unwrap();

    let updates = stream.updates();
    let half = updates.len() / 2;
    mem.apply(&updates[..half]).unwrap();
    wire.apply(&updates[..half]).unwrap();
    let se = mem.advance_epoch();
    let sw = wire.advance_epoch_via_wire().unwrap();
    mem.apply(&updates[half..]).unwrap();
    wire.apply(&updates[half..]).unwrap();

    assert_eq!(se.forest().result.edges, sw.forest().result.edges);
    assert_eq!(se.forest().labels, sw.forest().labels);
    for v in 0..n as Vertex {
        assert_eq!(
            se.execute(&Query::Distance(3, v)).unwrap(),
            sw.execute(&Query::Distance(3, v)).unwrap(),
        );
    }
}

/// Pool answers equal direct snapshot execution for a whole generated
/// workload (multi-tenant: two graphs, interleaved queries).
#[test]
fn query_pool_matches_direct_execution() {
    let registry = Arc::new(GraphRegistry::new());
    for (name, seed) in [("alpha", 1u64), ("beta", 2u64)] {
        let n = 24;
        let g = gen::erdos_renyi(n, 0.18, seed);
        let stream = GraphStream::with_churn(&g, 0.5, seed ^ 0x77);
        let served = registry
            .create(name, GraphConfig::new(n).seed(seed).shards(2))
            .unwrap();
        served.apply(stream.updates()).unwrap();
        served.advance_epoch();
    }
    let pool = QueryService::start(Arc::clone(&registry), 4);
    let gen = LoadGen::new(24, QueryMix::read_heavy(), 5);
    let queries = gen.queries(120);
    let tickets: Vec<_> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let name = if i % 2 == 0 { "alpha" } else { "beta" };
            (name, q.clone(), pool.submit(name, q.clone()))
        })
        .collect();
    for (name, q, ticket) in tickets {
        let direct = registry.get(name).unwrap().snapshot().execute(&q).unwrap();
        assert_eq!(ticket.wait().unwrap(), direct, "pool diverged on {q:?}");
    }
    pool.shutdown();
}
