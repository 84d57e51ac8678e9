//! End-to-end tests of the sharded ingest engine: a sharded
//! multi-threaded AGM run over a dynamic stream must merge to exactly the
//! sketch, and decode exactly the spanning forest, of a single-sketch
//! single-threaded run — the linearity contract the whole distributed
//! story rests on — including through the wire (serialize →
//! checksum-verify → deserialize) snapshot path.

use dsg_agm::AgmSketch;
use dsg_core::engine::EngineBuilder;
use dsg_core::prelude::*;
use dsg_engine::{reduce_snapshots, EdgeUpdate, EngineConfig, ShardedEngine};
use dsg_graph::components::is_spanning_forest;

fn test_stream(n: usize, p: f64, seed: u64) -> (Graph, GraphStream) {
    let g = gen::erdos_renyi(n, p, seed);
    let stream = GraphStream::with_churn(&g, 1.5, seed ^ 0xBEEF);
    (g, stream)
}

#[test]
fn sharded_forest_equals_single_sketch() {
    let n = 120;
    let (g, stream) = test_stream(n, 0.06, 1);
    let mut single = AgmSketch::new(n, 77);
    for up in stream.updates() {
        single.update(up.edge, up.delta as i128);
    }
    let direct = single.spanning_forest();
    assert!(is_spanning_forest(&g, &direct.edges));

    for shards in [1usize, 2, 4] {
        let forest = EngineBuilder::new(n)
            .shards(shards)
            .seed(77)
            .spanning_forest(&stream);
        assert_eq!(
            forest.edges, direct.edges,
            "{shards}-shard engine diverged from the single sketch"
        );
    }
}

#[test]
fn sharded_forest_through_wire_snapshots() {
    let n = 100;
    let (g, stream) = test_stream(n, 0.07, 2);
    let b = EngineBuilder::new(n).shards(4).seed(5);
    let in_memory = b.spanning_forest(&stream);
    let via_wire = b.spanning_forest_via_wire(&stream);
    assert_eq!(in_memory.edges, via_wire.edges);
    assert!(is_spanning_forest(&g, &via_wire.edges));
}

#[test]
fn merged_shard_sketches_are_bit_identical_to_single() {
    // Stronger than answer equality: the merged coordinator sketch must
    // serialize to exactly the bytes of the single-sketch run.
    let n = 80;
    let (_, stream) = test_stream(n, 0.08, 3);
    let mut single = AgmSketch::new(n, 13);
    for up in stream.updates() {
        single.update(up.edge, up.delta as i128);
    }
    let merged = EngineBuilder::new(n).shards(4).seed(13).agm_sketch(&stream);
    assert_eq!(merged.to_bytes(), single.to_bytes());
}

#[test]
fn arbitrary_partition_merges_identically() {
    // Not just the engine's hash-partition: ANY assignment of updates to
    // shards must merge to the same sketch (linearity is partition-blind).
    let n = 60;
    let (_, stream) = test_stream(n, 0.1, 8);
    let mut single = AgmSketch::new(n, 3);
    let mut shards: Vec<AgmSketch> = (0..3).map(|_| AgmSketch::new(n, 3)).collect();
    for (i, up) in stream.updates().iter().enumerate() {
        single.update(up.edge, up.delta as i128);
        // A deliberately skewed, deterministic partition.
        let s = (i * i + i / 7) % 3;
        shards[s].update(up.edge, up.delta as i128);
    }
    let merged = dsg_engine::merge_tree(shards).unwrap();
    assert_eq!(merged.to_bytes(), single.to_bytes());
}

#[test]
fn engine_reports_balanced_shard_loads() {
    let n = 90;
    let (_, stream) = test_stream(n, 0.08, 9);
    let cfg = EngineConfig::new(4).batch_size(64);
    let mut eng = ShardedEngine::start(cfg, |_| AgmSketch::new(n, 1));
    for up in stream.updates() {
        eng.push(EdgeUpdate::new(up.edge.index(n), up.delta as i128));
    }
    let run = eng.finish();
    assert_eq!(run.total_updates as usize, stream.len());
    // Hash-partitioning routes by edge identity, so shard loads follow
    // the hash's spread rather than splitting exactly evenly; the
    // diagnostic ratio (max/mean) must still stay near 1 for a stream of
    // this many distinct edges, and no shard may starve.
    let balance = run.load_balance();
    assert!(
        (1.0..1.5).contains(&balance),
        "hash partition too skewed (max/mean = {balance:.3}): {:?}",
        run.per_shard_updates
    );
    assert!(
        run.per_shard_updates.iter().all(|&c| c > 0),
        "every shard should see some of the stream: {:?}",
        run.per_shard_updates
    );
}

#[test]
fn corrupted_shard_snapshot_is_rejected_not_merged() {
    let n = 40;
    let (_, stream) = test_stream(n, 0.1, 10);
    let cfg = EngineConfig::new(2).batch_size(32);
    let mut eng = ShardedEngine::start(cfg, |_| AgmSketch::new(n, 2));
    for up in stream.updates() {
        eng.push(EdgeUpdate::new(up.edge.index(n), up.delta as i128));
    }
    let mut snapshots = eng.finish().snapshots();
    let last = snapshots[1].len() - 1;
    snapshots[1][last] ^= 0x01;
    let res: Result<Option<AgmSketch>, _> = reduce_snapshots(&snapshots);
    assert!(res.is_err(), "bit flip must fail the checksum");
}
