//! End-to-end durability: the store, engine, and service layers together.
//!
//! The headline claim — recovery is *exact*, not approximate — rests on
//! linearity: a checkpoint is the linear summary of a stream prefix, the
//! WAL tail is the rest of the stream, and a linear sketch cannot tell
//! whether its stream was split across process lifetimes. These tests
//! drive the full `DurableRegistry` cycle (create → ingest → checkpoint →
//! crash → recover) and compare connectivity, distance, **and cut**
//! answers bit-for-bit against an uninterrupted single-threaded run.

use dsg_graph::{gen, GraphStream, StreamUpdate, Vertex};
use dsg_service::{GraphConfig, GraphRegistry, Query, Response};
use dsg_sketch::LinearSketch;
use dsg_store::wal::list_segments;
use dsg_store::{DurableRegistry, ScratchDir, StoreError, StoreOptions, SyncPolicy};

const N: usize = 16;

fn config(seed: u64) -> GraphConfig {
    GraphConfig::new(N).seed(seed).shards(2).batch_size(8)
}

fn stream(seed: u64) -> Vec<StreamUpdate> {
    let g = gen::erdos_renyi(N, 0.35, seed);
    GraphStream::with_churn(&g, 0.8, seed ^ 0xBEEF)
        .updates()
        .to_vec()
}

/// Connectivity, distance, and cut answers of an uninterrupted
/// single-threaded (one-shard) run over `updates`.
fn reference_answers(seed: u64, updates: &[StreamUpdate], queries: &[Query]) -> Vec<Response> {
    let reg = GraphRegistry::new();
    let g = reg.create("ref", config(seed).shards(1)).unwrap();
    g.apply(updates).unwrap();
    let snap = g.advance_epoch();
    queries.iter().map(|q| snap.execute(q).unwrap()).collect()
}

#[test]
fn recovered_tenant_answers_all_query_classes_bit_identically() {
    let seed = 9u64;
    let updates = stream(seed);
    let dir = ScratchDir::new("store-e2e");

    // First life: ingest in batches with a checkpoint two thirds in.
    let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
    let g = reg.create("t", config(seed)).unwrap();
    let two_thirds = updates.len() * 2 / 3;
    for batch in updates[..two_thirds].chunks(7) {
        g.apply(batch).unwrap();
    }
    g.checkpoint().unwrap();
    for batch in updates[two_thirds..].chunks(7) {
        g.apply(batch).unwrap();
    }
    drop((g, reg)); // crash: the tail lives only in the WAL

    // Second life: every query class must match the uninterrupted run.
    let side: Vec<Vertex> = (0..N as Vertex / 2).collect();
    let queries = [
        Query::Connectivity,
        Query::SameComponent(0, N as Vertex - 1),
        Query::SameComponent(3, 7),
        Query::Distance(0, N as Vertex - 1),
        Query::Distance(2, 11),
        Query::IsFar {
            u: 0,
            v: 13,
            threshold: 3,
        },
        Query::CutEstimate(side),
        Query::Stats,
    ];
    let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
    let g = reg.get("t").unwrap();
    let snap = g.advance_epoch().unwrap();
    let recovered: Vec<Response> = queries.iter().map(|q| snap.execute(q).unwrap()).collect();
    let expected = reference_answers(seed, &updates, &queries);
    // Stats carries the epoch counter, which legitimately differs between
    // the reference run (one advance) and the durable run (checkpoint +
    // final advance); compare its update counter instead.
    let (Some(Response::Stats(r)), Some(Response::Stats(e))) = (recovered.last(), expected.last())
    else {
        panic!("stats query must answer");
    };
    assert_eq!(r.total_updates, e.total_updates);
    assert_eq!(r.num_vertices, e.num_vertices);
    let k = recovered.len() - 1;
    assert_eq!(
        &recovered[..k],
        &expected[..k],
        "recovered answers diverged from the uninterrupted run"
    );

    // And the sketch itself is bit-identical, not just the answers.
    let reference_sketch = {
        let reg = GraphRegistry::new();
        let r = reg.create("ref", config(seed)).unwrap();
        r.apply(&updates).unwrap();
        LinearSketch::to_bytes(r.advance_epoch().sketch())
    };
    assert_eq!(LinearSketch::to_bytes(snap.sketch()), reference_sketch);
}

#[test]
fn checkpoint_plus_compaction_bounds_disk() {
    let dir = ScratchDir::new("store-disk");
    // Tiny segments force frequent rotation, so compaction has real work.
    let options = StoreOptions::default()
        .segment_bytes(256)
        .sync(SyncPolicy::EveryN(4));
    let reg = DurableRegistry::open(dir.path(), options).unwrap();
    let g = reg.create("t", config(3)).unwrap();
    let updates = stream(3);
    for batch in updates.chunks(5) {
        g.apply(batch).unwrap();
    }
    let before = list_segments(g.dir()).unwrap().len();
    assert!(before > 3, "tiny segments must have rotated (got {before})");
    let stats = g.checkpoint().unwrap();
    let after = list_segments(g.dir()).unwrap().len();
    assert_eq!(after, 1, "only the post-checkpoint segment may remain");
    // The checkpoint's own epoch marker may force one more rotation
    // before the capture point, so at least every pre-existing segment
    // (and possibly that one extra) is compacted.
    assert!(
        stats.segments_removed >= before,
        "all {before} old segments compact away (removed {})",
        stats.segments_removed
    );
    // Everything still recovers from checkpoint + (empty) tail.
    let tail = [StreamUpdate::insert(0, 3), StreamUpdate::insert(1, 4)];
    g.apply(&tail).unwrap();
    drop((g, reg));
    let reg = DurableRegistry::open(dir.path(), options).unwrap();
    assert_eq!(reg.recovery_report()[0].records_replayed, 1);
    let g = reg.get("t").unwrap();
    g.advance_epoch().unwrap();
    assert_eq!(
        g.snapshot().total_updates(),
        (updates.len() + tail.len()) as u64
    );
}

/// A checkpoint holds the compacted live graph, not the stream: the same
/// live graph fed clean and under ~10x insert/delete churn checkpoints to
/// (nearly) the same number of bytes.
#[test]
fn checkpoint_bytes_stay_flat_under_churn() {
    let n = 60;
    let base = gen::erdos_renyi(n, 0.12, 23);
    let checkpoint_bytes = |churn: f64| -> (usize, u64) {
        let stream = GraphStream::with_churn(&base, churn, 24);
        let dir = ScratchDir::new("store-flat");
        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        let g = reg
            .create("flat", GraphConfig::new(n).seed(7).shards(2).batch_size(64))
            .unwrap();
        for batch in stream.updates().chunks(64) {
            g.apply(batch).unwrap();
        }
        g.checkpoint().unwrap();
        let path = g.dir().join(dsg_store::CHECKPOINT_FILE);
        (stream.len(), std::fs::metadata(path).unwrap().len())
    };
    let (len0, bytes0) = checkpoint_bytes(0.0);
    let (len1, bytes1) = checkpoint_bytes(4.5);
    assert!(
        len1 >= 10 * len0,
        "churn must grow the stream 10x ({len0} -> {len1})"
    );
    assert!(
        bytes1 <= bytes0 + bytes0 / 50 + 1024,
        "checkpoint must stay flat under churn ({bytes0} -> {bytes1} bytes)"
    );
}

#[test]
fn multi_tenant_recovery_is_isolated() {
    let dir = ScratchDir::new("store-tenants");
    let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
    let a = reg.create("alpha", config(1)).unwrap();
    let b = reg.create("beta", config(2)).unwrap();
    a.apply(&stream(1)[..12]).unwrap();
    b.apply(&stream(2)[..20]).unwrap();
    a.checkpoint().unwrap();
    b.advance_epoch().unwrap();
    drop((a, b, reg));

    let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
    assert_eq!(reg.names(), vec!["alpha".to_string(), "beta".to_string()]);
    let report = reg.recovery_report();
    assert_eq!(report[0].name, "alpha");
    assert_eq!(
        report[0].checkpoint_epoch, 1,
        "alpha recovered via checkpoint"
    );
    assert_eq!(report[1].checkpoint_epoch, 0, "beta replayed from scratch");
    let a = reg.get("alpha").unwrap();
    let b = reg.get("beta").unwrap();
    a.advance_epoch().unwrap();
    assert_eq!(a.snapshot().total_updates(), 12);
    assert_eq!(b.snapshot().total_updates(), 20);
    // Tenants remain independently removable after recovery.
    reg.remove("alpha").unwrap();
    assert!(matches!(reg.get("alpha"), Err(StoreError::Service(_))));
    assert_eq!(reg.len(), 1);
}
