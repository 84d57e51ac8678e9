//! Engine benchmarks: sharded AGM ingest throughput vs shard count, and
//! the coordinator-side costs (merge tree, wire snapshot roundtrip).
//!
//! The shard sweep is the headline: on a multi-core host, S=4 ingest
//! finishes a fixed update batch strictly faster than S=1 because the
//! per-update sketch work (a few µs for AGM) dominates the per-batch
//! channel handoff. On a single-core host the sweep degenerates to
//! thread-scheduling overhead — the reported host parallelism makes the
//! context explicit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsg_agm::AgmSketch;
use dsg_engine::{merge_tree, EdgeUpdate, EngineConfig, ShardedEngine};
use dsg_graph::{gen, GraphStream};
use dsg_sketch::LinearSketch;
use std::hint::black_box;

fn agm_updates(n: usize) -> Vec<EdgeUpdate> {
    let g = gen::erdos_renyi(n, 0.05, 7);
    let stream = GraphStream::with_churn(&g, 1.0, 8);
    stream
        .updates()
        .iter()
        .map(|up| EdgeUpdate::new(up.edge.index(n), up.delta as i128))
        .collect()
}

fn bench_shard_sweep(c: &mut Criterion) {
    let n = 200;
    let updates = agm_updates(n);
    eprintln!(
        "engine/agm_ingest: {} updates, host parallelism {}",
        updates.len(),
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
    );
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("agm_ingest", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let cfg = EngineConfig::new(shards).batch_size(256);
                    let mut eng = ShardedEngine::start(cfg, |_| AgmSketch::new(n, 42));
                    eng.push_all(black_box(&updates));
                    black_box(eng.finish().merged().unwrap())
                });
            },
        );
    }
    group.finish();
}

fn bench_coordinator(c: &mut Criterion) {
    let n = 200;
    let updates = agm_updates(n);
    // Pre-ingest four shard sketches once; benches measure coordination.
    let make_shards = || -> Vec<AgmSketch> {
        let cfg = EngineConfig::new(4).batch_size(256);
        let mut eng = ShardedEngine::start(cfg, |_| AgmSketch::new(n, 42));
        eng.push_all(&updates);
        eng.finish().shards
    };
    let shards = make_shards();
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.bench_function("merge_tree_4_shards", |b| {
        b.iter(|| black_box(merge_tree(shards.clone()).unwrap()));
    });
    group.bench_function("snapshot_roundtrip", |b| {
        let sketch = &shards[0];
        b.iter(|| {
            let bytes = sketch.to_bytes();
            black_box(AgmSketch::from_bytes(&bytes).unwrap())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_shard_sweep, bench_coordinator);
criterion_main!(benches);
