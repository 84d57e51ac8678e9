//! Serving-layer benchmarks: mixed ingest+query throughput with latency
//! percentiles, per-query-type costs against a warm epoch, epoch-advance
//! cost, and the oracle's per-source cache speedup.
//!
//! The mixed-workload report (queries/sec, p50/p95 latency under a live
//! writer) is printed once up front — criterion's shim measures medians
//! of single operations, while a latency *distribution* under concurrency
//! needs its own harness.

use criterion::{criterion_group, criterion_main, Criterion};
use dsg_graph::{gen, GraphStream, Vertex};
use dsg_service::{GraphConfig, GraphRegistry, LoadGen, Query, QueryMix, QueryService};
use dsg_util::Summary;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 150;

/// A registry with one warm graph: stream ingested, epoch advanced,
/// forest + oracle artifacts built.
fn warm_registry(shards: usize) -> Arc<GraphRegistry> {
    let registry = Arc::new(GraphRegistry::new());
    let g = gen::erdos_renyi(N, 0.05, 7);
    let stream = GraphStream::with_churn(&g, 1.0, 8);
    let served = registry
        .create("bench", GraphConfig::new(N).seed(42).shards(shards))
        .expect("fresh registry");
    served.apply(stream.updates()).expect("in range");
    let epoch = served.advance_epoch();
    let _ = epoch.forest();
    let _ = epoch.oracle();
    registry
}

/// The headline report: a 4-worker pool answering a deterministic mixed
/// workload while a writer thread keeps ingesting churn and advancing
/// epochs. Prints queries/sec and p50/p95/p99 per-query latency.
fn mixed_workload_report() {
    let registry = warm_registry(2);
    let served = registry.get("bench").expect("registered");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let served = Arc::clone(&served);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let u = i % (N as u32 - 1);
                let _ = served.insert(u, u + 1);
                let _ = served.delete(u, u + 1);
                i += 1;
                if i % 2048 == 0 {
                    served.advance_epoch();
                }
            }
            i
        })
    };

    let pool = QueryService::start(Arc::clone(&registry), 4);
    let mix = QueryMix {
        cut: 0, // KP12 build cost is its own experiment (E19)
        ..QueryMix::read_heavy()
    };
    let load = LoadGen::new(N, mix, 5).hot_sources(8);
    let total = 3000u64;
    let mut latencies = Summary::new();
    let t0 = Instant::now();
    for i in 0..total {
        let t = Instant::now();
        pool.query_blocking("bench", load.query(i))
            .expect("query failed");
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let wall = t0.elapsed().as_secs_f64();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let writes = writer.join().expect("writer");
    eprintln!(
        "service/mixed_workload: {total} queries in {:.1} ms under live ingest \
         ({} write ops, {} epochs) — {:.0} queries/s; latency p50 {:.1} µs, \
         p95 {:.1} µs, p99 {:.1} µs",
        wall * 1e3,
        2 * writes,
        served.snapshot().epoch(),
        total as f64 / wall,
        latencies.quantile(0.50),
        latencies.quantile(0.95),
        latencies.quantile(0.99),
    );
    pool.shutdown();
}

fn bench_query_types(c: &mut Criterion) {
    mixed_workload_report();

    let registry = warm_registry(2);
    let served = registry.get("bench").expect("registered");
    let snapshot = served.snapshot();
    let mut group = c.benchmark_group("service");
    group.bench_function("connectivity_query", |b| {
        b.iter(|| black_box(snapshot.execute(&Query::Connectivity).unwrap()));
    });
    group.bench_function("same_component_query", |b| {
        let mut v: Vertex = 0;
        b.iter(|| {
            v = (v + 7) % N as Vertex;
            black_box(snapshot.execute(&Query::SameComponent(3, v)).unwrap())
        });
    });
    group.bench_function("stats_query", |b| {
        b.iter(|| black_box(snapshot.execute(&Query::Stats).unwrap()));
    });
    group.finish();
}

/// The oracle-cache claim: repeated-source distance queries must be much
/// cheaper against the (default) caching oracle than with the cache
/// disabled. Reported as two criterion series over identical query sets.
fn bench_oracle_cache(c: &mut Criterion) {
    let registry = warm_registry(2);
    let snapshot = registry.get("bench").expect("registered").snapshot();
    let cached = snapshot.oracle();
    let uncached = (*cached).clone().with_cache_capacity(0);
    let mut group = c.benchmark_group("service");
    let mut v: Vertex = 0;
    group.bench_function("distance_hot_source_cached", |b| {
        b.iter(|| {
            v = (v + 11) % N as Vertex;
            black_box(cached.estimate(9, v))
        });
    });
    group.bench_function("distance_hot_source_uncached", |b| {
        b.iter(|| {
            v = (v + 11) % N as Vertex;
            black_box(uncached.estimate(9, v))
        });
    });
    group.finish();
    let stats = cached.cache_stats();
    eprintln!(
        "service/oracle_cache: hits {} misses {} after hot-source sweep",
        stats.hits, stats.misses
    );
}

/// Epoch advance while workers stay up: the cost readers pay for a fresh
/// view (shard forks + merge + compacted-segment seal + publish;
/// artifacts stay lazy).
fn bench_epoch_advance(c: &mut Criterion) {
    let registry = warm_registry(4);
    let served = registry.get("bench").expect("registered");
    let mut group = c.benchmark_group("service");
    group.sample_size(10);
    group.bench_function("advance_epoch_4_shards", |b| {
        b.iter(|| black_box(served.advance_epoch().epoch()));
    });
    group.bench_function("advance_epoch_wire_4_shards", |b| {
        b.iter(|| black_box(served.advance_epoch_via_wire().unwrap().epoch()));
    });
    group.finish();
}

/// The lazy oracle build per epoch, from the compacted net-edge segment
/// — at 1x and 4x stream churn over the same live graph. Under the
/// retired raw-log design the 4x series cost ~4x; compacted, both series
/// read the same O(live graph) segment.
fn bench_artifact_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("service");
    group.sample_size(10);
    for (label, churn) in [
        ("oracle_build_1x_churn", 1.0),
        ("oracle_build_4x_churn", 4.0),
    ] {
        let registry = GraphRegistry::new();
        let g = gen::erdos_renyi(N, 0.05, 7);
        let stream = GraphStream::with_churn(&g, churn, 8);
        let config = GraphConfig::new(N).seed(42).shards(2);
        let served = registry.create("rebuild", config).expect("fresh registry");
        served.apply(stream.updates()).expect("in range");
        let epoch = served.advance_epoch();
        let p = config.oracle_params();
        group.bench_function(label, |b| {
            // The Baswana–Sen build the snapshot's OnceLock performs on
            // first use, timed in isolation (the OnceLock itself only
            // builds once per epoch, so it cannot be iterated directly).
            b.iter(|| {
                black_box(dsg_spanner::baswana_sen::build_spanner(
                    &epoch.net_edges().final_graph(),
                    p.k,
                    p.seed,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_query_types,
    bench_oracle_cache,
    bench_epoch_advance,
    bench_artifact_rebuild
);
criterion_main!(benches);
