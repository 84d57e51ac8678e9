//! Experiment E19: the query-serving layer — mixed read/write throughput
//! with latency percentiles, the oracle cache's repeated-source speedup,
//! epoch-advance cost, and a snapshot-isolation spot check.

use crate::Scale;
use dsg_graph::{gen, GraphStream, Vertex};
use dsg_service::{GraphConfig, GraphRegistry, LoadGen, Query, QueryMix, QueryService, Response};
use dsg_util::{Summary, Table};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// E19: serve a deterministic mixed workload from worker pools of several
/// sizes while a writer ingests churn and advances epochs, then isolate
/// the oracle-cache and epoch-advance costs.
pub fn service(scale: Scale) {
    let n = scale.pick(300usize, 120);
    let queries = scale.pick(4000u64, 800);
    let seed = 42u64;
    let g = gen::erdos_renyi(n, scale.pick(0.03, 0.06), 7);
    let stream = GraphStream::with_churn(&g, 1.0, 8);
    println!(
        "\n## E19 — query-serving layer (n = {n}, {} stream updates, {} queries, host parallelism {})\n",
        stream.len(),
        queries,
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
    );

    // Mixed read workload under a live writer, per pool size.
    let mut t = Table::new(&[
        "workers",
        "queries",
        "wall",
        "queries/s",
        "p50",
        "p95",
        "epochs",
    ]);
    for workers in [1usize, 2, 4] {
        let registry = Arc::new(GraphRegistry::new());
        let served = registry
            .create("e19", GraphConfig::new(n).seed(seed).shards(2))
            .expect("fresh registry");
        served.apply(stream.updates()).expect("in range");
        let epoch = served.advance_epoch();
        let _ = epoch.forest();
        let _ = epoch.oracle();

        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let served = Arc::clone(&served);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let u = i % (n as u32 - 1);
                    let _ = served.insert(u, u + 1);
                    let _ = served.delete(u, u + 1);
                    i += 1;
                    if i % 1024 == 0 {
                        served.advance_epoch();
                    }
                }
            })
        };
        let pool = QueryService::start(Arc::clone(&registry), workers);
        let mix = QueryMix {
            cut: 0, // the cut-artifact build is timed separately below
            ..QueryMix::read_heavy()
        };
        let load = LoadGen::new(n, mix, 5).hot_sources(8);
        let mut lat = Summary::new();
        let t0 = Instant::now();
        for i in 0..queries {
            let q0 = Instant::now();
            pool.query_blocking("e19", load.query(i)).expect("query");
            lat.push(q0.elapsed().as_secs_f64() * 1e6);
        }
        let wall = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer");
        let epochs = served.snapshot().epoch();
        pool.shutdown();
        t.add_row(&[
            workers.to_string(),
            queries.to_string(),
            format!("{:.1} ms", wall * 1e3),
            format!("{:.0}", queries as f64 / wall),
            format!("{:.1} µs", lat.quantile(0.5)),
            format!("{:.1} µs", lat.quantile(0.95)),
            epochs.to_string(),
        ]);
    }
    println!("{t}");

    // Oracle cache: repeated-source distance queries, cached vs not.
    let registry = GraphRegistry::new();
    let served = registry
        .create("oracle", GraphConfig::new(n).seed(seed).shards(2))
        .expect("fresh registry");
    served.apply(stream.updates()).expect("in range");
    let snapshot = served.advance_epoch();
    let cached = snapshot.oracle();
    let uncached = (*cached).clone().with_cache_capacity(0);
    let reps = scale.pick(20_000u64, 4_000);
    let run = |oracle: &dsg_spanner::oracle::DistanceOracle| {
        let t0 = Instant::now();
        let mut reach = 0u64;
        for i in 0..reps {
            let v = (i * 31 + 7) % n as u64;
            if oracle.estimate(3, v as Vertex).is_some() {
                reach += 1;
            }
        }
        (t0.elapsed().as_secs_f64(), reach)
    };
    let (cold_secs, r1) = run(&uncached);
    let (hot_secs, r2) = run(&cached);
    assert_eq!(r1, r2, "cache changed answers");
    let speedup = cold_secs / hot_secs;
    let stats = cached.cache_stats();
    let mut t = Table::new(&["oracle", "queries", "wall", "per query"]);
    t.add_row(&[
        "uncached (BFS per query)".into(),
        reps.to_string(),
        format!("{:.1} ms", cold_secs * 1e3),
        format!("{:.2} µs", cold_secs * 1e6 / reps as f64),
    ]);
    t.add_row(&[
        "cached (memoized row)".into(),
        reps.to_string(),
        format!("{:.1} ms", hot_secs * 1e3),
        format!("{:.2} µs", hot_secs * 1e6 / reps as f64),
    ]);
    println!("{t}");
    println!(
        "oracle cache speedup on a hot source: {speedup:.1}x ({} hits / {} misses)",
        stats.hits, stats.misses
    );
    assert!(
        speedup > 1.0,
        "repeated-source queries must beat BFS-per-query (got {speedup:.2}x)"
    );

    // Epoch advance: the price of a fresh consistent view.
    let advances = scale.pick(20u32, 8);
    let t0 = Instant::now();
    for _ in 0..advances {
        served.advance_epoch();
    }
    let mem_ms = t0.elapsed().as_secs_f64() * 1e3 / advances as f64;
    let t0 = Instant::now();
    for _ in 0..advances {
        served.advance_epoch_via_wire().expect("wire epoch");
    }
    let wire_ms = t0.elapsed().as_secs_f64() * 1e3 / advances as f64;
    println!(
        "epoch advance (2 shards, workers stay up): {mem_ms:.1} ms in-memory, \
         {wire_ms:.1} ms via wire snapshots"
    );

    // Snapshot-isolation spot check: the frozen epoch answers like an
    // offline single-sketch recompute of its prefix.
    let mut offline = dsg_agm::AgmSketch::new(n, seed);
    for up in stream.updates() {
        offline.update(up.edge, up.delta as i128);
    }
    let frozen = snapshot.forest();
    assert_eq!(
        frozen.result.edges,
        offline.spanning_forest().edges,
        "snapshot forest diverged from offline recompute"
    );
    println!("snapshot-isolation spot check: frozen epoch == offline recompute ✓");

    // One cut query, timing the lazy exact-Laplacian artifact build.
    let t0 = Instant::now();
    let side: Vec<Vertex> = (0..n as Vertex / 2).collect();
    let Response::CutEstimate(w) = snapshot
        .execute(&Query::CutEstimate(side))
        .expect("cut query")
    else {
        panic!("wrong variant");
    };
    println!(
        "first cut query (lazy exact-Laplacian build over frozen prefix): {:.2} ms, \
         cut {w:.1}",
        t0.elapsed().as_secs_f64() * 1e3
    );
    println!();
}
