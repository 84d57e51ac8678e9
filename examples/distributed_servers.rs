//! Distributed sketching: the paper's opening scenario, actually running.
//! Edge updates are "distributed and presented online ... on multiple
//! servers"; here each server is a real worker thread of the sharded
//! ingest engine (`dsg-engine`). Every shard sketches only the update
//! batches routed to it, serializes its sketch into a checksummed wire
//! snapshot — what it would ship over the network — and the coordinator
//! verifies, decodes, and merge-tree-reduces the snapshots to answer
//! global queries with communication proportional to the sketch size, not
//! the stream length.
//!
//! Run with: `cargo run --release --example distributed_servers`

use dsg_agm::AgmSketch;
use dsg_core::prelude::*;
use dsg_engine::{
    load_balance_ratio, reduce_snapshots, EdgeUpdate, EngineConfig, EngineMetrics, ShardedEngine,
};
use dsg_graph::components::is_spanning_forest;
use dsg_telemetry::{series, MetricRegistry};

fn main() {
    let n = 250;
    let servers = 8;
    let shared_seed = 4242;
    let graph = gen::erdos_renyi(n, 0.03, 11);
    let stream = GraphStream::with_churn(&graph, 1.0, 12);
    println!(
        "global graph: {} vertices / {} edges; {} updates sharded over {} server threads",
        n,
        graph.num_edges(),
        stream.len(),
        servers
    );

    // Every server holds an AGM sketch with the SAME shared seed — the
    // "agreed upon" randomness of the paper — and ingests the update
    // batches the engine routes to it, concurrently on its own thread.
    let cfg = EngineConfig::new(servers).batch_size(128);
    let mut engine = ShardedEngine::start(cfg, |_| AgmSketch::new(n, shared_seed));
    // Instrument the run: the engine records routing, batching, and
    // backpressure into pre-resolved handles (one relaxed atomic per
    // event — cheap enough to leave on in production).
    let telemetry = MetricRegistry::new();
    engine.set_metrics(EngineMetrics {
        routed: (0..servers)
            .map(|s| {
                telemetry.counter(&series(
                    "dsg_engine_updates_routed_total",
                    &[("graph", "global"), ("shard", &s.to_string())],
                ))
            })
            .collect(),
        batches_sent: telemetry.counter("dsg_engine_batches_sent_total{graph=\"global\"}"),
        send_wait: telemetry.histogram("dsg_engine_send_wait_nanos{graph=\"global\"}"),
        load_balance: telemetry.gauge("dsg_engine_load_balance{graph=\"global\"}"),
        ..EngineMetrics::default()
    });
    for up in stream.updates() {
        engine.push(EdgeUpdate::new(up.edge.index(n), up.delta as i128));
    }
    let run = engine.finish();
    println!(
        "shard ingest counts: {:?} (hash-partitioned by edge id, max/mean = {:.3})",
        run.per_shard_updates,
        load_balance_ratio(&run.per_shard_updates)
    );

    // Communication: each server ships its wire-format snapshot. The
    // crucial property is that the snapshot size depends only on the
    // sketched graph — not on how long the update stream ran.
    let snapshots = run.snapshots();
    let shipped: usize = snapshots.iter().map(Vec::len).sum();
    println!(
        "communication: {} of snapshots ({} per server, checksummed wire frames)",
        dsg_util::space::human_bytes(shipped),
        dsg_util::space::human_bytes(shipped / servers),
    );
    let long_stream = GraphStream::with_churn(&graph, 4.0, 13);
    let mut long_shard = AgmSketch::new(n, shared_seed);
    for up in long_stream.updates() {
        long_shard.update(up.edge, up.delta as i128);
    }
    println!(
        "stream of {} updates -> snapshots {}; stream of {} updates -> snapshot {}",
        stream.len(),
        dsg_util::space::human_bytes(shipped),
        long_stream.len(),
        dsg_util::space::human_bytes(long_shard.to_bytes().len()),
    );
    println!("(snapshot size tracks the graph, not the stream length)");

    // The coordinator decodes the snapshots (checksums catch corruption),
    // merge-tree-reduces them by linearity, and extracts a spanning
    // forest of the global graph (Theorem 10).
    let global: AgmSketch = reduce_snapshots(&snapshots)
        .expect("snapshots verify and decode")
        .expect("at least one server");
    let forest = global.spanning_forest();
    println!(
        "coordinator recovered a spanning forest with {} edges ({} components)",
        forest.edges.len(),
        n - forest.edges.len()
    );
    assert!(is_spanning_forest(&graph, &forest.edges));

    // Sanity: the distributed answer is exactly the single-server answer.
    let mut single = AgmSketch::new(n, shared_seed);
    for up in stream.updates() {
        single.update(up.edge, up.delta as i128);
    }
    assert_eq!(
        forest.edges,
        single.spanning_forest().edges,
        "sharded ingest must answer identically to a single sketch"
    );
    println!("forest verified against ground truth and single-server run ✓");

    // What the telemetry layer captured, snapshot first (exact counts,
    // live gauge) and then the Prometheus exposition a scraper would see.
    let metrics = telemetry.snapshot();
    let total_routed: u64 = (0..servers)
        .map(|s| {
            metrics
                .counter(&series(
                    "dsg_engine_updates_routed_total",
                    &[("graph", "global"), ("shard", &s.to_string())],
                ))
                .unwrap_or(0)
        })
        .sum();
    println!(
        "telemetry: {} updates routed in {} batches, live load_balance gauge {:.3}",
        total_routed,
        metrics
            .counter("dsg_engine_batches_sent_total{graph=\"global\"}")
            .unwrap_or(0),
        metrics
            .gauge("dsg_engine_load_balance{graph=\"global\"}")
            .unwrap_or(0.0),
    );
    let exposition = telemetry.render_prometheus();
    println!(
        "prometheus exposition ({} lines):",
        exposition.lines().count()
    );
    for line in exposition
        .lines()
        .filter(|l| l.starts_with("dsg_engine_batches") || l.starts_with("dsg_engine_load"))
    {
        println!("  {line}");
    }
}
