//! A miniature serving deployment: one registry, two tenant graphs, a
//! worker-pool query front end, and a writer that keeps streaming edge
//! churn while epochs advance underneath the readers.
//!
//! Run with: `cargo run --release --example query_service`

use dsg_graph::{gen, GraphStream, Vertex};
use dsg_service::{
    AdminServer, FlightRecorder, GraphConfig, GraphRegistry, LoadGen, MetricRegistry, Query,
    QueryMix, QueryService, Response,
};
use dsg_util::json::{self, JsonValue};
use dsg_util::Summary;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let telemetry = Arc::new(MetricRegistry::new());
    // A flight recorder alongside the metrics: every layer appends
    // causal trace events into per-thread rings, dumped on demand.
    let registry = Arc::new(GraphRegistry::with_observability(
        Arc::clone(&telemetry),
        FlightRecorder::with_capacity(4096),
    ));

    // Two tenants with different shapes share the one service.
    let social = registry
        .create("social", GraphConfig::new(80).seed(7).shards(2))
        .expect("fresh registry");
    let roads = registry
        .create("roads", GraphConfig::new(40).seed(8).shards(2).spanner_k(3))
        .expect("fresh registry");
    println!(
        "registry hosts {} graphs: {:?}",
        registry.len(),
        registry.names()
    );

    // Seed both graphs with a dynamic stream (inserts and deletions).
    let social_stream = GraphStream::with_churn(&gen::erdos_renyi(80, 0.08, 1), 1.0, 2);
    let road_stream = GraphStream::with_churn(&gen::erdos_renyi(40, 0.12, 3), 0.5, 4);
    social.apply(social_stream.updates()).expect("in range");
    roads.apply(road_stream.updates()).expect("in range");

    // Freeze epoch 1 on both; readers will see exactly this prefix.
    let social_epoch = social.advance_epoch();
    let roads_epoch = roads.advance_epoch();
    println!(
        "epoch {} frozen for 'social' at {} updates; epoch {} for 'roads' at {}",
        social_epoch.epoch(),
        social_epoch.total_updates(),
        roads_epoch.epoch(),
        roads_epoch.total_updates(),
    );

    // A writer keeps the stream churning while queries are served.
    let writer = {
        let social = Arc::clone(&social);
        std::thread::spawn(move || {
            for v in 0..40u32 {
                social.insert(v, v + 40).expect("in range");
            }
            social.advance_epoch();
        })
    };

    // Serve a deterministic mixed workload through the worker pool.
    let pool = QueryService::start(Arc::clone(&registry), 4);
    // Cut queries are issued explicitly below, on the small tenant; the
    // pool workload covers the rest of the mix.
    let mix = QueryMix {
        cut: 0,
        ..QueryMix::read_heavy()
    };
    let load = LoadGen::new(80, mix, 42);
    let queries = load.queries(300);
    let mut latencies = Summary::new();
    let mut connected = 0usize;
    let t0 = Instant::now();
    for q in &queries {
        let t = Instant::now();
        match pool.query_blocking("social", q.clone()) {
            Ok(Response::SameComponent(true)) => connected += 1,
            Ok(_) => {}
            Err(e) => panic!("query failed: {e}"),
        }
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let wall = t0.elapsed().as_secs_f64();
    writer.join().expect("writer thread");
    println!(
        "served {} queries in {:.1} ms ({:.0} queries/s)",
        queries.len(),
        wall * 1e3,
        queries.len() as f64 / wall,
    );
    println!(
        "latency p50 {:.1} µs, p95 {:.1} µs; {} same-component pairs connected",
        latencies.quantile(0.5),
        latencies.quantile(0.95),
        connected,
    );

    // Distance queries on the second tenant, from a hot source.
    let hot: Vertex = 5;
    let mut reachable = 0usize;
    for v in 0..40u32 {
        if let Ok(Response::Distance(Some(_))) =
            pool.query_blocking("roads", Query::Distance(hot, v))
        {
            reachable += 1;
        }
    }
    let roads = registry.get("roads").expect("registered");
    let oracle = roads.snapshot().oracle();
    let served = roads.metrics();
    let cache = |outcome: &str| {
        served
            .counter(&format!(
                "dsg_service_oracle_cache_{outcome}_total{{graph=\"roads\"}}"
            ))
            .unwrap_or(0)
    };
    println!(
        "'roads' oracle (stretch {}): {} of 40 vertices reachable from {}; cache {} hits / {} misses",
        oracle.stretch(),
        reachable,
        hot,
        cache("hits"),
        cache("misses"),
    );

    // One explicit cut on the small tenant (builds the exact cut
    // Laplacian for its current epoch, lazily, exactly once).
    let side: Vec<Vertex> = (0..20).collect();
    let Ok(Response::CutEstimate(cut_weight)) =
        pool.query_blocking("roads", Query::CutEstimate(side))
    else {
        panic!("cut estimate failed");
    };
    println!("'roads' cut estimate for the low half: {cut_weight:.1}");

    // The frozen epoch still answers identically after further ingest.
    let Response::Stats(stats) = social_epoch.execute(&Query::Stats).expect("valid query") else {
        panic!("wrong response variant");
    };
    println!(
        "pinned snapshot: epoch {} with {} updates, artifacts {:?} (current epoch {})",
        stats.epoch,
        stats.total_updates,
        stats.artifacts,
        social.snapshot().epoch(),
    );
    pool.shutdown();

    // The same run, as the always-on telemetry layer saw it: per-tenant
    // snapshots expose exact counters and log2-bucketed latency
    // quantiles; render_prometheus() is the scrape a collector would get.
    let social_metrics = social.metrics();
    let sc = social_metrics
        .histogram("dsg_service_query_nanos{graph=\"social\",query=\"same_component\"}")
        .expect("pool queries were timed");
    println!(
        "telemetry: 'social' exposes {} series; same_component p95 {:.1} µs over {} calls",
        social_metrics.len(),
        sc.p95() as f64 / 1e3,
        sc.count(),
    );
    let roads_metrics = registry.get("roads").expect("registered").metrics();
    println!(
        "telemetry: 'roads' oracle cache hits={} misses={}, artifact builds: forest={} oracle={} laplacian={}",
        roads_metrics
            .counter("dsg_service_oracle_cache_hits_total{graph=\"roads\"}")
            .unwrap_or(0),
        roads_metrics
            .counter("dsg_service_oracle_cache_misses_total{graph=\"roads\"}")
            .unwrap_or(0),
        roads_metrics
            .counter("dsg_service_artifact_builds_total{artifact=\"forest\",graph=\"roads\"}")
            .unwrap_or(0),
        roads_metrics
            .counter("dsg_service_artifact_builds_total{artifact=\"oracle\",graph=\"roads\"}")
            .unwrap_or(0),
        roads_metrics
            .counter("dsg_service_artifact_builds_total{artifact=\"laplacian\",graph=\"roads\"}")
            .unwrap_or(0),
    );
    let exposition = registry.render_prometheus();
    println!(
        "prometheus exposition: {} lines, {} bytes; first engine series:",
        exposition.lines().count(),
        exposition.len(),
    );
    for line in exposition
        .lines()
        .filter(|l| l.starts_with("dsg_engine_"))
        .take(3)
    {
        println!("  {line}");
    }

    // The same surfaces over plain HTTP: bind the std-only admin server
    // on an ephemeral port and scrape it like Prometheus (or curl) would.
    let admin = AdminServer::bind("127.0.0.1:0", Arc::clone(&registry)).expect("ephemeral bind");
    let scrape = |path: &str| -> String {
        let mut conn = TcpStream::connect(admin.local_addr()).expect("connect");
        conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: demo\r\n\r\n").as_bytes())
            .expect("request");
        let mut raw = String::new();
        conn.read_to_string(&mut raw).expect("response");
        raw.split_once("\r\n\r\n")
            .map(|(_, body)| body.to_string())
            .unwrap_or_default()
    };
    let healthz = scrape("/healthz");
    let metrics = scrape("/metrics");
    let tracez = scrape("/tracez");
    println!(
        "admin endpoint at http://{}: /healthz says {:?}, /metrics {} lines, \
         /tracez {} bytes of Chrome trace JSON (open in a trace viewer)",
        admin.local_addr(),
        healthz.trim(),
        metrics.lines().count(),
        tracez.len(),
    );
    // Whether the answers are right: each `/qualityz` scrape runs the
    // self-audit battery on every tenant's current epoch, checking each
    // answer against an exact recompute off the sealed segment.
    let qualityz = scrape("/qualityz");
    let verdicts = json::parse(&qualityz).expect("/qualityz is JSON");
    let tenants = verdicts.as_array().expect("one verdict per tenant");
    let total = |key: &str| -> u64 {
        tenants
            .iter()
            .filter_map(|t| t.get(key).and_then(JsonValue::as_u64))
            .sum()
    };
    println!(
        "quality audit: {} tenants self-audited on their current epochs, {} answers \
         checked exactly, {} guarantee violations; /qualityz scrape {} bytes",
        tenants.len(),
        total("samples"),
        total("violations"),
        qualityz.len(),
    );
    assert_eq!(total("violations"), 0, "honest serving audits clean");
    let events = registry.tracer().dump();
    println!(
        "flight recorder: {} events across the run; last epoch publish traced as id {}",
        events.len(),
        events
            .iter()
            .rfind(|e| e.kind == dsg_service::EventKind::EpochPublish)
            .map(|e| e.trace_id)
            .unwrap_or(0),
    );
    admin.shutdown();
}
