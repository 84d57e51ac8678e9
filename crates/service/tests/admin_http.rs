//! Live-socket smoke test of the admin endpoint: bind an ephemeral port,
//! scrape every route over real TCP, and validate the JSON routes
//! *structurally* with `dsg_util::json` — the same checks CI runs.

#![allow(clippy::unwrap_used)] // test code may unwrap freely

use dsg_graph::StreamUpdate;
use dsg_service::{
    AdminServer, AuditConfig, FlightRecorder, GraphConfig, GraphRegistry, MetricRegistry, Query,
    QueryService,
};
use dsg_util::json::{parse, JsonValue};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn scrape(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap();
    (status, body)
}

#[test]
fn admin_endpoint_serves_scrapable_metrics_and_valid_trace_json() {
    let registry = Arc::new(GraphRegistry::with_observability(
        Arc::new(MetricRegistry::new()),
        FlightRecorder::with_capacity(1024),
    ));
    let g = registry
        .create("social", GraphConfig::new(32).shards(2))
        .unwrap();
    g.apply(
        &(0..20)
            .map(|v| StreamUpdate::insert(v, v + 1))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    g.advance_epoch();

    // Push one query through the pool with an always-firing watchdog so
    // `/tracez` has both events and an incident to render.
    let pool = QueryService::start(Arc::clone(&registry), 1);
    pool.set_slow_query_threshold(Duration::from_nanos(1));
    let ticket = pool.submit("social", Query::SameComponent(0, 5));
    ticket.wait().unwrap();
    pool.shutdown();

    let server = AdminServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let addr = server.local_addr();

    let (status, body) = scrape(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(!body.is_empty());

    let (status, body) = scrape(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(!body.is_empty(), "/metrics body must be non-empty");
    assert!(body.contains("dsg_engine_batches_sent_total"));
    assert!(body.contains("graph=\"social\""));
    assert!(body.contains("dsg_service_epoch_dirty_vertices"));

    // /epochz parses as a JSON array of per-tenant objects.
    let (status, body) = scrape(addr, "/epochz");
    assert_eq!(status, 200);
    let epochz = parse(&body).expect("/epochz must be valid JSON");
    let tenants = epochz.as_array().expect("/epochz must be an array");
    assert_eq!(tenants.len(), 1);
    let t = &tenants[0];
    assert_eq!(t.get("graph").and_then(JsonValue::as_str), Some("social"));
    assert_eq!(t.get("epoch").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(t.get("total_updates").and_then(JsonValue::as_u64), Some(20));
    assert!(t.get("net_edges").and_then(JsonValue::as_u64).unwrap() > 0);
    // The 20 path edges touch vertices 0..=20.
    assert_eq!(
        t.get("last_dirty_vertices").and_then(JsonValue::as_u64),
        Some(21)
    );

    // /tracez parses as Chrome trace_event JSON with well-formed events.
    let (status, body) = scrape(addr, "/tracez");
    assert_eq!(status, 200);
    let tracez = parse(&body).expect("/tracez must be valid JSON");
    assert_eq!(
        tracez.get("displayTimeUnit").and_then(JsonValue::as_str),
        Some("ns")
    );
    let events = tracez
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents must be an array");
    assert!(!events.is_empty(), "the workload above must leave events");
    let mut names = std::collections::BTreeSet::new();
    for e in events {
        let name = e.get("name").and_then(JsonValue::as_str).expect("name");
        names.insert(name.to_string());
        assert_eq!(e.get("ph").and_then(JsonValue::as_str), Some("i"));
        assert!(e.get("ts").and_then(JsonValue::as_f64).is_some(), "ts");
        let args = e.get("args").expect("args object");
        assert!(args.get("trace_id").and_then(JsonValue::as_u64).is_some());
        assert!(args.get("nanos").and_then(JsonValue::as_u64).is_some());
    }
    for expected in [
        "query_submit",
        "query_execute",
        "epoch_publish",
        "slow_query",
    ] {
        assert!(names.contains(expected), "missing event kind {expected}");
    }
    let incidents = tracez
        .get("incidents")
        .and_then(JsonValue::as_array)
        .expect("incidents must be an array");
    assert!(!incidents.is_empty(), "the 1ns watchdog must have fired");
    assert!(incidents[0]
        .get("label")
        .and_then(JsonValue::as_str)
        .unwrap()
        .starts_with("social:"));

    server.shutdown();
}

/// `/qualityz` answers on both sides of auditor installation: the
/// disabled stub without one, and a populated report (with the sampled
/// queries accounted for) once the auditor has run.
#[test]
fn qualityz_reports_disabled_then_audited_state() {
    let registry = Arc::new(GraphRegistry::with_observability(
        Arc::new(MetricRegistry::new()),
        FlightRecorder::with_capacity(1024),
    ));
    let g = registry
        .create("social", GraphConfig::new(16).shards(2))
        .unwrap();
    g.apply(
        &(0..12)
            .map(|v| StreamUpdate::insert(v, v + 1))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    g.advance_epoch();
    let server = AdminServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let addr = server.local_addr();

    // No auditor installed: the route still answers, explicitly disabled.
    let (status, body) = scrape(addr, "/qualityz");
    assert_eq!(status, 200);
    let doc = parse(&body).expect("/qualityz must be valid JSON when disabled");
    assert_eq!(doc.get("enabled").and_then(JsonValue::as_bool), Some(false));

    // Audit every query, serve a few, and the scrape reflects them.
    let auditor = registry.install_auditor(AuditConfig {
        sample_every: 1,
        ..AuditConfig::default()
    });
    let pool = QueryService::start(Arc::clone(&registry), 1);
    for v in 1..6 {
        pool.query_blocking("social", Query::Distance(0, v))
            .unwrap();
    }
    pool.shutdown();
    auditor.flush();

    let (status, body) = scrape(addr, "/qualityz");
    assert_eq!(status, 200);
    let doc = parse(&body).expect("/qualityz must be valid JSON when enabled");
    assert_eq!(doc.get("enabled").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(doc.get("sample_every").and_then(JsonValue::as_u64), Some(1));
    let tenants = doc.get("tenants").and_then(JsonValue::as_array).unwrap();
    let tenant = tenants
        .iter()
        .find(|t| t.get("graph").and_then(JsonValue::as_str) == Some("social"))
        .expect("audited tenant listed");
    assert!(tenant.get("samples").and_then(JsonValue::as_u64).unwrap() >= 5);
    assert_eq!(
        tenant.get("violations").and_then(JsonValue::as_u64),
        Some(0),
        "an honest path graph must audit clean: {body}"
    );

    server.shutdown();
}

/// Many clients scraping every route at once: each connection gets a
/// complete, well-formed response — no torn bodies, no wedged accepts.
#[test]
fn concurrent_scrapes_all_get_complete_responses() {
    let registry = Arc::new(GraphRegistry::with_observability(
        Arc::new(MetricRegistry::new()),
        FlightRecorder::with_capacity(1024),
    ));
    let g = registry.create("social", GraphConfig::new(16)).unwrap();
    g.insert(0, 1).unwrap();
    g.advance_epoch();
    let server = AdminServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let addr = server.local_addr();

    let routes = ["/metrics", "/healthz", "/epochz", "/tracez", "/qualityz"];
    let handles: Vec<_> = (0..4)
        .flat_map(|_| routes)
        .map(|route| {
            std::thread::spawn(move || {
                let (status, body) = scrape(addr, route);
                assert_eq!(status, 200, "route {route} must answer under load");
                assert!(!body.is_empty(), "route {route} body must be complete");
                if route != "/metrics" && route != "/healthz" {
                    parse(&body).expect("JSON routes must stay well-formed");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no scraper may panic");
    }
    server.shutdown();
}

/// Hostile request lines — binary garbage, non-GET methods, a request
/// line past the 4 KiB cap, and a half-open client that sends nothing —
/// are bounded and rejected, and the server keeps serving afterwards.
#[test]
fn hostile_request_lines_are_rejected_and_server_survives() {
    let registry = Arc::new(GraphRegistry::new());
    let server = AdminServer::bind("127.0.0.1:0", registry).unwrap();
    let addr = server.local_addr();

    let send_raw = |payload: &[u8]| -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        // The server may reset mid-write on oversized input; that is a
        // rejection too, so the write result is folded into the read.
        let _ = stream.write_all(payload);
        let mut raw = String::new();
        let _ = stream.read_to_string(&mut raw);
        raw
    };

    // Binary garbage and a non-GET method both get an explicit 400.
    assert!(send_raw(b"\x00\xff\x13\x37garbage\r\n\r\n").starts_with("HTTP/1.1 400"));
    assert!(send_raw(b"DELETE /metrics HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 400"));

    // A request line larger than the 4 KiB read cap (no CRLF inside the
    // cap) is cut off rather than buffered without bound: the client
    // sees a 400 — or a reset, when the server's close-with-unread-data
    // races the response. Either way the line was bounded.
    let oversized = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(8 * 1024));
    let raw = send_raw(oversized.as_bytes());
    assert!(
        raw.is_empty() || raw.starts_with("HTTP/1.1 400"),
        "oversized request line must be rejected, got: {raw}"
    );

    // A half-open client that never writes is dropped by the read
    // timeout instead of wedging the accept loop.
    let idle = TcpStream::connect(addr).unwrap();

    // After all of the above the server still answers honest requests.
    let (status, body) = scrape(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    drop(idle);
    server.shutdown();
}
