//! A std-only admin scrape endpoint over plain [`TcpListener`].
//!
//! One background thread, no dependencies, five `GET` routes:
//!
//! | route | body |
//! |---|---|
//! | `/metrics` | the registry's Prometheus text exposition |
//! | `/healthz` | `ok` |
//! | `/epochz` | JSON array of per-tenant [`TenantEpochStats`] |
//! | `/tracez` | Chrome `trace_event` JSON: recorder dump + incidents |
//! | `/qualityz` | JSON quality-audit report: samples, error quantiles, violations |
//!
//! The server exists to be scraped — by Prometheus, by `curl`, by the CI
//! smoke test — not to be a web framework: it reads one request line,
//! answers with `Content-Length` + `Connection: close`, and hangs up.
//! Malformed requests get a 400, unknown paths a 404, and a read that
//! stalls past one second is dropped so a half-open client cannot wedge
//! the accept loop.

use crate::registry::GraphRegistry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running admin endpoint; dropping (or [`shutdown`](AdminServer::shutdown))
/// stops the accept loop and joins its thread.
#[derive(Debug)]
pub struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` (use port 0 for an ephemeral port, then read
    /// [`local_addr`](AdminServer::local_addr)) and starts serving
    /// `registry`'s observability surfaces on a background thread.
    ///
    /// # Errors
    ///
    /// Whatever [`TcpListener::bind`] reports.
    pub fn bind(addr: &str, registry: Arc<GraphRegistry>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("dsg-admin".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // One request per connection, served inline: the
                        // routes render in-memory state and an admin
                        // scraper arrives once a period, so a second
                        // thread would buy nothing.
                        let _ = serve_one(stream, &registry);
                    }
                }
            })
            .expect("failed to spawn admin server thread");
        Ok(Self {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (the ephemeral port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the server thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = thread.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Reads one request, routes it, writes one response.
fn serve_one(mut stream: TcpStream, registry: &GraphRegistry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(1)))?;
    let path = match read_request_path(&mut stream) {
        Some(path) => path,
        None => return respond(&mut stream, 400, "text/plain", "bad request\n"),
    };
    match path.as_str() {
        "/metrics" => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4",
            &registry.render_prometheus(),
        ),
        "/healthz" => respond(&mut stream, 200, "text/plain", "ok\n"),
        "/epochz" => respond(
            &mut stream,
            200,
            "application/json",
            &render_epochz(registry),
        ),
        "/tracez" => respond(
            &mut stream,
            200,
            "application/json",
            &registry.tracer().render_chrome_trace(),
        ),
        "/qualityz" => respond(
            &mut stream,
            200,
            "application/json",
            &registry.auditor().map_or_else(
                || crate::audit::QUALITYZ_DISABLED.to_string(),
                |a| a.render_qualityz(),
            ),
        ),
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// Parses `GET <path> HTTP/1.x` off the stream; returns `None` for
/// anything else (including non-GET methods and read timeouts).
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    // Requests of interest are a short request line + few headers; 4 KiB
    // is plenty and bounds a hostile sender.
    let mut buf = [0u8; 4096];
    let mut used = 0;
    loop {
        if used == buf.len() {
            return None;
        }
        let n = stream.read(&mut buf[used..]).ok()?;
        if n == 0 {
            return None;
        }
        used += n;
        if buf[..used].windows(2).any(|w| w == b"\r\n") {
            break;
        }
    }
    let line = std::str::from_utf8(&buf[..used]).ok()?.lines().next()?;
    let mut parts = line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let path = parts.next()?;
    // Ignore any query string: `/tracez?foo=1` routes as `/tracez`.
    Some(path.split('?').next().unwrap_or(path).to_string())
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        _ => "Not Found",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Renders the per-tenant epoch stats as a JSON array (names are
/// registry-validated identifiers, but escape anyway).
fn render_epochz(registry: &GraphRegistry) -> String {
    let mut out = String::from("[");
    for (i, t) in registry.epoch_stats().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"graph\":{},\"epoch\":{},\"total_updates\":{},\"net_edges\":{},\
             \"num_vertices\":{},\"load_balance\":{:.4},\
             \"incremental_builds\":{},\"full_builds\":{},\"last_patch_nanos\":{},\
             \"last_dirty_vertices\":{}}}",
            json_escape(&t.name),
            t.epoch,
            t.total_updates,
            t.net_edges,
            t.num_vertices,
            t.load_balance,
            t.incremental_builds,
            t.full_builds,
            t.last_patch_nanos,
            t.last_dirty_vertices
        ));
    }
    out.push_str("]\n");
    out
}

/// Renders `s` as a quoted JSON string literal (shared with the quality
/// auditor's `/qualityz` renderer).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code may unwrap freely

    use super::*;
    use crate::{FlightRecorder, GraphConfig, MetricRegistry};

    fn scrape(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_all_routes_and_shuts_down() {
        let registry = Arc::new(GraphRegistry::with_observability(
            Arc::new(MetricRegistry::new()),
            FlightRecorder::with_capacity(64),
        ));
        let g = registry.create("social", GraphConfig::new(8)).unwrap();
        g.insert(0, 1).unwrap();
        g.advance_epoch();
        let server = AdminServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.local_addr();

        let (status, body) = scrape(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, body) = scrape(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("dsg_engine_batches_sent_total"));
        let (status, body) = scrape(addr, "/epochz");
        assert_eq!(status, 200);
        assert!(body.contains("\"graph\":\"social\"") && body.contains("\"epoch\":1"));
        assert!(
            body.contains("\"incremental_builds\":")
                && body.contains("\"full_builds\":")
                && body.contains("\"last_patch_nanos\":"),
            "epochz must expose the incremental-vs-full artifact tallies"
        );
        assert!(
            body.contains("\"last_dirty_vertices\":2"),
            "one inserted edge dirties its two endpoints: {body}"
        );
        let (status, body) = scrape(addr, "/tracez?limit=10");
        assert_eq!(status, 200);
        assert!(body.contains("\"traceEvents\""));
        assert!(
            body.contains("epoch_publish"),
            "epoch advance must be traced"
        );
        let (status, _) = scrape(addr, "/nope");
        assert_eq!(status, 404);

        server.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || scrape_err(addr),
            "server must stop accepting after shutdown"
        );
    }

    /// After shutdown the listener is closed; a connect may still succeed
    /// transiently on some stacks, but a request must not be answered.
    fn scrape_err(addr: SocketAddr) -> bool {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            return true;
        };
        if stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").is_err() {
            return true;
        }
        let mut out = String::new();
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        stream.read_to_string(&mut out).unwrap_or(0) == 0
    }

    #[test]
    fn malformed_requests_get_400() {
        let registry = Arc::new(GraphRegistry::new());
        let server = AdminServer::bind("127.0.0.1:0", registry).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 400"), "got: {raw}");
    }
}
