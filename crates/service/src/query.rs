//! The typed query API and the worker pool that executes it.
//!
//! [`Query`] names the read operations the paper's structures support:
//! connectivity and same-component from the AGM spanning forest (Theorem
//! 10), distance estimates and far/near threshold tests from the spanner
//! oracle (stretch `2k − 1`; the `ESTIMATE` primitive of Algorithm 4), exact
//! cut values from the Laplacian of the epoch's sealed segment, and a
//! stats probe. [`QueryService`] fans queries
//! out to a pool of worker threads over the shared [`GraphRegistry`];
//! each worker resolves the target graph's *current* epoch snapshot and
//! executes against it, so workers never block ingest and ingest never
//! tears a read.

use crate::audit::AuditSample;
use crate::epoch::ArtifactStatus;
use crate::metrics::QUERY_VARIANTS;
use crate::registry::GraphRegistry;
use crate::ServiceError;
use dsg_graph::Vertex;
use dsg_telemetry::{trace, EventKind, FlightRecorder, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A read operation against one served graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Is the graph connected, and how many components does it have?
    Connectivity,
    /// Are two vertices in the same connected component?
    SameComponent(Vertex, Vertex),
    /// Stretch-`(2k − 1)` distance estimate between two vertices (`None`
    /// when disconnected).
    Distance(Vertex, Vertex),
    /// Is the estimated distance strictly greater than `threshold`?
    IsFar {
        /// Source vertex.
        u: Vertex,
        /// Target vertex.
        v: Vertex,
        /// The distance threshold.
        threshold: u32,
    },
    /// Weight of the cut separating `side` from the rest (exact: read off
    /// the epoch's live graph).
    CutEstimate(Vec<Vertex>),
    /// Epoch / ingest / artifact diagnostics.
    Stats,
}

impl Query {
    /// Dense index of this variant, `0..6` — the row a per-variant
    /// telemetry table keys on.
    pub fn variant_index(&self) -> usize {
        match self {
            Query::Connectivity => 0,
            Query::SameComponent(..) => 1,
            Query::Distance(..) => 2,
            Query::IsFar { .. } => 3,
            Query::CutEstimate(..) => 4,
            Query::Stats => 5,
        }
    }

    /// The `query` label value this variant reports under in telemetry
    /// series (e.g. `dsg_service_query_nanos{query="distance"}`).
    pub fn variant_label(&self) -> &'static str {
        QUERY_VARIANTS[self.variant_index()]
    }
}

/// Diagnostics returned by [`Query::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// The answering snapshot's epoch.
    pub epoch: u64,
    /// Vertices of the served graph.
    pub num_vertices: usize,
    /// Updates frozen into the answering snapshot.
    pub total_updates: u64,
    /// Which derived artifacts the snapshot has built.
    pub artifacts: ArtifactStatus,
}

/// The answer to a [`Query`] (variants correspond one-to-one).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Query::Connectivity`].
    Connectivity {
        /// Whether the graph is connected.
        connected: bool,
        /// Number of connected components.
        num_components: usize,
    },
    /// Answer to [`Query::SameComponent`].
    SameComponent(bool),
    /// Answer to [`Query::Distance`].
    Distance(Option<u32>),
    /// Answer to [`Query::IsFar`].
    IsFar(bool),
    /// Answer to [`Query::CutEstimate`].
    CutEstimate(f64),
    /// Answer to [`Query::Stats`].
    Stats(GraphStats),
}

/// One unit of pool work: a query, its target graph, and the reply slot.
struct Job {
    graph: String,
    query: Query,
    reply: SyncSender<Result<Response, ServiceError>>,
    /// Submission time, captured only when the pool is instrumented —
    /// lets workers report **queue wait** separately from execution, so
    /// a saturated pool (wait grows, execute flat) is distinguishable
    /// from slow queries (execute grows).
    enqueued: Option<Instant>,
    /// Causal trace id minted at submit (0 when the pool's recorder is a
    /// no-op) — the worker installs it as the ambient id for the whole
    /// execution, so artifact builds and epoch work land in this query's
    /// chain.
    trace_id: u64,
}

/// A handle to one submitted query; [`wait`](QueryTicket::wait) blocks
/// for the answer.
#[derive(Debug)]
pub struct QueryTicket {
    reply: Option<Receiver<Result<Response, ServiceError>>>,
}

impl QueryTicket {
    /// Blocks until the pool answers.
    ///
    /// # Errors
    ///
    /// The query's own [`ServiceError`], or
    /// [`ServiceError::PoolShutDown`] if the pool died before answering.
    pub fn wait(self) -> Result<Response, ServiceError> {
        match self.reply {
            Some(rx) => rx.recv().unwrap_or(Err(ServiceError::PoolShutDown)),
            None => Err(ServiceError::PoolShutDown),
        }
    }
}

/// Incident window [`QueryService`]'s slow-query watchdog captures
/// around a flagged query: every event within the last 50 ms joins the
/// events sharing the query's trace id.
const INCIDENT_WINDOW_NANOS: u64 = 50_000_000;

/// A fixed pool of query-worker threads over a shared registry.
#[derive(Debug)]
pub struct QueryService {
    registry: Arc<GraphRegistry>,
    jobs: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    queue_wait: Histogram,
    tracer: FlightRecorder,
    /// Slow-query watchdog threshold in nanoseconds (`u64::MAX` = off).
    /// Shared with the workers so
    /// [`set_slow_query_threshold`](QueryService::set_slow_query_threshold)
    /// takes effect on in-flight pools.
    slow_nanos: Arc<AtomicU64>,
}

impl QueryService {
    /// Starts `workers` query threads over `registry`. The pool traces
    /// into the registry's [`FlightRecorder`] — no-op unless the registry
    /// was built with
    /// [`GraphRegistry::with_observability`](crate::GraphRegistry::with_observability).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or a thread cannot be spawned.
    pub fn start(registry: Arc<GraphRegistry>, workers: usize) -> Self {
        assert!(workers > 0, "need at least one query worker");
        let telemetry = registry.telemetry();
        let queue_wait = telemetry.histogram("dsg_service_pool_queue_wait_nanos");
        let execute = telemetry.histogram("dsg_service_pool_execute_nanos");
        let tracer = registry.tracer().clone();
        // Captured once at pool start: install the auditor on the
        // registry *before* starting pools that should sample into it.
        let auditor = registry.auditor();
        let slow_nanos = Arc::new(AtomicU64::new(u64::MAX));
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let registry = Arc::clone(&registry);
                let queue_wait = queue_wait.clone();
                let execute = execute.clone();
                let tracer = tracer.clone();
                let auditor = auditor.clone();
                let slow_nanos = Arc::clone(&slow_nanos);
                std::thread::Builder::new()
                    .name(format!("dsg-query-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only while dequeuing, not
                        // while executing — workers run queries in parallel.
                        let job = match rx.lock().expect("job queue poisoned").recv() {
                            Ok(job) => job,
                            Err(_) => break,
                        };
                        if let Some(enqueued) = job.enqueued {
                            let wait = enqueued.elapsed();
                            queue_wait.record_duration(wait);
                            tracer.record(
                                EventKind::QueryDequeue,
                                job.trace_id,
                                0,
                                wait.as_nanos() as u64,
                            );
                        }
                        // Explicit timing (not `execute.time`) because the
                        // watchdog needs the elapsed value even when the
                        // execute histogram is a no-op.
                        let threshold = slow_nanos.load(Ordering::Relaxed);
                        let timed =
                            execute.is_active() || job.trace_id != 0 || threshold != u64::MAX;
                        let started = timed.then(Instant::now);
                        // Deterministic audit sampling: decided before
                        // execution so the sampled path can pin the
                        // answering snapshot for the shadow recompute.
                        let sampled = auditor.as_ref().filter(|a| a.should_sample(job.trace_id));
                        let mut audit_sample = None;
                        let result = {
                            let _scope = trace::scoped(job.trace_id);
                            match sampled {
                                None => registry.get(&job.graph).and_then(|g| g.query(&job.query)),
                                Some(_) => registry.get(&job.graph).and_then(|g| {
                                    let (snap, result) = g.query_pinned(&job.query);
                                    if let Ok(response) = &result {
                                        audit_sample = Some(AuditSample {
                                            graph: job.graph.clone(),
                                            trace_id: job.trace_id,
                                            query: job.query.clone(),
                                            response: response.clone(),
                                            snapshot: snap,
                                        });
                                    }
                                    result
                                }),
                            }
                        };
                        if let Some(started) = started {
                            let nanos = started.elapsed().as_nanos() as u64;
                            execute.record(nanos);
                            tracer.record(EventKind::QueryExecute, job.trace_id, 0, nanos);
                            if nanos >= threshold {
                                tracer.record(EventKind::SlowQuery, job.trace_id, 0, nanos);
                                tracer.capture_incident(
                                    job.trace_id,
                                    format!("{}:{}", job.graph, job.query.variant_label()),
                                    nanos,
                                    INCIDENT_WINDOW_NANOS,
                                );
                            }
                        }
                        // A dropped ticket is fine; the answer is discarded.
                        let _ = job.reply.send(result);
                        // Enqueue the audit sample only after the answer
                        // is out: auditing never delays the caller, and a
                        // full queue just counts an overflow.
                        if let (Some(auditor), Some(sample)) = (sampled, audit_sample) {
                            auditor.offer(sample);
                        }
                    })
                    .expect("failed to spawn query worker")
            })
            .collect();
        Self {
            registry,
            jobs: Some(tx),
            workers: handles,
            queue_wait,
            tracer,
            slow_nanos,
        }
    }

    /// Arms (or re-arms) the slow-query watchdog: any pool query whose
    /// execution exceeds `threshold` records a `SlowQuery` event and
    /// captures the surrounding event window as an
    /// [`Incident`](dsg_telemetry::Incident) on the registry's recorder.
    /// Effective immediately, including for in-flight pools.
    pub fn set_slow_query_threshold(&self, threshold: Duration) {
        self.slow_nanos
            .store(threshold.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The registry this pool serves.
    pub fn registry(&self) -> &Arc<GraphRegistry> {
        &self.registry
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a query against `graph`; returns immediately with a
    /// ticket for the answer.
    pub fn submit(&self, graph: &str, query: Query) -> QueryTicket {
        let (reply_tx, reply_rx) = sync_channel(1);
        let trace_id = self.tracer.next_trace_id();
        self.tracer.record(
            EventKind::QuerySubmit,
            trace_id,
            0,
            query.variant_index() as u64,
        );
        let job = Job {
            graph: graph.to_string(),
            query,
            reply: reply_tx,
            enqueued: (self.queue_wait.is_active() || trace_id != 0).then(Instant::now),
            trace_id,
        };
        match &self.jobs {
            Some(tx) if tx.send(job).is_ok() => QueryTicket {
                reply: Some(reply_rx),
            },
            _ => QueryTicket { reply: None },
        }
    }

    /// Submits and waits — the one-call convenience path.
    ///
    /// # Errors
    ///
    /// Whatever the query execution produces, or
    /// [`ServiceError::PoolShutDown`].
    pub fn query_blocking(&self, graph: &str, query: Query) -> Result<Response, ServiceError> {
        self.submit(graph, query).wait()
    }

    /// Drains the queue and joins every worker.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        drop(self.jobs.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code may unwrap freely

    use super::*;
    use crate::GraphConfig;
    use dsg_graph::StreamUpdate;

    fn pool_with_path_graph(n: usize, workers: usize) -> QueryService {
        let registry = Arc::new(GraphRegistry::new());
        let g = registry.create("g", GraphConfig::new(n).seed(3)).unwrap();
        let updates: Vec<StreamUpdate> = (0..n as Vertex - 1)
            .map(|v| StreamUpdate::insert(v, v + 1))
            .collect();
        g.apply(&updates).unwrap();
        g.advance_epoch();
        QueryService::start(registry, workers)
    }

    #[test]
    fn pool_answers_queries() {
        let pool = pool_with_path_graph(10, 3);
        let r = pool.query_blocking("g", Query::Connectivity).unwrap();
        assert_eq!(
            r,
            Response::Connectivity {
                connected: true,
                num_components: 1
            }
        );
        let r = pool
            .query_blocking("g", Query::SameComponent(0, 9))
            .unwrap();
        assert_eq!(r, Response::SameComponent(true));
        let Response::Distance(Some(d)) = pool.query_blocking("g", Query::Distance(0, 9)).unwrap()
        else {
            panic!("path endpoints must be connected");
        };
        assert!((9..=9 * 4).contains(&(d as usize)), "stretch violated: {d}");
        pool.shutdown();
    }

    #[test]
    fn unknown_graph_is_an_error_not_a_hang() {
        let pool = pool_with_path_graph(6, 2);
        assert!(matches!(
            pool.query_blocking("nope", Query::Stats),
            Err(ServiceError::UnknownGraph(_))
        ));
    }

    #[test]
    fn many_concurrent_tickets_resolve() {
        let pool = pool_with_path_graph(12, 4);
        let tickets: Vec<QueryTicket> = (0..64)
            .map(|i| pool.submit("g", Query::SameComponent(i % 12, (i + 1) % 12)))
            .collect();
        for t in tickets {
            assert_eq!(t.wait().unwrap(), Response::SameComponent(true));
        }
    }

    #[test]
    fn submit_after_shutdown_reports_pool_down() {
        let registry = Arc::new(GraphRegistry::new());
        let mut pool = QueryService::start(registry, 1);
        pool.shutdown_in_place();
        assert!(matches!(
            pool.submit("g", Query::Stats).wait(),
            Err(ServiceError::PoolShutDown)
        ));
    }
}
