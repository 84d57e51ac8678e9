//! Online accuracy auditing: sampled shadow recomputes of served answers.
//!
//! Most of what this service promises is probabilistic — the spanner
//! oracle answers within stretch `2^k` (Theorem 1), the AGM forest is
//! correct whp (Theorem 10); cut values are exact, read off the sealed
//! segment's Laplacian — and the metrics and traces elsewhere in this
//! workspace observe *latency*, never *correctness*. The
//! [`QualityAuditor`] closes that gap: for a deterministically sampled
//! fraction of served queries
//! (default 1 in [`AuditConfig::sample_every`], keyed on the query's
//! trace id so the same request is sampled on every replica), the exact
//! answer is recomputed **off the epoch's sealed [`NetMultiset`]
//! segment** and compared against what was served.
//!
//! The recompute is cheap *because of* the compaction work of earlier
//! PRs: the sealed net segment is O(live graph), not O(stream length),
//! so an exact BFS / union-find / Laplacian cut over
//! [`NetMultiset::final_graph`] costs one pass over current edges.
//!
//! Cost discipline mirrors the slow-query watchdog:
//!
//! * the query hot path only checks `trace_id % sample_every` and, for
//!   sampled queries, enqueues a `(trace id, query, response, snapshot)`
//!   sample into a **bounded** queue — overflow is counted and the
//!   sample dropped, the serving thread never blocks;
//! * a dedicated `dsg-audit` worker drains the queue and does all exact
//!   recomputation off the hot path;
//! * a guarantee violation records an
//!   [`EventKind::QualityViolation`] flight-recorder event and captures
//!   an incident window exactly like the watchdog, so `/tracez` and
//!   `/qualityz` tell one story.
//!
//! [`NetMultiset`]: dsg_graph::NetMultiset
//! [`NetMultiset::final_graph`]: dsg_graph::NetMultiset::final_graph

use crate::epoch::EpochSnapshot;
use crate::metrics::QUERY_VARIANTS;
use crate::query::{Query, Response};
use dsg_graph::bfs::{bfs_distances, UNREACHABLE};
use dsg_graph::components::connected_components;
use dsg_graph::Vertex;
use dsg_sketch::DistinctEstimator;
use dsg_sparsifier::Laplacian;
use dsg_telemetry::{
    series, Counter, EventKind, FlightRecorder, Histogram, HistogramSnapshot, MetricRegistry,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Incident window a quality violation captures, matching the slow-query
/// watchdog's so `/tracez` incidents look alike regardless of trigger.
const INCIDENT_WINDOW_NANOS: u64 = 50_000_000;

/// How many recent violations [`QualityAuditor::recent_violations`]
/// retains (oldest dropped first), mirroring the recorder's incident cap.
pub const MAX_RECENT_VIOLATIONS: usize = 32;

/// Tuning knobs of the [`QualityAuditor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditConfig {
    /// Audit one in this many served queries (deterministic on the trace
    /// id; `1` audits everything). Default 64.
    pub sample_every: u64,
    /// Bounded audit-queue capacity; a full queue counts an overflow and
    /// drops the sample rather than blocking the serving thread.
    pub queue_capacity: usize,
    /// Multiplicative sandwich a cut estimate must stay inside relative
    /// to the exact cut (`exact/slack ≤ est ≤ slack·exact`). Served cuts
    /// are exact (the epoch's cut Laplacian is the sealed segment's own),
    /// so honest answers pass at any slack ≥ 1.
    pub cut_slack: f64,
    /// Relative slack allowed to the KNW distinct-edge estimator before
    /// its disagreement with the exact count is a violation.
    pub distinct_slack: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            sample_every: 64,
            queue_capacity: 256,
            cut_slack: 3.0,
            distinct_slack: 0.5,
        }
    }
}

/// One sampled serving decision, captured on the hot path and verified
/// on the audit worker. Holds the *answering* snapshot so an epoch
/// advance between serving and auditing cannot fake a violation.
#[derive(Debug)]
pub struct AuditSample {
    /// The served graph's registry name.
    pub graph: String,
    /// Trace id of the audited request (joins the causal chain).
    pub trace_id: u64,
    /// The query as served.
    pub query: Query,
    /// The answer that went out.
    pub response: Response,
    /// The epoch snapshot that answered.
    pub snapshot: Arc<EpochSnapshot>,
}

/// The verdict of one audited answer.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditFinding {
    /// Whether the served answer broke its guarantee.
    pub violation: bool,
    /// Observed deviation in parts per thousand: the stretch ratio above
    /// 1 for distances, the relative error for cuts and counts, and
    /// 0/1000 for boolean disagreements.
    pub error_permille: u64,
    /// Human-readable one-liner (what was served vs what is exact).
    pub detail: String,
}

/// Integer-only quality verdict (exact-equality friendly), carried by
/// `dsg_store::TenantRecovery` after the post-recovery self-audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QualityVerdict {
    /// Queries audited.
    pub samples: u64,
    /// Guarantee violations among them.
    pub violations: u64,
}

impl QualityVerdict {
    /// Whether every audited answer met its guarantee.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

/// Memoized exact-recompute artifacts for one epoch snapshot. The audit
/// worker keeps one per tenant: the first sample of an epoch pays the
/// `final_graph` materialization (O(live graph) thanks to compaction),
/// every later sample of the same epoch reuses it — component labels,
/// per-source exact BFS rows, the Laplacian, and the distinct-edge
/// verdict are each computed at most once per epoch. On a small host
/// this is what keeps the audit worker from competing with serving.
pub struct ExactCache {
    snap: Arc<EpochSnapshot>,
    graph: dsg_graph::Graph,
    adj: dsg_graph::graph::Adjacency,
    labels: Option<Vec<Vertex>>,
    rows: HashMap<Vertex, Vec<u32>>,
    laplacian: Option<Laplacian>,
    distinct: Option<AuditFinding>,
}

impl ExactCache {
    /// Materializes the exact graph for `snap`; everything else is lazy.
    pub fn new(snap: Arc<EpochSnapshot>) -> Self {
        let graph = snap.net_edges().final_graph();
        let adj = graph.adjacency();
        Self {
            snap,
            graph,
            adj,
            labels: None,
            rows: HashMap::new(),
            laplacian: None,
            distinct: None,
        }
    }

    /// Whether this cache was built from exactly `snap` (pointer
    /// identity: a republished equal epoch still invalidates).
    pub fn covers(&self, snap: &Arc<EpochSnapshot>) -> bool {
        Arc::ptr_eq(&self.snap, snap)
    }

    /// Smallest-vertex component labels of the exact graph.
    fn labels(&mut self) -> &[Vertex] {
        if self.labels.is_none() {
            self.labels = Some(connected_components(&self.graph));
        }
        self.labels.as_deref().unwrap_or_default()
    }

    /// Exact BFS distance row from `u`, memoized per source.
    fn row(&mut self, u: Vertex) -> &[u32] {
        self.rows
            .entry(u)
            .or_insert_with(|| bfs_distances(&self.adj, u))
    }

    fn laplacian(&mut self) -> &Laplacian {
        if self.laplacian.is_none() {
            self.laplacian = Some(Laplacian::from_graph(&self.graph));
        }
        self.laplacian
            .as_ref()
            .expect("laplacian was just inserted")
    }
}

/// Verifies one served answer against an exact recompute off the
/// snapshot's sealed net segment, memoizing shared work in `cache`
/// (which must cover the answering snapshot). Returns `None` only for
/// responses that do not correspond to the query variant (a
/// serving-layer bug worth surfacing loudly — the auditor counts it as
/// a violation itself).
pub fn verify_cached(
    cache: &mut ExactCache,
    query: &Query,
    response: &Response,
    cfg: &AuditConfig,
) -> Option<AuditFinding> {
    match (query, response) {
        (Query::Connectivity, Response::Connectivity { num_components, .. }) => {
            let exact = cache
                .labels()
                .iter()
                .enumerate()
                .filter(|&(i, &l)| l == i as Vertex)
                .count();
            Some(boolean_finding(
                *num_components == exact,
                format!("components: served {num_components}, exact {exact}"),
            ))
        }
        (Query::SameComponent(u, v), Response::SameComponent(served)) => {
            let labels = cache.labels();
            let exact = labels.get(*u as usize) == labels.get(*v as usize);
            Some(boolean_finding(
                *served == exact,
                format!("same_component({u},{v}): served {served}, exact {exact}"),
            ))
        }
        (Query::Distance(u, v), Response::Distance(served)) => {
            Some(verify_distance(cache, *u, *v, *served))
        }
        (Query::IsFar { u, v, threshold }, Response::IsFar(served)) => {
            Some(verify_is_far(cache, *u, *v, *threshold, *served))
        }
        (Query::CutEstimate(side), Response::CutEstimate(served)) => {
            Some(verify_cut(cache, side, *served, cfg))
        }
        (Query::Stats, Response::Stats(stats)) => {
            // The stats themselves are read off the snapshot; what the
            // audit adds is the distinct-edge cross-check: exact count
            // vs an independent KNW estimator over the same segment —
            // deterministic per epoch, so verified once and memoized.
            if stats.epoch != cache.snap.epoch()
                || stats.total_updates != cache.snap.total_updates()
            {
                return Some(AuditFinding {
                    violation: true,
                    error_permille: 1000,
                    detail: "stats disagree with their own snapshot".to_string(),
                });
            }
            if cache.distinct.is_none() {
                cache.distinct = Some(verify_distinct_edges(&cache.snap, cfg));
            }
            cache.distinct.clone()
        }
        _ => None,
    }
}

/// One-shot convenience over [`verify_cached`]: builds a throwaway
/// [`ExactCache`] for `snap`. Fine for single verifications; callers
/// with many samples per epoch (the audit worker, the store's
/// self-audit battery) keep a cache across calls instead.
pub fn verify_answer(
    snap: &Arc<EpochSnapshot>,
    query: &Query,
    response: &Response,
    cfg: &AuditConfig,
) -> Option<AuditFinding> {
    verify_cached(&mut ExactCache::new(Arc::clone(snap)), query, response, cfg)
}

fn boolean_finding(agree: bool, detail: String) -> AuditFinding {
    AuditFinding {
        violation: !agree,
        error_permille: if agree { 0 } else { 1000 },
        detail,
    }
}

/// The oracle contract is a sandwich: `exact ≤ served ≤ 2^k · exact`,
/// with reachability agreeing exactly (the spanner is a subgraph).
fn verify_distance(
    cache: &mut ExactCache,
    u: Vertex,
    v: Vertex,
    served: Option<u32>,
) -> AuditFinding {
    let stretch = 1u64 << cache.snap.config().spanner_k;
    let exact = cache.row(u).get(v as usize).copied().unwrap_or(UNREACHABLE);
    match (exact, served) {
        (UNREACHABLE, None) => AuditFinding {
            violation: false,
            error_permille: 0,
            detail: format!("distance({u},{v}): both unreachable"),
        },
        (UNREACHABLE, Some(est)) => AuditFinding {
            violation: true,
            error_permille: 1000,
            detail: format!("distance({u},{v}): served {est}, exactly unreachable"),
        },
        (d, None) => AuditFinding {
            violation: true,
            error_permille: 1000,
            detail: format!("distance({u},{v}): served unreachable, exactly {d}"),
        },
        (d, Some(est)) => {
            let violation = (est as u64) < d as u64 || est as u64 > stretch * d as u64;
            // Stretch above exact, in permille (0 when est == exact).
            let error_permille = if d == 0 {
                u64::from(est != 0) * 1000
            } else {
                ((est as u64 * 1000) / d as u64).saturating_sub(1000)
            };
            AuditFinding {
                violation,
                error_permille,
                detail: format!("distance({u},{v}): served {est}, exact {d}, stretch ≤ {stretch}"),
            }
        }
    }
}

/// `IsFar` inherits the oracle sandwich: a `false` implies
/// `exact ≤ threshold`; a `true` implies `2^k · exact > threshold` (the
/// estimate that exceeded the threshold is itself ≤ `2^k · exact`).
fn verify_is_far(
    cache: &mut ExactCache,
    u: Vertex,
    v: Vertex,
    threshold: u32,
    served: bool,
) -> AuditFinding {
    let stretch = 1u64 << cache.snap.config().spanner_k;
    let exact = cache.row(u).get(v as usize).copied().unwrap_or(UNREACHABLE);
    let ok = if served {
        exact == UNREACHABLE || stretch * exact as u64 > threshold as u64
    } else {
        exact != UNREACHABLE && exact as u64 <= threshold as u64
    };
    boolean_finding(
        ok,
        format!("is_far({u},{v},{threshold}): served {served}, exact distance {exact}"),
    )
}

fn verify_cut(
    cache: &mut ExactCache,
    side: &[Vertex],
    served: f64,
    cfg: &AuditConfig,
) -> AuditFinding {
    let mut in_side = vec![false; cache.graph.num_vertices()];
    for &v in side {
        if let Some(slot) = in_side.get_mut(v as usize) {
            *slot = true;
        }
    }
    let exact = cache.laplacian().cut_value(&in_side);
    let (violation, error_permille) = if exact <= f64::EPSILON {
        (served.abs() > 1e-6, (served.abs() * 1000.0) as u64)
    } else {
        let rel = (served - exact).abs() / exact;
        let out_of_sandwich =
            served > cfg.cut_slack * exact + 1e-9 || served < exact / cfg.cut_slack - 1e-9;
        (out_of_sandwich, (rel * 1000.0) as u64)
    };
    AuditFinding {
        violation,
        error_permille,
        detail: format!(
            "cut(|side|={}): served {served:.3}, exact {exact:.3}, slack ×{}",
            side.len(),
            cfg.cut_slack
        ),
    }
}

/// Exact distinct-edge count vs an independent KNW estimator fed the
/// same sealed segment — auditing the distinct-elements machinery the
/// sketches rely on (DESIGN.md § Distinct elements).
fn verify_distinct_edges(snap: &EpochSnapshot, cfg: &AuditConfig) -> AuditFinding {
    let net = snap.net_edges();
    let exact = net.num_edges() as u64;
    let n = net.num_vertices();
    let universe = dsg_graph::ids::num_pairs(n).max(2);
    let universe_bits = (64 - universe.leading_zeros()).max(1);
    let mut est = DistinctEstimator::new(universe_bits, 0.25, 9, snap.config().seed ^ 0xD15C);
    for e in net.entries() {
        est.update(e.edge.index(n), i128::from(e.multiplicity));
    }
    match est.estimate() {
        Ok(approx) => {
            let err = approx.abs_diff(exact);
            // Small supports decode exactly; slack only matters at scale.
            let allowed = ((exact as f64) * cfg.distinct_slack) as u64 + 4;
            AuditFinding {
                violation: err > allowed,
                error_permille: (err * 1000).checked_div(exact).unwrap_or(approx * 1000),
                detail: format!("distinct edges: estimator {approx}, exact {exact}"),
            }
        }
        Err(e) => AuditFinding {
            violation: true,
            error_permille: 1000,
            detail: format!("distinct edges: estimator failed to decode ({e:?})"),
        },
    }
}

/// One forced audit pass over a snapshot: a deterministic battery that
/// exercises the forest, the distance oracle, the cut Laplacian, and the
/// distinct-edge estimator and verifies each answer exactly. This is what
/// `dsg-store` runs post-recovery so every `TenantRecovery` carries a
/// [`QualityVerdict`]. The cut costs one O(live edges) Laplacian build.
pub fn self_audit(snap: &Arc<EpochSnapshot>) -> QualityVerdict {
    let n = snap.num_vertices() as Vertex;
    let far = n.saturating_sub(1);
    let battery = [
        Query::Connectivity,
        Query::SameComponent(0, far),
        Query::Distance(0, far),
        Query::IsFar {
            u: 0,
            v: far,
            threshold: 2,
        },
        Query::CutEstimate((0..n / 2).collect()),
        Query::Stats,
    ];
    let cfg = AuditConfig::default();
    let mut cache = ExactCache::new(Arc::clone(snap));
    let mut verdict = QualityVerdict::default();
    for query in battery {
        let Ok(response) = snap.execute(&query) else {
            continue;
        };
        if let Some(finding) = verify_cached(&mut cache, &query, &response, &cfg) {
            verdict.samples += 1;
            verdict.violations += u64::from(finding.violation);
        }
    }
    verdict
}

/// One recent guarantee violation, as `/qualityz` reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationRecord {
    /// The offending tenant.
    pub graph: String,
    /// Query-class label (see [`Query::variant_label`]).
    pub query: &'static str,
    /// Trace id of the audited request.
    pub trace_id: u64,
    /// Observed deviation, parts per thousand.
    pub error_permille: u64,
    /// The finding's one-liner.
    pub detail: String,
}

/// Always-on internal tally for one (tenant, query-class) cell — kept
/// separately from the `MetricRegistry` mirrors so `/qualityz` works
/// even on a no-op registry.
#[derive(Debug)]
struct ClassStats {
    samples: u64,
    violations: u64,
    errors: Histogram,
}

impl Default for ClassStats {
    fn default() -> Self {
        Self {
            samples: 0,
            violations: 0,
            errors: Histogram::active(),
        }
    }
}

/// Registry-mirrored handles for one tenant, resolved once per tenant on
/// the audit worker (cold path — one name-map lookup per new tenant).
struct TenantHandles {
    samples: [Counter; 6],
    violations: [Counter; 6],
    errors: [Histogram; 6],
    tenant_token: u32,
}

/// State shared between the auditor handle and its worker thread.
struct AuditCore {
    cfg: AuditConfig,
    queue: Mutex<VecDeque<AuditSample>>,
    /// Signalled on enqueue and on shutdown.
    work_ready: Condvar,
    /// Signalled whenever the worker drains the queue to empty.
    drained: Condvar,
    /// Worker busy flag, under the queue lock's discipline: set before
    /// releasing the lock to verify, cleared after stats are recorded.
    busy: Mutex<bool>,
    stop: AtomicBool,
    tracer: FlightRecorder,
    telemetry: Arc<MetricRegistry>,
    /// Fallback sampling clock for untraced queries (trace id 0).
    untraced: AtomicU64,
    enqueued: AtomicU64,
    audited: AtomicU64,
    overflow: AtomicU64,
    overflow_counter: Counter,
    audited_counter: Counter,
    stats: Mutex<BTreeMap<String, [ClassStats; 6]>>,
    recent: Mutex<VecDeque<ViolationRecord>>,
}

/// The sampled shadow-verification subsystem. Create one per registry
/// with [`crate::GraphRegistry::install_auditor`] **before** starting
/// query pools; serving threads then hand sampled answers to
/// [`offer`](QualityAuditor::offer) and the `dsg-audit` worker verifies
/// them off the hot path.
pub struct QualityAuditor {
    core: Arc<AuditCore>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for QualityAuditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QualityAuditor")
            .field("cfg", &self.core.cfg)
            .finish()
    }
}

impl QualityAuditor {
    /// Starts the audit worker. `telemetry` receives the per-tenant
    /// mirror series (`dsg_audit_*`); `tracer` receives
    /// `quality_violation` events and incident captures.
    pub fn start(
        telemetry: Arc<MetricRegistry>,
        tracer: FlightRecorder,
        cfg: AuditConfig,
    ) -> Arc<Self> {
        let overflow_counter = telemetry.counter("dsg_audit_enqueue_overflow_total");
        let audited_counter = telemetry.counter("dsg_audit_audited_total");
        let core = Arc::new(AuditCore {
            cfg,
            queue: Mutex::new(VecDeque::with_capacity(cfg.queue_capacity.min(1024))),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            busy: Mutex::new(false),
            stop: AtomicBool::new(false),
            tracer,
            telemetry,
            untraced: AtomicU64::new(0),
            enqueued: AtomicU64::new(0),
            audited: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            overflow_counter,
            audited_counter,
            stats: Mutex::new(BTreeMap::new()),
            recent: Mutex::new(VecDeque::new()),
        });
        let worker_core = Arc::clone(&core);
        let worker = std::thread::Builder::new()
            .name("dsg-audit".to_string())
            .spawn(move || worker_loop(&worker_core))
            .expect("failed to spawn audit worker");
        Arc::new(Self {
            core,
            worker: Mutex::new(Some(worker)),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &AuditConfig {
        &self.core.cfg
    }

    /// Deterministic per-trace-id sampling: every replica that sees the
    /// same trace id makes the same call. Untraced queries (id 0, i.e. a
    /// no-op recorder) fall back to a local modulo clock so the sample
    /// rate holds either way.
    #[inline]
    pub fn should_sample(&self, trace_id: u64) -> bool {
        let every = self.core.cfg.sample_every;
        if every <= 1 {
            return true;
        }
        if trace_id != 0 {
            trace_id % every == 0
        } else {
            self.core.untraced.fetch_add(1, Ordering::Relaxed) % every == 0
        }
    }

    /// Hands a sampled serving decision to the audit worker. Never
    /// blocks: a full queue counts an overflow and drops the sample.
    /// Returns whether the sample was accepted.
    pub fn offer(&self, sample: AuditSample) -> bool {
        let mut queue = self.core.queue.lock().expect("audit queue poisoned");
        if queue.len() >= self.core.cfg.queue_capacity {
            drop(queue);
            self.core.overflow.fetch_add(1, Ordering::Relaxed);
            self.core.overflow_counter.inc();
            return false;
        }
        queue.push_back(sample);
        drop(queue);
        self.core.enqueued.fetch_add(1, Ordering::Relaxed);
        // Deliberately no wakeup: the worker polls on a short timeout
        // (see `worker_loop`), so the hot path never pays a futex wake —
        // on small hosts the context switches cost more than the audits.
        true
    }

    /// Blocks until every queued sample has been verified — the barrier
    /// tests and experiments use before asserting on audit state.
    pub fn flush(&self) {
        let mut queue = self.core.queue.lock().expect("audit queue poisoned");
        loop {
            let busy = *self.core.busy.lock().expect("audit busy flag poisoned");
            if (queue.is_empty() && !busy) || self.core.stop.load(Ordering::Relaxed) {
                return;
            }
            queue = self.core.drained.wait(queue).expect("audit queue poisoned");
        }
    }

    /// Samples offered so far (accepted into the queue).
    pub fn enqueued(&self) -> u64 {
        self.core.enqueued.load(Ordering::Relaxed)
    }

    /// Samples fully verified so far.
    pub fn audited(&self) -> u64 {
        self.core.audited.load(Ordering::Relaxed)
    }

    /// Samples dropped because the queue was full.
    pub fn overflow(&self) -> u64 {
        self.core.overflow.load(Ordering::Relaxed)
    }

    /// Total guarantee violations across all tenants.
    pub fn total_violations(&self) -> u64 {
        let stats = self.core.stats.lock().expect("audit stats poisoned");
        stats
            .values()
            .flat_map(|classes| classes.iter())
            .map(|c| c.violations)
            .sum()
    }

    /// The per-tenant verdict so far.
    pub fn verdict(&self, graph: &str) -> QualityVerdict {
        let stats = self.core.stats.lock().expect("audit stats poisoned");
        match stats.get(graph) {
            Some(classes) => QualityVerdict {
                samples: classes.iter().map(|c| c.samples).sum(),
                violations: classes.iter().map(|c| c.violations).sum(),
            },
            None => QualityVerdict::default(),
        }
    }

    /// The most recent violations, oldest first (bounded by
    /// [`MAX_RECENT_VIOLATIONS`]).
    pub fn recent_violations(&self) -> Vec<ViolationRecord> {
        self.core
            .recent
            .lock()
            .expect("audit recent poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Renders the `/qualityz` JSON document: global counters, then
    /// per-tenant per-class sample counts, violation counts, and error
    /// quantiles (permille), then the recent-violation ring.
    pub fn render_qualityz(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"enabled\":true,\"sample_every\":{},\"queue_capacity\":{},\
             \"enqueued\":{},\"audited\":{},\"overflow\":{},\"tenants\":[",
            self.core.cfg.sample_every,
            self.core.cfg.queue_capacity,
            self.enqueued(),
            self.audited(),
            self.overflow(),
        ));
        {
            let stats = self.core.stats.lock().expect("audit stats poisoned");
            for (i, (graph, classes)) in stats.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let samples: u64 = classes.iter().map(|c| c.samples).sum();
                let violations: u64 = classes.iter().map(|c| c.violations).sum();
                out.push_str(&format!(
                    "{{\"graph\":{},\"samples\":{samples},\"violations\":{violations},\
                     \"classes\":[",
                    crate::admin::json_escape(graph)
                ));
                let mut first = true;
                for (idx, class) in classes.iter().enumerate() {
                    if class.samples == 0 {
                        continue;
                    }
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let h: HistogramSnapshot = class.errors.snapshot_value();
                    out.push_str(&format!(
                        "{{\"query\":\"{}\",\"samples\":{},\"violations\":{},\
                         \"error_p50_permille\":{},\"error_p95_permille\":{},\
                         \"error_max_permille\":{}}}",
                        QUERY_VARIANTS[idx],
                        class.samples,
                        class.violations,
                        h.p50(),
                        h.p95(),
                        class.errors.max(),
                    ));
                }
                out.push_str("]}");
            }
        }
        out.push_str("],\"violations\":[");
        for (i, v) in self.recent_violations().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"graph\":{},\"query\":\"{}\",\"trace_id\":{},\"error_permille\":{},\
                 \"detail\":{}}}",
                crate::admin::json_escape(&v.graph),
                v.query,
                v.trace_id,
                v.error_permille,
                crate::admin::json_escape(&v.detail),
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// Stops the worker and joins it. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.core.stop.store(true, Ordering::Relaxed);
        self.core.work_ready.notify_all();
        self.core.drained.notify_all();
        if let Some(handle) = self.worker.lock().expect("audit worker poisoned").take() {
            let _ = handle.join();
        }
        self.core.drained.notify_all();
    }
}

impl Drop for QualityAuditor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The `/qualityz` body when no auditor is installed.
pub(crate) const QUALITYZ_DISABLED: &str = "{\"enabled\":false,\"tenants\":[],\"violations\":[]}\n";

fn worker_loop(core: &Arc<AuditCore>) {
    let mut handles: HashMap<String, TenantHandles> = HashMap::new();
    // One exact-recompute cache per tenant, invalidated on epoch change.
    let mut caches: HashMap<String, ExactCache> = HashMap::new();
    loop {
        let sample = {
            let mut queue = core.queue.lock().expect("audit queue poisoned");
            loop {
                if let Some(sample) = queue.pop_front() {
                    *core.busy.lock().expect("audit busy flag poisoned") = true;
                    break sample;
                }
                if core.stop.load(Ordering::Relaxed) {
                    return;
                }
                core.drained.notify_all();
                // Poll rather than demand a wakeup from `offer` — see
                // there. 2 ms of audit lag is invisible; a futex wake
                // per sampled query is not.
                queue = core
                    .work_ready
                    .wait_timeout(queue, std::time::Duration::from_millis(2))
                    .expect("audit queue poisoned")
                    .0;
            }
        };
        audit_one(core, &mut handles, &mut caches, &sample);
        *core.busy.lock().expect("audit busy flag poisoned") = false;
        core.audited.fetch_add(1, Ordering::Relaxed);
        core.audited_counter.inc();
        if core.queue.lock().expect("audit queue poisoned").is_empty() {
            core.drained.notify_all();
        }
    }
}

/// Verifies one sample and records every outcome surface: internal
/// stats, registry mirrors, and — on violation — the flight recorder
/// event + incident capture and the recent-violation ring.
fn audit_one(
    core: &Arc<AuditCore>,
    handles: &mut HashMap<String, TenantHandles>,
    caches: &mut HashMap<String, ExactCache>,
    sample: &AuditSample,
) {
    let fresh = caches
        .get(&sample.graph)
        .is_some_and(|c| c.covers(&sample.snapshot));
    if !fresh {
        caches.insert(
            sample.graph.clone(),
            ExactCache::new(Arc::clone(&sample.snapshot)),
        );
    }
    let cache = caches.get_mut(&sample.graph).expect("cache inserted above");
    let finding =
        verify_cached(cache, &sample.query, &sample.response, &core.cfg).unwrap_or_else(|| {
            AuditFinding {
                violation: true,
                error_permille: 1000,
                detail: "response variant does not match its query".to_string(),
            }
        });
    let idx = sample.query.variant_index();

    let tenant = handles.entry(sample.graph.clone()).or_insert_with(|| {
        let g = sample.graph.as_str();
        let per_class = |name: &str| -> [Counter; 6] {
            QUERY_VARIANTS.map(|q| {
                core.telemetry
                    .counter(&series(name, &[("graph", g), ("query", q)]))
            })
        };
        TenantHandles {
            samples: per_class("dsg_audit_samples_total"),
            violations: per_class("dsg_audit_violations_total"),
            errors: QUERY_VARIANTS.map(|q| {
                core.telemetry.histogram(&series(
                    "dsg_audit_error_permille",
                    &[("graph", g), ("query", q)],
                ))
            }),
            tenant_token: core.tracer.intern(g),
        }
    });
    tenant.samples[idx].inc();
    tenant.errors[idx].record(finding.error_permille);
    if finding.violation {
        tenant.violations[idx].inc();
        core.tracer.record(
            EventKind::QualityViolation,
            sample.trace_id,
            tenant.tenant_token,
            idx as u64,
        );
        core.tracer.capture_incident(
            sample.trace_id,
            format!("{}:{}:quality", sample.graph, sample.query.variant_label()),
            finding.error_permille,
            INCIDENT_WINDOW_NANOS,
        );
    }
    {
        let mut stats = core.stats.lock().expect("audit stats poisoned");
        let classes = stats.entry(sample.graph.clone()).or_default();
        classes[idx].samples += 1;
        classes[idx].violations += u64::from(finding.violation);
        classes[idx].errors.record(finding.error_permille);
    }
    if finding.violation {
        let mut recent = core.recent.lock().expect("audit recent poisoned");
        if recent.len() >= MAX_RECENT_VIOLATIONS {
            recent.pop_front();
        }
        recent.push_back(ViolationRecord {
            graph: sample.graph.clone(),
            query: sample.query.variant_label(),
            trace_id: sample.trace_id,
            error_permille: finding.error_permille,
            detail: finding.detail,
        });
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code may unwrap freely

    use super::*;
    use crate::{GraphConfig, GraphRegistry, QueryService};
    use dsg_graph::StreamUpdate;

    fn registry_with_path(n: usize) -> Arc<GraphRegistry> {
        let registry = Arc::new(GraphRegistry::with_observability(
            Arc::new(MetricRegistry::new()),
            FlightRecorder::with_capacity(4096),
        ));
        let g = registry
            .create("g", GraphConfig::new(n).seed(5).shards(2))
            .unwrap();
        let updates: Vec<StreamUpdate> = (0..n as Vertex - 1)
            .map(|v| StreamUpdate::insert(v, v + 1))
            .collect();
        g.apply(&updates).unwrap();
        g.advance_epoch();
        registry
    }

    #[test]
    fn honest_answers_audit_clean() {
        let registry = registry_with_path(24);
        let snap = registry.get("g").unwrap().snapshot();
        let verdict = self_audit(&snap);
        assert!(verdict.samples >= 6, "battery must run: {verdict:?}");
        assert!(verdict.clean(), "honest snapshot must audit clean");
    }

    #[test]
    fn wrong_answers_are_violations() {
        let registry = registry_with_path(16);
        let snap = registry.get("g").unwrap().snapshot();
        let cfg = AuditConfig::default();
        // Wrong connectivity: the path has exactly one component.
        let f = verify_answer(
            &snap,
            &Query::Connectivity,
            &Response::Connectivity {
                connected: false,
                num_components: 3,
            },
            &cfg,
        )
        .unwrap();
        assert!(f.violation);
        // Underestimated distance breaks the subgraph lower bound.
        let f = verify_answer(
            &snap,
            &Query::Distance(0, 15),
            &Response::Distance(Some(1)),
            &cfg,
        )
        .unwrap();
        assert!(f.violation, "{f:?}");
        // A sane distance passes.
        let f = verify_answer(
            &snap,
            &Query::Distance(0, 15),
            &Response::Distance(Some(15)),
            &cfg,
        )
        .unwrap();
        assert!(!f.violation, "{f:?}");
        assert_eq!(f.error_permille, 0);
        // Absurd cut value trips the sandwich.
        let f = verify_answer(
            &snap,
            &Query::CutEstimate(vec![0, 1, 2]),
            &Response::CutEstimate(900.0),
            &cfg,
        )
        .unwrap();
        assert!(f.violation, "{f:?}");
    }

    #[test]
    fn sampling_is_deterministic_and_rate_correct() {
        let auditor = QualityAuditor::start(
            Arc::new(MetricRegistry::noop()),
            FlightRecorder::noop(),
            AuditConfig {
                sample_every: 8,
                ..AuditConfig::default()
            },
        );
        let sampled: Vec<u64> = (1..=64).filter(|&id| auditor.should_sample(id)).collect();
        assert_eq!(sampled, vec![8, 16, 24, 32, 40, 48, 56, 64]);
        // Untraced queries fall back to the local clock at the same rate.
        let untraced = (0..64).filter(|_| auditor.should_sample(0)).count();
        assert_eq!(untraced, 8);
        auditor.shutdown();
    }

    #[test]
    fn queue_is_bounded_and_overflow_counted() {
        let registry = registry_with_path(8);
        let snap = registry.get("g").unwrap().snapshot();
        let auditor = QualityAuditor::start(
            Arc::new(MetricRegistry::noop()),
            FlightRecorder::noop(),
            AuditConfig {
                sample_every: 1,
                queue_capacity: 2,
                ..AuditConfig::default()
            },
        );
        // Stall the worker by never letting it win the race: shut it
        // down first so offers pile up deterministically.
        auditor.core.stop.store(true, Ordering::Relaxed);
        auditor.core.work_ready.notify_all();
        if let Some(h) = auditor.worker.lock().unwrap().take() {
            h.join().unwrap();
        }
        let mk = || AuditSample {
            graph: "g".to_string(),
            trace_id: 1,
            query: Query::Connectivity,
            response: Response::Connectivity {
                connected: true,
                num_components: 1,
            },
            snapshot: Arc::clone(&snap),
        };
        assert!(auditor.offer(mk()));
        assert!(auditor.offer(mk()));
        assert!(!auditor.offer(mk()), "third offer must overflow");
        assert_eq!(auditor.overflow(), 1);
        assert_eq!(auditor.enqueued(), 2);
    }

    #[test]
    fn end_to_end_violation_is_recorded_and_rendered() {
        let registry = registry_with_path(16);
        let auditor = registry.install_auditor(AuditConfig {
            sample_every: 1,
            ..AuditConfig::default()
        });
        let g = registry.get("g").unwrap();
        // Sabotage the oracle: a row of zeros serves distance 0 for
        // every target, below the exact distance — a guarantee breach.
        g.snapshot().oracle().poison_cached_row(0, vec![0; 16]);
        let pool = QueryService::start(Arc::clone(&registry), 2);
        for _ in 0..4 {
            pool.query_blocking("g", Query::Distance(0, 12)).unwrap();
        }
        pool.shutdown();
        auditor.flush();
        assert!(auditor.total_violations() >= 1, "sabotage must be caught");
        let verdict = auditor.verdict("g");
        assert!(verdict.samples >= 1 && verdict.violations >= 1);
        let recent = auditor.recent_violations();
        assert!(!recent.is_empty());
        assert_eq!(recent[0].graph, "g");
        assert_eq!(recent[0].query, "distance");
        // The violation reached the flight recorder as an event and an
        // incident labelled like the watchdog's.
        let events = registry.tracer().dump();
        assert!(events.iter().any(|e| e.kind == EventKind::QualityViolation));
        let incidents = registry.tracer().incidents();
        assert!(incidents.iter().any(|i| i.label == "g:distance:quality"));
        // The registry mirrors carry the same counts.
        let snap = registry.telemetry().snapshot();
        let series_name = "dsg_audit_violations_total{graph=\"g\",query=\"distance\"}";
        assert!(snap.counter(series_name).unwrap() >= 1);
        // And the JSON document renders it all, parseably.
        let doc = dsg_util::json::parse(&auditor.render_qualityz()).unwrap();
        assert_eq!(
            doc.get("enabled")
                .and_then(dsg_util::json::JsonValue::as_bool),
            Some(true)
        );
        let tenants = doc
            .get("tenants")
            .and_then(dsg_util::json::JsonValue::as_array)
            .unwrap();
        assert_eq!(tenants.len(), 1);
        let violations = doc
            .get("violations")
            .and_then(dsg_util::json::JsonValue::as_array)
            .unwrap();
        assert!(!violations.is_empty());
    }
}
