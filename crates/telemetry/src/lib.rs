//! # dsg-telemetry — a zero-dependency metrics core
//!
//! Every operational signal of the serving stack — shard load balance,
//! oracle cache hit rates, epoch-advance phase cost, WAL fsync latency,
//! recovery time — flows through this crate so it is visible in the
//! *running* system, not only in offline experiments. The design goals,
//! in order:
//!
//! 1. **Always-on and cheap.** Recording is one relaxed atomic RMW on an
//!    already-allocated cell — no locks, no allocation, no syscalls on
//!    the hot path. A handle can also be a *no-op* ([`Counter::noop`]):
//!    recording through it is a single predictable branch, which is the
//!    honest baseline to measure overhead against.
//! 2. **Mergeable and diffable.** [`Histogram`]s use log2 buckets so two
//!    histograms merge by bucket-wise addition (exactly like the linear
//!    sketches this workspace is built on), and [`MetricsSnapshot`]s diff
//!    exactly for counters — "what happened between these two scrapes" is
//!    a first-class object.
//! 3. **One way out.** [`MetricRegistry::render_prometheus`] renders the
//!    whole registry as Prometheus text exposition, so an operator or a
//!    test scrapes one string.
//!
//! Instruments are cheap-cloneable *handles* (an `Option<Arc<cell>>`):
//! the instrumented subsystem stores the handle and records through it;
//! the registry keeps a second handle under the series name for scraping.
//! Label sets are encoded into the series name at registration time
//! (see [`series`]), so steady-state recording never formats strings.
//!
//! ```
//! use dsg_telemetry::{series, MetricRegistry};
//!
//! let registry = MetricRegistry::new();
//! let hits = registry.counter(&series("cache_hits_total", &[("graph", "social")]));
//! hits.inc();
//! hits.add(2);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("cache_hits_total{graph=\"social\"}"), Some(3));
//! assert!(registry.render_prometheus().contains("cache_hits_total"));
//! ```

#![deny(clippy::unwrap_used)]

pub mod trace;

pub use trace::{EventKind, FlightRecorder, Incident, TraceEvent, TraceScope};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Number of log2 buckets a [`Histogram`] keeps: bucket 0 holds the value
/// `0`, bucket `i ≥ 1` holds `[2^(i-1), 2^i - 1]`, and the last bucket is
/// unbounded above. 64 buckets cover the whole `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Builds a series name with an inline label set, Prometheus-style:
/// `series("wal_bytes_total", &[("graph", "g")])` is
/// `wal_bytes_total{graph="g"}`. Labels are rendered in the given order;
/// call sites should pass them in one canonical order so equal label sets
/// produce equal names. With no labels the bare name is returned.
///
/// Label *values* are escaped here, at embed time, so the stored series
/// name is already valid exposition text: `render_prometheus` and the
/// histogram-sample splicer can pass label text through verbatim even
/// when a tenant name contains `\`, `"`, or a newline.
pub fn series(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

/// Escapes a label value per the Prometheus text exposition rules:
/// backslash, double quote, and newline become `\\`, `\"`, and `\n`.
/// Values without those characters are borrowed unchanged.
pub fn escape_label_value(v: &str) -> std::borrow::Cow<'_, str> {
    if !v.contains(['\\', '"', '\n']) {
        return std::borrow::Cow::Borrowed(v);
    }
    let mut out = String::with_capacity(v.len() + 4);
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    std::borrow::Cow::Owned(out)
}

/// A monotone event counter. Cloning shares the underlying cell; the
/// default handle is a [no-op](Counter::noop).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A live standalone counter (registry-created counters share their
    /// cell with the registry instead).
    pub fn active() -> Self {
        Self {
            cell: Some(Arc::new(AtomicU64::new(0))),
        }
    }

    /// A recorder that drops every event — one predictable branch per
    /// record — the baseline instrumentation overhead is measured against.
    pub fn noop() -> Self {
        Self { cell: None }
    }

    /// Whether this handle records anywhere.
    pub fn is_active(&self) -> bool {
        self.cell.is_some()
    }

    /// Adds one event (relaxed; hot-path safe).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` events (relaxed; hot-path safe).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current count (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value-wins instantaneous measurement (stored as `f64` bits in
/// an atomic word). Cloning shares the cell; the default handle is a
/// no-op.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A live standalone gauge.
    pub fn active() -> Self {
        Self {
            cell: Some(Arc::new(AtomicU64::new(0f64.to_bits()))),
        }
    }

    /// A recorder that drops every event.
    pub fn noop() -> Self {
        Self { cell: None }
    }

    /// Whether this handle records anywhere.
    pub fn is_active(&self) -> bool {
        self.cell.is_some()
    }

    /// Stores a new value (relaxed; hot-path safe).
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a no-op handle).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// The shared storage of a live histogram: one atomic per log2 bucket
/// plus the exact running sum and max. Lock-free: recording is two
/// relaxed `fetch_add`s and one relaxed `fetch_max`.
#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Which log2 bucket a value lands in: 0 → bucket 0, otherwise the
/// position of the highest set bit plus one (so bucket `i ≥ 1` holds
/// exactly `[2^(i-1), 2^i - 1]`), clamped into the last bucket.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The largest value bucket `i` can hold — what quantile estimation
/// reports. For any recorded value `v < 2^63`, the reported bound `b`
/// satisfies `v ≤ b ≤ 2v + 1` (tight to a factor of 2), because `v` in
/// `[2^(i-1), 2^i - 1]` is bounded by `2^i - 1 ≤ 2v + 1`.
#[inline]
fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A lock-free log2-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, sizes in bytes, …). Mergeable (bucket-wise addition,
/// like every linear structure in this workspace) and snapshot-able;
/// quantile estimates report the bucket upper bound, so they bound the
/// true quantile from above within a factor of 2 (see
/// `tests/histogram_props.rs` for the property-test statement).
///
/// Cloning shares the cells; the default handle is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// A live standalone histogram.
    pub fn active() -> Self {
        Self {
            core: Some(Arc::new(HistogramCore::new())),
        }
    }

    /// A recorder that drops every event.
    pub fn noop() -> Self {
        Self { core: None }
    }

    /// Whether this handle records anywhere.
    pub fn is_active(&self) -> bool {
        self.core.is_some()
    }

    /// Records one sample (three relaxed atomic ops; hot-path safe).
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.core {
            core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(value, Ordering::Relaxed);
            core.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Records a duration as whole nanoseconds (saturating at `u64::MAX`,
    /// i.e. after ~584 years).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a span whose elapsed nanoseconds are recorded when the
    /// guard drops. A no-op histogram hands out a no-op guard that never
    /// reads the clock.
    pub fn start_timer(&self) -> TimerGuard {
        TimerGuard {
            hist: self.clone(),
            start: self.core.as_ref().map(|_| Instant::now()),
        }
    }

    /// Times one closure into this histogram.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let _guard = self.start_timer();
        f()
    }

    /// Folds `other`'s samples into `self` — bucket-wise addition, so
    /// the result is exactly the histogram of the concatenated sample
    /// streams. Merging into or from a no-op handle does nothing.
    pub fn merge_from(&self, other: &Histogram) {
        let (Some(a), Some(b)) = (&self.core, &other.core) else {
            return;
        };
        for (mine, theirs) in a.buckets.iter().zip(&b.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        a.sum
            .fetch_add(b.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        a.max
            .fetch_max(b.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.snapshot_value().count()
    }

    /// Exact sum of all recorded samples (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.snapshot_value().sum
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.snapshot_value().max
    }

    /// Upper bound on the `q`-quantile of the recorded samples — see
    /// [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot_value().quantile(q)
    }

    /// An immutable copy of the current bucket contents.
    pub fn snapshot_value(&self) -> HistogramSnapshot {
        match &self.core {
            None => HistogramSnapshot::default(),
            Some(core) => HistogramSnapshot {
                buckets: std::array::from_fn(|i| core.buckets[i].load(Ordering::Relaxed)),
                sum: core.sum.load(Ordering::Relaxed),
                max: core.max.load(Ordering::Relaxed),
            },
        }
    }
}

/// A span helper: records the elapsed nanoseconds into its histogram on
/// drop. Obtained from [`Histogram::start_timer`].
#[derive(Debug)]
pub struct TimerGuard {
    hist: Histogram,
    start: Option<Instant>,
}

impl TimerGuard {
    /// Discards the span without recording it.
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.hist.record_duration(start.elapsed());
        }
    }
}

/// An immutable copy of a histogram's state at one point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Exact sum of all samples.
    pub sum: u64,
    /// Exact maximum sample (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Upper bound on the `q`-quantile (`q` clamped to `[0, 1]`): the
    /// upper end of the bucket holding the sample of rank `⌈q·count⌉`.
    /// For samples below `2^63` the estimate `b` of a true quantile `v`
    /// satisfies `v ≤ b ≤ 2v + 1`. Returns 0 for an empty histogram (or
    /// a NaN `q`), and the exact observed maximum for `q ≥ 1`, so the
    /// p100 never overshoots into a bucket upper bound.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 || q.is_nan() {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        self.max
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile upper bound.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Bucket-wise difference `self − earlier` (saturating), for rates
    /// across two scrapes. The `max` kept is `self`'s (a running max
    /// cannot be un-merged).
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }
}

/// One registered instrument, as the registry stores it (a second handle
/// onto the same cells the instrumented code records into).
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A namespaced collection of instruments. `counter`/`gauge`/`histogram`
/// get-or-create by series name (use [`series`] to fold a label set into
/// the name once, at registration time); a registry built with
/// [`MetricRegistry::noop`] hands out no-op handles and renders empty —
/// the switch that turns instrumentation off.
///
/// Registration takes a write lock; recording through the returned
/// handles takes no lock at all. Register once, record forever.
#[derive(Debug)]
pub struct MetricRegistry {
    enabled: bool,
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Default for MetricRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricRegistry {
    /// A live registry.
    pub fn new() -> Self {
        Self {
            enabled: true,
            metrics: RwLock::new(BTreeMap::new()),
        }
    }

    /// A disabled registry: every handle it hands out is a no-op and its
    /// snapshot is empty.
    pub fn noop() -> Self {
        Self {
            enabled: false,
            metrics: RwLock::new(BTreeMap::new()),
        }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.metrics.read().expect("metric registry poisoned").len()
    }

    /// Whether no series are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn register<T: Clone>(
        &self,
        name: &str,
        noop: impl Fn() -> T,
        fresh: impl Fn() -> T,
        wrap: impl Fn(T) -> Metric,
        unwrap: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        if !self.enabled {
            return noop();
        }
        let mismatch = |found: &Metric| {
            panic!(
                "metric {name:?} already registered as a {} of a different kind",
                found.kind()
            )
        };
        {
            let metrics = self.metrics.read().expect("metric registry poisoned");
            if let Some(found) = metrics.get(name) {
                return unwrap(found).unwrap_or_else(|| mismatch(found));
            }
        }
        let mut metrics = self.metrics.write().expect("metric registry poisoned");
        match metrics.get(name) {
            Some(found) => unwrap(found).unwrap_or_else(|| mismatch(found)),
            None => {
                let handle = fresh();
                metrics.insert(name.to_string(), wrap(handle.clone()));
                handle
            }
        }
    }

    /// Gets or creates the counter registered under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        self.register(
            name,
            Counter::noop,
            Counter::active,
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Gets or creates the gauge registered under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.register(
            name,
            Gauge::noop,
            Gauge::active,
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Gets or creates the histogram registered under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.register(
            name,
            Histogram::noop,
            Histogram::active,
            Metric::Histogram,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// An immutable, diffable copy of every registered series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.read().expect("metric registry poisoned");
        MetricsSnapshot {
            entries: metrics
                .iter()
                .map(|(name, m)| {
                    let value = match m {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => {
                            MetricValue::Histogram(Box::new(h.snapshot_value()))
                        }
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }

    /// Renders the whole registry as Prometheus text exposition.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// One series' value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's last value.
    Gauge(f64),
    /// A histogram's bucket contents (boxed: a snapshot carries all 64
    /// buckets inline, which would otherwise dominate the enum's size).
    Histogram(Box<HistogramSnapshot>),
}

/// An immutable copy of a registry at one point in time. Snapshots
/// [`diff`](MetricsSnapshot::diff) exactly for counters and histograms
/// ("what happened between these two scrapes") and
/// [`filter`](MetricsSnapshot::filter) down to one tenant's series.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Number of series captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no series were captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates the captured series in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The counter value under `name` (the full series name, labels
    /// included), if any.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The gauge value under `name`, if any.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.entries.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.entries.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// The series whose names satisfy `keep` — e.g. one tenant's slice
    /// of a shared registry.
    pub fn filter(&self, mut keep: impl FnMut(&str) -> bool) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .entries
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, value)| (name.clone(), value.clone()))
                .collect(),
        }
    }

    /// What happened between `earlier` and `self`: counters and
    /// histogram buckets subtract exactly (saturating, and treating a
    /// series absent from `earlier` as zero); gauges keep `self`'s value
    /// (an instantaneous reading has no meaningful difference). Series
    /// absent from `self` are dropped.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .entries
                .iter()
                .map(|(name, value)| {
                    let diffed = match (value, earlier.entries.get(name)) {
                        (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                            MetricValue::Counter(now.saturating_sub(*then))
                        }
                        (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                            MetricValue::Histogram(Box::new(now.diff(then)))
                        }
                        _ => value.clone(),
                    };
                    (name.clone(), diffed)
                })
                .collect(),
        }
    }

    /// Renders the snapshot as Prometheus text exposition: one `# TYPE`
    /// line per metric family, counters and gauges as single samples,
    /// histograms as cumulative `_bucket{le=…}` samples (non-empty
    /// buckets plus `+Inf`) with `_sum` and `_count`. Label sets encoded
    /// into series names are spliced back out so `le` composes with
    /// them.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for (name, value) in &self.entries {
            let (base, labels) = split_series(name);
            if base != last_family {
                let kind = match value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {base} {kind}");
                last_family = base;
            }
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cumulative += c;
                        let le = bucket_upper(i);
                        let _ = writeln!(
                            out,
                            "{} {cumulative}",
                            splice(base, labels, "_bucket", Some(&le.to_string()))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{} {cumulative}",
                        splice(base, labels, "_bucket", Some("+Inf"))
                    );
                    let _ = writeln!(out, "{} {}", splice(base, labels, "_sum", None), h.sum);
                    let _ = writeln!(out, "{} {cumulative}", splice(base, labels, "_count", None));
                }
            }
        }
        out
    }
}

/// Splits a full series name into its metric family and the inner label
/// text: `"a{g=\"x\"}"` → `("a", "g=\"x\"")`, `"a"` → `("a", "")`.
fn split_series(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.trim_end_matches('}')),
        None => (name, ""),
    }
}

/// Rebuilds a derived histogram sample name: family + `suffix`, the
/// original labels, and optionally an extra `le` label.
fn splice(base: &str, labels: &str, suffix: &str, le: Option<&str>) -> String {
    let mut out = String::with_capacity(base.len() + suffix.len() + labels.len() + 16);
    out.push_str(base);
    out.push_str(suffix);
    let extra = le.map(|v| format!("le=\"{v}\""));
    if !labels.is_empty() || extra.is_some() {
        out.push('{');
        out.push_str(labels);
        if let Some(extra) = extra {
            if !labels.is_empty() {
                out.push(',');
            }
            out.push_str(&extra);
        }
        out.push('}');
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code may unwrap freely

    use super::*;

    #[test]
    fn counters_count_and_noops_do_not() {
        let c = Counter::active();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert!(c.is_active());
        let shared = c.clone();
        shared.inc();
        assert_eq!(c.get(), 6, "clones share the cell");
        let n = Counter::noop();
        n.inc();
        n.add(100);
        assert_eq!(n.get(), 0);
        assert!(!n.is_active());
        assert_eq!(Counter::default().get(), 0, "default is a no-op");
    }

    #[test]
    fn gauges_keep_the_last_value() {
        let g = Gauge::active();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        g.set(1.25);
        assert!((g.get() - 1.25).abs() < 1e-15);
        let n = Gauge::noop();
        n.set(9.0);
        assert_eq!(n.get(), 0.0);
    }

    #[test]
    fn bucket_index_and_upper_bracket_every_value() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i), "upper bound must cover {v}");
            if i > 0 {
                assert!(bucket_upper(i - 1) < v, "bucket below must not cover {v}");
            }
        }
    }

    #[test]
    fn histogram_quantiles_bound_known_samples() {
        let h = Histogram::active();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // True p50 is 50; the estimate is its bucket upper bound.
        let p50 = h.quantile(0.5);
        assert!((50..=101).contains(&p50), "p50 bound {p50}");
        let p99 = h.quantile(0.99);
        assert!((99..=199).contains(&p99), "p99 bound {p99}");
        assert_eq!(h.quantile(0.0), h.quantile(1e-9), "q=0 clamps to rank 1");
        let empty = Histogram::active();
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_is_concatenation() {
        let a = Histogram::active();
        let b = Histogram::active();
        let both = Histogram::active();
        for v in [0u64, 1, 5, 900] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 5, 1 << 33] {
            b.record(v);
            both.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot_value(), both.snapshot_value());
    }

    #[test]
    fn timer_guard_records_once_and_cancel_suppresses() {
        let h = Histogram::active();
        {
            let _t = h.start_timer();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 1_000_000, "at least the slept millisecond");
        h.start_timer().cancel();
        assert_eq!(h.count(), 1, "cancelled span must not record");
        let out = h.time(|| 7);
        assert_eq!(out, 7);
        assert_eq!(h.count(), 2);
        // A no-op histogram's guard records nowhere and reads no clock.
        let n = Histogram::noop();
        drop(n.start_timer());
        assert_eq!(n.count(), 0);
    }

    #[test]
    fn registry_get_or_create_shares_cells() {
        let reg = MetricRegistry::new();
        assert!(reg.is_enabled());
        assert!(reg.is_empty());
        let a = reg.counter("hits_total");
        let b = reg.counter("hits_total");
        a.inc();
        b.inc();
        assert_eq!(reg.snapshot().counter("hits_total"), Some(2));
        let h = reg.histogram("lat_nanos");
        h.record(5);
        reg.gauge("load").set(1.5);
        assert_eq!(reg.len(), 3);
        assert_eq!(
            reg.snapshot().histogram("lat_nanos").map(|h| h.count()),
            Some(1)
        );
        assert_eq!(reg.snapshot().gauge("load"), Some(1.5));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_confusion() {
        let reg = MetricRegistry::new();
        let _ = reg.counter("x");
        let _ = reg.histogram("x");
    }

    #[test]
    fn noop_registry_is_free_and_renders_empty() {
        let reg = MetricRegistry::noop();
        assert!(!reg.is_enabled());
        let c = reg.counter("hits_total");
        c.add(10);
        reg.histogram("h").record(3);
        reg.gauge("g").set(2.0);
        assert!(!c.is_active());
        assert!(reg.is_empty());
        assert!(reg.snapshot().is_empty());
        assert_eq!(reg.render_prometheus(), "");
    }

    #[test]
    fn series_encodes_labels() {
        assert_eq!(series("a", &[]), "a");
        assert_eq!(
            series("a_total", &[("graph", "g"), ("shard", "0")]),
            "a_total{graph=\"g\",shard=\"0\"}"
        );
        assert_eq!(
            split_series("a_total{graph=\"g\"}"),
            ("a_total", "graph=\"g\"")
        );
        assert_eq!(split_series("a_total"), ("a_total", ""));
    }

    #[test]
    fn hostile_label_values_render_valid_exposition() {
        // A tenant is free to name itself something exposition-hostile;
        // the rendered text must still parse (RFC: `\\`, `\"`, `\n`).
        let hostile = "bad\\tenant\"quoted\nline";
        assert_eq!(
            escape_label_value(hostile),
            "bad\\\\tenant\\\"quoted\\nline"
        );
        assert!(matches!(
            escape_label_value("tame"),
            std::borrow::Cow::Borrowed(_)
        ));

        let reg = MetricRegistry::new();
        reg.counter(&series("events_total", &[("graph", hostile)]))
            .add(7);
        reg.histogram(&series("latency_ns", &[("graph", hostile)]))
            .record(5);
        let text = reg.render_prometheus();
        // No raw newline may survive inside a label value: every line of
        // the exposition must be a comment or a `name{labels} value`
        // sample whose quotes balance.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let quotes = line.matches('"').count() - line.matches("\\\"").count();
            assert_eq!(quotes % 2, 0, "unbalanced quotes in sample line {line:?}");
            assert!(
                line.rsplit_once(' ').is_some(),
                "sample line {line:?} lost its value"
            );
        }
        assert!(text.contains("graph=\"bad\\\\tenant\\\"quoted\\nline\""));
        // The histogram splicer must compose `le` with the escaped label.
        assert!(text.contains("latency_ns_bucket{graph=\"bad\\\\tenant\\\"quoted\\nline\",le="));
    }

    #[test]
    fn snapshot_diff_is_exact_for_counters_and_histograms() {
        let reg = MetricRegistry::new();
        let c = reg.counter("events_total");
        let h = reg.histogram("size_bytes");
        c.add(3);
        h.record(10);
        let before = reg.snapshot();
        c.add(39);
        h.record(10);
        h.record(2000);
        reg.gauge("load").set(4.0);
        let after = reg.snapshot();
        let delta = after.diff(&before);
        assert_eq!(delta.counter("events_total"), Some(39));
        let dh = delta.histogram("size_bytes").unwrap();
        assert_eq!(dh.count(), 2);
        assert_eq!(dh.sum, 2010);
        assert_eq!(
            delta.gauge("load"),
            Some(4.0),
            "gauges keep the later value"
        );
    }

    #[test]
    fn snapshot_filter_selects_tenants() {
        let reg = MetricRegistry::new();
        reg.counter(&series("ops_total", &[("graph", "a")])).inc();
        reg.counter(&series("ops_total", &[("graph", "b")])).inc();
        let mine = reg.snapshot().filter(|name| name.contains("graph=\"a\""));
        assert_eq!(mine.len(), 1);
        assert_eq!(mine.counter("ops_total{graph=\"a\"}"), Some(1));
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let reg = MetricRegistry::new();
        reg.counter(&series("reqs_total", &[("graph", "g")])).add(7);
        reg.gauge("load_balance").set(1.25);
        let h = reg.histogram(&series("lat_nanos", &[("graph", "g")]));
        h.record(3);
        h.record(900);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE reqs_total counter"));
        assert!(text.contains("reqs_total{graph=\"g\"} 7"));
        assert!(text.contains("# TYPE load_balance gauge"));
        assert!(text.contains("load_balance 1.25"));
        assert!(text.contains("# TYPE lat_nanos histogram"));
        assert!(text.contains("lat_nanos_bucket{graph=\"g\",le=\"3\"} 1"));
        assert!(text.contains("lat_nanos_bucket{graph=\"g\",le=\"+Inf\"} 2"));
        assert!(text.contains("lat_nanos_sum{graph=\"g\"} 903"));
        assert!(text.contains("lat_nanos_count{graph=\"g\"} 2"));
        // Exactly one TYPE line per family.
        assert_eq!(text.matches("# TYPE lat_nanos ").count(), 1);
    }

    #[test]
    fn diff_drops_nothing_recorded_before() {
        let reg = MetricRegistry::new();
        let before = reg.snapshot();
        reg.counter("fresh_total").add(2);
        let delta = reg.snapshot().diff(&before);
        assert_eq!(
            delta.counter("fresh_total"),
            Some(2),
            "series absent from the earlier snapshot count from zero"
        );
    }
}
