//! What every workload shares: the tenant under test, the barrier clock,
//! the checked operations, and the bookkeeping of one pass.

use crate::reference::{Expect, Reference};
use crate::spans::Recorder;
use crate::stats::Samples;
use dsg_graph::StreamUpdate;
use dsg_service::{
    EpochSnapshot, FlightRecorder, GraphConfig, GraphRegistry, LoadGen, MetricRegistry, Query,
    Response, ServedGraph,
};
use dsg_store::DurableGraph;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registry name of the one tenant every workload serves.
pub const TENANT: &str = "bench";

/// The tenant shape the issue pins: 2 shards, batches of 256, and the
/// defaults for `churn_threshold`, `spanner_k` and `cut_eps`.
pub fn tenant_config(n: usize, seed: u64) -> GraphConfig {
    GraphConfig::new(n).seed(seed).shards(2).batch_size(256)
}

/// An in-memory registry as production builds it (`--trace 0`: metrics on,
/// flight recorder and auditor off), or with the flight recorder on too
/// for the traced pass.
pub fn new_registry(observe: bool) -> Arc<GraphRegistry> {
    Arc::new(if observe {
        GraphRegistry::with_observability(
            Arc::new(MetricRegistry::new()),
            FlightRecorder::with_capacity(1 << 14),
        )
    } else {
        GraphRegistry::new()
    })
}

/// The tenant under test, in memory or behind the store.
#[derive(Debug, Clone)]
pub enum Tenant {
    Mem(Arc<ServedGraph>),
    Durable(Arc<DurableGraph>),
}

impl Tenant {
    /// The layer whose public functions the harness is calling.
    pub fn layer(&self) -> Layer {
        match self {
            Tenant::Mem(_) => Layer::Service,
            Tenant::Durable(_) => Layer::Store,
        }
    }

    pub fn apply(&self, updates: &[StreamUpdate]) -> Result<u64, String> {
        match self {
            Tenant::Mem(g) => g.apply(updates).map_err(|e| e.to_string()),
            Tenant::Durable(g) => g.apply(updates).map_err(|e| e.to_string()),
        }
    }

    pub fn advance_epoch(&self) -> Result<Arc<EpochSnapshot>, String> {
        match self {
            Tenant::Mem(g) => Ok(g.advance_epoch()),
            Tenant::Durable(g) => g.advance_epoch().map_err(|e| e.to_string()),
        }
    }

    /// The durability point of a load: the WAL's `sync()`; nothing for an
    /// in-memory tenant.
    pub fn sync(&self) -> Result<(), String> {
        match self {
            Tenant::Mem(_) => Ok(()),
            Tenant::Durable(g) => g.sync().map_err(|e| e.to_string()),
        }
    }

    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        match self {
            Tenant::Mem(g) => g.snapshot(),
            Tenant::Durable(g) => g.snapshot(),
        }
    }

    pub fn query(&self, query: &Query) -> Result<Response, String> {
        match self {
            Tenant::Mem(g) => g.query(query).map_err(|e| e.to_string()),
            Tenant::Durable(g) => g.query(query).map_err(|e| e.to_string()),
        }
    }
}

/// Span-name prefixes of the two layers a tenant is driven through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Service,
    Store,
}

impl Layer {
    fn apply(self) -> &'static str {
        match self {
            Layer::Service => "service.apply",
            Layer::Store => "store.apply",
        }
    }

    fn advance(self) -> &'static str {
        match self {
            Layer::Service => "service.advance_epoch",
            Layer::Store => "store.advance_epoch",
        }
    }
}

/// An ingest or recovery clock. It can only be stopped against a snapshot
/// that already holds every applied update, so an enqueue-only rate (the
/// clock read when `apply()` returned, before the shard workers sketched
/// the stream) can never become a sample.
#[derive(Debug)]
pub struct BarrierClock {
    start: Instant,
}

/// The snapshot offered to [`BarrierClock::stop`] is short of the applied
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierShort {
    pub applied: u64,
    pub in_snapshot: u64,
}

impl std::fmt::Display for BarrierShort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snapshot holds {} of {} applied updates",
            self.in_snapshot, self.applied
        )
    }
}

impl BarrierClock {
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Reads the clock, provided `snapshot` holds all `applied` updates.
    pub fn stop(&self, snapshot: &EpochSnapshot, applied: u64) -> Result<Duration, BarrierShort> {
        let in_snapshot = snapshot.total_updates();
        if in_snapshot == applied {
            Ok(self.start.elapsed())
        } else {
            Err(BarrierShort {
                applied,
                in_snapshot,
            })
        }
    }
}

/// What answers served from `snap` must satisfy besides the graph itself.
pub fn expect_of(snap: &EpochSnapshot) -> Expect {
    Expect {
        stretch: 1 << snap.config().spanner_k,
        total_updates: snap.total_updates(),
    }
}

/// Whether an epoch's artifacts come from patching the previous epoch's
/// or from a from-scratch build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    Patch,
    Rebuild,
}

impl EpochKind {
    pub fn sample(self) -> &'static str {
        match self {
            EpochKind::Patch => "refresh_ms",
            EpochKind::Rebuild => "rebuild_ms",
        }
    }
}

/// A first-touch answer: the query that forces one artifact of a fresh
/// epoch, with its span name and the sample it feeds per epoch kind.
#[derive(Debug, Clone)]
pub struct FirstTouch {
    pub query: Query,
    pub span: &'static str,
    pub patch_sample: &'static str,
    pub rebuild_sample: &'static str,
}

impl FirstTouch {
    pub fn connectivity() -> Self {
        Self {
            query: Query::Connectivity,
            span: "service.first_connectivity",
            patch_sample: "forest_first_ms.patch",
            rebuild_sample: "forest_first_ms.rebuild",
        }
    }

    pub fn distance(n: usize) -> Self {
        Self {
            query: Query::Distance(0, n as u32 - 1),
            span: "service.first_distance",
            patch_sample: "oracle_first_ms.patch",
            rebuild_sample: "oracle_first_ms.rebuild",
        }
    }

    pub fn cut(n: usize) -> Self {
        Self {
            query: Query::CutEstimate((0..n as u32 / 2).collect()),
            span: "service.first_cut",
            patch_sample: "cut_first_ms.patch",
            rebuild_sample: "cut_first_ms.rebuild",
        }
    }
}

/// One pass over a workload: its spans, its samples, and its tally of
/// attempted and failed operations.
#[derive(Debug)]
pub struct Pass {
    pub rec: Rc<Recorder>,
    pub samples: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Queries asked in the timed loops, and the wall time of those loops.
    pub queries_timed: u64,
    pub query_wall: Duration,
    /// Per-query nanoseconds of the timed loops, all epochs pooled, by
    /// [`Query::variant_index`].
    pub query_nanos_by_variant: [Vec<u32>; 6],
    /// Wall time inside `apply()` calls, the base of the engine's
    /// send-wait share.
    pub apply_wall: Duration,
    /// Wall time of every sampled call into the program: what the traced
    /// pass is compared with the untraced one on.
    pub work_wall: Cell<Duration>,
    /// Warm-up work is checked but not sampled.
    pub sampling: bool,
}

impl Pass {
    pub fn new(rec: Rc<Recorder>) -> Self {
        Self {
            rec,
            samples: Samples::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            queries_timed: 0,
            query_wall: Duration::ZERO,
            query_nanos_by_variant: Default::default(),
            apply_wall: Duration::ZERO,
            work_wall: Cell::new(Duration::ZERO),
            sampling: true,
        }
    }

    /// Counts one operation; a failure keeps its description.
    pub fn tally(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.sampling {
            self.samples.push(name, value);
        }
    }

    /// Runs `f` in a span and returns its wall time beside its result.
    pub fn timed<T>(&self, span: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = self.rec.span(span, f);
        let wall = start.elapsed();
        if self.sampling {
            self.work_wall.set(self.work_wall.get() + wall);
        }
        (out, wall)
    }

    /// Applies `updates` in `batch`-sized calls. An `Err` is a failed
    /// operation and ends the pass: the tenant no longer matches the model.
    pub fn apply_all(
        &mut self,
        tenant: &Tenant,
        updates: &[StreamUpdate],
        batch: usize,
        applied: &mut u64,
    ) -> Result<(), String> {
        let span = tenant.layer().apply();
        for chunk in updates.chunks(batch) {
            let (result, wall) = self.timed(span, || tenant.apply(chunk));
            self.apply_wall += wall;
            self.sample("apply_us", wall.as_secs_f64() * 1e6);
            self.tally(result.is_ok(), || format!("apply failed: {result:?}"));
            *applied = result?;
        }
        Ok(())
    }

    /// `advance_epoch()` plus the barrier check: the returned snapshot
    /// holds every one of the `applied` updates, or the pass ends.
    pub fn advance(
        &mut self,
        tenant: &Tenant,
        applied: u64,
    ) -> Result<(Arc<EpochSnapshot>, Duration), String> {
        let (result, wall) = self.timed(tenant.layer().advance(), || tenant.advance_epoch());
        self.tally(result.is_ok(), || {
            format!("advance_epoch failed: {result:?}")
        });
        let snap = result?;
        self.sample("advance_ms", wall.as_secs_f64() * 1e3);
        self.rec.set_epoch(snap.epoch());
        let barrier = snap.total_updates() == applied;
        self.tally(barrier, || {
            format!(
                "barrier: epoch {} holds {} of {applied} applied updates",
                snap.epoch(),
                snap.total_updates()
            )
        });
        if barrier {
            Ok((snap, wall))
        } else {
            Err("advance_epoch() returned before the applied stream was sketched".into())
        }
    }

    /// A timed load: `updates` in `batch`-sized `apply()` calls, then
    /// `advance_epoch()`, then the tenant's durability point. The ingest
    /// rate is sampled only through the [`BarrierClock`]. Returns the new
    /// epoch and the wall time of its `advance_epoch()` call.
    pub fn load(
        &mut self,
        tenant: &Tenant,
        updates: &[StreamUpdate],
        batch: usize,
        applied: &mut u64,
    ) -> Result<(Arc<EpochSnapshot>, Duration), String> {
        let clock = BarrierClock::start();
        self.apply_all(tenant, updates, batch, applied)?;
        let (snap, advance_wall) = self.advance(tenant, *applied)?;
        if tenant.layer() == Layer::Store {
            let (result, _) = self.timed("store.sync", || tenant.sync());
            self.tally(result.is_ok(), || format!("sync failed: {result:?}"));
            result?;
        }
        let wall = clock
            .stop(&snap, *applied)
            .map_err(|short| short.to_string())?;
        self.sample("ingest_rate", updates.len() as f64 / wall.as_secs_f64());
        Ok((snap, advance_wall))
    }

    /// Asks each first-touch query, checks the answer, and samples how
    /// long each took under the epoch's kind. Returns their total wall.
    pub fn first_answers(
        &mut self,
        tenant: &Tenant,
        touches: &[FirstTouch],
        kind: EpochKind,
        model: &mut Reference,
        expect: Expect,
    ) -> Duration {
        let mut total = Duration::ZERO;
        for touch in touches {
            let (result, wall) = self.timed(touch.span, || tenant.query(&touch.query));
            total += wall;
            let name = match kind {
                EpochKind::Patch => touch.patch_sample,
                EpochKind::Rebuild => touch.rebuild_sample,
            };
            self.sample(name, wall.as_secs_f64() * 1e3);
            self.check(&touch.query, &result, model, expect);
        }
        total
    }

    /// The first-touch answers of the epoch `snap`, whose
    /// `advance_epoch()` call took `advance_wall`: samples the interval
    /// `epoch_refresh_ms` / `epoch_rebuild_ms` time — the advance plus
    /// every first-touch answer — and checks the sealed segment's size.
    pub fn finish_epoch(
        &mut self,
        tenant: &Tenant,
        (snap, advance_wall): (Arc<EpochSnapshot>, Duration),
        touches: &[FirstTouch],
        kind: EpochKind,
        model: &mut Reference,
    ) -> Arc<EpochSnapshot> {
        let expect = expect_of(&snap);
        let answers_wall = self.first_answers(tenant, touches, kind, model, expect);
        self.sample(
            kind.sample(),
            (advance_wall + answers_wall).as_secs_f64() * 1e3,
        );
        let live = snap.net_edges().num_edges() == model.num_edges();
        self.tally(live, || {
            format!(
                "epoch {} seals {} live edges, the model holds {}",
                snap.epoch(),
                snap.net_edges().num_edges(),
                model.num_edges()
            )
        });
        snap
    }

    /// Checks one answer against the model and keeps its quality numbers.
    pub fn check(
        &mut self,
        query: &Query,
        result: &Result<Response, String>,
        model: &mut Reference,
        expect: Expect,
    ) {
        match result {
            Err(e) => self.tally(false, || format!("{query:?} returned Err: {e}")),
            Ok(response) => {
                let verdict = model.check(query, response, expect);
                self.tally(verdict.ok, || format!("{query:?} answered {response:?}"));
                if let Some(s) = verdict.stretch {
                    self.sample("stretch", s);
                }
                if let Some(e) = verdict.cut_rel_err {
                    self.sample("cut_rel_err", e);
                }
            }
        }
    }

    /// The closed loops that follow an epoch: `scale.loops` of them, each
    /// over the next `scale.queries` queries of `load` (`done` counts the
    /// loops run so far, so that no two loops ask the same queries).
    pub fn query_loops(
        &mut self,
        tenant: &Tenant,
        load: &LoadGen,
        done: &mut u64,
        scale: crate::workloads::Scale,
        model: &mut Reference,
        snap: &EpochSnapshot,
    ) {
        for _ in 0..scale.loops {
            let first = *done * scale.queries;
            self.query_loop(tenant, load, first, scale.queries, model, expect_of(snap));
            *done += 1;
        }
    }

    /// A closed loop of one caller: queries `first..first + count` of
    /// `load`, each timed with its own `Instant` pair, every answer
    /// checked after the loop.
    pub fn query_loop(
        &mut self,
        tenant: &Tenant,
        load: &LoadGen,
        first: u64,
        count: u64,
        model: &mut Reference,
        expect: Expect,
    ) {
        let queries: Vec<Query> = self.rec.span("harness.gen_queries", || {
            (first..first + count).map(|i| load.query(i)).collect()
        });
        let mut nanos: Vec<u32> = Vec::with_capacity(queries.len());
        let mut results = Vec::with_capacity(queries.len());
        let ((), wall) = self.timed("service.query_loop", || {
            for query in &queries {
                let start = Instant::now();
                let result = tenant.query(query);
                nanos.push(u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX));
                results.push(result);
            }
        });
        self.sample("query_rate", count as f64 / wall.as_secs_f64());
        if self.sampling {
            self.queries_timed += count;
            self.query_wall += wall;
            for (query, &ns) in queries.iter().zip(&nanos) {
                self.query_nanos_by_variant[query.variant_index()].push(ns);
            }
        }
        // The loop's own percentiles: a loop lasts milliseconds, within one
        // of the sandbox's fast or slow phases, so the interquartile mean
        // of loop percentiles moves smoothly with the share of slow phases
        // where a percentile of the pooled samples would jump between two
        // modes, and a loop that a scheduling hiccup landed in is left out.
        nanos.sort_unstable();
        for (name, q) in [("query_p50_us", 0.50), ("query_p99_us", 0.99)] {
            let at = (nanos.len().saturating_sub(1) as f64 * q).round() as usize;
            if let Some(&ns) = nanos.get(at) {
                self.sample(name, f64::from(ns) / 1e3);
            }
        }
        Rc::clone(&self.rec).span("harness.check", || {
            for (query, result) in queries.iter().zip(&results) {
                self.check(query, result, model, expect);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_cannot_stop_short_of_the_applied_count() {
        let registry = new_registry(false);
        let graph = registry
            .create(TENANT, tenant_config(16, 1))
            .expect("fresh registry");
        let updates: Vec<StreamUpdate> = (0..10).map(|i| StreamUpdate::insert(i, i + 1)).collect();
        let clock = BarrierClock::start();
        let applied = graph.apply(&updates).expect("valid batch");
        assert_eq!(applied, 10);
        // apply() has returned, but no epoch holds the updates yet: this is
        // where the enqueue-only rate used to be read.
        assert_eq!(
            clock.stop(&graph.snapshot(), applied),
            Err(BarrierShort {
                applied: 10,
                in_snapshot: 0
            })
        );
        let snap = graph.advance_epoch();
        assert!(clock.stop(&snap, applied).is_ok());
        // A later apply makes the same snapshot short again.
        let applied = graph.apply(&updates[..1]).expect("valid batch");
        assert!(clock.stop(&snap, applied).is_err());
    }

    #[test]
    fn a_short_barrier_fails_the_pass_and_is_counted() {
        let registry = new_registry(false);
        let graph = registry
            .create(TENANT, tenant_config(16, 1))
            .expect("fresh registry");
        let tenant = Tenant::Mem(graph);
        let mut pass = Pass::new(Rc::new(Recorder::off()));
        let mut applied = 0;
        let updates = [StreamUpdate::insert(0, 1), StreamUpdate::insert(1, 2)];
        pass.apply_all(&tenant, &updates, 1, &mut applied)
            .expect("valid batches");
        assert_eq!(applied, 2);
        // Claiming one more applied update than the tenant has seen.
        assert!(pass.advance(&tenant, applied + 1).is_err());
        assert_eq!(pass.failed, 1);
        assert!(pass.advance(&tenant, applied).is_ok());
    }

    #[test]
    fn warm_up_work_is_checked_but_not_sampled() {
        let mut pass = Pass::new(Rc::new(Recorder::off()));
        pass.sampling = false;
        pass.sample("x", 1.0);
        pass.tally(false, || "boom".into());
        assert!(pass.samples.get("x").is_empty());
        assert_eq!((pass.attempted, pass.failed), (1, 1));
    }
}
