//! Per-graph telemetry handle bundles for the serving layer.
//!
//! All handles are registered once, when the graph is created or
//! restored — hot paths (ingest, query execution, artifact access) only
//! touch pre-resolved [`Counter`]/[`Histogram`] handles, never the
//! registry's name map. Label sets are baked into the series names here
//! (`graph="…"`, `shard="…"`, `phase="…"`), so recording an event is one
//! relaxed atomic op with zero allocation.
//!
//! Naming scheme (see `DESIGN.md` § Observability): every series is
//! `dsg_<layer>_<what>_<unit-or-total>` with the owning tenant in a
//! `graph` label — `dsg_engine_*` for the ingest engine, `dsg_service_*`
//! for epochs, artifacts, and queries, `dsg_store_*` for durability.

use dsg_engine::EngineMetrics;
use dsg_telemetry::{series, Counter, FlightRecorder, Histogram, MetricRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Prometheus-style `query` label value per [`crate::Query`] variant, in
/// [`crate::Query::variant_index`] order.
pub(crate) const QUERY_VARIANTS: [&str; 6] = [
    "connectivity",
    "same_component",
    "distance",
    "is_far",
    "cut_estimate",
    "stats",
];

/// `artifact` label values, indexed by the `ART_*` constants.
pub(crate) const ARTIFACTS: [&str; 3] = ["forest", "oracle", "laplacian"];
/// Index of the spanning-forest artifact in [`ARTIFACTS`]-shaped arrays.
pub(crate) const ART_FOREST: usize = 0;
/// Index of the distance-oracle artifact.
pub(crate) const ART_ORACLE: usize = 1;
/// Index of the exact cut-Laplacian artifact.
pub(crate) const ART_CUT: usize = 2;

/// Handles for one epoch snapshot's derived-artifact cache: build
/// latency, build-once counters, and `OnceLock` cache hits per artifact,
/// plus the distance oracle's internal memo-cache counters (folded into
/// the registry; `DistanceOracle::cache_stats()` reads the same cells).
///
/// `Default` yields all-no-op handles, which is what directly
/// constructed snapshots (tests, offline tools) get.
#[derive(Debug, Clone, Default)]
pub(crate) struct ArtifactMetrics {
    /// Build wall time per artifact, nanoseconds.
    pub build_nanos: [Histogram; 3],
    /// Builds per artifact (at most one per epoch, by `OnceLock`).
    pub builds: [Counter; 3],
    /// Builds across all artifacts, kept in a plain atomic **outside**
    /// the metric registry so the `/epochz` admin view can report it even
    /// when telemetry is a no-op. One cell per graph, shared by every
    /// snapshot's clone.
    pub builds_total: Arc<AtomicU64>,
    /// Accesses served from the already-built artifact.
    pub cache_hits: [Counter; 3],
    /// Distance-oracle per-source memo cache hits.
    pub oracle_cache_hits: Counter,
    /// Distance-oracle per-source memo cache misses.
    pub oracle_cache_misses: Counter,
    /// Flight recorder the snapshot's artifact builds trace into (one
    /// `ArtifactBuild` event per `OnceLock` init, under the building
    /// thread's ambient trace id).
    pub tracer: FlightRecorder,
    /// Interned tenant token for trace events (0 = none).
    pub tenant: u32,
}

impl ArtifactMetrics {
    /// Counts one artifact build, in the registry and in `builds_total`.
    pub(crate) fn record_build(&self, artifact: usize) {
        self.builds[artifact].inc();
        self.builds_total.fetch_add(1, Ordering::Relaxed);
    }
}

/// Every telemetry handle one [`crate::ServedGraph`] records through,
/// resolved once at graph creation/restore.
#[derive(Debug, Clone, Default)]
pub(crate) struct GraphMetrics {
    /// Handles the ingest engine updates from its dispatch path.
    pub engine: EngineMetrics,
    /// Insert/delete pair annihilations in each shard's compacted log
    /// (every validated deletion cancels one prior insertion).
    pub cancellations: Vec<Counter>,
    /// Epoch-advance phase: forking the shard sketches under the ingest
    /// lock.
    pub epoch_fork: Histogram,
    /// Epoch-advance phase: reducing the forks to the coordinator sketch.
    pub epoch_merge: Histogram,
    /// Epoch-advance phase: sealing the compacted log's net segments.
    pub epoch_seal: Histogram,
    /// Epoch-advance phase: wire-format serialize + header peek
    /// (only the `advance_epoch_via_wire` path records this).
    pub epoch_wire: Histogram,
    /// Vertices each epoch advance had to re-merge (endpoints of the
    /// updates applied since the previous publish) — the size the phase
    /// timings above should be read against.
    pub epoch_dirty: Histogram,
    /// Query execution latency per [`crate::Query`] variant, in
    /// [`crate::Query::variant_index`] order.
    pub queries: [Histogram; 6],
    /// Handles handed to each published [`crate::EpochSnapshot`].
    pub artifacts: ArtifactMetrics,
    /// Flight recorder this graph's ingest and epoch paths trace into.
    pub tracer: FlightRecorder,
    /// This graph's interned tenant token (0 = none).
    pub tenant: u32,
}

impl GraphMetrics {
    /// Registers (or re-resolves) every series for graph `graph` with
    /// `shards` ingest shards, and interns the graph name as the tenant
    /// token of its trace events. Against a no-op registry this hands
    /// back all-no-op handles and registers nothing; against a no-op
    /// recorder every trace event is one dead branch.
    pub(crate) fn for_graph(
        reg: &MetricRegistry,
        tracer: &FlightRecorder,
        graph: &str,
        shards: usize,
    ) -> Self {
        let tenant = tracer.intern(graph);
        let g = |name: &str| series(name, &[("graph", graph)]);
        let per_shard = |name: &str| -> Vec<Counter> {
            (0..shards)
                .map(|s| {
                    reg.counter(&series(
                        name,
                        &[("graph", graph), ("shard", &s.to_string())],
                    ))
                })
                .collect()
        };
        let phase = |p: &str| {
            reg.histogram(&series(
                "dsg_service_epoch_phase_nanos",
                &[("graph", graph), ("phase", p)],
            ))
        };
        let per_artifact_hist = |name: &str| -> [Histogram; 3] {
            ARTIFACTS.map(|a| reg.histogram(&series(name, &[("artifact", a), ("graph", graph)])))
        };
        let per_artifact_ctr = |name: &str| -> [Counter; 3] {
            ARTIFACTS.map(|a| reg.counter(&series(name, &[("artifact", a), ("graph", graph)])))
        };
        Self {
            engine: EngineMetrics {
                routed: per_shard("dsg_engine_updates_routed_total"),
                batches_sent: reg.counter(&g("dsg_engine_batches_sent_total")),
                send_wait: reg.histogram(&g("dsg_engine_send_wait_nanos")),
                load_balance: reg.gauge(&g("dsg_engine_load_balance")),
                tracer: tracer.clone(),
                tenant,
            },
            cancellations: per_shard("dsg_engine_cancellations_total"),
            epoch_fork: phase("fork"),
            epoch_merge: phase("merge"),
            epoch_seal: phase("seal"),
            epoch_wire: phase("wire"),
            epoch_dirty: reg.histogram(&g("dsg_service_epoch_dirty_vertices")),
            queries: QUERY_VARIANTS.map(|q| {
                reg.histogram(&series(
                    "dsg_service_query_nanos",
                    &[("graph", graph), ("query", q)],
                ))
            }),
            artifacts: ArtifactMetrics {
                build_nanos: per_artifact_hist("dsg_service_artifact_build_nanos"),
                builds: per_artifact_ctr("dsg_service_artifact_builds_total"),
                builds_total: Arc::new(AtomicU64::new(0)),
                cache_hits: per_artifact_ctr("dsg_service_artifact_cache_hits_total"),
                oracle_cache_hits: reg.counter(&g("dsg_service_oracle_cache_hits_total")),
                oracle_cache_misses: reg.counter(&g("dsg_service_oracle_cache_misses_total")),
                tracer: tracer.clone(),
                tenant,
            },
            tracer: tracer.clone(),
            tenant,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code may unwrap freely

    use super::*;

    #[test]
    fn for_graph_registers_label_complete_series() {
        let reg = MetricRegistry::new();
        let m = GraphMetrics::for_graph(&reg, &FlightRecorder::noop(), "social", 3);
        assert_eq!(m.engine.routed.len(), 3);
        assert_eq!(m.cancellations.len(), 3);
        m.engine.routed[2].add(7);
        m.queries[0].record(100);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("dsg_engine_updates_routed_total{graph=\"social\",shard=\"2\"}"),
            Some(7)
        );
        assert_eq!(
            snap.histogram("dsg_service_query_nanos{graph=\"social\",query=\"connectivity\"}")
                .unwrap()
                .count(),
            1
        );
    }

    #[test]
    fn noop_registry_hands_out_noop_handles() {
        let reg = MetricRegistry::noop();
        let m = GraphMetrics::for_graph(&reg, &FlightRecorder::noop(), "g", 2);
        assert!(!m.engine.batches_sent.is_active());
        assert!(!m.epoch_fork.is_active());
        assert!(!m.artifacts.oracle_cache_hits.is_active());
        m.engine.batches_sent.inc();
        assert_eq!(reg.len(), 0, "no-op registry must register nothing");
    }

    #[test]
    fn default_metrics_are_noop() {
        let m = GraphMetrics::default();
        assert!(!m.epoch_seal.is_active());
        assert!(m.cancellations.is_empty());
    }
}
