//! The multi-tenant graph registry and the per-graph serving state.
//!
//! A [`ServedGraph`] pairs a live sharded ingest engine with the most
//! recently published [`EpochSnapshot`]. Writers append updates under the
//! ingest lock; readers clone an `Arc` of the current snapshot and never
//! contend with ingest. [`ServedGraph::advance_epoch`] is the only bridge
//! between the two sides: it forks every shard's state between batches
//! (workers keep running), re-merges the vertices the epoch's updates
//! touched, and publishes the result.
//!
//! The update log is kept **compacted and sharded**
//! ([`ShardedCompactedLog`]): updates route to a per-shard
//! net-multiplicity map with the same hash the engine routes them to a
//! worker, insertions and deletions of the same pair cancel at ingest,
//! and writer-side state is O(current edges) — never O(stream length).
//! Advancing an epoch seals one net segment per shard and assembles the
//! epoch segment by concatenating them (disjoint by routing). Each
//! published snapshot builds its artifacts from its own segment only; no
//! artifact links to a predecessor epoch.

use crate::compact::ShardedCompactedLog;
use crate::epoch::EpochSnapshot;
use crate::metrics::GraphMetrics;
use crate::query::{Query, Response};
use crate::{GraphConfig, ServiceError};
use dsg_agm::AgmSketch;
use dsg_engine::{EdgeUpdate, EngineConfig, ShardedEngine};
use dsg_graph::{NetMultiset, StreamUpdate, Vertex};
use dsg_telemetry::{trace, EventKind, FlightRecorder, MetricRegistry, MetricsSnapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Writer-side state: the live engine plus the sharded compacted log,
/// partitioned by the same routing function.
struct IngestState {
    engine: ShardedEngine<AgmSketch>,
    live: ShardedCompactedLog,
    /// `dirty[v]`: some update pushed to the engine since the last
    /// publish had `v` as an endpoint — exactly the vertices whose merged
    /// sketch states may differ from the published snapshot's. Marked in
    /// `apply_logged`, cleared in `publish`, nowhere else.
    dirty: Vec<bool>,
}

/// Everything a durability layer must persist to bring a [`ServedGraph`]
/// back bit-identically after a crash: the per-shard sketches and the
/// compacted net edge segment, captured **atomically at an epoch
/// boundary** by
/// [`ServedGraph::checkpoint_state`] and turned back into a live graph by
/// [`GraphRegistry::restore`]. By linearity, a graph restored from this
/// state and fed the remaining stream answers exactly like one that never
/// stopped — `dsg-store` builds its checkpoint files around this struct.
#[derive(Debug, Clone)]
pub struct PersistedGraph {
    /// The epoch counter at the capture point (capture advances an epoch,
    /// so this is also the epoch of the published snapshot).
    pub epoch: u64,
    /// Updates ingested up to the capture point.
    pub total_updates: u64,
    /// One [`PersistedShard`] per engine shard, in shard order: the
    /// worker's true capture-point sketch next to its sealed net segment.
    /// With hash-partitioned routing the raw forks **are** canonical —
    /// shard `i`'s sketch is a deterministic function of the net
    /// sub-stream of the edges `shard_for` assigns it, bounded by the
    /// live subgraph the shard owns, no matter how much churn flowed
    /// through.
    pub shards: Vec<PersistedShard>,
}

/// One engine shard's persisted state: its capture-point sketch and the
/// sealed net segment of the edges it owns. The two sides are views of
/// the same sub-stream — the sketch is what the worker resumes ingest
/// from, the segment is what re-seeds its compacted log and, concatenated
/// across shards, rebuilds the epoch's multi-pass artifacts.
#[derive(Debug, Clone)]
pub struct PersistedShard {
    /// The shard worker's sketch at the capture point.
    pub sketch: AgmSketch,
    /// The sealed net segment of the edges this shard owns.
    pub net: NetMultiset,
}

impl PersistedGraph {
    /// Assembles the epoch-wide net segment by concatenating the
    /// (disjoint, routing-partitioned) shard segments.
    ///
    /// # Panics
    ///
    /// Panics if the shard segments are not disjoint or disagree on the
    /// vertex count — persisted state from a correct capture always is.
    pub fn epoch_net(&self) -> NetMultiset {
        let n = self
            .shards
            .first()
            .expect("persisted graph has at least one shard")
            .net
            .num_vertices();
        NetMultiset::merge_disjoint(n, self.shards.iter().map(|s| &s.net))
    }
}

/// One tenant graph: a live ingest engine plus the current epoch snapshot.
pub struct ServedGraph {
    name: String,
    config: GraphConfig,
    ingest: Mutex<IngestState>,
    current: RwLock<Arc<EpochSnapshot>>,
    /// Dirty-vertex count of the most recent advance, for `/epochz` (a
    /// plain atomic so it reports even when telemetry is a no-op).
    last_dirty_vertices: AtomicU64,
    metrics: GraphMetrics,
    telemetry: Arc<MetricRegistry>,
}

impl std::fmt::Debug for ServedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedGraph")
            .field("name", &self.name)
            .field("config", &self.config)
            .field("epoch", &self.snapshot().epoch())
            .finish_non_exhaustive()
    }
}

impl ServedGraph {
    fn new(
        name: String,
        config: GraphConfig,
        telemetry: Arc<MetricRegistry>,
        tracer: &FlightRecorder,
    ) -> Self {
        let (n, seed) = (config.n, config.seed);
        let metrics = GraphMetrics::for_graph(&telemetry, tracer, &name, config.shards);
        let engine_cfg = EngineConfig::new(config.shards).batch_size(config.batch_size);
        let mut engine = ShardedEngine::start(engine_cfg, |_| AgmSketch::new(n, seed));
        engine.set_metrics(metrics.engine.clone());
        let epoch0 = EpochSnapshot::new(
            0,
            config,
            AgmSketch::new(n, seed),
            Arc::new(NetMultiset::empty(n)),
            0,
            metrics.artifacts.clone(),
        );
        Self {
            name,
            config,
            ingest: Mutex::new(IngestState {
                engine,
                live: ShardedCompactedLog::new(n, config.shards),
                dirty: vec![false; n],
            }),
            current: RwLock::new(Arc::new(epoch0)),
            last_dirty_vertices: AtomicU64::new(0),
            metrics,
            telemetry,
        }
    }

    /// The registry name of this graph.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The graph's configuration.
    pub fn config(&self) -> &GraphConfig {
        &self.config
    }

    /// Appends a batch of stream updates to the live engine (and the
    /// compacted log). Returns the total updates ingested so far.
    ///
    /// # Errors
    ///
    /// [`ServiceError::VertexOutOfRange`] if any update names a vertex
    /// outside `[0, n)`, [`ServiceError::InvalidDelta`] for a delta
    /// outside ±1, [`ServiceError::NegativeMultiplicity`] if a deletion
    /// would drive some pair's net multiplicity below zero (the
    /// dynamic-stream model's own precondition, and the ground on which
    /// the compacted log may cancel updates). The whole batch is rejected
    /// before any of it is applied, so a bad batch never half-lands.
    pub fn apply(&self, updates: &[StreamUpdate]) -> Result<u64, ServiceError> {
        self.apply_logged(updates, || Ok(()))
    }

    /// Like [`apply`](ServedGraph::apply), but runs `log` between
    /// validation and the in-memory apply, **all under one ingest-lock
    /// hold** — the hook a durability layer uses for its WAL append.
    /// Because validation, `log`, and the apply share the critical
    /// section, the state that was validated is exactly the state the
    /// batch lands on: no concurrent writer (not even one bypassing
    /// durability through a raw [`ServedGraph`] handle) can interleave a
    /// mutation that would make memory refuse a batch the log already
    /// acknowledged. If `log` fails, nothing lands.
    ///
    /// # Errors
    ///
    /// As [`apply`](ServedGraph::apply), through `E: From<ServiceError>`,
    /// plus whatever `log` returns.
    pub fn apply_logged<E, F>(&self, updates: &[StreamUpdate], log: F) -> Result<u64, E>
    where
        E: From<ServiceError>,
        F: FnOnce() -> Result<(), E>,
    {
        let n = self.config.n;
        self.check_vertices(updates).map_err(E::from)?;
        let mut st = self.ingest.lock().expect("ingest lock poisoned");
        st.live.check_batch(updates).map_err(E::from)?;
        log()?;
        for up in updates {
            st.engine
                .push(EdgeUpdate::new(up.edge.index(n), up.delta as i128));
            let shard = st.live.apply(up);
            st.dirty[up.edge.u() as usize] = true;
            st.dirty[up.edge.v() as usize] = true;
            // A validated deletion always annihilates one prior insertion
            // in the owning shard's net map — count it as a cancellation.
            if up.delta < 0 {
                if let Some(cancelled) = self.metrics.cancellations.get(shard) {
                    cancelled.inc();
                }
            }
        }
        // One trace event per *batch* (never per update), under the
        // caller's ambient trace id — a WAL-backed apply shares the id
        // its durable layer installed.
        self.metrics.tracer.record(
            EventKind::IngestBatch,
            trace::current_trace_id(),
            self.metrics.tenant,
            updates.len() as u64,
        );
        Ok(st.engine.pushed())
    }

    /// The shared stateless range check of every batch entry point.
    fn check_vertices(&self, updates: &[StreamUpdate]) -> Result<(), ServiceError> {
        let n = self.config.n;
        for up in updates {
            let big = up.edge.v(); // canonical order: v is the larger endpoint
            if big as usize >= n {
                return Err(ServiceError::VertexOutOfRange { vertex: big, n });
            }
        }
        Ok(())
    }

    /// Convenience: applies one edge insertion.
    pub fn insert(&self, u: Vertex, v: Vertex) -> Result<u64, ServiceError> {
        self.apply(&[StreamUpdate::insert(u, v)])
    }

    /// Convenience: applies one edge deletion.
    pub fn delete(&self, u: Vertex, v: Vertex) -> Result<u64, ServiceError> {
        self.apply(&[StreamUpdate::delete(u, v)])
    }

    /// Freezes the current stream position into a new immutable epoch and
    /// publishes it, while the shard workers keep running. In-memory
    /// path: the new coordinator sketch shares every state of the
    /// published one except those of the vertices updated since, which
    /// are re-summed from the shard forks ([`AgmSketch::remerge`]) — the
    /// advance costs O(changes), and so does holding the previous epoch.
    pub fn advance_epoch(&self) -> Arc<EpochSnapshot> {
        let trace_id = self.trace_or_mint();
        let _scope = trace::scoped(trace_id);
        let mut st = self.ingest.lock().expect("ingest lock poisoned");
        let (_forks, merged) = self.fork_and_remerge(&mut st, trace_id);
        self.publish(&mut st, merged)
    }

    /// The reduction of every advance: fork the shards (the caller
    /// holds the ingest lock, so all forks see the same prefix),
    /// then re-merge only the dirty vertices over the published sketch,
    /// recording how many vertices the merge had to treat as changed —
    /// what tells a slow advance from a large one. Returns the forks too
    /// (a checkpoint persists them).
    fn fork_and_remerge(&self, st: &mut IngestState, trace_id: u64) -> (Vec<AgmSketch>, AgmSketch) {
        let forks = self.metrics.epoch_fork.time(|| st.engine.snapshot_shards());
        self.metrics.tracer.record(
            EventKind::EpochFork,
            trace_id,
            self.metrics.tenant,
            forks.len() as u64,
        );
        let prev = self.snapshot();
        let merged = self
            .metrics
            .epoch_merge
            .time(|| prev.sketch().remerge(&forks, &st.dirty));
        let dirty = st.dirty.iter().filter(|&&d| d).count() as u64;
        self.metrics.epoch_dirty.record(dirty);
        self.last_dirty_vertices.store(dirty, Ordering::Relaxed);
        self.metrics
            .tracer
            .record(EventKind::EpochMerge, trace_id, self.metrics.tenant, dirty);
        (forks, merged)
    }

    /// The trace id an epoch advance runs under: the caller's ambient id
    /// when one is in scope (a recovery replay, a durable checkpoint), a
    /// freshly minted one otherwise — so every advance is causally
    /// addressable without forcing every caller to mint.
    fn trace_or_mint(&self) -> u64 {
        match trace::current_trace_id() {
            0 => self.metrics.tracer.next_trace_id(),
            ambient => ambient,
        }
    }

    /// Seals every shard's compacted log and assembles the epoch's net
    /// edge segment by concatenating the (disjoint) shard segments, then
    /// swaps in the new snapshot and resets the dirty set (which is
    /// defined against the snapshot being published). Must be called with
    /// the ingest lock held (enforced by the `&mut` borrow). O(current
    /// edges) — bounded by the live graph no matter how long the stream
    /// has run.
    fn publish(&self, st: &mut IngestState, merged: AgmSketch) -> Arc<EpochSnapshot> {
        st.dirty.fill(false);
        let total = st.engine.pushed();
        let next_epoch = self.snapshot().epoch() + 1;
        let net = self.metrics.epoch_seal.time(|| st.live.seal_epoch());
        self.metrics.tracer.record(
            EventKind::EpochSeal,
            trace::current_trace_id(),
            self.metrics.tenant,
            net.num_edges() as u64,
        );
        let snap = Arc::new(EpochSnapshot::new(
            next_epoch,
            self.config,
            merged,
            Arc::new(net),
            total,
            self.metrics.artifacts.clone(),
        ));
        *self.current.write().expect("epoch lock poisoned") = Arc::clone(&snap);
        self.metrics.tracer.record(
            EventKind::EpochPublish,
            trace::current_trace_id(),
            self.metrics.tenant,
            next_epoch,
        );
        snap
    }

    /// Advances an epoch and captures the state a durability layer must
    /// persist, **atomically**: under one ingest-lock hold, every shard is
    /// forked at the same stream position, the forks are merged and
    /// published as the new epoch, and each shard's true fork is returned
    /// next to its sealed net segment. With hash-partitioned routing the
    /// forks need no canonicalization — each is already a deterministic,
    /// O(live subgraph ∩ shard) function of the net sub-stream the shard
    /// owns. A graph restored from the result —
    /// [`GraphRegistry::restore`] — serves the same answers, bit for bit,
    /// as this one did at the capture point.
    ///
    /// The returned forks share their states with the live workers; a
    /// worker copies a state only if it writes to it while the
    /// `PersistedGraph` is still alive.
    pub fn checkpoint_state(&self) -> PersistedGraph {
        let trace_id = self.trace_or_mint();
        let _scope = trace::scoped(trace_id);
        let mut st = self.ingest.lock().expect("ingest lock poisoned");
        let (forks, merged) = self.fork_and_remerge(&mut st, trace_id);
        let shard_nets = self.metrics.epoch_seal.time(|| st.live.seal_shards());
        let snap = self.publish(&mut st, merged);
        debug_assert_eq!(forks.len(), shard_nets.len(), "one segment per shard");
        PersistedGraph {
            epoch: snap.epoch(),
            total_updates: st.engine.pushed(),
            shards: forks
                .into_iter()
                .zip(shard_nets)
                .map(|(sketch, net)| PersistedShard { sketch, net })
                .collect(),
        }
    }

    /// Rebuilds a served graph from persisted state: each engine worker
    /// resumes from its own sketch (workers spawn pre-loaded), each
    /// shard's compacted log is re-seeded from its sealed segment, and the
    /// capture-point epoch — its net segment assembled by concatenating
    /// the shard segments — is republished as the current snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `state.shards.len() != config.shards`, or if a shard
    /// segment contains an edge the routing function assigns to a
    /// different shard — a checkpoint can only restore into the partition
    /// it was taken from.
    fn restore(
        name: String,
        config: GraphConfig,
        state: PersistedGraph,
        telemetry: Arc<MetricRegistry>,
        tracer: &FlightRecorder,
    ) -> Self {
        let metrics = GraphMetrics::for_graph(&telemetry, tracer, &name, config.shards);
        let engine_cfg = EngineConfig::new(config.shards).batch_size(config.batch_size);
        let net = Arc::new(state.epoch_net());
        let (sketches, shard_nets): (Vec<AgmSketch>, Vec<NetMultiset>) =
            state.shards.into_iter().map(|s| (s.sketch, s.net)).unzip();
        // Nothing published yet to share states with: every vertex is
        // dirty, so the base contributes only its shape and the remerge is
        // the full merge.
        let base = sketches.first().expect("persisted graph has a shard");
        let merged = base.remerge(&sketches, &vec![true; base.num_vertices()]);
        let mut engine = ShardedEngine::restore(engine_cfg, sketches, state.total_updates);
        engine.set_metrics(metrics.engine.clone());
        let live = ShardedCompactedLog::from_shard_nets(&shard_nets);
        let snap = EpochSnapshot::new(
            state.epoch,
            config,
            merged,
            Arc::clone(&net),
            state.total_updates,
            metrics.artifacts.clone(),
        );
        Self {
            name,
            config,
            ingest: Mutex::new(IngestState {
                engine,
                live,
                dirty: vec![false; config.n],
            }),
            current: RwLock::new(Arc::new(snap)),
            last_dirty_vertices: AtomicU64::new(0),
            metrics,
            telemetry,
        }
    }

    /// The current epoch snapshot (an `Arc` clone; readers keep querying
    /// it even after later epochs are published).
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.current.read().expect("epoch lock poisoned"))
    }

    /// Executes a query against the **current** epoch. For a pinned
    /// epoch, hold the [`snapshot`](ServedGraph::snapshot) and call
    /// [`EpochSnapshot::execute`] directly.
    ///
    /// # Errors
    ///
    /// Whatever [`EpochSnapshot::execute`] returns.
    pub fn query(&self, query: &Query) -> Result<Response, ServiceError> {
        let snap = self.snapshot();
        self.metrics.queries[query.variant_index()].time(|| snap.execute(query))
    }

    /// This tenant's slice of the telemetry registry: every series
    /// labelled `graph="<name>"`, as an immutable, diffable
    /// [`MetricsSnapshot`]. Registry-wide views (including unlabelled
    /// pool series) come from [`GraphRegistry::telemetry`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let needle = format!("graph=\"{}\"", self.name);
        self.telemetry
            .snapshot()
            .filter(|series| series.contains(&needle))
    }

    /// A point-in-time operational summary of this tenant — what the
    /// admin endpoint's `/epochz` serves per graph.
    pub fn epoch_stats(&self) -> TenantEpochStats {
        let snap = self.snapshot();
        TenantEpochStats {
            name: self.name.clone(),
            epoch: snap.epoch(),
            total_updates: snap.total_updates(),
            net_edges: snap.net_edges().num_edges(),
            num_vertices: snap.num_vertices(),
            load_balance: self.metrics.engine.load_balance.get(),
            full_builds: self.metrics.artifacts.builds_total.load(Ordering::Relaxed),
            last_dirty_vertices: self.last_dirty_vertices.load(Ordering::Relaxed),
        }
    }
}

/// One tenant's row in the admin endpoint's `/epochz` view.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantEpochStats {
    /// The graph's registry name.
    pub name: String,
    /// Epoch of the currently published snapshot.
    pub epoch: u64,
    /// Updates frozen into that snapshot.
    pub total_updates: u64,
    /// Size of the sealed net-edge segment (the live graph's edges).
    pub net_edges: usize,
    /// Vertices of the served graph.
    pub num_vertices: usize,
    /// Live max/mean routed-update ratio across the ingest shards (0.0
    /// when telemetry is off — the gauge is a no-op).
    pub load_balance: f64,
    /// Artifact builds this tenant has run, across all artifact kinds.
    /// Every build is a full one from its own epoch's snapshot, at most
    /// one per artifact per epoch.
    pub full_builds: u64,
    /// Vertices the most recent epoch advance had to re-merge (endpoints
    /// of the updates applied since the advance before it; 0 until the
    /// first advance). A slow advance with a small count is a slow
    /// advance; with a large one it is a large epoch.
    pub last_dirty_vertices: u64,
}

/// The multi-tenant registry: many named [`ServedGraph`]s behind one
/// read-mostly lock, sharing one [`MetricRegistry`] every tenant's
/// telemetry lands in.
#[derive(Debug)]
pub struct GraphRegistry {
    graphs: RwLock<HashMap<String, Arc<ServedGraph>>>,
    telemetry: Arc<MetricRegistry>,
    tracer: FlightRecorder,
}

impl Default for GraphRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphRegistry {
    /// An empty registry with telemetry on (the default: recording is a
    /// relaxed atomic op per event, cheap enough to keep always-on).
    pub fn new() -> Self {
        Self::with_telemetry(Arc::new(MetricRegistry::new()))
    }

    /// An empty registry recording into `telemetry` — share one
    /// [`MetricRegistry`] across registries, or pass
    /// [`MetricRegistry::noop`] to disable instrumentation entirely
    /// (every handle degrades to a no-op; nothing is ever registered).
    pub fn with_telemetry(telemetry: Arc<MetricRegistry>) -> Self {
        Self::with_observability(telemetry, FlightRecorder::noop())
    }

    /// An empty registry recording metrics into `telemetry` and trace
    /// events into `tracer` — the full observability stack. Every tenant
    /// created or restored through this registry traces its ingest
    /// batches, epoch advances, and artifact builds into the shared
    /// recorder under its own interned tenant token.
    pub fn with_observability(telemetry: Arc<MetricRegistry>, tracer: FlightRecorder) -> Self {
        Self {
            graphs: RwLock::new(HashMap::new()),
            telemetry,
            tracer,
        }
    }

    /// The shared metric registry all tenants record into.
    pub fn telemetry(&self) -> &Arc<MetricRegistry> {
        &self.telemetry
    }

    /// The shared flight recorder all tenants trace into (a no-op
    /// recorder unless built via
    /// [`with_observability`](GraphRegistry::with_observability)).
    pub fn tracer(&self) -> &FlightRecorder {
        &self.tracer
    }

    /// Every registered tenant's [`TenantEpochStats`], sorted by name —
    /// the `/epochz` admin view.
    pub fn epoch_stats(&self) -> Vec<TenantEpochStats> {
        let graphs: Vec<Arc<ServedGraph>> = self
            .graphs
            .read()
            .expect("registry lock poisoned")
            .values()
            .cloned()
            .collect();
        let mut stats: Vec<TenantEpochStats> = graphs.iter().map(|g| g.epoch_stats()).collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }

    /// Renders every registered series — all tenants, all layers — in
    /// Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.telemetry.render_prometheus()
    }

    /// Registers a new graph and starts its ingest engine.
    ///
    /// # Errors
    ///
    /// [`ServiceError::DuplicateGraph`] if the name is taken.
    pub fn create(
        &self,
        name: &str,
        config: GraphConfig,
    ) -> Result<Arc<ServedGraph>, ServiceError> {
        let mut graphs = self.graphs.write().expect("registry lock poisoned");
        if graphs.contains_key(name) {
            return Err(ServiceError::DuplicateGraph(name.to_string()));
        }
        let graph = Arc::new(ServedGraph::new(
            name.to_string(),
            config,
            Arc::clone(&self.telemetry),
            &self.tracer,
        ));
        graphs.insert(name.to_string(), Arc::clone(&graph));
        Ok(graph)
    }

    /// Re-registers a graph from persisted state (see
    /// [`ServedGraph::checkpoint_state`]): the recovery path of a durable
    /// registry. The restored graph's engine resumes from the checkpoint's
    /// shard sketches; replaying the post-checkpoint update tail through
    /// [`ServedGraph::apply`] then brings it to the durable stream
    /// position.
    ///
    /// # Errors
    ///
    /// [`ServiceError::DuplicateGraph`] if the name is taken.
    ///
    /// # Panics
    ///
    /// Panics if `state.shards.len() != config.shards`.
    pub fn restore(
        &self,
        name: &str,
        config: GraphConfig,
        state: PersistedGraph,
    ) -> Result<Arc<ServedGraph>, ServiceError> {
        let mut graphs = self.graphs.write().expect("registry lock poisoned");
        if graphs.contains_key(name) {
            return Err(ServiceError::DuplicateGraph(name.to_string()));
        }
        let graph = Arc::new(ServedGraph::restore(
            name.to_string(),
            config,
            state,
            Arc::clone(&self.telemetry),
            &self.tracer,
        ));
        graphs.insert(name.to_string(), Arc::clone(&graph));
        Ok(graph)
    }

    /// Looks up a graph by name.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownGraph`] if nothing is registered under
    /// `name`.
    pub fn get(&self, name: &str) -> Result<Arc<ServedGraph>, ServiceError> {
        self.graphs
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownGraph(name.to_string()))
    }

    /// Unregisters a graph. Existing `Arc` handles (and in-flight
    /// queries) stay valid; when the last handle drops, the engine's
    /// shard workers are joined deterministically (not detached), so a
    /// durable close can flush and delete the tenant's files immediately
    /// after without racing a straggler thread.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownGraph`] if nothing is registered under
    /// `name`.
    pub fn remove(&self, name: &str) -> Result<(), ServiceError> {
        self.graphs
            .write()
            .expect("registry lock poisoned")
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ServiceError::UnknownGraph(name.to_string()))
    }

    /// Registered graph names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .graphs
            .read()
            .expect("registry lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.graphs.read().expect("registry lock poisoned").len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code may unwrap freely

    use super::*;
    use dsg_graph::gen;
    use dsg_graph::GraphStream;

    #[test]
    fn registry_is_multi_tenant() {
        let reg = GraphRegistry::new();
        assert!(reg.is_empty());
        let a = reg.create("a", GraphConfig::new(10)).unwrap();
        let b = reg.create("b", GraphConfig::new(20).seed(1)).unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["a".to_string(), "b".to_string()]);
        a.insert(0, 1).unwrap();
        b.insert(5, 6).unwrap();
        assert_eq!(a.advance_epoch().total_updates(), 1);
        assert_eq!(b.advance_epoch().total_updates(), 1);
        assert!(matches!(
            reg.create("a", GraphConfig::new(5)),
            Err(ServiceError::DuplicateGraph(_))
        ));
        reg.remove("a").unwrap();
        assert!(matches!(reg.get("a"), Err(ServiceError::UnknownGraph(_))));
        assert!(reg.get("b").is_ok());
    }

    #[test]
    fn epoch_zero_is_empty_and_epochs_count_up() {
        let reg = GraphRegistry::new();
        let g = reg.create("g", GraphConfig::new(8)).unwrap();
        let snap0 = g.snapshot();
        assert_eq!(snap0.epoch(), 0);
        assert_eq!(snap0.total_updates(), 0);
        assert_eq!(snap0.forest().num_components, 8);
        g.insert(0, 1).unwrap();
        assert_eq!(g.advance_epoch().epoch(), 1);
        g.insert(2, 3).unwrap();
        let snap2 = g.advance_epoch();
        assert_eq!(snap2.epoch(), 2);
        assert_eq!(snap2.total_updates(), 2);
        // The old handle still answers from its frozen position.
        assert_eq!(snap0.forest().num_components, 8);
    }

    #[test]
    fn out_of_range_updates_are_rejected_atomically() {
        let reg = GraphRegistry::new();
        let g = reg.create("g", GraphConfig::new(5)).unwrap();
        let batch = [StreamUpdate::insert(0, 1), StreamUpdate::insert(2, 7)];
        assert!(matches!(
            g.apply(&batch),
            Err(ServiceError::VertexOutOfRange { vertex: 7, n: 5 })
        ));
        // Nothing from the bad batch landed.
        assert_eq!(g.advance_epoch().total_updates(), 0);
    }

    #[test]
    fn checkpoint_state_restores_bit_identically() {
        let n = 24;
        let g0 = gen::erdos_renyi(n, 0.2, 21);
        let stream = GraphStream::with_churn(&g0, 1.0, 22);
        let updates = stream.updates();
        let cut = updates.len() / 2;
        let config = GraphConfig::new(n).seed(9).shards(3).batch_size(8);

        let reg = GraphRegistry::new();
        let live = reg.create("live", config).unwrap();
        live.apply(&updates[..cut]).unwrap();
        let state = live.checkpoint_state();
        assert_eq!(state.total_updates, cut as u64);
        assert_eq!(
            state.epoch_net(),
            GraphStream::new(n, updates[..cut].to_vec()).net_multiset(),
            "assembled shard segments must be the net of the durable prefix"
        );
        assert_eq!(state.shards.len(), 3);
        // Per-shard canonicity: every persisted segment entry is owned by
        // the shard that persisted it, and each shard's sketch is exactly
        // a fresh sketch of its own segment (no churn residue survives).
        for (i, shard) in state.shards.iter().enumerate() {
            let mut own = dsg_agm::AgmSketch::new(n, config.seed);
            for e in shard.net.entries() {
                assert_eq!(
                    dsg_engine::shard_for(e.edge.index(n), 3),
                    i,
                    "segment entry on the wrong shard"
                );
                dsg_sketch::LinearSketch::update(&mut own, e.edge.index(n), e.multiplicity as i128);
            }
            assert_eq!(
                dsg_sketch::LinearSketch::to_bytes(&shard.sketch),
                dsg_sketch::LinearSketch::to_bytes(&own),
                "shard {i} fork must be canonical in its own segment"
            );
        }

        // Restore into a second registry and feed both the same tail.
        let reg2 = GraphRegistry::new();
        let back = reg2.restore("live", config, state).unwrap();
        assert_eq!(back.snapshot().epoch(), live.snapshot().epoch());
        live.apply(&updates[cut..]).unwrap();
        back.apply(&updates[cut..]).unwrap();
        let sa = live.advance_epoch();
        let sb = back.advance_epoch();
        assert_eq!(
            dsg_sketch::LinearSketch::to_bytes(sa.sketch()),
            dsg_sketch::LinearSketch::to_bytes(sb.sketch()),
            "restored graph diverged from the uninterrupted one"
        );
        assert_eq!(sa.forest().edges, sb.forest().edges);
        assert_eq!(sa.total_updates(), sb.total_updates());
        assert!(matches!(
            reg2.restore("live", config, back.checkpoint_state()),
            Err(ServiceError::DuplicateGraph(_))
        ));
    }

    #[test]
    fn telemetry_traces_ingest_epochs_and_queries() {
        let reg = GraphRegistry::new();
        let g = reg
            .create("soc", GraphConfig::new(12).shards(2).batch_size(4))
            .unwrap();
        g.apply(&[
            StreamUpdate::insert(0, 1),
            StreamUpdate::insert(1, 2),
            StreamUpdate::insert(0, 1),
            StreamUpdate::delete(0, 1),
        ])
        .unwrap();
        g.advance_epoch();
        g.query(&Query::Connectivity).unwrap();
        g.query(&Query::Connectivity).unwrap();
        let snap = g.metrics();
        let routed: u64 = (0..2)
            .filter_map(|s| {
                snap.counter(&format!(
                    "dsg_engine_updates_routed_total{{graph=\"soc\",shard=\"{s}\"}}"
                ))
            })
            .sum();
        assert_eq!(routed, 4, "all updates routed through the engine");
        let cancelled: u64 = (0..2)
            .filter_map(|s| {
                snap.counter(&format!(
                    "dsg_engine_cancellations_total{{graph=\"soc\",shard=\"{s}\"}}"
                ))
            })
            .sum();
        assert_eq!(cancelled, 1, "the one deletion cancelled one insertion");
        for phase in ["fork", "merge", "seal"] {
            let h = snap
                .histogram(&format!(
                    "dsg_service_epoch_phase_nanos{{graph=\"soc\",phase=\"{phase}\"}}"
                ))
                .unwrap();
            assert!(h.count() >= 1, "epoch phase {phase} must be timed");
        }
        let dirty = snap
            .histogram("dsg_service_epoch_dirty_vertices{graph=\"soc\"}")
            .unwrap();
        assert_eq!(
            (dirty.count(), dirty.sum),
            (1, 3),
            "one advance, which re-merged the endpoints 0, 1, 2"
        );
        assert_eq!(g.epoch_stats().last_dirty_vertices, 3);
        assert_eq!(
            snap.counter("dsg_service_artifact_builds_total{artifact=\"forest\",graph=\"soc\"}"),
            Some(1),
            "forest built exactly once across two connectivity queries"
        );
        assert_eq!(
            snap.counter(
                "dsg_service_artifact_cache_hits_total{artifact=\"forest\",graph=\"soc\"}"
            ),
            Some(1)
        );
        let q = snap
            .histogram("dsg_service_query_nanos{graph=\"soc\",query=\"connectivity\"}")
            .unwrap();
        assert_eq!(q.count(), 2);
        // The tenant slice carries only this graph's series; the full
        // registry rendering includes them in Prometheus text form.
        assert!(snap.iter().all(|(name, _)| name.contains("graph=\"soc\"")));
        let text = reg.render_prometheus();
        assert!(text.contains("dsg_engine_updates_routed_total{graph=\"soc\",shard=\"0\"}"));
        assert!(text.contains("# TYPE dsg_service_query_nanos histogram"));
    }

    #[test]
    fn oracle_cache_counters_fold_into_the_registry() {
        let reg = GraphRegistry::new();
        let g = reg.create("g", GraphConfig::new(10)).unwrap();
        for v in 0..9 {
            g.insert(v, v + 1).unwrap();
        }
        g.advance_epoch();
        g.query(&Query::Distance(0, 9)).unwrap();
        g.query(&Query::Distance(0, 9)).unwrap();
        let snap = g.metrics();
        let hits = snap
            .counter("dsg_service_oracle_cache_hits_total{graph=\"g\"}")
            .unwrap();
        let misses = snap
            .counter("dsg_service_oracle_cache_misses_total{graph=\"g\"}")
            .unwrap();
        assert!(misses >= 1, "first distance query misses the memo cache");
        assert!(hits >= 1, "repeat distance query hits the memo cache");
    }

    #[test]
    fn noop_telemetry_registers_and_renders_nothing() {
        let reg = GraphRegistry::with_telemetry(Arc::new(dsg_telemetry::MetricRegistry::noop()));
        let g = reg.create("g", GraphConfig::new(8)).unwrap();
        g.insert(0, 1).unwrap();
        g.advance_epoch();
        g.query(&Query::Connectivity).unwrap();
        assert!(g.metrics().is_empty());
        assert_eq!(reg.render_prometheus(), "");
    }
}
