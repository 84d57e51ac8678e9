//! Immutable epoch snapshots and their lazily built derived artifacts.
//!
//! An [`EpochSnapshot`] is the unit of snapshot isolation: it owns the
//! merged coordinator sketch frozen at one stream position, plus the
//! **compacted net edge segment** sealed at the same position (a
//! [`NetMultiset`] — O(current edges), never O(stream length); see
//! [`crate::compact`]). Readers query it freely while ingest continues on
//! the engine; nothing in a snapshot is ever mutated after publication
//! except the one-shot initialization of its artifact cells.
//!
//! Artifacts are cached per epoch in [`OnceLock`]s:
//!
//! * **spanning forest + component labels** — decoded from the AGM sketch
//!   (Theorem 10); backs connectivity and same-component queries;
//! * **distance oracle** — the two-pass `2^k`-spanner (Theorem 1) rebuilt
//!   from the compacted segment, wrapped in the memoizing
//!   [`DistanceOracle`]; backs distance and far/near queries;
//! * **cut sparsifier** — the KP12 pipeline (Corollary 2) over the
//!   compacted segment, reduced to its [`Laplacian`]; backs cut-value
//!   estimates.
//!
//! Both multi-pass builders consume the **same** sealed segment (one
//! `Arc`, built once at epoch advance) — no per-artifact log
//! materialization. Rebuilding from the net multiset is bit-identical to
//! replaying the raw log, because each pass's stream-facing state is
//! linear in the updates and everything between passes is a deterministic
//! function of that state; `crates/service/tests/net_props.rs` asserts
//! the order-insensitivity end to end.
//!
//! The merged sketch of successive snapshots is structurally shared: an
//! advance re-merges only the vertices its updates touched and points at
//! the predecessor's states for the rest, so holding the previous epoch
//! costs O(changes) memory (see `DESIGN.md`, "Structural sharing of the
//! merged sketch").
//!
//! `OnceLock::get_or_init` guarantees each artifact is built exactly once
//! per epoch no matter how many readers race for it; advancing the epoch
//! publishes a new snapshot, which *is* the cache invalidation.

use crate::metrics::{ArtifactMetrics, ART_CUT, ART_FOREST, ART_ORACLE};
use crate::query::{GraphStats, Query, Response};
use crate::{GraphConfig, ServiceError};
use dsg_agm::forest::ForestResult;
use dsg_agm::AgmSketch;
use dsg_graph::components::UnionFind;
use dsg_graph::{Edge, Graph, NetMultiset, SegmentDelta, Vertex};
use dsg_spanner::oracle::DistanceOracle;
use dsg_spanner::TwoPassSpanner;
use dsg_sparsifier::Laplacian;
use dsg_sparsifier::TwoPassSparsifier;
use dsg_telemetry::{trace, EventKind};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Signed weight updates turning the previous epoch's sparsifier edge
/// list into the new one — `(edge, 0.0)` deletes, any other entry sets
/// the edge's new weight. Both inputs are sorted by edge, so one merge
/// scan finds the differences; weights compare by bit pattern because
/// the patched Laplacian must be bit-identical to a rebuilt one.
fn laplacian_updates(prev: &Laplacian, new_edges: &[(Edge, f64)]) -> Vec<(Edge, f64)> {
    let prev_triples = prev.edge_triples();
    let mut updates = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < prev_triples.len() && j < new_edges.len() {
        let (u, v, w) = prev_triples[i];
        let pe = Edge::new(u, v);
        let (ne, nw) = new_edges[j];
        match pe.cmp(&ne) {
            std::cmp::Ordering::Less => {
                updates.push((pe, 0.0));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                updates.push((ne, nw));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if w.to_bits() != nw.to_bits() {
                    updates.push((pe, nw));
                }
                i += 1;
                j += 1;
            }
        }
    }
    while i < prev_triples.len() {
        let (u, v, _) = prev_triples[i];
        updates.push((Edge::new(u, v), 0.0));
        i += 1;
    }
    updates.extend_from_slice(&new_edges[j..]);
    updates
}

/// The spanning forest of an epoch plus the component structure derived
/// from it, so membership queries are O(1) after one decode.
#[derive(Debug, Clone)]
pub struct ForestData {
    /// The decoded forest (Theorem 10).
    pub result: ForestResult,
    /// Component representative per vertex (two vertices are connected
    /// iff their labels are equal).
    pub labels: Vec<Vertex>,
    /// Number of connected components (isolated vertices included).
    pub num_components: usize,
}

/// The cut-query artifact: the KP12 sparsifier collapsed to a Laplacian.
#[derive(Debug, Clone)]
pub struct CutData {
    /// Laplacian of the weighted sparsifier.
    pub laplacian: Laplacian,
    /// Edges the sparsifier kept.
    pub sparsifier_edges: usize,
}

/// Which artifacts of a snapshot have been built so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArtifactStatus {
    /// Spanning forest + component labels.
    pub forest: bool,
    /// Spanner-backed distance oracle.
    pub oracle: bool,
    /// KP12 cut sparsifier.
    pub cut: bool,
}

/// An immutable view of one served graph frozen at an epoch boundary.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    config: GraphConfig,
    total_updates: u64,
    sketch: AgmSketch,
    /// The compacted net edge segment sealed at the epoch boundary — the
    /// single shared multi-pass input both the oracle and the cut
    /// builders rebuild from (O(current edges), order-free).
    net: Arc<NetMultiset>,
    forest: OnceLock<Arc<ForestData>>,
    oracle: OnceLock<Arc<DistanceOracle>>,
    cut: OnceLock<Arc<CutData>>,
    /// Predecessor link for incremental artifact maintenance, installed
    /// at publish time. Publishing a successor clears the predecessor's
    /// own link, so the chain never grows past depth 1.
    prev: Mutex<Option<Arc<EpochSnapshot>>>,
    /// Segment diff against the linked predecessor, computed once on
    /// first incremental attempt (one merge scan of the two segments).
    delta: OnceLock<Arc<SegmentDelta>>,
    /// Retained two-pass spanner state (the pass-1/pass-2 linear states
    /// of the oracle build), kept so the *next* epoch can patch them
    /// with the segment diff instead of re-ingesting its whole segment.
    /// The successor *moves* the state out when it patches (the retained
    /// sketches are large — deep-cloning them costs more than the patch
    /// itself); a snapshot whose state was taken simply can no longer
    /// seed a second patch chain, which a depth-1 chain never needs.
    retained_spanner: Mutex<Option<Arc<TwoPassSpanner>>>,
    /// Retained KP12 pipeline state, for the same reason.
    retained_sparsifier: Mutex<Option<Arc<TwoPassSparsifier>>>,
    /// Telemetry handles for the artifact cells: build timings,
    /// build-once counters, cache hits, and the oracle's memo-cache
    /// counters. All-no-op for directly constructed snapshots.
    metrics: ArtifactMetrics,
}

impl EpochSnapshot {
    /// Builds a snapshot. Internal to the crate: snapshots are published
    /// by [`crate::ServedGraph::advance_epoch`].
    pub(crate) fn new(
        epoch: u64,
        config: GraphConfig,
        sketch: AgmSketch,
        net: Arc<NetMultiset>,
        total_updates: u64,
        metrics: ArtifactMetrics,
    ) -> Self {
        Self {
            epoch,
            config,
            total_updates,
            sketch,
            net,
            forest: OnceLock::new(),
            oracle: OnceLock::new(),
            cut: OnceLock::new(),
            prev: Mutex::new(None),
            delta: OnceLock::new(),
            retained_spanner: Mutex::new(None),
            retained_sparsifier: Mutex::new(None),
            metrics,
        }
    }

    /// Links the predecessor snapshot (called once, by the publisher).
    pub(crate) fn set_prev(&self, prev: Arc<EpochSnapshot>) {
        *self.prev.lock().expect("prev lock poisoned") = Some(prev);
    }

    /// Drops the predecessor link (called on the old snapshot when its
    /// successor is published, bounding the chain at depth 1).
    pub(crate) fn clear_prev(&self) {
        self.prev.lock().expect("prev lock poisoned").take();
    }

    /// The linked predecessor snapshot, while one is installed.
    pub fn prev(&self) -> Option<Arc<EpochSnapshot>> {
        self.prev.lock().expect("prev lock poisoned").clone()
    }

    fn store_retained_spanner(&self, alg: TwoPassSpanner) {
        *self
            .retained_spanner
            .lock()
            .expect("retained lock poisoned") = Some(Arc::new(alg));
    }

    /// Moves the retained oracle spanner state out for a successor's
    /// patch; `None` if the oracle was never built here or a successor
    /// already took it.
    fn take_retained_spanner(&self) -> Option<Arc<TwoPassSpanner>> {
        self.retained_spanner
            .lock()
            .expect("retained lock poisoned")
            .take()
    }

    fn store_retained_sparsifier(&self, alg: TwoPassSparsifier) {
        *self
            .retained_sparsifier
            .lock()
            .expect("retained lock poisoned") = Some(Arc::new(alg));
    }

    /// Moves the retained KP12 pipeline state out for a successor's
    /// patch; `None` if the cut was never built here or a successor
    /// already took it.
    fn take_retained_sparsifier(&self) -> Option<Arc<TwoPassSparsifier>> {
        self.retained_sparsifier
            .lock()
            .expect("retained lock poisoned")
            .take()
    }

    /// The segment diff against `prev`, computed once per snapshot.
    fn delta_from(&self, prev: &EpochSnapshot) -> Arc<SegmentDelta> {
        Arc::clone(
            self.delta
                .get_or_init(|| Arc::new(self.net.diff(prev.net_edges()))),
        )
    }

    /// The epoch number (0 is the empty snapshot a graph starts with).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The graph's configuration.
    pub fn config(&self) -> &GraphConfig {
        &self.config
    }

    /// Vertices of the served graph.
    pub fn num_vertices(&self) -> usize {
        self.config.n
    }

    /// Updates frozen into this snapshot.
    pub fn total_updates(&self) -> u64 {
        self.total_updates
    }

    /// The merged coordinator sketch frozen at the epoch boundary.
    pub fn sketch(&self) -> &AgmSketch {
        &self.sketch
    }

    /// Which artifacts have been built so far.
    pub fn artifact_status(&self) -> ArtifactStatus {
        ArtifactStatus {
            forest: self.forest.get().is_some(),
            oracle: self.oracle.get().is_some(),
            cut: self.cut.get().is_some(),
        }
    }

    /// The compacted net edge segment frozen into this snapshot — the
    /// shared multi-pass artifact input, and (for offline verification)
    /// an exact order-free summary of the frozen prefix.
    pub fn net_edges(&self) -> &Arc<NetMultiset> {
        &self.net
    }

    /// The forest artifact, built on first use (one sketch decode).
    pub fn forest(&self) -> Arc<ForestData> {
        if let Some(built) = self.forest.get() {
            self.metrics.cache_hits[ART_FOREST].inc();
            return Arc::clone(built);
        }
        Arc::clone(self.forest.get_or_init(|| {
            let _t = self.metrics.build_nanos[ART_FOREST].start_timer();
            self.metrics.builds[ART_FOREST].inc();
            self.trace_build(ART_FOREST);
            if let Some(patched) = self.try_patch_forest() {
                return patched;
            }
            self.metrics.record_full(ART_FOREST);
            Self::forest_data(self.config.n, self.sketch.spanning_forest())
        }))
    }

    /// Derives labels and the component count from a decoded forest.
    fn forest_data(n: usize, result: ForestResult) -> Arc<ForestData> {
        let mut uf = UnionFind::new(n);
        for e in &result.edges {
            uf.union(e.u(), e.v());
        }
        let labels: Vec<Vertex> = (0..n as Vertex).map(|v| uf.find(v)).collect();
        let num_components = uf.num_components();
        Arc::new(ForestData {
            result,
            labels,
            num_components,
        })
    }

    /// Attempts the O(changes) forest refresh: restricted Borůvka over
    /// only the components the segment diff touched, splicing the
    /// predecessor's forest edges in everywhere else. Returns `None`
    /// (→ full rebuild) when no predecessor with a built forest is
    /// linked. The edge set is bit-identical to a full decode either
    /// way; only `ForestResult::decode_failures` (a diagnostic) is
    /// scoped to the re-decoded components.
    fn try_patch_forest(&self) -> Option<Arc<ForestData>> {
        let prev = self.prev()?;
        let prev_forest = Arc::clone(prev.forest.get()?);
        let delta = self.delta_from(&prev);
        let started = Instant::now();
        // A component is dirty iff the diff changed the net multiplicity
        // of an edge incident to it — weight-only changes are invisible
        // to the AGM sketch.
        let mut dirty_labels: HashSet<Vertex> = HashSet::new();
        delta.for_each_multiplicity_delta(&mut |e, _, _| {
            dirty_labels.insert(prev_forest.labels[e.u() as usize]);
            dirty_labels.insert(prev_forest.labels[e.v() as usize]);
        });
        let active: Vec<bool> = prev_forest
            .labels
            .iter()
            .map(|l| dirty_labels.contains(l))
            .collect();
        // A forest edge's endpoints share a component, so testing one
        // endpoint classifies the edge.
        let kept: Vec<Edge> = prev_forest
            .result
            .edges
            .iter()
            .copied()
            .filter(|e| !active[e.u() as usize])
            .collect();
        let result = self.sketch.spanning_forest_restricted(&active, &kept);
        let data = Self::forest_data(self.config.n, result);
        self.record_patch(ART_FOREST, started);
        Some(data)
    }

    /// The distance-oracle artifact, built on first use by running the
    /// two-pass spanner over the shared compacted segment (deterministic
    /// in the graph seed, so every rebuild of the same epoch agrees, and
    /// bit-identical to a raw-log replay by pass linearity).
    pub fn oracle(&self) -> Arc<DistanceOracle> {
        if let Some(built) = self.oracle.get() {
            self.metrics.cache_hits[ART_ORACLE].inc();
            return Arc::clone(built);
        }
        Arc::clone(self.oracle.get_or_init(|| {
            let _t = self.metrics.build_nanos[ART_ORACLE].start_timer();
            self.metrics.builds[ART_ORACLE].inc();
            self.trace_build(ART_ORACLE);
            if let Some(patched) = self.try_patch_oracle() {
                return patched;
            }
            self.metrics.record_full(ART_ORACLE);
            let alg = TwoPassSpanner::build(self.net.as_ref(), self.config.oracle_params());
            let spanner = alg.output().expect("both passes ran").spanner.clone();
            self.store_retained_spanner(alg);
            Arc::new(self.wrap_oracle(spanner))
        }))
    }

    /// Wraps a spanner in the oracle, folding its memo-cache counters
    /// into the registry when instrumented; standalone snapshots keep the
    /// oracle's own private cells (`cache_stats()` reads whichever is in).
    fn wrap_oracle(&self, spanner: Graph) -> DistanceOracle {
        let mut oracle = DistanceOracle::new(spanner, 1 << self.config.spanner_k);
        if self.metrics.oracle_cache_hits.is_active() {
            oracle = oracle.with_cache_counters(
                self.metrics.oracle_cache_hits.clone(),
                self.metrics.oracle_cache_misses.clone(),
            );
        }
        oracle
    }

    /// Attempts the O(changes) oracle refresh: take over the
    /// predecessor's retained two-pass state, patch its linear pass
    /// states with the segment diff, and re-decode — bit-identical to
    /// re-ingesting the whole segment, by pass linearity. Cached BFS rows
    /// of the previous oracle carry over for every source whose spanner
    /// component no added or removed spanner edge touches (those rows are
    /// provably unchanged).
    fn try_patch_oracle(&self) -> Option<Arc<DistanceOracle>> {
        let prev = self.prev()?;
        let prev_oracle = Arc::clone(prev.oracle.get()?);
        let delta = self.delta_from(&prev);
        let retained = prev.take_retained_spanner()?;
        let started = Instant::now();
        let mut alg = Arc::try_unwrap(retained).unwrap_or_else(|shared| (*shared).clone());
        let spanner = alg.patch(delta.as_ref(), self.net.as_ref()).spanner.clone();
        self.store_retained_spanner(alg);
        let oracle = self.wrap_oracle(spanner);
        let prev_edges: HashSet<Edge> = prev_oracle.spanner().edges().iter().copied().collect();
        let new_edges: HashSet<Edge> = oracle.spanner().edges().iter().copied().collect();
        let mut touched: Vec<Vertex> = Vec::new();
        for e in prev_edges.symmetric_difference(&new_edges) {
            touched.push(e.u());
            touched.push(e.v());
        }
        if touched.is_empty() {
            oracle.warm_from(&prev_oracle, &|_| true);
        } else {
            // Components are taken over the *previous* spanner: a kept
            // row is a BFS over that graph, and it stays valid exactly
            // when its whole component is untouched by the edge diff.
            let mut uf = UnionFind::new(self.config.n);
            for e in prev_oracle.spanner().edges() {
                uf.union(e.u(), e.v());
            }
            let labels: Vec<Vertex> = (0..self.config.n as Vertex).map(|v| uf.find(v)).collect();
            let dirty: HashSet<Vertex> = touched.iter().map(|&v| labels[v as usize]).collect();
            oracle.warm_from(&prev_oracle, &|src| !dirty.contains(&labels[src as usize]));
        }
        self.record_patch(ART_ORACLE, started);
        Some(Arc::new(oracle))
    }

    /// The cut artifact, built on first use by running KP12 over the
    /// same shared compacted segment the oracle consumes.
    pub fn cut_data(&self) -> Arc<CutData> {
        if let Some(built) = self.cut.get() {
            self.metrics.cache_hits[ART_CUT].inc();
            return Arc::clone(built);
        }
        Arc::clone(self.cut.get_or_init(|| {
            let _t = self.metrics.build_nanos[ART_CUT].start_timer();
            self.metrics.builds[ART_CUT].inc();
            self.trace_build(ART_CUT);
            if let Some(patched) = self.try_patch_cut() {
                return patched;
            }
            self.metrics.record_full(ART_CUT);
            let alg = TwoPassSparsifier::build(self.net.as_ref(), self.config.cut_params());
            let out = alg.assemble().expect("both passes ran");
            self.store_retained_sparsifier(alg);
            Arc::new(CutData {
                laplacian: Laplacian::from_weighted(&out.sparsifier),
                sparsifier_edges: out.sparsifier.num_edges(),
            })
        }))
    }

    /// Attempts the O(changes) cut refresh: patch the predecessor's
    /// retained KP12 pipeline with the diff (only the inner spanners
    /// whose subsample filters intersect the diff do any work), then
    /// splice the sparsifier's weight changes into the previous Laplacian
    /// as ±w edge updates instead of rebuilding it with `from_weighted`.
    fn try_patch_cut(&self) -> Option<Arc<CutData>> {
        let prev = self.prev()?;
        let prev_cut = Arc::clone(prev.cut.get()?);
        let delta = self.delta_from(&prev);
        let retained = prev.take_retained_sparsifier()?;
        let started = Instant::now();
        let mut alg = Arc::try_unwrap(retained).unwrap_or_else(|shared| (*shared).clone());
        let out = alg.patch(delta.as_ref(), self.net.as_ref());
        self.store_retained_sparsifier(alg);
        let updates = laplacian_updates(&prev_cut.laplacian, out.sparsifier.edges());
        let laplacian = prev_cut.laplacian.apply_edge_updates(updates);
        let data = Arc::new(CutData {
            laplacian,
            sparsifier_edges: out.sparsifier.num_edges(),
        });
        self.record_patch(ART_CUT, started);
        Some(data)
    }

    /// Records a successful patch: counters + histogram + shared tallies,
    /// and one flight-recorder event under the ambient trace id.
    fn record_patch(&self, artifact: usize, started: Instant) {
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.metrics.record_patch(artifact, nanos);
        self.metrics.tracer.record(
            EventKind::ArtifactPatch,
            trace::current_trace_id(),
            self.metrics.tenant,
            artifact as u64,
        );
    }

    /// Traces one artifact build under the building thread's ambient
    /// trace id — so a build forced by a pool query lands in that query's
    /// causal chain (cache *hits* are deliberately untraced: they are
    /// ~70 ns lookups the recorder would dominate).
    fn trace_build(&self, artifact: usize) {
        self.metrics.tracer.record(
            EventKind::ArtifactBuild,
            trace::current_trace_id(),
            self.metrics.tenant,
            artifact as u64,
        );
    }

    fn check_vertex(&self, v: Vertex) -> Result<(), ServiceError> {
        if (v as usize) < self.config.n {
            Ok(())
        } else {
            Err(ServiceError::VertexOutOfRange {
                vertex: v,
                n: self.config.n,
            })
        }
    }

    /// Executes one query against this frozen snapshot.
    ///
    /// # Errors
    ///
    /// [`ServiceError::VertexOutOfRange`] if the query names a vertex the
    /// graph does not have.
    pub fn execute(&self, query: &Query) -> Result<Response, ServiceError> {
        match query {
            Query::Connectivity => {
                let forest = self.forest();
                Ok(Response::Connectivity {
                    connected: forest.num_components == 1,
                    num_components: forest.num_components,
                })
            }
            Query::SameComponent(u, v) => {
                self.check_vertex(*u)?;
                self.check_vertex(*v)?;
                let forest = self.forest();
                Ok(Response::SameComponent(
                    forest.labels[*u as usize] == forest.labels[*v as usize],
                ))
            }
            Query::Distance(u, v) => {
                self.check_vertex(*u)?;
                self.check_vertex(*v)?;
                Ok(Response::Distance(self.oracle().estimate(*u, *v)))
            }
            Query::IsFar { u, v, threshold } => {
                self.check_vertex(*u)?;
                self.check_vertex(*v)?;
                Ok(Response::IsFar(self.oracle().is_far(*u, *v, *threshold)))
            }
            Query::CutEstimate(side) => {
                let mut in_side = vec![false; self.config.n];
                for &v in side {
                    self.check_vertex(v)?;
                    in_side[v as usize] = true;
                }
                Ok(Response::CutEstimate(
                    self.cut_data().laplacian.cut_value(&in_side),
                ))
            }
            Query::Stats => {
                let status = self.artifact_status();
                Ok(Response::Stats(GraphStats {
                    epoch: self.epoch,
                    num_vertices: self.config.n,
                    total_updates: self.total_updates,
                    artifacts: status,
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code may unwrap freely

    use super::*;
    use dsg_graph::{gen, GraphStream};

    fn snapshot_for(n: usize, seed: u64) -> (dsg_graph::Graph, EpochSnapshot) {
        let g = gen::erdos_renyi(n, 0.15, seed);
        let stream = GraphStream::with_churn(&g, 1.0, seed ^ 0xE0);
        let config = GraphConfig::new(n).seed(seed);
        let mut sketch = AgmSketch::new(n, seed);
        for up in stream.updates() {
            sketch.update(up.edge, up.delta as i128);
        }
        let net = Arc::new(stream.net_multiset());
        let total = stream.len() as u64;
        let snap = EpochSnapshot::new(1, config, sketch, net, total, Default::default());
        (g, snap)
    }

    #[test]
    fn artifacts_build_lazily_and_once() {
        let (_, snap) = snapshot_for(40, 3);
        assert_eq!(snap.artifact_status(), ArtifactStatus::default());
        let f1 = snap.forest();
        assert!(snap.artifact_status().forest);
        let f2 = snap.forest();
        assert!(Arc::ptr_eq(&f1, &f2), "forest must be built exactly once");
        let o1 = snap.oracle();
        let o2 = snap.oracle();
        assert!(Arc::ptr_eq(&o1, &o2), "oracle must be built exactly once");
    }

    #[test]
    fn component_labels_match_true_components() {
        let (g, snap) = snapshot_for(50, 4);
        let truth = dsg_graph::components::connected_components(&g);
        let forest = snap.forest();
        for u in 0..50u32 {
            for v in (u + 1)..50u32 {
                assert_eq!(
                    forest.labels[u as usize] == forest.labels[v as usize],
                    truth[u as usize] == truth[v as usize],
                    "component mismatch at ({u},{v})"
                );
            }
        }
        assert_eq!(
            forest.num_components,
            dsg_graph::components::num_components(&g)
        );
    }

    #[test]
    fn queries_validate_vertices() {
        let (_, snap) = snapshot_for(20, 5);
        assert!(matches!(
            snap.execute(&Query::SameComponent(0, 25)),
            Err(ServiceError::VertexOutOfRange { vertex: 25, n: 20 })
        ));
        assert!(matches!(
            snap.execute(&Query::Distance(21, 0)),
            Err(ServiceError::VertexOutOfRange { vertex: 21, n: 20 })
        ));
        assert!(matches!(
            snap.execute(&Query::CutEstimate(vec![0, 20])),
            Err(ServiceError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn cut_estimate_is_close_to_truth() {
        let (g, snap) = snapshot_for(40, 6);
        let side: Vec<Vertex> = (0..20).collect();
        let Response::CutEstimate(est) = snap.execute(&Query::CutEstimate(side)).unwrap() else {
            panic!("wrong response variant");
        };
        let mut in_side = vec![false; 40];
        in_side[..20].fill(true);
        let truth = Laplacian::from_graph(&g).cut_value(&in_side);
        // KP12 at laptop scale is approximate; the estimate must at least
        // be positive for a dense random cut and within a loose factor.
        assert!(est > 0.0, "cut estimate collapsed to zero (truth {truth})");
        assert!(
            est <= 3.0 * truth + 1e-9 && est >= truth / 3.0 - 1e-9,
            "cut estimate {est} wildly off from {truth}"
        );
    }

    #[test]
    fn stats_report_epoch_and_artifacts() {
        let (_, snap) = snapshot_for(20, 7);
        let Response::Stats(stats) = snap.execute(&Query::Stats).unwrap() else {
            panic!("wrong response variant");
        };
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.num_vertices, 20);
        assert!(!stats.artifacts.forest);
        let _ = snap.forest();
        let Response::Stats(stats) = snap.execute(&Query::Stats).unwrap() else {
            panic!("wrong response variant");
        };
        assert!(stats.artifacts.forest);
    }
}
