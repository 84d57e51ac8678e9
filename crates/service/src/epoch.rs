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
//! Artifacts are cached per epoch in [`OnceLock`]s, and each is built
//! **once per epoch, from this snapshot's sealed segment alone** — no
//! artifact reads a predecessor epoch or decodes the sketch, so each is a
//! deterministic function of the segment, and sharded ≡ single and
//! recovered ≡ uncrashed hold by construction:
//!
//! * **spanning forest + component labels** — one union–find pass over
//!   the segment's sorted entries ([`dsg_graph::components::forest_of`]);
//!   exact, and backs connectivity and same-component queries;
//! * **distance oracle** — the Baswana–Sen `(2k−1)`-spanner of the sealed
//!   segment's live graph, wrapped in the memoizing [`DistanceOracle`];
//!   backs distance and far/near queries with stretch at most
//!   [`GraphConfig::oracle_stretch`] (`2k − 1`, within the paper's `2^k`
//!   for every `k ≥ 1`). The segment is held in full, so the offline
//!   construction the paper measures Theorem 1 against replaces the
//!   two-pass sketches, at a fraction of the build cost;
//! * **cut Laplacian** — the exact [`Laplacian`] of the compacted
//!   segment's live graph; backs cut-value queries, which it answers
//!   exactly in one O(live edges) scan.
//!
//! All three read the **same** sealed segment (one `Arc`, built once at
//! epoch advance) — no per-artifact log materialization.
//!
//! The merged sketch answers no query. Checkpoints persist the shard
//! sketches it is merged from, and [`EpochSnapshot::sketch`] exposes it
//! for their bit-identity checks. Successive snapshots share it
//! structurally: an advance re-merges only the vertices its updates
//! touched and points at the predecessor's states for the rest, so
//! holding the previous epoch costs O(changes) memory (see `DESIGN.md`,
//! "Structural sharing of the merged sketch").
//!
//! `OnceLock::get_or_init` guarantees each artifact is built exactly once
//! per epoch no matter how many readers race for it; advancing the epoch
//! publishes a new snapshot, which *is* the cache invalidation.

use crate::metrics::{ArtifactMetrics, ART_CUT, ART_FOREST, ART_ORACLE};
use crate::query::{GraphStats, Query, Response};
use crate::{GraphConfig, ServiceError};
use dsg_agm::AgmSketch;
use dsg_graph::components::{forest_of, Forest};
use dsg_graph::{NetMultiset, Vertex};
use dsg_spanner::baswana_sen;
use dsg_spanner::oracle::DistanceOracle;
use dsg_sparsifier::Laplacian;
use dsg_telemetry::{trace, EventKind};
use std::sync::{Arc, OnceLock};

/// The spanning forest of an epoch's sealed segment plus its component
/// structure (`edges`, smallest-vertex `labels`, `num_components`), so
/// membership queries are O(1) after one union–find pass.
pub type ForestData = Forest;

/// The cut-query artifact: the exact Laplacian of the epoch's live graph.
#[derive(Debug, Clone)]
pub struct CutData {
    /// Laplacian of the sealed segment's live graph.
    pub laplacian: Laplacian,
}

/// Which artifacts of a snapshot have been built so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArtifactStatus {
    /// Spanning forest + component labels.
    pub forest: bool,
    /// Spanner-backed distance oracle.
    pub oracle: bool,
    /// Exact cut Laplacian.
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
    /// single shared input every artifact is built from (O(current
    /// edges), order-free).
    net: Arc<NetMultiset>,
    forest: OnceLock<Arc<ForestData>>,
    oracle: OnceLock<Arc<DistanceOracle>>,
    cut: OnceLock<Arc<CutData>>,
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
            metrics,
        }
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

    /// The merged coordinator sketch frozen at the epoch boundary. No
    /// query reads it: it is what checkpoints persist, split by shard.
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
    /// input of every artifact, and (for offline verification) an exact
    /// order-free summary of the frozen prefix.
    pub fn net_edges(&self) -> &Arc<NetMultiset> {
        &self.net
    }

    /// Returns the artifact in `cell`, building it with `build` on first
    /// use: one build per epoch, timed, counted and traced; later
    /// accesses count as cache hits.
    fn artifact<T>(
        &self,
        cell: &OnceLock<Arc<T>>,
        artifact: usize,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        if let Some(built) = cell.get() {
            self.metrics.cache_hits[artifact].inc();
            return Arc::clone(built);
        }
        Arc::clone(cell.get_or_init(|| {
            let _t = self.metrics.build_nanos[artifact].start_timer();
            self.metrics.record_build(artifact);
            // Traced under the building thread's ambient trace id, so a
            // build forced by a pool query lands in that query's causal
            // chain (cache *hits* are deliberately untraced: they are
            // ~70 ns lookups the recorder would dominate).
            self.metrics.tracer.record(
                EventKind::ArtifactBuild,
                trace::current_trace_id(),
                self.metrics.tenant,
                artifact as u64,
            );
            Arc::new(build())
        }))
    }

    /// The forest artifact, built on first use: one union–find pass over
    /// the sealed segment's sorted entries, so the forest is exact and
    /// deterministic in the segment, and its labels equal
    /// `connected_components(&net.final_graph())`.
    pub fn forest(&self) -> Arc<ForestData> {
        self.artifact(&self.forest, ART_FOREST, || {
            forest_of(self.config.n, self.net.entries().iter().map(|e| e.edge))
        })
    }

    /// The distance-oracle artifact, built on first use: the Baswana–Sen
    /// spanner of the sealed segment's live graph at
    /// [`GraphConfig::oracle_params`] (deterministic in the segment, `k`
    /// and the seed, so every build of the same epoch agrees), wrapped
    /// with stretch [`GraphConfig::oracle_stretch`]. Its memo-cache
    /// counters fold into the registry when instrumented.
    pub fn oracle(&self) -> Arc<DistanceOracle> {
        self.artifact(&self.oracle, ART_ORACLE, || {
            let p = self.config.oracle_params();
            let spanner = baswana_sen::build_spanner(&self.net.final_graph(), p.k, p.seed);
            let mut oracle = DistanceOracle::new(spanner, self.config.oracle_stretch());
            if self.metrics.oracle_cache_hits.is_active() {
                oracle = oracle.with_cache_counters(
                    self.metrics.oracle_cache_hits.clone(),
                    self.metrics.oracle_cache_misses.clone(),
                );
            }
            oracle
        })
    }

    /// The cut artifact, built on first use: the exact Laplacian of the
    /// sealed segment's live graph, one pass over the segment's sorted
    /// entries at unit weight per live pair (what `final_graph` keeps) —
    /// equal, bit for bit, to `Laplacian::from_graph(&net.final_graph())`.
    pub fn cut_data(&self) -> Arc<CutData> {
        self.artifact(&self.cut, ART_CUT, || CutData {
            laplacian: Laplacian::from_edges(
                self.net.num_vertices(),
                self.net.entries().iter().map(|e| (e.edge, 1.0)),
            ),
        })
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
        // The served cut is the exact Laplacian of the sealed segment.
        assert!(truth > 0.0, "a dense random cut must cross some edges");
        assert_eq!(
            est.to_bits(),
            truth.to_bits(),
            "served {est} vs exact {truth}"
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
