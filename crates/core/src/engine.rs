//! The end-to-end sharded ingest driver: stream → `dsg-engine` → query.
//!
//! [`EngineBuilder`] wires the generic sharded engine to the spanning
//! forest query: each shard ingests into an [`AgmSketch`] under the
//! shared seed, and the coordinator merge-tree-reduces the shard sketches
//! (optionally through their wire snapshots) and runs Borůvka
//! (Theorem 10).
//!
//! Because every shard sketch is linear and the coordinator's decode is
//! deterministic, the sharded run answers **bit-identically** to a
//! single-threaded run over the same stream — asserted end to end in
//! `tests/integration_engine.rs`. The two-pass spanner and sparsifier are
//! not sharded: they are built on one thread from a net edge multiset
//! (`TwoPassSpanner::build`, `TwoPassSparsifier::build`).

pub use dsg_engine::{
    merge_tree, reduce_snapshots, EdgeUpdate, EngineConfig, EngineRun, EngineSketch, ShardedEngine,
};

use dsg_agm::forest::ForestResult;
use dsg_agm::AgmSketch;
use dsg_graph::GraphStream;

/// Builder for sharded end-to-end runs.
///
/// # Examples
///
/// ```
/// use dsg_core::prelude::*;
/// use dsg_core::engine::EngineBuilder;
///
/// let g = gen::erdos_renyi(60, 0.1, 3);
/// let stream = GraphStream::with_churn(&g, 1.0, 4);
/// let forest = EngineBuilder::new(60).shards(4).seed(7).spanning_forest(&stream);
/// assert!(dsg_graph::components::is_spanning_forest(&g, &forest.edges));
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    n: usize,
    shards: usize,
    batch_size: usize,
    seed: u64,
}

impl EngineBuilder {
    /// Starts a builder for graphs on `n` vertices. Defaults: one shard
    /// per available core, batches of 256, seed 0.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            shards: EngineConfig::auto().shards,
            batch_size: 256,
            seed: 0,
        }
    }

    /// Sets the shard (worker thread) count.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Sets the updates-per-batch granularity.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Sets the shared root seed (the randomness all shards agree on).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn config(&self) -> EngineConfig {
        EngineConfig::new(self.shards).batch_size(self.batch_size)
    }

    /// Feeds `stream` through a sharded engine of `make_shard` sketches
    /// and returns the merged result — the raw building block behind the
    /// query methods, exposed for custom sketches.
    pub fn ingest_merged<S, F>(&self, stream: &GraphStream, make_shard: F) -> S
    where
        S: EngineSketch,
        F: FnMut(usize) -> S,
    {
        assert_eq!(stream.num_vertices(), self.n, "vertex count mismatch");
        let mut engine = ShardedEngine::start(self.config(), make_shard);
        for up in stream.updates() {
            engine.push(EdgeUpdate::new(up.edge.index(self.n), up.delta as i128));
        }
        engine
            .finish()
            .merged()
            .expect("engine has at least one shard")
    }

    /// Sharded AGM ingest → merged sketch → spanning forest (Theorem 10).
    pub fn spanning_forest(&self, stream: &GraphStream) -> ForestResult {
        self.agm_sketch(stream).spanning_forest()
    }

    /// Sharded AGM ingest returning the merged coordinator sketch, for
    /// callers that want to run further queries (partitions, subtraction).
    pub fn agm_sketch(&self, stream: &GraphStream) -> AgmSketch {
        let (n, seed) = (self.n, self.seed);
        self.ingest_merged(stream, |_| AgmSketch::new(n, seed))
    }

    /// Sharded AGM ingest that ships **wire snapshots** shard→coordinator
    /// (serialize, checksum-verify, deserialize, merge-tree) — the path a
    /// real multi-server deployment exercises. Answers identically to
    /// [`spanning_forest`](EngineBuilder::spanning_forest).
    pub fn spanning_forest_via_wire(&self, stream: &GraphStream) -> ForestResult {
        assert_eq!(stream.num_vertices(), self.n, "vertex count mismatch");
        let (n, seed) = (self.n, self.seed);
        let mut engine = ShardedEngine::start(self.config(), |_| AgmSketch::new(n, seed));
        for up in stream.updates() {
            engine.push(EdgeUpdate::new(up.edge.index(n), up.delta as i128));
        }
        let snapshots = engine.finish().snapshots();
        let merged: AgmSketch = dsg_engine::reduce_snapshots(&snapshots)
            .expect("shard snapshots decode")
            .expect("engine has at least one shard");
        merged.spanning_forest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsg_graph::components::is_spanning_forest;
    use dsg_graph::gen;

    #[test]
    fn engine_forest_is_valid() {
        let g = gen::erdos_renyi(50, 0.1, 1);
        let stream = GraphStream::with_churn(&g, 1.0, 2);
        let forest = EngineBuilder::new(50)
            .shards(3)
            .seed(5)
            .spanning_forest(&stream);
        assert!(is_spanning_forest(&g, &forest.edges));
    }

    #[test]
    fn shard_count_does_not_change_answers() {
        let g = gen::erdos_renyi(40, 0.15, 3);
        let stream = GraphStream::with_churn(&g, 1.0, 4);
        let base = EngineBuilder::new(40).shards(1).seed(9);
        let f1 = base.clone().spanning_forest(&stream);
        let f4 = base.clone().shards(4).spanning_forest(&stream);
        assert_eq!(f1.edges, f4.edges);
    }

    #[test]
    fn wire_path_matches_in_memory_path() {
        let g = gen::erdos_renyi(40, 0.15, 6);
        let stream = GraphStream::with_churn(&g, 0.5, 7);
        let b = EngineBuilder::new(40).shards(4).seed(11);
        assert_eq!(
            b.spanning_forest(&stream).edges,
            b.spanning_forest_via_wire(&stream).edges,
        );
    }

    #[test]
    #[should_panic(expected = "vertex count mismatch")]
    fn stream_size_mismatch_panics() {
        let g = gen::path(10);
        let stream = GraphStream::insert_only(&g, 1);
        EngineBuilder::new(20).spanning_forest(&stream);
    }
}
