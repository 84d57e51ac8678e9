//! # dsg-service — a concurrent multi-tenant query-serving layer
//!
//! The write path (`dsg-engine`) sharded the paper's ingest; this crate is
//! the read path that makes the system a *service*. The key observation is
//! again linearity, but used in the simultaneous-communication direction
//! emphasized by Filtser–Kapralov–Nouri: because every sketch of a stream
//! prefix is a linear function of that prefix, a long-lived server can
//!
//! 1. keep ingesting deltas into per-shard sketches ([`ShardedEngine`]),
//! 2. periodically **advance an epoch** — fork every shard's state between
//!    batches (no worker teardown), merge the forks, and publish the
//!    result as an immutable [`EpochSnapshot`], and
//! 3. answer queries from the *frozen* snapshot while ingest races ahead,
//!    with answers bit-identical to an offline recomputation over the
//!    stream prefix the epoch froze.
//!
//! Expensive derived objects — the spanning forest and component labels
//! (one union–find pass over the sealed segment), the
//! [`DistanceOracle`](dsg_spanner::oracle::DistanceOracle) over a
//! Baswana–Sen spanner of the sealed segment (stretch `2k − 1`), the exact
//! Laplacian of the sealed segment that answers cut queries — are built
//! **lazily, once per epoch**, behind [`Arc`]s in a per-snapshot artifact
//! cache. Each is built from its own snapshot's segment alone, never
//! patched from the previous epoch's; advancing the epoch publishes a
//! fresh snapshot and thereby invalidates the old artifacts wholesale.
//! So every answer is exact or, for distances, inside the Baswana–Sen
//! bound, which always holds; [`audit::self_audit`] checks both.
//!
//! [`GraphRegistry`] hosts many named graphs (multi-tenancy), and
//! [`QueryService`] executes a typed [`Query`]/[`Response`] API on a
//! worker pool. [`LoadGen`] generates deterministic query workloads for
//! tests and benchmarks.
//!
//! ```
//! use dsg_graph::StreamUpdate;
//! use dsg_service::{GraphConfig, GraphRegistry, Query, Response};
//!
//! let registry = GraphRegistry::new();
//! let g = registry.create("social", GraphConfig::new(6).shards(2)).unwrap();
//! g.apply(&[
//!     StreamUpdate::insert(0, 1),
//!     StreamUpdate::insert(1, 2),
//!     StreamUpdate::insert(4, 5),
//! ]).unwrap();
//! let epoch = g.advance_epoch();
//! assert_eq!(epoch.epoch(), 1);
//! match g.query(&Query::SameComponent(0, 2)).unwrap() {
//!     Response::SameComponent(connected) => assert!(connected),
//!     other => panic!("unexpected response {other:?}"),
//! }
//! ```
//!
//! [`Arc`]: std::sync::Arc
//! [`ShardedEngine`]: dsg_engine::ShardedEngine

// Serving code must not `unwrap()` on request paths: failures surface as
// typed `ServiceError`s, never panics. (CI enforces this with a clippy
// gate shared with dsg-store; `expect` on poisoned locks is deliberate —
// a poisoned lock *is* a programming error.)
#![deny(clippy::unwrap_used)]

mod admin;
pub mod audit;
pub mod compact;
mod epoch;
mod metrics;
mod query;
mod registry;
mod workload;

pub use admin::AdminServer;
pub use audit::{AuditFinding, QualityVerdict};
pub use compact::ShardedCompactedLog;
pub use dsg_graph::{CompactError, CompactedLog};
pub use dsg_telemetry::{
    EventKind, FlightRecorder, Incident, MetricRegistry, MetricsSnapshot, TraceEvent,
};
pub use epoch::{ArtifactStatus, CutData, EpochSnapshot, ForestData};
pub use query::{GraphStats, Query, QueryService, QueryTicket, Response};
pub use registry::{GraphRegistry, PersistedGraph, PersistedShard, ServedGraph, TenantEpochStats};
pub use workload::{LoadGen, QueryMix};

use dsg_graph::{Edge, Vertex};
use dsg_spanner::SpannerParams;
use dsg_sparsifier::SparsifierParams;

/// Seed salt separating the epoch oracle's randomness from the sketches'.
const ORACLE_SALT: u64 = 0x4F52_4143_4C45_5345; // "ORACLESE"
/// Seed salt of the offline KP12 reproduction ([`GraphConfig::cut_params`]).
const CUT_SALT: u64 = 0x4355_5453_5041_5253; // "CUTSPARS"
/// Spectral precision of the offline KP12 reproduction.
const CUT_EPS: f64 = 0.5;

/// Shape of one served graph: stream size, sharding, and the parameters
/// of the per-epoch derived artifacts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphConfig {
    /// Number of vertices of the served graph.
    pub n: usize,
    /// Shared root seed: shard sketches and the epoch oracle derive their
    /// randomness from it.
    pub seed: u64,
    /// Ingest shard (worker thread) count.
    pub shards: usize,
    /// Updates per engine batch.
    pub batch_size: usize,
    /// Hierarchy depth `k` of the per-epoch spanner: each epoch builds
    /// one Baswana–Sen spanner of its sealed segment, and the distance
    /// oracle answers with stretch at most `2k − 1` (within the paper's
    /// `2^k`) — a larger `k` means looser distance answers over a
    /// sparser spanner (`O(k · n^{1+1/k})` edges).
    pub spanner_k: usize,
}

impl GraphConfig {
    /// A config for graphs on `n` vertices with serving-friendly defaults:
    /// 2 shards, batches of 256, and a 4-spanner oracle (`k = 2`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "need at least two vertices");
        Self {
            n,
            seed: 0,
            shards: 2,
            batch_size: 256,
            spanner_k: 2,
        }
    }

    /// Sets the shared root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the ingest shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Sets the engine batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Sets the spanner hierarchy depth `k` — oracle stretch `2k − 1`
    /// (see [`oracle_stretch`](Self::oracle_stretch)).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn spanner_k(mut self, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        self.spanner_k = k;
        self
    }

    /// The spanner parameters of this graph's distance oracle. An epoch
    /// builds `dsg_spanner::baswana_sen::build_spanner` of its segment's
    /// live graph at this `k` and `seed` — public so an offline
    /// recomputation (the snapshot-isolation tests, a cold-standby
    /// server) can reproduce epoch oracles bit-for-bit. The offline
    /// two-pass reproduction of Theorem 1 (experiments E1–E5, the
    /// benchmark's `spanner.*` layer) runs with the full parameter set.
    pub fn oracle_params(&self) -> SpannerParams {
        SpannerParams::new(self.spanner_k, self.seed ^ ORACLE_SALT)
    }

    /// The stretch bound `2k − 1` the distance oracle answers within
    /// (Baswana–Sen's guarantee; at most the paper's `2^k` for every
    /// `k ≥ 1`) — what an epoch wraps its oracle with and what the
    /// quality audit checks served distances against.
    pub fn oracle_stretch(&self) -> u64 {
        2 * self.spanner_k as u64 - 1
    }

    /// KP12 parameters for an offline two-pass sparsifier of this graph's
    /// stream (experiment E8, the benchmark's `sparsifier.*` layer). The
    /// service itself answers cut queries exactly, from the Laplacian of
    /// the sealed segment, and never builds KP12.
    pub fn cut_params(&self) -> SparsifierParams {
        SparsifierParams::new(self.spanner_k, CUT_EPS, self.seed ^ CUT_SALT)
    }
}

/// Why a service call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// No graph registered under this name.
    UnknownGraph(String),
    /// A graph with this name already exists.
    DuplicateGraph(String),
    /// A query or update referenced a vertex outside `[0, n)`.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: Vertex,
        /// The registered graph's vertex count.
        n: usize,
    },
    /// An update carried a delta outside ±1 — not a dynamic-stream
    /// update at all.
    InvalidDelta {
        /// The offending delta.
        delta: i8,
    },
    /// A deletion would drive some pair's net multiplicity below zero —
    /// outside the dynamic-stream model, and the one thing the compacted
    /// log cannot represent. The whole batch is rejected atomically.
    NegativeMultiplicity {
        /// The pair the deletion would over-delete.
        edge: Edge,
    },
    /// The query pool has shut down and cannot take new work.
    PoolShutDown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownGraph(name) => write!(f, "unknown graph '{name}'"),
            ServiceError::DuplicateGraph(name) => write!(f, "graph '{name}' already exists"),
            ServiceError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for n = {n}")
            }
            ServiceError::InvalidDelta { delta } => {
                write!(f, "update delta {delta} is not ±1")
            }
            ServiceError::NegativeMultiplicity { edge } => {
                write!(
                    f,
                    "deletion of {edge} would drive its net multiplicity below zero"
                )
            }
            ServiceError::PoolShutDown => write!(f, "query pool has shut down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The compacted-log core (now in `dsg-graph`) reports model violations
/// with its own error type; the serving layer surfaces them unchanged.
impl From<CompactError> for ServiceError {
    fn from(err: CompactError) -> Self {
        match err {
            CompactError::InvalidDelta { delta } => ServiceError::InvalidDelta { delta },
            CompactError::NegativeMultiplicity { edge } => {
                ServiceError::NegativeMultiplicity { edge }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_usefully() {
        let e = ServiceError::UnknownGraph("g".into());
        assert!(e.to_string().contains("unknown graph"));
        let e = ServiceError::VertexOutOfRange { vertex: 9, n: 5 };
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_config_rejected() {
        GraphConfig::new(1);
    }
}
