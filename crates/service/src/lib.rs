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
//! Expensive derived objects — the spanning forest, the spanner-backed
//! [`DistanceOracle`](dsg_spanner::oracle::DistanceOracle), the KP12
//! sparsifier — are built **lazily, once per epoch**, behind [`Arc`]s in a
//! per-snapshot artifact cache; advancing the epoch publishes a fresh
//! snapshot and thereby invalidates the old artifacts wholesale.
//!
//! [`GraphRegistry`] hosts many named graphs (multi-tenancy), and
//! [`QueryService`] executes a typed [`Query`]/[`Response`] API on a
//! worker pool. [`LoadGen`] generates deterministic query workloads for
//! benchmarks and experiments (E19).
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
pub use audit::{AuditConfig, AuditFinding, AuditSample, QualityAuditor, QualityVerdict};
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
use dsg_sketch::WireError;
use dsg_spanner::SpannerParams;
use dsg_sparsifier::SparsifierParams;

/// Seed salt separating the epoch oracle's randomness from the sketches'.
const ORACLE_SALT: u64 = 0x4F52_4143_4C45_5345; // "ORACLESE"
/// Seed salt for the epoch cut sparsifier.
const CUT_SALT: u64 = 0x4355_5453_5041_5253; // "CUTSPARS"

/// Shape of one served graph: stream size, sharding, and the parameters
/// of the per-epoch derived artifacts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphConfig {
    /// Number of vertices of the served graph.
    pub n: usize,
    /// Shared root seed: shard sketches, the epoch oracle, and the epoch
    /// sparsifier all derive their randomness from it.
    pub seed: u64,
    /// Ingest shard (worker thread) count.
    pub shards: usize,
    /// Updates per engine batch.
    pub batch_size: usize,
    /// Hierarchy depth `k` of the per-epoch spanners. The distance
    /// oracle answers with stretch `2^k`, **and** the KP12 cut
    /// sparsifier uses the same depth for its internal oracle (its
    /// `λ = 2^k` knob, see [`GraphConfig::cut_params`]) — deeper
    /// hierarchies mean looser distance answers but smaller sketches,
    /// for both artifacts at once.
    pub spanner_k: usize,
    /// Target spectral precision of the per-epoch KP12 sparsifier that
    /// backs cut queries.
    pub cut_eps: f64,
}

impl GraphConfig {
    /// A config for graphs on `n` vertices with serving-friendly defaults:
    /// 2 shards, batches of 256, a 4-spanner oracle (`k = 2`), and a
    /// `0.5`-precision cut sparsifier.
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
            cut_eps: 0.5,
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

    /// Sets the spanner hierarchy depth `k` — oracle stretch `2^k`, and
    /// the KP12 cut sparsifier's internal oracle depth with it (see the
    /// [`spanner_k`](GraphConfig::spanner_k) field docs).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn spanner_k(mut self, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        self.spanner_k = k;
        self
    }

    /// Sets the cut-sparsifier precision target.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1)`.
    pub fn cut_eps(mut self, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
        self.cut_eps = eps;
        self
    }

    /// The exact spanner parameters an epoch of this graph builds its
    /// distance oracle with — public so an offline recomputation (the
    /// snapshot-isolation tests, a cold-standby server) can reproduce
    /// epoch artifacts bit-for-bit.
    pub fn oracle_params(&self) -> SpannerParams {
        SpannerParams::new(self.spanner_k, self.seed ^ ORACLE_SALT)
    }

    /// The exact KP12 parameters an epoch of this graph builds its cut
    /// sparsifier with (see [`oracle_params`](GraphConfig::oracle_params)).
    pub fn cut_params(&self) -> SparsifierParams {
        SparsifierParams::new(self.spanner_k, self.cut_eps, self.seed ^ CUT_SALT)
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
    /// An incoming snapshot frame failed validation (header peek or full
    /// decode).
    BadFrame(WireError),
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
            ServiceError::BadFrame(err) => write!(f, "bad snapshot frame: {err}"),
            ServiceError::PoolShutDown => write!(f, "query pool has shut down"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::BadFrame(err) => Some(err),
            _ => None,
        }
    }
}

impl From<WireError> for ServiceError {
    fn from(err: WireError) -> Self {
        ServiceError::BadFrame(err)
    }
}

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
        let e: ServiceError = WireError::BadMagic.into();
        assert!(e.to_string().contains("bad snapshot frame"));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_config_rejected() {
        GraphConfig::new(1);
    }
}
