//! Distance oracles backed by spanners.
//!
//! Section 6 of the paper plugs the two-pass spanner into KP12 *as a
//! distance oracle*: "The oracle required by KP12 needs to output, given
//! a pair of nodes `u, v ∈ V`, an estimate `d̂(u,v)` that satisfies
//! `d(u,v) ≤ d̂(u,v) ≤ λ · d(u,v)`. Note that our multiplicative spanner
//! construction provides such an estimate with `λ ≤ 2^k`."
//!
//! [`DistanceOracle`] packages that contract: it holds a spanner subgraph
//! and answers queries by (optionally bounded) BFS over it. Because the
//! spanner is a subgraph, answers never underestimate; because its stretch
//! is `λ`, they never overestimate by more than `λ`.
//!
//! A BFS from `u` computes the estimates to *every* target, so the oracle
//! memoizes whole distance rows in a bounded per-source cache: repeated
//! queries from a hot source cost one hash lookup instead of a BFS. The
//! cache is behind a [`Mutex`] so a shared oracle (e.g. an epoch artifact
//! in `dsg-service`) stays queryable from many reader threads.

use dsg_graph::bfs::{bfs_distances, bfs_distances_bounded, UNREACHABLE};
use dsg_graph::graph::Adjacency;
use dsg_graph::{Graph, Vertex};
use dsg_telemetry::Counter;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Default number of distinct sources whose distance rows stay cached.
pub const DEFAULT_CACHE_SOURCES: usize = 32;

/// Cache-effectiveness counters of a [`DistanceOracle`] — a point-in-time
/// read of the oracle's telemetry counters (see
/// [`DistanceOracle::with_cache_counters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from a memoized distance row.
    pub hits: u64,
    /// Queries that ran a BFS.
    pub misses: u64,
}

/// Bounded FIFO memo of per-source distance rows.
#[derive(Debug, Default)]
struct SourceCache {
    capacity: usize,
    rows: HashMap<Vertex, Arc<Vec<u32>>>,
    order: VecDeque<Vertex>,
}

impl SourceCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    fn insert(&mut self, src: Vertex, row: Arc<Vec<u32>>) {
        if self.capacity == 0 || self.rows.contains_key(&src) {
            return;
        }
        if self.rows.len() >= self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.rows.remove(&evicted);
            }
        }
        self.order.push_back(src);
        self.rows.insert(src, row);
    }
}

/// A stretch-`λ` distance oracle over a spanner subgraph.
///
/// # Examples
///
/// ```
/// use dsg_graph::{gen, GraphStream};
/// use dsg_spanner::{oracle::DistanceOracle, SpannerParams, TwoPassSpanner};
///
/// let g = gen::erdos_renyi(60, 0.2, 1);
/// let net = GraphStream::with_churn(&g, 1.0, 2).net_multiset();
/// let k = 2;
/// let out = TwoPassSpanner::build(&net, SpannerParams::new(k, 3)).into_output().unwrap();
/// let oracle = DistanceOracle::new(out.spanner, 1 << k);
///
/// let d_true = dsg_graph::bfs::bfs_distances(&g.adjacency(), 0);
/// for v in 1..60u32 {
///     if let Some(est) = oracle.estimate(0, v) {
///         assert!(est as u64 >= d_true[v as usize] as u64);
///         assert!(est as u64 <= oracle.stretch() * d_true[v as usize] as u64);
///     }
/// }
/// ```
#[derive(Debug)]
pub struct DistanceOracle {
    spanner: Graph,
    adjacency: Adjacency,
    stretch: u64,
    cache: Mutex<SourceCache>,
    /// Cache hit/miss telemetry. Standalone live counters by default, so
    /// [`cache_stats`](DistanceOracle::cache_stats) always works; a
    /// serving layer swaps in registry-owned counters with
    /// [`with_cache_counters`](DistanceOracle::with_cache_counters) so
    /// there is exactly one store for the numbers.
    hits: Counter,
    misses: Counter,
}

impl Clone for DistanceOracle {
    /// Clones the oracle with a fresh, empty cache of the same capacity
    /// and fresh (zeroed, standalone) hit/miss counters.
    fn clone(&self) -> Self {
        let capacity = self.cache.lock().expect("oracle cache poisoned").capacity;
        Self {
            spanner: self.spanner.clone(),
            adjacency: self.adjacency.clone(),
            stretch: self.stretch,
            cache: Mutex::new(SourceCache::new(capacity)),
            hits: Counter::active(),
            misses: Counter::active(),
        }
    }
}

impl DistanceOracle {
    /// Wraps a spanner with its stretch guarantee `λ`.
    ///
    /// # Panics
    ///
    /// Panics if `stretch == 0`.
    pub fn new(spanner: Graph, stretch: u64) -> Self {
        assert!(stretch >= 1, "stretch must be at least 1");
        let adjacency = spanner.adjacency();
        Self {
            spanner,
            adjacency,
            stretch,
            cache: Mutex::new(SourceCache::new(DEFAULT_CACHE_SOURCES)),
            hits: Counter::active(),
            misses: Counter::active(),
        }
    }

    /// Overrides the per-source cache capacity (`0` disables memoization;
    /// every query then runs its own BFS).
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        Self {
            cache: Mutex::new(SourceCache::new(capacity)),
            ..self
        }
    }

    /// Replaces the hit/miss counters with caller-owned handles —
    /// typically registry-created series, so the oracle's cache
    /// effectiveness lands in the same `dsg_telemetry::MetricRegistry`
    /// as everything else and [`cache_stats`](DistanceOracle::cache_stats)
    /// reads the very same cells (one store, two views).
    pub fn with_cache_counters(self, hits: Counter, misses: Counter) -> Self {
        Self {
            hits,
            misses,
            ..self
        }
    }

    /// The stretch guarantee `λ`.
    pub fn stretch(&self) -> u64 {
        self.stretch
    }

    /// The underlying spanner.
    pub fn spanner(&self) -> &Graph {
        &self.spanner
    }

    /// Hit/miss counters of the per-source cache — a thin wrapper reading
    /// the telemetry counters (registry-owned ones after
    /// [`with_cache_counters`](DistanceOracle::with_cache_counters)).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    /// Probes the cache for `u`'s distance row, bumping the hit/miss
    /// counters — the one place the probe-and-count logic lives. The
    /// counters are atomic, so they are bumped outside the lock.
    fn cached_row(&self, u: Vertex) -> Option<Arc<Vec<u32>>> {
        let row = {
            let cache = self.cache.lock().expect("oracle cache poisoned");
            cache.rows.get(&u).cloned()
        };
        match row {
            Some(row) => {
                self.hits.inc();
                Some(row)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// The memoized distance row from `u`, computing it with one BFS on a
    /// cache miss. The BFS runs outside the lock, so a slow miss never
    /// blocks concurrent hits; two racing misses both compute and one
    /// insert wins (idempotent — BFS is deterministic).
    fn distances_from(&self, u: Vertex) -> Arc<Vec<u32>> {
        if let Some(row) = self.cached_row(u) {
            return row;
        }
        let row = Arc::new(bfs_distances(&self.adjacency, u));
        let mut cache = self.cache.lock().expect("oracle cache poisoned");
        cache.insert(u, Arc::clone(&row));
        row
    }

    /// The distance estimate `d̂(u, v)`, or `None` if `u` and `v` are
    /// disconnected in the spanner (hence in the graph, whp).
    pub fn estimate(&self, u: Vertex, v: Vertex) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        let dv = self.distances_from(u)[v as usize];
        (dv != UNREACHABLE).then_some(dv)
    }

    /// Whether `d̂(u, v) > threshold` — the only query `ESTIMATE`
    /// (Algorithm 4) needs. A cached distance row from `u` answers it
    /// directly; otherwise a BFS truncated at `threshold` runs (cheaper
    /// than a full BFS for small thresholds, and deliberately *not*
    /// cached: a truncated row cannot serve later full-distance queries).
    pub fn is_far(&self, u: Vertex, v: Vertex, threshold: u32) -> bool {
        if u == v {
            return false;
        }
        if let Some(row) = self.cached_row(u) {
            let dv = row[v as usize];
            return dv == UNREACHABLE || dv > threshold;
        }
        let d = bfs_distances_bounded(&self.adjacency, u, threshold);
        d[v as usize] == UNREACHABLE
    }

    /// Replaces `u`'s cached distance row with an arbitrary one — a
    /// **sabotage hook** for quality-audit tests and experiments: the
    /// poisoned row is served by every subsequent [`estimate`] /
    /// [`is_far`] from `u` (until evicted), letting a harness inject a
    /// provably wrong answer and assert the auditor catches it. Never
    /// called by serving code.
    ///
    /// [`estimate`]: DistanceOracle::estimate
    /// [`is_far`]: DistanceOracle::is_far
    pub fn poison_cached_row(&self, u: Vertex, row: Vec<u32>) {
        let mut cache = self.cache.lock().expect("oracle cache poisoned");
        if !cache.rows.contains_key(&u) {
            cache.order.push_back(u);
        }
        cache.rows.insert(u, Arc::new(row));
    }

    /// All estimates from a single source (one BFS, memoized).
    pub fn estimates_from(&self, u: Vertex) -> Vec<Option<u32>> {
        self.distances_from(u)
            .iter()
            .map(|&d| (d != UNREACHABLE).then_some(d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpannerParams, TwoPassSpanner};
    use dsg_graph::{gen, GraphStream};

    fn oracle_for(n: usize, k: usize, seed: u64) -> (Graph, DistanceOracle) {
        let g = gen::erdos_renyi(n, 0.15, seed);
        let net = GraphStream::with_churn(&g, 1.0, seed ^ 0x0C).net_multiset();
        let out = TwoPassSpanner::build(&net, SpannerParams::new(k, seed))
            .into_output()
            .expect("both passes ran");
        (g, DistanceOracle::new(out.spanner, 1 << k))
    }

    #[test]
    fn oracle_contract_sandwich() {
        let (g, oracle) = oracle_for(60, 2, 1);
        let adj = g.adjacency();
        for src in [0u32, 10, 30] {
            let d_true = dsg_graph::bfs::bfs_distances(&adj, src);
            let d_est = oracle.estimates_from(src);
            for v in 0..60usize {
                match (d_true[v], d_est[v]) {
                    (dsg_graph::bfs::UNREACHABLE, None) => {}
                    (t, Some(e)) => {
                        assert!(e >= t, "underestimate at {v}");
                        assert!(
                            e as u64 <= oracle.stretch() * t as u64,
                            "overestimate at {v}"
                        );
                    }
                    (t, e) => panic!("reachability mismatch at {v}: {t} vs {e:?}"),
                }
            }
        }
    }

    #[test]
    fn is_far_consistent_with_estimate() {
        let (_, oracle) = oracle_for(50, 2, 2);
        for (u, v) in [(0u32, 1u32), (0, 25), (3, 44)] {
            for threshold in [1u32, 2, 4, 8] {
                let far = oracle.is_far(u, v, threshold);
                match oracle.estimate(u, v) {
                    Some(d) => assert_eq!(far, d > threshold, "u={u} v={v} t={threshold}"),
                    None => assert!(far),
                }
            }
        }
    }

    #[test]
    fn self_distance_zero() {
        let (_, oracle) = oracle_for(20, 1, 3);
        assert_eq!(oracle.estimate(5, 5), Some(0));
        assert!(!oracle.is_far(5, 5, 0));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_stretch_panics() {
        DistanceOracle::new(Graph::empty(3), 0);
    }

    #[test]
    fn repeated_source_queries_hit_the_cache() {
        let (_, oracle) = oracle_for(50, 2, 4);
        assert_eq!(oracle.cache_stats(), CacheStats::default());
        let first = oracle.estimate(7, 20);
        assert_eq!(oracle.cache_stats(), CacheStats { hits: 0, misses: 1 });
        // Same source, different targets: all answered from the memo row.
        assert_eq!(oracle.estimate(7, 20), first);
        for v in [21u32, 35, 49] {
            let _ = oracle.estimate(7, v);
        }
        let stats = oracle.cache_stats();
        assert_eq!(stats.misses, 1, "one BFS serves every query from source 7");
        assert!(stats.hits >= 4);
        // `is_far` from the hot source is also answered from the row.
        let hits_before = oracle.cache_stats().hits;
        let _ = oracle.is_far(7, 31, 2);
        assert_eq!(oracle.cache_stats().hits, hits_before + 1);
    }

    #[test]
    fn cached_answers_match_uncached() {
        let (_, oracle) = oracle_for(40, 2, 5);
        let uncached = oracle.clone().with_cache_capacity(0);
        for u in 0..40u32 {
            for v in 0..40u32 {
                assert_eq!(oracle.estimate(u, v), uncached.estimate(u, v), "({u},{v})");
            }
        }
        assert_eq!(
            uncached.cache_stats().hits,
            0,
            "capacity 0 disables memoization"
        );
        assert!(oracle.cache_stats().hits > 0);
    }

    #[test]
    fn cache_is_bounded_fifo() {
        let (_, oracle) = oracle_for(30, 1, 6);
        let oracle = oracle.with_cache_capacity(2);
        let _ = oracle.estimate(0, 1); // miss: row(0) cached
        let _ = oracle.estimate(1, 2); // miss: row(1) cached
        let _ = oracle.estimate(2, 3); // miss: row(2) cached, row(0) evicted
        let _ = oracle.estimate(0, 4); // miss again — 0 was evicted
        let _ = oracle.estimate(2, 5); // hit — 2 still resident
        let stats = oracle.cache_stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn registry_counters_and_cache_stats_read_the_same_cells() {
        let (_, oracle) = oracle_for(30, 1, 8);
        let reg = dsg_telemetry::MetricRegistry::new();
        let oracle = oracle.with_cache_counters(
            reg.counter("oracle_hits_total"),
            reg.counter("oracle_misses_total"),
        );
        let _ = oracle.estimate(0, 5); // miss
        let _ = oracle.estimate(0, 6); // hit
        let _ = oracle.estimate(1, 6); // miss
        let stats = oracle.cache_stats();
        assert_eq!(stats, CacheStats { hits: 1, misses: 2 });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("oracle_hits_total"), Some(stats.hits));
        assert_eq!(snap.counter("oracle_misses_total"), Some(stats.misses));
    }

    #[test]
    fn poisoned_row_is_served_until_evicted() {
        let (_, oracle) = oracle_for(20, 1, 7);
        let honest = oracle.estimate(0, 10);
        assert!(honest.is_some_and(|d| d >= 1), "0 and 10 are connected");
        oracle.poison_cached_row(0, vec![0; 20]);
        assert_eq!(oracle.estimate(0, 10), Some(0), "poison must be served");
        // A fresh clone (cold cache) recomputes honestly.
        assert_eq!(oracle.clone().estimate(0, 10), honest);
    }

    #[test]
    fn clone_starts_with_a_cold_cache() {
        let (_, oracle) = oracle_for(20, 1, 7);
        let _ = oracle.estimate(1, 2);
        let fresh = oracle.clone();
        assert_eq!(fresh.cache_stats(), CacheStats::default());
        assert_eq!(fresh.estimate(1, 2), oracle.estimate(1, 2));
    }
}
