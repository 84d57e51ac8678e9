//! Deterministic query-load generation for tests and benchmarks.
//!
//! [`LoadGen`] maps an index `i` to a [`Query`] as a pure function of
//! `(seed, i)` — two runs of the same workload issue byte-identical query
//! sequences regardless of thread interleaving, which is what makes
//! mixed-workload numbers reproducible. Distance-type queries draw
//! their source from a small **hot set**, modelling the skewed access
//! patterns the oracle's per-source cache exists for.

use crate::query::Query;
use dsg_graph::Vertex;
use dsg_hash::SplitMix64;

/// Relative weights of the query types in a generated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryMix {
    /// Weight of [`Query::Connectivity`].
    pub connectivity: u32,
    /// Weight of [`Query::SameComponent`].
    pub same_component: u32,
    /// Weight of [`Query::Distance`].
    pub distance: u32,
    /// Weight of [`Query::IsFar`].
    pub is_far: u32,
    /// Weight of [`Query::CutEstimate`].
    pub cut: u32,
    /// Weight of [`Query::Stats`].
    pub stats: u32,
}

impl QueryMix {
    /// A read-heavy serving mix: mostly membership and distance lookups,
    /// occasional cut estimates and stats probes.
    pub fn read_heavy() -> Self {
        Self {
            connectivity: 10,
            same_component: 40,
            distance: 35,
            is_far: 10,
            cut: 1,
            stats: 4,
        }
    }

    /// A membership-only mix (no artifact heavier than the forest), for
    /// isolating epoch/snapshot overhead from artifact build cost.
    pub fn membership_only() -> Self {
        Self {
            connectivity: 20,
            same_component: 80,
            distance: 0,
            is_far: 0,
            cut: 0,
            stats: 0,
        }
    }

    /// Summed in `u64`: six arbitrary `u32` weights can overflow `u32`.
    fn total(&self) -> u64 {
        [
            self.connectivity,
            self.same_component,
            self.distance,
            self.is_far,
            self.cut,
            self.stats,
        ]
        .iter()
        .map(|&w| w as u64)
        .sum()
    }
}

/// A deterministic `(seed, index) → Query` workload generator.
#[derive(Debug, Clone, Copy)]
pub struct LoadGen {
    n: usize,
    seed: u64,
    mix: QueryMix,
    hot_sources: usize,
}

impl LoadGen {
    /// A generator over graphs on `n` vertices. Distance-type queries
    /// draw sources from a default hot set of 4 vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the mix has zero total weight.
    pub fn new(n: usize, mix: QueryMix, seed: u64) -> Self {
        assert!(n >= 2, "need at least two vertices");
        assert!(mix.total() > 0, "query mix must have positive weight");
        Self {
            n,
            seed,
            mix,
            hot_sources: 4.min(n),
        }
    }

    /// Overrides the hot-set size for distance-type sources.
    ///
    /// # Panics
    ///
    /// Panics if `hot == 0`.
    pub fn hot_sources(mut self, hot: usize) -> Self {
        assert!(hot > 0, "need at least one hot source");
        self.hot_sources = hot.min(self.n);
        self
    }

    /// The `i`-th query of the workload — a pure function of
    /// `(seed, i)`.
    pub fn query(&self, i: u64) -> Query {
        let mut rng =
            SplitMix64::new(self.seed ^ (i.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n = self.n as u64;
        let mut pick = rng.next_below(self.mix.total());
        let mut take = |w: u32| {
            if pick < w as u64 {
                true
            } else {
                pick -= w as u64;
                false
            }
        };
        if take(self.mix.connectivity) {
            return Query::Connectivity;
        }
        if take(self.mix.same_component) {
            let u = rng.next_below(n) as Vertex;
            let v = rng.next_below(n) as Vertex;
            return Query::SameComponent(u, v);
        }
        if take(self.mix.distance) {
            let u = rng.next_below(self.hot_sources as u64) as Vertex;
            let v = rng.next_below(n) as Vertex;
            return Query::Distance(u, v);
        }
        if take(self.mix.is_far) {
            let u = rng.next_below(self.hot_sources as u64) as Vertex;
            let v = rng.next_below(n) as Vertex;
            let threshold = 1 + rng.next_below(8) as u32;
            return Query::IsFar { u, v, threshold };
        }
        if take(self.mix.cut) {
            // A contiguous vertex range makes a deterministic, cheap side.
            let len = 1 + rng.next_below(n - 1);
            let start = rng.next_below(n - len + 1);
            return Query::CutEstimate((start..start + len).map(|v| v as Vertex).collect());
        }
        Query::Stats
    }

    /// The first `count` queries of the workload.
    pub fn queries(&self, count: u64) -> Vec<Query> {
        (0..count).map(|i| self.query(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let a = LoadGen::new(50, QueryMix::read_heavy(), 7);
        let b = LoadGen::new(50, QueryMix::read_heavy(), 7);
        assert_eq!(a.queries(200), b.queries(200));
        let c = LoadGen::new(50, QueryMix::read_heavy(), 8);
        assert_ne!(a.queries(200), c.queries(200), "seed must matter");
    }

    #[test]
    fn mix_weights_are_respected() {
        let gen = LoadGen::new(30, QueryMix::membership_only(), 3);
        for q in gen.queries(300) {
            assert!(
                matches!(q, Query::Connectivity | Query::SameComponent(_, _)),
                "membership-only mix produced {q:?}"
            );
        }
    }

    #[test]
    fn distance_sources_stay_in_the_hot_set() {
        let mix = QueryMix {
            connectivity: 0,
            same_component: 0,
            distance: 1,
            is_far: 1,
            cut: 0,
            stats: 0,
        };
        let gen = LoadGen::new(100, mix, 5).hot_sources(3);
        for q in gen.queries(200) {
            match q {
                Query::Distance(u, _) | Query::IsFar { u, .. } => assert!(u < 3),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn generated_vertices_are_in_range() {
        let gen = LoadGen::new(9, QueryMix::read_heavy(), 11);
        for q in gen.queries(500) {
            match q {
                Query::SameComponent(u, v) | Query::Distance(u, v) => {
                    assert!(u < 9 && v < 9);
                }
                Query::IsFar { u, v, .. } => assert!(u < 9 && v < 9),
                Query::CutEstimate(side) => {
                    assert!(!side.is_empty());
                    assert!(side.iter().all(|&v| v < 9));
                }
                Query::Connectivity | Query::Stats => {}
            }
        }
    }
}
