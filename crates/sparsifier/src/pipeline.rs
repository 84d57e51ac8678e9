//! The end-to-end two-pass streaming spectral sparsifier (Corollary 2).
//!
//! Everything runs over the *same two passes* of the dynamic stream:
//!
//! * `J × T` two-pass spanners on the nested subsample filters `E^j_t`
//!   become the distance oracles of `ESTIMATE` (Algorithm 4);
//! * `Z × H` two-pass *augmented* spanners on the independent rate-`2^{-j}`
//!   filters `E_{s,j}` implement `SAMPLE-AUGMENTED-SPANNER` (Algorithm 5);
//! * after pass two, each augmented spanner's observed edge set `Ω(R)` is
//!   weighted by the `ESTIMATE` answers (`2^{j}` when `q̂(e) = 2^{-j}`, else
//!   0) and the `Z` rounds are averaged (Algorithm 6).
//!
//! The sampler filters are evaluated from hashes (Section 6.3's
//! derandomization note: `O(log n)`-wise independence replaces the
//! `Ω(n^2)` perfect random bits; see `DESIGN.md`, "Derandomization").

use crate::estimate::{ConnectivityEstimator, NestedSamplers};
use crate::kp12::SparsifierParams;
use dsg_graph::stream::StreamUpdate;
use dsg_graph::{Graph, StreamAlgorithm, WeightedGraph};
use dsg_hash::{SeedTree, SubsetSampler};
use dsg_spanner::{SpannerParams, TwoPassSpanner};
use dsg_util::SpaceUsage;
use std::collections::HashMap;

/// Execution statistics of the streaming sparsifier.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Total measured sketch bytes across all spanner instances (peak of
    /// the two passes, each pass counting only its own state; see
    /// [`TwoPassStats`](dsg_spanner::twopass::TwoPassStats)).
    pub sketch_bytes: usize,
    /// Number of estimator spanner instances (`J × T`).
    pub estimate_instances: usize,
    /// Number of sampling spanner instances (`Z × H`).
    pub sample_instances: usize,
    /// Candidate edges observed across sampling rounds.
    pub observed_candidates: usize,
}

/// Output of the pipeline.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The weighted sparsifier.
    pub sparsifier: WeightedGraph,
    /// Statistics.
    pub stats: PipelineStats,
}

/// The two-pass streaming sparsifier. [`build`](Self::build) runs both
/// passes over a net edge multiset; it also implements
/// [`StreamAlgorithm`], so [`dsg_graph::pass::run`] drives it over a raw
/// stream.
#[derive(Debug, Clone)]
pub struct TwoPassSparsifier {
    n: usize,
    params: SparsifierParams,
    nested: NestedSamplers,
    /// `estimate_spanners[j][t-1]` over filter `E^j_t`.
    estimate_spanners: Vec<Vec<TwoPassSpanner>>,
    /// `sample_filters[s][jlev-1]` at rate `2^{-jlev}`.
    sample_filters: Vec<Vec<SubsetSampler>>,
    /// `sample_spanners[s][jlev-1]` over the corresponding filter.
    sample_spanners: Vec<Vec<TwoPassSpanner>>,
    stats: PipelineStats,
    finished: bool,
}

impl TwoPassSparsifier {
    /// Creates the pipeline for unweighted graphs on `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize, params: SparsifierParams) -> Self {
        assert!(n >= 2, "need at least two vertices");
        let tree = SeedTree::new(params.seed ^ 0x5350_4152_5349_4659); // "SPARSIFY"
        let est = params.estimate_params(n);
        let nested = NestedSamplers::new(est.j_reps, est.t_levels, tree.child(0).seed());
        let estimate_spanners: Vec<Vec<TwoPassSpanner>> = (0..est.j_reps)
            .map(|j| {
                (1..=est.t_levels)
                    .map(|t| {
                        TwoPassSpanner::new(
                            n,
                            SpannerParams::new(
                                params.k,
                                tree.child(1).child(j as u64).child(t as u64).seed(),
                            ),
                        )
                    })
                    .collect()
            })
            .collect();
        let z = params.z_rounds(n);
        let h = params.h_levels(n);
        let sample_filters: Vec<Vec<SubsetSampler>> = (0..z)
            .map(|s| {
                (1..=h)
                    .map(|j| {
                        SubsetSampler::at_rate_pow2(
                            tree.child(2).child(s as u64).child(j as u64).seed(),
                            j as u32,
                        )
                    })
                    .collect()
            })
            .collect();
        let sample_spanners: Vec<Vec<TwoPassSpanner>> = (0..z)
            .map(|s| {
                (1..=h)
                    .map(|j| {
                        TwoPassSpanner::new(
                            n,
                            SpannerParams::new(
                                params.k,
                                tree.child(3).child(s as u64).child(j as u64).seed(),
                            ),
                        )
                    })
                    .collect()
            })
            .collect();
        let stats = PipelineStats {
            estimate_instances: est.j_reps * est.t_levels,
            sample_instances: z * h,
            ..Default::default()
        };
        Self {
            n,
            params,
            nested,
            estimate_spanners,
            sample_filters,
            sample_spanners,
            stats,
            finished: false,
        }
    }

    /// Runs both passes over the **net edge multiset** `view` and returns
    /// the finished pipeline; [`into_output`](Self::into_output) yields the
    /// sparsifier.
    ///
    /// Bit-identical to [`dsg_graph::pass::run`] over any raw stream with
    /// the same net effect: the pipeline is a bank of two-pass spanners
    /// behind deterministic subsample filters, so its per-pass state is
    /// linear exactly when theirs is, and the post-pass weighting
    /// (Algorithm 6) is a deterministic function of that state.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use dsg_graph::{gen, GraphStream};
    /// use dsg_sparsifier::{SparsifierParams, TwoPassSparsifier};
    ///
    /// let g = gen::erdos_renyi(48, 0.3, 1);
    /// let net = GraphStream::with_churn(&g, 0.5, 2).net_multiset();
    /// let alg = TwoPassSparsifier::build(&net, SparsifierParams::new(2, 0.5, 3));
    /// let out = alg.into_output().expect("both passes ran");
    /// println!("{} edges", out.sparsifier.num_edges());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `view` has fewer than two vertices.
    pub fn build<M>(view: &M, params: SparsifierParams) -> Self
    where
        M: dsg_graph::EdgeMultiset + ?Sized,
    {
        let mut alg = Self::new(view.num_vertices(), params);
        dsg_graph::pass::run_multiset(&mut alg, view);
        alg
    }

    /// The construction parameters.
    pub fn params(&self) -> &SparsifierParams {
        &self.params
    }

    /// Every inner spanner: the estimator bank, then the sampling bank.
    fn spanners(&self) -> impl Iterator<Item = &TwoPassSpanner> {
        self.estimate_spanners
            .iter()
            .chain(&self.sample_spanners)
            .flatten()
    }

    /// The larger of the two passes' summed sketch bytes over the
    /// finished inner spanners.
    fn peak_pass_bytes(&self) -> usize {
        let (mut pass1, mut pass2) = (0, 0);
        for out in self.spanners().filter_map(TwoPassSpanner::output) {
            pass1 += out.stats.pass1_bytes;
            pass2 += out.stats.pass2_bytes;
        }
        pass1.max(pass2)
    }

    /// Assembles the sparsifier after both passes.
    ///
    /// Consumes the pipeline; returns `None` if the passes did not run.
    /// The weight accumulation runs in a deterministic order (estimate
    /// rows in `j` then `t` order; sample rows in `s` then level order,
    /// observed edges in their recorded order), so equal pass states give
    /// bit-identical sparsifiers.
    pub fn into_output(self) -> Option<PipelineOutput> {
        if !self.finished {
            return None;
        }
        let est_params = self.params.estimate_params(self.n);
        // Collect the estimator oracle graphs.
        let mut oracle_graphs: Vec<Vec<Graph>> = Vec::with_capacity(est_params.j_reps);
        for row in &self.estimate_spanners {
            let mut graphs = Vec::with_capacity(est_params.t_levels);
            for alg in row {
                graphs.push(alg.output()?.spanner.clone());
            }
            oracle_graphs.push(graphs);
        }
        let estimator =
            ConnectivityEstimator::from_oracle_graphs(self.n, est_params, &oracle_graphs);
        // Algorithm 5 + 6: weight observed edges by matching q̂ levels.
        let z = self.sample_spanners.len();
        let mut weights: HashMap<dsg_graph::Edge, f64> = HashMap::new();
        let mut level_cache: HashMap<dsg_graph::Edge, usize> = HashMap::new();
        let mut observed_candidates = 0usize;
        for row in &self.sample_spanners {
            for (jlev, alg) in row.iter().enumerate() {
                let jlev = jlev + 1;
                let out = alg.output()?;
                for &e in &out.observed_edges {
                    observed_candidates += 1;
                    let level = *level_cache
                        .entry(e)
                        .or_insert_with(|| estimator.query_level(e));
                    if level == jlev {
                        *weights.entry(e).or_insert(0.0) += (1u64 << jlev) as f64 / z as f64;
                    }
                }
            }
        }
        let mut stats = self.stats.clone();
        stats.observed_candidates = observed_candidates;
        let sparsifier =
            WeightedGraph::from_edges(self.n, weights.into_iter().filter(|&(_, w)| w > 0.0));
        Some(PipelineOutput { sparsifier, stats })
    }
}

impl StreamAlgorithm for TwoPassSparsifier {
    fn num_passes(&self) -> usize {
        2
    }

    fn begin_pass(&mut self, pass: usize) {
        for row in &mut self.estimate_spanners {
            for alg in row {
                alg.begin_pass(pass);
            }
        }
        for row in &mut self.sample_spanners {
            for alg in row {
                alg.begin_pass(pass);
            }
        }
    }

    fn process(&mut self, update: &StreamUpdate) {
        let coord = update.edge.index(self.n);
        for (j, row) in self.estimate_spanners.iter_mut().enumerate() {
            for (t0, alg) in row.iter_mut().enumerate() {
                if self.nested.contains(j, t0 + 1, coord) {
                    alg.process(update);
                }
            }
        }
        for (s, row) in self.sample_spanners.iter_mut().enumerate() {
            for (j0, alg) in row.iter_mut().enumerate() {
                if self.sample_filters[s][j0].contains(coord) {
                    alg.process(update);
                }
            }
        }
    }

    fn end_pass(&mut self, pass: usize) {
        for row in &mut self.estimate_spanners {
            for alg in row {
                alg.end_pass(pass);
            }
        }
        for row in &mut self.sample_spanners {
            for alg in row {
                alg.end_pass(pass);
            }
        }
        if pass == 1 {
            self.stats.sketch_bytes = self.peak_pass_bytes();
            self.finished = true;
        }
    }
}

impl SpaceUsage for TwoPassSparsifier {
    fn space_bytes(&self) -> usize {
        self.spanners().map(SpaceUsage::space_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kp12::measure_quality;
    use dsg_graph::{gen, GraphStream};

    fn small_params(seed: u64) -> SparsifierParams {
        let mut p = SparsifierParams::new(2, 0.5, seed);
        p.z_factor = 0.05;
        p.j_factor = 0.4;
        p
    }

    /// The raw-stream reference: both passes replayed update by update.
    fn replay(stream: &GraphStream, params: SparsifierParams) -> PipelineOutput {
        let mut alg = TwoPassSparsifier::new(stream.num_vertices(), params);
        dsg_graph::pass::run(&mut alg, stream);
        alg.into_output().expect("both passes ran")
    }

    fn built<M: dsg_graph::EdgeMultiset>(view: &M, params: SparsifierParams) -> PipelineOutput {
        TwoPassSparsifier::build(view, params)
            .into_output()
            .expect("both passes ran")
    }

    #[test]
    fn produces_connected_sparsifier_of_clique() {
        let g = gen::complete(24);
        let stream = GraphStream::insert_only(&g, 1);
        let out = replay(&stream, small_params(2));
        assert!(out.sparsifier.num_edges() > 0, "empty sparsifier");
        assert_eq!(
            dsg_graph::components::num_components(&out.sparsifier.skeleton()),
            1,
            "sparsifier disconnected"
        );
    }

    #[test]
    fn sparsifier_edges_are_graph_edges() {
        let g = gen::erdos_renyi(30, 0.4, 3);
        let stream = GraphStream::with_churn(&g, 0.5, 4);
        let out = replay(&stream, small_params(5));
        for (e, _) in out.sparsifier.edges() {
            assert!(g.has_edge(e.u(), e.v()), "non-edge {e} in sparsifier");
        }
    }

    #[test]
    fn spectral_quality_is_bounded() {
        // With laptop constants we don't hit the paper's eps, but the
        // sparsifier must be in the right spectral ballpark (E8 sweeps the
        // constants; this is a smoke bound).
        let g = gen::complete(24);
        let stream = GraphStream::insert_only(&g, 5);
        let out = replay(&stream, small_params(6));
        let q = measure_quality(&g, &out.sparsifier);
        assert!(
            q.epsilon < 1.0,
            "eps={} (disconnection-level error)",
            q.epsilon
        );
    }

    #[test]
    fn net_rebuild_matches_stream_replay() {
        // The compaction correctness ground for cut artifacts: the whole
        // pipeline, rebuilt from the net edge multiset, produces the same
        // weighted sparsifier as a raw churn-stream replay.
        let g = gen::erdos_renyi(26, 0.3, 13);
        let stream = GraphStream::with_churn(&g, 1.5, 14);
        let params = small_params(15);
        let raw = replay(&stream, params);
        let net = built(&stream.net_multiset(), params);
        assert_eq!(raw.sparsifier, net.sparsifier);
        assert_eq!(raw.stats.observed_candidates, net.stats.observed_candidates);
    }

    #[test]
    fn compresses_dense_graphs() {
        let g = gen::complete(32);
        let stream = GraphStream::insert_only(&g, 7);
        let out = replay(&stream, small_params(8));
        assert!(
            out.sparsifier.num_edges() < g.num_edges(),
            "{} vs {}",
            out.sparsifier.num_edges(),
            g.num_edges()
        );
    }

    #[test]
    fn stats_populated() {
        let g = gen::erdos_renyi(20, 0.4, 9);
        let stream = GraphStream::insert_only(&g, 10);
        let out = replay(&stream, small_params(11));
        assert!(out.stats.sketch_bytes > 0);
        assert!(out.stats.estimate_instances > 0);
        assert!(out.stats.sample_instances > 0);
    }

    #[test]
    fn build_matches_replay_stats() {
        // `build` keeps every inner spanner's pass state, but the sketch
        // bytes it reports are those of a replay of the raw stream, so
        // the space tables do not depend on which one ran.
        let params = small_params(23);
        let g = gen::erdos_renyi(24, 0.35, 21);
        let stream = GraphStream::with_churn(&g, 1.0, 22);
        let raw = replay(&stream, params);
        let net = built(&stream.net_multiset(), params);
        assert_eq!(raw.stats.sketch_bytes, net.stats.sketch_bytes);
        assert!(net.stats.sketch_bytes > 0);
        assert_eq!(raw.sparsifier, net.sparsifier);
    }
}
