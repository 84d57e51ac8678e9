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
use dsg_graph::{
    FilteredMultiset, Graph, GraphStream, SegmentDelta, StreamAlgorithm, WeightedGraph,
};
use dsg_hash::{SeedTree, SubsetSampler};
use dsg_spanner::{SpannerParams, TwoPassSpanner};
use dsg_util::SpaceUsage;
use std::collections::HashMap;

/// Execution statistics of the streaming sparsifier.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Total measured sketch bytes across all spanner instances (peak of
    /// the two passes).
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

/// The two-pass streaming sparsifier (implements [`StreamAlgorithm`];
/// each pass can also be sharded across threads and recombined with
/// [`merge_pass_state`](TwoPassSparsifier::merge_pass_state)).
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

    /// The construction parameters.
    pub fn params(&self) -> &SparsifierParams {
        &self.params
    }

    /// Adds `other`'s pass-local linear state into `self` — the
    /// distributed-ingest merge, delegated to every inner
    /// [`TwoPassSpanner::merge_pass_state`]. The pipeline is a bank of
    /// two-pass spanners behind deterministic subsample filters, so its
    /// per-pass stream state is linear exactly when theirs is.
    ///
    /// # Panics
    ///
    /// Panics if `other` was built with different `n` or params, or sits
    /// in a different pass.
    pub fn merge_pass_state(&mut self, other: &Self) {
        assert_eq!(self.n, other.n, "vertex count mismatch");
        assert_eq!(self.params.seed, other.params.seed, "seed mismatch");
        assert!(
            self.estimate_spanners.len() == other.estimate_spanners.len()
                && self
                    .estimate_spanners
                    .iter()
                    .zip(&other.estimate_spanners)
                    .all(|(a, b)| a.len() == b.len())
                && self.sample_spanners.len() == other.sample_spanners.len()
                && self
                    .sample_spanners
                    .iter()
                    .zip(&other.sample_spanners)
                    .all(|(a, b)| a.len() == b.len()),
            "spanner bank shape mismatch (different eps/z/j parameters?)"
        );
        for (mine, theirs) in self
            .estimate_spanners
            .iter_mut()
            .zip(&other.estimate_spanners)
        {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.merge_pass_state(b);
            }
        }
        for (mine, theirs) in self.sample_spanners.iter_mut().zip(&other.sample_spanners) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.merge_pass_state(b);
            }
        }
    }

    /// Assembles the sparsifier after both passes.
    ///
    /// Consumes the pipeline; returns `None` if the passes did not run.
    pub fn into_output(self) -> Option<PipelineOutput> {
        self.assemble()
    }

    /// Assembles the sparsifier after both passes **without consuming**
    /// the pipeline — the retaining-mode accessor: the instance (and
    /// every inner spanner's linear state) stays alive to be
    /// [`patch`](TwoPassSparsifier::patch)ed to the next segment.
    ///
    /// Returns `None` if the passes did not run. The weight accumulation
    /// runs in the same deterministic order as always (estimate rows in
    /// `j` then `t` order; sample rows in `s` then level order, observed
    /// edges in their recorded order), so repeated assembly of the same
    /// state is bit-identical.
    pub fn assemble(&self) -> Option<PipelineOutput> {
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

    /// Switches every inner spanner into retaining mode (see
    /// [`TwoPassSpanner::retaining`]): after a run, the pipeline holds
    /// all pass-facing linear state and can be patched across epochs.
    pub fn retaining(mut self) -> Self {
        for row in &mut self.estimate_spanners {
            for alg in row {
                alg.set_retaining();
            }
        }
        for row in &mut self.sample_spanners {
            for alg in row {
                alg.set_retaining();
            }
        }
        self
    }

    /// Advances a completed retaining-mode run to a nearby segment,
    /// returning output **bit-identical** to a from-scratch
    /// [`run_sparsifier_net`] over `cur`.
    ///
    /// The pipeline is a bank of two-pass spanners behind deterministic
    /// subsample filters, so the delta routes: each inner spanner receives
    /// the sub-delta surviving its filter (restriction commutes with
    /// diffing — the filters are functions of edge identity) and patches
    /// itself in O(its changes); a spanner whose sub-delta is empty is
    /// skipped outright, its state and output already being exactly those
    /// of a full rebuild. The final weighting (Algorithm 6) is recomputed
    /// by [`assemble`](TwoPassSparsifier::assemble) — a deterministic
    /// function of bit-identical inner states.
    ///
    /// `delta` must be `cur.diff(&prev)` for the segment `prev` this
    /// pipeline currently represents.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline has not completed both passes, is not in
    /// retaining mode, or `cur` disagrees on the vertex count.
    pub fn patch<M>(&mut self, delta: &SegmentDelta, cur: &M) -> PipelineOutput
    where
        M: dsg_graph::EdgeMultiset + ?Sized,
    {
        assert!(self.finished, "patch requires a completed run");
        assert_eq!(cur.num_vertices(), self.n, "vertex count mismatch");
        let nested = &self.nested;
        for (j, row) in self.estimate_spanners.iter_mut().enumerate() {
            for (t0, alg) in row.iter_mut().enumerate() {
                let pred = |coord: u64| nested.contains(j, t0 + 1, coord);
                let sub = delta.filtered(self.n, &pred);
                if sub.is_empty() {
                    continue;
                }
                alg.patch(&sub, &FilteredMultiset::new(cur, pred));
            }
        }
        let filters = &self.sample_filters;
        for (s, row) in self.sample_spanners.iter_mut().enumerate() {
            for (j0, alg) in row.iter_mut().enumerate() {
                let pred = |coord: u64| filters[s][j0].contains(coord);
                let sub = delta.filtered(self.n, &pred);
                if sub.is_empty() {
                    continue;
                }
                alg.patch(&sub, &FilteredMultiset::new(cur, pred));
            }
        }
        self.stats.sketch_bytes = self.stats.sketch_bytes.max(self.space_bytes());
        self.assemble().expect("patched pipeline completed")
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
        self.stats.sketch_bytes = self.stats.sketch_bytes.max(self.space_bytes());
        if pass == 1 {
            self.finished = true;
        }
    }
}

impl SpaceUsage for TwoPassSparsifier {
    fn space_bytes(&self) -> usize {
        let est: usize = self
            .estimate_spanners
            .iter()
            .map(|row| row.iter().map(SpaceUsage::space_bytes).sum::<usize>())
            .sum();
        let smp: usize = self
            .sample_spanners
            .iter()
            .map(|row| row.iter().map(SpaceUsage::space_bytes).sum::<usize>())
            .sum();
        est + smp
    }
}

/// Convenience: runs the streaming sparsifier over a stream.
///
/// # Examples
///
/// ```no_run
/// use dsg_graph::{gen, GraphStream};
/// use dsg_sparsifier::{pipeline, SparsifierParams};
///
/// let g = gen::erdos_renyi(48, 0.3, 1);
/// let stream = GraphStream::with_churn(&g, 0.5, 2);
/// let out = pipeline::run_sparsifier(&stream, SparsifierParams::new(2, 0.5, 3));
/// println!("{} edges", out.sparsifier.num_edges());
/// ```
pub fn run_sparsifier(stream: &GraphStream, params: SparsifierParams) -> PipelineOutput {
    let mut alg = TwoPassSparsifier::new(stream.num_vertices(), params);
    dsg_graph::pass::run(&mut alg, stream);
    alg.into_output().expect("both passes completed")
}

/// Runs the streaming sparsifier over a **net edge multiset** view — the
/// generalized entry point the epoch/durability layers rebuild cut
/// artifacts from in O(current edges) per pass.
///
/// Bit-identical to [`run_sparsifier`] on any raw stream with the same
/// net effect: the pipeline is a bank of two-pass spanners behind
/// deterministic subsample filters, so its per-pass state is linear
/// exactly when theirs is, and the post-pass weighting (Algorithm 6) is a
/// deterministic function of that state.
pub fn run_sparsifier_net<M>(view: &M, params: SparsifierParams) -> PipelineOutput
where
    M: dsg_graph::EdgeMultiset + ?Sized,
{
    let mut alg = TwoPassSparsifier::new(view.num_vertices(), params);
    dsg_graph::pass::run_multiset(&mut alg, view);
    alg.into_output().expect("both passes completed")
}

/// [`run_sparsifier_net`] in retaining mode: same output (bit for bit),
/// plus the pipeline instance holding every inner spanner's linear state
/// — the seed of an O(changes) [`patch`](TwoPassSparsifier::patch) chain
/// across epochs.
pub fn run_sparsifier_net_retained<M>(
    view: &M,
    params: SparsifierParams,
) -> (PipelineOutput, TwoPassSparsifier)
where
    M: dsg_graph::EdgeMultiset + ?Sized,
{
    let mut alg = TwoPassSparsifier::new(view.num_vertices(), params).retaining();
    dsg_graph::pass::run_multiset(&mut alg, view);
    let out = alg.assemble().expect("both passes completed");
    (out, alg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kp12::measure_quality;
    use dsg_graph::gen;

    fn small_params(seed: u64) -> SparsifierParams {
        let mut p = SparsifierParams::new(2, 0.5, seed);
        p.z_factor = 0.05;
        p.j_factor = 0.4;
        p
    }

    #[test]
    fn produces_connected_sparsifier_of_clique() {
        let g = gen::complete(24);
        let stream = GraphStream::insert_only(&g, 1);
        let out = run_sparsifier(&stream, small_params(2));
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
        let out = run_sparsifier(&stream, small_params(5));
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
        let out = run_sparsifier(&stream, small_params(6));
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
        let raw = run_sparsifier(&stream, params);
        let net = run_sparsifier_net(&stream.net_multiset(), params);
        assert_eq!(raw.sparsifier, net.sparsifier);
        assert_eq!(raw.stats.observed_candidates, net.stats.observed_candidates);
    }

    #[test]
    fn compresses_dense_graphs() {
        let g = gen::complete(32);
        let stream = GraphStream::insert_only(&g, 7);
        let out = run_sparsifier(&stream, small_params(8));
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
        let out = run_sparsifier(&stream, small_params(11));
        assert!(out.stats.sketch_bytes > 0);
        assert!(out.stats.estimate_instances > 0);
        assert!(out.stats.sample_instances > 0);
    }

    #[test]
    fn retained_run_and_assemble_match_plain_run() {
        let g = gen::erdos_renyi(24, 0.35, 21);
        let net = GraphStream::with_churn(&g, 1.0, 22).net_multiset();
        let params = small_params(23);
        let plain = run_sparsifier_net(&net, params);
        let (kept, alg) = run_sparsifier_net_retained(&net, params);
        assert_eq!(plain.sparsifier, kept.sparsifier);
        // Assembly is repeatable: same state, same bits.
        assert_eq!(
            alg.assemble().expect("finished").sparsifier,
            plain.sparsifier
        );
    }

    #[test]
    fn patch_is_bit_identical_to_full_rebuild() {
        // Light and heavy churn alike: the patched pipeline must equal a
        // from-scratch run on the new segment, weights and all.
        let params = small_params(31);
        let g = gen::erdos_renyi(24, 0.4, 32);
        let prev_net = GraphStream::insert_only(&g, 33).net_multiset();
        for (kill_stride, add_seed) in [(7usize, 34u64), (2, 35)] {
            // Drop every `kill_stride`-th edge, add a few fresh non-edges.
            let mut edges: Vec<dsg_graph::Edge> = g
                .edges()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % kill_stride != 0)
                .map(|(_, e)| *e)
                .collect();
            let have: std::collections::HashSet<dsg_graph::Edge> = edges.iter().copied().collect();
            let mut added = 0;
            'hunt: for u in 0..24u32 {
                for v in (u + 1)..24 {
                    let e = dsg_graph::Edge::new(u, v);
                    if !g.has_edge(u, v) && !have.contains(&e) {
                        edges.push(e);
                        added += 1;
                        if added >= 5 {
                            break 'hunt;
                        }
                    }
                }
            }
            let cur = Graph::from_edges(24, edges);
            let cur_net = GraphStream::insert_only(&cur, add_seed).net_multiset();
            let delta = cur_net.diff(&prev_net);
            assert!(!delta.is_empty());

            let (_, mut alg) = run_sparsifier_net_retained(&prev_net, params);
            let patched = alg.patch(&delta, &cur_net);
            let full = run_sparsifier_net(&cur_net, params);
            assert_eq!(patched.sparsifier, full.sparsifier, "stride {kill_stride}");
            assert_eq!(
                patched.stats.observed_candidates,
                full.stats.observed_candidates
            );
        }
    }
}
