//! Builder-style entry points for the paper's three constructions.
//!
//! These wrap the streaming algorithms in `dsg-spanner` and
//! `dsg-sparsifier` with sensible defaults so the common cases are
//! one-liners; power users drop down to the underlying `Params` structs.

use dsg_graph::{pass, GraphStream};
use dsg_spanner::additive::AdditiveOutput;
use dsg_spanner::twopass::TwoPassOutput;
use dsg_spanner::weighted::WeightedOutput;
use dsg_spanner::{
    AdditiveParams, AdditiveSpanner, SpannerParams, TwoPassSpanner, WeightedTwoPassSpanner,
};
use dsg_sparsifier::pipeline::PipelineOutput;
use dsg_sparsifier::{SparsifierParams, TwoPassSparsifier};

/// Builds two-pass multiplicative `2^k`-spanners (Theorem 1).
///
/// # Examples
///
/// ```
/// use dsg_core::prelude::*;
///
/// let g = gen::cycle(40);
/// let stream = GraphStream::insert_only(&g, 1);
/// let out = SpannerBuilder::new(40).stretch_exponent(2).build_from_stream(&stream);
/// assert!(out.spanner.num_edges() <= g.num_edges());
/// ```
#[derive(Debug, Clone)]
pub struct SpannerBuilder {
    n: usize,
    params: SpannerParams,
}

impl SpannerBuilder {
    /// Starts a builder for graphs on `n` vertices (defaults: `k = 2`,
    /// seed 0).
    pub fn new(n: usize) -> Self {
        Self {
            n,
            params: SpannerParams::new(2, 0),
        }
    }

    /// Sets the hierarchy depth `k` (stretch `2^k`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn stretch_exponent(mut self, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        self.params.k = k;
        self
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Overrides the full parameter set.
    pub fn params(mut self, params: SpannerParams) -> Self {
        self.params = params;
        self
    }

    /// Runs the two passes over the net effect of `stream` and returns
    /// the output (bit-identical to replaying `stream` itself).
    ///
    /// # Panics
    ///
    /// Panics if the stream's vertex count differs from the builder's.
    pub fn build_from_stream(&self, stream: &GraphStream) -> TwoPassOutput {
        assert_eq!(stream.num_vertices(), self.n, "vertex count mismatch");
        TwoPassSpanner::build(&stream.net_multiset(), self.params)
            .into_output()
            .expect("both passes ran")
    }

    /// Runs the weighted variant (Remark 14) with rounding parameter
    /// `gamma` over a weighted stream.
    pub fn build_weighted_from_stream(&self, stream: &GraphStream, gamma: f64) -> WeightedOutput {
        assert_eq!(stream.num_vertices(), self.n, "vertex count mismatch");
        let mut alg = WeightedTwoPassSpanner::new(self.n, gamma, self.params);
        pass::run(&mut alg, stream);
        alg.into_output().expect("both passes completed")
    }
}

/// Builds single-pass additive spanners (Theorem 3).
///
/// # Examples
///
/// ```
/// use dsg_core::prelude::*;
///
/// let g = gen::erdos_renyi(60, 0.2, 1);
/// let stream = GraphStream::with_churn(&g, 1.0, 2);
/// let out = AdditiveSpannerBuilder::new(60).degree_parameter(6).build_from_stream(&stream);
/// assert!(verify::is_subgraph(&g, &out.spanner));
/// ```
#[derive(Debug, Clone)]
pub struct AdditiveSpannerBuilder {
    n: usize,
    params: AdditiveParams,
}

impl AdditiveSpannerBuilder {
    /// Starts a builder for graphs on `n` vertices (defaults: `d = 8`,
    /// seed 0).
    pub fn new(n: usize) -> Self {
        Self {
            n,
            params: AdditiveParams::new(8, 0),
        }
    }

    /// Sets the degree parameter `d` (space `~O(nd)`, distortion
    /// `O(n/d)`).
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn degree_parameter(mut self, d: usize) -> Self {
        assert!(d >= 1, "d must be at least 1");
        self.params.d = d;
        self
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Overrides the full parameter set.
    pub fn params(mut self, params: AdditiveParams) -> Self {
        self.params = params;
        self
    }

    /// Runs the single pass over `stream` and returns the output.
    ///
    /// # Panics
    ///
    /// Panics if the stream's vertex count differs from the builder's.
    pub fn build_from_stream(&self, stream: &GraphStream) -> AdditiveOutput {
        assert_eq!(stream.num_vertices(), self.n, "vertex count mismatch");
        let mut alg = AdditiveSpanner::new(self.n, self.params);
        pass::run(&mut alg, stream);
        alg.into_output().expect("pass completed")
    }
}

/// Builds two-pass spectral sparsifiers (Corollary 2).
///
/// # Examples
///
/// ```no_run
/// use dsg_core::prelude::*;
///
/// let g = gen::complete(32);
/// let stream = GraphStream::insert_only(&g, 1);
/// let out = SparsifierBuilder::new(32).epsilon(0.5).build_from_stream(&stream);
/// println!("sparsifier: {} edges", out.sparsifier.num_edges());
/// ```
#[derive(Debug, Clone)]
pub struct SparsifierBuilder {
    n: usize,
    params: SparsifierParams,
}

impl SparsifierBuilder {
    /// Starts a builder for graphs on `n` vertices (defaults: `k = 2`,
    /// `eps = 0.5`, seed 0).
    pub fn new(n: usize) -> Self {
        Self {
            n,
            params: SparsifierParams::new(2, 0.5, 0),
        }
    }

    /// Sets the target precision.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1)`.
    pub fn epsilon(mut self, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
        self.params.eps = eps;
        self
    }

    /// Sets the spanner depth `k` (`λ = 2^k`); the paper's asymptotic
    /// choice is `k = sqrt(log n)`, see
    /// [`SparsifierParams::paper_k`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn stretch_exponent(mut self, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        self.params.k = k;
        self
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Overrides the full parameter set.
    pub fn params(mut self, params: SparsifierParams) -> Self {
        self.params = params;
        self
    }

    /// Runs the two passes over the net effect of `stream` and returns
    /// the output (bit-identical to replaying `stream` itself).
    ///
    /// # Panics
    ///
    /// Panics if the stream's vertex count differs from the builder's.
    pub fn build_from_stream(&self, stream: &GraphStream) -> PipelineOutput {
        assert_eq!(stream.num_vertices(), self.n, "vertex count mismatch");
        TwoPassSparsifier::build(&stream.net_multiset(), self.params)
            .into_output()
            .expect("both passes ran")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsg_graph::gen;

    #[test]
    fn spanner_builder_defaults() {
        let g = gen::erdos_renyi(40, 0.2, 1);
        let stream = GraphStream::insert_only(&g, 2);
        let out = SpannerBuilder::new(40).seed(3).build_from_stream(&stream);
        assert!(out.spanner.num_edges() > 0);
    }

    #[test]
    fn additive_builder_defaults() {
        let g = gen::erdos_renyi(40, 0.2, 4);
        let stream = GraphStream::insert_only(&g, 5);
        let out = AdditiveSpannerBuilder::new(40)
            .seed(6)
            .build_from_stream(&stream);
        assert!(out.spanner.num_edges() > 0);
    }

    #[test]
    #[should_panic(expected = "vertex count mismatch")]
    fn size_mismatch_panics() {
        let g = gen::path(10);
        let stream = GraphStream::insert_only(&g, 1);
        SpannerBuilder::new(20).build_from_stream(&stream);
    }

    #[test]
    fn weighted_build_runs() {
        let g = gen::with_random_weights(&gen::cycle(20), 1.0, 4.0, 7);
        let stream = GraphStream::weighted_with_churn(&g, 0.5, 8);
        let out = SpannerBuilder::new(20)
            .seed(9)
            .build_weighted_from_stream(&stream, 0.5);
        assert!(out.spanner.num_edges() > 0);
    }
}
