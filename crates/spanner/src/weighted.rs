//! Weighted spanners via geometric weight classes (Remark 14).
//!
//! "Our algorithm extends to weighted graphs by the simple reduction: round
//! weights to the nearest power of `1 + γ` ... and run the unweighted
//! spanner construction on each weight class. This requires at most a
//! factor of `O(γ^{-1} log(w_max/w_min))` more space."
//!
//! The weighted dynamic-stream model (Section 1) is respected: an update
//! either adds a weighted edge or removes it entirely, and the weight is
//! known at update time — which is exactly what lets the algorithm route
//! each update to its weight class online.

use crate::params::SpannerParams;
use crate::twopass::{TwoPassOutput, TwoPassSpanner};
use dsg_graph::stream::StreamUpdate;
use dsg_graph::{StreamAlgorithm, WeightedGraph};
use dsg_util::SpaceUsage;
use std::collections::HashMap;

/// Output of the weighted two-pass spanner.
#[derive(Debug, Clone)]
pub struct WeightedOutput {
    /// The weighted spanner; each surviving edge carries its class's upper
    /// rounding bound `(1+γ)^{c+1}`, so distances are overestimates within
    /// `(1+γ)` of the rounded graph.
    pub spanner: WeightedGraph,
    /// Per-class outputs `(class_index, output)` for inspection.
    pub per_class: Vec<(i32, TwoPassOutput)>,
}

/// The weighted two-pass spanner: one unweighted [`TwoPassSpanner`] per
/// geometric weight class.
///
/// # Examples
///
/// ```
/// use dsg_graph::{gen, GraphStream, pass};
/// use dsg_spanner::{SpannerParams, WeightedTwoPassSpanner};
///
/// let g = gen::with_random_weights(&gen::erdos_renyi(40, 0.2, 1), 1.0, 16.0, 2);
/// let stream = GraphStream::weighted_with_churn(&g, 1.0, 3);
/// let mut alg = WeightedTwoPassSpanner::new(40, 0.5, SpannerParams::new(2, 4));
/// pass::run(&mut alg, &stream);
/// let out = alg.into_output().unwrap();
/// assert!(out.spanner.num_edges() <= g.num_edges());
/// ```
#[derive(Debug)]
pub struct WeightedTwoPassSpanner {
    n: usize,
    gamma: f64,
    params: SpannerParams,
    classes: HashMap<i32, TwoPassSpanner>,
    current_pass: usize,
    finished: bool,
}

impl WeightedTwoPassSpanner {
    /// Creates the algorithm with rounding parameter `gamma` (class `c`
    /// holds weights in `[(1+γ)^c, (1+γ)^{c+1})`).
    ///
    /// # Panics
    ///
    /// Panics if `gamma <= 0` or `n < 2`.
    pub fn new(n: usize, gamma: f64, params: SpannerParams) -> Self {
        assert!(gamma > 0.0, "gamma must be positive");
        assert!(n >= 2, "need at least two vertices");
        Self {
            n,
            gamma,
            params,
            classes: HashMap::new(),
            current_pass: 0,
            finished: false,
        }
    }

    /// The weight class of `w`: `floor(log_{1+γ} w)`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not positive and finite.
    pub fn weight_class(&self, w: f64) -> i32 {
        assert!(w.is_finite() && w > 0.0, "invalid weight {w}");
        (w.ln() / (1.0 + self.gamma).ln()).floor() as i32
    }

    /// The representative (upper) weight of class `c`.
    pub fn class_weight(&self, c: i32) -> f64 {
        (1.0 + self.gamma).powi(c + 1)
    }

    /// Consumes the algorithm, returning the output after both passes.
    pub fn into_output(mut self) -> Option<WeightedOutput> {
        if !self.finished {
            return None;
        }
        let mut per_class: Vec<(i32, TwoPassOutput)> = Vec::new();
        let mut classes: Vec<(i32, TwoPassSpanner)> = self.classes.drain().collect();
        classes.sort_by_key(|(c, _)| *c);
        let mut edges = Vec::new();
        for (c, alg) in classes {
            let out = alg.into_output()?;
            let w = self.class_weight(c);
            edges.extend(out.spanner.edges().iter().map(|&e| (e, w)));
            per_class.push((c, out));
        }
        Some(WeightedOutput {
            spanner: WeightedGraph::from_edges(self.n, edges),
            per_class,
        })
    }
}

impl StreamAlgorithm for WeightedTwoPassSpanner {
    fn num_passes(&self) -> usize {
        2
    }

    fn begin_pass(&mut self, pass: usize) {
        self.current_pass = pass;
        for alg in self.classes.values_mut() {
            alg.begin_pass(pass);
        }
    }

    fn process(&mut self, update: &StreamUpdate) {
        let class = self.weight_class(update.weight);
        // Classes are discovered in pass 0; the stream is identical across
        // passes, so no class first appears in pass 1.
        if self.current_pass == 0 {
            if !self.classes.contains_key(&class) {
                let mut params = self.params;
                params.seed = params
                    .seed
                    .wrapping_add(0x9E37u64.wrapping_mul(class as i64 as u64));
                let mut alg = TwoPassSpanner::new(self.n, params);
                alg.begin_pass(0);
                self.classes.insert(class, alg);
            }
        } else if !self.classes.contains_key(&class) {
            panic!(
                "weight class {class} first appeared in pass {}",
                self.current_pass
            );
        }
        // Route the update, stripped to unweighted form.
        let unweighted = StreamUpdate {
            edge: update.edge,
            delta: update.delta,
            weight: 1.0,
        };
        self.classes
            .get_mut(&class)
            .expect("class exists")
            .process(&unweighted);
    }

    fn end_pass(&mut self, pass: usize) {
        for alg in self.classes.values_mut() {
            alg.end_pass(pass);
        }
        if pass == 1 {
            self.finished = true;
        }
    }
}

impl SpaceUsage for WeightedTwoPassSpanner {
    fn space_bytes(&self) -> usize {
        self.classes.values().map(SpaceUsage::space_bytes).sum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::verify;
    use dsg_graph::{gen, GraphStream};

    fn run(g: &WeightedGraph, gamma: f64, k: usize, seed: u64) -> WeightedOutput {
        let stream = GraphStream::weighted_with_churn(g, 1.0, seed ^ 0xEE);
        let mut alg =
            WeightedTwoPassSpanner::new(g.num_vertices(), gamma, SpannerParams::new(k, seed));
        dsg_graph::pass::run(&mut alg, &stream);
        alg.into_output().expect("finished")
    }

    #[test]
    fn weighted_stretch_bounded() {
        let g = gen::with_random_weights(&gen::erdos_renyi(50, 0.2, 1), 1.0, 64.0, 2);
        let k = 2;
        let gamma = 0.5;
        let out = run(&g, gamma, k, 3);
        let stretch = verify::max_weighted_stretch(&g, &out.spanner, 50);
        let bound = (1u64 << k) as f64 * (1.0 + gamma);
        assert!(stretch <= bound, "stretch {stretch} > {bound}");
    }

    #[test]
    fn spanner_edges_come_from_input() {
        let g = gen::with_random_weights(&gen::erdos_renyi(40, 0.25, 4), 0.5, 8.0, 5);
        let out = run(&g, 0.5, 2, 6);
        for (e, _) in out.spanner.edges() {
            assert!(g.weight(e.u(), e.v()).is_some(), "edge {e} not in input");
        }
    }

    #[test]
    fn assigned_weights_upper_bound_true_weights() {
        let g = gen::with_random_weights(&gen::cycle(30), 1.0, 32.0, 7);
        let out = run(&g, 0.3, 2, 8);
        for (e, w) in out.spanner.edges() {
            let true_w = g.weight(e.u(), e.v()).unwrap();
            assert!(*w >= true_w, "assigned {w} < true {true_w}");
            assert!(*w <= true_w * 1.3 * 1.3, "assigned {w} ≫ true {true_w}");
        }
    }

    #[test]
    fn class_count_scales_with_range() {
        let alg = WeightedTwoPassSpanner::new(10, 0.5, SpannerParams::new(2, 1));
        let lo = alg.weight_class(1.0);
        let hi = alg.weight_class(1024.0);
        // log_{1.5}(1024) ≈ 17 classes.
        assert!(hi - lo >= 15 && hi - lo <= 19, "classes {lo}..{hi}");
    }

    #[test]
    fn unit_weights_single_class() {
        let g = gen::with_random_weights(&gen::path(20), 1.0, 1.0, 9);
        let out = run(&g, 0.5, 2, 10);
        assert_eq!(out.per_class.len(), 1);
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn zero_gamma_panics() {
        WeightedTwoPassSpanner::new(10, 0.0, SpannerParams::new(2, 1));
    }
}
