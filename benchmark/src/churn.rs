//! Constant-m sliding-window churn.
//!
//! A universe of `2m` distinct edges is drawn once from the seed; a window
//! of `m` consecutive universe positions is live. One epoch of churn `k`
//! deletes the `k` oldest live edges and inserts the next `k` positions
//! (indices modulo the universe). The live edge count never drifts, so
//! epoch `i` and epoch `j` do the same amount of work — with naive toggling
//! `m` wandered and the KP12 build time swung 1.5 s → 19 s between epochs.
//! `k <= m` keeps every inserted position outside the window, so no batch
//! ever deletes an absent edge or inserts a present one.

use dsg_graph::{gen, Edge, Graph, StreamUpdate};
use dsg_hash::SplitMix64;

#[derive(Debug, Clone)]
pub struct SlidingWindow {
    n: usize,
    universe: Vec<Edge>,
    /// Universe position of the oldest live edge.
    head: usize,
    m: usize,
}

impl SlidingWindow {
    /// A window of `m` live edges over a universe of `2m`, on `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `2m` exceeds the number of vertex pairs.
    pub fn new(n: usize, m: usize, seed: u64) -> Self {
        assert!(m > 0, "window must hold at least one edge");
        // `gnm` hands back its edges in canonical order; the shuffle makes
        // window age independent of vertex ids.
        let mut universe = gen::gnm(n, 2 * m, seed).edges().to_vec();
        universe.sort_unstable();
        let mut rng = SplitMix64::new(seed ^ 0x5749_4E44_4F57); // "WINDOW"
        for i in (1..universe.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            universe.swap(i, j);
        }
        Self {
            n,
            universe,
            head: 0,
            m,
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The live edges, oldest first.
    pub fn live_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let len = self.universe.len();
        (0..self.m).map(move |i| self.universe[(self.head + i) % len])
    }

    pub fn live_graph(&self) -> Graph {
        Graph::from_edges(self.n, self.live_edges())
    }

    /// One insertion per live edge, oldest first — the preload stream.
    pub fn preload(&self) -> Vec<StreamUpdate> {
        self.live_edges()
            .map(|e| StreamUpdate::insert(e.u(), e.v()))
            .collect()
    }

    /// Slides the window by `k`: returns `k` deletions of the oldest live
    /// edges followed by `k` insertions of the next universe positions.
    ///
    /// # Panics
    ///
    /// Panics if `k > m`.
    pub fn slide(&mut self, k: usize) -> Vec<StreamUpdate> {
        assert!(k <= self.m, "churn {k} exceeds the window {}", self.m);
        let len = self.universe.len();
        let at = |pos: usize| self.universe[pos % len];
        let deletes = (0..k).map(|i| at(self.head + i));
        let inserts = (0..k).map(|i| at(self.head + self.m + i));
        let updates = deletes
            .map(|e| StreamUpdate::delete(e.u(), e.v()))
            .chain(inserts.map(|e| StreamUpdate::insert(e.u(), e.v())))
            .collect();
        self.head = (self.head + k) % len;
        updates
    }

    /// Deletions and insertions per epoch for a churn of `share` of `m`
    /// (at least one edge).
    pub fn churn_size(&self, share: f64) -> usize {
        ((self.m as f64 * share).round() as usize).clamp(1, self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn bytes(updates: &[StreamUpdate]) -> Vec<u8> {
        updates
            .iter()
            .flat_map(|u| {
                let mut b = u.edge.u().to_le_bytes().to_vec();
                b.extend(u.edge.v().to_le_bytes());
                b.push(u.delta as u8);
                b
            })
            .collect()
    }

    #[test]
    fn live_edge_count_is_invariant_across_epochs() {
        let mut w = SlidingWindow::new(60, 100, 7);
        for epoch in 0..50 {
            let k = if epoch % 2 == 0 { 3 } else { 100 };
            w.slide(k);
            let live: std::collections::HashSet<Edge> = w.live_edges().collect();
            assert_eq!(
                live.len(),
                100,
                "epoch {epoch}: live edges must be distinct"
            );
            assert_eq!(w.live_graph().num_edges(), 100);
        }
    }

    #[test]
    fn every_batch_is_valid_in_the_stream_model() {
        let mut w = SlidingWindow::new(40, 64, 3);
        let mut mult: HashMap<Edge, i32> = HashMap::new();
        for up in w.preload() {
            *mult.entry(up.edge).or_insert(0) += i32::from(up.delta);
        }
        for epoch in 0..40 {
            for up in w.slide(1 + epoch % 64) {
                let c = mult.entry(up.edge).or_insert(0);
                *c += i32::from(up.delta);
                assert!(
                    (0..=1).contains(c),
                    "epoch {epoch}: {} has multiplicity {c}",
                    up.edge
                );
            }
            let live: usize = mult.values().filter(|&&c| c == 1).count();
            assert_eq!(live, 64);
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_updates() {
        let run = |seed| {
            let mut w = SlidingWindow::new(50, 80, seed);
            let mut all = bytes(&w.preload());
            for _ in 0..10 {
                all.extend(bytes(&w.slide(8)));
            }
            all
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn churn_size_rounds_and_never_reaches_zero() {
        let w = SlidingWindow::new(200, 512, 1);
        assert_eq!(w.churn_size(0.02), 10);
        assert_eq!(w.churn_size(0.40), 205);
        assert_eq!(w.churn_size(0.0001), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the window")]
    fn over_sliding_is_refused() {
        SlidingWindow::new(30, 10, 1).slide(11);
    }
}
