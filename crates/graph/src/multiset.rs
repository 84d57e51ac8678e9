//! Net edge multisets — the order-free summary a dynamic stream leaves
//! behind.
//!
//! The defining property of the paper's linear-sketch toolkit is that
//! every sketch of a dynamic stream is a function of the stream's **net
//! edge multiset** alone: insertions and deletions of the same pair
//! cancel, and neither update order nor stream length is observable.
//! [`NetMultiset`] is the canonical materialization of that multiset — a
//! sorted vector of [`NetEdge`] entries with strictly positive net
//! multiplicity — and [`EdgeMultiset`] is the view trait multi-pass
//! algorithms accept instead of a materialized [`GraphStream`], so their
//! inputs can be rebuilt in O(current edges) rather than O(stream
//! length).
//!
//! Rebuilding from the net multiset is *exact*, not approximate: each
//! pass of a two-pass algorithm keeps stream-facing state that is a
//! linear function of the updates, so feeding one `+1` update per unit of
//! net multiplicity reproduces the pass state bit for bit (the property
//! `crates/spanner` and `crates/sparsifier` test against raw-stream
//! replay).

use crate::graph::{Graph, WeightedGraph};
use crate::ids::Edge;
use crate::stream::{GraphStream, StreamUpdate};
use std::collections::HashMap;

/// The exact difference between two canonical segments (`prev → cur`),
/// as computed by [`NetMultiset::diff`]: O(changes) output, each bucket
/// sorted by edge.
///
/// Because every linear sketch is a function of the net multiset alone,
/// this delta is not an approximation of "what changed" — it *is* the
/// update stream (up to reordering) that carries any sketch of `prev` to
/// the bit-identical sketch of `cur`, in O(changes) work.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SegmentDelta {
    /// Pairs live in `cur` but not in `prev` (the `cur` entry).
    pub added: Vec<NetEdge>,
    /// Pairs live in `prev` but not in `cur` (the `prev` entry).
    pub removed: Vec<NetEdge>,
    /// Pairs live in both but with a different multiplicity and/or
    /// weight: `(prev, cur)` entry pairs over the same edge.
    pub reweighted: Vec<(NetEdge, NetEdge)>,
}

impl SegmentDelta {
    /// Whether the two segments were identical.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.reweighted.is_empty()
    }

    /// Number of changed pairs.
    pub fn num_changes(&self) -> usize {
        self.added.len() + self.removed.len() + self.reweighted.len()
    }

    /// Visits the net **multiplicity** delta of every changed pair (the
    /// signed update a linear sketch must absorb to move from `prev` to
    /// `cur`). Reweighted pairs whose multiplicity is unchanged are
    /// skipped: sketches see multiplicities only, so a pure weight change
    /// is a no-op on every sketch state. The weight argument is the
    /// pair's surviving weight (`cur` for additions and reweights, `prev`
    /// for removals — per the model a deletion carries its insertion's
    /// weight).
    pub fn for_each_multiplicity_delta(&self, f: &mut dyn FnMut(Edge, i128, f64)) {
        for e in &self.added {
            f(e.edge, e.multiplicity as i128, e.weight);
        }
        for e in &self.removed {
            f(e.edge, -(e.multiplicity as i128), e.weight);
        }
        for (prev, cur) in &self.reweighted {
            let d = cur.multiplicity as i128 - prev.multiplicity as i128;
            if d != 0 {
                f(prev.edge, d, cur.weight);
            }
        }
    }
}

/// One entry of a net edge multiset: the pair, its weight, and its net
/// multiplicity (always ≥ 1 inside a [`NetMultiset`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetEdge {
    /// The vertex pair.
    pub edge: Edge,
    /// The edge weight (`1.0` for unweighted streams; per the model a
    /// deletion carries its insertion's weight, so the surviving weight
    /// is well defined).
    pub weight: f64,
    /// Net multiplicity: insertions minus deletions, strictly positive.
    pub multiplicity: u32,
}

/// A view of a graph as a net edge multiset — the generalized input of
/// the multi-pass builds ([`crate::pass::run_multiset`], which
/// `dsg_spanner::TwoPassSpanner::build` and
/// `dsg_sparsifier::TwoPassSparsifier::build` run). Implementors promise
/// to visit each distinct pair at most once, with multiplicity ≥ 1, in a
/// deterministic order.
pub trait EdgeMultiset {
    /// Number of vertices of the underlying graph.
    fn num_vertices(&self) -> usize;

    /// Visits every net edge once.
    fn for_each_net_edge(&self, f: &mut dyn FnMut(NetEdge));
}

/// The canonical materialized net edge multiset: entries sorted by edge,
/// every multiplicity strictly positive. Two streams with the same net
/// effect produce the same `NetMultiset` — and therefore the same
/// canonical bytes wherever it is serialized.
///
/// # Examples
///
/// ```
/// use dsg_graph::{gen, GraphStream};
///
/// let g = gen::erdos_renyi(30, 0.2, 3);
/// // Two very different streams (order, churn volume) with one net effect:
/// let a = GraphStream::with_churn(&g, 0.5, 4).net_multiset();
/// let b = GraphStream::with_churn(&g, 2.0, 5).net_multiset();
/// assert_eq!(a.entries(), b.entries());
/// assert_eq!(a.final_graph(), g);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetMultiset {
    n: usize,
    entries: Vec<NetEdge>,
}

impl NetMultiset {
    /// An empty multiset over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            entries: Vec::new(),
        }
    }

    /// Builds the canonical form from unordered entries.
    ///
    /// # Panics
    ///
    /// Panics if an entry has multiplicity 0, an endpoint out of range,
    /// or the same pair appears twice — callers hold the "net" invariant.
    pub fn from_entries(n: usize, mut entries: Vec<NetEdge>) -> Self {
        entries.sort_unstable_by_key(|e| e.edge);
        for pair in entries.windows(2) {
            assert!(
                pair[0].edge < pair[1].edge,
                "duplicate pair {}",
                pair[1].edge
            );
        }
        for e in &entries {
            assert!(e.multiplicity > 0, "zero multiplicity for {}", e.edge);
            assert!((e.edge.v() as usize) < n, "edge {} out of range", e.edge);
        }
        Self { n, entries }
    }

    /// Builds the canonical form from entries the caller guarantees are
    /// already canonical (sorted by edge, no duplicate pair, positive
    /// in-range multiplicities) — e.g. a sealed segment, or the output of
    /// a merge over sealed segments. The invariant is checked only under
    /// `debug_assertions`; release builds trust the caller and skip the
    /// redundant validation pass.
    pub fn from_sorted_entries(n: usize, entries: Vec<NetEdge>) -> Self {
        #[cfg(debug_assertions)]
        {
            for pair in entries.windows(2) {
                debug_assert!(
                    pair[0].edge < pair[1].edge,
                    "entries not in canonical order at {}",
                    pair[1].edge
                );
            }
            for e in &entries {
                debug_assert!(e.multiplicity > 0, "zero multiplicity for {}", e.edge);
                debug_assert!((e.edge.v() as usize) < n, "edge {} out of range", e.edge);
            }
        }
        Self { n, entries }
    }

    /// The exact segment delta carrying `prev` to `self`, computed in one
    /// merge-scan of the two sorted entry vectors: O(|prev| + |self|)
    /// worst case, O(changes) output. Weight changes compare bitwise
    /// (`f64::to_bits`), so the delta is empty iff the canonical segments
    /// are byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if the two segments disagree on the vertex count.
    pub fn diff(&self, prev: &NetMultiset) -> SegmentDelta {
        assert_eq!(
            self.n, prev.n,
            "cannot diff segments over different vertex counts"
        );
        let mut delta = SegmentDelta::default();
        let (mut i, mut j) = (0, 0);
        while i < prev.entries.len() && j < self.entries.len() {
            let (p, c) = (prev.entries[i], self.entries[j]);
            match p.edge.cmp(&c.edge) {
                std::cmp::Ordering::Less => {
                    delta.removed.push(p);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    delta.added.push(c);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if p.multiplicity != c.multiplicity || p.weight.to_bits() != c.weight.to_bits()
                    {
                        delta.reweighted.push((p, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        delta.removed.extend_from_slice(&prev.entries[i..]);
        delta.added.extend_from_slice(&self.entries[j..]);
        delta
    }

    /// Applies a [`SegmentDelta`] produced by [`diff`](NetMultiset::diff)
    /// to `self` (the `prev` segment), reconstructing `cur` exactly:
    /// `prev.apply_delta(&cur.diff(&prev)) == cur`. One merge-scan,
    /// O(|self| + changes).
    ///
    /// # Panics
    ///
    /// Panics if the delta does not match this segment (a removed or
    /// reweighted pair that is not live, or an added pair that is).
    pub fn apply_delta(&self, delta: &SegmentDelta) -> NetMultiset {
        let mut out = Vec::with_capacity(
            (self.entries.len() + delta.added.len()).saturating_sub(delta.removed.len()),
        );
        let (mut add, mut rem, mut rew) = (0, 0, 0);
        for &e in &self.entries {
            while add < delta.added.len() && delta.added[add].edge < e.edge {
                out.push(delta.added[add]);
                add += 1;
            }
            assert!(
                add >= delta.added.len() || delta.added[add].edge != e.edge,
                "added pair {} is already live",
                e.edge
            );
            if rem < delta.removed.len() && delta.removed[rem].edge == e.edge {
                rem += 1;
                continue;
            }
            if rew < delta.reweighted.len() && delta.reweighted[rew].0.edge == e.edge {
                out.push(delta.reweighted[rew].1);
                rew += 1;
                continue;
            }
            out.push(e);
        }
        out.extend_from_slice(&delta.added[add..]);
        assert!(
            rem == delta.removed.len() && rew == delta.reweighted.len(),
            "delta references pairs not live in this segment"
        );
        Self::from_sorted_entries(self.n, out)
    }

    /// The net multiset of an update sequence. Pairs whose insertions and
    /// deletions cancel vanish; the tracked weight is the last weight an
    /// update carried for the pair (well defined in the model, where a
    /// deletion repeats its insertion's weight).
    ///
    /// # Panics
    ///
    /// Panics if some pair's net multiplicity is negative — such a
    /// sequence is outside the dynamic-stream model.
    pub fn from_updates<'a, I>(n: usize, updates: I) -> Self
    where
        I: IntoIterator<Item = &'a StreamUpdate>,
    {
        let mut net: HashMap<Edge, (i64, f64)> = HashMap::new();
        for up in updates {
            let entry = net.entry(up.edge).or_insert((0, up.weight));
            entry.0 += up.delta as i64;
            entry.1 = up.weight;
        }
        let entries = net
            .into_iter()
            .map(|(edge, (m, weight))| {
                assert!(m >= 0, "negative net multiplicity for {edge}");
                (edge, m, weight)
            })
            .filter(|&(_, m, _)| m > 0)
            .map(|(edge, m, weight)| NetEdge {
                edge,
                weight,
                multiplicity: m as u32,
            })
            .collect();
        Self::from_entries(n, entries)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of distinct live pairs.
    pub fn num_edges(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pair is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of multiplicities (the minimum update count any stream with
    /// this net effect must contain).
    pub fn total_multiplicity(&self) -> u64 {
        self.entries.iter().map(|e| e.multiplicity as u64).sum()
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[NetEdge] {
        &self.entries
    }

    /// The live graph (every pair with positive multiplicity).
    pub fn final_graph(&self) -> Graph {
        Graph::from_edges(self.n, self.entries.iter().map(|e| e.edge))
    }

    /// The live weighted graph.
    pub fn final_weighted_graph(&self) -> WeightedGraph {
        WeightedGraph::from_edges(self.n, self.entries.iter().map(|e| (e.edge, e.weight)))
    }

    /// Merges multisets over *disjoint* pair sets (e.g. the sealed
    /// per-shard segments of an edge-partitioned engine, where routing by
    /// edge identity guarantees disjointness) into one canonical
    /// multiset. Each part is already sorted, so a k-way merge produces
    /// the canonical order directly — O(total · k) with no re-sort and no
    /// re-validation of entries the parts already validated (each part
    /// held the canonical invariant when it was sealed; the k-way merge
    /// preserves it, checked under `debug_assertions` in
    /// [`from_sorted_entries`](NetMultiset::from_sorted_entries)).
    ///
    /// # Panics
    ///
    /// Panics if a part disagrees on the vertex count or if the same pair
    /// appears in two parts — both are caller bugs (the parts were not a
    /// partition).
    pub fn merge_disjoint<'a, I>(n: usize, parts: I) -> Self
    where
        I: IntoIterator<Item = &'a NetMultiset>,
    {
        let parts: Vec<&NetMultiset> = parts.into_iter().collect();
        for part in &parts {
            assert_eq!(
                part.num_vertices(),
                n,
                "vertex count mismatch in disjoint merge"
            );
        }
        let total: usize = parts.iter().map(|p| p.entries.len()).sum();
        let mut entries = Vec::with_capacity(total);
        let mut heads = vec![0usize; parts.len()];
        loop {
            // Shard counts are small, so scanning the k heads per step
            // beats a heap's constant factor.
            let mut next: Option<(usize, Edge)> = None;
            for (i, part) in parts.iter().enumerate() {
                if let Some(e) = part.entries.get(heads[i]) {
                    let better = match next {
                        None => true,
                        Some((_, best)) => e.edge < best,
                    };
                    if better {
                        next = Some((i, e.edge));
                    }
                }
            }
            let Some((i, _)) = next else { break };
            let e = parts[i].entries[heads[i]];
            heads[i] += 1;
            // One compare per entry is the whole disjointness check.
            if let Some(last) = entries.last() {
                let last: &NetEdge = last;
                assert!(last.edge < e.edge, "duplicate pair {} across parts", e.edge);
            }
            entries.push(e);
        }
        Self::from_sorted_entries(n, entries)
    }

    /// An insertion-only stream with this net effect (one `+1` update per
    /// unit of multiplicity, in canonical order) — the bridge back to
    /// stream-shaped APIs for callers that still need one.
    pub fn to_stream(&self) -> GraphStream {
        let mut updates = Vec::with_capacity(self.total_multiplicity() as usize);
        self.for_each_net_edge(&mut |e| {
            for _ in 0..e.multiplicity {
                updates.push(StreamUpdate {
                    edge: e.edge,
                    delta: 1,
                    weight: e.weight,
                });
            }
        });
        GraphStream::new(self.n, updates)
    }
}

impl EdgeMultiset for NetMultiset {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn for_each_net_edge(&self, f: &mut dyn FnMut(NetEdge)) {
        for e in &self.entries {
            f(*e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn net_of_stream_matches_final_graph() {
        let g = gen::erdos_renyi(25, 0.2, 1);
        let s = GraphStream::with_churn(&g, 2.0, 2);
        let net = s.net_multiset();
        assert_eq!(net.final_graph(), g);
        assert!(net.num_edges() < s.len(), "compaction must shrink churn");
        assert!(net.entries().iter().all(|e| e.multiplicity == 1));
    }

    #[test]
    fn net_is_order_free() {
        let g = gen::erdos_renyi(20, 0.3, 3);
        let a = GraphStream::with_churn(&g, 1.0, 4).net_multiset();
        let b = GraphStream::with_churn(&g, 3.0, 5).net_multiset();
        assert_eq!(a, b);
    }

    #[test]
    fn entries_are_sorted_and_canonical() {
        let g = gen::erdos_renyi(20, 0.3, 6);
        let net = GraphStream::insert_only(&g, 7).net_multiset();
        assert!(net.entries().windows(2).all(|w| w[0].edge < w[1].edge));
        assert_eq!(net.total_multiplicity(), g.num_edges() as u64);
    }

    #[test]
    fn multiplicities_above_one_survive() {
        let ups = vec![
            StreamUpdate::insert(0, 1),
            StreamUpdate::insert(0, 1),
            StreamUpdate::insert(1, 2),
            StreamUpdate::delete(1, 2),
        ];
        let net = NetMultiset::from_updates(4, &ups);
        assert_eq!(net.num_edges(), 1);
        assert_eq!(net.entries()[0].multiplicity, 2);
        let back = net.to_stream();
        assert_eq!(back.len(), 2);
        assert_eq!(back.net_multiset(), net);
    }

    #[test]
    #[should_panic(expected = "negative net multiplicity")]
    fn negative_net_rejected() {
        NetMultiset::from_updates(3, &[StreamUpdate::delete(0, 1)]);
    }

    #[test]
    fn weighted_net_keeps_weights() {
        let g = gen::with_random_weights(&gen::cycle(12), 1.0, 4.0, 8);
        let s = GraphStream::weighted_with_churn(&g, 1.0, 9);
        assert_eq!(s.net_multiset().final_weighted_graph(), g);
    }

    fn entry(u: u32, v: u32, mult: u32, weight: f64) -> NetEdge {
        NetEdge {
            edge: Edge::new(u, v),
            weight,
            multiplicity: mult,
        }
    }

    #[test]
    fn diff_buckets_added_removed_reweighted() {
        let prev = NetMultiset::from_entries(
            6,
            vec![
                entry(0, 1, 1, 1.0),
                entry(1, 2, 2, 1.0),
                entry(2, 3, 1, 2.0),
            ],
        );
        let cur = NetMultiset::from_entries(
            6,
            vec![
                entry(0, 1, 1, 1.0),
                entry(1, 2, 3, 1.0),
                entry(4, 5, 1, 1.0),
            ],
        );
        let d = cur.diff(&prev);
        assert_eq!(d.added, vec![entry(4, 5, 1, 1.0)]);
        assert_eq!(d.removed, vec![entry(2, 3, 1, 2.0)]);
        assert_eq!(
            d.reweighted,
            vec![(entry(1, 2, 2, 1.0), entry(1, 2, 3, 1.0))]
        );
        assert_eq!(d.num_changes(), 3);
        assert_eq!(prev.apply_delta(&d), cur);

        // The multiplicity-delta view: +1 for the add, -1 for the remove,
        // +1 for the reweight; the unchanged pair never appears.
        let mut seen = Vec::new();
        d.for_each_multiplicity_delta(&mut |e, dm, w| seen.push((e, dm, w)));
        assert_eq!(
            seen,
            vec![
                (Edge::new(4, 5), 1, 1.0),
                (Edge::new(2, 3), -1, 2.0),
                (Edge::new(1, 2), 1, 1.0),
            ]
        );
    }

    #[test]
    fn diff_of_identical_segments_is_empty() {
        let g = gen::erdos_renyi(20, 0.3, 11);
        let net = GraphStream::with_churn(&g, 1.0, 12).net_multiset();
        let d = net.diff(&net.clone());
        assert!(d.is_empty());
        assert_eq!(d.num_changes(), 0);
        assert_eq!(net.apply_delta(&d), net);
    }

    #[test]
    fn pure_weight_change_diffs_but_yields_no_multiplicity_delta() {
        let prev = NetMultiset::from_entries(4, vec![entry(0, 1, 2, 1.0)]);
        let cur = NetMultiset::from_entries(4, vec![entry(0, 1, 2, 3.5)]);
        let d = cur.diff(&prev);
        assert_eq!(d.num_changes(), 1);
        let mut calls = 0;
        d.for_each_multiplicity_delta(&mut |_, _, _| calls += 1);
        assert_eq!(calls, 0, "same multiplicity means no sketch update");
        assert_eq!(prev.apply_delta(&d), cur);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn mismatched_delta_is_rejected() {
        let prev = NetMultiset::from_entries(4, vec![entry(0, 1, 1, 1.0)]);
        let other = NetMultiset::from_entries(4, vec![entry(2, 3, 1, 1.0)]);
        let cur = NetMultiset::from_entries(4, vec![entry(0, 2, 1, 1.0)]);
        let _ = other.apply_delta(&cur.diff(&prev));
    }

    #[test]
    fn merge_disjoint_is_a_kway_merge() {
        let a = NetMultiset::from_entries(8, vec![entry(0, 1, 1, 1.0), entry(3, 4, 2, 1.0)]);
        let b = NetMultiset::from_entries(8, vec![entry(0, 2, 1, 1.0), entry(5, 6, 1, 1.0)]);
        let c = NetMultiset::from_entries(8, vec![entry(1, 2, 1, 1.0)]);
        let merged = NetMultiset::merge_disjoint(8, [&a, &b, &c]);
        assert!(merged.entries().windows(2).all(|w| w[0].edge < w[1].edge));
        assert_eq!(merged.num_edges(), 5);
        assert_eq!(merged.total_multiplicity(), 6);
    }

    #[test]
    #[should_panic(expected = "duplicate pair")]
    fn overlapping_parts_are_rejected() {
        let a = NetMultiset::from_entries(4, vec![entry(0, 1, 1, 1.0)]);
        let b = NetMultiset::from_entries(4, vec![entry(0, 1, 1, 1.0)]);
        let _ = NetMultiset::merge_disjoint(4, [&a, &b]);
    }
}
