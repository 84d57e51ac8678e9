//! The two-pass streaming `2^k`-spanner (Theorem 1; Algorithms 1 and 2).
//!
//! **Pass 1 (Algorithm 1)** maintains, for every vertex `u`, level
//! `r ∈ [0, k-1]` and edge-sampling level `j ∈ [0, log2 n^2]`, the sketch
//! `S^{r,j}(u) = SKETCH_{O(log n)}(({u} × C_r) ∩ E ∩ E_j)`. The sketch
//! randomness is a function of `(r, j)` only (a [`RecoveryFamily`] per
//! pair), so after the pass the algorithm can form, for any tree `T_u`,
//! `Q^{i+1}_j(u) = Σ_{v ∈ T_u} S^{i+1,j}(v)` — by linearity a sketch of
//! `(T_u × C_{i+1}) ∩ E ∩ E_j` — and scan `j` from sparsest to densest
//! until a nonempty decode yields a parent and a witness edge.
//!
//! **Pass 2 (Algorithm 2)** stores, for every terminal copy `u` at level
//! `i` and vertex-sampling level `j ∈ [0, log2 n]`, a linear hash table
//! `H^u_j` with `~O(n^{(i+1)/k})` cells whose entry at key `v ∉ T_u` is a
//! small sketch of `N(v) ∩ T_u ∩ Y_j` (here: a [`OneSparseCell`]). After
//! the pass, each terminal recovers one edge to every outside neighbor of
//! its cluster; together with the pass-1 witness edges this is the spanner.
//!
//! The implementation also realizes Claims 16/18/20: every edge recovered
//! from any successfully decoded sketch is reported in
//! [`TwoPassOutput::observed_edges`] (`Ω(R)`), which is what Algorithm 5 of
//! the sparsification pipeline consumes.

use crate::cluster::{ClusterForest, NodeId};
use crate::params::SpannerParams;
use dsg_graph::stream::StreamUpdate;
use dsg_graph::{index_to_pair, Edge, Graph, StreamAlgorithm, Vertex};
use dsg_hash::{KWiseHash, SeedTree, SubsetSampler};
use dsg_sketch::onesparse::OneSparseCell;
use dsg_sketch::ssparse::{RecoveryFamily, RecoveryState};
use dsg_sketch::LinearHashTable;
use dsg_util::SpaceUsage;
use std::collections::{HashMap, HashSet};

/// Execution statistics of a two-pass run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TwoPassStats {
    /// Measured sketch bytes of pass 1: the shared randomness plus the
    /// `S^{r,j}(u)` recovery states.
    pub pass1_bytes: usize,
    /// Measured sketch bytes of pass 2: the shared randomness plus the
    /// `H^u_j` tables.
    pub pass2_bytes: usize,
    /// Pass-1 `Q` decodes that failed (whp events).
    pub sketch_decode_failures: usize,
    /// Pass-2 table decodes that failed (whp events).
    pub table_decode_failures: usize,
    /// Pass-2 inner neighborhood-cell decodes that failed.
    pub inner_decode_failures: usize,
    /// Number of terminal copies after pass 1.
    pub num_terminals: usize,
}

/// The result of a completed two-pass run.
#[derive(Debug, Clone)]
pub struct TwoPassOutput {
    /// The spanner `H = (V, E')`.
    pub spanner: Graph,
    /// The cluster forest constructed in pass 1.
    pub forest: ClusterForest,
    /// `Ω(R)`: every edge recovered from a successfully decoded sketch
    /// during execution (Claims 16/18/20) — a superset of the spanner
    /// edges, consumed by the sparsifier's sampling analysis.
    pub observed_edges: Vec<Edge>,
    /// Execution statistics.
    pub stats: TwoPassStats,
}

/// The two-pass streaming spanner algorithm. [`build`](Self::build) runs
/// both passes over a net edge multiset; it also implements
/// [`StreamAlgorithm`], so [`dsg_graph::pass::run`] drives it over a raw
/// stream.
#[derive(Debug, Clone)]
pub struct TwoPassSpanner {
    n: usize,
    params: SpannerParams,
    k: usize,
    edge_levels: usize,
    vertex_levels: usize,
    /// `E_j` samplers over edge coordinates.
    edge_samplers: Vec<SubsetSampler>,
    /// `Y_j` samplers over vertices.
    vertex_samplers: Vec<SubsetSampler>,
    /// `sketch_families[r][j]` — shared randomness of `S^{r,j}(·)`.
    sketch_families: Vec<Vec<RecoveryFamily>>,
    /// Fingerprint hash of the inner neighborhood cells, per `j`.
    inner_hashes: Vec<KWiseHash>,
    /// Pass-1 states `S^{r,j}(u)`, allocated lazily.
    s_states: HashMap<(Vertex, u8, u8), RecoveryState>,
    /// The forest (centers fixed at construction; edges added after pass 1).
    forest: Option<ClusterForest>,
    /// Terminal copies in index order (fixed after pass 1).
    terminals: Vec<NodeId>,
    /// Chain-class index of each vertex (into `terminals`).
    class_of: Vec<usize>,
    /// Pass-2 tables `H^{terminal}_j`, indexed `[terminal][j]`.
    tables: Vec<Vec<LinearHashTable>>,
    /// All edges recovered from decoded sketches (`Ω(R)`).
    observed: HashSet<Edge>,
    current_pass: usize,
    stats: TwoPassStats,
    output: Option<TwoPassOutput>,
}

impl TwoPassSpanner {
    /// Creates the algorithm for graphs on `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize, params: SpannerParams) -> Self {
        assert!(n >= 2, "need at least two vertices");
        let k = params.k;
        let edge_levels = params.edge_levels(n);
        let vertex_levels = params.vertex_levels(n);
        let budget = params.resolved_sketch_budget(n);
        let tree = SeedTree::new(params.seed ^ 0x5350_414E_3250_4153); // "SPAN2PAS"
        let edge_samplers = (0..edge_levels)
            .map(|j| SubsetSampler::at_rate_pow2(tree.child(1).child(j as u64).seed(), j as u32))
            .collect();
        let vertex_samplers = (0..vertex_levels)
            .map(|j| SubsetSampler::at_rate_pow2(tree.child(2).child(j as u64).seed(), j as u32))
            .collect();
        let sketch_families = (0..k)
            .map(|r| {
                (0..edge_levels)
                    .map(|j| {
                        RecoveryFamily::new(
                            budget,
                            tree.child(3).child(r as u64).child(j as u64).seed(),
                        )
                    })
                    .collect()
            })
            .collect();
        let inner_hashes = (0..vertex_levels)
            .map(|j| KWiseHash::new(3, tree.child(4).child(j as u64).seed()))
            .collect();
        let forest = ClusterForest::new(n, k, params.seed);
        Self {
            n,
            params,
            k,
            edge_levels,
            vertex_levels,
            edge_samplers,
            vertex_samplers,
            sketch_families,
            inner_hashes,
            s_states: HashMap::new(),
            forest: Some(forest),
            terminals: Vec::new(),
            class_of: Vec::new(),
            tables: Vec::new(),
            observed: HashSet::new(),
            current_pass: 0,
            stats: TwoPassStats::default(),
            output: None,
        }
    }

    /// Runs both passes over the **net edge multiset** `view` and returns
    /// the finished instance; its output is in [`output`](Self::output).
    ///
    /// Each pass costs O(current edges) rather than O(stream length), and
    /// the output is bit-identical to [`dsg_graph::pass::run`] over any
    /// raw stream with the same net effect: within a pass the algorithm's
    /// stream-facing state is linear in the updates, and everything
    /// between passes is a deterministic function of that state, so only
    /// the net multiset can be observed.
    ///
    /// # Examples
    ///
    /// ```
    /// use dsg_graph::{gen, pass, GraphStream};
    /// use dsg_spanner::{SpannerParams, TwoPassSpanner};
    ///
    /// let g = gen::erdos_renyi(50, 0.2, 1);
    /// let stream = GraphStream::with_churn(&g, 2.0, 2);
    /// let params = SpannerParams::new(2, 3);
    /// let built = TwoPassSpanner::build(&stream.net_multiset(), params);
    /// let mut replayed = TwoPassSpanner::new(50, params);
    /// pass::run(&mut replayed, &stream);
    /// let (a, b) = (built.output().unwrap(), replayed.output().unwrap());
    /// assert_eq!(a.spanner.edges(), b.spanner.edges());
    /// assert!(a.spanner.num_edges() > 0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `view` has fewer than two vertices.
    pub fn build<M>(view: &M, params: SpannerParams) -> Self
    where
        M: dsg_graph::EdgeMultiset + ?Sized,
    {
        let mut alg = Self::new(view.num_vertices(), params);
        dsg_graph::pass::run_multiset(&mut alg, view);
        alg
    }

    /// The construction parameters.
    pub fn params(&self) -> &SpannerParams {
        &self.params
    }

    /// The pass currently being processed (0-indexed).
    pub fn current_pass(&self) -> usize {
        self.current_pass
    }

    /// Consumes the algorithm, returning the output if both passes ran.
    pub fn into_output(self) -> Option<TwoPassOutput> {
        self.output
    }

    /// Borrows the output if both passes ran.
    pub fn output(&self) -> Option<&TwoPassOutput> {
        self.output.as_ref()
    }

    fn process_pass1(&mut self, up: &StreamUpdate) {
        let delta = up.delta as i128;
        let coord = up.edge.index(self.n);
        // Which E_j contain this coordinate (independent per level).
        let js: Vec<u8> = (0..self.edge_levels)
            .filter(|&j| self.edge_samplers[j].contains(coord))
            .map(|j| j as u8)
            .collect();
        if js.is_empty() {
            return;
        }
        let forest = self.forest.as_ref().expect("pass 1 forest present");
        let (eu, ev) = up.edge.endpoints();
        for (a, b) in [(eu, ev), (ev, eu)] {
            for r in 0..self.k {
                if !forest.is_center(r, b) {
                    continue;
                }
                for &j in &js {
                    let family = &self.sketch_families[r][j as usize];
                    let state = self
                        .s_states
                        .entry((a, r as u8, j))
                        .or_insert_with(|| family.new_state());
                    family.update(state, coord, delta);
                    if state.is_zero() {
                        self.s_states.remove(&(a, r as u8, j));
                    }
                }
            }
        }
    }

    /// Algorithm 1, lines 8–20: builds the forest from the pass-1 sketches.
    fn build_clusters(&mut self) {
        let mut forest = self.forest.take().expect("pass-1 forest present");
        for i in 0..self.k {
            let centers: Vec<Vertex> = forest.centers_at(i).collect();
            for u in centers {
                let node = NodeId::new(i, u);
                if i == self.k - 1 {
                    forest.set_terminal(node);
                    continue;
                }
                let members = forest.members(node);
                let r = (i + 1) as u8;
                let mut attached = false;
                for j in (0..self.edge_levels).rev() {
                    let family = &self.sketch_families[r as usize][j];
                    let mut q = family.new_state();
                    for &v in &members {
                        if let Some(st) = self.s_states.get(&(v, r, j as u8)) {
                            q.merge(st);
                        }
                    }
                    match family.decode(&q) {
                        Ok(items) if !items.is_empty() => {
                            for &(c, _) in &items {
                                let (x, y) = index_to_pair(c, self.n);
                                self.observed.insert(Edge::new(x, y));
                            }
                            let (c, _) = items[0];
                            let (x, y) = index_to_pair(c, self.n);
                            // The parent is an endpoint in C_{i+1}.
                            let w = if forest.is_center(i + 1, y) { y } else { x };
                            debug_assert!(forest.is_center(i + 1, w));
                            forest.set_parent(node, w, Edge::new(x, y));
                            attached = true;
                            break;
                        }
                        Ok(_) => {} // decodable but empty: keep descending
                        Err(_) => self.stats.sketch_decode_failures += 1,
                    }
                }
                if !attached {
                    forest.set_terminal(node);
                }
            }
        }
        // Fix the terminal order and chain classes for pass 2.
        self.terminals = forest.terminals();
        let index: HashMap<NodeId, usize> = self
            .terminals
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i))
            .collect();
        self.class_of = (0..self.n as Vertex)
            .map(|v| {
                let t = forest.chain_terminal(v).expect("complete forest");
                index[&t]
            })
            .collect();
        self.stats.num_terminals = self.terminals.len();
        self.forest = Some(forest);
        // Nothing reads the pass-1 sketches once the forest is built, so
        // pass 2 does not hold them too.
        self.s_states = HashMap::new();
    }

    /// The pass-2 tables `H^t_j` of one terminal, seeded by the
    /// terminal's *identity* `(level, root)` — not by its index in the
    /// terminal list — so the same terminal draws the same randomness in
    /// every segment the terminal appears in.
    fn fresh_terminal_tables(&self, t: NodeId) -> Vec<LinearHashTable> {
        let tree = SeedTree::new(self.params.seed ^ 0x5441_424C_4553_3253); // "TABLES2S"
        let key = (u64::from(t.level) << 32) | u64::from(t.root);
        let capacity = self.params.table_capacity(self.n, t.level as usize);
        (0..self.vertex_levels)
            .map(|j| LinearHashTable::new(capacity, 3, tree.child(key).child(j as u64).seed()))
            .collect()
    }

    fn setup_tables(&mut self) {
        let tables = self
            .terminals
            .iter()
            .map(|&t| self.fresh_terminal_tables(t))
            .collect();
        self.tables = tables;
    }

    fn process_pass2(&mut self, up: &StreamUpdate) {
        let delta = up.delta as i128;
        let (eu, ev) = up.edge.endpoints();
        let (ta, tb) = (self.class_of[eu as usize], self.class_of[ev as usize]);
        if ta == tb {
            return; // both endpoints in the same terminal cluster
        }
        for (inside, outside, t) in [(eu, ev, ta), (ev, eu, tb)] {
            for j in 0..self.vertex_levels {
                if self.vertex_samplers[j].contains(inside as u64) {
                    let mut cell = OneSparseCell::new();
                    cell.update(inside as u64, delta, &self.inner_hashes[j]);
                    self.tables[t][j].update(outside as u64, &cell.to_words());
                }
            }
        }
    }

    /// Algorithm 2, lines 19–33: assembles the spanner.
    fn build_spanner(&mut self) {
        let forest = self.forest.take().expect("forest present");
        let mut edges: HashSet<Edge> = forest.witness_edges().into_iter().collect();
        for ti in 0..self.terminals.len() {
            // Decode all tables of this terminal, sparsest level first.
            let decoded: Vec<Option<HashMap<u64, [i128; 3]>>> = (0..self.vertex_levels)
                .map(|j| match self.tables[ti][j].decode() {
                    Ok(entries) => Some(
                        entries
                            .into_iter()
                            .map(|(key, p)| (key, [p[0], p[1], p[2]]))
                            .collect(),
                    ),
                    Err(_) => {
                        self.stats.table_decode_failures += 1;
                        None
                    }
                })
                .collect();
            // Union of keys across decodable levels.
            let mut keys: HashSet<u64> = HashSet::new();
            for d in decoded.iter().flatten() {
                keys.extend(d.keys().copied());
            }
            for &v in &keys {
                for j in (0..self.vertex_levels).rev() {
                    let Some(table) = &decoded[j] else { continue };
                    let Some(words) = table.get(&v) else { continue };
                    let Ok(cell) = OneSparseCell::from_words(words) else {
                        self.stats.inner_decode_failures += 1;
                        continue;
                    };
                    match cell.decode(&self.inner_hashes[j]) {
                        Ok(Some((w, _))) if w != v && w < self.n as u64 => {
                            let e = Edge::new(w as Vertex, v as Vertex);
                            edges.insert(e);
                            self.observed.insert(e);
                            break;
                        }
                        Ok(Some(_)) => self.stats.inner_decode_failures += 1,
                        Ok(None) => {} // empty at this level: descend
                        Err(_) => self.stats.inner_decode_failures += 1,
                    }
                }
            }
        }
        let spanner = Graph::from_edges(self.n, edges);
        let mut observed: Vec<Edge> = self.observed.iter().copied().collect();
        observed.sort_unstable();
        self.output = Some(TwoPassOutput {
            spanner,
            forest,
            observed_edges: observed,
            stats: self.stats.clone(),
        });
    }

    /// Bytes of the shared randomness: samplers, sketch families and the
    /// inner-cell hashes.
    fn randomness_bytes(&self) -> usize {
        let samplers: usize = self.edge_samplers.space_bytes() + self.vertex_samplers.space_bytes();
        let families: usize = self
            .sketch_families
            .iter()
            .map(|row| row.iter().map(SpaceUsage::space_bytes).sum::<usize>())
            .sum();
        let inner: usize = self.inner_hashes.iter().map(SpaceUsage::space_bytes).sum();
        samplers + families + inner
    }

    fn states_bytes(&self) -> usize {
        self.s_states
            .values()
            .map(SpaceUsage::space_bytes)
            .sum::<usize>()
            + self.s_states.len() * 8
    }

    fn tables_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(|row| row.iter().map(SpaceUsage::space_bytes).sum::<usize>())
            .sum()
    }
}

impl StreamAlgorithm for TwoPassSpanner {
    fn num_passes(&self) -> usize {
        2
    }

    fn begin_pass(&mut self, pass: usize) {
        self.current_pass = pass;
        if pass == 1 {
            assert!(
                !self.terminals.is_empty() || self.n == 0,
                "pass 2 requires the pass-1 forest"
            );
            self.setup_tables();
        }
    }

    fn process(&mut self, update: &StreamUpdate) {
        match self.current_pass {
            0 => self.process_pass1(update),
            1 => self.process_pass2(update),
            _ => unreachable!("two-pass algorithm"),
        }
    }

    fn end_pass(&mut self, pass: usize) {
        // Each pass holds only its own state (pass-2 tables are set up
        // after pass 1, pass-1 sketches freed before pass 2), so these
        // are the per-pass figures Theorem 1 bounds.
        if pass == 0 {
            self.stats.pass1_bytes = self.space_bytes();
            self.build_clusters();
        } else {
            self.stats.pass2_bytes = self.space_bytes();
            self.build_spanner();
        }
    }
}

impl SpaceUsage for TwoPassSpanner {
    /// Everything the instance holds: the randomness and both passes'
    /// state.
    fn space_bytes(&self) -> usize {
        self.randomness_bytes() + self.states_bytes() + self.tables_bytes()
    }
}

/// The worst-case space bound of Theorem 1 in bytes, for context in
/// experiment tables: `~O(k · n^{1+1/k} · log^3 n)` words.
pub fn theorem1_space_bound_bytes(n: usize, k: usize) -> f64 {
    let nf = n as f64;
    let logn = nf.log2().max(1.0);
    8.0 * k as f64 * nf.powf(1.0 + 1.0 / k as f64) * logn * logn * logn
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use dsg_graph::{gen, GraphStream};

    /// The raw-stream reference: both passes replayed update by update.
    fn replay(stream: &GraphStream, params: SpannerParams) -> TwoPassOutput {
        let mut alg = TwoPassSpanner::new(stream.num_vertices(), params);
        dsg_graph::pass::run(&mut alg, stream);
        alg.into_output().expect("both passes ran")
    }

    fn built<M: dsg_graph::EdgeMultiset>(view: &M, params: SpannerParams) -> TwoPassOutput {
        TwoPassSpanner::build(view, params)
            .into_output()
            .expect("both passes ran")
    }

    fn spanner_for(g: &Graph, k: usize, seed: u64) -> TwoPassOutput {
        let stream = GraphStream::with_churn(g, 1.0, seed ^ 0xABCD);
        replay(&stream, SpannerParams::new(k, seed))
    }

    #[test]
    fn spanner_is_subgraph() {
        let g = gen::erdos_renyi(60, 0.15, 1);
        let out = spanner_for(&g, 2, 2);
        assert!(
            verify::is_subgraph(&g, &out.spanner),
            "spanner contains non-edges"
        );
    }

    #[test]
    fn stretch_within_2_to_k() {
        for (k, seed) in [(1usize, 3u64), (2, 4), (3, 5)] {
            let g = gen::erdos_renyi(60, 0.15, seed);
            let out = spanner_for(&g, k, seed);
            let stretch = verify::max_multiplicative_stretch(&g, &out.spanner, 60);
            assert!(
                stretch <= (1u64 << k) as f64,
                "k={k}: stretch {stretch} (failures: {:?})",
                out.stats
            );
        }
    }

    #[test]
    fn preserves_connectivity_under_churn() {
        let g = gen::erdos_renyi(70, 0.1, 6);
        let stream = GraphStream::with_churn(&g, 2.0, 7);
        let out = replay(&stream, SpannerParams::new(2, 8));
        assert_eq!(
            dsg_graph::components::num_components(&g),
            dsg_graph::components::num_components(&out.spanner),
        );
    }

    #[test]
    fn deletions_fully_respected() {
        // Deleted edges must never appear in the spanner.
        let g = gen::erdos_renyi(50, 0.2, 9);
        let stream = GraphStream::with_churn(&g, 3.0, 10);
        let out = replay(&stream, SpannerParams::new(2, 11));
        assert!(verify::is_subgraph(&g, &out.spanner));
    }

    #[test]
    fn net_rebuild_matches_stream_replay() {
        // The compaction correctness ground: rebuilding both passes from
        // the net edge multiset is bit-identical to replaying the raw
        // churn stream — spanner edges, observed edges, forest shape.
        for seed in [31u64, 32, 33] {
            let g = gen::erdos_renyi(40, 0.2, seed);
            let stream = GraphStream::with_churn(&g, 2.0, seed ^ 0x9E37);
            let params = SpannerParams::new(2, seed);
            let raw = replay(&stream, params);
            let net = built(&stream.net_multiset(), params);
            assert_eq!(raw.spanner.edges(), net.spanner.edges(), "seed {seed}");
            assert_eq!(raw.observed_edges, net.observed_edges, "seed {seed}");
            assert_eq!(
                raw.forest.witness_edges(),
                net.forest.witness_edges(),
                "seed {seed}"
            );
            assert_eq!(raw.stats.num_terminals, net.stats.num_terminals);
        }
    }

    #[test]
    fn observed_superset_of_spanner() {
        let g = gen::erdos_renyi(40, 0.2, 12);
        let out = spanner_for(&g, 2, 13);
        let observed: HashSet<Edge> = out.observed_edges.iter().copied().collect();
        for e in out.spanner.edges() {
            assert!(observed.contains(e), "spanner edge {e} not observed");
        }
        // Observed edges must be real edges.
        let real = g.edge_set();
        for e in &out.observed_edges {
            assert!(real.contains(e), "observed non-edge {e}");
        }
    }

    #[test]
    fn size_obeys_lemma12() {
        let n = 120;
        let g = gen::erdos_renyi(n, 0.5, 14);
        let out = spanner_for(&g, 2, 15);
        let bound = 8.0 * 2.0 * (n as f64).powf(1.5) * (n as f64).log2();
        assert!(
            (out.spanner.num_edges() as f64) < bound,
            "size {} exceeds bound {bound}",
            out.spanner.num_edges()
        );
    }

    #[test]
    fn matches_offline_stretch_quality() {
        // Streaming and offline use the same center sets; both must deliver
        // ≤ 2^k stretch on the same input.
        let g = gen::erdos_renyi(50, 0.2, 16);
        let params = SpannerParams::new(2, 17);
        let off = crate::offline::build_spanner(&g, params);
        let out = spanner_for(&g, 2, 17);
        let s_off = verify::max_multiplicative_stretch(&g, &off.spanner, 50);
        let s_str = verify::max_multiplicative_stretch(&g, &out.spanner, 50);
        assert!(
            s_off <= 4.0 && s_str <= 4.0,
            "offline {s_off}, streaming {s_str}"
        );
    }

    #[test]
    fn stats_populated() {
        let g = gen::erdos_renyi(40, 0.2, 18);
        let out = spanner_for(&g, 2, 19);
        assert!(out.stats.pass1_bytes > 0);
        assert!(out.stats.pass2_bytes > 0);
        assert!(out.stats.num_terminals > 0);
    }

    #[test]
    fn empty_graph_stream() {
        let stream = GraphStream::new(10, vec![]);
        let out = replay(&stream, SpannerParams::new(2, 20));
        assert_eq!(out.spanner.num_edges(), 0);
    }

    #[test]
    fn star_graph_exact() {
        // A star has diameter 2; the spanner must keep it ≤ 2·2^k but in
        // fact the star is its own best spanner.
        let g = gen::star(30);
        let out = spanner_for(&g, 2, 21);
        let stretch = verify::max_multiplicative_stretch(&g, &out.spanner, 30);
        assert!(stretch <= 4.0);
        assert_eq!(dsg_graph::components::num_components(&out.spanner), 1);
    }

    #[test]
    fn disconnected_graph_handled() {
        // Two components; spanner must not bridge them.
        let mut edges = Vec::new();
        for u in 0..10u32 {
            for v in (u + 1)..10 {
                edges.push(Edge::new(u, v));
                edges.push(Edge::new(u + 10, v + 10));
            }
        }
        let g = Graph::from_edges(20, edges);
        let out = spanner_for(&g, 2, 22);
        assert_eq!(dsg_graph::components::num_components(&out.spanner), 2);
        assert!(verify::is_subgraph(&g, &out.spanner));
    }

    #[test]
    fn space_grows_slower_than_edges() {
        // On a dense graph the sketch space must be far below storing all
        // edges' worth of structure… we check the measured bytes against
        // the Theorem 1 bound shape.
        let n = 100;
        let g = gen::erdos_renyi(n, 0.8, 23);
        let out = spanner_for(&g, 2, 24);
        let bound = theorem1_space_bound_bytes(n, 2);
        assert!(
            (out.stats.pass1_bytes as f64) < bound,
            "pass1 {}",
            out.stats.pass1_bytes
        );
        assert!(
            (out.stats.pass2_bytes as f64) < bound,
            "pass2 {}",
            out.stats.pass2_bytes
        );
    }

    #[test]
    fn num_pairs_universe_consistency() {
        // Edge coordinates must fit the sketch key universe.
        let n = 1000usize;
        assert!(dsg_graph::ids::num_pairs(n) < 1 << 60);
    }

    #[test]
    fn build_matches_replay_stats() {
        // A build over the net multiset reports the same output and
        // per-pass byte counts as a replay of the raw stream, so the
        // space tables do not depend on which one ran.
        let params = SpannerParams::new(2, 43);
        let g = gen::erdos_renyi(40, 0.2, 41);
        let stream = GraphStream::with_churn(&g, 1.0, 42);
        let raw = replay(&stream, params);
        let net = built(&stream.net_multiset(), params);
        assert_eq!(raw.stats, net.stats);
        assert!(net.stats.pass1_bytes > 0 && net.stats.pass2_bytes > 0);
        assert_eq!(raw.spanner.edges(), net.spanner.edges());
        assert_eq!(raw.observed_edges, net.observed_edges);
    }
}
