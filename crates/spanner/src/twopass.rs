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
use dsg_graph::{index_to_pair, Edge, Graph, SegmentDelta, StreamAlgorithm, Vertex};
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

/// One terminal's decoded contribution to the spanner: the edges its
/// tables recovered (each goes into both the spanner and `Ω(R)`) and the
/// decode failures tallied while recovering them. Cached per terminal
/// identity so a patch can replay the terminals whose tables it left
/// untouched instead of re-decoding them.
#[derive(Debug, Clone, Default)]
struct TerminalDecode {
    edges: Vec<Edge>,
    table_failures: usize,
    inner_failures: usize,
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
/// both passes over a net edge multiset and [`patch`](Self::patch) moves
/// the finished instance to the next segment; it also implements
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
    /// Pass-1 states `S^{r,j}(u)`, allocated lazily. Kept after
    /// `build_clusters`: they are the linear state a
    /// [`patch`](TwoPassSpanner::patch) moves to the next segment.
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
    /// Per-terminal decode results of the last `build_spanner`, keyed
    /// by terminal identity.
    spanner_cache: HashMap<NodeId, TerminalDecode>,
    /// Set by [`patch`](TwoPassSpanner::patch) before `build_spanner`:
    /// indices into `terminals` whose tables changed since the last
    /// decode. `None` (the full-build default) decodes every terminal.
    dirty_tables: Option<HashSet<usize>>,
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
            spanner_cache: HashMap::new(),
            dirty_tables: None,
        }
    }

    /// Runs both passes over the **net edge multiset** `view` and returns
    /// the finished instance: its output is in [`output`](Self::output),
    /// and it holds every pass state (the pass-1 sketches *and* the
    /// pass-2 tables), so it can be [`patch`](Self::patch)ed to the next
    /// segment.
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

    /// Borrows the output if both passes ran (the instance stays alive to
    /// be patched again).
    pub fn output(&self) -> Option<&TwoPassOutput> {
        self.output.as_ref()
    }

    fn process_pass1(&mut self, up: &StreamUpdate) {
        self.pass1_apply(up.edge, up.delta as i128);
    }

    /// One pass-1 sketch update of `edge` with an arbitrary signed
    /// multiplicity `delta` — shared by stream processing (`delta = ±1`)
    /// and segment-delta patching (`delta` up to a full multiplicity).
    /// Every touched state is linear in `delta`, so one call with `delta
    /// = m` is bit-identical to `m` unit calls.
    fn pass1_apply(&mut self, edge: Edge, delta: i128) {
        let coord = edge.index(self.n);
        // Which E_j contain this coordinate (independent per level).
        let js: Vec<u8> = (0..self.edge_levels)
            .filter(|&j| self.edge_samplers[j].contains(coord))
            .map(|j| j as u8)
            .collect();
        if js.is_empty() {
            return;
        }
        let forest = self.forest.as_ref().expect("pass 1 forest present");
        let (eu, ev) = edge.endpoints();
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
    }

    /// The pass-2 tables `H^t_j` of one terminal, seeded by the
    /// terminal's *identity* `(level, root)` — not by its index in the
    /// terminal list — so the same terminal draws the same randomness in
    /// every epoch. That is what lets [`patch`](Self::patch) keep a
    /// persisting terminal's retained table across a terminal-set change.
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
        self.pass2_apply(up.edge, up.delta as i128);
    }

    /// One pass-2 table update of `edge` with an arbitrary signed
    /// multiplicity `delta` (see [`pass1_apply`](Self::pass1_apply) for
    /// why the two are interchangeable with unit updates).
    fn pass2_apply(&mut self, edge: Edge, delta: i128) {
        let (eu, ev) = edge.endpoints();
        let (ta, tb) = (self.class_of[eu as usize], self.class_of[ev as usize]);
        if ta == tb {
            return; // both endpoints in the same terminal cluster
        }
        self.pass2_apply_side(eu, ev, ta, delta);
        self.pass2_apply_side(ev, eu, tb, delta);
    }

    /// One directed half of a pass-2 update: `inside`'s neighborhood
    /// cell, keyed by `outside`, weighted `delta`, into table bank `t`
    /// (an index into `tables`). Split out so [`patch`](Self::patch) can
    /// route a contribution under the *previous* epoch's classes.
    fn pass2_apply_side(&mut self, inside: Vertex, outside: Vertex, t: usize, delta: i128) {
        for j in 0..self.vertex_levels {
            if self.vertex_samplers[j].contains(inside as u64) {
                let mut cell = OneSparseCell::new();
                cell.update(inside as u64, delta, &self.inner_hashes[j]);
                self.tables[t][j].update(outside as u64, &cell.to_words());
            }
        }
    }

    /// Algorithm 2, lines 19–33: assembles the spanner.
    ///
    /// A terminal's contribution is a deterministic function of its
    /// tables alone, so the per-terminal decodes are cached by terminal
    /// identity and replayed for terminals whose tables the preceding
    /// [`patch`](Self::patch) left untouched (`dirty_tables`); a full
    /// build decodes everything.
    fn build_spanner(&mut self) {
        let forest = self.forest.take().expect("forest present");
        let mut edges: HashSet<Edge> = forest.witness_edges().into_iter().collect();
        let dirty = self.dirty_tables.take();
        for ti in 0..self.terminals.len() {
            let t = self.terminals[ti];
            let clean = dirty.as_ref().is_some_and(|d| !d.contains(&ti));
            if clean {
                if let Some(cached) = self.spanner_cache.get(&t) {
                    for &e in &cached.edges {
                        edges.insert(e);
                        self.observed.insert(e);
                    }
                    self.stats.table_decode_failures += cached.table_failures;
                    self.stats.inner_decode_failures += cached.inner_failures;
                    continue;
                }
            }
            let mut dec = TerminalDecode::default();
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
                        dec.table_failures += 1;
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
                        dec.inner_failures += 1;
                        continue;
                    };
                    match cell.decode(&self.inner_hashes[j]) {
                        Ok(Some((w, _))) if w != v && w < self.n as u64 => {
                            let e = Edge::new(w as Vertex, v as Vertex);
                            dec.edges.push(e);
                            break;
                        }
                        Ok(Some(_)) => dec.inner_failures += 1,
                        Ok(None) => {} // empty at this level: descend
                        Err(_) => dec.inner_failures += 1,
                    }
                }
            }
            for &e in &dec.edges {
                edges.insert(e);
                self.observed.insert(e);
            }
            self.stats.table_decode_failures += dec.table_failures;
            self.stats.inner_decode_failures += dec.inner_failures;
            self.spanner_cache.insert(t, dec);
        }
        let live: HashSet<NodeId> = self.terminals.iter().copied().collect();
        self.spanner_cache.retain(|t, _| live.contains(t));
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

    /// Advances a completed run to the segment `cur` in O(changes) ingest
    /// work, returning output **bit-identical** to a from-scratch
    /// [`build`](Self::build) over `cur`, at any churn.
    ///
    /// Why this is exact and not heuristic: every stream-facing state is
    /// a linear function of the net multiset, so applying the per-edge
    /// multiplicity deltas of `delta` to the retained pass-1 states
    /// yields the very states a full ingest of `cur` would produce — and
    /// everything downstream (forest, terminals, spanner) is a
    /// deterministic decode of those states. Pass 2 splits:
    ///
    /// - if the re-derived terminal list and chain classes are unchanged,
    ///   the retained tables are patched with the delta edges alone —
    ///   sound because a terminal's table content depends only on that
    ///   terminal's member set and the net multiset;
    /// - otherwise the retained tables are *repaired* in O(changes +
    ///   deg(moved vertices)): tables are identity-keyed (see
    ///   `fresh_terminal_tables`), so a persisting terminal's table
    ///   stays valid; the delta is applied
    ///   under the old classes, carrying every persisting table to
    ///   `cur`'s content *as routed by the old classes*; then every
    ///   `cur` edge incident to a vertex whose terminal identity changed
    ///   has its old-routed contribution subtracted and its new-routed
    ///   one added. An edge whose endpoints both kept their terminal
    ///   identity routes the same either way (same gate, same target
    ///   identity, same seeds), and every member of a new terminal is by
    ///   definition a moved vertex — so nothing else needs touching.
    ///
    /// `delta` must be `cur.diff(&prev)` for the segment `prev` this
    /// instance currently represents; feeding a mismatched delta silently
    /// moves the states to a segment that is neither.
    ///
    /// # Panics
    ///
    /// Panics if the instance has not completed both passes, or `cur`
    /// disagrees on the vertex count.
    pub fn patch<M>(&mut self, delta: &SegmentDelta, cur: &M) -> &TwoPassOutput
    where
        M: dsg_graph::EdgeMultiset + ?Sized,
    {
        assert!(self.output.is_some(), "patch requires a completed run");
        assert_eq!(cur.num_vertices(), self.n, "vertex count mismatch");

        // Fresh forest first: centers are a function of (n, k, seed)
        // only, and pass-1 patching consults center membership.
        self.forest = Some(ClusterForest::new(self.n, self.k, self.params.seed));
        self.observed.clear();
        self.stats = TwoPassStats::default();

        // Pass 1 in O(changes): move the retained linear states to `cur`.
        let mut ups: Vec<(Edge, i128)> = Vec::new();
        delta.for_each_multiplicity_delta(&mut |e, d, _| ups.push((e, d)));
        for &(e, d) in &ups {
            self.pass1_apply(e, d);
        }
        self.stats.pass1_bytes = self.pass_bytes(0);
        let prev_terminals = std::mem::take(&mut self.terminals);
        let prev_class = std::mem::take(&mut self.class_of);
        self.build_clusters();

        let mut dirty: HashSet<usize> = HashSet::new();
        if self.terminals == prev_terminals && self.class_of == prev_class {
            // Identical terminal structure: the delta edges alone carry
            // the retained tables to `cur`'s tables.
            for &(e, d) in &ups {
                let (eu, ev) = e.endpoints();
                let (ta, tb) = (self.class_of[eu as usize], self.class_of[ev as usize]);
                if ta != tb {
                    dirty.insert(ta);
                    dirty.insert(tb);
                }
                self.pass2_apply(e, d);
            }
        } else {
            // Re-key the retained tables by terminal identity: a
            // persisting terminal keeps its table wherever it lands in
            // the new order; new terminals start from zero.
            let old_index: HashMap<NodeId, usize> = prev_terminals
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, i))
                .collect();
            let new_index: HashMap<NodeId, usize> = self
                .terminals
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, i))
                .collect();
            let new_of_old: Vec<Option<usize>> = prev_terminals
                .iter()
                .map(|t| new_index.get(t).copied())
                .collect();
            let mut old_tables: Vec<Option<Vec<LinearHashTable>>> =
                std::mem::take(&mut self.tables)
                    .into_iter()
                    .map(Some)
                    .collect();
            let mut tables = Vec::with_capacity(self.terminals.len());
            for (ni, t) in self.terminals.iter().enumerate() {
                if let Some(&oi) = old_index.get(t) {
                    tables.push(old_tables[oi].take().expect("terminals are distinct"));
                } else {
                    dirty.insert(ni);
                    tables.push(self.fresh_terminal_tables(*t));
                }
            }
            self.tables = tables;

            // The delta under the OLD routing: persisting tables now
            // hold every `cur` edge's old-routed contribution.
            for &(e, d) in &ups {
                let (eu, ev) = e.endpoints();
                let (oa, ob) = (prev_class[eu as usize], prev_class[ev as usize]);
                if oa == ob {
                    continue;
                }
                for (inside, outside, oc) in [(eu, ev, oa), (ev, eu, ob)] {
                    if let Some(ni) = new_of_old[oc] {
                        dirty.insert(ni);
                        self.pass2_apply_side(inside, outside, ni, d);
                    }
                }
            }

            // Re-route every `cur` edge incident to a vertex whose
            // terminal identity changed: subtract the old-routed
            // contribution, add the new-routed one.
            let moved: Vec<bool> = (0..self.n)
                .map(|v| prev_terminals[prev_class[v]] != self.terminals[self.class_of[v]])
                .collect();
            cur.for_each_net_edge(&mut |ne| {
                let (eu, ev) = ne.edge.endpoints();
                if !moved[eu as usize] && !moved[ev as usize] {
                    return;
                }
                let m = ne.multiplicity as i128;
                let (oa, ob) = (prev_class[eu as usize], prev_class[ev as usize]);
                if oa != ob {
                    for (inside, outside, oc) in [(eu, ev, oa), (ev, eu, ob)] {
                        if let Some(ni) = new_of_old[oc] {
                            dirty.insert(ni);
                            self.pass2_apply_side(inside, outside, ni, -m);
                        }
                    }
                }
                let (na, nb) = (self.class_of[eu as usize], self.class_of[ev as usize]);
                if na != nb {
                    dirty.insert(na);
                    dirty.insert(nb);
                    self.pass2_apply(ne.edge, m);
                }
            });
        }
        self.stats.pass2_bytes = self.pass_bytes(1);
        self.dirty_tables = Some(dirty);
        self.build_spanner();
        self.output.as_ref().expect("patched run completed")
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

    /// The sketch bytes pass `pass` needs: the shared randomness plus that
    /// pass's own linear state (the pass-1 recovery states, or the pass-2
    /// tables). The instance keeps both after a run so it can be patched,
    /// but no pass reads the other's state, so these are the figures
    /// Theorem 1 bounds.
    fn pass_bytes(&self, pass: usize) -> usize {
        let state = if pass == 0 {
            self.states_bytes()
        } else {
            self.tables_bytes()
        };
        self.randomness_bytes() + state
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
        if pass == 0 {
            self.stats.pass1_bytes = self.pass_bytes(0);
            self.build_clusters();
        } else {
            self.stats.pass2_bytes = self.pass_bytes(1);
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
    fn build_matches_replay_stats_and_full_replacement_patch() {
        // `build` keeps both passes' state, but the per-pass byte counts
        // it reports are those of a replay of the raw stream, so the
        // space tables do not depend on which one ran.
        let params = SpannerParams::new(2, 43);
        let g = gen::erdos_renyi(40, 0.2, 41);
        let stream = GraphStream::with_churn(&g, 1.0, 42);
        let raw = replay(&stream, params);
        let prev_net = stream.net_multiset();
        let mut alg = TwoPassSpanner::build(&prev_net, params);
        let net = alg.output().expect("both passes ran");
        assert_eq!(raw.stats, net.stats);
        assert!(net.stats.pass1_bytes > 0 && net.stats.pass2_bytes > 0);
        assert_eq!(raw.spanner.edges(), net.spanner.edges());
        assert_eq!(raw.observed_edges, net.observed_edges);

        // Every live edge deleted and as many fresh ones inserted: the
        // patch touches every state and every terminal, and must still
        // land on exactly what a build of the new segment yields.
        let fresh: Vec<Edge> = (0..40 as Vertex)
            .flat_map(|u| ((u + 1)..40).map(move |v| Edge::new(u, v)))
            .filter(|e| !g.has_edge(e.u(), e.v()))
            .take(g.num_edges())
            .collect();
        assert_eq!(fresh.len(), g.num_edges());
        let cur_net = GraphStream::insert_only(&Graph::from_edges(40, fresh), 47).net_multiset();
        let delta = cur_net.diff(&prev_net);
        assert_eq!(delta.num_changes(), 2 * g.num_edges());
        let patched = alg.patch(&delta, &cur_net);
        let full = built(&cur_net, params);
        assert_eq!(patched.spanner.edges(), full.spanner.edges());
        assert_eq!(patched.observed_edges, full.observed_edges);
        assert_eq!(patched.forest.witness_edges(), full.forest.witness_edges());
        assert_eq!(patched.stats, full.stats);
    }

    /// Perturbs `frac` of the live pairs of `g` (half removed, half
    /// replaced by fresh non-edges) — a churned "next epoch" live graph.
    fn churned(g: &Graph, frac: f64, seed: u64) -> Graph {
        let n = g.num_vertices();
        let mut edges: Vec<Edge> = g.edges().to_vec();
        let kill = ((edges.len() as f64 * frac).ceil() as usize).min(edges.len());
        // Deterministic pseudo-shuffle by hashing positions.
        edges.sort_unstable_by_key(|e| e.index(n).wrapping_mul(seed | 1));
        let mut replaced = 0usize;
        let survivors: Vec<Edge> = edges[kill..].to_vec();
        let mut out: std::collections::HashSet<Edge> = survivors.into_iter().collect();
        'hunt: for u in 0..n as Vertex {
            for v in (u + 1)..n as Vertex {
                if replaced >= kill / 2 {
                    break 'hunt;
                }
                let e = Edge::new(u, v);
                if !g.has_edge(u, v) && !out.contains(&e) {
                    out.insert(e);
                    replaced += 1;
                }
            }
        }
        Graph::from_edges(n, out)
    }

    #[test]
    fn patch_is_bit_identical_to_full_rebuild_at_every_churn_level() {
        // The tentpole contract: patched output ≡ from-scratch output, at
        // light churn (fast pass-2 path likely) and heavy churn (terminal
        // structure moves, fallback pass-2 path) alike.
        let params = SpannerParams::new(2, 51);
        let g = gen::erdos_renyi(50, 0.25, 52);
        let prev_net = GraphStream::with_churn(&g, 1.0, 53).net_multiset();
        for (frac, seed) in [(0.02, 54u64), (0.1, 55), (0.5, 56), (1.0, 57)] {
            let cur_graph = churned(&g, frac, seed);
            let cur_net = GraphStream::insert_only(&cur_graph, seed).net_multiset();
            let delta = cur_net.diff(&prev_net);
            assert!(!delta.is_empty(), "churn {frac} must change something");

            let mut alg = TwoPassSpanner::build(&prev_net, params);
            let patched = alg.patch(&delta, &cur_net);
            let full = built(&cur_net, params);
            assert_eq!(
                patched.spanner.edges(),
                full.spanner.edges(),
                "churn {frac}"
            );
            assert_eq!(patched.observed_edges, full.observed_edges, "churn {frac}");
            assert_eq!(
                patched.forest.witness_edges(),
                full.forest.witness_edges(),
                "churn {frac}"
            );
            assert_eq!(patched.stats.num_terminals, full.stats.num_terminals);
        }
    }

    #[test]
    fn patch_chain_stays_identical_across_epochs() {
        // A chain of patches (each epoch patched from the last) must not
        // drift: epoch t's patched output equals a from-scratch build.
        let params = SpannerParams::new(2, 61);
        let mut live = gen::erdos_renyi(40, 0.2, 62);
        let mut net = GraphStream::insert_only(&live, 63).net_multiset();
        let mut alg = TwoPassSpanner::build(&net, params);
        for epoch in 0..4u64 {
            live = churned(&live, 0.08, 64 + epoch);
            let next = GraphStream::insert_only(&live, 65 + epoch).net_multiset();
            let patched = alg.patch(&next.diff(&net), &next);
            let full = built(&next, params);
            assert_eq!(
                patched.spanner.edges(),
                full.spanner.edges(),
                "epoch {epoch}"
            );
            assert_eq!(patched.observed_edges, full.observed_edges, "epoch {epoch}");
            net = next;
        }
    }
}
