//! Spanning forests from AGM sketches (the paper's Theorem 10).
//!
//! [`AgmSketch`] maintains, for each of `O(log n)` independent *rounds*, one
//! L0-sampler state per vertex over the signed incidence vector (see
//! [`crate::incidence`]). Forest extraction runs Borůvka: in round `r`,
//! every current component sums its members' round-`r` states (linearity —
//! internal edges cancel) and samples an outgoing edge; sampled edges merge
//! components. Fresh randomness per round keeps the adaptivity of Borůvka
//! away from the samplers, which is exactly why the sketch keeps
//! `O(log n)` independent copies.
//!
//! Two extras the paper's Algorithm 3 needs:
//!
//! * **supernode partitions** — `spanning_forest_with_partition` starts
//!   Borůvka from a given clustering instead of singletons, implementing the
//!   observation that "if a graph `H` is obtained from `G` by collapsing
//!   some sets of nodes into supernodes, an AGM sketch for `H` can be
//!   obtained from an AGM sketch for `G`";
//! * **edge subtraction** — [`AgmSketch::subtract_edges`] deletes a known
//!   edge set from the sketch by linearity ("starting with AGM sketches for
//!   `G`, we can first subtract all edges in `E_low`, and then invoke
//!   Theorem 10 on `G'`").

use crate::incidence::{edge_coordinate, incidence_sign};
use dsg_graph::components::UnionFind;
use dsg_graph::{index_to_pair, Edge, Vertex};
use dsg_sketch::l0::{L0Family, L0State};
use dsg_sketch::wire::{self, WireError};
use dsg_sketch::LinearSketch;
use dsg_util::SpaceUsage;
use std::sync::Arc;

/// Default extra rounds beyond `ceil(log2 n)`; Borůvka halves components
/// per round in expectation, the slack absorbs unlucky sampling.
const EXTRA_ROUNDS: usize = 4;

/// The outcome of forest extraction.
#[derive(Debug, Clone, Default)]
pub struct ForestResult {
    /// The forest edges found (a subgraph of the sketched graph whp).
    pub edges: Vec<Edge>,
    /// Number of component sampling attempts that failed to decode
    /// (whp-failure events; nonzero values flag under-provisioned rounds).
    pub decode_failures: usize,
}

/// A linear sketch of an `n`-vertex dynamic graph supporting spanning-forest
/// extraction.
///
/// # Examples
///
/// ```
/// use dsg_agm::AgmSketch;
/// use dsg_graph::Edge;
///
/// let mut sk = AgmSketch::new(5, 7);
/// sk.update(Edge::new(0, 1), 1);
/// sk.update(Edge::new(1, 2), 1);
/// sk.update(Edge::new(3, 4), 1);
/// sk.update(Edge::new(1, 2), -1); // deletion
/// let f = sk.spanning_forest();
/// assert_eq!(f.edges.len(), 2); // {0,1} and {3,4}
/// ```
///
/// # Structural sharing
///
/// The per-(round, vertex) states are reference-counted and copied on
/// write: `clone()` copies `n · rounds` pointers, not the cells, and a
/// clone and its original share every state until one of them writes to
/// it (that write copies the one state). A clone is therefore a frozen
/// view no later `update`/`merge` of the original can change. The field
/// is private to this module so `Arc::make_mut` stays the only way to a
/// `&mut L0State`.
#[derive(Debug, Clone)]
pub struct AgmSketch {
    n: usize,
    seed: u64,
    families: Vec<L0Family>,
    /// `states[round][vertex]`.
    states: Vec<Vec<Arc<L0State>>>,
}

impl AgmSketch {
    /// Creates a sketch for graphs on `n` vertices with the default
    /// `ceil(log2 n) + 4` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize, seed: u64) -> Self {
        let rounds = (usize::BITS - n.next_power_of_two().leading_zeros()) as usize + EXTRA_ROUNDS;
        Self::with_rounds(n, rounds, seed)
    }

    /// Creates a sketch with an explicit number of Borůvka rounds.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `rounds == 0`.
    pub fn with_rounds(n: usize, rounds: usize, seed: u64) -> Self {
        assert!(n >= 2, "need at least two vertices");
        assert!(rounds > 0, "need at least one round");
        let universe_bits = 64 - (dsg_graph::ids::num_pairs(n).max(1)).leading_zeros();
        let tree = dsg_hash::SeedTree::new(seed ^ 0x41_474D_534B_4531); // "AGMSKE1"
        let families: Vec<L0Family> = (0..rounds)
            .map(|r| L0Family::new(universe_bits, tree.child(r as u64).seed()))
            .collect();
        // One zero state per round, shared by every vertex until its
        // first update.
        let states = families
            .iter()
            .map(|f| {
                let zero = Arc::new(f.new_state());
                vec![zero; n]
            })
            .collect();
        Self {
            n,
            seed,
            families,
            states,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The creation seed (compatibility key for merges — the randomness
    /// the paper's servers "agreed upon" in advance).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of independent rounds.
    pub fn num_rounds(&self) -> usize {
        self.families.len()
    }

    /// Applies a signed edge update (`delta` = net multiplicity change).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn update(&mut self, edge: Edge, delta: i128) {
        assert!((edge.v() as usize) < self.n, "edge {edge} out of range");
        if delta == 0 {
            return;
        }
        let coord = edge_coordinate(&edge, self.n);
        for (family, states) in self.families.iter().zip(&mut self.states) {
            for w in [edge.u(), edge.v()] {
                let sign = incidence_sign(w, &edge);
                family.update(Arc::make_mut(&mut states[w as usize]), coord, sign * delta);
            }
        }
    }

    /// The merge of `forks` (shard sketches of disjoint sub-streams),
    /// given `self` = the merge of an earlier state of the same shards
    /// and `dirty[v]` = "some update since then had `v` as an endpoint".
    ///
    /// The sketch is linear *per vertex*: `merged[r][v] = Σ forks[i][r][v]`,
    /// and an update to edge `{u, v}` writes only to the states of `u` and
    /// `v`. A clean vertex's sum is therefore unchanged and its state is
    /// shared with `self` (a pointer copy); a dirty vertex's state is
    /// recomputed from the forks — `forks[0][r][v]` plus the rest, the
    /// same additions [`LinearSketch::merge`] performs, never a delta
    /// against `self` — so the result is bit-identical to merging the
    /// forks from scratch. `dirty` may be any superset of the truly
    /// changed vertices; with every vertex dirty `self` contributes
    /// nothing and this *is* the full merge.
    ///
    /// Cost: `O(n · rounds)` pointer copies plus one state copy-and-add
    /// per dirty (vertex, round).
    ///
    /// # Panics
    ///
    /// Panics if `forks` is empty, if `dirty.len() != n`, or if a fork
    /// disagrees with `self` on vertex count, round count, or seed.
    pub fn remerge(&self, forks: &[AgmSketch], dirty: &[bool]) -> AgmSketch {
        assert_eq!(dirty.len(), self.n, "dirty mask size mismatch");
        let (first, rest) = forks.split_first().expect("need at least one fork");
        for fork in forks {
            self.assert_mergeable(fork);
        }
        let states = (0..self.num_rounds())
            .map(|r| {
                (0..self.n)
                    .map(|v| {
                        if !dirty[v] {
                            return Arc::clone(&self.states[r][v]);
                        }
                        let mut state = Arc::clone(&first.states[r][v]);
                        for fork in rest {
                            Arc::make_mut(&mut state).merge(&fork.states[r][v]);
                        }
                        state
                    })
                    .collect()
            })
            .collect();
        AgmSketch {
            n: self.n,
            seed: self.seed,
            families: self.families.clone(),
            states,
        }
    }

    fn assert_mergeable(&self, other: &AgmSketch) {
        assert_eq!(self.n, other.n, "vertex count mismatch");
        assert_eq!(
            self.num_rounds(),
            other.num_rounds(),
            "round count mismatch"
        );
        assert_eq!(self.seed, other.seed, "seed mismatch");
    }

    /// Subtracts a set of known edges (each with multiplicity 1) from the
    /// sketch — the `E \ E_low` step of the paper's Algorithm 3.
    pub fn subtract_edges<'a, I: IntoIterator<Item = &'a Edge>>(&mut self, edges: I) {
        for e in edges {
            self.update(*e, -1);
        }
    }

    /// Extracts a spanning forest of the sketched graph.
    pub fn spanning_forest(&self) -> ForestResult {
        let mut uf = UnionFind::new(self.n);
        self.extract_forest(&mut uf)
    }

    /// Extracts a spanning forest of the graph with the given vertex
    /// partition collapsed into supernodes. Returned edges connect distinct
    /// *parts*; edges internal to a part are invisible (they cancel).
    ///
    /// `partition[v]` is the part id of vertex `v` (any `Vertex` values).
    ///
    /// # Panics
    ///
    /// Panics if `partition.len() != n`.
    pub fn spanning_forest_with_partition(&self, partition: &[Vertex]) -> ForestResult {
        assert_eq!(partition.len(), self.n, "partition size mismatch");
        let mut uf = UnionFind::new(self.n);
        // Collapse each part by unioning consecutive members.
        let mut rep: std::collections::HashMap<Vertex, Vertex> = std::collections::HashMap::new();
        for (v, &part) in partition.iter().enumerate() {
            match rep.entry(part) {
                std::collections::hash_map::Entry::Occupied(o) => {
                    uf.union(*o.get(), v as Vertex);
                }
                std::collections::hash_map::Entry::Vacant(vac) => {
                    vac.insert(v as Vertex);
                }
            }
        }
        self.extract_forest(&mut uf)
    }

    /// Borůvka over the current component structure in `uf`.
    fn extract_forest(&self, uf: &mut UnionFind) -> ForestResult {
        let mut result = ForestResult::default();
        for (family, states) in self.families.iter().zip(&self.states) {
            if uf.num_components() == 1 {
                break;
            }
            // Group members by component root. A BTreeMap fixes the
            // iteration order so extraction is a deterministic function of
            // the sketch state — merged shard sketches must answer
            // identically to a single-sketch run, byte for byte.
            let mut groups: std::collections::BTreeMap<Vertex, Vec<Vertex>> =
                std::collections::BTreeMap::new();
            for v in 0..self.n as Vertex {
                groups.entry(uf.find(v)).or_default().push(v);
            }
            // Sum member states per component and sample an outgoing edge.
            let mut found: Vec<Edge> = Vec::new();
            for members in groups.values() {
                let mut sum = family.new_state();
                for &v in members {
                    sum.merge(&states[v as usize]);
                }
                match family.sample(&sum) {
                    Ok(Some((coord, _))) => {
                        let (u, v) = index_to_pair(coord, self.n);
                        found.push(Edge::new(u, v));
                    }
                    Ok(None) => {} // isolated component — correct outcome
                    Err(_) => result.decode_failures += 1,
                }
            }
            // Union in sorted order: ties between competing edges across
            // the same component pair resolve deterministically.
            found.sort_unstable();
            found.dedup();
            for e in found {
                if uf.union(e.u(), e.v()) {
                    result.edges.push(e);
                }
            }
        }
        result.edges.sort_unstable();
        result
    }
}

impl AgmSketch {
    /// Worst-case (dense) footprint in bytes: the per-vertex reservation
    /// the `O(n log^3 n)` bound of Theorem 10 charges.
    pub fn nominal_bytes(&self) -> usize {
        self.families
            .iter()
            .map(|f| f.nominal_state_bytes() * self.n + f.space_bytes())
            .sum()
    }
}

impl SpaceUsage for AgmSketch {
    fn space_bytes(&self) -> usize {
        let families: usize = self.families.iter().map(SpaceUsage::space_bytes).sum();
        let states: usize = self
            .states
            .iter()
            .map(|row| row.iter().map(|st| st.space_bytes()).sum::<usize>())
            .sum();
        families + states
    }
}

impl LinearSketch for AgmSketch {
    const WIRE_KIND: u16 = wire::KIND_AGM;

    /// Coordinate-keyed update: `key` is the stream coordinate of an edge
    /// (see [`dsg_graph::pair_to_index`]), the form a sharded ingest
    /// engine feeds. Keys outside `[0, C(n,2))` are dropped (debug builds
    /// assert) — a malformed update must not abort a whole shard.
    fn update(&mut self, key: u64, delta: i128) {
        if key >= dsg_graph::ids::num_pairs(self.n) {
            debug_assert!(false, "coordinate {key} out of range for n={}", self.n);
            return;
        }
        let (u, v) = index_to_pair(key, self.n);
        self.update(Edge::new(u, v), delta);
    }

    fn merge(&mut self, other: &Self) {
        self.assert_mergeable(other);
        for (mine, theirs) in self.states.iter_mut().zip(&other.states) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                Arc::make_mut(a).merge(b);
            }
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        wire::put_len(&mut payload, self.n);
        wire::put_len(&mut payload, self.num_rounds());
        wire::put_u64(&mut payload, self.seed);
        for row in &self.states {
            for st in row {
                st.encode_into(&mut payload);
            }
        }
        wire::finish_frame(Self::WIRE_KIND, payload)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = wire::open_frame(Self::WIRE_KIND, bytes)?;
        let n = r.read_len()?;
        let rounds = r.read_len()?;
        if n < 2 || rounds == 0 {
            return Err(WireError::Malformed("bad vertex or round count"));
        }
        // Edge coordinates must fit the 60-bit sketch key universe (and
        // `num_pairs` must not overflow): reject rather than let the
        // constructor assert on a crafted frame.
        if n > (1 << 30) {
            return Err(WireError::Malformed("vertex count exceeds key universe"));
        }
        // Every per-vertex per-round state costs at least 8 payload bytes
        // (its level count); bound the declared shape by the payload so a
        // corrupt frame cannot trigger a huge eager allocation.
        if n.saturating_mul(rounds) > r.remaining() / 8 {
            return Err(WireError::Truncated);
        }
        let seed = r.u64()?;
        let mut sk = AgmSketch::with_rounds(n, rounds, seed);
        for (family, row) in sk.families.iter().zip(sk.states.iter_mut()) {
            for st in row.iter_mut() {
                *st = Arc::new(family.decode_state(&mut r)?);
            }
        }
        r.expect_end()?;
        Ok(sk)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dsg_graph::components::{is_spanning_forest, num_components};
    use dsg_graph::{gen, Graph};

    fn sketch_graph(g: &Graph, seed: u64) -> AgmSketch {
        let mut sk = AgmSketch::new(g.num_vertices(), seed);
        for e in g.edges() {
            sk.update(*e, 1);
        }
        sk
    }

    #[test]
    fn forest_of_connected_graph() {
        let g = gen::erdos_renyi(50, 0.15, 1);
        let sk = sketch_graph(&g, 2);
        let f = sk.spanning_forest();
        assert!(
            is_spanning_forest(&g, &f.edges),
            "failures={}",
            f.decode_failures
        );
    }

    #[test]
    fn forest_respects_components() {
        // Two separate cliques.
        let mut edges = Vec::new();
        for u in 0..10u32 {
            for v in (u + 1)..10 {
                edges.push(Edge::new(u, v));
                edges.push(Edge::new(u + 10, v + 10));
            }
        }
        let g = Graph::from_edges(20, edges);
        let sk = sketch_graph(&g, 3);
        let f = sk.spanning_forest();
        assert!(is_spanning_forest(&g, &f.edges));
        assert_eq!(f.edges.len(), 18); // 9 + 9
    }

    #[test]
    fn deletions_respected() {
        let g = gen::cycle(12);
        let mut sk = sketch_graph(&g, 4);
        // Delete one cycle edge: still connected (a path).
        sk.update(*g.edges().first().unwrap(), -1);
        let f = sk.spanning_forest();
        let h = g.minus(&[*g.edges().first().unwrap()].into_iter().collect());
        assert!(is_spanning_forest(&h, &f.edges));
    }

    #[test]
    fn empty_graph_empty_forest() {
        let sk = AgmSketch::new(8, 5);
        let f = sk.spanning_forest();
        assert!(f.edges.is_empty());
        assert_eq!(f.decode_failures, 0);
    }

    #[test]
    fn single_edge_found() {
        let mut sk = AgmSketch::new(4, 6);
        sk.update(Edge::new(1, 3), 1);
        let f = sk.spanning_forest();
        assert_eq!(f.edges, vec![Edge::new(1, 3)]);
    }

    #[test]
    fn partition_contracts_clusters() {
        // Path 0-1-2-3-4-5; partition {0,1,2} and {3,4,5}: the contracted
        // graph has one crossing edge (2,3).
        let g = gen::path(6);
        let sk = sketch_graph(&g, 7);
        let partition = vec![0, 0, 0, 1, 1, 1];
        let f = sk.spanning_forest_with_partition(&partition);
        assert_eq!(f.edges, vec![Edge::new(2, 3)]);
    }

    #[test]
    fn partition_hides_internal_edges() {
        let g = gen::complete(6);
        let sk = sketch_graph(&g, 8);
        // One big part: no crossing edges at all.
        let f = sk.spanning_forest_with_partition(&[0; 6]);
        assert!(f.edges.is_empty());
    }

    #[test]
    fn subtract_edges_disconnects() {
        // Path 0-1-2; removing (1,2) leaves {0,1} and {2}.
        let g = gen::path(3);
        let mut sk = sketch_graph(&g, 9);
        sk.subtract_edges(&[Edge::new(1, 2)]);
        let f = sk.spanning_forest();
        assert_eq!(f.edges, vec![Edge::new(0, 1)]);
    }

    #[test]
    fn merge_of_server_shards() {
        // Distributed pattern: two servers each hold half the edges.
        let g = gen::erdos_renyi(30, 0.2, 10);
        let mid = g.num_edges() / 2;
        let mut a = AgmSketch::new(30, 11);
        let mut b = AgmSketch::new(30, 11);
        for (i, e) in g.edges().iter().enumerate() {
            if i < mid {
                a.update(*e, 1);
            } else {
                b.update(*e, 1);
            }
        }
        a.merge(&b);
        let f = a.spanning_forest();
        assert!(is_spanning_forest(&g, &f.edges));
    }

    #[test]
    fn survives_heavy_churn_via_stream() {
        let g = gen::erdos_renyi(40, 0.1, 12);
        let stream = dsg_graph::GraphStream::with_churn(&g, 3.0, 13);
        let mut sk = AgmSketch::new(40, 14);
        for up in stream.updates() {
            sk.update(up.edge, up.delta as i128);
        }
        let f = sk.spanning_forest();
        assert!(is_spanning_forest(&g, &f.edges));
    }

    #[test]
    fn forest_size_matches_component_count() {
        let g = gen::erdos_renyi(60, 0.03, 15); // likely disconnected
        let sk = sketch_graph(&g, 16);
        let f = sk.spanning_forest();
        assert!(is_spanning_forest(&g, &f.edges));
        assert_eq!(f.edges.len(), 60 - num_components(&g));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_update_panics() {
        let mut sk = AgmSketch::new(4, 1);
        sk.update(Edge::new(0, 9), 1);
    }

    #[test]
    #[should_panic(expected = "seed mismatch")]
    fn seed_mismatch_merge_panics() {
        let mut a = AgmSketch::new(4, 1);
        let b = AgmSketch::new(4, 2);
        a.merge(&b);
    }

    #[test]
    fn coordinate_update_matches_edge_update() {
        let n = 12;
        let mut by_edge = AgmSketch::new(n, 5);
        let mut by_coord = AgmSketch::new(n, 5);
        let g = gen::erdos_renyi(n, 0.3, 6);
        for e in g.edges() {
            by_edge.update(*e, 1);
            LinearSketch::update(&mut by_coord, e.index(n), 1);
        }
        assert_eq!(by_edge.to_bytes(), by_coord.to_bytes());
    }

    #[test]
    fn wire_roundtrip_preserves_forest() {
        let g = gen::erdos_renyi(30, 0.15, 21);
        let sk = sketch_graph(&g, 22);
        let bytes = sk.to_bytes();
        let back = AgmSketch::from_bytes(&bytes).unwrap();
        assert_eq!(back.spanning_forest().edges, sk.spanning_forest().edges);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn crafted_shape_frames_rejected_without_panicking() {
        use dsg_sketch::wire;
        // n = 2^31 exceeds the key universe: must be a WireError, not the
        // constructor assert (or a num_pairs overflow).
        let mut payload = Vec::new();
        wire::put_len(&mut payload, 1usize << 31);
        wire::put_len(&mut payload, 1);
        wire::put_u64(&mut payload, 0);
        let frame = wire::finish_frame(wire::KIND_AGM, payload);
        assert!(AgmSketch::from_bytes(&frame).is_err());
        // A huge declared n×rounds over a tiny payload must be rejected
        // before any state allocation.
        let mut payload = Vec::new();
        wire::put_len(&mut payload, 1usize << 20);
        wire::put_len(&mut payload, 1usize << 12);
        wire::put_u64(&mut payload, 0);
        let frame = wire::finish_frame(wire::KIND_AGM, payload);
        assert!(AgmSketch::from_bytes(&frame).is_err());
    }

    #[test]
    fn clone_is_frozen_while_the_original_keeps_ingesting() {
        let g = gen::erdos_renyi(30, 0.15, 50);
        let mut sk = sketch_graph(&g, 51);
        let fork = sk.clone();
        let (bytes, forest) = (fork.to_bytes(), fork.spanning_forest().edges);
        // Mutate the original through both write paths.
        for e in g.edges().iter().step_by(2) {
            sk.update(*e, -1);
        }
        let mut other = AgmSketch::new(30, 51);
        other.update(Edge::new(0, 29), 1);
        sk.merge(&other);
        assert_ne!(sk.to_bytes(), bytes);
        assert_eq!(fork.to_bytes(), bytes);
        assert_eq!(fork.spanning_forest().edges, forest);
        // ... and the other direction: writing to a fork leaves the original alone.
        let frozen = sk.to_bytes();
        let mut fork2 = sk.clone();
        fork2.update(Edge::new(3, 4), 1);
        assert_eq!(sk.to_bytes(), frozen);
    }

    #[test]
    fn remerge_of_dirty_vertices_equals_a_full_merge() {
        let n = 24;
        let g = gen::erdos_renyi(n, 0.25, 52);
        for k in 1usize..=4 {
            let mut shards: Vec<AgmSketch> = (0..k).map(|_| AgmSketch::new(n, 53)).collect();
            let mut single = AgmSketch::new(n, 53);
            for (i, e) in g.edges().iter().enumerate() {
                shards[i % k].update(*e, 1);
                single.update(*e, 1);
            }
            // Everything dirty over a zero sketch is the full merge.
            let mut merged = AgmSketch::new(n, 53).remerge(&shards, &vec![true; n]);
            assert_eq!(merged.to_bytes(), single.to_bytes(), "k={k}");
            // A second round of updates, endpoints recorded as dirty —
            // including an insert-then-delete that nets to nothing.
            let mut dirty = vec![false; n];
            let churn: Vec<(Edge, i128)> = g
                .edges()
                .iter()
                .step_by(5)
                .map(|e| (*e, -1))
                .chain([(Edge::new(0, 23), 1), (Edge::new(0, 23), -1)])
                .collect();
            for (i, (e, delta)) in churn.iter().enumerate() {
                shards[i % k].update(*e, *delta);
                single.update(*e, *delta);
                dirty[e.u() as usize] = true;
                dirty[e.v() as usize] = true;
            }
            assert!(dirty.iter().any(|d| !d), "some vertex must stay clean");
            let before = merged.to_bytes();
            let prev = merged.clone();
            merged = merged.remerge(&shards, &dirty);
            assert_eq!(merged.to_bytes(), single.to_bytes(), "k={k}");
            assert_eq!(prev.to_bytes(), before, "the previous merge is untouched");
            // Nothing dirty: the previous merge, shared.
            let same = merged.remerge(&shards, &vec![false; n]);
            assert_eq!(same.to_bytes(), merged.to_bytes());
        }
    }

    #[test]
    #[should_panic(expected = "dirty mask size mismatch")]
    fn remerge_mask_size_checked() {
        let sk = AgmSketch::new(8, 1);
        let _ = sk.remerge(&[AgmSketch::new(8, 1)], &[true; 4]);
    }

    #[test]
    fn extraction_is_deterministic() {
        // The same state must always answer the same forest — required for
        // merged shard sketches to agree with a single-sketch run.
        let g = gen::erdos_renyi(40, 0.2, 30);
        let sk = sketch_graph(&g, 31);
        let clone = sk.clone();
        assert_eq!(sk.spanning_forest().edges, clone.spanning_forest().edges);
    }
}
