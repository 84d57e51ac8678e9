//! The cluster forest `F` of the two-pass spanner (Section 3.1).
//!
//! The forest lives on `V × {0, …, k-1}`: vertex `u` is present at level `i`
//! via the copy `(i, u)` whenever `u ∈ C_i` (the paper's footnote 2). Edges
//! of `F` connect a copy `(i, u)` to a parent copy `(i+1, w)`, and each such
//! logical edge is *witnessed* by a real graph edge `φ((u,w)) = (a, w)` with
//! `a` in `u`'s subtree — the witnesses are what the spanner inherits.
//!
//! Terminology implemented here:
//!
//! * **members** of a copy — the union of root vertices over its subtree
//!   (the paper's `T_u`); used for the pass-1 sketch sums
//!   `Q^{i+1}_j(u) = Σ_{v ∈ T_u} S^{i+1}_j(v)` and neighborhood bounds;
//! * **chain terminal** `t(v)` — the terminal copy reached by following
//!   parents from `(0, v)` (well defined because `C_0 = V`); the chain
//!   classes partition `V` and are the "terminal parent" assignment of
//!   Algorithm 2. (The two notions can differ on copy roots whose own chain
//!   detached elsewhere — the paper elides this in footnote 2; both choices
//!   satisfy Lemmas 12/13, see DESIGN.md.)

use dsg_graph::{Edge, Vertex};
use dsg_hash::{SeedTree, SubsetSampler};
use std::collections::{HashMap, HashSet};

/// A copy `(level, root)` in the forest on `V × {0, …, k-1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// The hierarchy level `i` (so `root ∈ C_i`).
    pub level: u8,
    /// The vertex whose copy this is.
    pub root: Vertex,
}

impl NodeId {
    /// Creates the copy of `root` at `level`.
    pub fn new(level: usize, root: Vertex) -> Self {
        Self {
            level: level as u8,
            root,
        }
    }
}

/// The hierarchical cluster forest with witness edges.
///
/// # Examples
///
/// ```
/// use dsg_spanner::cluster::ClusterForest;
/// use dsg_graph::Edge;
///
/// // A 2-level forest over 4 vertices (deterministic centers from a seed).
/// let mut f = ClusterForest::new(4, 2, 7);
/// // Level-0 copies exist for every vertex (C_0 = V).
/// assert_eq!(f.centers_at(0).count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterForest {
    n: usize,
    k: usize,
    /// `center_membership[i][v]`: whether `v ∈ C_i`.
    center_membership: Vec<Vec<bool>>,
    /// Parent root at `level+1` for each non-terminal copy.
    parent: HashMap<NodeId, Vertex>,
    /// Witness graph edge for each parent link.
    witness: HashMap<NodeId, Edge>,
    /// Copies marked terminal.
    terminal: HashSet<NodeId>,
    /// Children (roots at `level-1`) of each copy.
    children: HashMap<NodeId, Vec<Vertex>>,
}

impl ClusterForest {
    /// Creates an empty forest with center sets `C_i` sampled at rates
    /// `n^{-i/k}` from `seed` (shared by the offline and streaming
    /// implementations so they can be cross-validated).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `n == 0`.
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(n >= 1, "n must be at least 1");
        let tree = SeedTree::new(seed ^ 0x434C_5553_5445_5253); // "CLUSTERS"
        let center_membership = (0..k)
            .map(|i| {
                if i == 0 {
                    vec![true; n] // C_0 = V (rate n^0 = 1)
                } else {
                    let rate = (n.max(2) as f64).powf(-(i as f64) / k as f64);
                    let sampler = SubsetSampler::new(tree.child(i as u64).seed(), rate);
                    (0..n as u64).map(|v| sampler.contains(v)).collect()
                }
            })
            .collect();
        Self {
            n,
            k,
            center_membership,
            parent: HashMap::new(),
            witness: HashMap::new(),
            terminal: HashSet::new(),
            children: HashMap::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Hierarchy depth `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether `v ∈ C_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    pub fn is_center(&self, i: usize, v: Vertex) -> bool {
        self.center_membership[i][v as usize]
    }

    /// Iterates over the members of `C_i` in vertex order.
    pub fn centers_at(&self, i: usize) -> impl Iterator<Item = Vertex> + '_ {
        self.center_membership[i]
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(v, _)| v as Vertex)
    }

    /// Records that copy `node` attaches to parent root `w` (at
    /// `node.level + 1`) with witness edge `witness`.
    ///
    /// # Panics
    ///
    /// Panics if `node` already has a parent or is terminal, if `w` is not
    /// in `C_{level+1}`, or if the witness does not touch `w`.
    pub fn set_parent(&mut self, node: NodeId, w: Vertex, witness: Edge) {
        assert!(
            !self.parent.contains_key(&node),
            "copy {node:?} already attached"
        );
        assert!(
            !self.terminal.contains(&node),
            "copy {node:?} already terminal"
        );
        assert!(
            self.is_center(node.level as usize + 1, w),
            "parent {w} not a level-{} center",
            node.level + 1
        );
        assert!(
            witness.touches(w),
            "witness {witness} does not touch parent {w}"
        );
        self.parent.insert(node, w);
        self.witness.insert(node, witness);
        self.children
            .entry(NodeId::new(node.level as usize + 1, w))
            .or_default()
            .push(node.root);
    }

    /// Marks a copy terminal (root of its component in `F`).
    ///
    /// # Panics
    ///
    /// Panics if the copy already has a parent.
    pub fn set_terminal(&mut self, node: NodeId) {
        assert!(
            !self.parent.contains_key(&node),
            "copy {node:?} already attached"
        );
        self.terminal.insert(node);
    }

    /// The parent root of `node`, if attached.
    pub fn parent(&self, node: NodeId) -> Option<Vertex> {
        self.parent.get(&node).copied()
    }

    /// The witness edge of `node`'s parent link, if attached.
    pub fn witness(&self, node: NodeId) -> Option<Edge> {
        self.witness.get(&node).copied()
    }

    /// Whether `node` was marked terminal.
    pub fn is_terminal(&self, node: NodeId) -> bool {
        self.terminal.contains(&node)
    }

    /// The terminal copy reached by following parents from `(0, v)`.
    ///
    /// Returns `None` if the chain hits a copy that is neither attached nor
    /// terminal (an unfinished forest).
    pub fn chain_terminal(&self, v: Vertex) -> Option<NodeId> {
        let mut node = NodeId::new(0, v);
        loop {
            if self.terminal.contains(&node) {
                return Some(node);
            }
            match self.parent.get(&node) {
                Some(&w) => node = NodeId::new(node.level as usize + 1, w),
                None => return None,
            }
        }
    }

    /// The member vertex set `T_u` of a copy: the union of root vertices
    /// over its subtree (deduplicated).
    pub fn members(&self, node: NodeId) -> Vec<Vertex> {
        let mut out = HashSet::new();
        let mut stack = vec![node];
        while let Some(cur) = stack.pop() {
            out.insert(cur.root);
            if let Some(kids) = self.children.get(&cur) {
                for &c in kids {
                    stack.push(NodeId::new(cur.level as usize - 1, c));
                }
            }
        }
        let mut v: Vec<Vertex> = out.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// All terminal copies, sorted.
    pub fn terminals(&self) -> Vec<NodeId> {
        let mut t: Vec<NodeId> = self.terminal.iter().copied().collect();
        t.sort_unstable();
        t
    }

    /// The chain-class partition: maps each terminal to the vertices whose
    /// chain ends there.
    ///
    /// # Panics
    ///
    /// Panics if some vertex has no chain terminal (unfinished forest).
    pub fn chain_classes(&self) -> HashMap<NodeId, Vec<Vertex>> {
        let mut classes: HashMap<NodeId, Vec<Vertex>> = HashMap::new();
        for v in 0..self.n as Vertex {
            let t = self
                .chain_terminal(v)
                .expect("forest construction incomplete");
            classes.entry(t).or_default().push(v);
        }
        classes
    }

    /// Witness edges of all attached (non-terminal) copies — the forest's
    /// contribution `φ(F)` to the spanner.
    pub fn witness_edges(&self) -> Vec<Edge> {
        let mut edges: Vec<Edge> = self.witness.values().copied().collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// The diameter of `φ(T_u)` measured in the witness subgraph plus the
    /// member set (verification helper for Lemma 13's `2^{j+1} - 2` bound).
    ///
    /// Returns `None` if the witness edges do not connect the members
    /// (which would indicate a construction bug).
    pub fn witness_diameter(&self, node: NodeId) -> Option<u32> {
        let members = self.members(node);
        if members.len() <= 1 {
            return Some(0);
        }
        // Collect witness edges in the subtree.
        let mut edges = Vec::new();
        let mut stack = vec![node];
        while let Some(cur) = stack.pop() {
            if let Some(kids) = self.children.get(&cur) {
                for &c in kids {
                    let child = NodeId::new(cur.level as usize - 1, c);
                    if let Some(w) = self.witness.get(&child) {
                        edges.push(*w);
                    }
                    stack.push(child);
                }
            }
        }
        // BFS over the member-induced witness graph from every member.
        let index: HashMap<Vertex, usize> =
            members.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut adj = vec![Vec::new(); members.len()];
        for e in &edges {
            let (Some(&a), Some(&b)) = (index.get(&e.u()), index.get(&e.v())) else {
                continue;
            };
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut diameter = 0u32;
        for start in 0..members.len() {
            let mut dist = vec![u32::MAX; members.len()];
            let mut queue = std::collections::VecDeque::new();
            dist[start] = 0;
            queue.push_back(start);
            while let Some(x) = queue.pop_front() {
                for &y in &adj[x] {
                    if dist[y] == u32::MAX {
                        dist[y] = dist[x] + 1;
                        queue.push_back(y);
                    }
                }
            }
            let far = *dist.iter().max().expect("dist holds the start member");
            if far == u32::MAX {
                return None; // members not connected by witnesses
            }
            diameter = diameter.max(far);
        }
        Some(diameter)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn level_zero_is_everyone() {
        let f = ClusterForest::new(10, 3, 1);
        assert_eq!(f.centers_at(0).count(), 10);
        for v in 0..10 {
            assert!(f.is_center(0, v));
        }
    }

    #[test]
    fn center_sizes_decay() {
        let f = ClusterForest::new(400, 2, 2);
        let c1 = f.centers_at(1).count() as f64;
        // Rate 400^{-1/2} = 0.05 → expect ~20.
        assert!((5.0..60.0).contains(&c1), "c1={c1}");
    }

    #[test]
    fn centers_deterministic() {
        let a = ClusterForest::new(100, 3, 7);
        let b = ClusterForest::new(100, 3, 7);
        for i in 0..3 {
            assert_eq!(
                a.centers_at(i).collect::<Vec<_>>(),
                b.centers_at(i).collect::<Vec<_>>()
            );
        }
    }

    fn tiny_forest() -> ClusterForest {
        // 4 vertices, k=2. Attach (0,0)->(1,c) and (0,1)->(1,c) where c is
        // the first level-1 center; make everything else terminal.
        let mut f = ClusterForest::new(4, 2, 3);
        let c = f.centers_at(1).next().expect("need a level-1 center");
        // Attach copies of 0 and 1 unless the center is that vertex itself.
        for v in [0u32, 1] {
            if v != c {
                f.set_parent(NodeId::new(0, v), c, Edge::new(v, c));
            }
        }
        for v in 0..4u32 {
            let node = NodeId::new(0, v);
            if f.parent(node).is_none() {
                f.set_terminal(node);
            }
        }
        f.set_terminal(NodeId::new(1, c));
        for w in f.centers_at(1).collect::<Vec<_>>() {
            let node = NodeId::new(1, w);
            if w != c && !f.is_terminal(node) {
                f.set_terminal(node);
            }
        }
        f
    }

    #[test]
    fn chains_terminate() {
        let f = tiny_forest();
        for v in 0..4 {
            assert!(f.chain_terminal(v).is_some(), "vertex {v} has no terminal");
        }
    }

    #[test]
    fn chain_classes_partition() {
        let f = tiny_forest();
        let classes = f.chain_classes();
        let total: usize = classes.values().map(Vec::len).sum();
        assert_eq!(total, 4);
        let mut all: Vec<Vertex> = classes.values().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn members_include_attached() {
        let f = tiny_forest();
        let c = f.centers_at(1).next().unwrap();
        let members = f.members(NodeId::new(1, c));
        assert!(members.contains(&c));
        for v in [0u32, 1] {
            if v != c {
                assert!(members.contains(&v), "member {v} missing from {members:?}");
            }
        }
    }

    #[test]
    fn witness_edges_deduped_and_collected() {
        let f = tiny_forest();
        let edges = f.witness_edges();
        let c = f.centers_at(1).next().unwrap();
        let expect: usize = [0u32, 1].iter().filter(|&&v| v != c).count();
        assert_eq!(edges.len(), expect);
    }

    #[test]
    fn witness_diameter_of_star_is_two() {
        let mut f = ClusterForest::new(5, 2, 11);
        // Force vertex 0 to be treated as a level-1 center by construction
        // seed search: find a seed where 0 ∈ C_1.
        let mut seed = 11;
        while !f.is_center(1, 0) {
            seed += 1;
            f = ClusterForest::new(5, 2, seed);
        }
        for v in 1..5u32 {
            f.set_parent(NodeId::new(0, v), 0, Edge::new(v, 0));
        }
        f.set_terminal(NodeId::new(0, 0));
        f.set_terminal(NodeId::new(1, 0));
        let d = f.witness_diameter(NodeId::new(1, 0)).unwrap();
        assert_eq!(d, 2); // star through the center: 2^{1+1} - 2 = 2 ✓
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_parent_panics() {
        let mut f = tiny_forest();
        let c = f.centers_at(1).next().unwrap();
        let v = if c == 0 { 1 } else { 0 };
        f.set_parent(NodeId::new(0, v), c, Edge::new(v, c));
    }

    #[test]
    #[should_panic(expected = "not a level-")]
    fn non_center_parent_panics() {
        let mut f = ClusterForest::new(50, 2, 1);
        let non_center = (0..50u32).find(|&v| !f.is_center(1, v)).unwrap();
        let v = if non_center == 0 { 1 } else { 0 };
        f.set_parent(NodeId::new(0, v), non_center, Edge::new(v, non_center));
    }
}
