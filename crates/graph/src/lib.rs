//! Graph substrate for dynamic-stream algorithms.
//!
//! The paper views a multigraph on `n` vertices as its `C(n,2)`-dimensional
//! edge-indicator vector, delivered as a stream of signed updates. This
//! crate provides everything around that view:
//!
//! * [`ids`] — the bijection between unordered vertex pairs and coordinates
//!   of the `C(n,2)`-dimensional vector (the index space every sketch hashes);
//! * [`Graph`] / [`WeightedGraph`] — in-memory reference graphs with CSR
//!   adjacency, used to generate streams and to verify streaming outputs;
//! * [`gen`] — seeded generators: Erdős–Rényi, fixed-size `G(n,m)`, paths,
//!   cycles, grids, stars, complete graphs, barbells/dumbbells, Chung–Lu
//!   power-law graphs, and the disjoint-cliques-plus-path hard instance of
//!   the paper's Theorem 4 lower bound;
//! * [`bfs`] / [`dijkstra`] — shortest-path machinery for measuring spanner
//!   stretch and additive distortion;
//! * [`components`] — union–find, connected components and spanning
//!   forests (verification targets for AGM sketches);
//! * [`stream`] — the dynamic stream model itself: signed edge updates,
//!   churn generators that interleave insertions with deletions, and
//!   weighted streams where deletions remove a known weight (the model the
//!   paper adopts for weighted graphs);
//! * [`multiset`] — the order-free **net edge multiset** a stream leaves
//!   behind ([`NetMultiset`]), the O(current edges) input every linear
//!   algorithm can be rebuilt from;
//! * [`compact`] — the write side of that summary: [`CompactedLog`]
//!   maintains net multiplicities incrementally at ingest (insert/delete
//!   churn cancels on arrival) and seals into a [`NetMultiset`];
//! * [`pass`] — the multi-pass driver trait tying streaming algorithms to
//!   streams (and, via [`pass::run_multiset`], to net multisets).
//!
//! # Examples
//!
//! ```
//! use dsg_graph::{gen, stream::GraphStream};
//!
//! let g = gen::erdos_renyi(100, 0.1, 7);
//! // A dynamic stream that inserts 3x the final edges and deletes 2/3.
//! let stream = GraphStream::with_churn(&g, 2.0, 99);
//! assert_eq!(stream.final_graph().edges().len(), g.edges().len());
//! ```

pub mod bfs;
pub mod compact;
pub mod components;
pub mod dijkstra;
pub mod gen;
pub mod graph;
pub mod ids;
pub mod multiset;
pub mod pass;
pub mod stream;

pub use compact::{CompactError, CompactedLog};
pub use graph::{Graph, WeightedGraph};
pub use ids::{index_to_pair, pair_to_index, Edge, Vertex};
pub use multiset::{EdgeMultiset, NetEdge, NetMultiset, SegmentDelta};
pub use pass::StreamAlgorithm;
pub use stream::{GraphStream, StreamUpdate};
