//! AGM graph sketches: spanning forests from linear measurements.
//!
//! Theorem 10 of Kapralov–Woodruff cites the Ahn–Guha–McGregor connectivity
//! sketch: "a single-pass, linear sketch-based algorithm supporting edge
//! additions and deletions that uses `O(n log^3 n)` space and returns a
//! spanning forest of the graph with high probability". This crate builds
//! that sketch from scratch:
//!
//! * [`incidence`] — the signed vertex-incidence encoding. Vertex `u`'s
//!   sketch summarizes the vector `a_u` with `a_u[(u,v)] = +1` if `u < v`
//!   and `-1` if `u > v` for each incident edge; summing the vectors of a
//!   vertex set `S` cancels internal edges, leaving exactly the boundary
//!   `∂S` — the property that makes supernode contraction free.
//! * [`forest::AgmSketch`] — per-vertex L0-sampler states over `O(log n)`
//!   independent rounds, with Borůvka-style forest extraction
//!   ([`forest::AgmSketch::spanning_forest`]), supernode partitions (used by
//!   the paper's Algorithm 3 to contract clusters), and edge-set subtraction
//!   by linearity (used to remove `E_low` before the contracted forest is
//!   computed).
//!
//! # Examples
//!
//! ```
//! use dsg_agm::AgmSketch;
//! use dsg_graph::{gen, components::is_spanning_forest};
//!
//! let g = gen::erdos_renyi(60, 0.1, 3);
//! let mut sk = AgmSketch::new(60, 42);
//! for e in g.edges() {
//!     sk.update(*e, 1);
//! }
//! let forest = sk.spanning_forest();
//! assert!(is_spanning_forest(&g, &forest.edges));
//! ```

#![deny(clippy::unwrap_used)]

pub mod forest;
pub mod incidence;

pub use forest::{AgmSketch, ForestResult};
