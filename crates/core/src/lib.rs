//! # Dynamic-stream graph spanners and sparsifiers
//!
//! A from-scratch Rust implementation of **"Spanners and Sparsifiers in
//! Dynamic Streams"** (Kapralov–Woodruff, PODC 2014), together with every
//! substrate the paper builds on: linear graph sketches (AGM), sparse
//! recovery, L0 sampling, distinct-elements estimation, k-wise independent
//! hashing, and the spectral machinery to verify sparsifiers exactly.
//!
//! ## The model
//!
//! A graph on `n` vertices arrives as a stream of **edge insertions and
//! deletions**; an algorithm keeps only a small linear sketch of the
//! stream. The headline results reproduced here:
//!
//! | Result | Object | Passes | Space |
//! |---|---|---|---|
//! | Theorem 1 | `2^k`-spanner | 2 | `~O(n^{1+1/k})` |
//! | Corollary 2 | `(1±eps)`-spectral sparsifier | 2 | `n^{1+o(1)}/eps^4` |
//! | Theorem 3 | `O(n/d)`-additive spanner | 1 | `~O(nd)` |
//! | Theorem 4 | lower bound for the above | 1 | `Ω(nd)` |
//!
//! ## Quick start
//!
//! ```
//! use dsg_core::prelude::*;
//!
//! // A graph arrives as a dynamic stream with deletions…
//! let graph = gen::erdos_renyi(100, 0.1, 7);
//! let stream = GraphStream::with_churn(&graph, 1.0, 8);
//!
//! // …and two passes of sketching produce a 4-spanner (k = 2).
//! let spanner = SpannerBuilder::new(100)
//!     .stretch_exponent(2)
//!     .seed(42)
//!     .build_from_stream(&stream);
//!
//! let stretch = verify::max_multiplicative_stretch(&graph, &spanner.spanner, 50);
//! assert!(stretch <= 4.0);
//! ```
//!
//! The crates re-exported here can also be used directly: [`sketch`] for
//! the linear-sketch toolbox, [`agm`] for spanning-forest sketches,
//! [`spanner`] and [`sparsifier`] for the paper's algorithms, and
//! [`lowerbound`] for the Theorem-4 communication game.

#![deny(clippy::unwrap_used)]

pub use dsg_agm as agm;
pub use dsg_graph as graph;
pub use dsg_hash as hash;
pub use dsg_lowerbound as lowerbound;
pub use dsg_sketch as sketch;
pub use dsg_spanner as spanner;
pub use dsg_sparsifier as sparsifier;
pub use dsg_util as util;

pub mod builders;
pub mod engine;

pub use builders::{AdditiveSpannerBuilder, SpannerBuilder, SparsifierBuilder};
pub use engine::EngineBuilder;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use crate::builders::{AdditiveSpannerBuilder, SpannerBuilder, SparsifierBuilder};
    pub use crate::engine::EngineBuilder;
    pub use dsg_graph::{
        gen, Edge, Graph, GraphStream, StreamAlgorithm, StreamUpdate, Vertex, WeightedGraph,
    };
    pub use dsg_sketch::LinearSketch;
    pub use dsg_spanner::{verify, AdditiveParams, SpannerParams};
    pub use dsg_sparsifier::{Laplacian, SparsifierParams};
    pub use dsg_util::{SpaceUsage, Summary, Table};
}
