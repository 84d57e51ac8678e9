//! Spanners in dynamic streams — the primary contribution of
//! Kapralov–Woodruff (PODC 2014).
//!
//! Three constructions:
//!
//! * [`TwoPassSpanner`] — the paper's headline Theorem 1: a **two-pass**
//!   streaming algorithm computing a multiplicative `2^k`-spanner in
//!   `~O(n^{1+1/k})` bits. Pass one (Algorithm 1) grows a hierarchy of
//!   clusters around vertex samples `C_0 ⊇ C_1 ⊇ … sampling rates
//!   n^{-i/k}` connected through sparse-recovery sketches; pass two
//!   (Algorithm 2) recovers one edge to every neighbor of each terminal
//!   cluster through linear hash tables.
//! * [`AdditiveSpanner`] — Theorem 3/19: a **single-pass** `O(n/d)`-additive
//!   spanner in `~O(nd)` space (Algorithm 3), combining per-vertex
//!   neighborhood sketches, a sampled center set, and AGM spanning forests
//!   on the cluster-contracted graph.
//! * [`offline`] — the non-streaming reference implementation of the basic
//!   clustering algorithm (Section 3.1), used for cross-validation, plus
//!   [`baswana_sen`], the classical `(2k-1)`-spanner the paper compares
//!   space/stretch/passes against.
//!
//! Supporting modules: [`cluster`] (the forest `F` with witness edges and
//!   terminal bookkeeping shared by both implementations), [`weighted`]
//!   (Remark 14's geometric weight classes), [`verify`] (stretch and
//!   distortion measurement), and the augmented-output machinery of
//!   Claims 16/18/20 that the sparsifier crate consumes
//!   ([`twopass::TwoPassOutput::observed_edges`]).
//!
//! # Examples
//!
//! ```
//! use dsg_graph::{gen, GraphStream, pass};
//! use dsg_spanner::{SpannerParams, TwoPassSpanner, verify};
//!
//! let g = gen::erdos_renyi(80, 0.15, 1);
//! let stream = GraphStream::with_churn(&g, 1.0, 2);
//! let mut alg = TwoPassSpanner::new(80, SpannerParams::new(2, 42));
//! pass::run(&mut alg, &stream);
//! let out = alg.into_output().unwrap();
//! let stretch = verify::max_multiplicative_stretch(&g, &out.spanner, 40);
//! assert!(stretch <= 4.0); // 2^k with k = 2
//! ```

#![deny(clippy::unwrap_used)]

pub mod additive;
pub mod baswana_sen;
pub mod cluster;
pub mod offline;
pub mod oracle;
pub mod params;
pub mod twopass;
pub mod verify;
pub mod weighted;

pub use additive::{AdditiveParams, AdditiveSpanner};
pub use cluster::{ClusterForest, NodeId};
pub use oracle::DistanceOracle;
pub use params::SpannerParams;
pub use twopass::{TwoPassOutput, TwoPassSpanner};
pub use weighted::WeightedTwoPassSpanner;
