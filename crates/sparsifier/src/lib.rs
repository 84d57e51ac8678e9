//! Spectral sparsification via random spanners in dynamic streams
//! (Corollary 2 of Kapralov–Woodruff, PODC 2014).
//!
//! The paper's second contribution: plugging the two-pass `2^k`-spanner
//! into the KP12 reduction ("spectral sparsification via random spanners")
//! yields the first two-pass `(1±eps)`-spectral sparsifier with
//! `n^{1+o(1)}/eps^4` bits. This crate implements the full pipeline and the
//! numerical machinery to *verify* it:
//!
//! * [`laplacian`] — graph Laplacians and quadratic forms;
//! * [`solver`] — conjugate-gradient Laplacian solves (the application
//!   domain: SDD systems, per the paper's motivation);
//! * [`eigen`] — a dense Jacobi eigensolver, used to measure the *exact*
//!   spectral approximation `eps = max |x^T L_H x / x^T L_G x − 1|` on
//!   experiment-scale graphs;
//! * [`spectral`] — the spectral-similarity measurements;
//! * [`resistance`] — exact effective resistances (Theorem 7's sampling
//!   probabilities);
//! * [`ss08`] — the Spielman–Srivastava sampling baseline (Theorem 7);
//! * [`estimate`] — Algorithm 4: robust-connectivity estimation
//!   `q̂_{ρ,λ}(e)` through spanner-based distance oracles on subsampled
//!   edge sets;
//! * [`kp12`] — Algorithms 5 and 6: sampling by augmented spanners and the
//!   sparsifier assembly (Theorem 21 / Lemma 22);
//! * [`pipeline`] — the end-to-end **two-pass streaming sparsifier**: all
//!   spanner instances (estimation oracles and sampling rounds) run
//!   simultaneously over the same two passes;
//! * [`cut`] — cut-preservation checks (spectral ⟹ cut).
//!
//! # Examples
//!
//! ```
//! use dsg_graph::gen;
//! use dsg_sparsifier::{laplacian::Laplacian, spectral};
//!
//! let g = gen::complete(12);
//! let wg = gen::with_random_weights(&g, 1.0, 1.0, 1);
//! let l = Laplacian::from_weighted(&wg);
//! // The quadratic form of an indicator vector is the cut weight.
//! let mut x = vec![0.0; 12];
//! for i in 0..6 { x[i] = 1.0; }
//! assert_eq!(l.quadratic_form(&x), 36.0); // 6×6 crossing edges
//! ```

#![deny(clippy::unwrap_used)]

pub mod cut;
pub mod eigen;
pub mod estimate;
pub mod kp12;
pub mod laplacian;
pub mod pipeline;
pub mod resistance;
pub mod solver;
pub mod spectral;
pub mod ss08;

pub use kp12::SparsifierParams;
pub use laplacian::Laplacian;
pub use pipeline::TwoPassSparsifier;
