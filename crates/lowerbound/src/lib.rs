//! The `Ω(nd)` lower bound for one-pass additive spanners (Theorem 4).
//!
//! The paper proves that any 1-pass streaming algorithm returning a spanner
//! with additive distortion `n/d` (success probability ≥ 6/7) needs
//! `Ω(nd)` bits, by reduction from the one-way INDEX communication problem:
//!
//! * **Alice** interprets her random bit string as `s = Θ(n/d)` disjoint
//!   `G(d, 1/2)` graphs and streams their edges through the algorithm,
//!   sending the algorithm's state (the "message") to Bob;
//! * **Bob**, holding an index — a designated pair `{U, V}` in block `J` —
//!   picks random pairs in the other blocks, streams the chaining path
//!   `{V_1, U_2}, {V_2, U_3}, …`, finishes the algorithm, and answers
//!   "`X_I = 1`" iff `{U, V}` appears in the returned spanner.
//!
//! Any low-distortion spanner must retain most designated pairs that are
//! real edges (they lie on the chained shortest path), so Bob succeeds with
//! probability ≥ 2/3 — forcing the state to carry `Ω(nd)` bits.
//!
//! This crate *plays* that game against the actual
//! [`dsg_spanner::AdditiveSpanner`]: [`protocol::play`] measures message
//! size (the algorithm's measured sketch bytes at the hand-off point) and
//! success probability, and [`instance`] generates the hard distribution.
//! Experiment E7 sweeps the space/success tradeoff the theorem predicts.

#![deny(clippy::unwrap_used)]

pub mod instance;
pub mod protocol;

pub use instance::HardInstance;
pub use protocol::{play, GameResult};
