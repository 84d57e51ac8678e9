//! Seeded hashing and pseudorandomness for dynamic-stream graph sketching.
//!
//! Every algorithm in Kapralov–Woodruff's "Spanners and Sparsifiers in
//! Dynamic Streams" (PODC 2014) consumes structured randomness:
//!
//! * the cluster center sets `C_i` are vertex samples at rate `n^{-i/k}`;
//! * the edge sets `E_j` and vertex sets `Y_j`, `Z_r` are samples at rate
//!   `2^{-j}`;
//! * every `SKETCH^{r,j}` instance uses "random bits that are a function of
//!   `(r, j)`, and independent for different `(r, j)`".
//!
//! This crate provides those primitives from scratch:
//!
//! * [`field`] — arithmetic in the Mersenne-prime field `GF(2^61 - 1)`;
//! * [`kwise`] — `k`-wise independent polynomial hash families over that
//!   field (the paper notes `O(log n)`-wise independence suffices for the
//!   sets `E_j`);
//! * [`rng`] — `SplitMix64` mixing and hierarchical seed derivation
//!   ([`SeedTree`]), so the whole system is reproducible from one `u64`;
//! * [`subset`] — Bernoulli subset samplers implementing the membership
//!   predicates above without materializing the sets.
//!
//! Section 6.3's derandomization (Nisan's PRG) is not implemented: every
//! family here is seeded from one `u64` through [`SeedTree`], so no large
//! random tape is ever stored (see `DESIGN.md`, "Derandomization").
//!
//! # Examples
//!
//! ```
//! use dsg_hash::{SeedTree, subset::SubsetSampler};
//!
//! let root = SeedTree::new(42);
//! // The paper's E_j: each potential edge kept with probability 2^-j.
//! let e3 = SubsetSampler::at_rate_pow2(root.child(7).seed(), 3);
//! let kept = (0u64..10_000).filter(|&x| e3.contains(x)).count();
//! assert!((kept as f64 - 1250.0).abs() < 200.0);
//! ```

#![deny(clippy::unwrap_used)]

pub mod field;
pub mod kwise;
pub mod rng;
pub mod subset;

pub use kwise::KWiseHash;
pub use rng::{derive_seed, SeedTree, SplitMix64};
pub use subset::SubsetSampler;
