//! Linear sketches for dynamic streams.
//!
//! This crate implements, from scratch, every sketching primitive consumed
//! by Kapralov–Woodruff's "Spanners and Sparsifiers in Dynamic Streams"
//! (PODC 2014):
//!
//! * [`OneSparseCell`] — exact recovery of 1-sparse signed vectors with a
//!   fingerprint test; the building block of everything below.
//! * [`SparseRecovery`] — the paper's `SKETCH_B` / `DECODE` pair
//!   (Theorem 8's role): a linear sketch from which any `B`-sparse vector is
//!   reconstructed exactly with high probability, and decoding failures are
//!   *detected*. Implemented as an invertible Bloom lookup table (IBLT) with
//!   peeling decode — same guarantee shape as the CM06 matrices the paper
//!   cites (see `DESIGN.md` for the substitution argument).
//! * [`LinearHashTable`] — the `H^u_j` structure of Algorithm 2: a linear
//!   hash table whose *values* are themselves small linear sketches, realized
//!   exactly as the paper outlines ("treating the sketches associated with
//!   nodes `v ∈ V` as poly(log n)-length bit numbers and sketching this
//!   vector").
//! * [`L0Sampler`] — samples a (near-)uniform nonzero coordinate of a
//!   dynamic vector; the primitive behind AGM spanning-forest sketches.
//! * [`DistinctEstimator`] — `(1±eps)` estimation of the number of distinct
//!   (nonzero) coordinates (Theorem 9's role, after KNW10), the degree
//!   estimator `d_u` in Algorithm 3.
//!
//! Every sketch is **linear**: it supports positive and negative updates,
//! and [`merge`](LinearSketch::merge)ing the sketches of two vectors gives
//! the sketch of their sum, bit for bit. Property tests in
//! `tests/linearity.rs` pin this down. The shared contract is the
//! [`LinearSketch`] trait, which also fixes the byte-level [`wire`] format
//! (`to_bytes`/`from_bytes`) that lets a shard ship its sketch to a
//! coordinator — the engine crate (`dsg-engine`) builds on exactly this.
//!
//! # Examples
//!
//! ```
//! use dsg_sketch::SparseRecovery;
//!
//! // Sketch a vector, delete most of it, recover what remains.
//! let mut sk = SparseRecovery::new(8, 42);
//! for i in 0..100u64 {
//!     sk.update(i, 1);
//! }
//! for i in 0..97u64 {
//!     sk.update(i, -1); // deletions
//! }
//! let mut support = sk.decode().unwrap();
//! support.sort();
//! assert_eq!(support, vec![(97, 1), (98, 1), (99, 1)]);
//! ```

#![deny(clippy::unwrap_used)]

pub mod distinct;
pub mod error;
pub mod hashtable;
pub mod l0;
pub mod onesparse;
pub mod ssparse;
pub mod wire;

pub use distinct::DistinctEstimator;
pub use error::DecodeError;
pub use hashtable::LinearHashTable;
pub use l0::L0Sampler;
pub use onesparse::{OneSparseCell, OneSparseVerdict};
pub use ssparse::SparseRecovery;
pub use wire::WireError;

use dsg_util::SpaceUsage;

/// The contract shared by every linear sketch in the workspace — and the
/// seam the sharded ingest engine (`dsg-engine`) plugs into.
///
/// A linear sketch is a linear function of a dynamic vector
/// `x ∈ Z^U`: [`update`](LinearSketch::update) adds `delta` to one
/// coordinate, and [`merge`](LinearSketch::merge)ing two sketches built
/// with the **same constructor parameters** (same seed, same shape) yields
/// bit-for-bit the sketch of the sum of their vectors. That exact property
/// is what makes the paper's distributed scenario work: shards sketch
/// disjoint sub-streams independently and a coordinator merges the
/// snapshots.
///
/// [`to_bytes`](LinearSketch::to_bytes) / [`from_bytes`](LinearSketch::from_bytes)
/// fix the versioned, checksummed [`wire`] format of a snapshot. Snapshots
/// carry parameters and linear state, never hash functions: randomness is
/// reconstructed deterministically from the shared seed (see the [`wire`]
/// module docs). Serialization is canonical — equal sketch states produce
/// equal bytes — so tests may compare snapshots directly.
///
/// Space accounting comes from the [`SpaceUsage`] supertrait.
///
/// # Examples
///
/// ```
/// use dsg_sketch::{LinearSketch, SparseRecovery};
///
/// let mut a = SparseRecovery::new(4, 7);
/// let mut b = SparseRecovery::new(4, 7); // same parameters: mergeable
/// a.update(10, 1);
/// b.update(20, 2);
/// a.merge(&b);
///
/// // Ship a snapshot and rebuild it elsewhere.
/// let bytes = a.to_bytes();
/// let back = SparseRecovery::from_bytes(&bytes).unwrap();
/// assert_eq!(back.decode().unwrap(), vec![(10, 1), (20, 2)]);
/// ```
pub trait LinearSketch: SpaceUsage + Sized {
    /// The [`wire`] kind tag identifying this sketch in snapshot headers.
    const WIRE_KIND: u16;

    /// Applies the update `x[key] += delta`. Zero deltas are no-ops.
    fn update(&mut self, key: u64, delta: i128);

    /// Adds `other` into `self` (the sketch of the vector sum).
    ///
    /// # Panics
    ///
    /// Panics if the sketches were built with different parameters or
    /// seeds — merging incompatible randomness would silently corrupt the
    /// state, so it is a programming error, not a recoverable one.
    fn merge(&mut self, other: &Self);

    /// Serializes the sketch into a self-contained wire frame.
    fn to_bytes(&self) -> Vec<u8>;

    /// Reconstructs a sketch from a wire frame produced by
    /// [`to_bytes`](LinearSketch::to_bytes).
    ///
    /// # Errors
    ///
    /// Any [`WireError`]: corruption, truncation, version or kind
    /// mismatch, or a structurally invalid payload.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError>;
}
