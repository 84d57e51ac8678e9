//! Exact recovery of 1-sparse signed vectors.
//!
//! A *1-sparse recovery cell* summarizes a dynamic vector `x ∈ Z^U` with
//! three words of state:
//!
//! * `total = Σ_i x_i` (exact, 128-bit),
//! * `key_sum = Σ_i x_i · i (mod p)`,
//! * `fingerprint = Σ_i x_i · h(i) (mod p)` for a 3-wise independent `h`.
//!
//! If `x` has exactly one nonzero coordinate `i*` with value `v`, then
//! `total = v` and `key_sum = v · i*`, so `i* = key_sum / total (mod p)`,
//! and the fingerprint check `fingerprint == total · h(i*)` rejects
//! multi-sparse vectors except with probability `O(1/p)` over `h`.
//!
//! Cells are the bucket payload of [`crate::SparseRecovery`] and are exposed
//! because the two-pass spanner (Algorithm 2 of the paper) stores one cell
//! per hash-table entry as the inner neighborhood sketch.

use crate::error::DecodeError;
use dsg_hash::field;
use dsg_hash::KWiseHash;
use dsg_util::SpaceUsage;

/// The outcome of inspecting a [`OneSparseCell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OneSparseVerdict {
    /// The summarized vector is (identically) zero.
    Zero,
    /// The vector is exactly 1-sparse: coordinate `key` holds `value`.
    One {
        /// The single nonzero coordinate.
        key: u64,
        /// Its value.
        value: i128,
    },
    /// The vector has two or more nonzero coordinates (or a vanishing
    /// modular total), so no single coordinate can be recovered.
    Many,
}

/// Linear 1-sparse recovery cell over keys in `[0, 2^61 - 1)`.
///
/// # Examples
///
/// ```
/// use dsg_sketch::{OneSparseCell, OneSparseVerdict};
/// use dsg_hash::KWiseHash;
///
/// let h = KWiseHash::new(3, 7);
/// let mut cell = OneSparseCell::new();
/// cell.update(123, 5, &h);
/// cell.update(999, 2, &h);
/// cell.update(999, -2, &h); // deletion cancels
/// assert_eq!(cell.verdict(&h), OneSparseVerdict::One { key: 123, value: 5 });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OneSparseCell {
    total: i128,
    key_sum: u64,
    fingerprint: u64,
}

impl OneSparseCell {
    /// Creates an empty (all-zero) cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies the update `x[key] += delta`.
    ///
    /// The fingerprint hash `h` must be the same 3-wise (or stronger)
    /// independent function for every update to this cell and to any cell
    /// this one will be merged with.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `key` is not a canonical field element.
    #[inline]
    pub fn update(&mut self, key: u64, delta: i128, h: &KWiseHash) {
        debug_assert!(key < field::P, "key {key} outside field range");
        let d = mod_p(delta);
        self.total += delta;
        self.key_sum = field::add(self.key_sum, field::mul(d, key));
        self.fingerprint = field::add(self.fingerprint, field::mul(d, h.hash(key)));
    }

    /// Adds another cell (sketch of the sum of the two vectors).
    #[inline]
    pub fn merge(&mut self, other: &OneSparseCell) {
        self.total += other.total;
        self.key_sum = field::add(self.key_sum, other.key_sum);
        self.fingerprint = field::add(self.fingerprint, other.fingerprint);
    }

    /// Subtracts another cell (sketch of the difference).
    #[inline]
    pub fn unmerge(&mut self, other: &OneSparseCell) {
        self.total -= other.total;
        self.key_sum = field::sub(self.key_sum, other.key_sum);
        self.fingerprint = field::sub(self.fingerprint, other.fingerprint);
    }

    /// Whether all state words are zero (the vector is zero unless a
    /// `1/p`-probability cancellation occurred).
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.total == 0 && self.key_sum == 0 && self.fingerprint == 0
    }

    /// Classifies the cell as zero, 1-sparse (recovering the coordinate), or
    /// many-sparse. `h` must match the hash used for updates.
    pub fn verdict(&self, h: &KWiseHash) -> OneSparseVerdict {
        if self.is_zero() {
            return OneSparseVerdict::Zero;
        }
        let v = mod_p(self.total);
        if v == 0 {
            // total ≡ 0 (mod p) but state nonzero: cannot invert.
            return OneSparseVerdict::Many;
        }
        let key = field::mul(self.key_sum, field::inv(v));
        let expect = field::mul(v, h.hash(key));
        if expect == self.fingerprint {
            OneSparseVerdict::One {
                key,
                value: self.total,
            }
        } else {
            OneSparseVerdict::Many
        }
    }

    /// Recovers the single nonzero coordinate, or an error.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Overloaded`] if the vector is not 0- or 1-sparse;
    /// a zero vector yields `Ok(None)`.
    pub fn decode(&self, h: &KWiseHash) -> Result<Option<(u64, i128)>, DecodeError> {
        match self.verdict(h) {
            OneSparseVerdict::Zero => Ok(None),
            OneSparseVerdict::One { key, value } => Ok(Some((key, value))),
            OneSparseVerdict::Many => Err(DecodeError::Overloaded),
        }
    }

    /// The raw state words `(total, key_sum, fingerprint)` — the wire
    /// representation of a cell.
    pub(crate) fn raw_parts(&self) -> (i128, u64, u64) {
        (self.total, self.key_sum, self.fingerprint)
    }

    /// Rebuilds a cell from raw state words.
    ///
    /// # Errors
    ///
    /// [`crate::WireError::Malformed`] if a field word is not canonical.
    pub(crate) fn from_raw_parts(
        total: i128,
        key_sum: u64,
        fingerprint: u64,
    ) -> Result<Self, crate::WireError> {
        if key_sum >= dsg_hash::field::P || fingerprint >= dsg_hash::field::P {
            return Err(crate::WireError::Malformed("non-canonical field word"));
        }
        Ok(Self {
            total,
            key_sum,
            fingerprint,
        })
    }

    /// Serializes the cell into three `i128` payload words (for embedding in
    /// a [`crate::LinearHashTable`], whose payload arithmetic is mod-p).
    pub fn to_words(self) -> [i128; 3] {
        [self.total, self.key_sum as i128, self.fingerprint as i128]
    }

    /// Reconstructs a cell from payload words recovered by a
    /// [`crate::LinearHashTable`].
    ///
    /// The table returns balanced lifts of field words, so all three words
    /// are re-canonicalized mod p. The `total` word is taken at face value,
    /// which is exact whenever the summarized vector's values have magnitude
    /// below `p/2` — guaranteed for edge multiplicities, which the stream
    /// model keeps non-negative and polynomially bounded.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Inconsistent`] if a word's magnitude reaches the field
    /// modulus scale, which indicates the payload was not an
    /// exactly-recovered cell.
    pub fn from_words(words: &[i128; 3]) -> Result<Self, DecodeError> {
        let p = field::P as i128;
        if words.iter().any(|w| w.abs() >= p) {
            return Err(DecodeError::Inconsistent);
        }
        Ok(Self {
            total: words[0],
            key_sum: mod_p(words[1]),
            fingerprint: mod_p(words[2]),
        })
    }
}

impl SpaceUsage for OneSparseCell {
    fn space_bytes(&self) -> usize {
        16 + 8 + 8
    }
}

/// Canonical field representative of a possibly-negative integer.
#[inline]
pub(crate) fn mod_p(x: i128) -> u64 {
    let p = field::P as i128;
    let r = x % p;
    if r < 0 {
        (r + p) as u64
    } else {
        r as u64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn h() -> KWiseHash {
        KWiseHash::new(3, 1234)
    }

    #[test]
    fn empty_cell_is_zero() {
        let cell = OneSparseCell::new();
        assert!(cell.is_zero());
        assert_eq!(cell.verdict(&h()), OneSparseVerdict::Zero);
        assert_eq!(cell.decode(&h()).unwrap(), None);
    }

    #[test]
    fn recovers_single_coordinate() {
        let h = h();
        let mut cell = OneSparseCell::new();
        cell.update(42, 7, &h);
        assert_eq!(
            cell.verdict(&h),
            OneSparseVerdict::One { key: 42, value: 7 }
        );
    }

    #[test]
    fn recovers_negative_value() {
        let h = h();
        let mut cell = OneSparseCell::new();
        cell.update(42, -3, &h);
        assert_eq!(
            cell.verdict(&h),
            OneSparseVerdict::One { key: 42, value: -3 }
        );
    }

    #[test]
    fn cancellation_returns_to_zero() {
        let h = h();
        let mut cell = OneSparseCell::new();
        for i in 0..50u64 {
            cell.update(i, i as i128 + 1, &h);
        }
        for i in 0..50u64 {
            cell.update(i, -(i as i128 + 1), &h);
        }
        assert!(cell.is_zero());
    }

    #[test]
    fn two_sparse_detected() {
        let h = h();
        let mut cell = OneSparseCell::new();
        cell.update(1, 1, &h);
        cell.update(2, 1, &h);
        assert_eq!(cell.verdict(&h), OneSparseVerdict::Many);
        assert_eq!(cell.decode(&h), Err(DecodeError::Overloaded));
    }

    #[test]
    fn many_sparse_detected_across_scales() {
        let h = h();
        for support in [3usize, 10, 100] {
            let mut cell = OneSparseCell::new();
            for i in 0..support as u64 {
                cell.update(i * 17 + 3, 2, &h);
            }
            assert_eq!(
                cell.verdict(&h),
                OneSparseVerdict::Many,
                "support {support}"
            );
        }
    }

    #[test]
    fn merge_is_linear() {
        let h = h();
        let mut a = OneSparseCell::new();
        let mut b = OneSparseCell::new();
        a.update(5, 2, &h);
        a.update(9, 1, &h);
        b.update(9, -1, &h);
        a.merge(&b);
        assert_eq!(a.verdict(&h), OneSparseVerdict::One { key: 5, value: 2 });
    }

    #[test]
    fn unmerge_inverts_merge() {
        let h = h();
        let mut a = OneSparseCell::new();
        a.update(5, 2, &h);
        let snapshot = a;
        let mut b = OneSparseCell::new();
        b.update(77, 4, &h);
        a.merge(&b);
        a.unmerge(&b);
        assert_eq!(a, snapshot);
    }

    #[test]
    fn words_roundtrip() {
        let h = h();
        let mut cell = OneSparseCell::new();
        cell.update(1000, -9, &h);
        let words = cell.to_words();
        let back = OneSparseCell::from_words(&words).unwrap();
        assert_eq!(back, cell);
    }

    #[test]
    fn from_words_canonicalizes_balanced_lifts() {
        // A balanced lift -1 represents the field word p-1.
        let words = [2i128, -1, 3];
        let cell = OneSparseCell::from_words(&words).unwrap();
        assert_eq!(cell.key_sum, field::P - 1);
        assert_eq!(cell.fingerprint, 3);
        assert_eq!(cell.total, 2);
    }

    #[test]
    fn from_words_rejects_modulus_scale() {
        let words = [0i128, field::P as i128, 0];
        assert_eq!(
            OneSparseCell::from_words(&words),
            Err(DecodeError::Inconsistent)
        );
    }

    #[test]
    fn mod_p_handles_negatives() {
        assert_eq!(mod_p(-1), field::P - 1);
        assert_eq!(mod_p(0), 0);
        assert_eq!(mod_p(field::P as i128), 0);
        assert_eq!(mod_p(-(field::P as i128)), 0);
    }

    #[test]
    fn space_is_constant() {
        assert_eq!(OneSparseCell::new().space_bytes(), 32);
    }
}
