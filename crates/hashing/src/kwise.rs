//! `k`-wise independent polynomial hash families over `GF(2^61 - 1)`.
//!
//! A degree-`(k-1)` polynomial with uniformly random coefficients evaluated
//! at distinct points yields `k`-wise independent values — the classical
//! Wegman–Carter construction. The paper needs `O(1)`-wise independence for
//! its sparse-recovery hashes (Theorem 8) and notes that `O(log n)`-wise
//! independence suffices to generate the edge samples `E_j` (Section 3.2).

use crate::field;
use crate::rng::SplitMix64;
use dsg_util::SpaceUsage;

/// A hash function drawn from a `k`-wise independent family.
///
/// Maps `u64` keys (canonicalized into the field) to values uniform in
/// `[0, 2^61 - 1)`. For fixed random coefficients, any `k` distinct keys
/// receive independent uniform values over the draw of the function.
///
/// # Examples
///
/// ```
/// use dsg_hash::KWiseHash;
///
/// let h = KWiseHash::new(4, 42);
/// assert_eq!(h.hash(17), h.hash(17)); // deterministic
/// let g = KWiseHash::new(4, 43);
/// assert_ne!(h.hash(17), g.hash(17)); // seed-sensitive (whp)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWiseHash {
    /// Polynomial coefficients, constant term first. `coeffs.len() == k`.
    coeffs: Vec<u64>,
}

impl KWiseHash {
    /// Draws a function from the `k`-wise independent family using `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "independence parameter k must be at least 1");
        let mut rng = SplitMix64::new(seed);
        let coeffs = (0..k).map(|_| rng.next_below(field::P)).collect();
        Self { coeffs }
    }

    /// The independence parameter `k` of the family this was drawn from.
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// Evaluates the hash at `x`, returning a value in `[0, p)`.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        let x = field::canon(x);
        // Horner evaluation, highest-degree coefficient first.
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = field::add(field::mul(acc, x), c);
        }
        acc
    }

    /// Evaluates the hash and reduces it into `[0, m)`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[inline]
    pub fn hash_below(&self, x: u64, m: u64) -> u64 {
        assert!(m > 0, "range bound must be positive");
        ((self.hash(x) as u128 * m as u128) >> 61) as u64
    }

    /// Evaluates the hash as a uniform fraction in `[0, 1)`.
    #[inline]
    pub fn hash_unit(&self, x: u64) -> f64 {
        self.hash(x) as f64 / field::P as f64
    }
}

impl SpaceUsage for KWiseHash {
    fn space_bytes(&self) -> usize {
        self.coeffs.space_bytes()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn matches_naive_polynomial_evaluation() {
        let h = KWiseHash::new(5, 7);
        let x = 123_456u64;
        let mut expect = 0u64;
        let mut xp = 1u64;
        for &c in &h.coeffs {
            expect = field::add(expect, field::mul(c, xp));
            xp = field::mul(xp, x);
        }
        assert_eq!(h.hash(x), expect);
    }

    #[test]
    fn constant_family_is_constant() {
        let h = KWiseHash::new(1, 11);
        assert_eq!(h.hash(1), h.hash(2));
        assert_eq!(h.hash(3), h.hash(u64::MAX));
    }

    #[test]
    fn hash_below_in_range_and_roughly_uniform() {
        let h = KWiseHash::new(2, 3);
        let m = 16u64;
        let mut counts = HashMap::new();
        for x in 0..16_000u64 {
            let b = h.hash_below(x, m);
            assert!(b < m);
            *counts.entry(b).or_insert(0usize) += 1;
        }
        for b in 0..m {
            let c = counts.get(&b).copied().unwrap_or(0);
            assert!((700..1300).contains(&c), "bucket {b} has {c}");
        }
    }

    #[test]
    fn hash_unit_in_interval() {
        let h = KWiseHash::new(3, 5);
        for x in 0..100 {
            let u = h.hash_unit(x);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn pairwise_collision_rate_is_small() {
        // 2-wise independence => collision probability 1/p per pair; with
        // 2000 keys and p = 2^61 - 1, zero collisions are expected.
        let h = KWiseHash::new(2, 21);
        let mut seen = std::collections::HashSet::new();
        for x in 0..2000u64 {
            assert!(seen.insert(h.hash(x)), "collision at {x}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_independence_panics() {
        KWiseHash::new(0, 1);
    }

    #[test]
    fn space_counts_coefficients() {
        let h = KWiseHash::new(8, 2);
        assert_eq!(h.space_bytes(), 64);
    }
}
