//! Bernoulli subset samplers: implicit random subsets of a key universe.
//!
//! The paper's constructions never materialize their random sets — `C_i`
//! (vertices at rate `n^{-i/k}`), `E_j` (edge coordinates at rate `2^{-j}`),
//! `Y_j`, `Z_r` — they only ever evaluate a membership predicate while
//! processing an update. [`SubsetSampler`] provides exactly that predicate,
//! backed by an `O(log n)`-wise independent hash so Chernoff-style
//! concentration (Claim 11 of the paper) applies.

use crate::field;
use crate::kwise::KWiseHash;
use dsg_util::SpaceUsage;

/// Default independence used by samplers; `O(log n)`-wise independence is
/// what the paper's concentration arguments consume, and 32 covers every
/// universe a 64-bit machine can index.
pub const DEFAULT_INDEPENDENCE: usize = 32;

/// An implicit random subset of `u64` keys: each key is a member
/// independently (k-wise) with a fixed probability.
///
/// # Examples
///
/// ```
/// use dsg_hash::SubsetSampler;
///
/// let s = SubsetSampler::new(42, 0.25);
/// let members = (0..8000u64).filter(|&x| s.contains(x)).count();
/// assert!((members as f64 - 2000.0).abs() < 250.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsetSampler {
    hash: KWiseHash,
    /// Membership iff `hash(x) < threshold`.
    threshold: u64,
}

impl SubsetSampler {
    /// Creates a sampler keeping each key with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]` or is NaN.
    pub fn new(seed: u64, rate: f64) -> Self {
        Self::with_independence(seed, rate, DEFAULT_INDEPENDENCE)
    }

    /// Creates a sampler with an explicit independence parameter.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]` or `independence == 0`.
    pub fn with_independence(seed: u64, rate: f64, independence: usize) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
        let threshold = (rate * field::P as f64).round() as u64;
        Self {
            hash: KWiseHash::new(independence, seed),
            threshold: threshold.min(field::P),
        }
    }

    /// Creates a sampler at rate `2^{-level}` (the paper's `E_j`, `Y_j`,
    /// `Z_r` sets).
    ///
    /// Levels of 61 or more produce the empty set (rate below `1/p`).
    pub fn at_rate_pow2(seed: u64, level: u32) -> Self {
        let threshold = if level >= 61 { 0 } else { field::P >> level };
        Self {
            hash: KWiseHash::new(DEFAULT_INDEPENDENCE, seed),
            threshold,
        }
    }

    /// Membership predicate.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.hash.hash(key) < self.threshold
    }

    /// The sampling rate as a fraction of the field size.
    pub fn rate(&self) -> f64 {
        self.threshold as f64 / field::P as f64
    }

    /// Materializes the members within `0..universe` (test/diagnostic use).
    pub fn members(&self, universe: u64) -> Vec<u64> {
        (0..universe).filter(|&x| self.contains(x)).collect()
    }
}

impl SpaceUsage for SubsetSampler {
    fn space_bytes(&self) -> usize {
        self.hash.space_bytes() + self.threshold.space_bytes()
    }
}

/// The hierarchy of samplers `E_0, …, E_L` at rates `2^0, …, 2^{-L}` used by
/// Algorithm 1 (where `L = log2 n^2`) and Algorithm 5.
///
/// Each level uses independent randomness, exactly as in the paper (the sets
/// are independent, *not* nested).
///
/// # Examples
///
/// ```
/// use dsg_hash::subset::GeometricSamplers;
///
/// let levels = GeometricSamplers::new(7, 10);
/// assert_eq!(levels.len(), 11); // levels 0..=10
/// assert!(levels.level(0).contains(123)); // rate 2^0 = 1: everything
/// ```
#[derive(Debug, Clone)]
pub struct GeometricSamplers {
    levels: Vec<SubsetSampler>,
}

impl GeometricSamplers {
    /// Creates samplers for levels `0..=max_level`.
    pub fn new(seed: u64, max_level: u32) -> Self {
        let root = crate::SeedTree::new(seed);
        let levels = (0..=max_level)
            .map(|j| SubsetSampler::at_rate_pow2(root.child(j as u64).seed(), j))
            .collect();
        Self { levels }
    }

    /// Number of levels (`max_level + 1`).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether there are no levels.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The sampler at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.len()`.
    pub fn level(&self, level: usize) -> &SubsetSampler {
        &self.levels[level]
    }

    /// Iterates over `(level, sampler)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &SubsetSampler)> {
        self.levels.iter().enumerate()
    }
}

impl SpaceUsage for GeometricSamplers {
    fn space_bytes(&self) -> usize {
        self.levels.iter().map(SpaceUsage::space_bytes).sum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn rate_zero_and_one_are_trivial() {
        let empty = SubsetSampler::new(1, 0.0);
        let full = SubsetSampler::new(1, 1.0);
        for x in 0..1000u64 {
            assert!(!empty.contains(x));
            assert!(full.contains(x));
        }
    }

    #[test]
    fn empirical_rate_close_to_nominal() {
        for (seed, rate) in [(1u64, 0.5f64), (2, 0.1), (3, 0.01)] {
            let s = SubsetSampler::new(seed, rate);
            let n = 100_000u64;
            let hits = (0..n).filter(|&x| s.contains(x)).count() as f64;
            let expect = rate * n as f64;
            let slack = 5.0 * expect.sqrt() + 5.0;
            assert!(
                (hits - expect).abs() < slack,
                "rate {rate}: hits {hits} expect {expect}"
            );
        }
    }

    #[test]
    fn pow2_levels_halve() {
        let n = 200_000u64;
        let mut prev = n as f64;
        for level in 1..6u32 {
            let s = SubsetSampler::at_rate_pow2(level as u64 * 31, level);
            let hits = (0..n).filter(|&x| s.contains(x)).count() as f64;
            assert!(
                (hits - prev / 2.0).abs() < 6.0 * (prev / 2.0).sqrt(),
                "level {level}: {hits} vs {}",
                prev / 2.0
            );
            prev = hits;
        }
    }

    #[test]
    fn very_deep_level_is_empty() {
        let s = SubsetSampler::at_rate_pow2(1, 61);
        assert_eq!(s.members(100_000).len(), 0);
        assert_eq!(s.rate(), 0.0);
    }

    #[test]
    fn different_seeds_give_different_sets() {
        let a = SubsetSampler::new(1, 0.5);
        let b = SubsetSampler::new(2, 0.5);
        let universe = 1000u64;
        let same = (0..universe)
            .filter(|&x| a.contains(x) == b.contains(x))
            .count();
        assert!(
            same < 650,
            "sets nearly identical across seeds: {same}/1000 agree"
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_rate_panics() {
        SubsetSampler::new(0, 1.5);
    }

    #[test]
    fn geometric_levels_independent() {
        let g = GeometricSamplers::new(11, 8);
        assert_eq!(g.len(), 9);
        // Levels are not nested: find a key in level 3 but not level 1.
        let found = (0..100_000u64).any(|x| g.level(3).contains(x) && !g.level(1).contains(x));
        assert!(found, "levels appear nested — they must be independent");
    }

    #[test]
    fn members_materializes_predicate() {
        let s = SubsetSampler::new(5, 0.3);
        let members = s.members(1000);
        for &m in &members {
            assert!(s.contains(m));
        }
        let count = (0..1000u64).filter(|&x| s.contains(x)).count();
        assert_eq!(members.len(), count);
    }
}
