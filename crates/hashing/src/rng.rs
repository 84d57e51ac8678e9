//! Seeded pseudorandom streams and hierarchical seed derivation.
//!
//! The paper indexes independent randomness by structured coordinates: the
//! sketch `S^{r,j}(u)` "uses random bits that are a function of `(r, j)`".
//! [`SeedTree`] reproduces that discipline: one root seed, with independent
//! child seeds derived along labelled paths, so two different paths yield
//! (computationally) independent generators and the same path always yields
//! the same bits.

/// `SplitMix64`: a tiny, high-quality 64-bit mixing PRNG.
///
/// Used for seed derivation and wherever a cheap deterministic stream of
/// 64-bit words is needed. Not a k-wise independent family — use
/// [`crate::KWiseHash`] when bounded independence matters for an analysis.
///
/// # Examples
///
/// ```
/// use dsg_hash::SplitMix64;
/// let mut a = SplitMix64::new(1);
/// let mut b = SplitMix64::new(1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // 128-bit multiply-shift; bias is < 2^-64, irrelevant at our scales.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a root seed and a path of labels.
///
/// The derivation is a sponge over SplitMix64 mixing: collision of two
/// different paths would require a 64-bit mixing collision. Deterministic:
/// the same `(root, path)` always yields the same seed.
///
/// # Examples
///
/// ```
/// use dsg_hash::derive_seed;
/// assert_eq!(derive_seed(9, &[1, 2]), derive_seed(9, &[1, 2]));
/// assert_ne!(derive_seed(9, &[1, 2]), derive_seed(9, &[2, 1]));
/// ```
pub fn derive_seed(root: u64, path: &[u64]) -> u64 {
    let mut acc = mix(root ^ 0xA076_1D64_78BD_642F);
    for (depth, &label) in path.iter().enumerate() {
        acc = mix(acc
            ^ mix(label
                .wrapping_add(0x2545_F491_4F6C_DD1D)
                .wrapping_mul(depth as u64 + 1)));
    }
    acc
}

/// A node in a reproducible tree of seeds.
///
/// Children are addressed by `u64` tags; the same tag always produces the
/// same child. This mirrors the paper's convention that each sketch family
/// `(r, j)` has its own independent random bits, all ultimately derived from
/// one shared seed (which the distributed servers "agree upon").
///
/// # Examples
///
/// ```
/// use dsg_hash::SeedTree;
/// let root = SeedTree::new(7);
/// let a = root.child(1).child(3);
/// let b = root.path(&[1, 3]);
/// assert_eq!(a.seed(), b.seed());
/// assert_ne!(root.child(1).seed(), root.child(2).seed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedTree {
    seed: u64,
}

impl SeedTree {
    /// Creates the root of a seed tree.
    pub fn new(seed: u64) -> Self {
        Self {
            seed: mix(seed ^ 0x9E6C_63D0_876A_68EE),
        }
    }

    /// The seed at this node.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The child node with the given tag.
    pub fn child(&self, tag: u64) -> SeedTree {
        SeedTree {
            seed: derive_seed(self.seed, &[tag]),
        }
    }

    /// Descends along a path of tags.
    pub fn path(&self, tags: &[u64]) -> SeedTree {
        let mut node = *self;
        for &t in tags {
            node = node.child(t);
        }
        node
    }

    /// A `SplitMix64` stream seeded at this node.
    pub fn rng(&self) -> SplitMix64 {
        SplitMix64::new(self.seed)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 0 from the canonical SplitMix64.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = SplitMix64::new(123);
        for _ in 0..1000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut g = SplitMix64::new(5);
        for _ in 0..1000 {
            assert!(g.next_below(10) < 10);
        }
        assert_eq!(g.next_below(1), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn derive_seed_is_deterministic_and_path_sensitive() {
        assert_eq!(derive_seed(1, &[]), derive_seed(1, &[]));
        assert_ne!(derive_seed(1, &[]), derive_seed(2, &[]));
        assert_ne!(derive_seed(1, &[0]), derive_seed(1, &[]));
        assert_ne!(derive_seed(1, &[0, 1]), derive_seed(1, &[1, 0]));
        // A single path element must differ from its concatenation.
        assert_ne!(derive_seed(1, &[5]), derive_seed(1, &[5, 5]));
    }

    #[test]
    fn seed_tree_children_independent() {
        let root = SeedTree::new(99);
        let mut seen = std::collections::HashSet::new();
        for tag in 0..1000u64 {
            assert!(
                seen.insert(root.child(tag).seed()),
                "collision at tag {tag}"
            );
        }
    }

    #[test]
    fn seed_tree_path_matches_chained_children() {
        let root = SeedTree::new(4);
        assert_eq!(root.path(&[]).seed(), root.seed());
        assert_eq!(
            root.path(&[9, 9, 9]).seed(),
            root.child(9).child(9).child(9).seed()
        );
    }

    #[test]
    fn rough_uniformity_of_stream() {
        // Sanity check: mean of 10k uniform draws is near 0.5.
        let mut g = SplitMix64::new(2024);
        let mean: f64 = (0..10_000).map(|_| g.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }
}
