//! Property tests for the hashing substrate: field axioms, hash family
//! determinism, and sampler distributional sanity.

use dsg_hash::{derive_seed, field, KWiseHash, SeedTree, SubsetSampler};
use proptest::prelude::*;

fn felt() -> impl Strategy<Value = u64> {
    0u64..field::P
}

proptest! {
    #[test]
    fn field_addition_group(a in felt(), b in felt(), c in felt()) {
        // Associativity, commutativity, identity, inverse.
        prop_assert_eq!(field::add(field::add(a, b), c), field::add(a, field::add(b, c)));
        prop_assert_eq!(field::add(a, b), field::add(b, a));
        prop_assert_eq!(field::add(a, 0), a);
        prop_assert_eq!(field::add(a, field::sub(0, a)), 0);
    }

    #[test]
    fn field_multiplication_ring(a in felt(), b in felt(), c in felt()) {
        prop_assert_eq!(field::mul(field::mul(a, b), c), field::mul(a, field::mul(b, c)));
        prop_assert_eq!(field::mul(a, b), field::mul(b, a));
        prop_assert_eq!(field::mul(a, 1), a);
        // Distributivity.
        prop_assert_eq!(
            field::mul(a, field::add(b, c)),
            field::add(field::mul(a, b), field::mul(a, c))
        );
    }

    #[test]
    fn field_inverse_is_inverse(a in 1u64..field::P) {
        prop_assert_eq!(field::mul(a, field::inv(a)), 1);
    }

    #[test]
    fn pow_is_repeated_multiplication(a in felt(), e in 0u64..32) {
        let mut expect = 1u64;
        for _ in 0..e {
            expect = field::mul(expect, a);
        }
        prop_assert_eq!(field::pow(a, e), expect);
    }

    #[test]
    fn kwise_hash_deterministic_and_in_range(k in 1usize..8, seed in any::<u64>(), x in any::<u64>()) {
        let h1 = KWiseHash::new(k, seed);
        let h2 = KWiseHash::new(k, seed);
        let v = h1.hash(x);
        prop_assert_eq!(v, h2.hash(x));
        prop_assert!(v < field::P);
        prop_assert!(h1.hash_unit(x) < 1.0);
    }

    #[test]
    fn hash_below_stays_below(m in 1u64..1_000_000, x in any::<u64>(), seed in any::<u64>()) {
        let h = KWiseHash::new(3, seed);
        prop_assert!(h.hash_below(x, m) < m);
    }

    #[test]
    fn seed_tree_paths_are_consistent(seed in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let root = SeedTree::new(seed);
        prop_assert_eq!(root.child(a).child(b).seed(), root.path(&[a, b]).seed());
        if a != b {
            prop_assert_ne!(root.child(a).seed(), root.child(b).seed());
        }
    }

    #[test]
    fn derive_seed_depends_on_every_label(seed in any::<u64>(), path in prop::collection::vec(any::<u64>(), 1..5), flip in 0usize..5) {
        let base = derive_seed(seed, &path);
        let mut mutated = path.clone();
        let i = flip % path.len();
        mutated[i] = mutated[i].wrapping_add(1);
        prop_assert_ne!(base, derive_seed(seed, &mutated));
    }

    #[test]
    fn subset_sampler_membership_deterministic(seed in any::<u64>(), rate in 0.0f64..1.0, x in any::<u64>()) {
        let s1 = SubsetSampler::new(seed, rate);
        let s2 = SubsetSampler::new(seed, rate);
        prop_assert_eq!(s1.contains(x), s2.contains(x));
    }
}

/// Chi-square-flavored uniformity check: not a proptest (needs many
/// samples), but a distributional property worth pinning.
#[test]
fn kwise_hash_bucket_chi_square() {
    let h = KWiseHash::new(4, 2024);
    let buckets = 64u64;
    let samples = 64_000u64;
    let mut counts = vec![0f64; buckets as usize];
    for x in 0..samples {
        counts[h.hash_below(x, buckets) as usize] += 1.0;
    }
    let expected = samples as f64 / buckets as f64;
    let chi2: f64 = counts
        .iter()
        .map(|c| (c - expected).powi(2) / expected)
        .sum();
    // 63 degrees of freedom: mean 63, sd ~11.2; allow 6 sigma.
    assert!(chi2 < 63.0 + 6.0 * 11.2, "chi2={chi2}");
}

/// Pairwise independence smoke test: the joint distribution of
/// (h(x) mod 2, h(y) mod 2) is near-uniform over 4 cells.
#[test]
fn kwise_hash_pairwise_bits() {
    let trials = 4000;
    let mut cells = [0usize; 4];
    for seed in 0..trials {
        let h = KWiseHash::new(2, seed);
        let a = (h.hash(12345) & 1) as usize;
        let b = (h.hash(67890) & 1) as usize;
        cells[a * 2 + b] += 1;
    }
    for (i, &c) in cells.iter().enumerate() {
        let expect = trials as usize / 4;
        assert!(c.abs_diff(expect) < expect / 4, "cell {i}: {c} vs {expect}");
    }
}
