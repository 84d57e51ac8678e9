//! Property tests pinning down the linearity and correctness contracts of
//! every sketch: `sketch(x) + sketch(y) == sketch(x + y)` bit-for-bit, and
//! decode inverts sketch on within-budget supports.

use dsg_sketch::{DistinctEstimator, L0Sampler, LinearHashTable, LinearSketch, SparseRecovery};
use proptest::prelude::*;
use std::collections::HashMap;

/// A small universe keeps collision cases interesting.
fn updates() -> impl Strategy<Value = Vec<(u64, i64)>> {
    prop::collection::vec((0u64..64, -5i64..=5), 0..40)
}

/// Applies updates to a map, dropping zeroed coordinates.
fn apply(updates: &[(u64, i64)]) -> HashMap<u64, i128> {
    let mut m: HashMap<u64, i128> = HashMap::new();
    for &(k, v) in updates {
        *m.entry(k).or_insert(0) += v as i128;
    }
    m.retain(|_, v| *v != 0);
    m
}

proptest! {
    #[test]
    fn sparse_recovery_merge_equals_direct(xs in updates(), ys in updates(), seed in 0u64..1000) {
        let mut a = SparseRecovery::new(64, seed);
        let mut b = SparseRecovery::new(64, seed);
        let mut direct = SparseRecovery::new(64, seed);
        for &(k, v) in &xs {
            a.update(k, v as i128);
            direct.update(k, v as i128);
        }
        for &(k, v) in &ys {
            b.update(k, v as i128);
            direct.update(k, v as i128);
        }
        a.merge(&b);
        prop_assert_eq!(a.decode(), direct.decode());
    }

    #[test]
    fn sparse_recovery_decode_inverts_sketch(xs in updates(), seed in 0u64..1000) {
        // Budget 64 over a 64-key universe: decode must always succeed.
        let mut sk = SparseRecovery::new(64, seed);
        for &(k, v) in &xs {
            sk.update(k, v as i128);
        }
        let expect = apply(&xs);
        let got = sk.decode().expect("within budget");
        let got_map: HashMap<u64, i128> = got.into_iter().collect();
        prop_assert_eq!(got_map, expect);
    }

    #[test]
    fn sparse_recovery_unmerge_cancels(xs in updates(), seed in 0u64..1000) {
        let mut a = SparseRecovery::new(64, seed);
        let mut b = SparseRecovery::new(64, seed);
        for &(k, v) in &xs {
            a.update(k, v as i128);
            b.update(k, v as i128);
        }
        a.unmerge(&b);
        prop_assert!(a.is_zero());
    }

    #[test]
    fn hashtable_decode_matches_model(xs in prop::collection::vec((0u64..32, -3i64..=3, -3i64..=3), 0..30), seed in 0u64..1000) {
        let mut t = LinearHashTable::new(32, 2, seed);
        let mut model: HashMap<u64, (i128, i128)> = HashMap::new();
        for &(k, v0, v1) in &xs {
            t.update(k, &[v0 as i128, v1 as i128]);
            let e = model.entry(k).or_insert((0, 0));
            e.0 += v0 as i128;
            e.1 += v1 as i128;
        }
        model.retain(|_, v| v.0 != 0 || v.1 != 0);
        let got = t.decode().expect("within capacity");
        let got_map: HashMap<u64, (i128, i128)> =
            got.into_iter().map(|(k, p)| (k, (p[0], p[1]))).collect();
        prop_assert_eq!(got_map, model);
    }

    #[test]
    fn hashtable_merge_equals_direct(xs in prop::collection::vec((0u64..32, -3i64..=3), 0..20), ys in prop::collection::vec((0u64..32, -3i64..=3), 0..20), seed in 0u64..1000) {
        let mut a = LinearHashTable::new(32, 1, seed);
        let mut b = LinearHashTable::new(32, 1, seed);
        let mut direct = LinearHashTable::new(32, 1, seed);
        for &(k, v) in &xs {
            a.update(k, &[v as i128]);
            direct.update(k, &[v as i128]);
        }
        for &(k, v) in &ys {
            b.update(k, &[v as i128]);
            direct.update(k, &[v as i128]);
        }
        a.merge(&b);
        prop_assert_eq!(a.decode(), direct.decode());
    }

    #[test]
    fn l0_sampler_returns_true_support(xs in updates(), seed in 0u64..200) {
        let mut s = L0Sampler::new(6, seed);
        for &(k, v) in &xs {
            s.update(k, v as i128);
        }
        let model = apply(&xs);
        match s.sample() {
            Ok(None) => prop_assert!(model.is_empty(), "sampler said zero but support={}", model.len()),
            Ok(Some((k, v))) => {
                prop_assert_eq!(model.get(&k).copied(), Some(v), "sampled wrong value");
            }
            Err(_) => {
                // Allowed whp-failure; must only happen on nonzero vectors.
                prop_assert!(!model.is_empty());
            }
        }
    }

    #[test]
    fn distinct_estimator_exact_when_small(xs in updates(), seed in 0u64..200) {
        let mut d = DistinctEstimator::new(6, 0.5, 3, seed);
        for &(k, v) in &xs {
            d.update(k, v as i128);
        }
        let support = apply(&xs).len() as u64;
        // Budget 16 over a 64-key universe: level 0 decodes whenever
        // support ≤ 16, giving the exact count.
        if support <= 16 {
            prop_assert_eq!(d.estimate().unwrap(), support);
        }
    }
}
