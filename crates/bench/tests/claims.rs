//! The paper's exact claims, gated at quick scale: the counts the
//! reproduction suite prints for Theorem 1 (E2, E5) and Theorem 10 (E12)
//! must hold, not just print. These are counts, not timings, so they
//! repeat bit for bit on every host.

use dsg_bench::experiments::{sketch_exps, spanner_exps};
use dsg_bench::Scale;

const QUICK: Scale = Scale { quick: true };

/// E2 (Theorem 1): no trial's two-pass spanner stretches past `2^k`.
#[test]
fn e2_two_pass_stretch_within_2_pow_k() {
    let rows = spanner_exps::spanner_stretch(QUICK);
    assert!(!rows.is_empty());
    for r in &rows {
        assert_eq!(r.violations, 0, "{r:?}");
        assert!(r.max_stretch <= (1u64 << r.k) as f64, "{r:?}");
    }
}

/// E5 (Lemma 13): every level-`i` witness tree exists and has diameter
/// at most `2^{i+1} − 2`.
#[test]
fn e5_witness_diameters_within_lemma_13() {
    let rows = spanner_exps::cluster_diameter(QUICK);
    assert!(!rows.is_empty());
    for r in &rows {
        assert_eq!(r.violations, 0, "{r:?}");
        assert!(u64::from(r.max_diameter) <= r.bound, "{r:?}");
    }
}

/// E12 (Theorem 10): every AGM sketch decodes a spanning forest of the
/// live graph, under up to 3x deletion churn.
#[test]
fn e12_agm_forests_all_correct() {
    let rows = sketch_exps::agm_forest(QUICK);
    assert!(!rows.is_empty());
    for r in &rows {
        assert_eq!(r.correct, 1.0, "{r:?}");
    }
}
