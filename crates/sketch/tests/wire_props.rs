//! Property tests for the `LinearSketch` contract across the four
//! implementors in this crate:
//!
//! * **shard-split invariance** — any K-way partition of an update
//!   stream, sketched per-shard under the shared seed and merged, is
//!   bit-identical (canonical wire bytes) to one sketch of the whole
//!   stream;
//! * **wire roundtrip** — `from_bytes(to_bytes(s))` behaves identically
//!   to `s`: same bytes now, and same bytes after further updates;
//! * **header peek** — `wire::peek_kind` reads the kind/version/length
//!   of any snapshot without decoding it.
//!
//! `AgmSketch`, the fifth implementor, is covered by the same properties
//! in `crates/agm/tests/wire_props.rs`.

use dsg_sketch::{
    wire, DistinctEstimator, L0Sampler, LinearHashTable, LinearSketch, SparseRecovery,
};
use proptest::prelude::*;

/// A small universe keeps collision cases interesting.
fn updates() -> impl Strategy<Value = Vec<(u64, i64)>> {
    prop::collection::vec((0u64..64, -5i64..=5), 0..40)
}

/// Splits `updates` into `k` shards by a deterministic skewed rule,
/// sketches each shard, folds the shards together, and checks the result
/// is bit-identical to the unsharded sketch.
fn check_shard_split<S, F>(make: F, updates: &[(u64, i64)], k: usize)
where
    S: LinearSketch,
    F: Fn() -> S,
{
    let mut direct = make();
    let mut shards: Vec<S> = (0..k).map(|_| make()).collect();
    for (i, &(key, delta)) in updates.iter().enumerate() {
        direct.update(key, delta as i128);
        // Deliberately skewed assignment — linearity must not care.
        shards[(i * i + i / 3) % k].update(key, delta as i128);
    }
    let mut merged = shards.remove(0);
    for s in &shards {
        merged.merge(s);
    }
    assert_eq!(
        merged.to_bytes(),
        direct.to_bytes(),
        "{k}-way split diverged"
    );
}

/// Roundtrips `sketch` through the wire and checks behavioral identity:
/// identical bytes immediately, and identical bytes after both copies
/// ingest the same extra updates.
fn check_roundtrip<S: LinearSketch>(mut sketch: S, extra: &[(u64, i64)]) {
    let bytes = sketch.to_bytes();
    let mut back = S::from_bytes(&bytes).expect("roundtrip decodes");
    assert_eq!(back.to_bytes(), bytes, "re-serialization diverged");
    for &(key, delta) in extra {
        sketch.update(key, delta as i128);
        back.update(key, delta as i128);
    }
    assert_eq!(
        back.to_bytes(),
        sketch.to_bytes(),
        "roundtripped sketch behaves differently"
    );
}

/// Checks that [`wire::peek_kind`] on a snapshot reports the implementor's
/// `WIRE_KIND`, the current format version, and the exact payload length —
/// the header-only routing contract a snapshot registry relies on.
fn check_peek_kind<S: LinearSketch>(sketch: &S) {
    let snap = sketch.to_bytes();
    let header = wire::peek_kind(&snap).expect("snapshot frames always peek");
    assert_eq!(header.kind, S::WIRE_KIND, "kind tag mismatch");
    assert_eq!(header.version, wire::VERSION, "version mismatch");
    assert_eq!(
        header.payload_len,
        snap.len() - wire::HEADER_BYTES,
        "declared payload length mismatch"
    );
}

macro_rules! sketch_properties {
    ($split_name:ident, $roundtrip_name:ident, $peek_name:ident, $make:expr) => {
        proptest! {
            #[test]
            fn $split_name(xs in updates(), k in 1usize..=5, seed in 0u64..500) {
                let make = $make;
                check_shard_split(|| make(seed), &xs, k);
            }

            #[test]
            fn $roundtrip_name(xs in updates(), extra in updates(), seed in 0u64..500) {
                let make = $make;
                let mut sk = make(seed);
                for &(key, delta) in &xs {
                    LinearSketch::update(&mut sk, key, delta as i128);
                }
                check_roundtrip(sk, &extra);
            }

            #[test]
            fn $peek_name(xs in updates(), seed in 0u64..500) {
                let make = $make;
                let mut sk = make(seed);
                for &(key, delta) in &xs {
                    LinearSketch::update(&mut sk, key, delta as i128);
                }
                check_peek_kind(&sk);
            }
        }
    };
}

sketch_properties!(
    sparse_recovery_shard_split,
    sparse_recovery_roundtrip,
    sparse_recovery_peek_kind,
    |seed| SparseRecovery::new(16, seed)
);

sketch_properties!(
    l0_sampler_shard_split,
    l0_sampler_roundtrip,
    l0_sampler_peek_kind,
    |seed| { L0Sampler::new(6, seed) }
);

sketch_properties!(
    distinct_shard_split,
    distinct_roundtrip,
    distinct_peek_kind,
    |seed| { DistinctEstimator::new(6, 0.5, 3, seed) }
);

sketch_properties!(
    hashtable_shard_split,
    hashtable_roundtrip,
    hashtable_peek_kind,
    |seed| { LinearHashTable::new(32, 2, seed) }
);

proptest! {
    /// Decoded answers (not just bytes) survive the split+merge for the
    /// exact-recovery sketch.
    #[test]
    fn sparse_recovery_split_decodes_identically(xs in updates(), k in 1usize..=4, seed in 0u64..200) {
        let mut direct = SparseRecovery::new(64, seed);
        let mut shards: Vec<SparseRecovery> = (0..k).map(|_| SparseRecovery::new(64, seed)).collect();
        for (i, &(key, delta)) in xs.iter().enumerate() {
            direct.update(key, delta as i128);
            shards[i % k].update(key, delta as i128);
        }
        let mut merged = shards.remove(0);
        for s in &shards {
            merged.merge(s);
        }
        prop_assert_eq!(merged.decode(), direct.decode());
    }

    /// Truncating any snapshot must produce an error, never a sketch.
    #[test]
    fn truncated_snapshots_never_decode(xs in updates(), cut in 1usize..40, seed in 0u64..100) {
        let mut sk = SparseRecovery::new(16, seed);
        for &(key, delta) in &xs {
            sk.update(key, delta as i128);
        }
        let bytes = sk.to_bytes();
        let cut = cut.min(bytes.len());
        prop_assert!(SparseRecovery::from_bytes(&bytes[..bytes.len() - cut]).is_err());
    }

    /// Flipping any single byte must be caught by the checksum (or the
    /// header validation, if the flip lands there).
    #[test]
    fn corrupted_snapshots_never_decode(xs in updates(), pos_frac in 0.0f64..1.0, seed in 0u64..100) {
        let mut sk = SparseRecovery::new(16, seed);
        for &(key, delta) in &xs {
            sk.update(key, delta as i128);
        }
        let mut bytes = sk.to_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 0x2A;
        prop_assert!(SparseRecovery::from_bytes(&bytes).is_err());
    }
}
