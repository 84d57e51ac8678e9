//! Routing-invariance property tests for the edge-partitioned engine.
//!
//! The engine routes every update to `shard_for(key) % S`. By linearity
//! that choice is unobservable in the answer: for **every**
//! `LinearSketch` implementor, under churn-heavy permuted streams, the
//! hash-partitioned engine, a manual round-robin split, and one
//! single-threaded sketch of the whole stream must produce bit-identical
//! canonical wire bytes. On top of invariance, the suite pins the
//! partition itself: engine shard `i` must hold a sketch of *exactly*
//! the sub-stream of keys it owns — that locality is what makes churn
//! cancel in place.

use dsg_agm::AgmSketch;
use dsg_engine::{shard_for, EdgeUpdate, EngineConfig, ShardedEngine};
use dsg_sketch::{DistinctEstimator, L0Sampler, LinearHashTable, LinearSketch, SparseRecovery};
use proptest::prelude::*;

/// A small universe keeps collision and cancellation cases interesting.
fn updates() -> impl Strategy<Value = Vec<(u64, i64)>> {
    prop::collection::vec((0u64..64, -3i64..=3), 0..30)
}

/// Amplifies a stream with `churn` rounds of insert-then-delete per key
/// (net zero, so the final state is untouched but the history grows) and
/// permutes the result with a seeded Fisher–Yates shuffle. Two calls with
/// different `perm_seed`s are reorderings of the same multiset of
/// updates.
fn churned_permutation(base: &[(u64, i64)], churn: usize, perm_seed: u64) -> Vec<(u64, i64)> {
    let mut stream: Vec<(u64, i64)> = base.to_vec();
    for _ in 0..churn {
        for &(key, _) in base {
            stream.push((key, 1));
            stream.push((key, -1));
        }
    }
    let mut state = perm_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..stream.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 16) as usize % (i + 1);
        stream.swap(i, j);
    }
    stream
}

/// The three-way routing invariance check for one sketch type:
/// hash-partitioned engine ≡ manual round-robin split ≡ single sketch,
/// all as canonical bytes — plus per-shard locality against `shard_for`.
fn check_routing_invariance<S, F>(make: F, stream: &[(u64, i64)], k: usize)
where
    S: LinearSketch + Clone + Send + 'static,
    F: Fn() -> S,
{
    // Ground truth: one sketch of the whole stream, single-threaded.
    let mut direct = make();
    for &(key, delta) in stream {
        direct.update(key, delta as i128);
    }

    // Round-robin split: update i lands on sketch i % k. This was the
    // engine's old routing policy; linearity keeps it a valid partition.
    let mut rr: Vec<S> = (0..k).map(|_| make()).collect();
    for (i, &(key, delta)) in stream.iter().enumerate() {
        rr[i % k].update(key, delta as i128);
    }
    let mut rr_merged = rr.remove(0);
    for s in &rr {
        rr_merged.merge(s);
    }
    assert_eq!(
        rr_merged.to_bytes(),
        direct.to_bytes(),
        "round-robin split diverged from single sketch"
    );

    // Hash-partitioned engine: the real worker threads, small batches so
    // routing crosses many dispatch boundaries.
    let cfg = EngineConfig::new(k).batch_size(7);
    let mut engine = ShardedEngine::start(cfg, |_| make());
    for &(key, delta) in stream {
        engine.push(EdgeUpdate::new(key, delta as i128));
    }
    let run = engine.finish();

    // Locality: shard i's state must equal a sketch of exactly the keys
    // it owns under `shard_for` — not just merge to the right total.
    for (i, shard) in run.shards.iter().enumerate() {
        let mut owned = make();
        for &(key, delta) in stream {
            if shard_for(key, k) == i {
                owned.update(key, delta as i128);
            }
        }
        assert_eq!(
            shard.to_bytes(),
            owned.to_bytes(),
            "shard {i} does not hold exactly its owned sub-stream"
        );
    }

    let merged = run.merged().expect("k >= 1 shards");
    assert_eq!(
        merged.to_bytes(),
        direct.to_bytes(),
        "hash-partitioned engine diverged from single sketch"
    );
}

macro_rules! routing_properties {
    ($name:ident, $make:expr) => {
        proptest! {
            #[test]
            fn $name(
                xs in updates(),
                churn in 0usize..3,
                perm_seed in 0u64..1000,
                k in 1usize..=4,
                seed in 0u64..200,
            ) {
                let make = $make;
                let stream = churned_permutation(&xs, churn, perm_seed);
                check_routing_invariance(|| make(seed), &stream, k);
            }
        }
    };
}

routing_properties!(sparse_recovery_routing_invariant, |seed| {
    SparseRecovery::new(16, seed)
});
routing_properties!(l0_sampler_routing_invariant, |seed| L0Sampler::new(6, seed));
routing_properties!(distinct_routing_invariant, |seed| DistinctEstimator::new(
    6, 0.5, 3, seed
));
routing_properties!(hashtable_routing_invariant, |seed| LinearHashTable::new(
    32, 2, seed
));
routing_properties!(agm_routing_invariant, |seed| AgmSketch::new(16, seed));
