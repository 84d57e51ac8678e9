//! `LinearSketch` contract properties for [`AgmSketch`], the fifth
//! implementor (the other four live in `crates/sketch/tests/wire_props.rs`):
//! shard-split invariance and wire roundtrip, both down to canonical
//! snapshot bytes, plus forest-answer equality after a split. Also pins
//! that every implementor rejects frames of the retired kinds 5–7 and of
//! the retired wire version 2.

use dsg_agm::AgmSketch;
use dsg_graph::ids::num_pairs;
use dsg_graph::{index_to_pair, Edge};
use dsg_sketch::wire::{self, WireError};
use dsg_sketch::{DistinctEstimator, L0Sampler, LinearHashTable, LinearSketch, SparseRecovery};
use proptest::prelude::*;

const N: usize = 16;

/// Random signed edge-coordinate updates over a 16-vertex graph.
fn edge_updates() -> impl Strategy<Value = Vec<(u64, i64)>> {
    prop::collection::vec((0u64..num_pairs(N), -2i64..=2), 0..50)
}

proptest! {
    #[test]
    fn agm_shard_split_is_bit_identical(xs in edge_updates(), k in 1usize..=4, seed in 0u64..100) {
        let mut direct = AgmSketch::new(N, seed);
        let mut shards: Vec<AgmSketch> = (0..k).map(|_| AgmSketch::new(N, seed)).collect();
        for (i, &(coord, delta)) in xs.iter().enumerate() {
            let (u, v) = index_to_pair(coord, N);
            direct.update(Edge::new(u, v), delta as i128);
            shards[(i * 7 + i * i) % k].update(Edge::new(u, v), delta as i128);
        }
        let mut merged = shards.remove(0);
        for s in &shards {
            merged.merge(s);
        }
        prop_assert_eq!(merged.to_bytes(), direct.to_bytes());
        prop_assert_eq!(merged.spanning_forest().edges, direct.spanning_forest().edges);
    }

    #[test]
    fn agm_wire_roundtrip_behaves_identically(xs in edge_updates(), extra in edge_updates(), seed in 0u64..100) {
        let mut sk = AgmSketch::new(N, seed);
        for &(coord, delta) in &xs {
            let (u, v) = index_to_pair(coord, N);
            sk.update(Edge::new(u, v), delta as i128);
        }
        let bytes = sk.to_bytes();
        let mut back = AgmSketch::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.to_bytes(), bytes);
        for &(coord, delta) in &extra {
            let (u, v) = index_to_pair(coord, N);
            sk.update(Edge::new(u, v), delta as i128);
            back.update(Edge::new(u, v), delta as i128);
        }
        prop_assert_eq!(back.to_bytes(), sk.to_bytes());
        prop_assert_eq!(back.spanning_forest().edges, sk.spanning_forest().edges);
    }

    #[test]
    fn agm_peek_kind_reads_header_only(xs in edge_updates(), seed in 0u64..100) {
        let mut sk = AgmSketch::new(N, seed);
        for &(coord, delta) in &xs {
            let (u, v) = index_to_pair(coord, N);
            sk.update(Edge::new(u, v), delta as i128);
        }
        let snap = sk.to_bytes();
        let header = dsg_sketch::wire::peek_kind(&snap).unwrap();
        prop_assert_eq!(header.kind, dsg_sketch::wire::KIND_AGM);
        prop_assert_eq!(header.version, dsg_sketch::wire::VERSION);
        prop_assert_eq!(header.payload_len, snap.len() - dsg_sketch::wire::HEADER_BYTES);
    }

    #[test]
    fn agm_corrupted_snapshot_rejected(xs in edge_updates(), pos_frac in 0.0f64..1.0, seed in 0u64..50) {
        let mut sk = AgmSketch::new(N, seed);
        for &(coord, delta) in &xs {
            let (u, v) = index_to_pair(coord, N);
            sk.update(Edge::new(u, v), delta as i128);
        }
        let mut bytes = sk.to_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 0x2A;
        prop_assert!(AgmSketch::from_bytes(&bytes).is_err());
    }
}

/// Re-tags `S`'s own valid frame with each retired kind (checksum and
/// payload stay intact) and checks the decoder answers `WrongKind`.
fn check_rejects_retired_kinds<S: LinearSketch>(sketch: &S) {
    for retired in [
        wire::KIND_COUNTSKETCH,
        wire::KIND_GUARDED,
        wire::KIND_FINGERPRINT,
    ] {
        let mut frame = sketch.to_bytes();
        frame[6..8].copy_from_slice(&retired.to_le_bytes());
        match S::from_bytes(&frame) {
            Err(WireError::WrongKind { expected, found }) => {
                assert_eq!(expected, S::WIRE_KIND);
                assert_eq!(found, retired);
            }
            Err(other) => panic!("kind {retired}: expected WrongKind, got {other}"),
            Ok(_) => panic!("kind {retired} decoded as kind {}", S::WIRE_KIND),
        }
    }
}

/// Re-stamps `S`'s own valid frame as wire version 2 (the retired
/// trace-trailer format) and checks that the header peek and the decoder
/// both answer `BadVersion(2)`.
fn check_rejects_retired_version<S: LinearSketch>(sketch: &S) {
    let mut frame = sketch.to_bytes();
    frame[4..6].copy_from_slice(&wire::RETIRED_VERSION.to_le_bytes());
    assert_eq!(wire::peek_kind(&frame), Err(WireError::BadVersion(2)));
    match S::from_bytes(&frame) {
        Err(WireError::BadVersion(2)) => {}
        Err(other) => panic!("kind {}: expected BadVersion(2), got {other}", S::WIRE_KIND),
        Ok(_) => panic!("kind {} decoded a version-2 frame", S::WIRE_KIND),
    }
}

/// One small non-empty sketch of every implementor.
fn every_implementor() -> (
    AgmSketch,
    SparseRecovery,
    L0Sampler,
    DistinctEstimator,
    LinearHashTable,
) {
    let mut agm = AgmSketch::new(N, 3);
    agm.update(Edge::new(0, 1), 1);
    let mut sr = SparseRecovery::new(8, 3);
    sr.update(5, 2);
    let mut l0 = L0Sampler::new(6, 3);
    LinearSketch::update(&mut l0, 5, 2);
    let mut distinct = DistinctEstimator::new(6, 0.5, 3, 3);
    LinearSketch::update(&mut distinct, 5, 2);
    let mut table = LinearHashTable::new(8, 1, 3);
    LinearSketch::update(&mut table, 5, 2);
    (agm, sr, l0, distinct, table)
}

#[test]
fn retired_kinds_are_rejected_by_every_decoder() {
    let (agm, sr, l0, distinct, table) = every_implementor();
    check_rejects_retired_kinds(&agm);
    check_rejects_retired_kinds(&sr);
    check_rejects_retired_kinds(&l0);
    check_rejects_retired_kinds(&distinct);
    check_rejects_retired_kinds(&table);
}

#[test]
fn retired_version_is_rejected_by_every_decoder() {
    let (agm, sr, l0, distinct, table) = every_implementor();
    check_rejects_retired_version(&agm);
    check_rejects_retired_version(&sr);
    check_rejects_retired_version(&l0);
    check_rejects_retired_version(&distinct);
    check_rejects_retired_version(&table);
}
