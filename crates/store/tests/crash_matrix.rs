//! The crash matrix: the headline guarantee of the durability subsystem,
//! tested exhaustively.
//!
//! A crash can cut the write-ahead log at *any* byte — between records,
//! inside a record header, inside a payload. For **every** such
//! truncation offset of a tenant's final WAL segment, recovery must
//! (a) not panic and not over-read, and (b) produce a graph whose query
//! answers are bit-identical to an uninterrupted single-threaded run over
//! exactly the durable prefix — the complete records before the cut (plus
//! whatever an earlier checkpoint already covers).
//!
//! Alongside the matrix: checkpoint-corruption rejection properties
//! mirroring `crates/sketch/tests/wire_props.rs` (any bit flip or
//! truncation of the v3 checkpoint file — every per-shard compacted
//! segment and sketch frame included — is a typed [`StoreError::Frame`],
//! never a panic or a silent half-load), cross-shard consistency (the
//! shard segments a checkpoint persists are disjoint, correctly routed,
//! and concatenate to exactly the net multiset of the durable prefix), a
//! retired-format guard (a kind-9 raw-log or kind-10 global-segment
//! frame is the loud, typed [`StoreError::LegacyCheckpoint`], not a
//! panic or a silent skip), and WAL mid-log corruption (a fully present
//! record with a bad body is [`StoreError::CorruptLog`], never silently
//! skipped).

use dsg_graph::{gen, GraphStream, StreamUpdate};
use dsg_service::{GraphConfig, GraphRegistry, Query, Response};
use dsg_sketch::LinearSketch;
use dsg_store::wal::list_segments;
use dsg_store::{DurableRegistry, ScratchDir, StoreError, StoreOptions};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::Path;

const N: usize = 16;

fn config() -> GraphConfig {
    GraphConfig::new(N).seed(11).shards(2).batch_size(4)
}

/// A deterministic insert/delete stream over `N` vertices.
fn stream(seed: u64) -> Vec<StreamUpdate> {
    let g = gen::erdos_renyi(N, 0.3, seed);
    GraphStream::with_churn(&g, 1.0, seed ^ 0xD15C)
        .updates()
        .to_vec()
}

/// Copies every regular file of `src` into `dst` (tenant dirs are flat).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

/// Everything we compare between a recovered graph and its reference run:
/// canonical sketch bytes, the segment's union–find forest, the
/// ingest counter, and a spread of live query answers.
#[derive(Debug, PartialEq, Clone)]
struct Fingerprint {
    sketch: Vec<u8>,
    forest: Vec<dsg_graph::Edge>,
    total_updates: u64,
    answers: Vec<Response>,
}

fn fingerprint(snap: &dsg_service::EpochSnapshot) -> Fingerprint {
    let queries = [
        Query::Connectivity,
        Query::SameComponent(0, 5),
        Query::SameComponent(2, 11),
        Query::Distance(0, 9),
        Query::Distance(3, 14),
        Query::IsFar {
            u: 1,
            v: 12,
            threshold: 2,
        },
    ];
    Fingerprint {
        sketch: LinearSketch::to_bytes(snap.sketch()),
        forest: snap.forest().edges.clone(),
        total_updates: snap.total_updates(),
        answers: queries.iter().map(|q| snap.execute(q).unwrap()).collect(),
    }
}

/// The uninterrupted single-threaded run: one in-memory graph, one shard,
/// fed `updates` in one go.
fn reference(updates: &[StreamUpdate]) -> Fingerprint {
    let reg = GraphRegistry::new();
    let g = reg.create("ref", config().shards(1)).unwrap();
    g.apply(updates).unwrap();
    fingerprint(&g.advance_epoch())
}

/// Exhaustive matrix: one durable tenant with a mid-stream checkpoint,
/// then every byte-truncation of the final WAL segment.
#[test]
fn truncation_at_every_byte_recovers_exact_durable_prefix() {
    let updates = stream(3);
    let batches: Vec<&[StreamUpdate]> = updates.chunks(3).collect();
    assert!(
        batches.len() >= 8,
        "need a real tail, got {}",
        batches.len()
    );
    let pre = batches.len() / 2;

    // Write phase: pre-checkpoint batches (with one epoch advance),
    // checkpoint, then a tail of batches with another epoch advance —
    // tracking, for each complete tail record, the WAL offset where it
    // ends and how many stream updates are durable at that point.
    let src = ScratchDir::new("crash-matrix-src");
    let reg = DurableRegistry::open(src.path(), StoreOptions::default()).unwrap();
    let g = reg.create("t", config()).unwrap();
    let mut durable_count = 0usize;
    for (i, batch) in batches[..pre].iter().enumerate() {
        g.apply(batch).unwrap();
        durable_count += batch.len();
        if i == 1 {
            g.advance_epoch().unwrap();
        }
    }
    let stats = g.checkpoint().unwrap();
    assert_eq!(
        stats.wal_pos.offset, 0,
        "checkpoint sits at a segment start"
    );
    // (record end offset in the final segment, durable update count there)
    // The tail is kept short — 4 batches plus a marker — because the
    // matrix below re-runs recovery once per BYTE of it.
    let mut marks: Vec<(u64, usize)> = vec![(0, durable_count)];
    for (i, batch) in batches[pre..pre + 4].iter().enumerate() {
        g.apply(batch).unwrap();
        durable_count += batch.len();
        marks.push((g.wal_position().offset, durable_count));
        if i == 1 {
            g.advance_epoch().unwrap();
            // An epoch marker freezes no new updates.
            marks.push((g.wal_position().offset, durable_count));
        }
    }
    let tenant_dir = g.dir().to_path_buf();
    drop((g, reg)); // clean close; the matrix below re-tears it

    let (_, last_segment) = list_segments(&tenant_dir).unwrap().pop().unwrap();
    let full_len = std::fs::metadata(&last_segment).unwrap().len();
    assert_eq!(
        full_len,
        marks.last().unwrap().0,
        "marks must cover the segment"
    );

    // Reference fingerprints per durable update count, memoized — several
    // truncation offsets share a durable prefix.
    let mut references: HashMap<usize, Fingerprint> = HashMap::new();

    for cut in 0..=full_len {
        let scratch = ScratchDir::new("crash-matrix-cut");
        let dst = scratch.path().join("t");
        copy_dir(&tenant_dir, &dst);
        let seg = list_segments(&dst).unwrap().pop().unwrap().1;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let reg = DurableRegistry::open(scratch.path(), StoreOptions::default())
            .unwrap_or_else(|e| panic!("recovery must tolerate a cut at byte {cut}: {e}"));
        let report = &reg.recovery_report()[0];
        let at_boundary = marks.iter().any(|&(off, _)| off == cut);
        assert_eq!(
            report.torn_tail, !at_boundary,
            "torn-tail report wrong for cut at byte {cut}"
        );
        let durable = marks
            .iter()
            .filter(|&&(off, _)| off <= cut)
            .map(|&(_, count)| count)
            .max()
            .expect("mark 0 always qualifies");
        let g = reg.get("t").unwrap();
        let recovered = fingerprint(&g.advance_epoch().unwrap());
        let expected = references
            .entry(durable)
            .or_insert_with(|| reference(&updates[..durable]));
        assert_eq!(
            &recovered, expected,
            "cut at byte {cut} (durable prefix {durable} updates) diverged"
        );
    }
}

proptest! {
    /// Arbitrary streams, checkpoint positions, and cut points (record
    /// boundary plus a mid-record byte overhang): recovery always equals
    /// the uninterrupted single-threaded run of the durable prefix.
    #[test]
    fn arbitrary_prefix_recovery_is_bit_identical(
        seed in 0u64..12,
        checkpoint_after in 0usize..7,
        cut_record in 0usize..10,
        overhang in 0u64..24,
    ) {
        // 6 is the "no checkpoint at all" arm.
        let checkpoint_after = (checkpoint_after < 6).then_some(checkpoint_after);
        let updates = stream(seed);
        let batches: Vec<&[StreamUpdate]> = updates.chunks(4).collect();

        let src = ScratchDir::new("crash-prop-src");
        let reg = DurableRegistry::open(src.path(), StoreOptions::default()).unwrap();
        let g = reg.create("t", config()).unwrap();
        let mut marks: Vec<(u64, usize)> = vec![(0, 0)];
        let mut durable_count = 0usize;
        for (i, batch) in batches.iter().enumerate() {
            g.apply(batch).unwrap();
            durable_count += batch.len();
            marks.push((g.wal_position().offset, durable_count));
            if i % 3 == 2 {
                g.advance_epoch().unwrap();
                marks.push((g.wal_position().offset, durable_count));
            }
            if Some(i) == checkpoint_after {
                g.checkpoint().unwrap();
                // Checkpoint rotates to a fresh segment: restart marks.
                marks = vec![(0, durable_count)];
            }
        }
        let tenant_dir = g.dir().to_path_buf();
        drop((g, reg));

        // Pick a cut: a tracked record boundary plus a few bytes into the
        // next record (clamped to the segment).
        let (_, last_segment) = list_segments(&tenant_dir).unwrap().pop().unwrap();
        let full_len = std::fs::metadata(&last_segment).unwrap().len();
        let base = marks[cut_record.min(marks.len() - 1)].0;
        let cut = (base + overhang).min(full_len);

        let scratch = ScratchDir::new("crash-prop-cut");
        let dst = scratch.path().join("t");
        copy_dir(&tenant_dir, &dst);
        let seg = list_segments(&dst).unwrap().pop().unwrap().1;
        std::fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(cut).unwrap();

        let reg = DurableRegistry::open(scratch.path(), StoreOptions::default()).unwrap();
        let durable = marks
            .iter()
            .filter(|&&(off, _)| off <= cut)
            .map(|&(_, count)| count)
            .max()
            .expect("mark 0 always qualifies");
        let g = reg.get("t").unwrap();
        let recovered = fingerprint(&g.advance_epoch().unwrap());
        prop_assert_eq!(recovered, reference(&updates[..durable]));
    }

    /// Any single bit flip anywhere in a v3 checkpoint file — the header,
    /// any shard's compacted net-edge segment, any nested sketch frame —
    /// is rejected as a typed frame error, mirroring the corruption
    /// properties the sketch wire format is tested under. The churn
    /// prefix guarantees every shard's compacted segment is nonempty, so
    /// the flips have per-shard segment bytes to land in.
    #[test]
    fn checkpoint_bit_flips_are_rejected(byte_seed in 0usize..1000, bit in 0u8..8) {
        let scratch = ScratchDir::new("cp-flip");
        let reg = DurableRegistry::open(scratch.path(), StoreOptions::default()).unwrap();
        let g = reg.create("t", config()).unwrap();
        g.apply(&stream(5)[..20]).unwrap();
        g.checkpoint().unwrap();
        let dir = g.dir().to_path_buf();
        drop((g, reg));

        let cp = dsg_store::read_checkpoint(&dir).unwrap();
        for (i, shard) in cp.shards.iter().enumerate() {
            prop_assert!(
                shard.net.num_edges() > 0,
                "shard {i} segment empty — flips would miss per-shard bytes"
            );
        }

        let path = dir.join(dsg_store::CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = byte_seed % bytes.len();
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        match DurableRegistry::open(scratch.path(), StoreOptions::default()) {
            Err(StoreError::Frame(_)) => {}
            Err(other) => prop_assert!(false, "wrong error class for flipped byte {at}: {other}"),
            Ok(_) => prop_assert!(false, "corrupt checkpoint accepted (byte {at}, bit {bit})"),
        }
    }

    /// Truncating the checkpoint file at any length is rejected as a
    /// frame error (empty files included), never a panic or over-read.
    #[test]
    fn checkpoint_truncations_are_rejected(frac in 0.0f64..1.0) {
        let scratch = ScratchDir::new("cp-trunc");
        let reg = DurableRegistry::open(scratch.path(), StoreOptions::default()).unwrap();
        let g = reg.create("t", config()).unwrap();
        g.apply(&stream(6)[..20]).unwrap();
        g.checkpoint().unwrap();
        let dir = g.dir().to_path_buf();
        drop((g, reg));

        let path = dir.join(dsg_store::CHECKPOINT_FILE);
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() as f64) * frac) as usize; // strictly shorter
        std::fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert!(matches!(
            DurableRegistry::open(scratch.path(), StoreOptions::default()),
            Err(StoreError::Frame(_))
        ));
    }
}

/// Cross-shard consistency of the persisted layout: the per-shard
/// segments a checkpoint writes must (a) each hold only edges
/// `shard_for` routes to that shard — so recovery re-seeds every worker
/// with exactly the edges whose future updates it will see — and
/// (b) concatenate to exactly the net multiset of the durable prefix,
/// with no edge dropped, duplicated, or carrying residual churn.
#[test]
fn checkpoint_shard_segments_are_routed_and_sum_to_the_prefix() {
    let scratch = ScratchDir::new("cp-cross-shard");
    let shards = 3;
    let reg = DurableRegistry::open(scratch.path(), StoreOptions::default()).unwrap();
    let g = reg.create("t", config().shards(shards)).unwrap();
    let updates = stream(8);
    g.apply(&updates).unwrap();
    g.checkpoint().unwrap();
    let dir = g.dir().to_path_buf();
    drop((g, reg));

    let cp = dsg_store::read_checkpoint(&dir).unwrap();
    assert_eq!(cp.shards.len(), shards);
    for (i, shard) in cp.shards.iter().enumerate() {
        assert!(shard.net.num_edges() > 0, "shard {i} segment empty");
        for entry in shard.net.entries() {
            assert_eq!(
                dsg_engine::shard_for(entry.edge.index(N), shards),
                i,
                "{} persisted in shard {i}'s segment but routes elsewhere",
                entry.edge
            );
        }
    }
    // Σ shard segments = the durable prefix's net multiset, exactly.
    assert_eq!(
        cp.epoch_net(),
        dsg_graph::NetMultiset::from_updates(N, &updates),
        "concatenated shard segments diverge from the durable prefix"
    );
}

/// A checkpoint in either retired format — wire kind 9 (raw log) or
/// kind 10 (global-segment canonical factorization) — must fail recovery
/// with the loud, typed [`StoreError::LegacyCheckpoint`] — not a panic,
/// not a generic frame error, and certainly not a silent skip that would
/// "clean up" a tenant whose data is merely old.
#[test]
fn legacy_kind_checkpoint_fails_loudly() {
    for retired in [9u16, 10u16] {
        let scratch = ScratchDir::new(&format!("cp-legacy-kind-{retired}"));
        let reg = DurableRegistry::open(scratch.path(), StoreOptions::default()).unwrap();
        let g = reg.create("t", config()).unwrap();
        g.apply(&stream(9)[..20]).unwrap();
        g.checkpoint().unwrap();
        let dir = g.dir().to_path_buf();
        drop((g, reg));

        // Rewrite the frame header's kind tag to the retired kind (the
        // payload checksum does not cover the header, so the frame is
        // otherwise pristine — exactly what a real legacy file would
        // look like to the header peek).
        let path = dir.join(dsg_store::CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[6..8].copy_from_slice(&retired.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        match DurableRegistry::open(scratch.path(), StoreOptions::default()) {
            Err(StoreError::LegacyCheckpoint { kind, path }) => {
                assert_eq!(kind, retired);
                assert!(path.ends_with(dsg_store::CHECKPOINT_FILE));
            }
            Err(other) => panic!("wrong error class for a kind-{retired} checkpoint: {other}"),
            Ok(_) => panic!("kind-{retired} legacy checkpoint accepted"),
        }
        // The refusal must leave the tenant's files untouched.
        assert!(dir.join(dsg_store::CHECKPOINT_FILE).exists());
    }
}

/// A fully present WAL record with a corrupt body must fail recovery
/// loudly (it could resurface a stream the sketches never saw), unlike a
/// torn tail which is dropped silently.
#[test]
fn mid_log_corruption_fails_recovery_loudly() {
    let scratch = ScratchDir::new("wal-midflip");
    let reg = DurableRegistry::open(scratch.path(), StoreOptions::default()).unwrap();
    let g = reg.create("t", config()).unwrap();
    let updates = stream(7);
    for batch in updates.chunks(4).take(6) {
        g.apply(batch).unwrap();
    }
    let dir = g.dir().to_path_buf();
    drop((g, reg));

    let (_, seg) = list_segments(&dir).unwrap().pop().unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    // Flip a payload byte of the FIRST record: fully present, bad sum.
    bytes[20] ^= 0xFF;
    std::fs::write(&seg, &bytes).unwrap();
    assert!(matches!(
        DurableRegistry::open(scratch.path(), StoreOptions::default()),
        Err(StoreError::CorruptLog { .. })
    ));
}
