//! Sketch checkpoints: the full durable state of one tenant in one
//! atomically-renamed file.
//!
//! A checkpoint is a `dsg_sketch::wire` frame of kind
//! [`wire::KIND_CHECKPOINT_V3`] — a frame *of* frames. Its payload holds
//! the graph's configuration, the epoch counter, the WAL position the
//! checkpoint covers, and **per shard** the worker's true sketch next to
//! the compacted net-edge segment of the edges that shard owns under the
//! engine's hash partition ([`dsg_engine::shard_for`]):
//!
//! ```text
//! n, seed, shards, batch_size, spanner_k (u64 each), reserved (f64 bits)
//! epoch, total_updates (u64 each)
//! wal segment, wal offset (u64 each)
//! shard count (u64); then per shard, in shard order:
//!   net segment: count (u64) + 20-byte entries (u, v: u32;
//!       multiplicity: u32; weight: f64 bits), strictly sorted by edge,
//!       every entry routed to this shard by `shard_for`
//!   sketch: length-prefixed AGM snapshot frame
//! ```
//!
//! Because linear sketches *are* the stream state, this file plus the WAL
//! tail after [`Checkpoint::wal_pos`] reconstructs the tenant exactly —
//! recovery re-seeds each worker's sketch *and* compacted log from its
//! own frame pair, feeds the tail through the restored engine and, by
//! linearity, lands bit-identically where an uninterrupted run would be.
//! The segments ride along because the service's segment-built epoch
//! artifacts (spanner oracle, exact cut Laplacian) rebuild from the
//! stream's net edge multiset — assembled by concatenating the disjoint
//! shard segments — which, again by linearity, is *all* of the stream
//! they can observe. With hash-partitioned routing the per-shard frames are
//! canonical by construction (each is a deterministic function of the net
//! sub-stream its shard owns), so checkpoint size is O(live graph), not
//! O(stream length) (see DESIGN.md, "Partitioning by edge identity"),
//! and the sorted-entry encoding makes equal states produce equal bytes.
//!
//! The `reserved` slot held the retired cut-sparsifier precision
//! (`cut_eps`). It keeps the v3 layout: `encode` writes 0.5 there, and
//! `decode` still rejects a value outside `(0, 1)` — checkpoint bytes
//! are untrusted input — then ignores it, so files that carried any
//! valid precision still load.
//!
//! Two retired layouts are rejected with the loud, typed
//! [`StoreError::LegacyCheckpoint`] — never misread, never silently
//! skipped: kind 9 nested the raw update log (O(stream length) on disk),
//! and kind 10 carried one global segment next to "canonical
//! factorization" shard frames (merged summary in shard 0, zero sketches
//! elsewhere — the round-robin era's workaround for churn residue, made
//! unnecessary by edge partitioning).
//!
//! **Atomicity.** [`write_checkpoint`] writes `checkpoint.tmp`, fsyncs
//! it, renames it over [`CHECKPOINT_FILE`], and fsyncs the directory — a
//! crash leaves either the old checkpoint or the new one, never a torn
//! hybrid. Corruption on the read side is caught by the frame checksum
//! (and the nested per-shard frame checksums) through the same
//! [`wire::open_frame`] validation path as any shard snapshot.

use crate::wal::{self, WalPosition};
use crate::StoreError;
use dsg_agm::AgmSketch;
use dsg_engine::shard_for;
use dsg_graph::{Edge, NetEdge, NetMultiset};
use dsg_service::{GraphConfig, PersistedShard};
use dsg_sketch::{wire, LinearSketch, WireError};
use std::fs::File;
use std::path::Path;

/// File name of a tenant's checkpoint inside its directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.dsg";

/// Temporary name a checkpoint is staged under before the atomic rename.
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// The durable state of one tenant at a capture point: everything
/// [`read_checkpoint`] needs to rebuild the graph, plus the WAL position
/// from which replay must continue.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The graph's configuration (also the restore topology: one sketch
    /// per configured shard).
    pub config: GraphConfig,
    /// Epoch counter at the capture point.
    pub epoch: u64,
    /// Updates ingested up to the capture point.
    pub total_updates: u64,
    /// WAL records strictly before this position are covered by the
    /// checkpoint; replay resumes here.
    pub wal_pos: WalPosition,
    /// Every shard's capture-point state in shard order: its true sketch
    /// next to the sealed net segment of the edges it owns. O(live graph)
    /// total — the whole per-worker and multi-pass state a restore needs.
    pub shards: Vec<PersistedShard>,
}

impl Checkpoint {
    /// Assembles the epoch-wide net segment by concatenating the
    /// (disjoint, routing-partitioned) shard segments.
    ///
    /// # Panics
    ///
    /// Panics if the shard segments are not disjoint — decoded
    /// checkpoints can't be (decode validates routing), and encoded ones
    /// come from a correct capture.
    pub fn epoch_net(&self) -> NetMultiset {
        NetMultiset::merge_disjoint(self.config.n, self.shards.iter().map(|s| &s.net))
    }
}

/// What [`encode`] writes into the reserved former `cut_eps` slot: the
/// only value that slot ever held in practice.
const RESERVED_CUT_EPS: f64 = 0.5;

/// On-disk size of one net-segment entry: two `u32` endpoints, a `u32`
/// multiplicity, and the `f64` weight bits.
const NET_ENTRY_BYTES: usize = 20;

/// Serializes a checkpoint into its wire frame. Each shard's segment is
/// already canonically sorted ([`NetMultiset`] invariant) and the shard
/// sketches are canonical under hash-partitioned routing, so equal states
/// produce equal bytes.
fn encode(cp: &Checkpoint) -> Vec<u8> {
    let mut payload = Vec::new();
    wire::put_u64(&mut payload, cp.config.n as u64);
    wire::put_u64(&mut payload, cp.config.seed);
    wire::put_u64(&mut payload, cp.config.shards as u64);
    wire::put_u64(&mut payload, cp.config.batch_size as u64);
    wire::put_u64(&mut payload, cp.config.spanner_k as u64);
    wire::put_u64(&mut payload, RESERVED_CUT_EPS.to_bits());
    wire::put_u64(&mut payload, cp.epoch);
    wire::put_u64(&mut payload, cp.total_updates);
    wire::put_u64(&mut payload, cp.wal_pos.segment);
    wire::put_u64(&mut payload, cp.wal_pos.offset);
    wire::put_len(&mut payload, cp.shards.len());
    for shard in &cp.shards {
        wire::put_len(&mut payload, shard.net.num_edges());
        for e in shard.net.entries() {
            wire::put_u32(&mut payload, e.edge.u());
            wire::put_u32(&mut payload, e.edge.v());
            wire::put_u32(&mut payload, e.multiplicity);
            wire::put_u64(&mut payload, e.weight.to_bits());
        }
        wire::put_block(&mut payload, &shard.sketch.to_bytes());
    }
    wire::finish_frame(wire::KIND_CHECKPOINT_V3, payload)
}

/// Decodes and validates a checkpoint frame. Every structural violation —
/// a config that would panic the service constructors, a shard count that
/// disagrees with the config, a malformed or mis-sorted net entry, a
/// segment entry routed to a shard that does not own its edge — is a
/// [`WireError`], never a panic: checkpoint bytes are untrusted input.
/// The routing check doubles as the cross-shard consistency check:
/// entries owned by distinct shards are necessarily disjoint, so the
/// concatenation of validated segments is exactly one well-formed epoch
/// segment.
fn decode(bytes: &[u8]) -> Result<Checkpoint, WireError> {
    let mut r = wire::open_frame(wire::KIND_CHECKPOINT_V3, bytes)?;
    let n = r.u64()? as usize;
    let seed = r.u64()?;
    let shards = r.u64()? as usize;
    let batch_size = r.u64()? as usize;
    let spanner_k = r.u64()? as usize;
    let reserved_cut_eps = f64::from_bits(r.u64()?);
    // Validate before calling the panicking GraphConfig builders.
    if n < 2 {
        return Err(WireError::Malformed("checkpoint n below 2"));
    }
    if shards == 0 || batch_size == 0 || spanner_k == 0 {
        return Err(WireError::Malformed("zero shard/batch/spanner parameter"));
    }
    if !(reserved_cut_eps > 0.0 && reserved_cut_eps < 1.0) {
        return Err(WireError::Malformed("cut_eps outside (0, 1)"));
    }
    let config = GraphConfig::new(n)
        .seed(seed)
        .shards(shards)
        .batch_size(batch_size)
        .spanner_k(spanner_k);
    let epoch = r.u64()?;
    let total_updates = r.u64()?;
    let wal_pos = WalPosition {
        segment: r.u64()?,
        offset: r.u64()?,
    };
    let shard_count = r.read_len()?;
    if shard_count != shards {
        return Err(WireError::Malformed("shard frames disagree with config"));
    }
    let mut shard_states: Vec<PersistedShard> = Vec::with_capacity(shard_count);
    let mut total_multiplicity = 0u64;
    for shard_idx in 0..shard_count {
        let net_len = r.read_len()?;
        let mut entries: Vec<NetEdge> = Vec::with_capacity(net_len.min(1 << 20));
        for _ in 0..net_len {
            let chunk = r.bytes(NET_ENTRY_BYTES)?;
            let u = u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes"));
            let v = u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes"));
            let multiplicity = u32::from_le_bytes(chunk[8..12].try_into().expect("4 bytes"));
            let weight = f64::from_bits(u64::from_le_bytes(
                chunk[12..20].try_into().expect("8 bytes"),
            ));
            if u >= v {
                return Err(WireError::Malformed("net entry endpoints not canonical"));
            }
            if v as usize >= n {
                return Err(WireError::Malformed("net entry endpoint out of range"));
            }
            if multiplicity == 0 {
                return Err(WireError::Malformed("net entry with zero multiplicity"));
            }
            if !weight.is_finite() {
                return Err(WireError::Malformed("net entry with non-finite weight"));
            }
            let edge = Edge::new(u, v);
            // The partition discipline: a segment may only hold edges its
            // shard owns. This also makes segments of distinct shards
            // disjoint, so the epoch-segment assembly cannot collide.
            if shard_for(edge.index(n), shards) != shard_idx {
                return Err(WireError::Malformed("net entry routed to the wrong shard"));
            }
            if let Some(prev) = entries.last() {
                if prev.edge >= edge {
                    return Err(WireError::Malformed("net entries out of canonical order"));
                }
            }
            total_multiplicity += multiplicity as u64;
            entries.push(NetEdge {
                edge,
                weight,
                multiplicity,
            });
        }
        let net = NetMultiset::from_entries(n, entries);
        // Nested frames re-run the full AGM validation (magic, version,
        // kind, checksum, structure).
        let sketch = AgmSketch::from_bytes(r.block()?)?;
        shard_states.push(PersistedShard { sketch, net });
    }
    // Each unit of net multiplicity needs at least one insertion, so the
    // segments combined can never outweigh the update counter.
    if total_multiplicity > total_updates {
        return Err(WireError::Malformed(
            "net multiplicity exceeds update counter",
        ));
    }
    r.expect_end()?;
    Ok(Checkpoint {
        config,
        epoch,
        total_updates,
        wal_pos,
        shards: shard_states,
    })
}

/// Writes `cp` to `dir/checkpoint.dsg` atomically: stage to a temp file,
/// fsync, rename over the old checkpoint, fsync the directory. Returns
/// the encoded frame size in bytes (what telemetry reports as the
/// checkpoint's on-disk footprint).
///
/// # Errors
///
/// [`StoreError::Io`] on any filesystem failure; the previous checkpoint
/// (if any) survives every failure mode.
pub fn write_checkpoint(dir: &Path, cp: &Checkpoint) -> Result<usize, StoreError> {
    let bytes = encode(cp);
    let tmp = dir.join(CHECKPOINT_TMP);
    std::fs::write(&tmp, &bytes)?;
    File::open(&tmp)?.sync_all()?;
    std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
    // POSIX: the rename itself must be made durable via the directory.
    wal::fsync_dir(dir)?;
    Ok(bytes.len())
}

/// Reads and validates `dir/checkpoint.dsg`.
///
/// # Errors
///
/// [`StoreError::MissingCheckpoint`] if the file does not exist,
/// [`StoreError::Io`] on read failures,
/// [`StoreError::LegacyCheckpoint`] if the frame carries a retired kind —
/// the raw-log layout (9) or the global-segment canonical-factorization
/// layout (10) — rejected loudly, never misread under the v3 layout —
/// and [`StoreError::Frame`] if the frame fails validation (bad
/// magic/version/kind, checksum mismatch, or a structurally invalid
/// payload) — a damaged checkpoint is rejected whole, never half-loaded.
pub fn read_checkpoint(dir: &Path) -> Result<Checkpoint, StoreError> {
    let path = dir.join(CHECKPOINT_FILE);
    if !path.exists() {
        return Err(StoreError::MissingCheckpoint(path));
    }
    let bytes = std::fs::read(&path)?;
    // Header-only peek first: a retired-format frame deserves its own
    // loud error, not a generic kind mismatch.
    if let Ok(header) = wire::peek_kind(&bytes) {
        if header.kind == wire::KIND_CHECKPOINT || header.kind == wire::KIND_CHECKPOINT_V2 {
            return Err(StoreError::LegacyCheckpoint {
                path,
                kind: header.kind,
            });
        }
    }
    Ok(decode(&bytes)?)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code may unwrap freely

    use super::*;
    use crate::ScratchDir;
    use dsg_sketch::LinearSketch;

    /// A 3-shard checkpoint whose per-shard states obey the routing
    /// discipline: each path edge's update lands on (and is sealed into)
    /// the shard `shard_for` assigns it.
    fn sample_checkpoint() -> Checkpoint {
        let n = 12;
        let config = GraphConfig::new(n).seed(7).shards(3).batch_size(16);
        let mut sketches: Vec<AgmSketch> = (0..3).map(|_| AgmSketch::new(n, 7)).collect();
        let mut per_shard: Vec<Vec<dsg_graph::StreamUpdate>> = vec![Vec::new(); 3];
        for v in 0..9u32 {
            let up = dsg_graph::StreamUpdate::insert(v, v + 1);
            let shard = shard_for(up.edge.index(n), 3);
            sketches[shard].update(up.edge, up.delta as i128);
            per_shard[shard].push(up);
        }
        Checkpoint {
            config,
            epoch: 4,
            total_updates: 9,
            wal_pos: WalPosition {
                segment: 2,
                offset: 0,
            },
            shards: sketches
                .into_iter()
                .zip(&per_shard)
                .map(|(sketch, ups)| PersistedShard {
                    sketch,
                    net: NetMultiset::from_updates(n, ups),
                })
                .collect(),
        }
    }

    #[test]
    fn checkpoint_roundtrips() {
        let dir = ScratchDir::new("cp-roundtrip");
        let cp = sample_checkpoint();
        write_checkpoint(dir.path(), &cp).unwrap();
        let back = read_checkpoint(dir.path()).unwrap();
        assert_eq!(back.config, cp.config);
        assert_eq!(back.epoch, 4);
        assert_eq!(back.total_updates, 9);
        assert_eq!(back.wal_pos, cp.wal_pos);
        assert_eq!(back.epoch_net(), cp.epoch_net());
        for (a, b) in back.shards.iter().zip(&cp.shards) {
            assert_eq!(
                a.sketch.to_bytes(),
                b.sketch.to_bytes(),
                "shard frame diverged"
            );
            assert_eq!(a.net, b.net, "shard segment diverged");
        }
    }

    #[test]
    fn checkpoint_bytes_are_canonical() {
        // Two tenants whose streams differ wildly in order and churn but
        // share a net effect must checkpoint to byte-identical net
        // segments (the shard frames differ only if the sketches do —
        // and by linearity they don't).
        let g = dsg_graph::gen::erdos_renyi(12, 0.3, 5);
        let a = dsg_graph::GraphStream::with_churn(&g, 1.0, 6);
        let b = dsg_graph::GraphStream::with_churn(&g, 3.0, 7);
        let make = |stream: &dsg_graph::GraphStream, total: u64| {
            let mut sk = AgmSketch::new(12, 7);
            for up in stream.updates() {
                sk.update(up.edge, up.delta as i128);
            }
            encode(&Checkpoint {
                config: GraphConfig::new(12).seed(7).shards(1).batch_size(16),
                epoch: 1,
                total_updates: total,
                wal_pos: WalPosition::START,
                shards: vec![PersistedShard {
                    sketch: sk,
                    net: stream.net_multiset(),
                }],
            })
        };
        // Same update counter on both sides so the only variable is the
        // stream shape.
        let total = (a.len().max(b.len())) as u64;
        assert_eq!(
            make(&a, total),
            make(&b, total),
            "equal net states must produce equal checkpoint bytes"
        );
    }

    #[test]
    fn legacy_kind_is_a_typed_loud_error() {
        // Both retired layouts — the raw-log kind 9 and the
        // canonical-factorization kind 10 — must surface as the dedicated
        // error, never as a generic frame mismatch.
        for retired in [wire::KIND_CHECKPOINT, wire::KIND_CHECKPOINT_V2] {
            let dir = ScratchDir::new(&format!("cp-legacy-{retired}"));
            let cp = sample_checkpoint();
            write_checkpoint(dir.path(), &cp).unwrap();
            let path = dir.path().join(CHECKPOINT_FILE);
            // Rewrite the header's kind tag to the retired kind.
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[6..8].copy_from_slice(&retired.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match read_checkpoint(dir.path()) {
                Err(StoreError::LegacyCheckpoint { kind, .. }) => {
                    assert_eq!(kind, retired);
                }
                other => panic!("expected LegacyCheckpoint for kind {retired}, got {other:?}"),
            }
        }
    }

    /// A 1-shard checkpoint: with a single shard every edge routes to
    /// shard 0, so the byte offset of the first segment entry is fixed and
    /// the segment is guaranteed several entries deep — exactly what the
    /// byte-surgery tests need.
    fn single_shard_checkpoint() -> Checkpoint {
        let n = 12;
        let updates: Vec<dsg_graph::StreamUpdate> = (0..9u32)
            .map(|v| dsg_graph::StreamUpdate::insert(v, v + 1))
            .collect();
        let mut sketch = AgmSketch::new(n, 7);
        for up in &updates {
            sketch.update(up.edge, up.delta as i128);
        }
        Checkpoint {
            config: GraphConfig::new(n).seed(7).shards(1).batch_size(16),
            epoch: 4,
            total_updates: 9,
            wal_pos: WalPosition::START,
            shards: vec![PersistedShard {
                sketch,
                net: NetMultiset::from_updates(n, &updates),
            }],
        }
    }

    #[test]
    fn mis_sorted_or_invalid_net_entries_rejected() {
        let cp = single_shard_checkpoint();
        assert!(
            cp.shards[0].net.num_edges() >= 2,
            "need two entries to swap"
        );
        let good = encode(&cp);
        // Locate shard 0's first net entry (10 u64 header fields, the
        // shard count, then shard 0's entry count).
        let entry0 = wire::HEADER_BYTES + 10 * 8 + 8 + 8;
        // Swap entry 0 and entry 1: out of canonical order.
        let mut bad = good.clone();
        let (a, b) = (entry0, entry0 + NET_ENTRY_BYTES);
        for i in 0..NET_ENTRY_BYTES {
            bad.swap(a + i, b + i);
        }
        // Re-checksum so only the ordering violation is on trial.
        let sum = wire::checksum(&bad[wire::HEADER_BYTES..]);
        bad[16..24].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode(&bad),
            Err(WireError::Malformed("net entries out of canonical order"))
        ));
        // Zero multiplicity is structural, too.
        let mut bad = good;
        bad[entry0 + 8..entry0 + 12].copy_from_slice(&0u32.to_le_bytes());
        let sum = wire::checksum(&bad[wire::HEADER_BYTES..]);
        bad[16..24].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode(&bad),
            Err(WireError::Malformed("net entry with zero multiplicity"))
        ));
    }

    #[test]
    fn reserved_cut_eps_slot_is_validated_then_ignored() {
        // The former `cut_eps` slot is the sixth u64 of the payload.
        let slot = wire::HEADER_BYTES + 5 * 8;
        let with_slot = |value: f64| {
            let mut bytes = encode(&single_shard_checkpoint());
            bytes[slot..slot + 8].copy_from_slice(&value.to_bits().to_le_bytes());
            let sum = wire::checksum(&bytes[wire::HEADER_BYTES..]);
            bytes[16..24].copy_from_slice(&sum.to_le_bytes());
            bytes
        };
        assert_eq!(
            with_slot(RESERVED_CUT_EPS),
            encode(&single_shard_checkpoint())
        );
        // Untrusted bytes: an impossible precision is still malformed.
        for bad in [0.0, f64::NAN] {
            assert!(matches!(
                decode(&with_slot(bad)),
                Err(WireError::Malformed("cut_eps outside (0, 1)"))
            ));
        }
        // A v3 file written with any other valid precision still loads.
        let back = decode(&with_slot(0.25)).unwrap();
        assert_eq!(back.config, single_shard_checkpoint().config);
        assert_eq!(back.epoch_net(), single_shard_checkpoint().epoch_net());
    }

    #[test]
    fn mis_routed_segments_rejected() {
        // A segment entry sitting in a shard other than the one
        // `shard_for` assigns it is a malformed checkpoint: restore would
        // re-seed a worker with edges it will never see updates for.
        // `encode` is deliberately trusting (it serializes what the
        // engine produced), so build the corruption in memory and let
        // `decode` catch it.
        let mut cp = sample_checkpoint();
        let donor = (0..cp.shards.len())
            .find(|&s| cp.shards[s].net.num_edges() > 0)
            .expect("some shard must hold edges");
        let target = (donor + 1) % cp.shards.len();
        let moved = cp.shards[donor].net.clone();
        cp.shards[donor].net = std::mem::replace(&mut cp.shards[target].net, moved);
        assert!(matches!(
            decode(&encode(&cp)),
            Err(WireError::Malformed("net entry routed to the wrong shard"))
        ));
    }

    #[test]
    fn rewrite_is_atomic_replacement() {
        let dir = ScratchDir::new("cp-rewrite");
        let mut cp = sample_checkpoint();
        write_checkpoint(dir.path(), &cp).unwrap();
        cp.epoch = 5;
        write_checkpoint(dir.path(), &cp).unwrap();
        assert_eq!(read_checkpoint(dir.path()).unwrap().epoch, 5);
        // No stray temp file stays behind.
        assert!(!dir.path().join(CHECKPOINT_TMP).exists());
    }

    #[test]
    fn missing_checkpoint_is_typed() {
        let dir = ScratchDir::new("cp-missing");
        assert!(matches!(
            read_checkpoint(dir.path()),
            Err(StoreError::MissingCheckpoint(_))
        ));
    }

    #[test]
    fn corrupt_or_truncated_checkpoints_are_rejected() {
        let dir = ScratchDir::new("cp-corrupt");
        write_checkpoint(dir.path(), &sample_checkpoint()).unwrap();
        let path = dir.path().join(CHECKPOINT_FILE);
        let good = std::fs::read(&path).unwrap();
        // Truncation at any of a few depths: Truncated, never a panic.
        for cut in [0, 3, wire::HEADER_BYTES - 1, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(
                matches!(
                    read_checkpoint(dir.path()),
                    Err(StoreError::Frame(WireError::Truncated))
                ),
                "cut at {cut} must read as truncation"
            );
        }
        // A flipped payload byte fails the checksum.
        let mut bad = good.clone();
        bad[wire::HEADER_BYTES + 5] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_checkpoint(dir.path()),
            Err(StoreError::Frame(WireError::BadChecksum))
        ));
        // Wrong magic is not a checkpoint at all.
        let mut bad = good;
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_checkpoint(dir.path()),
            Err(StoreError::Frame(WireError::BadMagic))
        ));
    }
}
