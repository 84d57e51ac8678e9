//! The sketch wire format: versioned, checksummed snapshot frames.
//!
//! Linear sketches are only useful in the paper's distributed scenario —
//! updates "distributed and presented online … on multiple servers" — if a
//! shard can *ship* its sketch to a coordinator. This module defines the
//! byte-level frame every [`crate::LinearSketch`] snapshot travels in:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "DSGW"
//! 4       2     format version (little-endian u16, always 1)
//! 6       2     sketch kind tag (see the registry below)
//! 8       8     payload length in bytes (little-endian u64)
//! 16      8     FNV-1a checksum of the payload (little-endian u64)
//! 24      …     payload
//! ```
//!
//! Version 2 ([`RETIRED_VERSION`]) appended a trace-id trailer after the
//! payload; no writer remains, and [`peek_kind`] and [`open_frame`] reject
//! it with [`WireError::BadVersion`]. The number is never reused.
//!
//! The payload never contains hash functions: every sketch's randomness is
//! a deterministic function of its constructor parameters (seeds flow
//! through [`dsg_hash::SeedTree`]), so a snapshot carries only the
//! parameters and the linear state. The coordinator rebuilds the hash
//! machinery from the parameters and trusts *shared-seed determinism* —
//! the property the paper calls randomness "agreed upon" in advance — to
//! make the rebuilt sketch bit-identical to the shard's. `DESIGN.md`
//! ("Wire format and shared-seed determinism") records the argument.
//!
//! All multi-byte integers are little-endian. Map-shaped state (IBLT
//! cells, table buckets) is serialized in sorted key order, so equal
//! sketch states produce equal bytes — tests compare snapshots directly.
//!
//! # Kind registry
//!
//! | tag | sketch |
//! |---|---|
//! | 1 | [`crate::SparseRecovery`] |
//! | 2 | [`crate::L0Sampler`] |
//! | 3 | [`crate::DistinctEstimator`] |
//! | 4 | [`crate::LinearHashTable`] |
//! | 5 | count-sketch (retired: no served path used it; every decoder rejects it with [`WireError::WrongKind`]) |
//! | 6 | guarded sparse recovery (retired, as 5) |
//! | 7 | vector fingerprint (retired, as 5) |
//! | 8 | `dsg_agm::AgmSketch` (reserved here, implemented in `dsg-agm`) |
//! | 9 | `dsg_store` checkpoint, legacy raw-log format (retired: carried the full O(stream) update log; readers reject it with a typed error) |
//! | 10 | `dsg_store` checkpoint v2 (retired: one global compacted segment beside shard frames in canonical factorization; readers reject it with a typed error) |
//! | 11 | `dsg_store` checkpoint v3 (a frame *of* frames: per-shard sketch frames, each beside the compacted net-edge segment that shard owns, plus engine/WAL metadata; reserved here, implemented in `dsg-store`) |
//!
//! A retired tag is never reused: a stale frame must fail with a typed
//! error, not decode as some newer sketch.

/// Frame magic: identifies a dynamic-stream-graph wire snapshot.
pub const MAGIC: [u8; 4] = *b"DSGW";

/// Current wire-format version. Bump on any layout change; `open_frame`
/// rejects versions it does not understand instead of misreading them.
pub const VERSION: u16 = 1;

/// The **retired** wire-format version 2: a [`VERSION`] frame followed by
/// a trace-id trailer. Nothing writes it any more; every reader rejects
/// it with [`WireError::BadVersion`], and the number is never reused.
pub const RETIRED_VERSION: u16 = 2;

/// Size of the fixed frame header in bytes.
pub const HEADER_BYTES: usize = 24;

/// Kind tag of [`crate::SparseRecovery`].
pub const KIND_SPARSE_RECOVERY: u16 = 1;
/// Kind tag of [`crate::L0Sampler`].
pub const KIND_L0_SAMPLER: u16 = 2;
/// Kind tag of [`crate::DistinctEstimator`].
pub const KIND_DISTINCT: u16 = 3;
/// Kind tag of [`crate::LinearHashTable`].
pub const KIND_HASHTABLE: u16 = 4;
/// Kind tag of the **retired** count-sketch. No served path, experiment
/// or benchmark used it and the type is gone; the tag stays reserved so it
/// is never reused, and every decoder rejects such frames with
/// [`WireError::WrongKind`].
pub const KIND_COUNTSKETCH: u16 = 5;
/// Kind tag of the **retired** guarded sparse-recovery sketch (`SKETCH_B`
/// plus a distinct-elements decodability guard). Reserved and rejected as
/// [`KIND_COUNTSKETCH`] is.
pub const KIND_GUARDED: u16 = 6;
/// Kind tag of the **retired** vector fingerprint. Reserved and rejected
/// as [`KIND_COUNTSKETCH`] is.
pub const KIND_FINGERPRINT: u16 = 7;
/// Kind tag of `dsg_agm::AgmSketch` (reserved; the impl lives in dsg-agm).
pub const KIND_AGM: u16 = 8;
/// Kind tag of the **retired** raw-log `dsg_store` checkpoint format. Its
/// payload nested the full update log — O(stream length) on disk — and no
/// reader remains: `dsg-store` rejects frames of this kind with a loud
/// typed error rather than misreading them under the v2 layout.
pub const KIND_CHECKPOINT: u16 = 9;
/// Kind tag of the **retired** v2 `dsg_store` checkpoint format. Its
/// payload carried one global compacted net-edge segment next to shard
/// frames in "canonical factorization" (the merged summary in shard 0,
/// zero sketches elsewhere) — a workaround for the round-robin engine,
/// whose raw forks grew with churn residue. The edge-partitioned engine
/// made true per-shard frames canonical and the layout moved to
/// [`KIND_CHECKPOINT_V3`]; `dsg-store` rejects v2 frames with a loud
/// typed error rather than misreading them.
pub const KIND_CHECKPOINT_V2: u16 = 10;
/// Kind tag of a `dsg_store` checkpoint file, format v3 (reserved; the
/// impl lives in dsg-store). The payload nests, **per shard**, the
/// worker's true sketch frame plus the compacted net-edge segment of the
/// edges that shard owns under the engine's hash partition, each segment
/// in canonical sorted order — so checkpoint bytes are bounded by the
/// live graph, deterministic, and restore can re-seed every worker's
/// sketch *and* compacted state. Checkpoints reuse the sketch frame
/// discipline — magic, version, kind, length, FNV-1a checksum — so a
/// corrupt or truncated checkpoint is rejected by the same
/// [`open_frame`] validation path as any shard snapshot.
pub const KIND_CHECKPOINT_V3: u16 = 11;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the declared content did.
    Truncated,
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// The frame version is newer than this build understands.
    BadVersion(u16),
    /// The frame holds a different sketch kind than requested.
    WrongKind {
        /// The kind tag the caller asked to decode.
        expected: u16,
        /// The kind tag found in the frame header.
        found: u16,
    },
    /// The payload checksum does not match the header (corruption).
    BadChecksum,
    /// The payload violates a structural invariant of its sketch kind.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "snapshot truncated"),
            WireError::BadMagic => write!(f, "not a sketch snapshot (bad magic)"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::WrongKind { expected, found } => {
                write!(f, "wrong sketch kind: expected {expected}, found {found}")
            }
            WireError::BadChecksum => write!(f, "payload checksum mismatch"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a over `bytes` — cheap, dependency-free corruption detection.
/// (Not cryptographic; transport-level integrity only.)
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Wraps a finished payload in a checksummed header.
pub fn finish_frame(kind: u16, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// What a frame header declares about its payload, readable without
/// decoding (or even checksumming) the payload itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The sketch kind tag (see the kind registry in the module docs).
    pub kind: u16,
    /// The wire-format version the frame was written under.
    pub version: u16,
    /// Declared payload length in bytes.
    pub payload_len: usize,
}

/// Header-only inspection of a snapshot frame: magic, kind, version, and
/// declared payload length, in O(1) and without touching the payload.
///
/// This is the cheap routing/validation step a registry or coordinator
/// runs on every incoming frame *before* committing to a full decode: it
/// can reject a frame of the wrong kind or a future version immediately.
/// Unlike [`open_frame`] it deliberately does **not** verify the checksum
/// or the payload length against the buffer — corruption is still caught
/// by the full decode that follows an accepted frame.
///
/// # Errors
///
/// [`WireError::Truncated`] if the buffer is shorter than a header,
/// [`WireError::BadMagic`] if it is not a snapshot frame,
/// [`WireError::BadVersion`] for the [`RETIRED_VERSION`]. A future version
/// this build does not understand is *returned*, not rejected — the
/// caller decides whether unknown versions are an error.
pub fn peek_kind(bytes: &[u8]) -> Result<FrameHeader, WireError> {
    if bytes.len() < HEADER_BYTES {
        return Err(WireError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version == RETIRED_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = u16::from_le_bytes([bytes[6], bytes[7]]);
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    Ok(FrameHeader {
        kind,
        version,
        payload_len,
    })
}

/// Validates a frame (magic, version, kind, length, checksum) and returns
/// a reader over its payload.
///
/// # Errors
///
/// Any [`WireError`] the header checks can produce.
pub fn open_frame(kind: u16, bytes: &[u8]) -> Result<ByteReader<'_>, WireError> {
    if bytes.len() < HEADER_BYTES {
        return Err(WireError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let found = u16::from_le_bytes([bytes[6], bytes[7]]);
    if found != kind {
        return Err(WireError::WrongKind {
            expected: kind,
            found,
        });
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let sum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_BYTES..];
    if payload.len() != len {
        return Err(WireError::Truncated);
    }
    if checksum(payload) != sum {
        return Err(WireError::BadChecksum);
    }
    Ok(ByteReader::new(payload))
}

/// A bounds-checked little-endian cursor over a snapshot payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a raw payload (already header-validated).
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes remaining to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Fails unless every payload byte was consumed — catches trailing
    /// garbage that a checksum alone would accept.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads an `i128`.
    pub fn i128(&mut self) -> Result<i128, WireError> {
        Ok(i128::from_le_bytes(self.take(16)?.try_into().expect("16")))
    }

    /// Reads a `usize` stored as `u64`, guarding against lengths that
    /// cannot fit in memory anyway (corrupt frames must not trigger huge
    /// pre-allocations).
    pub fn read_len(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        if v > (1 << 40) {
            return Err(WireError::Malformed("implausible length"));
        }
        Ok(v as usize)
    }

    /// Reads a length-prefixed nested byte block (a full inner frame).
    pub fn block(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.read_len()?;
        self.take(n)
    }

    /// Reads exactly `n` raw bytes — for fixed-width records whose layout
    /// a caller owns (e.g. the store's 17-byte `StreamUpdate` encoding).
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }
}

/// Writes a `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes an `i128`.
pub fn put_i128(out: &mut Vec<u8>, v: i128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a `usize` as `u64` (the length convention of this format).
pub fn put_len(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Writes a length-prefixed nested byte block.
pub fn put_block(out: &mut Vec<u8>, block: &[u8]) {
    put_len(out, block.len());
    out.extend_from_slice(block);
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload = vec![1u8, 2, 3, 4, 5];
        let frame = finish_frame(KIND_SPARSE_RECOVERY, payload.clone());
        let mut r = open_frame(KIND_SPARSE_RECOVERY, &frame).unwrap();
        assert_eq!(r.remaining(), 5);
        assert_eq!(r.take(5).unwrap(), &payload[..]);
        r.expect_end().unwrap();
    }

    #[test]
    fn wrong_kind_rejected() {
        let frame = finish_frame(KIND_L0_SAMPLER, vec![]);
        match open_frame(KIND_SPARSE_RECOVERY, &frame) {
            Err(WireError::WrongKind { expected, found }) => {
                assert_eq!(expected, KIND_SPARSE_RECOVERY);
                assert_eq!(found, KIND_L0_SAMPLER);
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
    }

    #[test]
    fn corruption_detected() {
        let mut frame = finish_frame(KIND_DISTINCT, vec![9u8; 32]);
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        assert!(matches!(
            open_frame(KIND_DISTINCT, &frame),
            Err(WireError::BadChecksum)
        ));
    }

    #[test]
    fn truncation_detected() {
        let frame = finish_frame(KIND_DISTINCT, vec![9u8; 32]);
        assert!(matches!(
            open_frame(KIND_DISTINCT, &frame[..frame.len() - 3]),
            Err(WireError::Truncated)
        ));
        assert!(matches!(
            open_frame(KIND_DISTINCT, &frame[..10]),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = finish_frame(KIND_DISTINCT, vec![]);
        frame[0] = b'X';
        assert!(matches!(
            open_frame(KIND_DISTINCT, &frame),
            Err(WireError::BadMagic)
        ));
    }

    #[test]
    fn future_version_rejected() {
        let mut frame = finish_frame(KIND_DISTINCT, vec![]);
        frame[4] = 0xFE;
        frame[5] = 0xFF;
        assert!(matches!(
            open_frame(KIND_DISTINCT, &frame),
            Err(WireError::BadVersion(_))
        ));
    }

    #[test]
    fn reader_primitives_roundtrip() {
        let mut out = Vec::new();
        put_u16(&mut out, 7);
        put_u32(&mut out, 1 << 20);
        put_u64(&mut out, u64::MAX - 3);
        put_i128(&mut out, -12345678901234567890i128);
        put_block(&mut out, b"abc");
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u16().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 1 << 20);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i128().unwrap(), -12345678901234567890i128);
        assert_eq!(r.block().unwrap(), b"abc");
        r.expect_end().unwrap();
    }

    #[test]
    fn peek_reads_header_without_decoding() {
        let frame = finish_frame(KIND_HASHTABLE, vec![1, 2, 3]);
        let h = peek_kind(&frame).unwrap();
        assert_eq!(h.kind, KIND_HASHTABLE);
        assert_eq!(h.version, VERSION);
        assert_eq!(h.payload_len, 3);
        // A corrupt payload is invisible to the peek (and that's the
        // point: peek routes, open_frame verifies).
        let mut corrupt = frame.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert_eq!(peek_kind(&corrupt).unwrap(), h);
        // Future versions are reported, not rejected.
        let mut future = frame;
        future[4] = 0x09;
        assert_eq!(peek_kind(&future).unwrap().version, 9);
    }

    #[test]
    fn peek_rejects_non_frames() {
        assert!(matches!(peek_kind(&[0u8; 10]), Err(WireError::Truncated)));
        let mut frame = finish_frame(KIND_L0_SAMPLER, vec![]);
        frame[2] = b'!';
        assert!(matches!(peek_kind(&frame), Err(WireError::BadMagic)));
    }

    #[test]
    fn implausible_length_rejected() {
        let mut out = Vec::new();
        put_u64(&mut out, 1 << 50);
        let mut r = ByteReader::new(&out);
        assert!(matches!(r.read_len(), Err(WireError::Malformed(_))));
    }
}
