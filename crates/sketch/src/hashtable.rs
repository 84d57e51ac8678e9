//! Linear hash tables with sketch-valued payloads — the `H^u_j` of
//! Algorithm 2.
//!
//! The second pass of the paper's spanner construction stores, for each
//! terminal node `u` and sampling level `j`, a hash table keyed by vertices
//! `v ∈ V \ T_u`, where the value for key `v` is itself a small linear
//! sketch of `N(v) ∩ T_u ∩ Y_j`. The paper implements this by "treating the
//! sketches associated with nodes `v` as poly(log n)-length bit numbers and
//! sketching this vector `x ∈ R^V`". [`LinearHashTable`] is that object:
//!
//! * keys are `u64` coordinates; the payload of a key is a width-`w` vector
//!   of words, updated additively **in the field `GF(2^61-1)`** — so
//!   payloads can hold the state of any field-linear sketch (e.g.
//!   [`crate::OneSparseCell::to_words`]) and insertions/deletions cancel
//!   exactly;
//! * the table itself is an IBLT over (key, payload) pairs: each bucket
//!   keeps the component-wise payload sum plus three field words
//!   `(a, b, f) = Σ_v (c_v, v·c_v, h(v)·c_v)` where `c_v` compresses the
//!   payload through a random evaluation point `α`;
//! * decoding peels buckets containing a single key, recovering both the key
//!   and its *exact* payload, as long as the number of distinct keys stays
//!   within the capacity — mirroring Lemma 17's argument that the tables of
//!   terminal nodes hold `O(n^{(i+1)/k} log n)` keys and can be decoded.
//!
//! Recovered payload words are returned as **balanced lifts**: a field word
//! `w` decodes to `w` if `w ≤ p/2` and `w - p` otherwise, so any integer
//! payload with magnitude below `p/2 ≈ 2^60` round-trips exactly, signs
//! included.

use crate::error::DecodeError;
use crate::onesparse::mod_p;
use crate::wire::{self, WireError};
use crate::LinearSketch;
use dsg_hash::{field, KWiseHash, SeedTree};
use dsg_util::SpaceUsage;
use std::collections::HashMap;

const ROWS: usize = 3;
const BUCKET_FACTOR: usize = 2;
const MIN_BUCKETS: usize = 4;
const PLACEMENT_INDEPENDENCE: usize = 7;

/// One bucket: field payload word sums plus key-recovery field words.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bucket {
    /// Component-wise payload sums in `GF(p)`.
    payload: Vec<u64>,
    /// `Σ c_v (mod p)` over keys `v` in this bucket.
    a: u64,
    /// `Σ v · c_v (mod p)`.
    b: u64,
    /// `Σ h(v) · c_v (mod p)` — fingerprint.
    f: u64,
}

impl Bucket {
    fn zero(width: usize) -> Self {
        Self {
            payload: vec![0; width],
            a: 0,
            b: 0,
            f: 0,
        }
    }

    fn is_zero(&self) -> bool {
        self.a == 0 && self.b == 0 && self.f == 0 && self.payload.iter().all(|&w| w == 0)
    }
}

/// Balanced lift of a field element into `(-p/2, p/2]`.
#[inline]
fn balanced(w: u64) -> i128 {
    if w > field::P / 2 {
        w as i128 - field::P as i128
    } else {
        w as i128
    }
}

/// A linear (mergeable, deletion-tolerant) hash table mapping `u64` keys to
/// additively-updated payload vectors of fixed width.
///
/// Decodable whenever the number of distinct keys with nonzero payload is at
/// most the construction capacity, with high probability.
///
/// # Examples
///
/// ```
/// use dsg_sketch::LinearHashTable;
///
/// let mut t = LinearHashTable::new(4, 2, 7); // capacity 4, width 2
/// t.update(100, &[1, -1]);
/// t.update(200, &[5, 0]);
/// t.update(100, &[2, 1]); // accumulates
/// let entries = t.decode().unwrap();
/// assert_eq!(entries.len(), 2);
/// let e100 = entries.iter().find(|e| e.0 == 100).unwrap();
/// assert_eq!(e100.1, vec![3, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct LinearHashTable {
    capacity: usize,
    width: usize,
    seed: u64,
    buckets_per_row: usize,
    row_hashes: Vec<KWiseHash>,
    fingerprint_hash: KWiseHash,
    /// Random payload-combining point `α`.
    alpha: u64,
    buckets: HashMap<u32, Bucket>,
}

impl LinearHashTable {
    /// Creates a table able to hold `capacity` distinct keys with payload
    /// vectors of `width` words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `width == 0`.
    pub fn new(capacity: usize, width: usize, seed: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(width > 0, "payload width must be positive");
        let tree = SeedTree::new(seed ^ 0x4C48_5441_424C_4531); // "LHTABLE1"
        let buckets_per_row = (capacity * BUCKET_FACTOR).max(MIN_BUCKETS);
        let row_hashes = (0..ROWS)
            .map(|r| KWiseHash::new(PLACEMENT_INDEPENDENCE, tree.child(r as u64).seed()))
            .collect();
        let fingerprint_hash = KWiseHash::new(3, tree.child(0xF2).seed());
        let alpha = tree.child(0xA1).rng().next_below(field::P - 2) + 1;
        Self {
            capacity,
            width,
            seed,
            buckets_per_row,
            row_hashes,
            fingerprint_hash,
            alpha,
            buckets: HashMap::new(),
        }
    }

    /// The key capacity this table was sized for.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The payload width in words.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether `other` was built with identical parameters and seed.
    pub fn compatible(&self, other: &LinearHashTable) -> bool {
        self.capacity == other.capacity && self.width == other.width && self.seed == other.seed
    }

    /// Compresses a field payload to `c = Σ_t α^t · payload[t] (mod p)`.
    fn combine(&self, payload: &[u64]) -> u64 {
        let mut c = 0u64;
        let mut apow = 1u64;
        for &d in payload {
            c = field::add(c, field::mul(apow, d));
            apow = field::mul(apow, self.alpha);
        }
        c
    }

    #[inline]
    fn bucket_index(&self, row: usize, key: u64) -> u32 {
        let b = self.row_hashes[row].hash_below(key, self.buckets_per_row as u64);
        (row * self.buckets_per_row) as u32 + b as u32
    }

    /// Applies a signed delta (one word per payload slot) plus the check
    /// sums `(c, kc, fc)` to the bucket state at `idx`; `negate` retracts
    /// instead of applying.
    fn apply(
        buckets: &mut HashMap<u32, Bucket>,
        idx: u32,
        width: usize,
        delta: &[u64],
        checks: (u64, u64, u64),
        negate: bool,
    ) {
        let (c, kc, fc) = checks;
        let bucket = buckets.entry(idx).or_insert_with(|| Bucket::zero(width));
        if negate {
            for (slot, d) in bucket.payload.iter_mut().zip(delta) {
                *slot = field::sub(*slot, *d);
            }
            bucket.a = field::sub(bucket.a, c);
            bucket.b = field::sub(bucket.b, kc);
            bucket.f = field::sub(bucket.f, fc);
        } else {
            for (slot, d) in bucket.payload.iter_mut().zip(delta) {
                *slot = field::add(*slot, *d);
            }
            bucket.a = field::add(bucket.a, c);
            bucket.b = field::add(bucket.b, kc);
            bucket.f = field::add(bucket.f, fc);
        }
        if bucket.is_zero() {
            buckets.remove(&idx);
        }
    }

    /// Adds `delta` (component-wise, in the field) to the payload of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `delta.len() != self.width()`.
    pub fn update(&mut self, key: u64, delta: &[i128]) {
        assert_eq!(delta.len(), self.width, "payload width mismatch");
        let fdelta: Vec<u64> = delta.iter().map(|&d| mod_p(d)).collect();
        if fdelta.iter().all(|&d| d == 0) {
            return;
        }
        let c = self.combine(&fdelta);
        let kc = field::mul(field::canon(key), c);
        let fc = field::mul(self.fingerprint_hash.hash(field::canon(key)), c);
        for row in 0..ROWS {
            let idx = self.bucket_index(row, key);
            Self::apply(
                &mut self.buckets,
                idx,
                self.width,
                &fdelta,
                (c, kc, fc),
                false,
            );
        }
    }

    /// Whether the table state is identically zero.
    pub fn is_zero(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Recovers all `(key, payload)` pairs with a nonzero payload
    /// compression `c_v`. Payload words are balanced lifts (exact for
    /// magnitudes below `p/2`).
    ///
    /// A key whose payload is nonzero but compresses to `c_v ≡ 0 (mod p)`
    /// (probability `O(width / p)` over `α`) blocks decoding and surfaces as
    /// an error — never a silent wrong answer.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Overloaded`] when more keys than capacity (or an
    /// unlucky placement) stall peeling; [`DecodeError::Inconsistent`] on
    /// contradictory peel state.
    pub fn decode(&self) -> Result<Vec<(u64, Vec<i128>)>, DecodeError> {
        let mut buckets = self.buckets.clone();
        let mut out: Vec<(u64, Vec<i128>)> = Vec::new();
        let mut queue: Vec<u32> = buckets.keys().copied().collect();
        let mut guard = (buckets.len() + 1) * (ROWS + 2) + 16 * self.capacity;
        while let Some(idx) = queue.pop() {
            let single = match buckets.get(&idx) {
                None => continue,
                Some(bk) => {
                    if bk.is_zero() {
                        buckets.remove(&idx);
                        continue;
                    }
                    self.try_single(bk)
                }
            };
            if let Some((key, payload)) = single {
                // Subtract the recovered pair from every row.
                let c = self.combine(&payload);
                let kc = field::mul(field::canon(key), c);
                let fc = field::mul(self.fingerprint_hash.hash(field::canon(key)), c);
                for row in 0..ROWS {
                    let ridx = self.bucket_index(row, key);
                    if !buckets.contains_key(&ridx) {
                        return Err(DecodeError::Inconsistent);
                    }
                    Self::apply(&mut buckets, ridx, self.width, &payload, (c, kc, fc), true);
                    if buckets.contains_key(&ridx) {
                        queue.push(ridx);
                    }
                }
                out.push((key, payload.iter().map(|&w| balanced(w)).collect()));
            }
            if guard == 0 {
                break;
            }
            guard -= 1;
        }
        if !buckets.is_empty() {
            return Err(DecodeError::Overloaded);
        }
        out.sort_unstable_by_key(|(k, _)| *k);
        Ok(out)
    }

    /// Tests whether a bucket holds exactly one key and returns it with its
    /// exact field payload.
    fn try_single(&self, bk: &Bucket) -> Option<(u64, Vec<u64>)> {
        if bk.a == 0 {
            return None;
        }
        let key = field::mul(bk.b, field::inv(bk.a));
        if field::mul(self.fingerprint_hash.hash(key), bk.a) != bk.f {
            return None;
        }
        // Single key: the payload sums are exactly its payload. Validate the
        // compression to guard against fingerprint false positives.
        if self.combine(&bk.payload) != bk.a {
            return None;
        }
        Some((key, bk.payload.clone()))
    }

    /// Worst-case (dense) footprint the paper's space accounting charges.
    pub fn nominal_bytes(&self) -> usize {
        let per_bucket = self.width * 8 + 3 * 8;
        ROWS * self.buckets_per_row * per_bucket + self.hash_bytes()
    }

    fn hash_bytes(&self) -> usize {
        self.row_hashes
            .iter()
            .map(SpaceUsage::space_bytes)
            .sum::<usize>()
            + self.fingerprint_hash.space_bytes()
            + 8
    }

    /// Adds `delta` to a single slot of `key`'s payload without
    /// allocating a scratch width-vector — the engine's per-update hot
    /// path ([`LinearSketch::update`] routes through slot 0).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.width()`.
    pub fn update_slot(&mut self, key: u64, slot: usize, delta: i128) {
        assert!(slot < self.width, "slot {slot} out of range");
        let d = mod_p(delta);
        if d == 0 {
            return;
        }
        // A single-slot delta compresses to `c = α^slot · d`.
        let mut apow = 1u64;
        for _ in 0..slot {
            apow = field::mul(apow, self.alpha);
        }
        let c = field::mul(apow, d);
        let kc = field::mul(field::canon(key), c);
        let fc = field::mul(self.fingerprint_hash.hash(field::canon(key)), c);
        for row in 0..ROWS {
            let idx = self.bucket_index(row, key);
            let width = self.width;
            let bucket = self
                .buckets
                .entry(idx)
                .or_insert_with(|| Bucket::zero(width));
            bucket.payload[slot] = field::add(bucket.payload[slot], d);
            bucket.a = field::add(bucket.a, c);
            bucket.b = field::add(bucket.b, kc);
            bucket.f = field::add(bucket.f, fc);
            if bucket.is_zero() {
                self.buckets.remove(&idx);
            }
        }
    }

    /// Number of currently allocated buckets.
    pub fn touched_buckets(&self) -> usize {
        self.buckets.len()
    }
}

impl LinearSketch for LinearHashTable {
    const WIRE_KIND: u16 = wire::KIND_HASHTABLE;

    /// Scalar view of the table: `update(key, delta)` adds `delta` to slot
    /// 0 of `key`'s payload vector (the natural embedding of a plain
    /// dynamic vector into a width-`w` table), allocation-free.
    fn update(&mut self, key: u64, delta: i128) {
        self.update_slot(key, 0, delta);
    }

    fn merge(&mut self, other: &Self) {
        assert!(self.compatible(other), "merging incompatible tables");
        for (&idx, theirs) in &other.buckets {
            let width = self.width;
            let mine = self
                .buckets
                .entry(idx)
                .or_insert_with(|| Bucket::zero(width));
            for (slot, d) in mine.payload.iter_mut().zip(&theirs.payload) {
                *slot = field::add(*slot, *d);
            }
            mine.a = field::add(mine.a, theirs.a);
            mine.b = field::add(mine.b, theirs.b);
            mine.f = field::add(mine.f, theirs.f);
            if mine.is_zero() {
                self.buckets.remove(&idx);
            }
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        wire::put_len(&mut payload, self.capacity);
        wire::put_len(&mut payload, self.width);
        wire::put_u64(&mut payload, self.seed);
        let mut buckets: Vec<(u32, &Bucket)> = self.buckets.iter().map(|(&i, b)| (i, b)).collect();
        buckets.sort_unstable_by_key(|&(i, _)| i);
        wire::put_len(&mut payload, buckets.len());
        for (idx, bk) in buckets {
            wire::put_u32(&mut payload, idx);
            for &w in &bk.payload {
                wire::put_u64(&mut payload, w);
            }
            wire::put_u64(&mut payload, bk.a);
            wire::put_u64(&mut payload, bk.b);
            wire::put_u64(&mut payload, bk.f);
        }
        wire::finish_frame(Self::WIRE_KIND, payload)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = wire::open_frame(Self::WIRE_KIND, bytes)?;
        let capacity = r.read_len()?;
        let width = r.read_len()?;
        if capacity == 0 || width == 0 {
            return Err(WireError::Malformed("zero capacity or width"));
        }
        let seed = r.u64()?;
        let mut table = LinearHashTable::new(capacity, width, seed);
        let n = r.read_len()?;
        for _ in 0..n {
            let idx = r.u32()?;
            let mut bucket = Bucket::zero(width);
            for slot in bucket.payload.iter_mut() {
                *slot = r.u64()?;
            }
            bucket.a = r.u64()?;
            bucket.b = r.u64()?;
            bucket.f = r.u64()?;
            if bucket.payload.iter().any(|&w| w >= field::P)
                || bucket.a >= field::P
                || bucket.b >= field::P
                || bucket.f >= field::P
            {
                return Err(WireError::Malformed("non-canonical field word"));
            }
            if table.buckets.insert(idx, bucket).is_some() {
                return Err(WireError::Malformed("duplicate bucket index"));
            }
        }
        r.expect_end()?;
        Ok(table)
    }
}

impl SpaceUsage for LinearHashTable {
    fn space_bytes(&self) -> usize {
        let per_bucket = self.width * 8 + 3 * 8 + 4;
        self.buckets.len() * per_bucket + self.hash_bytes()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_decodes_empty() {
        let t = LinearHashTable::new(4, 3, 1);
        assert!(t.is_zero());
        assert_eq!(t.decode().unwrap(), vec![]);
    }

    #[test]
    fn single_entry_roundtrip() {
        let mut t = LinearHashTable::new(4, 3, 2);
        t.update(42, &[1, -2, 3]);
        assert_eq!(t.decode().unwrap(), vec![(42, vec![1, -2, 3])]);
    }

    #[test]
    fn payload_accumulates() {
        let mut t = LinearHashTable::new(4, 2, 3);
        t.update(7, &[1, 0]);
        t.update(7, &[0, 5]);
        t.update(7, &[-1, 0]);
        assert_eq!(t.decode().unwrap(), vec![(7, vec![0, 5])]);
    }

    #[test]
    fn field_words_cancel_exactly() {
        // The regression that motivated field arithmetic: a field word `w`
        // inserted and a word `p - w` (its negation mod p) must cancel.
        let mut t = LinearHashTable::new(4, 1, 11);
        let w = 123_456_789u64;
        t.update(5, &[w as i128]);
        t.update(5, &[-(w as i128)]);
        assert!(t.is_zero(), "field negation left residue");
    }

    #[test]
    fn full_capacity_recovers() {
        let mut t = LinearHashTable::new(8, 2, 4);
        for i in 0..8u64 {
            t.update(i * 31 + 5, &[i as i128, -(i as i128)]);
        }
        let entries = t.decode().unwrap();
        // key for i=0 has zero payload and drops out of the support.
        assert_eq!(entries.len(), 7);
        for (k, p) in entries {
            let i = ((k - 5) / 31) as i128;
            assert_eq!(p, vec![i, -i]);
        }
    }

    #[test]
    fn overload_detected() {
        let mut t = LinearHashTable::new(4, 1, 5);
        for i in 0..100u64 {
            t.update(i, &[1]);
        }
        assert_eq!(t.decode(), Err(DecodeError::Overloaded));
    }

    #[test]
    fn deletions_shrink_support() {
        let mut t = LinearHashTable::new(4, 1, 6);
        for i in 0..50u64 {
            t.update(i, &[2]);
        }
        for i in 0..48u64 {
            t.update(i, &[-2]);
        }
        assert_eq!(t.decode().unwrap(), vec![(48, vec![2]), (49, vec![2])]);
    }

    #[test]
    fn merge_is_linear() {
        let mut a = LinearHashTable::new(4, 2, 7);
        let mut b = LinearHashTable::new(4, 2, 7);
        let mut direct = LinearHashTable::new(4, 2, 7);
        a.update(1, &[1, 1]);
        direct.update(1, &[1, 1]);
        b.update(1, &[-1, 0]);
        b.update(2, &[4, 4]);
        direct.update(1, &[-1, 0]);
        direct.update(2, &[4, 4]);
        a.merge(&b);
        assert_eq!(a.decode().unwrap(), direct.decode().unwrap());
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn incompatible_merge_panics() {
        let mut a = LinearHashTable::new(4, 2, 1);
        let b = LinearHashTable::new(4, 2, 2);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_update_panics() {
        let mut t = LinearHashTable::new(4, 2, 1);
        t.update(1, &[1]);
    }

    #[test]
    fn zero_delta_ignored() {
        let mut t = LinearHashTable::new(4, 2, 8);
        t.update(9, &[0, 0]);
        assert!(t.is_zero());
    }

    #[test]
    fn embeds_one_sparse_cells_with_churn() {
        use crate::onesparse::OneSparseCell;
        use dsg_hash::KWiseHash;
        // The Algorithm-2 pattern under churn: inner cells stream through
        // the table as payload deltas; a deleted inner edge cancels exactly.
        let inner_hash = KWiseHash::new(3, 404);
        let mut t = LinearHashTable::new(4, 3, 9);
        let apply = |t: &mut LinearHashTable, key: u64, x: u64, d: i128| {
            let mut cell = OneSparseCell::new();
            cell.update(x, d, &inner_hash);
            t.update(key, &cell.to_words());
        };
        apply(&mut t, 500, 17, 1);
        apply(&mut t, 500, 23, 1);
        apply(&mut t, 500, 23, -1); // churn cancels
        apply(&mut t, 600, 99, 1);
        apply(&mut t, 600, 99, -1); // whole key cancels
        let entries = t.decode().unwrap();
        assert_eq!(entries.len(), 1);
        let (key, words) = &entries[0];
        assert_eq!(*key, 500);
        let recovered = OneSparseCell::from_words(&[words[0], words[1], words[2]]).unwrap();
        assert_eq!(recovered.decode(&inner_hash).unwrap(), Some((17, 1)));
    }

    #[test]
    fn wire_roundtrip_preserves_decode() {
        let mut t = LinearHashTable::new(8, 2, 33);
        t.update(4, &[5, -6]);
        t.update(900, &[1, 0]);
        let bytes = t.to_bytes();
        let back = LinearHashTable::from_bytes(&bytes).unwrap();
        assert_eq!(back.decode().unwrap(), t.decode().unwrap());
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn scalar_trait_update_uses_slot_zero() {
        let mut t = LinearHashTable::new(4, 3, 12);
        LinearSketch::update(&mut t, 9, 5);
        assert_eq!(t.decode().unwrap(), vec![(9, vec![5, 0, 0])]);
    }

    #[test]
    fn update_slot_matches_vector_update() {
        let mut by_slot = LinearHashTable::new(4, 3, 14);
        let mut by_vec = LinearHashTable::new(4, 3, 14);
        for (key, slot, d) in [(7u64, 0usize, 5i128), (7, 2, -3), (9, 1, 4), (7, 2, 3)] {
            by_slot.update_slot(key, slot, d);
            let mut payload = [0i128; 3];
            payload[slot] = d;
            by_vec.update(key, &payload);
        }
        assert_eq!(by_slot.to_bytes(), by_vec.to_bytes());
        // Cancellation through the slot path frees buckets identically.
        by_slot.update_slot(9, 1, -4);
        by_vec.update(9, &[0, -4, 0]);
        assert_eq!(by_slot.to_bytes(), by_vec.to_bytes());
    }

    #[test]
    fn success_rate_at_half_capacity() {
        let mut failures = 0;
        for seed in 0..100u64 {
            let mut t = LinearHashTable::new(16, 1, seed);
            for i in 0..8u64 {
                t.update(i * 101 + seed, &[1]);
            }
            if t.decode().is_err() {
                failures += 1;
            }
        }
        assert!(failures <= 1, "failures={failures}");
    }

    #[test]
    fn nominal_vs_actual_space() {
        let mut t = LinearHashTable::new(64, 3, 1);
        t.update(1, &[1, 2, 3]);
        assert!(t.nominal_bytes() > t.space_bytes());
    }

    #[test]
    fn large_field_payloads_roundtrip() {
        // Words near the top of the field must survive (as balanced lifts).
        let mut t = LinearHashTable::new(4, 2, 13);
        let big = (dsg_hash::field::P - 5) as i128; // ≡ -5
        t.update(3, &[big, 7]);
        let entries = t.decode().unwrap();
        assert_eq!(entries, vec![(3, vec![-5, 7])]);
    }
}
