//! `SKETCH_B` / `DECODE`: exact recovery of `B`-sparse dynamic vectors.
//!
//! This is the workhorse primitive of the paper (used in Algorithms 1–3 and
//! 5): a linear function of a dynamic vector `x ∈ Z^U` from which `x` can be
//! reconstructed exactly, with high probability, whenever `‖x‖_0 ≤ B`.
//! The paper instantiates it with the combinatorial compressed-sensing
//! matrices of Cormode–Muthukrishnan (Theorem 8); we use the equivalent
//! invertible-Bloom-lookup-table construction: `rows` hash functions spread
//! coordinates over `O(B)` buckets of [`OneSparseCell`]s and decoding peels
//! 1-sparse cells until the sketch empties. Failure (support above budget)
//! is detected, never silent — matching the paper's assumption that "we
//! always know if a `SKETCH_B(x)` can be decoded".
//!
//! # Families and states
//!
//! The paper shares sketch randomness across vertices: "the random bits used
//! by SKETCH are a function of `(r, j)`, and independent for different
//! `(r, j)`" — which is exactly what makes `Σ_{v ∈ T_u} S^{r,j}(v)` a valid
//! sketch of the union. [`RecoveryFamily`] holds that shared randomness
//! (hash functions and geometry) once; [`RecoveryState`] holds only the
//! per-instance cells. Maintaining a sketch per vertex therefore costs the
//! cells, not another copy of the hash functions. [`SparseRecovery`]
//! bundles a family with a single state for the common standalone case.
//!
//! Cells are allocated lazily (absent bucket = all-zero cell), so memory
//! scales with the number of *touched* buckets. `nominal_bytes` reports the
//! worst-case (dense) footprint that the paper's space bounds charge.

use crate::error::DecodeError;
use crate::onesparse::{OneSparseCell, OneSparseVerdict};
use crate::wire::{self, ByteReader, WireError};
use crate::LinearSketch;
use dsg_hash::{KWiseHash, SeedTree};
use dsg_util::SpaceUsage;
use std::collections::HashMap;

/// Number of hash rows; 3 gives peeling success for loads below ~0.8 and the
/// bucket head-room below keeps small budgets reliable.
const ROWS: usize = 3;

/// Per-row bucket head-room multiplier over the budget.
const BUCKET_FACTOR: usize = 2;

/// Minimum buckets per row, so tiny budgets still peel reliably.
const MIN_BUCKETS: usize = 4;

/// Independence of the bucket-placement hashes.
const PLACEMENT_INDEPENDENCE: usize = 7;

/// The shared randomness and geometry of a `SKETCH_B` instantiation.
///
/// All states updated against the same family are mutually mergeable, and
/// merging states sketches the sum of their vectors.
///
/// # Examples
///
/// ```
/// use dsg_sketch::ssparse::RecoveryFamily;
///
/// let fam = RecoveryFamily::new(4, 7);
/// let mut a = fam.new_state();
/// let mut b = fam.new_state();
/// fam.update(&mut a, 10, 1);
/// fam.update(&mut b, 11, 2);
/// a.merge(&b);
/// assert_eq!(fam.decode(&a).unwrap(), vec![(10, 1), (11, 2)]);
/// ```
#[derive(Debug, Clone)]
pub struct RecoveryFamily {
    budget: usize,
    seed: u64,
    buckets_per_row: usize,
    row_hashes: Vec<KWiseHash>,
    fingerprint_hash: KWiseHash,
    /// Distinguishes families when states are merged (safety check).
    family_id: u64,
}

/// The per-instance cells of a `SKETCH_B` sketch (lazily allocated).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryState {
    cells: HashMap<u32, OneSparseCell>,
    family_id: u64,
}

impl RecoveryFamily {
    /// Creates a family with the given decoding budget and seed.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn new(budget: usize, seed: u64) -> Self {
        assert!(budget > 0, "decoding budget must be positive");
        let tree = SeedTree::new(seed ^ 0x5353_5041_5253_4531); // "SSPARSE1"
        let buckets_per_row = (budget * BUCKET_FACTOR).max(MIN_BUCKETS);
        let row_hashes = (0..ROWS)
            .map(|r| KWiseHash::new(PLACEMENT_INDEPENDENCE, tree.child(r as u64).seed()))
            .collect();
        let fingerprint_hash = KWiseHash::new(3, tree.child(0xF1).seed());
        let family_id = tree.child(0x1D).seed() ^ budget as u64;
        Self {
            budget,
            seed,
            buckets_per_row,
            row_hashes,
            fingerprint_hash,
            family_id,
        }
    }

    /// The decoding budget `B`.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The creation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Creates an empty state bound to this family.
    pub fn new_state(&self) -> RecoveryState {
        RecoveryState {
            cells: HashMap::new(),
            family_id: self.family_id,
        }
    }

    #[inline]
    fn cell_index(&self, row: usize, key: u64) -> u32 {
        let bucket = self.row_hashes[row].hash_below(key, self.buckets_per_row as u64);
        (row * self.buckets_per_row) as u32 + bucket as u32
    }

    /// Applies `x[key] += delta` to `state`.
    ///
    /// Zero deltas are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `state` belongs to a different family.
    pub fn update(&self, state: &mut RecoveryState, key: u64, delta: i128) {
        assert_eq!(
            state.family_id, self.family_id,
            "state from a different family"
        );
        if delta == 0 {
            return;
        }
        for row in 0..ROWS {
            let idx = self.cell_index(row, key);
            let cell = state.cells.entry(idx).or_default();
            cell.update(key, delta, &self.fingerprint_hash);
            if cell.is_zero() {
                state.cells.remove(&idx);
            }
        }
    }

    /// Reconstructs the nonzero coordinates of the vector sketched by
    /// `state`.
    ///
    /// Runs peeling on a copy of the state; `state` is unchanged.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Overloaded`] if peeling stalls (support exceeded the
    /// budget, or an unlucky placement); [`DecodeError::Inconsistent`] if a
    /// peeled coordinate collides with contradictory state.
    ///
    /// # Panics
    ///
    /// Panics if `state` belongs to a different family.
    pub fn decode(&self, state: &RecoveryState) -> Result<Vec<(u64, i128)>, DecodeError> {
        assert_eq!(
            state.family_id, self.family_id,
            "state from a different family"
        );
        let mut cells = state.cells.clone();
        let mut recovered: HashMap<u64, i128> = HashMap::new();
        let mut queue: Vec<u32> = cells.keys().copied().collect();
        // Cap iterations defensively; each successful peel removes a
        // coordinate, so this bound is generous unless the state is corrupt.
        let mut guard = (cells.len() + 1) * (ROWS + 2) + 16 * self.budget;
        while let Some(idx) = queue.pop() {
            let verdict = match cells.get(&idx) {
                Some(cell) => cell.verdict(&self.fingerprint_hash),
                None => continue,
            };
            match verdict {
                OneSparseVerdict::Zero => {
                    cells.remove(&idx);
                }
                OneSparseVerdict::One { key, value } => {
                    *recovered.entry(key).or_insert(0) += value;
                    for row in 0..ROWS {
                        let ridx = self.cell_index(row, key);
                        if let Some(rcell) = cells.get_mut(&ridx) {
                            rcell.update(key, -value, &self.fingerprint_hash);
                            if rcell.is_zero() {
                                cells.remove(&ridx);
                            } else {
                                queue.push(ridx);
                            }
                        } else if ridx != idx {
                            return Err(DecodeError::Inconsistent);
                        }
                    }
                }
                OneSparseVerdict::Many => {}
            }
            if guard == 0 {
                break;
            }
            guard -= 1;
        }
        if !cells.is_empty() {
            return Err(DecodeError::Overloaded);
        }
        let mut out: Vec<(u64, i128)> = recovered.into_iter().filter(|&(_, v)| v != 0).collect();
        out.sort_unstable();
        Ok(out)
    }

    /// Worst-case (dense) footprint of one state in bytes, as the paper's
    /// space accounting charges (hash words included).
    pub fn nominal_state_bytes(&self) -> usize {
        ROWS * self.buckets_per_row * OneSparseCell::new().space_bytes() + self.space_bytes()
    }

    /// Decodes a state serialized by [`RecoveryState::encode_into`],
    /// binding it to this family.
    pub(crate) fn decode_state(&self, r: &mut ByteReader<'_>) -> Result<RecoveryState, WireError> {
        RecoveryState::decode_from(r, self.family_id)
    }
}

impl SpaceUsage for RecoveryFamily {
    fn space_bytes(&self) -> usize {
        self.row_hashes
            .iter()
            .map(SpaceUsage::space_bytes)
            .sum::<usize>()
            + self.fingerprint_hash.space_bytes()
    }
}

impl RecoveryState {
    /// Adds another state (sketch of the vector sum).
    ///
    /// # Panics
    ///
    /// Panics if the states belong to different families.
    pub fn merge(&mut self, other: &RecoveryState) {
        assert_eq!(
            self.family_id, other.family_id,
            "merging states of different families"
        );
        for (&idx, cell) in &other.cells {
            let mine = self.cells.entry(idx).or_default();
            mine.merge(cell);
            if mine.is_zero() {
                self.cells.remove(&idx);
            }
        }
    }

    /// Subtracts another state (sketch of the vector difference).
    ///
    /// # Panics
    ///
    /// Panics if the states belong to different families.
    pub fn unmerge(&mut self, other: &RecoveryState) {
        assert_eq!(
            self.family_id, other.family_id,
            "subtracting states of different families"
        );
        for (&idx, cell) in &other.cells {
            let mine = self.cells.entry(idx).or_default();
            mine.unmerge(cell);
            if mine.is_zero() {
                self.cells.remove(&idx);
            }
        }
    }

    /// Whether the state is identically zero.
    pub fn is_zero(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of currently allocated (nonzero) cells.
    pub fn touched_cells(&self) -> usize {
        self.cells.len()
    }

    /// Serializes the cells in sorted index order (canonical encoding).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let mut cells: Vec<(u32, &OneSparseCell)> =
            self.cells.iter().map(|(&i, c)| (i, c)).collect();
        cells.sort_unstable_by_key(|&(i, _)| i);
        wire::put_len(out, cells.len());
        for (idx, cell) in cells {
            let (total, key_sum, fingerprint) = cell.raw_parts();
            wire::put_u32(out, idx);
            wire::put_i128(out, total);
            wire::put_u64(out, key_sum);
            wire::put_u64(out, fingerprint);
        }
    }

    /// Decodes cells serialized by [`RecoveryState::encode_into`] into a
    /// state bound to `family_id`.
    pub(crate) fn decode_from(r: &mut ByteReader<'_>, family_id: u64) -> Result<Self, WireError> {
        let n = r.read_len()?;
        // Each cell occupies 36 payload bytes; bound the declared count by
        // what the remaining payload could possibly hold before allocating.
        if n > r.remaining() / 36 {
            return Err(WireError::Truncated);
        }
        let mut cells = HashMap::with_capacity(n);
        for _ in 0..n {
            let idx = r.u32()?;
            let total = r.i128()?;
            let key_sum = r.u64()?;
            let fingerprint = r.u64()?;
            let cell = OneSparseCell::from_raw_parts(total, key_sum, fingerprint)?;
            if cells.insert(idx, cell).is_some() {
                return Err(WireError::Malformed("duplicate cell index"));
            }
        }
        Ok(Self { cells, family_id })
    }
}

impl SpaceUsage for RecoveryState {
    fn space_bytes(&self) -> usize {
        self.cells.len() * (4 + OneSparseCell::new().space_bytes())
    }
}

/// A standalone `SKETCH_B` sketch: a [`RecoveryFamily`] bundled with one
/// [`RecoveryState`].
///
/// # Examples
///
/// ```
/// use dsg_sketch::{LinearSketch, SparseRecovery};
///
/// let mut a = SparseRecovery::new(4, 99);
/// let mut b = SparseRecovery::new(4, 99); // same seed: compatible
/// a.update(10, 1);
/// b.update(10, -1);
/// b.update(20, 5);
/// a.merge(&b);
/// assert_eq!(a.decode().unwrap(), vec![(20, 5)]);
/// ```
#[derive(Debug, Clone)]
pub struct SparseRecovery {
    family: RecoveryFamily,
    state: RecoveryState,
}

impl SparseRecovery {
    /// Creates a sketch with the given decoding budget and seed.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn new(budget: usize, seed: u64) -> Self {
        let family = RecoveryFamily::new(budget, seed);
        let state = family.new_state();
        Self { family, state }
    }

    /// The decoding budget `B`.
    pub fn budget(&self) -> usize {
        self.family.budget()
    }

    /// The creation seed (compatibility key).
    pub fn seed(&self) -> u64 {
        self.family.seed()
    }

    /// Whether `other` can be merged into `self`.
    pub fn compatible(&self, other: &SparseRecovery) -> bool {
        self.family.family_id == other.family.family_id
    }

    /// Applies the update `x[key] += delta`. Zero deltas are ignored.
    pub fn update(&mut self, key: u64, delta: i128) {
        self.family.update(&mut self.state, key, delta);
    }

    /// Subtracts `other` from `self` (sketch of the vector difference).
    ///
    /// # Panics
    ///
    /// Panics if the sketches are incompatible.
    pub fn unmerge(&mut self, other: &SparseRecovery) {
        assert!(self.compatible(other), "subtracting incompatible sketches");
        self.state.unmerge(&other.state);
    }

    /// Whether the sketch state is identically zero.
    pub fn is_zero(&self) -> bool {
        self.state.is_zero()
    }

    /// Reconstructs the sketched vector's nonzero coordinates.
    ///
    /// # Errors
    ///
    /// See [`RecoveryFamily::decode`].
    pub fn decode(&self) -> Result<Vec<(u64, i128)>, DecodeError> {
        self.family.decode(&self.state)
    }

    /// Decodes and returns an arbitrary nonzero coordinate (the paper
    /// frequently wants "an arbitrary element in the support").
    ///
    /// # Errors
    ///
    /// Propagates decode failures; `Ok(None)` when the vector is zero.
    pub fn decode_any(&self) -> Result<Option<(u64, i128)>, DecodeError> {
        Ok(self.decode()?.into_iter().next())
    }

    /// Worst-case (dense) footprint in bytes.
    pub fn nominal_bytes(&self) -> usize {
        self.family.nominal_state_bytes()
    }

    /// Number of currently allocated (nonzero) cells.
    pub fn touched_cells(&self) -> usize {
        self.state.touched_cells()
    }
}

impl SpaceUsage for SparseRecovery {
    fn space_bytes(&self) -> usize {
        self.family.space_bytes() + self.state.space_bytes()
    }
}

impl LinearSketch for SparseRecovery {
    const WIRE_KIND: u16 = wire::KIND_SPARSE_RECOVERY;

    fn update(&mut self, key: u64, delta: i128) {
        self.family.update(&mut self.state, key, delta);
    }

    fn merge(&mut self, other: &Self) {
        assert!(self.compatible(other), "merging incompatible sketches");
        self.state.merge(&other.state);
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        wire::put_len(&mut payload, self.family.budget);
        wire::put_u64(&mut payload, self.family.seed);
        self.state.encode_into(&mut payload);
        wire::finish_frame(Self::WIRE_KIND, payload)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = wire::open_frame(Self::WIRE_KIND, bytes)?;
        let budget = r.read_len()?;
        if budget == 0 {
            return Err(WireError::Malformed("zero budget"));
        }
        let seed = r.u64()?;
        let family = RecoveryFamily::new(budget, seed);
        let state = RecoveryState::decode_from(&mut r, family.family_id)?;
        r.expect_end()?;
        Ok(Self { family, state })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_decodes_to_nothing() {
        let sk = SparseRecovery::new(4, 1);
        assert!(sk.is_zero());
        assert_eq!(sk.decode().unwrap(), vec![]);
        assert_eq!(sk.decode_any().unwrap(), None);
    }

    #[test]
    fn recovers_exactly_at_budget() {
        let mut sk = SparseRecovery::new(8, 2);
        let items: Vec<(u64, i128)> = (0..8).map(|i| (i * 1000 + 3, i as i128 - 4)).collect();
        for &(k, v) in &items {
            if v != 0 {
                sk.update(k, v);
            }
        }
        let mut expect: Vec<(u64, i128)> = items.into_iter().filter(|&(_, v)| v != 0).collect();
        expect.sort_unstable();
        assert_eq!(sk.decode().unwrap(), expect);
    }

    #[test]
    fn detects_overload() {
        let mut sk = SparseRecovery::new(4, 3);
        for i in 0..200u64 {
            sk.update(i, 1);
        }
        assert_eq!(sk.decode(), Err(DecodeError::Overloaded));
    }

    #[test]
    fn deletions_restore_decodability() {
        let mut sk = SparseRecovery::new(4, 4);
        for i in 0..100u64 {
            sk.update(i, 1);
        }
        for i in 0..98u64 {
            sk.update(i, -1);
        }
        assert_eq!(sk.decode().unwrap(), vec![(98, 1), (99, 1)]);
    }

    #[test]
    fn merge_matches_direct_updates() {
        let mut direct = SparseRecovery::new(6, 77);
        let mut a = SparseRecovery::new(6, 77);
        let mut b = SparseRecovery::new(6, 77);
        for i in 0..5u64 {
            direct.update(i, 2);
            a.update(i, 2);
        }
        for i in 3..8u64 {
            direct.update(i, -1);
            b.update(i, -1);
        }
        a.merge(&b);
        assert_eq!(a.decode().unwrap(), direct.decode().unwrap());
    }

    #[test]
    fn unmerge_isolates_difference() {
        let mut a = SparseRecovery::new(4, 5);
        let mut b = SparseRecovery::new(4, 5);
        a.update(1, 1);
        a.update(2, 1);
        b.update(1, 1);
        a.unmerge(&b);
        assert_eq!(a.decode().unwrap(), vec![(2, 1)]);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn incompatible_merge_panics() {
        let mut a = SparseRecovery::new(4, 1);
        let b = SparseRecovery::new(4, 2);
        a.merge(&b);
    }

    #[test]
    fn update_zero_is_noop() {
        let mut sk = SparseRecovery::new(4, 9);
        sk.update(5, 0);
        assert!(sk.is_zero());
    }

    #[test]
    fn cancellation_frees_cells() {
        let mut sk = SparseRecovery::new(4, 9);
        sk.update(5, 3);
        assert!(sk.touched_cells() > 0);
        sk.update(5, -3);
        assert_eq!(sk.touched_cells(), 0);
        assert!(sk.is_zero());
    }

    #[test]
    fn success_rate_high_at_half_budget() {
        let mut failures = 0;
        let trials = 200;
        for seed in 0..trials {
            let mut sk = SparseRecovery::new(16, seed);
            for i in 0..8u64 {
                sk.update(i * 7919 + seed, 1);
            }
            if sk.decode().is_err() {
                failures += 1;
            }
        }
        assert!(failures <= 2, "failures={failures}/{trials}");
    }

    #[test]
    fn large_keys_supported() {
        let mut sk = SparseRecovery::new(2, 11);
        let big = (1u64 << 61) - 2; // largest canonical key
        sk.update(big, 42);
        assert_eq!(sk.decode().unwrap(), vec![(big, 42)]);
    }

    #[test]
    fn nominal_exceeds_actual_for_sparse_use() {
        let mut sk = SparseRecovery::new(32, 1);
        sk.update(1, 1);
        assert!(sk.nominal_bytes() > sk.space_bytes());
    }

    #[test]
    fn decode_does_not_mutate() {
        let mut sk = SparseRecovery::new(4, 13);
        sk.update(10, 1);
        sk.update(20, 2);
        let before = sk.decode().unwrap();
        let after = sk.decode().unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn family_states_share_randomness() {
        let fam = RecoveryFamily::new(4, 42);
        let mut states: Vec<RecoveryState> = (0..10).map(|_| fam.new_state()).collect();
        for (i, st) in states.iter_mut().enumerate() {
            fam.update(st, i as u64, 1);
        }
        // Merging all states sketches the union.
        let mut total = fam.new_state();
        for st in &states {
            total.merge(st);
        }
        let decoded = fam.decode(&total).unwrap();
        assert_eq!(decoded.len(), 10);
    }

    #[test]
    #[should_panic(expected = "different family")]
    fn cross_family_update_panics() {
        let fam_a = RecoveryFamily::new(4, 1);
        let fam_b = RecoveryFamily::new(4, 2);
        let mut st = fam_a.new_state();
        fam_b.update(&mut st, 1, 1);
    }

    #[test]
    fn wire_roundtrip_preserves_state() {
        let mut sk = SparseRecovery::new(8, 321);
        for i in 0..6u64 {
            sk.update(i * 911, i as i128 - 3);
        }
        let bytes = sk.to_bytes();
        let back = SparseRecovery::from_bytes(&bytes).unwrap();
        assert_eq!(back.decode(), sk.decode());
        // Canonical encoding: re-serializing gives identical bytes.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn wire_snapshot_merges_like_original() {
        let mut a = SparseRecovery::new(4, 5);
        let mut b = SparseRecovery::new(4, 5);
        a.update(1, 2);
        b.update(9, -7);
        let mut shipped = SparseRecovery::from_bytes(&b.to_bytes()).unwrap();
        shipped.merge(&a);
        let mut direct = a.clone();
        direct.merge(&b);
        assert_eq!(shipped.decode(), direct.decode());
    }

    #[test]
    fn family_space_counted_once() {
        let fam = RecoveryFamily::new(8, 3);
        let st = fam.new_state();
        assert!(st.space_bytes() == 0);
        assert!(fam.space_bytes() > 0);
        assert!(fam.nominal_state_bytes() > fam.space_bytes());
    }
}
