//! L0 sampling: drawing a (near-)uniform nonzero coordinate of a dynamic
//! vector.
//!
//! The paper's constructions repeatedly need "an arbitrary element in the
//! support" of a sketched vector that survived insertions and deletions:
//! Algorithm 1 recovers witness edges this way, and the AGM spanning-forest
//! sketch (Theorem 10) samples an outgoing edge of each supernode. The
//! classic construction subsamples the coordinate universe at geometric
//! rates `2^{-j}` with independent `O(log n)`-wise hashes and keeps a small
//! sparse-recovery sketch per level; at the level where the expected
//! surviving support is around the budget, decoding succeeds and any
//! surviving coordinate may be reported (we pick the one with minimal
//! tie-breaking hash, which makes the choice stable under merges).
//!
//! Like [`crate::ssparse`], the sampler is split into an [`L0Family`]
//! (shared hashes — one per AGM round, say) and per-vertex [`L0State`]s, so
//! a graph's worth of samplers costs cells rather than hash tables.
//! [`L0Sampler`] bundles the two for standalone use.
//!
//! The paper remarks (Section 3.2) that its `E_j`/`Y_j` machinery "could be
//! eliminated by using L0-SAMPLER in a similar way as AGM12a does" — this
//! module is that sampler.

use crate::error::DecodeError;
use crate::ssparse::{RecoveryFamily, RecoveryState};
use crate::wire::{self, ByteReader, WireError};
use crate::LinearSketch;
use dsg_hash::{KWiseHash, SeedTree, SubsetSampler};
use dsg_util::SpaceUsage;

/// Default per-level decoding budget.
const LEVEL_BUDGET: usize = 8;

/// Shared randomness of an L0 sampler: per-level subset samplers and
/// recovery families, plus the tie-breaking hash.
///
/// # Examples
///
/// ```
/// use dsg_sketch::l0::L0Family;
///
/// let fam = L0Family::new(16, 7);
/// let mut a = fam.new_state();
/// let mut b = fam.new_state();
/// fam.update(&mut a, 3, 1);
/// fam.update(&mut b, 3, -1); // cancels across states
/// fam.update(&mut b, 9, 2);
/// a.merge(&b);
/// assert_eq!(fam.sample(&a).unwrap(), Some((9, 2)));
/// ```
#[derive(Debug, Clone)]
pub struct L0Family {
    levels: Vec<(SubsetSampler, RecoveryFamily)>,
    tie_hash: KWiseHash,
    seed: u64,
    family_id: u64,
}

/// Per-instance cells of an L0 sampler.
#[derive(Debug, Clone, Default)]
pub struct L0State {
    levels: Vec<RecoveryState>,
    family_id: u64,
}

impl L0Family {
    /// Creates a family for coordinates in `[0, 2^universe_bits)`.
    ///
    /// # Panics
    ///
    /// Panics if `universe_bits > 60`.
    pub fn new(universe_bits: u32, seed: u64) -> Self {
        Self::with_budget(universe_bits, LEVEL_BUDGET, seed)
    }

    /// Creates a family with an explicit per-level decoding budget.
    ///
    /// # Panics
    ///
    /// Panics if `universe_bits > 60` or `budget == 0`.
    pub fn with_budget(universe_bits: u32, budget: usize, seed: u64) -> Self {
        assert!(universe_bits <= 60, "universe too large for field keys");
        let tree = SeedTree::new(seed ^ 0x4C30_5341_4D50_4C52); // "L0SAMPLR"
        let levels = (0..=universe_bits)
            .map(|j| {
                (
                    SubsetSampler::at_rate_pow2(tree.child(j as u64).child(0).seed(), j),
                    RecoveryFamily::new(budget, tree.child(j as u64).child(1).seed()),
                )
            })
            .collect();
        let tie_hash = KWiseHash::new(4, tree.child(0x7E).seed());
        let family_id = tree.child(0x1D).seed();
        Self {
            levels,
            tie_hash,
            seed,
            family_id,
        }
    }

    /// The creation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-level decoding budget.
    pub fn budget(&self) -> usize {
        self.levels[0].1.budget()
    }

    /// Number of subsampling levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Decodes a state serialized by [`L0State::encode_into`], binding it
    /// to this family.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the payload is truncated, malformed, or its level
    /// count does not match this family's.
    pub fn decode_state(&self, r: &mut ByteReader<'_>) -> Result<L0State, WireError> {
        let n = r.read_len()?;
        if n != self.levels.len() {
            return Err(WireError::Malformed("level count mismatch"));
        }
        let levels = self
            .levels
            .iter()
            .map(|(_, fam)| fam.decode_state(r))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(L0State {
            levels,
            family_id: self.family_id,
        })
    }

    /// Creates an empty state bound to this family.
    pub fn new_state(&self) -> L0State {
        L0State {
            levels: self.levels.iter().map(|(_, fam)| fam.new_state()).collect(),
            family_id: self.family_id,
        }
    }

    /// Applies `x[key] += delta` to `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` belongs to a different family.
    pub fn update(&self, state: &mut L0State, key: u64, delta: i128) {
        assert_eq!(
            state.family_id, self.family_id,
            "state from a different family"
        );
        if delta == 0 {
            return;
        }
        for ((sampler, fam), st) in self.levels.iter().zip(&mut state.levels) {
            if sampler.contains(key) {
                fam.update(st, key, delta);
            }
        }
    }

    /// Worst-case (dense) footprint of one state in bytes — the space a
    /// deployment must reserve per sampler instance.
    pub fn nominal_state_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|(_, fam)| fam.nominal_state_bytes())
            .sum()
    }

    /// Samples a nonzero coordinate of the vector sketched by `state`.
    ///
    /// Scans levels from sparsest to densest (the paper's "largest `j` down
    /// to 0") and returns the minimum-tie-hash element of the first
    /// non-empty decodable level. `Ok(None)` means the vector is zero.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Overloaded`] if no level decodes — the whp failure
    /// event the paper conditions away.
    ///
    /// # Panics
    ///
    /// Panics if `state` belongs to a different family.
    pub fn sample(&self, state: &L0State) -> Result<Option<(u64, i128)>, DecodeError> {
        assert_eq!(
            state.family_id, self.family_id,
            "state from a different family"
        );
        let mut all_failed = true;
        for ((_, fam), st) in self.levels.iter().zip(&state.levels).rev() {
            match fam.decode(st) {
                Ok(items) => {
                    all_failed = false;
                    if let Some(best) = items.iter().min_by_key(|(k, _)| self.tie_hash.hash(*k)) {
                        return Ok(Some(*best));
                    }
                }
                Err(_) => continue,
            }
        }
        if all_failed {
            Err(DecodeError::Overloaded)
        } else {
            Ok(None)
        }
    }
}

impl SpaceUsage for L0Family {
    fn space_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|(s, f)| s.space_bytes() + f.space_bytes())
            .sum::<usize>()
            + self.tie_hash.space_bytes()
    }
}

impl L0State {
    /// Adds another state (sketch of the vector sum).
    ///
    /// # Panics
    ///
    /// Panics if the states belong to different families.
    pub fn merge(&mut self, other: &L0State) {
        assert_eq!(
            self.family_id, other.family_id,
            "merging states of different families"
        );
        for (mine, theirs) in self.levels.iter_mut().zip(&other.levels) {
            mine.merge(theirs);
        }
    }

    /// Subtracts another state (sketch of the vector difference).
    ///
    /// # Panics
    ///
    /// Panics if the states belong to different families.
    pub fn unmerge(&mut self, other: &L0State) {
        assert_eq!(
            self.family_id, other.family_id,
            "subtracting states of different families"
        );
        for (mine, theirs) in self.levels.iter_mut().zip(&other.levels) {
            mine.unmerge(theirs);
        }
    }

    /// Whether all level states are zero.
    pub fn is_zero(&self) -> bool {
        self.levels.iter().all(RecoveryState::is_zero)
    }

    /// Serializes the per-level states (canonical order). Decode with
    /// [`L0Family::decode_state`] on a family built from the same seed —
    /// snapshots never carry hash functions (see [`crate::wire`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_len(out, self.levels.len());
        for st in &self.levels {
            st.encode_into(out);
        }
    }
}

impl SpaceUsage for L0State {
    fn space_bytes(&self) -> usize {
        self.levels.iter().map(SpaceUsage::space_bytes).sum()
    }
}

/// A standalone L0 sampler: an [`L0Family`] bundled with one [`L0State`].
///
/// # Examples
///
/// ```
/// use dsg_sketch::L0Sampler;
///
/// let mut s = L0Sampler::new(20, 42); // universe of 2^20 coordinates
/// s.update(7, 1);
/// s.update(8, 1);
/// s.update(7, -1); // delete
/// assert_eq!(s.sample().unwrap(), Some((8, 1)));
/// ```
#[derive(Debug, Clone)]
pub struct L0Sampler {
    family: L0Family,
    state: L0State,
}

impl L0Sampler {
    /// Creates a sampler for coordinates in `[0, 2^universe_bits)`.
    ///
    /// # Panics
    ///
    /// Panics if `universe_bits > 60`.
    pub fn new(universe_bits: u32, seed: u64) -> Self {
        let family = L0Family::new(universe_bits, seed);
        let state = family.new_state();
        Self { family, state }
    }

    /// Creates a sampler with an explicit per-level decoding budget.
    ///
    /// # Panics
    ///
    /// Panics if `universe_bits > 60` or `budget == 0`.
    pub fn with_budget(universe_bits: u32, budget: usize, seed: u64) -> Self {
        let family = L0Family::with_budget(universe_bits, budget, seed);
        let state = family.new_state();
        Self { family, state }
    }

    /// The creation seed (compatibility key for merges).
    pub fn seed(&self) -> u64 {
        self.family.seed()
    }

    /// Number of subsampling levels.
    pub fn num_levels(&self) -> usize {
        self.family.num_levels()
    }

    /// Applies `x[key] += delta`.
    pub fn update(&mut self, key: u64, delta: i128) {
        self.family.update(&mut self.state, key, delta);
    }

    /// Subtracts another sampler's state.
    ///
    /// # Panics
    ///
    /// Panics if the samplers are incompatible.
    pub fn unmerge(&mut self, other: &L0Sampler) {
        assert_eq!(
            self.seed(),
            other.seed(),
            "subtracting incompatible L0 samplers"
        );
        self.state.unmerge(&other.state);
    }

    /// Whether all level sketches are zero.
    pub fn is_zero(&self) -> bool {
        self.state.is_zero()
    }

    /// Samples a nonzero coordinate; see [`L0Family::sample`].
    ///
    /// # Errors
    ///
    /// [`DecodeError::Overloaded`] if no level decodes.
    pub fn sample(&self) -> Result<Option<(u64, i128)>, DecodeError> {
        self.family.sample(&self.state)
    }
}

impl SpaceUsage for L0Sampler {
    fn space_bytes(&self) -> usize {
        self.family.space_bytes() + self.state.space_bytes()
    }
}

impl LinearSketch for L0Sampler {
    const WIRE_KIND: u16 = wire::KIND_L0_SAMPLER;

    fn update(&mut self, key: u64, delta: i128) {
        self.family.update(&mut self.state, key, delta);
    }

    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.seed(),
            other.seed(),
            "merging incompatible L0 samplers"
        );
        assert_eq!(
            self.num_levels(),
            other.num_levels(),
            "merging incompatible L0 samplers"
        );
        self.state.merge(&other.state);
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        wire::put_u32(&mut payload, (self.family.num_levels() - 1) as u32);
        wire::put_len(&mut payload, self.family.budget());
        wire::put_u64(&mut payload, self.family.seed());
        self.state.encode_into(&mut payload);
        wire::finish_frame(Self::WIRE_KIND, payload)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = wire::open_frame(Self::WIRE_KIND, bytes)?;
        let universe_bits = r.u32()?;
        if universe_bits > 60 {
            return Err(WireError::Malformed("universe too large"));
        }
        let budget = r.read_len()?;
        if budget == 0 {
            return Err(WireError::Malformed("zero budget"));
        }
        let seed = r.u64()?;
        let family = L0Family::with_budget(universe_bits, budget, seed);
        let state = family.decode_state(&mut r)?;
        r.expect_end()?;
        Ok(Self { family, state })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn zero_vector_samples_none() {
        let s = L0Sampler::new(16, 1);
        assert_eq!(s.sample().unwrap(), None);
    }

    #[test]
    fn singleton_always_found() {
        for seed in 0..20u64 {
            let mut s = L0Sampler::new(16, seed);
            s.update(12345, 3);
            assert_eq!(s.sample().unwrap(), Some((12345, 3)), "seed {seed}");
        }
    }

    #[test]
    fn survives_heavy_churn() {
        let mut s = L0Sampler::new(20, 7);
        for i in 0..5000u64 {
            s.update(i, 1);
        }
        for i in 0..4999u64 {
            s.update(i, -1);
        }
        assert_eq!(s.sample().unwrap(), Some((4999, 1)));
    }

    #[test]
    fn large_support_sampled_from_some_level() {
        let mut ok = 0;
        for seed in 0..20u64 {
            let mut s = L0Sampler::new(20, seed);
            for i in 0..10_000u64 {
                s.update(i * 3, 1);
            }
            if let Ok(Some((k, v))) = s.sample() {
                assert_eq!(k % 3, 0);
                assert_eq!(v, 1);
                ok += 1;
            }
        }
        assert!(ok >= 18, "sampled {ok}/20");
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let coords: Vec<u64> = (0..8).map(|i| i * 977 + 5).collect();
        let mut counts: HashMap<u64, usize> = HashMap::new();
        let trials = 400;
        for seed in 0..trials {
            let mut s = L0Sampler::new(16, seed);
            for &c in &coords {
                s.update(c, 1);
            }
            if let Ok(Some((k, _))) = s.sample() {
                *counts.entry(k).or_insert(0) += 1;
            }
        }
        for &c in &coords {
            let got = counts.get(&c).copied().unwrap_or(0);
            assert!(
                got > trials as usize / 40,
                "coordinate {c} sampled {got} times"
            );
        }
    }

    #[test]
    fn merge_cancels_internal_mass() {
        // The AGM pattern: two vectors whose shared coordinate cancels.
        let mut a = L0Sampler::new(16, 11);
        let mut b = L0Sampler::new(16, 11);
        a.update(100, 1);
        a.update(200, 1);
        b.update(100, -1);
        a.merge(&b);
        assert_eq!(a.sample().unwrap(), Some((200, 1)));
    }

    #[test]
    fn unmerge_restores() {
        let mut a = L0Sampler::new(12, 3);
        a.update(5, 2);
        let mut b = L0Sampler::new(12, 3);
        b.update(9, 4);
        a.merge(&b);
        a.unmerge(&b);
        assert_eq!(a.sample().unwrap(), Some((5, 2)));
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn incompatible_merge_panics() {
        let mut a = L0Sampler::new(12, 1);
        let b = L0Sampler::new(12, 2);
        a.merge(&b);
    }

    #[test]
    fn wire_roundtrip_preserves_sample() {
        let mut s = L0Sampler::new(12, 77);
        s.update(100, 1);
        s.update(200, 2);
        s.update(100, -1);
        let bytes = s.to_bytes();
        let back = L0Sampler::from_bytes(&bytes).unwrap();
        assert_eq!(back.sample().unwrap(), s.sample().unwrap());
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn space_scales_with_levels() {
        let small = L0Sampler::new(8, 1);
        let large = L0Sampler::new(32, 1);
        assert!(large.space_bytes() > small.space_bytes());
    }

    #[test]
    fn family_states_are_cheap() {
        let fam = L0Family::new(30, 5);
        let state = fam.new_state();
        // An empty state carries no hash tables, only level stubs.
        assert_eq!(state.space_bytes(), 0);
        assert!(fam.space_bytes() > 1000);
    }

    #[test]
    fn many_states_one_family_merge() {
        let fam = L0Family::new(16, 9);
        let mut states: Vec<L0State> = (0..50).map(|_| fam.new_state()).collect();
        for (i, st) in states.iter_mut().enumerate() {
            fam.update(st, 1000 + i as u64, 1);
        }
        let mut total = fam.new_state();
        for st in &states {
            total.merge(st);
        }
        let got = fam.sample(&total).unwrap();
        assert!(got.is_some());
        let (k, v) = got.unwrap();
        assert!((1000..1050).contains(&k));
        assert_eq!(v, 1);
    }
}
