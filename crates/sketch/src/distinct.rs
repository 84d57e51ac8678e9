//! Distinct-elements (support size / L0 norm) estimation.
//!
//! Theorem 9 of the paper (after Kane–Nelson–Woodruff) provides a linear
//! sketch estimating the number of distinct elements of a dynamic vector to
//! within `(1 ± eps)` with probability `1 - delta`, used in two places:
//!
//! * as the decodability guard for every `SKETCH_B` instantiation ("declare
//!   the sketch to be not decodable when the number of distinct elements is
//!   estimated to be above `2B`");
//! * as the degree estimate `d_u` in the additive-spanner Algorithm 3.
//!
//! The construction: for each of `reps` independent repetitions, subsample
//! coordinates at rates `2^{-j}` and keep a small sparse-recovery sketch per
//! level. The estimate of one repetition is `count · 2^{j*}` where `j*` is
//! the densest level that decodes; the median over repetitions gives the
//! KNW-style guarantee shape (see `DESIGN.md` for the substitution note).
//!
//! Within one repetition the levels are **nested**: a single
//! `O(log n)`-wise hash `h_r` is drawn per repetition and level `j` keeps
//! the keys with `h_r(key) < p·2^{-j}` — exactly the KNW geometric-level
//! scheme. This is deliberate (and is what makes updates cheap): the
//! original per-level independent samplers cost a full polynomial hash
//! evaluation *per level per repetition* on every update (~23 µs at 20
//! universe bits); one hash per repetition plus an early-exit over the
//! nested thresholds is an order of magnitude cheaper, and the per-level
//! `(1±eps)` concentration argument only ever looks at one level at a
//! time, so nesting does not weaken it. Repetitions stay mutually
//! independent, which is all the median needs.
//!
//! Split into [`DistinctFamily`] (shared hashes) and per-vertex
//! [`DistinctState`]s so that Algorithm 3's `n` degree estimators cost cells
//! rather than hash tables. [`DistinctEstimator`] bundles both.

use crate::error::DecodeError;
use crate::ssparse::{RecoveryFamily, RecoveryState};
use crate::wire::{self, WireError};
use crate::LinearSketch;
use dsg_hash::{field, KWiseHash, SeedTree};
use dsg_util::SpaceUsage;

/// Independence of the per-repetition level hash; `O(log n)`-wise is what
/// the paper's concentration arguments consume.
const LEVEL_INDEPENDENCE: usize = dsg_hash::subset::DEFAULT_INDEPENDENCE;

/// One repetition: a level hash plus a recovery family per nested level.
#[derive(Debug, Clone)]
struct DistinctRep {
    /// Level-j membership is `level_hash(key) < p >> j` (nested).
    level_hash: KWiseHash,
    levels: Vec<RecoveryFamily>,
}

/// Shared randomness of a distinct-elements estimator.
///
/// # Examples
///
/// ```
/// use dsg_sketch::distinct::DistinctFamily;
///
/// let fam = DistinctFamily::new(16, 0.5, 5, 7);
/// let mut st = fam.new_state();
/// for i in 0..12u64 {
///     fam.update(&mut st, i, 1);
/// }
/// assert_eq!(fam.estimate(&st).unwrap(), 12); // small supports are exact
/// ```
#[derive(Debug, Clone)]
pub struct DistinctFamily {
    reps: Vec<DistinctRep>,
    budget: usize,
    universe_bits: u32,
    seed: u64,
    family_id: u64,
}

/// Per-instance cells of a distinct-elements estimator.
#[derive(Debug, Clone, Default)]
pub struct DistinctState {
    reps: Vec<Vec<RecoveryState>>,
    family_id: u64,
}

impl DistinctFamily {
    /// Creates a family for coordinates in `[0, 2^universe_bits)` with
    /// target relative error `eps`, using `reps` repetitions (median).
    ///
    /// The per-level budget is `ceil(4 / eps^2)`, so a decodable level holds
    /// enough surviving coordinates for `(1±eps)` concentration.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1]`, `reps == 0`, or
    /// `universe_bits > 60`.
    pub fn new(universe_bits: u32, eps: f64, reps: usize, seed: u64) -> Self {
        assert!(eps > 0.0 && eps <= 1.0, "eps {eps} outside (0, 1]");
        let budget = (4.0 / (eps * eps)).ceil() as usize;
        Self::with_budget(universe_bits, budget, reps, seed)
    }

    /// Creates a family with an explicit per-level decode budget — the
    /// parameterization snapshots travel under (see [`crate::wire`]).
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`, `reps == 0`, or `universe_bits > 60`.
    pub fn with_budget(universe_bits: u32, budget: usize, reps: usize, seed: u64) -> Self {
        assert!(budget > 0, "budget must be positive");
        assert!(reps > 0, "need at least one repetition");
        assert!(universe_bits <= 60, "universe too large");
        let tree = SeedTree::new(seed ^ 0x4449_5354_494E_4354); // "DISTINCT"
        let reps = (0..reps)
            .map(|r| {
                let rtree = tree.child(r as u64);
                DistinctRep {
                    level_hash: KWiseHash::new(LEVEL_INDEPENDENCE, rtree.child(0xA0).seed()),
                    levels: (0..=universe_bits)
                        .map(|j| RecoveryFamily::new(budget, rtree.child(j as u64).child(1).seed()))
                        .collect(),
                }
            })
            .collect();
        let family_id = tree.child(0x1D).seed();
        Self {
            reps,
            budget,
            universe_bits,
            seed,
            family_id,
        }
    }

    /// The creation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-level decode budget (`ceil(4 / eps^2)`).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The universe size exponent this family was built for.
    pub fn universe_bits(&self) -> u32 {
        self.universe_bits
    }

    /// Number of repetitions (the median width).
    pub fn num_reps(&self) -> usize {
        self.reps.len()
    }

    /// Creates an empty state bound to this family.
    pub fn new_state(&self) -> DistinctState {
        DistinctState {
            reps: self
                .reps
                .iter()
                .map(|rep| rep.levels.iter().map(|f| f.new_state()).collect())
                .collect(),
            family_id: self.family_id,
        }
    }

    /// Applies `x[key] += delta` to `state`.
    ///
    /// One level-hash evaluation per repetition decides every nested
    /// level's membership; only the expected-O(1) containing levels touch
    /// their recovery sketches.
    ///
    /// # Panics
    ///
    /// Panics if `state` belongs to a different family.
    pub fn update(&self, state: &mut DistinctState, key: u64, delta: i128) {
        assert_eq!(
            state.family_id, self.family_id,
            "state from a different family"
        );
        if delta == 0 {
            return;
        }
        for (rep, states) in self.reps.iter().zip(&mut state.reps) {
            let h = rep.level_hash.hash(key);
            for (j, (fam, st)) in rep.levels.iter().zip(states.iter_mut()).enumerate() {
                // Nested thresholds are monotone: once a level misses, all
                // sparser levels miss too.
                if h >= field::P >> j {
                    break;
                }
                fam.update(st, key, delta);
            }
        }
    }

    /// Worst-case (dense) footprint of one state in bytes — the space a
    /// deployment must reserve per estimator instance.
    pub fn nominal_state_bytes(&self) -> usize {
        self.reps
            .iter()
            .map(|rep| {
                rep.levels
                    .iter()
                    .map(|f| f.nominal_state_bytes())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Estimates the number of nonzero coordinates of `state`'s vector.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Overloaded`] if some repetition has no decodable
    /// level (whp-failure event).
    ///
    /// # Panics
    ///
    /// Panics if `state` belongs to a different family.
    pub fn estimate(&self, state: &DistinctState) -> Result<u64, DecodeError> {
        assert_eq!(
            state.family_id, self.family_id,
            "state from a different family"
        );
        let mut per_rep: Vec<u64> = Vec::with_capacity(self.reps.len());
        for (rep, states) in self.reps.iter().zip(&state.reps) {
            per_rep.push(Self::estimate_rep(rep, states)?);
        }
        per_rep.sort_unstable();
        Ok(per_rep[per_rep.len() / 2])
    }

    fn estimate_rep(rep: &DistinctRep, states: &[RecoveryState]) -> Result<u64, DecodeError> {
        // Level 0 samples at rate 1: if it decodes, the count is exact.
        // Otherwise scale the densest decodable level's count by 2^j.
        for (j, (fam, st)) in rep.levels.iter().zip(states).enumerate() {
            match fam.decode(st) {
                Ok(items) => {
                    let count = items.len() as u64;
                    return Ok(if j == 0 { count } else { count << j });
                }
                Err(_) => continue,
            }
        }
        Err(DecodeError::Overloaded)
    }

    /// Decodes a state serialized by [`DistinctState::encode_into`].
    pub(crate) fn decode_state(
        &self,
        r: &mut wire::ByteReader<'_>,
    ) -> Result<DistinctState, WireError> {
        let nreps = r.read_len()?;
        if nreps != self.reps.len() {
            return Err(WireError::Malformed("repetition count mismatch"));
        }
        let reps = self
            .reps
            .iter()
            .map(|rep| {
                let nlevels = r.read_len()?;
                if nlevels != rep.levels.len() {
                    return Err(WireError::Malformed("level count mismatch"));
                }
                rep.levels
                    .iter()
                    .map(|fam| fam.decode_state(r))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DistinctState {
            reps,
            family_id: self.family_id,
        })
    }
}

impl SpaceUsage for DistinctFamily {
    fn space_bytes(&self) -> usize {
        self.reps
            .iter()
            .map(|rep| {
                rep.level_hash.space_bytes()
                    + rep
                        .levels
                        .iter()
                        .map(SpaceUsage::space_bytes)
                        .sum::<usize>()
            })
            .sum()
    }
}

impl DistinctState {
    /// Adds another state (linearity).
    ///
    /// # Panics
    ///
    /// Panics if the states belong to different families.
    pub fn merge(&mut self, other: &DistinctState) {
        assert_eq!(
            self.family_id, other.family_id,
            "merging states of different families"
        );
        for (mine, theirs) in self.reps.iter_mut().zip(&other.reps) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.merge(b);
            }
        }
    }

    /// Serializes the per-repetition level states (canonical order).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_len(out, self.reps.len());
        for levels in &self.reps {
            wire::put_len(out, levels.len());
            for st in levels {
                st.encode_into(out);
            }
        }
    }
}

impl SpaceUsage for DistinctState {
    fn space_bytes(&self) -> usize {
        self.reps
            .iter()
            .map(|levels| levels.iter().map(SpaceUsage::space_bytes).sum::<usize>())
            .sum()
    }
}

/// A standalone estimator: a [`DistinctFamily`] bundled with one state.
///
/// # Examples
///
/// ```
/// use dsg_sketch::DistinctEstimator;
///
/// let mut d = DistinctEstimator::new(20, 0.25, 7, 42);
/// for i in 0..1000u64 {
///     d.update(i, 1);
/// }
/// for i in 0..500u64 {
///     d.update(i, -1); // deletions shrink the support
/// }
/// let est = d.estimate().unwrap();
/// assert!((est as f64 - 500.0).abs() < 200.0);
/// ```
#[derive(Debug, Clone)]
pub struct DistinctEstimator {
    family: DistinctFamily,
    state: DistinctState,
}

impl DistinctEstimator {
    /// Creates an estimator; see [`DistinctFamily::new`] for parameters.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`DistinctFamily::new`].
    pub fn new(universe_bits: u32, eps: f64, reps: usize, seed: u64) -> Self {
        let family = DistinctFamily::new(universe_bits, eps, reps, seed);
        let state = family.new_state();
        Self { family, state }
    }

    /// The creation seed (compatibility key for merges).
    pub fn seed(&self) -> u64 {
        self.family.seed()
    }

    /// The per-level decode budget (`ceil(4 / eps^2)`).
    pub fn budget(&self) -> usize {
        self.family.budget()
    }

    /// Applies `x[key] += delta`.
    pub fn update(&mut self, key: u64, delta: i128) {
        self.family.update(&mut self.state, key, delta);
    }

    /// Estimates the number of nonzero coordinates.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Overloaded`] if some repetition has no decodable
    /// level (whp-failure event).
    pub fn estimate(&self) -> Result<u64, DecodeError> {
        self.family.estimate(&self.state)
    }
}

impl SpaceUsage for DistinctEstimator {
    fn space_bytes(&self) -> usize {
        self.family.space_bytes() + self.state.space_bytes()
    }
}

impl LinearSketch for DistinctEstimator {
    const WIRE_KIND: u16 = wire::KIND_DISTINCT;

    fn update(&mut self, key: u64, delta: i128) {
        self.family.update(&mut self.state, key, delta);
    }

    fn merge(&mut self, other: &Self) {
        assert_eq!(self.seed(), other.seed(), "merging incompatible estimators");
        assert_eq!(
            self.family.num_reps(),
            other.family.num_reps(),
            "merging incompatible estimators"
        );
        self.state.merge(&other.state);
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        wire::put_u32(&mut payload, self.family.universe_bits());
        wire::put_len(&mut payload, self.family.budget());
        wire::put_len(&mut payload, self.family.num_reps());
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
        let reps = r.read_len()?;
        if budget == 0 || reps == 0 {
            return Err(WireError::Malformed("zero budget or repetitions"));
        }
        // Every repetition costs at least 8 payload bytes (its level
        // count); bound the declared count before building hash machinery.
        if reps > r.remaining() / 8 {
            return Err(WireError::Truncated);
        }
        let seed = r.u64()?;
        let family = DistinctFamily::with_budget(universe_bits, budget, reps, seed);
        let state = family.decode_state(&mut r)?;
        r.expect_end()?;
        Ok(Self { family, state })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn exact_for_small_supports() {
        let mut d = DistinctEstimator::new(16, 0.5, 5, 1);
        for i in 0..10u64 {
            d.update(i * 13, 2);
        }
        assert_eq!(d.estimate().unwrap(), 10);
    }

    #[test]
    fn zero_vector_estimates_zero() {
        let d = DistinctEstimator::new(16, 0.5, 3, 2);
        assert_eq!(d.estimate().unwrap(), 0);
    }

    #[test]
    fn cancellations_do_not_count() {
        let mut d = DistinctEstimator::new(16, 0.5, 5, 3);
        for i in 0..20u64 {
            d.update(i, 1);
        }
        for i in 0..15u64 {
            d.update(i, -1);
        }
        assert_eq!(d.estimate().unwrap(), 5);
    }

    #[test]
    fn large_support_within_relative_error() {
        for (seed, n) in [(1u64, 2_000u64), (2, 10_000), (3, 50_000)] {
            let mut d = DistinctEstimator::new(20, 0.25, 9, seed);
            for i in 0..n {
                d.update(i, 1);
            }
            let est = d.estimate().unwrap() as f64;
            let rel = (est - n as f64).abs() / n as f64;
            assert!(rel < 0.35, "n={n}: est={est}, rel={rel}");
        }
    }

    #[test]
    fn merge_matches_direct() {
        let mut a = DistinctEstimator::new(16, 0.5, 3, 9);
        let mut b = DistinctEstimator::new(16, 0.5, 3, 9);
        let mut direct = DistinctEstimator::new(16, 0.5, 3, 9);
        for i in 0..50u64 {
            a.update(i, 1);
            direct.update(i, 1);
        }
        for i in 25..75u64 {
            b.update(i, 1);
            direct.update(i, 1);
        }
        a.merge(&b);
        assert_eq!(a.estimate().unwrap(), direct.estimate().unwrap());
    }

    #[test]
    fn budget_tracks_eps() {
        let coarse = DistinctEstimator::new(8, 1.0, 1, 1);
        let fine = DistinctEstimator::new(8, 0.1, 1, 1);
        assert_eq!(coarse.budget(), 4);
        assert_eq!(fine.budget(), 400);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_eps_panics() {
        DistinctEstimator::new(8, 0.0, 1, 1);
    }

    #[test]
    fn family_states_are_cheap() {
        let fam = DistinctFamily::new(20, 0.5, 5, 4);
        let st = fam.new_state();
        assert_eq!(st.space_bytes(), 0);
        assert!(fam.space_bytes() > 0);
    }

    #[test]
    fn per_vertex_degree_pattern() {
        // The Algorithm-3 pattern: one family, one state per vertex, each
        // state sketching that vertex's neighborhood.
        let fam = DistinctFamily::new(12, 0.5, 5, 8);
        let mut states: Vec<DistinctState> = (0..20).map(|_| fam.new_state()).collect();
        for u in 0..20u64 {
            for v in 0..u {
                fam.update(&mut states[u as usize], v, 1);
            }
        }
        for u in 0..20u64 {
            assert_eq!(fam.estimate(&states[u as usize]).unwrap(), u, "vertex {u}");
        }
    }

    #[test]
    fn nested_levels_halve_in_expectation() {
        // A sanity check on the nested-level scheme: the number of level-j
        // survivors should be about n·2^{-j}.
        let fam = DistinctFamily::new(20, 0.5, 1, 11);
        let rep = &fam.reps[0];
        let n = 40_000u64;
        for j in [1usize, 3, 5] {
            let hits = (0..n)
                .filter(|&x| rep.level_hash.hash(x) < field::P >> j)
                .count() as f64;
            let expect = n as f64 / (1u64 << j) as f64;
            assert!(
                (hits - expect).abs() < 6.0 * expect.sqrt() + 6.0,
                "level {j}: {hits} vs {expect}"
            );
        }
    }

    #[test]
    fn crafted_repetition_count_rejected_before_allocation() {
        // reps = 2^38 declared over a near-empty payload: bounded by the
        // payload size, not trusted.
        let mut payload = Vec::new();
        wire::put_u32(&mut payload, 10);
        wire::put_len(&mut payload, 4);
        wire::put_len(&mut payload, 1usize << 38);
        wire::put_u64(&mut payload, 0);
        let frame = wire::finish_frame(wire::KIND_DISTINCT, payload);
        assert!(DistinctEstimator::from_bytes(&frame).is_err());
    }

    #[test]
    fn wire_roundtrip_preserves_estimate() {
        let mut d = DistinctEstimator::new(14, 0.5, 3, 21);
        for i in 0..300u64 {
            d.update(i * 7, 1);
        }
        let bytes = d.to_bytes();
        let back = DistinctEstimator::from_bytes(&bytes).unwrap();
        assert_eq!(back.estimate().unwrap(), d.estimate().unwrap());
        assert_eq!(back.to_bytes(), bytes);
    }
}
