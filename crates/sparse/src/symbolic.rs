//! Symbolic multiplication-count analysis of the sparse butterfly network.
//!
//! Every node of the `m`-point network carries an abstract state:
//!
//! * `Zero` — the value is identically zero;
//! * `Scaled { src, exp }` — the value is `ω^exp · x_src` for a single
//!   live input slot `src` (`ω = e^{+2πi/m}`, exponent mod `m`; the
//!   negation `ω^{exp+m/2}` is folded into the exponent);
//! * `Dense` — a general value.
//!
//! Zero-propagation through a butterfly realizes the paper's **skipping**
//! (a zero second operand turns the butterfly into a pair of copies);
//! scaled-propagation realizes **merging** (twiddle exponents accumulate
//! and the chain collapses into one multiplication when the value finally
//! meets a non-zero addend or the network output).
//!
//! Counting conventions follow the paper's accounting: a dense `m`-point
//! network costs `m/2 · log2 m` multiplications (one per executed
//! butterfly, trivial twiddles included); a merged chain costs one
//! multiplication per *distinct* `(src, exp)` group, with negations and
//! duplications free. Unlike the paper's Example 4.2 we do not charge for
//! `ω^0` materializations (they are wires), which makes our counts lower
//! by at most one per source.

use crate::pattern::SparsityPattern;
use flash_math::bitrev::log2_exact;
use flash_runtime::{CacheStats, Interner};
use std::collections::HashSet;
use std::sync::Arc;

/// Node state in the abstract interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Zero,
    Scaled { src: u32, exp: u32 },
    Dense,
}

/// Operation counts of one sparse transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataflowCounts {
    /// Transform size `m`.
    pub m: u64,
    /// Butterflies actually executed (each counted as one complex
    /// multiplication, matching the paper's dense accounting).
    pub executed_butterflies: u64,
    /// Materializations of merged chains (distinct non-trivial
    /// `(src, exp)` groups; negation and `ω^0` are free).
    pub materializations: u64,
    /// Complex additions/subtractions performed.
    pub adds: u64,
    /// Butterflies skipped because the second operand was zero
    /// (duplications) or both operands were zero.
    pub skipped_butterflies: u64,
}

impl DataflowCounts {
    /// Total complex multiplications of the sparse dataflow.
    pub fn mults(&self) -> u64 {
        self.executed_butterflies + self.materializations
    }

    /// Multiplications of the classical dense dataflow,
    /// `m/2 · log2 m`.
    pub fn dense_mults(&self) -> u64 {
        let log = self.m.trailing_zeros() as u64;
        self.m / 2 * log
    }

    /// Fraction of dense multiplications eliminated
    /// (the paper reports > 86 % for encoded weight polynomials).
    pub fn reduction(&self) -> f64 {
        1.0 - self.mults() as f64 / self.dense_mults() as f64
    }
}

/// Per-stage multiplication profile of a sparse transform (stage index 0
/// is the first butterfly stage; the final entry holds the output-side
/// materializations of merged chains).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageProfile {
    /// Counted multiplications per butterfly stage.
    pub per_stage: Vec<u64>,
    /// Materializations charged at the network outputs.
    pub output_materializations: u64,
}

impl StageProfile {
    /// Total multiplications (must equal [`DataflowCounts::mults`]).
    pub fn total(&self) -> u64 {
        self.per_stage.iter().sum::<u64>() + self.output_materializations
    }
}

/// Like [`analyze`] but additionally returns where in the pipeline each
/// multiplication happens — the input of the cycle-accurate PE simulator.
pub fn analyze_with_profile(pattern_bitrev: &SparsityPattern) -> (DataflowCounts, StageProfile) {
    analyze_inner(pattern_bitrev)
}

/// Analyzes the butterfly network for an input sparsity pattern given in
/// *bit-reversed* order (the order in which stage 1 consumes slots).
///
/// # Panics
///
/// Panics if the pattern length is not a power of two ≥ 2.
pub fn analyze(pattern_bitrev: &SparsityPattern) -> DataflowCounts {
    analyze_inner(pattern_bitrev).0
}

/// Canonical digest of a sparsity pattern (see
/// [`SparsityPattern::packed_words`]): two patterns share a key iff their
/// masks are identical.
type PatternKey = (usize, Vec<u64>);

/// Process-wide memo of symbolic analyses, keyed by the pattern digest.
static ANALYSIS_CACHE: Interner<PatternKey, (DataflowCounts, StageProfile)> =
    Interner::bounded(256);

/// Memoized [`analyze_with_profile`]: the symbolic interpretation runs
/// once per distinct bit-reversed pattern per process, and every later
/// call with an identical mask returns the same `Arc`. Networks repeat
/// heavily across layers of one CNN (all layers of a stage share a
/// fold pattern), so this converts the per-layer `O(m log m)` sweep of
/// `run_network` into a lookup.
///
/// # Panics
///
/// Panics if the pattern length is not a power of two ≥ 2.
pub fn analyze_cached(pattern_bitrev: &SparsityPattern) -> Arc<(DataflowCounts, StageProfile)> {
    ANALYSIS_CACHE.intern_with(pattern_bitrev.packed_words(), |_| {
        analyze_inner(pattern_bitrev)
    })
}

/// Hit/miss counters of the [`analyze_cached`] memo.
pub fn analysis_cache_stats() -> CacheStats {
    ANALYSIS_CACHE.stats()
}

fn analyze_inner(pattern_bitrev: &SparsityPattern) -> (DataflowCounts, StageProfile) {
    let m = pattern_bitrev.len();
    assert!(m >= 2, "network must have at least 2 points");
    let log_m = log2_exact(m);
    let mut counts = DataflowCounts {
        m: m as u64,
        ..DataflowCounts::default()
    };

    let mut state: Vec<State> = (0..m)
        .map(|i| {
            if pattern_bitrev.get(i) {
                State::Scaled {
                    src: i as u32,
                    exp: 0,
                }
            } else {
                State::Zero
            }
        })
        .collect();

    // Deduplicated materialization groups: (src, exp mod m/2); the
    // negated pair shares hardware.
    let mut groups: HashSet<(u32, u32)> = HashSet::new();
    let half_m = (m / 2) as u32;

    let mut materialize = |st: State, counts: &mut DataflowCounts| -> State {
        if let State::Scaled { src, exp } = st {
            let key = (src, exp % half_m);
            if exp % half_m != 0 && groups.insert(key) {
                counts.materializations += 1;
            }
            State::Dense
        } else {
            st
        }
    };

    let mut per_stage = Vec::with_capacity(log_m as usize);
    for s in 1..=log_m {
        let mults_before = counts.executed_butterflies + counts.materializations;
        let len = 1usize << s;
        let half = len / 2;
        let stride = (m / len) as u32;
        for block in (0..m).step_by(len) {
            for j in 0..half {
                let t = j as u32 * stride; // twiddle exponent, units 2π/m
                let iu = block + j;
                let iv = block + j + half;
                let (u, v) = (state[iu], state[iv]);
                match (u, v) {
                    // Skipping: zero second operand → both outputs copy u.
                    (_, State::Zero) => {
                        counts.skipped_butterflies += 1;
                        state[iv] = u;
                    }
                    // Merging: twiddle folds into the scaled chain.
                    (State::Zero, State::Scaled { src, exp }) => {
                        counts.skipped_butterflies += 1;
                        state[iu] = State::Scaled {
                            src,
                            exp: (exp + t) % m as u32,
                        };
                        state[iv] = State::Scaled {
                            src,
                            exp: (exp + t + half_m) % m as u32,
                        };
                    }
                    // A dense value with a zero partner still needs its
                    // twiddle product (outputs w·v and −w·v).
                    (State::Zero, State::Dense) => {
                        counts.executed_butterflies += 1;
                        state[iu] = State::Dense;
                        state[iv] = State::Dense;
                    }
                    // Both operands live: a real butterfly executes. A
                    // scaled v fuses its chain into the butterfly twiddle
                    // (one multiplication either way); a scaled u must
                    // materialize first.
                    (_, _) => {
                        state[iu] = materialize(u, &mut counts);
                        counts.executed_butterflies += 1;
                        counts.adds += 2;
                        state[iu] = State::Dense;
                        state[iv] = State::Dense;
                    }
                }
            }
        }
        per_stage.push(counts.executed_butterflies + counts.materializations - mults_before);
    }

    // Network outputs: merged chains materialize for the point-wise stage.
    let before_outputs = counts.materializations;
    for st in state {
        let _ = materialize(st, &mut counts);
    }

    (
        counts,
        StageProfile {
            per_stage,
            output_materializations: counts.materializations - before_outputs,
        },
    )
}

/// Multiplications of the fold/twist stage for a live-slot pattern in
/// natural order: one per live slot with non-trivial twist (`ω^0` free).
pub fn twist_mults(pattern_natural: &SparsityPattern) -> u64 {
    pattern_natural
        .indices()
        .iter()
        .filter(|&&j| j != 0)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_pattern_matches_classical_count() {
        for m in [4usize, 16, 64, 256] {
            let c = analyze(&SparsityPattern::dense(m));
            assert_eq!(c.mults(), c.dense_mults(), "m={m}");
            assert_eq!(c.skipped_butterflies, 0);
            assert_eq!(c.adds, c.dense_mults() * 2);
        }
    }

    #[test]
    fn paper_example_4_1_skipping() {
        // 16-point network, 4 contiguous valid values at bit-reversed
        // positions 0..4: only the 4-point sub-network executes (4 mults),
        // an 87.5 % reduction from the classical 32.
        let p = SparsityPattern::from_indices(16, [0, 1, 2, 3]);
        let c = analyze(&p);
        assert_eq!(c.mults(), 4);
        assert_eq!(c.dense_mults(), 32);
        assert!((c.reduction() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn paper_example_4_2_merging() {
        // Single valid value at bit-reversed position 6 of a 16-point
        // network: chains merge into one multiplication per distinct
        // twiddle exponent. The paper counts 4 (charging ω^0); we charge
        // only the 3 non-trivial exponents.
        let p = SparsityPattern::from_indices(16, [6]);
        let c = analyze(&p);
        assert_eq!(c.executed_butterflies, 0);
        assert_eq!(c.materializations, 3);
        assert_eq!(c.mults(), 3);
        assert!(c.reduction() > 0.9);
    }

    #[test]
    fn single_input_costs_at_most_m() {
        // The paper's bound: merging streamlines ½·m·log m to ≤ m mults.
        for m in [16usize, 64, 256, 2048] {
            for src in [0usize, 1, m / 3, m - 1] {
                let c = analyze(&SparsityPattern::from_indices(m, [src]));
                assert!(c.mults() <= m as u64, "m={m} src={src}: {}", c.mults());
                assert_eq!(c.executed_butterflies, 0);
            }
        }
    }

    #[test]
    fn empty_pattern_is_free() {
        let c = analyze(&SparsityPattern::from_indices(64, []));
        assert_eq!(c.mults(), 0);
        assert_eq!(c.adds, 0);
    }

    #[test]
    fn mults_monotone_in_density() {
        // Adding live slots can only increase the cost.
        let m = 128;
        let mut live = Vec::new();
        let mut prev = 0;
        for i in (0..m).step_by(7) {
            live.push(i);
            let c = analyze(&SparsityPattern::from_indices(m, live.iter().copied()));
            assert!(c.mults() >= prev, "density {} regressed", live.len());
            prev = c.mults();
        }
    }

    #[test]
    fn sparse_always_beats_or_ties_dense() {
        let m = 256;
        for seed in 0..20u64 {
            let idx: Vec<usize> = (0..m)
                .filter(|&i| (i as u64).wrapping_mul(seed | 1).wrapping_add(seed) % 7 == 0)
                .collect();
            let c = analyze(&SparsityPattern::from_indices(m, idx));
            assert!(c.mults() <= c.dense_mults());
        }
    }

    #[test]
    fn twist_mult_count() {
        let p = SparsityPattern::from_indices(16, [0, 3, 9]);
        assert_eq!(twist_mults(&p), 2); // slot 0 is free
        assert_eq!(twist_mults(&SparsityPattern::dense(16)), 15);
    }
}
