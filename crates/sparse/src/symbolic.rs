//! The accounting of the sparse butterfly network: what
//! [`crate::plan::SparsePlan::compile`] counts while it walks the network
//! and emits the µop tape.
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
    /// Total multiplications (equals [`DataflowCounts::mults`]).
    pub fn total(&self) -> u64 {
        self.per_stage.iter().sum::<u64>() + self.output_materializations
    }
}

#[cfg(test)]
mod tests {
    use crate::pattern::SparsityPattern;
    use crate::plan::SparsePlan;

    /// Counts of a pattern given in bit-reversed (stage-1) order.
    fn counts_bitrev(br: &SparsityPattern) -> super::DataflowCounts {
        *SparsePlan::compile(&br.bit_reversed()).counts()
    }

    #[test]
    fn dense_pattern_matches_classical_count() {
        for m in [4usize, 16, 64, 256] {
            let c = counts_bitrev(&SparsityPattern::dense(m));
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
        let c = counts_bitrev(&SparsityPattern::from_indices(16, [0, 1, 2, 3]));
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
        let c = counts_bitrev(&SparsityPattern::from_indices(16, [6]));
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
                let c = counts_bitrev(&SparsityPattern::from_indices(m, [src]));
                assert!(c.mults() <= m as u64, "m={m} src={src}: {}", c.mults());
                assert_eq!(c.executed_butterflies, 0);
            }
        }
    }

    #[test]
    fn empty_pattern_is_free() {
        let c = counts_bitrev(&SparsityPattern::from_indices(64, []));
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
            let c = counts_bitrev(&SparsityPattern::from_indices(m, live.iter().copied()));
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
            let c = counts_bitrev(&SparsityPattern::from_indices(m, idx));
            assert!(c.mults() <= c.dense_mults());
        }
    }

    #[test]
    fn twist_mult_count() {
        // One twist per live slot but slot 0 on top of the network.
        let twists = |p: &SparsityPattern| {
            let plan = SparsePlan::compile(p);
            plan.paper_muls() - plan.counts().mults()
        };
        assert_eq!(twists(&SparsityPattern::from_indices(16, [0, 3, 9])), 2);
        assert_eq!(twists(&SparsityPattern::dense(16)), 15);
    }
}
