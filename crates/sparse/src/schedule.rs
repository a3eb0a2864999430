//! Mapping sparse transforms onto butterfly units.
//!
//! FLASH assigns one polynomial to one PE of 4 butterfly units (BUs); a BU
//! retires one butterfly (or one materialization multiply) per cycle. The
//! paper notes that a single dataflow is reused across all transforms of a
//! convolutional layer, so control overhead is amortized; we model a small
//! fixed per-stage synchronization cost.

use crate::symbolic::DataflowCounts;

/// Cycle-model parameters of one FFT processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeModel {
    /// Butterfly units per PE (4 in FLASH).
    pub bus_per_pe: u32,
    /// Pipeline fill / synchronization cycles charged per stage.
    pub stage_overhead: u32,
}

impl Default for PeModel {
    fn default() -> Self {
        Self {
            bus_per_pe: 4,
            stage_overhead: 2,
        }
    }
}

impl PeModel {
    /// Cycles for one *sparse* transform with the given counted dataflow.
    /// Work is multiplication-bound: each BU retires one counted
    /// multiplication per cycle.
    pub fn sparse_cycles(&self, counts: &DataflowCounts) -> u64 {
        let work = counts.mults();
        let stages = counts.m.trailing_zeros() as u64;
        div_ceil(work, self.bus_per_pe as u64) + stages * self.stage_overhead as u64
    }

    /// Cycles for one *dense* `m`-point transform on the same PE.
    pub fn dense_cycles(&self, m: usize) -> u64 {
        let log = m.trailing_zeros() as u64;
        let work = m as u64 / 2 * log;
        div_ceil(work, self.bus_per_pe as u64) + log * self.stage_overhead as u64
    }

    /// Cycles for a point-wise multiply-accumulate pass over `m` spectrum
    /// points with `units` parallel multipliers.
    pub fn pointwise_cycles(&self, m: usize, units: u32) -> u64 {
        div_ceil(m as u64, units as u64)
    }
}

#[inline]
fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::SparsityPattern;
    use crate::plan::SparsePlan;

    #[test]
    fn dense_cycles_formula() {
        let pe = PeModel::default();
        // 2048-point dense FFT: 2048/2*11 = 11264 mults over 4 BUs + 11*2.
        assert_eq!(pe.dense_cycles(2048), 11264 / 4 + 22);
    }

    #[test]
    fn sparse_cycles_below_dense_for_sparse_patterns() {
        let pe = PeModel::default();
        let m = 2048;
        let p = SparsityPattern::from_indices(m, (0..9).map(|i| i * 64));
        let c = SparsePlan::compile(&p);
        assert!(pe.sparse_cycles(c.counts()) < pe.dense_cycles(m) / 4);
    }

    #[test]
    fn sparse_cycles_equal_dense_for_dense_pattern() {
        let pe = PeModel::default();
        let m = 256;
        let c = SparsePlan::compile(&SparsityPattern::dense(m));
        assert_eq!(pe.sparse_cycles(c.counts()), pe.dense_cycles(m));
    }

    #[test]
    fn pointwise_cycles_rounds_up() {
        let pe = PeModel::default();
        assert_eq!(pe.pointwise_cycles(2048, 4), 512);
        assert_eq!(pe.pointwise_cycles(2049, 4), 513);
    }
}
