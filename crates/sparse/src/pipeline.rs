//! A cycle-level PE pipeline simulator.
//!
//! [`crate::schedule::PeModel`] estimates transform cycles with a single
//! work/BU division; this module *simulates* the stage-barrier pipeline a
//! real PE executes — butterflies of stage `s+1` read stage `s` outputs,
//! so each stage drains before the next starts — and thereby validates
//! (and bounds) the analytical estimate.

use crate::schedule::PeModel;
use crate::symbolic::StageProfile;

/// The simulated execution of one sparse transform on one PE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineTrace {
    /// Cycles spent in each butterfly stage (work + overhead).
    pub stage_cycles: Vec<u64>,
    /// Cycles spent materializing merged chains at the outputs.
    pub output_cycles: u64,
    /// Total cycles.
    pub total: u64,
}

/// Simulates one transform given its per-stage multiplication profile.
///
/// Every counted multiplication occupies one BU for one cycle; a stage
/// with `w` multiplications over `B` BUs takes `⌈w/B⌉` cycles plus the
/// per-stage synchronization overhead (charged even for fully-skipped
/// stages: the controller still sequences them).
pub fn simulate_pe(profile: &StageProfile, pe: &PeModel) -> PipelineTrace {
    let b = pe.bus_per_pe as u64;
    let stage_cycles: Vec<u64> = profile
        .per_stage
        .iter()
        .map(|&w| w.div_ceil(b) + pe.stage_overhead as u64)
        .collect();
    let output_cycles = profile.output_materializations.div_ceil(b);
    let total = stage_cycles.iter().sum::<u64>() + output_cycles;
    PipelineTrace {
        stage_cycles,
        output_cycles,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::SparsityPattern;
    use crate::plan::SparsePlan;
    use crate::symbolic::DataflowCounts;

    fn profile_of(m: usize, idx: &[usize]) -> (DataflowCounts, StageProfile) {
        let plan = SparsePlan::compile(&SparsityPattern::from_indices(m, idx.iter().copied()));
        (*plan.counts(), plan.profile().clone())
    }

    #[test]
    fn profile_total_matches_counts() {
        for idx in [
            vec![0usize],
            vec![0, 1, 2, 3],
            (0..64).step_by(5).collect::<Vec<_>>(),
        ] {
            let (counts, profile) = profile_of(256, &idx);
            assert_eq!(profile.total(), counts.mults(), "{idx:?}");
            assert_eq!(profile.per_stage.len(), 8);
        }
    }

    #[test]
    fn simulation_brackets_the_analytical_estimate() {
        let pe = PeModel::default();
        for density in [1usize, 4, 16, 64, 256] {
            let idx: Vec<usize> = (0..density).map(|i| (i * 2039) % 2048).collect();
            let (counts, profile) = profile_of(2048, &idx);
            let est = pe.sparse_cycles(&counts);
            let sim = simulate_pe(&profile, &pe).total;
            // the stage-barrier simulation can only be slower than the
            // ideal work/BU estimate, and never by more than one extra
            // BU-round per stage
            assert!(
                sim >= est.saturating_sub(1),
                "density {density}: sim {sim} < est {est}"
            );
            let slack = profile.per_stage.len() as u64 + 1;
            assert!(
                sim <= est + slack,
                "density {density}: sim {sim} too far above est {est}"
            );
        }
    }

    #[test]
    fn dense_pattern_simulation_matches_formula() {
        let pe = PeModel::default();
        let (counts, profile) = profile_of(256, &(0..256).collect::<Vec<_>>());
        let sim = simulate_pe(&profile, &pe);
        // dense: every stage runs m/2 butterflies
        assert!(sim.stage_cycles.iter().all(|&c| c == 128 / 4 + 2));
        assert_eq!(sim.output_cycles, 0);
        assert_eq!(sim.total, pe.sparse_cycles(&counts));
    }

    #[test]
    fn merged_chains_cost_only_output_cycles() {
        let pe = PeModel::default();
        let (_, profile) = profile_of(64, &[7]);
        let sim = simulate_pe(&profile, &pe);
        assert!(
            profile.per_stage.iter().all(|&w| w == 0),
            "{:?}",
            profile.per_stage
        );
        assert!(sim.output_cycles > 0);
    }
}
