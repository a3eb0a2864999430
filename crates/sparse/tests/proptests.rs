//! Property-based tests for the sparse dataflow.

use flash_fft::NegacyclicFft;
use flash_math::C64;
use flash_sparse::pattern::SparsityPattern;
use flash_sparse::pipeline::simulate_pe;
use flash_sparse::plan::SparsePlan;
use flash_sparse::schedule::PeModel;
use proptest::prelude::*;

fn pattern(log_m: u32, seed: u64, density_pct: usize) -> SparsityPattern {
    let m = 1usize << log_m;
    let mask: Vec<bool> = (0..m)
        .map(|i| {
            ((i as u64).wrapping_mul(seed | 1).wrapping_add(seed >> 7)) % 100 < density_pct as u64
        })
        .collect();
    SparsityPattern::from_mask(mask)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mults_bounded_by_dense_and_profile_consistent(
        log_m in 2u32..11,
        seed in any::<u64>(),
        density in 0usize..100,
    ) {
        let plan = SparsePlan::compile(&pattern(log_m, seed, density));
        let (counts, profile) = (plan.counts(), plan.profile());
        prop_assert!(counts.mults() <= counts.dense_mults());
        prop_assert_eq!(profile.total(), counts.mults());
        prop_assert_eq!(profile.per_stage.len(), log_m as usize);
    }

    #[test]
    fn empty_and_full_extremes(log_m in 2u32..10) {
        let m = 1usize << log_m;
        let empty = SparsePlan::compile(&SparsityPattern::from_indices(m, []));
        prop_assert_eq!(empty.counts().mults(), 0);
        let full = SparsePlan::compile(&SparsityPattern::dense(m));
        prop_assert_eq!(full.counts().mults(), full.counts().dense_mults());
    }

    #[test]
    fn executor_equals_dense_fft(
        log_m in 2u32..9,
        seed in any::<u64>(),
        density in 1usize..100,
    ) {
        // Non-integer coefficients on both halves of each live slot's
        // pair, run through the tape's f64 entry point.
        let m = 1usize << log_m;
        let p = pattern(log_m, seed, density);
        let mut w = vec![0.0; 2 * m];
        for i in p.indices() {
            let v = ((i as u64).wrapping_mul(seed | 1) % 97) as f64 / 12.0 - 4.0;
            w[i] = v;
            w[i + m] = -v / 3.0;
        }
        let mut got = vec![C64::ZERO; m];
        SparsePlan::compile(&p).execute_f64_into(&w, &mut got);
        let want = NegacyclicFft::new(2 * m).forward(&w);
        for (a, b) in got.iter().zip(&want) {
            prop_assert!((*a - *b).abs() < 1e-7);
        }
    }

    #[test]
    fn pipeline_simulation_bounds_hold(
        log_m in 3u32..11,
        seed in any::<u64>(),
        density in 0usize..60,
        bus in 1u32..8,
    ) {
        let plan = SparsePlan::compile(&pattern(log_m, seed, density));
        let pe = PeModel { bus_per_pe: bus, stage_overhead: 2 };
        let sim = simulate_pe(plan.profile(), &pe);
        let est = pe.sparse_cycles(plan.counts());
        // barrier simulation >= ideal estimate − rounding, and bounded by
        // est + one BU-round per stage
        prop_assert!(sim.total + 1 >= est);
        prop_assert!(sim.total <= est + log_m as u64 + 1);
    }

    #[test]
    fn adding_live_slots_never_reduces_cost(log_m in 3u32..9, seed in any::<u64>()) {
        let m = 1usize << log_m;
        let base = pattern(log_m, seed, 20);
        let mut more_mask = base.mask().to_vec();
        // light one extra slot deterministically
        let extra = (seed as usize) % m;
        if more_mask[extra] {
            return Ok(());
        }
        more_mask[extra] = true;
        let c_base = SparsePlan::compile(&base);
        let c_more = SparsePlan::compile(&SparsityPattern::from_mask(more_mask));
        prop_assert!(c_more.counts().mults() >= c_base.counts().mults());
    }
}
