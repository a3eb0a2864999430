//! Property-based tests for the transform stack.

use flash_fft::dft::{dft, Direction};
use flash_fft::fft64::FftPlan;
use flash_fft::fixed_fft::{ApproxFftConfig, FixedNegacyclicFft};
use flash_fft::negacyclic::NegacyclicFft;
use flash_math::fixed::FxpFormat;
use flash_math::C64;
use proptest::prelude::*;

fn complex_vec(log_len: u32) -> impl Strategy<Value = Vec<C64>> {
    prop::collection::vec(
        (-8.0f64..8.0, -8.0f64..8.0).prop_map(|(re, im)| C64::new(re, im)),
        1usize << log_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fft_matches_dft(log_len in 1u32..8, x in complex_vec(6)) {
        let m = 1usize << log_len;
        let x = &x[..m.min(x.len())];
        if x.len() != m { return Ok(()); }
        let plan = FftPlan::new(m);
        for dir in [Direction::Negative, Direction::Positive] {
            let mut fast = x.to_vec();
            plan.transform(&mut fast, dir);
            let slow = dft(x, dir);
            for (a, b) in fast.iter().zip(&slow) {
                prop_assert!((*a - *b).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn negacyclic_roundtrip(log_n in 2u32..10, seed in any::<u64>()) {
        let n = 1usize << log_n;
        let a: Vec<f64> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(seed | 1) % 31) as f64 - 15.0)
            .collect();
        let plan = NegacyclicFft::new(n);
        let back = plan.inverse(&plan.forward(&a));
        for (x, y) in a.iter().zip(&back) {
            prop_assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn negacyclic_product_is_commutative_and_distributive(seed in any::<u64>()) {
        let n = 32usize;
        let gen = |s: u64| -> Vec<i64> {
            (0..n).map(|i| (((i as u64).wrapping_mul(s | 1) >> 3) % 15) as i64 - 7).collect()
        };
        let (a, b, c) = (gen(seed), gen(seed ^ 0xABCD), gen(seed ^ 0x1234));
        let plan = NegacyclicFft::new(n);
        let ab = plan.polymul_i64(&a, &b);
        let ba = plan.polymul_i64(&b, &a);
        prop_assert_eq!(&ab, &ba);
        // a*(b+c) == a*b + a*c
        let bc: Vec<i64> = b.iter().zip(&c).map(|(x, y)| x + y).collect();
        let lhs = plan.polymul_i64(&a, &bc);
        let ac = plan.polymul_i64(&a, &c);
        let rhs: Vec<i128> = ab.iter().zip(&ac).map(|(x, y)| x + y).collect();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn fixed_fft_error_bounded_by_format(frac in 8u32..26, seed in any::<u64>()) {
        let n = 64usize;
        let a: Vec<i64> = (0..n)
            .map(|i| (((i as u64).wrapping_mul(seed | 1) >> 2) % 15) as i64 - 7)
            .collect();
        let cfg = ApproxFftConfig::uniform(n, FxpFormat::new(16, frac), 24);
        let fft = FixedNegacyclicFft::new(cfg);
        let err = fft
            .spectrum_error(&a)
            .iter()
            .map(|e| e.abs())
            .fold(0.0, f64::max);
        // error per stage <= lsb amplified by <= 2 per remaining stage;
        // loose bound: 2^{stages+4} * lsb
        let bound = (2.0f64).powi(10) * (0.5f64).powi(frac as i32);
        prop_assert!(err <= bound, "frac={frac}: err {err} > bound {bound}");
    }

    #[test]
    fn fixed_fft_never_panics_on_extreme_inputs(v in -128i64..128) {
        let n = 16usize;
        let cfg = ApproxFftConfig::uniform(n, FxpFormat::new(6, 6), 3);
        let fft = FixedNegacyclicFft::new(cfg);
        // may saturate, must not panic, output must be finite
        let (out, _) = fft.forward(&vec![v; n]);
        prop_assert!(out.iter().all(|c| c.re.is_finite() && c.im.is_finite()));
    }
}
