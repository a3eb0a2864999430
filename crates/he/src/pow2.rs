//! Exact key products on the power-of-two ring `Z_{2^l}[X]/(X^N + 1)`.
//!
//! `2^l` has no roots of unity, so the ring has no NTT of its own. The
//! client's key products `a·s` and `p·u` pair one dense ring element with
//! one small, fixed operand (a ternary secret or encryption randomness),
//! and they run on the same `f64` negacyclic FFT as the server's MAC,
//! made exact by splitting the dense operand:
//!
//! 1. centre-lift `a` into `[−2^{l−1}, 2^{l−1})` and split it as
//!    `a = 2^h·a_hi + a_lo` with `h = ⌈l/2⌉` and both limbs centred, so
//!    `‖a_lo‖_∞, ‖a_hi‖_∞ ≤ 2^{h−1}`;
//! 2. transform both limbs (the small operand's spectrum is prepared
//!    once), multiply point-wise and invert;
//! 3. round each limb product to the nearest integer, which is exact
//!    while the round-off stays below `1/2`, and recombine
//!    `a_lo·s + 2^h·(a_hi·s)` in wrapping `u64` arithmetic: exact modulo
//!    `2^64`, hence modulo `2^l` after the mask.
//!
//! # Exactness bound
//!
//! The plan computes a negacyclic product of `x` and `y` as a cyclic
//! convolution of length `M = N/2 = 2^k`: fold `c_j = x_j + i·x_{j+M}`
//! (exact, and `‖c‖₂ = ‖x‖₂`), twist by `ω^j`, FFT, point-wise product,
//! inverse FFT, scale by `1/M` (exact) and untwist by `ω^{−j}`. For the
//! radix-2 FFT convolution alone, Percival (2003, Theorem 5.1) bounds
//! the error of every output by
//!
//! ```text
//! ‖x‖₂·‖y‖₂·((1+ε)^{3k}·(1+√5·ε)^{3k+1}·(1+β)^{3k} − 1)
//! ```
//!
//! with `ε = 2^−53` the unit roundoff and `β` a bound on the error of
//! every precomputed root. Each of the three twists multiplies every
//! entry by a precomputed unit factor: a diagonal stage of relative error
//! at most `(1+√5·ε)(1+β) − 1`. Composing the three with the convolution
//! (triangle and Cauchy–Schwarz inequalities) gives the relative bound
//!
//! ```text
//! E(N) = (1+ε)^{3k}·(1+√5·ε)^{3k+4}·(1+β)^{3k+3} − 1.
//! ```
//!
//! Roots and twists are the platform `cos`/`sin` (within one ulp) of an
//! angle in `[0, π)` rounded twice on the way (within `2π·ε`), so
//! `β = 8ε` covers both. With `‖a_limb‖₂ ≤ √N·2^{h−1}` and
//! `‖s‖₂ ≤ √N·‖s‖_∞`, each limb product lands within
//! `N·2^{h−1}·‖s‖_∞·E(N)` of its integer value (at most `2^44 < 2^53`,
//! so representable), and rounding recovers it when
//!
//! ```text
//! ‖s‖_∞ < 1 / (N·2^h·E(N)).
//! ```
//!
//! At `l = 62` that admits `‖s‖_∞` up to 60, 12, 2 and 1 at
//! `N = 256, 1024, 4096, 8192`, and nothing at `N = 16384`, where
//! `HeParams::new_pow2` refuses the ring. Measured rounding distances on
//! adversarial ternary batches stay below `6·10^−3` at `N = 8192`.

use crate::error::HeError;
use flash_fft::negacyclic::{NegacyclicFft, C64_SCRATCH};
use flash_math::C64;
use flash_runtime::F64_SCRATCH;

/// Unit roundoff of `f64`.
const EPS: f64 = f64::EPSILON / 2.0;
/// Bound on the error of each precomputed FFT root and twist factor.
const BETA: f64 = 8.0 * EPS;

/// `1.5·2^52`: adding it to an `f64` of magnitude below `2^51` rounds it
/// to the nearest integer (ties to even), left in the low mantissa bits.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// `round(x)` (ties to even) modulo `2^64` as a two's-complement `u64`,
/// exact for every finite `x` — the wrap both `f64` product paths of the
/// power-of-two ring end in, since `2^l | 2^64`. No libm call and no
/// `i128` conversion on baseline x86-64:
///
/// * `|x| < 2^51`: the rounding mantissa trick;
/// * `|x| < 2^63`: a native `i64` conversion — every `f64` from `2^52`
///   on is an integer, and below that adding and removing `2^52` rounds;
/// * beyond: the 53-bit mantissa shifted into place (nothing is left
///   once the shift reaches 64), negated for negative `x`.
#[inline]
pub(crate) fn round_to_u64(x: f64) -> u64 {
    const TWO_51: f64 = 2_251_799_813_685_248.0;
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    let a = x.abs();
    if a < TWO_51 {
        return (x + ROUND).to_bits().wrapping_sub(ROUND.to_bits());
    }
    let magnitude = if a < TWO_63 {
        let r = if a < TWO_52 { (a + TWO_52) - TWO_52 } else { a };
        r as i64 as u64
    } else {
        let bits = a.to_bits();
        let mantissa = (bits & ((1 << 52) - 1)) | (1 << 52);
        mantissa
            .checked_shl((bits >> 52) as u32 - 1075)
            .unwrap_or(0)
    };
    if x < 0.0 {
        magnitude.wrapping_neg()
    } else {
        magnitude
    }
}

/// `E(N)` of the module docs: the worst-case error of one product through
/// the degree-`n` plan, relative to `‖x‖₂·‖y‖₂`.
fn relative_error(n: usize) -> f64 {
    let k = f64::from((n / 2).trailing_zeros());
    let log = 3.0 * k * EPS.ln_1p()
        + (3.0 * k + 4.0) * (5f64.sqrt() * EPS).ln_1p()
        + (3.0 * k + 3.0) * BETA.ln_1p();
    log.exp_m1()
}

/// The split-limb key product of one ring `Z_{2^l}[X]/(X^N + 1)`: the
/// modulus and the largest small operand it is exact for.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SplitLimb {
    l: u32,
    /// Largest `‖b‖_∞` (after centre lift) [`SplitLimb::prepare`] accepts.
    max_small: u64,
}

impl SplitLimb {
    /// The product for degree `n` and modulus `2^l`.
    ///
    /// # Panics
    ///
    /// Panics if no ternary operand is provably exact at this degree.
    pub(crate) fn new(n: usize, l: u32) -> Self {
        let unit = n as f64 * 2f64.powi(l.div_ceil(2) as i32) * relative_error(n);
        // The largest integer strictly below 1/unit.
        let max_small = ((1.0 / unit).ceil() - 1.0) as u64;
        assert!(
            max_small >= 1,
            "no exact f64 key product at N = {n}, q = 2^{l}"
        );
        Self { l, max_small }
    }

    /// The `N/2`-slot spectrum of the small operand `b`, after checking
    /// `‖b‖_∞ ≤ max_small`.
    pub(crate) fn prepare(&self, fft: &NegacyclicFft, b: &[u64]) -> Result<Box<[C64]>, HeError> {
        assert_eq!(b.len(), fft.degree(), "operand length mismatch");
        let signed: Vec<i64> = b.iter().map(|&x| self.centre(x)).collect();
        let norm = signed.iter().map(|x| x.unsigned_abs()).max().unwrap_or(0);
        if norm > self.max_small {
            return Err(HeError::OperandTooLarge {
                bound: self.max_small,
                norm,
            });
        }
        let lifted: Vec<f64> = signed.iter().map(|&x| x as f64).collect();
        Ok(fft.forward(&lifted).into())
    }

    /// `x mod 2^l`, centred into `[−2^{l−1}, 2^{l−1})`.
    #[inline]
    fn centre(&self, x: u64) -> i64 {
        let shift = 64 - self.l;
        ((x << shift) as i64) >> shift
    }

    /// Exact products of a batch `a` (`batch × N`, concatenated) with the
    /// prepared operand `b`, folded into `out`:
    /// `out[i] = fold(prod[i], out[i])`, `prod` reduced modulo `2^l`.
    /// Both limbs of the whole batch go through one batched forward and
    /// one batched inverse transform. Allocates nothing in steady state.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != out.len()` or the length is not a multiple
    /// of `N`.
    pub(crate) fn mul_batch<F: Fn(u64, u64) -> u64>(
        &self,
        fft: &NegacyclicFft,
        out: &mut [u64],
        a: &[u64],
        b: &[C64],
        fold: F,
    ) {
        let n = fft.degree();
        let h = self.l.div_ceil(2);
        let mask = (1u64 << self.l) - 1;
        assert_eq!(out.len(), a.len(), "output batch length must match");
        assert_eq!(a.len() % n, 0, "inputs must be whole polynomials");
        // Polynomial k's low limb at [2k·N, (2k+1)·N), its high limb next.
        let mut limbs = F64_SCRATCH.take(2 * a.len());
        for (a_k, limbs_k) in a.chunks_exact(n).zip(limbs.chunks_exact_mut(2 * n)) {
            let (lo, hi) = limbs_k.split_at_mut(n);
            for ((&x, lo), hi) in a_k.iter().zip(lo).zip(hi) {
                let x = self.centre(x);
                let low = (x << (64 - h)) >> (64 - h);
                *lo = low as f64;
                *hi = ((x - low) >> h) as f64;
            }
        }
        let mut spectra = C64_SCRATCH.take(a.len());
        fft.forward_batch_into(&limbs, &mut spectra);
        for spectrum in spectra.chunks_exact_mut(n / 2) {
            for (x, &y) in spectrum.iter_mut().zip(b) {
                *x *= y;
            }
        }
        fft.inverse_batch_into(&spectra, &mut limbs);
        for (out_k, limbs_k) in out.chunks_exact_mut(n).zip(limbs.chunks_exact(2 * n)) {
            let (lo, hi) = limbs_k.split_at(n);
            for ((o, &lo), &hi) in out_k.iter_mut().zip(lo).zip(hi) {
                let prod = (round_to_u64(hi) << h).wrapping_add(round_to_u64(lo));
                *o = fold(prod & mask, *o);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HeParams;
    use flash_math::pow2::negacyclic_mul_wrapping;

    /// The wrap `round_to_u64` replaces: round, convert through `i128`,
    /// truncate to the low 64 bits.
    fn wrap_via_i128(x: f64) -> u64 {
        (x.round_ties_even() as i128) as u64
    }

    #[test]
    fn round_to_u64_wraps_edge_values_like_the_i128_cast() {
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994,
        ];
        for j in 0..100 {
            let p = 2f64.powi(j);
            xs.extend([
                p,
                -p,
                p + 0.5,
                -(p + 0.5),
                p - 0.5,
                -(p - 0.5),
                p * 1.5,
                -p * 1.5,
            ]);
            // the f64 neighbours of 2^j
            for q in [p, -p] {
                xs.extend([
                    f64::from_bits(q.to_bits() - 1),
                    f64::from_bits(q.to_bits() + 1),
                ]);
            }
        }
        // ties between 2^51 and 2^52, where the ulp is 1/2
        for k in [0u64, 1, 2, 3, (1 << 51) - 1] {
            let tie = (1u64 << 51) as f64 + k as f64 + 0.5;
            xs.extend([tie, -tie]);
        }
        xs.extend([
            u64::MAX as f64,
            -(u64::MAX as f64),
            2f64.powi(64) * 3.0,
            2f64.powi(99) * 1.75,
        ]);
        for x in xs {
            assert!(x.abs() < 2f64.powi(100));
            assert_eq!(
                round_to_u64(x),
                wrap_via_i128(x),
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Any `f64` of magnitude below `2^100`: a 53-bit mantissa at a
        /// scale from `2^−60` (fractions, ties) to `2^47` (beyond `2^64`).
        #[test]
        fn round_to_u64_wraps_like_the_i128_cast(
            mantissa in proptest::prelude::any::<u64>(),
            scale in -60i32..48,
            negative in proptest::prelude::any::<bool>(),
        ) {
            let x = (mantissa >> 11) as f64 * 2f64.powi(scale);
            let x = if negative { -x } else { x };
            proptest::prop_assert_eq!(round_to_u64(x), wrap_via_i128(x));
        }
    }

    fn mul_small(p: &HeParams, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; a.len()];
        let prepared = p.prepare_key_operand(b).expect("operand within bound");
        p.key_mul_batch(&mut out, a, &prepared, |prod, _| prod);
        out
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state
    }

    #[test]
    fn matches_wrapping_schoolbook_for_ternary_operand() {
        let p = HeParams::new_pow2(64, 62, 1 << 16, 3.2);
        let q = p.q;
        let mut s = 0xABCDu64;
        let a: Vec<u64> = (0..64).map(|_| lcg(&mut s) & (q - 1)).collect();
        let b: Vec<u64> = (0..64)
            .map(|_| match lcg(&mut s) % 3 {
                0 => 0,
                1 => 1,
                _ => q - 1, // −1 mod 2^62
            })
            .collect();
        assert_eq!(mul_small(&p, &a, &b), negacyclic_mul_wrapping(&a, &b, q));
    }

    #[test]
    fn matches_wrapping_schoolbook_for_moderate_operand() {
        // The full advertised smallness range at a modest degree and
        // modulus, where the bound is far above the ternary keys
        // the scheme actually uses.
        let p = HeParams::new_pow2(32, 40, 1 << 16, 3.2);
        let q = p.q;
        let bound = SplitLimb::new(32, 40).max_small;
        assert!(bound > 1 << 20);
        let mut s = 0x77u64;
        let a: Vec<u64> = (0..32).map(|_| lcg(&mut s) & (q - 1)).collect();
        let b: Vec<u64> = (0..32)
            .map(|_| {
                let v = (lcg(&mut s) % (2 * bound + 1)) as i64 - bound as i64;
                v.rem_euclid(q as i64) as u64
            })
            .collect();
        assert_eq!(mul_small(&p, &a, &b), negacyclic_mul_wrapping(&a, &b, q));
    }

    #[test]
    fn smallness_bound_is_generous_for_keys() {
        // Only ternary secrets and encryption randomness are prepared, so
        // the bound must admit ‖b‖ = 1 at every degree the key path runs.
        for n in [256, 1024, 4096, 8192] {
            assert!(SplitLimb::new(n, 62).max_small >= 1, "N = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "no exact f64 key product")]
    fn refuses_a_degree_without_an_exact_ternary_product() {
        HeParams::new_pow2(16384, 62, 1 << 16, 3.2);
    }

    #[test]
    fn batch_and_fold_match_per_polynomial_products() {
        let n = 64;
        let p = HeParams::new_pow2(n, 62, 1 << 16, 3.2);
        let q = p.q;
        let mut s = 0x5EEDu64;
        let b: Vec<u64> = (0..n)
            .map(|_| [0, 1, q - 1][(lcg(&mut s) % 3) as usize])
            .collect();
        let prepared = p.prepare_key_operand(&b).unwrap();
        for batch in [1usize, 3, 8, 9] {
            let a: Vec<u64> = (0..batch * n).map(|_| lcg(&mut s) & (q - 1)).collect();
            let addend: Vec<u64> = (0..batch * n).map(|_| lcg(&mut s) & (q - 1)).collect();
            let mut got = addend.clone();
            p.key_mul_batch(&mut got, &a, &prepared, |prod, x| {
                x.wrapping_sub(prod) & (q - 1)
            });
            for (k, a_k) in a.chunks_exact(n).enumerate() {
                let want = negacyclic_mul_wrapping(a_k, &b, q);
                for i in 0..n {
                    assert_eq!(
                        got[k * n + i],
                        addend[k * n + i].wrapping_sub(want[i]) & (q - 1),
                        "batch={batch} poly={k} coeff={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_small_operand_is_refused_in_release_too() {
        // A release build must refuse a non-small operand instead of
        // returning a wrong product.
        let p = HeParams::flash_pow2();
        let bound = SplitLimb::new(4096, 62).max_small;
        let mut b = vec![0u64; 4096];
        b[7] = bound + 1;
        assert!(matches!(
            p.prepare_key_operand(&b),
            Err(HeError::OperandTooLarge { bound: got, norm }) if got == bound && norm == bound + 1
        ));
        b[7] = p.q - bound; // −bound: still fine
        assert!(p.prepare_key_operand(&b).is_ok());
    }

    #[test]
    fn extreme_limbs_at_the_bound_match_the_wrapping_schoolbook() {
        // Dense coefficients at the limb extremes — q/2 and its
        // neighbours (|high limb| = 2^30), and a 2^31-stride ramp (low
        // limb 0) — against the all-ones and alternating-sign operands of
        // the largest admissible norm: the products the bound is tightest
        // for.
        for n in [256, 4096, 8192] {
            let p = HeParams::new_pow2(n, 62, 1 << 16, 3.2);
            let q = p.q;
            let bound = SplitLimb::new(n, 62).max_small;
            let edges = [q / 2, q / 2 - 1, q / 2 + 1];
            let a: Vec<u64> = (0..n as u64)
                .map(|i| match i % 4 {
                    3 => (i << 31).wrapping_neg() & (q - 1),
                    r => edges[r as usize],
                })
                .collect();
            let ones = vec![bound; n];
            let alternating: Vec<u64> = (0..n)
                .map(|i| if i % 2 == 0 { bound } else { q - bound })
                .collect();
            for b in [ones, alternating] {
                assert_eq!(
                    mul_small(&p, &a, &b),
                    negacyclic_mul_wrapping(&a, &b, q),
                    "N = {n}, ‖b‖ = {bound}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside 2..=62")]
    fn rejects_full_word_modulus() {
        HeParams::new_pow2(64, 63, 1 << 16, 3.2);
    }
}
