//! One layer pack's decryption-noise ledger.
//!
//! The kernel-level robustness argument of the paper rests on the BFV
//! invariant `‖noise‖_∞ < q/(2t)`: every layer has that budget, and
//! approximate arithmetic may spend what the exact pipeline and the
//! response truncation leave of it. [`NoiseLedger`] holds one
//! output-channel pack's worst-case terms against the ceiling, priced
//! once from the pack's kernel norms, and carries the guard's two rules
//! (overflow and fallback) and the headroom they leave.

use crate::backend::PolyMulBackend;
use crate::error::HeError;
use crate::params::HeParams;
use crate::truncate::truncation_noise;

/// Noise bound of a fresh symmetric encryption: `6σ`, which covers the
/// sampler's support — [`crate::poly::ErrorSampler`] clips every error
/// coefficient at `⌊6σ⌋`, so this is a worst case, not a tail estimate.
pub fn fresh_bound(params: &HeParams) -> f64 {
    6.0 * params.noise_std()
}

/// The named noise terms of one layer pack's responses against the
/// decryption ceiling `q/(2t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseLedger {
    /// The exact pipeline's worst-case `‖noise‖_∞`: a fresh encryption,
    /// the server's share folded in, one weight multiply per channel
    /// group accumulated into the response, the output mask.
    pub exact: f64,
    /// The agreed response truncation's worst-case error
    /// ([`truncation_noise`]; 0 when responses travel whole).
    pub truncation: f64,
    /// The approximate product's phase-error bound
    /// ([`crate::backend::ApproxErrorModel`]); `None` on the exact `Ntt`.
    pub approx: Option<f64>,
    /// The decryption ceiling `q/(2t)`.
    pub ceiling: f64,
}

impl NoiseLedger {
    /// Prices one pack from its kernel norms: per channel group, the
    /// `(ℓ1, Σw²)` of the weight polynomial holding every kernel of the
    /// pack ([`crate::encoding::ConvEncoder::pack_norms`]).
    ///
    /// * exact — `6σ` fresh, `+1` for the share fold (with `q ≡ 1 mod t`
    ///   the rounding residue of `ct ⊞ pt` is at most 1), per group
    ///   `× ℓ1 + ℓ1` (the noise scales by the weights' 1-norm, plus the
    ///   plaintext-ring wraparound carry), summed over groups, `+1` for
    ///   the mask subtract;
    /// * truncation — [`truncation_noise`] of the agreed pair;
    /// * approx — the backend's error model over the pack's total `Σw²`
    ///   and group count.
    pub fn new(
        params: &HeParams,
        norms: &[(f64, f64)],
        truncation: Option<(u32, u32)>,
        backend: &PolyMulBackend,
    ) -> Self {
        let folded = fresh_bound(params) + 1.0;
        let exact = norms.iter().map(|&(l1, _)| folded * l1 + l1).sum::<f64>() + 1.0;
        let w_sq = norms.iter().map(|&(_, sq)| sq).sum();
        NoiseLedger {
            exact,
            truncation: truncation.map_or(0.0, |pair| truncation_noise(params, pair)),
            approx: backend
                .error_model(params)
                .map(|model| model.phase_error_bound(params, w_sq, norms.len())),
            ceiling: params.noise_ceiling() as f64,
        }
    }

    /// The overflow rule: `Ok(())` while exact + truncation stays below
    /// the ceiling — decryption is guaranteed on the exact path.
    ///
    /// # Errors
    ///
    /// [`HeError::NoiseOverflow`] with that sum as the bound otherwise.
    pub fn check(&self) -> Result<(), HeError> {
        let bound = self.exact + self.truncation;
        if bound < self.ceiling {
            Ok(())
        } else {
            Err(HeError::NoiseOverflow {
                bound,
                ceiling: self.ceiling,
            })
        }
    }

    /// The fallback rule: whether exact + truncation + approx reaches
    /// `margin × q/(2t)`, so the pack must take the exact path. Never on
    /// a backend without an error model.
    pub fn falls_back(&self, margin: f64) -> bool {
        self.approx
            .is_some_and(|e| self.exact + self.truncation + e >= margin * self.ceiling)
    }

    /// Bits between the sum of every term and the ceiling; negative when
    /// decryption may fail.
    pub fn headroom_bits(&self) -> f64 {
        let total = self.exact + self.truncation + self.approx.unwrap_or(0.0);
        self.ceiling.log2() - total.max(1.0).log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SecretKey;
    use crate::poly::Poly;
    use crate::truncate::planned_truncation;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fresh_bounds_exceed_measurements() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sk = SecretKey::generate(&p, &mut rng);
        for seed in 0..5u64 {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let m = Poly::uniform(p.n, p.t, &mut r);
            let ct = sk.encrypt(&m, &mut r);
            assert!((sk.noise(&ct, &m).inf_norm() as f64) <= fresh_bound(&p));
        }
    }

    #[test]
    fn bound_tracks_a_full_hconv_chain() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let share = Poly::uniform(p.n, p.t, &mut rng);
        let mut w = vec![0i64; p.n];
        let (mut l1, mut sq) = (0f64, 0f64);
        for i in 0..9 {
            let v = rng.gen_range(-8i64..8);
            w[i * 13] = v;
            l1 += v.abs() as f64;
            sq += (v * v) as f64;
        }
        let ct = sk
            .encrypt(&m, &mut rng)
            .add_plain(&share, &p)
            .mul_plain_signed(&w, &p, &PolyMulBackend::Ntt);
        let ct2 = ct.add_ct(&ct);

        let w_t: Vec<u64> = w
            .iter()
            .map(|&x| flash_math::modular::from_signed(x, p.t))
            .collect();
        let mw = Poly::from_coeffs(
            flash_ntt::polymul::negacyclic_mul_naive(m.add(&share).coeffs(), &w_t, p.t),
            p.t,
        );
        let expected2 = mw.add(&mw);

        // Two channel groups of the same weights.
        let norms = [(l1.max(1.0), sq); 2];
        let ledger = NoiseLedger::new(&p, &norms, None, &PolyMulBackend::Ntt);
        let measured2 = sk.noise(&ct2, &expected2).inf_norm() as f64;
        assert!(
            measured2 <= ledger.exact,
            "measured {measured2} vs bound {}",
            ledger.exact
        );
        assert!(ledger.check().is_ok());
    }

    #[test]
    fn hconv_budget_positive_at_paper_parameters() {
        // The worst ResNet-50 tile: 16 groups of 16 channels × 9 taps of
        // 4-bit weights. At the paper's N = 4096 on the executed
        // power-of-two ring, exact + planned truncation + the f64 product
        // leave more than a bit; on the 39-bit prime ring the worst-case
        // exact bound alone overflows.
        let norms = [(16.0 * 9.0 * 8.0, 16.0 * 9.0 * 64.0); 16];
        let p = HeParams::flash_pow2();
        let ledger = NoiseLedger::new(
            &p,
            &norms,
            Some(planned_truncation(&p)),
            &PolyMulBackend::Pow2,
        );
        assert!(ledger.check().is_ok() && !ledger.falls_back(1.0));
        let bits = ledger.headroom_bits();
        assert!(
            bits > 1.0,
            "paper parameters must leave budget: {bits} bits"
        );
        let prime = HeParams::flash_default();
        let wc = NoiseLedger::new(&prime, &norms, None, &PolyMulBackend::Ntt);
        assert!(wc.check().is_err());
        assert!(wc.headroom_bits() < bits);
    }

    #[test]
    fn budget_exhausts_for_absurd_norms() {
        let p = HeParams::test_256();
        let ledger = NoiseLedger::new(&p, &[(1e12, 1e24); 64], None, &PolyMulBackend::Ntt);
        assert!(ledger.headroom_bits() < 0.0);
        assert!(matches!(ledger.check(), Err(HeError::NoiseOverflow { .. })));
        let approx = NoiseLedger {
            approx: Some(1e18),
            ..NoiseLedger::new(&p, &[(1.0, 1.0)], None, &PolyMulBackend::Ntt)
        };
        assert!(approx.check().is_ok());
        assert!(approx.falls_back(1.0));
        assert!(approx.headroom_bits() < 0.0);
    }
}
