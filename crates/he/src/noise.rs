//! Analytical noise-growth tracking.
//!
//! The kernel-level robustness argument of the paper rests on the BFV
//! invariant `‖noise‖_∞ < q/(2t)`. This module provides a conservative
//! analytical bound that composes across the protocol's homomorphic
//! operations, so parameter sets can be validated without running the
//! pipeline (and so the approximate-FFT error budget — the slack between
//! the bound and the ceiling — is explicit).

use crate::params::HeParams;

/// A conservative `‖noise‖_∞` bound, composed operation by operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseBound {
    bound: f64,
    ceiling: f64,
}

impl NoiseBound {
    /// Noise bound of a fresh symmetric encryption: `B = 6σ`, which
    /// covers the sampler's support — [`crate::poly::ErrorSampler`]
    /// clips every error coefficient at `⌊6σ⌋`, so this is a worst
    /// case, not a tail estimate.
    pub fn fresh(params: &HeParams) -> Self {
        Self {
            bound: 6.0 * params.noise_std(),
            ceiling: params.noise_ceiling() as f64,
        }
    }

    /// Noise bound of a fresh public-key encryption:
    /// `B = 6σ·(2N·‖u‖_∞ + 1) ≈ 6σ(2N + 1)` for ternary `u` — again over
    /// the sampler's support (`|e|, |e1|, |e2| ≤ ⌊6σ⌋`), so a worst case.
    pub fn fresh_public(params: &HeParams) -> Self {
        Self {
            bound: 6.0 * params.noise_std() * (2.0 * params.n as f64 + 1.0),
            ceiling: params.noise_ceiling() as f64,
        }
    }

    /// The current bound.
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// The decryption ceiling `q/(2t)` this bound is tracked against.
    pub fn ceiling(&self) -> f64 {
        self.ceiling
    }

    /// Typed form of [`NoiseBound::is_safe`]: `Ok(())` while decryption
    /// is guaranteed correct, otherwise the overflow as an error.
    pub fn check(&self) -> Result<(), crate::error::HeError> {
        if self.is_safe() {
            Ok(())
        } else {
            Err(crate::error::HeError::NoiseOverflow {
                bound: self.bound,
                ceiling: self.ceiling,
            })
        }
    }

    /// Remaining budget in bits (`log2(ceiling) − log2(bound)`); negative
    /// means decryption may fail.
    pub fn budget_bits(&self) -> f64 {
        self.ceiling.log2() - self.bound.max(1.0).log2()
    }

    /// Whether decryption is guaranteed correct.
    pub fn is_safe(&self) -> bool {
        self.bound < self.ceiling
    }

    /// After `ct ⊞ pt` / `ct ⊟ pt`: with `q ≡ 1 (mod t)` the rounding
    /// residue adds at most `t/2`-scaled carry × 1 — effectively `+1`.
    pub fn after_plain_add(self) -> Self {
        Self {
            bound: self.bound + 1.0,
            ..self
        }
    }

    /// After `ct ⊠ w` for a plaintext with 1-norm `w_l1` (the sum of
    /// coefficient magnitudes): noise multiplies by `w_l1`, plus the
    /// plaintext-ring wraparound carry (`≤ w_l1·t/2` products wrapping
    /// into a unit residue each, bounded by `w_l1`).
    pub fn after_plain_mul(self, w_l1: f64) -> Self {
        Self {
            bound: self.bound * w_l1 + w_l1,
            ..self
        }
    }

    /// After `ct ⊞ ct`.
    pub fn after_ct_add(self, other: &NoiseBound) -> Self {
        Self {
            bound: self.bound + other.bound,
            ..self
        }
    }

    /// After injecting an approximate-FFT computation error with absolute
    /// bound `err` (the FLASH error budget consumes noise headroom
    /// directly).
    pub fn after_computation_error(self, err: f64) -> Self {
        Self {
            bound: self.bound + err,
            ..self
        }
    }
}

/// Validates that one homomorphic convolution (`groups` accumulated
/// `ct⊠w` terms of 1-norm ≤ `w_l1`, plus a share add and a mask subtract)
/// stays decryptable under the *worst-case* bound, returning the
/// remaining budget in bits.
pub fn hconv_budget_bits(params: &HeParams, w_l1: f64, groups: u32) -> f64 {
    let one = NoiseBound::fresh(params)
        .after_plain_add() // server's share
        .after_plain_mul(w_l1);
    let mut acc = one;
    for _ in 1..groups {
        acc = acc.after_ct_add(&one);
    }
    acc.after_plain_add().budget_bits() // mask subtract
}

/// Average-case (standard-deviation-composition) budget for the same
/// chain: `σ_out = 6·σ·w_l2·√groups`. This is the heuristic real
/// parameter selection uses — worst-case 1-norm bounds are vacuously
/// loose for Gaussian noise against signed weights.
pub fn hconv_budget_bits_avg(params: &HeParams, w_l2: f64, groups: u32) -> f64 {
    let sigma_out = params.noise_std() * w_l2 * (groups as f64).sqrt();
    let bound = 6.0 * sigma_out + 2.0; // plain add/sub residues
    (params.noise_ceiling() as f64).log2() - bound.max(1.0).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SecretKey;
    use crate::poly::Poly;
    use crate::PolyMulBackend;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fresh_bounds_exceed_measurements() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sk = SecretKey::generate(&p, &mut rng);
        let pk = sk.public_key(&mut rng);
        let bound = NoiseBound::fresh(&p);
        let bound_pk = NoiseBound::fresh_public(&p);
        for seed in 0..5u64 {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let m = Poly::uniform(p.n, p.t, &mut r);
            let ct = sk.encrypt(&m, &mut r);
            assert!((sk.noise(&ct, &m).inf_norm() as f64) <= bound.bound());
            let ct = pk.encrypt(&m, &mut r);
            assert!((sk.noise(&ct, &m).inf_norm() as f64) <= bound_pk.bound());
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
        let mut l1 = 0f64;
        for i in 0..9 {
            let v = rng.gen_range(-8i64..8);
            w[i * 13] = v;
            l1 += v.abs() as f64;
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

        let bound = NoiseBound::fresh(&p)
            .after_plain_add()
            .after_plain_mul(l1.max(1.0));
        let bound2 = bound.after_ct_add(&bound);
        let measured2 = sk.noise(&ct2, &expected2).inf_norm() as f64;
        assert!(
            measured2 <= bound2.bound(),
            "measured {measured2} vs bound {}",
            bound2.bound()
        );
        assert!(bound2.is_safe());
    }

    #[test]
    fn hconv_budget_positive_at_paper_parameters() {
        let p = HeParams::flash_default();
        // worst ResNet-50 tile: 16 channels x 9 taps of 4-bit weights
        let w_l2 = (16.0f64 * 9.0 * 64.0).sqrt();
        let bits = hconv_budget_bits_avg(&p, w_l2, 16);
        assert!(
            bits > 1.0,
            "paper parameters must leave budget: {bits} bits"
        );
        // the worst-case bound is (expectedly) much tighter
        let wc = hconv_budget_bits(&p, 16.0 * 9.0 * 8.0, 16);
        assert!(wc < bits);
    }

    #[test]
    fn budget_exhausts_for_absurd_norms() {
        let p = HeParams::test_256();
        let bits = hconv_budget_bits(&p, 1e12, 64);
        assert!(bits < 0.0);
        let nb = NoiseBound::fresh(&p).after_computation_error(1e18);
        assert!(!nb.is_safe());
    }
}
