//! Ciphertexts and the homomorphic operations the hybrid protocol uses.
//!
//! The server-side evaluation of one homomorphic convolution is
//! `(Enc({x}^C) ⊞ {x}^S) ⊠ w ⊟ s` — plaintext addition, plaintext
//! multiplication (through a pluggable [`PolyMulBackend`]) and plaintext
//! subtraction, plus ciphertext–ciphertext addition for accumulating
//! partial sums across input-channel tiles.

use crate::backend::{weight_residue_shoups, BandAccumulator, PolyMulBackend};
use crate::params::HeParams;
use crate::poly::Poly;
use flash_math::modular::{add_mod, center_lift, from_signed, sub_mod, Shoup};
use flash_math::C64;
use flash_ntt::polymul::negacyclic_mul_ntt_into;
use flash_runtime::U64_SCRATCH;

/// A BFV ciphertext `(c0, c1)` with `c0 + c1·s = Δ·m + e`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ciphertext {
    c0: Poly,
    c1: Poly,
}

impl Ciphertext {
    /// Wraps two ciphertext-ring polynomials.
    ///
    /// # Panics
    ///
    /// Panics if the components disagree in modulus or length.
    pub fn new(c0: Poly, c1: Poly) -> Self {
        assert_eq!(c0.modulus(), c1.modulus(), "component modulus mismatch");
        assert_eq!(c0.len(), c1.len(), "component length mismatch");
        Self { c0, c1 }
    }

    /// Checks that a (typically deserialized) ciphertext belongs to a
    /// parameter set: ring degree `n` and coefficient modulus `q` must
    /// match. Coefficient reduction is already enforced by the wire
    /// decoders of [`crate::serialize`] and [`crate::truncate`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::HeError`] on a degree or modulus mismatch.
    pub fn validate_for(&self, params: &HeParams) -> Result<(), crate::error::HeError> {
        if self.len() != params.n {
            return Err(crate::error::HeError::SizeMismatch {
                expected: params.n,
                got: self.len(),
            });
        }
        if self.c0.modulus() != params.q {
            return Err(crate::error::HeError::ModulusMismatch {
                expected: params.q,
                got: self.c0.modulus(),
            });
        }
        Ok(())
    }

    /// The transparent zero ciphertext — the identity for [`add_ct`]
    /// (`Ciphertext::add_ct`), used to seed fused accumulation loops.
    pub fn zero(n: usize, q: u64) -> Self {
        Self {
            c0: Poly::zero(n, q),
            c1: Poly::zero(n, q),
        }
    }

    /// First component.
    pub fn c0(&self) -> &Poly {
        &self.c0
    }

    /// Second component.
    pub fn c1(&self) -> &Poly {
        &self.c1
    }

    /// Ring degree.
    pub fn len(&self) -> usize {
        self.c0.len()
    }

    /// Whether the ciphertext is degenerate (zero-length).
    pub fn is_empty(&self) -> bool {
        self.c0.is_empty()
    }

    /// Serialized size in bytes (two polynomials of
    /// [`crate::serialize::modulus_bits`]-bit words), used for protocol
    /// communication accounting.
    pub fn byte_size(&self) -> usize {
        2 * self.len() * crate::serialize::coeff_bytes(self.c0.modulus())
    }

    /// Homomorphic ciphertext addition.
    pub fn add_ct(&self, other: &Ciphertext) -> Ciphertext {
        Ciphertext {
            c0: self.c0.add(&other.c0),
            c1: self.c1.add(&other.c1),
        }
    }

    /// `ct ⊞ p`: adds a plaintext (`mod t`) into the message slot.
    pub fn add_plain(&self, p: &Poly, params: &HeParams) -> Ciphertext {
        let mut out = self.clone();
        out.add_plain_assign(p, params);
        out
    }

    /// In-place [`Ciphertext::add_plain`]: folds the lift / Δ-scale /
    /// add pipeline into one pass over `c0` — no intermediate
    /// polynomials, one Shoup constant instead of a widening remainder
    /// per coefficient. Bit-identical to the allocating form.
    pub fn add_plain_assign(&mut self, p: &Poly, params: &HeParams) {
        self.plain_op_assign(p, params, add_mod);
    }

    /// `ct ⊟ p`: subtracts a plaintext from the message slot (the random
    /// share mask of the protocol).
    pub fn sub_plain(&self, p: &Poly, params: &HeParams) -> Ciphertext {
        let mut out = self.clone();
        out.sub_plain_assign(p, params);
        out
    }

    /// In-place [`Ciphertext::sub_plain`]; see
    /// [`Ciphertext::add_plain_assign`] for the cost argument.
    pub fn sub_plain_assign(&mut self, p: &Poly, params: &HeParams) {
        self.plain_op_assign(p, params, sub_mod);
    }

    /// [`Ciphertext::sub_plain_assign`] of a plaintext that is zero off
    /// `positions`: `m[k]` (mod `t`) is subtracted at coefficient
    /// `positions[k]` only, and the rest of `c0` is untouched.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or a position is out of range.
    pub fn sub_plain_at(&mut self, positions: &[usize], m: &[u64], params: &HeParams) {
        assert_eq!(positions.len(), m.len(), "one plaintext value per position");
        let terms = positions.iter().copied().zip(m.iter().copied());
        self.plain_op_at(terms, params, sub_mod);
    }

    /// Shared body of the in-place plaintext add/sub over every
    /// coefficient.
    fn plain_op_assign(&mut self, p: &Poly, params: &HeParams, op: fn(u64, u64, u64) -> u64) {
        assert_eq!(p.modulus(), params.t, "plaintext must be mod t");
        assert_eq!(p.len(), self.c0.len(), "plaintext length mismatch");
        self.plain_op_at(p.coeffs().iter().copied().enumerate(), params, op);
    }

    /// For every `(i, m)` term: center-lift `m` mod `t`, re-reduce mod
    /// `q`, scale by Δ (Shoup-multiplied — Δ is fixed for the whole pass)
    /// and combine into `c0[i]`. `c1` is untouched, exactly as in the
    /// allocating forms.
    fn plain_op_at(
        &mut self,
        terms: impl Iterator<Item = (usize, u64)>,
        params: &HeParams,
        op: fn(u64, u64, u64) -> u64,
    ) {
        let (t, q) = (params.t, params.q);
        let delta = Shoup::new(params.delta(), q);
        let c0 = self.c0.coeffs_mut();
        for (i, m) in terms {
            let lifted = from_signed(center_lift(m, t), q);
            c0[i] = op(c0[i], delta.mul(lifted, q), q);
        }
    }

    /// `ct ⊠ w`: multiplies by a small signed plaintext polynomial — the
    /// one-request, one-unit, one-group case of the batched HConv stages
    /// (activation spectra, weight preparation, MAC, one inverse), so a
    /// single product rounds exactly as a served response does.
    ///
    /// # Panics
    ///
    /// Panics on a backend/ring mismatch
    /// ([`PolyMulBackend::assert_ring`]).
    pub fn mul_plain_signed(
        &self,
        w_signed: &[i64],
        params: &HeParams,
        backend: &PolyMulBackend,
    ) -> Ciphertext {
        let act = backend.activation_spectra(std::slice::from_ref(self), params);
        let mut closed = match backend {
            PolyMulBackend::Ntt => {
                let fw = weight_residue_shoups(&[w_signed], params.ntt());
                let mut acc = vec![0u64; 2 * params.n];
                act.mac_ntt_shoup_lazy_into(0, &fw.w, &fw.shoup, params.ntt(), &mut acc);
                BandAccumulator::finish_ntt_bands_in_place(&mut acc, params)
            }
            _ => {
                let mut fw = vec![C64::ZERO; params.n / 2];
                backend.weight_spectra_into(&[w_signed], &mut fw, params.fft());
                let mut acc = act.accumulator(params.n);
                act.mac_fft(0, &fw, &mut acc);
                BandAccumulator::finish_bands(vec![acc], params)
            }
        };
        closed.pop().expect("one accumulator in, one out")
    }

    /// Exact `acc ⊞= self ⊠ w` for the noise guard's fallback path,
    /// dispatched on the ring family: the NTT product on a prime ring
    /// (for a unit whose group count would wrap the lazy Shoup
    /// accumulator), the wrapping schoolbook over the weight's nonzero taps on a
    /// power-of-two ring (where the prime NTT does not exist — and where
    /// the schoolbook keeps the datapath's zero-reduction property while
    /// being **bit-exact**). Quantized conv bands carry a handful of
    /// taps, so the `taps·N` schoolbook stays comparable to a transform.
    pub fn mul_plain_signed_acc_exact(
        &self,
        w_signed: &[i64],
        params: &HeParams,
        acc: &mut Ciphertext,
    ) {
        if params.is_pow2() {
            let taps: Vec<(usize, i64)> = w_signed
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w != 0)
                .map(|(j, &w)| (j, w))
                .collect();
            let _t = flash_telemetry::span!("hconv.pointwise_acc");
            for (acc, a) in [(&mut acc.c0, &self.c0), (&mut acc.c1, &self.c1)] {
                let dst = acc.coeffs_mut();
                flash_math::pow2::negacyclic_mac_taps(dst, a.coeffs(), &taps);
                flash_math::pow2::reduce_slice(dst, params.q);
            }
        } else {
            let q = params.q;
            let mut w = U64_SCRATCH.take(params.n);
            for (slot, &x) in w.iter_mut().zip(w_signed) {
                *slot = from_signed(x, q);
            }
            let mut prod = U64_SCRATCH.take(params.n);
            let _t = flash_telemetry::span!("hconv.pointwise_acc");
            for (acc, a) in [(&mut acc.c0, &self.c0), (&mut acc.c1, &self.c1)] {
                negacyclic_mul_ntt_into(&mut prod, a.coeffs(), &w, params.ntt());
                for (dst, &x) in acc.coeffs_mut().iter_mut().zip(prod.iter()) {
                    *dst = add_mod(*dst, x, q);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SecretKey;
    use flash_math::modular::from_signed;
    use rand::{Rng, SeedableRng};

    fn setup() -> (HeParams, SecretKey, rand::rngs::StdRng) {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let sk = SecretKey::generate(&p, &mut rng);
        (p, sk, rng)
    }

    #[test]
    fn add_plain_is_plaintext_addition() {
        let (p, sk, mut rng) = setup();
        let m1 = Poly::uniform(p.n, p.t, &mut rng);
        let m2 = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m1, &mut rng).add_plain(&m2, &p);
        assert_eq!(sk.decrypt(&ct), m1.add(&m2));
    }

    #[test]
    fn sub_plain_is_plaintext_subtraction() {
        let (p, sk, mut rng) = setup();
        let m1 = Poly::uniform(p.n, p.t, &mut rng);
        let mask = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m1, &mut rng).sub_plain(&mask, &p);
        assert_eq!(sk.decrypt(&ct), m1.sub(&mask));
    }

    #[test]
    fn plain_assign_forms_match_lift_scale_pipeline() {
        // The fused in-place add/sub must be bit-identical to the
        // original three-pass formulation (`lift_to` → `scale` → ring
        // add/sub), which is what the wire fixtures were recorded with.
        let (p, sk, mut rng) = setup();
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let plain = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m, &mut rng);
        let scaled = plain.lift_to(p.q).scale(p.delta());
        let added = Ciphertext::new(ct.c0().add(&scaled), ct.c1().clone());
        let subbed = Ciphertext::new(ct.c0().sub(&scaled), ct.c1().clone());
        assert_eq!(ct.add_plain(&plain, &p), added);
        assert_eq!(ct.sub_plain(&plain, &p), subbed);
        let mut inplace = ct.clone();
        inplace.add_plain_assign(&plain, &p);
        assert_eq!(inplace, added);
        let mut inplace = ct.clone();
        inplace.sub_plain_assign(&plain, &p);
        assert_eq!(inplace, subbed);
    }

    #[test]
    fn add_ct_accumulates() {
        let (p, sk, mut rng) = setup();
        let m1 = Poly::uniform(p.n, p.t, &mut rng);
        let m2 = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m1, &mut rng).add_ct(&sk.encrypt(&m2, &mut rng));
        assert_eq!(sk.decrypt(&ct), m1.add(&m2));
    }

    #[test]
    fn mul_plain_matches_ring_product() {
        let (p, sk, mut rng) = setup();
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let mut w = vec![0i64; p.n];
        for _ in 0..9 {
            let i = rng.gen_range(0..p.n);
            w[i] = rng.gen_range(-8..8);
        }
        let ct = sk
            .encrypt(&m, &mut rng)
            .mul_plain_signed(&w, &p, &PolyMulBackend::Ntt);
        // expected: m * w in the plaintext ring Z_t[X]/(X^N+1)
        let w_t: Vec<u64> = w.iter().map(|&x| from_signed(x, p.t)).collect();
        let expected = flash_ntt::polymul::negacyclic_mul_naive(m.coeffs(), &w_t, p.t);
        assert_eq!(sk.decrypt(&ct).coeffs(), &expected[..]);
    }

    #[test]
    #[should_panic(expected = "backend/ring mismatch")]
    fn fft_family_product_rejects_a_prime_ring() {
        // Mask-reducing a prime residue would decrypt to garbage; the
        // product path refuses the pairing by name instead.
        let (p, sk, mut rng) = setup();
        let ct = sk.encrypt(&Poly::zero(p.n, p.t), &mut rng);
        ct.mul_plain_signed(&[1], &p, &PolyMulBackend::Pow2);
    }

    #[test]
    fn pow2_mul_plain_matches_ring_product() {
        // The full ⊠ path on q = 2^62: FFT lift at 61-bit magnitudes,
        // wrapping mask reduction, u128 decrypt rounding.
        let p = HeParams::pow2_test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let mut w = vec![0i64; p.n];
        for _ in 0..9 {
            let i = rng.gen_range(0..p.n);
            w[i] = rng.gen_range(-8..8);
        }
        let ct = sk
            .encrypt(&m, &mut rng)
            .mul_plain_signed(&w, &p, &PolyMulBackend::Pow2);
        let w_t: Vec<u64> = w.iter().map(|&x| from_signed(x, p.t)).collect();
        let expected = flash_ntt::polymul::negacyclic_mul_naive(m.coeffs(), &w_t, p.t);
        assert_eq!(sk.decrypt(&ct).coeffs(), &expected[..]);
    }

    #[test]
    fn exact_acc_is_bit_exact_on_both_rings() {
        // The noise guard's fallback must land exactly on the ring
        // product, whatever the ring family — uniform (worst-case)
        // ciphertext components, accumulated twice to exercise the
        // `acc += ...` form.
        for p in [HeParams::test_256(), HeParams::pow2_test_256()] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(14);
            let mut w = vec![0i64; p.n];
            for _ in 0..9 {
                let i = rng.gen_range(0..p.n);
                w[i] = rng.gen_range(-8..8);
            }
            let ct = Ciphertext::new(
                Poly::uniform(p.n, p.q, &mut rng),
                Poly::uniform(p.n, p.q, &mut rng),
            );
            let mut acc = Ciphertext::zero(p.n, p.q);
            ct.mul_plain_signed_acc_exact(&w, &p, &mut acc);
            ct.mul_plain_signed_acc_exact(&w, &p, &mut acc);
            let w_q: Vec<u64> = w.iter().map(|&x| from_signed(x, p.q)).collect();
            let expect = |a: &Poly| {
                let prod = flash_ntt::polymul::negacyclic_mul_naive(a.coeffs(), &w_q, p.q);
                prod.iter().map(|&x| add_mod(x, x, p.q)).collect::<Vec<_>>()
            };
            assert_eq!(acc.c0().coeffs(), &expect(ct.c0())[..], "c0, q={}", p.q);
            assert_eq!(acc.c1().coeffs(), &expect(ct.c1())[..], "c1, q={}", p.q);
        }
    }

    #[test]
    fn mul_plain_noise_growth_is_bounded() {
        let (p, sk, mut rng) = setup();
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let mut w = vec![0i64; p.n];
        for i in 0..9 {
            w[i * 7] = if i % 2 == 0 { 7 } else { -8 };
        }
        let ct = sk.encrypt(&m, &mut rng);
        let before = sk.noise(&ct, &m).inf_norm();
        let ct2 = ct.mul_plain_signed(&w, &p, &PolyMulBackend::Ntt);
        // product message mod t
        let w_t: Vec<u64> = w.iter().map(|&x| from_signed(x, p.t)).collect();
        let mw = Poly::from_coeffs(
            flash_ntt::polymul::negacyclic_mul_naive(m.coeffs(), &w_t, p.t),
            p.t,
        );
        let after = sk.noise(&ct2, &mw).inf_norm();
        // growth bounded by ||w||_1-ish factor (9 coefficients of < 8)
        assert!(
            after <= before * 9 * 8 + p.t,
            "noise grew too much: {before} -> {after}"
        );
        assert!(sk.noise_budget_bits(&ct2, &mw) > 0.0);
    }

    #[test]
    fn byte_size_accounting() {
        let (p, sk, mut rng) = setup();
        let ct = sk.encrypt(&Poly::zero(p.n, p.t), &mut rng);
        // 256 coeffs * 2 polys * ceil(36/8)=5 bytes
        assert_eq!(ct.byte_size(), 2 * 256 * 5);
    }
}
