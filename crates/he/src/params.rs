//! BFV parameter sets.
//!
//! The hybrid protocol with low-bit-width quantized CNNs runs at small
//! parameters (the paper's point in Section III): `N = 4096`, a ~39-bit
//! ciphertext modulus (matching CHAM's 39-bit NTT datapath) and a
//! power-of-two plaintext modulus sized to the convolution sum-product
//! bit-width.
//!
//! Two ring families are supported:
//!
//! * **Prime** — `q` an NTT-friendly prime; exact arithmetic via the
//!   Shoup NTT (the `Ntt` backend).
//! * **Power-of-two** — `q = 2^l` (Jaguar-style): modular reduction on
//!   the MAC path is a single AND and all accumulation is native
//!   wrapping arithmetic, at the price of losing the ring's own NTT.
//!   Both the hot path (the `Pow2` and `ApproxFft` backends) and the
//!   exact key operations run on the shared `f64` FFT; key products split the dense operand into two limbs so
//!   every rounded coefficient is provably exact. Because both `t`
//!   and `q` are powers of two, `Δ = q/t` is exact and plaintext-ring
//!   wraparound carries vanish entirely (`q ≡ 0 (mod t)`).

use flash_math::prime::ntt_prime;
use std::fmt;
use std::sync::Arc;

use crate::error::HeError;
use crate::poly::ErrorSampler;
use crate::pow2::SplitLimb;
use flash_fft::negacyclic::NegacyclicFft;
use flash_math::C64;
use flash_ntt::polymul::{negacyclic_mul_prepared_batch, PreparedOperand};
use flash_ntt::NttTables;
use flash_runtime::U64_SCRATCH;

/// The coefficient-ring context: the modulus family decides which exact
/// multiplication machinery key operations use.
#[derive(Clone)]
enum RingCtx {
    /// NTT-friendly prime modulus with its transform tables.
    Prime(Arc<NttTables>),
    /// Power-of-two modulus; key operations run the split-limb product
    /// on the ring's FFT.
    Pow2(SplitLimb),
}

/// BFV parameters plus shared transform plans for the ring.
#[derive(Clone)]
pub struct HeParams {
    /// Ring degree `N` (power of two).
    pub n: usize,
    /// Ciphertext modulus `q` (NTT-friendly prime or a power of two).
    pub q: u64,
    /// Plaintext modulus `t` (a power of two, matching the 2PC share ring).
    pub t: u64,
    /// The encryption-error sampler, built once from `σ`.
    errors: Arc<ErrorSampler>,
    ring: RingCtx,
    fft: Arc<NegacyclicFft>,
}

impl fmt::Debug for HeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeParams")
            .field("n", &self.n)
            .field("q", &self.q)
            .field("t", &self.t)
            .field("noise_std", &self.noise_std())
            .field("pow2", &self.is_pow2())
            .finish()
    }
}

impl PartialEq for HeParams {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.q == other.q && self.t == other.t
    }
}

impl HeParams {
    /// Builds a parameter set with `q` the largest prime below `2^q_bits`
    /// satisfying both `q ≡ 1 (mod 2N)` (negacyclic NTT) and
    /// `q ≡ 1 (mod t)` (so plaintext-ring wraparound carries multiply a
    /// unit into the noise instead of `q mod t`).
    ///
    /// # Panics
    ///
    /// Panics if `t ≥ q/2` (no noise budget), `t` is not a power of two,
    /// or no suitable prime exists.
    pub fn new(n: usize, q_bits: u32, t: u64, noise_std: f64) -> Self {
        assert!(
            t.is_power_of_two(),
            "plaintext modulus must be a power of two"
        );
        assert!(
            t < (1u64 << q_bits) / 2,
            "plaintext modulus leaves no noise budget"
        );
        // Both 2N and t are powers of two, so the combined congruence is
        // q ≡ 1 (mod max(2N, t)) — i.e. an NTT prime for degree
        // max(N, t/2).
        let n_eff = n.max((t / 2) as usize);
        let q = ntt_prime(q_bits, n_eff as u64).expect("no NTT-friendly prime at this size");
        assert!(t < q / 2, "plaintext modulus leaves no noise budget");
        let ntt = NttTables::shared(n, q).expect("params are NTT friendly");
        let fft = NegacyclicFft::shared(n);
        Self {
            n,
            q,
            t,
            errors: Arc::new(ErrorSampler::new(noise_std)),
            ring: RingCtx::Prime(ntt),
            fft,
        }
    }

    /// Builds a power-of-two parameter set with `q = 2^l`. All MAC-path
    /// reduction degenerates to wrapping arithmetic plus one mask;
    /// exact key operations run the split-limb product on the ring's FFT.
    ///
    /// `l` is capped at 62 (the workspace-wide `q < 2^63` contract);
    /// `2^62` already exceeds every prime modulus the NTT baseline can
    /// reach, so the cap costs no headroom in practice.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a power of two, `t ≥ 2^l / 2`, `l` is outside
    /// `2..=62`, or `n` is too large for an exact key product with a
    /// ternary operand (`N ≥ 16384` at `l = 62`).
    pub fn new_pow2(n: usize, l: u32, t: u64, noise_std: f64) -> Self {
        assert!(
            t.is_power_of_two(),
            "plaintext modulus must be a power of two"
        );
        assert!(
            (2..=62).contains(&l),
            "power-of-two modulus exponent {l} outside 2..=62"
        );
        let q = 1u64 << l;
        assert!(t < q / 2, "plaintext modulus leaves no noise budget");
        Self {
            n,
            q,
            t,
            errors: Arc::new(ErrorSampler::new(noise_std)),
            ring: RingCtx::Pow2(SplitLimb::new(n, l)),
            fft: NegacyclicFft::shared(n),
        }
    }

    /// The FLASH/Cheetah operating point: `N = 4096`, 39-bit `q`,
    /// `t = 2^21` (W4A4 convolution sum-products), σ = 3.2.
    pub fn flash_default() -> Self {
        Self::new(4096, 39, 1 << 21, 3.2)
    }

    /// The power-of-two twin of [`HeParams::flash_default`]: same ring
    /// degree and plaintext modulus, `q = 2^62` — maximal noise ceiling
    /// and free reduction.
    pub fn flash_pow2() -> Self {
        Self::new_pow2(4096, 62, 1 << 21, 3.2)
    }

    /// A tiny parameter set for unit tests and doc examples
    /// (`N = 8` — NOT secure, purely functional).
    pub fn toy() -> Self {
        Self::new(8, 30, 1 << 8, 1.0)
    }

    /// A mid-size set for integration tests (`N = 256`).
    pub fn test_256() -> Self {
        Self::new(256, 36, 1 << 16, 3.2)
    }

    /// The power-of-two twin of [`HeParams::test_256`] (`q = 2^62`).
    pub fn pow2_test_256() -> Self {
        Self::new_pow2(256, 62, 1 << 16, 3.2)
    }

    /// Standard deviation `σ` of the encryption error.
    #[inline]
    pub fn noise_std(&self) -> f64 {
        self.errors.std()
    }

    /// The encryption-error sampler: the rounded Gaussian of standard
    /// deviation [`HeParams::noise_std`] clipped at `⌊6σ⌋`, its table
    /// built when the parameter set was.
    #[inline]
    pub fn error_sampler(&self) -> &ErrorSampler {
        &self.errors
    }

    /// `Δ = ⌊q/t⌋`, the plaintext scaling factor.
    #[inline]
    pub fn delta(&self) -> u64 {
        self.q / self.t
    }

    /// The decryption noise budget ceiling `q/(2t)`: decryption is correct
    /// while `‖noise‖_∞` stays below this.
    #[inline]
    pub fn noise_ceiling(&self) -> u64 {
        self.q / (2 * self.t)
    }

    /// Whether the ciphertext modulus is a power of two.
    #[inline]
    pub fn is_pow2(&self) -> bool {
        matches!(self.ring, RingCtx::Pow2(_))
    }

    /// Shared exact-NTT tables for this ring.
    ///
    /// # Panics
    ///
    /// Panics for a power-of-two ring — `2^l` admits no negacyclic NTT;
    /// exact products go through [`HeParams::key_mul_batch`] (dense, key
    /// operations) or the wrapping schoolbook (sparse fallback) instead.
    #[inline]
    pub fn ntt(&self) -> &NttTables {
        match &self.ring {
            RingCtx::Prime(t) => t,
            RingCtx::Pow2(_) => panic!(
                "power-of-two modulus {q} has no NTT; use key_mul_batch or the \
                 wrapping kernels",
                q = self.q
            ),
        }
    }

    /// Shared `f64` negacyclic FFT plan for this ring.
    #[inline]
    pub fn fft(&self) -> &NegacyclicFft {
        &self.fft
    }

    /// Prepares the fixed *small* operand of key products (`a·s`, `p·u`,
    /// …: ternary secrets, encryption randomness) for
    /// [`HeParams::key_mul_batch`]: the operand moves into the transform
    /// domain once (NTT with Shoup constants on a prime ring, its `N/2`-slot
    /// FFT spectrum on a power-of-two ring), so every product afterwards
    /// skips its transform.
    ///
    /// # Errors
    ///
    /// [`HeError::OperandTooLarge`] on a power-of-two ring when `‖b‖_∞`
    /// exceeds the bound for which the split-limb product is provably
    /// exact (2 at `N = 4096`, `q = 2^62`; ternary operands qualify at every
    /// degree `new_pow2` accepts). A prime ring accepts any reduced operand.
    ///
    /// # Panics
    ///
    /// Panics if `b_small.len() != N`.
    pub fn prepare_key_operand(&self, b_small: &[u64]) -> Result<KeyOperand, HeError> {
        Ok(KeyOperand(match &self.ring {
            RingCtx::Prime(t) => KeyOperandRepr::Prime(PreparedOperand::new(b_small, t)),
            RingCtx::Pow2(r) => KeyOperandRepr::Pow2(r.prepare(&self.fft, b_small)?),
        }))
    }

    /// Exact negacyclic key products of a batch of ring elements `a`
    /// (`batch × N`, concatenated) against one prepared operand, folded
    /// into `out`: `out[i] = fold(prod[i], out[i])` with `prod` fully
    /// reduced modulo `q`. Batched Shoup-NTT on a prime ring, the batched
    /// split-limb FFT product on a power-of-two ring; a batch of one is the
    /// same code at width 1. Never used on the MAC hot path.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != out.len()`, the length is not a multiple of
    /// `N`, or `b` was prepared on the other ring family.
    pub fn key_mul_batch<F: Fn(u64, u64) -> u64>(
        &self,
        out: &mut [u64],
        a: &[u64],
        b: &KeyOperand,
        fold: F,
    ) {
        match (&self.ring, &b.0) {
            (RingCtx::Prime(t), KeyOperandRepr::Prime(b)) => {
                assert_eq!(out.len(), a.len(), "output batch length must match");
                let mut prod = U64_SCRATCH.take_copied(a);
                negacyclic_mul_prepared_batch(&mut prod, b, t);
                for (o, &p) in out.iter_mut().zip(prod.iter()) {
                    *o = fold(p, *o);
                }
            }
            (RingCtx::Pow2(r), KeyOperandRepr::Pow2(b)) => r.mul_batch(&self.fft, out, a, b, fold),
            _ => panic!("key operand prepared for the other ring family"),
        }
    }
}

/// The small operand of key products in this ring's transform domain;
/// see [`HeParams::prepare_key_operand`].
#[derive(Debug, Clone)]
pub struct KeyOperand(KeyOperandRepr);

#[derive(Debug, Clone)]
enum KeyOperandRepr {
    Prime(PreparedOperand),
    Pow2(Box<[C64]>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_shape() {
        let p = HeParams::flash_default();
        assert_eq!(p.n, 4096);
        assert_eq!(p.q % (2 * 4096), 1);
        assert!(p.q < (1 << 39) && p.q > (1 << 38));
        assert_eq!(p.t, 1 << 21);
        assert!(p.delta() > (1 << 17));
        assert!(p.noise_ceiling() >= (1 << 16));
        assert!(!p.is_pow2());
    }

    #[test]
    fn pow2_params_shape() {
        let p = HeParams::flash_pow2();
        assert_eq!(p.n, 4096);
        assert_eq!(p.q, 1 << 62);
        assert!(p.is_pow2());
        // Δ is exact (no flooring remainder) and q ≡ 0 (mod t): the
        // wraparound carry term of the noise analysis vanishes.
        assert_eq!(p.delta() * p.t, p.q);
        assert_eq!(p.q % p.t, 0);
        // 2^62 beats the 39-bit prime's ceiling by >20 bits.
        assert!(p.noise_ceiling() > HeParams::flash_default().noise_ceiling() << 20);
        assert_eq!(p.fft().degree(), 4096);
    }

    #[test]
    fn key_mul_agrees_across_rings_on_ternary() {
        use rand::{Rng, SeedableRng};
        let prime = HeParams::test_256();
        let pow2 = HeParams::pow2_test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        // Same signed inputs, per-ring residues: products must agree
        // after center lift since no coefficient overflows either ring.
        let a_signed: Vec<i64> = (0..256).map(|_| rng.gen_range(-128..128)).collect();
        let s_signed: Vec<i64> = (0..256).map(|_| rng.gen_range(-1..=1)).collect();
        let enc = |xs: &[i64], q: u64| -> Vec<u64> {
            xs.iter()
                .map(|&x| flash_math::modular::from_signed(x, q))
                .collect()
        };
        let key_mul = |p: &HeParams| -> Vec<u64> {
            let s = p.prepare_key_operand(&enc(&s_signed, p.q)).unwrap();
            let mut out = vec![0u64; p.n];
            p.key_mul_batch(&mut out, &enc(&a_signed, p.q), &s, |prod, _| prod);
            out
        };
        let (rp, r2) = (key_mul(&prime), key_mul(&pow2));
        for (x, y) in rp.iter().zip(&r2) {
            assert_eq!(
                flash_math::modular::center_lift(*x, prime.q),
                flash_math::modular::center_lift(*y, pow2.q)
            );
        }
    }

    #[test]
    fn oversized_key_operand_is_a_typed_error_on_pow2_only() {
        let pow2 = HeParams::pow2_test_256();
        let mut b = vec![0u64; 256];
        b[3] = pow2.q / 2;
        assert!(matches!(
            pow2.prepare_key_operand(&b),
            Err(HeError::OperandTooLarge { norm, .. }) if norm == pow2.q / 2
        ));
        let prime = HeParams::test_256();
        b[3] = prime.q / 2;
        assert!(prime.prepare_key_operand(&b).is_ok());
    }

    #[test]
    #[should_panic(expected = "no NTT")]
    fn pow2_ring_has_no_ntt_tables() {
        let _ = HeParams::pow2_test_256().ntt();
    }

    #[test]
    fn toy_params_work() {
        let p = HeParams::toy();
        assert_eq!(p.n, 8);
        assert_eq!(p.ntt().degree(), 8);
        assert_eq!(p.fft().degree(), 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_t() {
        HeParams::new(8, 30, 100, 1.0);
    }

    #[test]
    #[should_panic(expected = "noise budget")]
    fn rejects_oversized_t() {
        HeParams::new(8, 20, 1 << 20, 1.0);
    }
}
