//! Ring elements of `Z_m[X]/(X^N + 1)` and the samplers BFV needs.
//!
//! A [`Poly`] stores reduced coefficients together with its modulus, so
//! plaintexts (`mod t`) and ciphertext components (`mod q`) cannot be
//! mixed accidentally.
//!
//! The key and error samplers draw one 64-bit word per coefficient and
//! run no floating-point code: ternary coefficients by Lemire's
//! multiply-shift (`uniform_below`), errors from the cumulative
//! distribution table of an [`ErrorSampler`].

use flash_math::modular::{add_mod, center_lift, from_signed, mul_mod, neg_mod, sub_mod};
use rand::{Rng, RngCore};

/// An exactly uniform draw from `0..bound` by Lemire's multiply-shift:
/// the high word of `word·bound` for a fresh word, rejecting the words
/// whose low word falls below `threshold = 2^64 mod bound` (a fraction
/// `threshold/2^64` of them). Callers hoist `threshold` out of their
/// loop.
#[inline]
pub(crate) fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64, threshold: u64) -> u64 {
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(bound);
        if wide as u64 >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

/// `erfc(x)` for `x ≥ 0`, to about `1e-14` relative: below 1.5 as `1 −
/// erf(x)` with the all-positive series `erf(x) = 2/√π·e^(−x²)·Σ
/// 2^j·x^(2j+1)/(2j+1)!!`, from there by the continued fraction `erfc(x)
/// = e^(−x²)/√π · 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + …))))`, evaluated
/// backwards from depth 100.
fn erfc(x: f64) -> f64 {
    let scale = (-x * x).exp() / std::f64::consts::PI.sqrt();
    if x < 1.5 {
        let (mut term, mut sum, mut j) = (x, x, 0.0);
        while term > sum * f64::EPSILON / 4.0 {
            j += 1.0;
            term *= 2.0 * x * x / (2.0 * j + 1.0);
            sum += term;
        }
        1.0 - 2.0 * scale * sum
    } else {
        let f = (1..=100).rev().fold(x, |f, k| x + f64::from(k) / 2.0 / f);
        scale / f
    }
}

/// The error distribution of BFV encryption as a constant-time
/// cumulative-distribution-table sampler: the rounded Gaussian of
/// standard deviation `σ`, clipped at `⌊6σ⌋`. Built once per parameter
/// set ([`crate::HeParams::error_sampler`]).
///
/// The table holds the tail thresholds `T_k = round(2^63 · P(|⌊σz⌉| ≥
/// k))` for `k = 1..=⌊6σ⌋` (`z` standard normal). One 64-bit word draws
/// one coefficient: its low bit is the sign, and the magnitude is the
/// number of thresholds above its high 63 bits `r`, so `P(|e| ≥ k) =
/// T_k / 2^63` exactly and the mass beyond `⌊6σ⌋` lands on `±⌊6σ⌋` — no
/// draw leaves the support. Every draw makes the same `⌊6σ⌋`
/// comparisons whatever its value.
#[derive(Debug, Clone)]
pub struct ErrorSampler {
    std: f64,
    /// `T_1 ≥ T_2 ≥ … ≥ T_⌊6σ⌋`, each below `2^63`.
    tail: Box<[u64]>,
}

impl ErrorSampler {
    /// The table for standard deviation `std`.
    ///
    /// # Panics
    ///
    /// Panics unless `std` is finite and non-negative.
    pub fn new(std: f64) -> Self {
        assert!(
            std.is_finite() && std >= 0.0,
            "noise standard deviation {std} must be finite and non-negative"
        );
        let support = (6.0 * std).floor() as u32;
        let two_63 = 2f64.powi(63);
        let tail = (1..=support)
            .map(|k| {
                let p = erfc((f64::from(k) - 0.5) / (std * std::f64::consts::SQRT_2));
                ((p * two_63).round() as u64).min((1 << 63) - 1)
            })
            .collect();
        Self { std, tail }
    }

    /// The standard deviation `σ` the table was built for.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// `⌊6σ⌋`: the largest magnitude a draw returns.
    pub fn support(&self) -> u64 {
        self.tail.len() as u64
    }

    /// The signed error drawn by `word`.
    #[inline]
    pub fn sample(&self, word: u64) -> i64 {
        let r = word >> 1;
        // `r < t` as the borrow of `r − t` (both below 2^63): subtract,
        // shift and add, which baseline SIMD vectorizes.
        let mag = self
            .tail
            .iter()
            .map(|&t| r.wrapping_sub(t) >> 63)
            .sum::<u64>() as i64;
        let neg = -((word & 1) as i64);
        (mag ^ neg) - neg
    }
}

/// A polynomial with coefficients reduced modulo `modulus`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    coeffs: Vec<u64>,
    modulus: u64,
}

impl Poly {
    /// The zero polynomial of degree bound `n`.
    pub fn zero(n: usize, modulus: u64) -> Self {
        Self {
            coeffs: vec![0; n],
            modulus,
        }
    }

    /// Builds a polynomial from already-reduced coefficients.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is not reduced.
    pub fn from_coeffs(coeffs: Vec<u64>, modulus: u64) -> Self {
        assert!(
            coeffs.iter().all(|&c| c < modulus),
            "coefficients must be reduced modulo {modulus}"
        );
        Self { coeffs, modulus }
    }

    /// Builds a polynomial from signed integers, reducing them.
    pub fn from_signed(coeffs: &[i64], modulus: u64) -> Self {
        Self {
            coeffs: coeffs.iter().map(|&c| from_signed(c, modulus)).collect(),
            modulus,
        }
    }

    /// Uniformly random element (used for the RLWE mask `a`).
    pub fn uniform<R: Rng>(n: usize, modulus: u64, rng: &mut R) -> Self {
        Self {
            coeffs: (0..n).map(|_| rng.gen_range(0..modulus)).collect(),
            modulus,
        }
    }

    /// Ternary polynomial with coefficients exactly uniform on
    /// `{-1, 0, 1}` (secret keys, public-key encryption randomness): one
    /// word per coefficient through `uniform_below(3)`.
    pub fn ternary<R: Rng>(n: usize, modulus: u64, rng: &mut R) -> Self {
        let values = [modulus - 1, 0, 1];
        let threshold = 3u64.wrapping_neg() % 3;
        Self {
            coeffs: (0..n)
                .map(|_| values[uniform_below(rng, 3, threshold) as usize])
                .collect(),
            modulus,
        }
    }

    /// Encryption-error polynomial: one word per coefficient through
    /// `sampler` — the rounded Gaussian clipped at `⌊6σ⌋`, so every
    /// coefficient satisfies `|e| ≤ ⌊6σ⌋` — reduced into `Z_modulus`
    /// without a branch.
    ///
    /// # Panics
    ///
    /// Panics if the support `⌊6σ⌋` reaches the modulus.
    pub fn gaussian<R: Rng>(n: usize, modulus: u64, sampler: &ErrorSampler, rng: &mut R) -> Self {
        assert!(
            sampler.support() < modulus,
            "error support exceeds the modulus"
        );
        let coeffs = (0..n)
            .map(|_| {
                let e = sampler.sample(rng.next_u64());
                (e as u64).wrapping_add(modulus & (e >> 63) as u64)
            })
            .collect();
        Self { coeffs, modulus }
    }

    /// Degree bound `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Whether the polynomial has no coefficients (degenerate).
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The coefficient modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// The reduced coefficients.
    #[inline]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Coefficient `i`.
    #[inline]
    pub fn coeff(&self, i: usize) -> u64 {
        self.coeffs[i]
    }

    /// Mutable coefficient access for in-place kernels. Callers must keep
    /// every coefficient reduced modulo [`Poly::modulus`].
    #[inline]
    pub(crate) fn coeffs_mut(&mut self) -> &mut [u64] {
        &mut self.coeffs
    }

    /// In-place coefficient-wise sum: `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on modulus or length mismatch.
    pub fn add_assign(&mut self, other: &Poly) {
        self.check_compat(other);
        for (a, &b) in self.coeffs.iter_mut().zip(&other.coeffs) {
            *a = add_mod(*a, b, self.modulus);
        }
    }

    /// Center-lifted coefficients in `(-m/2, m/2]`.
    pub fn lifted(&self) -> Vec<i64> {
        self.coeffs
            .iter()
            .map(|&c| center_lift(c, self.modulus))
            .collect()
    }

    /// Largest coefficient magnitude after center lift.
    pub fn inf_norm(&self) -> u64 {
        self.lifted()
            .iter()
            .map(|c| c.unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// Number of non-zero coefficients.
    pub fn nnz(&self) -> usize {
        self.coeffs.iter().filter(|&&c| c != 0).count()
    }

    /// Coefficient-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on modulus or length mismatch.
    pub fn add(&self, other: &Poly) -> Poly {
        self.check_compat(other);
        Poly {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(&a, &b)| add_mod(a, b, self.modulus))
                .collect(),
            modulus: self.modulus,
        }
    }

    /// Coefficient-wise difference.
    pub fn sub(&self, other: &Poly) -> Poly {
        self.check_compat(other);
        Poly {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(&a, &b)| sub_mod(a, b, self.modulus))
                .collect(),
            modulus: self.modulus,
        }
    }

    /// Coefficient-wise negation.
    pub fn neg(&self) -> Poly {
        Poly {
            coeffs: self
                .coeffs
                .iter()
                .map(|&a| neg_mod(a, self.modulus))
                .collect(),
            modulus: self.modulus,
        }
    }

    /// Scales every coefficient by a constant.
    pub fn scale(&self, k: u64) -> Poly {
        Poly {
            coeffs: self
                .coeffs
                .iter()
                .map(|&a| mul_mod(a, k, self.modulus))
                .collect(),
            modulus: self.modulus,
        }
    }

    /// Re-interprets the center-lifted coefficients in a different
    /// modulus (used to lift plaintexts `mod t` into the ciphertext ring
    /// `mod q`).
    pub fn lift_to(&self, modulus: u64) -> Poly {
        Poly {
            coeffs: self
                .lifted()
                .iter()
                .map(|&c| from_signed(c, modulus))
                .collect(),
            modulus,
        }
    }

    fn check_compat(&self, other: &Poly) {
        assert_eq!(self.modulus, other.modulus, "modulus mismatch");
        assert_eq!(self.coeffs.len(), other.coeffs.len(), "length mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Poly::from_signed(&[1, -2, 3, -4], 97);
        let b = Poly::from_signed(&[5, 6, -7, 8], 97);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&a), Poly::zero(4, 97));
        assert_eq!(a.neg().neg(), a);
        assert_eq!(a.scale(2), a.add(&a));
    }

    #[test]
    fn lifted_and_norms() {
        let a = Poly::from_signed(&[1, -2, 0, 40], 97);
        assert_eq!(a.lifted(), vec![1, -2, 0, 40]);
        assert_eq!(a.inf_norm(), 40);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn lift_to_preserves_signed_values() {
        let a = Poly::from_signed(&[1, -2, 3, 0], 256);
        let b = a.lift_to(0x3FFF_FFFF_F001);
        assert_eq!(b.lifted(), vec![1, -2, 3, 0]);
    }

    #[test]
    fn samplers_have_expected_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let q = 1_073_479_681u64;
        let u = Poly::uniform(1024, q, &mut rng);
        assert!(u.coeffs().iter().all(|&c| c < q));
        // uniform should be "large" on average
        assert!(u.inf_norm() > q / 4);

        let t = Poly::ternary(1024, q, &mut rng);
        assert!(t.inf_norm() <= 1);
        assert!(t.nnz() > 500, "ternary should be ~2/3 dense");

        let g = Poly::gaussian(4096, q, &ErrorSampler::new(3.2), &mut rng);
        assert!(g.inf_norm() <= 19, "clipped at 6 sigma");
        let mean: f64 = g.lifted().iter().map(|&x| x as f64).sum::<f64>() / 4096.0;
        assert!(mean.abs() < 1.0);
    }

    /// Replays a script of words, cycling.
    struct Scripted(Vec<u64>, usize);

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0[(self.1 - 1) % self.0.len()]
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.iter_mut().for_each(|b| *b = self.next_u64() as u8);
        }
    }

    #[test]
    fn erfc_matches_reference_values() {
        for (x, want) in [
            (0.0, 1.0),
            (0.5, 0.479_500_122_186_953_5),
            (1.0, 0.157_299_207_050_285_13),
            (2.0, 0.004_677_734_981_047_265),
            (1.4999, 0.033_906_748_337_704_73),
            (1.5, 0.033_894_853_524_689_274),
            (2.9999, 2.210_442_648_216_091e-5),
            (3.0, 2.209_049_699_858_544e-5),
            (4.0, 1.541_725_790_028_002e-8),
            (4.5, 1.966_160_441_542_887_3e-10),
        ] {
            let got = erfc(x);
            assert!(
                ((got - want) / want).abs() < 1e-12,
                "erfc({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn error_sampler_never_leaves_six_sigma() {
        // Box–Muller returned 27 on all-zero words at σ = 3.2; the table
        // sampler's support is ⌊6σ⌋ = 19 for every word, scripted or not.
        let q = 1_073_479_681u64;
        let sampler = ErrorSampler::new(3.2);
        assert_eq!(sampler.support(), 19);
        let extremes = [0, u64::MAX, 1, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
        let scripted = extremes.map(|w| Poly::gaussian(64, q, &sampler, &mut Scripted(vec![w], 0)));
        assert_eq!(scripted[0].lifted(), vec![19; 64], "all-zero words");
        assert_eq!(scripted[1].inf_norm(), 0, "all-one words");
        let seeded = (0..8u64).map(|seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            Poly::gaussian(4096, q, &sampler, &mut rng)
        });
        for poly in scripted.into_iter().chain(seeded) {
            assert!(poly.inf_norm() <= 19);
        }
        // Both ring families reduce a negative error the same way.
        let pow2 = Poly::gaussian(1, 1 << 62, &sampler, &mut Scripted(vec![1], 0));
        assert_eq!(pow2.lifted(), vec![-19]);
    }

    /// `P(round(σz) = k)` for the rounded Gaussian clipped at `⌊6σ⌋`,
    /// `k ∈ −K..=K`, by Simpson's rule on the normal density — an
    /// integration independent of the sampler's `erfc`.
    fn clipped_masses(sigma: f64) -> Vec<f64> {
        let density = |x: f64| {
            (-x * x / (2.0 * sigma * sigma)).exp() / (sigma * (2.0 * std::f64::consts::PI).sqrt())
        };
        let integral = |a: f64, b: f64| {
            let steps = 2000;
            let h = (b - a) / steps as f64;
            (0..=steps)
                .map(|i| {
                    let w = if i == 0 || i == steps {
                        1.0
                    } else if i % 2 == 1 {
                        4.0
                    } else {
                        2.0
                    };
                    w * density(a + i as f64 * h)
                })
                .sum::<f64>()
                * h
                / 3.0
        };
        let k_max = (6.0 * sigma).floor() as i64;
        (-k_max..=k_max)
            .map(|k| {
                let (lo, hi) = (k as f64 - 0.5, k as f64 + 0.5);
                match k {
                    k if k == k_max => integral(lo, 30.0 * sigma),
                    k if k == -k_max => integral(-30.0 * sigma, hi),
                    _ => integral(lo, hi),
                }
            })
            .collect()
    }

    #[test]
    fn error_sampler_matches_the_clipped_rounded_gaussian() {
        let sigma = 3.2;
        let sampler = ErrorSampler::new(sigma);
        let masses = clipped_masses(sigma);
        let k_max = sampler.support() as i64;
        assert!((masses.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let draws = 1 << 20;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6a55);
        let mut counts = vec![0u64; masses.len()];
        let (mut sum, mut sum_sq) = (0f64, 0f64);
        for _ in 0..draws {
            let e = sampler.sample(rng.next_u64());
            counts[(e + k_max) as usize] += 1;
            sum += e as f64;
            sum_sq += (e * e) as f64;
        }
        // χ² over the bins expecting ≥ 20 draws, the rest pooled per side.
        let mut observed = Vec::new();
        let mut expected = Vec::new();
        let (mut pool_o, mut pool_e) = (0f64, 0f64);
        for (&c, &m) in counts.iter().zip(&masses) {
            let e = m * draws as f64;
            if e >= 20.0 {
                if pool_e > 0.0 {
                    observed.push(pool_o);
                    expected.push(pool_e);
                    (pool_o, pool_e) = (0.0, 0.0);
                }
                observed.push(c as f64);
                expected.push(e);
            } else {
                pool_o += c as f64;
                pool_e += e;
            }
        }
        observed.push(pool_o);
        expected.push(pool_e);
        let chi2: f64 = observed
            .iter()
            .zip(&expected)
            .map(|(o, e)| (o - e).powi(2) / e)
            .sum();
        let df = (observed.len() - 1) as f64;
        // ≈ 6 standard deviations above the mean of χ²(df).
        assert!(
            chi2 < df + 6.0 * (2.0 * df).sqrt(),
            "χ² = {chi2} over {df} dof"
        );
        let n = draws as f64;
        let (mean, var) = (sum / n, sum_sq / n - (sum / n).powi(2));
        let want_var: f64 = masses
            .iter()
            .zip(-k_max..)
            .map(|(m, k)| m * (k * k) as f64)
            .sum();
        assert!(mean.abs() < 6.0 * (want_var / n).sqrt(), "mean {mean}");
        // Var of the sample variance ≈ (μ4 − σ⁴)/n; μ4 ≈ 3σ⁴ here.
        assert!(
            (var - want_var).abs() < 6.0 * want_var * (2.0 / n).sqrt(),
            "variance {var} vs {want_var}"
        );
    }

    #[test]
    fn ternary_is_uniform_on_minus_one_zero_one() {
        let q = 1u64 << 62;
        let draws = 300_000;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7e7);
        let t = Poly::ternary(draws, q, &mut rng);
        let mut counts = [0f64; 3];
        for c in t.lifted() {
            counts[(c + 1) as usize] += 1.0;
        }
        let e = draws as f64 / 3.0;
        let chi2: f64 = counts.iter().map(|o| (o - e).powi(2) / e).sum();
        // χ²(2) exceeds 30 with probability e^(−15).
        assert!(chi2 < 30.0, "χ² = {chi2}, counts {counts:?}");
        // One word per coefficient: the next draw of the same stream
        // follows the last coefficient's word.
        let mut replay = rand::rngs::StdRng::seed_from_u64(0x7e7);
        (0..draws).for_each(|_| {
            replay.next_u64();
        });
        assert_eq!(replay.next_u64(), rng.next_u64());
    }

    #[test]
    #[should_panic(expected = "modulus mismatch")]
    fn mixing_moduli_panics() {
        let a = Poly::zero(4, 97);
        let b = Poly::zero(4, 101);
        let _ = a.add(&b);
    }

    #[test]
    #[should_panic(expected = "reduced")]
    fn unreduced_coeffs_rejected() {
        Poly::from_coeffs(vec![97], 97);
    }
}
