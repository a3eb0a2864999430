//! Pluggable negacyclic multipliers for ciphertext × plaintext products.
//!
//! The choice of backend is exactly the design axis of the paper:
//!
//! * [`PolyMulBackend::Ntt`] — the exact modular datapath of baseline
//!   accelerators (CHAM, F1, …).
//! * [`PolyMulBackend::FftF64`] — Figure 4(b): transforms in floating
//!   point; exact in practice at FLASH's parameters (Klemsa's error-free
//!   regime), standing in for a wide (39-bit-mantissa) FP datapath.
//! * [`PolyMulBackend::ApproxFft`] — FLASH's approximate fixed-point
//!   *weight* transform; the ciphertext-side transform, point-wise product
//!   and inverse stay in floating point, as in the FLASH architecture.
//! * [`PolyMulBackend::Pow2`] — Jaguar's axis: the ciphertext modulus is
//!   a power of two, so coefficient-domain reduction is free (wrapping
//!   arithmetic plus one mask, zero Barrett/Shoup/Montgomery work).
//!   Products lift through the same `f64` transform machinery as the FFT
//!   backends — SIMD batching and sparse tapes compose unchanged — and
//!   the result wraps into `Z_{2^l}` by truncation. At `q = 2^62` the
//!   lifted magnitudes exceed the 53-bit mantissa, so this backend is
//!   *approximate* and carries an [`ApproxErrorModel`] for the runtime
//!   noise guard; its exact fallback is the wrapping schoolbook over the
//!   band's sparse taps (bit-exact, still reduction-free).
//!
//! For the approximate backends the *plaintext* operand must be small and
//! signed (quantized weights); the ciphertext operand is center-lifted.

use crate::cipher::Ciphertext;
use crate::params::HeParams;
use crate::poly::Poly;
use flash_fft::fixed_fft::FixedNegacyclicFft;
use flash_fft::C64_SCRATCH;
use flash_math::modular::{center_lift, from_signed, Barrett};
use flash_math::C64;
use flash_ntt::transform::{forward_batch, inverse_batch, pointwise_mul_acc_shoup_lazy};
use flash_ntt::NttTables;
use flash_runtime::F64_SCRATCH;
use std::sync::Arc;

/// The negacyclic multiplier used for `ct ⊠ pt` products.
#[derive(Debug, Clone)]
pub enum PolyMulBackend {
    /// Exact number-theoretic transform.
    Ntt,
    /// `f64` negacyclic FFT (exact at FLASH parameters).
    FftF64,
    /// Approximate fixed-point FFT for the plaintext (weight) transform.
    ApproxFft(Arc<FixedNegacyclicFft>),
    /// Power-of-two ciphertext modulus: free wrapping reduction on the
    /// coefficient path, `f64` FFT lift on the transform path.
    Pow2,
}

/// Analytic error model of an approximate weight-transform backend,
/// queried by the runtime noise guard on the protocol hot path.
///
/// The per-group spectrum error power of the fixed-point transform is
/// affine in the weight coefficient variance, `p0 + slope·Var(w)`
/// ([`FixedNegacyclicFft::spectrum_error_power_coeffs`]), so one cached
/// pair of coefficients prices every band of a layer without touching the
/// twiddle tables again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxErrorModel {
    p0: f64,
    slope: f64,
    n: f64,
}

impl ApproxErrorModel {
    /// A (≈6σ) bound on the decryption-phase error injected by `groups`
    /// accumulated approximate products with total weight energy
    /// `w_sq_sum = Σ_g Σ_i w_{g,i}²`.
    ///
    /// Per-coefficient product error variance is `power(Var(w_g))·σ_x²`
    /// with ciphertext operands center-lifted to `(−q/2, q/2]`
    /// (`σ_x² = q²/12`); summing the affine power over groups gives
    /// `(G·p0 + slope·Σw²/N)·σ_x²` per component. The `c1` component's
    /// error passes through the `c1·s` product of the decryption phase
    /// (ternary key, `E[s²] = 2/3`), inflating the phase variance by
    /// `2N/3`, and the tail factor 6 matches [`NoiseBound::fresh`]'s
    /// convention.
    ///
    /// [`NoiseBound::fresh`]: crate::noise::NoiseBound::fresh
    pub fn phase_error_bound(&self, params: &HeParams, w_sq_sum: f64, groups: usize) -> f64 {
        let q = params.q as f64;
        let act_var = q * q / 12.0;
        let component_var = (groups as f64 * self.p0 + self.slope * w_sq_sum / self.n) * act_var;
        let phase_var = component_var * (1.0 + 2.0 * self.n / 3.0);
        6.0 * phase_var.sqrt()
    }
}

impl PolyMulBackend {
    /// Builds the approximate backend from a configuration.
    pub fn approx(cfg: flash_fft::ApproxFftConfig) -> Self {
        PolyMulBackend::ApproxFft(FixedNegacyclicFft::shared(&cfg))
    }

    /// The analytic error model of this backend, or `None` for the
    /// backends that are exact in the protocol's operating regime (`Ntt`
    /// by construction, `FftF64` at FLASH parameters).
    ///
    /// `Pow2` is approximate for a different reason than `ApproxFft`:
    /// the weight transform itself is full-precision `f64`, but the
    /// center-lifted ciphertext coefficients reach `q/2 ≈ 2^61`, beyond
    /// the 53-bit mantissa, so the transform-lifted product carries
    /// `O(ε·N·log₂N)` relative rounding error. The model prices that as
    /// a spectrum error power affine in the weight variance with
    /// `p0 = 0` (no weight-independent quantization floor — zero
    /// weights are exact) and `slope = (4·ε·N·log₂N)²`, the standard
    /// FFT forward/inverse error-growth bound with a safety factor 4.
    pub fn error_model(&self, params: &HeParams) -> Option<ApproxErrorModel> {
        match self {
            PolyMulBackend::Ntt | PolyMulBackend::FftF64 => None,
            PolyMulBackend::ApproxFft(fixed) => {
                let (p0, slope) = fixed.spectrum_error_power_coeffs();
                Some(ApproxErrorModel {
                    p0,
                    slope,
                    n: fixed.config().degree() as f64,
                })
            }
            PolyMulBackend::Pow2 => {
                let n = params.n as f64;
                let per = 4.0 * f64::EPSILON * n * n.log2();
                Some(ApproxErrorModel {
                    p0: 0.0,
                    slope: per * per,
                    n,
                })
            }
        }
    }
}

/// Spectral form of every uploaded (share-folded) ciphertext, computed
/// **once per protocol run** through the batched lane-parallel transforms
/// and shared by all `(pack, band)` units — the activation hoist of the
/// SoA datapath. Without it, each output-channel pack re-derives the same forward
/// transforms of the same ciphertexts.
#[derive(Debug, Clone)]
pub enum ActivationSpectra {
    /// FFT-family backends: per ciphertext the two component spectra
    /// `[c0 | c1]`, each `N/2` slots, in upload order.
    Fft(Vec<C64>),
    /// Exact NTT backend: per ciphertext the two forward residue vectors
    /// `[c0 | c1]`, each `N` coefficients, in upload order.
    Ntt(Vec<u64>),
}

/// One `(pack, band)` response being accumulated in the FFT spectral
/// domain, both ciphertext components side by side (`[s0 | s1]`, each
/// `N/2` slots), so a whole batch of responses can close through one
/// lane-parallel inverse ([`BandAccumulator::finish_bands`]). NTT-domain
/// responses accumulate in raw `2·N` slices of one contiguous buffer
/// instead ([`BandAccumulator::finish_ntt_bands_in_place`]).
#[derive(Debug, Clone)]
pub struct BandAccumulator(Vec<C64>);

impl PolyMulBackend {
    /// Forward-transforms both components of every ciphertext, `2·cts`
    /// polynomials in one batched sweep
    /// ([`flash_fft::NegacyclicFft::forward_batch_into`] or
    /// [`flash_ntt::transform::forward_batch`], `W` lanes per twiddle).
    pub fn activation_spectra(&self, cts: &[Ciphertext], params: &HeParams) -> ActivationSpectra {
        self.activation_spectra_multi(&[cts], params)
    }

    /// Cross-session variant of [`PolyMulBackend::activation_spectra`]:
    /// forward-transforms every ciphertext of every span in one batched
    /// sweep, without copying the spans into a contiguous buffer first.
    /// The serving layer uses this to pack activations from different
    /// clients into a single SoA batch, so the lane-parallel kernels run
    /// at full SIMD width instead of per-client width.
    ///
    /// Spectra are indexed by *global* ciphertext position — the order of
    /// concatenation of the spans — so a caller holding requests from
    /// several sessions addresses request `r`'s ciphertext `c` as
    /// `idx = offset_of(r) + c` in [`ActivationSpectra::mac_fft`] /
    /// [`ActivationSpectra::mac_ntt_shoup_lazy_into`].
    pub fn activation_spectra_multi(
        &self,
        spans: &[&[Ciphertext]],
        params: &HeParams,
    ) -> ActivationSpectra {
        let n = params.n;
        let q = params.q;
        let total: usize = spans.iter().map(|s| s.len()).sum();
        let components = spans
            .iter()
            .flat_map(|s| s.iter())
            .flat_map(|ct| [ct.c0(), ct.c1()]);
        match self {
            PolyMulBackend::Ntt => {
                let mut res = vec![0u64; 2 * total * n];
                for (chunk, poly) in res.chunks_exact_mut(n).zip(components) {
                    chunk.copy_from_slice(poly.coeffs());
                }
                let _t = flash_telemetry::span!("hconv.activation_fft");
                forward_batch(&mut res, params.ntt());
                ActivationSpectra::Ntt(res)
            }
            _ => {
                let mut lifted = F64_SCRATCH.take(2 * total * n);
                for (chunk, poly) in lifted.chunks_exact_mut(n).zip(components) {
                    for (slot, &x) in chunk.iter_mut().zip(poly.coeffs()) {
                        *slot = center_lift(x, q) as f64;
                    }
                }
                let mut spectra = vec![C64::ZERO; total * n];
                let _t = flash_telemetry::span!("hconv.activation_fft");
                params.fft().forward_batch_into(&lifted, &mut spectra);
                ActivationSpectra::Fft(spectra)
            }
        }
    }

    /// Forward-transforms one band's weight polynomials (one per channel
    /// group) into concatenated `N/2`-slot spectra through the batched
    /// kernels. FFT-family backends only; the exact path uses
    /// [`weight_residue_shoups`].
    ///
    /// # Panics
    ///
    /// Panics on the `Ntt` backend or mismatched lengths.
    pub fn weight_spectra_into(
        &self,
        ws: &[&[i64]],
        out: &mut [C64],
        fft: &flash_fft::NegacyclicFft,
    ) {
        let n = fft.degree();
        assert_eq!(out.len(), ws.len() * (n / 2), "spectra length mismatch");
        match self {
            PolyMulBackend::Ntt => panic!("weight spectra require an FFT-family backend"),
            PolyMulBackend::FftF64 | PolyMulBackend::Pow2 => {
                let mut staged = F64_SCRATCH.take(ws.len() * n);
                for (chunk, w) in staged.chunks_exact_mut(n).zip(ws) {
                    for (slot, &x) in chunk.iter_mut().zip(*w) {
                        *slot = x as f64;
                    }
                }
                fft.forward_batch_into(&staged, out);
            }
            PolyMulBackend::ApproxFft(fixed) => {
                let mut staged = Vec::with_capacity(ws.len() * n);
                for w in ws {
                    staged.extend_from_slice(w);
                }
                let _ = fixed.forward_batch_into(&staged, out);
            }
        }
    }
}

/// From-signed lift + batched forward NTT of one band's weight
/// polynomials into `out` (`ws.len() · N` residues).
fn weight_residues_into(ws: &[&[i64]], out: &mut [u64], ntt: &NttTables) {
    let n = ntt.degree();
    let q = ntt.modulus();
    assert_eq!(out.len(), ws.len() * n, "residue length mismatch");
    for (chunk, w) in out.chunks_exact_mut(n).zip(ws) {
        for (slot, &x) in chunk.iter_mut().zip(*w) {
            *slot = from_signed(x, q);
        }
    }
    forward_batch(out, ntt);
}

impl ActivationSpectra {
    /// A zeroed accumulator for [`ActivationSpectra::mac_fft`].
    ///
    /// # Panics
    ///
    /// Panics when `self` is NTT-domain (those MACs take raw slices).
    pub fn accumulator(&self, n: usize) -> BandAccumulator {
        assert!(
            matches!(self, ActivationSpectra::Fft(_)),
            "NTT-domain responses accumulate in raw slices"
        );
        BandAccumulator(vec![C64::ZERO; n])
    }

    /// `acc ⊞= ct[idx] ⊙ fw` over both components in the FFT spectral
    /// domain.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not FFT-domain, or on length mismatches.
    pub fn mac_fft(&self, idx: usize, fw: &[C64], acc: &mut BandAccumulator) {
        let ActivationSpectra::Fft(sp) = self else {
            panic!("FFT MAC requires FFT-domain spectra");
        };
        let a = &mut acc.0;
        let half = fw.len();
        assert_eq!(a.len(), 2 * half, "accumulator length mismatch");
        let ct = &sp[idx * 2 * half..][..2 * half];
        let _t = flash_telemetry::span!("hconv.pointwise_acc");
        for c in 0..2 {
            let dst = &mut a[c * half..][..half];
            let src = &ct[c * half..][..half];
            for i in 0..half {
                dst[i] += src[i] * fw[i];
            }
        }
    }

    /// Lazy MAC into a raw `2·N` accumulator slice against one group's
    /// split-stream Shoup residues (one [`WeightShoups`] group slice):
    /// no per-element reduction — the accumulator carries raw integer
    /// sums that [`BandAccumulator::finish_ntt_bands_in_place`] reduces
    /// once before its inverse.
    ///
    /// A batch processor lays its accumulators out contiguously and MACs
    /// through this entry point, so no per-accumulator staging copy is
    /// ever needed. The caller owns the lazy-overflow budget: at most
    /// `⌊(2^64 − 1)/2q⌋` MACs per accumulator between reductions (see
    /// [`flash_ntt::transform::pointwise_mul_acc_shoup_lazy`]); the
    /// unit planner pins any unit over it to the exact fallback.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not NTT-domain or on length mismatches.
    pub fn mac_ntt_shoup_lazy_into(
        &self,
        idx: usize,
        w: &[u64],
        w_shoup: &[u64],
        tables: &NttTables,
        acc: &mut [u64],
    ) {
        let ActivationSpectra::Ntt(sp) = self else {
            panic!("NTT MAC requires NTT-domain residues");
        };
        let n = w.len();
        assert_eq!(acc.len(), 2 * n, "accumulator length mismatch");
        let ct = &sp[idx * 2 * n..][..2 * n];
        let _t = flash_telemetry::span!("hconv.pointwise_acc");
        let (a0, a1) = acc.split_at_mut(n);
        pointwise_mul_acc_shoup_lazy(a0, &ct[..n], w, w_shoup, tables);
        pointwise_mul_acc_shoup_lazy(a1, &ct[n..], w, w_shoup, tables);
    }
}

/// NTT-domain weight residues with their Shoup constants in split
/// structure-of-arrays streams (`w[i]` and `w' = ⌊w·2^64/q⌋` in
/// separate vectors, group-major like the band's group polynomials), the
/// layout [`pointwise_mul_acc_shoup_lazy`] vectorizes best.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightShoups {
    /// Plain residues, `groups · N`.
    pub w: Vec<u64>,
    /// Shoup precomputed constants, `groups · N`.
    pub shoup: Vec<u64>,
}

/// The exact path's weight preparation: from-signed lift and batched
/// forward NTT of one band's weight polynomials, then the per-coefficient
/// Shoup constant build that makes
/// [`ActivationSpectra::mac_ntt_shoup_lazy_into`] division-free on the
/// request path.
pub fn weight_residue_shoups(ws: &[&[i64]], ntt: &NttTables) -> WeightShoups {
    let q = ntt.modulus();
    let mut w = vec![0u64; ws.len() * ntt.degree()];
    weight_residues_into(ws, &mut w, ntt);
    let shoup = w
        .iter()
        .map(|&r| (((r as u128) << 64) / q as u128) as u64)
        .collect();
    WeightShoups { w, shoup }
}

impl BandAccumulator {
    /// Closes many accumulators at once: every component of every band
    /// goes through **one** batched inverse call (`2·k` lanes). The
    /// accumulated spectrum rounds once instead of per group, which is
    /// exact in the protocol's error-free operating regime.
    pub fn finish_bands(accs: Vec<BandAccumulator>, params: &HeParams) -> Vec<Ciphertext> {
        let n = params.n;
        let q = params.q;
        let mut spec = C64_SCRATCH.take(accs.len() * n);
        for (chunk, acc) in spec.chunks_exact_mut(n).zip(&accs) {
            chunk.copy_from_slice(&acc.0);
        }
        let mut prod = F64_SCRATCH.take(accs.len() * 2 * n);
        {
            let _t = flash_telemetry::span!("hconv.inverse_fft");
            params.fft().inverse_batch_into(&spec, &mut prod);
        }
        // One division-free reducer for every coefficient of the batch:
        // the naive `rem_euclid` here is an i128 libcall that used to
        // dominate the whole inverse-transform cost. (On a power-of-two
        // ring the reducer degenerates to a truncating cast and a mask.)
        let red = Reducer::new(q);
        let to_poly =
            |xs: &[f64]| Poly::from_coeffs(xs.iter().map(|&x| red.reduce_f64(x)).collect(), q);
        prod.chunks_exact(2 * n)
            .map(|pair| Ciphertext::new(to_poly(&pair[..n]), to_poly(&pair[n..])))
            .collect()
    }

    /// The NTT-domain counterpart of [`BandAccumulator::finish_bands`],
    /// for accumulators laid out contiguously (`k · 2N` residues, filled
    /// through [`ActivationSpectra::mac_ntt_shoup_lazy_into`]): one
    /// Barrett reduction pass drains the lazy sums, then the
    /// batched inverse runs directly on `buf` with no staging copy.
    /// Bit-identical to per-group inverse-then-add (the transform is
    /// linear over `Z_q`).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` is not a multiple of `2N`.
    pub fn finish_ntt_bands_in_place(buf: &mut [u64], params: &HeParams) -> Vec<Ciphertext> {
        let n = params.n;
        let q = params.q;
        assert_eq!(buf.len() % (2 * n), 0, "accumulator buffer length");
        Barrett::new(q).reduce_slice(buf);
        {
            let _t = flash_telemetry::span!("hconv.inverse_fft");
            inverse_batch(buf, params.ntt());
        }
        buf.chunks_exact(2 * n)
            .map(|pair| {
                Ciphertext::new(
                    Poly::from_coeffs(pair[..n].to_vec(), q),
                    Poly::from_coeffs(pair[n..].to_vec(), q),
                )
            })
            .collect()
    }
}

/// Rounds an `f64` product coefficient into `[0, q)`, dispatching on the
/// modulus family once per call batch: primes reduce through one Barrett
/// pass, powers of two through a truncating cast plus a mask — the
/// "free reduction" of the `Pow2` datapath (`i128 → u64` truncation *is*
/// reduction mod `2^64`, and `2^l | 2^64` finishes the job).
enum Reducer {
    Barrett(Barrett),
    Mask(u64),
}

impl Reducer {
    fn new(q: u64) -> Self {
        // A prime modulus (> 2) is never a power of two, so the existing
        // backends always take the Barrett arm bit-identically.
        if q.is_power_of_two() {
            Reducer::Mask(q - 1)
        } else {
            Reducer::Barrett(Barrett::new(q))
        }
    }

    #[inline]
    fn reduce_f64(&self, x: f64) -> u64 {
        match self {
            // Products reach ~2^76 at q = 2^62 — beyond i64, within i128.
            Reducer::Mask(m) => (x.round_ties_even() as i128) as u64 & m,
            Reducer::Barrett(br) => br.from_signed_i128(x.round_ties_even() as i128),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HeParams;
    use flash_fft::ApproxFftConfig;
    use flash_math::fixed::FxpFormat;
    use rand::{Rng, SeedableRng};

    fn small_weights(n: usize, nnz: usize, rng: &mut impl Rng) -> Vec<i64> {
        let mut w = vec![0i64; n];
        for _ in 0..nnz {
            w[rng.gen_range(0..n)] = rng.gen_range(-8..8);
        }
        w
    }

    /// `a ⊠ w` on the one product path: `a` rides as `c0` of a ciphertext
    /// whose `c1` is zero.
    fn mul(b: &PolyMulBackend, a: &Poly, w: &[i64], p: &HeParams) -> Poly {
        Ciphertext::new(a.clone(), Poly::zero(p.n, p.q))
            .mul_plain_signed(w, p, b)
            .c0()
            .clone()
    }

    #[test]
    fn fft_backend_matches_ntt_backend() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = Poly::uniform(p.n, p.q, &mut rng);
        let w = small_weights(p.n, 9, &mut rng);
        let exact = mul(&PolyMulBackend::Ntt, &a, &w, &p);
        let viaf = mul(&PolyMulBackend::FftF64, &a, &w, &p);
        assert_eq!(exact, viaf);
    }

    #[test]
    fn wide_approx_backend_matches_ntt() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = Poly::uniform(p.n, p.q, &mut rng);
        let w = small_weights(p.n, 9, &mut rng);
        // Very wide fixed-point datapath: error far below 0.5 per coeff
        // even against ciphertext coefficients of magnitude q/2 ≈ 2^35.
        let mut cfg = ApproxFftConfig::uniform(p.n, FxpFormat::new(20, 60), 60);
        cfg.max_shift = 55;
        let b = PolyMulBackend::approx(cfg);
        let exact = mul(&PolyMulBackend::Ntt, &a, &w, &p);
        let approx = mul(&b, &a, &w, &p);
        assert_eq!(exact, approx);
    }

    #[test]
    fn error_model_exists_only_for_the_approximate_backends() {
        let p = HeParams::test_256();
        assert!(PolyMulBackend::Ntt.error_model(&p).is_none());
        assert!(PolyMulBackend::FftF64.error_model(&p).is_none());
        let cfg = ApproxFftConfig::uniform(p.n, FxpFormat::new(18, 34), 30);
        assert!(PolyMulBackend::approx(cfg).error_model(&p).is_some());
        let p2 = HeParams::pow2_test_256();
        assert!(PolyMulBackend::Pow2.error_model(&p2).is_some());
    }

    #[test]
    fn pow2_backend_stays_within_its_error_model() {
        // Kernel-level claim of the Pow2 datapath: the f64-lifted product
        // differs from the exact wrapping schoolbook by far less than the
        // model's phase bound, even against full-magnitude (≈2^61)
        // ciphertext coefficients.
        use flash_math::pow2::negacyclic_mul_wrapping;
        let p = HeParams::pow2_test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let a = Poly::uniform(p.n, p.q, &mut rng);
        let w = small_weights(p.n, 9, &mut rng);
        let got = mul(&PolyMulBackend::Pow2, &a, &w, &p);
        let w_res: Vec<u64> = w
            .iter()
            .map(|&x| flash_math::modular::from_signed(x, p.q))
            .collect();
        let want = negacyclic_mul_wrapping(a.coeffs(), &w_res, p.q);
        let sq: f64 = w.iter().map(|&x| (x * x) as f64).sum();
        let bound = PolyMulBackend::Pow2
            .error_model(&p)
            .unwrap()
            .phase_error_bound(&p, sq, 1);
        let err = got
            .coeffs()
            .iter()
            .zip(&want)
            .map(|(&g, &e)| center_lift(g.wrapping_sub(e) & (p.q - 1), p.q).unsigned_abs())
            .max()
            .unwrap();
        assert!(err > 0, "2^61 magnitudes must exceed f64 exactness");
        assert!(
            (err as f64) < bound,
            "err {err} must stay below the model bound {bound}"
        );
        assert!(bound < p.noise_ceiling() as f64 / 4.0);
    }

    #[test]
    fn error_model_bounds_measured_decryption_noise() {
        // The guard's actual claim: composed analytic bound (worst-case
        // chain + model term) dominates the measured decryption-phase
        // noise of an approximate product, for both a narrow and a wide
        // datapath.
        use crate::keys::SecretKey;
        use crate::noise::NoiseBound;
        let p = HeParams::test_256();
        for (frac, k, shift) in [(30u32, 24usize, 26u32), (34, 30, 30)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(13);
            let sk = SecretKey::generate(&p, &mut rng);
            let m = Poly::uniform(p.n, p.t, &mut rng);
            let ct = sk.encrypt(&m, &mut rng);
            let w = small_weights(p.n, 9, &mut rng);
            let mut cfg = ApproxFftConfig::uniform(p.n, FxpFormat::new(16, frac), k);
            cfg.max_shift = shift;
            let b = PolyMulBackend::approx(cfg);
            let model = b.error_model(&p).unwrap();

            let ct2 = ct.mul_plain_signed(&w, &p, &b);
            let w_t: Vec<u64> = w
                .iter()
                .map(|&x| flash_math::modular::from_signed(x, p.t))
                .collect();
            let mw = Poly::from_coeffs(
                flash_ntt::polymul::negacyclic_mul_naive(m.coeffs(), &w_t, p.t),
                p.t,
            );
            let measured = sk.noise(&ct2, &mw).inf_norm() as f64;

            let l1: f64 = w.iter().map(|&x| x.abs() as f64).sum();
            let sq: f64 = w.iter().map(|&x| (x * x) as f64).sum();
            let bound = NoiseBound::fresh(&p)
                .after_plain_mul(l1)
                .after_computation_error(model.phase_error_bound(&p, sq, 1));
            assert!(
                measured <= bound.bound(),
                "frac={frac}: measured {measured} vs bound {}",
                bound.bound()
            );
        }
    }

    #[test]
    fn error_model_bounds_multi_group_accumulation() {
        // The guard prices a band at its group count G: G approximate
        // products accumulated in the spectral domain and rounded by one
        // inverse, the sequence `respond` runs. Measured decryption noise
        // must stay under the composed exact chain plus the model term.
        use crate::keys::SecretKey;
        use crate::noise::NoiseBound;
        use flash_ntt::polymul::negacyclic_mul_naive;
        let p = HeParams::test_256();
        let half = p.n / 2;
        for (frac, k, shift) in [(30u32, 24usize, 26u32), (34, 30, 30)] {
            let mut cfg = ApproxFftConfig::uniform(p.n, FxpFormat::new(16, frac), k);
            cfg.max_shift = shift;
            let b = PolyMulBackend::approx(cfg);
            let model = b.error_model(&p).unwrap();
            for groups in [2usize, 4, 8] {
                let mut rng = rand::rngs::StdRng::seed_from_u64(19 + groups as u64);
                let sk = SecretKey::generate(&p, &mut rng);
                let ms: Vec<Poly> = (0..groups)
                    .map(|_| Poly::uniform(p.n, p.t, &mut rng))
                    .collect();
                let cts: Vec<Ciphertext> = ms.iter().map(|m| sk.encrypt(m, &mut rng)).collect();
                let ws: Vec<Vec<i64>> = (0..groups)
                    .map(|_| small_weights(p.n, 9, &mut rng))
                    .collect();

                let act = b.activation_spectra(&cts, &p);
                let mut fw = vec![C64::ZERO; groups * half];
                let refs: Vec<&[i64]> = ws.iter().map(Vec::as_slice).collect();
                b.weight_spectra_into(&refs, &mut fw, p.fft());
                let mut acc = act.accumulator(p.n);
                for (g, spectrum) in fw.chunks_exact(half).enumerate() {
                    act.mac_fft(g, spectrum, &mut acc);
                }
                let ct = BandAccumulator::finish_bands(vec![acc], &p).remove(0);

                let mut want = Poly::zero(p.n, p.t);
                let mut exact: Option<NoiseBound> = None;
                let mut sq = 0.0;
                for (m, w) in ms.iter().zip(&ws) {
                    let w_t: Vec<u64> = w.iter().map(|&x| from_signed(x, p.t)).collect();
                    let mw = negacyclic_mul_naive(m.coeffs(), &w_t, p.t);
                    want = want.add(&Poly::from_coeffs(mw, p.t));
                    let l1: f64 = w.iter().map(|&x| x.abs() as f64).sum();
                    sq += w.iter().map(|&x| (x * x) as f64).sum::<f64>();
                    let term = NoiseBound::fresh(&p).after_plain_mul(l1);
                    exact = Some(exact.map_or(term, |e| e.after_ct_add(&term)));
                }
                let bound = exact
                    .unwrap()
                    .after_computation_error(model.phase_error_bound(&p, sq, groups));
                let measured = sk.noise(&ct, &want).inf_norm() as f64;
                assert!(
                    measured <= bound.bound(),
                    "frac={frac} G={groups}: measured {measured} vs bound {}",
                    bound.bound()
                );
            }
        }
    }

    #[test]
    fn narrow_approx_backend_errs_within_budget() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = Poly::uniform(p.n, p.q, &mut rng);
        let w = small_weights(p.n, 9, &mut rng);
        let mut cfg = ApproxFftConfig::uniform(p.n, FxpFormat::new(16, 30), 24);
        cfg.max_shift = 26;
        let b = PolyMulBackend::approx(cfg);
        let exact = mul(&PolyMulBackend::Ntt, &a, &w, &p);
        let approx = mul(&b, &a, &w, &p);
        // errors exist but are small relative to the noise ceiling
        let diff = exact.sub(&approx);
        let err = diff.inf_norm();
        assert!(err > 0, "narrow datapath should introduce some error");
        assert!(
            err < p.noise_ceiling() / 4,
            "error {err} must stay within the kernel-level budget {}",
            p.noise_ceiling()
        );
    }
}
