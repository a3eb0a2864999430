//! Pluggable negacyclic multipliers for ciphertext × plaintext products.
//!
//! The backend follows the ring: one transform family per modulus family.
//!
//! * [`PolyMulBackend::Ntt`] — prime `q`: the exact modular datapath of
//!   baseline accelerators (CHAM, F1, …).
//! * [`PolyMulBackend::Pow2`] — `q = 2^l`, Jaguar's axis: coefficient-domain
//!   reduction is free (wrapping arithmetic plus one mask, zero
//!   Barrett/Shoup/Montgomery work). Products lift through the `f64`
//!   negacyclic FFT — SIMD batching and sparse tapes compose unchanged —
//!   and the result wraps into `Z_{2^l}` by truncation. At `q = 2^62` the
//!   lifted magnitudes exceed the 53-bit mantissa, so this backend is
//!   *approximate* and carries an [`ApproxErrorModel`] for the runtime
//!   noise guard; its exact fallback is the wrapping schoolbook over the
//!   band's sparse taps (bit-exact, still reduction-free).
//! * [`PolyMulBackend::ApproxFft`] — `q = 2^l`: FLASH's approximate
//!   fixed-point *weight* transform in place of `Pow2`'s `f64` one; the
//!   ciphertext-side transform, point-wise product and inverse are the
//!   same `f64` code as `Pow2`'s, so its error model is `Pow2`'s plus the
//!   fixed transform's.
//!
//! Every entry point checks the pairing ([`PolyMulBackend::assert_ring`])
//! and panics with one named message on a mismatch. For the FFT family
//! the *plaintext* operand must be small and signed (quantized weights);
//! the ciphertext operand is center-lifted.

use crate::cipher::Ciphertext;
use crate::params::HeParams;
use crate::poly::Poly;
use crate::pow2::round_to_u64;
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
    /// Exact number-theoretic transform (prime `q`).
    Ntt,
    /// Approximate fixed-point FFT for the plaintext (weight) transform
    /// (`q = 2^l`).
    ApproxFft(Arc<FixedNegacyclicFft>),
    /// Power-of-two ciphertext modulus: free wrapping reduction on the
    /// coefficient path, `f64` FFT lift on the transform path.
    Pow2,
}

/// Analytic error model of an approximate backend, queried by the runtime
/// noise guard on the protocol hot path.
///
/// Two terms, each a per-group spectrum error power affine in the weight
/// coefficient variance, `p0 + slope·Var(w)`:
///
/// * the fixed-point weight transform's
///   ([`FixedNegacyclicFft::spectrum_error_power_coeffs`], zero for the
///   `f64` weight transform), so one cached pair prices every band of a
///   layer without touching the twiddle tables again;
/// * the `f64` lift's rounding: the center-lifted ciphertext coefficients
///   reach `q/2 ≈ 2^61`, beyond the 53-bit mantissa, so the lifted product
///   carries `O(ε·N·log₂N)` relative error — `p0 = 0` (zero weights are
///   exact) and `slope = (4·ε·N·log₂N)²`, the standard FFT
///   forward/inverse error-growth bound with a safety factor 4.
///
/// The phase bound is the sum of the two terms' bounds: conservative with
/// no independence argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxErrorModel {
    p0: f64,
    slope: f64,
    rounding_slope: f64,
    n: f64,
}

impl ApproxErrorModel {
    /// A (≈6σ) bound on the decryption-phase error injected by `groups`
    /// accumulated approximate products with total weight energy
    /// `w_sq_sum = Σ_g Σ_i w_{g,i}²`.
    ///
    /// Per term, the per-coefficient product error variance is
    /// `power(Var(w_g))·σ_x²` with ciphertext operands center-lifted to
    /// `(−q/2, q/2]` (`σ_x² = q²/12`); summing the affine power over groups
    /// gives `(G·p0 + slope·Σw²/N)·σ_x²` per component. The `c1`
    /// component's error passes through the `c1·s` product of the
    /// decryption phase (ternary key, `E[s²] = 2/3`), inflating the phase
    /// variance by `2N/3`, and the tail factor 6 matches
    /// [`NoiseBound::fresh`]'s convention.
    ///
    /// [`NoiseBound::fresh`]: crate::noise::NoiseBound::fresh
    pub fn phase_error_bound(&self, params: &HeParams, w_sq_sum: f64, groups: usize) -> f64 {
        let q = params.q as f64;
        let act_var = q * q / 12.0;
        let term = |p0: f64, slope: f64| {
            let component_var = (groups as f64 * p0 + slope * w_sq_sum / self.n) * act_var;
            6.0 * (component_var * (1.0 + 2.0 * self.n / 3.0)).sqrt()
        };
        term(self.p0, self.slope) + term(0.0, self.rounding_slope)
    }
}

impl PolyMulBackend {
    /// Builds the approximate backend from a configuration.
    pub fn approx(cfg: flash_fft::ApproxFftConfig) -> Self {
        PolyMulBackend::ApproxFft(FixedNegacyclicFft::shared(&cfg))
    }

    /// The one ring/backend check: `Ntt` runs on a prime `q`, `Pow2` and
    /// `ApproxFft` on `q = 2^l`.
    ///
    /// # Panics
    ///
    /// Panics with a "backend/ring mismatch" message naming both rules
    /// when the backend and the ring family of `params` disagree.
    pub fn assert_ring(&self, params: &HeParams) {
        let wants_pow2 = !matches!(self, PolyMulBackend::Ntt);
        assert!(
            wants_pow2 == params.is_pow2(),
            "backend/ring mismatch: Ntt needs a prime ciphertext modulus, Pow2 and \
             ApproxFft a power-of-two ciphertext modulus (got {} at q = {})",
            self.name(),
            params.q
        );
    }

    /// The variant's name, for messages.
    fn name(&self) -> &'static str {
        match self {
            PolyMulBackend::Ntt => "Ntt",
            PolyMulBackend::ApproxFft(_) => "ApproxFft",
            PolyMulBackend::Pow2 => "Pow2",
        }
    }

    /// The analytic error model of this backend, or `None` for the exact
    /// `Ntt`. `ApproxFft` composes the fixed transform's term with
    /// `Pow2`'s `f64`-rounding term (see [`ApproxErrorModel`]).
    pub fn error_model(&self, params: &HeParams) -> Option<ApproxErrorModel> {
        let n = params.n as f64;
        let per = 4.0 * f64::EPSILON * n * n.log2();
        let (p0, slope) = match self {
            PolyMulBackend::Ntt => return None,
            PolyMulBackend::ApproxFft(fixed) => fixed.spectrum_error_power_coeffs(),
            PolyMulBackend::Pow2 => (0.0, 0.0),
        };
        Some(ApproxErrorModel {
            p0,
            slope,
            rounding_slope: per * per,
            n,
        })
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
    ///
    /// # Panics
    ///
    /// Panics on a backend/ring mismatch ([`PolyMulBackend::assert_ring`]).
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
    ///
    /// Every product of the tree passes here, so this is where a
    /// backend/ring mismatch panics ([`PolyMulBackend::assert_ring`]) —
    /// an FFT-family product would otherwise mask-reduce a prime residue.
    pub fn activation_spectra_multi(
        &self,
        spans: &[&[Ciphertext]],
        params: &HeParams,
    ) -> ActivationSpectra {
        self.assert_ring(params);
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
            PolyMulBackend::Pow2 => {
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
    /// accumulated spectrum rounds once instead of per group; its error is
    /// what [`PolyMulBackend::error_model`] prices.
    ///
    /// Each coefficient then reduces into `Z_{2^l}` by an exact round
    /// modulo `2^64` and a mask — the "free reduction" of the
    /// power-of-two ring (`2^l | 2^64`). Products reach `~2^76` at
    /// `q = 2^62`, beyond `i64`; the wrap shifts their mantissa into
    /// place natively instead of converting through `i128`.
    /// Accumulators only come from FFT-domain spectra, whose sweep
    /// checked the ring.
    pub fn finish_bands(accs: Vec<BandAccumulator>, params: &HeParams) -> Vec<Ciphertext> {
        let n = params.n;
        let q = params.q;
        let mask = q - 1;
        let mut spec = C64_SCRATCH.take(accs.len() * n);
        for (chunk, acc) in spec.chunks_exact_mut(n).zip(&accs) {
            chunk.copy_from_slice(&acc.0);
        }
        let mut prod = F64_SCRATCH.take(accs.len() * 2 * n);
        {
            let _t = flash_telemetry::span!("hconv.inverse_fft");
            params.fft().inverse_batch_into(&spec, &mut prod);
        }
        let reduce = |x: f64| round_to_u64(x) & mask;
        let to_poly = |xs: &[f64]| Poly::from_coeffs(xs.iter().map(|&x| reduce(x)).collect(), q);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SecretKey;
    use crate::noise::NoiseBound;
    use crate::params::HeParams;
    use flash_fft::ApproxFftConfig;
    use flash_math::fixed::FxpFormat;
    use flash_math::pow2::negacyclic_mul_wrapping;
    use flash_ntt::polymul::negacyclic_mul_naive;
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

    /// An approximate backend at `FxpFormat(int, frac)`, twiddle level `k`
    /// and shift cap `shift`.
    fn approx(int: u32, frac: u32, k: usize, shift: u32) -> PolyMulBackend {
        let mut cfg = ApproxFftConfig::uniform(256, FxpFormat::new(int, frac), k);
        cfg.max_shift = shift;
        PolyMulBackend::approx(cfg)
    }

    /// The wide datapath: error far below 0.5 per coefficient of the
    /// fixed transform alone.
    fn wide() -> PolyMulBackend {
        approx(20, 60, 60, 55)
    }

    /// `w` as residues mod `m`.
    fn residues(w: &[i64], m: u64) -> Vec<u64> {
        w.iter().map(|&x| from_signed(x, m)).collect()
    }

    /// `(measured, bound)`: the worst raw `c0` error of `b`'s product of a
    /// uniform (≈2^61) polynomial by 9-tap weights on `pow2_test_256`,
    /// against the exact wrapping schoolbook, and `b`'s modelled phase
    /// bound for those weights.
    fn raw_error_and_bound(b: &PolyMulBackend, seed: u64) -> (u64, f64) {
        let p = HeParams::pow2_test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Poly::uniform(p.n, p.q, &mut rng);
        let w = small_weights(p.n, 9, &mut rng);
        let got = mul(b, &a, &w, &p);
        let want = negacyclic_mul_wrapping(a.coeffs(), &residues(&w, p.q), p.q);
        let err = got
            .coeffs()
            .iter()
            .zip(&want)
            .map(|(&g, &e)| center_lift(g.wrapping_sub(e) & (p.q - 1), p.q).unsigned_abs())
            .max()
            .unwrap();
        let sq: f64 = w.iter().map(|&x| (x * x) as f64).sum();
        let bound = b.error_model(&p).unwrap().phase_error_bound(&p, sq, 1);
        (err, bound)
    }

    /// `b` on `pow2_test_256` decrypts `ct ⊠ w` to what `Ntt` on
    /// `test_256` does — the product mod `t = 2^16` on both rings — and
    /// its raw product error stays under its composed bound.
    fn decrypts_like_ntt(b: &PolyMulBackend, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let prime = HeParams::test_256();
        let m = Poly::uniform(prime.n, prime.t, &mut rng);
        let w = small_weights(prime.n, 9, &mut rng);
        let decrypted = [
            (prime, &PolyMulBackend::Ntt),
            (HeParams::pow2_test_256(), b),
        ]
        .map(|(p, backend)| {
            let sk = SecretKey::generate(&p, &mut rng);
            let ct = sk.encrypt(&m, &mut rng).mul_plain_signed(&w, &p, backend);
            sk.decrypt(&ct)
        });
        let t = decrypted[0].modulus();
        let want = negacyclic_mul_naive(m.coeffs(), &residues(&w, t), t);
        assert_eq!(decrypted[0].coeffs(), &want[..]);
        assert_eq!(decrypted[0], decrypted[1]);
        let (err, bound) = raw_error_and_bound(b, seed);
        assert!((err as f64) < bound, "err {err} above the bound {bound}");
    }

    #[test]
    fn fft_backend_matches_ntt_backend() {
        decrypts_like_ntt(&PolyMulBackend::Pow2, 3);
    }

    #[test]
    fn wide_approx_backend_matches_ntt() {
        decrypts_like_ntt(&wide(), 5);
    }

    #[test]
    fn approx_error_model_composes_fixed_and_f64_bounds() {
        // On q = 2^62 the wide fixed transform's own term (2^13.0) sits
        // below the product's measured error (2^15.0, the f64 lift's
        // rounding), so a model of the fixed transform alone under-prices
        // it; the composed model adds Pow2's term (2^27.4).
        let (err, bound) = raw_error_and_bound(&wide(), 17);
        assert!(
            (err as f64) <= bound,
            "measured {err} above the composed bound {bound}"
        );
        let (_, pow2_bound) = raw_error_and_bound(&PolyMulBackend::Pow2, 17);
        assert!(bound >= pow2_bound, "{bound} below Pow2's {pow2_bound}");
    }

    #[test]
    fn error_model_exists_only_for_the_approximate_backends() {
        let p = HeParams::pow2_test_256();
        assert!(PolyMulBackend::Ntt.error_model(&p).is_none());
        assert!(approx(18, 34, 30, 30).error_model(&p).is_some());
        assert!(PolyMulBackend::Pow2.error_model(&p).is_some());
    }

    #[test]
    fn pow2_backend_stays_within_its_error_model() {
        // Kernel-level claim of the Pow2 datapath: the f64-lifted product
        // differs from the exact wrapping schoolbook by far less than the
        // model's phase bound, even against full-magnitude (≈2^61)
        // ciphertext coefficients.
        let p = HeParams::pow2_test_256();
        let (err, bound) = raw_error_and_bound(&PolyMulBackend::Pow2, 17);
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
        let p = HeParams::pow2_test_256();
        for (frac, k, shift) in [(30u32, 24usize, 26u32), (34, 30, 30)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(13);
            let sk = SecretKey::generate(&p, &mut rng);
            let m = Poly::uniform(p.n, p.t, &mut rng);
            let ct = sk.encrypt(&m, &mut rng);
            let w = small_weights(p.n, 9, &mut rng);
            let b = approx(16, frac, k, shift);
            let model = b.error_model(&p).unwrap();

            let ct2 = ct.mul_plain_signed(&w, &p, &b);
            let mw = Poly::from_coeffs(
                negacyclic_mul_naive(m.coeffs(), &residues(&w, p.t), p.t),
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
        let p = HeParams::pow2_test_256();
        let half = p.n / 2;
        for (frac, k, shift) in [(30u32, 24usize, 26u32), (34, 30, 30)] {
            let b = approx(16, frac, k, shift);
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
                    let mw = negacyclic_mul_naive(m.coeffs(), &residues(w, p.t), p.t);
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
        let p = HeParams::pow2_test_256();
        let (err, bound) = raw_error_and_bound(&approx(16, 30, 24, 26), 7);
        // errors exist but are small relative to the noise ceiling
        assert!(err > 0, "narrow datapath should introduce some error");
        assert!(
            err < p.noise_ceiling() / 4,
            "error {err} must stay within the kernel-level budget {}",
            p.noise_ceiling()
        );
        assert!((err as f64) < bound, "error {err} above the bound {bound}");
    }
}
