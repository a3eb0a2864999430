//! Registered models and their amortized per-model plans.
//!
//! A [`ModelSpec`] is what an operator registers: parameters, layer
//! shape, backend, plaintext weights, and the protocol knobs of
//! [`flash_2pc::ConvProtocol`]. Registration compiles it into a
//! [`ModelPlan`] — everything the per-request server path of the 2PC
//! protocol derives from the *weights only* is hoisted here and shared
//! by every session and request against the model:
//!
//! * the tiling plan ([`ConvEncoder`]) and encoded weight polynomials,
//! * the per-`(oc, band)` noise-guard verdict
//!   ([`flash_2pc::conv_band_noise_bound`]): models whose exact-path
//!   bound overflows the decryption ceiling are refused at registration,
//!   and approximate-backend units too close to the ceiling are marked
//!   for the exact fallback once instead of re-deciding per request,
//! * the forward weight transforms themselves — each unit's per-group
//!   spectra (via the interned sparse tape when worthwhile, the dense
//!   batched kernels otherwise), computed once and MAC-ed against every
//!   request's activation spectra thereafter.

use crate::ServeError;
use flash_2pc::shares::ShareRing;
use flash_2pc::{conv_band_noise_bound, conv_band_plan};
use flash_he::backend::{weight_residue_shoups, WeightShoups};
use flash_he::encoding::{ConvEncoder, ConvShape};
use flash_he::{HeParams, PolyMulBackend};
use flash_math::C64;

/// A model as registered by the operator.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Operator-chosen identifier clients name in their HELLO.
    pub id: u64,
    /// BFV parameters (`t` must be `2^l`, the share ring).
    pub params: HeParams,
    /// The (pre-padded, stride-1) convolution layer.
    pub shape: ConvShape,
    /// Polynomial-multiplication backend.
    pub backend: PolyMulBackend,
    /// Full `m×c×k×k` kernel, row-major.
    pub weights: Vec<i64>,
    /// Response truncation `(d0, d1)`, if enabled.
    pub truncation: Option<(u32, u32)>,
    /// Route weight transforms through compiled sparse tapes when
    /// worthwhile (on by default).
    pub sparse_weights: bool,
    /// Noise-guard margin (fraction of the decryption ceiling).
    pub noise_margin: f64,
}

impl ModelSpec {
    /// A model with default protocol knobs (sparse weights on, no
    /// truncation, [`flash_runtime::noise_margin`]).
    pub fn new(
        id: u64,
        params: HeParams,
        shape: ConvShape,
        backend: PolyMulBackend,
        weights: Vec<i64>,
    ) -> Self {
        ModelSpec {
            id,
            params,
            shape,
            backend,
            weights,
            truncation: None,
            sparse_weights: true,
            noise_margin: flash_runtime::noise_margin(),
        }
    }

    /// Enables response truncation (see
    /// [`flash_2pc::ConvProtocol::with_truncation`]).
    pub fn with_truncation(mut self, d0: u32, d1: u32) -> Self {
        self.truncation = Some((d0, d1));
        self
    }

    /// Enables or disables the compiled sparse weight-transform path.
    pub fn with_sparse_weights(mut self, enabled: bool) -> Self {
        self.sparse_weights = enabled;
        self
    }

    /// Overrides the noise-guard margin.
    pub fn with_noise_margin(mut self, margin: f64) -> Self {
        self.noise_margin = margin;
        self
    }
}

/// One `(oc, band)` unit's precomputed weight transform.
#[derive(Debug, Clone)]
pub(crate) enum UnitWeights {
    /// FFT-family spectra, `groups × N/2` concatenated.
    Fft(Vec<C64>),
    /// Exact-NTT residues, `groups × N` concatenated, with the Shoup
    /// constant of every coefficient precomputed at registration in
    /// split residue/constant streams — the request-path MAC then costs
    /// two multiplies per coefficient instead of a widening remainder,
    /// and the split layout feeds the vectorizer contiguous full-width
    /// loads.
    Ntt(WeightShoups),
    /// Noise guard demands the exact coefficient-domain fallback; the
    /// request path multiplies against the stored weight polynomials.
    Fallback,
}

/// A registered model compiled for serving.
#[derive(Debug)]
pub struct ModelPlan {
    pub(crate) spec: ModelSpec,
    pub(crate) encoder: ConvEncoder,
    pub(crate) ring: ShareRing,
    /// Per-unit transforms, `m × bands` in unit order `oc·bands + b`.
    pub(crate) units: Vec<UnitWeights>,
    /// Encoded weight polynomials per output channel
    /// (`m × groups × bands × N`) — the fallback units' inputs.
    pub(crate) w_polys: Vec<Vec<Vec<Vec<i64>>>>,
    sparse_units: usize,
    fallback_units: usize,
}

impl ModelPlan {
    /// Compiles a registered model: encodes the weights, runs the noise
    /// guard per unit, and precomputes every unit's weight transform.
    ///
    /// # Errors
    ///
    /// [`ServeError::Flash`] wrapping
    /// [`flash_he::HeError::NoiseOverflow`] when some unit's exact-path
    /// bound overflows the decryption ceiling — the model cannot be
    /// served at these parameters, refused here instead of per request.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not `2^l` with `l ≥ 2`, or on weight-size
    /// mismatches with the shape (operator-side contract violations).
    pub fn build(spec: ModelSpec) -> Result<ModelPlan, ServeError> {
        let p = &spec.params;
        let l = p.t.trailing_zeros();
        assert!(p.t.is_power_of_two() && l >= 2, "t must be 2^l");
        match spec.backend {
            PolyMulBackend::Pow2 => assert!(
                p.is_pow2(),
                "Pow2 backend requires a power-of-two ciphertext modulus"
            ),
            PolyMulBackend::Ntt => assert!(
                !p.is_pow2(),
                "exact NTT backend requires a prime ciphertext modulus"
            ),
            _ => {}
        }
        let shape = spec.shape;
        assert_eq!(
            spec.weights.len(),
            shape.m * shape.kernel_len(),
            "weight size mismatch"
        );
        let encoder = ConvEncoder::new(shape, p.n);
        let bands = encoder.bands();
        let m_half = p.n / 2;
        let is_ntt = matches!(spec.backend, PolyMulBackend::Ntt);

        // Band plans are structural — every output channel of a band
        // shares one interned tape.
        let band_plans: Vec<_> = (0..bands)
            .map(|b| {
                if !spec.sparse_weights || is_ntt {
                    return None;
                }
                let plan = conv_band_plan(&encoder, p.n, b);
                plan.worthwhile().then_some(plan)
            })
            .collect();

        let mut units = Vec::with_capacity(shape.m * bands);
        let mut w_polys = Vec::with_capacity(shape.m);
        let mut sparse_units = 0;
        let mut fallback_units = 0;
        for oc in 0..shape.m {
            let oc_polys = encoder.encode_weight(
                &spec.weights[oc * shape.kernel_len()..][..shape.kernel_len()],
                oc,
            );
            let groups = oc_polys.len();
            for b in 0..bands {
                let (noise, w_sq) = conv_band_noise_bound(p, &oc_polys, b, spec.truncation);
                noise.check()?;
                let fallback = match spec.backend.error_model(p) {
                    Some(model) => {
                        let err = model.phase_error_bound(p, w_sq, groups);
                        noise.bound() + err >= spec.noise_margin * noise.ceiling()
                    }
                    None => false,
                };
                if fallback {
                    fallback_units += 1;
                    units.push(UnitWeights::Fallback);
                    continue;
                }
                let ws: Vec<&[i64]> = oc_polys.iter().map(|wp| wp[b].as_slice()).collect();
                if is_ntt {
                    // The batched request path accumulates one lazy
                    // (unreduced, < 2q) Shoup product per group before
                    // its single Barrett drain, so the group count must
                    // fit the u64 headroom ⌊(2^64−1)/2q⌋. Unreachable
                    // for any practical q, but a violation would be a
                    // silent-wraparound correctness bug, so such a unit
                    // is pinned to the exact coefficient fallback.
                    if groups as u128 * 2 * p.q as u128 > u64::MAX as u128 {
                        fallback_units += 1;
                        units.push(UnitWeights::Fallback);
                        continue;
                    }
                    units.push(UnitWeights::Ntt(weight_residue_shoups(&ws, p.ntt())));
                } else {
                    let mut fw = vec![C64::ZERO; groups * m_half];
                    match &band_plans[b] {
                        Some(plan) => {
                            plan.execute_batch_into(ws.iter().copied(), &mut fw);
                            sparse_units += 1;
                        }
                        None => spec.backend.weight_spectra_into(&ws, &mut fw, p.fft()),
                    }
                    units.push(UnitWeights::Fft(fw));
                }
            }
            w_polys.push(oc_polys);
        }
        Ok(ModelPlan {
            encoder,
            ring: ShareRing::new(l),
            units,
            w_polys,
            sparse_units,
            fallback_units,
            spec,
        })
    }

    /// The registered identifier.
    pub fn id(&self) -> u64 {
        self.spec.id
    }

    /// The BFV parameters.
    pub fn params(&self) -> &HeParams {
        &self.spec.params
    }

    /// The layer shape.
    pub fn shape(&self) -> &ConvShape {
        &self.spec.shape
    }

    /// The tiling plan.
    pub fn encoder(&self) -> &ConvEncoder {
        &self.encoder
    }

    /// The share ring `Z_{2^l}`.
    pub fn ring(&self) -> ShareRing {
        self.ring
    }

    /// The agreed response truncation.
    pub fn truncation(&self) -> Option<(u32, u32)> {
        self.spec.truncation
    }

    /// Ciphertexts per request upload (`groups × bands`).
    pub fn c_polys(&self) -> usize {
        self.encoder.activation_polys()
    }

    /// Result ciphertexts per request (`m × bands`).
    pub fn result_polys(&self) -> usize {
        self.units.len()
    }

    /// Units whose weight transform compiled to a sparse tape.
    pub fn sparse_units(&self) -> usize {
        self.sparse_units
    }

    /// Units the noise guard pinned to the exact fallback.
    pub fn fallback_units(&self) -> usize {
        self.fallback_units
    }
}

/// `splitmix64` finalizer: a full-avalanche 64-bit mixer.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The output-mask seed of one `(session, request, unit)` triple.
///
/// [`ConvProtocol`](flash_2pc::ConvProtocol) draws its mask seeds from
/// the run's RNG stream; a server multiplexing many sessions cannot — the
/// draw order would depend on batch composition and worker scheduling.
/// Deriving each seed from the coordinates instead makes every mask
/// independent of ordering, so batched and serial execution produce
/// bit-identical shares for any worker count.
pub fn mask_seed(server_seed: u64, session_id: u32, req_id: u64, unit: usize) -> u64 {
    let mut h = mix64(server_seed ^ 0x464C_4153_4856_3031); // "FLASHV01"
    h = mix64(h ^ u64::from(session_id));
    h = mix64(h ^ req_id);
    mix64(h ^ unit as u64)
}

/// Expands one mask seed into `n` output-share coefficients mod `t`.
///
/// A splitmix64 counter stream mapped into `[0, t)` with Lemire's
/// multiply-shift: two multiplies per coefficient, versus keying a full
/// `StdRng` per unit — which showed up as a measurable slice of every
/// response in the serving profile. Like [`mask_seed`], the expansion is
/// a pure function of its inputs, so batched and serial datapaths (and
/// any worker count) draw bit-identical masks. The multiply-shift range
/// map has bias ≤ `t / 2^64` — below `2^-47` for every supported
/// plaintext modulus, immaterial for the share-hiding role the masks
/// play in this reproduction.
pub(crate) fn mask_coeffs(seed: u64, n: usize, t: u64) -> Vec<u64> {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    (1..=n as u64)
        .map(|i| {
            let z = mix64(seed.wrapping_add(i.wrapping_mul(GOLDEN)));
            ((z as u128 * t as u128) >> 64) as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec(backend: PolyMulBackend) -> ModelSpec {
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        let weights: Vec<i64> = (0..shape.m * shape.kernel_len())
            .map(|i| ((i as i64 * 3) % 15) - 7)
            .collect();
        ModelSpec::new(1, HeParams::test_256(), shape, backend, weights)
    }

    #[test]
    fn plan_precomputes_every_unit() {
        let plan = ModelPlan::build(toy_spec(PolyMulBackend::FftF64)).unwrap();
        assert_eq!(plan.units.len(), plan.result_polys());
        assert!(plan.sparse_units() > 0, "toy layer patterns are sparse");
        assert_eq!(plan.fallback_units(), 0);
        assert!(plan
            .units
            .iter()
            .all(|u| matches!(u, UnitWeights::Fft(s) if !s.is_empty())));
    }

    #[test]
    fn ntt_plan_stores_residues() {
        let plan = ModelPlan::build(toy_spec(PolyMulBackend::Ntt)).unwrap();
        assert_eq!(plan.sparse_units(), 0);
        assert!(plan.units.iter().all(|u| matches!(u, UnitWeights::Ntt(r)
                if !r.w.is_empty() && r.shoup.len() == r.w.len())));
    }

    fn toy_spec_pow2() -> ModelSpec {
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        let weights: Vec<i64> = (0..shape.m * shape.kernel_len())
            .map(|i| ((i as i64 * 3) % 15) - 7)
            .collect();
        ModelSpec::new(
            2,
            HeParams::pow2_test_256(),
            shape,
            PolyMulBackend::Pow2,
            weights,
        )
    }

    #[test]
    fn pow2_plan_precomputes_spectral_units() {
        // At the default margin the error model clears the 2^62 ceiling
        // easily, so every unit stays on the precomputed spectral path
        // (with sparse tapes where worthwhile) — no per-unit fallbacks.
        let plan = ModelPlan::build(toy_spec_pow2()).unwrap();
        assert_eq!(plan.units.len(), plan.result_polys());
        assert!(plan.sparse_units() > 0);
        assert_eq!(plan.fallback_units(), 0);
        assert!(plan
            .units
            .iter()
            .all(|u| matches!(u, UnitWeights::Fft(s) if !s.is_empty())));
    }

    #[test]
    fn pow2_zero_margin_pins_every_unit_to_fallback() {
        let plan = ModelPlan::build(toy_spec_pow2().with_noise_margin(0.0)).unwrap();
        assert_eq!(plan.fallback_units(), plan.result_polys());
    }

    #[test]
    #[should_panic(expected = "power-of-two ciphertext modulus")]
    fn pow2_backend_rejects_prime_ring_at_registration() {
        let _ = ModelPlan::build(toy_spec(PolyMulBackend::Pow2));
    }

    #[test]
    fn zero_margin_pins_every_approx_unit_to_fallback() {
        let params = HeParams::test_256();
        let mut cfg = flash_fft::ApproxFftConfig::uniform(
            params.n,
            flash_math::fixed::FxpFormat::new(18, 34),
            30,
        );
        cfg.max_shift = 30;
        let spec = toy_spec(PolyMulBackend::approx(cfg)).with_noise_margin(0.0);
        let plan = ModelPlan::build(spec).unwrap();
        assert_eq!(plan.fallback_units(), plan.result_polys());
    }

    #[test]
    fn unsafe_truncation_is_refused_at_registration() {
        let spec = toy_spec(PolyMulBackend::Ntt).with_truncation(30, 25);
        let err = ModelPlan::build(spec).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Flash(flash_2pc::error::FlashError::He(
                flash_he::HeError::NoiseOverflow { .. }
            ))
        ));
    }

    #[test]
    fn mask_expansion_is_deterministic_and_in_range() {
        for t in [2u64, 1 << 13, 1 << 16, (1 << 36) - 5] {
            let a = mask_coeffs(0xDEAD_BEEF, 257, t);
            assert_eq!(a, mask_coeffs(0xDEAD_BEEF, 257, t));
            assert!(a.iter().all(|&v| v < t), "mask out of range for t={t}");
            assert_ne!(a, mask_coeffs(0xDEAD_BEF0, 257, t), "seed separation");
        }
        // Masks should look like draws, not a constant: over 257 draws
        // from [0, 2^13) a repeated value is plausible, a single value
        // for all coefficients is not.
        let a = mask_coeffs(7, 257, 1 << 13);
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn mask_seeds_are_coordinate_separated() {
        let a = mask_seed(1, 2, 3, 4);
        assert_eq!(a, mask_seed(1, 2, 3, 4));
        assert_ne!(a, mask_seed(2, 2, 3, 4));
        assert_ne!(a, mask_seed(1, 3, 3, 4));
        assert_ne!(a, mask_seed(1, 2, 4, 4));
        assert_ne!(a, mask_seed(1, 2, 3, 5));
        // swapping coordinates must not collide
        assert_ne!(mask_seed(1, 2, 3, 4), mask_seed(1, 3, 2, 4));
    }
}
