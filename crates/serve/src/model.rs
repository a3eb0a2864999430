//! Registered models and their per-model plans.
//!
//! A [`ModelSpec`] is what an operator registers: parameters, layer
//! shape, backend, plaintext weights, and the protocol knobs of
//! [`flash_2pc::ConvProtocol`]. Registration compiles it into a
//! [`ModelPlan`]: [`HconvServer::guarded`] picks the partition and
//! [`HconvServer::prepare_units`] — the weight-only half of the
//! pipeline's **respond** stage (the noise-guard verdict priced from the
//! pack's kernel norms, encode, the forward weight transforms) — runs
//! once for every output-channel pack,
//! and the units are shared by every session and request against the model.
//! A model whose exact-path bound overflows the decryption ceiling is
//! refused here, before any session can name it.

use crate::ServeError;
use flash_2pc::hconv::{HconvLayer, HconvServer, UnitWeights, DEFAULT_NOISE_MARGIN};
use flash_2pc::shares::ShareRing;
use flash_he::encoding::{ConvEncoder, ConvShape};
use flash_he::truncate::planned_truncation;
use flash_he::{HeParams, PolyMulBackend};

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
    /// Response truncation `(d0, d1)`; `None` sends responses whole.
    pub truncation: Option<(u32, u32)>,
    /// Noise-guard margin (fraction of the decryption ceiling).
    pub noise_margin: f64,
}

impl ModelSpec {
    /// A model with default protocol knobs: responses truncated at
    /// [`planned_truncation`] of the parameters, and
    /// [`DEFAULT_NOISE_MARGIN`].
    pub fn new(
        id: u64,
        params: HeParams,
        shape: ConvShape,
        backend: PolyMulBackend,
        weights: Vec<i64>,
    ) -> Self {
        ModelSpec {
            id,
            truncation: Some(planned_truncation(&params)),
            params,
            shape,
            backend,
            weights,
            noise_margin: DEFAULT_NOISE_MARGIN,
        }
    }

    /// Overrides the planned response truncation (see
    /// [`flash_2pc::ConvProtocol::with_truncation`]).
    pub fn with_truncation(mut self, d0: u32, d1: u32) -> Self {
        self.truncation = Some((d0, d1));
        self
    }

    /// Overrides the noise-guard margin.
    pub fn with_noise_margin(mut self, margin: f64) -> Self {
        self.noise_margin = margin;
        self
    }
}

/// A registered model compiled for serving.
#[derive(Debug)]
pub struct ModelPlan {
    id: u64,
    pub(crate) server: HconvServer,
    /// Prepared units, `packs × bands` in unit order `pack·bands + b`.
    pub(crate) units: Vec<UnitWeights>,
    sparse_units: usize,
    fallback_units: usize,
}

impl ModelPlan {
    /// Compiles a registered model: plans the partition its weights are
    /// served at ([`HconvServer::guarded`]), then prepares every
    /// output-channel pack's units once, for reuse by every request.
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
    /// Panics if `t` is not `2^l` with `l ≥ 2`, if the backend and the
    /// ring family disagree, or on weight-size mismatches with the shape
    /// (operator-side contract violations).
    pub fn build(spec: ModelSpec) -> Result<ModelPlan, ServeError> {
        let server = HconvServer::new(
            HconvLayer::new(spec.params, spec.shape, spec.truncation),
            spec.backend,
            spec.noise_margin,
        )
        .guarded(&spec.weights)
        .into_owned();
        let mut plan = ModelPlan {
            id: spec.id,
            units: Vec::with_capacity(server.layer().encoder().result_polys()),
            server,
            sparse_units: 0,
            fallback_units: 0,
        };
        for pack in 0..plan.encoder().packs() {
            let (units, counts) = plan.server.prepare_units(&spec.weights, pack)?;
            plan.units.extend(units);
            plan.sparse_units += counts.sparse;
            plan.fallback_units += counts.fallback;
        }
        Ok(plan)
    }

    /// The registered identifier.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The BFV parameters.
    pub fn params(&self) -> &HeParams {
        self.server.layer().params()
    }

    /// The layer shape.
    pub fn shape(&self) -> &ConvShape {
        self.encoder().shape()
    }

    /// The tiling plan.
    pub fn encoder(&self) -> &ConvEncoder {
        self.server.layer().encoder()
    }

    /// The share ring `Z_{2^l}`.
    pub fn ring(&self) -> ShareRing {
        self.server.layer().ring()
    }

    /// The agreed response truncation.
    pub fn truncation(&self) -> Option<(u32, u32)> {
        self.server.layer().truncation()
    }

    /// Ciphertexts per request upload (`groups × bands`).
    pub fn c_polys(&self) -> usize {
        self.encoder().activation_polys()
    }

    /// Result ciphertexts per request (`packs × bands`).
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

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec(params: HeParams, backend: PolyMulBackend) -> ModelSpec {
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
        ModelSpec::new(1, params, shape, backend, weights)
    }

    fn approx() -> PolyMulBackend {
        let mut cfg =
            flash_fft::ApproxFftConfig::uniform(256, flash_math::fixed::FxpFormat::new(18, 34), 30);
        cfg.max_shift = 30;
        PolyMulBackend::approx(cfg)
    }

    fn all_spectral(plan: &ModelPlan) -> bool {
        plan.units
            .iter()
            .all(|u| matches!(u, UnitWeights::Fft(s) if !s.is_empty()))
    }

    #[test]
    fn plan_precomputes_every_unit() {
        // The paper's fixed-point weight transform on q = 2^62: every
        // unit's spectra are prepared once, none falls back.
        let plan = ModelPlan::build(toy_spec(HeParams::pow2_test_256(), approx())).unwrap();
        assert_eq!(plan.units.len(), plan.result_polys());
        assert!(plan.sparse_units() > 0, "toy layer patterns are sparse");
        assert_eq!(plan.fallback_units(), 0);
        assert!(all_spectral(&plan));
    }

    #[test]
    fn ntt_plan_stores_residues() {
        let plan = ModelPlan::build(toy_spec(HeParams::test_256(), PolyMulBackend::Ntt)).unwrap();
        assert_eq!(plan.sparse_units(), 0);
        assert!(plan.units.iter().all(|u| matches!(u, UnitWeights::Ntt(r)
                if !r.w.is_empty() && r.shoup.len() == r.w.len())));
    }

    fn toy_spec_pow2() -> ModelSpec {
        toy_spec(HeParams::pow2_test_256(), PolyMulBackend::Pow2)
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
        assert!(all_spectral(&plan));
    }

    #[test]
    fn pow2_zero_margin_pins_every_unit_to_fallback() {
        let plan = ModelPlan::build(toy_spec_pow2().with_noise_margin(0.0)).unwrap();
        assert_eq!(plan.fallback_units(), plan.result_polys());
    }

    #[test]
    #[should_panic(expected = "power-of-two ciphertext modulus")]
    fn pow2_backend_rejects_prime_ring_at_registration() {
        let caught =
            std::panic::catch_unwind(|| ModelPlan::build(toy_spec(HeParams::test_256(), approx())))
                .expect_err("ApproxFft on a prime ring must panic");
        let msg = caught
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(msg.contains("backend/ring mismatch"), "{msg}");
        let _ = ModelPlan::build(toy_spec(HeParams::test_256(), PolyMulBackend::Pow2));
    }

    #[test]
    fn zero_margin_pins_every_approx_unit_to_fallback() {
        let spec = toy_spec(HeParams::pow2_test_256(), approx()).with_noise_margin(0.0);
        let plan = ModelPlan::build(spec).unwrap();
        assert_eq!(plan.fallback_units(), plan.result_polys());
    }

    #[test]
    fn unsafe_truncation_is_refused_at_registration() {
        let spec = toy_spec(HeParams::test_256(), PolyMulBackend::Ntt).with_truncation(30, 25);
        let err = ModelPlan::build(spec).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Flash(flash_2pc::error::FlashError::He(
                flash_he::HeError::NoiseOverflow { .. }
            ))
        ));
    }
}
