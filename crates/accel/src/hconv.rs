//! Functional homomorphic convolution on the FLASH numerics.
//!
//! Wraps the hybrid HE/2PC protocol with FLASH's approximate-FFT backend
//! and drives arbitrary (stride 1/2, padded) quantized conv layers,
//! reconstructing and validating the secret-shared outputs. This is the
//! bit-level truth the performance model's workloads correspond to.

use crate::config::FlashConfig;
use flash_2pc::error::FlashError;
use flash_2pc::protocol::{ConvProtocol, ProtocolStats};
use flash_2pc::shares::ShareRing;
use flash_2pc::transport::TransportConfig;
use flash_he::encoding::{pad_input, ConvEncoder, ConvShape};
use flash_he::{PolyMulBackend, SecretKey};
use flash_nn::layers::ConvLayerSpec;
use rand::Rng;

/// Output of [`FlashHconv::run_layer_shared`]: the still-secret
/// `(client, server)` share pair of the conv output, plus the
/// protocol's communication and fault statistics.
pub type SharedLayerOutput = ((Vec<u64>, Vec<u64>), ProtocolStats);

/// A functional FLASH HConv engine.
#[derive(Debug, Clone)]
pub struct FlashHconv {
    cfg: FlashConfig,
    backend: PolyMulBackend,
    transport: TransportConfig,
}

impl FlashHconv {
    /// Builds the engine with the configuration's approximate backend: the
    /// paper's fixed-point weight transform, on the power-of-two ring.
    ///
    /// # Panics
    ///
    /// Panics with the "backend/ring mismatch" message on a prime-modulus
    /// configuration ([`PolyMulBackend::assert_ring`]).
    pub fn new(cfg: FlashConfig) -> Self {
        let backend = PolyMulBackend::approx(cfg.numerics.clone());
        Self::with_backend(cfg, backend)
    }

    /// Builds the engine with an explicit backend (e.g. the exact NTT on a
    /// prime-modulus configuration for baseline comparison).
    ///
    /// # Panics
    ///
    /// Panics on a backend/ring mismatch
    /// ([`PolyMulBackend::assert_ring`]).
    pub fn with_backend(cfg: FlashConfig, backend: PolyMulBackend) -> Self {
        backend.assert_ring(&cfg.he);
        Self {
            cfg,
            backend,
            transport: TransportConfig::default(),
        }
    }

    /// Sets the wire configuration of the underlying protocols. See
    /// [`ConvProtocol::with_transport_config`].
    pub fn with_transport_config(mut self, cfg: TransportConfig) -> Self {
        self.transport = cfg;
        self
    }

    fn protocol(&self, shape: ConvShape) -> ConvProtocol {
        ConvProtocol::new(self.cfg.he.clone(), shape, self.backend.clone())
            .with_transport_config(self.transport.clone())
    }

    /// The tiling plan `spec` runs under: the planned partition of its
    /// folded shape ([`flash_2pc::HconvLayer::new`]).
    pub fn encoder(&self, spec: &ConvLayerSpec) -> ConvEncoder {
        self.protocol(spec.encoded_shape()).encoder().clone()
    }

    /// The share ring of the configured plaintext modulus.
    pub fn ring(&self) -> ShareRing {
        ShareRing::new(self.cfg.he.t.trailing_zeros())
    }

    /// Runs one quantized conv layer privately and returns the
    /// reconstructed signed outputs (`m·out_h·out_w`) plus aggregated
    /// protocol statistics: shares `x`, runs
    /// [`Self::run_layer_shared`], reconstructs.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError`] when the underlying protocol fails — wire
    /// recovery exhausted, deserialization/validation rejected a payload,
    /// or the noise guard found an unrecoverable overflow.
    ///
    /// # Panics
    ///
    /// Panics for strides other than 1 or 2 or on size mismatches.
    pub fn run_layer<R: Rng>(
        &self,
        sk: &SecretKey,
        spec: &ConvLayerSpec,
        x: &[i64],
        weights: &[i64],
        rng: &mut R,
    ) -> Result<(Vec<i64>, ProtocolStats), FlashError> {
        assert_eq!(x.len(), spec.c * spec.h * spec.w, "input size mismatch");
        let ring = self.ring();
        let (xc, xs) = ring.share_vec(x, rng);
        let ((yc, ys), stats) = self.run_layer_shared(sk, spec, &xc, &xs, weights, rng)?;
        Ok((ring.reconstruct_vec(&yc, &ys), stats))
    }

    /// Runs one quantized conv layer on an *already secret-shared*
    /// activation and keeps the output secret-shared — the linear stage
    /// of a full private pipeline, where the share pair chains into the
    /// 2PC non-linear layer instead of being reconstructed.
    ///
    /// Both strides take one path: pad each share, fold it
    /// ([`ConvLayerSpec::fold`]: the identity at stride 1, phase channels
    /// at stride 2), run one [`ConvProtocol::run_shared`] round trip over
    /// the folded shape and crop its output to the layer's. Padding and
    /// the fold are pure reindexing, so they apply to each share
    /// independently (`(0, 0)` is a valid share of the zero padding),
    /// and the stride-2 phase sum happens inside the homomorphic channel
    /// accumulation.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::run_layer`].
    ///
    /// # Panics
    ///
    /// Panics for strides other than 1 or 2 or on size mismatches.
    pub fn run_layer_shared<R: Rng>(
        &self,
        sk: &SecretKey,
        spec: &ConvLayerSpec,
        xc: &[u64],
        xs: &[u64],
        weights: &[i64],
        rng: &mut R,
    ) -> Result<SharedLayerOutput, FlashError> {
        let _t = flash_telemetry::span!("hconv.layer");
        assert_eq!(xc.len(), spec.c * spec.h * spec.w, "input size mismatch");
        assert_eq!(xc.len(), xs.len(), "share length mismatch");
        let fold = spec.fold();
        let encode =
            |share: &[u64]| fold.activation(&pad_input(share, spec.c, spec.h, spec.w, spec.pad));
        let proto = self.protocol(fold.shape());
        let (shares, stats) =
            proto.run_shared(sk, &encode(xc), &encode(xs), &fold.kernel(weights), rng)?;
        Ok((
            (fold.crop(&shares.client), fold.crop(&shares.server)),
            stats,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_nn::layers::conv_reference;
    use flash_nn::quant::Quantizer;
    use rand::SeedableRng;

    fn run_and_check(spec: ConvLayerSpec, seed: u64) {
        let cfg = FlashConfig::test_small();
        let engine = FlashHconv::new(cfg.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&cfg.he, &mut rng);
        let x = spec.sample_input(Quantizer::a4(), &mut rng);
        let w = spec.sample_weights(Quantizer::w4(), &mut rng);
        let (got, stats) = engine.run_layer(&sk, &spec, &x, &w, &mut rng).unwrap();
        let ring = engine.ring();
        let want: Vec<i64> = conv_reference(&x, &w, &spec)
            .iter()
            .map(|&v| ring.to_signed(ring.reduce(v)))
            .collect();
        assert_eq!(got, want, "{}", spec.name);
        assert!(stats.upload_bytes > 0);
        assert!(stats.weight_transforms > 0);
    }

    #[test]
    fn stride1_padded_layer_on_flash_numerics() {
        run_and_check(
            ConvLayerSpec {
                name: "s1".into(),
                c: 2,
                h: 6,
                w: 6,
                m: 2,
                k: 3,
                stride: 1,
                pad: 1,
            },
            1,
        );
    }

    #[test]
    fn stride2_layer_on_flash_numerics() {
        run_and_check(
            ConvLayerSpec {
                name: "s2".into(),
                c: 2,
                h: 8,
                w: 8,
                m: 2,
                k: 3,
                stride: 2,
                pad: 1,
            },
            2,
        );
    }

    #[test]
    fn pointwise_1x1_layer() {
        run_and_check(
            ConvLayerSpec {
                name: "pw".into(),
                c: 4,
                h: 5,
                w: 5,
                m: 3,
                k: 1,
                stride: 1,
                pad: 0,
            },
            3,
        );
    }

    #[test]
    fn downsample_1x1_stride2() {
        run_and_check(
            ConvLayerSpec {
                name: "ds".into(),
                c: 2,
                h: 8,
                w: 8,
                m: 4,
                k: 1,
                stride: 2,
                pad: 0,
            },
            4,
        );
    }

    #[test]
    fn folded_stem_matches_reference_on_pow2_ring() {
        // The 7×7/2 stem at the end-to-end operating point: four phase
        // channels per input channel, a 4×4 folded kernel, one round trip.
        let cfg = crate::e2e::e2e_config();
        let spec = ConvLayerSpec {
            name: "conv1".into(),
            c: 3,
            h: 32,
            w: 32,
            m: 8,
            k: 7,
            stride: 2,
            pad: 3,
        };
        let engine = FlashHconv::with_backend(cfg.clone(), PolyMulBackend::Pow2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sk = SecretKey::generate(&cfg.he, &mut rng);
        let x = spec.sample_input(Quantizer::a4(), &mut rng);
        let w = spec.sample_weights(Quantizer::w4(), &mut rng);
        let (got, stats) = engine.run_layer(&sk, &spec, &x, &w, &mut rng).unwrap();
        let ring = engine.ring();
        let want: Vec<i64> = conv_reference(&x, &w, &spec)
            .iter()
            .map(|&v| ring.to_signed(ring.reduce(v)))
            .collect();
        assert_eq!(got, want);
        let enc = engine.encoder(&spec);
        assert_eq!(stats.ciphertexts_up, enc.activation_polys());
        assert_eq!(stats.ciphertexts_down, enc.result_polys());
        assert_eq!(stats.pow2_fallbacks, 0);
    }

    #[test]
    fn approx_backend_agrees_with_ntt_backend() {
        // Each backend on its own ring: the approximate one on
        // `test_small`'s q = 2^62, the exact NTT on the prime `test_256`.
        // Both reconstruct the conv mod t = 2^16.
        let cfg = FlashConfig::test_small();
        let mut prime = cfg.clone();
        prime.he = flash_he::HeParams::test_256();
        let spec = ConvLayerSpec {
            name: "x".into(),
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
            stride: 1,
            pad: 0,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x = spec.sample_input(Quantizer::a4(), &mut rng);
        let w = spec.sample_weights(Quantizer::w4(), &mut rng);

        let approx = FlashHconv::new(cfg.clone());
        let exact = FlashHconv::with_backend(prime.clone(), PolyMulBackend::Ntt);
        let sk_a = SecretKey::generate(&cfg.he, &mut rng);
        let sk_b = SecretKey::generate(&prime.he, &mut rng);
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(6);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(6);
        let (ya, _) = approx.run_layer(&sk_a, &spec, &x, &w, &mut rng_a).unwrap();
        let (yb, _) = exact.run_layer(&sk_b, &spec, &x, &w, &mut rng_b).unwrap();
        assert_eq!(ya, yb);
    }
}
