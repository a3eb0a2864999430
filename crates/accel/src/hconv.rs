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
use flash_he::encoding::{pad_input, stride2_decompose, strided_out_dims, ConvShape};
use flash_he::{PolyMulBackend, SecretKey};
use flash_nn::layers::ConvLayerSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Output of [`FlashHconv::run_layer_shared`]: the still-secret
/// `(client, server)` share pair of the conv output, plus the
/// protocol's communication and fault statistics.
pub type SharedLayerOutput = ((Vec<u64>, Vec<u64>), ProtocolStats);

/// A functional FLASH HConv engine.
#[derive(Debug, Clone)]
pub struct FlashHconv {
    cfg: FlashConfig,
    backend: PolyMulBackend,
    sparse_weights: bool,
    transport: TransportConfig,
    /// Noise-guard margin override; `None` keeps the protocol default
    /// (`FLASH_NOISE_MARGIN` / 1.0).
    noise_margin: Option<f64>,
}

impl FlashHconv {
    /// Builds the engine with the configuration's approximate backend.
    pub fn new(cfg: FlashConfig) -> Self {
        let backend = PolyMulBackend::approx(cfg.numerics.clone());
        Self::with_backend(cfg, backend)
    }

    /// Builds the engine with an explicit backend (e.g. the exact NTT for
    /// baseline comparison).
    pub fn with_backend(cfg: FlashConfig, backend: PolyMulBackend) -> Self {
        Self {
            cfg,
            backend,
            sparse_weights: true,
            transport: TransportConfig::default(),
            noise_margin: None,
        }
    }

    /// Enables or disables the compiled sparse weight-transform path in
    /// the underlying protocols (on by default; outputs are identical
    /// either way). See [`ConvProtocol::with_sparse_weights`].
    pub fn with_sparse_weights(mut self, enabled: bool) -> Self {
        self.sparse_weights = enabled;
        self
    }

    /// Sets the wire configuration of the underlying protocols. See
    /// [`ConvProtocol::with_transport_config`].
    pub fn with_transport_config(mut self, cfg: TransportConfig) -> Self {
        self.transport = cfg;
        self
    }

    /// Overrides the noise-guard margin of the underlying protocols. See
    /// [`ConvProtocol::with_noise_margin`].
    pub fn with_noise_margin(mut self, margin: f64) -> Self {
        self.noise_margin = Some(margin);
        self
    }

    fn protocol(&self, shape: ConvShape) -> ConvProtocol {
        let mut proto = ConvProtocol::new(self.cfg.he.clone(), shape, self.backend.clone())
            .with_sparse_weights(self.sparse_weights)
            .with_transport_config(self.transport.clone());
        if let Some(m) = self.noise_margin {
            proto = proto.with_noise_margin(m);
        }
        proto
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
    /// Padding and the stride-2 phase decomposition are pure reindexing,
    /// so they apply to each share independently (`(0, 0)` is a valid
    /// share of the zero padding); the four stride-2 phase outputs sum
    /// share-wise in the ring.
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
        let as_raw = |share: &[u64]| -> Vec<i64> { share.iter().map(|&v| v as i64).collect() };
        let xc_pad = pad_input(&as_raw(xc), spec.c, spec.h, spec.w, spec.pad);
        let xs_pad = pad_input(&as_raw(xs), spec.c, spec.h, spec.w, spec.pad);
        let back = |v: &[i64]| -> Vec<u64> { v.iter().map(|&x| x as u64).collect() };
        let (hp, wp) = (spec.h + 2 * spec.pad, spec.w + 2 * spec.pad);
        let shape = ConvShape {
            c: spec.c,
            h: hp,
            w: wp,
            m: spec.m,
            k: spec.k,
        };
        match spec.stride {
            1 => {
                let proto = self.protocol(shape);
                let (shares, stats) =
                    proto.run_shared(sk, &back(&xc_pad), &back(&xs_pad), weights, rng)?;
                Ok(((shares.client, shares.server), stats))
            }
            2 => {
                // Decompose each share with the same weights: the phase
                // kernels are identical, only the reindexed activations
                // differ.
                let (sub, parts_c) = stride2_decompose(&xc_pad, weights, &shape);
                let (_, parts_s) = stride2_decompose(&xs_pad, weights, &shape);
                let (oh, ow) = strided_out_dims(hp, wp, spec.k, 2);
                let ring = self.ring();
                let sub_len = spec.m * sub.out_h() * sub.out_w();
                let mut sum_c = vec![0u64; sub_len];
                let mut sum_s = vec![0u64; sub_len];
                let mut stats = ProtocolStats::default();
                let phase_seeds: Vec<u64> = parts_c.iter().map(|_| rng.next_u64()).collect();
                let phase_results = flash_runtime::parallel_gen(parts_c.len(), |i| {
                    let (pxc, fs) = &parts_c[i];
                    let (pxs, _) = &parts_s[i];
                    let proto = self.protocol(sub);
                    let mut phase_rng = StdRng::seed_from_u64(phase_seeds[i]);
                    proto.run_shared(sk, &back(pxc), &back(pxs), fs, &mut phase_rng)
                });
                for phase in phase_results {
                    let (shares, s) = phase?;
                    for (acc, v) in sum_c.iter_mut().zip(&shares.client) {
                        *acc = ring.add(*acc, *v);
                    }
                    for (acc, v) in sum_s.iter_mut().zip(&shares.server) {
                        *acc = ring.add(*acc, *v);
                    }
                    stats = stats.merge(s);
                }
                let mut out_c = vec![0u64; spec.m * oh * ow];
                let mut out_s = vec![0u64; spec.m * oh * ow];
                for oc in 0..spec.m {
                    for p in 0..oh {
                        for q in 0..ow {
                            let dst = (oc * oh + p) * ow + q;
                            let src = (oc * sub.out_h() + p) * sub.out_w() + q;
                            out_c[dst] = sum_c[src];
                            out_s[dst] = sum_s[src];
                        }
                    }
                }
                Ok(((out_c, out_s), stats))
            }
            s => panic!("unsupported stride {s}"),
        }
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
    fn sparse_and_dense_weight_paths_agree_across_strides() {
        let cfg = FlashConfig::test_small();
        for (spec, seed) in [
            (
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
                31,
            ),
            (
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
                32,
            ),
        ] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sk = SecretKey::generate(&cfg.he, &mut rng);
            let x = spec.sample_input(Quantizer::a4(), &mut rng);
            let w = spec.sample_weights(Quantizer::w4(), &mut rng);
            let sparse = FlashHconv::new(cfg.clone());
            let dense = FlashHconv::new(cfg.clone()).with_sparse_weights(false);
            let mut rng_a = rand::rngs::StdRng::seed_from_u64(seed + 100);
            let mut rng_b = rand::rngs::StdRng::seed_from_u64(seed + 100);
            let (ya, sa) = sparse.run_layer(&sk, &spec, &x, &w, &mut rng_a).unwrap();
            let (yb, sb) = dense.run_layer(&sk, &spec, &x, &w, &mut rng_b).unwrap();
            assert_eq!(ya, yb, "{}: sparse path changed outputs", spec.name);
            assert!(
                sa.sparse_weight_transforms > 0,
                "{}: sparse path did not engage",
                spec.name
            );
            assert_eq!(sb.sparse_weight_transforms, 0, "{}", spec.name);
        }
    }

    #[test]
    fn approx_backend_agrees_with_ntt_backend() {
        let cfg = FlashConfig::test_small();
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
        let sk = SecretKey::generate(&cfg.he, &mut rng);
        let x = spec.sample_input(Quantizer::a4(), &mut rng);
        let w = spec.sample_weights(Quantizer::w4(), &mut rng);

        let approx = FlashHconv::new(cfg.clone());
        let exact = FlashHconv::with_backend(cfg.clone(), PolyMulBackend::Ntt);
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(6);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(6);
        let (ya, _) = approx.run_layer(&sk, &spec, &x, &w, &mut rng_a).unwrap();
        let (yb, _) = exact.run_layer(&sk, &spec, &x, &w, &mut rng_b).unwrap();
        assert_eq!(ya, yb);
    }
}
