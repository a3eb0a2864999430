//! End-to-end private inference: HE convolutions, 2PC non-linear layers.
//!
//! This module drives complete quantized networks through the hybrid
//! protocol the rest of the workspace models: every convolution runs
//! homomorphically over additive shares
//! ([`FlashHconv::run_layer_shared`]), every non-linearity — ReLU,
//! re-quantization, pooling, the classifier and the final argmax — runs
//! on the executable 2PC suite ([`NonlinearSession`]), and activations
//! stay secret-shared between the stages. Nothing is ever reconstructed
//! until the argmax reveals the predicted class.
//!
//! Two workloads are wired up:
//!
//! * [`run_synthetic_e2e`] — a [`SyntheticCnn`], whose labels are its
//!   own exact argmax, so private/plaintext agreement is the direct
//!   measure of protocol correctness;
//! * [`run_resnet_e2e`] — a width/resolution-reduced ResNet-18
//!   ([`QuantResnet`]) with the full residual topology from
//!   [`flash_nn::resnet`]: stem, max-pool, identity and projection
//!   shortcuts, global average pooling, classifier, argmax.
//!
//! Every layer reports HE latency/ciphertext bytes and 2PC
//! latency/payload/wire bytes next to the [`NonlinearModel`] prediction
//! for the same element count, so the measured traffic cross-checks the
//! analytical communication model end to end.
//!
//! [`NonlinearModel`]: flash_2pc::NonlinearModel

use std::time::Instant;

use crate::config::FlashConfig;
use crate::hconv::FlashHconv;
use flash_2pc::error::FlashError;
use flash_2pc::nonlinear::exec::{NonlinearSession, NonlinearStats};
use flash_2pc::nonlinear::NonlinearModel;
use flash_2pc::protocol::ProtocolStats;
use flash_2pc::transport::TransportConfig;
use flash_he::{HeParams, PolyMulBackend, SecretKey};
use flash_nn::layers::ConvLayerSpec;
use flash_nn::quant::{Quantizer, Requantizer};
use flash_nn::resnet::QuantResnet;
use flash_nn::synthetic::SyntheticCnn;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The end-to-end operating point: `N = 256` with a power-of-two
/// ciphertext modulus (`q = 2^62`, exact wrapping MAC path) and the
/// paper's `l = 21` share ring, small enough that a full reduced
/// ResNet-18 runs in test time while keeping the paper's plaintext
/// width.
pub fn e2e_config() -> FlashConfig {
    let mut cfg = FlashConfig::test_small();
    cfg.he = HeParams::new_pow2(256, 62, 1 << 21, 3.2);
    cfg
}

/// Options of one end-to-end run.
#[derive(Debug, Clone)]
pub struct E2eOptions {
    /// Inference samples to run (agreement is measured across them).
    pub samples: usize,
    /// Seed for keys, inputs, shares and protocol masks.
    pub seed: u64,
    /// Wire configuration for *both* the HE and the 2PC links (fault
    /// plans propagate to every transport, salted per direction).
    pub transport: TransportConfig,
}

impl Default for E2eOptions {
    fn default() -> Self {
        Self {
            samples: 5,
            seed: 0xf1a5_4e2e,
            transport: TransportConfig::default(),
        }
    }
}

/// Latency and communication of one network layer, summed over samples.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Layer name (conv layers keep their torchvision names).
    pub name: String,
    /// `"conv"`, `"pool"`, `"fc"` or `"argmax"`.
    pub kind: &'static str,
    /// Wall-clock milliseconds in the HE convolution protocol.
    pub he_ms: f64,
    /// Ciphertext bytes both directions (HE upload + download).
    pub he_bytes: u64,
    /// Wall-clock milliseconds in the 2PC non-linear suite.
    pub nonlinear_ms: f64,
    /// 2PC payload bytes both directions, framing excluded.
    pub nonlinear_payload_bytes: u64,
    /// 2PC framed wire bytes, headers/checksums/retransmissions
    /// included.
    pub nonlinear_wire_bytes: u64,
    /// The [`flash_2pc::NonlinearModel`] payload prediction for this
    /// layer's element count.
    pub predicted_bytes: f64,
    /// Elements through the layer's non-linear stage.
    pub elems: u64,
    /// Faulty frames detected (HE + 2PC wires).
    pub faults_detected: u64,
    /// Retransmissions requested (HE + 2PC wires).
    pub frames_retried: u64,
}

/// One end-to-end private-inference report.
#[derive(Debug, Clone)]
pub struct E2eReport {
    /// Network name.
    pub network: String,
    /// Samples run.
    pub samples: usize,
    /// Fraction of samples whose securely-revealed argmax equals the
    /// plaintext reference argmax.
    pub agreement: f64,
    /// Per-layer accounting, summed over all samples.
    pub layers: Vec<LayerReport>,
}

impl E2eReport {
    /// Total HE milliseconds.
    pub fn he_ms(&self) -> f64 {
        self.layers.iter().map(|l| l.he_ms).sum()
    }

    /// Total 2PC milliseconds.
    pub fn nonlinear_ms(&self) -> f64 {
        self.layers.iter().map(|l| l.nonlinear_ms).sum()
    }

    /// Total HE ciphertext bytes.
    pub fn he_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.he_bytes).sum()
    }

    /// Total 2PC payload bytes.
    pub fn nonlinear_payload_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.nonlinear_payload_bytes).sum()
    }

    /// Total 2PC framed wire bytes.
    pub fn nonlinear_wire_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.nonlinear_wire_bytes).sum()
    }

    /// Total predicted 2PC payload bytes.
    pub fn predicted_bytes(&self) -> f64 {
        self.layers.iter().map(|l| l.predicted_bytes).sum()
    }

    /// Faulty frames detected across every wire.
    pub fn faults_detected(&self) -> u64 {
        self.layers.iter().map(|l| l.faults_detected).sum()
    }

    /// Retransmissions across every wire.
    pub fn frames_retried(&self) -> u64 {
        self.layers.iter().map(|l| l.frames_retried).sum()
    }

    /// Measured 2PC payload over the model prediction — the end-to-end
    /// cross-check that the executed traffic tracks the analytical
    /// communication model (the acceptance band is `[0.5, 2]`).
    pub fn byte_model_ratio(&self) -> f64 {
        self.nonlinear_payload_bytes() as f64 / self.predicted_bytes().max(1.0)
    }
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Per-sample execution context: the engine, the session and the report
/// rows this sample produced (merged into the run totals afterwards).
struct SampleCtx<'a> {
    engine: &'a FlashHconv,
    sk: &'a SecretKey,
    session: &'a mut NonlinearSession,
    rng: &'a mut StdRng,
    layers: Vec<LayerReport>,
}

/// Shares of one activation tensor.
type Shares = (Vec<u64>, Vec<u64>);

impl SampleCtx<'_> {
    fn he_conv(
        &mut self,
        spec: &ConvLayerSpec,
        weights: &[i64],
        xc: &[u64],
        xs: &[u64],
    ) -> Result<(Shares, f64, ProtocolStats), FlashError> {
        let t0 = Instant::now();
        let (shares, stats) = self
            .engine
            .run_layer_shared(self.sk, spec, xc, xs, weights, self.rng)?;
        Ok((shares, ms(t0), stats))
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        name: &str,
        kind: &'static str,
        he: Option<(f64, &ProtocolStats)>,
        nl_ms: f64,
        d: &NonlinearStats,
        predicted: f64,
        elems: u64,
    ) {
        let (he_ms, he_bytes, he_faults, he_retries) = match he {
            Some((t, s)) => (
                t,
                (s.upload_bytes + s.download_bytes) as u64,
                s.faults_detected as u64,
                s.frames_retried as u64,
            ),
            None => (0.0, 0, 0, 0),
        };
        self.layers.push(LayerReport {
            name: name.to_string(),
            kind,
            he_ms,
            he_bytes,
            nonlinear_ms: nl_ms,
            nonlinear_payload_bytes: d.payload_bytes,
            nonlinear_wire_bytes: d.wire_bytes,
            predicted_bytes: predicted,
            elems,
            faults_detected: he_faults + d.faults_detected,
            frames_retried: he_retries + d.frames_retried,
        });
    }

    /// One conv layer plus its complete non-linear stage (ReLU +
    /// re-quantization), reported as a single row.
    fn conv_relu_requant(
        &mut self,
        spec: &ConvLayerSpec,
        weights: &[i64],
        rq: Requantizer,
        xc: &[u64],
        xs: &[u64],
    ) -> Result<Shares, FlashError> {
        let ((yc, ys), he_ms, he_stats) = self.he_conv(spec, weights, xc, xs)?;
        let elems = yc.len() as u64;
        let before = self.session.stats();
        let t0 = Instant::now();
        let out = self.session.relu_requant(&yc, &ys, rq, self.rng)?;
        let nl_ms = ms(t0);
        let d = self.session.stats().since(&before);
        let predicted = self.session.model().layer_bytes(elems);
        self.push(
            &spec.name,
            "conv",
            Some((he_ms, &he_stats)),
            nl_ms,
            &d,
            predicted,
            elems,
        );
        Ok(out)
    }
}

/// Bytes one ring element occupies on the wire.
fn elem_bytes(l: u32) -> f64 {
    l.div_ceil(8) as f64
}

/// Payload prediction of a `k×k` max-pool: a pairwise tournament does
/// `k² − 1` compare+select pairs per window.
fn maxpool_predicted(model: &NonlinearModel, windows: usize, k: usize) -> f64 {
    (windows * (k * k - 1)) as f64 * model.relu().bytes_per_elem
}

/// Payload prediction of the secure argmax over `n` logits: `n − 1`
/// tournament pairs of one compare + two selects, plus the two-value
/// index reveal.
fn argmax_predicted(model: &NonlinearModel, n: usize, l: u32) -> f64 {
    (n - 1) as f64 * (model.compare.bytes_per_elem + 2.0 * model.select.bytes_per_elem)
        + 2.0 * elem_bytes(l)
}

/// Runs the synthetic CNN privately for `opts.samples` inputs and
/// reports per-layer cost plus argmax agreement against the exact
/// plaintext reference. The network's task *is* its own exact argmax,
/// so any disagreement is a protocol defect, not model noise.
///
/// # Errors
///
/// Returns [`FlashError`] when the HE protocol or a 2PC primitive fails
/// unrecoverably.
///
/// # Panics
///
/// Panics when `cfg.he.t` is not a power of two (the share ring needs
/// `t = 2^l`) or `opts.samples` is zero.
pub fn run_synthetic_e2e(
    net: &SyntheticCnn,
    cfg: &FlashConfig,
    opts: &E2eOptions,
) -> Result<E2eReport, FlashError> {
    assert!(opts.samples > 0, "need at least one sample");
    let engine = FlashHconv::with_backend(cfg.clone(), PolyMulBackend::Pow2)
        .with_transport_config(opts.transport.clone());
    let ring = engine.ring();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let sk = SecretKey::generate(&cfg.he, &mut rng);
    let mut session = NonlinearSession::new(ring, opts.transport.clone(), opts.seed ^ 0x5e55);
    let model = session.model();
    let aq = Quantizer::a4();

    let mut layers: Vec<LayerReport> = Vec::new();
    let mut agree = 0usize;
    for _ in 0..opts.samples {
        let x: Vec<i64> = (0..net.input_len()).map(|_| aq.sample(&mut rng)).collect();
        let expected = SyntheticCnn::argmax(&net.logits(&x));
        let (mut xc, mut xs) = ring.share_vec(&x, &mut rng);
        let mut ctx = SampleCtx {
            engine: &engine,
            sk: &sk,
            session: &mut session,
            rng: &mut rng,
            layers: Vec::new(),
        };
        for (i, spec) in net.layer_specs().iter().enumerate() {
            (xc, xs) =
                ctx.conv_relu_requant(spec, net.layer_weights(i), net.requantizer(i), &xc, &xs)?;
        }

        let last = net.layer_specs().last().expect("at least one layer");
        let (channels, spatial) = (last.m, last.out_h() * last.out_w());
        let before = ctx.session.stats();
        let t0 = Instant::now();
        let (pc, ps) = ctx
            .session
            .avgpool_global(&xc, &xs, channels, spatial, ctx.rng)?;
        let nl_ms = ms(t0);
        let d = ctx.session.stats().since(&before);
        let predicted = channels as f64 * model.truncation.bytes_per_elem;
        ctx.push(
            "avgpool",
            "pool",
            None,
            nl_ms,
            &d,
            predicted,
            channels as u64,
        );

        let (ni, no) = net.fc_dims();
        let before = ctx.session.stats();
        let t0 = Instant::now();
        let (fc, fs) = ctx
            .session
            .fc(&pc, &ps, net.fc_weights(), ni, no, ctx.rng)?;
        let nl_ms = ms(t0);
        let d = ctx.session.stats().since(&before);
        let predicted = (ni + no) as f64 * elem_bytes(ring.bits());
        ctx.push("fc", "fc", None, nl_ms, &d, predicted, no as u64);

        let before = ctx.session.stats();
        let t0 = Instant::now();
        let idx = ctx.session.argmax(&fc, &fs, ctx.rng)?;
        let nl_ms = ms(t0);
        let d = ctx.session.stats().since(&before);
        let predicted = argmax_predicted(&model, no, ring.bits());
        ctx.push("argmax", "argmax", None, nl_ms, &d, predicted, no as u64);

        if idx == expected {
            agree += 1;
        }
        merge_layers(&mut layers, ctx.layers);
    }
    Ok(E2eReport {
        network: "synthetic-cnn".into(),
        samples: opts.samples,
        agreement: agree as f64 / opts.samples as f64,
        layers,
    })
}

/// Runs a reduced ResNet-18 privately end to end — stem, max-pool,
/// every residual block (identity and projection shortcuts over
/// shares), global average pooling, classifier, secure argmax — and
/// reports per-layer cost plus agreement with the plaintext reference.
///
/// # Errors
///
/// Returns [`FlashError`] when the HE protocol or a 2PC primitive fails
/// unrecoverably.
///
/// # Panics
///
/// Panics when `cfg.he.t` is not a power of two or `opts.samples` is
/// zero.
pub fn run_resnet_e2e(
    net: &QuantResnet,
    cfg: &FlashConfig,
    opts: &E2eOptions,
) -> Result<E2eReport, FlashError> {
    assert!(opts.samples > 0, "need at least one sample");
    let engine = FlashHconv::with_backend(cfg.clone(), PolyMulBackend::Pow2)
        .with_transport_config(opts.transport.clone());
    let ring = engine.ring();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let sk = SecretKey::generate(&cfg.he, &mut rng);
    let mut session = NonlinearSession::new(ring, opts.transport.clone(), opts.seed ^ 0x18e5);
    let model = session.model();
    let aq = Quantizer::a4();

    let mut layers: Vec<LayerReport> = Vec::new();
    let mut agree = 0usize;
    for _ in 0..opts.samples {
        let x: Vec<i64> = (0..net.input_len()).map(|_| aq.sample(&mut rng)).collect();
        let expected = SyntheticCnn::argmax(&net.logits(&x));
        let (mut xc, mut xs) = ring.share_vec(&x, &mut rng);
        let mut ctx = SampleCtx {
            engine: &engine,
            sk: &sk,
            session: &mut session,
            rng: &mut rng,
            layers: Vec::new(),
        };

        // Stem conv + ReLU + requant, then the 3×3/2 max-pool.
        (xc, xs) =
            ctx.conv_relu_requant(&net.stem.spec, &net.stem.weights, net.stem.rq, &xc, &xs)?;
        let (mut c, mut h, mut w) = (
            net.stem.spec.m,
            net.stem.spec.out_h(),
            net.stem.spec.out_w(),
        );
        let (pk, pstride, ppad) = net.pool;
        let before = ctx.session.stats();
        let t0 = Instant::now();
        (xc, xs) = ctx
            .session
            .maxpool(&xc, &xs, (c, h, w), pk, pstride, ppad, ctx.rng)?;
        let nl_ms = ms(t0);
        let d = ctx.session.stats().since(&before);
        h = (h + 2 * ppad - pk) / pstride + 1;
        w = (w + 2 * ppad - pk) / pstride + 1;
        let windows = c * h * w;
        let predicted = maxpool_predicted(&model, windows, pk);
        ctx.push(
            "maxpool",
            "pool",
            None,
            nl_ms,
            &d,
            predicted,
            windows as u64,
        );

        for b in &net.blocks {
            // Residual branch: conv1 + ReLU + requant, then conv2 whose
            // requant/ReLU straddle the shortcut add.
            let (tc, ts) =
                ctx.conv_relu_requant(&b.conv1.spec, &b.conv1.weights, b.conv1.rq, &xc, &xs)?;
            let ((y2c, y2s), he2_ms, he2_stats) =
                ctx.he_conv(&b.conv2.spec, &b.conv2.weights, &tc, &ts)?;
            let elems = y2c.len() as u64;

            // Shortcut: 1×1 projection (conv + requant, no ReLU) on
            // stage boundaries, the identity shares otherwise.
            let (sc, ss) = match &b.down {
                Some(dunit) => {
                    let ((ydc, yds), hed_ms, hed_stats) =
                        ctx.he_conv(&dunit.spec, &dunit.weights, &xc, &xs)?;
                    let before = ctx.session.stats();
                    let t0 = Instant::now();
                    let out = ctx.session.requant(&ydc, &yds, dunit.rq, ctx.rng)?;
                    let nl_ms = ms(t0);
                    let dd = ctx.session.stats().since(&before);
                    let predicted = ydc.len() as f64 * model.truncation.bytes_per_elem;
                    ctx.push(
                        &dunit.spec.name,
                        "conv",
                        Some((hed_ms, &hed_stats)),
                        nl_ms,
                        &dd,
                        predicted,
                        ydc.len() as u64,
                    );
                    out
                }
                None => (xc.clone(), xs.clone()),
            };

            // conv2 requant, shortcut add (local on shares), ReLU.
            let before = ctx.session.stats();
            let t0 = Instant::now();
            let (zc, zs) = ctx.session.requant(&y2c, &y2s, b.conv2.rq, ctx.rng)?;
            let sum_c: Vec<u64> = zc.iter().zip(&sc).map(|(&a, &b)| ring.add(a, b)).collect();
            let sum_s: Vec<u64> = zs.iter().zip(&ss).map(|(&a, &b)| ring.add(a, b)).collect();
            (xc, xs) = ctx.session.relu(&sum_c, &sum_s, ctx.rng)?;
            let nl_ms = ms(t0);
            let d = ctx.session.stats().since(&before);
            let predicted =
                elems as f64 * (model.truncation.bytes_per_elem + model.relu().bytes_per_elem);
            ctx.push(
                &b.conv2.spec.name,
                "conv",
                Some((he2_ms, &he2_stats)),
                nl_ms,
                &d,
                predicted,
                elems,
            );
            (c, h, w) = (b.conv2.spec.m, b.conv2.spec.out_h(), b.conv2.spec.out_w());
        }

        let spatial = h * w;
        let before = ctx.session.stats();
        let t0 = Instant::now();
        let (pc, ps) = ctx.session.avgpool_global(&xc, &xs, c, spatial, ctx.rng)?;
        let nl_ms = ms(t0);
        let d = ctx.session.stats().since(&before);
        let predicted = c as f64 * model.truncation.bytes_per_elem;
        ctx.push("avgpool", "pool", None, nl_ms, &d, predicted, c as u64);

        let (ni, no) = net.fc;
        let before = ctx.session.stats();
        let t0 = Instant::now();
        let (fc, fs) = ctx.session.fc(&pc, &ps, &net.fc_weights, ni, no, ctx.rng)?;
        let nl_ms = ms(t0);
        let d = ctx.session.stats().since(&before);
        let predicted = (ni + no) as f64 * elem_bytes(ring.bits());
        ctx.push("fc", "fc", None, nl_ms, &d, predicted, no as u64);

        let before = ctx.session.stats();
        let t0 = Instant::now();
        let idx = ctx.session.argmax(&fc, &fs, ctx.rng)?;
        let nl_ms = ms(t0);
        let d = ctx.session.stats().since(&before);
        let predicted = argmax_predicted(&model, no, ring.bits());
        ctx.push("argmax", "argmax", None, nl_ms, &d, predicted, no as u64);

        if idx == expected {
            agree += 1;
        }
        merge_layers(&mut layers, ctx.layers);
    }
    Ok(E2eReport {
        network: net.name.clone(),
        samples: opts.samples,
        agreement: agree as f64 / opts.samples as f64,
        layers,
    })
}

/// Merges one sample's layer rows into the run totals (the layer
/// sequence is identical every sample).
fn merge_layers(total: &mut Vec<LayerReport>, sample: Vec<LayerReport>) {
    if total.is_empty() {
        *total = sample;
        return;
    }
    assert_eq!(total.len(), sample.len(), "layer sequence must be stable");
    for (t, s) in total.iter_mut().zip(sample) {
        assert_eq!(t.name, s.name, "layer sequence must be stable");
        t.he_ms += s.he_ms;
        t.he_bytes += s.he_bytes;
        t.nonlinear_ms += s.nonlinear_ms;
        t.nonlinear_payload_bytes += s.nonlinear_payload_bytes;
        t.nonlinear_wire_bytes += s.nonlinear_wire_bytes;
        t.predicted_bytes += s.predicted_bytes;
        t.elems += s.elems;
        t.faults_detected += s.faults_detected;
        t.frames_retried += s.frames_retried;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_2pc::transport::{FaultConfig, FaultPlan};

    fn tiny_net(rng: &mut StdRng) -> SyntheticCnn {
        let spec = |name: &str, c: usize, m: usize| ConvLayerSpec {
            name: name.into(),
            c,
            h: 6,
            w: 6,
            m,
            k: 3,
            stride: 1,
            pad: 1,
        };
        SyntheticCnn::generate(vec![spec("conv1", 2, 4), spec("conv2", 4, 4)], 5, rng)
    }

    #[test]
    fn synthetic_private_inference_matches_plaintext() {
        let mut rng = StdRng::seed_from_u64(21);
        let net = tiny_net(&mut rng);
        let opts = E2eOptions {
            samples: 3,
            ..E2eOptions::default()
        };
        let report = run_synthetic_e2e(&net, &e2e_config(), &opts).expect("e2e run");
        assert_eq!(report.agreement, 1.0, "exact protocol must agree");
        // 2 convs + avgpool + fc + argmax
        assert_eq!(report.layers.len(), 5);
        assert!(report.he_ms() > 0.0 && report.nonlinear_ms() > 0.0);
        assert!(report.he_bytes() > 0);
        let ratio = report.byte_model_ratio();
        assert!(
            (0.5..=2.0).contains(&ratio),
            "measured/predicted bytes ratio {ratio}"
        );
    }

    #[test]
    fn synthetic_e2e_survives_chaos_wire() {
        let mut rng = StdRng::seed_from_u64(22);
        let net = tiny_net(&mut rng);
        let opts = E2eOptions {
            samples: 1,
            transport: TransportConfig::faulty(FaultPlan::Random(FaultConfig::moderate(77))),
            ..E2eOptions::default()
        };
        let clean = run_synthetic_e2e(
            &net,
            &e2e_config(),
            &E2eOptions {
                samples: 1,
                ..E2eOptions::default()
            },
        )
        .expect("clean run");
        let chaos = run_synthetic_e2e(&net, &e2e_config(), &opts).expect("chaos run");
        assert!(chaos.faults_detected() > 0, "chaos plan must inject");
        assert!(chaos.frames_retried() > 0, "recovery must retransmit");
        // recovery is exact: the chaotic wire changes nothing observable
        assert_eq!(chaos.agreement, 1.0);
        assert_eq!(clean.agreement, 1.0);
    }

    #[test]
    fn resnet18_private_counts_are_the_encoded_shape_plans() {
        // The benchmark's network: every conv, stride 2 included, is one
        // round trip whose ciphertext counts are the plan of its
        // `encoded_shape` — the shape the workload model counts too.
        let cfg = e2e_config();
        let mut rng = StdRng::seed_from_u64(24);
        let net = QuantResnet::reduced_resnet18(8, 32, 10, &mut rng);
        let engine = FlashHconv::with_backend(cfg.clone(), PolyMulBackend::Pow2);
        let ring = engine.ring();
        let sk = SecretKey::generate(&cfg.he, &mut rng);
        let (mut up, mut down, mut fallbacks) = (0, 0, 0);
        for unit in net.units_in_order() {
            let spec = &unit.spec;
            let x = spec.sample_input(Quantizer::a4(), &mut rng);
            let (xc, xs) = ring.share_vec(&x, &mut rng);
            let ((yc, ys), stats) = engine
                .run_layer_shared(&sk, spec, &xc, &xs, &unit.weights, &mut rng)
                .expect("conv layer");
            let want: Vec<i64> = flash_nn::layers::conv_reference(&x, &unit.weights, spec)
                .iter()
                .map(|&v| ring.to_signed(ring.reduce(v)))
                .collect();
            assert_eq!(ring.reconstruct_vec(&yc, &ys), want, "{}", spec.name);
            let enc = flash_he::encoding::ConvEncoder::new(spec.encoded_shape(), cfg.he.n);
            assert_eq!(
                (stats.ciphertexts_up, stats.ciphertexts_down),
                (enc.activation_polys(), enc.result_polys()),
                "{}",
                spec.name
            );
            up += stats.ciphertexts_up;
            down += stats.ciphertexts_down;
            fallbacks += stats.pow2_fallbacks;
        }
        assert_eq!((up, down, fallbacks), (76, 608, 0));
    }

    #[test]
    fn resnet_reduced_private_inference_matches_plaintext() {
        let mut rng = StdRng::seed_from_u64(23);
        let net = QuantResnet::reduced_resnet18(16, 16, 8, &mut rng);
        let opts = E2eOptions {
            samples: 1,
            ..E2eOptions::default()
        };
        let report = run_resnet_e2e(&net, &e2e_config(), &opts).expect("e2e run");
        assert_eq!(report.agreement, 1.0, "exact protocol must agree");
        // 20 convs + maxpool + avgpool + fc + argmax
        assert_eq!(report.layers.len(), 24);
        assert_eq!(report.layers[0].name, "conv1");
        assert_eq!(report.layers[1].name, "maxpool");
        let ratio = report.byte_model_ratio();
        assert!(
            (0.5..=2.0).contains(&ratio),
            "measured/predicted bytes ratio {ratio}"
        );
        // every conv row carries both HE and 2PC traffic
        for l in report.layers.iter().filter(|l| l.kind == "conv") {
            assert!(l.he_bytes > 0, "{}", l.name);
            assert!(l.nonlinear_payload_bytes > 0, "{}", l.name);
        }
    }
}
