//! End-to-end private inference: HE convolutions, 2PC non-linear layers.
//!
//! This module is the private interpreter of a [`Program`], the op list
//! [`flash_nn::program`] builds from a network: every convolution runs
//! homomorphically over additive shares
//! ([`FlashHconv::run_layer_shared`]), every non-linearity — ReLU,
//! re-quantization, the residual add, pooling, the classifier and the
//! final argmax — runs on the executable 2PC suite
//! ([`NonlinearSession`]), and activations stay secret-shared between the
//! stages. Nothing is ever reconstructed until the argmax reveals the
//! predicted class. The plaintext interpreter, [`Program::logits`], walks
//! the same list for the reference argmax.
//!
//! * [`run_program_e2e`] runs any program, e.g. a
//!   [`SyntheticCnn::program`], whose labels are the network's own exact
//!   argmax, so private/plaintext agreement is the direct measure of
//!   protocol correctness;
//! * [`run_resnet_e2e`] runs [`QuantResnet::program`]: a
//!   width/resolution-reduced ResNet-18 with the full residual topology
//!   from [`flash_nn::resnet`] — stem, max-pool, identity and projection
//!   shortcuts, global average pooling, classifier.
//!
//! Every op reports HE latency/ciphertext bytes and 2PC
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
use flash_nn::program::{Op, Program, Stage, ValueId};
use flash_nn::quant::Quantizer;
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

/// Shares of one activation tensor.
type Shares = (Vec<u64>, Vec<u64>);

/// Bytes one ring element occupies on the wire.
fn elem_bytes(l: u32) -> f64 {
    l.div_ceil(8) as f64
}

/// The [`NonlinearModel`] payload prediction of an op's 2PC stage.
trait PredictedBytes {
    /// Predicted payload bytes when the stage writes `elems` elements.
    fn predicted_bytes(&self, model: &NonlinearModel, elems: u64) -> f64;
}

impl PredictedBytes for Op<'_> {
    fn predicted_bytes(&self, model: &NonlinearModel, elems: u64) -> f64 {
        let (relu, trunc) = (model.relu().bytes_per_elem, model.truncation.bytes_per_elem);
        match self {
            Op::Conv(c) => match c.stage {
                Stage::Requant => elems as f64 * trunc,
                Stage::ReluRequant | Stage::RequantAddRelu(_) => elems as f64 * (relu + trunc),
            },
            // a pairwise tournament: k² − 1 compare+select pairs a window
            Op::MaxPool {
                window: (k, _, _), ..
            } => (elems * (k * k - 1) as u64) as f64 * relu,
            Op::AvgPool { .. } => elems as f64 * trunc,
            Op::Fc { dims: (ni, no), .. } => (ni + no) as f64 * elem_bytes(model.share_bits),
        }
    }
}

/// One report row: an op's (or the argmax's) HE and 2PC accounting.
fn row(
    name: &str,
    kind: &'static str,
    he: Option<(f64, ProtocolStats)>,
    nonlinear_ms: f64,
    d: &NonlinearStats,
    predicted_bytes: f64,
    elems: u64,
) -> LayerReport {
    let (he_ms, he_bytes, he_faults, he_retries) = match he {
        Some((t, s)) => (
            t,
            (s.upload_bytes + s.download_bytes) as u64,
            s.faults_detected as u64,
            s.frames_retried as u64,
        ),
        None => (0.0, 0, 0, 0),
    };
    LayerReport {
        name: name.to_string(),
        kind,
        he_ms,
        he_bytes,
        nonlinear_ms,
        nonlinear_payload_bytes: d.payload_bytes,
        nonlinear_wire_bytes: d.wire_bytes,
        predicted_bytes,
        elems,
        faults_detected: he_faults + d.faults_detected,
        frames_retried: he_retries + d.frames_retried,
    }
}

/// The shares of value `v`.
fn read(values: &[Option<Shares>], v: ValueId) -> (&[u64], &[u64]) {
    let (c, s) = values[v]
        .as_ref()
        .expect("a value is read after its last reader");
    (c, s)
}

/// The private interpreter: runs `program` for `opts.samples` random
/// inputs with every convolution under HE and every non-linear stage,
/// pooling, the classifier and a final argmax under 2PC, and reports one
/// row per op (plus the argmax) and the argmax agreement with the
/// plaintext interpreter, [`Program::logits`], on the same inputs. The
/// plaintext side is exact, so any disagreement is a protocol defect.
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
pub fn run_program_e2e(
    program: &Program,
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
    // Each value's shares are dropped after the op that reads them last.
    let mut last_read = vec![usize::MAX; program.ops.len() + 1];
    for (i, op) in program.ops.iter().enumerate() {
        for v in op.reads() {
            last_read[v] = i;
        }
    }

    let mut layers: Vec<LayerReport> = Vec::new();
    let mut agree = 0usize;
    for _ in 0..opts.samples {
        let x: Vec<i64> = (0..program.input_len())
            .map(|_| aq.sample(&mut rng))
            .collect();
        let expected = SyntheticCnn::argmax(&program.logits(&x));
        let mut values = vec![Some(ring.share_vec(&x, &mut rng))];
        let mut rows = Vec::with_capacity(program.ops.len() + 1);
        for (i, op) in program.ops.iter().enumerate() {
            let (xc, xs) = read(&values, op.input());
            let before = session.stats();
            let mut t0 = Instant::now();
            let mut he = None;
            let out = match op {
                Op::Conv(conv) => {
                    let ((yc, ys), stats) =
                        engine.run_layer_shared(&sk, conv.spec, xc, xs, conv.weights, &mut rng)?;
                    he = Some((ms(t0), stats));
                    t0 = Instant::now();
                    match conv.stage {
                        Stage::ReluRequant => session.relu_requant(&yc, &ys, conv.rq, &mut rng)?,
                        Stage::Requant => session.requant(&yc, &ys, conv.rq, &mut rng)?,
                        Stage::RequantAddRelu(v) => {
                            // the shortcut add is local on shares
                            let (zc, zs) = session.requant(&yc, &ys, conv.rq, &mut rng)?;
                            let (sc, ss) = read(&values, v);
                            let add = |z: &[u64], s: &[u64]| -> Vec<u64> {
                                z.iter().zip(s).map(|(&a, &b)| ring.add(a, b)).collect()
                            };
                            session.relu(&add(&zc, sc), &add(&zs, ss), &mut rng)?
                        }
                    }
                }
                &Op::MaxPool {
                    shape,
                    window: (k, stride, pad),
                    ..
                } => session.maxpool(xc, xs, shape, k, stride, pad, &mut rng)?,
                &Op::AvgPool {
                    channels, spatial, ..
                } => session.avgpool_global(xc, xs, channels, spatial, &mut rng)?,
                &Op::Fc {
                    weights,
                    dims: (ni, no),
                    ..
                } => session.fc(xc, xs, weights, ni, no, &mut rng)?,
            };
            let nl_ms = ms(t0);
            let d = session.stats().since(&before);
            let elems = out.0.len() as u64;
            let predicted = op.predicted_bytes(&model, elems);
            rows.push(row(op.name(), op.kind(), he, nl_ms, &d, predicted, elems));
            for v in op.reads().filter(|&v| last_read[v] == i) {
                values[v] = None;
            }
            values.push(Some(out));
        }

        // The secure argmax over the logits reveals only the class: n − 1
        // tournament pairs of one compare and two selects, plus the
        // two-value index reveal.
        let (lc, ls) = values
            .pop()
            .flatten()
            .expect("the logits are the last value");
        let before = session.stats();
        let t0 = Instant::now();
        let idx = session.argmax(&lc, &ls, &mut rng)?;
        let nl_ms = ms(t0);
        let d = session.stats().since(&before);
        let n = lc.len();
        let predicted = (n - 1) as f64
            * (model.compare.bytes_per_elem + 2.0 * model.select.bytes_per_elem)
            + 2.0 * elem_bytes(model.share_bits);
        rows.push(row(
            "argmax", "argmax", None, nl_ms, &d, predicted, n as u64,
        ));

        if idx == expected {
            agree += 1;
        }
        merge_layers(&mut layers, rows);
    }
    Ok(E2eReport {
        network: program.name.to_string(),
        samples: opts.samples,
        agreement: agree as f64 / opts.samples as f64,
        layers,
    })
}

/// Runs a reduced ResNet-18 privately end to end — stem, max-pool,
/// every residual block (identity and projection shortcuts over
/// shares), global average pooling, classifier, secure argmax — and
/// reports per-layer cost plus agreement with the plaintext reference:
/// [`run_program_e2e`] over [`QuantResnet::program`].
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
    run_program_e2e(&net.program(), cfg, opts)
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
    use flash_he::serialize::response_len;
    use flash_nn::layers::ConvLayerSpec;

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
        let report = run_program_e2e(&net.program(), &e2e_config(), &opts).expect("e2e run");
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
        let clean = run_program_e2e(
            &net.program(),
            &e2e_config(),
            &E2eOptions {
                samples: 1,
                ..E2eOptions::default()
            },
        )
        .expect("clean run");
        let chaos = run_program_e2e(&net.program(), &e2e_config(), &opts).expect("chaos run");
        assert!(chaos.faults_detected() > 0, "chaos plan must inject");
        assert!(chaos.frames_retried() > 0, "recovery must retransmit");
        // recovery is exact: the chaotic wire changes nothing observable
        assert_eq!(chaos.agreement, 1.0);
        assert_eq!(clean.agreement, 1.0);
    }

    /// The deterministic columns of every report row: name, kind, HE
    /// bytes, 2PC payload and wire bytes, predicted bytes, elements.
    fn pinned_columns(report: &E2eReport) -> Vec<String> {
        report
            .layers
            .iter()
            .map(|l| {
                format!(
                    "{} {} {} {} {} {} {}",
                    l.name,
                    l.kind,
                    l.he_bytes,
                    l.nonlinear_payload_bytes,
                    l.nonlinear_wire_bytes,
                    l.predicted_bytes,
                    l.elems
                )
            })
            .collect()
    }

    /// One clean private run of a synthetic CNN.
    fn synthetic_e2e(net: &SyntheticCnn, opts: &E2eOptions) -> E2eReport {
        run_program_e2e(&net.program(), &e2e_config(), opts).expect("e2e run")
    }

    #[test]
    fn tiny_net_report_rows_match_their_pins() {
        let mut rng = StdRng::seed_from_u64(21);
        let net = tiny_net(&mut rng);
        let opts = E2eOptions {
            samples: 1,
            ..E2eOptions::default()
        };
        let report = synthetic_e2e(&net, &opts);
        assert_eq!(report.agreement, 1.0);
        assert_eq!(pinned_columns(&report), TINY_NET_ROWS);
    }

    #[test]
    fn resnet18_report_rows_match_their_pins() {
        let mut rng = StdRng::seed_from_u64(24);
        let net = QuantResnet::reduced_resnet18(8, 32, 10, &mut rng);
        let opts = E2eOptions {
            samples: 1,
            ..E2eOptions::default()
        };
        let report = run_resnet_e2e(&net, &e2e_config(), &opts).expect("e2e run");
        assert_eq!(report.agreement, 1.0);
        assert_eq!(pinned_columns(&report), RESNET18_ROWS);
    }

    const TINY_NET_ROWS: [&str; 5] = [
        "conv1 conv 4560 3536 3760 3402 144",
        "conv2 conv 6608 3536 3760 3402 144",
        "avgpool pool 0 32 64 31.5 4",
        "fc fc 0 27 59 27 5",
        "argmax argmax 0 130 834 90 5",
    ];

    const RESNET18_ROWS: [&str; 24] = [
        "conv1 conv 72448 50182 50406 48384 2048",
        "maxpool pool 0 68118 68886 64512 512",
        "layer1.0.conv1 conv 18048 12548 12772 12096 512",
        "layer1.0.conv2 conv 18048 12548 12772 12096 512",
        "layer1.1.conv1 conv 18048 12548 12772 12096 512",
        "layer1.1.conv2 conv 18048 12548 12772 12096 512",
        "layer2.0.conv1 conv 23520 6274 6498 6048 256",
        "layer2.0.downsample conv 9024 2016 2048 2016 256",
        "layer2.0.conv2 conv 21440 6274 6498 6048 256",
        "layer2.1.conv1 conv 21440 6274 6498 6048 256",
        "layer2.1.conv2 conv 21440 6274 6498 6048 256",
        "layer3.0.conv1 conv 27168 3142 3366 3024 128",
        "layer3.0.downsample conv 8640 1008 1040 1008 128",
        "layer3.0.conv2 conv 25088 3142 3366 3024 128",
        "layer3.1.conv1 conv 25088 3142 3366 3024 128",
        "layer3.1.conv2 conv 25088 3142 3366 3024 128",
        "layer4.0.conv1 conv 33216 1576 1800 1512 64",
        "layer4.0.downsample conv 8448 504 536 504 64",
        "layer4.0.conv2 conv 37376 1576 1800 1512 64",
        "layer4.1.conv1 conv 37376 1576 1800 1512 64",
        "layer4.1.conv2 conv 37376 1576 1800 1512 64",
        "avgpool pool 0 504 536 504 64",
        "fc fc 0 222 254 222 10",
        "argmax argmax 0 252 1180 195 10",
    ];

    /// One conv unit of the benchmark network, as
    /// [`resnet18_private_units`] ran it.
    struct UnitRun {
        name: String,
        enc: flash_he::encoding::ConvEncoder,
        shares: (Vec<u64>, Vec<u64>),
        stats: ProtocolStats,
    }

    /// Runs every conv unit of the benchmark network (seed 24) once on
    /// the power-of-two ring, checking each reconstruction against the
    /// plaintext convolution.
    fn resnet18_private_units() -> Vec<UnitRun> {
        let cfg = e2e_config();
        let mut rng = StdRng::seed_from_u64(24);
        let net = QuantResnet::reduced_resnet18(8, 32, 10, &mut rng);
        let engine = FlashHconv::with_backend(cfg.clone(), PolyMulBackend::Pow2);
        let ring = engine.ring();
        let sk = SecretKey::generate(&cfg.he, &mut rng);
        net.units_in_order()
            .into_iter()
            .map(|unit| {
                let spec = &unit.spec;
                let x = spec.sample_input(Quantizer::a4(), &mut rng);
                let (xc, xs) = ring.share_vec(&x, &mut rng);
                let (shares, stats) = engine
                    .run_layer_shared(&sk, spec, &xc, &xs, &unit.weights, &mut rng)
                    .expect("conv layer");
                let want: Vec<i64> = flash_nn::layers::conv_reference(&x, &unit.weights, spec)
                    .iter()
                    .map(|&v| ring.to_signed(ring.reduce(v)))
                    .collect();
                assert_eq!(
                    ring.reconstruct_vec(&shares.0, &shares.1),
                    want,
                    "{}",
                    spec.name
                );
                UnitRun {
                    name: spec.name.clone(),
                    enc: engine.encoder(spec),
                    shares,
                    stats,
                }
            })
            .collect()
    }

    #[test]
    fn resnet18_private_counts_are_the_encoded_shape_plans() {
        // The benchmark's network: every conv, stride 2 included, is one
        // round trip whose ciphertext counts are the planned partition of
        // its `encoded_shape` — the shape the workload model counts too.
        // An upload is all of `c0` at 8 bytes a value on `q = 2^62` plus
        // the 32-byte seed of `c1 = a`. A response carries `c0` at its
        // unit's output coefficients and all of `c1` at the planned
        // (38, 30): ⌈(62 − 38)/8⌉ = 3 bytes a `c0` value and
        // ⌈(62 − 30)/8⌉ = 4 a `c1` one — `response_len`, the width rule
        // the decoder checks against and the planner prices with.
        let he = e2e_config().he;
        let n = he.n;
        let planned = Some(flash_he::truncate::planned_truncation(&he));
        let (mut up, mut down, mut fallbacks) = (0, 0, 0);
        let (mut up_bytes, mut down_bytes, mut want_down) = (0, 0, 0);
        for run in resnet18_private_units() {
            let (enc, stats) = (&run.enc, &run.stats);
            assert_eq!(
                (stats.ciphertexts_up, stats.ciphertexts_down),
                (enc.activation_polys(), enc.result_polys()),
                "{}",
                run.name
            );
            up += stats.ciphertexts_up;
            down += stats.ciphertexts_down;
            fallbacks += stats.pow2_fallbacks;
            up_bytes += stats.upload_bytes;
            down_bytes += stats.download_bytes;
            want_down += (0..enc.result_polys())
                .map(|u| {
                    let p = enc.unit_output_range(u).len();
                    assert_eq!(enc.unit_positions(u).count(), p);
                    assert_eq!(response_len(n, he.q, p, planned), p * 3 + n * 4);
                    response_len(n, he.q, p, planned)
                })
                .sum::<usize>();
        }
        assert_eq!((up, down, fallbacks), (126, 220, 0));
        assert_eq!(up_bytes, up * (n * 8 + 32));
        assert_eq!(down_bytes, want_down);
        assert_eq!((up_bytes, down_bytes), (262_080, 244_288));
    }

    #[test]
    fn resnet18_planned_truncation_keeps_a_bit_of_headroom() {
        // Every conv unit of the benchmark network at the planned pair on
        // the power-of-two ring: no unit falls back, and each unit's
        // composed bound — exact chain + f64 rounding + truncation —
        // stays at least one bit below q/(2t).
        use flash_2pc::ConvProtocol;
        let he = e2e_config().he;
        let planned = flash_he::truncate::planned_truncation(&he);
        assert_eq!(planned, (38, 30));
        let mut rng = StdRng::seed_from_u64(24);
        let net = QuantResnet::reduced_resnet18(8, 32, 10, &mut rng);
        let mut units = 0;
        for unit in net.units_in_order() {
            let fold = unit.spec.fold();
            let (shape, kernel) = (fold.shape(), fold.kernel(&unit.weights));
            let proto = ConvProtocol::new(he.clone(), shape, PolyMulBackend::Pow2);
            let plan = proto.server().plan(&kernel).expect("guard");
            let server = &plan.server;
            assert_eq!(server.layer().truncation(), Some(planned));
            let enc = server.layer().encoder();
            for pack in 0..enc.packs() {
                let (_, counts) = server.prepare_units(&kernel, pack, plan.fallback[pack]);
                assert_eq!(counts.fallback, 0, "{} pack={pack}", unit.spec.name);
                let ledger = &plan.ledgers[pack];
                let composed = ledger.exact
                    + ledger.truncation
                    + ledger.approx.expect("Pow2 has an error model");
                assert!(
                    composed.log2() <= ledger.ceiling.log2() - 1.0,
                    "{} pack={pack}: 2^{:.2} vs ceiling 2^{:.2}",
                    unit.spec.name,
                    composed.log2(),
                    ledger.ceiling.log2()
                );
                assert!(ledger.headroom_bits() >= 1.0);
                units += enc.bands();
            }
        }
        assert!(units > 0);
    }

    /// The guard's pricing from the encoded polynomials, kept as the
    /// reference for [`flash_he::encoding::ConvEncoder::pack_norms`]:
    /// band `b`'s exact-pipeline bound plus truncation, and `Σw²`, summed
    /// in `f64` over every coefficient of every group's polynomial — fresh
    /// `6σ`, `+1` share fold, `× ℓ1 + ℓ1` per group, `+1` mask, then
    /// `2^{d0−1} + 2^{d1−1}·N`.
    fn polynomial_noise_bound(
        params: &flash_he::HeParams,
        w_polys: &[Vec<Vec<i64>>],
        b: usize,
        truncation: Option<(u32, u32)>,
    ) -> (f64, f64) {
        let base = 6.0 * params.noise_std() + 1.0;
        let mut acc: Option<f64> = None;
        let mut w_sq = 0.0;
        for w_poly in w_polys {
            let band = &w_poly[b];
            let l1: f64 = band.iter().map(|&v| (v as f64).abs()).sum();
            w_sq += band.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
            let nb = base * l1 + l1;
            acc = Some(acc.map_or(nb, |a| a + nb));
        }
        let mut bound = acc.unwrap_or(base) + 1.0;
        if let Some((d0, d1)) = truncation {
            let pow = |d: u32| {
                if d == 0 {
                    0.0
                } else {
                    (2.0f64).powi(d as i32 - 1)
                }
            };
            bound += pow(d0) + pow(d1) * params.n as f64;
        }
        (bound, w_sq)
    }

    /// `(bound, Σw²)` from the kernel norms — every pack's ledger and the
    /// norms it prices — equals the polynomial form on every band of every
    /// pack of `server`'s layer, bit for bit, and so does the approximate
    /// term priced at the polynomials' `Σw²`.
    fn assert_norms_price_like_polynomials(server: &flash_2pc::HconvServer, kernel: &[i64]) {
        let layer = server.layer();
        let enc = layer.encoder();
        let model = PolyMulBackend::Pow2.error_model(layer.params()).unwrap();
        for (pack, ledger) in server.ledgers(kernel).iter().enumerate() {
            let bound = ledger.exact + ledger.truncation;
            let w_sq: f64 = enc.pack_norms(kernel, pack).iter().map(|&(_, sq)| sq).sum();
            let w_polys = enc.encode_pack(kernel, pack);
            for b in 0..enc.bands() {
                let (want, want_sq) =
                    polynomial_noise_bound(layer.params(), &w_polys, b, layer.truncation());
                assert_eq!(
                    (bound.to_bits(), w_sq.to_bits()),
                    (want.to_bits(), want_sq.to_bits()),
                    "{} at {:?}, pack {pack} band {b}",
                    enc.shape(),
                    layer.partition()
                );
                let want_err = model.phase_error_bound(layer.params(), want_sq, w_polys.len());
                assert_eq!(ledger.approx.map(f64::to_bits), Some(want_err.to_bits()));
            }
        }
    }

    #[test]
    fn kernel_norms_price_the_guard_like_the_encoded_polynomials() {
        // Every reduced-ResNet-18 unit at its planned and its unpacked
        // partition, and the 64×32×32 → 32 layer at N = 4096.
        use flash_2pc::hconv::DEFAULT_NOISE_MARGIN;
        use flash_2pc::{ConvProtocol, HconvServer};
        let he = e2e_config().he;
        let mut rng = StdRng::seed_from_u64(24);
        let net = QuantResnet::reduced_resnet18(8, 32, 10, &mut rng);
        let mut packed = 0;
        for unit in net.units_in_order() {
            let fold = unit.spec.fold();
            let (shape, kernel) = (fold.shape(), fold.kernel(&unit.weights));
            let proto = ConvProtocol::new(he.clone(), shape, PolyMulBackend::Pow2);
            let server = proto.server();
            assert_norms_price_like_polynomials(server, &kernel);
            let unpacked = HconvServer::new(
                server.layer().unpacked(),
                PolyMulBackend::Pow2,
                DEFAULT_NOISE_MARGIN,
            );
            assert_norms_price_like_polynomials(&unpacked, &kernel);
            packed += usize::from(server.layer().partition() != unpacked.layer().partition());
        }
        assert!(packed > 0, "some planned partition packs output channels");
        let wide = ConvLayerSpec {
            name: "wide".into(),
            c: 64,
            h: 32,
            w: 32,
            m: 32,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let fold = wide.fold();
        let kernel = fold.kernel(&wide.sample_weights(Quantizer::w4(), &mut rng));
        let proto = ConvProtocol::new(
            flash_he::HeParams::flash_pow2(),
            fold.shape(),
            PolyMulBackend::Pow2,
        );
        assert_norms_price_like_polynomials(proto.server(), &kernel);
    }

    #[test]
    fn resnet18_private_shares_match_their_digest() {
        // FNV-1a over every unit's client share, then its server share
        // (little-endian words): pins both shares bit for bit across
        // changes to the response path. Re-pinned once when uploads
        // began expanding `a` from a seed: an upload now takes 4 words
        // of the seed-24 stream instead of 2N, so every later draw moves
        // (noise, mask seeds, the next unit's input); the reconstruction
        // of each unit against `conv_reference` is asserted unchanged.
        // Re-pinned once more when conv layers began packing output
        // channels: packed layers draw one mask seed per (pack, band)
        // unit instead of per (channel, band), and upload more tiles,
        // so the stream moves again; the per-unit reconstruction is
        // still asserted unedited. Re-pinned a third time when the key
        // and error samplers began drawing one word per coefficient
        // instead of two: the table Gaussian with a second word drawn
        // and discarded reproduced the previous digest, so the move is
        // the stream shift alone.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for run in resnet18_private_units() {
            for v in run.shares.0.iter().chain(&run.shares.1) {
                for b in v.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        assert_eq!(h, 0xe59e_7b0f_ecca_f546);
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
