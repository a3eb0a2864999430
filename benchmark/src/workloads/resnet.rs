//! `resnet18_private`: the whole stack the way a user runs it.
//!
//! One op is one `flash_accel::e2e::run_resnet_e2e` call with one sample
//! on the reduced ResNet-18 (channels ÷ 8, 32×32 input, 10 classes) at
//! the e2e operating point (N = 256, q = 2^62, l = 21), on one thread.
//! Twenty-one small conv layers, three of them stride-2 phase splits, so
//! client encode/encrypt/decrypt and per-layer fixed costs dominate and
//! the spectral kernels are a few percent.
//!
//! Oracle: the library compares the securely revealed argmax with
//! `QuantResnet::logits` on the same input inside the call and reports
//! `agreement`; an op is correct when that is 1. The call keeps input and
//! logits to itself, so the benchmark cannot recompute the reference.
//! What it can check bit-exactly, and does once per set-up, is every conv
//! layer of the network through `FlashHconv::run_layer_shared` against
//! `conv_reference`; that replay also yields the op's exact HE counts.

use super::{closed_loop, substream, OpOutcome, Region, Workload};
use crate::metrics::Metrics;
use crate::probes::{self, ConvJob};
use crate::trace::Tracer;
use flash_2pc::transport::FRAME_HEADER_BYTES;
use flash_2pc::{ProtocolStats, TransportConfig};
use flash_accel::config::FlashConfig;
use flash_accel::e2e::{e2e_config, run_resnet_e2e, E2eOptions, E2eReport};
use flash_accel::hconv::FlashHconv;
use flash_he::{HeParams, PolyMulBackend, SecretKey};
use flash_nn::layers::conv_reference;
use flash_nn::quant::Quantizer;
use flash_nn::resnet::QuantResnet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const WARMUP_OPS: u64 = 10;

pub struct Resnet {
    net: QuantResnet,
    cfg: FlashConfig,
    seed: u64,
    next_op: u64,
    /// One op's HE accounting, from the set-up replay (exact: it depends
    /// on layer shapes only).
    he_per_op: ProtocolStats,
    /// Whether every conv layer reproduced `conv_reference` in the replay.
    replay_exact: bool,
    /// Reports of the last region, for the layer metrics.
    reports: Vec<(f64, E2eReport)>,
}

impl Resnet {
    pub fn setup(seed: u64, mutate: bool) -> Self {
        flash_runtime::set_threads(1);
        let mut rng = StdRng::seed_from_u64(substream(seed, 1));
        let net = QuantResnet::reduced_resnet18(8, 32, 10, &mut rng);
        let mut cfg = e2e_config();
        if mutate {
            // The reference lives inside the library call, so a perturbed
            // weight would perturb both sides. Narrowing the share ring
            // from 21 to 8 bits instead makes the private arithmetic wrap
            // while the plaintext reference does not.
            cfg.he = HeParams::new_pow2(256, 62, 1 << 8, 3.2);
        }
        let (he_per_op, replay_exact) = replay_convs(&net, &cfg, &mut rng);
        let mut w = Resnet {
            net,
            cfg,
            seed,
            next_op: 0,
            he_per_op,
            replay_exact,
            reports: Vec::new(),
        };
        for _ in 0..WARMUP_OPS {
            let id = w.next_op;
            w.next_op += 1;
            w.op(id);
        }
        w
    }

    fn op(&self, id: u64) -> (OpOutcome, Option<E2eReport>) {
        let opts = E2eOptions {
            samples: 1,
            seed: substream(self.seed, 1000 + id),
            transport: TransportConfig::default(),
        };
        let t0 = Instant::now();
        let result = run_resnet_e2e(&self.net, &self.cfg, &opts);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(report) => {
                // HE frames carry a header the report's payload count
                // leaves out; the replay counted the frames.
                let frames =
                    (self.he_per_op.ciphertexts_up + self.he_per_op.ciphertexts_down) as u64;
                let wire_bytes = report.he_bytes()
                    + frames * FRAME_HEADER_BYTES as u64
                    + report.nonlinear_wire_bytes();
                let correct = self.replay_exact
                    && report.agreement == 1.0
                    && report.faults_detected() == 0
                    && report.frames_retried() == 0;
                (
                    OpOutcome {
                        correct,
                        wire_bytes,
                        latency_ms,
                    },
                    Some(report),
                )
            }
            Err(_) => (
                OpOutcome {
                    correct: false,
                    wire_bytes: 0,
                    latency_ms,
                },
                None,
            ),
        }
    }
}

/// Runs every conv layer once over fresh shares, checks the
/// reconstruction bit-exactly against the plaintext convolution and sums
/// the protocol accounting.
fn replay_convs(net: &QuantResnet, cfg: &FlashConfig, rng: &mut StdRng) -> (ProtocolStats, bool) {
    let engine = FlashHconv::with_backend(cfg.clone(), PolyMulBackend::Pow2);
    let ring = engine.ring();
    let sk = SecretKey::generate(&cfg.he, rng);
    let mut total = ProtocolStats::default();
    let mut exact = true;
    for unit in net.units_in_order() {
        let x = unit.spec.sample_input(Quantizer::a4(), rng);
        let (xc, xs) = ring.share_vec(&x, rng);
        match engine.run_layer_shared(&sk, &unit.spec, &xc, &xs, &unit.weights, rng) {
            Ok(((yc, ys), stats)) => {
                let want: Vec<i64> = conv_reference(&x, &unit.weights, &unit.spec)
                    .iter()
                    .map(|&v| ring.to_signed(ring.reduce(v)))
                    .collect();
                exact &= ring.reconstruct_vec(&yc, &ys) == want;
                total = probes::add_stats(total, &stats);
            }
            Err(_) => exact = false,
        }
    }
    (total, exact)
}

impl Workload for Resnet {
    fn threads(&self) -> usize {
        1
    }

    fn region(&mut self, seconds: f64, min_ops: u64, tr: &mut Tracer) -> Region {
        let mut next = self.next_op;
        let mut reports = Vec::new();
        let region = closed_loop(seconds, min_ops, &mut next, tr, |id, tr| {
            let (out, report) = tr.span("accel.run_resnet_e2e", id, || self.op(id));
            if let (true, Some(r)) = (tr.enabled(), report) {
                reports.push((out.latency_ms, r));
            }
            out
        });
        self.next_op = next;
        self.reports = reports;
        region
    }

    fn layers(&mut self, region: &Region, tr: &mut Tracer, m: &mut Metrics) {
        let ops = self.reports.len().max(1) as f64;
        let stride2: Vec<&str> = self
            .net
            .units_in_order()
            .iter()
            .filter(|u| u.spec.stride == 2)
            .map(|u| u.spec.name.as_str())
            .collect();
        let (mut he, mut nl, mut s1, mut s2, mut wall) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let (mut nl_msgs, mut nl_wire, mut nl_payload, mut predicted) = (0u64, 0u64, 0u64, 0.0);
        for (lat, r) in &self.reports {
            wall += lat;
            he += r.he_ms();
            nl += r.nonlinear_ms();
            for l in r.layers.iter().filter(|l| l.kind == "conv") {
                if stride2.contains(&l.name.as_str()) {
                    s2 += l.he_ms;
                } else {
                    s1 += l.he_ms;
                }
            }
            nl_wire += r.nonlinear_wire_bytes();
            nl_payload += r.nonlinear_payload_bytes();
            predicted += r.predicted_bytes();
            // every non-linear frame carries one header
            nl_msgs += (r.nonlinear_wire_bytes() - r.nonlinear_payload_bytes())
                / FRAME_HEADER_BYTES as u64;
        }
        m.set("accel.he_ms", he / ops);
        m.set("accel.nonlinear_ms", nl / ops);
        m.set("accel.conv_s1_ms", s1 / ops);
        m.set("accel.conv_s2_ms", s2 / ops);
        m.set("accel.unattributed_ms", (wall - he - nl) / ops);
        m.set("twopc.nonlinear.messages", nl_msgs as f64 / ops);
        m.set("twopc.nonlinear.wire_bytes", nl_wire as f64 / ops);
        m.set(
            "twopc.nonlinear.byte_model_ratio",
            nl_payload as f64 / predicted.max(1.0),
        );

        let s = &self.he_per_op;
        super::set_protocol_metrics(m, s, nl_payload as f64 / ops, nl_wire as f64 / ops);

        let n = self.cfg.he.n;
        let mut rng = StdRng::seed_from_u64(substream(self.seed, 2));
        let jobs: Vec<ConvJob> = self
            .net
            .units_in_order()
            .iter()
            .map(|u| ConvJob::of(&u.spec))
            .collect();
        let he_probe = probes::he_probe(
            &self.cfg.he,
            &PolyMulBackend::Pow2,
            None,
            &jobs,
            &mut rng,
            tr,
        );
        let (fwd_us, inv_us) = probes::fft_probe(n, &mut rng);
        // the first 3×3 stride-1 layer of the network carries the pattern
        let tape_shape = self.net.blocks[0].conv1.spec.encoded_shape();
        let tape_us = probes::sparse_tape_probe(tape_shape, n, &mut rng);
        let frame_us = probes::frame_roundtrip_probe(2 * n * 8, &mut rng);
        m.set("fft.fixed_forward_us", probes::fixed_fft_probe(n, &mut rng));
        super::set_he_probe_metrics(m, &he_probe, fwd_us, inv_us, tape_us, frame_us);

        let attributed_ms = he_probe.encode_encrypt_ms
            + he_probe.decrypt_decode_ms
            + he_probe.mac_ms
            + super::transform_ms(s, fwd_us, inv_us, tape_us)
            + nl / ops;
        let cpu_ms_per_op = region.cpu_s * 1e3 / region.ok().max(1) as f64;
        m.set(
            "trace.unattributed_ratio",
            1.0 - attributed_ms / cpu_ms_per_op,
        );
    }
}
