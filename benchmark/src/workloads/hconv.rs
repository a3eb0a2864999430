//! `hconv_wide_n4096`: one channel-heavy layer at the paper's degree.
//!
//! One op is one `FlashHconv::run_layer` of a 64×32×32 → 32, 3×3,
//! stride 1, pad 1 convolution at `HeParams::flash_pow2()` (N = 4096,
//! q = 2^62) on the `Pow2` backend with sparse weight transforms on and
//! `min(2, nproc)` runtime threads. Server work (704 weight transforms
//! on the sparse µop tape, activation and inverse FFTs, the MAC) grows
//! with c·m while client work grows with c + m, so the spectral kernels
//! and the runtime's parallel regions carry this workload; weight
//! transforms sit on the request path here, unlike in `serve_*`.
//!
//! Oracle: the reconstructed output equals `conv_reference` reduced into
//! the share ring, bit for bit, every op.

use super::{closed_loop, substream, OpOutcome, Region, Workload};
use crate::clock;
use crate::metrics::Metrics;
use crate::probes::{self, ConvJob};
use crate::trace::Tracer;
use flash_2pc::ProtocolStats;
use flash_accel::config::FlashConfig;
use flash_accel::hconv::FlashHconv;
use flash_he::{HeParams, PolyMulBackend, SecretKey};
use flash_nn::layers::{conv_reference, ConvLayerSpec};
use flash_nn::quant::Quantizer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const WARMUP_OPS: u64 = 5;
/// Distinct activations cycled through the timed ops; masks and
/// encryption randomness are fresh every op regardless.
const INPUT_POOL: usize = 4;

pub struct Hconv {
    engine: FlashHconv,
    params: HeParams,
    sk: SecretKey,
    spec: ConvLayerSpec,
    /// The weights handed to the library.
    weights: Vec<i64>,
    inputs: Vec<Vec<i64>>,
    /// Plaintext reference outputs, one per input, from the clean weights.
    expected: Vec<Vec<i64>>,
    rng: StdRng,
    seed: u64,
    next_op: u64,
    last_stats: ProtocolStats,
}

impl Hconv {
    pub fn setup(seed: u64, mutate: bool) -> Self {
        flash_runtime::set_threads(clock::nproc().min(2));
        let mut rng = StdRng::seed_from_u64(substream(seed, 1));
        let mut cfg = FlashConfig::paper_default();
        cfg.he = HeParams::flash_pow2();
        let params = cfg.he.clone();
        let engine = FlashHconv::with_backend(cfg, PolyMulBackend::Pow2);
        let ring = engine.ring();
        let spec = ConvLayerSpec {
            name: "wide".into(),
            c: 64,
            h: 32,
            w: 32,
            m: 32,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let sk = SecretKey::generate(&params, &mut rng);
        let clean = spec.sample_weights(Quantizer::w4(), &mut rng);
        let inputs: Vec<Vec<i64>> = (0..INPUT_POOL)
            .map(|_| spec.sample_input(Quantizer::a4(), &mut rng))
            .collect();
        let expected = inputs
            .iter()
            .map(|x| {
                conv_reference(x, &clean, &spec)
                    .iter()
                    .map(|&v| ring.to_signed(ring.reduce(v)))
                    .collect()
            })
            .collect();
        let mut weights = clean;
        if mutate {
            weights[0] += 1;
        }
        let mut w = Hconv {
            engine,
            params,
            sk,
            spec,
            weights,
            inputs,
            expected,
            rng,
            seed,
            next_op: 0,
            last_stats: ProtocolStats::default(),
        };
        for _ in 0..WARMUP_OPS {
            let id = w.next_op;
            w.next_op += 1;
            w.op(id);
        }
        w
    }

    fn op(&mut self, id: u64) -> OpOutcome {
        let slot = id as usize % INPUT_POOL;
        let t0 = Instant::now();
        let result = self.engine.run_layer(
            &self.sk,
            &self.spec,
            &self.inputs[slot],
            &self.weights,
            &mut self.rng,
        );
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok((y, stats)) => {
                self.last_stats = stats;
                OpOutcome {
                    correct: y == self.expected[slot],
                    wire_bytes: (stats.upload_wire_bytes + stats.download_wire_bytes) as u64,
                    latency_ms,
                }
            }
            Err(_) => OpOutcome {
                correct: false,
                wire_bytes: 0,
                latency_ms,
            },
        }
    }
}

impl Workload for Hconv {
    fn threads(&self) -> usize {
        flash_runtime::max_threads()
    }

    fn region(&mut self, seconds: f64, min_ops: u64, tr: &mut Tracer) -> Region {
        let mut next = self.next_op;
        let region = closed_loop(seconds, min_ops, &mut next, tr, |id, tr| {
            tr.span("accel.run_layer", id, || self.op(id))
        });
        self.next_op = next;
        region
    }

    fn layers(&mut self, region: &Region, tr: &mut Tracer, m: &mut Metrics) {
        let ops = region.ok().max(1) as f64;
        let op_ms = tr.total_ms("accel.run_layer") / region.attempted.max(1) as f64;
        m.set("accel.he_ms", op_ms);
        m.set("accel.conv_s1_ms", op_ms);

        // Shape-determined, so the last op's accounting is every op's.
        let s = self.last_stats;
        super::set_protocol_metrics(m, &s, 0.0, 0.0);

        let n = self.params.n;
        let mut rng = StdRng::seed_from_u64(substream(self.seed, 2));
        let jobs = [ConvJob::of(&self.spec)];
        let he_probe = probes::he_probe(
            &self.params,
            &PolyMulBackend::Pow2,
            None,
            &jobs,
            &mut rng,
            tr,
        );
        let (fwd_us, inv_us) = probes::fft_probe(n, &mut rng);
        let tape_us = probes::sparse_tape_probe(jobs[0].shape, n, &mut rng);
        let frame_us = probes::frame_roundtrip_probe(2 * n * 8, &mut rng);
        m.set("fft.fixed_forward_us", probes::fixed_fft_probe(n, &mut rng));
        super::set_he_probe_metrics(m, &he_probe, fwd_us, inv_us, tape_us, frame_us);

        let attributed_ms = he_probe.encode_encrypt_ms
            + he_probe.decrypt_decode_ms
            + he_probe.mac_ms
            + super::transform_ms(&s, fwd_us, inv_us, tape_us);
        let cpu_ms_per_op = region.cpu_s * 1e3 / ops;
        m.set(
            "trace.unattributed_ratio",
            1.0 - attributed_ms / cpu_ms_per_op,
        );
    }
}
