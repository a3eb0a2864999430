//! `relu_pool_2pc`: the executable 2PC non-linear suite alone.
//!
//! One op is one pass of a fresh `NonlinearSession` (one per inference,
//! as `run_resnet_e2e` opens them) — `relu_requant` → 2×2 `maxpool` →
//! `avgpool_global` → `fc` → `argmax` — over a secret-shared 64×32×32
//! tensor in the l = 21 ring on a clean link, one thread, no HE.
//! `twopc::nonlinear` and `twopc::transport` do all the work and
//! `he`/`fft`/`ntt` none, so a change to the OT layer or the framing
//! moves this workload and is invisible in `resnet18_private`.
//!
//! Oracle: the reconstructed classifier output equals `Requantizer` +
//! plaintext pools + `matvec_reference` bit for bit, and the revealed
//! index equals the first-max argmax of those logits.

use super::{closed_loop, substream, OpOutcome, Region, Workload};
use crate::metrics::Metrics;
use crate::probes;
use crate::trace::Tracer;
use flash_2pc::{NonlinearModel, NonlinearSession, NonlinearStats, ShareRing, TransportConfig};
use flash_he::matvec::matvec_reference;
use flash_nn::layers::maxpool_reference;
use flash_nn::quant::{div_round_half_away, Quantizer, Requantizer};
use flash_nn::synthetic::SyntheticCnn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const WARMUP_OPS: u64 = 5;
const INPUT_POOL: usize = 4;
const SHAPE: (usize, usize, usize) = (64, 32, 32);
const CLASSES: usize = 10;
/// Sum-products the size a 64-channel 3×3 W4A4 conv produces.
const SP_RANGE: i64 = 1 << 15;

struct Case {
    xc: Vec<u64>,
    xs: Vec<u64>,
    logits: Vec<i64>,
    class: usize,
}

pub struct ReluPool {
    ring: ShareRing,
    rq: Requantizer,
    /// The classifier weights handed to the library.
    fc_weights: Vec<i64>,
    cases: Vec<Case>,
    rng: StdRng,
    seed: u64,
    next_op: u64,
    /// Session accounting summed over the ops of the last region.
    region_stats: NonlinearStats,
}

impl ReluPool {
    pub fn setup(seed: u64, mutate: bool) -> Self {
        flash_runtime::set_threads(1);
        let mut rng = StdRng::seed_from_u64(substream(seed, 1));
        let ring = ShareRing::new(21);
        let rq = Requantizer::calibrate(SP_RANGE, 4);
        let (c, h, w) = SHAPE;
        let clean: Vec<i64> = (0..CLASSES * c)
            .map(|_| Quantizer::w4().sample(&mut rng))
            .collect();
        let cases = (0..INPUT_POOL)
            .map(|_| {
                let x: Vec<i64> = (0..c * h * w)
                    .map(|_| rng.gen_range(-SP_RANGE..SP_RANGE))
                    .collect();
                let act: Vec<i64> = x.iter().map(|&v| rq.apply(v.max(0))).collect();
                let pooled = maxpool_reference(&act, SHAPE, 2, 2, 0);
                let spatial = (h / 2) * (w / 2);
                let means: Vec<i64> = pooled
                    .chunks(spatial)
                    .map(|ch| div_round_half_away(ch.iter().sum(), spatial as i64))
                    .collect();
                let logits = matvec_reference(&clean, &means, c, CLASSES);
                let class = SyntheticCnn::argmax(&logits);
                let (xc, xs) = ring.share_vec(&x, &mut rng);
                Case {
                    xc,
                    xs,
                    logits,
                    class,
                }
            })
            .collect();
        let mut fc_weights = clean;
        if mutate {
            fc_weights[0] += 1;
        }
        let mut w = ReluPool {
            region_stats: NonlinearStats::default(),
            ring,
            rq,
            fc_weights,
            cases,
            rng,
            seed,
            next_op: 0,
        };
        let mut tr = Tracer::new(false);
        for _ in 0..WARMUP_OPS {
            let id = w.next_op;
            w.next_op += 1;
            w.op(id, &mut tr);
        }
        w
    }

    fn op(&mut self, id: u64, tr: &mut Tracer) -> OpOutcome {
        let case = &self.cases[id as usize % INPUT_POOL];
        let (c, h, w) = SHAPE;
        let rng = &mut self.rng;
        let t0 = Instant::now();
        let mut session = NonlinearSession::new(
            self.ring,
            TransportConfig::default(),
            substream(self.seed, 1000 + id),
        );
        let s = &mut session;
        let result = (|| {
            let (ac, a_s) = tr.span("twopc.nonlinear.relu_requant", id, || {
                s.relu_requant(&case.xc, &case.xs, self.rq, rng)
            })?;
            let (pc, ps) = tr.span("twopc.nonlinear.maxpool", id, || {
                s.maxpool(&ac, &a_s, SHAPE, 2, 2, 0, rng)
            })?;
            let (mc, ms) = tr.span("twopc.nonlinear.avgpool_global", id, || {
                s.avgpool_global(&pc, &ps, c, (h / 2) * (w / 2), rng)
            })?;
            let (fc, fs) = tr.span("twopc.nonlinear.fc", id, || {
                s.fc(&mc, &ms, &self.fc_weights, c, CLASSES, rng)
            })?;
            let class = tr.span("twopc.nonlinear.argmax", id, || s.argmax(&fc, &fs, rng))?;
            Ok::<_, flash_2pc::FlashError>((fc, fs, class))
        })();
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let d = session.stats();
        add_stats(&mut self.region_stats, &d);
        let correct = match result {
            Ok((fc, fs, class)) => {
                let want: Vec<i64> = case
                    .logits
                    .iter()
                    .map(|&v| self.ring.to_signed(self.ring.reduce(v)))
                    .collect();
                self.ring.reconstruct_vec(&fc, &fs) == want
                    && class == case.class
                    && d.faults_detected == 0
                    && d.frames_retried == 0
            }
            Err(_) => false,
        };
        OpOutcome {
            correct,
            wire_bytes: d.wire_bytes,
            latency_ms,
        }
    }
}

fn add_stats(total: &mut NonlinearStats, d: &NonlinearStats) {
    total.relu_elems += d.relu_elems;
    total.compare_rounds += d.compare_rounds;
    total.messages += d.messages;
    total.payload_bytes += d.payload_bytes;
    total.wire_bytes += d.wire_bytes;
    total.faults_detected += d.faults_detected;
    total.frames_retried += d.frames_retried;
}

impl Workload for ReluPool {
    fn threads(&self) -> usize {
        1
    }

    fn region(&mut self, seconds: f64, min_ops: u64, tr: &mut Tracer) -> Region {
        self.region_stats = NonlinearStats::default();
        let mut next = self.next_op;
        let region = closed_loop(seconds, min_ops, &mut next, tr, |id, tr| self.op(id, tr));
        self.next_op = next;
        region
    }

    fn layers(&mut self, region: &Region, tr: &mut Tracer, m: &mut Metrics) {
        let ops = region.attempted.max(1) as f64;
        let per_op = |name: &str| tr.total_ms(name) / ops;
        let spans = [
            (
                "twopc.nonlinear.relu_requant_ms",
                "twopc.nonlinear.relu_requant",
            ),
            ("twopc.nonlinear.maxpool_ms", "twopc.nonlinear.maxpool"),
            (
                "twopc.nonlinear.avgpool_ms",
                "twopc.nonlinear.avgpool_global",
            ),
            ("twopc.nonlinear.fc_ms", "twopc.nonlinear.fc"),
            ("twopc.nonlinear.argmax_ms", "twopc.nonlinear.argmax"),
        ];
        let mut covered_ms = 0.0;
        for (metric, span) in spans {
            let ms = per_op(span);
            covered_ms += ms;
            m.set(metric, ms);
        }

        let d = self.region_stats;
        m.set("twopc.nonlinear.messages", d.messages as f64 / ops);
        m.set(
            "twopc.nonlinear.compare_rounds",
            d.compare_rounds as f64 / ops,
        );
        m.set("twopc.nonlinear.wire_bytes", d.wire_bytes as f64 / ops);
        m.set("twopc.transport.faults_detected", d.faults_detected as f64);
        m.set("twopc.transport.frames_retried", d.frames_retried as f64);
        m.set(
            "twopc.transport.wire_overhead_ratio",
            d.wire_bytes as f64 / (d.payload_bytes as f64).max(1.0),
        );

        // The cost model's payload prediction for the same element
        // counts: ReLU + truncation per activation, a 3-pair tournament
        // per 2×2 window, truncation per pooled channel, the classifier's
        // vectors, and the argmax tournament plus its two-value reveal.
        let model = NonlinearModel::cheetah(self.ring.bits());
        let (c, h, w) = SHAPE;
        let elem_bytes = f64::from(self.ring.bits().div_ceil(8));
        let predicted = model.layer_bytes((c * h * w) as u64)
            + (c * (h / 2) * (w / 2) * 3) as f64 * model.relu().bytes_per_elem
            + c as f64 * model.truncation.bytes_per_elem
            + (c + CLASSES) as f64 * elem_bytes
            + (CLASSES - 1) as f64
                * (model.compare.bytes_per_elem + 2.0 * model.select.bytes_per_elem)
            + 2.0 * elem_bytes;
        m.set(
            "twopc.nonlinear.byte_model_ratio",
            d.payload_bytes as f64 / ops / predicted,
        );

        // One frame of the session's mean size stands for its many small
        // frames.
        let mut rng = StdRng::seed_from_u64(substream(self.seed, 2));
        let mean_frame = (d.payload_bytes / d.messages.max(1)) as usize;
        m.set(
            "twopc.transport.frame_roundtrip_us",
            probes::frame_roundtrip_probe(mean_frame, &mut rng),
        );

        let cpu_ms_per_op = region.cpu_s * 1e3 / ops;
        m.set("trace.unattributed_ratio", 1.0 - covered_ms / cpu_ms_per_op);
    }
}
