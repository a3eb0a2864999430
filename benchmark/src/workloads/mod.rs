//! The five workloads and what they share: the timed-region record, the
//! closed-loop driver and per-seed input derivation.

pub mod hconv;
pub mod nonlinear;
pub mod resnet;
pub mod serve;

use crate::clock;
use crate::metrics::Metrics;
use crate::trace::Tracer;
use std::time::Instant;

/// Fewest timed ops the untraced region may end with, so the 90th
/// percentile has twenty samples beyond it. A host too slow to reach this
/// in `--seconds` runs longer instead of reporting a percentile made of a
/// few slow ops.
pub const MIN_OPS: u64 = 200;
/// The same floor for the two shorter regions of the traced pass: ten
/// samples beyond the 90th percentile, the least that supports it.
pub const MIN_TRACED_OPS: u64 = 100;

/// What one timed region measured.
#[derive(Debug, Default, Clone)]
pub struct Region {
    /// Latency of every op that completed correctly, ms. A failed op has
    /// no latency: it misses any limit.
    pub lat_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall seconds from the first op's start to the last op's end.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) over the same interval.
    pub cpu_s: f64,
    /// CPU seconds of the calling (generator) thread alone.
    pub caller_cpu_s: f64,
    /// Framed wire bytes both directions, summed over completed ops.
    pub wire_bytes: u64,
    /// Peak resident memory (`VmHWM`) when the `min_ops`-th op finished,
    /// MiB. Read at a fixed op count, not at the end of the region: the
    /// in-memory transports keep every payload they ever carried, so
    /// resident memory grows with the ops a region fits in, and a peak
    /// read at the end would charge a faster system for doing more.
    pub rss_mib: f64,
}

impl Region {
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Books the memory reading once `min_ops` ops have been attempted.
    pub fn checkpoint_rss(&mut self, min_ops: u64) {
        if self.rss_mib == 0.0 && self.attempted >= min_ops {
            self.rss_mib = clock::peak_rss_mib();
        }
    }
}

/// Verdict of one op.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// Output equal to the plaintext reference and no error returned.
    pub correct: bool,
    /// Framed wire bytes this op moved.
    pub wire_bytes: u64,
    /// Latency timed around the public call(s) alone, ms.
    pub latency_ms: f64,
}

/// Brackets a timed region with wall and CPU clocks.
pub struct RegionClock {
    wall: Instant,
    cpu: std::time::Duration,
    caller_cpu: std::time::Duration,
}

impl RegionClock {
    pub fn start() -> Self {
        RegionClock {
            wall: Instant::now(),
            cpu: clock::process_cpu(),
            caller_cpu: clock::thread_cpu(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Stamps the three durations into `region`.
    pub fn finish(&self, region: &mut Region) {
        region.wall_s = self.wall.elapsed().as_secs_f64();
        region.cpu_s = (clock::process_cpu() - self.cpu).as_secs_f64();
        region.caller_cpu_s = (clock::thread_cpu() - self.caller_cpu).as_secs_f64();
    }
}

/// One caller, one op at a time: runs `op` until `seconds` have passed
/// and at least `min_ops` ops ran. `op` receives a running op id that
/// keeps counting across regions, and the recorder, under an open `"op"`
/// span.
pub fn closed_loop(
    seconds: f64,
    min_ops: u64,
    next_op: &mut u64,
    tr: &mut Tracer,
    mut op: impl FnMut(u64, &mut Tracer) -> OpOutcome,
) -> Region {
    let mut region = Region::default();
    let clk = RegionClock::start();
    while clk.elapsed_s() < seconds || region.attempted < min_ops {
        let id = *next_op;
        *next_op += 1;
        let span = tr.enter("op", id);
        let out = op(id, tr);
        tr.exit(span);
        region.attempted += 1;
        if out.correct {
            region.lat_ms.push(out.latency_ms);
            region.wire_bytes += out.wire_bytes;
        } else {
            region.failed += 1;
        }
        region.checkpoint_rss(min_ops);
    }
    clk.finish(&mut region);
    region
}

/// A workload after set-up: ready for timed regions.
pub trait Workload {
    /// Runs one timed region of about `seconds` and at least `min_ops`
    /// ops ([`MIN_OPS`] or [`MIN_TRACED_OPS`] outside unit tests).
    fn region(&mut self, seconds: f64, min_ops: u64, tr: &mut Tracer) -> Region;

    /// Threads that do the workload's work (callers plus workers).
    fn threads(&self) -> usize;

    /// Traced pass only: derives this workload's per-layer metrics from
    /// the traced `region`, its spans, and probes that replay one op's
    /// tile counts through the layers' public functions.
    fn layers(&mut self, region: &Region, tr: &mut Tracer, m: &mut Metrics);
}

/// Sets the named workload up from `seed`: keys, model, sessions, inputs,
/// plaintext references, cache fill and warm-up ops — everything before
/// the first timed op. With `mutate`, one weight (or, where the library
/// owns the reference, one ring parameter) of the copy handed to the
/// library is perturbed while the reference keeps the clean value, so a
/// live oracle must report failures.
///
/// # Panics
///
/// Panics on an unknown name (the CLI validates names first).
pub fn setup(name: &str, seed: u64, mutate: bool) -> Box<dyn Workload> {
    match name {
        "resnet18_private" => Box::new(resnet::Resnet::setup(seed, mutate)),
        "hconv_wide_n4096" => Box::new(hconv::Hconv::setup(seed, mutate)),
        "serve_saturated" => Box::new(serve::Serve::setup(seed, mutate, false)),
        "serve_paced" => Box::new(serve::Serve::setup(seed, mutate, true)),
        "relu_pool_2pc" => Box::new(nonlinear::ReluPool::setup(seed, mutate)),
        other => panic!("unknown workload {other}"),
    }
}

/// Decorrelates the per-purpose random streams drawn from one `--seed`
/// (splitmix64 finalizer over `seed + stream`).
pub fn substream(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-op HE counts and framing accounting from protocol statistics.
/// `extra_payload`/`extra_wire` add non-HE traffic of the same op (the
/// 2PC links of a full inference) to the wire-overhead ratio.
pub fn set_protocol_metrics(
    m: &mut Metrics,
    s: &flash_2pc::ProtocolStats,
    extra_payload: f64,
    extra_wire: f64,
) {
    let payload = (s.upload_bytes + s.download_bytes) as f64;
    let wire = (s.upload_wire_bytes + s.download_wire_bytes) as f64;
    m.set("he.ciphertexts_up", s.ciphertexts_up as f64);
    m.set("he.ciphertexts_down", s.ciphertexts_down as f64);
    m.set("he.payload_bytes", payload);
    m.set("he.fallbacks", (s.ntt_fallbacks + s.pow2_fallbacks) as f64);
    m.set(
        "sparse.tape_ratio",
        s.sparse_weight_transforms as f64 / (s.weight_transforms as f64).max(1.0),
    );
    m.set(
        "twopc.protocol.weight_transforms",
        s.weight_transforms as f64,
    );
    m.set(
        "twopc.protocol.activation_transforms",
        s.activation_transforms as f64,
    );
    m.set(
        "twopc.protocol.inverse_transforms",
        s.inverse_transforms as f64,
    );
    m.set("twopc.protocol.pointwise_muls", s.pointwise_muls as f64);
    m.set(
        "twopc.transport.wire_overhead_ratio",
        (wire + extra_wire) / (payload + extra_payload).max(1.0),
    );
    m.set("twopc.transport.faults_detected", s.faults_detected as f64);
    m.set("twopc.transport.frames_retried", s.frames_retried as f64);
}

/// The HE-stage and FFT-family kernel probe results, by name.
pub fn set_he_probe_metrics(
    m: &mut Metrics,
    he: &crate::probes::HeProbe,
    fwd_us: f64,
    inv_us: f64,
    tape_us: f64,
    frame_us: f64,
) {
    m.set("he.encode_encrypt_ms", he.encode_encrypt_ms);
    m.set("he.decrypt_decode_ms", he.decrypt_decode_ms);
    m.set("he.mac_ms", he.mac_ms);
    m.set("fft.forward_batch_us", fwd_us);
    m.set("fft.inverse_batch_us", inv_us);
    m.set("sparse.tape_exec_us", tape_us);
    m.set("twopc.transport.frame_roundtrip_us", frame_us);
}

/// Milliseconds one op's transform counts cost at the probed kernel
/// speeds: sparse weight transforms on the tape, dense ones and the
/// activation transforms on the forward kernel, responses on the
/// inverse, each amortized over a full batch.
pub fn transform_ms(s: &flash_2pc::ProtocolStats, fwd_us: f64, inv_us: f64, tape_us: f64) -> f64 {
    let w = crate::probes::BATCH_W as f64;
    let dense_weights = (s.weight_transforms - s.sparse_weight_transforms) as f64;
    (s.sparse_weight_transforms as f64 * tape_us
        + (dense_weights + s.activation_transforms as f64) * fwd_us
        + s.inverse_transforms as f64 * inv_us)
        / w
        / 1e3
}
