//! Machine-readable runtime benchmark: times the parallel hot paths at
//! one worker and at host parallelism and writes `BENCH_runtime.json`.
//!
//! Three thread-scaling benches (HConv layer, ResNet-18 network model,
//! DSE evaluation batch) plus the machine-independent plan-cache
//! cold/warm comparison. Thread speedups require physical cores, so
//! thread counts above `host_parallelism` are skipped (they only measure
//! scheduler noise) and every artifact records the host parallelism and
//! git revision it was produced on.
//!
//! The run always starts with the *hot-path* bench: a warm-cache,
//! single-thread HConv layer timed against the pre-optimization baseline
//! parsed from an existing `BENCH_runtime.json` (before this run
//! overwrites it), written to `BENCH_hotpath.json` together with the
//! scratch-pool hit counters. It is followed by the *sparse* bench —
//! compiled µop-tape weight transforms vs the dense FFT, at kernel level
//! and end-to-end — written to `BENCH_sparse.json` with the plan-cache
//! counters — and the *SIMD A/B* bench — the same layer with the scalar
//! fallback forced vs the active dispatch tier, with the
//! activation/inverse FFT stage medians, written to `BENCH_simd.json`.
//! `--quick` runs only those three sections. `--no-simd` forces the
//! scalar fallback for the whole run (the external A/B switch).
//!
//! `--check-regression` measures nothing new: it re-times the hot-path,
//! sparse-path, and SIMD-dispatch HConv medians, the power-of-two MAC
//! kernel, the serving layer's batched cost per request (the
//! `bench_serve` wave, same fixture), and the end-to-end private
//! inference fixture (the `bench_e2e` synthetic sample) and fails
//! (exit 1) if any is more than 15 % slower than the committed
//! `BENCH_hotpath.json` / `BENCH_sparse.json` / `BENCH_simd.json` /
//! `BENCH_backends.json` / `BENCH_serve.json` / `BENCH_e2e.json`
//! baselines. The artifacts
//! carry a `calib_ms`
//! field — the median of a fixed pure-ALU calibration loop measured in
//! the same invocation — and the gate divides each ratio by the current
//! host's calibration ratio, so CPU-frequency drift between the
//! baseline run and the check run cancels instead of masquerading as a
//! code regression (or hiding one).
//!
//! Every artifact embeds a `"telemetry"` section — the unified
//! `flash_telemetry::snapshot()` tree of per-stage span histograms
//! (non-zero only when built with `--features telemetry`), protocol
//! counters, and the plan-cache/scratch-pool statistics. `--stages`
//! runs the warm single-thread HConv layer alone and prints the
//! per-stage latency table.
//!
//! `--backends` runs the ciphertext-backend A/B suite instead of the
//! thread-scaling benches and writes `BENCH_backends.json`: the
//! MAC-kernel comparison (Harvey-lazy Shoup MAC + Barrett drain on the
//! prime modulus vs the wrapping MAC + mask drain on `q = 2^62`, same
//! degree and drain cadence — gated at ≥ 1.3× for the wrapping side)
//! and the protocol-level matrix timing exact-NTT vs approx-FFT vs
//! Pow2 end-to-end with the composed noise headroom and the guard's
//! fallback counts per cell. `--backends --quick` runs the kernel plus
//! the small matrix layer only, skips the speedup gate, and leaves the
//! committed artifact untouched (the CI smoke).

use flash_2pc::{expected_conv_mod, ConvProtocol};
use flash_accel::config::FlashConfig;
use flash_accel::hconv::FlashHconv;
use flash_accel::inference::run_network;
use flash_bench::banner;
use flash_bench::perf::{
    calibration_ms, git_revision, median_ms, parse_json_number, simd_json, warm_up,
};
use flash_bench::{chaos, serving};
use flash_dse::bayesopt::random_search;
use flash_dse::{DesignSpace, Objective};
use flash_he::encoding::{ConvEncoder, ConvShape};
use flash_he::{HeParams, PolyMulBackend, SecretKey};
use flash_hw::arch::FlashArch;
use flash_math::modular::Barrett;
use flash_math::pow2;
use flash_math::C64;
use flash_nn::layers::ConvLayerSpec;
use flash_nn::quant::Quantizer;
use flash_nn::resnet18_conv_layers;
use flash_ntt::transform::pointwise_mul_acc_shoup_lazy;
use flash_runtime::simd::{self, SimdLevel};
use flash_serve::BatchPolicy;
use flash_sparse::schedule::PeModel;
use flash_sparse::{SparsePlan, SparsityPattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A `(calib_ms, median_ms)` pair for the fixture layer: three
/// alternating attempts, keeping each value's minimum *independently*.
/// The artifact's job is to record the uncontended cost of both
/// workloads — the regression gate divides a fresh calibration by
/// `calib_ms` to estimate how much slower the current host is than the
/// baseline host, and a contention burst baked into either committed
/// value would skew every future comparison. Contention only ever adds
/// time, so the per-value minimum over spaced attempts is the estimator
/// of the quiet cost.
fn paired_median(fixture: &HconvFixture, engine: &FlashHconv, reps: usize) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        best.0 = best.0.min(calibration_ms());
        best.1 = best.1.min(fixture.median(engine, reps));
    }
    best
}

struct Row {
    name: &'static str,
    threads: usize,
    median_ms: f64,
    speedup: f64,
}

/// The single-thread `hconv_layer` median recorded before the hot-path
/// optimizations landed, parsed from a pre-existing `BENCH_runtime.json`
/// so the hot-path bench can report an honest speedup. Falls back to the
/// checked-in pre-optimization figure when no artifact is present.
fn baseline_hconv_ms() -> f64 {
    const PRE_OPT_BASELINE_MS: f64 = 4.0895;
    let Ok(text) = std::fs::read_to_string("BENCH_runtime.json") else {
        return PRE_OPT_BASELINE_MS;
    };
    for line in text.lines() {
        if line.contains("\"hconv_layer\"") && line.contains("\"threads\": 1") {
            if let Some(pos) = line.find("\"median_ms\":") {
                let rest = &line[pos + "\"median_ms\":".len()..];
                let num: String = rest
                    .chars()
                    .skip_while(|c| c.is_whitespace())
                    .take_while(|c| c.is_ascii_digit() || *c == '.')
                    .collect();
                if let Ok(v) = num.parse() {
                    return v;
                }
            }
        }
    }
    PRE_OPT_BASELINE_MS
}

fn pool_stats_json(name: &str, s: flash_runtime::PoolStats) -> String {
    format!(
        "    \"{name}\": {{\"hits\": {}, \"misses\": {}, \"bytes_recycled\": {}, \"hit_rate\": {:.4}}}",
        s.hits,
        s.misses,
        s.bytes_recycled,
        s.hit_rate()
    )
}

/// The small HConv layer every HConv timing in this binary runs.
struct HconvFixture {
    cfg: FlashConfig,
    spec: ConvLayerSpec,
    sk: SecretKey,
    x: Vec<i64>,
    w: Vec<i64>,
}

impl HconvFixture {
    fn new() -> Self {
        let cfg = FlashConfig::test_small();
        let spec = ConvLayerSpec {
            name: "bench".into(),
            c: 4,
            h: 8,
            w: 8,
            m: 4,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let sk = SecretKey::generate(&cfg.he, &mut rng);
        let x = spec.sample_input(Quantizer::a4(), &mut rng);
        let w = spec.sample_weights(Quantizer::w4(), &mut rng);
        Self {
            cfg,
            spec,
            sk,
            x,
            w,
        }
    }

    /// The SIMD fixture: production ring degree (`N = 4096`, the paper's
    /// operating point) and a layer whose spatial extent forces the row-
    /// band encoding — `w = 128` (row stride 128, so 32 input rows fit a
    /// tile and `k = 3` leaves 30 output rows per band) and `h = 120`
    /// give 4 bands, and `c = 2` single-channel groups give 2 groups.
    /// That makes 8 activation polynomials and 8-polynomial inverse
    /// batches per output channel — full lane occupancy for the widest
    /// (8-lane) spectral kernels, which the `test_small` fixture
    /// (`N = 256`, one band) never reaches.
    ///
    /// Parameters deviate from `paper_default` in one deliberate way:
    /// `t = 2^13` (ample for 4-bit quantized sums, |Σxw| < 1.9k) and a
    /// near-exact weight datapath (50-bit words, `k = 30` twiddles), so
    /// the §5f noise guard never reroutes bands to the exact-NTT
    /// backend — verified by this layer returning the plaintext conv
    /// bit-exactly with `ntt_fallbacks == 0`. At the paper's
    /// `t = 2^21`/27-bit/`k = 5` point this layer trips the guard for
    /// most bands, and the A/B would time the fallback path instead of
    /// the batched FFT kernels it exists to gate.
    fn simd() -> Self {
        let he = HeParams::new(4096, 36, 1 << 13, 3.2);
        let cfg = FlashConfig {
            arch: FlashArch::paper_default(),
            pe: PeModel::default(),
            numerics: FlashConfig::numerics_for(he.n, 50, 30),
            he,
        };
        let spec = ConvLayerSpec {
            name: "bench-simd".into(),
            c: 2,
            h: 116,
            w: 128,
            m: 2,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let mut rng = StdRng::seed_from_u64(13);
        let sk = SecretKey::generate(&cfg.he, &mut rng);
        let x = spec.sample_input(Quantizer::a4(), &mut rng);
        let w = spec.sample_weights(Quantizer::w4(), &mut rng);
        Self {
            cfg,
            spec,
            sk,
            x,
            w,
        }
    }

    /// Warm-cache single-thread timing of `engine` on the fixture layer:
    /// the minimum over four median-of-`reps` batches.
    ///
    /// Scheduler interference on a shared host is additive and bursty —
    /// a preemption burst can poison a whole batch of sub-millisecond
    /// reps, but never makes a run *faster*. The minimum over several
    /// spaced batches is therefore the stable estimator of the code's
    /// true cost; a single median swings by almost 2x run-to-run here.
    /// Baseline generation and the regression gate share this method, so
    /// both sides of the comparison use the same estimator.
    fn median(&self, engine: &FlashHconv, reps: usize) -> f64 {
        let mut wrng = StdRng::seed_from_u64(5);
        warm_up(200, 3, || {
            engine
                .run_layer(&self.sk, &self.spec, &self.x, &self.w, &mut wrng)
                .expect("bench protocol run failed");
        });
        let mut lrng = StdRng::seed_from_u64(5);
        (0..4)
            .map(|_| {
                median_ms(reps, || {
                    engine
                        .run_layer(&self.sk, &self.spec, &self.x, &self.w, &mut lrng)
                        .expect("bench protocol run failed");
                })
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Re-measures the committed baselines and fails on > 15 %
/// calibration-normalized slowdown.
fn check_regression() -> i32 {
    banner("Regression check: fresh medians vs committed baselines");
    const TOLERANCE: f64 = 1.15;
    flash_runtime::set_threads(1);
    let fixture = HconvFixture::new();
    let engine = FlashHconv::new(fixture.cfg.clone());
    let simd_fixture = HconvFixture::simd();
    let simd_engine = FlashHconv::new(simd_fixture.cfg.clone());
    let mut failures = 0;
    let mut check = |name: &str, file: &str, key: &str, measure: &mut dyn FnMut() -> f64| {
        match std::fs::read_to_string(file) {
            Err(_) => println!("{name:34} no baseline ({file} missing); skipped"),
            Ok(text) => match parse_json_number(&text, key) {
                None => println!("{name:34} no baseline ({file} missing {key}); skipped"),
                Some(base) => {
                    let base_calib = parse_json_number(&text, "calib_ms").filter(|c| *c > 0.0);
                    // Each attempt pairs the benchmark measurement with a
                    // calibration run taken moments before it, and scores
                    // the *smaller* of the raw wall-clock ratio and the
                    // host-speed-normalized ratio. On a quiet host the raw
                    // ratio is exact; under shared-host contention the
                    // normalized ratio divides the slowdown out. (The two
                    // workloads don't slow by identical factors, so either
                    // alone false-fails; a genuine code regression inflates
                    // both, on every attempt.) Up to five attempts, spaced
                    // out so they sample different contention states —
                    // bursts here last seconds.
                    let (mut fresh, mut speed, mut ratio) = (f64::INFINITY, 1.0, f64::INFINITY);
                    for attempt in 0..5 {
                        if attempt > 0 {
                            std::thread::sleep(std::time::Duration::from_millis(500));
                        }
                        // Clamped at 1: a slower host is excused, a faster
                        // host never flatters the ratio.
                        let s = base_calib.map_or(1.0, |bc| calibration_ms() / bc).max(1.0);
                        let f = measure();
                        let r = f / base / s;
                        if r < ratio {
                            (fresh, speed, ratio) = (f, s, r);
                        }
                        if ratio <= TOLERANCE {
                            break;
                        }
                    }
                    let ok = ratio <= TOLERANCE;
                    println!(
                    "{name:34} fresh {fresh:9.3} ms  baseline {base:9.3} ms  host speed {speed:5.2}x  ratio {ratio:5.2}  {}",
                    if ok { "OK" } else { "REGRESSION" }
                );
                    if !ok {
                        failures += 1;
                    }
                }
            },
        }
    };
    check(
        "hconv_layer_hotpath",
        "BENCH_hotpath.json",
        "median_ms",
        &mut || fixture.median(&engine, 5),
    );
    check(
        "hconv_layer_sparse",
        "BENCH_sparse.json",
        "hconv_sparse_median_ms",
        &mut || fixture.median(&engine, 5),
    );
    check(
        "hconv_layer_simd",
        "BENCH_simd.json",
        "hconv_simd_median_ms",
        &mut || simd_fixture.median(&simd_engine, 5),
    );
    check(
        "pow2_mac_kernel",
        "BENCH_backends.json",
        "pow2_mac_ms",
        &mut || pow2_mac_ms(),
    );
    // The end-to-end gate re-runs the `bench_e2e` fixture (one private
    // inference of the fixed synthetic CNN: HE convolutions over shares
    // plus the full 2PC non-linear stack) against the committed
    // `BENCH_e2e.json` baseline.
    check(
        "e2e_private_fixture",
        "BENCH_e2e.json",
        "fixture_ms",
        &mut flash_accel::e2e::fixture_run_ms,
    );
    // The serving gate re-runs the exact wave shape the committed
    // `BENCH_serve.json` was produced from (same fixture module, same
    // fleet size parsed back out of the artifact) and compares the
    // batched-mode cost per request.
    let serve_clients = std::fs::read_to_string("BENCH_serve.json")
        .ok()
        .and_then(|t| parse_json_number(&t, "clients"))
        .map_or(256, |c| c as u64)
        .max(1);
    check(
        "serve_batched_per_request",
        "BENCH_serve.json",
        "batched_ms_per_req",
        &mut || serving::run_wave(BatchPolicy::batched(), 1, serve_clients, 2, false).ms_per_req(),
    );
    // The chaos gate re-runs the clean baseline cell of the committed
    // `BENCH_chaos.json` grid (no faults, no overload, no poison, fleet
    // size parsed back out of the artifact): the cost per request of
    // the fully-armed resilience path — deadline checks, admission
    // gate, containment boundary, watchdog — on healthy traffic.
    let chaos_sessions = std::fs::read_to_string("BENCH_chaos.json")
        .ok()
        .and_then(|t| parse_json_number(&t, "sessions"))
        .map_or(192, |c| c as u64)
        .max(4);
    check(
        "serve_chaos_clean_path",
        "BENCH_chaos.json",
        "clean_ms_per_req",
        &mut || {
            chaos::run_cell(
                &chaos::CellSpec {
                    name: "baseline",
                    fault_fraction: 0.0,
                    overload_x: 1.0,
                    poison: false,
                },
                chaos_sessions,
                2,
                1,
            )
            .ms_per_req()
        },
    );
    flash_runtime::set_threads(0);
    if failures > 0 {
        println!("\nregression check FAILED ({failures} benchmark(s) > 15% slower)");
        1
    } else {
        println!("\nregression check passed");
        0
    }
}

/// The sparse-transform bench: kernel-level tape vs dense FFT on a
/// ResNet-style 3×3 pattern at production degree, end-to-end HConv with
/// the sparse path on vs off, and the plan-cache counters. Returns the
/// `BENCH_sparse.json` payload.
fn sparse_bench(fixture: &HconvFixture, host: usize, rev: &str) -> String {
    // --- Kernel: the weight-transform pattern a 3×3 conv over 32×32
    // feature maps (4 channels packed per ciphertext) produces at
    // N = 4096 — the shape of ResNet's early conv blocks under Cheetah
    // encoding. The pattern comes from the real encoder, not a synthetic
    // mask, so the measured sparsity is the protocol's.
    let n = 4096;
    let shape = ConvShape {
        c: 4,
        h: 32,
        w: 32,
        m: 1,
        k: 3,
    };
    let enc = ConvEncoder::new(shape, n);
    let half = n / 2;
    let mut mask = vec![false; half];
    for idx in enc.weight_indices(0) {
        mask[idx % half] = true;
    }
    let pattern = SparsityPattern::from_mask(mask);
    let plan = SparsePlan::shared(&pattern);
    assert!(plan.worthwhile(), "bench pattern must take the sparse path");

    let mut krng = StdRng::seed_from_u64(41);
    let mut w = vec![0i64; n];
    for idx in enc.weight_indices(0) {
        w[idx] = krng.gen_range(-8..8);
    }
    let wf: Vec<f64> = w.iter().map(|&x| x as f64).collect();
    let fft = flash_fft::NegacyclicFft::new(n);
    let mut out = vec![C64::ZERO; half];
    const KERNEL_ITERS: usize = 200;
    // Warm both paths, then time the same batch of transforms.
    fft.forward_into(&wf, &mut out);
    plan.execute_into(&w, &mut out);
    let dense_ms = median_ms(7, || {
        for _ in 0..KERNEL_ITERS {
            fft.forward_into(&wf, &mut out);
        }
    });
    let sparse_ms = median_ms(7, || {
        for _ in 0..KERNEL_ITERS {
            plan.execute_into(&w, &mut out);
        }
    });
    let kernel_speedup = dense_ms / sparse_ms;
    println!(
        "{:34} n={n}  live {}/{}  dense {:8.2} us  tape {:8.2} us  speedup {:5.2}x",
        "weight_transform_3x3_kernel",
        pattern.count(),
        pattern.len(),
        dense_ms / KERNEL_ITERS as f64 * 1e3,
        sparse_ms / KERNEL_ITERS as f64 * 1e3,
        kernel_speedup
    );

    // --- End-to-end: the hot-path HConv layer with the sparse weight
    // path on vs off (identical outputs, same protocol, same seeds).
    // Fresh telemetry window so the embedded stage breakdown covers the
    // sparse-vs-dense comparison, not the preceding kernel loops.
    flash_telemetry::reset();
    let sparse_engine = FlashHconv::new(fixture.cfg.clone());
    let dense_engine = FlashHconv::new(fixture.cfg.clone()).with_sparse_weights(false);
    // Calibration paired with the end-to-end timing (not with process
    // start): the regression gate divides by this value, so it must
    // reflect the host-contention state of *this* measurement.
    let (calib, hconv_sparse) = paired_median(fixture, &sparse_engine, 5);
    let hconv_dense = fixture.median(&dense_engine, 5);
    let mut srng = StdRng::seed_from_u64(5);
    let (_, stats) = sparse_engine
        .run_layer(
            &fixture.sk,
            &fixture.spec,
            &fixture.x,
            &fixture.w,
            &mut srng,
        )
        .expect("regression run failed");
    println!(
        "{:34} sparse {:9.3} ms  dense {:9.3} ms  speedup {:5.2}x  ({}/{} transforms on tape)",
        "hconv_layer_sparse_vs_dense",
        hconv_sparse,
        hconv_dense,
        hconv_dense / hconv_sparse,
        stats.sparse_weight_transforms,
        stats.weight_transforms
    );

    // --- Plan-cache counters (satellites the pool stats already have).
    let metrics = flash_sparse::plan::plan_cache_metrics();
    println!(
        "{:34} plans {}  uops {}  tape {} B  hit_rate {:.4}",
        "sparse_plan_cache",
        metrics.plans,
        metrics.uops,
        metrics.tape_bytes,
        hit_rate(metrics.stats)
    );

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"git_revision\": \"{rev}\",\n"));
    json.push_str(&simd_json());
    json.push_str(&format!("  \"calib_ms\": {calib:.4},\n"));
    json.push_str("  \"kernel\": {\n");
    json.push_str("    \"name\": \"weight_transform_3x3_resnet_style\",\n");
    json.push_str(&format!("    \"n\": {n},\n"));
    json.push_str(&format!(
        "    \"pattern_live_slots\": {},\n",
        pattern.count()
    ));
    json.push_str(&format!("    \"pattern_slots\": {},\n", pattern.len()));
    json.push_str(&format!("    \"tape_muls\": {},\n", plan.muls()));
    json.push_str(&format!("    \"dense_muls\": {},\n", plan.dense_muls()));
    json.push_str(&format!(
        "    \"dense_median_us\": {:.3},\n",
        dense_ms / KERNEL_ITERS as f64 * 1e3
    ));
    json.push_str(&format!(
        "    \"sparse_median_us\": {:.3},\n",
        sparse_ms / KERNEL_ITERS as f64 * 1e3
    ));
    json.push_str(&format!("    \"speedup\": {kernel_speedup:.3}\n"));
    json.push_str("  },\n");
    json.push_str(&format!("  \"hconv_dense_median_ms\": {hconv_dense:.4},\n"));
    json.push_str(&format!(
        "  \"hconv_sparse_median_ms\": {hconv_sparse:.4},\n"
    ));
    json.push_str(&format!(
        "  \"hconv_speedup\": {:.3},\n",
        hconv_dense / hconv_sparse
    ));
    json.push_str(&format!(
        "  \"sparse_weight_transforms\": {},\n",
        stats.sparse_weight_transforms
    ));
    json.push_str(&format!(
        "  \"weight_transforms\": {},\n",
        stats.weight_transforms
    ));
    json.push_str("  \"plan_cache\": {\n");
    json.push_str(&format!("    \"plans\": {},\n", metrics.plans));
    json.push_str(&format!("    \"uops\": {},\n", metrics.uops));
    json.push_str(&format!("    \"tape_bytes\": {},\n", metrics.tape_bytes));
    json.push_str(&format!("    \"hits\": {},\n", metrics.stats.hits));
    json.push_str(&format!("    \"misses\": {},\n", metrics.stats.misses));
    json.push_str(&format!(
        "    \"hit_rate\": {:.4}\n",
        hit_rate(metrics.stats)
    ));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"telemetry\": {}\n",
        flash_telemetry::snapshot().to_json(2)
    ));
    json.push_str("}\n");
    json
}

/// The SIMD A/B bench: the production-degree [`HconvFixture::simd`]
/// layer with the scalar fallback forced vs the active dispatch tier,
/// reporting both the end-to-end median and the per-span means of the
/// two batched spectral spans (`hconv.activation_fft`,
/// `hconv.inverse_fft`). The stage breakdown needs a
/// `--features telemetry` build; without it only the end-to-end A/B is
/// meaningful and the artifact says so. Returns the `BENCH_simd.json`
/// payload.
fn simd_bench(
    fixture: &HconvFixture,
    host: usize,
    rev: &str,
    run_level: Option<SimdLevel>,
) -> String {
    let engine = FlashHconv::new(fixture.cfg.clone());
    // (end_to_end_ms, activation_p50_ms, inverse_p50_ms, calib_ms)
    let side = |level: SimdLevel| {
        simd::force_level(Some(level));
        let mut wrng = StdRng::seed_from_u64(5);
        warm_up(200, 3, || {
            engine
                .run_layer(
                    &fixture.sk,
                    &fixture.spec,
                    &fixture.x,
                    &fixture.w,
                    &mut wrng,
                )
                .expect("bench protocol run failed");
        });
        flash_telemetry::reset();
        let (calib, e2e) = paired_median(fixture, &engine, 5);
        // Restore the run-wide override (`--no-simd`), not necessarily
        // auto-detection.
        simd::force_level(run_level);
        let snap = flash_telemetry::snapshot();
        // Histogram percentiles are log2-bucket midpoints — adjacent
        // buckets are exactly 2× apart, so a bucketed p50 cannot
        // resolve the very ratio this bench gates on. The mean over
        // every span instance in the timed window (total_ns / count)
        // has continuous resolution and, over dozens of identical
        // fixed-size batches, estimates the same central tendency.
        let mean_ms = |stage: &str| {
            snap.spans
                .iter()
                .find(|(name, _)| *name == stage)
                .map_or(0.0, |(_, h)| h.mean_ns() as f64 / 1e6)
        };
        (
            e2e,
            mean_ms("hconv.activation_fft"),
            mean_ms("hconv.inverse_fft"),
            calib,
            snap.enabled,
        )
    };
    let active = simd::level();
    let (e2e_off, act_off, inv_off, _, _) = side(SimdLevel::Scalar);
    let (e2e_on, act_on, inv_on, calib, telemetry) = side(active);
    let e2e_speedup = e2e_off / e2e_on;
    let stage_off = act_off + inv_off;
    let stage_on = act_on + inv_on;
    let stage_speedup = if stage_on > 0.0 {
        stage_off / stage_on
    } else {
        0.0
    };
    // Amdahl accounting: the two batched spectral stages are only a
    // fraction of the scalar end-to-end (the rest is encode, MAC,
    // mask, serialize — untouched by lane width), so a large stage
    // speedup must shrink to a small end-to-end one. Stamping the
    // shares and the predicted ceiling into the artifact makes that
    // arithmetic auditable instead of looking like a measurement bug.
    let share = |stage_ms: f64| {
        if e2e_off > 0.0 {
            stage_ms / e2e_off
        } else {
            0.0
        }
    };
    let (act_share, inv_share) = (share(act_off), share(inv_off));
    let stage_share = act_share + inv_share;
    let amdahl_predicted = if e2e_off > 0.0 && stage_off > 0.0 {
        // Serial-fraction form of Amdahl's law: only the stage time
        // shrinks (by the measured stage speedup), everything else
        // keeps its scalar cost.
        e2e_off / (e2e_off - stage_off + stage_on)
    } else {
        0.0
    };
    println!(
        "{:34} scalar {:9.3} ms  {} {:9.3} ms  speedup {:5.2}x (end-to-end)",
        "hconv_layer_simd_ab",
        e2e_off,
        active.name(),
        e2e_on,
        e2e_speedup
    );
    if telemetry {
        println!(
            "{:34} scalar {:9.4} ms  {} {:9.4} ms  speedup {:5.2}x (stage mean: activation+inverse)",
            "hconv_fft_stages_simd_ab",
            stage_off,
            active.name(),
            stage_on,
            stage_speedup
        );
        println!(
            "{:34} stages are {:.1}% of scalar e2e; {stage_speedup:.2}x stage speedup predicts {amdahl_predicted:.2}x e2e (measured {e2e_speedup:.2}x)",
            "hconv_simd_amdahl",
            stage_share * 100.0
        );
    } else {
        println!("note: built without `--features telemetry`; stage breakdown unavailable");
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"hconv_simd_ab\",\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"git_revision\": \"{rev}\",\n"));
    json.push_str(&simd_json());
    json.push_str(&format!("  \"calib_ms\": {calib:.4},\n"));
    json.push_str(&format!("  \"telemetry_enabled\": {telemetry},\n"));
    json.push_str(&format!("  \"hconv_scalar_median_ms\": {e2e_off:.4},\n"));
    json.push_str(&format!("  \"hconv_simd_median_ms\": {e2e_on:.4},\n"));
    json.push_str(&format!("  \"hconv_speedup\": {e2e_speedup:.3},\n"));
    json.push_str("  \"stages\": {\n");
    json.push_str("    \"estimator\": \"mean over all span instances in the timed window\",\n");
    json.push_str(&format!(
        "    \"activation_fft_scalar_ms\": {act_off:.5},\n"
    ));
    json.push_str(&format!("    \"activation_fft_simd_ms\": {act_on:.5},\n"));
    json.push_str(&format!("    \"inverse_fft_scalar_ms\": {inv_off:.5},\n"));
    json.push_str(&format!("    \"inverse_fft_simd_ms\": {inv_on:.5},\n"));
    json.push_str(&format!("    \"combined_scalar_ms\": {stage_off:.5},\n"));
    json.push_str(&format!("    \"combined_simd_ms\": {stage_on:.5},\n"));
    json.push_str(&format!("    \"combined_speedup\": {stage_speedup:.3},\n"));
    json.push_str(&format!(
        "    \"activation_fft_share_of_scalar_e2e\": {act_share:.4},\n"
    ));
    json.push_str(&format!(
        "    \"inverse_fft_share_of_scalar_e2e\": {inv_share:.4},\n"
    ));
    json.push_str(&format!(
        "    \"combined_share_of_scalar_e2e\": {stage_share:.4},\n"
    ));
    json.push_str(&format!(
        "    \"amdahl_predicted_e2e_speedup\": {amdahl_predicted:.3}\n"
    ));
    json.push_str("  }\n");
    json.push_str("}\n");
    json
}

fn hit_rate(s: flash_runtime::CacheStats) -> f64 {
    let total = s.hits + s.misses;
    if total == 0 {
        0.0
    } else {
        s.hits as f64 / total as f64
    }
}

/// Prints the per-stage latency table of a [`flash_telemetry`] snapshot
/// (plus cache/pool hit rates), as shown by `--stages`.
fn print_stage_table(snap: &flash_telemetry::Snapshot) {
    if !snap.enabled {
        println!("note: built without `--features telemetry`; stage timings are all zero");
    }
    println!(
        "{:28} {:>7} {:>11} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "total_ms", "mean_us", "p50_us", "p99_us", "max_us"
    );
    for (name, h) in &snap.spans {
        println!(
            "{name:28} {:>7} {:>11.3} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            h.count,
            h.total_ns as f64 / 1e6,
            h.mean_ns() as f64 / 1e3,
            h.p50_ns as f64 / 1e3,
            h.p99_ns as f64 / 1e3,
            h.max_ns as f64 / 1e3,
        );
    }
    for c in &snap.caches {
        println!(
            "cache {:22} {:>7} hits {:>7} misses",
            c.name, c.hits, c.misses
        );
    }
    for p in &snap.pools {
        println!(
            "pool  {:22} {:>7} hits {:>7} misses  hit_rate {:.4}",
            p.name, p.hits, p.misses, p.hit_rate
        );
    }
}

/// `--stages`: run the warm single-thread HConv layer a few times with a
/// clean telemetry window and print the per-stage breakdown.
fn stage_report() {
    banner("Per-stage breakdown: warm single-thread HConv layer");
    flash_runtime::set_threads(1);
    let fixture = HconvFixture::new();
    let engine = FlashHconv::new(fixture.cfg.clone());
    let mut wrng = StdRng::seed_from_u64(5);
    warm_up(200, 3, || {
        engine
            .run_layer(
                &fixture.sk,
                &fixture.spec,
                &fixture.x,
                &fixture.w,
                &mut wrng,
            )
            .expect("bench protocol run failed");
    });
    flash_telemetry::reset();
    let mut lrng = StdRng::seed_from_u64(5);
    for _ in 0..5 {
        engine
            .run_layer(
                &fixture.sk,
                &fixture.spec,
                &fixture.x,
                &fixture.w,
                &mut lrng,
            )
            .expect("bench protocol run failed");
    }
    flash_runtime::set_threads(0);
    let snap = flash_telemetry::snapshot();
    print_stage_table(&snap);

    // Robustness counters of the same window. The bench link is clean,
    // so any detected fault, retransmission, or noise-guard fallback
    // here means the wire path or the guard mis-fires on healthy
    // traffic — fail loudly rather than publish a poisoned baseline.
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    };
    println!(
        "wire  {:22} {:>9} up {:>9} down (framed bytes)",
        "bytes",
        counter("twopc.upload_wire_bytes"),
        counter("twopc.download_wire_bytes"),
    );
    for name in [
        "twopc.faults_detected",
        "twopc.frames_retried",
        "hconv.ntt_fallbacks",
        "hconv.pow2_fallbacks",
    ] {
        let v = counter(name);
        println!("fault {name:22} {v:>9}");
        assert_eq!(v, 0, "{name} must stay zero on a clean bench run");
    }
}

/// MAC-kernel A/B fixture shared by `--backends` and the regression
/// gate: `MAC_CALLS_PER_DRAIN` full-width lazy multiply-accumulates into
/// one `MAC_N`-coefficient accumulator, then one drain — the per-
/// `(oc, band)` cadence of the protocol's pointwise stage (one MAC per
/// channel group, one reduction per response). Both sides run the exact
/// loop shape; only the reduction strategy differs.
const MAC_N: usize = 4096;
const MAC_CALLS_PER_DRAIN: usize = 8;
const MAC_ITERS: usize = 50;

fn mac_operands(q: u64) -> (Vec<u64>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(29);
    let a: Vec<u64> = (0..MAC_N).map(|_| rng.gen_range(0..q)).collect();
    let w: Vec<u64> = (0..MAC_N).map(|_| rng.gen_range(0..q)).collect();
    (a, w)
}

/// Median of one prime-modulus MAC batch: the Harvey-lazy split-stream
/// Shoup kernel (no per-element reduction) with a Barrett drain per
/// accumulation group — the fastest MAC form the prime ring has.
fn prime_mac_ms() -> f64 {
    let p = HeParams::flash_default();
    let q = p.q;
    let (a, w) = mac_operands(q);
    let w_shoup: Vec<u64> = w
        .iter()
        .map(|&x| (((x as u128) << 64) / q as u128) as u64)
        .collect();
    let barrett = Barrett::new(q);
    let mut acc = vec![0u64; MAC_N];
    let mut batch = || {
        for _ in 0..MAC_ITERS {
            for _ in 0..MAC_CALLS_PER_DRAIN {
                pointwise_mul_acc_shoup_lazy(&mut acc, &a, &w, &w_shoup, p.ntt());
            }
            barrett.reduce_slice(&mut acc);
        }
    };
    batch(); // warm
    median_ms(7, batch)
}

/// Median of one power-of-two MAC batch: plain wrapping multiply-add
/// (`flash_math::pow2::mac_wrapping`, zero reduction work) with a
/// one-AND-per-element mask drain, at `q = 2^62`.
fn pow2_mac_ms() -> f64 {
    let q = 1u64 << 62;
    let (a, w) = mac_operands(q);
    let mut acc = vec![0u64; MAC_N];
    let mut batch = || {
        for _ in 0..MAC_ITERS {
            for _ in 0..MAC_CALLS_PER_DRAIN {
                pow2::mac_wrapping(&mut acc, &a, &w);
            }
            pow2::reduce_slice(&mut acc, q);
        }
    };
    batch(); // warm
    median_ms(7, batch)
}

/// One cell of the backend matrix.
struct BackendRow {
    backend: &'static str,
    layer: &'static str,
    n: usize,
    modulus_bits: u32,
    median_ms: f64,
    worst_bound_bits: f64,
    ceiling_bits: f64,
    headroom_bits: f64,
    fallbacks: usize,
}

/// Runs one layer end-to-end under `backend`: verifies the decrypted
/// reconstruction against the signed cleartext convolution (the
/// acceptance condition — the recorded per-band bound keeps transform
/// error below the decrypt rounding threshold), replays the runtime
/// guard's worst-case composed noise bound over every `(oc, band)` job,
/// and times the full protocol.
fn backend_matrix_row(
    backend_name: &'static str,
    layer: &'static str,
    params: HeParams,
    backend: PolyMulBackend,
    shape: ConvShape,
    reps: usize,
) -> BackendRow {
    let mut rng = StdRng::seed_from_u64(17);
    let sk = SecretKey::generate(&params, &mut rng);
    let x: Vec<i64> = (0..shape.input_len())
        .map(|_| rng.gen_range(-8..8))
        .collect();
    let w: Vec<i64> = (0..shape.m * shape.kernel_len())
        .map(|_| rng.gen_range(-8..8))
        .collect();
    let proto = ConvProtocol::new(params.clone(), shape, backend);

    let (shares, stats) = proto.run(&sk, &x, &w, &mut rng).expect("matrix run failed");
    let got = proto.reconstruct(&shares);
    let want = expected_conv_mod(&x, &w, &shape, proto.ring());
    assert_eq!(
        got, want,
        "{backend_name}/{layer}: decrypted output diverged from the exact reference"
    );

    // Worst-case composed bound over every (oc, band) job — the guard's
    // own expression (exact-pipeline bound plus the backend's analytical
    // transform error), asked of the pipeline the run just used.
    let enc = proto.encoder();
    let mut worst = 0.0f64;
    for oc in 0..shape.m {
        let w_polys = enc.encode_weight(&w[oc * shape.kernel_len()..][..shape.kernel_len()], oc);
        for b in 0..enc.bands() {
            let (nb, err) = proto.server().band_noise(&w_polys, b);
            worst = worst.max(nb.bound() + err.unwrap_or(0.0));
        }
    }
    let ceiling = params.noise_ceiling() as f64;

    let mut lrng = StdRng::seed_from_u64(23);
    let median = median_ms(reps, || {
        proto
            .run(&sk, &x, &w, &mut lrng)
            .expect("matrix run failed");
    });
    BackendRow {
        backend: backend_name,
        layer,
        n: params.n,
        modulus_bits: (params.q as f64).log2().ceil() as u32,
        median_ms: median,
        worst_bound_bits: worst.log2(),
        ceiling_bits: ceiling.log2(),
        headroom_bits: (ceiling / worst).log2(),
        fallbacks: stats.ntt_fallbacks + stats.pow2_fallbacks,
    }
}

/// `--backends`: the ciphertext-backend A/B suite. Kernel-level MAC
/// comparison (gated at ≥ 1.3× for the wrapping side unless `quick`)
/// plus the end-to-end backend matrix; writes `BENCH_backends.json`
/// unless `quick`.
fn backends_bench(quick: bool) {
    banner("Backend A/B: prime Harvey-lazy MAC vs power-of-two wrapping MAC");
    flash_runtime::set_threads(1);
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rev = git_revision();

    // --- Kernel A/B, calibration-paired (the regression gate divides a
    // fresh calibration by `calib_ms`). Per-value minimum over spaced
    // attempts: contention only ever adds time.
    let (mut calib, mut prime_ms, mut pw2_ms) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        calib = calib.min(calibration_ms());
        prime_ms = prime_ms.min(prime_mac_ms());
        pw2_ms = pw2_ms.min(pow2_mac_ms());
    }
    let kernel_speedup = prime_ms / pw2_ms;
    let macs = MAC_ITERS * MAC_CALLS_PER_DRAIN * MAC_N;
    println!(
        "{:34} n={MAC_N}  {macs} MACs/batch  shoup-lazy+barrett {prime_ms:8.3} ms  wrap+mask {pw2_ms:8.3} ms  speedup {kernel_speedup:5.2}x",
        "pointwise_mac_kernel"
    );
    if quick {
        println!("note: --quick smoke; kernel speedup is reported, not gated");
    } else {
        assert!(
            kernel_speedup >= 1.3,
            "pow2 MAC kernel speedup {kernel_speedup:.2}x fell below the 1.3x acceptance floor"
        );
    }

    // --- Protocol matrix: exact-NTT vs approx-FFT vs Pow2, end to end.
    // The approximate backend runs the generous 50-bit/k=30 datapath: on
    // the small layer the guard keeps every band hot, while the
    // 64-channel layer's Σw² pushes its composed bound past the 36-bit
    // prime ceiling and the guard reroutes every band — exactly the
    // regime where the power-of-two ring's 2^62 ceiling keeps the
    // approximate path hot. The matrix records both, fallbacks included.
    flash_telemetry::reset();
    let small = ConvShape {
        c: 4,
        h: 8,
        w: 8,
        m: 4,
        k: 3,
    };
    // ResNet-18 conv2_x-shaped: 64 channels over 16×16 maps, 3×3.
    let conv2x = ConvShape {
        c: 64,
        h: 16,
        w: 16,
        m: 8,
        k: 3,
    };
    let mut rows = Vec::new();
    let mut layer_rows = |layer: &'static str, shape: ConvShape, n: usize, reps: usize| {
        let prime = HeParams::new(n, 36, 1 << 13, 3.2);
        let pw2 = HeParams::new_pow2(n, 62, 1 << 13, 3.2);
        let approx = PolyMulBackend::approx(FlashConfig::numerics_for(n, 50, 30));
        rows.push(backend_matrix_row(
            "exact-ntt",
            layer,
            prime.clone(),
            PolyMulBackend::Ntt,
            shape,
            reps,
        ));
        rows.push(backend_matrix_row(
            "approx-fft",
            layer,
            prime,
            approx,
            shape,
            reps,
        ));
        rows.push(backend_matrix_row(
            "pow2-wrap",
            layer,
            pw2,
            PolyMulBackend::Pow2,
            shape,
            reps,
        ));
    };
    layer_rows("small-3x3", small, 256, 5);
    if !quick {
        layer_rows("conv2x-64ch", conv2x, 1024, 3);
    }
    for r in &rows {
        println!(
            "{:14} {:12} n={:5} q~2^{:2}  median {:9.3} ms  bound 2^{:5.1} / ceiling 2^{:4.1} (headroom {:5.1} bits)  fallbacks {}",
            r.backend,
            r.layer,
            r.n,
            r.modulus_bits,
            r.median_ms,
            r.worst_bound_bits,
            r.ceiling_bits,
            r.headroom_bits,
            r.fallbacks
        );
    }
    // The pow2 rows must have run hot: at q = 2^62 the composed bound
    // sits dozens of bits under the ceiling, so a single guard reroute
    // here means the bound composition regressed.
    for r in rows.iter().filter(|r| r.backend == "pow2-wrap") {
        assert_eq!(
            r.fallbacks, 0,
            "pow2 {} tripped the noise guard on a layer with 2^{:.1} bits of headroom",
            r.layer, r.headroom_bits
        );
    }
    for layer in ["small-3x3", "conv2x-64ch"] {
        let of = |backend: &str| {
            rows.iter()
                .find(|r| r.backend == backend && r.layer == layer)
                .map(|r| r.median_ms)
        };
        if let (Some(ntt), Some(fft), Some(p2)) =
            (of("exact-ntt"), of("approx-fft"), of("pow2-wrap"))
        {
            println!(
                "{:34} {layer:12} pow2 {:5.2}x vs exact-ntt, {:5.2}x vs approx-fft",
                "backend_matrix_speedup",
                ntt / p2,
                fft / p2
            );
        }
    }
    flash_runtime::set_threads(0);

    if quick {
        println!("note: --quick leaves the committed BENCH_backends.json untouched");
        return;
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"backend_matrix\",\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"git_revision\": \"{rev}\",\n"));
    json.push_str(&simd_json());
    json.push_str(&format!("  \"calib_ms\": {calib:.4},\n"));
    json.push_str("  \"kernel\": {\n");
    json.push_str("    \"name\": \"pointwise_mac_drain\",\n");
    json.push_str(&format!("    \"n\": {MAC_N},\n"));
    json.push_str(&format!(
        "    \"calls_per_drain\": {MAC_CALLS_PER_DRAIN},\n"
    ));
    json.push_str(&format!("    \"prime_lazy_shoup_ms\": {prime_ms:.4},\n"));
    json.push_str(&format!("    \"pow2_mac_ms\": {pw2_ms:.4},\n"));
    json.push_str(&format!("    \"speedup\": {kernel_speedup:.3}\n"));
    json.push_str("  },\n");
    json.push_str("  \"matrix\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"layer\": \"{}\", \"n\": {}, \"modulus_bits\": {}, \"median_ms\": {:.4}, \"worst_bound_bits\": {:.2}, \"noise_ceiling_bits\": {:.2}, \"headroom_bits\": {:.2}, \"fallbacks\": {}, \"output_exact\": true}}{}\n",
            r.backend,
            r.layer,
            r.n,
            r.modulus_bits,
            r.median_ms,
            r.worst_bound_bits,
            r.ceiling_bits,
            r.headroom_bits,
            r.fallbacks,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"telemetry\": {}\n",
        flash_telemetry::snapshot().to_json(2)
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_backends.json", &json).expect("write BENCH_backends.json");
    println!("wrote BENCH_backends.json");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // `--no-simd`: the A/B switch. Forces the scalar fallback for the
    // whole run (equivalent to `FLASH_SIMD=off`), so two invocations —
    // with and without the flag — compare the dispatch tiers on every
    // bench in this binary. Note the regression gate's committed
    // baselines are produced with full dispatch; `--no-simd
    // --check-regression` is for experiments, not gating.
    let no_simd = std::env::args().any(|a| a == "--no-simd");
    let run_level = no_simd.then_some(SimdLevel::Scalar);
    simd::force_level(run_level);
    if std::env::args().any(|a| a == "--check-regression") {
        std::process::exit(check_regression());
    }
    if std::env::args().any(|a| a == "--stages") {
        stage_report();
        return;
    }
    if std::env::args().any(|a| a == "--backends") {
        backends_bench(quick);
        return;
    }
    banner("Runtime benchmark: parallel hot paths + plan cache");
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rev = git_revision();
    let many = host.max(4);
    // Thread counts above the host's parallelism only measure scheduler
    // noise (workers time-slice one core), so they are skipped rather
    // than reported as if they were parallel speedups.
    let oversubscribed = many > host;
    let mut rows: Vec<Row> = Vec::new();

    // --- HConv layer (functional engine, small parameters).
    let fixture = HconvFixture::new();
    let engine = FlashHconv::new(fixture.cfg.clone());
    let hconv_run = |threads: usize| {
        flash_runtime::set_threads(threads);
        let mut lrng = StdRng::seed_from_u64(5);
        median_ms(5, || {
            engine
                .run_layer(
                    &fixture.sk,
                    &fixture.spec,
                    &fixture.x,
                    &fixture.w,
                    &mut lrng,
                )
                .expect("bench protocol run failed");
        })
    };

    // --- Hot-path bench: warm-cache single-thread HConv vs the
    // pre-optimization baseline. Parse the baseline *before* anything
    // overwrites BENCH_runtime.json.
    let baseline = baseline_hconv_ms();
    flash_runtime::set_threads(1);
    {
        // Warm up: populate scratch pools and transform-plan caches so
        // the timed region measures the steady state the pools exist for.
        let mut wrng = StdRng::seed_from_u64(5);
        warm_up(200, 3, || {
            engine
                .run_layer(
                    &fixture.sk,
                    &fixture.spec,
                    &fixture.x,
                    &fixture.w,
                    &mut wrng,
                )
                .expect("bench protocol run failed");
        });
    }
    flash_runtime::U64_SCRATCH.reset_stats();
    flash_runtime::F64_SCRATCH.reset_stats();
    flash_runtime::I128_SCRATCH.reset_stats();
    flash_fft::C64_SCRATCH.reset_stats();
    // Clean telemetry window: the embedded stage breakdown covers only
    // the timed hot-path runs, not the warm-up.
    flash_telemetry::reset();
    let (calib, hot) = paired_median(&fixture, &engine, 5);
    let speedup = baseline / hot;
    println!(
        "{:34} threads= 1  median {:9.3} ms  baseline {:9.3} ms  speedup {:5.2}x",
        "hconv_layer_hotpath", hot, baseline, speedup
    );
    let mut hot_json = String::from("{\n");
    hot_json.push_str("  \"bench\": \"hconv_layer_hotpath\",\n");
    hot_json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    hot_json.push_str(&format!("  \"git_revision\": \"{rev}\",\n"));
    hot_json.push_str(&simd_json());
    hot_json.push_str("  \"threads\": 1,\n");
    hot_json.push_str("  \"warm_cache\": true,\n");
    hot_json.push_str(&format!("  \"calib_ms\": {calib:.4},\n"));
    hot_json.push_str(&format!("  \"median_ms\": {hot:.4},\n"));
    hot_json.push_str(&format!("  \"baseline_median_ms\": {baseline:.4},\n"));
    hot_json.push_str(&format!("  \"speedup\": {speedup:.3},\n"));
    hot_json.push_str("  \"pool_stats\": {\n");
    let pools = [
        pool_stats_json("u64", flash_runtime::U64_SCRATCH.stats()),
        pool_stats_json("f64", flash_runtime::F64_SCRATCH.stats()),
        pool_stats_json("i128", flash_runtime::I128_SCRATCH.stats()),
        pool_stats_json("c64", flash_fft::C64_SCRATCH.stats()),
    ];
    hot_json.push_str(&pools.join(",\n"));
    hot_json.push_str("\n  },\n");
    hot_json.push_str(&format!(
        "  \"telemetry\": {}\n",
        flash_telemetry::snapshot().to_json(2)
    ));
    hot_json.push_str("}\n");
    std::fs::write("BENCH_hotpath.json", &hot_json).expect("write BENCH_hotpath.json");
    println!("wrote BENCH_hotpath.json");

    // --- Sparse-transform bench (kernel + end-to-end + plan cache).
    let sparse_json = sparse_bench(&fixture, host, &rev);
    std::fs::write("BENCH_sparse.json", &sparse_json).expect("write BENCH_sparse.json");
    println!("wrote BENCH_sparse.json");

    // --- SIMD A/B bench (scalar fallback vs active dispatch tier) at
    // production degree with full lane occupancy.
    let simd_fixture = HconvFixture::simd();
    let simd_ab = simd_bench(&simd_fixture, host, &rev, run_level);
    std::fs::write("BENCH_simd.json", &simd_ab).expect("write BENCH_simd.json");
    println!("wrote BENCH_simd.json");
    if quick {
        flash_runtime::set_threads(0);
        return;
    }
    let h1 = hconv_run(1);
    rows.push(Row {
        name: "hconv_layer",
        threads: 1,
        median_ms: h1,
        speedup: 1.0,
    });
    if !oversubscribed {
        let hn = hconv_run(many);
        rows.push(Row {
            name: "hconv_layer",
            threads: many,
            median_ms: hn,
            speedup: h1 / hn,
        });
    }

    // --- ResNet-18 network performance model at N = 4096. The symbolic
    // analysis memo is cleared per iteration so each run does the full
    // per-layer work the parallel fan-out is meant to hide.
    let cfg = FlashConfig::paper_default();
    let net = resnet18_conv_layers();
    let net_run = |threads: usize| {
        flash_runtime::set_threads(threads);
        median_ms(7, || {
            flash_sparse::symbolic::clear_analysis_cache();
            let _ = run_network(&net, &cfg);
        })
    };
    let n1 = net_run(1);
    rows.push(Row {
        name: "run_network_resnet18",
        threads: 1,
        median_ms: n1,
        speedup: 1.0,
    });
    if !oversubscribed {
        let nn = net_run(many);
        rows.push(Row {
            name: "run_network_resnet18",
            threads: many,
            median_ms: nn,
            speedup: n1 / nn,
        });
    }

    // --- Memoization win on the same model (warm memo, any threads).
    flash_runtime::set_threads(1);
    let warm = median_ms(7, || {
        let _ = run_network(&net, &cfg);
    });
    rows.push(Row {
        name: "run_network_resnet18_warm_cache",
        threads: 1,
        median_ms: warm,
        speedup: n1 / warm,
    });

    // --- DSE candidate batch (256 analytical evaluations).
    let objective = Objective::from_layer(DesignSpace::flash_default(2048), 9, 8.0, 1024.0);
    let dse_run = |threads: usize| {
        flash_runtime::set_threads(threads);
        let mut drng = StdRng::seed_from_u64(23);
        median_ms(5, || {
            let _ = random_search(&objective, 256, &mut drng);
        })
    };
    let d1 = dse_run(1);
    rows.push(Row {
        name: "dse_eval_batch",
        threads: 1,
        median_ms: d1,
        speedup: 1.0,
    });
    if !oversubscribed {
        let dn = dse_run(many);
        rows.push(Row {
            name: "dse_eval_batch",
            threads: many,
            median_ms: dn,
            speedup: d1 / dn,
        });
    }
    flash_runtime::set_threads(0);

    // --- Report.
    for r in &rows {
        println!(
            "{:34} threads={:2}  median {:9.3} ms  speedup {:5.2}x",
            r.name, r.threads, r.median_ms, r.speedup
        );
    }
    if oversubscribed {
        println!(
            "skipped threads={many} rows: host_parallelism={host} cannot run them in parallel"
        );
    }
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"git_revision\": \"{rev}\",\n"));
    json.push_str(&simd_json());
    if oversubscribed {
        json.push_str("  \"threads_compared\": [1],\n");
        json.push_str(&format!(
            "  \"skipped_oversubscribed_threads\": [{many}],\n"
        ));
    } else {
        json.push_str(&format!("  \"threads_compared\": [1, {many}],\n"));
    }
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"threads\": {}, \"median_ms\": {:.4}, \"speedup\": {:.3}}}{}\n",
            r.name,
            r.threads,
            r.median_ms,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"telemetry\": {}\n",
        flash_telemetry::snapshot().to_json(2)
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_runtime.json", &json).expect("write BENCH_runtime.json");
    println!("\nwrote BENCH_runtime.json");
}
