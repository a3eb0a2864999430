//! Cross-model validation: the sparse dataflow's counts, the transforms
//! that execute and the analytical error models must all tell one story.

use flash_accel::workload::layer_workload;
use flash_fft::error::{analytical_product_error_variance, monte_carlo_error, ErrorWorkload};
use flash_fft::fixed_fft::FixedNegacyclicFft;
use flash_fft::{ApproxFftConfig, NegacyclicFft};
use flash_he::encoding::{ConvEncoder, ConvShape, TileAlignment};
use flash_math::fixed::FxpFormat;
use flash_math::C64;
use flash_nn::layers::ConvLayerSpec;
use flash_sparse::{SparsePlan, SparsityPattern};
use rand::{Rng, SeedableRng};

/// The plan's counts and its µop tape come from one walk: wherever the
/// counts claim a butterfly was skipped, the tape's output still matches
/// the dense transform.
#[test]
fn counting_and_execution_agree_on_real_patterns() {
    let n = 4096;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for (c, h, k) in [(1usize, 58usize, 3usize), (4, 30, 3), (16, 16, 1)] {
        let shape = ConvShape {
            c,
            h,
            w: h,
            m: 1,
            k,
        };
        let enc = ConvEncoder::with_alignment(shape, n, TileAlignment::PowerOfTwo);
        let idx = enc.weight_indices(0);
        let mut w = vec![0.0f64; n];
        for &i in &idx {
            w[i] = rng.gen_range(-8.0..8.0);
        }
        let plan = SparsePlan::compile(&SparsityPattern::folded(n, idx));
        let counts = plan.counts();
        assert!(counts.mults() < counts.dense_mults() / 4, "({c},{h},{k})");

        let mut got = vec![C64::ZERO; n / 2];
        plan.execute_f64_into(&w, &mut got);
        let want = NegacyclicFft::new(n).forward(&w);
        let err = got
            .iter()
            .zip(&want)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-6, "({c},{h},{k}): tape error {err}");
    }
}

/// Workload extraction is consistent with the encoder it is built on.
#[test]
fn workload_counts_match_encoder_plan() {
    let n = 4096;
    for (c, h, m, k, stride) in [
        (64usize, 56usize, 64usize, 3usize, 1usize),
        (256, 14, 512, 1, 1),
        (64, 56, 128, 3, 2),
        (64, 56, 128, 1, 2),
    ] {
        let spec = ConvLayerSpec {
            name: "x".into(),
            c,
            h,
            w: h,
            m,
            k,
            stride,
            pad: if k == 3 { 1 } else { 0 },
        };
        let w = layer_workload(&spec, n);
        let enc = ConvEncoder::with_alignment(spec.encoded_shape(), n, TileAlignment::PowerOfTwo);
        assert_eq!(
            w.weight_transforms,
            (enc.groups() * m) as u64,
            "({c},{h},{m},{k},{stride})"
        );
        assert_eq!(w.act_transforms, (2 * enc.groups() * enc.bands()) as u64);
        assert_eq!(w.pointwise, (enc.groups() * enc.bands() * m * n) as u64);
    }
}

/// The analytical error model brackets bit-accurate Monte Carlo across
/// operating points.
#[test]
fn analytical_error_model_tracks_monte_carlo() {
    let n = 512;
    let wl = ErrorWorkload {
        weight_mag: 8,
        weight_nnz: 9,
        act_mag: 4096.0,
    };
    for (frac, k) in [(10u32, 8usize), (16, 12), (22, 18)] {
        let cfg = ApproxFftConfig::uniform(n, FxpFormat::new(16, frac), k);
        let mut rng = rand::rngs::StdRng::seed_from_u64(frac as u64);
        let mc = monte_carlo_error(&cfg, wl, 3, &mut rng);
        let w_var = 9.0 / n as f64 * (8.0 * 9.0 / 3.0);
        let a_var = 4096.0f64 * 4096.0 / 3.0;
        let ana = analytical_product_error_variance(&cfg, w_var, a_var);
        let ratio = ana / mc.variance.max(1e-30);
        assert!(
            (1e-2..1e2).contains(&ratio),
            "frac={frac} k={k}: analytical {ana:.3e} vs MC {:.3e}",
            mc.variance
        );
    }
}

/// The fixed-point transform degrades gracefully and monotonically along
/// the DSE axes (coarser data width and twiddle level never help).
#[test]
fn error_monotone_along_dse_axes() {
    let n = 256;
    let a: Vec<i64> = (0..n as i64).map(|i| (i % 15) - 7).collect();
    let rms = |cfg: ApproxFftConfig| {
        let f = FixedNegacyclicFft::new(cfg);
        f.spectrum_error(&a)
            .iter()
            .map(|e| e.abs2())
            .sum::<f64>()
            .sqrt()
    };
    // fraction-bit axis at fixed k
    let coarse = rms(ApproxFftConfig::uniform(n, FxpFormat::new(16, 6), 16));
    let fine = rms(ApproxFftConfig::uniform(n, FxpFormat::new(16, 20), 16));
    assert!(coarse > fine * 5.0, "frac axis: {coarse} vs {fine}");
    // twiddle axis at fixed width
    let coarse_k = rms(ApproxFftConfig::uniform(n, FxpFormat::new(16, 22), 3));
    let fine_k = rms(ApproxFftConfig::uniform(n, FxpFormat::new(16, 22), 16));
    assert!(coarse_k > fine_k * 5.0, "k axis: {coarse_k} vs {fine_k}");
}

/// The analytic schedule and the event-driven simulator agree at network
/// scale: summed simulated makespans bracket the analytic per-layer sums
/// within the pipelining slack.
#[test]
fn network_sim_brackets_analytic_schedule() {
    use flash_accel::schedule::schedule_layer;
    use flash_accel::sim::simulate_layer;
    use flash_hw::arch::FlashArch;
    use flash_sparse::schedule::PeModel;
    let arch = FlashArch::paper_default();
    let pe = PeModel::default();
    let net = flash_nn::resnet18_conv_layers();
    let mut analytic_total = 0u64;
    let mut sim_total = 0u64;
    for spec in &net.convs {
        let w = layer_workload(spec, 4096);
        analytic_total += schedule_layer(&w, &arch, &pe).cycles;
        sim_total += simulate_layer(&w, &arch, &pe).finish;
    }
    let ratio = sim_total as f64 / analytic_total as f64;
    assert!(
        (0.8..2.5).contains(&ratio),
        "sim {sim_total} vs analytic {analytic_total} (ratio {ratio})"
    );
}

/// The schedule model is self-consistent: dense always costs at least as
/// much as sparse, and cycles scale with transform counts.
#[test]
fn schedule_model_self_consistent() {
    use flash_accel::schedule::schedule_layer;
    use flash_hw::arch::FlashArch;
    use flash_sparse::schedule::PeModel;
    let arch = FlashArch::paper_default();
    let pe = PeModel::default();
    let spec = ConvLayerSpec {
        name: "s".into(),
        c: 64,
        h: 28,
        w: 28,
        m: 64,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let w = layer_workload(&spec, 4096);
    let perf = schedule_layer(&w, &arch, &pe);
    let mut dense = w.clone();
    dense.weight_mults_sparse_each = dense.weight_mults_dense_each;
    let perf_dense = schedule_layer(&dense, &arch, &pe);
    assert!(perf_dense.weight_cycles > 4 * perf.weight_cycles);
    assert!(perf_dense.cycles >= perf.cycles);

    let mut doubled = w.clone();
    doubled.accumulate(&w);
    let perf2 = schedule_layer(&doubled, &arch, &pe);
    assert!(perf2.weight_cycles >= 2 * perf.weight_cycles - 1000);
}
