//! End-to-end private-inference runs over all linear layers of a network
//! — the data of Table IV (latency, accuracy) and Figure 11(d)(e)
//! (energy ablation).

use crate::config::FlashConfig;
use crate::schedule::{layer_chip_energy_uj, layer_energy, schedule_layer, LayerPerf};
use crate::workload::{layer_workload, LayerWorkload};
use flash_fft::error::{monte_carlo_error, ErrorWorkload};
use flash_hw::baselines::ChamModel;
use flash_hw::cost::CostModel;
use flash_hw::energy::{f1_chip_energy_uj, DesignPoint, EnergyReport};
use flash_nn::quant::Requantizer;
use flash_nn::robustness::{layer_flip_rate, MarginModel};
use flash_nn::Network;
use rand::SeedableRng;

/// One layer's results within a network run.
#[derive(Debug, Clone)]
pub struct LayerRun {
    /// The extracted workload.
    pub workload: LayerWorkload,
    /// Scheduled performance.
    pub perf: LayerPerf,
    /// Bottom-up datapath energy.
    pub energy: EnergyReport,
    /// Chip-level energy in µJ.
    pub chip_energy_uj: f64,
}

/// Whole-network results.
#[derive(Debug, Clone)]
pub struct NetworkRun {
    /// Network name.
    pub name: String,
    /// Per-layer results.
    pub layers: Vec<LayerRun>,
    /// Total FLASH latency over all linear layers (seconds), summing each
    /// layer's busiest engine including the point-wise array.
    pub total_latency_s: f64,
    /// Transform-side latency with cross-layer overlap (seconds): the
    /// busiest of the weight array and the FP array over the whole
    /// network. This is the Table-IV metric — the paper's latency counts
    /// transform work and explicitly leaves the point-wise stage as the
    /// "new bottleneck … focus of future research".
    pub transform_latency_s: f64,
    /// Total chip-level energy (power × busy time, µJ).
    pub total_chip_energy_uj: f64,
    /// Total bottom-up datapath energy (µJ).
    pub total_datapath_energy_uj: f64,
    /// CHAM-model latency for the same layers (seconds).
    pub cham_latency_s: f64,
    /// F1 energy for the same workload: chip-level transform energy plus
    /// its modular point-wise datapath (µJ).
    pub f1_energy_uj: f64,
}

impl NetworkRun {
    /// FLASH speedup over the CHAM model (Table IV; transform-side
    /// latency on both sides).
    pub fn speedup_vs_cham(&self) -> f64 {
        self.cham_latency_s / self.transform_latency_s
    }

    /// Energy reduction vs F1 (the paper's 87 % headline). FLASH is
    /// charged its bottom-up datapath energy scaled by the chip overhead
    /// (buffers/control share of the architecture power); F1 is charged
    /// its published chip-level transform efficiency plus its modular
    /// point-wise datapath.
    pub fn energy_reduction_vs_f1(&self) -> f64 {
        1.0 - self.total_datapath_energy_uj * CHIP_OVERHEAD / self.f1_energy_uj
    }

    /// Total transform work in normalized units.
    pub fn transform_work_units(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| l.workload.transform_work_units())
            .sum()
    }
}

/// Buffer/control overhead multiplier applied to FLASH's datapath energy
/// for chip-level comparisons (from the Figure-12 breakdown, buffers and
/// control are a modest share of total power).
const CHIP_OVERHEAD: f64 = 1.25;

/// Runs the performance model over every conv layer of a network.
pub fn run_network(net: &Network, cfg: &FlashConfig) -> NetworkRun {
    let _t = flash_telemetry::span!("model.run_network");
    let model = CostModel::cmos28();
    let flash_point = DesignPoint {
        label: "FLASH",
        weight_bu: flash_hw::units::BuKind::flash_approx(),
        sparse: true,
    };
    let cham = ChamModel::default();
    let mut layers = Vec::with_capacity(net.convs.len());
    let mut total_latency = 0.0;
    let mut total_chip_uj = 0.0;
    let mut total_datapath_uj = 0.0;
    let mut cham_latency = 0.0;
    let mut work_units = 0.0;
    let mut total_pointwise = 0u64;
    let mut weight_cycles_sum = 0u64;
    let mut fp_cycles_sum = 0u64;
    // conv layers plus the final fully-connected layer: workload
    // extraction (the interned sparse plans' counts) and the per-layer
    // perf/energy models are independent across layers, so both fan out;
    // the totals fold below stays sequential in layer order.
    let mut workloads: Vec<LayerWorkload> =
        flash_runtime::parallel_map(&net.convs, |spec| layer_workload(spec, cfg.n()));
    for &(ni, no) in &net.fcs {
        workloads.push(crate::workload::fc_workload(ni, no, cfg.n()));
    }
    let evaluated = flash_runtime::parallel_map(&workloads, |w| {
        let perf = schedule_layer(w, &cfg.arch, &cfg.pe);
        let energy = layer_energy(w, &flash_point, &model);
        let chip_uj = layer_chip_energy_uj(&perf, &cfg.arch, &model);
        (perf, energy, chip_uj)
    });
    for (w, (perf, energy, chip_uj)) in workloads.into_iter().zip(evaluated) {
        weight_cycles_sum += perf.weight_cycles;
        fp_cycles_sum += perf.fp_fft_cycles;
        total_latency += perf.latency_s;
        total_chip_uj += chip_uj;
        total_datapath_uj += energy.total_pj() / 1e6;
        // CHAM runs every transform dense (weights, activations, inverse)
        // plus the modular point-wise work.
        let transforms = w.weight_transforms + w.act_transforms + w.inverse_transforms;
        cham_latency += cham.latency_s(transforms, cfg.n(), w.pointwise);
        work_units += w.transform_work_units();
        total_pointwise += w.pointwise;
        layers.push(LayerRun {
            workload: w,
            perf,
            energy,
            chip_energy_uj: chip_uj,
        });
    }
    // F1's point-wise products run on its 14 nm modular multipliers.
    let f1_pw_pj = flash_hw::cost::TechNode::n14()
        .scale(model.modular_mult_barrett(32))
        .energy_per_cycle_pj();
    NetworkRun {
        name: net.name.clone(),
        layers,
        total_latency_s: total_latency,
        transform_latency_s: weight_cycles_sum.max(fp_cycles_sum) as f64
            / (cfg.arch.freq_ghz * 1e9),
        total_chip_energy_uj: total_chip_uj,
        total_datapath_energy_uj: total_datapath_uj,
        cham_latency_s: cham_latency,
        f1_energy_uj: f1_chip_energy_uj(work_units) + total_pointwise as f64 * f1_pw_pj / 1e6,
    }
}

/// The five-bar ablation of Figure 11(d)(e): total weight-transform and
/// whole-HConv energy of a network at each design point, in µJ.
pub fn ablation_energy(net: &Network, cfg: &FlashConfig) -> Vec<(&'static str, f64, f64)> {
    let model = CostModel::cmos28();
    let workloads: Vec<LayerWorkload> =
        flash_runtime::parallel_map(&net.convs, |s| layer_workload(s, cfg.n()));
    let points = DesignPoint::ablation_points();
    flash_runtime::parallel_map(&points, |p| {
        let mut weight = 0.0;
        let mut total = 0.0;
        for w in &workloads {
            let e = layer_energy(w, p, &model);
            weight += e.weight_pj / 1e6;
            total += e.total_pj() / 1e6;
        }
        (p.label, weight, total)
    })
}

/// Estimates the network accuracy under FLASH's approximate numerics:
/// Monte-Carlo HConv error at the configured numerics → re-quantization
/// flip rate → margin-model accuracy (the documented ImageNet
/// substitution).
pub fn accuracy_estimate(cfg: &FlashConfig, baseline_acc: f64, seed: u64) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Representative layer statistics: 9-tap weight polys, share-domain
    // activations spanning the plaintext ring.
    let wl = ErrorWorkload {
        weight_mag: 8,
        weight_nnz: 9,
        act_mag: (cfg.he.t / 2) as f64,
    };
    let err = monte_carlo_error(&cfg.numerics, wl, 2, &mut rng);
    // Errors live in the q-domain; decryption scales them by t/q.
    let sp_error_std = err.variance.sqrt() * cfg.he.t as f64 / cfg.he.q as f64;
    // Representative re-quantization: W4A4, C*k^2 = 576 taps.
    let requant = Requantizer::calibrate(576 * 8 * 8, 4);
    let sps: Vec<i64> = (-(576 * 64)..(576 * 64)).step_by(97).collect();
    let flip = layer_flip_rate(&requant, &sps, sp_error_std, &mut rng);
    MarginModel::new(baseline_acc).accuracy(flip)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_nn::{resnet18_conv_layers, resnet50_conv_layers};

    #[test]
    fn resnet18_run_matches_paper_regime() {
        let cfg = FlashConfig::paper_default();
        let run = run_network(&resnet18_conv_layers(), &cfg);
        // Paper Table IV: FLASH 1.64 ms, CHAM 35.9 ms, 21.84x.
        assert!(
            (0.3e-3..20e-3).contains(&run.total_latency_s),
            "latency {} s",
            run.total_latency_s
        );
        let s = run.speedup_vs_cham();
        assert!((5.0..120.0).contains(&s), "speedup {s}");
    }

    #[test]
    fn resnet50_is_slower_and_speedup_larger() {
        let cfg = FlashConfig::paper_default();
        let r18 = run_network(&resnet18_conv_layers(), &cfg);
        let r50 = run_network(&resnet50_conv_layers(), &cfg);
        assert!(r50.total_latency_s > r18.total_latency_s);
        // ResNet-50's 1x1-heavy layers are sparser, so the paper's CHAM
        // gap grows (64x vs 21.8x).
        assert!(r50.speedup_vs_cham() > r18.speedup_vs_cham() * 0.8);
    }

    #[test]
    fn energy_reduction_vs_f1_in_paper_regime() {
        // Paper: ~87 % energy reduction vs F1 for HConv.
        let cfg = FlashConfig::paper_default();
        for net in [resnet18_conv_layers(), resnet50_conv_layers()] {
            let run = run_network(&net, &cfg);
            let red = run.energy_reduction_vs_f1();
            assert!((0.5..0.99).contains(&red), "{}: reduction {red}", net.name);
        }
    }

    #[test]
    fn ablation_bars_ordered() {
        let cfg = FlashConfig::paper_default();
        let bars = ablation_energy(&resnet18_conv_layers(), &cfg);
        assert_eq!(bars.len(), 5);
        let get = |label: &str| bars.iter().find(|b| b.0 == label).unwrap().1;
        let fp = get("FFT (FP)");
        let flash = get("FLASH");
        assert!(get("FXP FFT") < fp);
        assert!(get("Sparse FFT (FP)") < 0.25 * fp);
        assert!(get("Approx FFT") < 0.25 * fp);
        // combined optimizations: ~1-4 % of the FP weight-transform energy
        assert!(flash < 0.05 * fp, "flash {flash} vs fp {fp}");
    }

    #[test]
    fn accuracy_proxy_close_to_baseline_at_paper_point() {
        let cfg = FlashConfig::paper_default();
        let acc = accuracy_estimate(&cfg, 0.7424, 3);
        // paper: 74.24 -> 74.19 (drop 0.05 pts); allow up to ~1.5 pts in
        // the proxy.
        assert!(acc <= 0.7424 + 1e-9);
        assert!(acc > 0.72, "acc {acc}");
    }
}
