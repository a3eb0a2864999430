//! Supplementary design-choice ablations (the DESIGN.md list):
//!
//! * DSE optimizer: Bayesian optimization vs NSGA-II vs random search,
//!   at equal evaluation budgets (hypervolume of the resulting fronts);
//! * butterfly radix: radix-2 vs radix-4 multiplication counts and the
//!   resulting BU-energy estimate for dense transforms;
//! * tile alignment: compact vs power-of-two strides — ciphertext count
//!   vs sparse-dataflow reduction.

use flash_bench::{banner, pct, subhead};
use flash_dse::bayesopt::{optimize_multi, random_search, BoConfig};
use flash_dse::nsga2::{nsga2, NsgaConfig};
use flash_dse::objective::Objective;
use flash_dse::pareto::{hypervolume, pareto_front};
use flash_dse::space::DesignSpace;
use flash_he::encoding::{ConvEncoder, ConvShape, TileAlignment};
use flash_ntt::ops::{fft_complex_ops, radix4_fft_ops};
use flash_sparse::{SparsePlan, SparsityPattern};
use rand::SeedableRng;

fn main() {
    banner("Supplementary ablations: optimizer, radix, tile alignment");

    // ---------------- optimizer ablation ----------------
    subhead("DSE optimizer at equal budget (~240 evaluations, layer-28-like)");
    let he = flash_he::HeParams::flash_default();
    let space = DesignSpace::flash_default(he.n);
    let obj = Objective::from_layer(space, 36, 8.0, (he.t / 2) as f64);

    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let bo = optimize_multi(
        &obj,
        &[0.2, 0.5, 0.8],
        &BoConfig {
            init: 20,
            iters: 60,
            candidates: 192,
            ..BoConfig::default()
        },
        &mut rng,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let ga = nsga2(
        &obj,
        &NsgaConfig {
            population: 30,
            generations: 7,
        },
        &mut rng,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let rs = random_search(&obj, bo.len(), &mut rng);

    let ref_p = bo
        .iter()
        .chain(&ga)
        .chain(&rs)
        .map(|e| e.power)
        .fold(0.0f64, f64::max)
        * 1.1;
    println!(
        "{:>12} {:>8} {:>12} {:>12}",
        "optimizer", "evals", "front size", "hypervolume"
    );
    for (name, evals) in [("bayesian", &bo), ("nsga2", &ga), ("random", &rs)] {
        let front = pareto_front(evals);
        println!(
            "{name:>12} {:>8} {:>12} {:>12.1}",
            evals.len(),
            front.len(),
            hypervolume(&front, ref_p, 20.0)
        );
    }
    println!("(the paper uses Bayesian optimization; both model-based searches should");
    println!(" dominate random at this budget)");

    // ---------------- radix ablation ----------------
    subhead("butterfly radix for the dense 2048-point transform");
    let r2 = fft_complex_ops(2048);
    let r4 = radix4_fft_ops(2048);
    println!("radix-2: {} mults, {} adds", r2.mults, r2.adds);
    println!(
        "radix-4: {} mults, {} adds ({} of radix-2 multiplier activations)",
        r4.mults,
        r4.adds,
        pct(r4.mults as f64 / r2.mults as f64)
    );
    println!("FLASH keeps radix-2: its sparse dataflow leaves so few multiplications");
    println!("that BU simplicity wins; radix-4 would help the dense FP (activation) side.");

    // ---------------- alignment ablation ----------------
    subhead("tile alignment: compact vs power-of-two (ResNet-50 3x3 @56, N=4096)");
    let shape = ConvShape {
        c: 64,
        h: 58,
        w: 58,
        m: 64,
        k: 3,
    };
    println!(
        "{:>12} {:>10} {:>12} {:>14} {:>12}",
        "layout", "cts (g*b)", "sparse/ea", "dense/ea", "reduction"
    );
    for (name, align) in [
        ("compact", TileAlignment::Compact),
        ("pow2", TileAlignment::PowerOfTwo),
    ] {
        let enc = ConvEncoder::with_alignment(shape, 4096, align);
        let plan = SparsePlan::compile(&SparsityPattern::folded(4096, enc.weight_indices(0)));
        let (sparse, dense) = (plan.paper_muls(), plan.dense_muls());
        println!(
            "{name:>12} {:>10} {:>12} {:>14} {:>12}",
            enc.activation_polys(),
            sparse,
            dense,
            pct(1.0 - sparse as f64 / dense as f64)
        );
    }
    println!("power-of-two strides cost nothing here (1 channel/poly either way) and");
    println!("unlock the bit-reverse-contiguity that skipping relies on.");
}
