//! Regenerates **Figure 11(a)**: multiplications per polynomial
//! multiplication vs. sparsity, for three dataflows:
//!
//! * the classical dense butterfly network,
//! * FLASH's sparse (skipping + merging) dataflow,
//! * direct computation in the coefficient domain.
//!
//! As in the paper, counts are normalized to a single PolyMul of one
//! layer: the activation-side transforms are shared across output
//! channels, so their cost per PolyMul is amortized to near zero for the
//! FFT dataflows, while the direct method pays `nnz × N` every time.

use flash_accel::workload::layer_workload;
use flash_bench::{banner, pct, subhead};
use flash_nn::resnet::resnet50_conv_layers;
use flash_sparse::{SparsePlan, SparsityPattern};

const N: usize = 4096;

fn sparse_mults(natural: &SparsityPattern) -> u64 {
    // fold to the FFT's half domain
    SparsePlan::compile(&SparsityPattern::folded(natural.len(), natural.indices())).paper_muls()
}

fn main() {
    banner("Figure 11(a): multiplication count per PolyMul vs sparsity");
    let m = N / 2;
    let dense = (m as u64 / 2) * (m as u64).trailing_zeros() as u64 + m as u64;

    subhead("synthetic sweep: structured (power-of-two grid) patterns");
    println!(
        "{:>9} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "nnz", "sparsity", "dense", "sparse", "direct", "reduction"
    );
    for log_nnz in [0u32, 2, 4, 6, 8, 10] {
        let nnz = 1usize << log_nnz;
        let stride = N / nnz;
        let p = SparsityPattern::from_indices(N, (0..nnz).map(|i| i * stride));
        let sp = sparse_mults(&p);
        let direct = (nnz * N) as u64;
        println!(
            "{nnz:>9} {:>10} {dense:>12} {sp:>12} {direct:>12} {:>10}",
            pct(p.sparsity()),
            pct(1.0 - sp as f64 / dense as f64)
        );
    }

    subhead("synthetic sweep: scattered (irregular) patterns");
    for nnz in [1usize, 9, 36, 144, 512] {
        let p = SparsityPattern::from_indices(
            N,
            (0..nnz)
                .map(|i| (i * 2654435761usize) % N)
                .collect::<std::collections::BTreeSet<_>>(),
        );
        let sp = sparse_mults(&p);
        println!(
            "{:>9} {:>10} {dense:>12} {sp:>12} {:>12} {:>10}",
            p.count(),
            pct(p.sparsity()),
            (p.count() * N) as u64,
            pct(1.0 - sp as f64 / dense as f64)
        );
    }

    subhead("ResNet-50 layers (aligned Cheetah encoding)");
    let net = resnet50_conv_layers();
    let mut total_sparse = 0u64;
    let mut total_dense = 0u64;
    println!(
        "{:<26} {:>9} {:>10} {:>12} {:>12} {:>10}",
        "layer", "k", "sparsity", "dense", "sparse", "reduction"
    );
    for l in &net.convs {
        let w = layer_workload(l, N);
        total_sparse += w.weight_mults_sparse();
        total_dense += w.weight_mults_dense();
        println!(
            "{:<26} {:>7}x{} {:>10} {:>12} {:>12} {:>10}",
            l.name,
            l.k,
            l.k,
            pct(w.sparsity),
            w.weight_mults_dense_each,
            w.weight_mults_sparse_each,
            pct(w.sparse_reduction())
        );
    }
    let overall = 1.0 - total_sparse as f64 / total_dense as f64;
    println!();
    println!(
        "overall weight-transform multiplication reduction: {} (paper: > 86%)",
        pct(overall)
    );
    assert!(overall > 0.8, "reduction should approach the paper's claim");
}
