//! The sparse butterfly dataflow, step by step.
//!
//! ```text
//! cargo run --release -p flash-accel --example sparse_dataflow
//! ```
//!
//! Reproduces the paper's Examples 4.1 (skipping) and 4.2 (merging) on a
//! 16-point network, then shows the effect on a real Cheetah-encoded
//! weight polynomial — with a functional check that the compiled µop
//! tape produces the same spectrum as the dense negacyclic FFT.

use flash_fft::NegacyclicFft;
use flash_he::encoding::{ConvEncoder, ConvShape, TileAlignment};
use flash_math::C64;
use flash_sparse::{SparsePlan, SparsityPattern};

fn main() {
    // The paper's examples give their patterns in bit-reversed (stage-1)
    // order; a plan compiles from natural order.
    // --- Example 4.1: contiguous valid values -> skipping. ---
    let plan = SparsePlan::compile(&SparsityPattern::from_indices(16, [0, 1, 2, 3]).bit_reversed());
    let c = plan.counts();
    println!("Example 4.1 (skipping): 4 contiguous valid inputs in a 16-point network");
    println!(
        "  classical: {} mults; sparse: {} mults ({}% reduced — paper: 87.5%)",
        c.dense_mults(),
        c.mults(),
        (c.reduction() * 100.0).round()
    );

    // --- Example 4.2: one isolated value -> merging. ---
    let plan = SparsePlan::compile(&SparsityPattern::from_indices(16, [6]).bit_reversed());
    let c = plan.counts();
    println!("\nExample 4.2 (merging): single valid input at bit-reversed position 6");
    println!(
        "  classical: {} mults; merged chains: {} mults (paper counts 4, charging ω^0)",
        c.dense_mults(),
        c.mults()
    );

    // --- A real weight polynomial: 3x3 kernel over a 56x56 image. ---
    let shape = ConvShape {
        c: 1,
        h: 58,
        w: 58,
        m: 1,
        k: 3,
    };
    let n = 4096;
    let enc = ConvEncoder::with_alignment(shape, n, TileAlignment::PowerOfTwo);
    let idx = enc.weight_indices(0);
    let plan = SparsePlan::compile(&SparsityPattern::folded(n, idx.iter().copied()));
    let total = plan.paper_muls();
    let dense = plan.dense_muls();
    println!("\nResNet-50 stage-1 weight polynomial (9 valid of 4096, aligned layout):");
    println!(
        "  dense FFT: {} mults; sparse dataflow: {} mults ({:.1}% reduced)",
        dense,
        total,
        (1.0 - total as f64 / dense as f64) * 100.0
    );

    // --- Functional check: the optimization is an exact rewrite. ---
    let mut w = vec![0.0f64; n];
    for (v, &i) in idx.iter().enumerate() {
        w[i] = v as f64 + 1.0;
    }
    let mut sparse_out = vec![C64::ZERO; n / 2];
    plan.execute_f64_into(&w, &mut sparse_out);
    let dense_out = NegacyclicFft::new(n).forward(&w);
    let max_err = sparse_out
        .iter()
        .zip(&dense_out)
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0, f64::max);
    println!("  µop tape vs dense FFT: max |Δ| = {max_err:.2e} (exact rewrite)");
    assert!(max_err < 1e-9);
}
