//! Supplementary analysis: protocol communication volume.
//!
//! Cheetah's coefficient encoding exists to keep ciphertext traffic low;
//! FLASH inherits it unchanged, so the byte counts here are the
//! encoding-level truth for both. Computed analytically from the tiling
//! plans at the paper's `N = 4096`, 39-bit `q` (5 bytes/coefficient) —
//! identical to what the functional protocol's byte accounting reports at
//! small scale.

use flash_bench::{banner, subhead};
use flash_he::encoding::{ConvEncoder, TileAlignment};
use flash_he::matvec::MatVecEncoder;
use flash_nn::resnet::{resnet18_conv_layers, resnet50_conv_layers};

const N: usize = 4096;
const CT_BYTES: usize = 2 * N * 5; // two polys x 5 bytes per 39-bit coeff

fn main() {
    banner("Supplementary: ciphertext traffic per private inference");
    for net in [resnet18_conv_layers(), resnet50_conv_layers()] {
        subhead(&net.name);
        let mut up = 0usize;
        let mut down = 0usize;
        for l in &net.convs {
            let enc = ConvEncoder::with_alignment(l.encoded_shape(), N, TileAlignment::PowerOfTwo);
            up += enc.activation_polys();
            // results repacked to the output volume before download
            let out = l.m * l.out_h() * l.out_w();
            down += out.div_ceil(N).max(1);
        }
        for &(ni, no) in &net.fcs {
            let fc = MatVecEncoder::new(ni, no, N);
            up += fc.col_chunks();
            down += no.div_ceil(N).max(1);
        }
        println!(
            "upload:   {:>6} ciphertexts = {:>8.1} MiB",
            up,
            (up * CT_BYTES) as f64 / (1 << 20) as f64
        );
        println!(
            "download: {:>6} ciphertexts = {:>8.1} MiB",
            down,
            (down * CT_BYTES) as f64 / (1 << 20) as f64
        );
        println!(
            "(compact layout upload would be {:>6} ciphertexts — the aligned layout's \
             cost for its sparsity)",
            net.convs
                .iter()
                .map(|l| ConvEncoder::new(l.encoded_shape(), N).activation_polys())
                .sum::<usize>()
        );
    }
    println!();
    println!("note: Cheetah additionally truncates response ciphertexts; our counts");
    println!("are the upper bound the accelerator's workload model uses.");
}
