//! Supplementary analysis: protocol communication volume.
//!
//! Cheetah's coefficient encoding exists to keep ciphertext traffic low;
//! FLASH inherits it unchanged, so the byte counts here are the
//! encoding-level truth for both. Computed analytically from the tiling
//! plans at the paper's `N = 4096`, 39-bit `q` (5 bytes/coefficient), in
//! two forms: the repacked-volume model (results repacked to the output
//! volume, which no protocol here runs), and the executed plan of the
//! conv layers — the Compact encoder's `activation_polys` uploads and
//! `result_polys` responses, each response carrying `c0` at its band's
//! `P_b` output coefficients and all `N` of `c1` (the byte count the
//! functional protocol reports, untruncated).

use flash_bench::{banner, subhead};
use flash_he::encoding::{ConvEncoder, TileAlignment};
use flash_he::matvec::MatVecEncoder;
use flash_nn::resnet::{resnet18_conv_layers, resnet50_conv_layers};

const N: usize = 4096;
const COEFF_BYTES: usize = 5; // one 39-bit coefficient
const CT_BYTES: usize = 2 * N * COEFF_BYTES;

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

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
            "model upload:     {:>6} ciphertexts = {:>8.1} MiB",
            up,
            mib(up * CT_BYTES)
        );
        println!(
            "model download:   {:>6} ciphertexts = {:>8.1} MiB (repacked volume)",
            down,
            mib(down * CT_BYTES)
        );
        let (mut up, mut down, mut down_bytes) = (0usize, 0usize, 0usize);
        for l in &net.convs {
            let enc = ConvEncoder::new(l.encoded_shape(), N);
            up += enc.activation_polys();
            down += enc.result_polys();
            down_bytes += (0..enc.result_polys())
                .map(|u| (enc.band_positions(u % enc.bands()).count() + N) * COEFF_BYTES)
                .sum::<usize>();
        }
        println!(
            "executed upload:  {:>6} ciphertexts = {:>8.1} MiB (convs, Compact encoder)",
            up,
            mib(up * CT_BYTES)
        );
        println!(
            "executed download:{:>6} responses   = {:>8.1} MiB (P_b c0 + N c1 coefficients each; \
             full ciphertexts would be {:.1} MiB)",
            down,
            mib(down_bytes),
            mib(down * CT_BYTES)
        );
    }
    println!();
    println!("note: model counts include the FC layers and are the upper bound the");
    println!("accelerator's workload model uses; executed counts are the conv layers");
    println!("as HconvLayer runs them, before response truncation.");
}
