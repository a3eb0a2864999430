//! Supplementary analysis: protocol communication volume.
//!
//! Cheetah's coefficient encoding exists to keep ciphertext traffic low;
//! FLASH inherits it unchanged, so the byte counts here are the
//! encoding-level truth for both. Computed analytically from the tiling
//! plans at the paper's `N = 4096`, 39-bit `q` (5 bytes/coefficient), in
//! two forms: the repacked-volume model (results repacked to the output
//! volume, which no protocol here runs), and the executed plan of the
//! conv layers — each layer's partition as `HconvLayer::new` plans it at
//! the planned truncation `(d0, d1)` the functional protocol runs by
//! default (`C_w` input channels per upload, `M_w` output channels per
//! response, printed per layer): `activation_polys` uploads, each all of
//! `c0` plus the 32-byte seed `c1 = a` expands from (`upload_len`,
//! `N·⌈log2 q/8⌉ + 32` bytes), and `result_polys` responses, each
//! carrying `c0` at its unit's `P_u` output coefficients and all `N` of
//! `c1` (`response_len`: `P_u·⌈(log2 q − d0)/8⌉ + N·⌈(log2 q − d1)/8⌉`
//! bytes), untruncated and at `(d0, d1)`.

use flash_2pc::hconv::{wire_bytes, HconvLayer};
use flash_bench::{banner, subhead};
use flash_he::encoding::{ConvEncoder, TileAlignment};
use flash_he::matvec::MatVecEncoder;
use flash_he::serialize::{modulus_bits, upload_len};
use flash_he::truncate::planned_truncation;
use flash_he::HeParams;
use flash_nn::resnet::{resnet18_conv_layers, resnet50_conv_layers};

const N: usize = 4096;
const COEFF_BYTES: usize = 5; // one 39-bit coefficient
const CT_BYTES: usize = 2 * N * COEFF_BYTES;

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

fn main() {
    banner("Supplementary: ciphertext traffic per private inference");
    let params = HeParams::flash_default();
    assert_eq!(params.n, N);
    let (d0, d1) = planned_truncation(&params);
    let lane = |d: u32| (modulus_bits(params.q) - d).div_ceil(8) as usize;
    assert_eq!(lane(0), COEFF_BYTES);
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
        let (mut up, mut down, mut down_bytes, mut planned_bytes) = (0, 0, 0, 0);
        println!("executed partition per conv (C_w input / M_w output channels):");
        for l in &net.convs {
            let layer = HconvLayer::new(params.clone(), l.encoded_shape(), Some((d0, d1)));
            let enc = layer.encoder();
            println!(
                "  {:<24} ({}, {}) {:>4} up {:>4} down",
                l.name,
                enc.channels_per_group(),
                enc.channels_per_pack(),
                enc.activation_polys(),
                enc.result_polys()
            );
            up += enc.activation_polys();
            down += enc.result_polys();
            down_bytes += wire_bytes(enc, &params, None).1;
            planned_bytes += wire_bytes(enc, &params, layer.truncation()).1;
        }
        println!(
            "executed upload:  {:>6} ciphertexts = {:>8.1} MiB (convs, planned partition; \
             c0 + a 32 B seed each, full ciphertexts would be {:.1} MiB)",
            up,
            mib(up * upload_len(N, params.q)),
            mib(up * CT_BYTES)
        );
        println!(
            "executed download:{:>6} responses   = {:>8.1} MiB (P_u c0 + N c1 coefficients each; \
             full ciphertexts would be {:.1} MiB)",
            down,
            mib(down_bytes),
            mib(down * CT_BYTES)
        );
        println!(
            "executed download:{:>6} responses   = {:>8.1} MiB at the planned ({d0}, {d1}): \
             P_u x {} B + N x {} B each",
            down,
            mib(planned_bytes),
            lane(d0),
            lane(d1)
        );
    }
    println!();
    println!("note: model counts include the FC layers and are the upper bound the");
    println!("accelerator's workload model uses; executed counts are the conv layers");
    println!("as HconvLayer runs them, whole and at the planned response truncation.");
}
