//! Quickstart: one private convolution through FLASH's approximate-FFT
//! homomorphic pipeline.
//!
//! ```text
//! cargo run --release -p flash-accel --example quickstart
//! ```
//!
//! The client secret-shares a small activation tensor, encrypts its
//! share, and the server convolves it with quantized weights using the
//! hybrid HE/2PC protocol — with the weight transforms running on
//! FLASH's fixed-point approximate FFT, on the power-of-two ciphertext
//! ring `q = 2^62`. The reconstructed result is checked against a
//! cleartext convolution.

use flash_accel::config::FlashConfig;
use flash_accel::hconv::FlashHconv;
use flash_he::SecretKey;
use flash_nn::layers::{conv_reference, ConvLayerSpec};
use flash_nn::quant::Quantizer;
use rand::SeedableRng;

fn main() {
    // A functional-test-scale configuration (N = 256, q = 2^62; the
    // paper's point is N = 4096 — see FlashConfig::paper_default()).
    let cfg = FlashConfig::test_small();
    println!(
        "BFV: N = {}, q = 2^{}, t = 2^{}",
        cfg.he.n,
        cfg.he.q.trailing_zeros(),
        cfg.he.t.trailing_zeros()
    );

    // A small quantized conv layer: 2 channels of 6x6, 3x3 kernel, pad 1.
    let layer = ConvLayerSpec {
        name: "demo.conv".into(),
        c: 2,
        h: 6,
        w: 6,
        m: 2,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let x = layer.sample_input(Quantizer::a4(), &mut rng);
    let w = layer.sample_weights(Quantizer::w4(), &mut rng);

    // Client-side key; the engine drives both protocol roles in-process.
    let sk = SecretKey::generate(&cfg.he, &mut rng);
    let engine = FlashHconv::new(cfg);
    let (y, stats) = engine
        .run_layer(&sk, &layer, &x, &w, &mut rng)
        .expect("protocol run failed");

    // Verify against the cleartext convolution (mod the share ring).
    let ring = engine.ring();
    let expected: Vec<i64> = conv_reference(&x, &w, &layer)
        .iter()
        .map(|&v| ring.to_signed(ring.reduce(v)))
        .collect();
    assert_eq!(y, expected, "private result must equal cleartext conv");

    println!(
        "private conv OK: {} outputs, {} ciphertexts up ({} B), {} down ({} B)",
        y.len(),
        stats.ciphertexts_up,
        stats.upload_bytes,
        stats.ciphertexts_down,
        stats.download_bytes
    );
    println!(
        "server work: {} weight transforms, {} activation transforms, {} point-wise muls",
        stats.weight_transforms, stats.activation_transforms, stats.pointwise_muls
    );
    println!("first output row: {:?}", &y[..layer.out_w()]);
}
