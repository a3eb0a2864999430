//! `FlashHconv::run_layer` is nothing but `share_vec` →
//! `run_layer_shared` → `reconstruct`: padding and the stride-2 phase
//! decomposition exist once, in the shared-input entry point. Checked
//! draw for draw (same seed → same outputs and statistics) and against
//! the plaintext reference, over stride 1/2 × pad 0/1 × k 1/3.

use flash_accel::config::FlashConfig;
use flash_accel::hconv::FlashHconv;
use flash_he::SecretKey;
use flash_nn::layers::{conv_reference, ConvLayerSpec};
use flash_nn::quant::Quantizer;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn run_layer_is_share_run_shared_reconstruct() {
    let cfg = FlashConfig::test_small();
    let engine = FlashHconv::new(cfg.clone());
    let ring = engine.ring();
    for stride in [1, 2] {
        for pad in [0, 1] {
            for k in [1, 3] {
                let spec = ConvLayerSpec {
                    name: format!("s{stride}p{pad}k{k}"),
                    c: 3,
                    h: 8,
                    w: 8,
                    m: 2,
                    k,
                    stride,
                    pad,
                };
                let mut rng = StdRng::seed_from_u64(100 + (stride * 4 + pad * 2 + k) as u64);
                let sk = SecretKey::generate(&cfg.he, &mut rng);
                let x = spec.sample_input(Quantizer::a4(), &mut rng);
                let w = spec.sample_weights(Quantizer::w4(), &mut rng);

                let mut rng_a = StdRng::seed_from_u64(7);
                let (y, stats) = engine.run_layer(&sk, &spec, &x, &w, &mut rng_a).unwrap();

                let mut rng_b = StdRng::seed_from_u64(7);
                let (xc, xs) = ring.share_vec(&x, &mut rng_b);
                let ((yc, ys), shared_stats) = engine
                    .run_layer_shared(&sk, &spec, &xc, &xs, &w, &mut rng_b)
                    .unwrap();
                assert_eq!(y, ring.reconstruct_vec(&yc, &ys), "{}", spec.name);
                assert_eq!(stats, shared_stats, "{}", spec.name);

                let want: Vec<i64> = conv_reference(&x, &w, &spec)
                    .iter()
                    .map(|&v| ring.to_signed(ring.reduce(v)))
                    .collect();
                assert_eq!(y, want, "{}", spec.name);
            }
        }
    }
}
