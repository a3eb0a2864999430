//! Workspace-level integration tests: the full private-inference pipeline
//! across every crate.

use flash_accel::config::FlashConfig;
use flash_accel::hconv::FlashHconv;
use flash_he::{HeParams, Poly, PolyMulBackend, SecretKey};
use flash_nn::layers::{conv_reference, ConvLayerSpec};
use flash_nn::quant::{Quantizer, Requantizer};
use rand::SeedableRng;

fn spec(c: usize, h: usize, m: usize, k: usize, stride: usize, pad: usize) -> ConvLayerSpec {
    ConvLayerSpec {
        name: format!("it.{c}x{h}k{k}s{stride}"),
        c,
        h,
        w: h,
        m,
        k,
        stride,
        pad,
    }
}

/// All three backends, each on its own ring, agree on a full protocol
/// run: `Ntt` on the prime `test_256`, `Pow2` and the approximate FXP
/// weight transform on `test_small`'s q = 2^62 — the reconstructed
/// outputs are the conv mod t = 2^16 on both rings.
#[test]
fn backends_agree_on_protocol_outputs() {
    let cfg = FlashConfig::test_small();
    let mut prime = cfg.clone();
    prime.he = HeParams::test_256();
    let layer = spec(2, 6, 2, 3, 1, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let x = layer.sample_input(Quantizer::a4(), &mut rng);
    let w = layer.sample_weights(Quantizer::w4(), &mut rng);

    let mut outs = Vec::new();
    for (cfg, backend) in [
        (&prime, PolyMulBackend::Ntt),
        (&cfg, PolyMulBackend::Pow2),
        (&cfg, PolyMulBackend::approx(cfg.numerics.clone())),
    ] {
        let sk = SecretKey::generate(&cfg.he, &mut rng);
        let engine = FlashHconv::with_backend(cfg.clone(), backend);
        let mut r = rand::rngs::StdRng::seed_from_u64(99);
        let (y, _) = engine.run_layer(&sk, &layer, &x, &w, &mut r).unwrap();
        outs.push(y);
    }
    assert_eq!(outs[0], outs[1], "NTT vs f64 FFT");
    assert_eq!(outs[0], outs[2], "NTT vs approximate FXP FFT");
}

/// A two-layer private pipeline with re-quantization matches cleartext.
#[test]
fn two_layer_pipeline_with_requant() {
    let cfg = FlashConfig::test_small();
    let engine = FlashHconv::new(cfg.clone());
    let ring = engine.ring();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let sk = SecretKey::generate(&cfg.he, &mut rng);

    let l1 = spec(2, 8, 2, 3, 2, 1); // stride-2
    let l2 = spec(2, 4, 3, 1, 1, 0); // 1x1
    let x0 = l1.sample_input(Quantizer::a4(), &mut rng);
    let w1 = l1.sample_weights(Quantizer::w4(), &mut rng);
    let w2 = l2.sample_weights(Quantizer::w4(), &mut rng);

    // private path
    let (y1p, _) = engine.run_layer(&sk, &l1, &x0, &w1, &mut rng).unwrap();
    let rq = Requantizer::calibrate(y1p.iter().map(|v| v.abs()).max().unwrap().max(1), 4);
    let x1p: Vec<i64> = y1p.iter().map(|&v| rq.apply(v)).collect();
    let (y2p, _) = engine.run_layer(&sk, &l2, &x1p, &w2, &mut rng).unwrap();

    // cleartext path
    let y1c = conv_reference(&x0, &w1, &l1);
    let x1c: Vec<i64> = y1c.iter().map(|&v| rq.apply(v)).collect();
    let y2c: Vec<i64> = conv_reference(&x1c, &w2, &l2)
        .iter()
        .map(|&v| ring.to_signed(ring.reduce(v)))
        .collect();

    assert_eq!(x1p, x1c, "first layer (after requant)");
    assert_eq!(y2p, y2c, "second layer");
}

/// Homomorphic operations keep the noise within budget throughout a
/// realistic evaluation chain.
#[test]
fn noise_budget_survives_evaluation_chain() {
    let p = flash_he::HeParams::test_256();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let sk = SecretKey::generate(&p, &mut rng);

    let m = Poly::uniform(p.n, p.t, &mut rng);
    let ct = sk.encrypt(&m, &mut rng);
    let fresh_budget = sk.noise_budget_bits(&ct, &m);
    assert!(fresh_budget > 10.0, "fresh budget {fresh_budget}");

    // share-add, weight-multiply, accumulate, mask-subtract — one HConv's
    // worth of homomorphic work.
    let share = Poly::uniform(p.n, p.t, &mut rng);
    let ct = ct.add_plain(&share, &p);
    let mut w = vec![0i64; p.n];
    for i in 0..9 {
        w[i * 11] = if i % 2 == 0 { 7 } else { -8 };
    }
    let ct = ct.mul_plain_signed(&w, &p, &PolyMulBackend::Ntt);
    let ct = ct.add_ct(&ct);
    let mask = Poly::uniform(p.n, p.t, &mut rng);
    let ct = ct.sub_plain(&mask, &p);

    // message after the same plaintext algebra
    let w_t: Vec<u64> = w
        .iter()
        .map(|&x| flash_math::modular::from_signed(x, p.t))
        .collect();
    let mw = Poly::from_coeffs(
        flash_ntt::polymul::negacyclic_mul_naive(m.add(&share).coeffs(), &w_t, p.t),
        p.t,
    );
    let expected = mw.add(&mw).sub(&mask);
    assert_eq!(sk.decrypt(&ct), expected);
    let budget = sk.noise_budget_bits(&ct, &expected);
    assert!(budget > 0.0, "post-evaluation budget {budget}");
    assert!(budget < fresh_budget, "multiplication must consume budget");
}

/// The paper-default configuration runs the full performance model and
/// lands in the reported regimes.
#[test]
fn paper_regime_end_to_end() {
    let cfg = FlashConfig::paper_default();
    let r18 = flash_accel::inference::run_network(&flash_nn::resnet18_conv_layers(), &cfg);
    let r50 = flash_accel::inference::run_network(&flash_nn::resnet50_conv_layers(), &cfg);
    // Table IV shape: milliseconds latency, tens-x speedups, ResNet-50
    // slower but with a larger speedup.
    assert!(r18.transform_latency_s < r50.transform_latency_s);
    assert!(r18.speedup_vs_cham() > 10.0 && r18.speedup_vs_cham() < 60.0);
    assert!(r50.speedup_vs_cham() > 20.0 && r50.speedup_vs_cham() < 120.0);
    assert!(r50.speedup_vs_cham() > r18.speedup_vs_cham());
    // energy reduction vs F1 in the reported direction
    assert!(r18.energy_reduction_vs_f1() > 0.5);
    assert!(r50.energy_reduction_vs_f1() > 0.5);
}

/// Communication accounting is symmetric with the tiling plan for a
/// strided layer (4 phases, one round trip).
#[test]
fn stride2_communication_accounting() {
    let cfg = FlashConfig::test_small();
    let layer = spec(2, 8, 2, 3, 2, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let sk = SecretKey::generate(&cfg.he, &mut rng);
    let x = layer.sample_input(Quantizer::a4(), &mut rng);
    let w = layer.sample_weights(Quantizer::w4(), &mut rng);
    let engine = FlashHconv::new(cfg.clone());
    let (_, stats) = engine.run_layer(&sk, &layer, &x, &w, &mut rng).unwrap();
    // 4 phases folded into one stride-1 conv: one upload per tile of
    // its plan
    let enc = engine.encoder(&layer);
    assert_eq!(stats.ciphertexts_up, enc.activation_polys());
    assert_eq!(stats.ciphertexts_down, enc.result_polys());
    assert!(stats.upload_bytes > 0 && stats.download_bytes > 0);
    assert_eq!(stats.activation_transforms, 2 * stats.ciphertexts_up);
}
