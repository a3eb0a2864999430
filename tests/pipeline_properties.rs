//! Property-based tests spanning the full pipeline.

use flash_accel::config::FlashConfig;
use flash_accel::hconv::FlashHconv;
use flash_he::encoding::{direct_conv_stride1, ConvEncoder, ConvShape, TileAlignment};
use flash_he::{Poly, SecretKey};
use flash_math::C64;
use flash_nn::layers::{conv_reference, ConvLayerSpec};
use flash_sparse::{SparsePlan, SparsityPattern};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any small stride-1 convolution survives the full encode/protocol/
    /// decode pipeline on the approximate backend.
    #[test]
    fn protocol_correct_for_random_small_convs(
        c in 1usize..3,
        h in 4usize..7,
        m in 1usize..3,
        k in 1usize..3,
        seed in 0u64..50,
    ) {
        let cfg = FlashConfig::test_small();
        let layer = ConvLayerSpec {
            name: "prop".into(), c, h, w: h, m, k, stride: 1, pad: 0,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&cfg.he, &mut rng);
        let x: Vec<i64> = (0..layer.c * layer.h * layer.w)
            .map(|i| ((i as i64 * 37 + seed as i64) % 15) - 7)
            .collect();
        let w: Vec<i64> = (0..layer.weight_count())
            .map(|i| ((i as i64 * 11 + seed as i64) % 15) - 7)
            .collect();
        let engine = FlashHconv::new(cfg);
        let (y, _) = engine.run_layer(&sk, &layer, &x, &w, &mut rng).unwrap();
        let ring = engine.ring();
        let want: Vec<i64> = conv_reference(&x, &w, &layer)
            .iter()
            .map(|&v| ring.to_signed(ring.reduce(v)))
            .collect();
        prop_assert_eq!(y, want);
    }

    /// Both tile layouts produce the same convolution results.
    #[test]
    fn layouts_agree(seed in 0u64..100) {
        let shape = ConvShape { c: 2, h: 5, w: 6, m: 2, k: 3 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::Rng;
        let x: Vec<i64> = (0..shape.input_len()).map(|_| rng.gen_range(-8..8)).collect();
        let f: Vec<i64> = (0..shape.m * shape.kernel_len()).map(|_| rng.gen_range(-8..8)).collect();
        let fft = flash_fft::NegacyclicFft::new(128);
        let run = |align: TileAlignment| -> Vec<i64> {
            let enc = ConvEncoder::with_alignment(shape, 128, align);
            let acts = enc.encode_activation(&x);
            let mut y = vec![0i64; shape.output_len()];
            for oc in 0..shape.m {
                let wp = enc.encode_weight(&f[oc * shape.kernel_len()..][..shape.kernel_len()], oc);
                for b in 0..enc.bands() {
                    let mut acc = vec![0i64; 128];
                    for g in 0..enc.groups() {
                        let prod = fft.polymul_i64(&acts[g * enc.bands() + b], &wp[g][b]);
                        for (a, p) in acc.iter_mut().zip(&prod) {
                            *a += *p as i64;
                        }
                    }
                    enc.decode_band(&acc, b, oc, &mut y);
                }
            }
            y
        };
        let compact = run(TileAlignment::Compact);
        let aligned = run(TileAlignment::PowerOfTwo);
        let want = direct_conv_stride1(&x, &f, &shape);
        prop_assert_eq!(&compact, &want);
        prop_assert_eq!(&aligned, &want);
    }

    /// The sparse µop tape equals the dense negacyclic FFT for arbitrary
    /// patterns, and the counted sparse cost never exceeds the dense cost.
    #[test]
    fn sparse_dataflow_exact_and_never_worse(
        log_m in 3u32..9,
        density_pct in 1usize..100,
        seed in 0u64..1000,
    ) {
        let m = 1usize << log_m;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::Rng;
        // A live slot j carries coefficients j and j + m of the degree-2m
        // weight polynomial.
        let mut w = vec![0.0f64; 2 * m];
        for j in 0..m {
            if rng.gen_range(0..100) < density_pct {
                w[j] = rng.gen_range(-4.0..4.0);
                w[j + m] = rng.gen_range(-4.0..4.0);
            }
        }
        let plan = SparsePlan::compile(&SparsityPattern::folded(
            2 * m,
            (0..2 * m).filter(|&i| w[i] != 0.0),
        ));
        let counts = plan.counts();
        prop_assert!(counts.mults() <= counts.dense_mults());

        let mut got = vec![C64::ZERO; m];
        plan.execute_f64_into(&w, &mut got);
        let want = flash_fft::NegacyclicFft::new(2 * m).forward(&w);
        for (a, b) in got.iter().zip(&want) {
            prop_assert!((*a - *b).abs() < 1e-8);
        }
    }

    /// Encrypt/evaluate/decrypt is correct for arbitrary plaintext
    /// algebra with small weights.
    #[test]
    fn he_algebra_random(seed in 0u64..100, w1 in -8i64..8, idx in 0usize..256) {
        let p = flash_he::HeParams::pow2_test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let add = Poly::uniform(p.n, p.t, &mut rng);
        let mut w = vec![0i64; p.n];
        w[idx] = w1;
        let ct = sk
            .encrypt(&m, &mut rng)
            .add_plain(&add, &p)
            .mul_plain_signed(&w, &p, &flash_he::PolyMulBackend::Pow2);
        let w_t: Vec<u64> = w.iter().map(|&x| flash_math::modular::from_signed(x, p.t)).collect();
        let want = Poly::from_coeffs(
            flash_ntt::polymul::negacyclic_mul_naive(m.add(&add).coeffs(), &w_t, p.t),
            p.t,
        );
        prop_assert_eq!(sk.decrypt(&ct), want);
    }
}
