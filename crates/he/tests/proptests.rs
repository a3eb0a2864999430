//! Property-based tests for the BFV scheme and the coefficient encoding.

use flash_he::encoding::{
    direct_conv_stride1, pad_input, ConvEncoder, ConvShape, StrideFold, TileAlignment,
};
use flash_he::matvec::{matvec_reference, MatVecEncoder};
use flash_he::serialize::{ciphertext_from_bytes, ciphertext_to_bytes};
use flash_he::{Ciphertext, HeParams, Poly, PolyMulBackend, SecretKey};
use proptest::prelude::*;
use rand::SeedableRng;

/// Independent oracle: negacyclic convolution of center-lifted operands
/// in `i128` (no wraparound possible at N=256, 62-bit coefficients and
/// 7-bit weights), reduced into `[0, modulus)` at the very end.
fn signed_reference_conv(a: &[u64], w: &[i64], lift_mod: u64, out_mod: u64) -> Vec<u64> {
    let n = a.len();
    let mut acc = vec![0i128; n];
    for (i, &ai) in a.iter().enumerate() {
        let av = flash_math::modular::center_lift(ai, lift_mod) as i128;
        if av == 0 {
            continue;
        }
        for (j, &wj) in w.iter().enumerate() {
            if wj == 0 {
                continue;
            }
            let prod = av * wj as i128;
            let k = i + j;
            if k < n {
                acc[k] += prod;
            } else {
                acc[k - n] -= prod;
            }
        }
    }
    acc.iter()
        .map(|&x| x.rem_euclid(out_mod as i128) as u64)
        .collect()
}

/// `a ⊠ w` on the one product path: `a` rides as `c0` of a ciphertext
/// whose `c1` is zero.
fn mul(b: &PolyMulBackend, a: &Poly, w: &[i64], p: &HeParams) -> Poly {
    Ciphertext::new(a.clone(), Poly::zero(p.n, p.q))
        .mul_plain_signed(w, p, b)
        .c0()
        .clone()
}

/// The packed pipeline in plain integers: encode every pack's kernels,
/// multiply negacyclically, accumulate over channel groups, decode each
/// `(pack, band)` unit into its window of the output tensor. Cells no
/// unit writes keep `i64::MIN`, so a gap in the tiling cannot pass.
fn packed_conv(enc: &ConvEncoder, x: &[i64], f: &[i64]) -> Vec<i64> {
    let (shape, n, bands) = (*enc.shape(), enc.degree(), enc.bands());
    let fft = flash_fft::NegacyclicFft::shared(n);
    let acts = enc.encode_activation(x);
    let mut y = vec![i64::MIN; shape.output_len()];
    for pack in 0..enc.packs() {
        let w_polys = enc.encode_pack(f, pack);
        for b in 0..bands {
            let mut acc = vec![0i64; n];
            for (g, w) in w_polys.iter().enumerate() {
                for (s, v) in acc
                    .iter_mut()
                    .zip(fft.polymul_i64(&acts[g * bands + b], &w[b]))
                {
                    *s += v as i64;
                }
            }
            let u = pack * bands + b;
            enc.decode_unit(&acc, u, &mut y[enc.unit_output_range(u)]);
        }
    }
    y
}

fn rand_tensors(shape: &ConvShape, seed: u64) -> (Vec<i64>, Vec<i64>) {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let x = (0..shape.input_len())
        .map(|_| rng.gen_range(-8..8))
        .collect();
    let f = (0..shape.m * shape.kernel_len())
        .map(|_| rng.gen_range(-8..8))
        .collect();
    (x, f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn encrypt_decrypt_always_roundtrips(seed in any::<u64>()) {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m, &mut rng);
        prop_assert_eq!(sk.decrypt(&ct), m);
    }

    #[test]
    fn homomorphic_add_commutes_with_plain_add(seed in any::<u64>()) {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&p, &mut rng);
        let m1 = Poly::uniform(p.n, p.t, &mut rng);
        let m2 = Poly::uniform(p.n, p.t, &mut rng);
        let a = sk.encrypt(&m1, &mut rng).add_plain(&m2, &p);
        let b = sk.encrypt(&m2, &mut rng).add_plain(&m1, &p);
        prop_assert_eq!(sk.decrypt(&a), sk.decrypt(&b));
    }

    #[test]
    fn serialization_roundtrips(seed in any::<u64>()) {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m, &mut rng);
        let back = ciphertext_from_bytes(&ciphertext_to_bytes(&ct), p.n, p.q).unwrap();
        prop_assert_eq!(back, ct);
    }

    #[test]
    fn ntt_and_fft_backends_always_agree(seed in any::<u64>(), nnz in 1usize..16) {
        // Each backend on its own ring (t = 2^16 on both): `Ntt` on the
        // prime ring and `Pow2` on q = 2^62 decrypt `ct ⊠ w` to the same
        // plaintext-ring product.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::Rng;
        let prime = HeParams::test_256();
        let m = Poly::uniform(prime.n, prime.t, &mut rng);
        let mut w = vec![0i64; prime.n];
        for _ in 0..nnz {
            let i = rng.gen_range(0..prime.n);
            w[i] = rng.gen_range(-8..8);
        }
        let mut decrypt = |p: &HeParams, backend: &PolyMulBackend| {
            let sk = SecretKey::generate(p, &mut rng);
            sk.decrypt(&sk.encrypt(&m, &mut rng).mul_plain_signed(&w, p, backend))
        };
        let x = decrypt(&prime, &PolyMulBackend::Ntt);
        let y = decrypt(&HeParams::pow2_test_256(), &PolyMulBackend::Pow2);
        prop_assert_eq!(x.coeffs(), &signed_reference_conv(m.coeffs(), &w, prime.t, prime.t)[..]);
        prop_assert_eq!(x, y);
    }

    #[test]
    fn pow2_backend_decrypts_exactly_for_any_weight_sparsity(
        seed in any::<u64>(),
        nnz in 1usize..16,
    ) {
        // End-to-end on q = 2^62: encrypt → ⊠w → decrypt must land on the
        // exact plaintext-ring product for any weight sparsity, because
        // the backend's float error sits far below the noise ceiling.
        let p = HeParams::pow2_test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::Rng;
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let mut w = vec![0i64; p.n];
        for _ in 0..nnz {
            let i = rng.gen_range(0..p.n);
            w[i] = rng.gen_range(-8..8);
        }
        let ct = sk.encrypt(&m, &mut rng).mul_plain_signed(&w, &p, &PolyMulBackend::Pow2);
        let want = signed_reference_conv(m.coeffs(), &w, p.t, p.t);
        prop_assert_eq!(sk.decrypt(&ct).coeffs(), &want[..]);
    }

    #[test]
    fn pow2_product_tracks_integer_reference_at_full_magnitude(
        seed in any::<u64>(),
        nnz in 1usize..16,
        wmax in 1i64..128,
    ) {
        // Raw ring-level property at near-overflow operand magnitudes:
        // uniform coefficients reach q/2 ≈ 2^61 (beyond f64 exactness),
        // weights up to ±127. The wrapping product must stay within the
        // declared error model of an exact signed-integer negacyclic
        // convolution reduced mod 2^62.
        let p = HeParams::pow2_test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::Rng;
        let a = Poly::uniform(p.n, p.q, &mut rng);
        let mut w = vec![0i64; p.n];
        for _ in 0..nnz {
            let i = rng.gen_range(0..p.n);
            w[i] = rng.gen_range(-wmax..=wmax);
        }
        let got = mul(&PolyMulBackend::Pow2, &a, &w, &p);
        let want = signed_reference_conv(a.coeffs(), &w, p.q, p.q);
        let sq: f64 = w.iter().map(|&x| (x * x) as f64).sum();
        let bound = PolyMulBackend::Pow2
            .error_model(&p)
            .expect("Pow2 is approximate")
            .phase_error_bound(&p, sq, 1);
        for (&g, &e) in got.coeffs().iter().zip(&want) {
            let err = flash_math::modular::center_lift(g.wrapping_sub(e) & (p.q - 1), p.q)
                .unsigned_abs();
            prop_assert!((err as f64) < bound, "err {} above bound {}", err, bound);
        }
    }

    #[test]
    fn conv_encoding_correct_for_random_geometry(
        c in 1usize..4,
        h in 3usize..7,
        w_dim in 3usize..7,
        k in 1usize..3,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= h && k <= w_dim);
        let shape = ConvShape { c, h, w: w_dim, m: 2, k };
        let n = 256usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::Rng;
        let x: Vec<i64> = (0..shape.input_len()).map(|_| rng.gen_range(-8..8)).collect();
        let f: Vec<i64> = (0..shape.m * shape.kernel_len()).map(|_| rng.gen_range(-8..8)).collect();
        let fft = flash_fft::NegacyclicFft::new(n);
        for align in [TileAlignment::Compact, TileAlignment::PowerOfTwo] {
            let enc = ConvEncoder::with_alignment(shape, n, align);
            let acts = enc.encode_activation(&x);
            let mut y = vec![0i64; shape.output_len()];
            for oc in 0..shape.m {
                let wp = enc.encode_weight(&f[oc * shape.kernel_len()..][..shape.kernel_len()], oc);
                for b in 0..enc.bands() {
                    let mut acc = vec![0i64; n];
                    for g in 0..enc.groups() {
                        for (s, v) in acc
                            .iter_mut()
                            .zip(fft.polymul_i64(&acts[g * enc.bands() + b], &wp[g][b]))
                        {
                            *s += v as i64;
                        }
                    }
                    enc.decode_band(&acc, b, oc, &mut y);
                }
            }
            prop_assert_eq!(&y, &direct_conv_stride1(&x, &f, &shape), "{:?}", align);
        }
    }

    #[test]
    fn matvec_encoding_correct_for_random_geometry(
        ni in 1usize..40,
        no in 1usize..12,
        seed in any::<u64>(),
    ) {
        let n = 32usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::Rng;
        let w: Vec<i64> = (0..ni * no).map(|_| rng.gen_range(-8..8)).collect();
        let x: Vec<i64> = (0..ni).map(|_| rng.gen_range(-8..8)).collect();
        let enc = MatVecEncoder::new(ni, no, n);
        let fft = flash_fft::NegacyclicFft::new(n);
        let xs = enc.encode_vector(&x);
        let mut y = vec![0i64; no];
        for rb in 0..enc.row_blocks() {
            let mut acc = vec![0i64; n];
            for (cc, xp) in xs.iter().enumerate() {
                let wp = enc.encode_matrix(&w, rb, cc);
                for (s, v) in acc.iter_mut().zip(fft.polymul_i64(xp, &wp)) {
                    *s += v as i64;
                }
            }
            enc.decode_block(&acc, rb, &mut y);
        }
        prop_assert_eq!(y, matvec_reference(&w, &x, ni, no));
    }
}

// The packing's no-collision claim, over many more cases than the block
// above: each case is a handful of small products.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_conv_encoding_matches_direct_conv(
        c in 1usize..6,
        h in 3usize..9,
        w_dim in 3usize..9,
        m in 1usize..8,
        k in 1usize..4,
        pad in 0usize..2,
        stride in 1usize..3,
        log_n in 4u32..9,
        pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // A random layer, folded when strided (the shapes `StrideFold`
        // hands the encoder), under a random one of its partitions.
        let padded = ConvShape { c, h: h + 2 * pad, w: w_dim + 2 * pad, m, k };
        prop_assume!(k <= padded.h.min(padded.w));
        let fold = StrideFold::new(padded, stride);
        let shape = fold.shape();
        let n = 1usize << log_n;
        prop_assume!(shape.k * shape.w <= n);
        let (x, f) = rand_tensors(&ConvShape { h, w: w_dim, ..padded }, seed);
        let xp = pad_input(&x, c, h, w_dim, pad);
        let (x, f) = (fold.activation(&xp), fold.kernel(&f));
        let base = ConvEncoder::new(shape, n);
        let partitions: Vec<(usize, usize)> = base.partitions().collect();
        prop_assert_eq!(partitions[0], (base.channels_per_group(), 1));
        let (cw, mw) = partitions[(pick % partitions.len() as u64) as usize];
        let enc = base.with_partition(cw, mw);
        prop_assert_eq!(enc.packs(), shape.m.div_ceil(mw));
        prop_assert!(mw == 1 || (enc.bands() == 1 && mw * cw * shape.h * shape.w <= n));
        prop_assert_eq!(
            packed_conv(&enc, &x, &f),
            direct_conv_stride1(&x, &f, &shape),
            "{} N={} ({}, {})", shape, n, cw, mw
        );
    }

    #[test]
    fn packed_conv_encoding_holds_at_the_wrap_boundary(
        log_h in 1u32..4,
        log_w in 1u32..4,
        log_cw in 0u32..3,
        log_mw in 1u32..4,
        k in 1usize..4,
        short_group in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // `M_w·C_w·CS = N` exactly: the last slot's product terms wrap
        // past N onto slot 0's side. Two groups, the second one short
        // when `short_group`, and a partial last pack (`M_w ≥ 2`).
        let (h, w_dim) = (1usize << log_h, 1usize << log_w);
        prop_assume!(k <= h.min(w_dim));
        let (cw, mw) = (1usize << log_cw, 1usize << log_mw);
        let n = mw * cw * h * w_dim;
        prop_assume!(n >= 16);
        let c = 2 * cw - usize::from(short_group && cw > 1);
        let shape = ConvShape { c, h, w: w_dim, m: 2 * mw - 1, k };
        let (x, f) = rand_tensors(&shape, seed);
        let enc = ConvEncoder::new(shape, n).with_partition(cw, mw);
        prop_assert_eq!((enc.groups(), enc.packs()), (2, 2));
        prop_assert_eq!(enc.pack_channels(1).len(), mw - 1);
        prop_assert_eq!(
            packed_conv(&enc, &x, &f),
            direct_conv_stride1(&x, &f, &shape),
            "{} N={} ({}, {})", shape, n, cw, mw
        );
    }
}
