//! The batched client key path against its own width-1 case and against
//! the bytes the per-ciphertext implementation it replaced produced.
//!
//! `SecretKey::{encrypt, decrypt, phase}` *are* the batch functions at
//! width 1, so the property here is batch-size and SIMD-level invariance
//! (same RNG stream in, byte-identical ciphertexts and plaintexts out, on
//! both ring families), and the pinned digests are the independent
//! reference: they were computed with the scalar per-polynomial key
//! product (three NTTs and a `u128` Garner per call) before the prepared
//! key existed, and the `N = 8192` one with the batched two-prime
//! CRT-NTT product before the power-of-two ring's key product moved to
//! the split-limb `f64` FFT.
//!
//! `SecretKey::decrypt_coeffs_into` is checked against the gather of the
//! full batched decryption, on both sides of its extraction rule (which
//! reads rows on the power-of-two ring only).
//!
//! `force_level` is process-global; every level is bit-identical, so the
//! tests here can interleave without affecting each other's result.

use flash_he::keys::KEY_BATCH;
use flash_he::serialize::{ciphertext_to_bytes, poly_to_bytes};
use flash_he::{Ciphertext, HeParams, Poly, SecretKey};
use flash_runtime::simd::{self, SimdLevel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Both ring families at N ∈ {256, 1024, 4096}.
fn parameter_sets() -> Vec<(&'static str, HeParams)> {
    vec![
        ("prime_256", HeParams::test_256()),
        ("prime_1024", HeParams::new(1024, 36, 1 << 16, 3.2)),
        ("prime_4096", HeParams::flash_default()),
        ("pow2_256", HeParams::pow2_test_256()),
        ("pow2_1024", HeParams::new_pow2(1024, 62, 1 << 16, 3.2)),
        ("pow2_4096", HeParams::flash_pow2()),
    ]
}

fn simd_levels() -> Vec<SimdLevel> {
    [
        SimdLevel::Scalar,
        SimdLevel::Portable,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
    ]
    .into_iter()
    .filter(|&l| l <= simd::detected_level())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn coefficient_extraction_equals_the_gathered_full_decryption(seed in any::<u64>()) {
        for (name, p) in parameter_sets() {
            let n = p.n;
            let mut rng = StdRng::seed_from_u64(seed);
            let sk = SecretKey::generate(&p, &mut rng);
            // The wrap edges, one output row, a random subset sized
            // across the extraction rule, and the whole polynomial.
            let subset: Vec<usize> = (0..rng.gen_range(1..=128))
                .map(|_| rng.gen_range(0..n))
                .collect();
            let position_sets = [
                vec![0],
                vec![n - 1],
                (n / 3..n / 3 + 14).collect(),
                subset,
                (0..n).collect(),
            ];
            for level in simd_levels() {
                simd::force_level(Some(level));
                for batch in [1, KEY_BATCH, KEY_BATCH + 1] {
                    let cts: Vec<Ciphertext> = (0..batch)
                        .map(|_| sk.encrypt(&Poly::uniform(n, p.t, &mut rng), &mut rng))
                        .collect();
                    let mut full = vec![0u64; batch * n];
                    sk.decrypt_batch_into(&cts, &mut full).unwrap();
                    for positions in &position_sets {
                        let mut got = vec![0u64; batch * positions.len()];
                        sk.decrypt_coeffs_into(&cts, &vec![&positions[..]; batch], &mut got)
                            .unwrap();
                        let want: Vec<u64> = full
                            .chunks_exact(n)
                            .flat_map(|m| positions.iter().map(|&i| m[i]))
                            .collect();
                        prop_assert_eq!(
                            &got, &want,
                            "{} {} batch {} P {}", name, level.name(), batch, positions.len()
                        );
                    }
                }
                simd::force_level(None);
            }
        }
    }

    #[test]
    fn batch_crypto_equals_per_ciphertext_crypto_at_every_simd_level(seed in any::<u64>()) {
        let levels = simd_levels();
        for (name, p) in parameter_sets() {
            let mut rng = StdRng::seed_from_u64(seed);
            let sk = SecretKey::generate(&p, &mut rng);
            for &level in &levels {
                simd::force_level(Some(level));
                let w = level.lanes();
                for batch in [1, w - 1, w, w + 1, 3 * w + 2] {
                    let ms: Vec<Poly> = (0..batch)
                        .map(|_| Poly::uniform(p.n, p.t, &mut rng))
                        .collect();
                    let mut batch_rng = StdRng::seed_from_u64(seed ^ batch as u64);
                    let mut single_rng = batch_rng.clone();
                    let cts = sk.encrypt_batch(&ms, &mut batch_rng);
                    let singles: Vec<Ciphertext> =
                        ms.iter().map(|m| sk.encrypt(m, &mut single_rng)).collect();
                    prop_assert_eq!(cts.len(), batch);
                    for (a, b) in cts.iter().zip(&singles) {
                        prop_assert_eq!(
                            ciphertext_to_bytes(a),
                            ciphertext_to_bytes(b),
                            "{} {} batch {}", name, level.name(), batch
                        );
                    }
                    // Both consumed exactly the same stretch of the stream.
                    prop_assert_eq!(batch_rng.next_u64(), single_rng.next_u64());

                    let mut plains = vec![0u64; batch * p.n];
                    sk.decrypt_batch_into(&cts, &mut plains).unwrap();
                    let mut phases = vec![0u64; batch * p.n];
                    sk.phase_batch_into(&cts, &mut phases).unwrap();
                    for (k, ct) in cts.iter().enumerate() {
                        let plain = sk.decrypt(ct);
                        prop_assert_eq!(&plain, &ms[k]);
                        prop_assert_eq!(&plains[k * p.n..][..p.n], plain.coeffs());
                        prop_assert_eq!(&phases[k * p.n..][..p.n], sk.phase(ct).coeffs());
                    }
                }
                simd::force_level(None);
            }
        }
    }
}

/// FNV-1a over three encryptions' ciphertext bytes and decryption phases
/// from a fixed key and message stream.
fn key_path_digest(p: &HeParams) -> u64 {
    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    let mut rng = StdRng::seed_from_u64(0xF1A5);
    let sk = SecretKey::generate(p, &mut rng);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..3 {
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m, &mut rng);
        fnv(&mut h, &ciphertext_to_bytes(&ct));
        assert_eq!(sk.decrypt(&ct), m);
        fnv(&mut h, &poly_to_bytes(&sk.phase(&ct)));
    }
    h
}

#[test]
fn ciphertext_bytes_and_phases_match_the_pre_batching_implementation() {
    let golden = [
        ("prime_256", 0x6bc72446a7722413u64),
        ("prime_1024", 0xc8cd35492595eeac),
        ("prime_4096", 0x7da83c5a160cfe5f),
        ("pow2_256", 0x8fe1ae65b1c900cf),
        ("pow2_1024", 0x659adec71dae6e77),
        ("pow2_4096", 0x4a2d5c98705e7334),
    ];
    for ((name, p), (golden_name, want)) in parameter_sets().into_iter().zip(golden) {
        assert_eq!(name, golden_name);
        assert_eq!(
            key_path_digest(&p),
            want,
            "{name}: ciphertext or phase bytes changed"
        );
    }
}

/// The largest ring the power-of-two key product serves, pinned with the
/// bytes of the two-prime CRT-NTT key product it replaced.
#[test]
fn pow2_8192_ciphertext_bytes_and_phases_match_the_crt_lift() {
    let p = HeParams::new_pow2(8192, 62, 1 << 21, 3.2);
    assert_eq!(
        key_path_digest(&p),
        0x741b24443b2dc803,
        "pow2_8192: ciphertext or phase bytes changed"
    );
}
