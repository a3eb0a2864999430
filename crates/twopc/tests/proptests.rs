//! Property-based tests for secret sharing and the protocol layer.

use flash_2pc::protocol::{expected_conv_mod, ConvProtocol};
use flash_2pc::shares::ShareRing;
use flash_he::encoding::ConvShape;
use flash_he::{HeParams, PolyMulBackend, SecretKey};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sharing_roundtrips_any_values(l in 2u32..32, xs in prop::collection::vec(any::<i32>(), 1..64)) {
        let ring = ShareRing::new(l);
        let vals: Vec<i64> = xs.iter().map(|&x| x as i64).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (c, s) = ring.share_vec(&vals, &mut rng);
        let back = ring.reconstruct_vec(&c, &s);
        for (orig, got) in vals.iter().zip(&back) {
            // equality holds modulo 2^l, in the centered representative
            let want = ring.to_signed(ring.reduce(*orig));
            prop_assert_eq!(want, *got);
        }
    }

    #[test]
    fn ring_add_sub_inverse(l in 2u32..32, a in any::<u64>(), b in any::<u64>()) {
        let ring = ShareRing::new(l);
        let a = a & (ring.modulus() - 1);
        let b = b & (ring.modulus() - 1);
        prop_assert_eq!(ring.sub(ring.add(a, b), b), a);
        prop_assert_eq!(ring.add(ring.sub(a, b), b), a);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Full protocol correctness over random small convolution geometry.
    #[test]
    fn conv_protocol_correct(seed in 0u64..1000, m_ch in 1usize..3, k in 1usize..3) {
        let params = HeParams::pow2_test_256();
        let shape = ConvShape { c: 2, h: 5, w: 5, m: m_ch, k };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&params, &mut rng);
        let proto = ConvProtocol::new(params, shape, PolyMulBackend::Pow2);
        use rand::Rng;
        let x: Vec<i64> = (0..shape.input_len()).map(|_| rng.gen_range(-8..8)).collect();
        let w: Vec<i64> = (0..shape.m * shape.kernel_len()).map(|_| rng.gen_range(-8..8)).collect();
        let (shares, _) = proto.run(&sk, &x, &w, &mut rng).unwrap();
        prop_assert_eq!(
            proto.reconstruct(&shares),
            expected_conv_mod(&x, &w, &shape, proto.ring())
        );
    }
}
