//! The convolution protocol must not depend on the runtime's worker
//! count: the client's chunked, batched key products and the server's
//! per-pack fan-out produce the same shares, the same bytes on the
//! wire and the same accounting at `FLASH_THREADS` 1 and 2.
//!
//! Single test function: the thread override is process-global.

use flash_2pc::ConvProtocol;
use flash_he::encoding::ConvShape;
use flash_he::{HeParams, PolyMulBackend, SecretKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn run_shared_is_bit_identical_at_one_and_two_threads() {
    // The planner packs two output channels a response ((C_w, M_w) =
    // (1, 2)): 10 responses and 6 uploads per run, so several
    // `KEY_BATCH` chunks (with a remainder) on the download side and two
    // workers really split the client's decrypt and the server's packs.
    let shape = ConvShape {
        c: 6,
        h: 10,
        w: 10,
        m: 20,
        k: 3,
    };
    for (params, backend) in [
        (HeParams::test_256(), PolyMulBackend::Ntt),
        (HeParams::pow2_test_256(), PolyMulBackend::Pow2),
    ] {
        let mut results = Vec::new();
        for threads in [1usize, 2] {
            let _guard = flash_runtime::ThreadOverrideGuard::set(threads);
            let mut rng = StdRng::seed_from_u64(11);
            let sk = SecretKey::generate(&params, &mut rng);
            let proto =
                ConvProtocol::new(params.clone(), shape, backend.clone()).with_truncation(4, 1);
            let ring = proto.ring();
            let x: Vec<i64> = (0..shape.input_len())
                .map(|_| rng.gen_range(-8..8))
                .collect();
            let w: Vec<i64> = (0..shape.m * shape.kernel_len())
                .map(|_| rng.gen_range(-8..8))
                .collect();
            let (xc, xs) = ring.share_vec(&x, &mut rng);
            let (shares, stats) = proto.run_shared(&sk, &xc, &xs, &w, &mut rng).unwrap();
            assert_eq!(
                proto.reconstruct(&shares),
                flash_2pc::expected_conv_mod(&x, &w, &shape, ring)
            );
            assert_eq!((stats.ciphertexts_up, stats.ciphertexts_down), (6, 10));
            assert!(stats.ciphertexts_down > flash_he::keys::KEY_BATCH);
            results.push((shares, stats));
        }
        assert_eq!(
            results[0], results[1],
            "shares and ProtocolStats (byte counts included) must not depend on FLASH_THREADS"
        );
    }
}
