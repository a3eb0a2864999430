//! The wire view of the protocol: serialization, response truncation,
//! the resulting traffic, and what happens when the wire misbehaves —
//! checksum-detected faults, retransmission, and the noise-guard
//! fallback of the approximate weight transform to the exact wrapping
//! schoolbook of the power-of-two ring.
//!
//! ```text
//! cargo run --release -p flash-accel --example secure_transport
//! ```

use flash_2pc::protocol::{expected_conv_mod, ConvProtocol};
use flash_2pc::{FaultOp, FaultPlan, TransportConfig};
use flash_he::encoding::ConvShape;
use flash_he::serialize::{ciphertext_from_bytes, ciphertext_to_bytes};
use flash_he::truncate::{safe_truncation, TruncatedCiphertext};
use flash_he::{HeParams, Poly, PolyMulBackend, SecretKey};
use rand::SeedableRng;

fn main() {
    let params = HeParams::test_256();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let sk = SecretKey::generate(&params, &mut rng);

    // --- 1. A ciphertext crosses the wire byte-exactly.
    let m = Poly::uniform(params.n, params.t, &mut rng);
    let ct = sk.encrypt(&m, &mut rng);
    let wire = ciphertext_to_bytes(&ct);
    let back = ciphertext_from_bytes(&wire, params.n, params.q).expect("well-formed wire bytes");
    assert_eq!(sk.decrypt(&back), m);
    println!(
        "serialization: {} coefficients x 2 polys -> {} bytes, decrypts identically",
        params.n,
        wire.len()
    );

    // --- 2. Truncation compresses the download within the noise budget.
    let budget = params.noise_ceiling() as f64 - sk.noise(&ct, &m).inf_norm() as f64;
    let (d0, d1) = safe_truncation(&params, budget, 0.25);
    let t = TruncatedCiphertext::truncate(&ct, d0, d1, &params);
    let saved = 1.0 - t.byte_size(&params) as f64 / ct.byte_size() as f64;
    assert_eq!(sk.decrypt(&t.reconstruct(&params)), m);
    println!(
        "truncation: dropping ({d0}, {d1}) low bits saves {:.0}% of the response \
         (noise bound {:.0} of budget {budget:.0})",
        saved * 100.0,
        t.noise_bound(&params)
    );

    // --- 3. The full protocol at its planned truncation, against
    // whole responses.
    let shape = ConvShape {
        c: 2,
        h: 6,
        w: 6,
        m: 2,
        k: 3,
    };
    let x: Vec<i64> = (0..shape.input_len())
        .map(|i| ((i as i64 * 5) % 15) - 7)
        .collect();
    let w: Vec<i64> = (0..shape.m * shape.kernel_len())
        .map(|i| ((i as i64 * 3) % 15) - 7)
        .collect();

    let plain = ConvProtocol::new(params.clone(), shape, PolyMulBackend::Ntt).with_truncation(0, 0);
    let mut r = rand::rngs::StdRng::seed_from_u64(1);
    let (_, base) = plain.run(&sk, &x, &w, &mut r).expect("protocol run failed");

    let compressed = ConvProtocol::new(params, shape, PolyMulBackend::Ntt);
    let mut r = rand::rngs::StdRng::seed_from_u64(1);
    let (shares, stats) = compressed
        .run(&sk, &x, &w, &mut r)
        .expect("protocol run failed");
    assert_eq!(
        compressed.reconstruct(&shares),
        expected_conv_mod(&x, &w, &shape, compressed.ring())
    );
    println!(
        "protocol: upload {} B; download {} B at the planned {:?} vs {} B plain \
         ({:.0}% saved), outputs bit-exact",
        stats.upload_bytes,
        stats.download_bytes,
        compressed.server().layer().truncation().expect("planned"),
        base.download_bytes,
        (1.0 - stats.download_bytes as f64 / base.download_bytes as f64) * 100.0
    );

    // --- 4. A faulty wire: frames get flipped, truncated, dropped,
    // duplicated and reordered by a seeded injector; the per-frame
    // checksums reject every corruption and bounded retransmission
    // recovers — the result is bit-identical to the clean run.
    let shape4 = ConvShape {
        c: 1,
        h: 4,
        w: 4,
        m: 1,
        k: 3,
    };
    let x4: Vec<i64> = (0..shape4.input_len())
        .map(|i| (i as i64 % 5) - 2)
        .collect();
    let w4: Vec<i64> = (0..shape4.kernel_len())
        .map(|i| (i as i64 % 5) - 2)
        .collect();
    let p4 = HeParams::test_256();
    let clean = ConvProtocol::new(p4.clone(), shape4, PolyMulBackend::Ntt);
    let mut r = rand::rngs::StdRng::seed_from_u64(3);
    let (clean_shares, _) = clean.run(&sk, &x4, &w4, &mut r).expect("clean run");

    // A scripted schedule, applied to each direction's successive
    // transmissions: the first frame arrives with a flipped bit, its
    // retransmission arrives truncated, the second retransmission is
    // clean. (`FaultPlan::Random` draws the same fault classes from a
    // seeded RNG instead.)
    let faulty = ConvProtocol::new(p4.clone(), shape4, PolyMulBackend::Ntt).with_transport_config(
        TransportConfig::faulty(FaultPlan::Scripted(vec![
            FaultOp::FlipBit { byte: 40, bit: 1 },
            FaultOp::Truncate { keep: 10 },
        ])),
    );
    let mut r = rand::rngs::StdRng::seed_from_u64(3);
    let (fault_shares, fstats) = faulty.run(&sk, &x4, &w4, &mut r).expect("recovered run");
    assert_eq!(fault_shares, clean_shares);
    println!(
        "faulty wire: {} faults detected, {} frames retried, {} of {} framed bytes were \
         overhead; recovered output bit-identical",
        fstats.faults_detected,
        fstats.frames_retried,
        (fstats.upload_wire_bytes + fstats.download_wire_bytes)
            - (fstats.upload_bytes + fstats.download_bytes),
        fstats.upload_wire_bytes + fstats.download_wire_bytes,
    );

    // --- 5. The noise guard: the approximate weight transform runs on
    // the power-of-two ring (q = 2^62). Shrinking the margin to zero makes
    // every band's composed bound look unsafe, so each (pack, band) unit
    // re-runs on the exact wrapping schoolbook — decryption stays exact
    // and telemetry records the fallbacks.
    let p5 = HeParams::pow2_test_256();
    let sk5 = SecretKey::generate(&p5, &mut rng);
    let mut acfg =
        flash_fft::ApproxFftConfig::uniform(p5.n, flash_math::fixed::FxpFormat::new(18, 34), 30);
    acfg.max_shift = 30;
    let guarded =
        ConvProtocol::new(p5, shape4, PolyMulBackend::approx(acfg)).with_noise_margin(0.0);
    let mut r = rand::rngs::StdRng::seed_from_u64(3);
    let (gshares, gstats) = guarded.run(&sk5, &x4, &w4, &mut r).expect("guarded run");
    assert_eq!(
        guarded.reconstruct(&gshares),
        expected_conv_mod(&x4, &w4, &shape4, guarded.ring())
    );
    assert_eq!(gstats.pow2_fallbacks, gstats.ciphertexts_down);
    println!(
        "noise guard: margin 0.0 forced {} wrapping-schoolbook fallbacks across {} \
         responses, output still exact",
        gstats.pow2_fallbacks, gstats.ciphertexts_down
    );
}
