//! End-to-end fault-injection sweeps over the convolution protocol.
//!
//! The acceptance contract of the fault-tolerant wire path: under *any*
//! seeded fault schedule the protocol either completes bit-identically
//! to a clean run (recovered by checksum-reject + retransmission) or
//! returns a typed [`FlashError`] — it never panics and never silently
//! corrupts. A second test drives the runtime noise guard to the
//! exact-NTT fallback and checks the process-global telemetry counter.

use flash_2pc::protocol::{expected_conv_mod, ConvProtocol};
use flash_2pc::{FaultConfig, FaultPlan, FlashError, ProtocolError, TransportConfig};
use flash_he::encoding::ConvShape;
use flash_he::{HeParams, PolyMulBackend, SecretKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn toy_conv_inputs(shape: &ConvShape) -> (Vec<i64>, Vec<i64>) {
    let x: Vec<i64> = (0..shape.input_len())
        .map(|i| ((i as i64 * 5) % 7) - 3)
        .collect();
    let w: Vec<i64> = (0..shape.m * shape.kernel_len())
        .map(|i| ((i as i64 * 3) % 7) - 3)
        .collect();
    (x, w)
}

/// Sweeps 1000 seeded fault schedules — 500 moderate ones with a full
/// retry budget, 500 harsh ones (60% drop rate) with a single retry —
/// and demands the recover-bit-identically-or-fail-typed dichotomy for
/// every single schedule. Both outcomes must occur in bulk, so the test
/// is evidence about the recovery path *and* the typed failure path.
#[test]
fn thousand_seeded_fault_schedules_recover_or_fail_typed() {
    let params = HeParams::toy();
    let shape = ConvShape {
        c: 1,
        h: 3,
        w: 3,
        m: 1,
        k: 2,
    };
    let (x, w) = toy_conv_inputs(&shape);
    let mut key_rng = StdRng::seed_from_u64(42);
    let sk = SecretKey::generate(&params, &mut key_rng);

    let clean_proto = ConvProtocol::new(params.clone(), shape, PolyMulBackend::Ntt);
    let mut rng = StdRng::seed_from_u64(1);
    let (clean_shares, _) = clean_proto.run(&sk, &x, &w, &mut rng).unwrap();

    let mut recovered = 0usize;
    let mut failed = 0usize;
    let mut faults_seen = 0usize;
    for seed in 0..1000u64 {
        let (faults, max_retries) = if seed < 500 {
            (FaultConfig::moderate(seed), 8)
        } else {
            (
                FaultConfig {
                    seed,
                    flip: 0.3,
                    truncate: 0.2,
                    drop: 0.6,
                    duplicate: 0.1,
                    reorder: 0.1,
                },
                1,
            )
        };
        let cfg = TransportConfig {
            faults: Some(FaultPlan::Random(faults)),
            max_retries,
            verify_checksums: true,
            backoff: Default::default(),
        };
        let proto = ConvProtocol::new(params.clone(), shape, PolyMulBackend::Ntt)
            .with_transport_config(cfg);
        // Same protocol RNG as the clean run: the fault injector draws
        // from its own stream, so a recovered run must be bit-identical.
        let mut rng = StdRng::seed_from_u64(1);
        match proto.run(&sk, &x, &w, &mut rng) {
            Ok((shares, stats)) => {
                assert_eq!(
                    shares, clean_shares,
                    "seed {seed}: recovered run diverged from the clean run"
                );
                faults_seen += stats.faults_detected + stats.frames_retried;
                recovered += 1;
            }
            Err(e) => {
                assert!(
                    matches!(
                        e,
                        FlashError::Protocol(
                            ProtocolError::RetriesExhausted { .. }
                                | ProtocolError::DeadlineExceeded { .. }
                        )
                    ),
                    "seed {seed}: unexpected failure {e:?}"
                );
                failed += 1;
            }
        }
    }
    assert_eq!(recovered + failed, 1000);
    assert!(recovered > 100, "only {recovered}/1000 schedules recovered");
    assert!(failed > 100, "only {failed}/1000 schedules failed typed");
    assert!(faults_seen > 0, "sweep never observed a detected fault");
}

/// Shrinking the noise margin to zero forces the guard to re-run every
/// band of an approximate backend on the exact NTT path. The fallbacks
/// must show up in the per-run stats *and* the process-global telemetry
/// counter, and the reconstruction must still be exact.
#[test]
fn shrunken_margin_records_fallbacks_in_telemetry() {
    let params = HeParams::pow2_test_256();
    let shape = ConvShape {
        c: 2,
        h: 5,
        w: 5,
        m: 2,
        k: 3,
    };
    let (x, w) = toy_conv_inputs(&shape);
    let mut rng = StdRng::seed_from_u64(9);
    let sk = SecretKey::generate(&params, &mut rng);

    let mut cfg = flash_fft::ApproxFftConfig::uniform(
        params.n,
        flash_math::fixed::FxpFormat::new(18, 34),
        30,
    );
    cfg.max_shift = 30;
    let proto =
        ConvProtocol::new(params, shape, PolyMulBackend::approx(cfg)).with_noise_margin(0.0);

    // Counters are process-global (other tests in this binary may also
    // bump them), so only the delta across this run is meaningful and
    // only a `>=` comparison is sound.
    let before = flash_telemetry::counter!("hconv.pow2_fallbacks").get();
    let (shares, stats) = proto.run(&sk, &x, &w, &mut rng).unwrap();
    let after = flash_telemetry::counter!("hconv.pow2_fallbacks").get();

    assert!(stats.pow2_fallbacks > 0, "zero margin must force fallbacks");
    assert_eq!(
        stats.pow2_fallbacks, stats.ciphertexts_down,
        "every (oc, band) job must have fallen back"
    );
    assert!(
        after - before >= stats.pow2_fallbacks as u64,
        "telemetry counter missed fallbacks: {before} -> {after}"
    );
    assert_eq!(
        proto.reconstruct(&shares),
        expected_conv_mod(&x, &w, proto.encoder().shape(), proto.ring()),
        "the wrapping-schoolbook fallback must keep decryption exact"
    );
}
