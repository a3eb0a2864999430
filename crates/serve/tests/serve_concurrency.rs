//! Concurrency acceptance for the serving layer.
//!
//! * **Determinism** — N concurrent sessions served by the batching
//!   core produce bit-identical client *and* server shares to N serial
//!   per-session runs, for any worker count: batching and scheduling
//!   affect wall-clock only, never bytes.
//! * **Chaos** — per-session fault schedules on the wire: sessions with
//!   recoverable faults either deliver bit-identical results or fail
//!   with a typed error, a wedged session fails fast without stalling
//!   or corrupting any other session.

use flash_2pc::transport::{FaultConfig, FaultOp, FaultPlan, TransportConfig};
use flash_2pc::{expected_conv_mod, ShareRing};
use flash_he::encoding::ConvShape;
use flash_he::{HeParams, PolyMulBackend};
use flash_serve::{BatchPolicy, Client, InferenceServer, ModelSpec, ServeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;

const SERVER_SEED: u64 = 42;
const MODEL_A: u64 = 1;
const MODEL_B: u64 = 2;

fn shape_a() -> ConvShape {
    ConvShape {
        c: 2,
        h: 6,
        w: 6,
        m: 2,
        k: 3,
    }
}

/// A banded layer (h·w > N) so multi-band units are exercised.
fn shape_b() -> ConvShape {
    ConvShape {
        c: 1,
        h: 24,
        w: 24,
        m: 1,
        k: 3,
    }
}

fn weights_for(shape: &ConvShape, salt: i64) -> Vec<i64> {
    (0..shape.m * shape.kernel_len())
        .map(|i| ((i as i64 * 3 + salt) % 15) - 7)
        .collect()
}

fn register_models(server: &InferenceServer) {
    let params = HeParams::test_256();
    server
        .register_model(
            ModelSpec::new(
                MODEL_A,
                params.clone(),
                shape_a(),
                PolyMulBackend::FftF64,
                weights_for(&shape_a(), 1),
            )
            .with_truncation(8, 2),
        )
        .unwrap();
    server
        .register_model(ModelSpec::new(
            MODEL_B,
            params,
            shape_b(),
            PolyMulBackend::Ntt,
            weights_for(&shape_b(), 2),
        ))
        .unwrap();
}

fn model_of(tag: u64) -> (u64, ConvShape, Vec<i64>) {
    if tag.is_multiple_of(2) {
        (MODEL_A, shape_a(), weights_for(&shape_a(), 1))
    } else {
        (MODEL_B, shape_b(), weights_for(&shape_b(), 2))
    }
}

/// Per-`(client tag, request)` output shares of one fleet run.
#[derive(Debug, Default, PartialEq, Eq)]
struct FleetOutputs {
    /// `(client share, server share)` of every answered request.
    ok: BTreeMap<(u64, u64), (Vec<u64>, Vec<u64>)>,
}

struct FleetRun {
    outputs: FleetOutputs,
    /// The cleartext activation of every prepared request.
    inputs: BTreeMap<(u64, u64), Vec<i64>>,
    /// First error observed per client tag, if any.
    errors: BTreeMap<u64, ServeError>,
    snapshots: Vec<flash_serve::SessionSnapshot>,
    stats: flash_serve::ServerStats,
}

/// Connects `n_clients` sessions (transport configs per client tag from
/// `cfg_for`), round-robins `reqs` pipelined requests through each, and
/// collects every share. Client randomness is a pure function of the
/// tag, so two runs differ only in policy/workers/faults.
fn run_fleet(
    policy: BatchPolicy,
    workers: usize,
    n_clients: u64,
    reqs: u64,
    cfg_for: &dyn Fn(u64) -> (TransportConfig, TransportConfig),
) -> FleetRun {
    let server = InferenceServer::start(policy, SERVER_SEED, workers);
    register_models(&server);
    let params = HeParams::test_256();
    let timeout = Duration::from_secs(5);

    let mut errors: BTreeMap<u64, ServeError> = BTreeMap::new();
    let mut clients: Vec<Option<(u64, Client, StdRng)>> = Vec::new();
    for tag in 0..n_clients {
        let (model_id, shape, _) = model_of(tag);
        let (cfg_up, cfg_down) = cfg_for(tag);
        let mut rng = StdRng::seed_from_u64(1000 + tag);
        match Client::connect(
            &server,
            model_id,
            tag,
            params.clone(),
            shape,
            cfg_up,
            cfg_down,
            timeout,
            &mut rng,
        ) {
            Ok(client) => clients.push(Some((tag, client, rng))),
            Err(e) => {
                errors.insert(tag, e);
                clients.push(None);
            }
        }
    }

    // Round-robin dispatch: request r of every live session enters the
    // queue before request r+1 of any.
    let mut inputs = BTreeMap::new();
    let mut dispatched = 0u64;
    for req_id in 0..reqs {
        for slot in clients.iter_mut() {
            let Some((tag, client, rng)) = slot.as_mut() else {
                continue;
            };
            let (_, shape, _) = model_of(*tag);
            let x: Vec<i64> = (0..shape.input_len())
                .map(|_| rng.gen_range(-8..8))
                .collect();
            let prepared = client.prepare(req_id, &x, rng);
            inputs.insert((*tag, req_id), x);
            match client.dispatch(&server, &prepared) {
                // Ok promises exactly one terminal outcome per the
                // server's contract; an Err *is* the terminal outcome.
                Ok(()) => dispatched += 1,
                Err(e) => {
                    errors.insert(*tag, e);
                    *slot = None;
                }
            }
        }
    }
    assert!(
        server.wait_for_timeout(dispatched, Duration::from_secs(120)),
        "server must reach {dispatched} terminal outcomes"
    );

    let mut outputs = FleetOutputs::default();
    for slot in clients.iter_mut() {
        let Some((tag, client, _)) = slot.as_mut() else {
            continue;
        };
        for _ in 0..reqs {
            match client.collect() {
                Ok((req_id, y_client)) => {
                    let y_server = server
                        .take_result(client.session_id(), req_id)
                        .expect("answered request leaves a server share");
                    outputs.ok.insert((*tag, req_id), (y_client, y_server));
                }
                Err(e) => {
                    errors.insert(*tag, e);
                    break;
                }
            }
        }
    }
    let run = FleetRun {
        outputs,
        inputs,
        errors,
        snapshots: server.session_snapshots(),
        stats: server.stats(),
    };
    server.shutdown();
    run
}

fn clean_cfg(_tag: u64) -> (TransportConfig, TransportConfig) {
    (TransportConfig::default(), TransportConfig::default())
}

/// Checks every answered request's shares reconstruct to the cleartext
/// convolution.
fn verify_against_reference(run: &FleetRun, n_clients: u64, reqs: u64) {
    let ring = ShareRing::new(HeParams::test_256().t.trailing_zeros());
    for tag in 0..n_clients {
        let (_, shape, weights) = model_of(tag);
        for req_id in 0..reqs {
            let x = &run.inputs[&(tag, req_id)];
            let (y_client, y_server) = &run.outputs.ok[&(tag, req_id)];
            let got = ring.reconstruct_vec(y_client, y_server);
            let want = expected_conv_mod(x, &weights, &shape, ring);
            assert_eq!(got, want, "client {tag} request {req_id}");
        }
    }
}

#[test]
fn concurrent_batched_sessions_match_serial_baseline_bitwise() {
    let n_clients = 6;
    let reqs = 4;
    let reference = run_fleet(
        BatchPolicy::serial_baseline(),
        1,
        n_clients,
        reqs,
        &clean_cfg,
    );
    assert!(
        reference.errors.is_empty(),
        "clean serial run must not fail: {:?}",
        reference.errors
    );
    assert_eq!(
        reference.outputs.ok.len(),
        (n_clients * reqs) as usize,
        "every request answered"
    );
    verify_against_reference(&reference, n_clients, reqs);

    for workers in [1, 2, 4] {
        let batched = run_fleet(BatchPolicy::batched(), workers, n_clients, reqs, &clean_cfg);
        assert!(
            batched.errors.is_empty(),
            "clean batched run (workers={workers}) must not fail: {:?}",
            batched.errors
        );
        assert_eq!(
            batched.outputs, reference.outputs,
            "batched outputs (workers={workers}) must be bit-identical to the serial baseline"
        );
        assert_eq!(batched.stats.requests_ok, n_clients * reqs);
        assert_eq!(batched.stats.requests_failed, 0);
        // A clean wave never exercises the resilience machinery: any
        // refusal, retransmission or watchdog kick on healthy links is a
        // false positive that would refuse real traffic.
        let s = &batched.stats;
        for (counter, v) in [
            ("shed", s.shed),
            ("expired", s.expired),
            ("quarantined", s.quarantined),
            ("poisoned", s.poisoned),
            ("retries", s.retries),
            ("watchdog_kicks", s.watchdog_kicks),
            ("requests_refused", s.requests_refused),
        ] {
            assert_eq!(
                v, 0,
                "clean batched run (workers={workers}) counted {v} {counter}"
            );
        }
    }
}

#[test]
fn responses_are_bit_identical_at_one_and_two_runtime_threads() {
    // The runtime's thread count (`FLASH_THREADS`) is a different axis
    // from the server's worker count: it sizes the parallel regions
    // inside the kernels and the client's chunked key products.
    let (n_clients, reqs) = (4, 2);
    let runs: Vec<FleetRun> = [1usize, 2]
        .into_iter()
        .map(|threads| {
            let _guard = flash_runtime::ThreadOverrideGuard::set(threads);
            run_fleet(BatchPolicy::batched(), 2, n_clients, reqs, &clean_cfg)
        })
        .collect();
    for run in &runs {
        assert!(run.errors.is_empty(), "clean run failed: {:?}", run.errors);
        verify_against_reference(run, n_clients, reqs);
    }
    assert_eq!(
        runs[0].outputs, runs[1].outputs,
        "client and server shares must not depend on FLASH_THREADS"
    );
}

#[test]
fn pow2_model_roundtrips_and_batched_matches_serial_bitwise() {
    // The serving stack end-to-end on a power-of-two ciphertext modulus:
    // HELLO/params handshake, 8-byte-coefficient serialization, the
    // Pow2 spectral units of the batched core, and the serial baseline —
    // identical shares from both scheduling policies.
    let params = HeParams::pow2_test_256();
    let shape = shape_a();
    let weights = weights_for(&shape, 3);
    let reqs = 3u64;
    let run = |policy: BatchPolicy| {
        let server = InferenceServer::start(policy, SERVER_SEED, 1);
        server
            .register_model(ModelSpec::new(
                9,
                params.clone(),
                shape,
                PolyMulBackend::Pow2,
                weights.clone(),
            ))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2024);
        let mut client = Client::connect(
            &server,
            9,
            0,
            params.clone(),
            shape,
            TransportConfig::default(),
            TransportConfig::default(),
            Duration::from_secs(5),
            &mut rng,
        )
        .unwrap();
        let mut inputs = Vec::new();
        for req_id in 0..reqs {
            let x: Vec<i64> = (0..shape.input_len())
                .map(|_| rng.gen_range(-8..8))
                .collect();
            let prepared = client.prepare(req_id, &x, &mut rng);
            inputs.push(x);
            client.dispatch(&server, &prepared).unwrap();
        }
        assert!(server.wait_for_timeout(reqs, Duration::from_secs(120)));
        let mut shares = Vec::new();
        for _ in 0..reqs {
            let (req_id, y_client) = client.collect().unwrap();
            let y_server = server.take_result(client.session_id(), req_id).unwrap();
            shares.push((req_id, y_client, y_server));
        }
        server.shutdown();
        (inputs, shares)
    };
    let (inputs, serial) = run(BatchPolicy::serial_baseline());
    let ring = ShareRing::new(params.t.trailing_zeros());
    for (req_id, y_client, y_server) in &serial {
        let got = ring.reconstruct_vec(y_client, y_server);
        let want = expected_conv_mod(&inputs[*req_id as usize], &weights, &shape, ring);
        assert_eq!(got, want, "request {req_id}");
    }
    let (_, batched) = run(BatchPolicy::batched());
    assert_eq!(batched, serial, "pow2 batched path must match serial");
}

#[test]
fn model_cache_and_sessions_are_accounted() {
    let run = run_fleet(BatchPolicy::batched(), 2, 4, 2, &clean_cfg);
    assert!(run.errors.is_empty(), "{:?}", run.errors);
    assert_eq!(run.snapshots.len(), 4);
    for snap in &run.snapshots {
        assert!(!snap.failed);
        assert_eq!(snap.requests_ok, 2);
        assert_eq!(snap.requests_failed, 0);
        assert!(snap.upload_bytes > 0 && snap.download_bytes > 0);
        assert_eq!(snap.faults_detected, 0);
    }
    // two registrations (misses) + one cache hit per accept
    assert_eq!(run.stats.model_cache.misses, 2);
    assert!(run.stats.model_cache.hits >= 4);
    assert_eq!(run.stats.model_cache.evictions, 0);
    assert_eq!(run.stats.batched_requests, 8);
    assert!(run.stats.occupancy() > 0.0 && run.stats.occupancy() <= 1.0);
}

/// A scripted uplink that lets the handshake through and then drops
/// every frame past the retry budget: the session must wedge, typed.
fn doomed_cfg() -> (TransportConfig, TransportConfig) {
    let mut ops = vec![FaultOp::None]; // HELLO passes
    ops.extend(std::iter::repeat_n(FaultOp::Drop, 24));
    let up = TransportConfig {
        faults: Some(FaultPlan::Scripted(ops)),
        max_retries: 3,
        verify_checksums: true,
        backoff: Default::default(),
    };
    (up, TransportConfig::default())
}

fn chaos_cfg(tag: u64) -> (TransportConfig, TransportConfig) {
    if tag == 12 {
        return doomed_cfg();
    }
    if tag % 2 == 1 {
        let up =
            TransportConfig::faulty(FaultPlan::Random(FaultConfig::moderate(0xC0DE + 2 * tag)));
        let down = TransportConfig::faulty(FaultPlan::Random(FaultConfig::moderate(
            0xBEEF + 2 * tag + 1,
        )));
        (up, down)
    } else {
        clean_cfg(tag)
    }
}

#[test]
fn per_session_chaos_never_leaks_across_sessions() {
    let n_clients = 13; // tag 12 is the doomed session
    let reqs = 3;
    let reference = run_fleet(BatchPolicy::batched(), 2, n_clients, reqs, &clean_cfg);
    assert!(reference.errors.is_empty(), "{:?}", reference.errors);

    let chaotic = run_fleet(BatchPolicy::batched(), 2, n_clients, reqs, &chaos_cfg);

    // The wedged session fails typed — at dispatch (admission hits the
    // exhausted uplink) — and is poisoned server-side.
    let doomed_err = chaotic.errors.get(&12).expect("doomed session must fail");
    assert!(
        matches!(
            doomed_err,
            ServeError::Flash(_) | ServeError::SessionFailed(_)
        ),
        "wedged session fails with a wire-typed error, got {doomed_err:?}"
    );
    assert!(
        chaotic
            .snapshots
            .iter()
            .any(|s| s.client_tag == 12 && s.failed),
        "server must mark the wedged session failed"
    );

    let mut faulted_recovered = 0;
    let mut faults_seen = 0;
    for tag in 0..12 {
        let clean = tag % 2 == 0;
        let answered: Vec<_> = (0..reqs)
            .filter(|&r| chaotic.outputs.ok.contains_key(&(tag, r)))
            .collect();
        if clean {
            // Clean sessions are untouched by other sessions' chaos:
            // every request answered, every byte equal to the all-clean
            // run.
            assert_eq!(answered.len(), reqs as usize, "clean session {tag} stalled");
            assert!(!chaotic.errors.contains_key(&tag), "clean session {tag}");
        }
        for r in answered {
            assert_eq!(
                chaotic.outputs.ok[&(tag, r)],
                reference.outputs.ok[&(tag, r)],
                "session {tag} request {r} must recover bit-identically"
            );
            if !clean {
                faulted_recovered += 1;
            }
        }
        if !clean {
            if let Some(snap) = chaotic.snapshots.iter().find(|s| s.client_tag == tag) {
                faults_seen += snap.faults_detected;
            }
        }
    }
    assert!(
        faulted_recovered > 0,
        "moderate fault plans should recover at least some requests"
    );
    assert!(
        faults_seen > 0,
        "across six moderate fault plans at least one fault must have fired"
    );
    // Clean sessions never see failures in the server's accounting.
    for snap in &chaotic.snapshots {
        if snap.client_tag % 2 == 0 && snap.client_tag != 12 {
            assert!(!snap.failed);
            assert_eq!(snap.requests_failed, 0);
        }
    }
}
