//! Acceptance for the resilience layer of the serving stack.
//!
//! Each test isolates one mechanism of [`ResiliencePolicy`] — deadline
//! eviction, admission shedding (and the `High`-priority bypass),
//! quarantine via the error-rate circuit breaker, panic containment
//! with batch bisection, the worker watchdog, and draining shutdown —
//! and asserts the terminal-outcome contract throughout: every request
//! whose dispatch returns `Ok` is answered by exactly one RESPONSE xor
//! one REFUSED frame.

use flash_2pc::transport::{FaultConfig, FaultPlan, TransportConfig};
use flash_2pc::SharedTransport;
use flash_2pc::Transport;
use flash_he::encoding::ConvShape;
use flash_he::{HeParams, PolyMulBackend};
use flash_serve::wire::{self, Response};
use flash_serve::{
    BatchPolicy, ChaosAction, Client, InferenceServer, ModelSpec, Priority, RefusalReason,
    ResiliencePolicy, ServeError, SessionHealth,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const SERVER_SEED: u64 = 42;
const MODEL: u64 = 1;

fn shape() -> ConvShape {
    ConvShape {
        c: 2,
        h: 6,
        w: 6,
        m: 2,
        k: 3,
    }
}

fn weights() -> Vec<i64> {
    let s = shape();
    (0..s.m * s.kernel_len())
        .map(|i| ((i as i64 * 3 + 1) % 15) - 7)
        .collect()
}

fn start_server(policy: BatchPolicy, workers: usize) -> InferenceServer {
    let server = InferenceServer::start(policy, SERVER_SEED, workers);
    server
        .register_model(ModelSpec::new(
            MODEL,
            HeParams::test_256(),
            shape(),
            PolyMulBackend::Ntt,
            weights(),
        ))
        .unwrap();
    server
}

fn connect(server: &InferenceServer, tag: u64) -> (Client, StdRng) {
    connect_with(
        server,
        tag,
        TransportConfig::default(),
        TransportConfig::default(),
    )
}

fn connect_with(
    server: &InferenceServer,
    tag: u64,
    cfg_up: TransportConfig,
    cfg_down: TransportConfig,
) -> (Client, StdRng) {
    let mut rng = StdRng::seed_from_u64(1000 + tag);
    let client = Client::connect(
        server,
        MODEL,
        tag,
        HeParams::test_256(),
        shape(),
        cfg_up,
        cfg_down,
        Duration::from_secs(10),
        &mut rng,
    )
    .unwrap();
    (client, rng)
}

fn activation(rng: &mut StdRng) -> Vec<i64> {
    (0..shape().input_len())
        .map(|_| rng.gen_range(-8..8))
        .collect()
}

/// An expired ticket is evicted before batching, refused typed, and
/// never strikes the session's breaker (the backlog is the server's
/// condition, not the client's fault).
#[test]
fn expired_tickets_are_refused_typed_without_striking_the_session() {
    let policy = BatchPolicy::batched().with_resilience(ResiliencePolicy {
        request_deadline: Some(Duration::ZERO),
        ..ResiliencePolicy::default()
    });
    let server = start_server(policy, 1);
    let (mut client, mut rng) = connect(&server, 0);
    let x = activation(&mut rng);
    let prepared = client.prepare(0, &x, &mut rng);
    client.dispatch(&server, &prepared).unwrap();
    assert!(server.wait_for_timeout(1, Duration::from_secs(30)));
    match client.collect() {
        Err(ServeError::Refused { req_id, reason }) => {
            assert_eq!(req_id, 0);
            assert_eq!(reason, RefusalReason::Expired);
        }
        other => panic!("expected an Expired refusal, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.requests_refused, 1);
    assert_eq!(stats.requests_ok, 0);
    assert_eq!(stats.requests_failed, 0);
    let snap = &server.session_snapshots()[0];
    assert_eq!(snap.health, SessionHealth::Healthy);
    assert_eq!(snap.requests_refused, 1);
    server.shutdown();
}

/// With a full queue, a `Normal` session is shed typed while a `High`
/// session blocks for a slot and is eventually answered. The refused
/// request resubmits under the same id via [`Client::retry_prepare`]
/// and — masks being per-`(session, req, unit)` — receives exactly the
/// answer the first attempt would have.
#[test]
fn overload_sheds_normal_priority_and_blocks_high() {
    let mut policy = BatchPolicy::batched().with_resilience(ResiliencePolicy {
        shed: true,
        ..ResiliencePolicy::default()
    });
    policy.queue_depth = 1;
    let server = start_server(policy, 1);
    // Stall the sacrificial first request so the single worker is
    // pinned while the queue fills deterministically.
    server.set_chaos_hook(Some(Arc::new(|_sid, req| {
        if req == 0 {
            ChaosAction::Stall(Duration::from_millis(600))
        } else {
            ChaosAction::None
        }
    })));
    let (mut client, mut rng) = connect(&server, 0);
    let reqs: Vec<_> = (0..4u64)
        .map(|r| client.prepare(r, &activation(&mut rng), &mut rng))
        .collect();
    // req 0: popped by the worker, stalling.
    client.dispatch(&server, &reqs[0]).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    // req 1: sits in the queue (len == depth == 1).
    client.dispatch(&server, &reqs[1]).unwrap();
    // req 2: Normal priority at the watermark → shed.
    client.dispatch(&server, &reqs[2]).unwrap();
    // req 3: High priority blocks for a slot instead of shedding.
    assert!(server.set_session_priority(client.session_id(), Priority::High));
    client.dispatch(&server, &reqs[3]).unwrap();
    assert!(server.wait_for_timeout(4, Duration::from_secs(30)));

    let mut answered = BTreeMap::new();
    let mut refused = Vec::new();
    for _ in 0..4 {
        match client.collect() {
            Ok((req_id, y)) => {
                answered.insert(req_id, y);
            }
            Err(ServeError::Refused { req_id, reason }) => refused.push((req_id, reason)),
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    }
    assert_eq!(refused, vec![(2, RefusalReason::Shed)]);
    assert_eq!(
        answered.keys().copied().collect::<Vec<_>>(),
        vec![0, 1, 3],
        "the High-priority request must be answered, not shed"
    );
    let stats = server.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.requests_ok, 3);

    // Resubmission under the same req_id: fresh shares, same answer.
    server.set_chaos_hook(None);
    server.set_session_priority(client.session_id(), Priority::Normal);
    let retry = client.retry_prepare(&reqs[2], &mut rng);
    assert_eq!(retry.req_id, 2);
    client.dispatch(&server, &retry).unwrap();
    assert!(server.wait_for_timeout(5, Duration::from_secs(30)));
    let (req_id, y_retry) = client.collect().unwrap();
    assert_eq!(req_id, 2);
    let y_server = server.take_result(client.session_id(), 2).unwrap();
    // Reconstruct and compare against the cleartext reference: the
    // retried request is answered as if never refused.
    let ring = flash_2pc::ShareRing::new(HeParams::test_256().t.trailing_zeros());
    let got = ring.reconstruct_vec(&y_retry, &y_server);
    let want = flash_2pc::expected_conv_mod(&reqs[2].activation, &weights(), &shape(), ring);
    assert_eq!(got, want);
    server.shutdown();
}

/// Repeated invalid requests degrade and then quarantine a session;
/// once quarantined every request — valid or not — is refused at
/// admission, and other sessions are untouched.
#[test]
fn invalid_requests_trip_the_circuit_breaker_into_quarantine() {
    let policy = BatchPolicy::batched().with_resilience(ResiliencePolicy {
        degrade_after: 1,
        quarantine_after: 2,
        ..ResiliencePolicy::default()
    });
    let server = start_server(policy, 1);
    // Drive the wire by hand: the Client type cannot be persuaded to
    // send malformed requests.
    let uplink = SharedTransport::with_timeout(TransportConfig::default(), Duration::from_secs(5));
    let downlink =
        SharedTransport::with_timeout(TransportConfig::default(), Duration::from_secs(5));
    uplink.clone().send(&wire::encode_hello(MODEL, 7)).unwrap();
    let sid = server.accept(uplink.clone(), downlink.clone()).unwrap();
    let _ack = downlink.clone().recv().unwrap();
    let share = vec![0i64; shape().input_len()];

    let refusal_for = |req: u64, downlink: &SharedTransport| match wire::decode_response(
        &downlink.clone().recv().unwrap(),
    )
    .unwrap()
    {
        Response::Refused { req_id, reason } => {
            assert_eq!(req_id, req);
            reason
        }
        other => panic!("expected a refusal, got {other:?}"),
    };

    // Two empty-blob requests: both refused Invalid, both striking the
    // breaker.
    for req in 0..2u64 {
        uplink
            .clone()
            .send(&wire::encode_request(req, &[]))
            .unwrap();
        server.ingest(sid, req, &share).unwrap();
        assert!(matches!(
            refusal_for(req, &downlink),
            RefusalReason::Invalid(_)
        ));
        let expected = if req == 0 {
            SessionHealth::Degraded
        } else {
            SessionHealth::Quarantined
        };
        assert_eq!(server.session_snapshots()[0].health, expected);
    }
    // The circuit is open: the next request is refused at admission
    // without validation.
    uplink.clone().send(&wire::encode_request(2, &[])).unwrap();
    server.ingest(sid, 2, &share).unwrap();
    assert_eq!(refusal_for(2, &downlink), RefusalReason::Quarantined);

    let stats = server.stats();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.requests_refused, 3);
    assert_eq!(stats.requests_failed, 0);

    // A fresh session on the same server serves normally.
    let (mut client, mut rng) = connect(&server, 8);
    let prepared = client.prepare(0, &activation(&mut rng), &mut rng);
    client.dispatch(&server, &prepared).unwrap();
    assert!(server.wait_for_timeout(4, Duration::from_secs(30)));
    client.collect().unwrap();
    server.shutdown();
}

/// A ticket that panics inside the batch core is bisected out and
/// refused [`RefusalReason::Poisoned`]; its co-batched clean tickets
/// are recomputed **bit-exactly** (the masks are per-`(session, req,
/// unit)` and the batched kernels width-invariant, so batch composition
/// never shows in the bytes).
#[test]
fn panic_containment_bisects_the_poisoned_ticket_out_of_the_batch() {
    let n_sessions = 5u64;
    let poisoned_tag = 2u64;
    let run = |hook: bool| {
        let server = start_server(BatchPolicy::batched(), 1);
        if hook {
            server.set_chaos_hook(Some(Arc::new(move |sid, req| {
                // The sacrificial client connects first (sid 1); tags
                // 0..n map to sids 2.. in connect order.
                if req == 100 {
                    ChaosAction::Stall(Duration::from_millis(400))
                } else if sid == (poisoned_tag + 2) as u32 && req == 0 {
                    ChaosAction::Panic
                } else {
                    ChaosAction::None
                }
            })));
        }
        // The sacrificial client connects in both runs so the session-id
        // → mask-seed mapping of the real sessions is identical, but
        // only the chaotic run dispatches through it: its stalled
        // ticket pins the single worker so the real requests coalesce
        // into one batch behind it.
        let (mut sacrificial, mut sac_rng) = connect(&server, 100);
        let mut clients: Vec<_> = (0..n_sessions).map(|t| connect(&server, t)).collect();
        if hook {
            let p = sacrificial.prepare(100, &activation(&mut sac_rng), &mut sac_rng);
            sacrificial.dispatch(&server, &p).unwrap();
            std::thread::sleep(Duration::from_millis(100));
        }
        let mut outcomes = BTreeMap::new();
        for (client, rng) in clients.iter_mut() {
            let x = activation(rng);
            let prepared = client.prepare(0, &x, rng);
            client.dispatch(&server, &prepared).unwrap();
        }
        let expect = n_sessions + hook as u64;
        assert!(server.wait_for_timeout(expect, Duration::from_secs(60)));
        if hook {
            sacrificial.collect().unwrap();
        }
        for (tag, (client, _)) in clients.iter_mut().enumerate() {
            match client.collect() {
                Ok((req_id, y)) => {
                    let y_server = server.take_result(client.session_id(), req_id).unwrap();
                    outcomes.insert((tag as u64, req_id), Ok((y, y_server)));
                }
                Err(ServeError::Refused { req_id, reason }) => {
                    outcomes.insert((tag as u64, req_id), Err(reason));
                }
                Err(e) => panic!("session {tag}: unexpected {e:?}"),
            }
        }
        let stats = server.stats();
        server.shutdown();
        (outcomes, stats)
    };

    let (baseline, base_stats) = run(false);
    assert_eq!(base_stats.poisoned, 0);
    let (chaotic, stats) = run(true);
    assert_eq!(stats.poisoned, 1);
    assert_eq!(stats.requests_ok, n_sessions); // 4 clean + the sacrificial
    for tag in 0..n_sessions {
        if tag == poisoned_tag {
            assert_eq!(
                chaotic[&(tag, 0)],
                Err(RefusalReason::Poisoned),
                "the poisoned ticket must fail alone"
            );
        } else {
            assert_eq!(
                chaotic[&(tag, 0)],
                baseline[&(tag, 0)],
                "clean co-batched session {tag} must be bit-exact"
            );
        }
    }
}

/// With containment disabled an injected panic kills the worker thread;
/// the watchdog respawns it and later requests are served. A long stall
/// raises a watchdog alarm without killing anything.
#[test]
fn watchdog_respawns_dead_workers_and_flags_stalls() {
    // Part 1: uncontained panic → dead worker → respawn.
    let policy = BatchPolicy::batched().with_resilience(ResiliencePolicy {
        contain_panics: false,
        watchdog_interval: Duration::from_millis(10),
        ..ResiliencePolicy::default()
    });
    let server = start_server(policy, 1);
    server.set_chaos_hook(Some(Arc::new(|_sid, req| {
        if req == 0 {
            ChaosAction::Panic
        } else {
            ChaosAction::None
        }
    })));
    let (mut client, mut rng) = connect(&server, 0);
    let doomed = client.prepare(0, &activation(&mut rng), &mut rng);
    client.dispatch(&server, &doomed).unwrap();
    // The worker dies on req 0 (its ticket never terminates — that is
    // exactly what contain_panics=false documents); the watchdog
    // respawns a worker which then serves req 1.
    std::thread::sleep(Duration::from_millis(200));
    let next = client.prepare(1, &activation(&mut rng), &mut rng);
    client.dispatch(&server, &next).unwrap();
    let (req_id, _y) = client.collect().unwrap();
    assert_eq!(req_id, 1);
    // Stats are bumped just before the terminal-outcome count, so wait
    // on that count instead of racing the worker's bookkeeping.
    assert!(server.wait_for_timeout(1, Duration::from_secs(10)));
    let stats = server.stats();
    assert!(
        stats.watchdog_kicks >= 1,
        "the dead worker must be respawned: {stats:?}"
    );
    assert_eq!(stats.requests_ok, 1);
    // Skip shutdown's drain of the never-terminating ticket: it already
    // completed nothing, and the queue is empty.
    server.shutdown();

    // Part 2: a stall (no panic) raises an alarm and still answers.
    let policy = BatchPolicy::batched().with_resilience(ResiliencePolicy {
        watchdog_interval: Duration::from_millis(10),
        watchdog_stall: Duration::from_millis(40),
        ..ResiliencePolicy::default()
    });
    let server = start_server(policy, 1);
    server.set_chaos_hook(Some(Arc::new(|_sid, _req| {
        ChaosAction::Stall(Duration::from_millis(150))
    })));
    let (mut client, mut rng) = connect(&server, 0);
    let slow = client.prepare(0, &activation(&mut rng), &mut rng);
    client.dispatch(&server, &slow).unwrap();
    let (req_id, _y) = client.collect().unwrap();
    assert_eq!(req_id, 0);
    assert!(server.wait_for_timeout(1, Duration::from_secs(10)));
    let stats = server.stats();
    assert!(
        stats.watchdog_kicks >= 1,
        "a 150ms stall must trip the 40ms stall alarm: {stats:?}"
    );
    assert_eq!(stats.requests_ok, 1);
    server.shutdown();
}

/// The dichotomy (exactly-one-terminal-answer) property under combined
/// chaos: faulty uplinks, shedding, deadlines and quarantine together.
/// Every Ok-dispatch is answered by exactly one RESPONSE xor REFUSED;
/// every Err-dispatch is terminal with no frame; the server's
/// accounting reconciles exactly.
#[test]
fn every_request_has_exactly_one_terminal_outcome_under_chaos() {
    let mut policy = BatchPolicy::batched().with_resilience(ResiliencePolicy {
        shed: true,
        request_deadline: Some(Duration::from_millis(500)),
        ..ResiliencePolicy::default()
    });
    policy.queue_depth = 4;
    let server = start_server(policy, 2);
    let n_sessions = 8u64;
    let reqs = 4u64;
    let mut clients: Vec<_> = (0..n_sessions)
        .map(|tag| {
            if tag % 2 == 1 {
                let up =
                    TransportConfig::faulty(FaultPlan::Random(FaultConfig::moderate(0xD1CE + tag)));
                Some(connect_with(&server, tag, up, TransportConfig::default()))
            } else {
                Some(connect(&server, tag))
            }
        })
        .collect();

    let mut ok_dispatched = vec![0u64; n_sessions as usize];
    for req_id in 0..reqs {
        for (tag, slot) in clients.iter_mut().enumerate() {
            let Some((client, rng)) = slot.as_mut() else {
                continue;
            };
            let prepared = client.prepare(req_id, &activation(rng), rng);
            match client.dispatch(&server, &prepared) {
                Ok(()) => ok_dispatched[tag] += 1,
                Err(_) => *slot = None, // the Err IS the terminal outcome
            }
        }
    }
    let total_ok: u64 = ok_dispatched.iter().sum();
    assert!(
        server.wait_for_timeout(total_ok, Duration::from_secs(60)),
        "every Ok-dispatch must reach a terminal outcome"
    );

    for (tag, slot) in clients.iter_mut().enumerate() {
        let Some((client, _)) = slot.as_mut() else {
            continue;
        };
        let mut seen = BTreeMap::new();
        for _ in 0..ok_dispatched[tag] {
            let (req_id, kind) = match client.collect() {
                Ok((req_id, _y)) => (req_id, "response"),
                Err(ServeError::Refused { req_id, .. }) => (req_id, "refusal"),
                Err(e) => panic!("session {tag}: non-terminal collect error {e:?}"),
            };
            if let Some(prev) = seen.insert(req_id, kind) {
                panic!("session {tag} req {req_id}: double answer ({prev} then {kind})");
            }
        }
        assert_eq!(
            seen.len() as u64,
            ok_dispatched[tag],
            "session {tag}: exactly one terminal answer per Ok-dispatch"
        );
    }
    let stats = server.stats();
    assert_eq!(
        stats.requests_ok + stats.requests_refused,
        total_ok,
        "server accounting must reconcile: {stats:?}"
    );
    // Clean sessions whose dispatches all succeeded must all be healthy.
    for snap in server.session_snapshots() {
        if snap.client_tag % 2 == 0 {
            assert!(!snap.failed, "clean session {} poisoned", snap.client_tag);
        }
    }
    server.shutdown();
}

/// Draining shutdown: queued work completes, new work is refused typed,
/// and shutdown is idempotent.
#[test]
fn shutdown_drains_queued_work_then_refuses_new_admissions() {
    let server = start_server(BatchPolicy::batched(), 2);
    let (mut client, mut rng) = connect(&server, 0);
    let reqs = 4u64;
    let prepared: Vec<_> = (0..reqs)
        .map(|r| client.prepare(r, &activation(&mut rng), &mut rng))
        .collect();
    for p in &prepared {
        client.dispatch(&server, p).unwrap();
    }
    server.shutdown();
    // Every queued request was answered before the workers joined.
    let mut answered = Vec::new();
    for _ in 0..reqs {
        let (req_id, _y) = client.collect().unwrap();
        answered.push(req_id);
    }
    answered.sort_unstable();
    assert_eq!(answered, vec![0, 1, 2, 3]);
    assert_eq!(server.stats().requests_ok, reqs);
    // New work is refused typed, and shutdown is idempotent.
    let late = client.prepare(99, &activation(&mut rng), &mut rng);
    assert!(matches!(
        client.dispatch(&server, &late),
        Err(ServeError::Shutdown)
    ));
    server.shutdown();
}
