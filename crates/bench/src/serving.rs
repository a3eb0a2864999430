//! The shared serving-bench fixture: one registered model, a fleet of
//! simulated client sessions, and a timed dispatch wave.
//!
//! `bench_serve` and the `bench_perf --check-regression` serve gate
//! both run [`run_wave`] on the *same* model and fleet shape, so the
//! committed `BENCH_serve.json` baseline and the gate's fresh
//! measurement are directly comparable.
//!
//! The model is sized so the per-request work a one-shot pipeline
//! cannot hoist dominates it: a 64×16×16 input packs 4 channels per
//! ring slot into 16 groups, so every [`run_protocol_baseline`] request
//! re-derives 16 NTT-domain weight-residue groups per output channel
//! (plus the per-unit noise bounds) before it can MAC, while the served
//! path reads the same residues from the registration-time plan. A full
//! coalesced batch (16 tickets × 16 ciphertexts) runs the shared forward
//! sweep and the lazy Shoup MACs over one structure-of-arrays buffer at
//! full SIMD occupancy, then drains the accumulators ticket-by-ticket so
//! the inverse stays L2-resident.

use flash_2pc::transport::{FaultConfig, FaultPlan, TransportConfig};
use flash_2pc::{expected_conv_mod, ConvProtocol, ShareRing};
use flash_he::encoding::ConvShape;
use flash_he::{HeParams, PolyMulBackend, SecretKey};
use flash_serve::{BatchPolicy, Client, InferenceServer, ModelSpec, ServerStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Server mask seed — fixed so every wave is reproducible.
pub const SERVER_SEED: u64 = 0x5EED_F1A5;

/// The registered model id.
pub const MODEL_ID: u64 = 7;

/// Scheme parameters of the serving fixture: production-shaped ring
/// (`N = 1024`), `t = 2^13` (ample for 4-bit quantized sums), 36-bit
/// `q` — enough noise ceiling that every unit of the registered plan
/// passes the exact-path noise guard.
pub fn params() -> HeParams {
    HeParams::new(1024, 36, 1 << 13, 3.2)
}

/// The conv layer every session runs: 64×16×16 → 8, 3×3. Four channels
/// pack per ciphertext (16 groups, 16 upload ciphertexts), one band,
/// 8 response units.
pub fn shape() -> ConvShape {
    ConvShape {
        c: 64,
        h: 16,
        w: 16,
        m: 8,
        k: 3,
    }
}

/// Deterministic 4-bit-ish weights.
pub fn weights() -> Vec<i64> {
    let s = shape();
    (0..s.m * s.kernel_len())
        .map(|i| ((i as i64 * 5 + 3) % 15) - 7)
        .collect()
}

/// The model registration: approximate-FFT backend with response
/// truncation.
pub fn spec() -> ModelSpec {
    ModelSpec::new(MODEL_ID, params(), shape(), PolyMulBackend::Ntt, weights())
        .with_truncation(8, 2)
}

/// Per-tag transport configs of a chaos wave: odd tags get moderate
/// random fault plans (seeded by the tag) on both links, even tags run
/// clean. The fixed seeds make the whole wave a pure function of its
/// arguments.
pub fn chaos_cfg(tag: u64) -> (TransportConfig, TransportConfig) {
    if tag % 2 == 1 {
        (
            TransportConfig::faulty(FaultPlan::Random(FaultConfig::moderate(0xAC1D + 2 * tag))),
            TransportConfig::faulty(FaultPlan::Random(FaultConfig::moderate(
                0xFACE + 2 * tag + 1,
            ))),
        )
    } else {
        (TransportConfig::default(), TransportConfig::default())
    }
}

/// One measured dispatch wave.
#[derive(Debug, Clone)]
pub struct Wave {
    /// Sessions that connected.
    pub connected: usize,
    /// Requests that entered the timed region.
    pub dispatched: u64,
    /// Requests whose response the client collected.
    pub answered: u64,
    /// Wall-clock seconds of the timed region (dispatch → last
    /// terminal outcome).
    pub elapsed_s: f64,
    /// Server-side submission → response latency percentiles, ms.
    pub p50_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Aggregate server accounting of the wave.
    pub stats: ServerStats,
    /// Sessions the server poisoned.
    pub failed_sessions: usize,
    /// Wire faults detected (and recovered or escalated) across all
    /// sessions.
    pub faults_detected: u64,
}

impl Wave {
    /// Aggregate throughput over the timed region, requests/s.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.dispatched as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Mean timed-region cost per request, ms.
    pub fn ms_per_req(&self) -> f64 {
        if self.dispatched > 0 {
            self.elapsed_s * 1e3 / self.dispatched as f64
        } else {
            0.0
        }
    }
}

/// Runs one wave: starts a server under `policy`, connects `n_clients`
/// sessions, prepares `reqs` requests per session *untimed* (share
/// split, encode, encrypt, serialize are client-local work), then
/// times round-robin dispatch of every request through to the last
/// terminal outcome. Collection and decryption run untimed afterwards,
/// with one spot-check against the cleartext convolution.
pub fn run_wave(
    policy: BatchPolicy,
    workers: usize,
    n_clients: u64,
    reqs: u64,
    chaos: bool,
) -> Wave {
    let server = InferenceServer::start(policy, SERVER_SEED, workers);
    server
        .register_model(spec())
        .expect("fixture model registers");
    let p = params();
    let timeout = Duration::from_secs(10);

    let mut clients: Vec<(u64, Client, StdRng)> = Vec::new();
    for tag in 0..n_clients {
        let (up, down) = if chaos {
            chaos_cfg(tag)
        } else {
            (TransportConfig::default(), TransportConfig::default())
        };
        let mut rng = StdRng::seed_from_u64(0x51E7 + tag);
        match Client::connect(
            &server,
            MODEL_ID,
            tag,
            p.clone(),
            shape(),
            up,
            down,
            timeout,
            &mut rng,
        ) {
            Ok(c) => clients.push((tag, c, rng)),
            Err(_) if chaos => {} // a faulted handshake only loses that session
            Err(e) => panic!("clean connect failed for tag {tag}: {e}"),
        }
    }
    let connected = clients.len();

    // Prepare everything up front: [client][req].
    let input_len = shape().input_len();
    let mut prepared: Vec<Vec<flash_serve::PreparedRequest>> = Vec::with_capacity(connected);
    let mut probe_input: Option<Vec<i64>> = None;
    for (tag, client, rng) in clients.iter_mut() {
        let mut per_client = Vec::with_capacity(reqs as usize);
        for req_id in 0..reqs {
            let x: Vec<i64> = (0..input_len).map(|_| rng.gen_range(-8..8)).collect();
            if *tag == 0 && req_id == 0 {
                probe_input = Some(x.clone());
            }
            per_client.push(client.prepare(req_id, &x, rng));
        }
        prepared.push(per_client);
    }

    // Timed region: round-robin dispatch + drain to the last terminal
    // outcome. Request r of every live session enters before r+1 of
    // any, so the coalescing window sees cross-session traffic.
    let mut live: Vec<bool> = vec![true; connected];
    let mut dispatched = 0u64;
    let t0 = Instant::now();
    // Round-major on purpose: `r` indexes the *second* axis of
    // `prepared`, which is walked client-major inside.
    #[allow(clippy::needless_range_loop)]
    for r in 0..reqs as usize {
        for (i, (_, client, _)) in clients.iter_mut().enumerate() {
            if !live[i] {
                continue;
            }
            // Only an `Ok` dispatch owes a terminal outcome (response
            // or refusal); an `Err` return *is* the terminal outcome,
            // so counting it would stall the drain below forever.
            if client.dispatch(&server, &prepared[i][r]).is_ok() {
                dispatched += 1;
            } else {
                live[i] = false;
            }
        }
    }
    assert!(
        server.wait_for_timeout(dispatched, Duration::from_secs(300)),
        "wave stalled: server never reached {dispatched} terminal outcomes"
    );
    let elapsed_s = t0.elapsed().as_secs_f64();

    // Untimed: drain responses, spot-check one reconstruction.
    let mut answered = 0u64;
    for (i, (tag, client, _)) in clients.iter_mut().enumerate() {
        if !live[i] {
            continue;
        }
        for _ in 0..reqs {
            match client.collect() {
                Ok((req_id, y_client)) => {
                    answered += 1;
                    if *tag == 0 && req_id == 0 {
                        let y_server = server
                            .take_result(client.session_id(), req_id)
                            .expect("answered request leaves a server share");
                        let ring = ShareRing::new(p.t.trailing_zeros());
                        let got = ring.reconstruct_vec(&y_client, &y_server);
                        let want = expected_conv_mod(
                            probe_input.as_ref().expect("probe prepared"),
                            &weights(),
                            &shape(),
                            ring,
                        );
                        assert_eq!(got, want, "wave output must match cleartext conv");
                    }
                }
                Err(_) => break,
            }
        }
    }

    let mut lat = server.take_latencies_us();
    lat.sort_unstable();
    let pctl = |q: f64| {
        if lat.is_empty() {
            0.0
        } else {
            lat[((lat.len() - 1) as f64 * q) as usize] as f64 / 1e3
        }
    };
    let snapshots = server.session_snapshots();
    let wave = Wave {
        connected,
        dispatched,
        answered,
        elapsed_s,
        p50_ms: pctl(0.5),
        p99_ms: pctl(0.99),
        stats: server.stats(),
        failed_sessions: snapshots.iter().filter(|s| s.failed).count(),
        faults_detected: snapshots.iter().map(|s| s.faults_detected).sum(),
    };
    server.shutdown();
    wave
}

/// The un-hoisted baseline of the serving speedup.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Seconds spent inside the protocol runs, summed.
    pub elapsed_s: f64,
    /// Per-request latency percentiles, ms.
    pub p50_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
}

/// Answers `requests` requests against the fixture model one at a time
/// with [`ConvProtocol::run_shared`] — the same pipeline stages the
/// server runs, at width 1 with one-shot units, so every request
/// re-prepares the model's weights — on one runtime thread, like the
/// one-worker waves it is compared with. Unlike a wave's timed region,
/// each run also contains the client's seal and unseal (the protocol is
/// one in-process call), so the baseline is heavier than "a server
/// without hoisting" by the client's share; `bench_serve` reports the
/// speedup against it as defined, and DESIGN.md §5h spells the caveat
/// out.
pub fn run_protocol_baseline(requests: u64) -> Baseline {
    let _one_thread = flash_runtime::ThreadOverrideGuard::set(1);
    let p = params();
    let s = spec();
    let (d0, d1) = s.truncation.expect("fixture truncates");
    let proto = ConvProtocol::new(p.clone(), shape(), s.backend).with_truncation(d0, d1);
    let mut rng = StdRng::seed_from_u64(0x51E7);
    let sk = SecretKey::generate(&p, &mut rng);
    let mut lat_ms = Vec::with_capacity(requests as usize);
    for r in 0..requests {
        let x: Vec<i64> = (0..shape().input_len())
            .map(|_| rng.gen_range(-8..8))
            .collect();
        let (xc, xs) = proto.ring().share_vec(&x, &mut rng);
        let t = Instant::now();
        let (shares, _) = proto
            .run_shared(&sk, &xc, &xs, &s.weights, &mut rng)
            .expect("clean baseline run");
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if r == 0 {
            let want = expected_conv_mod(&x, &s.weights, &shape(), proto.ring());
            assert_eq!(proto.reconstruct(&shares), want, "baseline output");
        }
    }
    let elapsed_s = lat_ms.iter().sum::<f64>() / 1e3;
    lat_ms.sort_by(f64::total_cmp);
    let pctl = |q: f64| lat_ms[((lat_ms.len() - 1) as f64 * q) as usize];
    Baseline {
        elapsed_s,
        p50_ms: pctl(0.5),
        p99_ms: pctl(0.99),
    }
}
