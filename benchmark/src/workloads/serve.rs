//! `serve_saturated` and `serve_paced`: one registered layer behind
//! `flash_serve`, used two ways.
//!
//! The model is a 64×16×16 → 32, 3×3 convolution at N = 1024 with a
//! 36-bit prime q on the exact NTT backend, responses truncated (8, 2),
//! `BatchPolicy::batched()`, one server worker; 64 sessions, one
//! generator thread. One op is one request: `Client::prepare` →
//! `Client::dispatch` → the server → `Client::collect`. Thirty-two output
//! channels (not the legacy fixture's eight) bring the worker's CPU per
//! request (5.1 ms on the reference host) level with the single generator
//! thread's (prepare 1.9 + dispatch 0.6 + collect 2.8 ms); more channels
//! do not tip it further, because both sides' cost is mostly per
//! ciphertext (NTTs and (de)serialisation) and the MAC is a quarter of
//! the worker's.
//!
//! * **saturated** — closed loop in rounds: all 64 requests are prepared,
//!   then dispatched back to back so every session has one outstanding,
//!   then collected; the next round starts when the last is in hand. The
//!   burst is what lets the worker form wide batches (weight transforms
//!   were hoisted to registration), so this measures the batching core,
//!   the NTT and the lazy-Shoup MAC. The two threads take turns being the
//!   bottleneck: the worker idles while the generator prepares a round,
//!   works through the burst as it is dispatched (its first batches are
//!   narrow, mean width about 10) and the generator then waits on it in
//!   `collect`. Freed worker CPU therefore shortens the dispatch-to-
//!   collect part of a round only, and freed client CPU the rest. Latency
//!   is dispatch → `collect` returning and is mostly queueing behind the
//!   other 63.
//! * **paced** — open loop: seeded arrivals with exponential gaps at
//!   [`PACED_RATE_PER_S`], 40 % of the saturated rate on the reference
//!   host, a constant never recomputed per run. Batches are 1–3 wide, so
//!   it shows the pipeline at small width and any wait-for-a-fuller-batch
//!   trade.
//!   Latency runs from the instant the request was *due*. Requests are
//!   prepared ahead of their due time in idle moments (prepare is
//!   client-local; the saturated latency starts at dispatch too), and
//!   the generator starts no `prepare` or `collect` it cannot finish
//!   before the next due instant, so the server sees the schedule's
//!   arrival process and not one smeared by the generator's own work.
//!
//! Oracle: client share + server share of every response reconstruct to
//! `expected_conv_mod` of the cleartext activation, bit for bit.

use super::{substream, Region, RegionClock, Workload};
use crate::clock;
use crate::metrics::Metrics;
use crate::probes::{self, ConvJob};
use crate::schedule::{exponential_quantile_schedule, Timing};
use crate::stats::percentile;
use crate::trace::Tracer;
use flash_2pc::transport::FRAME_HEADER_BYTES;
use flash_2pc::{expected_conv_mod, TransportConfig};
use flash_he::encoding::{ConvEncoder, ConvShape};
use flash_he::{HeParams, PolyMulBackend};
use flash_serve::{BatchPolicy, Client, InferenceServer, ModelSpec, PreparedRequest, ServerStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The fixed arrival rate of `serve_paced`, requests per second: 40 % of
/// the 135.9 ops/s `serve_saturated` measured on the 2-core reference
/// host in the quiet hour of the README's calibration (sweep A). A
/// constant, so a faster server shows as lower latency at the same load
/// instead of moving the load.
pub const PACED_RATE_PER_S: f64 = 54.0;

const SESSIONS: usize = 64;
const MODEL_ID: u64 = 11;
const WARMUP_ROUNDS: usize = 2;
const TRUNCATION: (u32, u32) = (8, 2);
/// Requests the paced generator keeps prepared ahead of their due time.
const LOOKAHEAD: usize = 8;
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

fn params() -> HeParams {
    HeParams::new(1024, 36, 1 << 13, 3.2)
}

fn shape() -> ConvShape {
    ConvShape {
        c: 64,
        h: 16,
        w: 16,
        m: 32,
        k: 3,
    }
}

pub struct Serve {
    paced: bool,
    server: InferenceServer,
    clients: Vec<Client>,
    /// One cleartext activation per session, reused every request with a
    /// fresh share split and fresh encryption randomness.
    inputs: Vec<Vec<i64>>,
    /// `expected_conv_mod` of each input under the clean weights.
    expected: Vec<Vec<i64>>,
    rng: StdRng,
    seed: u64,
    next_req: u64,
    /// Terminal outcomes of the server this generator has consumed.
    consumed: u64,
    regions_run: u64,
    register_ms: f64,
    /// Server accounting and generator timings of the last region.
    stats_delta: Option<(ServerStats, ServerStats)>,
    server_lat_us: Vec<u64>,
    late_ms: Vec<f64>,
    payload_bytes: u64,
    /// Running estimates of what one `prepare` and one `collect` cost the
    /// generator, CPU seconds (a collect's wall time may include waiting
    /// for the response): what the paced generator must have in hand
    /// before the next due instant to start one.
    prepare_cost_s: f64,
    collect_cost_s: f64,
}

/// Folds a new observation into a running cost estimate.
fn smooth(estimate: &mut f64, seen_s: f64) {
    *estimate = if *estimate == 0.0 {
        seen_s
    } else {
        0.9 * *estimate + 0.1 * seen_s
    };
}

/// One request between dispatch and collect.
struct InFlight {
    session: usize,
    req_id: u64,
    due_s: f64,
    sent_s: f64,
    span_start_ns: u64,
}

impl Serve {
    pub fn setup(seed: u64, mutate: bool, paced: bool) -> Self {
        // The generator and one server worker are the two threads; the
        // library's own parallel regions stay serial.
        flash_runtime::set_threads(1);
        let mut rng = StdRng::seed_from_u64(substream(seed, 1));
        let (p, s) = (params(), shape());
        let clean: Vec<i64> = (0..s.m * s.kernel_len())
            .map(|_| rng.gen_range(-8..8))
            .collect();
        let mut registered = clean.clone();
        if mutate {
            registered[0] += 1;
        }
        // One CPU each for the generator and the worker, when the host
        // has two: a thread keeps the mask of the thread that spawned it,
        // so the worker is started under the second CPU's mask and the
        // generator then moves to the first. Left to the scheduler, the
        // two mostly-idle threads of `serve_paced` get stacked on one CPU
        // in some runs and not in others, which showed as a 15 % run-to-run
        // swing in its p90.
        let cpus = clock::allowed_cpus();
        let pinned = cpus.len() >= 2 && clock::pin_current_thread(&cpus[1..2]);
        let server = InferenceServer::start(BatchPolicy::batched(), substream(seed, 4), 1);
        if pinned {
            clock::pin_current_thread(&cpus[..1]);
        }
        let t0 = Instant::now();
        let plan = server
            .register_model(
                ModelSpec::new(MODEL_ID, p.clone(), s, PolyMulBackend::Ntt, registered)
                    .with_truncation(TRUNCATION.0, TRUNCATION.1),
            )
            .expect("the benchmark model registers");
        let register_ms = t0.elapsed().as_secs_f64() * 1e3;
        let ring = plan.ring();
        let clients: Vec<Client> = (0..SESSIONS as u64)
            .map(|tag| {
                Client::connect(
                    &server,
                    MODEL_ID,
                    tag,
                    p.clone(),
                    s,
                    TransportConfig::default(),
                    TransportConfig::default(),
                    RECV_TIMEOUT,
                    &mut rng,
                )
                .expect("clean connect")
            })
            .collect();
        let inputs: Vec<Vec<i64>> = (0..SESSIONS)
            .map(|_| (0..s.input_len()).map(|_| rng.gen_range(-8..8)).collect())
            .collect();
        let expected = inputs
            .iter()
            .map(|x| expected_conv_mod(x, &clean, &s, ring))
            .collect();
        let mut w = Serve {
            paced,
            server,
            clients,
            inputs,
            expected,
            rng,
            seed,
            next_req: 0,
            consumed: 0,
            regions_run: 0,
            register_ms,
            stats_delta: None,
            server_lat_us: Vec::new(),
            late_ms: Vec::new(),
            payload_bytes: 0,
            prepare_cost_s: 0.0,
            collect_cost_s: 0.0,
        };
        let mut tr = Tracer::new(false);
        let (mut warm, clk) = (Region::default(), RegionClock::start());
        for _ in 0..WARMUP_ROUNDS {
            w.round(&mut warm, &clk, 0, &mut tr);
        }
        w
    }

    fn prepare(&mut self, session: usize, tr: &mut Tracer) -> PreparedRequest {
        let req_id = self.next_req;
        self.next_req += 1;
        let (client, x, rng) = (&self.clients[session], &self.inputs[session], &mut self.rng);
        let cpu0 = clock::thread_cpu();
        let prepared = tr.span("serve.client_prepare", req_id, || {
            client.prepare(req_id, x, rng)
        });
        smooth(
            &mut self.prepare_cost_s,
            (clock::thread_cpu() - cpu0).as_secs_f64(),
        );
        prepared
    }

    /// Dispatches `prepared` on `session`; `false` if admission failed
    /// (an `Err` is that request's terminal outcome, nothing follows).
    fn dispatch(&mut self, session: usize, prepared: &PreparedRequest, tr: &mut Tracer) -> bool {
        let (client, server) = (&mut self.clients[session], &self.server);
        tr.span("serve.dispatch", prepared.req_id, || {
            client.dispatch(server, prepared).is_ok()
        })
    }

    /// Collects one response of `f.session`, checks it against the
    /// reference and books the op into `region`.
    fn collect(&mut self, f: &InFlight, region: &mut Region, clk: &RegionClock, tr: &mut Tracer) {
        let client = &mut self.clients[f.session];
        let cpu0 = clock::thread_cpu();
        let got = tr.span("serve.client_collect", f.req_id, || client.collect());
        let done_s = clk.elapsed_s();
        smooth(
            &mut self.collect_cost_s,
            (clock::thread_cpu() - cpu0).as_secs_f64(),
        );
        tr.record("op", f.req_id, f.span_start_ns, tr.now_ns());
        self.consumed += 1;
        region.attempted += 1;
        let correct = match got {
            Ok((req_id, y_client)) => self
                .server
                .take_result(client.session_id(), req_id)
                .is_some_and(|y_server| {
                    client.ring().reconstruct_vec(&y_client, &y_server) == self.expected[f.session]
                }),
            Err(_) => false,
        };
        if correct {
            let t = Timing {
                due_s: f.due_s,
                sent_s: f.sent_s,
                done_s,
            };
            region.lat_ms.push(t.latency_ms());
            self.late_ms.push(t.late_ms());
        } else {
            region.failed += 1;
        }
    }

    /// One closed-loop round: prepare for every session, dispatch the
    /// burst, collect everything.
    fn round(&mut self, region: &mut Region, clk: &RegionClock, min_ops: u64, tr: &mut Tracer) {
        let prepared: Vec<PreparedRequest> = (0..SESSIONS)
            .map(|session| self.prepare(session, tr))
            .collect();
        let mut inflight = Vec::with_capacity(SESSIONS);
        for (session, prepared) in prepared.iter().enumerate() {
            let (span_start_ns, sent_s) = (tr.now_ns(), clk.elapsed_s());
            if self.dispatch(session, prepared, tr) {
                inflight.push(InFlight {
                    session,
                    req_id: prepared.req_id,
                    due_s: sent_s,
                    sent_s,
                    span_start_ns,
                });
            } else {
                region.attempted += 1;
                region.failed += 1;
            }
        }
        for f in &inflight {
            self.collect(f, region, clk, tr);
        }
        region.checkpoint_rss(min_ops);
    }

    fn saturated_region(&mut self, seconds: f64, min_ops: u64, tr: &mut Tracer) -> Region {
        let mut region = Region::default();
        let clk = RegionClock::start();
        while clk.elapsed_s() < seconds || region.attempted < min_ops {
            self.round(&mut region, &clk, min_ops, tr);
        }
        clk.finish(&mut region);
        region
    }

    fn paced_region(&mut self, seconds: f64, min_ops: u64, tr: &mut Tracer) -> Region {
        let horizon = seconds.max(min_ops as f64 / PACED_RATE_PER_S);
        let due = exponential_quantile_schedule(
            substream(self.seed, 100 + self.regions_run),
            PACED_RATE_PER_S,
            horizon,
        );
        let total = due.len();
        let mut region = Region::default();
        let mut ready: VecDeque<PreparedRequest> = VecDeque::with_capacity(LOOKAHEAD);
        let mut inflight: VecDeque<InFlight> = VecDeque::new();
        let (mut prepared_n, mut sent_n) = (0usize, 0usize);
        let clk = RegionClock::start();
        while (region.attempted as usize) < total {
            let now = clk.elapsed_s();
            let next_due = due.get(sent_n).copied().unwrap_or(f64::INFINITY);
            // Work that does not fit before the next due instant waits
            // until after it (with half as much again for margin).
            let fits = |cost_s: f64| now + 1.5 * cost_s <= next_due;
            if now >= next_due {
                if ready.is_empty() {
                    ready.push_back(self.prepare(prepared_n % SESSIONS, tr));
                    prepared_n += 1;
                }
                let prepared = ready.pop_front().expect("just filled");
                let session = sent_n % SESSIONS;
                let (span_start_ns, sent_s) = (tr.now_ns(), clk.elapsed_s());
                if self.dispatch(session, &prepared, tr) {
                    inflight.push_back(InFlight {
                        session,
                        req_id: prepared.req_id,
                        due_s: next_due,
                        sent_s,
                        span_start_ns,
                    });
                } else {
                    region.attempted += 1;
                    region.failed += 1;
                }
                sent_n += 1;
            } else if ready.is_empty() && prepared_n < total {
                // An empty shelf makes the next send late by a whole
                // prepare; starting one now costs at most part of one.
                ready.push_back(self.prepare(prepared_n % SESSIONS, tr));
                prepared_n += 1;
            } else if !inflight.is_empty()
                && fits(self.collect_cost_s)
                && self
                    .server
                    .wait_for_timeout(self.consumed + 1, Duration::ZERO)
            {
                // The single worker retires tickets in dispatch order, so
                // the oldest outstanding request is the one that is done.
                let f = inflight.pop_front().expect("checked non-empty");
                self.collect(&f, &mut region, &clk, tr);
                region.checkpoint_rss(min_ops);
            } else if prepared_n < total && ready.len() < LOOKAHEAD && fits(self.prepare_cost_s) {
                ready.push_back(self.prepare(prepared_n % SESSIONS, tr));
                prepared_n += 1;
            } else if inflight.is_empty() || !fits(self.collect_cost_s) {
                // Nothing to do, or nothing that fits, before the next
                // arrival: sleep short of it, then spin onto it. (Spinning
                // all the way, polling for completions, was tried and
                // measured worse: `cpu_ms_per_op` 10.4 → 11.9 ms with the
                // spin's own CPU time taken out, p90 17 → 23 ms.)
                let until_due = Duration::from_secs_f64(next_due - now);
                std::thread::sleep(until_due.saturating_sub(Duration::from_micros(200)));
                while clk.elapsed_s() < next_due {
                    std::hint::spin_loop();
                }
            } else {
                // Block until the next completion, or until a collect
                // would no longer fit before the next arrival.
                let slack = next_due - now - 1.5 * self.collect_cost_s;
                let wait = if slack.is_finite() {
                    Duration::from_secs_f64(slack.max(0.0))
                } else {
                    RECV_TIMEOUT
                };
                self.server.wait_for_timeout(self.consumed + 1, wait);
            }
        }
        // The region is the schedule's horizon, not the moment the last
        // response happened to arrive: achieved rate = arrivals ÷ horizon.
        std::thread::sleep(Duration::from_secs_f64(
            (horizon - clk.elapsed_s()).max(0.0),
        ));
        clk.finish(&mut region);
        region
    }

    fn payload_bytes_so_far(&self) -> u64 {
        self.server
            .session_snapshots()
            .iter()
            .map(|s| s.upload_bytes + s.download_bytes)
            .sum()
    }
}

impl Workload for Serve {
    fn threads(&self) -> usize {
        2 // the generator and one server worker
    }

    fn region(&mut self, seconds: f64, min_ops: u64, tr: &mut Tracer) -> Region {
        let stats_before = self.server.stats();
        let payload_before = self.payload_bytes_so_far();
        self.server.take_latencies_us();
        self.late_ms.clear();
        let mut region = if self.paced {
            self.paced_region(seconds, min_ops, tr)
        } else {
            self.saturated_region(seconds, min_ops, tr)
        };
        self.regions_run += 1;
        self.payload_bytes = self.payload_bytes_so_far() - payload_before;
        // one request frame up, one response frame down
        region.wire_bytes = self.payload_bytes + region.attempted * 2 * FRAME_HEADER_BYTES as u64;
        self.stats_delta = Some((stats_before, self.server.stats()));
        self.server_lat_us = self.server.take_latencies_us();
        region
    }

    fn layers(&mut self, region: &Region, tr: &mut Tracer, m: &mut Metrics) {
        let ops = region.attempted.max(1) as f64;
        let per_op = |name: &str| tr.total_ms(name) / ops;
        let (prepare_ms, dispatch_ms, collect_ms) = (
            per_op("serve.client_prepare"),
            per_op("serve.dispatch"),
            per_op("serve.client_collect"),
        );
        m.set("serve.client_prepare_ms", prepare_ms);
        m.set("serve.dispatch_ms", dispatch_ms);
        m.set("serve.client_collect_ms", collect_ms);
        m.set("serve.register_model_ms", self.register_ms);

        let (a, b) = self.stats_delta.expect("layers() follows region()");
        let d = |f: fn(&ServerStats) -> u64| (f(&b) - f(&a)) as f64;
        m.set(
            "serve.mean_batch",
            d(|s| s.batched_requests) / d(|s| s.batches).max(1.0),
        );
        m.set(
            "serve.occupancy",
            d(|s| s.kernel_polys) / d(|s| s.kernel_slots).max(1.0),
        );
        m.set("serve.refused", d(|s| s.requests_refused));
        m.set("serve.shed", d(|s| s.shed));
        m.set("serve.expired", d(|s| s.expired));
        m.set("serve.retries", d(|s| s.retries));
        let lat_ms: Vec<f64> = self
            .server_lat_us
            .iter()
            .map(|&us| us as f64 / 1e3)
            .collect();
        if !lat_ms.is_empty() {
            m.set("serve.server_latency_ms_p50", percentile(&lat_ms, 0.5));
            m.set("serve.latency_ms_p99", percentile(&lat_ms, 0.99));
        }
        m.set(
            "serve.worker_cpu_ms_per_op",
            (region.cpu_s - region.caller_cpu_s) * 1e3 / ops,
        );
        if self.paced && !self.late_ms.is_empty() {
            let (late_p50, late_p99) = (
                percentile(&self.late_ms, 0.5),
                percentile(&self.late_ms, 0.99),
            );
            m.set("loadgen.late_ms_p50", late_p50);
            m.set("loadgen.late_ms_p99", late_p99);
            // A generator that ran late offered a different load: such a
            // run is invalid, not slow.
            let op_p50 = percentile(&region.lat_ms, 0.5);
            println!(
                "{{\"loadgen\": {{\"late_ms_p99\": {}, \"op_ms_p50\": {}, \"valid\": {}}}}}",
                crate::json::number(late_p99),
                crate::json::number(op_p50),
                late_p99 <= 0.1 * op_p50
            );
        }
        m.set(
            "loadgen.generator_cpu_share",
            region.caller_cpu_s / region.wall_s,
        );
        let faults: u64 = self
            .server
            .session_snapshots()
            .iter()
            .map(|s| s.faults_detected + s.frames_retried)
            .sum();
        m.set("twopc.transport.faults_detected", faults as f64);
        m.set("twopc.transport.frames_retried", d(|s| s.retries));

        // HE counts follow from the registered shape: weight transforms
        // were hoisted to registration, every uploaded ciphertext is two
        // forward transforms, every response two inverse ones, and each
        // (output channel, upload) pair is one length-N MAC.
        let (p, s) = (params(), shape());
        let enc = ConvEncoder::new(s, p.n);
        let (up, down) = (enc.activation_polys(), enc.result_polys());
        let payload_per_op = self.payload_bytes as f64 / ops;
        m.set("he.ciphertexts_up", up as f64);
        m.set("he.ciphertexts_down", down as f64);
        m.set("he.payload_bytes", payload_per_op);
        m.set("twopc.protocol.activation_transforms", 2.0 * up as f64);
        m.set("twopc.protocol.inverse_transforms", 2.0 * down as f64);
        m.set("twopc.protocol.pointwise_muls", (s.m * up * p.n) as f64);
        m.set(
            "twopc.transport.wire_overhead_ratio",
            region.wire_bytes as f64 / (self.payload_bytes as f64).max(1.0),
        );

        let mut rng = StdRng::seed_from_u64(substream(self.seed, 2));
        let jobs = [ConvJob {
            shape: s,
            repeats: 1,
        }];
        let he = probes::he_probe(
            &p,
            &PolyMulBackend::Ntt,
            Some(TRUNCATION),
            &jobs,
            &mut rng,
            tr,
        );
        let (fwd_us, inv_us) = probes::ntt_probe(&p, &mut rng);
        m.set("he.encode_encrypt_ms", he.encode_encrypt_ms);
        m.set("he.decrypt_decode_ms", he.decrypt_decode_ms);
        m.set("he.mac_ms", he.mac_ms);
        m.set("ntt.forward_us", fwd_us);
        m.set("ntt.inverse_us", inv_us);
        m.set(
            "twopc.transport.frame_roundtrip_us",
            probes::frame_roundtrip_probe(2 * p.n * 8, &mut rng),
        );

        // Client calls are timed by spans on the real requests; the
        // worker's share is what the probes can reconstruct of it.
        let w = probes::BATCH_W as f64;
        let attributed_ms = prepare_ms
            + dispatch_ms
            + collect_ms
            + he.mac_ms
            + (2.0 * up as f64 * fwd_us + 2.0 * down as f64 * inv_us) / w / 1e3;
        let cpu_ms_per_op = region.cpu_s * 1e3 / ops;
        m.set(
            "trace.unattributed_ratio",
            1.0 - attributed_ms / cpu_ms_per_op,
        );
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Joins the worker and the watchdog before the process moves on.
        self.server.shutdown();
    }
}
