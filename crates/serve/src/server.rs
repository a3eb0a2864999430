//! The multi-session inference server.
//!
//! Requests from all sessions funnel into one bounded [`WorkQueue`];
//! worker threads drain it in batches ([`WorkQueue::pop_batch`]) and
//! coalesce compatible tickets — same registered model — into one call of
//! the HConv pipeline's **respond** stage ([`flash_2pc::hconv`]) at width
//! `W = tickets`. This file keeps only what is serving: admission (the
//! pipeline's **open** behind the wire checks), queueing, coalescing, the
//! fault policy, and delivery.
//!
//! * every coalesced ticket's ciphertexts forward-transform in **one**
//!   SoA sweep ([`HconvServer::spectra`]),
//! * each `(ticket, oc, band)` unit MACs the model's prepared weights
//!   ([`ModelPlan`], built once at registration) against its slice of the
//!   shared batch,
//! * every spectral unit closes through a batched inverse.
//!
//! At `W = 1` the same transforms run at width `2·c_polys` (activations)
//! and `2·units` (inverses); a coalesced pass runs them at up to
//! `2·Σ c_polys`, so the lane-parallel kernels fill all SIMD lanes — that,
//! plus preparing weights once per model instead of once per request, is
//! where the aggregate throughput comes from on a single-core host.
//!
//! Masks come from [`mask_seed`] — a pure function of
//! `(server seed, session, request, unit)` — and the pipeline's kernels
//! are width-invariant, so outputs are bit-equal for any batch
//! composition and worker count; `BatchPolicy::serial_baseline()` is the
//! same path with coalescing off (`max_batch: 1`), which is what lets the
//! determinism tests pin width-invariance byte for byte.
//!
//! [`HconvServer::spectra`]: flash_2pc::HconvServer::spectra
//!
//! # Resilience
//!
//! The [`ResiliencePolicy`] wraps the batching core in a fault policy
//! with one invariant — the **terminal-outcome contract**: every
//! request whose [`InferenceServer::ingest`] returns `Ok` is answered
//! by exactly one RESPONSE xor one REFUSED frame; every `Err` return is
//! itself the request's single terminal outcome and no frame follows.
//!
//! * **Deadlines** — a ticket older than `request_deadline` is evicted
//!   before batching and refused [`RefusalReason::Expired`], so a
//!   backed-up queue sheds stale work instead of computing answers
//!   nobody is waiting for.
//! * **Quarantine** — each session runs an error-rate circuit breaker
//!   ([`crate::session::SessionHealth`]); a chronically faulty session
//!   is refused [`RefusalReason::Quarantined`] at admission instead of
//!   burning worker time, and an unrecoverable wire fault quarantines
//!   immediately.
//! * **Shedding** — when the global queue is at its watermark, new
//!   `Normal`-priority requests are refused [`RefusalReason::Shed`]
//!   instead of blocking (degraded sessions shed at half watermark;
//!   [`Priority::High`] sessions block for a slot instead).
//! * **Panic containment** — the batch core runs under `catch_unwind`;
//!   a panicking group is bisected until the poisoned ticket fails
//!   alone ([`RefusalReason::Poisoned`]) while its clean co-batched
//!   tickets recompute bit-exactly (masks are per-`(session, req,
//!   unit)`, and the batched kernels are width-invariant).
//! * **Watchdog** — a supervisor thread respawns dead workers and
//!   counts stall alarms, so even an uncontained worker death degrades
//!   capacity instead of wedging the queue.

use crate::model::{ModelPlan, ModelSpec};
use crate::session::{Priority, SessionHealth, SessionSnapshot, SessionState};
use crate::wire::RefusalReason;
use crate::{wire, ServeError};
use flash_2pc::error::FlashError;
use flash_2pc::hconv::{mask_seed, Response};
use flash_2pc::{SharedTransport, Transport};
use flash_he::Ciphertext;
use flash_runtime::{CacheStats, Interner, WorkQueue};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A fault-injection verdict for one ticket inside the batch core, from
/// a hook installed with [`InferenceServer::set_chaos_hook`]. Chaos
/// tests use it to poison or stall specific `(session, req_id)` pairs
/// inside the compute path — the production build never installs one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Compute normally.
    None,
    /// Panic inside the batch core (exercises containment/bisection).
    Panic,
    /// Sleep this long before computing (exercises the stall watchdog).
    Stall(Duration),
}

/// A chaos hook: `(session_id, req_id) → action`, consulted for every
/// ticket entering the batch core.
pub type ChaosHook = Arc<dyn Fn(u32, u64) -> ChaosAction + Send + Sync>;

/// Knobs of the resilience layer; [`ResiliencePolicy::default`] is the
/// serving configuration (containment + breaker on, no deadline, no
/// shedding — the two knobs that change clean-path semantics are opt-in).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Refuse tickets older than this at the worker instead of
    /// computing them ([`RefusalReason::Expired`]). `None` = no
    /// deadline.
    pub request_deadline: Option<Duration>,
    /// Refuse `Normal`-priority admissions while the global queue is at
    /// its watermark ([`RefusalReason::Shed`]) instead of blocking.
    pub shed: bool,
    /// Circuit-breaker sliding window, requests (≤ 64).
    pub health_window: u32,
    /// Failures in the window that degrade the session.
    pub degrade_after: u32,
    /// Failures in the window that quarantine it (sticky).
    pub quarantine_after: u32,
    /// Watchdog scan period.
    pub watchdog_interval: Duration,
    /// Busy time after which a worker counts as stalled (one alarm per
    /// batch).
    pub watchdog_stall: Duration,
    /// Run the batch core under `catch_unwind` and bisect panicking
    /// groups. Off, a poisoned ticket kills its worker (the watchdog
    /// respawns it) and the batch's tickets never terminate.
    pub contain_panics: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            request_deadline: None,
            shed: false,
            health_window: 16,
            degrade_after: 4,
            quarantine_after: 8,
            watchdog_interval: Duration::from_millis(25),
            watchdog_stall: Duration::from_secs(5),
            contain_panics: true,
        }
    }
}

/// Knobs of the batching core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Most tickets one worker drains per queue visit (the coalescing
    /// window).
    pub max_batch: usize,
    /// Bound of the process-wide ticket queue; submissions block when
    /// it is full (global backpressure).
    pub queue_depth: usize,
    /// Per-session in-flight window; a session's submissions block when
    /// it alone has this many requests pending.
    pub per_session_inflight: usize,
    /// The fault policy wrapped around the core.
    pub resilience: ResiliencePolicy,
}

impl BatchPolicy {
    /// The serving configuration: coalesce up to 16 tickets — wide
    /// enough to fill the lanes of the shared forward sweep, small enough
    /// that one batch's activation and accumulator buffers stay inside L2.
    pub fn batched() -> Self {
        BatchPolicy {
            max_batch: 16,
            queue_depth: 256,
            per_session_inflight: 8,
            resilience: ResiliencePolicy::default(),
        }
    }

    /// The no-coalescing policy: every ticket is its own width-1 batch.
    pub fn serial_baseline() -> Self {
        BatchPolicy {
            max_batch: 1,
            queue_depth: 256,
            per_session_inflight: 8,
            resilience: ResiliencePolicy::default(),
        }
    }

    /// The same policy with a different resilience configuration.
    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> Self {
        self.resilience = resilience;
        self
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::batched()
    }
}

/// One admitted request waiting for a worker: the share-folded upload
/// ciphertexts plus routing/latency bookkeeping.
struct Ticket {
    session: Arc<SessionState>,
    req_id: u64,
    cts: Vec<Ciphertext>,
    submitted: Instant,
    /// Evict-and-refuse after this instant ([`RefusalReason::Expired`]).
    deadline: Option<Instant>,
}

/// Per-worker liveness slot read by the watchdog.
#[derive(Debug, Default)]
struct Heartbeat {
    /// Microseconds since server start at which the current batch began;
    /// 0 = idle.
    busy_since_us: AtomicU64,
    /// Batches started (the stall alarm fires once per generation).
    generation: AtomicU64,
    /// Last generation the watchdog raised a stall alarm for.
    alarmed_generation: AtomicU64,
}

struct ServerCore {
    policy: BatchPolicy,
    seed: u64,
    /// Registered models, LRU-bounded: a serving process cycling
    /// through many models sheds the cold plans (sessions keep their
    /// own `Arc`, so an evicted plan stays alive until its last
    /// session closes).
    models: Interner<u64, ModelPlan>,
    sessions: Mutex<BTreeMap<u32, Arc<SessionState>>>,
    next_session: AtomicU32,
    queue: WorkQueue<Ticket>,
    /// Server output shares by `(session, request)` until collected.
    results: Mutex<BTreeMap<(u32, u64), Vec<u64>>>,
    /// Submission → response-send latency per answered request, µs.
    latencies_us: Mutex<Vec<u64>>,
    requests_ok: AtomicU64,
    requests_failed: AtomicU64,
    /// Requests answered with a typed REFUSED frame, by class.
    requests_refused: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    quarantined: AtomicU64,
    poisoned: AtomicU64,
    /// Transport retransmissions observed during admission receives.
    retries: AtomicU64,
    /// Dead workers respawned + stall alarms raised.
    watchdog_kicks: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    /// Polynomials fed to the batched spectral kernels…
    kernel_polys: AtomicU64,
    /// …and the SIMD lane-slots those calls occupied (`rounds × W`).
    kernel_slots: AtomicU64,
    /// Terminal outcomes (ok + failed), with a wakeup for waiters.
    completed: Mutex<u64>,
    done: Condvar,
    /// Cleared by [`InferenceServer::shutdown`]: admissions fail fast
    /// with [`ServeError::Shutdown`] while in-flight work drains.
    accepting: AtomicBool,
    shutting_down: AtomicBool,
    /// Worker handles live in the core so the watchdog can respawn a
    /// dead worker; `None` marks a slot mid-respawn or joined.
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
    heartbeats: Vec<Heartbeat>,
    epoch: Instant,
    chaos: Mutex<Option<ChaosHook>>,
}

impl ServerCore {
    fn record_kernel(&self, polys: usize) {
        let w = flash_runtime::simd::lanes().max(1);
        let slots = polys.div_ceil(w) * w;
        self.kernel_polys.fetch_add(polys as u64, Ordering::Relaxed);
        self.kernel_slots.fetch_add(slots as u64, Ordering::Relaxed);
    }

    fn complete_one(&self) {
        let mut n = self.completed.lock().unwrap_or_else(|e| e.into_inner());
        *n += 1;
        drop(n);
        self.done.notify_all();
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn chaos_hook(&self) -> Option<ChaosHook> {
        self.chaos.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Aggregate serving accounting (see also [`SessionSnapshot`] for the
/// per-session view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered.
    pub requests_ok: u64,
    /// Requests that failed (wire, decode, or compute).
    pub requests_failed: u64,
    /// Requests answered with a typed REFUSED frame (all classes).
    pub requests_refused: u64,
    /// Refusals: admission overload ([`RefusalReason::Shed`]).
    pub shed: u64,
    /// Refusals: deadline eviction ([`RefusalReason::Expired`]).
    pub expired: u64,
    /// Refusals: circuit breaker ([`RefusalReason::Quarantined`]).
    pub quarantined: u64,
    /// Refusals: panic containment ([`RefusalReason::Poisoned`]).
    pub poisoned: u64,
    /// Transport retransmissions observed during admission receives.
    pub retries: u64,
    /// Dead workers respawned plus stall alarms raised.
    pub watchdog_kicks: u64,
    /// Worker queue visits that yielded at least one ticket.
    pub batches: u64,
    /// Tickets drained across those visits.
    pub batched_requests: u64,
    /// Polynomials fed to the batched spectral kernels.
    pub kernel_polys: u64,
    /// SIMD lane-slots those kernel calls occupied.
    pub kernel_slots: u64,
    /// Connected sessions.
    pub sessions: usize,
    /// Hit/miss/eviction accounting of the model-plan cache.
    pub model_cache: CacheStats,
}

impl ServerStats {
    /// Fraction of SIMD lane-slots the spectral kernel calls actually
    /// filled (1.0 = every call ran at full width).
    pub fn occupancy(&self) -> f64 {
        if self.kernel_slots == 0 {
            1.0
        } else {
            self.kernel_polys as f64 / self.kernel_slots as f64
        }
    }

    /// Mean tickets per worker queue visit.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }
}

/// A running multi-session inference server.
///
/// Workers are real threads, but every path is deterministic in
/// *content*: scheduling affects only the order work retires, never the
/// bytes a session observes.
pub struct InferenceServer {
    core: Arc<ServerCore>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

fn spawn_worker(core: &Arc<ServerCore>, slot: usize) -> JoinHandle<()> {
    let core = Arc::clone(core);
    std::thread::Builder::new()
        .name(format!("flash-serve-{slot}"))
        .spawn(move || worker_loop(&core, slot))
        .expect("spawn serve worker")
}

impl InferenceServer {
    /// Starts the server with `workers` worker threads (clamped to ≥ 1)
    /// plus the watchdog supervisor.
    pub fn start(policy: BatchPolicy, seed: u64, workers: usize) -> Self {
        let workers = workers.max(1);
        let core = Arc::new(ServerCore {
            policy,
            seed,
            models: Interner::bounded(32),
            sessions: Mutex::new(BTreeMap::new()),
            next_session: AtomicU32::new(1),
            queue: WorkQueue::bounded(policy.queue_depth.max(1)),
            results: Mutex::new(BTreeMap::new()),
            latencies_us: Mutex::new(Vec::new()),
            requests_ok: AtomicU64::new(0),
            requests_failed: AtomicU64::new(0),
            requests_refused: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            watchdog_kicks: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            kernel_polys: AtomicU64::new(0),
            kernel_slots: AtomicU64::new(0),
            completed: Mutex::new(0),
            done: Condvar::new(),
            accepting: AtomicBool::new(true),
            shutting_down: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
            heartbeats: (0..workers).map(|_| Heartbeat::default()).collect(),
            epoch: Instant::now(),
            chaos: Mutex::new(None),
        });
        // Register the resilience counters so a clean run's snapshot
        // carries them at zero instead of omitting them.
        flash_telemetry::counter!("serve.shed").add(0);
        flash_telemetry::counter!("serve.expired").add(0);
        flash_telemetry::counter!("serve.quarantined").add(0);
        flash_telemetry::counter!("serve.retries").add(0);
        flash_telemetry::counter!("serve.watchdog_kicks").add(0);
        {
            let mut slots = core.workers.lock().unwrap_or_else(|e| e.into_inner());
            for i in 0..workers {
                slots.push(Some(spawn_worker(&core, i)));
            }
        }
        let watchdog = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("flash-serve-watchdog".into())
                .spawn(move || watchdog_loop(&core))
                .expect("spawn serve watchdog")
        };
        InferenceServer {
            core,
            watchdog: Mutex::new(Some(watchdog)),
        }
    }

    /// Registers (and compiles) a model. Re-registering an id that is
    /// still cached returns the existing plan untouched.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelPlan::build`] failures — a model whose noise
    /// bound overflows the decryption ceiling is refused here, before
    /// any session can name it.
    pub fn register_model(&self, spec: ModelSpec) -> Result<Arc<ModelPlan>, ServeError> {
        self.core
            .models
            .try_intern_with(spec.id, move |_| ModelPlan::build(spec))
    }

    /// Opens a session: receives the client's HELLO on `uplink`,
    /// resolves the model, and answers the negotiated parameters on
    /// `downlink`. Returns the assigned session id.
    ///
    /// # Errors
    ///
    /// Wire failures on either link, or [`ServeError::UnknownModel`].
    pub fn accept(
        &self,
        uplink: SharedTransport,
        downlink: SharedTransport,
    ) -> Result<u32, ServeError> {
        if !self.core.accepting.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let hello = uplink.clone().recv()?;
        let (model_id, client_tag) = wire::decode_hello(&hello)?;
        let model = self
            .core
            .models
            .get(&model_id)
            .ok_or(ServeError::UnknownModel(model_id))?;
        let p = model.params();
        let ack = wire::SessionAck {
            session_id: self.core.next_session.fetch_add(1, Ordering::Relaxed),
            n: p.n as u32,
            t: p.t,
            c_polys: model.c_polys() as u32,
            m: model.shape().m as u32,
            bands: model.encoder().bands() as u32,
            truncation: model.truncation(),
        };
        let r = self.core.policy.resilience;
        let session = Arc::new(SessionState::new(
            ack.session_id,
            client_tag,
            model,
            uplink,
            downlink.clone(),
            self.core.policy.per_session_inflight,
            r.health_window,
            r.degrade_after,
            r.quarantine_after,
        ));
        self.core
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(ack.session_id, session);
        downlink.clone().send(&wire::encode_ack(&ack))?;
        Ok(ack.session_id)
    }

    /// Sets a session's admission priority under load shedding.
    pub fn set_session_priority(&self, session_id: u32, priority: Priority) -> bool {
        let sessions = self.core.sessions.lock().unwrap_or_else(|e| e.into_inner());
        match sessions.get(&session_id) {
            Some(s) => {
                s.set_priority(priority);
                true
            }
            None => false,
        }
    }

    /// Installs (or clears) the per-ticket chaos hook — fault injection
    /// for the batch core, used by the chaos tests.
    pub fn set_chaos_hook(&self, hook: Option<ChaosHook>) {
        *self.core.chaos.lock().unwrap_or_else(|e| e.into_inner()) = hook;
    }

    /// Admits one request of a session: receives the REQUEST frame from
    /// the session's uplink, validates and share-folds the ciphertexts,
    /// and enqueues the ticket. Blocks for backpressure — on the
    /// session's in-flight window and on the global queue bound —
    /// unless the resilience policy sheds instead.
    ///
    /// `server_share` is the server's additive share of the activation
    /// (its 2PC state for this layer), folded into the upload exactly as
    /// in [`flash_2pc::ConvProtocol`].
    ///
    /// # Terminal-outcome contract
    ///
    /// `Ok(())` promises exactly one later frame on the downlink — a
    /// RESPONSE or a typed REFUSED (quarantine/shed refusals send it
    /// before returning). An `Err` is itself the request's terminal
    /// outcome and no frame follows. Wire-class failures (the uplink's
    /// recovery gave up mid-stream) poison and quarantine the session —
    /// the frame layer is positional, so every later frame on that link
    /// is suspect — but never touch other sessions. Validation failures
    /// after a clean receive refuse typed and strike the session's
    /// circuit breaker instead of poisoning.
    pub fn ingest(
        &self,
        session_id: u32,
        req_id: u64,
        server_share: &[i64],
    ) -> Result<(), ServeError> {
        if !self.core.accepting.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let session = self
            .core
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&session_id)
            .cloned()
            .ok_or(ServeError::UnknownSession(session_id))?;
        if session.is_failed() {
            return Err(ServeError::SessionFailed(session_id));
        }
        if let Some(reason) = self.admission_gate(&session) {
            // The client has already queued its REQUEST frame; drain it
            // so the positional uplink stays aligned for later requests,
            // then answer the typed refusal.
            match session.uplink.clone().recv() {
                Ok(_) => {
                    self.refuse_admission(&session, req_id, reason);
                    return Ok(());
                }
                Err(e) => return Err(self.poison(&session, e.into())),
            }
        }
        if session.is_failed() || !session.acquire() {
            return Err(ServeError::SessionFailed(session_id));
        }
        match self.admit(&session, req_id, server_share) {
            Ok(ticket) => match self.core.queue.push(ticket) {
                Ok(()) => Ok(()),
                Err(_) => {
                    session.release();
                    Err(ServeError::Shutdown)
                }
            },
            Err(e) => {
                session.release();
                if matches!(e, ServeError::Flash(FlashError::Protocol(_))) {
                    // The receive itself failed: the stream is broken.
                    Err(self.poison(&session, e))
                } else {
                    // The frame arrived clean but its content failed
                    // validation: the stream is still aligned, so the
                    // request refuses typed and the breaker strikes.
                    session.record_outcome(false);
                    self.refuse_admission(&session, req_id, RefusalReason::Invalid(e.to_string()));
                    Ok(())
                }
            }
        }
    }

    /// The admission-time refusal verdict, if any.
    fn admission_gate(&self, session: &Arc<SessionState>) -> Option<RefusalReason> {
        let health = session.health();
        if health == SessionHealth::Quarantined {
            return Some(RefusalReason::Quarantined);
        }
        let r = &self.core.policy.resilience;
        if r.shed && session.priority() == Priority::Normal {
            let depth = self.core.queue.capacity();
            let watermark = match health {
                SessionHealth::Degraded => (depth / 2).max(1),
                _ => depth,
            };
            if self.core.queue.len() >= watermark {
                return Some(RefusalReason::Shed);
            }
        }
        None
    }

    /// Sends an admission-time REFUSED frame and records the terminal
    /// outcome. A downlink failure here poisons the session (the client
    /// can no longer be answered at all).
    fn refuse_admission(&self, session: &Arc<SessionState>, req_id: u64, reason: RefusalReason) {
        let core = &self.core;
        record_refusal(core, session, &reason);
        let frame = wire::encode_refusal(req_id, &reason);
        if session.downlink.clone().send(&frame).is_err() {
            session.mark_failed();
            session.quarantine();
        }
        core.complete_one();
    }

    /// Marks a session unrecoverable: poisoned (fail-fast submissions)
    /// and quarantined (health reporting), with failure accounting.
    fn poison(&self, session: &Arc<SessionState>, e: ServeError) -> ServeError {
        session.mark_failed();
        session.quarantine();
        session.requests_failed.fetch_add(1, Ordering::Relaxed);
        self.core.requests_failed.fetch_add(1, Ordering::Relaxed);
        flash_telemetry::counter!("serve.requests_failed").add(1);
        e
    }

    fn admit(
        &self,
        session: &Arc<SessionState>,
        req_id: u64,
        server_share: &[i64],
    ) -> Result<Ticket, ServeError> {
        let submitted = Instant::now();
        let _t = flash_telemetry::span!("serve.admit");
        let model = &session.model;
        if server_share.len() != model.shape().input_len() {
            return Err(ServeError::Malformed("server share length"));
        }
        let retried_before = session.uplink.stats().frames_retried;
        let msg = session.uplink.clone().recv()?;
        let retried = session
            .uplink
            .stats()
            .frames_retried
            .saturating_sub(retried_before);
        if retried > 0 {
            self.core.retries.fetch_add(retried, Ordering::Relaxed);
            flash_telemetry::counter!("serve.retries").add(retried);
        }
        let (got_req, blobs) = wire::decode_request_borrowed(&msg)?;
        if got_req != req_id {
            return Err(ServeError::Malformed("request id mismatch"));
        }
        if blobs.len() != model.c_polys() {
            return Err(ServeError::Malformed("upload ciphertext count"));
        }
        let layer = model.server.layer();
        let cts = layer.open(server_share, blobs.iter().map(Ok::<_, ServeError>))?;
        Ok(Ticket {
            session: Arc::clone(session),
            req_id,
            cts,
            submitted,
            deadline: self
                .core
                .policy
                .resilience
                .request_deadline
                .map(|d| submitted + d),
        })
    }

    /// Aggregate accounting so far.
    pub fn stats(&self) -> ServerStats {
        let core = &self.core;
        ServerStats {
            requests_ok: core.requests_ok.load(Ordering::Relaxed),
            requests_failed: core.requests_failed.load(Ordering::Relaxed),
            requests_refused: core.requests_refused.load(Ordering::Relaxed),
            shed: core.shed.load(Ordering::Relaxed),
            expired: core.expired.load(Ordering::Relaxed),
            quarantined: core.quarantined.load(Ordering::Relaxed),
            poisoned: core.poisoned.load(Ordering::Relaxed),
            retries: core.retries.load(Ordering::Relaxed),
            watchdog_kicks: core.watchdog_kicks.load(Ordering::Relaxed),
            batches: core.batches.load(Ordering::Relaxed),
            batched_requests: core.batched_requests.load(Ordering::Relaxed),
            kernel_polys: core.kernel_polys.load(Ordering::Relaxed),
            kernel_slots: core.kernel_slots.load(Ordering::Relaxed),
            sessions: core
                .sessions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len(),
            model_cache: core.models.stats(),
        }
    }

    /// Per-session accounting, in session-id order.
    pub fn session_snapshots(&self) -> Vec<SessionSnapshot> {
        self.core
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|s| s.snapshot())
            .collect()
    }

    /// Removes and returns the server's output share of one answered
    /// request (the server's half of the 2PC result).
    pub fn take_result(&self, session_id: u32, req_id: u64) -> Option<Vec<u64>> {
        self.core
            .results
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&(session_id, req_id))
    }

    /// Drains the recorded submission → response latencies (µs).
    pub fn take_latencies_us(&self) -> Vec<u64> {
        std::mem::take(
            &mut *self
                .core
                .latencies_us
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        )
    }

    /// Blocks until at least `count` requests have reached a terminal
    /// outcome (answered or refused) since the server started.
    ///
    /// Prefer [`InferenceServer::wait_for_timeout`]: this variant blocks
    /// forever if a worker is wedged or a request was lost.
    pub fn wait_for(&self, count: u64) {
        let mut n = self
            .core
            .completed
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        while *n < count {
            n = self.core.done.wait(n).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Bounded variant of [`InferenceServer::wait_for`]: returns `true`
    /// once `count` terminal outcomes are reached, `false` if `dur`
    /// elapses first — so a hung worker fails the caller's run instead
    /// of wedging it.
    pub fn wait_for_timeout(&self, count: u64, dur: Duration) -> bool {
        let deadline = Instant::now() + dur;
        let mut n = self
            .core
            .completed
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        while *n < count {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            n = self
                .core
                .done
                .wait_timeout(n, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        true
    }

    /// Draining shutdown: stops accepting work (admissions fail fast
    /// with [`ServeError::Shutdown`]), completes every ticket already
    /// queued, then joins the workers and the watchdog. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        self.core.accepting.store(false, Ordering::Release);
        self.core.shutting_down.store(true, Ordering::Release);
        self.core.queue.close();
        if let Some(w) = self
            .watchdog
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = w.join();
        }
        let mut workers = self.core.workers.lock().unwrap_or_else(|e| e.into_inner());
        for slot in workers.iter_mut() {
            if let Some(h) = slot.take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Supervises the workers: a finished worker thread (uncontained panic)
/// is joined and respawned; a worker busy on one batch longer than the
/// stall bound raises one alarm per batch. Both count as
/// `serve.watchdog_kicks`.
fn watchdog_loop(core: &Arc<ServerCore>) {
    let interval = core
        .policy
        .resilience
        .watchdog_interval
        .max(Duration::from_millis(1));
    let stall_us = core.policy.resilience.watchdog_stall.as_micros() as u64;
    let slice = Duration::from_millis(2).min(interval);
    while !core.shutting_down.load(Ordering::Acquire) {
        // Sleep in small slices so shutdown joins promptly.
        let wake = Instant::now() + interval;
        while Instant::now() < wake {
            if core.shutting_down.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(slice);
        }
        let mut kicks = 0u64;
        let mut workers = core.workers.lock().unwrap_or_else(|e| e.into_inner());
        for (i, slot) in workers.iter_mut().enumerate() {
            let dead = slot.as_ref().is_some_and(|h| h.is_finished());
            if dead && !core.shutting_down.load(Ordering::Acquire) {
                if let Some(h) = slot.take() {
                    let _ = h.join();
                }
                core.heartbeats[i].busy_since_us.store(0, Ordering::Relaxed);
                *slot = Some(spawn_worker(core, i));
                kicks += 1;
                continue;
            }
            let hb = &core.heartbeats[i];
            let busy = hb.busy_since_us.load(Ordering::Relaxed);
            let generation = hb.generation.load(Ordering::Relaxed);
            if busy != 0
                && core.now_us().saturating_sub(busy) > stall_us
                && hb.alarmed_generation.load(Ordering::Relaxed) != generation
            {
                hb.alarmed_generation.store(generation, Ordering::Relaxed);
                kicks += 1;
            }
        }
        drop(workers);
        if kicks > 0 {
            core.watchdog_kicks.fetch_add(kicks, Ordering::Relaxed);
            flash_telemetry::counter!("serve.watchdog_kicks").add(kicks);
        }
    }
}

fn worker_loop(core: &Arc<ServerCore>, slot: usize) {
    let hb = &core.heartbeats[slot];
    loop {
        let batch = core.queue.pop_batch(core.policy.max_batch);
        if batch.is_empty() {
            return; // closed and drained
        }
        hb.generation.fetch_add(1, Ordering::Relaxed);
        hb.busy_since_us
            .store(core.now_us().max(1), Ordering::Relaxed);
        core.batches.fetch_add(1, Ordering::Relaxed);
        core.batched_requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        flash_telemetry::counter!("serve.batches").add(1);
        flash_telemetry::counter!("serve.batched_requests").add(batch.len() as u64);
        // Evict expired tickets before batching: refuse typed instead of
        // computing answers whose deadline already passed.
        let now = Instant::now();
        let (batch, stale): (Vec<Ticket>, Vec<Ticket>) = batch
            .into_iter()
            .partition(|t| t.deadline.is_none_or(|d| now < d));
        for ticket in stale {
            refuse_ticket(core, ticket, RefusalReason::Expired);
        }
        // Coalesce by model *plan* (pointer identity, not id): tickets
        // whose sessions pinned different generations of a re-registered
        // id must not share spectra.
        let mut groups: BTreeMap<usize, Vec<Ticket>> = BTreeMap::new();
        for t in batch {
            groups
                .entry(Arc::as_ptr(&t.session.model) as usize)
                .or_default()
                .push(t);
        }
        let chaos = core.chaos_hook();
        for (_, tickets) in groups {
            run_group(core, tickets, chaos.as_ref());
        }
        hb.busy_since_us.store(0, Ordering::Relaxed);
    }
}

/// Fires the chaos hook for every ticket in the slice. `Panic` unwinds
/// here — inside the containment boundary of the caller — and `Stall`
/// sleeps, tripping the watchdog's stall alarm.
fn apply_chaos(chaos: Option<&ChaosHook>, tickets: &[Ticket]) {
    let Some(hook) = chaos else { return };
    for t in tickets {
        match hook(t.session.id, t.req_id) {
            ChaosAction::None => {}
            ChaosAction::Panic => panic!("chaos: injected panic"),
            ChaosAction::Stall(d) => std::thread::sleep(d),
        }
    }
}

/// Runs one coalesced group under panic containment: a panic anywhere in
/// the compute path bisects the group until the poisoned ticket stands
/// alone and is refused [`RefusalReason::Poisoned`] — its co-batched
/// tickets recompute in smaller groups with bit-identical results
/// (masks are per-`(session, req, unit)` and the batched kernels are
/// width-invariant, so batch composition never changes bytes).
fn run_group(core: &Arc<ServerCore>, mut tickets: Vec<Ticket>, chaos: Option<&ChaosHook>) {
    if tickets.is_empty() {
        return;
    }
    let model = Arc::clone(&tickets[0].session.model);
    if !core.policy.resilience.contain_panics {
        apply_chaos(chaos, &tickets);
        let responses = compute_group(core, &model, &tickets);
        for (ticket, response) in tickets.into_iter().zip(responses) {
            finalize_ticket(core, ticket, response);
        }
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        apply_chaos(chaos, &tickets);
        compute_group(core, &model, &tickets)
    }));
    match outcome {
        Ok(responses) => {
            for (ticket, response) in tickets.into_iter().zip(responses) {
                finalize_ticket(core, ticket, response);
            }
        }
        Err(_) if tickets.len() == 1 => {
            let ticket = tickets.pop().expect("len checked");
            ticket.session.record_outcome(false);
            refuse_ticket(core, ticket, RefusalReason::Poisoned);
        }
        Err(_) => {
            let right = tickets.split_off(tickets.len() / 2);
            run_group(core, tickets, chaos);
            run_group(core, right, chaos);
        }
    }
}

/// The coalesced datapath: the pipeline's **respond** stage over the
/// group's tickets and all of the model's units. Borrows the tickets —
/// the caller finalizes (or, on a contained panic, retries in smaller
/// groups).
fn compute_group(core: &Arc<ServerCore>, model: &ModelPlan, tickets: &[Ticket]) -> Vec<Response> {
    let _t = flash_telemetry::span!("serve.respond");
    let requests: Vec<&[Ciphertext]> = tickets.iter().map(|t| t.cts.as_slice()).collect();
    let act = model.server.spectra(&requests);
    // Occupancy accounting mirrors the pipeline's batched kernel calls:
    // the forward sweep, and the inverse over the group's spectral units
    // (one domain per model — the backend's).
    core.record_kernel(2 * requests.iter().map(|r| r.len()).sum::<usize>());
    let spectral_units = model.units.len() - model.fallback_units();
    if spectral_units > 0 {
        core.record_kernel(2 * tickets.len() * spectral_units);
    }
    model
        .server
        .respond(&act, &requests, 0, &model.units, |ri, u| {
            mask_seed(core.seed, tickets[ri].session.id, tickets[ri].req_id, u)
        })
}

/// Sends one ticket's response and records its terminal outcome.
fn finalize_ticket(core: &Arc<ServerCore>, ticket: Ticket, response: Response) {
    let _t = flash_telemetry::span!("serve.finalize");
    let Response {
        blobs,
        server_share: y_server,
    } = response;
    let response = wire::encode_response(ticket.req_id, &blobs);
    let sent = ticket.session.downlink.clone().send(&response);
    core.results
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert((ticket.session.id, ticket.req_id), y_server);
    core.latencies_us
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(ticket.submitted.elapsed().as_micros() as u64);
    match sent {
        Ok(()) => {
            ticket.session.record_outcome(true);
            ticket.session.requests_ok.fetch_add(1, Ordering::Relaxed);
            core.requests_ok.fetch_add(1, Ordering::Relaxed);
            flash_telemetry::counter!("serve.requests_ok").add(1);
        }
        Err(_) => {
            ticket.session.mark_failed();
            ticket.session.quarantine();
            ticket
                .session
                .requests_failed
                .fetch_add(1, Ordering::Relaxed);
            core.requests_failed.fetch_add(1, Ordering::Relaxed);
            flash_telemetry::counter!("serve.requests_failed").add(1);
        }
    }
    ticket.session.release();
    core.complete_one();
}

/// Bumps the per-class refusal accounting (core + session + telemetry).
fn record_refusal(core: &ServerCore, session: &SessionState, reason: &RefusalReason) {
    session.requests_refused.fetch_add(1, Ordering::Relaxed);
    core.requests_refused.fetch_add(1, Ordering::Relaxed);
    flash_telemetry::counter!("serve.requests_refused").add(1);
    match reason {
        RefusalReason::Shed => {
            core.shed.fetch_add(1, Ordering::Relaxed);
            flash_telemetry::counter!("serve.shed").add(1);
        }
        RefusalReason::Expired => {
            core.expired.fetch_add(1, Ordering::Relaxed);
            flash_telemetry::counter!("serve.expired").add(1);
        }
        RefusalReason::Quarantined => {
            core.quarantined.fetch_add(1, Ordering::Relaxed);
            flash_telemetry::counter!("serve.quarantined").add(1);
        }
        RefusalReason::Poisoned => {
            core.poisoned.fetch_add(1, Ordering::Relaxed);
            flash_telemetry::counter!("serve.poisoned").add(1);
        }
        RefusalReason::Shutdown | RefusalReason::Invalid(_) => {}
    }
}

/// Answers one queued ticket with a typed refusal instead of a result.
/// The breaker strike, if the refusal class warrants one, is the
/// caller's job ([`crate::session::SessionState::record_outcome`]) —
/// shed/expired refusals are the server's condition and must not strike.
fn refuse_ticket(core: &Arc<ServerCore>, ticket: Ticket, reason: RefusalReason) {
    record_refusal(core, &ticket.session, &reason);
    let refusal = wire::encode_refusal(ticket.req_id, &reason);
    if ticket.session.downlink.clone().send(&refusal).is_err() {
        ticket.session.mark_failed();
        ticket.session.quarantine();
    }
    ticket.session.release();
    core.complete_one();
}
