//! The wire: framing, checksums, fault injection and recovery.
//!
//! Every ciphertext the protocol moves crosses a [`Transport`] as real
//! bytes from [`flash_he::serialize`], wrapped in a length-prefixed frame
//! with a per-message checksum:
//!
//! ```text
//! [seq: u32 LE][len: u32 LE][hash: u64 LE][payload: len bytes]
//! ```
//!
//! The checksum is a word-wise multiply–xor hash chosen for the hot
//! path: one 64-bit multiply per 8 payload bytes (a CRC table walk per
//! byte would be ~8× more work and would show up against the protocol's
//! sub-millisecond medians). Detection is still deterministic for the
//! faults that matter: `x ↦ (x ⊕ w)·M` is a bijection of `Z_{2^64}` for
//! odd `M`, so two frames differing in any single bit — or any single
//! word — can never hash equal; multi-word corruption collides with
//! probability `≈ 2^-64`. The header (sequence number and length) is
//! folded into the hash seed, so a flipped `seq` cannot smuggle a stale
//! payload into the wrong slot.
//!
//! [`InMemoryTransport`] simulates one direction of a lossy link with a
//! sender-side outbox and a receiver-side recovery state machine:
//! corrupted, truncated, duplicated, reordered or dropped frames are
//! detected (checksum / length / sequence bookkeeping) and the expected
//! frame is re-requested from the outbox, up to a bounded retry budget.
//! A deterministic, seedable [`FaultPlan`] mutates frames in transit for
//! testing; recovered runs are bit-identical to clean runs because the
//! injector draws from its own RNG, never the protocol's.

use crate::error::ProtocolError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Frame header size: `seq (4) + len (4) + hash (8)`.
pub const FRAME_HEADER_BYTES: usize = 16;

/// Maximum payload a frame may carry (defends length-field corruption
/// against absurd allocations when checksums are disabled).
const MAX_FRAME_PAYLOAD: usize = 1 << 28;

const HASH_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
/// Odd multiplier (from the splitmix64 finalizer); oddness is what makes
/// each absorb step bijective.
const HASH_MULT: u64 = 0xFF51_AFD7_ED55_8CCD;

/// Multiply–xor hash over the frame header and payload.
fn frame_hash(seq: u32, payload: &[u8]) -> u64 {
    let mut h = HASH_SEED ^ (((seq as u64) << 32) | payload.len() as u64);
    h = h.wrapping_mul(HASH_MULT);
    let mut chunks = payload.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"));
        h = (h ^ w).wrapping_mul(HASH_MULT);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(last)).wrapping_mul(HASH_MULT);
    }
    h
}

/// Encodes one frame.
pub fn encode_frame(seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_hash(seq, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Why a received frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Shorter than the fixed header.
    TooShort,
    /// The length field disagrees with the bytes on the wire.
    LengthMismatch,
    /// The checksum does not match the header + payload.
    ChecksumMismatch,
}

/// Decodes one frame; with `verify` the checksum is enforced, without it
/// only the structural length checks run (the detection-disabled mode of
/// the robustness tests).
pub fn decode_frame(buf: &[u8], verify: bool) -> Result<(u32, &[u8]), FrameFault> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Err(FrameFault::TooShort);
    }
    let seq = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    let len = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) as usize;
    let hash = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    if len > MAX_FRAME_PAYLOAD || buf.len() != FRAME_HEADER_BYTES + len {
        return Err(FrameFault::LengthMismatch);
    }
    let payload = &buf[FRAME_HEADER_BYTES..];
    if verify && frame_hash(seq, payload) != hash {
        return Err(FrameFault::ChecksumMismatch);
    }
    Ok((seq, payload))
}

/// One deterministic mutation of a frame in transit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Deliver unchanged.
    None,
    /// Flip bit `bit` of byte `byte % frame_len`.
    FlipBit {
        /// Byte offset (reduced modulo the frame length).
        byte: usize,
        /// Bit index 0..8.
        bit: u8,
    },
    /// Keep only the first `keep` bytes.
    Truncate {
        /// Bytes to keep.
        keep: usize,
    },
    /// Lose the frame entirely.
    Drop,
    /// Deliver the frame twice.
    Duplicate,
    /// Push the frame ahead of everything already queued.
    Reorder,
}

/// Per-frame fault probabilities of a seeded random schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// RNG seed — the whole schedule is a pure function of it.
    pub seed: u64,
    /// P(single-bit flip).
    pub flip: f64,
    /// P(truncation to a random prefix).
    pub truncate: f64,
    /// P(frame dropped).
    pub drop: f64,
    /// P(frame duplicated).
    pub duplicate: f64,
    /// P(frame pushed ahead of the queue).
    pub reorder: f64,
}

impl FaultConfig {
    /// A schedule exercising every fault class at moderate rates.
    pub fn moderate(seed: u64) -> Self {
        Self {
            seed,
            flip: 0.10,
            truncate: 0.05,
            drop: 0.05,
            duplicate: 0.05,
            reorder: 0.10,
        }
    }
}

/// A deterministic fault schedule for one transport direction.
#[derive(Debug, Clone)]
pub enum FaultPlan {
    /// Apply these ops to successive transmissions (clean afterwards).
    Scripted(Vec<FaultOp>),
    /// Seeded per-frame random faults.
    Random(FaultConfig),
}

/// Injector state compiled from a [`FaultPlan`].
#[derive(Debug)]
enum Injector {
    Scripted(VecDeque<FaultOp>),
    Random(Box<StdRng>, FaultConfig),
}

impl Injector {
    fn new(plan: &FaultPlan) -> Self {
        match plan {
            FaultPlan::Scripted(ops) => Injector::Scripted(ops.iter().copied().collect()),
            FaultPlan::Random(cfg) => {
                Injector::Random(Box::new(StdRng::seed_from_u64(cfg.seed)), *cfg)
            }
        }
    }

    fn next_op(&mut self, frame_len: usize) -> FaultOp {
        match self {
            Injector::Scripted(ops) => ops.pop_front().unwrap_or(FaultOp::None),
            Injector::Random(rng, cfg) => {
                if cfg.flip > 0.0 && rng.gen_bool(cfg.flip) {
                    return FaultOp::FlipBit {
                        byte: rng.gen_range(0..frame_len.max(1)),
                        bit: rng.gen_range(0..8u32) as u8,
                    };
                }
                if cfg.truncate > 0.0 && rng.gen_bool(cfg.truncate) {
                    return FaultOp::Truncate {
                        keep: rng.gen_range(0..frame_len.max(1)),
                    };
                }
                if cfg.drop > 0.0 && rng.gen_bool(cfg.drop) {
                    return FaultOp::Drop;
                }
                if cfg.duplicate > 0.0 && rng.gen_bool(cfg.duplicate) {
                    return FaultOp::Duplicate;
                }
                if cfg.reorder > 0.0 && rng.gen_bool(cfg.reorder) {
                    return FaultOp::Reorder;
                }
                FaultOp::None
            }
        }
    }
}

/// Deterministic retransmission pacing: exponential backoff with seeded
/// jitter, charged against a per-frame receive-deadline budget.
///
/// The in-memory link never actually sleeps — delays are *virtual*, a
/// model of what a real NIC-level retransmitter would wait — but the
/// accounting is real: each retry of frame `i` charges
/// `min(base · 2^attempt, max)` microseconds, jittered by a factor drawn
/// from a dedicated seeded RNG (so two links with the same seed charge
/// identical schedules, and the protocol's RNG is never touched). Once a
/// frame's cumulative charge exceeds `budget_us` the receiver gives up
/// with [`ProtocolError::DeadlineExceeded`] — the budgeted replacement
/// for the old attempts-only bound (which is kept, as a hard cap, for
/// pathologically cheap schedules).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffConfig {
    /// First-retry delay, µs.
    pub base_us: u64,
    /// Per-retry delay ceiling, µs.
    pub max_us: u64,
    /// Jitter as a fraction of the delay: each charge is scaled by a
    /// factor uniform in `[1 - jitter, 1 + jitter]`. Clamped to `[0, 1)`.
    pub jitter: f64,
    /// Total virtual retransmission budget per frame, µs (the receive
    /// deadline). Exceeding it fails typed with
    /// [`ProtocolError::DeadlineExceeded`].
    pub budget_us: u64,
    /// Seed of the jitter RNG (independent of the fault injector's).
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        Self {
            base_us: 100,
            max_us: 20_000,
            jitter: 0.5,
            budget_us: 500_000,
            seed: 0xBAC0_FF5E,
        }
    }
}

impl BackoffConfig {
    /// A tight budget for tests that want the deadline to fire quickly.
    pub fn tight(budget_us: u64) -> Self {
        Self {
            budget_us,
            ..Self::default()
        }
    }

    /// The virtual delay charged for retransmission `attempt` (1-based),
    /// before jitter: `min(base · 2^(attempt-1), max)`.
    fn raw_delay_us(&self, attempt: u32) -> u64 {
        let shifted = self
            .base_us
            .checked_shl(attempt.saturating_sub(1))
            .unwrap_or(u64::MAX);
        shifted.min(self.max_us.max(self.base_us))
    }
}

/// Configuration of one transport direction.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Faults injected into transmitted frames (testing only).
    pub faults: Option<FaultPlan>,
    /// Hard cap on retransmissions per frame (kept alongside the
    /// budgeted deadline of [`BackoffConfig`]; whichever bound trips
    /// first fails the receive, typed).
    pub max_retries: u32,
    /// Enforce frame checksums (on in production; the robustness tests
    /// turn it off to measure undetected-corruption behavior).
    pub verify_checksums: bool,
    /// Retransmission pacing and the per-frame receive-deadline budget.
    pub backoff: BackoffConfig,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            faults: None,
            max_retries: 8,
            verify_checksums: true,
            backoff: BackoffConfig::default(),
        }
    }
}

impl TransportConfig {
    /// A clean, verifying transport with the default retry budget.
    pub fn clean() -> Self {
        Self::default()
    }

    /// A transport with the given fault plan.
    pub fn faulty(plan: FaultPlan) -> Self {
        Self {
            faults: Some(plan),
            ..Self::default()
        }
    }
}

/// Byte and fault accounting of one transport direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages accepted from the sender.
    pub messages: u64,
    /// Application payload bytes accepted from the sender.
    pub payload_bytes: u64,
    /// Framed bytes that crossed the wire — headers, checksums,
    /// duplicates and retransmissions included (dropped frames are not
    /// counted; they never crossed).
    pub wire_bytes: u64,
    /// Frames the receiver rejected or discarded: checksum/length
    /// failures, duplicates, and out-of-schedule sequence numbers.
    pub faults_detected: u64,
    /// Retransmissions the receiver requested.
    pub frames_retried: u64,
    /// Virtual backoff charged across all retransmissions, µs (the
    /// receive-deadline budget each frame's retries draw from).
    pub retry_backoff_us: u64,
}

impl TransportStats {
    /// Sums two directions' accounting.
    pub fn merge(self, other: TransportStats) -> TransportStats {
        TransportStats {
            messages: self.messages + other.messages,
            payload_bytes: self.payload_bytes + other.payload_bytes,
            wire_bytes: self.wire_bytes + other.wire_bytes,
            faults_detected: self.faults_detected + other.faults_detected,
            frames_retried: self.frames_retried + other.frames_retried,
            retry_backoff_us: self.retry_backoff_us + other.retry_backoff_us,
        }
    }
}

/// One direction of a message channel carrying opaque payloads.
///
/// Implementations own framing, integrity checking and recovery: a
/// payload returned by [`Transport::recv`] is either byte-identical to
/// the payload passed to the matching [`Transport::send`] (when checksums
/// are on, up to a `≈2^-64` hash collision) or, in detection-disabled
/// test modes, possibly corrupted — the caller's deserialization layer
/// is the next line of defense.
pub trait Transport {
    /// Queues one message for delivery.
    fn send(&mut self, payload: &[u8]) -> Result<(), ProtocolError>;
    /// Delivers the next message in send order.
    fn recv(&mut self) -> Result<Vec<u8>, ProtocolError>;
    /// Accounting so far.
    fn stats(&self) -> TransportStats;
}

/// In-memory simplex link with loss/corruption recovery.
///
/// The sender retains every undelivered payload in an outbox (the
/// real-protocol analogue of a retransmission buffer, released as the
/// receiver's cumulative acknowledgement advances); the receiver delivers
/// messages strictly in order, stashing valid early arrivals, discarding
/// duplicates, and re-requesting the expected frame when it is missing
/// or corrupt.
#[derive(Debug)]
pub struct InMemoryTransport {
    cfg: TransportConfig,
    injector: Option<Injector>,
    /// Jitter RNG of the backoff schedule — its own stream, so retry
    /// pacing perturbs neither the fault injector nor the protocol.
    backoff_rng: Box<StdRng>,
    /// Clean payloads not yet delivered (retransmission source); the
    /// front entry has sequence number `next_recv`.
    outbox: VecDeque<Vec<u8>>,
    /// Messages accepted from the sender so far: the next sequence number
    /// to assign, and the bound no genuine frame's `seq` can reach.
    sent: u32,
    /// Frames in flight.
    wire: VecDeque<Vec<u8>>,
    /// Valid frames that arrived ahead of the expected sequence number.
    stash: BTreeMap<u32, Vec<u8>>,
    /// Next sequence number the receiver expects.
    next_recv: u32,
    stats: TransportStats,
}

impl InMemoryTransport {
    /// Builds the link from a configuration.
    pub fn new(cfg: TransportConfig) -> Self {
        let injector = cfg.faults.as_ref().map(Injector::new);
        let backoff_rng = Box::new(StdRng::seed_from_u64(cfg.backoff.seed));
        Self {
            cfg,
            injector,
            backoff_rng,
            outbox: VecDeque::new(),
            sent: 0,
            wire: VecDeque::new(),
            stash: BTreeMap::new(),
            next_recv: 0,
            stats: TransportStats::default(),
        }
    }

    /// Charges one retransmission's virtual backoff: exponential in the
    /// attempt number, jittered deterministically. Returns the charge.
    fn charge_backoff(&mut self, attempt: u32) -> u64 {
        let b = &self.cfg.backoff;
        let raw = b.raw_delay_us(attempt) as f64;
        let j = b.jitter.clamp(0.0, 0.999);
        let factor = if j > 0.0 {
            1.0 - j + 2.0 * j * self.backoff_rng.gen_range(0.0f64..1.0)
        } else {
            1.0
        };
        let charged = (raw * factor).round().max(1.0) as u64;
        self.stats.retry_backoff_us += charged;
        charged
    }

    /// A clean verifying link.
    pub fn clean() -> Self {
        Self::new(TransportConfig::default())
    }

    fn push_wire(&mut self, frame: Vec<u8>) {
        self.stats.wire_bytes += frame.len() as u64;
        self.wire.push_back(frame);
    }

    /// Whether a message the receiver has not yet consumed has been
    /// queued (delivered, in flight, or recoverable from the outbox).
    pub fn has_pending(&self) -> bool {
        self.next_recv < self.sent
    }

    /// Delivers `payload` as message `next_recv` and releases the outbox
    /// entry that backed its retransmissions — `recv` only ever
    /// re-requests `next_recv`, so nothing below it is needed again.
    fn deliver(&mut self, payload: Vec<u8>) -> Vec<u8> {
        self.next_recv += 1;
        self.outbox.pop_front();
        payload
    }

    /// Frames (or re-frames) the retained payload `seq` and puts it on
    /// the wire, applying the injector's next fault op.
    fn transmit(&mut self, seq: u32) {
        let frame = encode_frame(seq, &self.outbox[(seq - self.next_recv) as usize]);
        let op = match self.injector.as_mut() {
            Some(inj) => inj.next_op(frame.len()),
            None => FaultOp::None,
        };
        match op {
            FaultOp::None => self.push_wire(frame),
            FaultOp::Drop => {}
            FaultOp::Duplicate => {
                self.push_wire(frame.clone());
                self.push_wire(frame);
            }
            FaultOp::FlipBit { byte, bit } => {
                let mut f = frame;
                let i = byte % f.len();
                f[i] ^= 1 << (bit & 7);
                self.push_wire(f);
            }
            FaultOp::Truncate { keep } => {
                let mut f = frame;
                f.truncate(keep.min(f.len()));
                self.push_wire(f);
            }
            FaultOp::Reorder => {
                self.stats.wire_bytes += frame.len() as u64;
                self.wire.push_front(frame);
            }
        }
    }
}

impl Transport for InMemoryTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), ProtocolError> {
        self.stats.messages += 1;
        self.stats.payload_bytes += payload.len() as u64;
        self.outbox.push_back(payload.to_vec());
        self.sent += 1;
        self.transmit(self.sent - 1);
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, ProtocolError> {
        let want = self.next_recv;
        if want >= self.sent {
            return Err(ProtocolError::UnknownFrame { seq: want });
        }
        let mut attempts = 0u32;
        let mut spent_us = 0u64;
        loop {
            if let Some(p) = self.stash.remove(&want) {
                return Ok(self.deliver(p));
            }
            let Some(frame) = self.wire.pop_front() else {
                // The expected frame is gone (dropped, or consumed as a
                // corrupt arrival): re-request it from the outbox after
                // charging this attempt's backoff against the frame's
                // receive-deadline budget. The retransmission passes
                // through the injector again.
                if attempts >= self.cfg.max_retries {
                    return Err(ProtocolError::RetriesExhausted {
                        seq: want,
                        attempts,
                    });
                }
                attempts += 1;
                spent_us += self.charge_backoff(attempts);
                if spent_us > self.cfg.backoff.budget_us {
                    return Err(ProtocolError::DeadlineExceeded {
                        seq: want,
                        budget_us: self.cfg.backoff.budget_us,
                        spent_us,
                    });
                }
                self.stats.frames_retried += 1;
                self.transmit(want);
                continue;
            };
            match decode_frame(&frame, self.cfg.verify_checksums) {
                Err(_) => self.stats.faults_detected += 1,
                Ok((seq, payload)) => {
                    if seq >= self.sent {
                        // With checksums off, a flipped sequence field can
                        // forge an out-of-schedule id; treat as corruption.
                        self.stats.faults_detected += 1;
                    } else if seq == want {
                        let payload = payload.to_vec();
                        return Ok(self.deliver(payload));
                    } else if seq > want {
                        match self.stash.entry(seq) {
                            std::collections::btree_map::Entry::Vacant(e) => {
                                e.insert(payload.to_vec());
                            }
                            // Duplicate of an already-stashed frame.
                            std::collections::btree_map::Entry::Occupied(_) => {
                                self.stats.faults_detected += 1
                            }
                        }
                    } else {
                        // Duplicate of an already-delivered frame.
                        self.stats.faults_detected += 1;
                    }
                }
            }
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

/// Thread-safe handle over an [`InMemoryTransport`] so one direction of a
/// session can be driven from different worker threads.
///
/// Cloned handles share the same link state (`Arc<Mutex>`): any clone may
/// send, any clone may receive, and the full framing/recovery/fault
/// machinery of the single-threaded transport applies unchanged. Unlike
/// [`InMemoryTransport::recv`] — which errors immediately when nothing
/// was sent — `recv` here *blocks* on a condition variable until a sender
/// queues the expected message or `recv_timeout` elapses, failing typed
/// with [`ProtocolError::RecvTimeout`] so a stalled peer can never hang a
/// worker forever.
///
/// The single-threaded `InMemoryTransport` remains the fast path for
/// in-process protocol runs (no lock, no wakeups); this wrapper exists
/// for the serving layer, where sessions live on worker threads.
#[derive(Debug, Clone)]
pub struct SharedTransport {
    link: Arc<SharedLink>,
    recv_timeout: Duration,
}

#[derive(Debug)]
struct SharedLink {
    inner: Mutex<InMemoryTransport>,
    sent: Condvar,
}

impl SharedTransport {
    /// Builds the link with the default 10 s receive deadline.
    pub fn new(cfg: TransportConfig) -> Self {
        Self::with_timeout(cfg, Duration::from_secs(10))
    }

    /// Builds the link with an explicit blocking-receive deadline.
    pub fn with_timeout(cfg: TransportConfig, recv_timeout: Duration) -> Self {
        SharedTransport {
            link: Arc::new(SharedLink {
                inner: Mutex::new(InMemoryTransport::new(cfg)),
                sent: Condvar::new(),
            }),
            recv_timeout,
        }
    }

    /// A clean verifying link.
    pub fn clean() -> Self {
        Self::new(TransportConfig::default())
    }
}

impl Transport for SharedTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), ProtocolError> {
        let mut t = self.link.inner.lock().unwrap_or_else(|e| e.into_inner());
        t.send(payload)?;
        self.link.sent.notify_all();
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, ProtocolError> {
        let mut t = self.link.inner.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = Instant::now() + self.recv_timeout;
        while !t.has_pending() {
            let now = Instant::now();
            if now >= deadline {
                return Err(ProtocolError::RecvTimeout {
                    seq: t.next_recv,
                    waited_ms: self.recv_timeout.as_millis() as u64,
                });
            }
            t = self
                .link
                .sent
                .wait_timeout(t, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        t.recv()
    }

    fn stats(&self) -> TransportStats {
        self.link
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stats()
    }
}

// Compile-time guarantee that endpoints can move to worker threads: the
// serving layer parks sessions on a pool, so `Send` (and `Sync` for the
// shared handle) is part of the transport contract, not an accident.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<InMemoryTransport>();
    assert_send_sync::<SharedTransport>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads() -> Vec<Vec<u8>> {
        (0..6u8)
            .map(|i| {
                (0..40)
                    .map(|j| i.wrapping_mul(37).wrapping_add(j))
                    .collect()
            })
            .collect()
    }

    fn roundtrip(cfg: TransportConfig) -> (Vec<Vec<u8>>, TransportStats) {
        let mut t = InMemoryTransport::new(cfg);
        let sent = payloads();
        for p in &sent {
            t.send(p).unwrap();
        }
        let got: Vec<Vec<u8>> = (0..sent.len()).map(|_| t.recv().unwrap()).collect();
        (got, t.stats())
    }

    #[test]
    fn clean_link_delivers_in_order_with_exact_accounting() {
        let (got, stats) = roundtrip(TransportConfig::default());
        assert_eq!(got, payloads());
        assert_eq!(stats.messages, 6);
        assert_eq!(stats.payload_bytes, 6 * 40);
        assert_eq!(stats.wire_bytes, 6 * (40 + FRAME_HEADER_BYTES as u64));
        assert_eq!(stats.faults_detected, 0);
        assert_eq!(stats.frames_retried, 0);
    }

    #[test]
    fn every_scripted_fault_class_recovers() {
        for op in [
            FaultOp::FlipBit { byte: 21, bit: 3 },
            FaultOp::Truncate { keep: 7 },
            FaultOp::Truncate { keep: 0 },
            FaultOp::Drop,
            FaultOp::Duplicate,
            FaultOp::Reorder,
        ] {
            let cfg = TransportConfig::faulty(FaultPlan::Scripted(vec![FaultOp::None, op]));
            let (got, stats) = roundtrip(cfg);
            assert_eq!(got, payloads(), "{op:?}");
            match op {
                FaultOp::None | FaultOp::Reorder => {}
                FaultOp::Duplicate => assert!(stats.faults_detected > 0, "{op:?}"),
                FaultOp::Drop => assert!(stats.frames_retried > 0, "{op:?}"),
                _ => assert!(
                    stats.faults_detected > 0 && stats.frames_retried > 0,
                    "{op:?}: {stats:?}"
                ),
            }
        }
    }

    #[test]
    fn reordered_frames_are_stashed_not_retried() {
        // Reorder pushes frame 2 ahead of frames 0 and 1.
        let cfg = TransportConfig::faulty(FaultPlan::Scripted(vec![
            FaultOp::None,
            FaultOp::None,
            FaultOp::Reorder,
        ]));
        let (got, stats) = roundtrip(cfg);
        assert_eq!(got, payloads());
        assert_eq!(stats.frames_retried, 0, "stash should absorb reordering");
    }

    #[test]
    fn exhausted_retries_return_typed_error() {
        // Every transmission (including retransmissions) is dropped.
        let cfg = TransportConfig {
            faults: Some(FaultPlan::Random(FaultConfig {
                seed: 1,
                flip: 0.0,
                truncate: 0.0,
                drop: 1.0,
                duplicate: 0.0,
                reorder: 0.0,
            })),
            max_retries: 3,
            verify_checksums: true,
            backoff: BackoffConfig::default(),
        };
        let mut t = InMemoryTransport::new(cfg);
        t.send(b"hello").unwrap();
        assert_eq!(
            t.recv(),
            Err(ProtocolError::RetriesExhausted {
                seq: 0,
                attempts: 3
            })
        );
    }

    #[test]
    fn exhausted_deadline_budget_returns_typed_error() {
        // A generous retry cap but a budget two retries cannot fit: the
        // deadline trips first. jitter = 0 makes the charges exact
        // (100 µs + 200 µs > 250 µs on the second retry).
        let cfg = TransportConfig {
            faults: Some(FaultPlan::Random(FaultConfig {
                seed: 1,
                flip: 0.0,
                truncate: 0.0,
                drop: 1.0,
                duplicate: 0.0,
                reorder: 0.0,
            })),
            max_retries: 1000,
            verify_checksums: true,
            backoff: BackoffConfig {
                jitter: 0.0,
                ..BackoffConfig::tight(250)
            },
        };
        let mut t = InMemoryTransport::new(cfg);
        t.send(b"hello").unwrap();
        assert_eq!(
            t.recv(),
            Err(ProtocolError::DeadlineExceeded {
                seq: 0,
                budget_us: 250,
                spent_us: 300,
            })
        );
        // Only the first retry crossed the wire request path; the second
        // was charged and aborted before retransmission.
        assert_eq!(t.stats().frames_retried, 1);
        assert_eq!(t.stats().retry_backoff_us, 300);
    }

    #[test]
    fn backoff_delays_are_exponential_up_to_the_cap() {
        let b = BackoffConfig {
            base_us: 100,
            max_us: 800,
            jitter: 0.0,
            budget_us: u64::MAX,
            seed: 0,
        };
        let delays: Vec<u64> = (1..=6).map(|a| b.raw_delay_us(a)).collect();
        assert_eq!(delays, vec![100, 200, 400, 800, 800, 800]);
        // Huge attempt counts must saturate, not overflow.
        assert_eq!(b.raw_delay_us(200), 800);
    }

    #[test]
    fn jittered_backoff_charges_are_reproducible_and_bounded() {
        let charge = |seed: u64| {
            let cfg = TransportConfig {
                faults: Some(FaultPlan::Random(FaultConfig {
                    seed: 9,
                    flip: 0.0,
                    truncate: 0.0,
                    drop: 0.5,
                    duplicate: 0.0,
                    reorder: 0.0,
                })),
                max_retries: 64,
                verify_checksums: true,
                backoff: BackoffConfig {
                    seed,
                    ..BackoffConfig::default()
                },
            };
            let (got, stats) = roundtrip(cfg);
            assert_eq!(got, payloads());
            stats.retry_backoff_us
        };
        // Same jitter seed ⇒ identical virtual schedule; the charge is
        // nonzero because half the transmissions are dropped.
        let a = charge(3);
        assert!(a > 0);
        assert_eq!(a, charge(3));
        // Different jitter seeds perturb the charges but nothing else.
        let differs = (0..8).any(|s| charge(s) != a);
        assert!(differs, "jitter should vary with its seed");
    }

    #[test]
    fn receiving_beyond_the_schedule_is_an_error() {
        let mut t = InMemoryTransport::clean();
        assert_eq!(t.recv(), Err(ProtocolError::UnknownFrame { seq: 0 }));
    }

    #[test]
    fn every_single_bit_flip_in_a_frame_is_detected() {
        let payload: Vec<u8> = (0..37u8).collect();
        let frame = encode_frame(5, &payload);
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut f = frame.clone();
                f[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&f, true).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
        assert_eq!(decode_frame(&frame, true).unwrap(), (5, &payload[..]));
    }

    #[test]
    fn shared_transport_crosses_threads_and_recovers() {
        let cfg = TransportConfig::faulty(FaultPlan::Random(FaultConfig::moderate(7)));
        let mut tx = SharedTransport::with_timeout(cfg, Duration::from_secs(5));
        let mut rx = tx.clone();
        let sent = payloads();
        let expect = sent.clone();
        let sender = std::thread::spawn(move || {
            for p in &sent {
                tx.send(p).unwrap();
            }
        });
        let got: Vec<Vec<u8>> = (0..expect.len()).map(|_| rx.recv().unwrap()).collect();
        sender.join().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn shared_transport_recv_blocks_until_send() {
        let mut tx =
            SharedTransport::with_timeout(TransportConfig::default(), Duration::from_secs(5));
        let mut rx = tx.clone();
        let receiver = std::thread::spawn(move || rx.recv().unwrap());
        // The receiver parks on the condvar; a late send must wake it.
        std::thread::sleep(Duration::from_millis(20));
        tx.send(b"late").unwrap();
        assert_eq!(receiver.join().unwrap(), b"late");
    }

    #[test]
    fn shared_transport_times_out_typed() {
        let mut rx =
            SharedTransport::with_timeout(TransportConfig::default(), Duration::from_millis(30));
        assert_eq!(
            rx.recv(),
            Err(ProtocolError::RecvTimeout {
                seq: 0,
                waited_ms: 30
            })
        );
    }

    #[test]
    fn random_schedules_are_reproducible() {
        let run = |seed| {
            let cfg = TransportConfig::faulty(FaultPlan::Random(FaultConfig::moderate(seed)));
            roundtrip(cfg)
        };
        assert_eq!(run(42), run(42));
        // different seeds produce different fault accounting eventually
        let differs = (0..16).any(|s| run(s).1 != run(s + 100).1);
        assert!(differs, "fault schedules should vary with the seed");
    }

    #[test]
    fn a_long_lived_link_retains_only_the_in_flight_window() {
        // `recv` only ever re-requests `next_recv`, so every delivered
        // payload must leave the outbox: 10 000 send/recv pairs keep one
        // message in flight, on a clean link and on one faulting 5 % of
        // its frames (stale duplicates wait on the wire for the next
        // receive at most).
        let lossy = FaultConfig {
            seed: 0x0B0C,
            flip: 0.01,
            truncate: 0.01,
            drop: 0.01,
            duplicate: 0.01,
            reorder: 0.01,
        };
        for cfg in [
            TransportConfig::default(),
            TransportConfig::faulty(FaultPlan::Random(lossy)),
        ] {
            let faulty = cfg.faults.is_some();
            let mut t = InMemoryTransport::new(cfg);
            for i in 0..10_000u32 {
                let payload = i.to_le_bytes().repeat(16);
                t.send(&payload).unwrap();
                assert_eq!(t.outbox.len(), 1, "message {i}");
                assert_eq!(t.recv().unwrap(), payload, "message {i}");
                assert!(t.outbox.is_empty() && t.stash.is_empty(), "message {i}");
                assert!(
                    t.wire.len() <= 2,
                    "message {i}: {} on the wire",
                    t.wire.len()
                );
                assert!(!t.has_pending());
            }
            assert_eq!(
                t.recv(),
                Err(ProtocolError::UnknownFrame { seq: 10_000 }),
                "the schedule bound survives the release"
            );
            assert_eq!(faulty, t.stats().faults_detected > 0);
        }
    }
}
