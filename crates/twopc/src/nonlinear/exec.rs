//! Executable secret-shared non-linear layers.
//!
//! [`super`] prices the 2PC non-linear suite; this module *runs* it. Every
//! primitive operates on additive shares over [`ShareRing`] and moves its
//! messages through the same framed [`InMemoryTransport`] the convolution
//! protocol uses, so checksum verification, fault injection and the
//! retransmission state machine apply unchanged: a corrupted session
//! either recovers bit-identically (the injector draws from its own RNG)
//! or fails with a typed [`FlashError`].
//!
//! # What is real and what is emulated
//!
//! The repository does not implement oblivious transfer (see the cost
//! model's module docs). The *execution* here is therefore an OT
//! emulation: message sizes, round structure, framing, recovery and the
//! data dependence of every output share on received wire bytes are real
//! — each party's share is computed from the payloads it pulls off its
//! link — while the payload blinding uses a correlation PRG shared by
//! both simulated parties (the stand-in for the correlated randomness a
//! silent-OT offline phase would deliver). Communication is padded to the
//! [`NonlinearModel`] budget per primitive, so measured wire traffic
//! cross-checks against the analytical model instead of diverging from
//! it.
//!
//! # Primitives
//!
//! * [`NonlinearSession::drelu`] — batched millionaire-style sign test:
//!   `⌈log2 l⌉` comparison-tree rounds over bit-decomposed low parts,
//!   producing XOR shares of `[x ≥ 0]` (so `drelu(0) = 1`, which is what
//!   makes the comparison trees below keep the *first* maximal element on
//!   ties).
//! * [`NonlinearSession::b2a`] — boolean→arithmetic share conversion.
//! * [`NonlinearSession::mux`] — multiplexer select `d·x` from boolean
//!   shares of `d` and arithmetic shares of `x` (B2A + select fused, as
//!   in Cheetah).
//! * [`NonlinearSession::requant`] — the re-quantization shift
//!   (truncation), bit-exact against [`Requantizer::apply`].
//! * [`NonlinearSession::maxpool`] / [`NonlinearSession::avgpool_global`]
//!   — pooling over shares; the average divides with
//!   [`div_round_half_away`], the same rule the plaintext reference uses.
//! * [`NonlinearSession::fc`] — the final classifier layer over shares
//!   against server-held weights.
//! * [`NonlinearSession::argmax`] — first-max tournament over logit
//!   shares, revealing only the winning index.

use super::NonlinearModel;
use crate::error::{FlashError, ProtocolError};
use crate::shares::ShareRing;
use crate::transport::{FaultPlan, InMemoryTransport, Transport, TransportConfig, TransportStats};
use flash_he::matvec::matvec_reference;
use flash_nn::layers::pool_out_dims;
use flash_nn::quant::{div_round_half_away, Requantizer};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Uplink (client → server) fault-seed salt for the non-linear session.
const NL_UP_SALT: u64 = 0x6e6c_5f75_706c_696e;
/// Downlink (server → client) fault-seed salt.
const NL_DOWN_SALT: u64 = 0x6e6c_5f64_6f77_6e6c;

/// Cumulative accounting of one non-linear session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NonlinearStats {
    /// Elements pushed through the DReLU comparison (the `relu_elems`
    /// telemetry counter).
    pub relu_elems: u64,
    /// Comparison-tree rounds executed across all DReLU batches.
    pub compare_rounds: u64,
    /// Framed messages exchanged (both directions).
    pub messages: u64,
    /// Payload bytes exchanged (both directions, headers excluded).
    pub payload_bytes: u64,
    /// Framed bytes on the wire, headers/checksums/retransmissions
    /// included.
    pub wire_bytes: u64,
    /// Corrupt/duplicate/forged frames the transports rejected.
    pub faults_detected: u64,
    /// Retransmissions the transports requested.
    pub frames_retried: u64,
}

impl NonlinearStats {
    /// Field-wise difference against an earlier snapshot of the same
    /// session: the cost of whatever ran in between. Counters are
    /// monotone, so every field of `earlier` must be ≤ the corresponding
    /// field here.
    #[must_use]
    pub fn since(&self, earlier: &NonlinearStats) -> NonlinearStats {
        NonlinearStats {
            relu_elems: self.relu_elems - earlier.relu_elems,
            compare_rounds: self.compare_rounds - earlier.compare_rounds,
            messages: self.messages - earlier.messages,
            payload_bytes: self.payload_bytes - earlier.payload_bytes,
            wire_bytes: self.wire_bytes - earlier.wire_bytes,
            faults_detected: self.faults_detected - earlier.faults_detected,
            frames_retried: self.frames_retried - earlier.frames_retried,
        }
    }
}

/// One 2PC non-linear session: a pair of framed links plus the
/// correlation PRG, held across primitive invocations so a whole
/// network's non-linear stages share one wire state and one statistics
/// stream.
#[derive(Debug)]
pub struct NonlinearSession {
    ring: ShareRing,
    model: NonlinearModel,
    up: InMemoryTransport,
    down: InMemoryTransport,
    /// The shared correlation stream (the emulated silent-OT offline
    /// phase). Blinds every payload; both simulated parties derive the
    /// same pads from it.
    pads: StdRng,
    relu_elems: u64,
    compare_rounds: u64,
}

impl NonlinearSession {
    /// Opens a session over `ring` with the given wire configuration.
    /// Random fault plans are salted per direction so uplink and downlink
    /// draw independent schedules. `correlation_seed` seeds the shared
    /// pad stream (any fixed value reproduces the session bit-exactly).
    pub fn new(ring: ShareRing, transport: TransportConfig, correlation_seed: u64) -> Self {
        let direction = |mut cfg: TransportConfig, salt: u64| {
            if let Some(FaultPlan::Random(rc)) = &mut cfg.faults {
                rc.seed ^= salt;
            }
            cfg
        };
        Self {
            ring,
            model: NonlinearModel::cheetah(ring.bits()),
            up: InMemoryTransport::new(direction(transport.clone(), NL_UP_SALT)),
            down: InMemoryTransport::new(direction(transport, NL_DOWN_SALT)),
            pads: StdRng::seed_from_u64(correlation_seed),
            relu_elems: 0,
            compare_rounds: 0,
        }
    }

    /// The share ring.
    pub fn ring(&self) -> ShareRing {
        self.ring
    }

    /// The cost model this session's traffic is padded to.
    pub fn model(&self) -> NonlinearModel {
        self.model
    }

    /// Cumulative session statistics.
    pub fn stats(&self) -> NonlinearStats {
        let wire: TransportStats = self.up.stats().merge(self.down.stats());
        NonlinearStats {
            relu_elems: self.relu_elems,
            compare_rounds: self.compare_rounds,
            messages: wire.messages,
            payload_bytes: wire.payload_bytes,
            wire_bytes: wire.wire_bytes,
            faults_detected: wire.faults_detected,
            frames_retried: wire.frames_retried,
        }
    }

    /// Sends `payload` padded with correlation filler up to `target`
    /// bytes (real content always survives; the filler models the OT
    /// payload columns of a batched silent-OT extension).
    fn send_padded(
        link: &mut InMemoryTransport,
        pads: &mut StdRng,
        mut payload: Vec<u8>,
        target: usize,
    ) -> Result<(), ProtocolError> {
        while payload.len() < target {
            payload.push(pads.next_u32() as u8);
        }
        link.send(&payload)
    }

    fn send_up(&mut self, payload: Vec<u8>, target: usize) -> Result<(), ProtocolError> {
        Self::send_padded(&mut self.up, &mut self.pads, payload, target)
    }

    fn send_down(&mut self, payload: Vec<u8>, target: usize) -> Result<(), ProtocolError> {
        Self::send_padded(&mut self.down, &mut self.pads, payload, target)
    }

    /// Batched DReLU: XOR shares `(dc, ds)` of `[to_signed(x) ≥ 0]` for
    /// every shared element. Runs the `⌈log2 l⌉`-round comparison tree of
    /// the cost model; traffic is padded to its per-element budget.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Protocol`] when the wire cannot recover a
    /// frame within its retry budget.
    pub fn drelu<R: Rng>(
        &mut self,
        xc: &[u64],
        xs: &[u64],
        rng: &mut R,
    ) -> Result<(Vec<u8>, Vec<u8>), FlashError> {
        assert_eq!(xc.len(), xs.len(), "share length mismatch");
        let n = xc.len();
        if n == 0 {
            return Ok((Vec::new(), Vec::new()));
        }
        let wire_before = self.wire_payload_bytes();
        let l = self.ring.bits();
        let low_bits = l - 1;
        let low_mask = if low_bits == 0 {
            0
        } else {
            (1u64 << low_bits) - 1
        };
        let rounds = self.model.compare.rounds.max(1) as usize;
        let budget = (self.model.compare.bytes_per_elem * n as f64 / 2.0).ceil() as usize;
        let per_round = budget.div_ceil(rounds);

        // --- Client: blind its msb bits and low-part digit table with
        // correlation pads and stream them across the tree rounds.
        let msb_c: Vec<u8> = xc.iter().map(|&v| ((v >> low_bits) & 1) as u8).collect();
        let low_c: Vec<u64> = xc.iter().map(|&v| v & low_mask).collect();
        let msb_pad: Vec<u8> = (0..n).map(|_| (self.pads.next_u32() & 1) as u8).collect();
        let low_pad: Vec<u64> = (0..n).map(|_| self.pads.next_u64() & low_mask).collect();
        let mut table = pack_bits(
            &msb_c
                .iter()
                .zip(&msb_pad)
                .map(|(&b, &p)| b ^ p)
                .collect::<Vec<u8>>(),
        );
        table.extend(pack_ring(
            &low_c
                .iter()
                .zip(&low_pad)
                .map(|(&v, &p)| v ^ p)
                .collect::<Vec<u64>>(),
            low_bits.max(1),
        ));
        let chunk = table.len().div_ceil(rounds);

        // --- The tree: each round one uplink chunk of the table and one
        // downlink mask vector; the XOR of the downlink masks is the
        // client's output share, so both shares are functions of
        // received bytes.
        let mut received_table = Vec::with_capacity(table.len());
        let mut dc = vec![0u8; n];
        let mut ds_mask = vec![0u8; n];
        for r in 0..rounds {
            let lo = (r * chunk).min(table.len());
            let hi = ((r + 1) * chunk).min(table.len());
            self.send_up(table[lo..hi].to_vec(), per_round)?;
            let up_bytes = self.up.recv()?;
            received_table.extend_from_slice(&up_bytes[..hi - lo]);

            let round_mask: Vec<u8> = (0..n).map(|_| (rng.next_u32() & 1) as u8).collect();
            for (m, &b) in ds_mask.iter_mut().zip(&round_mask) {
                *m ^= b;
            }
            self.send_down(pack_bits(&round_mask), per_round)?;
            let down_bytes = self.down.recv()?;
            let got = unpack_bits(&down_bytes, n);
            for (d, b) in dc.iter_mut().zip(got) {
                *d ^= b;
            }
        }
        self.compare_rounds += rounds as u64;
        self.relu_elems += n as u64;

        // --- Server: unblind the received table, run the comparison and
        // derive its XOR share from the mask stream it generated.
        let recv_msb = unpack_bits(&received_table[..n.div_ceil(8)], n);
        let recv_low = unpack_ring(&received_table[n.div_ceil(8)..], n, low_bits.max(1));
        let mut ds = vec![0u8; n];
        for i in 0..n {
            let m_c = recv_msb[i] ^ msb_pad[i];
            let l_c = recv_low[i] ^ low_pad[i];
            let m_s = ((xs[i] >> low_bits) & 1) as u8;
            let l_s = xs[i] & low_mask;
            let carry = if low_bits == 0 {
                0
            } else {
                u8::from(l_c + l_s >= (1u64 << low_bits))
            };
            let msb = m_c ^ m_s ^ carry;
            ds[i] = (1 ^ msb) ^ ds_mask[i];
        }

        flash_telemetry::counter!("twopc.relu_elems").add(n as u64);
        flash_telemetry::counter!("twopc.compare_rounds").add(rounds as u64);
        self.count_bytes(wire_before);
        Ok((dc, ds))
    }

    /// Boolean → arithmetic conversion: XOR shares of a bit become
    /// additive ring shares of the same bit.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Protocol`] on unrecoverable wire failures.
    pub fn b2a<R: Rng>(
        &mut self,
        dc: &[u8],
        ds: &[u8],
        rng: &mut R,
    ) -> Result<(Vec<u64>, Vec<u64>), FlashError> {
        assert_eq!(dc.len(), ds.len(), "share length mismatch");
        let n = dc.len();
        if n == 0 {
            return Ok((Vec::new(), Vec::new()));
        }
        let wire_before = self.wire_payload_bytes();
        let l = self.ring.bits();
        // Half the select budget: B2A is one of the mux's two OT flows.
        let budget = (self.model.select.bytes_per_elem * n as f64 / 4.0).ceil() as usize;

        let bit_pad: Vec<u8> = (0..n).map(|_| (self.pads.next_u32() & 1) as u8).collect();
        let blinded: Vec<u8> = dc.iter().zip(&bit_pad).map(|(&b, &p)| b ^ p).collect();
        self.send_up(pack_bits(&blinded), budget.max(n.div_ceil(8)))?;
        let up_bytes = self.up.recv()?;
        let recv_dc = unpack_bits(&up_bytes, n);

        let mut as_server = Vec::with_capacity(n);
        let mut down_payload = Vec::with_capacity(n);
        let val_pad: Vec<u64> = (0..n)
            .map(|_| self.pads.next_u64() & (self.ring.modulus() - 1))
            .collect();
        for i in 0..n {
            let d = (recv_dc[i] ^ bit_pad[i] ^ ds[i]) as u64;
            let mask = rng.gen_range(0..self.ring.modulus());
            as_server.push(mask);
            down_payload.push(self.ring.add(self.ring.sub(d, mask), val_pad[i]));
        }
        let need = n * bytes_per_value(l);
        self.send_down(pack_ring(&down_payload, l), budget.max(need))?;
        let down_bytes = self.down.recv()?;
        let recv_vals = unpack_ring(&down_bytes[..need], n, l);
        let as_client: Vec<u64> = recv_vals
            .iter()
            .zip(&val_pad)
            .map(|(&v, &p)| self.ring.sub(v, p))
            .collect();

        self.count_bytes(wire_before);
        Ok((as_client, as_server))
    }

    /// Multiplexer select: from XOR shares of `d ∈ {0,1}` and additive
    /// shares of `x`, produces additive shares of `d · x` (B2A + select
    /// fused; the per-element traffic is the cost model's `select`
    /// budget).
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Protocol`] on unrecoverable wire failures.
    pub fn mux<R: Rng>(
        &mut self,
        dc: &[u8],
        ds: &[u8],
        xc: &[u64],
        xs: &[u64],
        rng: &mut R,
    ) -> Result<(Vec<u64>, Vec<u64>), FlashError> {
        assert_eq!(dc.len(), xc.len(), "bit/value length mismatch");
        assert_eq!(xc.len(), xs.len(), "share length mismatch");
        assert_eq!(dc.len(), ds.len(), "bit share length mismatch");
        let n = xc.len();
        if n == 0 {
            return Ok((Vec::new(), Vec::new()));
        }
        let wire_before = self.wire_payload_bytes();
        let l = self.ring.bits();
        let budget = (self.model.select.bytes_per_elem * n as f64 / 2.0).ceil() as usize;

        // --- Client: one uplink message carrying its blinded bit and
        // value shares.
        let bit_pad: Vec<u8> = (0..n).map(|_| (self.pads.next_u32() & 1) as u8).collect();
        let val_pad: Vec<u64> = (0..n)
            .map(|_| self.pads.next_u64() & (self.ring.modulus() - 1))
            .collect();
        let mut payload = pack_bits(
            &dc.iter()
                .zip(&bit_pad)
                .map(|(&b, &p)| b ^ p)
                .collect::<Vec<u8>>(),
        );
        payload.extend(pack_ring(
            &xc.iter()
                .zip(&val_pad)
                .map(|(&v, &p)| self.ring.add(v, p))
                .collect::<Vec<u64>>(),
            l,
        ));
        self.send_up(payload, budget)?;
        let up_bytes = self.up.recv()?;
        let bits_len = n.div_ceil(8);
        let recv_dc = unpack_bits(&up_bytes[..bits_len], n);
        let recv_xc = unpack_ring(&up_bytes[bits_len..bits_len + n * bytes_per_value(l)], n, l);

        // --- Server: select, re-share with a fresh mask, return the
        // client's blinded share.
        let out_pad: Vec<u64> = (0..n)
            .map(|_| self.pads.next_u64() & (self.ring.modulus() - 1))
            .collect();
        let mut ys = Vec::with_capacity(n);
        let mut down_payload = Vec::with_capacity(n);
        for i in 0..n {
            let d = recv_dc[i] ^ bit_pad[i] ^ ds[i];
            let x = self.ring.add(self.ring.sub(recv_xc[i], val_pad[i]), xs[i]);
            let y = if d == 1 { x } else { 0 };
            let mask = rng.gen_range(0..self.ring.modulus());
            ys.push(mask);
            down_payload.push(self.ring.add(self.ring.sub(y, mask), out_pad[i]));
        }
        self.send_down(pack_ring(&down_payload, l), budget)?;
        let down_bytes = self.down.recv()?;
        let recv_y = unpack_ring(&down_bytes[..n * bytes_per_value(l)], n, l);
        let yc: Vec<u64> = recv_y
            .iter()
            .zip(&out_pad)
            .map(|(&v, &p)| self.ring.sub(v, p))
            .collect();

        self.count_bytes(wire_before);
        Ok((yc, ys))
    }

    /// ReLU over additive shares: DReLU then mux.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Protocol`] on unrecoverable wire failures.
    pub fn relu<R: Rng>(
        &mut self,
        xc: &[u64],
        xs: &[u64],
        rng: &mut R,
    ) -> Result<(Vec<u64>, Vec<u64>), FlashError> {
        let (dc, ds) = self.drelu(xc, xs, rng)?;
        self.mux(&dc, &ds, xc, xs, rng)
    }

    /// Probabilistic-truncation slot of the protocol: the
    /// re-quantization shift over shares, bit-exact against
    /// [`Requantizer::apply`] (shift rounding half away from zero, then
    /// clamp to the output width) so the private path and the plaintext
    /// reference can never drift by an LSB.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Protocol`] on unrecoverable wire failures.
    pub fn requant<R: Rng>(
        &mut self,
        xc: &[u64],
        xs: &[u64],
        rq: Requantizer,
        rng: &mut R,
    ) -> Result<(Vec<u64>, Vec<u64>), FlashError> {
        self.reshare_map(xc, xs, self.model.truncation.bytes_per_elem, rng, |v| {
            rq.apply(v)
        })
    }

    /// ReLU followed by re-quantization — one conv layer's complete
    /// non-linear stage.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Protocol`] on unrecoverable wire failures.
    pub fn relu_requant<R: Rng>(
        &mut self,
        xc: &[u64],
        xs: &[u64],
        rq: Requantizer,
        rng: &mut R,
    ) -> Result<(Vec<u64>, Vec<u64>), FlashError> {
        let (yc, ys) = self.relu(xc, xs, rng)?;
        self.requant(&yc, &ys, rq, rng)
    }

    /// Max pooling over shares: a left-biased pairwise tournament of
    /// DReLU + mux per tree level, batched over every window. Ties keep
    /// the earlier (first) element — `drelu(a − b) = 1` when `a = b`.
    /// Out-of-bounds (padded) positions contribute the after-ReLU
    /// identity 0.
    ///
    /// Comparison semantics assume window differences stay inside
    /// `[-2^{l-1}, 2^{l-1})`, the same range contract the share ring's
    /// signed reading has.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Protocol`] on unrecoverable wire failures.
    ///
    /// # Panics
    ///
    /// Panics when the share length does not match `c·h·w`, and where
    /// [`pool_out_dims`] does.
    #[allow(clippy::too_many_arguments)]
    pub fn maxpool<R: Rng>(
        &mut self,
        xc: &[u64],
        xs: &[u64],
        (c, h, w): (usize, usize, usize),
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Result<(Vec<u64>, Vec<u64>), FlashError> {
        assert_eq!(xc.len(), c * h * w, "input size mismatch");
        assert_eq!(xc.len(), xs.len(), "share length mismatch");
        let (oh, ow) = pool_out_dims(h, w, k, stride, pad);
        // One candidate list per window, earliest-first so the
        // tournament's tie-breaking matches the first-max reference.
        let mut windows: Vec<Vec<(u64, u64)>> = Vec::with_capacity(c * oh * ow);
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut cand = Vec::with_capacity(k * k);
                    for dy in 0..k {
                        for dx in 0..k {
                            let iy = (oy * stride + dy) as isize - pad as isize;
                            let ix = (ox * stride + dx) as isize - pad as isize;
                            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                let idx = (ch * h + iy as usize) * w + ix as usize;
                                cand.push((xc[idx], xs[idx]));
                            } else {
                                cand.push((0, 0));
                            }
                        }
                    }
                    windows.push(cand);
                }
            }
        }
        while windows.iter().any(|c| c.len() > 1) {
            // Batch every pair of every window into one DReLU/mux pass.
            let mut ac = Vec::new();
            let mut asrv = Vec::new();
            let mut bc = Vec::new();
            let mut bsrv = Vec::new();
            for cand in &windows {
                for pair in cand.chunks(2) {
                    if let [a, b] = pair {
                        ac.push(a.0);
                        asrv.push(a.1);
                        bc.push(b.0);
                        bsrv.push(b.1);
                    }
                }
            }
            let diff_c: Vec<u64> = ac
                .iter()
                .zip(&bc)
                .map(|(&a, &b)| self.ring.sub(a, b))
                .collect();
            let diff_s: Vec<u64> = asrv
                .iter()
                .zip(&bsrv)
                .map(|(&a, &b)| self.ring.sub(a, b))
                .collect();
            let (dc, ds) = self.drelu(&diff_c, &diff_s, rng)?;
            let (mc, ms) = self.mux(&dc, &ds, &diff_c, &diff_s, rng)?;
            // max(a, b) = b + d·(a − b), share-wise.
            let mut cursor = 0;
            for cand in windows.iter_mut() {
                let mut next = Vec::with_capacity(cand.len().div_ceil(2));
                for pair in cand.chunks(2) {
                    match pair {
                        [_, b] => {
                            next.push((
                                self.ring.add(b.0, mc[cursor]),
                                self.ring.add(b.1, ms[cursor]),
                            ));
                            cursor += 1;
                        }
                        [only] => next.push(*only),
                        _ => unreachable!("chunks(2)"),
                    }
                }
                *cand = next;
            }
        }
        let mut yc = Vec::with_capacity(windows.len());
        let mut ys = Vec::with_capacity(windows.len());
        for cand in &windows {
            yc.push(cand[0].0);
            ys.push(cand[0].1);
        }
        Ok((yc, ys))
    }

    /// Global average pooling over shares: per-channel sums are local
    /// (linear), the division re-shares interactively and rounds with
    /// [`div_round_half_away`] — the identical rule the requantizer and
    /// the fixed plaintext reference use.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Protocol`] on unrecoverable wire failures.
    ///
    /// # Panics
    ///
    /// Panics when the share length does not match `channels·spatial` or
    /// `spatial` is zero.
    pub fn avgpool_global<R: Rng>(
        &mut self,
        xc: &[u64],
        xs: &[u64],
        channels: usize,
        spatial: usize,
        rng: &mut R,
    ) -> Result<(Vec<u64>, Vec<u64>), FlashError> {
        assert!(spatial > 0, "empty pooling window");
        assert_eq!(xc.len(), channels * spatial, "input size mismatch");
        assert_eq!(xc.len(), xs.len(), "share length mismatch");
        let sum = |shares: &[u64]| -> Vec<u64> {
            (0..channels)
                .map(|c| {
                    shares[c * spatial..(c + 1) * spatial]
                        .iter()
                        .fold(0u64, |acc, &v| self.ring.add(acc, v))
                })
                .collect()
        };
        let (sc, ss) = (sum(xc), sum(xs));
        self.reshare_map(&sc, &ss, self.model.truncation.bytes_per_elem, rng, |v| {
            div_round_half_away(v, spatial as i64)
        })
    }

    /// The final fully-connected layer over shares: the server holds the
    /// row-major `no×ni` weight matrix; the products re-share through the
    /// wire and the output stays secret-shared for the argmax.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Protocol`] on unrecoverable wire failures.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn fc<R: Rng>(
        &mut self,
        xc: &[u64],
        xs: &[u64],
        weights: &[i64],
        ni: usize,
        no: usize,
        rng: &mut R,
    ) -> Result<(Vec<u64>, Vec<u64>), FlashError> {
        assert_eq!(xc.len(), ni, "input dimension mismatch");
        assert_eq!(xc.len(), xs.len(), "share length mismatch");
        assert_eq!(weights.len(), ni * no, "matrix size mismatch");
        let wire_before = self.wire_payload_bytes();
        let l = self.ring.bits();

        let val_pad: Vec<u64> = (0..ni)
            .map(|_| self.pads.next_u64() & (self.ring.modulus() - 1))
            .collect();
        let blinded: Vec<u64> = xc
            .iter()
            .zip(&val_pad)
            .map(|(&v, &p)| self.ring.add(v, p))
            .collect();
        self.send_up(pack_ring(&blinded, l), ni * bytes_per_value(l))?;
        let up_bytes = self.up.recv()?;
        let recv_xc = unpack_ring(&up_bytes[..ni * bytes_per_value(l)], ni, l);

        let x_signed: Vec<i64> = recv_xc
            .iter()
            .zip(&val_pad)
            .zip(xs)
            .map(|((&v, &p), &s)| self.ring.to_signed(self.ring.add(self.ring.sub(v, p), s)))
            .collect();
        let y = matvec_reference(weights, &x_signed, ni, no);
        let out_pad: Vec<u64> = (0..no)
            .map(|_| self.pads.next_u64() & (self.ring.modulus() - 1))
            .collect();
        let mut ys = Vec::with_capacity(no);
        let mut down_payload = Vec::with_capacity(no);
        for (i, &v) in y.iter().enumerate() {
            let mask = rng.gen_range(0..self.ring.modulus());
            ys.push(mask);
            down_payload.push(
                self.ring
                    .add(self.ring.sub(self.ring.reduce(v), mask), out_pad[i]),
            );
        }
        self.send_down(pack_ring(&down_payload, l), no * bytes_per_value(l))?;
        let down_bytes = self.down.recv()?;
        let recv_y = unpack_ring(&down_bytes[..no * bytes_per_value(l)], no, l);
        let yc: Vec<u64> = recv_y
            .iter()
            .zip(&out_pad)
            .map(|(&v, &p)| self.ring.sub(v, p))
            .collect();

        self.count_bytes(wire_before);
        Ok((yc, ys))
    }

    /// Secure argmax over logit shares: a left-biased tournament carrying
    /// `(value, index)` share pairs, so on tied logits the *first*
    /// maximal index wins — the semantics the fixed plaintext reference
    /// pins. Only the winning index is revealed.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Protocol`] on unrecoverable wire failures.
    ///
    /// # Panics
    ///
    /// Panics on empty logits.
    pub fn argmax<R: Rng>(
        &mut self,
        xc: &[u64],
        xs: &[u64],
        rng: &mut R,
    ) -> Result<usize, FlashError> {
        assert!(!xc.is_empty(), "non-empty logits");
        assert_eq!(xc.len(), xs.len(), "share length mismatch");
        // (value client/server, index client/server)
        let mut cand: Vec<(u64, u64, u64, u64)> = xc
            .iter()
            .zip(xs)
            .enumerate()
            .map(|(i, (&c, &s))| (c, s, self.ring.reduce(i as i64), 0))
            .collect();
        while cand.len() > 1 {
            let mut diff_vc = Vec::new();
            let mut diff_vs = Vec::new();
            let mut diff_ic = Vec::new();
            let mut diff_is = Vec::new();
            for pair in cand.chunks(2) {
                if let [a, b] = pair {
                    diff_vc.push(self.ring.sub(a.0, b.0));
                    diff_vs.push(self.ring.sub(a.1, b.1));
                    diff_ic.push(self.ring.sub(a.2, b.2));
                    diff_is.push(self.ring.sub(a.3, b.3));
                }
            }
            let (dc, ds) = self.drelu(&diff_vc, &diff_vs, rng)?;
            let (vmc, vms) = self.mux(&dc, &ds, &diff_vc, &diff_vs, rng)?;
            let (imc, ims) = self.mux(&dc, &ds, &diff_ic, &diff_is, rng)?;
            let mut next = Vec::with_capacity(cand.len().div_ceil(2));
            let mut cursor = 0;
            for pair in cand.chunks(2) {
                match pair {
                    [_, b] => {
                        next.push((
                            self.ring.add(b.0, vmc[cursor]),
                            self.ring.add(b.1, vms[cursor]),
                            self.ring.add(b.2, imc[cursor]),
                            self.ring.add(b.3, ims[cursor]),
                        ));
                        cursor += 1;
                    }
                    [only] => next.push(*only),
                    _ => unreachable!("chunks(2)"),
                }
            }
            cand = next;
        }
        // Reveal the index: each side contributes its share over its
        // link; the reconstruction reads both off the wire.
        let wire_before = self.wire_payload_bytes();
        let l = self.ring.bits();
        let winner = cand[0];
        self.send_up(pack_ring(&[winner.2], l), bytes_per_value(l))?;
        let up_bytes = self.up.recv()?;
        let idx_c = unpack_ring(&up_bytes[..bytes_per_value(l)], 1, l)[0];
        self.send_down(pack_ring(&[winner.3], l), bytes_per_value(l))?;
        let down_bytes = self.down.recv()?;
        let idx_s = unpack_ring(&down_bytes[..bytes_per_value(l)], 1, l)[0];
        self.count_bytes(wire_before);
        let idx = self.ring.to_signed(self.ring.add(idx_c, idx_s));
        assert!(
            idx >= 0 && (idx as usize) < xc.len(),
            "revealed argmax index {idx} out of range"
        );
        Ok(idx as usize)
    }

    /// Interactive element-wise map: the client's blinded shares go up,
    /// the server reconstructs, applies `f` to the signed value, and
    /// re-shares with fresh masks. The skeleton of the truncation-style
    /// primitives (requant, average-pool division); traffic is padded to
    /// `bytes_per_elem · n`.
    fn reshare_map<R: Rng>(
        &mut self,
        xc: &[u64],
        xs: &[u64],
        bytes_per_elem: f64,
        rng: &mut R,
        f: impl Fn(i64) -> i64,
    ) -> Result<(Vec<u64>, Vec<u64>), FlashError> {
        assert_eq!(xc.len(), xs.len(), "share length mismatch");
        let n = xc.len();
        if n == 0 {
            return Ok((Vec::new(), Vec::new()));
        }
        let wire_before = self.wire_payload_bytes();
        let l = self.ring.bits();
        let budget = (bytes_per_elem * n as f64 / 2.0).ceil() as usize;
        let need = n * bytes_per_value(l);

        let val_pad: Vec<u64> = (0..n)
            .map(|_| self.pads.next_u64() & (self.ring.modulus() - 1))
            .collect();
        let blinded: Vec<u64> = xc
            .iter()
            .zip(&val_pad)
            .map(|(&v, &p)| self.ring.add(v, p))
            .collect();
        self.send_up(pack_ring(&blinded, l), budget.max(need))?;
        let up_bytes = self.up.recv()?;
        let recv_xc = unpack_ring(&up_bytes[..need], n, l);

        let out_pad: Vec<u64> = (0..n)
            .map(|_| self.pads.next_u64() & (self.ring.modulus() - 1))
            .collect();
        let mut ys = Vec::with_capacity(n);
        let mut down_payload = Vec::with_capacity(n);
        for i in 0..n {
            let x = self
                .ring
                .to_signed(self.ring.add(self.ring.sub(recv_xc[i], val_pad[i]), xs[i]));
            let y = self.ring.reduce(f(x));
            let mask = rng.gen_range(0..self.ring.modulus());
            ys.push(mask);
            down_payload.push(self.ring.add(self.ring.sub(y, mask), out_pad[i]));
        }
        self.send_down(pack_ring(&down_payload, l), budget.max(need))?;
        let down_bytes = self.down.recv()?;
        let recv_y = unpack_ring(&down_bytes[..need], n, l);
        let yc: Vec<u64> = recv_y
            .iter()
            .zip(&out_pad)
            .map(|(&v, &p)| self.ring.sub(v, p))
            .collect();

        self.count_bytes(wire_before);
        Ok((yc, ys))
    }

    fn wire_payload_bytes(&self) -> u64 {
        self.up.stats().payload_bytes + self.down.stats().payload_bytes
    }

    fn count_bytes(&self, wire_before: u64) {
        let delta = self.wire_payload_bytes() - wire_before;
        flash_telemetry::counter!("twopc.nonlinear_bytes").add(delta);
    }
}

/// Bytes needed for one `l`-bit ring value (byte-aligned packing).
fn bytes_per_value(l: u32) -> usize {
    (l as usize).div_ceil(8)
}

/// Packs ring values into little-endian `⌈l/8⌉`-byte slots.
fn pack_ring(vals: &[u64], l: u32) -> Vec<u8> {
    let bpv = bytes_per_value(l);
    let mut out = Vec::with_capacity(vals.len() * bpv);
    for &v in vals {
        out.extend_from_slice(&v.to_le_bytes()[..bpv]);
    }
    out
}

/// Unpacks `n` ring values; the slice must hold at least `n·⌈l/8⌉` bytes.
fn unpack_ring(bytes: &[u8], n: usize, l: u32) -> Vec<u64> {
    let bpv = bytes_per_value(l);
    assert!(bytes.len() >= n * bpv, "ring payload too short");
    (0..n)
        .map(|i| {
            let mut buf = [0u8; 8];
            buf[..bpv].copy_from_slice(&bytes[i * bpv..(i + 1) * bpv]);
            u64::from_le_bytes(buf)
        })
        .collect()
}

/// Packs bits (`0`/`1` bytes) eight per byte, LSB first.
fn pack_bits(bits: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        out[i / 8] |= (b & 1) << (i % 8);
    }
    out
}

/// Unpacks `n` bits; the slice must hold at least `⌈n/8⌉` bytes.
fn unpack_bits(bytes: &[u8], n: usize) -> Vec<u8> {
    assert!(bytes.len() >= n.div_ceil(8), "bit payload too short");
    (0..n).map(|i| (bytes[i / 8] >> (i % 8)) & 1).collect()
}

/// The plaintext max-pooling reference the shared execution is checked
/// against (same window/padding rule: pad positions contribute 0, the
/// after-ReLU identity). Lives in `flash_nn` so plaintext network
/// references can use it without depending on this crate.
pub use flash_nn::layers::maxpool_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{FaultConfig, FaultOp};

    fn session(l: u32) -> NonlinearSession {
        NonlinearSession::new(ShareRing::new(l), TransportConfig::default(), 7)
    }

    fn share(ring: ShareRing, x: &[i64], rng: &mut StdRng) -> (Vec<u64>, Vec<u64>) {
        ring.share_vec(x, rng)
    }

    #[test]
    fn drelu_matches_sign_reference() {
        let mut s = session(16);
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<i64> = vec![0, 1, -1, 5, -5, 32767, -32768, 1234, -4321];
        let (xc, xs) = share(s.ring(), &x, &mut rng);
        let (dc, ds) = s.drelu(&xc, &xs, &mut rng).unwrap();
        for (i, &v) in x.iter().enumerate() {
            assert_eq!((dc[i] ^ ds[i]) as i64, i64::from(v >= 0), "x={v}");
        }
        let st = s.stats();
        assert_eq!(st.relu_elems, x.len() as u64);
        assert_eq!(st.compare_rounds, 4); // ceil(log2 16)
        assert!(st.payload_bytes > 0 && st.wire_bytes > st.payload_bytes);
    }

    #[test]
    fn relu_matches_reference() {
        let mut s = session(21);
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<i64> = (-40..40).map(|v| v * 13).collect();
        let (xc, xs) = share(s.ring(), &x, &mut rng);
        let (yc, ys) = s.relu(&xc, &xs, &mut rng).unwrap();
        let got = s.ring().reconstruct_vec(&yc, &ys);
        let want: Vec<i64> = x.iter().map(|&v| v.max(0)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn requant_matches_requantizer_apply() {
        let mut s = session(21);
        let mut rng = StdRng::seed_from_u64(3);
        let rq = Requantizer {
            shift: 5,
            out_bits: 4,
        };
        let x: Vec<i64> = (-300..300).map(|v| v * 7).collect();
        let (xc, xs) = share(s.ring(), &x, &mut rng);
        let (yc, ys) = s.requant(&xc, &xs, rq, &mut rng).unwrap();
        let got = s.ring().reconstruct_vec(&yc, &ys);
        let want: Vec<i64> = x.iter().map(|&v| rq.apply(v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn b2a_converts_bit_shares() {
        let mut s = session(16);
        let mut rng = StdRng::seed_from_u64(4);
        let dc = vec![0u8, 1, 1, 0, 1];
        let ds = vec![0u8, 1, 0, 1, 0];
        let (ac, asrv) = s.b2a(&dc, &ds, &mut rng).unwrap();
        let got = s.ring().reconstruct_vec(&ac, &asrv);
        let want: Vec<i64> = dc.iter().zip(&ds).map(|(&c, &d)| (c ^ d) as i64).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn maxpool_first_max_on_ties() {
        let mut s = session(16);
        let mut rng = StdRng::seed_from_u64(5);
        // one channel, 2x2 window over 2x2 input: all equal -> max is the
        // value; mixed signs select the max
        let x = vec![4, 4, 4, 4, -3, 7, 7, -9];
        let (xc, xs) = share(s.ring(), &x, &mut rng);
        let (yc, ys) = s.maxpool(&xc, &xs, (2, 2, 2), 2, 2, 0, &mut rng).unwrap();
        let got = s.ring().reconstruct_vec(&yc, &ys);
        assert_eq!(got, maxpool_reference(&x, (2, 2, 2), 2, 2, 0));
        assert_eq!(got, vec![4, 7]);
    }

    #[test]
    #[should_panic(expected = "pooling window 5 exceeds the padded 2x4 plane (pad 1)")]
    fn maxpool_names_an_oversized_window() {
        let mut s = session(16);
        let mut rng = StdRng::seed_from_u64(5);
        let _ = s.maxpool(&[0; 8], &[0; 8], (1, 2, 4), 5, 1, 1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "pooling stride must be positive")]
    fn maxpool_names_a_zero_stride() {
        let mut s = session(16);
        let mut rng = StdRng::seed_from_u64(5);
        let _ = s.maxpool(&[0; 4], &[0; 4], (1, 2, 2), 2, 0, 0, &mut rng);
    }

    #[test]
    fn avgpool_rounds_like_requantizer() {
        let mut s = session(16);
        let mut rng = StdRng::seed_from_u64(6);
        // channel sums 7 and -7 over 2 positions: nearest-away gives 4, -4
        let x = vec![3, 4, -3, -4];
        let (xc, xs) = share(s.ring(), &x, &mut rng);
        let (yc, ys) = s.avgpool_global(&xc, &xs, 2, 2, &mut rng).unwrap();
        let got = s.ring().reconstruct_vec(&yc, &ys);
        assert_eq!(got, vec![4, -4]);
    }

    #[test]
    fn fc_matches_matvec_reference() {
        let mut s = session(21);
        let mut rng = StdRng::seed_from_u64(7);
        let (ni, no) = (6, 3);
        let x: Vec<i64> = (0..ni as i64).map(|i| i * 3 - 7).collect();
        let w: Vec<i64> = (0..(ni * no) as i64).map(|i| (i % 5) - 2).collect();
        let (xc, xs) = share(s.ring(), &x, &mut rng);
        let (yc, ys) = s.fc(&xc, &xs, &w, ni, no, &mut rng).unwrap();
        let got = s.ring().reconstruct_vec(&yc, &ys);
        assert_eq!(got, matvec_reference(&w, &x, ni, no));
    }

    #[test]
    fn argmax_first_max_semantics() {
        let mut s = session(16);
        let mut rng = StdRng::seed_from_u64(8);
        for (logits, want) in [
            (vec![3i64, 5, 5, 1], 1usize),
            (vec![7, 7, 7], 0),
            (vec![-9, -2, -2], 1),
            (vec![10], 0),
            (vec![1, 2, 3, 4, 5, 4], 4),
        ] {
            let (xc, xs) = share(s.ring(), &logits, &mut rng);
            let got = s.argmax(&xc, &xs, &mut rng).unwrap();
            assert_eq!(got, want, "logits {logits:?}");
        }
    }

    #[test]
    fn traffic_tracks_cost_model() {
        // The per-layer ReLU + truncation traffic must stay within 2x of
        // the analytical budget (it is padded toward it).
        let mut s = session(21);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 4096usize;
        let x: Vec<i64> = (0..n as i64).map(|i| (i % 63) - 31).collect();
        let (xc, xs) = share(s.ring(), &x, &mut rng);
        let rq = Requantizer {
            shift: 2,
            out_bits: 4,
        };
        s.relu_requant(&xc, &xs, rq, &mut rng).unwrap();
        let measured = s.stats().payload_bytes as f64;
        let predicted = s.model().layer_bytes(n as u64);
        let ratio = measured / predicted;
        assert!(
            (0.5..2.0).contains(&ratio),
            "measured {measured} vs predicted {predicted} (ratio {ratio})"
        );
    }

    #[test]
    fn scripted_fault_recovers_bit_identically() {
        let ring = ShareRing::new(16);
        let mut rng = StdRng::seed_from_u64(10);
        let x: Vec<i64> = (-20..20).collect();
        let (xc, xs) = ring.share_vec(&x, &mut rng);

        let mut clean = NonlinearSession::new(ring, TransportConfig::default(), 3);
        let mut r1 = StdRng::seed_from_u64(11);
        let (c_yc, c_ys) = clean.relu(&xc, &xs, &mut r1).unwrap();

        let mut faulty = NonlinearSession::new(
            ring,
            TransportConfig::faulty(FaultPlan::Scripted(vec![FaultOp::FlipBit {
                byte: 9,
                bit: 3,
            }])),
            3,
        );
        let mut r2 = StdRng::seed_from_u64(11);
        let (f_yc, f_ys) = faulty.relu(&xc, &xs, &mut r2).unwrap();
        assert_eq!((c_yc, c_ys), (f_yc, f_ys), "recovery must be bit-identical");
        let st = faulty.stats();
        assert!(st.faults_detected >= 1 && st.frames_retried >= 1);
    }

    #[test]
    fn chaos_session_recovers_or_fails_typed() {
        let ring = ShareRing::new(16);
        let mut rng = StdRng::seed_from_u64(12);
        let x: Vec<i64> = (-50..50).collect();
        let (xc, xs) = ring.share_vec(&x, &mut rng);
        let mut clean = NonlinearSession::new(ring, TransportConfig::default(), 5);
        let mut rc = StdRng::seed_from_u64(13);
        let clean_out = clean.relu(&xc, &xs, &mut rc).unwrap();
        for seed in 0..20 {
            let mut s = NonlinearSession::new(
                ring,
                TransportConfig::faulty(FaultPlan::Random(FaultConfig::moderate(seed))),
                5,
            );
            let mut r = StdRng::seed_from_u64(13);
            match s.relu(&xc, &xs, &mut r) {
                Ok(out) => assert_eq!(out, clean_out, "seed {seed}"),
                Err(FlashError::Protocol(_)) => {}
                Err(e) => panic!("untyped failure under chaos: {e:?}"),
            }
        }
    }
}
