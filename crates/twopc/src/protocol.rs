//! Client/server simulation of one homomorphic convolution.
//!
//! Both roles run in-process, but every ciphertext crosses a real
//! [`Transport`]: the client serializes with [`flash_he::serialize`],
//! frames go over an in-memory wire (optionally through a fault
//! injector), and the server deserializes and validates before touching
//! the payload — so [`ProtocolStats`] counts bytes that were actually
//! sent, and every input that crossed the wire is handled with typed
//! errors instead of panics. The plaintext modulus `t = 2^l` of the BFV
//! parameters doubles as the secret-share ring, so homomorphic sums over
//! `Z_t` are exactly the share arithmetic of the 2PC layers around the
//! convolution.
//!
//! # Noise guard
//!
//! Before computing each `(oc, band)` response the server composes the
//! worst-case decryption-noise bound of the exact pipeline (fresh
//! encryption → share fold → per-group weight multiply → mask →
//! truncation) and, on the approximate-FFT backend, adds the analytical
//! error bound of the transform ([`ApproxErrorModel`]). If the total
//! exceeds `margin × q/(2t)` the band transparently falls back to an
//! exact path dispatched on the ring family — the NTT backend on a prime
//! modulus ([`ProtocolStats::ntt_fallbacks`]), the wrapping schoolbook on
//! a power-of-two modulus ([`ProtocolStats::pow2_fallbacks`]); if even
//! the exact-path bound overflows the ceiling the run fails with
//! [`HeError::NoiseOverflow`] instead of decrypting garbage.
//!
//! [`ApproxErrorModel`]: flash_he::backend::ApproxErrorModel
//! [`HeError::NoiseOverflow`]: flash_he::HeError

use crate::error::FlashError;
use crate::shares::ShareRing;
use crate::transport::{FaultPlan, InMemoryTransport, Transport, TransportConfig};
use flash_fft::C64_SCRATCH;
use flash_he::backend::{weight_residues_into, BandAccumulator};
use flash_he::encoding::{ConvEncoder, ConvShape};
use flash_he::keys::KEY_BATCH;
use flash_he::noise::NoiseBound;
use flash_he::truncate::TruncatedCiphertext;
use flash_he::{serialize, Ciphertext, HeParams, Poly, PolyMulBackend, SecretKey};
use flash_runtime::U64_SCRATCH;
use flash_sparse::{SparsePlan, SparsityPattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Seed salts decorrelating the two directions of one random fault plan.
const UP_LINK_SALT: u64 = 0x7570_6c69_6e6b; // "uplink"
const DOWN_LINK_SALT: u64 = 0x646f_776e_6c69_6e6b; // "downlink"

/// Communication and workload accounting of one protocol run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtocolStats {
    /// Bytes of ciphertext sent client → server.
    pub upload_bytes: usize,
    /// Bytes of ciphertext sent server → client.
    pub download_bytes: usize,
    /// Ciphertexts the client uploads (`groups × bands`).
    pub ciphertexts_up: usize,
    /// Ciphertexts the server returns (`bands × out-channels`).
    pub ciphertexts_down: usize,
    /// Forward transforms of *weight* polynomials (the FLASH target).
    pub weight_transforms: usize,
    /// How many of those weight transforms ran on a compiled sparse µop
    /// tape instead of the dense butterfly network.
    pub sparse_weight_transforms: usize,
    /// Forward transforms of activation (ciphertext) polynomials — two
    /// per uploaded ciphertext (`c0` and `c1`).
    pub activation_transforms: usize,
    /// Inverse transforms — two per returned ciphertext.
    pub inverse_transforms: usize,
    /// Point-wise spectrum multiplications (complex/modular MACs).
    pub pointwise_muls: u64,
    /// Framed bytes client → server, headers/checksums/retransmissions
    /// included (`≥ upload_bytes`; the delta is the honest wire
    /// overhead).
    pub upload_wire_bytes: usize,
    /// Framed bytes server → client (same accounting).
    pub download_wire_bytes: usize,
    /// Corrupt/duplicate/forged frames the transports rejected.
    pub faults_detected: usize,
    /// Retransmissions the transports requested.
    pub frames_retried: usize,
    /// `(oc, band)` jobs the noise guard re-ran on the exact NTT backend
    /// (prime-modulus rings).
    pub ntt_fallbacks: usize,
    /// `(oc, band)` jobs the noise guard re-ran on the exact wrapping
    /// schoolbook (power-of-two-modulus rings).
    pub pow2_fallbacks: usize,
}

/// The secret-shared output of one convolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvOutputShares {
    /// Client share, `m·out_h·out_w` row-major over `Z_{2^l}`.
    pub client: Vec<u64>,
    /// Server share, same layout.
    pub server: Vec<u64>,
}

/// One convolution layer's protocol instance.
#[derive(Debug, Clone)]
pub struct ConvProtocol {
    params: HeParams,
    encoder: ConvEncoder,
    backend: PolyMulBackend,
    ring: ShareRing,
    /// Response truncation `(d0, d1)` bits, if enabled (Cheetah's
    /// download compression).
    truncation: Option<(u32, u32)>,
    /// Route weight transforms through compiled sparse plans when the
    /// encoding's pattern makes it worthwhile (FLASH's sparse dataflow).
    sparse_weights: bool,
    /// Wire configuration applied to both directions (fault plans get
    /// per-direction seed salts).
    transport: TransportConfig,
    /// Noise-guard threshold as a fraction of the decryption ceiling
    /// `q/(2t)`; bands whose composed bound crosses it fall back to the
    /// exact NTT backend.
    noise_margin: f64,
}

impl ConvProtocol {
    /// Plans a protocol run for a (pre-padded, stride-1) convolution.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a power of two ≥ 4 (share/plaintext rings must
    /// coincide), or if the backend and the ring family disagree (the
    /// `Pow2` backend needs a power-of-two ciphertext modulus; the exact
    /// NTT backend needs a prime one).
    pub fn new(params: HeParams, shape: ConvShape, backend: PolyMulBackend) -> Self {
        let l = params.t.trailing_zeros();
        assert!(params.t.is_power_of_two() && l >= 2, "t must be 2^l");
        match backend {
            PolyMulBackend::Pow2 => assert!(
                params.is_pow2(),
                "Pow2 backend requires a power-of-two ciphertext modulus"
            ),
            PolyMulBackend::Ntt => assert!(
                !params.is_pow2(),
                "exact NTT backend requires a prime ciphertext modulus"
            ),
            _ => {}
        }
        let encoder = ConvEncoder::new(shape, params.n);
        Self {
            ring: ShareRing::new(l),
            params,
            encoder,
            backend,
            truncation: None,
            sparse_weights: true,
            transport: TransportConfig::default(),
            noise_margin: flash_runtime::noise_margin(),
        }
    }

    /// Enables response-ciphertext truncation: the server drops `d0` low
    /// bits of `c0` and `d1` of `c1` before download. The caller is
    /// responsible for choosing a noise-safe pair (see
    /// [`flash_he::truncate::safe_truncation`]).
    pub fn with_truncation(mut self, d0: u32, d1: u32) -> Self {
        self.truncation = Some((d0, d1));
        self
    }

    /// Enables or disables the compiled sparse weight-transform path
    /// (on by default). With `false` every weight transform runs densely;
    /// outputs are identical either way — the switch exists for A/B
    /// benchmarking and regression bisection.
    pub fn with_sparse_weights(mut self, enabled: bool) -> Self {
        self.sparse_weights = enabled;
        self
    }

    /// Sets the wire configuration for both transport directions —
    /// retry budget, checksum enforcement, and (for testing) a fault
    /// plan. Random fault plans are salted per direction so uplink and
    /// downlink do not replay the same schedule.
    pub fn with_transport_config(mut self, cfg: TransportConfig) -> Self {
        self.transport = cfg;
        self
    }

    /// Overrides the noise-guard margin (default:
    /// [`flash_runtime::noise_margin`], i.e. `FLASH_NOISE_MARGIN` or
    /// 1.0). A margin of `0.0` forces the exact-NTT fallback for every
    /// band of an approximate backend — a deterministic test hook.
    pub fn with_noise_margin(mut self, margin: f64) -> Self {
        self.noise_margin = margin;
        self
    }

    /// The transport configuration for one direction: the shared config
    /// with the fault-plan seed salted so the two links draw independent
    /// schedules.
    fn direction_config(&self, salt: u64) -> TransportConfig {
        let mut cfg = self.transport.clone();
        if let Some(FaultPlan::Random(rc)) = &mut cfg.faults {
            rc.seed ^= salt;
        }
        cfg
    }

    /// Composes the worst-case decryption-noise bound of one `(oc, band)`
    /// job on the *exact* pipeline — fresh encryption, server share fold,
    /// one weight multiply per channel group accumulated into the
    /// response, the output mask, and the agreed truncation — plus the
    /// total `Σw²` of the band's weights (the input to the approximate
    /// backend's error model).
    fn band_noise_bound(&self, w_polys: &[Vec<Vec<i64>>], b: usize) -> (NoiseBound, f64) {
        conv_band_noise_bound(&self.params, w_polys, b, self.truncation)
    }

    /// Resolves the compiled weight-transform plan for band `b`, or
    /// `None` when the dense path should run: sparse path disabled, NTT
    /// backend (modular spectra, not FFT), or a pattern too dense to win
    /// ([`SparsePlan::worthwhile`]).
    fn band_plan(&self, b: usize) -> Option<Arc<SparsePlan>> {
        if !self.sparse_weights || matches!(self.backend, PolyMulBackend::Ntt) {
            return None;
        }
        let plan = conv_band_plan(&self.encoder, self.params.n, b);
        plan.worthwhile().then_some(plan)
    }

    /// The share ring `Z_{2^l}`.
    pub fn ring(&self) -> ShareRing {
        self.ring
    }

    /// The tiling plan.
    pub fn encoder(&self) -> &ConvEncoder {
        &self.encoder
    }

    /// Runs the protocol on a secret-shared activation.
    ///
    /// `x` is the *cleartext* activation (signed, already padded); it is
    /// split into shares internally so tests can verify reconstruction.
    /// `weights` is the full `m×c×k×k` kernel (server-side plaintext).
    ///
    /// # Errors
    ///
    /// Returns [`FlashError`] when a wire payload cannot be recovered
    /// within the transport's retry budget, fails deserialization or
    /// scheme-level validation, or when the composed noise bound of a
    /// band overflows the decryption ceiling even on the exact backend.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches with the planned shape (caller-side
    /// contract violations, not wire inputs).
    pub fn run<R: Rng>(
        &self,
        sk: &SecretKey,
        x: &[i64],
        weights: &[i64],
        rng: &mut R,
    ) -> Result<(ConvOutputShares, ProtocolStats), FlashError> {
        assert_eq!(
            x.len(),
            self.encoder.shape().input_len(),
            "activation size mismatch"
        );
        // --- Secret-share the activation (normally pre-existing state).
        let (x_client, x_server) = self.ring.share_vec(x, rng);
        self.run_shared(sk, &x_client, &x_server, weights, rng)
    }

    /// Runs the protocol on an *already secret-shared* activation — the
    /// entry point of a full private-inference pipeline, where each conv
    /// layer's input arrives as the share pair the previous non-linear
    /// stage produced. Shares are ring elements of [`Self::ring`]; the
    /// output is again secret-shared.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::run`].
    ///
    /// # Panics
    ///
    /// Panics on size mismatches with the planned shape.
    pub fn run_shared<R: Rng>(
        &self,
        sk: &SecretKey,
        x_client: &[u64],
        x_server: &[u64],
        weights: &[i64],
        rng: &mut R,
    ) -> Result<(ConvOutputShares, ProtocolStats), FlashError> {
        let shape = *self.encoder.shape();
        assert_eq!(x_client.len(), shape.input_len(), "share size mismatch");
        assert_eq!(x_client.len(), x_server.len(), "share length mismatch");
        assert_eq!(
            weights.len(),
            shape.m * shape.kernel_len(),
            "weight size mismatch"
        );
        let p = &self.params;
        let mut stats = ProtocolStats::default();
        let mut up = InMemoryTransport::new(self.direction_config(UP_LINK_SALT));
        let mut down = InMemoryTransport::new(self.direction_config(DOWN_LINK_SALT));

        let xc_signed: Vec<i64> = x_client.iter().map(|&v| v as i64).collect();
        let xs_signed: Vec<i64> = x_server.iter().map(|&v| v as i64).collect();

        // --- Client: encode its share per tile, then encrypt and upload
        // chunk by chunk — one batched key product per chunk, and only a
        // chunk of ciphertexts alive at a time.
        let enc = &self.encoder;
        let client_tiles = {
            let _t = flash_telemetry::span!("hconv.encode");
            enc.encode_activation(&xc_signed)
        };
        stats.ciphertexts_up = client_tiles.len();
        for tiles in client_tiles.chunks(KEY_BATCH) {
            let cts = {
                let _t = flash_telemetry::span!("hconv.encode");
                let ms: Vec<Poly> = tiles
                    .iter()
                    .map(|tile| Poly::from_signed(tile, p.t))
                    .collect();
                sk.encrypt_batch(&ms, rng)
            };
            let _t = flash_telemetry::span!("hconv.wire_serialize");
            for ct in &cts {
                up.send(&serialize::ciphertext_to_bytes(ct))?;
            }
        }
        drop(client_tiles);

        // --- Server: receive and validate the upload, fold in its share.
        let server_tiles = enc.encode_activation(&xs_signed);
        let cts_sum: Vec<Ciphertext> = server_tiles
            .iter()
            .map(|tile| {
                let bytes = up.recv()?;
                let ct = serialize::ciphertext_from_bytes(&bytes, p.n, p.q)?;
                ct.validate_for(p)?;
                Ok(ct.add_plain(&Poly::from_signed(tile, p.t), p))
            })
            .collect::<Result<_, FlashError>>()?;
        stats.upload_bytes = up.stats().payload_bytes as usize;
        stats.activation_transforms = 2 * cts_sum.len();

        let bands = enc.bands();
        let out_len = shape.output_len();
        let mut y_client = vec![0u64; out_len];
        let mut y_server = vec![0u64; out_len];
        let half_spectrum = (p.n / 2) as u64;

        // One mask seed per (oc, band) job, drawn sequentially up front,
        // so the parallel fan-out below produces the same masks for any
        // worker count.
        let mask_seeds: Vec<u64> = (0..shape.m * bands).map(|_| rng.next_u64()).collect();

        // Compiled weight-transform plans, one per band (plans are
        // structural, so every output channel shares them). Resolved
        // before the fan-out: plan compilation is deterministic and the
        // interner serves all workers the same `Arc`.
        let band_plans: Vec<Option<Arc<SparsePlan>>> =
            (0..bands).map(|b| self.band_plan(b)).collect();

        // Activation hoist: both components of every upload transform
        // exactly once, in one lane-parallel batched sweep, shared by all
        // `(oc, band)` jobs below. (`stats.activation_transforms` has
        // always modeled this accounting — two per ciphertext — and the
        // batched datapath now executes exactly that.)
        let act_spectra = self.backend.activation_spectra(&cts_sum, p);

        // --- Server fan-out: each output channel transforms its weights
        // and runs the per-band guard/MAC/mask/serialize independently.
        // Per band the response accumulates in the spectral domain (one
        // weight transform per channel group, no per-group inverses); the
        // channel's responses then close through one batched inverse.
        let per_oc = flash_runtime::parallel_gen(shape.m, |oc| {
            let w_polys = enc.encode_weight(
                &weights[oc * shape.kernel_len()..][..shape.kernel_len()],
                oc,
            );
            let groups = w_polys.len();
            let m_half = p.n / 2;
            // Phase 1: noise guard + spectral multiply-accumulate.
            // `None` marks a band whose ciphertext is still pending in
            // `spectral`; guard fallbacks resolve immediately on the
            // legacy exact path (which needs the coefficient-domain
            // ciphertexts, not the hoisted spectra).
            let mut resolved: Vec<(Option<Ciphertext>, ProtocolStats)> = Vec::with_capacity(bands);
            let mut spectral: Vec<(usize, BandAccumulator)> = Vec::with_capacity(bands);
            for b in 0..bands {
                let mut band_stats = ProtocolStats::default();
                // Noise guard: refuse (exact overflow) or fall back
                // (approximate error too close to the ceiling) before
                // any spectra are consumed.
                let (noise, w_sq) = self.band_noise_bound(&w_polys, b);
                noise.check()?;
                let fallback = match self.backend.error_model(p) {
                    Some(model) => {
                        let err = model.phase_error_bound(p, w_sq, groups);
                        noise.bound() + err >= self.noise_margin * noise.ceiling()
                    }
                    None => false,
                };
                band_stats.inverse_transforms += 2;
                if fallback {
                    if p.is_pow2() {
                        band_stats.pow2_fallbacks += 1;
                    } else {
                        band_stats.ntt_fallbacks += 1;
                    }
                    let mut acc = Ciphertext::zero(p.n, p.q);
                    for (g, w_poly) in w_polys.iter().enumerate() {
                        cts_sum[g * bands + b].mul_plain_signed_acc_exact(&w_poly[b], p, &mut acc);
                        band_stats.weight_transforms += 1;
                        band_stats.pointwise_muls += 2 * half_spectrum;
                    }
                    resolved.push((Some(acc), band_stats));
                    continue;
                }
                let mut acc = act_spectra.accumulator(p.n);
                match &band_plans[b] {
                    // Sparse fast path: one µop tape transforms every
                    // group's weight polynomial for this band in one
                    // lane-parallel sweep, then the spectra MAC against
                    // the hoisted activation spectra.
                    Some(plan) => {
                        let mut spectra = C64_SCRATCH.take(groups * m_half);
                        {
                            let _t = flash_telemetry::span!("hconv.weight_transform");
                            plan.execute_batch_into(
                                w_polys.iter().map(|w_poly| w_poly[b].as_slice()),
                                &mut spectra,
                            );
                        }
                        for (g, fw) in spectra.chunks_exact(m_half).enumerate() {
                            act_spectra.mac_fft(g * bands + b, fw, &mut acc);
                            band_stats.weight_transforms += 1;
                            band_stats.sparse_weight_transforms += 1;
                            band_stats.pointwise_muls += 2 * half_spectrum;
                        }
                    }
                    // Dense weights: one batched forward per band (all
                    // groups share the butterfly cascade W lanes wide).
                    None => {
                        let ws: Vec<&[i64]> =
                            w_polys.iter().map(|w_poly| w_poly[b].as_slice()).collect();
                        if matches!(self.backend, PolyMulBackend::Ntt) {
                            let mut fw = U64_SCRATCH.take(groups * p.n);
                            {
                                let _t = flash_telemetry::span!("hconv.weight_transform");
                                weight_residues_into(&ws, &mut fw, p.ntt());
                            }
                            for (g, fwg) in fw.chunks_exact(p.n).enumerate() {
                                act_spectra.mac_ntt(g * bands + b, fwg, p.ntt(), &mut acc);
                                band_stats.weight_transforms += 1;
                                band_stats.pointwise_muls += 2 * half_spectrum;
                            }
                        } else {
                            let mut fw = C64_SCRATCH.take(groups * m_half);
                            {
                                let _t = flash_telemetry::span!("hconv.weight_transform");
                                self.backend.weight_spectra_into(&ws, &mut fw, p.fft());
                            }
                            for (g, fwg) in fw.chunks_exact(m_half).enumerate() {
                                act_spectra.mac_fft(g * bands + b, fwg, &mut acc);
                                band_stats.weight_transforms += 1;
                                band_stats.pointwise_muls += 2 * half_spectrum;
                            }
                        }
                    }
                }
                spectral.push((b, acc));
                resolved.push((None, band_stats));
            }
            // Phase 2: one batched inverse for the channel's spectral
            // bands — `2·k` polynomials through one lane-parallel call.
            let (idxs, accs): (Vec<usize>, Vec<BandAccumulator>) = spectral.into_iter().unzip();
            for (b, ct) in idxs.into_iter().zip(BandAccumulator::finish_bands(accs, p)) {
                resolved[b].0 = Some(ct);
            }
            // Phase 3: mask and serialize per band, in band order.
            resolved
                .into_iter()
                .enumerate()
                .map(|(b, (acc, mut band_stats))| {
                    let acc = acc.expect("every band resolved by phase 2");
                    // Fresh random mask: the server's output share.
                    let mut mask_rng = StdRng::seed_from_u64(mask_seeds[oc * bands + b]);
                    let mask_vals: Vec<u64> =
                        (0..p.n).map(|_| mask_rng.gen_range(0..p.t)).collect();
                    let mask = Poly::from_coeffs(mask_vals, p.t);
                    let masked = acc.sub_plain(&mask, p);
                    // Server keeps its share from the mask coefficients at
                    // the output positions: just the band's own rows.
                    let mut server_share = vec![0u64; enc.band_output_range(b, oc).len()];
                    enc.decode_band_rows(mask.coeffs(), b, &mut server_share);
                    // Serialize the response for the downlink — optionally
                    // truncated (Cheetah's download compression; the
                    // `(d0, d1)` pair travels in the session context).
                    let response = match self.truncation {
                        None => serialize::ciphertext_to_bytes(&masked),
                        Some((d0, d1)) => {
                            let _t = flash_telemetry::span!("hconv.truncate_serialize");
                            TruncatedCiphertext::truncate(&masked, d0, d1, p).to_bytes(p)
                        }
                    };
                    band_stats.download_bytes += response.len();
                    Ok((b, server_share, response, band_stats))
                })
                .collect::<Result<Vec<_>, FlashError>>()
        });
        // Send the responses over the downlink in deterministic
        // `(oc, band)` order (the fan-out only prepared the bytes).
        let mut order = Vec::with_capacity(bands * shape.m);
        for (oc, oc_results) in per_oc.into_iter().enumerate() {
            for (b, server_share, response, band_stats) in oc_results? {
                stats.weight_transforms += band_stats.weight_transforms;
                stats.sparse_weight_transforms += band_stats.sparse_weight_transforms;
                stats.pointwise_muls += band_stats.pointwise_muls;
                stats.inverse_transforms += band_stats.inverse_transforms;
                stats.download_bytes += band_stats.download_bytes;
                stats.ntt_fallbacks += band_stats.ntt_fallbacks;
                stats.pow2_fallbacks += band_stats.pow2_fallbacks;
                y_server[enc.band_output_range(b, oc)].copy_from_slice(&server_share);
                down.send(&response)?;
                order.push((b, oc));
            }
        }
        stats.ciphertexts_down = order.len();

        // --- Client: drain the downlink (sequential — the transport owns
        // delivery order and recovery), then deserialize, validate,
        // decrypt and decode chunk by chunk in parallel: one batched key
        // product per chunk, each band decoded into its own rows only.
        let mut received = Vec::with_capacity(order.len());
        for (b, oc) in order {
            received.push((b, oc, down.recv()?));
        }
        let chunks: Vec<&[(usize, usize, Vec<u8>)]> = received.chunks(KEY_BATCH).collect();
        let decoded = flash_runtime::parallel_map(&chunks, |chunk| {
            let _t = flash_telemetry::span!("hconv.decrypt");
            let cts = chunk
                .iter()
                .map(|(_, _, bytes)| {
                    TruncatedCiphertext::response_from_bytes(bytes, self.truncation, p)
                })
                .collect::<Result<Vec<Ciphertext>, _>>()?;
            let mut plain = U64_SCRATCH.take(cts.len() * p.n);
            sk.decrypt_batch_into(&cts, &mut plain)?;
            let mut rows = Vec::new();
            for ((b, oc, _), m) in chunk.iter().zip(plain.chunks_exact(p.n)) {
                let at = rows.len();
                rows.resize(at + enc.band_output_range(*b, *oc).len(), 0u64);
                enc.decode_band_rows(m, *b, &mut rows[at..]);
            }
            Ok::<_, FlashError>(rows)
        });
        for (chunk, rows) in chunks.iter().zip(decoded) {
            let rows = rows?;
            let mut at = 0;
            for (b, oc, _) in chunk.iter() {
                let range = enc.band_output_range(*b, *oc);
                let len = range.len();
                y_client[range].copy_from_slice(&rows[at..at + len]);
                at += len;
            }
        }

        let wire = up.stats().merge(down.stats());
        stats.upload_wire_bytes = up.stats().wire_bytes as usize;
        stats.download_wire_bytes = down.stats().wire_bytes as usize;
        stats.faults_detected = wire.faults_detected as usize;
        stats.frames_retried = wire.frames_retried as usize;

        // Mirror the per-run accounting into the process-wide registry so
        // `flash_telemetry::snapshot()` sees aggregate protocol totals.
        flash_telemetry::counter!("twopc.runs").add(1);
        flash_telemetry::counter!("twopc.upload_bytes").add(stats.upload_bytes as u64);
        flash_telemetry::counter!("twopc.download_bytes").add(stats.download_bytes as u64);
        flash_telemetry::counter!("twopc.ciphertexts_up").add(stats.ciphertexts_up as u64);
        flash_telemetry::counter!("twopc.ciphertexts_down").add(stats.ciphertexts_down as u64);
        flash_telemetry::counter!("twopc.weight_transforms").add(stats.weight_transforms as u64);
        flash_telemetry::counter!("twopc.sparse_weight_transforms")
            .add(stats.sparse_weight_transforms as u64);
        flash_telemetry::counter!("twopc.activation_transforms")
            .add(stats.activation_transforms as u64);
        flash_telemetry::counter!("twopc.inverse_transforms").add(stats.inverse_transforms as u64);
        flash_telemetry::counter!("twopc.pointwise_muls").add(stats.pointwise_muls);
        flash_telemetry::counter!("twopc.upload_wire_bytes").add(stats.upload_wire_bytes as u64);
        flash_telemetry::counter!("twopc.download_wire_bytes")
            .add(stats.download_wire_bytes as u64);
        flash_telemetry::counter!("twopc.faults_detected").add(stats.faults_detected as u64);
        flash_telemetry::counter!("twopc.frames_retried").add(stats.frames_retried as u64);
        flash_telemetry::counter!("hconv.ntt_fallbacks").add(stats.ntt_fallbacks as u64);
        flash_telemetry::counter!("hconv.pow2_fallbacks").add(stats.pow2_fallbacks as u64);

        Ok((
            ConvOutputShares {
                client: y_client,
                server: y_server,
            },
            stats,
        ))
    }

    /// Reconstructs the signed output from the two shares.
    pub fn reconstruct(&self, shares: &ConvOutputShares) -> Vec<i64> {
        self.ring.reconstruct_vec(&shares.client, &shares.server)
    }
}

/// The worst-case decryption-noise bound of one `(oc, band)` response on
/// the exact pipeline — fresh encryption, server share fold, one weight
/// multiply per channel group accumulated into the response, the output
/// mask, and the agreed truncation — plus the total `Σw²` of the band's
/// weights (the input to [`flash_he::backend::ApproxErrorModel`]).
///
/// `w_polys` is one output channel's encoding
/// ([`ConvEncoder::encode_weight`]): `w_polys[group][band]` is a length-`N`
/// polynomial. Shared by [`ConvProtocol`] (per run) and the serving layer
/// (once per registered model — the bound depends only on the weights, so
/// a server can hoist it out of the per-request path).
pub fn conv_band_noise_bound(
    params: &HeParams,
    w_polys: &[Vec<Vec<i64>>],
    b: usize,
    truncation: Option<(u32, u32)>,
) -> (NoiseBound, f64) {
    let base = NoiseBound::fresh(params).after_plain_add();
    let mut acc: Option<NoiseBound> = None;
    let mut w_sq = 0.0;
    for w_poly in w_polys {
        let band = &w_poly[b];
        let l1: f64 = band.iter().map(|&v| (v as f64).abs()).sum();
        w_sq += band.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
        let nb = base.after_plain_mul(l1);
        acc = Some(match acc {
            None => nb,
            Some(a) => a.after_ct_add(&nb),
        });
    }
    let mut nb = acc.unwrap_or(base).after_plain_add();
    if let Some((d0, d1)) = truncation {
        let pow = |d: u32| {
            if d == 0 {
                0.0
            } else {
                (2.0f64).powi(d as i32 - 1)
            }
        };
        nb = nb.after_computation_error(pow(d0) + pow(d1) * params.n as f64);
    }
    (nb, w_sq)
}

/// The interned sparse weight-transform plan of band `b`.
///
/// The pattern comes from [`ConvEncoder::weight_indices`] — purely
/// structural, shared by every output channel and kernel placement of the
/// layer — folded into the `n/2`-slot negacyclic FFT domain, so all
/// `(oc, group)` jobs of a band share one interned tape. Callers decide
/// between the tape and the dense path via [`SparsePlan::worthwhile`].
pub fn conv_band_plan(encoder: &ConvEncoder, n: usize, b: usize) -> Arc<SparsePlan> {
    let half = n / 2;
    let mut mask = vec![false; half];
    for idx in encoder.weight_indices(b) {
        mask[idx % half] = true;
    }
    SparsePlan::shared(&SparsityPattern::from_mask(mask))
}

/// Signed reference convolution reduced into `Z_{2^l}` (what the protocol
/// must reproduce).
pub fn expected_conv_mod(
    x: &[i64],
    weights: &[i64],
    shape: &ConvShape,
    ring: ShareRing,
) -> Vec<i64> {
    flash_he::encoding::direct_conv_stride1(x, weights, shape)
        .iter()
        .map(|&v| ring.to_signed(ring.reduce(v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn run_case(shape: ConvShape, params: HeParams, backend: PolyMulBackend, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&params, &mut rng);
        let proto = ConvProtocol::new(params, shape, backend);
        let x: Vec<i64> = (0..shape.input_len())
            .map(|_| rng.gen_range(-8..8))
            .collect();
        let w: Vec<i64> = (0..shape.m * shape.kernel_len())
            .map(|_| rng.gen_range(-8..8))
            .collect();
        let (shares, stats) = proto.run(&sk, &x, &w, &mut rng).unwrap();
        let got = proto.reconstruct(&shares);
        let want = expected_conv_mod(&x, &w, &shape, proto.ring());
        assert_eq!(got, want, "shape {shape}");
        assert_eq!(stats.ciphertexts_up, proto.encoder().activation_polys());
        assert_eq!(stats.ciphertexts_down, proto.encoder().result_polys());
        assert!(stats.upload_bytes > 0 && stats.download_bytes > 0);
        // framing overhead is real and accounted
        assert!(stats.upload_wire_bytes > stats.upload_bytes);
        assert!(stats.download_wire_bytes > stats.download_bytes);
        assert_eq!(stats.faults_detected, 0);
        assert_eq!(stats.frames_retried, 0);
    }

    #[test]
    fn single_tile_protocol_ntt() {
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        run_case(shape, HeParams::test_256(), PolyMulBackend::Ntt, 1);
    }

    #[test]
    fn single_tile_protocol_fft() {
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        run_case(shape, HeParams::test_256(), PolyMulBackend::FftF64, 2);
    }

    #[test]
    fn grouped_tiles_protocol() {
        // 4 channels of 8x8 = 256 coefficients in N = 256 -> cg = 4? no:
        // 4*64 = 256 fits exactly in one tile; force groups with c = 8.
        let shape = ConvShape {
            c: 8,
            h: 8,
            w: 8,
            m: 1,
            k: 3,
        };
        run_case(shape, HeParams::test_256(), PolyMulBackend::Ntt, 3);
    }

    #[test]
    fn banded_tiles_protocol() {
        // One 24x24 channel (576 > 256): row bands.
        let shape = ConvShape {
            c: 1,
            h: 24,
            w: 24,
            m: 1,
            k: 3,
        };
        run_case(shape, HeParams::test_256(), PolyMulBackend::FftF64, 4);
    }

    #[test]
    fn approx_backend_protocol_exact_at_modest_precision() {
        // FLASH's approximate weight transform at a comfortable operating
        // point must not disturb any output (errors stay below q/2t).
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        let params = HeParams::test_256();
        let mut cfg = flash_fft::ApproxFftConfig::uniform(
            params.n,
            flash_math::fixed::FxpFormat::new(18, 34),
            30,
        );
        cfg.max_shift = 30;
        run_case(shape, params, PolyMulBackend::approx(cfg), 5);
    }

    #[test]
    fn sparse_and_dense_paths_produce_identical_shares() {
        // The acceptance bar for the compiled tape: with the same seed,
        // the protocol's outputs (both shares, not just the reconstructed
        // result) are bit-identical whether weight transforms run on the
        // sparse tape or the dense FFT.
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        let params = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let sk = SecretKey::generate(&params, &mut rng);
        let x: Vec<i64> = (0..shape.input_len())
            .map(|i| ((i as i64 * 5) % 15) - 7)
            .collect();
        let w: Vec<i64> = (0..shape.m * shape.kernel_len())
            .map(|i| ((i as i64 * 3) % 15) - 7)
            .collect();

        let sparse = ConvProtocol::new(params.clone(), shape, PolyMulBackend::FftF64);
        let dense =
            ConvProtocol::new(params, shape, PolyMulBackend::FftF64).with_sparse_weights(false);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(9);
        let (shares_s, stats_s) = sparse.run(&sk, &x, &w, &mut r1).unwrap();
        let mut r2 = rand::rngs::StdRng::seed_from_u64(9);
        let (shares_d, stats_d) = dense.run(&sk, &x, &w, &mut r2).unwrap();

        assert_eq!(shares_s, shares_d, "sparse path changed protocol output");
        assert_eq!(
            stats_s.sparse_weight_transforms, stats_s.weight_transforms,
            "every weight transform should have taken the tape"
        );
        assert!(stats_s.sparse_weight_transforms > 0);
        assert_eq!(stats_d.sparse_weight_transforms, 0);
        assert_eq!(
            sparse.reconstruct(&shares_s),
            expected_conv_mod(&x, &w, &shape, sparse.ring())
        );
    }

    #[test]
    fn ntt_backend_never_takes_the_sparse_path() {
        let shape = ConvShape {
            c: 1,
            h: 5,
            w: 5,
            m: 1,
            k: 3,
        };
        let params = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let sk = SecretKey::generate(&params, &mut rng);
        let proto = ConvProtocol::new(params, shape, PolyMulBackend::Ntt);
        let x = vec![1i64; shape.input_len()];
        let w = vec![2i64; shape.m * shape.kernel_len()];
        let (shares, stats) = proto.run(&sk, &x, &w, &mut rng).unwrap();
        assert_eq!(stats.sparse_weight_transforms, 0);
        assert_eq!(
            proto.reconstruct(&shares),
            expected_conv_mod(&x, &w, &shape, proto.ring())
        );
    }

    #[test]
    fn truncated_responses_stay_correct_and_shrink_download() {
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        let params = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let sk = SecretKey::generate(&params, &mut rng);
        let x: Vec<i64> = (0..shape.input_len())
            .map(|i| ((i as i64) % 15) - 7)
            .collect();
        let w: Vec<i64> = (0..shape.m * shape.kernel_len())
            .map(|i| ((i as i64 * 3) % 15) - 7)
            .collect();

        let plain = ConvProtocol::new(params.clone(), shape, PolyMulBackend::Ntt);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(1);
        let (_, base_stats) = plain.run(&sk, &x, &w, &mut r1).unwrap();

        // a conservative truncation well inside the budget
        let trunc = ConvProtocol::new(params, shape, PolyMulBackend::Ntt).with_truncation(8, 2);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(1);
        let (shares, stats) = trunc.run(&sk, &x, &w, &mut r2).unwrap();
        assert_eq!(
            trunc.reconstruct(&shares),
            expected_conv_mod(&x, &w, &shape, trunc.ring())
        );
        assert!(
            stats.download_bytes < base_stats.download_bytes,
            "truncation must shrink the response: {} vs {}",
            stats.download_bytes,
            base_stats.download_bytes
        );
    }

    #[test]
    fn shares_alone_reveal_nothing_obvious() {
        // Sanity: the client share of a zero activation output is not zero
        // (it is masked), and reconstruction needs both shares.
        let shape = ConvShape {
            c: 1,
            h: 5,
            w: 5,
            m: 1,
            k: 3,
        };
        let params = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let sk = SecretKey::generate(&params, &mut rng);
        let proto = ConvProtocol::new(params, shape, PolyMulBackend::Ntt);
        let x = vec![0i64; shape.input_len()];
        let w = vec![1i64; shape.kernel_len()];
        let (shares, _) = proto.run(&sk, &x, &w, &mut rng).unwrap();
        assert!(
            shares.client.iter().any(|&v| v != 0),
            "client share is masked"
        );
        assert!(
            shares.server.iter().any(|&v| v != 0),
            "server share is the mask"
        );
        assert!(proto.reconstruct(&shares).iter().all(|&v| v == 0));
    }

    fn approx_backend(params: &HeParams) -> PolyMulBackend {
        let mut cfg = flash_fft::ApproxFftConfig::uniform(
            params.n,
            flash_math::fixed::FxpFormat::new(18, 34),
            30,
        );
        cfg.max_shift = 30;
        PolyMulBackend::approx(cfg)
    }

    #[test]
    fn default_margin_reports_zero_fallbacks_at_modest_precision() {
        // At the comfortable operating point the analytical error bound
        // sits far below the ceiling, so the guard must not disturb the
        // approximate/sparse hot path.
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        let params = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let sk = SecretKey::generate(&params, &mut rng);
        let proto = ConvProtocol::new(params.clone(), shape, approx_backend(&params));
        let x: Vec<i64> = (0..shape.input_len())
            .map(|i| (i as i64 % 13) - 6)
            .collect();
        let w: Vec<i64> = (0..shape.m * shape.kernel_len())
            .map(|i| (i as i64 % 13) - 6)
            .collect();
        let (shares, stats) = proto.run(&sk, &x, &w, &mut rng).unwrap();
        assert_eq!(stats.ntt_fallbacks, 0);
        assert!(stats.sparse_weight_transforms > 0, "hot path undisturbed");
        assert_eq!(
            proto.reconstruct(&shares),
            expected_conv_mod(&x, &w, &shape, proto.ring())
        );
    }

    #[test]
    fn zero_margin_forces_exact_fallback_on_every_band() {
        // margin 0 makes any nonzero analytical error bound trip the
        // guard: every (oc, band) job must re-run on the NTT backend and
        // decryption must still be exact.
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        let params = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let sk = SecretKey::generate(&params, &mut rng);
        let proto = ConvProtocol::new(params.clone(), shape, approx_backend(&params))
            .with_noise_margin(0.0);
        let x: Vec<i64> = (0..shape.input_len())
            .map(|i| (i as i64 % 11) - 5)
            .collect();
        let w: Vec<i64> = (0..shape.m * shape.kernel_len())
            .map(|i| (i as i64 % 11) - 5)
            .collect();
        let (shares, stats) = proto.run(&sk, &x, &w, &mut rng).unwrap();
        assert_eq!(stats.ntt_fallbacks, stats.ciphertexts_down);
        assert_eq!(
            stats.sparse_weight_transforms, 0,
            "tapes produce FFT spectra"
        );
        assert_eq!(
            proto.reconstruct(&shares),
            expected_conv_mod(&x, &w, &shape, proto.ring())
        );
    }

    #[test]
    fn single_tile_protocol_pow2() {
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        run_case(shape, HeParams::pow2_test_256(), PolyMulBackend::Pow2, 3);
    }

    #[test]
    fn grouped_tiles_protocol_pow2() {
        let shape = ConvShape {
            c: 8,
            h: 8,
            w: 8,
            m: 1,
            k: 3,
        };
        run_case(shape, HeParams::pow2_test_256(), PolyMulBackend::Pow2, 4);
    }

    #[test]
    fn pow2_zero_margin_falls_back_to_wrapping_schoolbook_with_equal_output() {
        // The guard's pow2 arm: margin 0 trips the fallback on every
        // band (the Pow2 backend always has a nonzero error bound), the
        // exact path is the wrapping schoolbook (pow2_fallbacks, not
        // ntt_fallbacks — there is no NTT on this ring), and the
        // reconstructed output must equal both the direct reference and
        // the hot path's output for the same seed.
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        let params = HeParams::pow2_test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let sk = SecretKey::generate(&params, &mut rng);
        let x: Vec<i64> = (0..shape.input_len())
            .map(|i| (i as i64 % 11) - 5)
            .collect();
        let w: Vec<i64> = (0..shape.m * shape.kernel_len())
            .map(|i| (i as i64 % 11) - 5)
            .collect();

        let guarded =
            ConvProtocol::new(params.clone(), shape, PolyMulBackend::Pow2).with_noise_margin(0.0);
        let mut run_rng = rand::rngs::StdRng::seed_from_u64(47);
        let (g_shares, g_stats) = guarded.run(&sk, &x, &w, &mut run_rng).unwrap();
        assert_eq!(g_stats.pow2_fallbacks, g_stats.ciphertexts_down);
        assert_eq!(g_stats.ntt_fallbacks, 0, "no NTT exists on a pow2 ring");
        assert_eq!(g_stats.sparse_weight_transforms, 0);

        let hot = ConvProtocol::new(params.clone(), shape, PolyMulBackend::Pow2);
        let mut run_rng = rand::rngs::StdRng::seed_from_u64(47);
        let (h_shares, h_stats) = hot.run(&sk, &x, &w, &mut run_rng).unwrap();
        assert_eq!(h_stats.pow2_fallbacks, 0, "default margin keeps hot path");
        assert!(h_stats.sparse_weight_transforms > 0);

        let want = expected_conv_mod(&x, &w, &shape, guarded.ring());
        assert_eq!(guarded.reconstruct(&g_shares), want);
        assert_eq!(hot.reconstruct(&h_shares), want);
        // Same seed → same masks → the exact and approximate paths agree
        // share-for-share, not just after reconstruction.
        assert_eq!(g_shares, h_shares);
    }

    #[test]
    #[should_panic(expected = "power-of-two ciphertext modulus")]
    fn pow2_backend_rejects_prime_ring() {
        let shape = ConvShape {
            c: 1,
            h: 5,
            w: 5,
            m: 1,
            k: 3,
        };
        ConvProtocol::new(HeParams::test_256(), shape, PolyMulBackend::Pow2);
    }

    #[test]
    #[should_panic(expected = "prime ciphertext modulus")]
    fn ntt_backend_rejects_pow2_ring() {
        let shape = ConvShape {
            c: 1,
            h: 5,
            w: 5,
            m: 1,
            k: 3,
        };
        ConvProtocol::new(HeParams::pow2_test_256(), shape, PolyMulBackend::Ntt);
    }

    #[test]
    fn unsafe_truncation_fails_with_noise_overflow() {
        // A truncation whose worst-case error alone dwarfs the decryption
        // ceiling must be refused before any garbage is decrypted.
        let shape = ConvShape {
            c: 1,
            h: 5,
            w: 5,
            m: 1,
            k: 3,
        };
        let params = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let sk = SecretKey::generate(&params, &mut rng);
        let proto = ConvProtocol::new(params, shape, PolyMulBackend::Ntt).with_truncation(30, 25);
        let x = vec![1i64; shape.input_len()];
        let w = vec![1i64; shape.kernel_len()];
        let err = proto.run(&sk, &x, &w, &mut rng).unwrap_err();
        assert!(
            matches!(err, FlashError::He(flash_he::HeError::NoiseOverflow { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn conv_recovers_bit_identically_from_scripted_faults() {
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        let params = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let sk = SecretKey::generate(&params, &mut rng);
        let x: Vec<i64> = (0..shape.input_len()).map(|i| (i as i64 % 9) - 4).collect();
        let w: Vec<i64> = (0..shape.m * shape.kernel_len())
            .map(|i| (i as i64 % 9) - 4)
            .collect();

        let clean = ConvProtocol::new(params.clone(), shape, PolyMulBackend::Ntt);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(5);
        let (clean_shares, _) = clean.run(&sk, &x, &w, &mut r1).unwrap();

        use crate::transport::{FaultOp, FaultPlan};
        let plan = FaultPlan::Scripted(vec![
            FaultOp::Truncate { keep: 9 },
            FaultOp::Duplicate,
            FaultOp::FlipBit { byte: 100, bit: 0 },
            FaultOp::Drop,
            FaultOp::Reorder,
        ]);
        let faulty = ConvProtocol::new(params, shape, PolyMulBackend::Ntt)
            .with_transport_config(TransportConfig::faulty(plan));
        let mut r2 = rand::rngs::StdRng::seed_from_u64(5);
        let (faulty_shares, stats) = faulty.run(&sk, &x, &w, &mut r2).unwrap();
        assert_eq!(
            faulty_shares, clean_shares,
            "recovered run must be bit-identical to the clean run"
        );
        assert!(stats.faults_detected > 0 && stats.frames_retried > 0);
        assert!(
            stats.upload_wire_bytes + stats.download_wire_bytes
                > stats.upload_bytes + stats.download_bytes,
            "retransmissions must show up in the wire accounting"
        );
    }
}
