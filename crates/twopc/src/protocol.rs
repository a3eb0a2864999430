//! Client/server simulation of one homomorphic convolution: the thin
//! in-process pairing of the [`crate::hconv`] pipeline stages.
//!
//! Both roles run in-process, but every ciphertext crosses a real
//! [`Transport`]: **seal** → uplink → **open** → **respond** at width 1 →
//! downlink → **unseal**. Frames go over an in-memory wire (optionally
//! through a fault injector), and the server deserializes and validates
//! before touching the payload — so [`ProtocolStats`] counts bytes that
//! were actually sent, and every input that crossed the wire is handled
//! with typed errors instead of panics. The plaintext modulus `t = 2^l`
//! of the BFV parameters doubles as the secret-share ring, so homomorphic
//! sums over `Z_t` are exactly the share arithmetic of the 2PC layers
//! around the convolution.
//!
//! Each run prices the weights once before anything is sealed
//! ([`HconvServer::plan`]): the partition they are served at and every
//! pack's verdict — spectral, the exact fallback of the ring family, or
//! [`HeError::NoiseOverflow`] for the whole run; see [`crate::hconv`].
//! Units live for one run: each output-channel pack prepares its weights
//! at its verdict inside the fan-out ([`HconvServer::prepare_units`]),
//! answers the one request, and drops them — a whole layer's spectra
//! never exist at once.
//!
//! [`HeError::NoiseOverflow`]: flash_he::HeError

use crate::error::FlashError;
use crate::hconv::{HconvLayer, HconvServer, DEFAULT_NOISE_MARGIN};
use crate::shares::ShareRing;
use crate::transport::{FaultPlan, InMemoryTransport, Transport, TransportConfig};
use flash_he::encoding::{ConvEncoder, ConvShape};
use flash_he::truncate::planned_truncation;
use flash_he::{HeParams, PolyMulBackend, SecretKey};
use rand::Rng;

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
    /// Ciphertexts the server returns (`packs × bands`).
    pub ciphertexts_down: usize,
    /// Forward transforms of *weight* polynomials (the FLASH target):
    /// `groups` per spectral unit — a unit the noise guard pins to the
    /// exact fallback transforms nothing.
    pub weight_transforms: usize,
    /// How many of those weight transforms ran on a compiled sparse µop
    /// tape instead of the dense butterfly network.
    pub sparse_weight_transforms: usize,
    /// Forward transforms of activation (ciphertext) polynomials — two
    /// per uploaded ciphertext (`c0` and `c1`), or none when the guard
    /// pins every unit to the exact fallback.
    pub activation_transforms: usize,
    /// Inverse transforms — two per spectral unit's returned ciphertext
    /// (the exact fallback answers in the coefficient domain).
    pub inverse_transforms: usize,
    /// Point-wise spectrum multiplications (complex/modular MACs): `N`
    /// per weight transform.
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
    /// `(pack, band)` units the noise guard re-ran on the exact NTT
    /// product (prime-modulus rings): units whose group count would wrap
    /// the lazy Shoup accumulator.
    pub ntt_fallbacks: usize,
    /// `(pack, band)` units the noise guard re-ran on the exact wrapping
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
    server: HconvServer,
    /// Wire configuration applied to both directions (fault plans get
    /// per-direction seed salts).
    transport: TransportConfig,
}

impl ConvProtocol {
    /// Plans a protocol run for a (pre-padded, stride-1) convolution, with
    /// responses truncated at [`planned_truncation`] of the parameters.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a power of two ≥ 4 (share/plaintext rings must
    /// coincide), or if the backend and the ring family disagree
    /// ([`PolyMulBackend::assert_ring`]).
    pub fn new(params: HeParams, shape: ConvShape, backend: PolyMulBackend) -> Self {
        let truncation = planned_truncation(&params);
        Self {
            server: HconvServer::new(
                HconvLayer::new(params, shape, Some(truncation)),
                backend,
                DEFAULT_NOISE_MARGIN,
            ),
            transport: TransportConfig::default(),
        }
    }

    /// Overrides the planned response truncation: the server drops `d0`
    /// low bits of `c0` and `d1` of `c1` before download; `(0, 0)` sends
    /// them whole. The layer's partition is re-planned at the pair, and
    /// the noise guard still prices it per pack (see
    /// [`flash_he::truncate::safe_truncation`] to choose one).
    pub fn with_truncation(mut self, d0: u32, d1: u32) -> Self {
        let server = &self.server;
        let layer = server.layer();
        self.server = HconvServer::new(
            HconvLayer::new(
                layer.params().clone(),
                *layer.encoder().shape(),
                Some((d0, d1)),
            ),
            server.backend.clone(),
            server.noise_margin,
        );
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
    /// [`DEFAULT_NOISE_MARGIN`]). A margin of `0.0` forces the exact
    /// fallback for every band of an approximate backend — a
    /// deterministic test hook; the run then skips the activation sweep
    /// (`activation_transforms` reads 0).
    pub fn with_noise_margin(mut self, margin: f64) -> Self {
        self.server.noise_margin = margin;
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

    /// The share ring `Z_{2^l}`.
    pub fn ring(&self) -> ShareRing {
        self.server.layer.ring()
    }

    /// The tiling plan. A run serves it unpacked when the noise guard
    /// ranks the unpacked plan better on its weights
    /// ([`HconvServer::plan`]).
    pub fn encoder(&self) -> &ConvEncoder {
        self.server.layer.encoder()
    }

    /// The server half of the pipeline this protocol pairs with its
    /// client.
    pub fn server(&self) -> &HconvServer {
        &self.server
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
            self.encoder().shape().input_len(),
            "activation size mismatch"
        );
        // --- Secret-share the activation (normally pre-existing state).
        let (x_client, x_server) = self.ring().share_vec(x, rng);
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
        // The partition these weights are served at — the planned one, or
        // unpacked when the guard ranks it better — and every pack's
        // verdict, priced once.
        let plan = self.server.plan(weights)?;
        let server = &plan.server;
        let layer = server.layer();
        let enc = layer.encoder();
        let shape = *enc.shape();
        assert_eq!(x_client.len(), shape.input_len(), "share size mismatch");
        assert_eq!(x_client.len(), x_server.len(), "share length mismatch");
        let mut stats = ProtocolStats::default();
        let mut up = InMemoryTransport::new(self.direction_config(UP_LINK_SALT));
        let mut down = InMemoryTransport::new(self.direction_config(DOWN_LINK_SALT));

        // --- Client: seal its share onto the uplink, a chunk at a time.
        layer.seal(sk, x_client, rng, |blob| up.send(&blob))?;
        stats.ciphertexts_up = enc.activation_polys();

        // --- Server: open the upload against its own share.
        let xs_signed: Vec<i64> = x_server.iter().map(|&v| v as i64).collect();
        let uploads = (0..stats.ciphertexts_up).map(|_| up.recv().map_err(FlashError::from));
        let cts = layer.open(&xs_signed, uploads)?;
        stats.upload_bytes = up.stats().payload_bytes as usize;

        // One mask seed per (pack, band) unit, drawn sequentially up
        // front, so the parallel fan-out below produces the same masks for
        // any worker count.
        let (bands, groups) = (enc.bands(), enc.groups());
        let mask_seeds: Vec<u64> = (0..enc.result_polys()).map(|_| rng.next_u64()).collect();

        // --- Server: one activation sweep shared by every pack (none when
        // the guard pins every unit to the exact fallback), then each
        // output-channel pack prepares its units, responds at width 1 and
        // drops them.
        let requests = [cts.as_slice()];
        let act = plan.fallback.contains(&false).then(|| {
            stats.activation_transforms = 2 * cts.len();
            server.spectra(&requests)
        });
        let per_pack = flash_runtime::parallel_gen(enc.packs(), |pack| {
            let (units, counts) = server.prepare_units(weights, pack, plan.fallback[pack]);
            let response = server
                .respond(act.as_ref(), &requests, pack * bands, &units, |_, u| {
                    mask_seeds[u]
                })
                .pop()
                .expect("one request in, one response out");
            (response, counts)
        });

        // Send the responses over the downlink in deterministic
        // `(pack, band)` order (the fan-out only prepared the bytes).
        let mut y_server = vec![0u64; shape.output_len()];
        let mut fallbacks = 0;
        for (pack, (response, counts)) in per_pack.into_iter().enumerate() {
            stats.sparse_weight_transforms += counts.sparse * groups;
            fallbacks += counts.fallback;
            let at = enc.unit_output_range(pack * bands).start;
            y_server[at..at + response.server_share.len()].copy_from_slice(&response.server_share);
            for blob in &response.blobs {
                down.send(blob)?;
            }
        }
        // A fallback unit skips both its weight transforms and the
        // batched inverse: only spectral units count.
        let spectral = enc.result_polys() - fallbacks;
        stats.ciphertexts_down = enc.result_polys();
        stats.weight_transforms = spectral * groups;
        stats.pointwise_muls = (stats.weight_transforms * layer.params().n) as u64;
        stats.inverse_transforms = 2 * spectral;
        if layer.params().is_pow2() {
            stats.pow2_fallbacks = fallbacks;
        } else {
            stats.ntt_fallbacks = fallbacks;
        }

        // --- Client: drain the downlink (sequential — the transport owns
        // delivery order and recovery), then unseal.
        let received = (0..stats.ciphertexts_down)
            .map(|_| down.recv())
            .collect::<Result<Vec<_>, _>>()?;
        let y_client = layer.unseal(sk, &received)?;
        stats.download_bytes = down.stats().payload_bytes as usize;

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
        self.ring().reconstruct_vec(&shares.client, &shares.server)
    }
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
        // The FFT family runs on q = 2^l: the fixed-point weight transform
        // at the wide datapath (FxpFormat(20, 60), k = 60).
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        let params = HeParams::pow2_test_256();
        let mut cfg = flash_fft::ApproxFftConfig::uniform(
            params.n,
            flash_math::fixed::FxpFormat::new(20, 60),
            60,
        );
        cfg.max_shift = 55;
        run_case(shape, params, PolyMulBackend::approx(cfg), 2);
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
        run_case(shape, HeParams::pow2_test_256(), PolyMulBackend::Pow2, 4);
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
        let params = HeParams::pow2_test_256();
        run_case(shape, params.clone(), approx_backend(&params), 5);
    }

    #[test]
    fn sparse_and_dense_paths_produce_identical_shares() {
        // The acceptance bar for the compiled tape: every weight
        // transform of a sparse layer takes the tape, and the output is
        // still the exact convolution.
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        let params = HeParams::pow2_test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let sk = SecretKey::generate(&params, &mut rng);
        let x: Vec<i64> = (0..shape.input_len())
            .map(|i| ((i as i64 * 5) % 15) - 7)
            .collect();
        let w: Vec<i64> = (0..shape.m * shape.kernel_len())
            .map(|i| ((i as i64 * 3) % 15) - 7)
            .collect();

        let sparse = ConvProtocol::new(params, shape, PolyMulBackend::Pow2);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(9);
        let (shares_s, stats_s) = sparse.run(&sk, &x, &w, &mut r1).unwrap();

        assert_eq!(
            stats_s.sparse_weight_transforms, stats_s.weight_transforms,
            "every weight transform should have taken the tape"
        );
        assert!(stats_s.sparse_weight_transforms > 0);
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

        let proto = || ConvProtocol::new(params.clone(), shape, PolyMulBackend::Ntt);
        let plain = proto().with_truncation(0, 0);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(1);
        let (_, base_stats) = plain.run(&sk, &x, &w, &mut r1).unwrap();

        // a conservative pair well inside the budget, and the planned
        // default
        let planned = planned_truncation(&params);
        assert_eq!(proto().server().layer().truncation(), Some(planned));
        for trunc in [proto().with_truncation(8, 2), proto()] {
            let mut r2 = rand::rngs::StdRng::seed_from_u64(1);
            let (shares, stats) = trunc.run(&sk, &x, &w, &mut r2).unwrap();
            let pair = trunc.server().layer().truncation();
            assert_eq!(
                trunc.reconstruct(&shares),
                expected_conv_mod(&x, &w, &shape, trunc.ring()),
                "{pair:?}"
            );
            assert!(
                stats.download_bytes < base_stats.download_bytes,
                "truncation {pair:?} must shrink the response: {} vs {}",
                stats.download_bytes,
                base_stats.download_bytes
            );
        }
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
        let params = HeParams::pow2_test_256();
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
        assert_eq!(stats.pow2_fallbacks, 0);
        assert!(stats.sparse_weight_transforms > 0, "hot path undisturbed");
        assert_eq!(
            proto.reconstruct(&shares),
            expected_conv_mod(&x, &w, &shape, proto.ring())
        );
    }

    #[test]
    fn zero_margin_forces_exact_fallback_on_every_band() {
        // margin 0 makes any nonzero analytical error bound trip the
        // guard: every (pack, band) unit must re-run on the exact wrapping
        // schoolbook and decryption must still be exact.
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        let params = HeParams::pow2_test_256();
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
        assert_eq!(stats.pow2_fallbacks, stats.ciphertexts_down);
        assert_eq!(
            stats.sparse_weight_transforms, 0,
            "tapes produce FFT spectra"
        );
        // The fallback answers in the coefficient domain: no activation
        // sweep, no weight transform, no MAC against spectra, no batched
        // inverse.
        assert_eq!(
            (
                stats.activation_transforms,
                stats.weight_transforms,
                stats.pointwise_muls,
                stats.inverse_transforms
            ),
            (0, 0, 0, 0)
        );
        assert_eq!(
            proto.reconstruct(&shares),
            expected_conv_mod(&x, &w, &shape, proto.ring())
        );
    }

    #[test]
    fn a_packed_plan_the_guard_refuses_is_served_unpacked() {
        // c = 4, 6×6, m = 8 at N = 256 packs as (2, 3): one weight
        // polynomial holds three kernels, so its ℓ1 is three times an
        // unpacked one's. At the smallest power-of-two weight whose packed
        // exact bound overflows, the unpacked (4, 1) plan still clears the
        // ceiling, and the run is served unpacked instead of refused.
        let shape = ConvShape {
            c: 4,
            h: 6,
            w: 6,
            m: 8,
            k: 3,
        };
        let params = HeParams::test_256();
        let proto = ConvProtocol::new(params.clone(), shape, PolyMulBackend::Ntt);
        let planned = proto.server();
        assert_eq!(planned.layer().partition(), (2, 3));
        let unpacked = HconvServer::new(
            planned.layer().unpacked(),
            PolyMulBackend::Ntt,
            DEFAULT_NOISE_MARGIN,
        );
        assert_eq!(unpacked.layer().partition(), (4, 1));
        let overflows =
            |server: &HconvServer, w: &[i64]| server.ledgers(w).iter().any(|l| l.check().is_err());
        let w = (0..24)
            .map(|e| vec![1i64 << e; shape.m * shape.kernel_len()])
            .find(|w| overflows(planned, w))
            .expect("large enough weights overflow the packed plan");
        assert!(!overflows(&unpacked, &w));
        assert_eq!(planned.plan(&w).unwrap().server.layer().partition(), (4, 1));

        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let sk = SecretKey::generate(&params, &mut rng);
        let x: Vec<i64> = (0..shape.input_len())
            .map(|_| rng.gen_range(-8..8))
            .collect();
        let (shares, stats) = proto.run(&sk, &x, &w, &mut rng).unwrap();
        assert_eq!(
            (
                stats.ciphertexts_up,
                stats.ciphertexts_down,
                stats.ntt_fallbacks
            ),
            (1, 8, 0)
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
        let enc = hot.encoder();
        assert_eq!(h_stats.weight_transforms, enc.result_polys() * enc.groups());
        assert_eq!(h_stats.inverse_transforms, 2 * enc.result_polys());
        assert_eq!(
            (g_stats.weight_transforms, g_stats.inverse_transforms),
            (0, 0)
        );

        let want = expected_conv_mod(&x, &w, &shape, guarded.ring());
        assert_eq!(guarded.reconstruct(&g_shares), want);
        assert_eq!(hot.reconstruct(&h_shares), want);
        // Same seed → same masks → the exact and approximate paths agree
        // share-for-share, not just after reconstruction.
        assert_eq!(g_shares, h_shares);
    }

    /// Builds a protocol on `params` with `backend`, expecting the named
    /// ring-mismatch panic: an approximate backend on a prime ring is
    /// checked here, caught, before the caller's own case panics for its
    /// `should_panic`.
    fn rejects(params: HeParams, backend: PolyMulBackend) {
        let shape = ConvShape {
            c: 1,
            h: 5,
            w: 5,
            m: 1,
            k: 3,
        };
        let prime = HeParams::test_256();
        let approx = approx_backend(&prime);
        let caught = std::panic::catch_unwind(|| ConvProtocol::new(prime, shape, approx))
            .expect_err("ApproxFft on a prime ring must panic");
        let msg = caught
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(msg.contains("backend/ring mismatch"), "{msg}");
        ConvProtocol::new(params, shape, backend);
    }

    #[test]
    #[should_panic(expected = "power-of-two ciphertext modulus")]
    fn pow2_backend_rejects_prime_ring() {
        rejects(HeParams::test_256(), PolyMulBackend::Pow2);
    }

    #[test]
    #[should_panic(expected = "prime ciphertext modulus")]
    fn ntt_backend_rejects_pow2_ring() {
        rejects(HeParams::pow2_test_256(), PolyMulBackend::Ntt);
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
