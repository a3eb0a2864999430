//! The one HConv request pipeline: four stages, each written once, run
//! at any batch width.
//!
//! ```text
//! client                         server
//! ──────                         ──────
//! seal ── blobs ───────────────► open            (per request)
//!                                prepare_units   (per output-channel
//!                                                 pack: weight-only,
//!                                                 offline for a
//!                                                 registered model)
//!                                spectra ─┐
//!                                respond ◄┘      (W requests × a slice
//!                                                 of units)
//! unseal ◄───────────── blobs ── respond
//! ```
//!
//! * **seal** — share tiles → `Poly::from_signed` → one batched
//!   encryption per [`KEY_BATCH`] chunk, each `a` expanded from a fresh
//!   seed → uploads of `c0` ‖ seed, handed to the caller's sink so only a
//!   chunk of ciphertexts is alive at a time.
//! * **open** — deserialize `c0`, expand `a` from the seed, validate,
//!   fold the server's share tile in.
//! * **respond** — splits where the Flash CPU protocol splits:
//!   [`HconvServer::prepare_units`] does everything that depends on the
//!   *weights only* for one output-channel pack (encode, the noise-guard
//!   verdict, the forward weight transforms); [`HconvServer::respond`]
//!   does the per-request work against a slice of prepared units at
//!   width `W = requests.len()` — MAC against the activation spectra of
//!   one [`HconvServer::spectra`] sweep, one batched inverse, then, at
//!   the coefficients the band's outputs sit at only, the mask and the
//!   server-share rows; the response carries `c0` there and all of `c1`,
//!   each at its agreed truncation.
//! * **unseal** — deserialize into a `c0` that is zero off the output
//!   coefficients (undoing the agreed truncation), then decrypt only
//!   those coefficients, straight into the output share: row by row
//!   against the key for a chunk of sparse responses, one full batched
//!   key product for a chunk holding a dense one.
//!
//! [`crate::ConvProtocol`] pairs the stages in process at `W = 1`,
//! preparing units per pack inside its fan-out and dropping them after
//! the MAC; `flash-serve` prepares every pack once at
//! registration and responds to coalesced tickets at `W ≥ 1`. Both
//! prepare the same units: an exact-NTT unit always carries its Shoup
//! constants, so every ct⊠pt product of the tree runs the one sequence
//! activation spectra → weight preparation → MAC → one batched inverse.
//!
//! # Partition
//!
//! [`HconvLayer::new`] picks the layer's `(C_w, M_w)` — input channels
//! per group, output channels per pack ([`ConvEncoder::partitions`]) —
//! with the fewest wire bytes of one request ([`wire_bytes`]): uploads
//! priced at [`serialize::upload_len`], responses at
//! [`serialize::response_len`] of each unit's output count at the
//! agreed truncation. Ties go to the unpacked plan of
//! [`ConvEncoder::new`].
//!
//! A packed weight polynomial holds `M_w` kernels, so its `ℓ1` and `Σw²`
//! — and its units' noise bound — grow with `M_w`. The weight holder
//! therefore has the last word: [`HconvServer::guarded`] serves the
//! unpacked plan ([`HconvLayer::unpacked`]) instead when the guard ranks
//! it better (spectral, then falling back, then overflowing), so packing
//! never adds a fallback or a refusal. The partition served is announced
//! to the client, which plans at it ([`HconvLayer::with_partition`]).
//!
//! # Noise guard
//!
//! [`HconvServer::prepare_units`] composes, per output-channel pack, the
//! worst-case decryption-noise bound of the exact pipeline
//! ([`conv_pack_noise_bound`]) and, on an approximate backend, adds the
//! analytical error bound of the transform
//! ([`flash_he::backend::ApproxErrorModel`]). The bound is priced from
//! kernel norms ([`ConvEncoder::pack_norms`]: `ℓ1` and `Σw²` per channel
//! group, integer sums over the pack's `M_w·C_w·k²` taps, no polynomial
//! built), and every band of a pack holds the same taps, so the verdict
//! is one per pack. A pack whose total crosses `margin × q/(2t)` has
//! every unit become [`UnitWeights::Fallback`], answered on the exact
//! coefficient-domain path of its ring family; if even the exact bound
//! overflows the ceiling, preparation fails with
//! [`HeError::NoiseOverflow`] instead of decrypting garbage.
//! [`HconvServer::guarded`] and [`HconvServer::any_spectral`] read the
//! same per-pack verdicts.

use crate::error::FlashError;
use crate::shares::ShareRing;
use flash_he::backend::{weight_residue_shoups, ActivationSpectra, BandAccumulator, WeightShoups};
use flash_he::encoding::{ConvEncoder, ConvShape};
use flash_he::keys::KEY_BATCH;
use flash_he::noise::NoiseBound;
use flash_he::truncate::TruncatedCiphertext;
use flash_he::{serialize, Ciphertext, HeError, HeParams, Poly, PolyMulBackend, SecretKey};
use flash_math::C64;
use flash_sparse::{SparsePlan, SparsityPattern};
use rand::Rng;
use std::borrow::Cow;
use std::sync::{Arc, Mutex};

/// What both parties of one convolution layer agree on: parameters,
/// tiling, share ring and response truncation — the client half of the
/// pipeline and the server's **open** need nothing else.
#[derive(Debug, Clone)]
pub struct HconvLayer {
    params: HeParams,
    encoder: ConvEncoder,
    /// Per band, the response coefficients a full pack's outputs sit at
    /// ([`ConvEncoder::unit_positions`] of pack 0): the only coefficients
    /// of `c0` **respond** masks and sends and **unseal** decrypts. A
    /// partial pack's are a prefix.
    positions: Vec<Vec<usize>>,
    ring: ShareRing,
    pub(crate) truncation: Option<(u32, u32)>,
}

impl HconvLayer {
    /// Plans a (pre-padded, stride-1) convolution; `truncation` is the
    /// agreed `(d0, d1)` response compression, if any. The tiling is the
    /// compact layout's partition with the fewest wire bytes per request
    /// (see the module doc).
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a power of two ≥ 4 (share/plaintext rings must
    /// coincide).
    pub fn new(params: HeParams, shape: ConvShape, truncation: Option<(u32, u32)>) -> Self {
        let unpacked = ConvEncoder::new(shape, params.n);
        // `min_by_key` keeps the first of equal minima: the unpacked
        // plan, which `partitions` yields first.
        let partition = unpacked
            .partitions()
            .min_by_key(|&(cw, mw)| {
                let enc = unpacked.clone().with_partition(cw, mw);
                let (up, down) = wire_bytes(&enc, &params, truncation);
                up + down
            })
            .expect("every layout has its default partition");
        Self::with_partition(params, shape, truncation, partition)
    }

    /// Plans the layer at partition `(C_w, M_w)` — how a client plans at
    /// the partition the server announced.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a power of two ≥ 4, or unless the partition
    /// is one of [`ConvEncoder::partitions`] of the shape at `N`.
    pub fn with_partition(
        params: HeParams,
        shape: ConvShape,
        truncation: Option<(u32, u32)>,
        (cw, mw): (usize, usize),
    ) -> Self {
        let l = params.t.trailing_zeros();
        assert!(params.t.is_power_of_two() && l >= 2, "t must be 2^l");
        let encoder = ConvEncoder::new(shape, params.n).with_partition(cw, mw);
        HconvLayer {
            positions: (0..encoder.bands())
                .map(|b| encoder.unit_positions(b).collect())
                .collect(),
            encoder,
            ring: ShareRing::new(l),
            params,
            truncation,
        }
    }

    /// The same layer at [`ConvEncoder::new`]'s partition: the most input
    /// channels per group, one output channel per pack.
    pub fn unpacked(&self) -> Self {
        let unpacked = ConvEncoder::new(*self.encoder.shape(), self.params.n);
        let partition = (unpacked.channels_per_group(), unpacked.channels_per_pack());
        Self::with_partition(
            self.params.clone(),
            *unpacked.shape(),
            self.truncation,
            partition,
        )
    }

    /// `(C_w, M_w)`: input channels per group, output channels per pack.
    pub fn partition(&self) -> (usize, usize) {
        (
            self.encoder.channels_per_group(),
            self.encoder.channels_per_pack(),
        )
    }

    /// The BFV parameters.
    pub fn params(&self) -> &HeParams {
        &self.params
    }

    /// The tiling plan.
    pub fn encoder(&self) -> &ConvEncoder {
        &self.encoder
    }

    /// The share ring `Z_{2^l}`.
    pub fn ring(&self) -> ShareRing {
        self.ring
    }

    /// The agreed response truncation.
    pub fn truncation(&self) -> Option<(u32, u32)> {
        self.truncation
    }

    /// The response coefficients unit `u = pack·bands + b`'s outputs sit
    /// at, in [`ConvEncoder::unit_output_range`] order.
    fn positions(&self, u: usize) -> &[usize] {
        let len = self.encoder.unit_output_range(u).len();
        &self.positions[u % self.encoder.bands()][..len]
    }

    /// Client **seal** of one activation share: encodes it into the
    /// layer's [`ConvEncoder::activation_polys`] tiles, encrypts them one
    /// batched key product per [`KEY_BATCH`] chunk with each `a` expanded
    /// from a fresh seed ([`SecretKey::encrypt_batch_seeded`]), and hands
    /// each upload — `c0` ‖ the seed, [`serialize::upload_to_bytes`] — to
    /// `sink` in tile order.
    ///
    /// # Errors
    ///
    /// Whatever `sink` returns.
    ///
    /// # Panics
    ///
    /// Panics if `share.len()` differs from the layer's input size.
    pub fn seal<R: Rng, E>(
        &self,
        sk: &SecretKey,
        share: &[u64],
        rng: &mut R,
        mut sink: impl FnMut(Vec<u8>) -> Result<(), E>,
    ) -> Result<(), E> {
        let tiles = {
            let _t = flash_telemetry::span!("hconv.encode");
            let signed: Vec<i64> = share.iter().map(|&v| v as i64).collect();
            self.encoder.encode_activation(&signed)
        };
        let t = self.params.t;
        for chunk in tiles.chunks(KEY_BATCH) {
            let cts = {
                let _t = flash_telemetry::span!("hconv.encode");
                let ms: Vec<Poly> = chunk
                    .iter()
                    .map(|tile| Poly::from_signed(tile, t))
                    .collect();
                sk.encrypt_batch_seeded(&ms, rng)
            };
            let _t = flash_telemetry::span!("hconv.wire_serialize");
            for (ct, seed) in &cts {
                sink(serialize::upload_to_bytes(ct.c0(), seed))?;
            }
        }
        Ok(())
    }

    /// Server **open** of one upload: deserializes one blob per tile —
    /// `c0`, then the seed `c1 = a` is expanded from
    /// ([`serialize::upload_from_bytes`]) — validates it, and folds the
    /// matching tile of the server's activation share into it.
    ///
    /// # Errors
    ///
    /// The first error `blobs` yields, or the [`FlashError`] of a blob
    /// that fails deserialization or scheme-level validation.
    ///
    /// # Panics
    ///
    /// Panics if `server_share.len()` differs from the layer's input size
    /// or `blobs` is shorter than [`ConvEncoder::activation_polys`] (the
    /// caller checks the count of a wire message before opening it).
    pub fn open<B: AsRef<[u8]>, E: From<FlashError>>(
        &self,
        server_share: &[i64],
        blobs: impl IntoIterator<Item = Result<B, E>>,
    ) -> Result<Vec<Ciphertext>, E> {
        let p = &self.params;
        let tiles = self.encoder.encode_activation(server_share);
        let cts = tiles
            .iter()
            .zip(blobs)
            .map(|(tile, bytes)| {
                let mut ct = serialize::upload_from_bytes(bytes?.as_ref(), p.n, p.q)
                    .map_err(FlashError::from)?;
                ct.validate_for(p).map_err(FlashError::from)?;
                ct.add_plain_assign(&Poly::from_signed(tile, p.t), p);
                Ok(ct)
            })
            .collect::<Result<Vec<_>, E>>()?;
        assert_eq!(cts.len(), tiles.len(), "one upload blob per tile");
        Ok(cts)
    }

    /// Client **unseal** of one response (one blob per unit
    /// `u = pack·bands + b`): deserializes each blob — `c0` at the unit's
    /// output coefficients ‖ all of `c1`, undoing the agreed truncation —
    /// into a ciphertext whose `c0` is zero elsewhere, and decrypts only
    /// those coefficients, straight into unit `u`'s rows of the output share
    /// (one [`SecretKey::decrypt_coeffs_into`] per [`KEY_BATCH`] chunk
    /// of units, which picks row extraction or one full batched key
    /// product for the chunk by count). Chunks own disjoint windows of
    /// the share and run in parallel.
    ///
    /// # Errors
    ///
    /// [`FlashError`] when a blob fails deserialization (including a
    /// length other than its band's wire form) or decryption validation.
    ///
    /// # Panics
    ///
    /// Panics unless `blobs` holds one blob per `(pack, band)` unit.
    pub fn unseal<B: AsRef<[u8]> + Sync>(
        &self,
        sk: &SecretKey,
        blobs: &[B],
    ) -> Result<Vec<u64>, FlashError> {
        let (p, enc) = (&self.params, &self.encoder);
        assert_eq!(blobs.len(), enc.result_polys(), "one blob per unit");
        let positions = |u: usize| self.positions(u);
        // Unit ranges tile the output tensor in unit order, so a chunk's
        // rows are one window. Each window sits behind an (uncontended)
        // mutex so the parallel closure can borrow it mutably.
        let mut y = vec![0u64; enc.shape().output_len()];
        let mut windows = Vec::with_capacity(blobs.len().div_ceil(KEY_BATCH));
        let mut rest = &mut y[..];
        for k0 in (0..blobs.len()).step_by(KEY_BATCH) {
            let ks = k0..(k0 + KEY_BATCH).min(blobs.len());
            let len = ks.clone().map(|u| positions(u).len()).sum();
            let (rows, tail) = rest.split_at_mut(len);
            windows.push(Mutex::new((ks, rows)));
            rest = tail;
        }
        flash_runtime::parallel_map(&windows, |window| {
            let mut window = window.lock().expect("each window is locked once");
            let (ks, rows) = &mut *window;
            let cts = {
                let _t = flash_telemetry::span!("hconv.deserialize");
                blobs[ks.clone()]
                    .iter()
                    .zip(ks.clone())
                    .map(|(bytes, u)| {
                        TruncatedCiphertext::response_from_bytes_at(
                            bytes.as_ref(),
                            positions(u).iter().copied(),
                            self.truncation,
                            p,
                        )
                    })
                    .collect::<Result<Vec<Ciphertext>, _>>()?
            };
            let _t = flash_telemetry::span!("hconv.decrypt");
            let pos: Vec<&[usize]> = ks.clone().map(positions).collect();
            sk.decrypt_coeffs_into(&cts, &pos, rows)?;
            Ok(())
        })
        .into_iter()
        .collect::<Result<(), FlashError>>()?;
        drop(windows);
        Ok(y)
    }
}

/// How the noise guard treats a whole layer, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Verdict {
    /// Every unit runs on the spectral path.
    Spectral,
    /// Some unit takes the exact fallback.
    Fallback,
    /// Some unit's exact-path bound overflows the ceiling.
    Overflow,
}

/// One `(pack, band)` unit's prepared weights: everything **respond**
/// needs from the weight side, in the domain its MAC runs in.
#[derive(Debug, Clone)]
pub enum UnitWeights {
    /// FFT-family spectra, `groups × N/2` concatenated.
    Fft(Vec<C64>),
    /// Exact-NTT residues, `groups × N`, with the Shoup constant of
    /// every coefficient in a split stream — the request-path MAC costs
    /// two multiplies per coefficient and defers all reductions to one
    /// Barrett drain.
    Ntt(WeightShoups),
    /// The noise guard demands the exact coefficient-domain path; holds
    /// the band's weight polynomial of every channel group (no transform
    /// runs, forward or inverse).
    Fallback(Vec<Vec<i64>>),
}

/// How one pack's units were prepared, in units (multiply by
/// [`ConvEncoder::groups`] for transform counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnitCounts {
    /// Units whose weight transforms ran on a sparse µop tape.
    pub sparse: usize,
    /// Units pinned to the exact fallback.
    pub fallback: usize,
}

/// One request's answer to a slice of units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// One serialized response per unit: `c0` at its band's output
    /// coefficients ‖ all of `c1`, at the agreed truncation.
    pub blobs: Vec<Vec<u8>>,
    /// The server's output share over the slice's (contiguous) rows.
    pub server_share: Vec<u64>,
}

/// The server half of the pipeline for one layer: the shared
/// [`HconvLayer`] plus what only the weight holder decides.
#[derive(Debug, Clone)]
pub struct HconvServer {
    pub(crate) layer: HconvLayer,
    pub(crate) backend: PolyMulBackend,
    /// Per band, the compiled sparse tape its weight transforms take
    /// (FLASH's sparse dataflow), or `None` for the dense kernels. Plans
    /// are structural — a full pack's pattern covers a partial one's —
    /// so every pack shares them.
    band_plans: Vec<Option<Arc<SparsePlan>>>,
    /// Noise-guard threshold as a fraction of the decryption ceiling.
    pub(crate) noise_margin: f64,
}

/// The noise-guard margin every protocol builder starts from: a unit
/// falls back to the exact path once its composed bound reaches the full
/// decryption ceiling `q/(2t)`.
pub const DEFAULT_NOISE_MARGIN: f64 = 1.0;

impl HconvServer {
    /// Binds a backend and the guard margin to a layer, and resolves each
    /// band's weight-transform route: the interned tape when the backend
    /// is FFT-family (modular spectra have no tape) and the pattern is
    /// sparse enough to win ([`SparsePlan::worthwhile`]); the dense
    /// kernels otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the backend and the ring family disagree
    /// ([`PolyMulBackend::assert_ring`]: `Ntt` needs a prime ciphertext
    /// modulus, `Pow2` and `ApproxFft` a power-of-two one).
    pub fn new(layer: HconvLayer, backend: PolyMulBackend, noise_margin: f64) -> Self {
        backend.assert_ring(&layer.params);
        let enc = &layer.encoder;
        let taped = !matches!(backend, PolyMulBackend::Ntt);
        let band_plans = (0..enc.bands())
            .map(|b| {
                taped
                    .then(|| conv_band_plan(enc, layer.params.n, b))
                    .filter(|plan| plan.worthwhile())
            })
            .collect();
        HconvServer {
            layer,
            backend,
            band_plans,
            noise_margin,
        }
    }

    /// The shared layer context.
    pub fn layer(&self) -> &HconvLayer {
        &self.layer
    }

    /// The composed noise of every unit of pack `pack` (`weights` is the
    /// full `m×c×k×k` tensor): the exact-pipeline bound and, on an
    /// approximate backend, the transform's phase-error bound on top
    /// (`None` for the backends that are exact in the protocol's regime).
    /// Priced from the pack's kernel norms ([`ConvEncoder::pack_norms`]);
    /// every band of the pack shares it.
    ///
    /// # Panics
    ///
    /// Panics on a weight-size mismatch with the planned shape.
    pub fn pack_noise(&self, weights: &[i64], pack: usize) -> (NoiseBound, Option<f64>) {
        let p = &self.layer.params;
        let norms = self.layer.encoder.pack_norms(weights, pack);
        let (noise, w_sq) = conv_pack_noise_bound(p, &norms, self.layer.truncation);
        let err = self
            .backend
            .error_model(p)
            .map(|model| model.phase_error_bound(p, w_sq, norms.len()));
        (noise, err)
    }

    /// The guard's verdict on pack `pack`: `Ok(true)` when its units
    /// must take the exact fallback.
    ///
    /// # Errors
    ///
    /// [`HeError::NoiseOverflow`] when even the exact-path bound
    /// overflows the decryption ceiling.
    fn falls_back(&self, weights: &[i64], pack: usize) -> Result<bool, HeError> {
        let (noise, err) = self.pack_noise(weights, pack);
        noise.check()?;
        // An NTT unit accumulates one lazy (unreduced, < 2q) Shoup
        // product per group before its single Barrett drain, so the
        // group count must fit the u64 headroom ⌊(2^64−1)/2q⌋.
        // Unreachable for any practical q, but a violation would wrap
        // silently, so such a unit takes the exact fallback too.
        let is_ntt = matches!(self.backend, PolyMulBackend::Ntt);
        let groups = self.layer.encoder.groups() as u128;
        let lazy_wraps = groups * 2 * self.layer.params.q as u128 > u64::MAX as u128;
        let approx_trips =
            err.is_some_and(|e| noise.bound() + e >= self.noise_margin * noise.ceiling());
        Ok(approx_trips || (is_ntt && lazy_wraps))
    }

    /// The server `weights` are answered on: `self`, unless the noise
    /// guard ranks its layer's plan worse than the unpacked one
    /// ([`HconvLayer::unpacked`]) — spectral beats falling back, which
    /// beats overflowing — and then the same server at the unpacked
    /// plan. A packed polynomial's `ℓ1` and `Σw²` grow with `M_w`, so this
    /// keeps packing from turning a layer the unpacked plan serves
    /// spectrally into fallbacks, or one it serves at all into a
    /// [`HeError::NoiseOverflow`]; where both plans rank alike, bytes
    /// decide.
    ///
    /// # Panics
    ///
    /// Panics on a weight-size mismatch with the planned shape.
    pub fn guarded(&self, weights: &[i64]) -> Cow<'_, HconvServer> {
        let enc = &self.layer.encoder;
        if *enc == ConvEncoder::new(*enc.shape(), enc.degree()) {
            return Cow::Borrowed(self);
        }
        let packed = self.verdict(weights);
        if packed == Verdict::Spectral {
            return Cow::Borrowed(self);
        }
        let unpacked = HconvServer::new(
            self.layer.unpacked(),
            self.backend.clone(),
            self.noise_margin,
        );
        if unpacked.verdict(weights) < packed {
            Cow::Owned(unpacked)
        } else {
            Cow::Borrowed(self)
        }
    }

    /// The guard's verdict on every pack of the layer, in pack order
    /// (see [`HconvServer::falls_back`]); pricing reads kernel norms only,
    /// as far as the iterator is drawn.
    fn pack_verdicts<'a>(
        &'a self,
        weights: &'a [i64],
    ) -> impl Iterator<Item = Result<bool, HeError>> + 'a {
        (0..self.layer.encoder.packs()).map(move |pack| self.falls_back(weights, pack))
    }

    /// The guard's worst verdict over every unit of the layer.
    fn verdict(&self, weights: &[i64]) -> Verdict {
        self.pack_verdicts(weights)
            .map(|unit| match unit {
                Err(_) => Verdict::Overflow,
                Ok(true) => Verdict::Fallback,
                Ok(false) => Verdict::Spectral,
            })
            .max()
            .unwrap_or(Verdict::Spectral)
    }

    /// Whether the guard keeps some unit of the layer on the spectral
    /// path for `weights` — when none, [`HconvServer::respond`] needs no
    /// activation spectra and the caller skips the sweep.
    pub fn any_spectral(&self, weights: &[i64]) -> bool {
        self.pack_verdicts(weights)
            .any(|pack| matches!(pack, Ok(false)))
    }

    /// All weight-only work of output-channel pack `pack`: runs the noise
    /// guard on the pack's kernel norms (`weights` is the full `m×c×k×k`
    /// tensor), encodes its kernels ([`ConvEncoder::encode_pack`]) and,
    /// unless the guard pins the pack to the exact fallback, transforms
    /// each band's group polynomials —
    /// through the band's interned sparse tape when
    /// [`SparsePlan::worthwhile`], the dense batched kernels otherwise.
    /// Returns the pack's units in band order.
    ///
    /// # Errors
    ///
    /// [`HeError::NoiseOverflow`] when a band's exact-path bound overflows
    /// the decryption ceiling.
    ///
    /// # Panics
    ///
    /// Panics on a weight-size mismatch with the planned shape.
    pub fn prepare_units(
        &self,
        weights: &[i64],
        pack: usize,
    ) -> Result<(Vec<UnitWeights>, UnitCounts), HeError> {
        let p = &self.layer.params;
        let enc = &self.layer.encoder;
        let fallback = self.falls_back(weights, pack)?;
        let mut w_polys = enc.encode_pack(weights, pack);
        let groups = w_polys.len();
        let is_ntt = matches!(self.backend, PolyMulBackend::Ntt);
        let mut counts = UnitCounts::default();
        let mut units = Vec::with_capacity(enc.bands());
        for b in 0..enc.bands() {
            if fallback {
                counts.fallback += 1;
                let polys = w_polys.iter_mut().map(|wp| std::mem::take(&mut wp[b]));
                units.push(UnitWeights::Fallback(polys.collect()));
                continue;
            }
            let ws: Vec<&[i64]> = w_polys.iter().map(|wp| wp[b].as_slice()).collect();
            let _t = flash_telemetry::span!("hconv.weight_transform");
            units.push(if is_ntt {
                UnitWeights::Ntt(weight_residue_shoups(&ws, p.ntt()))
            } else {
                let mut fw = vec![C64::ZERO; groups * (p.n / 2)];
                match &self.band_plans[b] {
                    Some(plan) => {
                        plan.execute_batch_into(ws.iter().copied(), &mut fw);
                        counts.sparse += 1;
                    }
                    None => self.backend.weight_spectra_into(&ws, &mut fw, p.fft()),
                }
                UnitWeights::Fft(fw)
            });
        }
        Ok((units, counts))
    }

    /// Forward-transforms both components of every request's ciphertexts
    /// in one batched sweep; the spectra are shared by every
    /// [`HconvServer::respond`] call over the same `requests`.
    pub fn spectra(&self, requests: &[&[Ciphertext]]) -> ActivationSpectra {
        self.backend
            .activation_spectra_multi(requests, &self.layer.params)
    }

    /// Server **respond**: answers every request of the batch for the
    /// consecutive units `first_unit .. first_unit + units.len()` (unit
    /// `u = pack·bands + b`). `act` is [`HconvServer::spectra`] of the same
    /// `requests`, or `None` when no unit is spectral (every unit answers
    /// on the exact fallback, which reads the ciphertexts themselves);
    /// `seed_of(request, unit)` names the output-mask seed.
    ///
    /// Spectral units accumulate request → group → unit-innermost: one
    /// ciphertext slice of the shared batch stays cache-hot while every
    /// unit MACs against it, and each accumulator still sees its groups in
    /// increasing order, so the result does not depend on how units are
    /// sliced or requests batched. NTT accumulators live in one contiguous
    /// buffer that the batched inverse consumes in place, request by
    /// request (one request's accumulators fit L2; a whole batch's do
    /// not); FFT accumulators of the whole batch close through one
    /// inverse call.
    ///
    /// Each response is then masked at its unit's output coefficients
    /// only (`mask_at` per position; the server's share rows are those
    /// draws), and carries `c0` at those coefficients and all of `c1`
    /// ([`TruncatedCiphertext::response_to_bytes`]). The `c0`
    /// coefficients that stay behind hold partial sums of the weights the
    /// client never needed.
    ///
    /// **Security (not enforced):** `c1` is never re-randomized. It is
    /// `Σ_g a_g·w_g` over the client's own uniform `a_g` (the mask and
    /// the server's share touch only `c0`), so a client that keeps its
    /// `a_g` can solve for a band's weights — directly when the band has
    /// one channel group and `a_g` is invertible. Closing that needs a
    /// fresh encryption of zero plus noise flooding per response, which
    /// this pipeline does not do.
    ///
    /// # Panics
    ///
    /// Panics if a request's ciphertext count is not
    /// [`ConvEncoder::activation_polys`], or `act` is `None` while a unit
    /// is spectral or of another domain than the units.
    pub fn respond(
        &self,
        act: Option<&ActivationSpectra>,
        requests: &[&[Ciphertext]],
        first_unit: usize,
        units: &[UnitWeights],
        seed_of: impl Fn(usize, usize) -> u64,
    ) -> Vec<Response> {
        let p = &self.layer.params;
        let enc = &self.layer.encoder;
        let (n, bands, groups) = (p.n, enc.bands(), enc.groups());
        let two_n = 2 * n;
        let band_of = |slot: usize| (first_unit + slot) % bands;
        let act = || act.expect("a spectral unit needs the activation spectra");

        let ntt_slots: Vec<usize> = (0..units.len())
            .filter(|&s| matches!(units[s], UnitWeights::Ntt(_)))
            .collect();
        let fft_slots: Vec<usize> = (0..units.len())
            .filter(|&s| matches!(units[s], UnitWeights::Fft(_)))
            .collect();
        let mut resolved: Vec<Vec<Option<Ciphertext>>> =
            requests.iter().map(|_| vec![None; units.len()]).collect();
        let mut ntt_buf = vec![0u64; requests.len() * ntt_slots.len() * two_n];
        let mut fft_accs: Vec<BandAccumulator> = Vec::new();
        let mut offset = 0usize;
        for (ri, cts) in requests.iter().enumerate() {
            assert_eq!(cts.len(), groups * bands, "request ciphertext count");
            for (slot, unit) in units.iter().enumerate() {
                if let UnitWeights::Fallback(polys) = unit {
                    // Exact coefficient-domain path (ring-dispatched);
                    // consumes the request's own ciphertexts, not the
                    // hoisted spectra.
                    let mut acc = Ciphertext::zero(n, p.q);
                    for (g, w) in polys.iter().enumerate() {
                        cts[g * bands + band_of(slot)].mul_plain_signed_acc_exact(w, p, &mut acc);
                    }
                    resolved[ri][slot] = Some(acc);
                }
            }
            let rbuf = &mut ntt_buf[ri * ntt_slots.len() * two_n..][..ntt_slots.len() * two_n];
            for g in 0..groups {
                for (k, &slot) in ntt_slots.iter().enumerate() {
                    let idx = offset + g * bands + band_of(slot);
                    let acc = &mut rbuf[k * two_n..][..two_n];
                    let UnitWeights::Ntt(r) = &units[slot] else {
                        unreachable!("ntt_slots holds only NTT units");
                    };
                    act().mac_ntt_shoup_lazy_into(
                        idx,
                        &r.w[g * n..][..n],
                        &r.shoup[g * n..][..n],
                        p.ntt(),
                        acc,
                    );
                }
            }
            for &slot in &fft_slots {
                let UnitWeights::Fft(spectra) = &units[slot] else {
                    unreachable!("fft_slots holds only FFT units");
                };
                let mut acc = act().accumulator(n);
                for (g, fw) in spectra.chunks_exact(n / 2).enumerate() {
                    act().mac_fft(offset + g * bands + band_of(slot), fw, &mut acc);
                }
                fft_accs.push(acc);
            }
            offset += cts.len();
        }
        if !ntt_slots.is_empty() {
            for (ri, rbuf) in ntt_buf.chunks_mut(ntt_slots.len() * two_n).enumerate() {
                let closed = BandAccumulator::finish_ntt_bands_in_place(rbuf, p);
                for (&slot, ct) in ntt_slots.iter().zip(closed) {
                    resolved[ri][slot] = Some(ct);
                }
            }
        }
        let closed = BandAccumulator::finish_bands(fft_accs, p);
        for (i, ct) in closed.into_iter().enumerate() {
            resolved[i / fft_slots.len()][fft_slots[i % fft_slots.len()]] = Some(ct);
        }

        // Mask where the outputs sit, keep the server's share rows,
        // serialize `c0` there and all of `c1`.
        let unit_range = |slot: usize| enc.unit_output_range(first_unit + slot);
        let rows = match units.len() {
            0 => 0..0,
            len => unit_range(0).start..unit_range(len - 1).end,
        };
        resolved
            .into_iter()
            .enumerate()
            .map(|(ri, unit_cts)| {
                let mut server_share = vec![0u64; rows.len()];
                let blobs = unit_cts
                    .into_iter()
                    .enumerate()
                    .map(|(slot, ct)| {
                        let mut ct = ct.expect("every unit resolved above");
                        let seed = seed_of(ri, first_unit + slot);
                        let positions = self.layer.positions(first_unit + slot);
                        let r = unit_range(slot);
                        let mask = &mut server_share[r.start - rows.start..r.end - rows.start];
                        for (m, &i) in mask.iter_mut().zip(positions) {
                            *m = mask_at(seed, i, p.t);
                        }
                        ct.sub_plain_at(positions, mask, p);
                        let _t = flash_telemetry::span!("hconv.truncate_serialize");
                        TruncatedCiphertext::response_to_bytes(
                            &ct,
                            positions.iter().copied(),
                            self.layer.truncation,
                        )
                    })
                    .collect();
                Response {
                    blobs,
                    server_share,
                }
            })
            .collect()
    }
}

/// The worst-case decryption-noise bound of every `(pack, band)` response
/// of one pack on the exact pipeline — fresh encryption, server share
/// fold, one weight multiply per channel group accumulated into the
/// response, the output mask, and the agreed truncation — plus the total
/// `Σw²` of the pack's weights (the input to
/// [`flash_he::backend::ApproxErrorModel`]).
///
/// `norms` is the pack's [`ConvEncoder::pack_norms`]: per channel group,
/// the `(ℓ1, Σw²)` of the polynomial holding every kernel of the pack, so
/// both grow with `M_w`. The bound depends only on the weights, which is
/// why the guard sits in [`HconvServer::prepare_units`].
pub fn conv_pack_noise_bound(
    params: &HeParams,
    norms: &[(f64, f64)],
    truncation: Option<(u32, u32)>,
) -> (NoiseBound, f64) {
    let base = NoiseBound::fresh(params).after_plain_add();
    let mut acc: Option<NoiseBound> = None;
    let mut w_sq = 0.0;
    for &(l1, sq) in norms {
        w_sq += sq;
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
/// structural, the union of a full pack's kernel slots, shared by every
/// pack of the layer — folded into the `n/2`-slot negacyclic FFT domain,
/// so all `(pack, group)` jobs of a band share one interned tape. Callers decide
/// between the tape and the dense path via [`SparsePlan::worthwhile`].
pub fn conv_band_plan(encoder: &ConvEncoder, n: usize, b: usize) -> Arc<SparsePlan> {
    let half = n / 2;
    let mut mask = vec![false; half];
    for idx in encoder.weight_indices(b) {
        mask[idx % half] = true;
    }
    SparsePlan::shared(&SparsityPattern::from_mask(mask))
}

/// `(upload, download)` payload bytes of one request against `enc` —
/// what [`HconvLayer::new`] minimises over the partitions: every upload
/// at [`serialize::upload_len`], every unit's response at
/// [`serialize::response_len`] of its output count.
pub fn wire_bytes(
    enc: &ConvEncoder,
    p: &HeParams,
    truncation: Option<(u32, u32)>,
) -> (usize, usize) {
    let response =
        |u: usize| serialize::response_len(p.n, p.q, enc.unit_output_range(u).len(), truncation);
    // Every pack but the last is full, so it costs what pack 0 does.
    let (packs, bands) = (enc.packs(), enc.bands());
    let last = (packs - 1) * bands;
    let down = (0..bands)
        .map(|b| (packs - 1) * response(b) + response(last + b))
        .sum();
    (
        enc.activation_polys() * serialize::upload_len(p.n, p.q),
        down,
    )
}

/// `splitmix64` finalizer: a full-avalanche 64-bit mixer.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The output-mask seed of one `(session, request, unit)` triple, for
/// callers that multiplex sessions.
///
/// [`crate::ConvProtocol`] draws its mask seeds from the run's RNG
/// stream; a server multiplexing many sessions cannot — the draw order
/// would depend on batch composition and worker scheduling. Deriving each
/// seed from the coordinates instead makes every mask independent of
/// ordering, so any batch width and worker count produce bit-identical
/// shares.
pub fn mask_seed(server_seed: u64, session_id: u32, req_id: u64, unit: usize) -> u64 {
    let mut h = mix64(server_seed ^ 0x464C_4153_4856_3031); // "FLASHV01"
    h = mix64(h ^ u64::from(session_id));
    h = mix64(h ^ req_id);
    mix64(h ^ unit as u64)
}

/// Coefficient `i` of the output mask `seed` expands to, in `[0, t)`.
///
/// The mask is a splitmix64 counter stream — coefficient `i` is the
/// `(i+1)`-th output, one `mix64` of `seed + (i+1)·GOLDEN` — so any
/// coefficient is drawn alone: **respond** draws only the positions a
/// response's outputs sit at. The range map is Lemire's multiply-shift:
/// two multiplies per coefficient, versus keying a full `StdRng` per unit
/// and paying a `u128 %` per draw. The draw is a pure function of its
/// inputs, so every batch width and worker count draws bit-identical
/// masks. The multiply-shift has bias ≤ `t / 2^64` — below `2^-47` for
/// every supported plaintext modulus, immaterial for the share-hiding
/// role the masks play in this reproduction.
pub fn mask_at(seed: u64, i: usize, t: u64) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let z = mix64(seed.wrapping_add((i as u64 + 1).wrapping_mul(GOLDEN)));
    ((z as u128 * t as u128) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_he::serialize::WireError;
    use rand::SeedableRng;

    /// A small layer on each ring and one client share of its input.
    fn layers() -> Vec<(HconvLayer, Vec<u64>)> {
        let shape = ConvShape {
            c: 4,
            h: 16,
            w: 16,
            m: 2,
            k: 3,
        };
        [HeParams::test_256(), HeParams::pow2_test_256()]
            .into_iter()
            .map(|p| {
                let layer = HconvLayer::new(p, shape, None);
                let share = (0..shape.input_len() as u64)
                    .map(|i| (i * 7919) % layer.params().t)
                    .collect();
                (layer, share)
            })
            .collect()
    }

    fn seal_blobs(
        layer: &HconvLayer,
        sk: &SecretKey,
        share: &[u64],
        rng: &mut impl Rng,
    ) -> Vec<Vec<u8>> {
        let mut blobs = Vec::new();
        layer
            .seal(sk, share, rng, |b| {
                blobs.push(b);
                Ok::<_, FlashError>(())
            })
            .unwrap();
        blobs
    }

    #[test]
    fn every_upload_seed_is_fresh_within_and_across_seals() {
        for (layer, share) in layers() {
            let p = layer.params().clone();
            let mut rng = rand::rngs::StdRng::seed_from_u64(31);
            let sk = SecretKey::generate(&p, &mut rng);
            let mut blobs = seal_blobs(&layer, &sk, &share, &mut rng);
            let per_seal = blobs.len();
            assert!(per_seal > 1, "the layer needs several uploads");
            blobs.extend(seal_blobs(&layer, &sk, &share, &mut rng));
            let mut seeds: Vec<&[u8]> = blobs
                .iter()
                .map(|b| {
                    assert_eq!(b.len(), serialize::upload_len(p.n, p.q));
                    &b[b.len() - flash_he::keys::SEED_BYTES..]
                })
                .collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), 2 * per_seal, "q = {}", p.q);
        }
    }

    #[test]
    fn open_refuses_a_mutated_upload_typed() {
        for (layer, share) in layers() {
            let p = layer.params().clone();
            let mut rng = rand::rngs::StdRng::seed_from_u64(32);
            let sk = SecretKey::generate(&p, &mut rng);
            let blobs = seal_blobs(&layer, &sk, &share, &mut rng);
            let server_share = vec![0i64; share.len()];
            let open = |blobs: &[Vec<u8>]| {
                layer.open(&server_share, blobs.iter().map(Ok::<_, FlashError>))
            };
            assert!(open(&blobs).is_ok());
            let last = blobs.len() - 1;
            let mut short = blobs.clone();
            short[last].pop();
            let mut long = blobs.clone();
            long[0].push(0);
            let mut unreduced = blobs.clone();
            unreduced[last][..8].fill(0xFF);
            for (bad, want) in [
                (short, WireError::Truncated),
                (long, WireError::TrailingBytes { extra: 1 }),
                (unreduced, WireError::CoefficientOutOfRange { index: 0 }),
            ] {
                assert!(
                    matches!(open(&bad), Err(FlashError::Wire(ref e)) if *e == want),
                    "q = {}: {want:?}",
                    p.q
                );
            }
            // A mutated seed is still a well-formed upload: it opens to
            // another `a`, and the client's decryption is what fails.
            let mut reseeded = blobs.clone();
            *reseeded[0].last_mut().unwrap() ^= 1;
            let (good, bad) = (open(&blobs).unwrap(), open(&reseeded).unwrap());
            assert_eq!(good[0].c0(), bad[0].c0());
            assert_ne!(good[0].c1(), bad[0].c1());
        }
    }

    /// The whole-polynomial mask as a sequential splitmix64 generator
    /// (the state advances by the golden gamma per draw): the stream
    /// [`mask_at`] reads at random.
    fn mask_coeffs(seed: u64, n: usize, t: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                ((mix64(state) as u128 * t as u128) >> 64) as u64
            })
            .collect()
    }

    fn expand(seed: u64, n: usize, t: u64) -> Vec<u64> {
        (0..n).map(|i| mask_at(seed, i, t)).collect()
    }

    #[test]
    fn mask_expansion_is_deterministic_and_in_range() {
        for t in [2u64, 1 << 13, 1 << 16, (1 << 36) - 5] {
            let a = expand(0xDEAD_BEEF, 257, t);
            assert_eq!(a, expand(0xDEAD_BEEF, 257, t));
            assert!(a.iter().all(|&v| v < t), "mask out of range for t={t}");
            assert_ne!(a, expand(0xDEAD_BEF0, 257, t), "seed separation");
        }
        // Masks should look like draws, not a constant: over 257 draws
        // from [0, 2^13) a repeated value is plausible, a single value
        // for all coefficients is not.
        let a = expand(7, 257, 1 << 13);
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn mask_at_reads_the_sequential_stream_at_every_position() {
        for n in [256usize, 1024, 4096] {
            for (seed, t) in [(0u64, 1u64 << 21), (0xDEAD_BEEF, 1 << 13), (u64::MAX, 3)] {
                let stream = mask_coeffs(seed, n, t);
                for (i, &want) in stream.iter().enumerate() {
                    assert_eq!(mask_at(seed, i, t), want, "n={n} seed={seed:#x} i={i}");
                }
            }
        }
    }

    #[test]
    fn mask_seeds_are_coordinate_separated() {
        let a = mask_seed(1, 2, 3, 4);
        assert_eq!(a, mask_seed(1, 2, 3, 4));
        assert_ne!(a, mask_seed(2, 2, 3, 4));
        assert_ne!(a, mask_seed(1, 3, 3, 4));
        assert_ne!(a, mask_seed(1, 2, 4, 4));
        assert_ne!(a, mask_seed(1, 2, 3, 5));
        // swapping coordinates must not collide
        assert_ne!(mask_seed(1, 2, 3, 4), mask_seed(1, 3, 2, 4));
    }
}
