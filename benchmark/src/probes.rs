//! Per-layer probes for the traced pass.
//!
//! Outside timing of one op sees one number. To say which layer a change
//! moved, the traced pass replays the op's tile counts through the same
//! public functions the op reaches internally — client encode/encrypt,
//! decrypt/decode, the spectral MAC, the batched transforms, the sparse
//! tape, one framed wire round trip — and times each on its own. The sum
//! of probe time × count against the op's CPU time is the part outside
//! timing can attribute; the rest is `trace.unattributed_ratio`.

use crate::stats::median;
use crate::trace::Tracer;
use flash_2pc::{conv_band_plan, InMemoryTransport, ProtocolStats, Transport, TransportConfig};
use flash_accel::config::FlashConfig;
use flash_fft::fixed_fft::FixedNegacyclicFft;
use flash_fft::NegacyclicFft;
use flash_he::backend::weight_residue_shoups;
use flash_he::encoding::{ConvEncoder, ConvShape};
use flash_he::truncate::TruncatedCiphertext;
use flash_he::{serialize, Ciphertext, HeParams, Poly, PolyMulBackend, SecretKey};
use flash_math::C64;
use flash_nn::layers::ConvLayerSpec;
use flash_ntt::transform::{forward_batch, inverse_batch};
use rand::rngs::StdRng;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Polynomials per batched-kernel probe call: the AVX-512 lane width,
/// the widest SoA sweep the kernels form.
pub const BATCH_W: usize = 8;

/// One stride-1 convolution the protocol runs for an op (`repeats` times:
/// a stride-2 layer is four phase convolutions of the same sub-shape).
#[derive(Debug, Clone, Copy)]
pub struct ConvJob {
    pub shape: ConvShape,
    pub repeats: usize,
}

impl ConvJob {
    pub fn of(spec: &ConvLayerSpec) -> Self {
        ConvJob {
            shape: spec.encoded_shape(),
            repeats: if spec.stride == 2 { 4 } else { 1 },
        }
    }
}

/// Median wall time of `f`, µs, over repetitions filling about
/// `budget_ms` (at least five).
pub fn median_us(budget_ms: f64, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed().as_secs_f64() * 1e3 < budget_ms {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Per-op milliseconds of the three HE stages outside timing can isolate.
#[derive(Debug, Default, Clone, Copy)]
pub struct HeProbe {
    pub encode_encrypt_ms: f64,
    pub decrypt_decode_ms: f64,
    pub mac_ms: f64,
}

/// Replays one op's HE tile counts (`jobs`) through the public client
/// and MAC functions, five times, and returns the per-op medians. Spans
/// `he.encode_encrypt`, `he.decrypt_decode` and `he.mac` land under one
/// `probe.he` span per repetition.
pub fn he_probe(
    params: &HeParams,
    backend: &PolyMulBackend,
    truncation: Option<(u32, u32)>,
    jobs: &[ConvJob],
    rng: &mut StdRng,
    tr: &mut Tracer,
) -> HeProbe {
    let sk = SecretKey::generate(params, rng);
    let (n, t, q) = (params.n, params.t, params.q);
    let mut samples: [Vec<f64>; 3] = Default::default();
    for rep in 0..5u64 {
        let root = tr.enter("probe.he", rep);
        let mut ms = [0.0f64; 3];
        for job in jobs {
            let enc = ConvEncoder::new(job.shape, n);
            // A client share is a uniform ring element read as signed.
            let x: Vec<i64> = (0..job.shape.input_len())
                .map(|_| rng.gen_range(0..t) as i64)
                .collect();
            let f: Vec<i64> = (0..job.shape.kernel_len())
                .map(|_| rng.gen_range(-8..8))
                .collect();
            for _ in 0..job.repeats {
                // Client → server: encode, encrypt, serialize.
                let t0 = Instant::now();
                let blobs: Vec<Vec<u8>> = tr.span("he.encode_encrypt", rep, || {
                    enc.encode_activation(&x)
                        .iter()
                        .map(|tile| {
                            let m = Poly::from_signed(tile, t);
                            serialize::ciphertext_to_bytes(&sk.encrypt(&m, rng))
                        })
                        .collect()
                });
                ms[0] += t0.elapsed().as_secs_f64() * 1e3;

                // Server MAC at the op's (oc, band, group) count. The
                // forward transforms are probed separately; weights of
                // one output channel stand in for all (MAC cost does not
                // depend on the values).
                let cts: Vec<Ciphertext> = blobs
                    .iter()
                    .map(|b| serialize::ciphertext_from_bytes(b, n, q).expect("own bytes"))
                    .collect();
                ms[2] += mac_ms(
                    params,
                    backend,
                    &enc,
                    &cts,
                    &enc.encode_weight(&f, 0),
                    rep,
                    tr,
                );

                // Server → client: one response per (oc, band); content
                // is irrelevant to decrypt/decode cost, so fresh
                // encryptions of zero stand in.
                let zero = Poly::zero(n, t);
                let responses: Vec<Vec<u8>> = (0..enc.result_polys())
                    .map(|_| {
                        let ct = sk.encrypt(&zero, rng);
                        match truncation {
                            None => serialize::ciphertext_to_bytes(&ct),
                            Some((d0, d1)) => {
                                TruncatedCiphertext::truncate(&ct, d0, d1, params).to_bytes(params)
                            }
                        }
                    })
                    .collect();
                let mut band_vals = vec![0i64; job.shape.output_len()];
                let t0 = Instant::now();
                tr.span("he.decrypt_decode", rep, || {
                    for (u, bytes) in responses.iter().enumerate() {
                        let (oc, b) = (u / enc.bands(), u % enc.bands());
                        let ct = match truncation {
                            None => {
                                serialize::ciphertext_from_bytes(bytes, n, q).expect("own bytes")
                            }
                            Some((d0, d1)) => {
                                TruncatedCiphertext::from_bytes(bytes, d0, d1, params)
                                    .expect("own bytes")
                                    .reconstruct(params)
                            }
                        };
                        let plain = sk.decrypt(&ct);
                        let coeffs: Vec<i64> = plain.coeffs().iter().map(|&v| v as i64).collect();
                        enc.decode_band(&coeffs, b, oc, &mut band_vals);
                    }
                    black_box(&band_vals);
                });
                ms[1] += t0.elapsed().as_secs_f64() * 1e3;
            }
        }
        tr.exit(root);
        for (s, v) in samples.iter_mut().zip(ms) {
            s.push(v);
        }
    }
    HeProbe {
        encode_encrypt_ms: median(&samples[0]),
        decrypt_decode_ms: median(&samples[1]),
        mac_ms: median(&samples[2]),
    }
}

/// One layer's spectral MAC at its (output channel, band, group) count
/// against already-transformed operands, ms: the lazy-Shoup NTT MAC the
/// server uses on the exact backend, the complex MAC on the FFT family.
fn mac_ms(
    params: &HeParams,
    backend: &PolyMulBackend,
    enc: &ConvEncoder,
    cts: &[Ciphertext],
    w_polys: &[Vec<Vec<i64>>],
    rep: u64,
    tr: &mut Tracer,
) -> f64 {
    let n = params.n;
    let (groups, bands, m) = (enc.groups(), enc.bands(), enc.shape().m);
    let spectra = backend.activation_spectra(cts, params);
    let band_polys =
        |b: usize| -> Vec<&[i64]> { w_polys.iter().map(|g| g[b].as_slice()).collect() };
    if matches!(backend, PolyMulBackend::Ntt) {
        let ntt = params.ntt();
        let per_band: Vec<_> = (0..bands)
            .map(|b| weight_residue_shoups(&band_polys(b), ntt))
            .collect();
        let mut acc = vec![0u64; 2 * n];
        let t0 = Instant::now();
        tr.span("he.mac", rep, || {
            for _oc in 0..m {
                for (b, ws) in per_band.iter().enumerate() {
                    acc.fill(0);
                    for g in 0..groups {
                        spectra.mac_ntt_shoup_lazy_into(
                            g * bands + b,
                            &ws.w[g * n..][..n],
                            &ws.shoup[g * n..][..n],
                            ntt,
                            &mut acc,
                        );
                    }
                    black_box(&acc);
                }
            }
        });
        t0.elapsed().as_secs_f64() * 1e3
    } else {
        let half = n / 2;
        let per_band: Vec<Vec<C64>> = (0..bands)
            .map(|b| {
                let mut out = vec![C64::ZERO; groups * half];
                backend.weight_spectra_into(&band_polys(b), &mut out, params.fft());
                out
            })
            .collect();
        let t0 = Instant::now();
        tr.span("he.mac", rep, || {
            for _oc in 0..m {
                for (b, fw) in per_band.iter().enumerate() {
                    let mut acc = spectra.accumulator(n);
                    for g in 0..groups {
                        spectra.mac_fft(g * bands + b, &fw[g * half..][..half], &mut acc);
                    }
                    black_box(&acc);
                }
            }
        });
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// µs per [`BATCH_W`]-polynomial call of the `f64` negacyclic transforms
/// at degree `n`: `(forward_batch_into, inverse_batch_into)`.
pub fn fft_probe(n: usize, rng: &mut StdRng) -> (f64, f64) {
    let fft = NegacyclicFft::shared(n);
    let inputs: Vec<f64> = (0..BATCH_W * n).map(|_| rng.gen_range(-1e6..1e6)).collect();
    let mut spectra = vec![C64::ZERO; BATCH_W * n / 2];
    let fwd = median_us(40.0, || {
        fft.forward_batch_into(black_box(&inputs), &mut spectra);
        black_box(&spectra);
    });
    let mut out = vec![0.0f64; BATCH_W * n];
    let inv = median_us(40.0, || {
        fft.inverse_batch_into(black_box(&spectra), &mut out);
        black_box(&out);
    });
    (fwd, inv)
}

/// µs per [`BATCH_W`]-polynomial forward call of the fixed-point
/// hardware-model transform at the paper's 27-bit, `k = 5` numerics.
/// Informational: no workload has it on its request path.
pub fn fixed_fft_probe(n: usize, rng: &mut StdRng) -> f64 {
    let fixed = FixedNegacyclicFft::shared(&FlashConfig::numerics_for(n, 27, 5));
    let ws: Vec<i64> = (0..BATCH_W * n).map(|_| rng.gen_range(-8..8)).collect();
    let mut out = vec![C64::ZERO; BATCH_W * n / 2];
    median_us(40.0, || {
        black_box(fixed.forward_batch_into(black_box(&ws), &mut out));
    })
}

/// µs per [`BATCH_W`]-polynomial call of the exact transforms on
/// `params`' prime ring: `(forward_batch, inverse_batch)`.
pub fn ntt_probe(params: &HeParams, rng: &mut StdRng) -> (f64, f64) {
    let tables = params.ntt();
    let mut polys: Vec<u64> = (0..BATCH_W * params.n)
        .map(|_| rng.gen_range(0..params.q))
        .collect();
    let fwd = median_us(40.0, || {
        forward_batch(black_box(&mut polys), tables);
    });
    let inv = median_us(40.0, || {
        inverse_batch(black_box(&mut polys), tables);
    });
    (fwd, inv)
}

/// µs per [`BATCH_W`]-polynomial run of the compiled sparse µop tape of
/// `shape`'s first band — the weight-transform path of the FFT-family
/// backends.
pub fn sparse_tape_probe(shape: ConvShape, n: usize, rng: &mut StdRng) -> f64 {
    let enc = ConvEncoder::new(shape, n);
    let plan = conv_band_plan(&enc, n, 0);
    let polys: Vec<Vec<i64>> = (0..BATCH_W)
        .map(|oc| {
            let f: Vec<i64> = (0..shape.kernel_len())
                .map(|_| rng.gen_range(-8..8))
                .collect();
            enc.encode_weight(&f, oc % shape.m)
                .swap_remove(0)
                .swap_remove(0)
        })
        .collect();
    let mut out = vec![C64::ZERO; BATCH_W * n / 2];
    median_us(40.0, || {
        plan.execute_batch_into(polys.iter().map(|p| p.as_slice()), &mut out);
        black_box(&out);
    })
}

/// µs to send and receive one `bytes`-long frame over a clean in-memory
/// link (framing, checksum, copy).
pub fn frame_roundtrip_probe(bytes: usize, rng: &mut StdRng) -> f64 {
    let payload: Vec<u8> = (0..bytes).map(|_| rng.gen_range(0..=255u8)).collect();
    let mut link = InMemoryTransport::new(TransportConfig::default());
    median_us(20.0, || {
        link.send(black_box(&payload)).expect("clean link send");
        black_box(link.recv().expect("clean link recv"));
    })
}

/// Field-wise sum of protocol accounting (one op may run many layers).
pub fn add_stats(a: ProtocolStats, b: &ProtocolStats) -> ProtocolStats {
    ProtocolStats {
        upload_bytes: a.upload_bytes + b.upload_bytes,
        download_bytes: a.download_bytes + b.download_bytes,
        ciphertexts_up: a.ciphertexts_up + b.ciphertexts_up,
        ciphertexts_down: a.ciphertexts_down + b.ciphertexts_down,
        weight_transforms: a.weight_transforms + b.weight_transforms,
        sparse_weight_transforms: a.sparse_weight_transforms + b.sparse_weight_transforms,
        activation_transforms: a.activation_transforms + b.activation_transforms,
        inverse_transforms: a.inverse_transforms + b.inverse_transforms,
        pointwise_muls: a.pointwise_muls + b.pointwise_muls,
        upload_wire_bytes: a.upload_wire_bytes + b.upload_wire_bytes,
        download_wire_bytes: a.download_wire_bytes + b.download_wire_bytes,
        faults_detected: a.faults_detected + b.faults_detected,
        frames_retried: a.frames_retried + b.frames_retried,
        ntt_fallbacks: a.ntt_fallbacks + b.ntt_fallbacks,
        pow2_fallbacks: a.pow2_fallbacks + b.pow2_fallbacks,
    }
}
