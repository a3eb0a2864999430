//! One pipeline, two callers — checked byte for byte.
//!
//! * **Differential** — for every backend (including the all-fallback
//!   margins), tiling shape and truncation setting, the blobs
//!   `flash-serve` returns for a request equal what the pipeline's
//!   **respond** stage returns at width 1 over *one-shot, per-pack*
//!   units (how `ConvProtocol` drives it) for the same upload bytes,
//!   server share and mask seeds; and **respond** over reused units is
//!   bit-identical per request at every batch width around the SIMD lane
//!   count. One shape is one the planner packs (`M_w > 1`, a partial
//!   last pack, `C_w` below its maximum), so every check also runs on
//!   packed responses.
//! * **One guard, one count** — `ConvProtocol`'s fallback and sparse
//!   transform counts equal the registered plan's for the same layer.
//! * **Pinned partitions** — the benchmark layers' shapes keep the
//!   partition they planned before packing existed.
//! * **Announced partitions** — a client plans at the partition the
//!   session ACK announces: one the truncation moves, and one the noise
//!   guard moves back to unpacked.

use flash_2pc::hconv::{mask_seed, wire_bytes, HconvLayer, HconvServer, Response};
use flash_2pc::{
    expected_conv_mod, ConvProtocol, FlashError, SharedTransport, Transport, TransportConfig,
};
use flash_he::encoding::{ConvEncoder, ConvShape};
use flash_he::{Ciphertext, HeParams, PolyMulBackend, SecretKey};
use flash_serve::{wire, BatchPolicy, Client, InferenceServer, ModelPlan, ModelSpec, ServerStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const SERVER_SEED: u64 = 0xD1FF;
const MODEL_ID: u64 = 9;
const REQUESTS: usize = 16;

fn approx(params: &HeParams) -> PolyMulBackend {
    let mut cfg = flash_fft::ApproxFftConfig::uniform(
        params.n,
        flash_math::fixed::FxpFormat::new(18, 34),
        30,
    );
    cfg.max_shift = 30;
    PolyMulBackend::approx(cfg)
}

/// `(name, params, backend, noise margin)`, each backend on its ring;
/// margin 0 pins every unit of an approximate backend to the exact
/// fallback.
fn backends() -> Vec<(&'static str, HeParams, PolyMulBackend, f64)> {
    let pow2 = HeParams::pow2_test_256();
    vec![
        ("ntt", HeParams::test_256(), PolyMulBackend::Ntt, 1.0),
        ("approx", pow2.clone(), approx(&pow2), 1.0),
        ("approx-fallback", pow2.clone(), approx(&pow2), 0.0),
        ("pow2-fallback", pow2.clone(), PolyMulBackend::Pow2, 0.0),
        ("pow2", pow2, PolyMulBackend::Pow2, 1.0),
    ]
}

/// Single tile, channel-grouped, row-banded, and output-channel packed.
fn shapes() -> [ConvShape; 4] {
    let shape = |c, h, m| ConvShape {
        c,
        h,
        w: h,
        m,
        k: 3,
    };
    [shape(2, 6, 2), shape(8, 8, 2), shape(1, 24, 2), PACKED]
}

/// A layer the planner packs at N = 256 on both rings, untruncated and
/// at (8, 2): `(C_w, M_w) = (2, 3)` — two uploads and three responses,
/// the last holding two channels — beats `(4, 1)`'s one upload and
/// eight responses.
const PACKED: ConvShape = ConvShape {
    c: 4,
    h: 6,
    w: 6,
    m: 8,
    k: 3,
};

fn weights_for(shape: &ConvShape) -> Vec<i64> {
    (0..shape.m * shape.kernel_len())
        .map(|i| ((i as i64 * 3) % 15) - 7)
        .collect()
}

/// One sealed request: the cleartext, the upload blobs, the server's
/// activation share.
struct Sealed {
    x: Vec<i64>,
    blobs: Vec<Vec<u8>>,
    server_share: Vec<i64>,
}

fn seal_requests(layer: &HconvLayer, sk: &SecretKey, rng: &mut StdRng) -> Vec<Sealed> {
    (0..REQUESTS)
        .map(|_| {
            let x: Vec<i64> = (0..layer.encoder().shape().input_len())
                .map(|_| rng.gen_range(-8..8))
                .collect();
            let (xc, xs) = layer.ring().share_vec(&x, rng);
            let mut blobs = Vec::new();
            layer
                .seal(sk, &xc, rng, |blob| {
                    blobs.push(blob);
                    Ok::<(), FlashError>(())
                })
                .unwrap();
            Sealed {
                x,
                blobs,
                server_share: xs.iter().map(|&v| v as i64).collect(),
            }
        })
        .collect()
}

fn open(layer: &HconvLayer, req: &Sealed) -> Vec<Ciphertext> {
    layer
        .open(&req.server_share, req.blobs.iter().map(Ok::<_, FlashError>))
        .unwrap()
}

/// What `ConvProtocol` does on the server side: price the weights once,
/// then per output-channel pack prepare one-shot units at the pack's
/// verdict, respond at width 1, drop them.
fn respond_one_shot(
    server: &HconvServer,
    weights: &[i64],
    cts: &[Ciphertext],
    seed_of: impl Fn(usize) -> u64,
) -> Response {
    let plan = server.plan(weights).unwrap();
    let server = &plan.server;
    let enc = server.layer().encoder();
    let requests = [cts];
    let act = server.spectra(&requests);
    let mut whole = Response {
        blobs: Vec::new(),
        server_share: Vec::new(),
    };
    for pack in 0..enc.packs() {
        let (units, _) = server.prepare_units(weights, pack, plan.fallback[pack]);
        let part = server
            .respond(Some(&act), &requests, pack * enc.bands(), &units, |_, u| {
                seed_of(u)
            })
            .pop()
            .unwrap();
        whole.blobs.extend(part.blobs);
        whole.server_share.extend(part.server_share);
    }
    whole
}

#[test]
fn served_bytes_equal_one_shot_respond_and_every_width_agrees() {
    let lanes = flash_runtime::simd::lanes().max(1);
    let mut widths = vec![
        1,
        2,
        lanes.saturating_sub(1).max(1),
        lanes,
        lanes + 1,
        REQUESTS,
    ];
    widths.retain(|&w| w <= REQUESTS);
    for (name, params, backend, margin) in backends() {
        for shape in shapes() {
            for truncation in [None, Some((8, 2))] {
                let case = format!("{name} {shape} trunc={truncation:?}");
                let weights = weights_for(&shape);
                let mut rng = StdRng::seed_from_u64(0xC0DE);
                let sk = SecretKey::generate(&params, &mut rng);
                // The layer as served. At margin 0 the unpacked plan
                // falls back as entirely as the packed one, so bytes
                // decide and `PACKED` stays packed.
                let layer = HconvServer::new(
                    HconvLayer::new(params.clone(), shape, truncation),
                    backend.clone(),
                    margin,
                )
                .plan(&weights)
                .unwrap()
                .server
                .layer()
                .clone();
                if shape == PACKED {
                    let enc = layer.encoder();
                    assert_eq!(layer.partition(), (2, 3), "{case}");
                    assert_eq!(enc.pack_channels(enc.packs() - 1).len(), 2, "{case}");
                }
                let sealed = seal_requests(&layer, &sk, &mut rng);

                // --- flash-serve, driven at the wire level so the raw
                // response blobs are observable.
                let mut spec = ModelSpec::new(
                    MODEL_ID,
                    params.clone(),
                    shape,
                    backend.clone(),
                    weights.clone(),
                )
                .with_noise_margin(margin);
                spec.truncation = truncation;
                let server = InferenceServer::start(BatchPolicy::batched(), SERVER_SEED, 1);
                server.register_model(spec).unwrap();
                let (mut up, mut down) = (SharedTransport::clean(), SharedTransport::clean());
                up.send(&wire::encode_hello(MODEL_ID, 1)).unwrap();
                let sid = server.accept(up.clone(), down.clone()).unwrap();
                let ack = wire::decode_ack(&down.recv().unwrap()).unwrap();
                assert_eq!(ack.truncation, truncation, "{case}");
                assert_eq!(
                    (ack.c_w as usize, ack.m_w as usize),
                    layer.partition(),
                    "{case}"
                );

                let one_shot = HconvServer::new(layer.clone(), backend.clone(), margin);
                for (r, req) in sealed.iter().enumerate().take(3) {
                    let req_id = r as u64;
                    up.send(&wire::encode_request(req_id, &req.blobs)).unwrap();
                    server.ingest(sid, req_id, &req.server_share).unwrap();
                    let served = match wire::decode_response(&down.recv().unwrap()).unwrap() {
                        wire::Response::Ok { req_id: got, blobs } => {
                            assert_eq!(got, req_id, "{case}");
                            blobs
                        }
                        other => panic!("{case}: request {r} refused: {other:?}"),
                    };
                    // The response frame precedes the server-share
                    // bookkeeping; the terminal-outcome count follows both.
                    assert!(server.wait_for_timeout(req_id + 1, Duration::from_secs(10)));
                    let served_share = server.take_result(sid, req_id).unwrap();

                    let reference =
                        respond_one_shot(&one_shot, &weights, &open(&layer, req), |u| {
                            mask_seed(SERVER_SEED, sid, req_id, u)
                        });
                    assert_eq!(served, reference.blobs, "{case}: request {r} blobs");
                    assert_eq!(served_share, reference.server_share, "{case}: request {r}");

                    let y_client = layer.unseal(&sk, &served).unwrap();
                    assert_eq!(
                        layer.ring().reconstruct_vec(&y_client, &served_share),
                        expected_conv_mod(&req.x, &weights, &shape, layer.ring()),
                        "{case}: request {r} output"
                    );
                }
                server.shutdown();

                // --- respond over reused units, width by width.
                let reused = HconvServer::new(layer.clone(), backend.clone(), margin);
                let verdicts = reused.plan(&weights).unwrap().fallback;
                let units: Vec<_> = (0..layer.encoder().packs())
                    .flat_map(|pack| reused.prepare_units(&weights, pack, verdicts[pack]).0)
                    .collect();
                let opened: Vec<Vec<Ciphertext>> = sealed.iter().map(|r| open(&layer, r)).collect();
                let respond = |w: usize| {
                    let requests: Vec<&[Ciphertext]> =
                        opened[..w].iter().map(Vec::as_slice).collect();
                    let act = reused.spectra(&requests);
                    reused.respond(Some(&act), &requests, 0, &units, |ri, u| {
                        mask_seed(SERVER_SEED, sid, ri as u64, u)
                    })
                };
                let widest = respond(REQUESTS);
                for &w in &widths {
                    assert_eq!(respond(w), widest[..w], "{case}: width {w}");
                }
            }
        }
    }
}

#[test]
fn protocol_and_plan_report_the_same_guard_verdicts_and_tape_counts() {
    for (name, params, backend, margin) in backends() {
        for shape in shapes() {
            let weights = weights_for(&shape);
            let plan = ModelPlan::build(
                ModelSpec::new(
                    MODEL_ID,
                    params.clone(),
                    shape,
                    backend.clone(),
                    weights.clone(),
                )
                .with_noise_margin(margin),
            )
            .unwrap();

            let mut rng = StdRng::seed_from_u64(7);
            let sk = SecretKey::generate(&params, &mut rng);
            let x: Vec<i64> = (0..shape.input_len())
                .map(|_| rng.gen_range(-8..8))
                .collect();
            let proto =
                ConvProtocol::new(params.clone(), shape, backend.clone()).with_noise_margin(margin);
            let (_, stats) = proto.run(&sk, &x, &weights, &mut rng).unwrap();

            let case = format!("{name} {shape}");
            assert_eq!(
                stats.ntt_fallbacks + stats.pow2_fallbacks,
                plan.fallback_units(),
                "{case}: fallbacks"
            );
            assert_eq!(
                stats.sparse_weight_transforms,
                plan.sparse_units() * plan.encoder().groups(),
                "{case}: sparse transforms"
            );
            if margin == 0.0 {
                assert_eq!(plan.fallback_units(), plan.result_polys(), "{case}");
            } else {
                assert_eq!(plan.fallback_units(), 0, "{case}");
            }
        }
    }
}

/// `(C_w, M_w)` of a layer as both parties plan it.
fn planned(params: &HeParams, shape: ConvShape, truncation: (u32, u32)) -> (usize, usize) {
    let layer = HconvLayer::new(params.clone(), shape, Some(truncation));
    let enc = layer.encoder();
    (enc.channels_per_group(), enc.channels_per_pack())
}

/// Payload bytes of one request under partition `(cw, mw)`, as the
/// planner prices it.
fn request_bytes(
    params: &HeParams,
    shape: ConvShape,
    truncation: (u32, u32),
    (cw, mw): (usize, usize),
) -> usize {
    let enc = ConvEncoder::new(shape, params.n).with_partition(cw, mw);
    let (up, down) = wire_bytes(&enc, params, Some(truncation));
    up + down
}

#[test]
fn the_benchmark_layers_keep_their_unpacked_partitions() {
    // `hconv_wide_n4096`: 64×32×32 → 32, pad 1, at `flash_pow2` and its
    // planned truncation. `(1, 3)` would cost 2 422 784 B a request
    // against `(3, 1)`'s 1 475 264 B.
    let wide = HeParams::flash_pow2();
    let wide_shape = ConvShape {
        c: 64,
        h: 34,
        w: 34,
        m: 32,
        k: 3,
    };
    let truncation = flash_he::truncate::planned_truncation(&wide);
    assert_eq!(planned(&wide, wide_shape, truncation), (3, 1));
    let layer = HconvLayer::new(wide.clone(), wide_shape, Some(truncation));
    assert_eq!(layer.encoder(), &ConvEncoder::new(wide_shape, wide.n));
    assert_eq!(
        (
            request_bytes(&wide, wide_shape, truncation, (3, 1)),
            request_bytes(&wide, wide_shape, truncation, (1, 3))
        ),
        (1_475_264, 2_422_784)
    );
    // The serve model: 64×16×16 → 32 at N = 1024, a 36-bit prime and
    // (8, 2). `(2, 2)` loses by 512 B.
    let serve = HeParams::new(1024, 36, 1 << 13, 3.2);
    let serve_shape = ConvShape {
        c: 64,
        h: 16,
        w: 16,
        m: 32,
        k: 3,
    };
    assert_eq!(planned(&serve, serve_shape, (8, 2)), (4, 1));
    assert_eq!(
        request_bytes(&serve, serve_shape, (8, 2), (2, 2)),
        request_bytes(&serve, serve_shape, (8, 2), (4, 1)) + 512
    );
}

/// Registers `spec`, connects a client, and checks that one request
/// through it reconstructs to the plaintext convolution. Returns the
/// partition the session runs at and the server's accounting.
fn round_trip(spec: ModelSpec) -> ((usize, usize), ServerStats) {
    let (params, shape, weights) = (spec.params.clone(), spec.shape, spec.weights.clone());
    let server = InferenceServer::start(BatchPolicy::batched(), SERVER_SEED, 1);
    let plan = server.register_model(spec).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let mut client = Client::connect(
        &server,
        MODEL_ID,
        0,
        params,
        shape,
        TransportConfig::default(),
        TransportConfig::default(),
        Duration::from_secs(5),
        &mut rng,
    )
    .expect("the client plans at the announced partition");
    let x: Vec<i64> = (0..shape.input_len())
        .map(|_| rng.gen_range(-8..8))
        .collect();
    let prepared = client.prepare(0, &x, &mut rng);
    client.dispatch(&server, &prepared).unwrap();
    let (req_id, y_client) = client.collect().unwrap();
    assert!(server.wait_for_timeout(1, Duration::from_secs(10)));
    let y_server = server.take_result(client.session_id(), req_id).unwrap();
    let ring = client.ring();
    assert_eq!(
        ring.reconstruct_vec(&y_client, &y_server),
        expected_conv_mod(&x, &weights, &shape, ring)
    );
    let stats = server.stats();
    server.shutdown();
    let enc = plan.encoder();
    ((enc.channels_per_group(), enc.channels_per_pack()), stats)
}

#[test]
fn a_client_plans_at_the_partition_the_server_announces() {
    // c = 2, 10×10, m = 4 at N = 256 and q = 2^62: untruncated, (1, 2)
    // has the fewest bytes; at the planned (38, 30), (2, 1) does. A
    // client that planned on its own, untruncated, would expect two
    // uploads where the server takes one.
    let params = HeParams::new_pow2(256, 62, 1 << 21, 3.2);
    let shape = ConvShape {
        c: 2,
        h: 10,
        w: 10,
        m: 4,
        k: 3,
    };
    let truncation = flash_he::truncate::planned_truncation(&params);
    assert_eq!(truncation, (38, 30));
    let untruncated = HconvLayer::new(params.clone(), shape, None);
    assert_eq!(untruncated.partition(), (1, 2));
    assert_eq!(planned(&params, shape, truncation), (2, 1));
    let weights = weights_for(&shape);
    let spec = ModelSpec::new(MODEL_ID, params, shape, PolyMulBackend::Pow2, weights);
    assert_eq!(round_trip(spec).0, (2, 1));
}

#[test]
fn an_all_fallback_model_runs_no_activation_sweep() {
    // Margin 0 pins every unit of the registered plan to the wrapping
    // schoolbook, which reads the ciphertexts themselves: the server
    // feeds no polynomial to the spectral kernels, forward or inverse.
    let params = HeParams::pow2_test_256();
    for backend in [approx(&params), PolyMulBackend::Pow2] {
        let spec = ModelSpec::new(
            MODEL_ID,
            params.clone(),
            PACKED,
            backend.clone(),
            weights_for(&PACKED),
        );
        assert!(round_trip(spec.clone()).1.kernel_polys > 0);
        let (_, stats) = round_trip(spec.with_noise_margin(0.0));
        assert_eq!((stats.requests_ok, stats.kernel_polys), (1, 0));
    }
}

#[test]
fn a_model_whose_packed_plan_overflows_is_served_unpacked() {
    // `PACKED` plans (2, 3); at the smallest power-of-two weight whose
    // packed exact bound overflows the ceiling, its unpacked (4, 1) plan
    // still clears it. Registration serves the model unpacked instead of
    // refusing it, and the ACK tells the client so.
    let params = HeParams::test_256();
    let layer = HconvLayer::new(params.clone(), PACKED, Some((8, 2)));
    assert_eq!(layer.partition(), (2, 3));
    let packed = HconvServer::new(layer.clone(), PolyMulBackend::Ntt, 1.0);
    let unpacked = HconvServer::new(layer.unpacked(), PolyMulBackend::Ntt, 1.0);
    let overflows =
        |server: &HconvServer, w: &[i64]| server.ledgers(w).iter().any(|l| l.check().is_err());
    let weights = (0..24)
        .map(|e| vec![1i64 << e; PACKED.m * PACKED.kernel_len()])
        .find(|w| overflows(&packed, w))
        .expect("large enough weights overflow the packed plan");
    assert!(!overflows(&unpacked, &weights));
    let spec = ModelSpec::new(MODEL_ID, params, PACKED, PolyMulBackend::Ntt, weights)
        .with_truncation(8, 2);
    assert_eq!(round_trip(spec).0, (4, 1));
}
