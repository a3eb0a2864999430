//! One pipeline, two callers — checked byte for byte.
//!
//! * **Differential** — for every backend (including the all-fallback
//!   margins), tiling shape and truncation setting, the blobs
//!   `flash-serve` returns for a request equal what the pipeline's
//!   **respond** stage returns at width 1 over *one-shot, per-channel*
//!   units (how `ConvProtocol` drives it) for the same upload bytes,
//!   server share and mask seeds; and **respond** over reused units is
//!   bit-identical per request at every batch width around the SIMD lane
//!   count.
//! * **One guard, one count** — `ConvProtocol`'s fallback and sparse
//!   transform counts equal the registered plan's for the same layer.

use flash_2pc::hconv::{mask_seed, HconvLayer, HconvServer, Response};
use flash_2pc::{expected_conv_mod, ConvProtocol, FlashError, SharedTransport, Transport};
use flash_he::encoding::ConvShape;
use flash_he::{Ciphertext, HeParams, PolyMulBackend, SecretKey};
use flash_serve::{wire, BatchPolicy, InferenceServer, ModelPlan, ModelSpec};
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

/// `(name, params, backend, noise margin)`; margin 0 pins every unit of
/// an approximate backend to the exact fallback.
fn backends() -> Vec<(&'static str, HeParams, PolyMulBackend, f64)> {
    let prime = HeParams::test_256();
    let pow2 = HeParams::pow2_test_256();
    vec![
        ("ntt", prime.clone(), PolyMulBackend::Ntt, 1.0),
        ("fft-f64", prime.clone(), PolyMulBackend::FftF64, 1.0),
        ("approx", prime.clone(), approx(&prime), 1.0),
        ("approx-fallback", prime.clone(), approx(&prime), 0.0),
        ("pow2-fallback", pow2.clone(), PolyMulBackend::Pow2, 0.0),
        ("pow2", pow2, PolyMulBackend::Pow2, 1.0),
    ]
}

/// Single tile, channel-grouped, row-banded.
fn shapes() -> [ConvShape; 3] {
    let shape = |c, h, m| ConvShape {
        c,
        h,
        w: h,
        m,
        k: 3,
    };
    [shape(2, 6, 2), shape(8, 8, 2), shape(1, 24, 2)]
}

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

/// What `ConvProtocol` does on the server side: per output channel,
/// prepare one-shot units, respond at width 1, drop them.
fn respond_one_shot(
    server: &HconvServer,
    weights: &[i64],
    cts: &[Ciphertext],
    seed_of: impl Fn(usize) -> u64,
) -> Response {
    let enc = server.layer().encoder();
    let requests = [cts];
    let act = server.spectra(&requests);
    let mut whole = Response {
        blobs: Vec::new(),
        server_share: Vec::new(),
    };
    for oc in 0..enc.shape().m {
        let (units, _) = server.prepare_units(weights, oc).unwrap();
        let part = server
            .respond(&act, &requests, oc * enc.bands(), &units, |_, u| seed_of(u))
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
                let layer = HconvLayer::new(params.clone(), shape, truncation);
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
                let units: Vec<_> = (0..shape.m)
                    .flat_map(|oc| reused.prepare_units(&weights, oc).unwrap().0)
                    .collect();
                let opened: Vec<Vec<Ciphertext>> = sealed.iter().map(|r| open(&layer, r)).collect();
                let respond = |w: usize| {
                    let requests: Vec<&[Ciphertext]> =
                        opened[..w].iter().map(Vec::as_slice).collect();
                    let act = reused.spectra(&requests);
                    reused.respond(&act, &requests, 0, &units, |ri, u| {
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
