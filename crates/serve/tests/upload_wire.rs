//! A mutated upload at the serving layer's admission path.
//!
//! An upload is `c0` ‖ the 32-byte seed of `c1 = a`, and the server
//! expands `a` while it opens the request. Every byte of it crossed the
//! wire, so each malformed upload must fail its request typed — a
//! REFUSED frame naming the wire fault, never a panic — and every
//! request, refused or answered, must see exactly one terminal outcome.

use flash_2pc::hconv::HconvLayer;
use flash_2pc::transport::TransportConfig;
use flash_2pc::{SharedTransport, Transport};
use flash_he::encoding::ConvShape;
use flash_he::{HeParams, PolyMulBackend, SecretKey};
use flash_serve::wire::{self, Response};
use flash_serve::{BatchPolicy, InferenceServer, ModelSpec, RefusalReason};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const MODEL: u64 = 3;

fn shape() -> ConvShape {
    ConvShape {
        c: 2,
        h: 6,
        w: 6,
        m: 2,
        k: 3,
    }
}

#[test]
fn a_mutated_upload_fails_its_request_typed_with_one_terminal_outcome() {
    let params = HeParams::test_256();
    let s = shape();
    let weights: Vec<i64> = (0..s.m * s.kernel_len())
        .map(|i| (i as i64 % 7) - 3)
        .collect();
    let server = InferenceServer::start(BatchPolicy::batched(), 7, 1);
    server
        .register_model(ModelSpec::new(
            MODEL,
            params.clone(),
            s,
            PolyMulBackend::Ntt,
            weights,
        ))
        .unwrap();
    // Drive the wire by hand: the Client type only sends well-formed
    // uploads.
    let uplink = SharedTransport::with_timeout(TransportConfig::default(), Duration::from_secs(5));
    let downlink =
        SharedTransport::with_timeout(TransportConfig::default(), Duration::from_millis(500));
    uplink.clone().send(&wire::encode_hello(MODEL, 1)).unwrap();
    let sid = server.accept(uplink.clone(), downlink.clone()).unwrap();
    let ack = wire::decode_ack(&downlink.clone().recv().unwrap()).unwrap();

    let mut rng = StdRng::seed_from_u64(11);
    let sk = SecretKey::generate(&params, &mut rng);
    let partition = (ack.c_w as usize, ack.m_w as usize);
    let layer = HconvLayer::with_partition(params.clone(), s, ack.truncation, partition);
    let client_share = vec![1u64; s.input_len()];
    let mut blobs = Vec::new();
    let sealed = layer.seal(&sk, &client_share, &mut rng, |b| {
        blobs.push(b);
        Ok::<_, std::convert::Infallible>(())
    });
    let Ok(()) = sealed;
    let cb = flash_he::serialize::coeff_bytes(params.q);

    let mut short = blobs.clone();
    short[0].pop();
    let mut long = blobs.clone();
    long[0].push(0);
    let mut unreduced = blobs.clone();
    unreduced[0][..cb].copy_from_slice(&params.q.to_le_bytes()[..cb]);
    // A flipped seed byte is a well-formed upload of another `a`: the
    // server cannot tell, and answers it.
    let mut reseeded = blobs.clone();
    *reseeded[0].last_mut().unwrap() ^= 1;
    let requests = [
        (short, Some("wire buffer truncated")),
        (long, Some("1 bytes past the end of the encoding")),
        (unreduced, Some("coefficient 0 out of range for modulus")),
        (reseeded, None),
        (blobs, None),
    ];
    let share = vec![0i64; s.input_len()];
    for (req, (blobs, _)) in requests.iter().enumerate() {
        uplink
            .clone()
            .send(&wire::encode_request(req as u64, blobs))
            .unwrap();
        server.ingest(sid, req as u64, &share).unwrap();
    }
    assert!(server.wait_for_timeout(requests.len() as u64, Duration::from_secs(30)));

    let mut outcomes = std::collections::BTreeMap::new();
    for _ in 0..requests.len() {
        let (req_id, refusal) =
            match wire::decode_response(&downlink.clone().recv().unwrap()).unwrap() {
                Response::Ok { req_id, blobs } => {
                    assert_eq!(blobs.len(), layer.encoder().result_polys());
                    (req_id, None)
                }
                Response::Refused {
                    req_id,
                    reason: RefusalReason::Invalid(detail),
                } => (req_id, Some(detail)),
                Response::Refused { reason, .. } => panic!("unexpected refusal {reason:?}"),
            };
        assert!(outcomes.insert(req_id, refusal).is_none(), "req {req_id}");
    }
    assert!(downlink.clone().recv().is_err(), "one frame per request");
    for (req, (_, want)) in requests.iter().enumerate() {
        let got = &outcomes[&(req as u64)];
        match want {
            Some(fault) => assert!(
                got.as_deref().is_some_and(|d| d.contains(fault)),
                "req {req}: {got:?}"
            ),
            None => assert_eq!(got, &None, "req {req}"),
        }
    }
    let stats = server.stats();
    assert_eq!((stats.requests_refused, stats.requests_ok), (3, 2));
    assert_eq!(stats.requests_failed, 0);
    server.shutdown();
}
