//! Fuzzing of the serving wire decoders.
//!
//! The decoders sit on the trust boundary of the serving layer: every
//! byte they see arrived over a (possibly faulted, possibly hostile)
//! link. Two guarantees, property-tested:
//!
//! 1. on **arbitrary bytes** every decoder returns — `Ok` or a typed
//!    [`flash_serve::ServeError`] — and never panics or over-allocates;
//! 2. **valid messages round-trip** exactly, and any single-byte
//!    mutation or truncation of a valid message again never panics.

use flash_serve::wire::{
    decode_ack, decode_hello, decode_request_borrowed, decode_response, encode_ack, encode_hello,
    encode_refusal, encode_request, encode_response, RefusalReason, Response, SessionAck,
};
use proptest::prelude::*;

fn arb_blobs() -> impl Strategy<Value = Vec<Vec<u8>>> {
    collection::vec(collection::vec(any::<u8>(), 0..48), 0..6)
}

fn arb_reason() -> impl Strategy<Value = RefusalReason> {
    (0u8..6, collection::vec(any::<u8>(), 0..24)).prop_map(|(kind, detail)| match kind {
        0 => RefusalReason::Expired,
        1 => RefusalReason::Shed,
        2 => RefusalReason::Quarantined,
        3 => RefusalReason::Poisoned,
        4 => RefusalReason::Shutdown,
        _ => RefusalReason::Invalid(String::from_utf8_lossy(&detail).into_owned()),
    })
}

fn arb_ack() -> impl Strategy<Value = SessionAck> {
    (
        (any::<u32>(), any::<u32>(), any::<u64>()),
        (any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<u32>(), any::<u32>()),
        (any::<bool>(), any::<u32>(), any::<u32>()),
    )
        .prop_map(
            |((session_id, n, t), (c_polys, m, bands), (c_w, m_w), (trunc, d0, d1))| SessionAck {
                session_id,
                n,
                t,
                c_polys,
                m,
                bands,
                c_w,
                m_w,
                truncation: trunc.then_some((d0, d1)),
            },
        )
}

proptest! {
    /// Guarantee 1: arbitrary bytes never panic any decoder.
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        bytes in collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_hello(&bytes);
        let _ = decode_ack(&bytes);
        let _ = decode_request_borrowed(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Guarantee 2 for HELLO: exact round-trip, and every truncation
    /// fails typed.
    #[test]
    fn hello_roundtrips_and_truncations_fail_typed(
        model_id in any::<u64>(),
        client_tag in any::<u64>(),
    ) {
        let bytes = encode_hello(model_id, client_tag);
        prop_assert_eq!(decode_hello(&bytes).unwrap(), (model_id, client_tag));
        for cut in 0..bytes.len() {
            prop_assert!(decode_hello(&bytes[..cut]).is_err());
        }
    }

    /// Guarantee 2 for ACK: exact round-trip over arbitrary negotiated
    /// parameters, including the optional truncation pair.
    #[test]
    fn ack_roundtrips(ack in arb_ack()) {
        let bytes = encode_ack(&ack);
        prop_assert_eq!(decode_ack(&bytes).unwrap(), ack);
        for cut in 0..bytes.len() {
            prop_assert!(decode_ack(&bytes[..cut]).is_err());
        }
    }

    /// Guarantee 2 for REQUEST/RESPONSE: arbitrary blob schedules
    /// round-trip through the (borrowing) request decoder.
    #[test]
    fn request_and_response_roundtrip(req_id in any::<u64>(), blobs in arb_blobs()) {
        let req = encode_request(req_id, &blobs);
        let (got_id, borrowed) = decode_request_borrowed(&req).unwrap();
        prop_assert_eq!(got_id, req_id);
        let views: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
        prop_assert_eq!(borrowed, views);
        let resp = encode_response(req_id, &blobs);
        prop_assert_eq!(
            decode_response(&resp).unwrap(),
            Response::Ok { req_id, blobs }
        );
    }

    /// Guarantee 2 for REFUSED: every reason (arbitrary detail strings
    /// included) round-trips through the response decoder.
    #[test]
    fn refusal_roundtrips(req_id in any::<u64>(), reason in arb_reason()) {
        let bytes = encode_refusal(req_id, &reason);
        prop_assert_eq!(
            decode_response(&bytes).unwrap(),
            Response::Refused { req_id, reason }
        );
    }

    /// Guarantees 1+2 combined: a single-byte mutation anywhere in a
    /// valid server → client message (response or refusal) decodes to
    /// *something* — possibly still valid, possibly a typed error — but
    /// never panics. This is the checksums-off threat model of the
    /// frame layer.
    #[test]
    fn mutated_server_messages_never_panic(
        req_id in any::<u64>(),
        blobs in arb_blobs(),
        reason in arb_reason(),
        pos in any::<usize>(),
        val in any::<u8>(),
    ) {
        for bytes in [encode_response(req_id, &blobs), encode_refusal(req_id, &reason)] {
            let mut m = bytes.clone();
            let i = pos % m.len();
            m[i] = val;
            let _ = decode_response(&m);
            for cut in [0, m.len() / 2, m.len() - 1] {
                let _ = decode_response(&m[..cut]);
            }
        }
    }
}
