//! Serving-layer message formats, one message per transport frame.
//!
//! Every message is little-endian and rides inside one frame of the
//! 2PC transport, so the frame layer's checksums/retransmissions cover
//! the whole message and a request's ciphertexts cannot be torn across
//! independently-faulted frames.
//!
//! | tag  | message | layout |
//! |------|---------|--------|
//! | 0x01 | HELLO    | `model_id u64, client_tag u64` |
//! | 0x02 | ACK      | `session_id u32, n u32, t u64, c_polys u32, m u32, bands u32, c_w u32, m_w u32, trunc u8 [, d0 u32, d1 u32]` |
//! | 0x03 | REQUEST  | `req_id u64, count u32, count × (len u32, ciphertext bytes)` |
//! | 0x04 | RESPONSE | `req_id u64, count u32, count × (len u32, response bytes)` — unit order `pack·bands + b`; each `c0` at the unit's output coefficients ‖ all of `c1` |
//! | 0x05 | REFUSED  | `req_id u64, code u8, len u32, utf-8 detail` |

use crate::ServeError;
use std::fmt;

/// Session-open request, client → server.
pub const TAG_HELLO: u8 = 0x01;
/// Negotiated session parameters, server → client.
pub const TAG_ACK: u8 = 0x02;
/// One inference request (all uploaded ciphertexts), client → server.
pub const TAG_REQUEST: u8 = 0x03;
/// One inference response (all result ciphertexts), server → client.
pub const TAG_RESPONSE: u8 = 0x04;
/// Typed per-request refusal, server → client.
pub const TAG_REFUSED: u8 = 0x05;

/// The parameter echo of a session handshake: everything the client must
/// agree on before requests flow. The partition `(c_w, m_w)` is the
/// server's to choose — it depends on the weights' noise — so the client
/// plans at it; a mismatch on any other field is a planning bug,
/// surfaced typed at connect time instead of as garbage ciphertext
/// counts mid-session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionAck {
    /// Server-assigned session id.
    pub session_id: u32,
    /// Ring degree `N`.
    pub n: u32,
    /// Plaintext/share modulus `t`.
    pub t: u64,
    /// Ciphertexts per request (`groups × bands`).
    pub c_polys: u32,
    /// Output channels.
    pub m: u32,
    /// Row bands per channel.
    pub bands: u32,
    /// Input channels per upload group, `C_w`.
    pub c_w: u32,
    /// Output channels per response pack, `M_w`.
    pub m_w: u32,
    /// Response truncation `(d0, d1)`, if the model compresses downloads.
    pub truncation: Option<(u32, u32)>,
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ServeError::Malformed(what))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ServeError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.bytes(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.bytes(8, what)?.try_into().unwrap()))
    }

    fn finish(self, what: &'static str) -> Result<(), ServeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ServeError::Malformed(what))
        }
    }
}

fn expect_tag(r: &mut Reader<'_>, tag: u8, what: &'static str) -> Result<(), ServeError> {
    if r.u8(what)? == tag {
        Ok(())
    } else {
        Err(ServeError::Malformed(what))
    }
}

/// Encodes a HELLO. `client_tag` is an opaque client-chosen value echoed
/// into the server's session accounting (test fixtures use it to label
/// sessions independently of assignment order).
pub fn encode_hello(model_id: u64, client_tag: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.push(TAG_HELLO);
    out.extend_from_slice(&model_id.to_le_bytes());
    out.extend_from_slice(&client_tag.to_le_bytes());
    out
}

/// Decodes a HELLO into `(model_id, client_tag)`.
pub fn decode_hello(buf: &[u8]) -> Result<(u64, u64), ServeError> {
    let mut r = Reader::new(buf);
    expect_tag(&mut r, TAG_HELLO, "hello tag")?;
    let model_id = r.u64("hello model id")?;
    let client_tag = r.u64("hello client tag")?;
    r.finish("hello trailing bytes")?;
    Ok((model_id, client_tag))
}

/// Encodes a session ACK.
pub fn encode_ack(ack: &SessionAck) -> Vec<u8> {
    let mut out = Vec::with_capacity(42);
    out.push(TAG_ACK);
    out.extend_from_slice(&ack.session_id.to_le_bytes());
    out.extend_from_slice(&ack.n.to_le_bytes());
    out.extend_from_slice(&ack.t.to_le_bytes());
    out.extend_from_slice(&ack.c_polys.to_le_bytes());
    out.extend_from_slice(&ack.m.to_le_bytes());
    out.extend_from_slice(&ack.bands.to_le_bytes());
    out.extend_from_slice(&ack.c_w.to_le_bytes());
    out.extend_from_slice(&ack.m_w.to_le_bytes());
    match ack.truncation {
        None => out.push(0),
        Some((d0, d1)) => {
            out.push(1);
            out.extend_from_slice(&d0.to_le_bytes());
            out.extend_from_slice(&d1.to_le_bytes());
        }
    }
    out
}

/// Decodes a session ACK.
pub fn decode_ack(buf: &[u8]) -> Result<SessionAck, ServeError> {
    let mut r = Reader::new(buf);
    expect_tag(&mut r, TAG_ACK, "ack tag")?;
    let session_id = r.u32("ack session id")?;
    let n = r.u32("ack degree")?;
    let t = r.u64("ack plaintext modulus")?;
    let c_polys = r.u32("ack ciphertext count")?;
    let m = r.u32("ack channel count")?;
    let bands = r.u32("ack band count")?;
    let c_w = r.u32("ack channels per group")?;
    let m_w = r.u32("ack channels per pack")?;
    let truncation = match r.u8("ack truncation flag")? {
        0 => None,
        1 => Some((r.u32("ack d0")?, r.u32("ack d1")?)),
        _ => return Err(ServeError::Malformed("ack truncation flag")),
    };
    r.finish("ack trailing bytes")?;
    Ok(SessionAck {
        session_id,
        n,
        t,
        c_polys,
        m,
        bands,
        c_w,
        m_w,
        truncation,
    })
}

fn encode_blob_list(tag: u8, req_id: u64, blobs: &[Vec<u8>]) -> Vec<u8> {
    let body: usize = blobs.iter().map(|b| 4 + b.len()).sum();
    let mut out = Vec::with_capacity(13 + body);
    out.push(tag);
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(&(blobs.len() as u32).to_le_bytes());
    for blob in blobs {
        out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        out.extend_from_slice(blob);
    }
    out
}

/// `(req_id, blobs)` of a blob-list message tagged `tag`, the blob
/// slices borrowing the frame.
fn decode_blob_list<'a>(
    buf: &'a [u8],
    tag: u8,
    what: &'static str,
) -> Result<(u64, Vec<&'a [u8]>), ServeError> {
    let mut r = Reader::new(buf);
    expect_tag(&mut r, tag, what)?;
    let req_id = r.u64(what)?;
    let count = r.u32(what)? as usize;
    // Each blob costs at least its length prefix; anything claiming more
    // blobs than remaining bytes is malformed, not an allocation request.
    if count > buf.len() {
        return Err(ServeError::Malformed(what));
    }
    let mut blobs = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.u32(what)? as usize;
        blobs.push(r.bytes(len, what)?);
    }
    r.finish(what)?;
    Ok((req_id, blobs))
}

/// Encodes one inference request: the serialized upload ciphertexts in
/// tile order.
pub fn encode_request(req_id: u64, blobs: &[Vec<u8>]) -> Vec<u8> {
    encode_blob_list(TAG_REQUEST, req_id, blobs)
}

/// Decodes one inference request into `(req_id, ciphertext blobs)`, the
/// blob slices borrowing the frame: the admission path deserializes
/// straight out of the received frame, so copying the payload into owned
/// vectors first would only add a frame-sized memcpy per request.
pub fn decode_request_borrowed(buf: &[u8]) -> Result<(u64, Vec<&[u8]>), ServeError> {
    decode_blob_list(buf, TAG_REQUEST, "request")
}

/// Encodes one inference response: the serialized result ciphertexts
/// (`c0` at the unit's output coefficients ‖ all of `c1`, possibly
/// truncated) in unit order `pack·bands + b`.
pub fn encode_response(req_id: u64, blobs: &[Vec<u8>]) -> Vec<u8> {
    encode_blob_list(TAG_RESPONSE, req_id, blobs)
}

/// Why the server refused a request — the typed half of the
/// terminal-outcome contract (every admitted or refused request gets
/// exactly one RESPONSE xor one REFUSED frame).
///
/// The wire carries a one-byte code plus an optional UTF-8 detail
/// string; only [`RefusalReason::Invalid`] uses the detail (the
/// admission error's rendering), so policy code can match on the enum
/// without string comparisons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefusalReason {
    /// The request's deadline expired before a worker reached it.
    Expired,
    /// Admission control shed the request under queue overload.
    Shed,
    /// The session is quarantined by its error-rate circuit breaker.
    Quarantined,
    /// Panic containment isolated this request; co-batched requests
    /// were unaffected.
    Poisoned,
    /// The server is draining for shutdown and admits no new work.
    Shutdown,
    /// The request failed admission validation (bad ciphertext count,
    /// undecodable blob, noise-budget overflow, …); the detail is the
    /// underlying error's rendering.
    Invalid(String),
}

impl RefusalReason {
    fn code(&self) -> u8 {
        match self {
            RefusalReason::Expired => 1,
            RefusalReason::Shed => 2,
            RefusalReason::Quarantined => 3,
            RefusalReason::Poisoned => 4,
            RefusalReason::Shutdown => 5,
            RefusalReason::Invalid(_) => 6,
        }
    }

    fn detail(&self) -> &str {
        match self {
            RefusalReason::Invalid(d) => d,
            _ => "",
        }
    }

    fn from_wire(code: u8, detail: String) -> Result<Self, ServeError> {
        Ok(match code {
            1 => RefusalReason::Expired,
            2 => RefusalReason::Shed,
            3 => RefusalReason::Quarantined,
            4 => RefusalReason::Poisoned,
            5 => RefusalReason::Shutdown,
            6 => RefusalReason::Invalid(detail),
            _ => return Err(ServeError::Malformed("refusal code")),
        })
    }
}

impl fmt::Display for RefusalReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefusalReason::Expired => write!(f, "deadline expired before execution"),
            RefusalReason::Shed => write!(f, "shed under admission overload"),
            RefusalReason::Quarantined => write!(f, "session quarantined by circuit breaker"),
            RefusalReason::Poisoned => write!(f, "request poisoned the batch core"),
            RefusalReason::Shutdown => write!(f, "server draining for shutdown"),
            RefusalReason::Invalid(d) => write!(f, "invalid request: {d}"),
        }
    }
}

/// Encodes a typed refusal for one request.
pub fn encode_refusal(req_id: u64, reason: &RefusalReason) -> Vec<u8> {
    let detail = reason.detail();
    let mut out = Vec::with_capacity(14 + detail.len());
    out.push(TAG_REFUSED);
    out.extend_from_slice(&req_id.to_le_bytes());
    out.push(reason.code());
    out.extend_from_slice(&(detail.len() as u32).to_le_bytes());
    out.extend_from_slice(detail.as_bytes());
    out
}

/// A decoded server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Result ciphertext blobs in unit order.
    Ok {
        /// The request this response answers.
        req_id: u64,
        /// Serialized result ciphertexts, `packs × bands` of them.
        blobs: Vec<Vec<u8>>,
    },
    /// The server refused this request.
    Refused {
        /// The refused request.
        req_id: u64,
        /// Typed server-side reason.
        reason: RefusalReason,
    },
}

/// Decodes a server → client message (response or refusal).
pub fn decode_response(buf: &[u8]) -> Result<Response, ServeError> {
    match buf.first() {
        Some(&TAG_RESPONSE) => {
            let (req_id, blobs) = decode_blob_list(buf, TAG_RESPONSE, "response")?;
            let blobs = blobs.into_iter().map(<[u8]>::to_vec).collect();
            Ok(Response::Ok { req_id, blobs })
        }
        Some(&TAG_REFUSED) => {
            let mut r = Reader::new(buf);
            expect_tag(&mut r, TAG_REFUSED, "refusal tag")?;
            let req_id = r.u64("refusal request id")?;
            let code = r.u8("refusal code")?;
            let len = r.u32("refusal detail length")? as usize;
            let detail = String::from_utf8(r.bytes(len, "refusal detail")?.to_vec())
                .map_err(|_| ServeError::Malformed("refusal detail utf-8"))?;
            r.finish("refusal trailing bytes")?;
            Ok(Response::Refused {
                req_id,
                reason: RefusalReason::from_wire(code, detail)?,
            })
        }
        _ => Err(ServeError::Malformed("response tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip() {
        let bytes = encode_hello(7, 0xDEAD_BEEF);
        assert_eq!(decode_hello(&bytes).unwrap(), (7, 0xDEAD_BEEF));
    }

    #[test]
    fn ack_roundtrip_with_and_without_truncation() {
        for truncation in [None, Some((8, 2))] {
            let ack = SessionAck {
                session_id: 3,
                n: 256,
                t: 1 << 16,
                c_polys: 4,
                m: 2,
                bands: 2,
                c_w: 2,
                m_w: 1,
                truncation,
            };
            assert_eq!(decode_ack(&encode_ack(&ack)).unwrap(), ack);
        }
    }

    #[test]
    fn request_and_response_roundtrip() {
        let blobs = vec![vec![1u8, 2, 3], vec![], vec![9u8; 40]];
        let req = encode_request(11, &blobs);
        let views: Vec<&[u8]> = blobs.iter().map(Vec::as_slice).collect();
        assert_eq!(decode_request_borrowed(&req).unwrap(), (11, views));
        let resp = encode_response(11, &blobs);
        assert_eq!(
            decode_response(&resp).unwrap(),
            Response::Ok { req_id: 11, blobs }
        );
    }

    #[test]
    fn refusal_roundtrip_every_reason() {
        for reason in [
            RefusalReason::Expired,
            RefusalReason::Shed,
            RefusalReason::Quarantined,
            RefusalReason::Poisoned,
            RefusalReason::Shutdown,
            RefusalReason::Invalid("noise overflow".into()),
        ] {
            let resp = decode_response(&encode_refusal(5, &reason)).unwrap();
            assert_eq!(resp, Response::Refused { req_id: 5, reason });
        }
    }

    #[test]
    fn forged_refusal_code_fails_typed() {
        let mut bytes = encode_refusal(5, &RefusalReason::Shed);
        bytes[9] = 0xEE;
        assert!(matches!(
            decode_response(&bytes),
            Err(ServeError::Malformed("refusal code"))
        ));
    }

    #[test]
    fn truncated_messages_fail_typed() {
        let bytes = encode_request(11, &[vec![1u8; 10]]);
        for cut in [0, 1, 5, 14, bytes.len() - 1] {
            assert!(matches!(
                decode_request_borrowed(&bytes[..cut]),
                Err(ServeError::Malformed(_))
            ));
        }
        let mut wrong = bytes.clone();
        wrong[0] = TAG_ACK;
        assert!(decode_request_borrowed(&wrong).is_err());
        // A forged count larger than the buffer cannot trigger a huge
        // allocation.
        let mut forged = encode_request(1, &[]);
        let len = forged.len();
        forged[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request_borrowed(&forged).is_err());
    }
}
