//! The client side of a serving session.
//!
//! A [`Client`] owns the session's secret key and the two
//! [`SharedTransport`] links. Request submission is split so callers
//! control what sits on the hot path: [`Client::prepare`] does the
//! client-local work (share split, then the pipeline's **seal**),
//! [`Client::dispatch`] puts the bytes on the wire and drives the
//! server's admission, and [`Client::collect`] drains one response
//! (the pipeline's **unseal** into the client's output share).

use crate::server::InferenceServer;
use crate::{wire, ServeError};
use flash_2pc::transport::TransportConfig;
use flash_2pc::{HconvLayer, ShareRing, SharedTransport, Transport};
use flash_he::encoding::{ConvEncoder, ConvShape};
use flash_he::{HeParams, SecretKey};
use rand::Rng;
use std::convert::Infallible;
use std::time::Duration;

/// One encoded-and-encrypted request, ready to dispatch.
///
/// `server_share` is the server's additive share of the activation —
/// 2PC state that in a real deployment the server already holds; the
/// in-process driver hands it to [`InferenceServer::ingest`] alongside
/// the wire bytes.
#[derive(Debug, Clone)]
pub struct PreparedRequest {
    /// Client-chosen request id, echoed by the response.
    pub req_id: u64,
    /// The serialized REQUEST message.
    pub upload: Vec<u8>,
    /// The server's activation share (signed, `input_len`).
    pub server_share: Vec<i64>,
    /// The cleartext activation, kept so a refused request can be
    /// re-prepared ([`Client::retry_prepare`]) without the caller
    /// holding on to its inputs.
    pub activation: Vec<i64>,
}

/// A connected client session.
#[derive(Debug)]
pub struct Client {
    session_id: u32,
    sk: SecretKey,
    layer: HconvLayer,
    uplink: SharedTransport,
    downlink: SharedTransport,
}

impl Client {
    /// Opens a session against an in-process server: builds the two
    /// links from `cfg_up`/`cfg_down` (fault plans included — this is
    /// where chaos tests attach their per-session schedules), sends
    /// HELLO, drives [`InferenceServer::accept`], and plans the layer at
    /// the partition and truncation the server announced.
    ///
    /// # Errors
    ///
    /// Wire failures during the handshake, [`ServeError::UnknownModel`],
    /// or [`ServeError::Malformed`] when the server's negotiated
    /// parameters disagree with `params` and `shape`, or announce a
    /// partition that does not fit the shape.
    #[allow(clippy::too_many_arguments)]
    pub fn connect<R: Rng>(
        server: &InferenceServer,
        model_id: u64,
        client_tag: u64,
        params: HeParams,
        shape: ConvShape,
        cfg_up: TransportConfig,
        cfg_down: TransportConfig,
        recv_timeout: Duration,
        rng: &mut R,
    ) -> Result<Client, ServeError> {
        let uplink = SharedTransport::with_timeout(cfg_up, recv_timeout);
        let downlink = SharedTransport::with_timeout(cfg_down, recv_timeout);
        let sk = SecretKey::generate(&params, rng);

        uplink
            .clone()
            .send(&wire::encode_hello(model_id, client_tag))?;
        server.accept(uplink.clone(), downlink.clone())?;
        let ack = wire::decode_ack(&downlink.clone().recv()?)?;
        // The partition and the truncation pair are the server's to
        // announce (the partition depends on the weights' noise); the
        // client plans at them when the partition fits the shape, and
        // checks the counts echoed with them.
        let partition = (ack.c_w as usize, ack.m_w as usize);
        if ack.n as usize != params.n
            || ack.t != params.t
            || ack.m as usize != shape.m
            || !ConvEncoder::new(shape, params.n)
                .partitions()
                .any(|fits| fits == partition)
        {
            return Err(ServeError::Malformed("negotiated parameters"));
        }
        let layer = HconvLayer::with_partition(params, shape, ack.truncation, partition);
        let encoder = layer.encoder();
        if ack.c_polys as usize != encoder.activation_polys()
            || ack.bands as usize != encoder.bands()
        {
            return Err(ServeError::Malformed("negotiated parameters"));
        }
        Ok(Client {
            session_id: ack.session_id,
            sk,
            layer,
            uplink,
            downlink,
        })
    }

    /// The server-assigned session id.
    pub fn session_id(&self) -> u32 {
        self.session_id
    }

    /// The share ring `Z_{2^l}`.
    pub fn ring(&self) -> ShareRing {
        self.layer.ring()
    }

    /// Client-local request construction: splits the cleartext
    /// activation into shares, encodes and encrypts the client share,
    /// and serializes the REQUEST message. No wire traffic.
    pub fn prepare<R: Rng>(&self, req_id: u64, x: &[i64], rng: &mut R) -> PreparedRequest {
        assert_eq!(
            x.len(),
            self.layer.encoder().shape().input_len(),
            "activation size mismatch"
        );
        let (x_client, x_server) = self.ring().share_vec(x, rng);
        let mut blobs: Vec<Vec<u8>> = Vec::new();
        let sealed = self.layer.seal(&self.sk, &x_client, rng, |blob| {
            blobs.push(blob);
            Ok::<(), Infallible>(())
        });
        let Ok(()) = sealed;
        PreparedRequest {
            req_id,
            upload: wire::encode_request(req_id, &blobs),
            server_share: x_server.iter().map(|&v| v as i64).collect(),
            activation: x.to_vec(),
        }
    }

    /// Re-prepares a refused (or otherwise terminally failed) request
    /// for resubmission under the same `req_id`: a fresh share split and
    /// fresh encryption randomness, so the retry leaks nothing about the
    /// first attempt — and, because the server derives its response
    /// masks from `(session, req_id, unit)` seeds, the resubmission is
    /// answered exactly as the original would have been.
    pub fn retry_prepare<R: Rng>(&self, prev: &PreparedRequest, rng: &mut R) -> PreparedRequest {
        self.prepare(prev.req_id, &prev.activation, rng)
    }

    /// Puts a prepared request on the uplink and drives the server's
    /// admission. Blocks under backpressure (session window or global
    /// queue). `&mut self` serializes submissions per session — the
    /// uplink is positional, so one session's requests must enter in
    /// order.
    ///
    /// # Errors
    ///
    /// Admission failures from [`InferenceServer::ingest`]; wire faults
    /// on the uplink surface here (and poison this session only).
    pub fn dispatch(
        &mut self,
        server: &InferenceServer,
        prepared: &PreparedRequest,
    ) -> Result<(), ServeError> {
        self.uplink.clone().send(&prepared.upload)?;
        server.ingest(self.session_id, prepared.req_id, &prepared.server_share)
    }

    /// Drains one response from the downlink: deserializes (undoing the
    /// agreed truncation), decrypts, and decodes the client's output
    /// share.
    ///
    /// Responses of pipelined requests arrive in server completion
    /// order; the returned request id says which one this is.
    ///
    /// # Errors
    ///
    /// Wire faults on the downlink, [`ServeError::Refused`] carrying the
    /// typed [`wire::RefusalReason`] when the server refused the
    /// request, or scheme-level failures during decryption.
    pub fn collect(&mut self) -> Result<(u64, Vec<u64>), ServeError> {
        let msg = self.downlink.clone().recv()?;
        let (req_id, blobs) = match wire::decode_response(&msg)? {
            wire::Response::Ok { req_id, blobs } => (req_id, blobs),
            wire::Response::Refused { req_id, reason } => {
                return Err(ServeError::Refused { req_id, reason })
            }
        };
        if blobs.len() != self.layer.encoder().result_polys() {
            return Err(ServeError::Malformed("response ciphertext count"));
        }
        let y_client = self.layer.unseal(&self.sk, &blobs)?;
        Ok((req_id, y_client))
    }
}
