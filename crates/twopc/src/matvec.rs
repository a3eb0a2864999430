//! The hybrid-protocol fully-connected (matrix–vector) layer.
//!
//! Same flow as the convolution protocol: the client sends encrypted
//! input-vector shares over a real [`Transport`], the server receives,
//! validates, folds in its share, multiplies by the weight-matrix
//! polynomials, masks, and returns the serialized responses; the output
//! is again secret-shared. (No noise guard here: the FC layer has no
//! approximate-backend band decomposition — the bound composition lives
//! in the convolution protocol where FLASH's approximate transforms
//! run.)

use crate::error::FlashError;
use crate::hconv;
use crate::protocol::ProtocolStats;
use crate::shares::ShareRing;
use crate::transport::{InMemoryTransport, Transport, TransportConfig};
use flash_he::matvec::MatVecEncoder;
use flash_he::{serialize, Ciphertext, HeParams, Poly, PolyMulBackend, SecretKey};
use rand::Rng;

/// `(client share, server share)` of the FC output vector.
pub type MatVecShares = (Vec<u64>, Vec<u64>);

/// One FC layer's protocol instance.
#[derive(Debug, Clone)]
pub struct MatVecProtocol {
    params: HeParams,
    encoder: MatVecEncoder,
    backend: PolyMulBackend,
    ring: ShareRing,
    transport: TransportConfig,
}

impl MatVecProtocol {
    /// Plans `y = W·x` with `W ∈ Z^{no×ni}`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a power of two ≥ 4.
    pub fn new(params: HeParams, ni: usize, no: usize, backend: PolyMulBackend) -> Self {
        let l = params.t.trailing_zeros();
        assert!(params.t.is_power_of_two() && l >= 2, "t must be 2^l");
        let encoder = MatVecEncoder::new(ni, no, params.n);
        Self {
            ring: ShareRing::new(l),
            params,
            encoder,
            backend,
            transport: TransportConfig::default(),
        }
    }

    /// Sets the wire configuration for both transport directions.
    pub fn with_transport_config(mut self, cfg: TransportConfig) -> Self {
        self.transport = cfg;
        self
    }

    /// The tiling plan.
    pub fn encoder(&self) -> &MatVecEncoder {
        &self.encoder
    }

    /// The share ring.
    pub fn ring(&self) -> ShareRing {
        self.ring
    }

    /// Runs the protocol; `x` is the cleartext input (shared internally),
    /// `w` the server's row-major weight matrix. Returns `(client share,
    /// server share)` of `y` plus the wire statistics.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError`] when a wire payload cannot be recovered
    /// within the transport's retry budget or fails deserialization or
    /// validation.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn run<R: Rng>(
        &self,
        sk: &SecretKey,
        x: &[i64],
        w: &[i64],
        rng: &mut R,
    ) -> Result<(MatVecShares, ProtocolStats), FlashError> {
        let enc = &self.encoder;
        let p = &self.params;
        assert_eq!(x.len(), enc.input_dim(), "input dimension mismatch");
        assert_eq!(
            w.len(),
            enc.input_dim() * enc.output_dim(),
            "matrix size mismatch"
        );
        let mut stats = ProtocolStats::default();
        let mut up = InMemoryTransport::new(self.transport.clone());
        let mut down = InMemoryTransport::new(self.transport.clone());

        let (x_client, x_server) = self.ring.share_vec(x, rng);
        let xc: Vec<i64> = x_client.iter().map(|&v| v as i64).collect();
        let xs: Vec<i64> = x_server.iter().map(|&v| v as i64).collect();

        // Client: seal its share, one ciphertext per column chunk.
        let chunks = enc.encode_vector(&xc);
        stats.ciphertexts_up = chunks.len();
        hconv::seal(sk, &chunks, rng, |blob| up.send(&blob))?;

        // Server: open the upload against its own share.
        let uploads = (0..chunks.len()).map(|_| up.recv().map_err(FlashError::from));
        let cts_sum = hconv::open(p, &enc.encode_vector(&xs), uploads)?;
        stats.upload_bytes = up.stats().payload_bytes as usize;
        stats.activation_transforms = 2 * cts_sum.len();

        let no = enc.output_dim();
        let mut y_client = vec![0u64; no];
        let mut y_server = vec![0u64; no];
        for rb in 0..enc.row_blocks() {
            // Fused multiply-accumulate: one resident accumulator per row
            // block, one weight transform per chunk, no intermediate
            // ciphertexts.
            let mut acc = Ciphertext::zero(p.n, p.q);
            for (cc, ct) in cts_sum.iter().enumerate() {
                let wp = enc.encode_matrix(w, rb, cc);
                ct.mul_plain_signed_acc(&wp, p, &self.backend, &mut acc);
                stats.weight_transforms += 1;
                stats.pointwise_muls += p.n as u64;
            }
            let mask_vals: Vec<u64> = (0..p.n).map(|_| rng.gen_range(0..p.t)).collect();
            let mask = Poly::from_coeffs(mask_vals, p.t);
            let masked = acc.sub_plain(&mask, p);
            stats.inverse_transforms += 2;
            stats.ciphertexts_down += 1;

            // server share from the mask; the response goes down the wire
            enc.decode_block(mask.coeffs(), rb, &mut y_server);
            down.send(&serialize::ciphertext_to_bytes(&masked))?;
        }

        // Client: drain the downlink, then unseal each response into its
        // own rows of the output share.
        let received = (0..enc.row_blocks())
            .map(|_| down.recv())
            .collect::<Result<Vec<_>, _>>()?;
        let rows = enc.rows_per_block();
        hconv::unseal(
            sk,
            None,
            &received,
            &mut y_client,
            |rb| rb * rows..no.min((rb + 1) * rows),
            |_, m, out| {
                for (i, y) in out.iter_mut().enumerate() {
                    *y = m[enc.output_index(i)];
                }
            },
        )?;
        stats.download_bytes = down.stats().payload_bytes as usize;
        let wire = up.stats().merge(down.stats());
        stats.upload_wire_bytes = up.stats().wire_bytes as usize;
        stats.download_wire_bytes = down.stats().wire_bytes as usize;
        stats.faults_detected = wire.faults_detected as usize;
        stats.frames_retried = wire.frames_retried as usize;
        Ok(((y_client, y_server), stats))
    }

    /// Reconstructs the signed output from the two shares.
    pub fn reconstruct(&self, client: &[u64], server: &[u64]) -> Vec<i64> {
        self.ring.reconstruct_vec(client, server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{FaultOp, FaultPlan};
    use flash_he::matvec::matvec_reference;
    use rand::SeedableRng;

    fn run_case(ni: usize, no: usize, backend: PolyMulBackend, seed: u64) {
        let params = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&params, &mut rng);
        let proto = MatVecProtocol::new(params, ni, no, backend);
        let x: Vec<i64> = (0..ni).map(|i| ((i as i64 * 13) % 15) - 7).collect();
        let w: Vec<i64> = (0..ni * no).map(|i| ((i as i64 * 7) % 15) - 7).collect();
        let ((yc, ys), stats) = proto.run(&sk, &x, &w, &mut rng).unwrap();
        let got = proto.reconstruct(&yc, &ys);
        let ring = proto.ring();
        let want: Vec<i64> = matvec_reference(&w, &x, ni, no)
            .iter()
            .map(|&v| ring.to_signed(ring.reduce(v)))
            .collect();
        assert_eq!(got, want, "ni={ni} no={no}");
        assert_eq!(stats.ciphertexts_up, proto.encoder().col_chunks());
        assert_eq!(stats.ciphertexts_down, proto.encoder().row_blocks());
        assert!(stats.upload_wire_bytes > stats.upload_bytes);
        assert!(stats.download_wire_bytes > stats.download_bytes);
    }

    #[test]
    fn single_block_fc() {
        run_case(16, 8, PolyMulBackend::Ntt, 1);
    }

    #[test]
    fn row_blocked_fc() {
        run_case(64, 12, PolyMulBackend::FftF64, 2);
    }

    #[test]
    fn column_chunked_fc() {
        run_case(300, 3, PolyMulBackend::Ntt, 3);
    }

    #[test]
    fn fc_on_approximate_backend() {
        let params = HeParams::test_256();
        let mut cfg = flash_fft::ApproxFftConfig::uniform(
            params.n,
            flash_math::fixed::FxpFormat::new(18, 34),
            30,
        );
        cfg.max_shift = 30;
        run_case(32, 10, PolyMulBackend::approx(cfg), 4);
    }

    #[test]
    fn fc_recovers_from_faulty_wire() {
        let params = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sk = SecretKey::generate(&params, &mut rng);
        let (ni, no) = (16, 8);
        let x: Vec<i64> = (0..ni).map(|i| (i as i64 % 5) - 2).collect();
        let w: Vec<i64> = (0..ni * no).map(|i| (i as i64 % 5) - 2).collect();

        let clean = MatVecProtocol::new(params.clone(), ni, no, PolyMulBackend::Ntt);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(3);
        let (clean_out, _) = clean.run(&sk, &x, &w, &mut r1).unwrap();

        // Corrupt the first frame of each direction; the retransmission
        // delivers the clean copy, so the result is bit-identical.
        let faulty = MatVecProtocol::new(params, ni, no, PolyMulBackend::Ntt)
            .with_transport_config(TransportConfig::faulty(FaultPlan::Scripted(vec![
                FaultOp::FlipBit { byte: 33, bit: 5 },
            ])));
        let mut r2 = rand::rngs::StdRng::seed_from_u64(3);
        let (faulty_out, stats) = faulty.run(&sk, &x, &w, &mut r2).unwrap();
        assert_eq!(
            faulty_out, clean_out,
            "recovered run must be bit-identical to the clean run"
        );
        assert!(stats.faults_detected >= 2 && stats.frames_retried >= 2);
    }
}
