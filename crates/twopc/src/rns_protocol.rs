//! The convolution protocol over multi-limb (RNS) BFV.
//!
//! Identical flow to [`crate::protocol::ConvProtocol`], but the ciphertext
//! modulus is a product of primes — the configuration larger plaintext
//! rings (deeper accumulations, transformer-scale layers) need. All limb
//! arithmetic is exact NTT; FLASH's approximate weight transform applies
//! per limb in hardware, but the functional reference here stays exact.

use crate::shares::ShareRing;
use flash_he::encoding::{ConvEncoder, ConvShape};
use flash_he::poly::Poly;
use flash_he::rns::{RnsCiphertext, RnsParams, RnsSecretKey};
use rand::Rng;

/// One convolution layer's RNS protocol instance.
#[derive(Debug, Clone)]
pub struct RnsConvProtocol {
    params: RnsParams,
    encoder: ConvEncoder,
    ring: ShareRing,
}

impl RnsConvProtocol {
    /// Plans a protocol run for a pre-padded stride-1 convolution.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a power of two ≥ 4.
    pub fn new(params: RnsParams, shape: ConvShape) -> Self {
        let l = params.t.trailing_zeros();
        assert!(params.t.is_power_of_two() && l >= 2, "t must be 2^l");
        let encoder = ConvEncoder::new(shape, params.n);
        Self {
            ring: ShareRing::new(l),
            params,
            encoder,
        }
    }

    /// The share ring.
    pub fn ring(&self) -> ShareRing {
        self.ring
    }

    /// The tiling plan.
    pub fn encoder(&self) -> &ConvEncoder {
        &self.encoder
    }

    /// Runs the protocol; returns the reconstructed signed outputs (the
    /// share split/merge is identical to the single-limb protocol, so the
    /// RNS variant exposes the end result directly).
    ///
    /// # Panics
    ///
    /// Panics on size mismatches.
    pub fn run<R: Rng>(
        &self,
        sk: &RnsSecretKey,
        x: &[i64],
        weights: &[i64],
        rng: &mut R,
    ) -> Vec<i64> {
        let shape = *self.encoder.shape();
        assert_eq!(x.len(), shape.input_len(), "activation size mismatch");
        assert_eq!(
            weights.len(),
            shape.m * shape.kernel_len(),
            "weight size mismatch"
        );
        let p = &self.params;
        let enc = &self.encoder;

        let (x_client, x_server) = self.ring.share_vec(x, rng);
        let xc: Vec<i64> = x_client.iter().map(|&v| v as i64).collect();
        let xs: Vec<i64> = x_server.iter().map(|&v| v as i64).collect();

        let cts: Vec<RnsCiphertext> = enc
            .encode_activation(&xc)
            .iter()
            .map(|tile| sk.encrypt(&Poly::from_signed(tile, p.t), rng))
            .collect();
        let cts_sum: Vec<RnsCiphertext> = cts
            .iter()
            .zip(enc.encode_activation(&xs))
            .map(|(ct, tile)| ct.add_plain(&Poly::from_signed(&tile, p.t), p))
            .collect();

        let bands = enc.bands();
        let out_len = shape.output_len();
        let mut y_client = vec![0u64; out_len];
        let mut y_server = vec![0u64; out_len];
        for oc in 0..shape.m {
            let w_polys = enc.encode_weight(
                &weights[oc * shape.kernel_len()..][..shape.kernel_len()],
                oc,
            );
            for b in 0..bands {
                let mut acc: Option<RnsCiphertext> = None;
                for (g, w_poly) in w_polys.iter().enumerate() {
                    let term = cts_sum[g * bands + b].mul_plain_signed(&w_poly[b], p);
                    acc = Some(match acc {
                        None => term,
                        Some(a) => a.add_ct(&term),
                    });
                }
                let acc = acc.expect("at least one channel group");
                let mask_vals: Vec<u64> = (0..p.n).map(|_| rng.gen_range(0..p.t)).collect();
                let mask = Poly::from_coeffs(mask_vals, p.t);
                let masked = acc.sub_plain(&mask, p);

                enc.decode_band(mask.coeffs(), b, oc, &mut y_server);
                enc.decode_band(sk.decrypt(&masked).coeffs(), b, oc, &mut y_client);
            }
        }
        self.ring.reconstruct_vec(&y_client, &y_server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::expected_conv_mod;
    use rand::SeedableRng;

    #[test]
    fn rns_protocol_matches_cleartext_conv() {
        let p = RnsParams::test_double();
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sk = RnsSecretKey::generate(&p, &mut rng);
        let proto = RnsConvProtocol::new(p, shape);
        use rand::Rng;
        let x: Vec<i64> = (0..shape.input_len())
            .map(|_| rng.gen_range(-8..8))
            .collect();
        let w: Vec<i64> = (0..shape.m * shape.kernel_len())
            .map(|_| rng.gen_range(-8..8))
            .collect();
        let got = proto.run(&sk, &x, &w, &mut rng);
        assert_eq!(got, expected_conv_mod(&x, &w, &shape, proto.ring()));
    }

    #[test]
    fn rns_protocol_survives_dense_weights() {
        // The configuration single-limb parameters cannot support (see
        // flash-he's rns tests): fully dense ±8 kernels over many
        // channels.
        let p = RnsParams::new(256, 36, 2, 1 << 16, 3.2);
        let shape = ConvShape {
            c: 4,
            h: 5,
            w: 5,
            m: 1,
            k: 5,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let sk = RnsSecretKey::generate(&p, &mut rng);
        let proto = RnsConvProtocol::new(p, shape);
        use rand::Rng;
        let x: Vec<i64> = (0..shape.input_len())
            .map(|_| rng.gen_range(-8..8))
            .collect();
        let w: Vec<i64> = (0..shape.m * shape.kernel_len())
            .map(|_| rng.gen_range(-8..8))
            .collect();
        let got = proto.run(&sk, &x, &w, &mut rng);
        assert_eq!(got, expected_conv_mod(&x, &w, &shape, proto.ring()));
    }

    #[test]
    fn rns_protocol_banded_geometry() {
        let p = RnsParams::new(256, 36, 2, 1 << 16, 3.2);
        let shape = ConvShape {
            c: 1,
            h: 24,
            w: 24,
            m: 1,
            k: 3,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sk = RnsSecretKey::generate(&p, &mut rng);
        let proto = RnsConvProtocol::new(p, shape);
        assert!(proto.encoder().bands() > 1);
        use rand::Rng;
        let x: Vec<i64> = (0..shape.input_len())
            .map(|_| rng.gen_range(-8..8))
            .collect();
        let w: Vec<i64> = (0..shape.kernel_len())
            .map(|_| rng.gen_range(-8..8))
            .collect();
        let got = proto.run(&sk, &x, &w, &mut rng);
        assert_eq!(got, expected_conv_mod(&x, &w, &shape, proto.ring()));
    }
}
