//! Wire serialization of ciphertexts and polynomials.
//!
//! The protocol's communication costs (Cheetah's headline advantage) are
//! accounted from real byte strings: coefficients are packed
//! little-endian into `⌈log2 q / 8⌉` bytes each, matching
//! [`crate::Ciphertext::byte_size`]. Both read the width from
//! [`modulus_bits`]: `log2 q` exactly on a power-of-two `q`, the bit
//! length of `q` on a prime one.
//!
//! One codec packs every ciphertext on the wire: `c0` at a list of
//! coefficient positions, then all of `c1`, each component at its own
//! width. The full ciphertext here is its untruncated, all-positions
//! case; [`crate::truncate`] holds the response form, which drops low bits
//! and sends `c0` only where the outputs sit.
//!
//! An upload is the other wire form: all of `c0` at full width, then the
//! 32-byte seed `c1 = a` expands from ([`upload_to_bytes`],
//! [`upload_from_bytes`]; see [`crate::keys`] for why the seed may
//! travel in place of `a`).

use crate::cipher::Ciphertext;
use crate::keys::{expand_a, SEED_BYTES};
use crate::poly::Poly;
use crate::truncate::TruncatedCiphertext;
use std::fmt;

/// Errors from deserialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the header/payload requires.
    Truncated,
    /// A decoded coefficient is not reduced modulo the modulus.
    CoefficientOutOfRange { index: usize },
    /// The buffer continues past the end of the encoding.
    TrailingBytes { extra: usize },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire buffer truncated"),
            WireError::CoefficientOutOfRange { index } => {
                write!(f, "coefficient {index} out of range for modulus")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} bytes past the end of the encoding")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Checks that a wire buffer is exactly as long as its encoding.
///
/// # Errors
///
/// [`WireError::Truncated`] when it is shorter, [`WireError::TrailingBytes`]
/// when it is longer.
pub(crate) fn expect_len(buf: &[u8], len: usize) -> Result<(), WireError> {
    match buf.len().checked_sub(len) {
        None => Err(WireError::Truncated),
        Some(0) => Ok(()),
        Some(extra) => Err(WireError::TrailingBytes { extra }),
    }
}

/// Bits of a residue modulo `q` on the wire, `log2 q`: the exponent on
/// a power-of-two `q` (every residue is below `2^{log2 q} = q`), the bit
/// length of `q` otherwise. The one width rule of the codec, the byte
/// accounting and the truncation planner.
#[inline]
pub fn modulus_bits(q: u64) -> u32 {
    if q.is_power_of_two() {
        q.trailing_zeros()
    } else {
        64 - q.leading_zeros()
    }
}

/// Bytes per coefficient for a modulus.
#[inline]
pub fn coeff_bytes(modulus: u64) -> usize {
    Lane::new(modulus, 0).cb
}

/// One ciphertext component's packing: each value keeps its high
/// `log2 q − d` bits in `⌈(log2 q − d)/8⌉` little-endian bytes. Every
/// ciphertext on the wire is two lanes back to back; `d = 0` is the
/// untruncated form. On a power-of-two `q` a truncated value's rounding
/// carry past `2^{log2 q − d}` wraps to 0, which is `q ≡ 0` exactly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    /// Bytes per value.
    cb: usize,
    /// Dropped low bits.
    d: u32,
    /// Exclusive bound of a packed value: `q` when nothing is dropped (a
    /// value must be a reduced residue), `2^{log2 q − d}` otherwise (the
    /// pad bits of the top byte must be clear).
    bound: u64,
    q: u64,
}

impl Lane {
    /// # Panics
    ///
    /// Panics if `d` is ≥ the modulus width.
    pub(crate) fn new(q: u64, d: u32) -> Self {
        let q_bits = modulus_bits(q);
        assert!(d < q_bits, "cannot drop the whole coefficient");
        let width = q_bits - d;
        Lane {
            cb: (width as usize).div_ceil(8),
            d,
            bound: if d == 0 { q } else { 1 << width },
            q,
        }
    }

    /// Packed size of `count` values.
    pub(crate) fn bytes(&self, count: usize) -> usize {
        count * self.cb
    }

    /// The wire value of residue `c`: the nearest multiple of `2^d`,
    /// shifted down (so the reconstruction error is centred).
    pub(crate) fn round(&self, c: u64) -> u64 {
        if self.d == 0 {
            return c;
        }
        // `(c + 2^{d-1}) >> d` is `c >> d` plus bit d − 1 of `c`, so
        // the rounding carry survives for coefficients near q without a
        // wider add; the mask keeps exactly the wire bits (a carry past
        // 2^{log2 q} wraps to 0: exactly q on a power-of-two ring, within
        // 2^{d-1} of the coefficient on a prime one).
        ((c >> self.d) + ((c >> (self.d - 1)) & 1)) & (self.bound - 1)
    }

    /// The residue a wire value stands for: `h·2^d mod q`. `h < 2^{log2 q − d}`
    /// puts `h·2^d` below `2^{log2 q}` — `q` itself on a power-of-two
    /// ring, `< 2q` on a prime one — so one conditional subtraction
    /// reduces it.
    pub(crate) fn lift(&self, h: u64) -> u64 {
        let v = h << self.d;
        if v >= self.q {
            v - self.q
        } else {
            v
        }
    }

    /// Appends `values` (wire values, each below the lane's bound).
    pub(crate) fn write(&self, out: &mut Vec<u8>, values: impl ExactSizeIterator<Item = u64>) {
        let (cb, start) = (self.cb, out.len());
        let len = values.len() * cb;
        // Over-allocate by one word so every value can be stored as a
        // full little-endian u64; ascending writes overwrite the zero high
        // bytes of their predecessor, and the tail is truncated away.
        out.resize(start + len + 8, 0);
        for (k, v) in values.enumerate() {
            out[start + k * cb..][..8].copy_from_slice(&v.to_le_bytes());
        }
        out.truncate(start + len);
    }

    /// Decodes `buf`, exactly `out.len()` packed values, into `out` as
    /// wire values.
    ///
    /// # Errors
    ///
    /// [`WireError::CoefficientOutOfRange`] with the value's index in the
    /// lane when one reaches the bound (`out` is then unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `buf` does not hold exactly `out.len()` values.
    pub(crate) fn read(&self, buf: &[u8], out: &mut [u64]) -> Result<(), WireError> {
        let cb = self.cb;
        assert_eq!(buf.len(), self.bytes(out.len()), "lane length");
        // Branch-free inner loop: decode everything, fold the range check
        // into one flag, and locate the offending index only on failure.
        // Values are read as full little-endian u64 words masked down to
        // `cb` bytes wherever the buffer permits; only the last few fall
        // back to byte-wise assembly.
        let mask = if cb == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * cb)) - 1
        };
        let wide = if buf.len() >= 8 {
            (buf.len() - 8) / cb + 1
        } else {
            0
        };
        let (head, tail) = out.split_at_mut(wide.min(out.len()));
        let mut in_range = true;
        for (o, word) in head.iter_mut().zip(buf.windows(8).step_by(cb)) {
            let h = u64::from_le_bytes(word.try_into().expect("8-byte window")) & mask;
            in_range &= h < self.bound;
            *o = h;
        }
        for (o, bytes) in tail.iter_mut().zip(buf[head.len() * cb..].chunks_exact(cb)) {
            let mut le = [0u8; 8];
            le[..cb].copy_from_slice(bytes);
            let h = u64::from_le_bytes(le);
            in_range &= h < self.bound;
            *o = h;
        }
        if in_range {
            return Ok(());
        }
        let index = out
            .iter()
            .position(|&h| h >= self.bound)
            .expect("flag implies an offender");
        Err(WireError::CoefficientOutOfRange { index })
    }
}

/// Serializes a polynomial's coefficients (the modulus and length travel
/// in the session context, as in real protocol implementations).
pub fn poly_to_bytes(p: &Poly) -> Vec<u8> {
    let mut out = Vec::new();
    Lane::new(p.modulus(), 0).write(&mut out, p.coeffs().iter().copied());
    out
}

/// Deserializes a polynomial of degree `n` modulo `modulus`.
///
/// # Errors
///
/// Returns [`WireError`] on a buffer of the wrong length or unreduced
/// coefficients.
pub fn poly_from_bytes(buf: &[u8], n: usize, modulus: u64) -> Result<Poly, WireError> {
    let lane = Lane::new(modulus, 0);
    expect_len(buf, lane.bytes(n))?;
    let mut poly = Poly::zero(n, modulus);
    lane.read(buf, poly.coeffs_mut())?;
    Ok(poly)
}

/// Serializes a ciphertext (`c0 ‖ c1`). No protocol path sends this
/// form: uploads travel as [`upload_to_bytes`], responses as
/// [`TruncatedCiphertext::response_to_bytes`].
pub fn ciphertext_to_bytes(ct: &Ciphertext) -> Vec<u8> {
    TruncatedCiphertext::response_to_bytes(ct, 0..ct.len(), None)
}

/// Deserializes a ciphertext of degree `n` modulo `q`.
///
/// # Errors
///
/// Returns [`WireError`] on a buffer of the wrong length or unreduced
/// coefficients.
pub fn ciphertext_from_bytes(buf: &[u8], n: usize, q: u64) -> Result<Ciphertext, WireError> {
    TruncatedCiphertext::decode(buf, n, q, 0..n, None)
}

/// Wire length of an upload of degree `n` modulo `q`:
/// `N·⌈log2 q / 8⌉ + 32`.
pub fn upload_len(n: usize, q: u64) -> usize {
    Lane::new(q, 0).bytes(n) + SEED_BYTES
}

/// Wire length of a response of degree `n` modulo `q` that carries `c0`
/// at `positions` coefficients and all of `c1`, at the agreed
/// `truncation` (`(0, 0)` when `None`):
/// `P·⌈(log2 q − d0)/8⌉ + N·⌈(log2 q − d1)/8⌉`. The one width rule of the
/// response codec ([`TruncatedCiphertext::response_from_bytes_at`]
/// checks a buffer against it) and of the encoder planner's byte price.
///
/// # Panics
///
/// Panics if a shift is ≥ the modulus width.
pub fn response_len(n: usize, q: u64, positions: usize, truncation: Option<(u32, u32)>) -> usize {
    let (d0, d1) = truncation.unwrap_or((0, 0));
    Lane::new(q, d0).bytes(positions) + Lane::new(q, d1).bytes(n)
}

/// Serializes an upload: all of `c0` at full width, then the seed its
/// `c1 = a` was expanded from ([`crate::SecretKey::encrypt_batch_seeded`]).
pub fn upload_to_bytes(c0: &Poly, seed: &[u8; SEED_BYTES]) -> Vec<u8> {
    let mut out = Vec::with_capacity(upload_len(c0.len(), c0.modulus()) + 8);
    Lane::new(c0.modulus(), 0).write(&mut out, c0.coeffs().iter().copied());
    out.extend_from_slice(seed);
    out
}

/// Deserializes an upload of degree `n` modulo `q` into its ciphertext,
/// expanding `c1 = a` from the seed with [`expand_a`].
///
/// # Errors
///
/// [`WireError::Truncated`] / [`WireError::TrailingBytes`] on any length
/// other than [`upload_len`], [`WireError::CoefficientOutOfRange`] on a
/// `c0` value `≥ q`.
pub fn upload_from_bytes(buf: &[u8], n: usize, q: u64) -> Result<Ciphertext, WireError> {
    expect_len(buf, upload_len(n, q))?;
    let (c0, seed) = buf.split_at(buf.len() - SEED_BYTES);
    let c0 = poly_from_bytes(c0, n, q)?;
    let seed = seed.try_into().expect("split at the seed length");
    Ok(Ciphertext::new(c0, expand_a(seed, n, q)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SecretKey;
    use crate::params::HeParams;
    use rand::SeedableRng;

    #[test]
    fn poly_roundtrip() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let poly = Poly::uniform(p.n, p.q, &mut rng);
        let bytes = poly_to_bytes(&poly);
        assert_eq!(bytes.len(), p.n * coeff_bytes(p.q));
        let back = poly_from_bytes(&bytes, p.n, p.q).unwrap();
        assert_eq!(back, poly);
    }

    #[test]
    fn ciphertext_roundtrip_and_size_matches_accounting() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m, &mut rng);
        let bytes = ciphertext_to_bytes(&ct);
        assert_eq!(
            bytes.len(),
            ct.byte_size(),
            "wire size must match accounting"
        );
        let back = ciphertext_from_bytes(&bytes, p.n, p.q).unwrap();
        assert_eq!(back, ct);
        assert_eq!(sk.decrypt(&back), m);
    }

    #[test]
    fn pow2_ring_ciphertext_roundtrip() {
        // q = 2^62 needs 8-byte coefficient words (62-bit residues);
        // the serializer is modulus-generic, so the power-of-two ring
        // must roundtrip bit-exactly including residues right below q.
        let p = HeParams::pow2_test_256();
        assert_eq!(coeff_bytes(p.q), 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m, &mut rng);
        let bytes = ciphertext_to_bytes(&ct);
        assert_eq!(bytes.len(), ct.byte_size());
        let back = ciphertext_from_bytes(&bytes, p.n, p.q).unwrap();
        assert_eq!(back, ct);
        assert_eq!(sk.decrypt(&back), m);

        let top = Poly::from_coeffs(vec![p.q - 1; p.n], p.q);
        let round = poly_from_bytes(&poly_to_bytes(&top), p.n, p.q).unwrap();
        assert_eq!(round, top);
        // A residue at exactly q must still be rejected on this ring.
        let mut bad = poly_to_bytes(&top);
        bad[..8].copy_from_slice(&p.q.to_le_bytes());
        assert!(matches!(
            poly_from_bytes(&bad, p.n, p.q),
            Err(WireError::CoefficientOutOfRange { index: 0 })
        ));
    }

    #[test]
    fn lane_width_is_log2_q_minus_d_on_both_rings() {
        // ⌈(log2 q − d)/8⌉ bytes per value, from the one width rule, for
        // a 39-bit prime and for q = 2^62 (log2 q = 62, not the 63-bit
        // length of q).
        let prime = HeParams::flash_default().q;
        let pow2 = HeParams::flash_pow2().q;
        assert_eq!((modulus_bits(prime), modulus_bits(pow2)), (39, 62));
        let ds = [0u32, 8, 26, 30, 38];
        for (q, want) in [(prime, [5usize, 4, 2, 2, 1]), (pow2, [8, 7, 5, 4, 3])] {
            for (d, want) in ds.into_iter().zip(want) {
                let lane = Lane::new(q, d);
                assert_eq!(lane.bytes(1), want, "q={q} d={d}");
                assert_eq!(want, (modulus_bits(q) - d).div_ceil(8) as usize);
            }
        }
    }

    #[test]
    fn pow2_lane_wraps_the_rounding_carry_to_zero() {
        // On q = 2^62, coefficients in [q − 2^{d−1}, q) round up to
        // 2^{62−d}, one past the lane: the carry wraps to wire value 0,
        // which lifts to 0 ≡ q, within 2^{d−1} of the coefficient.
        let q = HeParams::flash_pow2().q;
        for d in [8u32, 26, 30, 38] {
            let (lane, half) = (Lane::new(q, d), 1u64 << (d - 1));
            for c in [q - half, q - half / 2, q - 1] {
                let h = lane.round(c);
                assert_eq!(h, 0, "d={d} c={c}");
                assert_eq!(lane.lift(h), 0, "d={d} c={c}");
                assert!(q - c <= half, "d={d} c={c}");
            }
        }
    }

    #[test]
    fn pow2_lane_rejects_the_bit_at_log2_q_minus_d() {
        // The power-of-two lane holds 62 − d bits; bit 62 − d is a pad
        // bit wherever the lane's bytes reach it (at d ∈ {30, 38} the
        // width is a whole number of bytes and no pad bit exists).
        let q = HeParams::flash_pow2().q;
        let mut checked = Vec::new();
        for d in [0u32, 8, 26, 30, 38] {
            let lane = Lane::new(q, d);
            let bit = 62 - d;
            if bit as usize >= 8 * lane.bytes(1) {
                continue;
            }
            let top = (1u64 << bit) - 1;
            let mut buf = Vec::new();
            lane.write(&mut buf, [top, 1 << bit].into_iter());
            let mut out = [0u64; 2];
            assert_eq!(
                lane.read(&buf, &mut out),
                Err(WireError::CoefficientOutOfRange { index: 1 }),
                "d={d}"
            );
            // The widest in-range value still reads back.
            lane.read(&buf[..lane.bytes(1)], &mut out[..1]).unwrap();
            assert_eq!(out[0], top, "d={d}");
            checked.push(d);
        }
        assert_eq!(checked, [0, 8, 26]);
    }

    /// A fresh seeded encryption of a random plaintext and its upload.
    fn sealed_upload(p: &HeParams, seed: u64) -> (Ciphertext, Vec<u8>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let (ct, a_seed) = sk
            .encrypt_batch_seeded(std::slice::from_ref(&m), &mut rng)
            .pop()
            .expect("one plaintext in, one ciphertext out");
        let bytes = upload_to_bytes(ct.c0(), &a_seed);
        (ct, bytes)
    }

    #[test]
    fn upload_carries_c0_and_the_seed_on_both_rings() {
        for p in [HeParams::test_256(), HeParams::pow2_test_256()] {
            let (ct, bytes) = sealed_upload(&p, 5);
            assert_eq!(bytes.len(), upload_len(p.n, p.q));
            assert_eq!(bytes.len(), p.n * coeff_bytes(p.q) + 32);
            assert_eq!(&bytes[..bytes.len() - 32], &poly_to_bytes(ct.c0())[..]);
            assert_eq!(upload_from_bytes(&bytes, p.n, p.q).unwrap(), ct);
        }
        // N·8 + 32 on q = 2^62: 2 080 B at N = 256, 32 800 B at N = 4096.
        assert_eq!(upload_len(256, HeParams::pow2_test_256().q), 2_080);
        assert_eq!(upload_len(4096, HeParams::flash_pow2().q), 32_800);
    }

    #[test]
    fn upload_rejects_short_and_trailing_buffers() {
        for p in [HeParams::test_256(), HeParams::pow2_test_256()] {
            let (_, bytes) = sealed_upload(&p, 6);
            for cut in [0, 1, 32, bytes.len() - 32, bytes.len() - 1] {
                assert_eq!(
                    upload_from_bytes(&bytes[..cut], p.n, p.q),
                    Err(WireError::Truncated),
                    "q = {} cut = {cut}",
                    p.q
                );
            }
            let mut long = bytes.clone();
            long.extend([0u8; 3]);
            assert_eq!(
                upload_from_bytes(&long, p.n, p.q),
                Err(WireError::TrailingBytes { extra: 3 })
            );
        }
    }

    #[test]
    fn upload_rejects_an_unreduced_c0_on_a_prime_ring() {
        let p = HeParams::test_256();
        let (_, mut bytes) = sealed_upload(&p, 7);
        let cb = coeff_bytes(p.q);
        let at = 17;
        bytes[at * cb..][..cb].copy_from_slice(&p.q.to_le_bytes()[..cb]);
        assert_eq!(
            upload_from_bytes(&bytes, p.n, p.q),
            Err(WireError::CoefficientOutOfRange { index: at })
        );
    }

    #[test]
    fn upload_rejects_a_set_pad_bit_on_a_pow2_ring() {
        // q = 2^62 packs in 8 bytes: bits 62 and 63 of a `c0` value are
        // pad bits, and either one set puts the value at or above q.
        let p = HeParams::pow2_test_256();
        let (_, bytes) = sealed_upload(&p, 8);
        for bit in [62u32, 63] {
            let mut bad = bytes.clone();
            bad[3 * 8 + 7] |= 1 << (bit - 56);
            assert_eq!(
                upload_from_bytes(&bad, p.n, p.q),
                Err(WireError::CoefficientOutOfRange { index: 3 }),
                "bit {bit}"
            );
        }
    }

    proptest::proptest! {
        /// Arbitrary bytes of any length near the upload's never panic the
        /// decoder: they decode, or fail with a typed error.
        #[test]
        fn upload_decoder_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..120),
            exact in proptest::collection::vec(proptest::prelude::any::<u8>(), 96..=96),
        ) {
            // N = 8: a 30-bit prime (64-byte uploads) and 2^62 (96 bytes).
            for q in [HeParams::toy().q, 1 << 62] {
                let _ = upload_from_bytes(&bytes, 8, q);
                let len = upload_len(8, q);
                if let Ok(ct) = upload_from_bytes(&exact[..len], 8, q) {
                    assert!(ct.c0().coeffs().iter().chain(ct.c1().coeffs()).all(|&c| c < q));
                }
            }
        }
    }

    #[test]
    fn truncated_buffers_rejected() {
        let p = HeParams::toy();
        let poly = Poly::zero(p.n, p.q);
        let bytes = poly_to_bytes(&poly);
        assert_eq!(
            poly_from_bytes(&bytes[..bytes.len() - 1], p.n, p.q),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn trailing_bytes_rejected_on_both_rings() {
        for p in [HeParams::test_256(), HeParams::pow2_test_256()] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            let sk = SecretKey::generate(&p, &mut rng);
            let ct = sk.encrypt(&Poly::uniform(p.n, p.t, &mut rng), &mut rng);
            let mut bytes = ciphertext_to_bytes(&ct);
            bytes.extend([0u8; 4]);
            assert_eq!(
                ciphertext_from_bytes(&bytes, p.n, p.q),
                Err(WireError::TrailingBytes { extra: 4 }),
                "q = {}",
                p.q
            );
            let mut poly = poly_to_bytes(ct.c0());
            poly.push(0);
            assert_eq!(
                poly_from_bytes(&poly, p.n, p.q),
                Err(WireError::TrailingBytes { extra: 1 })
            );
        }
    }

    #[test]
    fn unreduced_coefficients_rejected() {
        // All-ones bytes decode to a value >= q for a non-power modulus.
        let p = HeParams::toy();
        let cb = coeff_bytes(p.q);
        let bytes = vec![0xFFu8; p.n * cb];
        assert!(matches!(
            poly_from_bytes(&bytes, p.n, p.q),
            Err(WireError::CoefficientOutOfRange { index: 0 })
        ));
    }
}
