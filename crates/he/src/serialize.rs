//! Wire serialization of ciphertexts and polynomials.
//!
//! The protocol's communication costs (Cheetah's headline advantage) are
//! accounted from real byte strings: coefficients are packed
//! little-endian into `⌈log2 q / 8⌉` bytes each, matching
//! [`crate::Ciphertext::byte_size`].
//!
//! One codec packs every ciphertext on the wire: `c0` at a list of
//! coefficient positions, then all of `c1`, each component at its own
//! width. The full ciphertext here is its untruncated, all-positions
//! case; [`crate::truncate`] holds the response form, which drops low bits
//! and sends `c0` only where the outputs sit.

use crate::cipher::Ciphertext;
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

/// Bytes per coefficient for a modulus.
#[inline]
pub fn coeff_bytes(modulus: u64) -> usize {
    Lane::new(modulus, 0).cb
}

/// One ciphertext component's packing: each value keeps its high
/// `log2 q − d` bits in `⌈(log2 q − d)/8⌉` little-endian bytes. Every
/// ciphertext on the wire is two lanes back to back; `d = 0` is the
/// untruncated form.
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
        let q_bits = 64 - q.leading_zeros();
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
        // The add runs in u128 so the rounding carry survives for
        // coefficients near q; the mask keeps exactly the wire bits (a
        // carry past 2^{log2 q} wraps to 0, which `lift` absorbs mod q).
        let half = 1u128 << (self.d - 1);
        (((c as u128 + half) >> self.d) as u64) & (self.bound - 1)
    }

    /// The residue a wire value stands for: `h·2^d mod q`. `h < 2^{log2 q − d}`
    /// puts `h·2^d` below `2^{log2 q} ≤ 2q`, so one conditional subtraction
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

/// Serializes a ciphertext (`c0 ‖ c1`).
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
        // q = 2^62 needs 8-byte coefficient words (63-bit residue range);
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
