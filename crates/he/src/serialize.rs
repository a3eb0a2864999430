//! Wire serialization of ciphertexts and polynomials.
//!
//! The protocol's communication costs (Cheetah's headline advantage) are
//! accounted from real byte strings: coefficients are packed
//! little-endian into `⌈log2 q / 8⌉` bytes each, matching
//! [`crate::Ciphertext::byte_size`].

use crate::cipher::Ciphertext;
use crate::poly::Poly;
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
    let bits = 64 - modulus.leading_zeros() as usize;
    bits.div_ceil(8)
}

/// Serializes a polynomial's coefficients (the modulus and length travel
/// in the session context, as in real protocol implementations).
pub fn poly_to_bytes(p: &Poly) -> Vec<u8> {
    let cb = coeff_bytes(p.modulus());
    let n = p.len();
    // Over-allocate by one word so every coefficient can be stored as a
    // full little-endian u64; ascending writes overwrite the garbage
    // high bytes of their predecessor, and the tail is truncated away.
    let mut out = vec![0u8; n * cb + 8];
    for (i, &c) in p.coeffs().iter().enumerate() {
        out[i * cb..i * cb + 8].copy_from_slice(&c.to_le_bytes());
    }
    out.truncate(n * cb);
    out
}

/// Deserializes a polynomial of degree `n` modulo `modulus`.
///
/// # Errors
///
/// Returns [`WireError`] on a buffer of the wrong length or unreduced
/// coefficients.
pub fn poly_from_bytes(buf: &[u8], n: usize, modulus: u64) -> Result<Poly, WireError> {
    let cb = coeff_bytes(modulus);
    expect_len(buf, n * cb)?;
    // Branch-free inner loop: decode everything, fold the range check
    // into one flag, and locate the offending index only on failure.
    // Coefficients are read as full little-endian u64 words masked down
    // to `cb` bytes wherever the buffer permits; only the last few fall
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
    let mut coeffs = Vec::with_capacity(n);
    let mut all_reduced = true;
    for i in 0..n.min(wide) {
        let word = u64::from_le_bytes(buf[i * cb..i * cb + 8].try_into().expect("8-byte slice"));
        let c = word & mask;
        all_reduced &= c < modulus;
        coeffs.push(c);
    }
    for i in wide..n {
        let mut le = [0u8; 8];
        le[..cb].copy_from_slice(&buf[i * cb..(i + 1) * cb]);
        let c = u64::from_le_bytes(le);
        all_reduced &= c < modulus;
        coeffs.push(c);
    }
    if !all_reduced {
        let index = coeffs
            .iter()
            .position(|&c| c >= modulus)
            .expect("flag implies an offender");
        return Err(WireError::CoefficientOutOfRange { index });
    }
    Ok(Poly::from_coeffs(coeffs, modulus))
}

/// Serializes a ciphertext (`c0 ‖ c1`).
pub fn ciphertext_to_bytes(ct: &Ciphertext) -> Vec<u8> {
    let mut out = poly_to_bytes(ct.c0());
    out.extend(poly_to_bytes(ct.c1()));
    out
}

/// Deserializes a ciphertext of degree `n` modulo `q`.
///
/// # Errors
///
/// Returns [`WireError`] on a buffer of the wrong length or unreduced
/// coefficients.
pub fn ciphertext_from_bytes(buf: &[u8], n: usize, q: u64) -> Result<Ciphertext, WireError> {
    let half = n * coeff_bytes(q);
    expect_len(buf, 2 * half)?;
    let c0 = poly_from_bytes(&buf[..half], n, q)?;
    let c1 = poly_from_bytes(&buf[half..], n, q)?;
    Ok(Ciphertext::new(c0, c1))
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
