//! Response-ciphertext truncation (Cheetah's download compression).
//!
//! The masked response ciphertext only needs to survive *one* decryption,
//! so its low-order coefficient bits — which carry nothing but noise
//! headroom — can be dropped before download. Dropping `d0` bits of `c0`
//! adds at most `2^{d0-1}` per coefficient to the noise; dropping `d1`
//! bits of `c1` adds up to `2^{d1-1}·‖s‖₁` (the error passes through the
//! `c1·s` product), so `c1` tolerates far less truncation than `c0`.

use crate::cipher::Ciphertext;
use crate::params::HeParams;
use crate::poly::Poly;
use crate::serialize::{expect_len, WireError};

/// A ciphertext with truncated coefficients, as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct TruncatedCiphertext {
    /// High bits of `c0` (each coefficient right-shifted by `d0`).
    c0_high: Vec<u64>,
    /// High bits of `c1`.
    c1_high: Vec<u64>,
    /// Dropped bits of `c0`.
    pub d0: u32,
    /// Dropped bits of `c1`.
    pub d1: u32,
}

impl TruncatedCiphertext {
    /// Truncates a ciphertext, rounding each coefficient to the nearest
    /// multiple of `2^d` (so the reconstruction error is centered).
    ///
    /// # Panics
    ///
    /// Panics if a shift is ≥ the modulus width.
    pub fn truncate(ct: &Ciphertext, d0: u32, d1: u32, params: &HeParams) -> Self {
        let q_bits = 64 - params.q.leading_zeros();
        assert!(
            d0 < q_bits && d1 < q_bits,
            "cannot drop the whole coefficient"
        );
        let round = |c: u64, d: u32| -> u64 {
            if d == 0 {
                return c;
            }
            // Nearest multiple of 2^d. The add runs in u128 so the
            // rounding carry survives for coefficients near q, and the
            // mask keeps exactly the q_bits - d wire bits (a carry past
            // 2^{q_bits} wraps to 0, which the mod-q lift absorbs).
            // The old `(c + half) % q >> d` wrapped near-q coefficients
            // to 0 *before* the shift, breaking the nearest-multiple
            // contract at the top of the range.
            let half = 1u128 << (d - 1);
            let mask = (1u64 << (q_bits - d)) - 1;
            (((c as u128 + half) >> d) as u64) & mask
        };
        Self {
            c0_high: ct.c0().coeffs().iter().map(|&c| round(c, d0)).collect(),
            c1_high: ct.c1().coeffs().iter().map(|&c| round(c, d1)).collect(),
            d0,
            d1,
        }
    }

    /// Reconstructs a (noisier) ciphertext on the client side.
    pub fn reconstruct(&self, params: &HeParams) -> Ciphertext {
        // The lifted value `h << d` can exceed q (it is the nearest
        // multiple of 2^d, which may sit just above q), so reduce in
        // u128 rather than truncating.
        let lift = |high: &[u64], d: u32| -> Poly {
            Poly::from_coeffs(
                high.iter()
                    .map(|&h| (((h as u128) << d) % params.q as u128) as u64)
                    .collect(),
                params.q,
            )
        };
        Ciphertext::new(lift(&self.c0_high, self.d0), lift(&self.c1_high, self.d1))
    }

    /// Wire size in bytes: each coefficient packs into
    /// `⌈(log2 q − d)/8⌉` bytes.
    pub fn byte_size(&self, params: &HeParams) -> usize {
        let q_bits = (64 - params.q.leading_zeros()) as usize;
        let bytes = |d: u32| (q_bits - d as usize).div_ceil(8);
        self.c0_high.len() * bytes(self.d0) + self.c1_high.len() * bytes(self.d1)
    }

    /// Serializes the truncated components (`c0_high ‖ c1_high`,
    /// little-endian, `⌈(log2 q − d)/8⌉` bytes per coefficient). The
    /// `(d0, d1)` pair travels in the session context — both parties
    /// agreed on the truncation when the protocol was planned — so the
    /// byte string length is exactly [`TruncatedCiphertext::byte_size`].
    pub fn to_bytes(&self, params: &HeParams) -> Vec<u8> {
        let q_bits = (64 - params.q.leading_zeros()) as usize;
        let mut out = Vec::with_capacity(self.byte_size(params));
        for (high, d) in [(&self.c0_high, self.d0), (&self.c1_high, self.d1)] {
            let cb = (q_bits - d as usize).div_ceil(8);
            for &h in high.iter() {
                out.extend_from_slice(&h.to_le_bytes()[..cb]);
            }
        }
        out
    }

    /// Deserializes a truncated ciphertext of degree `n` with the agreed
    /// `(d0, d1)` shifts.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the buffer is shorter or longer than the
    /// encoding, or a packed value
    /// exceeds the `log2 q − d` wire width (including flipped pad bits in
    /// the top byte of a coefficient).
    pub fn from_bytes(buf: &[u8], d0: u32, d1: u32, params: &HeParams) -> Result<Self, WireError> {
        let q_bits = (64 - params.q.leading_zeros()) as usize;
        let n = params.n;
        let mut offset = 0usize;
        let mut parts: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for (slot, d) in [(0usize, d0), (1, d1)] {
            let width = q_bits - d as usize;
            let cb = width.div_ceil(8);
            let mask = (1u64 << width) - 1;
            if buf.len() < offset + n * cb {
                return Err(WireError::Truncated);
            }
            let mut high = Vec::with_capacity(n);
            for i in 0..n {
                let mut le = [0u8; 8];
                le[..cb].copy_from_slice(&buf[offset + i * cb..offset + (i + 1) * cb]);
                let h = u64::from_le_bytes(le);
                if h > mask {
                    return Err(WireError::CoefficientOutOfRange { index: i });
                }
                high.push(h);
            }
            parts[slot] = high;
            offset += n * cb;
        }
        expect_len(buf, offset)?;
        let [c0_high, c1_high] = parts;
        Ok(Self {
            c0_high,
            c1_high,
            d0,
            d1,
        })
    }

    /// Deserializes a response ciphertext as a server sent it under the
    /// session's agreed truncation: the plain wire form when `truncation`
    /// is `None`, otherwise the truncated form, reconstructed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the bytes are rejected.
    pub fn response_from_bytes(
        buf: &[u8],
        truncation: Option<(u32, u32)>,
        params: &HeParams,
    ) -> Result<Ciphertext, WireError> {
        match truncation {
            None => crate::serialize::ciphertext_from_bytes(buf, params.n, params.q),
            Some((d0, d1)) => Ok(Self::from_bytes(buf, d0, d1, params)?.reconstruct(params)),
        }
    }

    /// Worst-case noise added by the truncation: `2^{d0-1}` from `c0`
    /// plus `2^{d1-1}·‖s‖₁` from `c1` (ternary key: `‖s‖₁ ≤ N`).
    pub fn noise_bound(&self, params: &HeParams) -> f64 {
        let e0 = if self.d0 == 0 {
            0.0
        } else {
            (2.0f64).powi(self.d0 as i32 - 1)
        };
        let e1 = if self.d1 == 0 {
            0.0
        } else {
            (2.0f64).powi(self.d1 as i32 - 1)
        };
        e0 + e1 * params.n as f64
    }
}

/// Picks the largest `(d0, d1)` whose combined truncation noise — the
/// exact [`TruncatedCiphertext::noise_bound`] expression
/// `2^{d0-1} + 2^{d1-1}·N` — stays within `margin` times the remaining
/// noise budget `budget_abs`. Half the target is reserved for each
/// component, then `d1` grows into whatever `d0` left unused.
///
/// The previous version compared `2^{d1}·N/2 < target/2`: the spurious
/// `/2` on both sides cancelled, and together with the post-loop
/// decrement it left one admissible bit of `d1` (a factor-2× tighter
/// truncation than the bound allows) on the table.
pub fn safe_truncation(params: &HeParams, budget_abs: f64, margin: f64) -> (u32, u32) {
    let target = budget_abs * margin;
    let q_bits = 64 - params.q.leading_zeros();
    let max_d = 40.min(q_bits - 1);
    // largest d0 with 2^{d0-1} <= target/2
    let mut d0 = 0u32;
    while d0 < max_d && (2.0f64).powi(d0 as i32) <= target / 2.0 {
        d0 += 1;
    }
    let e0 = if d0 == 0 {
        0.0
    } else {
        (2.0f64).powi(d0 as i32 - 1)
    };
    // largest d1 with e0 + 2^{d1-1}·N <= target
    let mut d1 = 0u32;
    while d1 < max_d && e0 + (2.0f64).powi(d1 as i32) * params.n as f64 <= target {
        d1 += 1;
    }
    (d0, d1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SecretKey;
    use rand::SeedableRng;

    fn setup() -> (HeParams, SecretKey, Poly, Ciphertext) {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m, &mut rng);
        (p, sk, m, ct)
    }

    #[test]
    fn zero_truncation_is_identity_up_to_packing() {
        let (p, sk, m, ct) = setup();
        let t = TruncatedCiphertext::truncate(&ct, 0, 0, &p);
        let back = t.reconstruct(&p);
        assert_eq!(sk.decrypt(&back), m);
        assert_eq!(t.byte_size(&p), ct.byte_size());
    }

    #[test]
    fn safe_truncation_preserves_decryption_and_saves_bytes() {
        let (p, sk, m, ct) = setup();
        let budget = p.noise_ceiling() as f64 - sk.noise(&ct, &m).inf_norm() as f64;
        let margin = 0.25;
        let (d0, d1) = safe_truncation(&p, budget, margin);
        assert!(d0 > 4, "should find real savings: d0={d0}");
        let t = TruncatedCiphertext::truncate(&ct, d0, d1, &p);
        assert!(
            t.noise_bound(&p) <= budget * margin,
            "chosen (d0,d1)=({d0},{d1}) exceeds the target: {} > {}",
            t.noise_bound(&p),
            budget * margin
        );
        let back = t.reconstruct(&p);
        assert_eq!(sk.decrypt(&back), m, "d0={d0} d1={d1}");
        let saved = 1.0 - t.byte_size(&p) as f64 / ct.byte_size() as f64;
        assert!(saved > 0.1, "download shrank by {saved}");
    }

    #[test]
    fn truncation_noise_within_bound() {
        let (p, sk, m, ct) = setup();
        let before = sk.noise(&ct, &m).inf_norm() as f64;
        for (d0, d1) in [(4u32, 0u32), (8, 0), (10, 2)] {
            let t = TruncatedCiphertext::truncate(&ct, d0, d1, &p);
            let back = t.reconstruct(&p);
            let after = sk.noise(&back, &m).inf_norm() as f64;
            assert!(
                after <= before + t.noise_bound(&p) + 1.0,
                "d=({d0},{d1}): {after} > {before} + {}",
                t.noise_bound(&p)
            );
        }
    }

    #[test]
    fn safe_truncation_admits_the_full_d1_bound() {
        // The fixed predicate reasons about the combined noise bound
        // directly; for the test parameters (target = 2^17, N = 256) the
        // admissible pair is (17, 9) — the old predicate's spurious
        // halving stopped at d1 = 8.
        let p = HeParams::test_256();
        let (d0, d1) = safe_truncation(&p, (1u64 << 19) as f64, 0.25);
        assert_eq!((d0, d1), (17, 9));
    }

    #[test]
    fn near_q_coefficients_round_to_nearest_multiple() {
        // Regression for the rounding fix: coefficients in
        // [q - 2^{d-1}, q) used to collapse to 0 — the `% q` wrap fired
        // *before* the shift — instead of landing on the nearest
        // multiple of 2^d reduced mod q. The old code fails this test.
        let p = HeParams::test_256();
        let d = 10u32;
        let half = 1u64 << (d - 1);
        for c in [p.q - half, p.q - half / 2, p.q - 1] {
            let ct = Ciphertext::new(
                Poly::from_coeffs(vec![c; p.n], p.q),
                Poly::from_coeffs(vec![0; p.n], p.q),
            );
            let t = TruncatedCiphertext::truncate(&ct, d, 0, &p);
            let back = t.reconstruct(&p);
            let nearest = ((c as u128 + half as u128) >> d) << d;
            let want = (nearest % p.q as u128) as u64;
            let got = back.c0().coeffs()[0];
            assert_eq!(got, want, "c={c}");
            // and the centered reconstruction error stays within 2^{d-1}
            let diff = (got as i128 - c as i128).rem_euclid(p.q as i128);
            let err = diff.min(p.q as i128 - diff);
            assert!(err <= half as i128, "c={c}: err={err}");
        }
    }

    #[test]
    fn truncated_wire_roundtrip_and_size_matches_accounting() {
        let (p, sk, m, ct) = setup();
        for (d0, d1) in [(0u32, 0u32), (8, 2), (17, 9)] {
            let t = TruncatedCiphertext::truncate(&ct, d0, d1, &p);
            let bytes = t.to_bytes(&p);
            assert_eq!(bytes.len(), t.byte_size(&p), "d=({d0},{d1})");
            let back = TruncatedCiphertext::from_bytes(&bytes, d0, d1, &p).unwrap();
            assert_eq!(back, t);
            if d0 <= 8 && d1 <= 2 {
                assert_eq!(sk.decrypt(&back.reconstruct(&p)), m, "d=({d0},{d1})");
            }
        }
    }

    #[test]
    fn truncated_wire_rejects_short_buffers_and_pad_bit_garbage() {
        let (p, _, _, ct) = setup();
        let t = TruncatedCiphertext::truncate(&ct, 8, 2, &p);
        let bytes = t.to_bytes(&p);
        assert_eq!(
            TruncatedCiphertext::from_bytes(&bytes[..bytes.len() - 1], 8, 2, &p),
            Err(WireError::Truncated)
        );
        // q_bits = 36, d0 = 8 -> 28-bit coefficients in 4 bytes: the top
        // 4 bits of every 4th byte are padding and must stay clear.
        let mut bad = bytes.clone();
        bad[3] |= 0x80;
        assert!(matches!(
            TruncatedCiphertext::from_bytes(&bad, 8, 2, &p),
            Err(WireError::CoefficientOutOfRange { index: 0 })
        ));
    }

    #[test]
    fn truncated_wire_rejects_trailing_bytes_on_both_rings() {
        for p in [HeParams::test_256(), HeParams::pow2_test_256()] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(12);
            let sk = SecretKey::generate(&p, &mut rng);
            let ct = sk.encrypt(&Poly::uniform(p.n, p.t, &mut rng), &mut rng);
            let mut bytes = TruncatedCiphertext::truncate(&ct, 8, 2, &p).to_bytes(&p);
            bytes.push(0);
            assert_eq!(
                TruncatedCiphertext::from_bytes(&bytes, 8, 2, &p),
                Err(WireError::TrailingBytes { extra: 1 }),
                "q = {}",
                p.q
            );
            assert_eq!(
                TruncatedCiphertext::response_from_bytes(&bytes, Some((8, 2)), &p),
                Err(WireError::TrailingBytes { extra: 1 })
            );
        }
    }

    #[test]
    fn reckless_truncation_breaks_decryption() {
        let (p, sk, m, ct) = setup();
        // dropping 18 bits of c1 injects noise of typical magnitude
        // 2^17·√N ≫ the q/2t ceiling
        let t = TruncatedCiphertext::truncate(&ct, 0, 18, &p);
        assert_ne!(sk.decrypt(&t.reconstruct(&p)), m);
    }
}
