//! The response wire form: Cheetah's download compression.
//!
//! A masked response ciphertext only needs to survive *one* decryption,
//! and only at the coefficients its outputs sit at. So the server sends
//! `c0` at those positions alone (the phase `c0 + c1·s` at coefficient
//! `i` reads `c0` only at `i`) and all of `c1` (which every coefficient
//! of `c1·s` reads), and it may drop low-order bits of both — they carry
//! nothing but noise headroom. Dropping `d0` bits of `c0` adds at most
//! `2^{d0-1}` per coefficient to the noise; dropping `d1` bits of `c1`
//! adds up to `2^{d1-1}·‖s‖₁` (the error passes through the `c1·s`
//! product), so `c1` tolerates far less truncation than `c0`.
//!
//! The wire length is exactly `P·⌈(log2 q − d0)/8⌉ + N·⌈(log2 q − d1)/8⌉`
//! for `P` positions ([`crate::serialize::response_len`]); the client writes the received `c0` values into an
//! otherwise-zero `c0`. [`TruncatedCiphertext`] is the all-positions case
//! of the same codec ([`crate::serialize`]'s lanes).
//!
//! `log2 q` is [`modulus_bits`]: on a prime `q` the bit length of `q`;
//! on a power-of-two `q = 2^l` exactly `l`, one bit fewer — there
//! `2^d | q`, so a rounding carry past `2^{l−d}` wraps to `0 ≡ q` and the
//! lane needs no bit for it. At `q = 2^62` and `d1 = 30`, `c1` packs in
//! 4 bytes.
//!
//! Every conv layer agrees on [`planned_truncation`] by default: the
//! largest pair whose worst-case error stays within
//! [`TRUNCATION_SHARE`] (¼) of the decryption ceiling `q/(2t)`. It
//! depends on the parameters only; every pack's
//! [`crate::noise::NoiseLedger`] carries the same [`truncation_noise`]
//! term next to its exact bound, so the split is checked where every
//! other noise term is.

use crate::cipher::Ciphertext;
use crate::params::HeParams;
use crate::poly::Poly;
use crate::serialize::{expect_len, modulus_bits, response_len, Lane, WireError};

/// The share of the decryption ceiling `q/(2t)` that response truncation
/// may spend: at most a quarter. The exact path plus the approximate
/// product keep the other three quarters.
pub const TRUNCATION_SHARE: f64 = 0.25;

/// A ciphertext with truncated coefficients, as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct TruncatedCiphertext {
    /// High bits of `c0` (each coefficient rounded and shifted by `d0`).
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
        let (l0, l1) = (Lane::new(params.q, d0), Lane::new(params.q, d1));
        Self {
            c0_high: ct.c0().coeffs().iter().map(|&c| l0.round(c)).collect(),
            c1_high: ct.c1().coeffs().iter().map(|&c| l1.round(c)).collect(),
            d0,
            d1,
        }
    }

    /// Reconstructs a (noisier) ciphertext on the client side.
    pub fn reconstruct(&self, params: &HeParams) -> Ciphertext {
        let lift = |high: &[u64], d: u32| {
            let lane = Lane::new(params.q, d);
            Poly::from_coeffs(high.iter().map(|&h| lane.lift(h)).collect(), params.q)
        };
        Ciphertext::new(lift(&self.c0_high, self.d0), lift(&self.c1_high, self.d1))
    }

    /// Wire size in bytes: each coefficient packs into
    /// `⌈(log2 q − d)/8⌉` bytes.
    pub fn byte_size(&self, params: &HeParams) -> usize {
        Lane::new(params.q, self.d0).bytes(self.c0_high.len())
            + Lane::new(params.q, self.d1).bytes(self.c1_high.len())
    }

    /// Serializes the truncated components (`c0_high ‖ c1_high`,
    /// little-endian, `⌈(log2 q − d)/8⌉` bytes per coefficient). The
    /// `(d0, d1)` pair travels in the session context — both parties
    /// agreed on the truncation when the protocol was planned — so the
    /// byte string length is exactly [`TruncatedCiphertext::byte_size`].
    pub fn to_bytes(&self, params: &HeParams) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size(params) + 8);
        Lane::new(params.q, self.d0).write(&mut out, self.c0_high.iter().copied());
        Lane::new(params.q, self.d1).write(&mut out, self.c1_high.iter().copied());
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
    /// the top byte of a coefficient; at `d = 0`, any value `≥ q`).
    pub fn from_bytes(buf: &[u8], d0: u32, d1: u32, params: &HeParams) -> Result<Self, WireError> {
        let (l0, l1) = (Lane::new(params.q, d0), Lane::new(params.q, d1));
        let split = l0.bytes(params.n);
        expect_len(buf, split + l1.bytes(params.n))?;
        let (mut c0_high, mut c1_high) = (vec![0u64; params.n], vec![0u64; params.n]);
        l0.read(&buf[..split], &mut c0_high)?;
        l1.read(&buf[split..], &mut c1_high)?;
        Ok(Self {
            c0_high,
            c1_high,
            d0,
            d1,
        })
    }

    /// Serializes a response in its wire form: `c0` at `positions` ‖ all
    /// of `c1`, each coefficient rounded and packed at the session's
    /// agreed `truncation` (`(0, 0)` when `None`). The one ciphertext
    /// encoder: [`crate::serialize::ciphertext_to_bytes`] is its
    /// untruncated, all-positions case.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range or a shift is ≥ the modulus
    /// width.
    pub fn response_to_bytes(
        ct: &Ciphertext,
        positions: impl ExactSizeIterator<Item = usize>,
        truncation: Option<(u32, u32)>,
    ) -> Vec<u8> {
        let (d0, d1) = truncation.unwrap_or((0, 0));
        let (c0, c1) = (ct.c0().coeffs(), ct.c1().coeffs());
        let q = ct.c0().modulus();
        let (l0, l1) = (Lane::new(q, d0), Lane::new(q, d1));
        let mut out = Vec::with_capacity(l0.bytes(positions.len()) + l1.bytes(c1.len()) + 8);
        l0.write(&mut out, positions.map(|i| l0.round(c0[i])));
        l1.write(&mut out, c1.iter().map(|&c| l1.round(c)));
        out
    }

    /// Deserializes a response as [`TruncatedCiphertext::response_to_bytes`]
    /// wrote it for the same `positions` and `truncation`, reconstructed
    /// into a ciphertext whose `c0` is zero off `positions` — its phase is
    /// exact at those positions and meaningless elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the bytes are rejected: a length other
    /// than the encoding's, a value `≥ q` in an untruncated component, or
    /// set pad bits in a truncated one.
    ///
    /// # Panics
    ///
    /// Panics if a position is `≥ N` or a shift is ≥ the modulus width.
    pub fn response_from_bytes_at(
        buf: &[u8],
        positions: impl ExactSizeIterator<Item = usize>,
        truncation: Option<(u32, u32)>,
        params: &HeParams,
    ) -> Result<Ciphertext, WireError> {
        Self::decode(buf, params.n, params.q, positions, truncation)
    }

    /// [`TruncatedCiphertext::response_from_bytes_at`] for degree `n`
    /// modulo `q`.
    pub(crate) fn decode(
        buf: &[u8],
        n: usize,
        q: u64,
        positions: impl ExactSizeIterator<Item = usize>,
        truncation: Option<(u32, u32)>,
    ) -> Result<Ciphertext, WireError> {
        let (d0, d1) = truncation.unwrap_or((0, 0));
        let (l0, l1) = (Lane::new(q, d0), Lane::new(q, d1));
        let split = l0.bytes(positions.len());
        expect_len(buf, response_len(n, q, positions.len(), truncation))?;
        // Every value a lane accepts lifts to a reduced residue, so the
        // components are filled in place without a second range scan.
        let mut values = vec![0u64; positions.len()];
        l0.read(&buf[..split], &mut values)?;
        let mut c0 = Poly::zero(n, q);
        let coeffs = c0.coeffs_mut();
        for (i, h) in positions.zip(values) {
            coeffs[i] = l0.lift(h);
        }
        let mut c1 = Poly::zero(n, q);
        l1.read(&buf[split..], c1.coeffs_mut())?;
        if d1 > 0 {
            // (At d = 0 an accepted value is its own residue.)
            c1.coeffs_mut().iter_mut().for_each(|h| *h = l1.lift(*h));
        }
        Ok(Ciphertext::new(c0, c1))
    }

    /// Worst-case noise added by the truncation ([`truncation_noise`] of
    /// its pair).
    pub fn noise_bound(&self, params: &HeParams) -> f64 {
        truncation_noise(params, (self.d0, self.d1))
    }
}

/// Worst-case noise that truncating a response at `(d0, d1)` adds to its
/// phase: `2^{d0-1}` from `c0` plus `2^{d1-1}·‖s‖₁` from `c1` (ternary
/// key: `‖s‖₁ ≤ N`). An untruncated component adds nothing.
pub fn truncation_noise(params: &HeParams, (d0, d1): (u32, u32)) -> f64 {
    let half = |d: u32| {
        if d == 0 {
            0.0
        } else {
            (2.0f64).powi(d as i32 - 1)
        }
    };
    half(d0) + half(d1) * params.n as f64
}

/// Picks the largest `(d0, d1)` whose [`truncation_noise`] stays within
/// `margin` times the remaining noise budget `budget_abs`. Half the
/// target is reserved for `c0`, then `d1` grows into whatever `d0` left
/// unused.
pub fn safe_truncation(params: &HeParams, budget_abs: f64, margin: f64) -> (u32, u32) {
    let target = budget_abs * margin;
    let max_d = 40.min(modulus_bits(params.q) - 1);
    let mut d0 = 0u32;
    while d0 < max_d && truncation_noise(params, (d0 + 1, 0)) <= target / 2.0 {
        d0 += 1;
    }
    let mut d1 = 0u32;
    while d1 < max_d && truncation_noise(params, (d0, d1 + 1)) <= target {
        d1 += 1;
    }
    (d0, d1)
}

/// The response truncation every conv layer agrees on unless overridden:
/// [`safe_truncation`] of the whole decryption ceiling `q/(2t)` at
/// [`TRUNCATION_SHARE`]. `(38, 30)` at `N = 256`, `q = 2^62`,
/// `t = 2^21`; `(38, 26)` at [`HeParams::flash_pow2`].
pub fn planned_truncation(params: &HeParams) -> (u32, u32) {
    safe_truncation(params, params.noise_ceiling() as f64, TRUNCATION_SHARE)
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
        // On both rings, at fixed pairs and at the planned one: the
        // measured reconstruction noise stays within the bound, and at
        // the planned pair decryption is still exact.
        for p in [HeParams::test_256(), HeParams::pow2_test_256()] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let sk = SecretKey::generate(&p, &mut rng);
            let m = Poly::uniform(p.n, p.t, &mut rng);
            let ct = sk.encrypt(&m, &mut rng);
            let before = sk.noise(&ct, &m).inf_norm() as f64;
            let planned = planned_truncation(&p);
            for (d0, d1) in [(4u32, 0u32), (8, 0), (10, 2), planned] {
                let t = TruncatedCiphertext::truncate(&ct, d0, d1, &p);
                let back = t.reconstruct(&p);
                let after = sk.noise(&back, &m).inf_norm() as f64;
                assert!(
                    after <= before + t.noise_bound(&p) + 1.0,
                    "q={} d=({d0},{d1}): {after} > {before} + {}",
                    p.q,
                    t.noise_bound(&p)
                );
            }
            let t = TruncatedCiphertext::truncate(&ct, planned.0, planned.1, &p);
            assert!(t.noise_bound(&p) <= p.noise_ceiling() as f64 * TRUNCATION_SHARE);
            assert_eq!(sk.decrypt(&t.reconstruct(&p)), m, "q={}", p.q);
        }
    }

    #[test]
    fn planned_truncation_pins_the_operating_points() {
        // N = 256, q = 2^62, t = 2^21 is the end-to-end operating point;
        // flash_pow2 is the paper's N = 4096 on the same ring. A quarter
        // of q/(2t) = 2^40 is 2^38: d0 takes half of it (2^37), and
        // 2^{d1-1}·N the rest.
        assert_eq!(
            planned_truncation(&HeParams::new_pow2(256, 62, 1 << 21, 3.2)),
            (38, 30)
        );
        assert_eq!(planned_truncation(&HeParams::flash_pow2()), (38, 26));
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
                TruncatedCiphertext::response_from_bytes_at(&bytes, 0..p.n, Some((8, 2)), &p),
                Err(WireError::TrailingBytes { extra: 1 })
            );
        }
    }

    /// A fresh ciphertext on each ring, with an odd set of positions.
    fn response_cases() -> Vec<(HeParams, Ciphertext, Vec<usize>)> {
        [HeParams::test_256(), HeParams::pow2_test_256()]
            .into_iter()
            .map(|p| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(31);
                let sk = SecretKey::generate(&p, &mut rng);
                let ct = sk.encrypt(&Poly::uniform(p.n, p.t, &mut rng), &mut rng);
                let positions = vec![0, 3, 17, 100, 101, 254, 255];
                (p, ct, positions)
            })
            .collect()
    }

    /// `(bytes per c0 value, bytes per c1 value)` of a response.
    fn lane_bytes(p: &HeParams, truncation: Option<(u32, u32)>) -> (usize, usize) {
        let q_bits = modulus_bits(p.q) as usize;
        let (d0, d1) = truncation.unwrap_or((0, 0));
        (
            (q_bits - d0 as usize).div_ceil(8),
            (q_bits - d1 as usize).div_ceil(8),
        )
    }

    #[test]
    fn response_wire_carries_c0_at_positions_and_all_of_c1() {
        for (p, ct, positions) in response_cases() {
            for truncation in [None, Some((8, 2))] {
                let bytes = TruncatedCiphertext::response_to_bytes(
                    &ct,
                    positions.iter().copied(),
                    truncation,
                );
                let (cb0, cb1) = lane_bytes(&p, truncation);
                assert_eq!(bytes.len(), positions.len() * cb0 + p.n * cb1);
                assert_eq!(
                    bytes.len(),
                    crate::serialize::response_len(p.n, p.q, positions.len(), truncation)
                );
                let back = TruncatedCiphertext::response_from_bytes_at(
                    &bytes,
                    positions.iter().copied(),
                    truncation,
                    &p,
                )
                .unwrap();
                // The all-positions case of the same codec is the full form.
                let (d0, d1) = truncation.unwrap_or((0, 0));
                let full = TruncatedCiphertext::truncate(&ct, d0, d1, &p).reconstruct(&p);
                for i in 0..p.n {
                    let want = if positions.contains(&i) {
                        full.c0().coeffs()[i]
                    } else {
                        0
                    };
                    assert_eq!(
                        back.c0().coeffs()[i],
                        want,
                        "q={} {truncation:?} i={i}",
                        p.q
                    );
                }
                assert_eq!(back.c1(), full.c1(), "q={} {truncation:?}", p.q);
            }
        }
    }

    #[test]
    fn response_wire_rejects_short_and_trailing_buffers() {
        for (p, ct, positions) in response_cases() {
            for truncation in [None, Some((8, 2))] {
                let mut bytes = TruncatedCiphertext::response_to_bytes(
                    &ct,
                    positions.iter().copied(),
                    truncation,
                );
                let decode = |buf: &[u8]| {
                    TruncatedCiphertext::response_from_bytes_at(
                        buf,
                        positions.iter().copied(),
                        truncation,
                        &p,
                    )
                };
                assert_eq!(decode(&bytes[..bytes.len() - 1]), Err(WireError::Truncated));
                assert_eq!(decode(&[]), Err(WireError::Truncated));
                bytes.extend([0u8; 3]);
                assert_eq!(decode(&bytes), Err(WireError::TrailingBytes { extra: 3 }));
            }
        }
    }

    #[test]
    fn response_wire_rejects_unreduced_coefficients_untruncated() {
        // At d = 0 a value ≥ q is refused, not reduced — in c0 and in c1.
        // On the prime ring a 36-bit q leaves 4 spare bits in 5 bytes; on
        // q = 2^62 the 8-byte lane holds values in [q, 2^64).
        for (p, ct, positions) in response_cases() {
            let bytes =
                TruncatedCiphertext::response_to_bytes(&ct, positions.iter().copied(), None);
            let (cb0, cb1) = lane_bytes(&p, None);
            let c1_at = positions.len() * cb0;
            for (offset, cb, index) in [(cb0, cb0, 1usize), (c1_at + 5 * cb1, cb1, 5)] {
                let mut bad = bytes.clone();
                bad[offset..offset + cb].copy_from_slice(&p.q.to_le_bytes()[..cb]);
                assert_eq!(
                    TruncatedCiphertext::response_from_bytes_at(
                        &bad,
                        positions.iter().copied(),
                        None,
                        &p
                    ),
                    Err(WireError::CoefficientOutOfRange { index }),
                    "q={} offset={offset}",
                    p.q
                );
            }
        }
    }

    #[test]
    fn response_wire_rejects_set_pad_bits_truncated() {
        // At (8, 2) every lane's top byte has pad bits above the wire
        // width; the top bit of that byte is one of them on both rings.
        let truncation = Some((8, 2));
        for (p, ct, positions) in response_cases() {
            let bytes =
                TruncatedCiphertext::response_to_bytes(&ct, positions.iter().copied(), truncation);
            let (cb0, cb1) = lane_bytes(&p, truncation);
            let c1_at = positions.len() * cb0;
            for (byte, index) in [(2 * cb0 + cb0 - 1, 2usize), (c1_at + 7 * cb1 + cb1 - 1, 7)] {
                let mut bad = bytes.clone();
                bad[byte] |= 0x80;
                assert_eq!(
                    TruncatedCiphertext::response_from_bytes_at(
                        &bad,
                        positions.iter().copied(),
                        truncation,
                        &p
                    ),
                    Err(WireError::CoefficientOutOfRange { index }),
                    "q={} byte={byte}",
                    p.q
                );
            }
        }
    }

    #[test]
    fn response_wire_rejects_another_bands_positions_of_other_length() {
        use crate::encoding::{ConvEncoder, ConvShape};
        let shape = ConvShape {
            c: 1,
            h: 20,
            w: 20,
            m: 1,
            k: 3,
        };
        for (p, ct, _) in response_cases() {
            let enc = ConvEncoder::new(shape, p.n);
            let bands: Vec<Vec<usize>> = (0..enc.bands())
                .map(|b| enc.unit_positions(b).collect())
                .collect();
            let mut mismatched = 0;
            for truncation in [None, Some((8, 2))] {
                for sent in &bands {
                    let bytes = TruncatedCiphertext::response_to_bytes(
                        &ct,
                        sent.iter().copied(),
                        truncation,
                    );
                    for read in bands.iter().filter(|b| b.len() != sent.len()) {
                        mismatched += 1;
                        let got = TruncatedCiphertext::response_from_bytes_at(
                            &bytes,
                            read.iter().copied(),
                            truncation,
                            &p,
                        );
                        let want = if read.len() > sent.len() {
                            WireError::Truncated
                        } else {
                            let (cb0, _) = lane_bytes(&p, truncation);
                            WireError::TrailingBytes {
                                extra: (sent.len() - read.len()) * cb0,
                            }
                        };
                        assert_eq!(got, Err(want), "q={} {truncation:?}", p.q);
                    }
                }
            }
            assert!(mismatched > 0, "the shape must have bands of unequal size");
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
