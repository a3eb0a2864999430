//! Chinese-remainder recombination for residue number systems (RNS).
//!
//! Multi-limb ciphertext moduli `Q = q₀·q₁·…` let BFV support deeper
//! accumulations than a single 62-bit prime. Garner's algorithm
//! reconstructs values in mixed radix, needing only double-width
//! arithmetic; with ≤ 3 limbs of ≤ 42 bits every intermediate fits
//! `u128`/`i128`.

use crate::modular::{inv_mod, mul_mod, sub_mod, Shoup};

/// A CRT basis: pairwise-coprime moduli and the Garner precomputation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrtBasis {
    moduli: Vec<u64>,
    /// `inv[j][i] = (q_i)^{-1} mod q_j` for `i < j` (Garner constants).
    inv: Vec<Vec<u64>>,
}

impl CrtBasis {
    /// Builds a basis from pairwise-coprime moduli.
    ///
    /// # Panics
    ///
    /// Panics if fewer than one modulus is given, any modulus is < 2, the
    /// moduli are not pairwise coprime, or the product would overflow
    /// `u128` headroom for centered lifts (`Π q_i ≥ 2^126`).
    pub fn new(moduli: Vec<u64>) -> Self {
        assert!(!moduli.is_empty(), "need at least one modulus");
        let mut prod: u128 = 1;
        for &q in &moduli {
            assert!(q >= 2, "modulus {q} too small");
            prod = prod
                .checked_mul(q as u128)
                .filter(|&p| p < (1u128 << 126))
                .expect("modulus product too large");
        }
        let k = moduli.len();
        let mut inv = vec![vec![0u64; k]; k];
        for j in 0..k {
            for i in 0..j {
                inv[j][i] = inv_mod(moduli[i] % moduli[j], moduli[j])
                    .expect("moduli must be pairwise coprime");
            }
        }
        Self { moduli, inv }
    }

    /// The moduli.
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Number of limbs.
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the basis is empty (never true for a constructed basis).
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The modulus product `Q`.
    pub fn product(&self) -> u128 {
        self.moduli.iter().map(|&q| q as u128).product()
    }

    /// Reduces an unsigned big value into residues.
    pub fn decompose_u128(&self, x: u128) -> Vec<u64> {
        self.moduli
            .iter()
            .map(|&q| (x % q as u128) as u64)
            .collect()
    }

    /// Reduces a signed value into residues.
    pub fn decompose_i128(&self, x: i128) -> Vec<u64> {
        self.moduli
            .iter()
            .map(|&q| x.rem_euclid(q as i128) as u64)
            .collect()
    }

    /// Garner reconstruction: residues → the unique value in `[0, Q)`.
    ///
    /// Allocation-free for any limb count: the mixed-radix value
    /// `v = d0 + d1·q0 + d2·q0·q1 + …` is carried as one running `u128`
    /// instead of a digit vector.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the basis size.
    pub fn reconstruct(&self, residues: &[u64]) -> u128 {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        let mut value: u128 = 0;
        let mut radix: u128 = 1;
        for (j, (&rj, &qj)) in residues.iter().zip(&self.moduli).enumerate() {
            // digit_j = (r_j − v) / (q0·…·q_{j-1})  in Z_qj
            let known = (value % qj as u128) as u64;
            let mut digit = sub_mod(rj % qj, known, qj);
            for &inv in &self.inv[j][..j] {
                digit = mul_mod(digit, inv, qj);
            }
            value += digit as u128 * radix;
            radix *= qj as u128;
        }
        value
    }

    /// Reconstruction followed by a center lift into `(-Q/2, Q/2]`.
    pub fn reconstruct_centered(&self, residues: &[u64]) -> i128 {
        let v = self.reconstruct(residues);
        let q = self.product();
        if v > q / 2 {
            v as i128 - q as i128
        } else {
            v as i128
        }
    }

    /// The two-limb fast path of [`CrtBasis::reconstruct_centered`] for
    /// callers that only need the result modulo `2^64`.
    ///
    /// # Panics
    ///
    /// Panics unless the basis has exactly two limbs, both below `2^62`,
    /// the second one odd.
    pub fn garner2(&self) -> Garner2 {
        assert_eq!(self.len(), 2, "Garner2 needs exactly two limbs");
        let (p0, p1) = (self.moduli[0], self.moduli[1]);
        assert!(p0 < 1 << 62 && p1 < 1 << 62, "Garner2 limbs must be < 2^62");
        assert!(p1 % 2 == 1, "Garner2 centering needs an odd second limb");
        Garner2 {
            p0,
            p1,
            p0_inv: Shoup::new(self.inv[1][0], p1),
            lift: p1 * p0.div_ceil(p1),
            product_lo: p0.wrapping_mul(p1),
        }
    }
}

/// Two-limb Garner recombination into the centered integer, truncated
/// modulo `2^64`: `v = r0 + p0·((r1 − r0)·p0⁻¹ mod p1)`, minus `P` when
/// `v > P/2`. One Shoup multiply, one wrapping multiply-add and a
/// branchless sign select per value — no `u128` arithmetic — and
/// bit-identical to `CrtBasis::reconstruct_centered(..) as u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Garner2 {
    p0: u64,
    p1: u64,
    /// `p0⁻¹ mod p1`.
    p0_inv: Shoup,
    /// The smallest multiple of `p1` that is `≥ p0`: keeps `r1 − r0`
    /// non-negative before the modular multiply.
    lift: u64,
    /// `P mod 2^64`.
    product_lo: u64,
}

impl Garner2 {
    /// Recombines residues `r0 < p0`, `r1 < p1`.
    #[inline]
    pub fn centered_wrapping(&self, r0: u64, r1: u64) -> u64 {
        debug_assert!(r0 < self.p0 && r1 < self.p1);
        let d = self.p0_inv.mul(r1 + self.lift - r0, self.p1);
        // With p1 = 2h + 1: v = r0 + p0·d exceeds ⌊P/2⌋ = p0·h + ⌊p0/2⌋
        // iff d > h, or d = h and r0 > ⌊p0/2⌋.
        let negative = 2 * d + u64::from(r0 > self.p0 / 2) >= self.p1;
        r0.wrapping_add(self.p0.wrapping_mul(d))
            .wrapping_sub(if negative { self.product_lo } else { 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_limb_roundtrip() {
        let b = CrtBasis::new(vec![97, 101]);
        for x in [0u128, 1, 96, 97, 5000, 97 * 101 - 1] {
            assert_eq!(b.reconstruct(&b.decompose_u128(x)), x);
        }
    }

    #[test]
    fn three_limb_large_primes() {
        let p1 = flash_prime(39, 4096, 0);
        let p2 = flash_prime(39, 4096, 1);
        let p3 = flash_prime(38, 4096, 0);
        let b = CrtBasis::new(vec![p1, p2, p3]);
        let q = b.product();
        for x in [0u128, 1, q / 3, q - 1, (1u128 << 100) % q] {
            assert_eq!(b.reconstruct(&b.decompose_u128(x)), x, "x = {x}");
        }
    }

    fn flash_prime(bits: u32, n: u64, skip: usize) -> u64 {
        crate::prime::ntt_primes(bits, n, skip + 1)[skip]
    }

    #[test]
    fn signed_decompose_and_center() {
        let b = CrtBasis::new(vec![97, 101]);
        for x in [-4000i128, -1, 0, 1, 4000] {
            let r = b.decompose_i128(x);
            assert_eq!(b.reconstruct_centered(&r), x);
        }
    }

    #[test]
    fn crt_is_ring_homomorphism() {
        let b = CrtBasis::new(vec![97, 101, 103]);
        let q = b.product();
        let (x, y) = (123_456u128, 789_012u128);
        let rx = b.decompose_u128(x);
        let ry = b.decompose_u128(y);
        let sum: Vec<u64> = rx
            .iter()
            .zip(&ry)
            .zip(b.moduli())
            .map(|((&a, &c), &m)| crate::modular::add_mod(a, c, m))
            .collect();
        assert_eq!(b.reconstruct(&sum), (x + y) % q);
        let prod: Vec<u64> = rx
            .iter()
            .zip(&ry)
            .zip(b.moduli())
            .map(|((&a, &c), &m)| mul_mod(a, c, m))
            .collect();
        assert_eq!(b.reconstruct(&prod), (x * y) % q);
    }

    /// `Garner2` against the generic routine at every edge of the
    /// centered range: extreme residues, the values around `±P/2`, and
    /// the magnitudes the pow2 key product actually reaches (`±N·q/2`).
    #[test]
    fn garner2_matches_generic_reconstruction_at_the_edges() {
        let helper = crate::prime::ntt_primes(50, 4096, 2);
        for moduli in [vec![97, 101], vec![101, 97], vec![4, 9], helper] {
            let b = CrtBasis::new(moduli.clone());
            let g = b.garner2();
            let check = |r0: u64, r1: u64| {
                assert_eq!(
                    g.centered_wrapping(r0, r1),
                    b.reconstruct_centered(&[r0, r1]) as u64,
                    "moduli {moduli:?} residues ({r0}, {r1})"
                );
            };
            let edge = |p: u64| [0, 1, p / 2 - 1, p / 2, p / 2 + 1, p - 2, p - 1];
            for r0 in edge(moduli[0]) {
                for r1 in edge(moduli[1]) {
                    check(r0, r1);
                }
            }
            let half = (b.product() / 2) as i128;
            let nq_half = (4096i128 << 62) / 2;
            for centre in [0, half, -half, nq_half % half, -(nq_half % half)] {
                for x in centre - 2..=centre + 2 {
                    let r = b.decompose_i128(x);
                    check(r[0], r[1]);
                    if -half < x && x <= half {
                        assert_eq!(g.centered_wrapping(r[0], r[1]), x as u64);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pairwise coprime")]
    fn rejects_non_coprime() {
        CrtBasis::new(vec![6, 10]);
    }

    #[test]
    fn single_limb_degenerate() {
        let b = CrtBasis::new(vec![97]);
        assert_eq!(b.reconstruct(&[42]), 42);
        assert_eq!(b.product(), 97);
    }
}
