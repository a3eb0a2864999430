//! Exact negacyclic multiplication over a power-of-two ring `Z_{2^l}`.
//!
//! A power-of-two ciphertext modulus buys free reduction on the MAC path
//! (see `flash_math::pow2`), but the NTT itself needs a prime with
//! `q ≡ 1 (mod 2N)` — `2^l` has no roots of unity of the right order. The
//! places that still need an *exact* dense product on the power-of-two
//! ring — the key-side `a·s` and `p·u` multiplies of every encryption and
//! decryption, where the operands are too dense for the schoolbook
//! fallback — lift instead through a two-limb CRT of NTT-friendly primes.
//! One operand of a key product is always *small* and fixed for many
//! products (the secret key), so it is prepared once
//! ([`Pow2Ring::prepare_small`]: center-lift, per-limb transform, Shoup
//! constants) and each product then costs
//!
//! 1. one lazy reduction of the dense operand into each helper prime,
//! 2. one batched prepared multiply per limb
//!    ([`negacyclic_mul_prepared_batch`]),
//! 3. a two-limb Garner recombination of the centered integer product,
//!    truncated modulo `2^l` (wrapping arithmetic + mask) and folded with
//!    the caller's epilogue in the same sweep.
//!
//! Exactness requires the true integer product to fit the CRT range:
//! every coefficient of `a·b mod (X^N + 1)` is a sum of `N` terms bounded
//! by `q·‖b‖_∞` (the dense operand is taken as its representative in
//! `[0, q)`; only the small one is centered), so the basis product
//! `P ≈ 2^100` covers `N·q·‖b‖_∞ < P/2` — comfortable for the ternary
//! secrets and encryption randomness this path serves (`‖b‖_∞ ≤ 1` leaves
//! over 20 bits of slack at `N = 4096`, `q = 2^62`), but *not* for a product
//! of two full-magnitude operands. Preparation therefore checks the
//! bound and refuses a larger operand with [`SmallOperandError`].

use crate::polymul::{negacyclic_mul_prepared_batch, PreparedOperand};
use crate::tables::NttTables;
use flash_math::crt::{CrtBasis, Garner2};
use flash_math::modular::{center_lift, from_signed, Shoup};
use flash_math::pow2::is_pow2_modulus;
use flash_runtime::U64_SCRATCH;
use std::fmt;
use std::sync::Arc;

/// Bit width of the CRT helper primes. Two limbs give `P > 2^98`, enough
/// for `N·q·‖b‖_∞` with `N ≤ 2^13`, `q ≤ 2^62` and small `b`.
const LIMB_BITS: u32 = 50;

/// The small operand of a key product exceeds the magnitude for which
/// the CRT lift is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmallOperandError {
    /// Largest admissible `‖b‖_∞` ([`Pow2Ring::max_small_norm`]).
    pub bound: u64,
    /// The operand's actual `‖b‖_∞` after center lift.
    pub norm: u64,
}

impl fmt::Display for SmallOperandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "operand norm {} exceeds the exact CRT-lift bound {}",
            self.norm, self.bound
        )
    }
}

impl std::error::Error for SmallOperandError {}

/// One CRT helper prime: its transform tables and the constant that
/// reduces a ring element into it.
#[derive(Debug)]
struct Limb {
    tables: Arc<NttTables>,
    /// Shoup form of `1`: `one.mul_lazy(x, p)` is `x mod p` in `[0, 2p)`
    /// for any `u64` — the forward cascade's input range.
    one: Shoup,
}

/// A small operand prepared for [`Pow2Ring::mul_prepared_batch`]: its
/// centered lift, transformed per helper prime.
#[derive(Debug, Clone)]
pub struct PreparedSmall {
    limbs: [PreparedOperand; 2],
}

/// Precomputed context for exact products on `Z_{2^l}[X]/(X^N + 1)`:
/// the power-of-two modulus plus the two-limb CRT-NTT lift.
#[derive(Debug)]
pub struct Pow2Ring {
    q: u64,
    mask: u64,
    limbs: [Limb; 2],
    garner: Garner2,
    /// Largest `‖b‖_∞` for which the CRT lift is provably exact.
    max_small: u64,
}

impl Pow2Ring {
    /// Builds the ring context for degree `n` and modulus `2^l`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a supported transform size or `l` is outside
    /// `2..=62`.
    pub fn new(n: usize, l: u32) -> Self {
        assert!(
            (2..=62).contains(&l),
            "power-of-two modulus exponent {l} outside 2..=62"
        );
        let q = 1u64 << l;
        let primes = flash_math::prime::ntt_primes(LIMB_BITS, n as u64, 2);
        assert_eq!(primes.len(), 2, "no CRT helper primes for N = {n}");
        let limbs = [primes[0], primes[1]].map(|p| Limb {
            tables: NttTables::shared(n, p).expect("helper prime admits an NTT"),
            one: Shoup::new(1, p),
        });
        let crt = CrtBasis::new(primes);
        // N · q · max_small < P/2  ⇒  max_small < P / (2·N·q).
        let max_small = (crt.product() / (n as u128 * q as u128) / 2) as u64;
        assert!(max_small >= 1, "CRT range too small for N = {n}, q = 2^{l}");
        Self {
            q,
            mask: q - 1,
            limbs,
            garner: crt.garner2(),
            max_small,
        }
    }

    /// The modulus `2^l`.
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// The reduction mask `2^l − 1`.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// The ring degree `N`.
    pub fn degree(&self) -> usize {
        self.limbs[0].tables.degree()
    }

    /// Largest `‖b‖_∞` (after center lift) accepted by
    /// [`prepare_small`](Self::prepare_small).
    pub fn max_small_norm(&self) -> u64 {
        self.max_small
    }

    /// Prepares the small operand of a key product: checks the exactness
    /// bound `‖b‖_∞ ≤ max_small_norm()` (≈ `2^25` at `N = 4096`,
    /// `q = 2^62`; ternary secrets and encryption randomness always
    /// qualify), center-lifts `b` out of `Z_{2^l}` and transforms it
    /// modulo each helper prime.
    ///
    /// # Errors
    ///
    /// [`SmallOperandError`] when `b` is too large for an exact lift.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the ring degree.
    pub fn prepare_small(&self, b: &[u64]) -> Result<PreparedSmall, SmallOperandError> {
        assert_eq!(b.len(), self.degree(), "operand length mismatch");
        let signed: Vec<i64> = b
            .iter()
            .map(|&x| center_lift(x & self.mask, self.q))
            .collect();
        let norm = signed.iter().map(|x| x.unsigned_abs()).max().unwrap_or(0);
        if norm > self.max_small {
            return Err(SmallOperandError {
                bound: self.max_small,
                norm,
            });
        }
        let prepare = |limb: &Limb| {
            let p = limb.tables.modulus();
            let residues: Vec<u64> = signed.iter().map(|&x| from_signed(x, p)).collect();
            PreparedOperand::new(&residues, &limb.tables)
        };
        Ok(PreparedSmall {
            limbs: [prepare(&self.limbs[0]), prepare(&self.limbs[1])],
        })
    }

    /// Exact negacyclic products of a batch of ring elements `a`
    /// (`batch × N`, concatenated) against one prepared small operand,
    /// folded into `out`: `out[i] = fold(prod[i], out[i])` with
    /// `prod = a·b mod (X^N + 1, 2^l)` fully reduced. The fold runs
    /// inside the Garner sweep, so a caller's `+ c0`, rounding shift or
    /// negation costs no extra pass over the data.
    ///
    /// This is the client's per-ciphertext hot path — every encryption
    /// and decryption on a power-of-two ring is one of these products —
    /// and allocates nothing in steady state.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != out.len()` or the length is not a multiple
    /// of the ring degree.
    pub fn mul_prepared_batch<F: Fn(u64, u64) -> u64>(
        &self,
        out: &mut [u64],
        a: &[u64],
        b: &PreparedSmall,
        fold: F,
    ) {
        assert_eq!(out.len(), a.len(), "output batch length must match");
        let mut residues = [U64_SCRATCH.take(a.len()), U64_SCRATCH.take(a.len())];
        for ((res, limb), prepared) in residues.iter_mut().zip(&self.limbs).zip(&b.limbs) {
            let p = limb.tables.modulus();
            for (r, &x) in res.iter_mut().zip(a) {
                *r = limb.one.mul_lazy(x & self.mask, p);
            }
            negacyclic_mul_prepared_batch(res, prepared, &limb.tables);
        }
        let [r0, r1] = &residues;
        for ((o, &r0), &r1) in out.iter_mut().zip(r0.iter()).zip(r1.iter()) {
            // Truncating the centered integer to u64 is reduction mod
            // 2^64; the mask finishes the reduction mod 2^l.
            *o = fold(self.garner.centered_wrapping(r0, r1) & self.mask, *o);
        }
    }
}

impl PartialEq for Pow2Ring {
    fn eq(&self, other: &Self) -> bool {
        self.q == other.q && self.degree() == other.degree()
    }
}

/// Checks that `q` is a modulus [`Pow2Ring`] supports.
pub fn supported_modulus(q: u64) -> bool {
    is_pow2_modulus(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_math::pow2::negacyclic_mul_wrapping;

    fn mul_small(ring: &Pow2Ring, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; a.len()];
        let prepared = ring.prepare_small(b).expect("operand within bound");
        ring.mul_prepared_batch(&mut out, a, &prepared, |prod, _| prod);
        out
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state
    }

    #[test]
    fn matches_wrapping_schoolbook_for_ternary_operand() {
        let ring = Pow2Ring::new(64, 62);
        let q = ring.modulus();
        let mut s = 0xABCDu64;
        let a: Vec<u64> = (0..64).map(|_| lcg(&mut s) & (q - 1)).collect();
        let b: Vec<u64> = (0..64)
            .map(|_| match lcg(&mut s) % 3 {
                0 => 0,
                1 => 1,
                _ => q - 1, // −1 mod 2^62
            })
            .collect();
        assert_eq!(mul_small(&ring, &a, &b), negacyclic_mul_wrapping(&a, &b, q));
    }

    #[test]
    fn matches_wrapping_schoolbook_for_moderate_operand() {
        // Exercise the full advertised smallness range at a modest
        // degree, where max_small_norm is far above the weights the
        // scheme actually uses.
        let ring = Pow2Ring::new(32, 40);
        let q = ring.modulus();
        let bound = ring.max_small_norm().min(1 << 20);
        let mut s = 0x77u64;
        let a: Vec<u64> = (0..32).map(|_| lcg(&mut s) & (q - 1)).collect();
        let b: Vec<u64> = (0..32)
            .map(|_| {
                let v = (lcg(&mut s) % (2 * bound + 1)) as i64 - bound as i64;
                v.rem_euclid(q as i64) as u64
            })
            .collect();
        assert_eq!(mul_small(&ring, &a, &b), negacyclic_mul_wrapping(&a, &b, q));
    }

    #[test]
    fn smallness_bound_is_generous_for_keys() {
        let ring = Pow2Ring::new(4096, 62);
        // Ternary secrets need ‖b‖ ≤ 1; the exactness bound must leave
        // wide margin beyond that.
        assert!(ring.max_small_norm() > 1 << 20);
        assert_eq!(ring.degree(), 4096);
        assert_eq!(ring.modulus(), 1 << 62);
        assert_eq!(ring.mask(), (1 << 62) - 1);
    }

    #[test]
    fn batch_and_fold_match_per_polynomial_products() {
        let n = 64;
        let ring = Pow2Ring::new(n, 62);
        let q = ring.modulus();
        let mut s = 0x5EEDu64;
        let b: Vec<u64> = (0..n)
            .map(|_| [0, 1, q - 1][(lcg(&mut s) % 3) as usize])
            .collect();
        let prepared = ring.prepare_small(&b).unwrap();
        for batch in [1usize, 3, 8, 9] {
            let a: Vec<u64> = (0..batch * n).map(|_| lcg(&mut s) & (q - 1)).collect();
            let addend: Vec<u64> = (0..batch * n).map(|_| lcg(&mut s) & (q - 1)).collect();
            let mut got = addend.clone();
            ring.mul_prepared_batch(&mut got, &a, &prepared, |prod, x| {
                x.wrapping_sub(prod) & (q - 1)
            });
            for (k, a_k) in a.chunks_exact(n).enumerate() {
                let want = negacyclic_mul_wrapping(a_k, &b, q);
                for i in 0..n {
                    assert_eq!(
                        got[k * n + i],
                        addend[k * n + i].wrapping_sub(want[i]) & (q - 1),
                        "batch={batch} poly={k} coeff={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_small_operand_is_refused_in_release_too() {
        // Used to be a debug_assert!: a release build returned a wrong
        // product for a non-small operand instead of refusing it.
        let ring = Pow2Ring::new(4096, 62);
        let mut b = vec![0u64; 4096];
        b[7] = ring.max_small_norm() + 1;
        assert_eq!(
            ring.prepare_small(&b).unwrap_err(),
            SmallOperandError {
                bound: ring.max_small_norm(),
                norm: ring.max_small_norm() + 1,
            }
        );
        b[7] = ring.modulus() - ring.max_small_norm(); // −max_small: still fine
        assert!(ring.prepare_small(&b).is_ok());
    }

    #[test]
    #[should_panic(expected = "outside 2..=62")]
    fn rejects_full_word_modulus() {
        Pow2Ring::new(64, 63);
    }
}
