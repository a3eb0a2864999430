//! 64-bit modular arithmetic.
//!
//! Three multiplication strategies are provided, mirroring the options an
//! NTT hardware designer has (and which the FLASH paper's Table II costs
//! out):
//!
//! * [`mul_mod`] — straightforward `u128` widening multiply + remainder.
//! * [`Montgomery`] — Montgomery-form multiplication for a fixed odd
//!   modulus (the classic software NTT inner loop).
//! * [`Shoup`] — Shoup's precomputed-constant multiplication for a fixed
//!   multiplicand, the standard trick for twiddle factors.
//!
//! A fourth context, [`Barrett`], covers the remaining hot pattern:
//! reducing *arbitrary* wide integers (not products of reduced residues)
//! by a fixed modulus, as the FFT rounding paths must do for every
//! output coefficient.
//!
//! All moduli are required to be less than `2^63` so that `a + b` never
//! overflows `u64` for reduced operands.

/// Adds two reduced residues modulo `q`.
///
/// # Panics
///
/// Debug-asserts that both operands are already reduced.
#[inline]
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    let s = a + b;
    if s >= q {
        s - q
    } else {
        s
    }
}

/// Subtracts `b` from `a` modulo `q`.
#[inline]
pub fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    if a >= b {
        a - b
    } else {
        a + q - b
    }
}

/// Negates a residue modulo `q`.
#[inline]
pub fn neg_mod(a: u64, q: u64) -> u64 {
    debug_assert!(a < q);
    if a == 0 {
        0
    } else {
        q - a
    }
}

/// Multiplies two residues modulo `q` via a 128-bit widening product.
#[inline]
pub fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    ((a as u128 * b as u128) % q as u128) as u64
}

/// Computes `base^exp mod q` by square-and-multiply.
pub fn pow_mod(base: u64, mut exp: u64, q: u64) -> u64 {
    let mut base = base % q;
    let mut acc: u64 = 1 % q;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, q);
        }
        base = mul_mod(base, base, q);
        exp >>= 1;
    }
    acc
}

/// Computes the modular inverse of `a` modulo `q` via the extended
/// Euclidean algorithm.
///
/// Works for any modulus (prime or not) as long as `gcd(a, q) == 1`.
/// Returns `None` when `a` is not invertible.
pub fn inv_mod(a: u64, q: u64) -> Option<u64> {
    if q == 0 {
        return None;
    }
    let (mut old_r, mut r) = (a as i128 % q as i128, q as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let quot = old_r / r;
        (old_r, r) = (r, old_r - quot * r);
        (old_s, s) = (s, old_s - quot * s);
    }
    if old_r != 1 {
        return None;
    }
    let mut inv = old_s % q as i128;
    if inv < 0 {
        inv += q as i128;
    }
    Some(inv as u64)
}

/// Centers a residue into the symmetric interval `(-q/2, q/2]`.
///
/// This is the "center lift" used when feeding ring elements into the
/// floating-point FFT, where magnitude (not residue class) determines the
/// numeric error.
#[inline]
pub fn center_lift(a: u64, q: u64) -> i64 {
    debug_assert!(a < q);
    if a > q / 2 {
        -((q - a) as i64)
    } else {
        a as i64
    }
}

/// Reduces a signed integer into `[0, q)`.
#[inline]
pub fn from_signed(a: i64, q: u64) -> u64 {
    let r = a.rem_euclid(q as i64);
    r as u64
}

/// Barrett-style division-free reduction for a fixed modulus.
///
/// Precomputes `m = ⌊2^128 / q⌋ + 1` once; [`Barrett::reduce`] then maps
/// any `u64` into `[0, q)` with three wide multiplies and no hardware
/// division (Lemire's "fastmod" in its 64-bit form). This matters on the
/// paths that reduce *arbitrary* integers rather than products of
/// already-reduced residues — the drain of the NTT path's lazy MAC sums,
/// where a `%` per coefficient would be a hardware division.
///
/// Every method is bit-identical to `%` for every input; this is a
/// speed change only, and the unit tests pin that equivalence across the
/// edge cases.
///
/// # Examples
///
/// ```
/// use flash_math::modular::Barrett;
/// let b = Barrett::new(0x0000_000F_FFFF_FFEF);
/// assert_eq!(b.reduce(u64::MAX), u64::MAX % 0x0000_000F_FFFF_FFEF);
/// let mut xs = [0, 0x0000_000F_FFFF_FFEF, u64::MAX];
/// b.reduce_slice(&mut xs);
/// assert_eq!(xs, [0, 0, u64::MAX % 0x0000_000F_FFFF_FFEF]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Barrett {
    q: u64,
    /// `⌊2^128 / q⌋ + 1`, except for powers of two where the `+ 1` is
    /// absorbed by the truncating division (the invariant that matters,
    /// `(m - 1)·q < 2^128 ≤ m·q`, holds either way).
    m: u128,
}

impl Barrett {
    /// Precomputes the reduction constant for modulus `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` (reduction modulo 0 or 1 is degenerate) or if
    /// `q > 2^63` — the module-wide modulus bound, and also exactly the
    /// range for which the no-overflow argument in [`Barrett::reduce`]
    /// holds (`⌊2^128/q⌋ + 1 > 2^64 + q` for `q ≤ 2^63`).
    pub fn new(q: u64) -> Self {
        assert!(q > 1, "Barrett modulus must be at least 2");
        assert!(q <= 1 << 63, "Barrett modulus must not exceed 2^63");
        Self {
            q,
            m: u128::MAX / q as u128 + 1,
        }
    }

    /// The modulus this context reduces by.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// Computes `a mod q` without a division.
    ///
    /// With `m·q ≥ 2^128 > (m - 1)·q`, the low 128 bits of `m·a` scaled
    /// by `q/2^128` recover the remainder exactly for any `a < 2^64`
    /// (Lemire, Kaser & Kurz, 2019): writing `a = k·q + r` and
    /// `m·q = 2^128 + e` with `0 ≤ e ≤ q`, the low word is
    /// `k·e + m·r` (no wraparound, since `k·e + m·r < 2^64 + q + 2^128
    /// − m ≤ 2^128` for `q ≤ 2^63`), and scaling it by `q/2^128` yields
    /// `r + ⌊e·a/2^128⌋ = r`.
    #[inline]
    pub fn reduce(&self, a: u64) -> u64 {
        let low = self.m.wrapping_mul(a as u128);
        // ⌊low·q / 2^128⌋ via two 64×64→128 partial products; dropping
        // the fraction bits of the low partial cannot perturb the outer
        // floor because the discarded part is < 1.
        let hi = low >> 64;
        let lo = low as u64 as u128;
        let q = self.q as u128;
        ((hi * q + ((lo * q) >> 64)) >> 64) as u64
    }

    /// Reduces every element of a slice in place — the bulk form of
    /// [`Barrett::reduce`] for draining lazily-accumulated residue
    /// vectors (sums held unreduced across many multiply-accumulates)
    /// back into `[0, q)` in one vectorizable pass.
    pub fn reduce_slice(&self, xs: &mut [u64]) {
        for x in xs {
            *x = self.reduce(*x);
        }
    }
}

/// Montgomery multiplication context for a fixed odd modulus `q < 2^63`.
///
/// Values are kept in Montgomery form `aR mod q` with `R = 2^64`.
///
/// # Examples
///
/// ```
/// use flash_math::modular::Montgomery;
/// let m = Montgomery::new(97).unwrap();
/// let a = m.to_mont(13);
/// let b = m.to_mont(29);
/// assert_eq!(m.from_mont(m.mul(a, b)), (13 * 29) % 97);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Montgomery {
    q: u64,
    /// `-q^{-1} mod 2^64`
    neg_qinv: u64,
    /// `R^2 mod q`, used to enter Montgomery form.
    r2: u64,
}

impl Montgomery {
    /// Creates a context for odd `q < 2^63`. Returns `None` for even or
    /// oversized moduli.
    pub fn new(q: u64) -> Option<Self> {
        if q.is_multiple_of(2) || !(3..(1 << 63)).contains(&q) {
            return None;
        }
        // Newton iteration for the inverse of q modulo 2^64.
        let mut inv: u64 = q; // correct to 3 bits
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(q.wrapping_mul(inv)));
        }
        debug_assert_eq!(q.wrapping_mul(inv), 1);
        let r = (u64::MAX % q) + 1; // 2^64 mod q
        let r2 = mul_mod(r % q, r % q, q);
        Some(Self {
            q,
            neg_qinv: inv.wrapping_neg(),
            r2,
        })
    }

    /// The modulus this context reduces by.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// Montgomery reduction of a 128-bit product.
    #[inline]
    fn redc(&self, t: u128) -> u64 {
        let m = (t as u64).wrapping_mul(self.neg_qinv);
        let t = (t + m as u128 * self.q as u128) >> 64;
        let t = t as u64;
        if t >= self.q {
            t - self.q
        } else {
            t
        }
    }

    /// Converts a reduced residue into Montgomery form.
    #[inline]
    pub fn to_mont(&self, a: u64) -> u64 {
        self.redc(a as u128 * self.r2 as u128)
    }

    /// Converts a value out of Montgomery form.
    #[inline]
    pub fn from_mont(&self, a: u64) -> u64 {
        self.redc(a as u128)
    }

    /// Multiplies two Montgomery-form values, producing a Montgomery-form
    /// result.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.redc(a as u128 * b as u128)
    }
}

/// Shoup precomputed-constant multiplication.
///
/// For a fixed multiplicand `w` (e.g. a twiddle factor), precompute
/// `w' = floor(w * 2^64 / q)`; then `a * w mod q` costs two multiplies and
/// no division. This is the scheme used in most software NTT kernels and is
/// the "optimized modular multiplier" family the paper compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shoup {
    w: u64,
    w_shoup: u64,
}

impl Shoup {
    /// Precomputes the Shoup constant for multiplicand `w` modulo `q`.
    #[inline]
    pub fn new(w: u64, q: u64) -> Self {
        debug_assert!(w < q);
        let w_shoup = ((w as u128) << 64) / q as u128;
        Self {
            w,
            w_shoup: w_shoup as u64,
        }
    }

    /// The plain (non-precomputed) multiplicand.
    #[inline]
    pub fn value(&self) -> u64 {
        self.w
    }

    /// Computes `a * w mod q` (result in `[0, q)`; requires `q < 2^63`).
    #[inline]
    pub fn mul(&self, a: u64, q: u64) -> u64 {
        let r = self.mul_lazy(a, q);
        if r >= q {
            r - q
        } else {
            r
        }
    }

    /// Harvey's lazy variant of [`Shoup::mul`]: skips the final
    /// conditional subtraction, returning a value congruent to
    /// `a * w mod q` in `[0, 2q)` — for *any* `a` (the operand need not
    /// be reduced), requiring only `q < 2^63`.
    ///
    /// This is the butterfly inner product of lazy-reduction NTTs: stages
    /// carry residues in `[0, 2q)`/`[0, 4q)` and normalize once at the
    /// end, saving one compare-subtract per multiply.
    #[inline]
    pub fn mul_lazy(&self, a: u64, q: u64) -> u64 {
        // With w' = ⌊w·2^64/q⌋ and hi = ⌊w'a/2^64⌋:
        //   w·a − hi·q ∈ [0, q·(1 + a/2^64)) ⊂ [0, 2q),
        // and since 2q < 2^64 the wrapping arithmetic below is exact.
        let hi = ((self.w_shoup as u128 * a as u128) >> 64) as u64;
        self.w.wrapping_mul(a).wrapping_sub(hi.wrapping_mul(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 0x1FFF_FFFF_FFE0_0001; // 61-bit prime used by SEAL

    #[test]
    fn barrett_matches_rem_euclid_on_edges() {
        // Moduli spanning the interesting shapes: tiny, odd, even,
        // powers of two, primes near word boundaries, and the largest
        // legal-for-arithmetic 63-bit values.
        let moduli = [
            2u64,
            3,
            5,
            255,
            256,
            (1 << 13),
            (1 << 16) + 1,
            (1 << 36) - 5,
            1 << 36,
            Q,
            (1 << 62) + 11,
            (1 << 63) - 1,
            1 << 63,
        ];
        for &q in &moduli {
            let b = Barrett::new(q);
            assert_eq!(b.modulus(), q);
            for a in [
                0u64,
                1,
                q - 1,
                q,
                q + 1,
                q.wrapping_mul(3),
                u64::MAX / 2,
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(b.reduce(a), a % q, "reduce({a}) mod {q}");
            }
        }
    }

    #[test]
    fn barrett_matches_rem_euclid_randomized() {
        // Deterministic LCG sweep — no `rand` dependency in this crate's
        // unit tests.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        for _ in 0..64 {
            let q = (next() >> 1) | 1; // odd, below the 2^63 contract bound
            let b = Barrett::new(q.max(3));
            for _ in 0..256 {
                let a = next();
                assert_eq!(b.reduce(a), a % b.modulus());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn barrett_rejects_trivial_modulus() {
        let _ = Barrett::new(1);
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        for (a, b) in [(0u64, 0u64), (1, Q - 1), (Q / 2, Q / 2 + 1), (12345, 678)] {
            let s = add_mod(a, b, Q);
            assert_eq!(sub_mod(s, b, Q), a);
            assert_eq!(add_mod(a, neg_mod(a, Q), Q), 0);
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let base = 123_456_789u64;
        let mut acc = 1u64;
        for e in 0..20u64 {
            assert_eq!(pow_mod(base, e, Q), acc);
            acc = mul_mod(acc, base, Q);
        }
    }

    #[test]
    fn inverse_of_invertible() {
        for a in [1u64, 2, 3, 1 << 40, Q - 1] {
            let inv = inv_mod(a, Q).expect("prime modulus: all nonzero invertible");
            assert_eq!(mul_mod(a, inv, Q), 1);
        }
        assert_eq!(inv_mod(0, Q), None);
        // Non-coprime case with a composite modulus.
        assert_eq!(inv_mod(6, 9), None);
        assert_eq!(inv_mod(2, 9), Some(5));
    }

    #[test]
    fn center_lift_bounds_and_roundtrip() {
        let q = 97u64;
        for a in 0..q {
            let c = center_lift(a, q);
            assert!(c > -(q as i64) / 2 - 1 && c <= q as i64 / 2);
            assert_eq!(from_signed(c, q), a);
        }
    }

    #[test]
    fn montgomery_matches_plain() {
        let m = Montgomery::new(Q).unwrap();
        let pairs = [
            (1u64, 1u64),
            (Q - 1, Q - 1),
            (0x1234_5678_9ABC, 0xFEDC_BA98),
            (Q / 3, Q / 5),
        ];
        for (a, b) in pairs {
            let am = m.to_mont(a);
            let bm = m.to_mont(b);
            assert_eq!(m.from_mont(m.mul(am, bm)), mul_mod(a, b, Q));
            assert_eq!(m.from_mont(am), a);
        }
    }

    #[test]
    fn montgomery_rejects_bad_moduli() {
        assert!(Montgomery::new(64).is_none());
        assert!(Montgomery::new(1u64 << 63).is_none());
        assert!(Montgomery::new(1).is_none());
    }

    #[test]
    fn shoup_matches_plain() {
        let ws = [1u64, 2, Q - 1, 0xABCDEF, Q / 2];
        let xs = [0u64, 1, Q - 1, 31_415_926_535];
        for w in ws {
            let s = Shoup::new(w, Q);
            assert_eq!(s.value(), w);
            for x in xs {
                assert_eq!(s.mul(x, Q), mul_mod(x, w, Q), "w={w} x={x}");
            }
        }
    }

    #[test]
    fn shoup_lazy_is_congruent_and_bounded() {
        let ws = [1u64, 2, Q - 1, 0xABCDEF, Q / 2];
        // Unreduced operands up to u64::MAX are legal for mul_lazy.
        let xs = [0u64, 1, Q - 1, 2 * Q + 5, 4 * Q - 1, u64::MAX];
        for w in ws {
            let s = Shoup::new(w, Q);
            for x in xs {
                let lazy = s.mul_lazy(x, Q);
                assert!(lazy < 2 * Q, "w={w} x={x}: {lazy} not in [0, 2q)");
                assert_eq!(lazy % Q, mul_mod(x % Q, w, Q), "w={w} x={x}: wrong residue");
            }
        }
    }
}
