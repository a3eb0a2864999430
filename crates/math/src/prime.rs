//! Primality testing, factoring and NTT-friendly prime search.
//!
//! The exact-NTT baseline needs primes `q ≡ 1 (mod 2N)` so that a
//! primitive `2N`-th root of unity ψ exists (negacyclic NTT). This module
//! provides a deterministic Miller–Rabin test for `u64`, Pollard-rho
//! factoring (to find primitive roots), and search helpers.

use crate::modular::{mul_mod, pow_mod};

/// Deterministic Miller–Rabin primality test for `u64`.
///
/// Uses the base set `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}`, which
/// is known to be exact for all `n < 3.3 * 10^24`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Pollard-rho factorization step: finds one non-trivial factor of a
/// composite `n`.
fn pollard_rho(n: u64) -> u64 {
    if n.is_multiple_of(2) {
        return 2;
    }
    let mut c = 1u64;
    loop {
        let mut x = 2u64;
        let mut y = 2u64;
        let mut d = 1u64;
        while d == 1 {
            x = (mul_mod(x, x, n) + c) % n;
            y = (mul_mod(y, y, n) + c) % n;
            y = (mul_mod(y, y, n) + c) % n;
            d = gcd(x.abs_diff(y), n);
        }
        if d != n {
            return d;
        }
        c += 1;
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Returns the sorted set of distinct prime factors of `n`.
///
/// # Examples
///
/// ```
/// assert_eq!(flash_math::prime::distinct_prime_factors(12), vec![2, 3]);
/// ```
pub fn distinct_prime_factors(n: u64) -> Vec<u64> {
    let mut factors = Vec::new();
    let mut stack = Vec::new();
    if n <= 1 {
        return factors;
    }
    stack.push(n);
    while let Some(m) = stack.pop() {
        if is_prime(m) {
            if !factors.contains(&m) {
                factors.push(m);
            }
            continue;
        }
        // Strip small factors quickly before rho.
        let mut m = m;
        for p in [2u64, 3, 5, 7, 11, 13] {
            while m % p == 0 {
                if !factors.contains(&p) {
                    factors.push(p);
                }
                m /= p;
            }
        }
        if m == 1 {
            continue;
        }
        if is_prime(m) {
            if !factors.contains(&m) {
                factors.push(m);
            }
            continue;
        }
        let d = pollard_rho(m);
        stack.push(d);
        stack.push(m / d);
    }
    factors.sort_unstable();
    factors
}

/// Finds a generator (primitive root) of the multiplicative group of
/// `Z_p^*` for prime `p`.
///
/// # Panics
///
/// Panics if `p` is not prime.
pub fn primitive_root(p: u64) -> u64 {
    assert!(is_prime(p), "primitive_root requires a prime modulus");
    if p == 2 {
        return 1;
    }
    let factors = distinct_prime_factors(p - 1);
    'g: for g in 2..p {
        for &f in &factors {
            if pow_mod(g, (p - 1) / f, p) == 1 {
                continue 'g;
            }
        }
        return g;
    }
    unreachable!("every prime has a primitive root")
}

/// Returns a primitive `n`-th root of unity modulo prime `p`.
///
/// # Panics
///
/// Panics if `n` does not divide `p - 1` or `p` is not prime.
pub fn primitive_nth_root(n: u64, p: u64) -> u64 {
    assert!(
        (p - 1).is_multiple_of(n),
        "n = {n} must divide p - 1 = {} for a primitive root to exist",
        p - 1
    );
    let g = primitive_root(p);
    let root = pow_mod(g, (p - 1) / n, p);
    debug_assert_eq!(pow_mod(root, n, p), 1);
    root
}

/// Finds the largest prime `q < 2^bits` with `q ≡ 1 (mod 2n)`, i.e. an
/// NTT-friendly prime supporting the negacyclic transform of length `n`.
///
/// Returns `None` if no such prime exists below `2^bits` (only plausible
/// for tiny `bits`).
///
/// # Examples
///
/// ```
/// let q = flash_math::prime::ntt_prime(30, 4096).unwrap();
/// assert!(q < (1 << 30));
/// assert_eq!(q % (2 * 4096), 1);
/// ```
pub fn ntt_prime(bits: u32, n: u64) -> Option<u64> {
    assert!(bits <= 62, "moduli above 2^62 are not supported");
    assert!(n.is_power_of_two(), "ring degree must be a power of two");
    let m = 2 * n;
    let top = 1u64 << bits;
    // Largest candidate of the form k*m + 1 below 2^bits.
    let mut k = (top - 2) / m;
    while k > 0 {
        let cand = k * m + 1;
        if is_prime(cand) {
            return Some(cand);
        }
        k -= 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes_classified() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 65537, 4294967291];
        let composites = [
            0u64, 1, 4, 9, 15, 91, 6601, /* Carmichael */
            4294967295,
        ];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn large_known_primes() {
        // SEAL's 61-bit prime and a 50-bit NTT prime.
        assert!(is_prime(0x1FFF_FFFF_FFE0_0001));
        assert!(!is_prime(0x1FFF_FFFF_FFE0_0003));
    }

    #[test]
    fn factors_of_highly_composite() {
        assert_eq!(
            distinct_prime_factors(2 * 2 * 3 * 3 * 5 * 41),
            vec![2, 3, 5, 41]
        );
        assert_eq!(distinct_prime_factors(1), Vec::<u64>::new());
        assert_eq!(distinct_prime_factors(97), vec![97]);
        // Semiprime with large-ish factors exercises Pollard rho.
        assert_eq!(
            distinct_prime_factors(1_000_003u64 * 999_983),
            vec![999_983, 1_000_003]
        );
    }

    #[test]
    fn primitive_root_has_full_order() {
        for p in [17u64, 97, 7681, 12289] {
            let g = primitive_root(p);
            // g^((p-1)/f) != 1 for every prime factor f.
            for f in distinct_prime_factors(p - 1) {
                assert_ne!(pow_mod(g, (p - 1) / f, p), 1);
            }
            assert_eq!(pow_mod(g, p - 1, p), 1);
        }
    }

    #[test]
    fn nth_root_order_is_exact() {
        let p = 12289u64; // = 3 * 2^12 + 1
        let n = 2048u64;
        let w = primitive_nth_root(n, p);
        assert_eq!(pow_mod(w, n, p), 1);
        assert_ne!(pow_mod(w, n / 2, p), 1);
    }

    #[test]
    fn ntt_prime_search_finds_friendly_primes() {
        for (bits, n) in [(20u32, 1024u64), (30, 4096), (39, 4096), (60, 8192)] {
            let q = ntt_prime(bits, n).unwrap();
            assert!(q < (1u64 << bits));
            assert_eq!(q % (2 * n), 1);
            assert!(is_prime(q));
        }
    }
}
