//! Negacyclic polynomial multiplication.
//!
//! [`negacyclic_mul_ntt`] is the exact product in `Z_q[X]/(X^N + 1)` via
//! forward NTT → point-wise product → inverse NTT, i.e. Figure 4(a) of the
//! paper. [`negacyclic_mul_naive`] is the `O(N²)` schoolbook reference
//! (also the "direct computation in the coefficient domain" baseline of
//! Figure 11(a)).

use crate::tables::NttTables;
use crate::transform::{forward, inverse, mul_prepared_batch, pointwise_mul_into};
use flash_math::modular::{add_mod, mul_mod, sub_mod, Shoup};
use flash_runtime::U64_SCRATCH;

/// Exact negacyclic product via the NTT.
///
/// Allocates the result vector; the operand transforms run in pooled
/// scratch. On hot paths that already own an output buffer, prefer
/// [`negacyclic_mul_ntt_into`], which allocates nothing in steady state.
///
/// # Panics
///
/// Panics if the operand lengths differ from the table degree.
pub fn negacyclic_mul_ntt(a: &[u64], b: &[u64], tables: &NttTables) -> Vec<u64> {
    let mut out = vec![0u64; tables.degree()];
    negacyclic_mul_ntt_into(&mut out, a, b, tables);
    out
}

/// Exact negacyclic product via the NTT, written into a caller-provided
/// buffer. All intermediate storage comes from the thread-local scratch
/// pool, so repeated calls perform no allocations.
///
/// # Panics
///
/// Panics if `out` or the operand lengths differ from the table degree.
pub fn negacyclic_mul_ntt_into(out: &mut [u64], a: &[u64], b: &[u64], tables: &NttTables) {
    let mut fa = U64_SCRATCH.take_copied(a);
    let mut fb = U64_SCRATCH.take_copied(b);
    forward(&mut fa, tables);
    forward(&mut fb, tables);
    pointwise_mul_into(out, &fa, &fb, tables);
    inverse(out, tables);
}

/// A fixed multiplicand held in the transform domain: `NTT(b)·N⁻¹` with
/// one Shoup constant per slot, built once by [`PreparedOperand::new`]
/// and reused by every [`negacyclic_mul_prepared_batch`] call — the
/// secret key of a session, multiplied into every ciphertext.
#[derive(Debug, Clone)]
pub struct PreparedOperand {
    spectrum: Vec<Shoup>,
}

impl PreparedOperand {
    /// Transforms `b` (reduced modulo the table modulus) and precomputes
    /// the Shoup constants; the inverse transform's `N⁻¹` scaling is
    /// folded in here so products skip it.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the table degree.
    pub fn new(b: &[u64], tables: &NttTables) -> Self {
        let q = tables.modulus();
        let mut fb = b.to_vec();
        forward(&mut fb, tables);
        let n_inv = tables.n_inv();
        Self {
            spectrum: fb.iter().map(|&x| Shoup::new(n_inv.mul(x, q), q)).collect(),
        }
    }
}

/// Exact negacyclic products of a batch of polynomials (`batch × n`,
/// concatenated) against one prepared operand, in place. Blocks of `W`
/// polynomials share each twiddle in the lane-interleaved kernels; a
/// batch of one runs the same kernel at width 1. Inputs may be lazily
/// reduced (anywhere in `[0, 4q)`); results are fully reduced and
/// bit-identical to [`negacyclic_mul_ntt_into`] for every batch size and
/// SIMD level.
///
/// # Panics
///
/// Panics if `polys.len()` is not a multiple of the table degree or the
/// operand was prepared for a different degree.
pub fn negacyclic_mul_prepared_batch(
    polys: &mut [u64],
    prepared: &PreparedOperand,
    tables: &NttTables,
) {
    mul_prepared_batch(polys, &prepared.spectrum, tables);
}

/// Schoolbook negacyclic product: `c_k = Σ_{i+j=k} a_i b_j − Σ_{i+j=k+N}
/// a_i b_j (mod q)`.
///
/// # Panics
///
/// Panics if the operands have different lengths.
pub fn negacyclic_mul_naive(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
    assert_eq!(a.len(), b.len(), "operand lengths must match");
    let n = a.len();
    let mut c = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            if bj == 0 {
                continue;
            }
            let p = mul_mod(ai, bj, q);
            let k = i + j;
            if k < n {
                c[k] = add_mod(c[k], p, q);
            } else {
                c[k - n] = sub_mod(c[k - n], p, q);
            }
        }
    }
    c
}

/// Negacyclic product of a dense polynomial with a *sparse* polynomial
/// given as `(index, coefficient)` pairs — the direct coefficient-domain
/// method FLASH compares its sparse dataflow against.
pub fn negacyclic_mul_sparse(dense: &[u64], sparse: &[(usize, u64)], q: u64) -> Vec<u64> {
    let n = dense.len();
    let mut c = vec![0u64; n];
    for &(j, w) in sparse {
        assert!(j < n, "sparse index {j} out of range");
        if w == 0 {
            continue;
        }
        for (i, &x) in dense.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let p = mul_mod(x, w, q);
            let k = i + j;
            if k < n {
                c[k] = add_mod(c[k], p, q);
            } else {
                c[k - n] = sub_mod(c[k - n], p, q);
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_math::prime::ntt_prime;
    use rand::{Rng, SeedableRng};

    fn tables(n: usize, bits: u32) -> NttTables {
        let q = ntt_prime(bits, n as u64).unwrap();
        NttTables::new(n, q).unwrap()
    }

    #[test]
    fn x_pow_wraps_with_sign() {
        // X^(N-1) * X = X^N = -1 in the negacyclic ring.
        let t = tables(8, 20);
        let q = t.modulus();
        let mut a = vec![0u64; 8];
        a[7] = 1;
        let mut b = vec![0u64; 8];
        b[1] = 1;
        let c = negacyclic_mul_ntt(&a, &b, &t);
        let mut want = vec![0u64; 8];
        want[0] = q - 1;
        assert_eq!(c, want);
        assert_eq!(negacyclic_mul_naive(&a, &b, q), want);
    }

    #[test]
    fn ntt_matches_naive_random() {
        let t = tables(64, 30);
        let q = t.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let a: Vec<u64> = (0..64).map(|_| rng.gen_range(0..q)).collect();
            let b: Vec<u64> = (0..64).map(|_| rng.gen_range(0..q)).collect();
            assert_eq!(
                negacyclic_mul_ntt(&a, &b, &t),
                negacyclic_mul_naive(&a, &b, q)
            );
        }
    }

    #[test]
    fn identity_and_zero() {
        let t = tables(16, 20);
        let q = t.modulus();
        let a: Vec<u64> = (0..16).map(|i| (i * 3 + 1) % q).collect();
        let mut one = vec![0u64; 16];
        one[0] = 1;
        assert_eq!(negacyclic_mul_ntt(&a, &one, &t), a);
        let zero = vec![0u64; 16];
        assert_eq!(negacyclic_mul_ntt(&a, &zero, &t), zero);
    }

    #[test]
    fn sparse_matches_dense() {
        let t = tables(32, 25);
        let q = t.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let dense: Vec<u64> = (0..32).map(|_| rng.gen_range(0..q)).collect();
        let mut sparse_poly = vec![0u64; 32];
        let entries = [(0usize, 5u64), (7, q - 2), (31, 1)];
        for &(i, v) in &entries {
            sparse_poly[i] = v;
        }
        assert_eq!(
            negacyclic_mul_sparse(&dense, &entries, q),
            negacyclic_mul_naive(&dense, &sparse_poly, q)
        );
    }

    #[test]
    fn prepared_batch_matches_per_polynomial() {
        let t = tables(64, 40);
        let q = t.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let shared: Vec<u64> = (0..64).map(|_| rng.gen_range(0..q)).collect();
        let prepared = PreparedOperand::new(&shared, &t);
        for batch in [0usize, 1, 3, 8, 9] {
            let polys: Vec<u64> = (0..batch * 64).map(|_| rng.gen_range(0..q)).collect();
            let mut got = polys.clone();
            negacyclic_mul_prepared_batch(&mut got, &prepared, &t);
            for b in 0..batch {
                let mut want = vec![0u64; 64];
                negacyclic_mul_ntt_into(&mut want, &polys[b * 64..(b + 1) * 64], &shared, &t);
                assert_eq!(&got[b * 64..(b + 1) * 64], &want[..], "batch={batch} b={b}");
            }
        }
    }

    #[test]
    fn prepared_product_is_reduced_at_a_large_modulus() {
        // The fused lazy chain must normalize even right under the 2^62
        // headroom bound of the lazy butterflies.
        let n = 256;
        let q = ntt_prime(61, n as u64).unwrap();
        let t = NttTables::new(n, q).unwrap();
        let a: Vec<u64> = (0..n as u64).map(|i| q - 1 - i * 37).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| q - 1 - i * 101).collect();
        let mut got = a.clone();
        negacyclic_mul_prepared_batch(&mut got, &PreparedOperand::new(&b, &t), &t);
        assert!(got.iter().all(|&x| x < q));
        assert_eq!(got, negacyclic_mul_ntt(&a, &b, &t));
    }

    #[test]
    fn multiplication_commutes_and_associates() {
        let t = tables(16, 25);
        let q = t.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a: Vec<u64> = (0..16).map(|_| rng.gen_range(0..q)).collect();
        let b: Vec<u64> = (0..16).map(|_| rng.gen_range(0..q)).collect();
        let c: Vec<u64> = (0..16).map(|_| rng.gen_range(0..q)).collect();
        assert_eq!(
            negacyclic_mul_ntt(&a, &b, &t),
            negacyclic_mul_ntt(&b, &a, &t)
        );
        let ab_c = negacyclic_mul_ntt(&negacyclic_mul_ntt(&a, &b, &t), &c, &t);
        let a_bc = negacyclic_mul_ntt(&a, &negacyclic_mul_ntt(&b, &c, &t), &t);
        assert_eq!(ab_c, a_bc);
    }
}
