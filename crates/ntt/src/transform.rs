//! In-place negacyclic NTT transforms with lazy reduction.
//!
//! The forward transform is the merged Cooley–Tukey negacyclic NTT
//! (Longa–Naehrig formulation): the multiplication by ψ-powers that turns
//! a cyclic NTT into a negacyclic one is folded into the butterfly
//! twiddles. The inverse uses Gentleman–Sande butterflies with ψ⁻¹ powers
//! and a final scaling by `N⁻¹`.
//!
//! Both directions use **Harvey lazy reduction**: butterflies keep
//! residues in `[0, 2q)` (inverse) / `[0, 4q)` (forward) via
//! [`Shoup::mul_lazy`] instead of fully reducing every intermediate, and
//! a single normalization at the end brings the result back to `[0, q)`.
//! The Shoup constants are unchanged and the output is bit-identical to
//! the eager formulation — only the per-butterfly compare-subtracts are
//! saved. This requires `q < 2^62` (four residues must fit in a `u64`),
//! which [`NttTables`](crate::tables::NttTables) already guarantees.
//!
//! Outputs of [`forward`] are in bit-reversed order; [`inverse`] consumes
//! bit-reversed order and returns natural order, so
//! `inverse(forward(a)) == a` without explicit permutation — exactly how
//! hardware pipelines chain the two.

use crate::tables::NttTables;
use flash_math::modular::{add_mod, Shoup};
use flash_runtime::simd::{self, SimdLevel};
use flash_runtime::U64_SCRATCH;

/// Forward Cooley–Tukey butterfly cascade over a lane-interleaved buffer:
/// `soa` holds `n` coefficient slots of `lanes` polynomials each
/// (`soa[j·lanes + l]` = coefficient `j` of polynomial `l`), so one Shoup
/// twiddle drives `t·lanes` *contiguous* elements — the compare/add/sub
/// portion of the Harvey butterfly vectorizes and the `u128` multiplies
/// pipeline. `lanes == 1` is exactly the scalar transform. Leaves
/// residues in `[0, 4q)`; callers normalize.
///
/// Every operation is exact modular integer arithmetic, so any lane
/// count produces bit-identical results.
#[inline(always)]
fn forward_butterflies(soa: &mut [u64], lanes: usize, tables: &NttTables) {
    let n = tables.degree();
    debug_assert_eq!(soa.len(), n * lanes);
    let q = tables.modulus();
    debug_assert!(q < 1 << 62, "lazy reduction needs 4q to fit in u64");
    let two_q = 2 * q;
    let mut t = n;
    let mut m = 1;
    while m < n {
        t /= 2;
        let span = t * lanes;
        for i in 0..m {
            let s = tables.psi_rev(m + i);
            let base = 2 * i * span;
            let (us, vs) = soa[base..base + 2 * span].split_at_mut(span);
            for (up, vp) in us.iter_mut().zip(vs.iter_mut()) {
                // Lazy CT butterfly: inputs are in [0, 4q); u is pulled
                // back to [0, 2q) and v = s·a[j+t] lands in [0, 2q) for
                // any unreduced operand, so both outputs stay in [0, 4q).
                let mut u = *up;
                if u >= two_q {
                    u -= two_q;
                }
                let v = s.mul_lazy(*vp, q);
                *up = u + v;
                *vp = u + two_q - v;
            }
        }
        m *= 2;
    }
}

/// Inverse Gentleman–Sande butterfly cascade over the same lane layout as
/// [`forward_butterflies`]; leaves residues unnormalized (the caller's
/// `N⁻¹` Shoup multiply fully reduces).
#[inline(always)]
fn inverse_butterflies(soa: &mut [u64], lanes: usize, tables: &NttTables) {
    let n = tables.degree();
    debug_assert_eq!(soa.len(), n * lanes);
    let q = tables.modulus();
    debug_assert!(q < 1 << 62, "lazy reduction needs 4q to fit in u64");
    let two_q = 2 * q;
    let mut t = 1;
    let mut m = n;
    while m > 1 {
        let h = m / 2;
        let span = t * lanes;
        let mut base = 0;
        for i in 0..h {
            let s = tables.psi_inv_rev(h + i);
            let (us, vs) = soa[base..base + 2 * span].split_at_mut(span);
            for (up, vp) in us.iter_mut().zip(vs.iter_mut()) {
                // Lazy GS butterfly with the [0, 2q) invariant: the sum is
                // folded back below 2q, the difference (shifted into
                // [0, 4q)) re-enters [0, 2q) through the lazy multiply.
                let u = *up;
                let v = *vp;
                let mut sum = u + v;
                if sum >= two_q {
                    sum -= two_q;
                }
                *up = sum;
                *vp = s.mul_lazy(u + two_q - v, q);
            }
            base += 2 * span;
        }
        t *= 2;
        m = h;
    }
}

/// Final normalization `[0, 4q) → [0, q)` after the forward cascade.
#[inline(always)]
fn normalize_forward(soa: &mut [u64], q: u64) {
    let two_q = 2 * q;
    for x in soa.iter_mut() {
        let mut v = *x;
        if v >= two_q {
            v -= two_q;
        }
        if v >= q {
            v -= q;
        }
        *x = v;
    }
}

/// `N⁻¹` scaling epilogue of the inverse; the eager Shoup multiply fully
/// reduces any `u64` operand, so it doubles as the normalization.
#[inline(always)]
fn normalize_inverse(soa: &mut [u64], tables: &NttTables) {
    let q = tables.modulus();
    let n_inv = tables.n_inv();
    for x in soa.iter_mut() {
        *x = n_inv.mul(*x, q);
    }
}

/// In-place forward negacyclic NTT (Cooley–Tukey, natural input →
/// bit-reversed output).
///
/// # Panics
///
/// Panics if `a.len()` differs from the table degree.
pub fn forward(a: &mut [u64], tables: &NttTables) {
    let n = tables.degree();
    assert_eq!(a.len(), n, "input length must equal ring degree");
    forward_butterflies(a, 1, tables);
    normalize_forward(a, tables.modulus());
}

/// In-place inverse negacyclic NTT (Gentleman–Sande, bit-reversed input →
/// natural output), including the `N⁻¹` scaling.
///
/// # Panics
///
/// Panics if `a.len()` differs from the table degree.
pub fn inverse(a: &mut [u64], tables: &NttTables) {
    let n = tables.degree();
    assert_eq!(a.len(), n, "input length must equal ring degree");
    inverse_butterflies(a, 1, tables);
    normalize_inverse(a, tables);
}

/// AVX2 monomorphization of the full forward SoA pipeline.
///
/// # Safety
///
/// The CPU must support AVX2 (guaranteed by the `simd::level` dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn forward_lanes_avx2(soa: &mut [u64], lanes: usize, tables: &NttTables) {
    forward_butterflies(soa, lanes, tables);
    normalize_forward(soa, tables.modulus());
}

/// AVX-512 monomorphization of the full forward SoA pipeline.
///
/// # Safety
///
/// The CPU must support AVX-512F/DQ (guaranteed by the dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn forward_lanes_avx512(soa: &mut [u64], lanes: usize, tables: &NttTables) {
    forward_butterflies(soa, lanes, tables);
    normalize_forward(soa, tables.modulus());
}

/// AVX2 monomorphization of the full inverse SoA pipeline.
///
/// # Safety
///
/// The CPU must support AVX2 (guaranteed by the dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn inverse_lanes_avx2(soa: &mut [u64], lanes: usize, tables: &NttTables) {
    inverse_butterflies(soa, lanes, tables);
    normalize_inverse(soa, tables);
}

/// AVX-512 monomorphization of the full inverse SoA pipeline.
///
/// # Safety
///
/// The CPU must support AVX-512F/DQ (guaranteed by the dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn inverse_lanes_avx512(soa: &mut [u64], lanes: usize, tables: &NttTables) {
    inverse_butterflies(soa, lanes, tables);
    normalize_inverse(soa, tables);
}

/// Shared driver for the batched transforms: chunk the batch into blocks
/// of `W = simd::lanes()`, transpose each block into a lane-interleaved
/// SoA scratch buffer, run one butterfly cascade over all lanes, and
/// transpose back. Lane count is the *actual* block width (no zero
/// padding needed — modular arithmetic has no remainder-lane hazards).
fn batch_lanes<S, F>(polys: &mut [u64], tables: &NttTables, scalar: S, run: F)
where
    S: Fn(&mut [u64], &NttTables),
    F: Fn(&mut [u64], usize, &NttTables, SimdLevel),
{
    let n = tables.degree();
    assert_eq!(
        polys.len() % n,
        0,
        "batch length must be a multiple of the ring degree"
    );
    let batch = polys.len() / n;
    let level = simd::level();
    let w = level.lanes();
    if w == 1 || batch < 2 {
        for chunk in polys.chunks_exact_mut(n) {
            scalar(chunk, tables);
        }
        return;
    }
    let mut soa = U64_SCRATCH.take(n * w);
    let mut done = 0;
    while done < batch {
        let used = (batch - done).min(w);
        let chunk = &mut polys[done * n..(done + used) * n];
        if used == 1 {
            scalar(chunk, tables);
        } else {
            let soa = &mut soa[..n * used];
            for j in 0..n {
                for l in 0..used {
                    soa[j * used + l] = chunk[l * n + j];
                }
            }
            run(soa, used, tables, level);
            for j in 0..n {
                for l in 0..used {
                    chunk[l * n + j] = soa[j * used + l];
                }
            }
        }
        done += used;
    }
}

/// Batched in-place forward NTT over `polys.len() / n` consecutive
/// polynomials. Blocks of `W = flash_runtime::simd::lanes()` polynomials
/// share one butterfly cascade in lane-interleaved layout (one twiddle
/// per `t·W` contiguous residues); outputs are **bit-identical** to
/// per-polynomial [`forward`] calls at every lane width.
///
/// # Panics
///
/// Panics if `polys.len()` is not a multiple of the table degree.
pub fn forward_batch(polys: &mut [u64], tables: &NttTables) {
    batch_lanes(
        polys,
        tables,
        forward,
        |soa, lanes, tables, level| match level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => unsafe { forward_lanes_avx512(soa, lanes, tables) },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { forward_lanes_avx2(soa, lanes, tables) },
            _ => {
                forward_butterflies(soa, lanes, tables);
                normalize_forward(soa, tables.modulus());
            }
        },
    );
}

/// Batched in-place inverse NTT; same batching, layout, and bit-identity
/// contract as [`forward_batch`].
///
/// # Panics
///
/// Panics if `polys.len()` is not a multiple of the table degree.
pub fn inverse_batch(polys: &mut [u64], tables: &NttTables) {
    batch_lanes(
        polys,
        tables,
        inverse,
        |soa, lanes, tables, level| match level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => unsafe { inverse_lanes_avx512(soa, lanes, tables) },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { inverse_lanes_avx2(soa, lanes, tables) },
            _ => {
                inverse_butterflies(soa, lanes, tables);
                normalize_inverse(soa, tables);
            }
        },
    );
}

/// Fused `INTT(NTT(x) ⊙ ŝ)` over a lane-interleaved buffer (same layout
/// as [`forward_butterflies`]) against a transform-domain operand whose
/// Shoup constants already carry the `N⁻¹` scaling. The whole chain
/// stays lazy — the forward cascade leaves `[0, 4q)`, the Shoup product
/// maps any operand into `[0, 2q)`, which is exactly the inverse
/// cascade's input invariant — and one compare-subtract at the end
/// normalizes to `[0, q)`.
#[inline(always)]
fn mul_prepared_lanes(soa: &mut [u64], lanes: usize, spectrum: &[Shoup], tables: &NttTables) {
    let q = tables.modulus();
    forward_butterflies(soa, lanes, tables);
    for (slot, s) in soa.chunks_exact_mut(lanes).zip(spectrum) {
        for x in slot {
            *x = s.mul_lazy(*x, q);
        }
    }
    inverse_butterflies(soa, lanes, tables);
    for x in soa.iter_mut() {
        if *x >= q {
            *x -= q;
        }
    }
}

/// # Safety
///
/// The CPU must support AVX2 (guaranteed by the dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_prepared_lanes_avx2(
    soa: &mut [u64],
    lanes: usize,
    spectrum: &[Shoup],
    tables: &NttTables,
) {
    mul_prepared_lanes(soa, lanes, spectrum, tables);
}

/// # Safety
///
/// The CPU must support AVX-512F/DQ (guaranteed by the dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn mul_prepared_lanes_avx512(
    soa: &mut [u64],
    lanes: usize,
    spectrum: &[Shoup],
    tables: &NttTables,
) {
    mul_prepared_lanes(soa, lanes, spectrum, tables);
}

/// Batched in-place negacyclic products of `polys.len() / n` polynomials
/// against one prepared operand: the kernel behind
/// [`crate::polymul::negacyclic_mul_prepared_batch`]. Each block of `W`
/// polynomials is transposed into lane layout once and runs forward →
/// Shoup point-wise → inverse there, so a product costs two transforms
/// and two transposes instead of three and four; a batch of one is the
/// scalar (`lanes == 1`) instance of the same kernel.
pub(crate) fn mul_prepared_batch(polys: &mut [u64], spectrum: &[Shoup], tables: &NttTables) {
    assert_eq!(
        spectrum.len(),
        tables.degree(),
        "prepared operand length must equal ring degree"
    );
    batch_lanes(
        polys,
        tables,
        |poly, tables| mul_prepared_lanes(poly, 1, spectrum, tables),
        |soa, lanes, tables, level| match level {
            // SAFETY: `level` comes from `simd::level()`, which never
            // reports a tier the CPU lacks.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => unsafe { mul_prepared_lanes_avx512(soa, lanes, spectrum, tables) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { mul_prepared_lanes_avx2(soa, lanes, spectrum, tables) },
            _ => mul_prepared_lanes(soa, lanes, spectrum, tables),
        },
    );
}

/// Point-wise product of two NTT-domain vectors (the "point-wise
/// multiplication" unit of the accelerator).
///
/// Allocates the result; on hot paths prefer [`pointwise_mul_assign`] or
/// [`pointwise_mul_into`], which reuse existing storage.
///
/// # Panics
///
/// Panics on length mismatch with the tables.
pub fn pointwise_mul(a: &[u64], b: &[u64], tables: &NttTables) -> Vec<u64> {
    let n = tables.degree();
    assert_eq!(a.len(), n);
    assert_eq!(b.len(), n);
    let q = tables.modulus();
    a.iter()
        .zip(b)
        .map(|(&x, &y)| flash_math::modular::mul_mod(x, y, q))
        .collect()
}

/// In-place point-wise product: `a[i] = a[i] · b[i] mod q`.
///
/// # Panics
///
/// Panics on length mismatch with the tables.
pub fn pointwise_mul_assign(a: &mut [u64], b: &[u64], tables: &NttTables) {
    let n = tables.degree();
    assert_eq!(a.len(), n);
    assert_eq!(b.len(), n);
    let q = tables.modulus();
    for (x, &y) in a.iter_mut().zip(b) {
        *x = flash_math::modular::mul_mod(*x, y, q);
    }
}

/// Point-wise product written into a caller-provided buffer:
/// `out[i] = a[i] · b[i] mod q`.
///
/// # Panics
///
/// Panics on length mismatch with the tables.
pub fn pointwise_mul_into(out: &mut [u64], a: &[u64], b: &[u64], tables: &NttTables) {
    let n = tables.degree();
    assert_eq!(out.len(), n);
    assert_eq!(a.len(), n);
    assert_eq!(b.len(), n);
    let q = tables.modulus();
    for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = flash_math::modular::mul_mod(x, y, q);
    }
}

/// Accumulating point-wise multiply-add: `acc += a ⊙ b` in the NTT domain.
pub fn pointwise_mul_acc(acc: &mut [u64], a: &[u64], b: &[u64], tables: &NttTables) {
    let n = tables.degree();
    assert_eq!(acc.len(), n);
    assert_eq!(a.len(), n);
    assert_eq!(b.len(), n);
    let q = tables.modulus();
    for i in 0..n {
        acc[i] = add_mod(acc[i], flash_math::modular::mul_mod(a[i], b[i], q), q);
    }
}

/// Lazy structure-of-arrays Shoup form of [`pointwise_mul_acc`]:
/// `acc[i] += a[i] · w[i]` with the Shoup constants split into plain
/// (`w`) and precomputed (`w_shoup`) streams and **no reductions at
/// all** — each call grows every accumulator entry by less than `2q`
/// (Harvey's lazy product bound), and the caller reduces once at the
/// end (e.g. [`flash_math::modular::Barrett::reduce_slice`]).
///
/// The split layout feeds the vectorizer contiguous full-width loads
/// instead of interleaved `(w, w')` pairs, and dropping the per-element
/// compare-subtracts shortens the lane dependency chains; together with
/// the deferred reduction this is the fastest MAC form for a modulus
/// with headroom.
///
/// The caller owns the overflow budget: at most
/// `⌊(2^64 − 1) / 2q⌋` calls may target the same accumulator between
/// reductions. Reducing afterwards recovers exactly the value the
/// eager form computes — the unreduced entry is the true integer sum.
///
/// # Panics
///
/// Panics on length mismatch with the tables.
pub fn pointwise_mul_acc_shoup_lazy(
    acc: &mut [u64],
    a: &[u64],
    w: &[u64],
    w_shoup: &[u64],
    tables: &NttTables,
) {
    let n = tables.degree();
    assert_eq!(acc.len(), n);
    assert_eq!(a.len(), n);
    assert_eq!(w.len(), n);
    assert_eq!(w_shoup.len(), n);
    let q = tables.modulus();
    match simd::level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { acc_shoup_lazy_avx512(acc, a, w, w_shoup, q) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { acc_shoup_lazy_avx2(acc, a, w, w_shoup, q) },
        _ => acc_shoup_lazy_scalar(acc, a, w, w_shoup, q),
    }
}

/// Shared loop of the [`pointwise_mul_acc_shoup_lazy`] dispatch targets;
/// the body is [`Shoup::mul_lazy`] inlined over split streams.
#[inline(always)]
fn acc_shoup_lazy_scalar(acc: &mut [u64], a: &[u64], w: &[u64], w_shoup: &[u64], q: u64) {
    for i in 0..acc.len() {
        let ai = a[i];
        let hi = ((w_shoup[i] as u128 * ai as u128) >> 64) as u64;
        let r = w[i].wrapping_mul(ai).wrapping_sub(hi.wrapping_mul(q));
        acc[i] = acc[i].wrapping_add(r);
    }
}

/// # Safety
///
/// The CPU must support AVX2 (guaranteed by the dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn acc_shoup_lazy_avx2(acc: &mut [u64], a: &[u64], w: &[u64], w_shoup: &[u64], q: u64) {
    acc_shoup_lazy_scalar(acc, a, w, w_shoup, q);
}

/// # Safety
///
/// The CPU must support AVX-512F/DQ (guaranteed by the dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn acc_shoup_lazy_avx512(acc: &mut [u64], a: &[u64], w: &[u64], w_shoup: &[u64], q: u64) {
    acc_shoup_lazy_scalar(acc, a, w, w_shoup, q);
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_math::modular::{mul_mod, pow_mod};
    use flash_math::prime::ntt_prime;

    fn tables(n: usize, bits: u32) -> NttTables {
        let q = ntt_prime(bits, n as u64).unwrap();
        NttTables::new(n, q).unwrap()
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [4usize, 8, 64, 1024] {
            let t = tables(n, 30);
            let q = t.modulus();
            let mut a: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % q).collect();
            let orig = a.clone();
            forward(&mut a, &t);
            assert_ne!(a, orig, "transform should change the vector");
            inverse(&mut a, &t);
            assert_eq!(a, orig);
        }
    }

    #[test]
    fn outputs_are_fully_normalized() {
        // Lazy reduction must not leak unreduced residues: every output
        // of forward and inverse sits in [0, q), even at a large modulus
        // near the 2^62 headroom bound.
        let n = 256;
        let q = ntt_prime(61, n as u64).unwrap();
        let t = NttTables::new(n, q).unwrap();
        let mut a: Vec<u64> = (0..n as u64)
            .map(|i| (q - 1).wrapping_sub(i * 37) % q)
            .collect();
        forward(&mut a, &t);
        assert!(a.iter().all(|&x| x < q), "forward must normalize");
        inverse(&mut a, &t);
        assert!(a.iter().all(|&x| x < q), "inverse must normalize");
    }

    #[test]
    fn transform_is_linear() {
        let t = tables(16, 30);
        let q = t.modulus();
        let a: Vec<u64> = (0..16).map(|i| (i * i + 1) % q).collect();
        let b: Vec<u64> = (0..16).map(|i| (i * 31 + 5) % q).collect();
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| add_mod(x, y, q)).collect();

        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        forward(&mut fa, &t);
        forward(&mut fb, &t);
        forward(&mut fs, &t);
        for i in 0..16 {
            assert_eq!(fs[i], add_mod(fa[i], fb[i], q));
        }
    }

    #[test]
    fn forward_evaluates_at_odd_psi_powers() {
        // The negacyclic NTT evaluates a(X) at X = ψ^(2k+1). Check against
        // direct evaluation for a small case.
        let n = 8usize;
        let t = tables(n, 20);
        let q = t.modulus();
        let psi = t.psi();
        let a: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let mut f = a.clone();
        forward(&mut f, &t);
        // Output index j (bit-reversed order) holds a(ψ^{2*bitrev(j)+1}).
        assert_eq!(f.len(), n);
        for (j, &fj) in f.iter().enumerate() {
            let k = flash_math::bitrev::bit_reverse(j, 3);
            let x = pow_mod(psi, (2 * k + 1) as u64, q);
            let mut val = 0u64;
            let mut xp = 1u64;
            for &c in &a {
                val = add_mod(val, mul_mod(c, xp, q), q);
                xp = mul_mod(xp, x, q);
            }
            assert_eq!(fj, val, "output {j}");
        }
    }

    #[test]
    fn pointwise_ops() {
        let t = tables(8, 20);
        let q = t.modulus();
        let a = vec![1u64, 2, 3, 4, 5, 6, 7, 8];
        let b = vec![2u64; 8];
        let p = pointwise_mul(&a, &b, &t);
        assert_eq!(p, vec![2, 4, 6, 8, 10, 12, 14, 16]);
        let mut acc = vec![1u64; 8];
        pointwise_mul_acc(&mut acc, &a, &b, &t);
        for (i, &ai) in acc.iter().enumerate() {
            assert_eq!(ai, (1 + 2 * (i as u64 + 1)) % q);
        }
    }

    #[test]
    fn lazy_shoup_macs_match_eager_after_reduction() {
        // Several stacked lazy MACs, reduced once at the end, must equal
        // the eager per-call-reduced chain bit for bit.
        let t = tables(64, 30);
        let q = t.modulus();
        let mut x = 9u64;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x % q
        };
        let rounds = 8;
        let mut acc_eager: Vec<u64> = (0..64).map(|_| next()).collect();
        let mut acc_lazy = acc_eager.clone();
        for _ in 0..rounds {
            let a: Vec<u64> = (0..64).map(|_| next()).collect();
            let w: Vec<u64> = (0..64).map(|_| next()).collect();
            // The raw precomputed constants, via Shoup::new's formula.
            let w_shoup: Vec<u64> = w
                .iter()
                .map(|&v| (((v as u128) << 64) / q as u128) as u64)
                .collect();
            pointwise_mul_acc(&mut acc_eager, &a, &w, &t);
            pointwise_mul_acc_shoup_lazy(&mut acc_lazy, &a, &w, &w_shoup, &t);
        }
        let br = flash_math::modular::Barrett::new(q);
        br.reduce_slice(&mut acc_lazy);
        assert_eq!(acc_eager, acc_lazy);
    }

    #[test]
    fn pointwise_variants_agree() {
        let t = tables(16, 25);
        let q = t.modulus();
        let a: Vec<u64> = (0..16).map(|i| (i * 977 + 13) % q).collect();
        let b: Vec<u64> = (0..16).map(|i| (i * 31 + 5) % q).collect();
        let want = pointwise_mul(&a, &b, &t);
        let mut into = vec![0u64; 16];
        pointwise_mul_into(&mut into, &a, &b, &t);
        assert_eq!(into, want);
        let mut assign = a.clone();
        pointwise_mul_assign(&mut assign, &b, &t);
        assert_eq!(assign, want);
    }

    #[test]
    #[should_panic(expected = "ring degree")]
    fn length_mismatch_panics() {
        let t = tables(8, 20);
        let mut a = vec![0u64; 4];
        forward(&mut a, &t);
    }
}
