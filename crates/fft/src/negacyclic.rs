//! Negacyclic polynomial multiplication via the folded FFT.
//!
//! A real polynomial `a ∈ R[X]/(X^N + 1)` is determined on the odd powers
//! of `ω = e^{iπ/N}`; conjugate symmetry leaves `N/2` independent
//! evaluations. Folding `c_j = a_j + i·a_{j+N/2}` and twisting by `ω^j`
//! reduces the transform to an `N/2`-point complex FFT with positive
//! exponent:
//!
//! ```text
//! A_{2u} = Σ_j (a_j + i a_{j+N/2}) ω^j · e^{+2πi u j / (N/2)}
//! ```
//!
//! Point-wise products in this domain realize the negacyclic convolution
//! (Klemsa's extended FT / the classic TFHE trick), which is the paper's
//! Figure 4(b) pipeline and the source of its "N/2-point FFT vs N-point
//! NTT" accounting.

use crate::dft::Direction;
use crate::fft64::FftPlan;
use crate::simd::{self, tile, C64x, F64x, SimdLevel};
use flash_math::bitrev::bit_reverse as bitrev;
use flash_math::modular::center_lift;
use flash_math::C64;
use flash_runtime::{CacheStats, Interner, F64_SCRATCH};
use std::sync::Arc;

flash_runtime::scratch_pool! {
    /// Thread-local `C64` scratch pool shared by every spectrum staging
    /// buffer in the workspace (negacyclic/fixed-point/sparse paths).
    pub static C64_SCRATCH: C64
}

/// A reusable negacyclic FFT plan for ring degree `n`.
#[derive(Debug, Clone)]
pub struct NegacyclicFft {
    n: usize,
    plan: FftPlan,
    /// Twist factors `ω^j = e^{iπ j/N}` for `j` in `0..n/2`.
    twist: Vec<C64>,
    /// Inverse twist factors `ω^{-j}`.
    twist_inv: Vec<C64>,
}

/// Process-wide plan cache: one `NegacyclicFft` per distinct degree.
static SHARED_PLANS: Interner<usize, NegacyclicFft> = Interner::bounded(64);

impl NegacyclicFft {
    /// Creates a plan for degree `n` (a power of two, at least 4).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 4 && n.is_power_of_two(),
            "degree must be a power of two >= 4"
        );
        let half = n / 2;
        let twist: Vec<C64> = (0..half)
            .map(|j| C64::expi(std::f64::consts::PI * j as f64 / n as f64))
            .collect();
        let twist_inv = twist.iter().map(|w| w.conj()).collect();
        Self {
            n,
            plan: FftPlan::new(half),
            twist,
            twist_inv,
        }
    }

    /// Like [`NegacyclicFft::new`], but interned process-wide: every
    /// call with the same degree returns the same `Arc` without
    /// rebuilding twist tables or the FFT plan.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `n` is not a power of two.
    pub fn shared(n: usize) -> Arc<Self> {
        SHARED_PLANS.intern_with(n, |&n| NegacyclicFft::new(n))
    }

    /// Hit/miss counters of the shared per-degree plan cache.
    pub fn shared_cache_stats() -> CacheStats {
        SHARED_PLANS.stats()
    }

    /// Drops all shared plans (outstanding `Arc`s stay valid) and resets
    /// the counters.
    pub fn clear_shared_cache() {
        SHARED_PLANS.clear()
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.n
    }

    /// The underlying `N/2`-point FFT plan (shared with the fixed-point
    /// and sparse executors so all dataflows agree on stage structure).
    #[inline]
    pub fn plan(&self) -> &FftPlan {
        &self.plan
    }

    /// Twist factor `ω^j` for `j < N/2`.
    #[inline]
    pub fn twist(&self, j: usize) -> C64 {
        self.twist[j]
    }

    /// Folds and twists a real polynomial into the complex half vector
    /// `d_j = (a_j + i·a_{j+N/2}) ω^j` — the input of the butterfly
    /// network.
    pub fn fold_twist(&self, a: &[f64]) -> Vec<C64> {
        let mut out = vec![C64::ZERO; self.n / 2];
        self.fold_twist_into(a, &mut out);
        out
    }

    /// [`NegacyclicFft::fold_twist`] into a caller-provided half vector.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N` or `out.len() != N/2`.
    pub fn fold_twist_into(&self, a: &[f64], out: &mut [C64]) {
        assert_eq!(a.len(), self.n, "polynomial length must equal degree");
        let half = self.n / 2;
        assert_eq!(out.len(), half, "output length must be N/2");
        for (j, o) in out.iter_mut().enumerate() {
            *o = C64::new(a[j], a[j + half]) * self.twist[j];
        }
    }

    /// Forward negacyclic transform: `N` real coefficients → `N/2` complex
    /// evaluations at `ω^{4u+1}`.
    pub fn forward(&self, a: &[f64]) -> Vec<C64> {
        let mut d = vec![C64::ZERO; self.n / 2];
        self.forward_into(a, &mut d);
        d
    }

    /// [`NegacyclicFft::forward`] into a caller-provided spectrum buffer
    /// (no allocations).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N` or `out.len() != N/2`.
    pub fn forward_into(&self, a: &[f64], out: &mut [C64]) {
        self.fold_twist_into(a, out);
        self.plan.transform(out, Direction::Positive);
    }

    /// Forward transform of a residue polynomial: fuses the
    /// `u64 → (−q/2, q/2] → f64` center lift into the fold-and-twist
    /// stage, so no staged `f64` buffer is needed. This is the integer
    /// entry point of the lifted ciphertext backends (prime and
    /// power-of-two alike — only the center lift depends on `q`).
    ///
    /// Bit-identical to center-lifting into a buffer and calling
    /// [`NegacyclicFft::forward_into`]: the lift, the fold, and the
    /// twist multiply are the same operations in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N` or `out.len() != N/2`.
    pub fn forward_residues_into(&self, a: &[u64], q: u64, out: &mut [C64]) {
        assert_eq!(a.len(), self.n, "polynomial length must equal degree");
        let half = self.n / 2;
        assert_eq!(out.len(), half, "output length must be N/2");
        for (j, o) in out.iter_mut().enumerate() {
            *o = C64::new(
                center_lift(a[j], q) as f64,
                center_lift(a[j + half], q) as f64,
            ) * self.twist[j];
        }
        self.plan.transform(out, Direction::Positive);
    }

    /// Inverse negacyclic transform: `N/2` complex evaluations → `N` real
    /// coefficients. The spectrum is staged through the scratch pool (the
    /// input slice is left untouched); callers that own a mutable
    /// spectrum should use [`NegacyclicFft::inverse_into`] directly.
    pub fn inverse(&self, spectrum: &[C64]) -> Vec<f64> {
        let mut d = C64_SCRATCH.take_copied(spectrum);
        let mut out = vec![0.0; self.n];
        self.inverse_into(&mut d, &mut out);
        out
    }

    /// In-place inverse transform: consumes the spectrum buffer (its
    /// contents are destroyed) and writes the `N` real coefficients into
    /// `out`. Performs no allocations.
    ///
    /// # Panics
    ///
    /// Panics if `spectrum.len() != N/2` or `out.len() != N`.
    pub fn inverse_into(&self, spectrum: &mut [C64], out: &mut [f64]) {
        let half = self.n / 2;
        assert_eq!(spectrum.len(), half, "spectrum length must be N/2");
        assert_eq!(out.len(), self.n, "output length must equal degree");
        self.plan.transform(spectrum, Direction::Negative);
        let scale = 1.0 / half as f64;
        for j in 0..half {
            let c = spectrum[j].scale(scale) * self.twist_inv[j];
            out[j] = c.re;
            out[j + half] = c.im;
        }
    }

    /// Batched forward transform over `batch = inputs.len() / N`
    /// polynomials stored consecutively in `inputs`; spectrum `l` is
    /// written to `out[l·N/2 .. (l+1)·N/2]`.
    ///
    /// Blocks of `W = flash_runtime::simd::lanes()` polynomials are
    /// transposed into a lane-interleaved SoA scratch buffer and run
    /// through one butterfly cascade (one twiddle load per `W` lanes, see
    /// [`crate::simd`]); remainder lanes are zero-padded. Outputs are
    /// **bit-identical** to `batch` independent
    /// [`NegacyclicFft::forward_into`] calls at every lane width — the
    /// scalar fallback (`W = 1`) literally makes those calls. Performs no
    /// allocations (SoA staging comes from the scratch pool).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a multiple of `N` or
    /// `out.len() != inputs.len() / 2`.
    pub fn forward_batch_into(&self, inputs: &[f64], out: &mut [C64]) {
        let (n, half) = (self.n, self.n / 2);
        assert_eq!(inputs.len() % n, 0, "inputs must be whole polynomials");
        let batch = inputs.len() / n;
        assert_eq!(out.len(), batch * half, "output must hold batch spectra");
        let level = simd::level();
        if level == SimdLevel::Scalar {
            for (a, o) in inputs.chunks_exact(n).zip(out.chunks_exact_mut(half)) {
                self.forward_into(a, o);
            }
            return;
        }
        let w = level.lanes();
        let mut done = 0;
        while done < batch {
            let used = (batch - done).min(w);
            let ins = &inputs[done * n..(done + used) * n];
            let outs = &mut out[done * half..(done + used) * half];
            // Narrow tails take the narrowest kernel that still covers
            // them (see [`SimdLevel::narrowed`]); a single polynomial
            // skips the SoA staging entirely.
            if used == 1 {
                self.forward_into(ins, outs);
            } else {
                match level.narrowed(used) {
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Avx512 => unsafe { self.forward_batch_soa_avx512(ins, used, outs) },
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Avx2 => unsafe { self.forward_batch_soa_avx2(ins, used, outs) },
                    _ => self.forward_batch_soa::<2>(ins, used, outs),
                }
            }
            done += used;
        }
    }

    /// Batched inverse transform: spectrum `l` is read from
    /// `spectra[l·N/2 ..]` (left untouched) and polynomial `l` written to
    /// `out[l·N ..]`. Same SoA batching, zero-padding, bit-identity to
    /// [`NegacyclicFft::inverse_into`], and no-allocation guarantees as
    /// [`NegacyclicFft::forward_batch_into`].
    ///
    /// # Panics
    ///
    /// Panics if `spectra.len()` is not a multiple of `N/2` or
    /// `out.len() != 2 * spectra.len()`.
    pub fn inverse_batch_into(&self, spectra: &[C64], out: &mut [f64]) {
        let (n, half) = (self.n, self.n / 2);
        assert_eq!(spectra.len() % half, 0, "spectra must be whole spectra");
        let batch = spectra.len() / half;
        assert_eq!(out.len(), batch * n, "output must hold batch polynomials");
        let level = simd::level();
        if level == SimdLevel::Scalar {
            let mut d = C64_SCRATCH.take(half);
            for (s, o) in spectra.chunks_exact(half).zip(out.chunks_exact_mut(n)) {
                d.copy_from_slice(s);
                self.inverse_into(&mut d, o);
            }
            return;
        }
        let w = level.lanes();
        let mut done = 0;
        while done < batch {
            let used = (batch - done).min(w);
            let ins = &spectra[done * half..(done + used) * half];
            let outs = &mut out[done * n..(done + used) * n];
            // Narrow tails: same kernel narrowing as the forward path; a
            // single spectrum stages through scratch and runs scalar.
            if used == 1 {
                let mut d = C64_SCRATCH.take_copied(ins);
                self.inverse_into(&mut d, outs);
            } else {
                match level.narrowed(used) {
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Avx512 => unsafe { self.inverse_batch_soa_avx512(ins, used, outs) },
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Avx2 => unsafe { self.inverse_batch_soa_avx2(ins, used, outs) },
                    _ => self.inverse_batch_soa::<2>(ins, used, outs),
                }
            }
            done += used;
        }
    }

    /// SoA forward kernel: `used ≤ W` polynomials from `inputs`
    /// (consecutive, length `N` each) → `used` spectra in `out`. The
    /// fold/twist is fused into the transpose-in (writing slot
    /// `bitrev(j)` replaces the scalar path's explicit permutation).
    #[inline(always)]
    fn forward_batch_soa<const W: usize>(&self, inputs: &[f64], used: usize, out: &mut [C64]) {
        let (n, half) = (self.n, self.n / 2);
        let bits = self.plan.stages();
        let mut soa = F64_SCRATCH.take(half * 2 * W);
        // Tiled transposes: the W polynomial streams sit a power-of-two
        // stride apart, so element-at-a-time column access would
        // conflict-miss on every touch (all streams alias into one
        // cache set). Instead each stream is copied a full 8-element
        // row at a time (contiguous vector moves) and the 8×W corner
        // turn happens in registers via the `simd::tile` shuffle
        // networks — pure data movement, so lane values are untouched.
        let tile = half.min(8);
        #[cfg(target_arch = "x86_64")]
        let fused = W == 8 && tile == 8;
        #[cfg(not(target_arch = "x86_64"))]
        let fused = false;
        if fused {
            // SAFETY: `W = 8` monomorphizations of this kernel only
            // exist inside the `avx512` dispatch wrapper below.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                fused8::forward_in(inputs, n, used, &self.twist, bits, &mut soa)
            };
        } else {
            let mut rre = [[0.0f64; 8]; W];
            let mut rim = [[0.0f64; 8]; W];
            let mut tre = [[0.0f64; W]; 8];
            let mut tim = [[0.0f64; W]; 8];
            for jb in (0..half).step_by(tile) {
                if tile == 8 {
                    for (l, a) in inputs.chunks_exact(n).take(used).enumerate() {
                        tile::prefetch(a, jb + 8);
                        tile::prefetch(a, jb + half + 8);
                        let (re, im) = (&a[jb..jb + 8], &a[jb + half..jb + half + 8]);
                        #[allow(clippy::manual_memcpy)] // per-lane: see `F64x::load`
                        for dj in 0..8 {
                            rre[l][dj] = re[dj];
                            rim[l][dj] = im[dj];
                        }
                    }
                    // SAFETY: `W = 4` monomorphizations of this kernel
                    // only exist inside the matching `#[target_feature]`
                    // wrappers below (see `simd::tile`).
                    unsafe {
                        tile::rows_to_cols::<W>(&rre, &mut tre);
                        tile::rows_to_cols::<W>(&rim, &mut tim);
                    }
                } else {
                    for (l, a) in inputs.chunks_exact(n).take(used).enumerate() {
                        for dj in 0..tile {
                            tre[dj][l] = a[jb + dj];
                            tim[dj][l] = a[jb + dj + half];
                        }
                    }
                }
                for (dj, (re, im)) in tre.iter().zip(&tim).enumerate().take(tile) {
                    let j = jb + dj;
                    // One lane-parallel twist multiply straight out of
                    // the tile registers. `mul_c` has exactly the
                    // `C64::mul` expression shape, so every lane matches
                    // the scalar path's `C64::new(a[j], a[j + half]) * tw`
                    // bit for bit (padding lanes hold zeros, never read
                    // back).
                    C64x::<W> {
                        re: F64x(*re),
                        im: F64x(*im),
                    }
                    .mul_c(self.twist[j])
                    .store_slot(&mut soa, bitrev(j, bits));
                }
            }
        }
        self.plan
            .transform_bitrev_soa::<W>(&mut soa, Direction::Positive);
        if fused {
            // SAFETY: as above — `W = 8` implies `avx512f`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                fused8::forward_out(&soa, half, used, out)
            };
        } else {
            let mut rre = [[0.0f64; 8]; W];
            let mut rim = [[0.0f64; 8]; W];
            let mut tre = [[0.0f64; W]; 8];
            let mut tim = [[0.0f64; W]; 8];
            for jb in (0..half).step_by(tile) {
                for (dj, (re, im)) in tre.iter_mut().zip(&mut tim).enumerate().take(tile) {
                    let slot = &soa[(jb + dj) * 2 * W..][..2 * W];
                    #[allow(clippy::manual_memcpy)] // per-lane: see `F64x::load`
                    for l in 0..W {
                        re[l] = slot[l];
                        im[l] = slot[W + l];
                    }
                }
                if tile == 8 {
                    // SAFETY: as above — lane width implies target
                    // features.
                    unsafe {
                        tile::cols_to_rows::<W>(&tre, &mut rre);
                        tile::cols_to_rows::<W>(&tim, &mut rim);
                        for (l, (rr, ri)) in rre.iter().zip(&rim).enumerate().take(used) {
                            let o = &mut out[l * half + jb..];
                            tile::prefetch(o, 8);
                            tile::prefetch(o, 12);
                            tile::interleave8::<W>(rr, ri, o);
                        }
                    }
                } else {
                    for l in 0..used {
                        for (dj, (re, im)) in tre.iter().zip(&tim).enumerate().take(tile) {
                            out[l * half + jb + dj] = C64::new(re[l], im[l]);
                        }
                    }
                }
            }
        }
    }

    /// SoA inverse kernel: `used ≤ W` spectra → `used` polynomials. The
    /// scale + untwist epilogue runs lane-parallel.
    #[inline(always)]
    fn inverse_batch_soa<const W: usize>(&self, spectra: &[C64], used: usize, out: &mut [f64]) {
        let (n, half) = (self.n, self.n / 2);
        let bits = self.plan.stages();
        let mut soa = F64_SCRATCH.take(half * 2 * W);
        // Same tiled transposes as the forward kernel (see there for
        // why): contiguous row moves plus in-register corner turns.
        let tile = half.min(8);
        #[cfg(target_arch = "x86_64")]
        let fused = W == 8 && tile == 8;
        #[cfg(not(target_arch = "x86_64"))]
        let fused = false;
        if fused {
            // SAFETY: `W = 8` monomorphizations of this kernel only
            // exist inside the `avx512` dispatch wrapper below.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                fused8::inverse_in(spectra, half, used, bits, &mut soa)
            };
        } else {
            let mut rre = [[0.0f64; 8]; W];
            let mut rim = [[0.0f64; 8]; W];
            let mut tre = [[0.0f64; W]; 8];
            let mut tim = [[0.0f64; W]; 8];
            for jb in (0..half).step_by(tile) {
                if tile == 8 {
                    // SAFETY: lane width implies target features — see
                    // `simd::tile` and the dispatch wrappers below.
                    unsafe {
                        for (l, s) in spectra.chunks_exact(half).take(used).enumerate() {
                            tile::prefetch(s, jb + 8);
                            tile::prefetch(s, jb + 12);
                            tile::deinterleave8::<W>(&s[jb..], &mut rre[l], &mut rim[l]);
                        }
                        tile::rows_to_cols::<W>(&rre, &mut tre);
                        tile::rows_to_cols::<W>(&rim, &mut tim);
                    }
                } else {
                    for (l, s) in spectra.chunks_exact(half).take(used).enumerate() {
                        for dj in 0..tile {
                            let c = s[jb + dj];
                            tre[dj][l] = c.re;
                            tim[dj][l] = c.im;
                        }
                    }
                }
                for (dj, (re, im)) in tre.iter().zip(&tim).enumerate().take(tile) {
                    C64x::<W> {
                        re: F64x(*re),
                        im: F64x(*im),
                    }
                    .store_slot(&mut soa, bitrev(jb + dj, bits));
                }
            }
        }
        self.plan
            .transform_bitrev_soa::<W>(&mut soa, Direction::Negative);
        let scale = 1.0 / half as f64;
        if fused {
            // SAFETY: as above — `W = 8` implies `avx512f`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                fused8::inverse_out(&soa, n, used, scale, &self.twist_inv, out)
            };
        } else {
            let mut rre = [[0.0f64; 8]; W];
            let mut rim = [[0.0f64; 8]; W];
            let mut tre = [[0.0f64; W]; 8];
            let mut tim = [[0.0f64; W]; 8];
            for jb in (0..half).step_by(tile) {
                for dj in 0..tile {
                    let j = jb + dj;
                    let c = C64x::<W>::load_slot(&soa, j)
                        .scale(scale)
                        .mul_c(self.twist_inv[j]);
                    tre[dj] = c.re.0;
                    tim[dj] = c.im.0;
                }
                if tile == 8 {
                    // SAFETY: as above — lane width implies target
                    // features.
                    unsafe {
                        tile::cols_to_rows::<W>(&tre, &mut rre);
                        tile::cols_to_rows::<W>(&tim, &mut rim);
                    }
                    for (l, o) in out.chunks_exact_mut(n).take(used).enumerate() {
                        tile::prefetch(o, jb + 8);
                        tile::prefetch(o, jb + half + 8);
                        let (or, oi) = o.split_at_mut(half);
                        let (or, oi) = (&mut or[jb..jb + 8], &mut oi[jb..jb + 8]);
                        #[allow(clippy::manual_memcpy)] // per-lane: see `F64x::load`
                        for dj in 0..8 {
                            or[dj] = rre[l][dj];
                            oi[dj] = rim[l][dj];
                        }
                    }
                } else {
                    for (l, o) in out.chunks_exact_mut(n).take(used).enumerate() {
                        for (dj, (re, im)) in tre.iter().zip(&tim).enumerate().take(tile) {
                            o[jb + dj] = re[l];
                            o[jb + dj + half] = im[l];
                        }
                    }
                }
            }
        }
    }

    /// AVX2 monomorphization of the forward SoA kernel (`W = 4`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 — guaranteed by the [`simd::level`]
    /// dispatch in [`NegacyclicFft::forward_batch_into`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn forward_batch_soa_avx2(&self, inputs: &[f64], used: usize, out: &mut [C64]) {
        self.forward_batch_soa::<4>(inputs, used, out);
    }

    /// AVX-512 monomorphization of the forward SoA kernel (`W = 8`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F/DQ — guaranteed by the dispatch.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn forward_batch_soa_avx512(&self, inputs: &[f64], used: usize, out: &mut [C64]) {
        self.forward_batch_soa::<8>(inputs, used, out);
    }

    /// AVX2 monomorphization of the inverse SoA kernel (`W = 4`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 — guaranteed by the dispatch.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn inverse_batch_soa_avx2(&self, spectra: &[C64], used: usize, out: &mut [f64]) {
        self.inverse_batch_soa::<4>(spectra, used, out);
    }

    /// AVX-512 monomorphization of the inverse SoA kernel (`W = 8`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F/DQ — guaranteed by the dispatch.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn inverse_batch_soa_avx512(&self, spectra: &[C64], used: usize, out: &mut [f64]) {
        self.inverse_batch_soa::<8>(spectra, used, out);
    }

    /// Negacyclic product of two real polynomials in `f64`.
    pub fn polymul_f64(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.polymul_f64_into(a, b, &mut out);
        out
    }

    /// [`NegacyclicFft::polymul_f64`] into a caller-provided buffer; all
    /// spectrum staging comes from the scratch pool (no allocations).
    ///
    /// # Panics
    ///
    /// Panics if any length differs from the ring degree.
    pub fn polymul_f64_into(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        let half = self.n / 2;
        let mut fa = C64_SCRATCH.take(half);
        let mut fb = C64_SCRATCH.take(half);
        self.forward_into(a, &mut fa);
        self.forward_into(b, &mut fb);
        for (x, y) in fa.iter_mut().zip(fb.iter()) {
            *x *= *y;
        }
        self.inverse_into(&mut fa, out);
    }

    /// Negacyclic product of two integer polynomials, rounded to the
    /// nearest integer. Exact whenever the true product coefficients and
    /// intermediate magnitudes stay within `f64`'s 53-bit mantissa
    /// headroom (Klemsa's error-free regime).
    pub fn polymul_i64(&self, a: &[i64], b: &[i64]) -> Vec<i128> {
        assert_eq!(a.len(), self.n, "polynomial length must equal degree");
        assert_eq!(b.len(), self.n, "polynomial length must equal degree");
        let mut af = F64_SCRATCH.take(self.n);
        let mut bf = F64_SCRATCH.take(self.n);
        for (o, &x) in af.iter_mut().zip(a) {
            *o = x as f64;
        }
        for (o, &x) in bf.iter_mut().zip(b) {
            *o = x as f64;
        }
        let mut prod = F64_SCRATCH.take(self.n);
        self.polymul_f64_into(&af, &bf, &mut prod);
        prod.iter().map(|&x| x.round_ties_even() as i128).collect()
    }
}

/// Fully register-resident boundary transposes for the `W = 8`
/// (AVX-512) monomorphization: each tile is loaded straight into
/// `__m512d` registers, corner-turned with the in-register 8×8 shuffle
/// network, twist-multiplied lane-parallel, and stored — no stack
/// staging between the stages. Every lane evaluates exactly the scalar
/// expression sequence (explicit mul/add/sub intrinsics, never FMA), so
/// outputs stay bit-identical to the scalar path; padding lanes hold
/// zeros and are never read back.
///
/// # Safety
///
/// All functions here require `avx512f` and are `#[inline(always)]`
/// without their own `#[target_feature]`: they inherit the features of
/// their caller, and the only callers are `forward_batch_soa::<8>` /
/// `inverse_batch_soa::<8>`, which are instantiated exclusively inside
/// the `avx512f,avx512dq` dispatch wrappers above.
#[cfg(target_arch = "x86_64")]
mod fused8 {
    use crate::simd::tile::{self, x86::tr8x8_regs};
    use core::arch::x86_64::*;
    use flash_math::bitrev::bit_reverse as bitrev;
    use flash_math::C64;

    /// Forward fold + twist + transpose-in: `used` length-`n` polynomial
    /// rows become bit-reverse-scattered SoA slots of 8 lanes each.
    ///
    /// # Safety
    ///
    /// Caller must guarantee `avx512f` (see module docs) and
    /// `used <= 8`; slice geometry is asserted.
    #[inline(always)]
    pub unsafe fn forward_in(
        inputs: &[f64],
        n: usize,
        used: usize,
        twist: &[C64],
        bits: u32,
        soa: &mut [f64],
    ) {
        let half = n / 2;
        assert_eq!(soa.len(), half * 16);
        assert_eq!(twist.len(), half);
        assert!(used <= 8 && used * n <= inputs.len());
        let mut re = [_mm512_setzero_pd(); 8];
        let mut im = [_mm512_setzero_pd(); 8];
        for jb in (0..half).step_by(8) {
            for (l, a) in inputs.chunks_exact(n).take(used).enumerate() {
                tile::prefetch(a, jb + 8);
                tile::prefetch(a, jb + half + 8);
                re[l] = _mm512_loadu_pd(a.as_ptr().add(jb));
                im[l] = _mm512_loadu_pd(a.as_ptr().add(jb + half));
            }
            let tre = tr8x8_regs(re);
            let tim = tr8x8_regs(im);
            for dj in 0..8 {
                let j = jb + dj;
                let w = twist[j];
                let wr = _mm512_set1_pd(w.re);
                let wi = _mm512_set1_pd(w.im);
                // `C64::mul` shape: (re·wr − im·wi, re·wi + im·wr).
                let or = _mm512_sub_pd(_mm512_mul_pd(tre[dj], wr), _mm512_mul_pd(tim[dj], wi));
                let oi = _mm512_add_pd(_mm512_mul_pd(tre[dj], wi), _mm512_mul_pd(tim[dj], wr));
                let p = soa.as_mut_ptr().add(bitrev(j, bits) * 16);
                _mm512_storeu_pd(p, or);
                _mm512_storeu_pd(p.add(8), oi);
            }
        }
    }

    /// Forward transpose-out: natural-order SoA slots back to `used`
    /// interleaved spectrum rows of `half` complex points each.
    ///
    /// # Safety
    ///
    /// Caller must guarantee `avx512f` (see module docs) and
    /// `used <= 8`; slice geometry is asserted.
    #[inline(always)]
    pub unsafe fn forward_out(soa: &[f64], half: usize, used: usize, out: &mut [C64]) {
        assert_eq!(soa.len(), half * 16);
        assert!(used <= 8 && used * half <= out.len());
        let ia = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
        let ib = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
        let mut re = [_mm512_setzero_pd(); 8];
        let mut im = [_mm512_setzero_pd(); 8];
        for jb in (0..half).step_by(8) {
            for dj in 0..8 {
                let p = soa.as_ptr().add((jb + dj) * 16);
                re[dj] = _mm512_loadu_pd(p);
                im[dj] = _mm512_loadu_pd(p.add(8));
            }
            let rr = tr8x8_regs(re);
            let ri = tr8x8_regs(im);
            for (l, (r, i)) in rr.iter().zip(&ri).enumerate().take(used) {
                tile::prefetch(out, l * half + jb + 8);
                tile::prefetch(out, l * half + jb + 12);
                let o: *mut f64 = out.as_mut_ptr().add(l * half + jb).cast();
                let lo = _mm512_unpacklo_pd(*r, *i);
                let hi = _mm512_unpackhi_pd(*r, *i);
                _mm512_storeu_pd(o, _mm512_permutex2var_pd(lo, ia, hi));
                _mm512_storeu_pd(o.add(8), _mm512_permutex2var_pd(lo, ib, hi));
            }
        }
    }

    /// Inverse transpose-in: `used` interleaved spectrum rows become
    /// bit-reverse-scattered SoA slots.
    ///
    /// # Safety
    ///
    /// Caller must guarantee `avx512f` (see module docs) and
    /// `used <= 8`; slice geometry is asserted.
    #[inline(always)]
    pub unsafe fn inverse_in(
        spectra: &[C64],
        half: usize,
        used: usize,
        bits: u32,
        soa: &mut [f64],
    ) {
        assert_eq!(soa.len(), half * 16);
        assert!(used <= 8 && used * half <= spectra.len());
        let ir = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        let ii = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        let mut re = [_mm512_setzero_pd(); 8];
        let mut im = [_mm512_setzero_pd(); 8];
        for jb in (0..half).step_by(8) {
            for (l, s) in spectra.chunks_exact(half).take(used).enumerate() {
                tile::prefetch(s, jb + 8);
                tile::prefetch(s, jb + 12);
                let p: *const f64 = s.as_ptr().add(jb).cast();
                let lo = _mm512_loadu_pd(p);
                let hi = _mm512_loadu_pd(p.add(8));
                re[l] = _mm512_permutex2var_pd(lo, ir, hi);
                im[l] = _mm512_permutex2var_pd(lo, ii, hi);
            }
            let tre = tr8x8_regs(re);
            let tim = tr8x8_regs(im);
            for dj in 0..8 {
                let p = soa.as_mut_ptr().add(bitrev(jb + dj, bits) * 16);
                _mm512_storeu_pd(p, tre[dj]);
                _mm512_storeu_pd(p.add(8), tim[dj]);
            }
        }
    }

    /// Inverse scale + untwist + transpose-out: natural-order SoA slots
    /// back to `used` length-`n` real/imag polynomial rows.
    ///
    /// # Safety
    ///
    /// Caller must guarantee `avx512f` (see module docs) and
    /// `used <= 8`; slice geometry is asserted.
    #[inline(always)]
    pub unsafe fn inverse_out(
        soa: &[f64],
        n: usize,
        used: usize,
        scale: f64,
        twist_inv: &[C64],
        out: &mut [f64],
    ) {
        let half = n / 2;
        assert_eq!(soa.len(), half * 16);
        assert_eq!(twist_inv.len(), half);
        assert!(used <= 8 && used * n <= out.len());
        let sc = _mm512_set1_pd(scale);
        let mut re = [_mm512_setzero_pd(); 8];
        let mut im = [_mm512_setzero_pd(); 8];
        for jb in (0..half).step_by(8) {
            for dj in 0..8 {
                let j = jb + dj;
                let p = soa.as_ptr().add(j * 16);
                // `C64::scale` then `C64::mul`, exactly as the scalar
                // epilogue orders them.
                let sr = _mm512_mul_pd(_mm512_loadu_pd(p), sc);
                let si = _mm512_mul_pd(_mm512_loadu_pd(p.add(8)), sc);
                let w = twist_inv[j];
                let wr = _mm512_set1_pd(w.re);
                let wi = _mm512_set1_pd(w.im);
                re[dj] = _mm512_sub_pd(_mm512_mul_pd(sr, wr), _mm512_mul_pd(si, wi));
                im[dj] = _mm512_add_pd(_mm512_mul_pd(sr, wi), _mm512_mul_pd(si, wr));
            }
            let rr = tr8x8_regs(re);
            let ri = tr8x8_regs(im);
            for (l, o) in out.chunks_exact_mut(n).take(used).enumerate() {
                tile::prefetch(o, jb + 8);
                tile::prefetch(o, jb + half + 8);
                let p = o.as_mut_ptr();
                _mm512_storeu_pd(p.add(jb), rr[l]);
                _mm512_storeu_pd(p.add(jb + half), ri[l]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_math::prime::ntt_prime;
    use rand::{Rng, SeedableRng};

    #[test]
    fn forward_matches_direct_evaluation() {
        let n = 8;
        let plan = NegacyclicFft::new(n);
        let a: Vec<f64> = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let f = plan.forward(&a);
        // F_u should equal a(ω^{4u+1}) with ω = e^{iπ/N}.
        for (u, &fu) in f.iter().enumerate() {
            let x = C64::expi(std::f64::consts::PI * (4 * u + 1) as f64 / n as f64);
            let mut val = C64::ZERO;
            let mut xp = C64::ONE;
            for &c in &a {
                val += xp.scale(c);
                xp *= x;
            }
            assert!((fu - val).abs() < 1e-9, "u={u}: {fu} vs {val}");
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let n = 64;
        let plan = NegacyclicFft::new(n);
        let a: Vec<f64> = (0..n).map(|i| ((i * i) % 23) as f64 - 11.0).collect();
        let back = plan.inverse(&plan.forward(&a));
        for (x, y) in a.iter().zip(&back) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        let n = 8;
        let plan = NegacyclicFft::new(n);
        // X^7 * X = -1
        let mut a = vec![0i64; n];
        a[7] = 1;
        let mut b = vec![0i64; n];
        b[1] = 1;
        let c = plan.polymul_i64(&a, &b);
        assert_eq!(c[0], -1);
        assert!(c[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn fused_residue_forward_is_bit_identical_to_staged_lift() {
        let n = 256usize;
        let plan = NegacyclicFft::new(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1F7);
        for q in [ntt_prime(36, n as u64).unwrap(), 1u64 << 62] {
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let staged: Vec<f64> = a.iter().map(|&x| center_lift(x, q) as f64).collect();
            let mut want = vec![C64::ZERO; n / 2];
            plan.forward_into(&staged, &mut want);
            let mut got = vec![C64::ZERO; n / 2];
            plan.forward_residues_into(&a, q, &mut got);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.re.to_bits(), w.re.to_bits(), "q={q}");
                assert_eq!(g.im.to_bits(), w.im.to_bits(), "q={q}");
            }
        }
    }

    #[test]
    fn float_product_matches_schoolbook() {
        let n = 16;
        let plan = NegacyclicFft::new(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let got = plan.polymul_f64(&a, &b);
        for (k, &gk) in got.iter().enumerate() {
            let mut want = 0.0;
            for (i, &ai) in a.iter().enumerate() {
                for (j, &bj) in b.iter().enumerate() {
                    if (i + j) % n == k {
                        let sign = if i + j >= n { -1.0 } else { 1.0 };
                        want += sign * ai * bj;
                    }
                }
            }
            assert!((gk - want).abs() < 1e-8, "k={k}");
        }
    }
}
