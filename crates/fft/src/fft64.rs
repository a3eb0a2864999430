//! Iterative radix-2 Cooley–Tukey FFT over `f64` complex numbers.
//!
//! This is the full-precision dataflow of Figure 3: bit-reverse the input,
//! then `log2 m` stages of CT butterflies. The same stage structure is
//! reused by the fixed-point simulator and the sparse µop-tape compiler,
//! so the twiddle indexing here is the reference for both.

use crate::dft::Direction;
use flash_math::bitrev::{bit_reverse_permute, log2_exact};
use flash_math::C64;

/// A reusable FFT plan for a fixed size `m` (power of two).
#[derive(Debug, Clone)]
pub struct FftPlan {
    m: usize,
    log_m: u32,
    /// `e^{+2πi j/m}` for `j` in `0..m/2` — negated on the fly for the
    /// negative direction.
    roots_pos: Vec<C64>,
}

impl FftPlan {
    /// Creates a plan for `m`-point transforms.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a power of two or `m < 2`.
    pub fn new(m: usize) -> Self {
        let log_m = log2_exact(m);
        assert!(m >= 2, "FFT size must be at least 2");
        let roots_pos = (0..m / 2)
            .map(|j| C64::expi(2.0 * std::f64::consts::PI * j as f64 / m as f64))
            .collect();
        Self {
            m,
            log_m,
            roots_pos,
        }
    }

    /// Transform size.
    #[inline]
    pub fn size(&self) -> usize {
        self.m
    }

    /// Number of butterfly stages (`log2 m`).
    #[inline]
    pub fn stages(&self) -> u32 {
        self.log_m
    }

    /// The twiddle `e^{sign·2πi j/m}` for `j < m/2`.
    #[inline]
    pub fn root(&self, j: usize, dir: Direction) -> C64 {
        let w = self.roots_pos[j];
        match dir {
            Direction::Positive => w,
            Direction::Negative => w.conj(),
        }
    }

    /// In-place FFT (no normalization). Input in natural order, output in
    /// natural order (an internal bit-reverse permutation is applied).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.size()`.
    pub fn transform(&self, data: &mut [C64], dir: Direction) {
        assert_eq!(data.len(), self.m, "data length must equal plan size");
        bit_reverse_permute(data);
        self.transform_bitrev_input(data, dir);
    }

    /// In-place FFT over *already bit-reversed* input — the raw butterfly
    /// cascade of Figure 3, used directly by the accelerator model where
    /// the permutation is free address wiring.
    pub fn transform_bitrev_input(&self, data: &mut [C64], dir: Direction) {
        assert_eq!(data.len(), self.m, "data length must equal plan size");
        let m = self.m;
        let mut len = 2usize; // butterfly block size at this stage
        while len <= m {
            let half = len / 2;
            let stride = m / len; // twiddle index stride
            for block in (0..m).step_by(len) {
                for j in 0..half {
                    let w = self.root(j * stride, dir);
                    let u = data[block + j];
                    let v = data[block + j + half] * w;
                    data[block + j] = u + v;
                    data[block + j + half] = u - v;
                }
            }
            len *= 2;
        }
    }

    /// The butterfly cascade of [`FftPlan::transform_bitrev_input`] over a
    /// lane-interleaved SoA batch: `soa` holds `m` slots of `W` complex
    /// lanes (`[re × W | im × W]` per slot, see [`crate::simd`]), already
    /// bit-reverse permuted along the slot axis. One twiddle load serves
    /// all `W` lanes; per lane the arithmetic sequence is exactly the
    /// scalar cascade, so outputs are bit-identical to `W` independent
    /// scalar transforms.
    ///
    /// Kept `inline(always)` so the `#[target_feature]` dispatch wrappers
    /// in `negacyclic.rs` monomorphize it *inside* their feature scope and
    /// the lane loops vectorize at the dispatched width.
    ///
    /// # Panics
    ///
    /// Panics if `soa.len() != 2 * W * self.size()`.
    /// One unfused butterfly stage at block size `len` over SoA slots.
    #[inline(always)]
    fn soa_stage<const W: usize>(&self, soa: &mut [f64], len: usize, dir: Direction) {
        use crate::simd::C64x;
        let m = self.m;
        let half = len / 2;
        let stride = m / len;
        for block in (0..m).step_by(len) {
            for j in 0..half {
                let w = self.root(j * stride, dir);
                let u = C64x::<W>::load_slot(soa, block + j);
                let v = C64x::<W>::load_slot(soa, block + j + half).mul_c(w);
                u.add(v).store_slot(soa, block + j);
                u.sub(v).store_slot(soa, block + j + half);
            }
        }
    }

    /// Two fused stages (`len`, `2·len`) over SoA slots: four slots per
    /// group stay in registers across both stages.
    #[inline(always)]
    fn soa_stage_pair<const W: usize>(&self, soa: &mut [f64], len: usize, dir: Direction) {
        use crate::simd::C64x;
        let m = self.m;
        let half = len / 2;
        let stride1 = m / len;
        let stride2 = m / (2 * len);
        for block in (0..m).step_by(2 * len) {
            for j in 0..half {
                let w1 = self.root(j * stride1, dir);
                // Stage `len`, both sub-blocks (they share `w1`).
                let a0 = C64x::<W>::load_slot(soa, block + j);
                let b0 = C64x::<W>::load_slot(soa, block + j + half).mul_c(w1);
                let u0 = a0.add(b0);
                let v0 = a0.sub(b0);
                let a1 = C64x::<W>::load_slot(soa, block + len + j);
                let b1 = C64x::<W>::load_slot(soa, block + len + j + half).mul_c(w1);
                let u1 = a1.add(b1);
                let v1 = a1.sub(b1);
                // Stage `2·len`: `(j, j+len)` and `(j+half, j+half+len)`.
                let t0 = u1.mul_c(self.root(j * stride2, dir));
                u0.add(t0).store_slot(soa, block + j);
                u0.sub(t0).store_slot(soa, block + len + j);
                let t1 = v1.mul_c(self.root((j + half) * stride2, dir));
                v0.add(t1).store_slot(soa, block + j + half);
                v0.sub(t1).store_slot(soa, block + len + j + half);
            }
        }
    }

    /// Three fused stages (`len`, `2·len`, `4·len`) over SoA slots: eight
    /// slots per group stay in registers across all three stages.
    #[inline(always)]
    fn soa_stage_triple<const W: usize>(&self, soa: &mut [f64], len: usize, dir: Direction) {
        use crate::simd::C64x;
        let m = self.m;
        let half = len / 2;
        let stride1 = m / len;
        let stride2 = m / (2 * len);
        let stride3 = m / (4 * len);
        for block in (0..m).step_by(4 * len) {
            for j in 0..half {
                // Stage `len`: four sub-blocks, all sharing `w1`.
                let w1 = self.root(j * stride1, dir);
                let (mut s, mut t) = ([C64x::<W>::zero(); 4], [C64x::<W>::zero(); 4]);
                for k in 0..4 {
                    let a = C64x::<W>::load_slot(soa, block + k * len + j);
                    let b = C64x::<W>::load_slot(soa, block + k * len + j + half).mul_c(w1);
                    s[k] = a.add(b);
                    t[k] = a.sub(b);
                }
                // Stage `2·len`: pairs `(s0,s1)`, `(s2,s3)` at index `j`
                // and `(t0,t1)`, `(t2,t3)` at index `j + half`.
                let w2a = self.root(j * stride2, dir);
                let w2b = self.root((j + half) * stride2, dir);
                let (u0, u1) = (s[0], s[1].mul_c(w2a));
                let (p0, p2) = (u0.add(u1), u0.sub(u1));
                let (u2, u3) = (s[2], s[3].mul_c(w2a));
                let (p4, p6) = (u2.add(u3), u2.sub(u3));
                let (v0, v1) = (t[0], t[1].mul_c(w2b));
                let (p1, p3) = (v0.add(v1), v0.sub(v1));
                let (v2, v3) = (t[2], t[3].mul_c(w2b));
                let (p5, p7) = (v2.add(v3), v2.sub(v3));
                // Stage `4·len`: pairs at indices `j`, `j+half`, `j+len`,
                // `j+len+half`.
                let q = p4.mul_c(self.root(j * stride3, dir));
                p0.add(q).store_slot(soa, block + j);
                p0.sub(q).store_slot(soa, block + 2 * len + j);
                let q = p5.mul_c(self.root((j + half) * stride3, dir));
                p1.add(q).store_slot(soa, block + j + half);
                p1.sub(q).store_slot(soa, block + 2 * len + j + half);
                let q = p6.mul_c(self.root((j + len) * stride3, dir));
                p2.add(q).store_slot(soa, block + len + j);
                p2.sub(q).store_slot(soa, block + 3 * len + j);
                let q = p7.mul_c(self.root((j + len + half) * stride3, dir));
                p3.add(q).store_slot(soa, block + len + j + half);
                p3.sub(q).store_slot(soa, block + 3 * len + j + half);
            }
        }
    }

    /// The SoA buffer is `W×` a single transform, so unlike the scalar
    /// cascade it lives in L2, and every stage pays a full read+write
    /// sweep of it. Stages are therefore fused — in triples (radix-2³)
    /// with a pair/single prologue to absorb `log2 m mod 3` — cutting
    /// the sweeps from `log2 m` to about a third. Per lane the
    /// expression tree is unchanged: each fused stage consumes exactly
    /// the values the unfused stage would have stored, so outputs stay
    /// bit-identical to the scalar cascade.
    #[inline(always)]
    pub fn transform_bitrev_soa<const W: usize>(&self, soa: &mut [f64], dir: Direction) {
        let m = self.m;
        assert_eq!(soa.len(), 2 * W * m, "SoA batch must hold m slots");
        let mut len = 2usize;
        let mut rem = self.log_m;
        if rem % 3 == 1 {
            self.soa_stage::<W>(soa, len, dir);
            len *= 2;
            rem -= 1;
        } else if rem % 3 == 2 {
            self.soa_stage_pair::<W>(soa, len, dir);
            len *= 4;
            rem -= 2;
        }
        while rem > 0 {
            self.soa_stage_triple::<W>(soa, len, dir);
            len *= 8;
            rem -= 3;
        }
    }

    /// Convenience: forward transform (negative exponent) of a copy.
    pub fn forward(&self, data: &[C64]) -> Vec<C64> {
        let mut v = data.to_vec();
        self.transform(&mut v, Direction::Negative);
        v
    }

    /// Convenience: unnormalized inverse (positive exponent) of a copy.
    /// Divide by `m` to invert [`FftPlan::forward`].
    pub fn backward(&self, data: &[C64]) -> Vec<C64> {
        let mut v = data.to_vec();
        self.transform(&mut v, Direction::Positive);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_naive_dft_both_directions() {
        for m in [2usize, 4, 8, 32, 128] {
            let plan = FftPlan::new(m);
            let x: Vec<C64> = (0..m)
                .map(|i| C64::new((i as f64 * 0.3).sin(), (i as f64 * 1.7).cos()))
                .collect();
            for dir in [Direction::Negative, Direction::Positive] {
                let fast = {
                    let mut v = x.clone();
                    plan.transform(&mut v, dir);
                    v
                };
                let slow = dft(&x, dir);
                assert!(max_err(&fast, &slow) < 1e-9, "m={m} dir={dir:?}");
            }
        }
    }

    #[test]
    fn forward_backward_roundtrip() {
        let m = 256;
        let plan = FftPlan::new(m);
        let x: Vec<C64> = (0..m)
            .map(|i| C64::new(i as f64, -(i as f64) / 3.0))
            .collect();
        let y = plan.forward(&x);
        let z: Vec<C64> = plan
            .backward(&y)
            .iter()
            .map(|v| v.scale(1.0 / m as f64))
            .collect();
        assert!(max_err(&x, &z) < 1e-9);
    }

    #[test]
    fn convolution_theorem_cyclic() {
        // Cyclic convolution via FFT matches the schoolbook result.
        let m = 16;
        let plan = FftPlan::new(m);
        let a: Vec<f64> = (0..m).map(|i| (i as f64 * 0.9).sin()).collect();
        let b: Vec<f64> = (0..m).map(|i| (i as f64 * 0.4).cos()).collect();
        let fa = plan.forward(&a.iter().map(|&x| C64::from(x)).collect::<Vec<_>>());
        let fb = plan.forward(&b.iter().map(|&x| C64::from(x)).collect::<Vec<_>>());
        let prod: Vec<C64> = fa.iter().zip(&fb).map(|(x, y)| *x * *y).collect();
        let c: Vec<C64> = plan
            .backward(&prod)
            .iter()
            .map(|v| v.scale(1.0 / m as f64))
            .collect();
        for k in 0..m {
            let mut want = 0.0;
            for i in 0..m {
                want += a[i] * b[(m + k - i) % m];
            }
            assert!((c[k].re - want).abs() < 1e-9);
            assert!(c[k].im.abs() < 1e-9);
        }
    }

    #[test]
    fn bitrev_entry_point_consistent() {
        let m = 64;
        let plan = FftPlan::new(m);
        let x: Vec<C64> = (0..m)
            .map(|i| C64::new((i * i) as f64 % 17.0, 0.0))
            .collect();
        let via_natural = plan.forward(&x);
        let mut pre = x.clone();
        flash_math::bitrev::bit_reverse_permute(&mut pre);
        plan.transform_bitrev_input(&mut pre, Direction::Negative);
        assert!(max_err(&via_natural, &pre) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "plan size")]
    fn wrong_length_panics() {
        let plan = FftPlan::new(8);
        let mut v = vec![C64::ZERO; 4];
        plan.transform(&mut v, Direction::Negative);
    }
}
