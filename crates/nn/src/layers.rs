//! Convolution layer specifications and integer reference execution.

use crate::quant::Quantizer;
use flash_he::encoding::{pad_input, ConvShape, StrideFold};
use rand::Rng;

/// A convolution layer of a quantized network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvLayerSpec {
    /// Human-readable name (e.g. `"layer2.0.conv1"`).
    pub name: String,
    /// Input channels.
    pub c: usize,
    /// Input height (pre-padding).
    pub h: usize,
    /// Input width (pre-padding).
    pub w: usize,
    /// Output channels.
    pub m: usize,
    /// Kernel size.
    pub k: usize,
    /// Stride (1 or 2 in ResNets).
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
}

impl ConvLayerSpec {
    /// Output `(height, width)`: [`pool_out_dims`]'s window rule.
    ///
    /// # Panics
    ///
    /// Panics when the stride is zero or the kernel is larger than the
    /// padded input.
    fn out_dims(&self) -> (usize, usize) {
        window_out_dims("convolution", self.h, self.w, self.k, self.stride, self.pad)
    }

    /// Output height.
    ///
    /// # Panics
    ///
    /// Where [`pool_out_dims`] does: a zero stride, or a kernel larger
    /// than the padded input.
    pub fn out_h(&self) -> usize {
        self.out_dims().0
    }

    /// Output width.
    ///
    /// # Panics
    ///
    /// Where [`pool_out_dims`] does.
    pub fn out_w(&self) -> usize {
        self.out_dims().1
    }

    /// Multiply-accumulates of the cleartext convolution.
    pub fn macs(&self) -> u64 {
        (self.m * self.c * self.k * self.k * self.out_h() * self.out_w()) as u64
    }

    /// Number of weight values.
    pub fn weight_count(&self) -> usize {
        self.m * self.c * self.k * self.k
    }

    /// The fold of this layer over its padded input: the identity at
    /// stride 1, phase channels at stride 2 (see [`StrideFold`]).
    ///
    /// # Panics
    ///
    /// Panics for strides other than 1 and 2.
    pub fn fold(&self) -> StrideFold {
        let padded = ConvShape {
            c: self.c,
            h: self.h + 2 * self.pad,
            w: self.w + 2 * self.pad,
            m: self.m,
            k: self.k,
        };
        StrideFold::new(padded, self.stride)
    }

    /// The stride-1 [`ConvShape`] this layer encodes to: the padded
    /// input, folded into `min(k, 2)²` phase channels per input channel
    /// at stride 2. Every ciphertext count of the layer follows from it.
    ///
    /// # Panics
    ///
    /// Panics for strides other than 1 and 2.
    pub fn encoded_shape(&self) -> ConvShape {
        self.fold().shape()
    }

    /// Samples realistic quantized weights for this layer.
    pub fn sample_weights<R: Rng>(&self, q: Quantizer, rng: &mut R) -> Vec<i64> {
        (0..self.weight_count()).map(|_| q.sample(rng)).collect()
    }

    /// Samples a quantized input activation tensor.
    pub fn sample_input<R: Rng>(&self, q: Quantizer, rng: &mut R) -> Vec<i64> {
        (0..self.c * self.h * self.w)
            .map(|_| q.sample(rng))
            .collect()
    }
}

/// Integer reference convolution with stride and padding.
pub fn conv_reference(x: &[i64], f: &[i64], spec: &ConvLayerSpec) -> Vec<i64> {
    assert_eq!(x.len(), spec.c * spec.h * spec.w, "input size mismatch");
    assert_eq!(f.len(), spec.weight_count(), "weight size mismatch");
    let xp = pad_input(x, spec.c, spec.h, spec.w, spec.pad);
    let (hp, wp) = (spec.h + 2 * spec.pad, spec.w + 2 * spec.pad);
    let (oh, ow) = (spec.out_h(), spec.out_w());
    let mut y = vec![0i64; spec.m * oh * ow];
    for oc in 0..spec.m {
        for p in 0..oh {
            for q in 0..ow {
                let mut acc = 0i64;
                for c in 0..spec.c {
                    for i in 0..spec.k {
                        for j in 0..spec.k {
                            let xv = xp[(c * hp + p * spec.stride + i) * wp + q * spec.stride + j];
                            let fv = f[((oc * spec.c + c) * spec.k + i) * spec.k + j];
                            acc += xv * fv;
                        }
                    }
                }
                y[(oc * oh + p) * ow + q] = acc;
            }
        }
    }
    y
}

/// Output `(height, width)` of a `k×k` window sliding with `stride` over
/// an `h×w` plane zero-padded by `pad` on every side:
/// `(h + 2·pad − k)/stride + 1` per axis.
///
/// # Panics
///
/// Panics when `stride` is zero or the window is larger than the padded
/// plane (`k > h + 2·pad` or `k > w + 2·pad`).
pub fn pool_out_dims(h: usize, w: usize, k: usize, stride: usize, pad: usize) -> (usize, usize) {
    window_out_dims("pooling", h, w, k, stride, pad)
}

/// The one window-geometry rule of pooling and convolution; `what` names
/// the layer kind in the panic messages.
fn window_out_dims(
    what: &str,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> (usize, usize) {
    assert!(stride > 0, "{what} stride must be positive");
    assert!(
        k <= h.min(w) + 2 * pad,
        "{what} window {k} exceeds the padded {h}x{w} plane (pad {pad})"
    );
    (
        (h + 2 * pad - k) / stride + 1,
        (w + 2 * pad - k) / stride + 1,
    )
}

/// Plaintext max-pooling reference. Out-of-bounds (padded) positions
/// contribute 0 — the after-ReLU identity, matching the secure pooling's
/// window rule.
///
/// # Panics
///
/// Panics when the input length does not match `c·h·w`, and where
/// [`pool_out_dims`] does.
pub fn maxpool_reference(
    x: &[i64],
    (c, h, w): (usize, usize, usize),
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<i64> {
    assert_eq!(x.len(), c * h * w, "input size mismatch");
    let (oh, ow) = pool_out_dims(h, w, k, stride, pad);
    let mut out = Vec::with_capacity(c * oh * ow);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = i64::MIN;
                for dy in 0..k {
                    for dx in 0..k {
                        let iy = (oy * stride + dy) as isize - pad as isize;
                        let ix = (ox * stride + dx) as isize - pad as isize;
                        let v = if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                            x[(ch * h + iy as usize) * w + ix as usize]
                        } else {
                            0
                        };
                        best = best.max(v);
                    }
                }
                out.push(best);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn spec(c: usize, h: usize, k: usize, stride: usize, pad: usize) -> ConvLayerSpec {
        ConvLayerSpec {
            name: "test".into(),
            c,
            h,
            w: h,
            m: 2,
            k,
            stride,
            pad,
        }
    }

    #[test]
    fn output_dims() {
        // the classic "same" 3x3: 8x8 stays 8x8
        let s = spec(1, 8, 3, 1, 1);
        assert_eq!((s.out_h(), s.out_w()), (8, 8));
        // stride 2 halves
        let s = spec(1, 8, 3, 2, 1);
        assert_eq!((s.out_h(), s.out_w()), (4, 4));
        // 7x7/2 pad 3 on 224 -> 112 (ResNet conv1)
        let s = spec(3, 224, 7, 2, 3);
        assert_eq!(s.out_h(), 112);
    }

    #[test]
    #[should_panic(expected = "convolution window 5 exceeds the padded 2x2 plane (pad 0)")]
    fn conv_output_dims_name_an_oversized_kernel() {
        // Unchecked, (2 + 0 − 5)/1 + 1 wrapped to 2^64 − 2 in release.
        spec(1, 2, 5, 1, 0).out_h();
    }

    #[test]
    #[should_panic(expected = "convolution stride must be positive")]
    fn conv_output_dims_name_a_zero_stride() {
        spec(1, 8, 3, 0, 1).out_w();
    }

    #[test]
    fn macs_counting() {
        let s = spec(4, 8, 3, 1, 1);
        assert_eq!(s.macs(), (2 * 4 * 9 * 64) as u64);
    }

    #[test]
    fn conv_reference_identity_kernel() {
        // 1x1 kernel of value 1 reproduces the input channel-summed.
        let s = ConvLayerSpec {
            name: "id".into(),
            c: 1,
            h: 4,
            w: 4,
            m: 1,
            k: 1,
            stride: 1,
            pad: 0,
        };
        let x: Vec<i64> = (0..16).collect();
        let y = conv_reference(&x, &[1], &s);
        assert_eq!(y, x);
    }

    #[test]
    fn conv_reference_matches_stride1_oracle() {
        let s = spec(2, 6, 3, 1, 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = s.sample_input(Quantizer::a4(), &mut rng);
        let f = s.sample_weights(Quantizer::w4(), &mut rng);
        let shape = ConvShape {
            c: 2,
            h: 6,
            w: 6,
            m: 2,
            k: 3,
        };
        assert_eq!(
            conv_reference(&x, &f, &s),
            flash_he::encoding::direct_conv_stride1(&x, &f, &shape)
        );
    }

    #[test]
    fn pool_out_dims_of_the_resnet_stem_pool() {
        // 3×3/2 pad 1: 112 -> 56, and an odd plane rounds down
        assert_eq!(pool_out_dims(112, 112, 3, 2, 1), (56, 56));
        assert_eq!(pool_out_dims(7, 5, 3, 2, 1), (4, 3));
        // the window may fill the padded plane exactly
        assert_eq!(pool_out_dims(2, 2, 4, 1, 1), (1, 1));
    }

    #[test]
    #[should_panic(expected = "pooling window 5 exceeds the padded 2x4 plane (pad 1)")]
    fn maxpool_reference_names_an_oversized_window() {
        maxpool_reference(&[0; 8], (1, 2, 4), 5, 1, 1);
    }

    #[test]
    #[should_panic(expected = "pooling stride must be positive")]
    fn maxpool_reference_names_a_zero_stride() {
        maxpool_reference(&[0; 4], (1, 2, 2), 2, 0, 0);
    }

    #[test]
    fn encoded_shape_for_strides() {
        let s1 = spec(2, 8, 3, 1, 1);
        assert_eq!(
            s1.encoded_shape(),
            ConvShape {
                c: 2,
                h: 10,
                w: 10,
                m: 2,
                k: 3
            }
        );
        // four phase channels per input channel
        let s2 = spec(2, 8, 3, 2, 1);
        assert_eq!(
            s2.encoded_shape(),
            ConvShape {
                c: 8,
                h: 5,
                w: 5,
                m: 2,
                k: 2
            }
        );
        // a 1x1 downsample keeps phase (0, 0) alone
        let ds = spec(2, 8, 1, 2, 0);
        assert_eq!(
            ds.encoded_shape(),
            ConvShape {
                c: 2,
                h: 4,
                w: 4,
                m: 2,
                k: 1
            }
        );
    }
}
