//! Cheetah-style coefficient encoding of convolutions.
//!
//! Tensors map directly onto polynomial coefficients (Figure 2 of the
//! paper): for a stride-1 valid convolution of a `C×H×W` activation with a
//! `M×C×k×k` kernel, one input tile places
//!
//! * activation `x[c][i][j]` at coefficient `c·CS + i·RS + j`, and
//! * weight `f[c][i][j]` (one output channel) at coefficient
//!   `(C−1−c)·CS + (k−1−i)·RS + (k−1−j)`;
//!
//! the negacyclic product then carries output `y[p][q]` at coefficient
//! `(C−1)·CS + (p+k−1)·RS + (q+k−1)`. Here `RS` (row stride) and `CS`
//! (channel stride) are at least `W` and `H·RS` respectively. Only
//! `C·k²` of the coefficients are non-zero — the extreme sparsity FLASH
//! exploits (Figure 7).
//!
//! Two layouts are provided:
//!
//! * [`TileAlignment::Compact`] — `RS = W`, `CS = H·W` (Cheetah's dense
//!   packing; minimal ciphertext count).
//! * [`TileAlignment::PowerOfTwo`] — `RS` and `CS` rounded up to powers of
//!   two. This is the layout FLASH's sparse dataflow assumes ("when H and
//!   W are powers of two … data originally located at multiples of H×W
//!   become contiguous after bit-reverse"): weight coefficients land on
//!   power-of-two arithmetic progressions, which the butterfly network
//!   skips almost entirely. The price is a (usually small) increase in
//!   the number of tiles.
//!
//! When `C·CS > N` the convolution is tiled: channels are grouped
//! (`⌊N/CS⌋` per ciphertext) and, when even one channel's image overflows
//! `N`, rows are split into overlapping spatial bands. Partial products
//! along the channel-group axis accumulate homomorphically; bands and
//! output channels are independent ciphertexts.
//!
//! A stride-2 layer is not a separate protocol: [`StrideFold`] rewrites
//! it as one stride-1 convolution over *phase channels*. Phase `(α, β)`
//! of input channel `c` holds the pixels at rows `2i + α`, columns
//! `2j + β`, and meets the kernel taps at the same parities, so the sum
//! over phases — the stride-2 output — is just more channels of the
//! homomorphic channel accumulation above.

use std::fmt;

/// Shape of a stride-1 valid convolution (inputs already padded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub c: usize,
    /// Input height (after padding).
    pub h: usize,
    /// Input width (after padding).
    pub w: usize,
    /// Output channels.
    pub m: usize,
    /// Kernel size `k×k`.
    pub k: usize,
}

impl ConvShape {
    /// Output height `H − k + 1`.
    pub fn out_h(&self) -> usize {
        self.h - self.k + 1
    }

    /// Output width `W − k + 1`.
    pub fn out_w(&self) -> usize {
        self.w - self.k + 1
    }

    /// Elements in one input tensor.
    pub fn input_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Elements in one kernel (single output channel).
    pub fn kernel_len(&self) -> usize {
        self.c * self.k * self.k
    }

    /// Elements in the output tensor.
    pub fn output_len(&self) -> usize {
        self.m * self.out_h() * self.out_w()
    }
}

impl fmt::Display for ConvShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{} -> {} ch, {}x{} kernel",
            self.c, self.h, self.w, self.m, self.k, self.k
        )
    }
}

/// Coefficient-layout policy of the encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TileAlignment {
    /// Dense Cheetah packing (`RS = W`, `CS = rows·W`).
    #[default]
    Compact,
    /// Power-of-two row/channel strides (FLASH's sparse-dataflow layout).
    PowerOfTwo,
}

/// One tile of the tiled convolution: a channel range × a row band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSpec {
    /// First input channel of the group.
    pub c0: usize,
    /// Channels in this group (zero-padded up to the layout's group size).
    pub c_len: usize,
    /// First input row of the band.
    pub row0: usize,
    /// Input rows in the band (`rows_out + k − 1`).
    pub rows_in: usize,
    /// First *output* row this band produces.
    pub out_row0: usize,
    /// Output rows this band produces.
    pub rows_out: usize,
}

/// The tiling plan of one convolution into degree-`n` polynomials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvEncoder {
    shape: ConvShape,
    n: usize,
    alignment: TileAlignment,
    /// Row stride (`≥ w`).
    row_stride: usize,
    /// Channels per ciphertext (groups are zero-padded to this).
    cg: usize,
    /// Channel groups.
    groups: usize,
    /// Row bands: `(row0, rows_in, out_row0, rows_out)`.
    bands: Vec<(usize, usize, usize, usize)>,
}

impl ConvEncoder {
    /// Plans a compact (Cheetah-layout) tiling of `shape` into ring
    /// degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if even `k` input rows of one channel exceed `n`, if
    /// `k > min(h, w)`, or `n` is not a power of two.
    pub fn new(shape: ConvShape, n: usize) -> Self {
        Self::with_alignment(shape, n, TileAlignment::Compact)
    }

    /// Plans a tiling with the given layout policy.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ConvEncoder::new`] (with the aligned row
    /// stride for [`TileAlignment::PowerOfTwo`]).
    pub fn with_alignment(shape: ConvShape, n: usize, alignment: TileAlignment) -> Self {
        assert!(n.is_power_of_two(), "ring degree must be a power of two");
        assert!(
            shape.k <= shape.h && shape.k <= shape.w,
            "kernel larger than input"
        );
        let row_stride = match alignment {
            TileAlignment::Compact => shape.w,
            TileAlignment::PowerOfTwo => shape.w.next_power_of_two(),
        };
        assert!(
            shape.k * row_stride <= n,
            "even a single k-row band of one channel exceeds the ring degree"
        );
        let full_cs = Self::chan_stride_for(shape.h, row_stride, alignment);
        let (cg, bands) = if full_cs <= n {
            // Channel grouping, full spatial extent per tile.
            let cg = (n / full_cs).min(shape.c);
            (cg, vec![(0, shape.h, 0, shape.out_h())])
        } else {
            // Single channel per tile, overlapping row bands.
            let rows_in_max = n / row_stride;
            let rows_out_per_band = rows_in_max - shape.k + 1;
            let mut bands = Vec::new();
            let mut out_row = 0;
            while out_row < shape.out_h() {
                let rows_out = rows_out_per_band.min(shape.out_h() - out_row);
                let rows_in = rows_out + shape.k - 1;
                bands.push((out_row, rows_in, out_row, rows_out));
                out_row += rows_out;
            }
            (1, bands)
        };
        let groups = shape.c.div_ceil(cg);
        Self {
            shape,
            n,
            alignment,
            row_stride,
            cg,
            groups,
            bands,
        }
    }

    fn chan_stride_for(rows: usize, row_stride: usize, alignment: TileAlignment) -> usize {
        let base = rows * row_stride;
        match alignment {
            TileAlignment::Compact => base,
            TileAlignment::PowerOfTwo => base.next_power_of_two(),
        }
    }

    /// The convolution shape being encoded.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// Ring degree.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// The layout policy.
    pub fn alignment(&self) -> TileAlignment {
        self.alignment
    }

    /// Row stride (`≥ w`; a power of two under
    /// [`TileAlignment::PowerOfTwo`]).
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// Channel groups (partial products accumulate across this axis).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Channels per group (zero-padded).
    pub fn channels_per_group(&self) -> usize {
        self.cg
    }

    /// Row bands (independent ciphertexts along this axis).
    pub fn bands(&self) -> usize {
        self.bands.len()
    }

    /// Activation polynomials the client sends: `groups × bands`.
    pub fn activation_polys(&self) -> usize {
        self.groups * self.bands.len()
    }

    /// Weight polynomials the server encodes: `groups × out-channels`
    /// (bands share weights).
    pub fn weight_polys(&self) -> usize {
        self.groups * self.shape.m
    }

    /// Result ciphertexts: `bands × out-channels`.
    pub fn result_polys(&self) -> usize {
        self.bands.len() * self.shape.m
    }

    /// `(row_stride, chan_stride)` of band `b`.
    fn strides(&self, band: usize) -> (usize, usize) {
        let rows_in = self.bands[band].1;
        (
            self.row_stride,
            Self::chan_stride_for(rows_in, self.row_stride, self.alignment),
        )
    }

    /// Row geometry of band `b` as a [`TileSpec`] with the full channel
    /// group (callers needing per-group specs combine with
    /// [`ConvEncoder::groups`]).
    pub fn band_spec(&self, b: usize) -> TileSpec {
        let (row0, rows_in, out_row0, rows_out) = self.bands[b];
        TileSpec {
            c0: 0,
            c_len: self.cg,
            row0,
            rows_in,
            out_row0,
            rows_out,
        }
    }

    /// Encodes the activation tensor (`c·h·w` row-major) into
    /// `groups × bands` polynomials of length `n`, indexed
    /// `[g * bands + b]`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input size.
    pub fn encode_activation(&self, x: &[i64]) -> Vec<Vec<i64>> {
        let s = &self.shape;
        assert_eq!(x.len(), s.input_len(), "activation size mismatch");
        let mut out = Vec::with_capacity(self.activation_polys());
        for g in 0..self.groups {
            for (b, &(row0, rows_in, _, _)) in self.bands.iter().enumerate() {
                let (rs, cs) = self.strides(b);
                let mut poly = vec![0i64; self.n];
                for cc in 0..self.cg {
                    let c = g * self.cg + cc;
                    if c >= s.c {
                        break; // zero padding of the last group
                    }
                    for i in 0..rows_in {
                        for j in 0..s.w {
                            let src = (c * s.h + (row0 + i)) * s.w + j;
                            poly[cc * cs + i * rs + j] = x[src];
                        }
                    }
                }
                out.push(poly);
            }
        }
        out
    }

    /// Encodes the kernel of output channel `oc` (`c·k·k` row-major) into
    /// per-group, per-band polynomials (`[group][band] -> poly`; bands
    /// with differing heights have different channel strides, hence the
    /// band axis).
    ///
    /// # Panics
    ///
    /// Panics if `f.len()` differs from the kernel size.
    pub fn encode_weight(&self, f: &[i64], oc: usize) -> Vec<Vec<Vec<i64>>> {
        let s = &self.shape;
        assert_eq!(f.len(), s.kernel_len(), "kernel size mismatch");
        assert!(oc < s.m, "output channel out of range");
        let mut per_group = Vec::with_capacity(self.groups);
        for g in 0..self.groups {
            let mut per_band = Vec::with_capacity(self.bands.len());
            for b in 0..self.bands.len() {
                let (rs, cs) = self.strides(b);
                let mut poly = vec![0i64; self.n];
                for cc in 0..self.cg {
                    let c = g * self.cg + cc;
                    if c >= s.c {
                        break;
                    }
                    for i in 0..s.k {
                        for j in 0..s.k {
                            let src = (c * s.k + i) * s.k + j;
                            let idx = (self.cg - 1 - cc) * cs + (s.k - 1 - i) * rs + (s.k - 1 - j);
                            poly[idx] = f[src];
                        }
                    }
                }
                per_band.push(poly);
            }
            per_group.push(per_band);
        }
        per_group
    }

    /// The non-zero coefficient indices of a weight polynomial for band
    /// `b` — the sparsity pattern FLASH's dataflow consumes. Independent
    /// of the weight values (zero weights would only increase sparsity).
    pub fn weight_indices(&self, b: usize) -> Vec<usize> {
        let s = &self.shape;
        let (rs, cs) = self.strides(b);
        let channels = self.cg.min(s.c);
        let mut idx = Vec::with_capacity(channels * s.k * s.k);
        for cc in 0..channels {
            for i in 0..s.k {
                for j in 0..s.k {
                    idx.push((self.cg - 1 - cc) * cs + (s.k - 1 - i) * rs + (s.k - 1 - j));
                }
            }
        }
        idx.sort_unstable();
        idx
    }

    /// The slice of the `m·out_h·out_w` row-major output tensor that band
    /// `b` of output channel `oc` produces: its `rows_out` output rows,
    /// which are contiguous.
    pub fn band_output_range(&self, b: usize, oc: usize) -> std::ops::Range<usize> {
        let s = &self.shape;
        let (_, _, out_row0, rows_out) = self.bands[b];
        let start = (oc * s.out_h() + out_row0) * s.out_w();
        start..start + rows_out * s.out_w()
    }

    /// The product-polynomial coefficient of every output of band `b`, in
    /// the order [`ConvEncoder::decode_band_rows`] writes them: the only
    /// coefficients of a response a decoder reads.
    pub fn band_positions(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        let s = &self.shape;
        let (rs, cs) = self.strides(b);
        let (_, _, _, rows_out) = self.bands[b];
        (0..rows_out).flat_map(move |p| {
            let idx = (self.cg - 1) * cs + (p + s.k - 1) * rs + (s.k - 1);
            idx..idx + s.out_w()
        })
    }

    /// Extracts the outputs of band `b` from the (group-accumulated)
    /// product polynomial of one output channel into `rows`, the band's
    /// own `rows_out × out_w` block ([`ConvEncoder::band_output_range`]
    /// of any channel). Generic over the coefficient type: signed
    /// products in the plain-integer pipeline, `Z_t` residues when the
    /// output is a secret share.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches.
    pub fn decode_band_rows<T: Copy>(&self, prod: &[T], b: usize, rows: &mut [T]) {
        let s = &self.shape;
        assert_eq!(prod.len(), self.n, "product polynomial length mismatch");
        let (_, _, _, rows_out) = self.bands[b];
        assert_eq!(rows.len(), rows_out * s.out_w(), "band block size mismatch");
        for (r, i) in rows.iter_mut().zip(self.band_positions(b)) {
            *r = prod[i];
        }
    }

    /// [`ConvEncoder::decode_band_rows`] into the band's place in the
    /// full output tensor `y` (`m·out_h·out_w` row-major); only the
    /// band's own rows are touched.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches.
    pub fn decode_band<T: Copy>(&self, prod: &[T], b: usize, oc: usize, y: &mut [T]) {
        assert_eq!(
            y.len(),
            self.shape.output_len(),
            "output tensor size mismatch"
        );
        self.decode_band_rows(prod, b, &mut y[self.band_output_range(b, oc)]);
    }
}

/// Reference stride-1 valid convolution over `i64` (the correctness
/// oracle for the encoding).
pub fn direct_conv_stride1(x: &[i64], f: &[i64], shape: &ConvShape) -> Vec<i64> {
    let s = shape;
    assert_eq!(x.len(), s.input_len());
    assert_eq!(f.len(), s.m * s.kernel_len());
    let (oh, ow) = (s.out_h(), s.out_w());
    let mut y = vec![0i64; s.m * oh * ow];
    for oc in 0..s.m {
        for p in 0..oh {
            for q in 0..ow {
                let mut acc = 0i64;
                for c in 0..s.c {
                    for i in 0..s.k {
                        for j in 0..s.k {
                            let xv = x[(c * s.h + p + i) * s.w + q + j];
                            let fv = f[((oc * s.c + c) * s.k + i) * s.k + j];
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

/// Zero-pads a `c×h×w` tensor by `pad` on each spatial side. Any
/// coefficient type: signed values, or ring elements of a secret share
/// (zero is a share of zero).
pub fn pad_input<T: Copy + Default>(x: &[T], c: usize, h: usize, w: usize, pad: usize) -> Vec<T> {
    assert_eq!(x.len(), c * h * w);
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let mut out = vec![T::default(); c * hp * wp];
    for cc in 0..c {
        for i in 0..h {
            for j in 0..w {
                out[(cc * hp + i + pad) * wp + j + pad] = x[(cc * h + i) * w + j];
            }
        }
    }
    out
}

/// A stride-1 or stride-2 convolution over a padded input, folded into
/// one stride-1 convolution over phase channels.
///
/// At stride 2 the folded shape has `P·c` channels of `⌈h/2⌉ × ⌈w/2⌉`
/// and a `⌈k/2⌉` kernel, where `P = min(k, 2)²` counts the phases whose
/// kernel sub-grid holds at least one tap: a phase without taps is
/// dropped, so a 1×1 kernel keeps phase `(0, 0)` alone. Channels are
/// phase-major (`phase·c + channel`, phases in `(α, β)` row order), and
/// cells past an odd edge are zero. At stride 1 the fold is the identity.
///
/// The folded convolution's output holds the strided one in its top-left
/// corner; [`StrideFold::crop`] cuts it out. Only an even `k` over an
/// odd padded size leaves an extra row/column to cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideFold {
    padded: ConvShape,
    stride: usize,
}

impl StrideFold {
    /// Plans the fold of a convolution over the padded input `padded`.
    ///
    /// # Panics
    ///
    /// Panics for strides other than 1 and 2.
    pub fn new(padded: ConvShape, stride: usize) -> Self {
        assert!(matches!(stride, 1 | 2), "unsupported stride {stride}");
        Self { padded, stride }
    }

    /// Phases per axis that meet at least one kernel tap.
    fn phases_per_axis(&self) -> usize {
        self.padded.k.min(self.stride)
    }

    /// The folded stride-1 shape.
    pub fn shape(&self) -> ConvShape {
        let p = self.phases_per_axis();
        ConvShape {
            c: p * p * self.padded.c,
            h: self.padded.h.div_ceil(self.stride),
            w: self.padded.w.div_ceil(self.stride),
            m: self.padded.m,
            k: self.padded.k.div_ceil(self.stride),
        }
    }

    /// Output `(height, width)` of the strided convolution.
    fn out_dims(&self) -> (usize, usize) {
        let s = &self.padded;
        ((s.h - s.k) / self.stride + 1, (s.w - s.k) / self.stride + 1)
    }

    /// Folds the padded activation (`c·h·w` row-major) into the folded
    /// shape's input. Any coefficient type: signed values, or ring
    /// elements of a secret share (zero is a share of zero).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the padded input size.
    pub fn activation<T: Copy + Default>(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.padded.input_len(), "activation size mismatch");
        self.split_phases(x, 1, self.padded.h, self.padded.w)
    }

    /// Folds the `m×c×k×k` kernel into the folded shape's kernel.
    ///
    /// # Panics
    ///
    /// Panics if `f.len()` differs from `m·c·k²`.
    pub fn kernel(&self, f: &[i64]) -> Vec<i64> {
        let s = &self.padded;
        assert_eq!(f.len(), s.m * s.kernel_len(), "kernel size mismatch");
        self.split_phases(f, s.m, s.k, s.k)
    }

    /// Cuts the strided output (`m × out_dims`) out of the folded
    /// convolution's output (`m × shape().out_h() × shape().out_w()`).
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the folded output size.
    pub fn crop<T: Copy>(&self, y: &[T]) -> Vec<T> {
        let folded = self.shape();
        assert_eq!(y.len(), folded.output_len(), "output size mismatch");
        let (oh, ow) = self.out_dims();
        y.chunks_exact(folded.out_w())
            .enumerate()
            .filter(|(row, _)| row % folded.out_h() < oh)
            .flat_map(|(_, r)| &r[..ow])
            .copied()
            .collect()
    }

    /// Splits `outer` stacked `c×h×w` tensors by stride phase: cell
    /// `(i, j)` of phase `(α, β)` of channel `ch` reads `(s·i + α,
    /// s·j + β)` and lands in channel `(α·p + β)·c + ch` of the
    /// `(p²·c)×⌈h/s⌉×⌈w/s⌉` result.
    fn split_phases<T: Copy + Default>(&self, x: &[T], outer: usize, h: usize, w: usize) -> Vec<T> {
        let (s, p, c) = (self.stride, self.phases_per_axis(), self.padded.c);
        let (hs, ws) = (h.div_ceil(s), w.div_ceil(s));
        let mut out = vec![T::default(); outer * p * p * c * hs * ws];
        for o in 0..outer {
            for alpha in 0..p {
                for beta in 0..p {
                    for ch in 0..c {
                        let src = &x[(o * c + ch) * h * w..][..h * w];
                        let dst_ch = (o * p * p + alpha * p + beta) * c + ch;
                        let dst = &mut out[dst_ch * hs * ws..][..hs * ws];
                        for (i, row) in (alpha..h).step_by(s).enumerate() {
                            for (j, col) in (beta..w).step_by(s).enumerate() {
                                dst[i * ws + j] = src[row * w + col];
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rand_conv(shape: &ConvShape, seed: u64) -> (Vec<i64>, Vec<i64>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<i64> = (0..shape.input_len())
            .map(|_| rng.gen_range(-8..8))
            .collect();
        let f: Vec<i64> = (0..shape.m * shape.kernel_len())
            .map(|_| rng.gen_range(-8..8))
            .collect();
        (x, f)
    }

    /// The full encode → negacyclic-multiply → accumulate → decode
    /// pipeline in plain integers.
    fn encoded_conv(enc: &ConvEncoder, x: &[i64], f: &[i64]) -> Vec<i64> {
        let (shape, n) = (*enc.shape(), enc.degree());
        let fft = flash_fft::NegacyclicFft::shared(n);
        let acts = enc.encode_activation(x);
        let mut y = vec![0i64; shape.output_len()];
        for oc in 0..shape.m {
            let w_polys =
                enc.encode_weight(&f[oc * shape.kernel_len()..][..shape.kernel_len()], oc);
            for b in 0..enc.bands() {
                let mut acc = vec![0i128; n];
                for g in 0..enc.groups() {
                    let prod = fft.polymul_i64(&acts[g * enc.bands() + b], &w_polys[g][b]);
                    for (a, p) in acc.iter_mut().zip(&prod) {
                        *a += p;
                    }
                }
                let acc64: Vec<i64> = acc.iter().map(|&v| v as i64).collect();
                enc.decode_band(&acc64, b, oc, &mut y);
            }
        }
        y
    }

    /// Runs [`encoded_conv`] and compares with the direct conv.
    fn check_encoded_conv(shape: ConvShape, n: usize, align: TileAlignment, seed: u64) {
        let (x, f) = rand_conv(&shape, seed);
        let enc = ConvEncoder::with_alignment(shape, n, align);
        assert_eq!(
            encoded_conv(&enc, &x, &f),
            direct_conv_stride1(&x, &f, &shape),
            "shape {shape} n={n} align {align:?}"
        );
    }

    fn check_both(shape: ConvShape, n: usize, seed: u64) {
        check_encoded_conv(shape, n, TileAlignment::Compact, seed);
        check_encoded_conv(shape, n, TileAlignment::PowerOfTwo, seed);
    }

    #[test]
    fn single_tile_conv_roundtrip() {
        check_both(
            ConvShape {
                c: 2,
                h: 5,
                w: 4,
                m: 3,
                k: 3,
            },
            64,
            1,
        );
        check_both(
            ConvShape {
                c: 1,
                h: 4,
                w: 4,
                m: 1,
                k: 1,
            },
            16,
            2,
        );
        check_both(
            ConvShape {
                c: 3,
                h: 4,
                w: 4,
                m: 2,
                k: 2,
            },
            64,
            3,
        );
    }

    #[test]
    fn non_power_of_two_dims_roundtrip() {
        // 5x6 image: aligned layout pads the row stride to 8.
        let shape = ConvShape {
            c: 2,
            h: 5,
            w: 6,
            m: 2,
            k: 3,
        };
        let enc = ConvEncoder::with_alignment(shape, 128, TileAlignment::PowerOfTwo);
        assert_eq!(enc.row_stride(), 8);
        check_both(shape, 128, 9);
    }

    #[test]
    fn channel_grouped_conv_roundtrip() {
        // c*h*w = 4*4*4 = 64 > 32 = n: two channel groups of 2.
        let shape = ConvShape {
            c: 4,
            h: 4,
            w: 4,
            m: 2,
            k: 3,
        };
        let enc = ConvEncoder::new(shape, 32);
        assert_eq!(enc.groups(), 2);
        assert_eq!(enc.bands(), 1);
        check_both(shape, 32, 4);
    }

    #[test]
    fn banded_conv_roundtrip() {
        // One channel image of 8x8 = 64 > 32 = n: row bands.
        let shape = ConvShape {
            c: 1,
            h: 8,
            w: 8,
            m: 2,
            k: 3,
        };
        let enc = ConvEncoder::new(shape, 32);
        assert!(enc.bands() > 1);
        check_both(shape, 32, 5);
    }

    #[test]
    fn banded_multichannel_conv_roundtrip() {
        let shape = ConvShape {
            c: 2,
            h: 8,
            w: 8,
            m: 1,
            k: 3,
        };
        let enc = ConvEncoder::new(shape, 32);
        assert_eq!(enc.channels_per_group(), 1);
        assert_eq!(enc.groups(), 2);
        check_both(shape, 32, 6);
    }

    #[test]
    fn uneven_channel_group_padding() {
        // 3 channels into groups of 2: last group is half empty.
        let shape = ConvShape {
            c: 3,
            h: 4,
            w: 4,
            m: 2,
            k: 2,
        };
        let enc = ConvEncoder::new(shape, 32);
        assert_eq!(enc.channels_per_group(), 2);
        assert_eq!(enc.groups(), 2);
        check_both(shape, 32, 7);
    }

    #[test]
    fn weight_sparsity_matches_paper_structure() {
        // ResNet-like tile: 1 channel of 32x32 with 3x3 kernel in n=1024:
        // 9 of 1024 coefficients are valid (> 99 % sparse).
        let shape = ConvShape {
            c: 1,
            h: 32,
            w: 32,
            m: 1,
            k: 3,
        };
        let enc = ConvEncoder::new(shape, 1024);
        let idx = enc.weight_indices(0);
        assert_eq!(idx.len(), 9);
        // k contiguous values with stride W between rows
        assert_eq!(idx[0], 0);
        assert_eq!(idx[1], 1);
        assert_eq!(idx[2], 2);
        assert_eq!(idx[3], 32);
        let sparsity = 1.0 - idx.len() as f64 / 1024.0;
        assert!(sparsity > 0.99);
    }

    #[test]
    fn aligned_one_by_one_weights_form_power_of_two_progression() {
        // The FLASH layout: 1x1 kernels over 14x14 (aligned to 16x16
        // strides) put one valid coefficient at each multiple of 256 —
        // the pattern whose transform collapses to a tiny sub-network.
        let shape = ConvShape {
            c: 20,
            h: 14,
            w: 14,
            m: 1,
            k: 1,
        };
        let enc = ConvEncoder::with_alignment(shape, 4096, TileAlignment::PowerOfTwo);
        assert_eq!(enc.row_stride(), 16);
        let idx = enc.weight_indices(0);
        assert!(idx.len() <= 16);
        for i in &idx {
            assert_eq!(i % 256, 0, "index {i} must sit on the 256 grid");
        }
        // compact layout has more channels per poly but an irregular grid
        let compact = ConvEncoder::new(shape, 4096);
        assert!(compact.channels_per_group() >= enc.channels_per_group());
    }

    #[test]
    fn pad_input_places_values() {
        let x: Vec<i64> = (1..=4).collect(); // 1x2x2
        let p = pad_input(&x, 1, 2, 2, 1);
        assert_eq!(p.len(), 16);
        assert_eq!(p[5], 1); // (1,1) in 4x4
        assert_eq!(p[6], 2);
        assert_eq!(p[9], 3);
        assert_eq!(p[10], 4);
        assert_eq!(p[0], 0);
    }

    /// Seeded sweep over odd and even padded sizes, every padding up to
    /// 3 and kernels 1 (dropped phases), 2 (the crop), 3, 5 and 7: pad →
    /// fold → encode → negacyclic multiply → decode → crop equals the
    /// stride-2 convolution, i.e. the stride-1 output at even positions.
    #[test]
    fn stride2_fold_matches_strided_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let m = 2;
        for c in [1, 3] {
            for (h, w) in (5..=9).flat_map(|h| (5..=9).map(move |w| (h, w))) {
                for pad in 0..=3 {
                    for k in [1, 2, 3, 5, 7] {
                        let padded = ConvShape {
                            c,
                            h: h + 2 * pad,
                            w: w + 2 * pad,
                            m,
                            k,
                        };
                        if k > padded.h.min(padded.w) {
                            continue;
                        }
                        let x: Vec<i64> = (0..c * h * w).map(|_| rng.gen_range(-8..8)).collect();
                        let f: Vec<i64> = (0..m * padded.kernel_len())
                            .map(|_| rng.gen_range(-8..8))
                            .collect();
                        let xp = pad_input(&x, c, h, w, pad);

                        let full = direct_conv_stride1(&xp, &f, &padded);
                        let (oh, ow) = ((padded.h - k) / 2 + 1, (padded.w - k) / 2 + 1);
                        let want: Vec<i64> = (0..m * oh * ow)
                            .map(|i| {
                                let (oc, p, q) = (i / (oh * ow), i / ow % oh, i % ow);
                                full[(oc * padded.out_h() + 2 * p) * padded.out_w() + 2 * q]
                            })
                            .collect();

                        let fold = StrideFold::new(padded, 2);
                        let folded = fold.shape();
                        assert_eq!(folded.c, c * k.min(2).pow(2), "{padded}");
                        assert_eq!(fold.out_dims(), (oh, ow), "{padded}");
                        let enc = ConvEncoder::new(folded, 256);
                        let y = encoded_conv(&enc, &fold.activation(&xp), &fold.kernel(&f));
                        assert_eq!(fold.crop(&y), want, "{padded} pad {pad}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the ring degree")]
    fn impossible_tiling_panics() {
        ConvEncoder::new(
            ConvShape {
                c: 1,
                h: 16,
                w: 16,
                m: 1,
                k: 3,
            },
            32,
        );
    }
}
