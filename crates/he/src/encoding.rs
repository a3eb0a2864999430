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
//! (`C_w ≤ ⌊N/CS⌋` per ciphertext) and, when even one channel's image
//! overflows `N`, rows are split into overlapping spatial bands. Partial
//! products along the channel-group axis accumulate homomorphically;
//! bands and output-channel packs are independent ciphertexts.
//!
//! # Packed output channels
//!
//! Cheetah partitions the output axis too: one weight polynomial holds
//! `M_w` kernels, slot `s` of a pack at offset `s·C_w·CS`, under
//! `M_w·C_w·CS ≤ N` ([`ConvEncoder::with_partition`]). Output `y[p][q]`
//! of slot `s` then sits at `(s·C_w + C_w − 1)·CS + (p+k−1)·RS + (q+k−1)`,
//! so one response carries `M_w` channels and a layer sends `⌈M/M_w⌉`
//! responses per band instead of `M`. The last pack may be partial.
//!
//! Outputs of different slots never collide. Slot `s`'s product terms
//! start at `s·C_w·CS` and, because `H·RS ≤ CS` and `W ≤ RS`, end at most
//! at `s·C_w·CS + (2C_w − 1)·CS + (k−1)·RS + (k−2)` — one coefficient
//! below slot `s+1`'s first output, and above every output of slot
//! `s−1`. Only the last slot reaches past `N`; its terms wrap
//! (negated) to below `(C_w − 1)·CS + (k−1)·RS + (k−1)`, slot 0's first
//! output, even at `M_w·C_w·CS = N`. Row-banded layers keep `M_w = 1`,
//! so every response's outputs are one contiguous window of the output
//! tensor.
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
    /// Output-channel kernels per weight polynomial (the last pack may
    /// hold fewer).
    mw: usize,
    /// Output-channel packs.
    packs: usize,
    /// Row bands: `(row0, rows_in, out_row0, rows_out)`.
    bands: Vec<(usize, usize, usize, usize)>,
}

impl ConvEncoder {
    /// Plans a compact (Cheetah-layout) tiling of `shape` into ring
    /// degree `n`, with as many input channels per group as fit and one
    /// output channel per pack.
    ///
    /// # Panics
    ///
    /// Panics if even `k` input rows of one channel exceed `n`, if
    /// `k > min(h, w)`, or `n` is not a power of two.
    pub fn new(shape: ConvShape, n: usize) -> Self {
        Self::with_alignment(shape, n, TileAlignment::Compact)
    }

    /// Plans a tiling with the given layout policy (as many input
    /// channels per group as fit, one output channel per pack).
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
        Self {
            shape,
            n,
            alignment,
            row_stride,
            cg,
            groups: shape.c.div_ceil(cg),
            mw: 1,
            packs: shape.m,
            bands,
        }
    }

    /// The same layout re-partitioned: `cw` input channels per group and
    /// `mw` output-channel kernels per weight polynomial (see the module
    /// doc's packed layout).
    ///
    /// # Panics
    ///
    /// Panics unless `(cw, mw)` is one of [`ConvEncoder::partitions`].
    pub fn with_partition(mut self, cw: usize, mw: usize) -> Self {
        assert!(
            (1..=self.max_group()).contains(&cw) && (1..=self.max_pack(cw)).contains(&mw),
            "partition ({cw}, {mw}) does not fit {} at N = {}",
            self.shape,
            self.n
        );
        self.cg = cw;
        self.groups = self.shape.c.div_ceil(cw);
        self.mw = mw;
        self.packs = self.shape.m.div_ceil(mw);
        self
    }

    /// Every `(C_w, M_w)` partition of this layout — `C_w` input channels
    /// per group, `M_w` output channels per pack, under
    /// `M_w·C_w·CS ≤ N` — the most channels per group at `M_w = 1`
    /// (what [`ConvEncoder::with_alignment`] plans) first. A row-banded
    /// layer has the one partition `(1, 1)`.
    pub fn partitions(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (1..=self.max_group())
            .rev()
            .flat_map(move |cw| (1..=self.max_pack(cw)).map(move |mw| (cw, mw)))
    }

    /// The most input channels a group holds: `⌊N/CS⌋`, or 1 when banded.
    fn max_group(&self) -> usize {
        match self.bands.len() {
            1 => (self.n / self.strides(0).1).min(self.shape.c),
            _ => 1,
        }
    }

    /// The most output channels a pack of `cw`-channel groups holds:
    /// `⌊N/(C_w·CS)⌋`, or 1 when banded.
    fn max_pack(&self, cw: usize) -> usize {
        match self.bands.len() {
            1 => (self.n / (cw * self.strides(0).1)).min(self.shape.m),
            _ => 1,
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

    /// Channels per group (zero-padded), `C_w`.
    pub fn channels_per_group(&self) -> usize {
        self.cg
    }

    /// Output-channel packs (independent ciphertexts along this axis).
    pub fn packs(&self) -> usize {
        self.packs
    }

    /// Output channels per pack, `M_w` (the last pack may hold fewer).
    pub fn channels_per_pack(&self) -> usize {
        self.mw
    }

    /// The output channels pack `pack` holds, slot by slot.
    pub fn pack_channels(&self, pack: usize) -> std::ops::Range<usize> {
        pack * self.mw..((pack + 1) * self.mw).min(self.shape.m)
    }

    /// Row bands (independent ciphertexts along this axis).
    pub fn bands(&self) -> usize {
        self.bands.len()
    }

    /// Activation polynomials the client sends: `groups × bands`.
    pub fn activation_polys(&self) -> usize {
        self.groups * self.bands.len()
    }

    /// Weight polynomials the server encodes: `groups × packs` (bands
    /// share weights).
    pub fn weight_polys(&self) -> usize {
        self.groups * self.packs
    }

    /// Result ciphertexts — one per unit `u = pack·bands + b`:
    /// `packs × bands`.
    pub fn result_polys(&self) -> usize {
        self.packs * self.bands.len()
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

    /// Encodes the kernel of output channel `oc` (`c·k·k` row-major), at
    /// its slot of its pack, into per-group, per-band polynomials
    /// (`[group][band] -> poly`; bands with differing heights have
    /// different channel strides, hence the band axis).
    ///
    /// # Panics
    ///
    /// Panics if `f.len()` differs from the kernel size.
    pub fn encode_weight(&self, f: &[i64], oc: usize) -> Vec<Vec<Vec<i64>>> {
        assert_eq!(f.len(), self.shape.kernel_len(), "kernel size mismatch");
        assert!(oc < self.shape.m, "output channel out of range");
        self.encode_kernels(&[(oc % self.mw, f)])
    }

    /// Encodes every kernel of pack `pack` (`weights` is the full
    /// `m×c×k×k` tensor) at its slot: per-group, per-band polynomials as
    /// [`ConvEncoder::encode_weight`] returns them.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from `m·c·k²` or `pack` is out
    /// of range.
    pub fn encode_pack(&self, weights: &[i64], pack: usize) -> Vec<Vec<Vec<i64>>> {
        let klen = self.shape.kernel_len();
        assert_eq!(weights.len(), self.shape.m * klen, "weight size mismatch");
        assert!(pack < self.packs, "pack out of range");
        let kernels: Vec<(usize, &[i64])> = self
            .pack_channels(pack)
            .enumerate()
            .map(|(slot, oc)| (slot, &weights[oc * klen..][..klen]))
            .collect();
        self.encode_kernels(&kernels)
    }

    /// Per channel group of pack `pack`, the `(ℓ1, Σw²)` of its weight
    /// polynomial — of every band's, since each band's polynomial holds
    /// the same taps — read straight off the `m×c×k×k` tensor where
    /// [`ConvEncoder::encode_pack`] takes them (the pack's output
    /// channels, the group's channels below `c`, all `k²` taps) without
    /// building a polynomial. Each sum is an exact integer, so below
    /// `2^53` it equals the `f64` sum over the encoded polynomial bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from `m·c·k²` or `pack` is out
    /// of range.
    pub fn pack_norms(&self, weights: &[i64], pack: usize) -> Vec<(f64, f64)> {
        let s = &self.shape;
        let (klen, kk) = (s.kernel_len(), s.k * s.k);
        assert_eq!(weights.len(), s.m * klen, "weight size mismatch");
        assert!(pack < self.packs, "pack out of range");
        (0..self.groups)
            .map(|g| {
                let taps = g * self.cg * kk..((g + 1) * self.cg).min(s.c) * kk;
                let (l1, sq) = self
                    .pack_channels(pack)
                    .flat_map(|oc| &weights[oc * klen..][taps.clone()])
                    .fold((0u128, 0u128), |(l1, sq), &w| {
                        let a = u128::from(w.unsigned_abs());
                        (l1 + a, sq + a * a)
                    });
                (l1 as f64, sq as f64)
            })
            .collect()
    }

    /// `[group][band] -> poly` holding each `(slot, kernel)`.
    fn encode_kernels(&self, kernels: &[(usize, &[i64])]) -> Vec<Vec<Vec<i64>>> {
        let s = &self.shape;
        (0..self.groups)
            .map(|g| {
                (0..self.bands.len())
                    .map(|b| {
                        let mut poly = vec![0i64; self.n];
                        for &(slot, f) in kernels {
                            for (idx, (cc, i, j)) in self.kernel_taps(b, slot) {
                                let c = g * self.cg + cc;
                                if c < s.c {
                                    poly[idx] = f[(c * s.k + i) * s.k + j];
                                }
                            }
                        }
                        poly
                    })
                    .collect()
            })
            .collect()
    }

    /// Every tap of a pack slot's kernel under band `b`'s strides:
    /// `(coefficient, (channel in group, row, column))`.
    fn kernel_taps(
        &self,
        b: usize,
        slot: usize,
    ) -> impl Iterator<Item = (usize, (usize, usize, usize))> {
        let (k, cg) = (self.shape.k, self.cg);
        let (rs, cs) = self.strides(b);
        (0..cg).flat_map(move |cc| {
            (0..k).flat_map(move |i| {
                (0..k).map(move |j| {
                    let idx = (slot * cg + cg - 1 - cc) * cs + (k - 1 - i) * rs + (k - 1 - j);
                    (idx, (cc, i, j))
                })
            })
        })
    }

    /// The non-zero coefficient indices of a full pack's weight
    /// polynomial for band `b` — the sparsity pattern FLASH's dataflow
    /// consumes, and a superset of a partial pack's. Independent of the
    /// weight values (zero weights would only increase sparsity).
    pub fn weight_indices(&self, b: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.mw)
            .flat_map(|slot| self.kernel_taps(b, slot))
            .map(|(i, _)| i)
            .collect();
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

    /// The slice of the output tensor unit `u = pack·bands + b` produces:
    /// band `b`'s rows of every channel of the pack — contiguous, since a
    /// pack of several channels spans every row (banded layers keep
    /// `M_w = 1`). Units tile the tensor in unit order.
    pub fn unit_output_range(&self, u: usize) -> std::ops::Range<usize> {
        let bands = self.bands.len();
        let (chans, b) = (self.pack_channels(u / bands), u % bands);
        self.band_output_range(b, chans.start).start..self.band_output_range(b, chans.end - 1).end
    }

    /// The product-polynomial coefficient of every output of unit
    /// `u = pack·bands + b`, in the order of
    /// [`ConvEncoder::unit_output_range`]: the only coefficients of a
    /// response a decoder reads.
    pub fn unit_positions(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        let bands = self.bands.len();
        let (slots, b) = (self.pack_channels(u / bands).len(), u % bands);
        (0..slots).flat_map(move |slot| self.slot_positions(b, slot))
    }

    /// The output coefficients of pack slot `slot` in band `b`, row-major.
    fn slot_positions(&self, b: usize, slot: usize) -> impl Iterator<Item = usize> + '_ {
        let s = &self.shape;
        let (rs, cs) = self.strides(b);
        let (_, _, _, rows_out) = self.bands[b];
        (0..rows_out).flat_map(move |p| {
            let idx = (slot * self.cg + self.cg - 1) * cs + (p + s.k - 1) * rs + (s.k - 1);
            idx..idx + s.out_w()
        })
    }

    /// Extracts the outputs of unit `u` from its (group-accumulated)
    /// product polynomial into `rows`, the unit's own block of the output
    /// tensor ([`ConvEncoder::unit_output_range`]). Generic over the
    /// coefficient type: signed products in the plain-integer pipeline,
    /// `Z_t` residues when the output is a secret share.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches.
    pub fn decode_unit<T: Copy>(&self, prod: &[T], u: usize, rows: &mut [T]) {
        assert_eq!(prod.len(), self.n, "product polynomial length mismatch");
        assert_eq!(
            rows.len(),
            self.unit_output_range(u).len(),
            "unit block size mismatch"
        );
        copy_positions(prod, self.unit_positions(u), rows);
    }

    /// Extracts band `b` of output channel `oc` — its slot of its pack's
    /// product polynomial — into its place in the full output tensor `y`
    /// (`m·out_h·out_w` row-major); only those rows are touched.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches.
    pub fn decode_band<T: Copy>(&self, prod: &[T], b: usize, oc: usize, y: &mut [T]) {
        assert_eq!(prod.len(), self.n, "product polynomial length mismatch");
        assert_eq!(
            y.len(),
            self.shape.output_len(),
            "output tensor size mismatch"
        );
        let rows = &mut y[self.band_output_range(b, oc)];
        copy_positions(prod, self.slot_positions(b, oc % self.mw), rows);
    }
}

/// `out[r] = prod[positions[r]]`: the one copy from a product
/// polynomial's output coefficients into their block of the tensor.
fn copy_positions<T: Copy>(prod: &[T], positions: impl Iterator<Item = usize>, out: &mut [T]) {
    for (r, i) in out.iter_mut().zip(positions) {
        *r = prod[i];
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
