//! Per-layer workload extraction: how many transforms of what kind a
//! convolution layer induces under the Cheetah-encoded protocol, and how
//! many multiplications the sparse dataflow leaves in each.
//!
//! Counting conventions (matching the paper's Figure 1 / Table III
//! accounting):
//!
//! * every ciphertext ⊠ plaintext product needs one *weight transform*
//!   per weight polynomial (computed on the fly — precomputation is the
//!   23 GB memory blow-up the paper rejects);
//! * each uploaded ciphertext contributes two *activation transforms*
//!   (`c0`, `c1`);
//! * results are packed before the inverse transform (Cheetah's LWE
//!   repacking), so inverse transforms scale with the *output tensor
//!   size*, not with `bands × out-channels`;
//! * a stride-2 layer is the one stride-1 convolution of its folded
//!   [`ConvLayerSpec::encoded_shape`] (`min(k, 2)²` phase channels per
//!   input channel), so its counts are read off that shape like any
//!   other layer's.

use flash_he::encoding::{ConvEncoder, TileAlignment};
use flash_hw::energy::HconvOps;
use flash_nn::layers::ConvLayerSpec;
use flash_ntt::ops::negacyclic_fft_ops;

/// The transform/operation inventory of one convolution layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWorkload {
    /// Layer name.
    pub name: String,
    /// Ring degree.
    pub n: usize,
    /// Weight transforms (forward, on approximate PEs).
    pub weight_transforms: u64,
    /// Sparse-dataflow complex mults of one weight transform
    /// (twist + butterfly network).
    pub weight_mults_sparse_each: u64,
    /// Dense complex mults of one transform (twist + `m/2·log m`).
    pub weight_mults_dense_each: u64,
    /// Activation forward transforms (on FP PEs; two per ciphertext).
    pub act_transforms: u64,
    /// Inverse transforms after output packing (on FP PEs).
    pub inverse_transforms: u64,
    /// Point-wise complex multiplications.
    pub pointwise: u64,
    /// Spectrum-domain accumulation additions.
    pub accum_adds: u64,
    /// Weight-polynomial sparsity (fraction of zero coefficients).
    pub sparsity: f64,
}

impl LayerWorkload {
    /// Total sparse weight-transform mults.
    pub fn weight_mults_sparse(&self) -> u64 {
        self.weight_transforms * self.weight_mults_sparse_each
    }

    /// Total dense weight-transform mults.
    pub fn weight_mults_dense(&self) -> u64 {
        self.weight_transforms * self.weight_mults_dense_each
    }

    /// Total FP-side transform mults (activation + inverse, dense).
    pub fn act_mults(&self) -> u64 {
        (self.act_transforms + self.inverse_transforms) * self.weight_mults_dense_each
    }

    /// Fraction of weight-transform multiplications eliminated by the
    /// sparse dataflow.
    pub fn sparse_reduction(&self) -> f64 {
        1.0 - self.weight_mults_sparse_each as f64 / self.weight_mults_dense_each as f64
    }

    /// Transform work in Table III's normalized units (one `N = 4096` NTT
    /// ≡ one `N = 2048` FFT): weight + activation + inverse transforms.
    pub fn transform_work_units(&self) -> f64 {
        let per = flash_hw::throughput::fft_work_units(self.n);
        (self.weight_transforms + self.act_transforms + self.inverse_transforms) as f64 * per
    }

    /// Maps the workload into the energy model's operation counts.
    pub fn to_hconv_ops(&self) -> HconvOps {
        HconvOps {
            weight_mults_dense: self.weight_mults_dense(),
            weight_mults_sparse: self.weight_mults_sparse(),
            act_mults: self.act_mults(),
            pointwise: self.pointwise,
            accums: self.accum_adds,
        }
    }

    /// Element-wise accumulation of another workload (whole-network
    /// totals).
    pub fn accumulate(&mut self, other: &LayerWorkload) {
        self.weight_transforms += other.weight_transforms;
        self.act_transforms += other.act_transforms;
        self.inverse_transforms += other.inverse_transforms;
        self.pointwise += other.pointwise;
        self.accum_adds += other.accum_adds;
    }
}

/// Extracts the workload of one conv layer at ring degree `n`.
///
/// # Panics
///
/// Panics for strides other than 1 or 2, or kernels that cannot tile into
/// the ring.
pub fn layer_workload(spec: &ConvLayerSpec, n: usize) -> LayerWorkload {
    let shape = spec.encoded_shape();
    // FLASH's sparse dataflow assumes the power-of-two-aligned layout
    // ("when H and W are powers of two ... become contiguous after
    // bit-reverse").
    let enc = ConvEncoder::with_alignment(shape, n, TileAlignment::PowerOfTwo);
    let groups = enc.groups() as u64;
    let bands = enc.bands() as u64;
    let m_out = shape.m as u64;

    // Sparse dataflow cost of one weight transform (band-0 geometry; other
    // bands only shrink the pattern), read off the interned plan the
    // protocol runs for this encoder. Layers of one stage share a fold
    // pattern, so the tape compiles once per distinct geometry per process.
    let sparse_each = flash_2pc::conv_band_plan(&enc, n, 0).paper_muls();
    let live = enc.weight_indices(0).len();
    let dense = negacyclic_fft_ops(n);
    let dense_each = dense.mults;

    // Output packing: inverse transforms scale with the packed output
    // volume (Cheetah LWE extraction + repacking), two polys per packed
    // ciphertext.
    let out_elems = (spec.m * spec.out_h() * spec.out_w()) as u64;
    let packed_cts = out_elems.div_ceil(n as u64).max(1);

    LayerWorkload {
        name: spec.name.clone(),
        n,
        weight_transforms: groups * m_out,
        weight_mults_sparse_each: sparse_each,
        weight_mults_dense_each: dense_each,
        act_transforms: 2 * groups * bands,
        inverse_transforms: 2 * packed_cts,
        pointwise: groups * bands * m_out * n as u64,
        accum_adds: (groups - 1) * bands * m_out * n as u64,
        sparsity: 1.0 - live as f64 / n as f64,
    }
}

/// Extracts the workload of a fully-connected layer (`no×ni` matrix) at
/// ring degree `n`. FC weight polynomials are dense, so the sparse
/// dataflow gives no benefit here — only the approximate datapath does.
pub fn fc_workload(ni: usize, no: usize, n: usize) -> LayerWorkload {
    let enc = flash_he::matvec::MatVecEncoder::new(ni, no, n);
    let dense = negacyclic_fft_ops(n).mults;
    let packed_cts = (no as u64).div_ceil(n as u64).max(1);
    LayerWorkload {
        name: format!("fc.{ni}x{no}"),
        n,
        weight_transforms: enc.weight_polys() as u64,
        weight_mults_sparse_each: dense, // no sparsity to exploit
        weight_mults_dense_each: dense,
        act_transforms: 2 * enc.col_chunks() as u64,
        inverse_transforms: 2 * packed_cts,
        pointwise: (enc.weight_polys() * n) as u64,
        accum_adds: (enc.col_chunks() as u64 - 1) * (enc.row_blocks() * n) as u64,
        sparsity: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_nn::resnet::{resnet50_conv_layers, resnet50_residual_block};

    const N: usize = 4096;

    fn spec(
        name: &str,
        c: usize,
        h: usize,
        m: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> ConvLayerSpec {
        ConvLayerSpec {
            name: name.into(),
            c,
            h,
            w: h,
            m,
            k,
            stride,
            pad,
        }
    }

    #[test]
    fn weight_transforms_dominate_3x3_layer() {
        // 64ch 56x56 3x3 -> 64ch: the Figure-1 regime.
        let w = layer_workload(&spec("l", 64, 56, 64, 3, 1, 1), N);
        assert!(w.weight_transforms > 10 * (w.act_transforms + w.inverse_transforms));
        assert!(
            w.sparse_reduction() > 0.86,
            "reduction {}",
            w.sparse_reduction()
        );
        assert!(w.sparsity > 0.95);
    }

    #[test]
    fn sparse_reduction_exceeds_paper_claim_on_resnet50() {
        // The paper: > 86 % of computations skipped across layers.
        let net = resnet50_conv_layers();
        let mut total_sparse = 0u64;
        let mut total_dense = 0u64;
        for l in net.convs.iter().filter(|l| l.h >= 14) {
            let w = layer_workload(l, N);
            total_sparse += w.weight_mults_sparse();
            total_dense += w.weight_mults_dense();
        }
        let reduction = 1.0 - total_sparse as f64 / total_dense as f64;
        assert!(reduction > 0.8, "overall reduction {reduction}");
    }

    #[test]
    fn stride2_layer_has_four_phases() {
        let s2 = spec("s2", 64, 56, 64, 3, 2, 1);
        let w2 = layer_workload(&s2, N);
        // 4 phases over quarter-size images, folded into the channel
        // axis of one stride-1 conv: its plan is the layer's count.
        let shape = s2.encoded_shape();
        assert_eq!(shape.c, 4 * 64);
        let enc = ConvEncoder::with_alignment(shape, N, TileAlignment::PowerOfTwo);
        assert_eq!(w2.weight_transforms, (enc.groups() * shape.m) as u64);
        assert_eq!(w2.act_transforms, (2 * enc.groups() * enc.bands()) as u64);
    }

    #[test]
    fn residual_block_workload_matches_fig1_shape() {
        // Weight transforms must account for the bulk of transform work in
        // a ResNet-50 residual block (Figure 1's breakdown).
        let mut weight = 0u64;
        let mut act = 0u64;
        for l in resnet50_residual_block() {
            let w = layer_workload(&l, N);
            weight += w.weight_mults_dense();
            act += w.act_mults();
        }
        assert!(weight > 5 * act, "weight {weight} vs act {act}");
    }

    #[test]
    fn one_by_one_conv_workload() {
        let w = layer_workload(&spec("pw", 256, 14, 1024, 1, 1, 0), N);
        // aligned layout: 14x14 -> 16-wide rows, 256-coefficient channel
        // stride -> 16 channels per poly -> 16 groups
        assert_eq!(w.weight_transforms, 16 * 1024);
        assert!(w.sparsity > 0.99);
        // power-of-two progressions collapse to a tiny sub-network
        assert!(
            w.sparse_reduction() > 0.97,
            "reduction {}",
            w.sparse_reduction()
        );
    }

    #[test]
    fn workload_accumulate() {
        let mut a = layer_workload(&spec("a", 16, 14, 16, 3, 1, 1), N);
        let b = a.clone();
        let before = a.weight_transforms;
        a.accumulate(&b);
        assert_eq!(a.weight_transforms, 2 * before);
        assert_eq!(a.pointwise, 2 * b.pointwise);
    }

    #[test]
    fn hconv_ops_mapping() {
        let w = layer_workload(&spec("m", 32, 28, 32, 3, 1, 1), N);
        let ops = w.to_hconv_ops();
        assert_eq!(ops.weight_mults_sparse, w.weight_mults_sparse());
        assert_eq!(ops.pointwise, w.pointwise);
        assert!(ops.weight_mults_sparse < ops.weight_mults_dense / 4);
    }
}
