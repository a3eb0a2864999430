//! The FLASH operating configuration: HE parameters, architecture and
//! approximate-FFT numerics.

use flash_fft::ApproxFftConfig;
use flash_he::HeParams;
use flash_hw::arch::FlashArch;
use flash_math::fixed::FxpFormat;
use flash_sparse::schedule::PeModel;

/// A complete FLASH configuration.
#[derive(Debug, Clone)]
pub struct FlashConfig {
    /// BFV parameters (`N`, `q`, `t`).
    pub he: HeParams,
    /// Architecture (PE counts, frequency).
    pub arch: FlashArch,
    /// PE cycle model.
    pub pe: PeModel,
    /// Per-stage numerics of the approximate weight transform.
    pub numerics: ApproxFftConfig,
}

impl FlashConfig {
    /// The paper's operating point: `N = 4096`, 39-bit `q`, `t = 2^21`,
    /// 27-bit datapath, twiddle quantization `k = 5` (the
    /// approximation-aware-trained level).
    pub fn paper_default() -> Self {
        let he = HeParams::flash_default();
        Self {
            arch: FlashArch::paper_default(),
            pe: PeModel::default(),
            numerics: Self::numerics_for(he.n, 27, 5),
            he,
        }
    }

    /// The untrained operating point (`k ≈ 18` keeps accuracy within 1 %
    /// without retraining).
    pub fn untrained_default() -> Self {
        let he = HeParams::flash_default();
        Self {
            arch: FlashArch::paper_default(),
            pe: PeModel::default(),
            numerics: Self::numerics_for(he.n, 27, 18),
            he,
        }
    }

    /// A small configuration for functional tests (`N = 256`,
    /// `q = 2^62`, `t = 2^16`: [`HeParams::pow2_test_256`], the ring the
    /// approximate weight transform runs on), with wide numerics so HConv
    /// results stay kernel-exact.
    pub fn test_small() -> Self {
        let he = HeParams::pow2_test_256();
        let mut numerics = ApproxFftConfig::uniform(he.n, FxpFormat::new(18, 34), 30);
        numerics.max_shift = 30;
        Self {
            arch: FlashArch::paper_default(),
            pe: PeModel::default(),
            numerics,
            he,
        }
    }

    /// Builds the uniform numerics for a total data width `dw`
    /// (1 sign + 15 integer + remaining fraction bits) and twiddle level
    /// `k`.
    pub fn numerics_for(n: usize, dw: u32, k: usize) -> ApproxFftConfig {
        assert!(dw > 17, "data width must exceed sign + integer bits");
        let int_bits = 15;
        let frac = dw - 1 - int_bits;
        ApproxFftConfig::uniform(n, FxpFormat::new(int_bits, frac), k)
    }

    /// Ring degree.
    pub fn n(&self) -> usize {
        self.he.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_consistency() {
        let c = FlashConfig::paper_default();
        assert_eq!(c.n(), 4096);
        assert_eq!(c.numerics.degree(), 4096);
        assert_eq!(c.arch.approx_pes, 60);
        assert_eq!(c.numerics.stage_formats()[0].total_bits(), 27);
        assert_eq!(c.numerics.twiddle_k()[0], 5);
    }

    #[test]
    fn untrained_uses_higher_k() {
        let c = FlashConfig::untrained_default();
        assert_eq!(c.numerics.twiddle_k()[0], 18);
    }

    #[test]
    fn numerics_width_math() {
        let n = 256;
        let cfg = FlashConfig::numerics_for(n, 27, 5);
        assert!(cfg.stage_formats().iter().all(|f| f.total_bits() == 27));
    }
}
