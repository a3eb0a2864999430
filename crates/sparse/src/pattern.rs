//! Sparsity patterns of butterfly-network inputs.
//!
//! A pattern records which of the `m` complex slots entering the FFT are
//! non-zero. For the negacyclic weight transform the `N` real weight
//! coefficients fold pairwise into `m = N/2` complex slots
//! (`c_j = a_j + i·a_{j+N/2}`), so a slot is live when either partner
//! coefficient is.

use flash_math::bitrev::{bit_reverse, log2_exact};

/// Which slots of an `m`-point butterfly network carry non-zero values.
///
/// Unless stated otherwise a pattern is in *natural* (pre-bit-reverse)
/// order; [`SparsityPattern::bit_reversed`] converts to the order in which
/// values enter the first butterfly stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    mask: Vec<bool>,
}

impl SparsityPattern {
    /// Creates a pattern of size `m` with the given non-zero indices.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a power of two or an index is out of range.
    pub fn from_indices<I: IntoIterator<Item = usize>>(m: usize, indices: I) -> Self {
        assert!(m.is_power_of_two(), "pattern size must be a power of two");
        let mut mask = vec![false; m];
        for i in indices {
            assert!(i < m, "index {i} out of range for pattern of size {m}");
            mask[i] = true;
        }
        Self { mask }
    }

    /// Creates a pattern directly from a boolean mask.
    ///
    /// # Panics
    ///
    /// Panics if the mask length is not a power of two.
    pub fn from_mask(mask: Vec<bool>) -> Self {
        assert!(
            mask.len().is_power_of_two(),
            "pattern size must be a power of two"
        );
        Self { mask }
    }

    /// A fully dense pattern.
    pub fn dense(m: usize) -> Self {
        assert!(m.is_power_of_two());
        Self {
            mask: vec![true; m],
        }
    }

    /// The fold-domain pattern of a degree-`n` real polynomial whose
    /// coefficients at `live` may be non-zero: the negacyclic transform
    /// packs coefficients `j` and `j + n/2` into complex slot `j`, so slot
    /// `j` is live when either partner is.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 4 or an index is `≥ n`.
    pub fn folded<I: IntoIterator<Item = usize>>(n: usize, live: I) -> Self {
        assert!(
            n.is_power_of_two() && n >= 4,
            "degree must be a power of two >= 4"
        );
        let half = n / 2;
        let mut mask = vec![false; half];
        for i in live {
            assert!(i < n, "coefficient {i} out of range for degree {n}");
            mask[i % half] = true;
        }
        Self { mask }
    }

    /// Pattern size `m`.
    pub fn len(&self) -> usize {
        self.mask.len()
    }

    /// Whether no slot is live.
    pub fn is_empty(&self) -> bool {
        !self.mask.iter().any(|&b| b)
    }

    /// Number of live slots.
    pub fn count(&self) -> usize {
        self.mask.iter().filter(|&&b| b).count()
    }

    /// Fraction of *zero* slots (the paper's sparsity metric).
    pub fn sparsity(&self) -> f64 {
        1.0 - self.count() as f64 / self.len() as f64
    }

    /// Whether slot `i` is live.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.mask[i]
    }

    /// The underlying mask.
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// The same pattern permuted into bit-reversed order (the order in
    /// which the first butterfly stage consumes slots).
    pub fn bit_reversed(&self) -> SparsityPattern {
        let m = self.mask.len();
        let bits = log2_exact(m);
        let mask = (0..m).map(|i| self.mask[bit_reverse(i, bits)]).collect();
        SparsityPattern { mask }
    }

    /// Live indices in ascending order.
    pub fn indices(&self) -> Vec<usize> {
        self.mask
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    }

    /// Canonical digest of the pattern: the mask packed into 64-bit words
    /// plus the exact length. Two patterns share a digest iff their masks
    /// are identical, which makes this the cache key of the compiled-plan
    /// interner.
    pub fn packed_words(&self) -> (usize, Vec<u64>) {
        let mut words = vec![0u64; self.mask.len().div_ceil(64)];
        for (i, &live) in self.mask.iter().enumerate() {
            if live {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        (self.mask.len(), words)
    }
}

/// Builds the Cheetah-style weight pattern used throughout the paper's
/// figures: for every span of `hw` coefficients (one input channel's
/// `H×W` block), `k`-long runs of valid values every `w_stride`
/// coefficients, `k` rows deep — i.e. the image of a `k×k` kernel under
/// coefficient encoding (Figure 7).
pub fn cheetah_weight_pattern(n: usize, hw: usize, w_stride: usize, k: usize) -> SparsityPattern {
    assert!(n.is_power_of_two());
    let mut mask = vec![false; n];
    let mut base = 0;
    while base + hw <= n {
        for row in 0..k {
            for col in 0..k {
                let idx = base + row * w_stride + col;
                if idx < n {
                    mask[idx] = true;
                }
            }
        }
        base += hw;
    }
    SparsityPattern { mask }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_stats() {
        let p = SparsityPattern::from_indices(16, [0, 3, 15]);
        assert_eq!(p.len(), 16);
        assert_eq!(p.count(), 3);
        assert!((p.sparsity() - 13.0 / 16.0).abs() < 1e-12);
        assert_eq!(p.indices(), vec![0, 3, 15]);
        assert!(!p.is_empty());
        assert!(SparsityPattern::from_indices(8, []).is_empty());
    }

    #[test]
    fn dense_pattern() {
        let p = SparsityPattern::dense(8);
        assert_eq!(p.count(), 8);
        assert_eq!(p.sparsity(), 0.0);
    }

    #[test]
    fn fold_unions_partner_coefficients() {
        // n = 8: coefficients 1 and 5 share slot 1; coefficient 7 lives in
        // slot 3.
        let p = SparsityPattern::folded(8, [1, 5, 7]);
        assert_eq!(p.len(), 4);
        assert_eq!(p.indices(), vec![1, 3]);
    }

    #[test]
    fn bit_reverse_moves_slots() {
        let p = SparsityPattern::from_indices(8, [1]);
        let br = p.bit_reversed();
        // natural index 1 lands at bit-reversed position 4.
        assert_eq!(br.indices(), vec![4]);
        // double reversal is identity
        assert_eq!(br.bit_reversed(), p);
    }

    #[test]
    fn cheetah_pattern_shape() {
        // hw = 16 per channel, row stride 4, 2x2 kernel, n = 64: 4 channels
        // x 4 valid each.
        let p = cheetah_weight_pattern(64, 16, 4, 2);
        assert_eq!(p.count(), 16);
        assert_eq!(&p.indices()[..4], &[0, 1, 4, 5]);
        assert!(p.get(16) && p.get(17) && p.get(20) && p.get(21));
        assert!(p.sparsity() > 0.7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        SparsityPattern::from_indices(8, [8]);
    }
}
