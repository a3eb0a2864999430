//! Arithmetic operation counts for the dense transforms.
//!
//! These closed-form counts feed the hardware cost model and normalize the
//! throughput comparisons of Table III ("count of transforms performed per
//! second … normalized to N = 4096 for NTT or N = 2048 for FFT").

/// Operation counts of one transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCount {
    /// Multiplications (modular or complex, depending on datapath).
    pub mults: u64,
    /// Additions/subtractions.
    pub adds: u64,
}

impl OpCount {
    /// Element-wise sum of two counts.
    pub fn combine(self, other: OpCount) -> OpCount {
        OpCount {
            mults: self.mults + other.mults,
            adds: self.adds + other.adds,
        }
    }

    /// Scales a count by a repetition factor.
    pub fn scaled(self, k: u64) -> OpCount {
        OpCount {
            mults: self.mults * k,
            adds: self.adds * k,
        }
    }
}

/// Counts for a dense `n`-point NTT: `n/2 · log2 n` butterflies, one
/// modular multiplication and two modular add/subs each.
pub fn ntt_ops(n: usize) -> OpCount {
    let n = n as u64;
    let log = n.trailing_zeros() as u64;
    OpCount {
        mults: n / 2 * log,
        adds: n * log,
    }
}

/// Counts for a dense `m`-point *complex* FFT in units of complex
/// operations: `m/2 · log2 m` butterflies, one complex multiplication and
/// two complex add/subs each.
pub fn fft_complex_ops(m: usize) -> OpCount {
    ntt_ops(m)
}

/// Counts for a dense `m`-point complex FFT built from radix-4
/// butterflies (with one radix-2 stage when `log2 m` is odd): 3 general
/// multiplications per radix-4 butterfly, 1 per radix-2 butterfly; the
/// `±i` rotations are wiring. The butterfly-radix ablation compares it
/// against [`fft_complex_ops`].
pub fn radix4_fft_ops(m: usize) -> OpCount {
    match m {
        0 | 1 => OpCount::default(),
        2 => OpCount { mults: 0, adds: 2 },
        _ if !m.is_multiple_of(4) => {
            let sub = radix4_fft_ops(m / 2);
            OpCount {
                mults: 2 * sub.mults + m as u64 / 2,
                adds: 2 * sub.adds + m as u64,
            }
        }
        _ => {
            let sub = radix4_fft_ops(m / 4);
            OpCount {
                mults: 4 * sub.mults + 3 * m as u64 / 4,
                adds: 4 * sub.adds + 2 * m as u64,
            }
        }
    }
}

/// Counts for the negacyclic real-to-complex transform of a length-`n`
/// real polynomial: the fold-and-twist (`n/2` complex multiplications)
/// plus an `n/2`-point complex FFT.
pub fn negacyclic_fft_ops(n: usize) -> OpCount {
    let twist = OpCount {
        mults: n as u64 / 2,
        adds: 0,
    };
    twist.combine(fft_complex_ops(n / 2))
}

/// Counts for a schoolbook negacyclic product where one operand has `nnz`
/// non-zero coefficients: `nnz · n` multiplications (the direct
/// coefficient-domain baseline of Figure 11(a)).
pub fn direct_sparse_ops(n: usize, nnz: usize) -> OpCount {
    OpCount {
        mults: (nnz * n) as u64,
        adds: (nnz * n) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ntt_counts_match_formula() {
        let c = ntt_ops(4096);
        assert_eq!(c.mults, 2048 * 12);
        assert_eq!(c.adds, 4096 * 12);
    }

    #[test]
    fn negacyclic_fft_is_cheaper_than_ntt() {
        // The paper's claim: multiplications in the N/2-point FFT are less
        // than half those of the N-point NTT (plus the twist).
        for n in [1024usize, 4096, 16384] {
            let ntt = ntt_ops(n);
            let fft = negacyclic_fft_ops(n);
            assert!(
                fft.mults < ntt.mults / 2 + n as u64 / 2 + 1,
                "n={n}: fft {} vs ntt {}",
                fft.mults,
                ntt.mults
            );
            assert!(fft.mults < ntt.mults);
        }
    }

    #[test]
    fn radix4_needs_fewer_multiplications() {
        for m in [16usize, 256, 2048, 4096] {
            let r2 = fft_complex_ops(m);
            let r4 = radix4_fft_ops(m);
            assert!(
                (r4.mults as f64) < 0.85 * r2.mults as f64,
                "m={m}: radix4 {} vs radix2 {}",
                r4.mults,
                r2.mults
            );
        }
        // the asymptotic ratio approaches 3/4
        let r2 = fft_complex_ops(1 << 16);
        let r4 = radix4_fft_ops(1 << 16);
        let ratio = r4.mults as f64 / r2.mults as f64;
        assert!((0.70..0.85).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn combine_and_scale() {
        let a = OpCount { mults: 3, adds: 4 };
        let b = OpCount { mults: 10, adds: 1 };
        assert_eq!(a.combine(b), OpCount { mults: 13, adds: 5 });
        assert_eq!(a.scaled(3), OpCount { mults: 9, adds: 12 });
    }

    #[test]
    fn direct_sparse_scales_with_nnz() {
        let c = direct_sparse_ops(4096, 9);
        assert_eq!(c.mults, 9 * 4096);
    }
}
