//! Cheetah-style coefficient encoding of matrix–vector products (the
//! fully-connected layers of the network).
//!
//! For `y = W·x` with `W ∈ Z^{no×ni}`: the vector places `x[j]` at
//! coefficient `j`; a block of rows places `W[i][j]` at coefficient
//! `i·ni + (ni−1−j)`. The negacyclic product then carries the dot
//! product `y[i]` at coefficient `i·ni + ni − 1`. Large `ni` splits into
//! column chunks whose partial products accumulate homomorphically;
//! large `no` splits into row blocks (independent ciphertexts).
//!
//! Unlike convolution kernels, FC weight polynomials are *dense* (every
//! coefficient of a row span is a real weight) — FC layers gain from the
//! approximate FFT but not from the sparse dataflow, and they are a tiny
//! share of ResNet inference.

/// The tiling plan of one matrix–vector product into degree-`n`
/// polynomials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatVecEncoder {
    ni: usize,
    no: usize,
    n: usize,
    /// Columns per chunk (`≤ n`).
    nc: usize,
    /// Number of column chunks.
    col_chunks: usize,
    /// Rows per polynomial (`rows · nc ≤ n`).
    rows_per_block: usize,
    /// Number of row blocks.
    row_blocks: usize,
}

impl MatVecEncoder {
    /// Plans `y = W·x` with `W ∈ Z^{no×ni}` into ring degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or a dimension is zero.
    pub fn new(ni: usize, no: usize, n: usize) -> Self {
        assert!(n.is_power_of_two(), "ring degree must be a power of two");
        assert!(ni > 0 && no > 0, "dimensions must be positive");
        let nc = ni.min(n);
        let col_chunks = ni.div_ceil(nc);
        let rows_per_block = (n / nc).min(no).max(1);
        let row_blocks = no.div_ceil(rows_per_block);
        Self {
            ni,
            no,
            n,
            nc,
            col_chunks,
            rows_per_block,
            row_blocks,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.ni
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.no
    }

    /// Column chunks (vector ciphertexts; partial sums accumulate).
    pub fn col_chunks(&self) -> usize {
        self.col_chunks
    }

    /// Row blocks (independent result ciphertexts).
    pub fn row_blocks(&self) -> usize {
        self.row_blocks
    }

    /// Rows carried per polynomial.
    pub fn rows_per_block(&self) -> usize {
        self.rows_per_block
    }

    /// Weight polynomials the server encodes (`row_blocks × col_chunks`).
    pub fn weight_polys(&self) -> usize {
        self.row_blocks * self.col_chunks
    }

    /// Encodes the input vector into `col_chunks` polynomials.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ni`.
    pub fn encode_vector(&self, x: &[i64]) -> Vec<Vec<i64>> {
        assert_eq!(x.len(), self.ni, "vector length mismatch");
        (0..self.col_chunks)
            .map(|cc| {
                let mut poly = vec![0i64; self.n];
                let base = cc * self.nc;
                let len = self.nc.min(self.ni - base);
                poly[..len].copy_from_slice(&x[base..base + len]);
                poly
            })
            .collect()
    }

    /// Encodes row block `rb` × column chunk `cc` of `W` (row-major
    /// `no×ni`) into one polynomial.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range block indices or a size mismatch.
    pub fn encode_matrix(&self, w: &[i64], rb: usize, cc: usize) -> Vec<i64> {
        assert_eq!(w.len(), self.no * self.ni, "matrix size mismatch");
        assert!(
            rb < self.row_blocks && cc < self.col_chunks,
            "block out of range"
        );
        let mut poly = vec![0i64; self.n];
        let row0 = rb * self.rows_per_block;
        let col0 = cc * self.nc;
        for i in 0..self.rows_per_block.min(self.no - row0) {
            for j in 0..self.nc.min(self.ni - col0) {
                poly[i * self.nc + (self.nc - 1 - j)] = w[(row0 + i) * self.ni + col0 + j];
            }
        }
        poly
    }

    /// The product-polynomial coefficient index carrying output row `i`
    /// (within its block).
    #[inline]
    pub fn output_index(&self, i_in_block: usize) -> usize {
        i_in_block * self.nc + self.nc - 1
    }

    /// Extracts this row block's outputs from the (chunk-accumulated)
    /// product polynomial into its own rows of `y` (length `no`).
    /// Generic over the coefficient type, like
    /// [`crate::encoding::ConvEncoder::decode_band`].
    ///
    /// # Panics
    ///
    /// Panics on size mismatches.
    pub fn decode_block<T: Copy>(&self, prod: &[T], rb: usize, y: &mut [T]) {
        assert_eq!(prod.len(), self.n, "product length mismatch");
        assert_eq!(y.len(), self.no, "output length mismatch");
        let row0 = rb * self.rows_per_block;
        for i in 0..self.rows_per_block.min(self.no - row0) {
            y[row0 + i] = prod[self.output_index(i)];
        }
    }
}

/// Reference matrix–vector product.
pub fn matvec_reference(w: &[i64], x: &[i64], ni: usize, no: usize) -> Vec<i64> {
    assert_eq!(w.len(), no * ni);
    assert_eq!(x.len(), ni);
    (0..no)
        .map(|i| (0..ni).map(|j| w[i * ni + j] * x[j]).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn check(ni: usize, no: usize, n: usize, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let w: Vec<i64> = (0..no * ni).map(|_| rng.gen_range(-8..8)).collect();
        let x: Vec<i64> = (0..ni).map(|_| rng.gen_range(-8..8)).collect();
        let enc = MatVecEncoder::new(ni, no, n);
        let fft = flash_fft::NegacyclicFft::shared(n);
        let xs = enc.encode_vector(&x);
        let mut y = vec![0i64; no];
        for rb in 0..enc.row_blocks() {
            let mut acc = vec![0i64; n];
            for (cc, xp) in xs.iter().enumerate() {
                let wp = enc.encode_matrix(&w, rb, cc);
                for (a, p) in acc.iter_mut().zip(fft.polymul_i64(xp, &wp)) {
                    *a += p as i64;
                }
            }
            enc.decode_block(&acc, rb, &mut y);
        }
        assert_eq!(y, matvec_reference(&w, &x, ni, no), "ni={ni} no={no} n={n}");
    }

    #[test]
    fn single_poly_matvec() {
        check(8, 4, 64, 1); // everything fits in one polynomial
        check(16, 4, 64, 2);
    }

    #[test]
    fn row_blocked_matvec() {
        // 8 rows of width 16 need two 64-degree polys (4 rows each)
        let enc = MatVecEncoder::new(16, 8, 64);
        assert_eq!(enc.rows_per_block(), 4);
        assert_eq!(enc.row_blocks(), 2);
        check(16, 8, 64, 3);
    }

    #[test]
    fn column_chunked_matvec() {
        // ni = 96 > n = 64: two column chunks, partial sums accumulate.
        let enc = MatVecEncoder::new(96, 2, 64);
        assert_eq!(enc.col_chunks(), 2);
        check(96, 2, 64, 4);
    }

    #[test]
    fn blocked_and_chunked_matvec() {
        check(100, 7, 64, 5);
        check(130, 10, 128, 6);
    }

    #[test]
    fn resnet_fc_shape_plan() {
        // ResNet-50's classifier: 2048 -> 1000 at N = 4096.
        let enc = MatVecEncoder::new(2048, 1000, 4096);
        assert_eq!(enc.col_chunks(), 1);
        assert_eq!(enc.rows_per_block(), 2);
        assert_eq!(enc.row_blocks(), 500);
        assert_eq!(enc.weight_polys(), 500);
    }

    #[test]
    fn fc_weight_polys_are_dense() {
        let enc = MatVecEncoder::new(8, 4, 32);
        let w: Vec<i64> = (1..=32).collect();
        let poly = enc.encode_matrix(&w, 0, 0);
        let nnz = poly.iter().filter(|&&v| v != 0).count();
        assert_eq!(nnz, 32, "FC weight polynomials carry no sparsity");
    }
}
