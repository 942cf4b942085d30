//! Block sparse row (BSR) format with square blocks.
//!
//! The block-wise (BW) baseline in the paper prunes whole `b x b` blocks and
//! executes the survivors as small dense GEMMs on tensor cores via the
//! BlockSparse library.  `BsrMatrix` is that storage: a block-level CSR
//! index plus a dense payload per surviving block.

use tw_tensor::Matrix;

/// A block-sparse matrix with square `block_size x block_size` blocks.
///
/// The logical matrix dimensions need not be multiples of the block size;
/// edge blocks are zero-padded internally (matching how BlockSparse pads).
#[derive(Clone, Debug, PartialEq)]
pub struct BsrMatrix {
    rows: usize,
    cols: usize,
    block_size: usize,
    block_rows: usize,
    block_cols: usize,
    /// Block-level CSR row pointers.
    block_row_ptr: Vec<usize>,
    /// Block-column index of each stored block.
    block_col_idx: Vec<usize>,
    /// Dense payload of each stored block (`block_size^2` values, row-major).
    blocks: Vec<Vec<f32>>,
}

impl BsrMatrix {
    /// Builds a BSR matrix from a dense matrix, keeping only blocks that
    /// contain at least one non-zero.
    pub fn from_dense(dense: &Matrix, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let (rows, cols) = dense.shape();
        let block_rows = rows.div_ceil(block_size);
        let block_cols = cols.div_ceil(block_size);
        let mut block_row_ptr = Vec::with_capacity(block_rows + 1);
        let mut block_col_idx = Vec::new();
        let mut blocks = Vec::new();
        block_row_ptr.push(0);
        for br in 0..block_rows {
            let row_range = br * block_size..((br + 1) * block_size).min(rows);
            for bc in 0..block_cols {
                let (c0, c1) = (bc * block_size, ((bc + 1) * block_size).min(cols));
                let row_part = |r: usize| &dense.row(r)[c0..c1];
                if !row_range.clone().any(|r| row_part(r).iter().any(|&v| v != 0.0)) {
                    continue;
                }
                // Edge blocks keep their zero padding.
                let mut payload = vec![0.0f32; block_size * block_size];
                for (dst, r) in payload.chunks_exact_mut(block_size).zip(row_range.clone()) {
                    dst[..c1 - c0].copy_from_slice(row_part(r));
                }
                block_col_idx.push(bc);
                blocks.push(payload);
            }
            block_row_ptr.push(block_col_idx.len());
        }
        Self {
            rows,
            cols,
            block_size,
            block_rows,
            block_cols,
            block_row_ptr,
            block_col_idx,
            blocks,
        }
    }

    /// Number of rows of the logical matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the logical matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block edge length.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of block rows.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of block columns.
    pub fn block_cols(&self) -> usize {
        self.block_cols
    }

    /// Number of stored (surviving) blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Fraction of *blocks* that were pruned (block-level sparsity); this is
    /// what determines BW's compute saving on the tensor core.
    pub fn block_sparsity(&self) -> f64 {
        let total = self.block_rows * self.block_cols;
        if total == 0 {
            return 0.0;
        }
        1.0 - self.num_blocks() as f64 / total as f64
    }

    /// Fraction of stored values that are zero padding or intra-block zeros.
    pub fn intra_block_waste(&self) -> f64 {
        let stored: usize = self.blocks.len() * self.block_size * self.block_size;
        if stored == 0 {
            return 0.0;
        }
        let nonzeros: usize =
            self.blocks.iter().map(|b| b.iter().filter(|&&v| v != 0.0).count()).sum();
        1.0 - nonzeros as f64 / stored as f64
    }

    /// Element-level sparsity of the logical matrix.
    pub fn element_sparsity(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            return 0.0;
        }
        let nonzeros: usize =
            self.blocks.iter().map(|b| b.iter().filter(|&&v| v != 0.0).count()).sum();
        1.0 - nonzeros as f64 / total as f64
    }

    /// Iterator over `(block_row, block_col, payload)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (usize, usize, &[f32])> + '_ {
        (0..self.block_rows).flat_map(move |br| {
            let start = self.block_row_ptr[br];
            let end = self.block_row_ptr[br + 1];
            (start..end).map(move |i| (br, self.block_col_idx[i], self.blocks[i].as_slice()))
        })
    }

    /// Converts back to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (br, bc, payload) in self.iter_blocks() {
            for i in 0..self.block_size {
                for j in 0..self.block_size {
                    let r = br * self.block_size + i;
                    let c = bc * self.block_size + j;
                    if r < self.rows && c < self.cols {
                        out.set(r, c, payload[i * self.block_size + j]);
                    }
                }
            }
        }
        out
    }

    /// Storage bytes: dense block payloads plus 4-byte block indices.
    pub fn storage_bytes(&self, elem_size: usize) -> usize {
        self.blocks.len() * self.block_size * self.block_size * elem_size
            + self.block_col_idx.len() * 4
            + self.block_row_ptr.len() * 4
    }

    /// FLOPs needed to multiply an `m x rows` dense matrix by this BSR matrix
    /// (only surviving blocks contribute) — what the BW cost model charges.
    pub fn spmm_flops(&self, m: usize) -> u64 {
        2 * m as u64 * self.num_blocks() as u64 * (self.block_size * self.block_size) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_diag() -> Matrix {
        // 4x4 matrix with non-zeros only in the two diagonal 2x2 blocks.
        Matrix::from_rows(&[
            &[1.0, 2.0, 0.0, 0.0],
            &[3.0, 4.0, 0.0, 0.0],
            &[0.0, 0.0, 5.0, 6.0],
            &[0.0, 0.0, 7.0, 8.0],
        ])
    }

    #[test]
    fn from_dense_keeps_only_nonzero_blocks() {
        let bsr = BsrMatrix::from_dense(&block_diag(), 2);
        assert_eq!(bsr.num_blocks(), 2);
        assert_eq!(bsr.block_rows(), 2);
        assert_eq!(bsr.block_cols(), 2);
        assert!((bsr.block_sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn round_trip() {
        let dense = block_diag();
        for bs in [1, 2, 3, 4, 5] {
            let bsr = BsrMatrix::from_dense(&dense, bs);
            assert_eq!(bsr.to_dense(), dense, "block size {bs}");
        }
    }

    #[test]
    fn block_size_one_equals_element_sparsity() {
        let dense = block_diag();
        let bsr = BsrMatrix::from_dense(&dense, 1);
        assert_eq!(bsr.num_blocks(), dense.count_nonzeros());
        assert!((bsr.block_sparsity() - dense.sparsity()).abs() < 1e-12);
        assert_eq!(bsr.intra_block_waste(), 0.0);
    }

    #[test]
    fn padding_for_non_multiple_dims() {
        let dense = Matrix::filled(3, 5, 1.0);
        let bsr = BsrMatrix::from_dense(&dense, 2);
        assert_eq!(bsr.block_rows(), 2);
        assert_eq!(bsr.block_cols(), 3);
        assert_eq!(bsr.num_blocks(), 6);
        assert_eq!(bsr.to_dense(), dense);
        // Padded entries count as intra-block waste.
        assert!(bsr.intra_block_waste() > 0.0);
    }

    #[test]
    fn element_sparsity_matches_dense() {
        let dense = block_diag();
        let bsr = BsrMatrix::from_dense(&dense, 2);
        assert!((bsr.element_sparsity() - dense.sparsity()).abs() < 1e-12);
    }

    #[test]
    fn spmm_flops_scales_with_blocks() {
        let bsr = BsrMatrix::from_dense(&block_diag(), 2);
        assert_eq!(bsr.spmm_flops(8), 2 * 8 * 2 * 4);
    }

    #[test]
    fn intra_block_waste_counts_zeros_inside_kept_blocks() {
        let dense = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]);
        let bsr = BsrMatrix::from_dense(&dense, 2);
        assert_eq!(bsr.num_blocks(), 1);
        assert!((bsr.intra_block_waste() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn storage_bytes() {
        let bsr = BsrMatrix::from_dense(&block_diag(), 2);
        assert_eq!(bsr.storage_bytes(4), 2 * 4 * 4 + 2 * 4 + 3 * 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_size_panics() {
        let _ = BsrMatrix::from_dense(&block_diag(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_sparse_dense() -> impl Strategy<Value = Matrix> {
        (1usize..24, 1usize..24, any::<u64>(), 0.0f64..1.0).prop_map(|(r, c, seed, density)| {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            Matrix::from_fn(r, c, |_, _| {
                if rng.gen_bool(density) {
                    rng.gen_range(-1.0..1.0f32)
                } else {
                    0.0
                }
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// BSR round-trips for arbitrary block sizes (including sizes larger
        /// than the matrix).
        #[test]
        fn round_trip(dense in arb_sparse_dense(), bs in 1usize..9) {
            let bsr = BsrMatrix::from_dense(&dense, bs);
            // Exactly the blocks holding a non-zero are stored.
            let (rows, cols) = dense.shape();
            let nonzero = |br: usize, bc: usize| {
                (br * bs..((br + 1) * bs).min(rows))
                    .any(|r| (bc * bs..((bc + 1) * bs).min(cols)).any(|c| dense.get(r, c) != 0.0))
            };
            let expected = (0..bsr.block_rows())
                .map(|br| (0..bsr.block_cols()).filter(|&bc| nonzero(br, bc)).count())
                .sum::<usize>();
            prop_assert_eq!(bsr.num_blocks(), expected);
            prop_assert_eq!(bsr.to_dense(), dense);
        }

        /// When the block size tiles the matrix exactly, block sparsity can
        /// never exceed element sparsity: pruning a block requires all of
        /// its elements to be zero.  (Edge blocks of non-multiple shapes are
        /// smaller, so the bound does not hold there.)
        #[test]
        fn block_sparsity_bounded_by_element_sparsity(
            blocks_r in 1usize..6, blocks_c in 1usize..6, bs in 1usize..6,
            seed in any::<u64>(), density in 0.0f64..1.0,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let dense = Matrix::from_fn(blocks_r * bs, blocks_c * bs, |_, _| {
                if rng.gen_bool(density) { rng.gen_range(-1.0..1.0f32) } else { 0.0 }
            });
            let bsr = BsrMatrix::from_dense(&dense, bs);
            prop_assert!(bsr.block_sparsity() <= dense.sparsity() + 1e-12);
        }
    }
}
