//! The executable tile-wise sparse matrix.
//!
//! After pruning, each weight tile keeps only its surviving rows and columns
//! as a small dense payload (the offline pre-processing of Fig. 7: "We
//! remove the pruned rows and columns in the weight matrix tile, which can
//! be done offline before the model inference starts"), plus the two mask
//! vectors the masked GEMM kernel consumes at run time.

use rayon::prelude::*;
use tw_gpu_sim::TwTileShape;
use tw_pruning::{TileWiseMask, TwTile};
use tw_sparse::RowColMask;
use tw_tensor::Matrix;

/// Output columns one pass of the tile kernel accumulates in registers.
/// It must stay well below the served G = 32: a tile narrower than one
/// block runs entirely in the slower remainder loop.
const NR: usize = 16;

/// Multiply-adds (`rows x kept_elements`) from which [`TileWiseMatrix::matmul`]
/// splits its output rows across cores.  A BERT-base layer at 128 rows is
/// well above it; a serving batch (at most 8 rows of a ~9k-weight layer)
/// is far below it, so serving workers never spawn threads.
const PARALLEL_MIN_MACS: usize = 1 << 20;

/// One pre-processed weight tile: compacted payload plus masks.
#[derive(Clone, Debug, PartialEq)]
pub struct CompactTile {
    /// Original column indices of the tile's surviving columns.
    col_indices: Vec<usize>,
    /// Keep mask over the K dimension.
    row_keep: Vec<bool>,
    /// Original row indices of the tile's surviving rows (the `true`
    /// positions of `row_keep`).
    row_indices: Vec<usize>,
    /// Dense payload of shape `kept_rows x kept_cols` (surviving rows and
    /// columns only, in original relative order).
    payload: Matrix,
}

impl CompactTile {
    /// Number of surviving rows.
    pub fn kept_rows(&self) -> usize {
        self.payload.rows()
    }

    /// Number of surviving columns.
    pub fn kept_cols(&self) -> usize {
        self.payload.cols()
    }

    /// The compacted payload.
    pub fn payload(&self) -> &Matrix {
        &self.payload
    }

    /// The run-time masks of this tile (`mask_k`, `mask_n` of Listing 1).
    pub fn masks(&self) -> RowColMask {
        // The column mask is expressed over the tile's own columns; all of
        // them survive (column pruning already removed the others), so the
        // kernel-level mask_n is all-true over kept columns.
        RowColMask::new(self.row_keep.clone(), vec![true; self.col_indices.len()])
    }
}

/// A weight matrix pruned with the tile-wise pattern, stored in its
/// executable (pre-compacted) form.
#[derive(Clone, Debug, PartialEq)]
pub struct TileWiseMatrix {
    k: usize,
    n: usize,
    granularity: usize,
    tiles: Vec<CompactTile>,
}

impl TileWiseMatrix {
    /// Builds the executable representation from the original dense weights
    /// and a tile-wise pruning decision.
    ///
    /// # Panics
    /// Panics if the mask's dimensions do not match the weight matrix.
    pub fn from_mask(weights: &Matrix, mask: &TileWiseMask) -> Self {
        assert_eq!(weights.shape(), (mask.k(), mask.n()), "weights shape must match the mask");
        let tiles = mask
            .tiles()
            .iter()
            .map(|tile: &TwTile| {
                let row_indices = tile.kept_row_indices();
                let payload = weights.select_rows(&row_indices).select_cols(&tile.col_indices);
                CompactTile {
                    col_indices: tile.col_indices.clone(),
                    row_keep: tile.row_keep.clone(),
                    row_indices,
                    payload,
                }
            })
            .collect();
        Self { k: mask.k(), n: mask.n(), granularity: mask.granularity(), tiles }
    }

    /// Original K dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Original N dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tiling granularity G.
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// The pre-processed tiles.
    pub fn tiles(&self) -> &[CompactTile] {
        &self.tiles
    }

    /// Number of surviving weight elements.
    pub fn kept_elements(&self) -> usize {
        self.tiles.iter().map(|t| t.payload.len()).sum()
    }

    /// Achieved element sparsity.
    pub fn sparsity(&self) -> f64 {
        let total = self.k * self.n;
        if total == 0 {
            return 0.0;
        }
        1.0 - self.kept_elements() as f64 / total as f64
    }

    /// Storage footprint in bytes: compacted payloads plus int32 masks.
    pub fn storage_bytes(&self, elem_size: usize) -> usize {
        self.tiles
            .iter()
            .map(|t| t.payload.len() * elem_size + 4 * (t.row_keep.len() + t.col_indices.len()))
            .sum()
    }

    /// Tile shapes for the GPU cost model.
    pub fn tile_shapes(&self) -> Vec<TwTileShape> {
        self.tiles
            .iter()
            .map(|t| TwTileShape { kept_rows: t.kept_rows(), kept_cols: t.kept_cols() })
            .collect()
    }

    /// Reconstructs the (zero-filled) dense weight matrix — the masked dense
    /// matrix the pruned model is mathematically equivalent to.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.k, self.n);
        for tile in &self.tiles {
            for (pr, &r) in tile.row_indices.iter().enumerate() {
                for (pc, &c) in tile.col_indices.iter().enumerate() {
                    out.set(r, c, tile.payload.get(pr, pc));
                }
            }
        }
        out
    }

    /// Multiplies a dense activation matrix by this sparse weight matrix:
    /// `C (m x n) = A (m x k) * W_tw (k x n)`.
    ///
    /// This is the functional equivalent of the batched masked GEMM of
    /// Fig. 7: each tile contributes a small dense GEMM over its surviving
    /// rows/columns, scattered into the output at the tile's original column
    /// positions.  Each output sums its products in ascending K order and
    /// skips zero activations, like [`tw_tensor::gemm()`], so the result equals
    /// `gemm(a, &self.to_dense())` exactly.
    ///
    /// From about 1M multiply-adds (`rows x kept_elements()`) the output
    /// rows are cut into bands, at least two per thread, and each band runs
    /// every tile on its own rows.
    pub fn matmul(&self, a: &Matrix) -> Matrix {
        assert_eq!(a.cols(), self.k, "activation K must match the weight matrix");
        let (m, n) = (a.rows(), self.n);
        let mut out = vec![0.0f32; m * n];
        if m * self.kept_elements() < PARALLEL_MIN_MACS {
            self.matmul_rows(a, 0, &mut out);
        } else {
            // The pool runs a job with fewer than two chunks per thread serially.
            let band_rows = m.div_ceil(2 * rayon::current_num_threads());
            out.par_chunks_mut(band_rows * n)
                .enumerate()
                .for_each(|(band, rows)| self.matmul_rows(a, band * band_rows, rows));
        }
        Matrix::from_vec(m, n, out)
    }

    /// Computes the output rows starting at `first_row` into `out` (whole
    /// rows of width `n`, zero on entry).
    fn matmul_rows(&self, a: &Matrix, first_row: usize, out: &mut [f32]) {
        // One activation row's nonzero kept activations, as payload row
        // offsets and values.
        let mut offsets = vec![0usize; self.k];
        let mut values = vec![0.0f32; self.k];
        for tile in &self.tiles {
            let kept_cols = tile.kept_cols();
            let payload = tile.payload.as_slice();
            for (i, out_row) in out.chunks_exact_mut(self.n).enumerate() {
                let a_row = a.row(first_row + i);
                let mut len = 0;
                for (pr, &r) in tile.row_indices.iter().enumerate() {
                    // Branch-free: always write, advance only past nonzeros.
                    offsets[len] = pr * kept_cols;
                    values[len] = a_row[r];
                    len += usize::from(a_row[r] != 0.0);
                }
                let (offsets, values) = (&offsets[..len], &values[..len]);
                let mut blocks = tile.col_indices.chunks_exact(NR);
                for (b, cols) in (&mut blocks).enumerate() {
                    let mut acc = [0.0f32; NR];
                    accumulate(payload, offsets, values, b * NR, &mut acc);
                    scatter_add(out_row, cols, &acc);
                }
                let tail = blocks.remainder();
                if !tail.is_empty() {
                    let mut acc = [0.0f32; NR];
                    let acc = &mut acc[..tail.len()];
                    accumulate(payload, offsets, values, kept_cols - tail.len(), acc);
                    scatter_add(out_row, tail, acc);
                }
            }
        }
    }
}

/// `acc[j] += values[t] * payload[offsets[t] + col0 + j]` over every `t` in
/// order: one column block of one output row.
#[inline(always)]
fn accumulate(payload: &[f32], offsets: &[usize], values: &[f32], col0: usize, acc: &mut [f32]) {
    for (&offset, &v) in offsets.iter().zip(values) {
        let start = offset + col0;
        let w_row = &payload[start..start + acc.len()];
        for (c, &w) in acc.iter_mut().zip(w_row) {
            *c += v * w;
        }
    }
}

/// Adds a block's accumulators into the output row at their original columns.
#[inline(always)]
fn scatter_add(out_row: &mut [f32], cols: &[usize], acc: &[f32]) {
    for (&c, &v) in cols.iter().zip(acc) {
        out_row[c] += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_pruning::{tw, ImportanceScores, SparsityTarget, TileWiseConfig};
    use tw_tensor::gemm;

    fn pruned_pair(seed: u64, sparsity: f64, g: usize) -> (Matrix, TileWiseMask) {
        let weights = Matrix::random_normal(96, 160, 1.0, seed);
        let scores = ImportanceScores::magnitude(&weights);
        let mask =
            tw::prune(&scores, &TileWiseConfig::with_granularity(g), SparsityTarget::new(sparsity));
        (weights, mask)
    }

    #[test]
    fn dense_reconstruction_matches_masked_weights() {
        let (weights, mask) = pruned_pair(1, 0.6, 32);
        let twm = TileWiseMatrix::from_mask(&weights, &mask);
        let expected = mask.to_pattern_mask().apply(&weights);
        assert_eq!(twm.to_dense(), expected);
        assert!((twm.sparsity() - mask.sparsity()).abs() < 1e-12);
    }

    #[test]
    fn matmul_equals_masked_dense_gemm() {
        for (seed, sparsity, g) in [(2, 0.3, 16), (3, 0.75, 32), (4, 0.9, 64), (5, 0.5, 160)] {
            let (weights, mask) = pruned_pair(seed, sparsity, g);
            let twm = TileWiseMatrix::from_mask(&weights, &mask);
            let a = Matrix::random_uniform(24, 96, 1.0, seed + 100);
            let reference = gemm(&a, &mask.to_pattern_mask().apply(&weights));
            assert_eq!(twm.matmul(&a), reference, "mismatch at sparsity {sparsity} G={g}");
        }
    }

    #[test]
    fn tile_shapes_match_mask() {
        let (weights, mask) = pruned_pair(6, 0.7, 32);
        let twm = TileWiseMatrix::from_mask(&weights, &mask);
        let shapes = twm.tile_shapes();
        assert_eq!(shapes.len(), mask.tiles().len());
        for (shape, tile) in shapes.iter().zip(mask.tiles()) {
            assert_eq!(shape.kept_rows, tile.kept_rows());
            assert_eq!(shape.kept_cols, tile.kept_cols());
        }
    }

    #[test]
    fn storage_shrinks_with_sparsity() {
        let (weights, low) = pruned_pair(7, 0.25, 32);
        let (_, high) = pruned_pair(7, 0.85, 32);
        let twm_low = TileWiseMatrix::from_mask(&weights, &low);
        let twm_high = TileWiseMatrix::from_mask(&weights, &high);
        assert!(twm_high.storage_bytes(2) < twm_low.storage_bytes(2));
        // Compacted storage (plus masks) is far below the dense footprint at
        // high sparsity.
        assert!(twm_high.storage_bytes(2) < 96 * 160 * 2);
    }

    #[test]
    fn tile_masks_expose_row_and_col_vectors() {
        let (weights, mask) = pruned_pair(8, 0.5, 32);
        let twm = TileWiseMatrix::from_mask(&weights, &mask);
        for tile in twm.tiles() {
            let masks = tile.masks();
            assert_eq!(masks.kept_rows(), tile.kept_rows());
            assert_eq!(masks.kept_cols(), tile.kept_cols());
        }
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn shape_mismatch_panics() {
        let (_, mask) = pruned_pair(9, 0.5, 32);
        let wrong = Matrix::zeros(10, 10);
        let _ = TileWiseMatrix::from_mask(&wrong, &mask);
    }

    #[test]
    #[should_panic(expected = "activation K must match")]
    fn matmul_rejects_bad_activation_shape() {
        let (weights, mask) = pruned_pair(10, 0.5, 32);
        let twm = TileWiseMatrix::from_mask(&weights, &mask);
        let _ = twm.matmul(&Matrix::zeros(4, 7));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tw_pruning::{tw, ImportanceScores, SparsityTarget, TileWiseConfig};
    use tw_tensor::gemm;

    /// Uniform activations with the negative half clamped to zero, as a
    /// hidden layer sees them after ReLU.
    fn relu_activations(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut a = Matrix::random_uniform(rows, cols, 1.0, seed);
        a.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The executable TW matrix is always functionally identical to the
        /// masked dense matrix, for arbitrary shapes, granularities and
        /// sparsities.
        #[test]
        fn matmul_always_matches_masked_dense(
            k in 8usize..48, n in 8usize..48, m in 1usize..12,
            g in 1usize..32, sparsity in 0.05f64..0.9, seed in any::<u64>(),
        ) {
            let weights = Matrix::random_uniform(k, n, 1.0, seed);
            let scores = ImportanceScores::magnitude(&weights);
            let mask = tw::prune(
                &scores,
                &TileWiseConfig::with_granularity(g),
                SparsityTarget::new(sparsity),
            );
            let twm = TileWiseMatrix::from_mask(&weights, &mask);
            let a = Matrix::random_uniform(m, k, 1.0, seed.wrapping_add(1));
            let reference = gemm(&a, &mask.to_pattern_mask().apply(&weights));
            prop_assert_eq!(twm.matmul(&a), reference);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// On a BERT-shaped layer with ReLU-clamped inputs, `matmul` equals
        /// the dense reference bit for bit, on the serial path (one row) and
        /// on the banded path (13 rows, which do not split evenly into bands,
        /// and 130 rows).
        #[test]
        fn matmul_is_exactly_dense_gemm_on_both_paths(
            pick in 0usize..3, sparsity in 0.5f64..0.8, seed in any::<u64>(),
        ) {
            let rows = [1, 13, 130][pick];
            let weights = Matrix::random_normal(768, 768, 1.0, seed);
            let mask = tw::prune(
                &ImportanceScores::magnitude(&weights),
                &TileWiseConfig::with_granularity(128),
                SparsityTarget::new(sparsity),
            );
            let twm = TileWiseMatrix::from_mask(&weights, &mask);
            prop_assert_eq!(rows * twm.kept_elements() >= PARALLEL_MIN_MACS, rows > 1);
            let a = relu_activations(rows, 768, seed.wrapping_add(1));
            prop_assert!(a.count_zeros() > 0);
            prop_assert_eq!(twm.matmul(&a), gemm(&a, &twm.to_dense()));
        }
    }
}
