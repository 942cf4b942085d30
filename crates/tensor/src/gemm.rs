//! Dense GEMM kernels.
//!
//! The paper's entire premise is that commodity accelerators execute *tiled
//! dense GEMM*.  This module provides functionally exact CPU implementations
//! of the kernels the rest of the workspace relies on:
//!
//! * [`gemm`] — reference triple loop (ikj order, cache friendly for
//!   row-major operands).
//! * [`gemm_blocked`] — the tiled formulation mirroring Fig. 4 ①: the output
//!   is computed tile by tile, each tile touching `Ty` rows of `A` and `G`
//!   columns of `B`.
//! * [`gemm_par`] — rayon-parallel over output row blocks, standing in for
//!   the many-SM parallel execution.
//! * [`gemm_masked`] — GEMM that skips pruned rows/columns of `B` according
//!   to `mask_k` / `mask_n`, i.e. the `StreamMaskedGEMM` kernel of Listing 1.

use crate::matrix::Matrix;
use rayon::prelude::*;

/// Shape of a GEMM `C(MxN) = A(MxK) * B(KxN)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of `A` and `C`.
    pub m: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
    /// Columns of `A` / rows of `B` (the reduction dimension).
    pub k: usize,
}

impl GemmShape {
    /// Convenience constructor.
    pub const fn new(m: usize, n: usize, k: usize) -> Self {
        Self { m, n, k }
    }

    /// Number of floating point operations (multiply + add counted
    /// separately), the quantity the paper's FLOPS-efficiency counter uses.
    pub const fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Bytes moved assuming each operand is read/written exactly once.
    pub const fn min_bytes(&self, elem_size: usize) -> u64 {
        ((self.m * self.k + self.k * self.n + self.m * self.n) * elem_size) as u64
    }
}

/// Reference GEMM: `C = A * B`.
///
/// # Panics
/// Panics if the inner dimensions do not agree.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "GEMM inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let aip = a.get(i, p);
            if aip == 0.0 {
                continue;
            }
            let b_row = b.row(p);
            let c_row = c.row_mut(i);
            for j in 0..n {
                c_row[j] += aip * b_row[j];
            }
        }
    }
    c
}

/// Tiled GEMM with output tiles of `ty x g` (Fig. 4 ①).
///
/// Functionally identical to [`gemm`]; the tiling only changes the loop
/// structure, which is exactly the property the tile-wise pattern exploits.
pub fn gemm_blocked(a: &Matrix, b: &Matrix, ty: usize, g: usize) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "GEMM inner dimension mismatch");
    assert!(ty > 0 && g > 0, "tile sizes must be positive");
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i0 in (0..m).step_by(ty) {
        let i1 = (i0 + ty).min(m);
        for j0 in (0..n).step_by(g) {
            let j1 = (j0 + g).min(n);
            // One output tile: rows [i0, i1) x cols [j0, j1).
            for i in i0..i1 {
                for p in 0..k {
                    let aip = a.get(i, p);
                    if aip == 0.0 {
                        continue;
                    }
                    for j in j0..j1 {
                        c[(i, j)] += aip * b.get(p, j);
                    }
                }
            }
        }
    }
    c
}

/// Rayon-parallel GEMM, splitting the output by rows across the thread pool.
pub fn gemm_par(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "GEMM inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = vec![0.0f32; m * n];
    out.par_chunks_mut(n).enumerate().for_each(|(i, c_row)| {
        for p in 0..k {
            let aip = a.get(i, p);
            if aip == 0.0 {
                continue;
            }
            let b_row = b.row(p);
            for j in 0..n {
                c_row[j] += aip * b_row[j];
            }
        }
    });
    Matrix::from_vec(m, n, out)
}

/// Masked GEMM over one weight tile (Listing 1's `StreamMaskedGEMM`).
///
/// `mask_k[p]` is false when row `p` of `B` has been pruned (so the
/// corresponding column of `A` is skipped), and `mask_n[j]` is false when
/// column `j` of `B` has been pruned (so column `j` of `C` is left zero).
///
/// `b` is supplied *pre-compacted*: it contains only the kept rows/columns,
/// in their original relative order, exactly as the paper stores `B_tile`
/// after the offline pre-processing step.
pub fn gemm_masked(a: &Matrix, b_compact: &Matrix, mask_k: &[bool], mask_n: &[bool]) -> Matrix {
    let kept_k: Vec<usize> =
        mask_k.iter().enumerate().filter_map(|(i, &keep)| keep.then_some(i)).collect();
    let kept_n: Vec<usize> =
        mask_n.iter().enumerate().filter_map(|(j, &keep)| keep.then_some(j)).collect();
    assert_eq!(a.cols(), mask_k.len(), "mask_k length must match K");
    assert_eq!(
        b_compact.shape(),
        (kept_k.len(), kept_n.len()),
        "compacted B shape must match mask survivor counts"
    );
    let m = a.rows();
    let n = mask_n.len();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for (bp, &p) in kept_k.iter().enumerate() {
            let aip = a.get(i, p);
            if aip == 0.0 {
                continue;
            }
            let b_row = b_compact.row(bp);
            for (bj, &j) in kept_n.iter().enumerate() {
                c[(i, j)] += aip * b_row[bj];
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_TOL;

    fn small_a() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])
    }

    fn small_b() -> Matrix {
        Matrix::from_rows(&[&[7.0, 8.0, 9.0], &[10.0, 11.0, 12.0]])
    }

    #[test]
    fn gemm_known_result() {
        let c = gemm(&small_a(), &small_b());
        let expected =
            Matrix::from_rows(&[&[27.0, 30.0, 33.0], &[61.0, 68.0, 75.0], &[95.0, 106.0, 117.0]]);
        assert!(c.approx_eq(&expected, DEFAULT_TOL));
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = Matrix::random_uniform(6, 6, 1.0, 1);
        let c = gemm(&a, &Matrix::identity(6));
        assert!(c.approx_eq(&a, DEFAULT_TOL));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_shape_mismatch_panics() {
        let _ = gemm(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }

    #[test]
    fn blocked_matches_reference() {
        let a = Matrix::random_uniform(33, 47, 1.0, 2);
        let b = Matrix::random_uniform(47, 29, 1.0, 3);
        let reference = gemm(&a, &b);
        for (ty, g) in [(8, 8), (16, 32), (33, 29), (5, 7)] {
            let c = gemm_blocked(&a, &b, ty, g);
            assert!(c.approx_eq(&reference, DEFAULT_TOL), "tile {ty}x{g}");
        }
    }

    #[test]
    fn parallel_matches_reference() {
        let a = Matrix::random_uniform(40, 64, 1.0, 4);
        let b = Matrix::random_uniform(64, 24, 1.0, 5);
        assert!(gemm_par(&a, &b).approx_eq(&gemm(&a, &b), DEFAULT_TOL));
    }

    #[test]
    fn masked_gemm_equals_zeroed_dense() {
        let k = 12;
        let n = 10;
        let a = Matrix::random_uniform(7, k, 1.0, 6);
        let b = Matrix::random_uniform(k, n, 1.0, 7);
        let mask_k: Vec<bool> = (0..k).map(|i| i % 3 != 0).collect();
        let mask_n: Vec<bool> = (0..n).map(|j| j != 2 && j != 7).collect();

        // Dense reference: zero the pruned rows/cols of B.
        let mut b_zeroed = b.clone();
        for (p, &keep) in mask_k.iter().enumerate() {
            if !keep {
                for j in 0..n {
                    b_zeroed.set(p, j, 0.0);
                }
            }
        }
        for (j, &keep) in mask_n.iter().enumerate() {
            if !keep {
                for p in 0..k {
                    b_zeroed.set(p, j, 0.0);
                }
            }
        }
        let reference = gemm(&a, &b_zeroed);

        // Compacted B: only kept rows and cols.
        let kept_rows: Vec<usize> = (0..k).filter(|&p| mask_k[p]).collect();
        let kept_cols: Vec<usize> = (0..n).filter(|&j| mask_n[j]).collect();
        let b_compact = b.select_rows(&kept_rows).select_cols(&kept_cols);
        let c = gemm_masked(&a, &b_compact, &mask_k, &mask_n);
        assert!(c.approx_eq(&reference, DEFAULT_TOL));
    }

    #[test]
    fn masked_gemm_all_pruned_is_zero() {
        let a = Matrix::random_uniform(3, 4, 1.0, 8);
        let b_compact = Matrix::zeros(0, 0);
        let c = gemm_masked(&a, &b_compact, &[false; 4], &[false; 5]);
        assert_eq!(c.shape(), (3, 5));
        assert_eq!(c.count_zeros(), 15);
    }

    #[test]
    fn shape_flops_and_bytes() {
        let s = GemmShape::new(128, 768, 768);
        assert_eq!(s.flops(), 2 * 128 * 768 * 768);
        assert_eq!(s.min_bytes(2), ((128 * 768 + 768 * 768 + 128 * 768) * 2) as u64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::DEFAULT_TOL;
    use proptest::prelude::*;

    fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
        (1..=max_dim, 1..=max_dim, any::<u64>())
            .prop_map(|(r, c, seed)| Matrix::random_uniform(r, c, 1.0, seed))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Blocked and parallel GEMM agree with the reference for arbitrary
        /// shapes and tile sizes.
        #[test]
        fn gemm_variants_agree(
            m in 1usize..24, n in 1usize..24, k in 1usize..24,
            ty in 1usize..16, g in 1usize..16, seed in any::<u64>(),
        ) {
            let a = Matrix::random_uniform(m, k, 1.0, seed);
            let b = Matrix::random_uniform(k, n, 1.0, seed.wrapping_add(1));
            let reference = gemm(&a, &b);
            prop_assert!(gemm_blocked(&a, &b, ty, g).approx_eq(&reference, DEFAULT_TOL));
            prop_assert!(gemm_par(&a, &b).approx_eq(&reference, DEFAULT_TOL));
        }

        /// (A * B)^T == B^T * A^T
        #[test]
        fn gemm_transpose_identity(a in arb_matrix(16), b_cols in 1usize..16, seed in any::<u64>()) {
            let b = Matrix::random_uniform(a.cols(), b_cols, 1.0, seed);
            let left = gemm(&a, &b).transpose();
            let right = gemm(&b.transpose(), &a.transpose());
            prop_assert!(left.approx_eq(&right, DEFAULT_TOL));
        }

        /// GEMM is linear in A: (A1 + A2) * B == A1*B + A2*B.
        #[test]
        fn gemm_is_linear(m in 1usize..12, n in 1usize..12, k in 1usize..12, seed in any::<u64>()) {
            let a1 = Matrix::random_uniform(m, k, 1.0, seed);
            let a2 = Matrix::random_uniform(m, k, 1.0, seed.wrapping_add(7));
            let b = Matrix::random_uniform(k, n, 1.0, seed.wrapping_add(13));
            let left = gemm(&a1.add(&a2), &b);
            let right = gemm(&a1, &b).add(&gemm(&a2, &b));
            prop_assert!(left.approx_eq(&right, 5e-3));
        }
    }
}
