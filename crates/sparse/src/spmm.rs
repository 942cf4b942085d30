//! Sparse matrix multiplication kernels.
//!
//! The baselines in the paper execute their sparse weight matrices with
//! library SpMM kernels (cuSparse for CSR, BlockSparse for BSR).  These CPU
//! kernels are the functional equivalents; the GPU cost of running them is
//! modelled separately by `tw-gpu-sim`.
//!
//! Orientation convention: the DNN GEMM is `C (MxN) = A (MxK) x B (KxN)` with
//! `A` the dense activation and `B` the (sparse) weight matrix, matching the
//! paper's Fig. 4.

use crate::bsr::BsrMatrix;
use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use rayon::prelude::*;
use tw_tensor::Matrix;

/// Dense x CSR: `C = A * B` where `B` is CSR.
pub fn dense_csr_matmul(a: &Matrix, b: &CsrMatrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let m = a.rows();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (p, &aip) in a_row.iter().enumerate() {
            if aip == 0.0 {
                continue;
            }
            let (cols, vals) = b.row_entries(p);
            for (&j, &v) in cols.iter().zip(vals) {
                c_row[j] += aip * v;
            }
        }
    }
    c
}

/// Rayon-parallel dense x CSR.
pub fn dense_csr_matmul_par(a: &Matrix, b: &CsrMatrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let m = a.rows();
    let n = b.cols();
    let mut out = vec![0.0f32; m * n];
    out.par_chunks_mut(n).enumerate().for_each(|(i, c_row)| {
        for (p, &aip) in a.row(i).iter().enumerate() {
            if aip == 0.0 {
                continue;
            }
            let (cols, vals) = b.row_entries(p);
            for (&j, &v) in cols.iter().zip(vals) {
                c_row[j] += aip * v;
            }
        }
    });
    Matrix::from_vec(m, n, out)
}

/// The serving-side batched entry point: many per-request activation
/// matrices against one shared CSR weight, `C_i = A_i * B`, parallel over
/// batch items.  This is the kernel shape a dynamic batcher reduces a batch
/// of CSR-baseline inference requests to.
pub fn dense_csr_matmul_batch(activations: &[&Matrix], b: &CsrMatrix) -> Vec<Matrix> {
    activations.par_iter().map(|a| dense_csr_matmul(a, b)).collect()
}

/// Dense x CSC: `C = A * B` where `B` is CSC.
///
/// This is the kernel used for the TEW element-wise overlay, which the paper
/// stores in CSC per tile and executes separately from the dense TW part
/// (exploiting linearity of matrix multiplication).
pub fn dense_csc_matmul(a: &Matrix, b: &CscMatrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let m = a.rows();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for j in 0..n {
        let (rows, vals) = b.col_entries(j);
        for i in 0..m {
            let mut acc = 0.0;
            for (&p, &v) in rows.iter().zip(vals) {
                acc += a.get(i, p) * v;
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// CSR x dense: `C = B * A` where the sparse matrix is on the left.  Used for
/// SpMV-style layers (e.g. LSTM gates with a sparse weight applied to a dense
/// activation vector batch).
pub fn csr_dense_matmul(b: &CsrMatrix, a: &Matrix) -> Matrix {
    assert_eq!(b.cols(), a.rows(), "inner dimension mismatch");
    let m = b.rows();
    let n = a.cols();
    let mut c = Matrix::zeros(m, n);
    for r in 0..m {
        let (cols, vals) = b.row_entries(r);
        let c_row = c.row_mut(r);
        for (&p, &v) in cols.iter().zip(vals) {
            let a_row = a.row(p);
            for j in 0..n {
                c_row[j] += v * a_row[j];
            }
        }
    }
    c
}

/// Dense x BSR: `C = A * B` where `B` is block-sparse; each surviving block
/// contributes one small dense GEMM, mirroring the BlockSparse execution.
pub fn dense_bsr_matmul(a: &Matrix, b: &BsrMatrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let m = a.rows();
    let n = b.cols();
    let bs = b.block_size();
    let mut c = Matrix::zeros(m, n);
    for (br, bc, payload) in b.iter_blocks() {
        let k0 = br * bs;
        let n0 = bc * bs;
        for i in 0..m {
            for jj in 0..bs {
                let j = n0 + jj;
                if j >= n {
                    continue;
                }
                let mut acc = 0.0;
                for kk in 0..bs {
                    let k = k0 + kk;
                    if k >= a.cols() {
                        continue;
                    }
                    acc += a.get(i, k) * payload[kk * bs + jj];
                }
                c[(i, j)] += acc;
            }
        }
    }
    c
}

/// Rayon-parallel dense x BSR, splitting the output by activation rows.
/// This is the kernel the BSR serving backend runs: a fused batch lives on
/// the rows of `a`, so row-parallelism is batch-parallelism.
pub fn dense_bsr_matmul_par(a: &Matrix, b: &BsrMatrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let m = a.rows();
    let n = b.cols();
    let bs = b.block_size();
    let mut out = vec![0.0f32; m * n];
    out.par_chunks_mut(n).enumerate().for_each(|(i, c_row)| {
        for (br, bc, payload) in b.iter_blocks() {
            let k0 = br * bs;
            let n0 = bc * bs;
            for jj in 0..bs {
                let j = n0 + jj;
                if j >= n {
                    continue;
                }
                let mut acc = 0.0;
                for kk in 0..bs {
                    let k = k0 + kk;
                    if k >= a.cols() {
                        continue;
                    }
                    acc += a.get(i, k) * payload[kk * bs + jj];
                }
                c_row[j] += acc;
            }
        }
    });
    Matrix::from_vec(m, n, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_tensor::{gemm, DEFAULT_TOL};

    fn random_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| {
            if rng.gen_bool(density) {
                rng.gen_range(-1.0..1.0f32)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn dense_csr_matches_dense_gemm() {
        let a = Matrix::random_uniform(9, 14, 1.0, 1);
        let b_dense = random_sparse(14, 11, 0.3, 2);
        let b = CsrMatrix::from_dense(&b_dense);
        let reference = gemm(&a, &b_dense);
        assert!(dense_csr_matmul(&a, &b).approx_eq(&reference, DEFAULT_TOL));
        assert!(dense_csr_matmul_par(&a, &b).approx_eq(&reference, DEFAULT_TOL));
    }

    #[test]
    fn dense_csc_matches_dense_gemm() {
        let a = Matrix::random_uniform(7, 10, 1.0, 3);
        let b_dense = random_sparse(10, 8, 0.25, 4);
        let b = CscMatrix::from_dense(&b_dense);
        assert!(dense_csc_matmul(&a, &b).approx_eq(&gemm(&a, &b_dense), DEFAULT_TOL));
    }

    #[test]
    fn csr_dense_matches_dense_gemm() {
        let b_dense = random_sparse(12, 9, 0.4, 5);
        let b = CsrMatrix::from_dense(&b_dense);
        let a = Matrix::random_uniform(9, 6, 1.0, 6);
        assert!(csr_dense_matmul(&b, &a).approx_eq(&gemm(&b_dense, &a), DEFAULT_TOL));
    }

    #[test]
    fn dense_bsr_matches_dense_gemm() {
        let a = Matrix::random_uniform(8, 12, 1.0, 7);
        let b_dense = random_sparse(12, 10, 0.35, 8);
        for bs in [1, 2, 3, 4] {
            let b = BsrMatrix::from_dense(&b_dense, bs);
            assert!(
                dense_bsr_matmul(&a, &b).approx_eq(&gemm(&a, &b_dense), DEFAULT_TOL),
                "block size {bs}"
            );
        }
    }

    #[test]
    fn batched_dense_csr_matches_individual() {
        let b_dense = random_sparse(10, 8, 0.3, 12);
        let b = CsrMatrix::from_dense(&b_dense);
        let a1 = Matrix::random_uniform(3, 10, 1.0, 13);
        let a2 = Matrix::random_uniform(6, 10, 1.0, 14);
        let outs = dense_csr_matmul_batch(&[&a1, &a2], &b);
        assert_eq!(outs.len(), 2);
        assert!(outs[0].approx_eq(&gemm(&a1, &b_dense), DEFAULT_TOL));
        assert!(outs[1].approx_eq(&gemm(&a2, &b_dense), DEFAULT_TOL));
    }

    #[test]
    fn empty_sparse_matrix_gives_zero_output() {
        let a = Matrix::random_uniform(4, 5, 1.0, 11);
        let b = CsrMatrix::from_dense(&Matrix::zeros(5, 3));
        let c = dense_csr_matmul(&a, &b);
        assert_eq!(c.count_zeros(), 12);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(4, 5);
        let b = CsrMatrix::from_dense(&Matrix::zeros(6, 3));
        let _ = dense_csr_matmul(&a, &b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tw_tensor::{gemm, DEFAULT_TOL};

    #[derive(Debug, Clone)]
    struct Case {
        a: Matrix,
        b: Matrix,
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        (1usize..14, 1usize..14, 1usize..14, any::<u64>(), 0.05f64..0.95).prop_map(
            |(m, k, n, seed, density)| {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-1.0..1.0));
                let b = Matrix::from_fn(k, n, |_, _| {
                    if rng.gen_bool(density) {
                        rng.gen_range(-1.0..1.0)
                    } else {
                        0.0
                    }
                });
                Case { a, b }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every sparse kernel agrees with the dense reference regardless of
        /// shape and sparsity.
        #[test]
        fn all_formats_agree_with_dense(case in arb_case(), bs in 1usize..6) {
            let reference = gemm(&case.a, &case.b);
            let csr = CsrMatrix::from_dense(&case.b);
            let csc = CscMatrix::from_dense(&case.b);
            let bsr = BsrMatrix::from_dense(&case.b, bs);
            prop_assert!(dense_csr_matmul(&case.a, &csr).approx_eq(&reference, DEFAULT_TOL));
            prop_assert!(dense_csr_matmul_par(&case.a, &csr).approx_eq(&reference, DEFAULT_TOL));
            prop_assert!(dense_csc_matmul(&case.a, &csc).approx_eq(&reference, DEFAULT_TOL));
            prop_assert!(dense_bsr_matmul(&case.a, &bsr).approx_eq(&reference, DEFAULT_TOL));
            prop_assert!(dense_bsr_matmul_par(&case.a, &bsr).approx_eq(&reference, DEFAULT_TOL));
        }
    }
}
