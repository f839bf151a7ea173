//! Small serial linear-algebra kernels used by the driver applications
//! (CholeskyQR, density-matrix purification): Cholesky factorization and
//! triangular inversion. These run redundantly on
//! every rank for small reduced matrices, as the paper's driver algorithms
//! do (§V: CholeskyQR, Rayleigh–Ritz).

use crate::mat::Mat;
use crate::scalar::Scalar;

/// Cholesky factorization `G = RᵀR` of a symmetric positive-definite
/// matrix; returns the upper-triangular `R`.
///
/// # Panics
/// If `G` is not square or a pivot is non-positive (not numerically SPD).
pub fn cholesky_upper<T: Scalar>(g: &Mat<T>) -> Mat<T> {
    let n = g.rows();
    assert_eq!(g.cols(), n, "Cholesky needs a square matrix");
    let mut r = Mat::<T>::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let mut sum = g.get(i, j);
            for k in 0..i {
                sum -= r.get(k, i) * r.get(k, j);
            }
            if i == j {
                assert!(
                    sum > T::ZERO,
                    "matrix not positive definite at pivot {i} (value {sum})"
                );
                r.set(i, j, T::from_f64(sum.to_f64().sqrt()));
            } else {
                r.set(i, j, sum / r.get(i, i));
            }
        }
    }
    r
}

/// Inverse of an upper-triangular matrix by back substitution.
///
/// # Panics
/// If `R` is not square or has a zero diagonal entry.
pub fn upper_triangular_inverse<T: Scalar>(r: &Mat<T>) -> Mat<T> {
    let n = r.rows();
    assert_eq!(r.cols(), n, "inverse needs a square matrix");
    let mut inv = Mat::<T>::zeros(n, n);
    for col in 0..n {
        for i in (0..=col).rev() {
            let mut sum = if i == col { T::ONE } else { T::ZERO };
            for k in i + 1..=col {
                sum -= r.get(i, k) * inv.get(k, col);
            }
            let d = r.get(i, i);
            assert!(d != T::ZERO, "singular triangular matrix at {i}");
            inv.set(i, col, sum / d);
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_naive, GemmOp};
    use crate::random::random_mat;

    /// A well-conditioned SPD test matrix: `G = MᵀM + n·I`.
    fn spd(n: usize, seed: u64) -> Mat<f64> {
        let m = random_mat::<f64>(n, n, seed);
        let mut g = Mat::from_fn(n, n, |i, j| if i == j { n as f64 } else { 0.0 });
        gemm_naive(GemmOp::Trans, GemmOp::NoTrans, 1.0, &m, &m, 1.0, &mut g);
        g
    }

    #[test]
    fn cholesky_reconstructs() {
        let g = spd(12, 3);
        let r = cholesky_upper(&g);
        // R is upper triangular
        for i in 0..12 {
            for j in 0..i {
                assert_eq!(r.get(i, j), 0.0);
            }
        }
        // R^T R == G
        let mut back = Mat::zeros(12, 12);
        gemm_naive(GemmOp::Trans, GemmOp::NoTrans, 1.0, &r, &r, 0.0, &mut back);
        assert!(back.max_abs_diff(&g) < 1e-10 * g.max_abs());
    }

    #[test]
    #[should_panic(expected = "not positive definite")]
    fn cholesky_rejects_indefinite() {
        let g = Mat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        let _ = cholesky_upper(&g);
    }

    #[test]
    fn triangular_inverse() {
        let g = spd(9, 5);
        let r = cholesky_upper(&g);
        let inv = upper_triangular_inverse(&r);
        let mut prod = Mat::zeros(9, 9);
        gemm_naive(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &r,
            &inv,
            0.0,
            &mut prod,
        );
        let eye = Mat::from_fn(9, 9, |i, j| if i == j { 1.0 } else { 0.0 });
        assert!(prod.max_abs_diff(&eye) < 1e-11);
    }

    #[test]
    fn one_by_one() {
        let g = Mat::from_vec(1, 1, vec![4.0f64]);
        let r = cholesky_upper(&g);
        assert_eq!(r.get(0, 0), 2.0);
        assert_eq!(upper_triangular_inverse(&r).get(0, 0), 0.5);
    }
}
