//! Householder QR factorisation and least-squares solves.
//!
//! The measurement systems built by the tomography algorithms are usually
//! over-determined (more path / path-pair equations than links) and noisy
//! (the right-hand sides are empirical log-probabilities), so the workhorse
//! solver is a QR-based least-squares solve.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::DEFAULT_TOLERANCE;

/// Householder QR factorisation `A = Q·R` of an `m × n` matrix with
/// `m >= n`.
///
/// The factorisation is stored compactly: the Householder vectors live in
/// the lower trapezoid of `qr` and the upper triangle holds `R`.
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    qr: Matrix,
    /// The scalar `beta` of each Householder reflector `H = I - beta v vᵀ`.
    betas: Vec<f64>,
    /// Diagonal entries of `R`, kept separately for rank checks.
    r_diag: Vec<f64>,
}

impl QrDecomposition {
    /// Factorises `a`. Requires `a.rows() >= a.cols()` and a non-empty,
    /// finite matrix.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if a.is_empty() {
            return Err(LinalgError::Empty);
        }
        if a.rows() < a.cols() {
            return Err(LinalgError::DimensionMismatch {
                operation: "QrDecomposition::new (requires rows >= cols)",
                expected: a.cols(),
                actual: a.rows(),
            });
        }
        if !a.all_finite() {
            return Err(LinalgError::NotFinite);
        }
        let m = a.rows();
        let n = a.cols();
        let mut qr = a.clone();
        let mut betas = vec![0.0; n];
        let mut r_diag = vec![0.0; n];

        for k in 0..n {
            // Compute the norm of the k-th column below the diagonal.
            let mut norm_sq = 0.0;
            for i in k..m {
                norm_sq += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm_sq.sqrt();
            if norm <= DEFAULT_TOLERANCE {
                // Zero column below the diagonal: no reflector.
                betas[k] = 0.0;
                r_diag[k] = 0.0;
                continue;
            }
            // Choose the sign that avoids cancellation.
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            r_diag[k] = alpha;
            // v = x - alpha * e1 (stored in place); normalise so v[k] = 1.
            let vkk = qr[(k, k)] - alpha;
            for i in (k + 1)..m {
                let scaled = qr[(i, k)] / vkk;
                qr[(i, k)] = scaled;
            }
            qr[(k, k)] = 1.0;
            betas[k] = -vkk / alpha;

            // Apply the reflector to the remaining columns.
            for j in (k + 1)..n {
                let mut s = 0.0;
                for i in k..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= betas[k];
                for i in k..m {
                    let delta = s * qr[(i, k)];
                    qr[(i, j)] -= delta;
                }
            }
        }
        Ok(QrDecomposition { qr, betas, r_diag })
    }

    /// Numerical rank of `A`, i.e. the number of diagonal entries of `R`
    /// whose magnitude exceeds `tol * max |R_ii|`.
    pub fn rank(&self, tol: f64) -> usize {
        let max = self.r_diag.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()));
        if max == 0.0 {
            return 0;
        }
        self.r_diag.iter().filter(|v| v.abs() > tol * max).count()
    }

    /// Returns `true` if `R` has a numerically-zero diagonal entry, i.e.
    /// the columns of `A` are (numerically) linearly dependent.
    pub fn is_rank_deficient(&self) -> bool {
        self.rank(1e-12) < self.qr.cols()
    }

    /// Applies `Qᵀ` to a vector of length `m`, in place.
    fn apply_q_transpose(&self, b: &mut [f64]) {
        let m = self.qr.rows();
        let n = self.qr.cols();
        for k in 0..n {
            if self.betas[k] == 0.0 {
                continue;
            }
            let mut s = 0.0;
            for i in k..m {
                s += self.qr[(i, k)] * b[i];
            }
            s *= self.betas[k];
            for i in k..m {
                b[i] -= s * self.qr[(i, k)];
            }
        }
    }

    /// Solves the least-squares problem `min_x ‖A x - b‖₂`.
    ///
    /// Returns an error if `b` has the wrong length or `A` is rank
    /// deficient (use [`crate::l1::min_l1_norm_solution`] or ridge-style
    /// regularisation for that case).
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let m = self.qr.rows();
        let n = self.qr.cols();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                operation: "QrDecomposition::solve_least_squares",
                expected: m,
                actual: b.len(),
            });
        }
        if self.is_rank_deficient() {
            return Err(LinalgError::Singular);
        }
        let mut qtb = b.to_vec();
        self.apply_q_transpose(&mut qtb);
        // Back substitution with R (diagonal in r_diag, strict upper in qr).
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = qtb[i];
            for j in (i + 1)..n {
                acc -= self.qr[(i, j)] * x[j];
            }
            x[i] = acc / self.r_diag[i];
        }
        Ok(x)
    }

    /// Reconstructs the thin `m × n` orthonormal factor `Q`, so that
    /// `A = Q · R` and `Qᵀ Q = I` (useful in tests).
    ///
    /// Column `j` is `Q e_j = H_0 · H_1 ⋯ H_{n-1} e_j`: the Householder
    /// reflectors applied in reverse order (each `H_k` is symmetric, and
    /// `Qᵀ = H_{n-1} ⋯ H_0`).
    pub fn q(&self) -> Matrix {
        let m = self.qr.rows();
        let n = self.qr.cols();
        let mut q = Matrix::zeros(m, n);
        let mut col = vec![0.0; m];
        for j in 0..n {
            col.iter_mut().for_each(|v| *v = 0.0);
            col[j] = 1.0;
            for k in (0..n).rev() {
                if self.betas[k] == 0.0 {
                    continue;
                }
                let mut s = 0.0;
                for i in k..m {
                    s += self.qr[(i, k)] * col[i];
                }
                s *= self.betas[k];
                for i in k..m {
                    col[i] -= s * self.qr[(i, k)];
                }
            }
            for i in 0..m {
                q[(i, j)] = col[i];
            }
        }
        q
    }

    /// Reconstructs the `n × n` upper-triangular factor `R` (useful in
    /// tests).
    pub fn r(&self) -> Matrix {
        let n = self.qr.cols();
        let mut r = Matrix::zeros(n, n);
        for i in 0..n {
            r[(i, i)] = self.r_diag[i];
            for j in (i + 1)..n {
                r[(i, j)] = self.qr[(i, j)];
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::{approx_eq, l2_norm, sub};

    #[test]
    fn solves_square_system_exactly() {
        let a = Matrix::from_row_slice(2, 2, &[2.0, 1.0, 1.0, 3.0]).unwrap();
        let qr = QrDecomposition::new(&a).unwrap();
        let x = qr.solve_least_squares(&[5.0, 10.0]).unwrap();
        assert!(approx_eq(&x, &[1.0, 3.0], 1e-10));
    }

    #[test]
    fn least_squares_on_overdetermined_system() {
        // Fit y = a + b t to points (0,1), (1,3), (2,5): exact line a=1, b=2.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let qr = QrDecomposition::new(&a).unwrap();
        let x = qr.solve_least_squares(&[1.0, 3.0, 5.0]).unwrap();
        assert!(approx_eq(&x, &[1.0, 2.0], 1e-10));
    }

    #[test]
    fn least_squares_minimises_residual() {
        // Inconsistent system: the LS solution has a smaller residual than
        // nearby perturbations.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ])
        .unwrap();
        let b = [0.9, 3.2, 4.9, 7.3];
        let qr = QrDecomposition::new(&a).unwrap();
        let x = qr.solve_least_squares(&b).unwrap();
        let res = |x: &[f64]| l2_norm(&sub(&a.matvec(x).unwrap(), &b));
        let base = res(&x);
        for delta in [[0.01, 0.0], [-0.01, 0.0], [0.0, 0.01], [0.0, -0.01]] {
            let perturbed = [x[0] + delta[0], x[1] + delta[1]];
            assert!(res(&perturbed) >= base - 1e-12);
        }
    }

    #[test]
    fn rank_detection() {
        let full = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert_eq!(QrDecomposition::new(&full).unwrap().rank(1e-12), 2);

        // Second column is twice the first: rank 1.
        let deficient =
            Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let qr = QrDecomposition::new(&deficient).unwrap();
        assert_eq!(qr.rank(1e-9), 1);
        assert!(qr.is_rank_deficient());
        assert_eq!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular)
        );
    }

    #[test]
    fn r_factor_is_upper_triangular_and_consistent() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let qr = QrDecomposition::new(&a).unwrap();
        let r = qr.r();
        assert_eq!(r.rows(), 2);
        assert_eq!(r.cols(), 2);
        // |det R| = sqrt(det (AᵀA)), with the 2×2 determinant in closed form.
        let ata = a.transpose().matmul(&a).unwrap();
        let det_ata = ata[(0, 0)] * ata[(1, 1)] - ata[(0, 1)] * ata[(1, 0)];
        let det_r = r[(0, 0)] * r[(1, 1)];
        assert!((det_r.abs() - det_ata.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            QrDecomposition::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
        assert!(matches!(
            QrDecomposition::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let mut bad = Matrix::identity(2);
        bad[(1, 1)] = f64::INFINITY;
        assert!(matches!(
            QrDecomposition::new(&bad),
            Err(LinalgError::NotFinite)
        ));
        let a = Matrix::identity(3);
        let qr = QrDecomposition::new(&a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn all_zero_matrix_has_rank_zero() {
        let z = Matrix::zeros(4, 3);
        let qr = QrDecomposition::new(&z).unwrap();
        assert_eq!(qr.rank(1e-12), 0);
    }
}
