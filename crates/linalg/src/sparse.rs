//! Sparse row matrices and the CGLS iterative least-squares solver.
//!
//! The measurement systems produced by the tomography equation builder are
//! extremely sparse: each equation touches only the links of one path (or
//! of a pair of paths), i.e. a handful of non-zeros out of thousands of
//! columns. At the paper's scale (≈2000 links, ≈1500 paths) dense
//! factorisations are needlessly expensive, so the large-system solver path
//! uses:
//!
//! * [`SparseMatrix`] — a compressed row representation with `matvec` /
//!   `transpose_matvec`;
//! * [`cgls`] — Conjugate Gradient on the normal equations (CGLS), with an
//!   optional Tikhonov (ridge) term `λ‖x‖²` that makes the solution unique
//!   and small when the system is under-determined. For log-probability
//!   unknowns (which are ≤ 0) the small-norm bias plays the same role as
//!   the paper's minimum-L1-norm choice: unconstrained links are pushed
//!   towards "good".

use crate::error::LinalgError;
use crate::norms::l2_norm;

/// A sparse matrix stored as rows of `(column, value)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    cols: usize,
    rows: Vec<Vec<(usize, f64)>>,
}

impl SparseMatrix {
    /// Creates an empty sparse matrix with `cols` columns and no rows.
    pub fn new(cols: usize) -> Self {
        SparseMatrix {
            cols,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Appends a row given as `(column, value)` pairs. Entries with a zero
    /// value are dropped; duplicate columns are summed.
    ///
    /// Returns an error if any column index is out of range.
    pub fn push_row(&mut self, entries: &[(usize, f64)]) -> Result<(), LinalgError> {
        let mut row: Vec<(usize, f64)> = Vec::with_capacity(entries.len());
        for &(col, value) in entries {
            if col >= self.cols {
                return Err(LinalgError::DimensionMismatch {
                    operation: "SparseMatrix::push_row",
                    expected: self.cols,
                    actual: col,
                });
            }
            if !value.is_finite() {
                return Err(LinalgError::NotFinite);
            }
            if value == 0.0 {
                continue;
            }
            match row.iter_mut().find(|(c, _)| *c == col) {
                Some((_, v)) => *v += value,
                None => row.push((col, value)),
            }
        }
        row.sort_unstable_by_key(|&(c, _)| c);
        self.rows.push(row);
        Ok(())
    }

    /// Appends a row whose entries are `1.0` at the given column indices
    /// (the common case for path-incidence equations).
    pub fn push_indicator_row(&mut self, columns: &[usize]) -> Result<(), LinalgError> {
        let entries: Vec<(usize, f64)> = columns.iter().map(|&c| (c, 1.0)).collect();
        self.push_row(&entries)
    }

    /// Returns the entries of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.rows[i]
    }

    /// Computes `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "SparseMatrix::matvec",
                expected: self.cols,
                actual: x.len(),
            });
        }
        Ok(self
            .rows
            .iter()
            .map(|row| row.iter().map(|&(c, v)| v * x[c]).sum())
            .collect())
    }

    /// Computes `y = Aᵀ x`.
    pub fn transpose_matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "SparseMatrix::transpose_matvec",
                expected: self.rows.len(),
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.cols];
        for (row, &xi) in self.rows.iter().zip(x.iter()) {
            if xi == 0.0 {
                continue;
            }
            for &(c, v) in row {
                y[c] += v * xi;
            }
        }
        Ok(y)
    }

    /// Converts to a dense [`crate::Matrix`] (for tests and small systems).
    pub fn to_dense(&self) -> crate::Matrix {
        let mut dense = crate::Matrix::zeros(self.rows.len(), self.cols);
        for (i, row) in self.rows.iter().enumerate() {
            for &(c, v) in row {
                dense[(i, c)] = v;
            }
        }
        dense
    }

    /// Flattens into the blocked CSR form used by the iterative solver
    /// hot loop.
    pub fn to_blocked(&self) -> BlockedSparseMatrix {
        BlockedSparseMatrix::from_sparse(self)
    }
}

/// Number of rows a [`BlockedSparseMatrix`] product processes per block.
/// Small enough that a block's slice of the flat `(col, value)` arrays and
/// its output window fit in L1/L2 alongside the dense operand.
const ROW_BLOCK: usize = 128;

/// A [`SparseMatrix`] flattened into compressed-sparse-row (CSR) arrays
/// and multiplied block-of-rows at a time.
///
/// The row-of-`Vec`s layout of [`SparseMatrix`] is convenient to build
/// incrementally but costs one pointer chase per row in the CGLS hot loop
/// (two matvecs per iteration, thousands of iterations). The blocked form
/// stores every `(column, value)` pair in two flat arrays indexed by a
/// `row_ptr` offset table, and walks them `ROW_BLOCK` rows per step, so
/// the traversal is a single forward stream over contiguous memory.
///
/// Products accumulate per row in exactly the stored column order, so the
/// results are **bit-identical** to [`SparseMatrix::matvec`] /
/// [`SparseMatrix::transpose_matvec`] — swapping the representation under
/// an iterative solver never changes its iterates.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedSparseMatrix {
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl BlockedSparseMatrix {
    /// Flattens a [`SparseMatrix`] into CSR arrays.
    pub fn from_sparse(source: &SparseMatrix) -> Self {
        let nnz = source.nnz();
        let mut row_ptr = Vec::with_capacity(source.rows() + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for row in &source.rows {
            for &(c, v) in row {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        BlockedSparseMatrix {
            cols: source.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Computes `y = A x` into a caller-provided buffer of length
    /// [`BlockedSparseMatrix::rows`] (no per-call allocation).
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "BlockedSparseMatrix::matvec_into",
                expected: self.cols,
                actual: x.len(),
            });
        }
        let rows = self.rows();
        if y.len() != rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "BlockedSparseMatrix::matvec_into (output)",
                expected: rows,
                actual: y.len(),
            });
        }
        let mut block_start = 0;
        while block_start < rows {
            let block_end = (block_start + ROW_BLOCK).min(rows);
            for i in block_start..block_end {
                let mut acc = 0.0;
                for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                    acc += self.values[k] * x[self.col_idx[k]];
                }
                y[i] = acc;
            }
            block_start = block_end;
        }
        Ok(())
    }

    /// Computes `y = Aᵀ x` into a caller-provided buffer of length
    /// [`BlockedSparseMatrix::cols`] (no per-call allocation).
    pub fn transpose_matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
        let rows = self.rows();
        if x.len() != rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "BlockedSparseMatrix::transpose_matvec_into",
                expected: rows,
                actual: x.len(),
            });
        }
        if y.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "BlockedSparseMatrix::transpose_matvec_into (output)",
                expected: self.cols,
                actual: y.len(),
            });
        }
        y.iter_mut().for_each(|v| *v = 0.0);
        let mut block_start = 0;
        while block_start < rows {
            let block_end = (block_start + ROW_BLOCK).min(rows);
            for i in block_start..block_end {
                let xi = x[i];
                if xi == 0.0 {
                    continue;
                }
                for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                    y[self.col_idx[k]] += self.values[k] * xi;
                }
            }
            block_start = block_end;
        }
        Ok(())
    }
}

/// The result of a CGLS solve.
#[derive(Debug, Clone)]
pub struct CglsSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final residual norm `‖Ax − b‖₂` (of the unregularised residual).
    pub residual: f64,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
}

/// Solves `min_x ‖A x − b‖² + λ‖x‖²` with Conjugate Gradient on the normal
/// equations (CGLS). `λ = 0` gives plain least squares; a small positive
/// `λ` regularises rank-deficient / under-determined systems towards the
/// minimum-norm solution.
pub fn cgls(
    a: &SparseMatrix,
    b: &[f64],
    lambda: f64,
    max_iterations: usize,
    tolerance: f64,
) -> Result<CglsSolution, LinalgError> {
    cgls_blocked(&a.to_blocked(), b, lambda, max_iterations, tolerance, None)
}

/// [`cgls`] with an optional initial guess (warm start).
///
/// `initial = None` starts from the zero vector and is exactly [`cgls`].
/// With `initial = Some(x₀)` the iteration starts from `x₀` — when
/// consecutive solves share the matrix and have nearby right-hand sides
/// (successive trials on one topology, or successive refreshes of a
/// measurement stream), seeding with the previous solution cuts the
/// iterations to convergence substantially. The minimiser is the same
/// either way for determined systems; for ridge-regularised
/// under-determined systems the limit point is the unique regularised
/// minimiser, so warm and cold starts agree to within the solve tolerance.
pub fn cgls_warm(
    a: &SparseMatrix,
    b: &[f64],
    lambda: f64,
    max_iterations: usize,
    tolerance: f64,
    initial: Option<&[f64]>,
) -> Result<CglsSolution, LinalgError> {
    cgls_blocked(
        &a.to_blocked(),
        b,
        lambda,
        max_iterations,
        tolerance,
        initial,
    )
}

/// [`cgls_warm`] over a pre-flattened [`BlockedSparseMatrix`] — the entry
/// point for callers that solve many right-hand sides against one matrix
/// and want to pay the flattening cost once.
pub fn cgls_blocked(
    a: &BlockedSparseMatrix,
    b: &[f64],
    lambda: f64,
    max_iterations: usize,
    tolerance: f64,
    initial: Option<&[f64]>,
) -> Result<CglsSolution, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            operation: "cgls",
            expected: a.rows(),
            actual: b.len(),
        });
    }
    if lambda < 0.0 || !lambda.is_finite() {
        return Err(LinalgError::NotFinite);
    }
    if !crate::norms::all_finite(b) {
        return Err(LinalgError::NotFinite);
    }
    let n = a.cols();
    let mut x = match initial {
        Some(x0) => {
            if x0.len() != n {
                return Err(LinalgError::DimensionMismatch {
                    operation: "cgls (initial guess)",
                    expected: n,
                    actual: x0.len(),
                });
            }
            if !crate::norms::all_finite(x0) {
                return Err(LinalgError::NotFinite);
            }
            x0.to_vec()
        }
        None => vec![0.0; n],
    };
    let mut q = vec![0.0; a.rows()];
    let mut s = vec![0.0; n];
    // r = b - A x (just b for a cold start — skipping the product keeps
    // the cold path bit-identical to the historical implementation).
    let mut r = b.to_vec();
    if initial.is_some() {
        a.matvec_into(&x, &mut q)?;
        for (ri, qi) in r.iter_mut().zip(q.iter()) {
            *ri -= qi;
        }
    }
    // s = Aᵀ r - λ x.
    a.transpose_matvec_into(&r, &mut s)?;
    if lambda > 0.0 && initial.is_some() {
        for (si, xi) in s.iter_mut().zip(x.iter()) {
            *si -= lambda * xi;
        }
    }
    let mut p = s.clone();
    let mut gamma: f64 = s.iter().map(|v| v * v).sum();
    let b_norm = l2_norm(b).max(1e-30);
    let mut iterations = 0;
    let mut converged = gamma.sqrt() <= tolerance * b_norm;

    while iterations < max_iterations && !converged {
        a.matvec_into(&p, &mut q)?;
        let q_norm_sq: f64 = q.iter().map(|v| v * v).sum();
        let p_norm_sq: f64 = p.iter().map(|v| v * v).sum();
        let denom = q_norm_sq + lambda * p_norm_sq;
        if denom <= 0.0 {
            break;
        }
        let alpha = gamma / denom;
        for (xi, pi) in x.iter_mut().zip(p.iter()) {
            *xi += alpha * pi;
        }
        for (ri, qi) in r.iter_mut().zip(q.iter()) {
            *ri -= alpha * qi;
        }
        a.transpose_matvec_into(&r, &mut s)?;
        if lambda > 0.0 {
            for (si, xi) in s.iter_mut().zip(x.iter()) {
                *si -= lambda * xi;
            }
        }
        let gamma_new: f64 = s.iter().map(|v| v * v).sum();
        converged = gamma_new.sqrt() <= tolerance * b_norm;
        let beta = gamma_new / gamma;
        gamma = gamma_new;
        for (pi, si) in p.iter_mut().zip(s.iter()) {
            *pi = si + beta * *pi;
        }
        iterations += 1;
    }

    let residual = {
        a.matvec_into(&x, &mut q)?;
        let mut sum = 0.0;
        for (axi, bi) in q.iter().zip(b.iter()) {
            let d = axi - bi;
            sum += d * d;
        }
        sum.sqrt()
    };
    Ok(CglsSolution {
        x,
        iterations,
        residual,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::approx_eq;

    fn sparse_from_dense(rows: &[Vec<f64>]) -> SparseMatrix {
        let cols = rows[0].len();
        let mut m = SparseMatrix::new(cols);
        for row in rows {
            let entries: Vec<(usize, f64)> = row
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(c, &v)| (c, v))
                .collect();
            m.push_row(&entries).unwrap();
        }
        m
    }

    #[test]
    fn construction_and_accessors() {
        let mut m = SparseMatrix::new(4);
        m.push_indicator_row(&[0, 2]).unwrap();
        m.push_row(&[(1, 2.0), (1, 3.0), (3, 0.0)]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(1), &[(1, 5.0)]);
        let dense = m.to_dense();
        assert_eq!(dense[(0, 0)], 1.0);
        assert_eq!(dense[(0, 2)], 1.0);
        assert_eq!(dense[(1, 1)], 5.0);
    }

    #[test]
    fn rejects_bad_rows() {
        let mut m = SparseMatrix::new(2);
        assert!(m.push_row(&[(5, 1.0)]).is_err());
        assert!(m.push_row(&[(0, f64::NAN)]).is_err());
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let m = sparse_from_dense(&[vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 0.0]]);
        let y = m.matvec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 3.0]);
        let z = m.transpose_matvec(&[1.0, 2.0]).unwrap();
        assert_eq!(z, vec![1.0, 6.0, 2.0]);
        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.transpose_matvec(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn cgls_solves_square_system() {
        let m = sparse_from_dense(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let sol = cgls(&m, &[5.0, 10.0], 0.0, 100, 1e-12).unwrap();
        assert!(approx_eq(&sol.x, &[1.0, 3.0], 1e-8), "{:?}", sol.x);
        assert!(sol.converged);
        assert!(sol.residual < 1e-7);
    }

    #[test]
    fn cgls_solves_overdetermined_consistent_system() {
        let m = sparse_from_dense(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![1.0, 0.0],
        ]);
        let x_true = [2.0, -3.0];
        let b: Vec<f64> = m.matvec(&x_true).unwrap();
        let sol = cgls(&m, &b, 0.0, 200, 1e-12).unwrap();
        assert!(approx_eq(&sol.x, &x_true, 1e-8));
    }

    #[test]
    fn cgls_matches_dense_least_squares_on_inconsistent_system() {
        let rows = vec![
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ];
        let m = sparse_from_dense(&rows);
        let b = [0.9, 3.2, 4.9, 7.3];
        let sparse_sol = cgls(&m, &b, 0.0, 500, 1e-14).unwrap();
        let dense = crate::Matrix::from_rows(&rows).unwrap();
        let dense_sol = crate::lstsq::solve_least_squares(&dense, &b).unwrap();
        assert!(approx_eq(&sparse_sol.x, &dense_sol.x, 1e-6));
    }

    #[test]
    fn ridge_term_shrinks_underdetermined_solutions() {
        // One equation, two unknowns: x0 + x1 = 2. CGLS from x = 0 with a
        // ridge converges to (≈1, ≈1), the minimum-norm solution.
        let m = sparse_from_dense(&[vec![1.0, 1.0]]);
        let sol = cgls(&m, &[2.0], 1e-8, 200, 1e-14).unwrap();
        assert!(approx_eq(&sol.x, &[1.0, 1.0], 1e-4), "{:?}", sol.x);
    }

    #[test]
    fn cgls_handles_larger_sparse_incidence_systems() {
        // Build a 300-row, 120-column random-ish 0/1 incidence system with
        // a known solution and check recovery.
        let cols = 120;
        let mut m = SparseMatrix::new(cols);
        let mut state = 12345u64;
        let mut next = || {
            // Small deterministic LCG, avoids pulling rand into this crate.
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..300 {
            let len = 3 + next() % 5;
            let columns: Vec<usize> = (0..len).map(|_| next() % cols).collect();
            m.push_indicator_row(&columns).unwrap();
        }
        let x_true: Vec<f64> = (0..cols).map(|i| -((i % 7) as f64) / 10.0).collect();
        let b = m.matvec(&x_true).unwrap();
        let sol = cgls(&m, &b, 0.0, 2000, 1e-12).unwrap();
        let residual = {
            let ax = m.matvec(&sol.x).unwrap();
            l2_norm(&crate::norms::sub(&ax, &b))
        };
        assert!(residual < 1e-6, "residual {residual}");
    }

    #[test]
    fn cgls_rejects_bad_inputs() {
        let m = sparse_from_dense(&[vec![1.0, 0.0]]);
        assert!(cgls(&m, &[1.0, 2.0], 0.0, 10, 1e-9).is_err());
        assert!(cgls(&m, &[1.0], -1.0, 10, 1e-9).is_err());
        assert!(cgls(&m, &[f64::NAN], 0.0, 10, 1e-9).is_err());
    }

    #[test]
    fn blocked_form_matches_the_row_representation_bitwise() {
        // A system larger than one ROW_BLOCK so the block loop takes
        // several steps, with irregular row lengths and values that
        // exercise rounding (no exact binary representations).
        let cols = 37;
        let mut m = SparseMatrix::new(cols);
        let mut state = 99u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..300 {
            let len = 1 + next() % 6;
            let entries: Vec<(usize, f64)> = (0..len)
                .map(|_| (next() % cols, 0.1 + (next() % 100) as f64 / 30.0))
                .collect();
            m.push_row(&entries).unwrap();
        }
        let blocked = m.to_blocked();
        assert_eq!(blocked.rows(), m.rows());
        assert_eq!(blocked.cols(), m.cols());
        assert_eq!(blocked.nnz(), m.nnz());
        let x: Vec<f64> = (0..cols).map(|i| (i as f64 / 7.0).sin()).collect();
        let mut y = vec![0.0; m.rows()];
        blocked.matvec_into(&x, &mut y).unwrap();
        assert_eq!(y, m.matvec(&x).unwrap(), "matvec must be bit-identical");
        let w: Vec<f64> = (0..m.rows())
            .map(|i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    (i as f64 / 3.0).cos()
                }
            })
            .collect();
        let mut z = vec![0.0; cols];
        blocked.transpose_matvec_into(&w, &mut z).unwrap();
        assert_eq!(
            z,
            m.transpose_matvec(&w).unwrap(),
            "transpose matvec must be bit-identical"
        );
        // Dimension errors are reported, not panicked.
        assert!(blocked.matvec_into(&[1.0], &mut y).is_err());
        assert!(blocked.matvec_into(&x, &mut [0.0]).is_err());
        assert!(blocked.transpose_matvec_into(&[1.0], &mut z).is_err());
        assert!(blocked.transpose_matvec_into(&w, &mut [0.0]).is_err());
    }

    #[test]
    fn warm_start_from_zeros_is_bit_identical_to_cold() {
        let m = sparse_from_dense(&[
            vec![1.0, 0.0, 2.0],
            vec![0.0, 3.0, 0.5],
            vec![1.0, 1.0, 1.0],
            vec![0.7, 0.0, 0.0],
        ]);
        let b = [0.9, 3.2, 4.9, 7.3];
        let cold = cgls(&m, &b, 1e-8, 200, 1e-13).unwrap();
        let zeros = vec![0.0; 3];
        let warm = cgls_warm(&m, &b, 1e-8, 200, 1e-13, Some(&zeros)).unwrap();
        // The zero guess triggers the r = b - A·0 path; the arithmetic is
        // the same, so iterates and solution agree exactly.
        assert_eq!(cold.x, warm.x);
        assert_eq!(cold.iterations, warm.iterations);
    }

    #[test]
    fn warm_start_from_the_solution_converges_immediately() {
        let m = sparse_from_dense(&[vec![2.0, 1.0], vec![1.0, 3.0], vec![0.5, 0.5]]);
        let x_true = [1.0, 3.0];
        let b = m.matvec(&x_true).unwrap();
        let cold = cgls(&m, &b, 0.0, 200, 1e-12).unwrap();
        assert!(cold.iterations > 0);
        let warm = cgls_warm(&m, &b, 0.0, 200, 1e-12, Some(&cold.x)).unwrap();
        assert_eq!(warm.iterations, 0, "the exact solution needs no iterations");
        assert_eq!(warm.x, cold.x);
        assert!(warm.converged);
    }

    #[test]
    fn warm_start_from_a_nearby_solution_matches_cold_within_tolerance() {
        // Perturbed right-hand side: warm starting from the solution of
        // the unperturbed system converges to the same minimiser as a
        // cold start, in fewer iterations.
        let cols = 80;
        let mut m = SparseMatrix::new(cols);
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..200 {
            let len = 2 + next() % 4;
            let columns: Vec<usize> = (0..len).map(|_| next() % cols).collect();
            m.push_indicator_row(&columns).unwrap();
        }
        let x_true: Vec<f64> = (0..cols).map(|i| -((i % 5) as f64) / 8.0).collect();
        let b = m.matvec(&x_true).unwrap();
        let base = cgls(&m, &b, 1e-8, 4000, 1e-12).unwrap();
        let b_shifted: Vec<f64> = b.iter().map(|v| v + 0.01).collect();
        let cold = cgls(&m, &b_shifted, 1e-8, 4000, 1e-12).unwrap();
        let warm = cgls_warm(&m, &b_shifted, 1e-8, 4000, 1e-12, Some(&base.x)).unwrap();
        assert!(cold.converged && warm.converged);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
        assert!(
            approx_eq(&warm.x, &cold.x, 1e-6),
            "warm and cold must agree on the minimiser"
        );
    }

    #[test]
    fn warm_start_rejects_bad_initial_guesses() {
        let m = sparse_from_dense(&[vec![1.0, 1.0]]);
        assert!(cgls_warm(&m, &[2.0], 0.0, 10, 1e-9, Some(&[1.0])).is_err());
        assert!(cgls_warm(&m, &[2.0], 0.0, 10, 1e-9, Some(&[f64::NAN, 0.0])).is_err());
    }

    #[test]
    fn zero_iteration_budget_returns_zero_vector() {
        let m = sparse_from_dense(&[vec![1.0, 1.0]]);
        let sol = cgls(&m, &[2.0], 0.0, 0, 1e-12).unwrap();
        assert_eq!(sol.x, vec![0.0, 0.0]);
        assert!(!sol.converged);
        assert_eq!(sol.iterations, 0);
    }
}
