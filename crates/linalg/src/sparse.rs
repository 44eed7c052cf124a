//! Sparse row matrices and the CGLS iterative least-squares solver.
//!
//! The measurement systems produced by the tomography equation builder are
//! extremely sparse: each equation touches only the links of one path (or
//! of a pair of paths), i.e. a handful of non-zeros out of thousands of
//! columns. At the paper's scale (≈2000 links, ≈1500 paths) dense
//! factorisations are needlessly expensive, so the large-system solver path
//! uses:
//!
//! * [`SparseMatrix`] — a row representation with any values, built
//!   incrementally, with `matvec` / `transpose_matvec`;
//! * [`IndicatorMatrix`] — selected 0/1 rows, indexed by row and by
//!   column, for the solver's hot loop;
//! * [`cgls`] / [`cgls_indicator`] — Conjugate Gradient on the normal
//!   equations (CGLS) over either, with an optional Tikhonov (ridge) term
//!   `λ‖x‖²` that makes the solution unique and small when the system is
//!   under-determined, and an optional warm start. For log-probability
//!   unknowns (which are ≤ 0) the small-norm bias plays the same role as
//!   the paper's minimum-L1-norm choice: unconstrained links are pushed
//!   towards "good". Both run one loop and give the same bits on the
//!   same rows.

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
}

/// A matrix of 0/1 indicator rows, stored as the column indices of its
/// ones twice over: row by row (CSR) and column by column (CSC, rows
/// ascending within a column).
///
/// The measurement equations are all indicator rows, so the CGLS hot loop
/// needs no value array: `A p` sums `p` over a row's columns, and `Aᵀ r`
/// sums `r` over a column's rows — a gather per column, written once per
/// output instead of scattered once per non-zero. Both sums add exactly
/// the operands the general [`SparseMatrix`] products add, in the same
/// order, so [`cgls_indicator`] is bit-identical to [`cgls`] on the same
/// rows. Indices are `u32`, which halves the index traffic of the loop.
#[derive(Debug, Clone, PartialEq)]
pub struct IndicatorMatrix {
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    col_ptr: Vec<u32>,
    row_idx: Vec<u32>,
}

impl IndicatorMatrix {
    /// Gathers the listed rows of `source`, in the listed order.
    ///
    /// Fails with [`LinalgError::NonIndicatorRow`] (naming the row of
    /// `source`) if a listed row holds a value other than 1, and with
    /// [`LinalgError::DimensionMismatch`] if a listed row is out of range
    /// or an index does not fit in `u32`.
    pub fn gather(source: &SparseMatrix, rows: &[usize]) -> Result<Self, LinalgError> {
        let index = |value: usize| {
            u32::try_from(value).map_err(|_| LinalgError::DimensionMismatch {
                operation: "IndicatorMatrix::gather (u32 index)",
                expected: u32::MAX as usize,
                actual: value,
            })
        };
        index(source.cols)?;
        index(rows.len())?;
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::new();
        let mut col_counts = vec![0u32; source.cols + 1];
        row_ptr.push(0);
        for &row in rows {
            let entries = source.rows.get(row).ok_or(LinalgError::DimensionMismatch {
                operation: "IndicatorMatrix::gather (row index)",
                expected: source.rows(),
                actual: row,
            })?;
            for &(col, value) in entries {
                if value != 1.0 {
                    return Err(LinalgError::NonIndicatorRow { row });
                }
                col_idx.push(col as u32);
                col_counts[col + 1] += 1;
            }
            row_ptr.push(index(col_idx.len())?);
        }
        // Counting sort by column; walking the rows in order leaves each
        // column's rows ascending.
        let mut col_ptr = col_counts;
        for c in 0..source.cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut next = col_ptr.clone();
        let mut row_idx = vec![0u32; col_idx.len()];
        for (i, window) in row_ptr.windows(2).enumerate() {
            for &col in &col_idx[window[0] as usize..window[1] as usize] {
                let slot = &mut next[col as usize];
                row_idx[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        Ok(IndicatorMatrix {
            cols: source.cols,
            row_ptr,
            col_idx,
            col_ptr,
            row_idx,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// The two products CGLS needs, each fused with the squared norm of its
/// output. Implementations must add the same operands in the same order
/// as the [`SparseMatrix`] implementation, so that every operator yields
/// the same iterates bit for bit.
trait CglsOperator {
    /// `q = A p`, each row summed from `+0.0` in stored column order;
    /// returns `‖q‖²` summed in row order.
    fn product(&self, p: &[f64], q: &mut [f64]) -> f64;

    /// `s = Aᵀ r − λ x` (the ridge term only when `λ > 0`), each entry
    /// summed from `+0.0` in ascending row order; returns `‖s‖²` summed
    /// in column order.
    fn normal_residual(&self, r: &[f64], x: &[f64], lambda: f64, s: &mut [f64]) -> f64;
}

impl CglsOperator for SparseMatrix {
    fn product(&self, p: &[f64], q: &mut [f64]) -> f64 {
        let mut norm_sq = 0.0;
        for (row, qi) in self.rows.iter().zip(q.iter_mut()) {
            let mut acc = 0.0;
            for &(c, v) in row {
                acc += v * p[c];
            }
            *qi = acc;
            norm_sq += acc * acc;
        }
        norm_sq
    }

    fn normal_residual(&self, r: &[f64], x: &[f64], lambda: f64, s: &mut [f64]) -> f64 {
        s.fill(0.0);
        for (row, &ri) in self.rows.iter().zip(r) {
            if ri == 0.0 {
                continue;
            }
            for &(c, v) in row {
                s[c] += v * ri;
            }
        }
        let mut norm_sq = 0.0;
        for (si, xi) in s.iter_mut().zip(x) {
            if lambda > 0.0 {
                *si -= lambda * xi;
            }
            norm_sq += *si * *si;
        }
        norm_sq
    }
}

impl CglsOperator for IndicatorMatrix {
    fn product(&self, p: &[f64], q: &mut [f64]) -> f64 {
        let mut norm_sq = 0.0;
        for (window, qi) in self.row_ptr.windows(2).zip(q.iter_mut()) {
            let mut acc = 0.0;
            for &c in &self.col_idx[window[0] as usize..window[1] as usize] {
                acc += p[c as usize];
            }
            *qi = acc;
            norm_sq += acc * acc;
        }
        norm_sq
    }

    // The scatter of the general operator skips rows with `r_i = 0`; the
    // gather adds them. That changes no bit: an accumulator that starts
    // at `+0.0` never becomes `−0.0`, and adding `±0.0` to anything else
    // leaves it unchanged.
    fn normal_residual(&self, r: &[f64], x: &[f64], lambda: f64, s: &mut [f64]) -> f64 {
        let mut norm_sq = 0.0;
        for ((window, si), xi) in self.col_ptr.windows(2).zip(s.iter_mut()).zip(x) {
            let mut acc = 0.0;
            for &i in &self.row_idx[window[0] as usize..window[1] as usize] {
                acc += r[i as usize];
            }
            if lambda > 0.0 {
                acc -= lambda * xi;
            }
            *si = acc;
            norm_sq += acc * acc;
        }
        norm_sq
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
///
/// `initial = None` starts from the zero vector; `Some(x₀)` starts from
/// `x₀` (warm start). When consecutive solves share the matrix and have
/// nearby right-hand sides (successive refreshes of a measurement
/// stream), seeding with the previous solution cuts the iterations to
/// convergence. The minimiser is the same either way for determined
/// systems; for ridge-regularised under-determined systems the limit
/// point is the unique regularised minimiser, so warm and cold starts
/// agree to within the solve tolerance.
pub fn cgls(
    a: &SparseMatrix,
    b: &[f64],
    lambda: f64,
    max_iterations: usize,
    tolerance: f64,
    initial: Option<&[f64]>,
) -> Result<CglsSolution, LinalgError> {
    cgls_over(
        a,
        [a.rows(), a.cols()],
        b,
        lambda,
        max_iterations,
        tolerance,
        initial,
    )
}

/// [`cgls`] over an [`IndicatorMatrix`]: the same iterates, iteration
/// count, residual and convergence flag, bit for bit, as [`cgls`] over a
/// [`SparseMatrix`] holding the same rows. This is the loop the sparse
/// solver plan runs.
pub fn cgls_indicator(
    a: &IndicatorMatrix,
    b: &[f64],
    lambda: f64,
    max_iterations: usize,
    tolerance: f64,
    initial: Option<&[f64]>,
) -> Result<CglsSolution, LinalgError> {
    cgls_over(
        a,
        [a.rows(), a.cols()],
        b,
        lambda,
        max_iterations,
        tolerance,
        initial,
    )
}

/// The CGLS loop, once for every operator. Per iteration it makes three
/// passes through the matrix-sized work — `q = A p` with `‖q‖²`,
/// `s = Aᵀ r − λ x` with `‖s‖²`, and the `p` update with the next
/// iteration's `‖p‖²` — plus the `x` and `r` updates.
fn cgls_over<A: CglsOperator>(
    a: &A,
    [rows, cols]: [usize; 2],
    b: &[f64],
    lambda: f64,
    max_iterations: usize,
    tolerance: f64,
    initial: Option<&[f64]>,
) -> Result<CglsSolution, LinalgError> {
    if b.len() != rows {
        return Err(LinalgError::DimensionMismatch {
            operation: "cgls",
            expected: rows,
            actual: b.len(),
        });
    }
    if lambda < 0.0 || !lambda.is_finite() {
        return Err(LinalgError::NotFinite);
    }
    if !crate::norms::all_finite(b) {
        return Err(LinalgError::NotFinite);
    }
    let mut x = match initial {
        Some(x0) => {
            if x0.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    operation: "cgls (initial guess)",
                    expected: cols,
                    actual: x0.len(),
                });
            }
            if !crate::norms::all_finite(x0) {
                return Err(LinalgError::NotFinite);
            }
            x0.to_vec()
        }
        None => vec![0.0; cols],
    };
    let mut q = vec![0.0; rows];
    let mut s = vec![0.0; cols];
    // r = b - A x (just b for a cold start, whose s then has no ridge
    // term: x is zero).
    let mut r = b.to_vec();
    if initial.is_some() {
        a.product(&x, &mut q);
        for (ri, qi) in r.iter_mut().zip(&q) {
            *ri -= qi;
        }
    }
    let first_ridge = if initial.is_some() { lambda } else { 0.0 };
    let mut gamma = a.normal_residual(&r, &x, first_ridge, &mut s);
    let mut p = s.clone();
    // ‖p‖² of p = s: the same squares in the same order as γ.
    let mut p_norm_sq = gamma;
    let b_norm = l2_norm(b).max(1e-30);
    let mut iterations = 0;
    let mut converged = gamma.sqrt() <= tolerance * b_norm;

    while iterations < max_iterations && !converged {
        let q_norm_sq = a.product(&p, &mut q);
        let denom = q_norm_sq + lambda * p_norm_sq;
        if denom <= 0.0 {
            break;
        }
        let alpha = gamma / denom;
        for (xi, pi) in x.iter_mut().zip(&p) {
            *xi += alpha * pi;
        }
        for (ri, qi) in r.iter_mut().zip(&q) {
            *ri -= alpha * qi;
        }
        let gamma_new = a.normal_residual(&r, &x, lambda, &mut s);
        converged = gamma_new.sqrt() <= tolerance * b_norm;
        let beta = gamma_new / gamma;
        gamma = gamma_new;
        p_norm_sq = 0.0;
        for (pi, si) in p.iter_mut().zip(&s) {
            *pi = si + beta * *pi;
            p_norm_sq += *pi * *pi;
        }
        iterations += 1;
    }

    a.product(&x, &mut q);
    let mut sum = 0.0;
    for (axi, bi) in q.iter().zip(b) {
        let d = axi - bi;
        sum += d * d;
    }
    Ok(CglsSolution {
        x,
        iterations,
        residual: sum.sqrt(),
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::approx_eq;

    /// Total number of stored entries.
    fn stored_entries(m: &SparseMatrix) -> usize {
        (0..m.rows()).map(|r| m.row(r).len()).sum()
    }

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
        assert_eq!(stored_entries(&m), 3);
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
        let sol = cgls(&m, &[5.0, 10.0], 0.0, 100, 1e-12, None).unwrap();
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
        let sol = cgls(&m, &b, 0.0, 200, 1e-12, None).unwrap();
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
        let sparse_sol = cgls(&m, &b, 0.0, 500, 1e-14, None).unwrap();
        let dense = crate::Matrix::from_rows(&rows).unwrap();
        let dense_x = crate::QrDecomposition::new(&dense)
            .unwrap()
            .solve_least_squares(&b)
            .unwrap();
        assert!(approx_eq(&sparse_sol.x, &dense_x, 1e-6));
    }

    #[test]
    fn ridge_term_shrinks_underdetermined_solutions() {
        // One equation, two unknowns: x0 + x1 = 2. CGLS from x = 0 with a
        // ridge converges to (≈1, ≈1), the minimum-norm solution.
        let m = sparse_from_dense(&[vec![1.0, 1.0]]);
        let sol = cgls(&m, &[2.0], 1e-8, 200, 1e-14, None).unwrap();
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
        let sol = cgls(&m, &b, 0.0, 2000, 1e-12, None).unwrap();
        let residual = {
            let ax = m.matvec(&sol.x).unwrap();
            l2_norm(&crate::norms::sub(&ax, &b))
        };
        assert!(residual < 1e-6, "residual {residual}");
    }

    #[test]
    fn cgls_rejects_bad_inputs() {
        let m = sparse_from_dense(&[vec![1.0, 0.0]]);
        assert!(cgls(&m, &[1.0, 2.0], 0.0, 10, 1e-9, None).is_err());
        assert!(cgls(&m, &[1.0], -1.0, 10, 1e-9, None).is_err());
        assert!(cgls(&m, &[f64::NAN], 0.0, 10, 1e-9, None).is_err());
    }

    #[test]
    fn indicator_form_matches_the_row_representation_bitwise() {
        // Irregular rows, an empty row, an empty column (36) and operands
        // without exact binary representations, some of them zero.
        let cols = 37;
        let mut m = SparseMatrix::new(cols);
        let mut state = 99u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        m.push_indicator_row(&[]).unwrap();
        for _ in 0..300 {
            let len = 1 + next() % 6;
            let mut columns: Vec<usize> = (0..len).map(|_| next() % (cols - 1)).collect();
            columns.sort_unstable();
            columns.dedup();
            m.push_indicator_row(&columns).unwrap();
        }
        let all: Vec<usize> = (0..m.rows()).collect();
        let indicator = IndicatorMatrix::gather(&m, &all).unwrap();
        assert_eq!(indicator.rows(), m.rows());
        assert_eq!(indicator.cols(), m.cols());
        assert_eq!(indicator.col_idx.len(), stored_entries(&m));
        assert_eq!(indicator.row_idx.len(), stored_entries(&m));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let p: Vec<f64> = (0..cols)
            .map(|i| {
                if i % 9 == 0 {
                    0.0
                } else {
                    (i as f64 / 7.0).sin()
                }
            })
            .collect();
        let (mut q_rows, mut q_ind) = (vec![0.0; m.rows()], vec![0.0; m.rows()]);
        let norm_rows = m.product(&p, &mut q_rows);
        let norm_ind = indicator.product(&p, &mut q_ind);
        assert_eq!(bits(&q_ind), bits(&q_rows), "A p must be bit-identical");
        assert_eq!(norm_ind.to_bits(), norm_rows.to_bits());
        assert_eq!(q_rows, m.matvec(&p).unwrap());

        let r: Vec<f64> = (0..m.rows())
            .map(|i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    (i as f64 / 3.0).cos()
                }
            })
            .collect();
        for lambda in [0.0, 1e-8] {
            let (mut s_rows, mut s_ind) = (vec![0.0; cols], vec![0.0; cols]);
            let norm_rows = m.normal_residual(&r, &p, lambda, &mut s_rows);
            let norm_ind = indicator.normal_residual(&r, &p, lambda, &mut s_ind);
            assert_eq!(
                bits(&s_ind),
                bits(&s_rows),
                "Aᵀ r − λ x must be bit-identical"
            );
            assert_eq!(norm_ind.to_bits(), norm_rows.to_bits());
        }
        let mut s = vec![0.0; cols];
        indicator.normal_residual(&r, &p, 0.0, &mut s);
        assert_eq!(s, m.transpose_matvec(&r).unwrap());
    }

    #[test]
    fn indicator_gather_keeps_the_listed_rows_and_rejects_the_rest() {
        let mut m = SparseMatrix::new(3);
        m.push_indicator_row(&[0, 2]).unwrap();
        m.push_row(&[(1, 2.0)]).unwrap();
        m.push_indicator_row(&[1]).unwrap();
        let picked = IndicatorMatrix::gather(&m, &[2, 0]).unwrap();
        assert_eq!(
            (picked.rows(), picked.cols(), picked.col_idx.len()),
            (2, 3, 3)
        );
        let mut q = vec![0.0; 2];
        picked.product(&[1.0, 10.0, 100.0], &mut q);
        assert_eq!(q, vec![10.0, 101.0]);
        assert_eq!(
            IndicatorMatrix::gather(&m, &[0, 1]),
            Err(LinalgError::NonIndicatorRow { row: 1 })
        );
        assert!(IndicatorMatrix::gather(&m, &[3]).is_err());
        let empty = IndicatorMatrix::gather(&m, &[]).unwrap();
        assert_eq!((empty.rows(), empty.col_idx.len()), (0, 0));
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
        let cold = cgls(&m, &b, 1e-8, 200, 1e-13, None).unwrap();
        let zeros = vec![0.0; 3];
        let warm = cgls(&m, &b, 1e-8, 200, 1e-13, Some(&zeros)).unwrap();
        // The zero guess takes the r = b - A·0 path; the arithmetic is
        // the same, so iterates and solution agree exactly.
        assert_eq!(cold.x, warm.x);
        assert_eq!(cold.iterations, warm.iterations);
    }

    #[test]
    fn warm_start_from_the_solution_converges_immediately() {
        let m = sparse_from_dense(&[vec![2.0, 1.0], vec![1.0, 3.0], vec![0.5, 0.5]]);
        let x_true = [1.0, 3.0];
        let b = m.matvec(&x_true).unwrap();
        let cold = cgls(&m, &b, 0.0, 200, 1e-12, None).unwrap();
        assert!(cold.iterations > 0);
        let warm = cgls(&m, &b, 0.0, 200, 1e-12, Some(&cold.x)).unwrap();
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
        let base = cgls(&m, &b, 1e-8, 4000, 1e-12, None).unwrap();
        let b_shifted: Vec<f64> = b.iter().map(|v| v + 0.01).collect();
        let cold = cgls(&m, &b_shifted, 1e-8, 4000, 1e-12, None).unwrap();
        let warm = cgls(&m, &b_shifted, 1e-8, 4000, 1e-12, Some(&base.x)).unwrap();
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
        assert!(cgls(&m, &[2.0], 0.0, 10, 1e-9, Some(&[1.0])).is_err());
        assert!(cgls(&m, &[2.0], 0.0, 10, 1e-9, Some(&[f64::NAN, 0.0])).is_err());
    }

    #[test]
    fn zero_iteration_budget_returns_zero_vector() {
        let m = sparse_from_dense(&[vec![1.0, 1.0]]);
        let sol = cgls(&m, &[2.0], 0.0, 0, 1e-12, None).unwrap();
        assert_eq!(sol.x, vec![0.0, 0.0]);
        assert!(!sol.converged);
        assert_eq!(sol.iterations, 0);
    }
}
