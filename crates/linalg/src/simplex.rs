//! Two-phase primal simplex solver for linear programs in standard form.
//!
//! The solver handles programs of the form
//!
//! ```text
//! minimise    cᵀ x
//! subject to  A x = b
//!             x ≥ 0
//! ```
//!
//! which is exactly what the minimum-L1-norm reformulation in [`crate::l1`]
//! produces. The tableau is stored densely, and Bland's rule (lowest-index
//! entering column, lowest-index leaving variable on ratio ties) guarantees
//! termination.
//!
//! The tomography LPs are sparse: their 0/1 constraint rows stay mostly
//! zero through the pivots (on the daemon's `planetlab-smoke` fixture
//! about a tenth of a pivot row and of a pivot column are non-zero). So a
//! pivot touches only the rows with a non-zero entry in the pivot column,
//! and in them only the pivot row's non-zero columns; pricing reads
//! contiguous row slices a chunk of columns at a time, skips basic
//! variables of zero cost, and stops at the first chunk with an improving
//! column; and whether a variable is basic is a mask lookup. Every skipped
//! operation would only have added or subtracted a signed zero, so each
//! non-zero entry sees the same floating-point operations in the same
//! order as in a fully dense pivot: the pivots, the objective and every
//! non-zero of `x` are bit-identical to it (a zero of `x` may differ in
//! sign). A test-only copy of the dense solver checks this.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// A linear program in standard form: minimise `cᵀx` subject to `Ax = b`,
/// `x ≥ 0`.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    /// Objective coefficients `c` (length = number of variables).
    pub objective: Vec<f64>,
    /// Constraint matrix `A` (`m × n`).
    pub constraints: Matrix,
    /// Right-hand side `b` (length `m`).
    pub rhs: Vec<f64>,
}

/// Status of a solved linear program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

/// The result of solving a [`LinearProgram`].
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Optimal primal solution (meaningful only when `status == Optimal`;
    /// empty otherwise).
    pub x: Vec<f64>,
    /// Optimal objective value (meaningful only when `status == Optimal`).
    pub objective_value: f64,
    /// Number of simplex pivots performed (both phases).
    pub iterations: usize,
}

impl LpSolution {
    /// The optimal `x`, or the status as an error:
    /// [`LinalgError::Infeasible`] or [`LinalgError::Unbounded`].
    pub fn into_optimal(self) -> Result<Vec<f64>, LinalgError> {
        match self.status {
            LpStatus::Optimal => Ok(self.x),
            LpStatus::Infeasible => Err(LinalgError::Infeasible),
            LpStatus::Unbounded => Err(LinalgError::Unbounded),
        }
    }
}

/// Numerical tolerance used for feasibility / optimality tests inside the
/// simplex iterations.
const EPS: f64 = 1e-9;

impl LinearProgram {
    /// Creates a new standard-form linear program.
    ///
    /// Returns an error if the dimensions are inconsistent or any input is
    /// non-finite.
    pub fn new(
        objective: Vec<f64>,
        constraints: Matrix,
        rhs: Vec<f64>,
    ) -> Result<Self, LinalgError> {
        if constraints.cols() != objective.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "LinearProgram::new (objective length)",
                expected: constraints.cols(),
                actual: objective.len(),
            });
        }
        if constraints.rows() != rhs.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "LinearProgram::new (rhs length)",
                expected: constraints.rows(),
                actual: rhs.len(),
            });
        }
        if !constraints.all_finite()
            || !crate::norms::all_finite(&objective)
            || !crate::norms::all_finite(&rhs)
        {
            return Err(LinalgError::NotFinite);
        }
        Ok(LinearProgram {
            objective,
            constraints,
            rhs,
        })
    }

    /// Number of decision variables.
    pub fn num_variables(&self) -> usize {
        self.objective.len()
    }

    /// Number of equality constraints.
    pub fn num_constraints(&self) -> usize {
        self.rhs.len()
    }

    /// Solves the program with the two-phase primal simplex method.
    pub fn solve(&self) -> Result<LpSolution, LinalgError> {
        let m = self.num_constraints();
        let n = self.num_variables();
        if n == 0 {
            // Degenerate: no variables. Feasible iff b = 0.
            let feasible = self.rhs.iter().all(|v| v.abs() <= EPS);
            return Ok(LpSolution {
                status: if feasible {
                    LpStatus::Optimal
                } else {
                    LpStatus::Infeasible
                },
                x: Vec::new(),
                objective_value: 0.0,
                iterations: 0,
            });
        }

        // Build the phase-1 tableau with artificial variables. Columns:
        // [x_0..x_{n-1}, a_0..a_{m-1} | rhs]. Rows are the constraints with
        // the sign flipped where needed so that rhs >= 0.
        let total = n + m;
        let mut tableau = Matrix::zeros(m, total + 1);
        for i in 0..m {
            let flip = if self.rhs[i] < 0.0 { -1.0 } else { 1.0 };
            let row = tableau.row_slice_mut(i);
            for (t, &a) in row.iter_mut().zip(self.constraints.row_slice(i)) {
                *t = flip * a;
            }
            row[n + i] = 1.0;
            row[total] = flip * self.rhs[i];
        }
        let mut basis = Basis::new((n..n + m).collect(), total);
        let mut iterations = 0;

        // ---- Phase 1: minimise the sum of artificial variables. ----
        let phase1_cost: Vec<f64> = (0..total).map(|j| if j >= n { 1.0 } else { 0.0 }).collect();
        let phase1_value =
            simplex_iterate(&mut tableau, &mut basis, &phase1_cost, &mut iterations)?;
        if phase1_value > 1e-7 {
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                x: Vec::new(),
                objective_value: f64::NAN,
                iterations,
            });
        }

        // Drive any artificial variables that remain in the basis out of it
        // (they must be at zero level), pivoting on the first
        // non-artificial column with a non-zero entry in the row. A row
        // without one is redundant (all-zero over the original
        // variables); its artificial basic variable stays at zero.
        for row in 0..m {
            if basis.of_row[row] >= n {
                if let Some(col) = tableau.row_slice(row)[..n]
                    .iter()
                    .position(|v| v.abs() > EPS)
                {
                    pivot(&mut tableau, &mut basis, row, col);
                    iterations += 1;
                }
            }
        }

        // Remove redundant rows (artificial variables stuck in the basis at
        // zero level on all-zero rows) and drop the artificial columns
        // entirely, so phase 2 works on the original variables only.
        let keep: Vec<usize> = (0..m).filter(|&i| basis.of_row[i] < n).collect();
        let mut reduced = Matrix::zeros(keep.len(), n + 1);
        for (new_i, &i) in keep.iter().enumerate() {
            let (from, to) = (tableau.row_slice(i), reduced.row_slice_mut(new_i));
            to[..n].copy_from_slice(&from[..n]);
            to[n] = from[total];
        }
        let mut tableau = reduced;
        let mut basis = Basis::new(keep.iter().map(|&i| basis.of_row[i]).collect(), n);

        // ---- Phase 2: minimise the true objective over x. ----
        let objective_value =
            match simplex_iterate(&mut tableau, &mut basis, &self.objective, &mut iterations) {
                Ok(v) => v,
                Err(LinalgError::Unbounded) => {
                    return Ok(LpSolution {
                        status: LpStatus::Unbounded,
                        x: Vec::new(),
                        objective_value: f64::NEG_INFINITY,
                        iterations,
                    })
                }
                Err(e) => return Err(e),
            };

        // Extract the solution.
        let mut x = vec![0.0; n];
        for (row, &b) in basis.of_row.iter().enumerate() {
            x[b] = tableau[(row, n)];
        }
        Ok(LpSolution {
            status: LpStatus::Optimal,
            x,
            objective_value,
            iterations,
        })
    }
}

/// The basic variable of every row, and per variable whether it is basic
/// (an O(1) test where a scan of the rows would cost O(m)).
struct Basis {
    of_row: Vec<usize>,
    is_basic: Vec<bool>,
}

impl Basis {
    fn new(of_row: Vec<usize>, vars: usize) -> Self {
        let mut is_basic = vec![false; vars];
        for &b in &of_row {
            is_basic[b] = true;
        }
        Basis { of_row, is_basic }
    }

    /// Makes `col` the basic variable of `row`.
    fn enter(&mut self, row: usize, col: usize) {
        self.is_basic[self.of_row[row]] = false;
        self.is_basic[col] = true;
        self.of_row[row] = col;
    }
}

/// Columns whose reduced costs are computed together: one pass over the
/// rows prices a chunk, and pricing stops at the first chunk that holds an
/// improving column.
const PRICE_CHUNK: usize = 64;

/// Performs simplex pivoting on `tableau` with the reduced costs computed
/// from `cost`, until optimality or unboundedness. Returns the objective
/// value of the basic solution at termination.
fn simplex_iterate(
    tableau: &mut Matrix,
    basis: &mut Basis,
    cost: &[f64],
    iterations: &mut usize,
) -> Result<f64, LinalgError> {
    let m = tableau.rows();
    let total = tableau.cols() - 1;
    // A very generous iteration budget; Bland's rule guarantees finiteness
    // but we guard against pathological numerical behaviour anyway.
    let max_iterations = 50 * (total + m) * (total + m).max(64);

    loop {
        let Some(col) = entering_column(tableau, basis, cost) else {
            // Optimal: compute the objective value.
            let mut value = 0.0;
            for i in 0..m {
                value += cost[basis.of_row[i]] * tableau[(i, total)];
            }
            return Ok(value);
        };

        // Ratio test: choose the leaving row (Bland's rule on ties).
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let a = tableau[(i, col)];
            if a > EPS {
                let ratio = tableau[(i, total)] / a;
                if ratio < best_ratio - EPS
                    || ((ratio - best_ratio).abs() <= EPS
                        && leaving.is_some_and(|l| basis.of_row[i] < basis.of_row[l]))
                {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        let Some(row) = leaving else {
            return Err(LinalgError::Unbounded);
        };

        pivot(tableau, basis, row, col);
        *iterations += 1;
        if *iterations > max_iterations {
            return Err(LinalgError::DidNotConverge {
                iterations: *iterations,
            });
        }
    }
}

/// Bland's rule: the lowest-index non-basic column with a negative reduced
/// cost. The tableau is kept in canonical form (basic columns are unit
/// vectors), so the reduced cost of column `j` is
/// `c_j − Σ_i c_{basis[i]} · tableau[i][j]`. The sum runs over contiguous
/// row slices, a chunk of columns at a time, subtracting each row's term
/// in ascending row order; a basic variable with zero cost adds only a
/// signed zero and is skipped, which changes no reduced cost's sign test.
fn entering_column(tableau: &Matrix, basis: &Basis, cost: &[f64]) -> Option<usize> {
    let total = tableau.cols() - 1;
    let mut reduced = [0.0; PRICE_CHUNK];
    for start in (0..total).step_by(PRICE_CHUNK) {
        let end = (start + PRICE_CHUNK).min(total);
        let reduced = &mut reduced[..end - start];
        reduced.copy_from_slice(&cost[start..end]);
        for (i, &b) in basis.of_row.iter().enumerate() {
            let c = cost[b];
            if c == 0.0 {
                continue;
            }
            for (r, &a) in reduced.iter_mut().zip(&tableau.row_slice(i)[start..end]) {
                *r -= c * a;
            }
        }
        let improving = (start..end).find(|&j| !basis.is_basic[j] && reduced[j - start] < -EPS);
        if improving.is_some() {
            return improving;
        }
    }
    None
}

/// Pivots the tableau on `(row, col)`: scales the pivot row so the pivot
/// entry becomes 1 and eliminates the column from every other row. Only
/// the pivot row's non-zero entries are touched, and only in rows whose
/// entry in `col` is non-zero: elsewhere the dense update would subtract a
/// signed zero, which leaves every non-zero entry as it is.
fn pivot(tableau: &mut Matrix, basis: &mut Basis, row: usize, col: usize) {
    let pivot_val = tableau[(row, col)];
    debug_assert!(pivot_val.abs() > 0.0, "pivot on a zero entry");
    let mut pivot_row = Vec::new();
    for (j, v) in tableau.row_slice_mut(row).iter_mut().enumerate() {
        if *v != 0.0 {
            *v /= pivot_val;
            pivot_row.push((j, *v));
        }
    }
    for i in 0..tableau.rows() {
        let factor = tableau[(i, col)];
        if i == row || factor == 0.0 {
            continue;
        }
        let target = tableau.row_slice_mut(i);
        for &(j, v) in &pivot_row {
            target[j] -= factor * v;
        }
    }
    basis.enter(row, col);
}

/// The dense-tableau simplex that the sparse pivot replaced, kept as the
/// oracle: every pivot scans every column and updates every entry.
#[cfg(test)]
mod dense_reference {
    use super::{LinearProgram, LpSolution, LpStatus, EPS};
    use crate::error::LinalgError;
    use crate::matrix::Matrix;

    /// The two-phase solve exactly as it ran over a dense tableau.
    pub(super) fn solve(lp: &LinearProgram) -> Result<LpSolution, LinalgError> {
        let m = lp.num_constraints();
        let n = lp.num_variables();
        if n == 0 {
            // Degenerate: no variables. Feasible iff b = 0.
            let feasible = lp.rhs.iter().all(|v| v.abs() <= EPS);
            return Ok(LpSolution {
                status: if feasible {
                    LpStatus::Optimal
                } else {
                    LpStatus::Infeasible
                },
                x: Vec::new(),
                objective_value: 0.0,
                iterations: 0,
            });
        }

        // Build the phase-1 tableau with artificial variables. Columns:
        // [x_0..x_{n-1}, a_0..a_{m-1} | rhs]. Rows are the constraints with
        // the sign flipped where needed so that rhs >= 0.
        let total = n + m;
        let mut tableau = Matrix::zeros(m, total + 1);
        for i in 0..m {
            let flip = if lp.rhs[i] < 0.0 { -1.0 } else { 1.0 };
            for j in 0..n {
                tableau[(i, j)] = flip * lp.constraints[(i, j)];
            }
            tableau[(i, n + i)] = 1.0;
            tableau[(i, total)] = flip * lp.rhs[i];
        }
        let mut basis: Vec<usize> = (n..n + m).collect();
        let mut iterations = 0;

        // ---- Phase 1: minimise the sum of artificial variables. ----
        let phase1_cost: Vec<f64> = (0..total).map(|j| if j >= n { 1.0 } else { 0.0 }).collect();
        let phase1_value =
            simplex_iterate(&mut tableau, &mut basis, &phase1_cost, &mut iterations)?;
        if phase1_value > 1e-7 {
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                x: Vec::new(),
                objective_value: f64::NAN,
                iterations,
            });
        }

        // Drive any artificial variables that remain in the basis out of it
        // (they must be at zero level).
        for row in 0..m {
            if basis[row] >= n {
                // Find a non-artificial column with a non-zero entry in this
                // row to pivot on.
                let mut pivot_col = None;
                for j in 0..n {
                    if tableau[(row, j)].abs() > EPS {
                        pivot_col = Some(j);
                        break;
                    }
                }
                if let Some(col) = pivot_col {
                    pivot(&mut tableau, &mut basis, row, col);
                    iterations += 1;
                }
                // If no pivot column exists the row is redundant (all-zero
                // over the original variables); leave the artificial basic
                // variable at zero.
            }
        }

        // Remove redundant rows (artificial variables stuck in the basis at
        // zero level on all-zero rows) and drop the artificial columns
        // entirely, so phase 2 works on the original variables only.
        let keep: Vec<usize> = (0..m).filter(|&i| basis[i] < n).collect();
        let mut reduced = Matrix::zeros(keep.len(), n + 1);
        let mut reduced_basis = Vec::with_capacity(keep.len());
        for (new_i, &i) in keep.iter().enumerate() {
            for j in 0..n {
                reduced[(new_i, j)] = tableau[(i, j)];
            }
            reduced[(new_i, n)] = tableau[(i, total)];
            reduced_basis.push(basis[i]);
        }
        let mut tableau = reduced;
        let mut basis = reduced_basis;

        // ---- Phase 2: minimise the true objective over x. ----
        let objective_value =
            match simplex_iterate(&mut tableau, &mut basis, &lp.objective, &mut iterations) {
                Ok(v) => v,
                Err(LinalgError::Unbounded) => {
                    return Ok(LpSolution {
                        status: LpStatus::Unbounded,
                        x: Vec::new(),
                        objective_value: f64::NEG_INFINITY,
                        iterations,
                    })
                }
                Err(e) => return Err(e),
            };

        // Extract the solution.
        let mut x = vec![0.0; n];
        let rhs_col = tableau.cols() - 1;
        for (row, &b) in basis.iter().enumerate() {
            if b < n {
                x[b] = tableau[(row, rhs_col)];
            }
        }
        Ok(LpSolution {
            status: LpStatus::Optimal,
            x,
            objective_value,
            iterations,
        })
    }

    /// Performs simplex pivoting on `tableau` (rows = constraints, last column =
    /// rhs) with the reduced costs computed from `cost`, until optimality or
    /// unboundedness. Returns the objective value of the basic solution at
    /// termination.
    fn simplex_iterate(
        tableau: &mut Matrix,
        basis: &mut [usize],
        cost: &[f64],
        iterations: &mut usize,
    ) -> Result<f64, LinalgError> {
        let m = tableau.rows();
        let total = tableau.cols() - 1;
        // A very generous iteration budget; Bland's rule guarantees finiteness
        // but we guard against pathological numerical behaviour anyway.
        let max_iterations = 50 * (total + m) * (total + m).max(64);

        loop {
            // Compute the simplex multipliers implicitly: reduced cost of
            // column j is c_j - c_B · B^{-1} A_j; since the tableau is kept in
            // canonical form (basic columns are unit vectors), the reduced cost
            // is c_j - Σ_i c_{basis[i]} * tableau[i][j].
            let mut entering = None;
            for j in 0..total {
                if basis.contains(&j) {
                    continue;
                }
                let mut reduced = cost[j];
                for i in 0..m {
                    reduced -= cost[basis[i]] * tableau[(i, j)];
                }
                if reduced < -EPS {
                    // Bland's rule: pick the lowest-index improving column.
                    entering = Some(j);
                    break;
                }
            }
            let Some(col) = entering else {
                // Optimal: compute the objective value.
                let mut value = 0.0;
                for i in 0..m {
                    value += cost[basis[i]] * tableau[(i, total)];
                }
                return Ok(value);
            };

            // Ratio test: choose the leaving row (Bland's rule on ties).
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..m {
                let a = tableau[(i, col)];
                if a > EPS {
                    let ratio = tableau[(i, total)] / a;
                    if ratio < best_ratio - EPS
                        || ((ratio - best_ratio).abs() <= EPS
                            && leaving.map(|l| basis[i] < basis[l]).unwrap_or(false))
                    {
                        best_ratio = ratio;
                        leaving = Some(i);
                    }
                }
            }
            let Some(row) = leaving else {
                return Err(LinalgError::Unbounded);
            };

            pivot(tableau, basis, row, col);
            *iterations += 1;
            if *iterations > max_iterations {
                return Err(LinalgError::DidNotConverge {
                    iterations: *iterations,
                });
            }
        }
    }

    /// Pivots the tableau on `(row, col)`: scales the pivot row so the pivot
    /// entry becomes 1 and eliminates the column from every other row.
    fn pivot(tableau: &mut Matrix, basis: &mut [usize], row: usize, col: usize) {
        let cols = tableau.cols();
        let pivot_val = tableau[(row, col)];
        debug_assert!(pivot_val.abs() > 0.0, "pivot on a zero entry");
        for j in 0..cols {
            tableau[(row, j)] /= pivot_val;
        }
        for i in 0..tableau.rows() {
            if i == row {
                continue;
            }
            let factor = tableau[(i, col)];
            if factor == 0.0 {
                continue;
            }
            for j in 0..cols {
                let delta = factor * tableau[(row, j)];
                tableau[(i, j)] -= delta;
            }
        }
        basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::approx_eq;

    fn lp(c: &[f64], a_rows: &[Vec<f64>], b: &[f64]) -> LinearProgram {
        LinearProgram::new(c.to_vec(), Matrix::from_rows(a_rows).unwrap(), b.to_vec()).unwrap()
    }

    #[test]
    fn solves_trivial_feasibility_problem() {
        // min x1 + x2 s.t. x1 + x2 = 1, x >= 0 -> optimum 1.
        let p = lp(&[1.0, 1.0], &[vec![1.0, 1.0]], &[1.0]);
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective_value - 1.0).abs() < 1e-8);
        assert!((sol.x[0] + sol.x[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn solves_textbook_lp() {
        // min -3x - 5y s.t. x + s1 = 4, 2y + s2 = 12, 3x + 2y + s3 = 18,
        // all vars >= 0. Classic problem: optimum at x=2, y=6, objective -36.
        let p = lp(
            &[-3.0, -5.0, 0.0, 0.0, 0.0],
            &[
                vec![1.0, 0.0, 1.0, 0.0, 0.0],
                vec![0.0, 2.0, 0.0, 1.0, 0.0],
                vec![3.0, 2.0, 0.0, 0.0, 1.0],
            ],
            &[4.0, 12.0, 18.0],
        );
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective_value + 36.0).abs() < 1e-7);
        assert!((sol.x[0] - 2.0).abs() < 1e-7);
        assert!((sol.x[1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasibility() {
        // x1 + x2 = 1 and x1 + x2 = 3 cannot both hold.
        let p = lp(&[1.0, 1.0], &[vec![1.0, 1.0], vec![1.0, 1.0]], &[1.0, 3.0]);
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        // min -x1 s.t. x1 - x2 = 0: x1 = x2 can grow without bound.
        let p = lp(&[-1.0, 0.0], &[vec![1.0, -1.0]], &[0.0]);
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn handles_negative_rhs_by_row_flip() {
        // -x1 = -2 means x1 = 2.
        let p = lp(&[1.0], &[vec![-1.0]], &[-2.0]);
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(approx_eq(&sol.x, &[2.0], 1e-8));
    }

    #[test]
    fn handles_redundant_constraints() {
        // Duplicate constraint rows; still optimal.
        let p = lp(&[1.0, 2.0], &[vec![1.0, 1.0], vec![1.0, 1.0]], &[1.0, 1.0]);
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective_value - 1.0).abs() < 1e-8);
        assert!(
            (sol.x[0] - 1.0).abs() < 1e-8,
            "should prefer the cheap variable"
        );
    }

    #[test]
    fn zero_variable_program() {
        let p = LinearProgram::new(vec![], Matrix::zeros(1, 0), vec![0.0]).unwrap();
        assert_eq!(p.solve().unwrap().status, LpStatus::Optimal);
        let q = LinearProgram::new(vec![], Matrix::zeros(1, 0), vec![1.0]).unwrap();
        assert_eq!(q.solve().unwrap().status, LpStatus::Infeasible);
    }

    #[test]
    fn rejects_dimension_mismatches() {
        assert!(LinearProgram::new(vec![1.0], Matrix::zeros(1, 2), vec![1.0]).is_err());
        assert!(LinearProgram::new(vec![1.0, 2.0], Matrix::zeros(1, 2), vec![1.0, 2.0]).is_err());
        assert!(LinearProgram::new(vec![f64::NAN, 2.0], Matrix::zeros(1, 2), vec![1.0]).is_err());
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A problem with degenerate vertices; Bland's rule must terminate.
        let p = lp(
            &[1.0, 1.0, 1.0],
            &[
                vec![1.0, 1.0, 0.0],
                vec![1.0, 0.0, 1.0],
                vec![1.0, 0.0, 0.0],
            ],
            &[1.0, 1.0, 1.0],
        );
        let sol = p.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective_value - 1.0).abs() < 1e-8);
        assert!(approx_eq(&sol.x, &[1.0, 0.0, 0.0], 1e-8));
    }
}

/// The sparse pivot against the dense reference: identical status, pivot
/// count and objective bits, and `x` equal under `==` (the two may differ
/// only in the sign of a zero).
#[cfg(test)]
mod oracle {
    use super::*;
    use proptest::prelude::*;

    /// Solves `lp` both ways and returns the (shared) status.
    fn assert_same(lp: &LinearProgram, what: &str) -> Result<LpStatus, TestCaseError> {
        let (sparse, dense) = (lp.solve().unwrap(), dense_reference::solve(lp).unwrap());
        prop_assert_eq!(sparse.status, dense.status, "{}: status", what);
        prop_assert_eq!(sparse.iterations, dense.iterations, "{}: pivots", what);
        prop_assert_eq!(
            sparse.objective_value.to_bits(),
            dense.objective_value.to_bits(),
            "{}: objective {} vs {}",
            what,
            sparse.objective_value,
            dense.objective_value
        );
        prop_assert_eq!(&sparse.x, &dense.x, "{}: x", what);
        Ok(sparse.status)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]
        #[test]
        fn sparse_pivots_match_the_dense_reference(
            rows in 1usize..20,
            cols in 1usize..48,
            fill in 10u32..70,
            cells in prop::collection::vec(0u32..100, 20 * 48),
            weights in prop::collection::vec(0u32..4, 48),
            noise in prop::collection::vec(-1.0f64..1.0, 48),
            shape in 0u32..6,
        ) {
            // A 0/1 system whose right-hand side is shaped to be feasible,
            // noisy, redundant, degenerate, contradictory or sign-flipped.
            // The free-sign program's tableau spans several pricing chunks.
            let mut a = Matrix::from_fn(rows, cols, |i, j| {
                if cells[i * cols + j] < fill { 1.0 } else { 0.0 }
            });
            if shape == 2 || shape == 4 {
                // Repeat row 0 in the last row (a redundant equation).
                for j in 0..cols {
                    a[(rows - 1, j)] = a[(0, j)];
                }
            }
            let x_ref: Vec<f64> = (0..cols)
                .map(|j| match shape {
                    // Mostly zero: a degenerate vertex.
                    3 => if weights[j] == 3 { 0.5 } else { 0.0 },
                    _ => f64::from(weights[j]) * 0.25 + noise[j].abs() * 0.1,
                })
                .collect();
            let mut b = a.matvec(&x_ref).unwrap();
            match shape {
                1 => b.iter_mut().zip(&noise).for_each(|(v, e)| *v += 0.3 * e),
                4 if rows > 1 => b[rows - 1] += 1.0,
                5 => b.iter_mut().zip(&noise).for_each(|(v, e)| *v = -*v + 0.1 * e),
                _ => {}
            }

            // The two programs `l1` builds, and one with signed costs that
            // can be unbounded. Over the 600 cases the 1,800 programs end
            // optimal, infeasible and unbounded about 1,060, 610 and 130
            // times.
            let nonneg = LinearProgram::new(vec![1.0; cols], a.clone(), b.clone()).unwrap();
            let status = assert_same(&nonneg, "sign-constrained L1")?;
            // The shapes do reach both ends: `x_ref` is feasible, and a
            // repeated row with another right-hand side is not.
            if shape == 0 || shape == 3 {
                prop_assert_eq!(status, LpStatus::Optimal);
            }
            if shape == 4 && rows > 1 {
                prop_assert_eq!(status, LpStatus::Infeasible);
            }
            let split = Matrix::from_fn(rows, 2 * cols, |i, j| {
                if j < cols { a[(i, j)] } else { -a[(i, j - cols)] }
            });
            let free = LinearProgram::new(vec![1.0; 2 * cols], split, b.clone()).unwrap();
            assert_same(&free, "free-sign L1")?;
            let signed = LinearProgram::new(noise[..cols].to_vec(), a, b).unwrap();
            assert_same(&signed, "signed costs")?;
        }
    }
}
