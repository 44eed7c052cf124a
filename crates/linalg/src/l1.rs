//! Minimum-L1-norm solutions of under-determined linear systems.
//!
//! The paper's practical algorithm (Section 4) forms `N1 + N2` linearly
//! independent equations in the `|E|` unknowns `x_k = log P(X_{e_k} = 0)`.
//! When `N1 + N2 < |E|` the system has infinitely many solutions and the
//! paper "picks the one that minimizes the L1 norm". Because each unknown
//! is a log-probability (`x_k ≤ 0`), minimising `‖x‖₁ = −Σ x_k` selects the
//! solution with the highest total probability that links are good, i.e.
//! the least-congestion explanation that is still consistent with every
//! measured equation.
//!
//! Both variants are reduced to standard-form linear programs and solved
//! with [`crate::simplex`]:
//!
//! * [`min_l1_norm_solution`] — free-sign variables, split as `x = u − v`.
//! * [`min_l1_norm_solution_nonneg`] — variables constrained to be
//!   non-negative (used with the substitution `z = −x` for
//!   log-probabilities).
//!
//! Both return the program's [`LpSolution`] over the caller's variables,
//! so the pivots spent are reported whatever the status — also when an
//! infeasible program sends the caller on to another formulation.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::simplex::{LinearProgram, LpSolution, LpStatus};

/// Solves `min ‖x‖₁ subject to A x = b` with free-sign `x`.
///
/// The variables are split into positive and negative parts `x = u − v`
/// with `u, v ≥ 0` and the LP `min Σ(u + v)` is solved; an optimal
/// solution's `x` is `u − v`. Inconsistent equations give
/// [`LpStatus::Infeasible`] (see [`LpSolution::into_optimal`]).
pub fn min_l1_norm_solution(a: &Matrix, b: &[f64]) -> Result<LpSolution, LinalgError> {
    if a.rows() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            operation: "min_l1_norm_solution",
            expected: a.rows(),
            actual: b.len(),
        });
    }
    let n = a.cols();
    let m = a.rows();
    // Constraint matrix [A, -A] over variables [u; v].
    let mut constraints = Matrix::zeros(m, 2 * n);
    for i in 0..m {
        for j in 0..n {
            constraints[(i, j)] = a[(i, j)];
            constraints[(i, n + j)] = -a[(i, j)];
        }
    }
    let objective = vec![1.0; 2 * n];
    let lp = LinearProgram::new(objective, constraints, b.to_vec())?;
    let mut sol = lp.solve()?;
    if sol.status == LpStatus::Optimal {
        sol.x = (0..n).map(|j| sol.x[j] - sol.x[n + j]).collect();
    }
    Ok(sol)
}

/// Solves `min Σ x subject to A x = b, x ≥ 0`.
///
/// For non-negative variables the L1 norm is simply the sum, so no variable
/// splitting is needed. The status is [`LpStatus::Infeasible`] if no
/// non-negative solution exists.
pub fn min_l1_norm_solution_nonneg(a: &Matrix, b: &[f64]) -> Result<LpSolution, LinalgError> {
    if a.rows() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            operation: "min_l1_norm_solution_nonneg",
            expected: a.rows(),
            actual: b.len(),
        });
    }
    let objective = vec![1.0; a.cols()];
    LinearProgram::new(objective, a.clone(), b.to_vec())?.solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::{approx_eq, l1_norm};

    fn optimal_x(a: &Matrix, b: &[f64]) -> Vec<f64> {
        min_l1_norm_solution(a, b).unwrap().into_optimal().unwrap()
    }

    #[test]
    fn recovers_sparse_solution_of_underdetermined_system() {
        // One equation, two unknowns: x1 + 2 x2 = 2.
        // Minimum-L1 solution is x = (0, 1) with ‖x‖₁ = 1 (vs (2, 0) with 2).
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let x = optimal_x(&a, &[2.0]);
        assert!(approx_eq(&x, &[0.0, 1.0], 1e-7), "got {x:?}");
    }

    #[test]
    fn satisfies_constraints_exactly() {
        // Two equations, four unknowns.
        let a = Matrix::from_rows(&[vec![1.0, 1.0, 0.0, 0.0], vec![0.0, 1.0, 1.0, 1.0]]).unwrap();
        let b = [1.0, 2.0];
        let x = optimal_x(&a, &b);
        let ax = a.matvec(&x).unwrap();
        assert!(approx_eq(&ax, &b, 1e-7), "Ax = {ax:?}");
        // Any feasible point has ‖x‖₁ >= the optimum; check against one
        // hand-picked feasible point.
        let feasible = [1.0, 0.0, 2.0, 0.0];
        assert!(l1_norm(&x) <= l1_norm(&feasible) + 1e-7);
    }

    #[test]
    fn handles_negative_solutions() {
        // x1 + x2 = -3: the minimum-L1 solution puts everything on one
        // variable with a negative value.
        let a = Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        let x = optimal_x(&a, &[-3.0]);
        assert!((l1_norm(&x) - 3.0).abs() < 1e-7);
        assert!((x[0] + x[1] + 3.0).abs() < 1e-7);
    }

    #[test]
    fn square_consistent_system_returns_exact_solution() {
        let a = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 4.0]]).unwrap();
        let x = optimal_x(&a, &[2.0, -8.0]);
        assert!(approx_eq(&x, &[1.0, -2.0], 1e-7));
    }

    #[test]
    fn inconsistent_system_is_infeasible() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let sol = min_l1_norm_solution(&a, &[1.0, 2.0]).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
        assert!(sol.iterations > 0, "phase 1 pivots are reported");
        assert_eq!(sol.into_optimal(), Err(LinalgError::Infeasible));
    }

    #[test]
    fn nonneg_variant_respects_sign_constraint() {
        // x1 - x2 = 1, x >= 0: minimum-sum solution is (1, 0).
        let a = Matrix::from_rows(&[vec![1.0, -1.0]]).unwrap();
        let x = min_l1_norm_solution_nonneg(&a, &[1.0])
            .unwrap()
            .into_optimal()
            .unwrap();
        assert!(approx_eq(&x, &[1.0, 0.0], 1e-7));
        // b = -1 has no non-negative solution with this single equation
        // where only x2 could help: x1 - x2 = -1 -> x2 = 1 + x1 works, so it
        // IS feasible; check a genuinely infeasible one instead.
        let a2 = Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        assert_eq!(
            min_l1_norm_solution_nonneg(&a2, &[-1.0]).unwrap().status,
            LpStatus::Infeasible
        );
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(matches!(
            min_l1_norm_solution(&a, &[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            min_l1_norm_solution_nonneg(&a, &[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn larger_underdetermined_system_prefers_sparse_answer() {
        // 3 equations, 8 unknowns, constructed so that a 3-sparse solution
        // exists; basis-pursuit (min L1) should find a solution with the
        // same L1 norm or better and satisfy the constraints.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.5, 0.2],
            vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.1, 0.9],
            vec![0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.7, 0.3],
        ])
        .unwrap();
        let sparse = [2.0, 0.0, 0.0, 0.0, 0.0, 1.5, 0.0, 0.0];
        let b = a.matvec(&sparse).unwrap();
        let x = optimal_x(&a, &b);
        assert!(approx_eq(&a.matvec(&x).unwrap(), &b, 1e-6));
        assert!(l1_norm(&x) <= l1_norm(&sparse) + 1e-6);
    }
}
