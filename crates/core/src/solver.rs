//! Solving the log-linear measurement system.
//!
//! The solver follows the paper's procedure (Section 4) for **both**
//! algorithms:
//!
//! 1. Consider the candidate equations in priority order — single-path
//!    equations first, then path-pair equations — and keep a maximal
//!    linearly-independent subset; the kept counts are the paper's `N1` and
//!    `N2`. Every equation row is a 0/1 indicator row, so the subset is
//!    selected exactly, by sparse Gaussian elimination over a prime field
//!    ([`netcorr_linalg::rank::select_indicator_rows`], guarded by a
//!    second prime). The same elimination, reduced, tells which links the
//!    kept equations pin to a single value (the *identified* links).
//! 2. If `N1 + N2 = |E|`, solve the square system exactly.
//! 3. If `N1 + N2 < |E|`, the system is under-determined and the solution
//!    that minimises the L1 norm is chosen (the unknowns are
//!    log-probabilities, `x ≤ 0`, so this is the least-congestion solution
//!    consistent with every kept equation).
//!
//! Selecting exactly the independent equations — rather than least-squares
//! over every redundant measurement — matters for fidelity: it is what
//! makes the independence baseline pay for its invalid equations (an
//! invalid pair equation enters the square system at full weight and its
//! bias propagates to the links it touches), which is precisely the effect
//! the paper's evaluation measures.
//!
//! Numerically, small instances use dense QR / an exact LP for the
//! minimum-L1 solution; large instances (above
//! [`SolverConfig::dense_threshold`] links) solve the selected equations
//! with sparse CGLS plus a small ridge, which approximates the minimum-norm
//! completion of the under-determined case at a cost linear in the number
//! of non-zeros.

use serde::{Deserialize, Serialize};

use netcorr_linalg::{
    cgls_indicator,
    l1::min_l1_norm_solution,
    l1::min_l1_norm_solution_nonneg,
    norms,
    rank::{select_indicator_rows, IndicatorSelection},
    IndicatorMatrix, LpStatus, Matrix, QrDecomposition, SparseMatrix,
};

use crate::equations::{EquationSource, EquationSystem};
use crate::error::CoreError;
use crate::result::SolverKind;

/// Configuration of the numerical solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Relative tolerance of the floating-point Gram–Schmidt oracle
    /// ([`netcorr_linalg::rank::IndependentRowSelector`]) that tests and
    /// benchmarks check the row selection against. The selection itself
    /// is exact and does not read it.
    pub independence_tolerance: f64,
    /// Instances with at most this many links use the dense exact path
    /// (QR for the determined case, an exact LP for the minimum-L1-norm
    /// under-determined case); larger instances solve the selected
    /// equations with sparse CGLS.
    pub dense_threshold: usize,
    /// Maximum CGLS iterations on the sparse path.
    pub cgls_iterations: usize,
    /// CGLS convergence tolerance (relative to the RHS norm).
    pub cgls_tolerance: f64,
    /// Ridge (Tikhonov) regularisation used on the sparse path.
    pub ridge: f64,
    /// Clamp the solved log-probabilities to `≤ 0` (probabilities never
    /// exceed 1). Only disabled in ablation experiments.
    pub clamp_nonpositive: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            independence_tolerance: 1e-9,
            dense_threshold: 400,
            cgls_iterations: 4000,
            cgls_tolerance: 1e-12,
            ridge: 1e-8,
            clamp_nonpositive: true,
        }
    }
}

/// The outcome of a solve: the log-good-probabilities plus bookkeeping used
/// to fill [`crate::result::Diagnostics`].
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Solved `x_k = log P(X_{e_k} = 0)` per link.
    pub x: Vec<f64>,
    /// Which numerical path produced the solution.
    pub kind: SolverKind,
    /// Residual over all collected equations.
    pub residual: f64,
    /// Number of single-path equations actually used (`N1`).
    pub used_single: usize,
    /// Number of path-pair equations actually used (`N2`).
    pub used_pair: usize,
    /// Whether fewer independent equations than unknowns were available.
    pub underdetermined: bool,
    /// Solver work: CGLS iterations on the sparse plan, simplex pivots
    /// (summed over both LPs when the sign-constrained one is infeasible)
    /// on the minimum-L1 plan, 0 for the direct factored paths.
    pub iterations: usize,
}

/// Gathers the selected rows into a dense matrix (dense path).
fn gather_dense(matrix: &SparseMatrix, selected: &[usize], num_links: usize) -> Matrix {
    let mut a = Matrix::zeros(selected.len(), num_links);
    for (new_row, &row_idx) in selected.iter().enumerate() {
        for &(col, value) in matrix.row(row_idx) {
            a[(new_row, col)] = value;
        }
    }
    a
}

/// The prepared numerical strategy for one equation matrix.
enum SolvePlan {
    /// No unknowns: every solve is the empty solution.
    Empty,
    /// Dense determined: the cached QR factorization of the selected
    /// square system. Per solve: apply `Qᵀ`, back-substitute.
    DenseFactored { qr: QrDecomposition },
    /// Dense under-determined: the gathered selected-equation matrix for
    /// the per-RHS minimum-L1-norm LP (no factorization to reuse).
    DenseL1 { a: Matrix },
    /// Sparse: the selected equations as a 0/1 indicator matrix, reused
    /// by every CGLS solve.
    Sparse { matrix: IndicatorMatrix },
}

/// Everything about solving one equation matrix that does not depend on
/// the right-hand side: the independent-row selection (steps 1–3 of the
/// module docs pick their path from it alone), its `N1`/`N2` bookkeeping,
/// the per-link identifiability flags, and the prepared [`SolvePlan`].
/// Built once per matrix, it solves any number of right-hand sides;
/// [`solve_equations`] and [`crate::InferenceContext`] are both thin
/// layers over it.
pub(crate) struct PreparedSolve {
    config: SolverConfig,
    selection: IndicatorSelection,
    used_single: usize,
    used_pair: usize,
    underdetermined: bool,
    plan: SolvePlan,
}

impl PreparedSolve {
    /// Selects the independent rows of `matrix` (whose rows `sources`
    /// describes) and prepares the plan: `num_links == 0` is empty,
    /// `num_links <= dense_threshold` goes dense (the threshold is
    /// inclusive), anything larger goes to sparse CGLS. Fails with
    /// [`CoreError::Numerical`] if a row is not a 0/1 indicator row or the
    /// exact selection's prime guard trips.
    pub(crate) fn new(
        matrix: &SparseMatrix,
        sources: &[EquationSource],
        num_links: usize,
        config: &SolverConfig,
    ) -> Result<Self, CoreError> {
        if matrix.cols() != num_links {
            return Err(CoreError::InvalidConfig(format!(
                "equation matrix has {} columns, instance has {num_links} links",
                matrix.cols()
            )));
        }
        let selection = select_indicator_rows(matrix).map_err(CoreError::Numerical)?;
        let selected = &selection.selected;
        let used_single = selected
            .iter()
            .filter(|&&i| matches!(sources[i], EquationSource::SinglePath(_)))
            .count();
        let used_pair = selected.len() - used_single;
        let underdetermined = selected.len() < num_links;
        let plan = if num_links == 0 {
            SolvePlan::Empty
        } else if num_links <= config.dense_threshold {
            let a = gather_dense(matrix, selected, num_links);
            if underdetermined {
                SolvePlan::DenseL1 { a }
            } else {
                SolvePlan::DenseFactored {
                    qr: QrDecomposition::new(&a).map_err(CoreError::Numerical)?,
                }
            }
        } else {
            SolvePlan::Sparse {
                matrix: IndicatorMatrix::gather(matrix, selected).map_err(CoreError::Numerical)?,
            }
        };
        Ok(PreparedSolve {
            config: *config,
            selection,
            used_single,
            used_pair,
            underdetermined,
            plan,
        })
    }

    /// Whether fewer independent equations than unknowns were available.
    pub(crate) fn underdetermined(&self) -> bool {
        self.underdetermined
    }

    /// Number of independent equations kept (`N1 + N2`).
    pub(crate) fn rank(&self) -> usize {
        self.selection.rank()
    }

    /// Per link: whether the kept equations pin its value, i.e. every
    /// solution of the selected system gives the link the same value.
    pub(crate) fn identified(&self) -> &[bool] {
        &self.selection.identified
    }

    /// Which numerical path solves this matrix's systems.
    pub(crate) fn kind(&self) -> SolverKind {
        match self.plan {
            SolvePlan::Empty | SolvePlan::DenseFactored { .. } => SolverKind::DenseExact,
            SolvePlan::DenseL1 { .. } => SolverKind::DenseL1,
            SolvePlan::Sparse { .. } => SolverKind::SparseIterative,
        }
    }

    /// Solves one right-hand side (one entry per row of `matrix`, the
    /// matrix this plan was prepared from). On the sparse path CGLS starts
    /// from `initial` instead of zero; the dense paths ignore it.
    pub(crate) fn solve(
        &self,
        matrix: &SparseMatrix,
        rhs: &[f64],
        initial: Option<&[f64]>,
    ) -> Result<SolveOutcome, CoreError> {
        let b = self.gather(matrix, rhs)?;
        let (x, iterations) = match &self.plan {
            SolvePlan::Empty => (Vec::new(), 0),
            SolvePlan::DenseFactored { qr } => {
                (qr.solve_least_squares(&b).map_err(CoreError::Numerical)?, 0)
            }
            // Exact minimum-L1-norm LP. Substitute `z = -x ≥ 0`, so the
            // constraints become `A z = -b` with `z ≥ 0`. The reported
            // iterations are the simplex pivots of every LP solved.
            SolvePlan::DenseL1 { a } => {
                let neg_b: Vec<f64> = b.iter().map(|v| -v).collect();
                let signed =
                    min_l1_norm_solution_nonneg(a, &neg_b).map_err(CoreError::Numerical)?;
                if signed.status == LpStatus::Infeasible {
                    // Measurement noise can make the sign-constrained
                    // program infeasible; fall back to the free-sign
                    // formulation.
                    let free = min_l1_norm_solution(a, &b).map_err(CoreError::Numerical)?;
                    let pivots = signed.iterations + free.iterations;
                    (free.into_optimal().map_err(CoreError::Numerical)?, pivots)
                } else {
                    let pivots = signed.iterations;
                    let z = signed.into_optimal().map_err(CoreError::Numerical)?;
                    (z.into_iter().map(|v| -v).collect(), pivots)
                }
            }
            // Sparse CGLS plus a small ridge; bit-identical to the general
            // `cgls` over the same rows.
            SolvePlan::Sparse { matrix: selected } => {
                let solution = cgls_indicator(
                    selected,
                    &b,
                    self.config.ridge,
                    self.config.cgls_iterations,
                    self.config.cgls_tolerance,
                    initial,
                )
                .map_err(CoreError::Numerical)?;
                (solution.x, solution.iterations)
            }
        };
        self.finish(x, iterations, matrix, rhs)
    }

    /// The selected rows' right-hand-side entries, after checking that
    /// `rhs` has one entry per row.
    fn gather(&self, matrix: &SparseMatrix, rhs: &[f64]) -> Result<Vec<f64>, CoreError> {
        if rhs.len() != matrix.rows() {
            return Err(CoreError::InvalidConfig(format!(
                "right-hand side has {} entries, structure has {} equations",
                rhs.len(),
                matrix.rows()
            )));
        }
        Ok(self.selection.selected.iter().map(|&i| rhs[i]).collect())
    }

    /// The outcome of a solution `x`: the optional clamp to `x ≤ 0`, the
    /// bookkeeping, and the residual over every collected equation (after
    /// clamping), so the numerical paths are directly comparable.
    fn finish(
        &self,
        mut x: Vec<f64>,
        iterations: usize,
        matrix: &SparseMatrix,
        rhs: &[f64],
    ) -> Result<SolveOutcome, CoreError> {
        if self.config.clamp_nonpositive {
            for value in &mut x {
                if *value > 0.0 {
                    *value = 0.0;
                }
            }
        }
        let ax = matrix.matvec(&x).map_err(CoreError::Numerical)?;
        Ok(SolveOutcome {
            residual: norms::l2_norm(&norms::sub(&ax, rhs)),
            x,
            kind: self.kind(),
            used_single: self.used_single,
            used_pair: self.used_pair,
            underdetermined: self.underdetermined,
            iterations,
        })
    }
}

/// Solves the collected measurement system for the per-link
/// log-good-probabilities, through the same prepared plan an
/// [`crate::InferenceContext`] keeps, built and used once.
pub fn solve_equations(
    system: &EquationSystem,
    num_links: usize,
    config: &SolverConfig,
) -> Result<SolveOutcome, CoreError> {
    PreparedSolve::new(&system.matrix, &system.sources, num_links, config)?.solve(
        &system.matrix,
        &system.rhs,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equations::EquationSource;
    use netcorr_linalg::{LinalgError, SparseMatrix};
    use netcorr_topology::path::PathId;

    /// Builds an equation system by hand: the Figure 1(a) system of
    /// Section 4 with exact (noise-free) right-hand sides for
    /// P(e1 good) = 0.8, P(e2 good) = 0.8, P(e3 good) = 0.9,
    /// P(e4 good) = 0.9.
    fn fig1a_exact_system() -> (EquationSystem, Vec<f64>) {
        let x_true = vec![(0.8f64).ln(), (0.8f64).ln(), (0.9f64).ln(), (0.9f64).ln()];
        let rows: Vec<Vec<usize>> = vec![
            vec![0, 2],    // P1 = {e1, e3}
            vec![1, 2],    // P2 = {e2, e3}
            vec![1, 3],    // P3 = {e2, e4}
            vec![1, 2, 3], // pair (P2, P3)
        ];
        let mut matrix = SparseMatrix::new(4);
        let mut rhs = Vec::new();
        for row in &rows {
            matrix.push_indicator_row(row).unwrap();
            rhs.push(row.iter().map(|&c| x_true[c]).sum());
        }
        let sources = vec![
            EquationSource::SinglePath(PathId(0)),
            EquationSource::SinglePath(PathId(1)),
            EquationSource::SinglePath(PathId(2)),
            EquationSource::PathPair(PathId(1), PathId(2)),
        ];
        (
            EquationSystem {
                matrix,
                rhs,
                sources,
                num_single: 3,
                num_pair: 1,
                covered: vec![true; 4],
            },
            x_true,
        )
    }

    #[test]
    fn dense_exact_recovers_the_true_solution() {
        let (system, x_true) = fig1a_exact_system();
        let outcome = solve_equations(&system, 4, &SolverConfig::default()).unwrap();
        assert_eq!(outcome.kind, SolverKind::DenseExact);
        assert_eq!(outcome.used_single, 3);
        assert_eq!(outcome.used_pair, 1);
        assert!(!outcome.underdetermined);
        assert!(
            norms::approx_eq(&outcome.x, &x_true, 1e-9),
            "{:?}",
            outcome.x
        );
        assert!(outcome.residual < 1e-9);
    }

    #[test]
    fn sparse_path_matches_dense_on_small_systems() {
        let (system, x_true) = fig1a_exact_system();
        let solve = |dense_threshold| {
            let config = SolverConfig {
                dense_threshold,
                ..SolverConfig::default()
            };
            solve_equations(&system, 4, &config).unwrap()
        };
        let (dense, sparse) = (solve(usize::MAX), solve(0));
        assert_eq!(dense.kind, SolverKind::DenseExact);
        assert_eq!(sparse.kind, SolverKind::SparseIterative);
        assert!(norms::approx_eq(&dense.x, &x_true, 1e-8));
        assert!(norms::approx_eq(&sparse.x, &x_true, 1e-3), "{:?}", sparse.x);
        // Both report the same equation bookkeeping.
        assert_eq!(dense.used_single, sparse.used_single);
        assert_eq!(dense.used_pair, sparse.used_pair);
    }

    #[test]
    fn underdetermined_dense_system_uses_min_l1() {
        // Drop the pair equation: only 3 equations for 4 unknowns. The
        // minimum-L1 solution concentrates mass consistent with x ≤ 0.
        let (mut system, _) = fig1a_exact_system();
        // Rebuild without the last row.
        let mut matrix = SparseMatrix::new(4);
        for i in 0..3 {
            let cols: Vec<usize> = system.matrix.row(i).iter().map(|&(c, _)| c).collect();
            matrix.push_indicator_row(&cols).unwrap();
        }
        system.matrix = matrix;
        system.rhs.truncate(3);
        system.sources.truncate(3);
        system.num_pair = 0;
        let outcome = solve_equations(&system, 4, &SolverConfig::default()).unwrap();
        assert_eq!(outcome.kind, SolverKind::DenseL1);
        assert!(outcome.underdetermined);
        assert_eq!(outcome.used_single, 3);
        assert_eq!(outcome.used_pair, 0);
        // All solved log-probabilities are ≤ 0 and the equations are
        // satisfied.
        assert!(outcome.x.iter().all(|&v| v <= 1e-9));
        let ax = system.matrix.matvec(&outcome.x).unwrap();
        assert!(norms::approx_eq(&ax, &system.rhs, 1e-6));
    }

    #[test]
    fn clamping_removes_positive_log_probabilities() {
        // A single equation x0 = +0.5 (impossible for a log-probability,
        // but measurement noise can produce it); clamping maps it to 0.
        let mut matrix = SparseMatrix::new(1);
        matrix.push_indicator_row(&[0]).unwrap();
        let system = EquationSystem {
            matrix,
            rhs: vec![0.5],
            sources: vec![EquationSource::SinglePath(PathId(0))],
            num_single: 1,
            num_pair: 0,
            covered: vec![true],
        };
        let outcome = solve_equations(&system, 1, &SolverConfig::default()).unwrap();
        assert_eq!(outcome.x, vec![0.0]);
        let unclamped = solve_equations(
            &system,
            1,
            &SolverConfig {
                clamp_nonpositive: false,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        assert!((unclamped.x[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn uncovered_links_default_to_good() {
        // Two links, but only link 0 appears in an equation; link 1 gets
        // log-probability 0 (good) from the minimum-norm / L1 choice.
        let mut matrix = SparseMatrix::new(2);
        matrix.push_indicator_row(&[0]).unwrap();
        let system = EquationSystem {
            matrix,
            rhs: vec![(0.7f64).ln()],
            sources: vec![EquationSource::SinglePath(PathId(0))],
            num_single: 1,
            num_pair: 0,
            covered: vec![true, false],
        };
        let outcome = solve_equations(&system, 2, &SolverConfig::default()).unwrap();
        assert!(outcome.underdetermined);
        assert!((outcome.x[0] - (0.7f64).ln()).abs() < 1e-6);
        assert!(outcome.x[1].abs() < 1e-9);
    }

    #[test]
    fn sparse_path_handles_underdetermined_systems() {
        let mut matrix = SparseMatrix::new(3);
        matrix.push_indicator_row(&[0, 1]).unwrap();
        matrix.push_indicator_row(&[1]).unwrap();
        let system = EquationSystem {
            matrix,
            rhs: vec![(0.5f64).ln(), (0.9f64).ln()],
            sources: vec![
                EquationSource::SinglePath(PathId(0)),
                EquationSource::SinglePath(PathId(1)),
            ],
            num_single: 2,
            num_pair: 0,
            covered: vec![true, true, false],
        };
        let config = SolverConfig {
            dense_threshold: 0,
            ..SolverConfig::default()
        };
        let outcome = solve_equations(&system, 3, &config).unwrap();
        assert_eq!(outcome.kind, SolverKind::SparseIterative);
        assert!(outcome.underdetermined);
        assert!(outcome.x[2].abs() < 1e-6);
        // The determined part is still recovered.
        assert!((outcome.x[1] - (0.9f64).ln()).abs() < 1e-3);
    }

    #[test]
    fn dense_path_handles_redundant_equations() {
        // Duplicate the first equation; the selector must skip it and the
        // solution must be unchanged.
        let (system, x_true) = fig1a_exact_system();
        let mut matrix = SparseMatrix::new(4);
        let mut rhs = Vec::new();
        let mut sources = Vec::new();
        for i in 0..system.num_equations() {
            let cols: Vec<usize> = system.matrix.row(i).iter().map(|&(c, _)| c).collect();
            matrix.push_indicator_row(&cols).unwrap();
            rhs.push(system.rhs[i]);
            sources.push(system.sources[i]);
            if i == 0 {
                matrix.push_indicator_row(&cols).unwrap();
                rhs.push(system.rhs[i]);
                sources.push(system.sources[i]);
            }
        }
        let redundant = EquationSystem {
            matrix,
            rhs,
            sources,
            num_single: 4,
            num_pair: 1,
            covered: vec![true; 4],
        };
        let outcome = solve_equations(&redundant, 4, &SolverConfig::default()).unwrap();
        assert_eq!(outcome.kind, SolverKind::DenseExact);
        assert_eq!(
            outcome.used_single, 3,
            "the duplicate row must not be counted"
        );
        assert!(norms::approx_eq(&outcome.x, &x_true, 1e-8));
    }

    #[test]
    fn an_inconsistent_equation_biases_the_exact_solution() {
        // This is the mechanism behind the paper's comparison: when an
        // invalid equation (here, a pair equation whose RHS is wrong
        // because the links are actually correlated) is part of the
        // selected square system, its bias lands on the links it touches.
        let (mut system, x_true) = fig1a_exact_system();
        // Corrupt the pair equation by the amount correlation would cause:
        // P(Y2 = 0, Y3 = 0) is larger than the independence assumption
        // predicts.
        system.rhs[3] += 0.3;
        let outcome = solve_equations(&system, 4, &SolverConfig::default()).unwrap();
        let error: f64 = outcome
            .x
            .iter()
            .zip(x_true.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(
            error > 0.2,
            "the corrupted equation should visibly bias the solution, max error {error}"
        );
    }

    #[test]
    fn dispatch_boundary_is_inclusive_at_the_dense_threshold() {
        // `num_links == dense_threshold` goes dense; one below goes
        // sparse; `dense_threshold: 0` sends every non-empty system to the
        // sparse path.
        let (system, _) = fig1a_exact_system();
        let at = SolverConfig {
            dense_threshold: 4,
            ..SolverConfig::default()
        };
        assert_eq!(
            solve_equations(&system, 4, &at).unwrap().kind,
            SolverKind::DenseExact
        );
        let below = SolverConfig {
            dense_threshold: 3,
            ..SolverConfig::default()
        };
        assert_eq!(
            solve_equations(&system, 4, &below).unwrap().kind,
            SolverKind::SparseIterative
        );
        let zero = SolverConfig {
            dense_threshold: 0,
            ..SolverConfig::default()
        };
        assert_eq!(
            solve_equations(&system, 4, &zero).unwrap().kind,
            SolverKind::SparseIterative
        );
    }

    #[test]
    fn zero_link_systems_solve_to_the_empty_solution_on_both_paths() {
        // Degenerate direct call: no unknowns at all. Both dispatch
        // configurations must agree on the empty solution instead of the
        // dense path failing on a 0×0 factorization.
        let system = EquationSystem {
            matrix: SparseMatrix::new(0),
            rhs: Vec::new(),
            sources: Vec::new(),
            num_single: 0,
            num_pair: 0,
            covered: Vec::new(),
        };
        for dense_threshold in [0usize, 400] {
            let config = SolverConfig {
                dense_threshold,
                ..SolverConfig::default()
            };
            let outcome = solve_equations(&system, 0, &config).unwrap();
            assert!(outcome.x.is_empty());
            assert_eq!(outcome.kind, SolverKind::DenseExact);
            assert_eq!(outcome.residual, 0.0);
            assert!(!outcome.underdetermined);
        }
    }

    #[test]
    fn infeasible_nonneg_l1_falls_back_to_the_free_sign_formulation() {
        // One equation over two unknowns with a *positive* RHS: noise can
        // produce this, but `x0 + x1 = +0.5` has no solution with x ≤ 0,
        // so the sign-constrained LP is infeasible and the solver must
        // fall back to the free-sign minimum-L1 formulation.
        let mut matrix = SparseMatrix::new(2);
        matrix.push_indicator_row(&[0, 1]).unwrap();
        let system = EquationSystem {
            matrix,
            rhs: vec![0.5],
            sources: vec![EquationSource::SinglePath(PathId(0))],
            num_single: 1,
            num_pair: 0,
            covered: vec![true, true],
        };
        let config = SolverConfig {
            clamp_nonpositive: false,
            ..SolverConfig::default()
        };
        let outcome = solve_equations(&system, 2, &config).unwrap();
        assert_eq!(outcome.kind, SolverKind::DenseL1);
        assert!(outcome.underdetermined);
        // The free-sign solution satisfies the equation exactly.
        assert!((outcome.x.iter().sum::<f64>() - 0.5).abs() < 1e-9);
        assert!(outcome.residual < 1e-9);
        // With clamping on the positive mass is removed, as in production.
        let clamped = solve_equations(&system, 2, &SolverConfig::default()).unwrap();
        assert!(clamped.x.iter().all(|&v| v <= 0.0));
    }

    #[test]
    fn non_indicator_rows_are_rejected_not_approximated() {
        let (mut system, _) = fig1a_exact_system();
        system.matrix.push_row(&[(0, 1.0), (3, 0.5)]).unwrap();
        system.rhs.push(-0.1);
        system
            .sources
            .push(EquationSource::PathPair(PathId(0), PathId(2)));
        assert_eq!(
            solve_equations(&system, 4, &SolverConfig::default()).err(),
            Some(CoreError::Numerical(LinalgError::NonIndicatorRow {
                row: 4
            }))
        );
        // A matrix over the wrong number of links is a configuration error.
        let (system, _) = fig1a_exact_system();
        assert!(matches!(
            solve_equations(&system, 5, &SolverConfig::default()),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn solver_config_default_is_sane() {
        let c = SolverConfig::default();
        assert!(c.dense_threshold >= 100);
        assert!(c.ridge > 0.0);
        assert!(c.clamp_nonpositive);
        assert!(c.cgls_iterations >= 1000);
    }
}
