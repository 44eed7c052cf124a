//! Property-based tests for the numerical substrate.
//!
//! These check structural invariants of the solvers on randomly generated,
//! well-conditioned inputs: solutions actually satisfy the systems they
//! were produced from, factorisations reproduce the original matrices, and
//! the minimum-L1 solution never has a larger L1 norm than any other
//! feasible point we can construct. The fast paths are checked against
//! their oracles: exact row selection against Gram–Schmidt, and CGLS over
//! an [`IndicatorMatrix`] against the general sparse CGLS, bit for bit.

use netcorr_linalg::{
    l1::min_l1_norm_solution,
    matrix::Matrix,
    norms::{l1_norm, l2_norm, sub},
    qr::QrDecomposition,
    rank::{select_indicator_rows, IndependentRowSelector},
    simplex::{LinearProgram, LpStatus},
    sparse::{cgls, cgls_indicator, IndicatorMatrix, SparseMatrix},
};
use proptest::prelude::*;

/// Estimates the numerical rank of a matrix by Gaussian elimination with
/// partial pivoting and the relative tolerance `tol`.
fn numerical_rank(a: &Matrix, tol: f64) -> usize {
    if a.is_empty() {
        return 0;
    }
    let mut m = a.clone();
    let rows = m.rows();
    let cols = m.cols();
    let scale = m.max_abs();
    if scale == 0.0 {
        return 0;
    }
    let threshold = tol * scale;
    let mut rank = 0;
    let mut pivot_row = 0;
    for col in 0..cols {
        if pivot_row >= rows {
            break;
        }
        // Find the largest entry in this column at or below pivot_row.
        let mut best = pivot_row;
        let mut best_val = m[(pivot_row, col)].abs();
        for i in (pivot_row + 1)..rows {
            let v = m[(i, col)].abs();
            if v > best_val {
                best_val = v;
                best = i;
            }
        }
        if best_val <= threshold {
            continue;
        }
        m.swap_rows(pivot_row, best);
        let pivot = m[(pivot_row, col)];
        for i in (pivot_row + 1)..rows {
            let factor = m[(i, col)] / pivot;
            if factor == 0.0 {
                continue;
            }
            for j in col..cols {
                let delta = factor * m[(pivot_row, j)];
                m[(i, j)] -= delta;
            }
        }
        rank += 1;
        pivot_row += 1;
    }
    rank
}

/// The Gram–Schmidt oracle's selection: a maximal linearly-independent
/// subset of the rows of `a`, considering rows in the order given by
/// `priority`, returned in acceptance order.
fn select_independent_rows(a: &Matrix, priority: &[usize], tol: f64) -> Vec<usize> {
    let mut selector = IndependentRowSelector::new(a.cols(), tol);
    let mut accepted = Vec::new();
    for &i in priority {
        if selector.is_complete() {
            break;
        }
        if selector.offer(a.row_slice(i)) {
            accepted.push(i);
        }
    }
    accepted
}

/// A 0/1 matrix of `rows × cols` whose cell `(i, j)` is 1 iff
/// `cells[i * 24 + j] < density`.
fn indicator_matrix(rows: usize, cols: usize, density: f64, cells: &[f64]) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        if cells[i * 24 + j] < density {
            1.0
        } else {
            0.0
        }
    })
}

#[test]
fn rank_of_simple_matrices() {
    assert_eq!(numerical_rank(&Matrix::identity(3), 1e-10), 3);
    assert_eq!(numerical_rank(&Matrix::zeros(3, 3), 1e-10), 0);

    let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
    assert_eq!(numerical_rank(&a, 1e-10), 1);

    let b = Matrix::from_rows(&[
        vec![1.0, 0.0, 1.0],
        vec![0.0, 1.0, 1.0],
        vec![1.0, 1.0, 2.0],
    ])
    .unwrap();
    // Third row is the sum of the first two.
    assert_eq!(numerical_rank(&b, 1e-10), 2);
}

#[test]
fn rank_of_wide_and_tall_matrices() {
    let wide = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
    assert_eq!(numerical_rank(&wide, 1e-10), 2);
    let tall = wide.transpose();
    assert_eq!(numerical_rank(&tall, 1e-10), 2);
}

/// Converts a dense matrix into the sparse row format, keeping every entry
/// (including explicit zeros — the formats must agree regardless).
fn sparse_from_dense(m: &Matrix) -> SparseMatrix {
    let mut sparse = SparseMatrix::new(m.cols());
    for i in 0..m.rows() {
        let entries: Vec<(usize, f64)> = (0..m.cols()).map(|j| (j, m[(i, j)])).collect();
        sparse.push_row(&entries).unwrap();
    }
    sparse
}

/// Strategy: a diagonally dominant square matrix of size `n` (always
/// invertible and well conditioned).
fn diag_dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |vals| {
        let mut m = Matrix::from_row_slice(n, n, &vals).unwrap();
        for i in 0..n {
            let row_sum: f64 = (0..n).map(|j| m[(i, j)].abs()).sum();
            m[(i, i)] = row_sum + 1.0;
        }
        m
    })
}

/// Strategy: an arbitrary vector of length `n` with moderate entries.
fn vector(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qr_least_squares_recovers_exact_solution_of_consistent_system(
        a in diag_dominant_matrix(5),
        x_true in vector(5),
    ) {
        // Stack the square system on top of a duplicate of its first row to
        // get a consistent over-determined system.
        let mut rows: Vec<Vec<f64>> = (0..5).map(|i| a.row(i)).collect();
        rows.push(a.row(0));
        let tall = Matrix::from_rows(&rows).unwrap();
        let mut b = a.matvec(&x_true).unwrap();
        b.push(b[0]);
        let qr = QrDecomposition::new(&tall).unwrap();
        let x = qr.solve_least_squares(&b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            prop_assert!((xi - ti).abs() < 1e-6, "{xi} vs {ti}");
        }
    }

    #[test]
    fn rank_is_bounded_by_dimensions(vals in prop::collection::vec(-1.0f64..1.0, 30)) {
        let m = Matrix::from_row_slice(5, 6, &vals).unwrap();
        let r = numerical_rank(&m, 1e-10);
        prop_assert!(r <= 5);
    }

    #[test]
    fn selected_rows_count_equals_rank(vals in prop::collection::vec(-1.0f64..1.0, 24)) {
        let m = Matrix::from_row_slice(6, 4, &vals).unwrap();
        let order: Vec<usize> = (0..6).collect();
        let selected = select_independent_rows(&m, &order, 1e-9);
        // The number of independent rows selected greedily equals the rank.
        prop_assert_eq!(selected.len(), numerical_rank(&m, 1e-9));
    }

    #[test]
    fn min_l1_solution_is_feasible_and_no_worse_than_reference(
        vals in prop::collection::vec(-1.0f64..1.0, 12),
        x_ref in vector(6),
    ) {
        // 2 x 6 under-determined system with a known feasible point x_ref.
        let a = Matrix::from_row_slice(2, 6, &vals).unwrap();
        if numerical_rank(&a, 1e-8) < 2 {
            // Skip nearly-degenerate instances.
            return Ok(());
        }
        let b = a.matvec(&x_ref).unwrap();
        let x = min_l1_norm_solution(&a, &b).unwrap().into_optimal().unwrap();
        let residual = l2_norm(&sub(&a.matvec(&x).unwrap(), &b));
        prop_assert!(residual < 1e-5, "residual {residual}");
        prop_assert!(l1_norm(&x) <= l1_norm(&x_ref) + 1e-5);
    }

    #[test]
    fn simplex_optimum_is_feasible(
        vals in prop::collection::vec(0.1f64..1.0, 8),
        b in prop::collection::vec(0.5f64..2.0, 2),
        cost in prop::collection::vec(0.1f64..5.0, 4),
    ) {
        // A x = b with positive A and b: always feasible (scale a column).
        let a = Matrix::from_row_slice(2, 4, &vals).unwrap();
        let lp = LinearProgram::new(cost, a.clone(), b.clone()).unwrap();
        let sol = lp.solve().unwrap();
        if sol.status == LpStatus::Optimal {
            let ax = a.matvec(&sol.x).unwrap();
            for (l, r) in ax.iter().zip(b.iter()) {
                prop_assert!((l - r).abs() < 1e-6, "constraint violated: {l} vs {r}");
            }
            prop_assert!(sol.x.iter().all(|&v| v >= -1e-9));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qr_factors_reconstruct_input(vals in prop::collection::vec(-1.0f64..1.0, 24)) {
        // A 6 x 4 matrix with continuous random entries is full column rank
        // almost surely; the reconstruction identity A = Q·R holds either way.
        let a = Matrix::from_row_slice(6, 4, &vals).unwrap();
        let qr = QrDecomposition::new(&a).unwrap();
        let q = qr.q();
        let reconstructed = q.matmul(&qr.r()).unwrap();
        prop_assert!(reconstructed.approx_eq(&a, 1e-9), "A != Q R");
        // The thin factor is orthonormal: Qᵀ Q = I.
        let qtq = q.transpose().matmul(&q).unwrap();
        prop_assert!(qtq.approx_eq(&Matrix::identity(4), 1e-9), "Qᵀ Q != I");
    }

    #[test]
    fn sparse_and_dense_matvec_agree(
        vals in prop::collection::vec(-1.0f64..1.0, 30),
        x in vector(6),
        y in vector(5),
    ) {
        // Zero out some entries so the sparse representation is exercised
        // with genuinely sparse rows, not just fully dense ones.
        let dense = Matrix::from_fn(5, 6, |i, j| {
            let v = vals[i * 6 + j];
            if v.abs() < 0.4 {
                0.0
            } else {
                v
            }
        });
        let mut sparse = SparseMatrix::new(6);
        for i in 0..5 {
            let entries: Vec<(usize, f64)> = (0..6)
                .filter(|&j| dense[(i, j)] != 0.0)
                .map(|j| (j, dense[(i, j)]))
                .collect();
            sparse.push_row(&entries).unwrap();
        }
        let forward = l2_norm(&sub(&sparse.matvec(&x).unwrap(), &dense.matvec(&x).unwrap()));
        prop_assert!(forward < 1e-12, "matvec disagreement {forward}");
        let transposed = l2_norm(&sub(
            &sparse.transpose_matvec(&y).unwrap(),
            &dense.transpose().matvec(&y).unwrap(),
        ));
        prop_assert!(transposed < 1e-12, "transpose_matvec disagreement {transposed}");
        prop_assert!(sparse.to_dense().approx_eq(&dense, 0.0), "to_dense round trip");
    }

    #[test]
    fn cgls_converges_on_well_conditioned_systems(
        a in diag_dominant_matrix(8),
        x_true in vector(8),
    ) {
        // Same tolerance as SolverConfig::default().cgls_tolerance.
        let cgls_tolerance = 1e-12;
        let b = a.matvec(&x_true).unwrap();
        let sparse = sparse_from_dense(&a);
        let sol = cgls(&sparse, &b, 0.0, 4000, cgls_tolerance, None).unwrap();
        prop_assert!(sol.converged, "CGLS hit the iteration cap");
        prop_assert!(sol.residual < 1e-6, "residual {}", sol.residual);
        let err = l2_norm(&sub(&sol.x, &x_true));
        prop_assert!(err < 1e-6, "solution error {err}");
    }
}

#[test]
fn matrix_add_sub_roundtrip() {
    let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
    let b = Matrix::from_fn(4, 4, |i, j| ((i as i64) - (j as i64)) as f64);
    let sum = &a + &b;
    let back = &sum - &b;
    assert!(back.approx_eq(&a, 1e-12));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn exact_selection_matches_the_gram_schmidt_oracle(
        rows in 1usize..=36,
        cols in 1usize..=24,
        density in 0.03f64..0.5,
        cells in prop::collection::vec(0.0f64..1.0, 36 * 24),
    ) {
        // Random density keeps rank-deficient, partly identified systems
        // common.
        let a = indicator_matrix(rows, cols, density, &cells);
        let order: Vec<usize> = (0..a.rows()).collect();
        let oracle = select_independent_rows(&a, &order, 1e-9);
        let exact = select_indicator_rows(&sparse_from_dense(&a)).unwrap();
        prop_assert_eq!(&exact.selected, &oracle);
        prop_assert_eq!(exact.rank(), numerical_rank(&a, 1e-9));
        // Link k is identified iff e_k lies in the span of the selected
        // rows: a selector holding them rejects it.
        let mut holding = IndependentRowSelector::new(a.cols(), 1e-9);
        for &i in &oracle {
            prop_assert!(holding.offer(a.row_slice(i)));
        }
        for k in 0..a.cols() {
            let mut unit = vec![0.0; a.cols()];
            unit[k] = 1.0;
            let rejected = !holding.clone().offer(&unit);
            prop_assert_eq!(exact.identified[k], rejected, "column {}", k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn indicator_cgls_matches_the_general_solver_bitwise(
        rows in 1usize..=30,
        cols in 1usize..=20,
        density in 0.05f64..0.5,
        cells in prop::collection::vec(0.0f64..1.0, 30 * 20),
        twists in prop::collection::vec(0.0f64..1.0, 30 + 20),
        rhs in prop::collection::vec(-2.0f64..0.5, 30),
        start in prop::collection::vec(-1.0f64..0.2, 20),
    ) {
        // A random 0/1 pattern, then per row: empty, or a copy of the row
        // above (redundant); per column: empty, or a copy of the column
        // to its left (identical columns).
        let mut pattern: Vec<Vec<bool>> = (0..rows)
            .map(|i| (0..cols).map(|j| cells[i * 20 + j] < density).collect())
            .collect();
        for i in 0..rows {
            if twists[i] < 0.15 {
                pattern[i] = vec![false; cols];
            } else if twists[i] < 0.35 && i > 0 {
                pattern[i] = pattern[i - 1].clone();
            }
        }
        for j in 0..cols {
            for row in pattern.iter_mut() {
                if twists[30 + j] < 0.15 {
                    row[j] = false;
                } else if twists[30 + j] < 0.35 && j > 0 {
                    row[j] = row[j - 1];
                }
            }
        }
        let mut general = SparseMatrix::new(cols);
        for row in &pattern {
            let ones: Vec<usize> = (0..cols).filter(|&j| row[j]).collect();
            general.push_indicator_row(&ones).unwrap();
        }
        let all: Vec<usize> = (0..rows).collect();
        let indicator = IndicatorMatrix::gather(&general, &all).unwrap();
        // Some right-hand-side and warm-start entries are exactly zero.
        let b: Vec<f64> = (0..rows)
            .map(|i| if twists[i] > 0.75 { 0.0 } else { rhs[i] })
            .collect();
        let warm: Vec<f64> = (0..cols)
            .map(|j| if twists[30 + j] > 0.75 { 0.0 } else { start[j] })
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for lambda in [0.0, 1e-8] {
            for cap in [0, 1, 4000] {
                for initial in [None, Some(&warm[..])] {
                    let want = cgls(&general, &b, lambda, cap, 1e-12, initial).unwrap();
                    let got = cgls_indicator(&indicator, &b, lambda, cap, 1e-12, initial).unwrap();
                    prop_assert_eq!(bits(&got.x), bits(&want.x));
                    prop_assert_eq!(got.iterations, want.iterations);
                    prop_assert_eq!(got.residual.to_bits(), want.residual.to_bits());
                    prop_assert_eq!(got.converged, want.converged);
                }
            }
        }
    }
}
