//! Greedy selection of linearly-independent rows.
//!
//! The equation builder in `netcorr-core` enumerates candidate measurement
//! equations (one per usable path and per usable path pair) and must keep
//! only a linearly-independent subset — the paper's `N1` single-path
//! equations and `N2` pair equations — taking rows in a priority order.
//!
//! Every equation row is a 0/1 indicator row, so the selection is made
//! exactly: [`select_indicator_rows`] runs sparse Gaussian elimination over
//! the prime field GF(2⁶¹−1). Offering the rows greedily in order yields
//! the lexicographically first basis, which is the same set of rows over
//! any field in which the rank agrees with the rank over ℚ. A rank modulo
//! `p` can only under-count (when `p` divides a minor), so the elimination
//! is repeated over a second prime and any disagreement is an error rather
//! than a silent pick. The echelon form is then reduced (RREF), which also
//! tells which columns are *identified*: column `k` is pinned by the rows
//! iff the unit vector `e_k` lies in their row space.
//!
//! [`IndependentRowSelector`] is the floating-point oracle: two-pass
//! Gram–Schmidt against a dense orthonormal basis, `O(rows × rank ×
//! cols)`. Tests and benchmarks check the exact selection against it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::error::LinalgError;
use crate::norms::{dot, l2_norm};
use crate::sparse::SparseMatrix;

/// The primes [`select_indicator_rows`] eliminates over: the Mersenne
/// prime 2⁶¹−1 and the largest prime below 2⁶².
const SELECTION_PRIMES: [u64; 2] = [(1 << 61) - 1, (1 << 62) - 57];

/// The exact selection of a 0/1 matrix's rows and what it pins down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndicatorSelection {
    /// Indices of the accepted rows, in acceptance (= row) order.
    pub selected: Vec<usize>,
    /// Per column: whether its unit vector lies in the row space, i.e.
    /// whether every solution of the system gives it the same value.
    pub identified: Vec<bool>,
}

impl IndicatorSelection {
    /// The rank of the matrix: the number of selected rows.
    pub fn rank(&self) -> usize {
        self.selected.len()
    }

    /// Number of identified columns.
    pub fn num_identified(&self) -> usize {
        self.identified.iter().filter(|&&id| id).count()
    }
}

/// Selects a maximal linearly-independent subset of the rows of a 0/1
/// matrix, taking rows in row order, and flags the identified columns.
///
/// The elimination is exact: it runs over GF(2⁶¹−1) and GF(2⁶²−57) and
/// fails with [`LinalgError::PrimeDisagreement`] if they disagree. A row
/// holding any value other than 1 fails with
/// [`LinalgError::NonIndicatorRow`].
pub fn select_indicator_rows(matrix: &SparseMatrix) -> Result<IndicatorSelection, LinalgError> {
    select_over(matrix, SELECTION_PRIMES)
}

/// [`select_indicator_rows`] over two given primes.
fn select_over(matrix: &SparseMatrix, primes: [u64; 2]) -> Result<IndicatorSelection, LinalgError> {
    if let Some(row) =
        (0..matrix.rows()).find(|&i| matrix.row(i).iter().any(|&(_, value)| value != 1.0))
    {
        return Err(LinalgError::NonIndicatorRow { row });
    }
    let [a, b] = primes.map(|prime| ModularEchelon::eliminate(matrix, prime));
    if a != b {
        return Err(LinalgError::PrimeDisagreement {
            primes,
            ranks: [a.rank(), b.rank()],
        });
    }
    Ok(a)
}

/// `a · b mod p`.
fn mul_mod(a: u64, b: u64, p: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(p)) as u64
}

/// `a − b mod p`, for `a, b < p`.
fn sub_mod(a: u64, b: u64, p: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + (p - b)
    }
}

/// `a⁻¹ mod p` for prime `p` and `a ≠ 0`, by Fermat's little theorem.
fn inv_mod(a: u64, p: u64) -> u64 {
    let (mut base, mut exp, mut acc) = (a, p - 2, 1);
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, p);
        }
        base = mul_mod(base, base, p);
        exp >>= 1;
    }
    acc
}

/// Sparse row echelon form over GF(p), built by offering rows greedily.
///
/// Each stored row is sorted by column and has its leading entry scaled to
/// 1; its leading column is its pivot. A stored row has no entry in any
/// pivot column established before it (later pivots may appear in it).
struct ModularEchelon {
    prime: u64,
    /// Per column: the index into `rows` of the row it is the pivot of.
    pivot_of: Vec<Option<usize>>,
    rows: Vec<Vec<(usize, u64)>>,
    /// Dense accumulator for the row being reduced; all zero between
    /// offers.
    work: Vec<u64>,
    /// Columns of `work` that may be non-zero, smallest first.
    pending: BinaryHeap<Reverse<usize>>,
}

impl ModularEchelon {
    /// The selection of `matrix`'s rows (all indicator rows) over GF(prime).
    fn eliminate(matrix: &SparseMatrix, prime: u64) -> IndicatorSelection {
        let cols = matrix.cols();
        let mut echelon = ModularEchelon {
            prime,
            pivot_of: vec![None; cols],
            rows: Vec::new(),
            work: vec![0; cols],
            pending: BinaryHeap::new(),
        };
        let mut selected = Vec::new();
        for i in 0..matrix.rows() {
            if echelon.rows.len() == cols {
                break;
            }
            if echelon.offer(matrix.row(i).iter().map(|&(col, _)| col)) {
                selected.push(i);
            }
        }
        IndicatorSelection {
            selected,
            identified: echelon.identified(),
        }
    }

    /// Offers the indicator row with 1s in `cols`; keeps it and returns
    /// `true` iff it is independent of the rows kept so far.
    fn offer(&mut self, cols: impl Iterator<Item = usize>) -> bool {
        let p = self.prime;
        for col in cols {
            self.work[col] = 1;
            self.pending.push(Reverse(col));
        }
        // Eliminate pivot columns smallest first. A pivot row only has
        // entries right of its pivot, so a column never reappears once
        // popped; a duplicate heap entry finds the column already zeroed.
        let mut residual: Vec<(usize, u64)> = Vec::new();
        while let Some(Reverse(col)) = self.pending.pop() {
            let factor = std::mem::take(&mut self.work[col]);
            if factor == 0 {
                continue;
            }
            match self.pivot_of[col] {
                None => residual.push((col, factor)),
                Some(r) => {
                    for &(j, value) in &self.rows[r][1..] {
                        if self.work[j] == 0 {
                            self.pending.push(Reverse(j));
                        }
                        self.work[j] = sub_mod(self.work[j], mul_mod(factor, value, p), p);
                    }
                }
            }
        }
        let Some(&(lead, lead_value)) = residual.first() else {
            return false;
        };
        let scale = inv_mod(lead_value, p);
        for entry in &mut residual {
            entry.1 = mul_mod(entry.1, scale, p);
        }
        self.pivot_of[lead] = Some(self.rows.len());
        self.rows.push(residual);
        true
    }

    /// Reduces the echelon form (RREF) and flags the identified columns:
    /// a pivot column whose reduced row holds no free (non-pivot) column.
    /// Rows are reduced from the rightmost pivot leftwards, so every row
    /// subtracted is already reduced and has no pivot entry but its own.
    fn identified(&mut self) -> Vec<bool> {
        let p = self.prime;
        let cols = self.pivot_of.len();
        let mut reduced: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.rows.len()];
        let mut identified = vec![false; cols];
        let mut touched: Vec<usize> = Vec::new();
        for col in (0..cols).rev() {
            let Some(r) = self.pivot_of[col] else {
                continue;
            };
            for &(j, value) in &self.rows[r] {
                match self.pivot_of[j] {
                    Some(other) if j != col => {
                        for &(k, w) in &reduced[other] {
                            if k != j {
                                touched.push(k);
                                self.work[k] = sub_mod(self.work[k], mul_mod(value, w, p), p);
                            }
                        }
                    }
                    _ => {
                        touched.push(j);
                        self.work[j] = (self.work[j] + value) % p;
                    }
                }
            }
            touched.sort_unstable();
            touched.dedup();
            let mut row = Vec::with_capacity(touched.len());
            for k in touched.drain(..) {
                let value = std::mem::take(&mut self.work[k]);
                if value != 0 {
                    row.push((k, value));
                }
            }
            identified[col] = row.len() == 1;
            reduced[r] = row;
        }
        identified
    }
}

/// Incremental selector of linearly-independent rows.
///
/// Rows are offered one at a time (in priority order); a row is accepted if
/// it is not (numerically) in the span of the rows accepted so far. The
/// selector keeps an orthonormal basis of the accepted rows, so each offer
/// costs `O(k·n)` where `k` is the number of rows accepted so far.
#[derive(Debug, Clone)]
pub struct IndependentRowSelector {
    dim: usize,
    tol: f64,
    basis: Vec<Vec<f64>>,
}

impl IndependentRowSelector {
    /// Creates a selector for rows of length `dim` with relative tolerance
    /// `tol` (a row is rejected if, after orthogonalisation against the
    /// accepted rows, its norm falls below `tol` times its original norm).
    pub fn new(dim: usize, tol: f64) -> Self {
        IndependentRowSelector {
            dim,
            tol,
            basis: Vec::new(),
        }
    }

    /// Number of rows accepted so far.
    pub fn accepted(&self) -> usize {
        self.basis.len()
    }

    /// Returns `true` when the accepted rows already span the full space.
    pub fn is_complete(&self) -> bool {
        self.basis.len() >= self.dim
    }

    /// Offers a row; returns `true` if it was accepted (linearly
    /// independent from the rows accepted so far).
    ///
    /// # Panics
    ///
    /// Panics if the row has the wrong length.
    pub fn offer(&mut self, row: &[f64]) -> bool {
        assert_eq!(row.len(), self.dim, "row has wrong length");
        if self.is_complete() {
            return false;
        }
        let original_norm = l2_norm(row);
        if original_norm == 0.0 {
            return false;
        }
        let mut v = row.to_vec();
        // Two passes of modified Gram–Schmidt for numerical robustness.
        for _ in 0..2 {
            for b in &self.basis {
                let proj = dot(&v, b);
                for (vi, bi) in v.iter_mut().zip(b.iter()) {
                    *vi -= proj * bi;
                }
            }
        }
        let remaining = l2_norm(&v);
        if remaining <= self.tol * original_norm {
            return false;
        }
        for vi in &mut v {
            *vi /= remaining;
        }
        self.basis.push(v);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn indicator_matrix(cols: usize, rows: &[&[usize]]) -> SparseMatrix {
        let mut m = SparseMatrix::new(cols);
        for row in rows {
            m.push_indicator_row(row).unwrap();
        }
        m
    }

    /// The oracle's pick: rows offered in order to a Gram–Schmidt
    /// selector.
    fn oracle_selection(a: &Matrix, order: &[usize]) -> Vec<usize> {
        let mut sel = IndependentRowSelector::new(a.cols(), 1e-9);
        order
            .iter()
            .copied()
            .filter(|&i| sel.offer(a.row_slice(i)))
            .collect()
    }

    #[test]
    fn selector_accepts_only_independent_rows() {
        let mut sel = IndependentRowSelector::new(3, 1e-9);
        assert!(sel.offer(&[1.0, 0.0, 0.0]));
        assert!(sel.offer(&[1.0, 1.0, 0.0]));
        // In the span of the first two.
        assert!(!sel.offer(&[3.0, 5.0, 0.0]));
        assert!(!sel.offer(&[0.0, 0.0, 0.0]));
        assert!(sel.offer(&[0.0, 0.0, 7.0]));
        assert!(sel.is_complete());
        // Once complete, everything is rejected.
        assert!(!sel.offer(&[1.0, 2.0, 3.0]));
        assert_eq!(sel.accepted(), 3);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn selector_panics_on_wrong_length() {
        let mut sel = IndependentRowSelector::new(3, 1e-9);
        sel.offer(&[1.0, 2.0]);
    }

    #[test]
    fn select_independent_rows_respects_priority() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0], // 0
            vec![2.0, 0.0], // 1 (dependent on 0)
            vec![0.0, 1.0], // 2
            vec![1.0, 1.0], // 3 (dependent on 0, 2)
        ])
        .unwrap();
        // Priority order prefers row 1 over row 0.
        assert_eq!(oracle_selection(&a, &[1, 0, 3, 2]), vec![1, 3]);
        assert_eq!(oracle_selection(&a, &[0, 1, 2, 3]), vec![0, 2]);
    }

    #[test]
    fn selection_count_matches_rank() {
        let a = Matrix::from_rows(&[
            vec![1.0, 1.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0, 0.0],
            vec![1.0, 2.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0, 1.0],
        ])
        .unwrap();
        // Row 2 = row 0 + row 1 and row 4 = row 0 + row 3: rank 3.
        let order: Vec<usize> = (0..a.rows()).collect();
        assert_eq!(oracle_selection(&a, &order), vec![0, 1, 3]);
    }

    #[test]
    fn exact_selection_keeps_the_first_basis_and_flags_identified_columns() {
        // Figure 1(a): P1 = {e1, e3}, P2 = {e2, e3}, P3 = {e2, e4}, plus a
        // duplicate of P1 and the pair equation (P2, P3).
        let m = indicator_matrix(4, &[&[0, 2], &[1, 2], &[0, 2], &[1, 3], &[1, 2, 3]]);
        let selection = select_indicator_rows(&m).unwrap();
        assert_eq!(selection.selected, vec![0, 1, 3, 4]);
        assert_eq!(selection.rank(), 4);
        assert_eq!(selection.identified, vec![true; 4]);

        // Without the pair equation only the differences are pinned:
        // x1 − x2 and x3 − x4 are known, no single link is.
        let m = indicator_matrix(4, &[&[0, 2], &[1, 2], &[1, 3]]);
        let selection = select_indicator_rows(&m).unwrap();
        assert_eq!(selection.rank(), 3);
        assert_eq!(selection.num_identified(), 0);

        // A link measured alone is identified; an uncovered one is not.
        let m = indicator_matrix(3, &[&[0], &[0, 1], &[1]]);
        let selection = select_indicator_rows(&m).unwrap();
        assert_eq!(selection.selected, vec![0, 1]);
        assert_eq!(selection.identified, vec![true, true, false]);
    }

    #[test]
    fn exact_selection_stops_once_every_column_is_pinned() {
        let m = indicator_matrix(2, &[&[0], &[1], &[0, 1], &[1]]);
        let selection = select_indicator_rows(&m).unwrap();
        assert_eq!(selection.selected, vec![0, 1]);
        assert_eq!(selection.identified, vec![true, true]);
        let empty = select_indicator_rows(&SparseMatrix::new(3)).unwrap();
        assert_eq!(empty.rank(), 0);
        assert_eq!(empty.identified, vec![false; 3]);
    }

    #[test]
    fn a_prime_that_divides_a_minor_is_caught_by_the_second_prime() {
        // det = 2: rank 2 modulo 2, rank 3 over the rationals.
        let m = indicator_matrix(3, &[&[0, 1], &[1, 2], &[0, 2]]);
        assert_eq!(ModularEchelon::eliminate(&m, 2).rank(), 2);
        assert_eq!(
            select_over(&m, [2, SELECTION_PRIMES[0]]),
            Err(LinalgError::PrimeDisagreement {
                primes: [2, SELECTION_PRIMES[0]],
                ranks: [2, 3],
            })
        );
        let exact = select_indicator_rows(&m).unwrap();
        assert_eq!(exact.selected, vec![0, 1, 2]);
        assert_eq!(exact.identified, vec![true; 3]);
    }

    #[test]
    fn non_indicator_rows_are_rejected() {
        let mut m = indicator_matrix(3, &[&[0, 1]]);
        m.push_row(&[(1, 1.0), (2, 0.5)]).unwrap();
        assert_eq!(
            select_indicator_rows(&m),
            Err(LinalgError::NonIndicatorRow { row: 1 })
        );
        // A repeated column sums to 2: not an indicator row either.
        let m = indicator_matrix(3, &[&[2, 2]]);
        assert_eq!(
            select_indicator_rows(&m),
            Err(LinalgError::NonIndicatorRow { row: 0 })
        );
    }

    #[test]
    fn modular_arithmetic_helpers() {
        for p in SELECTION_PRIMES {
            for a in [1, 2, 3, p - 1, p / 2] {
                assert_eq!(mul_mod(a, inv_mod(a, p), p), 1);
                assert_eq!(sub_mod(0, a, p), p - a);
            }
        }
        assert_eq!(inv_mod(1, 2), 1);
    }
}
