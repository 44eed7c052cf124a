//! Error type shared by all solvers in the crate.

use std::fmt;

/// Errors produced by the numerical routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Two operands have incompatible dimensions (e.g. `A * x` with
    /// `A.cols() != x.len()`).
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        operation: &'static str,
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension that was actually supplied.
        actual: usize,
    },
    /// The matrix is singular (or numerically singular) and the requested
    /// operation (solve, inverse) is not defined.
    Singular,
    /// The linear program is infeasible: no point satisfies the constraints.
    Infeasible,
    /// The linear program is unbounded: the objective can be decreased
    /// without limit.
    Unbounded,
    /// An iterative routine failed to converge within its iteration budget.
    DidNotConverge {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The input contained a non-finite value (NaN or ±∞).
    NotFinite,
    /// A matrix or vector argument was empty where a non-empty one is
    /// required.
    Empty,
    /// Exact 0/1 row selection was given a row holding a value other
    /// than 1.
    NonIndicatorRow {
        /// Index of the offending row.
        row: usize,
    },
    /// Exact row selection over two primes picked different rows (or
    /// reduced to different identifiable columns): at least one prime
    /// divides a minor of the matrix, so neither answer is trusted.
    PrimeDisagreement {
        /// The two primes the elimination ran over.
        primes: [u64; 2],
        /// The rank found modulo each prime.
        ranks: [usize; 2],
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                operation,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {operation}: expected {expected}, got {actual}"
            ),
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::Infeasible => write!(f, "linear program is infeasible"),
            LinalgError::Unbounded => write!(f, "linear program is unbounded"),
            LinalgError::DidNotConverge { iterations } => {
                write!(f, "did not converge after {iterations} iterations")
            }
            LinalgError::NotFinite => write!(f, "input contains NaN or infinite values"),
            LinalgError::Empty => write!(f, "input is empty"),
            LinalgError::NonIndicatorRow { row } => {
                write!(
                    f,
                    "row {row} holds a value other than 1; expected a 0/1 indicator row"
                )
            }
            LinalgError::PrimeDisagreement { primes, ranks } => write!(
                f,
                "exact row selection disagrees between primes {} and {} (ranks {} and {})",
                primes[0], primes[1], ranks[0], ranks[1]
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LinalgError::DimensionMismatch {
            operation: "matvec",
            expected: 3,
            actual: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("matvec"));
        assert!(msg.contains('3'));
        assert!(msg.contains('4'));

        assert!(LinalgError::Singular.to_string().contains("singular"));
        assert!(LinalgError::Infeasible.to_string().contains("infeasible"));
        assert!(LinalgError::Unbounded.to_string().contains("unbounded"));
        assert!(LinalgError::NotFinite.to_string().contains("NaN"));
        assert!(LinalgError::Empty.to_string().contains("empty"));
        assert!(LinalgError::DidNotConverge { iterations: 7 }
            .to_string()
            .contains('7'));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(LinalgError::Singular, LinalgError::Singular);
        assert_ne!(LinalgError::Singular, LinalgError::Infeasible);
    }
}
