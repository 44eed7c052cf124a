//! # netcorr-linalg — numerical substrate
//!
//! The tomography algorithms in `netcorr-core` reduce the inference problem
//! to (possibly under-determined) systems of linear equations over the
//! log-probabilities of links being good (paper, Section 4):
//!
//! ```text
//! y_i  = Σ_{e_k ∈ P_i}        x_k          (single-path equations)
//! y_ij = Σ_{e_k ∈ P_i ∪ P_j}  x_k          (path-pair equations)
//! ```
//!
//! This crate provides everything required to build and solve those systems
//! without any external numerical dependency:
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with the usual algebra.
//! * [`qr`] — Householder QR factorisation (least-squares solves of
//!   full-column-rank systems; the dense exact solver plan).
//! * [`rank`] — exact greedy selection of a linearly-independent subset
//!   of 0/1 rows, with the columns they identify (used by the solver to
//!   keep only independent measurements), plus its Gram–Schmidt oracle.
//! * [`simplex`] — a two-phase primal simplex solver for linear programs in
//!   standard form.
//! * [`l1`] — minimum-L1-norm solutions of under-determined systems
//!   (`min ‖x‖₁ s.t. Ax = b`), via the LP formulation; this is the fallback
//!   used by the paper's practical algorithm when fewer than `|E|`
//!   independent equations are available.
//! * [`sparse`] — sparse row matrices, 0/1 indicator matrices and the
//!   CGLS least-squares solver (the large-system solver plan).
//! * [`norms`] — vector norms and small helpers.
//!
//! All routines are deterministic and allocate only `Vec<f64>` storage.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod l1;
pub mod matrix;
pub mod norms;
pub mod qr;
pub mod rank;
pub mod simplex;
pub mod sparse;

pub use error::LinalgError;
pub use l1::{min_l1_norm_solution, min_l1_norm_solution_nonneg};
pub use matrix::Matrix;
pub use qr::QrDecomposition;
pub use simplex::{LinearProgram, LpSolution, LpStatus};
pub use sparse::{cgls, cgls_indicator, CglsSolution, IndicatorMatrix, SparseMatrix};

/// Default relative tolerance used across the crate when comparing floating
/// point magnitudes (rank decisions, pivot checks, ...).
pub const DEFAULT_TOLERANCE: f64 = 1e-10;
