//! # netcorr-core — tomography on correlated links
//!
//! This crate implements the inference algorithms of *"Network Tomography
//! on Correlated Links"* (Ghita, Argyraki, Thiran — IMC 2010). Given
//!
//! * a [`netcorr_topology::TopologyInstance`] — the network graph, the
//!   measurement paths and the correlation partition of the links — and
//! * a [`netcorr_measure::PathObservations`] — which paths were congested
//!   in each measurement snapshot,
//!
//! the algorithms infer, for every link, the probability that the link is
//! congested:
//!
//! * [`CorrelationAlgorithm`] — the paper's practical algorithm
//!   (Section 4): log-linear equations built only from paths and path
//!   pairs whose links are mutually uncorrelated, solved exactly when
//!   enough independent equations exist and by minimum-L1-norm (or
//!   regularised least squares at scale) otherwise.
//! * [`IndependenceAlgorithm`] — the baseline that assumes every link is
//!   independent (Nguyen–Thiran \[12\]); the comparison between the two is
//!   the subject of the paper's evaluation.
//! * [`TheoremAlgorithm`] — the exact, exponential-cost procedure from the
//!   proof of Theorem 1: identifies the probability of *every* set of
//!   links being congested through the congestion factors `α_A`. Used as
//!   an oracle on small topologies.
//!
//! The two practical algorithms are one-shot uses of a single pipeline,
//! the [`context`] module's [`InferenceContext`]: it computes the equation
//! structure, independence selection and solve plan (a dense QR
//! factorization, the minimum-L1 matrix, or a sparse indicator matrix)
//! **once** per topology, and per trial assembles the right-hand side from
//! any [`netcorr_measure::PathCounts`] — the batch estimator offline, the
//! streaming estimator in the daemon — and solves it. Multi-trial workloads
//! share contexts through [`ContextCache`]. Lower-level building blocks
//! (equation construction, solvers, congestion factors) are exposed in the
//! [`equations`], [`solver`] and [`factors`] modules for ablation studies
//! and custom pipelines.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod context;
pub mod equations;
pub mod error;
pub mod factors;
pub mod result;
pub mod solver;
pub mod theorem;

pub use algorithm::{AlgorithmConfig, CorrelationAlgorithm, IndependenceAlgorithm};
pub use context::{ContextCache, InferenceContext};
pub use equations::{
    EquationConfig, EquationSource, EquationStructure, EquationSystem, IncrementalEquationBuilder,
};
pub use error::CoreError;
pub use result::{Diagnostics, SolverKind, TomographyEstimate};
pub use solver::SolverConfig;
pub use theorem::{TheoremAlgorithm, TheoremConfig, TheoremEstimate};
