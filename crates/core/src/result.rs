//! The output of an inference run.

use serde::{Deserialize, Serialize};

use netcorr_topology::graph::LinkId;

/// Which numerical strategy produced an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverKind {
    /// The paper-exact dense path: select `|E|` linearly independent
    /// equations and solve them exactly.
    DenseExact,
    /// The paper-exact dense path with fewer than `|E|` independent
    /// equations: the minimum-L1-norm solution consistent with them.
    DenseL1,
    /// The scalable path: regularised sparse least squares (CGLS) over the
    /// selected independent equations.
    SparseIterative,
}

/// Diagnostics accompanying an estimate: how many equations of each kind
/// were used, whether the system was under-determined, and the residual of
/// the solution on the collected equations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Diagnostics {
    /// Number of links (unknowns).
    pub num_links: usize,
    /// Number of single-path equations used (the paper's `N1`).
    pub num_single_path_equations: usize,
    /// Number of path-pair equations used (the paper's `N2`).
    pub num_pair_equations: usize,
    /// Whether fewer independent equations than unknowns were available.
    pub underdetermined: bool,
    /// Which solver produced the estimate.
    pub solver: SolverKind,
    /// Euclidean residual of the solution over the collected equations.
    pub residual: f64,
    /// Number of links that appear in no usable equation (their estimate
    /// comes purely from the regularisation / minimum-norm choice).
    pub uncovered_links: usize,
    /// Solver work: CGLS iterations on the sparse plan, simplex pivots on
    /// the minimum-L1 plan (both LPs when the sign-constrained one is
    /// infeasible), 0 for the direct factored path.
    pub iterations: usize,
}

/// Per-link congestion probabilities inferred from end-to-end measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TomographyEstimate {
    congestion_probabilities: Vec<f64>,
    /// Solver diagnostics.
    pub diagnostics: Diagnostics,
}

impl TomographyEstimate {
    /// Builds an estimate from the solved log-good-probabilities
    /// `x_k = log P(X_{e_k} = 0)`.
    pub fn from_log_good_probabilities(x: &[f64], diagnostics: Diagnostics) -> Self {
        let congestion_probabilities = x
            .iter()
            .map(|&xk| (1.0 - xk.min(0.0).exp()).clamp(0.0, 1.0))
            .collect();
        TomographyEstimate {
            congestion_probabilities,
            diagnostics,
        }
    }

    /// Builds an estimate directly from per-link congestion probabilities
    /// (used by the exact theorem algorithm).
    pub fn from_congestion_probabilities(
        probabilities: Vec<f64>,
        diagnostics: Diagnostics,
    ) -> Self {
        TomographyEstimate {
            congestion_probabilities: probabilities
                .into_iter()
                .map(|p| p.clamp(0.0, 1.0))
                .collect(),
            diagnostics,
        }
    }

    /// Number of links covered by the estimate.
    pub fn num_links(&self) -> usize {
        self.congestion_probabilities.len()
    }

    /// The inferred probability that `link` is congested, `P(X = 1)`.
    ///
    /// # Panics
    ///
    /// Panics if the link id is out of range.
    pub fn congestion_probability(&self, link: LinkId) -> f64 {
        self.congestion_probabilities[link.index()]
    }

    /// All inferred congestion probabilities, indexed by link.
    pub fn probabilities(&self) -> &[f64] {
        &self.congestion_probabilities
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diagnostics() -> Diagnostics {
        Diagnostics {
            num_links: 3,
            num_single_path_equations: 2,
            num_pair_equations: 1,
            underdetermined: false,
            solver: SolverKind::DenseExact,
            residual: 0.0,
            uncovered_links: 0,
            iterations: 0,
        }
    }

    #[test]
    fn log_probabilities_are_converted_and_clamped() {
        let x = [0.0, (0.5f64).ln(), -30.0, 0.2];
        let est = TomographyEstimate::from_log_good_probabilities(&x, diagnostics());
        assert_eq!(est.num_links(), 4);
        assert!((est.congestion_probability(LinkId(0)) - 0.0).abs() < 1e-12);
        assert!((est.congestion_probability(LinkId(1)) - 0.5).abs() < 1e-12);
        assert!(est.congestion_probability(LinkId(2)) > 0.999);
        // A (noisy) positive log-probability is clamped to "always good".
        assert_eq!(est.congestion_probability(LinkId(3)), 0.0);
    }

    #[test]
    fn direct_probabilities_are_clamped_to_unit_interval() {
        let est =
            TomographyEstimate::from_congestion_probabilities(vec![-0.1, 0.4, 1.7], diagnostics());
        assert_eq!(est.congestion_probability(LinkId(0)), 0.0);
        assert!((est.congestion_probability(LinkId(1)) - 0.4).abs() < 1e-12);
        assert_eq!(est.congestion_probability(LinkId(2)), 1.0);
        assert_eq!(est.probabilities().len(), 3);
    }

    #[test]
    fn diagnostics_are_carried_through() {
        let est = TomographyEstimate::from_log_good_probabilities(&[0.0], diagnostics());
        assert_eq!(est.diagnostics.num_single_path_equations, 2);
        assert_eq!(est.diagnostics.solver, SolverKind::DenseExact);
    }
}
