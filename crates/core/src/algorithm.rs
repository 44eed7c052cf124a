//! The practical inference algorithms: the paper's correlation-aware
//! algorithm (Section 4) and the independence baseline it is compared
//! against (Nguyen–Thiran \[12\]).
//!
//! Both algorithms are one-shot uses of the same pipeline, an
//! [`InferenceContext`]: build log-linear measurement equations, solve
//! them, convert the solved log-good-probabilities into per-link
//! congestion probabilities. The only difference is whether the equation
//! builder respects the correlation partition:
//!
//! * [`CorrelationAlgorithm`] uses only paths and path pairs whose links
//!   are mutually uncorrelated, so every equation it forms is valid even
//!   when links inside a correlation set are arbitrarily dependent.
//! * [`IndependenceAlgorithm`] pretends every link is independent and uses
//!   every path and every intersecting path pair; when links are actually
//!   correlated, some of its equations are systematically wrong, which is
//!   exactly the effect the paper's evaluation quantifies.

use serde::{Deserialize, Serialize};

use netcorr_measure::PathObservations;
use netcorr_topology::TopologyInstance;

use crate::context::InferenceContext;
use crate::equations::EquationConfig;
use crate::error::CoreError;
use crate::result::TomographyEstimate;
use crate::solver::SolverConfig;

/// Configuration shared by the practical algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AlgorithmConfig {
    /// Equation-building options.
    pub equations: EquationConfig,
    /// Numerical solver options.
    pub solver: SolverConfig,
}

/// The paper's practical algorithm (Section 4): infers per-link congestion
/// probabilities from end-to-end measurements while accounting for the
/// known correlation sets.
#[derive(Debug, Clone)]
pub struct CorrelationAlgorithm<'a> {
    instance: &'a TopologyInstance,
    config: AlgorithmConfig,
}

impl<'a> CorrelationAlgorithm<'a> {
    /// Creates the algorithm with default configuration.
    pub fn new(instance: &'a TopologyInstance) -> Self {
        CorrelationAlgorithm {
            instance,
            config: AlgorithmConfig::default(),
        }
    }

    /// Creates the algorithm with a custom configuration.
    /// `respect_correlation` is forced on — that is what makes this the
    /// correlation algorithm.
    pub fn with_config(instance: &'a TopologyInstance, mut config: AlgorithmConfig) -> Self {
        config.equations.respect_correlation = true;
        CorrelationAlgorithm { instance, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AlgorithmConfig {
        &self.config
    }

    /// Infers the congestion probability of every link from the recorded
    /// observations, through a context built for this one call
    /// ([`InferenceContext::for_correlation`]).
    pub fn infer(&self, observations: &PathObservations) -> Result<TomographyEstimate, CoreError> {
        InferenceContext::for_correlation(self.instance, self.config)?.infer(observations)
    }
}

/// The independence baseline (Nguyen–Thiran \[12\]): identical pipeline but
/// every link is assumed independent of every other, regardless of the
/// instance's correlation partition.
#[derive(Debug, Clone)]
pub struct IndependenceAlgorithm<'a> {
    instance: &'a TopologyInstance,
    config: AlgorithmConfig,
}

impl<'a> IndependenceAlgorithm<'a> {
    /// Creates the baseline with default configuration.
    pub fn new(instance: &'a TopologyInstance) -> Self {
        IndependenceAlgorithm {
            instance,
            config: AlgorithmConfig::default(),
        }
    }

    /// Creates the baseline with a custom configuration.
    /// `respect_correlation` is forced off.
    pub fn with_config(instance: &'a TopologyInstance, mut config: AlgorithmConfig) -> Self {
        config.equations.respect_correlation = false;
        IndependenceAlgorithm { instance, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AlgorithmConfig {
        &self.config
    }

    /// Infers the congestion probability of every link, assuming all links
    /// are independent, through a context built for this one call
    /// ([`InferenceContext::for_independence`]).
    pub fn infer(&self, observations: &PathObservations) -> Result<TomographyEstimate, CoreError> {
        InferenceContext::for_independence(self.instance, self.config)?.infer(observations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcorr_sim::{CongestionModelBuilder, SimulationConfig, Simulator, TransmissionModel};
    use netcorr_topology::graph::LinkId;
    use netcorr_topology::toy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Simulates Figure 1(a) with the canonical correlated model and
    /// returns (instance, observations, true marginals).
    fn simulate_fig1a(
        snapshots: usize,
        seed: u64,
    ) -> (TopologyInstance, PathObservations, Vec<f64>) {
        let inst = toy::figure_1a();
        let model = CongestionModelBuilder::new(&inst.correlation)
            .joint_group(&[LinkId(0), LinkId(1)], 0.3)
            .independent(LinkId(2), 0.1)
            .independent(LinkId(3), 0.15)
            .build()
            .unwrap();
        let truth = model.marginals();
        let config = SimulationConfig {
            transmission: TransmissionModel::Exact,
            ..SimulationConfig::default()
        };
        let sim = Simulator::new(&inst, &model, config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let obs = sim.run(snapshots, &mut rng);
        (inst, obs, truth)
    }

    #[test]
    fn correlation_algorithm_recovers_marginals_on_fig1a() {
        let (inst, obs, truth) = simulate_fig1a(30_000, 7);
        let estimate = CorrelationAlgorithm::new(&inst).infer(&obs).unwrap();
        for link in inst.topology.link_ids() {
            let err = (estimate.congestion_probability(link) - truth[link.index()]).abs();
            assert!(
                err < 0.05,
                "link {link}: estimated {}, truth {}",
                estimate.congestion_probability(link),
                truth[link.index()]
            );
        }
        // Paper bookkeeping: 3 single-path + 1 pair equation, fully
        // determined.
        assert_eq!(estimate.diagnostics.num_single_path_equations, 3);
        assert_eq!(estimate.diagnostics.num_pair_equations, 1);
        assert!(!estimate.diagnostics.underdetermined);
    }

    #[test]
    fn independence_baseline_is_biased_on_correlated_links() {
        // The "domain chain" toy: path P1 crosses both links of the
        // correlation set {l2, l3}, which fail together 30% of the time.
        let inst = toy::correlated_chain();
        let model = CongestionModelBuilder::new(&inst.correlation)
            .joint_group(&[LinkId(1), LinkId(2)], 0.3)
            .independent(LinkId(0), 0.05)
            .independent(LinkId(3), 0.05)
            .build()
            .unwrap();
        let truth = model.marginals();
        let config = SimulationConfig {
            transmission: TransmissionModel::Exact,
            ..SimulationConfig::default()
        };
        let sim = Simulator::new(&inst, &model, config).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let obs = sim.run(30_000, &mut rng);

        let corr = CorrelationAlgorithm::new(&inst).infer(&obs).unwrap();
        let indep = IndependenceAlgorithm::new(&inst).infer(&obs).unwrap();

        let max_error = |est: &TomographyEstimate| -> f64 {
            inst.topology
                .link_ids()
                .map(|l| (est.congestion_probability(l) - truth[l.index()]).abs())
                .fold(0.0, f64::max)
        };
        let corr_err = max_error(&corr);
        let indep_err = max_error(&indep);
        assert!(
            corr_err < 0.06,
            "correlation algorithm should be accurate, max error {corr_err}"
        );
        assert!(
            indep_err > 0.15,
            "independence baseline should be visibly biased, max error {indep_err}"
        );
        assert!(corr_err < indep_err);
    }

    #[test]
    fn both_algorithms_agree_when_links_are_truly_independent() {
        let inst = toy::figure_1a();
        // Truly independent links, even inside the declared correlation
        // set.
        let model = CongestionModelBuilder::new(&inst.correlation)
            .independent(LinkId(0), 0.2)
            .independent(LinkId(1), 0.25)
            .independent(LinkId(2), 0.1)
            .independent(LinkId(3), 0.15)
            .build()
            .unwrap();
        let truth = model.marginals();
        let config = SimulationConfig {
            transmission: TransmissionModel::Exact,
            ..SimulationConfig::default()
        };
        let sim = Simulator::new(&inst, &model, config).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let obs = sim.run(30_000, &mut rng);
        let corr = CorrelationAlgorithm::new(&inst).infer(&obs).unwrap();
        let indep = IndependenceAlgorithm::new(&inst).infer(&obs).unwrap();
        for link in inst.topology.link_ids() {
            assert!((corr.congestion_probability(link) - truth[link.index()]).abs() < 0.06);
            assert!((indep.congestion_probability(link) - truth[link.index()]).abs() < 0.06);
        }
    }

    #[test]
    fn observation_width_mismatch_is_rejected() {
        let (inst, _, _) = simulate_fig1a(10, 1);
        let wrong = PathObservations::new(5);
        assert!(matches!(
            CorrelationAlgorithm::new(&inst).infer(&wrong),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_observations_are_rejected() {
        let (inst, _, _) = simulate_fig1a(10, 1);
        let empty = PathObservations::new(inst.num_paths());
        assert!(matches!(
            CorrelationAlgorithm::new(&inst).infer(&empty),
            Err(CoreError::Measurement(_))
        ));
    }

    #[test]
    fn with_config_forces_the_correlation_flags() {
        let (inst, obs, _) = simulate_fig1a(2000, 5);
        let mut config = AlgorithmConfig::default();
        config.equations.respect_correlation = false;
        let corr = CorrelationAlgorithm::with_config(&inst, config);
        assert!(corr.config().equations.respect_correlation);
        let estimate = corr.infer(&obs).unwrap();
        assert_eq!(estimate.diagnostics.num_pair_equations, 1);

        let mut config = AlgorithmConfig::default();
        config.equations.respect_correlation = true;
        let indep = IndependenceAlgorithm::with_config(&inst, config);
        assert!(!indep.config().equations.respect_correlation);
        let estimate = indep.infer(&obs).unwrap();
        assert_eq!(
            estimate.diagnostics.num_pair_equations, 1,
            "independent pairs beyond |E| are not needed"
        );
    }

    #[test]
    fn sparse_and_dense_solver_paths_agree_on_fig1a() {
        let (inst, obs, truth) = simulate_fig1a(20_000, 13);
        let dense = CorrelationAlgorithm::new(&inst).infer(&obs).unwrap();
        let mut sparse_config = AlgorithmConfig::default();
        sparse_config.solver.dense_threshold = 0;
        let sparse = CorrelationAlgorithm::with_config(&inst, sparse_config)
            .infer(&obs)
            .unwrap();
        for link in inst.topology.link_ids() {
            assert!(
                (dense.congestion_probability(link) - sparse.congestion_probability(link)).abs()
                    < 0.02,
                "link {link}: dense {} vs sparse {}",
                dense.congestion_probability(link),
                sparse.congestion_probability(link)
            );
            assert!((sparse.congestion_probability(link) - truth[link.index()]).abs() < 0.06);
        }
    }
}
