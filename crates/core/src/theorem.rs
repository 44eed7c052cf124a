//! The exact "theorem algorithm": the constructive procedure from the proof
//! of Theorem 1 (Appendix A).
//!
//! Unlike the practical algorithm of Section 4, which only recovers
//! per-link marginals, the theorem algorithm identifies the probability of
//! **every** set of links being congested:
//!
//! 1. measure `P(ψ(S) = ∅)` and `P(ψ(S) = ψ(A))` for every correlation
//!    subset `A ∈ C̃` — through [`PathCounts`], so a batch estimator over
//!    recorded observations and a streaming estimator's pattern counters
//!    run the same code;
//! 2. identify every congestion factor `α_A` by the recursion of Lemma 2
//!    (implemented in [`crate::factors`]);
//! 3. convert factors into probabilities with Lemma 3:
//!    `P(S^p = ∅) = 1 / (1 + Σ_A α_A)`, `P(S^p = A) = α_A · P(S^p = ∅)`,
//!    and `P(X_e = 1) = Σ_{A ∋ e} P(S^p = A)`.
//!
//! The cost is exponential in the size of the correlation sets (the number
//! of correlation subsets), which is exactly why the paper also gives the
//! practical algorithm; here the exact algorithm serves as an oracle for
//! small topologies, for the toy examples of Section 3.2, and for tests of
//! the practical algorithm.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use netcorr_measure::{PathCounts, PathObservations, ProbabilityEstimator, StreamingEstimator};
use netcorr_topology::correlation::CorrelationSetId;
use netcorr_topology::graph::LinkId;
use netcorr_topology::path::PathId;
use netcorr_topology::TopologyInstance;

use crate::error::CoreError;
use crate::factors::{
    enumerate_subsets, identify_factors, EnumerationLimits, SubsetEnumeration, SubsetFactor,
};
use crate::result::{Diagnostics, SolverKind, TomographyEstimate};

/// Configuration of the exact algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TheoremConfig {
    /// Enumeration limits (set size / states per factor).
    pub limits: EnumerationLimits,
}

/// The output of the exact algorithm: per-link marginals plus the full
/// per-correlation-set joint distributions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TheoremEstimate {
    /// Per-link congestion probabilities (same shape as the practical
    /// algorithms' output).
    pub estimate: TomographyEstimate,
    /// Every correlation subset with its identified congestion factor.
    pub factors: Vec<SubsetFactor>,
    /// For every correlation set, `P(S^p = ∅)`.
    pub prob_set_all_good: Vec<f64>,
    num_sets: usize,
}

impl TheoremEstimate {
    /// The identified probability that, within its correlation set, exactly
    /// the links of `subset` are congested (`P(S^p = A)`). Returns `None`
    /// if the subset was not part of the enumeration (e.g. spans sets).
    pub fn set_state_probability(&self, subset: &[LinkId]) -> Option<f64> {
        let mut sorted = subset.to_vec();
        sorted.sort_unstable();
        self.factors
            .iter()
            .find(|f| f.links == sorted)
            .map(|f| f.alpha * self.prob_set_all_good[f.set.index()])
    }

    /// The identified probability that *all* the given links are congested.
    /// Links may span correlation sets (sets are independent); returns
    /// `None` if any per-set group is not a known correlation subset.
    pub fn joint_congestion_probability(&self, links: &[LinkId]) -> Option<f64> {
        if links.is_empty() {
            return Some(1.0);
        }
        // Group links by correlation set via the factors table.
        let mut groups: std::collections::BTreeMap<CorrelationSetId, Vec<LinkId>> =
            std::collections::BTreeMap::new();
        for &link in links {
            let set = self
                .factors
                .iter()
                .find(|f| f.links.contains(&link))
                .map(|f| f.set)?;
            groups.entry(set).or_default().push(link);
        }
        let mut product = 1.0;
        for (set, group) in groups {
            // P(all of `group` congested within its set) = Σ over subsets
            // B ⊇ group of P(S^p = B).
            let mut sorted = group.clone();
            sorted.sort_unstable();
            let prob: f64 = self
                .factors
                .iter()
                .filter(|f| f.set == set && sorted.iter().all(|l| f.links.contains(l)))
                .map(|f| f.alpha * self.prob_set_all_good[set.index()])
                .sum();
            product *= prob;
        }
        Some(product)
    }

    /// Number of correlation sets in the instance.
    pub fn num_correlation_sets(&self) -> usize {
        self.num_sets
    }
}

/// The exact algorithm from the proof of Theorem 1.
#[derive(Debug, Clone)]
pub struct TheoremAlgorithm<'a> {
    instance: &'a TopologyInstance,
    config: TheoremConfig,
}

impl<'a> TheoremAlgorithm<'a> {
    /// Creates the algorithm with default limits.
    pub fn new(instance: &'a TopologyInstance) -> Self {
        TheoremAlgorithm {
            instance,
            config: TheoremConfig::default(),
        }
    }

    /// Creates the algorithm with custom limits.
    pub fn with_config(instance: &'a TopologyInstance, config: TheoremConfig) -> Self {
        TheoremAlgorithm { instance, config }
    }

    fn check_width(&self, observed_paths: usize) -> Result<(), CoreError> {
        if observed_paths != self.instance.num_paths() {
            return Err(CoreError::InvalidConfig(format!(
                "observations cover {} paths, instance has {}",
                observed_paths,
                self.instance.num_paths()
            )));
        }
        Ok(())
    }

    /// Identifies the congestion probability of every set of links from the
    /// recorded observations.
    pub fn infer(&self, observations: &PathObservations) -> Result<TheoremEstimate, CoreError> {
        self.instance.validate()?;
        self.check_width(observations.num_paths())?;
        let estimator = ProbabilityEstimator::new(observations)?;
        let (enumeration, p_all_good) = self.enumerate(&estimator)?;
        self.complete(&estimator, enumeration, p_all_good)
    }

    /// Identifies the congestion probabilities from a
    /// [`StreamingEstimator`]'s accumulators.
    ///
    /// Every correlation subset's coverage pattern is registered with the
    /// estimator (idempotent; a pattern registered after snapshots were
    /// already pushed is caught up with one kernel sweep), so the first
    /// call may scan, but every later call — as more snapshots stream in —
    /// reads each measurement as an O(1) counter, **never re-matching the
    /// recorded lanes**. This is how long-running deployments re-run the
    /// exact algorithm per snapshot batch at constant incremental cost.
    pub fn infer_streaming(
        &self,
        estimator: &mut StreamingEstimator,
    ) -> Result<TheoremEstimate, CoreError> {
        self.instance.validate()?;
        self.check_width(estimator.num_paths())?;
        let (enumeration, p_all_good) = self.enumerate(estimator)?;
        for subset in &enumeration.subsets {
            estimator.register_pattern(&subset.coverage)?;
        }
        self.complete(estimator, enumeration, p_all_good)
    }

    /// Measures `P(ψ(S) = ∅)` and enumerates the correlation subsets.
    /// The congestion factors are normalised by `P(ψ(S) = ∅)`, so a zero
    /// estimate means the observations cannot support the algorithm; it
    /// is reported before the (possibly large) enumeration runs.
    fn enumerate<C: PathCounts + ?Sized>(
        &self,
        counts: &C,
    ) -> Result<(SubsetEnumeration, f64), CoreError> {
        let p_all_good = counts.prob_all_paths_good()?;
        if p_all_good <= 0.0 {
            return Err(CoreError::InsufficientObservations {
                reason: "an all-paths-good snapshot was never observed",
            });
        }
        Ok((
            enumerate_subsets(self.instance, &self.config.limits)?,
            p_all_good,
        ))
    }

    /// The back half of the exact algorithm: measure every subset's
    /// coverage pattern, identify the factors (Lemma 2), then convert
    /// factors into probabilities (Lemma 3).
    fn complete<C: PathCounts + ?Sized>(
        &self,
        counts: &C,
        mut enumeration: SubsetEnumeration,
        p_all_good: f64,
    ) -> Result<TheoremEstimate, CoreError> {
        let coverages: Vec<BTreeSet<PathId>> = enumeration
            .subsets
            .iter()
            .map(|s| s.coverage.clone())
            .collect();
        let probabilities = counts.prob_exactly_congested_batch(&coverages)?;
        let measured: BTreeMap<BTreeSet<PathId>, f64> =
            coverages.into_iter().zip(probabilities).collect();
        identify_factors(
            &mut enumeration,
            &self.config.limits,
            |coverage: &BTreeSet<PathId>| {
                // identify_factors only queries coverages taken from
                // `enumeration.subsets`, all of which were measured above.
                let p = measured[coverage];
                Ok(p / p_all_good)
            },
        )?;

        // Lemma 3: from factors to probabilities.
        let num_sets = self.instance.correlation.num_sets();
        let mut alpha_sum = vec![0.0; num_sets];
        for subset in &enumeration.subsets {
            alpha_sum[subset.set.index()] += subset.alpha;
        }
        let prob_set_all_good: Vec<f64> = alpha_sum.iter().map(|&s| 1.0 / (1.0 + s)).collect();
        let mut marginals = vec![0.0; self.instance.num_links()];
        for subset in &enumeration.subsets {
            let p_state = subset.alpha * prob_set_all_good[subset.set.index()];
            for &link in &subset.links {
                marginals[link.index()] += p_state;
            }
        }

        let diagnostics = Diagnostics {
            num_links: self.instance.num_links(),
            num_single_path_equations: 0,
            num_pair_equations: 0,
            underdetermined: false,
            solver: SolverKind::DenseExact,
            residual: 0.0,
            uncovered_links: 0,
            iterations: 0,
        };
        Ok(TheoremEstimate {
            estimate: TomographyEstimate::from_congestion_probabilities(marginals, diagnostics),
            factors: enumeration.subsets,
            prob_set_all_good,
            num_sets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcorr_sim::{CongestionModelBuilder, SimulationConfig, Simulator, TransmissionModel};
    use netcorr_topology::toy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn simulate_fig1a(
        joint_prob: f64,
        e3_prob: f64,
        e4_prob: f64,
        snapshots: usize,
        seed: u64,
    ) -> (TopologyInstance, PathObservations, Vec<f64>) {
        let inst = toy::figure_1a();
        let model = CongestionModelBuilder::new(&inst.correlation)
            .joint_group(&[LinkId(0), LinkId(1)], joint_prob)
            .independent(LinkId(2), e3_prob)
            .independent(LinkId(3), e4_prob)
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
    fn recovers_marginals_and_joint_probabilities_on_fig1a() {
        let (inst, obs, truth) = simulate_fig1a(0.2, 0.1, 0.1, 60_000, 5);
        let result = TheoremAlgorithm::new(&inst).infer(&obs).unwrap();
        for link in inst.topology.link_ids() {
            let err = (result.estimate.congestion_probability(link) - truth[link.index()]).abs();
            assert!(
                err < 0.05,
                "link {link}: estimated {}, truth {}",
                result.estimate.congestion_probability(link),
                truth[link.index()]
            );
        }
        // Joint probability of the correlated pair ≈ 0.2 (not 0.04, which
        // is what independence would predict).
        let joint = result
            .joint_congestion_probability(&[LinkId(0), LinkId(1)])
            .unwrap();
        assert!((joint - 0.2).abs() < 0.05, "joint {joint}");
        // Cross-set joint probability multiplies.
        let cross = result
            .joint_congestion_probability(&[LinkId(0), LinkId(2)])
            .unwrap();
        assert!((cross - 0.2 * 0.1).abs() < 0.03, "cross {cross}");
        // P(S^1 = {e1, e2}) ≈ 0.2 and P(S^1 = {e1}) ≈ 0.
        let both = result
            .set_state_probability(&[LinkId(1), LinkId(0)])
            .unwrap();
        assert!((both - 0.2).abs() < 0.05);
        let single = result.set_state_probability(&[LinkId(0)]).unwrap();
        assert!(single < 0.05);
        assert_eq!(result.num_correlation_sets(), 3);
        // The empty collection of links is congested with probability 1.
        assert_eq!(result.joint_congestion_probability(&[]).unwrap(), 1.0);
    }

    #[test]
    fn congestion_factors_match_their_definition() {
        let (inst, obs, _) = simulate_fig1a(0.2, 0.1, 0.1, 60_000, 17);
        let result = TheoremAlgorithm::new(&inst).infer(&obs).unwrap();
        // α_{e1,e2} = P(S^1 = {e1,e2}) / P(S^1 = ∅) = 0.2 / 0.8 = 0.25.
        let factor = result
            .factors
            .iter()
            .find(|f| f.links == vec![LinkId(0), LinkId(1)])
            .unwrap();
        assert!((factor.alpha - 0.25).abs() < 0.06, "alpha {}", factor.alpha);
        // α_{e3} = 0.1 / 0.9 ≈ 0.111.
        let factor = result
            .factors
            .iter()
            .find(|f| f.links == vec![LinkId(2)])
            .unwrap();
        assert!(
            (factor.alpha - 1.0 / 9.0).abs() < 0.04,
            "alpha {}",
            factor.alpha
        );
        // P(S^p = ∅) per set.
        assert!((result.prob_set_all_good[0] - 0.8).abs() < 0.05);
        assert!((result.prob_set_all_good[1] - 0.9).abs() < 0.05);
    }

    #[test]
    fn agrees_with_the_practical_algorithm_on_identifiable_instances() {
        let (inst, obs, _) = simulate_fig1a(0.3, 0.15, 0.05, 40_000, 23);
        let exact = TheoremAlgorithm::new(&inst).infer(&obs).unwrap();
        let practical = crate::CorrelationAlgorithm::new(&inst).infer(&obs).unwrap();
        for link in inst.topology.link_ids() {
            let a = exact.estimate.congestion_probability(link);
            let b = practical.congestion_probability(link);
            assert!(
                (a - b).abs() < 0.05,
                "link {link}: exact {a}, practical {b}"
            );
        }
    }

    #[test]
    fn streaming_inference_matches_batch_inference() {
        let (inst, obs, _) = simulate_fig1a(0.2, 0.1, 0.1, 20_000, 5);
        let batch = TheoremAlgorithm::new(&inst).infer(&obs).unwrap();
        // Stream the same snapshots in and infer from the accumulators.
        let mut streaming = StreamingEstimator::new(obs.num_paths());
        for snapshot in obs.snapshots() {
            streaming.push_snapshot(&snapshot).unwrap();
        }
        let online = TheoremAlgorithm::new(&inst)
            .infer_streaming(&mut streaming)
            .unwrap();
        for link in inst.topology.link_ids() {
            assert_eq!(
                batch.estimate.congestion_probability(link),
                online.estimate.congestion_probability(link),
                "link {link}"
            );
        }
        assert_eq!(batch.prob_set_all_good, online.prob_set_all_good);
        // Push more snapshots and re-infer: the registered patterns are
        // answered from counters, and the result tracks the longer prefix.
        for snapshot in obs.snapshots().take(500) {
            streaming.push_snapshot(&snapshot).unwrap();
        }
        let refreshed = TheoremAlgorithm::new(&inst)
            .infer_streaming(&mut streaming)
            .unwrap();
        assert_eq!(streaming.num_snapshots(), 20_500);
        assert!(refreshed
            .estimate
            .probabilities()
            .iter()
            .all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn unidentifiable_instances_are_rejected() {
        let inst = toy::figure_1b();
        let mut obs = PathObservations::new(2);
        for i in 0..100 {
            obs.record_snapshot(&[i % 3 == 0, i % 4 == 0]).unwrap();
        }
        let err = TheoremAlgorithm::new(&inst).infer(&obs).unwrap_err();
        assert!(matches!(err, CoreError::Unidentifiable { .. }));
    }

    #[test]
    fn requires_an_all_good_snapshot() {
        let inst = toy::figure_1a();
        let mut obs = PathObservations::new(3);
        for _ in 0..50 {
            obs.record_snapshot(&[true, false, false]).unwrap();
        }
        let err = TheoremAlgorithm::new(&inst).infer(&obs).unwrap_err();
        assert!(matches!(err, CoreError::InsufficientObservations { .. }));
    }

    #[test]
    fn observation_width_mismatch_is_rejected() {
        let inst = toy::figure_1a();
        let obs = PathObservations::new(7);
        assert!(matches!(
            TheoremAlgorithm::new(&inst).infer(&obs),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn respects_custom_limits() {
        let (inst, obs, _) = simulate_fig1a(0.2, 0.1, 0.1, 500, 3);
        let config = TheoremConfig {
            limits: EnumerationLimits {
                max_set_size: 1,
                ..EnumerationLimits::default()
            },
        };
        assert!(matches!(
            TheoremAlgorithm::with_config(&inst, config).infer(&obs),
            Err(CoreError::EnumerationTooLarge { .. })
        ));
    }
}
