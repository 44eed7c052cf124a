//! Building the log-linear measurement equations (Section 4).
//!
//! Under the separability assumption, a path is good iff all its links are
//! good, so for any collection of paths whose links are *mutually
//! uncorrelated*
//!
//! ```text
//! P(all those paths good) = Π_k P(X_{e_k} = 0)   over the union of their links
//! ```
//!
//! and taking logarithms turns the product into a linear equation over the
//! unknowns `x_k = log P(X_{e_k} = 0)`. The paper's practical algorithm
//! therefore forms:
//!
//! * one equation per *usable path* — a path none of whose links are
//!   potentially correlated with each other (Eq. 9);
//! * one equation per *usable path pair* — a pair whose combined links are
//!   mutually uncorrelated (Eq. 10). Only pairs of paths that share at
//!   least one link are considered, because the equation of a disjoint pair
//!   is the sum of the two single-path equations and adds nothing.
//!
//! The independence baseline (Nguyen–Thiran \[12\]) uses exactly the same
//! construction but *assumes* every link is independent, i.e. it treats
//! every path and every intersecting pair as usable. That difference —
//! controlled here by [`EquationConfig::respect_correlation`] — is the
//! entire difference between the two algorithms compared in the paper's
//! evaluation.

use serde::{Deserialize, Serialize};

use netcorr_linalg::SparseMatrix;
use netcorr_measure::{PathCounts, StreamingEstimator};
use netcorr_topology::graph::LinkId;
use netcorr_topology::path::PathId;
use netcorr_topology::TopologyInstance;

use crate::error::CoreError;

/// Where an equation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EquationSource {
    /// `P(Y_i = 0) = Π_{e ∈ P_i} P(X_e = 0)`.
    SinglePath(PathId),
    /// `P(Y_i = 0, Y_j = 0) = Π_{e ∈ P_i ∪ P_j} P(X_e = 0)`.
    PathPair(PathId, PathId),
}

/// Configuration of the equation builder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EquationConfig {
    /// If `true` (the correlation algorithm), only paths and path pairs
    /// whose links are mutually uncorrelated are used. If `false` (the
    /// independence baseline), every path and every intersecting pair is
    /// used.
    pub respect_correlation: bool,
    /// Whether path-pair equations are formed at all (ablation switch).
    pub use_pairs: bool,
    /// Maximum number of accepted path-pair equations, as a multiple of the
    /// number of links.
    pub max_pair_equations_per_link: f64,
    /// Maximum number of candidate pairs examined.
    pub max_pair_candidates: usize,
}

impl Default for EquationConfig {
    fn default() -> Self {
        EquationConfig {
            respect_correlation: true,
            use_pairs: true,
            max_pair_equations_per_link: 3.0,
            max_pair_candidates: 2_000_000,
        }
    }
}

/// The collected measurement equations `A x = y` over the unknowns
/// `x_k = log P(X_{e_k} = 0)`.
#[derive(Debug, Clone)]
pub struct EquationSystem {
    /// Sparse 0/1 incidence matrix (one row per equation, one column per
    /// link).
    pub matrix: SparseMatrix,
    /// Right-hand sides: clamped empirical log-probabilities.
    pub rhs: Vec<f64>,
    /// Provenance of every equation, parallel to the rows.
    pub sources: Vec<EquationSource>,
    /// Number of single-path equations (the paper's `N1` before
    /// independence selection).
    pub num_single: usize,
    /// Number of path-pair equations (the paper's `N2` before independence
    /// selection).
    pub num_pair: usize,
    /// For every link, whether it appears in at least one equation.
    pub covered: Vec<bool>,
}

impl EquationSystem {
    /// Number of equations collected.
    pub fn num_equations(&self) -> usize {
        self.rhs.len()
    }

    /// Number of links that appear in no equation.
    pub fn num_uncovered_links(&self) -> usize {
        self.covered.iter().filter(|&&c| !c).count()
    }
}

/// The observation-independent part of an equation system: the incidence
/// matrix, the provenance of every row, and the single paths / path pairs
/// whose empirical probabilities form the right-hand side.
///
/// The structure is a pure function of the topology instance and the
/// [`EquationConfig`] — it never looks at observations — so it is built
/// **once** (an [`crate::InferenceContext`] holds one) and
/// [`EquationStructure::rhs`] assembles the right-hand side from any
/// [`PathCounts`]: a batch estimator per offline trial, or a streaming
/// estimator refreshed as measurements arrive.
#[derive(Debug, Clone)]
pub struct EquationStructure {
    matrix: SparseMatrix,
    sources: Vec<EquationSource>,
    /// Usable single paths, in row order (rows `0..num_single`).
    single_paths: Vec<PathId>,
    /// Accepted path pairs, in row order (rows `num_single..`).
    pairs: Vec<(PathId, PathId)>,
    covered: Vec<bool>,
}

impl EquationStructure {
    /// Number of equations (rows) in the structure.
    pub fn num_equations(&self) -> usize {
        self.sources.len()
    }

    /// The accepted path pairs, in row order.
    pub fn pairs(&self) -> &[(PathId, PathId)] {
        &self.pairs
    }

    /// The sparse 0/1 incidence matrix (one row per equation, one column
    /// per link).
    pub fn matrix(&self) -> &SparseMatrix {
        &self.matrix
    }

    /// Provenance of every row, parallel to the matrix.
    pub fn sources(&self) -> &[EquationSource] {
        &self.sources
    }

    /// The usable single paths, in row order (rows
    /// `0..single_paths().len()`).
    pub fn single_paths(&self) -> &[PathId] {
        &self.single_paths
    }

    /// Number of links that appear in no equation.
    pub fn num_uncovered_links(&self) -> usize {
        self.covered.iter().filter(|&&c| !c).count()
    }

    /// The right-hand side over `counts`, one entry per row in row order:
    /// the clamped `log P(Y_i = 0)` of every usable single path, then the
    /// clamped `log P(Y_i = 0, Y_j = 0)` of every accepted pair in one
    /// batch. This is the only place right-hand sides are assembled; a
    /// batch and a streaming estimator over the same snapshots produce
    /// the same bits. Fails with [`CoreError::Measurement`] if `counts`
    /// holds no snapshots (the RHS would be log 0 everywhere) or, for a
    /// streaming estimator, if the pairs were never registered.
    pub fn rhs<C: PathCounts + ?Sized>(&self, counts: &C) -> Result<Vec<f64>, CoreError> {
        let mut rhs = Vec::with_capacity(self.num_equations());
        for &path in &self.single_paths {
            rhs.push(counts.log_prob_path_good(path)?);
        }
        rhs.extend(counts.log_prob_pairs_good(&self.pairs)?);
        Ok(rhs)
    }

    /// Assembles a self-contained [`EquationSystem`] from this structure
    /// and a fully-populated right-hand side (one entry per row).
    fn into_system(self, rhs: Vec<f64>) -> EquationSystem {
        debug_assert_eq!(rhs.len(), self.sources.len());
        let num_single = self.single_paths.len();
        let num_pair = self.pairs.len();
        EquationSystem {
            matrix: self.matrix,
            rhs,
            sources: self.sources,
            num_single,
            num_pair,
            covered: self.covered,
        }
    }
}

/// Builds the observation-independent equation structure for an instance.
pub fn equation_structure(
    instance: &TopologyInstance,
    config: &EquationConfig,
) -> Result<EquationStructure, CoreError> {
    let num_links = instance.num_links();
    let mut matrix = SparseMatrix::new(num_links);
    let mut sources = Vec::new();
    let mut covered = vec![false; num_links];

    let usable_path = |links: &[LinkId]| -> bool {
        !config.respect_correlation || instance.correlation.mutually_uncorrelated(links)
    };

    // --- Single-path equations (Eq. 9). ---
    let mut usable_paths: Vec<PathId> = Vec::new();
    for path in instance.paths.paths() {
        if !usable_path(&path.links) {
            continue;
        }
        usable_paths.push(path.id);
        let columns: Vec<usize> = path.links.iter().map(|l| l.index()).collect();
        matrix
            .push_indicator_row(&columns)
            .map_err(CoreError::Numerical)?;
        sources.push(EquationSource::SinglePath(path.id));
        for &c in &columns {
            covered[c] = true;
        }
    }

    // --- Path-pair equations (Eq. 10). ---
    //
    // Only pairs of paths that share at least one link can add information
    // beyond the two single-path equations (the union row of a disjoint
    // pair is the sum of the two single rows). Candidate pairs are
    // enumerated per shared link and consumed round-robin across links so
    // that the collected pair equations are structurally diverse — the
    // solver's independence selection then has good material to reach the
    // paper's `N1 + N2 ≈ |E|` regardless of which link the enumeration
    // started from.
    let mut pairs: Vec<(PathId, PathId)> = Vec::new();
    let mut num_pair = 0;
    if config.use_pairs {
        let max_pairs = (config.max_pair_equations_per_link * num_links as f64).ceil() as usize;
        let usable_flag = {
            let mut flags = vec![false; instance.num_paths()];
            for &p in &usable_paths {
                flags[p.index()] = true;
            }
            flags
        };
        // Candidate pairs per link (both paths individually usable).
        let mut candidates_per_link: Vec<Vec<(PathId, PathId)>> = Vec::with_capacity(num_links);
        let mut candidates_examined = 0usize;
        for link in instance.topology.link_ids() {
            let through = instance.paths.paths_through(link);
            let mut pairs = Vec::new();
            'link: for (a_idx, &pa) in through.iter().enumerate() {
                if !usable_flag[pa.index()] {
                    continue;
                }
                for &pb in &through[a_idx + 1..] {
                    candidates_examined += 1;
                    if candidates_examined > config.max_pair_candidates {
                        break 'link;
                    }
                    if !usable_flag[pb.index()] {
                        continue;
                    }
                    pairs.push((pa.min(pb), pa.max(pb)));
                }
            }
            candidates_per_link.push(pairs);
        }
        // Round-robin over links: the r-th candidate of every link, then
        // the (r+1)-th, and so on. Accepted pairs are only *collected*
        // here; their right-hand sides are fetched later — in one batch
        // through the estimator's AND/popcount kernels, or in O(1) each
        // from a streaming estimator's registered-pair accumulators.
        let mut accepted_pairs: Vec<(PathId, PathId)> = Vec::new();
        let mut seen_pairs = std::collections::BTreeSet::new();
        let max_rounds = candidates_per_link.iter().map(Vec::len).max().unwrap_or(0);
        'rounds: for round in 0..max_rounds {
            for pairs in &candidates_per_link {
                if num_pair >= max_pairs {
                    break 'rounds;
                }
                let Some(&key) = pairs.get(round) else {
                    continue;
                };
                if !seen_pairs.insert(key) {
                    continue;
                }
                // Union of the two paths' links.
                let mut union: Vec<LinkId> = instance.paths.path(key.0).links.clone();
                union.extend(instance.paths.path(key.1).links.iter().copied());
                union.sort_unstable();
                union.dedup();
                if !usable_path(&union) {
                    continue;
                }
                let columns: Vec<usize> = union.iter().map(|l| l.index()).collect();
                matrix
                    .push_indicator_row(&columns)
                    .map_err(CoreError::Numerical)?;
                sources.push(EquationSource::PathPair(key.0, key.1));
                accepted_pairs.push(key);
                for &c in &columns {
                    covered[c] = true;
                }
                num_pair += 1;
            }
        }
        pairs = accepted_pairs;
    }

    if sources.is_empty() {
        return Err(CoreError::NoUsableEquations);
    }

    Ok(EquationStructure {
        matrix,
        sources,
        single_paths: usable_paths,
        pairs,
        covered,
    })
}

/// Builds the measurement equations for an instance: the
/// observation-independent [`equation_structure`] plus its
/// [`EquationStructure::rhs`] over `counts`.
pub fn build_equations<C: PathCounts + ?Sized>(
    instance: &TopologyInstance,
    counts: &C,
    config: &EquationConfig,
) -> Result<EquationSystem, CoreError> {
    let structure = equation_structure(instance, config)?;
    let rhs = structure.rhs(counts)?;
    Ok(structure.into_system(rhs))
}

/// An [`EquationStructure`] whose pairs are registered with one
/// [`StreamingEstimator`], so its right-hand side refreshes in
/// `O(#equations)` at any point of the measurement stream — each entry an
/// O(1) accumulator read, with **no re-scan of the recorded lanes**.
///
/// This is the stand-alone form of what the daemon does with its
/// [`crate::InferenceContext`]: register the structure's
/// [`EquationStructure::pairs`] once and call
/// [`crate::InferenceContext::rhs`] per refresh.
#[derive(Debug, Clone)]
pub struct IncrementalEquationBuilder {
    structure: EquationStructure,
}

impl IncrementalEquationBuilder {
    /// Builds the equation structure for `instance` and registers every
    /// accepted path pair with `estimator` (idempotent; pairs registered
    /// after snapshots were already pushed are caught up with one kernel
    /// sweep each).
    pub fn new(
        instance: &TopologyInstance,
        estimator: &mut StreamingEstimator,
        config: &EquationConfig,
    ) -> Result<Self, CoreError> {
        let structure = equation_structure(instance, config)?;
        estimator.register_pairs(structure.pairs())?;
        Ok(IncrementalEquationBuilder { structure })
    }

    /// The observation-independent structure.
    pub fn structure(&self) -> &EquationStructure {
        &self.structure
    }

    /// The right-hand side at the estimator's current snapshot count
    /// ([`EquationStructure::rhs`]), parallel to the structure's rows.
    /// Per-refresh loops should call this and reuse the structure.
    pub fn rhs(&self, estimator: &StreamingEstimator) -> Result<Vec<f64>, CoreError> {
        self.structure.rhs(estimator)
    }

    /// Produces a self-contained equation system at the estimator's
    /// current snapshot count. Note this **clones the structure** (the
    /// sparse matrix, sources and coverage) to hand out an owned
    /// [`EquationSystem`].
    pub fn system(&self, estimator: &StreamingEstimator) -> Result<EquationSystem, CoreError> {
        Ok(self.structure.clone().into_system(self.rhs(estimator)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcorr_measure::{PathObservations, ProbabilityEstimator};
    use netcorr_topology::toy;

    /// Observations over Figure 1(a)'s three paths where every path is good
    /// half the time (contents only matter for the RHS, not the structure).
    fn fig1a_observations() -> PathObservations {
        let mut obs = PathObservations::new(3);
        for i in 0..16 {
            let bit = i % 2 == 0;
            obs.record_snapshot(&[bit, !bit, bit]).unwrap();
        }
        obs
    }

    #[test]
    fn fig1a_produces_exactly_the_papers_equations() {
        let inst = toy::figure_1a();
        let obs = fig1a_observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        let system = build_equations(&inst, &est, &EquationConfig::default()).unwrap();

        // All three paths avoid correlated links; the only usable pair is
        // (P2, P3) — exactly the example worked out in Section 4.
        assert_eq!(system.num_single, 3);
        assert_eq!(system.num_pair, 1);
        assert_eq!(system.num_equations(), 4);
        assert_eq!(system.num_uncovered_links(), 0);
        assert!(system
            .sources
            .contains(&EquationSource::PathPair(PathId(1), PathId(2))));
        assert!(!system
            .sources
            .iter()
            .any(|s| matches!(s, EquationSource::PathPair(PathId(0), _))));

        // The pair equation covers links e2, e3, e4 (columns 1, 2, 3).
        let pair_row = system.matrix.row(3);
        let cols: Vec<usize> = pair_row.iter().map(|&(c, _)| c).collect();
        assert_eq!(cols, vec![1, 2, 3]);
    }

    #[test]
    fn independence_mode_uses_all_paths_and_intersecting_pairs() {
        let inst = toy::figure_1a();
        let obs = fig1a_observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        let config = EquationConfig {
            respect_correlation: false,
            ..EquationConfig::default()
        };
        let system = build_equations(&inst, &est, &config).unwrap();
        assert_eq!(system.num_single, 3);
        // Intersecting pairs: (P1,P2) share e3, (P2,P3) share e2 -> 2 pairs.
        assert_eq!(system.num_pair, 2);
    }

    #[test]
    fn pairs_can_be_disabled() {
        let inst = toy::figure_1a();
        let obs = fig1a_observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        let config = EquationConfig {
            use_pairs: false,
            ..EquationConfig::default()
        };
        let system = build_equations(&inst, &est, &config).unwrap();
        assert_eq!(system.num_single, 3);
        assert_eq!(system.num_pair, 0);
    }

    #[test]
    fn correlated_paths_are_excluded() {
        // In Figure 1(b), every path is usable (each path's links are in
        // different sets), but with a partition that puts a whole path in
        // one set the path is excluded.
        let inst = toy::figure_1b();
        let all_in_one = inst
            .with_correlation(netcorr_topology::CorrelationPartition::single_set(3))
            .unwrap();
        let mut obs = PathObservations::new(2);
        for _ in 0..8 {
            obs.record_snapshot(&[false, true]).unwrap();
        }
        let est = ProbabilityEstimator::new(&obs).unwrap();
        let err = build_equations(&all_in_one, &est, &EquationConfig::default()).unwrap_err();
        assert_eq!(err, CoreError::NoUsableEquations);
        // The independence baseline still forms equations on the same
        // instance.
        let config = EquationConfig {
            respect_correlation: false,
            ..EquationConfig::default()
        };
        let system = build_equations(&all_in_one, &est, &config).unwrap();
        assert_eq!(system.num_single, 2);
    }

    #[test]
    fn rhs_is_the_clamped_log_frequency() {
        let inst = toy::figure_1a();
        let mut obs = PathObservations::new(3);
        // P1 good 3/4 of the time, P2 always good, P3 never good.
        for i in 0..8 {
            obs.record_snapshot(&[i % 4 == 0, false, true]).unwrap();
        }
        let est = ProbabilityEstimator::new(&obs).unwrap();
        let config = EquationConfig {
            use_pairs: false,
            ..EquationConfig::default()
        };
        let system = build_equations(&inst, &est, &config).unwrap();
        assert!((system.rhs[0] - (0.75f64).ln()).abs() < 1e-12);
        assert_eq!(system.rhs[1], 0.0);
        // Never-good path: clamped to 1/(2N) = 1/16.
        assert!((system.rhs[2] - (1.0 / 16.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn pair_budget_is_respected() {
        let inst = toy::figure_1a();
        let obs = fig1a_observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        let config = EquationConfig {
            respect_correlation: false,
            max_pair_equations_per_link: 0.25, // ceil(0.25 * 4) = 1 pair max
            ..EquationConfig::default()
        };
        let system = build_equations(&inst, &est, &config).unwrap();
        assert_eq!(system.num_pair, 1);
    }

    #[test]
    fn incremental_builder_matches_batch_at_every_prefix() {
        use netcorr_measure::StreamingEstimator;

        let inst = toy::figure_1a();
        let config = EquationConfig::default();
        let mut streaming = StreamingEstimator::new(3);
        let builder = IncrementalEquationBuilder::new(&inst, &mut streaming, &config).unwrap();

        // No snapshots yet: the RHS cannot be formed.
        assert!(matches!(
            builder.system(&streaming),
            Err(CoreError::Measurement(_))
        ));

        let mut obs = PathObservations::new(3);
        for i in 0..40 {
            let snapshot = [i % 2 == 0, i % 3 == 0, i % 5 == 0];
            streaming.push_snapshot(&snapshot).unwrap();
            obs.record_snapshot(&snapshot).unwrap();
            // After every push the incremental system equals the batch
            // system built from scratch on the same prefix.
            let incremental = builder.system(&streaming).unwrap();
            let est = ProbabilityEstimator::new(&obs).unwrap();
            let batch = build_equations(&inst, &est, &config).unwrap();
            assert_eq!(incremental.rhs, batch.rhs);
            assert_eq!(incremental.sources, batch.sources);
            assert_eq!(incremental.num_single, batch.num_single);
            assert_eq!(incremental.num_pair, batch.num_pair);
            assert_eq!(incremental.covered, batch.covered);
        }
    }

    #[test]
    fn incremental_builder_catches_up_on_late_construction() {
        use netcorr_measure::StreamingEstimator;

        // Builder created *after* the snapshots arrived: registration
        // performs the catch-up sweep and the system still matches batch.
        let inst = toy::figure_1a();
        let config = EquationConfig::default();
        let mut streaming = StreamingEstimator::new(3);
        for i in 0..25 {
            streaming
                .push_snapshot(&[i % 2 == 0, i % 3 == 0, i % 4 == 0])
                .unwrap();
        }
        let builder = IncrementalEquationBuilder::new(&inst, &mut streaming, &config).unwrap();
        let incremental = builder.system(&streaming).unwrap();
        let est = ProbabilityEstimator::new(streaming.observations()).unwrap();
        let batch = build_equations(&inst, &est, &config).unwrap();
        assert_eq!(incremental.rhs, batch.rhs);
        assert_eq!(builder.structure().pairs().len(), incremental.num_pair);
        // The RHS-only refresh (no structure clone) matches the full
        // system's RHS row for row.
        assert_eq!(builder.rhs(&streaming).unwrap(), incremental.rhs);
    }

    #[test]
    fn lan_topology_covers_every_link() {
        let inst = toy::figure_2a_lan();
        let mut obs = PathObservations::new(inst.num_paths());
        for _ in 0..4 {
            obs.record_snapshot(&vec![false; inst.num_paths()]).unwrap();
        }
        let est = ProbabilityEstimator::new(&obs).unwrap();
        let system = build_equations(&inst, &est, &EquationConfig::default()).unwrap();
        assert_eq!(system.num_uncovered_links(), 0);
        assert_eq!(system.num_single, inst.num_paths());
        assert!(system.num_pair > 0);
    }
}
