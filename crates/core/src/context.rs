//! Batched, factorization-reusing inference over a shared topology.
//!
//! [`InferenceContext`] is the one log-linear inference pipeline: the
//! one-shot [`crate::CorrelationAlgorithm::infer`] /
//! [`crate::IndependenceAlgorithm::infer`] build a context and use it
//! once, the experiment harness shares contexts across trials, and the
//! daemon refreshes one from a streaming estimator.
//!
//! A context hoists the observation-independent work out of the
//! per-trial loop:
//!
//! * the [`EquationStructure`] is built once;
//! * the linearly-independent row subset is selected once, and with it
//!   the solve plan is prepared (a `PreparedSolve` in [`crate::solver`]):
//!   dense determined systems keep the QR factorization, so each trial is
//!   one `Qᵀb` sweep plus one back-substitution, and whole batches go
//!   through the RHS-batched [`netcorr_linalg::QrDecomposition::solve_many`];
//! * dense under-determined systems keep only the matrix: each trial runs
//!   a fresh two-phase simplex for the minimum-L1 solution;
//! * sparse systems keep the blocked CSR matrix, and batches warm-start
//!   CGLS from the previous right-hand side's solution in fixed-length
//!   chains ([`WARM_CHAIN`]) so the batched result does not depend on how
//!   a batch is later split across threads.
//!
//! A trial's right-hand side is read through [`PathCounts`], so the batch
//! estimator of an offline trial and the streaming estimator of the daemon
//! feed the same [`InferenceContext::rhs`].
//!
//! [`ContextCache`] shares contexts across threads, keyed by the exact
//! structural identity of the instance + configuration (never by a digest
//! alone, so a hash collision cannot silently reuse the wrong
//! factorization).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use netcorr_measure::{PathCounts, PathObservations, ProbabilityEstimator};
use netcorr_topology::TopologyInstance;

use crate::algorithm::AlgorithmConfig;
use crate::equations::{equation_structure, EquationStructure};
use crate::error::CoreError;
use crate::result::{Diagnostics, SolverKind, TomographyEstimate};
use crate::solver::{PreparedSolve, SolveOutcome};

/// Length of a warm-start chain in [`InferenceContext::solve_batch`]:
/// within each consecutive chunk of this many right-hand sides, the first
/// CGLS solve is cold and every following solve starts from the previous
/// solution. Fixing the chain length (instead of chaining through the
/// whole batch) keeps the batched result independent of how a caller
/// partitions the batch across threads at `WARM_CHAIN`-aligned
/// boundaries.
pub const WARM_CHAIN: usize = 8;

/// Shared, observation-independent inference state for one topology
/// instance and algorithm configuration.
///
/// Construction performs all the per-topology work (structure, selection,
/// factorization); [`InferenceContext::infer`] then costs only the RHS
/// estimation plus a back-substitution (dense determined), a minimum-L1
/// simplex (dense under-determined) or a CGLS run (sparse) per trial.
pub struct InferenceContext {
    num_links: usize,
    num_paths: usize,
    config: AlgorithmConfig,
    structure: EquationStructure,
    uncovered_links: usize,
    prepared: PreparedSolve,
}

impl InferenceContext {
    /// Builds the context for an instance: equation structure,
    /// independence selection and the solve plan (QR factorization /
    /// gathered matrices). Uses `config.equations.respect_correlation` as
    /// given; see [`InferenceContext::for_correlation`] /
    /// [`InferenceContext::for_independence`] for the forced variants.
    pub fn new(instance: &TopologyInstance, config: &AlgorithmConfig) -> Result<Self, CoreError> {
        instance.validate()?;
        let num_links = instance.num_links();
        let structure = equation_structure(instance, &config.equations)?;
        let prepared = PreparedSolve::new(
            structure.matrix(),
            structure.sources(),
            num_links,
            &config.solver,
        )?;
        Ok(InferenceContext {
            num_links,
            num_paths: instance.num_paths(),
            config: *config,
            uncovered_links: structure.num_uncovered_links(),
            structure,
            prepared,
        })
    }

    /// Context for the paper's correlation algorithm
    /// (`respect_correlation` forced on, like
    /// [`crate::CorrelationAlgorithm::with_config`]).
    pub fn for_correlation(
        instance: &TopologyInstance,
        mut config: AlgorithmConfig,
    ) -> Result<Self, CoreError> {
        config.equations.respect_correlation = true;
        Self::new(instance, &config)
    }

    /// Context for the independence baseline (`respect_correlation`
    /// forced off, like [`crate::IndependenceAlgorithm::with_config`]).
    pub fn for_independence(
        instance: &TopologyInstance,
        mut config: AlgorithmConfig,
    ) -> Result<Self, CoreError> {
        config.equations.respect_correlation = false;
        Self::new(instance, &config)
    }

    /// The configuration the context was built with.
    pub fn config(&self) -> &AlgorithmConfig {
        &self.config
    }

    /// The shared equation structure.
    pub fn structure(&self) -> &EquationStructure {
        &self.structure
    }

    /// Number of links (unknowns).
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Whether fewer independent equations than unknowns were available.
    pub fn underdetermined(&self) -> bool {
        self.prepared.underdetermined()
    }

    /// Which numerical path solves this structure's systems.
    pub fn solver_kind(&self) -> SolverKind {
        self.prepared.kind()
    }

    /// The right-hand side over `counts`: one clamped empirical
    /// log-probability per structure row, in row order (see
    /// [`EquationStructure::rhs`]). `counts` may be a batch estimator over
    /// one trial's observations or a streaming estimator whose
    /// accumulators hold the structure's [`EquationStructure::pairs`]
    /// (see [`netcorr_measure::StreamingEstimator::register_pairs`]). Fails with
    /// [`CoreError::InvalidConfig`] if `counts` covers a different number
    /// of paths than the instance.
    pub fn rhs<C: PathCounts + ?Sized>(&self, counts: &C) -> Result<Vec<f64>, CoreError> {
        self.check_width(counts.num_paths())?;
        self.structure.rhs(counts)
    }

    /// Solves one right-hand side (one entry per structure row) with the
    /// prepared plan. Bit-identical to
    /// [`crate::solver::solve_equations`] on the assembled system.
    pub fn solve(&self, rhs: &[f64]) -> Result<SolveOutcome, CoreError> {
        self.solve_with_warm_start(rhs, None)
    }

    /// Like [`InferenceContext::solve`], but on the sparse path CGLS
    /// starts from `initial` (a previous solution over the same
    /// structure) instead of zero. `initial` is ignored on the dense
    /// paths. A `None` start is bit-identical to [`InferenceContext::solve`].
    pub fn solve_with_warm_start(
        &self,
        rhs: &[f64],
        initial: Option<&[f64]>,
    ) -> Result<SolveOutcome, CoreError> {
        self.prepared.solve(self.structure.matrix(), rhs, initial)
    }

    /// Solves a batch of right-hand sides over the shared structure.
    ///
    /// Dense determined plans go through the RHS-batched
    /// [`netcorr_linalg::QrDecomposition::solve_many`] (bit-identical to
    /// calling [`InferenceContext::solve`] per RHS); sparse plans
    /// warm-start each solve from the previous solution within fixed
    /// [`WARM_CHAIN`] chunks (numerically equal to cold solves within the
    /// CGLS tolerance, and deterministic for a given batch order).
    pub fn solve_batch(&self, rhs_batch: &[Vec<f64>]) -> Result<Vec<SolveOutcome>, CoreError> {
        self.prepared
            .solve_batch(self.structure.matrix(), rhs_batch, WARM_CHAIN)
    }

    /// Infers the per-link congestion probabilities for one trial's
    /// observations: the batch estimator's right-hand side, solved with
    /// the prepared plan.
    pub fn infer(&self, observations: &PathObservations) -> Result<TomographyEstimate, CoreError> {
        let estimator = self.estimator(observations)?;
        let rhs = self.rhs(&estimator)?;
        let outcome = self.solve(&rhs)?;
        Ok(self.estimate(outcome))
    }

    /// The online (daemon) re-infer entry point: solves an already-built
    /// right-hand side — typically [`InferenceContext::rhs`] over a
    /// streaming estimator, refreshed in `O(#equations)` — and returns
    /// the estimate **plus the solved log-good-probabilities**, so the
    /// caller can seed the next refresh's warm start with them.
    ///
    /// On the dense plans `warm` is ignored and the result is bit-identical
    /// to [`InferenceContext::infer`] on the same observations; on the
    /// sparse plan CGLS starts from `warm` instead of zero, which converges
    /// in few iterations when consecutive refreshes are close relative to
    /// the solver tolerance (the live-stream case).
    pub fn reinfer(
        &self,
        rhs: &[f64],
        warm: Option<&[f64]>,
    ) -> Result<(TomographyEstimate, Vec<f64>), CoreError> {
        let outcome = self.solve_with_warm_start(rhs, warm)?;
        let x = outcome.x.clone();
        Ok((self.estimate(outcome), x))
    }

    /// Infers a whole batch of trials over the shared structure (see
    /// [`InferenceContext::solve_batch`] for the batching strategy).
    pub fn infer_batch(
        &self,
        observations: &[&PathObservations],
    ) -> Result<Vec<TomographyEstimate>, CoreError> {
        let mut batch = Vec::with_capacity(observations.len());
        for obs in observations {
            let estimator = self.estimator(obs)?;
            batch.push(self.rhs(&estimator)?);
        }
        Ok(self
            .solve_batch(&batch)?
            .into_iter()
            .map(|outcome| self.estimate(outcome))
            .collect())
    }

    fn check_width(&self, num_paths: usize) -> Result<(), CoreError> {
        if num_paths != self.num_paths {
            return Err(CoreError::InvalidConfig(format!(
                "observations cover {num_paths} paths, instance has {}",
                self.num_paths
            )));
        }
        Ok(())
    }

    fn estimator<'o>(
        &self,
        observations: &'o PathObservations,
    ) -> Result<ProbabilityEstimator<'o>, CoreError> {
        self.check_width(observations.num_paths())?;
        Ok(ProbabilityEstimator::new(observations)?)
    }

    fn estimate(&self, outcome: SolveOutcome) -> TomographyEstimate {
        let diagnostics = Diagnostics {
            num_links: self.num_links,
            num_single_path_equations: outcome.used_single,
            num_pair_equations: outcome.used_pair,
            underdetermined: outcome.underdetermined,
            solver: outcome.kind,
            residual: outcome.residual,
            uncovered_links: self.uncovered_links,
            iterations: outcome.iterations,
        };
        TomographyEstimate::from_log_good_probabilities(&outcome.x, diagnostics)
    }
}

/// Exact structural identity of an `(instance, configuration)` pair — the
/// cache key of [`ContextCache`].
///
/// Two pairs map to the same key iff they produce the same equation
/// structure and solve plan: same link count, same paths (same link lists
/// in the same order), same correlation partition labels, and the same
/// equation/solver configuration (floats compared by bit pattern).
#[derive(Clone, PartialEq, Eq, Hash)]
struct ContextKey {
    num_links: usize,
    /// Flattened path table: for every path, its length followed by its
    /// link indices.
    paths: Vec<usize>,
    /// Correlation set label of every link.
    correlation_sets: Vec<usize>,
    /// `(respect_correlation, use_pairs, max_pair_equations_per_link bits,
    /// max_pair_candidates)`.
    equations: (bool, bool, u64, usize),
    /// `(independence_tolerance bits, dense_threshold, cgls_iterations,
    /// cgls_tolerance bits, ridge bits, clamp_nonpositive)`.
    solver: (u64, usize, usize, u64, u64, bool),
}

impl ContextKey {
    fn new(instance: &TopologyInstance, config: &AlgorithmConfig) -> Self {
        let mut paths = Vec::new();
        for path in instance.paths.paths() {
            paths.push(path.links.len());
            paths.extend(path.links.iter().map(|l| l.index()));
        }
        let correlation_sets = instance
            .topology
            .link_ids()
            .map(|l| instance.correlation.set_of(l).index())
            .collect();
        ContextKey {
            num_links: instance.num_links(),
            paths,
            correlation_sets,
            equations: (
                config.equations.respect_correlation,
                config.equations.use_pairs,
                config.equations.max_pair_equations_per_link.to_bits(),
                config.equations.max_pair_candidates,
            ),
            solver: (
                config.solver.independence_tolerance.to_bits(),
                config.solver.dense_threshold,
                config.solver.cgls_iterations,
                config.solver.cgls_tolerance.to_bits(),
                config.solver.ridge.to_bits(),
                config.solver.clamp_nonpositive,
            ),
        }
    }
}

/// A thread-safe cache of [`InferenceContext`]s keyed by the exact
/// structural identity of `(instance, configuration)`.
///
/// Multi-trial experiments re-draw the congestion *scenario* per trial,
/// but (unless links are hidden from the inference) the visible instance
/// is identical across trials — so every trial after the first gets its
/// context for the cost of a key build and a map lookup. Contexts are
/// built outside the lock; if two threads race to build the same key the
/// first insertion wins (both builds are deterministic and identical, so
/// which one survives is unobservable).
#[derive(Default)]
pub struct ContextCache {
    contexts: Mutex<HashMap<ContextKey, Arc<InferenceContext>>>,
}

impl ContextCache {
    /// An empty cache.
    pub fn new() -> Self {
        ContextCache::default()
    }

    /// The shared context for `(instance, config)`, building it on first
    /// use.
    pub fn context(
        &self,
        instance: &TopologyInstance,
        config: &AlgorithmConfig,
    ) -> Result<Arc<InferenceContext>, CoreError> {
        let key = ContextKey::new(instance, config);
        if let Some(context) = self
            .contexts
            .lock()
            .expect("context cache lock poisoned")
            .get(&key)
        {
            return Ok(Arc::clone(context));
        }
        let built = Arc::new(InferenceContext::new(instance, config)?);
        let mut contexts = self.contexts.lock().expect("context cache lock poisoned");
        Ok(Arc::clone(contexts.entry(key).or_insert(built)))
    }

    /// Number of distinct contexts currently cached.
    pub fn len(&self) -> usize {
        self.contexts
            .lock()
            .expect("context cache lock poisoned")
            .len()
    }

    /// Whether the cache holds no contexts yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{CorrelationAlgorithm, IndependenceAlgorithm};
    use netcorr_linalg::norms;
    use netcorr_measure::{MeasureError, StreamingEstimator};
    use netcorr_sim::{CongestionModelBuilder, SimulationConfig, Simulator, TransmissionModel};
    use netcorr_topology::graph::LinkId;
    use netcorr_topology::toy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fig1a_instance() -> TopologyInstance {
        toy::figure_1a()
    }

    fn simulate(inst: &TopologyInstance, snapshots: usize, seed: u64) -> PathObservations {
        let model = CongestionModelBuilder::new(&inst.correlation)
            .joint_group(&[LinkId(0), LinkId(1)], 0.3)
            .independent(LinkId(2), 0.1)
            .independent(LinkId(3), 0.15)
            .build()
            .unwrap();
        let config = SimulationConfig {
            transmission: TransmissionModel::Exact,
            ..SimulationConfig::default()
        };
        let sim = Simulator::new(inst, &model, config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        sim.run(snapshots, &mut rng)
    }

    #[test]
    fn context_infer_is_bit_identical_to_the_one_shot_algorithms() {
        let inst = fig1a_instance();
        let obs = simulate(&inst, 4_000, 9);
        let config = AlgorithmConfig::default();

        let corr_ctx = InferenceContext::for_correlation(&inst, config).unwrap();
        let one_shot = CorrelationAlgorithm::with_config(&inst, config)
            .infer(&obs)
            .unwrap();
        let cached = corr_ctx.infer(&obs).unwrap();
        assert_eq!(cached.probabilities(), one_shot.probabilities());
        assert_eq!(cached.diagnostics.residual, one_shot.diagnostics.residual);
        assert_eq!(cached.diagnostics.solver, one_shot.diagnostics.solver);

        let indep_ctx = InferenceContext::for_independence(&inst, config).unwrap();
        let one_shot = IndependenceAlgorithm::with_config(&inst, config)
            .infer(&obs)
            .unwrap();
        let cached = indep_ctx.infer(&obs).unwrap();
        assert_eq!(cached.probabilities(), one_shot.probabilities());

        // The sparse path too: force every solve through CGLS.
        let mut sparse = config;
        sparse.solver.dense_threshold = 0;
        let sparse_ctx = InferenceContext::for_correlation(&inst, sparse).unwrap();
        assert_eq!(sparse_ctx.solver_kind(), SolverKind::SparseIterative);
        let one_shot = CorrelationAlgorithm::with_config(&inst, sparse)
            .infer(&obs)
            .unwrap();
        let cached = sparse_ctx.infer(&obs).unwrap();
        assert_eq!(cached.probabilities(), one_shot.probabilities());
        assert_eq!(cached.diagnostics.residual, one_shot.diagnostics.residual);
    }

    #[test]
    fn dense_batch_is_bit_identical_to_sequential_solves() {
        let inst = fig1a_instance();
        let config = AlgorithmConfig::default();
        let ctx = InferenceContext::for_correlation(&inst, config).unwrap();
        assert_eq!(ctx.solver_kind(), SolverKind::DenseExact);
        let batch: Vec<PathObservations> = (0..5).map(|i| simulate(&inst, 1_000, 20 + i)).collect();
        let refs: Vec<&PathObservations> = batch.iter().collect();
        let batched = ctx.infer_batch(&refs).unwrap();
        for (estimate, obs) in batched.iter().zip(&batch) {
            let sequential = ctx.infer(obs).unwrap();
            assert_eq!(estimate.probabilities(), sequential.probabilities());
            assert_eq!(
                estimate.diagnostics.residual,
                sequential.diagnostics.residual
            );
        }
    }

    #[test]
    fn sparse_warm_batch_matches_cold_solves_within_tolerance() {
        let inst = fig1a_instance();
        let mut config = AlgorithmConfig::default();
        config.solver.dense_threshold = 0;
        let ctx = InferenceContext::for_correlation(&inst, config).unwrap();
        assert_eq!(ctx.solver_kind(), SolverKind::SparseIterative);
        // More observations than one warm chain, so the chunking runs too.
        let batch: Vec<PathObservations> = (0..WARM_CHAIN + 3)
            .map(|i| simulate(&inst, 1_000, 40 + i as u64))
            .collect();
        let refs: Vec<&PathObservations> = batch.iter().collect();
        let batched = ctx.infer_batch(&refs).unwrap();
        assert_eq!(batched.len(), batch.len());
        for (estimate, obs) in batched.iter().zip(&batch) {
            let cold = ctx.infer(obs).unwrap();
            assert_eq!(estimate.diagnostics.solver, SolverKind::SparseIterative);
            assert!(
                norms::approx_eq(estimate.probabilities(), cold.probabilities(), 1e-6),
                "warm {:?} vs cold {:?}",
                estimate.probabilities(),
                cold.probabilities()
            );
        }
    }

    #[test]
    fn reinfer_matches_infer_and_chains_warm_starts() {
        let inst = fig1a_instance();
        let obs = simulate(&inst, 2_000, 17);
        let estimator = ProbabilityEstimator::new(&obs).unwrap();

        // Dense plan: reinfer (with or without a warm seed) is bit-identical
        // to infer — the seed is ignored.
        let config = AlgorithmConfig::default();
        let ctx = InferenceContext::for_correlation(&inst, config).unwrap();
        let rhs = ctx.rhs(&estimator).unwrap();
        let reference = ctx.infer(&obs).unwrap();
        let (cold, x_cold) = ctx.reinfer(&rhs, None).unwrap();
        assert_eq!(cold.probabilities(), reference.probabilities());
        let (seeded, _) = ctx.reinfer(&rhs, Some(&x_cold)).unwrap();
        assert_eq!(seeded.probabilities(), reference.probabilities());

        // Sparse plan: a cold reinfer equals infer bit-identically, and a
        // warm reinfer seeded from the previous solution stays within the
        // CGLS tolerance of it.
        let mut sparse = config;
        sparse.solver.dense_threshold = 0;
        let ctx = InferenceContext::for_correlation(&inst, sparse).unwrap();
        assert_eq!(ctx.solver_kind(), SolverKind::SparseIterative);
        let rhs = ctx.rhs(&estimator).unwrap();
        let reference = ctx.infer(&obs).unwrap();
        let (cold, x_cold) = ctx.reinfer(&rhs, None).unwrap();
        assert_eq!(cold.probabilities(), reference.probabilities());
        let obs2 = simulate(&inst, 2_000, 18);
        let estimator2 = ProbabilityEstimator::new(&obs2).unwrap();
        let rhs2 = ctx.rhs(&estimator2).unwrap();
        let (warm, _) = ctx.reinfer(&rhs2, Some(&x_cold)).unwrap();
        let (cold2, _) = ctx.reinfer(&rhs2, None).unwrap();
        assert!(norms::approx_eq(
            warm.probabilities(),
            cold2.probabilities(),
            1e-6
        ));
    }

    #[test]
    fn rhs_reads_batch_and_streaming_counts_identically() {
        let inst = fig1a_instance();
        let obs = simulate(&inst, 1_500, 31);
        let ctx = InferenceContext::for_independence(&inst, AlgorithmConfig::default()).unwrap();
        let mut streaming = StreamingEstimator::new(inst.num_paths());
        // Unregistered pairs cannot be read from the accumulators.
        streaming.push_snapshot(&obs.snapshot(0)).unwrap();
        assert!(matches!(
            ctx.rhs(&streaming),
            Err(CoreError::Measurement(MeasureError::Unregistered(_)))
        ));
        // Registered after the first snapshot: caught up, then streamed.
        streaming.register_pairs(ctx.structure().pairs()).unwrap();
        for snapshot in obs.snapshots().skip(1) {
            streaming.push_snapshot(&snapshot).unwrap();
        }
        let batch = ProbabilityEstimator::new(&obs).unwrap();
        assert_eq!(ctx.rhs(&streaming).unwrap(), ctx.rhs(&batch).unwrap());
        let (online, _) = ctx.reinfer(&ctx.rhs(&streaming).unwrap(), None).unwrap();
        assert_eq!(
            online.probabilities(),
            ctx.infer(&obs).unwrap().probabilities()
        );
    }

    #[test]
    fn context_cache_shares_contexts_per_exact_identity() {
        let inst = fig1a_instance();
        let config = AlgorithmConfig::default();
        let cache = ContextCache::new();
        assert!(cache.is_empty());
        let a = cache.context(&inst, &config).unwrap();
        let b = cache.context(&inst, &config).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "identical identity must hit");
        assert_eq!(cache.len(), 1);
        // A different configuration is a different context.
        let mut indep = config;
        indep.equations.respect_correlation = false;
        let c = cache.context(&inst, &indep).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        // A structurally identical clone of the instance still hits.
        let clone = fig1a_instance();
        let d = cache.context(&clone, &config).unwrap();
        assert!(Arc::ptr_eq(&a, &d));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let inst = fig1a_instance();
        let ctx = InferenceContext::for_correlation(&inst, AlgorithmConfig::default()).unwrap();
        let wrong = PathObservations::new(5);
        assert!(matches!(
            ctx.infer(&wrong),
            Err(CoreError::InvalidConfig(_))
        ));
        // A right-hand side read from counts over the wrong paths.
        let mut five = PathObservations::new(5);
        five.record_snapshot(&[false; 5]).unwrap();
        assert!(matches!(
            ctx.rhs(&ProbabilityEstimator::new(&five).unwrap()),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            ctx.rhs(&StreamingEstimator::new(2)),
            Err(CoreError::InvalidConfig(_))
        ));
        let short_rhs = vec![0.0; ctx.structure().num_equations() + 1];
        assert!(matches!(
            ctx.solve(&short_rhs),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            ctx.solve_batch(&[short_rhs]),
            Err(CoreError::InvalidConfig(_))
        ));
    }
}
