//! The experiment runner: simulate → infer (both algorithms) → score.
//!
//! Every *trial* instantiates a fresh congestion scenario on the base
//! topology, simulates a number of measurement snapshots, runs the
//! correlation algorithm and the independence baseline on the same
//! observations, and records the absolute error of each over the
//! potentially congested links. An *experiment* pools several trials
//! (optionally in parallel) so the reported CDFs / means are not dominated
//! by one random draw — the same methodology as the paper's "extensive
//! simulations".

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use netcorr_core::{AlgorithmConfig, ContextCache, Diagnostics};
use netcorr_measure::bitset::WORD_BITS;
use netcorr_measure::PathObservations;
use netcorr_sim::{PerturbationPlan, PerturbedSimulator, SimulationConfig, Simulator};
use netcorr_topology::TopologyInstance;

use crate::error::EvalError;
use crate::metrics::{absolute_errors, potentially_congested_links, ErrorSummary};
use crate::scenario::{CongestionScenario, ScenarioBuilder, ScenarioConfig};

/// Configuration of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Number of measurement snapshots per trial.
    pub snapshots: usize,
    /// Number of independent trials (fresh scenario + fresh measurements).
    pub trials: usize,
    /// Base random seed; trial `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Simulator configuration (thresholds, probes per path, transmission
    /// model).
    pub simulation: SimulationConfig,
    /// Inference configuration shared by both algorithms.
    pub algorithm: AlgorithmConfig,
    /// Run trials on separate threads.
    pub parallel: bool,
    /// Maximum number of worker threads for trial-level parallelism
    /// (`0` = one thread per trial).
    pub trial_threads: usize,
    /// Number of within-trial measurement shards: the snapshot range of a
    /// trial is split at word-aligned boundaries across this many scoped
    /// threads, each simulating and packing its own lanes, merged by
    /// word-level concatenation. Per-snapshot seeding makes the result
    /// bit-identical for **any** shard count (`0` = auto-detect from the
    /// available parallelism).
    pub shards: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            snapshots: 800,
            trials: 3,
            base_seed: 42,
            simulation: SimulationConfig::default(),
            algorithm: AlgorithmConfig::default(),
            parallel: true,
            trial_threads: 0,
            shards: 0,
        }
    }
}

impl ExperimentConfig {
    /// A quick configuration for unit tests and smoke runs.
    pub fn smoke() -> Self {
        ExperimentConfig {
            snapshots: 400,
            trials: 2,
            base_seed: 7,
            simulation: SimulationConfig::default(),
            algorithm: AlgorithmConfig::default(),
            parallel: false,
            trial_threads: 0,
            shards: 1,
        }
    }
}

/// Resolves a configured shard count: `0` means auto (the machine's
/// available parallelism), and the count is capped at one shard per
/// 64-snapshot word so every shard boundary except the last stays
/// word-aligned.
pub fn effective_shards(configured: usize, snapshots: usize) -> usize {
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let requested = if configured == 0 { auto } else { configured };
    requested.clamp(1, snapshots.div_ceil(WORD_BITS).max(1))
}

/// Simulates `snapshots` snapshots of a trial split across `shards`
/// scoped worker threads.
///
/// The shard count is resolved through [`effective_shards`], so `0` means
/// auto-detect from the machine's available parallelism — the same
/// convention as [`ExperimentConfig::shards`] and the `--shards` CLI flag.
/// Every shard covers a word-aligned sub-range (a multiple of 64
/// snapshots, except possibly the last), simulates it independently via
/// [`Simulator::run_range`] — per-snapshot seeding makes shard boundaries
/// invisible to the RNG — and packs its own lanes; the shards are then
/// merged in order by word-level concatenation. The result is
/// bit-identical to `simulator.run_seeded(snapshots, seed)` for any
/// shard count.
pub fn sharded_observations(
    simulator: &Simulator<'_>,
    snapshots: usize,
    seed: u64,
    shards: usize,
) -> PathObservations {
    let shards = effective_shards(shards, snapshots);
    if shards <= 1 {
        return simulator.run_seeded(snapshots, seed);
    }
    // Word-aligned shard width so the merge is a memcpy per lane.
    let per_shard = snapshots.div_ceil(shards).next_multiple_of(WORD_BITS);
    let ranges: Vec<std::ops::Range<usize>> = (0..shards)
        .map(|i| (i * per_shard).min(snapshots)..((i + 1) * per_shard).min(snapshots))
        .filter(|r| !r.is_empty())
        .collect();
    let mut parts: Vec<Option<PathObservations>> = Vec::new();
    parts.resize_with(ranges.len(), || None);
    std::thread::scope(|scope| {
        for (slot, range) in parts.iter_mut().zip(&ranges) {
            scope.spawn(move || {
                *slot = Some(simulator.run_range(range.clone(), seed));
            });
        }
    });
    let mut merged = parts.remove(0).expect("shard 0 was simulated");
    for part in parts {
        merged
            .concat(&part.expect("every shard was simulated"))
            .expect("shards share the path count");
    }
    merged
}

/// Sharded measurement of a *perturbed* trial, bit-identical to
/// `perturbed.run_seeded(snapshots, seed)` for any shard count.
///
/// The temporally correlated perturbation state (burst chains, churn
/// routes) is materialised **once** into a [`PerturbationPlan`] that all
/// shards share; the per-snapshot measurement streams are counter-seeded
/// exactly as in [`sharded_observations`], so shard boundaries stay
/// invisible. With [`netcorr_sim::PerturbationConfig::none`] this is
/// bit-identical to [`sharded_observations`] over the wrapped simulator.
pub fn sharded_perturbed_observations(
    perturbed: &PerturbedSimulator<'_>,
    snapshots: usize,
    seed: u64,
    shards: usize,
) -> PathObservations {
    let plan: PerturbationPlan = perturbed.plan(snapshots, seed);
    let shards = effective_shards(shards, snapshots);
    if shards <= 1 {
        return perturbed.run_range_planned(0..snapshots, seed, &plan);
    }
    let per_shard = snapshots.div_ceil(shards).next_multiple_of(WORD_BITS);
    let ranges: Vec<std::ops::Range<usize>> = (0..shards)
        .map(|i| (i * per_shard).min(snapshots)..((i + 1) * per_shard).min(snapshots))
        .filter(|r| !r.is_empty())
        .collect();
    let mut parts: Vec<Option<PathObservations>> = Vec::new();
    parts.resize_with(ranges.len(), || None);
    std::thread::scope(|scope| {
        for (slot, range) in parts.iter_mut().zip(&ranges) {
            let plan = &plan;
            scope.spawn(move || {
                *slot = Some(perturbed.run_range_planned(range.clone(), seed, plan));
            });
        }
    });
    let mut merged = parts.remove(0).expect("shard 0 was simulated");
    for part in parts {
        merged
            .concat(&part.expect("every shard was simulated"))
            .expect("shards share the path count");
    }
    merged
}

/// The outcome of one trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Per-link absolute errors of the correlation algorithm over the
    /// potentially congested links.
    pub correlation_errors: Vec<f64>,
    /// Per-link absolute errors of the independence baseline over the same
    /// links.
    pub independence_errors: Vec<f64>,
    /// Diagnostics of the correlation algorithm's solve.
    pub correlation_diagnostics: Diagnostics,
    /// Diagnostics of the independence baseline's solve.
    pub independence_diagnostics: Diagnostics,
    /// Number of potentially congested links in this trial.
    pub potentially_congested: usize,
}

/// The pooled outcome of an experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Individual trials.
    pub trials: Vec<TrialResult>,
    /// All correlation-algorithm errors pooled across trials.
    pub correlation_errors: Vec<f64>,
    /// All independence-baseline errors pooled across trials.
    pub independence_errors: Vec<f64>,
}

impl ExperimentResult {
    fn from_trials(trials: Vec<TrialResult>) -> Self {
        let correlation_errors = trials
            .iter()
            .flat_map(|t| t.correlation_errors.iter().copied())
            .collect();
        let independence_errors = trials
            .iter()
            .flat_map(|t| t.independence_errors.iter().copied())
            .collect();
        ExperimentResult {
            trials,
            correlation_errors,
            independence_errors,
        }
    }

    /// Summary statistics of the correlation algorithm's pooled errors.
    pub fn correlation_summary(&self) -> ErrorSummary {
        ErrorSummary::from_errors(&self.correlation_errors)
    }

    /// Summary statistics of the independence baseline's pooled errors.
    pub fn independence_summary(&self) -> ErrorSummary {
        ErrorSummary::from_errors(&self.independence_errors)
    }
}

/// Runs a single trial on an already-built scenario.
///
/// Convenience wrapper over [`run_trial_cached`] with a private,
/// single-use [`ContextCache`]; multi-trial callers should share a cache
/// so the equation structure and dense factorization are built once.
pub fn run_trial(
    scenario: &CongestionScenario,
    config: &ExperimentConfig,
    seed: u64,
) -> Result<TrialResult, EvalError> {
    run_trial_cached(scenario, config, seed, &ContextCache::new())
}

/// Runs a single trial, fetching both algorithms' inference contexts
/// (equation structure + independence selection + dense QR factorization
/// or blocked sparse matrix) from `contexts`.
///
/// Scenarios drawn for different trials of one experiment share the same
/// visible instance (unless links are hidden), so a shared cache reduces
/// every trial after the first to RHS assembly plus one solve of the
/// prepared plan. Results are bit-identical to the one-shot algorithms for any
/// cache-sharing pattern.
pub fn run_trial_cached(
    scenario: &CongestionScenario,
    config: &ExperimentConfig,
    seed: u64,
    contexts: &ContextCache,
) -> Result<TrialResult, EvalError> {
    let simulator = Simulator::new(&scenario.instance, &scenario.model, config.simulation)
        .map_err(EvalError::Simulation)?;
    let observations = sharded_observations(&simulator, config.snapshots, seed, config.shards);
    run_trial_observations(scenario, config, &observations, contexts)
}

/// The inference half of a trial: runs both algorithms over
/// already-measured observations and scores them against the scenario's
/// ground truth.
///
/// This is the entry point for callers that produce their observations
/// elsewhere — notably the robustness harness, whose perturbed simulator
/// feeds the exact same estimator → equations → inference pipeline.
pub fn run_trial_observations(
    scenario: &CongestionScenario,
    config: &ExperimentConfig,
    observations: &PathObservations,
    contexts: &ContextCache,
) -> Result<TrialResult, EvalError> {
    let links = potentially_congested_links(&scenario.instance, observations);

    let mut correlation_config = config.algorithm;
    correlation_config.equations.respect_correlation = true;
    let correlation = contexts
        .context(&scenario.instance, &correlation_config)
        .and_then(|context| context.infer(observations))
        .map_err(EvalError::Inference)?;
    let mut independence_config = config.algorithm;
    independence_config.equations.respect_correlation = false;
    let independence = contexts
        .context(&scenario.instance, &independence_config)
        .and_then(|context| context.infer(observations))
        .map_err(EvalError::Inference)?;

    Ok(TrialResult {
        correlation_errors: absolute_errors(&correlation, &scenario.true_marginals, &links),
        independence_errors: absolute_errors(&independence, &scenario.true_marginals, &links),
        correlation_diagnostics: correlation.diagnostics,
        independence_diagnostics: independence.diagnostics,
        potentially_congested: links.len(),
    })
}

/// Runs a full experiment: `config.trials` trials, each with a fresh
/// scenario drawn on the base instance, pooling the per-link errors.
pub fn run_experiment(
    base: &TopologyInstance,
    scenario_config: &ScenarioConfig,
    config: &ExperimentConfig,
) -> Result<ExperimentResult, EvalError> {
    if config.trials == 0 {
        return Err(EvalError::InvalidScenario(
            "an experiment needs at least one trial".to_string(),
        ));
    }
    let builder = ScenarioBuilder::new(*scenario_config)?;

    let parallel_trials = config.parallel && config.trials > 1;
    // `trial_threads` caps the number of workers (0 = one per trial).
    let workers = if !parallel_trials {
        1
    } else if config.trial_threads == 0 {
        config.trials
    } else {
        config.trial_threads.clamp(1, config.trials)
    };
    // Resolve an auto shard count (0) here, where the number of
    // concurrent trial workers is known: the shard budget is the
    // machine's parallelism *divided across workers*, so the default
    // never oversubscribes with workers × cores threads (a single
    // parallel trial gets the whole machine). With `parallel` off the
    // auto default stays 1 — `--sequential` means single-threaded unless
    // `--shards` asks otherwise. (Shard counts never affect results,
    // only scheduling.)
    let mut trial_config = *config;
    if trial_config.shards == 0 {
        trial_config.shards = if config.parallel {
            let available = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            (available / workers).max(1)
        } else {
            1
        };
    }
    let trial_config = &trial_config;

    // One inference-context cache for the whole experiment: trials share
    // the equation structure, independence selection and dense QR
    // factorization (or blocked sparse matrix) whenever their visible
    // instances coincide, which they do unless links are hidden. The
    // cache is only an optimisation — per-trial results are bit-identical
    // with or without hits, so parallel workers stay equal to the
    // sequential order.
    let contexts = ContextCache::new();
    let contexts = &contexts;

    let run_one = move |trial_index: usize| -> Result<TrialResult, EvalError> {
        let scenario_seed = config.base_seed.wrapping_add(trial_index as u64);
        let mut scenario_rng = StdRng::seed_from_u64(scenario_seed);
        let scenario = builder.build(base, &mut scenario_rng)?;
        run_trial_cached(
            &scenario,
            trial_config,
            config.base_seed.wrapping_add(1000 + trial_index as u64),
            contexts,
        )
    };

    let trials: Vec<TrialResult> = if parallel_trials {
        // Lock-free result collection: every worker owns a disjoint
        // contiguous chunk of `&mut` slots (handed out by `chunks_mut`),
        // so no mutex is needed and no writer can contend with another.
        let chunk = config.trials.div_ceil(workers);
        let mut slots: Vec<Option<Result<TrialResult, EvalError>>> = Vec::new();
        slots.resize_with(config.trials, || None);
        std::thread::scope(|scope| {
            for (worker, worker_slots) in slots.chunks_mut(chunk).enumerate() {
                let run_one = &run_one;
                scope.spawn(move || {
                    for (offset, slot) in worker_slots.iter_mut().enumerate() {
                        let trial_index = worker * chunk + offset;
                        // A panicking trial must surface as an `EvalError`
                        // to the caller, not tear down the whole experiment
                        // (scoped threads re-raise unjoined panics on scope
                        // exit).
                        *slot = Some(
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                run_one(trial_index)
                            }))
                            .unwrap_or_else(|_| {
                                Err(EvalError::Io("a trial thread panicked".to_string()))
                            }),
                        );
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every trial slot was filled"))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        (0..config.trials)
            .map(run_one)
            .collect::<Result<Vec<_>, _>>()?
    };

    Ok(ExperimentResult::from_trials(trials))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CorrelationLevel;
    use netcorr_topology::generators::planetlab;

    fn base() -> TopologyInstance {
        planetlab::generate(
            &planetlab::PlanetLabConfig::small(),
            &mut StdRng::seed_from_u64(100),
        )
        .unwrap()
    }

    #[test]
    fn single_trial_produces_errors_for_potentially_congested_links() {
        let base = base();
        let scenario_config = ScenarioConfig {
            correlation_level: CorrelationLevel::LooselyCorrelated,
            ..ScenarioConfig::default()
        };
        let scenario = ScenarioBuilder::new(scenario_config)
            .unwrap()
            .build(&base, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let config = ExperimentConfig::smoke();
        let trial = run_trial(&scenario, &config, 5).unwrap();
        assert!(trial.potentially_congested > 0);
        assert_eq!(trial.correlation_errors.len(), trial.potentially_congested);
        assert_eq!(trial.independence_errors.len(), trial.potentially_congested);
        assert!(trial
            .correlation_errors
            .iter()
            .chain(trial.independence_errors.iter())
            .all(|e| (0.0..=1.0).contains(e)));
    }

    #[test]
    fn experiment_pools_trials_and_is_deterministic() {
        let base = base();
        let scenario_config = ScenarioConfig {
            correlation_level: CorrelationLevel::LooselyCorrelated,
            ..ScenarioConfig::default()
        };
        let config = ExperimentConfig {
            trials: 2,
            snapshots: 200,
            parallel: false,
            ..ExperimentConfig::smoke()
        };
        let a = run_experiment(&base, &scenario_config, &config).unwrap();
        let b = run_experiment(&base, &scenario_config, &config).unwrap();
        assert_eq!(a.trials.len(), 2);
        assert_eq!(a.correlation_errors, b.correlation_errors);
        assert_eq!(a.independence_errors, b.independence_errors);
        let total: usize = a.trials.iter().map(|t| t.potentially_congested).sum();
        assert_eq!(a.correlation_errors.len(), total);
        // Summaries are consistent with the pooled errors.
        assert_eq!(a.correlation_summary().count, total);
    }

    #[test]
    fn parallel_and_sequential_execution_agree() {
        let base = base();
        let scenario_config = ScenarioConfig {
            correlation_level: CorrelationLevel::LooselyCorrelated,
            ..ScenarioConfig::default()
        };
        let mut config = ExperimentConfig {
            trials: 2,
            snapshots: 150,
            ..ExperimentConfig::smoke()
        };
        config.parallel = false;
        let sequential = run_experiment(&base, &scenario_config, &config).unwrap();
        config.parallel = true;
        let parallel = run_experiment(&base, &scenario_config, &config).unwrap();
        assert_eq!(sequential.correlation_errors, parallel.correlation_errors);
        assert_eq!(sequential.independence_errors, parallel.independence_errors);
    }

    #[test]
    fn sharded_observations_are_bit_identical_for_any_shard_count() {
        // The acceptance pin: shard counts 1, 2 and 7 produce the same
        // PathObservations under the same seed, including a snapshot
        // count that is not a multiple of the word size.
        let base = base();
        let scenario = ScenarioBuilder::new(ScenarioConfig::default())
            .unwrap()
            .build(&base, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let simulator = Simulator::new(
            &scenario.instance,
            &scenario.model,
            SimulationConfig::default(),
        )
        .unwrap();
        for snapshots in [400usize, 333] {
            let reference = sharded_observations(&simulator, snapshots, 77, 1);
            assert_eq!(reference.num_snapshots(), snapshots);
            // `0` is auto-detect (resolved through `effective_shards`,
            // not silently clamped to 1): still bit-identical.
            for shards in [0usize, 2, 7] {
                let sharded = sharded_observations(&simulator, snapshots, 77, shards);
                assert_eq!(sharded, reference, "{shards} shards, {snapshots} snapshots");
            }
        }
    }

    #[test]
    fn shared_context_cache_matches_fresh_per_trial_caches() {
        use netcorr_core::ContextCache;

        let base = base();
        let scenario_config = ScenarioConfig {
            correlation_level: CorrelationLevel::LooselyCorrelated,
            ..ScenarioConfig::default()
        };
        let builder = ScenarioBuilder::new(scenario_config).unwrap();
        let config = ExperimentConfig::smoke();
        let cache = ContextCache::new();
        for trial in 0..3u64 {
            let scenario = builder
                .build(&base, &mut StdRng::seed_from_u64(trial))
                .unwrap();
            let fresh = run_trial(&scenario, &config, 1000 + trial).unwrap();
            let cached = run_trial_cached(&scenario, &config, 1000 + trial, &cache).unwrap();
            assert_eq!(fresh.correlation_errors, cached.correlation_errors);
            assert_eq!(fresh.independence_errors, cached.independence_errors);
            assert_eq!(
                fresh.correlation_diagnostics.residual,
                cached.correlation_diagnostics.residual
            );
        }
        // All trials share the same visible instance, so the cache holds
        // exactly one context per algorithm.
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn trial_results_do_not_depend_on_shard_or_thread_count() {
        let base = base();
        let scenario_config = ScenarioConfig {
            correlation_level: CorrelationLevel::LooselyCorrelated,
            ..ScenarioConfig::default()
        };
        let mut config = ExperimentConfig {
            trials: 3,
            snapshots: 200,
            parallel: true,
            ..ExperimentConfig::smoke()
        };
        config.shards = 1;
        config.trial_threads = 0;
        let a = run_experiment(&base, &scenario_config, &config).unwrap();
        config.shards = 7;
        config.trial_threads = 2;
        let b = run_experiment(&base, &scenario_config, &config).unwrap();
        config.shards = 0; // auto
        config.trial_threads = 1;
        let c = run_experiment(&base, &scenario_config, &config).unwrap();
        assert_eq!(a.correlation_errors, b.correlation_errors);
        assert_eq!(a.independence_errors, b.independence_errors);
        assert_eq!(a.correlation_errors, c.correlation_errors);
    }

    #[test]
    fn effective_shards_resolves_auto_and_caps() {
        // Explicit counts pass through, capped at one shard per word.
        assert_eq!(effective_shards(3, 400), 3);
        assert_eq!(effective_shards(100, 130), 3); // ceil(130/64) = 3
        assert_eq!(effective_shards(5, 1), 1);
        // Auto never yields zero.
        assert!(effective_shards(0, 4096) >= 1);
    }

    #[test]
    fn zero_trials_are_rejected() {
        let base = base();
        let config = ExperimentConfig {
            trials: 0,
            ..ExperimentConfig::smoke()
        };
        assert!(run_experiment(&base, &ScenarioConfig::default(), &config).is_err());
    }

    #[test]
    fn correlation_algorithm_beats_the_baseline_on_a_correlated_scenario() {
        // The headline qualitative result of the paper, at smoke scale: on
        // a scenario with highly correlated congestion, the correlation
        // algorithm's mean absolute error is smaller than the independence
        // baseline's.
        let base = base();
        let scenario_config = ScenarioConfig {
            congested_fraction: 0.15,
            correlation_level: CorrelationLevel::HighlyCorrelated,
            ..ScenarioConfig::default()
        };
        let config = ExperimentConfig {
            trials: 2,
            snapshots: 600,
            parallel: true,
            ..ExperimentConfig::smoke()
        };
        let result = run_experiment(&base, &scenario_config, &config).unwrap();
        let corr = result.correlation_summary();
        let indep = result.independence_summary();
        assert!(
            corr.mean <= indep.mean,
            "correlation mean {} vs independence mean {}",
            corr.mean,
            indep.mean
        );
    }
}
