//! `offline-paper`: the paper's reproduction path at paper scale.
//!
//! PlanetLab at `Scale::Paper` (topology seed 42), both algorithms over one
//! shared `ContextCache`, 800 snapshots per trial on two trial threads —
//! the way `netcorr_eval::runner::run_experiment` runs an experiment. Each
//! trial is driven through the same public calls `run_trial_cached`
//! makes, so spans can sit between them; after the measured window one
//! trial is re-run through `run_trial_cached` itself and must agree bit
//! for bit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use netcorr_core::equations::equation_structure;
use netcorr_core::{
    AlgorithmConfig, ContextCache, EquationStructure, InferenceContext, SolverKind,
};
use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr_eval::metrics::{absolute_errors, potentially_congested_links};
use netcorr_eval::runner::{run_trial_cached, sharded_observations, ExperimentConfig};
use netcorr_eval::scenario::{ScenarioBuilder, ScenarioConfig};
use netcorr_linalg::rank::IndependentRowSelector;
use netcorr_measure::bitset::words_for;
use netcorr_measure::ProbabilityEstimator;
use netcorr_sim::{SimulationConfig, Simulator};
use netcorr_topology::TopologyInstance;

use crate::inputs::{mix, TOPOLOGY_SEED};
use crate::report::Report;
use crate::stats::{ms, Latency};
use crate::trace::{Coverage, Trace};
use crate::RunConfig;

/// Snapshots per trial (the paper's and `ExperimentConfig`'s default).
const SNAPSHOTS: usize = 800;
/// Concurrent trial workers.
const TRIAL_THREADS: usize = 2;
/// Minimum trials per run: enough for the p90 tail (ten beyond it).
const MIN_TRIALS: usize = 100;
/// Trials whose errors and solver work feed the quality metric and the
/// exact counters: always the same trial indices, so both are a pure
/// function of the seed however many trials the window fits, and pooled
/// over enough scenario draws that they vary little from seed to seed.
const SCORED_TRIALS: usize = 40;
/// Trials per throughput window (ten windows fit in `MIN_TRIALS`).
const RATE_WINDOW: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 2;

/// The two algorithms' configurations, as `run_trial_observations` forms
/// them.
fn configs() -> [AlgorithmConfig; 2] {
    let mut correlation = AlgorithmConfig::default();
    correlation.equations.respect_correlation = true;
    let mut independence = AlgorithmConfig::default();
    independence.equations.respect_correlation = false;
    [correlation, independence]
}

struct Prepared {
    base: TopologyInstance,
    contexts: ContextCache,
    /// Rows the replayed selection accepted, per configuration (traced
    /// set-ups only).
    replayed_selection: Vec<usize>,
}

/// Topology generation plus both context builds. With a trace, the
/// equation structure and row selection inside each build are replayed
/// after the timed set-up and hung under its build span.
fn prepare(trace: Option<&mut Trace>) -> Result<(Prepared, Duration), String> {
    let start = Instant::now();
    let t = Instant::now();
    let base = base_instance(TopologyFamily::PlanetLab, Scale::Paper, TOPOLOGY_SEED)
        .map_err(|e| e.to_string())?;
    let generate = t.elapsed();
    let contexts = ContextCache::new();
    let mut builds = Vec::new();
    for config in configs() {
        let t = Instant::now();
        contexts
            .context(&base, &config)
            .map_err(|e| e.to_string())?;
        builds.push(t.elapsed());
    }
    let wall = start.elapsed();
    let mut replayed_selection = Vec::new();
    if let Some(trace) = trace {
        let setup = trace.record("perfbench.setup", None, wall, false);
        trace.record("topology.generate", Some(setup), generate, false);
        for (config, build) in configs().iter().zip(builds) {
            let span = trace.record("core.context.build", Some(setup), build, false);
            let t = Instant::now();
            let structure =
                equation_structure(&base, &config.equations).map_err(|e| e.to_string())?;
            trace.record("core.equations.structure", Some(span), t.elapsed(), true);
            let t = Instant::now();
            replayed_selection.push(select_rows(&structure, base.num_links(), config));
            trace.record("linalg.rank.select", Some(span), t.elapsed(), true);
        }
    }
    let prepared = Prepared {
        base,
        contexts,
        replayed_selection,
    };
    Ok((prepared, wall))
}

/// The row selection `InferenceContext::new` runs: rows offered in order
/// to an `IndependentRowSelector` until it spans every link.
pub fn select_rows(
    structure: &EquationStructure,
    num_links: usize,
    config: &AlgorithmConfig,
) -> usize {
    let matrix = structure.matrix();
    let mut selector = IndependentRowSelector::new(num_links, config.solver.independence_tolerance);
    let mut dense = vec![0.0; num_links];
    for row in 0..matrix.rows() {
        if selector.is_complete() {
            break;
        }
        dense.iter_mut().for_each(|v| *v = 0.0);
        for &(col, value) in matrix.row(row) {
            dense[col] = value;
        }
        selector.offer(&dense);
    }
    selector.accepted()
}

/// What one trial produced.
struct Trial {
    index: usize,
    /// Completion, in seconds since the trials started.
    finished: f64,
    wall: Duration,
    simulate: Duration,
    answer: Duration,
    correlation_errors: Vec<f64>,
    independence_errors: Vec<f64>,
    iterations: usize,
    solvers: [SolverKind; 2],
    selected: usize,
    estimates_in_range: bool,
}

struct Seeds {
    scenario: u64,
    simulation: u64,
}

impl Seeds {
    /// `run_experiment`'s per-trial seeding from a base seed drawn from the
    /// workload seed.
    fn of(seed: u64, index: usize) -> Seeds {
        let base = mix(seed, 1);
        Seeds {
            scenario: base.wrapping_add(index as u64),
            simulation: base.wrapping_add(1000 + index as u64),
        }
    }
}

/// One trial through the public calls `run_trial_cached` makes.
fn run_trial(
    prepared: &Prepared,
    seed: u64,
    index: usize,
    shards: usize,
    mut trace: Option<&mut Trace>,
) -> Result<Trial, String> {
    let start = Instant::now();
    let parent = trace.as_deref_mut().map(|t| t.open("eval.trial", None));
    let span = |trace: &mut Option<&mut Trace>, name: &'static str, t: Instant| {
        if let Some(trace) = trace.as_deref_mut() {
            trace.close(name, parent, t);
        }
    };
    let seeds = Seeds::of(seed, index);

    let t = Instant::now();
    let scenario = ScenarioBuilder::new(ScenarioConfig::default())
        .and_then(|b| b.build(&prepared.base, &mut StdRng::seed_from_u64(seeds.scenario)))
        .map_err(|e| e.to_string())?;
    span(&mut trace, "eval.scenario", t);

    let t = Instant::now();
    let simulator = Simulator::new(
        &scenario.instance,
        &scenario.model,
        SimulationConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let observations = sharded_observations(&simulator, SNAPSHOTS, seeds.simulation, shards);
    let simulate = t.elapsed();
    span(&mut trace, "sim.simulate", t);

    let answer_start = Instant::now();
    let t = Instant::now();
    let links = potentially_congested_links(&scenario.instance, &observations);
    span(&mut trace, "eval.score", t);
    let mut errors: Vec<Vec<f64>> = Vec::new();
    let mut iterations = 0;
    let mut solvers = [SolverKind::DenseExact; 2];
    let mut selected = 0;
    let mut estimates_in_range = true;
    for (slot, config) in configs().iter().enumerate() {
        let t = Instant::now();
        let context: Arc<InferenceContext> = prepared
            .contexts
            .context(&scenario.instance, config)
            .map_err(|e| e.to_string())?;
        span(&mut trace, "core.context.cache", t);

        let t = Instant::now();
        let estimator = ProbabilityEstimator::new(&observations).map_err(|e| e.to_string())?;
        let rhs = context.rhs(&estimator).map_err(|e| e.to_string())?;
        span(&mut trace, "measure.estimate", t);

        let t = Instant::now();
        let (estimate, _) = context.reinfer(&rhs, None).map_err(|e| e.to_string())?;
        span(&mut trace, "core.context.solve", t);

        let t = Instant::now();
        errors.push(absolute_errors(&estimate, &scenario.true_marginals, &links));
        span(&mut trace, "eval.score", t);

        iterations += estimate.diagnostics.iterations;
        solvers[slot] = estimate.diagnostics.solver;
        if slot == 0 {
            selected = estimate.diagnostics.num_single_path_equations
                + estimate.diagnostics.num_pair_equations;
        }
        estimates_in_range &= estimate
            .probabilities()
            .iter()
            .all(|p| p.is_finite() && (0.0..=1.0).contains(p));
    }
    let answer = answer_start.elapsed();
    let wall = start.elapsed();
    if let (Some(trace), Some(parent)) = (trace, parent) {
        trace.finish(parent, wall);
    }
    let independence_errors = errors.pop().expect("two algorithms");
    let correlation_errors = errors.pop().expect("two algorithms");
    Ok(Trial {
        index,
        finished: 0.0,
        wall,
        simulate,
        answer,
        correlation_errors,
        independence_errors,
        iterations,
        solvers,
        selected,
        estimates_in_range,
    })
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    let traced = config.trace;

    // Set-up, repeated; the last set-up is kept for the trials.
    let mut setup_trace = Trace::new();
    let mut setups = Vec::new();
    let mut prepared = None;
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    for _ in 0..repeats {
        let (p, wall) = prepare(traced.then_some(&mut setup_trace))?;
        setups.push(wall.as_secs_f64());
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    let setup_wall = Duration::from_secs_f64(setups[0]);

    // Plan record.
    let [corr_cfg, ind_cfg] = configs();
    let corr = prepared
        .contexts
        .context(&prepared.base, &corr_cfg)
        .map_err(|e| e.to_string())?;
    let ind = prepared
        .contexts
        .context(&prepared.base, &ind_cfg)
        .map_err(|e| e.to_string())?;
    let pair_words =
        (corr.structure().pairs().len() + ind.structure().pairs().len()) * words_for(SNAPSHOTS);
    println!(
        "plan: offline-paper paths={} links={} equations={} (independence {}) solver={:?}/{:?} \
         kernel={} available_parallelism={}",
        prepared.base.num_paths(),
        prepared.base.num_links(),
        corr.structure().num_equations(),
        ind.structure().num_equations(),
        corr.solver_kind(),
        ind.solver_kind(),
        crate::kernel_tier(),
        crate::parallelism(),
    );
    for (name, context) in [("correlation", &corr), ("independence", &ind)] {
        let kind = context.solver_kind();
        report.check(kind == SolverKind::SparseIterative, || {
            format!("the {name} context runs {kind:?}, not the SparseIterative plan this workload exercises")
        });
    }

    // Trials: two workers claim trial indices until the window closes.
    let shards = (crate::parallelism() / TRIAL_THREADS).max(1);
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let results: Mutex<Vec<Trial>> = Mutex::new(Vec::new());
    let traces: Mutex<Vec<(Trace, Duration)>> = Mutex::new(Vec::new());
    let window = Duration::from_secs(config.seconds);
    let trials_start = Instant::now();
    let failure: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..TRIAL_THREADS {
            scope.spawn(|| {
                let mut trace = Trace::new();
                let worker_start = Instant::now();
                let mut worker_end = worker_start;
                loop {
                    if trials_start.elapsed() >= window && done.load(Ordering::SeqCst) >= MIN_TRIALS
                    {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    // In a traced run every other trial is traced, so
                    // the overhead ratio compares neighbours.
                    let trace_this = traced && index.is_multiple_of(2);
                    match run_trial(
                        &prepared,
                        config.seed,
                        index,
                        shards,
                        trace_this.then_some(&mut trace),
                    ) {
                        Ok(mut trial) => {
                            trial.finished = trials_start.elapsed().as_secs_f64();
                            results
                                .lock()
                                .expect("no worker panics holding the results")
                                .push(trial);
                            done.fetch_add(1, Ordering::SeqCst);
                            worker_end = Instant::now();
                        }
                        Err(e) => {
                            *failure
                                .lock()
                                .expect("no worker panics holding the failure") = Some(e);
                            break;
                        }
                    }
                }
                traces
                    .lock()
                    .expect("no worker panics holding the traces")
                    .push((trace, worker_end - worker_start));
            });
        }
    });
    let trials_wall = trials_start.elapsed();
    if let Some(e) = failure.into_inner().expect("workers joined") {
        return Err(format!("trial failed: {e}"));
    }
    let mut trials = results.into_inner().expect("workers joined");
    trials.sort_by_key(|t| t.index);
    report.outcomes.attempted += trials.len() as u64;

    // Checks.
    for trial in &trials {
        report.check(trial.estimates_in_range, || {
            format!(
                "trial {}: an estimate is not finite or outside [0, 1]",
                trial.index
            )
        });
        report.check(trial.solvers == [SolverKind::SparseIterative; 2], || {
            format!("trial {} solved with {:?}", trial.index, trial.solvers)
        });
    }
    report.check(prepared.contexts.len() == 2, || {
        format!(
            "trials built contexts beyond set-up: the cache holds {}",
            prepared.contexts.len()
        )
    });
    let first = &trials[0];
    let library = {
        let seeds = Seeds::of(config.seed, 0);
        let scenario = ScenarioBuilder::new(ScenarioConfig::default())
            .and_then(|b| b.build(&prepared.base, &mut StdRng::seed_from_u64(seeds.scenario)))
            .map_err(|e| e.to_string())?;
        run_trial_cached(
            &scenario,
            &ExperimentConfig {
                snapshots: SNAPSHOTS,
                shards,
                ..ExperimentConfig::default()
            },
            seeds.simulation,
            &prepared.contexts,
        )
        .map_err(|e| e.to_string())?
    };
    report.check(
        library.correlation_errors == first.correlation_errors
            && library.independence_errors == first.independence_errors,
        || "trial 0 differs from netcorr_eval::runner::run_trial_cached".into(),
    );

    let scored: Vec<&Trial> = trials.iter().filter(|t| t.index < SCORED_TRIALS).collect();
    report.check(scored.len() == SCORED_TRIALS, || {
        format!(
            "only {} of the first {SCORED_TRIALS} trials completed",
            scored.len()
        )
    });
    let pooled: Vec<f64> = scored
        .iter()
        .flat_map(|t| t.correlation_errors.iter().copied())
        .collect();
    let mean_abs_error = pooled.iter().sum::<f64>() / pooled.len().max(1) as f64;
    let cgls_iterations: usize = scored.iter().map(|t| t.iterations).sum();
    println!(
        "trials: {} in {:.3} s on {TRIAL_THREADS} threads ({shards} shard(s) each); \
         scored trials 0..{SCORED_TRIALS}: {} errors, {cgls_iterations} CGLS iterations",
        trials.len(),
        trials_wall.as_secs_f64(),
        pooled.len()
    );

    if !traced {
        let simulate: Vec<f64> = trials.iter().map(|t| ms(t.simulate)).collect();
        let answer: Vec<f64> = trials.iter().map(|t| ms(t.answer)).collect();
        let write = Latency::summarise(&simulate)?;
        let answer = Latency::summarise(&answer)?;
        println!("simulate a trial: {}", write.describe());
        println!(
            "estimate + solve + score both algorithms: {}",
            answer.describe()
        );
        report.set("setup_s", crate::stats::median(&setups));
        let mut finished: Vec<f64> = trials.iter().map(|t| t.finished).collect();
        finished.sort_by(f64::total_cmp);
        report.set(
            "throughput_per_s",
            crate::stats::sustained_rate(&finished, RATE_WINDOW)?,
        );
        report.set("write_ms_p90", write.p90);
        report.set("answer_ms_p90", answer.p90);
        report.set("mean_abs_error", mean_abs_error);
        report.set(
            "peak_rss_mb",
            crate::daemon::peak_rss_mb(std::process::id())?,
        );
        println!("set-ups (s): {setups:?}");
        return Ok(report);
    }

    // Traced run: per-layer figures.
    let mut trace = setup_trace;
    let mut wall = setup_wall;
    for (worker, worker_wall) in traces.into_inner().expect("workers joined") {
        trace.absorb(worker);
        wall += worker_wall;
    }
    let layers = trace.layers();
    let traced_trials = layers.get("eval.trial").map_or(0, |l| l.count) as f64;
    let per_trial =
        |name: &str| layers.get(name).map_or(0.0, |l| l.total_nanos) / 1e6 / traced_trials;
    report.set(
        "topology.generate_ms",
        layers["topology.generate"].total_nanos / 1e6,
    );
    report.set(
        "core.equations.structure_ms",
        layers["core.equations.structure"].total_nanos / 1e6,
    );
    report.set(
        "linalg.rank.select_s",
        layers["linalg.rank.select"].total_nanos / 1e9,
    );
    report.set(
        "core.context.build_s",
        layers["core.context.build"].total_nanos / 1e9,
    );
    report.set("sim.simulate_ms", per_trial("sim.simulate"));
    report.set("measure.estimate_ms", per_trial("measure.estimate"));
    report.set("measure.pair_words", pair_words as f64);
    report.set("core.context.solve_ms", per_trial("core.context.solve"));
    report.set("linalg.cgls.iterations", cgls_iterations as f64);
    report.set("eval.score_ms", per_trial("eval.score"));
    let median_wall = |traced: bool| {
        let walls: Vec<f64> = trials
            .iter()
            .filter(|t| (t.index % 2 == 0) == traced)
            .map(|t| ms(t.wall))
            .collect();
        crate::stats::median(&walls)
    };
    report.set(
        "trace.overhead_ratio",
        median_wall(true) / median_wall(false),
    );
    // Untraced trials are not spans: their time is covered by nothing,
    // so coverage is taken over the set-up plus the traced trials.
    let untraced: Duration = trials
        .iter()
        .filter(|t| t.index % 2 == 1)
        .map(|t| t.wall)
        .sum();
    let coverage = Coverage::of(&trace, wall.saturating_sub(untraced));
    report.set("trace.coverage", coverage.ratio());
    report.set("trace.other_ms", coverage.other_ms());
    crate::print_layers(&layers, &coverage);
    println!(
        "measure.pair_words is computed: pair equations of both contexts x {} lane words",
        words_for(SNAPSHOTS)
    );
    let replayed = prepared.replayed_selection[0];
    report.check(replayed == first.selected, || {
        format!(
            "replayed row selection accepted {replayed} rows, the context selected {}",
            first.selected
        )
    });
    report.check(coverage.ratio() >= 0.9, || {
        format!(
            "layers cover {:.1}% of the traced wall time",
            coverage.ratio() * 100.0
        )
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_follow_the_workload_seed() {
        let a = Seeds::of(7, 3);
        let b = Seeds::of(7, 3);
        assert_eq!((a.scenario, a.simulation), (b.scenario, b.simulation));
        // Neighbouring workload seeds share no trial seed.
        let ours: Vec<u64> = (0..200)
            .flat_map(|i| {
                let s = Seeds::of(7, i);
                [s.scenario, s.simulation]
            })
            .collect();
        for i in 0..200 {
            let s = Seeds::of(8, i);
            assert!(!ours.contains(&s.scenario) && !ours.contains(&s.simulation));
        }
    }
}
