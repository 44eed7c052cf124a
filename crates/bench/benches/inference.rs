//! Benchmarks for the inference engine: equation-structure / QR reuse
//! through `InferenceContext`, sparse CGLS solves, and trial-level
//! threading in the experiment runner.
//!
//! Three questions, one group each:
//!
//! * `structure_reuse` — how much of a single trial's inference cost is
//!   observation-independent (structure build + independence selection +
//!   dense factorization) and therefore amortized away by the context?
//! * `cgls` — what does one trial's sparse CGLS solve cost, and how many
//!   iterations does it take?
//! * `trial_threads` — end-to-end `run_experiment` wall-clock with one
//!   trial worker vs all available workers (shards pinned to 1 so only
//!   trial-level parallelism is measured).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use netcorr_bench::{fixture, Fixture, BENCH_SNAPSHOTS};
use netcorr_core::{AlgorithmConfig, CorrelationAlgorithm, InferenceContext};
use netcorr_eval::figures::TopologyFamily;
use netcorr_eval::runner::{run_experiment, ExperimentConfig};
use netcorr_eval::scenario::{CorrelationLevel, ScenarioConfig};
use netcorr_measure::{PathObservations, ProbabilityEstimator};
use netcorr_sim::{SimulationConfig, Simulator};

/// Number of per-trial observation sets in the CGLS benchmark.
const TRIALS: usize = 16;

fn bench_fixture() -> Fixture {
    fixture(
        TopologyFamily::PlanetLab,
        0.10,
        CorrelationLevel::HighlyCorrelated,
        0.0,
        0.0,
        7,
    )
}

/// Simulates `trials` independent observation sets on the fixture's
/// scenario (fresh seed per set, same instance — the multi-trial shape).
fn observation_batch(fx: &Fixture, trials: usize) -> Vec<PathObservations> {
    let simulator = Simulator::new(
        &fx.scenario.instance,
        &fx.scenario.model,
        SimulationConfig::default(),
    )
    .expect("valid simulator");
    (0..trials)
        .map(|i| simulator.run_seeded(BENCH_SNAPSHOTS, 0x5eed + i as u64))
        .collect()
}

fn structure_reuse(c: &mut Criterion) {
    let fx = bench_fixture();
    let instance = &fx.scenario.instance;
    let config = AlgorithmConfig::default();
    let context = InferenceContext::for_correlation(instance, config).expect("context builds");

    let mut group = c.benchmark_group("inference_structure_reuse");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("structure_rebuilt", |b| {
        b.iter(|| {
            CorrelationAlgorithm::with_config(instance, config)
                .infer(&fx.observations)
                .expect("inference succeeds")
        })
    });
    group.bench_function("structure_cached", |b| {
        b.iter(|| context.infer(&fx.observations).expect("inference succeeds"))
    });
    group.bench_function("context_build", |b| {
        b.iter(|| InferenceContext::for_correlation(instance, config).expect("context builds"))
    });
    group.finish();
}

fn cgls(c: &mut Criterion) {
    let fx = bench_fixture();
    let mut config = AlgorithmConfig::default();
    // Force every solve through sparse CGLS.
    config.solver.dense_threshold = 0;
    let context =
        InferenceContext::for_correlation(&fx.scenario.instance, config).expect("context builds");
    let batch = observation_batch(&fx, TRIALS);
    let rhs_batch: Vec<Vec<f64>> = batch
        .iter()
        .map(|obs| {
            let estimator = ProbabilityEstimator::new(obs).expect("non-empty observations");
            context.rhs(&estimator).expect("rhs assembles")
        })
        .collect();

    // The iteration count is an exact work counter: print it beside the
    // timings so a kernel change shows it did the same work.
    let iterations: usize = rhs_batch
        .iter()
        .map(|rhs| context.solve(rhs).expect("solve succeeds").iterations)
        .sum();
    println!(
        "inference_cgls: {} right-hand sides, CGLS iterations per solve: cold {:.1}",
        rhs_batch.len(),
        iterations as f64 / rhs_batch.len() as f64
    );

    let mut group = c.benchmark_group("inference_cgls");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("cold", |b| {
        b.iter(|| {
            for rhs in &rhs_batch {
                context.solve(rhs).expect("solve succeeds");
            }
        })
    });
    group.finish();
}

fn trial_threads(c: &mut Criterion) {
    let base = netcorr_bench::bench_instance(TopologyFamily::PlanetLab, 7);
    let scenario_config = ScenarioConfig {
        congested_fraction: 0.10,
        correlation_level: CorrelationLevel::HighlyCorrelated,
        ..ScenarioConfig::default()
    };
    let config = ExperimentConfig {
        snapshots: BENCH_SNAPSHOTS,
        trials: 8,
        base_seed: 11,
        parallel: true,
        trial_threads: 1,
        // Pin within-trial sharding so only trial-level parallelism moves.
        shards: 1,
        ..ExperimentConfig::default()
    };

    let mut group = c.benchmark_group("inference_trial_threads");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("threads_1", |b| {
        b.iter(|| run_experiment(&base, &scenario_config, &config).expect("experiment runs"))
    });
    let all = ExperimentConfig {
        trial_threads: 0, // one worker per trial
        ..config
    };
    group.bench_function("threads_all", |b| {
        b.iter(|| run_experiment(&base, &scenario_config, &all).expect("experiment runs"))
    });
    group.finish();
}

criterion_group!(benches, structure_reuse, cgls, trial_threads);
criterion_main!(benches);
