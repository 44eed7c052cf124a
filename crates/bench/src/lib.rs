//! Shared fixtures for the netcorr benchmarks.
//!
//! Every Criterion benchmark in this crate works on *smoke-scale*
//! topologies so the full benchmark suite runs in minutes; the paper-scale
//! numbers come from the `netcorr-eval` binaries (`fig3`, `fig4`, `fig5`,
//! `all_experiments`) run with `--scale paper`, as README "Build, test,
//! bench" shows.

use rand::rngs::StdRng;
use rand::SeedableRng;

use netcorr_core::{
    AlgorithmConfig, CorrelationAlgorithm, IndependenceAlgorithm, InferenceContext,
};
use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr_eval::scenario::{
    CongestionScenario, CorrelationLevel, ScenarioBuilder, ScenarioConfig,
};
use netcorr_measure::{PathObservations, StreamingEstimator};
use netcorr_sim::{SimulationConfig, Simulator};
use netcorr_topology::TopologyInstance;

/// Number of snapshots simulated by the benchmark fixtures.
pub const BENCH_SNAPSHOTS: usize = 300;

/// A ready-to-infer benchmark fixture: a scenario plus simulated
/// observations.
pub struct Fixture {
    /// The scenario (instance handed to the algorithms + ground truth).
    pub scenario: CongestionScenario,
    /// Simulated end-to-end observations.
    pub observations: PathObservations,
}

impl Fixture {
    /// Runs the correlation algorithm once on the fixture.
    pub fn run_correlation(&self) -> netcorr_core::TomographyEstimate {
        CorrelationAlgorithm::new(&self.scenario.instance)
            .infer(&self.observations)
            .expect("inference succeeds")
    }

    /// Runs the independence baseline once on the fixture.
    pub fn run_independence(&self) -> netcorr_core::TomographyEstimate {
        IndependenceAlgorithm::new(&self.scenario.instance)
            .infer(&self.observations)
            .expect("inference succeeds")
    }
}

/// Generates a smoke-scale base instance of the given family.
pub fn bench_instance(family: TopologyFamily, seed: u64) -> TopologyInstance {
    base_instance(family, Scale::Smoke, seed).expect("topology generation succeeds")
}

/// Builds a fixture for the given scenario parameters on a smoke-scale
/// topology.
pub fn fixture(
    family: TopologyFamily,
    congested_fraction: f64,
    level: CorrelationLevel,
    unidentifiable_fraction: f64,
    mislabeled_fraction: f64,
    seed: u64,
) -> Fixture {
    let base = bench_instance(family, seed);
    let config = ScenarioConfig {
        congested_fraction,
        correlation_level: level,
        unidentifiable_fraction,
        mislabeled_fraction,
        ..ScenarioConfig::default()
    };
    let scenario = ScenarioBuilder::new(config)
        .expect("valid scenario config")
        .build(&base, &mut StdRng::seed_from_u64(seed.wrapping_add(1)))
        .expect("scenario can be instantiated");
    let simulator = Simulator::new(
        &scenario.instance,
        &scenario.model,
        SimulationConfig::default(),
    )
    .expect("valid simulator");
    let observations = simulator.run(BENCH_SNAPSHOTS, &mut StdRng::seed_from_u64(seed ^ 0xbeef));
    Fixture {
        scenario,
        observations,
    }
}

/// Warm-up history of the serve (daemon) re-inference workload: this many
/// fixture snapshots are accumulated before the first refresh, so the
/// refresh sequence sits in the daemon's steady state (each new snapshot
/// moves the estimates by well under a percent).
pub const SERVE_HEAD_SNAPSHOTS: usize = 250;

/// The CGLS tolerance of the online re-inference workload. Looser than
/// the offline default (1e-12): a live daemon trades the last digits for
/// latency, and it is exactly the regime where warm starts pay off
/// (consecutive refreshes differ by a single snapshot, so the previous
/// solution is already within a few iterations of the next).
pub const SERVE_CGLS_TOLERANCE: f64 = 1e-5;

/// The live-stream re-inference workload shared by `benches/serve.rs`
/// and the `bench_gate` binary: a **sparse-plan** inference context at
/// the online tolerance, plus the sequence of right-hand sides the context
/// reads from a streaming estimator in the daemon's steady state —
/// one after [`SERVE_HEAD_SNAPSHOTS`] warm-up snapshots, then one per
/// additional snapshot up to the fixture's [`BENCH_SNAPSHOTS`] (the
/// "re-infer continuously as snapshots arrive" regime).
///
/// Running `context.reinfer(&rhs, None)` over the sequence measures cold
/// re-inference; chaining each solve from the previous solution measures
/// the daemon's warm path on identical right-hand sides. The CGLS
/// iteration counts of both sweeps are deterministic, so
/// `bench_gate` floors the warm advantage on iterations (noise-free)
/// while the criterion bench reports the wall-clock times.
pub fn serve_reinfer_workload(fx: &Fixture) -> (InferenceContext, Vec<Vec<f64>>) {
    let instance = &fx.scenario.instance;
    let mut config = AlgorithmConfig::default();
    config.solver.dense_threshold = 0; // force the sparse CGLS plan
    config.solver.cgls_tolerance = SERVE_CGLS_TOLERANCE;
    let context = InferenceContext::new(instance, &config).expect("context builds");
    let mut streaming = StreamingEstimator::new(instance.num_paths());
    streaming
        .register_pairs(context.structure().pairs())
        .expect("pairs register");
    let total = fx.observations.num_snapshots();
    let head = SERVE_HEAD_SNAPSHOTS.min(total);
    for i in 0..head {
        streaming
            .push_snapshot(&fx.observations.snapshot(i))
            .expect("width matches");
    }
    let mut rhs_sequence = vec![context.rhs(&streaming).expect("snapshots pushed")];
    for i in head..total {
        streaming
            .push_snapshot(&fx.observations.snapshot(i))
            .expect("width matches");
        rhs_sequence.push(context.rhs(&streaming).expect("snapshots pushed"));
    }
    (context, rhs_sequence)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_buildable_for_both_families() {
        for family in [TopologyFamily::Brite, TopologyFamily::PlanetLab] {
            let fixture = fixture(
                family,
                0.10,
                CorrelationLevel::HighlyCorrelated,
                0.0,
                0.0,
                42,
            );
            assert_eq!(fixture.observations.num_snapshots(), BENCH_SNAPSHOTS);
            let estimate = fixture.run_correlation();
            assert_eq!(estimate.num_links(), fixture.scenario.instance.num_links());
            let baseline = fixture.run_independence();
            assert_eq!(baseline.num_links(), estimate.num_links());
        }
    }

    #[test]
    fn serve_workload_produces_solvable_rhs_sequences() {
        let fx = fixture(
            TopologyFamily::PlanetLab,
            0.10,
            CorrelationLevel::HighlyCorrelated,
            0.0,
            0.0,
            7,
        );
        let (context, rhs_sequence) = serve_reinfer_workload(&fx);
        assert_eq!(
            rhs_sequence.len(),
            1 + BENCH_SNAPSHOTS - SERVE_HEAD_SNAPSHOTS
        );
        for rhs in &rhs_sequence {
            assert_eq!(rhs.len(), context.structure().num_equations());
        }
        // Warm-chained and cold sweeps over the identical refresh sequence:
        // the chained solutions stay close to the cold ones (both satisfy
        // the online tolerance; the gap is solver slack, not drift that
        // compounds), and the warm sweep provably spends fewer CGLS
        // iterations — the effect `bench_gate` floors.
        let mut cold_iterations = 0usize;
        let mut warm_iterations = 0usize;
        let mut warm: Option<Vec<f64>> = None;
        let mut chained = None;
        for rhs in &rhs_sequence {
            let (estimate, x) = context.reinfer(rhs, warm.as_deref()).expect("solves");
            warm_iterations += estimate.diagnostics.iterations;
            warm = Some(x);
            chained = Some(estimate);
        }
        for rhs in &rhs_sequence {
            let (estimate, _) = context.reinfer(rhs, None).expect("solves");
            cold_iterations += estimate.diagnostics.iterations;
        }
        assert!(
            warm_iterations < cold_iterations,
            "warm sweep took {warm_iterations} CGLS iterations, cold {cold_iterations}"
        );
        let (cold, _) = context
            .reinfer(rhs_sequence.last().expect("non-empty"), None)
            .expect("solves");
        let max_diff = chained
            .expect("at least one refresh")
            .probabilities()
            .iter()
            .zip(cold.probabilities())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(max_diff <= 1e-2, "warm drifted {max_diff} from cold");
    }
}
