//! Golden pin for the sparse CGLS plan.
//!
//! Both configurations (correlation algorithm and independence baseline)
//! of the `planetlab-smoke` and `brite-paper` topologies (seed 42) are
//! built with `dense_threshold = 0`, so every solve runs CGLS over the
//! selected equations. Each fixture solves a few seeded trials cold and
//! one chain of trials through `reinfer(.., previous)`, each trial after
//! the first warm-started from the one before, and checks
//! every solve against `tests/data/sparse_cgls_solves.txt`: the CGLS
//! iterations, the residual's bits and an FNV-1a hash of the solution's
//! bits. A pass means the same iterates, bit for bit, as the recorded
//! kernel.
//!
//! Re-record with `NETCORR_RECORD_SPARSE_GOLDEN=1 cargo test -p
//! netcorr-core --test sparse_cgls_golden` (only when a change is meant
//! to move the bits).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use netcorr_core::{AlgorithmConfig, InferenceContext, SolverKind};
use netcorr_measure::{PathObservations, ProbabilityEstimator};
use netcorr_sim::{CongestionModel, CongestionModelBuilder, SimulationConfig, Simulator};
use netcorr_topology::generators::{brite, planetlab};
use netcorr_topology::{LinkId, TopologyInstance};

/// Topology and congestion-model seed.
const FIXTURE_SEED: u64 = 42;
/// Snapshots per simulated trial.
const SNAPSHOTS: usize = 400;
/// Trial seeds solved from a cold start.
const COLD_SEEDS: [u64; 3] = [1, 2, 3];
/// Trial seeds solved as one warm chain, each from the previous solution.
const WARM_SEEDS: [u64; 4] = [11, 12, 13, 14];

const RECORDED: &str = include_str!("data/sparse_cgls_solves.txt");
const RECORD_ENV: &str = "NETCORR_RECORD_SPARSE_GOLDEN";

/// FNV-1a over the values' bit patterns.
fn hash_bits(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |hash, v| {
        v.to_bits().to_le_bytes().iter().fold(hash, |h, &byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

fn fixtures() -> Vec<(&'static str, TopologyInstance)> {
    let planetlab = planetlab::generate(
        &planetlab::PlanetLabConfig::small(),
        &mut StdRng::seed_from_u64(FIXTURE_SEED),
    )
    .unwrap();
    let brite_paper = brite::generate(
        &brite::BriteConfig::default(),
        &mut StdRng::seed_from_u64(FIXTURE_SEED),
    )
    .unwrap()
    .instance;
    vec![("planetlab-smoke", planetlab), ("brite-paper", brite_paper)]
}

/// A seeded model: a fifth of the links congest independently, each with
/// a probability in `[0.02, 0.2)`.
fn congestion_model(instance: &TopologyInstance) -> CongestionModel {
    let mut rng = StdRng::seed_from_u64(FIXTURE_SEED);
    let mut builder = CongestionModelBuilder::new(&instance.correlation);
    for link in 0..instance.num_links() {
        if rng.random_bool(0.2) {
            builder = builder.independent(LinkId(link), rng.random_range(0.02..0.2));
        }
    }
    builder.build().unwrap()
}

/// One line per solve: `fixture configuration start iterations
/// residual-bits x-hash`.
fn solve_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, instance) in fixtures() {
        let model = congestion_model(&instance);
        let simulator = Simulator::new(&instance, &model, SimulationConfig::default()).unwrap();
        let trial = |seed| simulator.run(SNAPSHOTS, &mut StdRng::seed_from_u64(seed));
        let cold: Vec<PathObservations> = COLD_SEEDS.iter().map(|&seed| trial(seed)).collect();
        let chain: Vec<PathObservations> = WARM_SEEDS.iter().map(|&seed| trial(seed)).collect();
        let mut config = AlgorithmConfig::default();
        config.solver.dense_threshold = 0;
        let contexts = [
            (
                "correlation",
                InferenceContext::for_correlation(&instance, config).unwrap(),
            ),
            (
                "independence",
                InferenceContext::for_independence(&instance, config).unwrap(),
            ),
        ];
        for (label, context) in &contexts {
            assert_eq!(context.solver_kind(), SolverKind::SparseIterative);
            let rhs = |observations| {
                context
                    .rhs(&ProbabilityEstimator::new(observations).unwrap())
                    .unwrap()
            };
            let mut line = |start: &str, iterations: usize, residual: f64, x: &[f64]| {
                lines.push(format!(
                    "{name} {label} {start} {iterations} {:016x} {:016x}",
                    residual.to_bits(),
                    hash_bits(x)
                ));
            };
            for observations in &cold {
                let outcome = context.solve(&rhs(observations)).unwrap();
                line("cold", outcome.iterations, outcome.residual, &outcome.x);
            }
            let mut previous: Option<Vec<f64>> = None;
            for observations in &chain {
                let start = if previous.is_some() { "warm" } else { "cold" };
                let (estimate, x) = context
                    .reinfer(&rhs(observations), previous.as_deref())
                    .unwrap();
                let diagnostics = &estimate.diagnostics;
                line(start, diagnostics.iterations, diagnostics.residual, &x);
                previous = Some(x);
            }
        }
    }
    lines
}

#[test]
fn sparse_solves_reproduce_the_recorded_iterations_and_bits() {
    let lines = solve_lines();
    if std::env::var_os(RECORD_ENV).is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/data/sparse_cgls_solves.txt"
        );
        let header = RECORDED
            .lines()
            .take_while(|line| line.starts_with('#'))
            .map(|line| format!("{line}\n"))
            .collect::<String>();
        std::fs::write(path, header + &lines.join("\n") + "\n").unwrap();
        return;
    }
    let recorded: Vec<&str> = RECORDED
        .lines()
        .filter(|line| !line.starts_with('#'))
        .collect();
    assert_eq!(lines.len(), recorded.len(), "solve count");
    for (got, want) in lines.iter().zip(&recorded) {
        assert_eq!(
            got, want,
            "(fixture configuration start iterations residual-bits x-hash)"
        );
    }
    // Every solve iterates, and the chain really starts warm.
    assert!(lines.iter().all(|line| line.split(' ').nth(3) != Some("0")));
    assert!(lines
        .iter()
        .any(|line| line.split(' ').nth(2) == Some("warm")));
}
