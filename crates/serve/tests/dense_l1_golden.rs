//! Golden pin for the minimum-L1 plan on the daemon's fixture.
//!
//! `planetlab-smoke` (topology and scenario seed 42) runs `DenseL1`: every
//! refresh solves the sign-constrained LP and, when noise makes it
//! infeasible, the free-sign one. This test replays a warm-up block and a
//! few hundred one-snapshot refreshes through a [`TomographyService`] and
//! checks each refresh against `tests/data/dense_l1_refreshes.txt`: the
//! simplex pivots (both LPs), the residual's bits and a hash of the
//! probabilities' bits, plus the last refresh's probabilities in full.
//! The file was recorded with the dense-tableau simplex that preceded the
//! sparse pivot, so a pass means the same pivots and the same output bits.

use netcorr_core::{AlgorithmConfig, SolverKind};
use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr_eval::scenario::{ScenarioBuilder, ScenarioConfig};
use netcorr_measure::PathObservations;
use netcorr_serve::TomographyService;
use netcorr_sim::{SimulationConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Topology and scenario seed of the daemon workloads.
const FIXTURE_SEED: u64 = 42;
/// Snapshots ingested as one block before the first refresh.
const WARMUP: usize = 2_000;
/// One-snapshot refreshes after the warm-up.
const REFRESHES: usize = 300;
/// Seed of the simulated snapshot stream.
const STREAM_SEED: u64 = 1;

/// FNV-1a over the probabilities' bit patterns.
fn hash_bits(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |hash, v| {
        v.to_bits().to_le_bytes().iter().fold(hash, |h, &byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

/// Refreshes the estimate: `pivots residual-bits probability-hash`.
fn refresh_line(service: &mut TomographyService) -> String {
    let estimate = service.reinfer().unwrap();
    format!(
        "{} {:016x} {:016x}",
        estimate.diagnostics.iterations,
        estimate.diagnostics.residual.to_bits(),
        hash_bits(estimate.probabilities())
    )
}

/// One line per refresh (`pivots residual-bits probability-hash`), then
/// the last refresh's probability bits on one line.
fn refresh_lines() -> Vec<String> {
    let instance = base_instance(TopologyFamily::PlanetLab, Scale::Smoke, FIXTURE_SEED).unwrap();
    let scenario = ScenarioBuilder::new(ScenarioConfig::default())
        .and_then(|b| b.build(&instance, &mut StdRng::seed_from_u64(FIXTURE_SEED)))
        .unwrap();
    let stream = Simulator::new(
        &scenario.instance,
        &scenario.model,
        SimulationConfig::default(),
    )
    .unwrap()
    .run_range(0..WARMUP + REFRESHES, STREAM_SEED);

    let mut service = TomographyService::new(&instance, &AlgorithmConfig::default()).unwrap();
    assert_eq!(service.status().solver, SolverKind::DenseL1);
    let mut warm = PathObservations::new(instance.num_paths());
    for s in 0..WARMUP {
        warm.record_snapshot(&stream.snapshot(s)).unwrap();
    }
    service.ingest_observations(&warm).unwrap();

    let mut lines = vec![refresh_line(&mut service)];
    for s in WARMUP..WARMUP + REFRESHES {
        service.push_snapshot(&stream.snapshot(s)).unwrap();
        lines.push(refresh_line(&mut service));
    }
    let last = service.probabilities().unwrap();
    lines.push(
        last.iter()
            .map(|p| format!("{:016x}", p.to_bits()))
            .collect::<Vec<_>>()
            .join(" "),
    );
    lines
}

#[test]
fn dense_l1_refreshes_reproduce_the_recorded_pivots_and_bits() {
    let recorded: Vec<&str> = include_str!("data/dense_l1_refreshes.txt")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .collect();
    let lines = refresh_lines();
    assert_eq!(lines.len(), recorded.len(), "refresh count");
    for (i, (got, want)) in lines.iter().zip(&recorded).enumerate() {
        assert_eq!(
            got, want,
            "refresh {i} (pivots residual-bits probability-hash)"
        );
    }
    // Every refresh does simplex work, and it is reported.
    assert!(lines[..=REFRESHES]
        .iter()
        .all(|line| !line.starts_with("0 ")));
}
