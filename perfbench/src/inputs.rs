//! Seeded input generation. Every input a workload feeds the program —
//! congestion scenarios, simulated snapshots, the preloaded history file
//! — is a pure function of the workload seed and the workload's fixed
//! topology (and, for the daemon workloads, scenario) seed.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::SeedableRng;

use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr_eval::scenario::{CongestionScenario, ScenarioBuilder, ScenarioConfig};
use netcorr_measure::PathObservations;
use netcorr_sim::{SimulationConfig, Simulator};
use netcorr_topology::TopologyInstance;

/// Topology seed of every workload (the daemon's `--topology-seed`).
pub const TOPOLOGY_SEED: u64 = 42;

/// SplitMix64 finaliser: derives independent, well-separated seeds for
/// each input stream from one workload seed, so seeds `s` and `s + 1`
/// share no trial or snapshot seeds.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the daemon workloads' congestion scenario. The scenario is
/// part of the workload's definition, like the topology: the LP a refresh
/// solves, and so its cost, depends on which links congest and how
/// often, and a per-seed scenario would make run-to-run spread a property
/// of the scenario draw. The workload seed draws the snapshot stream.
pub const SCENARIO_SEED: u64 = 42;

/// The inputs of one daemon workload: the congestion scenario on the
/// `planetlab-smoke` fixture and the seed of its snapshot stream.
pub struct DaemonInputs {
    /// The fixture the daemon builds from `--topology planetlab-smoke`.
    pub instance: TopologyInstance,
    /// Ground truth: the congestion process behind the snapshots.
    pub scenario: CongestionScenario,
    sim_seed: u64,
}

impl DaemonInputs {
    /// The scenario, and the snapshot stream of `seed`.
    pub fn new(seed: u64) -> Result<DaemonInputs, String> {
        let instance = base_instance(TopologyFamily::PlanetLab, Scale::Smoke, TOPOLOGY_SEED)
            .map_err(|e| e.to_string())?;
        let scenario = ScenarioBuilder::new(ScenarioConfig::default())
            .and_then(|b| b.build(&instance, &mut StdRng::seed_from_u64(SCENARIO_SEED)))
            .map_err(|e| e.to_string())?;
        Ok(DaemonInputs {
            instance,
            scenario,
            sim_seed: mix(seed, 11),
        })
    }

    /// Snapshots `range` of the stream. Snapshots are seeded one by one,
    /// so any split of the stream into ranges yields the same snapshots.
    pub fn snapshots(&self, range: Range<usize>) -> PathObservations {
        Simulator::new(
            &self.scenario.instance,
            &self.scenario.model,
            SimulationConfig::default(),
        )
        .expect("the scenario matches its instance")
        .run_range(range, self.sim_seed)
    }

    /// Mean absolute error of per-link congestion probabilities against
    /// the ground truth, over the links on paths seen congested in
    /// `observations` (the paper's "potentially congested links").
    pub fn mean_abs_error(&self, probabilities: &[f64], observations: &PathObservations) -> f64 {
        let links =
            netcorr_eval::metrics::potentially_congested_links(&self.instance, observations);
        let sum: f64 = links
            .iter()
            .map(|l| (probabilities[l.index()] - self.scenario.true_marginals[l.index()]).abs())
            .sum();
        sum / links.len().max(1) as f64
    }
}

/// One snapshot of `observations` as its own block.
pub fn single(observations: &PathObservations, snapshot: usize) -> PathObservations {
    let mut block = PathObservations::new(observations.num_paths());
    block
        .record_snapshot(&observations.snapshot(snapshot))
        .expect("same width");
    block
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_identical_inputs() {
        let a = DaemonInputs::new(5).unwrap();
        let b = DaemonInputs::new(5).unwrap();
        assert_eq!(a.scenario.true_marginals, b.scenario.true_marginals);
        assert_eq!(a.snapshots(0..300), b.snapshots(0..300));
        // Chunking does not change the stream.
        let mut chunked = a.snapshots(0..100);
        chunked.concat(&a.snapshots(100..300)).unwrap();
        assert_eq!(chunked, b.snapshots(0..300));
    }

    #[test]
    fn a_different_seed_gives_different_inputs() {
        let a = DaemonInputs::new(5).unwrap();
        let b = DaemonInputs::new(6).unwrap();
        assert_eq!(a.scenario.true_marginals, b.scenario.true_marginals);
        assert_ne!(a.snapshots(0..300), b.snapshots(0..300));
        // Neighbouring seeds share no derived seed.
        for stream in 0..16 {
            assert_ne!(mix(5, stream), mix(6, stream));
            assert_ne!(mix(5, stream), mix(5, stream + 1));
        }
    }
}
