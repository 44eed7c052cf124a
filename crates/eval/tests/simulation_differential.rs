//! Differential property test of the simulator's buffered runs:
//! `run_range(a..b, seed)` must equal [`Simulator::simulate_snapshot`]
//! (the per-snapshot reference) recorded snapshot by snapshot from the
//! same per-snapshot seeds, for random `a`, `b` and `seed`, under every
//! transmission model, on the `planetlab-smoke` fixture under the default
//! scenario's substrate model.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr_eval::{CongestionScenario, ScenarioBuilder, ScenarioConfig};
use netcorr_measure::PathObservations;
use netcorr_sim::{snapshot_seed, SimulationConfig, Simulator, TransmissionModel};

fn scenario() -> CongestionScenario {
    let base = base_instance(TopologyFamily::PlanetLab, Scale::Smoke, 42).unwrap();
    ScenarioBuilder::new(ScenarioConfig::default())
        .unwrap()
        .build(&base, &mut StdRng::seed_from_u64(42))
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn run_range_equals_the_snapshot_reference(
        start in 0usize..300,
        len in 0usize..150,
        seed in 0u64..u64::MAX,
        model in 0usize..3,
    ) {
        let (transmission, packets) = [
            (TransmissionModel::Binomial, 1000),
            (TransmissionModel::Exact, 1000),
            (TransmissionModel::PerPacket, 200),
        ][model];
        let scenario = scenario();
        let config = SimulationConfig {
            transmission,
            packets_per_path: packets,
            ..SimulationConfig::default()
        };
        let simulator = Simulator::new(&scenario.instance, &scenario.model, config).unwrap();
        let range = start..start + len;
        let mut reference = PathObservations::new(scenario.instance.num_paths());
        for snapshot in range.clone() {
            let mut rng = StdRng::seed_from_u64(snapshot_seed(seed, snapshot));
            let (_, paths) = simulator.simulate_snapshot(&mut rng);
            reference.record_snapshot(&paths).unwrap();
        }
        prop_assert_eq!(simulator.run_range(range, seed), reference);
    }
}
