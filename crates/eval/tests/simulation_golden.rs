//! Golden pin for the simulator's observations.
//!
//! Every combination of three fixtures (`fig1a` under an explicit model,
//! `planetlab-smoke` and `brite-smoke` under the default scenario's
//! substrate model), three transmission models (binomial, exact, and per
//! packet at 200 packets), two seeds and four entry points (`run_seeded`,
//! `Simulator::run` on one `StdRng` stream, `run_range(37..200)`, which
//! starts mid-word, and `sharded_observations` over 3 shards) is hashed
//! and checked against `tests/data/simulation_golden.txt`: the snapshot
//! count, the number of congested cells and an FNV-1a hash of the lane
//! words. A pass means the same draws and the same bits as the recorded
//! simulator.
//!
//! Re-record with `NETCORR_RECORD_SIMULATION_GOLDEN=1 cargo test -p
//! netcorr-eval --test simulation_golden` (only when a change is meant
//! to move the bits).

use rand::rngs::StdRng;
use rand::SeedableRng;

use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr_eval::runner::sharded_observations;
use netcorr_eval::{ScenarioBuilder, ScenarioConfig};
use netcorr_measure::PathObservations;
use netcorr_sim::{
    CongestionModel, CongestionModelBuilder, SimulationConfig, Simulator, TransmissionModel,
};
use netcorr_topology::{toy, LinkId, TopologyInstance};

/// Topology and scenario seed.
const FIXTURE_SEED: u64 = 42;
/// Snapshots of the whole-trial entry points.
const SNAPSHOTS: usize = 200;
/// Trial seeds.
const SEEDS: [u64; 2] = [1, 7];

const RECORDED: &str = include_str!("data/simulation_golden.txt");
const RECORD_ENV: &str = "NETCORR_RECORD_SIMULATION_GOLDEN";

/// FNV-1a over the lane words of every path, path by path.
fn hash_lanes(observations: &PathObservations) -> u64 {
    let lanes = observations.lanes();
    (0..lanes.num_lanes())
        .flat_map(|lane| lanes.lane(lane))
        .fold(0xcbf2_9ce4_8422_2325, |hash, word| {
            word.to_le_bytes().iter().fold(hash, |h, &byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            })
        })
}

fn fixtures() -> Vec<(&'static str, TopologyInstance, CongestionModel)> {
    let fig1a = toy::figure_1a();
    let fig1a_model = CongestionModelBuilder::new(&fig1a.correlation)
        .joint_group(&[LinkId(0), LinkId(1)], 0.2)
        .independent(LinkId(2), 0.1)
        .independent(LinkId(3), 0.3)
        .build()
        .unwrap();
    let mut fixtures = vec![("fig1a", fig1a, fig1a_model)];
    for (name, family) in [
        ("planetlab-smoke", TopologyFamily::PlanetLab),
        ("brite-smoke", TopologyFamily::Brite),
    ] {
        let base = base_instance(family, Scale::Smoke, FIXTURE_SEED).unwrap();
        let scenario = ScenarioBuilder::new(ScenarioConfig::default())
            .unwrap()
            .build(&base, &mut StdRng::seed_from_u64(FIXTURE_SEED))
            .unwrap();
        fixtures.push((name, scenario.instance, scenario.model));
    }
    fixtures
}

/// One line per run: `fixture transmission seed entry snapshots congested
/// lane-hash`.
fn run_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, instance, model) in fixtures() {
        for (label, transmission, packets) in [
            ("binomial", TransmissionModel::Binomial, 1000),
            ("exact", TransmissionModel::Exact, 1000),
            ("per-packet", TransmissionModel::PerPacket, 200),
        ] {
            let config = SimulationConfig {
                transmission,
                packets_per_path: packets,
                ..SimulationConfig::default()
            };
            let simulator = Simulator::new(&instance, &model, config).unwrap();
            for seed in SEEDS {
                let runs = [
                    ("run_seeded", simulator.run_seeded(SNAPSHOTS, seed)),
                    (
                        "run",
                        simulator.run(SNAPSHOTS, &mut StdRng::seed_from_u64(seed)),
                    ),
                    ("run_range", simulator.run_range(37..SNAPSHOTS, seed)),
                    (
                        "sharded",
                        sharded_observations(&simulator, SNAPSHOTS, seed, 3),
                    ),
                ];
                for (entry, observations) in runs {
                    let congested: usize = (0..observations.num_paths())
                        .map(|path| observations.lanes().count_ones(path))
                        .sum();
                    lines.push(format!(
                        "{name} {label} {seed} {entry} {} {congested} {:016x}",
                        observations.num_snapshots(),
                        hash_lanes(&observations)
                    ));
                }
            }
        }
    }
    lines
}

#[test]
fn simulations_reproduce_the_recorded_observations() {
    let lines = run_lines();
    if std::env::var_os(RECORD_ENV).is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/data/simulation_golden.txt"
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
    assert_eq!(lines.len(), recorded.len(), "run count");
    for (got, want) in lines.iter().zip(&recorded) {
        assert_eq!(
            got, want,
            "(fixture transmission seed entry snapshots congested lane-hash)"
        );
    }
    // The runs are not trivially empty, and the sharded run equals the
    // sequential one.
    assert!(lines.iter().all(|line| line.split(' ').nth(5) != Some("0")));
    for pair in lines.chunks(4) {
        let hash = |line: &str| line.rsplit(' ').next().unwrap().to_string();
        assert_eq!(hash(&pair[0]), hash(&pair[3]), "{}", pair[0]);
    }
}
