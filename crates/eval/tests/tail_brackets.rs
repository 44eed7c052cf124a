//! The binomial model's bracket table on a paper-scale trial: every path
//! draw it decides matches the simulator's observation, and it leaves at
//! most 1% of the draws to the pmf summation (1,987 of 1.2M, 0.17%, at
//! these seeds).

use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr_eval::{ScenarioBuilder, ScenarioConfig};
use netcorr_sim::loss::{sample_loss_rate, LossTail};
use netcorr_sim::{snapshot_seed, SimulationConfig, Simulator};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One `offline-paper`-sized trial.
const SNAPSHOTS: usize = 800;

#[test]
fn brackets_decide_all_but_one_percent_of_a_planetlab_paper_trial() {
    let base = base_instance(TopologyFamily::PlanetLab, Scale::Paper, 42).unwrap();
    let scenario = ScenarioBuilder::new(ScenarioConfig::default())
        .unwrap()
        .build(&base, &mut StdRng::seed_from_u64(1))
        .unwrap();
    let config = SimulationConfig::default();
    let sim = Simulator::new(&scenario.instance, &scenario.model, config).unwrap();
    let paths = &scenario.instance.paths;
    let max_hops = paths.paths().map(|p| p.len()).max().unwrap();
    let tails: Vec<LossTail> = (0..=max_hops)
        .map(|d| {
            LossTail::for_threshold(config.packets_per_path, config.path_congestion_threshold(d))
        })
        .collect();

    // Replays each snapshot's draws (link states, loss rates, then one
    // uniform per path) and asks the table alone.
    let (mut draws, mut fallbacks) = (0usize, 0usize);
    for snapshot in 0..SNAPSHOTS {
        let seed = snapshot_seed(7, snapshot);
        let (_, observed) = sim.simulate_snapshot(&mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let loss_rates: Vec<f64> = scenario
            .model
            .sample_state(&mut rng)
            .into_iter()
            .map(|congested| sample_loss_rate(&mut rng, congested, &config))
            .collect();
        for (path, &observed) in paths.paths().zip(&observed) {
            let delivery: f64 = path
                .links
                .iter()
                .map(|l| 1.0 - loss_rates[l.index()])
                .product();
            draws += 1;
            match tails[path.len()].bracket(rng.random(), delivery) {
                Some(bit) => assert_eq!(bit, observed, "snapshot {snapshot}"),
                None => fallbacks += 1,
            }
        }
    }
    assert_eq!(draws, SNAPSHOTS * scenario.instance.num_paths());
    assert!(
        fallbacks * 100 <= draws,
        "{fallbacks} of {draws} draws fell back to the summation"
    );
}
