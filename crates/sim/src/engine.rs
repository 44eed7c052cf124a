//! The snapshot simulation engine.
//!
//! A [`Simulator`] binds a topology instance, a congestion model and a
//! simulation configuration, and turns them into end-to-end measurements:
//! for every snapshot it draws link states from the model, assigns
//! packet-loss rates, sends probe packets along every path and classifies
//! each path as good or congested by comparing its measured loss rate to
//! the path threshold `t_p = 1 − (1 − t_l)^d`.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use netcorr_measure::{BitMatrix, PathObservations};
use netcorr_topology::TopologyInstance;

use crate::config::{SimulationConfig, TransmissionModel};
use crate::congestion::CongestionModel;
use crate::error::SimError;
use crate::loss::{path_delivery_probability, sample_binomial, sample_loss_rate};

/// Derives the RNG seed of one snapshot from a trial's base seed.
///
/// Counter-based (SplitMix64-style finalizer over `base ⊕ f(index)`), so
/// snapshot `i` draws from the same stream **no matter which shard
/// simulates it** — sharded and sequential runs of the same trial are
/// bit-identical, for any shard count. The finalizer's avalanche breaks
/// the correlation between the streams of consecutive snapshots that a
/// plain `base + i` seed would leave through SplitMix-seeded xoshiro.
pub fn snapshot_seed(base_seed: u64, snapshot: usize) -> u64 {
    let mut z = base_seed ^ (snapshot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A simulation run that also kept the ground-truth link states of every
/// snapshot (useful for validation and for studying the separability
/// assumption; the inference algorithms never see this information).
#[derive(Debug, Clone)]
pub struct SimulationTrace {
    /// The end-to-end observations (what the algorithms consume).
    pub observations: PathObservations,
    /// For every snapshot, the congestion state of every link, bit-packed
    /// one row per snapshot (same columnar discipline as the
    /// observations: `link_states.get(snapshot, link.index())`).
    pub link_states: BitMatrix,
}

/// The snapshot simulator.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    pub(crate) instance: &'a TopologyInstance,
    pub(crate) model: &'a CongestionModel,
    pub(crate) config: SimulationConfig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator, validating that the model covers exactly the
    /// instance's links and that the configuration is sane.
    pub fn new(
        instance: &'a TopologyInstance,
        model: &'a CongestionModel,
        config: SimulationConfig,
    ) -> Result<Self, SimError> {
        config.validate()?;
        if model.num_links() != instance.num_links() {
            return Err(SimError::InvalidConfig(format!(
                "congestion model covers {} links, topology has {}",
                model.num_links(),
                instance.num_links()
            )));
        }
        Ok(Simulator {
            instance,
            model,
            config,
        })
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Runs `snapshots` snapshots and returns the path observations.
    pub fn run(&self, snapshots: usize, rng: &mut impl Rng) -> PathObservations {
        let mut observations =
            PathObservations::with_capacity(self.instance.num_paths(), snapshots);
        for _ in 0..snapshots {
            let (_, path_congested) = self.simulate_snapshot(rng);
            observations
                .record_snapshot(&path_congested)
                .expect("snapshot width matches the path count");
        }
        observations
    }

    /// Runs `snapshots` snapshots and returns both the observations and the
    /// ground-truth link states.
    pub fn run_detailed(&self, snapshots: usize, rng: &mut impl Rng) -> SimulationTrace {
        let mut observations =
            PathObservations::with_capacity(self.instance.num_paths(), snapshots);
        let mut link_states = BitMatrix::with_capacity(self.instance.num_links(), snapshots);
        for _ in 0..snapshots {
            let (links, path_congested) = self.simulate_snapshot(rng);
            observations
                .record_snapshot(&path_congested)
                .expect("snapshot width matches the path count");
            link_states.push_row(&links);
        }
        SimulationTrace {
            observations,
            link_states,
        }
    }

    /// Runs the snapshots of `range` only, each seeded independently from
    /// `base_seed` via [`snapshot_seed`].
    ///
    /// This is the shard entry point: because every snapshot owns its RNG
    /// stream, `run_range(0..n)` equals the in-order concatenation of
    /// `run_range(0..k)` and `run_range(k..n)` for **any** split — shard
    /// counts never change results.
    pub fn run_range(&self, range: Range<usize>, base_seed: u64) -> PathObservations {
        let mut observations =
            PathObservations::with_capacity(self.instance.num_paths(), range.len());
        for snapshot in range {
            let mut rng = StdRng::seed_from_u64(snapshot_seed(base_seed, snapshot));
            let (_, path_congested) = self.simulate_snapshot(&mut rng);
            observations
                .record_snapshot(&path_congested)
                .expect("snapshot width matches the path count");
        }
        observations
    }

    /// Runs `snapshots` snapshots with per-snapshot seeding (equivalent to
    /// `run_range(0..snapshots, base_seed)`).
    pub fn run_seeded(&self, snapshots: usize, base_seed: u64) -> PathObservations {
        self.run_range(0..snapshots, base_seed)
    }

    /// Like [`Simulator::run_range`], but also keeps the ground-truth link
    /// states of each snapshot in the range.
    pub fn run_detailed_range(&self, range: Range<usize>, base_seed: u64) -> SimulationTrace {
        let mut observations =
            PathObservations::with_capacity(self.instance.num_paths(), range.len());
        let mut link_states = BitMatrix::with_capacity(self.instance.num_links(), range.len());
        for snapshot in range {
            let mut rng = StdRng::seed_from_u64(snapshot_seed(base_seed, snapshot));
            let (links, path_congested) = self.simulate_snapshot(&mut rng);
            observations
                .record_snapshot(&path_congested)
                .expect("snapshot width matches the path count");
            link_states.push_row(&links);
        }
        SimulationTrace {
            observations,
            link_states,
        }
    }

    /// Simulates a single snapshot: returns the link congestion states and
    /// the per-path congestion observations.
    pub fn simulate_snapshot(&self, rng: &mut impl Rng) -> (Vec<bool>, Vec<bool>) {
        // 1. Draw link states from the congestion model.
        let link_states = self.model.sample_state(rng);
        // 2. Assign loss rates according to the loss model.
        let loss_rates: Vec<f64> = link_states
            .iter()
            .map(|&congested| sample_loss_rate(rng, congested, &self.config))
            .collect();
        // 3. Send probes along every path and classify it.
        let path_congested: Vec<bool> = self
            .instance
            .paths
            .paths()
            .map(|path| {
                let path_losses: Vec<f64> =
                    path.links.iter().map(|l| loss_rates[l.index()]).collect();
                let threshold = self.config.path_congestion_threshold(path.len());
                let measured_loss = self.measure_path_loss(&path_losses, rng);
                measured_loss > threshold
            })
            .collect();
        (link_states, path_congested)
    }

    /// Measures the loss rate of one path according to the configured
    /// transmission model.
    pub(crate) fn measure_path_loss(&self, link_losses: &[f64], rng: &mut impl Rng) -> f64 {
        let delivery = path_delivery_probability(link_losses);
        match self.config.transmission {
            TransmissionModel::Exact => 1.0 - delivery,
            TransmissionModel::Binomial => {
                let n = self.config.packets_per_path;
                let delivered = sample_binomial(rng, n, delivery);
                1.0 - delivered as f64 / n as f64
            }
            TransmissionModel::PerPacket => {
                let n = self.config.packets_per_path;
                let mut delivered = 0usize;
                for _ in 0..n {
                    let survived = link_losses
                        .iter()
                        .all(|&loss| !(loss > 0.0 && rng.random_bool(loss.min(1.0))));
                    if survived {
                        delivered += 1;
                    }
                }
                1.0 - delivered as f64 / n as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::CongestionModelBuilder;
    use netcorr_measure::{PathCounts, ProbabilityEstimator};
    use netcorr_topology::graph::LinkId;
    use netcorr_topology::path::PathId;
    use netcorr_topology::toy;
    use rand::rngs::StdRng;
    use rand::RngExt;
    use rand::SeedableRng;

    fn fig1a_setup() -> (netcorr_topology::TopologyInstance, CongestionModel) {
        let inst = toy::figure_1a();
        let model = CongestionModelBuilder::new(&inst.correlation)
            .joint_group(&[LinkId(0), LinkId(1)], 0.2)
            .independent(LinkId(2), 0.1)
            .independent(LinkId(3), 0.1)
            .build()
            .unwrap();
        (inst, model)
    }

    #[test]
    fn construction_validates_inputs() {
        let (inst, model) = fig1a_setup();
        assert!(Simulator::new(&inst, &model, SimulationConfig::default()).is_ok());
        // Model with the wrong number of links.
        let other = toy::figure_1b();
        let small_model = CongestionModelBuilder::new(&other.correlation)
            .independent(LinkId(0), 0.1)
            .build()
            .unwrap();
        assert!(Simulator::new(&inst, &small_model, SimulationConfig::default()).is_err());
        // Invalid configuration.
        let bad = SimulationConfig {
            link_congestion_threshold: 0.0,
            ..SimulationConfig::default()
        };
        assert!(Simulator::new(&inst, &model, bad).is_err());
    }

    #[test]
    fn run_produces_the_requested_number_of_snapshots() {
        let (inst, model) = fig1a_setup();
        let sim = Simulator::new(&inst, &model, SimulationConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let obs = sim.run(50, &mut rng);
        assert_eq!(obs.num_snapshots(), 50);
        assert_eq!(obs.num_paths(), 3);
    }

    #[test]
    fn all_good_links_imply_good_paths_in_exact_mode() {
        let inst = toy::figure_1a();
        // Nothing is ever congested.
        let model = CongestionModelBuilder::new(&inst.correlation)
            .build()
            .unwrap();
        let config = SimulationConfig {
            transmission: TransmissionModel::Exact,
            ..SimulationConfig::default()
        };
        let sim = Simulator::new(&inst, &model, config).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let obs = sim.run(500, &mut rng);
        for snapshot in obs.snapshots() {
            assert!(
                snapshot.iter().all(|&c| !c),
                "a path was congested with all links good"
            );
        }
    }

    #[test]
    fn path_congestion_frequencies_track_the_model_in_exact_mode() {
        let (inst, model) = fig1a_setup();
        let config = SimulationConfig {
            transmission: TransmissionModel::Exact,
            ..SimulationConfig::default()
        };
        let sim = Simulator::new(&inst, &model, config).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let obs = sim.run(20_000, &mut rng);
        let est = ProbabilityEstimator::new(&obs).unwrap();
        // P1 = {e3, e1}: good iff both good. P(good) = 0.9 * 0.8 = 0.72, so
        // P(congested) ≈ 0.28 (slightly lower because a barely-congested
        // link does not always push the path over the threshold).
        let p1 = est.prob_path_congested(PathId(0)).unwrap();
        assert!((p1 - 0.28).abs() < 0.04, "P1 congestion frequency {p1}");
        // P3 = {e4, e2}: P(congested) ≈ 1 − 0.9 · 0.8 = 0.28.
        let p3 = est.prob_path_congested(PathId(2)).unwrap();
        assert!((p3 - 0.28).abs() < 0.04, "P3 congestion frequency {p3}");
    }

    #[test]
    fn binomial_and_per_packet_models_agree_statistically() {
        let (inst, model) = fig1a_setup();
        let mut freqs = Vec::new();
        for transmission in [TransmissionModel::Binomial, TransmissionModel::PerPacket] {
            let config = SimulationConfig {
                transmission,
                packets_per_path: 200,
                ..SimulationConfig::default()
            };
            let sim = Simulator::new(&inst, &model, config).unwrap();
            let mut rng = StdRng::seed_from_u64(4);
            let obs = sim.run(3000, &mut rng);
            let est = ProbabilityEstimator::new(&obs).unwrap();
            freqs.push(est.prob_path_congested(PathId(0)).unwrap());
        }
        assert!(
            (freqs[0] - freqs[1]).abs() < 0.03,
            "binomial {} vs per-packet {}",
            freqs[0],
            freqs[1]
        );
    }

    #[test]
    fn detailed_run_exposes_consistent_link_states() {
        let (inst, model) = fig1a_setup();
        let config = SimulationConfig {
            transmission: TransmissionModel::Exact,
            ..SimulationConfig::default()
        };
        let sim = Simulator::new(&inst, &model, config).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let trace = sim.run_detailed(2000, &mut rng);
        assert_eq!(trace.link_states.num_rows(), 2000);
        assert_eq!(trace.link_states.width(), inst.num_links());
        for snapshot_idx in 0..trace.link_states.num_rows() {
            let links = trace.link_states.row_bools(snapshot_idx);
            // The joint group is all-or-nothing in every snapshot.
            assert_eq!(links[0], links[1]);
            assert_eq!(links[0], trace.link_states.get(snapshot_idx, 0));
            // Separability, one direction: if every link of a path is good,
            // the path must be observed good (exact transmission).
            for (path_idx, path) in inst.paths.paths().enumerate() {
                let all_good = path.links.iter().all(|l| !links[l.index()]);
                if all_good {
                    assert!(
                        !trace
                            .observations
                            .is_congested(snapshot_idx, PathId(path_idx)),
                        "path {path_idx} congested although all its links are good"
                    );
                }
            }
        }
    }

    #[test]
    fn range_runs_compose_for_any_split() {
        let (inst, model) = fig1a_setup();
        let sim = Simulator::new(&inst, &model, SimulationConfig::default()).unwrap();
        let whole = sim.run_seeded(150, 42);
        for split in [1usize, 64, 77, 128, 149] {
            let mut left = sim.run_range(0..split, 42);
            let right = sim.run_range(split..150, 42);
            left.concat(&right).unwrap();
            assert_eq!(left, whole, "split at {split}");
        }
        // Different seeds give different runs; same seed reproduces.
        assert_eq!(sim.run_seeded(150, 42), whole);
        assert_ne!(sim.run_seeded(150, 43), whole);
    }

    #[test]
    fn detailed_range_matches_the_plain_range() {
        let (inst, model) = fig1a_setup();
        let sim = Simulator::new(&inst, &model, SimulationConfig::default()).unwrap();
        let trace = sim.run_detailed_range(10..40, 7);
        assert_eq!(trace.observations, sim.run_range(10..40, 7));
        assert_eq!(trace.link_states.num_rows(), 30);
    }

    #[test]
    fn snapshot_seeds_are_well_mixed() {
        // Consecutive snapshot seeds must not be close or collide.
        let mut seeds: Vec<u64> = (0..1000).map(|s| snapshot_seed(99, s)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1000);
        // Different base seeds decorrelate the same snapshot index.
        assert_ne!(snapshot_seed(1, 5), snapshot_seed(2, 5));
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let (inst, model) = fig1a_setup();
        let sim = Simulator::new(&inst, &model, SimulationConfig::default()).unwrap();
        let a = sim.run(100, &mut StdRng::seed_from_u64(9));
        let b = sim.run(100, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let c = sim.run(100, &mut StdRng::seed_from_u64(10));
        assert_ne!(a, c);
    }

    #[test]
    fn per_packet_loss_measurement_is_exact_for_degenerate_rates() {
        let (inst, model) = fig1a_setup();
        let config = SimulationConfig {
            transmission: TransmissionModel::PerPacket,
            packets_per_path: 50,
            ..SimulationConfig::default()
        };
        let sim = Simulator::new(&inst, &model, config).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        // Loss rate 0 on every link: every packet survives.
        assert_eq!(sim.measure_path_loss(&[0.0, 0.0], &mut rng), 0.0);
        // Loss rate 1 on some link: every packet dies.
        assert_eq!(sim.measure_path_loss(&[0.0, 1.0], &mut rng), 1.0);
        // Probabilistic case stays within [0, 1].
        let loss = sim.measure_path_loss(&[0.3, 0.2], &mut rng);
        assert!((0.0..=1.0).contains(&loss));
        let _ = rng.random::<f64>();
    }
}
