//! The snapshot simulation engine.
//!
//! A [`Simulator`] binds a topology instance, a congestion model and a
//! simulation configuration, and turns them into end-to-end measurements:
//! for every snapshot it draws link states from the model, assigns
//! packet-loss rates, and classifies each path as good or congested by
//! comparing its loss to the path threshold `t_p = 1 − (1 − t_l)^d`. How
//! the loss is measured depends on the [`TransmissionModel`]: the exact
//! end-to-end loss, every probe packet walked across every link, or — the
//! default — one Bernoulli draw of the exact binomial tail `P(lost ≥ c_d)`
//! (see [`crate::loss`]). Building the simulator computes, per hop count
//! `d`, the threshold `t_p` and, for the binomial model, the tail with its
//! cutoff `c_d`; the tail's bracket table is shared process-wide, so it is
//! built once per `(packets, c_d)`, not once per simulator.
//!
//! The runs return only the path observations, which is all the inference
//! algorithms ever see. The ground-truth link states of a snapshot come
//! from [`Simulator::simulate_snapshot`]; a seeded range is re-simulated
//! snapshot by snapshot from [`snapshot_seed`].

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use netcorr_measure::PathObservations;
use netcorr_topology::graph::LinkId;
use netcorr_topology::TopologyInstance;

use crate::config::{SimulationConfig, TransmissionModel};
use crate::congestion::CongestionModel;
use crate::error::SimError;
use crate::loss::{sample_loss_rate, LossTail};

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

/// The snapshot simulator.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    pub(crate) instance: &'a TopologyInstance,
    pub(crate) model: &'a CongestionModel,
    pub(crate) config: SimulationConfig,
    /// The path congestion threshold `t_p` per hop count `0..=max_hops`.
    thresholds: Vec<f64>,
    /// The binomial model's congestion tail per hop count `0..=max_hops`;
    /// empty for the other transmission models.
    tails: Vec<LossTail>,
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
        let max_hops = instance.paths.paths().map(|p| p.len()).max().unwrap_or(0);
        let thresholds: Vec<f64> = (0..=max_hops)
            .map(|hops| config.path_congestion_threshold(hops))
            .collect();
        let tails = match config.transmission {
            TransmissionModel::Binomial => thresholds
                .iter()
                .map(|&threshold| LossTail::for_threshold(config.packets_per_path, threshold))
                .collect(),
            TransmissionModel::Exact | TransmissionModel::PerPacket => Vec::new(),
        };
        Ok(Simulator {
            instance,
            model,
            config,
            thresholds,
            tails,
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
        // 3. Send probes along every path and classify it: a comparison
        //    (exact), a bracket lookup that rarely falls back to a pmf sum
        //    (binomial), or a walk of every packet (per packet).
        let path_congested: Vec<bool> = self
            .instance
            .paths
            .paths()
            .map(|path| self.path_congested(&path.links, &loss_rates, path.len(), rng))
            .collect();
        (link_states, path_congested)
    }

    /// Probes one path whose packets cross `links`, whose links lose the
    /// given fractions of their packets, and classifies it against the
    /// threshold of a `hops`-link path.
    ///
    /// `hops` is the path length the measurement side believes in, which
    /// differs from `links.len()` only under routing churn.
    pub(crate) fn path_congested(
        &self,
        links: &[LinkId],
        loss_rates: &[f64],
        hops: usize,
        rng: &mut impl Rng,
    ) -> bool {
        // Same multiplication order as `loss::path_delivery_probability`.
        let delivery: f64 = links.iter().map(|l| 1.0 - loss_rates[l.index()]).product();
        match self.config.transmission {
            TransmissionModel::Exact => 1.0 - delivery > self.thresholds[hops],
            TransmissionModel::Binomial => self.tails[hops].sample(delivery, rng),
            TransmissionModel::PerPacket => {
                let n = self.config.packets_per_path;
                let mut delivered = 0usize;
                for _ in 0..n {
                    let survived = links.iter().all(|l| {
                        let loss = loss_rates[l.index()];
                        !(loss > 0.0 && rng.random_bool(loss.min(1.0)))
                    });
                    if survived {
                        delivered += 1;
                    }
                }
                1.0 - delivered as f64 / n as f64 > self.thresholds[hops]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::CongestionModelBuilder;
    use crate::loss::path_delivery_probability;
    use netcorr_measure::{PathCounts, ProbabilityEstimator};
    use netcorr_topology::generators::planetlab::{self, PlanetLabConfig};
    use netcorr_topology::graph::LinkId;
    use netcorr_topology::path::PathId;
    use netcorr_topology::toy;
    use rand::rngs::StdRng;
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
        let mut freqs: Vec<Vec<f64>> = Vec::new();
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
            freqs.push(
                (0..inst.num_paths())
                    .map(|p| est.prob_path_congested(PathId(p)).unwrap())
                    .collect(),
            );
        }
        for (path, (binomial, per_packet)) in freqs[0].iter().zip(&freqs[1]).enumerate() {
            assert!(
                (binomial - per_packet).abs() < 0.03,
                "path {path}: binomial {binomial} vs per-packet {per_packet}"
            );
        }
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
        for _ in 0..2000 {
            let (links, paths) = sim.simulate_snapshot(&mut rng);
            assert_eq!(links.len(), inst.num_links());
            assert_eq!(paths.len(), inst.num_paths());
            // The joint group is all-or-nothing in every snapshot.
            assert_eq!(links[0], links[1]);
            // Separability, one direction: if every link of a path is good,
            // the path must be observed good (exact transmission).
            for (path_idx, path) in inst.paths.paths().enumerate() {
                let all_good = path.links.iter().all(|l| !links[l.index()]);
                if all_good {
                    assert!(
                        !paths[path_idx],
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
        // Re-simulating a seeded range snapshot by snapshot (which also
        // yields the link states) reproduces `run_range` exactly.
        let (inst, model) = fig1a_setup();
        let sim = Simulator::new(&inst, &model, SimulationConfig::default()).unwrap();
        let mut replayed = PathObservations::new(inst.num_paths());
        for snapshot in 10..40 {
            let mut rng = StdRng::seed_from_u64(snapshot_seed(7, snapshot));
            let (links, paths) = sim.simulate_snapshot(&mut rng);
            assert_eq!(links.len(), inst.num_links());
            replayed.record_snapshot(&paths).unwrap();
        }
        assert_eq!(replayed, sim.run_range(10..40, 7));
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
        let links = [LinkId(0), LinkId(1)];
        for _ in 0..20 {
            // Loss rate 0 on every link: every packet survives.
            assert!(!sim.path_congested(&links, &[0.0, 0.0], 2, &mut rng));
            // Loss rate 1 on some link: every packet dies.
            assert!(sim.path_congested(&links, &[0.0, 1.0], 2, &mut rng));
        }
        // Churned routes: the believed hop count sets the threshold.
        assert!(sim.path_congested(&links, &[0.0, 1.0], 0, &mut rng));
    }

    #[test]
    fn exact_mode_matches_a_direct_reimplementation() {
        // Exact-mode observations are pinned bit for bit: per snapshot,
        // link states, then loss rates, then `1 − delivery > t_p` per path
        // with the delivery of `path_delivery_probability`.
        let inst =
            planetlab::generate(&PlanetLabConfig::small(), &mut StdRng::seed_from_u64(17)).unwrap();
        let mut builder = CongestionModelBuilder::new(&inst.correlation);
        for link in 0..inst.num_links() {
            builder = builder.independent(LinkId(link), 0.02 + 0.3 * (link % 7) as f64 / 7.0);
        }
        let model = builder.build().unwrap();
        let config = SimulationConfig {
            transmission: TransmissionModel::Exact,
            ..SimulationConfig::default()
        };
        let sim = Simulator::new(&inst, &model, config).unwrap();
        let mut expected = PathObservations::new(inst.num_paths());
        for snapshot in 0..300 {
            let mut rng = StdRng::seed_from_u64(snapshot_seed(21, snapshot));
            let link_states = model.sample_state(&mut rng);
            let loss_rates: Vec<f64> = link_states
                .iter()
                .map(|&congested| sample_loss_rate(&mut rng, congested, &config))
                .collect();
            let paths: Vec<bool> = inst
                .paths
                .paths()
                .map(|path| {
                    let losses: Vec<f64> =
                        path.links.iter().map(|l| loss_rates[l.index()]).collect();
                    1.0 - path_delivery_probability(&losses)
                        > config.path_congestion_threshold(path.len())
                })
                .collect();
            expected.record_snapshot(&paths).unwrap();
        }
        assert_eq!(sim.run_seeded(300, 21), expected);
    }

    #[test]
    fn binomial_mode_matches_the_summation_reference() {
        // The bracket table changes no draw: per snapshot, link states,
        // then loss rates, then one uniform per path decided by the pmf
        // summation alone.
        let inst =
            planetlab::generate(&PlanetLabConfig::small(), &mut StdRng::seed_from_u64(17)).unwrap();
        let mut builder = CongestionModelBuilder::new(&inst.correlation);
        for link in 0..inst.num_links() {
            builder = builder.independent(LinkId(link), 0.02 + 0.3 * (link % 7) as f64 / 7.0);
        }
        let model = builder.build().unwrap();
        let config = SimulationConfig::default();
        let sim = Simulator::new(&inst, &model, config).unwrap();
        let mut expected = PathObservations::new(inst.num_paths());
        for snapshot in 0..300 {
            let mut rng = StdRng::seed_from_u64(snapshot_seed(21, snapshot));
            let link_states = model.sample_state(&mut rng);
            let loss_rates: Vec<f64> = link_states
                .iter()
                .map(|&congested| sample_loss_rate(&mut rng, congested, &config))
                .collect();
            let paths: Vec<bool> = inst
                .paths
                .paths()
                .map(|path| {
                    let losses: Vec<f64> =
                        path.links.iter().map(|l| loss_rates[l.index()]).collect();
                    let tail = LossTail::for_threshold(
                        config.packets_per_path,
                        config.path_congestion_threshold(path.len()),
                    );
                    tail.summation(rng.random(), path_delivery_probability(&losses))
                })
                .collect();
            expected.record_snapshot(&paths).unwrap();
        }
        assert_eq!(sim.run_seeded(300, 21), expected);
    }
}
