//! Model-misspecification perturbations of the snapshot simulator.
//!
//! The paper's generative model — and [`crate::Simulator`] — assumes
//! congestion that is independent across time, stationary loss rates,
//! complete snapshots and fixed routing. This module breaks each of those
//! assumptions in a controlled, **seed-reproducible** way, so the
//! robustness of the inference algorithms can be measured where the model
//! is wrong:
//!
//! * **Bursts** ([`GilbertElliottConfig`]) — a per-link Gilbert–Elliott
//!   on/off chain forces a seeded subset of links into bursty congestion
//!   that is *correlated across snapshots*, violating the i.i.d.-in-time
//!   assumption.
//! * **Drift** ([`LossDriftConfig`]) — sampled loss rates are scaled up
//!   linearly over the trial, so the loss process is non-stationary and
//!   good links creep toward the congestion threshold.
//! * **Missing rows** ([`MissingRowsConfig`]) — a seeded subset of
//!   `(snapshot, path)` measurements is dropped; the estimator, which
//!   assumes complete snapshots, sees the dropped rows as "not
//!   congested".
//! * **Routing churn** ([`RoutingChurnConfig`]) — at a seeded snapshot
//!   index a fraction of paths silently switch to a different route,
//!   while the inference side keeps using the stale routing matrix.
//!
//! Everything is keyed off the trial's base seed plus a domain tag per
//! perturbation, so a perturbed trial is bit-reproducible from
//! `(seed, PerturbationConfig)`; with [`PerturbationConfig::none`] the
//! perturbed simulator consumes the RNG streams in exactly the same order
//! as [`crate::Simulator`] and is bit-identical to it for any seed and
//! shard split (pinned by the workspace determinism proptests).

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use netcorr_measure::PathObservations;
use netcorr_topology::graph::LinkId;
use netcorr_topology::path::PathId;
use netcorr_topology::TopologyInstance;

use crate::config::SimulationConfig;
use crate::congestion::CongestionModel;
use crate::engine::{snapshot_seed, Simulator};
use crate::error::SimError;
use crate::loss::sample_loss_rate;

/// Domain tag separating the burst-chain streams from the measurement
/// streams of the same base seed.
const BURST_TAG: u64 = 0x4255_5253_5421_1111;
/// Domain tag of the burst link-selection stream.
const BURST_SELECT_TAG: u64 = 0x4255_5253_5453_454c;
/// Domain tag of the missing-row mask.
const MISSING_TAG: u64 = 0x4d49_5353_494e_4721;
/// Domain tag of the routing-churn stream.
const CHURN_TAG: u64 = 0x4348_5552_4e21_2121;

/// Temporally correlated congestion bursts: a per-link Gilbert–Elliott
/// on/off chain.
///
/// A seeded subset of links each carries an independent two-state Markov
/// chain over the snapshots of a trial. While a link's chain is in the
/// *bad* state the link is forced congested (on top of whatever the
/// congestion model drew); in the *good* state the model's draw stands.
/// Because the chain state persists across snapshots, congestion becomes
/// correlated in time — exactly what the paper's model rules out.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GilbertElliottConfig {
    /// Fraction of links governed by a burst chain, in `[0, 1]`.
    pub link_fraction: f64,
    /// Per-snapshot probability of entering the bad state, in `(0, 1]`.
    pub p_enter: f64,
    /// Per-snapshot probability of leaving the bad state, in `(0, 1]`.
    pub p_exit: f64,
}

impl GilbertElliottConfig {
    /// A chain whose burst coverage scales with `intensity ∈ [0, 1]`:
    /// `intensity` of the links burst, with mean burst length 4 snapshots
    /// and a stationary bad-state probability of ≈ 1/6.
    pub fn with_intensity(intensity: f64) -> Self {
        GilbertElliottConfig {
            link_fraction: intensity,
            p_enter: 0.05,
            p_exit: 0.25,
        }
    }
}

/// Non-stationary loss rates: every sampled link loss rate is scaled by
/// `1 + max_drift · t/(n−1)` at snapshot `t` of `n` (clamped to 1), so
/// the loss process drifts upward over the trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossDriftConfig {
    /// Relative loss-rate inflation reached at the last snapshot, ≥ 0.
    pub max_drift: f64,
}

impl LossDriftConfig {
    /// Drift whose final inflation equals `intensity` (e.g. `0.5` means
    /// loss rates end the trial 1.5× their sampled values).
    pub fn with_intensity(intensity: f64) -> Self {
        LossDriftConfig {
            max_drift: intensity,
        }
    }
}

/// Missing measurements: a seeded subset of `(snapshot, path)` cells is
/// dropped from the observation matrix.
///
/// The estimator has no notion of "absent" rows — a dropped cell is
/// recorded as *not congested*, which is exactly the failure mode of a
/// collector that treats silence as health.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MissingRowsConfig {
    /// Fraction of `(snapshot, path)` cells dropped, in `[0, 1]`.
    pub drop_fraction: f64,
}

impl MissingRowsConfig {
    /// Drops `intensity` of all path rows.
    pub fn with_intensity(intensity: f64) -> Self {
        MissingRowsConfig {
            drop_fraction: intensity,
        }
    }
}

/// Mid-trial routing churn: at a seeded snapshot index, a seeded fraction
/// of paths silently switches to the route of another path, while the
/// believed routing (the topology instance handed to inference, and the
/// per-path congestion threshold) stays stale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoutingChurnConfig {
    /// Fraction of paths re-routed, in `[0, 1]`.
    pub path_fraction: f64,
    /// Churn point as a fraction of the trial length, in `[0, 1]`.
    pub at_fraction: f64,
}

impl RoutingChurnConfig {
    /// Re-routes `intensity` of the paths halfway through the trial.
    pub fn with_intensity(intensity: f64) -> Self {
        RoutingChurnConfig {
            path_fraction: intensity,
            at_fraction: 0.5,
        }
    }
}

/// The composition of perturbations applied to a simulation run. Every
/// field is optional; [`PerturbationConfig::none`] disables them all.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PerturbationConfig {
    /// Temporally correlated congestion bursts.
    pub gilbert_elliott: Option<GilbertElliottConfig>,
    /// Non-stationary loss-rate drift.
    pub loss_drift: Option<LossDriftConfig>,
    /// Missing `(snapshot, path)` measurements.
    pub missing_rows: Option<MissingRowsConfig>,
    /// Mid-trial routing churn.
    pub routing_churn: Option<RoutingChurnConfig>,
}

impl PerturbationConfig {
    /// No perturbation at all: the perturbed simulator degenerates to a
    /// bit-identical twin of [`crate::Simulator`].
    pub fn none() -> Self {
        PerturbationConfig::default()
    }

    /// Whether every perturbation is disabled.
    pub fn is_none(&self) -> bool {
        self.gilbert_elliott.is_none()
            && self.loss_drift.is_none()
            && self.missing_rows.is_none()
            && self.routing_churn.is_none()
    }

    /// Validates every configured perturbation.
    pub fn validate(&self) -> Result<(), SimError> {
        fn check_fraction(name: &str, value: f64) -> Result<(), SimError> {
            if !(0.0..=1.0).contains(&value) {
                return Err(SimError::InvalidConfig(format!(
                    "{name} ({value}) must be in [0, 1]"
                )));
            }
            Ok(())
        }
        if let Some(ge) = &self.gilbert_elliott {
            check_fraction("gilbert_elliott.link_fraction", ge.link_fraction)?;
            for (name, p) in [("p_enter", ge.p_enter), ("p_exit", ge.p_exit)] {
                if !(p > 0.0 && p <= 1.0) {
                    return Err(SimError::InvalidConfig(format!(
                        "gilbert_elliott.{name} ({p}) must be in (0, 1]"
                    )));
                }
            }
        }
        if let Some(drift) = &self.loss_drift {
            if !(drift.max_drift >= 0.0 && drift.max_drift.is_finite()) {
                return Err(SimError::InvalidConfig(format!(
                    "loss_drift.max_drift ({}) must be finite and >= 0",
                    drift.max_drift
                )));
            }
        }
        if let Some(missing) = &self.missing_rows {
            check_fraction("missing_rows.drop_fraction", missing.drop_fraction)?;
        }
        if let Some(churn) = &self.routing_churn {
            check_fraction("routing_churn.path_fraction", churn.path_fraction)?;
            check_fraction("routing_churn.at_fraction", churn.at_fraction)?;
        }
        Ok(())
    }
}

/// Decides whether the `(snapshot, path)` cell is dropped by the
/// missing-rows perturbation — a pure counter-based function of the seed,
/// so masking commutes with any sharding of the snapshot range.
pub fn row_dropped(base_seed: u64, snapshot: usize, path: usize, drop_fraction: f64) -> bool {
    if drop_fraction <= 0.0 {
        return false;
    }
    let hash = snapshot_seed(snapshot_seed(base_seed ^ MISSING_TAG, snapshot), path);
    // Top 53 bits → uniform in [0, 1).
    let unit = (hash >> 11) as f64 / (1u64 << 53) as f64;
    unit < drop_fraction
}

/// Applies the missing-rows mask to an already-measured observation
/// block whose first snapshot has global index `first_snapshot`.
///
/// Dropped cells are recorded as *not congested*. Because the per-cell
/// decision is a pure function of `(seed, global snapshot index, path)`,
/// masking a concatenation equals concatenating per-shard maskings:
/// dropping rows commutes with sharded measurement.
pub fn mask_missing_rows(
    observations: &PathObservations,
    base_seed: u64,
    drop_fraction: f64,
    first_snapshot: usize,
) -> PathObservations {
    let mut masked =
        PathObservations::with_capacity(observations.num_paths(), observations.num_snapshots());
    for (offset, mut row) in observations.snapshots().enumerate() {
        let snapshot = first_snapshot + offset;
        for (path, cell) in row.iter_mut().enumerate() {
            if *cell && row_dropped(base_seed, snapshot, path, drop_fraction) {
                *cell = false;
            }
        }
        masked
            .record_snapshot(&row)
            .expect("masked snapshot keeps the path count");
    }
    masked
}

/// Per-link burst chain states, precomputed for a whole trial.
#[derive(Debug, Clone)]
struct BurstPlan {
    /// Indices of the links governed by a chain.
    links: Vec<usize>,
    /// One bitset (64 snapshots per word) per burst link: bit `t` set ⇔
    /// the chain is in the bad state at snapshot `t`.
    states: Vec<Vec<u64>>,
}

impl BurstPlan {
    fn bad(&self, chain: usize, snapshot: usize) -> bool {
        let word = self.states[chain][snapshot / 64];
        (word >> (snapshot % 64)) & 1 == 1
    }
}

/// Replacement routes for churned paths.
#[derive(Debug, Clone)]
struct ChurnPlan {
    /// First snapshot at which the new routes are in effect.
    at: usize,
    /// `routes[path]` is `Some(links)` if the path is re-routed.
    routes: Vec<Option<Vec<LinkId>>>,
}

/// The fully materialised, seed-deterministic realisation of a
/// [`PerturbationConfig`] for one trial of `snapshots` snapshots.
///
/// Shards of the same trial must share one plan (or equivalently build
/// their own from the same `(seed, config, snapshots)`), which keeps
/// sharded perturbed runs bit-identical to sequential ones: the
/// temporally correlated state lives in the plan, not in the per-snapshot
/// RNG streams.
#[derive(Debug, Clone)]
pub struct PerturbationPlan {
    snapshots: usize,
    burst: Option<BurstPlan>,
    max_drift: Option<f64>,
    missing: Option<(u64, f64)>,
    churn: Option<ChurnPlan>,
}

impl PerturbationPlan {
    /// The trial length the plan was built for.
    pub fn snapshots(&self) -> usize {
        self.snapshots
    }
}

/// Fisher–Yates selection of `count` distinct indices out of `0..n`.
fn sample_indices(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..n).collect();
    let count = count.min(n);
    for i in 0..count {
        let j = rng.random_range(i..n);
        indices.swap(i, j);
    }
    indices.truncate(count);
    indices.sort_unstable();
    indices
}

/// A [`Simulator`] with a [`PerturbationConfig`] layered on top.
///
/// The perturbed snapshot loop consumes the measurement RNG streams in
/// exactly the same order as [`Simulator::simulate_snapshot`]; all
/// perturbation randomness comes from separate, domain-tagged streams of
/// the same base seed. With [`PerturbationConfig::none`] the two
/// simulators are therefore bit-identical for any seed and shard split.
#[derive(Debug, Clone)]
pub struct PerturbedSimulator<'a> {
    simulator: Simulator<'a>,
    perturbation: PerturbationConfig,
}

impl<'a> PerturbedSimulator<'a> {
    /// Creates a perturbed simulator, validating both the simulation and
    /// the perturbation configuration.
    pub fn new(
        instance: &'a TopologyInstance,
        model: &'a CongestionModel,
        config: SimulationConfig,
        perturbation: PerturbationConfig,
    ) -> Result<Self, SimError> {
        perturbation.validate()?;
        Ok(PerturbedSimulator {
            simulator: Simulator::new(instance, model, config)?,
            perturbation,
        })
    }

    /// The underlying unperturbed simulator.
    pub fn simulator(&self) -> &Simulator<'a> {
        &self.simulator
    }

    /// The perturbation configuration.
    pub fn perturbation(&self) -> &PerturbationConfig {
        &self.perturbation
    }

    /// Materialises the perturbation for a trial of `snapshots` snapshots
    /// with the given base seed.
    pub fn plan(&self, snapshots: usize, base_seed: u64) -> PerturbationPlan {
        let instance = self.simulator.instance;
        let burst = self.perturbation.gilbert_elliott.as_ref().map(|ge| {
            let count = (ge.link_fraction * instance.num_links() as f64).round() as usize;
            let mut select_rng = StdRng::seed_from_u64(base_seed ^ BURST_SELECT_TAG);
            let links = sample_indices(&mut select_rng, instance.num_links(), count);
            let words = snapshots.div_ceil(64);
            let states = links
                .iter()
                .map(|&link| {
                    // One dedicated stream per (seed, link): the chain is
                    // evolved sequentially from snapshot 0, which is what
                    // makes it *temporally correlated* — shards replay it
                    // from the shared plan instead of re-drawing.
                    let mut rng = StdRng::seed_from_u64(snapshot_seed(base_seed ^ BURST_TAG, link));
                    let mut bad = false;
                    let mut bits = vec![0u64; words];
                    for t in 0..snapshots {
                        bad = if bad {
                            !rng.random_bool(ge.p_exit)
                        } else {
                            rng.random_bool(ge.p_enter)
                        };
                        if bad {
                            bits[t / 64] |= 1u64 << (t % 64);
                        }
                    }
                    bits
                })
                .collect();
            BurstPlan { links, states }
        });
        let churn = self.perturbation.routing_churn.as_ref().map(|churn| {
            let num_paths = instance.num_paths();
            let count = (churn.path_fraction * num_paths as f64).round() as usize;
            let mut rng = StdRng::seed_from_u64(base_seed ^ CHURN_TAG);
            let churned = sample_indices(&mut rng, num_paths, count);
            let at = ((churn.at_fraction * snapshots as f64).floor() as usize).min(snapshots);
            let mut routes: Vec<Option<Vec<LinkId>>> = vec![None; num_paths];
            for &path in &churned {
                // The new route is another monitored path's links — a
                // route flap onto an existing physical route. Avoid the
                // identity re-route when the topology has > 1 path.
                let mut donor = rng.random_range(0..num_paths);
                if donor == path && num_paths > 1 {
                    donor = (donor + 1) % num_paths;
                }
                routes[path] = Some(instance.paths.path(PathId(donor)).links.clone());
            }
            ChurnPlan { at, routes }
        });
        PerturbationPlan {
            snapshots,
            burst,
            max_drift: self.perturbation.loss_drift.map(|d| d.max_drift),
            missing: self
                .perturbation
                .missing_rows
                .map(|m| (base_seed, m.drop_fraction)),
            churn,
        }
    }

    /// Runs the snapshots of `range` under a plan built for the whole
    /// trial — the shard entry point, mirroring [`Simulator::run_range`].
    pub fn run_range_planned(
        &self,
        range: Range<usize>,
        base_seed: u64,
        plan: &PerturbationPlan,
    ) -> PathObservations {
        let mut observations =
            PathObservations::with_capacity(self.simulator.instance.num_paths(), range.len());
        for snapshot in range {
            let mut rng = StdRng::seed_from_u64(snapshot_seed(base_seed, snapshot));
            let path_congested = self.simulate_snapshot_planned(snapshot, &mut rng, plan);
            observations
                .record_snapshot(&path_congested)
                .expect("snapshot width matches the path count");
        }
        observations
    }

    /// Runs a whole trial of `snapshots` snapshots with per-snapshot
    /// seeding — the perturbed counterpart of [`Simulator::run_seeded`].
    pub fn run_seeded(&self, snapshots: usize, base_seed: u64) -> PathObservations {
        let plan = self.plan(snapshots, base_seed);
        self.run_range_planned(0..snapshots, base_seed, &plan)
    }

    /// Simulates one perturbed snapshot: identical RNG consumption to
    /// [`Simulator::simulate_snapshot`], with the plan's perturbations
    /// applied from their own deterministic state.
    fn simulate_snapshot_planned(
        &self,
        snapshot: usize,
        rng: &mut StdRng,
        plan: &PerturbationPlan,
    ) -> Vec<bool> {
        let sim = &self.simulator;
        // 1. Draw link states from the congestion model (always, so the
        //    stream stays aligned with the unperturbed simulator).
        let mut link_states = sim.model.sample_state(rng);
        // 1b. Burst overlay: chain-bad links are forced congested.
        if let Some(burst) = &plan.burst {
            for (chain, &link) in burst.links.iter().enumerate() {
                if burst.bad(chain, snapshot) {
                    link_states[link] = true;
                }
            }
        }
        // 2. Assign loss rates (same stream order as the unperturbed
        //    simulator), then drift them deterministically.
        let mut loss_rates: Vec<f64> = link_states
            .iter()
            .map(|&congested| sample_loss_rate(rng, congested, &sim.config))
            .collect();
        if let Some(max_drift) = plan.max_drift {
            let span = plan.snapshots.saturating_sub(1).max(1) as f64;
            let factor = 1.0 + max_drift * snapshot as f64 / span;
            for rate in loss_rates.iter_mut() {
                *rate = (*rate * factor).min(1.0);
            }
        }
        // 3. Probe every path. Churned paths traverse their new route,
        //    but the classification threshold still uses the *believed*
        //    (stale) hop count — the measurement endpoint does not know
        //    the route changed.
        sim.instance
            .paths
            .paths()
            .enumerate()
            .map(|(path_idx, path)| {
                let links: &[LinkId] = match &plan.churn {
                    Some(churn) if snapshot >= churn.at => {
                        churn.routes[path_idx].as_deref().unwrap_or(&path.links)
                    }
                    _ => &path.links,
                };
                let mut congested = sim.path_congested(links, &loss_rates, path.len(), rng);
                // 4. Missing rows: the dropped cell reaches the collector
                //    as "not congested" (deterministic, commutes with
                //    sharding).
                if let Some((seed, fraction)) = plan.missing {
                    if congested && row_dropped(seed, snapshot, path_idx, fraction) {
                        congested = false;
                    }
                }
                congested
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::CongestionModelBuilder;
    use crate::TransmissionModel;
    use netcorr_topology::toy;

    fn fig1a_setup() -> (TopologyInstance, CongestionModel) {
        let inst = toy::figure_1a();
        let model = CongestionModelBuilder::new(&inst.correlation)
            .joint_group(&[LinkId(0), LinkId(1)], 0.2)
            .independent(LinkId(2), 0.1)
            .independent(LinkId(3), 0.1)
            .build()
            .unwrap();
        (inst, model)
    }

    fn every_perturbation(intensity: f64) -> PerturbationConfig {
        PerturbationConfig {
            gilbert_elliott: Some(GilbertElliottConfig::with_intensity(intensity)),
            loss_drift: Some(LossDriftConfig::with_intensity(intensity)),
            missing_rows: Some(MissingRowsConfig::with_intensity(intensity * 0.5)),
            routing_churn: Some(RoutingChurnConfig::with_intensity(intensity)),
        }
    }

    #[test]
    fn validation_rejects_out_of_range_knobs() {
        assert!(PerturbationConfig::none().validate().is_ok());
        assert!(every_perturbation(0.5).validate().is_ok());
        let bad = PerturbationConfig {
            gilbert_elliott: Some(GilbertElliottConfig {
                link_fraction: 1.5,
                p_enter: 0.1,
                p_exit: 0.1,
            }),
            ..PerturbationConfig::none()
        };
        assert!(bad.validate().is_err());
        let bad = PerturbationConfig {
            gilbert_elliott: Some(GilbertElliottConfig {
                link_fraction: 0.5,
                p_enter: 0.0,
                p_exit: 0.1,
            }),
            ..PerturbationConfig::none()
        };
        assert!(bad.validate().is_err());
        let bad = PerturbationConfig {
            loss_drift: Some(LossDriftConfig { max_drift: -0.1 }),
            ..PerturbationConfig::none()
        };
        assert!(bad.validate().is_err());
        let bad = PerturbationConfig {
            missing_rows: Some(MissingRowsConfig {
                drop_fraction: -0.01,
            }),
            ..PerturbationConfig::none()
        };
        assert!(bad.validate().is_err());
        let bad = PerturbationConfig {
            routing_churn: Some(RoutingChurnConfig {
                path_fraction: 0.5,
                at_fraction: 2.0,
            }),
            ..PerturbationConfig::none()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn none_is_bit_identical_to_the_plain_simulator() {
        let (inst, model) = fig1a_setup();
        let config = SimulationConfig::default();
        let plain = Simulator::new(&inst, &model, config).unwrap();
        let perturbed =
            PerturbedSimulator::new(&inst, &model, config, PerturbationConfig::none()).unwrap();
        for seed in [0u64, 7, 0xdead_beef] {
            assert_eq!(perturbed.run_seeded(200, seed), plain.run_seeded(200, seed));
        }
    }

    #[test]
    fn perturbed_runs_are_reproducible_and_seed_sensitive() {
        let (inst, model) = fig1a_setup();
        let config = SimulationConfig::default();
        let sim = PerturbedSimulator::new(&inst, &model, config, every_perturbation(0.6)).unwrap();
        let a = sim.run_seeded(300, 42);
        let b = sim.run_seeded(300, 42);
        assert_eq!(a, b, "same (seed, config) must be bit-identical");
        assert_ne!(a, sim.run_seeded(300, 43), "different seeds must differ");
        // A different intensity changes the trace too.
        let weaker =
            PerturbedSimulator::new(&inst, &model, config, every_perturbation(0.1)).unwrap();
        assert_ne!(a, weaker.run_seeded(300, 42));
    }

    #[test]
    fn planned_range_runs_compose_for_any_split() {
        let (inst, model) = fig1a_setup();
        let config = SimulationConfig::default();
        let sim = PerturbedSimulator::new(&inst, &model, config, every_perturbation(0.4)).unwrap();
        let plan = sim.plan(150, 42);
        let whole = sim.run_range_planned(0..150, 42, &plan);
        assert_eq!(whole, sim.run_seeded(150, 42));
        for split in [1usize, 64, 77, 128, 149] {
            let mut left = sim.run_range_planned(0..split, 42, &plan);
            let right = sim.run_range_planned(split..150, 42, &plan);
            left.concat(&right).unwrap();
            assert_eq!(left, whole, "split at {split}");
        }
    }

    #[test]
    fn bursts_raise_congestion_frequency() {
        let (inst, model) = fig1a_setup();
        let config = SimulationConfig::default();
        let plain = Simulator::new(&inst, &model, config).unwrap();
        let bursty = PerturbedSimulator::new(
            &inst,
            &model,
            config,
            PerturbationConfig {
                gilbert_elliott: Some(GilbertElliottConfig {
                    link_fraction: 1.0,
                    p_enter: 0.2,
                    p_exit: 0.2,
                }),
                ..PerturbationConfig::none()
            },
        )
        .unwrap();
        let count = |obs: &PathObservations| -> usize {
            obs.snapshots()
                .map(|row| row.iter().filter(|&&c| c).count())
                .sum()
        };
        let base = count(&plain.run_seeded(2000, 5));
        let burst = count(&bursty.run_seeded(2000, 5));
        assert!(
            burst > base + base / 2,
            "bursts should add congestion: {burst} vs {base}"
        );
    }

    #[test]
    fn missing_rows_only_clear_cells_and_match_the_post_mask() {
        let (inst, model) = fig1a_setup();
        let config = SimulationConfig::default();
        let plain = Simulator::new(&inst, &model, config).unwrap();
        let missing = PerturbedSimulator::new(
            &inst,
            &model,
            config,
            PerturbationConfig {
                missing_rows: Some(MissingRowsConfig { drop_fraction: 0.5 }),
                ..PerturbationConfig::none()
            },
        )
        .unwrap();
        let full = plain.run_seeded(500, 9);
        let dropped = missing.run_seeded(500, 9);
        // Inline dropping during simulation equals masking after the fact.
        assert_eq!(dropped, mask_missing_rows(&full, 9, 0.5, 0));
        // Masking never sets a bit, and drops roughly half the set ones.
        let count = |obs: &PathObservations| -> usize {
            obs.snapshots()
                .map(|row| row.iter().filter(|&&c| c).count())
                .sum()
        };
        let (full_count, dropped_count) = (count(&full), count(&dropped));
        assert!(dropped_count < full_count);
        for (full_row, dropped_row) in full.snapshots().zip(dropped.snapshots()) {
            for (f, d) in full_row.iter().zip(dropped_row.iter()) {
                assert!(*f || !*d, "masking must never invent congestion");
            }
        }
        // Extreme fractions are exact.
        assert_eq!(mask_missing_rows(&full, 9, 0.0, 0), full);
        assert_eq!(count(&mask_missing_rows(&full, 9, 1.0, 0)), 0);
    }

    #[test]
    fn churn_changes_only_the_tail_of_the_trial() {
        let (inst, model) = fig1a_setup();
        let config = SimulationConfig {
            transmission: TransmissionModel::Exact,
            ..SimulationConfig::default()
        };
        let plain = Simulator::new(&inst, &model, config).unwrap();
        let churned = PerturbedSimulator::new(
            &inst,
            &model,
            config,
            PerturbationConfig {
                routing_churn: Some(RoutingChurnConfig {
                    path_fraction: 1.0,
                    at_fraction: 0.5,
                }),
                ..PerturbationConfig::none()
            },
        )
        .unwrap();
        let base = plain.run_seeded(400, 21);
        let flapped = churned.run_seeded(400, 21);
        // Before the churn point the traces agree bit-exactly (exact
        // transmission means the RNG streams cannot diverge either).
        for t in 0..200 {
            assert_eq!(base.snapshot(t), flapped.snapshot(t), "snapshot {t}");
        }
        // After the churn point they must differ somewhere.
        assert!(
            (200..400).any(|t| base.snapshot(t) != flapped.snapshot(t)),
            "full churn left the tail untouched"
        );
    }

    #[test]
    fn row_dropped_is_a_pure_counter_function() {
        // Same arguments, same answer; cells are independent of ordering.
        for snapshot in 0..50 {
            for path in 0..7 {
                assert_eq!(
                    row_dropped(77, snapshot, path, 0.3),
                    row_dropped(77, snapshot, path, 0.3)
                );
            }
        }
        assert!(!row_dropped(77, 3, 1, 0.0));
        assert!(row_dropped(77, 3, 1, 1.0));
        // The drop rate tracks the fraction.
        let hits = (0..10_000)
            .filter(|&i| row_dropped(123, i / 100, i % 100, 0.25))
            .count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.03, "{hits}");
    }
}
