//! # netcorr-sim — the congestion simulator
//!
//! Implements the simulator described in Section 5 of the paper
//! ("Evaluation → Simulator"):
//!
//! 1. At the beginning of an experiment, a [`CongestionModel`] fixes which
//!    links belong to each correlation set, the congestion probability of
//!    each link and the joint congestion probabilities of correlated
//!    links.
//! 2. In every round (snapshot) the model draws the congestion status of
//!    every link, respecting the individual and joint probabilities.
//! 3. Every link is assigned a packet-loss rate according to the loss model
//!    of Padmanabhan et al. \[13\]: good links lose between 0 and `t_l` of
//!    their packets, congested links between `t_l` and 1
//!    (`t_l = 0.01`).
//! 4. A configurable number of packets is sent along every path; each
//!    packet survives each link independently with probability
//!    `1 − loss rate`.
//! 5. A path is declared congested when its measured loss rate exceeds the
//!    path threshold `t_p = 1 − (1 − t_l)^d`, where `d` is the path length.
//!
//! The output of a simulation is a [`netcorr_measure::PathObservations`]
//! container — exactly what a real measurement deployment would produce,
//! and exactly what the inference algorithms consume.
//!
//! Two families of congestion models are supported:
//!
//! * [`CongestionModelBuilder`] builds *explicit* models where each
//!   correlation set carries an explicit joint distribution over which of
//!   its links are congested (independent links, all-or-nothing groups, or
//!   arbitrary distributions). These models also expose exact marginal and
//!   joint probabilities, which serve as ground truth in the evaluation.
//! * [`SubstrateModel`] models the BRITE scenario: congestion lives on
//!   hidden router-level links with independent probabilities, and a
//!   logical (AS-level) link is congested iff any of the router-level links
//!   it maps to is congested — correlation then emerges from sharing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod congestion;
pub mod engine;
pub mod error;
pub mod loss;
pub mod perturb;

pub use config::{SimulationConfig, TransmissionModel};
pub use congestion::{CongestionModel, CongestionModelBuilder, ExplicitModel, SubstrateModel};
pub use engine::{snapshot_seed, Simulator};
pub use error::SimError;
pub use perturb::{
    mask_missing_rows, GilbertElliottConfig, LossDriftConfig, MissingRowsConfig,
    PerturbationConfig, PerturbationPlan, PerturbedSimulator, RoutingChurnConfig,
};
