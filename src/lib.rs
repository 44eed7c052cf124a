//! # netcorr — Network Tomography on Correlated Links
//!
//! A full reproduction of *"Network Tomography on Correlated Links"*
//! (Ghita, Argyraki, Thiran — IMC 2010) as a reusable Rust library.
//!
//! Network performance tomography infers the characteristics of individual
//! network links from end-to-end path measurements. Classical Boolean
//! tomography assumes that links fail (become congested) independently of
//! one another; the paper — and this crate — lifts that assumption: links
//! may be **correlated** within known *correlation sets* (for example, all
//! links of one local-area network or one administrative domain), and the
//! per-link congestion probabilities remain identifiable from end-to-end
//! measurements as long as no two *correlation subsets* cover exactly the
//! same set of paths (the paper's Assumption 4).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`topology`] — network graph, paths, correlation sets, identifiability
//!   analysis, merging transformation, and topology generators (toy,
//!   BRITE-like two-level, PlanetLab-like traceroute-style).
//! * [`linalg`] — the dense linear-algebra substrate (QR least squares,
//!   simplex LP, minimum-L1-norm solutions).
//! * [`sim`] — the congestion simulator: correlated link-state sampling,
//!   packet-loss model, per-snapshot packet-level path measurements.
//! * [`measure`] — empirical estimators of path-level probabilities from
//!   snapshot observations.
//! * [`core`] — the tomography algorithms: the paper's *correlation
//!   algorithm*, the *independence algorithm* baseline, and the exact
//!   *theorem algorithm* from the identifiability proof.
//! * [`eval`] — scenario generators, error metrics and the experiment
//!   harness that regenerates every figure of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use netcorr::prelude::*;
//! use rand::SeedableRng;
//!
//! // The toy topology of Figure 1(a): 4 links, 3 paths, links e1 and e2
//! // belong to the same correlation set.
//! let instance = netcorr::topology::toy::figure_1a();
//!
//! // Ground-truth congestion behaviour: e1 and e2 are congested together
//! // 20% of the time; e3 and e4 are independently congested 10% of the time.
//! let model = CongestionModelBuilder::new(&instance.correlation)
//!     .joint_group(&[LinkId(0), LinkId(1)], 0.2)
//!     .independent(LinkId(2), 0.1)
//!     .independent(LinkId(3), 0.1)
//!     .build()
//!     .unwrap();
//!
//! // Simulate 4000 snapshots of end-to-end measurements.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let simulator = Simulator::new(&instance, &model, SimulationConfig::default()).unwrap();
//! let observations = simulator.run(4000, &mut rng);
//!
//! // Run the correlation-aware tomography algorithm.
//! let estimate = CorrelationAlgorithm::new(&instance)
//!     .infer(&observations)
//!     .unwrap();
//!
//! // The inferred congestion probability of e1 is close to the truth (0.2).
//! let p = estimate.congestion_probability(LinkId(0));
//! assert!((p - 0.2).abs() < 0.05, "estimated {p}");
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios (LAN monitoring,
//! inter-domain SLA monitoring, unknown correlation patterns). The
//! `netcorr-eval` binaries `fig3`, `fig4`, `fig5` and `all_experiments`
//! reproduce the paper's evaluation; README "Build, test, bench" shows how
//! to run them.

pub use netcorr_core as core;
pub use netcorr_eval as eval;
pub use netcorr_linalg as linalg;
pub use netcorr_measure as measure;
pub use netcorr_sim as sim;
pub use netcorr_topology as topology;

/// Convenience prelude bringing the most frequently used types into scope.
pub mod prelude {
    pub use netcorr_core::{
        CorrelationAlgorithm, IndependenceAlgorithm, TheoremAlgorithm, TomographyEstimate,
    };
    pub use netcorr_eval::{
        metrics::{absolute_errors, ErrorSummary},
        scenario::{CongestionScenario, CorrelationLevel, ScenarioBuilder},
    };
    pub use netcorr_measure::{PathCounts, PathObservations, ProbabilityEstimator};
    pub use netcorr_sim::{CongestionModel, CongestionModelBuilder, SimulationConfig, Simulator};
    pub use netcorr_topology::{
        correlation::CorrelationPartition,
        graph::{LinkId, NodeId, Topology},
        path::{Path, PathId, PathSet},
        TopologyInstance,
    };
}
