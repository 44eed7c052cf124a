//! Reproduction of the paper's evaluation figures.
//!
//! Each submodule corresponds to one figure of Section 5:
//!
//! * [`fig3`] — performance under ideal conditions (all links identifiable,
//!   no unknown correlation patterns) on BRITE-style topologies, as the
//!   fraction of congested links and the correlation level vary.
//! * [`fig4`] — performance when a fraction of the congested links are
//!   *unidentifiable* (Assumption 4 broken), on BRITE-style and
//!   PlanetLab-style topologies.
//! * [`fig5`] — performance when a fraction of the congested links are
//!   *mislabeled* (an unknown correlation pattern, the worm scenario), on
//!   both topology families.
//!
//! Figures can be produced at two scales: [`Scale::Smoke`] (small
//! topologies, used by tests and the Criterion benchmarks) and
//! [`Scale::Paper`] (the paper's ~1500-path topologies, used by the
//! `fig3` / `fig4` / `fig5` / `all_experiments` binaries; README "Build,
//! test, bench" shows how to run them).

pub mod fig3;
pub mod fig4;
pub mod fig5;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use netcorr_topology::generators::{brite, planetlab};
use netcorr_topology::TopologyInstance;

use crate::error::EvalError;
use crate::metrics::{cdf_at, default_cdf_grid, ErrorSummary};
use crate::runner::ExperimentResult;

/// Which synthetic topology family an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyFamily {
    /// BRITE-style two-level (AS + router) topology.
    Brite,
    /// PlanetLab-style traceroute-derived topology.
    PlanetLab,
}

impl std::fmt::Display for TopologyFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyFamily::Brite => write!(f, "Brite"),
            TopologyFamily::PlanetLab => write!(f, "PlanetLab"),
        }
    }
}

/// Size of the generated topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Small topologies for tests and benchmarks.
    Smoke,
    /// Paper-scale topologies (~1500 measurement paths).
    Paper,
}

/// Generates the base topology instance for a figure.
pub fn base_instance(
    family: TopologyFamily,
    scale: Scale,
    seed: u64,
) -> Result<TopologyInstance, EvalError> {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        TopologyFamily::Brite => {
            let config = match scale {
                Scale::Smoke => brite::BriteConfig::small(),
                Scale::Paper => brite::BriteConfig::default(),
            };
            Ok(brite::generate(&config, &mut rng)?.instance)
        }
        TopologyFamily::PlanetLab => {
            let config = match scale {
                Scale::Smoke => planetlab::PlanetLabConfig::small(),
                Scale::Paper => planetlab::PlanetLabConfig::default(),
            };
            Ok(planetlab::generate(&config, &mut rng)?)
        }
    }
}

/// A pair of error CDFs (correlation algorithm vs. independence baseline),
/// the format of Figures 3(c)–(d), 4 and 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CdfComparison {
    /// Human-readable description of the setup (used as a table/CSV
    /// header).
    pub label: String,
    /// CDF of the correlation algorithm's absolute error:
    /// `(error threshold, % of potentially congested links)`.
    pub correlation: Vec<(f64, f64)>,
    /// CDF of the independence baseline's absolute error.
    pub independence: Vec<(f64, f64)>,
    /// Summary statistics of the correlation algorithm.
    pub correlation_summary: ErrorSummary,
    /// Summary statistics of the independence baseline.
    pub independence_summary: ErrorSummary,
}

impl CdfComparison {
    /// Builds a comparison from a pooled experiment result.
    pub fn from_result(label: impl Into<String>, result: &ExperimentResult) -> Self {
        let grid = default_cdf_grid();
        CdfComparison {
            label: label.into(),
            correlation: cdf_at(&result.correlation_errors, &grid),
            independence: cdf_at(&result.independence_errors, &grid),
            correlation_summary: result.correlation_summary(),
            independence_summary: result.independence_summary(),
        }
    }

    /// The fraction (in %) of links whose error is below `threshold` for
    /// `(correlation, independence)`.
    pub fn fraction_below(&self, threshold: f64) -> (f64, f64) {
        let lookup = |cdf: &[(f64, f64)]| -> f64 {
            cdf.iter()
                .filter(|(x, _)| *x <= threshold + 1e-12)
                .map(|&(_, y)| y)
                .next_back()
                .unwrap_or(0.0)
        };
        (lookup(&self.correlation), lookup(&self.independence))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_instances_are_generated_for_both_families() {
        let brite = base_instance(TopologyFamily::Brite, Scale::Smoke, 1).unwrap();
        assert!(brite.num_links() > 0);
        let planetlab = base_instance(TopologyFamily::PlanetLab, Scale::Smoke, 1).unwrap();
        assert!(planetlab.num_links() > 0);
        assert_eq!(TopologyFamily::Brite.to_string(), "Brite");
        assert_eq!(TopologyFamily::PlanetLab.to_string(), "PlanetLab");
    }

    #[test]
    fn cdf_comparison_reports_fractions() {
        let result = ExperimentResult {
            trials: Vec::new(),
            correlation_errors: vec![0.01, 0.02, 0.5],
            independence_errors: vec![0.2, 0.3, 0.6],
        };
        let comparison = CdfComparison::from_result("test", &result);
        let (corr, indep) = comparison.fraction_below(0.1);
        assert!((corr - 200.0 / 3.0).abs() < 1e-9);
        assert!(indep < 1e-9);
        assert_eq!(comparison.label, "test");
        assert!(comparison.correlation_summary.mean < comparison.independence_summary.mean);
    }
}
