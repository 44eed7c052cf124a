//! Simulation configuration: thresholds, packet counts and transmission
//! models.

use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// How packet transmission along a path is simulated in each snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransmissionModel {
    /// Every packet is walked across every link of the path and dropped
    /// independently with the link's loss rate — the literal procedure of
    /// the paper's simulator. Accurate but slow; intended for small
    /// topologies and validation tests.
    PerPacket,
    /// Packet fates are independent, so the number of lost packets is
    /// Binomial(`n`, `1 − delivery`), and the path is congested exactly
    /// when that count reaches the cutoff of its threshold. The
    /// good/congested bit is drawn directly, with the exact binomial tail
    /// probability of reaching the cutoff, and no packet count is
    /// materialised: one uniform per path, decided by a shared table of
    /// tail brackets or, when it lands too close to call, by summing pmf
    /// terms (see [`crate::loss`]). Statistically identical to
    /// [`TransmissionModel::PerPacket`] but orders of magnitude faster.
    /// This is the default.
    Binomial,
    /// No packet sampling at all: the measured path loss rate equals the
    /// exact end-to-end loss probability (the limit of infinitely many
    /// probe packets). Useful to isolate inference error from measurement
    /// noise.
    Exact,
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// The link congestion threshold `t_l`; a link is congested in a
    /// snapshot when its packet-loss rate exceeds this value. The paper
    /// uses 0.01.
    pub link_congestion_threshold: f64,
    /// Number of probe packets sent along each path in each snapshot.
    pub packets_per_path: usize,
    /// How packet transmission is simulated.
    pub transmission: TransmissionModel,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            link_congestion_threshold: 0.01,
            packets_per_path: 1000,
            transmission: TransmissionModel::Binomial,
        }
    }
}

impl SimulationConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(0.0..1.0).contains(&self.link_congestion_threshold)
            || self.link_congestion_threshold <= 0.0
        {
            return Err(SimError::InvalidConfig(format!(
                "link_congestion_threshold ({}) must be in (0, 1)",
                self.link_congestion_threshold
            )));
        }
        if self.packets_per_path == 0 && self.transmission != TransmissionModel::Exact {
            return Err(SimError::InvalidConfig(
                "packets_per_path must be at least 1 for packet-based transmission models"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// The path congestion threshold `t_p = 1 − (1 − t_l)^d` for a path of
    /// `d` links (Section 2.1).
    pub fn path_congestion_threshold(&self, path_length: usize) -> f64 {
        1.0 - (1.0 - self.link_congestion_threshold).powi(path_length as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_paper() {
        let c = SimulationConfig::default();
        assert_eq!(c.link_congestion_threshold, 0.01);
        assert_eq!(c.packets_per_path, 1000);
        assert_eq!(c.transmission, TransmissionModel::Binomial);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn path_threshold_grows_with_length() {
        let c = SimulationConfig::default();
        // d = 1: t_p = t_l.
        assert!((c.path_congestion_threshold(1) - 0.01).abs() < 1e-12);
        // d = 2: 1 - 0.99^2 = 0.0199.
        assert!((c.path_congestion_threshold(2) - 0.0199).abs() < 1e-12);
        // Monotone in d.
        assert!(c.path_congestion_threshold(10) > c.path_congestion_threshold(5));
        // d = 0 (degenerate): threshold 0.
        assert_eq!(c.path_congestion_threshold(0), 0.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = SimulationConfig {
            link_congestion_threshold: 0.0,
            ..SimulationConfig::default()
        };
        assert!(c.validate().is_err());
        c.link_congestion_threshold = 1.0;
        assert!(c.validate().is_err());
        let mut c = SimulationConfig {
            packets_per_path: 0,
            ..SimulationConfig::default()
        };
        assert!(c.validate().is_err());
        c.transmission = TransmissionModel::Exact;
        assert!(c.validate().is_ok(), "exact mode needs no packets");
    }
}
