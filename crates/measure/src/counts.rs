//! One counts interface over every estimator.
//!
//! Every probability the tomography algorithms read is an integer count
//! over the snapshots divided by the snapshot count `N`:
//!
//! * `P(Y_i = 0)` — snapshots in which path `P_i` was good (Eq. 9);
//! * `P(Y_i = 0, Y_j = 0)` — snapshots in which both paths were good
//!   (Eq. 10);
//! * `P(ψ(S) = ∅)` — snapshots in which every path was good;
//! * `P(ψ(S) = ψ(A))` — snapshots whose congested paths were exactly a
//!   given set (the theorem algorithm's measurements).
//!
//! [`PathCounts`] asks an estimator for those counts only. The batch
//! [`crate::ProbabilityEstimator`] answers each one with a sweep over the
//! packed lanes, the [`crate::StreamingEstimator`] from the accumulators
//! it updates per pushed snapshot. Everything built on the counts — the
//! relative frequencies, and the clamped logarithms that form the
//! right-hand side of the log-linear equations — is a provided method
//! written once here. Two estimators holding the same snapshots therefore
//! return the same bits, and `netcorr_core` assembles right-hand sides and
//! theorem measurements from either through the same code.

use std::collections::BTreeSet;

use netcorr_topology::path::PathId;

use crate::error::MeasureError;

/// Integer counts over the snapshots of one observation record, plus every
/// probability derived from them.
pub trait PathCounts {
    /// Number of paths per snapshot.
    fn num_paths(&self) -> usize;

    /// Number of snapshots behind every count.
    fn num_snapshots(&self) -> usize;

    /// Number of snapshots in which `path` was congested.
    fn congested_count(&self, path: PathId) -> Result<usize, MeasureError>;

    /// Number of snapshots in which both paths of a pair were good, one
    /// count per pair, in input order.
    fn pair_good_counts(&self, pairs: &[(PathId, PathId)]) -> Result<Vec<usize>, MeasureError>;

    /// Number of snapshots in which every path was good (`ψ(S) = ∅`).
    fn all_paths_good_count(&self) -> usize;

    /// Number of snapshots in which the congested paths were *exactly*
    /// `pattern`.
    fn pattern_count(&self, pattern: &BTreeSet<PathId>) -> Result<usize, MeasureError>;

    /// The probability floor used when clamping zero frequencies before
    /// taking logarithms: `1 / (2 N)`, the usual "half a count"
    /// correction for unobserved events.
    fn probability_floor(&self) -> f64 {
        1.0 / (2.0 * self.num_snapshots() as f64)
    }

    /// Empirical `P(Y_i = 1)`.
    fn prob_path_congested(&self, path: PathId) -> Result<f64, MeasureError> {
        let n = divisor(self)?;
        Ok(self.congested_count(path)? as f64 / n)
    }

    /// Empirical `P(Y_i = 0)`.
    fn prob_path_good(&self, path: PathId) -> Result<f64, MeasureError> {
        Ok(1.0 - self.prob_path_congested(path)?)
    }

    /// `log P(Y_i = 0)`, clamped below by the probability floor so the
    /// result is always finite: the right-hand side of a single-path
    /// equation. The good count is formed as an integer (`N − congested`)
    /// before dividing (`1.0 − c/N` can differ in the last ULP).
    fn log_prob_path_good(&self, path: PathId) -> Result<f64, MeasureError> {
        let n = divisor(self)?;
        let good = self.num_snapshots() - self.congested_count(path)?;
        Ok((good as f64 / n).max(self.probability_floor()).ln())
    }

    /// Empirical `P(Y_i = 0, Y_j = 0)`, one per pair.
    fn prob_pairs_good(&self, pairs: &[(PathId, PathId)]) -> Result<Vec<f64>, MeasureError> {
        let n = divisor(self)?;
        Ok(self
            .pair_good_counts(pairs)?
            .into_iter()
            .map(|count| count as f64 / n)
            .collect())
    }

    /// Clamped `log P(Y_i = 0, Y_j = 0)`, one per pair: the right-hand
    /// sides of the path-pair equations.
    fn log_prob_pairs_good(&self, pairs: &[(PathId, PathId)]) -> Result<Vec<f64>, MeasureError> {
        let n = divisor(self)?;
        let floor = self.probability_floor();
        Ok(self
            .pair_good_counts(pairs)?
            .into_iter()
            .map(|count| (count as f64 / n).max(floor).ln())
            .collect())
    }

    /// Empirical `P(ψ(S) = ∅)`: the fraction of snapshots in which every
    /// path was good.
    fn prob_all_paths_good(&self) -> Result<f64, MeasureError> {
        let n = divisor(self)?;
        Ok(self.all_paths_good_count() as f64 / n)
    }

    /// Empirical `P(ψ(S) = ψ(A))`: the fraction of snapshots in which the
    /// congested paths were exactly `pattern`.
    fn prob_exactly_congested(&self, pattern: &BTreeSet<PathId>) -> Result<f64, MeasureError> {
        let n = divisor(self)?;
        Ok(self.pattern_count(pattern)? as f64 / n)
    }

    /// [`PathCounts::prob_exactly_congested`] for every pattern, in input
    /// order.
    fn prob_exactly_congested_batch(
        &self,
        patterns: &[BTreeSet<PathId>],
    ) -> Result<Vec<f64>, MeasureError> {
        patterns
            .iter()
            .map(|pattern| self.prob_exactly_congested(pattern))
            .collect()
    }
}

/// The snapshot count as the divisor of every probability, or
/// [`MeasureError::NoSnapshots`]. Checked before any path, so an empty
/// record reports the missing snapshots first.
pub(crate) fn divisor<C: PathCounts + ?Sized>(counts: &C) -> Result<f64, MeasureError> {
    match counts.num_snapshots() {
        0 => Err(MeasureError::NoSnapshots),
        n => Ok(n as f64),
    }
}

/// [`MeasureError::UnknownPath`] unless `path` is one of `num_paths`.
pub(crate) fn check_path(path: PathId, num_paths: usize) -> Result<(), MeasureError> {
    if path.index() >= num_paths {
        return Err(MeasureError::UnknownPath {
            index: path.index(),
            num_paths,
        });
    }
    Ok(())
}
