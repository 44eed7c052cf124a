//! Error type for the measurement layer.

use std::fmt;

/// Errors produced when recording or querying path observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureError {
    /// A snapshot was recorded with the wrong number of path entries.
    WrongSnapshotWidth {
        /// Number of paths the observation container was created for.
        expected: usize,
        /// Number of entries in the offending snapshot.
        actual: usize,
    },
    /// An estimator was asked for a probability but no snapshots have been
    /// recorded yet.
    NoSnapshots,
    /// A path index was out of range.
    UnknownPath {
        /// The offending path index.
        index: usize,
        /// Number of paths in the observation container.
        num_paths: usize,
    },
    /// Serialized observations could not be parsed.
    Wire(String),
    /// A streaming estimator was queried for a pair or pattern that was
    /// never registered (streaming queries only cover registered
    /// accumulators; use the batch estimator for ad-hoc queries).
    Unregistered(String),
    /// A mapped history segment was attached or used incorrectly (e.g.
    /// attached twice, attached after snapshots were already recorded,
    /// or a delta-only operation was requested while one is attached).
    History(String),
    /// A counters-only streaming estimator was asked for something only
    /// snapshot lanes can answer: registering a pair or pattern after
    /// snapshots were pushed, or batch estimation.
    NoLanes(String),
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::WrongSnapshotWidth { expected, actual } => write!(
                f,
                "snapshot has {actual} path entries, observation container expects {expected}"
            ),
            MeasureError::NoSnapshots => write!(f, "no snapshots have been recorded"),
            MeasureError::UnknownPath { index, num_paths } => {
                write!(
                    f,
                    "path index {index} out of range (have {num_paths} paths)"
                )
            }
            MeasureError::Wire(reason) => {
                write!(f, "malformed observation wire data: {reason}")
            }
            MeasureError::Unregistered(what) => {
                write!(f, "streaming query for unregistered {what}")
            }
            MeasureError::History(reason) => {
                write!(f, "history segment misuse: {reason}")
            }
            MeasureError::NoLanes(reason) => {
                write!(f, "counters-only estimator keeps no snapshots: {reason}")
            }
        }
    }
}

impl std::error::Error for MeasureError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MeasureError::WrongSnapshotWidth {
            expected: 3,
            actual: 5,
        };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('5'));
        assert!(MeasureError::NoSnapshots.to_string().contains("snapshots"));
        assert!(MeasureError::UnknownPath {
            index: 9,
            num_paths: 4
        }
        .to_string()
        .contains('9'));
    }
}
