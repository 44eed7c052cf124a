//! Per-snapshot path observations, stored bit-packed.

use serde::{Deserialize, Serialize};

use netcorr_topology::path::PathId;

use crate::bitset::{BitLanes, WORD_BITS};
use crate::error::MeasureError;

/// Version tag of the [`PathObservations`] textual (debug) wire format.
pub const WIRE_FORMAT: &str = "netcorr-path-observations v2";

/// Magic bytes opening the binary wire format
/// (`netcorr-path-observations v3`).
pub const BINARY_MAGIC: &[u8; 8] = b"NCOBSv3\n";

/// The outcome of an experiment: for every snapshot, the congestion status
/// (`true` = congested) of every measurement path.
///
/// Observations are stored **bit-packed, path-major** ([`BitLanes`]): one
/// packed bit-vector per path, one bit per snapshot. Every estimator query
/// reduces to AND/OR/popcount sweeps over `u64` lane words, 64 snapshots
/// at a time (see [`crate::ProbabilityEstimator`]), and the in-memory
/// layout is exactly the v3 binary payload, so loading and merging are
/// word copies.
///
/// That costs 1 bit per path×snapshot cell — a 1500-path experiment with
/// 4096 snapshots occupies 750 KiB, 8× less than a one-`bool`-per-cell
/// layout. Per-snapshot accessors ([`PathObservations::snapshot`],
/// [`PathObservations::congested_paths`]) read one bit from every lane.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathObservations {
    /// Lane `p` holds path `p`'s bits.
    lanes: BitLanes,
}

impl PathObservations {
    /// Creates an empty observation container for `num_paths` paths.
    pub fn new(num_paths: usize) -> Self {
        Self::from_lanes(BitLanes::new(num_paths))
    }

    /// Creates an empty container with capacity pre-allocated for
    /// `snapshots` snapshots.
    pub fn with_capacity(num_paths: usize, snapshots: usize) -> Self {
        Self::from_lanes(BitLanes::with_capacity(num_paths, snapshots))
    }

    /// Wraps packed lanes: lane `p` becomes path `p`.
    pub(crate) fn from_lanes(lanes: BitLanes) -> Self {
        PathObservations { lanes }
    }

    /// Number of paths per snapshot.
    pub fn num_paths(&self) -> usize {
        self.lanes.num_lanes()
    }

    /// Number of snapshots recorded so far.
    pub fn num_snapshots(&self) -> usize {
        self.lanes.num_slots()
    }

    /// Returns `true` if no snapshots have been recorded.
    pub fn is_empty(&self) -> bool {
        self.num_snapshots() == 0
    }

    /// Records one snapshot: `congested[i]` is the status of path `i`.
    pub fn record_snapshot(&mut self, congested: &[bool]) -> Result<(), MeasureError> {
        if congested.len() != self.num_paths() {
            return Err(MeasureError::WrongSnapshotWidth {
                expected: self.num_paths(),
                actual: congested.len(),
            });
        }
        self.lanes.push_slot(congested);
        Ok(())
    }

    /// The observations of snapshot `snapshot`, unpacked (one entry per
    /// path).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot index is out of range.
    pub fn snapshot(&self, snapshot: usize) -> Vec<bool> {
        assert!(
            snapshot < self.num_snapshots(),
            "snapshot {snapshot} out of range ({} recorded)",
            self.num_snapshots()
        );
        (0..self.num_paths())
            .map(|p| self.lanes.get(p, snapshot))
            .collect()
    }

    /// Whether `path` was congested during `snapshot`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn is_congested(&self, snapshot: usize, path: PathId) -> bool {
        self.lanes.get(path.index(), snapshot)
    }

    /// The set of congested paths during `snapshot`, in increasing path
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot index is out of range.
    pub fn congested_paths(&self, snapshot: usize) -> Vec<PathId> {
        let row = self.snapshot(snapshot);
        (0..row.len()).filter(|&p| row[p]).map(PathId).collect()
    }

    /// Fraction of snapshots during which `path` was congested (its
    /// empirical `P(Y = 1)`).
    pub fn congestion_frequency(&self, path: PathId) -> Result<f64, MeasureError> {
        if self.is_empty() {
            return Err(MeasureError::NoSnapshots);
        }
        if path.index() >= self.num_paths() {
            return Err(MeasureError::UnknownPath {
                index: path.index(),
                num_paths: self.num_paths(),
            });
        }
        let congested = self.lanes.count_ones(path.index());
        Ok(congested as f64 / self.num_snapshots() as f64)
    }

    /// Iterates over snapshots as unpacked Boolean vectors.
    pub fn snapshots(&self) -> impl Iterator<Item = Vec<bool>> + '_ {
        (0..self.num_snapshots()).map(|s| self.snapshot(s))
    }

    /// Paths that were congested during at least one snapshot — the
    /// "potentially congested" notion is defined over *links*, but this
    /// per-path view is what it is derived from.
    pub fn ever_congested_paths(&self) -> Vec<PathId> {
        (0..self.num_paths())
            .filter(|&p| self.lanes.lane(p).iter().any(|&w| w != 0))
            .map(PathId)
            .collect()
    }

    /// Appends every snapshot of `other` after this container's
    /// snapshots — the shard-merge operation, a word-level copy (or
    /// word-shifted merge, off a word boundary) per lane
    /// ([`BitLanes::concat`]).
    pub fn concat(&mut self, other: &PathObservations) -> Result<(), MeasureError> {
        if other.num_paths() != self.num_paths() {
            return Err(MeasureError::WrongSnapshotWidth {
                expected: self.num_paths(),
                actual: other.num_paths(),
            });
        }
        self.lanes.concat(&other.lanes);
        Ok(())
    }

    /// The path-major packed lanes (one `u64` slice per path; bits beyond
    /// the recorded snapshots are zero).
    pub fn lanes(&self) -> &BitLanes {
        &self.lanes
    }

    /// Serializes the observations into the versioned, line-oriented wire
    /// format (see [`WIRE_FORMAT`]):
    ///
    /// ```text
    /// netcorr-path-observations v2
    /// paths <num_paths>
    /// snapshots <num_snapshots>
    /// lane <hex words of path 0, least-significant word first>
    /// lane <hex words of path 1>
    /// ...
    /// ```
    ///
    /// Each lane line carries `ceil(snapshots / 64)` words of 16 lowercase
    /// hex digits each (no separator); an empty container emits `lane -`
    /// placeholders so the format stays line-parseable.
    pub fn to_wire(&self) -> String {
        let used = self.num_snapshots().div_ceil(64);
        let mut out = String::with_capacity(64 + self.num_paths() * (6 + 16 * used));
        out.push_str(WIRE_FORMAT);
        out.push('\n');
        out.push_str(&format!("paths {}\n", self.num_paths()));
        out.push_str(&format!("snapshots {}\n", self.num_snapshots()));
        for path in 0..self.num_paths() {
            out.push_str("lane ");
            if used == 0 {
                out.push('-');
            } else {
                for &word in &self.lanes.lane(path)[..used] {
                    out.push_str(&format!("{word:016x}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parses the wire format produced by [`PathObservations::to_wire`].
    pub fn from_wire(text: &str) -> Result<Self, MeasureError> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if header != WIRE_FORMAT {
            return Err(MeasureError::Wire(format!(
                "unsupported header {header:?} (expected {WIRE_FORMAT:?})"
            )));
        }
        let field = |line: Option<&str>, key: &str| -> Result<usize, MeasureError> {
            let line = line.ok_or_else(|| MeasureError::Wire(format!("missing `{key}` line")))?;
            let value = line
                .strip_prefix(key)
                .and_then(|v| v.strip_prefix(' '))
                .ok_or_else(|| MeasureError::Wire(format!("expected `{key} <n>`, got {line:?}")))?;
            value
                .parse()
                .map_err(|_| MeasureError::Wire(format!("invalid `{key}` value {value:?}")))
        };
        let num_paths = field(lines.next(), "paths")?;
        let num_snapshots = field(lines.next(), "snapshots")?;
        let used = num_snapshots.div_ceil(64);

        let mut all_lanes: Vec<Vec<u64>> = Vec::with_capacity(num_paths);
        for path in 0..num_paths {
            let line = lines
                .next()
                .ok_or_else(|| MeasureError::Wire(format!("missing lane line for path {path}")))?;
            let hex = line.strip_prefix("lane ").ok_or_else(|| {
                MeasureError::Wire(format!("expected `lane <hex>`, got {line:?}"))
            })?;
            let mut words = Vec::with_capacity(used);
            if hex != "-" {
                if hex.len() != 16 * used {
                    return Err(MeasureError::Wire(format!(
                        "lane {path} has {} hex digits, expected {}",
                        hex.len(),
                        16 * used
                    )));
                }
                for chunk in 0..used {
                    let digits = &hex[chunk * 16..(chunk + 1) * 16];
                    let word = u64::from_str_radix(digits, 16).map_err(|_| {
                        MeasureError::Wire(format!("invalid hex word {digits:?} in lane {path}"))
                    })?;
                    words.push(word);
                }
            } else if used != 0 {
                return Err(MeasureError::Wire(format!(
                    "lane {path} is empty but {num_snapshots} snapshots are declared"
                )));
            }
            if let Some(&last) = words.last() {
                if last & !crate::bitset::tail_mask(num_snapshots) != 0 {
                    return Err(MeasureError::Wire(format!(
                        "lane {path} has bits set beyond snapshot {num_snapshots}"
                    )));
                }
            }
            all_lanes.push(words);
        }
        if let Some(extra) = lines.find(|l| !l.trim().is_empty()) {
            return Err(MeasureError::Wire(format!(
                "unexpected trailing line {extra:?}"
            )));
        }

        let words: Vec<u64> = all_lanes.into_iter().flatten().collect();
        Self::from_lane_word_data(num_paths, num_snapshots, &words)
    }

    /// Builds a container from lane words (`num_paths` consecutive groups
    /// of `⌈num_snapshots/64⌉` words), validated and copied word by word.
    fn from_lane_word_data(
        num_paths: usize,
        num_snapshots: usize,
        words: &[u64],
    ) -> Result<Self, MeasureError> {
        if num_snapshots == 0 {
            if !words.is_empty() {
                return Err(MeasureError::Wire(format!(
                    "{} lane words for an empty container",
                    words.len()
                )));
            }
            return Ok(PathObservations::new(num_paths));
        }
        let lanes = BitLanes::try_from_lane_words(num_paths, num_snapshots, words)?;
        Ok(Self::from_lanes(lanes))
    }

    /// Serializes the observations into the binary wire format
    /// (`netcorr-path-observations v3`): a fixed 24-byte header —
    /// [`BINARY_MAGIC`], then `num_paths` and `num_snapshots` as
    /// little-endian `u64` — followed by the raw lane words
    /// (`⌈num_snapshots/64⌉` little-endian `u64`s per path, path-major).
    ///
    /// The payload is exactly the in-memory lane layout, so loading needs
    /// no per-bit parsing (and the format is mmap-friendly: the word
    /// region can be mapped and handed to
    /// [`BitLanes::from_lane_words`] directly). The textual
    /// [`PathObservations::to_wire`] format stays as the debuggable
    /// variant.
    pub fn to_binary(&self) -> Vec<u8> {
        let used = self.num_snapshots().div_ceil(WORD_BITS);
        let mut out = binary_header(self.num_paths(), self.num_snapshots());
        for path in 0..self.num_paths() {
            for &word in &self.lanes.lane(path)[..used] {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
        out
    }

    /// Parses the binary wire format produced by
    /// [`PathObservations::to_binary`]: the payload is decoded word by word
    /// straight into the packed lanes, with no per-bit work.
    pub fn from_binary(bytes: &[u8]) -> Result<Self, MeasureError> {
        let (num_paths, num_snapshots) = parse_binary_header(bytes)?;
        let words: Vec<u64> = bytes[BINARY_HEADER_LEN..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Self::from_lane_word_data(num_paths, num_snapshots, &words)
    }
}

/// Length of the fixed v3 header: [`BINARY_MAGIC`] plus two little-endian
/// `u64` counts.
pub const BINARY_HEADER_LEN: usize = 24;

/// A v3 header for `num_paths × num_snapshots`, in a buffer with room for
/// the lane words that follow it.
pub(crate) fn binary_header(num_paths: usize, num_snapshots: usize) -> Vec<u8> {
    let used = num_snapshots.div_ceil(WORD_BITS);
    let mut out = Vec::with_capacity(BINARY_HEADER_LEN + num_paths * used * 8);
    out.extend_from_slice(BINARY_MAGIC);
    out.extend_from_slice(&(num_paths as u64).to_le_bytes());
    out.extend_from_slice(&(num_snapshots as u64).to_le_bytes());
    out
}

/// Validates a v3 binary observation block's header — magic, counts, and
/// the exact total length implied by them — and returns
/// `(num_paths, num_snapshots)`. The lane-word region is the remaining
/// `bytes[BINARY_HEADER_LEN..]`, untouched (zero-tail validation happens
/// when the words are turned into lanes or a lane view).
pub fn parse_binary_header(bytes: &[u8]) -> Result<(usize, usize), MeasureError> {
    if bytes.len() < BINARY_HEADER_LEN {
        return Err(MeasureError::Wire(format!(
            "binary observations need a {BINARY_HEADER_LEN}-byte header, got {} bytes",
            bytes.len()
        )));
    }
    if &bytes[..8] != BINARY_MAGIC {
        return Err(MeasureError::Wire(format!(
            "bad magic {:?} (expected {BINARY_MAGIC:?})",
            &bytes[..8]
        )));
    }
    let read_u64 =
        |offset: usize| u64::from_le_bytes(bytes[offset..offset + 8].try_into().unwrap());
    let num_paths = usize::try_from(read_u64(8))
        .map_err(|_| MeasureError::Wire("path count overflows usize".to_string()))?;
    let num_snapshots = usize::try_from(read_u64(16))
        .map_err(|_| MeasureError::Wire("snapshot count overflows usize".to_string()))?;
    let used = num_snapshots.div_ceil(WORD_BITS);
    let expected = BINARY_HEADER_LEN
        + num_paths
            .checked_mul(used)
            .and_then(|w| w.checked_mul(8))
            .ok_or_else(|| MeasureError::Wire("lane region size overflows".to_string()))?;
    if bytes.len() != expected {
        return Err(MeasureError::Wire(format!(
            "expected {expected} bytes for {num_paths} paths x {num_snapshots} snapshots, \
             got {}",
            bytes.len()
        )));
    }
    Ok((num_paths, num_snapshots))
}

impl PartialEq for PathObservations {
    /// Logical equality: same paths, same snapshots, same bits (capacity
    /// is ignored).
    fn eq(&self, other: &Self) -> bool {
        self.lanes == other.lanes
    }
}

impl Eq for PathObservations {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_observations() -> PathObservations {
        let mut obs = PathObservations::new(3);
        obs.record_snapshot(&[false, false, false]).unwrap();
        obs.record_snapshot(&[true, false, false]).unwrap();
        obs.record_snapshot(&[true, true, false]).unwrap();
        obs.record_snapshot(&[false, false, false]).unwrap();
        obs
    }

    #[test]
    fn recording_and_counting_snapshots() {
        let obs = sample_observations();
        assert_eq!(obs.num_paths(), 3);
        assert_eq!(obs.num_snapshots(), 4);
        assert!(!obs.is_empty());
        assert_eq!(obs.snapshot(2), vec![true, true, false]);
    }

    #[test]
    fn rejects_snapshots_of_the_wrong_width() {
        let mut obs = PathObservations::new(3);
        let err = obs.record_snapshot(&[true, false]).unwrap_err();
        assert_eq!(
            err,
            MeasureError::WrongSnapshotWidth {
                expected: 3,
                actual: 2
            }
        );
    }

    #[test]
    fn per_path_queries() {
        let obs = sample_observations();
        assert!(obs.is_congested(1, PathId(0)));
        assert!(!obs.is_congested(1, PathId(1)));
        assert_eq!(obs.congested_paths(2), vec![PathId(0), PathId(1)]);
        assert_eq!(obs.congested_paths(0), Vec::<PathId>::new());
        assert_eq!(obs.congestion_frequency(PathId(0)).unwrap(), 0.5);
        assert_eq!(obs.congestion_frequency(PathId(2)).unwrap(), 0.0);
    }

    #[test]
    fn frequency_errors() {
        let empty = PathObservations::new(2);
        assert_eq!(
            empty.congestion_frequency(PathId(0)),
            Err(MeasureError::NoSnapshots)
        );
        let obs = sample_observations();
        assert_eq!(
            obs.congestion_frequency(PathId(7)),
            Err(MeasureError::UnknownPath {
                index: 7,
                num_paths: 3
            })
        );
    }

    #[test]
    fn ever_congested_paths_are_reported() {
        let obs = sample_observations();
        assert_eq!(obs.ever_congested_paths(), vec![PathId(0), PathId(1)]);
    }

    #[test]
    fn snapshots_iterator_matches_accessor() {
        let obs = sample_observations();
        let collected: Vec<Vec<bool>> = obs.snapshots().collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[1], obs.snapshot(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn snapshot_accessor_panics_out_of_range() {
        let obs = sample_observations();
        let _ = obs.snapshot(10);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut obs = PathObservations::with_capacity(2, 100);
        assert_eq!(obs.num_snapshots(), 0);
        obs.record_snapshot(&[true, false]).unwrap();
        assert_eq!(obs.num_snapshots(), 1);
    }

    #[test]
    fn packed_views_agree() {
        // The per-snapshot accessors are transposed reads of the lanes.
        let obs = sample_observations();
        for s in 0..obs.num_snapshots() {
            let row = obs.snapshot(s);
            for p in 0..obs.num_paths() {
                assert_eq!(obs.lanes().get(p, s), row[p]);
                assert_eq!(obs.is_congested(s, PathId(p)), row[p]);
            }
        }
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = PathObservations::new(2);
        let mut b = PathObservations::with_capacity(2, 4096);
        for i in 0..100 {
            let row = [i % 2 == 0, i % 3 == 0];
            a.record_snapshot(&row).unwrap();
            b.record_snapshot(&row).unwrap();
        }
        assert_eq!(a, b);
        b.record_snapshot(&[true, true]).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn concat_matches_sequential_recording() {
        let bit = |s: usize, p: usize| (s * 3 + p * 7).is_multiple_of(4);
        // Split points: word-aligned (128) and unaligned (65).
        for split in [128usize, 65] {
            let mut left = PathObservations::new(2);
            let mut right = PathObservations::new(2);
            let mut whole = PathObservations::new(2);
            for s in 0..200 {
                let row = [bit(s, 0), bit(s, 1)];
                whole.record_snapshot(&row).unwrap();
                if s < split {
                    left.record_snapshot(&row).unwrap();
                } else {
                    right.record_snapshot(&row).unwrap();
                }
            }
            left.concat(&right).unwrap();
            assert_eq!(left, whole);
        }
        // Width mismatch is rejected.
        let mut a = PathObservations::new(2);
        assert!(a.concat(&PathObservations::new(3)).is_err());
    }

    #[test]
    fn wire_round_trip() {
        let obs = sample_observations();
        let wire = obs.to_wire();
        let back = PathObservations::from_wire(&wire).unwrap();
        assert_eq!(obs, back);
        // Empty containers round-trip too.
        let empty = PathObservations::new(5);
        assert_eq!(
            PathObservations::from_wire(&empty.to_wire()).unwrap(),
            empty
        );
    }

    #[test]
    fn wire_rejects_malformed_input() {
        assert!(PathObservations::from_wire("").is_err());
        assert!(PathObservations::from_wire("garbage").is_err());
        let obs = sample_observations();
        let wire = obs.to_wire();
        // Corrupt the header.
        assert!(PathObservations::from_wire(&wire.replace("v2", "v9")).is_err());
        // Drop a lane line.
        let truncated: Vec<&str> = wire.lines().take(4).collect();
        assert!(PathObservations::from_wire(&truncated.join("\n")).is_err());
        // Set a bit beyond the declared snapshot count.
        let corrupted = wire.replace("lane 0000000000000006", "lane 0000000000000016");
        assert!(PathObservations::from_wire(&corrupted).is_err());
    }
}
