//! Per-snapshot path observations, stored bit-packed, and their one
//! on-disk encoding: the v3 binary block ([`BINARY_MAGIC`], a fixed
//! header, then the raw lane words).

use serde::{Deserialize, Serialize};

use netcorr_topology::path::PathId;

use crate::bitset::{splice_lane, tail_mask, BitLanes, WORD_BITS};
use crate::error::MeasureError;

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
    pub fn from_lanes(lanes: BitLanes) -> Self {
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

    /// Serializes the observations into the binary wire format
    /// (`netcorr-path-observations v3`): a fixed 24-byte header —
    /// [`BINARY_MAGIC`], then `num_paths` and `num_snapshots` as
    /// little-endian `u64` — followed by the raw lane words
    /// (`⌈num_snapshots/64⌉` little-endian `u64`s per path, path-major).
    ///
    /// The payload is exactly the in-memory lane layout, so loading needs
    /// no per-bit parsing (and the format is mmap-friendly: the word
    /// region can be mapped and handed to
    /// [`BitLanes::from_lane_words`] directly).
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
        if num_snapshots == 0 {
            return Ok(PathObservations::new(num_paths));
        }
        let words: Vec<u64> = bytes[BINARY_HEADER_LEN..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let lanes = BitLanes::try_from_lane_vec(num_paths, num_snapshots, words)?;
        Ok(Self::from_lanes(lanes))
    }
}

/// Appends `block`'s snapshots to `payload`, a v3 block over the same
/// paths, in place: afterwards `payload` is byte for byte the
/// [`PathObservations::to_binary`] of the payload's snapshots followed by
/// `block`'s. When the lane word count grows, the lanes are laid out
/// again from back to front; the block's bits are then shifted into each
/// lane's tail words as in [`PathObservations::concat`]. Only the words
/// the block touches are rewritten.
pub fn append_binary(payload: &mut Vec<u8>, block: &PathObservations) -> Result<(), MeasureError> {
    let (num_paths, base) = parse_binary_header(payload)?;
    if block.num_paths() != num_paths {
        return Err(MeasureError::WrongSnapshotWidth {
            expected: num_paths,
            actual: block.num_paths(),
        });
    }
    if block.is_empty() {
        return Ok(());
    }
    let total = base + block.num_snapshots();
    let (old_used, used) = (base.div_ceil(WORD_BITS), total.div_ceil(WORD_BITS));
    if used > old_used {
        payload.resize(BINARY_HEADER_LEN + num_paths * used * 8, 0);
        // Lane p moves to a start at or past its old one, and past the old
        // starts of every lane before it: moving the last lane first never
        // overwrites a lane not yet moved.
        for p in (0..num_paths).rev() {
            let (from, to) = (lane_start(p, old_used), lane_start(p, used));
            payload.copy_within(from..from + old_used * 8, to);
            payload[to + old_used * 8..to + used * 8].fill(0);
        }
    }
    // The block lands in words `first..used` of each lane.
    let first = base / WORD_BITS;
    let mut words = vec![0u64; used - first];
    for p in 0..num_paths {
        let start = lane_start(p, used) + first * 8;
        let tail = &mut payload[start..start + words.len() * 8];
        for (word, bytes) in words.iter_mut().zip(tail.chunks_exact(8)) {
            *word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
        }
        splice_lane(&mut words, base % WORD_BITS, block.lanes().lane(p));
        for (word, bytes) in words.iter().zip(tail.chunks_exact_mut(8)) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
    }
    set_binary_snapshots(payload, total);
    Ok(())
}

/// Cuts `payload`, a v3 block, back to its first `num_snapshots`
/// snapshots in place — the undo of [`append_binary`]: the bits at or past
/// `num_snapshots` are cleared, the lanes are compacted front to back,
/// and the header count is restored.
pub fn truncate_binary(payload: &mut Vec<u8>, num_snapshots: usize) -> Result<(), MeasureError> {
    let (num_paths, current) = parse_binary_header(payload)?;
    if num_snapshots > current {
        return Err(MeasureError::Wire(format!(
            "cannot truncate {current} snapshots to {num_snapshots}"
        )));
    }
    let (old_used, used) = (
        current.div_ceil(WORD_BITS),
        num_snapshots.div_ceil(WORD_BITS),
    );
    for p in 0..num_paths {
        let (from, to) = (lane_start(p, old_used), lane_start(p, used));
        payload.copy_within(from..from + used * 8, to);
        if !num_snapshots.is_multiple_of(WORD_BITS) {
            let last = to + (used - 1) * 8;
            let word = u64::from_le_bytes(payload[last..last + 8].try_into().expect("8 bytes"))
                & tail_mask(num_snapshots);
            payload[last..last + 8].copy_from_slice(&word.to_le_bytes());
        }
    }
    payload.truncate(BINARY_HEADER_LEN + num_paths * used * 8);
    set_binary_snapshots(payload, num_snapshots);
    Ok(())
}

/// Byte offset of lane `lane` in a v3 block of `used` words per lane.
fn lane_start(lane: usize, used: usize) -> usize {
    BINARY_HEADER_LEN + lane * used * 8
}

/// Rewrites the snapshot count of a v3 header.
fn set_binary_snapshots(payload: &mut [u8], num_snapshots: usize) {
    payload[16..BINARY_HEADER_LEN].copy_from_slice(&(num_snapshots as u64).to_le_bytes());
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
        assert_eq!(obs.congested_paths(1), vec![PathId(0)]);
        assert_eq!(obs.congested_paths(2), vec![PathId(0), PathId(1)]);
        assert_eq!(obs.congested_paths(0), Vec::<PathId>::new());
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
    fn in_place_append_and_truncate_match_serialization() {
        let bit = |s: usize, p: usize| (s * 5 + p * 11).is_multiple_of(3);
        let record = |range: std::ops::Range<usize>| {
            let mut obs = PathObservations::new(3);
            for s in range {
                obs.record_snapshot(&[bit(s, 0), bit(s, 1), bit(s, 2)])
                    .unwrap();
            }
            obs
        };
        // Bases on and off a word boundary; blocks that stay in the last
        // word, fill it exactly, and cross one or more boundaries.
        for base in [0usize, 1, 57, 64, 100, 128] {
            for len in [1usize, 7, 63, 64, 65, 130] {
                let mut payload = record(0..base).to_binary();
                append_binary(&mut payload, &record(base..base + len)).unwrap();
                assert_eq!(payload, record(0..base + len).to_binary(), "{base}+{len}");
                truncate_binary(&mut payload, base).unwrap();
                assert_eq!(payload, record(0..base).to_binary(), "undo {base}+{len}");
            }
        }
        let mut payload = record(0..10).to_binary();
        append_binary(&mut payload, &PathObservations::new(3)).unwrap();
        assert_eq!(payload, record(0..10).to_binary());
        assert!(append_binary(&mut payload, &PathObservations::new(2)).is_err());
        assert!(truncate_binary(&mut payload, 11).is_err());
    }

    #[test]
    fn wire_round_trip() {
        let obs = sample_observations();
        let back = PathObservations::from_binary(&obs.to_binary()).unwrap();
        assert_eq!(obs, back);
        // Empty containers round-trip too, keeping their path count.
        let empty = PathObservations::new(5);
        let back = PathObservations::from_binary(&empty.to_binary()).unwrap();
        assert_eq!(back, empty);
        assert_eq!(back.num_paths(), 5);
    }

    #[test]
    fn wire_rejects_malformed_input() {
        // `tests/wire_format.rs` covers short input, a foreign magic, a
        // truncated lane region and dirty tails; these are the header
        // cases it leaves out.
        let wire = sample_observations().to_binary();
        // Another format version.
        let mut other_version = wire.clone();
        other_version[6] = b'9';
        assert!(PathObservations::from_binary(&other_version).is_err());
        // Trailing bytes past the declared lane region, including lane
        // words for a container that declares no snapshots.
        let mut padded = wire;
        padded.extend_from_slice(&[0; 8]);
        assert!(PathObservations::from_binary(&padded).is_err());
        let mut empty = binary_header(3, 0);
        empty.extend_from_slice(&[0; 8]);
        assert!(PathObservations::from_binary(&empty).is_err());
        // Counts whose lane region overflows.
        let mut huge = BINARY_MAGIC.to_vec();
        huge.extend_from_slice(&[0xff; 16]);
        assert!(PathObservations::from_binary(&huge).is_err());
    }
}
