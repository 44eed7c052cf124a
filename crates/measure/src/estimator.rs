//! Empirical estimators of path-level probabilities.
//!
//! Everything the tomography algorithms need from the measurements is a
//! probability of some *path-level* event, estimated as a relative
//! frequency over the snapshots of an experiment:
//!
//! * `P(Y_i = 0)` — path `P_i` is good (single-path equations, Eq. 9);
//! * `P(Y_i = 0, Y_j = 0)` — paths `P_i` and `P_j` are both good
//!   (path-pair equations, Eq. 10);
//! * `P(ψ(S) = ∅)` — all paths are good (Eq. 3 / Eq. 14);
//! * `P(ψ(S) = ψ(A))` — the paths covered by a correlation subset `A` are
//!   exactly the congested paths (the left-hand side of Eq. 18, used by the
//!   exact theorem algorithm).
//!
//! Each of them is an integer count over the packed path lanes, answered
//! through the [`PathCounts`] trait (whose provided methods turn counts into
//! probabilities, the same code for the streaming estimator):
//!
//! * joint-good counts AND the complemented lanes and popcount the result
//!   (64 snapshots per word), through the 4-wide unrolled popcount
//!   kernels in [`crate::bitset::simd`];
//! * exact-state counts AND the pattern's member lanes first, then sweep
//!   every word that still has candidates across the complemented
//!   non-member lanes, leaving it as soon as no snapshot in it can match;
//! * the all-good count ORs every lane into one accumulator and stops as
//!   soon as every snapshot has seen a congested path.
//!
//! Queries over more than two paths ([`ProbabilityEstimator::prob_paths_good`])
//! are specific to the batch estimator: the streaming estimator only keeps
//! the counts it was asked to register.
//!
//! An estimator *borrows* its lane words, so the same type serves every
//! memory tier: a heap-owned [`PathObservations`]
//! ([`ProbabilityEstimator::new`]), a v3 binary block parsed in place
//! ([`ProbabilityEstimator::parse`]), or a memory-mapped v3 file
//! ([`crate::MappedObservations::view`]). The pre-packing scalar
//! implementation survives as the executable specification in
//! [`crate::reference`]; the differential property tests assert bit-exact
//! agreement with it on random observation matrices.

use std::collections::BTreeSet;

use netcorr_topology::path::PathId;

use crate::bitset::{simd, splice_lane, BitLanesView, WORD_BITS};
use crate::counts::{check_path, divisor, PathCounts};
use crate::error::MeasureError;
use crate::observation::{binary_header, parse_binary_header, PathObservations, BINARY_HEADER_LEN};

/// Empirical probability estimator over borrowed, packed path lanes.
#[derive(Debug, Clone, Copy)]
pub struct ProbabilityEstimator<'a> {
    lanes: BitLanesView<'a>,
}

impl<'a> ProbabilityEstimator<'a> {
    /// Creates an estimator over `observations`.
    ///
    /// Returns an error if no snapshots have been recorded.
    pub fn new(observations: &'a PathObservations) -> Result<Self, MeasureError> {
        if observations.is_empty() {
            return Err(MeasureError::NoSnapshots);
        }
        Ok(Self::from_lanes(observations.lanes().as_view()))
    }

    /// Wraps a validated lane view (which may be empty: every probability
    /// query then fails with [`MeasureError::NoSnapshots`]).
    pub fn from_lanes(lanes: BitLanesView<'a>) -> Self {
        ProbabilityEstimator { lanes }
    }

    /// Parses a v3 binary observation block **in place**: the header is
    /// validated, the lane-word region is reinterpreted as little-endian
    /// `u64`s without copying, and the zero-tail invariant is checked per
    /// lane. The bytes must keep the words 8-byte aligned (a mapped file
    /// or any allocation whose word region starts at a multiple of 8);
    /// misaligned buffers are rejected — copy through
    /// [`PathObservations::from_binary`] instead.
    ///
    /// Only available on little-endian hosts, where the wire byte order
    /// *is* the in-memory byte order.
    #[cfg(target_endian = "little")]
    #[allow(unsafe_code)]
    pub fn parse(bytes: &'a [u8]) -> Result<Self, MeasureError> {
        let (num_paths, num_snapshots) = parse_binary_header(bytes)?;
        let region = &bytes[BINARY_HEADER_LEN..];
        // SAFETY: every bit pattern is a valid `u64`; `align_to` returns
        // word-aligned, in-bounds subslices by contract. The empty
        // prefix/suffix check below guarantees the whole region was
        // reinterpreted.
        let (prefix, words, suffix) = unsafe { region.align_to::<u64>() };
        if !prefix.is_empty() || !suffix.is_empty() {
            return Err(MeasureError::Wire(format!(
                "lane region is not 8-byte aligned (offset {}): zero-copy parse needs an \
                 aligned buffer",
                prefix.len()
            )));
        }
        let lanes = BitLanesView::try_from_lane_words(num_paths, num_snapshots, words)?;
        Ok(Self::from_lanes(lanes))
    }

    /// Number of paths per snapshot.
    pub fn num_paths(&self) -> usize {
        self.lanes.num_lanes()
    }

    /// Number of snapshots backing every estimate.
    pub fn num_snapshots(&self) -> usize {
        self.lanes.num_slots()
    }

    /// Returns `true` if the estimator covers no snapshots.
    pub fn is_empty(&self) -> bool {
        self.num_snapshots() == 0
    }

    /// The underlying lane view.
    pub fn lanes(&self) -> BitLanesView<'a> {
        self.lanes
    }

    /// Number of snapshots in which *all* the given paths were good:
    /// popcount of the AND of the complemented lanes (the tail of the last
    /// word is masked because complementing turns the zero padding into
    /// ones), through the popcount kernels of [`simd`].
    pub fn all_good_count(&self, paths: &[PathId]) -> Result<usize, MeasureError> {
        for &p in paths {
            check_path(p, self.num_paths())?;
        }
        let mask = self.lanes.last_word_mask();
        if let [a, b] = paths {
            return Ok(simd::pair_good_count(
                self.lanes.lane(a.index()),
                self.lanes.lane(b.index()),
                mask,
            ));
        }
        let lanes: Vec<&[u64]> = paths.iter().map(|&p| self.lanes.lane(p.index())).collect();
        Ok(simd::all_good_count(&lanes, self.lanes.used_words(), mask))
    }

    /// Empirical probability that *all* the given paths were good in the
    /// same snapshot (`P(Y_{i1} = 0, ..., Y_{ik} = 0)`).
    pub fn prob_paths_good(&self, paths: &[PathId]) -> Result<f64, MeasureError> {
        let n = divisor(self)?;
        Ok(self.all_good_count(paths)? as f64 / n)
    }

    /// `log P(all given paths good)`, clamped below by the probability
    /// floor so the result is always finite.
    pub fn log_prob_paths_good(&self, paths: &[PathId]) -> Result<f64, MeasureError> {
        let p = self.prob_paths_good(paths)?;
        Ok(p.max(self.probability_floor()).ln())
    }

    /// Paths that were congested during at least one snapshot.
    pub fn ever_congested_paths(&self) -> Vec<PathId> {
        (0..self.num_paths())
            .filter(|&p| self.lanes.lane(p).iter().any(|&w| w != 0))
            .map(PathId)
            .collect()
    }

    /// Copies the lanes into an owned [`PathObservations`] — the
    /// promotion back to the heap tier.
    pub fn to_observations(&self) -> PathObservations {
        PathObservations::from_lanes(self.lanes.to_owned_lanes())
    }

    /// Serializes these lanes followed by `delta` as one v3 binary block —
    /// the full-history serialization of a streaming estimator whose base
    /// segment is this view. Off a word boundary, the delta words are
    /// shifted into the base lanes' tail words (the same merge as
    /// [`PathObservations::concat`]).
    pub fn merged_binary(&self, delta: &PathObservations) -> Result<Vec<u8>, MeasureError> {
        if delta.num_paths() != self.num_paths() {
            return Err(MeasureError::WrongSnapshotWidth {
                expected: self.num_paths(),
                actual: delta.num_paths(),
            });
        }
        let base_n = self.num_snapshots();
        let total = base_n + delta.num_snapshots();
        let mut out = binary_header(self.num_paths(), total);
        let mut merged = vec![0u64; total.div_ceil(WORD_BITS)];
        for p in 0..self.num_paths() {
            let base = self.lanes.lane(p);
            merged[..base.len()].copy_from_slice(base);
            merged[base.len()..].fill(0);
            if !delta.is_empty() {
                splice_lane(&mut merged, base_n, delta.lanes().lane(p));
            }
            for word in &merged {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
        Ok(out)
    }
}

impl PathCounts for ProbabilityEstimator<'_> {
    fn num_paths(&self) -> usize {
        self.lanes.num_lanes()
    }

    fn num_snapshots(&self) -> usize {
        self.lanes.num_slots()
    }

    /// One popcount over the path's lane.
    fn congested_count(&self, path: PathId) -> Result<usize, MeasureError> {
        check_path(path, self.num_paths())?;
        Ok(self.lanes.count_ones(path.index()))
    }

    /// Every pair is validated up front; each then costs one
    /// AND/popcount sweep over two packed lanes (`⌈N/64⌉` words), never a
    /// rescan of the full observation matrix.
    fn pair_good_counts(&self, pairs: &[(PathId, PathId)]) -> Result<Vec<usize>, MeasureError> {
        for &(a, b) in pairs {
            check_path(a, self.num_paths())?;
            check_path(b, self.num_paths())?;
        }
        let mask = self.lanes.last_word_mask();
        Ok(pairs
            .iter()
            .map(|&(a, b)| {
                simd::pair_good_count(self.lanes.lane(a.index()), self.lanes.lane(b.index()), mask)
            })
            .collect())
    }

    /// The lanes are ORed into one accumulator whose phantom tail bits
    /// start set, and the sweep stops once every snapshot has seen a
    /// congested path.
    fn all_paths_good_count(&self) -> usize {
        let used = self.lanes.used_words();
        if used == 0 {
            return 0;
        }
        let mut seen = vec![0u64; used];
        seen[used - 1] = !self.lanes.last_word_mask();
        // Four lanes per pass, so the accumulator is loaded and stored once
        // per four lane words; saturation is checked every eight lanes.
        let paths = self.num_paths();
        let quads = paths - paths % 4;
        for p in (0..quads).step_by(4) {
            let [a, b, c, d] = [p, p + 1, p + 2, p + 3].map(|q| self.lanes.lane(q));
            for ((((s, &a), &b), &c), &d) in seen.iter_mut().zip(a).zip(b).zip(c).zip(d) {
                *s |= a | b | c | d;
            }
            if p % 8 == 4 && seen.iter().all(|&s| s == !0) {
                return 0;
            }
        }
        for p in quads..paths {
            for (s, &word) in seen.iter_mut().zip(self.lanes.lane(p)) {
                *s |= word;
            }
        }
        seen.iter().map(|s| (!s).count_ones() as usize).sum()
    }

    /// The empty pattern is [`PathCounts::all_paths_good_count`].
    /// Otherwise the member lanes are ANDed first, lane by lane, into the
    /// words that still hold candidate snapshots — a word drops out as
    /// soon as it is all zero, and unless the data are very sparse a few
    /// members empty all but the matching words. Each surviving word is
    /// then swept across the complemented non-member lanes, read as one
    /// strided column of that word, until it is all zero.
    fn pattern_count(&self, pattern: &BTreeSet<PathId>) -> Result<usize, MeasureError> {
        let members = pattern
            .iter()
            .map(|&p| check_path(p, self.num_paths()).map(|()| p.index()))
            .collect::<Result<Vec<usize>, _>>()?;
        if members.is_empty() {
            return Ok(self.all_paths_good_count());
        }
        // The words that can still hold a match, with their candidates.
        let used = self.lanes.used_words();
        let mut live: Vec<(usize, u64)> = (0..used)
            .map(|w| {
                (
                    w,
                    if w + 1 == used {
                        self.lanes.last_word_mask()
                    } else {
                        !0
                    },
                )
            })
            .collect();
        for &m in &members {
            let lane = self.lanes.lane(m);
            live.retain_mut(|(w, acc)| {
                *acc &= lane[*w];
                *acc != 0
            });
        }
        let mut count = 0;
        for (w, mut acc) in live {
            let mut next_member = members.iter().copied().peekable();
            for (p, word) in self.lanes.word_column(w).enumerate() {
                if acc == 0 {
                    break;
                }
                if next_member.next_if_eq(&p).is_none() {
                    acc &= !word;
                }
            }
            count += acc.count_ones() as usize;
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 8 snapshots over 3 paths with a known pattern.
    fn observations() -> PathObservations {
        let mut obs = PathObservations::new(3);
        let snapshots = [
            [false, false, false],
            [true, false, false],
            [true, true, false],
            [false, false, false],
            [false, true, false],
            [true, true, false],
            [false, false, false],
            [false, false, true],
        ];
        for s in &snapshots {
            obs.record_snapshot(s).unwrap();
        }
        obs
    }

    #[test]
    fn single_path_probabilities() {
        let obs = observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        assert_eq!(est.num_snapshots(), 8);
        // Path 0 congested in 3 of 8 snapshots.
        assert!((est.prob_path_congested(PathId(0)).unwrap() - 3.0 / 8.0).abs() < 1e-12);
        assert!((est.prob_path_good(PathId(0)).unwrap() - 5.0 / 8.0).abs() < 1e-12);
        assert!((est.prob_path_good(PathId(2)).unwrap() - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn joint_probabilities() {
        let obs = observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        // Paths 0 and 1 both good in snapshots 0, 3, 6, 7 -> 4/8.
        assert!((est.prob_paths_good(&[PathId(0), PathId(1)]).unwrap() - 0.5).abs() < 1e-12);
        // All three paths good in snapshots 0, 3, 6 -> 3/8.
        assert!(
            (est.prob_paths_good(&[PathId(0), PathId(1), PathId(2)])
                .unwrap()
                - 3.0 / 8.0)
                .abs()
                < 1e-12
        );
        assert!((est.prob_all_paths_good().unwrap() - 3.0 / 8.0).abs() < 1e-12);
        // The joint probability with an empty path list is 1 (vacuous).
        assert_eq!(est.prob_paths_good(&[]).unwrap(), 1.0);
    }

    #[test]
    fn batch_pair_queries_match_the_single_query() {
        let obs = observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        let pairs = [
            (PathId(0), PathId(1)),
            (PathId(0), PathId(2)),
            (PathId(1), PathId(2)),
            (PathId(2), PathId(2)),
        ];
        let batch = est.prob_pairs_good(&pairs).unwrap();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(batch[i], est.prob_paths_good(&[a, b]).unwrap());
        }
        let logs = est.log_prob_pairs_good(&pairs).unwrap();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(logs[i], est.log_prob_paths_good(&[a, b]).unwrap());
        }
        assert!(est.prob_pairs_good(&[(PathId(0), PathId(9))]).is_err());
    }

    #[test]
    fn exact_congestion_pattern_probabilities() {
        let obs = observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        // Exactly {P1} congested: snapshot 1 only -> 1/8.
        let p = est
            .prob_exactly_congested(&BTreeSet::from([PathId(0)]))
            .unwrap();
        assert!((p - 1.0 / 8.0).abs() < 1e-12);
        // Exactly {P1, P2}: snapshots 2 and 5 -> 2/8.
        let p = est
            .prob_exactly_congested(&BTreeSet::from([PathId(0), PathId(1)]))
            .unwrap();
        assert!((p - 2.0 / 8.0).abs() < 1e-12);
        // Exactly nothing congested: snapshots 0, 3, 6 -> 3/8, matching
        // prob_all_paths_good.
        let p = est.prob_exactly_congested(&BTreeSet::new()).unwrap();
        assert!((p - est.prob_all_paths_good().unwrap()).abs() < 1e-12);
        // A pattern that never occurred.
        let p = est
            .prob_exactly_congested(&BTreeSet::from([PathId(2), PathId(1)]))
            .unwrap();
        assert_eq!(p, 0.0);
    }

    #[test]
    fn batch_exact_queries_match_the_single_query() {
        let obs = observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        let patterns = vec![
            BTreeSet::new(),
            BTreeSet::from([PathId(0)]),
            BTreeSet::from([PathId(0), PathId(1)]),
            BTreeSet::from([PathId(1), PathId(2)]),
        ];
        let batch = est.prob_exactly_congested_batch(&patterns).unwrap();
        for (i, pattern) in patterns.iter().enumerate() {
            assert_eq!(batch[i], est.prob_exactly_congested(pattern).unwrap());
        }
        assert!(est
            .prob_exactly_congested_batch(&[BTreeSet::from([PathId(9)])])
            .is_err());
    }

    #[test]
    fn log_probabilities_are_clamped() {
        let mut obs = PathObservations::new(2);
        for _ in 0..10 {
            obs.record_snapshot(&[true, false]).unwrap();
        }
        let est = ProbabilityEstimator::new(&obs).unwrap();
        // Path 0 was never good: probability 0 must be clamped to 1/(2N).
        let log_p = est.log_prob_paths_good(&[PathId(0)]).unwrap();
        assert!((log_p - (1.0 / 20.0f64).ln()).abs() < 1e-12);
        assert!(log_p.is_finite());
        // Path 1 was always good: log 1 = 0.
        assert_eq!(est.log_prob_paths_good(&[PathId(1)]).unwrap(), 0.0);
        assert!((est.probability_floor() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn errors_on_empty_or_unknown() {
        let empty = PathObservations::new(2);
        assert_eq!(
            ProbabilityEstimator::new(&empty).unwrap_err(),
            MeasureError::NoSnapshots
        );
        let obs = observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        assert!(est.prob_path_good(PathId(9)).is_err());
        assert!(est.prob_paths_good(&[PathId(9)]).is_err());
        assert!(est
            .prob_exactly_congested(&BTreeSet::from([PathId(9)]))
            .is_err());
    }

    #[test]
    fn ever_congested_paths_passthrough() {
        let obs = observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        assert_eq!(
            est.ever_congested_paths(),
            vec![PathId(0), PathId(1), PathId(2)]
        );
    }

    #[test]
    fn queries_cross_word_boundaries_correctly() {
        // 130 snapshots (> 2 words) with a deterministic pattern.
        let mut obs = PathObservations::new(2);
        let mut good_both = 0;
        let mut all_good = 0;
        for i in 0..130 {
            let a = i % 3 == 0;
            let b = i % 5 == 0;
            obs.record_snapshot(&[a, b]).unwrap();
            if !a && !b {
                good_both += 1;
                all_good += 1;
            }
        }
        let est = ProbabilityEstimator::new(&obs).unwrap();
        let p = est.prob_paths_good(&[PathId(0), PathId(1)]).unwrap();
        assert_eq!(p, good_both as f64 / 130.0);
        assert_eq!(est.prob_all_paths_good().unwrap(), all_good as f64 / 130.0);
    }

    fn sample(paths: usize, snapshots: usize) -> PathObservations {
        let mut obs = PathObservations::new(paths);
        let mut row = vec![false; paths];
        for s in 0..snapshots {
            for (p, bit) in row.iter_mut().enumerate() {
                *bit = (s * 7 + p * 13) % 5 == 0 || (s + p) % 11 == 0;
            }
            obs.record_snapshot(&row).unwrap();
        }
        obs
    }

    #[test]
    fn borrowed_view_matches_owned_bits() {
        let obs = sample(4, 150);
        let view = ProbabilityEstimator::new(&obs).unwrap();
        assert_eq!(view.num_paths(), 4);
        assert_eq!(view.num_snapshots(), 150);
        for p in 0..4 {
            assert_eq!(view.lanes().count_ones(p), obs.lanes().count_ones(p));
            for s in 0..150 {
                assert_eq!(view.lanes().get(p, s), obs.lanes().get(p, s));
            }
        }
        assert_eq!(view.ever_congested_paths(), obs.ever_congested_paths());
    }

    /// Copies `block` into an 8-byte-aligned buffer and parses it in place.
    #[cfg(target_endian = "little")]
    #[allow(unsafe_code)]
    fn aligned(block: &[u8]) -> Vec<u64> {
        let mut words = vec![0u64; block.len().div_ceil(8)];
        // SAFETY: reinterpreting `u64`s as bytes is valid for any value.
        unsafe { words.align_to_mut::<u8>().1[..block.len()].copy_from_slice(block) };
        words
    }

    #[cfg(target_endian = "little")]
    #[allow(unsafe_code)]
    fn as_bytes(words: &[u64], len: usize) -> &[u8] {
        // SAFETY: every `u64` is valid as eight bytes; `len` is in bounds.
        unsafe { &words.align_to::<u8>().1[..len] }
    }

    #[cfg(target_endian = "little")]
    #[test]
    fn zero_copy_parse_round_trips() {
        let obs = sample(5, 203);
        let block = obs.to_binary();
        let words = aligned(&block);
        let view = ProbabilityEstimator::parse(as_bytes(&words, block.len())).unwrap();
        assert_eq!(view.num_paths(), 5);
        assert_eq!(view.num_snapshots(), 203);
        assert_eq!(view.to_observations(), obs);
    }

    #[cfg(target_endian = "little")]
    #[test]
    fn zero_copy_parse_rejects_corruption() {
        let obs = sample(3, 70);
        let mut block = obs.to_binary();
        // Dirty tail: set a bit beyond snapshot 70 in lane 0's last word.
        block[BINARY_HEADER_LEN + 15] |= 0x80;
        let words = aligned(&block);
        let err = ProbabilityEstimator::parse(as_bytes(&words, block.len())).unwrap_err();
        assert!(err.to_string().contains("beyond slot"), "got: {err}");
        // Misaligned region: skip one byte.
        block[BINARY_HEADER_LEN + 15] &= !0x80;
        let mut shifted = vec![0u8; 1];
        shifted.extend_from_slice(&block);
        let words = aligned(&shifted);
        let bytes = as_bytes(&words, shifted.len());
        let err = ProbabilityEstimator::parse(&bytes[1..]).unwrap_err();
        assert!(err.to_string().contains("aligned"), "got: {err}");
    }

    #[test]
    fn merged_binary_equals_replayed_serialization() {
        // Aligned (128) and unaligned (57, 191) base boundaries.
        for split in [0usize, 57, 128, 191, 260] {
            let whole = sample(3, 260);
            let base = {
                let mut b = PathObservations::new(3);
                for s in 0..split {
                    b.record_snapshot(&whole.snapshot(s)).unwrap();
                }
                b
            };
            let delta = {
                let mut d = PathObservations::new(3);
                for s in split..260 {
                    d.record_snapshot(&whole.snapshot(s)).unwrap();
                }
                d
            };
            let view = ProbabilityEstimator::from_lanes(base.lanes().as_view());
            let merged = view.merged_binary(&delta).unwrap();
            assert_eq!(merged, whole.to_binary(), "split at {split}");
        }
        // Path-count mismatch is rejected.
        let base = sample(3, 10);
        let view = ProbabilityEstimator::new(&base).unwrap();
        assert!(view.merged_binary(&PathObservations::new(2)).is_err());
    }

    #[test]
    fn empty_views_error_instead_of_dividing_by_zero() {
        let obs = PathObservations::new(3);
        let view = ProbabilityEstimator::from_lanes(obs.lanes().as_view());
        assert!(view.is_empty());
        assert_eq!(
            view.prob_path_good(PathId(0)).unwrap_err(),
            MeasureError::NoSnapshots
        );
        assert_eq!(
            view.prob_all_paths_good().unwrap_err(),
            MeasureError::NoSnapshots
        );
        assert_eq!(
            view.prob_exactly_congested(&BTreeSet::new()).unwrap_err(),
            MeasureError::NoSnapshots
        );
    }
}
