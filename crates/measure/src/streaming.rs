//! Streaming (online) probability estimation with O(1) queries.
//!
//! [`crate::ProbabilityEstimator`] answers every query by scanning packed
//! lanes — cheap (64 snapshots per word), but still linear in the
//! experiment length, and long-running deployments re-pay that scan on
//! every re-estimation. [`StreamingEstimator`] instead maintains
//! *accumulators* that are updated as each snapshot arrives:
//!
//! * a per-path congested-count (for `P(Y_i = 0)` / `P(Y_i = 1)`);
//! * a both-good count per **registered pair** (for `P(Y_i = 0, Y_j = 0)`,
//!   the equation builder's RHS);
//! * an all-good count (for `P(ψ(S) = ∅)`);
//! * a match count per **registered exact pattern** (for
//!   `P(ψ(S) = ψ(A))`, the theorem algorithm's measurements).
//!
//! Registration declares *which* pairs and patterns the caller will query
//! — for tomography these are known from the topology alone (usable pairs
//! from the correlation partition, coverages from the subset enumeration),
//! so they can be registered before the first snapshot arrives. Each
//! [`StreamingEstimator::push_snapshot`] then costs
//! `O(paths + pairs + patterns · ⌈paths/64⌉)` — every accumulator is
//! updated in O(1) (patterns by one word compare of the snapshot, packed
//! once per push) — and every registered query is an O(1) counter read,
//! **no lane scan**. Registering after snapshots have already been
//! recorded is allowed and performs a one-time catch-up scan over the
//! lanes, so registration order never changes results.
//!
//! The counters are served through [`PathCounts`], the same trait the
//! batch estimator implements, so every probability — and every
//! right-hand side `netcorr_core` assembles from them — comes from the
//! same provided methods, bit-exact with the batch estimator (both sides
//! count integers and divide by the same `N`). Querying a pair or pattern
//! that was never registered is an [`MeasureError::Unregistered`] error.
//!
//! By default the estimator also records every snapshot in a bit-packed
//! [`PathObservations`] store, so ad-hoc queries outside the registered
//! set can fall back to the batch estimator
//! ([`StreamingEstimator::batch`]) and late registrations can catch up.
//! A caller that registers everything up front and never asks for those
//! builds it with [`StreamingEstimator::counters_only`]: no lanes, so its
//! memory does not grow with the stream, and a registration after the
//! first push is an [`MeasureError::NoLanes`] error rather than a count
//! that silently misses the earlier snapshots.
//!
//! # Mapped history segments
//!
//! A freshly built estimator can *attach* a memory-mapped observation
//! file ([`StreamingEstimator::attach_history`]) as an immutable **base
//! segment**: every accumulator is seeded from the mapped lanes through
//! the same lane counts a batch estimator uses, so the counters —
//! and therefore every probability — are bit-identical to an estimator
//! that streamed those snapshots one by one. New snapshots accumulate in
//! the owned **delta** store on top, and
//! [`ProbabilityEstimator::merged_binary`] over the base's view
//! re-serializes base ++ delta as one v3 block for the next
//! persist/restart cycle. This is how the `netcorr-serve` daemon reloads
//! weeks of history in microseconds.

use std::collections::{BTreeMap, BTreeSet};

use netcorr_topology::path::PathId;

use crate::bitset::{words_for, WORD_BITS};
use crate::counts::{check_path, divisor, PathCounts};
use crate::error::MeasureError;
use crate::estimator::ProbabilityEstimator;
use crate::mapped::MappedObservations;
use crate::observation::PathObservations;

/// Normalized pair key: the two path ids in increasing order.
fn pair_key(a: PathId, b: PathId) -> (PathId, PathId) {
    (a.min(b), a.max(b))
}

/// Packs the set bit positions into a `words_for(width)`-word snapshot
/// mask, the form exact patterns are matched in.
fn pack_snapshot(width: usize, set_bits: impl IntoIterator<Item = usize>) -> Vec<u64> {
    let mut mask = vec![0u64; words_for(width)];
    for bit in set_bits {
        mask[bit / WORD_BITS] |= 1u64 << (bit % WORD_BITS);
    }
    mask
}

/// Online estimator over a growing observation store: O(1) registered
/// queries, O(1)-per-accumulator updates per pushed snapshot.
#[derive(Debug, Clone)]
pub struct StreamingEstimator {
    /// The owned *delta* store: snapshots pushed since construction (or
    /// since the attached history segment ended). Stays empty on a
    /// counters-only estimator.
    observations: PathObservations,
    /// Whether pushed snapshots are recorded in `observations`.
    keeps_lanes: bool,
    /// Snapshots in the delta (pushed, or wrapped by
    /// [`StreamingEstimator::from_observations`]), recorded or not.
    delta: usize,
    /// Optional immutable base segment served from a mapped v3 file;
    /// accumulators cover base + delta.
    base: Option<MappedObservations>,
    /// Per-path congested-snapshot counts.
    congested: Vec<usize>,
    /// Registered pairs, normalized, in handle order (parallel to
    /// `pair_good`; the per-push update streams this dense array, not the
    /// map).
    pairs: Vec<(PathId, PathId)>,
    /// Key → handle lookup for the keyed query API and dedup.
    pair_index: BTreeMap<(PathId, PathId), usize>,
    /// Per-registered-pair both-good counts, indexed by handle.
    pair_good: Vec<usize>,
    /// Snapshots in which every path was good.
    all_good: usize,
    /// Registered exact patterns with their packed snapshot masks.
    pattern_index: BTreeMap<BTreeSet<PathId>, usize>,
    pattern_masks: Vec<Vec<u64>>,
    /// Per-registered-pattern exact-match counts.
    pattern_matches: Vec<usize>,
}

impl StreamingEstimator {
    /// Creates an empty streaming estimator for `num_paths` paths.
    pub fn new(num_paths: usize) -> Self {
        Self::with_capacity(num_paths, 0)
    }

    /// Creates an empty streaming estimator with room for `snapshots`
    /// snapshots pre-allocated.
    pub fn with_capacity(num_paths: usize, snapshots: usize) -> Self {
        StreamingEstimator {
            observations: PathObservations::with_capacity(num_paths, snapshots),
            keeps_lanes: true,
            delta: 0,
            base: None,
            congested: vec![0; num_paths],
            pairs: Vec::new(),
            pair_index: BTreeMap::new(),
            pair_good: Vec::new(),
            all_good: 0,
            pattern_index: BTreeMap::new(),
            pattern_masks: Vec::new(),
            pattern_matches: Vec::new(),
        }
    }

    /// Creates an empty estimator that keeps only its accumulators: pushed
    /// snapshots update the counters and are not stored, so memory stays
    /// flat however long the stream runs. Register every pair and pattern
    /// before the first push; a later registration, and
    /// [`StreamingEstimator::batch`], error with [`MeasureError::NoLanes`].
    /// A history segment can still be attached before the first push.
    pub fn counters_only(num_paths: usize) -> Self {
        StreamingEstimator {
            keeps_lanes: false,
            ..Self::new(num_paths)
        }
    }

    /// Wraps an already-recorded observation store, initialising the
    /// path-level accumulators from its lanes (one popcount per lane and
    /// one all-good sweep).
    pub fn from_observations(observations: PathObservations) -> Self {
        let congested: Vec<usize> = (0..observations.num_paths())
            .map(|p| observations.lanes().count_ones(p))
            .collect();
        let all_good =
            ProbabilityEstimator::from_lanes(observations.lanes().as_view()).all_paths_good_count();
        StreamingEstimator {
            congested,
            all_good,
            keeps_lanes: true,
            delta: observations.num_snapshots(),
            observations,
            base: None,
            pairs: Vec::new(),
            pair_index: BTreeMap::new(),
            pair_good: Vec::new(),
            pattern_index: BTreeMap::new(),
            pattern_masks: Vec::new(),
            pattern_matches: Vec::new(),
        }
    }

    /// Number of paths per snapshot.
    pub fn num_paths(&self) -> usize {
        self.observations.num_paths()
    }

    /// Number of snapshots recorded so far (attached history segment
    /// included).
    pub fn num_snapshots(&self) -> usize {
        self.base_snapshots() + self.delta
    }

    /// Returns `true` if no snapshots have been recorded (and no history
    /// segment is attached).
    pub fn is_empty(&self) -> bool {
        self.num_snapshots() == 0
    }

    /// Snapshots covered by the attached history segment (0 without one).
    fn base_snapshots(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.num_snapshots())
    }

    /// The underlying bit-packed observation store. With a history
    /// segment attached this is the **delta only** — snapshots pushed
    /// since [`StreamingEstimator::attach_history`]; merge it onto
    /// [`StreamingEstimator::base`] with
    /// [`ProbabilityEstimator::merged_binary`] for the full record.
    /// Always empty on a counters-only estimator.
    pub fn observations(&self) -> &PathObservations {
        &self.observations
    }

    /// A batch estimator over the same observations, for ad-hoc queries
    /// outside the registered set. Errors with
    /// [`MeasureError::History`] when a mapped history segment is
    /// attached: the batch estimator borrows the owned store, which then
    /// holds only the delta, and serving partial-history probabilities
    /// would silently disagree with the streaming counters; and with
    /// [`MeasureError::NoLanes`] on a counters-only estimator.
    pub fn batch(&self) -> Result<ProbabilityEstimator<'_>, MeasureError> {
        if !self.keeps_lanes {
            return Err(MeasureError::NoLanes(
                "batch estimation needs the snapshots".to_string(),
            ));
        }
        if self.base.is_some() {
            return Err(MeasureError::History(
                "batch estimation over the owned store is unavailable while a mapped history \
                 segment is attached (the owned store holds only the delta)"
                    .to_string(),
            ));
        }
        ProbabilityEstimator::new(&self.observations)
    }

    /// The attached mapped history segment, if any.
    pub fn base(&self) -> Option<&MappedObservations> {
        self.base.as_ref()
    }

    /// The summed lane counts of a late registration: errors on a
    /// counters-only estimator once snapshots were pushed, because their
    /// lanes are gone.
    fn catch_up(
        &self,
        what: impl FnOnce() -> String,
        count: impl Fn(&ProbabilityEstimator<'_>) -> Result<usize, MeasureError>,
    ) -> Result<usize, MeasureError> {
        if !self.keeps_lanes && self.delta > 0 {
            return Err(MeasureError::NoLanes(format!(
                "cannot register {} after {} snapshots were pushed",
                what(),
                self.delta
            )));
        }
        self.segments().map(|segment| count(&segment)).sum()
    }

    /// Estimators over the attached base segment (if any) and the owned
    /// delta, in stream order: a catch-up count is their sum.
    fn segments(&self) -> impl Iterator<Item = ProbabilityEstimator<'_>> {
        let delta = ProbabilityEstimator::from_lanes(self.observations.lanes().as_view());
        self.base.iter().map(|base| base.view()).chain([delta])
    }

    /// Attaches a mapped observation file as the immutable **base
    /// segment** and seeds every accumulator from its lanes, making the
    /// estimator bit-identical to one that streamed those snapshots live.
    /// Pairs and patterns may be registered before or after attaching —
    /// both orders catch up through the same lane counts. Returns the
    /// number of history snapshots absorbed.
    ///
    /// Errors with [`MeasureError::History`] if a segment is already
    /// attached or snapshots have already been pushed, and with
    /// [`MeasureError::WrongSnapshotWidth`] if the file's path count
    /// differs from the estimator's.
    pub fn attach_history(&mut self, history: MappedObservations) -> Result<usize, MeasureError> {
        if self.base.is_some() {
            return Err(MeasureError::History(
                "a history segment is already attached".to_string(),
            ));
        }
        if self.delta != 0 {
            return Err(MeasureError::History(format!(
                "cannot attach a history segment after {} snapshots were already recorded",
                self.delta
            )));
        }
        if history.num_paths() != self.num_paths() {
            return Err(MeasureError::WrongSnapshotWidth {
                expected: self.num_paths(),
                actual: history.num_paths(),
            });
        }
        let view = history.view();
        for (p, count) in self.congested.iter_mut().enumerate() {
            *count = view.lanes().count_ones(p);
        }
        self.all_good = view.all_paths_good_count();
        self.pair_good = view.pair_good_counts(&self.pairs)?;
        for (pattern, &slot) in &self.pattern_index {
            self.pattern_matches[slot] = view.pattern_count(pattern)?;
        }
        let absorbed = history.num_snapshots();
        self.base = Some(history);
        Ok(absorbed)
    }

    /// Registers the pair `(a, b)` for O(1) both-good queries and returns
    /// its **handle** — a dense index whose accumulator can be read
    /// without any map lookup ([`StreamingEstimator::prob_pair_good_at`]).
    /// Handles are issued in registration order, so pairs registered as
    /// one batch into a fresh estimator hold handles `0..n`, and a
    /// [`PathCounts::pair_good_counts`] query in that same order reads
    /// each slot directly. Idempotent; the pair is normalized, so `(a, b)`
    /// and `(b, a)` return the same handle. If snapshots were already
    /// recorded, the accumulator is initialised with one catch-up kernel
    /// sweep over the two lanes (of the base segment and of the delta);
    /// a counters-only estimator can catch up from a base segment only.
    pub fn register_pair(&mut self, a: PathId, b: PathId) -> Result<usize, MeasureError> {
        check_path(a, self.num_paths())?;
        check_path(b, self.num_paths())?;
        let key = pair_key(a, b);
        if let Some(&handle) = self.pair_index.get(&key) {
            return Ok(handle);
        }
        let count = self.catch_up(
            || format!("pair ({:?}, {:?})", key.0, key.1),
            |segment| segment.all_good_count(&[key.0, key.1]),
        )?;
        let handle = self.pair_good.len();
        self.pair_index.insert(key, handle);
        self.pairs.push(key);
        self.pair_good.push(count);
        Ok(handle)
    }

    /// Registers every pair in `pairs`, returning one handle per input
    /// pair (see [`StreamingEstimator::register_pair`]).
    pub fn register_pairs(
        &mut self,
        pairs: &[(PathId, PathId)],
    ) -> Result<Vec<usize>, MeasureError> {
        pairs
            .iter()
            .map(|&(a, b)| self.register_pair(a, b))
            .collect()
    }

    /// Registers an exact congestion pattern for O(1)
    /// `P(ψ(S) = ψ(A))` queries. Idempotent. If snapshots were already
    /// recorded, the match count is initialised with one catch-up
    /// exact-state sweep over the lanes.
    pub fn register_pattern(&mut self, pattern: &BTreeSet<PathId>) -> Result<(), MeasureError> {
        for &p in pattern {
            check_path(p, self.num_paths())?;
        }
        if self.pattern_index.contains_key(pattern) {
            return Ok(());
        }
        let count = self.catch_up(
            || format!("pattern {pattern:?}"),
            |segment| segment.pattern_count(pattern),
        )?;
        self.pattern_index
            .insert(pattern.clone(), self.pattern_matches.len());
        self.pattern_masks.push(pack_snapshot(
            self.num_paths(),
            pattern.iter().map(|p| p.index()),
        ));
        self.pattern_matches.push(count);
        Ok(())
    }

    /// Records one snapshot and updates every accumulator:
    /// `O(paths)` for the store and the marginals, O(1) per registered
    /// pair, and one packed-snapshot compare per registered pattern. A
    /// counters-only estimator skips the store.
    pub fn push_snapshot(&mut self, congested: &[bool]) -> Result<(), MeasureError> {
        if self.keeps_lanes {
            self.observations.record_snapshot(congested)?;
        } else if congested.len() != self.num_paths() {
            return Err(MeasureError::WrongSnapshotWidth {
                expected: self.num_paths(),
                actual: congested.len(),
            });
        }
        self.delta += 1;
        let mut any = false;
        for (count, &c) in self.congested.iter_mut().zip(congested) {
            *count += c as usize;
            any |= c;
        }
        self.all_good += !any as usize;
        for (&(a, b), count) in self.pairs.iter().zip(&mut self.pair_good) {
            *count += (!congested[a.index()] && !congested[b.index()]) as usize;
        }
        if !self.pattern_masks.is_empty() {
            let packed = pack_snapshot(
                congested.len(),
                (0..congested.len()).filter(|&p| congested[p]),
            );
            for (mask, count) in self.pattern_masks.iter().zip(&mut self.pattern_matches) {
                *count += (*mask == packed) as usize;
            }
        }
        Ok(())
    }

    /// Empirical `P(Y_i = 0, Y_j = 0)` by pair **handle** — a bounds
    /// check and an array read, no map lookup.
    pub fn prob_pair_good_at(&self, handle: usize) -> Result<f64, MeasureError> {
        let n = divisor(self)?;
        let count = self
            .pair_good
            .get(handle)
            .ok_or_else(|| MeasureError::Unregistered(format!("pair handle {handle}")))?;
        Ok(*count as f64 / n)
    }
}

/// Every count is an accumulator read; pairs and patterns must have been
/// registered.
impl PathCounts for StreamingEstimator {
    fn num_paths(&self) -> usize {
        self.observations.num_paths()
    }

    fn num_snapshots(&self) -> usize {
        StreamingEstimator::num_snapshots(self)
    }

    fn congested_count(&self, path: PathId) -> Result<usize, MeasureError> {
        check_path(path, self.num_paths())?;
        Ok(self.congested[path.index()])
    }

    /// One accumulator read per pair. The `i`-th pair is looked for at
    /// handle `i` first — where a structure that registered its pairs as
    /// one batch into a fresh estimator finds it — and only then in the
    /// pair map.
    fn pair_good_counts(&self, pairs: &[(PathId, PathId)]) -> Result<Vec<usize>, MeasureError> {
        let mut counts = Vec::with_capacity(pairs.len());
        for (i, &pair) in pairs.iter().enumerate() {
            let handle = if self.pairs.get(i) == Some(&pair) {
                i
            } else {
                *self
                    .pair_index
                    .get(&pair_key(pair.0, pair.1))
                    .ok_or_else(|| {
                        MeasureError::Unregistered(format!("pair ({:?}, {:?})", pair.0, pair.1))
                    })?
            };
            counts.push(self.pair_good[handle]);
        }
        Ok(counts)
    }

    fn all_paths_good_count(&self) -> usize {
        self.all_good
    }

    fn pattern_count(&self, pattern: &BTreeSet<PathId>) -> Result<usize, MeasureError> {
        let slot = self
            .pattern_index
            .get(pattern)
            .ok_or_else(|| MeasureError::Unregistered(format!("pattern {pattern:?}")))?;
        Ok(self.pattern_matches[*slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Empirical `P(Y_a = 0, Y_b = 0)` of a registered pair.
    fn pair_good(est: &StreamingEstimator, a: usize, b: usize) -> Result<f64, MeasureError> {
        Ok(est.prob_pairs_good(&[(PathId(a), PathId(b))])?[0])
    }

    fn snapshots() -> Vec<[bool; 3]> {
        vec![
            [false, false, false],
            [true, false, false],
            [true, true, false],
            [false, false, false],
            [false, true, false],
            [true, true, false],
            [false, false, false],
            [false, false, true],
        ]
    }

    fn streamed() -> StreamingEstimator {
        let mut est = StreamingEstimator::new(3);
        est.register_pair(PathId(0), PathId(1)).unwrap();
        est.register_pattern(&BTreeSet::from([PathId(0), PathId(1)]))
            .unwrap();
        for s in snapshots() {
            est.push_snapshot(&s).unwrap();
        }
        est
    }

    #[test]
    fn accumulators_match_the_batch_estimator() {
        let est = streamed();
        let batch = est.batch().unwrap();
        assert_eq!(est.num_snapshots(), 8);
        for p in 0..3 {
            assert_eq!(
                est.prob_path_good(PathId(p)).unwrap(),
                batch.prob_path_good(PathId(p)).unwrap()
            );
        }
        assert_eq!(
            pair_good(&est, 0, 1).unwrap(),
            batch.prob_paths_good(&[PathId(0), PathId(1)]).unwrap()
        );
        assert_eq!(
            est.prob_all_paths_good().unwrap(),
            batch.prob_all_paths_good().unwrap()
        );
        let pattern = BTreeSet::from([PathId(0), PathId(1)]);
        assert_eq!(
            est.prob_exactly_congested(&pattern).unwrap(),
            batch.prob_exactly_congested(&pattern).unwrap()
        );
    }

    #[test]
    fn late_registration_catches_up() {
        // Register after every snapshot has already been pushed: the
        // catch-up scan must produce the same counts as live updates.
        let live = streamed();
        let mut late = StreamingEstimator::new(3);
        for s in snapshots() {
            late.push_snapshot(&s).unwrap();
        }
        let first = late.register_pair(PathId(1), PathId(0)).unwrap(); // reversed order
        late.register_pattern(&BTreeSet::from([PathId(0), PathId(1)]))
            .unwrap();
        assert_eq!(
            pair_good(&live, 0, 1).unwrap(),
            pair_good(&late, 0, 1).unwrap()
        );
        let pattern = BTreeSet::from([PathId(0), PathId(1)]);
        assert_eq!(
            live.prob_exactly_congested(&pattern).unwrap(),
            late.prob_exactly_congested(&pattern).unwrap()
        );
        // Registration is idempotent and returns the same handle, so the
        // next new pair takes the second slot.
        assert_eq!(late.register_pair(PathId(0), PathId(1)).unwrap(), first);
        assert_eq!(late.register_pair(PathId(0), PathId(2)).unwrap(), first + 1);
    }

    #[test]
    fn handle_queries_match_keyed_queries() {
        let mut est = StreamingEstimator::new(3);
        let h01 = est.register_pair(PathId(0), PathId(1)).unwrap();
        let h12 = est.register_pair(PathId(2), PathId(1)).unwrap();
        for s in snapshots() {
            est.push_snapshot(&s).unwrap();
        }
        assert_eq!(
            est.prob_pair_good_at(h01).unwrap(),
            pair_good(&est, 0, 1).unwrap()
        );
        assert_eq!(
            est.prob_pair_good_at(h12).unwrap(),
            pair_good(&est, 1, 2).unwrap()
        );
        // Handles follow registration order; a batch query in that order
        // reads them directly, any other order through the pair map.
        assert_eq!((h01, h12), (0, 1));
        let in_order = [(PathId(0), PathId(1)), (PathId(1), PathId(2))];
        let reversed = [(PathId(2), PathId(1)), (PathId(1), PathId(0))];
        assert_eq!(
            est.pair_good_counts(&in_order).unwrap(),
            est.pair_good_counts(&reversed)
                .unwrap()
                .into_iter()
                .rev()
                .collect::<Vec<_>>()
        );
        assert_eq!(
            est.prob_pairs_good(&in_order).unwrap(),
            vec![
                est.prob_pair_good_at(h01).unwrap(),
                est.prob_pair_good_at(h12).unwrap()
            ]
        );
        assert!(matches!(
            est.prob_pair_good_at(99),
            Err(MeasureError::Unregistered(_))
        ));
        assert!(matches!(
            est.pair_good_counts(&[(PathId(0), PathId(2))]),
            Err(MeasureError::Unregistered(_))
        ));
    }

    #[test]
    fn from_observations_seeds_path_accumulators() {
        let mut obs = PathObservations::new(3);
        for s in snapshots() {
            obs.record_snapshot(&s).unwrap();
        }
        let mut est = StreamingEstimator::from_observations(obs);
        assert_eq!(est.prob_path_congested(PathId(0)).unwrap(), 3.0 / 8.0);
        assert_eq!(est.prob_all_paths_good().unwrap(), 3.0 / 8.0);
        // Continues to stream.
        est.push_snapshot(&[false, false, false]).unwrap();
        assert_eq!(est.prob_all_paths_good().unwrap(), 4.0 / 9.0);
    }

    #[test]
    fn unregistered_queries_and_errors() {
        let est = streamed();
        assert!(matches!(
            pair_good(&est, 0, 2),
            Err(MeasureError::Unregistered(_))
        ));
        assert!(matches!(
            est.prob_exactly_congested(&BTreeSet::new()),
            Err(MeasureError::Unregistered(_))
        ));
        assert!(est.prob_path_congested(PathId(9)).is_err());
        let empty = StreamingEstimator::new(2);
        assert_eq!(empty.prob_all_paths_good(), Err(MeasureError::NoSnapshots));
        let mut bad = StreamingEstimator::new(2);
        assert!(bad.register_pair(PathId(0), PathId(5)).is_err());
        assert!(bad.push_snapshot(&[true]).is_err());
    }

    #[test]
    fn counters_only_counts_match_a_lane_keeping_estimator() {
        let pattern = BTreeSet::from([PathId(0), PathId(1)]);
        let mut counters = StreamingEstimator::counters_only(3);
        counters.register_pair(PathId(0), PathId(1)).unwrap();
        counters.register_pattern(&pattern).unwrap();
        for s in snapshots() {
            counters.push_snapshot(&s).unwrap();
        }
        let lanes = streamed();
        assert_eq!(counters.num_snapshots(), lanes.num_snapshots());
        assert!(counters.observations().is_empty());
        for p in 0..3 {
            assert_eq!(
                counters.congested_count(PathId(p)).unwrap(),
                lanes.congested_count(PathId(p)).unwrap()
            );
            assert_eq!(
                counters.log_prob_path_good(PathId(p)).unwrap().to_bits(),
                lanes.log_prob_path_good(PathId(p)).unwrap().to_bits()
            );
        }
        let pairs = [(PathId(0), PathId(1))];
        assert_eq!(
            counters.pair_good_counts(&pairs).unwrap(),
            lanes.pair_good_counts(&pairs).unwrap()
        );
        assert_eq!(
            counters.all_paths_good_count(),
            lanes.all_paths_good_count()
        );
        assert_eq!(
            counters.pattern_count(&pattern).unwrap(),
            lanes.pattern_count(&pattern).unwrap()
        );
    }

    #[test]
    fn counters_only_refuses_what_needs_the_snapshots() {
        let mut est = StreamingEstimator::counters_only(3);
        // Before the first push a registration has nothing to catch up on.
        est.register_pair(PathId(0), PathId(1)).unwrap();
        est.push_snapshot(&[true, false, false]).unwrap();
        // After it, the lanes a catch-up would scan were never kept.
        assert!(matches!(
            est.register_pair(PathId(1), PathId(2)),
            Err(MeasureError::NoLanes(_))
        ));
        assert!(matches!(
            est.register_pattern(&BTreeSet::from([PathId(2)])),
            Err(MeasureError::NoLanes(_))
        ));
        assert!(matches!(est.batch(), Err(MeasureError::NoLanes(_))));
        // Re-registering a known pair is still the idempotent lookup.
        assert_eq!(est.register_pair(PathId(1), PathId(0)).unwrap(), 0);
        // The refused registration left no pair behind.
        assert!(matches!(
            est.pair_good_counts(&[(PathId(1), PathId(2))]),
            Err(MeasureError::Unregistered(_))
        ));
        assert!(matches!(
            est.push_snapshot(&[true]),
            Err(MeasureError::WrongSnapshotWidth {
                expected: 3,
                actual: 1
            })
        ));
        assert_eq!(est.num_snapshots(), 1);
    }

    fn temp_history(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("netcorr_streaming_{tag}_{}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// A pseudo-random congestion pattern, deterministic per snapshot.
    fn wide_snapshot(paths: usize, s: usize) -> Vec<bool> {
        (0..paths)
            .map(|p| (s * 7 + p * 13).is_multiple_of(5) || (s + p).is_multiple_of(11))
            .collect()
    }

    #[test]
    fn attached_history_matches_uninterrupted_streaming() {
        let paths = 4;
        let pattern = BTreeSet::from([PathId(0), PathId(2)]);
        // 57 is deliberately not a multiple of 64: the base segment ends
        // mid-word, exercising the shifted merge and tail masks.
        for split in [0usize, 57, 64, 120] {
            let mut live = StreamingEstimator::new(paths);
            live.register_pair(PathId(0), PathId(1)).unwrap();
            live.register_pattern(&pattern).unwrap();
            let mut base_obs = PathObservations::new(paths);
            for s in 0..137 {
                let snap = wide_snapshot(paths, s);
                live.push_snapshot(&snap).unwrap();
                if s < split {
                    base_obs.record_snapshot(&snap).unwrap();
                }
            }

            let path = temp_history(&format!("attach{split}"), &base_obs.to_binary());
            let mapped = MappedObservations::open(&path).unwrap();
            let mut resumed = StreamingEstimator::new(paths);
            resumed.register_pair(PathId(0), PathId(1)).unwrap();
            assert_eq!(resumed.attach_history(mapped).unwrap(), split);
            assert_eq!(resumed.num_snapshots(), split);
            assert_eq!(resumed.base().unwrap().num_snapshots(), split);
            // Pattern registered *after* attaching: catch-up must read
            // the mapped base too.
            resumed.register_pattern(&pattern).unwrap();
            for s in split..137 {
                resumed.push_snapshot(&wide_snapshot(paths, s)).unwrap();
            }

            assert_eq!(resumed.num_snapshots(), 137);
            assert_eq!(resumed.base().unwrap().num_snapshots(), split);
            for p in 0..paths {
                assert_eq!(
                    live.prob_path_congested(PathId(p)).unwrap(),
                    resumed.prob_path_congested(PathId(p)).unwrap(),
                    "path {p}, split {split}"
                );
                assert_eq!(
                    live.log_prob_path_good(PathId(p)).unwrap(),
                    resumed.log_prob_path_good(PathId(p)).unwrap()
                );
            }
            assert_eq!(
                pair_good(&live, 0, 1).unwrap(),
                pair_good(&resumed, 0, 1).unwrap()
            );
            assert_eq!(
                live.prob_all_paths_good().unwrap(),
                resumed.prob_all_paths_good().unwrap()
            );
            assert_eq!(
                live.prob_exactly_congested(&pattern).unwrap(),
                resumed.prob_exactly_congested(&pattern).unwrap()
            );
            // Late pair registration with a base attached catches up
            // across base + delta.
            let mut both = (live.clone(), resumed);
            both.0.register_pair(PathId(2), PathId(3)).unwrap();
            both.1.register_pair(PathId(2), PathId(3)).unwrap();
            assert_eq!(
                pair_good(&both.0, 2, 3).unwrap(),
                pair_good(&both.1, 2, 3).unwrap()
            );
            // The serialized full history is byte-identical to the
            // uninterrupted store's serialization.
            let merged = both.1.base().unwrap().view();
            assert_eq!(
                merged.merged_binary(both.1.observations()).unwrap(),
                live.observations().to_binary()
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn counters_only_resumes_from_an_attached_history() {
        let paths = 4;
        let pattern = BTreeSet::from([PathId(1), PathId(3)]);
        let mut live = StreamingEstimator::new(paths);
        live.register_pair(PathId(0), PathId(2)).unwrap();
        live.register_pattern(&pattern).unwrap();
        let mut base = PathObservations::new(paths);
        for s in 0..150 {
            let snap = wide_snapshot(paths, s);
            live.push_snapshot(&snap).unwrap();
            if s < 70 {
                base.record_snapshot(&snap).unwrap();
            }
        }
        let path = temp_history("counters", &base.to_binary());
        let mut resumed = StreamingEstimator::counters_only(paths);
        resumed.register_pair(PathId(0), PathId(2)).unwrap();
        resumed
            .attach_history(MappedObservations::open(&path).unwrap())
            .unwrap();
        // Registered after attaching, before any push: caught up from the
        // base segment.
        resumed.register_pattern(&pattern).unwrap();
        for s in 70..150 {
            resumed.push_snapshot(&wide_snapshot(paths, s)).unwrap();
        }
        assert_eq!(resumed.num_snapshots(), 150);
        assert_eq!(resumed.base().unwrap().num_snapshots(), 70);
        assert!(resumed.observations().is_empty());
        assert_eq!(
            pair_good(&resumed, 0, 2).unwrap(),
            pair_good(&live, 0, 2).unwrap()
        );
        assert_eq!(
            resumed.prob_exactly_congested(&pattern).unwrap(),
            live.prob_exactly_congested(&pattern).unwrap()
        );
        assert_eq!(
            resumed.prob_all_paths_good().unwrap(),
            live.prob_all_paths_good().unwrap()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn history_binary_supports_another_restart_cycle() {
        // Persist → attach → push → persist → attach again: two restart
        // cycles end bit-identical to one uninterrupted run.
        let paths = 3;
        let mut live = StreamingEstimator::new(paths);
        let mut first = PathObservations::new(paths);
        for s in 0..90 {
            let snap = wide_snapshot(paths, s);
            live.push_snapshot(&snap).unwrap();
            if s < 30 {
                first.record_snapshot(&snap).unwrap();
            }
        }
        let path = temp_history("cycle", &first.to_binary());
        let mut mid = StreamingEstimator::new(paths);
        mid.attach_history(MappedObservations::open(&path).unwrap())
            .unwrap();
        for s in 30..60 {
            mid.push_snapshot(&wide_snapshot(paths, s)).unwrap();
        }
        let merged = mid.base().unwrap().view();
        let payload = merged.merged_binary(mid.observations()).unwrap();
        std::fs::write(&path, payload).unwrap();
        drop(mid);
        let mut last = StreamingEstimator::new(paths);
        last.attach_history(MappedObservations::open(&path).unwrap())
            .unwrap();
        for s in 60..90 {
            last.push_snapshot(&wide_snapshot(paths, s)).unwrap();
        }
        let merged = last.base().unwrap().view();
        assert_eq!(
            merged.merged_binary(last.observations()).unwrap(),
            live.observations().to_binary()
        );
        assert_eq!(
            last.prob_all_paths_good().unwrap(),
            live.prob_all_paths_good().unwrap()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn attach_history_misuse_errors() {
        let obs = {
            let mut o = PathObservations::new(2);
            o.record_snapshot(&[true, false]).unwrap();
            o.to_binary()
        };
        let path = temp_history("misuse", &obs);
        let mapped = MappedObservations::open(&path).unwrap();

        // Path-count mismatch.
        let mut wrong = StreamingEstimator::new(3);
        assert!(matches!(
            wrong.attach_history(mapped.clone()),
            Err(MeasureError::WrongSnapshotWidth {
                expected: 3,
                actual: 2
            })
        ));

        // Attach after snapshots were already pushed.
        let mut started = StreamingEstimator::new(2);
        started.push_snapshot(&[false, false]).unwrap();
        assert!(matches!(
            started.attach_history(mapped.clone()),
            Err(MeasureError::History(_))
        ));

        // Double attach.
        let mut est = StreamingEstimator::new(2);
        est.attach_history(mapped.clone()).unwrap();
        assert!(matches!(
            est.attach_history(mapped),
            Err(MeasureError::History(_))
        ));

        // Batch estimation is refused while a base is attached (the
        // owned store holds only the delta).
        assert!(matches!(est.batch(), Err(MeasureError::History(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn log_probabilities_match_batch_clamping() {
        let mut est = StreamingEstimator::new(2);
        est.register_pair(PathId(0), PathId(1)).unwrap();
        for _ in 0..10 {
            est.push_snapshot(&[true, false]).unwrap();
        }
        let batch = est.batch().unwrap();
        let pairs = [(PathId(0), PathId(1))];
        assert_eq!(
            est.log_prob_pairs_good(&pairs).unwrap(),
            batch.log_prob_pairs_good(&pairs).unwrap()
        );
        assert_eq!(
            est.log_prob_path_good(PathId(0)).unwrap(),
            batch.log_prob_paths_good(&[PathId(0)]).unwrap()
        );
    }
}
