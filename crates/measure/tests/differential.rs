//! Differential property tests over the estimator implementations:
//!
//! * the bit-packed estimator must agree **bit-exactly** with the scalar
//!   reference implementation on random observation matrices;
//! * the SIMD kernel tiers (AVX-512 / AVX2 / 4-wide portable /
//!   dispatcher) must agree bit-exactly with each other and with scalar
//!   counting — the AVX-512 assertions run only where the host supports
//!   `avx512f` + `avx512vpopcntdq` and skip cleanly elsewhere;
//! * the zero-copy memory tier (a [`ProbabilityEstimator`] borrowing a
//!   heap store's lanes, or served from a mapped file and its heap-read
//!   control arm) must agree bit-exactly with the owning estimator on
//!   every query family;
//! * the [`StreamingEstimator`]'s accumulators must agree bit-exactly
//!   with the batch estimator at **every prefix** of an interleaved
//!   push/query sequence, through every [`PathCounts`] method — with
//!   pairs queried both in registration order (read by handle position)
//!   and in reverse (read through the pair map).
//!
//! All of the above cover the four query families:
//!
//! 1. single-path marginals `P(Y_i = 0)` / `P(Y_i = 1)`;
//! 2. joint goodness `P(Y_{i1} = 0, ..., Y_{ik} = 0)` (including the
//!    batch pair API);
//! 3. all-paths-good `P(ψ(S) = ∅)`;
//! 4. exact congestion patterns `P(ψ(S) = ψ(A))` (including the batch
//!    API).
//!
//! Every implementation computes `count / num_snapshots` with integer
//! counts, so the assertions use `==`, not an epsilon.
//!
//! The random matrices span four cell densities (none, ~1%, half and all
//! congested) and up to 70 paths × 600 snapshots, so snapshots wider than
//! one word, multi-block exact-state sweeps, their early exits, and the
//! all-good sweep's saturation stop are all exercised.

use std::collections::BTreeSet;

use netcorr_measure::bitset::simd;
use netcorr_measure::reference::{ScalarEstimator, ScalarObservations};
use netcorr_measure::{
    MappedObservations, PathCounts, PathObservations, ProbabilityEstimator, StreamingEstimator,
};
use netcorr_topology::path::PathId;
use proptest::prelude::*;

/// Upper bounds of the random matrices; snapshot counts beyond 64 exercise
/// multi-word lanes and the tail-masking of the last word, beyond 512 more
/// than one exact-state block, and path counts beyond 64 multi-word
/// snapshots.
const MAX_PATHS: usize = 70;
const MAX_SNAPSHOTS: usize = 600;

/// Congested fraction of the cells, per mille, by density choice: none,
/// sparse, half, all.
const DENSITIES: [u32; 4] = [0, 10, 500, 1000];

/// Builds packed and scalar stores from the same random cell pool,
/// truncated to `paths × snapshots`.
fn build_both(
    paths: usize,
    snapshots: usize,
    cells: &[bool],
) -> (PathObservations, ScalarObservations) {
    let mut packed = PathObservations::new(paths);
    let mut scalar = ScalarObservations::new(paths);
    for s in 0..snapshots {
        let row = &cells[s * paths..(s + 1) * paths];
        packed.record_snapshot(row).unwrap();
        scalar.record_snapshot(row).unwrap();
    }
    (packed, scalar)
}

/// Strategy for the flattened cell pool (consumed row by row): uniform
/// per-mille draws, turned into cells by [`cells`].
fn cell_pool() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..1000, MAX_PATHS * MAX_SNAPSHOTS)
}

/// The pool's cells at density choice `density` (an index into
/// [`DENSITIES`]).
fn cells(density: usize, pool: &[u32]) -> Vec<bool> {
    pool.iter().map(|&draw| draw < DENSITIES[density]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn single_path_marginals_agree(
        paths in 1usize..=MAX_PATHS,
        snapshots in 1usize..=MAX_SNAPSHOTS,
        density in 0usize..DENSITIES.len(),
        pool in cell_pool(),
    ) {
        let cells = cells(density, &pool);
        let (packed, scalar) = build_both(paths, snapshots, &cells);
        let packed_est = ProbabilityEstimator::new(&packed).unwrap();
        let scalar_est = ScalarEstimator::new(&scalar).unwrap();
        for p in 0..paths {
            prop_assert_eq!(
                packed_est.prob_path_good(PathId(p)).unwrap(),
                scalar_est.prob_path_good(PathId(p)).unwrap()
            );
            prop_assert_eq!(
                packed_est.prob_path_congested(PathId(p)).unwrap(),
                scalar_est.prob_path_congested(PathId(p)).unwrap()
            );
        }
    }

    #[test]
    fn joint_goodness_agrees(
        paths in 1usize..=MAX_PATHS,
        snapshots in 1usize..=MAX_SNAPSHOTS,
        density in 0usize..DENSITIES.len(),
        pool in cell_pool(),
    ) {
        let cells = cells(density, &pool);
        let (packed, scalar) = build_both(paths, snapshots, &cells);
        let packed_est = ProbabilityEstimator::new(&packed).unwrap();
        let scalar_est = ScalarEstimator::new(&scalar).unwrap();
        // Every pair (including degenerate equal pairs), the full path
        // set, and the empty set.
        let mut pairs = Vec::new();
        for a in 0..paths {
            for b in a..paths {
                pairs.push((PathId(a), PathId(b)));
            }
        }
        let batch = packed_est.prob_pairs_good(&pairs).unwrap();
        let log_batch = packed_est.log_prob_pairs_good(&pairs).unwrap();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let expected = scalar_est.prob_paths_good(&[a, b]).unwrap();
            prop_assert_eq!(packed_est.prob_paths_good(&[a, b]).unwrap(), expected);
            prop_assert_eq!(batch[i], expected);
            prop_assert_eq!(log_batch[i], scalar_est.log_prob_paths_good(&[a, b]).unwrap());
        }
        let all: Vec<PathId> = (0..paths).map(PathId).collect();
        prop_assert_eq!(
            packed_est.prob_paths_good(&all).unwrap(),
            scalar_est.prob_paths_good(&all).unwrap()
        );
        prop_assert_eq!(
            packed_est.prob_paths_good(&[]).unwrap(),
            scalar_est.prob_paths_good(&[]).unwrap()
        );
    }

    #[test]
    fn all_paths_good_agrees(
        paths in 1usize..=MAX_PATHS,
        snapshots in 1usize..=MAX_SNAPSHOTS,
        density in 0usize..DENSITIES.len(),
        pool in cell_pool(),
    ) {
        let cells = cells(density, &pool);
        let (packed, scalar) = build_both(paths, snapshots, &cells);
        let packed_est = ProbabilityEstimator::new(&packed).unwrap();
        let scalar_est = ScalarEstimator::new(&scalar).unwrap();
        prop_assert_eq!(packed_est.prob_all_paths_good().unwrap(), scalar_est.prob_all_paths_good());
    }

    #[test]
    fn exact_patterns_agree(
        paths in 1usize..=MAX_PATHS,
        snapshots in 1usize..=MAX_SNAPSHOTS,
        density in 0usize..DENSITIES.len(),
        pool in cell_pool(),
        selector in 0u64..u64::MAX,
    ) {
        let cells = cells(density, &pool);
        let (packed, scalar) = build_both(paths, snapshots, &cells);
        let packed_est = ProbabilityEstimator::new(&packed).unwrap();
        let scalar_est = ScalarEstimator::new(&scalar).unwrap();
        // Patterns: empty, a random subset, every singleton, and the first
        // snapshot's own congestion set (guaranteeing a non-zero match).
        let mut patterns: Vec<BTreeSet<PathId>> = vec![BTreeSet::new()];
        patterns.push(
            (0..paths)
                .filter(|p| selector >> (p % 64) & 1 == 1)
                .map(PathId)
                .collect(),
        );
        for p in 0..paths {
            patterns.push(BTreeSet::from([PathId(p)]));
        }
        patterns.push(packed.congested_paths(0).into_iter().collect());
        let batch = packed_est.prob_exactly_congested_batch(&patterns).unwrap();
        for (i, pattern) in patterns.iter().enumerate() {
            let expected = scalar_est.prob_exactly_congested(pattern).unwrap();
            prop_assert_eq!(packed_est.prob_exactly_congested(pattern).unwrap(), expected);
            prop_assert_eq!(batch[i], expected);
        }
    }

    #[test]
    fn simd_portable_and_scalar_kernels_agree(
        paths in 1usize..=MAX_PATHS,
        snapshots in 1usize..=MAX_SNAPSHOTS,
        density in 0usize..DENSITIES.len(),
        pool in cell_pool(),
        selector in 0u64..u64::MAX,
    ) {
        let cells = cells(density, &pool);
        let (packed, _) = build_both(paths, snapshots, &cells);
        let lanes = packed.lanes();
        let used = lanes.used_words();
        let tail = lanes.last_word_mask();
        let cell = |s: usize, p: usize| cells[s * paths + p];

        // Family 2: pair-good kernel, every pair, all three tiers against
        // a scalar count over the raw cells.
        for a in 0..paths {
            for b in a..paths {
                let expected = (0..snapshots).filter(|&s| !cell(s, a) && !cell(s, b)).count();
                let la = lanes.lane(a);
                let lb = lanes.lane(b);
                prop_assert_eq!(simd::pair_good_count(la, lb, tail), expected);
                prop_assert_eq!(simd::pair_good_count_portable(la, lb, tail), expected);
                if let Some(avx2) = simd::pair_good_count_avx2(la, lb, tail) {
                    prop_assert_eq!(avx2, expected);
                }
                if let Some(avx512) = simd::pair_good_count_avx512(la, lb, tail) {
                    prop_assert_eq!(avx512, expected);
                }
            }
        }

        // Families 1–3: the k-lane all-good kernel on the selected subset
        // of paths (k = 0 is the vacuous count, k = 1 the marginal).
        let subset: Vec<usize> = (0..paths).filter(|p| selector >> (p % 64) & 1 == 1).collect();
        for lane_set in [Vec::new(), vec![subset.first().copied().unwrap_or(0)], subset] {
            let refs: Vec<&[u64]> = lane_set.iter().map(|&p| lanes.lane(p)).collect();
            let expected = (0..snapshots)
                .filter(|&s| lane_set.iter().all(|&p| !cell(s, p)))
                .count();
            prop_assert_eq!(simd::all_good_count(&refs, used, tail), expected);
            prop_assert_eq!(simd::all_good_count_portable(&refs, used, tail), expected);
            if let Some(avx2) = simd::all_good_count_avx2(&refs, used, tail) {
                prop_assert_eq!(avx2, expected);
            }
            if let Some(avx512) = simd::all_good_count_avx512(&refs, used, tail) {
                prop_assert_eq!(avx512, expected);
            }
        }
    }

    #[test]
    fn zero_copy_views_agree_with_the_owning_estimator(
        paths in 1usize..=MAX_PATHS,
        snapshots in 1usize..=MAX_SNAPSHOTS,
        density in 0usize..DENSITIES.len(),
        pool in cell_pool(),
        selector in 0u64..u64::MAX,
    ) {
        let cells = cells(density, &pool);
        let (packed, _) = build_both(paths, snapshots, &cells);
        let owning = ProbabilityEstimator::new(&packed).unwrap();

        // Three routes into the zero-copy tier: a borrow of the owned
        // store's lanes, and a memory-mapped v3 file (with its heap-read
        // control arm) — all must answer every query family
        // bit-identically.
        let file = std::env::temp_dir().join(format!(
            "netcorr_differential_view_{}",
            std::process::id()
        ));
        std::fs::write(&file, packed.to_binary()).unwrap();
        let mapped = MappedObservations::open(&file).unwrap();
        let heap_read = MappedObservations::open_heap(&file).unwrap();
        let views = [
            ProbabilityEstimator::from_lanes(packed.lanes().as_view()),
            mapped.view(),
            heap_read.view(),
        ];

        let mut pairs = Vec::new();
        for a in 0..paths {
            for b in a..paths {
                pairs.push((PathId(a), PathId(b)));
            }
        }
        let all: Vec<PathId> = (0..paths).map(PathId).collect();
        let pattern: BTreeSet<PathId> = (0..paths)
            .filter(|p| selector >> (p % 64) & 1 == 1)
            .map(PathId)
            .collect();
        let patterns = [BTreeSet::new(), pattern];

        for view in views {
            prop_assert_eq!(view.num_snapshots(), snapshots);
            prop_assert_eq!(view.probability_floor(), owning.probability_floor());
            for p in 0..paths {
                prop_assert_eq!(
                    view.prob_path_good(PathId(p)).unwrap(),
                    owning.prob_path_good(PathId(p)).unwrap()
                );
                prop_assert_eq!(
                    view.prob_path_congested(PathId(p)).unwrap(),
                    owning.prob_path_congested(PathId(p)).unwrap()
                );
            }
            prop_assert_eq!(
                view.prob_pairs_good(&pairs).unwrap(),
                owning.prob_pairs_good(&pairs).unwrap()
            );
            prop_assert_eq!(
                view.log_prob_pairs_good(&pairs).unwrap(),
                owning.log_prob_pairs_good(&pairs).unwrap()
            );
            prop_assert_eq!(
                view.prob_paths_good(&all).unwrap(),
                owning.prob_paths_good(&all).unwrap()
            );
            prop_assert_eq!(
                view.log_prob_paths_good(&all).unwrap(),
                owning.log_prob_paths_good(&all).unwrap()
            );
            prop_assert_eq!(
                view.prob_all_paths_good().unwrap(),
                owning.prob_all_paths_good().unwrap()
            );
            for pattern in &patterns {
                prop_assert_eq!(
                    view.prob_exactly_congested(pattern).unwrap(),
                    owning.prob_exactly_congested(pattern).unwrap()
                );
            }
            prop_assert_eq!(
                view.prob_exactly_congested_batch(&patterns).unwrap(),
                owning.prob_exactly_congested_batch(&patterns).unwrap()
            );
            prop_assert_eq!(view.ever_congested_paths(), owning.ever_congested_paths());
            prop_assert_eq!(view.to_observations(), packed.clone());
        }
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn streaming_matches_batch_under_interleaved_pushes_and_queries(
        paths in 1usize..=MAX_PATHS,
        snapshots in 1usize..=MAX_SNAPSHOTS,
        density in 0usize..DENSITIES.len(),
        pool in cell_pool(),
        selector in 0u64..u64::MAX,
    ) {
        let cells = cells(density, &pool);
        let mut streaming = StreamingEstimator::new(paths);
        // Register every pair and two patterns up front; one more pair and
        // pattern are registered mid-stream (exercising catch-up).
        let mut pairs = Vec::new();
        for a in 0..paths {
            for b in a..paths {
                pairs.push((PathId(a), PathId(b)));
            }
        }
        let (early_pairs, late_pairs) = pairs.split_at(pairs.len() / 2 + 1);
        streaming.register_pairs(early_pairs).unwrap();
        let pattern_a: BTreeSet<PathId> = (0..paths)
            .filter(|p| selector >> (p % 64) & 1 == 1)
            .map(PathId)
            .collect();
        let pattern_b = BTreeSet::new();
        streaming.register_pattern(&pattern_a).unwrap();

        let mut prefix = PathObservations::new(paths);
        for s in 0..snapshots {
            let row = &cells[s * paths..(s + 1) * paths];
            streaming.push_snapshot(row).unwrap();
            prefix.record_snapshot(row).unwrap();
            if s == snapshots / 2 {
                streaming.register_pairs(late_pairs).unwrap();
                streaming.register_pattern(&pattern_b).unwrap();
            }
            // Interleaved queries at a few prefixes (every 13th push and
            // the last), compared bit-exactly against a batch estimator
            // over the same prefix.
            if s % 13 != 0 && s + 1 != snapshots {
                continue;
            }
            let batch = ProbabilityEstimator::new(&prefix).unwrap();
            for p in 0..paths {
                prop_assert_eq!(
                    streaming.prob_path_good(PathId(p)).unwrap(),
                    batch.prob_path_good(PathId(p)).unwrap()
                );
                prop_assert_eq!(
                    streaming.log_prob_path_good(PathId(p)).unwrap(),
                    batch.log_prob_paths_good(&[PathId(p)]).unwrap()
                );
            }
            let registered: &[(PathId, PathId)] = if s >= snapshots / 2 {
                &pairs
            } else {
                early_pairs
            };
            prop_assert_eq!(
                streaming.prob_pairs_good(registered).unwrap(),
                batch.prob_pairs_good(registered).unwrap()
            );
            prop_assert_eq!(
                streaming.log_prob_pairs_good(registered).unwrap(),
                batch.log_prob_pairs_good(registered).unwrap()
            );
            let reversed: Vec<(PathId, PathId)> =
                registered.iter().rev().map(|&(a, b)| (b, a)).collect();
            prop_assert_eq!(
                streaming.pair_good_counts(&reversed).unwrap(),
                batch.pair_good_counts(&reversed).unwrap()
            );
            prop_assert_eq!(streaming.all_paths_good_count(), batch.all_paths_good_count());
            prop_assert_eq!(
                streaming.prob_all_paths_good().unwrap(),
                batch.prob_all_paths_good().unwrap()
            );
            prop_assert_eq!(
                streaming.prob_exactly_congested(&pattern_a).unwrap(),
                batch.prob_exactly_congested(&pattern_a).unwrap()
            );
            if s >= snapshots / 2 {
                prop_assert_eq!(
                    streaming.prob_exactly_congested(&pattern_b).unwrap(),
                    batch.prob_exactly_congested(&pattern_b).unwrap()
                );
            }
        }
        // The streaming store itself is identical to the replayed one.
        prop_assert_eq!(streaming.observations(), &prefix);
    }

    #[test]
    fn wire_round_trip_preserves_observations(
        paths in 1usize..=MAX_PATHS,
        snapshots in 1usize..=MAX_SNAPSHOTS,
        density in 0usize..DENSITIES.len(),
        pool in cell_pool(),
    ) {
        let cells = cells(density, &pool);
        let (packed, _) = build_both(paths, snapshots, &cells);
        let back = PathObservations::from_binary(&packed.to_binary()).unwrap();
        prop_assert_eq!(&back, &packed);
        // The round-tripped store answers queries identically.
        let a = ProbabilityEstimator::new(&packed).unwrap();
        let b = ProbabilityEstimator::new(&back).unwrap();
        prop_assert_eq!(a.prob_all_paths_good().unwrap(), b.prob_all_paths_good().unwrap());
    }
}
