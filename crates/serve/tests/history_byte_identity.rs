//! Property test for the daemon's kept history buffer: after every ingest
//! — acked or failed — the history file is byte for byte the sealed
//! serialization of exactly the acked snapshots,
//! `encode_history(merged_binary(acked), generation)`. Blocks of 1–130
//! snapshots go into a fresh history and into a preloaded one, so they
//! cross 64-snapshot word boundaries and start on them; failed writes
//! (a torn write reported as an error) are injected at random steps and
//! must leave memory and disk at the last acked generation. A service
//! restarted on the file mid-sequence continues byte for byte.

use std::path::{Path, PathBuf};

use netcorr_core::AlgorithmConfig;
use netcorr_eval::persist;
use netcorr_measure::{PathObservations, ProbabilityEstimator};
use netcorr_serve::faults::{FaultPlan, FaultProfile};
use netcorr_serve::{ServeError, TomographyService};
use netcorr_topology::toy;
use proptest::prelude::*;

/// SplitMix64 — seeded snapshot content.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic observation block over Figure 1(a)'s three paths.
fn block(seed: u64, tag: u64, snapshots: usize) -> PathObservations {
    let mut b = PathObservations::new(3);
    for s in 0..snapshots {
        let word = splitmix64(seed ^ tag.wrapping_mul(0x9e37_79b9).wrapping_add(s as u64));
        b.record_snapshot(&[word & 1 == 1, word & 2 == 2, word & 4 == 4])
            .unwrap();
    }
    b
}

fn start(path: &Path) -> TomographyService {
    let mut service =
        TomographyService::new(&toy::figure_1a(), &AlgorithmConfig::default()).unwrap();
    service.enable_history(path).unwrap();
    service
}

/// A plan whose first history write is torn and reported, not aborted.
fn failing_plan(seed: u64) -> FaultPlan {
    let mut profile = FaultProfile::torn_history(seed);
    profile.torn_write_aborts = false;
    profile.tear_history_write = 1;
    FaultPlan::seeded(seed, profile)
}

fn scratch_dir() -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "netcorr_history_bytes_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One ingest in a schedule: its block size and whether its write fails.
type Step = (usize, bool);

/// Runs `steps` against a history preloaded with `preload` snapshots (none:
/// a fresh file), restarting the service before step `restart_at`, and
/// checks the file and the service after every step.
fn run_schedule(seed: u64, preload: usize, steps: &[Step], restart_at: usize) {
    let dir = scratch_dir();
    let file = dir.join("history.ncobs3");
    let base = block(seed, u64::MAX, preload);
    let mut generation = 0;
    if preload > 0 {
        generation = 1;
        persist::atomic_write(&file, &persist::encode_history(&base.to_binary(), 1)).unwrap();
    }
    let mut acked = PathObservations::new(3);
    let mut service = start(&file);
    assert_eq!(service.num_snapshots(), preload);

    for (i, &(size, fails)) in steps.iter().enumerate() {
        if i == restart_at {
            drop(service);
            service = start(&file);
            assert_eq!(service.num_snapshots(), preload + acked.num_snapshots());
        }
        let next = block(seed, i as u64, size);
        if fails {
            service.set_fault_plan(&failing_plan(seed ^ i as u64));
            let err = service.ingest_observations(&next).unwrap_err();
            assert!(matches!(err, ServeError::Persist(_)), "step {i}: {err:?}");
            service.set_fault_plan(&FaultPlan::none());
        } else {
            assert_eq!(service.ingest_observations(&next).unwrap(), size);
            acked.concat(&next).unwrap();
            generation += 1;
        }

        let status = service.status();
        let history = status.history.expect("history enabled");
        assert_eq!(
            status.num_snapshots,
            preload + acked.num_snapshots(),
            "step {i}"
        );
        assert_eq!(
            history.snapshots,
            preload + acked.num_snapshots(),
            "step {i}"
        );
        assert_eq!(history.generation, generation, "step {i}");
        if generation == 0 {
            // Nothing acked yet: no generation is on disk to compare.
            continue;
        }
        let payload = if preload > 0 {
            ProbabilityEstimator::from_lanes(base.lanes().as_view())
                .merged_binary(&acked)
                .unwrap()
        } else {
            acked.to_binary()
        };
        let expected = persist::encode_history(&payload, generation);
        let on_disk = std::fs::read(&file).unwrap();
        assert_eq!(history.bytes, on_disk.len(), "step {i}");
        assert!(
            on_disk == expected,
            "step {i} ({size} snapshots, fails={fails}): the file is not the acked generation"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A schedule that pins the word-boundary cases: blocks that start on a
/// boundary (after 64 and 128 acked), fill a word exactly, cross one and
/// two boundaries, and fail on each of those shapes before succeeding.
#[test]
fn word_boundary_schedule_is_byte_identical() {
    let steps: &[Step] = &[
        (64, false),
        (64, true),
        (64, false),
        (1, false),
        (63, false),
        (130, true),
        (130, false),
        (2, true),
        (62, false),
        (65, false),
    ];
    for preload in [0, 64, 100] {
        for restart_at in [0, 3, steps.len()] {
            run_schedule(11, preload, steps, restart_at);
        }
    }
}

/// A step drawn from one random word: sizes 1–130 with extra weight on
/// whole words (64 and 128), failing about three times in ten.
fn step(word: u64) -> Step {
    let size = match word % 8 {
        0 => 64,
        1 => 128,
        _ => 1 + ((word >> 8) % 130) as usize,
    };
    (size, (word >> 40) % 10 < 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_step_leaves_the_acked_generation_on_disk(
        seed in 0u64..=u64::MAX,
        preload_kind in 0usize..4,
        preload_len in 1usize..=200,
        words in prop::collection::vec(0u64..=u64::MAX, 1..=10),
        restart_at in 0usize..=10,
    ) {
        // A fresh history, one that ends on a word boundary, or any length.
        let preload = [0, 64, 128, preload_len][preload_kind];
        let steps: Vec<Step> = words.into_iter().map(step).collect();
        run_schedule(seed, preload, &steps, restart_at);
    }
}
