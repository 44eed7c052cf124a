//! Crash states of the history rotation order. Each ack runs: unlink
//! `<path>.prev`, rename `<path>` to `<path>.prev`, stage the next
//! generation in a temporary file, rename that file to `<path>`, ack. A
//! crash between two steps leaves one of the states built here, each in
//! its own directory. For each, `recover_history` and a restarted service
//! must land on the last acked generation (or, once the new generation is
//! fully in place, on that one: the at-least-once boundary), `STATUS`
//! must report `history_recovered=` correctly, and the restarted service
//! must answer and continue exactly as one that saw only those ingests.

use std::path::{Path, PathBuf};

use netcorr_core::AlgorithmConfig;
use netcorr_eval::persist;
use netcorr_measure::PathObservations;
use netcorr_serve::protocol::execute;
use netcorr_serve::TomographyService;
use netcorr_topology::toy;

/// A deterministic block over Figure 1(a)'s three paths.
fn block(tag: usize, snapshots: usize) -> PathObservations {
    let mut b = PathObservations::new(3);
    for s in 0..snapshots {
        let k = s * 7 + tag * 13;
        b.record_snapshot(&[k.is_multiple_of(3), k % 4 == 1, k % 5 == 2])
            .unwrap();
    }
    b
}

fn service(history: Option<&Path>) -> TomographyService {
    let mut s = TomographyService::new(&toy::figure_1a(), &AlgorithmConfig::default()).unwrap();
    if let Some(path) = history {
        s.enable_history(path).unwrap();
    }
    s
}

fn status_line(service: &mut TomographyService) -> String {
    let mut empty: &[u8] = &[];
    execute(service, "STATUS", &mut empty).text
}

/// The blocks acked before the crash (generations 1–3) and the one whose
/// ack the crash interrupts (generation 4).
fn blocks() -> (Vec<PathObservations>, PathObservations) {
    (vec![block(1, 40), block(2, 30), block(3, 70)], block(4, 25))
}

fn concat(parts: &[PathObservations]) -> PathObservations {
    let mut all = PathObservations::new(3);
    for part in parts {
        all.concat(part).unwrap();
    }
    all
}

/// A directory whose history holds generations 1–3 as a daemon leaves
/// them: generation 3 at the path, generation 2 at `.prev`.
fn acked_history(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "netcorr_rotation_crash_{tag}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("history.ncobs3");
    let mut daemon = service(Some(&file));
    for b in &blocks().0 {
        daemon.ingest_observations(b).unwrap();
    }
    assert_eq!(daemon.status().history.unwrap().generation, 3);
    (dir, file)
}

/// The sealed bytes of generation `generation` over `parts`.
fn sealed(parts: &[PathObservations], generation: u64) -> Vec<u8> {
    persist::encode_history(&concat(parts).to_binary(), generation)
}

/// Restarts on the crashed directory and checks recovery, `STATUS`, the
/// answer, and that the next ingest writes the next generation byte for
/// byte.
fn check_restart(file: &Path, acked: &[PathObservations], generation: u64, recovered: bool) {
    let recovery = persist::recover_history(file).unwrap();
    assert_eq!(recovery.generation, generation);
    assert_eq!(recovery.recovered, recovered);
    assert_eq!(std::fs::read(file).unwrap(), sealed(acked, generation));

    let mut restarted = service(Some(file));
    let snapshots = concat(acked).num_snapshots();
    assert_eq!(restarted.num_snapshots(), snapshots);
    let status = status_line(&mut restarted);
    assert!(
        status.contains(&format!("history_snapshots={snapshots} ")),
        "{status}"
    );
    assert!(
        status.contains(&format!("history_generation={generation} ")),
        "{status}"
    );
    // The second recovery finds the promoted file in place: only the
    // first start after the crash recovers.
    assert!(status.ends_with("history_recovered=false"), "{status}");

    let mut clean = service(None);
    clean.ingest_observations(&concat(acked)).unwrap();
    assert_eq!(
        restarted.reinfer().unwrap().probabilities(),
        clean.reinfer().unwrap().probabilities()
    );

    let next = block(9, 33);
    restarted.ingest_observations(&next).unwrap();
    let mut continued = acked.to_vec();
    continued.push(next);
    assert_eq!(
        std::fs::read(file).unwrap(),
        sealed(&continued, generation + 1)
    );
}

/// Like [`check_restart`], but the service runs the recovery itself, so
/// its `STATUS` carries the recovery flag.
fn check_status_flag(file: &Path, recovered: bool) {
    let mut restarted = service(Some(file));
    let status = status_line(&mut restarted);
    assert!(
        status.ends_with(&format!("history_recovered={recovered}")),
        "{status}"
    );
}

#[test]
fn crash_after_the_prev_unlink_keeps_the_current_generation() {
    let (acked, _) = blocks();
    for flag_via_status in [false, true] {
        let (dir, file) = acked_history(&format!("unlinked_{flag_via_status}"));
        std::fs::remove_file(persist::history_prev_path(&file)).unwrap();
        if flag_via_status {
            check_status_flag(&file, false);
        } else {
            check_restart(&file, &acked, 3, false);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn crash_after_the_rename_promotes_prev() {
    let (acked, _) = blocks();
    for flag_via_status in [false, true] {
        let (dir, file) = acked_history(&format!("renamed_{flag_via_status}"));
        persist::rotate_history(&file).unwrap();
        assert!(!file.exists());
        if flag_via_status {
            check_status_flag(&file, true);
        } else {
            check_restart(&file, &acked, 3, true);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_staged_file_left_behind_is_ignored() {
    let (acked, interrupted) = blocks();
    let mut next = acked.clone();
    next.push(interrupted);
    let staged_bytes = sealed(&next, 4);
    // The staged write torn part way, and complete but never renamed.
    for (i, cut) in [staged_bytes.len() / 3, staged_bytes.len()]
        .into_iter()
        .enumerate()
    {
        for flag_via_status in [false, true] {
            let (dir, file) = acked_history(&format!("staged_{i}_{flag_via_status}"));
            persist::rotate_history(&file).unwrap();
            let staged = dir.join(".history.ncobs3.tmp.1.0");
            std::fs::write(&staged, &staged_bytes[..cut]).unwrap();
            if flag_via_status {
                check_status_flag(&file, true);
            } else {
                check_restart(&file, &acked, 3, true);
            }
            assert!(
                staged.exists(),
                "recovery must not read or move staged files"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn a_generation_in_place_but_unacked_recovers_forward() {
    let (acked, interrupted) = blocks();
    let mut next = acked.clone();
    next.push(interrupted);
    let (dir, file) = acked_history("written");
    persist::rotate_history(&file).unwrap();
    persist::atomic_write(&file, &sealed(&next, 4)).unwrap();
    check_restart(&file, &next, 4, false);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rotation_unlinks_prev_and_tolerates_its_absence() {
    let (dir, file) = acked_history("rotate");
    let prev = persist::history_prev_path(&file);
    let current = std::fs::read(&file).unwrap();
    persist::rotate_history(&file).unwrap();
    assert!(!file.exists());
    assert_eq!(std::fs::read(&prev).unwrap(), current);
    // No `.prev` to unlink: the rotation still renames.
    std::fs::rename(&prev, &file).unwrap();
    persist::rotate_history(&file).unwrap();
    assert_eq!(std::fs::read(&prev).unwrap(), current);
    // Nothing to rotate is an error.
    assert!(persist::rotate_history(&file).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
