//! Persistence of recorded observations.
//!
//! Experiments at production scale are expensive to simulate (or, in a
//! real deployment, to measure); persisting the [`PathObservations`] of a
//! trial lets inference be re-run — with different algorithm
//! configurations, or after a code change — without re-measuring. There
//! is one on-disk encoding, the binary lane-word block pinned by
//! [`netcorr_measure::observation::BINARY_MAGIC`] (`v3`): the raw
//! little-endian lane words behind a fixed header, loadable into the
//! packed lanes without per-bit parsing. A daemon history file is the
//! same block sealed by a trailing generation footer
//! ([`encode_history`]).
//!
//! [`read_observations`] loads either form (bare or sealed) by copying
//! the words. [`map_observations`] opens a bare `v3` file through the
//! zero-copy tier instead — the lane words are memory-mapped and served
//! in place (see [`netcorr_measure::MappedObservations`]), so a
//! multi-gigabyte history becomes query-ready without the word copy a
//! [`read_observations`] load pays; [`map_observations_prefix`] does the
//! same for a sealed history's payload.
//!
//! Writes are atomic ([`atomic_write`]: stage in the same directory, then
//! rename) but never fsync'd: a written file survives a killed process,
//! not a power loss or kernel crash.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use netcorr_measure::observation::{parse_binary_header, BINARY_HEADER_LEN};
use netcorr_measure::{MappedObservations, PathObservations};

use crate::error::EvalError;

/// Builds the [`EvalError::Persist`] for a failure at `path`.
fn persist_err(path: &Path, cause: impl std::fmt::Display) -> EvalError {
    EvalError::Persist {
        path: path.display().to_string(),
        cause: cause.to_string(),
    }
}

/// Per-process staging counter, so concurrent writers to the same target
/// never share a temp file.
static STAGE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to a unique temporary file **in the same directory** as
/// `path` (so the commit rename below cannot cross a filesystem boundary)
/// and returns the staged path. Until [`commit`] renames it over the
/// target, the target is untouched — a writer that crashes mid-write
/// leaves only an orphaned `.tmp` file, never a torn target.
fn stage(path: &Path, bytes: &[u8]) -> Result<PathBuf, EvalError> {
    let file_name = path
        .file_name()
        .ok_or_else(|| persist_err(path, "path has no file name"))?;
    let tag = STAGE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp_name = format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        tag
    );
    let tmp = path.with_file_name(tmp_name);
    fs::write(&tmp, bytes).map_err(|e| persist_err(&tmp, e))?;
    Ok(tmp)
}

/// Atomically publishes a staged file at the target path.
fn commit(tmp: &Path, path: &Path) -> Result<(), EvalError> {
    fs::rename(tmp, path).map_err(|e| {
        // Leave no orphan behind on a failed publish; the error reported
        // is the rename failure, not the (best-effort) cleanup.
        let _ = fs::remove_file(tmp);
        persist_err(path, e)
    })
}

/// Atomically replaces the file at `path` with `bytes`: the content is
/// staged to a temporary file in the same directory and renamed over the
/// target, so readers (and format sniffers) only ever see the old complete
/// file or the new complete file — never a torn intermediate, even if the
/// writer crashes mid-write or two writers race. Parent directories are
/// created as needed.
///
/// Public because the serve daemon persists its observation history
/// through this path: rename-replacement never truncates the published
/// file in place, so a mapping of the *previous* history file
/// ([`map_observations`]) stays valid while the new one is written.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), EvalError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| persist_err(path, e))?;
        }
    }
    let tmp = stage(path, bytes)?;
    commit(&tmp, path)
}

/// Writes observations to `path` in the binary (`v3`) wire format,
/// atomically (temp file + rename) and creating parent directories as
/// needed.
pub fn write_observations(path: &Path, observations: &PathObservations) -> Result<(), EvalError> {
    atomic_write(path, &observations.to_binary())
}

/// Reads observations previously written by [`write_observations`], or
/// the payload of a sealed history file ([`encode_history`]).
///
/// Every failure — the read itself, a corrupt or non-`v3` block — is
/// reported as [`EvalError::Persist`] carrying the file path and the
/// underlying cause.
pub fn read_observations(path: &Path) -> Result<PathObservations, EvalError> {
    let bytes = fs::read(path).map_err(|e| persist_err(path, e))?;
    // A validated footer locates the payload; anything else is parsed
    // as a bare v3 block.
    let payload_len = validate_history_bytes(&bytes).map_or(bytes.len(), |f| f.payload_len);
    PathObservations::from_binary(&bytes[..payload_len])
        .map_err(|e| persist_err(path, format!("invalid binary v3 observations: {e}")))
}

/// Opens a binary (`v3`) observation file through the zero-copy tier:
/// the file is memory-mapped (heap fallback off Linux/x86-64), the
/// header and per-lane zero-tail invariant are validated, and the lane
/// words are served in place — no copy. Corrupt or non-`v3` files
/// (truncated, dirty tails, bad magic) surface as [`EvalError::Persist`]
/// carrying the file path, never a panic.
pub fn map_observations(path: &Path) -> Result<MappedObservations, EvalError> {
    MappedObservations::open(path).map_err(|e| persist_err(path, e))
}

/// Like [`map_observations`], but only the first `payload_len` bytes of
/// the file are treated as the v3 block — the prefix-aware open used for
/// crash-safe history files, whose trailing
/// [`HISTORY_FOOTER_LEN`]-byte generation footer must stay invisible to
/// the lane-word view.
pub fn map_observations_prefix(
    path: &Path,
    payload_len: usize,
) -> Result<MappedObservations, EvalError> {
    MappedObservations::open_prefix(path, payload_len).map_err(|e| persist_err(path, e))
}

/// Magic bytes opening the crash-safe history footer (`netcorr history
/// generation v1`). The footer trails the v3 payload:
///
/// ```text
/// <v3 observation block>            the payload (header + lane words)
/// NCHGEN1\n                         footer magic
/// generation   u64 LE               1-based ingest generation counter
/// payload_len  u64 LE               byte length of the v3 block above
/// checksum     u64 LE               history_checksum(payload, generation)
/// ```
///
/// The footer is self-locating from the end of the file, so a reader can
/// validate a history file without knowing its generation in advance,
/// and any strict prefix of the file (a torn write) fails validation:
/// either the trailing magic is gone, or `payload_len` no longer matches
/// the file length.
pub const HISTORY_FOOTER_MAGIC: &[u8; 8] = b"NCHGEN1\n";

/// Byte length of the history footer (magic + generation + payload
/// length + checksum).
pub const HISTORY_FOOTER_LEN: usize = 32;

/// Checksum sealing a history generation: a 64-bit FNV-1a variant folded
/// over whole little-endian words (fast enough to stay well under the
/// mapped-attach cost on large histories), keyed by the generation and
/// closed over the payload length so truncations and padding collide
/// with nothing.
pub fn history_checksum(payload: &[u8], generation: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET ^ generation.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut chunks = payload.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(PRIME);
        h ^= h >> 29;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(buf)).wrapping_mul(PRIME);
        h ^= h >> 29;
    }
    h = (h ^ payload.len() as u64).wrapping_mul(PRIME);
    h ^ (h >> 31)
}

/// Seals a v3 observation payload into the on-disk history layout:
/// payload followed by the [`HISTORY_FOOTER_MAGIC`] footer for
/// `generation`.
pub fn encode_history(payload: &[u8], generation: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + HISTORY_FOOTER_LEN);
    out.extend_from_slice(payload);
    out.extend_from_slice(HISTORY_FOOTER_MAGIC);
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&history_checksum(payload, generation).to_le_bytes());
    out
}

/// Where the previous fully-acked generation of `path` is rotated to
/// before each history write (`<path>.prev`).
pub fn history_prev_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".prev");
    PathBuf::from(name)
}

/// Where an unrecoverable torn history file is quarantined
/// (`<path>.torn`) so recovery can proceed without destroying the
/// forensic evidence.
pub fn history_torn_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".torn");
    PathBuf::from(name)
}

/// A validated history file: its generation and the byte length of the
/// v3 payload it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryFooter {
    /// 1-based ingest generation (0 for legacy footer-less files).
    pub generation: u64,
    /// Byte length of the v3 observation payload.
    pub payload_len: usize,
    /// Whether the file carried an explicit footer (`false` for legacy
    /// footer-less v3 files, accepted as generation 0).
    pub footered: bool,
}

/// Validates an in-memory history image: either a footered file (magic
/// in place, `payload_len` consistent with the file length, checksum
/// matching, payload header parseable) or a legacy footer-less v3 block
/// (accepted as generation 0 so pre-footer histories keep loading).
/// Returns `None` for anything torn or corrupt.
pub fn validate_history_bytes(bytes: &[u8]) -> Option<HistoryFooter> {
    if bytes.len() >= BINARY_HEADER_LEN + HISTORY_FOOTER_LEN {
        let foot = &bytes[bytes.len() - HISTORY_FOOTER_LEN..];
        if &foot[..8] == HISTORY_FOOTER_MAGIC {
            let generation = u64::from_le_bytes(foot[8..16].try_into().expect("8 bytes"));
            let payload_len = usize::try_from(u64::from_le_bytes(
                foot[16..24].try_into().expect("8 bytes"),
            ))
            .ok()?;
            let checksum = u64::from_le_bytes(foot[24..32].try_into().expect("8 bytes"));
            if payload_len == bytes.len() - HISTORY_FOOTER_LEN
                && checksum == history_checksum(&bytes[..payload_len], generation)
                && parse_binary_header(&bytes[..payload_len]).is_ok()
            {
                return Some(HistoryFooter {
                    generation,
                    payload_len,
                    footered: true,
                });
            }
            return None;
        }
    }
    if parse_binary_header(bytes).is_ok() {
        return Some(HistoryFooter {
            generation: 0,
            payload_len: bytes.len(),
            footered: false,
        });
    }
    None
}

/// The outcome of [`recover_history`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryRecovery {
    /// Byte length of the valid v3 payload now at the primary path, or
    /// `None` when no usable history exists (start fresh).
    pub payload_len: Option<usize>,
    /// Generation of the recovered history (0 when fresh or legacy).
    pub generation: u64,
    /// Whether startup had to fall back — a torn or missing current
    /// file was replaced by the rotated previous generation (or
    /// discarded entirely when no previous generation existed).
    pub recovered: bool,
}

fn read_if_exists(path: &Path) -> Result<Option<Vec<u8>>, EvalError> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(persist_err(path, e)),
    }
}

/// Crash-safe history startup: validates the file at `path` and falls
/// back to the rotated `<path>.prev` generation when the current file is
/// torn or missing, so a daemon restarted after a crash mid-write
/// resumes from the last fully-acked generation instead of refusing to
/// start.
///
/// The single-crash model this recovers from is the write protocol used
/// by the serving layer: rotate current → `.prev`, then write the new
/// generation at `path`, then ack. Outcomes:
///
/// * current valid → use it (`recovered = false`);
/// * current torn or missing, `.prev` valid → promote `.prev` back to
///   `path` (atomically), quarantine the torn bytes at `<path>.torn`,
///   `recovered = true`;
/// * current torn, no `.prev` → the very first generation tore:
///   quarantine and start fresh (`payload_len = None`, `recovered =
///   true`);
/// * neither file exists → fresh history, `recovered = false`;
/// * both files torn → an error: that takes two independent corruptions
///   and is outside the crash model, so it is surfaced instead of
///   silently discarding data.
///
/// A footer-less current file next to a *footered* `.prev` is treated as
/// torn (a legacy file can never coexist with a footered rotation — only
/// a write torn exactly at the payload boundary produces that shape).
pub fn recover_history(path: &Path) -> Result<HistoryRecovery, EvalError> {
    let prev_path = history_prev_path(path);
    let current = read_if_exists(path)?;
    let previous = read_if_exists(&prev_path)?;
    let current_footer = current.as_deref().and_then(validate_history_bytes);
    let prev_footer = previous.as_deref().and_then(validate_history_bytes);

    if let Some(footer) = current_footer {
        let torn_at_payload_boundary = !footer.footered && prev_footer.is_some_and(|p| p.footered);
        if !torn_at_payload_boundary {
            return Ok(HistoryRecovery {
                payload_len: Some(footer.payload_len),
                generation: footer.generation,
                recovered: false,
            });
        }
    }

    let quarantine_current = || {
        if current.is_some() {
            let _ = fs::rename(path, history_torn_path(path));
        }
    };

    match (prev_footer, previous) {
        (Some(footer), Some(bytes)) => {
            quarantine_current();
            atomic_write(path, &bytes)?;
            Ok(HistoryRecovery {
                payload_len: Some(footer.payload_len),
                generation: footer.generation,
                recovered: true,
            })
        }
        (None, Some(_)) => Err(persist_err(
            path,
            format!(
                "history file and its rotated previous generation ({}) are both corrupt; \
                 refusing to guess which bytes to trust",
                prev_path.display()
            ),
        )),
        (_, None) => {
            let torn = current.is_some();
            quarantine_current();
            Ok(HistoryRecovery {
                payload_len: None,
                generation: 0,
                recovered: torn,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcorr_sim::{SimulationConfig, Simulator};
    use netcorr_topology::toy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn observations_round_trip_through_disk() {
        let inst = toy::figure_1a();
        let model = netcorr_sim::CongestionModelBuilder::new(&inst.correlation)
            .joint_group(
                &[
                    netcorr_topology::graph::LinkId(0),
                    netcorr_topology::graph::LinkId(1),
                ],
                0.2,
            )
            .independent(netcorr_topology::graph::LinkId(2), 0.1)
            .independent(netcorr_topology::graph::LinkId(3), 0.1)
            .build()
            .unwrap();
        let sim = Simulator::new(&inst, &model, SimulationConfig::default()).unwrap();
        let obs = sim.run(500, &mut StdRng::seed_from_u64(3));

        let dir = std::env::temp_dir().join("netcorr_eval_persist_test");
        let file = dir.join("observations.ncobs");
        write_observations(&file, &obs).unwrap();
        let back = read_observations(&file).unwrap();
        assert_eq!(obs, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn fig1a_simulator() -> (
        netcorr_topology::TopologyInstance,
        netcorr_sim::CongestionModel,
    ) {
        let inst = toy::figure_1a();
        let model = netcorr_sim::CongestionModelBuilder::new(&inst.correlation)
            .joint_group(
                &[
                    netcorr_topology::graph::LinkId(0),
                    netcorr_topology::graph::LinkId(1),
                ],
                0.2,
            )
            .independent(netcorr_topology::graph::LinkId(2), 0.1)
            .independent(netcorr_topology::graph::LinkId(3), 0.1)
            .build()
            .unwrap();
        (inst, model)
    }

    #[test]
    fn binary_observations_round_trip_and_sniff() {
        let (inst, model) = fig1a_simulator();
        let sim = Simulator::new(&inst, &model, SimulationConfig::default()).unwrap();
        let obs = sim.run(300, &mut StdRng::seed_from_u64(9));

        let dir = std::env::temp_dir().join("netcorr_eval_persist_binary_test");
        let bare_file = dir.join("observations.ncobs3");
        let sealed_file = dir.join("history.ncobs3");
        write_observations(&bare_file, &obs).unwrap();
        atomic_write(&sealed_file, &encode_history(&obs.to_binary(), 4)).unwrap();
        // The file is exactly the v3 block: header plus one bit per cell.
        let bare_len = std::fs::metadata(&bare_file).unwrap().len() as usize;
        assert_eq!(
            bare_len,
            BINARY_HEADER_LEN + obs.num_paths() * 300usize.div_ceil(64) * 8
        );
        // `read_observations` sniffs a bare block and a sealed history.
        assert_eq!(read_observations(&bare_file).unwrap(), obs);
        assert_eq!(read_observations(&sealed_file).unwrap(), obs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mapped_observations_match_the_copying_loader() {
        let (inst, model) = fig1a_simulator();
        let sim = Simulator::new(&inst, &model, SimulationConfig::default()).unwrap();
        let obs = sim.run(250, &mut StdRng::seed_from_u64(13));

        let dir = std::env::temp_dir().join("netcorr_eval_persist_map_test");
        let file = dir.join("observations.ncobs3");
        write_observations(&file, &obs).unwrap();
        let mapped = map_observations(&file).unwrap();
        assert_eq!(mapped.num_paths(), obs.num_paths());
        assert_eq!(mapped.num_snapshots(), 250);
        assert_eq!(mapped.view().to_observations(), obs);
        assert_eq!(read_observations(&file).unwrap(), obs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_mapped_files_error_with_the_file_path() {
        let (inst, model) = fig1a_simulator();
        let sim = Simulator::new(&inst, &model, SimulationConfig::default()).unwrap();
        let obs = sim.run(100, &mut StdRng::seed_from_u64(14));
        let dir = std::env::temp_dir().join("netcorr_eval_persist_map_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("history.ncobs3");
        let block = obs.to_binary();

        let expect_persist = |fragment: &str| match map_observations(&file) {
            Err(EvalError::Persist { path, cause }) => {
                assert!(path.contains("history.ncobs3"), "{path}");
                assert!(cause.contains(fragment), "{cause}");
            }
            other => panic!("expected a Persist error, got {other:?}"),
        };

        // Truncated lane region.
        std::fs::write(&file, &block[..block.len() - 8]).unwrap();
        expect_persist("expected");
        // Dirty tail: a bit set beyond the declared snapshot count.
        let mut dirty = block.clone();
        let last = dirty.len() - 1;
        dirty[last] |= 0x80;
        std::fs::write(&file, &dirty).unwrap();
        expect_persist("beyond slot");
        // Bytes without the v3 magic cannot be mapped.
        std::fs::write(&file, b"paths 3\nsnapshots 100\nlane 0000000000000006\n").unwrap();
        expect_persist("magic");
        // Both loaders agree the *same* corrupt file is corrupt.
        std::fs::write(&file, &block[..block.len() - 8]).unwrap();
        assert!(read_observations(&file).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_writes_never_become_visible_at_the_target_path() {
        let (inst, model) = fig1a_simulator();
        let sim = Simulator::new(&inst, &model, SimulationConfig::default()).unwrap();
        let obs = sim.run(200, &mut StdRng::seed_from_u64(5));

        let dir = std::env::temp_dir().join("netcorr_eval_persist_atomic_test");
        std::fs::remove_dir_all(&dir).ok();
        let file = dir.join("observations.ncobs3");
        write_observations(&file, &obs).unwrap();

        // Simulate a writer that crashes mid-write: the staged temp file
        // exists (in the same directory, so the commit rename would be
        // atomic), but the commit never happens. The target file still
        // holds the previous complete content — a reader never sees the
        // torn bytes.
        let torn = &obs.to_binary()[..10];
        let staged = stage(&file, torn).unwrap();
        assert!(staged.exists());
        assert_eq!(staged.parent(), file.parent());
        assert_ne!(staged, file);
        assert_eq!(read_observations(&file).unwrap(), obs);

        // A second writer completing normally replaces the target wholly,
        // regardless of the orphaned staging file.
        let other = sim.run(100, &mut StdRng::seed_from_u64(6));
        write_observations(&file, &other).unwrap();
        assert_eq!(read_observations(&file).unwrap(), other);

        // Committing the stale staged bytes is the crash-free path of the
        // same writer; only then does the target change.
        commit(&staged, &file).unwrap();
        assert!(!staged.exists());
        assert!(read_observations(&file).is_err(), "torn bytes now visible");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Distinct observation block for history tests: `n` snapshots over
    /// 3 paths with a `tag`-dependent pattern.
    fn history_block(tag: usize, n: usize) -> PathObservations {
        let mut obs = PathObservations::new(3);
        let mut row = [false; 3];
        for s in 0..n {
            for (p, bit) in row.iter_mut().enumerate() {
                *bit = (s * 7 + p * 5 + tag * 3).is_multiple_of(4);
            }
            obs.record_snapshot(&row).unwrap();
        }
        obs
    }

    #[test]
    fn history_footer_round_trips_and_rejects_corruption() {
        let payload = history_block(1, 40).to_binary();
        let sealed = encode_history(&payload, 7);
        assert_eq!(sealed.len(), payload.len() + HISTORY_FOOTER_LEN);
        let footer = validate_history_bytes(&sealed).expect("sealed file validates");
        assert_eq!(footer.generation, 7);
        assert_eq!(footer.payload_len, payload.len());
        assert!(footer.footered);

        // A legacy footer-less v3 block is accepted as generation 0.
        let legacy = validate_history_bytes(&payload).expect("legacy file validates");
        assert_eq!(legacy.generation, 0);
        assert!(!legacy.footered);

        // Every strict prefix of the sealed file fails validation as a
        // footered file; the only prefix that validates at all is the
        // exact payload boundary (indistinguishable from a legacy file,
        // handled by recover_history's rotation rule).
        for cut in 0..sealed.len() {
            match validate_history_bytes(&sealed[..cut]) {
                None => {}
                Some(f) => {
                    assert!(!f.footered, "torn prefix at {cut} validated as footered");
                    assert_eq!(cut, payload.len(), "unexpected valid prefix at {cut}");
                }
            }
        }

        // A flipped payload byte breaks the checksum.
        let mut flipped = sealed.clone();
        flipped[BINARY_HEADER_LEN + 3] ^= 0x01;
        assert!(validate_history_bytes(&flipped).is_none());
        // A flipped generation breaks the checksum too.
        let mut regen = sealed.clone();
        regen[payload.len() + 8] ^= 0x01;
        assert!(validate_history_bytes(&regen).is_none());
        // Checksums are generation-keyed: same payload, different
        // generation, different checksum.
        assert_ne!(history_checksum(&payload, 1), history_checksum(&payload, 2));
    }

    #[test]
    fn history_recovery_promotes_the_previous_generation() {
        let dir = std::env::temp_dir().join("netcorr_eval_persist_recover_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("history.ncobs3");
        let prev = history_prev_path(&file);

        // No files at all: fresh, not recovered.
        let fresh = recover_history(&file).unwrap();
        assert_eq!(fresh.payload_len, None);
        assert!(!fresh.recovered);

        // A valid current file is used as-is.
        let gen1 = encode_history(&history_block(1, 30).to_binary(), 1);
        std::fs::write(&file, &gen1).unwrap();
        let ok = recover_history(&file).unwrap();
        assert_eq!(ok.generation, 1);
        assert_eq!(ok.payload_len, Some(gen1.len() - HISTORY_FOOTER_LEN));
        assert!(!ok.recovered);

        // Torn current at EVERY byte offset + valid .prev: recovery
        // always lands on the previous generation, never a partial one.
        let gen2_payload = {
            let mut merged = history_block(1, 30);
            merged.concat(&history_block(2, 25)).unwrap();
            merged.to_binary()
        };
        let gen2 = encode_history(&gen2_payload, 2);
        for cut in 0..gen2.len() {
            std::fs::write(&prev, &gen1).unwrap();
            std::fs::write(&file, &gen2[..cut]).unwrap();
            let r = recover_history(&file)
                .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
            assert_eq!(r.generation, 1, "cut {cut}");
            assert!(r.recovered, "cut {cut}");
            assert_eq!(std::fs::read(&file).unwrap(), gen1, "cut {cut}");
        }
        // The completed write (crash after write, before ack) recovers
        // forward to generation 2 — the at-least-once boundary.
        std::fs::write(&prev, &gen1).unwrap();
        std::fs::write(&file, &gen2).unwrap();
        let forward = recover_history(&file).unwrap();
        assert_eq!(forward.generation, 2);
        assert!(!forward.recovered);

        // Current missing entirely (crash between rotate and write).
        std::fs::remove_file(&file).unwrap();
        let promoted = recover_history(&file).unwrap();
        assert_eq!(promoted.generation, 1);
        assert!(promoted.recovered);
        assert_eq!(std::fs::read(&file).unwrap(), gen1);

        // First-generation tear, no .prev: quarantined, fresh start.
        std::fs::remove_file(&prev).unwrap();
        std::fs::write(&file, &gen1[..10]).unwrap();
        let torn = recover_history(&file).unwrap();
        assert_eq!(torn.payload_len, None);
        assert!(torn.recovered);
        assert!(!file.exists());
        assert!(history_torn_path(&file).exists());

        // Both torn: an error, not silent data loss.
        std::fs::write(&file, &gen2[..13]).unwrap();
        std::fs::write(&prev, &gen1[..11]).unwrap();
        match recover_history(&file) {
            Err(EvalError::Persist { cause, .. }) => {
                assert!(cause.contains("both corrupt"), "{cause}");
            }
            other => panic!("expected a Persist error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn footered_history_files_map_through_the_prefix_open() {
        let dir = std::env::temp_dir().join("netcorr_eval_persist_prefix_map_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("history.ncobs3");
        let obs = history_block(3, 64);
        let payload = obs.to_binary();
        std::fs::write(&file, encode_history(&payload, 5)).unwrap();

        let footer = validate_history_bytes(&std::fs::read(&file).unwrap()).unwrap();
        let mapped = map_observations_prefix(&file, footer.payload_len).unwrap();
        assert_eq!(mapped.num_snapshots(), 64);
        assert_eq!(mapped.view().to_observations(), obs);
        // The whole-file open rejects the footered layout, so the prefix
        // form is the only way in.
        assert!(map_observations(&file).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_files_are_rejected() {
        let dir = std::env::temp_dir().join("netcorr_eval_persist_corrupt_test");
        let file = dir.join("observations.ncobs");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&file, "not the wire format, just a line of text").unwrap();
        // A parse failure names the file and carries the parser's cause.
        match read_observations(&file) {
            Err(EvalError::Persist { path, cause }) => {
                assert!(path.contains("observations.ncobs"), "{path}");
                assert!(cause.contains("bad magic"), "{cause}");
            }
            other => panic!("expected a Persist error, got {other:?}"),
        }
        // A failed read (missing file) does too, with the I/O cause.
        match read_observations(&dir.join("missing.ncobs")) {
            Err(EvalError::Persist { path, cause }) => {
                assert!(path.contains("missing.ncobs"), "{path}");
                assert!(!cause.is_empty());
            }
            other => panic!("expected a Persist error, got {other:?}"),
        }
        // A corrupt binary v3 block keeps the underlying parse error.
        let (inst, model) = fig1a_simulator();
        let sim = Simulator::new(&inst, &model, SimulationConfig::default()).unwrap();
        let obs = sim.run(100, &mut StdRng::seed_from_u64(4));
        let mut bytes = obs.to_binary();
        let last = bytes.len() - 1;
        bytes.truncate(last);
        let broken = dir.join("broken.ncobs3");
        std::fs::write(&broken, &bytes).unwrap();
        match read_observations(&broken) {
            Err(EvalError::Persist { cause, .. }) => {
                assert!(cause.contains("invalid binary v3 observations"), "{cause}");
            }
            other => panic!("expected a Persist error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
