//! The daemon's inference engine: streaming ingest + warm re-inference.
//!
//! [`TomographyService`] owns everything a long-running deployment needs
//! to keep a live congestion estimate over a fixed topology:
//!
//! * a [`StreamingEstimator`] fed one snapshot at a time (O(1) counter
//!   updates per snapshot, no history rescans), with the equation
//!   structure's pairs registered so its counters answer every
//!   right-hand-side entry;
//! * one [`InferenceContext`] (equation structure + independence
//!   selection + prepared solve plan), built once: a re-inference costs
//!   one `O(#equations)` refresh of [`InferenceContext::rhs`] over the
//!   streaming counters plus one solve of the plan. On a determined
//!   dense system that solve is a back-substitution through the cached
//!   QR factorization; on an under-determined dense system (`DenseL1`,
//!   which the smoke PlanetLab topology runs by default) it is a fresh
//!   two-phase simplex for the minimum-L1 solution; on the sparse plan
//!   it is one warm-started CGLS run;
//! * the previous solution, used to seed the next CGLS run — on live
//!   streams consecutive refreshes are close, so the warm start converges
//!   in a fraction of a cold run's iterations.
//!
//! On the dense plans (the default for instances up to
//! `SolverConfig::dense_threshold` links) the warm seed is ignored and
//! every [`TomographyService::reinfer`] is **bit-identical** to the
//! offline [`InferenceContext::infer`] over the same accumulated
//! observations; the daemon is then a pure latency optimisation, not a
//! different estimator.
//!
//! With [`TomographyService::enable_history`] the service additionally
//! persists its observation stream **crash-safely**: each ingest is
//! transactional (rotate → write payload + generation/checksum footer →
//! only then mutate memory and ack), and startup recovers a file torn
//! by a crash mid-write back to the last fully-acked generation from
//! the rotated `.prev` copy. Writes are atomic (staged, then renamed)
//! but never fsync'd, so an acked ingest survives a killed process, not
//! a power loss or kernel crash. The surviving payload is memory-mapped
//! (zero-copy, see [`netcorr_measure::MappedObservations`]) and
//! attached to the streaming estimator as its base segment — a
//! restarted daemon resumes with accumulators bit-identical to a run
//! that replayed exactly the acked ingests.
//!
//! Solver trouble degrades gracefully instead of erroring: when a
//! re-inference fails or the sparse plan exhausts its CGLS iteration
//! budget, the last good estimate keeps being served and
//! [`TomographyService::stale`] (surfaced as `stale=` in the protocol)
//! flags it until a refresh succeeds.

use std::path::{Path, PathBuf};

use netcorr_core::context::InferenceContext;
use netcorr_core::result::{SolverKind, TomographyEstimate};
use netcorr_core::AlgorithmConfig;
use netcorr_eval::persist;
use netcorr_measure::bitset::simd;
use netcorr_measure::{PathObservations, StreamingEstimator};
use netcorr_topology::TopologyInstance;

use crate::error::ServeError;
use crate::faults::{FaultPlan, FaultyHistoryWriter};

/// The persisted-observation-history portion of a [`ServiceStatus`]:
/// present only when the service was started with a history file.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryStatus {
    /// The history file's path.
    pub path: String,
    /// How the reloaded history is served: `"mmap"` when the startup
    /// reload mapped the file through the zero-copy tier, `"heap"` when
    /// it fell back to a copying read (or the file did not exist yet).
    pub backing: String,
    /// Snapshots covered by the persisted file.
    pub snapshots: usize,
    /// Size of the persisted file in bytes (payload + footer).
    pub bytes: usize,
    /// Generation counter of the persisted file: incremented by every
    /// persisted ingest, 0 for a fresh or legacy (footer-less) file.
    pub generation: u64,
    /// Whether startup had to *recover* the history — a torn or missing
    /// current file was replaced by the rotated previous generation (or
    /// discarded when no previous generation existed).
    pub recovered: bool,
}

/// A point-in-time summary of the service, the payload of the protocol's
/// `STATUS` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStatus {
    /// Number of measurement paths in the topology.
    pub num_paths: usize,
    /// Number of links (unknowns).
    pub num_links: usize,
    /// Snapshots ingested so far.
    pub num_snapshots: usize,
    /// Equations in the shared structure.
    pub num_equations: usize,
    /// Re-inferences performed so far (cache hits excluded).
    pub reinfers: u64,
    /// Which numerical path solves this topology's systems.
    pub solver: SolverKind,
    /// Whether an estimate is available for queries.
    pub inferred: bool,
    /// Whether the current estimate is **stale**: the last re-inference
    /// attempt failed (or hit the CGLS iteration cap) and queries are
    /// served from the last good estimate instead of erroring.
    pub stale: bool,
    /// The active SIMD kernel tier (`avx512`, `avx2` or `portable`).
    pub kernel: String,
    /// Observation-history persistence, when enabled.
    pub history: Option<HistoryStatus>,
}

/// The service's live record of its history file.
struct HistoryFile {
    path: PathBuf,
    /// `"mmap"` or `"heap"` — how the startup reload is served.
    backing: &'static str,
    /// Bytes in the file as of the last persist (or the startup reload).
    bytes: usize,
    /// Snapshots in the file as of the last persist.
    snapshots: usize,
    /// Generation of the last history write (0 = fresh/legacy).
    generation: u64,
    /// Whether startup recovered from a torn write (see
    /// [`netcorr_eval::persist::recover_history`]).
    recovered: bool,
}

/// The online tomography engine: ingest snapshots, re-infer on demand,
/// answer probability queries from the latest estimate.
pub struct TomographyService {
    context: InferenceContext,
    estimator: StreamingEstimator,
    /// The solved log-good-probabilities of the previous re-inference,
    /// seeding the next CGLS run on the sparse plan.
    last_solution: Option<Vec<f64>>,
    /// The latest estimate; queries are answered from here, so they are
    /// O(1) and never trigger a solve.
    estimate: Option<TomographyEstimate>,
    /// Snapshot count at which `estimate` was computed; a re-inference
    /// with no new data returns the cached estimate.
    inferred_at: Option<usize>,
    reinfers: u64,
    num_paths: usize,
    /// Set by [`TomographyService::enable_history`]: the on-disk history
    /// file rewritten (atomically) after every successful ingest.
    history: Option<HistoryFile>,
    /// How history bytes reach the disk. Defaults to the atomic
    /// stage-and-rename writer; chaos runs install a seeded
    /// fault-injecting writer through
    /// [`TomographyService::set_fault_plan`].
    history_writer: FaultyHistoryWriter,
    /// Whether the served estimate is stale (see [`ServiceStatus::stale`]).
    stale: bool,
    /// The sparse solver's iteration cap: a sparse re-inference that
    /// spends this many iterations did not converge and is served as
    /// stale rather than trusted fresh.
    cgls_cap: usize,
    /// Test hook: fail the next re-inference attempt with this message,
    /// exercising the degraded-serving path deterministically.
    reinfer_poison: Option<String>,
}

impl TomographyService {
    /// Builds the service for a topology instance: inference context
    /// (structure, selection, factorization) and an empty streaming
    /// estimator holding the structure's pairs. All per-topology work
    /// happens here; nothing later in the service's life rebuilds it.
    pub fn new(instance: &TopologyInstance, config: &AlgorithmConfig) -> Result<Self, ServeError> {
        let context = InferenceContext::new(instance, config)?;
        let mut estimator = StreamingEstimator::new(instance.num_paths());
        estimator.register_pairs(context.structure().pairs())?;
        Ok(TomographyService {
            context,
            estimator,
            last_solution: None,
            estimate: None,
            inferred_at: None,
            reinfers: 0,
            num_paths: instance.num_paths(),
            history: None,
            history_writer: FaultPlan::none().history_writer(),
            stale: false,
            cgls_cap: config.solver.cgls_iterations,
            reinfer_poison: None,
        })
    }

    /// Routes history persistence through `plan`'s fault-injecting
    /// writer. [`FaultPlan::none`] (the construction default) is
    /// bit-invisible: it *is* the atomic stage-and-rename writer.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.history_writer = plan.history_writer();
    }

    /// Test hook: makes the next re-inference attempt fail with
    /// `message`, so the degraded (stale-serving) path can be exercised
    /// without constructing a genuinely unsolvable system.
    #[cfg(test)]
    pub(crate) fn poison_next_reinfer(&mut self, message: &str) {
        self.reinfer_poison = Some(message.to_string());
    }

    /// Enables persistent observation history at `path`, with crash-safe
    /// recovery. Startup runs
    /// [`netcorr_eval::persist::recover_history`]: a valid file (sealed
    /// with a generation + checksum footer, or a legacy footer-less v3
    /// block) is used as-is; a file torn by a crash mid-write is
    /// replaced by the rotated `<path>.prev` generation — i.e. the last
    /// fully-acked ingest — and the service reports `recovered=true` in
    /// its status. The surviving payload is memory-mapped through the
    /// zero-copy tier and attached to the streaming estimator as its
    /// immutable base segment, so the restarted daemon answers every
    /// query bit-identically to one that replayed exactly the acked
    /// ingests.
    ///
    /// Every subsequent successful ingest rotates the current file to
    /// `<path>.prev` and atomically writes the next generation (payload +
    /// footer) before the ingest is acknowledged. Nothing is fsync'd: the
    /// acked history survives a killed process, not a power loss.
    ///
    /// Must be called before any snapshot is ingested. Returns the
    /// number of history snapshots reloaded (0 for a fresh file).
    pub fn enable_history(&mut self, path: &Path) -> Result<usize, ServeError> {
        if self.history.is_some() {
            return Err(ServeError::Persist(
                "observation history is already enabled".into(),
            ));
        }
        if self.estimator.num_snapshots() != 0 {
            return Err(ServeError::Persist(format!(
                "cannot enable history after {} snapshots were already ingested",
                self.estimator.num_snapshots()
            )));
        }
        let recovery = persist::recover_history(path)?;
        if let Some(payload_len) = recovery.payload_len {
            let mapped = persist::map_observations_prefix(path, payload_len)?;
            if mapped.num_paths() != self.num_paths {
                return Err(ServeError::PathMismatch {
                    block: mapped.num_paths(),
                    instance: self.num_paths,
                });
            }
            let backing = mapped.backing();
            let bytes = mapped.byte_len();
            let snapshots = self.estimator.attach_history(mapped)?;
            self.history = Some(HistoryFile {
                path: path.to_path_buf(),
                backing,
                bytes,
                snapshots,
                generation: recovery.generation,
                recovered: recovery.recovered,
            });
            Ok(snapshots)
        } else {
            self.history = Some(HistoryFile {
                path: path.to_path_buf(),
                backing: "heap",
                bytes: 0,
                snapshots: 0,
                generation: 0,
                recovered: recovery.recovered,
            });
            Ok(0)
        }
    }

    /// Atomically persists the history *as it will be after* `block` is
    /// appended, before the in-memory estimator is touched: the
    /// prospective payload (attached base + owned delta + block) is
    /// sealed with the next generation's footer, the current file is
    /// rotated to `.prev`, and the new generation is written. Only a
    /// successful write lets the ingest proceed — on failure the
    /// rotation is undone and the service (memory *and* disk) still
    /// reflects exactly the previously acked generation.
    fn persist_with_block(&mut self, block: &PathObservations) -> Result<(), ServeError> {
        let Some(history) = &mut self.history else {
            return Ok(());
        };
        let payload = {
            let mut delta = self.estimator.observations().clone();
            delta
                .concat(block)
                .map_err(|e| ServeError::Persist(format!("cannot append block: {e}")))?;
            match self.estimator.base() {
                Some(base) => base
                    .view()
                    .merged_binary(&delta)
                    .map_err(|e| ServeError::Persist(format!("cannot merge history: {e}")))?,
                None => delta.to_binary(),
            }
        };
        let generation = history.generation + 1;
        let sealed = persist::encode_history(&payload, generation);
        let prev = persist::history_prev_path(&history.path);
        let rotated = history.path.exists();
        if rotated {
            std::fs::rename(&history.path, &prev).map_err(|e| {
                ServeError::Persist(format!("cannot rotate history to {}: {e}", prev.display()))
            })?;
        }
        match self.history_writer.write(&history.path, &sealed) {
            Ok(()) => {
                history.generation = generation;
                history.bytes = sealed.len();
                history.snapshots = self.estimator.num_snapshots() + block.num_snapshots();
                Ok(())
            }
            Err(e) => {
                // Put the last acked generation back at the primary path
                // so a *continuing* daemon stays consistent; a crash
                // here instead is what recover_history handles.
                if rotated {
                    let _ = std::fs::rename(&prev, &history.path);
                }
                Err(ServeError::Persist(format!(
                    "history write failed (generation {generation} not acked): {e}"
                )))
            }
        }
    }

    /// Number of measurement paths in the topology.
    pub fn num_paths(&self) -> usize {
        self.num_paths
    }

    /// Number of links (unknowns).
    pub fn num_links(&self) -> usize {
        self.context.num_links()
    }

    /// Snapshots ingested so far.
    pub fn num_snapshots(&self) -> usize {
        self.estimator.num_snapshots()
    }

    /// Re-inferences performed so far (cache hits excluded).
    pub fn reinfers(&self) -> u64 {
        self.reinfers
    }

    /// Ingests one framed v3 wire-format observation block (the payload
    /// of an `OBS` request). Returns the number of snapshots the block
    /// added. The block's snapshots append to the stream; a malformed
    /// block or a path-count mismatch leaves the service untouched.
    pub fn ingest_block(&mut self, bytes: &[u8]) -> Result<usize, ServeError> {
        let block = PathObservations::from_binary(bytes)
            .map_err(|e| ServeError::Protocol(format!("invalid observation block: {e}")))?;
        self.ingest_observations(&block)
    }

    /// Ingests already-decoded observations. The ingest is
    /// **transactional**: with history enabled, the prospective history
    /// (including this block) is atomically persisted as the next
    /// generation *first*, and only a successful write mutates the
    /// in-memory estimator. A failed persist leaves the service —
    /// memory and disk — exactly at the previously acked generation, so
    /// an `OK` reply to an `OBS` request means "this block survives a
    /// killed process" (the write is not fsync'd, so not a power loss).
    pub fn ingest_observations(&mut self, block: &PathObservations) -> Result<usize, ServeError> {
        if block.num_paths() != self.num_paths {
            return Err(ServeError::PathMismatch {
                block: block.num_paths(),
                instance: self.num_paths,
            });
        }
        self.persist_with_block(block)?;
        for snapshot in block.snapshots() {
            self.estimator
                .push_snapshot(&snapshot)
                .expect("snapshot width was validated against the instance");
        }
        Ok(block.num_snapshots())
    }

    /// Pushes a single snapshot (one congested flag per path), with the
    /// same transactional persistence as [`Self::ingest_observations`].
    pub fn push_snapshot(&mut self, congested: &[bool]) -> Result<(), ServeError> {
        let mut block = PathObservations::new(self.num_paths);
        block.record_snapshot(congested)?;
        self.ingest_observations(&block)?;
        Ok(())
    }

    /// Re-infers the per-link congestion probabilities from everything
    /// ingested so far: refreshes the right-hand side in
    /// `O(#equations)` from the streaming accumulators and re-solves over
    /// the cached plan, seeding CGLS with the previous solution. If no
    /// snapshot arrived since the last re-inference the cached estimate
    /// is returned unchanged.
    ///
    /// **Graceful degradation:** solver trouble is an expected state,
    /// not an error. If the solve fails — or the sparse plan burns its
    /// whole CGLS iteration budget without converging — and a previous
    /// good estimate exists, that estimate keeps being served, flagged
    /// stale (see [`Self::stale`]); the next re-inference attempt tries
    /// again. Only with no prior estimate at all does a solve failure
    /// surface as an error (a capped-but-computed first estimate is
    /// served, flagged stale).
    ///
    /// On the dense plans the result is bit-identical to the offline
    /// [`InferenceContext::infer`] over the same accumulated
    /// observations.
    pub fn reinfer(&mut self) -> Result<&TomographyEstimate, ServeError> {
        if self.estimator.is_empty() {
            return Err(ServeError::Protocol(
                "no snapshots ingested yet: send OBS blocks before INFER".into(),
            ));
        }
        if self.inferred_at != Some(self.estimator.num_snapshots()) {
            let attempt = match self.reinfer_poison.take() {
                Some(message) => Err(ServeError::Io(message)),
                None => {
                    let rhs = self.context.rhs(&self.estimator)?;
                    self.context
                        .reinfer(&rhs, self.last_solution.as_deref())
                        .map_err(ServeError::from)
                }
            };
            match attempt {
                Ok((estimate, x)) => {
                    let capped = estimate.diagnostics.solver == SolverKind::SparseIterative
                        && self.cgls_cap > 0
                        && estimate.diagnostics.iterations >= self.cgls_cap;
                    if capped && self.estimate.is_some() {
                        // Non-converged refresh over a good prior: keep
                        // serving the prior, don't poison the warm seed.
                        self.stale = true;
                    } else {
                        self.last_solution = Some(x);
                        self.estimate = Some(estimate);
                        self.inferred_at = Some(self.estimator.num_snapshots());
                        self.stale = capped;
                        self.reinfers += 1;
                    }
                }
                Err(e) => {
                    if self.estimate.is_none() {
                        return Err(e);
                    }
                    // Keep the last good estimate; `inferred_at` stays
                    // behind the stream so the next INFER retries.
                    self.stale = true;
                }
            }
        }
        Ok(self
            .estimate
            .as_ref()
            .expect("an estimate exists on every Ok path"))
    }

    /// Whether queries are currently served from a stale estimate (the
    /// last re-inference attempt failed or did not converge).
    pub fn stale(&self) -> bool {
        self.stale
    }

    /// The latest estimate, if any re-inference has run.
    pub fn estimate(&self) -> Option<&TomographyEstimate> {
        self.estimate.as_ref()
    }

    /// The latest congestion probability of one link.
    pub fn probability(&self, link: usize) -> Result<f64, ServeError> {
        let estimate = self.estimate.as_ref().ok_or(ServeError::NoEstimate)?;
        if link >= estimate.num_links() {
            return Err(ServeError::UnknownLink {
                link,
                num_links: estimate.num_links(),
            });
        }
        Ok(estimate.probabilities()[link])
    }

    /// The latest congestion probabilities of every link.
    pub fn probabilities(&self) -> Result<&[f64], ServeError> {
        Ok(self
            .estimate
            .as_ref()
            .ok_or(ServeError::NoEstimate)?
            .probabilities())
    }

    /// Whether a link's latest congestion probability exceeds
    /// `threshold`, together with the probability itself.
    pub fn link_state(&self, link: usize, threshold: f64) -> Result<(bool, f64), ServeError> {
        let p = self.probability(link)?;
        Ok((p > threshold, p))
    }

    /// A point-in-time summary for `STATUS` replies and logs.
    pub fn status(&self) -> ServiceStatus {
        ServiceStatus {
            num_paths: self.num_paths,
            num_links: self.context.num_links(),
            num_snapshots: self.estimator.num_snapshots(),
            num_equations: self.context.structure().num_equations(),
            reinfers: self.reinfers,
            solver: self.context.solver_kind(),
            inferred: self.estimate.is_some(),
            stale: self.stale,
            kernel: simd::active_tier().as_str().to_string(),
            history: self.history.as_ref().map(|h| HistoryStatus {
                path: h.path.display().to_string(),
                backing: h.backing.to_string(),
                snapshots: h.snapshots,
                bytes: h.bytes,
                generation: h.generation,
                recovered: h.recovered,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcorr_topology::toy;

    /// Deterministic synthetic observations over Figure 1(a)'s three
    /// paths: a repeating pattern with all-good snapshots mixed in so
    /// every estimator probability is strictly positive.
    fn fig1a_observations(snapshots: usize) -> PathObservations {
        let mut obs = PathObservations::new(3);
        for i in 0..snapshots {
            let congested = [i % 3 == 0, i % 4 == 0, i % 5 == 0];
            obs.record_snapshot(&congested).unwrap();
        }
        obs
    }

    #[test]
    fn ingest_then_reinfer_matches_offline_inference_bit_for_bit() {
        let instance = toy::figure_1a();
        let config = AlgorithmConfig::default();
        let mut service = TomographyService::new(&instance, &config).unwrap();
        let obs = fig1a_observations(60);

        // Stream the same observations in three uneven batches, re-infer
        // after each (exercising the warm chain), then compare the final
        // answer against the offline batch path.
        for range in [0..10, 10..25, 25..60] {
            let mut block = PathObservations::new(3);
            for i in range {
                block.record_snapshot(&obs.snapshot(i)).unwrap();
            }
            let added = service.ingest_block(&block.to_binary()).unwrap();
            assert_eq!(added, block.num_snapshots());
            service.reinfer().unwrap();
        }
        assert_eq!(service.num_snapshots(), 60);
        assert_eq!(service.reinfers(), 3);

        let offline = InferenceContext::new(&instance, &config)
            .unwrap()
            .infer(&obs)
            .unwrap();
        assert_eq!(
            service.probabilities().unwrap(),
            offline.probabilities(),
            "daemon-style streaming answer must be bit-identical to the offline batch answer"
        );
        for link in 0..service.num_links() {
            assert_eq!(
                service.probability(link).unwrap(),
                offline.congestion_probability(netcorr_topology::LinkId(link))
            );
        }
    }

    #[test]
    fn reinfer_with_no_new_data_reuses_the_cached_estimate() {
        let instance = toy::figure_1a();
        let mut service = TomographyService::new(&instance, &AlgorithmConfig::default()).unwrap();
        service
            .ingest_observations(&fig1a_observations(20))
            .unwrap();
        service.reinfer().unwrap();
        assert_eq!(service.reinfers(), 1);
        // No new snapshots: the estimate is served from cache.
        service.reinfer().unwrap();
        assert_eq!(service.reinfers(), 1);
        // New data invalidates the cache.
        service.push_snapshot(&[true, false, false]).unwrap();
        service.reinfer().unwrap();
        assert_eq!(service.reinfers(), 2);
    }

    #[test]
    fn errors_are_reported_without_corrupting_the_service() {
        let instance = toy::figure_1a();
        let mut service = TomographyService::new(&instance, &AlgorithmConfig::default()).unwrap();

        // Queries before any inference.
        assert_eq!(service.probability(0), Err(ServeError::NoEstimate));
        assert!(service.probabilities().is_err());
        // Inference before any snapshot.
        assert!(matches!(service.reinfer(), Err(ServeError::Protocol(_))));
        // A garbage block.
        assert!(matches!(
            service.ingest_block(b"not a block"),
            Err(ServeError::Protocol(_))
        ));
        // A block over the wrong number of paths.
        let mut wrong = PathObservations::new(5);
        wrong.record_snapshot(&[false; 5]).unwrap();
        assert_eq!(
            service.ingest_block(&wrong.to_binary()),
            Err(ServeError::PathMismatch {
                block: 5,
                instance: 3
            })
        );
        assert_eq!(service.num_snapshots(), 0, "failed ingests add nothing");

        // The service still works afterwards.
        service
            .ingest_observations(&fig1a_observations(16))
            .unwrap();
        service.reinfer().unwrap();
        let (congested, p) = service.link_state(0, 0.5).unwrap();
        assert_eq!(congested, p > 0.5);
        assert!(matches!(
            service.probability(99),
            Err(ServeError::UnknownLink { link: 99, .. })
        ));

        let status = service.status();
        assert_eq!(status.num_paths, 3);
        assert_eq!(status.num_links, 4);
        assert_eq!(status.num_snapshots, 16);
        assert!(status.inferred);
        assert_eq!(status.reinfers, 1);
        assert!(status.num_equations > 0);
        assert!(["avx512", "avx2", "portable"].contains(&status.kernel.as_str()));
        assert_eq!(status.history, None);
    }

    #[test]
    fn history_survives_a_service_restart_bit_identically() {
        let instance = toy::figure_1a();
        let config = AlgorithmConfig::default();
        let dir =
            std::env::temp_dir().join(format!("netcorr_serve_history_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let file = dir.join("history.ncobs3");
        let obs = fig1a_observations(140);

        // First life: fresh history file, ingest snapshots 0..57 (not a
        // multiple of 64, so the persisted block ends mid-word), infer.
        let mut first = TomographyService::new(&instance, &config).unwrap();
        assert_eq!(first.enable_history(&file).unwrap(), 0);
        let status = first.status();
        let history = status.history.expect("history enabled");
        assert_eq!(history.backing, "heap");
        assert_eq!(history.snapshots, 0);
        first
            .ingest_observations(&{
                let mut block = PathObservations::new(3);
                for i in 0..57 {
                    block.record_snapshot(&obs.snapshot(i)).unwrap();
                }
                block
            })
            .unwrap();
        first.reinfer().unwrap();
        assert!(file.exists());
        drop(first);

        // Second life: the history file is mapped and attached; the
        // service resumes at snapshot 57 without re-ingesting.
        let mut second = TomographyService::new(&instance, &config).unwrap();
        assert_eq!(second.enable_history(&file).unwrap(), 57);
        assert_eq!(second.num_snapshots(), 57);
        let history = second.status().history.expect("history enabled");
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert_eq!(history.backing, "mmap");
        assert_eq!(history.snapshots, 57);
        assert_eq!(
            history.bytes,
            std::fs::metadata(&file).unwrap().len() as usize
        );
        second
            .ingest_observations(&{
                let mut block = PathObservations::new(3);
                for i in 57..140 {
                    block.record_snapshot(&obs.snapshot(i)).unwrap();
                }
                block
            })
            .unwrap();
        second.reinfer().unwrap();

        // Uninterrupted comparator over the same 140 snapshots.
        let mut whole = TomographyService::new(&instance, &config).unwrap();
        whole.ingest_observations(&obs).unwrap();
        whole.reinfer().unwrap();
        assert_eq!(
            second.probabilities().unwrap(),
            whole.probabilities().unwrap(),
            "restarted service must answer bit-identically to an uninterrupted one"
        );

        // The persisted file now carries the full 140-snapshot history.
        let final_history = second.status().history.unwrap();
        assert_eq!(final_history.snapshots, 140);
        assert_eq!(
            netcorr_eval::persist::read_observations(&file).unwrap(),
            obs
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn history_misuse_and_corruption_are_reported() {
        let instance = toy::figure_1a();
        let config = AlgorithmConfig::default();
        let dir = std::env::temp_dir().join(format!(
            "netcorr_serve_history_misuse_test_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("history.ncobs3");

        // Enabling twice, or after snapshots already arrived.
        let mut service = TomographyService::new(&instance, &config).unwrap();
        service.enable_history(&file).unwrap();
        assert!(matches!(
            service.enable_history(&file),
            Err(ServeError::Persist(_))
        ));
        let mut late = TomographyService::new(&instance, &config).unwrap();
        late.push_snapshot(&[false, false, false]).unwrap();
        assert!(matches!(
            late.enable_history(&file),
            Err(ServeError::Persist(_))
        ));

        // A corrupt history file no longer refuses startup: with no
        // rotated previous generation it is quarantined and the service
        // starts fresh, reporting recovered=true.
        service.push_snapshot(&[true, false, false]).unwrap();
        let mut bytes = std::fs::read(&file).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80; // breaks the footer checksum
        std::fs::write(&file, &bytes).unwrap();
        std::fs::remove_file(persist::history_prev_path(&file)).ok();
        let mut reloaded = TomographyService::new(&instance, &config).unwrap();
        assert_eq!(reloaded.enable_history(&file).unwrap(), 0);
        let status = reloaded.status().history.unwrap();
        assert!(status.recovered);
        assert_eq!(status.generation, 0);
        assert!(persist::history_torn_path(&file).exists());

        // A history file over the wrong path count is rejected up front.
        let mut wrong = PathObservations::new(7);
        wrong.record_snapshot(&[false; 7]).unwrap();
        std::fs::write(&file, wrong.to_binary()).unwrap();
        let mut mismatched = TomographyService::new(&instance, &config).unwrap();
        assert_eq!(
            mismatched.enable_history(&file),
            Err(ServeError::PathMismatch {
                block: 7,
                instance: 3
            })
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_history_write_is_unacked_and_recovery_is_exact() {
        use crate::faults::{FaultPlan, FaultProfile};

        let instance = toy::figure_1a();
        let config = AlgorithmConfig::default();
        let dir = std::env::temp_dir().join(format!(
            "netcorr_serve_torn_write_test_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let file = dir.join("history.ncobs3");
        let obs = fig1a_observations(90);
        let block = |range: std::ops::Range<usize>| {
            let mut b = PathObservations::new(3);
            for i in range {
                b.record_snapshot(&obs.snapshot(i)).unwrap();
            }
            b
        };

        // Writer tears the third history write (reported, not aborted).
        let mut profile = FaultProfile::torn_history(77);
        profile.torn_write_aborts = false;
        profile.tear_history_write = 3;
        let mut service = TomographyService::new(&instance, &config).unwrap();
        service.enable_history(&file).unwrap();
        service.set_fault_plan(&FaultPlan::seeded(77, profile));

        assert_eq!(service.ingest_observations(&block(0..20)).unwrap(), 20);
        assert_eq!(service.ingest_observations(&block(20..45)).unwrap(), 25);
        // The torn write: the ingest is rejected and the service rolls
        // back to the acked generation, in memory and on disk.
        let err = service.ingest_observations(&block(45..70)).unwrap_err();
        assert!(matches!(err, ServeError::Persist(_)), "{err:?}");
        assert_eq!(service.num_snapshots(), 45, "unacked block must not land");
        let status = service.status().history.unwrap();
        assert_eq!(status.generation, 2);
        assert_eq!(status.snapshots, 45);
        // Later ingests keep working (the schedule tears exactly once).
        assert_eq!(service.ingest_observations(&block(45..70)).unwrap(), 25);
        assert_eq!(service.status().history.unwrap().generation, 3);
        service.reinfer().unwrap();
        drop(service);

        // A restart over the survived file resumes at the acked prefix,
        // bit-identical to a clean service over the same ingests.
        let mut restarted = TomographyService::new(&instance, &config).unwrap();
        assert_eq!(restarted.enable_history(&file).unwrap(), 70);
        let status = restarted.status().history.unwrap();
        assert_eq!(status.generation, 3);
        assert!(!status.recovered, "the file itself was never torn");
        restarted.reinfer().unwrap();
        let mut clean = TomographyService::new(&instance, &config).unwrap();
        clean.ingest_observations(&block(0..70)).unwrap();
        clean.reinfer().unwrap();
        assert_eq!(
            restarted.probabilities().unwrap(),
            clean.probabilities().unwrap()
        );

        // Now simulate the crash flavour: tear the file on disk (as an
        // aborting writer would leave it) and restart — recovery falls
        // back to the rotated previous generation.
        let sealed = std::fs::read(&file).unwrap();
        std::fs::write(&file, &sealed[..sealed.len() / 2]).unwrap();
        let mut recovered = TomographyService::new(&instance, &config).unwrap();
        // .prev holds generation 2 (snapshots 0..45).
        assert_eq!(recovered.enable_history(&file).unwrap(), 45);
        let status = recovered.status().history.unwrap();
        assert!(status.recovered);
        assert_eq!(status.generation, 2);
        recovered.reinfer().unwrap();
        let mut acked = TomographyService::new(&instance, &config).unwrap();
        acked.ingest_observations(&block(0..45)).unwrap();
        acked.reinfer().unwrap();
        assert_eq!(
            recovered.probabilities().unwrap(),
            acked.probabilities().unwrap(),
            "recovered answers must be bit-identical to replaying only acked ingests"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_reinference_serves_the_last_good_estimate_as_stale() {
        let instance = toy::figure_1a();
        let mut service = TomographyService::new(&instance, &AlgorithmConfig::default()).unwrap();
        service
            .ingest_observations(&fig1a_observations(30))
            .unwrap();
        service.reinfer().unwrap();
        assert!(!service.stale());
        let good: Vec<f64> = service.probabilities().unwrap().to_vec();

        // New data arrives, but the refresh fails: the last good
        // estimate keeps being served, flagged stale.
        service.push_snapshot(&[true, true, false]).unwrap();
        service.poison_next_reinfer("injected solver failure");
        service.reinfer().unwrap();
        assert!(service.stale());
        assert_eq!(service.probabilities().unwrap(), good.as_slice());
        assert!(service.status().stale);

        // The next attempt succeeds and clears the flag.
        service.reinfer().unwrap();
        assert!(!service.stale());
        assert!(!service.status().stale);
        assert_ne!(service.probabilities().unwrap(), good.as_slice());

        // With no prior estimate at all, failure is still an error.
        let mut fresh = TomographyService::new(&instance, &AlgorithmConfig::default()).unwrap();
        fresh.ingest_observations(&fig1a_observations(10)).unwrap();
        fresh.poison_next_reinfer("injected solver failure");
        assert!(fresh.reinfer().is_err());
        assert!(fresh.reinfer().is_ok(), "poison clears after one attempt");
    }

    #[test]
    fn capped_cgls_runs_are_flagged_stale() {
        let instance = toy::figure_1a();
        // Force the sparse plan (dense_threshold below the link count)
        // and an absurd 1-iteration CGLS budget: the very first solve
        // hits the cap and is served flagged stale.
        let mut config = AlgorithmConfig::default();
        config.solver.dense_threshold = 0;
        config.solver.cgls_iterations = 1;
        config.solver.cgls_tolerance = 1e-300;
        let mut service = TomographyService::new(&instance, &config).unwrap();
        service
            .ingest_observations(&fig1a_observations(40))
            .unwrap();
        let estimate = service.reinfer().unwrap();
        assert_eq!(estimate.diagnostics.solver, SolverKind::SparseIterative);
        assert!(service.stale(), "a capped first solve must be stale");

        // A generous budget converges and clears the flag.
        let mut generous = AlgorithmConfig::default();
        generous.solver.dense_threshold = 0;
        let mut service = TomographyService::new(&instance, &generous).unwrap();
        service
            .ingest_observations(&fig1a_observations(40))
            .unwrap();
        service.reinfer().unwrap();
        assert!(!service.stale());
    }
}
