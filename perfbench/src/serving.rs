//! What the two daemon workloads share: repeated start-up, the request
//! log, and the in-process replays that break a socket round trip into
//! the layers the daemon ran.
//!
//! A traced daemon run logs every request it sends. Afterwards the same
//! request sequence is replayed twice in this process:
//!
//! 1. through `serve::protocol::execute` on a `TomographyService` built
//!    like the daemon's, which times what the daemon executes per
//!    request — the socket round trip minus that is the transport share;
//! 2. through the public functions the service calls inside `execute`
//!    (decode, persist, push, right-hand side, re-solve), which splits
//!    each execution into its layers.
//!
//! Replies of replay 1 must equal the daemon's replies, and the state
//! replay 2 reaches must equal the service's, so the breakdown is of the
//! same work.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use netcorr_core::equations::equation_structure;
use netcorr_core::{AlgorithmConfig, IncrementalEquationBuilder, InferenceContext};
use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr_eval::persist;
use netcorr_measure::{PathObservations, StreamingEstimator};
use netcorr_serve::protocol::execute;
use netcorr_serve::TomographyService;
use netcorr_topology::TopologyInstance;

use crate::daemon::{Conn, Daemon, Endpoint};
use crate::inputs::TOPOLOGY_SEED;
use crate::report::Report;
use crate::trace::{LayerTime, Trace};

/// The daemon's arguments besides `--listen` (and `--history`).
pub const DAEMON_ARGS: &[&str] = &["--topology", "planetlab-smoke", "--topology-seed", "42"];

/// Start-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Starts the daemon `repeats` times (each on a fresh endpoint from
/// `endpoint(i)`, after `before(i)` prepares its files), shutting all but
/// the last down cleanly. Returns the last daemon, a connection to it,
/// and every start-up time in seconds.
pub fn start_repeatedly(
    binary: &Path,
    repeats: usize,
    args: &[&str],
    mut endpoint: impl FnMut(usize) -> Endpoint,
    mut before: impl FnMut(usize) -> Result<(), String>,
    report: &mut Report,
) -> Result<(Daemon, Conn, Vec<f64>), String> {
    let mut setups = Vec::new();
    for i in 0..repeats {
        before(i)?;
        let (daemon, took) = Daemon::start(binary, &endpoint(i), args, &mut report.outcomes)?;
        setups.push(took.as_secs_f64());
        let mut conn = daemon.connect()?;
        if i + 1 == repeats {
            return Ok((daemon, conn, setups));
        }
        report.outcomes.attempted += 1;
        daemon.shutdown(&mut conn)?;
    }
    Err("no start-up was requested".into())
}

/// One logged request.
#[derive(Debug, Clone)]
pub struct Logged {
    /// The framed request bytes as sent.
    pub framed: Vec<u8>,
    /// The daemon's reply line.
    pub reply: String,
    /// Socket round trip, when the request was traced.
    pub rtt: Option<Duration>,
}

impl Logged {
    fn line_and_body(&self) -> (&str, &[u8]) {
        let newline = self
            .framed
            .iter()
            .position(|&b| b == b'\n')
            .expect("framed request");
        let line = std::str::from_utf8(&self.framed[..newline]).expect("ASCII request line");
        (line, &self.framed[newline + 1..])
    }

    fn verb(&self) -> &str {
        self.line_and_body().0.split(' ').next().unwrap_or("")
    }
}

/// Where the replays keep their own history files (copies of the file
/// the daemon started from), when the daemon ran with `--history`.
pub struct ReplayHistory {
    /// Copy for the `execute` replay's service.
    pub service_file: PathBuf,
    /// Copy for the layer replay.
    pub layer_file: PathBuf,
}

/// Replays `log` in process and adds the breakdown of every traced
/// request to `trace`. Checks the replay against the daemon's replies
/// and returns the layer replay's final probabilities and, with history,
/// the bytes each persist wrote.
pub fn replay(
    instance: &TopologyInstance,
    log: &[Logged],
    history: Option<&ReplayHistory>,
    trace: &mut Trace,
    report: &mut Report,
) -> Result<Replayed, String> {
    let config = AlgorithmConfig::default();

    // Replay 1: `execute` on a service built like the daemon's.
    let mut service = TomographyService::new(instance, &config).map_err(|e| e.to_string())?;
    if let Some(history) = history {
        service
            .enable_history(&history.service_file)
            .map_err(|e| e.to_string())?;
    }
    let mut executed = Vec::with_capacity(log.len());
    let mut mismatches = 0usize;
    for logged in log {
        let (line, mut body) = logged.line_and_body();
        let t = Instant::now();
        let reply = execute(&mut service, line, &mut body);
        executed.push(t.elapsed());
        // History paths in STATUS differ between the copies; everything
        // else must match the daemon's reply.
        if logged.verb() != "STATUS" && reply.text != logged.reply {
            mismatches += 1;
        }
    }
    report.check(mismatches == 0, || {
        format!("{mismatches} in-process replies differ from the daemon's")
    });

    // Replay 2: the layers `execute` runs, called one by one.
    let mut layers = LayerReplay::new(instance, &config, history.map(|h| h.layer_file.as_path()))?;
    let mut bytes_written = Vec::new();
    for (logged, executed) in log.iter().zip(executed) {
        let children = layers.step(logged, &mut bytes_written)?;
        let Some(rtt) = logged.rtt else { continue };
        let top = trace.record("serve.transport", None, rtt, false);
        let name = match logged.verb() {
            "OBS" => "serve.service.ingest",
            "INFER" => "serve.service.infer",
            "PROBS" => "serve.protocol.probs",
            _ => "serve.protocol.other",
        };
        let span = trace.record(name, Some(top), executed, true);
        for (child, took) in children {
            trace.record(child, Some(span), took, true);
        }
    }
    let probabilities = layers.last_probabilities.clone();
    Ok(Replayed {
        probabilities,
        bytes_written,
        service,
    })
}

/// What the replays ended with.
pub struct Replayed {
    /// The layer replay's last solved probabilities.
    pub probabilities: Option<Vec<f64>>,
    /// Bytes each persist of the layer replay wrote.
    pub bytes_written: Vec<usize>,
    /// The `execute` replay's service, for further timing.
    pub service: TomographyService,
}

/// The service's state, held as its public parts.
struct LayerReplay {
    context: InferenceContext,
    builder: IncrementalEquationBuilder,
    estimator: StreamingEstimator,
    last_solution: Option<Vec<f64>>,
    last_probabilities: Option<Vec<f64>>,
    history: Option<(PathBuf, u64)>,
}

impl LayerReplay {
    fn new(
        instance: &TopologyInstance,
        config: &AlgorithmConfig,
        history: Option<&Path>,
    ) -> Result<LayerReplay, String> {
        let context = InferenceContext::new(instance, config).map_err(|e| e.to_string())?;
        let mut estimator = StreamingEstimator::new(instance.num_paths());
        let builder = IncrementalEquationBuilder::new(instance, &mut estimator, &config.equations)
            .map_err(|e| e.to_string())?;
        let history = match history {
            Some(path) => {
                let generation = reload(path, &mut estimator, None)?;
                Some((path.to_path_buf(), generation))
            }
            None => None,
        };
        Ok(LayerReplay {
            context,
            builder,
            estimator,
            last_solution: None,
            last_probabilities: None,
            history,
        })
    }

    /// Runs one request's layers; returns each layer call's duration.
    fn step(
        &mut self,
        logged: &Logged,
        bytes_written: &mut Vec<usize>,
    ) -> Result<Vec<(&'static str, Duration)>, String> {
        let mut spans = Vec::new();
        match logged.verb() {
            "OBS" => {
                let (_, body) = logged.line_and_body();
                let t = Instant::now();
                let block = PathObservations::from_binary(body).map_err(|e| e.to_string())?;
                spans.push(("measure.decode", t.elapsed()));
                if let Some((path, generation)) = &mut self.history {
                    // `TomographyService::persist_with_block`, call by call.
                    let t = Instant::now();
                    let mut delta = self.estimator.observations().clone();
                    delta.concat(&block).map_err(|e| e.to_string())?;
                    let payload = match self.estimator.base() {
                        Some(base) => base
                            .view()
                            .merged_binary(&delta)
                            .map_err(|e| e.to_string())?,
                        None => delta.to_binary(),
                    };
                    spans.push(("measure.streaming.history_binary", t.elapsed()));
                    let t = Instant::now();
                    let sealed = persist::encode_history(&payload, *generation + 1);
                    spans.push(("eval.persist.encode", t.elapsed()));
                    let t = Instant::now();
                    if path.exists() {
                        std::fs::rename(&*path, persist::history_prev_path(path))
                            .map_err(|e| e.to_string())?;
                    }
                    spans.push(("eval.persist.rotate", t.elapsed()));
                    let t = Instant::now();
                    persist::atomic_write(path, &sealed).map_err(|e| e.to_string())?;
                    spans.push(("eval.persist.write", t.elapsed()));
                    *generation += 1;
                    bytes_written.push(sealed.len());
                }
                let t = Instant::now();
                for snapshot in block.snapshots() {
                    self.estimator
                        .push_snapshot(&snapshot)
                        .map_err(|e| e.to_string())?;
                }
                spans.push(("measure.streaming.push", t.elapsed()));
            }
            "INFER" => {
                let t = Instant::now();
                let rhs = self
                    .builder
                    .rhs(&self.estimator)
                    .map_err(|e| e.to_string())?;
                spans.push(("core.equations.rhs", t.elapsed()));
                let t = Instant::now();
                let (estimate, x) = self
                    .context
                    .reinfer(&rhs, self.last_solution.as_deref())
                    .map_err(|e| e.to_string())?;
                spans.push(("core.context.reinfer", t.elapsed()));
                self.last_solution = Some(x);
                self.last_probabilities = Some(estimate.probabilities().to_vec());
            }
            _ => {}
        }
        Ok(spans)
    }
}

/// The daemon's history reload, call by call: crash recovery, then
/// `map_observations_prefix` plus `attach_history`. Returns the recovered
/// generation; with a trace parent, records the calls as replayed spans
/// under it.
fn reload(
    path: &Path,
    estimator: &mut StreamingEstimator,
    mut trace: Option<(&mut Trace, usize)>,
) -> Result<u64, String> {
    let t = Instant::now();
    let recovery = persist::recover_history(path).map_err(|e| e.to_string())?;
    let recover = t.elapsed();
    let payload_len = recovery
        .payload_len
        .ok_or("the history file did not recover")?;
    let t = Instant::now();
    let mapped = persist::map_observations_prefix(path, payload_len).map_err(|e| e.to_string())?;
    estimator
        .attach_history(mapped)
        .map_err(|e| e.to_string())?;
    let took = t.elapsed();
    if let Some((trace, parent)) = trace.as_mut() {
        trace.record("eval.persist.recover", Some(*parent), recover, true);
        trace.record("eval.persist.reload", Some(*parent), took, true);
    }
    Ok(recovery.generation)
}

/// Breaks a daemon start-up (spawn to first `PING`) into the layers the
/// daemon ran, replayed in process: topology generation, the inference
/// context (equation structure and row selection inside it), the
/// incremental equation builder and, with history, the reload.
pub fn replay_startup(
    startup: Duration,
    history: Option<&Path>,
    trace: &mut Trace,
) -> Result<(), String> {
    let config = AlgorithmConfig::default();
    let top = trace.record("serve.startup", None, startup, false);
    let t = Instant::now();
    let instance = base_instance(TopologyFamily::PlanetLab, Scale::Smoke, TOPOLOGY_SEED)
        .map_err(|e| e.to_string())?;
    trace.record("topology.generate", Some(top), t.elapsed(), true);
    let t = Instant::now();
    InferenceContext::new(&instance, &config).map_err(|e| e.to_string())?;
    let build = trace.record("core.context.build", Some(top), t.elapsed(), true);
    let t = Instant::now();
    let structure = equation_structure(&instance, &config.equations).map_err(|e| e.to_string())?;
    trace.record("core.equations.structure", Some(build), t.elapsed(), true);
    let t = Instant::now();
    crate::offline::select_rows(&structure, instance.num_links(), &config);
    trace.record("linalg.rank.select", Some(build), t.elapsed(), true);
    let mut estimator = StreamingEstimator::new(instance.num_paths());
    let t = Instant::now();
    IncrementalEquationBuilder::new(&instance, &mut estimator, &config.equations)
        .map_err(|e| e.to_string())?;
    trace.record("core.equations.builder", Some(top), t.elapsed(), true);
    if let Some(path) = history {
        reload(path, &mut estimator, Some((trace, top)))?;
    }
    Ok(())
}

/// The per-layer metrics both daemon workloads read off their trace.
pub fn set_layers(report: &mut Report, layers: &BTreeMap<&'static str, LayerTime>) {
    let mean_us = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_us());
    let total_ms = |name: &str| layers.get(name).map_or(0.0, |l| l.total_nanos / 1e6);
    report.set("topology.generate_ms", total_ms("topology.generate"));
    report.set(
        "core.equations.structure_ms",
        total_ms("core.equations.structure"),
    );
    report.set("linalg.rank.select_s", total_ms("linalg.rank.select") / 1e3);
    report.set("core.context.build_s", total_ms("core.context.build") / 1e3);
    // Transport: round trip minus in-process execution, per request.
    let transport = layers.get("serve.transport").copied().unwrap_or_default();
    report.set(
        "serve.transport_us",
        transport.self_nanos / 1e3 / transport.count.max(1) as f64,
    );
    report.set("measure.decode_us", mean_us("measure.decode"));
    report.set(
        "measure.streaming.push_us",
        mean_us("measure.streaming.push"),
    );
    report.set("core.equations.rhs_us", mean_us("core.equations.rhs"));
    report.set("core.context.reinfer_us", mean_us("core.context.reinfer"));
    report.set("serve.protocol.probs_us", mean_us("serve.protocol.probs"));
    report.set("serve.service.ingest_us", mean_us("serve.service.ingest"));
    report.set(
        "measure.streaming.history_binary_us",
        mean_us("measure.streaming.history_binary"),
    );
    report.set("eval.persist.encode_us", mean_us("eval.persist.encode"));
    report.set("eval.persist.write_us", mean_us("eval.persist.write"));
    report.set("eval.persist.reload_ms", total_ms("eval.persist.reload"));
}

/// Copies `from` to `to` (the replays and every start-up get their own
/// copy of the generated history file).
pub fn copy_file(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::copy(from, to)
        .map(|_| ())
        .map_err(|e| format!("copy {} to {}: {e}", from.display(), to.display()))
}
