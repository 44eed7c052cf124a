//! `daemon-ingest`: durable ingest beside reads.
//!
//! The daemon runs over TCP loopback with `--history` pointing at a
//! 20,000-snapshot file generated fresh for the run, so every `OBS` ack
//! waits for a history rewrite. A writer connection sends one-snapshot
//! `OBS` requests in a closed loop, with `INFER` every 256 snapshots; a
//! reader connection sends `PROBS` open-loop at a fixed rate, each timed
//! from its due time. Idle-read latency is measured first, with no
//! writer. "write" is the `OBS` ack; "answer" is a read under ingest.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use netcorr_eval::persist;
use netcorr_measure::PathObservations;
use netcorr_serve::protocol::{execute, frame_observations};

use crate::daemon::{self, parse_probs, Conn, Endpoint, RunDir};
use crate::inputs::{single, DaemonInputs};
use crate::report::Report;
use crate::serving::{self, Logged, ReplayHistory};
use crate::stats::{due_timing, median, ms, sustained_rate, us, Latency, Outcomes, Schedule};
use crate::trace::{Coverage, Trace};
use crate::RunConfig;

/// Snapshots in the preloaded history file.
const PRELOAD: usize = 20_000;
/// The writer sends `INFER` after every this many snapshots.
const INFER_EVERY: usize = 256;
/// Gap between the reader's due times (250 reads per second). One
/// connection reads in sequence, so the schedule must leave it headroom:
/// at 1000 per second a read under ingest takes most of its interval, a
/// slow spell of the host tips the reader into an ever-growing backlog,
/// and the tail measures that backlog instead of the daemon.
const READ_INTERVAL: Duration = Duration::from_millis(4);
/// Reads of the idle phase.
const IDLE_READS: usize = 500;
/// Minimum ingests per untraced run: ten throughput windows.
const MIN_INGESTS: usize = 10 * RATE_WINDOW;
/// Acks per throughput window: one `INFER` period.
const RATE_WINDOW: usize = INFER_EVERY;
/// Ingests of a traced run (fixed, so its counters are exact).
const TRACED_INGESTS: usize = 2048;
/// `eval.persist.bytes_per_ingest` averages this many first ingests.
const BYTES_SAMPLE: usize = 256;
/// Snapshots simulated at a time, ahead of the ingests that send them.
const CHUNK: usize = 1024;

/// Open-loop reads until `stop` is set (or `limit` reads): returns each
/// read's latency and lateness from its due time, in milliseconds.
fn read_open_loop(
    conn: &mut Conn,
    limit: Option<usize>,
    stop: &AtomicBool,
    outcomes: &mut Outcomes,
) -> (Vec<f64>, Vec<f64>) {
    let schedule = Schedule {
        start: Instant::now(),
        interval: READ_INTERVAL,
    };
    let (mut latency, mut lateness) = (Vec::new(), Vec::new());
    for i in 0.. {
        if limit.is_some_and(|n| i as usize >= n) || stop.load(Ordering::Relaxed) {
            break;
        }
        let due = schedule.due(i);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        if conn.counted(b"PROBS\n", outcomes).is_err() {
            continue;
        }
        let replied = Instant::now();
        let timing = due_timing(due, sent, replied);
        latency.push(ms(timing.latency));
        lateness.push(ms(timing.lateness));
    }
    (latency, lateness)
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    let binary = daemon::build()?;
    let inputs = DaemonInputs::new(config.seed)?;
    let dir = RunDir::new("daemon-ingest")?;

    // The preloaded history, generated fresh from the seed; every
    // start-up and replay gets its own copy.
    let preload = inputs.snapshots(0..PRELOAD);
    let original = dir.join("preload.ncobs3");
    persist::atomic_write(&original, &persist::encode_history(&preload.to_binary(), 1))
        .map_err(|e| e.to_string())?;
    let history = dir.join("history.ncobs3");
    let history_arg = history.display().to_string();
    let mut args: Vec<&str> = serving::DAEMON_ARGS.to_vec();
    args.extend(["--history", history_arg.as_str()]);

    let repeats = if config.trace {
        1
    } else {
        serving::SETUP_REPEATS
    };
    let (daemon, mut writer, setups) = serving::start_repeatedly(
        &binary,
        repeats,
        &args,
        |_| Endpoint::Tcp(String::new()),
        |_| {
            std::fs::remove_file(persist::history_prev_path(&history)).ok();
            serving::copy_file(&original, &history)
        },
        &mut report,
    )?;
    let status = writer.counted(b"STATUS\n", &mut report.outcomes)?;
    daemon::check_plan("daemon-ingest", &status, "DenseL1", &mut report);
    report.check(daemon::field(&status, "snapshots") == Some("20000"), || {
        format!(
            "the daemon reloaded {:?} snapshots, not {PRELOAD}",
            daemon::field(&status, "snapshots")
        )
    });
    let mut log: Vec<Logged> = Vec::new();
    let infer = writer.counted(b"INFER\n", &mut report.outcomes)?;
    log.push(Logged {
        framed: b"INFER\n".to_vec(),
        reply: infer,
        rtt: None,
    });

    // Idle reads: no writer.
    let mut reader = daemon.connect()?;
    let never = AtomicBool::new(false);
    let (idle, _) = read_open_loop(&mut reader, Some(IDLE_READS), &never, &mut report.outcomes);
    let idle_p50 = median(&idle);

    // Ingest beside reads.
    let stop = AtomicBool::new(false);
    let mut read_outcomes = Outcomes::default();
    let mut write = Vec::new();
    let mut infers = Vec::new();
    let mut completed = Vec::new();
    let mut streamed = PathObservations::new(inputs.instance.num_paths());
    // The PROBS after the first INFER, and the snapshots streamed by then.
    let mut scored: Option<(String, PathObservations)> = None;
    let mut traced_wall = Duration::ZERO;
    let (mut traced_steps, mut untraced_steps) = (Vec::new(), Vec::new());
    let window = Duration::from_secs(config.seconds);
    let mut acked = 0usize;
    let mut writer_wall = Duration::ZERO;
    let mut writer_error = None;
    let (reads, lateness) = std::thread::scope(|scope| {
        let reads = scope.spawn(|| read_open_loop(&mut reader, None, &stop, &mut read_outcomes));
        let mut run_writer = || -> Result<(), String> {
            let mut chunk = PathObservations::new(inputs.instance.num_paths());
            let mut chunk_start = PRELOAD;
            let start = Instant::now();
            let mut open_slot: Option<Instant> = None;
            loop {
                let top = Instant::now();
                if let Some(slot) = open_slot.take() {
                    traced_wall += top - slot;
                }
                let done = if config.trace {
                    acked == TRACED_INGESTS
                } else {
                    acked >= MIN_INGESTS && start.elapsed() >= window
                };
                if done {
                    break;
                }
                let s = PRELOAD + acked;
                if s >= chunk_start + chunk.num_snapshots() {
                    chunk_start = s;
                    chunk = inputs.snapshots(s..s + CHUNK);
                }
                let block = single(&chunk, s - chunk_start);
                let framed = frame_observations(&block);
                // Odd steps are traced, so every INFER step is.
                let traced = config.trace && !acked.is_multiple_of(2);
                let t0 = Instant::now();
                let reply = writer.counted(&framed, &mut report.outcomes)?;
                let t1 = Instant::now();
                write.push(ms(t1 - t0));
                let rtt = |d: Duration| traced.then_some(d);
                if config.trace {
                    log.push(Logged {
                        framed,
                        reply,
                        rtt: rtt(t1 - t0),
                    });
                }
                streamed.concat(&block).map_err(|e| e.to_string())?;
                acked += 1;
                if acked.is_multiple_of(INFER_EVERY) {
                    let t = Instant::now();
                    let reply = writer.counted(b"INFER\n", &mut report.outcomes)?;
                    infers.push(ms(t.elapsed()));
                    if config.trace {
                        log.push(Logged {
                            framed: b"INFER\n".to_vec(),
                            reply,
                            rtt: rtt(t.elapsed()),
                        });
                    }
                    if acked == INFER_EVERY {
                        let t = Instant::now();
                        let probs = writer.counted(b"PROBS\n", &mut report.outcomes)?;
                        if config.trace {
                            log.push(Logged {
                                framed: b"PROBS\n".to_vec(),
                                reply: probs.clone(),
                                rtt: rtt(t.elapsed()),
                            });
                        }
                        scored = Some((probs, streamed.clone()));
                    }
                }
                completed.push(start.elapsed().as_secs_f64());
                if traced {
                    traced_steps.push(ms(t0.elapsed()));
                    open_slot = Some(top);
                } else if config.trace {
                    untraced_steps.push(ms(t0.elapsed()));
                }
            }
            writer_wall = start.elapsed();
            Ok(())
        };
        if let Err(e) = run_writer() {
            writer_error = Some(e);
        }
        stop.store(true, Ordering::Relaxed);
        reads.join().expect("the reader thread does not panic")
    });
    if let Some(e) = writer_error {
        return Err(format!("writer: {e}"));
    }
    report.outcomes.add(&read_outcomes);
    drop(reader);

    // Checks: the acked count, then the history file itself.
    let status = writer.counted(b"STATUS\n", &mut report.outcomes)?;
    let reinfers: usize = daemon::field(&status, "reinfers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    report.check(
        daemon::field(&status, "snapshots") == Some(&(PRELOAD + acked).to_string()),
        || {
            format!(
                "STATUS reports {:?} snapshots, expected preload + sent = {}",
                daemon::field(&status, "snapshots"),
                PRELOAD + acked
            )
        },
    );
    let peak_rss_mb = daemon::peak_rss_mb(daemon.pid())?;
    let stall_ms = if config.trace {
        daemon::nagle_stall_ms(&daemon)?
    } else {
        0.0
    };
    report.outcomes.attempted += 1;
    daemon.shutdown(&mut writer)?;
    let mut expected = preload.clone();
    expected.concat(&streamed).map_err(|e| e.to_string())?;
    let persisted = persist::read_observations(&history).map_err(|e| e.to_string())?;
    report.check(persisted == expected, || {
        "the history file does not hold exactly the preload plus the streamed snapshots".into()
    });

    let mean_abs_error = match scored {
        Some((probs, streamed)) => {
            let mut seen = preload.clone();
            seen.concat(&streamed).map_err(|e| e.to_string())?;
            inputs.mean_abs_error(&parse_probs(&probs)?, &seen)
        }
        None => return Err("the scored INFER was not reached".into()),
    };
    let under = Latency::summarise(&reads)?;
    let mut late = lateness;
    late.sort_by(f64::total_cmp);
    println!(
        "ingest: {acked} acked in {:.3} s, {} INFER (p50 {:.3} ms); reads: idle p50 {:.4} ms (n={}), \
         under ingest {}; generator lateness p50 {:.4} / p99 {:.4} / \
         max {:.4} ms",
        writer_wall.as_secs_f64(),
        infers.len(),
        if infers.is_empty() { 0.0 } else { median(&infers) },
        idle_p50,
        idle.len(),
        under.describe(),
        crate::stats::percentile(&late, 0.5),
        crate::stats::percentile(&late, 0.99),
        late.last().copied().unwrap_or(0.0),
    );

    if !config.trace {
        let write = Latency::summarise(&write)?;
        println!("OBS ack: {}", write.describe());
        println!("set-ups (s): {setups:?}");
        report.set("setup_s", median(&setups));
        report.set("throughput_per_s", sustained_rate(&completed, RATE_WINDOW)?);
        report.set("write_ms_p90", write.p90);
        report.set("answer_ms_p90", under.p90);
        report.set("mean_abs_error", mean_abs_error);
        report.set("peak_rss_mb", peak_rss_mb);
        return Ok(report);
    }

    println!(
        "finding: a TCP client that delays its ACKs waits {:.3} ms per request (PING median); \
         the figures above acknowledge at once (TCP_QUICKACK)",
        stall_ms
    );
    let mut trace = Trace::new();
    serving::replay_startup(
        Duration::from_secs_f64(setups[0]),
        Some(&original),
        &mut trace,
    )?;
    let copies = ReplayHistory {
        service_file: dir.join("replay-service.ncobs3"),
        layer_file: dir.join("replay-layers.ncobs3"),
    };
    serving::copy_file(&original, &copies.service_file)?;
    serving::copy_file(&original, &copies.layer_file)?;
    let mut replayed = serving::replay(
        &inputs.instance,
        &log,
        Some(&copies),
        &mut trace,
        &mut report,
    )?;
    let daemon_bytes = std::fs::read(&history).map_err(|e| e.to_string())?;
    let replay_bytes = std::fs::read(&copies.layer_file).map_err(|e| e.to_string())?;
    report.check(daemon_bytes == replay_bytes, || {
        "the layer replay's history file differs from the daemon's".into()
    });
    let layers = trace.layers();
    serving::set_layers(&mut report, &layers);
    // Reads: the in-process cost of the PROBS the reader sent.
    let mut empty: &[u8] = &[];
    let t = Instant::now();
    for _ in 0..reads.len() {
        execute(&mut replayed.service, "PROBS", &mut empty);
    }
    report.set(
        "serve.protocol.probs_us",
        us(t.elapsed()) / reads.len().max(1) as f64,
    );
    let sample = &replayed.bytes_written[..BYTES_SAMPLE.min(replayed.bytes_written.len())];
    report.set(
        "eval.persist.bytes_per_ingest",
        sample.iter().sum::<usize>() as f64 / sample.len().max(1) as f64,
    );
    report.set("serve.service.reinfers", reinfers as f64);
    // The typical wait a read spends behind ingest: medians, which one
    // host hiccup in the short idle phase cannot swing.
    report.set("serve.read.wait_us", (under.p50 - idle_p50) * 1e3);
    report.set(
        "trace.overhead_ratio",
        median(&traced_steps) / median(&untraced_steps),
    );
    let coverage = Coverage::of(&trace, Duration::from_secs_f64(setups[0]) + traced_wall);
    report.set("trace.coverage", coverage.ratio());
    report.set("trace.other_ms", coverage.other_ms());
    crate::print_layers(&layers, &coverage);
    println!(
        "eval.persist.bytes_per_ingest: mean over the first {} ingests after a {PRELOAD}-snapshot preload",
        sample.len()
    );
    report.check(coverage.ratio() >= 0.9, || {
        format!(
            "layers cover {:.1}% of the traced wall time",
            coverage.ratio() * 100.0
        )
    });
    Ok(report)
}
