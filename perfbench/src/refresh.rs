//! `daemon-refresh`: the online path, where every fresh estimate costs a
//! minimum-L1 re-solve.
//!
//! A real `netcorr-serve --topology planetlab-smoke` over a unix socket,
//! without history. One closed-loop client sends a 250-snapshot warm-up
//! block, then repeats `OBS` (one snapshot) → `INFER` → `PROBS`.
//! "write" runs from the snapshot sent to the `INFER` reply (the daemon's
//! estimate now reflects it); "answer" runs on to the `PROBS` reply, the
//! time to a fresh estimate held by the client. The `OBS` round trip
//! alone is tens of microseconds, where the host's scheduling jitter
//! swamps it; it is printed, not reported.

use std::time::{Duration, Instant};

use netcorr_core::{AlgorithmConfig, InferenceContext};
use netcorr_measure::PathObservations;
use netcorr_serve::protocol::frame_observations;

use crate::daemon::{self, parse_probs, Endpoint, RunDir};
use crate::inputs::{single, DaemonInputs};
use crate::report::Report;
use crate::serving::{self, Logged};
use crate::stats::{median, ms, sustained_rate, Latency};
use crate::trace::{Coverage, Trace};
use crate::RunConfig;

/// Snapshots in the warm-up block: enough that the right-hand side, and
/// with it the LP each refresh solves, sits near its long-run value.
const WARMUP: usize = 20_000;
/// Minimum cycles per untraced run: enough for the printed p99.
const MIN_CYCLES: usize = 1000;
/// Cycles of a traced run (fixed, so its counters are exact).
const TRACED_CYCLES: usize = 2000;
/// Cycles per throughput window.
const RATE_WINDOW: usize = 64;
/// Snapshots simulated at a time, ahead of the cycles that send them.
const CHUNK: usize = 1024;

/// Runs the workload.
pub fn run(config: &RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    let binary = daemon::build()?;
    let inputs = DaemonInputs::new(config.seed)?;
    let dir = RunDir::new("daemon-refresh")?;

    let repeats = if config.trace {
        1
    } else {
        serving::SETUP_REPEATS
    };
    let (daemon, mut conn, setups) = serving::start_repeatedly(
        &binary,
        repeats,
        serving::DAEMON_ARGS,
        |i| Endpoint::Unix(dir.join(&format!("sock{i}"))),
        |_| Ok(()),
        &mut report,
    )?;
    let status = conn.counted(b"STATUS\n", &mut report.outcomes)?;
    daemon::check_plan("daemon-refresh", &status, "DenseL1", &mut report);

    // Warm-up.
    let warm = inputs.snapshots(0..WARMUP);
    let mut streamed = PathObservations::new(inputs.instance.num_paths());
    let mut chunk = PathObservations::new(inputs.instance.num_paths());
    let mut log: Vec<Logged> = Vec::new();
    for framed in [frame_observations(&warm), b"INFER\n".to_vec()] {
        let reply = conn.counted(&framed, &mut report.outcomes)?;
        log.push(Logged {
            framed,
            reply,
            rtt: None,
        });
    }
    streamed.concat(&warm).map_err(|e| e.to_string())?;
    // Quality is scored on the warm-up estimate, a pure function of the
    // seed however many cycles the window fits.
    let probs = conn.counted(b"PROBS\n", &mut report.outcomes)?;
    let mean_abs_error = inputs.mean_abs_error(&parse_probs(&probs)?, &streamed);
    log.push(Logged {
        framed: b"PROBS\n".to_vec(),
        reply: probs,
        rtt: None,
    });
    let mut chunk_start = WARMUP;

    // Cycles.
    let mut obs_rtt = Vec::new();
    let mut write = Vec::new();
    let mut fresh = Vec::new();
    let mut completed = Vec::new();
    let mut traced_wall = Duration::ZERO;
    let mut traced_cycle = Vec::new();
    let mut untraced_cycle = Vec::new();
    let mut last_probs = String::new();
    let window = Duration::from_secs(config.seconds);
    let loop_start = Instant::now();
    let mut cycles = 0usize;
    // A traced cycle's slot runs from its start to the next cycle's, so
    // the client's own bookkeeping counts as uncovered time.
    let mut open_slot: Option<Instant> = None;
    loop {
        let top = Instant::now();
        if let Some(slot) = open_slot.take() {
            traced_wall += top - slot;
        }
        let done = if config.trace {
            cycles == TRACED_CYCLES
        } else {
            cycles >= MIN_CYCLES && loop_start.elapsed() >= window
        };
        if done {
            break;
        }
        let s = WARMUP + cycles;
        if s >= chunk_start + chunk.num_snapshots() {
            chunk_start = s;
            chunk = inputs.snapshots(s..s + CHUNK);
        }
        let block = single(&chunk, s - chunk_start);
        let framed = frame_observations(&block);
        let traced = config.trace && cycles.is_multiple_of(2);

        let t0 = Instant::now();
        let obs = conn.counted(&framed, &mut report.outcomes)?;
        let t1 = Instant::now();
        let infer = conn.counted(b"INFER\n", &mut report.outcomes)?;
        let t2 = Instant::now();
        let probs = conn.counted(b"PROBS\n", &mut report.outcomes)?;
        let t3 = Instant::now();

        obs_rtt.push(ms(t1 - t0));
        write.push(ms(t2 - t0));
        fresh.push(ms(t3 - t0));
        completed.push((t3 - loop_start).as_secs_f64());
        streamed.concat(&block).map_err(|e| e.to_string())?;
        if config.trace {
            let rtt = |d: Duration| traced.then_some(d);
            log.push(Logged {
                framed,
                reply: obs,
                rtt: rtt(t1 - t0),
            });
            log.push(Logged {
                framed: b"INFER\n".to_vec(),
                reply: infer,
                rtt: rtt(t2 - t1),
            });
            log.push(Logged {
                framed: b"PROBS\n".to_vec(),
                reply: probs.clone(),
                rtt: rtt(t3 - t2),
            });
            if traced {
                traced_cycle.push(ms(t3 - t0));
                open_slot = Some(top);
            } else {
                untraced_cycle.push(ms(t3 - t0));
            }
        }
        cycles += 1;
        last_probs = probs;
    }
    let loop_wall = loop_start.elapsed();

    // Checks: bit-identity with offline inference, the re-inference count.
    let offline = InferenceContext::new(&inputs.instance, &AlgorithmConfig::default())
        .and_then(|context| context.infer(&streamed))
        .map_err(|e| e.to_string())?;
    let served = parse_probs(&last_probs)?;
    report.check(
        served.len() == offline.probabilities().len()
            && served
                .iter()
                .zip(offline.probabilities())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        || "the final PROBS differ from InferenceContext::infer over the streamed snapshots".into(),
    );
    let status = conn.counted(b"STATUS\n", &mut report.outcomes)?;
    let reinfers: usize = daemon::field(&status, "reinfers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    report.check(reinfers == cycles + 1, || {
        format!(
            "STATUS reinfers={reinfers}, expected one per cycle plus the warm-up: {}",
            cycles + 1
        )
    });
    let snapshots: usize = daemon::field(&status, "snapshots")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    report.check(snapshots == WARMUP + cycles, || {
        format!("STATUS snapshots={snapshots}, expected {}", WARMUP + cycles)
    });
    let peak_rss_mb = daemon::peak_rss_mb(daemon.pid())?;
    report.outcomes.attempted += 1;
    daemon.shutdown(&mut conn)?;

    let write = Latency::summarise(&write)?;
    let answer = Latency::summarise(&fresh)?;
    println!(
        "cycles: {cycles} in {:.3} s\nOBS round trip: {}\nOBS sent to INFER reply: {}\n\
         OBS sent to PROBS held (fresh estimate): {}",
        loop_wall.as_secs_f64(),
        Latency::summarise(&obs_rtt)?.describe(),
        write.describe(),
        answer.describe()
    );
    println!(
        "known gap: the DenseL1 plan reports iterations=0, so simplex pivots are not observable"
    );

    if !config.trace {
        println!("set-ups (s): {setups:?}");
        report.set("setup_s", median(&setups));
        report.set("throughput_per_s", sustained_rate(&completed, RATE_WINDOW)?);
        report.set("write_ms_p90", write.p90);
        report.set("answer_ms_p90", answer.p90);
        report.set("mean_abs_error", mean_abs_error);
        report.set("peak_rss_mb", peak_rss_mb);
        return Ok(report);
    }

    let mut trace = Trace::new();
    serving::replay_startup(Duration::from_secs_f64(setups[0]), None, &mut trace)?;
    let replayed = serving::replay(&inputs.instance, &log, None, &mut trace, &mut report)?;
    let served_bits: Vec<u64> = served.iter().map(|p| p.to_bits()).collect();
    let replay_bits: Vec<u64> = replayed
        .probabilities
        .unwrap_or_default()
        .iter()
        .map(|p| p.to_bits())
        .collect();
    report.check(served_bits == replay_bits, || {
        "the layer replay's final estimate differs from the daemon's".into()
    });
    let layers = trace.layers();
    serving::set_layers(&mut report, &layers);
    report.set("serve.service.reinfers", reinfers as f64);
    report.set(
        "trace.overhead_ratio",
        median(&traced_cycle) / median(&untraced_cycle),
    );
    let coverage = Coverage::of(&trace, Duration::from_secs_f64(setups[0]) + traced_wall);
    report.set("trace.coverage", coverage.ratio());
    report.set("trace.other_ms", coverage.other_ms());
    crate::print_layers(&layers, &coverage);
    report.check(coverage.ratio() >= 0.9, || {
        format!(
            "layers cover {:.1}% of the traced wall time",
            coverage.ratio() * 100.0
        )
    });
    Ok(report)
}
