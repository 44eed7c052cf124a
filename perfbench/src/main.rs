//! The netcorr benchmark: one command, three workloads, end-to-end
//! metrics with tracing off and a per-layer breakdown with tracing on.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline-paper|daemon-refresh|daemon-ingest \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The daemon workloads build the real
//! `netcorr-serve` binary from the repository's workspace first. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it print every
//! metric by name with its unit, the plan each workload ran, and (traced)
//! each layer's self time. The exit code is non-zero when a check fails.

use std::collections::BTreeMap;
use std::process::ExitCode;

mod daemon;
mod ingest;
mod inputs;
mod offline;
mod refresh;
mod report;
mod serving;
mod stats;
mod trace;

/// Parsed command line.
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn usage() -> &'static str {
    "usage: netcorr-perfbench --workload offline-paper|daemon-refresh|daemon-ingest \
     --seed N --seconds S --trace 0|1"
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<RunConfig, String> {
    let mut config = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--workload" => config.workload = value()?,
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if config.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(config)
}

/// The SIMD kernel tier the measure layer dispatches to.
pub fn kernel_tier() -> &'static str {
    netcorr_measure::bitset::simd::active_tier().as_str()
}

/// `std::thread::available_parallelism`, or 1.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prints each layer's self time, call count and share of the traced
/// wall time (`*` marks layers timed by replay), then the uncovered
/// remainder.
pub fn print_layers(layers: &BTreeMap<&'static str, trace::LayerTime>, coverage: &trace::Coverage) {
    println!(
        "{:<40} {:>14} {:>10} {:>8}",
        "layer (self time)", "ms", "calls", "share"
    );
    for (name, layer) in layers {
        let name = if layer.replayed {
            format!("{name} *")
        } else {
            name.to_string()
        };
        println!(
            "{name:<40} {:>14.3} {:>10} {:>7.2}%",
            layer.self_nanos / 1e6,
            layer.count,
            layer.self_nanos / coverage.wall_nanos * 100.0
        );
    }
    println!(
        "{:<40} {:>14.3} {:>10} {:>7.2}%",
        "other",
        coverage.other_ms(),
        "",
        (1.0 - coverage.ratio()) * 100.0
    );
}

fn main() -> ExitCode {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("netcorr-perfbench: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match config.workload.as_str() {
        "offline-paper" => offline::run(&config),
        "daemon-refresh" => refresh::run(&config),
        "daemon-ingest" => ingest::run(&config),
        other => {
            eprintln!("netcorr-perfbench: unknown workload {other}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = match result {
        Ok(report) => report,
        Err(message) => {
            eprintln!("netcorr-perfbench: {}: {message}", config.workload);
            return ExitCode::FAILURE;
        }
    };
    let correct = if config.trace {
        report.print(report::PER_LAYER, true)
    } else {
        report.print(report::END_TO_END, false)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_arguments_parse() {
        let config = parse_args(args(
            "--workload daemon-ingest --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(config.workload, "daemon-ingest");
        assert_eq!(config.seed, 7);
        assert_eq!(config.seconds, 10);
        assert!(config.trace);
        assert!(parse_args(args("--trace 2")).is_err());
        assert!(parse_args(args("--seed")).is_err());
        assert!(parse_args(args("--seconds 0")).is_err());
        assert!(parse_args(args("--frobnicate 1")).is_err());
    }
}
