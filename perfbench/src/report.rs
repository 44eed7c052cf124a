//! The metric catalogue and the result line.

use std::collections::BTreeMap;

use crate::stats::Outcomes;

/// End-to-end metrics, reported by every workload with tracing off.
/// Each workload maps "write" and "answer" onto its own operations; see
/// `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("write_ms_p90", "ms"),
    ("answer_ms_p90", "ms"),
    ("mean_abs_error", "prob"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload's path never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.generate_ms", "ms"),
    ("core.equations.structure_ms", "ms"),
    ("linalg.rank.select_s", "s"),
    ("core.context.build_s", "s"),
    ("sim.simulate_ms", "ms"),
    ("measure.estimate_ms", "ms"),
    ("measure.pair_words", "words"),
    ("core.context.solve_ms", "ms"),
    ("linalg.cgls.iterations", "count"),
    ("eval.score_ms", "ms"),
    ("serve.transport_us", "us"),
    ("measure.decode_us", "us"),
    ("measure.streaming.push_us", "us"),
    ("core.equations.rhs_us", "us"),
    ("core.context.reinfer_us", "us"),
    ("serve.protocol.probs_us", "us"),
    ("serve.service.reinfers", "count"),
    ("serve.service.ingest_us", "us"),
    ("measure.streaming.history_binary_us", "us"),
    ("eval.persist.encode_us", "us"),
    ("eval.persist.write_us", "us"),
    ("eval.persist.bytes_per_ingest", "bytes"),
    ("eval.persist.reload_ms", "ms"),
    ("serve.read.wait_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.other_ms", "ms"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed.
    pub outcomes: Outcomes,
    /// Failed output checks, described.
    pub failures: Vec<String>,
}

impl Report {
    /// Sets a metric (the name must be in the catalogue).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Records an output check; a failed one counts against the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.outcomes.attempted += 1;
        if !ok {
            self.outcomes.failed_checks += 1;
            let what = what();
            eprintln!("perfbench: check failed: {what}");
            self.failures.push(what);
        }
    }

    /// Prints every metric of `catalogue` by name with its unit, then the
    /// result line (the last line of standard output). Per-layer metrics
    /// the workload did not set read 0; a missing or non-finite
    /// end-to-end metric makes the run incorrect.
    pub fn print(mut self, catalogue: &[(&'static str, &'static str)], fill_zero: bool) -> bool {
        let mut fields = Vec::new();
        for &(name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if fill_zero => 0.0,
                None => {
                    self.failures
                        .push(format!("metric {name} was not measured"));
                    continue;
                }
            };
            if !value.is_finite() {
                self.failures.push(format!("metric {name} is not finite"));
                continue;
            }
            println!("{name:<40} {value:>16.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let correct = self.failures.is_empty() && self.outcomes.failed() == 0;
        println!(
            "error_ratio {:.6} ({} failed of {} attempted)",
            self.outcomes.error_ratio(),
            self.outcomes.failed(),
            self.outcomes.attempted
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.outcomes.attempted.max(1),
            self.outcomes.failed(),
            fields.join(", ")
        );
        correct
    }
}

/// A JSON number with every digit of the measured value (Rust prints the
/// shortest string that parses back to the same `f64`).
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(1.2034567891234), "1.2034567891234");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-7), "0.0000001");
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn failed_checks_count_against_the_run() {
        let mut report = Report::default();
        report.check(true, || "fine".into());
        report.check(false, || "broken".into());
        assert_eq!(report.outcomes.attempted, 2);
        assert_eq!(report.outcomes.failed(), 1);
        assert_eq!(report.failures, vec!["broken".to_string()]);
    }
}
