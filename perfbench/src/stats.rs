//! Sample statistics: percentiles with a supported tail, open-loop
//! due-time latency, and failure counting.

use std::time::{Duration, Instant};

/// Minimum number of samples that must lie beyond a reported tail
/// percentile for it to be supported by the sample.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Windows a throughput figure needs at least.
pub const MIN_WINDOWS: usize = 10;

/// The completion rate a loop sustains in nine windows out of ten:
/// `completions` (seconds since the loop started, ascending) are cut into
/// consecutive windows of `window` completions, each window's rate is
/// `window` over the time it spanned, and the 10th percentile of those
/// rates is returned. Like p90 for latency, it sits in the host's slow
/// spells rather than moving with their share of the run, and a window
/// that spans whole periods of any periodic work still counts that work
/// in full.
pub fn sustained_rate(completions: &[f64], window: usize) -> Result<f64, String> {
    let windows = completions.len() / window.max(1);
    if windows < MIN_WINDOWS {
        return Err(format!(
            "{} completions make {windows} windows of {window}, fewer than {MIN_WINDOWS}",
            completions.len()
        ));
    }
    let mut rates: Vec<f64> = (0..windows)
        .map(|w| {
            let start = if w == 0 {
                0.0
            } else {
                completions[w * window - 1]
            };
            window as f64 / (completions[(w + 1) * window - 1] - start)
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    Ok(percentile(&rates, 0.1))
}

/// What every workload reports of a latency sample.
///
/// On a shared host the slowdowns come in bursts: within a run,
/// latencies are a mixture of a fast and a slow mode (about 1.7x apart)
/// whose shares change from run to run and from minute to minute, and
/// I/O stalls add rare outliers. The median, any mean and even p25 move
/// with the slow share (measured spreads of 0.36 to 0.38 of their median
/// over ten runs), and p99 swings with a handful of stalls (up to 0.8).
/// p90 sits above the fast mode without resting on a few samples, so it
/// is the reported metric; p25, p50 and p99 are printed beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Number of samples.
    pub n: usize,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile, when ten samples lie beyond it.
    pub p99: Option<f64>,
}

impl Latency {
    /// Summarises `values`; errors when fewer than [`TAIL_SUPPORT`]
    /// samples lie beyond p90, so a workload never reports a tail made
    /// of a handful of samples.
    pub fn summarise(values: &[f64]) -> Result<Latency, String> {
        if samples_beyond(values.len(), 0.9) < TAIL_SUPPORT {
            return Err(format!(
                "{} samples do not support p90: fewer than {TAIL_SUPPORT} lie beyond it",
                values.len()
            ));
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(Latency {
            n: sorted.len(),
            p25: percentile(&sorted, 0.25),
            p50: percentile(&sorted, 0.5),
            p90: percentile(&sorted, 0.9),
            p99: (samples_beyond(sorted.len(), 0.99) >= TAIL_SUPPORT)
                .then(|| percentile(&sorted, 0.99)),
        })
    }

    /// One line for the report: sample count and percentiles.
    pub fn describe(&self) -> String {
        let p99 = self.p99.map_or("n/a".to_string(), |v| format!("{v:.4}"));
        format!(
            "n={} p25 {:.4} p50 {:.4} p90 {:.4} p99 {p99} ms",
            self.n, self.p25, self.p50, self.p90
        )
    }
}

/// An open-loop arrival schedule: request `i` is due at
/// `start + i * interval`, whether or not earlier replies have arrived.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// When request 0 is due.
    pub start: Instant,
    /// Gap between consecutive due times.
    pub interval: Duration,
}

impl Schedule {
    /// The due time of request `i`.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval * i as u32
    }
}

/// One open-loop request's timing, measured from its due time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DueTiming {
    /// Reply received minus due time: the latency a user arriving on
    /// schedule sees, including any wait a stall imposed on the sender.
    pub latency: Duration,
    /// Send time minus due time: how late the generator ran.
    pub lateness: Duration,
}

/// Times one open-loop request from its due time. A request sent before
/// it was due (the generator never does that) counts from its send time.
pub fn due_timing(due: Instant, sent: Instant, replied: Instant) -> DueTiming {
    let due = due.min(sent);
    DueTiming {
        latency: replied - due,
        lateness: sent - due,
    }
}

/// Counts operations attempted and the three ways one can fail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations attempted (requests sent, daemon spawns, trials).
    pub attempted: u64,
    /// `ERR` replies from the daemon.
    pub err_replies: u64,
    /// Transport errors: failed connects, reads, writes, spawns.
    pub transport_errors: u64,
    /// Output checks that failed.
    pub failed_checks: u64,
}

impl Outcomes {
    /// Operations that failed in any of the three ways.
    pub fn failed(&self) -> u64 {
        self.err_replies + self.transport_errors + self.failed_checks
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Adds another tally to this one.
    pub fn add(&mut self, other: &Outcomes) {
        self.attempted += other.attempted;
        self.err_replies += other.err_replies;
        self.transport_errors += other.transport_errors;
        self.failed_checks += other.failed_checks;
    }
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly ten beyond it; of 999, nine.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        // p90, the reported tail, needs 100 samples.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(20, 0.5), 10);
    }

    #[test]
    fn summaries_refuse_an_unsupported_tail() {
        let values: Vec<f64> = (0..1000).map(|i| (999 - i) as f64).collect();
        let summary = Latency::summarise(&values).unwrap();
        assert_eq!(summary.n, 1000);
        assert_eq!(summary.p25, 249.0);
        assert_eq!(summary.p50, 499.0);
        assert_eq!(summary.p90, 899.0);
        assert_eq!(summary.p99, Some(989.0));
        // 100 samples support p90 but not p99; 99 support neither.
        assert_eq!(Latency::summarise(&values[..100]).unwrap().p99, None);
        assert!(Latency::summarise(&values[..99]).is_err());
    }

    #[test]
    fn sustained_rate_is_the_tenth_percentile_window() {
        // Twenty windows of ten completions: eighteen at ten per second,
        // two stalled to five per second, one to two per second.
        let mut t = 0.0;
        let mut completions = Vec::new();
        for w in 0..20 {
            let gap = match w {
                3 => 0.5,
                7 | 11 => 0.2,
                _ => 0.1,
            };
            for _ in 0..10 {
                t += gap;
                completions.push(t);
            }
        }
        let rate = sustained_rate(&completions, 10).unwrap();
        assert!((rate - 5.0).abs() < 1e-9, "{rate}");
        assert!(sustained_rate(&completions[..99], 10).is_err());
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn open_loop_latency_counts_the_wait_behind_a_stall() {
        let start = Instant::now();
        let schedule = Schedule {
            start,
            interval: Duration::from_millis(1),
        };
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(3), start + Duration::from_millis(3));
        // Request 1 is due at 1 ms, but a 5 ms stall on request 0 holds
        // the sender until 5 ms; its reply lands at 5.2 ms.
        let due = schedule.due(1);
        let sent = start + Duration::from_millis(5);
        let replied = sent + Duration::from_micros(200);
        let timing = due_timing(due, sent, replied);
        assert_eq!(timing.lateness, Duration::from_millis(4));
        assert_eq!(timing.latency, Duration::from_micros(4200));
        // On schedule: latency is the round trip, lateness zero.
        let on_time = due_timing(due, due, due + Duration::from_micros(50));
        assert_eq!(on_time.lateness, Duration::ZERO);
        assert_eq!(on_time.latency, Duration::from_micros(50));
    }

    #[test]
    fn error_ratio_counts_every_kind_of_failure() {
        let mut outcomes = Outcomes {
            attempted: 200,
            err_replies: 1,
            transport_errors: 2,
            failed_checks: 1,
        };
        assert_eq!(outcomes.failed(), 4);
        assert_eq!(outcomes.error_ratio(), 0.02);
        outcomes.add(&Outcomes {
            attempted: 200,
            ..Outcomes::default()
        });
        assert_eq!(outcomes.error_ratio(), 0.01);
        assert_eq!(Outcomes::default().error_ratio(), 0.0);
    }
}
