//! Spans recorded around calls into the program's layers, kept in memory
//! and reduced to per-layer self times when the run ends.
//!
//! A span is either *timed*, around a call on the workload's own path, or
//! *replayed*: its duration was measured by re-running the same inputs
//! through the layer's public function, because the workload called that
//! layer from inside a function (or a process) the benchmark cannot open.
//! Replayed spans hang under the timed span whose work they decompose,
//! so a parent's self time is its duration minus what its children
//! account for, timed or replayed alike.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `core.context.solve`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Duration in nanoseconds.
    pub nanos: u64,
    /// Whether the duration comes from a replay (see the module docs).
    pub replayed: bool,
}

/// An in-memory span log for one thread.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    spans: Vec<Span>,
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Summed self time in nanoseconds (may be negative for a parent
    /// whose replayed children ran slower than its own call).
    pub self_nanos: f64,
    /// Summed span duration in nanoseconds.
    pub total_nanos: f64,
    /// Number of spans.
    pub count: u64,
    /// Whether any of the spans was replayed.
    pub replayed: bool,
}

impl LayerTime {
    /// Mean span duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_nanos / self.count as f64 / 1e3
        }
    }
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records a span with an explicit duration.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        duration: Duration,
        replayed: bool,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            nanos: duration.as_nanos() as u64,
            replayed,
        });
        self.spans.len() - 1
    }

    /// Records a timed span that started at `start` and ends now.
    pub fn close(&mut self, name: &'static str, parent: Option<usize>, start: Instant) -> usize {
        self.record(name, parent, start.elapsed(), false)
    }

    /// Reserves a parent span before its children are recorded; its
    /// duration is filled in by [`Trace::finish`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.record(name, parent, Duration::ZERO, false)
    }

    /// Sets the duration of a span reserved with [`Trace::open`].
    pub fn finish(&mut self, span: usize, duration: Duration) {
        self.spans[span].nanos = duration.as_nanos() as u64;
    }

    /// Appends another trace's spans (re-indexing their parents).
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Self time and count per layer name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_nanos = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_nanos[parent] += span.nanos as f64;
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_nanos) {
            let layer = layers.entry(span.name).or_default();
            layer.self_nanos += span.nanos as f64 - children;
            layer.total_nanos += span.nanos as f64;
            layer.count += 1;
            layer.replayed |= span.replayed;
        }
        layers
    }
}

/// How much of a traced wall time the layers' self times account for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    /// Summed self time of every layer, in nanoseconds.
    pub covered_nanos: f64,
    /// The traced wall time, in nanoseconds.
    pub wall_nanos: f64,
}

impl Coverage {
    /// Coverage of `wall` by the self times in `trace`.
    pub fn of(trace: &Trace, wall: Duration) -> Coverage {
        Coverage {
            covered_nanos: trace.layers().values().map(|l| l.self_nanos).sum(),
            wall_nanos: wall.as_nanos() as f64,
        }
    }

    /// Covered share of the wall time.
    pub fn ratio(&self) -> f64 {
        self.covered_nanos / self.wall_nanos
    }

    /// The wall time no layer accounts for, in milliseconds.
    pub fn other_ms(&self) -> f64 {
        (self.wall_nanos - self.covered_nanos) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_timed_and_replayed_children() {
        let mut trace = Trace::new();
        let parent = trace.record(
            "serve.service.ingest",
            None,
            Duration::from_micros(100),
            false,
        );
        trace.record(
            "measure.decode",
            Some(parent),
            Duration::from_micros(10),
            true,
        );
        trace.record(
            "eval.persist.write",
            Some(parent),
            Duration::from_micros(60),
            true,
        );
        let other = trace.record(
            "serve.service.ingest",
            None,
            Duration::from_micros(50),
            false,
        );
        trace.record(
            "measure.decode",
            Some(other),
            Duration::from_micros(20),
            false,
        );

        let layers = trace.layers();
        let ingest = layers["serve.service.ingest"];
        assert_eq!(ingest.count, 2);
        assert_eq!(ingest.total_nanos, 150_000.0);
        assert_eq!(ingest.self_nanos, 60_000.0);
        assert_eq!(ingest.mean_us(), 75.0);
        assert_eq!(layers["measure.decode"].self_nanos, 30_000.0);
        assert!(layers["measure.decode"].replayed && !ingest.replayed);

        // Self times add up to the top-level spans.
        let coverage = Coverage::of(&trace, Duration::from_micros(200));
        assert_eq!(coverage.covered_nanos, 150_000.0);
        assert_eq!(coverage.ratio(), 0.75);
        assert_eq!(coverage.other_ms(), 0.05);
    }

    #[test]
    fn absorbed_traces_keep_their_parent_links() {
        let mut a = Trace::new();
        a.record("x", None, Duration::from_nanos(5), false);
        let mut b = Trace::new();
        let parent = b.open("trial", None);
        b.record(
            "sim.simulate",
            Some(parent),
            Duration::from_nanos(400_000),
            false,
        );
        b.finish(parent, Duration::from_nanos(1_000_000));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        let layers = a.layers();
        assert_eq!(layers["trial"].self_nanos, 600_000.0);
        assert_eq!(layers["sim.simulate"].total_nanos, 400_000.0);
    }
}
