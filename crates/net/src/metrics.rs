//! Per-node protocol metrics.
//!
//! A [`MetricRegistry`] holds named monotonic counters, point-in-time
//! gauges, and latency histograms ([`LatencyWindow`]: exact count, mean
//! and maximum, percentiles over the newest [`LATENCY_WINDOW`] samples).
//! It has no dependencies and no background machinery: protocol code
//! bumps counters inline, and callers take a [`MetricsSnapshot`] when
//! they want to read or print the numbers.
//!
//! [`Observability`] bundles a registry with a bounded
//! [`crate::trace::TraceLog`]; its [`record`](Observability::record)
//! method appends a trace event *and* bumps the matching `ev.<kind>`
//! counter, so aggregate event counts stay exact even after the trace
//! ring has dropped old records.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::time::Duration;

use crate::stats::Histogram;
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceLog};

/// How many of the newest samples a [`LatencyWindow`] keeps for its
/// percentiles.
pub const LATENCY_WINDOW: usize = 4096;

/// One latency histogram of a [`MetricRegistry`]. The count, the sum and
/// the maximum cover every sample recorded; the percentiles cover the
/// newest [`LATENCY_WINDOW`] samples. A long-lived node records one sample
/// per completed call, so its memory and the cost of a snapshot stay
/// bounded. (The experiment harness keeps every sample in a
/// [`Histogram`].)
#[derive(Clone, Debug, Default)]
pub struct LatencyWindow {
    count: usize,
    total_nanos: u128,
    max: Duration,
    recent: VecDeque<Duration>,
}

impl LatencyWindow {
    /// Records one sample, dropping the oldest kept one once the window
    /// is full.
    pub fn record(&mut self, sample: Duration) {
        self.count += 1;
        self.total_nanos += sample.as_nanos();
        self.max = self.max.max(sample);
        if self.recent.len() == LATENCY_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(sample);
    }

    /// Samples kept for the percentiles: the newest, at most
    /// [`LATENCY_WINDOW`].
    #[must_use]
    pub fn retained(&self) -> usize {
        self.recent.len()
    }

    /// Folds another window into this one: counts and sums add, the
    /// larger maximum wins, and the other's kept samples follow this
    /// one's, trimmed to the newest [`LATENCY_WINDOW`].
    pub fn merge(&mut self, other: &LatencyWindow) {
        self.count += other.count;
        self.total_nanos += other.total_nanos;
        self.max = self.max.max(other.max);
        self.recent.extend(other.recent.iter().copied());
        let excess = self.recent.len().saturating_sub(LATENCY_WINDOW);
        self.recent.drain(..excess);
    }

    /// The window's five-number summary.
    #[must_use]
    pub fn summary(&self) -> LatencySummary {
        let mut kept = Histogram::new();
        for &sample in &self.recent {
            kept.record(sample);
        }
        let mean = if self.count == 0 {
            Duration::ZERO
        } else {
            let nanos = self.total_nanos / self.count as u128;
            Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
        };
        LatencySummary {
            count: self.count,
            mean,
            p50: kept.quantile(0.50),
            p99: kept.quantile(0.99),
            max: self.max,
        }
    }
}

/// Named counters, gauges, and latency histograms for one node.
///
/// Names are dotted paths by convention: a component prefix, then the
/// measure (`"gcs.msgs_sent"`, `"inv.calls_issued"`, `"ev.rebind"`).
#[derive(Clone, Debug, Default)]
pub struct MetricRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    latencies: BTreeMap<String, LatencyWindow>,
}

impl MetricRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first (so
    /// even a zero-delta add materialises the counter in snapshots).
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// The named counter's value (zero when never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// The named gauge's value, if ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records one latency sample into the named histogram.
    pub fn record_latency(&mut self, name: &str, sample: Duration) {
        self.latencies
            .entry(name.to_string())
            .or_default()
            .record(sample);
    }

    /// The named latency histogram, if any samples were recorded.
    #[must_use]
    pub fn latency(&self, name: &str) -> Option<&LatencyWindow> {
        self.latencies.get(name)
    }

    /// Iterates all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Folds another registry into this one: counters add, gauges take
    /// the other's value, histograms merge ([`LatencyWindow::merge`]).
    pub fn merge(&mut self, other: &MetricRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.latencies {
            self.latencies.entry(name.clone()).or_default().merge(h);
        }
    }

    /// A point-in-time copy suitable for printing or asserting against.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            latencies: self
                .latencies
                .iter()
                .map(|(name, h)| (name.clone(), h.summary()))
                .collect(),
        }
    }
}

/// Five-number summary of one latency histogram in a snapshot: `count`,
/// `mean` and `max` over every sample, `p50` and `p99` over the newest
/// [`LATENCY_WINDOW`]. All durations are zero when the histogram held no
/// samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: usize,
    /// Mean sample.
    pub mean: Duration,
    /// Median sample.
    pub p50: Duration,
    /// 99th-percentile sample.
    pub p99: Duration,
    /// Largest sample.
    pub max: Duration,
}

/// A point-in-time copy of a [`MetricRegistry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Latency summaries by name.
    pub latencies: BTreeMap<String, LatencySummary>,
}

impl MetricsSnapshot {
    /// The named counter's value (zero when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sums all counters whose name starts with `prefix`.
    #[must_use]
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

fn fmt_dur(d: Duration) -> String {
    format!("{:.3}ms", d.as_secs_f64() * 1e3)
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "{name:<36} {v}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "{name:<36} {v} (gauge)")?;
        }
        for (name, l) in &self.latencies {
            writeln!(
                f,
                "{name:<36} n={} mean={} p50={} p99={} max={}",
                l.count,
                fmt_dur(l.mean),
                fmt_dur(l.p50),
                fmt_dur(l.p99),
                fmt_dur(l.max),
            )?;
        }
        Ok(())
    }
}

/// A metric registry plus a trace log, recorded together.
#[derive(Clone, Debug, Default)]
pub struct Observability {
    /// Counters, gauges, latency histograms.
    pub metrics: MetricRegistry,
    /// Bounded ring of typed protocol events.
    pub trace: TraceLog,
}

impl Observability {
    /// Empty metrics and a default-capacity trace ring.
    #[must_use]
    pub fn new() -> Self {
        Observability::default()
    }

    /// Appends `event` to the trace and bumps its `ev.<kind>` counter.
    ///
    /// The counter is exact for the node's lifetime; the trace ring may
    /// drop old records under sustained load.
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        self.metrics.incr(event.counter_name());
        self.trace.record(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::NodeId;

    #[test]
    fn counters_and_gauges() {
        let mut m = MetricRegistry::new();
        m.incr("a.x");
        m.add("a.x", 4);
        m.add("a.y", 0);
        m.set_gauge("g", -3);
        assert_eq!(m.counter("a.x"), 5);
        assert_eq!(m.counter("a.y"), 0);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("g"), Some(-3));
        let snap = m.snapshot();
        assert_eq!(snap.counter("a.x"), 5);
        assert_eq!(snap.counter_sum("a."), 5);
        assert!(snap.counters.contains_key("a.y"));
    }

    #[test]
    fn latency_summary() {
        let mut m = MetricRegistry::new();
        for ms in [1u64, 2, 3, 4] {
            m.record_latency("inv.latency", Duration::from_millis(ms));
        }
        let snap = m.snapshot();
        let l = snap.latencies.get("inv.latency").unwrap();
        assert_eq!(l.count, 4);
        assert_eq!(l.max, Duration::from_millis(4));
        assert!(l.mean >= Duration::from_millis(2));
        assert!(snap.to_string().contains("inv.latency"));
    }

    #[test]
    fn merge_adds_counters_and_samples() {
        let mut a = MetricRegistry::new();
        a.add("c", 2);
        a.record_latency("l", Duration::from_millis(1));
        let mut b = MetricRegistry::new();
        b.add("c", 3);
        b.add("only_b", 1);
        b.record_latency("l", Duration::from_millis(5));
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.latency("l").unwrap().summary().count, 2);
    }

    #[test]
    fn a_latency_histogram_keeps_a_bounded_window_and_exact_totals() {
        const SAMPLES: u64 = 10_000;
        let mut m = MetricRegistry::new();
        for us in 1..=SAMPLES {
            m.record_latency("l", Duration::from_micros(us));
        }
        assert_eq!(m.latency("l").unwrap().retained(), LATENCY_WINDOW);
        let l = m.snapshot().latencies["l"];
        assert_eq!(l.count, SAMPLES as usize);
        // The mean of 1..=10,000 us is 5,000.5 us.
        assert_eq!(l.mean, Duration::from_nanos(5_000_500));
        assert_eq!(l.max, Duration::from_micros(SAMPLES));
        // The percentiles cover the newest 4096 samples: 5,905..=10,000 us.
        assert_eq!(l.p50, Duration::from_micros(7_953));

        // Merging keeps the totals exact and the window bounded.
        let mut other = MetricRegistry::new();
        other.record_latency("l", Duration::from_secs(1));
        m.merge(&other);
        let merged = m.latency("l").unwrap();
        assert_eq!(merged.retained(), LATENCY_WINDOW);
        let l = merged.summary();
        assert_eq!(l.count, SAMPLES as usize + 1);
        assert_eq!(l.max, Duration::from_secs(1));
    }

    #[test]
    fn record_bumps_event_counter() {
        let mut obs = Observability::new();
        for _ in 0..3 {
            obs.record(
                SimTime::from_millis(1),
                TraceEvent::Suspected {
                    group: "g".into(),
                    suspect: NodeId::from_index(1),
                },
            );
        }
        assert_eq!(obs.metrics.counter("ev.suspected"), 3);
        assert_eq!(obs.trace.count_kind("suspected"), 3);
    }
}
