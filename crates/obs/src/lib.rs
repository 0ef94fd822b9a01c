//! First-party observability for the enumeration stack — hand-rolled and
//! std-only like everything else in the workspace.
//!
//! Four building blocks, each usable on its own:
//!
//! * [`MetricsRegistry`] — named counters, gauges and latency histograms.
//!   Registration takes a lock once per name; the returned handles are
//!   `Arc`-backed, so the hot path is a single relaxed atomic add.  A
//!   [`MetricsRegistry::snapshot`] renders every metric in name order, which
//!   is what the `METRICS` wire verb serializes.
//! * [`TraceSink`] — per-run enumeration counters: observed candidates and
//!   consistency checks (*states*) per plan position.  A run of
//!   `sge-engine` records into the sink attached to its engine; because
//!   every candidate list is handed to the search exactly once per
//!   expansion and every consistency check happens exactly once regardless
//!   of scheduling, the per-position totals are *schedule-invariant* on
//!   complete runs.  Scheduler totals (steals, tasks, wait times) are not
//!   kept here: every run reports them in its outcome.
//! * [`QueryTrace`] — a flat span list (plan → admission wait → enumeration →
//!   …) with offsets/durations derived from caller-supplied clock readings.
//!   Fed from [`sge_util::Clock`], the spans stay byte-identical under the
//!   deterministic simulator's virtual clock.
//! * [`EventLog`] — a bounded ring buffer of JSON event lines with an
//!   optional append-to-file sink (the server's `--log` flag).
//!
//! The zero-overhead contract: nothing here runs unless attached.  An engine
//! without a sink pays one predictable `Option` test per state; a service
//! without an event log pays nothing.

use sge_util::{LatencyHistogram, RunningStats};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing counter handle.  Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not (yet) attached to any registry.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle.  Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A gauge not (yet) attached to any registry.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Adds one — for level gauges tracking open resources.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero.
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .cell
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A latency histogram handle: a [`RunningStats`] (exact mean/min/max) plus a
/// bucketed [`LatencyHistogram`] (quantiles).  Cloning shares the cells.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<Mutex<(RunningStats, LatencyHistogram)>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram not (yet) attached to any registry.
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(Mutex::new((RunningStats::new(), LatencyHistogram::new()))),
        }
    }

    /// Records one sample, in seconds.
    pub fn record(&self, seconds: f64) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        inner.0.push(seconds);
        inner.1.record(seconds);
    }

    /// A clone of the underlying running stats and bucketed histogram — for
    /// callers (the service STATS snapshot) that need the exact pair.
    pub fn stats(&self) -> (RunningStats, LatencyHistogram) {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        (inner.0.clone(), inner.1.clone())
    }

    /// A compact summary for metric snapshots.
    pub fn summary(&self) -> HistogramSummary {
        let (running, histogram) = self.stats();
        HistogramSummary {
            count: running.count(),
            mean_seconds: running.mean(),
            min_seconds: running.min().unwrap_or(0.0),
            max_seconds: running.max().unwrap_or(0.0),
            p50_seconds: histogram.quantile_seconds(0.50).unwrap_or(0.0),
            p90_seconds: histogram.quantile_seconds(0.90).unwrap_or(0.0),
            p99_seconds: histogram.quantile_seconds(0.99).unwrap_or(0.0),
        }
    }
}

/// Point-in-time summary of one [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Exact mean of all samples, in seconds.
    pub mean_seconds: f64,
    /// Smallest sample (0 when empty).
    pub min_seconds: f64,
    /// Largest sample (0 when empty).
    pub max_seconds: f64,
    /// Median at bucket resolution.
    pub p50_seconds: f64,
    /// 90th percentile at bucket resolution.
    pub p90_seconds: f64,
    /// 99th percentile at bucket resolution.
    pub p99_seconds: f64,
}

/// One registered metric.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The value of one metric in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(u64),
    /// A histogram summary.
    Histogram(HistogramSummary),
}

/// A point-in-time reading of every registered metric, sorted by name.
pub type MetricsSnapshot = Vec<(String, MetricValue)>;

/// A registry of named metrics.
///
/// `counter`/`gauge`/`histogram` register on first use and return the
/// existing handle on every later call with the same name; handles are cheap
/// to clone and record lock-free (counters, gauges) or under a short
/// per-metric lock (histograms).  Asking for an existing name with a
/// *different* kind returns a fresh detached handle rather than panicking —
/// the registry keeps the first registration.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or fetches) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(counter) => counter.clone(),
            _ => Counter::new(),
        }
    }

    /// Registers (or fetches) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(gauge) => gauge.clone(),
            _ => Gauge::new(),
        }
    }

    /// Registers (or fetches) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(histogram) => histogram.clone(),
            _ => Histogram::new(),
        }
    }

    /// Reads every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock()
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.value()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
                };
                (name.clone(), value)
            })
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Per-run enumeration counters, recorded by the runs of the engine the
/// sink is attached to.
///
/// One slot per plan position for observed candidates (entries of the
/// candidate lists handed to the search) and observed states (consistency
/// checks performed).  All cells are relaxed atomics: workers of one run
/// record concurrently, and totals are read only after the run joined.
#[derive(Debug)]
pub struct TraceSink {
    candidates: Vec<AtomicU64>,
    states: Vec<AtomicU64>,
}

impl TraceSink {
    /// A zeroed sink for a plan with `positions` ordered positions.
    pub fn new(positions: usize) -> Self {
        TraceSink {
            candidates: (0..positions).map(|_| AtomicU64::new(0)).collect(),
            states: (0..positions).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of plan positions this sink was sized for.
    pub fn positions(&self) -> usize {
        self.states.len()
    }

    /// Records `count` generated candidates at `position`.
    #[inline]
    pub fn record_candidates(&self, position: usize, count: u64) {
        if let Some(cell) = self.candidates.get(position) {
            cell.fetch_add(count, Ordering::Relaxed);
        }
    }

    /// Records one consistency check (a visited *state*) at `position`.
    #[inline]
    pub fn record_state(&self, position: usize) {
        if let Some(cell) = self.states.get(position) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Observed candidates per position.
    pub fn candidates_per_position(&self) -> Vec<u64> {
        self.candidates
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Observed states (consistency checks) per position.
    pub fn states_per_position(&self) -> Vec<u64> {
        self.states
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Sum of observed candidates over all positions.
    pub fn candidates_total(&self) -> u64 {
        self.candidates_per_position().iter().sum()
    }

    /// Sum of observed states over all positions; on a complete run this
    /// equals the engine's reported `states`.
    pub fn states_total(&self) -> u64 {
        self.states_per_position().iter().sum()
    }
}

/// One completed span of a [`QueryTrace`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span name (`plan`, `admission_wait`, `enumeration`, …).
    pub name: String,
    /// Offset of the span start from the trace origin, in seconds.
    pub start_seconds: f64,
    /// Span duration in seconds.
    pub duration_seconds: f64,
}

/// An ordered list of spans covering one query, with every timestamp derived
/// from caller-supplied clock readings ([`sge_util::Clock::now`] values) —
/// under the simulator's virtual clock the rendered spans are deterministic.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    origin: Duration,
    spans: Vec<SpanRecord>,
}

impl QueryTrace {
    /// Starts a trace whose spans are reported relative to `origin`.
    pub fn begin(origin: Duration) -> Self {
        QueryTrace {
            origin,
            spans: Vec::new(),
        }
    }

    /// The trace origin (the clock reading `begin` was called with).
    pub fn origin(&self) -> Duration {
        self.origin
    }

    /// Records the span `name` covering `[start, end]`; readings before the
    /// origin (or an end before the start) clamp to zero rather than going
    /// negative.
    pub fn record_span(&mut self, name: &str, start: Duration, end: Duration) {
        let offset = start.saturating_sub(self.origin);
        let duration = end.saturating_sub(start);
        self.spans.push(SpanRecord {
            name: name.to_string(),
            start_seconds: offset.as_secs_f64(),
            duration_seconds: duration.as_secs_f64(),
        });
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }
}

/// A bounded ring buffer of structured (JSON-line) events with an optional
/// append-only writer.  The ring keeps the most recent `capacity` lines for
/// in-process inspection; when a writer is attached every line is also
/// appended (and flushed) to it — the server's `--log PATH` flag.
pub struct EventLog {
    capacity: usize,
    inner: Mutex<EventLogInner>,
}

struct EventLogInner {
    ring: VecDeque<String>,
    writer: Option<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl EventLog {
    /// A ring-only event log keeping the most recent `capacity` lines.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            capacity: capacity.max(1),
            inner: Mutex::new(EventLogInner {
                ring: VecDeque::new(),
                writer: None,
            }),
        }
    }

    /// An event log that additionally appends every line to the file at
    /// `path` (created if missing).
    pub fn with_file(capacity: usize, path: &str) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let log = EventLog::new(capacity);
        {
            let mut inner = log.lock();
            inner.writer = Some(Box::new(file));
        }
        Ok(log)
    }

    /// Records one event line (one JSON object, no trailing newline).
    pub fn record(&self, line: &str) {
        let mut inner = self.lock();
        if inner.ring.len() >= self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(line.to_string());
        if let Some(writer) = inner.writer.as_mut() {
            let _ = writeln!(writer, "{line}");
            let _ = writer.flush();
        }
    }

    /// The buffered (most recent) lines, oldest first.
    pub fn recent(&self) -> Vec<String> {
        self.lock().ring.iter().cloned().collect()
    }

    /// Number of buffered lines.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// `true` when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EventLogInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_returns_shared_handles_sorted_snapshot() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("z.total");
        let b = registry.counter("z.total");
        a.add(2);
        b.inc();
        registry.gauge("a.level").set(7);
        registry.histogram("m.latency").record(0.5);
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.level", "m.latency", "z.total"]);
        assert_eq!(snapshot[0].1, MetricValue::Gauge(7));
        assert_eq!(snapshot[2].1, MetricValue::Counter(3));
        match &snapshot[1].1 {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 1);
                assert!((h.mean_seconds - 0.5).abs() < 1e-12);
                assert_eq!(h.max_seconds, 0.5);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn kind_mismatch_returns_detached_handle_not_panic() {
        let registry = MetricsRegistry::new();
        registry.counter("x").inc();
        let gauge = registry.gauge("x");
        gauge.set(99); // goes nowhere visible
        assert_eq!(
            registry.snapshot(),
            vec![("x".into(), MetricValue::Counter(1))]
        );
    }

    #[test]
    fn trace_sink_accumulates_per_position() {
        let sink = TraceSink::new(3);
        sink.record_candidates(0, 5);
        sink.record_candidates(1, 2);
        sink.record_candidates(1, 3);
        sink.record_state(0);
        sink.record_state(0);
        sink.record_state(2);
        sink.record_candidates(9, 100); // out of range: ignored
        sink.record_state(9);
        assert_eq!(sink.candidates_per_position(), vec![5, 5, 0]);
        assert_eq!(sink.states_per_position(), vec![2, 0, 1]);
        assert_eq!(sink.candidates_total(), 10);
        assert_eq!(sink.states_total(), 3);
        assert_eq!(sink.positions(), 3);
    }

    #[test]
    fn query_trace_spans_are_relative_and_clamped() {
        let mut trace = QueryTrace::begin(Duration::from_secs(10));
        trace.record_span(
            "plan",
            Duration::from_secs(10),
            Duration::from_millis(10_250),
        );
        trace.record_span(
            "enumeration",
            Duration::from_millis(10_250),
            Duration::from_millis(10_750),
        );
        // A span that "ends before it starts" clamps to zero.
        trace.record_span("weird", Duration::from_secs(9), Duration::from_secs(8));
        let spans = trace.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "plan");
        assert!((spans[0].start_seconds - 0.0).abs() < 1e-12);
        assert!((spans[0].duration_seconds - 0.25).abs() < 1e-12);
        assert!((spans[1].start_seconds - 0.25).abs() < 1e-12);
        assert!((spans[1].duration_seconds - 0.5).abs() < 1e-12);
        assert_eq!(spans[2].start_seconds, 0.0);
        assert_eq!(spans[2].duration_seconds, 0.0);
    }

    #[test]
    fn event_log_ring_evicts_oldest() {
        let log = EventLog::new(3);
        for i in 0..5 {
            log.record(&format!("{{\"event\":\"e{i}\"}}"));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.recent(),
            vec![
                "{\"event\":\"e2\"}",
                "{\"event\":\"e3\"}",
                "{\"event\":\"e4\"}"
            ]
        );
        assert!(!log.is_empty());
    }

    #[test]
    fn event_log_appends_to_file() {
        let path =
            std::env::temp_dir().join(format!("sge-obs-eventlog-{}.jsonl", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        {
            let log = EventLog::with_file(8, &path_str).unwrap();
            log.record("{\"event\":\"open\"}");
            log.record("{\"event\":\"close\"}");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"event\":\"open\"}\n{\"event\":\"close\"}\n");
        let _ = std::fs::remove_file(&path);
    }
}
