//! Aggregate service statistics: counters plus a latency distribution.
//!
//! Since the observability plane landed, `ServiceStats` is a *view* over
//! handles registered in a [`MetricsRegistry`]: every counter the service
//! records is simultaneously visible through the `METRICS` wire verb (under
//! the `service.*` names) and through the legacy [`StatsSnapshot`] shape the
//! `STATS` verb reports.  Recording goes straight to the shared atomic
//! cells — there is no copy to keep in sync.

use sge_obs::{Counter, Histogram, MetricsRegistry};

/// Thread-safe accumulator of service-level counters and latencies.
///
/// Construct with [`ServiceStats::with_registry`] to share the cells with a
/// metrics registry; [`ServiceStats::new`] registers into a private throwaway
/// registry (tests, standalone use).
pub struct ServiceStats {
    queries: Counter,
    batches: Counter,
    matches: Counter,
    errors: Counter,
    panics: Counter,
    streams: Counter,
    rows_streamed: Counter,
    streams_cancelled: Counter,
    admissions: Counter,
    admission_wait_nanos: Counter,
    latency: Histogram,
}

impl Default for ServiceStats {
    fn default() -> Self {
        ServiceStats::new()
    }
}

impl ServiceStats {
    /// Creates a zeroed accumulator backed by a private registry.
    pub fn new() -> Self {
        Self::with_registry(&MetricsRegistry::new())
    }

    /// Creates an accumulator whose cells live in `registry` under the
    /// `service.*` metric names, so `STATS` and `METRICS` report the same
    /// underlying counts.
    pub fn with_registry(registry: &MetricsRegistry) -> Self {
        ServiceStats {
            queries: registry.counter("service.queries_served"),
            batches: registry.counter("service.batches_served"),
            matches: registry.counter("service.total_matches"),
            errors: registry.counter("service.errors"),
            panics: registry.counter("service.panics"),
            streams: registry.counter("service.streams_served"),
            rows_streamed: registry.counter("service.rows_streamed"),
            streams_cancelled: registry.counter("service.streams_cancelled"),
            admissions: registry.counter("service.admissions"),
            admission_wait_nanos: registry.counter("service.admission_wait_nanos"),
            latency: registry.histogram("service.latency_seconds"),
        }
    }

    /// Records one successfully served query.
    pub fn record_query(&self, matches: u64, latency_seconds: f64) {
        self.queries.inc();
        self.matches.add(matches);
        self.latency.record(latency_seconds);
    }

    /// Records one completed batch.
    pub fn record_batch(&self) {
        self.batches.inc();
    }

    /// Records one streamed query: how many rows went over the wire and
    /// whether the client vanished mid-stream (cancelling enumeration).
    pub fn record_stream(&self, rows_sent: u64, cancelled: bool) {
        self.streams.inc();
        self.rows_streamed.add(rows_sent);
        if cancelled {
            self.streams_cancelled.inc();
        }
    }

    /// Records one failed query.
    pub fn record_error(&self) {
        self.errors.inc();
    }

    /// Records one query that panicked (its failure is counted separately
    /// through [`ServiceStats::record_error`]).
    pub fn record_panic(&self) {
        self.panics.inc();
    }

    /// Records one admission-permit acquisition and how long the caller
    /// waited for it.  The wait is measured on the service's injected clock,
    /// so under the simulator's virtual clock it is exactly reproducible —
    /// admission-control pressure becomes an observable, assertable fact
    /// instead of invisible latency jitter.
    pub fn record_admission_wait(&self, wait_seconds: f64) {
        self.admissions.inc();
        let nanos = (wait_seconds.max(0.0) * 1e9).round() as u64;
        self.admission_wait_nanos.add(nanos);
    }

    /// A point-in-time snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        let (running, histogram) = self.latency.stats();
        StatsSnapshot {
            queries_served: self.queries.value(),
            batches_served: self.batches.value(),
            total_matches: self.matches.value(),
            errors: self.errors.value(),
            streams_served: self.streams.value(),
            rows_streamed: self.rows_streamed.value(),
            streams_cancelled: self.streams_cancelled.value(),
            admissions: self.admissions.value(),
            admission_wait_seconds: self.admission_wait_nanos.value() as f64 / 1e9,
            latency_mean_seconds: running.mean(),
            latency_stddev_seconds: running.stddev(),
            latency_min_seconds: running.min().unwrap_or(0.0),
            latency_max_seconds: running.max().unwrap_or(0.0),
            latency_p50_seconds: histogram.quantile_seconds(0.50).unwrap_or(0.0),
            latency_p90_seconds: histogram.quantile_seconds(0.90).unwrap_or(0.0),
            latency_p99_seconds: histogram.quantile_seconds(0.99).unwrap_or(0.0),
        }
    }
}

/// Point-in-time service statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Queries served successfully (single and batched).
    pub queries_served: u64,
    /// Batches completed.
    pub batches_served: u64,
    /// Sum of match counts over all served queries.
    pub total_matches: u64,
    /// Queries that failed (unknown target, parse error, …).
    pub errors: u64,
    /// Streamed queries served (also counted in `queries_served`).
    pub streams_served: u64,
    /// Total rows delivered over all streamed queries.
    pub rows_streamed: u64,
    /// Streamed queries whose client vanished mid-stream (enumeration was
    /// cancelled early).
    pub streams_cancelled: u64,
    /// Admission permits acquired (one per executed enumeration run).
    pub admissions: u64,
    /// Total time runs spent waiting for an admission permit, in seconds
    /// (measured on the service's injected clock).
    pub admission_wait_seconds: f64,
    /// Mean end-to-end query latency in seconds.
    pub latency_mean_seconds: f64,
    /// Population standard deviation of query latency.
    pub latency_stddev_seconds: f64,
    /// Fastest observed query.
    pub latency_min_seconds: f64,
    /// Slowest observed query.
    pub latency_max_seconds: f64,
    /// Median latency (histogram bucket resolution).
    pub latency_p50_seconds: f64,
    /// 90th-percentile latency (histogram bucket resolution).
    pub latency_p90_seconds: f64,
    /// 99th-percentile latency (histogram bucket resolution).
    pub latency_p99_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_obs::MetricValue;

    #[test]
    fn counters_and_latency_aggregate() {
        let stats = ServiceStats::new();
        stats.record_query(60, 0.001);
        stats.record_query(40, 0.003);
        stats.record_batch();
        stats.record_error();
        stats.record_stream(40, false);
        stats.record_stream(7, true);
        stats.record_admission_wait(0.5);
        stats.record_admission_wait(0.25);
        let snap = stats.snapshot();
        assert_eq!(snap.queries_served, 2);
        assert_eq!(snap.batches_served, 1);
        assert_eq!(snap.total_matches, 100);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.streams_served, 2);
        assert_eq!(snap.rows_streamed, 47);
        assert_eq!(snap.streams_cancelled, 1);
        assert_eq!(snap.admissions, 2);
        assert!((snap.admission_wait_seconds - 0.75).abs() < 1e-9);
        assert!((snap.latency_mean_seconds - 0.002).abs() < 1e-12);
        assert_eq!(snap.latency_min_seconds, 0.001);
        assert_eq!(snap.latency_max_seconds, 0.003);
        assert!(snap.latency_p50_seconds > 0.0);
        assert!(snap.latency_p99_seconds >= snap.latency_p50_seconds);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let snap = ServiceStats::new().snapshot();
        assert_eq!(snap, StatsSnapshot::default());
    }

    #[test]
    fn registry_sees_recorded_service_counters() {
        // The whole point of the migration: STATS and METRICS read the same
        // cells, so a record through ServiceStats is visible in the
        // registry's snapshot without any copying.
        let registry = MetricsRegistry::new();
        let stats = ServiceStats::with_registry(&registry);
        stats.record_query(60, 0.002);
        stats.record_admission_wait(0.0);
        let snapshot = registry.snapshot();
        let lookup = |name: &str| {
            snapshot
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(
            lookup("service.queries_served"),
            Some(MetricValue::Counter(1))
        );
        assert_eq!(
            lookup("service.total_matches"),
            Some(MetricValue::Counter(60))
        );
        assert_eq!(lookup("service.admissions"), Some(MetricValue::Counter(1)));
        match lookup("service.latency_seconds") {
            Some(MetricValue::Histogram(summary)) => {
                assert_eq!(summary.count, 1);
                assert!((summary.mean_seconds - 0.002).abs() < 1e-12);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
