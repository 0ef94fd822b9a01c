//! Batches: many patterns against one target, answered by the calling
//! thread and helpers of the process-wide pool.

use crate::{QueryOutcome, QuerySpec, Service, ServiceError};
use sge_util::Pool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Many queries against one registered target.
#[derive(Clone, Debug)]
pub struct QuerySet {
    /// Registry name of the target all queries run against.
    pub target: String,
    /// The queries, answered in order.
    pub queries: Vec<QuerySpec>,
}

impl QuerySet {
    /// Creates an empty set against `target`.
    pub fn new(target: impl Into<String>) -> Self {
        QuerySet {
            target: target.into(),
            queries: Vec::new(),
        }
    }

    /// Appends one query.
    pub fn push(&mut self, spec: QuerySpec) -> &mut Self {
        self.queries.push(spec);
        self
    }
}

/// The result of one batch: per-query outcomes (in submission order) plus
/// throughput aggregates.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Target the batch ran against.
    pub target: String,
    /// One result per query, in submission order.
    pub results: Vec<Result<QueryOutcome, ServiceError>>,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Claimers the batch ran with: the calling thread plus the claimers it
    /// offered to pooled helpers, taken or not.
    pub workers: usize,
}

impl BatchOutcome {
    /// Queries per second of wall-clock time.
    pub fn queries_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.results.len() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Number of queries that succeeded.
    pub fn succeeded(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Sum of match counts over the successful queries.
    pub fn total_matches(&self) -> u64 {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|q| q.outcome.matches)
            .sum()
    }

    /// Number of successful queries served from the prepared cache.
    pub fn cache_hits(&self) -> usize {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .filter(|q| q.cache_hit)
            .count()
    }
}

impl Service {
    /// Runs every query of `set` and returns the per-query results in
    /// submission order.
    ///
    /// Claimers take the next unclaimed query index until none is left and
    /// run it through [`Service::run_query`], so per-query cache hits,
    /// statistics and the **global admission limit** behave exactly as for
    /// single queries: a batch cannot starve interactive traffic beyond the
    /// configured `max_in_flight`.  The calling thread claims, and up to
    /// `batch_workers − 1` more claimers are offered to the process-wide
    /// helper pool ([`Pool::global`]); an offer no helper took by the time
    /// the caller finds the batch drained is withdrawn unrun.  So a batch
    /// starts no thread once the pool holds enough parked helpers.  Wall
    /// time is measured on the service's clock, so batch throughput figures
    /// are deterministic under a virtual clock.
    pub fn run_batch(&self, set: &QuerySet) -> BatchOutcome {
        let started = self.clock().now();
        let n = set.queries.len();
        let workers = self.config().batch_workers.clamp(1, n.max(1));
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<Result<QueryOutcome, ServiceError>>>> =
            Mutex::new((0..n).map(|_| None).collect());
        let claim = || loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                break;
            }
            let result = self.run_query(&set.target, &set.queries[index]);
            results
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())[index] = Some(result);
        };
        Pool::global().scope(|scope| {
            for _ in 1..workers {
                scope.offer(claim);
            }
            claim();
        });
        self.stats.record_batch();

        let results = results
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .into_iter()
            .map(|slot| slot.expect("every query index was claimed"))
            .collect();
        BatchOutcome {
            target: set.target.clone(),
            results,
            wall_seconds: self.clock().now().saturating_sub(started).as_secs_f64(),
            workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use sge_engine::{RunConfig, Scheduler};
    use sge_graph::{generators, io::write_graph};
    use sge_ri::Algorithm;

    fn service_with_k5() -> Service {
        let service = Service::new(ServiceConfig {
            cache_capacity: 16,
            batch_workers: 4,
            max_in_flight: 2,
            ..ServiceConfig::default()
        });
        service.registry().insert("k5", generators::clique(5, 0));
        service
    }

    #[test]
    fn batch_results_arrive_in_submission_order() {
        let service = service_with_k5();
        let triangle = write_graph(&generators::directed_cycle(3, 0));
        let edge = write_graph(&generators::directed_path(2, 0));
        let mut set = QuerySet::new("k5");
        for _ in 0..10 {
            set.push(QuerySpec::new(&triangle)); // 60 matches
            set.push(QuerySpec::new(&edge)); // 20 matches
        }
        let outcome = service.run_batch(&set);
        assert_eq!(outcome.results.len(), 20);
        assert_eq!(outcome.succeeded(), 20);
        for (i, result) in outcome.results.iter().enumerate() {
            let expected = if i % 2 == 0 { 60 } else { 20 };
            assert_eq!(
                result.as_ref().unwrap().outcome.matches,
                expected,
                "query {i}"
            );
        }
        assert_eq!(outcome.total_matches(), 10 * 60 + 10 * 20);
        // 2 distinct patterns → 2 misses, the rest hits.
        assert_eq!(outcome.cache_hits(), 18);
        assert!(outcome.queries_per_second() > 0.0);
        let stats = service.stats();
        assert_eq!(stats.queries_served, 20);
        assert_eq!(stats.batches_served, 1);
    }

    #[test]
    fn batch_mixes_schedulers_and_reports_errors_in_place() {
        let service = service_with_k5();
        let triangle = write_graph(&generators::directed_cycle(3, 0));
        let mut set = QuerySet::new("k5");
        set.push(QuerySpec::new(&triangle).with_run(RunConfig::new(Scheduler::Sequential)));
        set.push(QuerySpec::new("not a graph"));
        set.push(
            QuerySpec::new(&triangle)
                .with_algorithm(Algorithm::Ri)
                .with_run(RunConfig::new(Scheduler::work_stealing(2))),
        );
        let outcome = service.run_batch(&set);
        assert_eq!(outcome.results.len(), 3);
        assert_eq!(outcome.results[0].as_ref().unwrap().outcome.matches, 60);
        assert!(outcome.results[1].is_err());
        assert_eq!(outcome.results[2].as_ref().unwrap().outcome.matches, 60);
        assert_eq!(outcome.succeeded(), 2);
        assert_eq!(service.stats().errors, 1);
    }

    #[test]
    fn unknown_target_fails_every_query() {
        let service = service_with_k5();
        let triangle = write_graph(&generators::directed_cycle(3, 0));
        let mut set = QuerySet::new("nope");
        set.push(QuerySpec::new(&triangle));
        let outcome = service.run_batch(&set);
        assert!(matches!(
            outcome.results[0],
            Err(ServiceError::UnknownTarget(_))
        ));
    }

    #[test]
    fn empty_batch_is_fine() {
        let service = service_with_k5();
        let outcome = service.run_batch(&QuerySet::new("k5"));
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.total_matches(), 0);
    }
}
