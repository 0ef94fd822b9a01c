//! The query-serving subsystem: enumeration as a long-running service.
//!
//! The paper treats each enumeration as a one-shot batch job; this crate
//! turns the library into a service shaped for its one-target/many-patterns
//! workloads (PPIS32, GRAEMLIN32, PDBSv1):
//!
//! * [`GraphRegistry`] loads named target graphs from `.gfu`/`.gfd` files
//!   and owns them (behind [`std::sync::Arc`]) for the process lifetime,
//!   interning node labels through one shared table so every pattern/target
//!   pair agrees on the numbering;
//! * [`PreparedCache`] is a bounded LRU over prepared engines keyed by
//!   *(pattern, target name, algorithm, ordering strategy)* — a repeated
//!   pattern skips the domain computation / forward checking / ordering
//!   phase entirely;
//! * [`Service::run_batch`] answers a [`QuerySet`] (many patterns, one
//!   target): the calling thread and pooled helper threads claim its
//!   queries, with every run gated by the service's global in-flight
//!   admission limit;
//! * [`Service`] ties them together behind one query pipeline and
//!   keeps aggregate statistics.  Every query verb shares its head (lookup,
//!   parse, cached prepare, routing); `EXPLAIN` stops there, and buffered,
//!   streamed and analyzed queries share one execute path (dispatch →
//!   admission → run → record).  A panicking query is answered
//!   with an internal error instead of unwinding into the caller;
//! * [`EventServer`] (Unix) is the std-only TCP front end speaking the
//!   newline-delimited text protocol documented in [`protocol`] with
//!   single-line JSON responses, driven by the `sge-serve` / `sge-client`
//!   binaries.  It writes a streamed `QUERY`'s row frames to the socket as
//!   they are produced, and a client that disconnects mid-stream cancels
//!   the run.
//!
//! Everything is `std`-only: no async runtime, no serialization crates —
//! the JSON responses come from the hand-rolled encoder in [`sge_wire::json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod client;
pub mod connection;
#[cfg(unix)]
pub mod event_server;
pub mod protocol;
pub mod registry;
pub mod stats;

mod semaphore;

pub use batch::{BatchOutcome, QuerySet};
pub use cache::{CacheStats, PreparedCache};
pub use connection::{Connection, StepOutcome};
#[cfg(unix)]
pub use event_server::EventServer;
pub use registry::{GraphInfo, GraphRegistry};
pub use stats::{ServiceStats, StatsSnapshot};
// The wire-plane vocabulary moved to `sge-wire`; re-exported so historical
// `sge_service::{QuerySpec, ServiceError, …}` paths keep working.
pub use sge_wire::{
    EmitMode, ExplainAnalyzeOutcome, ExplainOutcome, QueryOutcome, QuerySpec, ServiceError,
    StreamHeader, StreamSink, StreamedQueryOutcome, DEFAULT_STREAM_CHUNK, MAX_STREAM_CHUNK,
};

use sge_engine::{
    EnumerationOutcome, PreparedEngine, RoutingConfig, RoutingDecision, RunConfig, Scheduler,
};
use sge_graph::{BitmapConfig, NodeId};
use sge_obs::{
    Counter, EventLog, Gauge, MetricsRegistry, MetricsSnapshot, QueryTrace, SpanRecord, TraceSink,
};
use sge_util::{Clock, SystemClock};
use sge_wire::json::Json;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Sizing knobs of a [`Service`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Maximum number of prepared engines the [`PreparedCache`] retains.
    pub cache_capacity: usize,
    /// Claimers per batch ([`Service::run_batch`]): the calling thread and
    /// up to `batch_workers − 1` helpers of the process-wide pool.
    pub batch_workers: usize,
    /// Global cap on concurrently *executing* enumeration runs (admission
    /// control across all connections and batches).
    pub max_in_flight: usize,
    /// Routing knobs: when a query does not pin a scheduler (`sched=` on
    /// the wire), [`RoutingConfig::route`] picks one from the prepared
    /// engine's tree-size estimate under these thresholds.
    pub routing: RoutingConfig,
    /// The bitmap sidecar's byte cap for targets registered through
    /// [`Service::load_target`] (the `LOAD` verb); `bitmap_cap=<bytes>` on
    /// the wire overrides it per load.  Which neighborhoods get rows is the
    /// sidecar's row rule, not a setting.
    pub bitmaps: BitmapConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServiceConfig {
            cache_capacity: 64,
            batch_workers: cores,
            max_in_flight: cores.max(1) * 2,
            routing: RoutingConfig::default(),
            bitmaps: BitmapConfig::default(),
        }
    }
}

/// The serving core: registry + cache + stats + admission control.
///
/// [`EventServer`] exposes it over TCP on Unix; it is equally usable
/// in-process:
///
/// ```
/// use sge_service::{QuerySpec, Service, ServiceConfig};
///
/// let service = Service::new(ServiceConfig::default());
/// let target = sge_graph::generators::clique(5, 0);
/// service.registry().insert("k5", target);
///
/// let pattern = sge_graph::io::write_graph(&sge_graph::generators::directed_cycle(3, 0));
/// let first = service.run_query("k5", &QuerySpec::new(&pattern)).unwrap();
/// let second = service.run_query("k5", &QuerySpec::new(&pattern)).unwrap();
/// assert_eq!(first.outcome.matches, 60);
/// assert!(!first.cache_hit);
/// assert!(second.cache_hit); // preprocessing ran once
/// ```
pub struct Service {
    registry: GraphRegistry,
    cache: PreparedCache,
    stats: ServiceStats,
    metrics: MetricsRegistry,
    engine_counters: EngineCounters,
    dispatch: DispatchCells,
    admission: semaphore::Semaphore,
    config: ServiceConfig,
    clock: Arc<dyn Clock>,
    /// Shared event log, attached by the front end (see
    /// [`Service::set_event_log`]); [`Service::load_target`] records
    /// bitmap-cap fallback warnings here, and a contained panic its
    /// `query_panic` line.
    event_log: std::sync::RwLock<Option<Arc<EventLog>>>,
}

/// Pre-registered handles for the routing/dispatch metrics.
struct DispatchCells {
    /// Runs dispatched on the sequential scheduler (routed or pinned).
    sequential: Counter,
    /// Runs dispatched on the work-stealing scheduler, whatever its worker
    /// count.
    work_stealing: Counter,
    /// Currently open server connections (maintained by the TCP front end).
    connections_open: Gauge,
}

impl DispatchCells {
    fn with_registry(registry: &MetricsRegistry) -> Self {
        DispatchCells {
            sequential: registry.counter("engine.dispatch.sequential"),
            work_stealing: registry.counter("engine.dispatch.work_stealing"),
            connections_open: registry.gauge("service.connections_open"),
        }
    }
}

/// Pre-registered handles for the post-run enumeration counters, so the
/// normal query path never takes the registry's registration lock.
struct EngineCounters {
    states: Counter,
    steals: Counter,
    steal_requests: Counter,
    tasks: Counter,
    task_groups: Counter,
    kernel_bitmap: Counter,
    kernel_gallop: Counter,
    kernel_merge: Counter,
    kernel_prefilter_rejected: Counter,
    kernel_lists: Counter,
    kernel_reused: Counter,
}

impl EngineCounters {
    fn with_registry(registry: &MetricsRegistry) -> Self {
        EngineCounters {
            states: registry.counter("engine.states"),
            steals: registry.counter("engine.steals"),
            steal_requests: registry.counter("engine.steal_requests"),
            tasks: registry.counter("engine.tasks"),
            task_groups: registry.counter("engine.task_groups"),
            kernel_bitmap: registry.counter("engine.kernel.bitmap"),
            kernel_gallop: registry.counter("engine.kernel.gallop"),
            kernel_merge: registry.counter("engine.kernel.merge"),
            kernel_prefilter_rejected: registry.counter("engine.kernel.prefilter_rejected"),
            kernel_lists: registry.counter("engine.kernel.lists"),
            kernel_reused: registry.counter("engine.kernel.reused"),
        }
    }

    /// Folds one finished run into the registry — the outcome already
    /// aggregates the per-worker counters, so no trace sink is needed on
    /// the hot path.
    fn record(&self, outcome: &EnumerationOutcome) {
        self.states.add(outcome.states);
        self.steals.add(outcome.steals);
        self.steal_requests.add(outcome.steal_requests);
        self.tasks
            .add(outcome.worker_stats.iter().map(|w| w.tasks_executed).sum());
        self.task_groups
            .add(outcome.worker_stats.iter().map(|w| w.task_groups).sum());
        self.kernel_bitmap.add(outcome.kernels.bitmap);
        self.kernel_gallop.add(outcome.kernels.gallop);
        self.kernel_merge.add(outcome.kernels.merge);
        self.kernel_prefilter_rejected
            .add(outcome.kernels.prefilter_rejected);
        self.kernel_lists.add(outcome.kernels.lists);
        self.kernel_reused.add(outcome.kernels.reused);
    }
}

impl Service {
    /// Creates an empty service with the given sizing knobs, measuring time
    /// on the real [`SystemClock`].
    pub fn new(config: ServiceConfig) -> Self {
        Service::with_clock(config, Arc::new(SystemClock::new()))
    }

    /// Creates an empty service that measures time on `clock`.
    ///
    /// Every latency the service reports — per-query `latency_seconds`, the
    /// `STATS` latency distribution, batch wall time, admission-wait time —
    /// derives from this clock, so a [`sge_util::VirtualClock`] makes them
    /// fully deterministic (what the simulator's same-seed/same-trace
    /// guarantee relies on).
    pub fn with_clock(config: ServiceConfig, clock: Arc<dyn Clock>) -> Self {
        let metrics = MetricsRegistry::new();
        Service {
            registry: GraphRegistry::new(),
            cache: PreparedCache::new(config.cache_capacity),
            stats: ServiceStats::with_registry(&metrics),
            engine_counters: EngineCounters::with_registry(&metrics),
            dispatch: DispatchCells::with_registry(&metrics),
            metrics,
            admission: semaphore::Semaphore::new(config.max_in_flight.max(1)),
            config,
            clock,
            event_log: std::sync::RwLock::new(None),
        }
    }

    /// Attaches the shared event log (the front end's `--log` ring); LOAD
    /// warnings — e.g. a bitmap sidecar hitting its memory cap — and
    /// contained query panics are recorded there.
    pub fn set_event_log(&self, log: Arc<EventLog>) {
        *self
            .event_log
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(log);
    }

    /// Records one event line on the attached log, if any.
    fn log_event(&self, line: &str) {
        if let Some(log) = self
            .event_log
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .as_ref()
        {
            log.record(line);
        }
    }

    /// Loads a target file into the registry (the `LOAD` verb): the
    /// service-level path that applies the configured byte cap — or
    /// `bitmap_cap`, per call — and records a warning event when the
    /// sidecar hits the cap and every step falls back to CSR lists.
    pub fn load_target(
        &self,
        name: &str,
        path: impl AsRef<std::path::Path>,
        bitmap_cap: Option<usize>,
    ) -> Result<GraphInfo, ServiceError> {
        let max_bytes = bitmap_cap.unwrap_or(self.config.bitmaps.max_bytes);
        let config = BitmapConfig { max_bytes };
        let info = self.registry.load_file_with_config(name, path, &config)?;
        if info.bitmap_capped {
            let required = self
                .registry
                .get_full(name)
                .map(|(_, _, bitmaps)| bitmaps.required_row_bytes())
                .unwrap_or(0);
            self.log_event(
                &Json::obj(vec![
                    ("event", Json::str("bitmap_cap_fallback")),
                    ("target", Json::str(name)),
                    ("required_bytes", Json::U64(required as u64)),
                    ("cap_bytes", Json::U64(config.max_bytes as u64)),
                ])
                .render(),
            );
        }
        Ok(info)
    }

    /// The clock all service latencies are measured on.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The target-graph registry.
    pub fn registry(&self) -> &GraphRegistry {
        &self.registry
    }

    /// The prepared-engine cache.
    pub fn cache(&self) -> &PreparedCache {
        &self.cache
    }

    /// The sizing knobs this service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// A point-in-time snapshot of the aggregate service statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The metrics registry behind the `METRICS` wire verb.  The `service.*`
    /// counters are the same cells [`Service::stats`] reads; `engine.*`
    /// accumulates enumeration-level totals across all served queries.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A point-in-time snapshot of every registered metric, with the cache
    /// counters and occupancy gauges synchronized first — what the `METRICS`
    /// verb serializes.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let cache = self.cache.stats();
        // Cache counters live on the cache itself (it predates the registry);
        // mirror them through monotonic deltas so repeated snapshots never
        // double-count.
        for (name, observed) in [
            ("cache.hits", cache.hits),
            ("cache.misses", cache.misses),
            ("cache.evictions", cache.evictions),
            ("cache.inserts", cache.inserts),
        ] {
            let counter = self.metrics.counter(name);
            counter.add(observed.saturating_sub(counter.value()));
        }
        self.metrics
            .gauge("cache.entries")
            .set(cache.entries as u64);
        self.metrics
            .gauge("cache.capacity")
            .set(cache.capacity as u64);
        self.metrics.snapshot()
    }

    /// Executes one query against the named target.
    ///
    /// The pattern is parsed through the registry's shared label interner,
    /// the prepared engine is fetched from (or inserted into) the cache, and
    /// the run is gated by the global admission limit.
    pub fn run_query(&self, target: &str, spec: &QuerySpec) -> Result<QueryOutcome, ServiceError> {
        self.serve(target, spec, true, |plan| {
            Ok(self.execute(target, &plan, Delivery::Buffered)?.0.query)
        })
    }

    /// Executes one query against the named target, delivering mappings to
    /// `sink` in frames of up to `spec.chunk` rows while enumeration runs —
    /// the machinery behind the protocol's `emit=stream` QUERY mode.
    ///
    /// The worker that finds a mapping adds it to the frame and writes the
    /// frame once it is full ([`sge_engine::Engine::run_streaming`]), so
    /// service memory is O(chunk) regardless of how many matches exist.  A
    /// failing sink write — typically a disconnected client — cooperatively
    /// cancels enumeration: the workers stop at their next match or interrupt
    /// check instead of running the search to completion into a dead socket,
    /// and the returned outcome reports `cancelled`.
    ///
    /// Rows arrive in discovery order (schedule-dependent under parallel
    /// schedulers); `spec.run.collect_mappings` is ignored — rows go through
    /// the sink, not into the outcome.
    pub fn run_query_streaming(
        &self,
        target: &str,
        spec: &QuerySpec,
        sink: &mut dyn StreamSink,
    ) -> Result<StreamedQueryOutcome, ServiceError> {
        let chunk = spec.chunk.clamp(1, MAX_STREAM_CHUNK);
        self.serve(target, spec, false, |plan| {
            Ok(self
                .execute(target, &plan, Delivery::Stream { sink, chunk })?
                .0)
        })
    }

    /// Plans (or fetches the cached plan for) one query without running it
    /// and reports the plan — the machinery behind the protocol's `EXPLAIN`
    /// verb.  Preparation goes through the same [`PreparedCache`] as
    /// [`Service::run_query`], so an `EXPLAIN` warms the cache for the
    /// query that follows it.
    pub fn explain(&self, target: &str, spec: &QuerySpec) -> Result<ExplainOutcome, ServiceError> {
        let buffered = spec.emit == EmitMode::Buffered;
        self.serve(target, spec, buffered, |plan| {
            Ok(ExplainOutcome {
                target: target.to_string(),
                pattern_hash: plan.pattern_hash,
                cache_hit: plan.cache_hit,
                latency_seconds: plan.planned.saturating_sub(plan.started).as_secs_f64(),
                routing: plan.routing,
                routed: plan.routed,
                effective_scheduler: plan.run.scheduler,
                engine: plan.engine,
            })
        })
    }

    /// `EXPLAIN ANALYZE`: plans the query **and** executes it with a
    /// per-query [`TraceSink`] attached, returning the planner's estimates
    /// side-by-side with what the run actually observed, plus a span
    /// breakdown of where the wall time went.
    ///
    /// Spans are measured on the service's injected clock (deterministic
    /// under a virtual clock): `plan` covers parse + cache lookup /
    /// preparation + routing, `admission_wait` the wait for an in-flight
    /// permit, `enumeration` the run itself.  Mapping collection is
    /// disabled — the deliverable is the instrumentation, not the rows.
    /// The run counts into `STATS`/`METRICS` exactly like a served query.
    pub fn explain_analyze(
        &self,
        target: &str,
        spec: &QuerySpec,
    ) -> Result<ExplainAnalyzeOutcome, ServiceError> {
        self.serve(target, spec, false, |plan| {
            let sink = Arc::new(TraceSink::new(plan.engine.plan().num_positions()));
            let (served, spans) =
                self.execute(target, &plan, Delivery::Analyze(Arc::clone(&sink)))?;
            Ok(ExplainAnalyzeOutcome {
                query: served.query,
                observed_candidates: sink.candidates_per_position(),
                observed_states: sink.states_per_position(),
                spans,
                routing: plan.routing,
                engine: plan.engine,
            })
        })
    }

    /// The boundary every query verb passes: the [`Service::plan`] head
    /// (`buffered` as it takes it), then `verb`, under `catch_unwind`.  A
    /// panicking query answers
    /// [`ServiceError::Internal`] instead of unwinding into the caller (the
    /// front end would close the connection with its request unanswered),
    /// and a
    /// failed request of either kind counts once in `errors`.  Unwinding
    /// leaves the service usable: its counters are atomics, its locks
    /// recover from poisoning, the admission permit drops, and the cache
    /// retries a preparation that panicked.
    fn serve<T>(
        &self,
        target: &str,
        spec: &QuerySpec,
        buffered: bool,
        verb: impl FnOnce(Plan) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let served = panic::catch_unwind(AssertUnwindSafe(|| {
            verb(self.plan(target, spec, buffered)?)
        }));
        let result = served.unwrap_or_else(|payload| Err(self.contain_panic(target, &*payload)));
        if result.is_err() {
            self.stats.record_error();
        }
        result
    }

    /// Counts a panicked query in `service.panics`, records a `query_panic`
    /// event and turns the panic message into the error the client gets.
    /// The admission permit was released while unwinding.
    fn contain_panic(&self, target: &str, payload: &(dyn Any + Send)) -> ServiceError {
        let message = payload
            .downcast_ref::<&str>()
            .map(|text| text.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "query panicked".to_string());
        self.stats.record_panic();
        self.log_event(
            &Json::obj(vec![
                ("event", Json::str("query_panic")),
                ("target", Json::str(target)),
                ("message", Json::str(message.clone())),
            ])
            .render(),
        );
        ServiceError::Internal(message)
    }

    /// The head every query verb shares: lookup → parse → cached prepare →
    /// one routing decision → the effective run.  `EXPLAIN` stops here, so
    /// it describes exactly the plan and scheduler the identical `QUERY`
    /// runs.  Routing reads only the prepared engine's prices, so the
    /// decision does not depend on what the service ran before.
    ///
    /// `buffered` says the verb runs the query with no visitor and no trace
    /// sink (a buffered `QUERY`, or the `EXPLAIN` of one).  Such a run with
    /// no match limit and no deadline counts its independent suffix, so
    /// routing prices it by [`PreparedEngine::count_only_price`]; every
    /// other run walks its tree and is priced by `est_total_states`.
    fn plan(&self, target: &str, spec: &QuerySpec, buffered: bool) -> Result<Plan, ServiceError> {
        let started = self.clock.now();
        let (target_graph, target_stats, target_bitmaps) = self
            .registry
            .get_full(target)
            .ok_or_else(|| ServiceError::UnknownTarget(target.to_string()))?;
        let pattern = self.registry.parse_pattern(&spec.pattern_text)?;
        let (engine, cache_hit, pattern_hash) = self.cache.get_or_prepare(
            &pattern,
            target,
            &target_graph,
            &target_stats,
            &target_bitmaps,
            spec.algorithm,
            spec.strategy,
        );
        let counts = buffered && spec.run.max_matches.is_none() && spec.run.time_limit.is_none();
        let price = match counts {
            true => engine.count_only_price(),
            false => engine.estimate().est_total_states,
        };
        let routing = self.config.routing.route(price);
        let mut run = spec.run;
        if !spec.pinned {
            run.scheduler = routing.scheduler;
        }
        Ok(Plan {
            pattern_hash,
            engine,
            cache_hit,
            routing,
            routed: !spec.pinned,
            run,
            started,
            planned: self.clock.now(),
        })
    }

    /// The one execute path behind every query that runs: dispatch →
    /// admission → run → record.  `delivery` decides only where
    /// the rows go and whether a trace sink rides along; the clock is read
    /// at the same points for every delivery, and only an analyzed run
    /// turns the readings into spans.  Returns the served query
    /// (`rows_sent` 0 and not `cancelled` unless streamed) and the spans.
    fn execute(
        &self,
        target: &str,
        plan: &Plan,
        mut delivery: Delivery<'_>,
    ) -> Result<(StreamedQueryOutcome, Vec<SpanRecord>), ServiceError> {
        let streaming = matches!(delivery, Delivery::Stream { .. });
        let analyzing = matches!(delivery, Delivery::Analyze(_));
        let mut run = plan.run;
        if streaming || analyzing {
            // Streamed rows go to the sink, and an analyzed run delivers
            // its instrumentation, not rows.
            run.collect_mappings = 0;
        }
        if let Delivery::Stream { sink, chunk } = &mut delivery {
            // A failing header write means the client is already gone;
            // nothing ran, so surface it as a plain error.
            sink.begin(&StreamHeader {
                target: target.to_string(),
                chunk: *chunk,
                cache_hit: plan.cache_hit,
                pattern_hash: plan.pattern_hash,
                algorithm: plan.engine.algorithm(),
                strategy: plan.engine.strategy(),
                scheduler: run.scheduler,
                routed: plan.routed,
            })?;
        }
        self.record_dispatch(&run.scheduler);
        let wait_started = self.clock.now();
        let permit = self.admission.acquire();
        let admitted = self.clock.now();
        self.stats
            .record_admission_wait(admitted.saturating_sub(wait_started).as_secs_f64());
        let (outcome, rows_sent, cancelled) = match delivery {
            Delivery::Buffered => (plan.engine.run(&run), 0, false),
            Delivery::Stream { sink, chunk } => stream_rows(&plan.engine, &run, sink, chunk),
            Delivery::Analyze(trace) => {
                let mut instrumented = plan.engine.engine();
                instrumented.set_trace_sink(trace);
                (instrumented.run(&run), 0, false)
            }
        };
        let finished = self.clock.now();
        drop(permit);
        let latency_seconds = finished.saturating_sub(plan.started).as_secs_f64();
        self.stats.record_query(outcome.matches, latency_seconds);
        if streaming {
            self.stats.record_stream(rows_sent, cancelled);
        }
        self.engine_counters.record(&outcome);
        let query = QueryOutcome {
            target: target.to_string(),
            pattern_hash: plan.pattern_hash,
            cache_hit: plan.cache_hit,
            latency_seconds,
            routed: plan.routed,
            outcome,
        };
        let mut spans = Vec::new();
        if analyzing {
            let mut trace = QueryTrace::begin(plan.started);
            trace.record_span("plan", plan.started, plan.planned);
            trace.record_span("admission_wait", wait_started, admitted);
            trace.record_span("enumeration", admitted, finished);
            spans = trace.spans().to_vec();
        }
        let streamed = StreamedQueryOutcome {
            query,
            rows_sent,
            cancelled,
        };
        Ok((streamed, spans))
    }

    /// The `service.connections_open` gauge handle — incremented /
    /// decremented by the TCP front end as connections open and close.
    pub fn connections_gauge(&self) -> Gauge {
        self.dispatch.connections_open.clone()
    }

    /// Runs dispatched per scheduler family so far:
    /// `(sequential, work_stealing)`.
    pub fn dispatch_counts(&self) -> (u64, u64) {
        (
            self.dispatch.sequential.value(),
            self.dispatch.work_stealing.value(),
        )
    }

    /// Counts one dispatch under the scheduler family that will execute it.
    fn record_dispatch(&self, scheduler: &Scheduler) {
        if scheduler.is_sequential() {
            self.dispatch.sequential.inc();
        } else {
            self.dispatch.work_stealing.inc();
        }
    }
}

/// What [`Service::plan`] settles before anything runs.
struct Plan {
    engine: Arc<PreparedEngine>,
    cache_hit: bool,
    pattern_hash: u64,
    /// The prepared engine's routing decision, reported by both `EXPLAIN`
    /// verbs whether or not the scheduler is pinned.
    routing: RoutingDecision,
    /// Whether `run.scheduler` is the routed choice rather than the
    /// caller's pinned one.
    routed: bool,
    /// The spec's run under the scheduler it will execute on.
    run: RunConfig,
    /// Clock readings at the start and the end of the head.
    started: Duration,
    planned: Duration,
}

/// Where [`Service::execute`] delivers a run's results.
enum Delivery<'a> {
    /// One outcome; mappings ride along when `collect_mappings` asks.
    Buffered,
    /// Row frames of up to `chunk` mappings to `sink` while the run goes on.
    Stream {
        sink: &'a mut dyn StreamSink,
        chunk: usize,
    },
    /// No rows; the run carries this per-position trace sink.
    Analyze(Arc<TraceSink>),
}

/// Runs `engine` with its mappings handed to `sink` in frames of `chunk`
/// rows; a failed write cancels the run.  Returns the outcome, the rows the
/// sink accepted and whether the stream was cut short.
fn stream_rows(
    engine: &PreparedEngine,
    run: &RunConfig,
    sink: &mut dyn StreamSink,
    chunk: usize,
) -> (EnumerationOutcome, u64, bool) {
    let mut buffer: Vec<Vec<NodeId>> = Vec::with_capacity(chunk);
    let mut rows_sent: u64 = 0;
    let mut sink_alive = true;
    let outcome = engine.run_streaming(run, |mapping| {
        buffer.push(mapping);
        if buffer.len() < chunk {
            return true;
        }
        sink_alive = sink.rows(&buffer).is_ok();
        if sink_alive {
            rows_sent += buffer.len() as u64;
        }
        buffer.clear();
        // Returning false cancels enumeration: the write failed, so the
        // client will never read another row.
        sink_alive
    });
    if sink_alive && !buffer.is_empty() {
        sink_alive = sink.rows(&buffer).is_ok();
        if sink_alive {
            rows_sent += buffer.len() as u64;
        }
    }
    let cancelled = outcome.cancelled || !sink_alive;
    (outcome, rows_sent, cancelled)
}

/// Convenience alias: a service shared across the front end's threads.
pub type SharedService = Arc<Service>;
