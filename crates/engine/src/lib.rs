//! The unified enumeration engine: one entry point for every scheduler.
//!
//! The paper frames RI, RI-DS-SI(-FC) and their work-stealing
//! parallelization as *one* family sharing the same search machinery.  This
//! crate exposes them that way:
//!
//! 1. [`Engine::prepare`] runs preprocessing (domains, forward checking,
//!    GreatestConstraintFirst ordering) **once** and keeps the resulting
//!    [`SearchContext`] as a reusable prepared artifact — the paper's
//!    one-target/many-runs PDBSv1 workload amortizes this across runs,
//! 2. [`Engine::run`] executes the search under any [`Scheduler`] with one
//!    [`RunConfig`] knob set (`max_matches`, `time_limit`, mapping
//!    collection) and returns one [`EnumerationOutcome`] shape,
//! 3. [`Engine::run_with`] additionally streams every match to a
//!    [`MatchVisitor`],
//! 4. [`PreparedEngine`] is the *owned* counterpart of [`Engine`]: it keeps
//!    the graphs alive behind [`Arc`]s so a prepared instance can outlive
//!    the scope that built it — the shape a query-serving cache needs — and
//!    estimates the size of its search tree once, while it prepares,
//! 5. [`RoutingConfig::route`] turns a price taken from that estimate (the
//!    whole tree for a run that walks it, less for a run that counts its
//!    independent suffix) into the [`Scheduler`] a routed query runs under.
//!
//! # The scheduler-equivalence contract
//!
//! Every scheduler runs the same depth-first loop (`sge_stealing::run`) over
//! **the same search tree** — the candidate generation and consistency
//! checks of [`SearchContext`] — so for any prepared engine and any two run
//! configurations that differ only in their scheduler (and are not
//! truncated by `max_matches`/`time_limit`):
//!
//! * `matches` is identical,
//! * `states` is identical (the total number of consistency checks is
//!   schedule-invariant),
//! * a complete collected-mapping set is byte-identical (mappings are
//!   returned sorted lexicographically).
//!
//! Only scheduling artifacts (steal counts, per-worker breakdowns, wall-clock
//! times) may differ.  One-worker runs (`Sequential`, `ws:1`, a one-worker
//! static partition) are the same loop on the calling thread and agree on
//! every counter.
//!
//! That contract is what makes routed scheduling safe: the serving layer
//! may pick any [`Scheduler`] per query from the prepared engine's prices
//! (small runs stay on the sequential count-only fast path, large ones fan
//! out with sized workers) without changing any result a client can
//! observe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod matcher;
mod problem;
mod route;
mod runner;

pub use route::{RoutingConfig, RoutingDecision};

use sge_graph::{AdjacencyBitmaps, Graph, NodeId};
use sge_obs::TraceSink;
use sge_ri::{
    Algorithm, KernelUsage, MatchVisitor, PlanCost, PreparedParts, QueryPlan, SearchContext,
};
use sge_stealing::WorkerStats;
use sge_util::PhaseTimer;
use std::sync::Arc;
use std::time::Duration;

/// Which execution strategy drives the search.
///
/// Every scheduler runs the same depth-first loop (`sge_stealing::run`);
/// they differ in how many workers run it and whether they steal.  Worker
/// 0 is the calling thread, so a one-worker run — `Sequential`, `ws:1` or
/// a one-worker static partition — uses no other thread.  The other
/// workers are offered to the process-wide pool of parked helper threads,
/// which starts a helper only when no parked one is free to take the offer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// One worker, no stealing: the sequential depth-first search.
    Sequential,
    /// The paper's private-deque work-stealing runtime.
    WorkStealing {
        /// Number of workers: worker 0 on the calling thread, each other
        /// one on a pooled helper thread if one takes it in time, and by
        /// worker 0 otherwise.
        workers: usize,
        /// Task-group (coalescing) size; the paper settles on 4.
        task_group_size: usize,
        /// `false` freezes the initial round-robin partition (the Fig. 3
        /// "no work stealing" baseline).
        stealing: bool,
    },
}

impl Scheduler {
    /// Work stealing with the paper's defaults (task groups of 4, stealing
    /// enabled).
    pub fn work_stealing(workers: usize) -> Self {
        Scheduler::WorkStealing {
            workers,
            task_group_size: 4,
            stealing: true,
        }
    }

    /// Number of workers this scheduler uses (1 for sequential).
    pub fn workers(&self) -> usize {
        match *self {
            Scheduler::Sequential => 1,
            Scheduler::WorkStealing { workers, .. } => workers.max(1),
        }
    }

    /// `true` for the sequential scheduler — the family the planner's
    /// routing fast path targets.  Dispatch accounting (the
    /// `engine.dispatch.*` counters) classifies every run as sequential or
    /// parallel through this predicate, so it is the single place the
    /// two-family split is defined.
    pub fn is_sequential(&self) -> bool {
        matches!(self, Scheduler::Sequential)
    }

    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Scheduler::Sequential => "sequential",
            Scheduler::WorkStealing { stealing: true, .. } => "work-stealing",
            Scheduler::WorkStealing {
                stealing: false, ..
            } => "static-partition",
        }
    }
}

impl std::fmt::Display for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Scheduler::Sequential => f.write_str("sequential"),
            Scheduler::WorkStealing {
                workers,
                task_group_size,
                stealing,
            } => write!(
                f,
                "work-stealing(workers={workers}, group={task_group_size}, steal={stealing})"
            ),
        }
    }
}

impl std::str::FromStr for Scheduler {
    type Err = String;

    /// Parses the compact scheduler grammar used by the serving wire
    /// protocol and CLI tools:
    ///
    /// * `seq` / `sequential`
    /// * `ws:<workers>` — work stealing with the paper's defaults
    /// * `ws:<workers>:<group>` — explicit task-group size
    /// * `ws:<workers>:<group>:nosteal` — the static-partition baseline
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let lower = text.to_ascii_lowercase();
        if lower == "seq" || lower == "sequential" {
            return Ok(Scheduler::Sequential);
        }
        let mut parts = lower.split(':');
        let kind = parts.next().unwrap_or_default();
        let workers = match parts.next() {
            Some(w) => w
                .parse::<usize>()
                .map_err(|_| format!("invalid worker count '{w}' in scheduler '{text}'"))?,
            None => return Err(format!("scheduler '{text}' is missing a worker count")),
        };
        match kind {
            "ws" | "work-stealing" => {
                let task_group_size = match parts.next() {
                    Some(g) => g
                        .parse::<usize>()
                        .map_err(|_| format!("invalid group size '{g}' in scheduler '{text}'"))?,
                    None => 4,
                };
                let stealing = match parts.next() {
                    None | Some("steal") => true,
                    Some("nosteal") => false,
                    Some(other) => {
                        return Err(format!("unknown stealing flag '{other}' in '{text}'"))
                    }
                };
                if parts.next().is_some() {
                    return Err(format!("trailing tokens in scheduler '{text}'"));
                }
                Ok(Scheduler::WorkStealing {
                    workers,
                    task_group_size,
                    stealing,
                })
            }
            other => Err(format!(
                "unknown scheduler '{other}' (expected seq or ws:<n>)"
            )),
        }
    }
}

/// One run's knob set, honored uniformly by every scheduler.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Execution strategy.
    pub scheduler: Scheduler,
    /// Stop cooperatively after this many matches (`None` = enumerate all).
    /// Every scheduler reports exactly `min(max_matches, total)`.
    pub max_matches: Option<u64>,
    /// Wall-clock budget for the matching phase.
    pub time_limit: Option<Duration>,
    /// Collect up to this many full mappings in the outcome (0 = none).
    pub collect_mappings: usize,
    /// Seed for scheduling decisions (victim selection under work stealing;
    /// never affects *what* is enumerated, only who enumerates it).
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::new(Scheduler::Sequential)
    }
}

impl RunConfig {
    /// A run under `scheduler` with no limits and no mapping collection.
    pub fn new(scheduler: Scheduler) -> Self {
        RunConfig {
            scheduler,
            max_matches: None,
            time_limit: None,
            collect_mappings: 0,
            seed: 0xC0FF_EE00,
        }
    }

    /// Sets the scheduler.
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Stops after `limit` matches.
    pub fn with_max_matches(mut self, limit: u64) -> Self {
        self.max_matches = Some(limit);
        self
    }

    /// Sets the matching-phase time limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Collects up to `limit` full mappings.
    pub fn with_collected_mappings(mut self, limit: usize) -> Self {
        self.collect_mappings = limit;
        self
    }

    /// Sets the scheduling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The unified result shape every scheduler produces.
#[derive(Clone, Debug)]
pub struct EnumerationOutcome {
    /// Algorithm variant that ran.
    pub algorithm: Algorithm,
    /// Scheduler that ran it.
    pub scheduler: Scheduler,
    /// Workers used (1 for sequential).
    pub workers: usize,
    /// Number of embeddings found (exactly `min(max_matches, total)` when a
    /// match limit is set).
    pub matches: u64,
    /// Search-space size: consistency checks performed, summed over workers.
    /// Schedule-invariant on complete runs.
    pub states: u64,
    /// Preprocessing seconds — paid once at [`Engine::prepare`] and reported
    /// unchanged by every run of the same engine.
    pub preprocess_seconds: f64,
    /// Matching wall-clock seconds of this run.
    pub match_seconds: f64,
    /// Whether the time limit cut the run short.
    pub timed_out: bool,
    /// Whether the match limit stopped the run early.
    pub limit_hit: bool,
    /// Whether cooperative cancellation stopped the run early — set when a
    /// [`Engine::run_streaming`] consumer returned `false` (e.g. a streaming
    /// client disconnected).  Counts are then lower bounds, exactly as for a
    /// timed-out run.
    pub cancelled: bool,
    /// Successful steals (work-stealing scheduler only; 0 otherwise).
    pub steals: u64,
    /// Steal requests issued (work-stealing scheduler only; 0 otherwise).
    pub steal_requests: u64,
    /// Population standard deviation of per-worker states — the Fig. 3 load
    /// imbalance metric (0 for sequential).
    pub worker_states_stddev: f64,
    /// Per-worker counters (one entry for sequential), tasks and task
    /// groups included.
    pub worker_stats: Vec<WorkerStats>,
    /// Collected mappings (`mapping[p]` = target node of pattern node `p`),
    /// **sorted lexicographically** under every scheduler: a complete
    /// (non-truncated) collection is byte-identical across schedulers, worker
    /// counts and seeds.  Truncated collections (`collect_mappings` smaller
    /// than the match count, or a limited run) are sorted but which matches
    /// they contain is schedule-dependent.
    pub mappings: Vec<Vec<NodeId>>,
    /// Intersection-kernel invocations and prefilter rejections of this run
    /// (summed over workers; schedule-invariant on complete runs, like
    /// `states`).
    pub kernels: KernelUsage,
}

impl EnumerationOutcome {
    /// Total time: preprocessing + matching.
    pub fn total_seconds(&self) -> f64 {
        self.preprocess_seconds + self.match_seconds
    }

    /// States visited per second of matching time.
    pub fn states_per_second(&self) -> f64 {
        if self.match_seconds > 0.0 {
            self.states as f64 / self.match_seconds
        } else {
            0.0
        }
    }
}

/// A prepared enumeration instance: preprocessing done, ready to run under
/// any scheduler, any number of times.
///
/// ```
/// use sge_engine::{Engine, RunConfig, Scheduler};
/// use sge_ri::Algorithm;
///
/// let pattern = sge_graph::generators::directed_cycle(3, 0);
/// let target = sge_graph::generators::clique(5, 0);
/// let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
///
/// let seq = engine.run(&RunConfig::new(Scheduler::Sequential));
/// let par = engine.run(&RunConfig::new(Scheduler::work_stealing(4)));
/// assert_eq!(seq.matches, 60);
/// assert_eq!(par.matches, 60);
/// assert_eq!(seq.states, par.states); // same search tree under every scheduler
/// ```
pub struct Engine<'g> {
    ctx: SearchContext<'g>,
    preprocess_seconds: f64,
    /// What every run of this engine records into; the prepared context
    /// itself records nothing.
    sink: Option<Arc<TraceSink>>,
}

impl<'g> Engine<'g> {
    /// Runs the preprocessing phase of `algorithm` (domain computation,
    /// forward checking, node ordering) once and returns a reusable engine.
    pub fn prepare(pattern: &'g Graph, target: &'g Graph, algorithm: Algorithm) -> Self {
        let mut timer = PhaseTimer::new();
        let ctx = timer.time("preprocess", || {
            SearchContext::prepare(pattern, target, algorithm)
        });
        Engine {
            ctx,
            preprocess_seconds: timer.seconds("preprocess"),
            sink: None,
        }
    }

    /// An engine over a context the caller planned and prepared itself
    /// (e.g. over a sidecar of its choosing); it reports no preprocessing
    /// time.
    pub fn from_context(ctx: SearchContext<'g>) -> Self {
        Engine {
            ctx,
            preprocess_seconds: 0.0,
            sink: None,
        }
    }

    /// The algorithm this engine was prepared for.
    pub fn algorithm(&self) -> Algorithm {
        self.ctx.algorithm()
    }

    /// The prepared query plan (match order, domains).
    pub fn plan(&self) -> &QueryPlan {
        self.ctx.plan()
    }

    /// The prepared search context (ordering, domains, candidate machinery;
    /// [`SearchContext::estimate`] probes its tree).
    pub fn context(&self) -> &SearchContext<'g> {
        &self.ctx
    }

    /// Seconds spent in [`Engine::prepare`].
    pub fn preprocess_seconds(&self) -> f64 {
        self.preprocess_seconds
    }

    /// Attaches a [`TraceSink`] that every later run of this engine, under
    /// any scheduler, records its candidate lists and consistency checks
    /// into, per match-order position.  Per-position totals are
    /// schedule-invariant on complete runs (the scheduler-equivalence
    /// contract extends to the observed counts).  A traced run walks every
    /// state: it never counts the independent suffix.  Scheduler totals
    /// (steals, tasks, wait times) are in each run's outcome.
    ///
    /// Without a sink the hot path pays a single predictable branch — the
    /// zero-overhead-when-disabled contract the benchmarks rely on.
    pub fn set_trace_sink(&mut self, sink: Arc<TraceSink>) {
        self.sink = Some(sink);
    }

    /// Builder-style [`Engine::set_trace_sink`].
    pub fn with_trace_sink(mut self, sink: Arc<TraceSink>) -> Self {
        self.set_trace_sink(sink);
        self
    }

    /// The attached trace sink, if any.
    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.sink.as_ref()
    }

    /// `true` when preprocessing already proved there are no matches.
    pub fn impossible(&self) -> bool {
        self.ctx.impossible()
    }

    /// Executes one run under `config.scheduler`.
    pub fn run(&self, config: &RunConfig) -> EnumerationOutcome {
        self.execute(config, None, None)
    }

    /// Executes one run, streaming every match to `visitor`: from the
    /// calling thread, as worker 0, in a one-worker run (`Sequential`,
    /// `ws:1` or a one-worker static partition); when several workers run,
    /// concurrently from the calling thread and the pooled helper threads
    /// that joined the run.
    pub fn run_with(&self, config: &RunConfig, visitor: &dyn MatchVisitor) -> EnumerationOutcome {
        self.execute(config, Some(visitor), None)
    }

    /// Executes one run, handing every mapping to `consumer` as it is found,
    /// on the thread that found it: the calling thread, as worker 0, and in
    /// a `ws:N` run the pooled helpers that joined.  Calls never overlap
    /// (the consumer runs under one lock, so it must be `Send` but need not
    /// be `Sync`), and nothing is buffered between the workers and the
    /// consumer: memory stays what the run and the consumer hold, whatever
    /// the result cardinality, and a slow consumer slows the workers.
    ///
    /// The consumer returns `true` to keep going; returning `false` (the
    /// client is gone, enough rows were delivered, …) cooperatively cancels
    /// the run: the consumer is never called again, the workers stop at
    /// their next match or interrupt check, and the returned outcome reports
    /// [`EnumerationOutcome::cancelled`].
    ///
    /// `channel_capacity` is unused; the argument stays for callers of this
    /// three-argument form.
    ///
    /// Mappings arrive in **discovery order** (schedule-dependent under the
    /// parallel schedulers), not sorted like
    /// [`EnumerationOutcome::mappings`].
    pub fn run_streaming<F>(
        &self,
        config: &RunConfig,
        _channel_capacity: usize,
        consumer: F,
    ) -> EnumerationOutcome
    where
        F: FnMut(Vec<NodeId>) -> bool + Send,
    {
        self.stream(config, consumer)
    }

    /// Convenience: count all matches sequentially.
    pub fn count(&self) -> u64 {
        self.run(&RunConfig::default()).matches
    }
}

/// An **owned** prepared enumeration instance.
///
/// [`Engine`] borrows its graphs, which ties a prepared instance to the
/// scope that owns them.  `PreparedEngine` instead shares ownership of the
/// pattern and target behind [`Arc`]s and keeps the preprocessing artifacts
/// ([`PreparedParts`]) alongside, so it can live in a long-running cache and
/// serve concurrent queries from many threads (`PreparedEngine` is `Send +
/// Sync`; runs take `&self`).
///
/// ```
/// use sge_engine::{PreparedEngine, RunConfig, Scheduler};
/// use sge_ri::Algorithm;
/// use std::sync::Arc;
///
/// let pattern = Arc::new(sge_graph::generators::directed_cycle(3, 0));
/// let target = Arc::new(sge_graph::generators::clique(5, 0));
/// let prepared = PreparedEngine::prepare(pattern, target, Algorithm::RiDsSiFc);
///
/// // The instance owns everything it needs — hand it to any thread.
/// assert_eq!(prepared.run(&RunConfig::new(Scheduler::Sequential)).matches, 60);
/// assert_eq!(prepared.run(&RunConfig::new(Scheduler::work_stealing(2))).matches, 60);
/// ```
pub struct PreparedEngine {
    pattern: Arc<Graph>,
    target: Arc<Graph>,
    parts: PreparedParts,
    estimate: PlanCost,
    count_only_price: f64,
    preprocess_seconds: f64,
}

impl PreparedEngine {
    /// Runs preprocessing once and returns a self-contained prepared
    /// instance sharing ownership of both graphs.
    pub fn prepare(pattern: Arc<Graph>, target: Arc<Graph>, algorithm: Algorithm) -> Self {
        Self::timed(pattern, target, |pattern, target| {
            SearchContext::prepare(pattern, target, algorithm)
        })
    }

    /// [`PreparedEngine::prepare`] with the target's bitmap sidecar — the
    /// entry point the serving cache prepares through, so a long-lived
    /// registry target pays its sidecar build once at registration instead
    /// of on every cache miss.  With a row-less sidecar every step
    /// intersects CSR lists.
    pub fn prepare_planned_full(
        pattern: Arc<Graph>,
        target: Arc<Graph>,
        bitmaps: Arc<AdjacencyBitmaps>,
        algorithm: Algorithm,
    ) -> Self {
        Self::timed(pattern, target, |pattern, target| {
            SearchContext::prepare_planned_full(pattern, target, bitmaps, algorithm)
        })
    }

    /// Runs `prepare` against the owned graphs and probes the prepared
    /// search's tree, timing both as the instance's preprocessing cost.
    fn timed(
        pattern: Arc<Graph>,
        target: Arc<Graph>,
        prepare: impl for<'g> FnOnce(&'g Graph, &'g Graph) -> SearchContext<'g>,
    ) -> Self {
        let mut timer = PhaseTimer::new();
        let (parts, estimate) = timer.time("preprocess", || {
            let ctx = prepare(&pattern, &target);
            (PreparedParts::extract(&ctx), ctx.estimate())
        });
        PreparedEngine {
            count_only_price: route::count_only_price(&estimate, parts.counted_from()),
            pattern,
            target,
            parts,
            estimate,
            preprocess_seconds: timer.seconds("preprocess"),
        }
    }

    /// Materializes a borrowing [`Engine`] view (cheap: the plan, its
    /// probes and the sidecar are shared, nothing is copied).  The view
    /// reports this instance's preprocessing cost in its outcomes.
    pub fn engine(&self) -> Engine<'_> {
        Engine {
            ctx: self.parts.context(&self.pattern, &self.target),
            preprocess_seconds: self.preprocess_seconds,
            sink: None,
        }
    }

    /// Executes one run under `config.scheduler`.
    pub fn run(&self, config: &RunConfig) -> EnumerationOutcome {
        self.engine().run(config)
    }

    /// Executes one run, streaming every match to `visitor`.
    pub fn run_with(&self, config: &RunConfig, visitor: &dyn MatchVisitor) -> EnumerationOutcome {
        self.engine().run_with(config, visitor)
    }

    /// Executes one run, handing every mapping to `consumer` on the worker
    /// that found it, one call at a time — see [`Engine::run_streaming`].
    /// The consumer returns `false` to cooperatively cancel the run.
    pub fn run_streaming<F>(&self, config: &RunConfig, consumer: F) -> EnumerationOutcome
    where
        F: FnMut(Vec<NodeId>) -> bool + Send,
    {
        self.engine().stream(config, consumer)
    }

    /// Convenience: count all matches sequentially.
    pub fn count(&self) -> u64 {
        self.run(&RunConfig::default()).matches
    }

    /// The pattern graph.
    pub fn pattern(&self) -> &Arc<Graph> {
        &self.pattern
    }

    /// The target graph.
    pub fn target(&self) -> &Arc<Graph> {
        &self.target
    }

    /// The algorithm this instance was prepared for.
    pub fn algorithm(&self) -> Algorithm {
        self.parts.algorithm()
    }

    /// The prepared query plan (match order, domains) — what the
    /// service's `EXPLAIN` verb reports.
    pub fn plan(&self) -> &QueryPlan {
        self.parts.plan()
    }

    /// The probe estimate of this instance's search tree, taken once at
    /// preparation ([`SearchContext::estimate`]): what both `EXPLAIN` verbs
    /// report, and the price routing gives a run that walks the tree.
    pub fn estimate(&self) -> &PlanCost {
        &self.estimate
    }

    /// The price routing gives a run that counts the independent suffix
    /// from [`Self::counted_from`] on, taken once at preparation: the
    /// estimated states before the suffix, plus one scan of the suffix's
    /// candidate lists per count, `Σ_{d<c} est_states[d] + (est_states[c] /
    /// est_candidates[c]) · Σ_{i≥c} est_candidates[i]` with `c` =
    /// `counted_from`.  It equals `est_total_states` when at most one
    /// position is counted.
    pub fn count_only_price(&self) -> f64 {
        self.count_only_price
    }

    /// The bitmap sidecar captured at preparation time, if any.
    pub fn bitmaps(&self) -> Option<&Arc<AdjacencyBitmaps>> {
        self.parts.bitmaps()
    }

    /// The first position of the plan's independent suffix, which runs
    /// that observe no match count instead of enumerating
    /// ([`SearchContext::counted_from`]): what both `EXPLAIN` verbs report.
    pub fn counted_from(&self) -> usize {
        self.parts.counted_from()
    }

    /// The kernel that generates candidates at each position, resolved for
    /// EXPLAIN from the sidecar alone: `"scan"` for positions without
    /// back-edge constraints (domain / full-target scans), `"bitmap"` for
    /// the rest when the sidecar holds rows, `"gallop"` when it holds none
    /// (no sidecar, no neighborhood dense enough, or the memory cap).  A
    /// `"bitmap"` step still intersects CSR lists wherever one of its
    /// constraints' images has no row.
    pub fn resolved_kernels(&self) -> Vec<&'static str> {
        let rows_present = self.parts.bitmaps().is_some_and(|b| b.row_count() > 0);
        let constrained = ["gallop", "bitmap"][rows_present as usize];
        self.parts
            .plan()
            .order
            .plan
            .steps
            .iter()
            .map(|step| match step.constraints.is_empty() {
                true => "scan",
                false => constrained,
            })
            .collect()
    }

    /// Seconds spent in [`PreparedEngine::prepare`].
    pub fn preprocess_seconds(&self) -> f64 {
        self.preprocess_seconds
    }

    /// `true` when preprocessing already proved there are no matches.
    pub fn impossible(&self) -> bool {
        self.parts.impossible() || self.pattern.num_nodes() > self.target.num_nodes()
    }
}

// The serving layer shares engines across threads; fail at compile time if a
// field ever loses these bounds.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedEngine>();
    assert_send_sync::<Engine<'static>>();
    assert_send_sync::<EnumerationOutcome>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::generators;

    fn schedulers() -> Vec<Scheduler> {
        vec![
            Scheduler::Sequential,
            Scheduler::work_stealing(1),
            Scheduler::work_stealing(2),
            Scheduler::work_stealing(4),
            Scheduler::WorkStealing {
                workers: 4,
                task_group_size: 2,
                stealing: false,
            },
            Scheduler::WorkStealing {
                workers: 1,
                task_group_size: 3,
                stealing: false,
            },
            nosteal(1),
            nosteal(3),
        ]
    }

    /// `ws:<workers>:1:nosteal`: the frozen round-robin partition of the
    /// roots, one task per group.
    fn nosteal(workers: usize) -> Scheduler {
        Scheduler::WorkStealing {
            workers,
            task_group_size: 1,
            stealing: false,
        }
    }

    fn tasks(outcome: &EnumerationOutcome) -> u64 {
        outcome.worker_stats.iter().map(|w| w.tasks_executed).sum()
    }

    fn task_groups(outcome: &EnumerationOutcome) -> u64 {
        outcome.worker_stats.iter().map(|w| w.task_groups).sum()
    }

    /// A visitor calling `F` for every match.
    struct Calls<F>(F);

    impl<F: Fn(usize, &[NodeId]) + Sync> MatchVisitor for Calls<F> {
        fn on_match(&self, worker_id: usize, mapping: &[NodeId]) {
            (self.0)(worker_id, mapping)
        }
    }

    /// The kernel figures of a complete run against the sequential
    /// reference: the lists handed to the search are schedule-invariant;
    /// the work that built them repeats exactly only with one worker, where
    /// the candidate memo sees the sequential depth-first order.
    fn assert_kernels_match(outcome: &EnumerationOutcome, reference: &EnumerationOutcome) {
        let scheduler = outcome.scheduler;
        assert_eq!(
            outcome.kernels.lists, reference.kernels.lists,
            "{scheduler}"
        );
        if scheduler.workers() == 1 {
            assert_eq!(outcome.kernels, reference.kernels, "{scheduler}");
        }
    }

    #[test]
    fn dense_targets_report_bitmap_kernel_usage_under_every_scheduler() {
        // Every neighborhood of clique(16) reaches the row floor of 8, so
        // every constrained step ANDs rows; the outcome must report bitmap
        // row ANDs, and the lists handed to the search must be
        // schedule-invariant (one per expansion, like states).
        let pattern = generators::directed_cycle(4, 0);
        let target = generators::clique(16, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDs);
        let reference = engine.run(&RunConfig::default());
        assert!(
            reference.kernels.bitmap > 0,
            "dense target should exercise the bitmap kernel, got {:?}",
            reference.kernels
        );
        assert_eq!(reference.kernels.merge, 0);
        for scheduler in schedulers() {
            let outcome = engine.run(&RunConfig::new(scheduler));
            assert_eq!(outcome.matches, reference.matches, "{scheduler}");
            assert_kernels_match(&outcome, &reference);
        }
    }

    #[test]
    fn star_patterns_reuse_candidate_lists_under_every_scheduler() {
        // Every leaf of the star hangs off its centre, so below one centre
        // image each leaf position asks for the list it was handed before.
        let pattern = generators::star(4, 0, 0);
        let target = generators::clique(8, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let reference = engine.run(&RunConfig::default());
        assert_eq!(reference.matches, 8 * 7 * 6 * 5 * 4);
        let usage = reference.kernels;
        assert!(usage.reused > 0 && usage.reused < usage.lists, "{usage:?}");
        let schedulers = [
            Scheduler::work_stealing(1),
            Scheduler::work_stealing(2),
            Scheduler::work_stealing(4),
            nosteal(1),
            nosteal(2),
        ];
        for scheduler in schedulers {
            let outcome = engine.run(&RunConfig::new(scheduler));
            assert_eq!(outcome.matches, reference.matches, "{scheduler}");
            assert_eq!(outcome.states, reference.states, "{scheduler}");
            assert_kernels_match(&outcome, &reference);
        }
    }

    #[test]
    fn sparse_targets_report_gallop_or_merge_kernels_only() {
        let pattern = generators::undirected_cycle(4, 0);
        let target = generators::grid(4, 4);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDs);
        let outcome = engine.run(&RunConfig::default());
        assert_eq!(outcome.kernels.bitmap, 0);
        assert!(
            outcome.kernels.intersections() > 0,
            "a cycle pattern on a sparse target must run sorted-list kernels"
        );
    }

    #[test]
    fn stealing_counts_the_last_level_only_when_nothing_observes_matches() {
        // 3,360 directed triangles in K16 below 16 + 240 inner nodes: the
        // suffix-count rule counts the last position, so a count-only run
        // executes fewer tasks than it finds matches, while an observed run
        // executes one task per match on top.
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(16, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let sequential = engine.run(&RunConfig::default());
        assert_eq!(sequential.matches, 3360);
        for workers in [1, 2] {
            let config = RunConfig::new(Scheduler::work_stealing(workers));
            let counted = engine.run(&config);
            let visited = std::sync::atomic::AtomicU64::new(0);
            let visitor = |_: usize, _: &[NodeId]| {
                visited.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            };
            let observed = engine.run_with(&config, &Calls(visitor));
            for outcome in [&counted, &observed] {
                assert_eq!(outcome.matches, sequential.matches);
                assert_eq!(outcome.states, sequential.states);
                assert_kernels_match(outcome, &sequential);
                assert!(task_groups(outcome) > 0);
            }
            assert!(tasks(&counted) < counted.matches, "{}", tasks(&counted));
            assert!(tasks(&observed) >= observed.matches, "{}", tasks(&observed));
            assert_eq!(visited.into_inner(), observed.matches);
        }
    }

    #[test]
    fn a_full_collector_counts_the_remaining_leaves() {
        // Once the collector holds its one mapping and no visitor listens,
        // the rest of the 3,360 directed triangles in K16 are counted, not
        // enumerated: with the count-only run's figures.
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(16, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let counted = engine.run(&RunConfig::default());
        assert_eq!(counted.matches, 3360);
        for scheduler in [
            Scheduler::Sequential,
            Scheduler::work_stealing(1),
            Scheduler::work_stealing(2),
        ] {
            let outcome = engine.run(&RunConfig::new(scheduler).with_collected_mappings(1));
            assert_eq!(outcome.mappings.len(), 1, "{scheduler}");
            let mapping = &outcome.mappings[0];
            for (u, v, l) in pattern.edges() {
                let edge = target.edge_label(mapping[u as usize], mapping[v as usize]);
                assert_eq!(edge, Some(l), "{scheduler}");
            }
            let figures = (outcome.matches, outcome.states, outcome.kernels.lists);
            let want = (counted.matches, counted.states, counted.kernels.lists);
            assert_eq!(figures, want, "{scheduler}");
            assert!(tasks(&outcome) < outcome.matches, "{scheduler}");
        }
    }

    #[test]
    fn a_star_is_counted_below_its_centre() {
        // Every leaf hangs off the centre, so the suffix-count rule counts
        // all four leaf positions below each centre image: only the 8
        // roots are tasks, and the figures are an observed run's.
        let pattern = generators::star(4, 0, 0);
        let target = generators::clique(8, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        assert_eq!(engine.context().counted_from(), 1);
        for scheduler in [
            Scheduler::Sequential,
            Scheduler::work_stealing(1),
            Scheduler::work_stealing(2),
        ] {
            let config = RunConfig::new(scheduler);
            let counted = engine.run(&config);
            let observed = engine.run_with(&config, &Calls(|_: usize, _: &[NodeId]| {}));
            assert_eq!(counted.matches, 8 * 7 * 6 * 5 * 4, "{scheduler}");
            let figures = |o: &EnumerationOutcome| (o.matches, o.states, o.kernels.lists);
            assert_eq!(figures(&counted), figures(&observed), "{scheduler}");
            if scheduler.workers() == 1 {
                assert_eq!(counted.kernels, observed.kernels, "{scheduler}");
            }
            assert_eq!(tasks(&counted), 8, "{scheduler}");
        }
    }

    #[test]
    fn a_nested_run_reports_only_its_own_kernel_work() {
        // A visitor runs the same engine once from inside the outer run;
        // each run reports the work of the worker states it drove.
        let pattern = generators::undirected_cycle(4, 0);
        let target = generators::grid(5, 5);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let config = RunConfig::default();
        let alone = engine.run_with(&config, &Calls(|_: usize, _: &[NodeId]| {}));
        // The grid is symmetric, so each undirected pattern edge is one
        // probe: only the closing position's two parents are merged.
        assert_eq!((alone.kernels.lists, alone.kernels.merge), (294, 172));
        let inner = std::sync::OnceLock::new();
        let nesting = |_: usize, _: &[NodeId]| {
            inner.get_or_init(|| engine.run(&config));
        };
        let outer = engine.run_with(&config, &Calls(nesting));
        let inner = inner.into_inner().expect("the visitor ran the engine");
        assert_eq!(outer.kernels, alone.kernels);
        assert_eq!(inner.kernels.lists, alone.kernels.lists);
        assert_eq!(outer.matches, alone.matches);
    }

    #[test]
    fn a_work_stealing_run_inside_another_matches_the_sequential_run() {
        // Every match of an outer `ws:2` run starts an inner `ws:2` run from
        // the outer run's worker, while the outer run holds its helper: the
        // inner run's worker 0 runs what no free helper takes.
        let pattern = generators::undirected_cycle(4, 0);
        let target = generators::grid(4, 4);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let figures = |config: RunConfig, visitor: &dyn MatchVisitor| {
            let o = engine.run_with(&config.with_collected_mappings(usize::MAX), visitor);
            (o.matches, o.states, o.mappings)
        };
        let quiet = Calls(|_: usize, _: &[NodeId]| {});
        let sequential = figures(RunConfig::new(Scheduler::Sequential), &quiet);
        assert_eq!(sequential.0, 72);
        let ws2 = RunConfig::new(Scheduler::work_stealing(2));
        let inner_runs = std::sync::atomic::AtomicU64::new(0);
        let nesting = Calls(|_: usize, _: &[NodeId]| {
            assert_eq!(figures(ws2, &quiet), sequential);
            inner_runs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert_eq!(figures(ws2, &nesting), sequential);
        assert_eq!(inner_runs.into_inner(), 72);
    }

    #[test]
    fn a_traced_run_walks_the_suffix_it_would_count() {
        // The leaves of a star are the independent suffix: a count-only
        // run counts them below each centre, a traced one enumerates them
        // and records every position it walks.
        let pattern = generators::star(3, 0, 0);
        let target = generators::clique(6, 0);
        let mut engine = Engine::prepare(&pattern, &target, Algorithm::Ri);
        let counted_from = engine.context().counted_from();
        assert_eq!(counted_from, 1);
        for scheduler in [Scheduler::Sequential, Scheduler::work_stealing(2)] {
            let config = RunConfig::new(scheduler);
            let counted = engine.run(&config);
            let sink = Arc::new(TraceSink::new(engine.plan().num_positions()));
            engine.set_trace_sink(Arc::clone(&sink));
            let traced = engine.run(&config);
            engine.sink = None;
            assert_eq!(traced.matches, 6 * 5 * 4 * 3, "{scheduler}");
            assert_eq!(traced.states, counted.states, "{scheduler}");
            assert_eq!(sink.states_total(), traced.states, "{scheduler}");
            let observed = sink.states_per_position();
            assert!(
                observed[counted_from..].iter().all(|&s| s > 0),
                "{observed:?}"
            );
            assert!(tasks(&traced) > tasks(&counted), "{scheduler}");
        }
    }

    #[test]
    fn the_estimate_leaves_an_attached_sink_at_zero() {
        let pattern = generators::undirected_cycle(6, 0);
        let target = generators::grid(24, 24);
        let sink = Arc::new(TraceSink::new(6));
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc)
            .with_trace_sink(Arc::clone(&sink));
        assert!(engine.context().estimate().est_total_states > 0.0);
        assert_eq!(sink.candidates_per_position(), [0; 6]);
        assert_eq!(sink.states_per_position(), [0; 6]);
    }

    #[test]
    fn one_worker_runs_stay_on_the_calling_thread() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(6, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let caller = std::thread::current().id();
        for scheduler in [
            Scheduler::Sequential,
            Scheduler::work_stealing(1),
            "ws:1:3:nosteal".parse().unwrap(),
        ] {
            let threads = std::sync::Mutex::new(Vec::new());
            let visitor = |_: usize, _: &[NodeId]| {
                threads.lock().unwrap().push(std::thread::current().id());
            };
            let outcome = engine.run_with(&RunConfig::new(scheduler), &Calls(visitor));
            let threads = threads.into_inner().unwrap();
            assert_eq!(threads.len() as u64, outcome.matches, "{scheduler}");
            assert_eq!(outcome.matches, 120, "{scheduler}");
            assert!(threads.iter().all(|&id| id == caller), "{scheduler}");
        }
    }

    #[test]
    fn sequential_and_one_worker_stealing_agree_on_every_counter() {
        let instances = [
            (generators::star(3, 0, 0), generators::clique(7, 0)),
            (generators::undirected_cycle(4, 0), generators::grid(4, 4)),
        ];
        for (pattern, target) in &instances {
            let engine = Engine::prepare(pattern, target, Algorithm::RiDsSiFc);
            let figures = |scheduler| {
                let o = engine.run(&RunConfig::new(scheduler));
                (o.matches, o.states, o.kernels, tasks(&o), task_groups(&o))
            };
            let sequential = figures(Scheduler::Sequential);
            assert!(sequential.0 > 0 && sequential.3 > 0 && sequential.4 > 0);
            assert_eq!(figures(Scheduler::work_stealing(1)), sequential);
        }
    }

    #[test]
    fn prepared_engine_streams_like_the_borrowing_engine() {
        let pattern = Arc::new(generators::directed_cycle(3, 0));
        let target = Arc::new(generators::clique(5, 0));
        let prepared = PreparedEngine::prepare(pattern, target, Algorithm::RiDsSiFc);
        let mut rows: Vec<Vec<sge_graph::NodeId>> = Vec::new();
        let outcome = prepared.run_streaming(&RunConfig::default(), |mapping| {
            rows.push(mapping);
            true
        });
        assert_eq!(outcome.matches, 60);
        assert_eq!(rows.len(), 60);
        rows.sort_unstable();
        let reference = prepared
            .run(&RunConfig::default().with_collected_mappings(100))
            .mappings;
        assert_eq!(rows, reference);
    }

    #[test]
    fn preprocessing_is_amortized_across_runs() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(6, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let first = engine.run(&RunConfig::default());
        let second = engine.run(&RunConfig::new(Scheduler::work_stealing(2)));
        assert_eq!(first.preprocess_seconds, engine.preprocess_seconds());
        assert_eq!(second.preprocess_seconds, engine.preprocess_seconds());
        assert_eq!(engine.count(), first.matches);
    }

    #[test]
    fn scheduler_display_and_names() {
        assert_eq!(Scheduler::Sequential.to_string(), "sequential");
        assert_eq!(Scheduler::Sequential.name(), "sequential");
        assert_eq!(Scheduler::work_stealing(4).name(), "work-stealing");
        assert!(Scheduler::work_stealing(4)
            .to_string()
            .contains("workers=4"));
        assert_eq!(
            Scheduler::WorkStealing {
                workers: 2,
                task_group_size: 4,
                stealing: false
            }
            .name(),
            "static-partition"
        );
        assert_eq!(Scheduler::work_stealing(0).workers(), 1);
    }

    #[test]
    fn scheduler_from_str_grammar() {
        assert_eq!("seq".parse::<Scheduler>().unwrap(), Scheduler::Sequential);
        assert_eq!(
            "sequential".parse::<Scheduler>().unwrap(),
            Scheduler::Sequential
        );
        assert_eq!(
            "ws:4".parse::<Scheduler>().unwrap(),
            Scheduler::work_stealing(4)
        );
        assert_eq!(
            "ws:2:8:nosteal".parse::<Scheduler>().unwrap(),
            Scheduler::WorkStealing {
                workers: 2,
                task_group_size: 8,
                stealing: false
            }
        );
        let refused = "rayon:3".parse::<Scheduler>().unwrap_err();
        assert!(
            refused.contains("seq") && refused.contains("ws:<n>"),
            "{refused}"
        );
        assert!("ws".parse::<Scheduler>().is_err());
        assert!("ws:x".parse::<Scheduler>().is_err());
        assert!("fibers:2".parse::<Scheduler>().is_err());
        assert!("ws:4:2:nosteal:steal".parse::<Scheduler>().is_err());
        assert!("rayon:2:9".parse::<Scheduler>().is_err());
    }

    #[test]
    fn prepared_engine_matches_borrowing_engine() {
        let pattern = Arc::new(generators::undirected_cycle(4, 0));
        let target = Arc::new(generators::grid(4, 4));
        for algorithm in Algorithm::ALL {
            let borrowed = Engine::prepare(&pattern, &target, algorithm);
            let owned =
                PreparedEngine::prepare(Arc::clone(&pattern), Arc::clone(&target), algorithm);
            let reference = borrowed.run(&RunConfig::default().with_collected_mappings(10_000));
            for scheduler in schedulers() {
                let outcome = owned.run(&RunConfig::new(scheduler).with_collected_mappings(10_000));
                assert_eq!(
                    outcome.matches, reference.matches,
                    "{algorithm} {scheduler}"
                );
                assert_eq!(outcome.states, reference.states, "{algorithm} {scheduler}");
                assert_eq!(
                    outcome.mappings, reference.mappings,
                    "{algorithm} {scheduler}"
                );
            }
            assert_eq!(owned.algorithm(), algorithm);
            assert_eq!(
                owned.preprocess_seconds(),
                owned.engine().preprocess_seconds()
            );
        }
    }

    #[test]
    fn impossible_agrees_between_borrowed_and_owned_engines() {
        // Oversized pattern under plain RI: impossibility comes from the
        // size comparison, not from domains — both entry points must agree.
        let pattern = Arc::new(generators::clique(5, 0));
        let target = Arc::new(generators::clique(3, 0));
        for algorithm in Algorithm::ALL {
            let borrowed = Engine::prepare(&pattern, &target, algorithm);
            let owned =
                PreparedEngine::prepare(Arc::clone(&pattern), Arc::clone(&target), algorithm);
            assert!(borrowed.impossible(), "{algorithm}");
            assert!(owned.impossible(), "{algorithm}");
            assert_eq!(owned.engine().impossible(), borrowed.impossible());
            assert_eq!(owned.run(&RunConfig::default()).matches, 0);
        }
    }

    #[test]
    fn prepared_engine_exposes_its_plan() {
        let pattern = Arc::new(generators::directed_cycle(3, 0));
        let target = Arc::new(generators::clique(5, 0));
        let bitmaps = AdjacencyBitmaps::build(&target, &sge_graph::BitmapConfig::default());
        let prepared = PreparedEngine::prepare_planned_full(
            Arc::clone(&pattern),
            Arc::clone(&target),
            Arc::new(bitmaps),
            Algorithm::RiDsSiFc,
        );
        assert_eq!(prepared.algorithm(), Algorithm::RiDsSiFc);
        assert!(prepared.bitmaps().is_some());
        assert_eq!(prepared.plan().num_positions(), 3);
        assert_eq!(prepared.estimate().est_total_states, 85.0);
        assert_eq!(prepared.estimate(), &prepared.engine().context().estimate());
        assert_eq!(prepared.run(&RunConfig::default()).matches, 60);
    }

    #[test]
    fn prepared_engine_is_shareable_across_threads() {
        let pattern = Arc::new(generators::directed_cycle(3, 0));
        let target = Arc::new(generators::clique(5, 0));
        let prepared = Arc::new(PreparedEngine::prepare(
            pattern,
            target,
            Algorithm::RiDsSiFc,
        ));
        assert!(!prepared.impossible());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let prepared = Arc::clone(&prepared);
                std::thread::spawn(move || {
                    let scheduler = if i % 2 == 0 {
                        Scheduler::Sequential
                    } else {
                        Scheduler::work_stealing(2)
                    };
                    prepared.run(&RunConfig::new(scheduler)).matches
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), 60);
        }
    }
}
