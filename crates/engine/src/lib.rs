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
//! 5. [`RoutingConfig::route`] turns that estimate into the [`Scheduler`] a
//!    routed query runs under.
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
//! may pick any [`Scheduler`] per query from the prepared engine's tree-size
//! estimate (small trees stay on the sequential count-only fast path, large
//! ones fan out with sized workers) without changing any result a client
//! can observe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod matcher;
mod problem;
mod route;
mod runner;

pub use route::{RoutingConfig, RoutingDecision};

use sge_graph::{AdjacencyBitmaps, Graph, GraphStats, NodeId};
use sge_obs::TraceSink;
use sge_ri::{
    Algorithm, ChannelVisitor, KernelChoice, KernelUsage, MatchVisitor, PlanCost, PreparedParts,
    QueryPlan, SearchContext, Strategy,
};
use sge_stealing::WorkerStats;
use sge_util::{CancelToken, PhaseTimer};
use std::sync::Arc;
use std::time::Duration;

/// Which execution strategy drives the search.
///
/// Every scheduler runs the same depth-first loop (`sge_stealing::run`);
/// they differ in how many workers run it and whether they steal.  A
/// one-worker run — `Sequential`, `ws:1` or a one-worker static partition
/// — executes on the calling thread and spawns no thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// One worker, no stealing: the sequential depth-first search.
    Sequential,
    /// The paper's private-deque work-stealing runtime.
    WorkStealing {
        /// Number of workers; several run on threads of their own.
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
    /// Ordering strategy of the executed plan.
    pub strategy: Strategy,
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
    /// [`Engine::run_streaming`] consumer vanished (e.g. a streaming client
    /// disconnected) or returned `false`.  Counts are then lower bounds,
    /// exactly as for a timed-out run.
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
}

impl<'g> Engine<'g> {
    /// Runs the preprocessing phase of `algorithm` (domain computation,
    /// forward checking, node ordering) once and returns a reusable engine.
    pub fn prepare(pattern: &'g Graph, target: &'g Graph, algorithm: Algorithm) -> Self {
        Self::prepare_planned(pattern, target, algorithm, Strategy::default())
    }

    /// [`Engine::prepare`] with the match order planned by `strategy`.
    pub fn prepare_planned(
        pattern: &'g Graph,
        target: &'g Graph,
        algorithm: Algorithm,
        strategy: Strategy,
    ) -> Self {
        let mut timer = PhaseTimer::new();
        let ctx = timer.time("preprocess", || {
            SearchContext::prepare_planned(pattern, target, algorithm, strategy)
        });
        Engine {
            ctx,
            preprocess_seconds: timer.seconds("preprocess"),
        }
    }

    /// An engine over a context the caller planned and prepared itself
    /// (e.g. a plan with hand-picked kernels); it reports no preprocessing
    /// time.
    pub fn from_context(ctx: SearchContext<'g>) -> Self {
        Engine {
            ctx,
            preprocess_seconds: 0.0,
        }
    }

    /// The algorithm this engine was prepared for.
    pub fn algorithm(&self) -> Algorithm {
        self.ctx.algorithm()
    }

    /// The ordering strategy of the prepared plan.
    pub fn strategy(&self) -> Strategy {
        self.ctx.strategy()
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

    /// Attaches a [`TraceSink`] that observes candidate generation and
    /// consistency checks at every match-order position, for every scheduler
    /// this engine subsequently runs under.  Per-position totals are
    /// schedule-invariant on complete runs (the scheduler-equivalence
    /// contract extends to the observed counts); the sink additionally
    /// accumulates steal/task counters under the parallel schedulers.
    ///
    /// Without a sink the hot path pays a single predictable branch — the
    /// zero-overhead-when-disabled contract the benchmarks rely on.
    pub fn set_trace_sink(&mut self, sink: Arc<TraceSink>) {
        self.ctx.set_trace_sink(sink);
    }

    /// Builder-style [`Engine::set_trace_sink`].
    pub fn with_trace_sink(mut self, sink: Arc<TraceSink>) -> Self {
        self.set_trace_sink(sink);
        self
    }

    /// The attached trace sink, if any.
    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.ctx.trace_sink()
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
    /// `ws:1` or a one-worker static partition); from worker threads when
    /// several workers run.
    pub fn run_with(&self, config: &RunConfig, visitor: &dyn MatchVisitor) -> EnumerationOutcome {
        self.execute(config, Some(visitor), None)
    }

    /// Executes one run while handing every discovered mapping to `consumer`
    /// **on the calling thread**, with enumeration running concurrently on a
    /// second thread and a bounded channel of `channel_capacity` mappings in
    /// between — memory stays O(`channel_capacity`) regardless of the result
    /// cardinality, and enumeration overlaps with whatever the consumer does
    /// (e.g. socket writes).
    ///
    /// The consumer returns `true` to keep going; returning `false` (the
    /// client is gone, enough rows were delivered, …) cooperatively cancels
    /// the run: the channel is torn down, the in-flight schedulers observe
    /// the cancellation at their next budget check and stop early, and the
    /// returned outcome reports [`EnumerationOutcome::cancelled`].
    ///
    /// Mappings arrive in **discovery order** (schedule-dependent under the
    /// parallel schedulers), not sorted like
    /// [`EnumerationOutcome::mappings`].
    pub fn run_streaming<F>(
        &self,
        config: &RunConfig,
        channel_capacity: usize,
        mut consumer: F,
    ) -> EnumerationOutcome
    where
        F: FnMut(Vec<NodeId>) -> bool,
    {
        let cancel = Arc::new(CancelToken::new());
        let (sender, receiver) = std::sync::mpsc::sync_channel(channel_capacity.max(1));
        std::thread::scope(|scope| {
            let producer = {
                let cancel = Arc::clone(&cancel);
                scope.spawn(move || {
                    let bridge = ChannelVisitor::new(sender, Arc::clone(&cancel));
                    // The bridge owns the sender; dropping it when this
                    // closure returns disconnects the receiver below.
                    self.execute(config, Some(&bridge), Some(&cancel))
                })
            };
            while let Ok(mapping) = receiver.recv() {
                if !consumer(mapping) {
                    cancel.cancel();
                    break;
                }
            }
            // Unblock any sender stuck on a full channel: once the receiver
            // is gone every `send` fails fast and the bridge keeps the token
            // fired, so the producer winds down promptly.
            drop(receiver);
            producer
                .join()
                .expect("streaming enumeration thread panicked")
        })
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

    /// [`PreparedEngine::prepare`] planned by `strategy` with precomputed
    /// target statistics and the target's bitmap sidecar — the entry point
    /// the serving cache prepares through, so a long-lived registry target
    /// pays its frequency-table pass and sidecar build once at registration
    /// instead of on every cache miss.  A row-less (memory-capped) sidecar
    /// makes the plan's bitmap-kernel hints fall back to galloping at run
    /// time.
    pub fn prepare_planned_full(
        pattern: Arc<Graph>,
        target: Arc<Graph>,
        target_stats: &GraphStats,
        bitmaps: Arc<AdjacencyBitmaps>,
        algorithm: Algorithm,
        strategy: Strategy,
    ) -> Self {
        Self::timed(pattern, target, |pattern, target| {
            SearchContext::prepare_planned_full(
                pattern,
                target,
                target_stats,
                bitmaps,
                algorithm,
                strategy,
            )
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
            pattern,
            target,
            parts,
            estimate,
            preprocess_seconds: timer.seconds("preprocess"),
        }
    }

    /// Materializes a borrowing [`Engine`] view (cheap: the domains are
    /// shared, only the ordering vectors are copied).  The view reports this
    /// instance's preprocessing cost in its outcomes.
    pub fn engine(&self) -> Engine<'_> {
        Engine {
            ctx: self.parts.context(&self.pattern, &self.target),
            preprocess_seconds: self.preprocess_seconds,
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

    /// Executes one run, handing every mapping to `consumer` on the calling
    /// thread through a bounded channel while enumeration proceeds on a
    /// second thread — see [`Engine::run_streaming`].  The consumer returns
    /// `false` to cooperatively cancel the run.
    pub fn run_streaming<F>(
        &self,
        config: &RunConfig,
        channel_capacity: usize,
        consumer: F,
    ) -> EnumerationOutcome
    where
        F: FnMut(Vec<NodeId>) -> bool,
    {
        self.engine()
            .run_streaming(config, channel_capacity, consumer)
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

    /// The ordering strategy of the prepared plan.
    pub fn strategy(&self) -> Strategy {
        self.parts.strategy()
    }

    /// The prepared query plan (match order, domains) — what the
    /// service's `EXPLAIN` verb reports.
    pub fn plan(&self) -> &QueryPlan {
        self.parts.plan()
    }

    /// The probe estimate of this instance's search tree, taken once at
    /// preparation ([`SearchContext::estimate`]): what routing and both
    /// `EXPLAIN` verbs read.
    pub fn estimate(&self) -> &PlanCost {
        &self.estimate
    }

    /// The bitmap sidecar captured at preparation time, if any.
    pub fn bitmaps(&self) -> Option<&Arc<AdjacencyBitmaps>> {
        self.parts.bitmaps()
    }

    /// The kernel that will generate candidates at each position, resolved
    /// for EXPLAIN: `"scan"` for positions without back-edge constraints
    /// (domain / full-target scans), otherwise the planner's
    /// [`KernelChoice`] — downgraded to `"gallop"` when no sidecar is
    /// attached or the sidecar is row-less (memory-capped), since the bitmap
    /// path cannot run then.  (`"bitmap"` positions still fall back to
    /// `"gallop"` at run time when one specific row is missing.)
    pub fn resolved_kernels(&self) -> Vec<&'static str> {
        let rows_present = self.parts.bitmaps().is_some_and(|b| b.row_count() > 0);
        self.parts
            .plan()
            .order
            .plan
            .steps
            .iter()
            .map(|step| {
                if step.constraints.is_empty() {
                    "scan"
                } else if step.kernel == KernelChoice::Bitmap && rows_present {
                    step.kernel.as_str()
                } else {
                    KernelChoice::Gallop.as_str()
                }
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
        // clique(16) has degree_mean 30 >= 16 and >= nodes/4, so the planner
        // routes every constrained position to the bitmap kernel; the outcome
        // must report bitmap row ANDs, and the lists handed to the search
        // must be schedule-invariant (one per expansion, like states).
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
        // leaf-count rule turns every match into a counted state, so a
        // count-only run executes fewer tasks than it finds matches, while
        // an observed run executes one task per match on top.
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
        let outcome = prepared.run_streaming(&RunConfig::default(), 8, |mapping| {
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
    fn strategies_agree_on_results_and_are_reported() {
        let pattern = generators::undirected_cycle(4, 0);
        let target = generators::grid(4, 4);
        for algorithm in Algorithm::ALL {
            let reference = Engine::prepare(&pattern, &target, algorithm)
                .run(&RunConfig::default().with_collected_mappings(10_000));
            assert_eq!(reference.strategy, Strategy::RiGreedy);
            for strategy in Strategy::ALL {
                let engine = Engine::prepare_planned(&pattern, &target, algorithm, strategy);
                assert_eq!(engine.strategy(), strategy);
                assert_eq!(engine.plan().strategy, strategy);
                assert_eq!(engine.plan().num_positions(), 4);
                let outcome = engine.run(&RunConfig::default().with_collected_mappings(10_000));
                assert_eq!(outcome.strategy, strategy, "{algorithm} {strategy}");
                assert_eq!(outcome.matches, reference.matches, "{algorithm} {strategy}");
                assert_eq!(
                    outcome.mappings, reference.mappings,
                    "{algorithm} {strategy}"
                );
                // Parallel outcomes report the strategy too.
                let par = engine.run(&RunConfig::new(Scheduler::work_stealing(2)));
                assert_eq!(par.strategy, strategy);
                assert_eq!(par.matches, reference.matches);
            }
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
            &GraphStats::of(&target),
            Arc::new(bitmaps),
            Algorithm::RiDsSiFc,
            Strategy::LeastFrequentLabelFirst,
        );
        assert_eq!(prepared.strategy(), Strategy::LeastFrequentLabelFirst);
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
