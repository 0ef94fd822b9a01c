//! How one run of a prepared [`Engine`] executes: the scheduler dispatch,
//! the match observers every scheduler shares, and the assembly of the one
//! [`EnumerationOutcome`] shape.
//!
//! Every scheduler reports an `sge_stealing::RunResult`, so per-worker
//! counters travel one hop from the scheduler into the outcome.

use crate::problem::SubgraphProblem;
use crate::{rayon_pool, Engine, EnumerationOutcome, RunConfig, Scheduler};
use sge_graph::NodeId;
use sge_ri::{
    search_prepared, CollectingVisitor, MatchVisitor, SearchContext, SearchLimits, WorkerState,
};
use sge_stealing::{EngineConfig, RunResult, WorkerStats};
use sge_util::CancelToken;
use std::sync::Arc;

/// Where a run's matches go: the caller's visitor and the mapping collector.
pub(crate) struct Observers<'a> {
    visitor: Option<&'a dyn MatchVisitor>,
    collector: CollectingVisitor,
}

impl<'a> Observers<'a> {
    /// Observers for a run streaming to `visitor` and collecting up to
    /// `collect` mappings.
    pub(crate) fn new(visitor: Option<&'a dyn MatchVisitor>, collect: usize) -> Self {
        Observers {
            visitor,
            collector: CollectingVisitor::new(collect),
        }
    }

    /// `true` when nothing observes individual matches (a zero-limit
    /// collector starts out full).
    pub(crate) fn count_only(&self) -> bool {
        self.visitor.is_none() && self.collector.is_full()
    }

    /// Hands one match, found by `worker_id`, to the observers.  The mapping
    /// is built only for observers that still want it: once the collector is
    /// full, a visitor-less run stops allocating per match.
    pub(crate) fn on_match(&self, ctx: &SearchContext<'_>, worker_id: usize, state: &WorkerState) {
        let collecting = !self.collector.is_full();
        if self.visitor.is_none() && !collecting {
            return;
        }
        let mapping = ctx.mapping_by_pattern_node(state);
        if let Some(visitor) = self.visitor {
            visitor.on_match(worker_id, &mapping);
        }
        if collecting {
            self.collector.on_match(worker_id, &mapping);
        }
    }

    /// The collected mappings, sorted: workers race for the collector, so
    /// the raw order is schedule-dependent, and sorting makes a complete
    /// collection byte-identical under every scheduler.
    pub(crate) fn into_sorted_mappings(self) -> Vec<Vec<NodeId>> {
        let mut mappings = self.collector.take();
        mappings.sort_unstable();
        mappings
    }
}

impl Engine<'_> {
    /// Executes one run under `config.scheduler`, streaming matches to
    /// `visitor` and stopping early once `cancel` fires.
    pub(crate) fn execute(
        &self,
        config: &RunConfig,
        visitor: Option<&dyn MatchVisitor>,
        cancel: Option<&Arc<CancelToken>>,
    ) -> EnumerationOutcome {
        let ctx = &self.ctx;
        // Kernel counters accumulate in cells shared across this context's
        // runs; bracketing with snapshots attributes exactly this run's work.
        let kernels_before = ctx.kernel_totals();
        let observers = Observers::new(visitor, config.collect_mappings);
        let limits = SearchLimits {
            max_matches: config.max_matches,
            time_limit: config.time_limit,
            cancel: cancel.cloned(),
            // The promise behind the last-depth counting fast path.
            count_only: observers.count_only(),
        };
        // The empty pattern (one empty match, subject to the budget) and an
        // instance preprocessing proved impossible need no parallel
        // machinery: the sequential driver settles both under every
        // scheduler.
        let degenerate = ctx.num_positions() == 0 || ctx.impossible();
        let run = match config.scheduler {
            Scheduler::WorkStealing {
                workers,
                task_group_size,
                stealing,
            } if !degenerate => {
                let engine = EngineConfig {
                    num_workers: workers.max(1),
                    task_group_size: task_group_size.max(1),
                    steal_enabled: stealing,
                    time_limit: config.time_limit,
                    max_solutions: config.max_matches,
                    cancel: cancel.cloned(),
                    seed: config.seed,
                };
                sge_stealing::run(&SubgraphProblem::new(ctx, &observers), &engine)
            }
            Scheduler::Rayon { workers } if !degenerate => {
                rayon_pool::run(ctx, workers.max(1), &limits, &observers)
            }
            _ => run_sequential(ctx, &limits, &observers),
        };
        // Scheduler-level counters are only known after the workers joined;
        // fold them into the attached trace sink (per-position candidate and
        // state counts were recorded live through the shared context).
        if let Some(sink) = ctx.trace_sink() {
            sink.add_steals(run.steals);
            sink.add_steal_requests(run.steal_requests);
            sink.add_tasks(run.workers.iter().map(|w| w.tasks_executed).sum());
            sink.add_task_groups(run.task_groups);
            sink.add_steal_wait_seconds(run.steal_wait_seconds);
            sink.add_idle_seconds(run.idle_seconds);
        }
        EnumerationOutcome {
            algorithm: ctx.algorithm(),
            strategy: ctx.strategy(),
            scheduler: config.scheduler,
            workers: config.scheduler.workers(),
            matches: run.solutions,
            states: run.states,
            preprocess_seconds: self.preprocess_seconds,
            match_seconds: run.elapsed_seconds,
            timed_out: run.timed_out,
            limit_hit: run.limit_hit,
            cancelled: run.cancelled,
            steals: run.steals,
            steal_requests: run.steal_requests,
            worker_states_stddev: run.worker_states_stddev(),
            worker_stats: run.workers,
            mappings: observers.into_sorted_mappings(),
            kernels: ctx.kernel_totals().since(&kernels_before),
        }
    }
}

/// The sequential depth-first driver, reported as a one-worker run.
fn run_sequential(
    ctx: &SearchContext<'_>,
    limits: &SearchLimits,
    observers: &Observers<'_>,
) -> RunResult {
    let run = if limits.count_only {
        // Nothing observes individual matches: skip the per-match observer
        // call entirely, leaving just the counter.
        search_prepared(ctx, limits, |_, _| {})
    } else {
        search_prepared(ctx, limits, |ctx, state| observers.on_match(ctx, 0, state))
    };
    let worker = WorkerStats {
        worker_id: 0,
        states: run.states,
        solutions: run.matches,
        busy_seconds: run.match_seconds,
        ..WorkerStats::default()
    };
    let mut result = RunResult::from_workers(vec![worker], run.match_seconds, run.timed_out);
    result.limit_hit = run.limit_hit;
    result.cancelled = run.cancelled;
    result
}
