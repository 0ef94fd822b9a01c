//! How one run of a prepared [`Engine`] executes: the hand-off of every
//! scheduler to `sge_stealing::run`, the match observers every run shares,
//! and the assembly of the one [`EnumerationOutcome`] shape.
//!
//! Every run reports an `sge_stealing::RunResult`, so per-worker counters
//! travel one hop from the worker loop into the outcome.

use crate::problem::SubgraphProblem;
use crate::{Engine, EnumerationOutcome, RunConfig, Scheduler};
use sge_graph::NodeId;
use sge_ri::{CollectingVisitor, MatchVisitor, SearchContext, WorkerState};
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
    /// collector starts out full, any other fills up as the run goes).
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
    /// `visitor` and stopping early once `cancel` fires.  Every scheduler
    /// runs the one depth-first loop of `sge_stealing::run`.
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
        let run = if ctx.num_positions() > 0 && ctx.impossible() {
            // Preprocessing proved there is no match: nothing runs, under
            // any scheduler, and no deadline matters.
            let mut run = RunResult::from_workers(vec![WorkerStats::default()], 0.0, false);
            run.limit_hit = config.max_matches == Some(0);
            run
        } else {
            let (num_workers, task_group_size, steal_enabled) = match config.scheduler {
                // One worker on the calling thread, with no peer to steal from.
                Scheduler::Sequential => (1, 4, false),
                Scheduler::WorkStealing {
                    workers,
                    task_group_size,
                    stealing,
                } => (workers.max(1), task_group_size.max(1), stealing),
            };
            let engine = EngineConfig {
                num_workers,
                task_group_size,
                steal_enabled,
                time_limit: config.time_limit,
                max_solutions: config.max_matches,
                cancel: cancel.cloned(),
                seed: config.seed,
            };
            sge_stealing::run(&SubgraphProblem::new(ctx, &observers), &engine)
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
