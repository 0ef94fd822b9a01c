//! How one run of a prepared [`Engine`] executes: the hand-off of every
//! scheduler to `sge_stealing::run`, the observers that belong to the run,
//! the visitor a streamed run hands its consumer through, and the assembly
//! of the one [`EnumerationOutcome`] shape.
//!
//! Every run reports an `sge_stealing::RunResult`, so per-worker counters
//! travel one hop from the worker loop into the outcome.  The prepared
//! [`sge_ri::SearchContext`] records nothing: the run's trace sink and its
//! kernel total live in its [`Observers`], so runs of one engine that
//! overlap in time never see each other's work.

use crate::problem::SubgraphProblem;
use crate::{Engine, EnumerationOutcome, RunConfig, Scheduler};
use sge_graph::NodeId;
use sge_obs::TraceSink;
use sge_ri::{CollectingVisitor, KernelUsage, MatchVisitor, SearchContext, WorkerState};
use sge_stealing::{EngineConfig, RunResult, WorkerStats};
use sge_util::CancelToken;
use std::sync::{Arc, Mutex, PoisonError};

/// The visitor of a streamed run: it hands each mapping to the consumer
/// under one lock, on the worker that found it, and cancels the run the
/// first time the consumer declines one.
struct Streamer<'a, F> {
    consumer: Mutex<F>,
    cancel: &'a CancelToken,
}

impl<F: FnMut(Vec<NodeId>) -> bool + Send> MatchVisitor for Streamer<'_, F> {
    fn on_match(&self, worker_id: usize, mapping: &[NodeId]) {
        // Copied before the lock, so the other workers wait only for the
        // consumer.
        self.on_match_owned(worker_id, mapping.to_vec());
    }

    fn on_match_owned(&self, _worker_id: usize, row: Vec<NodeId>) {
        // A consumer that panicked is not called again; its panic stops the
        // run and reaches the caller.
        let Ok(mut consumer) = self.consumer.lock() else {
            return;
        };
        // The token is read under the lock, so once the consumer declined a
        // row no worker hands it another.
        if !self.cancel.is_cancelled() && !consumer(row) {
            self.cancel.cancel();
        }
    }
}

/// What observes one run: the caller's visitor and the mapping collector
/// see its matches, the engine's trace sink its candidate lists and
/// consistency checks, and the kernel total the counters of every worker
/// state it retires.
pub(crate) struct Observers<'a> {
    visitor: Option<&'a dyn MatchVisitor>,
    collector: CollectingVisitor,
    /// The trace sink attached to the engine, if any.
    pub(crate) sink: Option<&'a TraceSink>,
    kernels: Mutex<KernelUsage>,
}

impl<'a> Observers<'a> {
    /// Observers for a run streaming to `visitor`, collecting up to
    /// `collect` mappings and recording into `sink`.
    pub(crate) fn new(
        visitor: Option<&'a dyn MatchVisitor>,
        collect: usize,
        sink: Option<&'a TraceSink>,
    ) -> Self {
        Observers {
            visitor,
            collector: CollectingVisitor::new(collect),
            sink,
            kernels: Mutex::default(),
        }
    }

    /// `true` when nothing observes individual matches, candidate lists or
    /// states (a zero-limit collector starts out full, any other fills up
    /// as the run goes), so the run may count instead of walk.
    pub(crate) fn count_only(&self) -> bool {
        self.sink.is_none() && self.visitor.is_none() && self.collector.is_full()
    }

    /// Adds one retired worker state's kernel counters to the run's total.
    pub(crate) fn retire(&self, usage: KernelUsage) {
        let mut total = self.kernels.lock().unwrap_or_else(PoisonError::into_inner);
        total.add(usage);
    }

    /// The kernel counters of every worker state retired so far.
    fn kernels(&self) -> KernelUsage {
        *self.kernels.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands one match, found by `worker_id`, to the observers.  The mapping
    /// is built only for observers that still want it: once the collector is
    /// full, a visitor-less run stops allocating per match.  It is built
    /// once and handed over by value; only when the visitor and the
    /// collector both want it does the visitor borrow it, and copy it if it
    /// keeps it.
    pub(crate) fn on_match(&self, ctx: &SearchContext<'_>, worker_id: usize, state: &WorkerState) {
        let collecting = !self.collector.is_full();
        if self.visitor.is_none() && !collecting {
            return;
        }
        let mapping = ctx.mapping_by_pattern_node(state);
        match self.visitor {
            Some(visitor) if !collecting => visitor.on_match_owned(worker_id, mapping),
            Some(visitor) => {
                visitor.on_match(worker_id, &mapping);
                self.collector.on_match_owned(worker_id, mapping);
            }
            None => self.collector.on_match_owned(worker_id, mapping),
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
    /// Executes one run that hands every mapping to `consumer` and stops
    /// once it declines one ([`Engine::run_streaming`]).
    pub(crate) fn stream<F>(&self, config: &RunConfig, consumer: F) -> EnumerationOutcome
    where
        F: FnMut(Vec<NodeId>) -> bool + Send,
    {
        let cancel = Arc::new(CancelToken::new());
        let streamer = Streamer {
            consumer: Mutex::new(consumer),
            cancel: &cancel,
        };
        self.execute(config, Some(&streamer), Some(&cancel))
    }

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
        let observers = Observers::new(visitor, config.collect_mappings, self.sink.as_deref());
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
        EnumerationOutcome {
            algorithm: ctx.algorithm(),
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
            kernels: observers.kernels(),
            mappings: observers.into_sorted_mappings(),
        }
    }
}
