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
    fn count_only(&self) -> bool {
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
    RunResult {
        solutions: run.matches,
        states: run.states,
        steals: 0,
        steal_requests: 0,
        elapsed_seconds: run.match_seconds,
        timed_out: run.timed_out,
        limit_hit: run.limit_hit,
        cancelled: run.cancelled,
        workers: vec![WorkerStats {
            worker_id: 0,
            states: run.states,
            solutions: run.matches,
            busy_seconds: run.match_seconds,
            ..WorkerStats::default()
        }],
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, RunConfig, Scheduler};
    use sge_graph::{generators, Graph};
    use sge_ri::Algorithm;
    use std::time::Duration;

    fn sequential_matches(pattern: &Graph, target: &Graph, algorithm: Algorithm) -> (u64, u64) {
        let outcome = Engine::prepare(pattern, target, algorithm).run(&RunConfig::default());
        (outcome.matches, outcome.states)
    }

    fn ws(workers: usize) -> RunConfig {
        RunConfig::new(Scheduler::work_stealing(workers))
    }

    #[test]
    fn parallel_counts_equal_sequential_for_all_algorithms() {
        let pattern = generators::undirected_cycle(4, 0);
        let target = generators::grid(4, 4);
        for algorithm in Algorithm::ALL {
            let (matches, states) = sequential_matches(&pattern, &target, algorithm);
            let engine = Engine::prepare(&pattern, &target, algorithm);
            for workers in [1usize, 2, 4] {
                let result = engine.run(&ws(workers));
                assert_eq!(result.matches, matches, "{algorithm} workers={workers}");
                assert_eq!(result.states, states, "{algorithm} workers={workers}");
                assert!(!result.timed_out);
            }
        }
    }

    #[test]
    fn prepared_context_is_reusable_across_runs() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(6, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let (matches, states) = sequential_matches(&pattern, &target, Algorithm::RiDsSiFc);
        for workers in [1usize, 2, 3] {
            let result = engine.run(&ws(workers));
            assert_eq!(result.matches, matches, "workers={workers}");
            assert_eq!(result.states, states, "workers={workers}");
            assert_eq!(result.preprocess_seconds, engine.preprocess_seconds());
        }
    }

    #[test]
    fn task_group_size_does_not_change_counts() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(6, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let (matches, _) = sequential_matches(&pattern, &target, Algorithm::RiDsSiFc);
        for task_group_size in [1usize, 2, 4, 8, 16] {
            let result = engine.run(&RunConfig::new(Scheduler::WorkStealing {
                workers: 3,
                task_group_size,
                stealing: true,
            }));
            assert_eq!(result.matches, matches, "group_size={task_group_size}");
        }
    }

    #[test]
    fn no_stealing_finds_the_same_matches() {
        let pattern = generators::undirected_path(3, 0);
        let target = generators::grid(3, 4);
        let (matches, states) = sequential_matches(&pattern, &target, Algorithm::Ri);
        let engine = Engine::prepare(&pattern, &target, Algorithm::Ri);
        let result = engine.run(&RunConfig::new(Scheduler::WorkStealing {
            workers: 4,
            task_group_size: 4,
            stealing: false,
        }));
        assert_eq!(result.matches, matches);
        assert_eq!(result.states, states);
        assert_eq!(result.steals, 0);
    }

    #[test]
    fn impossible_instances_short_circuit() {
        let mut pb = sge_graph::GraphBuilder::new();
        pb.add_node(77);
        let pattern = pb.build();
        let target = generators::clique(5, 0);
        let result = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc).run(&ws(2));
        assert_eq!(result.matches, 0);
        assert_eq!(result.states, 0);
    }

    #[test]
    fn empty_pattern_has_one_match() {
        let pattern = sge_graph::GraphBuilder::new().build();
        let target = generators::clique(4, 0);
        let result = Engine::prepare(&pattern, &target, Algorithm::Ri).run(&ws(2));
        assert_eq!(result.matches, 1);
    }

    #[test]
    fn max_matches_stops_workers_cooperatively() {
        // A single directed edge in K12 has 132 embeddings; ask for 17.
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(12, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::Ri);
        for workers in [1usize, 2, 4] {
            let result = engine.run(&ws(workers).with_max_matches(17));
            assert_eq!(result.matches, 17, "workers={workers}");
            assert!(result.limit_hit);
        }
    }

    #[test]
    fn collected_mappings_are_embeddings_and_sorted() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDs);
        let result = engine.run(&ws(3).with_collected_mappings(7));
        assert_eq!(result.mappings.len(), 7);
        assert!(
            result.mappings.is_sorted(),
            "mappings must come back sorted"
        );
        for mapping in &result.mappings {
            for (u, v, l) in pattern.edges() {
                assert_eq!(
                    target.edge_label(mapping[u as usize], mapping[v as usize]),
                    Some(l)
                );
            }
        }
    }

    #[test]
    fn complete_collections_are_identical_across_worker_counts() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::Ri);
        // 60 matches; collect them all under several schedules.
        let reference = engine.run(&ws(1).with_collected_mappings(100)).mappings;
        assert_eq!(reference.len(), 60);
        for workers in [2usize, 4] {
            let result = engine.run(&ws(workers).with_collected_mappings(100));
            assert_eq!(result.mappings, reference, "workers={workers}");
        }
    }

    #[test]
    fn result_accessors_are_consistent() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        let result = Engine::prepare(&pattern, &target, Algorithm::Ri).run(&ws(2));
        assert!(result.total_seconds() >= result.match_seconds);
        assert!(result.states_per_second() >= 0.0);
        assert_eq!(
            result.worker_stats.iter().map(|w| w.states).sum::<u64>(),
            result.states
        );
    }

    #[test]
    fn time_limit_is_respected() {
        let pattern = generators::undirected_cycle(6, 0);
        let target = generators::grid(5, 5);
        let engine = Engine::prepare(&pattern, &target, Algorithm::Ri);
        let result = engine.run(&ws(2).with_time_limit(Duration::from_millis(1)));
        // Either it finished very quickly or it was cut off.
        let full = sequential_matches(&pattern, &target, Algorithm::Ri).0;
        if result.timed_out {
            assert!(result.matches <= full);
        } else {
            assert_eq!(result.matches, full);
        }
    }
}
