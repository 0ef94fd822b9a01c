//! Library-scheduler comparator: first-level dynamic parallelism.
//!
//! The paper's scheduler is a bespoke private-deque work-stealing runtime.  A
//! natural question for a Rust reproduction is how much of its benefit one
//! gets "for free" from a generic library scheduler à la rayon.  This module
//! parallelizes only the *first level* of the state-space tree: the root
//! tasks (`µ1 ↦ v_t`) form a shared queue that worker threads drain with an
//! atomic cursor — exactly the load-balancing granularity `rayon::par_iter`
//! achieves on this workload — and each claimed subtree is searched
//! sequentially.  Unlike the paper's engine, a single large subtree can never
//! be split once it is running, which is the situation the paper's Fig. 3/4
//! analysis shows matters on irregular instances.
//!
//! (The build environment is offline, so the real `rayon` crate is not a
//! dependency; the scheduler below reproduces its observable behaviour on
//! this first-level workload with `std::thread` and an atomic cursor.)

use crate::runner::Observers;
use sge_ri::{SearchContext, SearchLimits, WorkerState};
use sge_stealing::{RunResult, WorkerStats};
use sge_util::{CancelToken, MatchBudget};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How often (in visited states) a worker consults the wall clock.
const DEADLINE_CHECK_INTERVAL: u64 = 4096;

/// Shared early-stop state: match budget, deadline, cancellation and the
/// stop flag.
struct Stop {
    flag: AtomicBool,
    timed_out: AtomicBool,
    budget: MatchBudget,
    deadline: Option<Instant>,
    cancel: Option<Arc<CancelToken>>,
    cancelled: AtomicBool,
}

impl Stop {
    fn new(limits: &SearchLimits, start: Instant) -> Self {
        Stop {
            flag: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            budget: MatchBudget::new(limits.max_matches),
            deadline: limits.time_limit.map(|limit| start + limit),
            cancel: limits.cancel.clone(),
            cancelled: AtomicBool::new(false),
        }
    }

    #[inline]
    fn stopped(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// `true` once the external cancellation token has fired; latches the
    /// result flag and the stop flag on first observation.
    fn cancel_requested(&self) -> bool {
        match &self.cancel {
            Some(token) if token.is_cancelled() => {
                self.cancelled.store(true, Ordering::SeqCst);
                self.flag.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }

    /// Claims one slot of the match budget; `true` means "count this match".
    /// Cancellation trips this path like an exhausted budget: matches found
    /// after the token fired are discarded.
    fn claim(&self) -> bool {
        if self.cancel_requested() {
            return false;
        }
        let counted = self.budget.claim();
        if self.budget.is_exhausted() {
            self.flag.store(true, Ordering::SeqCst);
        }
        counted
    }

    fn check_interrupts(&self) {
        self.cancel_requested();
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.timed_out.store(true, Ordering::SeqCst);
                self.flag.store(true, Ordering::SeqCst);
            }
        }
    }
}

struct Explorer<'a, 'g> {
    ctx: &'a SearchContext<'g>,
    stop: &'a Stop,
    observers: &'a Observers<'a>,
    worker_id: usize,
    /// Whether the last position is counted by the leaf-count rule.
    count_leaves: bool,
    matches: u64,
    states: u64,
}

impl Explorer<'_, '_> {
    /// Recursively explores the subtree rooted at `depth`.
    fn explore(&mut self, state: &mut WorkerState, depth: usize) {
        let np = self.ctx.num_positions();
        if self.count_leaves && depth + 1 == np {
            if let Some(count) = self.ctx.count_leaves(state) {
                self.states += count.states;
                self.matches += count.matches;
                return;
            }
        }
        let candidates = self.ctx.candidates(depth, state).len();
        for i in 0..candidates {
            if self.stop.stopped() {
                break;
            }
            let vt = state.last_candidates(depth)[i];
            self.states += 1;
            if self.states.is_multiple_of(DEADLINE_CHECK_INTERVAL) {
                self.stop.check_interrupts();
            }
            if !self.ctx.is_consistent(depth, vt, state) {
                continue;
            }
            state.assign(depth, vt);
            if depth + 1 == np {
                self.record_match(state);
            } else {
                self.explore(state, depth + 1);
            }
            state.unassign(depth);
        }
    }

    fn record_match(&mut self, state: &WorkerState) {
        if !self.stop.claim() {
            return;
        }
        self.matches += 1;
        self.observers.on_match(self.ctx, self.worker_id, state);
    }
}

/// Runs the first-level dynamic pool with `workers` threads over a prepared
/// context that has at least one position and was not proved impossible
/// (the engine settles those degenerate instances sequentially).  Honors
/// every limit of `limits`, and counts the last position by the leaf-count
/// rule under the same conditions as the other schedulers
/// ([`SearchLimits::counts_leaves`]); steal counters in the result are
/// always 0.
pub(crate) fn run(
    ctx: &SearchContext<'_>,
    workers: usize,
    limits: &SearchLimits,
    observers: &Observers<'_>,
) -> RunResult {
    let start = Instant::now();
    let np = ctx.num_positions();
    let mut root_state = ctx.new_state();
    let roots = ctx.candidates(0, &mut root_state).to_vec();
    ctx.flush_kernels(&root_state);

    let stop = Stop::new(limits, start);
    // An already-expired deadline (or pre-fired cancellation token) stops the
    // run before any worker claims a root, mirroring the sequential matcher
    // and the stealing engine.
    stop.check_interrupts();
    let cursor = AtomicUsize::new(0);

    let worker_stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker_id| {
                let roots = &roots;
                let stop = &stop;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut explorer = Explorer {
                        ctx,
                        stop,
                        observers,
                        worker_id,
                        count_leaves: limits.counts_leaves(),
                        matches: 0,
                        states: 0,
                    };
                    let mut state = ctx.new_state();
                    loop {
                        if stop.stopped() {
                            break;
                        }
                        let index = cursor.fetch_add(1, Ordering::SeqCst);
                        let Some(&root) = roots.get(index) else {
                            break;
                        };
                        // The root consistency check counts as a state, as in
                        // the sequential driver and the stealing engine.
                        explorer.states += 1;
                        if !ctx.is_consistent(0, root, &state) {
                            continue;
                        }
                        state.assign(0, root);
                        if np == 1 {
                            explorer.record_match(&state);
                        } else {
                            explorer.explore(&mut state, 1);
                        }
                        state.unassign(0);
                    }
                    ctx.flush_kernels(&state);
                    WorkerStats {
                        worker_id,
                        states: explorer.states,
                        solutions: explorer.matches,
                        ..WorkerStats::default()
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("rayon-pool worker panicked"))
            .collect()
    });

    let mut run = RunResult::from_workers(
        worker_stats,
        start.elapsed().as_secs_f64(),
        stop.timed_out.load(Ordering::SeqCst),
    );
    run.limit_hit = stop.budget.is_exhausted();
    run.cancelled = stop.cancelled.load(Ordering::SeqCst);
    run
}

#[cfg(test)]
mod tests {
    use crate::{Engine, RunConfig, Scheduler};
    use sge_graph::generators;
    use sge_ri::Algorithm;
    use std::time::Duration;

    fn rayon(workers: usize) -> RunConfig {
        RunConfig::new(Scheduler::Rayon { workers })
    }

    #[test]
    fn rayon_counts_match_sequential() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(6, 0);
        for algorithm in [Algorithm::Ri, Algorithm::RiDsSiFc] {
            let engine = Engine::prepare(&pattern, &target, algorithm);
            let sequential = engine.run(&RunConfig::default());
            let result = engine.run(&rayon(2));
            assert_eq!(result.matches, sequential.matches, "{algorithm}");
            assert_eq!(result.states, sequential.states, "{algorithm}");
            assert_eq!(result.steals, 0, "{algorithm}");
        }
    }

    #[test]
    fn rayon_handles_empty_and_impossible_patterns() {
        let empty = sge_graph::GraphBuilder::new().build();
        let target = generators::clique(4, 0);
        let engine = Engine::prepare(&empty, &target, Algorithm::Ri);
        assert_eq!(engine.run(&rayon(2)).matches, 1);

        let mut pb = sge_graph::GraphBuilder::new();
        pb.add_node(99);
        let impossible = pb.build();
        let engine = Engine::prepare(&impossible, &target, Algorithm::RiDs);
        assert_eq!(engine.run(&rayon(2)).matches, 0);
    }

    #[test]
    fn rayon_respects_max_matches() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(10, 0); // 90 embeddings
        let engine = Engine::prepare(&pattern, &target, Algorithm::Ri);
        for workers in [1usize, 3] {
            let result = engine.run(&rayon(workers).with_max_matches(11));
            assert_eq!(result.matches, 11, "workers={workers}");
            assert!(result.limit_hit);
        }
    }

    #[test]
    fn rayon_collects_sorted_mappings() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0); // 24 embeddings
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDs);
        let result = engine.run(&rayon(3).with_collected_mappings(100));
        assert_eq!(result.mappings.len(), 24);
        assert!(result.mappings.is_sorted());
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
    fn rayon_time_limit_is_reported() {
        let pattern = generators::undirected_cycle(6, 0);
        let target = generators::grid(5, 5);
        let engine = Engine::prepare(&pattern, &target, Algorithm::Ri);
        let limited = engine.run(&rayon(2).with_time_limit(Duration::from_millis(1)));
        let full = engine.run(&rayon(2));
        if limited.timed_out {
            assert!(limited.matches <= full.matches);
        } else {
            assert_eq!(limited.matches, full.matches);
        }
    }
}
