//! The sequential enumeration driver.
//!
//! [`search_prepared`] runs the depth-first search over a prepared
//! [`SearchContext`] and reports the quantities the paper's evaluation is
//! built on: match count, *search space size* (number of states visited,
//! i.e. consistency checks performed), matching time, and whether a limit
//! stopped the search.

use crate::search::{SearchContext, WorkerState};
use sge_util::CancelToken;
use std::sync::Arc;
use std::time::{Duration, Instant};

// The algorithm selector moved to the planning crate with the rest of the
// preprocessing machinery; re-exported here so `sge_ri::Algorithm` and
// `sge_ri::matcher::Algorithm` keep working.
pub use sge_plan::Algorithm;

/// Search-phase knobs of one prepared run — everything *except* the
/// preprocessing choices, which are fixed once a [`SearchContext`] exists.
#[derive(Clone, Debug, Default)]
pub struct SearchLimits {
    /// Stop after this many matches (`None` = enumerate all).
    pub max_matches: Option<u64>,
    /// Wall-clock budget for the matching phase.
    pub time_limit: Option<Duration>,
    /// Cooperative cancellation flag, polled alongside the match budget;
    /// when it fires the search stops early and reports
    /// [`SearchRun::cancelled`] (counts become lower bounds, exactly like a
    /// timed-out run).  The streaming bridge uses this to stop enumeration
    /// once its consumer is gone.
    pub cancel: Option<Arc<CancelToken>>,
    /// Caller's promise that the visitor is a no-op (nothing observes
    /// individual matches or mappings).  Lets runs without a match budget,
    /// deadline or cancel token count the last position's states and
    /// matches with [`SearchContext::count_leaves`] instead of enumerating
    /// them.  Counters stay byte-identical either way.
    pub count_only: bool,
}

impl SearchLimits {
    /// Whether the last position is counted by
    /// [`SearchContext::count_leaves`] instead of enumerated: the run is
    /// count-only and has no match budget, deadline or cancel token.
    pub fn counts_leaves(&self) -> bool {
        self.count_only
            && self.max_matches.is_none()
            && self.time_limit.is_none()
            && self.cancel.is_none()
    }
}

/// Raw outcome of one prepared sequential search (no preprocessing figures —
/// preprocessing happened when the [`SearchContext`] was built).
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchRun {
    /// Number of embeddings found.
    pub matches: u64,
    /// States visited (consistency checks performed).
    pub states: u64,
    /// Matching wall-clock seconds.
    pub match_seconds: f64,
    /// Whether the time limit interrupted the search.
    pub timed_out: bool,
    /// Whether the match limit stopped the search early.
    pub limit_hit: bool,
    /// Whether a [`CancelToken`] stopped the search early.
    pub cancelled: bool,
}

struct SearchDriver<'a, F> {
    ctx: &'a SearchContext<'a>,
    state: WorkerState,
    states: u64,
    matches: u64,
    deadline: Option<Instant>,
    timed_out: bool,
    max_matches: Option<u64>,
    cancel: Option<&'a CancelToken>,
    cancelled: bool,
    /// Whether the last position is counted by the leaf-count rule.
    count_leaves: bool,
    visitor: F,
}

impl<'a, F: FnMut(&SearchContext<'a>, &WorkerState)> SearchDriver<'a, F> {
    fn stop(&mut self) -> bool {
        if self.timed_out || self.cancelled {
            return true;
        }
        if let Some(cancel) = self.cancel {
            // The load is relaxed and only taken when a token exists, so
            // uncancellable runs pay nothing on the hot path.
            if cancel.is_cancelled() {
                self.cancelled = true;
                return true;
            }
        }
        if let Some(limit) = self.max_matches {
            if self.matches >= limit {
                return true;
            }
        }
        false
    }

    fn check_deadline(&mut self) {
        if let Some(deadline) = self.deadline {
            // Only consult the clock every 4096 states; Instant::now is cheap
            // but not free, and the paper measures in whole milliseconds.
            if self.states.is_multiple_of(4096) && Instant::now() >= deadline {
                self.timed_out = true;
            }
        }
    }

    fn search(&mut self, depth: usize) {
        let np = self.ctx.num_positions();
        // The one leaf-count rule every scheduler shares: the last position
        // is counted, not enumerated, when nothing observes or interrupts it.
        if self.count_leaves && depth + 1 == np {
            if let Some(count) = self.ctx.count_leaves(&mut self.state) {
                self.states += count.states;
                self.matches += count.matches;
                return;
            }
        }
        // The list stays in the memo while deeper positions are requested.
        let candidates = self.ctx.candidates(depth, &mut self.state).len();
        for i in 0..candidates {
            if self.stop() {
                break;
            }
            let vt = self.state.last_candidates(depth)[i];
            self.states += 1;
            self.check_deadline();
            if !self.ctx.is_consistent(depth, vt, &self.state) {
                continue;
            }
            self.state.assign(depth, vt);
            if depth + 1 == np {
                self.matches += 1;
                (self.visitor)(self.ctx, &self.state);
            } else {
                self.search(depth + 1);
            }
            self.state.unassign(depth);
        }
    }
}

/// Runs the depth-first search over an already-prepared [`SearchContext`],
/// invoking `visitor` for every match with the context and the complete
/// worker state (use [`SearchContext::mapping_by_pattern_node`] to extract
/// the mapping).
///
/// This is the prepared-artifact entry point the unified `sge::Engine`
/// builds on: preprocessing (domains, forward checking, GCF ordering)
/// happened once when the context was built and is amortized across
/// repeated calls.  An empty pattern has exactly one (empty)
/// embedding; a context whose preprocessing proved infeasibility returns
/// immediately with zero matches.
pub fn search_prepared<F>(
    ctx: &SearchContext<'_>,
    limits: &SearchLimits,
    mut visitor: F,
) -> SearchRun
where
    F: FnMut(&SearchContext<'_>, &WorkerState),
{
    let mut run = SearchRun::default();
    if ctx.num_positions() == 0 {
        // The empty pattern has exactly one embedding: the empty mapping.
        // It is subject to the match limit and observed by the visitor like
        // any other match, so every scheduler agrees on this edge case.
        if limits.max_matches == Some(0) {
            run.limit_hit = true;
            return run;
        }
        run.matches = 1;
        run.limit_hit = limits.max_matches == Some(1);
        visitor(ctx, &ctx.new_state());
        return run;
    }
    if ctx.impossible() {
        // No match, reported as every searching path reports one: a zero
        // budget is hit (`matches >= max`), whichever algorithm proved it.
        run.limit_hit = limits.max_matches.is_some_and(|limit| run.matches >= limit);
        return run;
    }

    let match_start = Instant::now();
    let deadline = limits.time_limit.map(|limit| match_start + limit);
    // Uniform deadline semantics across schedulers: a budget that is already
    // exhausted when the search would start reports `timed_out` with zero
    // work, instead of depending on whether the periodic in-search check
    // (every 4096 states) ever fires.
    if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
        run.timed_out = true;
        run.match_seconds = match_start.elapsed().as_secs_f64();
        return run;
    }
    let mut driver = SearchDriver {
        ctx,
        state: ctx.new_state(),
        states: 0,
        matches: 0,
        deadline,
        timed_out: false,
        max_matches: limits.max_matches,
        cancel: limits.cancel.as_deref(),
        cancelled: false,
        count_leaves: limits.counts_leaves(),
        visitor: |ctx: &SearchContext<'_>, state: &WorkerState| visitor(ctx, state),
    };
    driver.search(0);
    ctx.flush_kernels(&driver.state);

    run.matches = driver.matches;
    run.states = driver.states;
    run.timed_out = driver.timed_out;
    run.cancelled = driver.cancelled;
    run.limit_hit = limits
        .max_matches
        .is_some_and(|limit| driver.matches >= limit);
    run.match_seconds = match_start.elapsed().as_secs_f64();
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, Graph, GraphBuilder};

    fn run(
        pattern: &Graph,
        target: &Graph,
        algorithm: Algorithm,
        limits: &SearchLimits,
    ) -> SearchRun {
        let ctx = SearchContext::prepare(pattern, target, algorithm);
        search_prepared(&ctx, limits, |_, _| {})
    }

    fn count(pattern: &Graph, target: &Graph, algorithm: Algorithm) -> u64 {
        run(pattern, target, algorithm, &SearchLimits::default()).matches
    }

    #[test]
    fn directed_edge_in_clique() {
        // K4 with symmetric directed edges: every ordered pair is an embedding
        // of a single directed edge.
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(4, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 12, "{algo}");
        }
    }

    #[test]
    fn triangle_in_clique() {
        // Directed 3-cycles in K4: choose 3 of 4 vertices (4 ways), each
        // triangle hosts 3! = 6 cyclic node assignments (both rotations of both
        // orientations exist since edges are symmetric).
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 24, "{algo}");
        }
    }

    #[test]
    fn path_in_path() {
        let pattern = generators::directed_path(3, 0);
        let target = generators::directed_path(6, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 4, "{algo}");
        }
    }

    #[test]
    fn labels_restrict_matches() {
        let pattern = generators::labeled_triangle(1, 2, 3);
        // Target contains two labeled triangles, one with matching labels, one
        // rotated (labels 2,3,1 — which is the same cyclic labeling, so it also
        // matches with a rotated mapping) and one with a wrong label set.
        let mut tb = GraphBuilder::new();
        let a = tb.add_node(1);
        let b = tb.add_node(2);
        let c = tb.add_node(3);
        tb.add_edge(a, b, 0);
        tb.add_edge(b, c, 0);
        tb.add_edge(c, a, 0);
        let d = tb.add_node(1);
        let e = tb.add_node(2);
        let f = tb.add_node(2);
        tb.add_edge(d, e, 0);
        tb.add_edge(e, f, 0);
        tb.add_edge(f, d, 0);
        let target = tb.build();
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 1, "{algo}");
        }
    }

    #[test]
    fn edge_labels_must_match() {
        let mut pb = GraphBuilder::new();
        let p0 = pb.add_node(0);
        let p1 = pb.add_node(0);
        pb.add_edge(p0, p1, 7);
        let pattern = pb.build();

        let mut tb = GraphBuilder::new();
        let t0 = tb.add_node(0);
        let t1 = tb.add_node(0);
        let t2 = tb.add_node(0);
        tb.add_edge(t0, t1, 7);
        tb.add_edge(t1, t2, 8);
        let target = tb.build();
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 1, "{algo}");
        }
    }

    #[test]
    fn no_match_when_pattern_too_large() {
        let pattern = generators::clique(5, 0);
        let target = generators::clique(4, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 0, "{algo}");
        }
    }

    #[test]
    fn empty_pattern_has_one_embedding() {
        let pattern = GraphBuilder::new().build();
        let target = generators::clique(3, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 1, "{algo}");
        }
    }

    #[test]
    fn zero_match_instance_with_wrong_labels() {
        let mut pb = GraphBuilder::new();
        pb.add_node(99);
        let pattern = pb.build();
        let target = generators::clique(6, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 0, "{algo}");
        }
    }

    #[test]
    fn disconnected_pattern_counts_ordered_pairs() {
        // Two isolated pattern nodes in a 4-node edgeless target: 4*3 = 12
        // injective assignments.
        let mut pb = GraphBuilder::new();
        pb.add_nodes(2, 0);
        let pattern = pb.build();
        let mut tb = GraphBuilder::new();
        tb.add_nodes(4, 0);
        let target = tb.build();
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 12, "{algo}");
        }
    }

    #[test]
    fn max_matches_truncates_enumeration() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(6, 0);
        let limits = SearchLimits {
            max_matches: Some(5),
            ..SearchLimits::default()
        };
        let result = run(&pattern, &target, Algorithm::Ri, &limits);
        assert_eq!(result.matches, 5);
        assert!(result.limit_hit);
    }

    #[test]
    fn collected_mappings_are_valid_embeddings() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0);
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let mut mappings = Vec::new();
        search_prepared(&ctx, &SearchLimits::default(), |ctx, state| {
            mappings.push(ctx.mapping_by_pattern_node(state));
        });
        assert_eq!(mappings.len(), 24);
        for mapping in &mappings {
            assert_eq!(mapping.len(), pattern.num_nodes());
            // Injective.
            let mut sorted = mapping.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), mapping.len());
            // Edge-preserving.
            for (u, v, l) in pattern.edges() {
                assert_eq!(
                    target.edge_label(mapping[u as usize], mapping[v as usize]),
                    Some(l)
                );
            }
        }
    }

    #[test]
    fn search_space_is_reported_and_nonzero() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        let result = run(&pattern, &target, Algorithm::Ri, &SearchLimits::default());
        assert!(result.states > 0);
        assert!(result.match_seconds >= 0.0);
        assert!(!result.timed_out);
    }

    #[test]
    fn domain_variants_never_visit_more_states_than_ri_ds() {
        // The SI/FC improvements only prune; on a fixed instance their search
        // space must not exceed RI-DS's.
        let pattern = generators::undirected_cycle(4, 0);
        let target = generators::grid(4, 4);
        let limits = SearchLimits::default();
        let ds = run(&pattern, &target, Algorithm::RiDs, &limits);
        let si = run(&pattern, &target, Algorithm::RiDsSi, &limits);
        let fc = run(&pattern, &target, Algorithm::RiDsSiFc, &limits);
        assert_eq!(ds.matches, si.matches);
        assert_eq!(ds.matches, fc.matches);
        assert!(
            fc.states <= ds.states.max(si.states) * 2,
            "FC should not blow up the search space"
        );
    }

    #[test]
    fn timeout_flag_set_for_tiny_deadline() {
        // A 6-cycle in a 6x6 grid is enough work that a zero time limit fires.
        let pattern = generators::undirected_cycle(6, 0);
        let target = generators::grid(6, 6);
        let limits = SearchLimits {
            time_limit: Some(Duration::from_nanos(1)),
            ..SearchLimits::default()
        };
        let result = run(&pattern, &target, Algorithm::Ri, &limits);
        assert!(result.timed_out || result.match_seconds < 0.05);
    }

    #[test]
    fn cancel_token_stops_the_search_early() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(12, 0); // 132 embeddings
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
        let cancel = Arc::new(CancelToken::new());
        let limits = SearchLimits {
            cancel: Some(Arc::clone(&cancel)),
            ..SearchLimits::default()
        };
        let mut seen = 0u64;
        let run = search_prepared(&ctx, &limits, |_, _| {
            seen += 1;
            if seen == 3 {
                cancel.cancel();
            }
        });
        assert!(run.cancelled);
        assert_eq!(run.matches, 3, "the search stops at the next state");
        assert!(!run.timed_out);
        assert!(!run.limit_hit);
        // A token that never fires changes nothing.
        let untouched = SearchLimits {
            cancel: Some(Arc::new(CancelToken::new())),
            ..SearchLimits::default()
        };
        let full = search_prepared(&ctx, &untouched, |_, _| {});
        assert!(!full.cancelled);
        assert_eq!(full.matches, 132);
    }

    #[test]
    fn single_node_pattern_counts_label_occurrences() {
        let mut pb = GraphBuilder::new();
        pb.add_node(3);
        let pattern = pb.build();
        let mut tb = GraphBuilder::new();
        tb.add_node(3);
        tb.add_node(3);
        tb.add_node(4);
        let target = tb.build();
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 2, "{algo}");
        }
    }
}
