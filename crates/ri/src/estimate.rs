//! The tree-size estimate of a prepared search: Knuth's random-path probe
//! (D. E. Knuth, "Estimating the efficiency of backtrack programs", Math.
//! Comp. 29, 1975).  Along one random root-to-leaf path, the product `W` of
//! the branching factors met so far times `|candidates(d)|` is an unbiased
//! estimate of the consistency checks the complete search makes at depth
//! `d`; [`SearchContext::estimate`] averages seeded paths under a fixed
//! budget of checks.  A tree that fits in the budget is walked whole
//! instead: its estimate is exact and costs no more than the tree.
//!
//! The probe drives the context's own candidate generation and consistency
//! checks, so it estimates exactly the tree a run explores, counted as a
//! run counts its states.  It records nothing: no trace sink sees it and its
//! kernel counters never reach the context's shared cells.

use crate::search::{SearchContext, WorkerState};
use sge_graph::NodeId;
use sge_util::SplitMix64;

/// Consistency checks each phase of an estimate may spend, counted as a run
/// counts its states: the last level's candidates count without being
/// checked.
pub const PROBE_CHECKS: u64 = 4096;

/// Seed of the probe's draws: fixed, so the estimate of a prepared search
/// never changes from one preparation to the next.
const PROBE_SEED: u64 = 0x4B4E_5554_4831_3937;

/// The estimate for one position of a match order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PositionCost {
    /// The pattern node matched at this position.
    pub pattern_node: NodeId,
    /// Estimated candidates per visit of this position.
    pub est_candidates: f64,
    /// Estimated consistency checks (states) at this depth over the whole
    /// search.
    pub est_states: f64,
}

/// The per-position estimates plus their total.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanCost {
    /// One entry per position, in match order.
    pub positions: Vec<PositionCost>,
    /// Sum of `est_states` over all positions: the expected `states` of a
    /// complete run.
    pub est_total_states: f64,
}

/// What the walked paths add up, per depth.
struct Tally {
    /// `W · |candidates(d)|` summed over the paths.
    states: Vec<f64>,
    /// `W` summed over the paths.
    visits: Vec<f64>,
    paths: u64,
}

impl Tally {
    fn new(positions: usize) -> Self {
        Tally {
            states: vec![0.0; positions],
            visits: vec![0.0; positions],
            paths: 0,
        }
    }

    fn add(&mut self, depth: usize, weight: f64, width: usize) {
        self.states[depth] += weight * width as f64;
        self.visits[depth] += weight;
    }
}

impl SearchContext<'_> {
    /// Estimates the search tree: exactly when it has at most
    /// [`PROBE_CHECKS`] states, otherwise from seeded random root-to-leaf
    /// paths walked until [`PROBE_CHECKS`] consistency checks are spent.
    ///
    /// Each path starts with weight `W = 1`.  At depth `d` it adds
    /// `W · |candidates(d)|` to the depth's states and `W` to its visits.
    /// It stops at the last depth or when no candidate is consistent;
    /// otherwise `W` is multiplied by the number of consistent candidates
    /// and one of them, drawn uniformly, is assigned.  Per depth,
    /// `est_states` is the states sum over the paths and `est_candidates`
    /// the states sum over the visits.  The whole-tree walk is the same sum
    /// with every branch taken at weight 1.
    ///
    /// An impossible plan estimates zero without probing.
    pub fn estimate(&self) -> PlanCost {
        let n = self.num_positions();
        let mut tally = Tally::new(n);
        if n > 0 && !self.impossible() {
            let mut state = self.new_state();
            if self.walk_tree(0, &mut state, &mut tally, &mut 0) {
                tally.paths = 1;
            } else {
                tally = Tally::new(n);
                self.walk_paths(&mut state, &mut tally);
            }
        }
        let positions: Vec<PositionCost> = (0..n)
            .map(|depth| PositionCost {
                pattern_node: self.order().positions[depth],
                est_candidates: match tally.visits[depth] {
                    v if v > 0.0 => tally.states[depth] / v,
                    _ => 0.0,
                },
                est_states: tally.states[depth] / tally.paths.max(1) as f64,
            })
            .collect();
        PlanCost {
            est_total_states: positions.iter().map(|p| p.est_states).sum(),
            positions,
        }
    }

    /// Adds the subtree below `state`'s prefix of `depth` positions to
    /// `tally`, every branch at weight 1.  `false` once `spent` passes
    /// [`PROBE_CHECKS`].
    fn walk_tree(
        &self,
        depth: usize,
        state: &mut WorkerState,
        tally: &mut Tally,
        spent: &mut u64,
    ) -> bool {
        let width = self.refresh_candidates(depth, state).len();
        tally.add(depth, 1.0, width);
        *spent += width as u64;
        if *spent > PROBE_CHECKS {
            return false;
        }
        if depth + 1 == self.num_positions() {
            return true;
        }
        for i in 0..width {
            // Requests for deeper positions leave this depth's list alone.
            let vt = state.last_candidates(depth)[i];
            if !self.consistent_candidate(depth, vt, state) {
                continue;
            }
            state.assign(depth, vt);
            let complete = self.walk_tree(depth + 1, state, tally, spent);
            state.unassign(depth);
            if !complete {
                return false;
            }
        }
        true
    }

    /// Knuth's random paths, until [`PROBE_CHECKS`] consistency checks below
    /// the root are spent.  The root level is the same on every path, so it
    /// is checked once, outside the budget; one [`WorkerState`] serves every
    /// path, so memoized lists carry over.
    fn walk_paths(&self, state: &mut WorkerState, tally: &mut Tally) {
        let last = self.num_positions() - 1;
        let mut rng = SplitMix64::new(PROBE_SEED);
        let roots = self.refresh_candidates(0, state).len();
        let consistent_roots: Vec<NodeId> = match last {
            0 => Vec::new(),
            _ => self.consistent_candidates(0, state).collect(),
        };
        let mut consistent = Vec::new();
        let mut spent = 0u64;
        while spent < PROBE_CHECKS {
            tally.paths += 1;
            tally.add(0, 1.0, roots);
            if consistent_roots.is_empty() {
                // Every path ends at the root level: one is exact.
                break;
            }
            let mut weight = consistent_roots.len() as f64;
            let mut checks = 0u64;
            state.rewind_to(0);
            state.assign(0, consistent_roots[rng.next_below(consistent_roots.len())]);
            for depth in 1..=last {
                let width = self.refresh_candidates(depth, state).len();
                tally.add(depth, weight, width);
                checks += width as u64;
                if depth == last {
                    break;
                }
                consistent.clear();
                consistent.extend(self.consistent_candidates(depth, state));
                if consistent.is_empty() {
                    break;
                }
                weight *= consistent.len() as f64;
                state.assign(depth, consistent[rng.next_below(consistent.len())]);
            }
            // A path that checks nothing still counts one, so the loop ends
            // on trees whose paths all stop early.
            spent += checks.max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, Graph, GraphBuilder};
    use sge_plan::Algorithm;
    use std::sync::Arc;

    fn states_of(estimate: &PlanCost) -> Vec<f64> {
        estimate.positions.iter().map(|p| p.est_states).collect()
    }

    /// The states a complete run counts at each depth, by a plain
    /// depth-first walk.
    fn tree(ctx: &SearchContext<'_>) -> Vec<f64> {
        fn walk(ctx: &SearchContext<'_>, depth: usize, state: &mut WorkerState, out: &mut [f64]) {
            let list = ctx.candidates(depth, state).to_vec();
            out[depth] += list.len() as f64;
            if depth + 1 == ctx.num_positions() {
                return;
            }
            for vt in list {
                if ctx.is_consistent(depth, vt, state) {
                    state.assign(depth, vt);
                    walk(ctx, depth + 1, state, out);
                    state.unassign(depth);
                }
            }
        }
        let mut out = vec![0.0; ctx.num_positions()];
        walk(ctx, 0, &mut ctx.new_state(), &mut out);
        out
    }

    #[test]
    fn trees_within_the_budget_are_counted_exactly() {
        let instances = [
            (generators::directed_cycle(3, 0), generators::clique(5, 0)),
            (generators::undirected_cycle(4, 0), generators::grid(6, 6)),
            (generators::directed_path(3, 0), generators::star(6, 0, 0)),
        ];
        for (pattern, target) in &instances {
            for algorithm in Algorithm::ALL {
                let ctx = SearchContext::prepare(pattern, target, algorithm);
                let exact = tree(&ctx);
                assert!(exact.iter().sum::<f64>() <= PROBE_CHECKS as f64);
                let estimate = ctx.estimate();
                assert_eq!(states_of(&estimate), exact, "{algorithm}");
                assert_eq!(estimate.est_total_states, exact.iter().sum::<f64>());
                let nodes: Vec<NodeId> =
                    estimate.positions.iter().map(|p| p.pattern_node).collect();
                assert_eq!(nodes, ctx.order().positions, "{algorithm}");
            }
        }
        // 5 roots, 4 then 3 candidates below each.
        let (pattern, target) = &instances[0];
        let estimate = SearchContext::prepare(pattern, target, Algorithm::RiDsSiFc).estimate();
        assert_eq!(states_of(&estimate), [5.0, 20.0, 60.0]);
        let candidates: Vec<f64> = estimate
            .positions
            .iter()
            .map(|p| p.est_candidates)
            .collect();
        assert_eq!(candidates, [5.0, 4.0, 3.0]);
    }

    #[test]
    fn every_path_through_a_clique_is_the_mean() {
        // A directed 4-cycle in K16 has more states than the budget, so the
        // random paths run; every one of them branches alike.
        let pattern = generators::directed_cycle(4, 0);
        let target = generators::clique(16, 0);
        for algorithm in Algorithm::ALL {
            let ctx = SearchContext::prepare(&pattern, &target, algorithm);
            let exact = tree(&ctx);
            assert!(exact.iter().sum::<f64>() > PROBE_CHECKS as f64);
            assert_eq!(states_of(&ctx.estimate()), exact, "{algorithm}");
        }
    }

    #[test]
    fn paths_estimate_an_irregular_tree() {
        // Border and inner grid nodes branch differently, so the paths
        // differ and the draws matter.
        let pattern = generators::undirected_cycle(6, 0);
        let target = generators::grid(24, 24);
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let exact: f64 = tree(&ctx).iter().sum();
        assert!(exact > PROBE_CHECKS as f64);
        let estimate = ctx.estimate().est_total_states;
        assert!(
            (0.8..1.25).contains(&(estimate / exact)),
            "{estimate} vs {exact}"
        );
    }

    #[test]
    fn trees_that_end_at_the_root_take_one_path() {
        // A lone node: the root level is the last level, larger than the
        // budget under plain RI.
        let mut pb = GraphBuilder::new();
        pb.add_node(0);
        let single = pb.build();
        let mut tb = GraphBuilder::new();
        tb.add_nodes(5000, 0);
        let wide: Graph = tb.build();
        let ctx = SearchContext::prepare(&single, &wide, Algorithm::Ri);
        assert_eq!(states_of(&ctx.estimate()), [5000.0]);
        // An edge into a target without edges: plain RI's degree check
        // rejects every root.
        let edge = generators::directed_path(2, 0);
        let ctx = SearchContext::prepare(&edge, &wide, Algorithm::Ri);
        let estimate = ctx.estimate();
        assert_eq!(states_of(&estimate), [5000.0, 0.0]);
        assert_eq!(estimate.positions[1].est_candidates, 0.0);
    }

    #[test]
    fn impossible_and_empty_plans_estimate_zero() {
        let pattern = generators::clique(4, 0);
        let target = generators::clique(3, 0);
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
        assert!(ctx.impossible());
        assert_eq!(states_of(&ctx.estimate()), [0.0; 4]);
        let empty = GraphBuilder::new().build();
        let ctx = SearchContext::prepare(&empty, &target, Algorithm::RiDs);
        assert_eq!(ctx.estimate(), PlanCost::default());
    }

    #[test]
    fn the_estimate_is_seeded_and_records_nothing() {
        let pattern = generators::undirected_cycle(6, 0);
        let target = generators::grid(24, 24);
        let mut ctx = SearchContext::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let sink = Arc::new(sge_obs::TraceSink::new(ctx.num_positions()));
        ctx.set_trace_sink(Arc::clone(&sink));
        let first = ctx.estimate();
        assert_eq!(ctx.estimate(), first);
        assert_eq!(sink.states_total(), 0);
        assert_eq!(sink.candidates_per_position(), vec![0; 6]);
        assert_eq!(ctx.kernel_totals(), crate::KernelUsage::default());
    }
}
