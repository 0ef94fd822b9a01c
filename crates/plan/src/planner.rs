//! The [`Planner`]: preprocessing in, [`QueryPlan`] out.
//!
//! A plan fixes the tree the search visits: the order, every step's
//! constraints and prefilter, and the domains.  It names no intersection
//! kernel; a step ANDs bitmap rows exactly where the target's sidecar holds
//! them, which the sidecar's row rule decides per neighborhood
//! (`sge_graph::bitmap`).

use crate::algorithm::Algorithm;
use crate::domains::Domains;
use crate::ordering::{finish_order, MatchOrder};
use crate::strategy::{PlanningInput, Strategy};
use sge_graph::{Graph, GraphStats};
use std::sync::Arc;

/// The self-contained outcome of planning one enumeration instance.
///
/// A plan is everything an executor needs — the match order with its
/// back-edge [`crate::CandidatePlan`], the domains, whether preprocessing
/// already proved infeasibility, and whether the executor must re-check
/// degrees during the search.  Domains sit behind an [`Arc`] so a plan can
/// be cloned into long-lived prepared engines without copying bitmasks.
#[derive(Clone)]
pub struct QueryPlan {
    /// The algorithm variant this plan was built for.
    pub algorithm: Algorithm,
    /// The ordering strategy that produced the match order.
    pub strategy: Strategy,
    /// The match order and its back-edge constraint sets.
    pub order: MatchOrder,
    /// RI-DS domains (label + degree filter + arc consistency), when the
    /// algorithm computes them.
    pub domains: Option<Arc<Domains>>,
    /// `true` when preprocessing already proved that no match exists (an
    /// empty domain, or a forward-checking contradiction).
    pub impossible: bool,
    /// Plain RI checks degrees during the search; the RI-DS domains already
    /// encode the degree filter.
    pub check_degrees: bool,
}

impl QueryPlan {
    /// Number of positions (= pattern nodes).
    pub fn num_positions(&self) -> usize {
        self.order.len()
    }
}

/// Builds [`QueryPlan`]s for a fixed [`Strategy`].
///
/// ```
/// use sge_graph::generators;
/// use sge_plan::{Algorithm, Planner, Strategy};
///
/// let pattern = generators::directed_cycle(3, 0);
/// let target = generators::clique(5, 0);
/// let plan = Planner::new(Strategy::RiGreedy).plan(&pattern, &target, Algorithm::RiDsSiFc);
/// assert_eq!(plan.num_positions(), 3);
/// assert!(!plan.impossible);
/// assert_eq!(plan.order.plan.steps.len(), 3);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Planner {
    strategy: Strategy,
}

impl Planner {
    /// A planner using `strategy` for its match orders.
    pub fn new(strategy: Strategy) -> Self {
        Planner { strategy }
    }

    /// The strategy this planner orders with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Plans `pattern` against `target`, computing the target statistics
    /// only when the plan reads them ([`Strategy::reads_target_stats`]).
    /// Callers that plan many patterns against one target should keep its
    /// [`GraphStats`] and use [`Planner::plan_with_stats`].
    pub fn plan(&self, pattern: &Graph, target: &Graph, algorithm: Algorithm) -> QueryPlan {
        self.plan_with_stats(pattern, target, None, algorithm)
    }

    /// Plans with precomputed target statistics: domain computation and
    /// forward checking (as the algorithm requires), strategy ordering and
    /// back-edge plan construction.  `target_stats` is read only when
    /// [`Strategy::reads_target_stats`]; `None` computes them here then.
    pub fn plan_with_stats(
        &self,
        pattern: &Graph,
        target: &Graph,
        target_stats: Option<&GraphStats>,
        algorithm: Algorithm,
    ) -> QueryPlan {
        let computed;
        let target_stats = match target_stats {
            None if self.strategy.reads_target_stats(algorithm) => {
                computed = GraphStats::of(target);
                Some(&computed)
            }
            given => given,
        };
        let mut impossible = false;
        let domains = if algorithm.uses_domains() {
            let mut domains = Domains::compute(pattern, target);
            if domains.any_empty()
                || (algorithm.uses_forward_checking() && !domains.forward_check())
            {
                impossible = true;
            }
            Some(Arc::new(domains))
        } else {
            None
        };
        let input = PlanningInput {
            target_stats,
            domains: domains.as_deref(),
            domain_size_tie_break: algorithm.uses_domain_size_tie_break(),
        };
        let positions = self.strategy.implementation().positions(pattern, &input);
        let order = finish_order(pattern, positions);
        QueryPlan {
            algorithm,
            strategy: self.strategy,
            order,
            domains,
            impossible,
            check_degrees: !algorithm.uses_domains(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, GraphBuilder};

    #[test]
    fn plans_carry_consistent_metadata() {
        let pattern = generators::undirected_cycle(4, 0);
        let target = generators::grid(4, 4);
        for algorithm in Algorithm::ALL {
            for strategy in Strategy::ALL {
                let plan = Planner::new(strategy).plan(&pattern, &target, algorithm);
                assert_eq!(plan.algorithm, algorithm);
                assert_eq!(plan.strategy, strategy);
                assert_eq!(plan.num_positions(), 4);
                assert_eq!(plan.order.plan.steps.len(), 4);
                assert_eq!(plan.domains.is_some(), algorithm.uses_domains());
                assert_eq!(plan.check_degrees, !algorithm.uses_domains());
                assert!(!plan.impossible);
            }
        }
    }

    #[test]
    fn impossible_detected_through_domains() {
        let mut pb = GraphBuilder::new();
        pb.add_node(42);
        let pattern = pb.build();
        let target = generators::clique(3, 0);
        let plan = Planner::default().plan(&pattern, &target, Algorithm::RiDs);
        assert!(plan.impossible);
        // Plain RI has no domains, so planning alone cannot prove it.
        let plan = Planner::default().plan(&pattern, &target, Algorithm::Ri);
        assert!(!plan.impossible);
    }

    #[test]
    fn strategies_reorder_but_cover_the_same_nodes() {
        let pattern = generators::grid(3, 3);
        let target = generators::grid(5, 5);
        let mut orders = Vec::new();
        for strategy in Strategy::ALL {
            let plan = Planner::new(strategy).plan(&pattern, &target, Algorithm::RiDsSiFc);
            let mut sorted = plan.order.positions.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..9).collect::<Vec<_>>(), "{strategy}");
            orders.push(plan.order.positions.clone());
        }
        assert_eq!(orders.len(), 3);
    }
}
