//! Planning: preprocessing in, [`QueryPlan`] out.
//!
//! A plan fixes the tree the search visits: the order, every step's
//! constraints and prefilter, and the domains.  It names no intersection
//! kernel; a step ANDs bitmap rows exactly where the target's sidecar holds
//! them, which the sidecar's row rule decides per neighborhood
//! (`sge_graph::bitmap`).

use crate::algorithm::Algorithm;
use crate::domains::Domains;
use crate::ordering::{greatest_constraint_first, MatchOrder};
use sge_graph::Graph;
use std::sync::Arc;

/// The self-contained outcome of planning one enumeration instance.
///
/// A plan is everything an executor needs — the match order with its
/// back-edge [`crate::CandidatePlan`], the domains, whether preprocessing
/// already proved infeasibility, and whether the executor must re-check
/// degrees during the search.  Domains sit behind an [`Arc`] so a plan can
/// be cloned into long-lived prepared engines without copying bitmasks.
///
/// ```
/// use sge_graph::generators;
/// use sge_plan::{Algorithm, QueryPlan};
///
/// let pattern = generators::directed_cycle(3, 0);
/// let target = generators::clique(5, 0);
/// let plan = QueryPlan::new(&pattern, &target, Algorithm::RiDsSiFc);
/// assert_eq!(plan.num_positions(), 3);
/// assert!(!plan.impossible);
/// assert_eq!(plan.order.plan.steps.len(), 3);
/// ```
#[derive(Clone)]
pub struct QueryPlan {
    /// The algorithm variant this plan was built for.
    pub algorithm: Algorithm,
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
    /// Plans `pattern` against `target`: domain computation and forward
    /// checking (as the algorithm requires), then the GreatestConstraintFirst
    /// order ([`greatest_constraint_first`]) with its back-edge plan.
    pub fn new(pattern: &Graph, target: &Graph, algorithm: Algorithm) -> QueryPlan {
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
        let order = greatest_constraint_first(
            pattern,
            domains.as_deref(),
            algorithm.uses_domain_size_tie_break(),
        );
        QueryPlan {
            algorithm,
            order,
            domains,
            impossible,
            check_degrees: !algorithm.uses_domains(),
        }
    }

    /// Number of positions (= pattern nodes).
    pub fn num_positions(&self) -> usize {
        self.order.len()
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
            let plan = QueryPlan::new(&pattern, &target, algorithm);
            assert_eq!(plan.algorithm, algorithm);
            assert_eq!(plan.num_positions(), 4);
            assert_eq!(plan.order.plan.steps.len(), 4);
            assert_eq!(plan.domains.is_some(), algorithm.uses_domains());
            assert_eq!(plan.check_degrees, !algorithm.uses_domains());
            assert!(!plan.impossible);
        }
    }

    #[test]
    fn impossible_detected_through_domains() {
        let mut pb = GraphBuilder::new();
        pb.add_node(42);
        let pattern = pb.build();
        let target = generators::clique(3, 0);
        let plan = QueryPlan::new(&pattern, &target, Algorithm::RiDs);
        assert!(plan.impossible);
        // Plain RI has no domains, so planning alone cannot prove it.
        let plan = QueryPlan::new(&pattern, &target, Algorithm::Ri);
        assert!(!plan.impossible);
    }
}
