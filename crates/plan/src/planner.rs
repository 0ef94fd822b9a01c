//! The [`Planner`]: preprocessing in, [`QueryPlan`] out.

use crate::algorithm::Algorithm;
use crate::domains::Domains;
use crate::ordering::{finish_order, KernelChoice, MatchOrder};
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
    /// internally.  Callers that plan many patterns against one target
    /// should compute [`GraphStats`] once and use [`Planner::plan_with_stats`].
    pub fn plan(&self, pattern: &Graph, target: &Graph, algorithm: Algorithm) -> QueryPlan {
        self.plan_with_stats(pattern, target, &GraphStats::of(target), algorithm)
    }

    /// Plans with precomputed target statistics: domain computation and
    /// forward checking (as the algorithm requires), strategy ordering,
    /// back-edge plan construction and kernel selection.
    pub fn plan_with_stats(
        &self,
        pattern: &Graph,
        target: &Graph,
        target_stats: &GraphStats,
        algorithm: Algorithm,
    ) -> QueryPlan {
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
        let mut order = finish_order(pattern, positions);
        select_kernels(&mut order, target_stats);
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

/// Mean total degree at or above which a target counts as kernel-dense.
const BITMAP_DEGREE_MEAN_MIN: f64 = 16.0;

/// Routes each constrained position to the bitmap kernel when the target's
/// degree distribution says dense neighborhoods dominate.
///
/// The rule is deliberately coarse: mean total degree at least
/// [`BITMAP_DEGREE_MEAN_MIN`] *and* at least an eighth of the node count.
/// At that bar one bitmap row (`ceil(nodes / 64)` words) is at most a
/// quarter the length of the mean per-direction adjacency list
/// (`degree_mean / 2` entries), so a word-wise AND beats galloping over the
/// CSR lists.  Sparse targets (grids, cycles, the PPI collections) keep the
/// default gallop kernel.  Positions without back-edge constraints scan
/// domains or the whole node set and never intersect, so their kernel hint
/// stays `Gallop`.
fn select_kernels(order: &mut MatchOrder, stats: &GraphStats) {
    let dense = stats.nodes > 0
        && stats.degree_mean >= BITMAP_DEGREE_MEAN_MIN
        && stats.degree_mean >= stats.nodes as f64 / 8.0;
    if !dense {
        return;
    }
    for step in &mut order.plan.steps {
        if !step.constraints.is_empty() {
            step.kernel = KernelChoice::Bitmap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_datasets::{generate_modular, generate_target, ppis32_like, ModularSpec};
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
    fn dense_targets_route_constrained_positions_to_bitmap() {
        let pattern = generators::directed_cycle(4, 0);
        let targets = [
            // Mean degree 62 ≥ 16 and ≥ 32/8.
            generators::clique(32, 0),
            // The modular bench targets: 512 nodes at mean degree ~126 and
            // 192 nodes at mean degree ~46, both above an eighth of the nodes.
            generate_modular(&ModularSpec::cliques(64), 0x0DA7_A5E7, "modular"),
            generate_modular(&ModularSpec::cliques(24), 0x0DA7_A5E7, "modular-smoke"),
        ];
        for target in &targets {
            let plan = Planner::default().plan(&pattern, target, Algorithm::RiDs);
            for (i, step) in plan.order.plan.steps.iter().enumerate() {
                let expect = if step.constraints.is_empty() {
                    KernelChoice::Gallop
                } else {
                    KernelChoice::Bitmap
                };
                assert_eq!(step.kernel, expect, "{} position {i}", target.name());
            }
            assert!(plan
                .order
                .plan
                .steps
                .iter()
                .any(|s| s.kernel == KernelChoice::Bitmap));
        }
    }

    #[test]
    fn sparse_targets_keep_the_gallop_kernel() {
        let pattern = generators::directed_cycle(4, 0);
        // The PPIS32-like base target of the repository benchmark: 5.6k
        // nodes at mean degree ~20, far below an eighth of the nodes.
        let ppi_seed = 20170525;
        let ppi = generate_target(
            &ppis32_like(8.0, ppi_seed).targets[2],
            ppi_seed.wrapping_add(2 * 7919),
            "ppis32-t2",
        );
        for target in [generators::grid(8, 8), generators::clique(5, 0), ppi] {
            let plan = Planner::default().plan(&pattern, &target, Algorithm::RiDs);
            assert!(
                plan.order
                    .plan
                    .steps
                    .iter()
                    .all(|s| s.kernel == KernelChoice::Gallop),
                "{}",
                target.name()
            );
        }
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
