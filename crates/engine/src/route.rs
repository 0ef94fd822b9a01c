//! Routing a query to a [`Scheduler`] from the price of the work its run
//! does.
//!
//! Work stealing only pays once a run does enough work to amortize task
//! distribution: on small trees a parallel run is a fraction of sequential
//! speed.  A [`PreparedEngine`](crate::PreparedEngine) carries a probe
//! estimate of its tree's states, which prices a run that walks the tree,
//! and [`count_only_price`] of that estimate, which prices a run that
//! counts the independent suffix.  [`RoutingConfig::route`] turns a price
//! alone into a scheduler, so the same query on the same target routes the
//! same way whatever ran before it.

use crate::Scheduler;
use sge_ri::PlanCost;

/// The thresholds routing compares an estimate against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoutingConfig {
    /// Estimated states below which a query stays sequential.
    pub sequential_threshold: f64,
    /// Target number of estimated states per worker when fanning out; the
    /// worker count is the estimate divided by this, clamped to
    /// `[2, max_workers]`.
    pub states_per_worker: f64,
    /// Upper bound on routed workers (defaults to the host parallelism).
    pub max_workers: usize,
}

impl RoutingConfig {
    /// Host-derived defaults: threshold 50k states, 25k states per worker,
    /// `max_workers` = available parallelism.
    pub fn detect() -> Self {
        let max_workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        RoutingConfig {
            sequential_threshold: 50_000.0,
            states_per_worker: 25_000.0,
            max_workers,
        }
    }

    /// A fully pinned config for deterministic tests and the simulator.
    pub fn pinned(sequential_threshold: f64, states_per_worker: f64, max_workers: usize) -> Self {
        RoutingConfig {
            sequential_threshold,
            states_per_worker,
            max_workers,
        }
    }

    /// Routes a run priced at `price` estimated states of work.
    ///
    /// Below `sequential_threshold` the run stays sequential (small runs
    /// never amortize task hand-off); above it, work stealing gets enough
    /// workers for each to see about `states_per_worker` states.  A host
    /// without parallelism (`max_workers <= 1`) always routes sequential.
    pub fn route(&self, price: f64) -> RoutingDecision {
        let scheduler = if self.max_workers <= 1 || price < self.sequential_threshold {
            Scheduler::Sequential
        } else {
            let sized = (price / self.states_per_worker.max(1.0)).ceil() as usize;
            Scheduler::work_stealing(sized.clamp(2, self.max_workers))
        };
        RoutingDecision {
            scheduler,
            price,
            threshold: self.sequential_threshold,
        }
    }
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig::detect()
    }
}

/// The routing verdict for one query, with what `EXPLAIN` reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoutingDecision {
    /// The scheduler a routed query runs under.
    pub scheduler: Scheduler,
    /// The price the decision was made from: estimated states of work.
    pub price: f64,
    /// The sequential threshold the price was compared against.
    pub threshold: f64,
}

/// [`crate::PreparedEngine::count_only_price`] of `estimate`:
/// `est_states[c] / est_candidates[c]` estimates the counts, the prefixes
/// that reach `c` = `counted_from`.  The ratio of the scanned lengths is
/// taken first, so one counted position prices exactly `est_total_states`.
pub(crate) fn count_only_price(estimate: &PlanCost, counted_from: usize) -> f64 {
    let (walked, counted) = estimate
        .positions
        .split_at(counted_from.min(estimate.positions.len()));
    let walked: f64 = walked.iter().map(|p| p.est_states).sum();
    match counted.first() {
        Some(first) if first.est_candidates > 0.0 => {
            let scanned: f64 = counted.iter().map(|p| p.est_candidates).sum();
            walked + first.est_states * (scanned / first.est_candidates)
        }
        _ => walked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_ri::PositionCost;

    #[test]
    fn small_estimates_route_sequential() {
        let config = RoutingConfig::pinned(1000.0, 500.0, 8);
        let decision = config.route(999.0);
        assert_eq!(decision.scheduler, Scheduler::Sequential);
        assert_eq!(decision.price, 999.0);
        assert_eq!(decision.threshold, 1000.0);
    }

    #[test]
    fn large_estimates_route_work_stealing_with_sized_workers() {
        let config = RoutingConfig::pinned(1000.0, 500.0, 8);
        let decision = config.route(2000.0);
        assert_eq!(decision.scheduler, Scheduler::work_stealing(4));
    }

    #[test]
    fn worker_count_clamps_to_max() {
        let config = RoutingConfig::pinned(1000.0, 500.0, 3);
        let decision = config.route(1e9);
        assert_eq!(decision.scheduler, Scheduler::work_stealing(3));
    }

    /// An estimate of `(est_candidates, est_states)` per position.
    fn estimate(positions: &[(f64, f64)]) -> PlanCost {
        let positions: Vec<PositionCost> = positions
            .iter()
            .map(|&(est_candidates, est_states)| PositionCost {
                pattern_node: 0,
                est_candidates,
                est_states,
            })
            .collect();
        PlanCost {
            est_total_states: positions.iter().map(|p| p.est_states).sum(),
            positions,
        }
    }

    #[test]
    fn a_count_is_priced_by_the_walked_states_and_one_scan_per_count() {
        // A centre and three leaves in K10: 10 roots, 90 prefixes reach
        // the first leaf, and each count scans three lists of 9.
        let star = estimate(&[(10.0, 10.0), (9.0, 90.0), (9.0, 720.0), (9.0, 5040.0)]);
        assert_eq!(count_only_price(&star, 1), 10.0 + 10.0 * 27.0);
        // Without a suffix, or with one counted level, the price is the
        // whole tree.
        assert_eq!(count_only_price(&star, 4), star.est_total_states);
        let odd = estimate(&[(5.0, 5.0), (7.0, 35.0), (3.0, 105.0), (11.0, 0.1)]);
        assert_eq!(count_only_price(&odd, 3), odd.est_total_states);
        // A suffix no prefix reaches costs nothing past the walk.
        let dead = estimate(&[(4.0, 4.0), (0.0, 0.0), (0.0, 0.0)]);
        assert_eq!(count_only_price(&dead, 1), 4.0);
    }

    #[test]
    fn single_core_always_routes_sequential() {
        let config = RoutingConfig::pinned(1000.0, 500.0, 1);
        let decision = config.route(1e12);
        assert_eq!(decision.scheduler, Scheduler::Sequential);
    }
}
