//! Routing a query to a [`Scheduler`] from the estimated size of its tree.
//!
//! Work stealing only pays once the search tree is large enough to amortize
//! task distribution: on small trees a parallel run is a fraction of
//! sequential speed.  A [`PreparedEngine`](crate::PreparedEngine) carries a
//! probe estimate of its tree's states, and [`RoutingConfig::route`] turns
//! that number alone into a scheduler, so the same query on the same target
//! routes the same way whatever ran before it.

use crate::Scheduler;

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

    /// Routes a search of `est_total_states` estimated states.
    ///
    /// Below `sequential_threshold` the run stays sequential (small trees
    /// never amortize task hand-off); above it, work stealing gets enough
    /// workers for each to see about `states_per_worker` states.  A host
    /// without parallelism (`max_workers <= 1`) always routes sequential.
    pub fn route(&self, est_total_states: f64) -> RoutingDecision {
        let scheduler = if self.max_workers <= 1 || est_total_states < self.sequential_threshold {
            Scheduler::Sequential
        } else {
            let sized = (est_total_states / self.states_per_worker.max(1.0)).ceil() as usize;
            Scheduler::work_stealing(sized.clamp(2, self.max_workers))
        };
        RoutingDecision {
            scheduler,
            est_total_states,
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
    /// The estimate the decision was made from.
    pub est_total_states: f64,
    /// The sequential threshold the estimate was compared against.
    pub threshold: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_estimates_route_sequential() {
        let config = RoutingConfig::pinned(1000.0, 500.0, 8);
        let decision = config.route(999.0);
        assert_eq!(decision.scheduler, Scheduler::Sequential);
        assert_eq!(decision.est_total_states, 999.0);
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

    #[test]
    fn single_core_always_routes_sequential() {
        let config = RoutingConfig::pinned(1000.0, 500.0, 1);
        let decision = config.route(1e12);
        assert_eq!(decision.scheduler, Scheduler::Sequential);
    }
}
