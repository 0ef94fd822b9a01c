//! The steady state of the helper pool starts no thread: once a warm-up run
//! grew the process-wide pool, parallel runs reuse its parked helpers.
//!
//! The only test in its binary, so no other test grows the pool meanwhile.

use sge_engine::{Engine, RunConfig};
use sge_graph::generators;
use sge_ri::Algorithm;
use sge_util::Pool;

#[test]
fn parallel_runs_after_a_warm_up_start_no_thread() {
    let pattern = generators::undirected_cycle(4, 0);
    let target = generators::grid(6, 6);
    let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
    let figures = |scheduler: &str| {
        let config = RunConfig::new(scheduler.parse().unwrap()).with_collected_mappings(usize::MAX);
        let outcome = engine.run(&config);
        assert_eq!(outcome.worker_stats.len(), outcome.scheduler.workers());
        (outcome.matches, outcome.states, outcome.mappings)
    };
    let sequential = figures("seq");
    assert!(sequential.0 > 0);
    assert_eq!(figures("ws:4"), sequential, "warm-up");
    // The warm-up run asked for three helpers and started each one.
    assert_eq!(Pool::global().spawned(), 3);
    for round in 0..100 {
        for scheduler in ["ws:2", "ws:4", "ws:4:4:nosteal"] {
            assert_eq!(figures(scheduler), sequential, "{scheduler}, round {round}");
        }
    }
    assert_eq!(Pool::global().spawned(), 3);
}
