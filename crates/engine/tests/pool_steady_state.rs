//! The steady state of the helper pool starts no thread: once a warm-up run
//! grew the process-wide pool, parallel runs reuse its parked helpers, and
//! a streamed run hands its rows over on the workers themselves.
//!
//! The only test in its binary, so no other test grows the pool or starts
//! a thread meanwhile.

use sge_engine::{Engine, RunConfig};
use sge_graph::generators;
use sge_ri::Algorithm;
use sge_util::Pool;

/// The threads of this process, where the OS lists them.
fn threads() -> Option<usize> {
    cfg!(target_os = "linux").then(|| {
        let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task lists");
        tasks.count()
    })
}

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

    // Streamed runs: the consumer sees the threads the process had before
    // the run, every time.
    let before = threads();
    for round in 0..20 {
        for scheduler in ["seq", "ws:2"] {
            let config = RunConfig::new(scheduler.parse().unwrap());
            let mut rows = Vec::new();
            let mut during = Vec::new();
            let outcome = engine.run_streaming(&config, 8, |row| {
                rows.push(row);
                during.push(threads());
                true
            });
            rows.sort_unstable();
            let streamed = (outcome.matches, outcome.states, rows);
            assert_eq!(streamed, sequential, "{scheduler}, round {round}");
            assert!(
                during.iter().all(|&n| n == before),
                "{during:?} vs {before:?}"
            );
        }
    }
    assert_eq!(Pool::global().spawned(), 3);
}
