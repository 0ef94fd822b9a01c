//! One prepared `Engine` serving parallel `run()` calls from many threads.
//!
//! This is the invariant the service's PreparedCache is built on: a single
//! preparation can be shared (`&Engine` is `Send + Sync`) and concurrently
//! executed under any mix of schedulers, with results identical to
//! sequential runs.

use sge::prelude::*;
use sge::PreparedEngine;
use std::sync::Arc;

fn thread_schedulers(i: usize) -> Scheduler {
    match i % 4 {
        0 => Scheduler::Sequential,
        1 => Scheduler::work_stealing(2),
        2 => Scheduler::work_stealing(4),
        _ => Scheduler::WorkStealing {
            workers: 2,
            task_group_size: 1,
            stealing: false,
        },
    }
}

#[test]
fn one_engine_many_threads_matches_sequential() {
    let pattern = sge::graph::generators::undirected_cycle(4, 0);
    let target = sge::graph::generators::grid(5, 5);
    let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);

    let reference = engine.run(&RunConfig::default().with_collected_mappings(100_000));
    assert!(reference.matches > 0);

    // 8 threads hammer the same prepared engine concurrently, twice each.
    std::thread::scope(|scope| {
        let engine = &engine;
        let reference = &reference;
        for i in 0..8 {
            scope.spawn(move || {
                for _ in 0..2 {
                    let run = RunConfig::new(thread_schedulers(i))
                        .with_collected_mappings(100_000)
                        .with_seed(i as u64);
                    let outcome = engine.run(&run);
                    assert_eq!(outcome.matches, reference.matches, "thread {i}");
                    assert_eq!(outcome.states, reference.states, "thread {i}");
                    // Lists handed to the search are schedule-invariant, and
                    // a run counts only those of its own workers.
                    let lists = outcome.kernels.lists;
                    assert_eq!(lists, reference.kernels.lists, "thread {i}");
                    assert_eq!(outcome.mappings, reference.mappings, "thread {i}");
                }
            });
        }
    });
}

#[test]
fn one_prepared_engine_many_threads_matches_sequential() {
    // The owned flavor the cache actually stores.
    let pattern = Arc::new(sge::graph::generators::directed_cycle(3, 0));
    let target = Arc::new(sge::graph::generators::clique(7, 0));
    let prepared = Arc::new(PreparedEngine::prepare(
        pattern,
        target,
        Algorithm::RiDsSiFc,
    ));
    let reference = prepared.run(&RunConfig::default().with_collected_mappings(100_000));
    assert_eq!(reference.matches, 210); // 7 * 6 * 5 directed 3-cycles

    let handles: Vec<_> = (0..8)
        .map(|i| {
            let prepared = Arc::clone(&prepared);
            let expected = reference.mappings.clone();
            std::thread::spawn(move || {
                let run = RunConfig::new(thread_schedulers(i)).with_collected_mappings(100_000);
                let outcome = prepared.run(&run);
                assert_eq!(outcome.matches, 210, "thread {i}");
                assert_eq!(outcome.mappings, expected, "thread {i}");
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
}

#[test]
fn concurrent_limited_runs_stay_exact() {
    // max_matches budgets are per-run state; concurrent limited runs must
    // not interfere with each other.
    let pattern = sge::graph::generators::directed_path(2, 0);
    let target = sge::graph::generators::clique(10, 0); // 90 embeddings
    let engine = Engine::prepare(&pattern, &target, Algorithm::Ri);
    std::thread::scope(|scope| {
        let engine = &engine;
        for i in 0..6 {
            scope.spawn(move || {
                let limit = 5 + 10 * i as u64;
                let run = RunConfig::new(thread_schedulers(i)).with_max_matches(limit);
                let outcome = engine.run(&run);
                assert_eq!(outcome.matches, limit.min(90), "thread {i}");
            });
        }
    });
}
