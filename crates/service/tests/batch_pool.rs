//! A batch runs on its caller and the process-wide helper pool: once a
//! warm-up batch grew the pool, batches start no thread.
//!
//! The only test in its binary, so no other test grows the pool or starts
//! a thread meanwhile.

use sge_engine::{EnumerationOutcome, RunConfig, Scheduler};
use sge_graph::{generators, io::write_graph, Graph};
use sge_service::{QuerySet, QuerySpec, Service, ServiceConfig};
use sge_util::Pool;

/// The threads of this process, where the OS lists them.
fn threads() -> Option<usize> {
    cfg!(target_os = "linux").then(|| {
        let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task lists");
        tasks.count()
    })
}

/// `queries` queries against `target`, cycling through `patterns`, each
/// pinned sequential (it runs on its claimer alone) and collecting every
/// mapping.
fn query_set(target: &str, patterns: &[Graph], queries: usize) -> QuerySet {
    let run = RunConfig::new(Scheduler::Sequential).with_collected_mappings(usize::MAX);
    let mut set = QuerySet::new(target);
    for i in 0..queries {
        set.push(QuerySpec::new(write_graph(&patterns[i % patterns.len()])).with_run(run));
    }
    set
}

#[test]
fn batches_after_a_warm_up_start_no_thread() {
    let service = Service::new(ServiceConfig {
        batch_workers: 4,
        ..ServiceConfig::default()
    });
    service.registry().insert("k6", generators::clique(6, 0));
    service.registry().insert("k12", generators::clique(12, 0));
    let answers = |set: &QuerySet| -> Vec<EnumerationOutcome> {
        let answer = |spec| service.run_query(&set.target, spec).unwrap().outcome;
        set.queries.iter().map(answer).collect()
    };
    let check = |set: &QuerySet, answers: &[EnumerationOutcome], round: usize| {
        let batch = service.run_batch(set);
        assert_eq!(batch.workers, 4);
        assert_eq!(batch.results.len(), answers.len());
        for (index, (result, answer)) in batch.results.iter().zip(answers).enumerate() {
            let outcome = &result.as_ref().expect("the query succeeds").outcome;
            let figures = (outcome.matches, outcome.states, &outcome.mappings);
            let want = (answer.matches, answer.states, &answer.mappings);
            assert_eq!(figures, want, "round {round}, query {index}");
        }
    };
    // The warm-up's queries (11,880 mappings each) outlast the caller's
    // three offers, so no claimer finishes and parks before the last one
    // is made: each offer starts a helper.
    let paths = [generators::directed_path(4, 0), generators::star(3, 0, 0)];
    let warm_up = query_set("k12", &paths, 8);
    let warm_up_answers = answers(&warm_up);
    let shapes = [
        generators::directed_cycle(3, 0),
        generators::directed_path(2, 0),
        generators::directed_path(3, 0),
        generators::undirected_cycle(4, 0),
        generators::star(3, 0, 0),
    ];
    let set = query_set("k6", &shapes, 40);
    let set_answers = answers(&set);

    assert_eq!(Pool::global().spawned(), 0);
    let before = threads();
    check(&warm_up, &warm_up_answers, 0);
    // The warm-up offered three claimers and started a helper for each.
    assert_eq!(Pool::global().spawned(), 3);
    let warm = threads();
    assert_eq!(warm, before.map(|n| n + 3));
    for round in 1..=100 {
        check(&set, &set_answers, round);
    }
    assert_eq!(Pool::global().spawned(), 3);
    assert_eq!(threads(), warm);
    assert_eq!(service.stats().batches_served, 101);
}
