//! Service-layer throughput: queries/sec for a 100-pattern `QuerySet`
//! under each scheduler, through the full serving stack (registry lookup,
//! pattern parse, prepared cache, admission control, worker pool).
//!
//! Alongside the criterion timings, a summary in the experiment-report
//! records format (one row per scheduler) is printed once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sge::prelude::*;
use sge_bench::report::Table;
use sge_graph::{generators, io::write_graph};
use sge_service::QueryOutcome;

/// 100 patterns cycling through a small shape zoo.
fn patterns() -> Vec<String> {
    let shapes = [
        generators::directed_cycle(3, 0),
        generators::directed_path(2, 0),
        generators::directed_path(3, 0),
        generators::undirected_cycle(4, 0),
        generators::clique(3, 0),
    ];
    (0..100)
        .map(|i| write_graph(&shapes[i % shapes.len()]))
        .collect()
}

fn build_service() -> Service {
    let service = Service::new(ServiceConfig {
        cache_capacity: 32,
        batch_workers: 4,
        max_in_flight: 8,
        ..ServiceConfig::default()
    });
    service.registry().insert("grid", generators::grid(6, 6));
    service
}

fn query_set(scheduler: Scheduler) -> QuerySet {
    let mut set = QuerySet::new("grid");
    for pattern in patterns() {
        set.push(QuerySpec::new(pattern).with_run(RunConfig::new(scheduler)));
    }
    set
}

fn schedulers() -> Vec<(&'static str, Scheduler)> {
    vec![
        ("sequential", Scheduler::Sequential),
        ("work-stealing-4", Scheduler::work_stealing(4)),
    ]
}

fn bench_batch_throughput(c: &mut Criterion) {
    let service = build_service();

    // One-shot summary in the experiment records format.
    let mut table = Table::new(
        "batch_throughput (100-pattern QuerySet, grid-6x6 target)",
        &["scheduler", "queries/s", "matches", "cache hits", "wall s"],
    );
    for (name, scheduler) in schedulers() {
        let outcome = service.run_batch(&query_set(scheduler));
        assert_eq!(outcome.succeeded(), 100, "{name}");
        table.row(vec![
            name.to_string(),
            format!("{:.0}", outcome.queries_per_second()),
            outcome.total_matches().to_string(),
            outcome.cache_hits().to_string(),
            format!("{:.4}", outcome.wall_seconds),
        ]);
    }
    println!("{}", table.render());

    let mut group = c.benchmark_group("batch_throughput");
    group.sample_size(10);
    for (name, scheduler) in schedulers() {
        let set = query_set(scheduler);
        group.bench_with_input(BenchmarkId::from_parameter(name), &set, |b, set| {
            b.iter(|| {
                let outcome = service.run_batch(set);
                let matches: u64 = outcome
                    .results
                    .iter()
                    .filter_map(|r| r.as_ref().ok())
                    .map(|q: &QueryOutcome| q.outcome.matches)
                    .sum();
                std::hint::black_box(matches)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_throughput);
criterion_main!(benches);
