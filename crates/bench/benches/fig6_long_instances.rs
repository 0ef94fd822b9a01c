//! Criterion bench for Figs. 5/6: sequential vs parallel RI on the largest
//! (longest-running) PDBSv1-like instance, through the unified engine.

use criterion::{criterion_group, criterion_main, Criterion};
use sge::{Engine, RunConfig, Scheduler};
use sge_bench::experiments::collection;
use sge_bench::ExperimentConfig;
use sge_datasets::CollectionKind;
use sge_ri::Algorithm;

fn bench_fig6(c: &mut Criterion) {
    let config = ExperimentConfig::smoke();
    let coll = collection(CollectionKind::PdbsV1, &config);
    let instance = coll
        .instances
        .iter()
        .max_by_key(|i| i.pattern.num_edges())
        .expect("non-empty collection");
    let target = coll.target_of(instance);
    let engine = Engine::prepare(&instance.pattern, target, Algorithm::Ri);

    let mut group = c.benchmark_group("fig6_long_instances");
    group.sample_size(10);
    for (name, scheduler) in [
        ("sequential_ri", Scheduler::Sequential),
        ("parallel_ri_4_workers", Scheduler::work_stealing(4)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(engine.run(&RunConfig::new(scheduler)).matches))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
