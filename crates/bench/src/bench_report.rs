//! The machine-readable perf-trajectory report (`BENCH_pr7.json`).
//!
//! Criterion benches print human-oriented tables; CI and future PRs need a
//! stable, machine-readable record of where the hot path stands.  This module
//! runs a small set of *figures* — named workloads mirroring the criterion
//! benches — and emits one JSON document per run:
//!
//! ```json
//! {
//!   "schema": "sge-bench-report/v1",
//!   "pr": "pr3",
//!   "repeats": 5,
//!   "figures": {
//!     "<figure>": {
//!       "cases": [
//!         {
//!           "name": "<case>",
//!           "intersection_seconds": 0.0123,
//!           "speedup_vs_sequential": 1.7,
//!           "observed_states_total": 123456,
//!           "steals_total": 42
//!         }
//!       ]
//!     }
//!   }
//! }
//! ```
//!
//! * `intersection_seconds` — median wall time of the case on the
//!   intersection-based candidate path (the committed records up to
//!   `BENCH_pr10.json` also carry two columns timing a since-removed
//!   candidate generator; the validator ignores them),
//! * `speedup_vs_sequential` — the figure's sequential median divided by
//!   this case's median,
//! * `observed_states_total` / `steals_total` — since PR 7: the consistency
//!   checks and successful steals a [`sge::obs::TraceSink`] records over one
//!   extra *untimed* instrumented pass of the case's intersection workload
//!   (the timed passes stay sink-free, preserving the zero-overhead
//!   contract).  States are schedule-invariant — identical across the
//!   scheduler cases of a figure — while steals depend on the scheduler, so
//!   the pair documents how much search each figure does and how much of it
//!   moved between workers.
//!
//! Since PR 4 the report also carries a `strategy_comparison` figure: the
//! same count-only workload enumerated once per ordering strategy
//! (`ri-greedy`, `least-frequent-label`, `degree-descending`), each case
//! reporting its median wall seconds, its speedup relative to the RI-greedy
//! baseline, and the cost model's total state estimate — so the planner's
//! predictions can be eyeballed against measured reality.
//!
//! The report also carries a `modular_mix` figure: a count-only
//! triangle-class query mix against a modular clique-community target through
//! the single-registry service, reporting the mix's median wall seconds,
//! queries per second, total matches and bitmap-kernel invocations.
//!
//! Future PRs append comparable records as `BENCH_pr<N>.json` with the same
//! schema string so the trajectory stays diffable.

use crate::experiments::collection;
use crate::report::Table;
use crate::ExperimentConfig;
use sge::obs::TraceSink;
use sge::prelude::*;
use sge_datasets::CollectionKind;
use sge_graph::{generators, io::write_graph, Graph};
use sge_ri::Algorithm;
use sge_service::json::Json;
use std::sync::Arc;
use std::time::Instant;

/// Figure names every report must contain; CI's `bench-smoke` job validates
/// the emitted document against this list.  (`adaptive_dispatch` is required
/// since PR 8; older committed records are grandfathered.)
pub const EXPECTED_FIGURES: [&str; 7] = [
    "fig3_work_stealing",
    "batch_throughput",
    "dense_target",
    "strategy_comparison",
    "adaptive_dispatch",
    "kernel_comparison",
    "modular_mix",
];

/// Knobs of one report run.
#[derive(Clone, Copy, Debug)]
pub struct ReportConfig {
    /// Wall-time samples per case (the report records the median).
    pub repeats: usize,
    /// Shrink workloads to CI-smoke size.
    pub smoke: bool,
}

impl Default for ReportConfig {
    fn default() -> Self {
        ReportConfig {
            repeats: 5,
            smoke: false,
        }
    }
}

/// One measured case of a figure.
struct Case {
    name: &'static str,
    intersection_seconds: f64,
    speedup_vs_sequential: f64,
    observed_states_total: u64,
    steals_total: u64,
}

impl Case {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name)),
            ("intersection_seconds", Json::F64(self.intersection_seconds)),
            (
                "speedup_vs_sequential",
                Json::F64(self.speedup_vs_sequential),
            ),
            (
                "observed_states_total",
                Json::U64(self.observed_states_total),
            ),
            ("steals_total", Json::U64(self.steals_total)),
        ])
    }
}

/// Median of `repeats` wall-time samples of `work`.
fn median_seconds(repeats: usize, mut work: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The scheduler sweep every figure reports.
fn schedulers() -> Vec<(&'static str, Scheduler)> {
    vec![
        ("sequential", Scheduler::Sequential),
        ("ws4_stealing", Scheduler::work_stealing(4)),
        (
            "ws4_no_stealing",
            Scheduler::WorkStealing {
                workers: 4,
                task_group_size: 4,
                stealing: false,
            },
        ),
    ]
}

/// Runs the scheduler sweep over a workload of prepared engines, timing
/// each sweep as one count-only pass over the set.
///
/// All timed passes run first, while every engine is still sink-free — the
/// instrumented counter pass attaches [`TraceSink`]s, and the zero-overhead
/// contract only holds for engines without one.
fn sweep_engine_set(engines: &mut [Engine<'_>], repeats: usize) -> Vec<Case> {
    let mut timed = Vec::new();
    let mut sequential_median = f64::NAN;
    for (name, scheduler) in schedulers() {
        let seconds = median_seconds(repeats, || {
            for engine in engines.iter() {
                std::hint::black_box(engine.run(&RunConfig::new(scheduler)).matches);
            }
        });
        if scheduler == Scheduler::Sequential {
            sequential_median = seconds;
        }
        timed.push((
            name,
            scheduler,
            seconds,
            sequential_median / seconds.max(1e-12),
        ));
    }
    timed
        .into_iter()
        .map(|(name, scheduler, seconds, speedup)| {
            let (observed_states_total, steals_total) = instrumented_totals(engines, scheduler);
            Case {
                name,
                intersection_seconds: seconds,
                speedup_vs_sequential: speedup,
                observed_states_total,
                steals_total,
            }
        })
        .collect()
}

/// One untimed instrumented pass over the workload: attaches a
/// fresh [`TraceSink`] to every engine, runs the count-only sweep once under
/// `scheduler`, and sums the observed consistency checks and successful
/// steals across the set.
fn instrumented_totals(engines: &mut [Engine<'_>], scheduler: Scheduler) -> (u64, u64) {
    let mut states = 0u64;
    let mut steals = 0u64;
    for engine in engines.iter_mut() {
        let sink = Arc::new(TraceSink::new(engine.plan().num_positions()));
        engine.set_trace_sink(Arc::clone(&sink));
        std::hint::black_box(engine.run(&RunConfig::new(scheduler)).matches);
        states += sink.states_total();
        steals += sink.steals();
    }
    (states, steals)
}

/// Runs the scheduler sweep over one instance.
fn sweep_instance(
    pattern: &Graph,
    target: &Graph,
    algorithm: Algorithm,
    repeats: usize,
) -> Vec<Case> {
    sweep_engine_set(&mut [Engine::prepare(pattern, target, algorithm)], repeats)
}

/// Figure `fig3_work_stealing`: the PPIS32-like collection under the
/// stealing / no-stealing sweep.  The whole collection is enumerated per
/// sample (single instances of the smoke collection finish in microseconds,
/// below timer resolution).
fn fig3_cases(config: &ReportConfig) -> Vec<Case> {
    let experiment = if config.smoke {
        ExperimentConfig::smoke()
    } else {
        // Large enough that search time dominates the per-run thread-spawn
        // cost of the parallel schedulers.
        ExperimentConfig {
            scale: 1.5,
            max_instances: Some(8),
            ..ExperimentConfig::smoke()
        }
    };
    let coll = collection(CollectionKind::Ppis32, &experiment);
    let mut engines: Vec<Engine<'_>> = coll
        .instances
        .iter()
        .map(|i| Engine::prepare(&i.pattern, coll.target_of(i), Algorithm::RiDs))
        .collect();
    sweep_engine_set(&mut engines, config.repeats)
}

/// The grid target the `batch_throughput` figure (engine-level cases *and*
/// the service pass) runs against.
fn batch_target(config: &ReportConfig) -> Graph {
    if config.smoke {
        generators::grid(6, 6)
    } else {
        generators::grid(16, 16)
    }
}

/// The 100-pattern shape zoo used by the `batch_throughput` bench.
fn zoo_patterns() -> Vec<Graph> {
    let shapes = [
        generators::directed_cycle(3, 0),
        generators::directed_path(2, 0),
        generators::directed_path(3, 0),
        generators::undirected_cycle(4, 0),
        generators::clique(3, 0),
    ];
    (0..100).map(|i| shapes[i % shapes.len()].clone()).collect()
}

/// Figure `batch_throughput`: the full 100-pattern query mix against the
/// grid target, engines prepared once (prepared-cache semantics), runs timed.
fn batch_cases(config: &ReportConfig) -> Vec<Case> {
    let target = batch_target(config);
    let patterns = zoo_patterns();
    let mut engines: Vec<Engine<'_>> = patterns
        .iter()
        .map(|p| Engine::prepare(p, &target, Algorithm::RiDsSiFc))
        .collect();
    sweep_engine_set(&mut engines, config.repeats)
}

/// The 100-pattern batch through the *real* service stack (registry, parse,
/// prepared cache, admission control), reported as the median queries/second
/// over `config.repeats` passes against the same target size the
/// `batch_throughput` engine-level cases use.
fn service_queries_per_second(config: &ReportConfig) -> f64 {
    let service = Service::new(ServiceConfig {
        cache_capacity: 32,
        batch_workers: 4,
        max_in_flight: 8,
        ..ServiceConfig::default()
    });
    service.registry().insert("grid", batch_target(config));
    let mut set = QuerySet::new("grid");
    for pattern in zoo_patterns() {
        set.push(QuerySpec::new(write_graph(&pattern)));
    }
    let mut samples: Vec<f64> = (0..config.repeats.max(1))
        .map(|_| {
            let outcome = service.run_batch(&set);
            assert_eq!(outcome.succeeded(), 100, "batch must fully succeed");
            outcome.queries_per_second()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Figure `dense_target`: small cyclic patterns in cliques — the workload
/// where the multi-parent intersection prunes hardest.
fn dense_cases(config: &ReportConfig) -> Vec<Case> {
    let clique_nodes = if config.smoke { 12 } else { 32 };
    let pattern = generators::directed_cycle(4, 0);
    let target = generators::clique(clique_nodes, 0);
    sweep_instance(&pattern, &target, Algorithm::RiDs, config.repeats)
}

/// One measured case of the `kernel_comparison` figure: the same pairwise
/// adjacency-intersection workload through each of the three kernel paths,
/// plus the candidate-prefilter verdict from one instrumented enumeration of
/// the tier's target.
struct KernelCase {
    name: &'static str,
    scalar_seconds: f64,
    vectorized_seconds: f64,
    bitmap_seconds: f64,
    prefilter_rejected: u64,
    prefilter_reject_rate: f64,
}

impl KernelCase {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name)),
            ("scalar_seconds", Json::F64(self.scalar_seconds)),
            ("vectorized_seconds", Json::F64(self.vectorized_seconds)),
            ("bitmap_seconds", Json::F64(self.bitmap_seconds)),
            (
                "speedup_vectorized_vs_scalar",
                Json::F64(self.scalar_seconds / self.vectorized_seconds.max(1e-12)),
            ),
            (
                "speedup_bitmap_vs_scalar",
                Json::F64(self.scalar_seconds / self.bitmap_seconds.max(1e-12)),
            ),
            ("prefilter_rejected", Json::U64(self.prefilter_rejected)),
            (
                "prefilter_reject_rate",
                Json::F64(self.prefilter_reject_rate),
            ),
        ])
    }
}

/// A dense clique core with degree-1 fringe nodes hanging off it — the
/// workload where the min-degree prefilter visibly rejects candidates (a
/// fringe node can never host a position of a cycle pattern).
fn dense_core_with_fringe(core: usize, fringe: usize) -> Graph {
    let mut builder = sge_graph::GraphBuilder::with_capacity(core + fringe, core * (core - 1));
    for _ in 0..core {
        builder.add_node(0);
    }
    for u in 0..core as u32 {
        for v in 0..core as u32 {
            if u != v {
                builder.add_edge(u, v, 0);
            }
        }
    }
    for _ in 0..fringe {
        let leaf = builder.add_node(0);
        builder.add_edge(leaf, 0, 0);
    }
    builder.build()
}

/// The prefilter verdict of one instrumented sequential enumeration (4-cycle
/// pattern) against `target`: rejected candidates and the reject rate
/// relative to everything the prefilter inspected.  Plain RI is the right
/// probe: RI-DS domains are already arc-consistent and would exclude the
/// infeasible candidates before the prefilter ever sees them, reading 0
/// everywhere.  On targets where the planner never routes to the bitmap
/// kernels the sidecar stays detached and both numbers are zero — that
/// non-decision is part of the figure.
fn prefilter_verdict(target: &Graph) -> (u64, f64) {
    let pattern = generators::directed_cycle(4, 0);
    let mut engine = Engine::prepare(&pattern, target, Algorithm::Ri);
    let sink = Arc::new(TraceSink::new(engine.plan().num_positions()));
    engine.set_trace_sink(Arc::clone(&sink));
    let outcome = engine.run(&RunConfig::new(Scheduler::Sequential));
    std::hint::black_box(outcome.matches);
    let rejected = outcome.kernels.prefilter_rejected;
    // The kernel counter holds the rejections made while lists were built,
    // the sink every candidate handed to the search, memo hits included:
    // the rate is a lower bound on the share of a list's raw candidates
    // the prefilter removes.
    let inspected = rejected + sink.candidates_total();
    (rejected, rejected as f64 / (inspected.max(1)) as f64)
}

/// Figure `kernel_comparison`: the scalar reference, the width-bucketed
/// vectorized gallop and the bitmap AND kernel over one identical workload
/// per density tier — every ordered node pair (capped) of the tier's target,
/// seeding the candidate buffer with `u`'s out-neighborhood and intersecting
/// it against `w`'s adjacency.  The bitmap sidecar is built with a
/// threshold of 1 so every tier has rows to compare, even where the planner
/// would never pick the bitmap kernel.
fn kernel_cases(config: &ReportConfig) -> Vec<KernelCase> {
    use sge_ri::kernels::{and_rows, collect_row};

    let tiers: Vec<(&'static str, Graph)> = if config.smoke {
        vec![
            ("sparse_grid", generators::grid(6, 6)),
            ("medium_clique", generators::clique(8, 0)),
            ("dense_clique", generators::clique(16, 0)),
            ("dense_fringe", dense_core_with_fringe(24, 8)),
        ]
    } else {
        vec![
            ("sparse_grid", generators::grid(16, 16)),
            ("medium_clique", generators::clique(16, 0)),
            ("dense_clique", generators::clique(48, 0)),
            ("dense_fringe", dense_core_with_fringe(32, 16)),
        ]
    };
    // Enough intersections per timed sample to clear timer resolution.
    let rounds = if config.smoke { 4 } else { 16 };
    const MAX_SAMPLED_NODES: usize = 64;

    tiers
        .into_iter()
        .map(|(name, target)| {
            let sidecar = sge_graph::AdjacencyBitmaps::build(
                &target,
                &sge_graph::BitmapConfig {
                    degree_threshold: 1,
                    max_bytes: usize::MAX,
                },
            );
            let nodes = target.num_nodes().min(MAX_SAMPLED_NODES) as u32;
            let seed_out = |u: u32, out: &mut Vec<u32>| {
                out.clear();
                out.extend(
                    target
                        .out_edges(u)
                        .iter()
                        .filter(|e| e.label == 0)
                        .map(|e| e.node),
                );
            };
            let mut buffer: Vec<u32> = Vec::new();
            let scalar_seconds = median_seconds(config.repeats, || {
                for _ in 0..rounds {
                    for u in 0..nodes {
                        for w in 0..nodes {
                            seed_out(u, &mut buffer);
                            sge_ri::intersect_reference(&mut buffer, target.out_edges(w), 0);
                            std::hint::black_box(buffer.len());
                        }
                    }
                }
            });
            let vectorized_seconds = median_seconds(config.repeats, || {
                for _ in 0..rounds {
                    for u in 0..nodes {
                        for w in 0..nodes {
                            seed_out(u, &mut buffer);
                            std::hint::black_box(sge_ri::intersect_gallop(
                                &mut buffer,
                                target.out_edges(w),
                                0,
                            ));
                        }
                    }
                }
            });
            let mut scratch: Vec<u64> = vec![0; sidecar.words_per_row()];
            let bitmap_seconds = median_seconds(config.repeats, || {
                for _ in 0..rounds {
                    for u in 0..nodes {
                        for w in 0..nodes {
                            let (Some(row_u), Some(row_w)) =
                                (sidecar.out_row(u, 0), sidecar.out_row(w, 0))
                            else {
                                continue;
                            };
                            scratch.copy_from_slice(row_u);
                            and_rows(&mut scratch, row_w);
                            buffer.clear();
                            collect_row(&scratch, &mut buffer);
                            std::hint::black_box(buffer.len());
                        }
                    }
                }
            });
            let (prefilter_rejected, prefilter_reject_rate) = prefilter_verdict(&target);
            KernelCase {
                name,
                scalar_seconds,
                vectorized_seconds,
                bitmap_seconds,
                prefilter_rejected,
                prefilter_reject_rate,
            }
        })
        .collect()
}

/// One measured case of the `adaptive_dispatch` figure: the same count-only
/// query through the real service under a pinned sequential scheduler, a
/// pinned `ws:4`, and planner routing.
struct DispatchCase {
    name: &'static str,
    sequential_seconds: f64,
    ws4_seconds: f64,
    routed_seconds: f64,
    routed_scheduler: String,
    correction: f64,
}

impl DispatchCase {
    fn routed_vs_sequential(&self) -> f64 {
        self.sequential_seconds / self.routed_seconds.max(1e-12)
    }

    fn routed_vs_ws4(&self) -> f64 {
        self.ws4_seconds / self.routed_seconds.max(1e-12)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name)),
            ("sequential_seconds", Json::F64(self.sequential_seconds)),
            ("ws4_seconds", Json::F64(self.ws4_seconds)),
            ("routed_seconds", Json::F64(self.routed_seconds)),
            ("routed_scheduler", Json::str(self.routed_scheduler.clone())),
            (
                "routed_vs_sequential",
                Json::F64(self.routed_vs_sequential()),
            ),
            ("routed_vs_ws4", Json::F64(self.routed_vs_ws4())),
            ("correction", Json::F64(self.correction)),
        ])
    }
}

/// Figure `adaptive_dispatch`: planner-routed scheduling through the real
/// service stack next to the pinned baselines it chooses between.  The ws4
/// regression BENCH_pr3/pr4 documented (work-stealing at a fraction of
/// sequential on small instances) is exactly what routing removes: the
/// corrected estimate stays below the sequential threshold, so the routed
/// run takes the count-only sequential fast path instead of paying the
/// task-distribution overhead.
fn adaptive_dispatch_cases(config: &ReportConfig) -> (Vec<DispatchCase>, f64) {
    let service = Service::new(ServiceConfig {
        cache_capacity: 16,
        batch_workers: 1,
        max_in_flight: 4,
        ..ServiceConfig::default()
    });
    service.registry().insert("grid", batch_target(config));
    service.registry().insert(
        "clique",
        generators::clique(if config.smoke { 12 } else { 24 }, 0),
    );
    let workloads: [(&'static str, &'static str, Graph); 3] = [
        ("triangle_grid", "grid", generators::directed_cycle(3, 0)),
        ("path4_grid", "grid", generators::directed_path(4, 0)),
        ("cycle4_clique", "clique", generators::directed_cycle(4, 0)),
    ];
    let mut cases = Vec::new();
    for (name, target, pattern) in workloads {
        let text = write_graph(&pattern);
        let seq_spec = QuerySpec::new(&text).with_run(RunConfig::new(Scheduler::Sequential));
        let ws4_spec = QuerySpec::new(&text).with_run(RunConfig::new(Scheduler::work_stealing(4)));
        let routed_spec = QuerySpec::new(&text);
        // Warm the prepared cache and the cost model so every timed pass
        // runs cache-hit with a learned correction factor, like a steady
        // -state server would.
        for spec in [&seq_spec, &ws4_spec, &routed_spec] {
            service
                .run_query(target, spec)
                .expect("dispatch warmup query must succeed");
        }
        let time_spec = |spec: &QuerySpec| {
            median_seconds(config.repeats, || {
                std::hint::black_box(
                    service
                        .run_query(target, spec)
                        .expect("dispatch query must succeed")
                        .outcome
                        .matches,
                );
            })
        };
        let sequential_seconds = time_spec(&seq_spec);
        let ws4_seconds = time_spec(&ws4_spec);
        let routed_seconds = time_spec(&routed_spec);
        let routed_outcome = service
            .run_query(target, &routed_spec)
            .expect("routed probe query must succeed");
        cases.push(DispatchCase {
            name,
            sequential_seconds,
            ws4_seconds,
            routed_seconds,
            routed_scheduler: routed_outcome.outcome.scheduler.name().to_string(),
            correction: service.cost_model().correction_for(target),
        });
    }
    (cases, service.correction_factor())
}

/// One measured ordering strategy of the `strategy_comparison` figure.
struct StrategyCase {
    name: &'static str,
    seconds: f64,
    speedup_vs_ri_greedy: f64,
    est_states_total: f64,
}

impl StrategyCase {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name)),
            ("seconds", Json::F64(self.seconds)),
            ("speedup_vs_ri_greedy", Json::F64(self.speedup_vs_ri_greedy)),
            ("est_states_total", Json::F64(self.est_states_total)),
        ])
    }
}

/// Figure `strategy_comparison`: one sequential count-only pass over a mixed
/// workload (the PPIS32-like collection plus a dense clique instance) per
/// ordering strategy.  Preparation happens outside the timed region — the
/// figure isolates how the *match order* shapes the search, exactly what a
/// strategy trades.
fn strategy_cases(config: &ReportConfig) -> Vec<StrategyCase> {
    let experiment = if config.smoke {
        ExperimentConfig::smoke()
    } else {
        ExperimentConfig {
            scale: 1.0,
            max_instances: Some(8),
            ..ExperimentConfig::smoke()
        }
    };
    let coll = collection(CollectionKind::Ppis32, &experiment);
    let dense_pattern = generators::directed_cycle(4, 0);
    let dense_target = generators::clique(if config.smoke { 12 } else { 24 }, 0);

    // Measure every strategy first; the RI-greedy baseline for the speedup
    // column is looked up afterwards so nothing depends on the iteration
    // order of `Strategy::ALL`.
    let measured: Vec<(Strategy, f64, f64)> = Strategy::ALL
        .iter()
        .map(|&strategy| {
            let engines: Vec<Engine<'_>> = coll
                .instances
                .iter()
                .map(|i| {
                    Engine::prepare_planned(
                        &i.pattern,
                        coll.target_of(i),
                        Algorithm::RiDs,
                        strategy,
                    )
                })
                .collect();
            let dense =
                Engine::prepare_planned(&dense_pattern, &dense_target, Algorithm::RiDs, strategy);
            let est_states_total = engines
                .iter()
                .chain(std::iter::once(&dense))
                .map(|e| e.plan().cost.est_total_states)
                .sum();
            let seconds = median_seconds(config.repeats, || {
                for engine in &engines {
                    std::hint::black_box(engine.run(&RunConfig::default()).matches);
                }
                std::hint::black_box(dense.run(&RunConfig::default()).matches);
            });
            (strategy, seconds, est_states_total)
        })
        .collect();
    let greedy_seconds = measured
        .iter()
        .find(|(strategy, _, _)| *strategy == Strategy::RiGreedy)
        .map(|&(_, seconds, _)| seconds)
        .expect("Strategy::ALL contains RiGreedy");
    measured
        .into_iter()
        .map(|(strategy, seconds, est_states_total)| StrategyCase {
            name: strategy.name(),
            seconds,
            speedup_vs_ri_greedy: greedy_seconds / seconds.max(1e-12),
            est_states_total,
        })
        .collect()
}

/// The `modular_mix` figure: the count-only triangle-class query mix
/// against the modular clique-community target through the single registry.
struct ModularMix {
    mix_seconds: f64,
    queries_per_second: f64,
    matches_total: u64,
    bitmap_ops: u64,
}

impl ModularMix {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mix_seconds", Json::F64(self.mix_seconds)),
            ("queries_per_second", Json::F64(self.queries_per_second)),
            ("matches_total", Json::U64(self.matches_total)),
            ("bitmap_ops", Json::U64(self.bitmap_ops)),
        ])
    }
}

/// Figure `modular_mix`: a directed 3-cycle, a directed 3-path and a
/// 3-clique, sequential and cache-hot, against eight clique communities on a
/// bridge ring (`clique(64)` each, `clique(24)` in smoke runs).  The target's
/// mean degree clears the planner's density bar, so every constrained
/// position runs the bitmap kernel; `bitmap_ops` counts those invocations
/// over one pass of the mix.
fn modular_mix(config: &ReportConfig) -> ModularMix {
    use sge_datasets::{generate_modular, ModularSpec};
    let size = if config.smoke { 24 } else { 64 };
    let service = Service::new(ServiceConfig::default());
    service.registry().insert(
        "modular",
        generate_modular(&ModularSpec::cliques(size), 0x0DA7_A5E7, "modular-cliques"),
    );
    let specs: Vec<QuerySpec> = [
        generators::directed_cycle(3, 0),
        generators::directed_path(3, 0),
        generators::clique(3, 0),
    ]
    .iter()
    .map(|pattern| {
        QuerySpec::new(write_graph(pattern)).with_run(RunConfig::new(Scheduler::Sequential))
    })
    .collect();
    let run = |spec: &QuerySpec| {
        service
            .run_query("modular", spec)
            .expect("modular-mix query must succeed")
            .outcome
    };
    // Warm the prepared cache so every timed pass runs cache-hit.
    let (mut matches_total, mut bitmap_ops) = (0u64, 0u64);
    for spec in &specs {
        let outcome = run(spec);
        matches_total += outcome.matches;
        bitmap_ops += outcome.kernels.bitmap;
    }
    let mix_seconds = median_seconds(config.repeats, || {
        for spec in &specs {
            std::hint::black_box(run(spec).matches);
        }
    });
    ModularMix {
        mix_seconds,
        queries_per_second: specs.len() as f64 / mix_seconds.max(1e-12),
        matches_total,
        bitmap_ops,
    }
}

fn figure_json(cases: &[Case], extra: Vec<(&'static str, Json)>) -> Json {
    let mut pairs = vec![(
        "cases",
        Json::Arr(cases.iter().map(Case::to_json).collect()),
    )];
    pairs.extend(extra);
    Json::obj(pairs)
}

/// Runs every figure and renders the report document.
///
/// The record carries `host_parallelism` so trajectory readers can interpret
/// the ws4 cases: on a single-core host the parallel schedulers can never
/// beat sequential (`speedup_vs_sequential` < 1 measures scheduling
/// overhead).
pub fn run_report(config: &ReportConfig) -> String {
    let fig3 = fig3_cases(config);
    let batch = batch_cases(config);
    let qps = service_queries_per_second(config);
    let dense = dense_cases(config);
    let strategies = strategy_cases(config);
    let (dispatch, correction_final) = adaptive_dispatch_cases(config);
    let kernels = kernel_cases(config);
    let mix = modular_mix(config);

    let mut table = Table::new(
        "bench-report (median wall seconds)",
        &["figure", "case", "seconds", "vs-seq", "states", "steals"],
    );
    for (figure, cases) in [
        ("fig3_work_stealing", &fig3),
        ("batch_throughput", &batch),
        ("dense_target", &dense),
    ] {
        for case in cases {
            table.row(vec![
                figure.to_string(),
                case.name.to_string(),
                format!("{:.6}", case.intersection_seconds),
                format!("{:.2}", case.speedup_vs_sequential),
                case.observed_states_total.to_string(),
                case.steals_total.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    println!("service batch throughput: {qps:.0} queries/s");

    let mut strategy_table = Table::new(
        "strategy comparison (sequential count-only, median wall seconds)",
        &[
            "strategy",
            "seconds",
            "vs-ri-greedy",
            "est states (cost model)",
        ],
    );
    for case in &strategies {
        strategy_table.row(vec![
            case.name.to_string(),
            format!("{:.6}", case.seconds),
            format!("{:.2}", case.speedup_vs_ri_greedy),
            format!("{:.0}", case.est_states_total),
        ]);
    }
    println!("{}", strategy_table.render());

    let mut dispatch_table = Table::new(
        "adaptive dispatch (median wall seconds through the service)",
        &["case", "sequential", "ws4", "routed", "routed-as", "vs-seq"],
    );
    for case in &dispatch {
        dispatch_table.row(vec![
            case.name.to_string(),
            format!("{:.6}", case.sequential_seconds),
            format!("{:.6}", case.ws4_seconds),
            format!("{:.6}", case.routed_seconds),
            case.routed_scheduler.clone(),
            format!("{:.2}", case.routed_vs_sequential()),
        ]);
    }
    println!("{}", dispatch_table.render());

    let mut kernel_table = Table::new(
        "kernel comparison (median wall seconds per intersection sweep)",
        &[
            "tier",
            "scalar",
            "vectorized",
            "bitmap",
            "bitmap-vs-scalar",
            "prefilter-rejects",
        ],
    );
    for case in &kernels {
        kernel_table.row(vec![
            case.name.to_string(),
            format!("{:.6}", case.scalar_seconds),
            format!("{:.6}", case.vectorized_seconds),
            format!("{:.6}", case.bitmap_seconds),
            format!(
                "{:.2}",
                case.scalar_seconds / case.bitmap_seconds.max(1e-12)
            ),
            format!(
                "{} ({:.1}%)",
                case.prefilter_rejected,
                case.prefilter_reject_rate * 100.0
            ),
        ]);
    }
    println!("{}", kernel_table.render());

    println!(
        "modular mix (single registry): {:.6} s per mix, {:.0} queries/s, {} matches, {} bitmap ops",
        mix.mix_seconds, mix.queries_per_second, mix.matches_total, mix.bitmap_ops
    );

    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Json::obj(vec![
        ("schema", Json::str("sge-bench-report/v1")),
        ("pr", Json::str("pr13")),
        ("repeats", Json::U64(config.repeats as u64)),
        ("host_parallelism", Json::U64(host_parallelism as u64)),
        (
            "figures",
            Json::obj(vec![
                ("fig3_work_stealing", figure_json(&fig3, Vec::new())),
                (
                    "batch_throughput",
                    figure_json(&batch, vec![("service_queries_per_second", Json::F64(qps))]),
                ),
                ("dense_target", figure_json(&dense, Vec::new())),
                (
                    "strategy_comparison",
                    Json::obj(vec![(
                        "cases",
                        Json::Arr(strategies.iter().map(StrategyCase::to_json).collect()),
                    )]),
                ),
                (
                    "adaptive_dispatch",
                    Json::obj(vec![
                        (
                            "cases",
                            Json::Arr(dispatch.iter().map(DispatchCase::to_json).collect()),
                        ),
                        ("correction_factor_final", Json::F64(correction_final)),
                    ]),
                ),
                (
                    "kernel_comparison",
                    Json::obj(vec![(
                        "cases",
                        Json::Arr(kernels.iter().map(KernelCase::to_json).collect()),
                    )]),
                ),
                ("modular_mix", mix.to_json()),
            ]),
        ),
    ])
    .render()
}

/// Validates an emitted report's shape: the document must be syntactically
/// valid JSON and its `figures` object must contain every key in
/// [`EXPECTED_FIGURES`].  Timings are data, not verdicts: perf regressions
/// are the benchmark harness's call, never this validator's.
pub fn validate_report(text: &str) -> Result<(), String> {
    let mut parser = MiniJson {
        bytes: text.trim().as_bytes(),
        pos: 0,
    };
    parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing bytes at offset {}", parser.pos));
    }
    if !text.contains("\"schema\":\"sge-bench-report/v1\"") {
        return Err("missing or unexpected schema marker".to_string());
    }
    // Records since pr7 carry the observed-counter columns; since pr8 the
    // adaptive_dispatch figure; since pr9 the kernel_comparison figure;
    // records after pr10 the modular_mix figure.  Committed older records
    // stay valid as-is.
    let pre_counter = ["\"pr\":\"pr3\"", "\"pr\":\"pr4\""]
        .iter()
        .any(|marker| text.contains(marker));
    let pre_dispatch = pre_counter || text.contains("\"pr\":\"pr7\"") || !text.contains("\"pr\":");
    let pre_kernel = pre_dispatch || text.contains("\"pr\":\"pr8\"");
    let pre_mix = pre_kernel
        || ["\"pr\":\"pr9\"", "\"pr\":\"pr10\""]
            .iter()
            .any(|marker| text.contains(marker));
    for figure in EXPECTED_FIGURES {
        if figure == "adaptive_dispatch" && pre_dispatch {
            continue;
        }
        if figure == "kernel_comparison" && pre_kernel {
            continue;
        }
        if figure == "modular_mix" && pre_mix {
            continue;
        }
        if !text.contains(&format!("\"{figure}\"")) {
            return Err(format!("missing figure key '{figure}'"));
        }
    }
    if !pre_counter && !text.contains("\"observed_states_total\"") {
        return Err("missing 'observed_states_total' counter column".to_string());
    }
    if !pre_kernel && !text.contains("\"prefilter_reject_rate\"") {
        return Err("missing 'prefilter_reject_rate' column in kernel_comparison".to_string());
    }
    Ok(())
}

/// A minimal JSON syntax checker (no DOM; enough to reject malformed output).
struct MiniJson<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl MiniJson<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn literal(&mut self, text: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(format!("expected '{text}' at offset {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'"' => return Ok(()),
                b'\\' => self.pos += 1, // skip the escaped byte
                _ => {}
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(|_| ())
            .map_err(|_| format!("invalid number '{text}' at offset {start}"))
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_emits_every_figure_and_validates() {
        let config = ReportConfig {
            repeats: 1,
            smoke: true,
        };
        let report = run_report(&config);
        validate_report(&report).expect("fresh report must validate");
        for figure in EXPECTED_FIGURES {
            assert!(report.contains(&format!("\"{figure}\"")), "{figure}");
        }
        assert!(report.contains("\"speedup_vs_sequential\""));
        assert!(report.contains("\"routed_vs_sequential\""));
        assert!(report.contains("\"speedup_vs_ri_greedy\""));
        assert!(report.contains("\"observed_states_total\""));
        assert!(report.contains("\"steals_total\""));
        assert!(report.contains("\"speedup_bitmap_vs_scalar\""));
        assert!(report.contains("\"prefilter_reject_rate\""));
        // The smoke modular target clears the density bar, so the mix runs
        // the bitmap kernel.
        let bitmap_ops: u64 = report
            .split("\"bitmap_ops\":")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse().ok())
            .expect("modular_mix carries bitmap_ops");
        assert!(bitmap_ops > 0);
        for strategy in Strategy::ALL {
            assert!(
                report.contains(&format!("\"{}\"", strategy.name())),
                "{strategy}"
            );
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_report("{").is_err());
        assert!(validate_report("{}").is_err(), "schema marker required");
        assert!(validate_report("not json at all").is_err());
        let missing_figure = format!(
            "{{\"schema\":\"sge-bench-report/v1\",\"figures\":{{\"{}\":{{}}}}}}",
            EXPECTED_FIGURES[0]
        );
        assert!(
            validate_report(&missing_figure).is_err(),
            "all figure keys are required"
        );
    }

    #[test]
    fn validator_accepts_minimal_complete_documents() {
        let figures: Vec<String> = EXPECTED_FIGURES
            .iter()
            .map(|f| format!("\"{f}\":{{\"cases\":[{{\"observed_states_total\":0}}]}}"))
            .collect();
        let doc = format!(
            "{{\"schema\":\"sge-bench-report/v1\",\"figures\":{{{}}}}}",
            figures.join(",")
        );
        validate_report(&doc).expect("complete minimal document");
    }

    #[test]
    fn validator_grandfathers_pre_counter_records() {
        // The committed BENCH_pr4.json predates the counter columns and must
        // keep validating; a current-format record without them must not.
        let figures: Vec<String> = EXPECTED_FIGURES
            .iter()
            .map(|f| format!("\"{f}\":{{}}"))
            .collect();
        let legacy = format!(
            "{{\"schema\":\"sge-bench-report/v1\",\"pr\":\"pr4\",\"figures\":{{{}}}}}",
            figures.join(",")
        );
        validate_report(&legacy).expect("pr4-era record stays valid");
        let current = legacy.replace("\"pr\":\"pr4\"", "\"pr\":\"pr7\"");
        assert!(
            validate_report(&current)
                .unwrap_err()
                .contains("observed_states_total"),
            "current records must carry the counter columns"
        );
    }

    #[test]
    fn validator_grandfathers_pre_kernel_records() {
        // The committed BENCH_pr8.json predates the kernel_comparison figure
        // and must keep validating without it; a pr9 record must carry both
        // the figure and its prefilter column.
        let figures: Vec<String> = EXPECTED_FIGURES
            .iter()
            .filter(|f| **f != "kernel_comparison" && **f != "modular_mix")
            .map(|f| format!("\"{f}\":{{\"cases\":[{{\"observed_states_total\":0}}]}}"))
            .collect();
        let pr8 = format!(
            "{{\"schema\":\"sge-bench-report/v1\",\"pr\":\"pr8\",\"figures\":{{{}}}}}",
            figures.join(",")
        );
        validate_report(&pr8).expect("pr8-era record stays valid");
        let pr9 = pr8.replace("\"pr\":\"pr8\"", "\"pr\":\"pr9\"");
        assert!(
            validate_report(&pr9)
                .unwrap_err()
                .contains("kernel_comparison"),
            "pr9 records must carry the kernel_comparison figure"
        );
        let with_figure = pr9.replace(
            ",\"figures\":{",
            ",\"figures\":{\"kernel_comparison\":{\"cases\":[{\"prefilter_reject_rate\":0.0}]},",
        );
        validate_report(&with_figure).expect("complete pr9 record validates");
    }

    #[test]
    fn validator_grandfathers_pre_modular_mix_records() {
        // The committed BENCH_pr9.json and BENCH_pr10.json predate the
        // modular_mix figure and must keep validating without it; a current
        // record must carry the figure.
        let figures: Vec<String> = EXPECTED_FIGURES
            .iter()
            .filter(|f| **f != "modular_mix")
            .map(|f| {
                format!(
                    "\"{f}\":{{\"cases\":[{{\"observed_states_total\":0,\
                     \"prefilter_reject_rate\":0.0}}]}}"
                )
            })
            .collect();
        let pr10 = format!(
            "{{\"schema\":\"sge-bench-report/v1\",\"pr\":\"pr10\",\"figures\":{{{}}}}}",
            figures.join(",")
        );
        validate_report(&pr10).expect("pr10-era record stays valid");
        let pr9 = pr10.replace("\"pr\":\"pr10\"", "\"pr\":\"pr9\"");
        validate_report(&pr9).expect("pr9-era record stays valid");
        let current = pr10.replace("\"pr\":\"pr10\"", "\"pr\":\"pr13\"");
        assert!(
            validate_report(&current)
                .unwrap_err()
                .contains("modular_mix"),
            "current records must carry the modular_mix figure"
        );
        let with_figure = current.replace(
            ",\"figures\":{",
            ",\"figures\":{\"modular_mix\":{\"bitmap_ops\":1},",
        );
        validate_report(&with_figure).expect("complete current record validates");
    }

    #[test]
    fn committed_records_still_validate() {
        for (name, text) in [
            ("BENCH_pr4.json", include_str!("../../../BENCH_pr4.json")),
            ("BENCH_pr7.json", include_str!("../../../BENCH_pr7.json")),
            ("BENCH_pr8.json", include_str!("../../../BENCH_pr8.json")),
            ("BENCH_pr9.json", include_str!("../../../BENCH_pr9.json")),
            ("BENCH_pr10.json", include_str!("../../../BENCH_pr10.json")),
        ] {
            validate_report(text).unwrap_or_else(|err| panic!("{name}: {err}"));
        }
    }

    #[test]
    fn median_is_order_insensitive() {
        let mut calls = 0;
        let median = median_seconds(3, || calls += 1);
        assert_eq!(calls, 3);
        assert!(median >= 0.0);
    }
}
