//! The figure registry and the machine-readable record (`BENCH_pr<N>.json`).
//!
//! Every figure is one function returning one typed [`Table`]: the paper's
//! tables and figures first, in paper order (see [`crate::experiments`]),
//! then the record figures below, which time the hot path.  The
//! `bench-report` binary prints a figure's table as text; with `--out` it
//! runs every figure and writes one JSON document:
//!
//! ```json
//! {
//!   "schema": "sge-bench-report/v1",
//!   "repeats": 5,
//!   "host_parallelism": 2,
//!   "figures": {
//!     "<figure>": {
//!       "cases": [{ "<column>": <value>, ... }],
//!       "<extra>": <value>
//!     }
//!   }
//! }
//! ```
//!
//! A case holds one table row, keyed by the table's column names, at full
//! precision.  The scheduler-sweep figures (`fig3_work_stealing`,
//! `batch_throughput`, `dense_target`) have one case per scheduler, `name`d
//! `sequential`, `ws4_stealing` or `ws4_no_stealing`, with these columns:
//!
//! * `intersection_seconds` — median wall time of the case (the committed
//!   records up to `BENCH_pr10.json` also carry two columns timing a
//!   since-removed candidate generator),
//! * `speedup_vs_sequential` — the figure's sequential median divided by
//!   this case's median,
//! * `observed_states_total` / `steals_total` / `worker_states_stddev_mean`
//!   — the consistency checks and successful steals a
//!   [`sge::obs::TraceSink`] records, and the mean per-run standard
//!   deviation of worker states, over one extra *untimed* instrumented pass
//!   of the case's workload (the timed passes stay sink-free, preserving the
//!   zero-overhead contract).  States are schedule-invariant — identical
//!   across the scheduler cases of a figure — while steals and the worker
//!   spread depend on the scheduler.
//!
//! `adaptive_dispatch` times routing through the real service against the
//! pinned schedulers it chooses between, `kernel_comparison` times the three
//! intersection kernels per density tier, and `modular_mix` runs a
//! triangle-class query mix against a modular clique-community target.

use crate::config::Settings;
use crate::experiments::{self, collection};
use crate::report::{Cell, Table};
use sge::obs::TraceSink;
use sge::prelude::*;
use sge_datasets::{Collection, CollectionKind};
use sge_graph::{generators, io::write_graph};
use sge_ri::kernels::WIDTH_RATIO;
use sge_util::RunningStats;
use sge_wire::json::Json;
use std::sync::Arc;
use std::time::Instant;

/// A figure: one typed table from the settings.
pub type FigureFn = fn(&Settings) -> Table;

/// Every figure: the paper's in paper order, then the record's.
pub const FIGURES: [(&str, FigureFn); 18] = [
    ("table1", experiments::table1),
    ("fig3_work_stealing", fig3_work_stealing),
    ("fig4", experiments::fig4),
    ("table2", experiments::table2),
    ("fig5", experiments::fig5),
    ("fig6", experiments::fig6),
    ("fig7", experiments::fig7),
    ("fig8", experiments::fig8),
    ("fig9", experiments::fig9),
    ("fig10", experiments::fig10),
    ("fig11", experiments::fig11),
    ("fig12", experiments::fig12),
    ("table3", experiments::table3),
    ("batch_throughput", batch_throughput),
    ("dense_target", dense_target),
    ("adaptive_dispatch", adaptive_dispatch),
    ("kernel_comparison", kernel_comparison),
    ("modular_mix", modular_mix),
];

/// The registry entry called `name`.
pub(crate) fn figure(name: &str) -> Option<(&'static str, FigureFn)> {
    FIGURES.iter().copied().find(|(n, _)| *n == name)
}

/// The median of `samples`; an even count averages the two middle samples.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    (samples[(n - 1) / 2] + samples[n / 2]) / 2.0
}

/// Median of `repeats` wall-time samples of `work`.
fn median_seconds(repeats: usize, mut work: impl FnMut()) -> f64 {
    median(
        (0..repeats.max(1))
            .map(|_| {
                let start = Instant::now();
                work();
                start.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// The scheduler sweep of the engine-set figures, sequential first.
fn schedulers() -> [(&'static str, Scheduler); 3] {
    [
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
/// instrumented pass attaches [`TraceSink`]s, and the zero-overhead
/// contract only holds for engines without one.
fn sweep_engine_set(title: &str, engines: &mut [Engine<'_>], repeats: usize) -> Table {
    let timed: Vec<f64> = schedulers()
        .iter()
        .map(|&(_, scheduler)| {
            median_seconds(repeats, || {
                for engine in engines.iter() {
                    std::hint::black_box(engine.run(&RunConfig::new(scheduler)).matches);
                }
            })
        })
        .collect();
    let mut table = Table::new(
        title,
        &[
            "name",
            "intersection_seconds",
            "speedup_vs_sequential",
            "observed_states_total",
            "steals_total",
            "worker_states_stddev_mean",
        ],
    );
    for ((name, scheduler), &seconds) in schedulers().into_iter().zip(&timed) {
        let (states, steals, stddev) = instrumented_pass(engines, scheduler);
        table.row(vec![
            name.into(),
            Cell::Seconds(seconds),
            Cell::Ratio(timed[0] / seconds.max(1e-12)),
            states.into(),
            steals.into(),
            Cell::Ratio(stddev),
        ]);
    }
    table
}

/// One untimed instrumented pass over the workload: attaches a fresh
/// [`TraceSink`] to every engine, runs the count-only sweep once under
/// `scheduler`, and returns the observed consistency checks and the
/// outcomes' successful steals summed across the set, and the mean per-run
/// standard deviation of worker states.
fn instrumented_pass(engines: &mut [Engine<'_>], scheduler: Scheduler) -> (u64, u64, f64) {
    let (mut states, mut steals, mut stddev) = (0u64, 0u64, RunningStats::new());
    for engine in engines.iter_mut() {
        let sink = Arc::new(TraceSink::new(engine.plan().num_positions()));
        engine.set_trace_sink(Arc::clone(&sink));
        let outcome = engine.run(&RunConfig::new(scheduler));
        stddev.push(outcome.worker_states_stddev);
        states += sink.states_total();
        steals += outcome.steals;
    }
    (states, steals, stddev.mean())
}

/// The PPIS32-like collection a record figure enumerates whole: the smoke
/// preset's, or the one at `scale` outside smoke runs.
fn record_collection(settings: &Settings, scale: f64) -> Collection {
    let smoke = Settings::smoke();
    let scale = if settings.smoke { smoke.scale } else { scale };
    collection(CollectionKind::Ppis32, &Settings { scale, ..smoke })
}

/// **Fig. 3** — the effect of work stealing on a PPIS32 sample: mean match
/// time and the spread of the per-worker search space, with and without
/// stealing.  The whole collection is enumerated per sample (single
/// instances of the smoke collection finish in microseconds, below timer
/// resolution); outside smoke runs its scale makes search time dominate the
/// per-run cost of handing shares to the pooled helpers.
pub fn fig3_work_stealing(settings: &Settings) -> Table {
    let coll = record_collection(settings, 1.5);
    let mut engines: Vec<Engine<'_>> = coll
        .instances
        .iter()
        .map(|i| Engine::prepare(&i.pattern, coll.target_of(i), Algorithm::RiDs))
        .collect();
    sweep_engine_set(
        "Fig. 3: work stealing vs none (4 workers, PPIS32 sample, median wall seconds)",
        &mut engines,
        settings.repeats,
    )
}

/// The grid target the `batch_throughput` figure (engine-level cases *and*
/// the service pass) runs against.
fn batch_target(settings: &Settings) -> Graph {
    if settings.smoke {
        generators::grid(6, 6)
    } else {
        generators::grid(16, 16)
    }
}

/// The 100-pattern shape zoo of the `batch_throughput` figure.
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
/// grid target, engines prepared once (prepared-cache semantics), runs
/// timed; plus the same batch through the service.
pub fn batch_throughput(settings: &Settings) -> Table {
    let target = batch_target(settings);
    let patterns = zoo_patterns();
    let mut engines: Vec<Engine<'_>> = patterns
        .iter()
        .map(|p| Engine::prepare(p, &target, Algorithm::RiDsSiFc))
        .collect();
    let mut table = sweep_engine_set(
        "batch throughput: 100-pattern zoo on a grid (median wall seconds)",
        &mut engines,
        settings.repeats,
    );
    table.extra(
        "service_queries_per_second",
        Cell::Ratio(service_queries_per_second(settings)),
    );
    table
}

/// The 100-pattern batch through the *real* service stack (registry, parse,
/// prepared cache, admission control), reported as the median queries/second
/// over `settings.repeats` passes against the same target size the
/// `batch_throughput` engine-level cases use.
fn service_queries_per_second(settings: &Settings) -> f64 {
    let service = Service::new(ServiceConfig {
        cache_capacity: 32,
        batch_workers: 4,
        max_in_flight: 8,
        ..ServiceConfig::default()
    });
    service.registry().insert("grid", batch_target(settings));
    let mut set = QuerySet::new("grid");
    for pattern in zoo_patterns() {
        set.push(QuerySpec::new(write_graph(&pattern)));
    }
    median(
        (0..settings.repeats.max(1))
            .map(|_| {
                let outcome = service.run_batch(&set);
                assert_eq!(outcome.succeeded(), 100, "batch must fully succeed");
                outcome.queries_per_second()
            })
            .collect(),
    )
}

/// Figure `dense_target`: small cyclic patterns in cliques — the workload
/// where the multi-parent intersection prunes hardest.
pub fn dense_target(settings: &Settings) -> Table {
    let clique_nodes = if settings.smoke { 12 } else { 32 };
    let pattern = generators::directed_cycle(4, 0);
    let target = generators::clique(clique_nodes, 0);
    sweep_engine_set(
        "dense target: directed 4-cycle in a clique (median wall seconds)",
        &mut [Engine::prepare(&pattern, &target, Algorithm::RiDs)],
        settings.repeats,
    )
}

/// Figure `adaptive_dispatch`: routed scheduling through the real service
/// stack next to the pinned baselines it chooses between.  The ws4
/// regression BENCH_pr3/pr4 documented (work-stealing at a fraction of
/// sequential on small instances) is exactly what routing removes: the
/// probe estimate stays below the sequential threshold, so the routed run
/// takes the count-only sequential fast path instead of paying the
/// task-distribution overhead.  `est_error` is how far that estimate is
/// from the states the routed run observed: `max(observed / est, est /
/// observed)`, each side at least 1.
pub fn adaptive_dispatch(settings: &Settings) -> Table {
    let service = Service::new(ServiceConfig {
        cache_capacity: 16,
        batch_workers: 1,
        max_in_flight: 4,
        ..ServiceConfig::default()
    });
    service.registry().insert("grid", batch_target(settings));
    service.registry().insert(
        "clique",
        generators::clique(if settings.smoke { 12 } else { 24 }, 0),
    );
    let workloads: [(&'static str, &'static str, Graph); 3] = [
        ("triangle_grid", "grid", generators::directed_cycle(3, 0)),
        ("path4_grid", "grid", generators::directed_path(4, 0)),
        ("cycle4_clique", "clique", generators::directed_cycle(4, 0)),
    ];
    let mut table = Table::new(
        "adaptive dispatch (median wall seconds through the service)",
        &[
            "name",
            "sequential_seconds",
            "ws4_seconds",
            "routed_seconds",
            "routed_scheduler",
            "routed_vs_sequential",
            "routed_vs_ws4",
            "est_error",
        ],
    );
    for (name, target, pattern) in workloads {
        let text = write_graph(&pattern);
        let seq_spec = QuerySpec::new(&text).with_run(RunConfig::new(Scheduler::Sequential));
        let ws4_spec = QuerySpec::new(&text).with_run(RunConfig::new(Scheduler::work_stealing(4)));
        let routed_spec = QuerySpec::new(&text);
        // Warm the prepared cache so every timed pass runs cache-hit, like
        // a steady-state server would.
        for spec in [&seq_spec, &ws4_spec, &routed_spec] {
            service
                .run_query(target, spec)
                .expect("dispatch warmup query must succeed");
        }
        let time_spec = |spec: &QuerySpec| {
            median_seconds(settings.repeats, || {
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
        let explain = service
            .explain(target, &routed_spec)
            .expect("routed explain must succeed");
        let observed = (routed_outcome.outcome.states as f64).max(1.0);
        let estimated = explain.engine.estimate().est_total_states.max(1.0);
        table.row(vec![
            name.into(),
            Cell::Seconds(sequential_seconds),
            Cell::Seconds(ws4_seconds),
            Cell::Seconds(routed_seconds),
            routed_outcome.outcome.scheduler.name().into(),
            Cell::Ratio(sequential_seconds / routed_seconds.max(1e-12)),
            Cell::Ratio(ws4_seconds / routed_seconds.max(1e-12)),
            Cell::Ratio((observed / estimated).max(estimated / observed)),
        ]);
    }
    table
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
/// relative to everything the prefilter inspected.  Plain RI is the only
/// probe: arc-consistent RI-DS domains imply the prefilter's degree
/// minimums and signature bits, so a plan with domains runs no prefilter
/// (it would read 0 everywhere).  On targets where no neighborhood earns a
/// row the one-shot preparation attaches no sidecar and both numbers are
/// zero — that non-decision is part of the figure.
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

/// Figure `kernel_comparison`: the two-pointer merge (`scalar`), the CSR
/// kernel `intersect_gallop` (`vectorized`, the record's name for it) and
/// the bitmap AND over one identical workload per tier — the tier's
/// `kernel_pairs`, seeding the candidate buffer with one node's
/// out-neighborhood and intersecting it against the other's — plus the
/// candidate-prefilter verdict from one instrumented enumeration of the
/// tier's target.  Every tier's rows come from
/// [`sge_graph::AdjacencyBitmaps::every_row`], so the AND is timed where the
/// row rule declines rows too: `wide_ppi_hubs` pairs the hubs of the
/// PPIS32-like benchmark target, whose 88-word rows no neighborhood earns,
/// and `ppi_probe` pairs its sparsest nodes with hubs more than
/// `WIDTH_RATIO`× wider, the gallop kernel's probe bucket that serving PPI
/// queries take most.
pub fn kernel_comparison(settings: &Settings) -> Table {
    use sge_ri::kernels::{and_rows, collect_row};

    let ppi = ppi_target(settings.smoke);
    let tiers: Vec<(&'static str, Graph, Pairing)> = if settings.smoke {
        vec![
            ("sparse_grid", generators::grid(6, 6), Pairing::Hubs),
            ("medium_clique", generators::clique(8, 0), Pairing::Hubs),
            ("dense_clique", generators::clique(16, 0), Pairing::Hubs),
            ("dense_fringe", dense_core_with_fringe(24, 8), Pairing::Hubs),
            ("wide_ppi_hubs", ppi.clone(), Pairing::Hubs),
            ("ppi_probe", ppi, Pairing::Probe),
        ]
    } else {
        vec![
            ("sparse_grid", generators::grid(16, 16), Pairing::Hubs),
            ("medium_clique", generators::clique(16, 0), Pairing::Hubs),
            ("dense_clique", generators::clique(48, 0), Pairing::Hubs),
            (
                "dense_fringe",
                dense_core_with_fringe(32, 16),
                Pairing::Hubs,
            ),
            ("wide_ppi_hubs", ppi.clone(), Pairing::Hubs),
            ("ppi_probe", ppi, Pairing::Probe),
        ]
    };
    // Enough intersections per timed sample to clear timer resolution.
    let rounds = if settings.smoke { 4 } else { 16 };

    let mut table = Table::new(
        "kernel comparison (median wall seconds per intersection sweep)",
        &[
            "name",
            "scalar_seconds",
            "vectorized_seconds",
            "bitmap_seconds",
            "speedup_vectorized_vs_scalar",
            "speedup_bitmap_vs_scalar",
            "prefilter_rejected",
            "prefilter_reject_rate",
        ],
    );
    for (name, target, pairing) in tiers {
        let sidecar = sge_graph::AdjacencyBitmaps::every_row(&target);
        let pairs = kernel_pairs(&target, pairing);
        let mut buffer: Vec<u32> = Vec::new();
        let scalar_seconds = median_seconds(settings.repeats, || {
            for _ in 0..rounds {
                for &(u, w) in &pairs {
                    seed_out(&target, u, &mut buffer);
                    sge_ri::intersect_reference(&mut buffer, target.out_edges(w), 0);
                    std::hint::black_box(buffer.len());
                }
            }
        });
        let vectorized_seconds = median_seconds(settings.repeats, || {
            for _ in 0..rounds {
                for &(u, w) in &pairs {
                    seed_out(&target, u, &mut buffer);
                    std::hint::black_box(sge_ri::intersect_gallop(
                        &mut buffer,
                        target.out_edges(w),
                        0,
                    ));
                }
            }
        });
        let mut scratch: Vec<u64> = vec![0; sidecar.words_per_row()];
        let bitmap_seconds = median_seconds(settings.repeats, || {
            for _ in 0..rounds {
                for &(u, w) in &pairs {
                    let (Some(row_u), Some(row_w)) = (sidecar.out_row(u, 0), sidecar.out_row(w, 0))
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
        });
        let (prefilter_rejected, prefilter_reject_rate) = prefilter_verdict(&target);
        table.row(vec![
            name.into(),
            Cell::Seconds(scalar_seconds),
            Cell::Seconds(vectorized_seconds),
            Cell::Seconds(bitmap_seconds),
            Cell::Ratio(scalar_seconds / vectorized_seconds.max(1e-12)),
            Cell::Ratio(scalar_seconds / bitmap_seconds.max(1e-12)),
            prefilter_rejected.into(),
            Cell::Ratio(prefilter_reject_rate),
        ]);
    }
    table
}

/// The benchmark's PPIS32-like target: 5,600 nodes, 700 in smoke runs.
fn ppi_target(smoke: bool) -> Graph {
    let seed = 20170525;
    let scale = if smoke { 1.0 } else { 8.0 };
    sge_datasets::generate_target(
        &sge_datasets::ppis32_like(scale, seed).targets[2],
        seed.wrapping_add(2 * 7919),
        "ppis32-t2",
    )
}

/// How a [`kernel_comparison`] tier pairs candidate buffers with the lists
/// they meet.
#[derive(Clone, Copy)]
enum Pairing {
    /// Every ordered pair of the target's 64 nodes of largest out-degree.
    Hubs,
    /// Each of the 64 lowest-degree nodes with a label-0 out-neighbor
    /// against each of those hubs whose out-list is more than `WIDTH_RATIO`×
    /// longer than that neighborhood.
    Probe,
}

/// The `(u, w)` pairs a [`kernel_comparison`] tier times: the buffer holds
/// `u`'s label-0 out-neighbors ([`seed_out`]) and meets `w`'s out-list.
fn kernel_pairs(target: &Graph, pairing: Pairing) -> Vec<(u32, u32)> {
    const MAX_SAMPLED_NODES: usize = 64;
    let mut by_degree: Vec<u32> = target.nodes().collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(target.out_degree(v)));
    let hubs = &by_degree[..by_degree.len().min(MAX_SAMPLED_NODES)];
    let seed_len = |u: u32| target.out_edges(u).iter().filter(|e| e.label == 0).count();
    match pairing {
        Pairing::Hubs => hubs
            .iter()
            .flat_map(|&u| hubs.iter().map(move |&w| (u, w)))
            .collect(),
        Pairing::Probe => {
            let sparse = by_degree.iter().rev().filter(|&&u| seed_len(u) > 0);
            let wide = |u: u32, w: u32| target.out_degree(w) > WIDTH_RATIO * seed_len(u);
            sparse
                .take(MAX_SAMPLED_NODES)
                .flat_map(|&u| {
                    hubs.iter()
                        .filter(move |&&w| wide(u, w))
                        .map(move |&w| (u, w))
                })
                .collect()
        }
    }
}

/// Seeds `out` with `u`'s label-0 out-neighbors.
fn seed_out(target: &Graph, u: u32, out: &mut Vec<u32>) {
    out.clear();
    out.extend(
        target
            .out_edges(u)
            .iter()
            .filter(|e| e.label == 0)
            .map(|e| e.node),
    );
}

/// Figure `modular_mix`: a directed 3-cycle, a directed 3-path and a
/// 3-clique, sequential and cache-hot, against eight clique communities on a
/// bridge ring (`clique(64)` each, `clique(24)` in smoke runs) through the
/// single registry.  Every neighborhood of the target earns a bitmap row, so
/// every constrained step ANDs rows; `bitmap_ops` counts the rows ANDed over
/// one pass of the mix.
pub fn modular_mix(settings: &Settings) -> Table {
    use sge_datasets::{generate_modular, ModularSpec};
    let size = if settings.smoke { 24 } else { 64 };
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
    let mix_seconds = median_seconds(settings.repeats, || {
        for spec in &specs {
            std::hint::black_box(run(spec).matches);
        }
    });
    let mut table = Table::new(
        "modular mix (single registry, median wall seconds)",
        &[
            "mix_seconds",
            "queries_per_second",
            "matches_total",
            "bitmap_ops",
        ],
    );
    table.row(vec![
        Cell::Seconds(mix_seconds),
        Cell::Ratio(specs.len() as f64 / mix_seconds.max(1e-12)),
        matches_total.into(),
        bitmap_ops.into(),
    ]);
    table
}

/// Renders the record of a run of every figure.
///
/// The record carries `host_parallelism` so trajectory readers can interpret
/// the ws4 cases: on a single-core host the parallel schedulers can never
/// beat sequential (`speedup_vs_sequential` < 1 measures scheduling
/// overhead).
pub fn render_record(settings: &Settings, tables: &[(&str, Table)]) -> String {
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("repeats", Json::U64(settings.repeats as u64)),
        ("host_parallelism", Json::U64(host_parallelism as u64)),
        (
            "figures",
            Json::obj(
                tables
                    .iter()
                    .map(|(name, table)| (*name, table.to_json()))
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// The record's schema marker.
const SCHEMA: &str = "sge-bench-report/v1";

/// Validates a record's shape: the document must be syntactically valid
/// JSON, carry the schema marker and hold every registered figure.  Timings
/// are data, not verdicts: perf regressions are the benchmark harness's
/// call, never this validator's.
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
    if !text.contains(&format!("\"schema\":\"{SCHEMA}\"")) {
        return Err("missing or unexpected schema marker".to_string());
    }
    match FIGURES
        .iter()
        .find(|(name, _)| !text.contains(&format!("\"{name}\":")))
    {
        Some((name, _)) => Err(format!("missing figure key '{name}'")),
        None => Ok(()),
    }
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

    /// Every case and figure-level key of the record before the registry,
    /// which a fresh record must keep so it diffs against the committed ones.
    const RECORD_KEYS: [&str; 25] = [
        "schema",
        "repeats",
        "host_parallelism",
        "figures",
        "cases",
        "name",
        "intersection_seconds",
        "speedup_vs_sequential",
        "observed_states_total",
        "steals_total",
        "service_queries_per_second",
        "sequential_seconds",
        "ws4_seconds",
        "routed_seconds",
        "routed_scheduler",
        "routed_vs_sequential",
        "routed_vs_ws4",
        "scalar_seconds",
        "vectorized_seconds",
        "bitmap_seconds",
        "speedup_vectorized_vs_scalar",
        "speedup_bitmap_vs_scalar",
        "prefilter_rejected",
        "prefilter_reject_rate",
        "bitmap_ops",
    ];

    #[test]
    fn smoke_report_emits_every_figure_and_validates() {
        let settings = Settings {
            repeats: 1,
            ..Settings::smoke()
        };
        let tables: Vec<(&str, Table)> = FIGURES
            .iter()
            .map(|&(name, run)| (name, run(&settings)))
            .collect();
        for (name, table) in &tables {
            assert!(!table.is_empty(), "{name} renders no row");
        }
        let report = render_record(&settings, &tables);
        validate_report(&report).expect("fresh report must validate");
        // The figures object holds exactly the registry: each name once, and
        // one `cases` array per figure.
        for (name, _) in FIGURES {
            assert_eq!(report.matches(&format!("\"{name}\":")).count(), 1, "{name}");
        }
        assert_eq!(report.matches(":{\"cases\":[").count(), FIGURES.len());
        for key in RECORD_KEYS {
            assert!(report.contains(&format!("\"{key}\":")), "{key}");
        }
        assert!(!report.contains("\"pr\":"), "records carry no PR label");
        // Every neighborhood of the smoke modular target earns a row, so the
        // mix ANDs rows.
        let bitmap_ops: u64 = report
            .split("\"bitmap_ops\":")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse().ok())
            .expect("modular_mix carries bitmap_ops");
        assert!(bitmap_ops > 0);
    }

    fn document(figures: &[&str]) -> String {
        let figures: Vec<String> = figures
            .iter()
            .map(|f| format!("\"{f}\":{{\"cases\":[]}}"))
            .collect();
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"figures\":{{{}}}}}",
            figures.join(",")
        )
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_report("{").is_err());
        assert!(validate_report("{}").is_err(), "schema marker required");
        assert!(validate_report("not json at all").is_err());
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        for missing in 0..names.len() {
            let mut partial = names.clone();
            partial.remove(missing);
            let err = validate_report(&document(&partial)).unwrap_err();
            assert!(err.contains(names[missing]), "{err}");
        }
        let complete = document(&names);
        assert!(validate_report(&complete[..complete.len() - 1]).is_err());
    }

    #[test]
    fn validator_accepts_minimal_complete_documents() {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        validate_report(&document(&names)).expect("complete minimal document");
    }

    #[test]
    fn the_probe_tier_takes_the_gallop_bucket_and_the_hub_tier_merges() {
        use sge_ri::kernels::GallopRoute;
        let target = ppi_target(true);
        let route = |pairing| {
            let pairs = kernel_pairs(&target, pairing);
            let mut buffer = Vec::new();
            let routes = pairs.iter().map(|&(u, w)| {
                seed_out(&target, u, &mut buffer);
                sge_ri::intersect_gallop(&mut buffer, target.out_edges(w), 0)
            });
            (pairs.len(), routes.collect::<Vec<_>>())
        };
        let (probes, routes) = route(Pairing::Probe);
        assert!(probes >= 64, "{probes} probe pairs");
        assert!(routes.iter().all(|&r| r == GallopRoute::Gallop));
        let (hubs, routes) = route(Pairing::Hubs);
        assert_eq!(hubs, 64 * 64);
        assert!(routes.iter().all(|&r| r == GallopRoute::Merge));
    }

    #[test]
    fn median_is_order_insensitive() {
        let mut calls = 0;
        let median = median_seconds(3, || calls += 1);
        assert_eq!(calls, 3);
        assert!(median >= 0.0);
    }

    #[test]
    fn median_of_an_even_count_averages_the_middle_samples() {
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(vec![1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(vec![5.0]), 5.0);
        assert_eq!(median(vec![1.0, 9.0, 5.0]), 5.0);
    }
}
