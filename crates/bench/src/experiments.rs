//! One function per table / figure of the paper's evaluation.
//!
//! Every function generates its workload from the synthetic collections,
//! executes the relevant algorithm variants through the unified `sge::Engine`
//! and returns a typed table whose rows correspond to what the paper plots.
//! Absolute times differ from the paper (synthetic data, different hardware);
//! the targeted quantities are the *shapes*: which variant wins, how the
//! search space shrinks from RI-DS to RI-DS-SI-FC, how steal counts react to
//! the task-group size, and how speedups split short/long.  Fig. 3 is
//! [`crate::bench_report::fig3_work_stealing`], which shares the record
//! figures' timed scheduler sweep.

use crate::config::Settings;
use crate::records::{
    run_instances, speedup_pairs, split_short_long, totals_by_instance, InstanceRecord,
};
use crate::report::{Cell, Table};
use sge::Scheduler;
use sge_datasets::{graemlin32_like, pdbsv1_like, ppis32_like, Collection, CollectionKind};
use sge_ri::Algorithm;
use sge_util::{RunningStats, SpeedupSummary};

/// Generates the synthetic analogue of one of the paper's collections.
pub fn collection(kind: CollectionKind, settings: &Settings) -> Collection {
    let spec = match kind {
        CollectionKind::Ppis32 => ppis32_like(settings.scale, settings.seed),
        CollectionKind::Graemlin32 => graemlin32_like(settings.scale, settings.seed ^ 0x1),
        CollectionKind::PdbsV1 => pdbsv1_like(settings.scale, settings.seed ^ 0x2),
    };
    Collection::generate(&spec)
}

/// Mean of `value` over the records' outcomes (0 for none).
fn mean<'a>(
    records: impl IntoIterator<Item = &'a InstanceRecord>,
    value: impl Fn(&sge::EnumerationOutcome) -> f64,
) -> f64 {
    let mut stats = RunningStats::new();
    for record in records {
        stats.push(value(&record.outcome));
    }
    stats.mean()
}

/// The work-stealing scheduler with the paper's task-group default at every
/// swept worker count, preceded by `first`.
fn worker_sweep(first: Option<Scheduler>, workers: &[usize]) -> Vec<Scheduler> {
    first
        .into_iter()
        .chain(workers.iter().map(|&w| Scheduler::work_stealing(w)))
        .collect()
}

/// The three RI-DS variants.
const RI_DS_VARIANTS: [Algorithm; 3] = [Algorithm::RiDs, Algorithm::RiDsSi, Algorithm::RiDsSiFc];

/// The two parallel variants of Figs. 10 and 11.
const PARALLEL_VARIANTS: [(&str, Algorithm); 2] = [
    ("parallel RI-DS", Algorithm::RiDs),
    ("parallel RI-DS-SI-FC", Algorithm::RiDsSiFc),
];

/// Sequential records of `algorithm` over the collection.
fn sequential(coll: &Collection, algorithm: Algorithm, settings: &Settings) -> Vec<InstanceRecord> {
    run_instances(coll, algorithm, &[Scheduler::Sequential], settings).remove(0)
}

/// **Table 1** — collection statistics (graphs, node/edge ranges, degree µ/σ).
pub fn table1(settings: &Settings) -> Table {
    let mut table = Table::new(
        "Table 1: graph data collections (synthetic analogues)",
        &[
            "collection",
            "graphs",
            "|V| min/max",
            "|E| min/max",
            "deg µ",
            "deg σ",
        ],
    );
    for kind in CollectionKind::ALL {
        let stats = collection(kind, settings).stats();
        table.row(vec![
            kind.name().into(),
            stats.graphs.into(),
            format!("{}/{}", stats.nodes_min, stats.nodes_max).into(),
            format!("{}/{}", stats.edges_min, stats.edges_max).into(),
            Cell::Ratio(stats.degree_mean),
            Cell::Ratio(stats.degree_stddev),
        ]);
    }
    table
}

/// **Fig. 4** — task-coalescing sweep: mean match time and mean number of
/// steals per task-group size and worker count, per collection.
pub fn fig4(settings: &Settings) -> Table {
    let mut table = Table::new(
        "Fig. 4: task group size vs match time and steals",
        &[
            "collection",
            "workers",
            "group size",
            "mean match time (s)",
            "mean steals",
        ],
    );
    let sweep: Vec<(usize, usize)> = settings
        .workers
        .iter()
        .filter(|&&w| w > 1)
        .flat_map(|&w| settings.task_group_sizes.iter().map(move |&g| (w, g)))
        .collect();
    let schedulers: Vec<Scheduler> = sweep
        .iter()
        .map(|&(workers, task_group_size)| Scheduler::WorkStealing {
            workers,
            task_group_size,
            stealing: true,
        })
        .collect();
    for kind in CollectionKind::ALL {
        let algorithm = if kind == CollectionKind::PdbsV1 {
            Algorithm::Ri
        } else {
            Algorithm::RiDs
        };
        let coll = collection(kind, settings);
        let matrix = run_instances(&coll, algorithm, &schedulers, settings);
        for (&(workers, group), records) in sweep.iter().zip(&matrix) {
            table.row(vec![
                kind.name().into(),
                workers.into(),
                group.into(),
                Cell::Seconds(mean(records, |o| o.match_seconds)),
                Cell::Ratio(mean(records, |o| o.steals as f64)),
            ]);
        }
    }
    table
}

/// The speedup columns of Tables 2 and 3.
const SPEEDUP_HEADERS: [&str; 7] = [
    "collection",
    "workers",
    "group",
    "instances",
    "avg",
    "gmean",
    "max",
];

/// Appends the rows of Tables 2 and 3: the speedup of `algorithm` on `kind`
/// at every worker count above one over its one-worker run, for all / short
/// / long instances.  One preparation per instance serves every worker
/// count (the engine's amortized-preprocessing sweep).
fn speedup_rows(
    table: &mut Table,
    kind: CollectionKind,
    algorithm: Algorithm,
    settings: &Settings,
) {
    let workers: Vec<usize> = settings
        .workers
        .iter()
        .copied()
        .filter(|&w| w > 1)
        .collect();
    let schedulers = worker_sweep(Some(Scheduler::work_stealing(1)), &workers);
    let matrix = run_instances(
        &collection(kind, settings),
        algorithm,
        &schedulers,
        settings,
    );
    let threshold = settings.long_threshold_secs;
    let totals = totals_by_instance(&matrix[0]);
    let (base_short, base_long) = split_short_long(&matrix[0], &totals, threshold);
    let base_all: Vec<&InstanceRecord> = matrix[0].iter().collect();
    for (&workers, records) in workers.iter().zip(&matrix[1..]) {
        let (short, long) = split_short_long(records, &totals, threshold);
        for (group, base, variant) in [
            ("all", &base_all, records.iter().collect()),
            ("short", &base_short, short),
            ("long", &base_long, long),
        ] {
            let summary = SpeedupSummary::from_pairs(&speedup_pairs(base, &variant));
            table.row(vec![
                kind.name().into(),
                workers.into(),
                group.into(),
                summary.instances.into(),
                Cell::Ratio(summary.avg),
                Cell::Ratio(summary.gmean),
                Cell::Ratio(summary.max),
            ]);
        }
    }
}

/// **Table 2** — speedup of parallel RI over one worker on PDBSv1, for all /
/// short / long instances (avg, gmean, max).
pub fn table2(settings: &Settings) -> Table {
    let mut table = Table::new(
        "Table 2: speedup of parallel RI over 1 worker (PDBSv1)",
        &SPEEDUP_HEADERS,
    );
    speedup_rows(&mut table, CollectionKind::PdbsV1, Algorithm::Ri, settings);
    table
}

/// **Fig. 5** — number of timed-out instances on PDBSv1: sequential RI (the
/// stand-in for the original RI 3.6) vs parallel RI by worker count.
pub fn fig5(settings: &Settings) -> Table {
    let mut table = Table::new(
        format!(
            "Fig. 5: timed out instances on PDBSv1 (limit {:.2} s)",
            settings.time_limit.as_secs_f64()
        ),
        &["algorithm", "workers", "timed out", "instances"],
    );
    let coll = collection(CollectionKind::PdbsV1, settings);
    let schedulers = worker_sweep(Some(Scheduler::Sequential), &settings.workers);
    let matrix = run_instances(&coll, Algorithm::Ri, &schedulers, settings);
    for (scheduler, records) in schedulers.iter().zip(&matrix) {
        let label = if scheduler.is_sequential() {
            "sequential RI"
        } else {
            "parallel RI"
        };
        let timed_out = records.iter().filter(|r| r.outcome.timed_out).count();
        table.row(vec![
            label.into(),
            scheduler.workers().into(),
            timed_out.into(),
            records.len().into(),
        ]);
    }
    table
}

/// **Fig. 6** — mean match time on long-running PDBSv1 instances as the worker
/// count grows.
pub fn fig6(settings: &Settings) -> Table {
    let mut table = Table::new(
        "Fig. 6: mean match time on long PDBSv1 instances",
        &["workers", "long instances", "mean match time (s)"],
    );
    let coll = collection(CollectionKind::PdbsV1, settings);
    let schedulers = worker_sweep(Some(Scheduler::work_stealing(1)), &settings.workers);
    let matrix = run_instances(&coll, Algorithm::Ri, &schedulers, settings);
    let totals = totals_by_instance(&matrix[0]);
    for (&workers, records) in settings.workers.iter().zip(&matrix[1..]) {
        let (_, long) = split_short_long(records, &totals, settings.long_threshold_secs);
        table.row(vec![
            workers.into(),
            long.len().into(),
            Cell::Seconds(mean(long, |o| o.match_seconds)),
        ]);
    }
    table
}

/// **Fig. 7** — search-space size and total time of RI-DS, RI-DS-SI and
/// RI-DS-SI-FC on short-running instances of all three collections.
pub fn fig7(settings: &Settings) -> Table {
    let mut table = Table::new(
        "Fig. 7: RI-DS variants on short instances",
        &[
            "collection",
            "algorithm",
            "mean total time (s)",
            "mean search space",
        ],
    );
    for kind in CollectionKind::ALL {
        let coll = collection(kind, settings);
        let totals = totals_by_instance(&sequential(&coll, Algorithm::RiDs, settings));
        for algorithm in RI_DS_VARIANTS {
            let records = sequential(&coll, algorithm, settings);
            let (short, _) = split_short_long(&records, &totals, settings.long_threshold_secs);
            table.row(vec![
                kind.name().into(),
                algorithm.name().into(),
                Cell::Seconds(mean(short.iter().copied(), |o| o.total_seconds())),
                Cell::Ratio(mean(short, |o| o.states as f64)),
            ]);
        }
    }
    table
}

/// **Fig. 8** — search space and search speed (states per second) of the RI-DS
/// variants on long-running PPIS32 / GRAEMLIN32 instances, single worker.
pub fn fig8(settings: &Settings) -> Table {
    let mut table = Table::new(
        "Fig. 8: RI-DS variants on long instances (search space and states/s)",
        &[
            "collection",
            "algorithm",
            "long instances",
            "mean search space",
            "mean states/s",
        ],
    );
    for kind in [CollectionKind::Ppis32, CollectionKind::Graemlin32] {
        let coll = collection(kind, settings);
        let totals = totals_by_instance(&sequential(&coll, Algorithm::RiDs, settings));
        for algorithm in RI_DS_VARIANTS {
            let records = sequential(&coll, algorithm, settings);
            let (_, long) = split_short_long(&records, &totals, settings.long_threshold_secs);
            table.row(vec![
                kind.name().into(),
                algorithm.name().into(),
                long.len().into(),
                Cell::Ratio(mean(long.iter().copied(), |o| o.states as f64)),
                Cell::Ratio(mean(long, |o| o.states_per_second())),
            ]);
        }
    }
    table
}

/// **Fig. 9** — total / match / preprocessing time of the RI-DS variants.
pub fn fig9(settings: &Settings) -> Table {
    let mut table = Table::new(
        "Fig. 9: time breakdown of the RI-DS variants",
        &[
            "collection",
            "algorithm",
            "mean total (s)",
            "mean match (s)",
            "mean preprocessing (s)",
        ],
    );
    for kind in [CollectionKind::Ppis32, CollectionKind::Graemlin32] {
        let coll = collection(kind, settings);
        for algorithm in RI_DS_VARIANTS {
            let records = sequential(&coll, algorithm, settings);
            table.row(vec![
                kind.name().into(),
                algorithm.name().into(),
                Cell::Seconds(mean(&records, |o| o.total_seconds())),
                Cell::Seconds(mean(&records, |o| o.match_seconds)),
                Cell::Seconds(mean(&records, |o| o.preprocess_seconds)),
            ]);
        }
    }
    table
}

/// **Fig. 10** — mean total time of parallel RI-DS-SI-FC, parallel RI-DS and
/// sequential RI-DS by worker count, on GRAEMLIN32 and PPIS32.
pub fn fig10(settings: &Settings) -> Table {
    let mut table = Table::new(
        "Fig. 10: total time of RI-DS variants by worker count",
        &["collection", "algorithm", "workers", "mean total time (s)"],
    );
    for kind in [CollectionKind::Graemlin32, CollectionKind::Ppis32] {
        let coll = collection(kind, settings);
        for (label, algorithm) in PARALLEL_VARIANTS {
            // RI-DS also runs sequentially: the stand-in for RI-DS 3.51.
            let first = (algorithm == Algorithm::RiDs).then_some(Scheduler::Sequential);
            let schedulers = worker_sweep(first, &settings.workers);
            let matrix = run_instances(&coll, algorithm, &schedulers, settings);
            for (scheduler, records) in schedulers.iter().zip(&matrix) {
                let label = if scheduler.is_sequential() {
                    "RI-DS 3.51 (sequential stand-in)"
                } else {
                    label
                };
                table.row(vec![
                    kind.name().into(),
                    label.into(),
                    scheduler.workers().into(),
                    Cell::Seconds(mean(records, |o| o.total_seconds())),
                ]);
            }
        }
    }
    table
}

/// **Fig. 11** — Fig. 10 split between short and long instances.
pub fn fig11(settings: &Settings) -> Table {
    let mut table = Table::new(
        "Fig. 11: total time by worker count, split short/long",
        &[
            "collection",
            "algorithm",
            "workers",
            "group",
            "instances",
            "mean total time (s)",
        ],
    );
    for kind in [CollectionKind::Graemlin32, CollectionKind::Ppis32] {
        let coll = collection(kind, settings);
        let totals = totals_by_instance(&sequential(&coll, Algorithm::RiDs, settings));
        for (label, algorithm) in PARALLEL_VARIANTS {
            let schedulers = worker_sweep(None, &settings.workers);
            let matrix = run_instances(&coll, algorithm, &schedulers, settings);
            for (&workers, records) in settings.workers.iter().zip(&matrix) {
                let (short, long) =
                    split_short_long(records, &totals, settings.long_threshold_secs);
                for (group, subset) in [("short", short), ("long", long)] {
                    table.row(vec![
                        kind.name().into(),
                        label.into(),
                        workers.into(),
                        group.into(),
                        subset.len().into(),
                        Cell::Seconds(mean(subset, |o| o.total_seconds())),
                    ]);
                }
            }
        }
    }
    table
}

/// **Fig. 12** — mean search-space size of RI-DS vs RI-DS-SI-FC, split between
/// short and long instances of GRAEMLIN32 and PPIS32.
pub fn fig12(settings: &Settings) -> Table {
    let mut table = Table::new(
        "Fig. 12: search space of RI-DS vs RI-DS-SI-FC, short/long",
        &[
            "collection",
            "algorithm",
            "group",
            "instances",
            "mean search space",
        ],
    );
    for kind in [CollectionKind::Graemlin32, CollectionKind::Ppis32] {
        let coll = collection(kind, settings);
        let totals = totals_by_instance(&sequential(&coll, Algorithm::RiDs, settings));
        for algorithm in [Algorithm::RiDs, Algorithm::RiDsSiFc] {
            let records = sequential(&coll, algorithm, settings);
            let (short, long) = split_short_long(&records, &totals, settings.long_threshold_secs);
            for (group, subset) in [("short", short), ("long", long)] {
                table.row(vec![
                    kind.name().into(),
                    algorithm.name().into(),
                    group.into(),
                    subset.len().into(),
                    Cell::Ratio(mean(subset, |o| o.states as f64)),
                ]);
            }
        }
    }
    table
}

/// **Table 3** — speedup of parallel RI-DS-SI-FC over itself with one worker on
/// GRAEMLIN32 and PPIS32, for all / short / long instances.
pub fn table3(settings: &Settings) -> Table {
    let mut table = Table::new(
        "Table 3: speedup of parallel RI-DS-SI-FC over 1 worker",
        &SPEEDUP_HEADERS,
    );
    for kind in [CollectionKind::Graemlin32, CollectionKind::Ppis32] {
        speedup_rows(&mut table, kind, Algorithm::RiDsSiFc, settings);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_report::{fig3_work_stealing, FIGURES};

    /// Smoke-test the cheap experiments end to end; the expensive sweeps are
    /// covered by dedicated tests below with an even smaller configuration.
    #[test]
    fn table1_renders_all_collections() {
        let text = table1(&Settings::smoke()).render();
        for name in ["PPIS32", "GRAEMLIN32", "PDBSv1"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn fig3_reports_both_schedulers() {
        let settings = Settings {
            repeats: 1,
            ..Settings::smoke()
        };
        let text = fig3_work_stealing(&settings).render();
        for case in ["sequential", "ws4_stealing", "ws4_no_stealing"] {
            assert!(text.contains(case), "missing {case} in:\n{text}");
        }
        assert!(text.contains("worker_states_stddev_mean"));
    }

    #[test]
    fn table2_and_table3_have_speedup_groups() {
        let settings = Settings::smoke();
        let t2 = table2(&settings).render();
        assert!(t2.contains("all") && t2.contains("short") && t2.contains("long"));
        let t3 = table3(&settings).render();
        assert!(t3.contains("GRAEMLIN32") && t3.contains("PPIS32"));
    }

    #[test]
    fn fig7_lists_all_three_variants() {
        let text = fig7(&Settings::smoke()).render();
        assert!(text.contains("RI-DS-SI-FC"));
        assert!(text.contains("RI-DS-SI"));
        assert!(text.contains("RI-DS"));
    }

    #[test]
    fn experiment_registry_is_complete() {
        let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 18);
        // The paper's figures first, in paper order, then the record's.
        assert_eq!(names[..3], ["table1", "fig3_work_stealing", "fig4"]);
        assert_eq!(names[12], "table3");
        assert_eq!(names[17], "modular_mix");
    }
}
