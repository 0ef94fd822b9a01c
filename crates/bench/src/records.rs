//! Per-instance measurement records and the runner that produces them.
//!
//! The runner drives the unified [`sge::Engine`]: each instance is prepared
//! **once** and then executed under every scheduler the figure sweeps — the
//! paper's one-target/many-runs workloads amortize preprocessing exactly the
//! same way.

use crate::config::Settings;
use sge::{Engine, EnumerationOutcome, RunConfig, Scheduler};
use sge_datasets::Collection;
use sge_ri::Algorithm;
use std::collections::HashMap;

/// One measurement: an instance run under one scheduler.
#[derive(Clone, Debug)]
pub struct InstanceRecord {
    /// Instance identifier (from the dataset crate).
    pub instance_id: String,
    /// What the run found and how long it took.
    pub outcome: EnumerationOutcome,
}

/// Runs every scheduler over (a capped number of) the collection's
/// instances, preparing each instance once.  Returns one record vector per
/// scheduler, in input order.
pub fn run_instances(
    collection: &Collection,
    algorithm: Algorithm,
    schedulers: &[Scheduler],
    settings: &Settings,
) -> Vec<Vec<InstanceRecord>> {
    let mut per_scheduler: Vec<Vec<InstanceRecord>> =
        schedulers.iter().map(|_| Vec::new()).collect();
    let cap = settings.max_instances.unwrap_or(usize::MAX);
    for instance in collection.instances.iter().take(cap) {
        let target = collection.target_of(instance);
        let engine = Engine::prepare(&instance.pattern, target, algorithm);
        for (records, &scheduler) in per_scheduler.iter_mut().zip(schedulers) {
            let run = RunConfig::new(scheduler).with_time_limit(settings.time_limit);
            records.push(InstanceRecord {
                instance_id: instance.id.clone(),
                outcome: engine.run(&run),
            });
        }
    }
    per_scheduler
}

/// Splits records into `(short, long)` according to a map of baseline total
/// times per instance id and the configured threshold — the paper's
/// "< 1 second" / "≥ 1 second" classification, with the threshold scaled to
/// the synthetic collections.
pub fn split_short_long<'a>(
    records: &'a [InstanceRecord],
    baseline_totals: &HashMap<String, f64>,
    threshold: f64,
) -> (Vec<&'a InstanceRecord>, Vec<&'a InstanceRecord>) {
    records.iter().partition(|record| {
        baseline_totals
            .get(&record.instance_id)
            .copied()
            .unwrap_or(0.0)
            < threshold
    })
}

/// Builds the `instance id -> total seconds` map from a set of records.
pub fn totals_by_instance(records: &[InstanceRecord]) -> HashMap<String, f64> {
    records
        .iter()
        .map(|r| (r.instance_id.clone(), r.outcome.total_seconds()))
        .collect()
}

/// Pairs `(baseline, variant)` match seconds per instance id, for speedup
/// summaries.  Only instances present in both sets are paired.
pub fn speedup_pairs(baseline: &[&InstanceRecord], variant: &[&InstanceRecord]) -> Vec<(f64, f64)> {
    let index: HashMap<&str, &InstanceRecord> = baseline
        .iter()
        .map(|r| (r.instance_id.as_str(), *r))
        .collect();
    variant
        .iter()
        .filter_map(|v| {
            index
                .get(v.instance_id.as_str())
                .map(|b| (b.outcome.match_seconds, v.outcome.match_seconds))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_datasets::pdbsv1_like;

    fn tiny_collection() -> Collection {
        Collection::generate(&pdbsv1_like(0.1, 5))
    }

    #[test]
    fn sequential_and_parallel_records_agree_on_counts() {
        let collection = tiny_collection();
        let settings = Settings::smoke();
        let schedulers = [Scheduler::Sequential, Scheduler::work_stealing(2)];
        let records = run_instances(&collection, Algorithm::RiDs, &schedulers, &settings);
        let (sequential, parallel) = (&records[0], &records[1]);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(parallel.iter()) {
            assert_eq!(s.instance_id, p.instance_id);
            let (s, p) = (&s.outcome, &p.outcome);
            if !s.timed_out && !p.timed_out {
                assert_eq!(s.matches, p.matches);
                assert_eq!(s.states, p.states);
            }
            assert!(s.total_seconds() >= 0.0);
            assert!(p.states_per_second() >= 0.0);
        }
    }

    #[test]
    fn matrix_prepares_once_and_agrees_with_separate_runs() {
        let collection = tiny_collection();
        let settings = Settings::smoke();
        let schedulers = [
            Scheduler::Sequential,
            Scheduler::work_stealing(2),
            Scheduler::WorkStealing {
                workers: 2,
                task_group_size: 1,
                stealing: false,
            },
        ];
        let matrix = run_instances(&collection, Algorithm::Ri, &schedulers, &settings);
        assert_eq!(matrix.len(), schedulers.len());
        let separate = run_instances(&collection, Algorithm::Ri, &schedulers[1..2], &settings);
        for records in matrix[1..].iter().chain(&separate) {
            assert_eq!(records.len(), matrix[0].len());
            for (a, b) in matrix[0].iter().zip(records.iter()) {
                if !a.outcome.timed_out && !b.outcome.timed_out {
                    assert_eq!(a.outcome.matches, b.outcome.matches, "{}", a.instance_id);
                }
            }
        }
        // One preparation per instance: every scheduler of the sweep reports
        // the same preprocessing cost.
        for records in &matrix[1..] {
            for (a, b) in matrix[0].iter().zip(records.iter()) {
                assert_eq!(a.outcome.preprocess_seconds, b.outcome.preprocess_seconds);
            }
        }
    }

    #[test]
    fn short_long_split_partitions_records() {
        let collection = tiny_collection();
        let settings = Settings::smoke();
        let records = run_instances(
            &collection,
            Algorithm::Ri,
            &[Scheduler::Sequential],
            &settings,
        )
        .remove(0);
        let totals = totals_by_instance(&records);
        let (short, long) = split_short_long(&records, &totals, 0.0);
        // Threshold 0: everything is "long".
        assert_eq!(long.len(), records.len());
        assert!(short.is_empty());
        let (short, long) = split_short_long(&records, &totals, f64::INFINITY);
        assert_eq!(short.len(), records.len());
        assert!(long.is_empty());
    }

    #[test]
    fn speedup_pairs_align_by_instance() {
        let collection = tiny_collection();
        let settings = Settings::smoke();
        let schedulers = [Scheduler::Sequential, Scheduler::Sequential];
        let records = run_instances(&collection, Algorithm::Ri, &schedulers, &settings);
        let baseline: Vec<&InstanceRecord> = records[0].iter().collect();
        let variant: Vec<&InstanceRecord> = records[1].iter().collect();
        let pairs = speedup_pairs(&baseline, &variant);
        assert_eq!(pairs.len(), baseline.len());
        for (b, v) in pairs {
            assert!(b >= 0.0 && v >= 0.0);
        }
    }
}
