//! Per-instance measurement records and batch runners.
//!
//! All runners drive the unified [`sge::Engine`]: each instance is prepared
//! **once** and then executed under whatever scheduler(s) the experiment
//! sweeps — the paper's one-target/many-runs workloads amortize
//! preprocessing exactly the same way.

use crate::config::ExperimentConfig;
use sge::{Engine, EnumerationOutcome, RunConfig, Scheduler};
use sge_datasets::Collection;
use sge_ri::Algorithm;
use std::collections::HashMap;

/// One measurement: an (instance, algorithm, scheduler) combination.
#[derive(Clone, Debug)]
pub struct InstanceRecord {
    /// Instance identifier (from the dataset crate).
    pub instance_id: String,
    /// Collection name.
    pub collection: String,
    /// Algorithm variant.
    pub algorithm: Algorithm,
    /// Scheduler that produced the record.
    pub scheduler: Scheduler,
    /// Worker count (1 for the sequential scheduler).
    pub workers: usize,
    /// Task-group size used (0 outside the work-stealing scheduler).
    pub task_group_size: usize,
    /// Whether work stealing was enabled (false outside work stealing).
    pub stealing: bool,
    /// Number of embeddings found (a lower bound when `timed_out`).
    pub matches: u64,
    /// Search-space size (states visited).
    pub states: u64,
    /// Preprocessing seconds (paid once per prepared instance).
    pub preprocess_seconds: f64,
    /// Matching seconds.
    pub match_seconds: f64,
    /// Whether the per-instance time limit fired.
    pub timed_out: bool,
    /// Successful steals (0 outside the work-stealing scheduler).
    pub steals: u64,
    /// Standard deviation of per-worker states (0 for sequential runs).
    pub worker_states_stddev: f64,
}

impl InstanceRecord {
    fn from_outcome(
        instance_id: &str,
        collection: &str,
        outcome: &EnumerationOutcome,
    ) -> InstanceRecord {
        let (task_group_size, stealing) = match outcome.scheduler {
            Scheduler::WorkStealing {
                task_group_size,
                stealing,
                ..
            } => (task_group_size, stealing),
            _ => (0, false),
        };
        InstanceRecord {
            instance_id: instance_id.to_string(),
            collection: collection.to_string(),
            algorithm: outcome.algorithm,
            scheduler: outcome.scheduler,
            workers: outcome.workers,
            task_group_size,
            stealing,
            matches: outcome.matches,
            states: outcome.states,
            preprocess_seconds: outcome.preprocess_seconds,
            match_seconds: outcome.match_seconds,
            timed_out: outcome.timed_out,
            steals: outcome.steals,
            worker_states_stddev: outcome.worker_states_stddev,
        }
    }

    /// Total (preprocessing + matching) seconds.
    pub fn total_seconds(&self) -> f64 {
        self.preprocess_seconds + self.match_seconds
    }

    /// States per matching second.
    pub fn states_per_second(&self) -> f64 {
        if self.match_seconds > 0.0 {
            self.states as f64 / self.match_seconds
        } else {
            0.0
        }
    }
}

/// Iterates the instances of a collection honoring the configured cap.
pub fn instances<'a>(
    collection: &'a Collection,
    config: &ExperimentConfig,
) -> impl Iterator<Item = &'a sge_datasets::Instance> {
    let cap = config.max_instances.unwrap_or(usize::MAX);
    collection.instances.iter().take(cap)
}

/// Runs one scheduler over (a capped number of) the collection's instances
/// and returns one record per instance.
pub fn run_instances(
    collection: &Collection,
    algorithm: Algorithm,
    scheduler: Scheduler,
    config: &ExperimentConfig,
) -> Vec<InstanceRecord> {
    instances(collection, config)
        .map(|instance| {
            let target = collection.target_of(instance);
            let engine =
                Engine::prepare_planned(&instance.pattern, target, algorithm, config.strategy);
            let outcome = engine.run(&RunConfig::new(scheduler).with_time_limit(config.time_limit));
            InstanceRecord::from_outcome(&instance.id, collection.kind.name(), &outcome)
        })
        .collect()
}

/// Runs *several* schedulers over the collection, preparing every instance
/// exactly once — the amortized sweep used by the speedup tables.  Returns
/// one record vector per scheduler, in input order.
pub fn run_instances_matrix(
    collection: &Collection,
    algorithm: Algorithm,
    schedulers: &[Scheduler],
    config: &ExperimentConfig,
) -> Vec<Vec<InstanceRecord>> {
    let mut per_scheduler: Vec<Vec<InstanceRecord>> =
        schedulers.iter().map(|_| Vec::new()).collect();
    for instance in instances(collection, config) {
        let target = collection.target_of(instance);
        let engine = Engine::prepare_planned(&instance.pattern, target, algorithm, config.strategy);
        for (records, &scheduler) in per_scheduler.iter_mut().zip(schedulers) {
            let outcome = engine.run(&RunConfig::new(scheduler).with_time_limit(config.time_limit));
            records.push(InstanceRecord::from_outcome(
                &instance.id,
                collection.kind.name(),
                &outcome,
            ));
        }
    }
    per_scheduler
}

/// Runs the sequential matcher over the collection's instances.
pub fn run_instances_sequential(
    collection: &Collection,
    algorithm: Algorithm,
    config: &ExperimentConfig,
) -> Vec<InstanceRecord> {
    run_instances(collection, algorithm, Scheduler::Sequential, config)
}

/// Runs the work-stealing scheduler over the collection's instances.
pub fn run_instances_parallel(
    collection: &Collection,
    algorithm: Algorithm,
    workers: usize,
    task_group_size: usize,
    stealing: bool,
    config: &ExperimentConfig,
) -> Vec<InstanceRecord> {
    run_instances(
        collection,
        algorithm,
        Scheduler::WorkStealing {
            workers,
            task_group_size,
            stealing,
        },
        config,
    )
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
    let mut short = Vec::new();
    let mut long = Vec::new();
    for record in records {
        let baseline = baseline_totals
            .get(&record.instance_id)
            .copied()
            .unwrap_or(0.0);
        if baseline >= threshold {
            long.push(record);
        } else {
            short.push(record);
        }
    }
    (short, long)
}

/// Builds the `instance id -> total seconds` map from a set of records.
pub fn totals_by_instance(records: &[InstanceRecord]) -> HashMap<String, f64> {
    records
        .iter()
        .map(|r| (r.instance_id.clone(), r.total_seconds()))
        .collect()
}

/// Pairs `(baseline_time, variant_time)` per instance id, for speedup
/// summaries. Only instances present in both sets are paired.
pub fn speedup_pairs(
    baseline: &[InstanceRecord],
    variant: &[InstanceRecord],
    use_match_time: bool,
) -> Vec<(f64, f64)> {
    let index: HashMap<&str, &InstanceRecord> = baseline
        .iter()
        .map(|r| (r.instance_id.as_str(), r))
        .collect();
    variant
        .iter()
        .filter_map(|v| {
            index.get(v.instance_id.as_str()).map(|b| {
                if use_match_time {
                    (b.match_seconds, v.match_seconds)
                } else {
                    (b.total_seconds(), v.total_seconds())
                }
            })
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
        let config = ExperimentConfig::smoke();
        let sequential = run_instances_sequential(&collection, Algorithm::RiDs, &config);
        let parallel = run_instances_parallel(&collection, Algorithm::RiDs, 2, 4, true, &config);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(parallel.iter()) {
            assert_eq!(s.instance_id, p.instance_id);
            if !s.timed_out && !p.timed_out {
                assert_eq!(s.matches, p.matches, "instance {}", s.instance_id);
                assert_eq!(s.states, p.states, "instance {}", s.instance_id);
            }
            assert!(s.total_seconds() >= 0.0);
            assert!(p.states_per_second() >= 0.0);
        }
    }

    #[test]
    fn matrix_prepares_once_and_agrees_with_separate_runs() {
        let collection = tiny_collection();
        let config = ExperimentConfig::smoke();
        let schedulers = [
            Scheduler::Sequential,
            Scheduler::work_stealing(2),
            Scheduler::Rayon { workers: 2 },
        ];
        let matrix = run_instances_matrix(&collection, Algorithm::Ri, &schedulers, &config);
        assert_eq!(matrix.len(), schedulers.len());
        for records in &matrix[1..] {
            assert_eq!(records.len(), matrix[0].len());
            for (a, b) in matrix[0].iter().zip(records.iter()) {
                if !a.timed_out && !b.timed_out {
                    assert_eq!(a.matches, b.matches, "instance {}", a.instance_id);
                }
                // The amortized sweep reports the same preprocessing cost for
                // every scheduler of one instance.
                assert_eq!(a.preprocess_seconds, b.preprocess_seconds);
            }
        }
    }

    #[test]
    fn short_long_split_partitions_records() {
        let collection = tiny_collection();
        let config = ExperimentConfig::smoke();
        let records = run_instances_sequential(&collection, Algorithm::Ri, &config);
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
        let config = ExperimentConfig::smoke();
        let baseline = run_instances_sequential(&collection, Algorithm::Ri, &config);
        let variant = run_instances_sequential(&collection, Algorithm::Ri, &config);
        let pairs = speedup_pairs(&baseline, &variant, false);
        assert_eq!(pairs.len(), baseline.len());
        for (b, v) in pairs {
            assert!(b >= 0.0 && v >= 0.0);
        }
    }
}
