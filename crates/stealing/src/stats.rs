//! Per-worker and per-run statistics.
//!
//! The paper's evaluation relies on more than wall-clock time: Fig. 3 plots
//! the *standard deviation of the per-worker search space* (how unevenly the
//! states were distributed without stealing), and Fig. 4 plots the *number of
//! steals* per task-group size.  Every worker therefore keeps its own counters
//! and the engine aggregates them into a [`RunResult`].

/// Counters collected by one worker during a run.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Worker index.
    pub worker_id: usize,
    /// States visited: consistency checks performed by this worker.
    pub states: u64,
    /// Complete solutions found by this worker.
    pub solutions: u64,
    /// Tasks executed: consistent choices this worker applied, the nodes of
    /// the search tree it entered.  Levels counted through
    /// `BacktrackProblem::count_rest` are not tasks.
    pub tasks_executed: u64,
    /// Successful steals performed by this worker (task groups received).
    pub steals: u64,
    /// Steal requests this worker issued (successful or not).
    pub steal_requests: u64,
    /// Task groups this worker handed to thieves.
    pub tasks_sent: u64,
    /// Task groups of the frames this worker expanded or started from:
    /// ⌈consistent choices ÷ `task_group_size`⌉ per frame, counted when the
    /// frame finishes, the choices a steal took included.  Stolen groups
    /// count where they were cut, so the total is schedule-invariant on
    /// complete runs for a fixed worker count and group size.
    pub task_groups: u64,
    /// Wall-clock seconds this worker spent before terminating.
    pub busy_seconds: f64,
    /// Seconds spent in steal attempts that ended with work.
    pub steal_wait_seconds: f64,
    /// Seconds spent in the final steal attempt, the one that ended with
    /// termination.
    pub idle_seconds: f64,
}

/// Aggregated outcome of one parallel run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Total number of solutions found.
    pub solutions: u64,
    /// Total states visited (sum over workers).
    pub states: u64,
    /// Total successful steals.
    pub steals: u64,
    /// Total steal requests issued.
    pub steal_requests: u64,
    /// Total task groups spawned.
    pub task_groups: u64,
    /// Total seconds workers spent in steal attempts that ended with work.
    pub steal_wait_seconds: f64,
    /// Total seconds workers spent in their final, terminating steal
    /// attempt.
    pub idle_seconds: f64,
    /// Wall-clock seconds for the whole parallel phase.
    pub elapsed_seconds: f64,
    /// `true` when the run was cut short by the configured time limit.
    pub timed_out: bool,
    /// `true` when the run stopped because the solution budget
    /// (`EngineConfig::max_solutions`) was exhausted.
    pub limit_hit: bool,
    /// `true` when the run stopped because the external cancellation token
    /// (`EngineConfig::cancel`) fired.
    pub cancelled: bool,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerStats>,
}

impl RunResult {
    /// Builds the aggregate from per-worker stats.
    pub fn from_workers(workers: Vec<WorkerStats>, elapsed_seconds: f64, timed_out: bool) -> Self {
        let solutions = workers.iter().map(|w| w.solutions).sum();
        let states = workers.iter().map(|w| w.states).sum();
        let steals = workers.iter().map(|w| w.steals).sum();
        let steal_requests = workers.iter().map(|w| w.steal_requests).sum();
        RunResult {
            solutions,
            states,
            steals,
            steal_requests,
            task_groups: workers.iter().map(|w| w.task_groups).sum(),
            steal_wait_seconds: workers.iter().map(|w| w.steal_wait_seconds).sum(),
            idle_seconds: workers.iter().map(|w| w.idle_seconds).sum(),
            elapsed_seconds,
            timed_out,
            limit_hit: false,
            cancelled: false,
            workers,
        }
    }

    /// Standard deviation of the per-worker states — the load-imbalance metric
    /// of Fig. 3 (population standard deviation).
    pub fn worker_states_stddev(&self) -> f64 {
        let n = self.workers.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.states as f64 / n as f64;
        let var = self
            .workers
            .iter()
            .map(|w| {
                let d = w.states as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        var.sqrt()
    }

    /// States per second of elapsed wall-clock time.
    pub fn states_per_second(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.states as f64 / self.elapsed_seconds
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(id: usize, states: u64, steals: u64, solutions: u64) -> WorkerStats {
        WorkerStats {
            worker_id: id,
            states,
            solutions,
            steals,
            ..WorkerStats::default()
        }
    }

    #[test]
    fn aggregation_sums_counters() {
        let result =
            RunResult::from_workers(vec![worker(0, 10, 1, 2), worker(1, 30, 3, 4)], 2.0, false);
        assert_eq!(result.states, 40);
        assert_eq!(result.steals, 4);
        assert_eq!(result.solutions, 6);
        assert!((result.states_per_second() - 20.0).abs() < 1e-12);
        assert!(!result.timed_out);
    }

    #[test]
    fn stddev_zero_for_balanced_workers() {
        let result =
            RunResult::from_workers(vec![worker(0, 50, 0, 0), worker(1, 50, 0, 0)], 1.0, false);
        assert!(result.worker_states_stddev().abs() < 1e-12);
    }

    #[test]
    fn stddev_positive_for_imbalanced_workers() {
        let result =
            RunResult::from_workers(vec![worker(0, 0, 0, 0), worker(1, 100, 0, 0)], 1.0, false);
        assert!((result.worker_states_stddev() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_zeroed() {
        let result = RunResult::from_workers(vec![], 0.0, false);
        assert_eq!(result.states, 0);
        assert_eq!(result.worker_states_stddev(), 0.0);
        assert_eq!(result.states_per_second(), 0.0);
    }
}
