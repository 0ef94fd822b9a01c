//! The randomized swarm: scenario generation from a seed, and batch runners
//! for CI.
//!
//! [`random_scenario`] derives a complete scenario — client count, request
//! mix, fault assignment, jitter — from a single `u64` through the same
//! [`SplitMix64`] the simulator schedules with.  A swarm failure therefore
//! reproduces from just that seed: `sge-sim --seed N` rebuilds the exact
//! scenario and replays the exact interleaving that failed.

use crate::corpus;
use crate::scenario::{edge_inline, inline, triangle_inline, ClientScript, Scenario, TargetKind};
use crate::sim::{check_determinism, SimReport};
use crate::transport::{ReadFault, WriteFault};
use sge_graph::generators;
use sge_util::SplitMix64;
use std::time::{Duration, Instant};

/// One failed swarm run: everything needed to reproduce it.
#[derive(Debug)]
pub struct SwarmFailure {
    /// Scenario name (`swarm-<seed>` for generated scenarios).
    pub scenario: String,
    /// The seed to replay with.
    pub seed: u64,
    /// What went wrong (violations or a trace divergence).
    pub reason: String,
}

/// Aggregate result of a corpus or swarm run.
#[derive(Debug, Default)]
pub struct SwarmOutcome {
    /// Scenarios executed (each runs twice for the determinism check).
    pub runs: usize,
    /// Scenarios skipped because the time budget ran out.
    pub skipped: usize,
    /// Every failure, reproducible by seed.
    pub failures: Vec<SwarmFailure>,
}

impl SwarmOutcome {
    /// `true` when every executed run passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs one scenario twice under `seed`, folding violations and trace
/// divergence into `outcome`.
fn run_checked(scenario: &Scenario, seed: u64, outcome: &mut SwarmOutcome) -> Option<SimReport> {
    outcome.runs += 1;
    match check_determinism(scenario, seed) {
        Ok(report) => {
            if !report.passed() {
                outcome.failures.push(SwarmFailure {
                    scenario: scenario.name.clone(),
                    seed,
                    reason: report.violations.join("; "),
                });
            }
            Some(report)
        }
        Err(divergence) => {
            outcome.failures.push(SwarmFailure {
                scenario: scenario.name.clone(),
                seed,
                reason: divergence.to_string(),
            });
            None
        }
    }
}

/// Runs the whole pinned corpus, each scenario twice under its pinned seed.
pub fn run_corpus() -> SwarmOutcome {
    let mut outcome = SwarmOutcome::default();
    for scenario in corpus::corpus() {
        run_checked(&scenario, scenario.seed, &mut outcome);
    }
    outcome
}

/// Runs `count` freshly generated scenarios starting at `start_seed`
/// (seed `start_seed + i` for run `i`), each twice for the determinism
/// check.  `budget` time-boxes the sweep: runs that do not fit are counted
/// as skipped, never silently dropped.
pub fn run_random(start_seed: u64, count: usize, budget: Option<Duration>) -> SwarmOutcome {
    let started = Instant::now();
    let mut outcome = SwarmOutcome::default();
    for i in 0..count {
        if let Some(budget) = budget {
            if started.elapsed() >= budget {
                outcome.skipped = count - i;
                break;
            }
        }
        let seed = start_seed.wrapping_add(i as u64);
        let scenario = random_scenario(seed);
        run_checked(&scenario, seed, &mut outcome);
    }
    outcome
}

/// Derives a complete scenario from `seed`.
///
/// The request mix leans on the fault-bearing paths: streamed queries with
/// small chunks (more frames, more places for a write fault to land),
/// batches (header + continuation framing), malformed lines, STATS probes,
/// and an occasional SHUTDOWN.  Every count stays in the trace: a stream
/// cut short by a mid-response disconnect is routed sequential on the
/// 5-clique and stops at the same match in every replay.
pub fn random_scenario(seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(seed ^ 0x5357_4152_4D5F_5347); // "SWARM_SG"
    let patterns = [
        triangle_inline(),
        edge_inline(),
        inline(&generators::directed_path(3, 0)),
        inline(&generators::directed_cycle(4, 0)),
    ];
    let mut scenario =
        Scenario::new(format!("swarm-{seed}"), seed).with_target("k5", TargetKind::Clique(5));
    scenario.step_jitter_us = [0, 100, 1000][rng.next_below(3)];

    let clients = 1 + rng.next_below(4); // 1..=4
    for _ in 0..clients {
        let requests = 1 + rng.next_below(5); // 1..=5
        let mut lines: Vec<String> = Vec::new();
        for _ in 0..requests {
            match rng.next_below(10) {
                0..=2 => {
                    let pattern = &patterns[rng.next_below(patterns.len())];
                    // Cover the routing surface: absent (routed), explicit
                    // auto, and the pinned scheduler families.
                    let sched = ["", " sched=auto", " sched=seq", " sched=ws:2"][rng.next_below(4)];
                    lines.push(format!("QUERY target=k5{sched} pattern={pattern}"));
                }
                3..=5 => {
                    let chunk = [2, 8, 64][rng.next_below(3)];
                    let pattern = &patterns[rng.next_below(patterns.len())];
                    lines.push(format!(
                        "QUERY target=k5 emit=stream chunk={chunk} pattern={pattern}"
                    ));
                }
                6 => {
                    let n = 1 + rng.next_below(3);
                    lines.push(format!("BATCH target=k5 n={n}"));
                    for _ in 0..n {
                        let pattern = &patterns[rng.next_below(patterns.len())];
                        lines.push(format!("pattern={pattern}"));
                    }
                }
                7 => lines.push("STATS".to_string()),
                8 => {
                    // Both planning verbs carry the routing decision object.
                    let verb = ["EXPLAIN", "EXPLAIN ANALYZE"][rng.next_below(2)];
                    lines.push(format!("{verb} target=k5 pattern={}", patterns[0]));
                }
                _ => lines.push("QUERY target=nope pattern=3;0;0;0;0".to_string()),
            }
        }
        if rng.next_below(10) == 0 {
            lines.push("SHUTDOWN".to_string());
        }

        let mut client = ClientScript::new(lines);
        match rng.next_below(8) {
            0 => {
                let cut = 1 + rng.next_below(client.script_bytes().len().max(2) - 1);
                client = client.with_read_fault(ReadFault::TruncateAtByte(cut));
            }
            1 => {
                let cut = 1 + rng.next_below(client.script_bytes().len().max(2) - 1);
                client = client.with_read_fault(ReadFault::ResetAfterByte(cut));
            }
            2 => {
                let lines_budget = 1 + rng.next_below(6) as u64;
                client = client.with_write_fault(WriteFault::disconnect_after_lines(lines_budget));
            }
            3 => {
                let stall = Duration::from_micros(100 << rng.next_below(6));
                client = client.with_write_fault(WriteFault::slow_reader(stall));
            }
            _ => {}
        }
        scenario = scenario.with_client(client);
    }
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_generates_the_same_scenario() {
        let a = random_scenario(42);
        let b = random_scenario(42);
        assert_eq!(a.clients.len(), b.clients.len());
        for (x, y) in a.clients.iter().zip(&b.clients) {
            assert_eq!(x.requests, y.requests);
            assert_eq!(x.read_fault, y.read_fault);
            assert_eq!(x.write_fault, y.write_fault);
        }
        assert_eq!(a.step_jitter_us, b.step_jitter_us);
    }

    #[test]
    fn generated_scenarios_always_have_a_client() {
        for seed in 0..32 {
            let scenario = random_scenario(seed);
            assert!(!scenario.clients.is_empty(), "seed {seed}");
            assert!(!scenario.targets.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn budget_zero_skips_everything() {
        let outcome = run_random(1, 5, Some(Duration::ZERO));
        assert_eq!(outcome.runs, 0);
        assert_eq!(outcome.skipped, 5);
        assert!(outcome.passed());
    }
}
