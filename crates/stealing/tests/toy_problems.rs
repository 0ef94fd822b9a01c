//! Integration tests of the work-stealing engine on toy backtracking problems
//! that are independent of subgraph enumeration, so scheduler bugs are not
//! masked by matcher bugs (and vice versa):
//!
//! * **bounded counting trees** — every node of a synthetic tree with known
//!   shape is a solution prefix; the number of leaves is known in closed form,
//! * **subset-sum style assignment** — highly irregular subtree sizes, a good
//!   stress test for stealing,
//! * a **panic-free degenerate matrix** of tiny configurations.

use sge_stealing::{run, BacktrackProblem, EngineConfig};
use sge_util::SplitMix64;

/// A complete b-ary tree of the given depth: every choice is consistent, so
/// the number of solutions is exactly `branching ^ depth`.
struct CompleteTree {
    branching: u32,
    depth: usize,
}

impl BacktrackProblem for CompleteTree {
    type State = Vec<u32>;
    type Choice = u32;

    fn depth(&self) -> usize {
        self.depth
    }

    fn new_state(&self) -> Vec<u32> {
        Vec::new()
    }

    fn candidates(&self, _level: usize, _state: &mut Vec<u32>) -> usize {
        self.branching as usize
    }

    fn candidate(&self, _level: usize, index: usize, _state: &Vec<u32>) -> u32 {
        index as u32
    }

    fn is_consistent(&self, _level: usize, _choice: u32, _state: &Vec<u32>) -> bool {
        true
    }

    fn apply(&self, _level: usize, choice: u32, state: &mut Vec<u32>) {
        state.push(choice);
    }

    fn undo(&self, _level: usize, state: &mut Vec<u32>) {
        state.pop();
    }
}

/// Count assignments of 0/1 weights to items such that every prefix sum stays
/// below a bound — an artificially irregular search tree (left subtrees are
/// much larger than right ones).
struct BoundedPrefix {
    items: Vec<u32>,
    bound: u32,
}

impl BacktrackProblem for BoundedPrefix {
    type State = (Vec<u32>, u32); // (choices, running sum)
    type Choice = u32;

    fn depth(&self) -> usize {
        self.items.len()
    }

    fn new_state(&self) -> (Vec<u32>, u32) {
        (Vec::new(), 0)
    }

    fn candidates(&self, _level: usize, _state: &mut (Vec<u32>, u32)) -> usize {
        2
    }

    fn candidate(&self, _level: usize, index: usize, _state: &(Vec<u32>, u32)) -> u32 {
        index as u32
    }

    fn is_consistent(&self, level: usize, choice: u32, state: &(Vec<u32>, u32)) -> bool {
        state.1 + choice * self.items[level] <= self.bound
    }

    fn apply(&self, level: usize, choice: u32, state: &mut (Vec<u32>, u32)) {
        state.1 += choice * self.items[level];
        state.0.push(choice);
    }

    fn undo(&self, level: usize, state: &mut (Vec<u32>, u32)) {
        let choice = state.0.pop().expect("undo without apply");
        state.1 -= choice * self.items[level];
    }
}

/// Sequential reference count for [`BoundedPrefix`].
fn bounded_prefix_reference(items: &[u32], bound: u32) -> u64 {
    fn recurse(items: &[u32], bound: u32, level: usize, sum: u32) -> u64 {
        if level == items.len() {
            return 1;
        }
        let mut total = 0;
        for choice in [0u32, 1] {
            let next = sum + choice * items[level];
            if next <= bound {
                total += recurse(items, bound, level + 1, next);
            }
        }
        total
    }
    recurse(items, bound, 0, 0)
}

#[test]
fn complete_tree_counts_are_exact() {
    for (branching, depth) in [(2u32, 10usize), (3, 7), (5, 5), (7, 4)] {
        let expected = (branching as u64).pow(depth as u32);
        for workers in [1usize, 2, 4, 8] {
            let problem = CompleteTree { branching, depth };
            let result = run(&problem, &EngineConfig::with_workers(workers));
            assert_eq!(
                result.solutions, expected,
                "b={branching} d={depth} workers={workers}"
            );
        }
    }
}

#[test]
fn irregular_tree_counts_match_reference() {
    let items: Vec<u32> = (1..=14).map(|i| (i * 3) % 11 + 1).collect();
    let bound = 24;
    let expected = bounded_prefix_reference(&items, bound);
    for workers in [1usize, 3, 6] {
        for group_size in [1usize, 4, 16] {
            let problem = BoundedPrefix {
                items: items.clone(),
                bound,
            };
            let config = EngineConfig::with_workers(workers).task_group_size(group_size);
            let result = run(&problem, &config);
            assert_eq!(
                result.solutions, expected,
                "workers={workers} group_size={group_size}"
            );
        }
    }
}

#[test]
fn degenerate_configurations_do_not_hang() {
    // Depth 1, no candidates at all, more workers than tasks, etc.
    let empty_tree = CompleteTree {
        branching: 0,
        depth: 3,
    };
    let result = run(&empty_tree, &EngineConfig::with_workers(4));
    assert_eq!(result.solutions, 0);

    let single = CompleteTree {
        branching: 1,
        depth: 1,
    };
    let result = run(&single, &EngineConfig::with_workers(8));
    assert_eq!(result.solutions, 1);

    let zero_depth = CompleteTree {
        branching: 5,
        depth: 0,
    };
    let result = run(&zero_depth, &EngineConfig::with_workers(2));
    assert_eq!(result.solutions, 1);
}

#[test]
fn per_worker_stats_sum_to_totals() {
    let problem = BoundedPrefix {
        items: (1..=12).collect(),
        bound: 30,
    };
    let result = run(&problem, &EngineConfig::with_workers(4));
    assert_eq!(
        result.workers.iter().map(|w| w.solutions).sum::<u64>(),
        result.solutions
    );
    assert_eq!(
        result.workers.iter().map(|w| w.states).sum::<u64>(),
        result.states
    );
    assert_eq!(
        result.workers.iter().map(|w| w.steals).sum::<u64>(),
        result.steals
    );
}

/// Randomized property check with deterministic seeds: the engine must agree
/// with the sequential reference for arbitrary instances and arbitrary
/// scheduler parameters.
#[test]
fn engine_matches_reference_on_random_instances() {
    for case in 0..12u64 {
        let mut rng = SplitMix64::new(0xBEEF ^ case);
        let len = 6 + rng.next_below(8);
        let bound = 5 + rng.next_below(35) as u32;
        let workers = 1 + rng.next_below(5);
        let group_size = 1 + rng.next_below(7);
        let steal = rng.next_bool(0.5);
        let items: Vec<u32> = (0..len).map(|_| rng.next_below(9) as u32 + 1).collect();
        let expected = bounded_prefix_reference(&items, bound);
        let problem = BoundedPrefix { items, bound };
        let config = EngineConfig::with_workers(workers)
            .task_group_size(group_size)
            .steal(steal);
        let result = run(&problem, &config);
        assert_eq!(
            result.solutions, expected,
            "case={case} workers={workers} group={group_size} steal={steal}"
        );
        assert!(!result.timed_out);
    }
}
