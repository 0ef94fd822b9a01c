//! Scheduler-parity property tests of the unified engine: for randomized
//! subgraph-enumeration instances, `Sequential`, `WorkStealing` (1/2/4
//! workers, stealing on and off) and `Rayon` must report identical `matches`,
//! the parallel schedulers must preserve the sequential search-space size
//! (the paper's schedule-invariance), and on small instances the counts are
//! cross-validated against the independent `sge_vf2` oracle.
//!
//! Seeds are deterministic, so any failure reproduces exactly.

use sge::obs::TraceSink;
use sge::prelude::*;
use sge::util::SplitMix64;
use sge::Strategy;
use std::sync::Arc;
use std::time::Duration;

fn random_labeled_graph(seed: u64, n: usize, p: f64, labels: usize) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_node(rng.next_below(labels) as u32);
    }
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v && rng.next_bool(p) {
                b.add_edge(u, v, 0);
            }
        }
    }
    b.build()
}

/// Like [`random_labeled_graph`] but with multiple edge labels and occasional
/// self-loops — the shapes the intersection-based candidate generator must
/// get right beyond plain single-label adjacency.
fn random_multi_label_graph(
    seed: u64,
    n: usize,
    p: f64,
    labels: usize,
    edge_labels: usize,
) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_node(rng.next_below(labels) as u32);
    }
    for u in 0..n as u32 {
        if rng.next_bool(0.25) {
            b.add_edge(u, u, rng.next_below(edge_labels) as u32);
        }
        for v in 0..n as u32 {
            if u != v && rng.next_bool(p) {
                b.add_edge(u, v, rng.next_below(edge_labels) as u32);
            }
        }
    }
    b.build()
}

fn extracted_pattern(seed: u64, target: &Graph, nodes: usize) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let start = rng.next_below(target.num_nodes()) as u32;
    let mut selected = vec![start];
    for _ in 0..nodes * 8 {
        if selected.len() >= nodes {
            break;
        }
        let from = selected[rng.next_below(selected.len())];
        let neighbors = target.undirected_neighbors(from);
        if neighbors.is_empty() {
            break;
        }
        let next = neighbors[rng.next_below(neighbors.len())];
        if !selected.contains(&next) {
            selected.push(next);
        }
    }
    let mut b = GraphBuilder::new();
    for &v in &selected {
        b.add_node(target.label(v));
    }
    for (i, &u) in selected.iter().enumerate() {
        for (j, &v) in selected.iter().enumerate() {
            if let Some(l) = target.edge_label(u, v) {
                b.add_edge(i as u32, j as u32, l);
            }
        }
    }
    b.build()
}

/// Every scheduler variant exercised by the parity sweep.
fn all_schedulers(task_group_size: usize) -> Vec<Scheduler> {
    let mut schedulers = vec![Scheduler::Sequential];
    for workers in [1usize, 2, 4] {
        for stealing in [true, false] {
            schedulers.push(Scheduler::WorkStealing {
                workers,
                task_group_size,
                stealing,
            });
        }
    }
    schedulers.push(Scheduler::Rayon { workers: 3 });
    schedulers
}

#[test]
fn all_schedulers_agree_on_random_instances() {
    for case in 0..16u64 {
        let mut rng = SplitMix64::new(0x5EED ^ case);
        let n = 12 + rng.next_below(10);
        let k = 3 + rng.next_below(3);
        let group_size = 1 + rng.next_below(8);
        let target = random_labeled_graph(rng.next_u64(), n, 0.15, 3);
        let pattern = extracted_pattern(rng.next_u64(), &target, k);

        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let reference = engine.run(&RunConfig::default());
        for scheduler in all_schedulers(group_size) {
            let outcome = engine.run(&RunConfig::new(scheduler));
            assert_eq!(
                outcome.matches, reference.matches,
                "case={case} {scheduler}: match count diverged"
            );
            // The work-stealing and rayon-style schedulers explore exactly
            // the sequential search tree, so the total number of consistency
            // checks is schedule-invariant.
            assert_eq!(
                outcome.states, reference.states,
                "case={case} {scheduler}: search space diverged"
            );
            assert!(!outcome.timed_out, "case={case} {scheduler}");
        }
    }
}

#[test]
fn trace_sinks_report_schedule_invariant_per_position_counts() {
    // The observability counters are part of the schedule-invariance
    // contract: every scheduler explores exactly the sequential search tree,
    // so for randomized instances the per-position observed candidate and
    // state totals a `TraceSink` records must be identical across
    // `Sequential`, every `WorkStealing` variant and `Rayon` — and the
    // per-position states must sum to the outcome's reported state count.
    for case in 0..8u64 {
        let mut rng = SplitMix64::new(0x0B5E ^ case);
        let n = 12 + rng.next_below(8);
        let k = 3 + rng.next_below(3);
        let group_size = 1 + rng.next_below(8);
        let target = random_labeled_graph(rng.next_u64(), n, 0.15, 3);
        let pattern = extracted_pattern(rng.next_u64(), &target, k);
        let mut reference: Option<(Vec<u64>, Vec<u64>)> = None;
        for scheduler in all_schedulers(group_size) {
            let mut engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
            let sink = Arc::new(TraceSink::new(engine.plan().num_positions()));
            engine.set_trace_sink(Arc::clone(&sink));
            let outcome = engine.run(&RunConfig::new(scheduler));
            assert!(!outcome.timed_out, "case={case} {scheduler}");
            assert_eq!(
                sink.states_total(),
                outcome.states,
                "case={case} {scheduler}: sink missed consistency checks"
            );
            let observed = (sink.candidates_per_position(), sink.states_per_position());
            match &reference {
                None => reference = Some(observed),
                Some(expected) => assert_eq!(
                    &observed, expected,
                    "case={case} {scheduler}: observed per-position counts diverged"
                ),
            }
        }
    }
}

#[test]
fn scheduler_counts_cross_validate_against_vf2() {
    for case in 0..10u64 {
        let mut rng = SplitMix64::new(0xFACE ^ case);
        let n = 10 + rng.next_below(8);
        let target = random_labeled_graph(rng.next_u64(), n, 0.18, 2);
        let pattern = extracted_pattern(rng.next_u64(), &target, 4);
        let oracle = sge::vf2::count_matches(&pattern, &target);
        for algorithm in [Algorithm::Ri, Algorithm::RiDsSiFc] {
            let engine = Engine::prepare(&pattern, &target, algorithm);
            for scheduler in [
                Scheduler::Sequential,
                Scheduler::work_stealing(2),
                Scheduler::Rayon { workers: 2 },
            ] {
                let outcome = engine.run(&RunConfig::new(scheduler));
                assert_eq!(
                    outcome.matches, oracle,
                    "case={case} {algorithm} {scheduler} disagrees with VF2"
                );
            }
        }
    }
}

#[test]
fn scheduler_seed_does_not_change_results() {
    for case in 0..6u64 {
        let mut rng = SplitMix64::new(0xCAFE ^ case);
        let target = random_labeled_graph(rng.next_u64(), 18, 0.15, 2);
        let pattern = extracted_pattern(rng.next_u64(), &target, 4);
        let engine = Engine::prepare(&pattern, &target, Algorithm::Ri);
        let scheduler = Scheduler::work_stealing(3);
        let a = engine.run(&RunConfig::new(scheduler).with_seed(case));
        let b = engine.run(&RunConfig::new(scheduler).with_seed(case.wrapping_add(1)));
        assert_eq!(a.matches, b.matches, "case={case}");
        assert_eq!(a.states, b.states, "case={case}");
    }
}

#[test]
fn max_matches_stops_at_n_on_a_large_clique() {
    // The dedicated early-termination check: a triangle in K16 has
    // 16*15*14 = 3360 embeddings; every scheduler must stop at exactly N.
    let pattern = sge::graph::generators::directed_cycle(3, 0);
    let target = sge::graph::generators::clique(16, 0);
    let engine = Engine::prepare(&pattern, &target, Algorithm::Ri);
    let full = engine.run(&RunConfig::default());
    assert_eq!(full.matches, 3360);
    for n in [1u64, 25, 500] {
        for scheduler in all_schedulers(4) {
            let outcome = engine.run(&RunConfig::new(scheduler).with_max_matches(n));
            assert_eq!(outcome.matches, n, "{scheduler} n={n}");
            assert!(outcome.limit_hit, "{scheduler} n={n}");
            assert!(
                outcome.states <= full.states,
                "{scheduler} n={n}: a limited run must not search more than a full one"
            );
        }
    }
    // A budget above the total is never hit.
    let outcome = engine.run(&RunConfig::new(Scheduler::work_stealing(4)).with_max_matches(10_000));
    assert_eq!(outcome.matches, 3360);
    assert!(!outcome.limit_hit);
}

#[test]
fn intersection_candidates_match_vf2() {
    // Same deterministic seed discipline as the rest of this file: for
    // randomized instances with multiple edge labels and self-loops, the
    // intersection-based candidate generator must produce exactly the sorted
    // mapping set of the independent VF2 oracle under every scheduler.
    for case in 0..12u64 {
        let mut rng = SplitMix64::new(0x1317 ^ case);
        let n = 10 + rng.next_below(8);
        let k = 3 + rng.next_below(3);
        let target = random_multi_label_graph(rng.next_u64(), n, 0.2, 2, 3);
        let pattern = extracted_pattern(rng.next_u64(), &target, k);
        let oracle = sge::vf2::collect_mappings(&pattern, &target);
        for algorithm in [Algorithm::Ri, Algorithm::RiDsSiFc] {
            let engine = Engine::prepare(&pattern, &target, algorithm);
            for scheduler in [
                Scheduler::Sequential,
                Scheduler::work_stealing(2),
                Scheduler::Rayon { workers: 2 },
            ] {
                let config = RunConfig::new(scheduler).with_collected_mappings(oracle.len() + 1);
                let outcome = engine.run(&config);
                assert_eq!(
                    outcome.matches,
                    oracle.len() as u64,
                    "case={case} {algorithm} {scheduler} vs VF2"
                );
                assert_eq!(
                    outcome.mappings, oracle,
                    "case={case} {algorithm} {scheduler}: mappings diverged from VF2"
                );
            }
        }
    }
}

#[test]
fn all_strategies_and_modes_agree_with_each_other_and_vf2() {
    // The planning satellite of the strategy extraction: for randomized
    // pattern/target pairs (multiple node and edge labels, self-loops), all
    // three ordering strategies × both delivery modes (buffered collection
    // and the bounded-channel stream) must produce the VF2 oracle's sorted
    // mapping set.  Strategies only reshape the search tree — never the
    // result set.
    for case in 0..10u64 {
        let mut rng = SplitMix64::new(0x9A17 ^ case);
        let n = 10 + rng.next_below(8);
        let k = 3 + rng.next_below(3);
        let target = random_multi_label_graph(rng.next_u64(), n, 0.2, 3, 2);
        let pattern = extracted_pattern(rng.next_u64(), &target, k);
        let oracle = sge::vf2::collect_mappings(&pattern, &target);
        for algorithm in [Algorithm::Ri, Algorithm::RiDsSiFc] {
            for strategy in Strategy::ALL {
                let engine = Engine::prepare_planned(&pattern, &target, algorithm, strategy);
                let collected = engine
                    .run(&RunConfig::default().with_collected_mappings(oracle.len() + 1))
                    .mappings;
                assert_eq!(
                    collected, oracle,
                    "case={case} {algorithm} {strategy}: collected mappings diverged"
                );
                let mut streamed = Vec::new();
                engine.run_streaming(&RunConfig::default(), 4, |mapping| {
                    streamed.push(mapping);
                    true
                });
                streamed.sort_unstable();
                assert_eq!(
                    streamed, oracle,
                    "case={case} {algorithm} {strategy}: streamed mappings diverged"
                );
            }
        }
    }
}

#[test]
fn intersection_handles_self_loops_and_edge_labels_deterministically() {
    // Pattern: a self-looped node with two differently-labeled edges to a
    // second node — every feature the intersection path must respect at once.
    let mut pb = GraphBuilder::new();
    let a = pb.add_node(0);
    let b = pb.add_node(1);
    pb.add_edge(a, a, 5);
    pb.add_edge(a, b, 7);
    pb.add_edge(b, a, 8);
    let pattern = pb.build();

    let mut tb = GraphBuilder::new();
    for i in 0..6u32 {
        tb.add_node(i % 2);
    }
    tb.add_edge(0, 0, 5); // the only correctly-labeled self-loop
    tb.add_edge(2, 2, 6); // self-loop with the wrong label
    tb.add_edge(0, 1, 7);
    tb.add_edge(1, 0, 8);
    tb.add_edge(0, 3, 7);
    tb.add_edge(3, 0, 9); // back-edge label mismatch
    tb.add_edge(2, 5, 7);
    tb.add_edge(5, 2, 8); // both labels right, but node 2's loop label is wrong
    let target = tb.build();

    let oracle = sge::vf2::collect_mappings(&pattern, &target);
    assert_eq!(
        oracle,
        vec![vec![0, 1]],
        "exactly the (a -> 0, b -> 1) embedding survives"
    );
    for algorithm in [Algorithm::Ri, Algorithm::RiDs, Algorithm::RiDsSiFc] {
        let engine = Engine::prepare(&pattern, &target, algorithm);
        for scheduler in [
            Scheduler::Sequential,
            Scheduler::work_stealing(2),
            Scheduler::Rayon { workers: 2 },
        ] {
            let outcome = engine.run(&RunConfig::new(scheduler).with_collected_mappings(4));
            assert_eq!(outcome.matches, 1, "{algorithm} {scheduler}");
            assert_eq!(outcome.mappings, oracle, "{algorithm} {scheduler}");
        }
    }
}

#[test]
fn zero_deadline_times_out_uniformly_across_schedulers() {
    // Time-limit parity: an already-expired budget must report `timed_out`
    // with zero work under every scheduler — not depend on whether a
    // periodic in-search deadline check happens to fire.
    let pattern = sge::graph::generators::undirected_cycle(4, 0);
    let target = sge::graph::generators::grid(4, 4);
    let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
    for scheduler in all_schedulers(4) {
        let outcome = engine.run(&RunConfig::new(scheduler).with_time_limit(Duration::ZERO));
        assert!(outcome.timed_out, "{scheduler}: expected timed_out");
        assert_eq!(outcome.matches, 0, "{scheduler}");
        assert_eq!(outcome.states, 0, "{scheduler}");
        assert!(!outcome.limit_hit, "{scheduler}");
    }
    // Degenerate instances finish before the clock matters and agree too:
    // the empty pattern yields its one empty embedding without a timeout…
    let empty = GraphBuilder::new().build();
    let engine = Engine::prepare(&empty, &target, Algorithm::Ri);
    for scheduler in all_schedulers(4) {
        let outcome = engine.run(&RunConfig::new(scheduler).with_time_limit(Duration::ZERO));
        assert_eq!(outcome.matches, 1, "{scheduler}");
        assert!(!outcome.timed_out, "{scheduler}");
    }
    // …and an impossible instance reports zero matches, not a timeout.
    let mut pb = GraphBuilder::new();
    pb.add_node(99);
    let impossible = pb.build();
    let engine = Engine::prepare(&impossible, &target, Algorithm::RiDs);
    for scheduler in all_schedulers(4) {
        let outcome = engine.run(&RunConfig::new(scheduler).with_time_limit(Duration::ZERO));
        assert_eq!(outcome.matches, 0, "{scheduler}");
        assert!(!outcome.timed_out, "{scheduler}");
    }
}

#[test]
fn collected_mappings_are_deterministic_across_schedulers() {
    for case in 0..4u64 {
        let mut rng = SplitMix64::new(0xD00D ^ case);
        let target = random_labeled_graph(rng.next_u64(), 14, 0.2, 2);
        let pattern = extracted_pattern(rng.next_u64(), &target, 3);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDs);
        let total = engine.run(&RunConfig::default()).matches as usize;
        let config_for = |s: Scheduler| RunConfig::new(s).with_collected_mappings(total + 1);
        let reference = engine.run(&config_for(Scheduler::Sequential)).mappings;
        assert_eq!(reference.len(), total);
        for scheduler in all_schedulers(4) {
            let mappings = engine.run(&config_for(scheduler)).mappings;
            assert_eq!(mappings, reference, "case={case} {scheduler}");
        }
    }
}

#[test]
fn streamed_rows_cross_validate_against_collection_and_vf2() {
    // The streaming path (bounded channel, discovery order, optional
    // cancellation) must deliver exactly the matches the buffered collection
    // and the independent VF2 oracle agree on, under every scheduler.
    for case in 0..6u64 {
        let mut rng = SplitMix64::new(0x57AE ^ case);
        let n = 10 + rng.next_below(6);
        let target = random_labeled_graph(rng.next_u64(), n, 0.2, 2);
        let pattern = extracted_pattern(rng.next_u64(), &target, 4);
        let oracle = sge::vf2::count_matches(&pattern, &target);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let reference = engine
            .run(&RunConfig::default().with_collected_mappings(1_000_000))
            .mappings;
        assert_eq!(reference.len() as u64, oracle, "case={case}");
        for scheduler in [
            Scheduler::Sequential,
            Scheduler::work_stealing(3),
            Scheduler::Rayon { workers: 2 },
        ] {
            let mut rows: Vec<Vec<sge::graph::NodeId>> = Vec::new();
            let outcome = engine.run_streaming(&RunConfig::new(scheduler), 3, |mapping| {
                rows.push(mapping);
                true
            });
            assert_eq!(outcome.matches, oracle, "case={case} {scheduler}");
            assert!(!outcome.cancelled, "case={case} {scheduler}");
            rows.sort_unstable();
            assert_eq!(
                rows, reference,
                "case={case} {scheduler}: streamed rows != collected mappings"
            );
        }
    }
}
