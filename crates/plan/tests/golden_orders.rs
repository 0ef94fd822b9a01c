//! Golden tests: `QueryPlan::new` must reproduce the pre-planner
//! ordering **bit for bit** — positions and the full back-edge candidate
//! plan.
//!
//! The expected values below were captured from the implementation as it
//! stood *before* ordering/domain logic moved out of `sge-ri` into this
//! crate (PR 4), on fixed graphs covering plain RI, the RI-DS singleton
//! hoist and the SI domain-size tie-break.  Any drift here is a regression:
//! cached plans, bench trajectories and the paper-parity claims all assume
//! this order.

use sge_graph::{generators, Graph, GraphBuilder};
use sge_plan::{Algorithm, QueryPlan};

type ExpectedStep = (Vec<(usize, bool, u32)>, Option<u32>);

fn assert_plan(
    name: &str,
    pattern: &Graph,
    target: &Graph,
    algorithm: Algorithm,
    positions: &[u32],
    steps: &[ExpectedStep],
) {
    let plan = QueryPlan::new(pattern, target, algorithm);
    assert_eq!(
        plan.order.positions, positions,
        "{name} {algorithm}: match order drifted"
    );
    assert_eq!(
        plan.order.plan.steps.len(),
        steps.len(),
        "{name} {algorithm}"
    );
    for (i, (expected_constraints, expected_loop)) in steps.iter().enumerate() {
        let step = &plan.order.plan.steps[i];
        let got: Vec<(usize, bool, u32)> = step
            .constraints
            .iter()
            .map(|c| (c.parent_pos, c.out_from_parent, c.label))
            .collect();
        assert_eq!(
            &got, expected_constraints,
            "{name} {algorithm}: constraints at position {i} drifted"
        );
        assert_eq!(
            step.self_loop, *expected_loop,
            "{name} {algorithm}: self-loop at position {i} drifted"
        );
    }
}

#[test]
fn grid34_cycle4_golden() {
    let pattern = generators::undirected_cycle(4, 0);
    let target = generators::grid(3, 4);
    let steps: Vec<ExpectedStep> = vec![
        (vec![], None),
        (vec![(0, true, 0), (0, false, 0)], None),
        (vec![(1, true, 0), (1, false, 0)], None),
        (
            vec![(0, true, 0), (0, false, 0), (2, true, 0), (2, false, 0)],
            None,
        ),
    ];
    for algorithm in Algorithm::ALL {
        assert_plan(
            "grid34_cycle4",
            &pattern,
            &target,
            algorithm,
            &[0, 1, 2, 3],
            &steps,
        );
    }
}

#[test]
fn clique5_cycle3_golden() {
    let pattern = generators::directed_cycle(3, 0);
    let target = generators::clique(5, 0);
    let steps: Vec<ExpectedStep> = vec![
        (vec![], None),
        (vec![(0, true, 0)], None),
        (vec![(0, false, 0), (1, true, 0)], None),
    ];
    for algorithm in Algorithm::ALL {
        assert_plan(
            "clique5_cycle3",
            &pattern,
            &target,
            algorithm,
            &[0, 1, 2],
            &steps,
        );
    }
}

#[test]
fn star_golden() {
    let pattern = generators::star(5, 0, 1);
    let mut tb = GraphBuilder::new();
    let hub = tb.add_node(0);
    for _ in 0..7 {
        let v = tb.add_node(1);
        tb.add_undirected_edge(hub, v, 0);
    }
    let target = tb.build();
    let mut steps: Vec<ExpectedStep> = vec![(vec![], None)];
    for _ in 0..5 {
        steps.push((vec![(0, true, 0)], None));
    }
    for algorithm in Algorithm::ALL {
        assert_plan(
            "star_in_hub",
            &pattern,
            &target,
            algorithm,
            &[0, 1, 2, 3, 4, 5],
            &steps,
        );
    }
}

#[test]
fn labeled_path_golden_covers_singleton_hoist() {
    // Pattern: path a(7) - b(1) - c(1); target: one node labeled 7 wired to
    // five labeled 1.  D(a) is a singleton, so the RI-DS family hoists a to
    // the front while plain RI orders the path center (max degree) first.
    let mut pb = GraphBuilder::new();
    let a = pb.add_node(7);
    let b = pb.add_node(1);
    let c = pb.add_node(1);
    pb.add_undirected_edge(a, b, 0);
    pb.add_undirected_edge(b, c, 0);
    let pattern = pb.build();

    let mut tb = GraphBuilder::new();
    let ta = tb.add_node(7);
    for _ in 0..5 {
        tb.add_node(1);
    }
    for v in 1..=5u32 {
        tb.add_undirected_edge(ta, v, 0);
    }
    tb.add_undirected_edge(1, 2, 0);
    let target = tb.build();

    assert_plan(
        "labeled_path",
        &pattern,
        &target,
        Algorithm::Ri,
        &[1, 0, 2],
        &[
            (vec![], None),
            (vec![(0, true, 0), (0, false, 0)], None),
            (vec![(0, true, 0), (0, false, 0)], None),
        ],
    );
    for algorithm in [Algorithm::RiDs, Algorithm::RiDsSi, Algorithm::RiDsSiFc] {
        assert_plan(
            "labeled_path",
            &pattern,
            &target,
            algorithm,
            &[0, 1, 2],
            &[
                (vec![], None),
                (vec![(0, true, 0), (0, false, 0)], None),
                (vec![(1, true, 0), (1, false, 0)], None),
            ],
        );
    }
}
