//! Cross-validation of the RI family against the independent VF2 baseline.
//!
//! Every algorithm must report exactly the same number of embeddings on every
//! instance; the instances are randomized labeled graphs plus patterns
//! extracted from them (so most instances have at least one match), and pure
//! random patterns (which often have none).

use std::sync::Arc;

use sge_graph::{AdjacencyBitmaps, BitmapConfig, Graph, GraphBuilder, GraphStats};
use sge_ri::search::{SearchContext, WorkerState};
use sge_ri::{check_kernel_parity, search_prepared, Algorithm, SearchLimits, SearchRun, Strategy};
use sge_util::SplitMix64;

/// Random labeled directed graph with `n` nodes, edge probability `p`, and
/// `labels` distinct node labels.
fn random_graph(seed: u64, n: usize, p: f64, labels: u32) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_node(rng.next_below(labels as usize) as u32);
    }
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.next_bool(p) {
                b.add_edge(u as u32, v as u32, rng.next_below(2) as u32);
            }
        }
    }
    b.build()
}

/// Extracts a connected pattern with `k` nodes from `target` via a random
/// undirected walk, keeping every edge among the selected nodes.
fn extract_pattern(seed: u64, target: &Graph, k: usize) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let n = target.num_nodes();
    let start = rng.next_below(n) as u32;
    let mut selected = vec![start];
    while selected.len() < k {
        let &from = &selected[rng.next_below(selected.len())];
        let neigh = target.undirected_neighbors(from);
        if neigh.is_empty() {
            break;
        }
        let next = neigh[rng.next_below(neigh.len())];
        if !selected.contains(&next) {
            selected.push(next);
        } else if selected.len() > 1 && rng.next_bool(0.2) {
            // Occasionally give up on growing from a saturated frontier.
            break;
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

/// One unlimited count-only run: prepare, then search.
fn enumerate(pattern: &Graph, target: &Graph, algorithm: Algorithm) -> SearchRun {
    let ctx = SearchContext::prepare(pattern, target, algorithm);
    search_prepared(&ctx, &SearchLimits::default(), |_, _| {})
}

fn all_algorithms_agree(pattern: &Graph, target: &Graph) {
    let oracle = sge_vf2::count_matches(pattern, target);
    for algo in Algorithm::ALL {
        let result = enumerate(pattern, target, algo);
        assert_eq!(
            result.matches,
            oracle,
            "{algo} disagrees with VF2 on pattern {} / target {}",
            pattern.num_nodes(),
            target.num_nodes()
        );
        assert!(!result.timed_out);
    }
}

#[test]
fn extracted_patterns_have_matches_and_counts_agree() {
    for seed in 0..12u64 {
        let target = random_graph(seed, 24, 0.12, 3);
        let pattern = extract_pattern(seed * 31 + 1, &target, 5);
        let oracle = sge_vf2::count_matches(&pattern, &target);
        assert!(
            oracle >= 1,
            "pattern extracted from the target must embed at least once (seed {seed})"
        );
        all_algorithms_agree(&pattern, &target);
    }
}

#[test]
fn random_patterns_counts_agree_even_with_zero_matches() {
    for seed in 0..12u64 {
        let target = random_graph(seed, 20, 0.1, 2);
        let pattern = random_graph(seed + 1000, 4, 0.4, 2);
        all_algorithms_agree(&pattern, &target);
    }
}

#[test]
fn dense_unlabeled_targets_agree() {
    for seed in 0..6u64 {
        let target = random_graph(seed, 12, 0.35, 1);
        let pattern = extract_pattern(seed * 7 + 3, &target, 4);
        all_algorithms_agree(&pattern, &target);
    }
}

/// Randomized property check (deterministic seeds): every algorithm variant
/// must agree with VF2 on arbitrary extracted-pattern instances.
#[test]
fn randomized_ri_family_matches_vf2() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0xABCD ^ case);
        let n = 8 + rng.next_below(12);
        let k = 2 + rng.next_below(3);
        let labels = 1 + rng.next_below(3) as u32;
        let target = random_graph(rng.next_u64(), n, 0.15, labels);
        let pattern = extract_pattern(rng.next_u64(), &target, k);
        let oracle = sge_vf2::count_matches(&pattern, &target);
        for algo in Algorithm::ALL {
            let result = enumerate(&pattern, &target, algo);
            assert_eq!(result.matches, oracle, "case={case} {algo}");
        }
    }
}

/// Walks the full search tree of `driver`, comparing the raw candidate set of
/// every expansion against `other` (same ordering, different kernel routing)
/// and against a scalar per-node oracle that re-derives candidacy from
/// `edge_label` probes.  Any divergence is reported through
/// [`check_kernel_parity`], which pinpoints the first differing element.
fn walk_and_compare(
    case: u64,
    depth: usize,
    driver: &SearchContext<'_>,
    other: &SearchContext<'_>,
    state: &mut WorkerState,
) {
    let mut expected = Vec::new();
    let mut actual = Vec::new();
    driver.candidates(depth, state, &mut expected);
    other.candidates(depth, state, &mut actual);
    if let Err(divergence) = check_kernel_parity("bitmap-vs-gallop", &expected, &actual) {
        panic!("case={case} depth={depth}: {divergence}");
    }
    let oracle = scalar_candidates(driver, depth, state);
    if let Err(divergence) = check_kernel_parity("gallop-vs-scalar", &oracle, &expected) {
        panic!("case={case} depth={depth}: {divergence}");
    }
    if depth + 1 == driver.num_positions() {
        return;
    }
    for &vt in &expected {
        if !driver.is_consistent(depth, vt, state) {
            continue;
        }
        state.assign(depth, vt);
        walk_and_compare(case, depth + 1, driver, other, state);
        state.unassign(depth);
    }
}

/// Scalar reference for the candidate set at `depth`: per-node re-derivation
/// with binary-searched `edge_label` probes — no sorted-list intersection, no
/// bitmap rows.
fn scalar_candidates(ctx: &SearchContext<'_>, depth: usize, state: &WorkerState) -> Vec<u32> {
    let order = ctx.order();
    let step = &order.plan.steps[depth];
    let vp = order.positions[depth];
    let target = ctx.target();
    let maps = ctx.bitmaps().expect("both contexts carry the sidecar");
    let spec = &step.prefilter;
    let mut out = Vec::new();
    for v in 0..target.num_nodes() as u32 {
        // Root scans without domains emit every node (labels are checked by
        // `is_consistent`); constrained positions label-filter inline.
        let compatible = match ctx.domains() {
            Some(domains) => domains.contains(vp, v),
            None => step.constraints.is_empty() || target.label(v) == ctx.pattern().label(vp),
        };
        if !compatible {
            continue;
        }
        if !spec.is_trivial()
            && (target.out_degree(v) < spec.min_out_degree as usize
                || target.in_degree(v) < spec.min_in_degree as usize
                || spec.out_sig & !maps.out_sig(v) != 0
                || spec.in_sig & !maps.in_sig(v) != 0)
        {
            continue;
        }
        let satisfied = step.constraints.iter().all(|c| {
            let parent = state.assigned(c.parent_pos);
            let found = if c.out_from_parent {
                target.edge_label(parent, v)
            } else {
                target.edge_label(v, parent)
            };
            found == Some(c.label)
        });
        if satisfied {
            out.push(v);
        }
    }
    out
}

/// Satellite property: the scalar reference, the width-bucketed gallop family
/// and the bitmap-AND kernel must produce byte-identical sorted candidate
/// sets at every node of the search tree, across random graphs — and the
/// resulting match counts must still agree with VF2.
#[test]
fn kernel_paths_produce_byte_identical_candidate_sets() {
    for case in 0..10u64 {
        let mut rng = SplitMix64::new(0xBEEF ^ case);
        let n = 12 + rng.next_below(14);
        let labels = 1 + rng.next_below(3) as u32;
        let target = random_graph(rng.next_u64(), n, 0.2, labels);
        let pattern = extract_pattern(rng.next_u64(), &target, 4);
        let stats = GraphStats::of(&target);
        // Threshold 1: every non-empty (node, direction, label) neighborhood
        // gets a row, so the bitmap-forced context never falls back.
        let sidecar = Arc::new(AdjacencyBitmaps::build(
            &target,
            &BitmapConfig {
                degree_threshold: 1,
                max_bytes: usize::MAX,
            },
        ));
        for algo in [Algorithm::Ri, Algorithm::RiDs] {
            let planner = sge_ri::Planner::new(Strategy::default());
            let mut gallop_plan = planner.plan_with_stats(&pattern, &target, &stats, algo);
            for step in &mut gallop_plan.order.plan.steps {
                step.kernel = sge_ri::KernelChoice::Gallop;
            }
            let mut bitmap_plan = planner.plan_with_stats(&pattern, &target, &stats, algo);
            for step in &mut bitmap_plan.order.plan.steps {
                if !step.constraints.is_empty() {
                    step.kernel = sge_ri::KernelChoice::Bitmap;
                }
            }
            // Both contexts carry the same sidecar so the candidate prefilter
            // applies identically; only the intersection kernel differs.
            let mut gallop = SearchContext::from_plan(&pattern, &target, gallop_plan);
            gallop.set_bitmaps(Some(Arc::clone(&sidecar)));
            let mut bitmap = SearchContext::from_plan(&pattern, &target, bitmap_plan);
            bitmap.set_bitmaps(Some(Arc::clone(&sidecar)));
            if gallop.num_positions() == 0 {
                continue;
            }
            let mut state = gallop.new_state();
            walk_and_compare(case, 0, &gallop, &bitmap, &mut state);

            let oracle = sge_vf2::count_matches(&pattern, &target);
            let limits = SearchLimits::default();
            let g = search_prepared(&gallop, &limits, |_, _| {});
            let b = search_prepared(&bitmap, &limits, |_, _| {});
            assert_eq!(g.matches, oracle, "case={case} {algo}: gallop vs VF2");
            assert_eq!(b.matches, oracle, "case={case} {algo}: bitmap vs VF2");
        }
    }
}

/// Domains only prune; RI-DS should never visit more states than RI on
/// labeled instances (both use the same ordering heuristic family).
#[test]
fn randomized_search_space_of_ds_family_not_larger_than_ri() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0x1234 ^ case);
        let n = 10 + rng.next_below(14);
        let k = 3 + rng.next_below(3);
        let target = random_graph(rng.next_u64(), n, 0.12, 4);
        let pattern = extract_pattern(rng.next_u64(), &target, k);
        let ri = enumerate(&pattern, &target, Algorithm::Ri);
        let ds = enumerate(&pattern, &target, Algorithm::RiDs);
        assert_eq!(ri.matches, ds.matches, "case={case}");
        assert!(
            ds.states <= ri.states,
            "case={case}: RI-DS visited {} states, RI visited {}",
            ds.states,
            ri.states
        );
    }
}
