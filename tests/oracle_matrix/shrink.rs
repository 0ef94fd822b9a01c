//! Greedy shrinking of a failing instance, and the failure report.

use crate::cells::Cell;
use crate::instances::{rebuild, Instance};
use crate::runner::Subject;
use sge::graph::io::write_graph;
use sge::graph::Graph;

/// Evaluations one shrink may spend, so a failure report always arrives.
const SHRINK_STEPS: usize = 400;
/// Runs per evaluation of a cell whose failure may depend on the
/// interleaving.
const PARALLEL_RERUNS: usize = 8;

/// The failure `cell` shows on `instance`, if any.
fn failure(instance: &Instance, cell: Cell, cell_seed: u64) -> Option<String> {
    let subject = Subject::new(instance);
    let runs = if cell.is_parallel() {
        PARALLEL_RERUNS
    } else {
        1
    };
    (0..runs).find_map(|_| subject.check(cell, cell_seed).err())
}

/// The shrink stages, in order: target nodes, target edges, pattern edges,
/// pattern nodes.
const STAGES: usize = 4;

fn stage_size(instance: &Instance, stage: usize) -> usize {
    match stage {
        0 => instance.target.num_nodes(),
        1 => instance.target.num_edges(),
        2 => instance.pattern.num_edges(),
        _ => instance.pattern.num_nodes(),
    }
}

/// `instance` with item `i` of `stage` removed.
fn without(instance: &Instance, stage: usize, i: usize) -> Instance {
    let drop_node = |g: &Graph| rebuild(g, |v| (v as usize != i).then(|| g.label(v)), |_| true);
    let drop_edge = |g: &Graph| rebuild(g, |v| Some(g.label(v)), |e| e != i);
    let mut out = instance.clone();
    match stage {
        0 => out.target = drop_node(&instance.target),
        1 => out.target = drop_edge(&instance.target),
        2 => out.pattern = drop_edge(&instance.pattern),
        _ => out.pattern = drop_node(&instance.pattern),
    }
    out
}

/// Removes items one at a time, re-running only `cell`, and keeps every
/// removal under which it still fails.  Returns the smallest failing
/// instance, its failure and the evaluations spent.
fn shrink(instance: &Instance, cell: Cell, seed: u64, message: &str) -> (Instance, String, usize) {
    let mut best = (instance.clone(), message.to_string());
    let mut steps = 0;
    loop {
        let mut progressed = false;
        for stage in 0..STAGES {
            let mut i = stage_size(&best.0, stage);
            while i > 0 && steps < SHRINK_STEPS {
                i -= 1;
                steps += 1;
                let candidate = without(&best.0, stage, i);
                if let Some(message) = failure(&candidate, cell, seed) {
                    best = (candidate, message);
                    progressed = true;
                }
            }
        }
        if !progressed || steps >= SHRINK_STEPS {
            return (best.0, best.1, steps);
        }
    }
}

/// Shrinks the failure and reports the seeds, the cell, and both graphs as
/// `.gfd` text in the form [`crate::instances`] pins regressions in.
pub fn report(instance: &Instance, cell: Cell, cell_seed: u64, message: &str) -> String {
    let (shrunk, shrunk_message, steps) = shrink(instance, cell, cell_seed, message);
    let (pattern, target) = (write_graph(&shrunk.pattern), write_graph(&shrunk.target));
    format!(
        "cell {cell:?} failed on {} (instance seed {:#x}, cell seed {cell_seed:#x}):\n  {message}\n\
         shrunk in {steps} steps to a {}-node/{}-edge pattern in a {}-node/{}-edge target:\n  \
         {shrunk_message}\n\
         pin it in REGRESSIONS (tests/oracle_matrix/instances.rs):\n    (\"{}\", {pattern:?}, {target:?}),\n\
         pattern:\n{pattern}target:\n{target}",
        instance.name,
        instance.seed,
        shrunk.pattern.num_nodes(),
        shrunk.pattern.num_edges(),
        shrunk.target.num_nodes(),
        shrunk.target.num_edges(),
        instance.name,
    )
}
