//! Adapter exposing the RI search as a [`BacktrackProblem`].

use crate::runner::Observers;
use sge_graph::NodeId;
use sge_ri::{SearchContext, WorkerState};
use sge_stealing::BacktrackProblem;

/// The RI / RI-DS state-space search wrapped for the work-stealing engine.
///
/// Levels are positions of the static node ordering; choices are candidate
/// target nodes.  The per-worker state is `sge_ri::WorkerState` (partial
/// mapping + injectivity flags), which the engine reconstructs on a thief from
/// the transferred prefix of choices — exactly the paper's "copy the partial
/// mapping only for stolen tasks".
pub(crate) struct SubgraphProblem<'a> {
    ctx: &'a SearchContext<'a>,
    observers: &'a Observers<'a>,
}

impl<'a> SubgraphProblem<'a> {
    /// Wraps a prepared search context; every match goes to `observers`.
    pub(crate) fn new(ctx: &'a SearchContext<'a>, observers: &'a Observers<'a>) -> Self {
        SubgraphProblem { ctx, observers }
    }
}

impl BacktrackProblem for SubgraphProblem<'_> {
    type State = WorkerState;
    type Choice = NodeId;

    fn depth(&self) -> usize {
        self.ctx.num_positions()
    }

    fn new_state(&self) -> WorkerState {
        self.ctx.new_state()
    }

    fn candidates(&self, level: usize, state: &WorkerState, out: &mut Vec<NodeId>) {
        self.ctx.candidates(level, state, out);
    }

    fn is_consistent(&self, level: usize, choice: NodeId, state: &WorkerState) -> bool {
        self.ctx.is_consistent(level, choice, state)
    }

    fn apply(&self, level: usize, choice: NodeId, state: &mut WorkerState) {
        state.assign(level, choice);
    }

    fn undo(&self, level: usize, state: &mut WorkerState) {
        state.unassign(level);
    }

    fn on_solution(&self, worker_id: usize, state: &WorkerState) {
        self.observers.on_match(self.ctx, worker_id, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::generators;
    use sge_ri::{search_prepared, Algorithm, SearchLimits};
    use sge_stealing::{run, EngineConfig};

    #[test]
    fn problem_counts_match_sequential() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
        let sequential = search_prepared(&ctx, &SearchLimits::default(), |_, _| {});
        let observers = Observers::new(None, 0);
        let result = run(
            &SubgraphProblem::new(&ctx, &observers),
            &EngineConfig::with_workers(2),
        );
        assert_eq!(result.solutions, sequential.matches);
        assert_eq!(result.states, sequential.states);
    }

    #[test]
    fn collection_gathers_valid_mappings() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0);
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::RiDs);
        let observers = Observers::new(None, 5);
        let result = run(
            &SubgraphProblem::new(&ctx, &observers),
            &EngineConfig::with_workers(3),
        );
        assert_eq!(result.solutions, 24);
        let collected = observers.into_sorted_mappings();
        assert_eq!(collected.len(), 5);
        for mapping in collected {
            for (u, v, l) in pattern.edges() {
                assert_eq!(
                    target.edge_label(mapping[u as usize], mapping[v as usize]),
                    Some(l)
                );
            }
        }
    }
}
