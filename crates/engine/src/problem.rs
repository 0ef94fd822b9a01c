//! Adapter exposing the RI search as a [`BacktrackProblem`].

use crate::runner::Observers;
use sge_graph::NodeId;
use sge_ri::{SearchContext, SuffixCount, WorkerState};
use sge_stealing::{BacktrackProblem, RestCount};

/// The RI / RI-DS state-space search wrapped for the work-stealing engine.
///
/// Levels are positions of the static node ordering; choices are candidate
/// target nodes.  The per-worker state is `sge_ri::WorkerState` (partial
/// mapping + injectivity flags + candidate memo): a level's candidate list
/// is its memo entry, which the engine's frame reads in place.  The engine
/// reconstructs the state on a thief from the transferred prefix of choices
/// — exactly the paper's "copy the partial mapping only for stolen tasks".
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

    fn candidates(&self, level: usize, state: &mut WorkerState) -> usize {
        let width = self.ctx.candidates(level, state).len();
        if let Some(sink) = self.observers.sink {
            sink.record_candidates(level, width as u64);
        }
        width
    }

    fn candidate(&self, level: usize, index: usize, state: &WorkerState) -> NodeId {
        state.last_candidates(level)[index]
    }

    fn is_consistent(&self, level: usize, choice: NodeId, state: &WorkerState) -> bool {
        if let Some(sink) = self.observers.sink {
            sink.record_state(level);
        }
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

    fn counted_from(&self) -> usize {
        self.ctx.counted_from()
    }

    /// Counts the independent suffix once nothing observes individual
    /// matches: asked at each expansion into it, so a collecting run counts
    /// from the moment its collector is full.  A traced run never counts:
    /// its sink observes every candidate list and consistency check.
    fn count_rest(
        &self,
        level: usize,
        state: &mut WorkerState,
        room: RestCount,
    ) -> Option<RestCount> {
        if !self.observers.count_only() {
            return None;
        }
        let room = SuffixCount {
            states: room.states,
            matches: room.solutions,
        };
        let count = self.ctx.count_rest(level, state, room)?;
        Some(RestCount {
            states: count.states,
            solutions: count.matches,
        })
    }

    fn retire_state(&self, state: &WorkerState) {
        self.observers.retire(state.kernel_usage());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, RunConfig};
    use sge_graph::generators;
    use sge_ri::Algorithm;
    use sge_stealing::{run, EngineConfig};

    #[test]
    fn problem_counts_match_sequential() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::Ri);
        let sequential = engine.run(&RunConfig::default());
        let observers = Observers::new(None, 0, None);
        let result = run(
            &SubgraphProblem::new(engine.context(), &observers),
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
        let observers = Observers::new(None, 5, None);
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
