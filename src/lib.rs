//! # sge — Shared Memory Parallel Subgraph Enumeration
//!
//! A Rust reproduction of *"Shared Memory Parallel Subgraph Enumeration"*
//! (Kimmig, Meyerhenke, Strash, 2017): the RI / RI-DS subgraph enumeration
//! algorithms of Bonnici et al., the paper's RI-DS-SI / RI-DS-SI-FC
//! preprocessing improvements, and a shared-memory parallelization based on
//! work stealing with private deques.
//!
//! The public API is the unified [`Engine`]: prepare an instance once, then
//! run it under any [`Scheduler`] — sequential, or the paper's
//! work-stealing runtime, both one depth-first loop — with one knob set and
//! one result shape.  See the [`engine`] module for the scheduler-equivalence
//! contract.
//!
//! This crate is a thin facade re-exporting the workspace members:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`graph`] | labeled directed CSR graphs, builders, text I/O, generators |
//! | [`plan`] | query planning: the GreatestConstraintFirst order, domains, EXPLAIN-able plans |
//! | [`ri`] | the RI family's search machinery: candidate generation, consistency checks, the candidate memo, the tree-size probe |
//! | [`vf2`] | a VF2-style baseline, the oracle `tests/oracle_matrix.rs` diffs every configuration against |
//! | [`stealing`] | the one depth-first loop, generic over the problem: one worker on the calling thread, or private-deque work stealing |
//! | [`engine`] | the unified [`Engine`]/[`Scheduler`] API and [`PreparedEngine`]: sequential and work-stealing runs of one prepared search, and routing a query to a scheduler |
//! | [`wire`] | the serving wire plane: line-protocol codec, JSON encoder, stream framing |
//! | [`service`] | query serving: graph registry, prepared cache, batches on the helper pool, event-loop TCP front end |
//! | [`obs`] | observability: metrics registry, query traces, enumeration trace sinks, event log |
//! | [`datasets`] | synthetic PPIS32 / GRAEMLIN32 / PDBSv1 analogues |
//! | [`util`] | bitsets, statistics, timing |
//!
//! ## Quickstart
//!
//! ```
//! use sge::prelude::*;
//!
//! // Pattern: a directed triangle. Target: a 5-clique.
//! let pattern = sge::graph::generators::directed_cycle(3, 0);
//! let target = sge::graph::generators::clique(5, 0);
//!
//! // Preprocess once (domains, forward checking, ordering)…
//! let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
//!
//! // …then run under any scheduler with the same knobs and result shape.
//! let seq = engine.run(&RunConfig::new(Scheduler::Sequential));
//! let par = engine.run(&RunConfig::new(Scheduler::work_stealing(4)));
//! // The paper's no-stealing baseline, a static partition of the roots:
//! let frozen = engine.run(&RunConfig::new("ws:4:1:nosteal".parse().unwrap()));
//!
//! assert_eq!(seq.matches, 60);
//! assert_eq!(par.matches, 60);
//! assert_eq!(frozen.matches, 60);
//! // Same search tree under every scheduler:
//! assert_eq!(seq.states, par.states);
//! assert_eq!(seq.states, frozen.states);
//!
//! // The full knob set works uniformly — e.g. stop after 10 matches:
//! let first10 = engine.run(&RunConfig::new(Scheduler::work_stealing(2)).with_max_matches(10));
//! assert_eq!(first10.matches, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;

pub use sge_datasets as datasets;
pub use sge_graph as graph;
pub use sge_obs as obs;
pub use sge_plan as plan;
pub use sge_ri as ri;
pub use sge_service as service;
pub use sge_stealing as stealing;
pub use sge_util as util;
pub use sge_vf2 as vf2;
pub use sge_wire as wire;

pub use engine::{Engine, EnumerationOutcome, PreparedEngine, RunConfig, Scheduler};
pub use sge_plan::QueryPlan;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::engine::{Engine, EnumerationOutcome, PreparedEngine, RunConfig, Scheduler};
    pub use sge_graph::{Graph, GraphBuilder};
    pub use sge_plan::QueryPlan;
    pub use sge_ri::{Algorithm, MatchVisitor};
    pub use sge_service::{QuerySet, QuerySpec, Service, ServiceConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let pattern = crate::graph::generators::directed_path(2, 0);
        let target = crate::graph::generators::clique(3, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::Ri);
        let seq = engine.run(&RunConfig::new(Scheduler::Sequential));
        let par = engine.run(&RunConfig::new(Scheduler::work_stealing(2)));
        assert_eq!(seq.matches, 6);
        assert_eq!(par.matches, 6);

        // The per-crate modules reach the same machinery.
        let ctx = crate::ri::SearchContext::prepare(&pattern, &target, Algorithm::Ri);
        let run = Engine::from_context(ctx).run(&RunConfig::default());
        assert_eq!(run.matches, 6);
        assert_eq!(crate::vf2::count_matches(&pattern, &target), 6);
    }
}
