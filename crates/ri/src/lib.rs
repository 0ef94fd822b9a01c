//! Sequential subgraph enumeration: RI, RI-DS, RI-DS-SI and RI-DS-SI-FC.
//!
//! This crate implements the algorithms the paper parallelizes and improves:
//!
//! * **RI** (Bonnici et al., BMC Bioinformatics 2013) — backtracking over a
//!   *static* node ordering computed by the GreatestConstraintFirst heuristic
//!   ([`ordering`]), with cheap-first consistency checks and no expensive
//!   inference during the search.
//! * **RI-DS** — RI plus precomputed *domains*: for every pattern node the set
//!   of compatible target nodes, filtered by label, degree and one
//!   arc-consistency sweep ([`domains`]).  Domains are stored as bitmasks,
//!   pattern nodes with singleton domains are hoisted to the front of the
//!   ordering, and domains restrict both root candidates and every search step.
//! * **RI-DS-SI** — this paper's improvement: domain size breaks ties in the
//!   node ordering (most-constrained-first).
//! * **RI-DS-SI-FC** — additionally performs forward checking on singleton
//!   domains before the search starts (removing forced target nodes from every
//!   other domain, propagating until fixpoint).
//!
//! Since the planning extraction, this crate is a **pure executor**: node
//! ordering, domain computation and the cost model live in `sge-plan`
//! (re-exported here for compatibility), and a [`search::SearchContext`] is
//! built from a `sge_plan::QueryPlan` — either one the caller planned
//! explicitly (choosing a `sge_plan::Strategy`) or the default RI-greedy
//! plan produced by [`search::SearchContext::prepare`].
//!
//! The [`search::SearchContext`] type exposes the candidate generation and
//! consistency checking machinery in a form that the parallel schedulers of
//! `sge-engine` reuse unchanged, so the sequential and parallel matchers
//! explore exactly the same search space.
//!
//! # Quick example
//!
//! ```
//! use sge_graph::generators;
//! use sge_ri::{search_prepared, Algorithm, SearchContext, SearchLimits};
//!
//! // Find all directed 3-cycles in a 4-clique.
//! let pattern = generators::directed_cycle(3, 0);
//! let target = generators::clique(4, 0);
//! let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
//! let run = search_prepared(&ctx, &SearchLimits::default(), |_, _| {});
//! assert_eq!(run.matches, 24);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
pub mod matcher;
pub mod search;
pub mod visitor;

// Planning moved to `sge-plan`; the modules and types stay reachable under
// their historical `sge_ri` paths.
pub use sge_plan::{domains, ordering};

pub use kernels::{
    assert_kernel_parity, check_kernel_parity, intersect_gallop, intersect_reference, KernelCells,
    KernelDivergence, KernelUsage,
};
pub use matcher::{search_prepared, Algorithm, SearchLimits, SearchRun};
pub use search::{PreparedParts, SearchContext, WorkerState};
pub use sge_plan::{
    greatest_constraint_first, CandidatePlan, Domains, EdgeConstraint, KernelChoice, MatchOrder,
    PlanStep, Planner, QueryPlan, Strategy,
};
pub use visitor::{ChannelVisitor, CollectingVisitor, MatchVisitor, NoopVisitor};
