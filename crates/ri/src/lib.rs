//! Subgraph enumeration machinery: RI, RI-DS, RI-DS-SI and RI-DS-SI-FC.
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
//! ordering and domain computation live in `sge-plan` (re-exported here for
//! compatibility), and a [`search::SearchContext`] is built from a
//! `sge_plan::QueryPlan` — either one the caller planned (or forced)
//! itself or the one [`search::SearchContext::prepare`] plans.  What a plan
//! will cost is measured on the prepared search itself: [`estimate`] walks
//! seeded random paths through it (Knuth's estimator).
//!
//! The crate has no search loop of its own.  [`search::SearchContext`]
//! exposes candidate generation and consistency checking, and `sge-engine`
//! plugs them into the one depth-first loop of `sge-stealing`, which runs
//! every scheduler, sequential and parallel, over the same search space.
//! A context is read-only prepared data and observes nothing: each
//! [`search::WorkerState`] counts the kernel work of the requests it
//! drives, and whatever observes a run (a trace sink, the run's kernel
//! total) belongs to that run, in `sge-engine`.
//! Where nothing observes individual matches, [`suffix`] counts the order's
//! independent suffix below a mapped prefix instead of walking it, with the
//! states, matches and kernel counters the walk would give.
//!
//! # Quick example
//!
//! ```
//! use sge_graph::generators;
//! use sge_ri::{Algorithm, SearchContext};
//!
//! // Directed 3-cycles in a 4-clique: every node may host the first
//! // position, and every candidate passes its consistency check.
//! let pattern = generators::directed_cycle(3, 0);
//! let target = generators::clique(4, 0);
//! let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
//! let mut state = ctx.new_state();
//! let roots = ctx.candidates(0, &mut state).to_vec();
//! assert_eq!(roots, [0, 1, 2, 3]);
//! assert!(roots.iter().all(|&v| ctx.is_consistent(0, v, &state)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimate;
pub mod kernels;
pub mod search;
pub mod suffix;
pub mod visitor;

// Planning moved to `sge-plan`; the modules and types stay reachable under
// their historical `sge_ri` paths.
pub use sge_plan::{domains, ordering};

pub use estimate::{PlanCost, PositionCost};
pub use kernels::{
    assert_kernel_parity, check_kernel_parity, intersect_gallop, intersect_reference,
    KernelDivergence, KernelUsage,
};
pub use search::{PreparedParts, SearchContext, WorkerState};
pub use sge_plan::{
    greatest_constraint_first, Algorithm, CandidatePlan, Domains, EdgeConstraint, MatchOrder,
    PlanStep, QueryPlan,
};
pub use suffix::SuffixCount;
pub use visitor::{CollectingVisitor, MatchVisitor};
