//! Query planning for subgraph enumeration.
//!
//! The enumeration performance of the RI family lives or dies on the match
//! order.  This crate extracts everything that *decides* how a query will be
//! executed out of the executor (`sge-ri`) into an inspectable, swappable
//! artifact:
//!
//! * [`Planner`] consumes a pattern, a target (plus its
//!   [`sge_graph::GraphStats`] label-frequency tables) and an [`Algorithm`]
//!   and produces a self-contained [`QueryPlan`];
//! * [`QueryPlan`] carries the match order ([`MatchOrder`], including the
//!   [`CandidatePlan`] back-edge metadata driving intersection-based
//!   candidate generation), the RI-DS [`Domains`] and the impossibility
//!   verdict — everything an executor needs.  How large the planned search
//!   is gets measured on the prepared search (`sge-ri`'s probe), not
//!   predicted here;
//! * [`Strategy`] selects one of the pluggable [`OrderingStrategy`]
//!   implementations: [`strategy::RiGreedy`] (the paper's
//!   GreatestConstraintFirst heuristic, bit-for-bit identical to the
//!   pre-planner behavior), [`strategy::LeastFrequentLabelFirst`]
//!   (seed and extend by the rarest target label, GraphQL/CFL-style) and
//!   [`strategy::DegreeDescending`] (structure-only degree sort).
//!
//! Any permutation of the pattern nodes yields a *correct* enumeration — the
//! executor's candidate generation and consistency checks are
//! order-agnostic — so strategies only trade performance, never results.
//! That property is what makes the strategy space safely benchmarkable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod domains;
pub mod ordering;
pub mod planner;
pub mod strategy;

pub use algorithm::Algorithm;
pub use domains::Domains;
pub use ordering::{
    finish_order, greatest_constraint_first, CandidatePlan, EdgeConstraint, MatchOrder, PlanStep,
    PrefilterSpec,
};
pub use planner::{Planner, QueryPlan};
pub use strategy::{OrderingStrategy, Strategy};
