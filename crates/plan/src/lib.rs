//! Query planning for subgraph enumeration.
//!
//! The enumeration performance of the RI family lives or dies on the match
//! order.  This crate extracts everything that *decides* how a query will be
//! executed out of the executor (`sge-ri`) into an inspectable artifact:
//!
//! * [`QueryPlan::new`] consumes a pattern, a target and an [`Algorithm`]
//!   and produces a self-contained [`QueryPlan`];
//! * [`QueryPlan`] carries the match order ([`MatchOrder`], including the
//!   [`CandidatePlan`] back-edge metadata driving intersection-based
//!   candidate generation), the RI-DS [`Domains`] and the impossibility
//!   verdict — everything an executor needs.  How large the planned search
//!   is gets measured on the prepared search (`sge-ri`'s probe), not
//!   predicted here;
//! * the order is always RI's GreatestConstraintFirst heuristic
//!   ([`greatest_constraint_first`]), with RI-DS singleton hoisting and,
//!   under the SI variants, ties broken by domain size: the one order every
//!   search of the paper uses.
//!
//! Any permutation of the pattern nodes yields a *correct* enumeration — the
//! executor's candidate generation and consistency checks are
//! order-agnostic — so the order only trades performance, never results
//! ([`finish_order`] builds the plan of any permutation a test forces).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod domains;
pub mod ordering;
pub mod planner;

pub use algorithm::Algorithm;
pub use domains::Domains;
pub use ordering::{
    finish_order, greatest_constraint_first, CandidatePlan, EdgeConstraint, MatchOrder, PlanStep,
    PrefilterSpec,
};
pub use planner::QueryPlan;
