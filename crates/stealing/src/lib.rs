//! Work stealing with private deques for parallel backtracking search.
//!
//! This crate implements the scheduling strategy of Section 3 of the paper —
//! itself an instantiation of *work stealing with private deques* (Acar,
//! Charguéraud, Rainey, PPoPP 2013) — as a reusable engine for depth-first
//! backtracking problems:
//!
//! * every worker owns a **private deque** of task groups; the front is used
//!   in LIFO (depth-first) order by the owner, the back is the steal end,
//! * **receiver-initiated stealing**: an idle worker publishes a request in a
//!   shared `requests` slot of a random victim; busy workers poll their slot
//!   once per executed task and answer through a `transfers` cell,
//! * a task is just a `(depth, choice)` pair — the partial assignment is *not*
//!   copied per task; it travels (as a prefix of choices) only when a task
//!   group is stolen,
//! * **task coalescing**: sibling tasks are grouped into task groups of a
//!   configurable size (the paper settles on 4) which are the unit of
//!   stealing,
//! * spawned tasks are **consistency-checked before being enqueued**, so
//!   thieves rarely steal dead ends,
//! * termination is detected with the **Dijkstra ring token** algorithm
//!   (white/black token passed by idle workers).
//!
//! The engine is generic over a [`BacktrackProblem`]; `sge-engine` plugs the
//! RI / RI-DS search into it, and the test-suite exercises it with independent
//! toy problems (N-Queens, bounded trees) so scheduler bugs are not masked by
//! matcher bugs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod problem;
pub mod stats;
pub mod task;
pub mod termination;

pub use engine::{run, EngineConfig};
pub use problem::BacktrackProblem;
pub use stats::{RunResult, WorkerStats};
pub use task::{TaskGroup, Transfer};
