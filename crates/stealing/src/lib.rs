//! Work stealing with private deques for parallel backtracking search.
//!
//! This crate implements the scheduling strategy of Section 3 of the paper —
//! itself an instantiation of *work stealing with private deques* (Acar,
//! Charguéraud, Rainey, PPoPP 2013) — as a reusable engine for depth-first
//! backtracking problems:
//!
//! * every worker owns a **private deque**, laid out as its depth-first
//!   search: one frame per depth, a cursor into the candidate list the
//!   problem built for that depth.  The owner runs the sequential
//!   depth-first loop over the deepest frame; steals cut from the
//!   shallowest,
//! * **lazy task creation**: nothing is copied or checked for thieves in
//!   advance; the owner checks each choice when it takes it,
//! * **receiver-initiated stealing**: an idle worker publishes a request in a
//!   shared `requests` slot of a random victim; busy workers poll their slot
//!   once per state and answer through a `transfers` cell,
//! * a task is just a `(depth, choice)` pair — the partial assignment is *not*
//!   copied per task; it travels (as a prefix of choices) only when a task
//!   group is stolen.  A steal is the only copy between workers, and in
//!   steady state an expansion allocates nothing,
//! * **task coalescing**: a task group is a `task_group_size`-aligned range
//!   of one frame (the paper settles on 4); a steal hands over the back
//!   group of the shallowest frame, or the rest of a partly run one,
//! * a stolen group is **consistency-checked before it is handed over**,
//!   against its frame's own prefix, so thieves never steal dead ends,
//! * a problem may **count the levels below an expansion** instead of
//!   enumerating them ([`BacktrackProblem::count_rest`], from
//!   [`BacktrackProblem::counted_from`] on) when nothing observes
//!   individual solutions,
//! * termination is detected with the **Dijkstra ring token** algorithm
//!   (white/black token passed by idle workers), skipping workers that have
//!   not joined.
//!
//! A one-worker run is the sequential search: the same loop on the calling
//! thread, with no peer to answer.  A run of several workers starts no
//! thread of its own either: worker 0 is the calling thread, and each other
//! worker's root share is offered to the process-wide pool of parked
//! helpers (`sge_util::pool`).  Worker 0 runs every share no helper took by the time
//! it runs out of work, so a run never waits on a helper that has not
//! started, and a helper that arrives late joins as a thief.
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
pub use problem::{BacktrackProblem, RestCount};
pub use stats::{RunResult, WorkerStats};
pub use task::{TaskGroup, Transfer};
