//! `sge-sim`: deterministic simulation + chaos harness for the serving layer.
//!
//! The simulator drives the **real** serving stack — [`sge_service`]'s
//! [`Connection`](sge_service::Connection) loop, protocol parser, admission
//! gate, prepared cache and statistics — through scripted virtual clients
//! over in-memory transports, under a [`VirtualClock`](sge_util::VirtualClock).
//! Clients step one at a time on one thread, and every choice (which client
//! steps next, how much virtual time passes, where a fault lands) comes from
//! a [`SplitMix64`](sge_util::SplitMix64) stream, so **a `u64` seed is a
//! complete reproduction of a run**: same seed, same scenario → the same
//! event trace, byte for byte, every match and state count included.  A
//! routed or `sched=seq` query runs on the stepping thread, streamed rows
//! and all; a pinned `sched=ws:<n>` query borrows pooled helpers within its
//! step and reports schedule-invariant counts.
//!
//! The pieces:
//!
//! * [`scenario`] — the DSL: targets, client scripts, faults, pinned config.
//! * [`transport`] — `ScriptReader`/`FaultWriter`: in-memory transports with
//!   truncation, reset, slow-reader stalls and mid-response disconnects.
//! * [`sim`] — the seeded scheduler: [`sim::run_scenario`] executes one
//!   scenario, [`sim::check_determinism`] runs it twice and diffs traces.
//! * [`trace`] — the event trace, engine timings scrubbed (the determinism
//!   witness).
//! * [`corpus`] — pinned regression scenarios (≥8, each with a pinned seed).
//! * [`swarm`] — randomized scenario generation + CI batch runners.
//!
//! The `sge-sim` binary fronts all of it: `--corpus`, `--scenario NAME`,
//! `--swarm N`, and `--seed N` to replay any swarm failure.

pub mod corpus;
pub mod scenario;
pub mod sim;
pub mod swarm;
pub mod trace;
pub mod transport;

pub use scenario::{ClientScript, Scenario, Target, TargetKind};
pub use sim::{check_determinism, run_scenario, run_scenario_with_seed, Divergence, SimReport};
pub use swarm::{random_scenario, run_corpus, run_random, SwarmFailure, SwarmOutcome};
pub use transport::{FaultWriter, ReadFault, ScriptReader, WriteFault};
