//! Figure harness reproducing every table and figure of the paper.
//!
//! The paper's evaluation (Section 5) consists of three tables and ten figures.
//! For each of them this crate provides a function that generates the
//! appropriate synthetic workload, runs the relevant algorithm variants and
//! returns the same rows / series the paper reports as a typed [`Table`].
//! Record figures that time the hot path follow them in the one registry,
//! [`bench_report::FIGURES`].  The `bench-report` binary prints any of them
//! as text (`cargo run --release -p sge-bench --bin bench-report -- fig4`)
//! and writes every figure's table into one JSON record with `--out`.
//!
//! Absolute running times differ from the paper (different hardware, synthetic
//! data, and — on single-core CI hosts — no true parallelism); the quantities
//! whose *shape* the reproduction targets are: which algorithm variant wins,
//! how the search space shrinks from RI-DS to RI-DS-SI-FC, how steal counts
//! react to the task-group size, and how speedups split between short and long
//! instances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_report;
pub mod config;
pub mod experiments;
pub mod records;
pub mod report;

pub use config::Settings;
pub use records::{run_instances, InstanceRecord};
pub use report::{Cell, Table};
