//! Labeled directed graph substrate for subgraph enumeration.
//!
//! RI and RI-DS operate on directed graphs whose nodes and edges carry labels
//! (biochemical data: atom/residue types on nodes, bond/interaction types on
//! edges).  The hot operations during search are:
//!
//! * iterating the out-/in-neighborhood of a target node (candidate
//!   generation from the parent's image),
//! * testing whether a specific labeled edge exists (consistency checks),
//! * reading degrees and labels (cheap pruning).
//!
//! [`Graph`] therefore stores both adjacency directions in CSR form with
//! neighbor lists sorted by node id, so edge tests are binary searches over a
//! contiguous slice and neighborhood scans are cache-friendly sweeps — the
//! access pattern the paper identifies as the bottleneck ("running time is
//! dominated by loading the adjacency array into memory").
//!
//! The crate also provides:
//! * [`bitmap`] — an optional u64-bitmap adjacency sidecar for dense
//!   neighborhoods plus per-node label signatures for candidate prefiltering,
//! * [`builder::GraphBuilder`] — mutable construction with deduplication,
//! * [`io`] — a plain-text exchange format in the spirit of RI's `.gfu`/`.gfd`
//!   files,
//! * [`generators`] — small deterministic graphs used by tests and examples,
//! * [`stats`] — the per-collection statistics reported in Table 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod builder;
pub mod generators;
pub mod graph;
pub mod io;
pub mod stats;

pub use bitmap::{label_sig_bit, row_degree_floor, AdjacencyBitmaps, BitmapConfig};
pub use builder::GraphBuilder;
pub use graph::{EdgeRef, Graph, Label, NodeId, DEFAULT_EDGE_LABEL};
pub use stats::GraphStats;
