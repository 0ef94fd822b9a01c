//! The wire plane of the serving stack.
//!
//! This crate owns everything that crosses a connection boundary and nothing
//! that executes on one side of it: the newline-delimited request grammar and
//! its parser ([`protocol`]), the hand-rolled single-line JSON encoder
//! ([`json`]), the response/frame builders, and the shared vocabulary types —
//! [`QuerySpec`], [`QueryOutcome`], [`StreamHeader`], [`StreamSink`],
//! [`ServiceError`] — that the server, the client, the benchmark harness
//! and the deterministic simulator all speak.
//!
//! Keeping the codec in one crate means every side parses and encodes
//! through exactly the functions the server uses.
//!
//! Everything is `std`-only: no async runtime, no serialization crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod protocol;

use sge_engine::{EnumerationOutcome, PreparedEngine, RoutingDecision, RunConfig, Scheduler};
use sge_graph::io::ParseError;
use sge_graph::NodeId;
use sge_obs::SpanRecord;
use sge_ri::Algorithm;
use std::fmt;
use std::sync::Arc;

/// Default number of rows per streamed frame (`chunk=` on the wire).
pub const DEFAULT_STREAM_CHUNK: usize = 64;

/// Upper bound on `chunk=`: larger requests are clamped, keeping server
/// memory O(chunk) with a sane constant.
pub const MAX_STREAM_CHUNK: usize = 65_536;

/// Errors produced by the serving layer.
#[derive(Debug)]
pub enum ServiceError {
    /// The named target graph is not loaded in the registry.
    UnknownTarget(String),
    /// A graph (target file or query pattern) failed to parse.
    Parse(ParseError),
    /// A malformed protocol request.
    Protocol(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The query panicked; the service contained it and kept serving.
    Internal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownTarget(name) => write!(f, "unknown target '{name}'"),
            ServiceError::Parse(err) => write!(f, "graph parse error: {err}"),
            ServiceError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServiceError::Io(err) => write!(f, "i/o error: {err}"),
            ServiceError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ParseError> for ServiceError {
    fn from(err: ParseError) -> Self {
        ServiceError::Parse(err)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(err: std::io::Error) -> Self {
        ServiceError::Io(err)
    }
}

/// What a `LOAD` registered: the target's shape and its bitmap sidecar's
/// footprint, as reported in the LOAD response.
#[derive(Clone, Debug)]
pub struct GraphInfo {
    /// Registry name the graph was loaded under.
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Rows the adjacency-bitmap sidecar materialized (0 when no
    /// neighborhood reaches the row floor, or when capped out).
    pub bitmap_rows: usize,
    /// Bytes the sidecar occupies.
    pub bitmap_bytes: usize,
    /// Whether the sidecar hit its byte cap and fell back to CSR-only
    /// kernels.
    pub bitmap_capped: bool,
}

/// How query results leave the service.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EmitMode {
    /// One buffered JSON response; mappings (if collected) ride along in a
    /// single `mappings` array.  The pre-streaming behavior.
    #[default]
    Buffered,
    /// A header line, then newline-delimited row frames of up to `chunk`
    /// mappings each, then a footer line with the outcome.  Server memory is
    /// O(chunk) only on a front end that writes frames as they are produced
    /// (see the [`protocol`] docs).
    Stream,
}

impl fmt::Display for EmitMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EmitMode::Buffered => "buffered",
            EmitMode::Stream => "stream",
        })
    }
}

impl std::str::FromStr for EmitMode {
    type Err = String;

    /// Parses `buffered` / `stream` (case-insensitive).
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        match text.to_ascii_lowercase().as_str() {
            "buffered" => Ok(EmitMode::Buffered),
            "stream" => Ok(EmitMode::Stream),
            other => Err(format!(
                "unknown emit mode '{other}' (expected buffered or stream)"
            )),
        }
    }
}

/// One query: a pattern (as `.gfu`/`.gfd` text) to enumerate with a given
/// algorithm and run configuration against a registry target.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Pattern graph in the text exchange format.
    pub pattern_text: String,
    /// Algorithm variant to prepare (part of the cache key).
    pub algorithm: Algorithm,
    /// Scheduler and limits for this run.
    pub run: RunConfig,
    /// How results leave the service (buffered response vs. row stream).
    /// Not part of the cache key: the same prepared engine serves both.
    pub emit: EmitMode,
    /// Rows per streamed frame (clamped to `1..=`[`MAX_STREAM_CHUNK`]);
    /// ignored in buffered mode.
    pub chunk: usize,
    /// Whether the caller pinned the scheduler.  When `false` (the default)
    /// the service routes the run through [`sge_engine::RoutingConfig::route`],
    /// replacing `run.scheduler` with the routed one; when `true` the
    /// embedded scheduler is honored verbatim (`sched=` on the wire, or
    /// [`QuerySpec::with_run`] in-process).
    pub pinned: bool,
}

impl QuerySpec {
    /// A query with the given pattern text, the paper's strongest variant
    /// (RI-DS-SI-FC) and an unlimited, buffered, routed run.
    pub fn new(pattern_text: impl Into<String>) -> Self {
        QuerySpec {
            pattern_text: pattern_text.into(),
            algorithm: Algorithm::RiDsSiFc,
            run: RunConfig::default(),
            emit: EmitMode::default(),
            chunk: DEFAULT_STREAM_CHUNK,
            pinned: false,
        }
    }

    /// Sets the algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the run configuration and pins its scheduler (a caller that
    /// passes an explicit [`RunConfig`] expects its scheduler to be the one
    /// that runs).  Chain [`QuerySpec::routed`] to keep the limits but let
    /// routing pick the scheduler.
    pub fn with_run(mut self, run: RunConfig) -> Self {
        self.run = run;
        self.pinned = true;
        self
    }

    /// Un-pins the scheduler: the embedded `run`'s limits stay, but routing
    /// picks the scheduler.
    pub fn routed(mut self) -> Self {
        self.pinned = false;
        self
    }

    /// Switches to streaming emission with `chunk` rows per frame.
    pub fn with_streaming(mut self, chunk: usize) -> Self {
        self.emit = EmitMode::Stream;
        self.chunk = chunk;
        self
    }
}

/// The result of one served query.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Name of the target the query ran against.
    pub target: String,
    /// Stable-within-process hash of the canonical pattern (reported so
    /// clients can correlate cache behavior).
    pub pattern_hash: u64,
    /// Whether the prepared engine came out of the prepared cache.
    pub cache_hit: bool,
    /// End-to-end service latency of this query in seconds (parse + cache
    /// lookup / preparation + run).
    pub latency_seconds: f64,
    /// Whether the scheduler was chosen by [`sge_engine::RoutingConfig::route`]
    /// (`true`) or pinned by the caller (`false`).
    pub routed: bool,
    /// The enumeration result.
    pub outcome: EnumerationOutcome,
}

/// The result of an `EXPLAIN`: the prepared engine whose plan is reported.
#[derive(Clone)]
pub struct ExplainOutcome {
    /// Name of the target the plan was built against.
    pub target: String,
    /// Stable-within-process hash of the canonical pattern.
    pub pattern_hash: u64,
    /// Whether the plan came out of the prepared cache.
    pub cache_hit: bool,
    /// End-to-end service latency of the explain in seconds.
    pub latency_seconds: f64,
    /// The routing decision of the prepared engine (what an unpinned QUERY
    /// of the same spec dispatches as).
    pub routing: RoutingDecision,
    /// Whether the explained query would be routed (`true`) or ran
    /// with a caller-pinned scheduler (`false`).
    pub routed: bool,
    /// The scheduler the explained query would execute under: the routed
    /// choice, or the pinned one.
    pub effective_scheduler: Scheduler,
    /// The prepared engine; its [`PreparedEngine::plan`] carries the match
    /// order, its [`PreparedEngine::estimate`] the tree-size
    /// estimates.
    pub engine: Arc<PreparedEngine>,
}

/// The result of an `EXPLAIN ANALYZE`: the prepared engine (for the plan
/// and its estimates), the served query, and what the attached trace sink
/// observed — per match-order position — while it ran.
#[derive(Clone)]
pub struct ExplainAnalyzeOutcome {
    /// The served query (mappings empty — collection is disabled); its
    /// `latency_seconds` covers all spans.
    pub query: QueryOutcome,
    /// Candidates generated at each match-order position (the observed
    /// counterpart of the plan's `est_candidates`).
    pub observed_candidates: Vec<u64>,
    /// Consistency checks performed at each position (the observed
    /// counterpart of `est_states`); sums to the outcome's `states`.
    pub observed_states: Vec<u64>,
    /// Where the wall time went: `plan`, `admission_wait`, `enumeration`,
    /// with offsets relative to the query start.
    pub spans: Vec<SpanRecord>,
    /// The routing decision of the prepared engine.
    pub routing: RoutingDecision,
    /// The prepared engine whose plan carries the estimates.
    pub engine: Arc<PreparedEngine>,
}

/// Receiver of a streamed query's frames.  The executing service writes the
/// header from the calling thread and each frame from the worker that
/// filled it (the calling thread, or in a `ws:N` run a pooled helper), one
/// call at a time, so a sink must be [`Send`].
///
/// The TCP server implements this over the connection socket (one JSON line
/// per call); tests implement it over plain vectors.  Returning an error from
/// [`StreamSink::rows`] cancels the enumeration cooperatively.
pub trait StreamSink: Send {
    /// Called once, before enumeration starts, with the stream metadata.
    fn begin(&mut self, header: &StreamHeader) -> std::io::Result<()>;
    /// Called for every frame of up to `chunk` mappings (`rows[i][p]` is the
    /// target node pattern node `p` maps to).  The final frame may be short.
    fn rows(&mut self, rows: &[Vec<NodeId>]) -> std::io::Result<()>;
}

/// Metadata delivered to a [`StreamSink`] before the first row frame.
#[derive(Clone, Debug)]
pub struct StreamHeader {
    /// Name of the target the query runs against.
    pub target: String,
    /// Effective rows-per-frame (after clamping).
    pub chunk: usize,
    /// Whether the prepared engine came out of the prepared cache.
    pub cache_hit: bool,
    /// Stable-within-process hash of the canonical pattern.
    pub pattern_hash: u64,
    /// Algorithm variant that will run.
    pub algorithm: Algorithm,
    /// Scheduler the run executes under (the routed choice when `routed`).
    pub scheduler: Scheduler,
    /// Whether the scheduler was routed rather than caller-pinned.
    pub routed: bool,
}

/// The result of one streamed query: the usual outcome plus delivery facts.
#[derive(Clone, Debug)]
pub struct StreamedQueryOutcome {
    /// The underlying query outcome (mappings empty — rows went to the sink).
    pub query: QueryOutcome,
    /// Rows successfully handed to the sink.
    pub rows_sent: u64,
    /// Whether the stream was cut short (sink write failed / consumer gone);
    /// enumeration then stopped early and counts are lower bounds.
    pub cancelled: bool,
}
