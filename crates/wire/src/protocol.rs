//! The newline-delimited text protocol and its JSON response encoding.
//!
//! Requests are single lines of UTF-8 text; every request produces exactly
//! one single-line JSON response.  Verbs:
//!
//! ```text
//! LOAD <name> <path>
//! QUERY target=<name> [algo=<a>] [sched=<s>] [strategy=ri-greedy]
//!       [max=<n>] [timeout_ms=<n>] [collect=<n>] [seed=<n>]
//!       [emit=stream] [chunk=<k>]
//!       pattern=<inline> | pattern_file=<path>
//! EXPLAIN target=<name> [algo=<a>] [strategy=ri-greedy]
//!         pattern=<inline> | pattern_file=<path>
//! EXPLAIN ANALYZE target=<name> [...QUERY knobs...]
//!         pattern=<inline> | pattern_file=<path>
//! BATCH target=<name> n=<count>        (followed by <count> query lines
//!                                       using the QUERY grammar sans verb
//!                                       and target)
//! STATS
//! METRICS
//! SHUTDOWN
//! ```
//!
//! * `algo` — `ri`, `ri-ds`, `ri-ds-si` or `ri-ds-si-fc` (default).
//! * `sched` — `auto` (default: the run is routed from the price of the
//!   work it does, taken from the prepared search's probe estimate alone,
//!   so the same query routes the same way whatever ran before it: its
//!   states, or for a buffered count with no `max` and no `timeout_ms`,
//!   which counts its independent suffix, the states before the suffix
//!   plus one scan of the suffix's lists per count), or a pinned
//!   `seq` or `ws:<workers>[:<group>[:nosteal]]`, with at most
//!   [`max_workers`] workers (16 per core).  The query's thread runs
//!   worker 0 and offers the others to the process-wide pool of helper
//!   threads, which never holds more than [`max_workers`] − 1 helpers
//!   however many pinned queries run at once; a worker no helper takes is
//!   run by worker 0.
//!   Responses carry `routed` (whether routing chose) and `EXPLAIN`
//!   reports the decision under `routing`.
//! * `strategy` — the match order, which is always RI's
//!   GreatestConstraintFirst (`ri-greedy`; `greedy` and `gcf` are accepted,
//!   in any case, with `_` for `-`).  Any other value is an `unknown
//!   strategy` error, and every reply names the order as
//!   `"strategy":"ri-greedy"`.
//! * `emit` — `buffered` (default, one JSON response) or `stream` (see
//!   below); `chunk` — rows per streamed frame (default 64, clamped to at
//!   most 65536).  Not valid on `BATCH` continuation lines.
//! * `EXPLAIN` plans (through the prepared cache) without running and
//!   reports the match order, the per-position
//!   estimates of a seeded random-path probe of the prepared search and
//!   `counted_from`, the first position a count-only run counts instead of
//!   enumerating.
//! * `EXPLAIN ANALYZE` plans **and executes** (accepting the full QUERY
//!   knob set): the response carries the probe's per-position
//!   `est_candidates`/`est_states` side-by-side with the
//!   `observed_candidates`/`observed_states` a trace sink recorded during
//!   the run, plus a `spans` array (`plan`, `admission_wait`,
//!   `enumeration`) measured on the service clock.
//! * `METRICS` reports every registered metric (the `service.*`,
//!   `engine.*` and `cache.*` catalogue) as one JSON object.
//! * `pattern` — the `.gfu`/`.gfd` text with newlines replaced by `;` and
//!   in-line whitespace by `,` (a directed triangle is
//!   `3;0;0;0;3;0,1;1,2;2,0`).
//! * `pattern_file` — read the pattern from a server-side file instead.
//!
//! Responses always carry an `ok` field; errors are
//! `{"ok":false,"error":"..."}`.
//!
//! # Streaming responses (`emit=stream`)
//!
//! A streaming `QUERY` is answered with **multiple** lines instead of one:
//!
//! ```text
//! {"ok":true,"stream":true,"target":...,"chunk":K,...}     header
//! {"rows":[[...],[...],...]}                               ≤K rows per frame
//! ...                                                      more frames
//! {"ok":true,"done":true,"matches":N,"rows_sent":M,
//!  "cancelled":false,...}                                  footer
//! ```
//!
//! Clients read the header, then lines while they start with `{"rows":`;
//! the first non-frame line is the footer carrying the usual outcome fields
//! (`matches`, `latency_seconds`, `cache_hit`, `strategy`, …) plus
//! `rows_sent` and `cancelled`.  Rows are emitted in discovery order; on an
//! uncancelled stream `rows_sent == matches`.
//!
//! Frames leave as they are produced: server memory is O(chunk) regardless
//! of result cardinality, and a client that disconnects mid-stream cancels
//! the enumeration cooperatively.
//!
//! # Robustness limits
//!
//! Request lines longer than [`MAX_REQUEST_LINE_BYTES`] and `BATCH` headers
//! announcing more than [`MAX_BATCH_QUERIES`] continuation lines are
//! answered with a structured error and the connection is closed.  A
//! pinned scheduler asking for more than [`max_workers`] workers is
//! answered with a structured error and the connection keeps serving.

use crate::json::Json;
use crate::{
    EmitMode, ExplainAnalyzeOutcome, ExplainOutcome, GraphInfo, QueryOutcome, QuerySpec,
    ServiceError, StreamHeader, StreamedQueryOutcome,
};
use sge_engine::{PreparedEngine, RoutingDecision, RunConfig};
use sge_graph::NodeId;
use sge_obs::{MetricValue, MetricsSnapshot};
use sge_ri::PositionCost;
use sge_util::pool::{max_workers, WORKERS_PER_CORE};
use std::time::Duration;

/// Hard cap on one request line (newline included): longer lines are
/// answered with a structured error and the connection is dropped, so an
/// attacker cannot grow server memory by never sending a newline.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20; // 1 MiB

/// Hard cap on `BATCH n=<count>`: both the number of continuation lines a
/// valid batch may carry and the number of lines the server is willing to
/// drain after a malformed header (the header's announced count is attacker
/// controlled — an unbounded drain would let `n=u64::MAX` pin the
/// connection forever).
pub const MAX_BATCH_QUERIES: usize = 4096;

/// A parsed protocol request.
#[derive(Clone, Debug)]
pub enum Command {
    /// Load a target graph file into the registry.
    Load {
        /// Registry name.
        name: String,
        /// Server-side path of the `.gfu`/`.gfd` file.
        path: String,
        /// Per-load override of the bitmap sidecar's byte cap
        /// (`bitmap_cap=<bytes>`).
        bitmap_cap: Option<usize>,
    },
    /// Run one query.
    Query {
        /// Registry name of the target.
        target: String,
        /// The query.
        spec: QuerySpec,
    },
    /// Plan one query without running it and report the plan.
    Explain {
        /// Registry name of the target.
        target: String,
        /// The query whose plan is reported.  Nothing runs; its `max`,
        /// `timeout_ms` and `emit` only decide how routing prices it.
        spec: QuerySpec,
    },
    /// Plan **and execute** one query, reporting estimates vs. observed
    /// per-position counts and a span breakdown (`EXPLAIN ANALYZE`).
    ExplainAnalyze {
        /// Registry name of the target.
        target: String,
        /// The query to instrument (full QUERY knob set honored).
        spec: QuerySpec,
    },
    /// Header of a batch; `count` query lines follow.
    Batch {
        /// Registry name of the target all batched queries run against.
        target: String,
        /// Number of query lines that follow.
        count: usize,
    },
    /// Report service statistics.
    Stats,
    /// Report a snapshot of every registered metric.
    Metrics,
    /// Stop the server.
    Shutdown,
}

fn protocol_error(message: impl Into<String>) -> ServiceError {
    ServiceError::Protocol(message.into())
}

/// Decodes the `;`/`,` inline encoding back into graph text.
pub fn decode_inline_pattern(inline: &str) -> String {
    inline.replace(';', "\n").replace(',', " ")
}

/// Encodes graph text into the single-token inline form.
pub fn encode_inline_pattern(text: &str) -> String {
    text.trim_end_matches('\n')
        .replace('\n', ";")
        .replace(' ', ",")
}

/// What every reply carries under `"strategy"`: the name of the one match
/// order the planner builds, RI's GreatestConstraintFirst.
const STRATEGY: &str = "ri-greedy";

/// Accepts a `strategy=` value that names [`STRATEGY`]: `ri-greedy`,
/// `greedy` or `gcf`, in any case, with `_` for `-`.
fn check_strategy(value: &str) -> Result<(), ServiceError> {
    match value.to_ascii_lowercase().replace('_', "-").as_str() {
        "ri-greedy" | "greedy" | "gcf" => Ok(()),
        other => Err(protocol_error(format!(
            "unknown strategy '{other}' (expected {STRATEGY})"
        ))),
    }
}

struct QueryArgs {
    target: Option<String>,
    spec: Option<QuerySpec>,
}

fn parse_query_args(tokens: &[&str]) -> Result<QueryArgs, ServiceError> {
    let mut target = None;
    let mut pattern_text: Option<String> = None;
    let mut algorithm = sge_ri::Algorithm::RiDsSiFc;
    let mut run = RunConfig::default();
    let mut emit = EmitMode::default();
    let mut chunk = crate::DEFAULT_STREAM_CHUNK;
    let mut pinned = false;
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| protocol_error(format!("expected key=value, got '{token}'")))?;
        match key {
            "target" => target = Some(value.to_string()),
            "algo" => {
                algorithm = value.parse().map_err(protocol_error)?;
            }
            "sched" => {
                // `sched=auto` is the explicit spelling of the default:
                // let routing pick.  Any concrete scheduler pins it.
                if value.eq_ignore_ascii_case("auto") {
                    pinned = false;
                } else {
                    run.scheduler = value.parse().map_err(protocol_error)?;
                    let cap = max_workers();
                    if run.scheduler.workers() > cap {
                        return Err(protocol_error(format!(
                            "scheduler '{value}' exceeds the cap of {cap} workers \
                             ({WORKERS_PER_CORE} per core)"
                        )));
                    }
                    pinned = true;
                }
            }
            "strategy" => check_strategy(value)?,
            "max" => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| protocol_error(format!("invalid max '{value}'")))?;
                run.max_matches = Some(n);
            }
            "timeout_ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| protocol_error(format!("invalid timeout_ms '{value}'")))?;
                run.time_limit = Some(Duration::from_millis(ms));
            }
            "collect" => {
                run.collect_mappings = value
                    .parse()
                    .map_err(|_| protocol_error(format!("invalid collect '{value}'")))?;
            }
            "seed" => {
                run.seed = value
                    .parse()
                    .map_err(|_| protocol_error(format!("invalid seed '{value}'")))?;
            }
            "emit" => {
                emit = value.parse().map_err(protocol_error)?;
            }
            "chunk" => {
                chunk = value
                    .parse()
                    .ok()
                    .filter(|&k: &usize| k >= 1)
                    .ok_or_else(|| {
                        protocol_error(format!(
                            "invalid chunk '{value}' (expected an integer >= 1)"
                        ))
                    })?;
            }
            "pattern" => pattern_text = Some(decode_inline_pattern(value)),
            "pattern_file" => {
                pattern_text = Some(std::fs::read_to_string(value).map_err(|err| {
                    protocol_error(format!("cannot read pattern_file '{value}': {err}"))
                })?);
            }
            other => return Err(protocol_error(format!("unknown key '{other}'"))),
        }
    }
    let spec = pattern_text.map(|pattern_text| QuerySpec {
        pattern_text,
        algorithm,
        run,
        emit,
        chunk,
        pinned,
    });
    Ok(QueryArgs { target, spec })
}

/// Parses one request line into a [`Command`].
pub fn parse_command(line: &str) -> Result<Command, ServiceError> {
    let line = line.trim();
    let mut tokens = line.split_whitespace();
    let verb = tokens
        .next()
        .ok_or_else(|| protocol_error("empty request"))?
        .to_ascii_uppercase();
    let rest: Vec<&str> = tokens.collect();
    match verb.as_str() {
        "LOAD" => {
            if rest.len() < 2 || rest.len() > 3 {
                return Err(protocol_error(
                    "usage: LOAD <name> <path> [bitmap_cap=<bytes>]",
                ));
            }
            let bitmap_cap = match rest.get(2) {
                None => None,
                Some(token) => match token.split_once('=') {
                    Some(("bitmap_cap", value)) => Some(value.parse::<usize>().map_err(|_| {
                        protocol_error(format!("invalid bitmap_cap '{value}' (expected bytes)"))
                    })?),
                    _ => {
                        return Err(protocol_error(format!(
                            "unknown LOAD option '{token}' (expected bitmap_cap=<bytes>)"
                        )))
                    }
                },
            };
            Ok(Command::Load {
                name: rest[0].to_string(),
                path: rest[1].to_string(),
                bitmap_cap,
            })
        }
        "QUERY" | "EXPLAIN" => {
            // `EXPLAIN ANALYZE` is the two-token form; the modifier comes
            // before the first key=value pair.
            let analyze = verb == "EXPLAIN"
                && rest
                    .first()
                    .is_some_and(|token| token.eq_ignore_ascii_case("ANALYZE"));
            let args = parse_query_args(if analyze { &rest[1..] } else { &rest })?;
            let target = args
                .target
                .ok_or_else(|| protocol_error(format!("{verb} requires target=<name>")))?;
            let spec = args.spec.ok_or_else(|| {
                protocol_error(format!(
                    "{verb} requires pattern=<inline> or pattern_file=<path>"
                ))
            })?;
            if analyze {
                Ok(Command::ExplainAnalyze { target, spec })
            } else if verb == "EXPLAIN" {
                Ok(Command::Explain { target, spec })
            } else {
                Ok(Command::Query { target, spec })
            }
        }
        "BATCH" => {
            let mut target = None;
            let mut count = None;
            for token in &rest {
                match token.split_once('=') {
                    Some(("target", value)) => target = Some(value.to_string()),
                    Some(("n", value)) => {
                        count = Some(value.parse::<usize>().map_err(|_| {
                            protocol_error(format!("invalid batch size '{value}'"))
                        })?);
                    }
                    _ => return Err(protocol_error(format!("unknown batch token '{token}'"))),
                }
            }
            let count = count.ok_or_else(|| protocol_error("BATCH requires n=<count>"))?;
            if count == 0 {
                // An empty batch is always a client bug; answer with a
                // structured error instead of a vacuous ok-reply (there are
                // no continuation lines to consume for n=0).
                return Err(protocol_error("BATCH requires n >= 1 query lines"));
            }
            if count > MAX_BATCH_QUERIES {
                return Err(protocol_error(format!(
                    "BATCH n={count} exceeds the per-batch cap of {MAX_BATCH_QUERIES} queries"
                )));
            }
            Ok(Command::Batch {
                target: target.ok_or_else(|| protocol_error("BATCH requires target=<name>"))?,
                count,
            })
        }
        "STATS" => Ok(Command::Stats),
        "METRICS" => Ok(Command::Metrics),
        "SHUTDOWN" => Ok(Command::Shutdown),
        other => Err(protocol_error(format!(
            "unknown verb '{other}' (expected LOAD, QUERY, EXPLAIN, EXPLAIN ANALYZE, BATCH, \
             STATS, METRICS or SHUTDOWN)"
        ))),
    }
}

/// Parses one batch continuation line (the QUERY grammar without the verb
/// and without `target=`).
pub fn parse_batch_query(line: &str) -> Result<QuerySpec, ServiceError> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let args = parse_query_args(&tokens)?;
    if args.target.is_some() {
        return Err(protocol_error(
            "batch query lines must not carry target= (it is fixed by the BATCH header)",
        ));
    }
    let spec = args.spec.ok_or_else(|| {
        protocol_error("batch query requires pattern=<inline> or pattern_file=<path>")
    })?;
    if spec.emit == EmitMode::Stream {
        // A batch is answered with one aggregated JSON line; there is no
        // per-query framing for row streams to ride on.
        return Err(protocol_error(
            "emit=stream is only valid on a top-level QUERY, not inside a BATCH",
        ));
    }
    Ok(spec)
}

/// `{"ok":false,"error":...}`.
pub fn error_response(error: &ServiceError) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::str(error.to_string())),
    ])
}

/// Response to a successful `LOAD`.
pub fn load_response(info: &GraphInfo) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("target", Json::str(info.name.clone())),
        ("nodes", Json::U64(info.nodes as u64)),
        ("edges", Json::U64(info.edges as u64)),
        ("bitmap_rows", Json::U64(info.bitmap_rows as u64)),
        ("bitmap_bytes", Json::U64(info.bitmap_bytes as u64)),
        ("bitmap_capped", Json::Bool(info.bitmap_capped)),
    ])
}

/// The response body shared by `QUERY`, stream footers and `BATCH` result
/// entries: every outcome field except the leading `ok` marker.
pub fn query_body(query: &QueryOutcome) -> Vec<(&'static str, Json)> {
    let outcome = &query.outcome;
    let mut pairs = vec![
        ("target", Json::str(query.target.clone())),
        ("algorithm", Json::str(outcome.algorithm.name())),
        ("strategy", Json::str(STRATEGY)),
        ("scheduler", Json::str(outcome.scheduler.to_string())),
        ("routed", Json::Bool(query.routed)),
        ("workers", Json::U64(outcome.workers as u64)),
        ("matches", Json::U64(outcome.matches)),
        ("states", Json::U64(outcome.states)),
        ("cache_hit", Json::Bool(query.cache_hit)),
        ("pattern_hash", hash_json(query.pattern_hash)),
        ("preprocess_seconds", Json::F64(outcome.preprocess_seconds)),
        ("match_seconds", Json::F64(outcome.match_seconds)),
        ("latency_seconds", Json::F64(query.latency_seconds)),
        ("timed_out", Json::Bool(outcome.timed_out)),
        ("limit_hit", Json::Bool(outcome.limit_hit)),
    ];
    if !outcome.mappings.is_empty() {
        pairs.push(("mappings", rows_json(&outcome.mappings)));
    }
    pairs
}

/// Mappings as nested arrays: `rows[i][p]` is the target node pattern node
/// `p` maps to.
fn rows_json(rows: &[Vec<NodeId>]) -> Json {
    let row =
        |mapping: &Vec<NodeId>| Json::Arr(mapping.iter().map(|&v| Json::U64(v as u64)).collect());
    Json::Arr(rows.iter().map(row).collect())
}

/// A pattern hash as the 16-digit hex string every response carries.
fn hash_json(hash: u64) -> Json {
    Json::str(format!("{hash:016x}"))
}

/// Response to a successful `QUERY`.
pub fn query_response(query: &QueryOutcome) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.extend(query_body(query));
    Json::obj(pairs)
}

/// Header line of a streamed `QUERY` (`emit=stream`): announces the stream
/// and its framing before any rows are enumerated.
pub fn stream_header_response(header: &StreamHeader) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("stream", Json::Bool(true)),
        ("target", Json::str(header.target.clone())),
        ("chunk", Json::U64(header.chunk as u64)),
        ("algorithm", Json::str(header.algorithm.name())),
        ("strategy", Json::str(STRATEGY)),
        ("scheduler", Json::str(header.scheduler.to_string())),
        ("routed", Json::Bool(header.routed)),
        ("cache_hit", Json::Bool(header.cache_hit)),
        ("pattern_hash", hash_json(header.pattern_hash)),
    ])
}

/// One row frame of a streamed `QUERY`: up to `chunk` mappings
/// (`rows[i][p]` = target node pattern node `p` maps to).
pub fn stream_rows_frame(rows: &[Vec<NodeId>]) -> Json {
    Json::obj(vec![("rows", rows_json(rows))])
}

/// Footer line of a streamed `QUERY`: the usual outcome fields plus how many
/// rows were delivered and whether the stream was cut short.
pub fn stream_footer_response(streamed: &StreamedQueryOutcome) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("done", Json::Bool(true)),
        ("rows_sent", Json::U64(streamed.rows_sent)),
        ("cancelled", Json::Bool(streamed.cancelled)),
    ];
    pairs.extend(query_body(&streamed.query));
    Json::obj(pairs)
}

/// The `routing` sub-object of `EXPLAIN` / `EXPLAIN ANALYZE` responses: the
/// scheduler the query dispatches under, whether routing chose it, the
/// threshold and the price routing compared.  A run that walks its tree
/// (streamed, traced, limited or with a deadline) is priced at the
/// top-level `est_total_states`; a buffered run with no limit and no
/// deadline counts its independent suffix and is priced lower, at
/// [`PreparedEngine::count_only_price`].
fn routing_object(decision: &RoutingDecision, effective_scheduler: &str, routed: bool) -> Json {
    Json::obj(vec![
        ("chosen_scheduler", Json::str(effective_scheduler)),
        ("routed", Json::Bool(routed)),
        ("threshold", Json::F64(decision.threshold)),
        ("price", Json::F64(decision.price)),
    ])
}

/// The `order`, `est_candidates`, `est_states` and `kernels` arrays both
/// `EXPLAIN` verbs report: the pattern node and the probe's estimates per
/// match-order position, and the kernel each position resolved to.
fn plan_arrays(engine: &PreparedEngine) -> [Json; 4] {
    let plan = engine.plan();
    let estimates = |pick: fn(&PositionCost) -> f64| {
        Json::Arr(
            engine
                .estimate()
                .positions
                .iter()
                .map(|p| Json::F64(pick(p)))
                .collect(),
        )
    };
    [
        Json::Arr(
            plan.order
                .positions
                .iter()
                .map(|&v| Json::U64(v as u64))
                .collect(),
        ),
        estimates(|p| p.est_candidates),
        estimates(|p| p.est_states),
        Json::Arr(
            engine
                .resolved_kernels()
                .into_iter()
                .map(Json::str)
                .collect(),
        ),
    ]
}

/// Response to a successful `EXPLAIN`: the match order (pattern node per
/// position) and the per-position probe estimates.
pub fn explain_response(explain: &ExplainOutcome) -> Json {
    let plan = explain.engine.plan();
    let [order, est_candidates, est_states, kernels] = plan_arrays(&explain.engine);
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("target", Json::str(explain.target.clone())),
        ("algorithm", Json::str(plan.algorithm.name())),
        ("strategy", Json::str(STRATEGY)),
        ("positions", Json::U64(plan.num_positions() as u64)),
        ("order", order),
        ("est_candidates", est_candidates),
        ("est_states", est_states),
        (
            "est_total_states",
            Json::F64(explain.engine.estimate().est_total_states),
        ),
        (
            "routing",
            routing_object(
                &explain.routing,
                &explain.effective_scheduler.to_string(),
                explain.routed,
            ),
        ),
        ("kernels", kernels),
        (
            "counted_from",
            Json::U64(explain.engine.counted_from() as u64),
        ),
        ("impossible", Json::Bool(explain.engine.impossible())),
        ("cache_hit", Json::Bool(explain.cache_hit)),
        ("pattern_hash", hash_json(explain.pattern_hash)),
        ("latency_seconds", Json::F64(explain.latency_seconds)),
    ])
}

/// Response to a successful `EXPLAIN ANALYZE`: the plan's per-position
/// estimates side-by-side with the observed counts, the executed outcome,
/// and a span breakdown of the wall time (offsets relative to query start,
/// measured on the service clock).
pub fn explain_analyze_response(analyze: &ExplainAnalyzeOutcome) -> Json {
    let plan = analyze.engine.plan();
    let query = &analyze.query;
    let outcome = &query.outcome;
    let [order, est_candidates, est_states, kernels] = plan_arrays(&analyze.engine);
    let observed = |counts: &[u64]| Json::Arr(counts.iter().map(|&c| Json::U64(c)).collect());
    let spans = Json::Arr(
        analyze
            .spans
            .iter()
            .map(|span| {
                Json::obj(vec![
                    ("name", Json::str(span.name.clone())),
                    ("start_seconds", Json::F64(span.start_seconds)),
                    ("duration_seconds", Json::F64(span.duration_seconds)),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("analyze", Json::Bool(true)),
        ("target", Json::str(query.target.clone())),
        ("algorithm", Json::str(plan.algorithm.name())),
        ("strategy", Json::str(STRATEGY)),
        ("scheduler", Json::str(outcome.scheduler.to_string())),
        ("workers", Json::U64(outcome.workers as u64)),
        ("positions", Json::U64(plan.num_positions() as u64)),
        ("order", order),
        ("est_candidates", est_candidates),
        ("est_states", est_states),
        (
            "observed_candidates",
            observed(&analyze.observed_candidates),
        ),
        ("observed_states", observed(&analyze.observed_states)),
        (
            "est_total_states",
            Json::F64(analyze.engine.estimate().est_total_states),
        ),
        (
            "routing",
            routing_object(
                &analyze.routing,
                &outcome.scheduler.to_string(),
                query.routed,
            ),
        ),
        ("kernels", kernels),
        (
            "counted_from",
            Json::U64(analyze.engine.counted_from() as u64),
        ),
        (
            "kernel_usage",
            Json::obj(vec![
                ("bitmap", Json::U64(outcome.kernels.bitmap)),
                ("gallop", Json::U64(outcome.kernels.gallop)),
                ("merge", Json::U64(outcome.kernels.merge)),
                (
                    "prefilter_rejected",
                    Json::U64(outcome.kernels.prefilter_rejected),
                ),
                ("lists", Json::U64(outcome.kernels.lists)),
                ("reused", Json::U64(outcome.kernels.reused)),
            ]),
        ),
        ("matches", Json::U64(outcome.matches)),
        ("states", Json::U64(outcome.states)),
        ("steals", Json::U64(outcome.steals)),
        ("cache_hit", Json::Bool(query.cache_hit)),
        ("pattern_hash", hash_json(query.pattern_hash)),
        ("spans", spans),
        ("preprocess_seconds", Json::F64(outcome.preprocess_seconds)),
        ("match_seconds", Json::F64(outcome.match_seconds)),
        ("latency_seconds", Json::F64(query.latency_seconds)),
        ("timed_out", Json::Bool(outcome.timed_out)),
        ("limit_hit", Json::Bool(outcome.limit_hit)),
    ])
}

/// Renders a metrics snapshot as the `METRICS` response: one JSON object
/// with every registered metric, sorted by name — counters and gauges as
/// integers, histograms as nested summary objects.
pub fn metrics_json(snapshot: MetricsSnapshot) -> Json {
    let metrics = snapshot
        .into_iter()
        .map(|(name, value)| {
            let rendered = match value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => Json::U64(v),
                MetricValue::Histogram(summary) => Json::obj(vec![
                    ("count", Json::U64(summary.count)),
                    ("mean_seconds", Json::F64(summary.mean_seconds)),
                    ("min_seconds", Json::F64(summary.min_seconds)),
                    ("max_seconds", Json::F64(summary.max_seconds)),
                    ("p50_seconds", Json::F64(summary.p50_seconds)),
                    ("p90_seconds", Json::F64(summary.p90_seconds)),
                    ("p99_seconds", Json::F64(summary.p99_seconds)),
                ]),
            };
            (name, rendered)
        })
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Response to `SHUTDOWN`.
pub fn shutdown_response() -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("shutdown", Json::Bool(true)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_engine::Scheduler;
    use sge_ri::Algorithm;

    #[test]
    fn inline_pattern_roundtrip() {
        let text = "3\n0\n0\n0\n3\n0 1\n1 2\n2 0\n";
        let inline = encode_inline_pattern(text);
        assert_eq!(inline, "3;0;0;0;3;0,1;1,2;2,0");
        assert!(!inline.contains(char::is_whitespace));
        assert_eq!(decode_inline_pattern(&inline), text.trim_end().to_string());
    }

    #[test]
    fn parses_load() {
        let command = parse_command("LOAD mol /data/mol.gfu").unwrap();
        match command {
            Command::Load {
                name,
                path,
                bitmap_cap,
            } => {
                assert_eq!(name, "mol");
                assert_eq!(path, "/data/mol.gfu");
                assert_eq!(bitmap_cap, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_command("LOAD mol /data/mol.gfu bitmap_cap=1024").unwrap() {
            Command::Load { bitmap_cap, .. } => assert_eq!(bitmap_cap, Some(1024)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_command("LOAD onlyname").is_err());
        assert!(parse_command("LOAD mol /p bitmap_cap=oops").is_err());
        assert!(parse_command("LOAD mol /p wrong=1").is_err());
    }

    #[test]
    fn parses_query_with_all_knobs() {
        let line = "QUERY target=k5 algo=ri-ds sched=ws:4:2:nosteal max=10 \
                    timeout_ms=500 collect=3 seed=7 pattern=2;0;0;1;0,1";
        let command = parse_command(line).unwrap();
        match command {
            Command::Query { target, spec } => {
                assert_eq!(target, "k5");
                assert_eq!(spec.algorithm, Algorithm::RiDs);
                assert_eq!(
                    spec.run.scheduler,
                    Scheduler::WorkStealing {
                        workers: 4,
                        task_group_size: 2,
                        stealing: false
                    }
                );
                assert_eq!(spec.run.max_matches, Some(10));
                assert_eq!(spec.run.time_limit, Some(Duration::from_millis(500)));
                assert_eq!(spec.run.collect_mappings, 3);
                assert_eq!(spec.run.seed, 7);
                assert_eq!(spec.pattern_text, "2\n0\n0\n1\n0 1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scheduler_worker_counts_are_capped() {
        let cap = max_workers();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(cap, WORKERS_PER_CORE * cores);
        let line = |n: usize| format!("QUERY target=k5 sched=ws:{n} pattern=1;0;0");
        match parse_command(&line(cap)).unwrap() {
            Command::Query { spec, .. } => {
                assert_eq!(spec.run.scheduler.workers(), cap);
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse_command(&line(cap + 1)).expect_err("over the cap");
        let rendered = error_response(&err).render();
        assert!(rendered.starts_with("{\"ok\":false,"), "{rendered}");
        assert!(
            rendered.contains(&format!("exceeds the cap of {cap} workers")),
            "{rendered}"
        );
        let over = format!("sched=ws:{} pattern=1;0;0", cap + 1);
        assert!(parse_batch_query(&over).is_err());
    }

    #[test]
    fn parses_strategy_mode_and_explain() {
        // Every spelling of the one order parses like a line without the key.
        let debug = |line: &str| format!("{:?}", parse_command(line).unwrap());
        let batch = |line: &str| format!("{:?}", parse_batch_query(line).unwrap());
        for spelling in ["ri-greedy", "greedy", "RI_GREEDY"] {
            for verb in ["QUERY", "EXPLAIN"] {
                assert_eq!(
                    debug(&format!(
                        "{verb} target=k5 strategy={spelling} pattern=1;0;0"
                    )),
                    debug(&format!("{verb} target=k5 pattern=1;0;0")),
                    "{verb} {spelling}"
                );
            }
            assert_eq!(
                batch(&format!("strategy={spelling} pattern=1;0;0")),
                batch("pattern=1;0;0"),
                "{spelling}"
            );
        }
        match parse_command("EXPLAIN target=k5 strategy=gcf pattern=1;0;0").unwrap() {
            Command::Explain { target, .. } => assert_eq!(target, "k5"),
            other => panic!("unexpected {other:?}"),
        }
        // Any other order is an unknown strategy, whatever its name.
        for value in ["least-frequent-label", "degree-descending", "wat"] {
            for line in [
                format!("QUERY target=k5 strategy={value} pattern=1;0;0"),
                format!("EXPLAIN target=k5 strategy={value} pattern=1;0;0"),
            ] {
                let err = parse_command(&line).expect_err(&line);
                let rendered = error_response(&err).render();
                assert!(rendered.contains("unknown strategy"), "{rendered}");
            }
            let err = parse_batch_query(&format!("strategy={value} pattern=1;0;0"));
            assert!(err.is_err(), "{value}");
        }
        assert!(parse_command("EXPLAIN target=k5").is_err());
        assert!(parse_command("EXPLAIN pattern=1;0;0").is_err());
        let err = parse_command("QUERY target=k5 mode=intersection pattern=1;0;0")
            .expect_err("mode= is not a QUERY key");
        assert!(err.to_string().contains("unknown key 'mode'"), "{err}");
    }

    #[test]
    fn query_requires_target_and_pattern() {
        assert!(parse_command("QUERY pattern=1;0;0").is_err());
        assert!(parse_command("QUERY target=k5").is_err());
        assert!(parse_command("QUERY target=k5 algo=wat pattern=1;0;0").is_err());
        assert!(parse_command("QUERY target=k5 bogus=1 pattern=1;0;0").is_err());
    }

    #[test]
    fn parses_batch_header_and_lines() {
        match parse_command("BATCH target=k5 n=3").unwrap() {
            Command::Batch { target, count } => {
                assert_eq!(target, "k5");
                assert_eq!(count, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        let spec = parse_batch_query("algo=ri pattern=1;0;0").unwrap();
        assert_eq!(spec.algorithm, Algorithm::Ri);
        assert!(parse_batch_query("target=k5 pattern=1;0;0").is_err());
        assert!(parse_batch_query("algo=ri").is_err());
        assert!(parse_command("BATCH target=k5").is_err());
        assert!(parse_command("BATCH n=2").is_err());
    }

    #[test]
    fn empty_batch_is_a_structured_error() {
        let err = parse_command("BATCH target=k5 n=0").expect_err("n=0 must be rejected");
        let rendered = error_response(&err).render();
        assert!(rendered.starts_with("{\"ok\":false,"), "{rendered}");
        assert!(rendered.contains("n >= 1"), "{rendered}");
    }

    #[test]
    fn parses_streaming_knobs() {
        match parse_command("QUERY target=k5 emit=stream chunk=5 pattern=1;0;0").unwrap() {
            Command::Query { spec, .. } => {
                assert_eq!(spec.emit, EmitMode::Stream);
                assert_eq!(spec.chunk, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_command("QUERY target=k5 emit=buffered pattern=1;0;0").unwrap() {
            Command::Query { spec, .. } => {
                assert_eq!(spec.emit, EmitMode::Buffered);
                assert_eq!(spec.chunk, crate::DEFAULT_STREAM_CHUNK);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_command("QUERY target=k5 emit=wat pattern=1;0;0").is_err());
        assert!(parse_command("QUERY target=k5 emit=stream chunk=0 pattern=1;0;0").is_err());
        assert!(parse_command("QUERY target=k5 chunk=x pattern=1;0;0").is_err());
        // Streaming is a top-level QUERY affair; batch lines are rejected.
        let err = parse_batch_query("emit=stream pattern=1;0;0").expect_err("no batch streams");
        assert!(err.to_string().contains("only valid on a top-level QUERY"));
    }

    #[test]
    fn oversized_batch_header_is_rejected() {
        let err = parse_command(&format!("BATCH target=k5 n={}", MAX_BATCH_QUERIES + 1))
            .expect_err("over-cap batch must be rejected");
        assert!(err.to_string().contains("per-batch cap"), "{err}");
        // The attacker-controlled extreme is rejected the same way.
        assert!(parse_command("BATCH target=k5 n=18446744073709551615").is_err());
        // The cap itself is fine.
        assert!(parse_command(&format!("BATCH target=k5 n={MAX_BATCH_QUERIES}")).is_ok());
    }

    #[test]
    fn stream_frames_render_as_documented() {
        use sge_engine::Scheduler;
        let header = StreamHeader {
            target: "k5".into(),
            chunk: 2,
            cache_hit: true,
            pattern_hash: 0xABCD,
            algorithm: Algorithm::RiDsSiFc,
            scheduler: Scheduler::Sequential,
            routed: false,
        };
        let rendered = stream_header_response(&header).render();
        assert!(
            rendered.starts_with("{\"ok\":true,\"stream\":true,"),
            "{rendered}"
        );
        assert!(rendered.contains("\"chunk\":2"));
        assert!(rendered.contains("\"cache_hit\":true"));

        let frame = stream_rows_frame(&[vec![0, 1, 2], vec![3, 4, 5]]).render();
        assert_eq!(frame, "{\"rows\":[[0,1,2],[3,4,5]]}");
        assert_eq!(stream_rows_frame(&[]).render(), "{\"rows\":[]}");
    }

    #[test]
    fn parses_explain_analyze() {
        match parse_command("EXPLAIN ANALYZE target=k5 sched=ws:2 seed=9 pattern=1;0;0").unwrap() {
            Command::ExplainAnalyze { target, spec } => {
                assert_eq!(target, "k5");
                assert_eq!(spec.run.scheduler, Scheduler::work_stealing(2));
                assert_eq!(spec.run.seed, 9);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The modifier is case-insensitive like the verb itself.
        assert!(matches!(
            parse_command("explain analyze target=k5 pattern=1;0;0").unwrap(),
            Command::ExplainAnalyze { .. }
        ));
        // A plain EXPLAIN is untouched by the two-token form.
        assert!(matches!(
            parse_command("EXPLAIN target=k5 pattern=1;0;0").unwrap(),
            Command::Explain { .. }
        ));
        assert!(parse_command("EXPLAIN ANALYZE target=k5").is_err());
        assert!(parse_command("EXPLAIN ANALYZE pattern=1;0;0").is_err());
    }

    #[test]
    fn parses_bare_verbs_and_rejects_unknown() {
        assert!(matches!(parse_command("STATS").unwrap(), Command::Stats));
        assert!(matches!(parse_command("stats").unwrap(), Command::Stats));
        assert!(matches!(
            parse_command("METRICS").unwrap(),
            Command::Metrics
        ));
        assert!(matches!(
            parse_command("metrics").unwrap(),
            Command::Metrics
        ));
        assert!(matches!(
            parse_command("SHUTDOWN").unwrap(),
            Command::Shutdown
        ));
        assert!(parse_command("").is_err());
        assert!(parse_command("EXPLODE now").is_err());
    }

    #[test]
    fn error_response_shape() {
        let rendered = error_response(&ServiceError::UnknownTarget("x".into())).render();
        assert_eq!(rendered, "{\"ok\":false,\"error\":\"unknown target 'x'\"}");
    }
}
