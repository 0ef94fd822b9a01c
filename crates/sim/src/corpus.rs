//! The pinned regression corpus: named scenarios, each with a pinned seed,
//! covering every fault class the simulator knows how to inject.
//!
//! These run on every `cargo test` (byte-identical-trace determinism check)
//! and in CI's `sim-swarm` job.  A swarm failure is added here as a new
//! scenario pinned to the seed that found it — the corpus is the fossil
//! record of every interleaving bug the harness has caught.

use crate::scenario::{edge_inline, inline, pinned_config, ClientScript, Scenario, TargetKind};
use crate::transport::{ReadFault, WriteFault};
use sge_graph::generators;
use sge_service::protocol::MAX_REQUEST_LINE_BYTES;
use sge_service::ServiceConfig;
use std::time::Duration;

fn tri() -> String {
    crate::scenario::triangle_inline()
}

fn query(pattern: &str) -> String {
    format!("QUERY target=k5 pattern={pattern}")
}

fn stream_query(chunk: usize, extra: &str) -> String {
    let mut line = format!("QUERY target=k5 emit=stream chunk={chunk}");
    if !extra.is_empty() {
        line.push(' ');
        line.push_str(extra);
    }
    line.push_str(&format!(" pattern={}", tri()));
    line
}

/// Every pinned scenario, in a stable order.
pub fn corpus() -> Vec<Scenario> {
    vec![
        smoke(),
        stream_happy(),
        disconnect_mid_stream(),
        slow_reader_stall(),
        oversized_line(),
        invalid_utf8(),
        truncated_request(),
        reset_mid_request(),
        shutdown_during_drain(),
        batch_inflight_vs_shutdown(),
        batch_malformed_header(),
        cache_interleave(),
        cache_eviction_churn(),
        metrics_and_analyze(),
        idle_swarm_interleaved_queries(),
        disconnect_while_writable(),
        routing_keys(),
        dense_target_bitmap_kernels(),
        failing_query_verbs(),
    ]
}

/// Looks a corpus scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    corpus().into_iter().find(|scenario| scenario.name == name)
}

/// One well-behaved client: buffered QUERY, EXPLAIN, STATS, clean EOF.
pub fn smoke() -> Scenario {
    Scenario::new("smoke", 0x5EED_0001)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(ClientScript::new(vec![
            query(&tri()),
            format!("EXPLAIN target=k5 pattern={}", tri()),
            "STATS".to_string(),
        ]))
}

/// A full streamed QUERY: header, 4 frames (16+16+16+12 of 60 triangle
/// matches), footer — nothing cancelled, so every count stays in the trace.
pub fn stream_happy() -> Scenario {
    Scenario::new("stream_happy", 0x5EED_0002)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(ClientScript::new(vec![
            stream_query(16, ""),
            "STATS".to_string(),
        ]))
}

/// PR 5's regression path: the client vanishes between a row frame and the
/// footer.  The write fails with `BrokenPipe`, enumeration is cancelled
/// cooperatively, the connection dies with an I/O error — while a second,
/// healthy client keeps being served.  Counts are normalized: how far the
/// producer got before observing the cancel token is OS scheduling, not seed.
pub fn disconnect_mid_stream() -> Scenario {
    Scenario::new("disconnect_mid_stream", 0x5EED_0003)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(
            ClientScript::new(vec![stream_query(8, "")])
                .with_write_fault(WriteFault::disconnect_after_lines(3)),
        )
        .with_client(ClientScript::new(vec![
            query(&edge_inline()),
            "STATS".to_string(),
        ]))
        .with_normalized_counts()
}

/// A slow reader: every response line written to client 0 stalls the virtual
/// clock 5 ms, so its streamed QUERY's latency includes the backpressure —
/// visible in the trace timestamps and the STATS latency fields, all derived
/// from the injected clock.
pub fn slow_reader_stall() -> Scenario {
    Scenario::new("slow_reader_stall", 0x5EED_0004)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(
            ClientScript::new(vec![stream_query(8, ""), "STATS".to_string()])
                .with_write_fault(WriteFault::slow_reader(Duration::from_millis(5))),
        )
        .with_client(ClientScript::new(vec![query(&edge_inline())]))
}

/// A request line over the 1 MiB cap: answered with a structured error and
/// the connection is closed without the server buffering the whole line.
pub fn oversized_line() -> Scenario {
    Scenario::new("oversized_line", 0x5EED_0005)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(ClientScript::new(vec![format!(
            "QUERY target=k5 pattern={}",
            "x".repeat(MAX_REQUEST_LINE_BYTES)
        )]))
        .with_client(ClientScript::new(vec![query(&tri())]))
}

/// A non-UTF-8 request line: structured error, connection closed.
pub fn invalid_utf8() -> Scenario {
    Scenario::new("invalid_utf8", 0x5EED_0006)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(
            ClientScript::new(vec!["STATS".to_string()])
                .with_trailing_bytes(vec![0xFF, 0xFE, 0x80, b'\n']),
        )
}

/// The client's stream ends mid-line (half-closed socket): the server sees a
/// partial request with no newline, answers a parse error, then EOF.
pub fn truncated_request() -> Scenario {
    let first = query(&tri());
    let cut = first.len() + 1 + 10; // 10 bytes into the second request
    Scenario::new("truncated_request", 0x5EED_0007)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(
            ClientScript::new(vec![first, query(&edge_inline())])
                .with_read_fault(ReadFault::TruncateAtByte(cut)),
        )
}

/// The client's stream aborts with `ECONNRESET` mid-connection: the step
/// surfaces an I/O error and the connection dies without a response.
pub fn reset_mid_request() -> Scenario {
    let first = "STATS".to_string();
    let cut = first.len() + 1; // reset right after the first request
    Scenario::new("reset_mid_request", 0x5EED_0008)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(
            ClientScript::new(vec![first, query(&tri())])
                .with_read_fault(ReadFault::ResetAfterByte(cut)),
        )
        .with_client(ClientScript::new(vec![query(&edge_inline())]))
}

/// SHUTDOWN while other clients still have scripted requests queued: the
/// seed decides how many of them get served before the flag goes up; the
/// rest drain unserved, exactly like the real accept loop.
pub fn shutdown_during_drain() -> Scenario {
    // Seed 13 pins the interesting ordering: client 0 gets one query served,
    // then the SHUTDOWN lands and clients 0 and 2 drain with work queued.
    Scenario::new("shutdown_during_drain", 13)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(ClientScript::new(vec![
            query(&tri()),
            query(&edge_inline()),
            "STATS".to_string(),
        ]))
        .with_client(ClientScript::new(vec!["SHUTDOWN".to_string()]))
        .with_client(ClientScript::new(vec![
            query(&edge_inline()),
            query(&tri()),
        ]))
}

/// SHUTDOWN racing an in-flight BATCH: one client submits a 3-query batch
/// (header + continuation lines consumed in one step, so the batch either
/// fully runs or fully drains — never half), another issues SHUTDOWN.
pub fn batch_inflight_vs_shutdown() -> Scenario {
    Scenario::new("batch_inflight_vs_shutdown", 0x5EED_000A)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(ClientScript::new(vec![
            "BATCH target=k5 n=3".to_string(),
            format!("pattern={}", tri()),
            format!("pattern={}", edge_inline()),
            format!("pattern={}", tri()),
            "STATS".to_string(),
        ]))
        .with_client(ClientScript::new(vec!["SHUTDOWN".to_string()]))
}

/// Malformed batches: an unparsable header (continuation lines still
/// drained, connection stays in sync), a batch with one bad continuation
/// line, then a clean STATS proving the connection survived both.
pub fn batch_malformed_header() -> Scenario {
    Scenario::new("batch_malformed_header", 0x5EED_000B)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(ClientScript::new(vec![
            "BATCH target=k5 n=banana".to_string(),
            "BATCH target=k5 n=2".to_string(),
            format!("pattern={}", tri()),
            "pattern=not;a;graph".to_string(),
            "STATS".to_string(),
        ]))
}

/// Two clients interleaving the same two patterns: cache hits depend on who
/// prepared first, which the seed pins — the `cache_hit` flags in the trace
/// are the regression assertion for registry/cache races.
pub fn cache_interleave() -> Scenario {
    Scenario::new("cache_interleave", 0x5EED_000C)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(ClientScript::new(vec![
            query(&tri()),
            query(&edge_inline()),
            query(&tri()),
        ]))
        .with_client(ClientScript::new(vec![
            query(&edge_inline()),
            query(&tri()),
            query(&edge_inline()),
            "STATS".to_string(),
        ]))
}

/// Five distinct patterns through a 2-entry cache, twice over: constant
/// eviction churn; the second pass's `cache_hit` flags pin the LRU policy.
pub fn cache_eviction_churn() -> Scenario {
    let patterns = vec![
        inline(&generators::directed_cycle(3, 0)),
        inline(&generators::directed_path(2, 0)),
        inline(&generators::directed_path(3, 0)),
        inline(&generators::directed_cycle(4, 0)),
        inline(&generators::directed_path(4, 0)),
    ];
    let mut requests: Vec<String> = Vec::new();
    for _ in 0..2 {
        for pattern in &patterns {
            requests.push(query(pattern));
        }
    }
    requests.push("STATS".to_string());
    Scenario::new("cache_eviction_churn", 0x5EED_000D)
        .with_config(ServiceConfig {
            cache_capacity: 2,
            ..pinned_config()
        })
        .with_target("k5", TargetKind::Clique(5))
        .with_client(ClientScript::new(requests))
}

/// The observability verbs under simulated time: a buffered QUERY warms the
/// cache and counters, EXPLAIN ANALYZE re-runs the same pattern with a trace
/// sink attached (sequential scheduler, so per-position observed counts and
/// span timestamps are seed-stable), then METRICS snapshots the registry.
/// Byte-identical replay proves every clock-derived timestamp in spans,
/// latencies and histogram summaries is virtual-clock deterministic.
pub fn metrics_and_analyze() -> Scenario {
    Scenario::new("metrics_and_analyze", 0x5EED_000E)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(ClientScript::new(vec![
            query(&tri()),
            format!("EXPLAIN ANALYZE target=k5 pattern={}", tri()),
            "METRICS".to_string(),
            "STATS".to_string(),
        ]))
}

/// The event-loop capacity story in miniature: 100+ connections where most
/// clients connect, send nothing and disconnect, while a handful interleave
/// routed (`sched=auto`) and default queries.  The seed pins which idle
/// EOFs land between which query steps — the trace is the regression
/// assertion that idle churn never perturbs served results.
pub fn idle_swarm_interleaved_queries() -> Scenario {
    let mut scenario = Scenario::new("idle_swarm_interleaved_queries", 0x5EED_000F)
        .with_target("k5", TargetKind::Clique(5));
    for i in 0..104 {
        scenario = if i % 26 == 0 {
            scenario.with_client(ClientScript::new(vec![
                format!("QUERY target=k5 sched=auto pattern={}", tri()),
                query(&edge_inline()),
            ]))
        } else {
            // An idle client: connects, sends nothing, EOF.
            scenario.with_client(ClientScript::new(Vec::<String>::new()))
        };
    }
    scenario.with_client(ClientScript::new(vec!["STATS".to_string()]))
}

/// The peer vanishes while the server holds a finished response: the
/// buffered QUERY runs to completion, then the very first response write
/// fails.  The connection dies with an I/O error, the completed run's
/// counters stay (the enumeration was never cancelled), and a healthy
/// client is unaffected.
pub fn disconnect_while_writable() -> Scenario {
    Scenario::new("disconnect_while_writable", 0x5EED_0010)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(
            ClientScript::new(vec![query(&tri()), "STATS".to_string()])
                .with_write_fault(WriteFault::disconnect_after_lines(0)),
        )
        .with_client(ClientScript::new(vec![
            query(&edge_inline()),
            "STATS".to_string(),
        ]))
}

/// Every scheduler-routing surface in one connection: routed (`sched=auto`
/// and absent), pinned sequential, pinned work-stealing, EXPLAIN's routing
/// object and EXPLAIN ANALYZE's — then STATS with the dispatch counters.
/// The pinned `RoutingConfig` in [`pinned_config`] keeps the decisions
/// host-independent.
pub fn routing_keys() -> Scenario {
    Scenario::new("routing_keys", 0x5EED_0011)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(ClientScript::new(vec![
            format!("QUERY target=k5 sched=auto pattern={}", tri()),
            query(&tri()),
            format!("QUERY target=k5 sched=seq pattern={}", tri()),
            format!("QUERY target=k5 sched=ws:2 pattern={}", tri()),
            format!("EXPLAIN target=k5 pattern={}", tri()),
            format!("EXPLAIN ANALYZE target=k5 pattern={}", tri()),
            "STATS".to_string(),
        ]))
}

/// PR 9's kernel story under simulated time: a dense target (K16, every
/// neighborhood over the bitmap threshold) routes its constrained positions
/// onto the bitmap intersection kernel.  EXPLAIN pins the per-position
/// kernel array, EXPLAIN ANALYZE pins the observed `kernel_usage` counts
/// (schedule-invariant, so seed-stable), and METRICS pins the cumulative
/// `engine.kernel.*` counters — byte-identical replay is the regression
/// assertion that kernel selection is deterministic.
pub fn dense_target_bitmap_kernels() -> Scenario {
    let square = inline(&generators::directed_cycle(4, 0));
    Scenario::new("dense_target_bitmap_kernels", 0x5EED_0012)
        .with_target("k16", TargetKind::Clique(16))
        .with_client(ClientScript::new(vec![
            format!("EXPLAIN target=k16 pattern={square}"),
            // Pinned sequential, run to completion: kernel counts are only
            // schedule-invariant on complete runs, and a limited parallel
            // run would leak interleaving into the observed counters.
            format!("QUERY target=k16 algo=ri-ds sched=seq pattern={square}"),
            format!("EXPLAIN ANALYZE target=k16 algo=ri-ds sched=seq pattern={square}"),
            "METRICS".to_string(),
            "STATS".to_string(),
        ]))
}

/// Every query verb fails once on an unknown target and once on a
/// malformed pattern, then STATS: each failure is one structured error
/// line and one `errors` count, and none of them serves a query, streams a
/// row or takes an admission permit.
pub fn failing_query_verbs() -> Scenario {
    let mut requests = Vec::new();
    for (target, pattern) in [("ghost", tri()), ("k5", "not;a;graph".to_string())] {
        for verb in ["QUERY", "EXPLAIN", "EXPLAIN ANALYZE"] {
            requests.push(format!("{verb} target={target} pattern={pattern}"));
        }
        requests.push(format!(
            "QUERY target={target} emit=stream pattern={pattern}"
        ));
    }
    requests.push("STATS".to_string());
    Scenario::new("failing_query_verbs", 0x5EED_0013)
        .with_target("k5", TargetKind::Clique(5))
        .with_client(ClientScript::new(requests))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_are_unique_and_plentiful() {
        let corpus = corpus();
        assert!(corpus.len() >= 8, "the corpus must stay ≥8 scenarios");
        let mut names: Vec<&str> = corpus.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len(), "duplicate scenario name");
    }

    #[test]
    fn find_resolves_names() {
        assert!(find("disconnect_mid_stream").is_some());
        assert!(find("nope").is_none());
    }
}
