//! Named fault regressions, each pinned to a seed and asserted against the
//! service's own STATS counters.  These are the scenarios the simulator was
//! built to keep honest; a counter drifting here means the serving layer's
//! fault handling changed behavior.

use sge_sim::{corpus, run_scenario};

#[test]
fn slow_reader_stall_on_streamed_query() {
    // Client 0 reads each response line 5 ms late (virtual time); its
    // streamed triangle query (header + 8 frames + footer = 10 lines, the
    // last stall landing after the latency measurement) must finish with
    // the backpressure visible in the latency histogram while the fast
    // client 1 is served normally.
    let report = run_scenario(&corpus::find("slow_reader_stall").unwrap());
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert_eq!(report.stats.streams_served, 1);
    assert_eq!(report.stats.streams_cancelled, 0);
    assert_eq!(report.stats.rows_streamed, 60);
    assert_eq!(report.stats.queries_served, 2);
    assert_eq!(report.stats.errors, 0);
    // 9 lines stalled 5 ms each before the footer: 45 ms of virtual-clock
    // latency, exactly.
    assert_eq!(report.stats.latency_max_seconds, 0.045);
}

#[test]
fn disconnect_between_frame_write_and_footer() {
    // PR 5's regression path: the client vanishes after the header and two
    // row frames.  The third frame's write fails with BrokenPipe, the
    // enumeration is cancelled cooperatively, and the footer is never
    // written — while the second client keeps being served.
    let report = run_scenario(&corpus::find("disconnect_mid_stream").unwrap());
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert_eq!(report.stats.streams_served, 1);
    assert_eq!(report.stats.streams_cancelled, 1);
    // Exactly the two frames that fit the 3-line write budget (header + 2
    // frames of chunk=8) were delivered before the pipe broke.
    assert_eq!(report.stats.rows_streamed, 16);
    // The healthy client's buffered query still completed.
    assert_eq!(report.stats.queries_served, 2);
    // Exact, as every count in the trace: the edge query's 20 plus the
    // stream's 24 — the 16 rows sent and the 8 of the frame whose write
    // failed; the stream stopped at its next match.
    assert_eq!(report.stats.total_matches, 44);
    // A cancelled stream is not a service error: the query ran and was cut
    // short by the client, which the footer (had it been deliverable) would
    // have reported as cancelled=true.
    assert_eq!(report.stats.errors, 0);
    // The trace ends the faulty connection with the transport failure.
    assert!(report.trace.contains("io-error BrokenPipe"));
    // No footer ever reached the dead client.
    assert!(!report.trace.contains("\"done\":true"));
}

#[test]
fn shutdown_racing_inflight_batch() {
    // One client submits a 3-query BATCH (header + continuation lines are
    // consumed in a single step, like the real connection loop), another
    // issues SHUTDOWN.  Under the pinned seed the batch wins the race and
    // completes in full; the batch client's trailing STATS drains unserved.
    let report = run_scenario(&corpus::find("batch_inflight_vs_shutdown").unwrap());
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert_eq!(report.stats.batches_served, 1);
    assert_eq!(report.stats.queries_served, 3);
    assert_eq!(report.stats.total_matches, 140); // 60 + 20 + 60
    assert_eq!(report.stats.errors, 0);
    assert!(report.trace.contains("shutdown-requested"));
    assert!(report.trace.contains("drained"));
    // The batch is atomic at step granularity: it either fully runs or
    // fully drains, never half.
    assert_eq!(report.stats.admissions, 3);
}

#[test]
fn shutdown_during_drain_leaves_queued_work_unserved() {
    // Seed 13 (pinned): client 0 gets one query served, then the SHUTDOWN
    // lands; clients 0 and 2 still have requests queued and drain unserved,
    // mirroring the real accept loop's flag check before each read.
    let report = run_scenario(&corpus::find("shutdown_during_drain").unwrap());
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert_eq!(report.stats.queries_served, 1);
    assert_eq!(report.stats.total_matches, 60);
    assert_eq!(report.trace.matches("drained").count(), 2);
}

#[test]
fn oversized_line_is_refused_with_a_structured_error() {
    let report = run_scenario(&corpus::find("oversized_line").unwrap());
    assert!(report.passed(), "violations: {:?}", report.violations);
    // The oversized client got the structured refusal and was closed; the
    // other client's query still ran.
    assert!(report.trace.contains("request line exceeds"));
    assert_eq!(report.stats.queries_served, 1);
}

#[test]
fn invalid_utf8_is_refused_after_valid_traffic() {
    let report = run_scenario(&corpus::find("invalid_utf8").unwrap());
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert!(report.trace.contains("not valid UTF-8"));
}

#[test]
fn reset_mid_request_surfaces_as_transport_error() {
    let report = run_scenario(&corpus::find("reset_mid_request").unwrap());
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert!(report.trace.contains("io-error ConnectionReset"));
    // The co-resident healthy client was unaffected.
    assert_eq!(report.stats.queries_served, 1);
}

#[test]
fn cache_eviction_churn_hits_only_within_capacity() {
    // Five distinct patterns through a 2-entry cache, twice over, on one
    // client: every prepare misses (the LRU evicted it before the second
    // pass), so the trace must contain no cache_hit:true on query lines.
    let report = run_scenario(&corpus::find("cache_eviction_churn").unwrap());
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert_eq!(report.stats.queries_served, 10);
    assert!(
        !report.trace.contains("\"cache_hit\":true"),
        "a 2-entry LRU cannot serve hits to a 5-pattern round-robin:\n{}",
        report.trace
    );
}
