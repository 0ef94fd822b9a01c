//! The service-side face of the wire protocol.
//!
//! Parsing and the pure response builders live in [`sge_wire::protocol`]
//! (re-exported here wholesale, so historical `sge_service::protocol::*`
//! paths keep working).  What remains in this module are the builders that
//! read live [`Service`] state — `STATS` and `METRICS` — plus the `BATCH`
//! aggregation, which wraps the service-side [`BatchOutcome`].

pub use sge_wire::protocol::*;

use crate::{BatchOutcome, Service};
use sge_wire::json::Json;

/// Response to `METRICS`: one JSON object with every registered metric,
/// sorted by name — counters and gauges as integers, histograms as nested
/// summary objects.
pub fn metrics_response(service: &Service) -> Json {
    metrics_json(service.metrics_snapshot())
}

/// Response to a `BATCH` (individual query failures are reported in-place
/// in `results`, the batch itself is `ok`).
pub fn batch_response(batch: &BatchOutcome) -> Json {
    let results = batch
        .results
        .iter()
        .map(|result| match result {
            Ok(query) => Json::obj(
                std::iter::once(("ok", Json::Bool(true)))
                    .chain(query_body(query))
                    .collect(),
            ),
            Err(err) => error_response(err),
        })
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("target", Json::str(batch.target.clone())),
        ("queries", Json::U64(batch.results.len() as u64)),
        ("succeeded", Json::U64(batch.succeeded() as u64)),
        ("total_matches", Json::U64(batch.total_matches())),
        ("cache_hits", Json::U64(batch.cache_hits() as u64)),
        ("wall_seconds", Json::F64(batch.wall_seconds)),
        ("queries_per_second", Json::F64(batch.queries_per_second())),
        ("workers", Json::U64(batch.workers as u64)),
        ("results", Json::Arr(results)),
    ])
}

/// Response to `STATS`: the service counters, dispatch/cache/latency
/// sub-objects and the target list.
pub fn stats_response(service: &Service) -> Json {
    let snapshot = service.stats();
    let cache = service.cache().stats();
    let (dispatch_sequential, dispatch_work_stealing) = service.dispatch_counts();
    let connections_open = service.connections_gauge().value();
    let targets = service
        .registry()
        .list()
        .into_iter()
        .map(|info| {
            Json::obj(vec![
                ("name", Json::str(info.name)),
                ("nodes", Json::U64(info.nodes as u64)),
                ("edges", Json::U64(info.edges as u64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("queries_served", Json::U64(snapshot.queries_served)),
        ("batches_served", Json::U64(snapshot.batches_served)),
        ("total_matches", Json::U64(snapshot.total_matches)),
        ("errors", Json::U64(snapshot.errors)),
        ("streams_served", Json::U64(snapshot.streams_served)),
        ("rows_streamed", Json::U64(snapshot.rows_streamed)),
        ("streams_cancelled", Json::U64(snapshot.streams_cancelled)),
        ("admissions", Json::U64(snapshot.admissions)),
        (
            "admission_wait_seconds",
            Json::F64(snapshot.admission_wait_seconds),
        ),
        ("connections_open", Json::U64(connections_open)),
        (
            "dispatch",
            Json::obj(vec![
                ("sequential", Json::U64(dispatch_sequential)),
                ("work_stealing", Json::U64(dispatch_work_stealing)),
            ]),
        ),
        ("targets", Json::Arr(targets)),
        (
            "cache",
            Json::obj(vec![
                ("capacity", Json::U64(cache.capacity as u64)),
                ("entries", Json::U64(cache.entries as u64)),
                ("hits", Json::U64(cache.hits)),
                ("misses", Json::U64(cache.misses)),
                ("evictions", Json::U64(cache.evictions)),
                ("inserts", Json::U64(cache.inserts)),
            ]),
        ),
        (
            "latency",
            Json::obj(vec![
                ("count", Json::U64(snapshot.queries_served)),
                ("mean_seconds", Json::F64(snapshot.latency_mean_seconds)),
                ("min_seconds", Json::F64(snapshot.latency_min_seconds)),
                ("max_seconds", Json::F64(snapshot.latency_max_seconds)),
                ("p50_seconds", Json::F64(snapshot.latency_p50_seconds)),
                ("p90_seconds", Json::F64(snapshot.latency_p90_seconds)),
                ("p99_seconds", Json::F64(snapshot.latency_p99_seconds)),
            ]),
        ),
    ])
}
