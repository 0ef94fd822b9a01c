//! The metric catalogue: every metric the harness reports, with its unit,
//! the layer that owns it and the end-to-end metric it should move.
//!
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Owning layer (a crate of the repository, or the harness itself).
    pub layer: &'static str,
    /// The end-to-end metric(s) and workload(s) this metric should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

/// Reported with `--trace 0`, measured with tracing off.
#[rustfmt::skip]
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", "end-to-end", "-"),
    m("seq_s", "s", "lower", "end-to-end", "-"),
    m("ws_s", "s", "lower", "end-to-end", "-"),
    m("p50_ms", "ms", "lower", "end-to-end", "-"),
    m("rss_mb", "MiB", "lower", "end-to-end", "-"),
];

const SERVE_SETUP: &str = "setup_s on serve_ppi";
const SERVE_RSS: &str = "rss_mb on serve_ppi";
const ROUTING: &str = "p50_ms on serve_ppi";
const KERNEL: &str = "seq_s on enum_long";
const SEARCH: &str = "seq_s on enum_long";
const STEALING: &str = "ws_s on enum_long";
const STREAMING: &str = "none bounded: streamed delivery has no end-to-end metric";
const SERVICE: &str = "p50_ms on serve_ppi";
const WIRE: &str = "p50_ms on serve_ppi";
const FRONT: &str = "p50_ms on serve_ppi";
const HOST: &str = "none: reads ws_s scaling on enum_long";

/// Reported with `--trace 1`, derived from the traced run.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    m("graph.load_ms", "ms", "lower", "sge-graph", SERVE_SETUP),
    m("graph.bitmap_bytes", "bytes", "lower", "sge-graph", SERVE_RSS),
    m("plan.prepare_ms", "ms", "lower", "sge-plan", "setup_s on every workload"),
    m("plan.ws_route_share", "ratio", "lower", "sge-plan", ROUTING),
    m("plan.est_error", "ratio", "lower", "sge-plan", ROUTING),
    m("ri.states", "count", "lower", "sge-ri", KERNEL),
    m("ri.kernel.bitmap", "count", "higher", "sge-ri", KERNEL),
    m("ri.kernel.gallop", "count", "lower", "sge-ri", KERNEL),
    m("ri.kernel.merge", "count", "lower", "sge-ri", KERNEL),
    m("ri.prefilter_rejected", "count", "higher", "sge-ri", KERNEL),
    m("ri.mstates_per_s", "Mstates/s", "higher", "sge-ri", SEARCH),
    m("ri.count_shortcut_ratio", "ratio", "lower", "sge-ri", SEARCH),
    m("stealing.ws1_over_seq", "ratio", "lower", "sge-stealing", STEALING),
    m("stealing.scaling", "ratio", "higher", "sge-stealing", STEALING),
    m("stealing.steals", "count", "lower", "sge-stealing", STEALING),
    m("stealing.steal_success", "ratio", "higher", "sge-stealing", STEALING),
    m("stealing.imbalance", "ratio", "lower", "sge-parallel", STEALING),
    m("engine.stream_rows_per_s", "1/s", "higher", "sge-engine", STREAMING),
    m("service.latency_p50_ms", "ms", "lower", "sge-service", SERVICE),
    m("service.span.plan_ms", "ms", "lower", "sge-service", SERVICE),
    m("service.span.admission_wait_ms", "ms", "lower", "sge-service", SERVICE),
    m("service.span.enumeration_ms", "ms", "lower", "sge-service", SERVICE),
    m("service.cache_hit_ratio", "ratio", "higher", "sge-service", SERVICE),
    m("service.admission_wait_ms", "ms", "lower", "sge-service", SERVICE),
    m("wire.parse_us", "us", "lower", "sge-wire", WIRE),
    m("wire.response_bytes", "bytes", "lower", "sge-wire", WIRE),
    m("wire.encode_ns_per_row", "ns", "lower", "sge-wire", WIRE),
    m("wire.bytes_per_row", "bytes", "lower", "sge-wire", WIRE),
    m("front.overhead_ms", "ms", "lower", "event_server + connection", FRONT),
    m("bench.trace_overhead", "ratio", "lower", "harness", "none: traced / untraced figure"),
    m("host.read_scaling_private", "ratio", "higher", "host", HOST),
    m("host.read_scaling_shared", "ratio", "higher", "host", HOST),
];

/// The metrics a run prints: end-to-end without tracing, per-layer with.
pub fn for_mode(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|entry| {
                let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16);
            assert!(matches!(metric.better, "higher" | "lower"));
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
