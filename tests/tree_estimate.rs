//! The tree-size estimate through the serving stack, on a seeded PPI-like
//! instance: routing depends on nothing a query before it did, and the
//! estimate lands close to the states a complete run counts.
//!
//! Everything goes through the text protocol on an in-process connection,
//! as a client sees it.

use sge::datasets::{extract_pattern, generate_target, ppis32_like};
use sge::graph::{io::write_graph, Graph};
use sge::service::{Connection, Service, ServiceConfig, StepOutcome};
use sge::wire::protocol::encode_inline_pattern;
use std::io::Cursor;

const SEED: u64 = 20170525;

/// A PPIS32-like target: 1,400 nodes, 13,572 directed edges, 32 labels.
fn ppi_target() -> Graph {
    let spec = ppis32_like(2.0, SEED);
    generate_target(&spec.targets[2], SEED.wrapping_add(2 * 7919), "ppi")
}

/// The `index`-th extracted pattern of about `edges` directed edges, in
/// its inline wire form.
fn pattern(target: &Graph, edges: usize, index: u64) -> String {
    let seed = SEED.wrapping_mul(31).wrapping_add(index);
    let pattern = extract_pattern(target, edges, seed).expect("pattern extracts");
    encode_inline_pattern(&write_graph(&pattern))
}

/// A service with `target` loaded as `ppi` from a file named after `test`,
/// its labels interned the way the patterns' are.
fn service_with(test: &str, target: &Graph, config: ServiceConfig) -> Service {
    let service = Service::new(config);
    let file = format!("sge-{test}-{}.gfd", std::process::id());
    let path = std::env::temp_dir().join(file);
    std::fs::write(&path, write_graph(target)).unwrap();
    let loaded = serve(&service, &[format!("LOAD ppi {}", path.display())]);
    std::fs::remove_file(&path).ok();
    assert!(loaded[0].starts_with("{\"ok\":true"), "{}", loaded[0]);
    service
}

/// Answers `requests` in order on one connection, one line each.
fn serve(service: &Service, requests: &[String]) -> Vec<String> {
    let script = requests.join("\n") + "\n";
    let mut output = Vec::new();
    let mut connection = Connection::new(Cursor::new(script.into_bytes()), &mut output);
    while let Ok(StepOutcome::Continue) = connection.step(service) {}
    let output = String::from_utf8(output).unwrap();
    let lines: Vec<String> = output.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), requests.len(), "{lines:?}");
    lines
}

/// The `routing` object of an `EXPLAIN` response.
fn routing(response: &str) -> &str {
    let start = response.find("\"routing\":{").expect("routing object");
    let end = start + response[start..].find('}').expect("object closes");
    &response[start..=end]
}

/// The sum of the numeric array under `key`.
fn array_sum(response: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\":[");
    let start = response.find(&tag).expect("array present") + tag.len();
    let end = start + response[start..].find(']').expect("array closes");
    response[start..end]
        .split(',')
        .map(|value| value.parse::<f64>().expect("number"))
        .sum()
}

/// Routing reads only the prepared search's own estimate, so a query that
/// ran before leaves every later decision alone.  The pinned query's tree
/// (about 2e4 states) is thousands of times a label-frequency product of
/// it (1 state): a per-target factor learned from that run would send the
/// small pattern, a product of 16 states, to work stealing.
#[test]
fn routing_does_not_depend_on_query_history() {
    let target = ppi_target();
    let mut config = ServiceConfig::default();
    config.routing.max_workers = 4;
    let service = service_with("routing-history", &target, config);
    let explain = format!("EXPLAIN target=ppi pattern={}", pattern(&target, 4, 0));
    let pinned = format!(
        "QUERY target=ppi sched=seq pattern={}",
        pattern(&target, 32, 0)
    );
    let responses = serve(&service, &[explain.clone(), pinned, explain]);
    assert!(
        responses[1].contains("\"matches\":10680"),
        "{}",
        responses[1]
    );
    assert_eq!(routing(&responses[0]), routing(&responses[2]));
    assert!(
        routing(&responses[2]).contains("\"chosen_scheduler\":\"sequential\""),
        "{}",
        responses[2]
    );
}

/// perfbench's `plan.est_error` on a few small patterns and one long one:
/// the geometric mean of `max(observed / est, est / observed)` over the
/// states of complete sequential runs.  The long pattern's tree is larger
/// than the probe's budget, so random paths estimate it.
#[test]
fn the_estimate_is_accurate_on_a_ppi_like_instance() {
    let target = ppi_target();
    let service = service_with("estimate-accuracy", &target, ServiceConfig::default());
    let patterns = [(4, 0), (4, 1), (6, 1), (8, 1), (32, 0)];
    let requests: Vec<String> = patterns
        .iter()
        .map(|&(edges, index)| {
            let pattern = pattern(&target, edges, index);
            format!("EXPLAIN ANALYZE target=ppi sched=seq pattern={pattern}")
        })
        .collect();
    let misses: Vec<f64> = serve(&service, &requests)
        .iter()
        .map(|response| {
            let observed = array_sum(response, "observed_states").max(1.0);
            let estimated = array_sum(response, "est_states").max(1.0);
            (observed / estimated).max(estimated / observed)
        })
        .collect();
    let error = (misses.iter().map(|m| m.ln()).sum::<f64>() / misses.len() as f64).exp();
    assert!(error <= 2.0, "est_error {error:.3}, misses {misses:?}");
}
