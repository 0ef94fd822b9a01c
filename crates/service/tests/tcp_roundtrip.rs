//! Full TCP round-trips: server thread + scripted client over loopback.

#![cfg(unix)]

use sge_graph::{generators, io::write_graph};
use sge_service::client::run_script;
use sge_service::protocol::encode_inline_pattern;
use sge_service::{EventServer, Service, ServiceConfig};
use std::sync::Arc;

fn start_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let server = EventServer::bind("127.0.0.1:0", service).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn write_target_file(stem: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("{stem}-{}.gfd", std::process::id()));
    std::fs::write(&path, write_graph(&generators::clique(5, 0))).unwrap();
    path
}

#[test]
fn load_query_batch_stats_shutdown() {
    let (addr, server) = start_server();
    let target_path = write_target_file("sge-tcp-k5");
    let triangle = encode_inline_pattern(&write_graph(&generators::directed_cycle(3, 0)));
    let edge = encode_inline_pattern(&write_graph(&generators::directed_path(2, 0)));

    let script = vec![
        format!("LOAD k5 {}", target_path.display()),
        format!("QUERY target=k5 pattern={triangle}"),
        format!("QUERY target=k5 sched=ws:4 pattern={triangle}"),
        format!("QUERY target=k5 algo=ri sched=ws:2 max=5 pattern={edge}"),
        format!("BATCH target=k5 n=2"),
        format!("pattern={triangle}"),
        format!("algo=ri-ds pattern={edge}"),
        "STATS".to_string(),
        "SHUTDOWN".to_string(),
    ];
    let responses = run_script(addr, &script).expect("script round-trip");
    std::fs::remove_file(&target_path).ok();
    assert_eq!(
        responses.len(),
        7,
        "one response per request: {responses:?}"
    );

    // LOAD
    assert!(responses[0].contains("\"ok\":true"));
    assert!(responses[0].contains("\"nodes\":5"));
    assert!(responses[0].contains("\"edges\":20"));
    // QUERY (cold, then cached under another scheduler)
    assert!(responses[1].contains("\"matches\":60"));
    assert!(responses[1].contains("\"cache_hit\":false"));
    assert!(responses[2].contains("\"matches\":60"));
    assert!(responses[2].contains("\"cache_hit\":true"));
    assert!(responses[2].contains("work-stealing"));
    // Limited RI query under two stealing workers.
    assert!(responses[3].contains("\"matches\":5"));
    assert!(responses[3].contains("\"limit_hit\":true"));
    // BATCH: 60 + 20 matches.
    assert!(responses[4].contains("\"queries\":2"));
    assert!(responses[4].contains("\"succeeded\":2"));
    assert!(responses[4].contains("\"total_matches\":80"));
    // STATS: 3 single + 2 batched queries, 60*2 + 5 + 60 + 20 matches.
    assert!(responses[5].contains("\"queries_served\":5"));
    assert!(responses[5].contains("\"total_matches\":205"));
    assert!(responses[5].contains("\"batches_served\":1"));
    assert!(responses[5].contains("\"name\":\"k5\""));
    // SHUTDOWN stops the accept loop.
    assert!(responses[6].contains("\"shutdown\":true"));
    server.join().expect("server thread exits after SHUTDOWN");
}

#[test]
fn mappings_are_returned_and_sorted_when_collected() {
    let (addr, server) = start_server();
    let service_pattern = encode_inline_pattern(&write_graph(&generators::directed_path(2, 0)));
    let target_path = write_target_file("sge-tcp-collect");
    let script = vec![
        format!("LOAD k5 {}", target_path.display()),
        format!("QUERY target=k5 collect=100 pattern={service_pattern}"),
        "SHUTDOWN".to_string(),
    ];
    let responses = run_script(addr, &script).expect("script round-trip");
    std::fs::remove_file(&target_path).ok();
    assert!(responses[1].contains("\"matches\":20"));
    let mappings_field = responses[1]
        .split("\"mappings\":")
        .nth(1)
        .expect("mappings present");
    // First (lexicographically smallest) mapping of an edge into a 5-clique.
    assert!(mappings_field.starts_with("[[0,1]"));
    server.join().unwrap();
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let (addr, server) = start_server();
    let script = vec![
        "FROB target=x".to_string(),
        "QUERY target=nowhere pattern=1;0;0".to_string(),
        "QUERY target=nowhere".to_string(),
        "STATS".to_string(),
        "SHUTDOWN".to_string(),
    ];
    let responses = run_script(addr, &script).expect("script round-trip");
    assert!(responses[0].contains("\"ok\":false"));
    assert!(responses[0].contains("unknown verb"));
    assert!(responses[1].contains("unknown target"));
    assert!(responses[2].contains("\"ok\":false"));
    // The connection survived all three errors.
    assert!(responses[3].contains("\"queries_served\":0"));
    assert!(responses[4].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn query_against_unloaded_target_is_a_structured_error() {
    let (addr, server) = start_server();
    let triangle = encode_inline_pattern(&write_graph(&generators::directed_cycle(3, 0)));
    let script = vec![
        format!("QUERY target=ghost pattern={triangle}"),
        "SHUTDOWN".to_string(),
    ];
    let responses = run_script(addr, &script).expect("script round-trip");
    // One structured JSON error line — never a panic or a silent empty reply.
    assert!(
        responses[0].starts_with("{\"ok\":false,"),
        "{}",
        responses[0]
    );
    assert!(
        responses[0].contains("\"error\":\"unknown target 'ghost'\""),
        "{}",
        responses[0]
    );
    assert!(responses[1].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn empty_batch_is_a_structured_error_and_keeps_the_connection_alive() {
    let (addr, server) = start_server();
    let target_path = write_target_file("sge-tcp-emptybatch");
    let triangle = encode_inline_pattern(&write_graph(&generators::directed_cycle(3, 0)));
    let script = vec![
        format!("LOAD k5 {}", target_path.display()),
        "BATCH target=k5 n=0".to_string(), // announces zero continuation lines
        format!("QUERY target=k5 pattern={triangle}"),
        "BATCH target=ghost n=0".to_string(), // empty batch wins over bad target
        "SHUTDOWN".to_string(),
    ];
    let responses = run_script(addr, &script).expect("script round-trip");
    std::fs::remove_file(&target_path).ok();
    assert_eq!(responses.len(), 5, "{responses:?}");
    assert!(
        responses[1].starts_with("{\"ok\":false,"),
        "{}",
        responses[1]
    );
    assert!(responses[1].contains("n >= 1"), "{}", responses[1]);
    // The connection stays in sync: the next query still runs normally.
    assert!(responses[2].contains("\"matches\":60"), "{}", responses[2]);
    assert!(
        responses[3].starts_with("{\"ok\":false,"),
        "{}",
        responses[3]
    );
    assert!(responses[4].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn bad_batch_line_keeps_the_connection_in_sync() {
    let (addr, server) = start_server();
    let target_path = write_target_file("sge-tcp-badbatch");
    let triangle = encode_inline_pattern(&write_graph(&generators::directed_cycle(3, 0)));
    let script = vec![
        format!("LOAD k5 {}", target_path.display()),
        "BATCH target=k5 n=2".to_string(),
        "algo=wat pattern=1;0;0".to_string(), // malformed continuation line
        format!("pattern={triangle}"),        // still consumed, not re-parsed as a verb
        format!("QUERY target=k5 pattern={triangle}"),
        "SHUTDOWN".to_string(),
    ];
    let responses = run_script(addr, &script).expect("script round-trip");
    std::fs::remove_file(&target_path).ok();
    // 4 requests (LOAD, BATCH, QUERY, SHUTDOWN) → exactly 4 responses, in order.
    assert_eq!(responses.len(), 4, "{responses:?}");
    assert!(responses[1].contains("\"ok\":false"));
    assert!(responses[1].contains("unknown algorithm"));
    assert!(responses[2].contains("\"matches\":60"), "{}", responses[2]);
    assert!(responses[3].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn bad_batch_header_keeps_the_connection_in_sync() {
    let (addr, server) = start_server();
    let target_path = write_target_file("sge-tcp-badheader");
    let triangle = encode_inline_pattern(&write_graph(&generators::directed_cycle(3, 0)));
    // Header parses its n= but is missing target=; the client still sends
    // the 2 announced query lines, which the server must consume.
    let script = vec![
        format!("LOAD k5 {}", target_path.display()),
        "BATCH n=2".to_string(),
        format!("pattern={triangle}"),
        format!("pattern={triangle}"),
        format!("QUERY target=k5 pattern={triangle}"),
        "SHUTDOWN".to_string(),
    ];
    let responses = run_script(addr, &script).expect("script round-trip");
    std::fs::remove_file(&target_path).ok();
    assert_eq!(responses.len(), 4, "{responses:?}");
    assert!(responses[1].contains("\"ok\":false"));
    assert!(responses[1].contains("BATCH requires target"));
    assert!(responses[2].contains("\"matches\":60"), "{}", responses[2]);
    assert!(responses[3].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn truncated_batch_script_errors_instead_of_hanging() {
    let (addr, server) = start_server();
    let script = vec![
        "BATCH target=k5 n=3".to_string(),
        "pattern=1;0;0".to_string(), // 1 of 3 announced lines
    ];
    let err = run_script(addr, &script).expect_err("incomplete batch must not be sent");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let responses = run_script(addr, &["SHUTDOWN".to_string()]).unwrap();
    assert!(responses[0].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn concurrent_clients_share_the_cache() {
    let (addr, server) = start_server();
    let target_path = write_target_file("sge-tcp-conc");
    let triangle = encode_inline_pattern(&write_graph(&generators::directed_cycle(3, 0)));
    // Load and warm the cache with one serial query so the concurrent
    // clients below all hit the same prepared entry deterministically.
    let load = vec![
        format!("LOAD k5 {}", target_path.display()),
        format!("QUERY target=k5 pattern={triangle}"),
    ];
    run_script(addr, &load).expect("load");

    let handles: Vec<_> = (0..4)
        .map(|i| {
            let triangle = triangle.clone();
            std::thread::spawn(move || {
                let sched = if i % 2 == 0 { "seq" } else { "ws:2" };
                let script = vec![format!("QUERY target=k5 sched={sched} pattern={triangle}")];
                run_script(addr, &script).expect("query")
            })
        })
        .collect();
    for handle in handles {
        let responses = handle.join().unwrap();
        assert!(responses[0].contains("\"matches\":60"));
    }

    let responses = run_script(addr, &["STATS".to_string(), "SHUTDOWN".to_string()]).unwrap();
    std::fs::remove_file(&target_path).ok();
    assert!(responses[0].contains("\"queries_served\":5"));
    // All four clients keyed the same (pattern, target, algorithm) entry.
    assert!(
        responses[0].contains("\"misses\":1"),
        "stats: {}",
        responses[0]
    );
    server.join().unwrap();
}

#[test]
fn explain_round_trips_with_order_costs_and_strategy() {
    let (addr, server) = start_server();
    let target_path = write_target_file("sge-tcp-explain");
    let triangle = encode_inline_pattern(&write_graph(&generators::directed_cycle(3, 0)));
    let script = vec![
        format!("LOAD k5 {}", target_path.display()),
        format!("EXPLAIN target=k5 pattern={triangle}"),
        format!("EXPLAIN target=k5 strategy=least-frequent-label pattern={triangle}"),
        format!("EXPLAIN target=k5 strategy=degree-descending algo=ri pattern={triangle}"),
        // The default-strategy EXPLAIN warmed the cache for the same query.
        format!("QUERY target=k5 pattern={triangle}"),
        "SHUTDOWN".to_string(),
    ];
    let responses = run_script(addr, &script).expect("script round-trip");
    std::fs::remove_file(&target_path).ok();
    assert_eq!(responses.len(), 6, "{responses:?}");

    // Default EXPLAIN: RI-greedy plan with 3 positions, costs per position.
    assert!(responses[1].starts_with("{\"ok\":true"), "{}", responses[1]);
    assert!(responses[1].contains("\"strategy\":\"ri-greedy\""));
    assert!(responses[1].contains("\"positions\":3"));
    assert!(responses[1].contains("\"order\":["));
    assert!(responses[1].contains("\"impossible\":false"));
    assert!(!responses[1].contains("\"mode\""), "{}", responses[1]);
    // Every random path through a clique branches alike, so the probe
    // estimate is the tree itself: 5 roots, 4 then 3 candidates below each,
    // under every strategy and algorithm.
    for response in &responses[1..4] {
        assert!(
            response.contains("\"est_candidates\":[5.0,4.0,3.0]"),
            "{response}"
        );
        assert!(
            response.contains("\"est_states\":[5.0,20.0,60.0]"),
            "{response}"
        );
        assert!(response.contains("\"est_total_states\":85.0"), "{response}");
        // The last position reads both earlier ones: it alone is counted.
        assert!(response.contains("\"counted_from\":2"), "{response}");
    }
    // The routing object keeps the decision and its threshold; the
    // estimate it compared is the top-level `est_total_states`.
    assert!(
        responses[1].contains(
            "\"routing\":{\"chosen_scheduler\":\"sequential\",\"routed\":true,\"threshold\":"
        ),
        "{}",
        responses[1]
    );
    // Strategy selection reaches the plan.
    assert!(responses[2].contains("\"strategy\":\"least-frequent-label\""));
    assert!(responses[3].contains("\"strategy\":\"degree-descending\""));
    assert!(responses[3].contains("\"algorithm\":\"RI\""));
    // EXPLAIN prepared through the shared cache, so the QUERY hits.
    assert!(
        responses[4].contains("\"cache_hit\":true"),
        "{}",
        responses[4]
    );
    assert!(responses[4].contains("\"matches\":60"));
    assert!(responses[5].contains("\"shutdown\":true"));
    server.join().unwrap();
}

/// Every neighborhood of a dense target earns a bitmap row, so constrained
/// positions AND rows, and the whole story is visible over the wire: LOAD
/// reports the sidecar, the kernel per position shows in EXPLAIN / EXPLAIN
/// ANALYZE, runtime
/// usage shows in `kernel_usage` and the `engine.kernel.*` counters, and a
/// byte-capped reload of the same graph degrades to the gallop kernels.
#[test]
fn kernel_selection_is_visible_in_load_explain_and_metrics() {
    let (addr, server) = start_server();
    let target_path = std::env::temp_dir().join(format!("sge-tcp-k16-{}.gfd", std::process::id()));
    std::fs::write(&target_path, write_graph(&generators::clique(16, 0))).unwrap();
    let square = encode_inline_pattern(&write_graph(&generators::directed_cycle(4, 0)));
    let script = vec![
        format!("LOAD k16 {}", target_path.display()),
        format!("EXPLAIN target=k16 pattern={square}"),
        format!("EXPLAIN ANALYZE target=k16 max=500 pattern={square}"),
        "METRICS".to_string(),
        // Reload under a 1-byte cap: no rows fit, kernels fall back.
        format!("LOAD k16 {} bitmap_cap=1", target_path.display()),
        format!("EXPLAIN target=k16 pattern={square}"),
        "SHUTDOWN".to_string(),
    ];
    let responses = run_script(addr, &script).expect("script round-trip");
    std::fs::remove_file(&target_path).ok();
    assert_eq!(responses.len(), 7, "{responses:?}");

    // LOAD reports the sidecar: one out-row and one in-row per node.
    assert!(
        responses[0].contains("\"bitmap_rows\":32"),
        "{}",
        responses[0]
    );
    assert!(responses[0].contains("\"bitmap_capped\":false"));
    // The sidecar holds rows, so every constrained position ANDs them (the
    // root position is a scan — it has no parents to intersect).
    let kernels = "\"kernels\":[\"scan\",\"bitmap\",\"bitmap\",\"bitmap\"]";
    assert!(responses[1].contains(kernels), "{}", responses[1]);
    assert!(responses[2].contains(kernels), "{}", responses[2]);
    // …and the executed run actually exercised it: bitmap rows were ANDed,
    // the linear-merge fallback never fired.
    assert!(
        !responses[2].contains("\"kernel_usage\":{\"bitmap\":0,"),
        "{}",
        responses[2]
    );
    assert!(responses[2].contains("\"merge\":0"), "{}", responses[2]);
    // METRICS exposes the cumulative kernel counters.
    for counter in [
        "\"engine.kernel.bitmap\":",
        "\"engine.kernel.gallop\":",
        "\"engine.kernel.merge\":",
        "\"engine.kernel.prefilter_rejected\":",
    ] {
        assert!(responses[3].contains(counter), "{}", responses[3]);
    }
    assert!(
        !responses[3].contains("\"engine.kernel.bitmap\":0,"),
        "{}",
        responses[3]
    );
    // The capped reload kept the signatures but dropped the rows…
    assert!(
        responses[4].contains("\"bitmap_capped\":true"),
        "{}",
        responses[4]
    );
    assert!(responses[4].contains("\"bitmap_rows\":0"));
    // …so the same plan now resolves to the CSR gallop kernels.
    assert!(
        responses[5].contains("\"kernels\":[\"scan\",\"gallop\",\"gallop\",\"gallop\"]"),
        "{}",
        responses[5]
    );
    assert!(responses[6].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn strategy_is_selectable_on_query_and_batch() {
    let (addr, server) = start_server();
    let target_path = write_target_file("sge-tcp-strategy");
    let triangle = encode_inline_pattern(&write_graph(&generators::directed_cycle(3, 0)));
    let script = vec![
        format!("LOAD k5 {}", target_path.display()),
        format!("QUERY target=k5 strategy=least-frequent-label pattern={triangle}"),
        format!("QUERY target=k5 strategy=ri-greedy pattern={triangle}"),
        // Same pattern, different strategy: distinct cache entries, both cold.
        "STATS".to_string(),
        "BATCH target=k5 n=2".to_string(),
        format!("strategy=degree-descending pattern={triangle}"),
        format!("strategy=degree_descending pattern={triangle}"),
        format!("QUERY target=k5 strategy=bogus pattern={triangle}"),
        // `mode=` is not a QUERY key: unknown keys are structured errors.
        format!("QUERY target=k5 mode=intersection pattern={triangle}"),
        "SHUTDOWN".to_string(),
    ];
    let responses = run_script(addr, &script).expect("script round-trip");
    std::fs::remove_file(&target_path).ok();
    assert_eq!(responses.len(), 8, "{responses:?}");
    // All strategies agree on the match count and are echoed back.
    assert!(responses[1].contains("\"matches\":60"));
    assert!(responses[1].contains("\"strategy\":\"least-frequent-label\""));
    assert!(responses[2].contains("\"matches\":60"));
    assert!(responses[2].contains("\"strategy\":\"ri-greedy\""));
    assert!(responses[3].contains("\"misses\":2"), "{}", responses[3]);
    // Batched queries carry their strategy too.
    assert!(responses[4].contains("\"succeeded\":2"));
    assert!(responses[4].contains("\"total_matches\":120"));
    assert!(responses[4].contains("\"strategy\":\"degree-descending\""));
    // An unknown strategy is a structured protocol error.
    assert!(
        responses[5].starts_with("{\"ok\":false"),
        "{}",
        responses[5]
    );
    assert!(responses[5].contains("unknown strategy"));
    assert_eq!(
        responses[6],
        "{\"ok\":false,\"error\":\"protocol error: unknown key 'mode'\"}"
    );
    assert!(responses[7].contains("\"shutdown\":true"));
    server.join().unwrap();
}

// ---------------------------------------------------------------------------
// Streaming (`emit=stream`) over the wire
// ---------------------------------------------------------------------------

/// Parses every row out of a streamed response block's `{"rows":[...]}`
/// frame lines.
fn parse_streamed_rows(block: &str) -> Vec<Vec<u64>> {
    block
        .lines()
        .filter(|line| line.starts_with("{\"rows\":["))
        .flat_map(|line| {
            let inner = line
                .trim_start_matches("{\"rows\":[")
                .trim_end_matches("]}");
            parse_row_list(inner)
        })
        .collect()
}

/// Parses `[0,1],[2,3]` (possibly empty) into rows of integers.
fn parse_row_list(inner: &str) -> Vec<Vec<u64>> {
    let mut rows = Vec::new();
    let mut rest = inner;
    while let Some(open) = rest.find('[') {
        let close = rest[open..].find(']').expect("balanced row") + open;
        let row: Vec<u64> = rest[open + 1..close]
            .split(',')
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().expect("integer node id"))
            .collect();
        rows.push(row);
        rest = &rest[close + 1..];
    }
    rows
}

#[test]
fn streamed_rows_are_parity_with_buffered_mappings_and_vf2() {
    let (addr, server) = start_server();
    let target_path = write_target_file("sge-tcp-stream-parity");
    let triangle_graph = generators::directed_cycle(3, 0);
    let triangle = encode_inline_pattern(&write_graph(&triangle_graph));

    // Independent oracle for the match count.
    let oracle = sge_vf2::count_matches(&triangle_graph, &generators::clique(5, 0));
    assert_eq!(oracle, 60);

    let script = vec![
        format!("LOAD k5 {}", target_path.display()),
        format!("QUERY target=k5 collect=1000 pattern={triangle}"),
        format!("QUERY target=k5 emit=stream chunk=7 pattern={triangle}"),
        format!("QUERY target=k5 emit=stream chunk=7 sched=ws:3 pattern={triangle}"),
        "STATS".to_string(),
        "SHUTDOWN".to_string(),
    ];
    let responses = run_script(addr, &script).expect("script round-trip");
    std::fs::remove_file(&target_path).ok();
    assert_eq!(responses.len(), 6, "{responses:?}");

    // Reference: the buffered response's sorted mappings array.
    let buffered = &responses[1];
    let mappings_field = buffered.split("\"mappings\":[").nth(1).expect("mappings");
    let reference = parse_row_list(mappings_field.trim_end_matches("]}"));
    assert_eq!(reference.len(), 60);

    for (label, block) in [("seq", &responses[2]), ("ws", &responses[3])] {
        let lines: Vec<&str> = block.lines().collect();
        assert!(
            lines[0].starts_with("{\"ok\":true,\"stream\":true"),
            "{label}: {}",
            lines[0]
        );
        assert!(lines[0].contains("\"chunk\":7"), "{label}");
        let footer = lines.last().unwrap();
        assert!(
            footer.starts_with("{\"ok\":true,\"done\":true"),
            "{label}: {footer}"
        );
        assert!(footer.contains("\"matches\":60"), "{label}: {footer}");
        assert!(footer.contains("\"rows_sent\":60"), "{label}: {footer}");
        assert!(footer.contains("\"cancelled\":false"), "{label}: {footer}");
        assert!(
            !footer.contains("\"mappings\""),
            "{label}: rows travel in frames, not the footer"
        );
        // 60 rows in chunks of 7 → 9 frames (8 full + 1 of 4) between
        // header and footer.
        assert_eq!(lines.len(), 2 + 9, "{label}: {block}");
        let mut rows = parse_streamed_rows(block);
        assert_eq!(rows.len() as u64, oracle, "{label}");
        rows.sort_unstable();
        assert_eq!(
            rows, reference,
            "{label}: streamed rows == collect_mappings"
        );
    }

    // The stream counters saw both streamed queries, none cancelled.
    assert!(
        responses[4].contains("\"streams_served\":2"),
        "{}",
        responses[4]
    );
    assert!(
        responses[4].contains("\"rows_streamed\":120"),
        "{}",
        responses[4]
    );
    assert!(
        responses[4].contains("\"streams_cancelled\":0"),
        "{}",
        responses[4]
    );
    assert!(
        responses[4].contains("\"queries_served\":3"),
        "{}",
        responses[4]
    );
    assert!(responses[5].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn mid_stream_disconnect_cancels_enumeration_without_hurting_other_connections() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, server) = start_server();

    // A large instance: a directed triangle in a 64-clique has 249,984
    // embeddings (64*63*62) — far more than the socket buffers can swallow,
    // so the server is guaranteed to still be streaming when the client
    // vanishes.
    let target_path =
        std::env::temp_dir().join(format!("sge-tcp-disconnect-{}.gfd", std::process::id()));
    std::fs::write(&target_path, write_graph(&generators::clique(64, 0))).unwrap();
    let triangle = encode_inline_pattern(&write_graph(&generators::directed_cycle(3, 0)));

    let load = vec![format!("LOAD big {}", target_path.display())];
    run_script(addr, &load).expect("load");

    // Raw client: start the stream, read the header and one frame, then
    // drop the connection with rows still in flight (unread data makes the
    // close an immediate RST, so server writes start failing).
    {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(
            writer,
            "QUERY target=big emit=stream chunk=4 pattern={triangle}"
        )
        .unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("{\"ok\":true,\"stream\":true"), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("{\"rows\":["), "{line}");
        // Drop both halves: the client is gone mid-stream.
    }

    // The handler notices the dead socket, cancels enumeration and records
    // the cancelled stream; poll STATS from a *different* connection.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let stats = loop {
        let responses =
            run_script(addr, &["STATS".to_string()]).expect("stats over a fresh connection");
        if responses[0].contains("\"streams_cancelled\":1") {
            break responses.into_iter().next().unwrap();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never recorded the cancelled stream: {}",
            responses[0]
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    // Enumeration terminated early: the recorded match count is a strict
    // lower bound of the full 249,984.
    let total: u64 = stats
        .split("\"total_matches\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .expect("total_matches in stats");
    assert!(
        total < 249_984,
        "enumeration ran to completion into a dead socket: {total}"
    );

    // Other connections are unaffected: a buffered query still serves.
    let check = run_script(
        addr,
        &[
            format!("QUERY target=big max=10 pattern={triangle}"),
            "SHUTDOWN".to_string(),
        ],
    )
    .expect("query after disconnect");
    std::fs::remove_file(&target_path).ok();
    assert!(check[0].contains("\"matches\":10"), "{}", check[0]);
    assert!(check[1].contains("\"shutdown\":true"));
    server.join().unwrap();
}

// ---------------------------------------------------------------------------
// Robustness: line cap, drain cap, graceful shutdown
// ---------------------------------------------------------------------------

#[test]
fn oversized_request_line_is_rejected_and_connection_dropped() {
    use std::io::{Read, Write};
    let (addr, server) = start_server();

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // One byte over the cap, no newline: the server must not buffer forever.
    let oversized = vec![b'Q'; (1 << 20) + 1];
    writer.write_all(&oversized).unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    let mut reader = stream;
    reader.read_to_string(&mut response).unwrap();
    // A structured error, then EOF (read_to_string returned → closed).
    assert!(response.starts_with("{\"ok\":false,"), "{response}");
    assert!(response.contains("exceeds"), "{response}");

    let responses = run_script(addr, &["SHUTDOWN".to_string()]).unwrap();
    assert!(responses[0].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn absurd_worker_count_is_refused_and_the_connection_keeps_serving() {
    let (addr, server) = start_server();
    let target_path = write_target_file("sge-tcp-workercap");
    let triangle = encode_inline_pattern(&write_graph(&generators::directed_cycle(3, 0)));
    // Each pinned worker is an OS thread spawned per query: a count this
    // large must be refused at the wire, not attempted.
    let script = vec![
        format!("LOAD k5 {}", target_path.display()),
        format!("QUERY target=k5 sched=ws:100000 pattern={triangle}"),
        format!("QUERY target=k5 pattern={triangle}"),
        "SHUTDOWN".to_string(),
    ];
    let responses = run_script(addr, &script).expect("script round-trip");
    std::fs::remove_file(&target_path).ok();
    assert_eq!(responses.len(), 4, "{responses:?}");
    assert!(
        responses[1].starts_with("{\"ok\":false,"),
        "{}",
        responses[1]
    );
    assert!(
        responses[1].contains("exceeds the cap of"),
        "{}",
        responses[1]
    );
    assert!(responses[2].contains("\"matches\":60"), "{}", responses[2]);
    assert!(responses[3].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn huge_announced_batch_drain_is_capped_and_connection_closed() {
    use std::io::{Read, Write};
    let (addr, server) = start_server();

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // Malformed header (missing target=) announcing u64::MAX continuation
    // lines: the server must refuse to drain them and close instead.
    writeln!(writer, "BATCH n=18446744073709551615").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    let mut reader = stream;
    reader.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("{\"ok\":false,"), "{response}");
    assert!(
        response.contains("closing connection") || response.contains("cap"),
        "{response}"
    );

    // A header over the cap but with a valid shape is rejected the same way
    // (and its announced drain is refused).
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writeln!(writer, "BATCH target=x n=100000").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    let mut reader = stream;
    reader.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("{\"ok\":false,"), "{response}");

    // The server itself is unharmed.
    let responses = run_script(addr, &["STATS".to_string(), "SHUTDOWN".to_string()]).unwrap();
    assert!(responses[0].contains("\"ok\":true"));
    assert!(responses[1].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn shutdown_drains_in_flight_queries_and_ignores_idle_connections() {
    use std::io::{BufRead, BufReader, Write};
    let service = Arc::new(Service::new(ServiceConfig::default()));
    service.registry().insert("k5", generators::clique(5, 0));
    let server = EventServer::bind("127.0.0.1:0", service)
        .expect("bind loopback")
        .with_drain_timeout(std::time::Duration::from_millis(500));
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let triangle = encode_inline_pattern(&write_graph(&generators::directed_cycle(3, 0)));

    // An idle connection that never sends anything must not block shutdown.
    let idle = std::net::TcpStream::connect(addr).unwrap();

    // A connection with a query in flight: send it, then SHUTDOWN from a
    // second connection, then read the full response.
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "QUERY target=k5 collect=100 pattern={triangle}").unwrap();
    writer.flush().unwrap();

    let responses = run_script(addr, &["SHUTDOWN".to_string()]).unwrap();
    assert!(responses[0].contains("\"shutdown\":true"));

    // The in-flight response arrives complete, not truncated.
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(response.contains("\"matches\":60"), "{response}");
    assert!(response.trim_end().ends_with('}'), "{response}");

    // run() returns despite the idle connection (drain deadline).
    let start = std::time::Instant::now();
    handle.join().expect("server thread exits after SHUTDOWN");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "shutdown drain took too long"
    );
    drop(idle);
}

#[test]
fn oversized_line_splitting_a_multibyte_char_still_gets_a_structured_error() {
    use std::io::{Read, Write};
    let (addr, server) = start_server();

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // (cap+1) bytes of valid UTF-8 whose final character straddles the cap
    // boundary: the length check must fire before UTF-8 validation, or the
    // truncated read turns into an InvalidData error and the connection
    // drops without the documented structured response.
    let mut oversized = "é".repeat((1 << 19) + 1).into_bytes(); // 2 bytes each
    oversized.truncate((1 << 20) + 1);
    writer.write_all(&oversized).unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    let mut reader = stream;
    reader.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("{\"ok\":false,"), "{response}");
    assert!(response.contains("exceeds"), "{response}");

    // A short but non-UTF-8 line is refused with its own structured error.
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(b"QUERY \xff\xfe target=x\n").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    let mut reader = stream;
    reader.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("{\"ok\":false,"), "{response}");
    assert!(response.contains("not valid UTF-8"), "{response}");

    let responses = run_script(addr, &["SHUTDOWN".to_string()]).unwrap();
    assert!(responses[0].contains("\"shutdown\":true"));
    server.join().unwrap();
}
