//! End-to-end tests for the event-driven TCP front end (Unix only): framing
//! across arbitrary packet boundaries, readers that stall mid-stream, a
//! 512-connection soak, and drain-on-`SHUTDOWN`.

#![cfg(unix)]

use sge_graph::{generators, io::write_graph};
use sge_obs::EventLog;
use sge_service::client::run_script;
use sge_service::protocol::encode_inline_pattern;
use sge_service::{EventServer, Service, ServiceConfig};
use sge_util::clock::VirtualClock;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_event_server(
    service: Arc<Service>,
    log: Option<Arc<EventLog>>,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let mut server = EventServer::bind("127.0.0.1:0", service).expect("bind loopback");
    if let Some(log) = log {
        server = server.with_event_log(log);
    }
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("event server run"));
    (addr, handle)
}

fn service_with_k5() -> Arc<Service> {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    service.registry().insert("k5", generators::clique(5, 0));
    service
}

fn triangle() -> String {
    encode_inline_pattern(&write_graph(&generators::directed_cycle(3, 0)))
}

/// Embeddings of a directed 4-path in K40: 40·39·38·37.
const K40_PATH4_ROWS: u64 = 2_193_360;

/// Opens a stream of every directed 4-path in `k40` (tens of MB of
/// four-row frames, far more than any loopback socket buffer holds), reads
/// its header and then nothing more, so the stream's worker ends up
/// blocked on its outbox.  The returned reader keeps the connection open.
fn open_stalled_stream(addr: std::net::SocketAddr) -> BufReader<TcpStream> {
    let path4 = encode_inline_pattern(&write_graph(&generators::directed_path(4, 0)));
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writeln!(
        writer,
        "QUERY target=k40 emit=stream chunk=4 pattern={path4}"
    )
    .unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut header = String::new();
    reader.read_line(&mut header).unwrap();
    assert!(
        header.starts_with("{\"ok\":true,\"stream\":true"),
        "{header}"
    );
    reader
}

#[test]
fn event_server_serves_query_batch_stats_shutdown() {
    let log = Arc::new(EventLog::new(64));
    let (addr, server) = start_event_server(service_with_k5(), Some(Arc::clone(&log)));
    let triangle = triangle();
    let script = vec![
        format!("QUERY target=k5 pattern={triangle}"),
        format!("QUERY target=k5 sched=ws:4 pattern={triangle}"),
        "BATCH target=k5 n=2".to_string(),
        format!("pattern={triangle}"),
        format!("pattern={triangle}"),
        "STATS".to_string(),
        "SHUTDOWN".to_string(),
    ];
    let responses = run_script(addr, &script).expect("script round-trip");
    assert_eq!(responses.len(), 5, "{responses:?}");
    assert!(responses[0].contains("\"matches\":60"), "{}", responses[0]);
    assert!(responses[0].contains("\"cache_hit\":false"));
    assert!(responses[0].contains("\"routed\":true"), "{}", responses[0]);
    assert!(responses[1].contains("\"cache_hit\":true"));
    assert!(responses[1].contains("work-stealing"));
    assert!(
        responses[1].contains("\"routed\":false"),
        "{}",
        responses[1]
    );
    assert!(responses[2].contains("\"total_matches\":120"));
    assert!(
        responses[3].contains("\"queries_served\":4"),
        "{}",
        responses[3]
    );
    assert!(responses[4].contains("\"shutdown\":true"));
    server.join().expect("event server exits after SHUTDOWN");

    // The lifecycle is logged in full, ending in a clean drain.
    let lines = log.recent();
    let events: Vec<String> = lines
        .iter()
        .filter_map(|line| {
            let tail = line.split("\"event\":\"").nth(1)?;
            Some(tail.split('"').next().unwrap_or_default().to_string())
        })
        .collect();
    assert_eq!(events.first().map(String::as_str), Some("listening"));
    assert_eq!(events.last().map(String::as_str), Some("drained"));
    for expected in ["conn_open", "shutdown", "conn_close"] {
        assert!(
            events.iter().any(|event| event == expected),
            "missing {expected} in {events:?}"
        );
    }
    assert!(
        lines.last().unwrap().contains("\"clean\":true"),
        "drain must complete cleanly: {lines:?}"
    );
    assert!(
        lines.iter().all(|line| line.contains("\"ts_seconds\":")),
        "every event line carries a clock timestamp: {lines:?}"
    );
    assert!(
        lines
            .iter()
            .any(|line| line.contains("\"conn\":1") && line.contains("\"peer\":")),
        "conn_open records the id and peer: {lines:?}"
    );
}

#[test]
fn partial_lines_are_reassembled_across_readiness_events() {
    let (addr, server) = start_event_server(service_with_k5(), None);
    let triangle = triangle();

    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Dribble one QUERY line in three flushes with pauses in between: the
    // loop sees three separate readiness events and must not dispatch
    // until the newline lands.
    let request = format!("QUERY target=k5 pattern={triangle}\n");
    let bytes = request.as_bytes();
    for chunk in bytes.chunks(bytes.len() / 3 + 1) {
        writer.write_all(chunk).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"matches\":60"), "{line}");

    // A BATCH whose continuation lines arrive in a later packet than the
    // header: framing must wait for all announced lines.
    write!(writer, "BATCH target=k5 n=2\npattern={triangle}\n").unwrap();
    writer.flush().unwrap();
    std::thread::sleep(Duration::from_millis(30));
    writeln!(writer, "pattern={triangle}").unwrap();
    writer.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"total_matches\":120"), "{line}");

    // Two pipelined requests in one packet still answer in order.
    write!(writer, "STATS\nQUERY target=k5 pattern={triangle}\n").unwrap();
    writer.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"queries_served\":"), "{line}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"matches\":60"), "{line}");

    let responses = run_script(addr, &["SHUTDOWN".to_string()]).unwrap();
    assert!(responses[0].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn eof_terminated_request_still_answers() {
    let (addr, server) = start_event_server(service_with_k5(), None);
    // No trailing newline, then half-close: EOF finishes the line exactly
    // like the blocking reader's read_until-at-EOF.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(b"STATS").unwrap();
    writer.flush().unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    let mut reader = stream;
    reader.read_to_string(&mut response).unwrap();
    assert!(response.contains("\"queries_served\":"), "{response}");

    let responses = run_script(addr, &["SHUTDOWN".to_string()]).unwrap();
    assert!(responses[0].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn oversized_line_gets_structured_error_and_close() {
    let (addr, server) = start_event_server(service_with_k5(), None);
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let oversized = vec![b'Q'; (1 << 20) + 1];
    writer.write_all(&oversized).unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    let mut reader = stream;
    reader.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("{\"ok\":false,"), "{response}");
    assert!(response.contains("exceeds"), "{response}");

    let responses = run_script(addr, &["SHUTDOWN".to_string()]).unwrap();
    assert!(responses[0].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn disconnect_with_response_pending_keeps_the_server_alive() {
    let (addr, server) = start_event_server(service_with_k5(), None);
    let triangle = triangle();
    // Fire a query and vanish without reading the answer — several times,
    // so at least one response hits a closed (or resetting) socket.
    for _ in 0..5 {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writeln!(writer, "QUERY target=k5 collect=100 pattern={triangle}").unwrap();
        writer.flush().unwrap();
        drop(writer);
        drop(stream);
    }
    // The loop must shrug those off and keep serving everyone else.
    let responses = run_script(
        addr,
        &[
            format!("QUERY target=k5 pattern={triangle}"),
            "SHUTDOWN".to_string(),
        ],
    )
    .expect("fresh connection after disconnects");
    assert!(responses[0].contains("\"matches\":60"), "{}", responses[0]);
    assert!(responses[1].contains("\"shutdown\":true"));
    server.join().unwrap();
}

#[test]
fn stalled_stream_reader_blocks_neither_other_clients_nor_shutdown() {
    let service = service_with_k5();
    service.registry().insert("k40", generators::clique(40, 0));
    let server = EventServer::bind("127.0.0.1:0", Arc::clone(&service))
        .expect("bind loopback")
        .with_drain_timeout(Duration::from_millis(500));
    let addr = server.local_addr().unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        server.run().expect("event server run");
        let _ = done_tx.send(());
    });
    let triangle = triangle();
    let stalled = open_stalled_stream(addr);

    // Other clients are served meanwhile, and the stream is still open.
    let responses = run_script(
        addr,
        &[
            format!("QUERY target=k5 pattern={triangle}"),
            "STATS".to_string(),
        ],
    )
    .expect("buffered query beside a stalled stream");
    assert!(responses[0].contains("\"matches\":60"), "{}", responses[0]);
    assert!(
        responses[1].contains("\"streams_served\":0"),
        "the stalled stream must not have finished: {}",
        responses[1]
    );

    // The drain deadline passes with the reader still stalled; closing the
    // outbox fails the worker's flush, so run() returns all the same.
    let responses = run_script(addr, &["SHUTDOWN".to_string()]).unwrap();
    assert!(responses[0].contains("\"shutdown\":true"));
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("run returns within 5 s despite the stalled reader");
    handle.join().unwrap();
    let stats = service.stats();
    assert_eq!(stats.streams_cancelled, 1, "{stats:?}");
    assert!(stats.rows_streamed < K40_PATH4_ROWS, "{stats:?}");
    drop(stalled);
}

#[test]
fn stalled_readers_on_every_worker_are_dropped_after_the_write_stall_timeout() {
    // The stall timeout runs on the service clock; a virtual one lets the
    // test move past it without waiting.  The drain deadline is far enough
    // out that run() can only return early by dropping the stalled readers.
    let clock = Arc::new(VirtualClock::new());
    let service = Arc::new(Service::with_clock(ServiceConfig::default(), clock.clone()));
    service.registry().insert("k40", generators::clique(40, 0));
    // One stalled stream per worker: the pool has one per core, at least two.
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(2);
    let log = Arc::new(EventLog::new(4 * workers + 16));
    let server = EventServer::bind("127.0.0.1:0", Arc::clone(&service))
        .expect("bind loopback")
        .with_drain_timeout(Duration::from_secs(3600))
        .with_event_log(Arc::clone(&log));
    let addr = server.local_addr().unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        server.run().expect("event server run");
        let _ = done_tx.send(());
    });
    let stalled: Vec<_> = (0..workers).map(|_| open_stalled_stream(addr)).collect();

    // Every worker is pinned, so a fresh connection's STATS waits.
    let probe = TcpStream::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut probe_writer = probe.try_clone().unwrap();
    let mut probe = BufReader::new(probe);
    writeln!(probe_writer, "STATS").unwrap();
    let mut line = String::new();
    let pinned = Instant::now() + Duration::from_millis(300);
    while Instant::now() < pinned {
        match probe.read_line(&mut line) {
            Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            other => panic!("STATS answered while every worker is pinned: {other:?} {line}"),
        }
    }

    // Past the stall timeout the loop drops the stalled readers, their
    // workers' flushes fail, and the queued STATS and then SHUTDOWN are
    // answered.
    let read_response = |probe: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        let give_up = Instant::now() + Duration::from_secs(30);
        while !line.ends_with('\n') {
            assert!(Instant::now() < give_up, "no response: {line}");
            clock.advance(Duration::from_secs(60));
            match probe.read_line(&mut line) {
                Ok(0) => panic!("probe closed: {line}"),
                Ok(_) => {}
                Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(err) => panic!("probe read: {err}"),
            }
        }
        line
    };
    let stats = read_response(&mut probe);
    assert!(stats.starts_with("{\"ok\":true"), "{stats}");
    writeln!(probe_writer, "SHUTDOWN").unwrap();
    let shutdown = read_response(&mut probe);
    assert!(shutdown.contains("\"shutdown\":true"), "{shutdown}");

    let give_up = Instant::now() + Duration::from_secs(30);
    while done_rx.recv_timeout(Duration::from_millis(100)).is_err() {
        assert!(Instant::now() < give_up, "run() did not return");
        clock.advance(Duration::from_secs(60));
    }
    handle.join().unwrap();
    let stats = service.stats();
    assert_eq!(stats.streams_cancelled, workers as u64, "{stats:?}");
    assert!(
        stats.rows_streamed < workers as u64 * K40_PATH4_ROWS,
        "{stats:?}"
    );
    let events = log.recent();
    let closes = events
        .iter()
        .filter(|e| e.contains("\"event\":\"conn_close\""))
        .count();
    assert_eq!(closes, workers + 1, "{events:#?}");
    assert!(
        events
            .last()
            .is_some_and(|e| e.contains("\"event\":\"drained\"") && e.contains("\"clean\":true")),
        "the drain finished before its deadline: {events:#?}"
    );
    drop(stalled);
}

#[test]
fn soak_512_idle_connections_with_interleaved_queries() {
    let log = Arc::new(EventLog::new(64));
    let service = service_with_k5();
    let (addr, server) = start_event_server(Arc::clone(&service), Some(Arc::clone(&log)));
    let triangle = triangle();

    // 512 concurrent connections held open; every 16th runs a query while
    // the rest sit idle (one pollfd each, no parked threads).
    let mut idle = Vec::new();
    let mut active = Vec::new();
    for i in 0..512 {
        let stream = TcpStream::connect(addr).expect("connect under soak");
        if i % 16 == 0 {
            active.push(stream);
        } else {
            idle.push(stream);
        }
    }
    for stream in &mut active {
        writeln!(stream, "QUERY target=k5 pattern={triangle}").unwrap();
        stream.flush().unwrap();
    }
    for stream in active {
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"matches\":60"), "soak query answer: {line}");
    }

    // The gauge sees every open connection (the scripted probe adds one).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let open = service.metrics().gauge("service.connections_open").value();
        if open >= 480 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "connections_open gauge stuck at {open}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let responses = run_script(addr, &["STATS".to_string(), "SHUTDOWN".to_string()]).unwrap();
    assert!(
        responses[0].contains("\"connections_open\":"),
        "{}",
        responses[0]
    );
    assert!(responses[1].contains("\"shutdown\":true"));
    server
        .join()
        .expect("drain completes with idle connections open");
    let lines = log.recent();
    assert!(lines.last().unwrap().contains("\"drained\""), "{lines:?}");
    drop(idle);
    // Every connection was accounted for on shutdown.
    assert_eq!(
        service.metrics().gauge("service.connections_open").value(),
        0,
        "gauge returns to zero after drain"
    );
}
