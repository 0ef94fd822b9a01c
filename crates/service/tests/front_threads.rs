//! The front end starts its threads once: `EventServer::run` serves on its
//! caller beside `max(2, cores) − 1` threads it starts, and answering
//! requests starts none, however many connections send them.
//!
//! The only test in its binary, so no other test starts a thread meanwhile.

#![cfg(unix)]

use sge_graph::{generators, io::write_graph};
use sge_service::client::run_script;
use sge_service::protocol::encode_inline_pattern;
use sge_service::{EventServer, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The threads of this process, where the OS lists them.
fn threads() -> Option<usize> {
    cfg!(target_os = "linux").then(|| {
        let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task lists");
        tasks.count()
    })
}

#[test]
fn run_adds_its_threads_once_and_serving_adds_none() {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    service.registry().insert("k5", generators::clique(5, 0));
    let server = EventServer::bind("127.0.0.1:0", service).expect("bind loopback");
    let addr = server.local_addr().unwrap();
    let (ready_tx, ready_rx) = channel();
    let (go_tx, go_rx) = channel::<()>();
    let handle = std::thread::spawn(move || {
        ready_tx.send(()).unwrap();
        go_rx.recv().unwrap();
        server.run().expect("event server run");
    });
    // The thread that calls `run` is counted before the call.
    ready_rx.recv().unwrap();
    let before = threads();
    go_tx.send(()).unwrap();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serving = before.map(|n| n + cores.max(2) - 1);
    let triangle = encode_inline_pattern(&write_graph(&generators::directed_cycle(3, 0)));
    let query = format!("QUERY target=k5 pattern={triangle}");
    let first = run_script(addr, std::slice::from_ref(&query)).expect("first query");
    assert!(first[0].contains("\"matches\":60"), "{}", first[0]);
    // `run` may still be starting threads when one of them answers.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() < serving && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), serving, "run adds max(2, cores) - 1 threads");

    // 500 buffered queries over one connection.
    let replies = run_script(addr, &vec![query.clone(); 500]).expect("500 queries");
    assert!(replies.iter().all(|reply| reply.contains("\"matches\":60")));
    assert_eq!(threads(), serving, "after 500 queries");

    // 16 connections, each with a query in flight at once.
    let mut conns: Vec<BufReader<TcpStream>> = (0..16)
        .map(|_| BufReader::new(TcpStream::connect(addr).expect("connect")))
        .collect();
    for conn in &mut conns {
        writeln!(conn.get_mut(), "{query}").unwrap();
    }
    assert_eq!(threads(), serving, "16 queries in flight");
    for conn in &mut conns {
        let mut line = String::new();
        conn.read_line(&mut line).unwrap();
        assert!(line.contains("\"matches\":60"), "{line}");
    }
    assert_eq!(threads(), serving, "after 16 concurrent queries");
    drop(conns);

    let shutdown = run_script(addr, &["SHUTDOWN".to_string()]).unwrap();
    assert!(shutdown[0].contains("\"shutdown\":true"));
    handle.join().unwrap();
}
