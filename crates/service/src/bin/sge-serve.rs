//! `sge-serve` — the TCP enumeration server.
//!
//! ```text
//! sge-serve [--addr HOST:PORT] [--cache N] [--workers N]
//!           [--max-in-flight N] [--drain-ms N] [--load NAME=PATH]...
//!           [--log PATH] [--route-threshold STATES]
//!           [--route-states-per-worker STATES]
//! ```
//!
//! Prints `listening on <addr>` once the socket is bound (scripts wait for
//! that line), then serves until a client sends `SHUTDOWN`; in-flight
//! connections get up to `--drain-ms` (default 5000) to finish their
//! responses before the process exits.  `--log PATH` appends one JSON line
//! per server lifecycle event (`listening`, `conn_open`, `conn_close`,
//! `shutdown`, `drained`) to PATH.
//!
//! The front end is the event-driven readiness loop
//! ([`sge_service::EventServer`]), built on `poll(2)`: off Unix the binary
//! says so and exits 2.  `--route-threshold` / `--route-states-per-worker`
//! tune scheduler routing: a query whose prepared search is estimated below
//! the threshold (a finite number of states, at least 0) stays on the
//! sequential fast path; above it, the worker count is sized from the
//! estimate at the given states per worker (finite, above 0).  Malformed
//! or out-of-range values print usage and exit 2.

use sge_service::{Service, ServiceConfig};
use std::sync::Arc;

const USAGE: &str = "usage: sge-serve [--addr HOST:PORT] [--cache N] [--workers N] \
     [--max-in-flight N] [--drain-ms N] [--load NAME=PATH]... [--log PATH] \
     [--route-threshold STATES] [--route-states-per-worker STATES]";

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = String::from("127.0.0.1:7878");
    let mut config = ServiceConfig::default();
    let mut preloads: Vec<(String, String)> = Vec::new();
    let mut drain_ms: u64 = 5000;
    let mut log_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut value = || -> String {
            i += 1;
            match args.get(i) {
                Some(v) => v.clone(),
                None => fail(&format!("missing value for {arg}")),
            }
        };
        match arg {
            "--addr" => addr = value(),
            "--cache" => {
                config.cache_capacity = match value().parse() {
                    Ok(n) => n,
                    Err(_) => fail("invalid --cache"),
                }
            }
            "--workers" => {
                config.batch_workers = match value().parse() {
                    Ok(n) => n,
                    Err(_) => fail("invalid --workers"),
                }
            }
            "--max-in-flight" => {
                config.max_in_flight = match value().parse() {
                    Ok(n) => n,
                    Err(_) => fail("invalid --max-in-flight"),
                }
            }
            "--drain-ms" => {
                drain_ms = match value().parse() {
                    Ok(n) => n,
                    Err(_) => fail("invalid --drain-ms"),
                }
            }
            "--route-threshold" => {
                config.routing.sequential_threshold = match value().parse::<f64>() {
                    Ok(n) if n.is_finite() && n >= 0.0 => n,
                    _ => fail("--route-threshold expects a finite number >= 0"),
                }
            }
            "--route-states-per-worker" => {
                config.routing.states_per_worker = match value().parse::<f64>() {
                    Ok(n) if n.is_finite() && n > 0.0 => n,
                    _ => fail("--route-states-per-worker expects a finite number > 0"),
                }
            }
            "--load" => {
                let spec = value();
                match spec.split_once('=') {
                    Some((name, path)) => preloads.push((name.to_string(), path.to_string())),
                    None => fail("--load expects NAME=PATH"),
                }
            }
            "--log" => log_path = Some(value()),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }

    let service = Arc::new(Service::new(config));
    for (name, path) in &preloads {
        match service.load_target(name, path, None) {
            Ok(info) => eprintln!(
                "loaded {} ({} nodes, {} edges, {} bitmap rows)",
                info.name, info.nodes, info.edges, info.bitmap_rows
            ),
            Err(err) => fail(&format!("cannot load {name} from {path}: {err}")),
        }
    }
    serve(&addr, service, drain_ms, log_path.as_deref());
}

/// Binds the event loop over `service` and serves until `SHUTDOWN`.
#[cfg(unix)]
fn serve(addr: &str, service: Arc<Service>, drain_ms: u64, log_path: Option<&str>) {
    use sge_obs::EventLog;
    use std::io::Write;

    /// Ring capacity for the in-memory tail of the event log.
    const EVENT_LOG_CAPACITY: usize = 1024;

    let event_log = log_path.map(|path| match EventLog::with_file(EVENT_LOG_CAPACITY, path) {
        Ok(log) => Arc::new(log),
        Err(err) => fail(&format!("cannot open event log {path}: {err}")),
    });
    let mut server = match sge_service::EventServer::bind(addr, service) {
        Ok(server) => server.with_drain_timeout(std::time::Duration::from_millis(drain_ms)),
        Err(err) => fail(&format!("cannot bind {addr}: {err}")),
    };
    if let Some(log) = event_log {
        server = server.with_event_log(log);
    }
    let bound = server
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    println!("listening on {bound}");
    std::io::stdout().flush().ok();
    if let Err(err) = server.run() {
        eprintln!("server error: {err}");
        std::process::exit(1);
    }
}

/// The front end is built on `poll(2)`; there is nothing to serve with.
#[cfg(not(unix))]
fn serve(_addr: &str, _service: Arc<Service>, _drain_ms: u64, _log_path: Option<&str>) {
    eprintln!("error: sge-serve needs a Unix host (its event loop is built on poll(2))");
    std::process::exit(2);
}
