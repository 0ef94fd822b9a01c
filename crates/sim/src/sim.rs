//! The simulator core: seeded, single-threaded execution of a [`Scenario`]
//! through the *real* serving stack.
//!
//! Each virtual client is the genuine [`sge_service::Connection`] loop over a
//! [`ScriptReader`]/[`FaultWriter`] pair — the same code `sge-serve` runs per
//! TCP socket, minus the socket.  The only scheduler is a [`SplitMix64`]
//! seeded from the scenario: on every iteration it picks which live client
//! steps next (one whole request per step, exactly the granularity the real
//! per-connection loop has between `read_line` calls) and how much virtual
//! time elapses first.  Same seed, same scenario → the same interleaving, the
//! same fault timings, the same trace, byte for byte.

use crate::scenario::Scenario;
use crate::trace::TraceRecorder;
use crate::transport::{FaultWriter, ReaderProbe, ScriptReader, WriterProbe};
use sge_service::protocol::stats_response;
use sge_service::{Connection, Service, StatsSnapshot, StepOutcome};
use sge_util::{rng::SplitMix64, Clock, VirtualClock};
use std::sync::Arc;
use std::time::Duration;

/// Hard cap on scheduler iterations — scripts are finite, so hitting this
/// means a connection stopped making progress, which is itself a bug worth a
/// violation rather than a hang.
const MAX_STEPS: usize = 100_000;

/// Everything one simulated run produced.
#[derive(Debug)]
pub struct SimReport {
    /// Scenario name.
    pub scenario: String,
    /// Seed the run executed under.
    pub seed: u64,
    /// The rendered, normalized event trace (the determinism witness).
    pub trace: String,
    /// Service statistics at the end of the run.
    pub stats: StatsSnapshot,
    /// Invariant violations detected during or after the run.  Empty means
    /// the run passed.
    pub violations: Vec<String>,
}

impl SimReport {
    /// `true` when no invariant was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One virtual client mid-run.
struct SimClient {
    id: usize,
    connection: Connection<ScriptReader, FaultWriter>,
    reader: ReaderProbe,
    writer: WriterProbe,
    read_mark: usize,
    write_mark: usize,
}

/// Runs `scenario` under its pinned seed.
pub fn run_scenario(scenario: &Scenario) -> SimReport {
    run_scenario_with_seed(scenario, scenario.seed)
}

/// Runs `scenario` under an explicit seed (the swarm's entry point).
pub fn run_scenario_with_seed(scenario: &Scenario, seed: u64) -> SimReport {
    let clock = Arc::new(VirtualClock::new());
    let mut trace = TraceRecorder::default();

    trace.note(format!("# scenario {} seed {seed}", scenario.name));
    trace.note(format!(
        "# config cache={} batch_workers={} max_in_flight={}",
        scenario.config.cache_capacity,
        scenario.config.batch_workers,
        scenario.config.max_in_flight
    ));
    let service = Service::with_clock(
        scenario.config,
        Arc::<VirtualClock>::clone(&clock) as Arc<dyn Clock>,
    );
    for target in &scenario.targets {
        let info = service.registry().insert(&target.name, target.kind.build());
        trace.note(format!(
            "# target {} = {} ({} nodes, {} edges)",
            target.name,
            target.kind.describe(),
            info.nodes,
            info.edges
        ));
    }
    drive(scenario, &service, &clock, trace, seed)
}

/// The seeded scheduler loop over `service`.
fn drive(
    scenario: &Scenario,
    service: &Service,
    clock: &Arc<VirtualClock>,
    mut trace: TraceRecorder,
    seed: u64,
) -> SimReport {
    let mut violations = Vec::new();
    let mut clients: Vec<SimClient> = scenario
        .clients
        .iter()
        .enumerate()
        .map(|(id, script)| {
            let (reader, reader_probe) =
                ScriptReader::new(script.script_bytes(), script.read_fault);
            let (writer, writer_probe) = FaultWriter::new(Arc::clone(clock), script.write_fault);
            SimClient {
                id,
                connection: Connection::new(reader, writer),
                reader: reader_probe,
                writer: writer_probe,
                read_mark: 0,
                write_mark: 0,
            }
        })
        .collect();

    let mut rng = SplitMix64::new(seed);
    let mut shutdown = false;
    let mut steps = 0usize;

    while !clients.is_empty() {
        if shutdown {
            // The real accept loop stops handing reads to connections once
            // the shutdown flag is up; their queued requests drain unserved.
            for client in &clients {
                trace.event(clock.now(), &format!("client[{}]", client.id), "drained");
            }
            break;
        }
        if steps >= MAX_STEPS {
            violations.push(format!(
                "scheduler ran {MAX_STEPS} steps without quiescing \
                 ({} clients still live)",
                clients.len()
            ));
            break;
        }
        steps += 1;

        if scenario.step_jitter_us > 0 {
            clock.advance(Duration::from_micros(
                rng.next_below(scenario.step_jitter_us as usize + 1) as u64,
            ));
        }
        let pick = rng.next_below(clients.len());
        let client = &mut clients[pick];
        let label = format!("client[{}]", client.id);

        let result = client.connection.step(service);

        // What the step consumed and produced, via the probes.
        let consumed = client
            .reader
            .text_between(client.read_mark, client.reader.position());
        client.read_mark = client.reader.position();
        if !consumed.is_empty() {
            for line in consumed.split_terminator('\n') {
                trace.event(clock.now(), &format!("{label} >"), line);
            }
        }
        let produced = client.writer.text_since(client.write_mark);
        client.write_mark = client.writer.len();
        for line in produced.split_terminator('\n') {
            trace.event(clock.now(), &format!("{label} <"), line);
            if !(line.starts_with("{\"ok\":") || line.starts_with("{\"rows\":")) {
                violations.push(format!(
                    "{label}: response line is not a protocol object: {line}"
                ));
            }
        }

        let finished = match result {
            Ok(StepOutcome::Continue) => false,
            Ok(StepOutcome::Closed) => {
                trace.event(clock.now(), &label, "closed");
                true
            }
            Ok(StepOutcome::ShutdownRequested) => {
                trace.event(clock.now(), &label, "shutdown-requested");
                shutdown = true;
                true
            }
            Err(err) => {
                trace.event(clock.now(), &label, &format!("io-error {:?}", err.kind()));
                true
            }
        };
        if finished {
            clients.remove(pick);
        }
    }

    let stats = service.stats();
    trace.event(clock.now(), "stats", &stats_response(service).render());
    check_invariants(&stats, &mut violations);
    if !violations.is_empty() {
        for violation in &violations {
            trace.note(format!("# VIOLATION {violation}"));
        }
    }

    SimReport {
        scenario: scenario.name.clone(),
        seed,
        trace: trace.render(),
        stats,
        violations,
    }
}

/// Global service invariants every run must satisfy, fault-ridden or not.
fn check_invariants(stats: &StatsSnapshot, violations: &mut Vec<String>) {
    if stats.streams_cancelled > stats.streams_served {
        violations.push(format!(
            "streams_cancelled ({}) exceeds streams_served ({})",
            stats.streams_cancelled, stats.streams_served
        ));
    }
    if stats.queries_served > stats.admissions {
        violations.push(format!(
            "queries_served ({}) exceeds admissions ({}) — a query ran \
             without passing the admission gate",
            stats.queries_served, stats.admissions
        ));
    }
    for (name, value) in [
        ("admission_wait_seconds", stats.admission_wait_seconds),
        ("latency_mean_seconds", stats.latency_mean_seconds),
        ("latency_stddev_seconds", stats.latency_stddev_seconds),
        ("latency_min_seconds", stats.latency_min_seconds),
        ("latency_max_seconds", stats.latency_max_seconds),
    ] {
        if !value.is_finite() || value < 0.0 {
            violations.push(format!(
                "{name} is not a finite non-negative number: {value}"
            ));
        }
    }
    if stats.latency_max_seconds < stats.latency_min_seconds {
        violations.push(format!(
            "latency_max_seconds ({}) below latency_min_seconds ({})",
            stats.latency_max_seconds, stats.latency_min_seconds
        ));
    }
}

/// Runs `scenario` twice under `seed` and reports whether the two traces are
/// byte-identical; on divergence, returns the first differing line pair.
pub fn check_determinism(scenario: &Scenario, seed: u64) -> Result<SimReport, Box<Divergence>> {
    let first = run_scenario_with_seed(scenario, seed);
    let second = run_scenario_with_seed(scenario, seed);
    if first.trace == second.trace {
        return Ok(first);
    }
    let (line, first_line, second_line) = first
        .trace
        .lines()
        .zip(second.trace.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map(|(i, (a, b))| (i + 1, a.to_string(), b.to_string()))
        .unwrap_or_else(|| {
            (
                first
                    .trace
                    .lines()
                    .count()
                    .min(second.trace.lines().count())
                    + 1,
                "<trace ended>".to_string(),
                "<trace ended>".to_string(),
            )
        });
    Err(Box::new(Divergence {
        scenario: scenario.name.clone(),
        seed,
        line,
        first: first_line,
        second: second_line,
    }))
}

/// Two runs of the same seed produced different traces — the one failure
/// mode the simulator exists to make impossible.
#[derive(Debug)]
pub struct Divergence {
    /// Scenario name.
    pub scenario: String,
    /// Seed both runs executed under.
    pub seed: u64,
    /// 1-based line where the traces first differ.
    pub line: usize,
    /// The first run's line.
    pub first: String,
    /// The second run's line.
    pub second: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario '{}' seed {} diverged at trace line {}:\n  run 1: {}\n  run 2: {}",
            self.scenario, self.seed, self.line, self.first, self.second
        )
    }
}
