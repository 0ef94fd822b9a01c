//! The library path, in-process through `sge::Engine`: the per-layer probes
//! of the traced run (prepare, run with a trace sink, `run_streaming`, and
//! the wire codec calls on the same inputs).  Kernel counts are not read here:
//! they come from `EXPLAIN ANALYZE` over the wire (see `serve.rs`).

use crate::inputs::Pattern;
use crate::stats::{mean, median, ratio};
use crate::trace::Tracer;
use sge::graph::Graph;
use sge::obs::TraceSink;
use sge::plan::Algorithm;
use sge::wire::protocol::{parse_command, stream_rows_frame};
use sge::{Engine, EnumerationOutcome, RunConfig, Scheduler};
use std::sync::Arc;
use std::time::Instant;

/// Operations attempted and failed, counted against each other.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A complete, uncut run reporting `expected` embeddings.
pub fn complete(outcome: &EnumerationOutcome, expected: u64) -> bool {
    outcome.matches == expected && !outcome.timed_out && !outcome.limit_hit && !outcome.cancelled
}

/// One prepared engine per pattern, with the pattern's expected count.
pub struct Prepared<'g> {
    pub engines: Vec<(Engine<'g>, u64)>,
}

impl<'g> Prepared<'g> {
    pub fn new(target: &'g Graph, patterns: &[&'g Pattern]) -> Self {
        Prepared {
            engines: patterns
                .iter()
                .map(|p| {
                    (
                        Engine::prepare(&p.graph, target, Algorithm::RiDsSiFc),
                        p.expected,
                    )
                })
                .collect(),
        }
    }

    /// Attaches a fresh trace sink to every engine.
    pub fn traced(mut self, patterns: &[&Pattern]) -> Self {
        for ((engine, _), pattern) in self.engines.iter_mut().zip(patterns) {
            engine.set_trace_sink(Arc::new(TraceSink::new(pattern.graph.num_nodes())));
        }
        self
    }

    /// Runs every engine once under `config`; returns the pass's wall time
    /// and its outcomes, each checked against its expected count.
    pub fn pass(&self, config: &RunConfig, tally: &mut Tally) -> (f64, Vec<EnumerationOutcome>) {
        let started = Instant::now();
        let outcomes: Vec<EnumerationOutcome> =
            self.engines.iter().map(|(e, _)| e.run(config)).collect();
        let seconds = started.elapsed().as_secs_f64();
        for (outcome, (_, expected)) in outcomes.iter().zip(&self.engines) {
            tally.check(complete(outcome, *expected));
        }
        (seconds, outcomes)
    }
}

/// Per-layer figures measured in-process on a workload's inputs.
#[derive(Default)]
pub struct Layers {
    pub prepare_ms: f64,
    pub seq_s: f64,
    pub collect_s: f64,
    pub ws1_s: f64,
    pub wsn_s: f64,
    pub traced_s: f64,
    pub states: f64,
    pub mstates_per_s: f64,
    pub steals: f64,
    pub steal_success: f64,
    pub imbalance: f64,
    pub stream_rows_per_s: f64,
    pub parse_us: f64,
    pub encode_ns_per_row: f64,
    pub bytes_per_row: f64,
}

impl Layers {
    /// `(name, value)` pairs of the in-process per-layer metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("plan.prepare_ms", self.prepare_ms),
            ("ri.states", self.states),
            ("ri.mstates_per_s", self.mstates_per_s),
            ("ri.count_shortcut_ratio", ratio(self.seq_s, self.collect_s)),
            ("stealing.ws1_over_seq", ratio(self.ws1_s, self.seq_s)),
            ("stealing.scaling", ratio(self.ws1_s, self.wsn_s)),
            ("stealing.steals", self.steals),
            ("stealing.steal_success", self.steal_success),
            ("stealing.imbalance", self.imbalance),
            ("engine.stream_rows_per_s", self.stream_rows_per_s),
            ("wire.parse_us", self.parse_us),
            ("wire.encode_ns_per_row", self.encode_ns_per_row),
            ("wire.bytes_per_row", self.bytes_per_row),
        ]
    }
}

/// Runs the in-process layer probes for about `budget` seconds (at least
/// one round of every configuration): `Engine::prepare` per pattern,
/// count-only passes under `Sequential`, `work_stealing(1)`,
/// `work_stealing(nproc)` and with a trace sink, a `collect=1` pass,
/// `run_streaming` with a counting consumer capped at `stream_cap` rows,
/// `parse_command` on `request_lines` and `stream_rows_frame` on streamed
/// rows.  Counts are means per pattern; times are per pass over all of
/// them.
#[allow(clippy::too_many_arguments)]
pub fn layers(
    target: &Graph,
    patterns: &[&Pattern],
    request_lines: &[String],
    stream_cap: u64,
    budget: f64,
    nproc: usize,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Layers {
    let n = patterns.len() as f64;
    let mut layers = Layers::default();

    // Engine::prepare per pattern.
    let mut prepare_rounds = Vec::new();
    let started = Instant::now();
    while prepare_rounds.len() < 3 || started.elapsed().as_secs_f64() < budget * 0.05 {
        let mut round = 0.0;
        for pattern in patterns {
            let t0 = Instant::now();
            let engine = Engine::prepare(&pattern.graph, target, Algorithm::RiDsSiFc);
            let t1 = Instant::now();
            tracer.record("engine.prepare", 0, t0, t1);
            drop(engine);
            round += (t1 - t0).as_secs_f64();
        }
        prepare_rounds.push(round * 1e3 / n);
    }
    layers.prepare_ms = median(&prepare_rounds);

    // Count-only passes, alternating configurations round by round.
    let plain = Prepared::new(target, patterns);
    let sinked = Prepared::new(target, patterns).traced(patterns);
    let seq = RunConfig::new(Scheduler::Sequential);
    let collect = seq.with_collected_mappings(1);
    let ws1 = RunConfig::new(Scheduler::work_stealing(1)).with_seed(seed);
    let wsn = RunConfig::new(Scheduler::work_stealing(nproc)).with_seed(seed);
    let mut times: [Vec<f64>; 5] = Default::default();
    let mut last_seq = Vec::new();
    let mut last_wsn = Vec::new();
    let started = Instant::now();
    while times[0].is_empty() || started.elapsed().as_secs_f64() < budget * 0.75 {
        let t0 = Instant::now();
        let (s, outcomes) = plain.pass(&seq, tally);
        tracer.record("engine.run.seq", 0, t0, Instant::now());
        times[0].push(s);
        last_seq = outcomes;
        times[1].push(plain.pass(&collect, tally).0);
        times[2].push(plain.pass(&ws1, tally).0);
        let t0 = Instant::now();
        let (s, outcomes) = plain.pass(&wsn, tally);
        tracer.record("engine.run.ws", 0, t0, Instant::now());
        times[3].push(s);
        last_wsn = outcomes;
        let t0 = Instant::now();
        times[4].push(sinked.pass(&seq, tally).0);
        tracer.record("engine.run.traced", 0, t0, Instant::now());
    }
    [
        layers.seq_s,
        layers.collect_s,
        layers.ws1_s,
        layers.wsn_s,
        layers.traced_s,
    ] = times.map(|t| median(&t));

    layers.states = last_seq.iter().map(|o| o.states as f64).sum::<f64>() / n;
    layers.mstates_per_s = ratio(layers.states * n, layers.seq_s) / 1e6;
    let steals: u64 = last_wsn.iter().map(|o| o.steals).sum();
    let requests: u64 = last_wsn.iter().map(|o| o.steal_requests).sum();
    layers.steals = steals as f64 / n;
    layers.steal_success = ratio(steals as f64, requests as f64);
    layers.imbalance = mean(
        &last_wsn
            .iter()
            .map(|o| ratio(o.worker_states_stddev, o.states as f64 / o.workers as f64))
            .collect::<Vec<_>>(),
    );

    // run_streaming with a counting consumer; keep a sample of rows.
    let capped = seq.with_max_matches(stream_cap);
    let mut sample: Vec<Vec<u32>> = Vec::new();
    let (mut rows, mut seconds) = (0u64, 0.0);
    let started = Instant::now();
    while rows == 0 || started.elapsed().as_secs_f64() < budget * 0.1 {
        for ((engine, expected), _) in plain.engines.iter().zip(patterns) {
            let mut received = 0u64;
            let t0 = Instant::now();
            let outcome = engine.run_streaming(&capped, 1024, |mapping| {
                received += 1;
                if sample.len() < 512 {
                    sample.push(mapping);
                }
                true
            });
            let t1 = Instant::now();
            tracer.record("engine.run_streaming", 0, t0, t1);
            tally.check(received == (*expected).min(stream_cap) && outcome.matches == received);
            rows += received;
            seconds += (t1 - t0).as_secs_f64();
        }
    }
    layers.stream_rows_per_s = ratio(rows as f64, seconds);

    // stream_rows_frame on the sampled rows, 64 per frame.
    let (mut encoded_rows, mut bytes, mut nanos) = (0u64, 0usize, 0u128);
    let started = Instant::now();
    while encoded_rows == 0 || started.elapsed().as_secs_f64() < budget * 0.05 {
        for chunk in sample.chunks(64) {
            let t0 = Instant::now();
            let frame = stream_rows_frame(chunk).render();
            let t1 = Instant::now();
            tracer.record("wire.stream_rows_frame", 0, t0, t1);
            nanos += (t1 - t0).as_nanos();
            bytes += frame.len();
            encoded_rows += chunk.len() as u64;
        }
        if sample.is_empty() {
            break;
        }
    }
    layers.encode_ns_per_row = ratio(nanos as f64, encoded_rows as f64);
    layers.bytes_per_row = ratio(bytes as f64, encoded_rows as f64);

    // parse_command on every distinct request line.
    let (mut parsed, mut nanos) = (0u64, 0u128);
    let started = Instant::now();
    while parsed == 0 || started.elapsed().as_secs_f64() < budget * 0.05 {
        for line in request_lines {
            let t0 = Instant::now();
            let command = parse_command(line);
            let t1 = Instant::now();
            tracer.record("wire.parse_command", 0, t0, t1);
            tally.check(command.is_ok());
            nanos += (t1 - t0).as_nanos();
            parsed += 1;
        }
    }
    layers.parse_us = nanos as f64 / parsed as f64 / 1e3;
    layers
}
