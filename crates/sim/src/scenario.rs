//! The scenario DSL: what a simulated run *is*.
//!
//! A [`Scenario`] pins everything a run needs to be reproducible — the
//! service sizing knobs, the target graphs (generated, never loaded from
//! disk), one [`ClientScript`] per virtual client (its protocol lines plus
//! its read/write faults), and a pinned default seed.  Only the seed feeds
//! the interleaving: running the same scenario under the same seed replays
//! the same event trace bit for bit.

use crate::transport::{ReadFault, WriteFault};
use sge_engine::RoutingConfig;
use sge_graph::{generators, Graph};
use sge_service::ServiceConfig;

/// A named target graph, generated in-process so scenarios never touch the
/// filesystem (disk contents are outside the seed's control).
#[derive(Clone, Debug)]
pub struct Target {
    /// Registry name queries refer to.
    pub name: String,
    /// Which generated graph to register.
    pub kind: TargetKind,
}

/// The generated graph families scenarios draw targets from.
#[derive(Clone, Copy, Debug)]
pub enum TargetKind {
    /// `generators::clique(n, 0)`.
    Clique(usize),
    /// `generators::directed_cycle(n, 0)`.
    DirectedCycle(usize),
    /// `generators::directed_path(n, 0)`.
    DirectedPath(usize),
}

impl TargetKind {
    /// Builds the graph.
    pub fn build(&self) -> Graph {
        match *self {
            TargetKind::Clique(n) => generators::clique(n, 0),
            TargetKind::DirectedCycle(n) => generators::directed_cycle(n, 0),
            TargetKind::DirectedPath(n) => generators::directed_path(n, 0),
        }
    }

    /// Human-readable form for the trace header.
    pub fn describe(&self) -> String {
        match *self {
            TargetKind::Clique(n) => format!("clique({n})"),
            TargetKind::DirectedCycle(n) => format!("directed_cycle({n})"),
            TargetKind::DirectedPath(n) => format!("directed_path({n})"),
        }
    }
}

/// One virtual client: its scripted protocol lines and its faults.
#[derive(Clone, Debug, Default)]
pub struct ClientScript {
    /// Protocol lines in order (`BATCH` continuation lines are ordinary
    /// entries right after their header).  Joined with `\n` to form the
    /// client's byte stream.
    pub requests: Vec<String>,
    /// Raw bytes appended *after* the scripted lines — the escape hatch for
    /// deliberately non-UTF-8 or unterminated garbage.
    pub trailing_bytes: Vec<u8>,
    /// Client-side read fault (truncation / reset of the request stream).
    pub read_fault: ReadFault,
    /// Client-side write fault (slow reader / disconnect mid-response).
    pub write_fault: WriteFault,
}

impl ClientScript {
    /// A well-behaved client sending `requests`.
    pub fn new<S: Into<String>>(requests: Vec<S>) -> Self {
        ClientScript {
            requests: requests.into_iter().map(Into::into).collect(),
            ..ClientScript::default()
        }
    }

    /// Sets the read fault.
    pub fn with_read_fault(mut self, fault: ReadFault) -> Self {
        self.read_fault = fault;
        self
    }

    /// Sets the write fault.
    pub fn with_write_fault(mut self, fault: WriteFault) -> Self {
        self.write_fault = fault;
        self
    }

    /// Appends raw trailing bytes (sent after the scripted lines).
    pub fn with_trailing_bytes(mut self, bytes: Vec<u8>) -> Self {
        self.trailing_bytes = bytes;
        self
    }

    /// The client's full request byte stream (before read faults).
    pub fn script_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        for request in &self.requests {
            bytes.extend_from_slice(request.as_bytes());
            bytes.push(b'\n');
        }
        bytes.extend_from_slice(&self.trailing_bytes);
        bytes
    }
}

/// A full simulated run: service knobs + targets + scripted clients.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (trace header; `sge-sim --scenario NAME`).
    pub name: String,
    /// Pinned default seed (the regression corpus runs under this; the
    /// swarm substitutes fresh seeds).
    pub seed: u64,
    /// Service sizing.  Must be fully pinned — [`ServiceConfig::default`]
    /// depends on the host's core count, which would leak into traces.
    pub config: ServiceConfig,
    /// Generated target graphs registered before any client runs.
    pub targets: Vec<Target>,
    /// One script per virtual client.
    pub clients: Vec<ClientScript>,
    /// Upper bound (exclusive is `+1`) on the random virtual-time jitter, in
    /// microseconds, the simulator advances the clock by before each step.
    pub step_jitter_us: u64,
    /// Scrub match/state counters from the trace.  Required for scenarios
    /// that cancel enumeration *mid-run* without a `max=` cap: how many
    /// states the producer visits before observing the cancel token is an
    /// OS-scheduling fact no seed controls.  Scenarios that cap the run (or
    /// never cancel) keep exact counts in the trace.
    pub normalize_counts: bool,
}

impl Scenario {
    /// An empty scenario under the pinned default sizing.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Scenario {
            name: name.into(),
            seed,
            config: pinned_config(),
            targets: Vec::new(),
            clients: Vec::new(),
            step_jitter_us: 500,
            normalize_counts: false,
        }
    }

    /// Registers a generated target.
    pub fn with_target(mut self, name: impl Into<String>, kind: TargetKind) -> Self {
        self.targets.push(Target {
            name: name.into(),
            kind,
        });
        self
    }

    /// Adds a client script.
    pub fn with_client(mut self, client: ClientScript) -> Self {
        self.clients.push(client);
        self
    }

    /// Overrides the service sizing (keep every field pinned!).
    pub fn with_config(mut self, config: ServiceConfig) -> Self {
        self.config = config;
        self
    }

    /// Enables count scrubbing (see [`Scenario::normalize_counts`]).
    pub fn with_normalized_counts(mut self) -> Self {
        self.normalize_counts = true;
        self
    }
}

/// The pinned service sizing simulated runs default to.
///
/// Every field is a constant: [`ServiceConfig::default`] sizes itself from
/// `available_parallelism`, which would make traces differ across hosts.
/// `batch_workers` is 1 because a multi-worker batch races its queries
/// against the prepared cache — per-query `cache_hit` flags would then
/// depend on OS thread scheduling, which no seed replays.
pub fn pinned_config() -> ServiceConfig {
    ServiceConfig {
        cache_capacity: 8,
        batch_workers: 1,
        max_in_flight: 2,
        // Pinned thresholds and worker cap: `RoutingConfig::detect` sizes
        // `max_workers` from `available_parallelism`, which would route the
        // same seed to different schedulers across hosts.
        routing: RoutingConfig::pinned(50_000.0, 25_000.0, 4),
        // Bitmap-sidecar defaults are host-independent constants already.
        bitmaps: sge_graph::BitmapConfig::default(),
    }
}

/// The directed-triangle pattern (60 matches in a 5-clique), inline-encoded.
pub fn triangle_inline() -> String {
    inline(&generators::directed_cycle(3, 0))
}

/// The 2-node directed-path pattern (20 matches in a 5-clique), inline-encoded.
pub fn edge_inline() -> String {
    inline(&generators::directed_path(2, 0))
}

/// Inline-encodes any generated graph for a `pattern=` token.
pub fn inline(graph: &Graph) -> String {
    sge_service::protocol::encode_inline_pattern(&sge_graph::io::write_graph(graph))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_bytes_join_lines_and_trailing_garbage() {
        let client = ClientScript::new(vec!["STATS", "SHUTDOWN"])
            .with_trailing_bytes(vec![0xFF, 0xFE, b'\n']);
        assert_eq!(client.script_bytes(), b"STATS\nSHUTDOWN\n\xFF\xFE\n");
    }

    #[test]
    fn patterns_round_trip_through_the_inline_encoding() {
        for encoded in [triangle_inline(), edge_inline()] {
            let decoded = sge_service::protocol::decode_inline_pattern(&encoded);
            let (graph, _) = sge_graph::io::parse_graph(&decoded).expect("inline pattern parses");
            assert!(graph.num_nodes() >= 2);
        }
    }

    #[test]
    fn pinned_config_is_host_independent() {
        let a = pinned_config();
        assert_eq!(a.batch_workers, 1, "multi-worker batches race the cache");
    }
}
