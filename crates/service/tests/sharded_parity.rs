//! Serving-path parity: the single registry's sorted mappings must be
//! **byte-identical** to the plain engine's and to the independent VF2
//! oracle's, buffered and streamed.
//!
//! The file and its first two test names date from the in-process shard
//! tier, whose per-shard union this suite diffed against the same two
//! references; the tier is gone, and the checks that still apply stay here
//! under their old names.
//!
//! The bridged target is deliberately boundary-heavy: bridge edges between
//! communities, triangles that straddle them, and self-loops on the bridge
//! endpoints.  The modular target clears the planner's density bar, so its
//! leg checks the bitmap-kernel route.

use sge_datasets::{generate_modular, ModularSpec};
use sge_engine::{Engine, RunConfig, Scheduler};
use sge_graph::{generators, io::write_graph, Graph, GraphBuilder, NodeId};
use sge_ri::Algorithm;
use sge_service::{QuerySpec, Service, ServiceConfig, StreamHeader, StreamSink};

fn temp_path(stem: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("{stem}-{}", std::process::id()))
}

/// Communities of directed cliques joined into a ring by double bridge
/// edges, with a triangle closed across each cut and a self-loop on each
/// community's bridge anchor.
fn bridged_communities(communities: usize, size: usize) -> Graph {
    let mut b = GraphBuilder::new();
    for _ in 0..communities * size {
        b.add_node(0);
    }
    for c in 0..communities {
        let base = (c * size) as u32;
        for i in 0..size as u32 {
            for j in 0..size as u32 {
                if i != j {
                    b.add_edge(base + i, base + j, 0);
                }
            }
        }
    }
    for c in 0..communities {
        let a = (c * size) as u32;
        let d = (((c + 1) % communities) * size) as u32;
        // Two parallel bridges a↔d and a↔d+1; with the intra-community edge
        // d↔d+1 they close an undirected triangle across the cut.
        for peer in [d, d + 1] {
            b.add_edge(a, peer, 0);
            b.add_edge(peer, a, 0);
        }
        b.add_edge(a, a, 0);
    }
    b.build()
}

/// An undirected triangle with a self-loop on one corner.
fn looped_triangle() -> Graph {
    let mut b = GraphBuilder::new();
    for _ in 0..3 {
        b.add_node(0);
    }
    for (u, v) in [(0, 1), (1, 2), (0, 2)] {
        b.add_edge(u, v, 0);
        b.add_edge(v, u, 0);
    }
    b.add_edge(0, 0, 0);
    b.build()
}

/// A single self-looped node.
fn self_loop_node() -> Graph {
    let mut b = GraphBuilder::new();
    b.add_node(0);
    b.add_edge(0, 0, 0);
    b.build()
}

/// The boundary-heavy pattern set run against the bridged target.
fn bridged_patterns() -> Vec<(&'static str, Graph)> {
    vec![
        ("triangle", generators::clique(3, 0)),
        ("looped_triangle", looped_triangle()),
        ("path3", generators::undirected_path(3, 0)),
        ("clique4", generators::clique(4, 0)),
        ("self_loop", self_loop_node()),
    ]
}

struct CollectSink {
    header: Option<StreamHeader>,
    rows: Vec<Vec<NodeId>>,
}

impl StreamSink for CollectSink {
    fn begin(&mut self, header: &StreamHeader) -> std::io::Result<()> {
        self.header = Some(header.clone());
        Ok(())
    }

    fn rows(&mut self, rows: &[Vec<NodeId>]) -> std::io::Result<()> {
        self.rows.extend(rows.iter().cloned());
        Ok(())
    }
}

/// Streams `pattern_text` against `name` pinned sequential at chunk 7 and
/// returns the sorted rows, checking the footer agrees with what arrived.
fn streamed_rows(service: &Service, name: &str, pattern_text: &str) -> Vec<Vec<NodeId>> {
    let spec = QuerySpec::new(pattern_text)
        .with_run(RunConfig::new(Scheduler::Sequential))
        .with_streaming(7);
    let mut sink = CollectSink {
        header: None,
        rows: Vec::new(),
    };
    let streamed = service.run_query_streaming(name, &spec, &mut sink).unwrap();
    assert!(sink.header.is_some());
    assert!(!streamed.cancelled);
    assert_eq!(streamed.rows_sent, sink.rows.len() as u64);
    sink.rows.sort_unstable();
    sink.rows
}

/// Queries `pattern` against `name` pinned sequential and routed, checks
/// both against VF2's sorted mappings, and returns those mappings.
fn assert_buffered_matches_vf2(
    service: &Service,
    name: &str,
    target: &Graph,
    label: &str,
    pattern: &Graph,
) -> Vec<Vec<NodeId>> {
    let oracle = sge_vf2::collect_mappings(pattern, target);
    let text = write_graph(pattern);
    let collect = |run: RunConfig| run.with_collected_mappings(oracle.len() + 1);
    let specs = [
        QuerySpec::new(&text).with_run(collect(RunConfig::new(Scheduler::Sequential))),
        QuerySpec::new(&text)
            .with_run(collect(RunConfig::default()))
            .routed(),
    ];
    for (variant, spec) in specs.iter().enumerate() {
        let outcome = service.run_query(name, spec).unwrap().outcome;
        assert_eq!(
            outcome.matches,
            oracle.len() as u64,
            "{label} variant {variant}: count vs VF2"
        );
        assert_eq!(
            outcome.mappings, oracle,
            "{label} variant {variant}: sorted mappings vs VF2"
        );
    }
    oracle
}

#[test]
fn sharded_union_matches_unsharded_engine_and_vf2() {
    let target = bridged_communities(4, 6);
    let target_path = temp_path("sge-parity-bridged.gfd");
    std::fs::write(&target_path, write_graph(&target)).unwrap();

    let service = Service::new(ServiceConfig::default());
    let info = service
        .registry()
        .load_file("bridged", &target_path)
        .unwrap();
    std::fs::remove_file(&target_path).ok();
    assert_eq!(info.nodes, target.num_nodes());
    assert_eq!(info.edges, target.num_edges());

    for (label, pattern) in &bridged_patterns() {
        let oracle = assert_buffered_matches_vf2(&service, "bridged", &target, label, pattern);
        let engine = Engine::prepare(pattern, &target, Algorithm::RiDsSiFc)
            .run(&RunConfig::new(Scheduler::Sequential).with_collected_mappings(oracle.len() + 1));
        assert_eq!(engine.mappings, oracle, "{label}: plain engine vs VF2");
    }
}

#[test]
fn streamed_rows_equal_buffered_mappings() {
    let target_path = temp_path("sge-parity-stream.gfd");
    std::fs::write(&target_path, write_graph(&bridged_communities(3, 5))).unwrap();
    let service = Service::new(ServiceConfig::default());
    service
        .registry()
        .load_file("bridged", &target_path)
        .unwrap();
    std::fs::remove_file(&target_path).ok();

    for (label, pattern) in &bridged_patterns() {
        let text = write_graph(pattern);
        let buffered_spec = QuerySpec::new(&text)
            .with_run(RunConfig::new(Scheduler::Sequential).with_collected_mappings(1_000_000));
        let buffered = service.run_query("bridged", &buffered_spec).unwrap();
        assert_eq!(
            streamed_rows(&service, "bridged", &text),
            buffered.outcome.mappings,
            "{label}: streamed rows equal buffered sorted mappings"
        );
    }
}

#[test]
fn single_registry_matches_vf2_on_modular_target() {
    let target = generate_modular(&ModularSpec::cliques(24), 0x0DA7_A5E7, "modular");
    let service = Service::new(ServiceConfig::default());
    service.registry().insert("modular", target.clone());

    let mut bitmap_ops = 0;
    for (label, pattern) in [
        ("cycle3", generators::directed_cycle(3, 0)),
        ("path3", generators::directed_path(3, 0)),
        ("triangle", generators::clique(3, 0)),
    ] {
        let oracle = assert_buffered_matches_vf2(&service, "modular", &target, label, &pattern);
        let text = write_graph(&pattern);
        assert_eq!(
            streamed_rows(&service, "modular", &text),
            oracle,
            "{label}: streamed rows vs VF2"
        );
        let spec = QuerySpec::new(&text).with_run(RunConfig::new(Scheduler::Sequential));
        bitmap_ops += service
            .run_query("modular", &spec)
            .unwrap()
            .outcome
            .kernels
            .bitmap;
    }
    assert!(bitmap_ops > 0, "the modular mix must run the bitmap kernel");
}
