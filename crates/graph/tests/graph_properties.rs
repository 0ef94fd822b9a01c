//! Property-based tests of the graph substrate: CSR construction, adjacency
//! queries and the text format must agree with a naive edge-list model for
//! randomized graphs (deterministic seeds, so failures reproduce exactly).

mod reference;

use reference::ReferenceBuilder;
use sge_graph::{io, GraphBuilder};
use sge_util::SplitMix64;
use std::collections::{HashMap, HashSet};

/// A raw random graph description: node labels plus an edge list.
#[derive(Debug, Clone)]
struct RawGraph {
    labels: Vec<u32>,
    edges: Vec<(u32, u32, u32)>,
}

fn random_raw_graph(seed: u64) -> RawGraph {
    let mut rng = SplitMix64::new(seed);
    let n = 2 + rng.next_below(28);
    let labels = (0..n).map(|_| rng.next_below(5) as u32).collect();
    let num_edges = rng.next_below(n * 3);
    let edges = (0..num_edges)
        .map(|_| {
            (
                rng.next_below(n) as u32,
                rng.next_below(n) as u32,
                rng.next_below(3) as u32,
            )
        })
        .collect();
    RawGraph { labels, edges }
}

fn build(raw: &RawGraph) -> sge_graph::Graph {
    let mut b = GraphBuilder::new();
    for &label in &raw.labels {
        b.add_node(label);
    }
    for &(u, v, l) in &raw.edges {
        b.add_edge(u, v, l);
    }
    b.build()
}

#[test]
fn csr_agrees_with_edge_list_model() {
    for seed in 0..64u64 {
        let raw = random_raw_graph(seed);
        let graph = build(&raw);
        // Model: first label per (u,v) wins, duplicates collapsed.
        let mut model: HashMap<(u32, u32), u32> = HashMap::new();
        for &(u, v, l) in &raw.edges {
            model.entry((u, v)).or_insert(l);
        }
        assert_eq!(graph.num_nodes(), raw.labels.len());
        assert_eq!(graph.num_edges(), model.len());
        for (&(u, v), &l) in &model {
            assert_eq!(graph.edge_label(u, v), Some(l));
        }
        // Degrees must match the model.
        for v in 0..raw.labels.len() as u32 {
            let out = model.keys().filter(|(a, _)| *a == v).count();
            let inn = model.keys().filter(|(_, b)| *b == v).count();
            assert_eq!(graph.out_degree(v), out);
            assert_eq!(graph.in_degree(v), inn);
            assert_eq!(graph.degree(v), out + inn);
        }
        // Adjacency lists are sorted and edges() covers exactly the model.
        let edges: HashSet<(u32, u32, u32)> = graph.edges().collect();
        assert_eq!(edges.len(), model.len());
        for (u, v, l) in edges {
            assert_eq!(model.get(&(u, v)), Some(&l));
        }
        for v in 0..raw.labels.len() as u32 {
            let out: Vec<u32> = graph.out_edges(v).iter().map(|e| e.node).collect();
            let mut sorted = out.clone();
            sorted.sort_unstable();
            assert_eq!(out, sorted);
        }
    }
}

#[test]
fn undirected_neighbors_are_symmetric() {
    for seed in 100..164u64 {
        let raw = random_raw_graph(seed);
        let graph = build(&raw);
        for u in 0..graph.num_nodes() as u32 {
            for &v in &graph.undirected_neighbors(u) {
                assert!(graph.undirected_neighbors(v).contains(&u));
                assert!(graph.adjacent(u, v));
            }
        }
    }
}

#[test]
fn text_format_roundtrip_preserves_structure() {
    for seed in 200..264u64 {
        let raw = random_raw_graph(seed);
        let graph = build(&raw);
        let text = io::write_graph(&graph);
        let (parsed, _) = io::parse_graph(&text).expect("roundtrip parse");
        assert_eq!(parsed.num_nodes(), graph.num_nodes());
        assert_eq!(parsed.num_edges(), graph.num_edges());
        for (u, v, l) in graph.edges() {
            assert_eq!(parsed.edge_label(u, v), Some(l));
        }
        // Labels are re-interned but must preserve the equality relation.
        for a in 0..graph.num_nodes() as u32 {
            for b in 0..graph.num_nodes() as u32 {
                assert_eq!(
                    graph.label(a) == graph.label(b),
                    parsed.label(a) == parsed.label(b)
                );
            }
        }
    }
}

#[test]
fn stats_are_internally_consistent() {
    for seed in 300..364u64 {
        let raw = random_raw_graph(seed);
        let graph = build(&raw);
        let stats = sge_graph::GraphStats::of(&graph);
        assert_eq!(stats.nodes, graph.num_nodes());
        assert_eq!(stats.edges, graph.num_edges());
        assert!(stats.degree_min <= stats.degree_max);
        assert!(stats.degree_mean >= stats.degree_min as f64 - 1e-9);
        assert!(stats.degree_mean <= stats.degree_max as f64 + 1e-9);
        // Handshake lemma: sum of total degrees = 2 * directed edge count.
        let total: usize = (0..graph.num_nodes() as u32).map(|v| graph.degree(v)).sum();
        assert_eq!(total, 2 * graph.num_edges());
    }
}

#[test]
fn counting_sort_build_matches_the_reference_build() {
    for seed in 400..528u64 {
        let mut rng = SplitMix64::new(seed);
        let n = 1 + rng.next_below(40);
        let labels: Vec<u32> = (0..n).map(|_| rng.next_below(4) as u32).collect();
        // A multiset: every pair may come back with another label, and
        // self-loops and hubs are common.
        let pairs = rng.next_below(4 * n + 1);
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        for _ in 0..pairs {
            // Tails lean towards low ids, so some nodes are hubs.
            let bound = 1 + rng.next_below(n);
            let u = rng.next_below(bound) as u32;
            let v = rng.next_below(n) as u32;
            for _ in 0..1 + rng.next_below(3) {
                edges.push((u, v, rng.next_below(5) as u32));
            }
        }
        rng.shuffle(&mut edges);

        let mut builder = GraphBuilder::new();
        let mut reference = ReferenceBuilder::default();
        for &label in &labels {
            builder.add_node(label);
            reference.add_node(label);
        }
        for &(u, v, l) in &edges {
            builder.add_edge(u, v, l);
            reference.add_edge(u, v, l);
        }
        let graph = builder.build();
        reference
            .build()
            .assert_same(&graph, &format!("seed {seed}"));

        // The first label of a parallel edge wins, and every list is
        // sorted by its other endpoint.
        let mut first: HashMap<(u32, u32), u32> = HashMap::new();
        for &(u, v, l) in &edges {
            first.entry((u, v)).or_insert(l);
        }
        for (&(u, v), &l) in &first {
            assert_eq!(graph.edge_label(u, v), Some(l), "seed {seed}");
        }
        for v in 0..n as u32 {
            let tails: Vec<u32> = graph.in_edges(v).iter().map(|e| e.node).collect();
            assert!(
                tails.windows(2).all(|w| w[0] < w[1]),
                "in-list of {v}, seed {seed}"
            );
            let heads: Vec<u32> = graph.out_edges(v).iter().map(|e| e.node).collect();
            assert!(
                heads.windows(2).all(|w| w[0] < w[1]),
                "out-list of {v}, seed {seed}"
            );
        }
    }
}

/// Whether every edge of `graph` has its reverse with the same label.
fn symmetric_by_definition(graph: &sge_graph::Graph) -> bool {
    graph
        .edges()
        .all(|(u, v, l)| graph.edge_label(v, u) == Some(l))
}

/// `edges` built over `labels`, in order.
fn build_edges(labels: &[u32], edges: &[(u32, u32, u32)]) -> sge_graph::Graph {
    build(&RawGraph {
        labels: labels.to_vec(),
        edges: edges.to_vec(),
    })
}

#[test]
fn is_symmetric_follows_the_definition() {
    assert!(GraphBuilder::new().build().is_symmetric());
    for seed in 600..728u64 {
        // Directed random graphs: the flag must agree, whatever it reads.
        let directed = build(&random_raw_graph(seed));
        assert_eq!(
            directed.is_symmetric(),
            symmetric_by_definition(&directed),
            "seed {seed}"
        );

        // Undirected edges, self-loops and repeated pairs with other labels.
        let mut rng = SplitMix64::new(seed);
        let n = 1 + rng.next_below(30);
        let labels: Vec<u32> = (0..n).map(|_| rng.next_below(3) as u32).collect();
        let mut builder = GraphBuilder::new();
        for &label in &labels {
            builder.add_node(label);
        }
        for _ in 0..rng.next_below(3 * n + 1) {
            let (u, v) = (rng.next_below(n) as u32, rng.next_below(n) as u32);
            builder.add_undirected_edge(u, v, rng.next_below(3) as u32);
        }
        let graph = builder.build();
        assert!(graph.is_symmetric(), "seed {seed}");
        assert!(symmetric_by_definition(&graph), "seed {seed}");

        // Near-symmetric copies: one edge's reverse dropped, relabelled, or
        // preceded by a parallel edge whose first label wins.
        let edges: Vec<(u32, u32, u32)> = graph.edges().collect();
        let pairs: Vec<usize> = (0..edges.len())
            .filter(|&i| edges[i].0 != edges[i].1)
            .collect();
        if pairs.is_empty() {
            continue;
        }
        let (u, v, l) = edges[pairs[rng.next_below(pairs.len())]];
        let reverse = |&(a, b, _): &(u32, u32, u32)| (a, b) == (v, u);
        let dropped: Vec<_> = edges.iter().copied().filter(|e| !reverse(e)).collect();
        let relabelled: Vec<_> = edges
            .iter()
            .map(|&e| if reverse(&e) { (v, u, l + 1) } else { e })
            .collect();
        let mut first_differs = vec![(v, u, l + 1)];
        first_differs.extend(&edges);
        let mut last_differs = edges.clone();
        last_differs.push((v, u, l + 1));
        for (name, edges, symmetric) in [
            ("dropped", dropped, false),
            ("relabelled", relabelled, false),
            ("first label differs", first_differs, false),
            ("a later label differs", last_differs, true),
        ] {
            let copy = build_edges(&labels, &edges);
            assert_eq!(copy.is_symmetric(), symmetric, "{name}, seed {seed}");
            assert_eq!(
                symmetric_by_definition(&copy),
                symmetric,
                "{name}, seed {seed}"
            );
        }
    }
}
