//! The matrix's one seeded instance generator, its families, and the named
//! instances: hand-made cases and pinned shrunk regressions.

use sge::datasets::{generate_modular, graemlin32_like, pdbsv1_like, ppis32_like};
use sge::datasets::{Collection, ModularSpec};
use sge::graph::io::parse_graph_with_interner;
use sge::graph::{generators, Graph, GraphBuilder, GraphStats, NodeId};
use sge::util::SplitMix64;
use std::collections::HashMap;

/// One pattern/target pair.
#[derive(Clone)]
pub struct Instance {
    pub name: String,
    /// The seed that generated it (0 for named instances).
    pub seed: u64,
    pub pattern: Graph,
    pub target: Graph,
    /// Pinned `max_matches` values for the `MaxBelow` limit.
    pub budgets: Vec<u64>,
}

impl Instance {
    fn new(name: impl Into<String>, seed: u64, pattern: Graph, target: Graph) -> Self {
        let name = name.into();
        Instance {
            name,
            seed,
            pattern,
            target,
            budgets: Vec::new(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Sparse labelled digraphs (1-3 node labels, 1-3 edge labels,
    /// self-loops) and a pattern walked out of them.
    Sparse,
    /// Dense targets: 20-27 nodes at mean total degree at least 16, so most
    /// neighborhoods reach the row floor of 8 and the default sidecar's
    /// rows drive the bitmap AND.
    Dense,
    /// Patterns drawn independently of the target; often zero matches.
    RandomPattern,
    /// The empty pattern, a label no target node has, a pattern larger than
    /// its target.
    Degenerate,
    /// Small `ppis32_like`, `graemlin32_like` and `pdbsv1_like` instances.
    Collection,
    /// A small core walked out of a sparse or denser target with pendant
    /// leaves hung off it: the independent suffixes the suffix-count rule
    /// counts, with twin leaves, leaves of different hubs sharing
    /// candidates and leaves held by two hubs.
    Pendant,
    /// Symmetric targets, sparse or above the bitmap bar, with patterns
    /// walked out of them, so every pattern edge has its twin; in two of
    /// three instances the target is a copy with the reverse of one edge
    /// between walked nodes dropped or relabelled.
    Symmetric,
    /// [`named`] instances.
    Named,
}

impl Family {
    /// Every family; all but the last generate from a seed.
    pub const ALL: [Family; 8] = [
        Family::Sparse,
        Family::Dense,
        Family::RandomPattern,
        Family::Degenerate,
        Family::Collection,
        Family::Pendant,
        Family::Symmetric,
        Family::Named,
    ];

    /// The instances tier-1 runs: six pinned seeds, or the named list.
    pub fn pinned(self) -> Vec<Instance> {
        match self {
            Family::Named => named(),
            _ => (0..6).map(|i| self.generate(0x0A11_CE00 + i)).collect(),
        }
    }

    /// The instance `seed` generates in this family.
    pub fn generate(self, seed: u64) -> Instance {
        let mut rng = SplitMix64::new(seed ^ 0x6F72_6163_6C65);
        let name = format!("{self:?}-{seed:#x}");
        let (pattern, target) = match self {
            Family::Sparse => {
                let target = sparse_target(&mut rng);
                let k = 2 + rng.next_below(4);
                (extract_pattern(&mut rng, &target, k), target)
            }
            Family::Dense => {
                let (n, p) = (20 + rng.next_below(8), 0.5 + 0.15 * rng.next_f64());
                let target = random_graph(&mut rng, n, p, 3, 1, 0.1);
                let degree = GraphStats::of(&target).degree_mean;
                assert!(degree >= 16.0, "{name} is not dense");
                let k = 3 + rng.next_below(2);
                (extract_pattern(&mut rng, &target, k), target)
            }
            Family::RandomPattern => {
                let target = sparse_target(&mut rng);
                let labels = 1 + *target.node_labels().iter().max().unwrap() as usize;
                let k = 2 + rng.next_below(3);
                (random_graph(&mut rng, k, 0.4, labels, 2, 0.1), target)
            }
            Family::Degenerate => {
                let target = sparse_target(&mut rng);
                let absent = 1 + target.node_labels().iter().max().unwrap();
                let pattern = match seed % 3 {
                    0 => GraphBuilder::new().build(),
                    // A walked-out pattern with one node relabelled.
                    1 => {
                        let k = 1 + rng.next_below(3);
                        let walked = extract_pattern(&mut rng, &target, k);
                        let odd = rng.next_below(walked.num_nodes()) as NodeId;
                        let label = |v| Some(if v == odd { absent } else { walked.label(v) });
                        rebuild(&walked, label, |_| true)
                    }
                    _ => {
                        let n = target.num_nodes() + 1 + rng.next_below(2);
                        random_graph(&mut rng, n, 0.1, 2, 1, 0.0)
                    }
                };
                (pattern, target)
            }
            Family::Collection => {
                let spec =
                    [ppis32_like, graemlin32_like, pdbsv1_like][seed as usize % 3](0.05, seed);
                let collection = Collection::generate(&spec);
                let small = collection
                    .instances
                    .iter()
                    .filter(|i| i.pattern.num_edges() <= 8);
                let small: Vec<_> = small.collect();
                let pick = small[rng.next_below(small.len())];
                let name = format!("{name}-{}", pick.id);
                let target = collection.target_of(pick).clone();
                return Instance::new(name, seed, pick.pattern.clone(), target);
            }
            Family::Pendant => {
                let target = match seed % 2 {
                    0 => sparse_target(&mut rng),
                    _ => {
                        let (n, p) = (10 + rng.next_below(7), 0.3 + 0.2 * rng.next_f64());
                        let labels = 1 + rng.next_below(2);
                        random_graph(&mut rng, n, p, labels, 2, 0.1)
                    }
                };
                (pendant_pattern(&mut rng, &target), target)
            }
            Family::Symmetric => {
                let (target, k) = match seed % 2 {
                    0 => {
                        let (n, p) = (8 + rng.next_below(9), 0.15 + 0.2 * rng.next_f64());
                        let (labels, edge_labels) = (1 + rng.next_below(3), 1 + rng.next_below(3));
                        let target = symmetric_graph(&mut rng, n, p, labels, edge_labels, 0.2);
                        (target, 2 + rng.next_below(4))
                    }
                    _ => {
                        let (n, p) = (16 + rng.next_below(6), 0.5 + 0.15 * rng.next_f64());
                        let labels = 1 + rng.next_below(2);
                        let target = symmetric_graph(&mut rng, n, p, labels, 1, 0.1);
                        (target, 2 + rng.next_below(3))
                    }
                };
                let chosen = walk_nodes(&mut rng, &target, k);
                let pattern = induced(&target, &chosen);
                let target = match seed % 3 {
                    0 => target,
                    kind => break_one_reverse(&mut rng, &target, &chosen, kind == 1),
                };
                (pattern, target)
            }
            Family::Named => unreachable!("named instances are pinned, not generated"),
        };
        Instance::new(name, seed, pattern, target)
    }
}

fn sparse_target(rng: &mut SplitMix64) -> Graph {
    let (n, p) = (8 + rng.next_below(9), 0.12 + 0.12 * rng.next_f64());
    let (labels, edge_labels) = (1 + rng.next_below(3), 1 + rng.next_below(3));
    random_graph(rng, n, p, labels, edge_labels, 0.2)
}

/// Random labelled digraph: `n` nodes with labels below `labels`, each
/// ordered pair an edge with probability `p` (label below `edge_labels`),
/// each node self-looped with probability `loops`.
fn random_graph(
    rng: &mut SplitMix64,
    n: usize,
    p: f64,
    labels: usize,
    edge_labels: usize,
    loops: f64,
) -> Graph {
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_node(rng.next_below(labels) as u32);
    }
    for u in 0..n as NodeId {
        for v in 0..n as NodeId {
            if rng.next_bool(if u == v { loops } else { p }) {
                b.add_edge(u, v, rng.next_below(edge_labels) as u32);
            }
        }
    }
    b.build()
}

/// Random symmetric graph: `n` nodes with labels below `labels`, each
/// unordered pair an undirected edge with probability `p` (label below
/// `edge_labels`), each node self-looped with probability `loops`.
fn symmetric_graph(
    rng: &mut SplitMix64,
    n: usize,
    p: f64,
    labels: usize,
    edge_labels: usize,
    loops: f64,
) -> Graph {
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_node(rng.next_below(labels) as u32);
    }
    for u in 0..n as NodeId {
        for v in u..n as NodeId {
            if rng.next_bool(if u == v { loops } else { p }) {
                b.add_undirected_edge(u, v, rng.next_below(edge_labels) as u32);
            }
        }
    }
    b.build()
}

/// `target` with the reverse of one edge dropped (`drop`) or relabelled:
/// an edge between two `chosen` nodes where there is one, else one leaving
/// a chosen node, else any; `target` itself when it has no edge but
/// self-loops.
fn break_one_reverse(rng: &mut SplitMix64, target: &Graph, chosen: &[NodeId], drop: bool) -> Graph {
    let edges: Vec<(NodeId, NodeId, u32)> = target.edges().filter(|e| e.0 != e.1).collect();
    let walked = |v: &NodeId| chosen.contains(v);
    let inner: Vec<_> = edges
        .iter()
        .filter(|e| walked(&e.0) && walked(&e.1))
        .collect();
    let leaving: Vec<_> = edges.iter().filter(|e| walked(&e.0)).collect();
    let pools = [inner, leaving, edges.iter().collect()];
    let Some(pool) = pools.into_iter().find(|pool| !pool.is_empty()) else {
        return target.clone();
    };
    let (u, v, _) = *pool[rng.next_below(pool.len())];
    let mut b = GraphBuilder::new();
    for w in target.nodes() {
        b.add_node(target.label(w));
    }
    for (a, c, l) in target.edges() {
        match ((a, c) == (v, u), drop) {
            (false, _) => b.add_edge(a, c, l),
            (true, false) => b.add_edge(a, c, l + 1),
            (true, true) => {}
        }
    }
    b.build()
}

/// A connected pattern of up to `k` nodes walked out of `target`, keeping
/// every edge (self-loops included) among the chosen nodes.
fn extract_pattern(rng: &mut SplitMix64, target: &Graph, k: usize) -> Graph {
    induced(target, &walk_nodes(rng, target, k))
}

/// The subgraph of `target` induced on `chosen`, self-loops included,
/// renumbered in that order.
fn induced(target: &Graph, chosen: &[NodeId]) -> Graph {
    let mut b = GraphBuilder::new();
    for &v in chosen {
        b.add_node(target.label(v));
    }
    for (i, &u) in chosen.iter().enumerate() {
        for (j, &v) in chosen.iter().enumerate() {
            if let Some(l) = target.edge_label(u, v) {
                b.add_edge(i as NodeId, j as NodeId, l);
            }
        }
    }
    b.build()
}

/// Up to `k` connected nodes of `target`, walked out from a random one.
fn walk_nodes(rng: &mut SplitMix64, target: &Graph, k: usize) -> Vec<NodeId> {
    let mut chosen = vec![rng.next_below(target.num_nodes()) as NodeId];
    for _ in 0..k * 8 {
        if chosen.len() >= k {
            break;
        }
        let from = chosen[rng.next_below(chosen.len())];
        let neighbors = target.undirected_neighbors(from);
        if !neighbors.is_empty() {
            let next = neighbors[rng.next_below(neighbors.len())];
            if !chosen.contains(&next) {
                chosen.push(next);
            }
        }
    }
    chosen
}

/// A connected core of 1-3 nodes walked out of `target`, with up to six
/// pendant leaves: target neighbors of core nodes that keep their edges to
/// one core node, or now and then to two, and none to each other or to
/// themselves.  Every pattern edge is a target edge, so the pattern embeds.
fn pendant_pattern(rng: &mut SplitMix64, target: &Graph) -> Graph {
    let k = 1 + rng.next_below(3);
    let mut chosen = walk_nodes(rng, target, k);
    let hubs = chosen.len();
    let (leaves, mut held) = (1 + rng.next_below(6), Vec::new());
    for _ in 0..leaves * 8 {
        if held.len() == leaves {
            break;
        }
        let hub = rng.next_below(hubs);
        let neighbors = target.undirected_neighbors(chosen[hub]);
        if neighbors.is_empty() {
            continue;
        }
        let leaf = neighbors[rng.next_below(neighbors.len())];
        if !chosen.contains(&leaf) {
            chosen.push(leaf);
            let second = rng.next_bool(0.2);
            held.push((hub, second.then(|| rng.next_below(hubs))));
        }
    }
    // Every target edge among the core, self-loops included, and between
    // each leaf and its hubs.
    let mut pairs: Vec<(usize, usize)> = (0..hubs)
        .flat_map(|i| (0..hubs).map(move |j| (i, j)))
        .collect();
    for (leaf, &(hub, second)) in held.iter().enumerate() {
        for h in [Some(hub), second].into_iter().flatten() {
            pairs.extend([(hubs + leaf, h), (h, hubs + leaf)]);
        }
    }
    let mut b = GraphBuilder::new();
    for &v in &chosen {
        b.add_node(target.label(v));
    }
    for (i, j) in pairs {
        if let Some(label) = target.edge_label(chosen[i], chosen[j]) {
            b.add_edge(i as NodeId, j as NodeId, label);
        }
    }
    b.build()
}

/// `g` with nodes relabelled or dropped (`label(v) == None`, later nodes
/// renumbered down) and edges filtered by their index in `g.edges()`.
pub fn rebuild(
    g: &Graph,
    label: impl Fn(NodeId) -> Option<u32>,
    keep_edge: impl Fn(usize) -> bool,
) -> Graph {
    let mut b = GraphBuilder::new();
    let ids: Vec<Option<NodeId>> = g.nodes().map(|v| label(v).map(|l| b.add_node(l))).collect();
    for (i, (u, v, l)) in g.edges().enumerate() {
        if let (Some(u), Some(v), true) = (ids[u as usize], ids[v as usize], keep_edge(i)) {
            b.add_edge(u, v, l);
        }
    }
    b.build()
}

/// Parses `.gfd` text with integer labels kept as their own ids.
fn gfd(text: &str) -> Graph {
    let mut interner: HashMap<String, u32> = (0..64).map(|l| (l.to_string(), l)).collect();
    parse_graph_with_interner(text, &mut interner).expect("pinned .gfd text parses")
}

/// Pinned shrunk regressions, `(name, pattern, target)` as `.gfd` text,
/// in the form the failure report prints.
const REGRESSIONS: &[(&str, &str, &str)] = &[
    // With `max_matches = 0`, an instance preprocessing proved impossible
    // reported `limit_hit: false`; a searching run reports `true`.
    (
        "zero_budget_on_an_impossible_instance",
        "1\n0\n0\n",
        "0\n0\n",
    ),
    // A conflict zero: both leaves' only candidate is the same node, so
    // the second leaf's level is reached once and no match exists; under
    // RI-DS forward checking proves it during preprocessing instead.
    (
        "two_leaves_one_candidate",
        "3\n0\n1\n1\n2\n0 1 0\n0 2 0\n",
        "3\n0\n1\n2\n2\n0 1 0\n0 2 0\n",
    ),
];

/// The named instances: the hand-made cases of the per-scheduler suites
/// the matrix replaced, and [`REGRESSIONS`].
pub fn named() -> Vec<Instance> {
    use generators::{clique, directed_cycle as cycle, directed_path as path, grid};
    use generators::{undirected_cycle, undirected_path};
    let bridged = bridged_communities(4, 6);
    // Two bridged 9-cliques: every node's 8 clique neighbors per direction
    // reach the row floor of 8.
    let spec = ModularSpec {
        communities: 2,
        community_size: 9,
        intra_bonds: 36,
        labels: 1,
    };
    let modular = generate_modular(&spec, 0x0DA7_A5E7, "modular");
    // A self-looped node with two differently labelled edges to a second
    // node; of the lookalikes in the target only (0, 1) embeds it.
    let looped_pair = gfd("2\n0\n1\n3\n0 0 5\n0 1 7\n1 0 8\n");
    let lookalikes =
        gfd("6\n0\n1\n0\n1\n0\n1\n8\n0 0 5\n2 2 6\n0 1 7\n1 0 8\n0 3 7\n3 0 9\n2 5 7\n5 2 8\n");
    let looped_triangle = gfd("3\n0\n0\n0\n7\n0 0 0\n0 1 0\n1 0 0\n1 2 0\n2 1 0\n0 2 0\n2 0 0\n");
    // Two leaves each held by a 5-labelled edge out of the hub and a
    // 6-labelled one back; in the target, hub 0 holds three such leaves,
    // one only one way and one with a 7 back, and hub 6 two of hub 0's.
    let two_label_leaves = gfd("3\n0\n1\n1\n4\n0 1 5\n1 0 6\n0 2 5\n2 0 6\n");
    let two_label_hubs = gfd(concat!(
        "7\n0\n1\n1\n1\n1\n1\n0\n13\n",
        "0 1 5\n1 0 6\n0 2 5\n2 0 6\n0 3 5\n3 0 6\n0 4 5\n0 5 5\n5 0 7\n",
        "6 1 5\n1 6 6\n6 2 5\n2 6 6\n",
    ));
    let mut named: Vec<Instance> = [
        ("self_loop_and_edge_labels", looped_pair, lookalikes),
        // Bridge edges, triangles across the cuts, self-looped anchors.
        ("bridged_triangle", clique(3, 0), bridged.clone()),
        ("bridged_looped_triangle", looped_triangle, bridged.clone()),
        ("bridged_path3", undirected_path(3, 0), bridged.clone()),
        ("bridged_clique4", clique(4, 0), bridged.clone()),
        ("bridged_self_loop", gfd("1\n0\n1\n0 0 0\n"), bridged),
        ("modular_cycle3", cycle(3, 0), modular.clone()),
        ("modular_path3", path(3, 0), modular.clone()),
        ("modular_triangle", clique(3, 0), modular),
        ("c4_in_grid4x4", undirected_cycle(4, 0), grid(4, 4)),
        ("c6_in_grid5x5", undirected_cycle(6, 0), grid(5, 5)),
        ("path3_in_grid3x4", undirected_path(3, 0), grid(3, 4)),
        ("triangle_in_k4", cycle(3, 0), clique(4, 0)),
        ("triangle_in_k5", cycle(3, 0), clique(5, 0)),
        ("triangle_in_k6", cycle(3, 0), clique(6, 0)),
        ("edge_in_k10", path(2, 0), clique(10, 0)),
        ("edge_in_k12", path(2, 0), clique(12, 0)),
        ("edge_in_k16", path(2, 0), clique(16, 0)),
        ("triangle_in_k16", cycle(3, 0), clique(16, 0)),
        ("k5_in_k3", clique(5, 0), clique(3, 0)),
        ("empty_in_k4", gfd("0\n0\n"), clique(4, 0)),
        ("absent_label_in_k4", gfd("1\n42\n0\n"), clique(4, 0)),
        // Pendant leaves, counted by the suffix-count rule: twins on one
        // hub, leaves of two hubs with shared candidates, and twin leaves
        // held by two differently labelled edges.
        ("star3_in_k6", generators::star(3, 0, 0), clique(6, 0)),
        ("two_hubs_in_k6", two_hub_leaves(), clique(6, 0)),
        ("two_hubs_in_grid4x4", two_hub_leaves(), grid(4, 4)),
        ("two_label_leaves", two_label_leaves, two_label_hubs),
    ]
    .into_iter()
    .chain(
        REGRESSIONS
            .iter()
            .map(|&(name, p, t)| (name, gfd(p), gfd(t))),
    )
    .map(|(name, pattern, target)| Instance::new(name, 0, pattern, target))
    .collect();
    // The early-termination budgets of the triangle in K16 (3360 matches).
    named[18].budgets = vec![25, 500];
    named
}

/// An undirected path of three hubs with two leaves on one end and one on
/// the other: the end hubs' leaves share candidates wherever the ends'
/// images share neighbors.
fn two_hub_leaves() -> Graph {
    let mut b = GraphBuilder::new();
    b.add_nodes(6, 0);
    for (u, v) in [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5)] {
        b.add_undirected_edge(u, v, 0);
    }
    b.build()
}

/// Communities of directed cliques joined into a ring by double bridge
/// edges, with a triangle closed across each cut and a self-loop on each
/// community's bridge anchor.
fn bridged_communities(communities: usize, size: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_nodes(communities * size, 0);
    for c in 0..communities {
        let base = (c * size) as NodeId;
        for i in 0..size as NodeId {
            for j in (0..size as NodeId).filter(|&j| j != i) {
                b.add_edge(base + i, base + j, 0);
            }
        }
        let next = (((c + 1) % communities) * size) as NodeId;
        b.add_undirected_edge(base, next, 0);
        b.add_undirected_edge(base, next + 1, 0);
        b.add_edge(base, base, 0);
    }
    b.build()
}
