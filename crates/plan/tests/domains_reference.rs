//! `Domains::compute` against a full-scan reference: the label/degree filter
//! that tests every target node for every pattern node, then the same
//! arc-consistency sweep and forward checking, on seeded random labelled
//! instances.

use sge_graph::{Graph, GraphBuilder, NodeId};
use sge_plan::Domains;
use sge_util::{Bitset, SplitMix64};

/// Label/degree filter by a full scan of the target per pattern node.
fn full_scan(pattern: &Graph, target: &Graph) -> Vec<Bitset> {
    (0..pattern.num_nodes() as NodeId)
        .map(|vp| {
            let mut dom = Bitset::new(target.num_nodes());
            for vt in 0..target.num_nodes() as NodeId {
                if target.label(vt) == pattern.label(vp)
                    && target.out_degree(vt) >= pattern.out_degree(vp)
                    && target.in_degree(vt) >= pattern.in_degree(vp)
                {
                    dom.insert(vt as usize);
                }
            }
            dom
        })
        .collect()
}

/// One arc-consistency sweep over the pattern nodes in order.
fn sweep(sets: &mut [Bitset], pattern: &Graph, target: &Graph) {
    for vp in 0..pattern.num_nodes() as NodeId {
        let unsupported: Vec<usize> = sets[vp as usize]
            .iter()
            .filter(|&vt| {
                let vt = vt as NodeId;
                let out = pattern.out_edges(vp).iter().all(|e| {
                    target.out_edges(vt).iter().any(|te| {
                        te.label == e.label && sets[e.node as usize].contains(te.node as usize)
                    })
                });
                let inn = pattern.in_edges(vp).iter().all(|e| {
                    target.in_edges(vt).iter().any(|te| {
                        te.label == e.label && sets[e.node as usize].contains(te.node as usize)
                    })
                });
                !(out && inn)
            })
            .collect();
        for vt in unsupported {
            sets[vp as usize].remove(vt);
        }
    }
}

/// Forward checking on singletons to a fixpoint; `false` on an empty domain.
fn forward_check(sets: &mut [Bitset]) -> bool {
    let mut processed = vec![false; sets.len()];
    while let Some(vp) = (0..sets.len()).find(|&vp| !processed[vp] && sets[vp].count() == 1) {
        processed[vp] = true;
        let forced = sets[vp].singleton().expect("a singleton");
        for other in (0..sets.len()).filter(|&other| other != vp) {
            if sets[other].remove(forced) && sets[other].is_empty() {
                return false;
            }
        }
    }
    true
}

fn random_graph(rng: &mut SplitMix64, nodes: usize, labels: &[u32], edges: usize) -> Graph {
    let mut builder = GraphBuilder::new();
    for _ in 0..nodes {
        builder.add_node(labels[rng.next_below(labels.len())]);
    }
    for _ in 0..edges {
        let u = rng.next_below(nodes) as NodeId;
        let v = rng.next_below(nodes) as NodeId;
        builder.add_edge(u, v, rng.next_below(2) as u32);
    }
    builder.build()
}

/// The subgraph of `target` induced on `nodes`, renumbered in that order.
fn induced(target: &Graph, nodes: &[NodeId]) -> Graph {
    let mut builder = GraphBuilder::new();
    for &v in nodes {
        builder.add_node(target.label(v));
    }
    for (i, &u) in nodes.iter().enumerate() {
        for (j, &v) in nodes.iter().enumerate() {
            if let Some(label) = target.edge_label(u, v) {
                builder.add_edge(i as NodeId, j as NodeId, label);
            }
        }
    }
    builder.build()
}

#[test]
fn domains_match_the_full_scan_reference() {
    let mut rng = SplitMix64::new(0x0D03_A125);
    for round in 0..400 {
        // Dense small ids, or sparse large ones the target may not hold.
        let labels: Vec<u32> = if round % 3 == 0 {
            vec![7, 1_000_003, u32::MAX]
        } else {
            (0..1 + rng.next_below(5) as u32).collect()
        };
        let nt = 1 + rng.next_below(60);
        let edges = rng.next_below(4 * nt + 1);
        let target = random_graph(&mut rng, nt, &labels, edges);
        let np = 1 + rng.next_below(7.min(nt));
        let pattern = if rng.next_bool(0.5) {
            let mut nodes: Vec<NodeId> = (0..nt as NodeId).collect();
            rng.shuffle(&mut nodes);
            induced(&target, &nodes[..np])
        } else {
            let mut wider = labels.clone();
            wider.push(5);
            let edges = rng.next_below(2 * np + 1);
            random_graph(&mut rng, np, &wider, edges)
        };

        let mut domains = Domains::compute(&pattern, &target);
        let mut expected = full_scan(&pattern, &target);
        sweep(&mut expected, &pattern, &target);
        for vp in 0..np as NodeId {
            assert_eq!(
                domains.set(vp),
                &expected[vp as usize],
                "round {round}, node {vp}"
            );
        }
        assert_eq!(
            domains.forward_check(),
            forward_check(&mut expected),
            "round {round}"
        );
        for vp in 0..np as NodeId {
            assert_eq!(
                domains.set(vp),
                &expected[vp as usize],
                "round {round}, node {vp} after forward checking"
            );
        }
    }
}
