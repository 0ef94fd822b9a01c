//! Pattern extraction from target graphs.
//!
//! Bonnici et al. built their query sets by extracting connected subgraphs
//! with a prescribed number of edges (4, 8, …, 256) from each target and
//! classifying them as dense, semi-dense or sparse.  Extracted patterns
//! guarantee that at least one embedding exists (the identity), which is what
//! makes the original collections hard: the search cannot prune the whole tree
//! early.

use sge_graph::{Graph, GraphBuilder, NodeId};
use sge_util::SplitMix64;

/// Density class of a pattern, following the original RI collections'
/// edges-per-node classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DensityClass {
    /// At least two edges per node.
    Dense,
    /// Between one and two edges per node.
    SemiDense,
    /// Fewer than ~1.2 edges per node (trees and near-trees).
    Sparse,
}

impl DensityClass {
    /// Classifies a pattern by its directed-edge/node ratio.
    pub fn of(pattern: &Graph) -> DensityClass {
        if pattern.num_nodes() == 0 {
            return DensityClass::Sparse;
        }
        let ratio = pattern.num_edges() as f64 / pattern.num_nodes() as f64;
        if ratio >= 2.0 {
            DensityClass::Dense
        } else if ratio >= 1.2 {
            DensityClass::SemiDense
        } else {
            DensityClass::Sparse
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DensityClass::Dense => "dense",
            DensityClass::SemiDense => "semi-dense",
            DensityClass::Sparse => "sparse",
        }
    }
}

/// Extracts a connected pattern with roughly `target_edges` directed edges
/// from `target` by growing a random connected node set and keeping every edge
/// among the selected nodes.  Returns `None` when the target has no nodes or
/// the start node is isolated and more than one node was requested.
pub fn extract_pattern(target: &Graph, target_edges: usize, seed: u64) -> Option<Graph> {
    if target.num_nodes() == 0 {
        return None;
    }
    let mut rng = SplitMix64::new(seed);
    // Prefer a start node that actually has neighbors.
    let start = (0..20)
        .map(|_| rng.next_below(target.num_nodes()) as NodeId)
        .find(|&v| target.degree(v) > 0)
        .unwrap_or(0);

    let mut selected: Vec<NodeId> = vec![start];
    let mut edge_count = 0usize;
    let mut stall = 0usize;

    while edge_count < target_edges && stall < 200 {
        let &from = &selected[rng.next_below(selected.len())];
        let neighbors = target.undirected_neighbors(from);
        if neighbors.is_empty() {
            stall += 1;
            continue;
        }
        let next = neighbors[rng.next_below(neighbors.len())];
        if selected.contains(&next) {
            stall += 1;
            continue;
        }
        // Count the new directed edges this node contributes.
        let mut added = 0usize;
        for &existing in &selected {
            if target.has_edge(existing, next) {
                added += 1;
            }
            if target.has_edge(next, existing) {
                added += 1;
            }
        }
        selected.push(next);
        edge_count += added;
        stall = 0;
    }

    if selected.len() < 2 && target_edges > 0 {
        return None;
    }

    let mut builder = GraphBuilder::new().name(format!(
        "pattern-e{target_edges}-s{seed}-from-{}",
        target.name()
    ));
    for &v in &selected {
        builder.add_node(target.label(v));
    }
    for (i, &u) in selected.iter().enumerate() {
        for (j, &v) in selected.iter().enumerate() {
            if let Some(label) = target.edge_label(u, v) {
                builder.add_edge(i as NodeId, j as NodeId, label);
            }
        }
    }
    Some(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target_gen::{generate_target, TargetSpec};
    use sge_graph::generators;

    #[test]
    fn extracted_pattern_is_connected_and_labeled_consistently() {
        let target = generate_target(&TargetSpec::small(), 42, "t");
        let pattern = extract_pattern(&target, 12, 7).expect("pattern");
        assert!(pattern.num_nodes() >= 2);
        assert!(pattern.is_connected());
        assert!(pattern.num_edges() >= 12 || pattern.num_nodes() == target.num_nodes());
    }

    #[test]
    fn extracted_pattern_embeds_in_its_target() {
        let target = generate_target(&TargetSpec::small(), 43, "t");
        let pattern = extract_pattern(&target, 8, 3).expect("pattern");
        let matches = sge_vf2::enumerate_limited(&pattern, &target, Some(1)).matches;
        assert!(
            matches >= 1,
            "an extracted pattern must embed at least once"
        );
    }

    #[test]
    fn extraction_is_deterministic_in_seed() {
        let target = generate_target(&TargetSpec::small(), 44, "t");
        let a = extract_pattern(&target, 10, 5).unwrap();
        let b = extract_pattern(&target, 10, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn density_classification() {
        assert_eq!(
            DensityClass::of(&generators::clique(5, 0)),
            DensityClass::Dense
        );
        assert_eq!(
            DensityClass::of(&generators::directed_path(6, 0)),
            DensityClass::Sparse
        );
        assert_eq!(
            DensityClass::of(&generators::undirected_path(6, 0)),
            DensityClass::SemiDense
        );
        assert_eq!(DensityClass::Dense.name(), "dense");
    }

    #[test]
    fn empty_target_yields_no_pattern() {
        let empty = GraphBuilder::new().build();
        assert!(extract_pattern(&empty, 4, 0).is_none());
    }

    #[test]
    fn isolated_target_yields_no_multi_node_pattern() {
        let mut b = GraphBuilder::new();
        b.add_nodes(5, 0);
        let target = b.build();
        assert!(extract_pattern(&target, 4, 0).is_none());
    }

    use sge_graph::GraphBuilder;
}
