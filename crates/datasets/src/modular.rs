//! Modular (community-structured) target generation.
//!
//! Many dense communities joined by a sparse bridge ring: a target shape the
//! other generators in this crate deliberately avoid.  With one label and
//! clique-dense communities ([`ModularSpec::cliques`]) every neighborhood is
//! same-label dense, so every neighborhood earns a bitmap row and every
//! constrained step ANDs rows — the `modular_mix` bench figure measures that
//! kernel route on a mix of triangle-class queries.
//!
//! Generation is deterministic in the seed: intra-community bonds are sampled
//! *without replacement* (exactly `intra_bonds` distinct undirected pairs per
//! community), so the edge count is a closed-form function of the spec:
//!
//! ```text
//! directed_edges = communities * intra_bonds * 2 + ring_bridges * 2
//! ```
//!
//! where `ring_bridges` is `communities` for a ring of 3+, 1 for a pair, and
//! 0 for a single community.

use sge_graph::{Graph, GraphBuilder, Label};
use sge_util::SplitMix64;
use std::collections::HashSet;

/// Parameters of one modular target graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModularSpec {
    /// Number of communities on the bridge ring.
    pub communities: usize,
    /// Nodes per community.
    pub community_size: usize,
    /// Distinct undirected intra-community bonds per community (each bond is
    /// stored as a symmetric directed pair).
    pub intra_bonds: usize,
    /// Number of distinct node labels, assigned uniformly (1 keeps every
    /// neighborhood same-label dense, which is what earns bitmap rows).
    pub labels: u32,
}

impl ModularSpec {
    /// A small spec for unit tests: 4 communities of 32 nodes.
    pub fn small() -> Self {
        ModularSpec {
            communities: 4,
            community_size: 32,
            intra_bonds: 128,
            labels: 1,
        }
    }

    /// Eight communities of `clique(size)` each (every intra-community pair
    /// bonded) with one label: `8 * size` nodes at mean total degree about
    /// `2 * (size - 1)`.  Size 64 is the `modular_mix` bench target, size 24
    /// its smoke variant.
    pub fn cliques(size: usize) -> Self {
        ModularSpec {
            communities: 8,
            community_size: size,
            intra_bonds: size * size.saturating_sub(1) / 2,
            labels: 1,
        }
    }

    /// The exact number of directed edges [`generate_modular`] will produce.
    pub fn directed_edges(&self) -> usize {
        let bridges = match self.communities {
            0 | 1 => 0,
            2 => 1,
            c => c,
        };
        self.communities * self.intra_bonds * 2 + bridges * 2
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.communities * self.community_size
    }
}

/// Generates a modular target graph according to `spec`, deterministically in
/// `seed`.
///
/// Community `c` occupies the contiguous global id range
/// `[c * community_size, (c + 1) * community_size)`; its first node is the
/// *anchor*, and consecutive anchors are joined by one undirected bridge to
/// close the ring.  Intra-community bonds are distinct uniform pairs (no
/// self-loops), inserted symmetrically like every collection in this crate.
///
/// # Panics
///
/// Panics if `intra_bonds` exceeds the number of distinct pairs a community
/// has (`community_size * (community_size - 1) / 2`).
pub fn generate_modular(spec: &ModularSpec, seed: u64, name: &str) -> Graph {
    let size = spec.community_size;
    let pairs = size.saturating_mul(size.saturating_sub(1)) / 2;
    assert!(
        spec.intra_bonds <= pairs,
        "intra_bonds {} exceeds the {} distinct pairs of a {}-node community",
        spec.intra_bonds,
        pairs,
        size,
    );

    let mut rng = SplitMix64::new(seed);
    let n = spec.nodes();
    let mut builder = GraphBuilder::with_capacity(n, spec.directed_edges()).name(name.to_string());
    for _ in 0..n {
        let label = if spec.labels <= 1 {
            0
        } else {
            rng.next_below(spec.labels as usize) as Label
        };
        builder.add_node(label);
    }

    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(spec.intra_bonds);
    for community in 0..spec.communities {
        let base = (community * size) as u32;
        seen.clear();
        while seen.len() < spec.intra_bonds {
            let u = rng.next_below(size) as u32;
            let v = rng.next_below(size) as u32;
            if u == v {
                continue;
            }
            let bond = (u.min(v), u.max(v));
            if seen.insert(bond) {
                builder.add_undirected_edge(base + bond.0, base + bond.1, 0);
            }
        }
    }

    // The sparse bridge ring between consecutive anchors.  A 2-community
    // "ring" would lay the same bridge twice, so it gets just one.
    let ring = match spec.communities {
        0 | 1 => 0,
        2 => 1,
        c => c,
    };
    for community in 0..ring {
        let a = (community * size) as u32;
        let b = (((community + 1) % spec.communities) * size) as u32;
        builder.add_undirected_edge(a, b, 0);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let spec = ModularSpec::small();
        let a = generate_modular(&spec, 9, "m");
        let b = generate_modular(&spec, 9, "m");
        assert_eq!(a, b);
        assert_ne!(a, generate_modular(&spec, 10, "m"));
    }

    #[test]
    fn edge_count_is_exactly_the_closed_form() {
        // `cliques(24)` bonds all 276 pairs of every community.
        for (spec, edges) in [
            (ModularSpec::small(), 4 * 128 * 2 + 4 * 2),
            (ModularSpec::cliques(24), 8 * 276 * 2 + 8 * 2),
        ] {
            let g = generate_modular(&spec, 1, "m");
            assert_eq!(g.num_nodes(), spec.nodes());
            assert_eq!(g.num_edges(), spec.directed_edges());
            assert_eq!(spec.directed_edges(), edges);
        }
    }

    #[test]
    fn bridges_keep_the_ring_connected() {
        let spec = ModularSpec::small();
        let g = generate_modular(&spec, 3, "m");
        // Walk the ring: every anchor must reach the next community's anchor.
        let size = spec.community_size as u32;
        for c in 0..spec.communities as u32 {
            let a = c * size;
            let b = ((c + 1) % spec.communities as u32) * size;
            assert_eq!(g.edge_label(a, b), Some(0), "missing bridge {a}->{b}");
            assert_eq!(g.edge_label(b, a), Some(0), "missing bridge {b}->{a}");
        }
    }

    #[test]
    fn intra_edges_stay_inside_their_community() {
        let spec = ModularSpec::small();
        let g = generate_modular(&spec, 5, "m");
        let size = spec.community_size as u32;
        let mut cross = 0usize;
        for (u, v, _) in g.edges() {
            if u / size != v / size {
                cross += 1;
            }
        }
        // Only the ring bridges cross communities (two directed each).
        assert_eq!(cross, spec.communities * 2);
    }

    #[test]
    fn single_and_double_community_degenerate_cases() {
        let lone = ModularSpec {
            communities: 1,
            ..ModularSpec::small()
        };
        let g = generate_modular(&lone, 2, "lone");
        assert_eq!(g.num_edges(), lone.intra_bonds * 2);

        let pair = ModularSpec {
            communities: 2,
            ..ModularSpec::small()
        };
        let g = generate_modular(&pair, 2, "pair");
        assert_eq!(g.num_edges(), 2 * pair.intra_bonds * 2 + 2);
    }
}
