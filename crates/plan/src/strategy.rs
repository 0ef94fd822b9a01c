//! Pluggable ordering strategies.
//!
//! A strategy turns a pattern (plus target statistics and, for the RI-DS
//! family, domains) into a permutation of the pattern nodes.  The executor's
//! candidate generation and consistency checks are order-agnostic, so every
//! strategy enumerates the *same* matches — only the shape (and therefore
//! the size) of the explored search tree changes.

use crate::algorithm::Algorithm;
use crate::domains::Domains;
use crate::ordering::greedy_positions;
use sge_graph::{Graph, GraphStats, NodeId};

/// Everything an [`OrderingStrategy`] may consult besides the pattern.
pub struct PlanningInput<'a> {
    /// Label-frequency statistics of the target graph.  They are read only
    /// when [`Strategy::reads_target_stats`], so other plans may leave them
    /// out.
    pub target_stats: Option<&'a GraphStats>,
    /// RI-DS domains, when the algorithm computes them.
    pub domains: Option<&'a Domains>,
    /// Whether ordering ties should be broken by domain size (the SI
    /// improvement; only meaningful when `domains` is present).
    pub domain_size_tie_break: bool,
}

/// A match-order heuristic: produces a permutation of the pattern nodes.
pub trait OrderingStrategy {
    /// Short stable name (used in reports and the wire protocol).
    fn name(&self) -> &'static str;
    /// The position sequence: `result[i]` is the pattern node matched at
    /// depth `i`.  Must be a permutation of `0..pattern.num_nodes()`.
    fn positions(&self, pattern: &Graph, input: &PlanningInput<'_>) -> Vec<NodeId>;
}

/// Which ordering strategy a [`crate::Planner`] uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The paper's GreatestConstraintFirst greedy (RI): structure-first,
    /// most-constrained-next, with RI-DS singleton hoisting and the SI
    /// domain-size tie-break when domains are available.  Bit-for-bit
    /// identical to the pre-planner ordering.
    #[default]
    RiGreedy,
    /// Seed and extend by the rarest target node label (GraphQL/CFL-style):
    /// positions whose label occurs least often in the target come first, so
    /// the top of the search tree has the fewest candidates.
    LeastFrequentLabelFirst,
    /// Pure structure: pattern nodes sorted by total degree, descending.
    /// The simplest baseline — no target information at all.
    DegreeDescending,
}

impl Strategy {
    /// Every selectable strategy, in presentation order.
    pub const ALL: [Strategy; 3] = [
        Strategy::RiGreedy,
        Strategy::LeastFrequentLabelFirst,
        Strategy::DegreeDescending,
    ];

    /// Short stable name (also the canonical `FromStr` spelling).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::RiGreedy => "ri-greedy",
            Strategy::LeastFrequentLabelFirst => "least-frequent-label",
            Strategy::DegreeDescending => "degree-descending",
        }
    }

    /// Whether a plan under this strategy reads the target's
    /// [`GraphStats`]: only a least-frequent-label order without domains
    /// does (with domains, domain sizes stand in for label frequencies).
    pub fn reads_target_stats(self, algorithm: Algorithm) -> bool {
        self == Strategy::LeastFrequentLabelFirst && !algorithm.uses_domains()
    }

    /// The strategy implementation behind this selector.
    pub fn implementation(self) -> &'static dyn OrderingStrategy {
        match self {
            Strategy::RiGreedy => &RiGreedy,
            Strategy::LeastFrequentLabelFirst => &LeastFrequentLabelFirst,
            Strategy::DegreeDescending => &DegreeDescending,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    /// Parses the strategy names used by the CLI tools and the wire
    /// protocol, case-insensitively; `-` and `_` are interchangeable and a
    /// few shorthands are accepted (`greedy`, `lfl`, `degree`).
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        match text.to_ascii_lowercase().replace('_', "-").as_str() {
            "ri-greedy" | "greedy" | "gcf" => Ok(Strategy::RiGreedy),
            "least-frequent-label" | "least-frequent-label-first" | "lfl" | "lflf" => {
                Ok(Strategy::LeastFrequentLabelFirst)
            }
            "degree-descending" | "degree-desc" | "degree" => Ok(Strategy::DegreeDescending),
            other => Err(format!(
                "unknown strategy '{other}' (expected ri-greedy, least-frequent-label or \
                 degree-descending)"
            )),
        }
    }
}

/// The paper's GreatestConstraintFirst heuristic (see
/// [`crate::ordering::greatest_constraint_first`]).
pub struct RiGreedy;

impl OrderingStrategy for RiGreedy {
    fn name(&self) -> &'static str {
        Strategy::RiGreedy.name()
    }

    fn positions(&self, pattern: &Graph, input: &PlanningInput<'_>) -> Vec<NodeId> {
        greedy_positions(pattern, input.domains, input.domain_size_tie_break)
    }
}

/// Rarest-target-label-first ordering.
///
/// The seed is the pattern node whose label is least frequent among the
/// target nodes (ties: higher degree, then smaller id).  Each extension step
/// prefers nodes adjacent to the ordered prefix — keeping the order
/// connected so candidates come from adjacency intersections rather than
/// full scans — and among those again picks the rarest label, breaking ties
/// by the number of already-ordered neighbors, degree, and id.  When domains
/// are available the *domain size* stands in for the raw label frequency:
/// it is the same signal sharpened by degree filtering and arc consistency.
pub struct LeastFrequentLabelFirst;

/// Frequency rank of a node: domain size when available (RI-DS family),
/// otherwise the target-label frequency.  Smaller is better.
fn rarity(v: NodeId, pattern: &Graph, input: &PlanningInput<'_>) -> usize {
    match input.domains {
        Some(domains) => domains.size(v),
        None => input
            .target_stats
            .expect("a plan without domains carries target statistics")
            .node_label_count(pattern.label(v)),
    }
}

impl OrderingStrategy for LeastFrequentLabelFirst {
    fn name(&self) -> &'static str {
        Strategy::LeastFrequentLabelFirst.name()
    }

    fn positions(&self, pattern: &Graph, input: &PlanningInput<'_>) -> Vec<NodeId> {
        let n = pattern.num_nodes();
        let mut in_order = vec![false; n];
        let mut positions: Vec<NodeId> = Vec::with_capacity(n);
        // Per-node undirected neighborhoods, computed once up front; the
        // selection loop below is allocation-free.
        let mut neighbors: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (v, list) in neighbors.iter_mut().enumerate() {
            pattern.undirected_neighbors_into(v as NodeId, list);
        }
        use std::cmp::Reverse;
        while positions.len() < n {
            // Lexicographic maximum of (adjacent-to-prefix, rarer label /
            // smaller domain, more ordered neighbors, higher degree, smaller
            // node id).
            let best = (0..n as NodeId)
                .filter(|&v| !in_order[v as usize])
                .max_by_key(|&v| {
                    let w_m = neighbors[v as usize]
                        .iter()
                        .filter(|&&w| in_order[w as usize])
                        .count();
                    let adjacent = w_m > 0 || positions.is_empty();
                    (
                        adjacent,
                        Reverse(rarity(v, pattern, input)),
                        w_m,
                        pattern.degree(v),
                        Reverse(v),
                    )
                });
            let chosen = best.expect("at least one unordered node remains");
            in_order[chosen as usize] = true;
            positions.push(chosen);
        }
        positions
    }
}

/// Total-degree-descending ordering (ties: smaller node id first).
pub struct DegreeDescending;

impl OrderingStrategy for DegreeDescending {
    fn name(&self) -> &'static str {
        Strategy::DegreeDescending.name()
    }

    fn positions(&self, pattern: &Graph, _input: &PlanningInput<'_>) -> Vec<NodeId> {
        let mut positions: Vec<NodeId> = (0..pattern.num_nodes() as NodeId).collect();
        positions.sort_by_key(|&v| (std::cmp::Reverse(pattern.degree(v)), v));
        positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, GraphBuilder, GraphStats};

    fn is_permutation(positions: &[NodeId], n: usize) -> bool {
        let mut seen = vec![false; n];
        for &v in positions {
            if seen[v as usize] {
                return false;
            }
            seen[v as usize] = true;
        }
        positions.len() == n && seen.iter().all(|&s| s)
    }

    #[test]
    fn strategy_names_round_trip_through_from_str() {
        for strategy in Strategy::ALL {
            assert_eq!(strategy.name().parse::<Strategy>().unwrap(), strategy);
            assert_eq!(strategy.implementation().name(), strategy.name());
        }
        assert_eq!("GREEDY".parse::<Strategy>().unwrap(), Strategy::RiGreedy);
        assert_eq!(
            "lfl".parse::<Strategy>().unwrap(),
            Strategy::LeastFrequentLabelFirst
        );
        assert_eq!(
            "degree".parse::<Strategy>().unwrap(),
            Strategy::DegreeDescending
        );
        assert!("random".parse::<Strategy>().is_err());
        assert_eq!(Strategy::default(), Strategy::RiGreedy);
    }

    #[test]
    fn every_strategy_emits_a_permutation() {
        let patterns = [
            generators::directed_path(5, 0),
            generators::clique(4, 0),
            generators::star(6, 0, 1),
            generators::grid(3, 3),
        ];
        let target = generators::grid(4, 4);
        let stats = GraphStats::of(&target);
        let input = PlanningInput {
            target_stats: Some(&stats),
            domains: None,
            domain_size_tie_break: false,
        };
        for pattern in &patterns {
            for strategy in Strategy::ALL {
                let positions = strategy.implementation().positions(pattern, &input);
                assert!(
                    is_permutation(&positions, pattern.num_nodes()),
                    "{strategy} on {}",
                    pattern.name()
                );
            }
        }
    }

    #[test]
    fn least_frequent_label_seeds_with_the_rarest_label() {
        // Pattern: path a(7) - b(1) - c(1); target has one node labeled 7 and
        // five labeled 1, so a must be seeded first.
        let mut pb = GraphBuilder::new();
        let a = pb.add_node(7);
        let b = pb.add_node(1);
        let c = pb.add_node(1);
        pb.add_undirected_edge(a, b, 0);
        pb.add_undirected_edge(b, c, 0);
        let pattern = pb.build();

        let mut tb = GraphBuilder::new();
        tb.add_node(7);
        for _ in 0..5 {
            tb.add_node(1);
        }
        let target = tb.build();
        let stats = GraphStats::of(&target);
        let input = PlanningInput {
            target_stats: Some(&stats),
            domains: None,
            domain_size_tie_break: false,
        };
        let positions = LeastFrequentLabelFirst.positions(&pattern, &input);
        assert_eq!(positions[0], a);
        // The extension stays connected: b (adjacent) precedes c.
        assert_eq!(positions, vec![a, b, c]);
    }

    #[test]
    fn degree_descending_sorts_by_degree() {
        let pattern = generators::star(4, 0, 1); // center 0 has degree 8
        let positions = DegreeDescending.positions(
            &pattern,
            &PlanningInput {
                target_stats: None,
                domains: None,
                domain_size_tie_break: false,
            },
        );
        assert_eq!(positions[0], 0);
        assert_eq!(&positions[1..], &[1, 2, 3, 4]);
    }
}
