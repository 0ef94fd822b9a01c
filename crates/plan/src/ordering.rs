//! GreatestConstraintFirst static node ordering.
//!
//! RI fixes the order in which pattern nodes are matched *before* the search
//! starts ("static variable ordering").  The heuristic greedily grows the
//! ordering so that the next node is the one most constrained by the nodes
//! already ordered, introducing new constraints as early as possible:
//!
//! 1. the first node is one of maximum degree;
//! 2. every following node maximizes, in lexicographic priority,
//!    * `w_m` — the number of its neighbors already in the ordering,
//!    * `w_n` — the number of its neighbors outside the ordering that are
//!      themselves adjacent to the ordering,
//!    * its degree;
//! 3. (RI-DS) nodes whose domain is a singleton are hoisted to the very front —
//!    their assignment is forced, so performing it first prunes everything
//!    below;
//! 4. (RI-DS-SI, this paper) remaining ties are broken in favour of the node
//!    with the *smaller* domain — the constraint-first principle applied to the
//!    domain information that RI-DS already computed.
//!
//! Each position also records its *constraints*: every pattern edge back to an
//! earlier position.  During the search, candidates are the intersection of
//! the adjacency lists those edges select on the already-mapped images, or
//! the AND of their bitmap rows where the target's sidecar holds a row for
//! each of them.  The plan names no kernel: the sidecar's row rule decides
//! (`sge_graph::bitmap`).

use crate::domains::Domains;
use sge_graph::{label_sig_bit, Graph, Label, NodeId};

/// One pattern edge between a position's node and an *earlier* position,
/// expressed as a constraint the candidate images must satisfy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeConstraint {
    /// Position (index into [`MatchOrder::positions`]) of the earlier node.
    pub parent_pos: usize,
    /// `true` for the pattern edge `earlier -> this` (candidates must appear in
    /// the out-neighborhood of the earlier node's image), `false` for
    /// `this -> earlier` (candidates must appear in its in-neighborhood).
    pub out_from_parent: bool,
    /// The pattern edge's label; the supporting target edge must carry it too.
    pub label: Label,
}

/// Cheap per-candidate feasibility test computed from the pattern node.
///
/// A target node `t` can only be the image of pattern node `v` if `t`'s
/// neighborhood covers, label-for-label, every pattern edge incident to `v`.
/// This records the *necessary* conditions checkable in O(1) per candidate:
/// minimum directed degrees and Bloom-style label signatures
/// (see [`sge_graph::label_sig_bit`]) that the target node's signatures must
/// be a superset of.  False passes are possible (the kernel still verifies);
/// false rejects are not, so filtering cannot change the match set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefilterSpec {
    /// Signature bits required of the candidate's out-neighborhood.
    pub out_sig: u64,
    /// Signature bits required of the candidate's in-neighborhood.
    pub in_sig: u64,
    /// Minimum out-degree of the candidate.
    pub min_out_degree: u32,
    /// Minimum in-degree of the candidate.
    pub min_in_degree: u32,
}

impl PrefilterSpec {
    /// Derives the spec for pattern node `v`: required degrees are `v`'s own
    /// directed degrees, and each incident pattern edge contributes its edge
    /// label's bit plus the far endpoint's node-label bit.
    pub fn for_node(pattern: &Graph, v: NodeId) -> PrefilterSpec {
        let mut out_sig = 0u64;
        for e in pattern.out_edges(v) {
            out_sig |= label_sig_bit(pattern.label(e.node)) | label_sig_bit(e.label);
        }
        let mut in_sig = 0u64;
        for e in pattern.in_edges(v) {
            in_sig |= label_sig_bit(pattern.label(e.node)) | label_sig_bit(e.label);
        }
        PrefilterSpec {
            out_sig,
            in_sig,
            min_out_degree: pattern.out_degree(v) as u32,
            min_in_degree: pattern.in_degree(v) as u32,
        }
    }

    /// `true` when the spec cannot reject anything (isolated pattern node).
    pub fn is_trivial(&self) -> bool {
        *self == PrefilterSpec::default()
    }
}

/// Everything the intersection-based candidate generator needs for one
/// position: all edges back into the ordered prefix, plus the node's
/// self-loop label when it has one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanStep {
    /// Every pattern edge between this position's node and earlier positions.
    /// A node pair connected in both directions contributes two constraints.
    pub constraints: Vec<EdgeConstraint>,
    /// Label of the pattern self-loop on this node, when present.
    pub self_loop: Option<Label>,
    /// Candidate prefilter derived from the pattern node at this position.
    pub prefilter: PrefilterSpec,
}

/// Per-position constraint sets driving multi-parent candidate intersection.
///
/// The plan lists *all* back-edges of every position, so candidates are
/// produced by intersecting the (sorted CSR) adjacency lists of every
/// already-mapped neighbor — after which those edges are guaranteed by
/// construction and need no per-candidate re-check.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CandidatePlan {
    /// One step per position of the ordering.
    pub steps: Vec<PlanStep>,
}

/// A static matching order over the pattern nodes plus the back-edge
/// constraints used for candidate generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchOrder {
    /// `positions[i]` is the pattern node matched at depth `i`.
    pub positions: Vec<NodeId>,
    /// Inverse permutation: `position_of[v]` is the depth at which pattern node
    /// `v` is matched.
    pub position_of: Vec<usize>,
    /// Back-edge constraints per position.  A position without constraints
    /// is a root of the ordering: the first node, or the first node of a new
    /// connected component.
    pub plan: CandidatePlan,
}

impl MatchOrder {
    /// Number of positions (= pattern nodes).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` when the pattern is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Computes the GreatestConstraintFirst ordering.
///
/// * `domains` — when present (RI-DS family), nodes with singleton domains are
///   hoisted to the front of the ordering.
/// * `domain_size_tie_break` — when `true` (the SI improvement), ties after
///   `w_m`, `w_n` and degree are broken in favour of the smaller domain.
///   Requires `domains` to be present to have any effect.
pub fn greatest_constraint_first(
    pattern: &Graph,
    domains: Option<&Domains>,
    domain_size_tie_break: bool,
) -> MatchOrder {
    finish_order(
        pattern,
        greedy_positions(pattern, domains, domain_size_tie_break),
    )
}

/// The position sequence of [`greatest_constraint_first`] without the
/// finishing pass — the raw output of the RI greedy heuristic, reused by
/// [`crate::strategy::RiGreedy`].
pub fn greedy_positions(
    pattern: &Graph,
    domains: Option<&Domains>,
    domain_size_tie_break: bool,
) -> Vec<NodeId> {
    let n = pattern.num_nodes();
    let mut in_order = vec![false; n];
    let mut positions: Vec<NodeId> = Vec::with_capacity(n);

    // Precompute undirected neighborhoods once (merge-based, no per-call
    // sort); the heuristic only looks at adjacency, not direction.
    let mut neighbors: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (v, list) in neighbors.iter_mut().enumerate() {
        pattern.undirected_neighbors_into(v as NodeId, list);
    }

    // RI-DS: singleton-domain nodes first (their assignment is forced).
    if let Some(doms) = domains {
        let mut singletons: Vec<NodeId> = (0..n as NodeId).filter(|&v| doms.size(v) == 1).collect();
        singletons.sort_unstable();
        for v in singletons {
            in_order[v as usize] = true;
            positions.push(v);
        }
    }

    while positions.len() < n {
        let mut best: Option<(usize, usize, usize, usize, NodeId)> = None;
        for v in 0..n as NodeId {
            if in_order[v as usize] {
                continue;
            }
            // w_m: neighbors of v already in the ordering.
            let w_m = neighbors[v as usize]
                .iter()
                .filter(|&&w| in_order[w as usize])
                .count();
            // w_n: neighbors of v outside the ordering that are adjacent to the
            // ordering (they will become constrained soon after v is placed).
            let w_n = neighbors[v as usize]
                .iter()
                .filter(|&&w| {
                    !in_order[w as usize]
                        && neighbors[w as usize].iter().any(|&x| in_order[x as usize])
                })
                .count();
            let degree = pattern.degree(v);
            // Smaller domain preferred => store the *negated rank* as "larger is
            // better"; without SI all candidates share the same value so the
            // criterion is inert.
            let domain_rank = if domain_size_tie_break {
                match domains {
                    Some(doms) => usize::MAX - doms.size(v),
                    None => 0,
                }
            } else {
                0
            };
            let key = (w_m, w_n, degree, domain_rank, v);
            let better = match &best {
                None => true,
                Some((bm, bn, bd, br, bv)) => {
                    // Lexicographic maximum; final component (node id) is a
                    // deterministic tie-break preferring the smaller id.
                    (w_m, w_n, degree, domain_rank) > (*bm, *bn, *bd, *br)
                        || ((w_m, w_n, degree, domain_rank) == (*bm, *bn, *bd, *br) && v < *bv)
                }
            };
            if better {
                best = Some(key);
            }
        }
        let (_, _, _, _, chosen) = best.expect("at least one unordered node remains");
        in_order[chosen as usize] = true;
        positions.push(chosen);
    }

    positions
}

/// Builds the inverse permutation and the back-edge constraints for a given
/// position sequence. Exposed for tests that want to force a specific
/// ordering.
pub fn finish_order(pattern: &Graph, positions: Vec<NodeId>) -> MatchOrder {
    let mut position_of = vec![usize::MAX; pattern.num_nodes()];
    for (i, &v) in positions.iter().enumerate() {
        position_of[v as usize] = i;
    }
    let mut steps: Vec<PlanStep> = Vec::with_capacity(positions.len());
    for (i, &v) in positions.iter().enumerate() {
        let mut step = PlanStep {
            constraints: Vec::new(),
            self_loop: pattern.edge_label(v, v),
            prefilter: PrefilterSpec::for_node(pattern, v),
        };
        for (j, &u) in positions.iter().enumerate().take(i) {
            if let Some(label) = pattern.edge_label(u, v) {
                step.constraints.push(EdgeConstraint {
                    parent_pos: j,
                    out_from_parent: true,
                    label,
                });
            }
            if let Some(label) = pattern.edge_label(v, u) {
                step.constraints.push(EdgeConstraint {
                    parent_pos: j,
                    out_from_parent: false,
                    label,
                });
            }
        }
        steps.push(step);
    }
    MatchOrder {
        positions,
        position_of,
        plan: CandidatePlan { steps },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::Domains;
    use sge_graph::{generators, GraphBuilder};

    fn is_permutation(order: &MatchOrder, n: usize) -> bool {
        let mut seen = vec![false; n];
        for &v in &order.positions {
            if seen[v as usize] {
                return false;
            }
            seen[v as usize] = true;
        }
        order.positions.len() == n && seen.iter().all(|&s| s)
    }

    #[test]
    fn ordering_is_a_permutation() {
        for pattern in [
            generators::directed_path(6, 0),
            generators::clique(5, 0),
            generators::star(7, 0, 1),
            generators::grid(3, 3),
        ] {
            let order = greatest_constraint_first(&pattern, None, false);
            assert!(is_permutation(&order, pattern.num_nodes()));
            // position_of really is the inverse permutation.
            for (i, &v) in order.positions.iter().enumerate() {
                assert_eq!(order.position_of[v as usize], i);
            }
        }
    }

    #[test]
    fn first_node_has_maximum_degree() {
        let pattern = generators::star(5, 0, 1);
        let order = greatest_constraint_first(&pattern, None, false);
        assert_eq!(order.positions[0], 0, "star center must be ordered first");
    }

    #[test]
    fn connected_pattern_has_parents_after_root() {
        let pattern = generators::grid(3, 3);
        let order = greatest_constraint_first(&pattern, None, false);
        assert!(order.plan.steps[0].constraints.is_empty());
        for i in 1..order.len() {
            let parent = order.plan.steps[i]
                .constraints
                .first()
                .expect("connected pattern: every non-root has a parent");
            assert!(parent.parent_pos < i);
            let child = order.positions[i];
            let parent_node = order.positions[parent.parent_pos];
            if parent.out_from_parent {
                assert!(pattern.has_edge(parent_node, child));
            } else {
                assert!(pattern.has_edge(child, parent_node));
            }
        }
    }

    #[test]
    fn disconnected_pattern_gets_multiple_roots() {
        let mut b = GraphBuilder::new();
        b.add_nodes(4, 0);
        b.add_undirected_edge(0, 1, 0);
        b.add_undirected_edge(2, 3, 0);
        let pattern = b.build();
        let order = greatest_constraint_first(&pattern, None, false);
        let roots = order
            .plan
            .steps
            .iter()
            .filter(|step| step.constraints.is_empty())
            .count();
        assert_eq!(roots, 2);
    }

    #[test]
    fn each_new_node_maximizes_neighbors_in_ordering() {
        // Greedy invariant: when node at position i was chosen, no other
        // unordered node had strictly more neighbors inside the prefix.
        let pattern = generators::grid(3, 4);
        let order = greatest_constraint_first(&pattern, None, false);
        for i in 1..order.len() {
            let prefix: Vec<_> = order.positions[..i].to_vec();
            let count_in_prefix = |v: sge_graph::NodeId| {
                pattern
                    .undirected_neighbors(v)
                    .iter()
                    .filter(|&&w| prefix.contains(&w))
                    .count()
            };
            let chosen = count_in_prefix(order.positions[i]);
            for &other in &order.positions[i + 1..] {
                assert!(
                    count_in_prefix(other) <= chosen,
                    "node {other} was more constrained than the chosen node at position {i}"
                );
            }
        }
    }

    #[test]
    fn singleton_domains_are_hoisted_to_front() {
        // Pattern: path a-b-c with distinct labels; target: one node per label
        // for 'a', many for the others → D(a) is a singleton.
        let mut pb = GraphBuilder::new();
        let a = pb.add_node(7);
        let b = pb.add_node(1);
        let c = pb.add_node(1);
        pb.add_undirected_edge(a, b, 0);
        pb.add_undirected_edge(b, c, 0);
        let pattern = pb.build();

        let mut tb = GraphBuilder::new();
        let ta = tb.add_node(7);
        for _ in 0..5 {
            tb.add_node(1);
        }
        for v in 1..=5u32 {
            tb.add_undirected_edge(ta, v, 0);
        }
        tb.add_undirected_edge(1, 2, 0);
        let target = tb.build();

        let domains = Domains::compute(&pattern, &target);
        assert_eq!(domains.size(a), 1);
        let order = greatest_constraint_first(&pattern, Some(&domains), false);
        assert_eq!(order.positions[0], a);
    }

    #[test]
    fn si_tie_break_prefers_smaller_domain() {
        // Pattern: star center x with two leaves y, z of identical degree; give
        // y a rarer label so its domain is smaller than z's. With SI, y must be
        // ordered before z.
        let mut pb = GraphBuilder::new();
        let x = pb.add_node(0);
        let y = pb.add_node(1);
        let z = pb.add_node(2);
        pb.add_undirected_edge(x, y, 0);
        pb.add_undirected_edge(x, z, 0);
        let pattern = pb.build();

        let mut tb = GraphBuilder::new();
        let hub = tb.add_node(0);
        // two nodes with label 1 (domain of y), five with label 2 (domain of z)
        for _ in 0..2 {
            let v = tb.add_node(1);
            tb.add_undirected_edge(hub, v, 0);
        }
        for _ in 0..5 {
            let v = tb.add_node(2);
            tb.add_undirected_edge(hub, v, 0);
        }
        let target = tb.build();

        let domains = Domains::compute(&pattern, &target);
        assert!(domains.size(y) < domains.size(z));

        let si = greatest_constraint_first(&pattern, Some(&domains), true);
        let pos_y = si.position_of[y as usize];
        let pos_z = si.position_of[z as usize];
        assert!(pos_y < pos_z, "SI must order the smaller-domain leaf first");
    }

    #[test]
    fn empty_pattern_gives_empty_order() {
        let pattern = GraphBuilder::new().build();
        let order = greatest_constraint_first(&pattern, None, false);
        assert!(order.is_empty());
        assert_eq!(order.len(), 0);
        assert!(order.plan.steps.is_empty());
    }

    #[test]
    fn plan_lists_every_back_edge() {
        // A clique stores both directions of every pair, so position i must
        // carry exactly 2*i constraints (one per direction per earlier node).
        let pattern = generators::clique(4, 0);
        let order = greatest_constraint_first(&pattern, None, false);
        for (i, step) in order.plan.steps.iter().enumerate() {
            assert_eq!(step.constraints.len(), 2 * i, "position {i}");
            assert_eq!(step.self_loop, None);
            for c in &step.constraints {
                assert!(c.parent_pos < i);
                let child = order.positions[i];
                let parent = order.positions[c.parent_pos];
                if c.out_from_parent {
                    assert_eq!(pattern.edge_label(parent, child), Some(c.label));
                } else {
                    assert_eq!(pattern.edge_label(child, parent), Some(c.label));
                }
            }
        }
    }

    #[test]
    fn plan_steps_carry_the_prefilter() {
        use sge_graph::label_sig_bit;
        let mut pb = GraphBuilder::new();
        let a = pb.add_node(3);
        let b = pb.add_node(4);
        let c = pb.add_node(5);
        pb.add_edge(a, b, 7);
        pb.add_edge(c, a, 8);
        let pattern = pb.build();
        let order = greatest_constraint_first(&pattern, None, false);
        let pos_a = order.position_of[a as usize];
        let step = &order.plan.steps[pos_a];
        assert_eq!(
            step.prefilter,
            PrefilterSpec {
                out_sig: label_sig_bit(4) | label_sig_bit(7),
                in_sig: label_sig_bit(5) | label_sig_bit(8),
                min_out_degree: 1,
                min_in_degree: 1,
            }
        );
        assert!(!step.prefilter.is_trivial());
        // An isolated node would carry the trivial pass-all spec.
        assert!(PrefilterSpec::default().is_trivial());
    }

    #[test]
    fn plan_records_self_loops_and_edge_labels() {
        let mut pb = GraphBuilder::new();
        let a = pb.add_node(0);
        let b = pb.add_node(0);
        pb.add_edge(a, a, 9);
        pb.add_edge(a, b, 7);
        pb.add_edge(b, a, 8);
        let pattern = pb.build();
        let order = greatest_constraint_first(&pattern, None, false);
        let pos_a = order.position_of[a as usize];
        let pos_b = order.position_of[b as usize];
        assert_eq!(order.plan.steps[pos_a].self_loop, Some(9));
        assert_eq!(order.plan.steps[pos_b].self_loop, None);
        let later = pos_a.max(pos_b);
        let labels: Vec<_> = order.plan.steps[later]
            .constraints
            .iter()
            .map(|c| (c.out_from_parent, c.label))
            .collect();
        // Both directed edges between a and b appear, with their own labels.
        assert_eq!(labels.len(), 2);
        assert!(labels.contains(&(true, if later == pos_b { 7 } else { 8 })));
        assert!(labels.contains(&(false, if later == pos_b { 8 } else { 7 })));
    }
}
