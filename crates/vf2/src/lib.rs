//! A VF2-style baseline subgraph enumerator.
//!
//! VF2 (Cordella et al., 2004) is the classic state-space subgraph isomorphism
//! algorithm with a *dynamic* variable ordering: at every state it picks the
//! next pattern node based on the frontier of the partial mapping.  The paper
//! discusses VF2 (and VF2 Plus) as the main alternatives to RI; we implement a
//! compact VF2-flavoured enumerator to serve two purposes:
//!
//! * an **independent correctness oracle** — RI, RI-DS and the parallel
//!   variants are cross-validated against it on randomized instances, and
//! * a **baseline** for the ablation benches (static vs dynamic ordering).
//!
//! Semantics match the rest of the workspace: non-induced, label-equality
//! compatibility for nodes and edges, directed graphs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sge_graph::{Graph, NodeId};

/// Result of a VF2 enumeration run.
#[derive(Clone, Debug, Default)]
pub struct Vf2Result {
    /// Number of non-induced isomorphic embeddings found.
    pub matches: u64,
    /// Number of candidate pairs for which the feasibility check ran.
    pub states: u64,
}

struct Vf2<'a> {
    pattern: &'a Graph,
    target: &'a Graph,
    /// pattern node -> target node (MAX = unmapped)
    core_p: Vec<NodeId>,
    /// target node -> pattern node (MAX = unmapped)
    core_t: Vec<NodeId>,
    depth: usize,
    result: Vf2Result,
    limit: Option<u64>,
    /// Every complete mapping found, when the caller collects them.
    mappings: Option<Vec<Vec<NodeId>>>,
}

impl<'a> Vf2<'a> {
    fn new(pattern: &'a Graph, target: &'a Graph, limit: Option<u64>) -> Self {
        Vf2 {
            pattern,
            target,
            core_p: vec![NodeId::MAX; pattern.num_nodes()],
            core_t: vec![NodeId::MAX; target.num_nodes()],
            depth: 0,
            result: Vf2Result::default(),
            limit,
            mappings: None,
        }
    }

    fn done(&self) -> bool {
        self.limit.is_some_and(|l| self.result.matches >= l)
    }

    /// Dynamic variable selection: prefer an unmapped pattern node adjacent to
    /// the mapped region (the "frontier"), falling back to the smallest
    /// unmapped id for disconnected patterns.
    ///
    /// Runs at every search state, so the frontier test scans the two CSR
    /// adjacency slices directly instead of materializing an undirected
    /// neighborhood per call.
    fn select_next(&self) -> Option<NodeId> {
        let mut fallback = None;
        for vp in 0..self.pattern.num_nodes() as NodeId {
            if self.core_p[vp as usize] != NodeId::MAX {
                continue;
            }
            if fallback.is_none() {
                fallback = Some(vp);
            }
            let mapped = |e: &sge_graph::EdgeRef| self.core_p[e.node as usize] != NodeId::MAX;
            let frontier = self.pattern.out_edges(vp).iter().any(mapped)
                || self.pattern.in_edges(vp).iter().any(mapped);
            if frontier {
                return Some(vp);
            }
        }
        fallback
    }

    /// Candidate target nodes for `vp`: if some mapped pattern neighbor exists,
    /// use the appropriate adjacency list of its image; otherwise all unmapped
    /// target nodes.
    fn candidates(&self, vp: NodeId) -> Vec<NodeId> {
        for e in self.pattern.in_edges(vp) {
            let wp = e.node;
            let wt = self.core_p[wp as usize];
            if wp != vp && wt != NodeId::MAX {
                return self.target.out_edges(wt).iter().map(|te| te.node).collect();
            }
        }
        for e in self.pattern.out_edges(vp) {
            let wp = e.node;
            let wt = self.core_p[wp as usize];
            if wp != vp && wt != NodeId::MAX {
                return self.target.in_edges(wt).iter().map(|te| te.node).collect();
            }
        }
        (0..self.target.num_nodes() as NodeId)
            .filter(|&vt| self.core_t[vt as usize] == NodeId::MAX)
            .collect()
    }

    fn feasible(&self, vp: NodeId, vt: NodeId) -> bool {
        if self.core_t[vt as usize] != NodeId::MAX {
            return false;
        }
        if self.pattern.label(vp) != self.target.label(vt) {
            return false;
        }
        if self.target.out_degree(vt) < self.pattern.out_degree(vp)
            || self.target.in_degree(vt) < self.pattern.in_degree(vp)
        {
            return false;
        }
        for e in self.pattern.out_edges(vp) {
            let wp = e.node;
            if wp == vp {
                match self.target.edge_label(vt, vt) {
                    Some(l) if l == e.label => {}
                    _ => return false,
                }
                continue;
            }
            let wt = self.core_p[wp as usize];
            if wt != NodeId::MAX {
                match self.target.edge_label(vt, wt) {
                    Some(l) if l == e.label => {}
                    _ => return false,
                }
            }
        }
        for e in self.pattern.in_edges(vp) {
            let wp = e.node;
            if wp == vp {
                continue;
            }
            let wt = self.core_p[wp as usize];
            if wt != NodeId::MAX {
                match self.target.edge_label(wt, vt) {
                    Some(l) if l == e.label => {}
                    _ => return false,
                }
            }
        }
        true
    }

    fn search(&mut self) {
        if self.done() {
            return;
        }
        if self.depth == self.pattern.num_nodes() {
            self.result.matches += 1;
            if let Some(mappings) = &mut self.mappings {
                mappings.push(self.core_p.clone());
            }
            return;
        }
        let Some(vp) = self.select_next() else {
            return;
        };
        for vt in self.candidates(vp) {
            if self.done() {
                return;
            }
            self.result.states += 1;
            if !self.feasible(vp, vt) {
                continue;
            }
            self.core_p[vp as usize] = vt;
            self.core_t[vt as usize] = vp;
            self.depth += 1;
            self.search();
            self.depth -= 1;
            self.core_p[vp as usize] = NodeId::MAX;
            self.core_t[vt as usize] = NodeId::MAX;
        }
    }
}

/// Enumerates all non-induced embeddings of `pattern` in `target`.
///
/// An empty pattern has exactly one (empty) embedding, mirroring
/// `sge_ri::search_prepared`.
pub fn enumerate(pattern: &Graph, target: &Graph) -> Vf2Result {
    enumerate_limited(pattern, target, None)
}

/// Like [`enumerate`] but stops after `limit` matches when `limit` is `Some`.
pub fn enumerate_limited(pattern: &Graph, target: &Graph, limit: Option<u64>) -> Vf2Result {
    if pattern.num_nodes() == 0 {
        return Vf2Result {
            matches: 1,
            states: 0,
        };
    }
    if pattern.num_nodes() > target.num_nodes() {
        return Vf2Result::default();
    }
    let mut vf2 = Vf2::new(pattern, target, limit);
    vf2.search();
    vf2.result
}

/// Convenience helper returning just the match count.
pub fn count_matches(pattern: &Graph, target: &Graph) -> u64 {
    enumerate(pattern, target).matches
}

/// Every embedding as a mapping (`mapping[p]` = target node of pattern node
/// `p`), sorted — the oracle for an engine's collected mappings.
pub fn collect_mappings(pattern: &Graph, target: &Graph) -> Vec<Vec<NodeId>> {
    let mut vf2 = Vf2::new(pattern, target, None);
    vf2.mappings = Some(Vec::new());
    if pattern.num_nodes() <= target.num_nodes() {
        vf2.search();
    }
    let mut mappings = vf2.mappings.unwrap_or_default();
    mappings.sort_unstable();
    mappings
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, GraphBuilder};

    #[test]
    fn collected_mappings_are_sorted_and_complete() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(3, 0);
        let mappings = collect_mappings(&pattern, &target);
        assert_eq!(
            mappings,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 2],
                vec![2, 0],
                vec![2, 1]
            ]
        );
        assert_eq!(mappings.len() as u64, count_matches(&pattern, &target));
    }

    #[test]
    fn directed_edge_in_clique() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(4, 0);
        assert_eq!(count_matches(&pattern, &target), 12);
    }

    #[test]
    fn triangle_in_clique() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0);
        assert_eq!(count_matches(&pattern, &target), 24);
    }

    #[test]
    fn path_in_path() {
        let pattern = generators::directed_path(3, 0);
        let target = generators::directed_path(6, 0);
        assert_eq!(count_matches(&pattern, &target), 4);
    }

    #[test]
    fn labels_respected() {
        let pattern = generators::labeled_triangle(1, 2, 3);
        let target = generators::labeled_triangle(1, 2, 3);
        assert_eq!(count_matches(&pattern, &target), 1);
        let wrong = generators::labeled_triangle(1, 2, 2);
        assert_eq!(count_matches(&pattern, &wrong), 0);
    }

    #[test]
    fn empty_pattern_single_embedding() {
        let pattern = GraphBuilder::new().build();
        let target = generators::clique(3, 0);
        assert_eq!(count_matches(&pattern, &target), 1);
    }

    #[test]
    fn oversized_pattern_has_no_embedding() {
        let pattern = generators::clique(5, 0);
        let target = generators::clique(4, 0);
        assert_eq!(count_matches(&pattern, &target), 0);
    }

    #[test]
    fn disconnected_pattern() {
        let mut pb = GraphBuilder::new();
        pb.add_nodes(2, 0);
        let pattern = pb.build();
        let mut tb = GraphBuilder::new();
        tb.add_nodes(4, 0);
        let target = tb.build();
        assert_eq!(count_matches(&pattern, &target), 12);
    }

    #[test]
    fn self_loops_handled() {
        let mut pb = GraphBuilder::new();
        let p = pb.add_node(0);
        pb.add_edge(p, p, 0);
        let pattern = pb.build();
        let mut tb = GraphBuilder::new();
        let t0 = tb.add_node(0);
        let _t1 = tb.add_node(0);
        tb.add_edge(t0, t0, 0);
        let target = tb.build();
        assert_eq!(count_matches(&pattern, &target), 1);
    }

    #[test]
    fn limited_enumeration_stops_early() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(8, 0);
        let result = enumerate_limited(&pattern, &target, Some(3));
        assert_eq!(result.matches, 3);
        assert!(result.states < 8 * 7);
    }

    #[test]
    fn grid_squares() {
        // 4-cycles in a 3x3 grid are exactly the 4 unit squares; each hosts
        // |Aut(C4)| = 8 embeddings (4 rotations x 2 directions).
        let pattern = generators::undirected_cycle(4, 0);
        let target = generators::grid(3, 3);
        assert_eq!(count_matches(&pattern, &target), 32);
    }
}
