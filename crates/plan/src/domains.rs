//! RI-DS domains: per-pattern-node sets of compatible target nodes.
//!
//! RI-DS precomputes, for every pattern node `v_p`, the *domain*
//! `D(v_p) ⊆ V(G_t)` of target nodes it may be mapped onto:
//!
//! 1. **Label/degree filter** — `v_t ∈ D(v_p)` requires `lab(v_t) = lab(v_p)`,
//!    `deg⁻(v_t) ≥ deg⁻(v_p)` and `deg⁺(v_t) ≥ deg⁺(v_p)`.
//! 2. **Arc-consistency sweep** — `v_t` is removed from `D(v_p)` if some edge
//!    `(v_p, w_p)` (or `(w_p, v_p)`) of the pattern has no compatible supporting
//!    edge `(v_t, w_t)` with `w_t ∈ D(w_p)` in the target.  When pattern and
//!    target are both symmetric ([`Graph::is_symmetric`]) every in-edge of
//!    either is also an out-edge, so the sweep checks out-edges only.
//!
//! Domains are bitmasks over the target nodes ([`sge_util::Bitset`]), exactly
//! as in the original implementation, so the forward-checking improvement of
//! this paper (removing a singleton's value from every other domain) is a
//! word-parallel operation.

use sge_graph::{Graph, NodeId};
use sge_util::Bitset;

/// Per-pattern-node candidate sets over the target nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Domains {
    sets: Vec<Bitset>,
    target_nodes: usize,
}

impl Domains {
    /// Computes domains for `pattern` against `target`: label + degree filter
    /// followed by one arc-consistency sweep over the pattern edges, their
    /// out-edges only when both graphs are symmetric.
    ///
    /// One pass over the target collects the nodes of each pattern label, so
    /// the degree filter reads only the nodes of its own label.
    pub fn compute(pattern: &Graph, target: &Graph) -> Domains {
        let mut domains = Self::filtered(pattern, target);
        // Symmetric on both sides, the in-edge checks repeat the out-edge
        // checks: the same edges against the same domains.
        let in_edges = !(pattern.is_symmetric() && target.is_symmetric());
        domains.arc_consistency_sweep(pattern, target, in_edges);
        domains
    }

    /// The label/degree filter alone.
    fn filtered(pattern: &Graph, target: &Graph) -> Domains {
        let np = pattern.num_nodes();
        let nt = target.num_nodes();
        let mut labels = pattern.node_labels().to_vec();
        labels.sort_unstable();
        labels.dedup();
        let mut by_label: Vec<Vec<NodeId>> = vec![Vec::new(); labels.len()];
        for (vt, label) in target.node_labels().iter().enumerate() {
            if let Ok(i) = labels.binary_search(label) {
                by_label[i].push(vt as NodeId);
            }
        }

        let mut sets: Vec<Bitset> = Vec::with_capacity(np);
        for vp in 0..np as NodeId {
            let mut dom = Bitset::new(nt);
            let out_p = pattern.out_degree(vp);
            let in_p = pattern.in_degree(vp);
            let i = labels
                .binary_search(&pattern.label(vp))
                .expect("every pattern label was collected");
            for &vt in &by_label[i] {
                if target.out_degree(vt) >= out_p && target.in_degree(vt) >= in_p {
                    dom.insert(vt as usize);
                }
            }
            sets.push(dom);
        }

        Domains {
            sets,
            target_nodes: nt,
        }
    }

    /// One pass of neighborhood (arc) consistency: drop `v_t` from `D(v_p)`
    /// when some pattern edge incident to `v_p` has no supporting target edge
    /// whose other endpoint lies in the neighbor's domain.  Checks pattern
    /// in-edges only when `in_edges` is set.
    fn arc_consistency_sweep(&mut self, pattern: &Graph, target: &Graph, in_edges: bool) {
        let np = pattern.num_nodes();
        for vp in 0..np as NodeId {
            let mut to_remove: Vec<usize> = Vec::new();
            for vt in self.sets[vp as usize].iter() {
                if !self.supported(pattern, target, vp, vt as NodeId, in_edges) {
                    to_remove.push(vt);
                }
            }
            for vt in to_remove {
                self.sets[vp as usize].remove(vt);
            }
        }
    }

    /// Does `v_t` support every pattern out-edge of `v_p`, and with
    /// `in_edges` every in-edge too?
    fn supported(
        &self,
        pattern: &Graph,
        target: &Graph,
        vp: NodeId,
        vt: NodeId,
        in_edges: bool,
    ) -> bool {
        for e in pattern.out_edges(vp) {
            let wp = e.node;
            let found = target
                .out_edges(vt)
                .iter()
                .any(|te| te.label == e.label && self.sets[wp as usize].contains(te.node as usize));
            if !found {
                return false;
            }
        }
        if !in_edges {
            return true;
        }
        for e in pattern.in_edges(vp) {
            let wp = e.node;
            let found = target
                .in_edges(vt)
                .iter()
                .any(|te| te.label == e.label && self.sets[wp as usize].contains(te.node as usize));
            if !found {
                return false;
            }
        }
        true
    }

    /// Number of target nodes the domains range over.
    pub fn target_nodes(&self) -> usize {
        self.target_nodes
    }

    /// Number of pattern nodes.
    pub fn pattern_nodes(&self) -> usize {
        self.sets.len()
    }

    /// Size of the domain of pattern node `vp`.
    pub fn size(&self, vp: NodeId) -> usize {
        self.sets[vp as usize].count()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, vp: NodeId, vt: NodeId) -> bool {
        self.sets[vp as usize].contains(vt as usize)
    }

    /// The raw bitmask of pattern node `vp`.
    pub fn set(&self, vp: NodeId) -> &Bitset {
        &self.sets[vp as usize]
    }

    /// `true` if some domain is empty — no isomorphic subgraph can exist.
    pub fn any_empty(&self) -> bool {
        self.sets.iter().any(|s| s.is_empty())
    }

    /// Sum of all domain sizes (a measure of remaining search freedom used by
    /// the experiment harness).
    pub fn total_size(&self) -> usize {
        self.sets.iter().map(|s| s.count()).sum()
    }

    /// Forward checking on singleton domains (the FC improvement of the paper).
    ///
    /// Every pattern node with a singleton domain will necessarily be assigned
    /// to that single target node, so — by injectivity — that target node can
    /// be removed from the domain of every *other* pattern node.  Newly created
    /// singletons are processed until a fixpoint is reached.
    ///
    /// Returns `false` if a domain becomes empty (no matches exist) and `true`
    /// otherwise.
    pub fn forward_check(&mut self) -> bool {
        let np = self.sets.len();
        let mut processed = vec![false; np];
        loop {
            // Find an unprocessed singleton.
            let next = (0..np).find(|&vp| !processed[vp] && self.sets[vp].count() == 1);
            let Some(vp) = next else {
                return true;
            };
            processed[vp] = true;
            let forced = self.sets[vp]
                .singleton()
                .expect("count()==1 implies a singleton value");
            for other in 0..np {
                if other == vp {
                    continue;
                }
                if self.sets[other].contains(forced) {
                    self.sets[other].remove(forced);
                    if self.sets[other].is_empty() {
                        return false;
                    }
                }
            }
        }
    }

    /// Domain sizes per pattern node (useful for diagnostics and tests).
    pub fn sizes(&self) -> Vec<usize> {
        self.sets.iter().map(|s| s.count()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, GraphBuilder};
    use sge_util::SplitMix64;

    #[test]
    fn label_and_degree_filter() {
        // Pattern: one node labeled 1 with out-degree 1.
        let mut pb = GraphBuilder::new();
        let a = pb.add_node(1);
        let b = pb.add_node(2);
        pb.add_edge(a, b, 0);
        let pattern = pb.build();

        // Target: node 0 labeled 1 with an out-edge, node 1 labeled 1 without,
        // node 2 labeled 2.
        let mut tb = GraphBuilder::new();
        let t0 = tb.add_node(1);
        let t1 = tb.add_node(1);
        let t2 = tb.add_node(2);
        tb.add_edge(t0, t2, 0);
        let target = tb.build();

        let domains = Domains::compute(&pattern, &target);
        assert!(domains.contains(a, t0));
        assert!(!domains.contains(a, t1), "t1 has out-degree 0 < 1");
        assert!(!domains.contains(a, t2), "t2 has the wrong label");
        assert!(domains.contains(b, t2));
    }

    #[test]
    fn arc_consistency_removes_unsupported_nodes() {
        // Pattern: edge a(1) -> b(2).
        let mut pb = GraphBuilder::new();
        let a = pb.add_node(1);
        let b = pb.add_node(2);
        pb.add_edge(a, b, 0);
        let pattern = pb.build();

        // Target: t0(1) -> t1(3)  (wrong head label) and t2(1) -> t3(2).
        let mut tb = GraphBuilder::new();
        let t0 = tb.add_node(1);
        let t1 = tb.add_node(3);
        let t2 = tb.add_node(1);
        let t3 = tb.add_node(2);
        tb.add_edge(t0, t1, 0);
        tb.add_edge(t2, t3, 0);
        let target = tb.build();

        let domains = Domains::compute(&pattern, &target);
        // t0 passes the degree/label filter but has no out-neighbor in D(b),
        // so the AC sweep must remove it.
        assert!(!domains.contains(a, t0));
        assert!(domains.contains(a, t2));
        assert!(domains.contains(b, t3));
        assert!(!domains.contains(b, t1));
    }

    #[test]
    fn edge_labels_constrain_domains() {
        let mut pb = GraphBuilder::new();
        let a = pb.add_node(0);
        let b = pb.add_node(0);
        pb.add_edge(a, b, 9);
        let pattern = pb.build();

        let mut tb = GraphBuilder::new();
        let t0 = tb.add_node(0);
        let t1 = tb.add_node(0);
        let t2 = tb.add_node(0);
        let t3 = tb.add_node(0);
        tb.add_edge(t0, t1, 9);
        tb.add_edge(t2, t3, 5);
        let target = tb.build();

        let domains = Domains::compute(&pattern, &target);
        assert!(domains.contains(a, t0));
        assert!(
            !domains.contains(a, t2),
            "edge label 5 cannot support pattern edge labeled 9"
        );
    }

    #[test]
    fn domains_never_exclude_actual_matches() {
        // For a pattern extracted from the target (identity embedding), every
        // pattern node's own image must stay in its domain.
        let target = generators::grid(3, 3);
        // Pattern = the subgraph induced on nodes {0,1,3,4} re-indexed.
        let mut pb = GraphBuilder::new();
        pb.add_nodes(4, 0);
        let map = [0u32, 1, 3, 4];
        for (i, &ti) in map.iter().enumerate() {
            for (j, &tj) in map.iter().enumerate() {
                if target.has_edge(ti, tj) {
                    pb.add_edge(i as u32, j as u32, 0);
                }
            }
        }
        let pattern = pb.build();
        let mut domains = Domains::compute(&pattern, &target);
        for (i, &ti) in map.iter().enumerate() {
            assert!(
                domains.contains(i as u32, ti),
                "identity image removed from domain of pattern node {i}"
            );
        }
        assert!(domains.forward_check());
        for (i, &ti) in map.iter().enumerate() {
            // Forward checking may only remove a value if it is forced
            // elsewhere; with symmetric domains here nothing forces removal of
            // the identity images.
            assert!(domains.contains(i as u32, ti));
        }
    }

    #[test]
    fn forward_check_propagates_singletons() {
        // Pattern: two isolated nodes with the same label; target: two nodes of
        // that label. Force a singleton by giving node 0 a degree requirement
        // only one target satisfies.
        let mut pb = GraphBuilder::new();
        let a = pb.add_node(0);
        let b = pb.add_node(0);
        let c = pb.add_node(1);
        pb.add_edge(a, c, 0);
        let pattern = pb.build();

        let mut tb = GraphBuilder::new();
        let t0 = tb.add_node(0); // can host a (has out-edge to label 1)
        let t1 = tb.add_node(0); // can only host b
        let t2 = tb.add_node(1);
        tb.add_edge(t0, t2, 0);
        let target = tb.build();

        let mut domains = Domains::compute(&pattern, &target);
        assert_eq!(domains.size(a), 1);
        assert!(domains.contains(b, t0));
        assert!(domains.contains(b, t1));
        assert!(domains.forward_check());
        // a is forced onto t0, so t0 must have been removed from D(b).
        assert!(!domains.contains(b, t0));
        assert!(domains.contains(b, t1));
        assert_eq!(domains.size(c), 1);
    }

    #[test]
    fn forward_check_detects_contradiction() {
        // Two pattern nodes both forced onto the same single target node.
        let mut pb = GraphBuilder::new();
        pb.add_node(5);
        pb.add_node(5);
        let pattern = pb.build();
        let mut tb = GraphBuilder::new();
        tb.add_node(5);
        let target = tb.build();

        let mut domains = Domains::compute(&pattern, &target);
        assert_eq!(domains.size(0), 1);
        assert_eq!(domains.size(1), 1);
        assert!(!domains.forward_check(), "both nodes need the same image");
    }

    #[test]
    fn empty_domain_detected() {
        let mut pb = GraphBuilder::new();
        pb.add_node(42);
        let pattern = pb.build();
        let target = generators::clique(3, 0);
        let domains = Domains::compute(&pattern, &target);
        assert!(domains.any_empty());
        assert_eq!(domains.total_size(), 0);
    }

    /// A random symmetric graph: up to `2 × nodes` undirected edges
    /// (self-loops included) with labels below 2, nodes with labels below
    /// `labels`.
    fn symmetric_graph(rng: &mut SplitMix64, nodes: usize, labels: usize) -> Graph {
        let mut b = GraphBuilder::new();
        for _ in 0..nodes {
            b.add_node(rng.next_below(labels) as u32);
        }
        for _ in 0..rng.next_below(2 * nodes + 1) {
            let (u, v) = (rng.next_below(nodes), rng.next_below(nodes));
            b.add_undirected_edge(u as NodeId, v as NodeId, rng.next_below(2) as u32);
        }
        b.build()
    }

    #[test]
    fn a_symmetric_pair_sweeps_out_edges_to_the_same_domains() {
        let mut rng = SplitMix64::new(0x5EED_D0E5);
        for round in 0..300 {
            let nt = 1 + rng.next_below(40);
            let labels = 1 + rng.next_below(3);
            let target = symmetric_graph(&mut rng, nt, labels);
            let np = 1 + rng.next_below(6);
            let pattern = symmetric_graph(&mut rng, np, labels);
            assert!(pattern.is_symmetric() && target.is_symmetric());
            let mut both = Domains::filtered(&pattern, &target);
            both.arc_consistency_sweep(&pattern, &target, true);
            assert_eq!(Domains::compute(&pattern, &target), both, "round {round}");
        }
    }

    #[test]
    fn sizes_and_accessors() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::directed_path(4, 0);
        let domains = Domains::compute(&pattern, &target);
        assert_eq!(domains.pattern_nodes(), 2);
        assert_eq!(domains.target_nodes(), 4);
        assert_eq!(domains.sizes().len(), 2);
        // Pattern node 0 (has out-edge) cannot map to the last target node.
        assert!(!domains.contains(0, 3));
        assert!(domains.set(0).count() > 0);
    }
}
