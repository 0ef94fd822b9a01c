//! Mutable construction of [`Graph`]s.

use crate::graph::{EdgeRef, Graph, Label, NodeId};

/// Incremental builder producing an immutable CSR [`Graph`].
///
/// Duplicate directed edges are collapsed (the first label wins); self-loops
/// are allowed since some biochemical graphs contain them, but the RI search
/// never maps two pattern nodes onto one target node, so they only matter for
/// degree statistics.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    node_labels: Vec<Label>,
    edges: Vec<(NodeId, NodeId, Label)>,
    name: String,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Creates a builder pre-sized for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            node_labels: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            name: String::new(),
        }
    }

    /// Names the resulting graph.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Adds a node with the given label and returns its id.
    pub fn add_node(&mut self, label: Label) -> NodeId {
        let id = self.node_labels.len() as NodeId;
        self.node_labels.push(label);
        id
    }

    /// Adds `count` nodes all carrying `label`; returns the id of the first.
    pub fn add_nodes(&mut self, count: usize, label: Label) -> NodeId {
        let first = self.node_labels.len() as NodeId;
        self.node_labels.extend(std::iter::repeat_n(label, count));
        first
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Adds a directed edge `(u, v)` with a label.
    ///
    /// # Panics
    /// Panics if either endpoint has not been added.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, label: Label) {
        let n = self.node_labels.len() as NodeId;
        assert!(
            u < n && v < n,
            "edge ({u}, {v}) references unknown node (n={n})"
        );
        self.edges.push((u, v, label));
    }

    /// Adds the pair of directed edges `(u, v)` and `(v, u)`, both labeled
    /// `label` — the usual encoding of an undirected biochemical bond.
    pub fn add_undirected_edge(&mut self, u: NodeId, v: NodeId, label: Label) {
        self.add_edge(u, v, label);
        if u != v {
            self.add_edge(v, u, label);
        }
    }

    /// Reserves room for at least `additional` more edges.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// Finalizes the CSR structure.
    ///
    /// Two counting sorts (count degrees, prefix-sum, scatter) order the
    /// edges, first by head, then stably by tail, so each tail's list comes
    /// out sorted by head with parallel edges in the order they were added.
    /// Each list is then de-duplicated in place: the first label of a
    /// parallel edge wins, as in the original RI loader which ignores
    /// repeated bonds.  The in-lists are filled by scanning the tails in
    /// order, so they come out sorted by tail.
    pub fn build(self) -> Graph {
        let n = self.node_labels.len();
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for &(u, v, _) in &self.edges {
            out_offsets[u as usize + 1] += 1;
            in_offsets[v as usize + 1] += 1;
        }
        prefix_sum(&mut out_offsets);
        prefix_sum(&mut in_offsets);

        let mut cursor = in_offsets.clone();
        let mut by_head = vec![EdgeRef { node: 0, label: 0 }; self.edges.len()];
        for &(u, v, label) in &self.edges {
            let slot = &mut cursor[v as usize];
            by_head[*slot as usize] = EdgeRef { node: u, label };
            *slot += 1;
        }
        drop(self.edges);
        let mut out_edges = vec![EdgeRef { node: 0, label: 0 }; by_head.len()];
        transpose(&in_offsets, &by_head, &out_offsets, &mut out_edges);

        // Compact the lists towards the front: `out_offsets[u]` is read
        // before it is moved.
        let mut kept = 0usize;
        for u in 0..n {
            let (lo, hi) = (out_offsets[u] as usize, out_offsets[u + 1] as usize);
            let start = kept;
            out_offsets[u] = start as u32;
            for i in lo..hi {
                let edge = out_edges[i];
                if kept == start || out_edges[kept - 1].node != edge.node {
                    out_edges[kept] = edge;
                    kept += 1;
                }
            }
        }
        out_offsets[n] = kept as u32;
        out_edges.truncate(kept);
        out_edges.shrink_to_fit();

        in_offsets.fill(0);
        for e in &out_edges {
            in_offsets[e.node as usize + 1] += 1;
        }
        prefix_sum(&mut in_offsets);
        let mut in_edges = by_head;
        in_edges.truncate(kept);
        in_edges.shrink_to_fit();
        transpose(&out_offsets, &out_edges, &in_offsets, &mut in_edges);
        let symmetric = out_offsets == in_offsets && out_edges == in_edges;

        Graph {
            node_labels: self.node_labels,
            out_offsets,
            out_edges,
            in_offsets,
            in_edges,
            num_edges: kept,
            symmetric,
            name: self.name,
        }
    }
}

/// Turns per-node counts at `offsets[v + 1]` into CSR start offsets.
fn prefix_sum(offsets: &mut [u32]) {
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
}

/// Turns the CSR `lists` around: entry `e` of node `v`'s list becomes
/// `EdgeRef { node: v, label: e.label }` in `e.node`'s list of `into`,
/// whose lists start at `into_offsets`.  The nodes are scanned in order, so
/// every list of `into` comes out sorted by node, equal nodes in the order
/// of `lists`.
fn transpose(offsets: &[u32], lists: &[EdgeRef], into_offsets: &[u32], into: &mut [EdgeRef]) {
    let mut cursor = into_offsets.to_vec();
    for (v, window) in offsets.windows(2).enumerate() {
        for e in &lists[window[0] as usize..window[1] as usize] {
            let slot = &mut cursor[e.node as usize];
            into[*slot as usize] = EdgeRef {
                node: v as NodeId,
                label: e.label,
            };
            *slot += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_edges_are_collapsed() {
        let mut b = GraphBuilder::new();
        b.add_nodes(2, 0);
        b.add_edge(0, 1, 5);
        b.add_edge(0, 1, 9);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_label(0, 1), Some(5));
    }

    #[test]
    fn undirected_edge_adds_both_directions() {
        let mut b = GraphBuilder::new();
        b.add_nodes(2, 0);
        b.add_undirected_edge(0, 1, 3);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_label(0, 1), Some(3));
        assert_eq!(g.edge_label(1, 0), Some(3));
    }

    #[test]
    fn self_loop_undirected_added_once() {
        let mut b = GraphBuilder::new();
        b.add_nodes(1, 0);
        b.add_undirected_edge(0, 0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 0));
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let mut b = GraphBuilder::new();
        b.add_nodes(5, 0);
        b.add_edge(0, 4, 0);
        b.add_edge(0, 2, 0);
        b.add_edge(0, 3, 0);
        b.add_edge(1, 0, 0);
        b.add_edge(4, 0, 0);
        let g = b.build();
        let out: Vec<u32> = g.out_edges(0).iter().map(|e| e.node).collect();
        assert_eq!(out, vec![2, 3, 4]);
        let inn: Vec<u32> = g.in_edges(0).iter().map(|e| e.node).collect();
        assert_eq!(inn, vec![1, 4]);
    }

    #[test]
    fn named_builder_propagates_name() {
        let g = GraphBuilder::new().name("target-1").build();
        assert_eq!(g.name(), "target-1");
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn edge_to_unknown_node_panics() {
        let mut b = GraphBuilder::new();
        b.add_node(0);
        b.add_edge(0, 1, 0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = GraphBuilder::with_capacity(10, 20);
        let u = b.add_node(1);
        let v = b.add_node(2);
        b.add_edge(u, v, 0);
        let g = b.build();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
    }
}
