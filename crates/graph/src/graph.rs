//! The immutable CSR graph used by every matcher in the workspace.

/// Node identifier. Targets in the paper's collections have at most ~33k nodes,
/// so 32 bits keep adjacency arrays and mappings compact.
pub type NodeId = u32;

/// Node / edge label. Labels are interned small integers; equality is the
/// compatibility relation (the paper assumes strict label equality).
pub type Label = u32;

/// Label used when a graph is "unlabeled" on its edges.
pub const DEFAULT_EDGE_LABEL: Label = 0;

/// A directed labeled edge as seen from one endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeRef {
    /// The other endpoint (head for out-edges, tail for in-edges).
    pub node: NodeId,
    /// The edge label.
    pub label: Label,
}

/// An immutable directed graph with node and edge labels, stored as two CSR
/// adjacency structures (out-edges and in-edges) with neighbor lists sorted by
/// node id.
///
/// Construct via [`crate::GraphBuilder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    pub(crate) node_labels: Vec<Label>,
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_edges: Vec<EdgeRef>,
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_edges: Vec<EdgeRef>,
    pub(crate) num_edges: usize,
    /// Whether every edge `(u, v, l)` has its reverse `(v, u, l)`, recorded
    /// by [`crate::GraphBuilder::build`].
    pub(crate) symmetric: bool,
    pub(crate) name: String,
}

impl Graph {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// A human-readable name (file stem or generator description).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the graph name (used by dataset generators and the io module).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Label of node `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        self.node_labels[v as usize]
    }

    /// All node labels, indexed by node id.
    #[inline]
    pub fn node_labels(&self) -> &[Label] {
        &self.node_labels
    }

    /// Outgoing edges of `v`, sorted by head node id.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeRef] {
        let lo = self.out_offsets[v as usize] as usize;
        let hi = self.out_offsets[v as usize + 1] as usize;
        &self.out_edges[lo..hi]
    }

    /// Incoming edges of `v`, sorted by tail node id.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeRef] {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        &self.in_edges[lo..hi]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_edges(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_edges(v).len()
    }

    /// Total degree (in + out) of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Label of the directed edge `(u, v)` if it exists.
    ///
    /// Binary search over the (sorted) shorter of `u`'s out-list and `v`'s
    /// in-list.
    #[inline]
    pub fn edge_label(&self, u: NodeId, v: NodeId) -> Option<Label> {
        let out = self.out_edges(u);
        let inn = self.in_edges(v);
        if out.len() <= inn.len() {
            out.binary_search_by_key(&v, |e| e.node)
                .ok()
                .map(|idx| out[idx].label)
        } else {
            inn.binary_search_by_key(&u, |e| e.node)
                .ok()
                .map(|idx| inn[idx].label)
        }
    }

    /// Whether every edge `(u, v, l)` has its reverse `(v, u, l)`: how
    /// undirected graphs are stored ([`crate::GraphBuilder::add_undirected_edge`]).
    /// Then every node's in-list equals its out-list, so a search may read
    /// either.  Recorded once when the graph is built.
    #[inline]
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Whether the directed edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_label(u, v).is_some()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over all directed edges as `(tail, head, label)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Label)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out_edges(u).iter().map(move |e| (u, e.node, e.label)))
    }

    /// The distinct neighbors of `v` ignoring edge direction, sorted and
    /// deduplicated.  Convenience wrapper over
    /// [`Graph::undirected_neighbors_into`]; callers in loops should reuse a
    /// buffer through the `_into` variant instead of allocating per call.
    pub fn undirected_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let mut result = Vec::new();
        self.undirected_neighbors_into(v, &mut result);
        result
    }

    /// Fills `out` with the distinct neighbors of `v` ignoring edge
    /// direction, sorted and deduplicated, reusing `out`'s allocation.
    ///
    /// Both CSR adjacency lists are already sorted by node id, so this is a
    /// linear merge — no sort, and no allocation beyond growing `out` once
    /// to the neighborhood size.
    pub fn undirected_neighbors_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let a = self.out_edges(v);
        let b = self.in_edges(v);
        out.reserve(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => {
                    if x.node <= y.node {
                        i += 1;
                        if x.node == y.node {
                            j += 1;
                        }
                        x.node
                    } else {
                        j += 1;
                        y.node
                    }
                }
                (Some(x), None) => {
                    i += 1;
                    x.node
                }
                (None, Some(y)) => {
                    j += 1;
                    y.node
                }
                (None, None) => unreachable!("loop condition guarantees one side"),
            };
            if out.last() != Some(&next) {
                out.push(next);
            }
        }
    }

    /// Whether `u` and `v` are adjacent in either direction.
    #[inline]
    pub fn adjacent(&self, u: NodeId, v: NodeId) -> bool {
        self.has_edge(u, v) || self.has_edge(v, u)
    }

    /// Maximum node label value plus one (0 for an empty graph); a convenient
    /// bound for label-indexed tables.
    pub fn label_bound(&self) -> usize {
        self.node_labels
            .iter()
            .copied()
            .max()
            .map_or(0, |l| l as usize + 1)
    }

    /// Whether the graph, viewed as undirected, is connected.  Pattern graphs
    /// in the paper's collections are connected; the matcher falls back to a
    /// full target scan for positions without an ordered parent, so this is a
    /// diagnostic rather than a precondition.
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut visited = 1;
        let mut neighbors = Vec::new();
        while let Some(v) = stack.pop() {
            self.undirected_neighbors_into(v, &mut neighbors);
            for &w in &neighbors {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    visited += 1;
                    stack.push(w);
                }
            }
        }
        visited == n
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;

    #[test]
    fn triangle_adjacency_and_degrees() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(1);
        let c = b.add_node(2);
        let d = b.add_node(3);
        b.add_edge(a, c, 10);
        b.add_edge(c, d, 20);
        b.add_edge(d, a, 30);
        let g = b.build();

        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.label(a), 1);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.edge_label(a, c), Some(10));
        assert_eq!(g.edge_label(c, a), None);
        assert!(g.has_edge(d, a));
        assert!(g.adjacent(a, d));
        assert!(!g.adjacent(a, a));
        assert_eq!(g.undirected_neighbors(a), vec![c, d]);
        assert!(g.is_connected());
    }

    #[test]
    fn edges_iterator_covers_all_edges() {
        let mut b = GraphBuilder::new();
        for _ in 0..4 {
            b.add_node(0);
        }
        b.add_edge(0, 1, 0);
        b.add_edge(0, 2, 0);
        b.add_edge(3, 0, 7);
        let g = b.build();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1, 0), (0, 2, 0), (3, 0, 7)]);
    }

    #[test]
    fn undirected_neighbors_into_matches_allocating_variant() {
        let mut b = GraphBuilder::new();
        for _ in 0..5 {
            b.add_node(0);
        }
        b.add_edge(0, 0, 1); // self-loop: appears in both lists, deduped once
        b.add_edge(0, 2, 0);
        b.add_edge(3, 0, 0);
        b.add_edge(0, 4, 0);
        b.add_edge(4, 0, 0); // reciprocal pair still yields one neighbor
        let g = b.build();
        let mut buffer = vec![9, 9, 9]; // stale contents must be cleared
        g.undirected_neighbors_into(0, &mut buffer);
        assert_eq!(buffer, vec![0, 2, 3, 4]);
        assert_eq!(g.undirected_neighbors(0), buffer);
        g.undirected_neighbors_into(1, &mut buffer);
        assert!(buffer.is_empty());
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut b = GraphBuilder::new();
        for _ in 0..4 {
            b.add_node(0);
        }
        b.add_edge(0, 1, 0);
        b.add_edge(2, 3, 0);
        let g = b.build();
        assert!(!g.is_connected());
    }

    #[test]
    fn empty_graph_is_well_formed() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_connected());
        assert_eq!(g.label_bound(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn label_bound_tracks_max_label() {
        let mut b = GraphBuilder::new();
        b.add_node(5);
        b.add_node(2);
        let g = b.build();
        assert_eq!(g.label_bound(), 6);
    }
}
