//! The line-vector text parser and the sort-based CSR build that the
//! one-pass parser and the counting-sort build replaced, kept as the
//! reference the property tests diff them against.  Apart from building a
//! [`ReferenceGraph`] (the test cannot construct a `Graph`), the code is
//! the replaced code as it was.

#![allow(dead_code)]

use sge_graph::io::ParseError;
use sge_graph::{EdgeRef, Graph, Label, NodeId, DEFAULT_EDGE_LABEL};
use std::collections::HashMap;

/// The CSR arrays a `Graph` holds, built by [`ReferenceBuilder::build`].
#[derive(Debug)]
pub struct ReferenceGraph {
    node_labels: Vec<Label>,
    out_offsets: Vec<u32>,
    out_edges: Vec<EdgeRef>,
    in_offsets: Vec<u32>,
    in_edges: Vec<EdgeRef>,
    num_edges: usize,
    name: String,
}

impl ReferenceGraph {
    /// Panics unless `graph` holds exactly these arrays: the same name,
    /// labels and edge count, and the same out- and in-list of every node.
    pub fn assert_same(&self, graph: &Graph, context: &str) {
        assert_eq!(graph.name(), self.name, "name: {context}");
        assert_eq!(
            graph.node_labels(),
            &self.node_labels[..],
            "labels: {context}"
        );
        assert_eq!(graph.num_edges(), self.num_edges, "edges: {context}");
        for v in 0..self.node_labels.len() {
            let out =
                &self.out_edges[self.out_offsets[v] as usize..self.out_offsets[v + 1] as usize];
            let inn = &self.in_edges[self.in_offsets[v] as usize..self.in_offsets[v + 1] as usize];
            assert_eq!(
                graph.out_edges(v as NodeId),
                out,
                "out-list of {v}: {context}"
            );
            assert_eq!(
                graph.in_edges(v as NodeId),
                inn,
                "in-list of {v}: {context}"
            );
        }
    }
}

/// The replaced `GraphBuilder`: edges as tuples, sorted at build time.
#[derive(Clone, Debug, Default)]
pub struct ReferenceBuilder {
    node_labels: Vec<Label>,
    edges: Vec<(NodeId, NodeId, Label)>,
    name: String,
}

impl ReferenceBuilder {
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        ReferenceBuilder {
            node_labels: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            name: String::new(),
        }
    }

    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    pub fn add_node(&mut self, label: Label) -> NodeId {
        let id = self.node_labels.len() as NodeId;
        self.node_labels.push(label);
        id
    }

    pub fn add_edge(&mut self, u: NodeId, v: NodeId, label: Label) {
        let n = self.node_labels.len() as NodeId;
        assert!(
            u < n && v < n,
            "edge ({u}, {v}) references unknown node (n={n})"
        );
        self.edges.push((u, v, label));
    }

    /// Finalizes the CSR structure.
    pub fn build(self) -> ReferenceGraph {
        let n = self.node_labels.len();
        let mut edges = self.edges;
        // Sort by (tail, head) and deduplicate parallel edges (first label wins,
        // as in the original RI loader which ignores repeated bonds).
        edges.sort_by_key(|&(u, v, _)| (u, v));
        edges.dedup_by_key(|&mut (u, v, _)| (u, v));

        let mut out_offsets = vec![0u32; n + 1];
        for &(u, _, _) in &edges {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let out_edges: Vec<EdgeRef> = edges
            .iter()
            .map(|&(_, v, l)| EdgeRef { node: v, label: l })
            .collect();

        // In-edges: bucket by head, then sort each bucket by tail id.
        let mut in_offsets = vec![0u32; n + 1];
        for &(_, v, _) in &edges {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_edges = vec![EdgeRef { node: 0, label: 0 }; edges.len()];
        for &(u, v, l) in &edges {
            let slot = cursor[v as usize] as usize;
            in_edges[slot] = EdgeRef { node: u, label: l };
            cursor[v as usize] += 1;
        }
        for v in 0..n {
            let lo = in_offsets[v] as usize;
            let hi = in_offsets[v + 1] as usize;
            in_edges[lo..hi].sort_unstable_by_key(|e| e.node);
        }

        ReferenceGraph {
            node_labels: self.node_labels,
            out_offsets,
            out_edges,
            in_offsets,
            in_edges,
            num_edges: edges.len(),
            name: self.name,
        }
    }
}

fn malformed(line: usize, message: impl Into<String>) -> ParseError {
    ParseError::Malformed {
        line,
        message: message.into(),
    }
}

/// The replaced `parse_graph_with_interner`: a vector of every non-blank
/// line, `split_whitespace` per edge.
pub fn parse_graph_with_interner(
    text: &str,
    interner: &mut HashMap<String, u32>,
) -> Result<ReferenceGraph, ParseError> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(idx, line)| (idx + 1, line.trim()))
        .filter(|(_, line)| !line.is_empty())
        .collect();
    // Truncation errors point at the last line the input actually has.
    let last_line = lines.last().map(|&(no, _)| no).unwrap_or(0);
    let mut cursor = 0usize;
    let next = |cursor: &mut usize| -> Option<(usize, &str)> {
        let item = lines.get(*cursor).copied();
        *cursor += 1;
        item
    };

    let (first_no, first) = next(&mut cursor).ok_or_else(|| malformed(0, "empty input"))?;
    let (name, node_count_line) = if let Some(stripped) = first.strip_prefix('#') {
        let line = next(&mut cursor).ok_or_else(|| malformed(first_no, "missing node count"))?;
        (stripped.to_string(), line)
    } else {
        (String::new(), (first_no, first))
    };

    let (line_no, count_text) = node_count_line;
    let node_count: usize = count_text
        .parse()
        .map_err(|_| malformed(line_no, format!("invalid node count '{count_text}'")))?;
    // Each node needs its own label line; reject impossible counts before
    // reserving any capacity for them.
    if node_count > lines.len() - cursor {
        return Err(malformed(
            last_line,
            "unexpected end of file in node labels",
        ));
    }

    let mut builder = ReferenceBuilder::with_capacity(node_count, 0).name(name);
    for _ in 0..node_count {
        let (_, label_text) = next(&mut cursor)
            .ok_or_else(|| malformed(last_line, "unexpected end of file in node labels"))?;
        let next_id = interner.len() as u32;
        let label = *interner.entry(label_text.to_string()).or_insert(next_id);
        builder.add_node(label);
    }

    let (line_no, edge_count_text) =
        next(&mut cursor).ok_or_else(|| malformed(last_line, "missing edge count"))?;
    let edge_count: usize = edge_count_text
        .parse()
        .map_err(|_| malformed(line_no, format!("invalid edge count '{edge_count_text}'")))?;
    if edge_count > lines.len() - cursor {
        return Err(malformed(last_line, "unexpected end of file in edge list"));
    }

    for _ in 0..edge_count {
        let (line_no, edge_text) = next(&mut cursor)
            .ok_or_else(|| malformed(last_line, "unexpected end of file in edge list"))?;
        let mut parts = edge_text.split_whitespace();
        let tail: NodeId = parts
            .next()
            .ok_or_else(|| malformed(line_no, "missing edge tail"))?
            .parse()
            .map_err(|_| malformed(line_no, "invalid edge tail"))?;
        let head: NodeId = parts
            .next()
            .ok_or_else(|| malformed(line_no, "missing edge head"))?
            .parse()
            .map_err(|_| malformed(line_no, "invalid edge head"))?;
        let label = match parts.next() {
            Some(text) => text
                .parse()
                .map_err(|_| malformed(line_no, "invalid edge label"))?,
            None => DEFAULT_EDGE_LABEL,
        };
        if tail as usize >= node_count || head as usize >= node_count {
            return Err(malformed(
                line_no,
                format!("edge ({tail}, {head}) references a node >= {node_count}"),
            ));
        }
        builder.add_edge(tail, head, label);
    }

    Ok(builder.build())
}
