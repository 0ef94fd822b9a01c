//! Plain-text graph exchange format.
//!
//! The original RI distribution ships its biochemical collections as `.gfu`
//! (undirected) and `.gfd` (directed) text files.  This module implements a
//! directed variant of that format so real collections can be dropped in, and
//! so the synthetic collections generated by `sge-datasets` can be persisted
//! and inspected:
//!
//! ```text
//! #graph-name
//! <number of nodes>
//! <label of node 0>
//! <label of node 1>
//! ...
//! <number of edges>
//! <tail> <head> [<edge label>]
//! ...
//! ```
//!
//! Node labels are strings; they are interned to dense integer ids in
//! first-seen order.  An optional third column per edge line carries an
//! integer edge label (0 when omitted).
//!
//! What the reader accepts:
//! - lines end in `\n` or `\r\n`; blank and whitespace-only lines are
//!   skipped, and every line is trimmed of Unicode whitespace at both ends;
//! - the name line is optional; the name is everything after the `#`;
//! - a count is the whole line, an optional `+` and ASCII digits;
//! - a node label is the whole trimmed line, inner blanks included;
//! - edge fields are separated by any run of Unicode whitespace (spaces,
//!   tabs, U+00A0, U+3000, …); each is an optional `+` and ASCII digits
//!   that fit a `u32`; fields after the third are ignored;
//! - lines after the last edge are not read;
//! - errors name their 1-based line.  A count above the number of lines
//!   left is reported at the last line, before any bad line after it.
//!
//! The reader makes one pass over the text and keeps no vector of its
//! lines.  An edge line is first split at ASCII blanks as it stands; only
//! when that does not parse (a blank line, Unicode whitespace, a bad field)
//! is it trimmed and split at Unicode whitespace.  [`GraphBuilder::build`]
//! then orders the edges with counting sorts.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, Label, NodeId, DEFAULT_EDGE_LABEL};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::path::Path;

/// Errors produced by the text format parser.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural / syntactic problem with a line.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Io(err) => write!(f, "i/o error: {err}"),
            ParseError::Malformed { line, message } => {
                write!(f, "malformed graph file at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<std::io::Error> for ParseError {
    fn from(err: std::io::Error) -> Self {
        ParseError::Io(err)
    }
}

fn malformed(line: usize, message: impl Into<String>) -> ParseError {
    ParseError::Malformed {
        line,
        message: message.into(),
    }
}

/// Parses a graph from the text format described in the module docs.
///
/// Returns the graph together with the label-interning table (string label →
/// dense id) so callers can map labels back to their original names.
///
/// When parsing a *pattern* and a *target* that must agree on labels, use
/// [`parse_graph_with_interner`] with a shared interner instead — separate
/// calls to this function intern labels in first-seen order, which is only
/// consistent within a single file.
pub fn parse_graph(text: &str) -> Result<(Graph, HashMap<String, u32>), ParseError> {
    let mut interner = HashMap::new();
    let graph = parse_graph_with_interner(text, &mut interner)?;
    Ok((graph, interner))
}

/// Parses a graph, interning string labels through the caller-supplied table
/// so that several files (e.g. a pattern and its target) share one consistent
/// label numbering — the way the original RI loader treats its `.gfu`/`.gfd`
/// databases.
///
/// The text is read front to back with no vector of its lines: a label
/// allocates its `String` only the first time the interner sees it, and
/// capacity is reserved from the counts, never beyond what the remaining
/// bytes can hold.  The labels are interned once every label line is known
/// to be there, so a node count above the lines left adds nothing to
/// `interner`; an error after the labels (in the edge count or an edge)
/// leaves them in it, and a caller that must not keep them rolls it back.
pub fn parse_graph_with_interner(
    text: &str,
    interner: &mut HashMap<String, u32>,
) -> Result<Graph, ParseError> {
    let mut lines = Lines::new(text);
    let (first_no, first) = lines.next().ok_or_else(|| malformed(0, "empty input"))?;
    let (name, (line_no, count_text)) = match first.strip_prefix('#') {
        Some(name) => {
            let line = lines
                .next()
                .ok_or_else(|| malformed(first_no, "missing node count"))?;
            (name, line)
        }
        None => ("", (first_no, first)),
    };
    let node_count: usize = count_text
        .parse()
        .map_err(|_| malformed(line_no, format!("invalid node count '{count_text}'")))?;

    // Walk past the labels first: they are interned only once all are there.
    let label_lines = lines;
    for _ in 0..node_count {
        // Truncation errors point at the last line the input actually has.
        lines
            .next()
            .ok_or_else(|| malformed(lines.last, "unexpected end of file in node labels"))?;
    }
    let mut builder = GraphBuilder::with_capacity(node_count, 0).name(name);
    for (_, label_text) in label_lines.take(node_count) {
        let label = match interner.get(label_text) {
            Some(&label) => label,
            None => {
                let label = interner.len() as u32;
                interner.insert(label_text.to_owned(), label);
                label
            }
        };
        builder.add_node(label);
    }

    let (line_no, edge_count_text) = lines
        .next()
        .ok_or_else(|| malformed(lines.last, "missing edge count"))?;
    let edge_count: usize = edge_count_text
        .parse()
        .map_err(|_| malformed(line_no, format!("invalid edge count '{edge_count_text}'")))?;
    // An edge line takes at least four bytes with its line break.
    builder.reserve_edges(edge_count.min(lines.rest.len() / 4 + 1));

    for parsed in 0..edge_count {
        if let Some((tail, head, label)) = lines.next_plain_edge(node_count) {
            builder.add_edge(tail, head, label);
            continue;
        }
        let (line_no, edge_text) = lines
            .next()
            .ok_or_else(|| malformed(lines.last, "unexpected end of file in edge list"))?;
        match parse_edge(line_no, edge_text.split_whitespace(), node_count) {
            Ok((tail, head, label)) => builder.add_edge(tail, head, label),
            Err(err) => {
                // A count above the lines left is reported before any bad
                // line: count what is left from this line on.
                let mut rest = lines;
                let left = 1 + rest.by_ref().count();
                return Err(if edge_count - parsed > left {
                    malformed(rest.last, "unexpected end of file in edge list")
                } else {
                    err
                });
            }
        }
    }

    Ok(builder.build())
}

/// The non-blank lines of a text, trimmed, with their 1-based line numbers,
/// read one at a time.
#[derive(Clone, Copy)]
struct Lines<'t> {
    /// The text after the last line read.
    rest: &'t str,
    /// Number of the last line read, blank or not.
    number: usize,
    /// Number of the last non-blank line read (0 before the first).
    last: usize,
}

impl<'t> Lines<'t> {
    fn new(text: &'t str) -> Self {
        Lines {
            rest: text,
            number: 0,
            last: 0,
        }
    }

    /// Reads the next line when [`parse_edge`] accepts it untrimmed and
    /// split at ASCII blanks, the shape of nearly every edge line.  Reads
    /// nothing otherwise (a blank line, Unicode whitespace, a bad field),
    /// and the line then goes the general way.  Both ways agree: a field
    /// that parses holds no whitespace of either kind.
    fn next_plain_edge(&mut self, node_count: usize) -> Option<(NodeId, NodeId, Label)> {
        let (line, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
        let edge = parse_edge(self.number + 1, line.split_ascii_whitespace(), node_count).ok()?;
        self.rest = rest;
        self.number += 1;
        self.last = self.number;
        Some(edge)
    }
}

impl<'t> Iterator for Lines<'t> {
    type Item = (usize, &'t str);

    fn next(&mut self) -> Option<(usize, &'t str)> {
        while !self.rest.is_empty() {
            let (line, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
            self.rest = rest;
            self.number += 1;
            // Trimming drops a `\r` before the line break with the rest of
            // the surrounding whitespace.
            let line = line.trim();
            if !line.is_empty() {
                self.last = self.number;
                return Some((self.number, line));
            }
        }
        None
    }
}

/// Parses one edge line, given as its fields: `<tail> <head> [<edge
/// label>]`, extra fields ignored, endpoints below `node_count`.
fn parse_edge<'a>(
    line_no: usize,
    mut parts: impl Iterator<Item = &'a str>,
    node_count: usize,
) -> Result<(NodeId, NodeId, Label), ParseError> {
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
    Ok((tail, head, label))
}

/// Serializes a graph to the text format (labels written as their integer ids).
pub fn write_graph(graph: &Graph) -> String {
    let mut out = String::new();
    if !graph.name().is_empty() {
        out.push('#');
        out.push_str(graph.name());
        out.push('\n');
    }
    write_body_into(graph, &mut out);
    out
}

/// Serializes just the body of the text format — node count, labels, edge
/// count, edges — omitting the optional `#name` line.  This is the
/// *canonical* form of a graph: two graphs with the same structure and
/// labels produce identical bodies regardless of how they were named, which
/// is what cache keys and structural comparisons should hash.
pub fn write_graph_body(graph: &Graph) -> String {
    let mut out = String::new();
    write_body_into(graph, &mut out);
    out
}

/// Appends the body of the text format to `out`.
fn write_body_into(graph: &Graph, out: &mut String) {
    // Room for short labels; the string grows if they are longer.
    out.reserve(8 + 2 * graph.num_nodes() + 8 * graph.num_edges());
    // Writing to a `String` cannot fail.
    let _ = writeln!(out, "{}", graph.num_nodes());
    for label in graph.node_labels() {
        let _ = writeln!(out, "{label}");
    }
    let _ = writeln!(out, "{}", graph.num_edges());
    for (u, v, l) in graph.edges() {
        let _ = writeln!(out, "{u} {v} {l}");
    }
}

/// Reads a graph from a file in the text format.
pub fn read_graph_file(path: impl AsRef<Path>) -> Result<Graph, ParseError> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_graph(&text)?.0)
}

/// Reads a graph from a file, interning its string labels through the
/// caller-supplied table.
///
/// This is the loading primitive for registries that keep many graphs (and
/// later parse query patterns against them): every graph funneled through the
/// same interner agrees on the label numbering, exactly like pattern/target
/// pairs loaded from one RI database.
pub fn read_graph_file_with_interner(
    path: impl AsRef<Path>,
    interner: &mut HashMap<String, u32>,
) -> Result<Graph, ParseError> {
    let text = std::fs::read_to_string(path)?;
    parse_graph_with_interner(&text, interner)
}

/// Writes a graph to a file in the text format.
pub fn write_graph_file(graph: &Graph, path: impl AsRef<Path>) -> Result<(), std::io::Error> {
    std::fs::write(path, write_graph(graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip_through_text_format() {
        let g = generators::clique(4, 3);
        let text = write_graph(&g);
        let (parsed, _interner) = parse_graph(&text).expect("parse");
        assert_eq!(parsed.num_nodes(), g.num_nodes());
        assert_eq!(parsed.num_edges(), g.num_edges());
        for (u, v, _) in g.edges() {
            assert!(parsed.has_edge(u, v));
        }
        assert_eq!(parsed.name(), "clique-4");
    }

    #[test]
    fn parses_string_labels_with_interning() {
        let text = "#mol\n3\nC\nN\nC\n2\n0 1\n1 2 7\n";
        let (g, interner) = parse_graph(text).expect("parse");
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.label(0), g.label(2));
        assert_ne!(g.label(0), g.label(1));
        assert_eq!(interner.len(), 2);
        assert_eq!(g.edge_label(1, 2), Some(7));
        assert_eq!(g.edge_label(0, 1), Some(DEFAULT_EDGE_LABEL));
    }

    #[test]
    fn missing_name_is_accepted() {
        let text = "2\n0\n0\n1\n0 1\n";
        let (g, _) = parse_graph(text).expect("parse");
        assert_eq!(g.name(), "");
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn error_on_bad_node_count() {
        let err = parse_graph("#x\nnot-a-number\n").unwrap_err();
        assert!(matches!(err, ParseError::Malformed { .. }));
        assert!(err.to_string().contains("invalid node count"));
    }

    #[test]
    fn error_on_truncated_labels() {
        let err = parse_graph("3\n0\n0\n").unwrap_err();
        assert!(err.to_string().contains("unexpected end of file"));
    }

    #[test]
    fn error_on_out_of_range_edge() {
        let err = parse_graph("2\n0\n0\n1\n0 5\n").unwrap_err();
        assert!(err.to_string().contains("references a node"));
    }

    #[test]
    fn error_on_empty_input() {
        assert!(parse_graph("").is_err());
        assert!(parse_graph("   \n  \n").is_err());
    }

    #[test]
    fn the_body_is_written_as_format_writes_it() {
        let reference = |graph: &Graph| {
            let mut out = format!("{}\n", graph.num_nodes());
            for v in graph.nodes() {
                out.push_str(&format!("{}\n", graph.label(v)));
            }
            out.push_str(&format!("{}\n", graph.num_edges()));
            for (u, v, l) in graph.edges() {
                out.push_str(&format!("{u} {v} {l}\n"));
            }
            out
        };
        let mut wide = GraphBuilder::new();
        for label in [0, 9, 10, 99, 100, 12_345, u32::MAX] {
            wide.add_node(label);
        }
        wide.add_edge(6, 0, u32::MAX);
        wide.add_edge(0, 6, 1_000_000);
        wide.add_edge(3, 3, 0);
        for graph in [
            GraphBuilder::new().build(),
            generators::clique(4, 3),
            generators::grid(11, 11),
            wide.build(),
        ] {
            assert_eq!(write_graph_body(&graph), reference(&graph));
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sge-io-test-{}.gfd", std::process::id()));
        let g = generators::directed_cycle(6, 2);
        write_graph_file(&g, &path).expect("write");
        let read = read_graph_file(&path).expect("read");
        assert_eq!(read.num_nodes(), 6);
        assert_eq!(read.num_edges(), 6);
        std::fs::remove_file(&path).ok();
    }
}
