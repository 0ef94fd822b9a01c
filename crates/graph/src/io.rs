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
//! lines.  One field reader serves every edge field: it reads an optional
//! `+` and ASCII digits into an overflow-checked `u32`, which is what
//! `str::parse::<u32>` accepts.  An edge line is first read in place as
//! bytes: skip ASCII blanks, read two or three fields, each ended by an
//! ASCII blank, the line break or the end of the text, step over the rest
//! of the line, check the endpoints.  Only a line that does not read that
//! way (a blank line, Unicode whitespace, a bad field) is trimmed, split at
//! Unicode whitespace and its fields handed to the same reader, so every
//! error keeps its line and message.  [`GraphBuilder::build`] then orders
//! the edges with counting sorts.

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
/// bytes can hold.  The labels are interned as they are read; a node count
/// above the lines left takes back the ids this parse added (the ids are
/// dense, so those at or above the table's starting length), and leaves
/// `interner` as it was.  An error after the labels (in the edge count or
/// an edge) leaves them in it, and a caller that must not keep them rolls
/// it back.
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

    // A label line takes at least two bytes with its line break.
    let mut builder =
        GraphBuilder::with_capacity(node_count.min(lines.rest.len() / 2 + 1), 0).name(name);
    let known = interner.len();
    for _ in 0..node_count {
        let Some((_, label_text)) = lines.next() else {
            // Ids are dense, so this parse added exactly the ids >= known.
            if interner.len() > known {
                interner.retain(|_, id| (*id as usize) < known);
            }
            // Truncation errors point at the last line the input actually has.
            return Err(malformed(
                lines.last,
                "unexpected end of file in node labels",
            ));
        };
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
        match parse_edge(line_no, edge_text, node_count) {
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

    /// Reads the next line in place when it is an edge line whose fields
    /// are separated by ASCII blanks, the shape of nearly every edge line:
    /// two or three fields, whatever else the line holds up to its `\n`,
    /// endpoints below `node_count`.  Reads nothing otherwise (a blank
    /// line, Unicode whitespace, a bad field), and the line then goes the
    /// general way.  Both ways agree: a field that [`read_u32`] takes
    /// whole holds no whitespace of either kind.
    fn next_plain_edge(&mut self, node_count: usize) -> Option<(NodeId, NodeId, Label)> {
        let bytes = self.rest.as_bytes();
        let (tail, at) = plain_field(bytes, 0)?;
        let (head, at) = plain_field(bytes, at)?;
        let at = skip_blanks(bytes, at);
        let (label, at) = match bytes.get(at) {
            None | Some(b'\n') => (DEFAULT_EDGE_LABEL, at),
            Some(_) => plain_field(bytes, at)?,
        };
        if tail as usize >= node_count || head as usize >= node_count {
            return None;
        }
        let end = bytes[at..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |i| at + i + 1);
        self.rest = &self.rest[end..];
        self.number += 1;
        self.last = self.number;
        Some((tail, head, label))
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

/// Parses one trimmed edge line split at Unicode whitespace: `<tail>
/// <head> [<edge label>]`, each field read whole by [`read_u32`], extra
/// fields ignored, endpoints below `node_count`.
fn parse_edge(
    line_no: usize,
    line: &str,
    node_count: usize,
) -> Result<(NodeId, NodeId, Label), ParseError> {
    let mut parts = line.split_whitespace();
    let tail = parts
        .next()
        .ok_or_else(|| malformed(line_no, "missing edge tail"))?;
    let tail = field_u32(tail).ok_or_else(|| malformed(line_no, "invalid edge tail"))?;
    let head = parts
        .next()
        .ok_or_else(|| malformed(line_no, "missing edge head"))?;
    let head = field_u32(head).ok_or_else(|| malformed(line_no, "invalid edge head"))?;
    let label = match parts.next() {
        Some(text) => field_u32(text).ok_or_else(|| malformed(line_no, "invalid edge label"))?,
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

/// The index of the first byte at or after `at` that is not an ASCII blank:
/// ASCII whitespace other than the line break.
fn skip_blanks(bytes: &[u8], mut at: usize) -> usize {
    while bytes
        .get(at)
        .is_some_and(|&b| b != b'\n' && b.is_ascii_whitespace())
    {
        at += 1;
    }
    at
}

/// Reads the field after the ASCII blanks at `at`: a [`read_u32`] field
/// that an ASCII blank, the line break or the end of the text ends.
/// Returns its value and the index after it.
fn plain_field(bytes: &[u8], at: usize) -> Option<(u32, usize)> {
    let start = skip_blanks(bytes, at);
    let (value, len) = read_u32(&bytes[start..])?;
    let end = start + len;
    match bytes.get(end) {
        Some(b) if !b.is_ascii_whitespace() => None,
        _ => Some((value, end)),
    }
}

/// Reads the field at the front of `bytes`: an optional `+` and ASCII
/// digits whose value fits a `u32`, which is what `str::parse::<u32>`
/// accepts.  Returns the value and the number of bytes read, or `None`
/// when no digit follows the sign or the value overflows.
fn read_u32(bytes: &[u8]) -> Option<(u32, usize)> {
    let start = usize::from(bytes.first() == Some(&b'+'));
    let mut value = 0u32;
    let mut end = start;
    while let Some(&b) = bytes.get(end).filter(|b| b.is_ascii_digit()) {
        value = value.checked_mul(10)?.checked_add(u32::from(b - b'0'))?;
        end += 1;
    }
    (end > start).then_some((value, end))
}

/// A whole field as a [`read_u32`] field.
fn field_u32(field: &str) -> Option<u32> {
    match read_u32(field.as_bytes()) {
        Some((value, len)) if len == field.len() => Some(value),
        _ => None,
    }
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
    fn the_field_reader_accepts_what_str_parse_accepts() {
        let alphabet = ['0', '1', '9', '+', '-', 'x', '\u{663}'];
        let mut fields = vec![String::new()];
        let mut level = fields.clone();
        for _ in 0..5 {
            level = level
                .iter()
                .flat_map(|s| alphabet.iter().map(move |&c| format!("{s}{c}")))
                .collect();
            fields.extend(level.iter().cloned());
        }
        assert_eq!(fields.len(), 19_608);
        for field in &fields {
            assert_eq!(field_u32(field), field.parse::<u32>().ok(), "{field:?}");
        }
        for (field, value) in [
            ("4294967295", Some(u32::MAX)),
            ("+4294967295", Some(u32::MAX)),
            ("00000000004294967295", Some(u32::MAX)),
            ("4294967296", None),
            ("42949672950", None),
        ] {
            assert_eq!(field_u32(field), value, "{field:?}");
            assert_eq!(field.parse::<u32>().ok(), value, "{field:?}");
        }
    }

    #[test]
    fn a_line_is_read_in_place_exactly_when_ascii_splitting_takes_it() {
        const NODES: usize = 8;
        // What the in-place read must take: the line split at ASCII
        // blanks, each field through `str::parse`.
        let split_and_parse = |line: &str| -> Option<(u32, u32, u32)> {
            let mut parts = line.split_ascii_whitespace();
            let tail: u32 = parts.next()?.parse().ok()?;
            let head: u32 = parts.next()?.parse().ok()?;
            let label = match parts.next() {
                Some(text) => text.parse().ok()?,
                None => DEFAULT_EDGE_LABEL,
            };
            ((tail as usize) < NODES && (head as usize) < NODES).then_some((tail, head, label))
        };
        let fields: &[&str] = &["0", "7", "+1", "003", "9", "x", "1x", "-1", "4294967295"];
        // Form feed is ASCII whitespace; U+000B and U+00A0 are only Unicode
        // whitespace, so a line split by them must reach the fallback.
        let blanks: &[&str] = &[" ", "\t", "\x0c", "\r", "\x0b", "\u{a0}", "  "];
        let leads = ["", " ", "\x0b", "\t\x0c"];
        let ends = ["\n", " \r\n", "", "\x0c\n", "\x0b\n"];
        // Every line of up to three fields, then a few with more.
        let mut lines = vec![String::new()];
        let mut level: Vec<String> = fields.iter().map(|f| f.to_string()).collect();
        for _ in 0..2 {
            lines.extend(level.iter().cloned());
            level = level
                .iter()
                .flat_map(|line| {
                    blanks.iter().flat_map(move |blank| {
                        fields
                            .iter()
                            .map(move |field| format!("{line}{blank}{field}"))
                    })
                })
                .collect();
        }
        lines.extend(level);
        lines.extend(
            [
                "1 2 3 junk\u{a0}x",
                "1 2 3\u{a0}4",
                "1\x0b2",
                "1\x0c2",
                "1 2 3 4 5",
                "1 2 -",
                "\u{3000}1 2",
            ]
            .map(String::from),
        );
        let mut taken = 0;
        for (i, line) in lines.iter().enumerate() {
            let lead = leads[i % leads.len()];
            let end = ends[(i / leads.len()) % ends.len()];
            // A line that ends in a break has another edge line after it.
            let next = if end.is_empty() { "" } else { "5 6\n" };
            let text = format!("{lead}{line}{end}{next}");
            let (first, rest) = text.split_once('\n').unwrap_or((&text, ""));
            let expected = split_and_parse(first);
            let mut reader = Lines::new(&text);
            assert_eq!(reader.next_plain_edge(NODES), expected, "{text:?}");
            let (rest, number) = match expected {
                Some(_) => (rest, 1),
                None => (text.as_str(), 0),
            };
            taken += number;
            assert_eq!((reader.rest, reader.number), (rest, number), "{text:?}");
        }
        assert!(taken > 1_000, "only {taken} of {} lines taken", lines.len());
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
