//! Malformed-input property tests for the `.gfu`/`.gfd` text parser.
//!
//! The serving layer parses untrusted pattern text straight off a TCP
//! socket, so the parser must be total: every corruption of a valid file —
//! truncation, bad counts, out-of-range endpoints, random garbage — returns
//! `ParseError::Malformed` with an accurate line number and **never**
//! panics or over-allocates.

mod reference;

use sge_graph::io::{parse_graph, parse_graph_with_interner, write_graph, ParseError};
use sge_graph::GraphBuilder;
use sge_util::SplitMix64;
use std::collections::HashMap;

/// Deterministic random graph file: optional name, string labels, random
/// edges (possibly with explicit edge labels).  Every line is non-blank.
fn random_graph_text(rng: &mut SplitMix64) -> String {
    let nodes = 1 + rng.next_below(8);
    let mut builder = GraphBuilder::new();
    if rng.next_bool(0.5) {
        builder = builder.name(format!("g{}", rng.next_below(1000)));
    }
    for _ in 0..nodes {
        builder.add_node(rng.next_below(4) as u32);
    }
    let edges = rng.next_below(2 * nodes);
    for _ in 0..edges {
        let u = rng.next_below(nodes) as u32;
        let v = rng.next_below(nodes) as u32;
        let label = rng.next_below(3) as u32;
        builder.add_edge(u, v, label);
    }
    write_graph(&builder.build())
}

fn expect_malformed(text: &str) -> (usize, String) {
    match parse_graph(text) {
        Err(ParseError::Malformed { line, message }) => (line, message),
        Err(ParseError::Io(err)) => panic!("expected Malformed, got Io({err}) for {text:?}"),
        Ok(_) => panic!("expected Malformed, got Ok for {text:?}"),
    }
}

#[test]
fn every_truncation_is_malformed_at_the_last_line() {
    let mut rng = SplitMix64::new(0xD15EA5E);
    for _ in 0..50 {
        let text = random_graph_text(&mut rng);
        let lines: Vec<&str> = text.lines().collect();
        assert!(parse_graph(&text).is_ok(), "untruncated parses: {text:?}");
        for keep in 0..lines.len() {
            let truncated = lines[..keep]
                .iter()
                .map(|l| format!("{l}\n"))
                .collect::<String>();
            let (line, message) = expect_malformed(&truncated);
            // The reported position is exactly where the input ended (line 0
            // for empty input), never a stale earlier line.
            assert_eq!(
                line, keep,
                "truncated to {keep} lines, error said line {line} ({message}) for {truncated:?}"
            );
        }
    }
}

#[test]
fn bad_counts_are_malformed_with_the_count_line() {
    let mut rng = SplitMix64::new(0xBADC0DE);
    let bad_tokens = [
        "x",
        "-1",
        "3.5",
        "",
        "0x10",
        "99999999999999999999999999",
        "NaN",
    ];
    for _ in 0..30 {
        let text = random_graph_text(&mut rng);
        let lines: Vec<&str> = text.lines().collect();
        let has_name = lines[0].starts_with('#');
        let node_count_idx = usize::from(has_name);
        let node_count: usize = lines[node_count_idx].parse().unwrap();
        let edge_count_idx = node_count_idx + node_count + 1;

        for idx in [node_count_idx, edge_count_idx] {
            for bad in bad_tokens {
                if bad.is_empty() {
                    continue; // a blank line is skipped, not a bad count
                }
                let mut corrupted: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
                corrupted[idx] = bad.to_string();
                let corrupted = corrupted.join("\n");
                let (line, message) = expect_malformed(&corrupted);
                assert_eq!(
                    line,
                    idx + 1,
                    "{message} for count {bad:?} at line {}",
                    idx + 1
                );
                assert!(
                    message.contains("invalid node count")
                        || message.contains("invalid edge count"),
                    "unexpected message '{message}'"
                );
            }
        }
    }
}

#[test]
fn huge_parseable_counts_do_not_allocate_or_panic() {
    // usize::MAX parses fine; the parser must reject it as truncation
    // instead of reserving capacity for it.
    for huge in ["18446744073709551615", "1000000000000"] {
        let text = format!("{huge}\n0\n0\n");
        let (line, message) = expect_malformed(&text);
        assert_eq!(line, 3);
        assert!(message.contains("unexpected end of file in node labels"));

        let with_edges = format!("2\n0\n0\n{huge}\n0 1\n");
        let (line, message) = expect_malformed(&with_edges);
        assert_eq!(line, 5);
        assert!(message.contains("unexpected end of file in edge list"));
    }
}

#[test]
fn out_of_range_endpoints_are_malformed_with_the_edge_line() {
    let mut rng = SplitMix64::new(0x0FF5E7);
    let mut tested = 0;
    while tested < 30 {
        let text = random_graph_text(&mut rng);
        let lines: Vec<&str> = text.lines().collect();
        let has_name = lines[0].starts_with('#');
        let node_count_idx = usize::from(has_name);
        let node_count: usize = lines[node_count_idx].parse().unwrap();
        let edge_count_idx = node_count_idx + node_count + 1;
        let edge_count: usize = lines[edge_count_idx].parse().unwrap();
        if edge_count == 0 {
            continue;
        }
        tested += 1;

        let victim = edge_count_idx + 1 + rng.next_below(edge_count);
        let mut fields: Vec<String> = lines[victim]
            .split_whitespace()
            .map(|f| f.to_string())
            .collect();
        let endpoint = rng.next_below(2); // tail or head
        fields[endpoint] = (node_count + rng.next_below(10)).to_string();
        let mut corrupted: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        corrupted[victim] = fields.join(" ");
        let corrupted = corrupted.join("\n");

        let (line, message) = expect_malformed(&corrupted);
        assert_eq!(line, victim + 1, "{message}");
        assert!(message.contains("references a node"), "{message}");
    }
}

#[test]
fn corrupted_edge_fields_are_malformed_never_panic() {
    for (text, expected_line) in [
        ("2\n0\n0\n1\nx 1\n", 5),       // non-numeric tail
        ("2\n0\n0\n1\n0 y\n", 5),       // non-numeric head
        ("2\n0\n0\n1\n0 1 z\n", 5),     // non-numeric edge label
        ("2\n0\n0\n1\n-1 1\n", 5),      // negative tail
        ("2\n0\n0\n1\n0 1 2 3 4\n", 5), // extra fields are ignored → Ok
    ] {
        match parse_graph(text) {
            Err(ParseError::Malformed { line, .. }) => assert_eq!(line, expected_line, "{text:?}"),
            Ok(_) => assert!(text.contains("2 3 4"), "unexpected Ok for {text:?}"),
            Err(other) => panic!("unexpected {other:?} for {text:?}"),
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SplitMix64::new(0x6A12BA6E);
    let alphabet: Vec<char> = "0123456789 #-.\nabcxyz\t".chars().collect();
    for _ in 0..500 {
        let len = rng.next_below(200);
        let garbage: String = (0..len)
            .map(|_| alphabet[rng.next_below(alphabet.len())])
            .collect();
        let _ = parse_graph(&garbage); // must return, never panic
    }
    // Structured-ish garbage: valid prefix + random tail.
    for _ in 0..200 {
        let mut text = random_graph_text(&mut rng);
        let cut = rng.next_below(text.len().max(1));
        text.truncate(cut);
        let tail_len = rng.next_below(30);
        let tail: String = (0..tail_len)
            .map(|_| alphabet[rng.next_below(alphabet.len())])
            .collect();
        text.push_str(&tail);
        let _ = parse_graph(&text);
    }
}

/// What a line of a [`MessyText`] holds.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Blank,
    Name,
    Count,
    Label,
    Edge,
}

/// One line of a [`MessyText`]: its fields, the blanks between them and
/// the blanks around them.
#[derive(Clone)]
struct Line {
    kind: Kind,
    fields: Vec<String>,
    separators: Vec<&'static str>,
    lead: &'static str,
    trail: &'static str,
}

/// A generated graph text in the exchange format, kept line by line so a
/// test can corrupt one field and render it again.
#[derive(Clone)]
struct MessyText {
    lines: Vec<Line>,
    line_break: &'static str,
    final_break: bool,
}

/// Blanks around a line's fields, Unicode whitespace included.
const BLANKS: [&str; 9] = [
    "", "", "", " ", "\t", "  \t ", "\u{a0}", "\u{3000}", "\x0b\x0c",
];
/// Blanks between fields.
const SEPARATORS: [&str; 7] = [" ", " ", " ", "\t", "    ", "\u{a0}", " \u{3000}\t"];
/// Node labels: a label is the whole trimmed line, inner blanks included.
const LABELS: [&str; 8] = ["C", "N", "O", "Ca", "C a", "\u{e9}", "0", "12"];
/// Tokens no count or edge field accepts.
const BAD_TOKENS: [&str; 12] = [
    "x",
    "-1",
    "3.5",
    "0x10",
    "99999999999999999999",
    "4294967296",
    "+",
    "++1",
    "1+",
    "-0",
    "\u{e9}",
    "\u{663}",
];

impl MessyText {
    fn random(rng: &mut SplitMix64) -> MessyText {
        let mut text = MessyText {
            lines: Vec::new(),
            line_break: if rng.next_bool(0.5) { "\n" } else { "\r\n" },
            final_break: rng.next_bool(0.8),
        };
        if rng.next_bool(0.5) {
            let name = ["", "g1", " g 2", "ppi"][rng.next_below(4)];
            text.push(rng, Kind::Name, vec![format!("#{name}")]);
        }
        let nodes = rng.next_below(8);
        let count = number(rng, nodes as u64);
        text.push(rng, Kind::Count, vec![count]);
        for _ in 0..nodes {
            let label = LABELS[rng.next_below(LABELS.len())];
            text.push(rng, Kind::Label, vec![label.to_string()]);
        }
        // Random edges, self-loops allowed; some repeat an earlier pair with
        // another label.  Shuffled, so no list arrives sorted.
        let mut edges: Vec<(u64, u64, u64)> = Vec::new();
        if nodes > 0 {
            for _ in 0..rng.next_below(3 * nodes + 1) {
                let edge = match edges.len() {
                    len if len > 0 && rng.next_bool(0.3) => {
                        let (u, v, _) = edges[rng.next_below(len)];
                        (u, v, rng.next_below(4) as u64)
                    }
                    _ => (
                        rng.next_below(nodes) as u64,
                        rng.next_below(nodes) as u64,
                        rng.next_below(4) as u64,
                    ),
                };
                edges.push(edge);
            }
        }
        rng.shuffle(&mut edges);
        let count = number(rng, edges.len() as u64);
        text.push(rng, Kind::Count, vec![count]);
        for (u, v, label) in edges {
            let mut fields = vec![number(rng, u), number(rng, v)];
            if rng.next_bool(0.7) {
                fields.push(number(rng, label));
            }
            if rng.next_bool(0.05) {
                // An extra field, ignored whatever it holds.
                fields.push(["junk", "7", "-1"][rng.next_below(3)].to_string());
            }
            if rng.next_bool(0.03) {
                fields.truncate(1); // a missing head
            }
            text.push(rng, Kind::Edge, fields);
        }
        if rng.next_bool(0.3) {
            text.push(rng, Kind::Blank, Vec::new());
        }
        text
    }

    /// Appends a line, sometimes after a blank or whitespace-only one.
    fn push(&mut self, rng: &mut SplitMix64, kind: Kind, fields: Vec<String>) {
        if kind != Kind::Blank && rng.next_bool(0.1) {
            self.push(rng, Kind::Blank, Vec::new());
        }
        let pick = |rng: &mut SplitMix64, from: &[&'static str]| from[rng.next_below(from.len())];
        let separators = (0..fields.len()).map(|_| pick(rng, &SEPARATORS)).collect();
        let line = Line {
            kind,
            fields,
            separators,
            lead: pick(rng, &BLANKS),
            trail: pick(rng, &BLANKS),
        };
        self.lines.push(line);
    }

    fn render(&self) -> String {
        let mut out = String::new();
        for (i, line) in self.lines.iter().enumerate() {
            out.push_str(line.lead);
            for (j, field) in line.fields.iter().enumerate() {
                if j > 0 {
                    out.push_str(line.separators[j]);
                }
                out.push_str(field);
            }
            out.push_str(line.trail);
            if i + 1 < self.lines.len() || self.final_break {
                out.push_str(self.line_break);
            }
        }
        out
    }

    /// Indices of the lines of `kind`.
    fn lines_of(&self, kind: Kind) -> Vec<usize> {
        (0..self.lines.len())
            .filter(|&i| self.lines[i].kind == kind)
            .collect()
    }
}

/// `value` as a field, sometimes with a `+` sign or leading zeros.
fn number(rng: &mut SplitMix64, value: u64) -> String {
    match rng.next_below(10) {
        0 => format!("+{value}"),
        1 => format!("00{value}"),
        _ => value.to_string(),
    }
}

/// Parses `text` with the one-pass parser and the reference, each under a
/// copy of `interner`: both give the same graph and interner, or the same
/// `(line, message)`.
fn assert_same_parse(text: &str, interner: &HashMap<String, u32>) {
    let mut interned = interner.clone();
    let mut reference_interned = interner.clone();
    let parsed = parse_graph_with_interner(text, &mut interned);
    let expected = reference::parse_graph_with_interner(text, &mut reference_interned);
    match (parsed, expected) {
        (Ok(graph), Ok(expected)) => {
            expected.assert_same(&graph, &format!("{text:?}"));
            assert_eq!(interned, reference_interned, "interner for {text:?}");
        }
        (
            Err(ParseError::Malformed { line, message }),
            Err(ParseError::Malformed {
                line: expected_line,
                message: expected_message,
            }),
        ) => {
            assert_eq!(
                (line, message),
                (expected_line, expected_message),
                "error for {text:?}"
            );
            assert_eq!(interned, reference_interned, "interner for {text:?}");
        }
        (parsed, expected) => {
            panic!("{text:?}: parsed {parsed:?}, the reference {expected:?}")
        }
    }
}

#[test]
fn one_pass_parse_matches_the_reference_parser() {
    let mut rng = SplitMix64::new(0xDEFACE);
    let shared: HashMap<String, u32> = [("N".to_string(), 0), ("x".to_string(), 1)].into();
    let mut accepted = 0;
    for round in 0..300 {
        let interner = if round % 2 == 0 {
            HashMap::new()
        } else {
            shared.clone()
        };
        let text = MessyText::random(&mut rng);
        let rendered = text.render();
        accepted += usize::from(parse_graph(&rendered).is_ok());

        // The text, then every prefix of it.
        for end in (0..=rendered.len()).filter(|&end| rendered.is_char_boundary(end)) {
            assert_same_parse(&rendered[..end], &interner);
        }

        // A bad token in each count and in each edge field.
        let counts = text.lines_of(Kind::Count);
        let edges = text.lines_of(Kind::Edge);
        for &at in counts.iter().chain(&edges) {
            for field in 0..text.lines[at].fields.len() {
                for bad in BAD_TOKENS {
                    let mut corrupted = text.clone();
                    corrupted.lines[at].fields[field] = bad.to_string();
                    assert_same_parse(&corrupted.render(), &interner);
                }
            }
        }

        // A count that overruns the input, with a bad line after it: the
        // overrun is reported, at the last line.
        for (count, kind) in [(counts[0], Kind::Label), (counts[1], Kind::Edge)] {
            let mut overrun = text.clone();
            let over = 1 + rng.next_below(3);
            let lines = text.lines_of(kind).len();
            overrun.lines[count].fields[0] = (lines + over).to_string();
            if let Some(&victim) = edges.get(rng.next_below(edges.len().max(1))) {
                let bad = BAD_TOKENS[rng.next_below(BAD_TOKENS.len())];
                overrun.lines[victim].fields[0] = bad.to_string();
            }
            assert_same_parse(&overrun.render(), &interner);
        }
    }
    // Most generated texts are valid, so the graphs themselves are compared.
    assert!(accepted > 200, "only {accepted} of 300 texts parsed");
}
