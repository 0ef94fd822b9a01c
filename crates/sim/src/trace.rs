//! The event-trace recorder and its normalization rules.
//!
//! The trace is the simulator's determinism witness: running a scenario
//! twice under the same seed must render the *byte-identical* trace.  One
//! normalization makes that hold without giving up real assertions:
//! `preprocess_seconds` / `match_seconds` are scrubbed — the engine measures
//! them on a raw [`std::time::Instant`], which no virtual clock controls.
//! Every *service-level* time (latency, wall seconds, admission wait, the
//! STATS histogram) derives from the injected clock and stays in the trace
//! verbatim, and so does every count: a streamed run hands its rows to the
//! connection's writer from the worker that found them, so a cancelled
//! sequential stream stops at the same match under every replay.
//!
//! Long lines (row frames, mapping dumps) are truncated at a fixed byte
//! budget; truncation is itself deterministic, so it never perturbs
//! comparisons.

use std::time::Duration;

/// Keys whose numeric values are never reproducible (engine-internal raw
/// `Instant` timings).
const SCRUBBED_KEYS: &[&str] = &["preprocess_seconds", "match_seconds"];

/// Longest rendered payload kept per trace line, in bytes.  Sized so the
/// longest single-line responses the corpus asserts on — a METRICS registry
/// snapshot (now carrying the `engine.kernel.*` counters), an EXPLAIN
/// ANALYZE with spans, per-position kernels and `kernel_usage` — fit whole;
/// row frames and oversized request lines still truncate (deterministically).
const MAX_LINE_BYTES: usize = 1200;

/// An append-only, virtually-timestamped event log.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    lines: Vec<String>,
}

impl TraceRecorder {
    /// Records an untimestamped header/footer line.
    pub fn note(&mut self, text: impl AsRef<str>) {
        self.lines.push(truncate(text.as_ref()));
    }

    /// Records one event at virtual time `now`.  `payload` is normalized
    /// (timing scrub, truncation).
    pub fn event(&mut self, now: Duration, kind: &str, payload: &str) {
        let payload = normalize_line(payload);
        self.lines.push(format!(
            "[{:>10}us] {kind} {}",
            now.as_micros(),
            truncate(&payload)
        ));
    }

    /// Number of recorded lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The full rendered trace (one line per event, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Normalizes one response/summary line: scrubs engine-internal timings.
/// Control characters are made visible so traces stay one event per line.
pub fn normalize_line(line: &str) -> String {
    let mut text = escape_controls(line);
    for key in SCRUBBED_KEYS {
        text = scrub_key(&text, key);
    }
    text
}

/// Replaces every numeric value of `"key":` in `text` with `_`.
///
/// Matches only the exact quoted key (`"seconds":` would not rewrite
/// `"match_seconds":` — the leading quote would not line up), and only scalar
/// values: scan stops at `,`, `}` or `]`.
fn scrub_key(text: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        let value_start = at + needle.len();
        out.push_str(&rest[..value_start]);
        let tail = &rest[value_start..];
        let value_len = tail.find([',', '}', ']']).unwrap_or(tail.len());
        out.push('_');
        rest = &tail[value_len..];
    }
    out.push_str(rest);
    out
}

/// Escapes control characters (and the Unicode replacement char stays as-is:
/// fault scenarios produce it on purpose via lossy decoding).
fn escape_controls(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => out.push_str(&format!("\\x{:02x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Deterministically truncates long payloads at a char boundary.
fn truncate(text: &str) -> String {
    if text.len() <= MAX_LINE_BYTES {
        return text.to_string();
    }
    let mut cut = MAX_LINE_BYTES;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…(+{} bytes)", &text[..cut], text.len() - cut)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrubs_engine_timings_but_keeps_clock_latencies() {
        let line = r#"{"ok":true,"preprocess_seconds":1.2e-5,"match_seconds":0.003,"latency_seconds":0.25}"#;
        assert_eq!(
            normalize_line(line),
            r#"{"ok":true,"preprocess_seconds":_,"match_seconds":_,"latency_seconds":0.25}"#
        );
    }

    #[test]
    fn scrub_does_not_cross_object_boundaries() {
        let line =
            r#"{"results":[{"match_seconds":0.5},{"match_seconds":2e-6}],"match_seconds":1.5}"#;
        assert_eq!(
            normalize_line(line),
            r#"{"results":[{"match_seconds":_},{"match_seconds":_}],"match_seconds":_}"#
        );
    }

    #[test]
    fn events_are_timestamped_in_virtual_micros() {
        let mut trace = TraceRecorder::default();
        trace.event(Duration::from_millis(3), "response[0]", r#"{"ok":true}"#);
        assert_eq!(trace.render(), "[      3000us] response[0] {\"ok\":true}\n");
    }

    #[test]
    fn long_lines_truncate_deterministically() {
        let long = "x".repeat(MAX_LINE_BYTES + 200);
        let truncated = truncate(&long);
        assert!(truncated.len() < MAX_LINE_BYTES + 50);
        assert!(truncated.ends_with("…(+200 bytes)"));
    }

    #[test]
    fn control_bytes_stay_on_one_line() {
        assert_eq!(escape_controls("a\nb\x07c"), "a\\nb\\x07c");
    }
}
