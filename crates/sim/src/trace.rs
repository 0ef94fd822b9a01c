//! The event-trace recorder and its normalization rules.
//!
//! The trace is the simulator's determinism witness: running a scenario
//! twice under the same seed must render the *byte-identical* trace.  Two
//! normalizations make that hold without giving up real assertions:
//!
//! * `preprocess_seconds` / `match_seconds` are always scrubbed — the engine
//!   measures them on a raw [`std::time::Instant`], which no virtual clock
//!   controls.  Every *service-level* time (latency, wall seconds, admission
//!   wait, the STATS histogram) derives from the injected clock and stays in
//!   the trace verbatim.
//! * match/state counters are scrubbed only when a scenario opts in via
//!   `normalize_counts` — required when enumeration is cancelled mid-run
//!   without a `max=` cap, because how far the producer thread gets before
//!   observing the cancel token is OS scheduling, not seed.
//!
//! Long lines (row frames, mapping dumps) are truncated at a fixed byte
//! budget; truncation is itself deterministic, so it never perturbs
//! comparisons.

use std::time::Duration;

/// Keys whose numeric values are never reproducible (engine-internal raw
/// `Instant` timings).
const ALWAYS_SCRUBBED: &[&str] = &["preprocess_seconds", "match_seconds"];

/// Keys scrubbed only under `normalize_counts` (racy after a mid-enumeration
/// cancel).
const COUNT_KEYS: &[&str] = &["matches", "states", "total_matches", "rows_sent"];

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
    normalize_counts: bool,
}

impl TraceRecorder {
    /// An empty trace with the given count-scrubbing policy.
    pub fn new(normalize_counts: bool) -> Self {
        TraceRecorder {
            lines: Vec::new(),
            normalize_counts,
        }
    }

    /// Records an untimestamped header/footer line.
    pub fn note(&mut self, text: impl AsRef<str>) {
        self.lines.push(truncate(text.as_ref()));
    }

    /// Records one event at virtual time `now`.  `payload` is normalized
    /// (timing scrub, optional count scrub, truncation).
    pub fn event(&mut self, now: Duration, kind: &str, payload: &str) {
        let payload = normalize_line(payload, self.normalize_counts);
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

/// Normalizes one response/summary line: scrubs engine-internal timings and —
/// when `normalize_counts` — the racy match/state counters.  Control
/// characters are made visible so traces stay one event per line.
pub fn normalize_line(line: &str, normalize_counts: bool) -> String {
    let mut text = escape_controls(line);
    for key in ALWAYS_SCRUBBED {
        text = scrub_key(&text, key);
    }
    if normalize_counts {
        for key in COUNT_KEYS {
            text = scrub_key(&text, key);
        }
    }
    text
}

/// Replaces every numeric value of `"key":` in `text` with `_`.
///
/// Matches only the exact quoted key (`"matches":` will not rewrite
/// `"total_matches":` — the leading quote would not line up), and only scalar
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
            normalize_line(line, false),
            r#"{"ok":true,"preprocess_seconds":_,"match_seconds":_,"latency_seconds":0.25}"#
        );
    }

    #[test]
    fn count_scrub_is_opt_in_and_exact_key_only() {
        let line =
            r#"{"matches":60,"states":120,"total_matches":60,"rows_sent":7,"rows_streamed":7}"#;
        assert_eq!(normalize_line(line, false), line);
        // The STATS total `rows_streamed` is seed-deterministic (the
        // connection thread writes every frame) and stays in the trace.
        assert_eq!(
            normalize_line(line, true),
            r#"{"matches":_,"states":_,"total_matches":_,"rows_sent":_,"rows_streamed":7}"#
        );
    }

    #[test]
    fn scrub_does_not_cross_object_boundaries() {
        let line = r#"{"results":[{"matches":60},{"matches":20}],"total_matches":80}"#;
        assert_eq!(
            normalize_line(line, true),
            r#"{"results":[{"matches":_},{"matches":_}],"total_matches":_}"#
        );
    }

    #[test]
    fn events_are_timestamped_in_virtual_micros() {
        let mut trace = TraceRecorder::new(false);
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
