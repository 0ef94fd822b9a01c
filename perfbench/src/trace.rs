//! Spans the harness records around each call it makes into a layer, kept
//! in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for none).
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Records `name` over `[start, end]` and returns its id.
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let offset = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: offset(start),
            end_ns: offset(end),
        });
        id
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_order_parents_and_durations() {
        let mut tracer = Tracer::default();
        let t0 = Instant::now();
        let parent = tracer.record("request", 0, t0, t0 + Duration::from_millis(3));
        let child = tracer.record("first_row", parent, t0, t0 + Duration::from_millis(1));
        assert_eq!((parent, child), (1, 2));
        assert_eq!(tracer.spans[0].end_ns - tracer.spans[0].start_ns, 3_000_000);
        let lines = tracer.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        let second = crate::json::Json::parse(lines.lines().nth(1).unwrap()).unwrap();
        assert_eq!(second.num("parent"), 1.0);
        assert_eq!(
            second.get("name").and_then(|n| n.as_str()),
            Some("first_row")
        );
    }
}
