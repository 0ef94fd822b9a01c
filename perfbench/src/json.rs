//! Reading the server's replies: a small JSON parser for control responses
//! (METRICS, STATS, LOAD, EXPLAIN ANALYZE) and allocation-free field
//! probes for the timed loop, where a full parse would cost more than the
//! request being measured.

/// A parsed JSON value.  Numbers are `f64`; every count the server reports
/// stays below 2^53, so integers survive exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing characters at byte {}", parser.pos));
        }
        Ok(value)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric member `key`, or 0 when absent.
    pub fn num(&self, key: &str) -> f64 {
        self.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    /// `true` for a reply whose `ok` member is `true`.
    pub fn is_ok(&self) -> bool {
        self.get("ok").and_then(Json::as_bool) == Some(true)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.pos < self.bytes.len() && !matches!(self.bytes[self.pos], b'"' | b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = *self.bytes.get(self.pos + 1).ok_or("dangling escape")?;
                    self.pos += 2;
                    match escaped {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => out.push(other as char),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// The raw text of member `key` in a single-line reply, found without
/// parsing (the first occurrence of `"key":`).
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let mut needle = String::with_capacity(key.len() + 3);
    needle.push('"');
    needle.push_str(key);
    needle.push_str("\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Unsigned integer member `key` of a reply line.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    raw_field(line, key)?.parse().ok()
}

/// Numeric member `key` of a reply line.
pub fn field_f64(line: &str, key: &str) -> Option<f64> {
    raw_field(line, key)?.parse().ok()
}

/// Boolean member `key` of a reply line.
pub fn field_bool(line: &str, key: &str) -> Option<bool> {
    raw_field(line, key)?.parse().ok()
}

/// `true` for a successful reply line (the server always leads with `ok`).
pub fn ok_line(line: &str) -> bool {
    line.starts_with("{\"ok\":true")
}

/// `true` for the header line of a streamed reply.
pub fn stream_header(line: &str) -> bool {
    line.starts_with("{\"ok\":true,\"stream\":true")
}

/// `true` for a row frame of a streamed reply.
pub fn row_frame(line: &str) -> bool {
    line.starts_with("{\"rows\":")
}

/// Rows in a frame, counted without parsing: each row is one bracketed
/// array of node ids inside the outer `rows` array.
pub fn frame_rows(line: &str) -> u64 {
    (line.bytes().filter(|&b| b == b'[').count() as u64).saturating_sub(1)
}

/// The rows of a frame as node-id vectors (for embedding validation).
pub fn frame_mappings(line: &str) -> Result<Vec<Vec<u32>>, String> {
    let frame = Json::parse(line)?;
    let rows = frame
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("frame without rows")?;
    rows.iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| "row is not an array".to_string())?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .map(|n| n as u32)
                        .ok_or_else(|| "node id is not a number".to_string())
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUERY: &str = "{\"ok\":true,\"target\":\"ppi\",\"algorithm\":\"RI-DS-SI-FC\",\
        \"strategy\":\"ri-greedy\",\"scheduler\":\"sequential\",\"routed\":true,\"workers\":1,\
        \"matches\":60,\"states\":85,\"cache_hit\":true,\"pattern_hash\":\"00ab\",\
        \"preprocess_seconds\":0.0001,\"match_seconds\":1.5e-5,\"latency_seconds\":3.25e-5,\
        \"timed_out\":false,\"limit_hit\":false}";

    #[test]
    fn parses_a_query_reply() {
        let reply = Json::parse(QUERY).unwrap();
        assert!(reply.is_ok());
        assert_eq!(reply.num("matches"), 60.0);
        assert_eq!(reply.get("routed").and_then(Json::as_bool), Some(true));
        assert_eq!(
            reply.get("scheduler").and_then(Json::as_str),
            Some("sequential")
        );
        assert_eq!(reply.num("latency_seconds"), 3.25e-5);
        assert_eq!(reply.num("absent"), 0.0);
    }

    #[test]
    fn field_probes_agree_with_the_parser() {
        assert!(ok_line(QUERY));
        assert_eq!(field_u64(QUERY, "matches"), Some(60));
        assert_eq!(field_u64(QUERY, "states"), Some(85));
        assert_eq!(field_f64(QUERY, "latency_seconds"), Some(3.25e-5));
        assert_eq!(field_bool(QUERY, "cache_hit"), Some(true));
        assert_eq!(field_u64(QUERY, "missing"), None);
        // A key that is a suffix of another key is not confused with it.
        let stats = "{\"ok\":true,\"total_matches\":9,\"matches\":4}";
        assert_eq!(field_u64(stats, "matches"), Some(4));
        assert!(!ok_line("{\"ok\":false,\"error\":\"protocol error: x\"}"));
    }

    #[test]
    fn parses_stream_header_frames_and_footer() {
        let header = "{\"ok\":true,\"stream\":true,\"target\":\"m\",\"chunk\":64,\
            \"algorithm\":\"RI-DS-SI-FC\",\"scheduler\":\"sequential\",\"routed\":false}";
        let frame = "{\"rows\":[[0,1,2],[3,4,5],[6,7,8]]}";
        let empty = "{\"rows\":[]}";
        let footer = "{\"ok\":true,\"done\":true,\"rows_sent\":3,\"cancelled\":false,\
            \"target\":\"m\",\"matches\":3,\"states\":9}";
        assert!(stream_header(header));
        assert!(!stream_header(QUERY));
        assert!(row_frame(frame) && row_frame(empty) && !row_frame(footer));
        assert_eq!(frame_rows(frame), 3);
        assert_eq!(frame_rows(empty), 0);
        assert_eq!(
            frame_mappings(frame).unwrap(),
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]]
        );
        assert_eq!(field_u64(footer, "rows_sent"), Some(3));
        assert_eq!(field_bool(footer, "cancelled"), Some(false));
        assert_eq!(field_u64(footer, "matches"), Some(3));
    }

    #[test]
    fn parses_nested_metrics_and_explain_spans() {
        let metrics = "{\"ok\":true,\"metrics\":{\"cache.hits\":12,\
            \"service.latency_seconds\":{\"count\":3,\"p50_seconds\":0.5}}}";
        let doc = Json::parse(metrics).unwrap();
        let body = doc.get("metrics").unwrap();
        assert_eq!(body.num("cache.hits"), 12.0);
        assert_eq!(
            body.get("service.latency_seconds").unwrap().num("count"),
            3.0
        );

        let analyze = "{\"ok\":true,\"analyze\":true,\"est_states\":[1.5,2e3],\
            \"observed_states\":[2,4000],\"spans\":[{\"name\":\"plan\",\
            \"start_seconds\":0,\"duration_seconds\":1e-4}],\"error\":\"a\\\"b\\u0041\"}";
        let doc = Json::parse(analyze).unwrap();
        let est = doc.get("est_states").and_then(Json::as_arr).unwrap();
        assert_eq!(est[1].as_f64(), Some(2000.0));
        let span = &doc.get("spans").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(span.get("name").and_then(Json::as_str), Some("plan"));
        assert_eq!(span.num("duration_seconds"), 1e-4);
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("a\"bA"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} x", "\"open", "tru"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        assert!(frame_mappings("{\"rows\":[[1,\"x\"]]}").is_err());
    }
}
