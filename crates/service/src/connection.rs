//! Transport-generic protocol handling: one connection, one step at a time.
//!
//! [`Connection`] owns the per-connection request/response loop, generic
//! over any [`BufRead`] reader and [`Write`] writer.  The TCP front end's
//! workers step it over one framed request unit, writing into an outbox the
//! readiness loop drains to the socket (`crate::event_server`, Unix only);
//! the deterministic simulator drives the *same code* over in-memory
//! fault-injecting transports — which is the point: the simulator
//! exercises the real protocol surface, not a reimplementation.
//!
//! [`Connection::step`] processes exactly one request (a `BATCH` header
//! consumes its continuation lines in the same step; a streamed `QUERY`
//! writes header, row frames and footer in the same step) and reports
//! whether the connection continues, closed, or asked the server to shut
//! down.  Stepping granularity is what lets the simulator interleave many
//! virtual clients deterministically from a seed.

use crate::protocol::{
    batch_response, error_response, explain_analyze_response, explain_response, load_response,
    metrics_response, parse_batch_query, parse_command, query_response, shutdown_response,
    stats_response, stream_footer_response, stream_header_response, stream_rows_frame, Command,
    MAX_BATCH_QUERIES, MAX_REQUEST_LINE_BYTES,
};
use crate::{EmitMode, QuerySet, Service, ServiceError, StreamHeader, StreamSink};
use sge_graph::NodeId;
use sge_wire::json::Json;
use std::io::{BufRead, Read, Write};

/// What one [`Connection::step`] call did to the connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// A request was served (or a blank line skipped); more may follow.
    Continue,
    /// The connection is over: clean EOF, or a protocol violation that was
    /// answered with a structured error before closing.
    Closed,
    /// The client issued `SHUTDOWN`; the response has been written and the
    /// caller should stop its accept loop and drain.
    ShutdownRequested,
}

/// One protocol connection over an arbitrary reader/writer pair.
pub struct Connection<R, W> {
    reader: R,
    writer: W,
    line: String,
}

impl<R: BufRead, W: Write> Connection<R, W> {
    /// Wraps a transport pair.
    pub fn new(reader: R, writer: W) -> Self {
        Connection {
            reader,
            writer,
            line: String::new(),
        }
    }

    /// Serves one request from the reader, writing the response(s) to the
    /// writer.  I/O errors terminate the connection (the caller should treat
    /// `Err` as [`StepOutcome::Closed`] with a transport failure).
    pub fn step(&mut self, service: &Service) -> std::io::Result<StepOutcome> {
        match read_bounded_line(&mut self.reader, &mut self.line)? {
            LineRead::Eof => return Ok(StepOutcome::Closed), // client closed
            LineRead::Overflow => {
                // Answer with a structured error, then drop the connection:
                // the rest of the oversized line cannot be resynchronized.
                refuse(&mut self.writer, &line_too_long_error())?;
                return Ok(StepOutcome::Closed);
            }
            LineRead::Invalid => {
                refuse(&mut self.writer, &invalid_utf8_error())?;
                return Ok(StepOutcome::Closed);
            }
            LineRead::Line => {}
        }
        if self.line.trim().is_empty() {
            return Ok(StepOutcome::Continue);
        }
        let response = match parse_command(&self.line) {
            Ok(Command::Load {
                name,
                path,
                bitmap_cap,
            }) => respond(service.load_target(&name, &path, bitmap_cap), load_response),
            Ok(Command::Query { target, spec }) if spec.emit == EmitMode::Stream => {
                let mut sink = WriterSink {
                    writer: &mut self.writer,
                };
                match service.run_query_streaming(&target, &spec, &mut sink) {
                    Ok(streamed) => {
                        // A dead client makes this write fail, which ends the
                        // connection — exactly what a footer to nobody needs.
                        let footer = stream_footer_response(&streamed);
                        writeln!(self.writer, "{}", footer.render())?;
                        self.writer.flush()?;
                        return Ok(StepOutcome::Continue);
                    }
                    // The header never went out (client vanished first):
                    // nothing ran, drop the connection.
                    Err(ServiceError::Io(err)) => return Err(err),
                    // Pre-run failures (unknown target, parse error) are a
                    // normal single-line error, like a buffered query.
                    Err(err) => error_response(&err),
                }
            }
            Ok(Command::Query { target, spec }) => {
                respond(service.run_query(&target, &spec), query_response)
            }
            Ok(Command::Explain { target, spec }) => {
                respond(service.explain(&target, &spec), explain_response)
            }
            Ok(Command::ExplainAnalyze { target, spec }) => respond(
                service.explain_analyze(&target, &spec),
                explain_analyze_response,
            ),
            Ok(Command::Batch { target, count }) => {
                match read_batch(&mut self.reader, target, count)? {
                    BatchRead::Set(set) => batch_response(&service.run_batch(&set)),
                    BatchRead::Failed(err) => error_response(&err),
                    BatchRead::Overflow => {
                        refuse(&mut self.writer, &line_too_long_error())?;
                        return Ok(StepOutcome::Closed);
                    }
                }
            }
            Ok(Command::Stats) => stats_response(service),
            Ok(Command::Metrics) => metrics_response(service),
            Ok(Command::Shutdown) => {
                writeln!(self.writer, "{}", shutdown_response().render())?;
                self.writer.flush()?;
                return Ok(StepOutcome::ShutdownRequested);
            }
            Err(err) => {
                // A malformed BATCH header still announced continuation
                // lines (the client sends them regardless); consume them so
                // they are not misread as top-level commands.  The announced
                // count comes from the *unvalidated* header, so the drain is
                // capped — a header announcing more than the cap closes the
                // connection instead of pinning the handler forever.
                let announced = crate::client::continuation_lines(&self.line);
                if announced > MAX_BATCH_QUERIES {
                    let err = ServiceError::Protocol(format!(
                        "malformed BATCH header announces {announced} continuation lines \
                         (cap {MAX_BATCH_QUERIES}); closing connection"
                    ));
                    refuse(&mut self.writer, &err)?;
                    return Ok(StepOutcome::Closed);
                }
                let mut continuation = String::new();
                for _ in 0..announced {
                    match read_bounded_line(&mut self.reader, &mut continuation)? {
                        LineRead::Eof => break,
                        LineRead::Overflow => {
                            refuse(&mut self.writer, &line_too_long_error())?;
                            return Ok(StepOutcome::Closed);
                        }
                        // Drained lines are never parsed; any bytes do.
                        LineRead::Invalid | LineRead::Line => {}
                    }
                }
                error_response(&err)
            }
        };
        writeln!(self.writer, "{}", response.render())?;
        self.writer.flush()?;
        Ok(StepOutcome::Continue)
    }
}

/// Folds a service result into its single-line response: `render` on
/// success, the structured error object otherwise.
fn respond<T>(result: Result<T, ServiceError>, render: impl FnOnce(&T) -> Json) -> Json {
    match result {
        Ok(value) => render(&value),
        Err(err) => error_response(&err),
    }
}

/// Outcome of one bounded request-line read.
enum LineRead {
    /// Clean end of stream.
    Eof,
    /// A complete line (newline seen within the cap).
    Line,
    /// The cap was hit before a newline arrived.
    Overflow,
    /// The line fit the cap but is not valid UTF-8.
    Invalid,
}

/// Reads one request line through a [`Read::take`] guard so an unterminated
/// line cannot grow past [`MAX_REQUEST_LINE_BYTES`].
///
/// Bytes are read raw (`read_until`) and UTF-8 validated *after* the length
/// check: validating first would turn a cap boundary that splits a
/// multi-byte character into an `InvalidData` I/O error, silently dropping
/// the connection instead of answering the documented structured error.
fn read_bounded_line<R: BufRead>(reader: &mut R, line: &mut String) -> std::io::Result<LineRead> {
    line.clear();
    let mut bytes = Vec::new();
    let read = (&mut *reader)
        .take(MAX_REQUEST_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut bytes)?;
    if read == 0 {
        return Ok(LineRead::Eof);
    }
    if read > MAX_REQUEST_LINE_BYTES {
        return Ok(LineRead::Overflow);
    }
    match String::from_utf8(bytes) {
        Ok(text) => {
            *line = text;
            Ok(LineRead::Line)
        }
        Err(_) => Ok(LineRead::Invalid),
    }
}

fn line_too_long_error() -> ServiceError {
    ServiceError::Protocol(format!(
        "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes; closing connection"
    ))
}

fn invalid_utf8_error() -> ServiceError {
    ServiceError::Protocol("request line is not valid UTF-8; closing connection".to_string())
}

/// Writes one structured error line before the caller drops the connection.
fn refuse<W: Write>(writer: &mut W, err: &ServiceError) -> std::io::Result<()> {
    writeln!(writer, "{}", error_response(err).render())?;
    writer.flush()
}

/// [`StreamSink`] over the connection writer: one JSON line per call.
struct WriterSink<'a, W: Write> {
    writer: &'a mut W,
}

impl<W: Write> StreamSink for WriterSink<'_, W> {
    fn begin(&mut self, header: &StreamHeader) -> std::io::Result<()> {
        writeln!(self.writer, "{}", stream_header_response(header).render())?;
        self.writer.flush()
    }

    fn rows(&mut self, rows: &[Vec<NodeId>]) -> std::io::Result<()> {
        writeln!(self.writer, "{}", stream_rows_frame(rows).render())?;
        self.writer.flush()
    }
}

/// Outcome of reading a batch's continuation lines.
enum BatchRead {
    /// All lines parsed.
    Set(QuerySet),
    /// At least one line failed to parse (all lines were still consumed so
    /// the connection stays in sync).
    Failed(ServiceError),
    /// A continuation line overflowed the request-line cap; the connection
    /// cannot be resynchronized and must be dropped.
    Overflow,
}

/// Reads the `count` continuation lines of a `BATCH` request.
///
/// All `count` lines are consumed even when one fails to parse — bailing
/// early would leave the remaining continuation lines in the stream to be
/// misread as top-level commands, desynchronizing the request/response
/// pairing for the rest of the connection.  (`count` was validated against
/// [`MAX_BATCH_QUERIES`] by the protocol parser.)
fn read_batch<R: BufRead>(
    reader: &mut R,
    target: String,
    count: usize,
) -> std::io::Result<BatchRead> {
    let mut set = QuerySet::new(target);
    let mut first_error = None;
    let mut line = String::new();
    for index in 0..count {
        match read_bounded_line(reader, &mut line)? {
            LineRead::Eof => {
                return Ok(BatchRead::Failed(ServiceError::Protocol(format!(
                    "connection closed after {index} of {count} batch query lines"
                ))));
            }
            LineRead::Overflow => return Ok(BatchRead::Overflow),
            LineRead::Invalid => {
                // The newline framing held, so the connection stays in sync;
                // the garbage line just fails like any unparsable query.
                first_error = first_error.or(Some(invalid_utf8_error()));
                continue;
            }
            LineRead::Line => {}
        }
        match parse_batch_query(&line) {
            Ok(spec) => {
                set.push(spec);
            }
            Err(err) => first_error = first_error.or(Some(err)),
        }
    }
    Ok(match first_error {
        Some(err) => BatchRead::Failed(err),
        None => BatchRead::Set(set),
    })
}
