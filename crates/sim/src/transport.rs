//! In-memory fault-injecting transports.
//!
//! A simulated connection is a [`ScriptReader`] (the client's scripted
//! request bytes, optionally truncated or reset mid-stream) feeding the real
//! [`sge_service::Connection`] loop, and a [`FaultWriter`] receiving the
//! server's response bytes (optionally stalling the virtual clock per line —
//! a slow reader — or failing after a line budget — a client that vanished
//! mid-response).  Both sides expose shared probes so the simulator can
//! observe consumed requests and produced responses without owning the
//! halves, which the connection does.
//!
//! The simulator drives one connection step at a time on one thread, and
//! determinism comes from never letting the OS scheduler pick an ordering.
//! The reader side is `Rc`-shared.  The writer must be `Send`, as a
//! connection's writer is (a streamed run writes its frames from the worker
//! that fills them), so its buffer is an `Arc<Mutex<…>>`; the scenarios'
//! streams run on one worker, the stepping thread.

use sge_util::VirtualClock;
use std::cell::Cell;
use std::io::{BufRead, Read, Write};
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How the client side of a scripted connection misbehaves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReadFault {
    /// The full script is delivered, then a clean EOF.
    #[default]
    None,
    /// The byte stream ends (clean EOF) after `at` bytes — a client that
    /// disconnected mid-line: the server sees a final line with no newline.
    TruncateAtByte(usize),
    /// Reads fail with `ConnectionReset` once `at` bytes were consumed — an
    /// aborted connection rather than a half-closed one.
    ResetAfterByte(usize),
}

/// The server side of a scripted connection: yields the client's bytes.
pub struct ScriptReader {
    data: Rc<Vec<u8>>,
    pos: Rc<Cell<usize>>,
    reset_after: Option<usize>,
}

impl ScriptReader {
    /// Wraps `script` under `fault`, returning the reader and a probe the
    /// simulator uses to see which bytes each step consumed.
    pub fn new(script: Vec<u8>, fault: ReadFault) -> (ScriptReader, ReaderProbe) {
        let (data, reset_after) = match fault {
            ReadFault::None => (script, None),
            ReadFault::TruncateAtByte(at) => {
                let mut data = script;
                data.truncate(at);
                (data, None)
            }
            ReadFault::ResetAfterByte(at) => (script, Some(at)),
        };
        let data = Rc::new(data);
        let pos = Rc::new(Cell::new(0));
        let probe = ReaderProbe {
            data: Rc::clone(&data),
            pos: Rc::clone(&pos),
        };
        (
            ScriptReader {
                data,
                pos,
                reset_after,
            },
            probe,
        )
    }
}

impl Read for ScriptReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ScriptReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let pos = self.pos.get().min(self.data.len());
        if let Some(reset) = self.reset_after {
            if pos >= reset && pos < self.data.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "simulated connection reset",
                ));
            }
        }
        Ok(&self.data[pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos.set((self.pos.get() + amt).min(self.data.len()));
    }
}

/// Read-side observer: which script bytes have been consumed so far.
#[derive(Clone)]
pub struct ReaderProbe {
    data: Rc<Vec<u8>>,
    pos: Rc<Cell<usize>>,
}

impl ReaderProbe {
    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos.get().min(self.data.len())
    }

    /// The script text between two consumption marks (lossy UTF-8 — fault
    /// scenarios feed garbage bytes on purpose).
    pub fn text_between(&self, from: usize, to: usize) -> String {
        let to = to.min(self.data.len());
        let from = from.min(to);
        String::from_utf8_lossy(&self.data[from..to]).into_owned()
    }
}

/// How the server's writes to this client misbehave.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteFault {
    /// Virtual-clock stall charged per completed response line — a slow
    /// reader exerting backpressure (the server "blocks" in simulated time).
    pub stall_per_line: Duration,
    /// After this many complete response lines, every further write fails
    /// with `BrokenPipe` — the client disconnected mid-response (e.g.
    /// between a streamed row frame and the footer).
    pub fail_after_lines: Option<u64>,
}

impl WriteFault {
    /// A well-behaved client.
    pub fn none() -> Self {
        WriteFault::default()
    }

    /// A slow reader: every response line stalls the virtual clock.
    pub fn slow_reader(stall_per_line: Duration) -> Self {
        WriteFault {
            stall_per_line,
            ..WriteFault::default()
        }
    }

    /// A client that vanishes after reading `lines` complete response lines.
    pub fn disconnect_after_lines(lines: u64) -> Self {
        WriteFault {
            fail_after_lines: Some(lines),
            ..WriteFault::default()
        }
    }
}

/// The server side's writer: collects response bytes, injecting the
/// configured [`WriteFault`] and charging stalls to the virtual clock.
pub struct FaultWriter {
    out: Arc<Mutex<Vec<u8>>>,
    clock: Arc<VirtualClock>,
    fault: WriteFault,
    lines_written: u64,
}

impl FaultWriter {
    /// A writer stalling/failing per `fault`, charging time to `clock`.
    pub fn new(clock: Arc<VirtualClock>, fault: WriteFault) -> (FaultWriter, WriterProbe) {
        let out = Arc::new(Mutex::new(Vec::new()));
        let probe = WriterProbe {
            out: Arc::clone(&out),
        };
        (
            FaultWriter {
                out,
                clock,
                fault,
                lines_written: 0,
            },
            probe,
        )
    }
}

impl Write for FaultWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(cap) = self.fault.fail_after_lines {
            if self.lines_written >= cap {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "simulated client disconnect",
                ));
            }
        }
        let newlines = buf.iter().filter(|&&b| b == b'\n').count() as u64;
        if newlines > 0 && self.fault.stall_per_line > Duration::ZERO {
            self.clock
                .advance(self.fault.stall_per_line * newlines as u32);
        }
        self.lines_written += newlines;
        bytes(&self.out).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Locks a writer's buffer.  Appending bytes cannot panic midway, so a
/// poisoned lock still holds every byte written.
fn bytes(out: &Mutex<Vec<u8>>) -> MutexGuard<'_, Vec<u8>> {
    out.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Write-side observer: the response bytes produced so far.
#[derive(Clone)]
pub struct WriterProbe {
    out: Arc<Mutex<Vec<u8>>>,
}

impl WriterProbe {
    /// Bytes written so far.
    pub fn len(&self) -> usize {
        bytes(&self.out).len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The response text written since a previous mark.
    pub fn text_since(&self, mark: usize) -> String {
        let out = bytes(&self.out);
        let mark = mark.min(out.len());
        String::from_utf8_lossy(&out[mark..]).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_util::Clock;

    #[test]
    fn script_reader_yields_lines_then_eof() {
        let (mut reader, probe) = ScriptReader::new(b"STATS\nSHUTDOWN\n".to_vec(), ReadFault::None);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "STATS\n");
        assert_eq!(probe.position(), 6);
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "SHUTDOWN\n");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0); // EOF
        assert_eq!(probe.text_between(0, 6), "STATS\n");
    }

    #[test]
    fn truncation_ends_the_stream_mid_line() {
        let (mut reader, _) = ScriptReader::new(
            b"STATS\nQUERY target=x\n".to_vec(),
            ReadFault::TruncateAtByte(9),
        );
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "STATS\n");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "QUE"); // partial line, no newline
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
    }

    #[test]
    fn reset_fails_further_reads() {
        let (mut reader, _) =
            ScriptReader::new(b"STATS\nMORE\n".to_vec(), ReadFault::ResetAfterByte(6));
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "STATS\n");
        line.clear();
        let err = reader.read_line(&mut line).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn fault_writer_stalls_the_clock_and_fails_after_budget() {
        let clock = Arc::new(VirtualClock::new());
        let fault = WriteFault {
            stall_per_line: Duration::from_millis(5),
            fail_after_lines: Some(2),
        };
        let (mut writer, probe) = FaultWriter::new(Arc::clone(&clock), fault);
        writeln!(writer, "one").unwrap();
        writeln!(writer, "two").unwrap();
        assert_eq!(clock.now(), Duration::from_millis(10));
        let err = writeln!(writer, "three").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert_eq!(probe.text_since(0), "one\ntwo\n");
    }
}
