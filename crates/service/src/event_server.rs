//! The TCP front end.
//!
//! Leader/followers (D. C. Schmidt, C. O'Ryan, M. Kircher, I. Pyarali and
//! F. Buschmann, PLoP 2000) over one readiness set: a nonblocking listener,
//! a wake pipe and every idle client socket (raw `poll(2)` via
//! [`sge_util::poll`] — no crates, no registration lifecycle to leak).
//! `run()`'s caller and `default_workers() − 1` spawned threads take turns
//! leading.  The leader owns *transport* concerns: it frames requests out
//! of whatever bytes the network delivers (a connection's buffer holds a
//! *unit* once the request line — plus, for `BATCH`, its announced
//! continuation lines — has fully arrived).  It first takes any connection
//! whose buffer already holds a unit; otherwise it polls the set and reads
//! what arrived.  Once it has a unit it marks the connection held, hands
//! the lead to a parked follower and answers the unit itself: it steps the
//! same [`Connection`] state machine the deterministic simulator uses over
//! the unit's bytes, so parsing, the request-line cap and every error shape
//! stay single-sourced in [`crate::connection`].  A request is read, run
//! and answered on one thread.
//!
//! The step writes straight to the socket, and each `flush` sends what was
//! written since the last one in one `write(2)` (the server does not set
//! `TCP_NODELAY`, so a reply split over two writes could wait for a delayed
//! ACK).  A streamed response's header and row frames leave as they are
//! produced; the socket's send buffer is the backpressure, and while it is
//! full the writer waits for `POLLOUT` on that socket alone.  A reader
//! that accepts none of the pending bytes for 10 s on the service clock
//! (`WRITE_STALL_TIMEOUT`) fails the flush, as a disconnect does, and the
//! streaming sink cancels enumeration: stalled readers hold a thread for at
//! most that long, however many of them there are.  Once its unit is
//! answered the connection rejoins the set, waking a polling leader
//! through the pipe.
//!
//! The payoff of the set is capacity: an idle connection costs one pollfd
//! and an empty buffer instead of a parked thread, so one process holds
//! thousands of keep-alive clients while `default_workers()` threads
//! answer.  At most one unit per connection is in flight, and the next one
//! is not framed until the previous response was written — a slow reader
//! backpressures its own pipeline, never another connection's.
//!
//! `SHUTDOWN` answers, stops accepting and waits for every held connection
//! up to the drain deadline on the service clock (idle connections hold no
//! half-written response and are abandoned).  At the deadline it shuts
//! down every socket still held, so a stream stalled on a reader that never
//! reads fails its next flush instead of pinning its thread, waits for the
//! threads and returns.

use crate::connection::{Connection, StepOutcome};
use crate::protocol::{MAX_BATCH_QUERIES, MAX_REQUEST_LINE_BYTES};
use crate::Service;
use sge_obs::{EventLog, Gauge};
use sge_util::clock::Clock;
use sge_util::poll::{poll_entries, PollEntry, POLLIN, POLLOUT};
use sge_wire::json::Json;
use std::collections::BTreeMap;
use std::io::{Cursor, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Bound;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// How long [`EventServer::run`] waits for in-flight work after `SHUTDOWN`.
const DEFAULT_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Poll timeout while serving: rejoining connections and `SHUTDOWN` wake
/// the leader through the pipe, so the tick only bounds how stale a
/// spurious wakeup can be.  A writer waiting for `POLLOUT` reads the
/// service clock at the same tick, which bounds how late a stalled reader
/// is noticed.
const IDLE_POLL_TIMEOUT_MS: i32 = 500;

/// Poll timeout while draining: short, so the drain deadline on the
/// service clock is observed promptly.
const DRAIN_POLL_TIMEOUT_MS: i32 = 25;

/// Socket read granularity; the leader keeps reading until `WouldBlock`,
/// so this bounds copies, not throughput.
const READ_CHUNK: usize = 16 * 1024;

/// How long a connection's peer may accept none of its pending response
/// bytes before the flush fails (and with it the stream it carries).
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// A bound, not-yet-running event-driven server.
pub struct EventServer {
    listener: TcpListener,
    service: Arc<Service>,
    drain_timeout: Duration,
    event_log: Option<Arc<EventLog>>,
}

impl EventServer {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<Service>) -> std::io::Result<EventServer> {
        Ok(EventServer {
            listener: TcpListener::bind(addr)?,
            service,
            drain_timeout: DEFAULT_DRAIN_TIMEOUT,
            event_log: None,
        })
    }

    /// Sets how long `run` waits for in-flight work after `SHUTDOWN`.
    pub fn with_drain_timeout(mut self, timeout: Duration) -> EventServer {
        self.drain_timeout = timeout;
        self
    }

    /// Attaches a structured event log: the server records one JSON line per
    /// lifecycle event (`listening`, `conn_open`, `conn_close`, `shutdown`,
    /// `drained`) with timestamps from the service clock.  Without a log the
    /// server pays nothing.
    pub fn with_event_log(mut self, log: Arc<EventLog>) -> EventServer {
        // Share the log with the service so non-lifecycle events (bitmap
        // cap fallbacks on LOAD) land in the same stream.
        self.service.set_event_log(Arc::clone(&log));
        self.event_log = Some(log);
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a client issues `SHUTDOWN`, then drains.
    /// The calling thread serves too, beside `default_workers() − 1`
    /// threads started here.
    pub fn run(self) -> std::io::Result<()> {
        let local_addr = self.listener.local_addr()?;
        self.listener.set_nonblocking(true)?;
        // The wake pipe interrupts the leader's `poll` when a connection
        // rejoins the set or `SHUTDOWN` changes what the set holds.
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let front = Front {
            listener: self.listener,
            gauge: self.service.connections_gauge(),
            service: self.service,
            event_log: self.event_log,
            drain_timeout: self.drain_timeout,
            wake_rx,
            wake_tx,
            state: Mutex::new(State::default()),
            turn: Condvar::new(),
        };
        front.log(
            "listening",
            vec![("addr", Json::str(local_addr.to_string()))],
        );

        std::thread::scope(|scope| {
            for _ in 1..default_workers() {
                scope.spawn(|| front.serve());
            }
            front.serve();
        });

        // Every thread has returned: account for the abandoned connections.
        let mut state = front.lock();
        for &id in state.conns.keys() {
            front.close_conn(id);
        }
        front.log("drained", vec![("clean", Json::Bool(!state.forced))]);
        state.error.take().map_or(Ok(()), Err)
    }
}

/// One per core, at least two: a single thread would let one long
/// enumeration starve every other connection's `STATS`/`METRICS`.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

/// What the serving threads share.
struct Front {
    listener: TcpListener,
    service: Arc<Service>,
    event_log: Option<Arc<EventLog>>,
    drain_timeout: Duration,
    gauge: Gauge,
    /// The read end sits in the poll set; a byte written to the other end
    /// interrupts the leader's `poll`.
    wake_rx: UnixStream,
    wake_tx: UnixStream,
    state: Mutex<State>,
    /// Signalled when the lead is free or every thread is to return.
    turn: Condvar,
}

/// The connections and the turn-taking, under [`Front::state`].
#[derive(Default)]
struct State {
    conns: BTreeMap<u64, Conn>,
    next_conn_id: u64,
    /// The connection the last unit came from; the next scan starts after
    /// it, so ready connections take turns.
    cursor: u64,
    /// A thread leads: it takes the next unit, polling for one if need be.
    leading: bool,
    /// The leader is blocked in `poll` on a set built before the last
    /// change; whoever changes the set writes to the wake pipe.
    polling: bool,
    shutting_down: bool,
    drain_deadline: Duration,
    /// The drain reached its deadline with connections held and shut their
    /// sockets down.
    forced: bool,
    /// Every thread is to return.
    done: bool,
    /// A failed `poll`, which ends the server; `run` returns it.
    error: Option<std::io::Error>,
}

/// One client connection.
struct Conn {
    /// Shared with the thread answering this connection's unit, and with
    /// the drain, which shuts a held socket down at its deadline.
    stream: Arc<TcpStream>,
    /// Bytes received but not yet framed into a request unit.
    read_buf: Vec<u8>,
    /// The peer half-closed (or closed) its sending direction.
    read_closed: bool,
    /// A thread is answering a unit of this connection, which is out of the
    /// poll set meanwhile.
    held: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream: Arc::new(stream),
            read_buf: Vec::new(),
            read_closed: false,
            held: false,
        }
    }

    fn finished(&self) -> bool {
        !self.held && self.read_closed && self.read_buf.is_empty()
    }
}

/// One framed request, taken by the thread that answers it.
struct Unit {
    conn: u64,
    stream: Arc<TcpStream>,
    bytes: Vec<u8>,
}

impl State {
    /// Takes the first complete unit after the cursor and holds its
    /// connection.
    fn take_unit(&mut self) -> Option<Unit> {
        let after = (Bound::Excluded(self.cursor), Bound::Unbounded);
        let (id, len) = self
            .conns
            .range(after)
            .chain(self.conns.range(..=self.cursor))
            .filter(|(_, conn)| !conn.held)
            .find_map(|(&id, conn)| Some((id, extract_unit(&conn.read_buf, conn.read_closed)?)))?;
        self.cursor = id;
        let conn = self.conns.get_mut(&id)?;
        conn.held = true;
        Some(Unit {
            conn: id,
            stream: Arc::clone(&conn.stream),
            bytes: conn.read_buf.drain(..len).collect(),
        })
    }
}

/// What the poll-set slot at the same index refers to.
enum PollSlot {
    Listener,
    Wake,
    Conn(u64),
}

impl Front {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// One serving thread: lead when the lead is free, park otherwise;
    /// answer each unit the lead yields, then return its connection.
    fn serve(&self) {
        let mut state = self.lock();
        while !state.done {
            if state.leading {
                state = self.turn.wait(state).unwrap_or_else(|p| p.into_inner());
                continue;
            }
            state.leading = true;
            let (next, unit) = self.lead(state);
            state = next;
            state.leading = false;
            let Some(unit) = unit else { break };
            drop(state);
            self.turn.notify_one();
            let outcome = self.answer(&unit);
            state = self.lock();
            self.rejoin(&mut state, unit.conn, outcome);
        }
    }

    /// Leads until a unit is taken, or returns `None` once the server is
    /// done (waking every parked thread).
    fn lead<'a>(
        &'a self,
        mut state: MutexGuard<'a, State>,
    ) -> (MutexGuard<'a, State>, Option<Unit>) {
        let mut entries = Vec::new();
        let mut slots = Vec::new();
        loop {
            if !state.shutting_down {
                if let Some(unit) = state.take_unit() {
                    return (state, Some(unit));
                }
            }

            state.conns.retain(|&id, conn| {
                let finished = conn.finished();
                if finished {
                    self.close_conn(id);
                }
                !finished
            });

            // The drain ends once no connection is held; at its deadline on
            // the service clock it fails every held socket's writes.
            if state.shutting_down {
                if !state.conns.values().any(|conn| conn.held) {
                    state.done = true;
                    self.turn.notify_all();
                    return (state, None);
                }
                if !state.forced && self.service.clock().now() >= state.drain_deadline {
                    state.forced = true;
                    for conn in state.conns.values().filter(|conn| conn.held) {
                        let _ = conn.stream.shutdown(Shutdown::Both);
                    }
                }
            }

            entries.clear();
            slots.clear();
            if !state.shutting_down {
                entries.push(PollEntry::new(self.listener.as_raw_fd(), POLLIN));
                slots.push(PollSlot::Listener);
            }
            entries.push(PollEntry::new(self.wake_rx.as_raw_fd(), POLLIN));
            slots.push(PollSlot::Wake);
            for (&id, conn) in &state.conns {
                if !conn.held && !conn.read_closed {
                    entries.push(PollEntry::new(conn.stream.as_raw_fd(), POLLIN));
                    slots.push(PollSlot::Conn(id));
                }
            }
            let timeout = if state.shutting_down {
                DRAIN_POLL_TIMEOUT_MS
            } else {
                IDLE_POLL_TIMEOUT_MS
            };
            state.polling = true;
            drop(state);
            let polled = poll_entries(&mut entries, timeout);
            state = self.lock();
            state.polling = false;
            if let Err(err) = polled {
                state.error = Some(err);
                state.done = true;
                self.turn.notify_all();
                return (state, None);
            }

            for (entry, slot) in entries.iter().zip(&slots) {
                if !entry.readable() {
                    continue;
                }
                match slot {
                    PollSlot::Listener => self.accept(&mut state),
                    PollSlot::Wake => {
                        let mut sink = [0u8; 64];
                        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                    }
                    PollSlot::Conn(id) => {
                        let failed = state.conns.get_mut(id).map(fill_read);
                        if matches!(failed, Some(Err(_))) {
                            state.conns.remove(id);
                            self.close_conn(*id);
                        }
                    }
                }
            }
        }
    }

    /// Accepts every pending connection into the set; each is read once a
    /// later poll finds it readable.
    fn accept(&self, state: &mut State) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    state.next_conn_id += 1;
                    let id = state.next_conn_id;
                    self.gauge.inc();
                    self.log(
                        "conn_open",
                        vec![
                            ("conn", Json::U64(id)),
                            ("peer", Json::str(peer.to_string())),
                        ],
                    );
                    state.conns.insert(id, Conn::new(stream));
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break, // transient failure; retry next round
            }
        }
    }

    /// Steps the shared state machine over one unit, writing the response
    /// straight to the socket.  A panic outside the query pipeline (which
    /// contains its own) closes the connection instead of ending the
    /// thread.
    fn answer(&self, unit: &Unit) -> std::io::Result<StepOutcome> {
        let socket = &*unit.stream;
        let clock = self.service.clock().as_ref();
        let mut writer = SocketWriter::new(socket, |since: &mut Option<Duration>| {
            await_writable(socket, clock, since)
        });
        catch_unwind(AssertUnwindSafe(|| {
            Connection::new(Cursor::new(&unit.bytes[..]), &mut writer).step(&self.service)
        }))
        .unwrap_or_else(|_| Err(ErrorKind::Other.into()))
    }

    /// Returns a connection to the set after its unit, or closes it.
    fn rejoin(&self, state: &mut State, id: u64, outcome: std::io::Result<StepOutcome>) {
        if matches!(outcome, Ok(StepOutcome::ShutdownRequested)) && !state.shutting_down {
            state.shutting_down = true;
            let now = self.service.clock().now();
            state.drain_deadline = now.saturating_add(self.drain_timeout);
            self.log("shutdown", vec![("conn", Json::U64(id))]);
        }
        if matches!(outcome, Ok(StepOutcome::Continue)) {
            if let Some(conn) = state.conns.get_mut(&id) {
                conn.held = false;
            }
        } else {
            state.conns.remove(&id);
            self.close_conn(id);
        }
        if std::mem::take(&mut state.polling) {
            // A full pipe already holds a pending wake.
            let _ = (&self.wake_tx).write(&[1u8]);
        }
    }

    /// Accounts for one closed connection: gauge decrement plus lifecycle
    /// log.
    fn close_conn(&self, id: u64) {
        self.gauge.dec();
        self.log("conn_close", vec![("conn", Json::U64(id))]);
    }

    /// Records one structured JSON event line when a log is attached; no
    /// log costs one branch.  Timestamps come from the service clock, so
    /// logs from a simulated service carry virtual time.
    fn log(&self, event: &str, fields: Vec<(&str, Json)>) {
        let Some(log) = &self.event_log else { return };
        let mut pairs = vec![
            (
                "ts_seconds",
                Json::F64(self.service.clock().now().as_secs_f64()),
            ),
            ("event", Json::str(event)),
        ];
        pairs.extend(fields);
        log.record(&Json::obj(pairs).render());
    }
}

/// A unit's response writer: writes collect in `pending`, and each `flush`
/// hands them to the socket in one `write(2)` when the socket takes them
/// all.  Once a flush has failed every later one fails at once, so a step
/// that writes again (a cancelled stream's footer) waits out no second
/// stall.
struct SocketWriter<W, F> {
    socket: W,
    pending: Vec<u8>,
    /// Waits until the socket takes bytes again; its argument is the
    /// service-clock time the socket last refused them, set by the first
    /// wait after progress.  Fails once the peer has stalled too long.
    await_writable: F,
    broken: bool,
}

impl<W: Write, F: FnMut(&mut Option<Duration>) -> std::io::Result<()>> SocketWriter<W, F> {
    fn new(socket: W, await_writable: F) -> Self {
        SocketWriter {
            socket,
            pending: Vec::new(),
            await_writable,
            broken: false,
        }
    }

    fn send(&mut self) -> std::io::Result<()> {
        if self.broken {
            return Err(ErrorKind::BrokenPipe.into());
        }
        let mut written = 0;
        let mut refused_since = None;
        while written < self.pending.len() {
            match self.socket.write(&self.pending[written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    written += n;
                    refused_since = None;
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => {
                    (self.await_writable)(&mut refused_since)?
                }
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
        Ok(())
    }
}

impl<W: Write, F: FnMut(&mut Option<Duration>) -> std::io::Result<()>> Write
    for SocketWriter<W, F>
{
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let sent = self.send();
        self.pending.clear();
        self.broken |= sent.is_err();
        sent
    }
}

/// Waits for `POLLOUT` on `socket` alone.  Fails once the service clock
/// reads [`WRITE_STALL_TIMEOUT`] past `since`, which the first wait after
/// progress sets.  A hangup or error counts as ready: the next write
/// reports it.
fn await_writable(
    socket: &impl AsRawFd,
    clock: &dyn Clock,
    since: &mut Option<Duration>,
) -> std::io::Result<()> {
    let since = *since.get_or_insert_with(|| clock.now());
    loop {
        let mut entry = [PollEntry::new(socket.as_raw_fd(), POLLOUT)];
        if poll_entries(&mut entry, IDLE_POLL_TIMEOUT_MS)? > 0 {
            return Ok(());
        }
        if clock.now().saturating_sub(since) >= WRITE_STALL_TIMEOUT {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "the peer accepted no response bytes within the write stall timeout",
            ));
        }
    }
}

/// Returns the byte length of the first complete request unit in `buf`, or
/// `None` when more bytes must arrive first.
///
/// A unit is one request line plus, for `BATCH`, the continuation lines its
/// header announces — exactly what [`Connection::step`] consumes.  Three
/// boundary cases dispatch *incomplete* bytes on purpose, because the state
/// machine's bounded reader already produces the documented outcome for
/// them: an unterminated line past the request-line cap (step answers the
/// structured overflow error and closes), a header announcing more
/// continuations than the batch cap (step refuses it without reading them),
/// and EOF (step sees the same truncated stream a blocking reader would).
fn extract_unit(buf: &[u8], read_closed: bool) -> Option<usize> {
    let mut start = 0;
    let mut lines_needed = 1;
    let mut found = 0;
    loop {
        match buf[start..].iter().position(|&b| b == b'\n') {
            Some(offset) => {
                let end = start + offset + 1;
                found += 1;
                if found == 1 {
                    let header = String::from_utf8_lossy(&buf[..end]);
                    let announced = crate::client::continuation_lines(&header);
                    if announced > MAX_BATCH_QUERIES {
                        return Some(end);
                    }
                    lines_needed += announced;
                }
                if found == lines_needed {
                    return Some(end);
                }
                start = end;
            }
            None => {
                return if buf.len() - start > MAX_REQUEST_LINE_BYTES
                    || (read_closed && !buf.is_empty())
                {
                    Some(buf.len())
                } else {
                    None
                };
            }
        }
    }
}

/// Reads everything the socket has (until `WouldBlock`); EOF sets
/// `read_closed` instead of erroring.
fn fill_read(conn: &mut Conn) -> std::io::Result<()> {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match (&*conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                return Ok(());
            }
            Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
            Err(err) if err.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(err) if err.kind() == ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_util::clock::VirtualClock;

    #[test]
    fn extract_unit_waits_for_the_newline() {
        assert_eq!(extract_unit(b"STATS", false), None);
        assert_eq!(extract_unit(b"STATS\n", false), Some(6));
        assert_eq!(extract_unit(b"STATS\nMETRICS\n", false), Some(6));
    }

    #[test]
    fn extract_unit_groups_batch_continuations() {
        let buf = b"BATCH target=k5 n=2\npattern=x\n";
        assert_eq!(extract_unit(buf, false), None, "one continuation missing");
        let full = b"BATCH target=k5 n=2\npattern=x\npattern=y\nNEXT\n";
        assert_eq!(extract_unit(full, false), Some(full.len() - 5));
    }

    #[test]
    fn extract_unit_dispatches_eof_tails_and_overflows() {
        // EOF turns a dangling partial line into a final unit.
        assert_eq!(extract_unit(b"STATS", true), Some(5));
        assert_eq!(extract_unit(b"", true), None);
        // An unterminated line past the cap dispatches so the state machine
        // can answer the structured overflow error.
        let oversized = vec![b'x'; MAX_REQUEST_LINE_BYTES + 1];
        assert_eq!(extract_unit(&oversized, false), Some(oversized.len()));
        // An over-cap announcement dispatches the bare header: step refuses
        // it without waiting for (unbounded) continuations.
        let header = format!("BATCH target=k5 n={}\n", MAX_BATCH_QUERIES + 1);
        assert_eq!(extract_unit(header.as_bytes(), false), Some(header.len()));
    }

    #[test]
    fn extract_unit_handles_interleaved_blank_lines() {
        assert_eq!(extract_unit(b"\nSTATS\n", false), Some(1));
        assert_eq!(extract_unit(b"\r\n", false), Some(2));
    }

    /// A socket stand-in that takes at most `cap` bytes a call, refuses
    /// every `refuse_every`-th call with `WouldBlock`, and counts the calls.
    struct Counting {
        cap: usize,
        refuse_every: usize,
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Counting {
        fn new(cap: usize, refuse_every: usize) -> Counting {
            Counting {
                cap,
                refuse_every,
                calls: 0,
                bytes: Vec::new(),
            }
        }
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(self.refuse_every) {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.cap);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_flush_is_one_write_and_a_short_write_loses_no_byte() {
        // A buffered reply: the line's pieces collect, and the flush hands
        // them to the socket in one call.
        let never = |_: &mut Option<Duration>| -> std::io::Result<()> { unreachable!() };
        let mut writer = SocketWriter::new(Counting::new(usize::MAX, usize::MAX), never);
        let reply = r#"{"ok":true,"matches":60}"#;
        writeln!(writer, "{reply}").unwrap();
        assert_eq!(writer.socket.calls, 0);
        writer.flush().unwrap();
        assert_eq!(writer.socket.calls, 1);
        assert_eq!(writer.socket.bytes, b"{\"ok\":true,\"matches\":60}\n");

        // A flush bigger than one call takes: the rest goes on from where
        // the socket stopped, through refusals, and arrives whole.
        let mut waits = 0;
        let frame: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut writer = SocketWriter::new(Counting::new(4096, 5), |_: &mut Option<Duration>| {
            waits += 1;
            Ok(())
        });
        writer.write_all(&frame).unwrap();
        writer.flush().unwrap();
        assert_eq!(writer.socket.bytes, frame);
        let calls = writer.socket.calls;
        drop(writer);
        // 25 calls take bytes (24 full ones), and every fifth call refuses.
        assert_eq!((calls, waits), (31, 6));
    }

    #[test]
    fn a_failed_flush_fails_every_later_one_without_writing() {
        let stalled = |since: &mut Option<Duration>| -> std::io::Result<()> {
            assert!(since.is_none(), "no progress since the last wait");
            Err(ErrorKind::TimedOut.into())
        };
        let mut writer = SocketWriter::new(Counting::new(usize::MAX, 1), stalled);
        writeln!(writer, "frame").unwrap();
        assert_eq!(writer.flush().unwrap_err().kind(), ErrorKind::TimedOut);
        writeln!(writer, "footer").unwrap();
        assert_eq!(writer.flush().unwrap_err().kind(), ErrorKind::BrokenPipe);
        assert_eq!(writer.socket.calls, 1);
    }

    #[test]
    fn a_writer_waits_on_the_service_clock_and_wakes_on_hangup() {
        // Fill a socket nobody reads.
        let (full, peer) = UnixStream::pair().unwrap();
        full.set_nonblocking(true).unwrap();
        while (&full).write(&[0u8; 4096]).is_ok() {}
        let clock = VirtualClock::new();
        // Refused since t = 0, read at t = 11 s: one tick, then the stall.
        clock.advance(Duration::from_secs(11));
        let err = await_writable(&full, &clock, &mut Some(Duration::ZERO)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        // The first wait after progress starts the stall clock, and a
        // hangup ends the wait at once.
        let mut since = None;
        drop(peer);
        await_writable(&full, &clock, &mut since).unwrap();
        assert_eq!(since, Some(Duration::from_secs(11)));
    }
}
