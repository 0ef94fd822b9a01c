//! The TCP front end.
//!
//! One thread runs a readiness loop over a nonblocking listener, a wake
//! pipe and every client socket (raw `poll(2)` via [`sge_util::poll`] — no
//! crates, no registration lifecycle to leak).  The loop owns *transport*
//! concerns: it frames requests out of whatever bytes the network delivers
//! (a connection's buffer becomes a dispatchable *unit* once the request
//! line — plus, for `BATCH`, its announced continuation lines — has fully
//! arrived), hands each unit to a small worker pool, and drains responses
//! back to the socket under `POLLOUT` backpressure.  The workers own
//! nothing protocol-specific either: they drive the same [`Connection`]
//! state machine the deterministic simulator uses, reading the unit from an
//! in-memory cursor, so parsing, the request-line cap and every error shape
//! stay single-sourced in [`crate::connection`].
//!
//! A worker writes into its request's outbox, and every `flush` hands the
//! bytes to the loop at once, so a streamed response's header and row
//! frames leave as they are produced.  The worker blocks while more than
//! 64 KiB wait for a slow reader, which keeps server memory O(chunk).
//! Once the loop reaps the connection the worker's next flush fails, and
//! the streaming sink cancels enumeration.
//!
//! The payoff is capacity: an idle connection costs one pollfd and two
//! empty buffers instead of a parked thread, so one process holds
//! thousands of keep-alive clients while enumeration runs on the worker
//! pool.  At most one unit per connection is in flight, and the next one
//! is not framed until the previous response has fully drained — a slow
//! reader backpressures its own pipeline, never the loop.  A reader that
//! accepts none of its pending bytes for 10 s on the service clock
//! (`WRITE_STALL_TIMEOUT`) is dropped, which releases a worker blocked on
//! its outbox: stalled readers hold a worker for at most that long,
//! however many of them there are.
//!
//! `SHUTDOWN` answers, stops accepting, waits for in-flight workers and
//! pending writes up to the drain deadline on the service clock (idle
//! connections hold no half-written response and are abandoned), closes
//! every remaining outbox so a stream stalled on a reader that never reads
//! cancels instead of pinning its worker, joins the workers and returns.

use crate::connection::{Connection, StepOutcome};
use crate::protocol::{MAX_BATCH_QUERIES, MAX_REQUEST_LINE_BYTES};
use crate::Service;
use sge_obs::{EventLog, Gauge};
use sge_util::poll::{poll_entries, PollEntry, POLLIN, POLLOUT};
use sge_wire::json::Json;
use std::collections::HashMap;
use std::io::{BufReader, Cursor, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// How long [`EventServer::run`] waits for in-flight work after `SHUTDOWN`.
const DEFAULT_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Poll timeout while serving: worker output arrives through the wake
/// pipe, so the tick only bounds how stale a spurious wakeup can be and
/// how late a stalled reader is noticed.
const IDLE_POLL_TIMEOUT_MS: i32 = 500;

/// Poll timeout while draining: short, so the drain deadline on the
/// service clock is observed promptly.
const DRAIN_POLL_TIMEOUT_MS: i32 = 25;

/// Socket read granularity; the loop keeps reading until `WouldBlock`, so
/// this bounds copies, not throughput.
const READ_CHUNK: usize = 16 * 1024;

/// Bytes a worker may leave waiting in its outbox before its next flush
/// blocks until the loop has taken them.
const OUTBOX_HIGH_WATER: usize = 64 * 1024;

/// How long a connection's peer may accept none of its pending response
/// bytes before the loop drops the connection (and with it the outbox a
/// worker may be blocked on).
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
    pub fn run(self) -> std::io::Result<()> {
        let local_addr = self.listener.local_addr()?;
        self.listener.set_nonblocking(true)?;
        // The wake pipe interrupts `poll` when a worker has output for the
        // loop: the read end joins the poll set, the write end is cloned
        // into every worker.
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;

        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = default_workers();
        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let job_rx = Arc::clone(&job_rx);
            let service = Arc::clone(&self.service);
            let wake = wake_tx.try_clone()?;
            worker_handles.push(std::thread::spawn(move || {
                worker_loop(job_rx, service, wake)
            }));
        }

        log_event(
            self.event_log.as_deref(),
            self.service.as_ref(),
            "listening",
            vec![("addr", Json::str(local_addr.to_string()))],
        );

        let gauge = self.service.connections_gauge();
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_conn_id: u64 = 0;
        let mut shutting_down = false;
        let mut drain_deadline = Duration::MAX;
        let mut clean = true;

        'event_loop: loop {
            let now = self.service.clock().now();
            // 1. Move worker output onto the sockets.  An outbox is read only
            //    once the previous bytes drained, so a slow reader holds at
            //    most one outbox's worth here.
            for (&id, conn) in conns.iter_mut() {
                if !conn.write_buf.is_empty() {
                    continue;
                }
                let Some(outbox) = &conn.outbox else { continue };
                let outcome = outbox.take_into(&mut conn.write_buf);
                // Fresh bytes start the stall clock.  Common case: the
                // socket is writable right now — flush without waiting a
                // poll round.
                conn.write_progress = now;
                if flush_write(conn, now).is_err() {
                    conn.dead = true;
                }
                let Some(outcome) = outcome else {
                    continue; // still running; more output will follow
                };
                conn.outbox = None;
                match outcome {
                    StepOutcome::Continue => {}
                    StepOutcome::Closed => conn.close_after_write = true,
                    StepOutcome::ShutdownRequested => {
                        conn.close_after_write = true;
                        if !shutting_down {
                            shutting_down = true;
                            drain_deadline = now.saturating_add(self.drain_timeout);
                            log_event(
                                self.event_log.as_deref(),
                                self.service.as_ref(),
                                "shutdown",
                                vec![("conn", Json::U64(id))],
                            );
                        }
                    }
                }
            }

            // 2. Frame and dispatch ready requests.  One unit in flight per
            //    connection, and only once the previous response drained.
            if !shutting_down {
                for conn in conns.values_mut() {
                    if conn.busy() || conn.dead || conn.close_after_write {
                        continue;
                    }
                    if !conn.write_buf.is_empty() {
                        continue;
                    }
                    if let Some(len) = extract_unit(&conn.read_buf, conn.read_closed) {
                        let bytes: Vec<u8> = conn.read_buf.drain(..len).collect();
                        let outbox = Arc::new(Outbox::default());
                        conn.outbox = Some(Arc::clone(&outbox));
                        if job_tx.send(Job { outbox, bytes }).is_err() {
                            conn.dead = true; // workers are gone; nothing can serve this
                        }
                    }
                }
            }

            // 3. Reap connections that are finished or whose reader stalled.
            //    A worker still running for a reaped connection sees its
            //    outbox closed and stops.
            let finished_ids: Vec<u64> = conns
                .iter()
                .filter(|(_, conn)| conn.finished() || conn.stalled(now))
                .map(|(&id, _)| id)
                .collect();
            for id in finished_ids {
                if let Some(outbox) = conns.remove(&id).and_then(|conn| conn.outbox) {
                    outbox.close();
                }
                close_conn(&gauge, self.event_log.as_deref(), self.service.as_ref(), id);
            }

            // 4. Drain: exit once nothing is in flight, or at the deadline
            //    on the service clock (idle connections are abandoned).
            if shutting_down {
                let in_flight = conns
                    .values()
                    .any(|conn| conn.busy() || !conn.write_buf.is_empty());
                if !in_flight {
                    break 'event_loop;
                }
                if now >= drain_deadline {
                    clean = false;
                    break 'event_loop;
                }
            }

            // 5. Build the poll set.  Busy connections are not polled for
            //    reads: their next event is worker output, which arrives via
            //    the wake pipe.
            let mut entries = Vec::with_capacity(conns.len() + 2);
            let mut slots: Vec<PollSlot> = Vec::with_capacity(conns.len() + 2);
            if !shutting_down {
                entries.push(PollEntry::new(self.listener.as_raw_fd(), POLLIN));
                slots.push(PollSlot::Listener);
            }
            entries.push(PollEntry::new(wake_rx.as_raw_fd(), POLLIN));
            slots.push(PollSlot::Wake);
            for (&id, conn) in conns.iter() {
                let mut events: i16 = 0;
                if !conn.busy()
                    && !conn.read_closed
                    && !conn.close_after_write
                    && conn.write_buf.is_empty()
                {
                    events |= POLLIN;
                }
                if !conn.write_buf.is_empty() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    entries.push(PollEntry::new(conn.stream.as_raw_fd(), events));
                    slots.push(PollSlot::Conn(id));
                }
            }
            let timeout = if shutting_down {
                DRAIN_POLL_TIMEOUT_MS
            } else {
                IDLE_POLL_TIMEOUT_MS
            };
            poll_entries(&mut entries, timeout)?;
            let now = self.service.clock().now();

            // 6. Handle readiness.
            for (entry, slot) in entries.iter().zip(&slots) {
                match slot {
                    PollSlot::Listener => {
                        if !entry.readable() {
                            continue;
                        }
                        loop {
                            match self.listener.accept() {
                                Ok((stream, peer)) => {
                                    if stream.set_nonblocking(true).is_err() {
                                        continue;
                                    }
                                    next_conn_id += 1;
                                    gauge.inc();
                                    log_event(
                                        self.event_log.as_deref(),
                                        self.service.as_ref(),
                                        "conn_open",
                                        vec![
                                            ("conn", Json::U64(next_conn_id)),
                                            ("peer", Json::str(peer.to_string())),
                                        ],
                                    );
                                    conns.insert(next_conn_id, Conn::new(stream));
                                }
                                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                                Err(_) => break, // transient failure; retry next round
                            }
                        }
                    }
                    PollSlot::Wake => {
                        if entry.readable() {
                            let mut sink = [0u8; 64];
                            while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                        }
                    }
                    PollSlot::Conn(id) => {
                        let Some(conn) = conns.get_mut(id) else {
                            continue;
                        };
                        if entry.readable() && fill_read(conn).is_err() {
                            conn.dead = true;
                            continue;
                        }
                        if (entry.writable() || entry.hangup() || entry.error())
                            && flush_write(conn, now).is_err()
                        {
                            conn.dead = true;
                        }
                    }
                }
            }
        }

        // Stop the workers: closing the job channel ends their recv loop,
        // and closing every outbox fails the flush of a worker blocked on a
        // reader that stopped reading.  Then account for every abandoned
        // connection.
        drop(job_tx);
        for outbox in conns.values().filter_map(|conn| conn.outbox.as_ref()) {
            outbox.close();
        }
        for handle in worker_handles {
            let _ = handle.join();
        }
        let abandoned: Vec<u64> = conns.keys().copied().collect();
        for id in abandoned {
            close_conn(&gauge, self.event_log.as_deref(), self.service.as_ref(), id);
        }
        log_event(
            self.event_log.as_deref(),
            self.service.as_ref(),
            "drained",
            vec![("clean", Json::Bool(clean))],
        );
        Ok(())
    }
}

/// One per core, at least two: a single worker would let one long
/// enumeration starve every other connection's `STATS`/`METRICS`.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

/// What the poll-set slot at the same index refers to.
enum PollSlot {
    Listener,
    Wake,
    Conn(u64),
}

/// Per-connection state the readiness loop owns.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet framed into a request unit.
    read_buf: Vec<u8>,
    /// Response bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Service-clock time the socket last accepted bytes, or `write_buf`
    /// was refilled.
    write_progress: Duration,
    /// The outbox of the request unit a worker is executing, if any.
    outbox: Option<Arc<Outbox>>,
    /// The peer half-closed (or closed) its sending direction.
    read_closed: bool,
    /// Flush `write_buf`, then close (protocol violation or `SHUTDOWN`).
    close_after_write: bool,
    /// Transport error; drop without further I/O.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_progress: Duration::ZERO,
            outbox: None,
            read_closed: false,
            close_after_write: false,
            dead: false,
        }
    }

    /// A worker is executing this connection's current request unit.
    fn busy(&self) -> bool {
        self.outbox.is_some()
    }

    fn finished(&self) -> bool {
        if self.dead {
            return true;
        }
        if self.busy() || !self.write_buf.is_empty() {
            return false;
        }
        self.close_after_write || (self.read_closed && self.read_buf.is_empty())
    }

    /// The peer has accepted none of the pending bytes for
    /// [`WRITE_STALL_TIMEOUT`].
    fn stalled(&self, now: Duration) -> bool {
        !self.write_buf.is_empty() && now.saturating_sub(self.write_progress) >= WRITE_STALL_TIMEOUT
    }
}

/// One framed request handed to the worker pool.
struct Job {
    outbox: Arc<Outbox>,
    bytes: Vec<u8>,
}

/// The hand-off between one request's worker and the loop: response bytes
/// as the worker flushes them, then the state-machine verdict.
#[derive(Default)]
struct Outbox {
    state: Mutex<OutboxState>,
    /// Signalled when the loop takes a backlog or closes the outbox.
    taken: Condvar,
}

#[derive(Default)]
struct OutboxState {
    /// Flushed bytes the loop has not taken yet.
    bytes: Vec<u8>,
    /// Set once the worker's step returned; no bytes follow it.
    outcome: Option<StepOutcome>,
    /// The connection is gone (or the server is exiting): flushes fail.
    closed: bool,
}

impl Outbox {
    fn lock(&self) -> MutexGuard<'_, OutboxState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Worker side: moves `bytes` into the outbox, first waiting while more
    /// than [`OUTBOX_HIGH_WATER`] bytes are already waiting.  Fails once the
    /// outbox is closed.  Wakes the loop only when the outbox was empty, so
    /// a buffered response costs one wake.
    fn push(&self, bytes: &mut Vec<u8>, wake: &UnixStream) -> std::io::Result<()> {
        let mut state = self.lock();
        while state.bytes.len() > OUTBOX_HIGH_WATER && !state.closed {
            state = self.taken.wait(state).unwrap_or_else(|p| p.into_inner());
        }
        if state.closed {
            bytes.clear();
            return Err(ErrorKind::BrokenPipe.into());
        }
        let was_empty = state.bytes.is_empty();
        state.bytes.append(bytes);
        drop(state);
        if was_empty {
            wake_loop(wake);
        }
        Ok(())
    }

    /// Worker side: records the verdict after the step's last flush.
    fn finish(&self, outcome: StepOutcome, wake: &UnixStream) {
        let mut state = self.lock();
        let was_empty = state.bytes.is_empty();
        state.outcome = Some(outcome);
        drop(state);
        if was_empty {
            wake_loop(wake);
        }
    }

    /// Loop side: appends the waiting bytes to `buf` and returns the
    /// verdict once the worker has finished.
    fn take_into(&self, buf: &mut Vec<u8>) -> Option<StepOutcome> {
        let mut state = self.lock();
        // Only a backlog above the mark can have a worker waiting on it.
        let backlog = state.bytes.len() > OUTBOX_HIGH_WATER;
        buf.append(&mut state.bytes);
        let outcome = state.outcome;
        drop(state);
        if backlog {
            self.taken.notify_one();
        }
        outcome
    }

    /// Loop side: the connection is gone; the worker's next flush fails.
    fn close(&self) {
        self.lock().closed = true;
        self.taken.notify_one();
    }
}

/// Interrupts the loop's `poll`.  A full pipe already guarantees a pending
/// wake, and the loop outlives every worker, so errors are moot.
fn wake_loop(wake: &UnixStream) {
    let _ = (&*wake).write(&[1u8]);
}

/// The worker's end of an [`Outbox`]: writes collect locally and each
/// `flush` hands them to the loop.
struct OutboxWriter<'a> {
    outbox: &'a Outbox,
    wake: &'a UnixStream,
    pending: Vec<u8>,
}

impl Write for OutboxWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.outbox.push(&mut self.pending, self.wake)
    }
}

/// Executes framed requests: each unit is replayed through the shared
/// [`Connection`] state machine over an in-memory cursor, writing into the
/// request's outbox.
fn worker_loop(jobs: Arc<Mutex<Receiver<Job>>>, service: Arc<Service>, wake: UnixStream) {
    loop {
        let job = {
            let rx = jobs.lock().unwrap_or_else(|p| p.into_inner());
            match rx.recv() {
                Ok(job) => job,
                Err(_) => return, // job channel closed: server is done
            }
        };
        if job.outbox.lock().closed {
            continue; // the connection died while the unit was queued
        }
        let mut writer = OutboxWriter {
            outbox: &job.outbox,
            wake: &wake,
            pending: Vec::new(),
        };
        // The only failure is a closed outbox (the cursor cannot fail), and
        // then nobody reads the verdict; Closed keeps the loop total.
        let outcome = Connection::new(BufReader::new(Cursor::new(job.bytes)), &mut writer)
            .step(&service)
            .unwrap_or(StepOutcome::Closed);
        job.outbox.finish(outcome, &wake);
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
        match conn.stream.read(&mut chunk) {
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

/// Writes as much of `write_buf` as the socket accepts, recording `now` as
/// write progress when it accepts any.
fn flush_write(conn: &mut Conn, now: Duration) -> std::io::Result<()> {
    let mut written = 0;
    while written < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[written..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(err) if err.kind() == ErrorKind::WouldBlock => break,
            Err(err) if err.kind() == ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        }
    }
    if written > 0 {
        conn.write_progress = now;
        conn.write_buf.drain(..written);
    }
    Ok(())
}

/// Accounts for one closed connection: gauge decrement plus lifecycle log.
fn close_conn(gauge: &Gauge, log: Option<&EventLog>, service: &Service, id: u64) {
    gauge.dec();
    log_event(log, service, "conn_close", vec![("conn", Json::U64(id))]);
}

/// Records one structured JSON event line when a log is attached; a `None`
/// log costs one branch.  Timestamps come from the service clock, so logs
/// from a simulated service carry virtual time.
fn log_event(log: Option<&EventLog>, service: &Service, event: &str, fields: Vec<(&str, Json)>) {
    let Some(log) = log else { return };
    let mut pairs = vec![
        ("ts_seconds", Json::F64(service.clock().now().as_secs_f64())),
        ("event", Json::str(event)),
    ];
    pairs.extend(fields);
    log.record(&Json::obj(pairs).render());
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn outbox_wakes_on_first_bytes_blocks_above_the_mark_and_fails_once_closed() {
        let (wake_rx, wake_tx) = UnixStream::pair().unwrap();
        wake_rx.set_nonblocking(true).unwrap();
        let wakes = || {
            let mut sink = [0u8; 64];
            (&wake_rx).read(&mut sink).unwrap_or(0)
        };
        let outbox = Arc::new(Outbox::default());

        // Only the empty → non-empty transition wakes the loop.
        outbox.push(&mut b"x".to_vec(), &wake_tx).unwrap();
        assert_eq!(wakes(), 1);
        outbox
            .push(&mut vec![b'x'; OUTBOX_HIGH_WATER], &wake_tx)
            .unwrap();
        assert_eq!(wakes(), 0);

        // Above the mark the next flush waits until the loop takes.
        let (pushed_tx, pushed_rx) = channel();
        let pusher = {
            let outbox = Arc::clone(&outbox);
            let wake = wake_tx.try_clone().unwrap();
            std::thread::spawn(move || {
                let result = outbox.push(&mut b"y".to_vec(), &wake);
                pushed_tx.send(()).unwrap();
                result
            })
        };
        assert!(pushed_rx.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(wakes(), 0);
        let mut buf = Vec::new();
        assert_eq!(outbox.take_into(&mut buf), None);
        assert_eq!(buf.len(), OUTBOX_HIGH_WATER + 1);
        pusher.join().unwrap().unwrap();
        assert_eq!(wakes(), 1);

        // The verdict follows the bytes; a closed outbox fails the flush.
        outbox.finish(StepOutcome::Continue, &wake_tx);
        assert_eq!(outbox.take_into(&mut buf), Some(StepOutcome::Continue));
        assert_eq!(buf.last(), Some(&b'y'));
        outbox.close();
        let err = outbox.push(&mut b"z".to_vec(), &wake_tx).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn extract_unit_handles_interleaved_blank_lines() {
        assert_eq!(extract_unit(b"\nSTATS\n", false), Some(1));
        assert_eq!(extract_unit(b"\r\n", false), Some(2));
    }
}
