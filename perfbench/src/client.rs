//! The serving path from outside: a spawned `sge-serve` (default flags:
//! event loop, unsharded) and one loopback connection to it.
//!
//! Every request goes out in a single `write`, the way the shipped client
//! sends it: the server does not set `TCP_NODELAY`, so a request split over
//! two writes would stall on Nagle plus delayed ACK.

use crate::json::{self, Json};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `sge-serve`; killed and reaped on drop if still alive.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    // Held open so a late write to stdout cannot fail on a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns `bin` on an ephemeral loopback port and waits until it
    /// reports `listening on <addr>`.
    pub fn spawn(bin: &Path) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|addr| addr.parse().ok());
        let server = Server {
            child,
            addr: addr.unwrap_or_else(|| ([127, 0, 0, 1], 0).into()),
            _stdout: stdout,
        };
        match addr {
            Some(_) => Ok(server),
            None => Err(io::Error::other(format!(
                "sge-serve did not report its address: {line:?}"
            ))),
        }
    }

    /// Peak resident set of the server process (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `SHUTDOWN` on `conn` and waits (up to 10 s) for the process to
    /// exit.
    pub fn shutdown(mut self, mut conn: Conn) -> io::Result<()> {
        let reply = conn.call("SHUTDOWN")?;
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return if json::ok_line(&reply) {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("SHUTDOWN refused: {reply}")))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(io::Error::other("sge-serve did not exit after SHUTDOWN"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mib(status_path: &str) -> Option<f64> {
    std::fs::read_to_string(status_path)
        .ok()?
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// What a streamed request delivered.
pub struct StreamReply {
    /// Time from writing the request to receiving the first row frame.
    pub first_row: Option<Duration>,
    pub rows: u64,
    /// The footer line, or the header when the stream was refused.
    pub footer: String,
    /// Every frame line, when kept for validation.
    pub frames: Vec<String>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Writes one request (newline included) in a single write.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.writer.write_all(request)
    }

    /// Reads one reply line into `line`, newline stripped.
    pub fn read_line(&mut self, line: &mut String) -> io::Result<()> {
        line.clear();
        if self.reader.read_line(line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with(['\n', '\r']) {
            line.pop();
        }
        Ok(())
    }

    /// One single-line request and its reply.
    pub fn call(&mut self, request: &str) -> io::Result<String> {
        self.send(format!("{request}\n").as_bytes())?;
        let mut line = String::new();
        self.read_line(&mut line)?;
        Ok(line)
    }

    /// [`Conn::call`], parsed; replies with `ok:false` are errors.
    pub fn call_json(&mut self, request: &str) -> io::Result<Json> {
        let line = self.call(request)?;
        let reply = Json::parse(&line).map_err(io::Error::other)?;
        if reply.is_ok() {
            Ok(reply)
        } else {
            Err(io::Error::other(format!("{request:.40}: {line}")))
        }
    }

    /// Sends a streamed query and reads its header, frames and footer.
    pub fn stream(
        &mut self,
        request: &[u8],
        started: Instant,
        keep_frames: bool,
        line: &mut String,
    ) -> io::Result<StreamReply> {
        self.send(request)?;
        self.read_line(line)?;
        let mut reply = StreamReply {
            first_row: None,
            rows: 0,
            footer: String::new(),
            frames: Vec::new(),
        };
        if !json::stream_header(line) {
            reply.footer = line.clone();
            return Ok(reply);
        }
        loop {
            self.read_line(line)?;
            if !json::row_frame(line) {
                reply.footer = line.clone();
                return Ok(reply);
            }
            if reply.first_row.is_none() {
                reply.first_row = Some(started.elapsed());
            }
            reply.rows += json::frame_rows(line);
            if keep_frames {
                reply.frames.push(line.clone());
            }
        }
    }
}
