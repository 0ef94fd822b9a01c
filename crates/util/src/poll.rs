//! A minimal readiness-notification primitive over the raw `poll(2)` syscall.
//!
//! The event-driven server in `sge-service` multiplexes thousands of idle
//! connections on one thread.  With crates.io unavailable the workspace rolls
//! its own binding: a `#[repr(C)]` mirror of `struct pollfd` plus an
//! EINTR-retrying wrapper around the libc `poll` symbol (libc is already
//! linked into every Rust binary on unix, so declaring the extern symbol adds
//! no dependency).  `poll` is chosen over `epoll` deliberately — it is
//! portable across unixes, has no kernel object to leak, and rebuilding the
//! interest set from the connection table on every loop iteration is cheap at
//! the scale this server targets (hundreds to a few thousand fds).
//!
//! This is the only unsafe module in the workspace (the pool's
//! `Scope::offer` is the only other unsafe function); the crate-level lint
//! is `deny(unsafe_code)` with a scoped allow here, and the unsafety is
//! confined to the FFI call itself (the slice pointer/length pair handed to
//! the kernel is derived from a live `&mut [PollEntry]`).

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;

/// Data available to read (mirror of `POLLIN`).
pub const POLLIN: i16 = 0x001;
/// Writing now will not block (mirror of `POLLOUT`).
pub const POLLOUT: i16 = 0x004;
/// Error condition (mirror of `POLLERR`; output only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (mirror of `POLLHUP`; output only).
pub const POLLHUP: i16 = 0x010;
/// Invalid fd (mirror of `POLLNVAL`; output only).
pub const POLLNVAL: i16 = 0x020;

/// One entry of the interest set — layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollEntry {
    /// The file descriptor to watch (negative entries are ignored by the
    /// kernel, which callers can use to mask out slots without reshuffling).
    pub fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT` bitmask).
    pub events: i16,
    /// Returned events; filled in by [`poll`].
    pub revents: i16,
}

impl PollEntry {
    /// An entry watching `fd` for the given interest bits.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollEntry {
            fd,
            events,
            revents: 0,
        }
    }

    /// `true` when the descriptor is readable (or has a pending hangup/error,
    /// which reads also surface).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// `true` when the descriptor is writable.
    pub fn writable(&self) -> bool {
        self.revents & POLLOUT != 0
    }

    /// `true` when the peer hung up.
    pub fn hangup(&self) -> bool {
        self.revents & POLLHUP != 0
    }

    /// `true` on an error or invalid-fd condition.
    pub fn error(&self) -> bool {
        self.revents & (POLLERR | POLLNVAL) != 0
    }
}

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollEntry, nfds: NfdsT, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// Waits until at least one entry has a ready event, the timeout elapses, or
/// a signal arrives (EINTR is retried internally).
///
/// `timeout_ms < 0` blocks indefinitely, `0` polls without blocking.  Returns
/// the number of entries with a nonzero `revents`.
pub fn poll_entries(entries: &mut [PollEntry], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `entries` is a live, exclusively borrowed slice of
        // `#[repr(C)]` structs matching `struct pollfd`; the kernel writes
        // only to `revents` within the given length.
        let rc = unsafe { poll(entries.as_mut_ptr(), entries.len() as NfdsT, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            continue;
        }
        return Err(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn empty_set_times_out() {
        let ready = poll_entries(&mut [], 10).unwrap();
        assert_eq!(ready, 0);
    }

    #[test]
    fn pending_data_reports_readable() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut entries = [PollEntry::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(poll_entries(&mut entries, 0).unwrap(), 0);
        assert!(!entries[0].readable());

        a.write_all(b"x").unwrap();
        let ready = poll_entries(&mut entries, 1000).unwrap();
        assert_eq!(ready, 1);
        assert!(entries[0].readable());
        assert!(!entries[0].writable());
    }

    #[test]
    fn idle_stream_reports_writable() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut entries = [PollEntry::new(a.as_raw_fd(), POLLOUT)];
        let ready = poll_entries(&mut entries, 1000).unwrap();
        assert_eq!(ready, 1);
        assert!(entries[0].writable());
    }

    #[test]
    fn closed_peer_reports_hangup_on_read_interest() {
        let (a, mut b) = UnixStream::pair().unwrap();
        drop(a);
        let mut entries = [PollEntry::new(b.as_raw_fd(), POLLIN)];
        let ready = poll_entries(&mut entries, 1000).unwrap();
        assert_eq!(ready, 1);
        assert!(entries[0].readable());
        let mut buf = [0u8; 1];
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn negative_fd_entries_are_ignored() {
        let (mut a, b) = UnixStream::pair().unwrap();
        a.write_all(b"x").unwrap();
        let mut entries = [
            PollEntry::new(-1, POLLIN),
            PollEntry::new(b.as_raw_fd(), POLLIN),
        ];
        let ready = poll_entries(&mut entries, 1000).unwrap();
        assert_eq!(ready, 1);
        assert_eq!(entries[0].revents, 0);
        assert!(entries[1].readable());
    }
}
