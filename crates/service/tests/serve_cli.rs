//! `sge-serve`'s command line, driven through the built binary.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a refused command line may take to exit.
const EXIT_WAIT: Duration = Duration::from_secs(10);

fn spawn(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_sge-serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("sge-serve starts")
}

/// The first stdout line of `child`, waiting at most [`EXIT_WAIT`].
fn first_line(child: &mut Child) -> Option<String> {
    let stdout = child.stdout.take().expect("stdout is piped");
    let (send, receive) = mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let _ = send.send(line);
    });
    receive.recv_timeout(EXIT_WAIT).ok()
}

/// Flag values that would break routing (`NaN` never compares below the
/// threshold, a negative threshold routes every query to stealing) are
/// refused like any malformed flag: usage and exit 2, without binding.
#[test]
fn routing_flags_that_break_routing_exit_2_without_binding() {
    let refused: [[&str; 2]; 8] = [
        ["--route-threshold", "nan"],
        ["--route-threshold", "inf"],
        ["--route-threshold", "-1"],
        ["--route-threshold", "many"],
        ["--route-states-per-worker", "0"],
        ["--route-states-per-worker", "-5"],
        ["--route-states-per-worker", "NaN"],
        ["--route-states-per-worker", "inf"],
    ];
    for args in refused {
        let mut child = spawn(&args);
        let started = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait on sge-serve") {
                break Some(status);
            }
            if started.elapsed() > EXIT_WAIT {
                break None;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let Some(status) = status else {
            child.kill().ok();
            child.wait().ok();
            panic!("sge-serve {args:?} kept running (bound and served)");
        };
        assert_eq!(status.code(), Some(2), "{args:?}");
        let printed = first_line(&mut child).unwrap_or_default();
        assert!(!printed.contains("listening"), "{args:?}: {printed}");
    }
}

/// The edges of the accepted ranges still serve: threshold 0 and one state
/// per worker.
#[test]
fn routing_flags_at_their_bounds_serve() {
    let mut child = spawn(&["--route-threshold", "0", "--route-states-per-worker", "1"]);
    let printed = first_line(&mut child);
    child.kill().ok();
    child.wait().ok();
    let printed = printed.expect("sge-serve printed its address in time");
    assert!(printed.starts_with("listening on "), "{printed}");
}
