#!/usr/bin/env python3
"""Build sge-serve and the perfbench harness from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <enum_long|serve_ppi> \
        --seed <n> --seconds <s> --trace <0|1>

Builds go to $CARGO_TARGET_DIR (default: .bench_build in the repository root),
offline: every dependency is a path dependency.  The harness prints one line
per metric and, last, one JSON object with correct/attempted/failed/metrics.
Exits non-zero without a result when the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

# Hard stop for the harness: a run must end well within three minutes.
HARNESS_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    target_dir = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target_dir

    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "sge-service", "--bin", "sge-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for command in builds:
        # Build chatter goes to stderr: stdout carries only the harness output.
        if subprocess.call(command, env=env, stdout=sys.stderr, cwd=root) != 0:
            print("perfbench: build failed: " + " ".join(command), file=sys.stderr)
            return 1

    env["PERFBENCH_RUSTC"] = probe(["rustc", "--version"], root) or "unknown"
    env["PERFBENCH_GIT_REV"] = probe(["git", "rev-parse", "HEAD"], root) or "none"
    harness = [
        os.path.join(target_dir, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", os.path.join(target_dir, "release", "sge-serve"),
        "--work-dir", os.path.join(target_dir, "perfbench-work"),
    ]
    sys.stdout.flush()
    # A session of its own, so a timeout takes down the harness and every
    # server or runner it started.
    child = subprocess.Popen(harness, env=env, cwd=root, start_new_session=True)
    try:
        return child.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 1
    except KeyboardInterrupt:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 130


def probe(command, cwd):
    """First line of a command's output, or None when it fails."""
    try:
        out = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else None


if __name__ == "__main__":
    sys.exit(main())
