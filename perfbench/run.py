#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is a Cargo package of
its own (perfbench/Cargo.toml) that depends on the repository's crates by
path; it is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` under the current directory). Build output goes to
standard error, so the last line of standard output is the result object
printed by the benchmark. The exit code is non-zero when the build fails,
the benchmark fails, or its last line is not a well-formed result.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir, "release", "perfbench")


def well_formed(line):
    try:
        doc = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(doc, dict)
        and set(doc) == RESULT_KEYS
        and isinstance(doc["attempted"], int)
        and doc["attempted"] >= 1
        and isinstance(doc["metrics"], dict)
    )


def main(argv):
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(target_dir)
    if exe is None:
        return 1
    # Its own session, so a run that overstays, or is interrupted, is
    # stopped together with the companion processes it spawned.
    proc = subprocess.Popen([exe] + argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not well_formed(lines[-1]):
        print(f"perfbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
