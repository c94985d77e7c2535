#!/usr/bin/env python3
"""Benchmark of the hsmc toolchain, run from the repository root.

    python3 perfbench/run.py --workload translate --seed 1 --seconds 10 --trace 0

Builds perfbench/perfbench.exe and the toolchain libraries it links from
source with dune into .bench_build/, runs it once, and relays its result:
the last line on stdout is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  perfbench.ml describes the workloads.

Exits non-zero without printing a result when the toolchain sources are
missing, the build fails, or the harness fails.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ("translate", "simulate", "sweep", "explain")
SOURCES = ("dune-project", "lib", "perfbench/dune")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def run(cmd, timeout, env, stdout):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        return fail(f"missing {', '.join(missing)}: run from the repository root")

    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
                   "--profile", "release", TARGET],
                  BUILD_TIMEOUT_S, env, sys.stderr)
    if code != 0:
        return fail("build failed" if code is not None else "build timed out")

    code, out = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)],
                    RUN_TIMEOUT_S, env, subprocess.PIPE)
    if code != 0:
        return fail("harness failed" if code is not None else "harness timed out")
    lines = out.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail("harness printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("malformed result")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
