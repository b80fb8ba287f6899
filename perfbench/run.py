#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fleet|macro|syscall|install \
        --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
builds the simulator library from src/) into .bench_build/perfbench,
runs the arithmetic self-test, then runs one measurement. The last line of
stdout is the JSON result; build output goes to stderr. Exits non-zero,
without a result, when the build, the self-test or the measurement fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fleet", "macro", "syscall", "install")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout):
    """Run cmd with its output sent to stderr; True when it succeeds."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {cmd[0]}: {e}", file=sys.stderr)
        return False
    return proc.returncode == 0


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD), "--parallel", jobs]
    return (run_quiet(configure, BUILD_TIMEOUT_S)
            and run_quiet(compile_, BUILD_TIMEOUT_S))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    if not run_quiet([str(BUILD / "perfbench_selftest")], 60):
        print("run.py: arithmetic self-test failed", file=sys.stderr)
        return 1

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(BUILD / f"spans-{args.workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: perfbench: {e}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: perfbench exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
