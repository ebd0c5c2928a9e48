#!/usr/bin/env python3
"""Guardrail-plane benchmark for osguard.

Builds the benchmark driver from the checkout's own sources (perfbench/
CMakeLists.txt compiles ../src) and runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to .bench_build/perfbench
and is incremental; persist directories and span dumps go to
.bench_build/work. The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the line before it carries the
host fingerprint and the sample counts. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("linnos-drift", "agent-churn", "callout-storm")
BUILD_TIMEOUT_S = 840
# Set-up, oracle replays and process start on top of the measuring time.
RUN_GRACE_S = 120
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def git_commit(root):
    """The checkout's git commit, or "unknown" outside git."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build(root, build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs])
    for cmd in steps:
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as error:
            log(f"build step failed to run: {error}")
            return None
        if out.returncode != 0:
            log("build failed:\n" + (out.stdout + out.stderr)[-4000:])
            return None
    binary = os.path.join(build_dir, "perfbench_driver")
    return binary if os.access(binary, os.X_OK) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        log("--seconds must be >= 1 and --seed >= 0")
        return 2

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"no osguard sources under {root}/src; run from the root of a checkout")
        return 2
    bench_root = os.path.join(root, ".bench_build")
    binary = build(root, os.path.join(bench_root, "perfbench"))
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", root,
           "--work-dir", os.path.join(bench_root, "work"), "--source-id", git_commit(root)]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        log(f"driver exited with {out.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("driver printed no result line")
        return 1
    if set(result) != RESULT_KEYS:
        log("malformed result line")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
