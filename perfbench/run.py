#!/usr/bin/env python3
"""End-to-end benchmark of the FeatGraph library.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Builds the benchmark binary from source (CMake, Release) into
.bench_build/perfbench at the root of the checkout, runs one workload and
passes its output through. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The exit
status is non-zero when the build fails or an output check fails.

--workload all runs every workload untraced and traced and ends with one
JSON line whose metrics are keyed "<workload>/<metric>". --tiny runs a
smoke-test scale that finishes in seconds. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["gcn-train", "gat-train", "sage-minibatch", "serve-openloop"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "featgraph.hpp")):
        print("error: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "featgraph_perfbench")


def run_one(binary, workload, seed, seconds, trace, tiny):
    """Runs one workload; returns (exit status, stdout lines, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if proc.returncode < 0 or result is None:
        print("error: %s ended abnormally (status %d)"
              % (workload, proc.returncode), file=sys.stderr)
        return 1, lines[:-1] if result else lines, None
    return proc.returncode, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test scale (seconds, not minutes)")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2

    if args.workload != "all":
        status, lines, result = run_one(binary, args.workload, args.seed,
                                        args.seconds, args.trace, args.tiny)
        if result is None:
            for line in lines:
                print(line)
            return status or 1
        print("\n".join(lines), flush=True)
        return status

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            status, lines, result = run_one(binary, workload, args.seed,
                                            args.seconds, trace, args.tiny)
            for line in (lines[:-1] if result else lines):
                print(line)
            worst = max(worst, status)
            if result is None:
                summary["correct"] = False
                continue
            summary["correct"] &= bool(result["correct"])
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][workload + "/" + name] = metric
    print(json.dumps(summary), flush=True)
    return worst if worst else (0 if summary["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
