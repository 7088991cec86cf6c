#!/usr/bin/env python3
"""Builds and runs the patternlets benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke      # every workload, a few ops, names checked

The first call configures and builds perfbench/ (its own CMake package,
compiling the library sources under src/) into .bench_build/perfbench, or
into $CARGO_TARGET_DIR/perfbench when that is set. The benchmark binary prints
an environment stamp line and, as its last line, one JSON result object;
this script passes both through. --trace 1 also writes the benchmark's spans
to <build dir>/spans-<workload>-<seed>.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalog", "halo", "farm", "bulk")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build():
    """Configures once, then brings the binaries up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runner.hpp")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out


def commit():
    """The checkout's git commit, or 'unknown' when it is not a repository."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def source_digest():
    """sha256 over the library and benchmark sources, path and content."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_binary(out, workload, seed, seconds, trace, quick=False):
    """Runs the benchmark binary once; returns (stamp line, result line, parsed result)."""
    cmd = [os.path.join(out, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit(), "--source-digest", source_digest()]
    if trace:
        cmd += ["--spans-out", os.path.join(out, f"spans-{workload}-{seed}.json")]
    if quick:
        cmd.append("--quick")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2:
        fail(f"{workload}: benchmark binary exited with {r.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result line")
    return lines[-2], lines[-1], result


def smoke(out):
    """Every workload, both modes, a few ops: names and units must match
    BENCHMARK.json, every op must pass, and the gate test must pass."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    gates = subprocess.run([os.path.join(out, "perfbench_gates_test")], capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    if gates.returncode != 0:
        problems.append("gate test failed:\n" + gates.stdout)
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            t0 = time.monotonic()
            _, _, result = run_binary(out, w, 1, 0.2, trace, quick=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in set(got) & set(want[trace]) if got[k] != want[trace][k])
                problems.append(f"{w} trace={trace}: missing {missing} extra {extra} units {units}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{w} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} ops failed")
            print(f"smoke {w:8s} trace={trace} ok={not problems} "
                  f"{time.monotonic() - t0:5.2f} s, {len(got)} metrics")
    for p in problems:
        print("SMOKE FAIL:", p)
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="quick names/units/correctness check")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    out = build()
    if args.smoke:
        return smoke(out)
    stamp, line, _ = run_binary(out, args.workload, args.seed, args.seconds, args.trace)
    print(stamp)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
