#!/usr/bin/env python3
"""Perf gate for the mailbox fast path.

Compares a freshly generated BENCH_micro_substrates.json against the
checked-in baseline (bench/baselines/) and fails when a gated series'
median regresses beyond the tolerance.

Only the mailbox-plane series are gated: they are the fast path this
repository optimizes deliberately, and the gate is what keeps an
accidental O(depth) scan or a lost wakeup from sneaking back in. The
other series ride along in the artifact for trend inspection but do not
fail the build (fork/join-heavy benches are too scheduler-noisy on
shared CI runners to gate at 20%).

Usage:
    bench_gate.py CURRENT.json BASELINE.json [--tolerance 0.20]

Exit status: 0 when every gated series is present and within tolerance,
1 otherwise.
"""

import argparse
import json
import sys

# Series medians that must not regress, one explicit label per gated
# series. (This used to be a prefix match on "BM_PingPong", which silently
# covered BM_PingPongLargePayload too — and meant a renamed or dropped
# sweep size vanished from the gate without failing it.) Mailbox matching,
# small-message latency, and the 64 B → 16 MB message-size sweep: the
# eager fast path and the rendezvous zero-copy path each get their own
# per-size floor.
GATED_LABELS = (
    "BM_MailboxDeliverReceive",
    "BM_MailboxMatchDepth/16",
    "BM_MailboxMatchDepth/64",
    "BM_MailboxMatchDepth/256",
    "BM_PingPong/64",
    "BM_PingPong/512",
    "BM_PingPongLargePayload/64",
    "BM_PingPongLargePayload/4096",
    "BM_PingPongLargePayload/65536",
    "BM_PingPongLargePayload/1048576",
    "BM_PingPongLargePayload/16777216",
    "BM_PingPongLargeEager/65536",
    "BM_PingPongLargeEager/1048576",
    "BM_PingPongLargeEager/16777216",
    # Bandwidth-optimal collective tier: the large-size ring/tree allreduce
    # sweep points and the whole-body tree broadcast. Only sizes where
    # payload movement dominates are gated — the 4 KiB points are
    # latency-bound and too scheduler-noisy for a 20% floor. Gating BOTH
    # algorithms keeps the auto-selection honest: a dispatch bug that
    # silently sent large bodies down the tree would trip the ring floors,
    # and a ring regression can't hide behind a faster tree.
    "BM_AllreduceRing/65536/4",
    "BM_AllreduceRing/1048576/4",
    "BM_AllreduceRing/1048576/8",
    "BM_AllreduceRing/16777216/4",
    "BM_AllreduceTree/1048576/8",
    "BM_AllreduceTree/16777216/4",
    "BM_BroadcastWhole/16777216/4",
    # Checkpoint-overhead floor: one committed consistent cut (64 KiB state
    # x 4 ranks, in-memory store). Keeps the cut protocol from quietly
    # gaining barriers, serialization passes, or payload copies.
    "BM_CheckpointCommit/65536/4",
)


def medians(doc):
    out = {}
    for series in doc["series"]:
        out[series["label"]] = float(series["seconds"]["median"])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression (default 0.20)")
    args = parser.parse_args()

    with open(args.current) as f:
        current = medians(json.load(f))
    with open(args.baseline) as f:
        baseline = medians(json.load(f))

    failures = []
    checked = 0
    # Iterate the gate list itself, not the baseline: a gated series
    # missing from EITHER file is a failure, so dropping a sweep size can
    # never silently shrink the gate.
    for label in GATED_LABELS:
        if label not in baseline:
            failures.append(f"{label}: gated series missing from baseline")
            continue
        base = baseline[label]
        if label not in current:
            failures.append(f"{label}: present in baseline but not in current run")
            continue
        checked += 1
        cur = current[label]
        ratio = cur / base if base > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"{label}: {cur * 1e9:.0f} ns vs baseline {base * 1e9:.0f} ns "
                f"({ratio:.2f}x, tolerance {1.0 + args.tolerance:.2f}x)")
        print(f"  {label:40s} {cur * 1e9:12.0f} ns  baseline {base * 1e9:12.0f} ns  "
              f"{ratio:5.2f}x  {verdict}")

    if checked == 0:
        print("bench gate: no gated series found — baseline/current mismatch?")
        return 1
    if failures:
        print(f"\nbench gate: {len(failures)} failure(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nbench gate: {checked} gated series within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
