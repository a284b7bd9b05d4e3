"""One workload in a process of its own; started by run.py, not by hand.

Set-up (interpreter start, importing numpy, scipy and floqimp, generating
the inputs) is timed from ``--t0``, the parent's monotonic clock just
before it started this process.  Then whole rounds run until the next one
would end after ``--seconds``.  A round runs its operations, timed, and
then checks their outputs, untimed.  With ``--trace 1`` rounds alternate
untraced and traced, so the tracing overhead is measured in one process.
The last line on stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import monotonic, perf_counter

import numpy
import scipy

import refcheck
import tracer
import workloads


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_round(ops, trace: tracer.Tracer | None, traced: bool, index: int) -> tuple[list, dict]:
    """Run a round's operations, each timed alone; return their outputs and the round's record."""
    wall = cpu = 0.0
    outputs = []
    if trace is not None:
        trace.round = index
    for op in ops:
        t0, c0 = perf_counter(), cpu_seconds()
        if trace is not None:
            trace.active = traced
        try:
            outputs.append((op.run(), None))
        except Exception:  # an operation that raises counts as failed; the run goes on
            outputs.append((None, traceback.format_exc()))
        if trace is not None:
            trace.active = False
        wall += perf_counter() - t0
        cpu += cpu_seconds() - c0
    return outputs, {"wall_s": wall, "cpu_s": cpu, "traced": traced, "failed": 0}


def check_round(ops, outputs: list, record: dict, index: int) -> None:
    """Check each output, untimed, and count the failed operations in ``record``."""
    for op, (out, error) in zip(ops, outputs):
        if error is None:
            try:
                op.check(out)
            except refcheck.CheckFailed as exc:
                error = str(exc)
        if error is not None:
            record["failed"] += 1
            print(f"round {index} {op.name} FAILED: {error}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    ops = wl.operations()
    trace = None
    if args.trace:
        trace = tracer.Tracer()
        trace.install()
    setup_s = monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds = []
    start = monotonic()
    longest = 0.0
    while True:
        t_round = monotonic()
        traced = bool(args.trace) and len(rounds) % 2 == 1
        outputs, record = run_round(ops, trace, traced, len(rounds))
        if not rounds:
            # the peak of the first round's operations, read before its
            # checks allocate their own reference matrices; later rounds add
            # allocator growth, and their number depends on the run length
            usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        check_round(ops, outputs, record, len(rounds))
        del outputs
        rounds.append(record)
        longest = max(longest, monotonic() - t_round)  # timed work plus checks
        if args.trace and len(rounds) < 2:
            continue
        if monotonic() - start + longest > args.seconds:
            break

    failed = sum(r["failed"] for r in rounds)
    untraced = [r for r in rounds if not r["traced"]]
    result = {
        "correct": failed == 0,
        "attempted": len(rounds) * len(ops),
        "failed": failed,
        "setup_s": setup_s,
        "rounds": rounds,
        "inputs": wl.inputs,
        "env": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if not args.trace:
        result["metrics"] = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in untraced), "unit": "s"},
            "peak_rss_mb": {"value": usage / 1024.0, "unit": "MB"},
        }
    else:
        traced_ids = [i for i, r in enumerate(rounds) if r["traced"]]
        layer, problems = trace.metrics(traced_ids)
        problems += tracer.check_coverage(layer, wl.expected_calls())
        traced_wall = statistics.median(rounds[i]["wall_s"] for i in traced_ids)
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        layer["process.cpu_s"] = {"value": statistics.median(r["cpu_s"] for r in untraced), "unit": "s"}
        layer["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
        result["metrics"] = layer
        result["coverage_problems"] = problems
        result["correct"] = result["correct"] and not problems
        if args.spans:
            trace.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
