#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads quench pt-sweep --seeds 1-10 --seconds 28 [--trace 1]

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, and
prints per workload and metric the median, the quartiles and the
interquartile spread as a share of the median, with the environment (cores,
BLAS threads, numpy and scipy versions, git sha, load average at start and
end).  The summary is also written to ``perfbench/results/sweep-*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=run.WORKLOADS, choices=run.WORKLOADS)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    summary = {"git_sha": git_sha(), "cores": os.cpu_count(), "blas_threads": run.BLAS_THREADS,
               "seconds": args.seconds, "trace": args.trace, "loadavg_start": os.getloadavg(), "workloads": {}}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            elapsed = time.monotonic() - t0
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["run_s"] = elapsed
            runs.append(res)
            print(f"{wl} seed {seed}: {elapsed:.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
        table = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            table[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else 0.0}
        summary["workloads"][wl] = {
            "metrics": table,
            "run_s_max": max(r["run_s"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "correct": all(r["correct"] for r in runs),
        }
        for name, m in table.items():
            print(f"{wl:17s} {name:45s} {m['median']:12.5g} {m['unit']:12s} "
                  f"q1 {m['q1']:.5g} q3 {m['q3']:.5g} spread {m['spread']:.4f}")
    summary["loadavg_end"] = os.getloadavg()
    summary["env"] = json.loads((run.RESULTS / f"{args.workloads[0]}-seed{args.seeds[-1]}-trace{args.trace}.json").read_text())["env"]
    out = run.RESULTS / f"sweep-{'-'.join(args.workloads)}-trace{args.trace}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"loadavg start {summary['loadavg_start']} end {summary['loadavg_end']}; written {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
