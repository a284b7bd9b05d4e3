#!/usr/bin/env python3
"""floqimp benchmark: one workload per call, one JSON result on the last line.

    python3 perfbench/run.py --workload quench --seed 0 --seconds 28 --trace 0

Run it from the repository root; the package is imported from ``src``
without being installed.  The workload runs in a child process whose BLAS
thread count is fixed in its environment before numpy is imported, and
whose ``FLOQIMP_*`` variables are removed (``floqimp.cli`` reads them as
options).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Each run's full result is also written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ["quench", "harmonic-profile", "sector-ed", "pt-sweep"]
# BLAS threads x CLI workers (--threads 1) stays within the 2 cores of the
# reference machine; a BLAS pool competing with another job slowed single
# calls by up to 100x there.
BLAS_THREADS = 1
SETUP_PROBES = 4  # extra set-up-only processes; setup_s is the median with the workload's own
TIME_LIMIT = 170.0


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLOQIMP_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, extra: list[str], deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
        "--t0", repr(monotonic()),
    ]
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - monotonic()),
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    deadline = monotonic() + TIME_LIMIT
    load_start = os.getloadavg()
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup = []
    if not args.trace:
        setup = [run_child(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    extra = ["--spans", str(RESULTS / f"{tag}-spans.jsonl")] if args.trace else []
    child = run_child(args, extra, deadline)
    metrics = child["metrics"]
    if not args.trace:
        setup.append(child["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "setup_samples_s": setup, "rounds": child["rounds"], "inputs": child["inputs"],
        "coverage_problems": child.get("coverage_problems", []),
        "env": {
            **child["env"], "python": sys.version.split()[0], "cores": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        },
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
