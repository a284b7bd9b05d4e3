"""Spans around floqimp's public functions and the dense kernels they call.

The wrappers are installed from outside the package: every module-level
name in floqimp that is bound to a wrapped function (including names bound
by ``from .x import y``) is rebound to the wrapper, ``GaussianState`` gets a
wrapped ``__init__`` (its orthonormality check runs there), and the numpy
kernels are replaced on ``numpy.linalg``.  Spans are recorded only while
``Tracer.active`` is set, so the benchmark's own checks are not counted.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

import numpy as np
import scipy.linalg

FUNCTIONS = {
    "model": ["single_particle_hamiltonian"],
    "gaussian": [
        "two_step_propagator",
        "harmonic_propagator",
        "half_filled_ground_state",
        "GaussianState",
        "evolve",
        "half_chain_entropy",
        "entanglement_profile",
    ],
    "floquet_analytics": ["floquet_hamiltonian_exact"],
    "manybody_ed": [
        "build_sector_hamiltonian",
        "floquet_unitary_mb",
        "average_energy_spectrum_mb",
        "two_step_theta_sp",
        "free_ground_state_weight",
        "lowest_k_free_spectrum",
    ],
    "diagnostics": ["half_chain_series", "classify_heating", "count_recurrences", "pt_classify"],
    "cli": ["main"],
}
NUMPY_KERNELS = ["eigh", "eigvalsh", "eigvals", "qr"]
SCIPY_KERNELS = ["schur", "expm"]
KERNELS = NUMPY_KERNELS + SCIPY_KERNELS


def layer_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    return names + [f"linalg.{k}" for k in KERNELS]


def _work_n3(args) -> int:
    """n^3 for an n x n input, m * n^2 for an m x n one (computed, not counted)."""
    a = np.asarray(args[0]) if args else None
    if a is None or a.ndim < 2:
        return 0
    m, n = a.shape[-2:]
    return int(m) * int(n) * int(n)


class Tracer:
    def __init__(self):
        self.active = False
        self.round = -1
        self.spans = []  # [name, start, end, parent index, round, work]
        self._stack = []

    def _wrap(self, name, fn, with_work=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round, _work_n3(args) if with_work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        import floqimp
        from floqimp import cli, diagnostics, floquet_analytics, gaussian, manybody_ed, model

        modules = [floqimp, model, gaussian, floquet_analytics, manybody_ed, diagnostics, cli]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}

        def rebind_everywhere(original, wrapper):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        for mod_name, fns in FUNCTIONS.items():
            mod = by_name[mod_name]
            for fn in fns:
                original = getattr(mod, fn)
                if isinstance(original, type):
                    setattr(original, "__init__", self._wrap(f"{mod_name}.{fn}", original.__init__))
                else:
                    rebind_everywhere(original, self._wrap(f"{mod_name}.{fn}", original))
        for k in NUMPY_KERNELS:
            setattr(np.linalg, k, self._wrap(f"linalg.{k}", getattr(np.linalg, k), with_work=True))
        for k in SCIPY_KERNELS:
            original = getattr(scipy.linalg, k)
            rebind_everywhere(original, self._wrap(f"linalg.{k}", original, with_work=True))

    def per_round(self) -> dict[int, dict[str, dict]]:
        """{round: {name: {"calls", "self_s", "work"}}}; self time excludes child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, rnd, work in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent, rnd, work) in enumerate(self.spans):
            entry = out.setdefault(rnd, {}).setdefault(name, {"calls": 0, "self_s": 0.0, "work": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            entry["work"] += work
        return out

    def metrics(self, rounds: list[int]) -> tuple[dict[str, dict], list[str]]:
        """Per-round layer metrics over the traced ``rounds`` (median self time).

        Returns the metrics and a list of problems: call counts that differ
        between traced rounds.
        """
        table = self.per_round()
        problems = []
        out = {}
        for name in layer_names():
            entries = [table.get(r, {}).get(name, {"calls": 0, "self_s": 0.0, "work": 0}) for r in rounds]
            calls = {e["calls"] for e in entries}
            if len(calls) > 1:
                problems.append(f"{name}: call counts differ between rounds: {sorted(calls)}")
            out[f"{name}.calls"] = {"value": entries[0]["calls"], "unit": "count"}
            out[f"{name}.self_s"] = {"value": statistics.median(e["self_s"] for e in entries), "unit": "s"}
            if name.startswith("linalg."):
                out[f"{name}.work_n3"] = {"value": entries[0]["work"], "unit": "n3-computed"}
        return out, problems

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rnd, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "round": rnd, "work_n3": work}) + "\n")


def check_coverage(layer: dict[str, dict], expected: dict[str, int]) -> list[str]:
    """Call counts the workload implies; an unwrapped binding shows up here."""
    problems = []
    for name, count in expected.items():
        seen = layer[f"{name}.calls"]["value"]
        if seen != count:
            problems.append(f"{name}: {seen} calls per round, the workload implies {count}")
    for p in problems:
        print(f"trace coverage: {p}", file=sys.stderr)
    return problems
