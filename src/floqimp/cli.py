"""Command-line front end: evolve | spectrum | phase | gap | verify.

Every command writes a deterministic CSV (comma separated, ``.`` decimal,
LF newlines, UTF-8) whose first lines echo the resolved configuration as
``#`` comments.  Exit codes: 0 ok, 2 configuration error, 3 numeric or
model error (the error class name goes to stderr).

Option precedence: command-line flag > FLOQIMP_<KEY> environment variable >
config-file entry > built-in default.  The config file is a flat
``key = value`` text file using the same key names as the long flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .model import ChainParams, DriveFamily, DriveSpec
from . import checks, diagnostics, floquet_analytics, gaussian, manybody_ed

ENV_PREFIX = "FLOQIMP_"
_BOOL = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_HARMONIC_LAMBDA = "the harmonic drive modulates the defect as cos(2 pi t / T); lambda must be 1"


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """Resolved options for one command, after precedence merging.

    ``given`` holds the keys set by a flag, the environment or the config
    file; the others took their built-in default.
    """

    command: str
    values: dict
    given: frozenset

    def echo(self) -> str:
        # output path and worker count do not affect the data; leaving them
        # out keeps byte-identical outputs for identical physics config
        items = " ".join(
            f"{k}={_fmt(v)}"
            for k, v in sorted(self.values.items())
            if k not in ("out", "threads")
        )
        return f"# floqimp={__version__} command={self.command} {items}"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, DriveFamily):
        return v.value
    return str(v)


def _read_config_file(path: str) -> dict[str, str]:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def resolve(argv=None) -> RunConfig:
    """Parse ``argv`` and resolve every option of its command.

    Each option takes the first of: flag, FLOQIMP_<KEY>, config-file entry,
    built-in default.  Values from every source pass the same conversion
    and choices check; unknown config keys and missing required options
    raise ConfigError.
    """
    flags = vars(build_parser().parse_args(argv))
    command = flags["command"]
    spec = _OPTIONS[command]
    file_values = _read_config_file(flags["config"]) if flags["config"] else {}
    unknown = set(file_values) - set(spec)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    values, given = {}, set()
    for key, (conv, default, choices) in spec.items():
        env = os.environ.get(ENV_PREFIX + key.replace("-", "_").upper())
        text = next((t for t in (flags[key], env, file_values.get(key)) if t is not None), None)
        if text is not None:
            values[key] = _convert(key, text, conv, choices)
            given.add(key)
        elif default is None:
            raise ConfigError(f"missing required option --{key}")
        else:
            values[key] = default
    return RunConfig(command=command, values=values, given=frozenset(given))


def _convert(key: str, text: str, conv, choices):
    try:
        value = _BOOL[text.lower()] if conv is bool else conv(text)
        finite = conv is not float or np.isfinite(value)
        if finite and (choices is None or value in choices):
            return value
    except (KeyError, ValueError):
        pass
    hint = f"; pick one of {', '.join(_fmt(c) for c in choices)}" if choices else ""
    raise ConfigError(f"bad value for {key}: {text!r}{hint}")


def _write_csv(path: str, comments: list[str], header: str, rows) -> None:
    lines = [*comments, header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# --- evolve -------------------------------------------------------------------


def cmd_evolve(cfg: RunConfig) -> int:
    v = cfg.values
    if v["delta"] != 0:
        raise ConfigError("evolve runs free fermions and cannot apply delta != 0")
    if v["family"] is DriveFamily.HARMONIC and v["lambda"] != 1.0:
        raise ConfigError(_HARMONIC_LAMBDA)
    if "profile-every" in cfg.given and v["mode"] != "profile":
        raise ConfigError("profile-every is only read in --mode profile")
    params = ChainParams(half_length=v["L"])
    drive = DriveSpec(family=v["family"], period=v["T"], lam=v["lambda"])
    if v["samples-per-cycle"] == 2:
        if drive.family is DriveFamily.HARMONIC:
            raise ConfigError("samples-per-cycle=2 is only available for two-step drives")
        if v["mode"] == "profile":
            raise ConfigError("samples-per-cycle=2 is only available in --mode half")
        steps = gaussian.two_step_factors(params, drive)
    else:
        steps = (gaussian.build_propagator(params, drive),)
    rows = []
    for n, t, state in diagnostics.stroboscopic_states(params, drive.period, steps, v["cycles"]):
        if v["mode"] == "half":
            rows.append((n, t, params.half_length, gaussian.half_chain_entropy(state)))
        elif n % v["profile-every"] == 0:
            prof = gaussian.entanglement_profile(state)
            rows.extend((n, t, int(cut), s) for cut, s in zip(prof.cuts, prof.entropies))
    _write_csv(v["out"], [cfg.echo()], "cycle,t,cut,S_nats", rows)
    return 0


# --- spectrum -----------------------------------------------------------------


# the options each spectrum mode reads besides mode, out and delta (which
# the free modes accept only as 0); roots solves the harmonic drive, so it
# reads no lambda
_SPECTRUM_KEYS = {
    "roots": {"L", "T", "with-diag"},
    "mb": {"sites", "N", "T", "lambda"},
    "free-lowk": {"sites", "N", "K", "T", "lambda", "all-fillings"},
}


def cmd_spectrum(cfg: RunConfig) -> int:
    v = cfg.values
    mode = v["mode"]
    reads = _SPECTRUM_KEYS[mode] | {"mode", "out", "delta"}
    if mode == "free-lowk" and v["all-fillings"]:
        reads = reads - {"N"}
    unread = sorted(cfg.given - reads)
    if unread:
        note = "; --all-fillings replaces N" if mode == "free-lowk" and "N" in unread else ""
        raise ConfigError(f"--mode {mode} does not read {', '.join(unread)}{note}")
    if mode != "mb" and v["delta"] != 0:
        raise ConfigError(f"--mode {mode} is free fermions and cannot apply delta != 0")
    if v["N"] == -1:
        v["N"] = v["sites"] // 2
    header = "n,quasienergy,theta,overlap_w,method"
    if mode == "roots":
        params = ChainParams(half_length=v["L"])
        roots = floquet_analytics.characteristic_roots(params, v["T"])
        theta = floquet_analytics.root_average_energies(params, v["T"], roots)
        rows = [(n, root.energy, th, "", "roots") for n, (root, th) in enumerate(zip(roots, theta))]
        if v["with-diag"]:
            eigs = np.linalg.eigvalsh(floquet_analytics.floquet_hamiltonian_exact(params, v["T"]))
            rows = [(*row, abs(row[1] - e)) for row, e in zip(rows, eigs)]
            header += ",residual"
    elif v["sites"] % 2:
        raise ConfigError("sites must be even")
    elif mode == "mb":
        params = ChainParams(half_length=v["sites"] // 2, delta=v["delta"])
        drive = DriveSpec(family=DriveFamily.TWO_STEP, period=v["T"], lam=v["lambda"])
        table = manybody_ed.average_energy_spectrum_mb(params, drive, v["N"])
        rows = [
            (n, q, th, w, "mb", int(g))
            for n, (q, th, w, g) in enumerate(
                zip(table.quasienergy, table.theta, table.weight, table.grey)
            )
        ]
        header += ",grey"
    else:
        params = ChainParams(half_length=v["sites"] // 2)
        drive = DriveSpec(family=DriveFamily.TWO_STEP, period=v["T"], lam=v["lambda"])
        theta_sp = manybody_ed.two_step_theta_sp(params, drive)
        if v["all-fillings"]:
            if v["K"] > 2 ** v["sites"]:
                raise manybody_ed.KOutOfRange(
                    f"K must be in [1, {2 ** v['sites']}] over all fillings, got {v['K']}"
                )
            sums = []
            for filling in range(v["sites"] + 1):
                total = manybody_ed.comb(v["sites"], filling)
                k = min(v["K"], total)
                sums.append(manybody_ed.lowest_k_free_spectrum(theta_sp, filling, k))
            values = np.sort(np.concatenate(sums))[: v["K"]]
        else:
            values = manybody_ed.lowest_k_free_spectrum(theta_sp, v["N"], v["K"])
        rows = [(n, "", th, "", "free-lowk") for n, th in enumerate(values)]
    _write_csv(v["out"], [cfg.echo()], header, rows)
    return 0


# --- phase / gap ----------------------------------------------------------------


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The points lo, lo + step, ... that do not pass hi.

    The relative tolerance keeps hi itself when the span is a whole number
    of steps that the division leaves a rounding error short.
    """
    n = int(np.floor((hi - lo) / step * (1.0 + 1e-9)))
    return lo + step * np.arange(n + 1)


def _ordered_map(threads: int, fn, items) -> list:
    """[fn(x) for x in items], on ``threads`` workers; results keep item order."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def cmd_phase(cfg: RunConfig) -> int:
    v = cfg.values
    params = ChainParams(half_length=v["L"])
    T_values = _grid(v["T-min"], v["T-max"], v["T-step"])
    lam_values = _grid(v["lambda-min"], v["lambda-max"], v["lambda-step"])

    points = diagnostics.phase_diagram(
        params, T_values, lam_values, tol=v["pt-tol"], map_columns=partial(_ordered_map, v["threads"])
    )
    rows = [(p.period, p.lam, p.label.value, p.score) for p in points]
    comments = [cfg.echo(), f"# T_pi={np.pi!r}"]
    _write_csv(v["out"], comments, "T,lambda,label,score", rows)
    return 0


def cmd_gap(cfg: RunConfig) -> int:
    v = cfg.values
    if v["family"] is DriveFamily.HARMONIC:
        if "lambda" in cfg.given and v["lambda"] != 1.0:
            raise ConfigError(_HARMONIC_LAMBDA)
        v["lambda"] = 1.0  # the closed-form generator's own strength, echoed as run
    params = ChainParams(half_length=v["L"])
    T_values = _grid(v["T-min"], v["T-max"], v["T-step"])
    pairs = diagnostics.gap_curve(
        params,
        T_values,
        family=v["family"],
        lam=v["lambda"],
        map_columns=partial(_ordered_map, v["threads"]),
    )
    comments = [cfg.echo(), f"# T_pi={np.pi!r}"]
    _write_csv(v["out"], comments, "T,gap", pairs)
    return 0


# --- verify -------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    name = cfg.values["suite"]
    failed = 0
    for suite in checks.SUITES if name == "all" else [name]:
        for check, measured, bound, ok in checks.SUITES[suite]():
            status = "pass" if ok else "FAIL"
            print(f"{check} measured={measured:.6g} bound={bound:g} {status}")
            failed += not ok
    return 1 if failed else 0


# --- options and argument parsing -----------------------------------------------

# command -> key -> (type, default, choices); a default of None makes the key
# required.  Every source (flag, FLOQIMP_<KEY>, config file) is checked
# against the same type and choices.
_OPTIONS = {
    "evolve": {
        "family": (DriveFamily, None, tuple(DriveFamily)),
        "L": (int, None, None),
        "T": (float, None, None),
        "lambda": (float, 1.0, None),
        "delta": (float, 0.0, None),
        "cycles": (int, None, None),
        "mode": (str, "half", ("half", "profile")),
        "profile-every": (int, 6, None),
        "samples-per-cycle": (int, 1, (1, 2)),
        "out": (str, "-", None),
    },
    "spectrum": {
        "mode": (str, None, ("roots", "mb", "free-lowk")),
        "L": (int, 50, None),
        "sites": (int, 14, None),
        "N": (int, -1, None),  # -1: half filling, sites // 2
        "K": (int, 100, None),
        "T": (float, None, None),
        "lambda": (float, 0.5, None),
        "delta": (float, 0.0, None),
        "with-diag": (bool, False, None),
        "all-fillings": (bool, False, None),
        "out": (str, "-", None),
    },
    "phase": {
        "L": (int, 200, None),
        "T-min": (float, 2.0, None),
        "T-max": (float, 4.0, None),
        "T-step": (float, 0.05, None),
        "lambda-min": (float, 1.0, None),
        "lambda-max": (float, 2.4, None),
        "lambda-step": (float, 0.05, None),
        "pt-tol": (float, diagnostics.DEFAULT_PT_TOL, None),
        "threads": (int, 1, None),
        "out": (str, "-", None),
    },
    "gap": {
        "family": (DriveFamily, DriveFamily.HARMONIC, tuple(DriveFamily)),
        "L": (int, 200, None),
        "lambda": (float, 0.5, None),
        "T-min": (float, 0.2, None),
        "T-max": (float, 4.2, None),
        "T-step": (float, 0.1, None),
        "threads": (int, 1, None),
        "out": (str, "-", None),
    },
    "verify": {"suite": (str, "all", ("all", *checks.SUITES))},
}

_HELP = {"out": "output CSV path ('-' for stdout)", "threads": "parallel workers over grid points"}

_COMMANDS = {
    "evolve": (cmd_evolve, "stroboscopic entanglement evolution"),
    "spectrum": (cmd_spectrum, "roots, sector tables, lowest-K sums"),
    "phase": (cmd_phase, "PT phase diagram over (T, lambda)"),
    "gap": (cmd_gap, "gap vs period curve"),
    "verify": (cmd_verify, "run invariant suites, one line per check"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="floqimp",
        description="Driven-defect fermion chain: entanglement dynamics and Floquet spectra",
    )
    ap.add_argument("--version", action="version", version=f"floqimp {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        # flags stay text here; resolve() converts them like env and config values
        for key, (conv, _, choices) in _OPTIONS[command].items():
            if conv is bool:
                sp.add_argument(f"--{key}", dest=key, action="store_const", const="true")
            else:
                metavar = "{" + ",".join(_fmt(c) for c in choices) + "}" if choices else None
                sp.add_argument(f"--{key}", dest=key, metavar=metavar, help=_HELP.get(key))
        sp.add_argument("--config", help="flat key = value config file")
    return ap


_MODEL_ERRORS = (
    floquet_analytics.NormalizationUnderflow,
    gaussian.DegenerateFermiLevel,
    gaussian.RankDeficient,
    gaussian.NonUnitaryPropagator,
    manybody_ed.SectorTooLarge,
    manybody_ed.NonNormalUnitary,
    manybody_ed.KOutOfRange,
    diagnostics.WindowTooShort,
    diagnostics.NoRevivalDetected,
)


def main(argv=None) -> int:
    try:
        cfg = resolve(argv)
        _validate(cfg)
        return _COMMANDS[cfg.command][0](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except _MODEL_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _validate(cfg: RunConfig) -> None:
    v = cfg.values
    for key in ("T", "T-min", "T-max", "T-step", "lambda-step", "pt-tol"):
        if key in v and not v[key] > 0:
            raise ConfigError(f"{key} must be positive")
    for lo, hi in (("T-min", "T-max"), ("lambda-min", "lambda-max")):
        if lo in v and v[lo] > v[hi]:
            raise ConfigError(f"{lo} must not exceed {hi}")
    if "L" in v and v["L"] < 2:
        raise ConfigError("L must be >= 2")
    if "cycles" in v and v["cycles"] < 0:
        raise ConfigError("cycles must be >= 0")
    if v.get("profile-every", 1) < 1:
        raise ConfigError("profile-every must be >= 1")
    if v.get("K", 1) < 1:
        raise ConfigError("K must be >= 1")
    if v.get("threads", 1) < 1:
        raise ConfigError("threads must be >= 1")


if __name__ == "__main__":
    sys.exit(main())
