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

import numpy as np

from . import __version__
from .model import ChainParams, DriveFamily, DriveSpec
from . import diagnostics, floquet_analytics, gaussian, manybody_ed

ENV_PREFIX = "FLOQIMP_"
# default of evolve's n-sub: no midpoint product, the harmonic drive runs
# the closed-form exp(-i h_F T); echoed as n-sub=exact
EXACT = "exact"
# default of evolve's profile-every: --mode profile snapshots every
# PROFILE_EVERY cycles and echoes that value; an explicit value with
# --mode half, which takes no snapshots, is rejected
UNSET = "unset"
PROFILE_EVERY = 6

_FAMILIES = {
    "two-step": DriveFamily.TWO_STEP,
    "harmonic": DriveFamily.HARMONIC,
    "nh-two-step": DriveFamily.NON_HERMITIAN_TWO_STEP,
}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """Resolved options for one command, after precedence merging."""

    command: str
    values: dict

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


def _resolve(args: argparse.Namespace, spec: dict[str, tuple], command: str) -> RunConfig:
    """Merge flags, environment, config file and defaults; reject unknown keys."""
    file_values = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(spec)
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    values = {}
    for key, (conv, default) in spec.items():
        flag_val = getattr(args, key.replace("-", "_"), None)
        env_val = os.environ.get(ENV_PREFIX + key.replace("-", "_").upper())
        if flag_val is not None:
            values[key] = flag_val
        elif env_val is not None:
            values[key] = _convert(key, env_val, conv)
        elif key in file_values:
            values[key] = _convert(key, file_values[key], conv)
        elif default is not None:
            values[key] = default
        else:
            raise ConfigError(f"missing required option --{key}")
    return RunConfig(command=command, values=values)


def _convert(key: str, text: str, conv):
    try:
        if conv is bool:
            if text.lower() in ("1", "true", "yes"):
                return True
            if text.lower() in ("0", "false", "no"):
                return False
            raise ValueError(text)
        return conv(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r}") from exc


def _family(text: str) -> DriveFamily:
    if text not in _FAMILIES:
        raise argparse.ArgumentTypeError(
            f"unknown family {text!r}; pick one of {sorted(_FAMILIES)}"
        )
    return _FAMILIES[text]


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
        raise ConfigError("the harmonic drive modulates the defect as cos(2 pi t / T); lambda must be 1")
    if v["profile-every"] == UNSET:
        v["profile-every"] = PROFILE_EVERY
    elif v["mode"] != "profile":
        raise ConfigError("profile-every is only read in --mode profile")
    params = ChainParams(half_length=v["L"])
    drive = DriveSpec(family=v["family"], period=v["T"], lam=v["lambda"])
    cycles = v["cycles"]
    n_sub = None if v["n-sub"] == EXACT else v["n-sub"]
    if n_sub is not None and drive.family is not DriveFamily.HARMONIC:
        raise ConfigError("n-sub selects the harmonic midpoint propagator; two-step drives are exact")
    half_steps = v["samples-per-cycle"] == 2
    if half_steps and drive.family is DriveFamily.HARMONIC:
        raise ConfigError("samples-per-cycle=2 is only available for two-step drives")
    if half_steps and v["mode"] == "profile":
        raise ConfigError("samples-per-cycle=2 is only available in --mode half")
    rows = []
    if v["mode"] == "half":
        if half_steps:
            rows = _evolve_half_steps(params, drive, cycles)
        else:
            series = diagnostics.half_chain_series(params, drive, cycles, n_sub=n_sub)
            L = params.half_length
            rows = [
                (int(n), n * drive.period, L, s)
                for n, s in zip(series.cycles, series.entropies)
            ]
    elif v["mode"] == "profile":
        rows = _evolve_profiles(params, drive, cycles, v["profile-every"], n_sub)
    else:
        raise ConfigError(f"unknown evolve mode {v['mode']!r}")
    _write_csv(v["out"], [cfg.echo()], "cycle,t,cut,S_nats", rows)
    return 0


def _evolve_profiles(params, drive, cycles, every, n_sub):
    prop = gaussian.build_propagator(params, drive, n_sub=n_sub)
    state = gaussian.half_filled_ground_state(params)
    rows = []

    def emit(n, st):
        prof = gaussian.entanglement_profile(st)
        for cut, s in zip(prof.cuts, prof.entropies):
            rows.append((int(n), n * drive.period, int(cut), s))

    emit(0, state)
    for n in range(1, cycles + 1):
        state = gaussian.evolve(state, prop, renormalize=not prop.unitary)
        if n % every == 0:
            emit(n, state)
    return rows


def _evolve_half_steps(params, drive, cycles):
    """Half-chain entropy sampled at t = nT and nT + T/2 (two-step drives)."""
    from .model import single_particle_hamiltonian
    from .gaussian import _expm_h  # shared exponential helper

    half = drive.period / 2.0
    u_uniform = _expm_h(single_particle_hamiltonian(params, 1.0), half)
    u_defect = _expm_h(single_particle_hamiltonian(params, drive.lam), half)
    unitary = abs(drive.lam) <= 1.0
    p_uni = gaussian.Propagator(matrix=u_uniform, unitary=True)
    p_def = gaussian.Propagator(matrix=u_defect, unitary=unitary)
    state = gaussian.half_filled_ground_state(params)
    L = params.half_length
    rows = [(0, 0.0, L, gaussian.half_chain_entropy(state))]
    for n in range(1, cycles + 1):
        state = gaussian.evolve(state, p_uni, renormalize=True)
        rows.append((n, (n - 1) * drive.period + half, L, gaussian.half_chain_entropy(state)))
        state = gaussian.evolve(state, p_def, renormalize=not unitary)
        rows.append((n, n * drive.period, L, gaussian.half_chain_entropy(state)))
    return rows


# --- spectrum -----------------------------------------------------------------


def cmd_spectrum(cfg: RunConfig) -> int:
    v = cfg.values
    mode = v["mode"]
    comments = [cfg.echo()]
    if mode == "roots":
        params = ChainParams(half_length=v["L"])
        roots = floquet_analytics.characteristic_roots(params, v["T"])
        theta = floquet_analytics.average_energy_sp(params, v["T"], method="analytic").theta
        rows = []
        if v["with-diag"]:
            eigs = np.sort(
                np.linalg.eigvalsh(floquet_analytics.floquet_hamiltonian_exact(params, v["T"]))
            )
            for n, (root, th) in enumerate(zip(roots, theta)):
                rows.append((n, root.energy, th, "", "roots", abs(root.energy - eigs[n])))
            _write_csv(v["out"], comments, "n,quasienergy,theta,overlap_w,method,residual", rows)
        else:
            for n, (root, th) in enumerate(zip(roots, theta)):
                rows.append((n, root.energy, th, "", "roots"))
            _write_csv(v["out"], comments, "n,quasienergy,theta,overlap_w,method", rows)
        return 0
    if mode == "mb":
        if v["sites"] % 2:
            raise ConfigError("sites must be even")
        params = ChainParams(half_length=v["sites"] // 2, delta=v["delta"])
        drive = DriveSpec(family=DriveFamily.TWO_STEP, period=v["T"], lam=v["lambda"])
        table = manybody_ed.average_energy_spectrum_mb(params, drive, v["N"])
        rows = [
            (n, q, th, w, "mb", int(g))
            for n, (q, th, w, g) in enumerate(
                zip(table.quasienergy, table.theta, table.weight, table.grey)
            )
        ]
        _write_csv(v["out"], comments, "n,quasienergy,theta,overlap_w,method,grey", rows)
        return 0
    if mode == "free-lowk":
        if v["sites"] % 2:
            raise ConfigError("sites must be even")
        params = ChainParams(half_length=v["sites"] // 2)
        drive = DriveSpec(family=DriveFamily.TWO_STEP, period=v["T"], lam=v["lambda"])
        theta_sp = manybody_ed.two_step_theta_sp(params, drive)
        if v["all-fillings"]:
            sums = []
            for filling in range(v["sites"] + 1):
                total = manybody_ed.comb(v["sites"], filling)
                k = min(v["K"], total)
                sums.append(manybody_ed.lowest_k_free_spectrum(theta_sp, filling, k))
            values = np.sort(np.concatenate(sums))[: v["K"]]
        else:
            values = manybody_ed.lowest_k_free_spectrum(theta_sp, v["N"], v["K"])
        rows = [(n, "", th, "", "free-lowk") for n, th in enumerate(values)]
        _write_csv(v["out"], comments, "n,quasienergy,theta,overlap_w,method", rows)
        return 0
    raise ConfigError(f"unknown spectrum mode {mode!r}")


# --- phase / gap ----------------------------------------------------------------


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


def cmd_phase(cfg: RunConfig) -> int:
    v = cfg.values
    params = ChainParams(half_length=v["L"])
    T_values = _grid(v["T-min"], v["T-max"], v["T-step"])
    lam_values = _grid(v["lambda-min"], v["lambda-max"], v["lambda-step"])
    tol = v["pt-tol"]

    def one(lam):
        return [
            diagnostics.pt_classify(params, diagnostics._drive_for(float(lam), float(T)), tol=tol)
            for T in T_values
        ]

    if v["threads"] > 1:
        with ThreadPoolExecutor(max_workers=v["threads"]) as pool:
            per_lam = list(pool.map(one, lam_values))
    else:
        per_lam = [one(lam) for lam in lam_values]
    rows = []
    for points in per_lam:
        for p in points:
            rows.append((p.period, p.lam, p.label.value, p.score))
    comments = [cfg.echo(), f"# T_pi={np.pi!r}"]
    _write_csv(v["out"], comments, "T,lambda,label,score", rows)
    return 0


def cmd_gap(cfg: RunConfig) -> int:
    v = cfg.values
    params = ChainParams(half_length=v["L"])
    T_values = _grid(v["T-min"], v["T-max"], v["T-step"])
    family = v["family"]

    def one(T):
        return diagnostics.gap_curve(params, np.array([T]), family=family, lam=v["lambda"])[0]

    if v["threads"] > 1:
        with ThreadPoolExecutor(max_workers=v["threads"]) as pool:
            pairs = list(pool.map(one, T_values))
    else:
        pairs = [one(T) for T in T_values]
    comments = [cfg.echo(), f"# T_pi={np.pi!r}"]
    _write_csv(v["out"], comments, "T,gap", pairs)
    return 0


# --- verify -------------------------------------------------------------------


def _suite_su2():
    rep = floquet_analytics.su2_check(30)
    return [("su2_max_deviation", rep.max_deviation, 1e-13, rep.max_deviation < 1e-13)]


def _suite_micromotion():
    sig = floquet_analytics.mirror_operator(40)
    w, vv = np.linalg.eigh(sig)
    dev = float(np.max(np.abs((vv * np.exp(1j * np.pi * (w - 1.0))) @ vv.conj().T - np.eye(80))))
    return [("micromotion_identity", dev, 1e-12, dev < 1e-12)]


def _suite_eq4():
    params = ChainParams(half_length=50)
    out = []
    for T in (0.7, 2.5, 3.3):
        exact = gaussian.harmonic_propagator(params, T).matrix
        u = gaussian.harmonic_propagator(params, T, n_sub=4096).matrix
        dev = float(np.max(np.abs(u - exact)))
        out.append((f"eq4_deviation_T{T}", dev, 1e-5, dev < 1e-5))
    return out


def _suite_roots():
    out = []
    for L in (5, 20, 50):
        params = ChainParams(half_length=L)
        for T in (1.0, 2.5, 3.3, 5.0):
            roots = floquet_analytics.characteristic_roots(params, T)
            eigs = np.sort(
                np.linalg.eigvalsh(floquet_analytics.floquet_hamiltonian_exact(params, T))
            )
            err = float(np.max(np.abs(np.array([r.energy for r in roots]) - eigs)))
            out.append((f"roots_error_L{L}_T{T}", err, 1e-9, err < 1e-9))
    return out


def _suite_sw():
    params = ChainParams(half_length=40)
    Ts = np.geomspace(0.05, 0.4, 7)
    errs = []
    for T in Ts:
        hf = floquet_analytics.floquet_hamiltonian_exact(params, float(T))
        lower = np.sort(np.linalg.eigvalsh(hf))[:40]
        approx = np.sort(np.linalg.eigvalsh(floquet_analytics.sw_effective_hamiltonian(params, float(T))))
        errs.append(np.max(np.abs(lower - approx)))
    slope = float(np.polyfit(np.log(Ts), np.log(errs), 1)[0])
    return [("sw_error_exponent", slope, 2.7, slope >= 2.7)]


def _suite_gap():
    params = ChainParams(half_length=200)
    Ts = np.arange(0.2, 3.301, 0.1)
    gaps = [floquet_analytics.quasienergy_gap(params, float(T)) for T in Ts]
    # monotone decrease holds up to the critical period; beyond it the
    # collapsed gap is a fluctuating level spacing
    below_pi = Ts <= np.pi
    monotone = bool(np.all(np.diff(np.array(gaps)[below_pi]) < 1e-12))
    crossing = None
    for T, g in zip(Ts, gaps):
        if g < 1e-2:
            crossing = float(T)
            break
    ok = crossing is not None and 3.0 <= crossing <= 3.3
    return [
        ("gap_monotone_decreasing_below_pi", float(monotone), 1.0, monotone),
        ("gap_crossing_T", -1.0 if crossing is None else crossing, 3.3, ok),
    ]


def _suite_hermiticity():
    from .model import single_particle_hamiltonian

    params = ChainParams(half_length=50)
    out = []
    for lam in (1.2, 2.0):
        h = single_particle_hamiltonian(params, lam)
        imax = float(np.max(np.abs(np.linalg.eigvals(h).imag)))
        out.append((f"pt_static_real_spectrum_lam{lam}", imax, 1e-9, imax < 1e-9))
    dev = float(
        np.max(np.abs(single_particle_hamiltonian(params, 0.5).imag))
    )
    out.append(("hermitian_defect_real", dev, 1e-15, dev <= 1e-15))
    return out


def _suite_pt():
    params = ChainParams(half_length=200)
    p1 = diagnostics.pt_classify(
        params, DriveSpec(DriveFamily.NON_HERMITIAN_TWO_STEP, period=2.7, lam=2.0)
    )
    p2 = diagnostics.pt_classify(
        params, DriveSpec(DriveFamily.NON_HERMITIAN_TWO_STEP, period=2.8, lam=2.0)
    )
    return [
        ("pt_symmetric_T2.7", p1.score, 1e-6, p1.label is diagnostics.PhaseLabel.PT_SYMMETRIC),
        ("pt_broken_T2.8", p2.score, 1e-6, p2.label is diagnostics.PhaseLabel.PT_BROKEN),
    ]


def _suite_kato():
    params = ChainParams(half_length=50)
    out = []
    hk = floquet_analytics.kato_hamiltonian_sp(params, 2.8)
    herm = float(np.max(np.abs(hk - hk.conj().T)))
    out.append(("kato_hermitian", herm, 1e-10, herm < 1e-10))
    s1 = floquet_analytics.kato_locality_stats(hk)
    out.append(("kato_offtri_T2.8", s1.off_tridiagonal_weight, 0.05, s1.off_tridiagonal_weight < 0.05))
    s2 = floquet_analytics.kato_locality_stats(floquet_analytics.kato_hamiltonian_sp(params, 3.3))
    out.append(("kato_offtri_T3.3", s2.off_tridiagonal_weight, 0.20, s2.off_tridiagonal_weight > 0.20))
    out.append(
        (
            "kato_antidiag_dominance_T3.3",
            s2.antidiagonal_mean / s2.background_mean,
            1.0,
            s2.antidiagonal_mean > s2.background_mean,
        )
    )
    return out


_SUITES = {
    "su2": _suite_su2,
    "micromotion": _suite_micromotion,
    "eq4": _suite_eq4,
    "roots": _suite_roots,
    "sw": _suite_sw,
    "gap": _suite_gap,
    "hermiticity": _suite_hermiticity,
    "pt": _suite_pt,
    "kato": _suite_kato,
}


def cmd_verify(cfg: RunConfig) -> int:
    name = cfg.values["suite"]
    if name == "all":
        names = list(_SUITES)
    elif name in _SUITES:
        names = [name]
    else:
        raise ConfigError(f"unknown suite {name!r}; pick from {sorted(_SUITES)} or 'all'")
    failed = 0
    for suite in names:
        for check, measured, bound, ok in _SUITES[suite]():
            status = "pass" if ok else "FAIL"
            print(f"{check} measured={measured:.6g} bound={bound:g} {status}")
            failed += not ok
    return 1 if failed else 0


# --- argument parsing -----------------------------------------------------------


def _add_common(sp, *names):
    if "config" in names:
        sp.add_argument("--config", help="flat key = value config file")
    if "out" in names:
        sp.add_argument("--out", help="output CSV path ('-' for stdout)")
    if "threads" in names:
        sp.add_argument("--threads", type=int, help="parallel workers over grid points")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="floqimp",
        description="Driven-defect fermion chain: entanglement dynamics and Floquet spectra",
    )
    ap.add_argument("--version", action="version", version=f"floqimp {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evolve", help="stroboscopic entanglement evolution")
    ev.add_argument("--family", type=_family)
    ev.add_argument("--L", type=int)
    ev.add_argument("--T", type=float)
    ev.add_argument("--lambda", dest="lambda_", type=float)
    ev.add_argument("--delta", type=float)
    ev.add_argument("--cycles", type=int)
    ev.add_argument("--mode", choices=["half", "profile"])
    ev.add_argument("--profile-every", type=int)
    ev.add_argument("--samples-per-cycle", type=int, choices=[1, 2])
    ev.add_argument("--n-sub", type=int)
    _add_common(ev, "config", "out")

    spc = sub.add_parser("spectrum", help="roots, sector tables, lowest-K sums")
    spc.add_argument("--mode", choices=["roots", "mb", "free-lowk"])
    spc.add_argument("--L", type=int)
    spc.add_argument("--sites", type=int)
    spc.add_argument("--N", type=int)
    spc.add_argument("--K", type=int)
    spc.add_argument("--T", type=float)
    spc.add_argument("--lambda", dest="lambda_", type=float)
    spc.add_argument("--delta", type=float)
    spc.add_argument("--with-diag", action="store_const", const=True)
    spc.add_argument("--all-fillings", action="store_const", const=True)
    _add_common(spc, "config", "out")

    ph = sub.add_parser("phase", help="PT phase diagram over (T, lambda)")
    ph.add_argument("--L", type=int)
    ph.add_argument("--T-min", type=float)
    ph.add_argument("--T-max", type=float)
    ph.add_argument("--T-step", type=float)
    ph.add_argument("--lambda-min", type=float)
    ph.add_argument("--lambda-max", type=float)
    ph.add_argument("--lambda-step", type=float)
    ph.add_argument("--pt-tol", type=float)
    _add_common(ph, "config", "out", "threads")

    gp = sub.add_parser("gap", help="gap vs period curve")
    gp.add_argument("--family", type=_family)
    gp.add_argument("--L", type=int)
    gp.add_argument("--lambda", dest="lambda_", type=float)
    gp.add_argument("--T-min", type=float)
    gp.add_argument("--T-max", type=float)
    gp.add_argument("--T-step", type=float)
    _add_common(gp, "config", "out", "threads")

    vf = sub.add_parser("verify", help="run invariant suites, one line per check")
    vf.add_argument("--suite")
    _add_common(vf, "config")
    return ap


_SPECS = {
    "evolve": {
        "family": (str, None),
        "L": (int, None),
        "T": (float, None),
        "lambda": (float, 1.0),
        "delta": (float, 0.0),
        "cycles": (int, None),
        "mode": (str, "half"),
        "profile-every": (int, UNSET),
        "samples-per-cycle": (int, 1),
        "n-sub": (int, EXACT),
        "out": (str, "-"),
    },
    "spectrum": {
        "mode": (str, None),
        "L": (int, 50),
        "sites": (int, 14),
        "N": (int, -1),
        "K": (int, 100),
        "T": (float, None),
        "lambda": (float, 0.5),
        "delta": (float, 0.0),
        "with-diag": (bool, False),
        "all-fillings": (bool, False),
        "out": (str, "-"),
    },
    "phase": {
        "L": (int, 200),
        "T-min": (float, 2.0),
        "T-max": (float, 4.0),
        "T-step": (float, 0.05),
        "lambda-min": (float, 1.0),
        "lambda-max": (float, 2.4),
        "lambda-step": (float, 0.05),
        "pt-tol": (float, diagnostics.DEFAULT_PT_TOL),
        "threads": (int, 1),
        "out": (str, "-"),
    },
    "gap": {
        "family": (str, "harmonic"),
        "L": (int, 200),
        "lambda": (float, 0.5),
        "T-min": (float, 0.2),
        "T-max": (float, 4.2),
        "T-step": (float, 0.1),
        "threads": (int, 1),
        "out": (str, "-"),
    },
    "verify": {"suite": (str, "all")},
}

_DISPATCH = {
    "evolve": cmd_evolve,
    "spectrum": cmd_spectrum,
    "phase": cmd_phase,
    "gap": cmd_gap,
    "verify": cmd_verify,
}

_MODEL_ERRORS = (
    floquet_analytics.RootCountMismatch,
    floquet_analytics.NormalizationUnderflow,
    gaussian.DegenerateFermiLevel,
    gaussian.RankDeficient,
    manybody_ed.SectorTooLarge,
    manybody_ed.NonNormalUnitary,
    manybody_ed.KOutOfRange,
    diagnostics.WindowTooShort,
    diagnostics.NoRevivalDetected,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    spec = _SPECS[command]
    # map argparse namespace names back onto the spec keys
    ns = vars(args)
    for key in spec:
        attr = {"lambda": "lambda_"}.get(key, key.replace("-", "_"))
        setattr(args, key.replace("-", "_"), ns.get(attr))
    try:
        cfg = _resolve(args, spec, command)
        # family strings from env/config become enums here
        if "family" in cfg.values and isinstance(cfg.values["family"], str):
            if cfg.values["family"] not in _FAMILIES:
                raise ConfigError(f"unknown family {cfg.values['family']!r}")
            cfg.values["family"] = _FAMILIES[cfg.values["family"]]
        if command == "spectrum" and cfg.values["N"] == -1:
            cfg.values["N"] = cfg.values["sites"] // 2
        _validate(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[command](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except _MODEL_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _validate(cfg: RunConfig) -> None:
    v = cfg.values
    for key in ("T", "T-min", "T-max", "T-step"):
        if key in v and v[key] is not None and v[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    if "L" in v and v["L"] is not None and v["L"] < 2:
        raise ConfigError("L must be >= 2")
    if "cycles" in v and v["cycles"] < 0:
        raise ConfigError("cycles must be >= 0")
    if v.get("n-sub", EXACT) != EXACT and v["n-sub"] < 1:
        raise ConfigError("n-sub must be >= 1")
    if v.get("profile-every", UNSET) != UNSET and v["profile-every"] < 1:
        raise ConfigError("profile-every must be >= 1")
    if "threads" in v and v["threads"] < 1:
        raise ConfigError("threads must be >= 1")


if __name__ == "__main__":
    sys.exit(main())
