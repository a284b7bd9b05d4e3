"""The table of invariant checks behind ``floqimp verify``.

``SUITES`` maps each suite name to a function that returns one
``(name, measured, bound, ok)`` row per check.  The acceptance gate and the
unit tests read the same rows instead of restating the checks: criterion 01
takes its 4096-step deviations from ``eq4``, 02 its root errors from
``roots``, 05 its exponent from ``sw``, 06 its locality numbers from
``kato`` and 10 its lambda = 2 anchor, with its eigvals oracle, from ``pt``.
"""

from __future__ import annotations

import numpy as np

from . import diagnostics, floquet_analytics, gaussian
from .model import ChainParams, DriveFamily, DriveSpec, single_particle_hamiltonian


def _su2():
    rep = floquet_analytics.su2_check(30)
    return [("su2_max_deviation", rep.max_deviation, 1e-13, rep.max_deviation < 1e-13)]


def _micromotion():
    # exp(i pi (sigma - 1)) must be the identity
    sig = floquet_analytics.mirror_operator(40)
    w, vv = np.linalg.eigh(sig)
    dev = float(np.max(np.abs((vv * np.exp(1j * np.pi * (w - 1.0))) @ vv.conj().T - np.eye(80))))
    return [("micromotion_identity", dev, 1e-12, dev < 1e-12)]


def _eq4():
    params = ChainParams(half_length=50)
    out = []
    for T in (0.7, 2.5, 3.3):
        exact = gaussian.harmonic_propagator(params, T).matrix
        u = gaussian.midpoint_propagator(params, T, 4096).matrix
        dev = float(np.max(np.abs(u - exact)))
        out.append((f"eq4_deviation_T{T}", dev, 1e-5, dev < 1e-5))
    return out


def _roots():
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


def _sw():
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


def _gap():
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


def _hermiticity():
    params = ChainParams(half_length=50)
    out = []
    for lam in (1.2, 2.0):
        h = single_particle_hamiltonian(params, lam)
        imax = float(np.max(np.abs(np.linalg.eigvals(h).imag)))
        out.append((f"pt_static_real_spectrum_lam{lam}", imax, 1e-9, imax < 1e-9))
    dev = float(np.max(np.abs(single_particle_hamiltonian(params, 0.5).imag)))
    out.append(("hermitian_defect_real", dev, 1e-15, dev <= 1e-15))
    return out


def _pt():
    # lam = 2 breaks between T = 2.7 and 2.8; the complex eigvals of the full period are the oracle
    params = ChainParams(half_length=200)
    sym = diagnostics.PhaseLabel.PT_SYMMETRIC
    out = []
    for T, want, bound in ((2.7, sym, 1e-12), (2.8, diagnostics.PhaseLabel.PT_BROKEN, 1e-9)):
        drive = DriveSpec(DriveFamily.NON_HERMITIAN_TWO_STEP, period=T, lam=2.0)
        point = diagnostics.pt_classify(params, drive)
        u = np.linalg.eigvals(gaussian.two_step_propagator(params, drive).matrix)
        oracle = float(np.max(np.abs(np.abs(u) - 1.0)))
        dev = oracle if want is sym else abs(point.score - oracle) / oracle
        out.append((f"{want.value.replace('-', '_')}_T{T}", point.score, 1e-6, point.label is want))
        out.append((f"pt_eigvals_T{T}", dev, bound, dev <= bound))
    return out


def _kato():
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


SUITES = {
    "su2": _su2,
    "micromotion": _micromotion,
    "eq4": _eq4,
    "roots": _roots,
    "sw": _sw,
    "gap": _gap,
    "hermiticity": _hermiticity,
    "pt": _pt,
    "kato": _kato,
}
