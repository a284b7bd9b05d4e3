"""Output checks for the benchmark's operations.

Each check either recomputes the program's result apart from floqimp or
tests a property the method must have, and raises ``CheckFailed`` with the
values it saw when the result is wrong.  The independent route builds its
own chain Hamiltonian (defect block on the central bond, uniform half of
the period first), its own propagators with ``scipy.linalg.expm`` or
``eigh``, and its own entropies from restricted correlation matrices
(Peschel, J. Phys. A 36, L205 (2003)).  Nothing here imports floqimp.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import combinations

import numpy as np
from scipy.linalg import expm

PT_TOL = 1e-6  # floqimp's default --pt-tol, passed explicitly to the CLI
SERIES_TOL = 1e-7  # nats; the two routes agree to ~1e-10 at 2L = 400 (entropy clipping)
# The CLI's harmonic profile uses a 1024-step midpoint propagator, off by
# 1.7e-6 nats after 12 cycles (2.1e-6 after 60) at L = 200, T ~ 4.2; the
# reference is exact, so the bound holds for the midpoint and for a
# closed-form route.
PROFILE_TOL = 1e-5
# Criterion 03's bounds: below pi S_L stays below S(0) + BOUNDED_MARGIN,
# above pi the heating slope exceeds HEATING_SLOPE_MIN; the long run below
# pi shows at least RECURRENCES_MIN recurrences (criterion 10).
BOUNDED_MARGIN = 2.5
HEATING_SLOPE_MIN = 0.05
RECURRENCES_MIN = 2
SUM_TOL = 1e-9
THETA_TOL = 1e-10
WEIGHT_TOL = 1e-10


class CheckFailed(Exception):
    """An operation's output failed its check."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- independent physics ----------------------------------------------------


def chain_hamiltonian(L: int, lam: float) -> np.ndarray:
    """2L-site open chain, hopping -1/2, two-site defect on bond (L, L+1)."""
    n = 2 * L
    h = np.zeros((n, n), dtype=complex)
    for j in range(n - 1):
        h[j, j + 1] = h[j + 1, j] = -0.5
    if abs(lam) <= 1.0:
        onsite = 0.5 * math.sqrt(1.0 - lam * lam)
    else:
        onsite = 0.5j * math.sqrt(lam * lam - 1.0)
    h[L - 1, L - 1] = onsite
    h[L, L] = -onsite
    h[L - 1, L] = h[L, L - 1] = -0.5 * lam
    return h


def _flush(a: np.ndarray) -> np.ndarray:
    """Zero entries below 1e-30 (O(1) entries elsewhere; the results move by < 1e-28).

    exp of a banded matrix underflows far from the band into subnormal
    numbers, and products that touch them run 5-20x slower.
    """
    a[np.abs(a) < 1e-30] = 0.0
    return a


def two_step_unitary(L: int, T: float, lam: float) -> np.ndarray:
    """exp(-i h(lam) T/2) exp(-i h(1) T/2): uniform half first."""
    half = [_flush(expm(-0.5j * T * chain_hamiltonian(L, x))) for x in (lam, 1.0)]
    return _flush(half[0] @ half[1])


def harmonic_unitary(L: int, T: float) -> np.ndarray:
    """exp(-i h_F T) with h_F = h_uniform + (pi/T)(sigma - 1), sigma the mirror."""
    n = 2 * L
    sigma = np.zeros((n, n), dtype=complex)
    for j in range(L):
        sigma[j, n - 1 - j] = 1j
        sigma[n - 1 - j, j] = -1j
    h_f = chain_hamiltonian(L, 1.0) + (math.pi / T) * (sigma - np.eye(n))
    w, v = np.linalg.eigh(h_f)
    return (v * np.exp(-1j * w * T)) @ v.conj().T


def initial_orbitals(L: int) -> np.ndarray:
    """The L lowest modes of the uniform chain (half filling)."""
    _, v = np.linalg.eigh(chain_hamiltonian(L, 1.0).real)
    return v[:, :L].astype(complex)


def block_entropy(orbitals: np.ndarray, cut: int) -> float:
    """Entropy (nats) of sites [1, cut] of an orthonormal Slater determinant.

    A pure state has S(A) = S(complement), so the smaller side's restricted
    correlation matrix is diagonalised.
    """
    n = orbitals.shape[0]
    rows = orbitals[:cut] if cut <= n - cut else orbitals[cut:]
    nu = np.linalg.eigvalsh(rows @ rows.conj().T)
    nu = nu[(nu > 1e-15) & (nu < 1.0 - 1e-15)]
    return float(-np.sum(nu * np.log(nu) + (1.0 - nu) * np.log1p(-nu)))


def sampled_cycles(cycles: int) -> list[int]:
    return sorted({0, 1, cycles // 4, cycles // 2, (3 * cycles) // 4, cycles})


def reference_half_chain(L: int, T: float, lam: float, cycles: int) -> dict[int, float]:
    """S_L at sampled cycles from the benchmark's own propagation.

    Unitary drives use powers of U by repeated squaring; no-click drives
    (lam > 1) step period by period and re-orthonormalise the orbitals by QR
    every 8 periods and at the sampled ones (the span, and so S_L, is the
    same as with a QR after every period).
    """
    u = two_step_unitary(L, T, lam)
    phi0 = initial_orbitals(L)
    wanted = sampled_cycles(cycles)
    out = {}
    if lam <= 1.0:
        powers = [u]
        while 2 ** len(powers) <= cycles:
            powers.append(_flush(powers[-1] @ powers[-1]))
        for n in wanted:
            phi = phi0
            for k, p in enumerate(powers):
                if (n >> k) & 1:
                    phi = _flush(p @ phi)
            out[n] = block_entropy(phi, L)
        return out
    phi = phi0
    out[0] = block_entropy(phi, L)
    for n in range(1, cycles + 1):
        phi = _flush(u @ phi)
        if n % 8 == 0 or n in wanted:
            phi = np.linalg.qr(phi)[0]
        if n in wanted:
            out[n] = block_entropy(phi, L)
    return out


# --- quench -------------------------------------------------------------------


def check_series(entropies, reference: dict[int, float]) -> None:
    for n, s_ref in reference.items():
        dev = abs(float(entropies[n]) - s_ref)
        require(
            dev <= SERIES_TOL,
            f"S_L at cycle {n}: {entropies[n]!r} vs reference {s_ref!r} (|dev| {dev:.2e} > {SERIES_TOL:g})",
        )


def check_bounded(entropies) -> None:
    top = float(np.max(entropies))
    limit = entropies[0] + BOUNDED_MARGIN
    require(top < limit, f"max S_L {top:.4f} not below S(0) + {BOUNDED_MARGIN} = {limit:.4f}")


def check_heating_slope(slope: float, heating: bool) -> None:
    require(bool(heating), f"slope {slope:.4f} not labelled heating")
    require(slope > HEATING_SLOPE_MIN, f"heating slope {slope:.4f} not above {HEATING_SLOPE_MIN}")


def check_recurrences(count: int) -> None:
    require(count >= RECURRENCES_MIN, f"{count} recurrences, need >= {RECURRENCES_MIN}")


# --- harmonic profile -------------------------------------------------------------


def _read_csv(text: str, header: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    require(bool(lines) and lines[0] == header, f"CSV header {lines[:1]!r}, expected {header!r}")
    return list(csv.reader(io.StringIO("\n".join(lines[1:]))))


def check_profile_csv(text: str, L: int, T: float, cycles: int, every: int) -> None:
    """Schema, row count, and every cut of every snapshot against exp(-i h_F T)."""
    rows = _read_csv(text, "cycle,t,cut,S_nats")
    snapshots = [n for n in range(cycles + 1) if n % every == 0]
    n = 2 * L
    require(len(rows) == len(snapshots) * (n - 1), f"{len(rows)} rows, expected {len(snapshots) * (n - 1)}")
    u = harmonic_unitary(L, T)
    phi = initial_orbitals(L)
    it = iter(rows)
    for cycle in range(cycles + 1):
        if cycle:
            phi = u @ phi
        if cycle % every:
            continue
        for cut in range(1, n):
            c, t, k, s = next(it)
            require(int(c) == cycle and int(k) == cut, f"row ({c}, {k}) where ({cycle}, {cut}) was due")
            require(abs(float(t) - cycle * T) <= 1e-9 * max(1.0, cycle * T), f"t={t} at cycle {cycle}")
            ref = block_entropy(phi, cut)
            require(abs(float(s) - ref) <= PROFILE_TOL, f"cycle {cycle} cut {cut}: S {s} vs reference {ref!r}")


# --- sector ED ----------------------------------------------------------------------


def interaction_trace(n_sites: int, filling: int, delta: float) -> float:
    """tr H_avg in the sector: each of the 2L-1 bonds is doubly occupied in C(2L-2, N-2) states.

    The hopping and the defect's +-onsite terms are traceless.
    """
    if filling < 2:
        return 0.0
    return (n_sites - 1) * math.comb(n_sites - 2, filling - 2) * delta


def subset_sums(theta_sp, filling: int) -> np.ndarray:
    """Sorted sums of every ``filling`` distinct entries of ``theta_sp`` (brute force)."""
    sp = np.asarray(theta_sp, dtype=float)
    return np.sort([sp[list(c)].sum() for c in combinations(range(len(sp)), filling)])


def check_table_sums(theta, weight, n_sites: int, filling: int, delta: float) -> None:
    wsum = float(np.sum(weight))
    require(abs(wsum - 1.0) <= SUM_TOL, f"sum of weights {wsum!r} != 1")
    trace = interaction_trace(n_sites, filling, delta)
    tsum = float(np.sum(theta))
    require(abs(tsum - trace) <= SUM_TOL * max(1.0, abs(trace)), f"sum of theta {tsum!r} != tr H_avg = {trace!r}")


def check_free_table(theta, ground_weight: float, theta_sp, filling: int, det_weight: float) -> None:
    """Free sector: theta are the subset sums of theta_sp; weight equals the determinant route."""
    brute = subset_sums(theta_sp, filling)
    require(len(brute) == len(theta), f"{len(theta)} theta, expected {len(brute)}")
    dev = float(np.max(np.abs(np.sort(theta) - brute)))
    require(dev <= THETA_TOL, f"theta vs subset sums: max |dev| {dev:.2e}")
    dw = abs(ground_weight - det_weight)
    require(dw <= WEIGHT_TOL, f"ground_state_weight {ground_weight!r} vs determinant {det_weight!r}")


def check_weight_side(ground_weight: float, below_pi: bool) -> None:
    if below_pi:
        require(ground_weight > 0.5, f"ground_state_weight {ground_weight:.4g} not above 0.5 below pi")
    else:
        require(ground_weight < 0.1, f"ground_state_weight {ground_weight:.4g} not below 0.1 above pi")


def check_lowest_k(values, theta_sp, filling: int, k: int) -> None:
    values = np.asarray(values)
    require(len(values) == k, f"{len(values)} values, expected {k}")
    require(bool(np.all(np.diff(values) >= 0.0)), "values not nondecreasing")
    first = float(np.sort(theta_sp)[:filling].sum())
    require(abs(values[0] - first) <= 1e-12 * max(1.0, abs(first)), f"first {values[0]!r} != {first!r}")


def check_lowest_k_brute(values, theta_sp, filling: int) -> None:
    brute = subset_sums(theta_sp, filling)
    require(len(values) == len(brute), f"{len(values)} values, expected {len(brute)}")
    dev = float(np.max(np.abs(np.asarray(values) - brute)))
    require(dev <= 1e-12, f"lowest-K vs brute force: max |dev| {dev:.2e}")


# --- PT sweep ---------------------------------------------------------------------------


def pt_score(L: int, T: float, lam: float) -> float:
    return float(np.max(np.abs(np.abs(np.linalg.eigvals(two_step_unitary(L, T, lam))) - 1.0)))


def check_phase_csv(text: str, L: int, T_values, lam_values) -> None:
    """Row order and count; per lambda row the first symmetric->broken step
    starts below pi, and both points of that step carry the label that the
    benchmark's own eigenvalue moduli give."""
    rows = _read_csv(text, "T,lambda,label,score")
    require(len(rows) == len(T_values) * len(lam_values), f"{len(rows)} rows, expected {len(T_values) * len(lam_values)}")
    it = iter(rows)
    for lam in lam_values:
        labels = []
        for T in T_values:
            t_s, lam_s, label, _ = next(it)
            require(
                abs(float(t_s) - T) <= 1e-9 and abs(float(lam_s) - lam) <= 1e-9,
                f"row (T={t_s}, lambda={lam_s}) where ({T}, {lam}) was due",
            )
            require(label in ("pt-symmetric", "pt-broken"), f"label {label!r}")
            labels.append(label)
        require(labels[0] == "pt-symmetric", f"lambda={lam}: row starts {labels[0]}")
        require("pt-broken" in labels, f"lambda={lam}: no broken point")
        b = labels.index("pt-broken")
        require(T_values[b - 1] < math.pi, f"lambda={lam}: step ({T_values[b - 1]}, {T_values[b]}] starts above pi")
        for i in (b - 1, b):
            score = pt_score(L, T_values[i], lam)
            mine = "pt-symmetric" if score < PT_TOL else "pt-broken"
            require(mine == labels[i], f"lambda={lam} T={T_values[i]}: label {labels[i]}, moduli give {mine} (score {score:.2e})")
