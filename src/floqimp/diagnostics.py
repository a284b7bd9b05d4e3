"""Classifiers and summary curves: heating detection, revivals, PT diagrams.

These functions turn stroboscopic entropy series and propagator spectra into
the phase labels used throughout: heating vs non-heating from the linear
growth rate of the half-chain entropy, revival periods from prominent
entropy minima, and PT symmetric vs broken from the modulus of the
non-Hermitian Floquet eigenvalues, read from the real Cayley transform of
the symmetrized period.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import lapack

from .model import ChainParams, DriveFamily, DriveSpec
from .gaussian import (
    GaussianState,
    Propagator,
    build_propagator,
    evolve,
    half_chain_entropy,
    half_filled_ground_state,
    symmetrized_two_step,
)
from .floquet_analytics import quasienergy_gap

DEFAULT_SLOPE_WINDOW = (5, 60)
DEFAULT_SLOPE_THRESHOLD = 0.02
DEFAULT_PT_TOL = 1e-6
DEFAULT_MIN_PROMINENCE = 0.2
# Cayley phases, tried in order: the first at which the LU of 1 + e^{i phi} K
# has a LAPACK reciprocal condition estimate above the floor is used
_CAYLEY_PHASES = (0.7, 2.1, 3.6, 5.0)
_RCOND_FLOOR = 1e-6


class WindowTooShort(Exception):
    """Raised when a series cannot support the requested fit window."""


class NoRevivalDetected(Exception):
    """Raised when fewer than two prominent entropy minima exist."""


class CayleyPole(Exception):
    """Raised when 1 + e^{i phi} K is near singular at every Cayley phase."""


class PhaseLabel(Enum):
    NON_HEATING = "non-heating"
    HEATING = "heating"
    PT_SYMMETRIC = "pt-symmetric"
    PT_BROKEN = "pt-broken"


@dataclass(frozen=True)
class EETimeSeries:
    """Half-chain entropy at integer cycles, with the drive that produced it."""

    params: ChainParams
    drive: DriveSpec
    cycles: np.ndarray = field(repr=False)
    entropies: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.cycles) != len(self.entropies):
            raise ValueError("cycles and entropies must have equal length")


@dataclass(frozen=True)
class PhasePoint:
    period: float
    lam: float
    label: PhaseLabel
    score: float
    delta: float = 0.0


def stroboscopic_states(
    params: ChainParams, period: float, steps: Sequence[Propagator], cycles: int
) -> Iterator[tuple[int, float, GaussianState]]:
    """Evolve the half-filled uniform ground state; yield (cycle, t, state).

    ``steps`` split one period into equal parts that act in order: one
    one-period propagator, or the two half-period ``two_step_factors``.
    The initial state comes first at (0, 0.0), then the state after every
    step; a period's last step lands on t = cycle * period.  Non-unitary
    steps renormalise the orbitals (no-click evolution); unitary steps
    propagate them directly.  ``evolve`` does not re-check orthonormality,
    so the last state is re-checked: drift above 1e-8 accumulated over the
    run raises ValueError there.
    """
    state = half_filled_ground_state(params)
    yield 0, 0.0, state
    k = len(steps)
    for n in range(1, cycles + 1):
        for j, prop in enumerate(steps, 1):
            state = evolve(state, prop, renormalize=not prop.unitary)
            if n == cycles and j == k:
                state = GaussianState(orbitals=state.orbitals)
            t = n * period if j == k else (n - 1) * period + j * period / k
            yield n, t, state


def half_chain_series(
    params: ChainParams, drive: DriveSpec, cycles: int, n_sub: int | None = None
) -> EETimeSeries:
    """Evolve the half-filled uniform ground state and record S_L per cycle.

    Non-unitary drives are renormalised every period (no-click evolution);
    unitary drives propagate the orbitals directly.  ``n_sub`` selects the
    harmonic midpoint propagator instead of the closed form.
    """
    prop = build_propagator(params, drive, n_sub=n_sub)
    states = stroboscopic_states(params, drive.period, (prop,), cycles)
    ent = np.array([half_chain_entropy(state) for _, _, state in states])
    return EETimeSeries(
        params=params, drive=drive, cycles=np.arange(cycles + 1), entropies=ent
    )


def classify_heating(
    series: EETimeSeries,
    window: tuple[int, int] = DEFAULT_SLOPE_WINDOW,
    slope_threshold: float = DEFAULT_SLOPE_THRESHOLD,
) -> PhasePoint:
    """Label a series heating when the entropy slope over ``window`` exceeds
    ``slope_threshold`` (nats per cycle).

    The default window starts at cycle 5 to skip the initial spreading from
    the defect.  The fit is an ordinary least-squares line, so the label is
    invariant under adding a constant to the series.
    """
    lo, hi = window
    if len(series.entropies) < 10 or hi >= len(series.entropies) or hi - lo < 2:
        raise WindowTooShort(
            f"series of length {len(series.entropies)} cannot fit window {window}"
        )
    x = series.cycles[lo : hi + 1]
    y = series.entropies[lo : hi + 1]
    slope = float(np.polyfit(x, y, 1)[0])
    label = PhaseLabel.HEATING if slope > slope_threshold else PhaseLabel.NON_HEATING
    return PhasePoint(
        period=series.drive.period,
        lam=series.drive.lam,
        label=label,
        score=slope,
        delta=series.params.delta,
    )


def _prominent_peaks(x: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of the local maxima of ``x`` with prominence >= ``min_prominence``.

    The definitions of ``scipy.signal.find_peaks(x, prominence=...)``: a
    peak is a sample above its left neighbour and above the first different
    sample to its right, and a flat top counts once, at its middle (rounded
    down); the border samples are never peaks.  Its prominence is its height
    minus the higher of the two minima met walking outwards to the border
    or to the first higher sample.
    """
    v = np.asarray(x, dtype=float).tolist()
    n = len(v)
    peaks = []
    i = 1
    while i < n - 1:
        if v[i - 1] < v[i]:
            ahead = i + 1
            while ahead < n - 1 and v[ahead] == v[i]:
                ahead += 1
            if v[ahead] < v[i]:
                peaks.append((i + ahead - 1) // 2)
                i = ahead
        i += 1
    kept = []
    for p in peaks:
        top = v[p]
        left = right = top
        j = p
        while j >= 0 and v[j] <= top:
            left = min(left, v[j])
            j -= 1
        j = p
        while j < n and v[j] <= top:
            right = min(right, v[j])
            j += 1
        if top - max(left, right) >= min_prominence:
            kept.append(p)
    return np.array(kept, dtype=int)


def _prominent_minima(entropies: np.ndarray, rel_prominence: float) -> np.ndarray:
    spread = float(entropies.max() - entropies.min())
    if spread == 0.0:
        return np.array([], dtype=int)
    return _prominent_peaks(-entropies, rel_prominence * spread)


def quasiparticle_velocity(delta: float) -> float:
    """Sound velocity of the gapless interacting chain, v = (pi/2) sqrt(1-d^2)/arccos(d).

    Equals 1 in the free case; revivals of the half-chain entropy recur with
    period 2L / v.
    """
    if not -1.0 < delta < 1.0:
        raise ValueError("velocity formula requires |delta| < 1")
    if delta == 0.0:
        return 1.0
    return float(0.5 * np.pi * np.sqrt(1.0 - delta * delta) / np.arccos(delta))


def revival_period(series: EETimeSeries, min_prominence: float = DEFAULT_MIN_PROMINENCE) -> float:
    """Mean spacing of the prominent entropy minima, in time units.

    Revivals return the half-chain entropy toward its initial value, so they
    are detected as local minima with prominence at least ``min_prominence``
    times the series range.  Raises NoRevivalDetected with fewer than two.
    """
    minima = _prominent_minima(series.entropies, min_prominence)
    if len(minima) < 2:
        raise NoRevivalDetected(f"found {len(minima)} prominent minima, need >= 2")
    return float(np.mean(np.diff(minima)) * series.drive.period)


def count_recurrences(
    series: EETimeSeries,
    early_window: int = 30,
    rel_prominence: float = 0.05,
    rel_tol: float = 0.10,
) -> int:
    """Number of prominent minima within ``rel_tol`` of the early-time minimum.

    The early-time minimum is taken over cycles 1..early_window; any
    prominent local minimum (from cycle 1 on) whose entropy is at most
    (1 + rel_tol) times that value counts as a recurrence.
    """
    ent = series.entropies
    if len(ent) <= early_window:
        raise WindowTooShort("series shorter than the early window")
    early_min = float(ent[1 : early_window + 1].min())
    minima = _prominent_minima(ent, rel_prominence)
    return int(np.sum(ent[minima] <= (1.0 + rel_tol) * early_min))


def cayley_eigenvalues(k: np.ndarray) -> tuple[np.ndarray, float]:
    """Eigenvalues a of the real Cayley transform of e^{i phi} k, and phi.

    ``k`` must satisfy conj(k) = k^-1.  Then N = e^{i phi} k does too, so
    A = i(1 - N)(1 + N)^-1 = -2 Im (1 + N)^-1 is real and one real
    ``eigvals`` gives its spectrum.  An eigenvalue u of k maps to
    a = i(1 - e^{i phi} u)/(1 + e^{i phi} u), and back through
    u = e^{-i phi} (i - a)/(a + i); |u| = 1 exactly when a is real.  phi is
    the first of ``_CAYLEY_PHASES`` at which 1 + N is well conditioned;
    CayleyPole when there is none.
    """
    n = k.shape[0]
    for phi in _CAYLEY_PHASES:
        m = np.exp(1j * phi) * k
        m[np.diag_indices(n)] += 1.0
        lu, piv, info = lapack.zgetrf(m)
        if info == 0 and lapack.zgecon(lu, np.linalg.norm(m, 1))[0] > _RCOND_FLOOR:
            break
    else:
        raise CayleyPole(f"1 + exp(i phi) K is near singular at every phi in {_CAYLEY_PHASES}")
    inv, _ = lapack.zgetri(lu, piv, lwork=int(lapack.zgetri_lwork(n)[0].real))
    return np.linalg.eigvals(-2.0 * inv.imag), phi


def _mirror_frame(k: np.ndarray) -> np.ndarray:
    """B^dagger k B in the mirror basis B = [(e_j + e_Pj)/sqrt2, i(e_j - e_Pj)/sqrt2].

    j runs over the left half and P is the mirror j <-> 2L+1-j, so PT acts
    on these coordinates as plain complex conjugation.  B holds only the
    identity and the reversal on each half, so the product is index
    arithmetic on k's four L x L blocks.
    """
    L = k.shape[0] // 2
    top, bottom = k[:L], k[L:][::-1]

    def fold(rows):
        left, right = rows[:, :L], rows[:, L:][:, ::-1]
        return left + right, left - right

    pp, pm = fold(top + bottom)
    mp, mm = fold(top - bottom)
    return 0.5 * np.block([[pp, 1j * pm], [-1j * mp, mm]])


def two_step_cayley(params: ChainParams, drive: DriveSpec) -> tuple[np.ndarray, float]:
    """``cayley_eigenvalues`` of a two-step period, and phi.

    The symmetrized period K shares U's spectrum; it is taken in the basis
    where its antiunitary symmetry is complex conjugation: the site basis
    for |lam| <= 1, the mirror basis for lam > 1.
    """
    k = symmetrized_two_step(params, drive)
    if drive.lam > 1:
        k = _mirror_frame(k)
    return cayley_eigenvalues(k)


def _modulus_deviation(a: np.ndarray) -> np.ndarray:
    """||u| - 1| for u = e^{-i phi} (i - a)/(a + i), exactly 0 for real a."""
    a = np.asarray(a, dtype=complex)
    x, y = a.real, a.imag
    d = x * x + (1.0 + y) ** 2
    modulus = np.sqrt((x * x + (1.0 - y) ** 2) / d)
    return 4.0 * np.abs(y) / (d * (1.0 + modulus))


def pt_classify(params: ChainParams, drive: DriveSpec, tol: float = DEFAULT_PT_TOL) -> PhasePoint:
    """PT label from the eigenvalue moduli of the two-step propagator.

    score = max_n ||u_n| - 1|; the spectrum of an unbroken PT-symmetric
    period sits on the unit circle, so the point is PT symmetric iff the
    score stays below ``tol``.  The moduli come from ``two_step_cayley``:
    real Cayley eigenvalues lie exactly on the circle and score 0.
    """
    a, _ = two_step_cayley(params, drive)
    score = float(np.max(_modulus_deviation(a)))
    label = PhaseLabel.PT_SYMMETRIC if score < tol else PhaseLabel.PT_BROKEN
    return PhasePoint(
        period=drive.period, lam=drive.lam, label=label, score=score, delta=params.delta
    )


def _drive_for(lam: float, T: float) -> DriveSpec:
    family = DriveFamily.NON_HERMITIAN_TWO_STEP if lam > 1 else DriveFamily.TWO_STEP
    return DriveSpec(family=family, period=T, lam=lam)


def phase_diagram(
    params: ChainParams,
    T_values: np.ndarray,
    lam_values: np.ndarray,
    tol: float = DEFAULT_PT_TOL,
) -> list[PhasePoint]:
    """PT labels on the (T, lambda) grid, row-major over lambda then T."""
    points = []
    for lam in lam_values:
        for T in T_values:
            points.append(pt_classify(params, _drive_for(float(lam), float(T)), tol=tol))
    return points


def pt_boundary(
    params: ChainParams,
    lam: float,
    T_values: np.ndarray,
    tol: float = DEFAULT_PT_TOL,
) -> float | None:
    """Estimated PT-breaking period: midpoint of the first symmetric-to-broken
    step of the scan, or None when no transition is bracketed."""
    prev_T = None
    for T in T_values:
        point = pt_classify(params, _drive_for(lam, float(T)), tol=tol)
        if point.label is PhaseLabel.PT_BROKEN:
            if prev_T is None:
                return None
            return 0.5 * (prev_T + float(T))
        prev_T = float(T)
    return None


def gap_curve(
    params: ChainParams,
    T_values: np.ndarray,
    family: DriveFamily = DriveFamily.HARMONIC,
    lam: float = 0.5,
) -> list[tuple[float, float]]:
    """(T, gap) pairs along a period sweep.

    Harmonic family: band gap of the closed-form stroboscopic generator.
    Two-step family: a folded-spectrum proxy, the largest gap between sorted
    eigenphases on the quasienergy circle minus the mean level spacing
    (finite-size stand-in for the folding threshold).
    """
    out = []
    if family is DriveFamily.HARMONIC:
        for T in T_values:
            out.append((float(T), quasienergy_gap(params, float(T))))
        return out
    n = params.n_sites
    for T in T_values:
        a, phi = two_step_cayley(params, _drive_for(lam, float(T)))
        u = np.exp(-1j * phi) * (1j - a) / (a + 1j)
        eps = np.sort(-np.angle(u) / T)
        gaps = np.diff(eps)
        wrap = 2.0 * np.pi / T - (eps[-1] - eps[0])
        largest = float(max(gaps.max(), wrap))
        out.append((float(T), largest - 2.0 * np.pi / T / n))
    return out
