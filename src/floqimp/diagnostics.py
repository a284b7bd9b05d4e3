"""Classifiers and summary curves: heating detection, revivals, PT diagrams.

These functions turn stroboscopic entropy series and propagator spectra into
the phase labels used throughout: heating vs non-heating from the linear
growth rate of the half-chain entropy, revival periods from prominent
entropy minima, and PT symmetric vs broken from the modulus of the
non-Hermitian Floquet eigenvalues.  Those are read from mu = u + 1/u, the
eigenvalues of an L x L block of K + K^-1 (K the symmetrized period), cut
out by the symmetry C = P Gamma that pairs each u with 1/u.  The block is
linear in lambda: three real parts per period (``period_factors``), one sum per point.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import ChainParams, DriveFamily, DriveSpec, ModelError
from .gaussian import (
    GaussianState,
    Propagator,
    build_propagator,
    evolve,
    half_chain_entropy,
    half_filled_ground_state,
    uniform_eigh,
)
from .floquet_analytics import quasienergy_gap

SLOPE_WINDOW = (5, 60)
SLOPE_THRESHOLD = 0.02
REVIVAL_PROMINENCE = 0.2
RECURRENCE_WINDOW = 30
RECURRENCE_PROMINENCE = 0.05
RECURRENCE_TOL = 0.10
DEFAULT_PT_TOL = 1e-6


class WindowTooShort(ModelError):
    """Raised when a series is too short for the fit window."""


class NoRevivalDetected(ModelError):
    """Raised when fewer than two prominent entropy minima exist."""


class OrbitalDrift(ModelError):
    """Raised when an evolved state's orbitals drift from orthonormal by more than 1e-8."""


class PhaseLabel(Enum):
    NON_HEATING = "non-heating"
    HEATING = "heating"
    PT_SYMMETRIC = "pt-symmetric"
    PT_BROKEN = "pt-broken"


@dataclass(frozen=True)
class EETimeSeries:
    """Half-chain entropy at cycles 0, 1, 2, ..., with the drive that produced it."""

    drive: DriveSpec
    entropies: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class PhasePoint:
    period: float
    lam: float
    label: PhaseLabel
    score: float


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
    run raises OrbitalDrift there.
    """
    state = half_filled_ground_state(params)
    yield 0, 0.0, state
    k = len(steps)
    for n in range(1, cycles + 1):
        for j, prop in enumerate(steps, 1):
            state = evolve(state, prop)
            if n == cycles and j == k:
                try:
                    state = GaussianState(orbitals=state.orbitals)
                except ValueError as exc:
                    raise OrbitalDrift(f"after {cycles} cycles: {exc}") from None
            t = n * period if j == k else (n - 1) * period + j * period / k
            yield n, t, state


def half_chain_series(params: ChainParams, drive: DriveSpec, cycles: int) -> EETimeSeries:
    """Evolve the half-filled uniform ground state and record S_L per cycle.

    Non-unitary drives are renormalised every period (no-click evolution);
    unitary drives propagate the orbitals directly.
    """
    prop = build_propagator(params, drive)
    states = stroboscopic_states(params, drive.period, (prop,), cycles)
    ent = np.array([half_chain_entropy(state) for _, _, state in states])
    return EETimeSeries(drive=drive, entropies=ent)


def classify_heating(series: EETimeSeries) -> PhasePoint:
    """Label a series heating when its entropy slope over ``SLOPE_WINDOW``
    exceeds ``SLOPE_THRESHOLD`` (nats per cycle).

    The window starts at cycle 5 to skip the initial spreading from the
    defect.  The fit is an ordinary least-squares line, so the label is
    invariant under adding a constant to the series.
    """
    lo, hi = SLOPE_WINDOW
    if hi >= len(series.entropies):
        raise WindowTooShort(f"series of length {len(series.entropies)} cannot fit window {SLOPE_WINDOW}")
    slope = float(np.polyfit(np.arange(lo, hi + 1), series.entropies[lo : hi + 1], 1)[0])
    label = PhaseLabel.HEATING if slope > SLOPE_THRESHOLD else PhaseLabel.NON_HEATING
    return PhasePoint(period=series.drive.period, lam=series.drive.lam, label=label, score=slope)


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


def revival_period(series: EETimeSeries) -> float:
    """Mean spacing of the prominent entropy minima, in time units.

    Revivals return the half-chain entropy toward its initial value, so they
    are detected as local minima with prominence at least
    ``REVIVAL_PROMINENCE`` times the series range.  Raises NoRevivalDetected
    with fewer than two.
    """
    minima = _prominent_minima(series.entropies, REVIVAL_PROMINENCE)
    if len(minima) < 2:
        raise NoRevivalDetected(f"found {len(minima)} prominent minima, need >= 2")
    return float(np.mean(np.diff(minima)) * series.drive.period)


def count_recurrences(series: EETimeSeries) -> int:
    """Number of prominent minima within ``RECURRENCE_TOL`` of the early-time minimum.

    The early-time minimum is taken over cycles 1..RECURRENCE_WINDOW; any
    minimum of prominence at least ``RECURRENCE_PROMINENCE`` times the
    series range (from cycle 1 on) whose entropy is at most
    (1 + RECURRENCE_TOL) times that value counts as a recurrence.
    """
    ent = series.entropies
    if len(ent) <= RECURRENCE_WINDOW:
        raise WindowTooShort("series shorter than the early window")
    early_min = float(ent[1 : RECURRENCE_WINDOW + 1].min())
    minima = _prominent_minima(ent, RECURRENCE_PROMINENCE)
    return int(np.sum(ent[minima] <= (1.0 + RECURRENCE_TOL) * early_min))


def _mirror_modes(eig: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, ...]:
    """(V_e, w_e, V_o, w_o): h(1)'s modes in its mirror sectors on sites j < L, where a
    P-symmetric O has the even block O_AA + O_AB J and the odd block O_AA - O_AB J
    (J the L x L reversal); the modes of ``uniform_eigh`` alternate in parity."""
    w, v = eig
    L = len(w) // 2
    return np.sqrt(2.0) * v[:L, 0::2], w[0::2], np.sqrt(2.0) * v[:L, 1::2], w[1::2]


def period_factors(eig: tuple[np.ndarray, np.ndarray], period: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real L x L parts (M0, M1, A) of the mu block at one period.

    ``two_step_mu`` reads 2 (B^dagger Q) rot(E) (Q B) = M0 + lam M1 + i w A,
    w = sqrt(1 - lam^2), since rot(E) is linear in 1, lam and w.  In the
    sectors of ``_mirror_modes`` (x = e, o), let Q_x, E_x and F_x be
    exp(-i h_x t) at t = T/4, T/2 and T, Z = Q_e E_o Q_e and
    Y = (exp(-i h_e 3T/4) Q_o - Q_e exp(-i h_o 3T/4)) / 2.  B's phases cancel
    against the sectors', and S = diag((-1)^j) maps h_e to -h_o, which
    leaves M0 = Re(F_e + Z), M1 = Re(F_e - Z) and A = S Re(Y)^T - Re(Y) S.
    With Omega = V_e^T V_o and D_x(t) = exp(-i w_x t), Z and Y are
    V_e [D_e(T/4) Omega D_o(T/2) Omega^T D_e(T/4)] V_e^T and
    V_e [D_e(3T/4) Omega D_o(T/4) - D_e(T/4) Omega D_o(3T/4)] V_o^T / 2:
    eight real L x L products per period.  Their operands are C-contiguous:
    OpenBLAS rounds a transposed view differently at one and at two threads.
    """
    ve, we, vo, wo = _mirror_modes(eig)
    vet, vot = np.ascontiguousarray(ve.T), np.ascontiguousarray(vo.T)
    omega = vet @ vo
    omega_t = np.ascontiguousarray(omega.T)
    a, b = 0.25 * period * we, 0.25 * period * wo
    f = ve @ (np.cos(4.0 * a)[:, None] * vet)
    # Omega D_o(T/2) Omega^T = hc - i hs; Z's core is the real part of D_e(T/4) (hc - i hs) D_e(T/4)
    hc, hs = ((omega * trig(2.0 * b)) @ omega_t for trig in (np.cos, np.sin))
    ab = np.add.outer(a, a)
    z = ve @ (np.cos(ab) * hc - np.sin(ab) * hs) @ vet
    y = ve @ ((np.cos(np.add.outer(3.0 * a, b)) - np.cos(np.add.outer(a, 3.0 * b))) * (0.5 * omega)) @ vot
    s = (-1.0) ** np.arange(len(we))
    return f + z, f - z, s[:, None] * y.T - y * s


def two_step_mu(parts: tuple[np.ndarray, np.ndarray, np.ndarray], lam: float) -> np.ndarray:
    """mu = u + 1/u once for each pair (u, 1/u) of two-step eigenvalues.

    ``parts`` are the (M0, M1, A) of ``period_factors`` at the drive's period.
    The symmetrized period K = Q E(lam) Q shares U's spectrum, with
    Q = exp(-i h(1) T/4) and E(lam) = exp(-i h(lam) T/2).  C = P Gamma, the
    mirror j <-> 2L-1-j times the staggered sign (-1)^j (sites 0-based),
    maps h(lam) to -h(lam), so C K C^-1 = K^-1 and C pairs u with 1/u.  The
    mu are the eigenvalues of M = K + K^-1 on the C = +i subspace, spanned
    by the columns c_j = beta_j (e_j - i s_j e_Pj)/sqrt2 (j < L) of B, with
    s_j = (-1)^j and beta_j = e^{i pi s_j/4}.  C^-1 = -C and C B = i B give
    B^dagger K^-1 B = B^dagger K B, so the block is 2 (B^dagger Q) E(lam) (Q B)
    = M0 + lam M1 + i sqrt(1 - lam^2) A.  For |lam| <= 1 it is Hermitian and
    |mu| <= 2, so it is clipped to [-2, 2] to drop rounding.  For lam > 1 it
    is the real M0 + lam M1 - sqrt(lam^2 - 1) A (PT acts on the c_j as
    complex conjugation).
    """
    m0, m1, a = parts
    if lam > 1:
        return np.linalg.eigvals(m0 + lam * m1 - np.sqrt(lam * lam - 1.0) * a)
    return np.clip(np.linalg.eigvalsh(m0 + lam * m1 + 1j * np.sqrt(1.0 - lam * lam) * a), -2.0, 2.0)


def pt_classify(params: ChainParams, drive: DriveSpec, tol: float = DEFAULT_PT_TOL, factors=None) -> PhasePoint:
    """PT label from the eigenvalue moduli of the two-step propagator.

    score = max_n ||u_n| - 1| = max expm1(|Re z|) over the pairs u = e^{+-z},
    z = arccosh(mu/2) for each mu of ``two_step_mu``; the spectrum of an
    unbroken PT-symmetric period sits on the unit circle, so the point is PT
    symmetric iff the score stays below ``tol``.  A real mu in [-2, 2] has
    Re z exactly 0, so symmetric points score 0.  A sweep passes ``factors``
    (``period_factors``); a lone point builds them, 5 ms at 2L = 400 (one BLAS thread).
    """
    if drive.family is DriveFamily.HARMONIC:
        raise ValueError("the mu fold requires a two-step drive family")
    if factors is None:
        factors = period_factors(uniform_eigh(params), drive.period)
    z = np.arccosh(two_step_mu(factors, drive.lam).astype(complex) / 2.0)
    score = float(np.max(np.expm1(np.abs(z.real))))
    label = PhaseLabel.PT_SYMMETRIC if score < tol else PhaseLabel.PT_BROKEN
    return PhasePoint(period=drive.period, lam=drive.lam, label=label, score=score)


def _drive_for(lam: float, T: float) -> DriveSpec:
    family = DriveFamily.NON_HERMITIAN_TWO_STEP if lam > 1 else DriveFamily.TWO_STEP
    return DriveSpec(family=family, period=T, lam=lam)


def phase_diagram(
    params: ChainParams,
    T_values: np.ndarray,
    lam_values: np.ndarray,
    tol: float = DEFAULT_PT_TOL,
    map_columns: Callable = map,
) -> list[PhasePoint]:
    """PT labels on the (T, lambda) grid, row-major over lambda then T.

    ``map_columns`` (``map`` or a threaded map) scores one T column at a
    time: the columns share one eigh of h(1), the lambdas of a period its parts."""
    eig = uniform_eigh(params)

    def column(T):
        factors = period_factors(eig, float(T))
        return [pt_classify(params, _drive_for(float(lam), float(T)), tol, factors) for lam in lam_values]

    return [p for row in zip(*map_columns(column, T_values)) for p in row]


def pt_boundary(params: ChainParams, lam_values: Sequence[float], T_values: np.ndarray) -> list[float | None]:
    """Estimated PT-breaking period of each lambda: midpoint of the first
    symmetric-to-broken step of its T scan (at ``DEFAULT_PT_TOL``), or None
    when none is bracketed.

    T runs outside, so the lambdas of a period share one eigh of h(1) and
    the period's parts; a lambda leaves the scan at its first broken point."""
    eig = uniform_eigh(params)
    out = [None] * len(lam_values)
    active = list(range(len(lam_values)))
    prev_T = None
    for T in map(float, T_values):
        if not active:
            break
        factors = period_factors(eig, T)
        unbroken = []
        for i in active:
            point = pt_classify(params, _drive_for(float(lam_values[i]), T), factors=factors)
            if point.label is PhaseLabel.PT_SYMMETRIC:
                unbroken.append(i)
            elif prev_T is not None:
                out[i] = 0.5 * (prev_T + T)
        active, prev_T = unbroken, T
    return out


def gap_curve(
    params: ChainParams,
    T_values: np.ndarray,
    family: DriveFamily = DriveFamily.HARMONIC,
    lam: float = 1.0,
    map_columns: Callable = map,
) -> list[tuple[float, float]]:
    """(T, gap) pairs along a period sweep; ``map_columns`` maps over the periods.

    Harmonic family: band gap of the closed-form stroboscopic generator.
    Two-step families: a folded-spectrum proxy, the largest gap between sorted
    eigenphases +-Im arccosh(mu/2) (``two_step_mu``, one eigh of h(1) per
    sweep) on the quasienergy circle minus the mean level spacing (finite-size
    stand-in for the folding threshold); each period builds its parts, about
    5 ms at 2L = 400, for its one lambda.  A lambda outside the family's range
    (for the harmonic family any lambda but its default 1) raises ValueError
    from ``DriveSpec``.
    """
    drives = [DriveSpec(family, float(T), lam) for T in T_values]
    if family is DriveFamily.HARMONIC:
        return list(map_columns(lambda drive: (drive.period, quasienergy_gap(params, drive.period)), drives))
    eig = uniform_eigh(params)
    n = params.n_sites

    def point(drive):
        T = drive.period
        mu = two_step_mu(period_factors(eig, T), drive.lam)
        phases = np.arccosh(mu.astype(complex) / 2.0).imag
        eps = np.sort(np.concatenate([phases, -phases]) / T)
        gaps = np.diff(eps)
        wrap = 2.0 * np.pi / T - (eps[-1] - eps[0])
        largest = float(max(gaps.max(), wrap))
        return T, largest - 2.0 * np.pi / T / n

    return list(map_columns(point, drives))
