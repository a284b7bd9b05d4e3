"""Exact Floquet analytics for the harmonically driven defect.

For the harmonic drive the stroboscopic generator is known in closed form:

    h_F = h_uniform + (pi/T) (sigma - 1),

where sigma is the mirror operator coupling each site j to its partner
2L+1-j.  This module provides the mirror algebra, the closed-form h_F, its
transcendental spectrum and eigenvectors, the perturbative (Schrieffer-Wolff)
low-band Hamiltonian at small T, and the single-particle average-energy
(Kato) objects built from h_F eigenstates.

All single-particle formulas replace the many-body particle-number operator
by the identity; this convention is applied uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChainParams, single_particle_hamiltonian, bond_matrix, imbalance_matrix


_HF_CLUSTER_TOL = 1e-12


class RootCountMismatch(Exception):
    """Raised when the bracketing scan cannot locate all 2L spectral roots."""


class NormalizationUnderflow(Exception):
    """Raised when both closed-form eigenvector denominators vanish."""


def mirror_operator(L: int) -> np.ndarray:
    """Mirror operator sigma: sigma[j, 2L+1-j] = i for j <= L, -i beyond (1-based).

    Hermitian, squares to the identity, commutes with the two decoupled
    half-chains; its exponential generates the rotating frame of the
    harmonic drive.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    n = 2 * L
    s = np.zeros((n, n), dtype=complex)
    j = np.arange(L)
    s[j, n - 1 - j] = 1j
    s[n - 1 - j, j] = -1j
    return s


@dataclass(frozen=True)
class Su2Report:
    """Deviations of the mirror/bond/imbalance algebra from closure."""

    bulk_commutator: float
    omega_commutator: float
    gamma_commutator: float
    quarter_rotation: float

    @property
    def max_deviation(self) -> float:
        return max(
            self.bulk_commutator,
            self.omega_commutator,
            self.gamma_commutator,
            self.quarter_rotation,
        )


def su2_check(L: int) -> Su2Report:
    """Verify the closed algebra of (sigma, Gamma, Omega) at the matrix level.

    Checks [sigma, h_left + h_right] = 0, [sigma, Omega] = -2i Gamma,
    [sigma, Gamma] = 2i Omega, and the quarter rotation
    exp(i pi/4 sigma) Gamma exp(-i pi/4 sigma) = -Omega.
    """
    sig = mirror_operator(L)
    gam = bond_matrix(L)
    om = imbalance_matrix(L)
    n = 2 * L
    h_halves = np.zeros((n, n), dtype=complex)
    for lo, hi in ((0, L), (L, n)):
        j = np.arange(lo, hi - 1)
        h_halves[j, j + 1] = -0.5
        h_halves[j + 1, j] = -0.5
    dev_bulk = float(np.max(np.abs(sig @ h_halves - h_halves @ sig)))
    dev_om = float(np.max(np.abs(sig @ om - om @ sig + 2j * gam)))
    dev_gam = float(np.max(np.abs(sig @ gam - gam @ sig - 2j * om)))
    # sigma^2 = 1, so exp(i theta sigma) = cos(theta) + i sin(theta) sigma
    th = np.pi / 4.0
    rot = np.cos(th) * np.eye(2 * L) + 1j * np.sin(th) * sig
    dev_rot = float(np.max(np.abs(rot @ gam @ rot.conj().T + om)))
    return Su2Report(dev_bulk, dev_om, dev_gam, dev_rot)


def floquet_hamiltonian_exact(params: ChainParams, T: float) -> np.ndarray:
    """Closed-form stroboscopic generator h_uniform + (pi/T)(sigma - 1)."""
    if T <= 0:
        raise ValueError("T must be positive")
    L = params.half_length
    h = single_particle_hamiltonian(params, 1.0)
    h += (np.pi / T) * (mirror_operator(L) - np.eye(2 * L))
    return h


def quasienergy_gap(params: ChainParams, T: float) -> float:
    """Spacing between the L-th and (L+1)-th sorted eigenvalues of h_F.

    For T < pi this is the gap between the two mirror-split bands; once the
    bands overlap it collapses to a typical level spacing (order 1/L), so a
    small value signals the closed-gap regime.
    """
    w = np.linalg.eigvalsh(floquet_hamiltonian_exact(params, T))
    L = params.half_length
    return float(w[L] - w[L - 1])


# --- transcendental spectrum -------------------------------------------------
#
# Eigenvalues of h_F solve
#
#     sinh(k+ L)/sinh(k+ (L+1)) - sinh(k- (L+1))/sinh(k- L) = 0,
#
# with cosh(k+-) = -(E + pi/T -+ ... ), i.e. cosh(k+) = -(E + 2 pi/T) and
# cosh(k-) = -E.  Clearing denominators and dividing by sinh(k+) sinh(k-)
# turns the left side into a polynomial in E built from Chebyshev U:
#
#     g(E) = U_{L-1}(x+) U_{L-1}(x-) - U_L(x-) U_L(x+),
#
# with x+ = -(E + 2 pi/T), x- = -E.  g is the characteristic polynomial of
# h_F up to a constant: continuous, pole-free, sign-changing at every root.


def _chebyshev_u_pair(x: float, L: int) -> tuple[float, float]:
    """(U_{L-1}(x), U_L(x)), rescaled by a positive factor for |x| > 1.

    U_m(cosh k) = sinh((m+1) k)/sinh(k).  Outside [-1, 1] the pair is scaled
    by exp(-arccosh|x| * L); the scaling is positive so sign structure (all
    that bracketing needs) is preserved.
    """
    if abs(x) <= 1.0:
        um, u = 1.0, 2.0 * x
        for _ in range(L - 1):
            um, u = u, 2.0 * x * u - um
        return um, u
    r = np.arccosh(abs(x))
    e2 = -np.expm1(-2.0 * r)
    a = np.exp(-r) * (-np.expm1(-2.0 * r * L)) / e2
    b = (-np.expm1(-2.0 * r * (L + 1))) / e2
    if x < -1.0:
        if (L - 1) % 2:
            a = -a
        if L % 2:
            b = -b
    return a, b


def _char_poly(E: float, L: int, T: float) -> float:
    xp = -(E + 2.0 * np.pi / T)
    xm = -E
    up_l, up_l1 = _chebyshev_u_pair(xp, L)
    um_l, um_l1 = _chebyshev_u_pair(xm, L)
    return up_l * um_l - um_l1 * up_l1


@dataclass(frozen=True)
class QuasiEnergyRoot:
    """One solution of the transcendental spectral condition."""

    energy: float
    kappa_plus: complex
    kappa_minus: complex
    residual: float


def _scan_band(L: int, T: float, center: float, n_cells: int) -> list[float]:
    """Sign-change scan of the characteristic polynomial over one band.

    The band [center-1, center+1] is swept in the arc parameter q with
    E = center - cos(q); roots cluster uniformly in q, not in E.
    """
    qs = np.linspace(0.0, np.pi, n_cells + 1)
    es = center - np.cos(qs)
    gs = np.array([_char_poly(E, L, T) for E in es])
    roots = []
    if gs[-1] == 0.0:
        roots.append(float(es[-1]))
    for i in range(n_cells):
        g1, g2 = gs[i], gs[i + 1]
        if g1 == 0.0:  # exact hit on a grid point
            roots.append(float(es[i]))
            continue
        if g1 * g2 >= 0.0:
            continue
        a, b, ga = qs[i], qs[i + 1], g1
        while True:
            m = 0.5 * (a + b)
            if m == a or m == b:
                break
            gm = _char_poly(center - np.cos(m), L, T)
            if gm == 0.0:
                a = b = m
                break
            if ga * gm < 0.0:
                b = m
            else:
                a, ga = m, gm
        roots.append(float(center - np.cos(0.5 * (a + b))))
    return roots


def characteristic_roots(params: ChainParams, T: float) -> list[QuasiEnergyRoot]:
    """All 2L real roots of the spectral condition, by bracketing + bisection.

    Each of the two spectral bands (centres 0 and -2 pi/T, half-width 1) is
    scanned on a uniform grid in its arc parameter; sign changes are refined
    by bisection to machine precision, duplicates from overlapping bands are
    merged.  The grid starts at 8L cells per band and doubles up to three
    times before RootCountMismatch is raised.

    Inverse-cosh branch: kappa carries Re >= 0 and Im in [0, pi].
    """
    if T <= 0:
        raise ValueError("T must be positive")
    L = params.half_length
    shift = 2.0 * np.pi / T
    energies: list[float] = []
    for attempt in range(4):
        n_cells = 8 * L * (2**attempt)
        found: list[float] = []
        for center in (0.0, -shift):
            found.extend(_scan_band(L, T, center, n_cells))
        found.sort()
        energies = []
        for e in found:
            if energies and abs(e - energies[-1]) < 1e-10:
                continue
            energies.append(e)
        if len(energies) == 2 * L:
            break
    if len(energies) != 2 * L:
        raise RootCountMismatch(
            f"found {len(energies)} roots, expected {2 * L} (L={L}, T={T})"
        )
    roots = []
    for e in energies:
        kp = complex(np.arccosh(complex(-(e + shift))))
        km = complex(np.arccosh(complex(-e)))
        res = abs(_char_poly(e, L, T))
        roots.append(QuasiEnergyRoot(energy=e, kappa_plus=kp, kappa_minus=km, residual=res))
    return roots


def _sinh_ratio_array(x: float, ms: np.ndarray, n: int) -> np.ndarray:
    """Vectorised sinh(kappa m)/sinh(kappa n) over integer m, cosh kappa = x."""
    ms = np.asarray(ms, dtype=float)
    if abs(x) <= 1.0:
        q = np.arccos(x)
        den = np.sin(q * n)
        if den == 0.0:
            return np.full(ms.shape, np.inf)
        return np.sin(q * ms) / den
    r = np.arccosh(abs(x))
    v = np.exp(r * (ms - n)) * (-np.expm1(-2 * r * ms)) / (-np.expm1(-2 * r * n))
    if x < -1.0:
        v = np.where((ms - n) % 2 == 1, -v, v)
    return v


def _amplitude_arrays(root: QuasiEnergyRoot, L: int, T: float):
    """Left-half channel amplitudes (a_j, b_j), j = 1..L, of the closed form."""
    xp = -(root.energy + 2.0 * np.pi / T)
    xm = -root.energy
    js = np.arange(1, L + 1)
    a = _sinh_ratio_array(xp, js, L + 1)
    b = _sinh_ratio_array(xm, js, L)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NormalizationUnderflow(
            f"channel amplitudes diverge at E={root.energy}; degenerate geometry"
        )
    return a, b


def sw_effective_hamiltonian(params: ChainParams, T: float) -> np.ndarray:
    """Perturbative lower-band Hamiltonian in the bonding basis, to O(T^2).

    L x L real symmetric matrix: diagonal -2 pi/T, a -T/(8 pi) on-site shift
    at the defect site j = L, hopping -1/2 on all bonds, and a +T^2/(64 pi^2)
    correction on the bond (L-1, L).  Valid in the high-frequency regime;
    its spectrum matches the exact lower band of h_F to O(T^3).
    """
    if not 0 < T:
        raise ValueError("T must be positive")
    L = params.half_length
    m = np.zeros((L, L))
    np.fill_diagonal(m, -2.0 * np.pi / T)
    m[L - 1, L - 1] -= T / (8.0 * np.pi)
    j = np.arange(L - 1)
    m[j, j + 1] = -0.5
    m[j + 1, j] = -0.5
    corr = T * T / (64.0 * np.pi * np.pi)
    m[L - 2, L - 1] += corr
    m[L - 1, L - 2] += corr
    return m


# --- average energy / Kato objects -------------------------------------------


def _clusters(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Index runs of ascending ``values`` whose neighbouring gaps are at most tol."""
    breaks = np.flatnonzero(np.diff(values) > tol) + 1
    return np.split(np.arange(len(values)), breaks)


def _align_clusters(groups: list[np.ndarray], psi: np.ndarray, h_psi: np.ndarray):
    """Gauge-fix each degenerate cluster of an eigenbasis psi.

    groups are index arrays of states sharing one eigenvalue, and h_psi is
    the reference Hamiltonian applied to psi.  Inside a cluster the basis is
    a free choice, so for every group of more than one state this returns
    (idx, pw, pv): pv rotates psi[:, idx] onto the eigenvectors of the
    projected reference Hamiltonian, and pw are its eigenvalues.
    """
    out = []
    for idx in groups:
        if len(idx) > 1:
            proj = psi[:, idx].conj().T @ h_psi[:, idx]
            pw, pv = np.linalg.eigh(0.5 * (proj + proj.conj().T))
            out.append((idx, pw, pv))
    return out


def _harmonic_basis(params: ChainParams, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of h_F and their average energies <psi_n| h_uniform |psi_n>.

    Inside every eigenvalue cluster of h_F (spacing <= 1e-12) the basis is
    rotated to diagonalise the projected h_uniform, which removes the gauge
    ambiguity of the average energies.
    """
    w, v = np.linalg.eigh(floquet_hamiltonian_exact(params, T))
    h_v = single_particle_hamiltonian(params, 1.0) @ v
    theta = np.real(np.sum(v.conj() * h_v, axis=0))
    for idx, pw, pv in _align_clusters(_clusters(w, _HF_CLUSTER_TOL), v, h_v):
        v[:, idx] = v[:, idx] @ pv
        theta[idx] = pw
    return v, theta


def root_average_energies(params: ChainParams, T: float, roots: list[QuasiEnergyRoot]) -> np.ndarray:
    """Average energy theta_n = E_n - (pi/T)(<sigma>_n - 1) of each root, in order.

    <sigma>_n is evaluated in closed form from the sinh-ratio channel
    amplitudes of root n (no diagonalisation involved).
    """
    theta = np.empty(len(roots))
    for i, root in enumerate(roots):
        a, b = _amplitude_arrays(root, params.half_length, T)
        sigma_exp = np.sum(b * b - a * a) / np.sum(a * a + b * b)
        theta[i] = root.energy - (np.pi / T) * (sigma_exp - 1.0)
    return theta


def kato_hamiltonian_sp(params: ChainParams, T: float) -> np.ndarray:
    """Average-energy operator sum_n theta_n |psi_n><psi_n| over h_F eigenstates."""
    v, theta = _harmonic_basis(params, T)
    return (v * theta) @ v.conj().T


@dataclass(frozen=True)
class KatoLocalityStats:
    """Spatial-structure summary of the average-energy operator."""

    off_tridiagonal_weight: float
    antidiagonal_mean: float
    background_mean: float


def kato_locality_stats(hk: np.ndarray) -> KatoLocalityStats:
    """Off-tridiagonal weight and anti-diagonal prominence of |H_K|.

    ``off_tridiagonal_weight`` is the fraction of sum |H_K|_{ij} carried by
    elements with |i-j| > 1.  The anti-diagonal mean (elements i + j =
    2L + 1, 1-based) is compared with the mean over the remaining
    off-tridiagonal background.
    """
    n = hk.shape[0]
    a1 = np.abs(hk)
    idx = np.arange(n)
    tri = np.zeros((n, n), dtype=bool)
    tri[idx, idx] = True
    tri[idx[:-1], idx[:-1] + 1] = True
    tri[idx[:-1] + 1, idx[:-1]] = True
    w1 = float(a1[~tri].sum() / a1.sum())
    anti_mask = np.zeros((n, n), dtype=bool)
    anti_mask[idx, n - 1 - idx] = True
    anti = float(a1[anti_mask & ~tri].mean())
    bg_mask = ~(tri | anti_mask)
    bg = float(a1[bg_mask].mean())
    return KatoLocalityStats(
        off_tridiagonal_weight=w1,
        antidiagonal_mean=anti,
        background_mean=bg,
    )
