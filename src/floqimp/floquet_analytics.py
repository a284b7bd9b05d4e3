"""Exact Floquet analytics for the harmonically driven defect.

For the harmonic drive the stroboscopic generator is known in closed form:

    h_F = h_uniform + (pi/T) (sigma - 1),

where sigma is the mirror operator coupling each site j to its partner
2L+1-j.  With W = (i - P)/sqrt(2), P the mirror permutation, W^dagger h_F W
is the real uniform chain with a step of -2 pi/T on sites 1..L
(``harmonic_chain``), whose two bands overlap exactly when T > pi.  The
propagator, gap, roots and Kato operator are built from it; the dense
``floquet_hamiltonian_exact`` stays as their oracle.  This module provides
the mirror algebra, the closed-form h_F, its transcendental spectrum and
eigenvectors, the perturbative (Schrieffer-Wolff) low-band Hamiltonian at
small T, and the single-particle average-energy (Kato) objects built from
h_F eigenstates.

All single-particle formulas replace the many-body particle-number operator
by the identity; this convention is applied uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChainParams, single_particle_hamiltonian, bond_matrix, imbalance_matrix


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


def harmonic_chain(params: ChainParams, T: float) -> np.ndarray:
    """W^dagger h_F W: the real uniform chain with -2 pi/T on sites 1..L.

    W = (i - P)/sqrt(2) is unitary and leaves h_uniform invariant, and takes
    sigma to -1 on the left half and +1 on the right.  Every off-diagonal
    is -1/2, so the chain is a Jacobi matrix with simple eigenvalues.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    h = single_particle_hamiltonian(params, 1.0).real.copy()
    h[np.diag_indices(params.half_length)] -= 2.0 * np.pi / T
    return h


def from_chain(re: np.ndarray, im: np.ndarray | None = None) -> np.ndarray:
    """W X W^dagger for X = re + i im given in the frame of ``harmonic_chain``.

    W X W^dagger = (X + P X P + i (P X - X P))/2, with P X a row reversal
    and X P a column reversal; re and im stay real throughout.
    """
    out = np.empty(re.shape, dtype=complex)
    out.real = re + re[::-1, ::-1]
    out.imag = re[::-1] - re[:, ::-1]
    if im is not None:
        out.real -= im[::-1] - im[:, ::-1]
        out.imag += im + im[::-1, ::-1]
    out *= 0.5
    return out


def quasienergy_gap(params: ChainParams, T: float) -> float:
    """Spacing between the L-th and (L+1)-th sorted eigenvalues of h_F.

    For T < pi this is the gap between the two bands of the step chain; once
    they overlap it collapses to a typical level spacing (order 1/L), so a
    small value signals the closed-gap regime.
    """
    w = np.linalg.eigvalsh(harmonic_chain(params, T))
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
# The roots come from a Sturm count on ``harmonic_chain``; g gives residuals.


def _chebyshev_u_pair(x: float, L: int) -> tuple[float, float]:
    """(U_{L-1}(x), U_L(x)), rescaled by a positive factor for |x| > 1.

    U_m(cosh k) = sinh((m+1) k)/sinh(k).  Outside [-1, 1] the pair is scaled
    by exp(-arccosh|x| * L); the scaling is positive, so the sign of the
    characteristic polynomial is preserved.
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


def _sturm_counts(chain: np.ndarray, es: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of the tridiagonal ``chain`` below each energy in es.

    The count of negative pivots of the LDL^T factorisation of chain - E,
    vectorized over es.  A pivot of modulus below the smallest normal
    number is replaced by minus it, as LAPACK's dstebz does, so an exact
    zero neither divides by zero nor changes the count.
    """
    e2 = np.concatenate([[0.0], np.diag(chain, 1) ** 2])
    pivmin = np.finfo(float).tiny * max(1.0, e2.max())
    count = np.zeros(es.shape, dtype=int)
    q = np.ones(es.shape)
    for d, b2 in zip(np.diag(chain), e2):
        q = (d - es) - b2 / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        count += q < 0.0
    return count


def characteristic_roots(params: ChainParams, T: float) -> list[QuasiEnergyRoot]:
    """All 2L real roots of the spectral condition, by bisection on a Sturm count.

    The roots are the eigenvalues of ``harmonic_chain``, a Jacobi matrix, so
    they are simple.  All 2L are bisected at once from the Gershgorin
    interval [-2 pi/T - 1, 1], root k keeping the half in which
    ``_sturm_counts`` passes k.  53 halvings bring the interval below eps
    times its larger bound, LAPACK dstebz's default absolute tolerance.

    Inverse-cosh branch: kappa carries Re >= 0 and Im in [0, pi].
    """
    chain = harmonic_chain(params, T)
    shift = 2.0 * np.pi / T
    index = np.arange(len(chain))
    lo = np.full(len(chain), -1.0 - shift)
    hi = np.ones(len(chain))
    for _ in range(53):
        mid = 0.5 * (lo + hi)
        above = _sturm_counts(chain, mid) > index
        lo = np.where(above, lo, mid)
        hi = np.where(above, mid, hi)
    L = params.half_length
    return [
        QuasiEnergyRoot(
            energy=e,
            kappa_plus=complex(np.arccosh(complex(-(e + shift)))),
            kappa_minus=complex(np.arccosh(complex(-e))),
            residual=abs(_char_poly(e, L, T)),
        )
        for e in (0.5 * (lo + hi)).tolist()
    ]


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


def _harmonic_basis(params: ChainParams, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Real eigenvectors v of ``harmonic_chain`` and their average energies.

    h_F's eigenvectors are W v, and W leaves h_uniform invariant, so theta_n
    = v_n^T h_uniform v_n = w_n + (2 pi/T) sum_{j <= L} v_jn^2, the formula
    of ``root_average_energies``.  The chain's eigenvalues are simple.
    """
    w, v = np.linalg.eigh(harmonic_chain(params, T))
    L = params.half_length
    theta = w + (2.0 * np.pi / T) * np.sum(v[:L] ** 2, axis=0)
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
    """Average-energy operator sum_n theta_n |psi_n><psi_n|, as W (v theta) v^T W^dagger."""
    v, theta = _harmonic_basis(params, T)
    return from_chain((v * theta) @ v.T)


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
