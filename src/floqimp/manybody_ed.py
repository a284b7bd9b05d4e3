"""Exact diagonalization in a fixed-filling sector at desk scale.

Bitmask occupation basis over 2L sites, dense sector matrices, two-step
Floquet unitaries, and the unfolded average-energy spectrum with overlap
colouring against the infinite-frequency ground state.  Sizes are guarded to
sector dimension <= 2e4 (2L = 14 at half filling is the working scale); in
the free sector the minimal-theta overlap weight also has a determinant route
that reaches chain sizes of several hundred sites.

The free half-filled sector splits into the even and odd blocks of
S = particle-hole x mirror, and each block is diagonalized on its own; the
ground state of the averaged Hamiltonian comes from a block Lanczos, not a
full eigh.

Hopping is nearest-neighbour only, so matrix elements in the occupation
basis carry no fermionic string sign.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations, count
from math import comb

import numpy as np

from .model import ChainParams, DriveFamily, DriveSpec, ModelError, single_particle_hamiltonian

SECTOR_LIMIT = 20_000
GREY_THRESHOLD = 0.002
_PHASE_CLUSTER_TOL = 1e-10
_THETA_GAP_TOL = 1e-10
# c in the real route's eigh of Re K + c Im K; irrational, so the phase pairs
# phi, 2 atan(c) - phi that it cannot tell apart follow no symmetry of the chain
_TWIST = (np.sqrt(5.0) - 1.0) / 2.0
_TIE_TOL = 1e-6
_REFINE_GAP = 1e-8
_EIGEN_RESIDUAL_TOL = 1e-9
_FERMI_GAP_TOL = 1e-12
_LANCZOS_TOL = 1e-12
_LANCZOS_CHECK = 16  # Krylov vectors added between Ritz residual checks


class SectorTooLarge(ModelError):
    """Raised when the requested sector exceeds the desk-scale guard."""


class NonNormalUnitary(ModelError):
    """Raised when the sector Floquet operator fails the unitarity check."""


class KOutOfRange(ModelError):
    """Raised when more subset sums are requested than the sector holds."""


class DegenerateFermiLevel(ModelError):
    """Raised when the requested filling cuts through a degenerate level."""


class DegenerateMinimalState(ModelError):
    """Raised when theta_L = theta_{L+1}: the minimal-theta state is not one determinant."""


@dataclass(frozen=True)
class SectorBasis:
    """Occupation bitmasks with fixed particle number, in increasing order."""

    n_sites: int
    filling: int
    states: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.states)

    def index(self) -> dict[int, int]:
        return {s: i for i, s in enumerate(self.states)}


def sector_basis(n_sites: int, filling: int) -> SectorBasis:
    if not 0 <= filling <= n_sites:
        raise ValueError(f"filling must be in [0, {n_sites}]")
    dim = comb(n_sites, filling)
    if dim > SECTOR_LIMIT:
        raise SectorTooLarge(f"sector dimension {dim} exceeds {SECTOR_LIMIT}")
    states = sorted(sum(1 << i for i in c) for c in combinations(range(n_sites), filling))
    return SectorBasis(n_sites=n_sites, filling=filling, states=tuple(states))


@dataclass(frozen=True)
class SectorOperator:
    """Dense operator over a SectorBasis."""

    basis: SectorBasis
    matrix: np.ndarray = field(repr=False)


def build_sector_hamiltonian(params: ChainParams, lam: float, filling: int) -> SectorOperator:
    """Sector matrix of the defect chain plus delta * n_j n_{j+1} interactions.

    Hopping amplitudes and on-site terms come from the single-particle defect
    matrix; the density-density coupling params.delta acts uniformly on all
    2L-1 bonds, the driven bond included.  Real symmetric: |lam| > 1 raises.
    """
    if abs(lam) > 1.0:
        raise ValueError(f"sector matrices need a Hermitian defect, |lam| <= 1; got lam = {lam}")
    n = params.n_sites
    basis = sector_basis(n, filling)
    hop = single_particle_hamiltonian(ChainParams(params.half_length), lam).real
    onsite = np.diag(hop)
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(s.to_bytes(width, "little") for s in basis.states), dtype=np.uint8)
    occ = np.unpackbits(packed.reshape(basis.dim, width), axis=1, count=n, bitorder="little").astype(bool)
    e = np.zeros(basis.dim)
    for j in range(n):  # site order from 0, as a running sum over the occupied sites
        e += np.where(occ[:, j], onsite[j], 0.0)
    if params.delta:
        e = e + params.delta * np.sum(occ[:, :-1] & occ[:, 1:], axis=1)
    H = np.diag(e)
    # The sorted bitmasks are in colex order, where {c_1 < ... < c_k} has
    # rank sum_i C(c_i, i).  Moving the particle at j with r particles to its
    # left to j + 1 raises the rank by C(j + 1, r + 1) - C(j, r + 1) = C(j, r);
    # every such binomial is below the sector dimension, so clipping the
    # others there keeps the table in int64.
    before = np.cumsum(occ, axis=1) - occ
    step = np.array([[min(comb(j, r), basis.dim) for r in range(filling)] for j in range(n)], dtype=np.int64)
    for j in range(n - 1):
        a = np.flatnonzero(occ[:, j] & ~occ[:, j + 1])
        b = a + step[j, before[a, j]]
        H[b, a] += hop[j + 1, j]
        H[a, b] += hop[j, j + 1]
    return SectorOperator(basis=basis, matrix=H)


def floquet_unitary_mb(params: ChainParams, drive: DriveSpec, filling: int) -> SectorOperator:
    """Sector Floquet operator exp(-i H_lam T/2) exp(-i H_1 T/2), uniform half first."""
    if drive.family is not DriveFamily.TWO_STEP:
        raise ValueError("floquet_unitary_mb requires the Hermitian two-step drive family")
    half = drive.period / 2.0
    h_uni = build_sector_hamiltonian(params, 1.0, filling)
    w0, v0 = np.linalg.eigh(h_uni.matrix)  # real symmetric, v0 real
    w1, v1 = np.linalg.eigh(build_sector_hamiltonian(params, drive.lam, filling).matrix)
    left = (v1 * np.exp(-1j * w1 * half)) @ (v1.T @ v0)
    u = (left * np.exp(-1j * w0 * half)) @ v0.T
    return SectorOperator(basis=h_uni.basis, matrix=u)


@dataclass(frozen=True)
class ManyBodySpectrumTable:
    """Average-energy spectrum records, sorted by theta.

    quasienergy is the folded eigenphase -arg(u_n)/T in (-pi/T, pi/T];
    weight is the squared overlap of each Floquet eigenstate with the ground
    state of the time-averaged Hamiltonian (H_uniform + H_defect)/2, and
    ground_state_weight is the weight of the minimal-theta state (the
    adiabatic-continuity diagnostic).  grey flags weight < 0.002.
    """

    quasienergy: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    grey: np.ndarray = field(repr=False)

    @property
    def ground_state_weight(self) -> float:
        return float(self.weight[0])


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


def _orthogonal_eigh(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real orthogonal eigenbasis of the complex-symmetric unitary K = re + i im.

    K K^dagger = 1 with K = K^T makes re and im commuting real symmetric
    matrices, so the eigenvectors O of re + c im diagonalize K (Autonne-Takagi).
    That matrix has the eigenvalue sqrt(1 + c^2) cos(phi - atan c), which the
    distinct phases phi and 2 atan(c) - phi share; inside each near-tie of it
    the basis is re-split with the orthogonal combination im - c re, and one
    first-order rotation then removes what rounding mixed between states of
    close eigenvalues of re + c im.  Returns O and the eigenvalues
    o_n^T K o_n.  Raises NonNormalUnitary when ||K O - O Lambda||_max or
    max ||lambda_n| - 1| exceeds 1e-9.
    """
    w, o = np.linalg.eigh(re + _TWIST * im)
    k_re = re @ o
    k_im = im @ o
    for idx in _clusters(w, _TIE_TOL):
        if len(idx) > 1:
            sub = o[:, idx].T @ (k_im[:, idx] - _TWIST * k_re[:, idx])
            r = np.linalg.eigh(0.5 * (sub + sub.T))[1]
            o[:, idx] = o[:, idx] @ r
            k_re[:, idx] = k_re[:, idx] @ r
            k_im[:, idx] = k_im[:, idx] @ r
    # Rounding leaves states i, j rotated by a real angle s_ij of order
    # 1e-16 / |w_i - w_j|.  K's (i, j) entry in O's basis is then
    # (lambda_i - lambda_j) s_ij, so s = Re[(O^T K O)_ij / (lambda_i - lambda_j)]
    # and O (1 - s) removes the rotation to first order.  Pairs closer than
    # _REFINE_GAP are as ill-determined for any solver and stay as they are.
    s = o.T @ k_re
    b = o.T @ k_im
    lam = np.diag(s) + 1j * np.diag(b)
    for start in range(0, len(lam), 256):  # row blocks keep the differences small
        rows = slice(start, start + 256)
        d_re = np.subtract.outer(lam.real[rows], lam.real)
        d_im = np.subtract.outer(lam.imag[rows], lam.imag)
        s[rows] *= d_re
        b[rows] *= d_im
        s[rows] += b[rows]
        d_re *= d_re
        d_im *= d_im
        d_re += d_im
        resolved = d_re > _REFINE_GAP**2
        np.divide(s[rows], d_re, out=s[rows], where=resolved)
        s[rows][~resolved] = 0.0
    del b, d_re, d_im, resolved
    o -= o @ s
    k_re -= k_re @ s
    k_im -= k_im @ s
    del s
    k_re -= o * lam.real
    k_im -= o * lam.imag
    np.square(k_re, out=k_re)
    np.square(k_im, out=k_im)
    k_re += k_im
    dev = max(np.sqrt(np.max(k_re)), np.max(np.abs(np.abs(lam) - 1.0)))
    if dev > _EIGEN_RESIDUAL_TOL:
        raise NonNormalUnitary(f"Floquet eigenbasis residual {dev:.2e}")
    return o, lam


def _require_fermi_gap(levels: np.ndarray, m: int) -> None:
    """Raise DegenerateFermiLevel when ascending levels m and m+1 are closer than 1e-12."""
    if 0 < m < len(levels) and levels[m] - levels[m - 1] < _FERMI_GAP_TOL:
        raise DegenerateFermiLevel(
            f"levels {m} and {m + 1} of the averaged Hamiltonian are degenerate "
            f"(gap {levels[m] - levels[m - 1]:.2e})"
        )


def _lowest_states(h: np.ndarray, m: int) -> np.ndarray:
    """The m lowest eigenvectors of the real symmetric h, from a full eigh."""
    e, v = np.linalg.eigh(h)
    _require_fermi_gap(e, m)
    return v[:, :m]


def _lowest_pair(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (at most) two lowest eigenpairs of the real symmetric h, by block Lanczos.

    The Krylov basis grows from a block of two fixed chirp vectors
    cos(c r j^2), so a doubly degenerate lowest level shows as two Ritz
    values.  Each new vector is orthogonalized twice against the whole basis
    and dropped when nothing of it is left; a block dropped whole means an
    invariant subspace, and unless its Ritz pairs have converged the next
    two chirps restart the growth.  Returns the Ritz pairs once both
    residuals ||h y - e y|| are at most 1e-12, or once the basis spans the
    space.
    """
    n = len(h)
    chirps = (np.cos(_TWIST * r * np.arange(1.0, n + 1) ** 2) for r in count(1))
    basis = np.empty((min(n, 64), n))  # rows are the orthonormal Krylov vectors
    image = np.empty_like(basis)  # rows of basis @ h = (h @ basis.T).T
    proj = np.empty((len(basis), len(basis)))  # basis h basis^T
    k = 0
    check = _LANCZOS_CHECK
    block = [next(chirps), next(chirps)]
    while True:
        start = k
        for x in block:
            norm = np.linalg.norm(x)
            for _ in range(2):
                x = x - (basis[:k] @ x) @ basis[:k]
            left = np.linalg.norm(x)
            if left <= 1e-8 * norm:
                continue
            if k == len(basis):
                size = min(n, 2 * k)
                basis = np.concatenate([basis, np.empty((size - k, n))])
                image = np.concatenate([image, np.empty((size - k, n))])
                proj = np.pad(proj, (0, size - k))
            basis[k] = x / left
            k += 1
        image[start:k] = basis[start:k] @ h
        proj[:k, start:k] = basis[:k] @ image[start:k].T
        proj[start:k, :start] = proj[:start, start:k].T
        if k == n or k == start or k >= check:
            check = k + _LANCZOS_CHECK
            e, y = np.linalg.eigh(proj[:k, :k])
            e, y = e[:2], y[:, :2]
            v = basis[:k].T @ y
            residual = np.linalg.norm(image[:k].T @ y - v * e, axis=0)
            if k == n or np.max(residual) <= _LANCZOS_TOL:
                return e, v
        block = image[start:k] if k > start else [next(chirps), next(chirps)]


def _hermitian_spectrum(
    half_step: Callable[[float], np.ndarray],
    lam: float,
    tau: float,
    ground: Callable[[np.ndarray], np.ndarray] | None,
):
    """Floquet eigenpairs of exp(-i H(lam) tau) exp(-i H(1) tau) in real arithmetic.

    half_step(lam) returns the real symmetric half-step Hamiltonian H(lam)
    (|lam| <= 1), at single-particle or at sector size; each is built just
    before its eigh, so the two are never held at once.  Works in the
    eigenbasis of H0 = H(1), where with D0 = exp(-i W0 tau/2) the operator
    K = D0 (M^T exp(-i W1 tau) M) D0, M = V1^T V0, is similar to U through
    exp(-i H0 tau/2) and complex symmetric.  With O from _orthogonal_eigh,
    the Floquet states are psi = D0^* O; everything below is expressed
    through O in K's frame.  Returns (phases, theta, z): phases ascending,
    the cluster-aligned average energies, and z = psi^dagger Phi_gs (n x m)
    for the columns Phi_gs = ground(h_avg) of the averaged Hamiltonian
    h_avg = (H(1) + H(lam))/2 in H0's eigenbasis; ground None gives m = 0
    and no solve of h_avg at all.
    """
    w0, v0 = np.linalg.eigh(half_step(1.0))
    w1, v1 = np.linalg.eigh(half_step(lam))
    mix = v1.T @ v0
    del v0, v1
    h_avg = mix.T @ (w1[:, None] * mix)
    h_avg[np.diag_indices_from(h_avg)] += w0
    h_avg *= 0.5
    gs = np.zeros((len(w0), 0)) if ground is None else ground(h_avg)
    cos1 = (mix.T * np.cos(w1 * tau)) @ mix  # M^T exp(-i W1 tau) M = cos1 - i sin1
    sin1 = (mix.T * np.sin(w1 * tau)) @ mix
    del mix
    arg = np.add.outer(w0, w0) * (0.5 * tau)  # D0 X D0 multiplies X_jk by exp(-i arg_jk)
    c, s = np.cos(arg), np.sin(arg)
    del arg
    re = c * cos1
    re -= s * sin1
    im = s * cos1
    im += c * sin1
    im *= -1.0
    del c, s, cos1, sin1
    o, eig = _orthogonal_eigh(re, im)
    del re, im
    phases = np.angle(eig)
    order = np.argsort(phases, kind="stable")
    o = o[:, order]
    phases = phases[order]
    # h_avg in K's frame: D0 h_avg D0^*; o^T (imaginary, antisymmetric part) o = 0
    d0 = np.exp(-0.5j * tau * w0)
    h_k = h_avg * np.outer(d0, d0.conj())
    del h_avg
    h_o = np.ascontiguousarray(h_k.real) @ o
    theta = np.sum(o * h_o, axis=0)
    h_o = h_o + 1j * (np.ascontiguousarray(h_k.imag) @ o)
    del h_k
    g = d0[:, None] * gs
    z = o.T @ g.real + 1j * (o.T @ g.imag)
    # eigenphases within _PHASE_CLUSTER_TOL are one cluster, across the +-pi cut too
    groups = _clusters(phases, _PHASE_CLUSTER_TOL)
    if len(groups) > 1 and phases[0] + 2 * np.pi - phases[-1] <= _PHASE_CLUSTER_TOL:
        groups[0] = np.concatenate([groups.pop(), groups[0]])
    for idx, pw, pv in _align_clusters(groups, o, h_o):
        theta[idx] = pw
        z[idx] = pv.conj().T @ z[idx]
    return phases, theta, z


def _mirror_blocks(params: ChainParams, filling: int) -> list[Callable[[np.ndarray], np.ndarray]]:
    """Maps from a sector matrix to its diagonal blocks under S = particle-hole x mirror.

    S takes the occupation set A to the complement of its mirror image
    (site j to 2L-1-j).  At half filling and delta = 0 it maps the sector to
    itself and commutes with every H(lam): the mirror swaps the defect's two
    on-site terms, and the complement flips their sign back and keeps each
    hop.  With the string-free occupation basis S is a plain permutation,
    so a state either is its own partner or pairs with one.  The even block
    has the fixed states and (|A> + |SA>)/sqrt2, the odd block
    (|A> - |SA>)/sqrt2, and both are sliced out of the sector matrix by
    index arithmetic.  Otherwise (delta != 0 breaks S at the chain's ends)
    the one map returns the whole matrix.
    """
    n = params.n_sites
    if params.delta != 0 or 2 * filling != n:
        return [lambda h: h]
    states = sector_basis(n, filling).states
    index = {s: i for i, s in enumerate(states)}
    full = (1 << n) - 1
    partner = np.array([index[full ^ int(f"{s:0{n}b}"[::-1], 2)] for s in states])
    own = np.arange(len(states))
    even = np.flatnonzero(partner >= own)
    odd = np.flatnonzero(partner > own)
    scale = np.where(partner[even] == even, np.sqrt(0.5), 1.0)
    scale = np.outer(scale, scale)

    def even_block(h):
        out = h[np.ix_(even, even)] + h[np.ix_(even, partner[even])]
        out *= scale
        return out

    def odd_block(h):
        return h[np.ix_(odd, odd)] - h[np.ix_(odd, partner[odd])]

    return [even_block, odd_block]


def average_energy_spectrum_mb(
    params: ChainParams, drive: DriveSpec, filling: int
) -> ManyBodySpectrumTable:
    """Unfolded average-energy spectrum of the two-step sector dynamics.

    theta_n = (<psi_n|H_uniform|psi_n> + <psi_n|H_defect|psi_n>)/2 over the
    Floquet eigenbasis; records are sorted by theta ascending, and each
    carries its overlap weight with the infinite-frequency ground state.
    A Hermitian defect (|lam| <= 1) takes the real orthogonal eigenbasis of
    the symmetrized operator; the free half-filled sector takes it block by
    block (``_mirror_blocks``), and the states of the block without the
    ground state get weight exactly 0.  A no-click defect (lam > 1) makes
    the sector operator non-unitary and raises NonNormalUnitary; a
    degenerate ground state of the averaged Hamiltonian, within a block or
    across the two, raises DegenerateFermiLevel.
    """
    if drive.family not in (DriveFamily.TWO_STEP, DriveFamily.NON_HERMITIAN_TWO_STEP):
        raise ValueError("average_energy_spectrum_mb requires a two-step drive family")
    if abs(drive.lam) > 1.0:
        raise NonNormalUnitary(f"the sector Floquet operator is not unitary for lam = {drive.lam} > 1")
    lowest = []  # the two lowest levels of h_avg in each block

    def ground(h_avg):
        e, v = _lowest_pair(h_avg)
        lowest.append(e)
        return v[:, :1]

    parts = [
        _hermitian_spectrum(
            lambda lam, block=block: block(build_sector_hamiltonian(params, lam, filling).matrix),
            drive.lam,
            drive.period / 2.0,
            ground,
        )
        for block in _mirror_blocks(params, filling)
    ]
    _require_fermi_gap(np.sort(np.concatenate(lowest)), 1)
    holder = int(np.argmin([e[0] for e in lowest]))
    phases = np.concatenate([p[0] for p in parts])
    theta = np.concatenate([p[1] for p in parts])
    weight = np.concatenate(
        [np.abs(z[:, 0]) ** 2 if b == holder else np.zeros(len(z)) for b, (_, _, z) in enumerate(parts)]
    )
    order = np.argsort(theta, kind="stable")
    theta = theta[order]
    weight = weight[order]
    return ManyBodySpectrumTable(
        quasienergy=-phases[order] / drive.period,
        theta=theta,
        weight=weight,
        grey=weight < GREY_THRESHOLD,
    )


def two_step_theta_sp(params: ChainParams, drive: DriveSpec) -> np.ndarray:
    """Single-particle average energies of the two-step drive, sorted ascending.

    Same construction as the sector table but on the 2L x 2L one-body
    matrices; subset sums of these values reproduce the free sector spectrum.
    Only the Hermitian two-step family is accepted; the no-click family
    raises ValueError.
    """
    if drive.family is not DriveFamily.TWO_STEP:
        raise ValueError("two_step_theta_sp requires the Hermitian two-step drive family")
    # m = 0: no ground state is read, so a degenerate averaged Fermi level is no error here
    theta = _hermitian_spectrum(
        lambda lam: single_particle_hamiltonian(params, lam).real, drive.lam, drive.period / 2.0, None
    )[1]
    return np.sort(theta)


def free_ground_state_weight(params: ChainParams, drive: DriveSpec) -> float:
    """ground_state_weight of the free half-filled sector, from one determinant.

    At delta = 0 the minimal-theta Floquet state is the Slater determinant of
    the L lowest-theta single-particle Floquet modes W (cluster-aligned as in
    the sector table) and the infinite-frequency ground state is that of the L
    lowest eigenvectors Phi_gs of (h(1) + h(lam))/2, so the weight is
    |det(W^dagger Phi_gs)|^2 (Lowdin, Phys. Rev. 97, 1474 (1955)).  It equals
    average_energy_spectrum_mb(params, drive, L).ground_state_weight at
    O((2L)^3) cost instead of the sector's exponential one.

    Raises ValueError for delta != 0 or a non-two-step family,
    NonNormalUnitary for the non-Hermitian drive, DegenerateMinimalState when
    theta_L = theta_{L+1}, and DegenerateFermiLevel when the averaged
    Hamiltonian is degenerate at half filling.
    """
    if drive.family is DriveFamily.HARMONIC:
        raise ValueError("free_ground_state_weight requires a two-step drive family")
    if drive.family is DriveFamily.NON_HERMITIAN_TWO_STEP:
        raise NonNormalUnitary("the single-particle Floquet modes need a unitary drive (|lam| <= 1)")
    L = params.half_length
    _, theta, z = _hermitian_spectrum(
        lambda lam: single_particle_hamiltonian(params, lam).real,
        drive.lam,
        drive.period / 2.0,
        lambda h_avg: _lowest_states(h_avg, L),
    )
    order = np.argsort(theta, kind="stable")
    gap = theta[order[L]] - theta[order[L - 1]]
    if gap <= _THETA_GAP_TOL:
        raise DegenerateMinimalState(f"theta_L and theta_L+1 are degenerate (gap {gap:.2e})")
    _, log_abs_det = np.linalg.slogdet(z[order[:L]])
    return float(np.exp(2.0 * log_abs_det))


def _expand(width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For width[i] items in each group i, every item's group and its rank inside it."""
    group = np.repeat(np.arange(len(width)), width)
    return group, np.arange(len(group)) - np.repeat(np.cumsum(width) - width, width)


def _subsets_by_size(values: np.ndarray, bounds: np.ndarray) -> tuple[list, list, list]:
    """Subsets of the ascending, non-negative values with sum <= bounds[m], size by size.

    Level m holds the sums of the kept m-subsets in ascending order, their
    largest indices and the positions of their parents (the subset without
    that index) in level m - 1.  A child adds an index past its parent's
    largest, so the indices it may add form one searchsorted range.  bounds
    must not increase with m: then the parent of every kept subset is kept too.
    """
    sums, last, parent = [np.zeros(1)], [np.full(1, -1)], [np.zeros(1, dtype=np.intp)]
    for bound in bounds[1:]:
        s, start = sums[-1], last[-1] + 1
        width = np.maximum(np.searchsorted(values, bound - s, side="right") - start, 0)
        par, rank = _expand(width)
        j = start[par] + rank
        child = s[par] + values[j]
        order = np.argsort(child, kind="stable")
        sums.append(child[order])
        last.append(j[order])
        parent.append(par[order])
    return sums, last, parent


def _members(last: list, parent: list, nodes: np.ndarray, m: int) -> np.ndarray:
    """Ascending indices of the level-m subsets at positions nodes, one row each."""
    out = np.empty((len(nodes), m), dtype=np.intp)
    for level in range(m, 0, -1):
        out[:, level - 1] = last[level][nodes]
        nodes = parent[level][nodes]
    return out


def lowest_k_free_spectrum(theta_sp: np.ndarray, filling: int, k: int) -> np.ndarray:
    """K smallest sums of ``filling`` distinct entries of theta_sp, ascending.

    The output is exactly the first K of the sorted direct sums that
    brute-force enumeration returns: each value is the numpy sum of its
    occupation's entries of the ascending-sorted input, in index order.

    Every occupation is the ground filling with m holes R and m particles P.
    With mu midway between the last filled and first empty level, the
    particle energies theta[filling:] - mu and hole energies mu - theta[:filling]
    are non-negative, and the excitation key a(P) + b(R) is the occupation's
    sum minus the ground sum.  A threshold t is grown geometrically until at
    least K keys are <= t, then bisected on that count.  Each side's subsets
    are enumerated size by size, pruned at t minus the other side's smallest
    m-sum, and the count is a searchsorted over each size's hole sums.
    The occupations with key <= t + margin are summed directly; margin covers
    twice the rounding of a key and of a direct sum, so no occupation left out
    can be among the K smallest sums.
    """
    theta = np.sort(np.asarray(theta_sp, dtype=float))
    n = len(theta)
    if not 0 <= filling <= n:
        raise ValueError(f"filling must be in [0, {n}]")
    total = comb(n, filling)
    if not 1 <= k <= total:
        raise KOutOfRange(f"k must be in [1, {total}], got {k}")
    top = min(filling, n - filling)  # the most particle-hole pairs
    mu = 0.5 * (theta[filling - 1] + theta[filling]) if top else 0.0
    part = np.maximum(theta[filling:] - mu, 0.0)
    hole = np.maximum(mu - theta[:filling][::-1], 0.0)  # hole i empties level filling - 1 - i
    part_min = np.concatenate([[0.0], np.cumsum(part[:top])])
    hole_min = np.concatenate([[0.0], np.cumsum(hole[:top])])
    # a key or a direct sum adds at most n terms of size <= |theta_i| + |mu|
    margin = 16 * n * np.finfo(float).eps * (np.abs(theta).sum() + n * abs(mu))

    def enumerate_to(t):
        return _subsets_by_size(part, t + margin - hole_min), _subsets_by_size(hole, t + margin - part_min)

    def count(t):
        return sum(int(np.searchsorted(b, t - a, side="right").sum()) for a, b in zip(parts[0], holes[0]))

    lo, t = 0.0, (max(part[0] + hole[0], margin) if top else 0.0)
    parts, holes = enumerate_to(t)
    have = count(t)
    while have < k:
        lo, t = t, 2.0 * t
        parts, holes = enumerate_to(t)
        have = count(t)
    while have - k > k // 16 and t - lo > margin:
        mid = 0.5 * (lo + t)
        below = count(mid)
        if below >= k:
            t, have = mid, below
        else:
            lo = mid
    out = []
    for m, (a, b) in enumerate(zip(parts[0], holes[0])):
        p_nodes, h_nodes = _expand(np.searchsorted(b, t + margin - a, side="right"))
        for i in range(0, len(p_nodes), 4096):  # chunks, so that no K x filling index array is held
            p_idx = _members(parts[1], parts[2], p_nodes[i : i + 4096], m)
            h_idx = _members(holes[1], holes[2], h_nodes[i : i + 4096], m)
            kept = np.ones((len(p_idx), filling), dtype=bool)
            kept[np.arange(len(h_idx))[:, None], filling - 1 - h_idx] = False
            idx = np.concatenate([np.nonzero(kept)[1].reshape(len(p_idx), filling - m), filling + p_idx], axis=1)
            out.append(theta[idx].sum(axis=1))
    out = np.concatenate(out)
    out.sort()
    return out[:k]
