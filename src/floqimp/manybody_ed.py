"""Exact diagonalization in a fixed-filling sector at desk scale.

Bitmask occupation basis over 2L sites, dense sector matrices, two-step
Floquet unitaries, and the unfolded average-energy spectrum with overlap
colouring against the infinite-frequency ground state.  Sizes are guarded to
sector dimension <= 2e4 (2L = 14 at half filling is the working scale); in
the free sector the minimal-theta overlap weight also has a determinant route
that reaches chain sizes of several hundred sites.

Hopping is nearest-neighbour only, so matrix elements in the occupation
basis carry no fermionic string sign.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np
from scipy.linalg import expm, schur

from .gaussian import ground_state, two_step_propagator
from .model import ChainParams, DriveFamily, DriveSpec, single_particle_hamiltonian

SECTOR_LIMIT = 20_000
GREY_THRESHOLD = 0.002
_PHASE_CLUSTER_TOL = 1e-10
_THETA_GAP_TOL = 1e-10


class SectorTooLarge(Exception):
    """Raised when the requested sector exceeds the desk-scale guard."""


class NonNormalUnitary(Exception):
    """Raised when the sector Floquet operator fails the unitarity check."""


class KOutOfRange(Exception):
    """Raised when more subset sums are requested than the sector holds."""


class DegenerateMinimalState(Exception):
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
    hermitian: bool = True


def build_sector_hamiltonian(params: ChainParams, lam: float, filling: int) -> SectorOperator:
    """Sector matrix of the defect chain plus delta * n_j n_{j+1} interactions.

    Hopping amplitudes and on-site terms come from the single-particle defect
    matrix; the density-density coupling params.delta acts uniformly on all
    2L-1 bonds, the driven bond included.  Hermitian iff |lam| <= 1.
    """
    n = params.n_sites
    basis = sector_basis(n, filling)
    index = basis.index()
    h = single_particle_hamiltonian(params, lam)
    hermitian = abs(lam) <= 1.0
    dtype = float if hermitian else complex
    onsite = np.diag(h).real if hermitian else np.diag(h)
    hop = h.real if hermitian else h
    delta = params.delta
    H = np.zeros((basis.dim, basis.dim), dtype=dtype)
    for a, s in enumerate(basis.states):
        occ = [(s >> j) & 1 for j in range(n)]
        e = sum(onsite[j] for j in range(n) if occ[j])
        if delta:
            e = e + delta * sum(occ[j] and occ[j + 1] for j in range(n - 1))
        H[a, a] = e
        for j in range(n - 1):
            if occ[j] and not occ[j + 1]:
                b = index[s ^ (3 << j)]
                H[b, a] += hop[j + 1, j]
                H[a, b] += hop[j, j + 1]
    return SectorOperator(basis=basis, matrix=H, hermitian=hermitian)


def floquet_unitary_mb(params: ChainParams, drive: DriveSpec, filling: int) -> SectorOperator:
    """Sector Floquet operator exp(-i H_lam T/2) exp(-i H_1 T/2), uniform half first."""
    if drive.family not in (DriveFamily.TWO_STEP, DriveFamily.NON_HERMITIAN_TWO_STEP):
        raise ValueError("floquet_unitary_mb requires a two-step drive family")
    h_uni = build_sector_hamiltonian(params, 1.0, filling)
    h_def = build_sector_hamiltonian(params, drive.lam, filling)
    half = drive.period / 2.0
    w0, v0 = np.linalg.eigh(h_uni.matrix)  # real symmetric, v0 real
    if h_def.hermitian:
        w1, v1 = np.linalg.eigh(h_def.matrix)
        left = (v1 * np.exp(-1j * w1 * half)) @ (v1.T @ v0)
    else:
        left = expm(-1j * half * h_def.matrix) @ v0
    u = (left * np.exp(-1j * w0 * half)) @ v0.T
    return SectorOperator(basis=h_uni.basis, matrix=u, hermitian=False)


@dataclass(frozen=True)
class ManyBodySpectrumTable:
    """Average-energy spectrum records, sorted by theta.

    quasienergy is the folded eigenphase -arg(u_n)/T in (-pi/T, pi/T];
    weight is the squared overlap of each Floquet eigenstate with the ground
    state of the time-averaged Hamiltonian (H_uniform + H_defect)/2, and
    ground_state_weight is the weight of the minimal-theta state (the
    adiabatic-continuity diagnostic).  grey flags weight < 0.002.
    """

    period: float
    quasienergy: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    grey: np.ndarray = field(repr=False)

    @property
    def ground_state_weight(self) -> float:
        return float(self.weight[0])

    @property
    def max_weight(self) -> float:
        return float(self.weight.max())


def _floquet_eigenbasis(u: np.ndarray, h_avg: np.ndarray):
    """Orthonormal Floquet eigenbasis with degenerate clusters aligned to h_avg.

    Schur of the (normal) unitary gives an orthonormal basis; inside each
    eigenphase cluster the basis is rotated to diagonalise the projected
    time-averaged Hamiltonian, fixing the gauge ambiguity and yielding the
    average energies directly.
    """
    t, q = schur(u.astype(complex), output="complex")
    phases = np.angle(np.diag(t))
    order = np.argsort(phases, kind="stable")
    psi = np.ascontiguousarray(q[:, order])
    phases = phases[order]
    m = h_avg @ psi
    theta = np.real(np.sum(psi.conj() * m, axis=0))
    n = len(phases)
    clusters = []
    start = 0
    for i in range(1, n + 1):
        if i == n or phases[i] - phases[i - 1] > _PHASE_CLUSTER_TOL:
            clusters.append(list(range(start, i)))
            start = i
    # eigenphase pairs straddling the +-pi cut belong to one cluster
    if len(clusters) > 1 and phases[0] + 2 * np.pi - phases[-1] <= _PHASE_CLUSTER_TOL:
        clusters[0] = clusters.pop() + clusters[0]
    for idx in clusters:
        if len(idx) > 1:
            block = psi[:, idx]
            proj = block.conj().T @ m[:, idx]
            pw, pv = np.linalg.eigh(0.5 * (proj + proj.conj().T))
            psi[:, idx] = block @ pv
            theta[idx] = pw
    eigenvalues = np.exp(1j * phases)
    return psi, theta, eigenvalues


def average_energy_spectrum_mb(
    params: ChainParams, drive: DriveSpec, filling: int
) -> ManyBodySpectrumTable:
    """Unfolded average-energy spectrum of the two-step sector dynamics.

    theta_n = (<psi_n|H_uniform|psi_n> + <psi_n|H_defect|psi_n>)/2 over the
    Floquet eigenbasis; records are sorted by theta ascending, and each
    carries its overlap weight with the infinite-frequency ground state.
    """
    h0 = build_sector_hamiltonian(params, 1.0, filling).matrix
    h1 = build_sector_hamiltonian(params, drive.lam, filling).matrix
    if not np.iscomplexobj(h1):
        h_avg = 0.5 * (h0 + h1)
    else:
        h_avg = 0.5 * (h0.astype(complex) + h1)
    u = floquet_unitary_mb(params, drive, filling).matrix
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > 1e-9:
        raise NonNormalUnitary(f"sector Floquet operator not unitary (deviation {dev:.2e})")
    psi, theta, ev = _floquet_eigenbasis(u, h_avg)
    gw, gv = np.linalg.eigh(h_avg)
    gs = gv[:, 0]
    weight = np.abs(psi.conj().T @ gs) ** 2
    order = np.argsort(theta, kind="stable")
    theta = theta[order]
    weight = weight[order]
    quasi = -np.angle(ev[order]) / drive.period
    return ManyBodySpectrumTable(
        period=drive.period,
        quasienergy=quasi,
        theta=theta,
        weight=weight,
        grey=weight < GREY_THRESHOLD,
    )


def two_step_theta_sp(params: ChainParams, drive: DriveSpec) -> np.ndarray:
    """Single-particle average energies of the two-step drive, sorted ascending.

    Same construction as the sector table but on the 2L x 2L one-body
    matrices; subset sums of these values reproduce the free sector spectrum.
    The exponentials come from eigh, so only the Hermitian two-step family
    is accepted; the no-click family raises ValueError.
    """
    if drive.family is not DriveFamily.TWO_STEP:
        raise ValueError("two_step_theta_sp requires the Hermitian two-step drive family")
    h0 = single_particle_hamiltonian(params, 1.0)
    h1 = single_particle_hamiltonian(params, drive.lam)
    half = drive.period / 2.0
    w0, v0 = np.linalg.eigh(h0)
    w1, v1 = np.linalg.eigh(h1)
    u = (v1 * np.exp(-1j * w1 * half)) @ (v1.conj().T @ v0) @ (
        np.exp(-1j * w0 * half)[:, None] * v0.conj().T
    )
    _, theta, _ = _floquet_eigenbasis(u, 0.5 * (h0 + h1))
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
    if params.delta != 0:
        raise ValueError("free_ground_state_weight requires delta = 0")
    prop = two_step_propagator(params, drive)
    if not prop.unitary:
        raise NonNormalUnitary("free_ground_state_weight requires a unitary drive (|lam| <= 1)")
    h_avg = 0.5 * (
        single_particle_hamiltonian(params, 1.0) + single_particle_hamiltonian(params, drive.lam)
    )
    psi, theta, _ = _floquet_eigenbasis(prop.matrix, h_avg)
    order = np.argsort(theta, kind="stable")
    L = params.half_length
    gap = theta[order[L]] - theta[order[L - 1]]
    if gap <= _THETA_GAP_TOL:
        raise DegenerateMinimalState(f"theta_L and theta_L+1 are degenerate (gap {gap:.2e})")
    overlap = psi[:, order[:L]].conj().T @ ground_state(h_avg, L).orbitals
    _, log_abs_det = np.linalg.slogdet(overlap)
    return float(np.exp(2.0 * log_abs_det))


def lowest_k_free_spectrum(theta_sp: np.ndarray, filling: int, k: int) -> np.ndarray:
    """K smallest sums of ``filling`` distinct entries of theta_sp, ascending.

    Best-first search from the ground filling: the heap holds candidate
    occupations keyed by incrementally updated sums, each expansion moves one
    occupied index up by one slot, and a visited set of bitmasks prevents
    duplicates.  Ties are broken by bitmask value.  Returned values are
    recomputed by direct summation over the ascending-sorted input, so the
    full-sector output matches brute-force enumeration exactly.
    """
    theta = np.sort(np.asarray(theta_sp, dtype=float))
    n = len(theta)
    if not 0 <= filling <= n:
        raise ValueError(f"filling must be in [0, {n}]")
    total = comb(n, filling)
    if not 1 <= k <= total:
        raise KOutOfRange(f"k must be in [1, {total}], got {k}")
    if filling == 0:
        return np.zeros(1)
    first = tuple(range(filling))
    first_mask = (1 << filling) - 1
    heap = [(float(theta[:filling].sum()), first_mask, first)]
    seen = {first_mask}
    out = np.empty(k)
    found = 0
    while found < k:
        s, mask, combo = heapq.heappop(heap)
        out[found] = theta[list(combo)].sum()
        found += 1
        for j in range(filling):
            nxt = combo[j] + 1
            if nxt >= n or (j + 1 < filling and nxt == combo[j + 1]):
                continue
            new_mask = mask ^ (3 << combo[j])
            if new_mask in seen:
                continue
            seen.add(new_mask)
            new_combo = combo[:j] + (nxt,) + combo[j + 1 :]
            heapq.heappush(heap, (s - theta[combo[j]] + theta[nxt], new_mask, new_combo))
    out.sort()
    return out
