"""Slater-determinant states, stroboscopic propagators, entanglement entropies.

A free-fermion pure state is stored as its orbital matrix Phi (2L x N with
orthonormal columns); every observable follows from the correlation matrix
C = Phi Phi^dagger.  Evolution multiplies the orbitals by a one-period
propagator; non-unitary (no-click) dynamics re-orthonormalises the columns
after every step, which implements the normalised non-Hermitian evolution.

Orthonormality is checked where it can break: when a state is built from
given orbitals, and once per propagator marked unitary (max|U^dagger U - 1|).
``evolve`` does not re-check it; a unitary step keeps it by induction and QR
makes it by construction.  A one-period propagator of a nearest-neighbour
chain is banded to machine precision (its Lieb-Robinson light cone), so
``evolve`` multiplies only the column windows that hold its entries.

Entropies are reported in nats (natural log).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .floquet_analytics import from_chain, harmonic_chain
from .model import (
    ChainParams, DriveFamily, DriveSpec, ModelError, harmonic_block, require_free, single_particle_hamiltonian
)

_ORTHO_TOL = 1e-8
# evolve multiplies blocks of this many propagator rows, each over the
# columns holding entries above _WINDOW_FLOOR * max|U|: the rounding floor of
# an eigh-built exponential (outside a 20-site band |U_ij| <= 7.5e-16 at
# 2L = 400, T = 2.5)
_WINDOW_ROWS = 25
_WINDOW_FLOOR = 1e-15
_CLIP = 1e-14
# entanglement_profile copies the cuts past L from their mirror images when
# max|D C* D^T + C - 1| is at most this (D = P Gamma); the states the drives
# make from the initial state read at most 7.3e-14 over 300 cycles at 2L = 400
_MIRROR_TOL = 1e-10


class RankDeficient(ModelError):
    """Raised when non-unitary evolution collapses the orbital rank."""


class NonUnitaryPropagator(ModelError):
    """Raised when a propagator marked unitary has max|U^dagger U - 1| above 1e-8."""


@dataclass(frozen=True)
class GaussianState:
    """Slater determinant with orthonormal orbital columns (2L x N)."""

    orbitals: np.ndarray = field(repr=False)

    def __post_init__(self):
        phi = self.orbitals
        if phi.ndim != 2 or phi.shape[0] < phi.shape[1]:
            raise ValueError(f"orbital matrix must be tall, got shape {phi.shape}")
        if phi.shape[1] > 0:
            g = phi.conj().T @ phi
            dev = np.max(np.abs(g - np.eye(phi.shape[1])))
            if dev > _ORTHO_TOL:
                raise ValueError(f"orbitals not orthonormal (deviation {dev:.2e})")

    @classmethod
    def _unchecked(cls, orbitals: np.ndarray) -> GaussianState:
        """A state whose orbitals are orthonormal by construction (``evolve``)."""
        state = object.__new__(cls)
        object.__setattr__(state, "orbitals", orbitals)
        return state

    @property
    def n_sites(self) -> int:
        return self.orbitals.shape[0]

    @property
    def filling(self) -> int:
        return self.orbitals.shape[1]

    def correlation_matrix(self) -> np.ndarray:
        return self.orbitals @ self.orbitals.conj().T


@dataclass(frozen=True)
class Propagator:
    """One-period single-particle evolution operator.

    ``matrix`` must be square.  With ``unitary`` it is checked once, here:
    max|U^dagger U - 1| above 1e-8 raises NonUnitaryPropagator.
    ``windows`` lists (r0, r1, lo, hi) per block of rows r0 .. r1-1: the
    block's entries above 1e-15 max|U| lie in columns lo .. hi-1, and
    ``evolve`` multiplies only those.  The check sums U^dagger U over the
    same windows.
    """

    matrix: np.ndarray = field(repr=False)
    unitary: bool = True
    windows: tuple[tuple[int, int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u = self.matrix
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"propagator must be a square matrix, got shape {u.shape}")
        n = u.shape[0]
        blocks = [(r0, min(r0 + _WINDOW_ROWS, n)) for r0 in range(0, n, _WINDOW_ROWS)]
        col_max = np.array([np.abs(u[r0:r1]).max(axis=0) for r0, r1 in blocks])
        floor = _WINDOW_FLOOR * col_max.max(initial=0.0)
        # a matrix with inf or nan entries keeps every column, as the dense product would
        keep = col_max > floor if np.isfinite(floor) else np.ones(col_max.shape, dtype=bool)
        windows = []
        for (r0, r1), row in zip(blocks, keep):
            cols = np.flatnonzero(row)
            windows.append((r0, r1, int(cols[0]), int(cols[-1]) + 1) if len(cols) else (r0, r1, 0, 0))
        object.__setattr__(self, "windows", tuple(windows))
        if self.unitary:
            # U^dagger U = sum over row blocks of U_b^dagger U_b, each within its window
            gram = np.zeros((n, n), dtype=np.result_type(u, 1.0))
            for r0, r1, lo, hi in windows:
                block = u[r0:r1, lo:hi]
                gram[lo:hi, lo:hi] += block.conj().T @ block
            gram[np.diag_indices(n)] -= 1.0
            dev = np.max(np.abs(gram), initial=0.0)
            if not dev <= _ORTHO_TOL:
                raise NonUnitaryPropagator(f"propagator marked unitary deviates by {dev:.2e}")


@dataclass(frozen=True)
class EntanglementProfile:
    """Entropies of the left blocks [1, cut] for every cut = 1 .. 2L-1.

    ``mirror_deviation`` is the state's max|D C* D^T + C - 1|; the cuts past
    L were copied from their mirror images iff it is <= 1e-10.
    """

    cuts: np.ndarray
    entropies: np.ndarray
    mirror_deviation: float


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make the largest-modulus component of each column real positive."""
    if v.shape[1] == 0:
        return v
    idx = np.argmax(np.abs(v), axis=0)
    lead = v[idx, np.arange(v.shape[1])]
    phase = lead / np.abs(lead)
    return v * phase.conj()


def half_filled_ground_state(params: ChainParams) -> GaussianState:
    """Ground state of the uniform chain at half filling (the initial state).

    The L lowest modes of ``uniform_eigh``, each signed so that its largest
    component is positive.  The orbitals are complex, like every evolved
    state's.
    """
    modes = uniform_eigh(params)[1][:, : params.half_length]
    return GaussianState(orbitals=_fix_phases(modes.astype(complex)))


def uniform_eigh(params: ChainParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the real uniform chain h(1).

    In closed form: w_k = -cos(pi k / (2L+1)) and
    v_jk = sqrt(2 / (2L+1)) sin(pi jk / (2L+1)), j, k = 1 .. 2L.  jk is
    reduced modulo 2(2L+1) first, which keeps max|v^T v - 1| and the
    residual near 1e-16 at 2L = 400 (about 2e-14 without it).  delta != 0 raises ValueError.
    """
    require_free(params)
    n = params.n_sites
    k = np.arange(1, n + 1)
    jk = np.outer(k, k) % (2 * (n + 1))
    return -np.cos(k * (np.pi / (n + 1))), np.sqrt(2.0 / (n + 1)) * np.sin(jk * (np.pi / (n + 1)))


def uniform_exponential(eig: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """exp(-i h(1) t) from the (w, v) of ``uniform_eigh``.

    The mirror P (j <-> 2L+1-j) leaves h(1) exactly invariant, so the result
    is made exactly mirror symmetric, as ``mirror_rotation`` requires.
    """
    w, v = eig
    e = np.empty(v.shape, dtype=complex)
    e.real = (v * np.cos(w * t)) @ v.T
    e.imag = (v * -np.sin(w * t)) @ v.T
    e += e[::-1, ::-1]  # numpy buffers the overlapping operand
    e *= 0.5
    return e


def mirror_rotation(e: np.ndarray, lam: float) -> np.ndarray:
    """exp(-i h(lam) t) from e = exp(-i h(1) t), which must be mirror symmetric.

    The defect is the uniform central bond rotated by the mirror operator:
    h(lam) = R h(1) R^-1, R = exp(i theta sigma) = cos theta + i sin theta sigma
    with cos 2 theta = lam (theta imaginary for lam > 1).  For e = P e P,
    R e R^-1 = cos^2 e + sin^2 sigma e sigma + i cos sin (sigma e - e sigma)
    is a signed reversal of e's blocks: the cross-half blocks scale by lam,
    and each half's block gains -+w times the row-reversed cross-half block,
    w = sin 2 theta = sqrt(1 - lam^2).
    """
    L = e.shape[0] // 2
    w = np.sqrt(complex(1.0 - lam * lam))
    out = lam * e
    out[:L, :L] = e[:L, :L] - w * e[L:, :L][::-1]
    out[L:, L:] = e[L:, L:] + w * e[:L, L:][::-1]
    return out


def _uniform_half(params: ChainParams, drive: DriveSpec) -> np.ndarray:
    """exp(-i h(1) T/2), the uniform half of a two-step drive."""
    if drive.family not in (DriveFamily.TWO_STEP, DriveFamily.NON_HERMITIAN_TWO_STEP):
        raise ValueError("two-step factors require a two-step drive family")
    return uniform_exponential(uniform_eigh(params), drive.period / 2)


def two_step_factors(params: ChainParams, drive: DriveSpec) -> tuple[Propagator, Propagator]:
    """Half-period factors of the two-step drive, in the order they act.

    exp(-i h(1) T/2) (the uniform half, unitary) then exp(-i h(lam) T/2)
    (the defect half, unitary iff |lam| <= 1).
    """
    uniform = _uniform_half(params, drive)
    return (
        Propagator(matrix=uniform, unitary=True),
        Propagator(matrix=mirror_rotation(uniform, drive.lam), unitary=abs(drive.lam) <= 1.0),
    )


def two_step_propagator(params: ChainParams, drive: DriveSpec) -> Propagator:
    """One-period propagator of the two-step drive, uniform half first.

    U = exp(-i h(lam) T/2) exp(-i h(1) T/2), the product of
    ``two_step_factors``; the right factor acts first.  Unitary iff
    |lam| <= 1.
    """
    uniform = _uniform_half(params, drive)
    return Propagator(matrix=mirror_rotation(uniform, drive.lam) @ uniform, unitary=abs(drive.lam) <= 1.0)


def harmonic_propagator(params: ChainParams, T: float) -> Propagator:
    """One-period propagator of the harmonic drive, in closed form.

    exp(-i h_F T) = W (C - i S) W^dagger from one real eigh v w v^T of
    ``harmonic_chain``: C = v cos(wT) v^T and S = v sin(wT) v^T.
    ``midpoint_propagator`` is the independent route it is checked against.
    """
    w, v = np.linalg.eigh(harmonic_chain(params, T))
    u = from_chain((v * np.cos(w * T)) @ v.T, (v * -np.sin(w * T)) @ v.T)
    return Propagator(matrix=u, unitary=True)


def midpoint_propagator(params: ChainParams, T: float, n_sub: int) -> Propagator:
    """Harmonic one-period propagator as an ordered midpoint product.

    The product of n_sub exponentials exp(-i H(t_mid) T/n_sub), second-order
    accurate in T/n_sub: the reference route that the closed form
    ``harmonic_propagator`` is checked against.
    """
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    dt = T / n_sub
    n = params.n_sites
    L = params.half_length
    sgn = np.ones(n)
    sgn[L:] = -1.0

    def partial_product(ks):
        # ordered product of the midpoint factors exp(-i H(t_k) dt), first
        # index applied first; the drive is real symmetric, uniform except
        # for the rotating central block
        h = single_particle_hamiltonian(params, 1.0).real
        u = np.eye(n, dtype=complex)
        for k in ks:
            h[L - 1 : L + 1, L - 1 : L + 1] = harmonic_block(2.0 * np.pi * (k + 0.5) * dt / T)
            w, v = np.linalg.eigh(h)
            u = (v * np.exp(-1j * w * dt)) @ (v.T @ u)
        return u

    if n_sub % 4:
        return Propagator(matrix=partial_product(range(n_sub)), unitary=True)
    # the factors obey two exact conjugation symmetries that fold the full
    # ordered product onto its first quarter: H(T/2 - t) = D H(t) D with D
    # the +-1 half-chain gauge, and H(T - t) = P H(t) P with P the spatial
    # reflection; each factor is complex symmetric, so reversed-order
    # partial products are plain transposes.
    u_quarter = partial_product(range(n_sub // 4))
    flipped = u_quarter.T * np.outer(sgn, sgn)
    u_half = flipped @ u_quarter
    u = u_half.T[::-1, ::-1] @ u_half
    return Propagator(matrix=u, unitary=True)


def evolve(state: GaussianState, prop: Propagator) -> GaussianState:
    """Apply a one-period propagator to the orbitals.

    Only the propagator's ``windows`` are multiplied.  A non-unitary
    propagator's output is QR-orthonormalised (no-click evolution); a
    unitary one's is returned as it is.  The result's orthonormality is not
    re-checked: a unitary step keeps the input's, QR makes it.  Raises
    RankDeficient when the propagated columns become linearly dependent
    beyond 1e-12 (non-Hermitian decay collision).
    """
    u, orbitals = prop.matrix, state.orbitals
    if u.shape[1] != state.n_sites:
        raise ValueError("propagator and state dimensions do not match")
    phi = np.empty(orbitals.shape, dtype=np.result_type(u, orbitals))
    for r0, r1, lo, hi in prop.windows:
        np.matmul(u[r0:r1, lo:hi], orbitals[lo:hi], out=phi[r0:r1])
    if prop.unitary or phi.shape[1] == 0:
        return GaussianState._unchecked(phi)
    q, r = np.linalg.qr(phi)
    d = np.abs(np.diag(r))
    if d.min() <= d.max() * 1e-12:
        raise RankDeficient("propagated orbitals lost rank")
    phase = np.diag(r) / d
    return GaussianState._unchecked(q * phase)


def _binary_entropy(nu: np.ndarray) -> float:
    """Entropy of restricted-C eigenvalues nu, clipped to [1e-14, 1 - 1e-14]."""
    nu = np.clip(nu, _CLIP, 1.0 - _CLIP)
    return float(-np.sum(nu * np.log(nu) + (1.0 - nu) * np.log(1.0 - nu)))


def _block_entropy(phi: np.ndarray, a: int, b: int) -> float:
    """Entropy of sites [a, b] (1-based, inclusive) from restricted-C spectra."""
    rows = phi[a - 1 : b, :]
    m, n_orb = rows.shape
    if n_orb == 0:
        return 0.0
    if m <= n_orb:
        gram = rows @ rows.conj().T
        pad = 0
    else:
        gram = rows.conj().T @ rows
        pad = m - n_orb
    nu = np.linalg.eigvalsh(gram)
    if pad:
        nu = np.concatenate([np.zeros(pad), nu])
    return _binary_entropy(nu)


def entanglement_entropy(state: GaussianState, interval: tuple[int, int]) -> float:
    """Von Neumann entropy (nats) of the sites in ``interval`` = (a, b), 1-based.

    Eigenvalues of the restricted correlation matrix are clipped to
    [1e-14, 1 - 1e-14] before entering the binary-entropy sum.  A prefix or
    suffix longer than half the chain, but not the whole chain, takes the
    entropy of its complement, which a pure state shares: its own spectrum
    holds eigenvalues near 1, where 1 - nu keeps few digits.
    """
    a, b = interval
    n = state.n_sites
    if not 1 <= a <= b <= n:
        raise ValueError(f"interval {interval} out of range for {n} sites")
    if 2 * (b - a + 1) > n and (a == 1) != (b == n):
        a, b = (b + 1, n) if a == 1 else (1, a - 1)
    return _block_entropy(state.orbitals, a, b)


def half_chain_entropy(state: GaussianState) -> float:
    return _block_entropy(state.orbitals, 1, state.n_sites // 2)


def _mirror_deviation(corr: np.ndarray) -> float:
    """max|D C* D^T + C - 1| with D = P Gamma, the signed mirror.

    (D C* D^T)_ij = (-1)^(i+j) conj(C)_(2L+1-i, 2L+1-j).
    """
    n = corr.shape[0]
    sign = np.where(np.arange(n) % 2, -1.0, 1.0)
    dev = corr[::-1, ::-1].conj() * np.outer(sign, sign)
    dev += corr
    dev[np.diag_indices(n)] -= 1.0
    return float(np.max(np.abs(dev), initial=0.0))


def entanglement_profile(state: GaussianState) -> EntanglementProfile:
    """Entropy of every left block [1, cut], cut = 1 .. 2L-1.

    A pure state has S([1, c]) = S([c+1, 2L]), so each cut diagonalizes the
    restricted correlation matrix of its smaller side, sliced from one
    C = Phi Phi^dagger.  Cuts whose smaller side still exceeds the filling
    use the filling x filling orbital Gram matrix instead.

    With D = P Gamma (mirror times the +-1 gauge), a state with
    D C* D^T = 1 - C has spec C_XX = 1 - spec C_YY for X = [1, c] and its
    mirror image Y, so S([1, c]) = S(Y) = S([1, 2L - c]).  The initial state
    and every state the drives make from it have this symmetry; when the
    measured deviation is <= 1e-10, only the cuts c <= L are diagonalized
    and the rest are copied.
    """
    phi = state.orbitals
    n, n_orb = phi.shape
    cuts = np.arange(1, n)
    corr = state.correlation_matrix()
    deviation = _mirror_deviation(corr)
    last = n // 2 if deviation <= _MIRROR_TOL else n - 1
    ent = np.empty(len(cuts))
    for i, c in enumerate(cuts[:last]):
        if min(c, n - c) > n_orb:
            ent[i] = _block_entropy(phi, 1, c)
        elif c <= n - c:
            ent[i] = _binary_entropy(np.linalg.eigvalsh(corr[:c, :c]))
        else:
            ent[i] = _binary_entropy(np.linalg.eigvalsh(corr[c:, c:]))
    ent[last:] = ent[: n - 1 - last][::-1]
    return EntanglementProfile(cuts=cuts, entropies=ent, mirror_deviation=deviation)


def build_propagator(params: ChainParams, drive: DriveSpec) -> Propagator:
    """One-period propagator for any drive family (dispatch helper)."""
    if drive.family is DriveFamily.HARMONIC:
        return harmonic_propagator(params, drive.period)
    return two_step_propagator(params, drive)
