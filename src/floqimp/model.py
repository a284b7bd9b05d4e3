"""Single-particle Hamiltonians and drive protocols for the driven two-site defect.

The system is an open chain of 2L spinless-fermion sites with uniform hopping
-1/2 everywhere except the central bond (L, L+1), which hosts a tunable
two-site defect.  The defect strength lambda interpolates between the clean
chain (lambda = 1) and two decoupled half-chains (lambda = 0); lambda > 1
turns the on-site terms imaginary and the defect non-Hermitian (balanced
gain/loss on the two central sites).

Sign convention, fixed once here: the defect block carries off-diagonal
-lambda/2 and on-site +sqrt(1-lambda^2)/2 on site L, -sqrt(1-lambda^2)/2 on
site L+1, so that lambda = 1 reproduces the uniform chain exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class ModelError(Exception):
    """Base of every numeric or model failure; the CLI maps it to exit code 3."""


class DriveFamily(Enum):
    """Supported periodic modulations of the defect strength."""

    TWO_STEP = "two-step"
    HARMONIC = "harmonic"
    NON_HERMITIAN_TWO_STEP = "nh-two-step"


@dataclass(frozen=True)
class ChainParams:
    """Static chain geometry: 2L sites, open boundaries, hopping J = 1.

    ``delta`` is the nearest-neighbour density-density coupling used by the
    many-body sector code; the single-particle matrices reject it.
    """

    half_length: int
    delta: float = 0.0

    def __post_init__(self):
        if self.half_length < 2:
            raise ValueError(f"half_length must be >= 2, got {self.half_length}")

    @property
    def n_sites(self) -> int:
        return 2 * self.half_length


def require_free(params: ChainParams) -> None:
    """Raise ValueError unless delta = 0: the single-particle routes are free fermions."""
    if params.delta != 0:
        raise ValueError(f"free-fermion routes cannot apply delta != 0; got delta = {params.delta}")


@dataclass(frozen=True)
class DriveSpec:
    """Drive protocol: waveform family, period and defect strength.

    For the two-step families the drive alternates between the uniform chain
    (first half period) and the defect at strength ``lam`` (second half).
    The harmonic family modulates the defect as lambda(t) = cos(2 pi t / T),
    so it sets no strength of its own: ``lam`` must keep its default 1.
    """

    family: DriveFamily
    period: float
    lam: float = 1.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.family is DriveFamily.HARMONIC and self.lam != 1:
            raise ValueError("the harmonic drive modulates lambda itself; lam must be 1")
        if self.family is DriveFamily.TWO_STEP and abs(self.lam) > 1:
            raise ValueError("two-step drive requires |lambda| <= 1")
        if self.family is DriveFamily.NON_HERMITIAN_TWO_STEP and self.lam <= 1:
            raise ValueError("non-Hermitian two-step drive requires lambda > 1")


def impurity_block(lam: float) -> np.ndarray:
    """2x2 defect block acting on sites (L, L+1).

    Hermitian for |lambda| <= 1; for |lambda| > 1 the on-site terms become
    +- (i/2) sqrt(lambda^2 - 1) (balanced imaginary potentials).
    """
    if abs(lam) <= 1.0:
        d = 0.5 * np.sqrt(1.0 - lam * lam)
        diag = complex(d)
    else:
        diag = 0.5j * np.sqrt(lam * lam - 1.0)
    return np.array([[diag, -lam / 2.0], [-lam / 2.0, -diag]], dtype=complex)


def harmonic_block(phase: float) -> np.ndarray:
    """Central 2x2 block of the harmonic drive at phase 2 pi t / T.

    [[sin/2, -cos/2], [-cos/2, -sin/2]]: the uniform chain's bond at phase 0,
    rotated by the mirror operator (real symmetric for every phase).
    """
    c, s = np.cos(phase), np.sin(phase)
    return np.array([[0.5 * s, -0.5 * c], [-0.5 * c, -0.5 * s]])


def single_particle_hamiltonian(params: ChainParams, lam: float) -> np.ndarray:
    """Dense 2L x 2L hopping matrix with the defect block on the central bond (delta = 0 only)."""
    require_free(params)
    n = params.n_sites
    h = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    h[idx, idx + 1] = -0.5
    h[idx + 1, idx] = -0.5
    L = params.half_length
    h[L - 1 : L + 1, L - 1 : L + 1] = impurity_block(lam)
    return h


def bond_matrix(L: int) -> np.ndarray:
    """Single-particle matrix of the central bond hop c_L^+ c_{L+1} + h.c."""
    g = np.zeros((2 * L, 2 * L), dtype=complex)
    g[L - 1, L] = 1.0
    g[L, L - 1] = 1.0
    return g


def imbalance_matrix(L: int) -> np.ndarray:
    """Single-particle matrix of the central density imbalance n_L - n_{L+1}."""
    o = np.zeros((2 * L, 2 * L), dtype=complex)
    o[L - 1, L - 1] = 1.0
    o[L, L] = -1.0
    return o

