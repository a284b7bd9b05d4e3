import numpy as np
import pytest

from floqimp.model import ChainParams, single_particle_hamiltonian
from floqimp import floquet_analytics
from floqimp.floquet_analytics import (
    characteristic_roots,
    floquet_hamiltonian_exact,
    kato_hamiltonian_sp,
    mirror_operator,
    quasienergy_gap,
    su2_check,
)
from floqimp.gaussian import harmonic_propagator, midpoint_propagator


def test_mirror_smallest_case():
    s = mirror_operator(1)
    assert np.array_equal(s, np.array([[0, 1j], [-1j, 0]]))
    assert np.linalg.eigvalsh(s) == pytest.approx([-1.0, 1.0])


@pytest.mark.parametrize("L", [1, 2, 7, 24])
def test_mirror_squares_to_identity_exactly(L):
    s = mirror_operator(L)
    assert np.array_equal(s @ s, np.eye(2 * L).astype(complex))
    assert np.array_equal(s, s.conj().T)
    w = np.linalg.eigvalsh(s)
    assert np.sum(w < 0) == L and np.sum(w > 0) == L


@pytest.mark.parametrize("L", [1, 5, 30])
def test_su2_algebra_closes(L):
    rep = su2_check(L)
    assert rep.bulk_commutator == 0.0
    assert rep.omega_commutator < 1e-14
    assert rep.gamma_commutator < 1e-14
    assert rep.quarter_rotation < 1e-14


def test_floquet_hamiltonian_infinite_period_limit():
    params = ChainParams(half_length=6)
    hf = floquet_hamiltonian_exact(params, 1e12)
    assert np.max(np.abs(hf - single_particle_hamiltonian(params, 1.0))) < 1e-11


def test_closed_form_matches_midpoint_propagator():
    params = ChainParams(half_length=10)
    for T in (0.7, 2.5, 3.3):
        u = midpoint_propagator(params, T, 1024).matrix
        dev = np.max(np.abs(u - harmonic_propagator(params, T).matrix))
        assert dev < 1e-5


def test_gap_high_frequency():
    gap = quasienergy_gap(ChainParams(half_length=100), 0.5)
    assert 2 * np.pi / 0.5 - 4.0 < gap < 2 * np.pi / 0.5


def test_gap_near_critical_period_is_small():
    gap = quasienergy_gap(ChainParams(half_length=200), np.pi)
    assert 0.0 <= gap < 0.05


def test_gap_collapses_in_overlapping_regime():
    # past the transition the sorted-spacing gap drops to a level spacing
    gap = quasienergy_gap(ChainParams(half_length=200), 4.2)
    assert gap < 1e-2


def test_gap_monotone_below_critical_period_and_crossing():
    params = ChainParams(half_length=200)
    Ts = np.arange(0.2, 3.3001, 0.1)
    gaps = np.array([quasienergy_gap(params, float(T)) for T in Ts])
    assert np.all(np.diff(gaps[Ts <= np.pi]) < 0)
    first_small = Ts[np.argmax(gaps < 1e-2)]
    assert 3.0 <= first_small <= 3.3


@pytest.mark.parametrize("L", [5, 20, 50])
@pytest.mark.parametrize("T", [1.0, 2.5, 3.3, 5.0])
def test_characteristic_roots_match_diagonalization(L, T):
    # agreement with eigh on this grid is the roots entry of checks.SUITES
    roots = characteristic_roots(ChainParams(half_length=L), T)
    assert len(roots) == 2 * L
    assert max(r.residual for r in roots) < 1e-9


def test_root_kappa_branches():
    params = ChainParams(half_length=8)
    for r in characteristic_roots(params, 2.5):
        for k in (r.kappa_plus, r.kappa_minus):
            assert k.real >= 0.0
            assert -1e-12 <= k.imag <= np.pi + 1e-12
        # defining relations cosh(kappa) = -(E + shift)
        assert np.cosh(r.kappa_plus) == pytest.approx(-(r.energy + 2 * np.pi / 2.5), abs=1e-10)
        assert np.cosh(r.kappa_minus) == pytest.approx(-r.energy, abs=1e-10)


def floquet_eigenvector(root, params, T):
    """Normalised h_F eigenvector from the closed-form channel amplitudes.

    Sites 1..L carry a_j + i b_j; the mirror half carries b_m + i a_m with
    m = 2L+1-j, where a and b are the two sinh-ratio channels.
    """
    L = params.half_length
    a, b = floquet_analytics._amplitude_arrays(root, L, T)
    v = np.empty(2 * L, dtype=complex)
    v[:L] = a + 1j * b
    v[L:] = (b + 1j * a)[::-1]
    return v / np.linalg.norm(v)


def test_eigenvectors_from_closed_form():
    params = ChainParams(half_length=50)
    T = 2.5
    hf = floquet_hamiltonian_exact(params, T)
    eigs, vecs = np.linalg.eigh(hf)
    roots = characteristic_roots(params, T)
    for i in (0, 37, 99):
        v = floquet_eigenvector(roots[i], params, T)
        assert np.linalg.norm(hf @ v - roots[i].energy * v) < 1e-8
        assert abs(np.vdot(v, vecs[:, i])) > 1.0 - 1e-8


def test_eigenvector_mirror_channel_structure():
    # right-half amplitudes are i * conj(left-half) site by mirrored site
    params = ChainParams(half_length=20)
    roots = characteristic_roots(params, 2.5)
    L = params.half_length
    for i in (3, 21):
        v = floquet_eigenvector(roots[i], params, T=2.5)
        assert np.max(np.abs(v[L:][::-1] - 1j * v[:L].conj())) < 1e-12


def test_sw_leading_order_is_uniform_half_chain():
    params = ChainParams(half_length=40)
    T = 0.05
    lower = np.sort(np.linalg.eigvalsh(floquet_hamiltonian_exact(params, T)))[:40]
    cos_band = -np.cos(np.arange(1, 41) * np.pi / 41.0)
    assert np.max(np.abs(lower + 2 * np.pi / T - np.sort(cos_band))) < 5e-3


def test_average_energy_two_routes_agree():
    params = ChainParams(half_length=25)
    num = np.linalg.eigvalsh(kato_hamiltonian_sp(params, 2.5))
    ana = np.sort(floquet_analytics.root_average_energies(params, 2.5, characteristic_roots(params, 2.5)))
    assert np.max(np.abs(num - ana)) < 1e-8


def test_average_energy_high_frequency_limit():
    # theta converges to the spectrum of the period-averaged generator, which
    # for the harmonic drive is the chain with the central bond averaged away
    params = ChainParams(half_length=20)
    theta = np.linalg.eigvalsh(kato_hamiltonian_sp(params, 1e-3))
    h_avg = single_particle_hamiltonian(params, 1.0)
    h_avg[19, 20] = h_avg[20, 19] = 0.0
    assert np.max(np.abs(theta - np.sort(np.linalg.eigvalsh(h_avg)))) < 1e-3


@pytest.mark.parametrize("T", [0.8, 2.5, 3.3])
def test_average_energy_bounded_by_band(T):
    theta = np.linalg.eigvalsh(kato_hamiltonian_sp(ChainParams(half_length=25), T))
    assert np.all(theta >= -1.0 - 1e-9) and np.all(theta <= 1.0 + 1e-9)


def test_kato_hamiltonian_hermitian():
    hk = kato_hamiltonian_sp(ChainParams(half_length=30), 2.8)
    assert np.max(np.abs(hk - hk.conj().T)) < 1e-10
