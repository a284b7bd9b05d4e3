import warnings

import numpy as np
import pytest

from floqimp.model import ChainParams, single_particle_hamiltonian
from floqimp import floquet_analytics
from floqimp.floquet_analytics import (
    characteristic_roots,
    floquet_hamiltonian_exact,
    harmonic_chain,
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


def frame(L):
    """sqrt(2) W = i - P as a dense matrix, P the mirror j <-> 2L+1-j.

    Its entries are 0, -1 and i, so products with it round only where the
    other factor's entries are summed.
    """
    n = 2 * L
    return 1j * np.eye(n) - np.eye(n)[::-1]


@pytest.mark.parametrize("L", [2, 6, 200])
def test_frame_is_unitary_and_fixes_uniform_chain(L):
    u = frame(L)
    assert np.array_equal(u.conj().T @ u, 2.0 * np.eye(2 * L))
    h = single_particle_hamiltonian(ChainParams(half_length=L), 1.0)
    assert np.max(np.abs(u.conj().T @ h @ u / 2.0 - h)) < 1e-15


@pytest.mark.parametrize("L", [2, 6, 200])
@pytest.mark.parametrize("T", [1.0, 2.5, 4.2])
def test_frame_maps_generator_onto_real_step_chain(L, T):
    params = ChainParams(half_length=L)
    u = frame(L)
    chain = harmonic_chain(params, T)
    assert chain.dtype == float
    hf = floquet_hamiltonian_exact(params, T)
    rotated = u.conj().T @ hf @ u / 2.0
    assert np.max(np.abs(rotated - chain)) < 1e-15
    assert np.all(rotated.imag == 0.0)
    assert np.max(np.abs(np.linalg.eigvalsh(chain) - np.linalg.eigvalsh(hf))) < 1e-13


@pytest.mark.parametrize("L", [2, 6, 200])
def test_from_chain_applies_the_frame(L):
    rng = np.random.default_rng(L)
    re, im = rng.standard_normal((2, 2 * L, 2 * L))
    u = frame(L)
    expect = u @ (re + 1j * im) @ u.conj().T / 2.0
    assert np.max(np.abs(floquet_analytics.from_chain(re, im) - expect)) < 1e-13
    assert np.max(np.abs(floquet_analytics.from_chain(re) - u @ re @ u.conj().T / 2.0)) < 1e-13


def basis_theta_oracle(params, T):
    """theta from a complex eigh of h_F, aligned inside clusters of 1e-12."""
    w, v = np.linalg.eigh(floquet_hamiltonian_exact(params, T))
    h_v = single_particle_hamiltonian(params, 1.0) @ v
    theta = np.real(np.sum(v.conj() * h_v, axis=0))
    breaks = np.flatnonzero(np.diff(w) > 1e-12) + 1
    for idx in np.split(np.arange(len(w)), breaks):
        if len(idx) > 1:
            proj = v[:, idx].conj().T @ h_v[:, idx]
            theta[idx] = np.linalg.eigvalsh(0.5 * (proj + proj.conj().T))
    return theta


@pytest.mark.parametrize("T", [2.8, 3.3, 4.2])
def test_harmonic_basis_theta_matches_complex_eigh(T):
    params = ChainParams(half_length=50)
    v, theta = floquet_analytics._harmonic_basis(params, T)
    assert v.dtype == float
    assert np.max(np.abs(theta - basis_theta_oracle(params, T))) < 1e-10


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


@pytest.mark.parametrize("T", [1.0, np.pi, 5.0])
def test_sturm_roots_match_dense_spectrum_at_400_sites(T):
    params = ChainParams(half_length=200)
    energies = np.array([r.energy for r in characteristic_roots(params, T)])
    assert len(energies) == 400
    assert np.all(np.diff(energies) > 0)
    dense = np.linalg.eigvalsh(floquet_hamiltonian_exact(params, T))
    assert np.max(np.abs(energies - dense)) < 1e-13


def test_sturm_count_survives_an_exact_zero_pivot():
    # at E = -2 pi/T the first pivot of chain - E is exactly 0
    params = ChainParams(half_length=10)
    T = 2.5
    chain = harmonic_chain(params, T)
    es = np.array([chain[0, 0], -1.3, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = floquet_analytics._sturm_counts(chain, es)
    eigs = np.linalg.eigvalsh(chain)
    assert chain[0, 0] - es[0] == 0.0
    assert np.min(np.abs(eigs - es[0])) > 1e-3
    assert list(counts) == [int(np.sum(eigs < e)) for e in es]


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
