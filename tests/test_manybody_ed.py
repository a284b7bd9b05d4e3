import heapq
from itertools import combinations
from math import comb

import importlib
import pkgutil

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import schur

import floqimp
from floqimp.gaussian import DegenerateFermiLevel, two_step_propagator
from floqimp.model import ChainParams, DriveFamily, DriveSpec, single_particle_hamiltonian
from floqimp import manybody_ed
from floqimp.manybody_ed import (
    GREY_THRESHOLD,
    DegenerateMinimalState,
    KOutOfRange,
    NonNormalUnitary,
    SectorTooLarge,
    average_energy_spectrum_mb,
    build_sector_hamiltonian,
    floquet_unitary_mb,
    free_ground_state_weight,
    lowest_k_free_spectrum,
    sector_basis,
    two_step_theta_sp,
)


def drive(T, lam=0.5):
    return DriveSpec(DriveFamily.TWO_STEP, period=T, lam=lam)


def test_sector_basis_size_and_order():
    basis = sector_basis(14, 7)
    assert basis.dim == 3432 == comb(14, 7)
    states = basis.states
    assert all(s1 < s2 for s1, s2 in zip(states, states[1:]))
    assert all(bin(s).count("1") == 7 for s in states)
    index = basis.index()
    assert all(states[index[s]] == s for s in states)


def test_sector_guard():
    with pytest.raises(SectorTooLarge):
        sector_basis(30, 15)


def test_free_sector_spectrum_is_subset_sums():
    params = ChainParams(half_length=4)
    sp = np.linalg.eigvalsh(single_particle_hamiltonian(params, 0.7).real)
    for filling in (2, 4):
        op = build_sector_hamiltonian(params, 0.7, filling)
        assert op.matrix.dtype == np.float64
        mb = np.sort(np.linalg.eigvalsh(op.matrix))
        sums = np.sort([sum(c) for c in combinations(sp, filling)])
        assert np.max(np.abs(mb - sums)) < 1e-12


def test_free_ground_energy_fills_lowest_modes():
    params = ChainParams(half_length=3)
    sp = np.sort(np.linalg.eigvalsh(single_particle_hamiltonian(params, 1.0).real))
    op = build_sector_hamiltonian(params, 1.0, 3)
    e0 = np.linalg.eigvalsh(op.matrix)[0]
    assert e0 == pytest.approx(sp[:3].sum(), abs=1e-12)


def test_interaction_term_on_known_configuration():
    params = ChainParams(half_length=2, delta=0.3)
    op = build_sector_hamiltonian(params, 0.0, 2)
    basis = op.basis
    idx = basis.index()
    # sites 0,1 occupied: one occupied bond, on-site terms 0 + 1/2
    a = idx[0b0011]
    assert op.matrix[a, a] == pytest.approx(0.3 + 0.5, abs=1e-14)
    # sites 1,2 occupied: defect on-site +1/2 - 1/2, one occupied bond
    b = idx[0b0110]
    assert op.matrix[b, b] == pytest.approx(0.3, abs=1e-14)


def _sector_hamiltonian_loop(params, lam, filling):
    """The sector matrix built state by state over the bitmasks (the oracle)."""
    n = params.n_sites
    basis = sector_basis(n, filling)
    index = basis.index()
    hop = single_particle_hamiltonian(params, lam).real
    onsite = np.diag(hop)
    H = np.zeros((basis.dim, basis.dim))
    for a, s in enumerate(basis.states):
        occ = [(s >> j) & 1 for j in range(n)]
        e = sum(onsite[j] for j in range(n) if occ[j])
        if params.delta:
            e = e + params.delta * sum(occ[j] and occ[j + 1] for j in range(n - 1))
        H[a, a] = e
        for j in range(n - 1):
            if occ[j] and not occ[j + 1]:
                b = index[s ^ (3 << j)]
                H[b, a] += hop[j + 1, j]
                H[a, b] += hop[j, j + 1]
    return H


@pytest.mark.parametrize(
    "L, filling", [(2, 0), (2, 1), (2, 4), (3, 3), (4, 2), (5, 5), (6, 6), (6, 11), (35, 1), (35, 2), (35, 68)]
)
@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_sector_hamiltonian_is_bitwise_the_loop(L, filling, delta):
    # 2L = 70 holds occupations past an int64 bitmask
    params = ChainParams(half_length=L, delta=delta)
    for lam in (1.0, 0.5, 0.0, -0.7):
        h = build_sector_hamiltonian(params, lam, filling).matrix
        assert h.tobytes() == _sector_hamiltonian_loop(params, lam, filling).tobytes()


def test_floquet_unitary_short_period_is_identity():
    params = ChainParams(half_length=3)
    u = floquet_unitary_mb(params, drive(1e-7), 3).matrix
    assert np.max(np.abs(u - np.eye(u.shape[0]))) < 1e-5


def test_floquet_unitary_is_unitary():
    params = ChainParams(half_length=4, delta=0.1)
    u = floquet_unitary_mb(params, drive(2.0), 4).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-9


def test_free_eigenphases_are_folded_subset_sums():
    params = ChainParams(half_length=4)
    T = 2.0
    h0 = single_particle_hamiltonian(params, 1.0).real
    h1 = single_particle_hamiltonian(params, 0.5).real
    w0, v0 = np.linalg.eigh(h0)
    w1, v1 = np.linalg.eigh(h1)
    u_sp = (v1 * np.exp(-1j * w1 * T / 2)) @ (v1.T @ v0) @ (np.exp(-1j * w0 * T / 2)[:, None] * v0.T)
    sp_phases = np.angle(np.linalg.eigvals(u_sp))
    u_mb = floquet_unitary_mb(params, drive(T), 4).matrix
    mb = np.sort(np.angle(np.linalg.eigvals(u_mb)))
    expected = np.sort(
        [np.angle(np.exp(1j * sum(sp_phases[list(c)]))) for c in combinations(range(8), 4)]
    )
    assert np.max(np.abs(mb - expected)) < 1e-10


def test_average_energy_table_free_oracle():
    params = ChainParams(half_length=4)
    d = drive(2.0)
    table = average_energy_spectrum_mb(params, d, 4)
    theta_sp = two_step_theta_sp(params, d)
    sums = np.sort([sum(c) for c in combinations(theta_sp, 4)])
    assert np.max(np.abs(table.theta - sums)) < 1e-8
    assert table.weight.sum() == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.diff(table.theta) >= -1e-12)
    assert np.array_equal(table.grey, table.weight < GREY_THRESHOLD)
    assert np.all(np.abs(table.quasienergy) <= np.pi / d.period + 1e-12)


def test_average_energy_table_deterministic():
    params = ChainParams(half_length=4, delta=0.1)
    a = average_energy_spectrum_mb(params, drive(2.0), 4)
    b = average_energy_spectrum_mb(params, drive(2.0), 4)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.weight, b.weight)


def test_overlap_concentrated_at_high_frequency():
    params = ChainParams(half_length=5)
    table = average_energy_spectrum_mb(params, drive(0.5), 5)
    assert table.ground_state_weight > 0.9


def test_two_step_theta_sp_bounds():
    params = ChainParams(half_length=10)
    theta = two_step_theta_sp(params, drive(2.0))
    assert len(theta) == 20
    assert np.all(theta >= -1.0 - 1e-9) and np.all(theta <= 1.0 + 1e-9)


@pytest.mark.parametrize("L", [3, 4, 5, 6])
def test_free_ground_state_weight_matches_sector_table(L):
    params = ChainParams(half_length=L)
    for T in (2.0, 2.8, 3.5, 4.0):
        ed = average_energy_spectrum_mb(params, drive(T), L).ground_state_weight
        assert abs(free_ground_state_weight(params, drive(T)) - ed) < 1e-10


def test_free_ground_state_weight_rejects_unsupported_drives():
    with pytest.raises(ValueError):
        free_ground_state_weight(ChainParams(half_length=3, delta=0.1), drive(2.0))
    harmonic = DriveSpec(DriveFamily.HARMONIC, period=2.0)
    with pytest.raises(ValueError):
        free_ground_state_weight(ChainParams(half_length=3), harmonic)
    no_click = DriveSpec(DriveFamily.NON_HERMITIAN_TWO_STEP, period=2.0, lam=1.5)
    with pytest.raises(NonNormalUnitary):
        free_ground_state_weight(ChainParams(half_length=3), no_click)


def test_free_ground_state_weight_rejects_tie_at_half_filling(monkeypatch):
    spectrum = manybody_ed._hermitian_spectrum

    def tied(*args):
        phases, theta, z = spectrum(*args)
        order = np.argsort(theta)
        theta[order[3]] = theta[order[2]]
        return phases, theta, z

    monkeypatch.setattr(manybody_ed, "_hermitian_spectrum", tied)
    with pytest.raises(DegenerateMinimalState):
        free_ground_state_weight(ChainParams(half_length=3), drive(2.0))


def test_degenerate_averaged_ground_state_raises():
    # lam = -1 cancels the averaged central bond: h_avg is two equal
    # half-chains, so every level is doubly degenerate and at odd L the
    # half-filled ground state is not unique
    params = ChainParams(half_length=3)
    d = drive(2.0, lam=-1.0)
    with pytest.raises(DegenerateFermiLevel):
        free_ground_state_weight(params, d)
    with pytest.raises(DegenerateFermiLevel):
        average_energy_spectrum_mb(params, d, 3)
    theta = two_step_theta_sp(params, d)
    assert theta[0] == pytest.approx(theta[1], abs=1e-12)


def test_lowest_k_first_value():
    theta = np.array([0.4, -1.2, 3.0, 0.1, -0.5])
    out = lowest_k_free_spectrum(theta, 2, 1)
    assert out[0] == pytest.approx(-1.7, abs=1e-15)


def test_lowest_k_full_sector_matches_brute_force_exactly():
    rng = np.random.RandomState(7)
    theta = np.sort(rng.uniform(-2.0, 2.0, 8))
    out = lowest_k_free_spectrum(theta, 4, 70)
    brute = np.sort([theta[list(c)].sum() for c in combinations(range(8), 4)])
    assert np.array_equal(out, brute)


def test_lowest_k_partial_prefix():
    rng = np.random.RandomState(3)
    theta = rng.uniform(-1.0, 1.0, 12)
    full = np.sort([np.sort(theta)[list(c)].sum() for c in combinations(range(12), 5)])
    out = lowest_k_free_spectrum(theta, 5, 40)
    assert np.array_equal(out, full[:40])


def test_lowest_k_with_ties():
    theta = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
    out = lowest_k_free_spectrum(theta, 2, 10)
    brute = np.sort([theta[list(c)].sum() for c in combinations(range(5), 2)])
    assert out == pytest.approx(brute, abs=0.0)


# (2.5, 1000), (2.5, 5000), (3.0, 5000), (3.0, 20000) and (4.0, 1000) were
# cases where a best-first heap ranked by running sums returned a K-th value
# up to 1.6e-15 too large
@pytest.mark.parametrize("T", [1.9, 2.0, 2.5, 3.0, 3.5, 3.8, 4.0])
def test_lowest_k_is_bitwise_the_brute_force_prefix(T):
    theta = two_step_theta_sp(ChainParams(half_length=9), drive(T))
    brute = np.sort(theta[np.array(list(combinations(range(18), 9)))].sum(axis=1))
    for k in (100, 1000, 5000, 20_000, comb(18, 9)):
        assert np.array_equal(lowest_k_free_spectrum(theta, 9, k), brute[:k])


@pytest.mark.parametrize("filling", [1, 3, 5, 13, 17])
def test_lowest_k_off_half_filling_is_bitwise_the_brute_force_prefix(filling):
    theta = two_step_theta_sp(ChainParams(half_length=9), drive(3.0))
    brute = np.sort(theta[np.array(list(combinations(range(18), filling)))].sum(axis=1))
    for k in {1, min(100, len(brute)), len(brute) // 3, len(brute)}:
        assert np.array_equal(lowest_k_free_spectrum(theta, filling, k), brute[:k])


def test_lowest_k_at_a_degenerate_fermi_level():
    # theta[N-1] = theta[N]: the lowest excitation costs 0, so the search starts at t = 0
    theta = np.sort(np.random.RandomState(5).uniform(-1.0, 1.0, 12))
    theta[6] = theta[5]
    brute = np.sort([theta[list(c)].sum() for c in combinations(range(12), 6)])
    for k in (1, 2, 3, 50, len(brute)):
        assert np.array_equal(lowest_k_free_spectrum(theta, 6, k), brute[:k])


def test_lowest_k_range_guard():
    with pytest.raises(KOutOfRange):
        lowest_k_free_spectrum(np.arange(6.0), 3, 21)
    with pytest.raises(KOutOfRange):
        lowest_k_free_spectrum(np.arange(6.0), 3, 0)


def test_two_step_theta_sp_rejects_no_click_drive():
    # eigh would read only one triangle of the non-Hermitian h(1.5) and drop
    # its gain/loss terms
    nh = DriveSpec(DriveFamily.NON_HERMITIAN_TWO_STEP, period=2.0, lam=1.5)
    with pytest.raises(ValueError, match="Hermitian"):
        two_step_theta_sp(ChainParams(half_length=4), nh)


def _schur_basis(u, h_avg):
    """Floquet eigenbasis from the complex Schur of the normal matrix u (the oracle).

    Eigenphases within 1e-10, across the +-pi cut too, form one cluster;
    inside each the basis is rotated to diagonalise the projected h_avg.
    Returns the basis, its average energies and the eigenvalues of u.
    """
    t, q = schur(u.astype(complex), output="complex")
    phases = np.angle(np.diag(t))
    order = np.argsort(phases, kind="stable")
    psi = np.ascontiguousarray(q[:, order])
    phases = phases[order]
    groups = np.split(np.arange(len(phases)), np.flatnonzero(np.diff(phases) > 1e-10) + 1)
    if len(groups) > 1 and phases[0] + 2 * np.pi - phases[-1] <= 1e-10:
        groups[0] = np.concatenate([groups.pop(), groups[0]])
    h_psi = h_avg @ psi
    theta = np.real(np.sum(psi.conj() * h_psi, axis=0))
    for idx in groups:
        if len(idx) > 1:
            proj = psi[:, idx].conj().T @ h_psi[:, idx]
            pw, pv = np.linalg.eigh(0.5 * (proj + proj.conj().T))
            psi[:, idx] = psi[:, idx] @ pv
            theta[idx] = pw
    return psi, theta, np.exp(1j * phases)


def _schur_table(params, d, filling):
    """The sector table from the complex Schur of floquet_unitary_mb (the oracle)."""
    h_avg = 0.5 * (
        build_sector_hamiltonian(params, 1.0, filling).matrix
        + build_sector_hamiltonian(params, d.lam, filling).matrix
    )
    psi, theta, ev = _schur_basis(floquet_unitary_mb(params, d, filling).matrix, h_avg)
    weight = np.abs(psi.conj().T @ np.linalg.eigh(h_avg)[1][:, 0]) ** 2
    return -np.angle(ev) / d.period, theta, weight


def _schur_single_particle(params, d):
    """Sorted single-particle theta and the free determinant weight from the Schur oracle."""
    h_avg = 0.5 * (single_particle_hamiltonian(params, 1.0) + single_particle_hamiltonian(params, d.lam))
    psi, theta, _ = _schur_basis(two_step_propagator(params, d).matrix, h_avg)
    L = params.half_length
    order = np.argsort(theta, kind="stable")
    if theta[order[L]] - theta[order[L - 1]] <= 1e-10:
        return np.sort(theta), None
    overlap = psi[:, order[:L]].conj().T @ np.linalg.eigh(h_avg)[1][:, :L]
    return np.sort(theta), abs(np.linalg.det(overlap)) ** 2


_SP_CASES = [
    (L, lam, T) for L in (4, 25) for lam in (-0.3, 0.0, 0.5, 1.0) for T in (2.0, 2.8, 3.5, 3.559, 4.0)
] + [(200, 0.5, 2.8), (200, 0.5, 3.5)]


@pytest.mark.parametrize("L, lam, T", _SP_CASES)
def test_single_particle_routes_match_schur_oracle(L, lam, T):
    params = ChainParams(half_length=L)
    d = drive(T, lam)
    theta, weight = _schur_single_particle(params, d)
    assert np.max(np.abs(two_step_theta_sp(params, d) - theta)) < 1e-10
    if weight is None:
        with pytest.raises(DegenerateMinimalState):
            free_ground_state_weight(params, d)
    elif weight > 1e-6:
        assert abs(free_ground_state_weight(params, d) - weight) < 1e-10


@pytest.mark.parametrize("delta", [0.0, 0.1])
@pytest.mark.parametrize("L", [4, 5])
def test_average_energy_table_matches_schur_oracle(L, delta):
    # inside a subspace of equal (quasienergy, theta) the per-state weights are
    # a basis choice, for either route; only their sum is compared there
    params = ChainParams(half_length=L, delta=delta)
    for T in (2.0, 2.8, 3.5, 4.0):
        table = average_energy_spectrum_mb(params, drive(T), L)
        q, theta, weight = _schur_table(params, drive(T), L)
        assert np.max(np.abs(table.theta - np.sort(theta))) < 1e-8
        assert abs(table.ground_state_weight - weight[np.argmin(theta)]) < 1e-10
        period = 2 * np.pi / T
        dq = np.abs((table.quasienergy[:, None] - q[None, :] + period / 2) % period - period / 2)
        same = (dq < 1e-9) & (np.abs(table.theta[:, None] - theta[None, :]) < 1e-7)
        for n in range(len(theta)):
            ours = np.flatnonzero((same == same[n]).all(axis=1))
            theirs = np.flatnonzero(same[n])
            assert len(ours) == len(theirs)
            assert np.min(dq[n, theirs]) < 1e-12
            assert abs(table.weight[ours].sum() - weight[theirs].sum()) < 1e-10


def test_orthogonal_eigh_splits_planted_phase_collision():
    # phases phi and 2 atan(c) - phi share one eigenvalue of Re K + c Im K
    rng = np.random.default_rng(11)
    n = 12
    o, _ = np.linalg.qr(rng.standard_normal((n, n)))
    phases = np.linspace(-3.0, 3.0, n) + rng.uniform(-0.1, 0.1, n)
    phases[1] = 2 * np.arctan(manybody_ed._TWIST) - phases[0]
    mix = np.cos(phases) + manybody_ed._TWIST * np.sin(phases)
    assert mix[0] == pytest.approx(mix[1], abs=1e-15)
    k = (o * np.exp(1j * phases)) @ o.T
    basis, lam = manybody_ed._orthogonal_eigh(k.real.copy(), k.imag.copy())
    for j in (0, 1):
        found = np.argmin(np.abs(lam - np.exp(1j * phases[j])))
        assert abs(lam[found] - np.exp(1j * phases[j])) < 1e-12
        vec = basis[:, found]
        assert min(np.max(np.abs(vec - o[:, j])), np.max(np.abs(vec + o[:, j]))) < 1e-12


def test_average_energy_table_rejects_no_click_drive():
    no_click = DriveSpec(DriveFamily.NON_HERMITIAN_TWO_STEP, period=2.0, lam=1.5)
    with pytest.raises(NonNormalUnitary):
        average_energy_spectrum_mb(ChainParams(half_length=3), no_click, 3)


def test_average_energy_table_rejects_harmonic_drive():
    # a harmonic DriveSpec has lam = 1 and must not get the two-step table
    harmonic = DriveSpec(DriveFamily.HARMONIC, period=2.0)
    with pytest.raises(ValueError):
        average_energy_spectrum_mb(ChainParams(half_length=3), harmonic, 3)


def test_no_click_table_raises_before_building_the_sector(monkeypatch):
    def build(*args):
        raise AssertionError("the no-click table built a sector matrix")

    monkeypatch.setattr(manybody_ed, "build_sector_hamiltonian", build)
    no_click = DriveSpec(DriveFamily.NON_HERMITIAN_TWO_STEP, period=2.0, lam=1.5)
    with pytest.raises(NonNormalUnitary):
        average_energy_spectrum_mb(ChainParams(half_length=3), no_click, 3)


def test_sector_builders_reject_no_click_lambda_before_the_sector(monkeypatch):
    def basis(*args):
        raise AssertionError("a sector was enumerated for lam > 1")

    monkeypatch.setattr(manybody_ed, "sector_basis", basis)
    params = ChainParams(half_length=3)
    with pytest.raises(ValueError):
        build_sector_hamiltonian(params, 1.5, 3)
    no_click = DriveSpec(DriveFamily.NON_HERMITIAN_TWO_STEP, period=2.0, lam=1.5)
    with pytest.raises(ValueError):
        floquet_unitary_mb(params, no_click, 3)


def test_no_floqimp_module_binds_the_complex_schur():
    # the complex Schur is the test oracle only; production runs real eigh
    modules = [floqimp] + [
        importlib.import_module(f"floqimp.{info.name}") for info in pkgutil.iter_modules(floqimp.__path__)
    ]
    for mod in modules:
        bound = [name for name, value in vars(mod).items() if value is scipy.linalg.schur]
        assert not bound, f"{mod.__name__} binds scipy.linalg.schur as {bound}"


def test_average_energy_table_aligns_a_shared_phase_to_theta():
    # lam = 1 gives U = exp(-i H T) and h_avg = H.  At T = 2 pi / (E2 - E0)
    # the ground state shares its eigenphase with the degenerate pair E2 = E3,
    # and only the h_avg alignment puts its whole weight on the minimal-theta
    # state
    params = ChainParams(half_length=2)
    energies = np.linalg.eigvalsh(build_sector_hamiltonian(params, 1.0, 2).matrix)
    assert energies[3] - energies[2] < 1e-12 < energies[2] - energies[1]
    T = 2 * np.pi / (energies[2] - energies[0])
    table = average_energy_spectrum_mb(params, drive(T, lam=1.0), 2)
    assert table.theta == pytest.approx(energies, abs=1e-10)
    assert table.ground_state_weight == pytest.approx(1.0, abs=1e-10)


def test_average_energy_table_free_theta_where_eigh_mixes_states():
    # at T = 3.559 the real eigh alone mixes two states of close
    # Re K + c Im K eigenvalues and shifts a theta by 1.6e-10; the
    # first-order rotation brings it back to rounding level
    params = ChainParams(half_length=6)
    d = drive(3.559)
    table = average_energy_spectrum_mb(params, d, 6)
    sums = np.sort([sum(c) for c in combinations(two_step_theta_sp(params, d), 6)])
    assert np.max(np.abs(table.theta - sums)) < 1e-11
    assert abs(table.ground_state_weight - free_ground_state_weight(params, d)) < 1e-11


def _one_block_table(params, d, filling):
    """Today's one-block sector table: the whole sector, ground state of h_avg by full eigh (the oracle)."""
    phases, theta, z = manybody_ed._hermitian_spectrum(
        lambda lam: build_sector_hamiltonian(params, lam, filling).matrix,
        d.lam,
        d.period / 2.0,
        lambda h_avg: np.linalg.eigh(h_avg)[1][:, :1],
    )
    order = np.argsort(theta, kind="stable")
    return -phases[order] / d.period, theta[order], np.abs(z[order, 0]) ** 2


def _s_matrix(L):
    """S = particle-hole x mirror on the half-filled sector, by brute force over the bitmasks."""
    n = 2 * L
    states = sector_basis(n, L).states
    index = {s: i for i, s in enumerate(states)}
    partner = [index[(2**n - 1) ^ int(format(s, f"0{n}b")[::-1], 2)] for s in states]
    s_mat = np.zeros((len(states), len(states)))
    s_mat[partner, np.arange(len(states))] = 1.0
    return s_mat


def _lowest_parities(h_avg, s_mat):
    """The two lowest levels of h_avg and the S eigenvalues of the span of their states."""
    e, v = np.linalg.eigh(h_avg)
    return e[:2], np.linalg.eigvalsh(v[:, :2].T @ s_mat @ v[:, :2])


def _sector_h_avg(params, lam, L):
    return 0.5 * (
        build_sector_hamiltonian(params, 1.0, L).matrix + build_sector_hamiltonian(params, lam, L).matrix
    )


@pytest.mark.parametrize("L", [3, 4, 5, 6])
def test_particle_hole_mirror_is_a_free_sector_symmetry(L):
    s_mat = _s_matrix(L)
    assert np.array_equal(s_mat @ s_mat, np.eye(len(s_mat)))
    for lam in (1.0, 0.5, -0.3, 0.0):
        h = build_sector_hamiltonian(ChainParams(half_length=L), lam, L).matrix
        assert np.array_equal(s_mat.T @ h @ s_mat, h)
        h = build_sector_hamiltonian(ChainParams(half_length=L, delta=0.1), lam, L).matrix
        assert np.max(np.abs(s_mat.T @ h @ s_mat - h)) == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("L", [4, 5, 6])
def test_split_free_table_matches_one_block_route(L):
    params = ChainParams(half_length=L)
    s_mat = _s_matrix(L)
    n_fixed = int(np.trace(s_mat))
    for T, lam in ((2.0, 0.5), (2.8, -0.3), (3.5, 0.5), (4.0, 0.0)):
        d = drive(T, lam)
        table = average_energy_spectrum_mb(params, d, L)
        q, theta, weight = _one_block_table(params, d, L)
        assert np.max(np.abs(table.theta - theta)) < 1e-10
        for f in (np.cos, np.sin):
            assert np.max(np.abs(np.sort(f(table.quasienergy * T)) - np.sort(f(q * T)))) < 1e-10
        assert abs(table.ground_state_weight - weight[0]) < 1e-10
        assert table.weight.sum() == pytest.approx(1.0, abs=1e-10)
        # the ground state of h_avg is even or odd under S; the other block's weights are exactly 0
        parity = _lowest_parities(_sector_h_avg(params, lam, L), s_mat)[1][0]
        other = (len(s_mat) - n_fixed) // 2 if parity > 0 else (len(s_mat) + n_fixed) // 2
        assert np.count_nonzero(table.weight == 0.0) == other


def test_degenerate_ground_state_in_one_block_raises():
    # lam = -1 at odd L: both half-chains have a zero mode, and the two
    # half-filled ground states share one S parity
    L = 5
    params = ChainParams(half_length=L)
    e, parity = _lowest_parities(_sector_h_avg(params, -1.0, L), _s_matrix(L))
    assert e[1] - e[0] < 1e-12
    assert parity[0] == pytest.approx(parity[1], abs=1e-12)
    with pytest.raises(DegenerateFermiLevel):
        average_energy_spectrum_mb(params, drive(2.0, lam=-1.0), L)


def test_degenerate_ground_state_across_blocks_raises(monkeypatch):
    # adding a S to every H(lam) keeps S a symmetry and moves the even block
    # up by a and the odd block down by a; a is chosen to make the lowest even
    # and lowest odd levels of h_avg meet
    L = 4
    params = ChainParams(half_length=L)
    s_mat = _s_matrix(L)
    h_avg = _sector_h_avg(params, 0.5, L)
    parity, q = np.linalg.eigh(s_mat)
    even, odd = (np.linalg.eigvalsh(b.T @ h_avg @ b)[0] for b in (q[:, parity > 0], q[:, parity < 0]))
    a = 0.5 * (odd - even)
    build = manybody_ed.build_sector_hamiltonian

    def shifted(params, lam, filling):
        op = build(params, lam, filling)
        return manybody_ed.SectorOperator(basis=op.basis, matrix=op.matrix + a * s_mat)

    e, parity = _lowest_parities(h_avg + a * s_mat, s_mat)
    assert e[1] - e[0] < 1e-12
    assert parity == pytest.approx([-1.0, 1.0], abs=1e-12)
    monkeypatch.setattr(manybody_ed, "build_sector_hamiltonian", shifted)
    with pytest.raises(DegenerateFermiLevel):
        average_energy_spectrum_mb(params, drive(2.0), L)


@pytest.mark.parametrize("T", [2.0, 4.0])
def test_lanczos_ground_state_matches_eigh(T, monkeypatch):
    found = []
    lowest_pair = manybody_ed._lowest_pair

    def recorded(h):
        e, v = lowest_pair(h)
        found.append((h.copy(), e, v))
        return e, v

    monkeypatch.setattr(manybody_ed, "_lowest_pair", recorded)
    average_energy_spectrum_mb(ChainParams(half_length=6, delta=0.1), drive(T), 6)
    ((h, e, v),) = found
    w, g = np.linalg.eigh(h)
    assert np.max(np.abs(e - w[:2])) < 1e-12
    assert 1.0 - abs(v[:, 0] @ g[:, 0]) <= 1e-12
    assert np.linalg.norm(h @ v[:, 0] - e[0] * v[:, 0]) <= 1e-12


@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_sector_table_diagonalizes_only_block_sized_matrices(delta, monkeypatch):
    sizes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    L = 5
    average_energy_spectrum_mb(ChainParams(half_length=L, delta=delta), drive(2.8), L)
    dim = comb(2 * L, L)
    if delta == 0:
        assert max(sizes) <= (dim + 2**L) // 2
    else:
        assert sizes.count(dim) == 3
        assert max(sizes) == dim


def _lowest_k_pop_sums(theta_sp, filling, k):
    """The lowest-K loop that sums each popped occupation with numpy (the oracle)."""
    theta = np.sort(np.asarray(theta_sp, dtype=float))
    n = len(theta)
    first = tuple(range(filling))
    first_mask = (1 << filling) - 1
    heap = [(float(theta[:filling].sum()), first_mask, first)]
    seen = {first_mask}
    out = np.empty(k)
    for found in range(k):
        s, mask, combo = heapq.heappop(heap)
        out[found] = theta[list(combo)].sum()
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


def test_lowest_k_is_at_most_the_per_pop_sum():
    # any K occupations sort to values at or above the K smallest sums; the
    # heap's running sums only misrank near-ties, by a few ulps
    theta = two_step_theta_sp(ChainParams(half_length=15), drive(2.0))
    out = lowest_k_free_spectrum(theta, 15, 20_000)
    heap = _lowest_k_pop_sums(theta, 15, 20_000)
    assert np.all(out <= heap)
    assert np.max(heap - out) <= 1e-14
