import numpy as np
import pytest
import scipy.linalg

from floqimp import cli, diagnostics, gaussian
from floqimp.model import ChainParams, DriveFamily, DriveSpec, harmonic_block, single_particle_hamiltonian
from floqimp.gaussian import (
    DegenerateFermiLevel,
    GaussianState,
    NonUnitaryPropagator,
    Propagator,
    RankDeficient,
    entanglement_entropy,
    entanglement_profile,
    evolve,
    half_chain_entropy,
    half_filled_ground_state,
    harmonic_propagator,
    midpoint_propagator,
    two_step_propagator,
)
from floqimp.floquet_analytics import floquet_hamiltonian_exact


def uniform_h(L):
    return single_particle_hamiltonian(ChainParams(half_length=L), 1.0)


def ground_state(h, filling):
    """The lowest ``filling`` orbitals of the Hermitian h, largest component real positive.

    Raises DegenerateFermiLevel when the highest filled and lowest empty
    levels are closer than 1e-12.
    """
    w, v = np.linalg.eigh(h)
    if 0 < filling < len(w) and w[filling] - w[filling - 1] < 1e-12:
        raise DegenerateFermiLevel(f"levels {filling} and {filling + 1} are degenerate")
    return GaussianState(orbitals=gaussian._fix_phases(v[:, :filling]))


def symmetrized_two_step(params, drive):
    """K = exp(-i h(1) T/4) exp(-i h(lam) T/2) exp(-i h(1) T/4), in full.

    K = Q U Q^-1 with Q = exp(-i h(1) T/4) and U the two-step period, so both
    share one spectrum.  Splitting the uniform half keeps the drive's
    antiunitary symmetry on K: conj(K) = K^-1 for |lam| <= 1, and
    P conj(K) P = K^-1 for lam > 1.  ``diagnostics.two_step_mu`` reads an
    L x L block of it from three real parts built in the mirror sectors of
    h(1) (``diagnostics.period_factors``), forming neither K nor Q and E.
    """
    eig = gaussian.uniform_eigh(params)
    quarter, half = (gaussian.uniform_exponential(eig, f * drive.period) for f in (0.25, 0.5))
    return quarter @ gaussian.mirror_rotation(half, drive.lam) @ quarter


def test_ground_state_four_sites_site_occupation():
    # half-filled open chain is particle-hole symmetric: <n_j> = 1/2 exactly
    state = ground_state(uniform_h(2), 2)
    c = state.correlation_matrix()
    assert np.max(np.abs(np.diag(c).real - 0.5)) < 1e-12
    assert np.trace(c).real == pytest.approx(2.0, abs=1e-12)
    # independent oracle: fill the two lowest analytic standing waves
    k = np.arange(1, 5)
    modes = np.sqrt(2.0 / 5.0) * np.sin(np.outer(np.arange(1, 5), k[:2] * np.pi / 5.0))
    c_oracle = modes @ modes.T
    assert np.max(np.abs(c - c_oracle)) < 1e-12


def test_ground_state_empty():
    state = ground_state(uniform_h(3), 0)
    assert state.filling == 0
    assert np.array_equal(state.correlation_matrix(), np.zeros((6, 6), dtype=complex))


def test_ground_state_correlation_invariants():
    state = half_filled_ground_state(ChainParams(half_length=20))
    c = state.correlation_matrix()
    assert np.max(np.abs(c - c.conj().T)) < 1e-12
    assert np.max(np.abs(c @ c - c)) < 1e-9
    g = state.orbitals.conj().T @ state.orbitals
    assert np.max(np.abs(g - np.eye(20))) < 1e-10


def test_ground_state_degenerate_fermi_level():
    h = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
    with pytest.raises(DegenerateFermiLevel):
        ground_state(h, 2)


def test_ground_state_phase_fixing_deterministic():
    h = uniform_h(10)
    a = ground_state(h, 10).orbitals
    b = ground_state(h, 10).orbitals
    assert np.array_equal(a, b)
    lead = np.abs(a).argmax(axis=0)
    lead_vals = a[lead, np.arange(a.shape[1])]
    assert np.all(lead_vals.imag == 0) and np.all(lead_vals.real > 0)


def test_half_chain_entropy_log_scaling():
    # central-cut entropy of the critical ground state grows as (1/6) ln(2L)
    sizes = [50, 100, 200]
    ents = []
    for L in sizes:
        ents.append(half_chain_entropy(half_filled_ground_state(ChainParams(half_length=L))))
    slope = np.polyfit(np.log(np.array(sizes) * 2.0), ents, 1)[0]
    assert 0.13 < slope < 0.20


def test_two_step_propagator_uniform_limit():
    params = ChainParams(half_length=10)
    T = 1.7
    drive = DriveSpec(DriveFamily.TWO_STEP, period=T, lam=1.0)
    u = two_step_propagator(params, drive).matrix
    h = single_particle_hamiltonian(params, 1.0)
    w, v = np.linalg.eigh(h)
    expected = (v * np.exp(-1j * w * T)) @ v.conj().T
    assert np.max(np.abs(u - expected)) < 1e-12


def test_two_step_propagator_short_period_limit():
    params = ChainParams(half_length=8)
    T = 1e-4
    drive = DriveSpec(DriveFamily.TWO_STEP, period=T, lam=0.5)
    u = two_step_propagator(params, drive).matrix
    h0 = single_particle_hamiltonian(params, 1.0)
    h1 = single_particle_hamiltonian(params, 0.5)
    bound = T * (np.linalg.norm(h0, 2) + np.linalg.norm(h1, 2)) / 2.0 + 10 * T * T
    assert np.max(np.abs(u - np.eye(16))) <= bound


def test_two_step_propagator_unitary_at_figure_scale():
    params = ChainParams(half_length=200)
    drive = DriveSpec(DriveFamily.TWO_STEP, period=2.5, lam=0.5)
    prop = two_step_propagator(params, drive)
    assert prop.unitary
    assert np.max(np.abs(np.abs(np.linalg.eigvals(prop.matrix)) - 1.0)) < 1e-10


def test_harmonic_propagator_single_step_definition():
    params = ChainParams(half_length=6)
    T = 1.3
    u = midpoint_propagator(params, T, 1).matrix
    # the drive at the midpoint t = T/2 (phase pi)
    h = uniform_h(6)
    h[5:7, 5:7] = harmonic_block(np.pi)
    w, v = np.linalg.eigh(h)
    expected = (v * np.exp(-1j * w * T)) @ v.conj().T
    assert np.max(np.abs(u - expected)) < 1e-13


def test_harmonic_propagator_second_order_convergence():
    params = ChainParams(half_length=10)
    T = 2.5
    hf = floquet_hamiltonian_exact(params, T)
    w, v = np.linalg.eigh(hf)
    exact = (v * np.exp(-1j * w * T)) @ v.conj().T
    errs = [
        np.max(np.abs(midpoint_propagator(params, T, n).matrix - exact))
        for n in (64, 128, 256)
    ]
    for e1, e2 in zip(errs, errs[1:]):
        assert 3.5 < e1 / e2 < 4.5


def test_harmonic_stroboscopic_entropy_converges_second_order():
    # entanglement profile from the midpoint product approaches the profile
    # evolved with the closed-form one-period exponential at rate (T/n_sub)^2
    params = ChainParams(half_length=20)
    T = 2.5
    hf = floquet_hamiltonian_exact(params, T)
    w, v = np.linalg.eigh(hf)
    exact = Propagator(matrix=(v * np.exp(-1j * w * T)) @ v.conj().T, unitary=True)
    state0 = half_filled_ground_state(params)
    ref = state0
    for _ in range(5):
        ref = evolve(ref, exact)
    ref_prof = entanglement_profile(ref).entropies
    errs = []
    for n_sub in (16, 32, 64):
        st = state0
        prop = midpoint_propagator(params, T, n_sub)
        for _ in range(5):
            st = evolve(st, prop)
        errs.append(np.max(np.abs(entanglement_profile(st).entropies - ref_prof)))
    for e1, e2 in zip(errs, errs[1:]):
        assert 3.0 < e1 / e2 < 5.0


def test_evolve_identity_keeps_state():
    state = half_filled_ground_state(ChainParams(half_length=6))
    prop = Propagator(matrix=np.eye(12, dtype=complex), unitary=True)
    out = evolve(state, prop)
    assert np.array_equal(out.orbitals, state.orbitals)


def test_gaussian_state_rejects_non_orthonormal_orbitals():
    phi = np.eye(6, 3, dtype=complex)
    phi[0, 1] = 1e-6
    with pytest.raises(ValueError, match="orthonormal"):
        GaussianState(orbitals=phi)


@pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2)])
def test_propagator_rejects_non_square_matrix(shape):
    with pytest.raises(ValueError, match="square"):
        Propagator(matrix=np.ones(shape, dtype=complex), unitary=False)


def test_unitary_flag_is_checked_at_construction():
    with pytest.raises(NonUnitaryPropagator):
        Propagator(matrix=2.0 * np.eye(8, dtype=complex), unitary=True)
    Propagator(matrix=2.0 * np.eye(8, dtype=complex), unitary=False)


def test_windowed_unitarity_check_sees_entries_off_the_light_cone():
    # the check sums U^dagger U over the windows; an entry far outside the
    # light cone widens its block's window, so the check still sees it
    u = two_step_propagator(WINDOW_PARAMS, DriveSpec(DriveFamily.TWO_STEP, period=2.5, lam=0.5)).matrix.copy()
    u[0, 199] += 1e-6
    with pytest.raises(NonUnitaryPropagator):
        Propagator(matrix=u, unitary=True)


def test_non_unitary_propagator_is_a_cli_model_error(capsys, monkeypatch):
    assert NonUnitaryPropagator in cli._MODEL_ERRORS
    def doubled(eig, t):
        return 2.0 * np.eye(len(eig[0]), dtype=complex)

    monkeypatch.setattr(gaussian, "uniform_exponential", doubled)
    code = cli.main(["evolve", "--family", "two-step", "--L", "4", "--T", "2.5", "--cycles", "2", "--out", "-"])
    assert code == 3 and "NonUnitaryPropagator" in capsys.readouterr().err


WINDOW_PARAMS = ChainParams(half_length=100)


@pytest.mark.parametrize(
    "make",
    [
        lambda: two_step_propagator(WINDOW_PARAMS, DriveSpec(DriveFamily.TWO_STEP, period=2.5, lam=0.5)),
        lambda: two_step_propagator(
            WINDOW_PARAMS, DriveSpec(DriveFamily.NON_HERMITIAN_TWO_STEP, period=2.5, lam=1.2)
        ),
        lambda: harmonic_propagator(WINDOW_PARAMS, 4.2),
        lambda: Propagator(matrix=np.eye(200, dtype=complex), unitary=True),
    ],
    ids=["two-step", "no-click", "harmonic", "identity"],
)
def test_windowed_evolve_matches_dense_product(make):
    prop = make()
    state = half_filled_ground_state(WINDOW_PARAMS)
    dense = prop.matrix @ state.orbitals
    if prop.unitary:
        assert np.max(np.abs(evolve(state, prop).orbitals - dense)) < 1e-13
        return
    q, _ = np.linalg.qr(dense)
    c = evolve(state, prop).correlation_matrix()
    assert np.max(np.abs(c - q @ q.conj().T)) < 1e-13


@pytest.mark.parametrize(
    "T, lam",
    [(2.3, 0.5), (4.4, 0.5), (3.0, -0.3), (3.0, 0.0), (3.0, 2.4)],
    ids=["2.3", "4.4", "3.0-lam-0.3", "3.0-lam0", "3.0-lam2.4"],
)
def test_two_step_windows_follow_the_light_cone(T, lam):
    family = DriveFamily.NON_HERMITIAN_TWO_STEP if lam > 1 else DriveFamily.TWO_STEP
    prop = two_step_propagator(ChainParams(half_length=200), DriveSpec(family, period=T, lam=lam))
    assert [r for r0, r1, _, _ in prop.windows for r in range(r0, r1)] == list(range(400))
    assert max(hi - lo for _, _, lo, hi in prop.windows) <= 100
    outside = np.abs(prop.matrix)
    for r0, r1, lo, hi in prop.windows:
        outside[r0:r1, lo:hi] = 0.0
    assert outside.max() <= 1e-15 * np.abs(prop.matrix).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_propagator_keeps_full_windows(bad):
    u = np.eye(60, dtype=complex)
    u[0, 0] = bad
    assert Propagator(matrix=u, unitary=False).windows == ((0, 25, 0, 60), (25, 50, 0, 60), (50, 60, 0, 60))


def test_evolve_unitary_preserves_orthonormality_without_qr():
    params = ChainParams(half_length=30)
    prop = two_step_propagator(params, DriveSpec(DriveFamily.TWO_STEP, period=2.5, lam=0.5))
    state = evolve(half_filled_ground_state(params), prop)
    g = state.orbitals.conj().T @ state.orbitals
    assert np.max(np.abs(g - np.eye(30))) < 1e-10


def test_evolve_rank_deficient_raises():
    decay = np.diag(np.exp(-200.0 * np.arange(8)).astype(complex))
    prop = Propagator(matrix=decay, unitary=False)
    state = ground_state(uniform_h(4), 4)
    with pytest.raises(RankDeficient):
        evolve(state, prop)


def test_nonhermitian_no_click_entropy_stays_bounded():
    params = ChainParams(half_length=50)
    drive = DriveSpec(DriveFamily.NON_HERMITIAN_TWO_STEP, period=2.5, lam=1.2)
    prop = two_step_propagator(params, drive)
    state = half_filled_ground_state(params)
    s0 = half_chain_entropy(state)
    for _ in range(100):
        state = evolve(state, prop)
        g = state.orbitals.conj().T @ state.orbitals
        assert np.max(np.abs(g - np.eye(50))) < 1e-10
    assert half_chain_entropy(state) < s0 + 2.5


def test_entropy_product_state_is_zero():
    phi = np.zeros((6, 3), dtype=complex)
    phi[0, 0] = phi[2, 1] = phi[5, 2] = 1.0
    state = GaussianState(orbitals=phi)
    assert entanglement_entropy(state, (1, 3)) < 1e-12


def test_entropy_single_shared_mode():
    phi = np.full((2, 1), 1.0 / np.sqrt(2.0), dtype=complex)
    state = GaussianState(orbitals=phi)
    assert entanglement_entropy(state, (1, 1)) == pytest.approx(np.log(2.0), abs=1e-12)


def test_entropy_interval_validation():
    state = half_filled_ground_state(ChainParams(half_length=4))
    with pytest.raises(ValueError):
        entanglement_entropy(state, (0, 3))
    with pytest.raises(ValueError):
        entanglement_entropy(state, (3, 9))
    with pytest.raises(ValueError):
        entanglement_entropy(state, (5, 4))


def test_profile_mirror_symmetry_and_peak():
    state = half_filled_ground_state(ChainParams(half_length=200))
    prof = entanglement_profile(state)
    assert np.max(np.abs(prof.entropies - prof.entropies[::-1])) < 1e-9
    # even/odd parity oscillations put the literal argmax on a cut adjacent
    # to the centre; the central value is within the oscillation amplitude
    peak = prof.cuts[np.argmax(prof.entropies)]
    assert abs(int(peak) - 200) <= 1
    assert prof.entropies.max() - prof.entropies[199] < 0.02
    # the bound saturates at the edge cuts (<n> = 1/2), so allow rounding
    page = np.minimum(prof.cuts, 400 - prof.cuts) * np.log(2.0)
    assert np.all(prof.entropies >= 0) and np.all(prof.entropies <= page + 1e-9)


def test_profile_filled_band_is_zero():
    state = ground_state(uniform_h(5), 10)
    prof = entanglement_profile(state)
    assert np.max(prof.entropies) < 1e-10


def test_profile_matches_per_cut_definition():
    state = half_filled_ground_state(ChainParams(half_length=30))
    prof = entanglement_profile(state)
    for cut in (1, 7, 30, 55, 59):
        direct = entanglement_entropy(state, (1, cut))
        assert abs(prof.entropies[cut - 1] - direct) < 1e-9


def test_long_unitary_run_conserves_number_and_purity():
    params = ChainParams(half_length=50)
    prop = two_step_propagator(params, DriveSpec(DriveFamily.TWO_STEP, period=2.5, lam=0.5))
    state = half_filled_ground_state(params)
    for _ in range(1000):
        state = evolve(state, prop)
    c = state.correlation_matrix()
    assert np.trace(c).real == pytest.approx(50.0, abs=1e-9)
    assert np.max(np.abs(c @ c - c)) < 1e-8


def _harmonic_evolved(state, L, T, cycles):
    prop = harmonic_propagator(ChainParams(half_length=L), T)
    for _ in range(cycles):
        state = evolve(state, prop)
    return state


def test_profile_matches_per_cut_definition_evolved_state():
    # the profile diagonalizes the smaller side of each cut; the per-cut
    # definition always takes the left block
    L = 30
    state = _harmonic_evolved(half_filled_ground_state(ChainParams(half_length=L)), L, 4.2, 3)
    assert np.max(np.abs(state.orbitals.imag)) > 1e-3
    prof = entanglement_profile(state)
    direct = [entanglement_entropy(state, (1, int(cut))) for cut in prof.cuts]
    assert np.max(np.abs(prof.entropies - direct)) < 1e-9


def _counting_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def _check_every_cut_diagonalized(state, monkeypatch):
    # a state without D C* D^T = 1 - C takes no mirror copy
    calls = _counting_eigvalsh(monkeypatch)
    prof = entanglement_profile(state)
    assert prof.mirror_deviation > gaussian._MIRROR_TOL
    assert len(calls) == state.n_sites - 1
    direct = [entanglement_entropy(state, (1, int(cut))) for cut in prof.cuts]
    assert np.max(np.abs(prof.entropies - direct)) < 1e-9


@pytest.mark.parametrize("filling", [12, 41])
def test_profile_matches_per_cut_definition_off_half_filling(filling, monkeypatch):
    L = 30
    _check_every_cut_diagonalized(_harmonic_evolved(ground_state(uniform_h(L), filling), L, 2.5, 3), monkeypatch)


def test_profile_of_a_random_half_filled_state_diagonalizes_every_cut(monkeypatch):
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((60, 30)) + 1j * rng.standard_normal((60, 30)))
    _check_every_cut_diagonalized(GaussianState(orbitals=q), monkeypatch)


MIRROR_DRIVES = {
    "two-step": DriveSpec(DriveFamily.TWO_STEP, period=2.5, lam=0.5),
    "harmonic": DriveSpec(DriveFamily.HARMONIC, period=4.2),
    "no-click": DriveSpec(DriveFamily.NON_HERMITIAN_TWO_STEP, period=2.5, lam=1.5),
}


@pytest.fixture(scope="module", params=MIRROR_DRIVES)
def mirror_run(request):
    """Every 25th state of a 300-cycle run at 2L = 400, as the CLI evolves it."""
    params = ChainParams(half_length=200)
    drive = MIRROR_DRIVES[request.param]
    states = diagnostics.stroboscopic_states(params, drive.period, (gaussian.build_propagator(params, drive),), 300)
    return [state for cycle, _, state in states if cycle % 25 == 0]


def test_driven_states_keep_the_particle_hole_mirror_symmetry(mirror_run):
    # (R): D C* D^T = 1 - C with D = P Gamma, as explicit matrices
    n = mirror_run[0].n_sites
    d = np.diag(np.where(np.arange(n) % 2, -1.0, 1.0))[::-1]
    for state in mirror_run:
        c = state.correlation_matrix()
        assert np.max(np.abs(d @ c.conj() @ d.T + c - np.eye(n))) <= 1e-12


def test_mirrored_profile_matches_per_cut_definition(mirror_run, monkeypatch):
    state = mirror_run[-1]
    n = state.n_sites
    L = n // 2
    calls = _counting_eigvalsh(monkeypatch)
    prof = entanglement_profile(state)
    assert prof.mirror_deviation <= gaussian._MIRROR_TOL
    assert len(calls) == L
    # the per-cut definition reads the right block [c+1, 2L] for cut c > L,
    # which the mirrored profile never diagonalizes
    direct = [entanglement_entropy(state, (1, c)) for c in range(1, n)]
    assert np.max(np.abs(prof.entropies - direct)) <= 1e-10


def test_long_prefix_and_suffix_take_their_complement(mirror_run):
    # the block [1, 2L-1] itself holds eigenvalues near 1, where 1 - nu keeps
    # few digits: 7.6e-10 off its complement after 300 harmonic cycles
    state = mirror_run[-1]
    n = state.n_sites
    last, first = entanglement_entropy(state, (n, n)), entanglement_entropy(state, (1, 1))
    assert abs(entanglement_entropy(state, (1, n - 1)) - last) <= 1e-12
    assert abs(entanglement_entropy(state, (2, n)) - first) <= 1e-12
    # the mirror symmetry (R) gives S([1, 2L-1]) = S([1, 1]) by an independent route
    assert abs(entanglement_entropy(state, (1, n - 1)) - first) <= 1e-12


@pytest.mark.parametrize("L", [2, 6, 200])
def test_closed_form_uniform_modes_match_eigh(L):
    params = ChainParams(half_length=L)
    h = single_particle_hamiltonian(params, 1.0).real
    w, v = gaussian.uniform_eigh(params)
    w_ref, v_ref = np.linalg.eigh(h)
    assert np.max(np.abs(w - w_ref)) <= 1e-14
    assert np.max(np.abs(v.T @ v - np.eye(2 * L))) <= 1e-14
    assert np.max(np.abs(h @ v - v * w)) <= 1e-14
    phi = half_filled_ground_state(params).orbitals
    assert phi.dtype == complex
    assert np.max(np.abs(phi @ phi.conj().T - v_ref[:, :L] @ v_ref[:, :L].T)) <= 1e-13
    lead = phi[np.abs(phi).argmax(axis=0), np.arange(L)]
    assert np.all(lead.imag == 0) and np.all(lead.real > 0)


def test_default_harmonic_propagator_is_exp_of_exact_generator():
    from scipy.linalg import expm

    from floqimp.gaussian import build_propagator

    params = ChainParams(half_length=20)
    for T in (0.7, 2.5, 4.2):
        prop = build_propagator(params, DriveSpec(DriveFamily.HARMONIC, period=T))
        exact = expm(-1j * T * floquet_hamiltonian_exact(params, T))
        assert prop.unitary
        assert np.max(np.abs(prop.matrix - exact)) < 1e-12


@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_symmetrized_two_step_is_similar_to_the_period(lam):
    params = ChainParams(half_length=6)
    family = DriveFamily.NON_HERMITIAN_TWO_STEP if lam > 1 else DriveFamily.TWO_STEP
    drive = DriveSpec(family, period=2.7, lam=lam)
    k = symmetrized_two_step(params, drive)
    q = scipy.linalg.expm(-0.25j * 2.7 * uniform_h(6))
    u = two_step_propagator(params, drive).matrix
    assert np.max(np.abs(k @ q - q @ u)) < 1e-12
    # the antiunitary symmetry: conj(K) = K^-1 in the site basis, P conj(K) P = K^-1 with the mirror P
    k_bar = k.conj() if lam <= 1 else k.conj()[::-1, ::-1]
    assert np.max(np.abs(k_bar @ k - np.eye(12))) < 1e-12


@pytest.mark.parametrize("L", [6, 200])
@pytest.mark.parametrize("lam", [-0.3, 0.5, 1.2, 2.4])
def test_two_step_factors_match_pade_of_the_defect(lam, L):
    # the mirror rotation against scipy's Pade exponential of h(lam)
    params = ChainParams(half_length=L)
    family = DriveFamily.NON_HERMITIAN_TWO_STEP if lam > 1 else DriveFamily.TWO_STEP
    T = 3.0
    drive = DriveSpec(family, period=T, lam=lam)
    uniform = scipy.linalg.expm(-0.5j * T * uniform_h(L))
    defect = scipy.linalg.expm(-0.5j * T * single_particle_hamiltonian(params, lam))
    quarter = scipy.linalg.expm(-0.25j * T * uniform_h(L))
    first, second = gaussian.two_step_factors(params, drive)
    assert np.max(np.abs(first.matrix - uniform)) <= 1e-12
    assert np.max(np.abs(second.matrix - defect)) <= 1e-12
    assert np.max(np.abs(two_step_propagator(params, drive).matrix - defect @ uniform)) <= 1e-12
    assert np.max(np.abs(symmetrized_two_step(params, drive) - quarter @ defect @ quarter)) <= 1e-12
