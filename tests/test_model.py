import numpy as np
import pytest

from floqimp.model import (
    ChainParams,
    DriveFamily,
    DriveSpec,
    bond_matrix,
    harmonic_block,
    impurity_block,
    imbalance_matrix,
    single_particle_hamiltonian,
)
from floqimp import diagnostics, floquet_analytics, gaussian, manybody_ed
from floqimp.floquet_analytics import mirror_operator


def hamiltonian_at(params: ChainParams, drive: DriveSpec, t: float) -> np.ndarray:
    """Instantaneous single-particle Hamiltonian at time t >= 0.

    Two-step families: uniform chain for (t mod T) in [0, T/2), defect at
    strength lam otherwise.  Harmonic: the mirror-rotated uniform chain,
    whose central block is ``harmonic_block(2 pi t / T)``; this is smooth
    in t and equals the uniform chain at t = 0.
    """
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    T = drive.period
    tau = t % T
    if drive.family in (DriveFamily.TWO_STEP, DriveFamily.NON_HERMITIAN_TWO_STEP):
        lam = 1.0 if tau < T / 2.0 else drive.lam
        return single_particle_hamiltonian(params, lam)
    L = params.half_length
    h = single_particle_hamiltonian(params, 1.0)
    h[L - 1 : L + 1, L - 1 : L + 1] = harmonic_block(2.0 * np.pi * tau / T)
    return h


def test_impurity_block_uniform_limit():
    b = impurity_block(1.0)
    assert np.array_equal(b, np.array([[0.0, -0.5], [-0.5, 0.0]], dtype=complex))


def test_impurity_block_decoupled_limit():
    b = impurity_block(0.0)
    assert np.array_equal(b, np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex))


def test_impurity_block_non_hermitian():
    b = impurity_block(1.2)
    d = 0.5 * np.sqrt(0.44)
    assert b[0, 0] == pytest.approx(1j * d)
    assert b[1, 1] == pytest.approx(-1j * d)
    assert b[0, 1] == b[1, 0] == pytest.approx(-0.6)


@pytest.mark.parametrize("lam", [-1.0, -0.3, 0.0, 0.5, 0.99, 1.0])
def test_hamiltonian_exactly_hermitian_in_defect_regime(lam):
    h = single_particle_hamiltonian(ChainParams(half_length=6), lam)
    assert np.array_equal(h, h.conj().T)


def test_uniform_chain_has_no_defect():
    h = single_particle_hamiltonian(ChainParams(half_length=8), 1.0)
    assert np.all(np.diag(h) == 0)
    assert np.all(np.diag(h, k=1) == -0.5)
    assert np.all(np.diag(h, k=-1) == -0.5)


def test_uniform_four_site_spectrum():
    h = single_particle_hamiltonian(ChainParams(half_length=2), 1.0)
    expected = -np.cos(np.arange(1, 5) * np.pi / 5.0)
    assert np.linalg.eigvalsh(h) == pytest.approx(np.sort(expected), abs=1e-12)


def test_decoupled_chains_at_lambda_zero():
    h = single_particle_hamiltonian(ChainParams(half_length=2), 0.0)
    assert h[1, 2] == 0 and h[2, 1] == 0
    assert h[1, 1] == 0.5 and h[2, 2] == -0.5


def test_defect_spectral_range():
    h = single_particle_hamiltonian(ChainParams(half_length=30), 0.5)
    w = np.linalg.eigvalsh(h)
    assert w[0] >= -1.1 and w[-1] <= 1.1


@pytest.mark.parametrize("lam", [1.2, 2.0])
def test_static_pt_real_spectrum(lam):
    h = single_particle_hamiltonian(ChainParams(half_length=50), lam)
    assert np.max(np.abs(np.linalg.eigvals(h).imag)) < 1e-9


def test_bulk_bandwidth_approaches_two():
    w = np.linalg.eigvalsh(single_particle_hamiltonian(ChainParams(half_length=200), 1.0))
    width = w[-1] - w[0]
    assert 1.99 <= width <= 2.0


def test_harmonic_drive_at_time_zero_is_uniform():
    params = ChainParams(half_length=5)
    drive = DriveSpec(DriveFamily.HARMONIC, period=2.5)
    h = hamiltonian_at(params, drive, 0.0)
    assert np.allclose(h, single_particle_hamiltonian(params, 1.0), atol=1e-15)


def test_harmonic_drive_quarter_period_is_pure_imbalance():
    params = ChainParams(half_length=5)
    T = 2.5
    h = hamiltonian_at(params, DriveSpec(DriveFamily.HARMONIC, period=T), T / 4.0)
    L = params.half_length
    assert h[L - 1, L] == pytest.approx(0.0, abs=1e-15)
    assert h[L - 1, L - 1] == pytest.approx(0.5, abs=1e-15)
    assert h[L, L] == pytest.approx(-0.5, abs=1e-15)


def test_harmonic_drive_matches_mirror_rotation():
    # H(t) must equal exp(i pi t/T sigma) H(0) exp(-i pi t/T sigma)
    params = ChainParams(half_length=10)
    T = 2.5
    sig = mirror_operator(params.half_length)
    h0 = single_particle_hamiltonian(params, 1.0)
    eye = np.eye(params.n_sites)
    drive = DriveSpec(DriveFamily.HARMONIC, period=T)
    for t in np.linspace(0.0, 2.0 * T, 17):
        th = np.pi * t / T
        rot = np.cos(th) * eye + 1j * np.sin(th) * sig
        expected = rot @ h0 @ rot.conj().T
        assert np.max(np.abs(hamiltonian_at(params, drive, float(t)) - expected)) < 1e-12


@pytest.mark.parametrize("L", [3, 200])
@pytest.mark.parametrize("lam", [-1.0, -0.3, 0.0, 0.5, 1.0, 1.1, 2.4])
def test_defect_is_the_mirror_rotated_uniform_chain(lam, L):
    # h(lam) = exp(i theta sigma) h(1) exp(-i theta sigma) with cos 2 theta = lam;
    # theta is imaginary for the no-click drive lam > 1
    params = ChainParams(half_length=L)
    th = 0.5 * np.arccos(lam) if lam <= 1 else 0.5j * np.arccosh(lam)
    sig = mirror_operator(L)
    eye = np.eye(params.n_sites)
    rot = np.cos(th) * eye + 1j * np.sin(th) * sig
    rot_inv = np.cos(th) * eye - 1j * np.sin(th) * sig
    h = rot @ single_particle_hamiltonian(params, 1.0) @ rot_inv
    assert np.max(np.abs(h - single_particle_hamiltonian(params, lam))) <= 1e-14


def test_two_step_switches_at_half_period():
    params = ChainParams(half_length=4)
    drive = DriveSpec(DriveFamily.TWO_STEP, period=2.5, lam=0.5)
    h_first = hamiltonian_at(params, drive, 0.1)
    h_second = hamiltonian_at(params, drive, 0.6 * 2.5)
    assert np.allclose(h_first, single_particle_hamiltonian(params, 1.0))
    assert np.allclose(h_second, single_particle_hamiltonian(params, 0.5))
    block = h_second[3:5, 3:5]
    assert np.allclose(block, impurity_block(0.5))


def test_negative_time_rejected():
    params = ChainParams(half_length=4)
    drive = DriveSpec(DriveFamily.TWO_STEP, period=1.0, lam=0.5)
    with pytest.raises(ValueError):
        hamiltonian_at(params, drive, -0.1)


def test_bond_and_imbalance_matrices():
    g = bond_matrix(3)
    o = imbalance_matrix(3)
    assert g[2, 3] == 1 and g[3, 2] == 1 and np.count_nonzero(g) == 2
    assert o[2, 2] == 1 and o[3, 3] == -1 and np.count_nonzero(o) == 2


def test_chain_params_validation():
    with pytest.raises(ValueError):
        ChainParams(half_length=1)


def test_drive_spec_validation():
    with pytest.raises(ValueError):
        DriveSpec(DriveFamily.TWO_STEP, period=0.0, lam=0.5)
    with pytest.raises(ValueError):
        DriveSpec(DriveFamily.TWO_STEP, period=1.0, lam=1.5)
    with pytest.raises(ValueError):
        DriveSpec(DriveFamily.NON_HERMITIAN_TWO_STEP, period=1.0, lam=0.9)
    DriveSpec(DriveFamily.NON_HERMITIAN_TWO_STEP, period=1.0, lam=1.2)
    # the harmonic drive sets its own strength, so any other lam is refused
    for lam in (0.5, -1.0, 1.5):
        with pytest.raises(ValueError):
            DriveSpec(DriveFamily.HARMONIC, period=1.0, lam=lam)
    DriveSpec(DriveFamily.HARMONIC, period=1.0, lam=1.0)


_TWO_STEP = DriveSpec(DriveFamily.TWO_STEP, period=2.5, lam=0.5)
_HARMONIC = DriveSpec(DriveFamily.HARMONIC, period=2.5)
_NO_CLICK = DriveSpec(DriveFamily.NON_HERMITIAN_TWO_STEP, period=2.5, lam=1.5)
FREE_ENTRY_POINTS = {
    "single_particle_hamiltonian": lambda p: single_particle_hamiltonian(p, 0.5),
    "uniform_eigh": gaussian.uniform_eigh,
    "half_filled_ground_state": gaussian.half_filled_ground_state,
    "two_step_factors": lambda p: gaussian.two_step_factors(p, _TWO_STEP),
    "two_step_propagator": lambda p: gaussian.two_step_propagator(p, _NO_CLICK),
    "harmonic_propagator": lambda p: gaussian.harmonic_propagator(p, 2.5),
    "midpoint_propagator": lambda p: gaussian.midpoint_propagator(p, 2.5, 8),
    "build_propagator": lambda p: gaussian.build_propagator(p, _HARMONIC),
    "floquet_hamiltonian_exact": lambda p: floquet_analytics.floquet_hamiltonian_exact(p, 2.5),
    "harmonic_chain": lambda p: floquet_analytics.harmonic_chain(p, 2.5),
    "quasienergy_gap": lambda p: floquet_analytics.quasienergy_gap(p, 2.5),
    "characteristic_roots": lambda p: floquet_analytics.characteristic_roots(p, 2.5),
    "root_average_energies": lambda p: floquet_analytics.root_average_energies(
        p, 2.5, floquet_analytics.characteristic_roots(ChainParams(p.half_length), 2.5)
    ),
    "sw_effective_hamiltonian": lambda p: floquet_analytics.sw_effective_hamiltonian(p, 0.5),
    "kato_hamiltonian_sp": lambda p: floquet_analytics.kato_hamiltonian_sp(p, 2.5),
    "two_step_theta_sp": lambda p: manybody_ed.two_step_theta_sp(p, _TWO_STEP),
    "free_ground_state_weight": lambda p: manybody_ed.free_ground_state_weight(p, _TWO_STEP),
    "stroboscopic_states": lambda p: next(diagnostics.stroboscopic_states(p, 2.5, (), 1)),
    "half_chain_series": lambda p: diagnostics.half_chain_series(p, _TWO_STEP, 2),
    "half_chain_series-harmonic": lambda p: diagnostics.half_chain_series(p, _HARMONIC, 2),
    "pt_classify": lambda p: diagnostics.pt_classify(p, _NO_CLICK),
    "phase_diagram": lambda p: diagnostics.phase_diagram(p, np.array([2.5]), np.array([1.5])),
    "pt_boundary": lambda p: diagnostics.pt_boundary(p, [1.5], np.array([2.5, 3.0])),
    "gap_curve": lambda p: diagnostics.gap_curve(p, np.array([2.5])),
    "gap_curve-two-step": lambda p: diagnostics.gap_curve(p, np.array([2.5]), DriveFamily.TWO_STEP, 0.5),
}


@pytest.mark.parametrize("entry", FREE_ENTRY_POINTS.values(), ids=FREE_ENTRY_POINTS.keys())
def test_free_routes_reject_delta(entry):
    # the single-particle routes are free fermions: a coupling they cannot
    # apply is refused, not dropped; the sector routes keep accepting delta
    entry(ChainParams(half_length=4))
    with pytest.raises(ValueError, match="delta"):
        entry(ChainParams(half_length=4, delta=0.3))
