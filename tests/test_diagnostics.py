from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.signal import find_peaks

from floqimp import diagnostics, gaussian
from floqimp.gaussian import Propagator, two_step_propagator, uniform_eigh
from floqimp.model import ChainParams, DriveFamily, DriveSpec
from floqimp.diagnostics import (
    EETimeSeries,
    NoRevivalDetected,
    PhaseLabel,
    WindowTooShort,
    classify_heating,
    count_recurrences,
    gap_curve,
    half_chain_series,
    phase_diagram,
    pt_boundary,
    pt_classify,
    revival_period,
    stroboscopic_states,
    two_step_mu,
)
from test_gaussian import symmetrized_two_step

PARAMS = ChainParams(half_length=4)
DRIVE = DriveSpec(DriveFamily.TWO_STEP, period=2.5, lam=0.5)


def quasiparticle_velocity(delta):
    """Sound velocity of the gapless interacting chain, v = (pi/2) sqrt(1-d^2)/arccos(d), |d| < 1.

    Equals 1 in the free case; revivals of the half-chain entropy recur with
    period 2L / v.
    """
    if delta == 0.0:
        return 1.0
    return float(0.5 * np.pi * np.sqrt(1.0 - delta * delta) / np.arccos(delta))


def series_from(values, T=2.5):
    values = np.asarray(values, dtype=float)
    return EETimeSeries(
        params=PARAMS,
        drive=DriveSpec(DriveFamily.TWO_STEP, period=T, lam=0.5),
        cycles=np.arange(len(values)),
        entropies=values,
    )


def test_constant_series_is_non_heating():
    point = classify_heating(series_from(np.ones(80)))
    assert point.label is PhaseLabel.NON_HEATING
    assert point.score == pytest.approx(0.0, abs=1e-14)


def test_classifier_invariant_under_constant_shift():
    rng = np.random.RandomState(0)
    base = 0.01 * np.cumsum(rng.uniform(0, 1, 90))
    a = classify_heating(series_from(base))
    b = classify_heating(series_from(base + 5.0))
    assert a.score == pytest.approx(b.score, abs=1e-12)
    assert a.label is b.label


def test_classifier_window_guard():
    with pytest.raises(WindowTooShort):
        classify_heating(series_from(np.ones(30)))
    with pytest.raises(WindowTooShort):
        classify_heating(series_from(np.ones(9)), window=(0, 5))


def test_heating_slope_detected():
    point = classify_heating(series_from(0.1 * np.arange(80.0)))
    assert point.label is PhaseLabel.HEATING
    assert point.score == pytest.approx(0.1, abs=1e-12)


def test_revival_period_synthetic():
    t = np.arange(200)
    vals = 1.0 - 0.5 * np.cos(2 * np.pi * t / 50.0)
    tau = revival_period(series_from(vals, T=2.0))
    assert tau == pytest.approx(50 * 2.0, abs=1e-9)


def test_monotone_series_has_no_revival():
    with pytest.raises(NoRevivalDetected):
        revival_period(series_from(np.linspace(0, 1, 100)))


def test_count_recurrences_synthetic():
    vals = np.concatenate(
        [[1.0, 0.6], np.linspace(0.8, 1.4, 60), [0.55], np.linspace(0.9, 1.4, 60), [0.7], [1.2, 1.2]]
    )
    n = count_recurrences(series_from(vals))
    assert n >= 2


def _same_peaks(x, prominence):
    want = find_peaks(x, prominence=prominence)[0]
    got = diagnostics._prominent_peaks(x, prominence)
    assert got.dtype.kind == "i"
    assert np.array_equal(got, want), (x, prominence, got, want)
    return got


@pytest.mark.parametrize("integer_valued", [False, True], ids=["real", "small-int"])
def test_prominent_peaks_match_find_peaks_on_random_series(integer_valued):
    # small integers make plateaus, equal peaks and equal bases common
    rng = np.random.default_rng(7 + integer_valued)
    for _ in range(2000):
        n = int(rng.integers(0, 40))
        x = rng.integers(0, 4, n).astype(float) if integer_valued else rng.normal(size=n)
        for prominence in (0.0, 1.0, 2.0, float(rng.uniform(0.0, 3.0))):
            _same_peaks(x, prominence)


@pytest.mark.parametrize("x", [[], [1.0], [1.0, 2.0], [2.0, 1.0], [0.5] * 9])
def test_prominent_peaks_match_find_peaks_on_short_and_constant_series(x):
    for prominence in (0.0, 0.5):
        assert len(_same_peaks(np.array(x), prominence)) == 0


def test_prominent_peaks_flat_tops_and_ties():
    x = np.array([0.0, 2.0, 2.0, 2.0, 2.0, 1.0, 3.0, 3.0, 0.0, 3.0, 1.0, 1.0, 4.0, 4.0])
    # plateaus count once at their middle, rounded down; a plateau that
    # reaches the border is not a peak; prominences are 1, 3 and 2, and a
    # prominence equal to the threshold is kept
    assert _same_peaks(x, 1.0).tolist() == [2, 6, 9]
    assert _same_peaks(x, 2.0).tolist() == [6, 9]
    assert _same_peaks(x, 2.5).tolist() == [6]


@pytest.fixture(scope="module")
def quench_series():
    params = ChainParams(half_length=200)
    return half_chain_series(params, DriveSpec(DriveFamily.TWO_STEP, period=2.5, lam=0.5), 300)


@pytest.mark.parametrize("rel_prominence", [0.05, 0.2])
def test_prominent_minima_match_find_peaks_on_quench_series(quench_series, rel_prominence):
    # the relative prominences of count_recurrences and revival_period
    ent = quench_series.entropies
    spread = float(ent.max() - ent.min())
    minima = diagnostics._prominent_minima(ent, rel_prominence)
    assert np.array_equal(minima, find_peaks(-ent, prominence=rel_prominence * spread)[0])
    assert len(minima) >= 1


def test_velocity_formula_values():
    assert quasiparticle_velocity(0.0) == 1.0
    assert quasiparticle_velocity(0.5) == pytest.approx(1.5 * np.sqrt(0.75), abs=1e-12)


def test_measured_revival_matches_ballistic_prediction():
    params = ChainParams(half_length=60)
    drv = DriveSpec(DriveFamily.TWO_STEP, period=2.8, lam=0.8)
    ser = half_chain_series(params, drv, 120)
    tau = revival_period(ser)
    assert tau == pytest.approx(params.n_sites / quasiparticle_velocity(params.delta), rel=0.07)


def test_stroboscopic_states_recheck_orthonormality_at_the_last_step():
    u = two_step_propagator(ChainParams(half_length=10), DRIVE).matrix
    # U^dagger U deviates by about 8e-9: accepted as unitary, but the drift
    # grows by that much per cycle and passes 1e-8 after the second
    prop = Propagator(matrix=(1.0 + 4e-9) * u, unitary=True)
    seen = []
    with pytest.raises(ValueError, match="orthonormal"):
        for n, _, _ in stroboscopic_states(ChainParams(half_length=10), DRIVE.period, (prop,), 10):
            seen.append(n)
    assert seen == list(range(10))


def test_pt_hermitian_always_symmetric():
    params = ChainParams(half_length=50)
    for T in (1.0, 2.5, 4.0):
        p = pt_classify(params, DriveSpec(DriveFamily.TWO_STEP, period=T, lam=1.0))
        assert p.label is PhaseLabel.PT_SYMMETRIC
        assert p.score < 1e-10


def test_pt_requires_two_step():
    with pytest.raises(ValueError):
        pt_classify(PARAMS, DriveSpec(DriveFamily.HARMONIC, period=2.0))


@pytest.mark.parametrize("L", [5, 10, 25, 30])
@pytest.mark.parametrize("lam", [-1.0, 0.5, 1.0, 1.1, 1.5, 2.0, 2.4])
def test_pt_score_matches_complex_eigenvalue_moduli(L, lam):
    params = ChainParams(half_length=L)
    for T in (2.0, 2.7, 2.8, 3.5, 4.2):
        drive = diagnostics._drive_for(lam, T)
        u = np.linalg.eigvals(two_step_propagator(params, drive).matrix)
        oracle = float(np.max(np.abs(np.abs(u) - 1.0)))
        point = pt_classify(params, drive)
        assert (point.label is PhaseLabel.PT_SYMMETRIC) == (oracle < 1e-6)
        if point.label is PhaseLabel.PT_BROKEN:
            assert point.score == pytest.approx(oracle, rel=1e-9)
        else:
            assert point.score <= 1e-12


def mu_of(params, drive):
    return two_step_mu(diagnostics.period_factors(uniform_eigh(params), drive.period), drive.lam)


@pytest.mark.parametrize("lam", [-0.3, 0.5, 1.0, 1.2, 2.4])
def test_mu_fold_gives_the_eigenvalues_of_the_period(lam):
    params = ChainParams(half_length=6)
    for T in (1.3, 2.8, 3.9):
        drive = diagnostics._drive_for(lam, T)
        z = np.arccosh(mu_of(params, drive).astype(complex) / 2.0)
        got = np.concatenate([np.exp(z), np.exp(-z)])
        want = np.linalg.eigvals(symmetrized_two_step(params, drive))
        dist = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert np.max(dist[rows, cols]) < 1e-9


@pytest.mark.parametrize("L", [6, 200])
@pytest.mark.parametrize("lam", [-0.3, 0.5, 1.2, 2.4])
def test_staggered_mirror_inverts_the_period(L, lam):
    # C = P Gamma: C K C^-1 = K^-1, the symmetry the mu fold rests on
    c = np.diag((-1.0) ** np.arange(2 * L))[::-1]
    for T in (1.3, 3.9):
        k = symmetrized_two_step(ChainParams(half_length=L), diagnostics._drive_for(lam, T))
        assert np.max(np.abs(c @ k @ c.T - np.linalg.inv(k))) < 1e-12


def full_fold_mu(params, drive):
    """mu from the L x L block of the full M = K + K^-1 (K^-1 by inversion)."""
    k = symmetrized_two_step(params, drive)
    L = params.half_length
    m = k + np.linalg.inv(k)
    s = (-1.0) ** np.arange(L)
    beta = np.exp(0.25j * np.pi * s)
    block = (
        m[:L, :L]
        - 1j * m[:L, L:][:, ::-1] * s
        + 1j * s[:, None] * m[L:, :L][::-1]
        + np.outer(s, s) * m[L:, L:][::-1, ::-1]
    ) * (0.5 * np.outer(beta.conj(), beta))
    if drive.lam > 1:
        return np.linalg.eigvals(block.real)
    return np.clip(np.linalg.eigvalsh(block), -2.0, 2.0)


@pytest.mark.parametrize("L", [6, 200])
def test_mirror_sectors_reproduce_the_blocks_of_the_uniform_exponential(L):
    # O_e = O_AA + O_AB J and O_o = O_AA - O_AB J for the P-symmetric exp(-i h(1) t);
    # both routes round at about 1e-15 at 2L = 400 (entries of modulus <= 1)
    eig = uniform_eigh(ChainParams(half_length=L))
    ve, we, vo, wo = diagnostics._mirror_modes(eig)
    for t in (0.325, 1.4, 1.95, 3.9):
        e = gaussian.uniform_exponential(eig, t)
        e_even, e_odd = ((v * np.exp(-1j * w * t)) @ v.T for v, w in ((ve, we), (vo, wo)))
        assert np.max(np.abs(0.5 * (e_even + e_odd) - e[:L, :L])) < 2e-15
        assert np.max(np.abs(0.5 * (e_even - e_odd) - e[:L, L:][:, ::-1])) < 2e-15


@pytest.mark.parametrize("L", [6, 200])
def test_period_parts_are_real_symmetric_and_antisymmetric(L):
    eig = uniform_eigh(ChainParams(half_length=L))
    for T in (1.3, 2.8, 3.9):
        m0, m1, a = diagnostics.period_factors(eig, T)
        assert all(x.dtype == np.float64 and x.shape == (L, L) for x in (m0, m1, a))
        for x, sign in ((m0, 1.0), (m1, 1.0), (a, -1.0)):
            assert np.max(np.abs(x - sign * x.T)) <= 1e-14 * np.linalg.norm(x, 2)


@pytest.mark.parametrize("L", [6, 200])
@pytest.mark.parametrize("lam", [-1.0, -0.3, 0.0, 0.5, 1.0, 1.1, 1.5, 2.4])
def test_mu_from_the_period_parts_matches_the_full_fold(L, lam):
    params = ChainParams(half_length=L)
    eig = uniform_eigh(params)
    for T in (1.3, 2.8, 3.9):
        drive = diagnostics._drive_for(lam, T)
        got, want = two_step_mu(diagnostics.period_factors(eig, T), lam), full_fold_mu(params, drive)
        dist = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert np.max(dist[rows, cols]) < 1e-12


@pytest.mark.parametrize("lam", [-1.0, 0.5, 1.2, 2.4])
def test_mu_block_matches_the_full_fold(lam):
    # 2 B^dagger K B against the block of K + K^-1 formed in full, at 2L = 400
    params = ChainParams(half_length=200)
    for T in (2.7, 3.9):
        drive = diagnostics._drive_for(lam, T)
        got, want = mu_of(params, drive), full_fold_mu(params, drive)
        dist = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert np.max(dist[rows, cols]) < 1e-10


def test_phase_diagram_hermitian_column():
    params = ChainParams(half_length=30)
    points = phase_diagram(params, np.array([2.0, 3.0]), np.array([0.5, 1.0]))
    assert len(points) == 4
    assert all(p.label is PhaseLabel.PT_SYMMETRIC for p in points)


def test_pt_boundary_bracket_and_refinement():
    params = ChainParams(half_length=100)
    grid = np.arange(2.0, 3.5, 0.05)
    (est,) = pt_boundary(params, [2.0], grid)
    assert est is not None and est < np.pi


def lam_by_lam_boundary(params, lam, T_values):
    """The scan one lambda at a time, each point building its own factors."""
    prev_T = None
    for T in map(float, T_values):
        if pt_classify(params, diagnostics._drive_for(lam, T)).label is PhaseLabel.PT_BROKEN:
            return None if prev_T is None else 0.5 * (prev_T + T)
        prev_T = T
    return None


def test_t_major_pt_boundary_matches_the_lambda_by_lambda_scan():
    # 0.5 never breaks, 1.2 and 2.0 break inside the grid, 6.0 at its first point
    params = ChainParams(half_length=30)
    grid = np.round(np.arange(2.0, 3.5001, 0.05), 10)
    lams = [0.5, 1.2, 2.0, 6.0]
    got = pt_boundary(params, lams, grid)
    assert got == [lam_by_lam_boundary(params, lam, grid) for lam in lams]
    assert got[0] is None and got[3] is None and None not in got[1:3]
    assert pt_classify(params, diagnostics._drive_for(6.0, 2.0)).label is PhaseLabel.PT_BROKEN


def threaded_map(fn, items):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(fn, items))


@pytest.mark.parametrize(
    "sweep, columns",
    [
        (lambda p, Ts: phase_diagram(p, Ts, np.array([0.5, 1.5, 2.4]), map_columns=threaded_map), 4),
        # 6.0 leaves at T = 2.0, 2.4 at T = 2.7: no lambda is left for 2.9
        (lambda p, Ts: pt_boundary(p, [2.4, 6.0], Ts), 3),
        (lambda p, Ts: gap_curve(p, Ts, family=DriveFamily.NON_HERMITIAN_TWO_STEP, lam=1.5), 4),
    ],
    ids=["phase-threaded", "pt-boundary", "gap"],
)
def test_sweeps_build_one_eigh_and_one_set_of_parts_per_period(sweep, columns, monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(diagnostics, name, wrapper)

    counted("uniform_eigh", diagnostics.uniform_eigh)
    counted("period_factors", diagnostics.period_factors)
    sweep(ChainParams(half_length=10), np.array([2.0, 2.4, 2.7, 2.9]))
    assert calls.count("uniform_eigh") == 1
    assert calls.count("period_factors") == columns


def test_gap_curve_high_frequency_harmonic():
    pairs = gap_curve(ChainParams(half_length=40), np.array([0.1]))
    assert pairs[0][1] > 50.0


def test_gap_curve_harmonic_rejects_a_lambda():
    # the harmonic drive sets lambda(t) itself; a given lambda != 1 is refused, not dropped
    params = ChainParams(half_length=10)
    Ts = np.array([2.0])
    with pytest.raises(ValueError, match="lam must be 1"):
        gap_curve(params, Ts, DriveFamily.HARMONIC, lam=0.3)
    assert gap_curve(params, Ts, DriveFamily.HARMONIC, lam=1.0) == gap_curve(params, Ts)


def test_gap_curve_two_step_folding_proxy():
    params = ChainParams(half_length=50)
    pairs = gap_curve(params, np.array([2.0, 4.2]), family=DriveFamily.TWO_STEP, lam=0.5)
    open_gap = pairs[0][1]
    folded = pairs[1][1]
    assert open_gap > 0.5  # unfolded arc leaves a large hole on the circle
    assert folded < 0.2


def test_harmonic_drive_heating_dichotomy_small_size():
    params = ChainParams(half_length=50)
    calm = half_chain_series(params, DriveSpec(DriveFamily.HARMONIC, period=2.5), 65)
    hot = half_chain_series(params, DriveSpec(DriveFamily.HARMONIC, period=4.2), 65)
    assert classify_heating(calm).label is PhaseLabel.NON_HEATING
    assert classify_heating(hot).label is PhaseLabel.HEATING


def test_half_chain_series_metadata():
    params = ChainParams(half_length=20)
    ser = half_chain_series(params, DRIVE, 12)
    assert len(ser.cycles) == 13
    assert ser.drive is DRIVE and ser.params is params
    assert np.all(ser.entropies >= 0)
