"""The benchmark's output checks pass on floqimp's results and fail on wrong ones.

Small sizes only, so the module runs in a few seconds:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import refcheck
from refcheck import CheckFailed
from workloads import drive
from floqimp import cli, diagnostics, manybody_ed
from floqimp.model import ChainParams


@pytest.mark.parametrize("T, lam", [(2.5, 0.5), (4.2, 0.5), (2.5, 1.2), (4.2, 1.2)])
def test_series_check_rejects_shifted_entropy(T, lam):
    L, cycles = 12, 24
    series = diagnostics.half_chain_series(ChainParams(half_length=L), drive(T, lam), cycles)
    reference = refcheck.reference_half_chain(L, T, lam, cycles)
    refcheck.check_series(series.entropies, reference)
    wrong = series.entropies.copy()
    wrong[cycles // 2] += 1e-3
    with pytest.raises(CheckFailed):
        refcheck.check_series(wrong, reference)


def test_series_property_checks_reject_wrong_values():
    flat = np.full(10, 1.0)
    refcheck.check_bounded(flat)
    with pytest.raises(CheckFailed):
        refcheck.check_bounded(np.append(flat, 3.6))
    refcheck.check_heating_slope(0.2, True)
    with pytest.raises(CheckFailed):
        refcheck.check_heating_slope(0.04, True)
    with pytest.raises(CheckFailed):
        refcheck.check_heating_slope(0.2, False)
    refcheck.check_recurrences(2)
    with pytest.raises(CheckFailed):
        refcheck.check_recurrences(1)


def _lines_with(text, index, edit):
    lines = text.splitlines()
    lines[index] = edit(lines[index])
    return "\n".join(lines) + "\n"


def test_profile_check_rejects_wrong_entropy_and_rows(tmp_path):
    L, T, cycles, every = 10, 4.2, 4, 2
    out = tmp_path / "prof.csv"
    argv = ["evolve", "--family", "harmonic", "--L", str(L), "--T", str(T), "--cycles", str(cycles),
            "--mode", "profile", "--profile-every", str(every), "--out", str(out)]
    assert cli.main(argv) == 0
    text = out.read_text()
    refcheck.check_profile_csv(text, L, T, cycles, every)
    last = len(text.splitlines()) - 1

    def shift(line):
        *head, s = line.split(",")
        return ",".join([*head, repr(float(s) + 1e-3)])

    with pytest.raises(CheckFailed):
        refcheck.check_profile_csv(_lines_with(text, last, shift), L, T, cycles, every)
    with pytest.raises(CheckFailed):
        refcheck.check_profile_csv(text.rsplit("\n", 2)[0] + "\n", L, T, cycles, every)
    with pytest.raises(CheckFailed):
        refcheck.check_profile_csv(text.replace("cycle,t,cut,S_nats", "cycle,t,cut,S"), L, T, cycles, every)


def test_table_checks_reject_swapped_weights_and_shifted_theta():
    L = 3
    n, N = 2 * L, L
    interacting = manybody_ed.average_energy_spectrum_mb(ChainParams(half_length=L, delta=0.1), drive(2.0, 0.5), N)
    refcheck.check_table_sums(interacting.theta, interacting.weight, n, N, 0.1)
    with pytest.raises(CheckFailed):
        refcheck.check_table_sums(interacting.theta + 1e-6, interacting.weight, n, N, 0.1)
    with pytest.raises(CheckFailed):
        refcheck.check_table_sums(interacting.theta, interacting.weight * 1.001, n, N, 0.1)

    free = ChainParams(half_length=L)
    table = manybody_ed.average_energy_spectrum_mb(free, drive(3.5, 0.5), N)
    theta_sp = manybody_ed.two_step_theta_sp(free, drive(3.5, 0.5))
    det = manybody_ed.free_ground_state_weight(free, drive(3.5, 0.5))
    refcheck.check_free_table(table.theta, table.ground_state_weight, theta_sp, N, det)
    swapped = table.weight.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    with pytest.raises(CheckFailed):
        refcheck.check_free_table(table.theta, float(swapped[0]), theta_sp, N, det)
    theta = table.theta.copy()
    theta[3] += 1e-6
    with pytest.raises(CheckFailed):
        refcheck.check_free_table(theta, table.ground_state_weight, theta_sp, N, det)


def test_trace_formula_matches_sector_matrix():
    params = ChainParams(half_length=3, delta=0.1)
    h0 = manybody_ed.build_sector_hamiltonian(params, 1.0, 3).matrix
    h1 = manybody_ed.build_sector_hamiltonian(params, 0.5, 3).matrix
    assert math.isclose(np.trace(0.5 * (h0 + h1)).real, refcheck.interaction_trace(6, 3, 0.1), abs_tol=1e-12)
    assert math.isclose(refcheck.interaction_trace(12, 6, 0.1), 231.0)


def test_weight_side_check():
    refcheck.check_weight_side(0.985, below_pi=True)
    refcheck.check_weight_side(4.9e-4, below_pi=False)
    with pytest.raises(CheckFailed):
        refcheck.check_weight_side(4.9e-4, below_pi=True)
    with pytest.raises(CheckFailed):
        refcheck.check_weight_side(0.985, below_pi=False)


def test_lowest_k_checks_reject_wrong_order_length_and_values():
    theta_sp = manybody_ed.two_step_theta_sp(ChainParams(half_length=4), drive(2.0, 0.5))
    full = manybody_ed.lowest_k_free_spectrum(theta_sp, 4, 70)
    refcheck.check_lowest_k(full, theta_sp, 4, 70)
    refcheck.check_lowest_k_brute(full, theta_sp, 4)
    i = int(np.argmax(np.diff(full) > 0))
    swapped = full.copy()
    swapped[[i, i + 1]] = swapped[[i + 1, i]]
    with pytest.raises(CheckFailed):
        refcheck.check_lowest_k(swapped, theta_sp, 4, 70)
    with pytest.raises(CheckFailed):
        refcheck.check_lowest_k(full[:-1], theta_sp, 4, 70)
    with pytest.raises(CheckFailed):
        refcheck.check_lowest_k(full + 1e-6, theta_sp, 4, 70)
    wrong = full.copy()
    wrong[40] += 1e-6
    with pytest.raises(CheckFailed):
        refcheck.check_lowest_k_brute(wrong, theta_sp, 4)


def test_phase_check_rejects_flipped_label_and_reordered_rows(tmp_path):
    L = 20
    lam_values = [1.5, 2.0]
    T_values = [2.0 + 0.4 * i for i in range(6)]
    out = tmp_path / "phase.csv"
    argv = ["phase", "--L", str(L), "--T-min", "2.0", "--T-max", "4.0", "--T-step", "0.4",
            "--lambda-min", "1.5", "--lambda-max", "2.0", "--lambda-step", "0.5", "--out", str(out)]
    assert cli.main(argv) == 0
    text = out.read_text()
    refcheck.check_phase_csv(text, L, T_values, lam_values)
    lines = text.splitlines()
    first_row = next(i for i, ln in enumerate(lines) if ln[0].isdigit())
    broken = next(i for i in range(first_row, len(lines)) if "pt-broken" in lines[i])

    def flip(line):
        return line.replace("pt-broken", "pt-symmetric")

    with pytest.raises(CheckFailed):
        refcheck.check_phase_csv(_lines_with(text, broken, flip), L, T_values, lam_values)
    reordered = lines[:first_row] + [lines[first_row + 1], lines[first_row]] + lines[first_row + 2 :]
    with pytest.raises(CheckFailed):
        refcheck.check_phase_csv("\n".join(reordered) + "\n", L, T_values, lam_values)


TRACED_SERIES = """
import sys
sys.path.insert(0, {here!r})
import tracer
from floqimp import diagnostics
from floqimp.model import ChainParams, DriveFamily, DriveSpec
t = tracer.Tracer()
t.install()
if {unwrap}:
    diagnostics.evolve = diagnostics.evolve.__wrapped__
t.active, t.round = True, 0
diagnostics.half_chain_series(ChainParams(half_length=4), DriveSpec(DriveFamily.TWO_STEP, period=2.5, lam=0.5), 3)
t.active = False
layer, problems = t.metrics([0])
problems += tracer.check_coverage(layer, {{"gaussian.evolve": 3, "diagnostics.half_chain_series": 1}})
print(layer["linalg.eigvalsh.calls"]["value"], len(problems))
"""


@pytest.mark.parametrize("unwrap, expected", [(False, "4 0"), (True, "4 1")])
def test_trace_coverage_sees_bindings_made_by_import(unwrap, expected):
    # A subprocess, because installing the tracer rebinds names in numpy and floqimp.
    here = str(Path(__file__).resolve().parent)
    code = TRACED_SERIES.format(here=here, unwrap=unwrap)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == expected
