import os
import subprocess
import sys

import numpy as np
import pytest

from floqimp import checks, cli, floquet_analytics, manybody_ed
from floqimp.cli import main
from floqimp.floquet_analytics import NormalizationUnderflow
from floqimp.model import ChainParams, DriveFamily, DriveSpec


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def read_csv(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return raw, comments, body[0], body[1:]


def test_evolve_half_mode_rows_and_echo(tmp_path, capsys):
    out = tmp_path / "ee.csv"
    code, _, _ = run(
        capsys,
        "evolve", "--family", "two-step", "--L", "10", "--T", "2.5",
        "--lambda", "0.5", "--cycles", "5", "--out", str(out),
    )
    assert code == 0
    raw, comments, header, rows = read_csv(out)
    assert comments[0].startswith("# floqimp=")
    assert "command=evolve" in comments[0]
    assert header == "cycle,t,cut,S_nats"
    assert len(rows) == 6
    assert all(row.split(",")[2] == "10" for row in rows)


def test_evolve_zero_cycles_single_row(tmp_path, capsys):
    out = tmp_path / "ee0.csv"
    code, _, _ = run(
        capsys,
        "evolve", "--family", "two-step", "--L", "8", "--T", "2.0",
        "--lambda", "0.5", "--cycles", "0", "--out", str(out),
    )
    assert code == 0
    _, _, _, rows = read_csv(out)
    assert len(rows) == 1 and rows[0].startswith("0,")


def test_evolve_profile_mode_row_count(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    code, _, _ = run(
        capsys,
        "evolve", "--family", "two-step", "--L", "6", "--T", "2.5", "--lambda", "0.5",
        "--cycles", "12", "--mode", "profile", "--profile-every", "6", "--out", str(out),
    )
    assert code == 0
    _, _, _, rows = read_csv(out)
    assert len(rows) == 11 * 3  # cuts 1..11 at cycles 0, 6, 12


def test_evolve_byte_identical_reruns(tmp_path, capsys):
    args = [
        "evolve", "--family", "harmonic", "--L", "6", "--T", "2.5",
        "--cycles", "3",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_evolve_half_step_sampling(tmp_path, capsys):
    out = tmp_path / "half.csv"
    code, _, _ = run(
        capsys,
        "evolve", "--family", "two-step", "--L", "6", "--T", "2.0", "--lambda", "0.5",
        "--cycles", "4", "--samples-per-cycle", "2", "--out", str(out),
    )
    assert code == 0
    _, _, _, rows = read_csv(out)
    assert len(rows) == 9  # initial row plus two samples per cycle


def test_spectrum_roots_with_residuals(tmp_path, capsys):
    out = tmp_path / "roots.csv"
    code, _, _ = run(
        capsys,
        "spectrum", "--mode", "roots", "--L", "5", "--T", "2.5", "--with-diag",
        "--out", str(out),
    )
    assert code == 0
    _, _, header, rows = read_csv(out)
    assert header == "n,quasienergy,theta,overlap_w,method,residual"
    assert len(rows) == 10
    assert max(float(r.split(",")[5]) for r in rows) < 1e-9


@pytest.mark.parametrize("L, T", [(5, 2.5), (20, 3.3)])
def test_spectrum_roots_pairs_each_root_with_its_own_theta(L, T, tmp_path, capsys, monkeypatch):
    # row n holds root n and its own theta_n = <psi_n|h_uniform|psi_n>, from one root solve
    calls = []
    solve = floquet_analytics.characteristic_roots

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(floquet_analytics, "characteristic_roots", counted)
    out = tmp_path / "roots.csv"
    assert run(capsys, "spectrum", "--mode", "roots", "--L", str(L), "--T", str(T), "--out", str(out))[0] == 0
    assert len(calls) == 1
    _, _, _, rows = read_csv(out)
    theta = np.array([float(r.split(",")[2]) for r in rows])
    own = floquet_analytics._harmonic_basis(ChainParams(half_length=L), T)[1]
    assert np.max(np.abs(theta - own)) < 1e-9


def test_spectrum_mb_rows_and_grey(tmp_path, capsys):
    out = tmp_path / "mb.csv"
    code, _, _ = run(
        capsys,
        "spectrum", "--mode", "mb", "--sites", "8", "--N", "4", "--delta", "0.1",
        "--T", "2.0", "--lambda", "0.5", "--out", str(out),
    )
    assert code == 0
    _, _, header, rows = read_csv(out)
    assert header == "n,quasienergy,theta,overlap_w,method,grey"
    assert len(rows) == 70
    weights = np.array([float(r.split(",")[3]) for r in rows])
    grey = np.array([r.split(",")[5] == "1" for r in rows])
    assert np.array_equal(grey, weights < 0.002)
    assert weights.sum() == pytest.approx(1.0, abs=1e-8)


def test_spectrum_free_lowk_sorted(tmp_path, capsys):
    out = tmp_path / "lowk.csv"
    code, _, _ = run(
        capsys,
        "spectrum", "--mode", "free-lowk", "--sites", "8", "--N", "4", "--K", "20",
        "--T", "2.0", "--out", str(out),
    )
    assert code == 0
    _, _, _, rows = read_csv(out)
    vals = [float(r.split(",")[2]) for r in rows]
    assert len(vals) == 20 and vals == sorted(vals)


def test_spectrum_free_lowk_past_63_sites(tmp_path, capsys):
    # occupations past 63 sites do not fit an int64 bitmask
    out = tmp_path / "lowk.csv"
    code, _, _ = run(
        capsys, "spectrum", "--mode", "free-lowk", "--sites", "70", "--K", "200", "--T", "2.0", "--out", str(out)
    )
    assert code == 0
    vals = np.array([float(r.split(",")[2]) for r in read_csv(out)[3]])
    theta = manybody_ed.two_step_theta_sp(ChainParams(half_length=35), DriveSpec(DriveFamily.TWO_STEP, 2.0, 0.5))
    assert len(vals) == 200 and np.all(np.diff(vals) >= 0)
    assert vals[0] == np.sort(theta)[:35].sum()
    # the lowest excitations: one particle-hole pair across the Fermi level
    assert vals[1] == pytest.approx(vals[0] + theta[35] - theta[34], abs=1e-12)


def test_phase_grid_and_pi_marker(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    code, _, _ = run(
        capsys,
        "phase", "--L", "10", "--T-min", "2.0", "--T-max", "2.2", "--T-step", "0.1",
        "--lambda-min", "1.0", "--lambda-max", "1.1", "--lambda-step", "0.1",
        "--out", str(out),
    )
    assert code == 0
    _, comments, header, rows = read_csv(out)
    assert any("T_pi=" in c for c in comments)
    assert header == "T,lambda,label,score"
    assert len(rows) == 6


@pytest.mark.parametrize(
    "base",
    [
        [
            "phase", "--L", "10", "--T-min", "2.0", "--T-max", "2.3", "--T-step", "0.1",
            "--lambda-min", "1.8", "--lambda-max", "2.2", "--lambda-step", "0.2",
        ],
        [
            "gap", "--family", "two-step", "--L", "10", "--lambda", "0.5",
            "--T-min", "2.0", "--T-max", "4.2", "--T-step", "0.2",
        ],
    ],
    ids=["phase", "gap-two-step"],
)
def test_phase_threads_deterministic(base, tmp_path, capsys):
    a, b = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert run(capsys, *base, "--threads", "1", "--out", str(a))[0] == 0
    assert run(capsys, *base, "--threads", "4", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_phase_threads_keep_bytes_and_lambda_major_rows(tmp_path, capsys):
    # workers sweep T columns; the CSV still lists every T of one lambda in turn
    base = [
        "phase", "--L", "30", "--T-min", "2.6", "--T-max", "3.0", "--T-step", "0.2",
        "--lambda-min", "0.5", "--lambda-max", "2.5", "--lambda-step", "1.0",
    ]
    a, b = tmp_path / "p1.csv", tmp_path / "p4.csv"
    assert run(capsys, *base, "--threads", "1", "--out", str(a))[0] == 0
    assert run(capsys, *base, "--threads", "4", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    _, _, _, rows = read_csv(a)
    keys = [(float(r.split(",")[1]), float(r.split(",")[0])) for r in rows]
    assert len(keys) == 9 and keys == sorted(keys)
    assert {r.split(",")[2] for r in rows} == {"pt-symmetric", "pt-broken"}


def test_gap_command(tmp_path, capsys):
    out = tmp_path / "gap.csv"
    code, _, _ = run(
        capsys,
        "gap", "--family", "harmonic", "--L", "10", "--T-min", "2.0", "--T-max", "2.4",
        "--T-step", "0.2", "--out", str(out),
    )
    assert code == 0
    _, _, header, rows = read_csv(out)
    assert header == "T,gap"
    assert len(rows) == 3


@pytest.mark.parametrize("family, lam", [("two-step", "1.5"), ("nh-two-step", "0.5")])
def test_gap_rejects_a_lambda_outside_its_family(family, lam, capsys):
    code, out, err = run(
        capsys, "gap", "--family", family, "--L", "10", "--lambda", lam,
        "--T-min", "2", "--T-max", "2.2", "--T-step", "0.1", "--out", "-",
    )
    # evolve rejects the same mismatch; gap once ran the other family instead
    assert code == 2 and "ValueError" in err and "lambda" in err and out == ""


GRID_PAST_MAX = [
    ["gap", "--family", "harmonic", "--L", "10", "--T-min", "2", "--T-max", "4", "--T-step", "0.3"],
    [
        "phase", "--L", "4", "--T-min", "2", "--T-max", "4", "--T-step", "0.3",
        "--lambda-min", "1.1", "--lambda-max", "1.3", "--lambda-step", "0.3",
    ],
]


@pytest.mark.parametrize("argv", GRID_PAST_MAX, ids=["gap", "phase"])
def test_grid_stops_at_its_maximum(argv, tmp_path, capsys):
    # 2 + 7 * 0.3 = 4.1 and 1.1 + 0.3 = 1.4 lie past their maxima
    out = tmp_path / "grid.csv"
    assert run(capsys, *argv, "--out", str(out))[0] == 0
    rows = [r.split(",") for r in read_csv(out)[3]]
    assert sorted({float(r[0]) for r in rows}) == pytest.approx([2.0 + 0.3 * i for i in range(7)])
    if argv[0] == "phase":
        assert {r[1] for r in rows} == {"1.1"}


@pytest.mark.parametrize("lo, hi, step", [(2.0, 2.3, 0.1), (1.0, 2.4, 0.05), (1.0, 1.2, 0.1), (2.0, 4.0, 0.05)])
def test_grid_keeps_a_maximum_a_whole_number_of_steps_away(lo, hi, step):
    # the division leaves 2.3 - 2.0 at 2.9999999999999982 steps
    grid = cli._grid(lo, hi, step)
    assert len(grid) == round((hi - lo) / step) + 1
    assert grid[-1] == pytest.approx(hi)


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "su2")
    assert code == 0
    assert "su2_max_deviation" in out and "pass" in out


def test_verify_failing_row_prints_fail_and_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(checks.SUITES, "su2", lambda: [("planted", 2.0, 1.0, False)])
    code, out, _ = run(capsys, "verify", "--suite", "su2")
    assert code == 1
    assert out == "planted measured=2 bound=1 FAIL\n"


def test_verify_model_error_exits_3(capsys, monkeypatch):
    def underflow():
        raise NormalizationUnderflow("planted")

    monkeypatch.setitem(checks.SUITES, "roots", underflow)
    code, _, err = run(capsys, "verify", "--suite", "roots")
    assert code == 3
    assert err.startswith("NormalizationUnderflow")


def test_config_file_and_env_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = two-step\nL = 8\nT = 2.0\nlambda = 0.5\ncycles = 2\n")
    out = tmp_path / "c.csv"
    code, _, _ = run(capsys, "evolve", "--config", str(cfg), "--out", str(out))
    assert code == 0
    _, comments, _, rows = read_csv(out)
    assert len(rows) == 3 and "T=2.0" in comments[0]
    # flag beats config
    out2 = tmp_path / "c2.csv"
    code, _, _ = run(capsys, "evolve", "--config", str(cfg), "--cycles", "4", "--out", str(out2))
    assert len(read_csv(out2)[3]) == 5
    # env beats config
    monkeypatch.setenv("FLOQIMP_CYCLES", "1")
    out3 = tmp_path / "c3.csv"
    code, _, _ = run(capsys, "evolve", "--config", str(cfg), "--out", str(out3))
    assert len(read_csv(out3)[3]) == 2


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family = two-step\nL = 8\nT = 2.0\ncycles = 2\nbogus = 1\n")
    code, _, err = run(capsys, "evolve", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err


def test_missing_required_flag_is_config_error(capsys):
    code, _, err = run(capsys, "evolve", "--family", "two-step", "--L", "8", "--cycles", "2")
    assert code == 2
    assert "T" in err


def test_model_error_exit_code(capsys):
    code, _, err = run(
        capsys,
        "spectrum", "--mode", "mb", "--sites", "30", "--N", "15", "--T", "2.0",
        "--out", "-",
    )
    assert code == 3
    assert "SectorTooLarge" in err


def test_evolve_harmonic_default_route_byte_identical_reruns(tmp_path, capsys):
    args = ["evolve", "--family", "harmonic", "--L", "6", "--T", "4.2", "--cycles", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert "n-sub" not in read_csv(a)[1][0]


TWO_STEP_EVOLVE = ["evolve", "--family", "two-step", "--L", "6", "--T", "2.5", "--lambda", "0.5", "--cycles", "2"]


def test_evolve_delta_rejected(capsys):
    code, _, err = run(capsys, *TWO_STEP_EVOLVE, "--delta", "0.3")
    assert code == 2 and "ConfigError" in err and "delta" in err


def test_evolve_profile_rejects_half_step_sampling(capsys):
    code, _, err = run(capsys, *TWO_STEP_EVOLVE, "--mode", "profile", "--samples-per-cycle", "2")
    assert code == 2 and "ConfigError" in err and "samples-per-cycle" in err


HARMONIC_EVOLVE = ["evolve", "--family", "harmonic", "--L", "6", "--T", "4.2", "--cycles", "2"]


def test_evolve_harmonic_rejects_lambda(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, *HARMONIC_EVOLVE, "--lambda", "0.3")
    assert code == 2 and "ConfigError" in err and "lambda" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.3\n")
    assert run(capsys, *HARMONIC_EVOLVE, "--config", str(cfg))[0] == 2
    monkeypatch.setenv("FLOQIMP_LAMBDA", "0.3")
    assert run(capsys, *HARMONIC_EVOLVE)[0] == 2
    out = tmp_path / "h.csv"
    assert run(capsys, *HARMONIC_EVOLVE, "--lambda", "1.0", "--out", str(out))[0] == 0
    assert "lambda=1.0" in read_csv(out)[1][0]


def test_evolve_rejects_n_sub(tmp_path, capsys):
    # the harmonic midpoint product is the reference of verify --suite eq4, not a run option
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-sub = 64\n")
    for argv in (HARMONIC_EVOLVE, TWO_STEP_EVOLVE):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n-sub", "64"])
        assert exc.value.code == 2
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2 and "unknown config keys" in err and "n-sub" in err and out == ""


def test_evolve_profile_every_only_in_profile_mode(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, *TWO_STEP_EVOLVE, "--mode", "half", "--profile-every", "2")
    assert code == 2 and "ConfigError" in err and "profile-every" in err
    code, _, err = run(capsys, *TWO_STEP_EVOLVE, "--mode", "profile", "--profile-every", "0")
    assert code == 2 and "profile-every" in err
    # unset: half mode runs and profile mode snapshots every 6 cycles, both echo 6
    half = tmp_path / "half.csv"
    assert run(capsys, *TWO_STEP_EVOLVE, "--out", str(half))[0] == 0
    assert "profile-every=6" in read_csv(half)[1][0]
    args = ["evolve", "--family", "two-step", "--L", "6", "--T", "2.5", "--lambda", "0.5",
            "--cycles", "12", "--mode", "profile"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--profile-every", "6", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert [r.split(",")[0] for r in read_csv(a)[3][::11]] == ["0", "6", "12"]
    monkeypatch.setenv("FLOQIMP_PROFILE_EVERY", "3")
    assert run(capsys, *TWO_STEP_EVOLVE)[0] == 2


def _sample_text(conv, default, choices):
    """A valid value for an option that differs from its default, as text."""
    if choices:
        return cli._fmt(choices[-1])
    return {int: "3", float: "2.5", str: "x.csv", bool: "true"}[conv]


def _required_flags(command, skip):
    argv = []
    for key, spec in cli._OPTIONS[command].items():
        if spec[1] is None and key != skip:
            argv += [f"--{key}", _sample_text(*spec)]
    return argv


OPTION_KEYS = [(command, key) for command, spec in cli._OPTIONS.items() for key in spec]


@pytest.mark.parametrize("command, key", OPTION_KEYS)
def test_every_source_resolves_the_same_value(command, key, tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.startswith(cli.ENV_PREFIX):
            monkeypatch.delenv(name)
    conv, default, choices = cli._OPTIONS[command][key]
    text = _sample_text(conv, default, choices)
    base = [command, *_required_flags(command, key)]
    flag = [f"--{key}"] if conv is bool else [f"--{key}", text]
    by_flag = cli.resolve(base + flag)
    env_name = cli.ENV_PREFIX + key.replace("-", "_").upper()
    monkeypatch.setenv(env_name, text)
    by_env = cli.resolve(base)
    monkeypatch.delenv(env_name)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n")
    by_file = cli.resolve(base + ["--config", str(cfg)])
    assert by_flag.values == by_env.values == by_file.values
    assert by_flag.values[key] != default
    assert key in by_flag.given and key in by_env.given and key in by_file.given
    if default is not None:
        assert key not in cli.resolve(base).given


CHOICE_KEYS = [(c, k) for c, k in OPTION_KEYS if cli._OPTIONS[c][k][2]]


@pytest.mark.parametrize("command, key", CHOICE_KEYS)
@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_choices_apply_from_every_source(command, key, source, tmp_path, capsys, monkeypatch):
    conv = cli._OPTIONS[command][key][0]
    bad = "3" if conv is int else "bogus"
    argv = [command, *_required_flags(command, key)]
    if source == "flag":
        argv += [f"--{key}", bad]
    elif source == "env":
        monkeypatch.setenv(cli.ENV_PREFIX + key.replace("-", "_").upper(), bad)
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {bad}\n")
        argv += ["--config", str(cfg)]
    code, _, err = run(capsys, *argv)
    assert code == 2 and f"ConfigError: bad value for {key}" in err


SPECTRUM_ROOTS = ["spectrum", "--mode", "roots", "--L", "5", "--T", "2.5"]
SPECTRUM_LOWK = ["spectrum", "--mode", "free-lowk", "--sites", "8", "--K", "5", "--T", "2.0"]


def test_spectrum_rejects_options_its_mode_ignores(tmp_path, capsys, monkeypatch):
    for argv in (SPECTRUM_ROOTS, SPECTRUM_LOWK):
        code, _, err = run(capsys, *argv, "--delta", "0.3")
        assert code == 2 and "ConfigError" in err and "delta" in err
        assert run(capsys, *argv, "--delta", "0.0")[0] == 0
    code, _, err = run(capsys, *SPECTRUM_ROOTS, "--lambda", "0.2")
    assert code == 2 and "ConfigError" in err and "lambda" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.5\n")
    assert run(capsys, *SPECTRUM_ROOTS, "--config", str(cfg))[0] == 2
    assert run(capsys, *SPECTRUM_LOWK, "--lambda", "0.2")[0] == 0
    monkeypatch.setenv("FLOQIMP_DELTA", "0.3")
    assert run(capsys, *SPECTRUM_LOWK)[0] == 2


GAP = ["gap", "--L", "6", "--T-min", "1.0", "--T-max", "1.2", "--T-step", "0.1"]


def test_gap_harmonic_rejects_given_lambda(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, *GAP, "--lambda", "0.3")
    assert code == 2 and "ConfigError" in err and "lambda" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.5\n")
    assert run(capsys, *GAP, "--config", str(cfg))[0] == 2
    out = tmp_path / "gap.csv"
    assert run(capsys, *GAP, "--out", str(out))[0] == 0
    assert "family=harmonic" in read_csv(out)[1][0]
    assert run(capsys, *GAP, "--lambda", "1.0")[0] == 0
    assert run(capsys, *GAP, "--family", "two-step", "--lambda", "0.3")[0] == 0
    monkeypatch.setenv("FLOQIMP_LAMBDA", "0.3")
    assert run(capsys, *GAP)[0] == 2


@pytest.mark.parametrize(
    "family, given, echoed",
    [("harmonic", None, "1.0"), ("harmonic", "1", "1.0"), ("two-step", None, "0.5"), ("two-step", "0.3", "0.3")],
)
def test_gap_header_echoes_the_lambda_it_ran(family, given, echoed, tmp_path, capsys):
    out = tmp_path / "gap.csv"
    extra = () if given is None else ("--lambda", given)
    assert run(capsys, *GAP, "--family", family, *extra, "--out", str(out))[0] == 0
    header = read_csv(out)[1][0]
    assert f" lambda={echoed} " in header + " "


def run_with(capsys, tmp_path, monkeypatch, source, argv, key, text):
    """Run ``argv`` with option ``key`` set to ``text`` by flag, FLOQIMP_<KEY> or config file."""
    argv = list(argv)
    if source == "flag":
        is_bool = cli._OPTIONS[argv[0]][key][0] is bool
        argv += [f"--{key}"] if is_bool else [f"--{key}", text]
    elif source == "env":
        monkeypatch.setenv(cli.ENV_PREFIX + key.replace("-", "_").upper(), text)
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        argv += ["--config", str(cfg)]
    return run(capsys, *argv)


SOURCES = ["flag", "env", "config"]
PHASE = [
    "phase", "--L", "4", "--T-min", "2.0", "--T-max", "2.2", "--T-step", "0.1",
    "--lambda-min", "1.1", "--lambda-max", "1.3", "--lambda-step", "0.1",
]
BAD_GRIDS = [
    (PHASE, "lambda-step", "0"),
    (PHASE, "lambda-step", "-0.1"),
    (PHASE, "T-step", "-0.1"),
    (PHASE, "T-min", "2.5"),
    (PHASE, "lambda-max", "1.0"),
    (PHASE, "pt-tol", "0"),
    (PHASE, "pt-tol", "-0.001"),
    (PHASE, "T-max", "inf"),
    (GAP, "T-max", "0.9"),
]


@pytest.mark.parametrize("argv, key, text", BAD_GRIDS, ids=[f"{a[0]}-{k}={t}" for a, k, t in BAD_GRIDS])
@pytest.mark.parametrize("source", SOURCES)
def test_bad_grids_are_config_errors(argv, key, text, source, tmp_path, capsys, monkeypatch):
    # flags are not repeated: drop the base value of a key the source sets
    if source != "flag" and f"--{key}" in argv:
        i = argv.index(f"--{key}")
        argv = argv[:i] + argv[i + 2:]
    code, out, err = run_with(capsys, tmp_path, monkeypatch, source, argv, key, text)
    assert code == 2 and "ConfigError" in err and key in err
    assert out == ""


SPECTRUM_MB = ["spectrum", "--mode", "mb", "--sites", "6", "--T", "2.0"]
UNREAD_SPECTRUM = [
    (SPECTRUM_ROOTS, "sites", "8"),
    (SPECTRUM_ROOTS, "N", "3"),
    (SPECTRUM_ROOTS, "K", "3"),
    (SPECTRUM_ROOTS, "all-fillings", "true"),
    (SPECTRUM_MB, "L", "30"),
    (SPECTRUM_MB, "K", "3"),
    (SPECTRUM_MB, "with-diag", "true"),
    (SPECTRUM_MB, "all-fillings", "true"),
    (SPECTRUM_LOWK, "L", "30"),
    (SPECTRUM_LOWK, "with-diag", "true"),
    ([*SPECTRUM_LOWK, "--all-fillings"], "N", "4"),
]


@pytest.mark.parametrize(
    "argv, key, text",
    UNREAD_SPECTRUM,
    ids=[f"{a[2]}{'+all-fillings' if '--all-fillings' in a else ''}-{k}" for a, k, _ in UNREAD_SPECTRUM],
)
@pytest.mark.parametrize("source", SOURCES)
def test_spectrum_rejects_each_option_of_another_mode(argv, key, text, source, tmp_path, capsys, monkeypatch):
    code, out, err = run_with(capsys, tmp_path, monkeypatch, source, argv, key, text)
    assert code == 2 and "ConfigError" in err and key in err
    assert out == ""


def test_spectrum_reads_n_without_all_fillings(capsys):
    code, out, _ = run(capsys, *SPECTRUM_LOWK, "--N", "3", "--out", "-")
    assert code == 0 and "N=3" in out


def _subprocess_env(blas_threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith(cli.ENV_PREFIX)}
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def _cli_subprocess(tmp_path, name, blas_threads, argv):
    out = tmp_path / name
    subprocess.run(
        [sys.executable, "-m", "floqimp.cli", *argv, "--out", str(out)],
        env=_subprocess_env(blas_threads), check=True, timeout=300,
    )
    return out.read_bytes()


PHASE_GRID = [
    "phase", "--L", "100", "--T-min", "2.6", "--T-max", "2.9", "--T-step", "0.1",
    "--lambda-min", "1.5", "--lambda-max", "2.0", "--lambda-step", "0.5",
]


def _phase_subprocess(tmp_path, name, blas_threads, *extra):
    return _cli_subprocess(tmp_path, name, blas_threads, [*PHASE_GRID, *extra])


def _body(raw):
    return [line.split(",") for line in raw.decode().splitlines() if not line.startswith("#")]


def test_phase_csv_determinism_contract(tmp_path):
    # 2L = 200 with symmetric and broken lambda > 1 points: the same
    # configuration and BLAS thread count give the same bytes at any --threads
    ref = _phase_subprocess(tmp_path, "a.csv", 1)
    assert _phase_subprocess(tmp_path, "b.csv", 1) == ref
    assert _phase_subprocess(tmp_path, "c.csv", 1, "--threads", "2") == ref
    # another BLAS thread count keeps the labels and the exact 0.0 of every
    # symmetric point; broken scores may move in their last digits
    rows, other = _body(ref), _body(_phase_subprocess(tmp_path, "d.csv", 2))
    labels = [r[2] for r in rows[1:]]
    assert "pt-symmetric" in labels and "pt-broken" in labels
    assert [r[:3] for r in other] == [r[:3] for r in rows]
    for mine, theirs in zip(rows[1:], other[1:]):
        if mine[2] == "pt-symmetric":
            assert mine[3] == theirs[3] == "0.0"
        else:
            assert float(theirs[3]) == pytest.approx(float(mine[3]), rel=1e-9)


DETERMINISM_CASES = {
    "evolve-half-two-step": [
        "evolve", "--family", "two-step", "--L", "100", "--T", "2.5", "--lambda", "0.5",
        "--cycles", "60",
    ],
    "evolve-half-harmonic": ["evolve", "--family", "harmonic", "--L", "100", "--T", "4.2", "--cycles", "60"],
    "evolve-profile-two-step": [
        "evolve", "--family", "two-step", "--L", "50", "--T", "4.2", "--lambda", "0.5",
        "--cycles", "12", "--mode", "profile", "--profile-every", "6",
    ],
    "evolve-profile-harmonic": [
        "evolve", "--family", "harmonic", "--L", "50", "--T", "2.5", "--cycles", "12",
        "--mode", "profile", "--profile-every", "6",
    ],
    "spectrum-roots": ["spectrum", "--mode", "roots", "--L", "50", "--T", "2.5", "--with-diag"],
    "spectrum-mb": ["spectrum", "--mode", "mb", "--sites", "8", "--delta", "0.1", "--T", "2.0"],
    "spectrum-free-lowk": ["spectrum", "--mode", "free-lowk", "--sites", "20", "--K", "500", "--T", "2.0"],
}


@pytest.mark.parametrize("blas_threads", [1, 2])
@pytest.mark.parametrize("case", list(DETERMINISM_CASES))
def test_evolve_and_spectrum_csv_determinism_contract(case, blas_threads, tmp_path):
    argv = DETERMINISM_CASES[case]
    ref = _cli_subprocess(tmp_path, "a.csv", blas_threads, argv)
    assert len(_body(ref)) > 2
    assert _cli_subprocess(tmp_path, "b.csv", blas_threads, argv) == ref


# the cases measured to give the same bytes at one and at two BLAS threads
# (OpenBLAS, 2-core machine); the harmonic half-chain series and the
# two-step profile move in their last digits
CROSS_THREAD_CASES = [
    "evolve-half-two-step", "evolve-profile-harmonic", "spectrum-roots", "spectrum-mb", "spectrum-free-lowk",
    "phase", "gap-two-step",
]
CROSS_THREAD_ARGV = {
    **DETERMINISM_CASES,
    "phase": PHASE_GRID,
    "gap-two-step": [
        "gap", "--family", "two-step", "--L", "100", "--lambda", "0.5",
        "--T-min", "2.0", "--T-max", "4.2", "--T-step", "0.2",
    ],
}


@pytest.mark.parametrize("case", CROSS_THREAD_CASES)
def test_csv_bytes_hold_across_blas_thread_counts(case, tmp_path):
    argv = CROSS_THREAD_ARGV[case]
    assert _cli_subprocess(tmp_path, "a.csv", 1, argv) == _cli_subprocess(tmp_path, "b.csv", 2, argv)


def test_cli_import_loads_no_scipy():
    # a CLI call pays for the import of every scipy subpackage it pulls in;
    # scipy.linalg took about 0.35 s and scipy.signal (with scipy.stats behind it) about 1 s
    code = "import sys, floqimp.cli\nprint(' '.join(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy')))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=_subprocess_env(1), check=True, timeout=120,
        capture_output=True, text=True,
    )
    assert done.stdout.split() == []


LOWK_8 = ["spectrum", "--mode", "free-lowk", "--sites", "8", "--T", "2.0"]


@pytest.mark.parametrize("K", ["0", "-3"])
@pytest.mark.parametrize("source", SOURCES)
def test_spectrum_k_below_one_is_a_config_error(K, source, tmp_path, capsys, monkeypatch):
    code, out, err = run_with(capsys, tmp_path, monkeypatch, source, LOWK_8, "K", K)
    assert code == 2 and "ConfigError" in err and "K" in err
    assert out == ""


def test_spectrum_k_beyond_the_sector_is_a_model_error(capsys):
    # sites 8: C(8, 4) = 70 states at half filling, 2^8 = 256 over all fillings
    code, out, err = run(capsys, *LOWK_8, "--K", "71")
    assert code == 3 and "KOutOfRange" in err and out == ""
    all_fillings = [*LOWK_8, "--all-fillings"]
    code, out, err = run(capsys, *all_fillings, "--K", "1000")
    assert code == 3 and "KOutOfRange" in err and out == ""
    code, out, _ = run(capsys, *all_fillings, "--K", "256")
    rows = [line for line in out.splitlines() if not line.startswith("#")][1:]
    assert code == 0 and len(rows) == 256
