"""Command-line interface: exit codes, file outputs and round trips.

Everything runs in-process through `cli.main` so coverage and monkeypatching
work; subprocess tests confirm the module entry point is wired up and pin
the modules each command loads.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pulsecatch import cli, closedform, dynamics
from pulsecatch import profiles as prof
from pulsecatch import protocol
from pulsecatch.errors import (MAX_CELLS, MAX_COUNT, DomainError, NoPeak,
                               NoThreshold, SingularCoupling, StepFailure)
from test_protocol import _double_hump, _drained

EXP_OP = ["--profile", "exp:r=0.036", "--kappa-i", "1e-4"]


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


def _stdout_value(captured: str, label: str) -> float:
    m = re.search(rf"{re.escape(label)} = ([^\s]+)", captured)
    assert m, f"{label!r} not found in output:\n{captured}"
    return float(m.group(1))


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_help_exits_clean(capsys):
    assert cli.main(["--help"]) == 0
    assert "schedule" in capsys.readouterr().out


def test_unknown_flag_is_input_error():
    assert cli.main(["schedule", "--profile", "exp:r=0.1", "--frobnicate"]) == 1


def test_missing_subcommand_is_input_error():
    assert cli.main([]) == 1


def test_malformed_profile_is_input_error(tmp_path, capsys):
    out = tmp_path / "x"
    assert cli.main(["schedule", "--profile", "exp:r=banana",
                     "--out", str(out)]) == 1
    assert not out.with_suffix(".csv").exists()
    assert "error:" in capsys.readouterr().err


def test_invalid_profile_is_input_error(tmp_path, capsys):
    # well-formed literal, but the table is not normalized
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,0.25\n1.0,0.25\n2.0,0.25\n")
    assert cli.main(["schedule", "--profile", f"table:{bad}",
                     "--out", str(tmp_path / "y")]) == 1
    assert "invalid profile" in capsys.readouterr().err


def test_no_threshold_maps_to_infeasible_exit(tmp_path, monkeypatch, capsys):
    def raise_nothreshold(profile, params):
        raise NoThreshold("synthetic")

    monkeypatch.setattr(protocol, "build_schedule", raise_nothreshold)
    rc = cli.main(["schedule", *EXP_OP, "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err


def test_step_failure_maps_to_step_exit(tmp_path, monkeypatch, capsys):
    def raise_stepfailure(*args, **kwargs):
        raise StepFailure("synthetic", tau=1.0)

    monkeypatch.setattr(dynamics, "simulate_amplitudes", raise_stepfailure)
    rc = cli.main(["simulate", *EXP_OP, "--out", str(tmp_path / "t.csv")])
    assert rc == 3
    assert "integration failure" in capsys.readouterr().err


def _drain_schedules(monkeypatch):
    """Every schedule the CLI builds gets a stage-2 population forced to 0
    halfway along its last segment (`test_protocol._drained`), while the
    input still arrives: there the zero-reflection coupling is undefined."""
    build = protocol.build_schedule
    monkeypatch.setattr(protocol, "build_schedule",
                        lambda profile, params: _drained(build(profile,
                                                               params)))


def test_singular_coupling_maps_to_infeasible_exit(tmp_path, capsys,
                                                   monkeypatch):
    _drain_schedules(monkeypatch)
    rc = cli.main(["simulate", "--profile", "exp:r=0.05", "--kappa-i", "0.9",
                   "--samples", "201", "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "infeasible:" in capsys.readouterr().err


def test_heavy_loss_input_simulates(tmp_path):
    """kappa_i = 0.9 above r = 0.05 does not drain the stage-2 population:
    it tends to r_in/(kappa_i - r) (5.5e-15 at tau = 600) and stays
    positive up to the horizon, so the run exits 0. A DOP853 stage 2 used
    to reach 0 near tau = 557 and exit 2."""
    profile, params = prof.exponential(0.05), prof.MemoryParams(kappa_i=0.9)
    sch = protocol.build_schedule(profile, params)
    taus = np.linspace(sch.tau_c, sch.horizon, 2001)
    assert np.all(sch.beta_sq(taus) > 0.0)
    assert sch.beta_sq(600.0) == pytest.approx(
        prof.rate_at(profile, 600.0) / 0.85, rel=1e-9)
    out = tmp_path / "t.csv"
    assert cli.main(["simulate", "--profile", "exp:r=0.05", "--kappa-i",
                     "0.9", "--samples", "201", "--out", str(out)]) == 0
    taus, beta = _read_csv(out)[:, :3:2].T
    assert taus[-1] == sch.horizon and np.all(beta[1:] < 0.0)


@pytest.mark.parametrize("command", ["schedule", "simulate"])
def test_kappa_i_above_validated_range_warns(command, tmp_path, capsys):
    # the warning flags the input; the run and its exit code are unchanged
    assert cli.main([command, "--profile", "exp:r=0.3", "--kappa-i", "0.05",
                     "--samples", "201", "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ("warning: --kappa-i 0.05 lies above "
                                       "the validated range kappa_i <= 0.01\n")
    for kappa_i in (0.0, 1e-4, 1e-2):    # 0 is the default, the lossless limit
        assert cli._memory_params(kappa_i).kappa_i == kappa_i
        assert capsys.readouterr().err == ""


def test_no_peak_maps_to_infeasible_exit(tmp_path, capsys, monkeypatch):
    def no_peak(*args, **kwargs):
        raise NoPeak("population slope never crosses zero")

    monkeypatch.setattr(protocol, "peak_time_and_fidelity", no_peak)
    rc = cli.main(["schedule", *EXP_OP, "--out", str(tmp_path / "s")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "infeasible:" in err and "never crosses zero" in err


def test_same_sign_threshold_bracket_exits_infeasible(tmp_path, monkeypatch,
                                                      capsys):
    # the polish of tau_c refuses the scan's bracket (see test_protocol)
    monkeypatch.setattr(protocol._ExactLinear, "at", lambda self, t: 1.0)
    rc = cli.main(["schedule", *EXP_OP, "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "does not change sign on the bracket" in capsys.readouterr().err


@pytest.mark.parametrize("scan", ["threshold", "peak"])
def test_same_sign_closed_form_bracket_exits_infeasible(scan, tmp_path,
                                                        monkeypatch, capsys):
    # the Gaussian closed-form scans of test_closedform, reached through
    # `verify`; its exp half runs at a short pulse to keep the test quick
    if scan == "threshold":
        monkeypatch.setattr(closedform, "_gauss_threshold_residual",
                            lambda a, b, tau0, tau: np.full_like(tau, -1.0))
    else:
        monkeypatch.setattr(closedform, "_gauss_stage2", lambda *args: 1e300)
    monkeypatch.setitem(cli.OPERATING_POINTS, "exp", "exp:r=1.0")
    closedform.gauss_constants.cache_clear()
    try:
        rc = cli.main(["verify", "master-equation",
                       "--out", str(tmp_path / "v.json")])
    finally:
        closedform.gauss_constants.cache_clear()
    assert rc == 2
    assert "does not change sign on the bracket" in capsys.readouterr().err


def test_unwritable_output_is_input_error(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "s"
    rc = cli.main(["schedule", *EXP_OP, "--out", str(out)])
    assert rc == 1
    # the error names the file asked for, not the random temp file
    err = capsys.readouterr().err
    assert f"{out}.csv" in err and ".tmp-" not in err


def test_output_onto_a_directory_names_the_path(tmp_path, capsys):
    """A rename onto a directory fails after the temp file is written: the
    error names `--out`, and the temp file is gone."""
    out = tmp_path / "taken"
    out.mkdir()
    rc = cli.main(["sweep", "--profile", "exp", "--grid-ki", "1e-4",
                   "--grid-r", "0.1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"'{out}'" in err and ".tmp-" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "pulsecatch", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pulsecatch" in proc.stdout


def _run(options: list[str], argv: list[str], cwd: Path):
    """`python <options> -m pulsecatch <argv>` run in `cwd` on this source."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *options, "-m", "pulsecatch",
                           *argv], capture_output=True, text=True, env=env,
                          cwd=cwd)


def _imported(argv: list[str], cwd: Path) -> tuple[list[str], str]:
    """Every module `python -m pulsecatch <argv>` imports, as `-X importtime`
    names them, and its stdout, from a run in `cwd` that must exit 0."""
    proc = _run(["-X", "importtime"], argv, cwd)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
    assert "pulsecatch.cli" in imported
    return imported, proc.stdout


def _package_modules(imported: list[str]) -> set[str]:
    return {m for m in imported if m.split(".")[0] == "pulsecatch"}


# The pulsecatch modules a command loads: those it runs, and no others.
# (`__main__` runs as the script, so `-X importtime` does not list it.)
# Only a solve loads DOP853's constants (`_dop853`): `simulate` and
# `verify`, not `schedule` or `sweep`.
_FRONT_END = {"pulsecatch", "pulsecatch.cli", "pulsecatch.errors"}
_SCHEDULE = _FRONT_END | {"pulsecatch._scipy", "pulsecatch.profiles",
                          "pulsecatch.protocol"}
_SWEEP = _SCHEDULE | {"pulsecatch.closedform", "pulsecatch.sweep"}
_SOLVE = {"pulsecatch.dynamics", "pulsecatch._dop853"}


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["schedule", *EXP_OP],
    ["schedule", "--profile", "gauss:r=0.1533,n=4", "--kappa-i", "1e-4"],
], ids=["help", "schedule-exp", "schedule-gauss"])
def test_schedule_path_loads_no_scipy(argv, tmp_path):
    """`--help` and `schedule` import no scipy module (`-X importtime`
    names every module a run imports): scipy costs about 0.7 s of import.
    `--help` imports no numpy and none of the solvers either, and
    `schedule` none of the closed forms, the sweep or the cross-checks."""
    if argv[0] == "schedule":
        argv = argv + ["--samples", "201", "--out", str(tmp_path / "s")]
    imported, _ = _imported(argv, tmp_path)
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []
    if argv[0] == "--help":
        assert [m for m in imported if m.split(".")[0] == "numpy"] == []
        assert _package_modules(imported) == _FRONT_END
    else:
        assert _package_modules(imported) == _SCHEDULE


def test_gauss_sweep_loads_no_scipy_integrate(tmp_path):
    """`sweep --profile gauss` takes its losses from the energy balance and
    the closed forms, whose erf and erfcx are `closedform`'s own: it imports
    no scipy module, neither scipy.integrate nor scipy.special."""
    imported, stdout = _imported(["sweep", "--profile", "gauss", "--grid-ki",
                                  "1e-5,1e-2", "--grid-r", "0.05,1", "--out",
                                  str(tmp_path / "s.csv")], tmp_path)
    assert "4 cells, 0 failed" in stdout
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []
    assert _package_modules(imported) == _SWEEP


def test_exp_sweep_loads_no_scipy(tmp_path):
    """`sweep --profile exp` on its default grid imports no scipy module:
    the exponential closed forms and their losses need none."""
    imported, stdout = _imported(["sweep", "--profile", "exp"], tmp_path)
    assert "1000 cells, 0 failed" in stdout
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []
    assert _package_modules(imported) == _SWEEP


@pytest.mark.parametrize("profile", ["exp:r=0.036", "gauss:r=0.1533,n=4"])
def test_simulate_loads_no_scipy(profile, tmp_path):
    """`simulate` on an analytic pulse imports no scipy module: solve_ivp is
    the port of scipy's DOP853 (`pulsecatch._scipy`), and its tableau is
    `pulsecatch._dop853`'s literals."""
    imported, _ = _imported(["simulate", "--profile", profile, "--kappa-i",
                             "1e-4", "--samples", "201"], tmp_path)
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []
    assert _package_modules(imported) == _SCHEDULE | _SOLVE


def test_verify_loads_no_scipy_integrate(tmp_path):
    """`verify all` and `verify master-equation` import no scipy module: the
    master equation takes the DOP853 port, the semiclassical power integral
    `profiles.cumulative`, and the Gaussian closed forms `closedform`'s own
    erf and erfcx."""
    for target, passes, modules in (
            ("all", 12, {"pulsecatch.semiclassical"}),
            ("master-equation", 10, set())):
        imported, stdout = _imported(["verify", target], tmp_path)
        assert stdout.count("PASS") == passes
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []
        assert _package_modules(imported) == _SCHEDULE | _SOLVE | {
            "pulsecatch.closedform"} | modules


def _no_solve(monkeypatch):
    """Make any schedule build fail at once: the checks below must come first
    (a nan or inf coupling scale used to spin in the integrators)."""
    def refuse(*args, **kwargs):
        raise AssertionError("a solve started before the flags were checked")
    monkeypatch.setattr(protocol, "build_schedule", refuse)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_schedule_outputs(tmp_path, capsys):
    out = tmp_path / "sched"
    assert cli.main(["schedule", *EXP_OP, "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert _stdout_value(captured, "tau_c") == pytest.approx(1.3647475707, abs=1e-7)
    assert _stdout_value(captured, "fidelity") == pytest.approx(0.9702923273, abs=1e-7)

    payload = json.loads(out.with_suffix(".json").read_text())
    assert list(payload) == ["profile", "kappa_i", "tau_c", "tau_max",
                             "fidelity", "loss_stage1_reflection",
                             "loss_intrinsic", "loss_unabsorbed", "flags"]
    assert payload["profile"] == "exp:r=0.036"
    assert payload["kappa_i"] == pytest.approx(1e-4)
    assert payload["tau_max"] == pytest.approx(164.34060877877471, abs=1e-4)
    assert payload["flags"] == []
    budget = (payload["fidelity"] + payload["loss_stage1_reflection"]
              + payload["loss_intrinsic"] + payload["loss_unabsorbed"])
    assert budget == pytest.approx(1.0, abs=1e-8)

    data = _read_csv(out.with_suffix(".csv"))
    header = out.with_suffix(".csv").read_text().split("\n", 1)[0]
    assert header == "tau,kappa,r_in,beta1_sq,beta_sq,r_out"
    taus, kappas = data[:, 0], data[:, 1]
    assert taus[0] == 0.0
    assert np.all(np.diff(taus) > 0.0)
    assert np.all(kappas[taus < 1.36] == 1.0)  # stage-1 plateau
    assert np.nanmax(kappas) <= 1.0 + 1e-12


@pytest.mark.parametrize("samples", ["-5", "-1"])
def test_schedule_negative_samples_is_input_error(samples, tmp_path, capsys,
                                                 monkeypatch):
    _no_solve(monkeypatch)
    out = tmp_path / "sched"
    assert cli.main(["schedule", *EXP_OP, "--samples", samples,
                     "--out", str(out)]) == 1
    assert "--samples must be >= 0" in capsys.readouterr().err
    assert not out.with_suffix(".csv").exists()
    assert not out.with_suffix(".json").exists()


@pytest.mark.parametrize("command", ["schedule", "simulate", "sweep",
                                     "sweep_cells"])
def test_oversized_counts_are_input_errors(command, tmp_path, capsys,
                                           monkeypatch):
    """A count one past its cap is refused with exit 1, an `error:` line and
    no file, before any solve: `schedule --samples`, `simulate --samples`
    and a grid literal's n take at most 2^20, and a sweep at most 2^16
    cells. Each allocated hundreds of GiB at 1e11 (a traceback)."""
    assert (MAX_COUNT, MAX_CELLS) == (2 ** 20, 2 ** 16)
    out = tmp_path / "out"
    solves = []
    monkeypatch.setattr(dynamics, "solve_ivp",
                        lambda *a, **k: solves.append(a[1]))
    argv = {
        "schedule": ["schedule", *EXP_OP, "--samples", str(MAX_COUNT + 1)],
        "simulate": ["simulate", *EXP_OP, "--samples", str(MAX_COUNT + 1)],
        "sweep": ["sweep", "--profile", "gauss", "--grid-ki",
                  f"1e-5:1e-2:{MAX_COUNT + 1}:log", "--grid-r", "0.1,0.2"],
        "sweep_cells": ["sweep", "--profile", "gauss", "--grid-ki",
                        "1e-5:1e-2:257:log", "--grid-r", "0.05:1:256:lin"],
    }[command]
    if command == "schedule":
        _no_solve(monkeypatch)
    assert cli.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert (f"{MAX_CELLS:,} cells" if command == "sweep_cells"
            else f"{MAX_COUNT:,}") in err
    assert list(tmp_path.iterdir()) == [] and solves == []


def test_help_states_the_count_caps(capsys):
    for command in ("schedule", "simulate", "sweep"):
        assert cli.main([command, "--help"]) == 0
        assert f"{MAX_COUNT:,}" in capsys.readouterr().out
    assert cli.main(["--help"]) == 0
    assert f"{MAX_CELLS:,}" in capsys.readouterr().out


def test_schedule_lossless_infinite_peak_is_json_safe(tmp_path):
    out = tmp_path / "lossless"
    assert cli.main(["schedule", "--profile", "exp:r=0.2",
                     "--out", str(out)]) == 0
    payload = json.loads(out.with_suffix(".json").read_text())
    # non-finite floats are carried as strings so the JSON stays parseable
    assert payload["tau_max"] == "inf"
    assert 0.92 < payload["fidelity"] < 0.93


@pytest.mark.parametrize("case", ["exp", "gauss", "table"])
def test_schedule_grid_holds_every_end_and_knot(case, tmp_path):
    # rows: strictly increasing on [0, horizon], every segment end and knot
    # among them, no gap wider than horizon/(n - 1); few rows at the defaults
    profile = {"exp": prof.exponential(0.036),
               "gauss": prof.gaussian(r=0.1533, n=4),
               "table": _double_hump()}[case]
    schedule = protocol.build_schedule(profile, prof.MemoryParams(kappa_i=1e-4))
    end = schedule.horizon
    ends = [0.0, schedule.tau_c, *schedule.breakpoints(), end]
    if case == "table":
        ends += profile.taus[profile.taus <= end].tolist()
        assert schedule.breakpoints()
    for n in (0, 1, 3001, 4001):
        ts = cli._schedule_grid(schedule, n)
        assert ts[0] == 0.0 and ts[-1] == end
        assert np.all(np.diff(ts) > 0.0)
        assert np.isin(ends, ts).all()
        if n >= 2:
            assert np.max(np.diff(ts)) <= end / (n - 1) * (1.0 + 1e-12)
    if case != "table":
        out = tmp_path / "s"
        assert cli.main(["schedule", "--profile", cli.OPERATING_POINTS[case],
                         "--kappa-i", "1e-4", "--out", str(out)]) == 0
        rows = out.with_suffix(".csv").read_text().splitlines()
        assert len(rows) - 1 <= 5000


def test_schedule_json_escapes_the_profile_literal(tmp_path):
    # a quote and a backslash in a table's path stay valid JSON
    taus = np.linspace(0.0, 10.0, 101)
    rates = np.exp(-0.5 * (taus - 4.0) ** 2)
    table = tmp_path / 'we\\ird"name.csv'
    np.savetxt(table, np.c_[taus, rates / np.trapezoid(rates, taus)],
               delimiter=",", fmt="%.17g")
    out = tmp_path / "s"
    assert cli.main(["schedule", "--profile", f"table:{table}", "--kappa-i",
                     "1e-4", "--out", str(out)]) == 0
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["profile"] == f"table:{table}"


def test_schedule_singular_rows_are_nan(tmp_path, monkeypatch):
    # a population drained to zero while input still arrives: the file
    # carries nan in kappa and r_out exactly where kappa is undefined.
    _drain_schedules(monkeypatch)
    out = tmp_path / "singular"
    assert cli.main(["schedule", "--profile", "exp:r=0.05", "--kappa-i", "0.9",
                     "--samples", "2001", "--out", str(out)]) == 0
    data = _read_csv(out.with_suffix(".csv"))
    schedule = protocol.build_schedule(prof.exponential(0.05),
                                       prof.MemoryParams(kappa_i=0.9))
    raises = np.zeros(len(data), dtype=bool)
    for i, tau in enumerate(data[:, 0].tolist()):
        try:
            schedule.kappa(tau)
        except SingularCoupling:
            raises[i] = True
    assert raises.any()
    assert np.array_equal(np.isnan(data[:, 1]), raises)
    assert np.array_equal(np.isnan(data[:, 5]), raises)
    assert not np.isnan(data[:, [0, 2, 3, 4]]).any()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_default_schedule(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert cli.main(["simulate", *EXP_OP, "--tol", "1e-10",
                     "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert _stdout_value(captured, "energy balance residual") <= 5e-9
    assert _stdout_value(captured, "max stage-2 r_out") <= 1e-7
    header = out.read_text().split("\n", 1)[0]
    assert header == "tau,beta1,beta,kappa,r_in,r_out,cum_reflection,cum_intrinsic"
    data = _read_csv(out)
    assert np.all(data[:, 2] <= 0.0)        # beta stays non-positive
    total = data[:, 1] ** 2 + data[:, 2] ** 2 + data[:, 6] + data[:, 7]
    assert np.max(np.abs(total - 1.0)) <= 1e-8


def test_simulate_on_a_table_of_slivers_names_the_least_tol(tmp_path,
                                                            capsys,
                                                            monkeypatch):
    """CI's two humps, closer together, tabulated every 0.005 on [0, 10]:
    at --tol 1e-13 every knot interval is shorter than the sliver span
    (7.4e-3), so no residual can be taken. The run exits 1 before any solve
    and writes no file, and the message names the least tol at which a
    0.005 interval gets a stencil. A tol outside [1e-13, 1e-6] still gets
    its own message. At 1e-12 the same table meets its 50 tol bound."""
    taus = np.linspace(0.0, 10.0, 2001)
    rates = 0.4 * np.exp(-0.5 * (taus - 3.0) ** 2) \
        + 0.6 * np.exp(-0.5 * ((taus - 6.5) / 1.1) ** 2)
    table = tmp_path / "fine.csv"
    np.savetxt(table, np.c_[taus, rates / np.trapezoid(rates, taus)],
               delimiter=",", fmt="%.17g")
    out = tmp_path / "trajectory.csv"
    argv = ["simulate", "--profile", f"table:{table}", "--kappa-i", "1e-4",
            "--out", str(out)]
    solves, solve = [], dynamics.solve_ivp
    monkeypatch.setattr(dynamics, "solve_ivp",
                        lambda *a, **k: solves.append(a[1]) or solve(*a, **k))
    assert cli.main(argv + ["--tol", "1e-13"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: every segment between the trajectory's "
                          "edges is shorter than 0.00739")
    assert "at tol 1e-13" in err and "tol >= 1.48e-13" in err
    assert not out.exists() and solves == []
    assert cli.main(argv + ["--tol", "1e-14"]) == 1
    assert "tol must lie in [1e-13, 1e-6]" in capsys.readouterr().err
    assert cli.main(argv + ["--tol", "1e-12"]) == 0
    captured = capsys.readouterr().out
    assert _stdout_value(captured, "energy balance residual") <= 50 * 1e-12


@pytest.mark.parametrize("literal", ["exp:r=0.036", "gauss:r=0.1533,n=4"])
def test_simulate_defaults_meet_residual_bound(literal, tmp_path, capsys):
    # the default --tol 1e-11 and its 50 tol bound, on the default grid
    out = tmp_path / "trajectory.csv"
    assert cli.main(["simulate", "--profile", literal, "--kappa-i", "1e-4",
                     "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert _stdout_value(captured, "energy balance residual") <= 5e-10
    assert len(out.read_text().splitlines()) - 1 < 5000


def test_simulate_reads_stage2_from_the_schedule(tmp_path, capsys):
    # the double hump returns to stage 1 at tau = 19.98 to 21.59, where the
    # memory reflects; `max stage-2 r_out` reads only stage-2 segments, and
    # read 3.7e-3 at tau = 20.86 when it took every tau >= tau_c
    pulse = _double_hump()
    table = tmp_path / "pulse.csv"
    np.savetxt(table, np.c_[pulse.taus, pulse.rates], delimiter=",",
               fmt="%.17g")
    out = tmp_path / "trajectory.csv"
    assert cli.main(["simulate", "--profile", f"table:{table}", "--kappa-i",
                     "1e-4", "--out", str(out)]) == 0
    assert _stdout_value(capsys.readouterr().out, "max stage-2 r_out") <= 1e-7
    data = _read_csv(out)
    sch = protocol.build_schedule(pulse, prof.MemoryParams(kappa_i=1e-4))
    resumed = (data[:, 0] > sch.tau_c) & (sch.stage(data[:, 0]) == 1)
    assert resumed.any() and np.max(data[resumed, 5]) > 1e-3


def test_simulate_constant_coupling_reflects(tmp_path, capsys):
    out = tmp_path / "closed.csv"
    assert cli.main(["simulate", "--profile", "exp:r=0.2",
                     "--kappa", "const:0", "--samples", "4001",
                     "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    # override mode reports the plain maximum (no stage-2 masking)
    assert "max r_out" in captured
    assert _stdout_value(captured, "max r_out") == pytest.approx(0.2, rel=1e-6)
    data = _read_csv(out)
    assert np.max(np.abs(data[:, 2])) == 0.0


@pytest.mark.parametrize("samples", [[], ["--samples", "0"]],
                         ids=["default-samples", "samples-0"])
@pytest.mark.parametrize("literal", ["exp:r=0.036", "gauss:r=0.1533,n=4",
                                     "table:double-hump"])
def test_simulate_round_trip_through_schedule_file(literal, samples, tmp_path):
    # export the schedule, feed it back via --kappa file:, compare; the
    # double hump resumes stage 1, and both runs restart at its knots
    if literal == "table:double-hump":
        pulse = _double_hump()
        literal = f"table:{tmp_path / 'pulse.csv'}"
        np.savetxt(tmp_path / "pulse.csv", np.c_[pulse.taus, pulse.rates],
                   delimiter=",", fmt="%.17g")
    op = ["--profile", literal, "--kappa-i", "1e-4"]
    sched = tmp_path / "sched"
    traj_inline = tmp_path / "inline.csv"
    traj_file = tmp_path / "fromfile.csv"
    assert cli.main(["schedule", *op, *samples, "--out", str(sched)]) == 0
    common = ["--tol", "1e-11", "--samples", "20001"]
    assert cli.main(["simulate", *op, *common,
                     "--out", str(traj_inline)]) == 0
    assert cli.main(["simulate", *op, *common,
                     "--kappa", f"file:{sched}.csv",
                     "--out", str(traj_file)]) == 0
    a = _read_csv(traj_inline)
    b = _read_csv(traj_file)
    assert a.shape == b.shape
    # the exported coupling reproduces the internal schedule essentially exactly
    assert np.max(np.abs(a[:, 2] - b[:, 2])) <= 1e-9   # beta
    assert abs(a[-1, 6] - b[-1, 6]) <= 1e-9            # cum_reflection


def test_simulate_coupling_file_with_a_one_row_plateau(tmp_path):
    # the plateau's one row starts and ends it: kappa 1.0 at tau = 1 is
    # both kinks, a repeated break that used to end in a traceback
    kappa = tmp_path / "k.csv"
    kappa.write_text("0,0.5\n1,1.0\n2,0.5\n")
    proc = _run([], ["simulate", "--profile", "exp:r=0.5", "--kappa",
                     f"file:{kappa}", "--out", str(tmp_path / "trajectory.csv")],
                tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(_read_csv(tmp_path / "trajectory.csv")) >= 3


@pytest.mark.parametrize("taus", [("0", "nan", "2"), ("0", "1", "inf")])
def test_simulate_coupling_file_with_a_non_finite_tau(taus, tmp_path):
    # a nan tau passed the increasing check and reached PCHIP's ValueError
    kappa = tmp_path / "k.csv"
    kappa.write_text("".join(f"{t},0.5\n" for t in taus))
    proc = _run([], ["simulate", "--profile", "exp:r=0.5", "--kappa",
                     f"file:{kappa}", "--out", str(tmp_path / "trajectory.csv")],
                tmp_path)
    assert proc.returncode == 1
    assert "error: coupling file" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("kind", ["profile", "kappa"])
def test_overflowing_pchip_is_input_error(kind, tmp_path):
    # a secant slope of 1e308 per unit (a table) or 1e308 per 1e-308 (a
    # coupling file) overflows PCHIP's knot slopes, which scipy rejects
    # with a ValueError
    csv = tmp_path / "samples.csv"
    if kind == "profile":
        csv.write_text("0,0\n1,1e308\n2,0\n")
        argv = ["schedule", "--profile", f"table:{csv}",
                "--out", str(tmp_path / "s")]
    else:
        csv.write_text("0,0\n1e-308,1\n2e-308,0\n3,0\n")
        argv = ["simulate", "--profile", "exp:r=0.5", "--kappa",
                f"file:{csv}", "--out", str(tmp_path / "trajectory.csv")]
    proc = _run([], argv, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "error: no PCHIP through these samples" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_residual_shrinks_with_tol(tmp_path, capsys):
    residuals = []
    for tol in ("1e-8", "1e-10"):
        out = tmp_path / f"t{tol}.csv"
        assert cli.main(["simulate", *EXP_OP, "--tol", tol,
                         "--out", str(out)]) == 0
        residuals.append(_stdout_value(capsys.readouterr().out,
                                       "energy balance residual"))
    assert residuals[1] < 0.5 * residuals[0]


@pytest.mark.parametrize("samples", ["2", "0", "-3"])
def test_simulate_too_few_samples_is_input_error(samples, tmp_path, capsys,
                                                monkeypatch):
    _no_solve(monkeypatch)
    out = tmp_path / "trajectory.csv"
    assert cli.main(["simulate", *EXP_OP, "--samples", samples,
                     "--out", str(out)]) == 1
    assert "--samples must be >= 3" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_grid_coarser_than_table_knots_is_input_error(tmp_path,
                                                              capsys):
    # 11 samples across 100 knot intervals leave no segment between knots
    # with 3 samples: there is no residual to report, and no file is written
    taus = np.linspace(0.0, 10.0, 101)
    rates = np.exp(-0.5 * (taus - 4.0) ** 2)
    table = tmp_path / "pulse.csv"
    np.savetxt(table, np.c_[taus, rates / np.trapezoid(rates, taus)],
               delimiter=",", fmt="%.17g")
    out = tmp_path / "trajectory.csv"
    assert cli.main(["simulate", "--profile", f"table:{table}", "--kappa-i",
                     "1e-4", "--samples", "11", "--out", str(out)]) == 1
    assert "holds 3 samples" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["simulate", "--profile", f"table:{table}", "--kappa-i",
                     "1e-4", "--out", str(out)]) == 0


def test_simulate_bad_kappa_literals(tmp_path):
    assert cli.main(["simulate", *EXP_OP, "--kappa", "const:1.5",
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert cli.main(["simulate", *EXP_OP, "--kappa", "warp:9",
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert cli.main(["simulate", *EXP_OP, "--kappa", "file:/no/such.csv",
                     "--out", str(tmp_path / "x.csv")]) == 1


SWEEP_R = ["sweep", "--profile", "exp", "--grid-r", "0.1", "--grid-ki"]


@pytest.mark.parametrize("argv,message", [
    ([*SWEEP_R, "1e-4:x:5:log"], "bad number in grid literal '1e-4:x:5:log'"),
    ([*SWEEP_R, "1e-2:1e-4:5:log"], "grid literal needs hi > lo and n >= 1"),
    ([*SWEEP_R, "0:1e-2:5:log"], "log grids need lo > 0"),
    ([*SWEEP_R, "1e-4,abc"], "bad number in grid literal '1e-4,abc'"),
    ([*SWEEP_R, ","], "empty grid literal"),
    (["simulate", *EXP_OP, "--kappa", "file:{one_row}"],
     "needs at least two finite rows"),
    (["simulate", *EXP_OP, "--kappa", "file:{backwards}"],
     "taus must be finite and strictly increasing"),
    (["simulate", *EXP_OP, "--kappa", "foo"],
     "--kappa takes const:<value> or file:<path>, got 'foo'"),
    (["simulate", *EXP_OP, "--kappa", "const:abc"],
     "bad constant coupling 'abc'")],
    ids=["grid-bad-number", "grid-hi-below-lo", "log-grid-at-zero",
         "list-bad-number", "empty-list", "kappa-file-one-row",
         "kappa-file-backwards", "kappa-no-kind", "kappa-const-bad-number"])
def test_bad_literal_is_input_error(argv, message, tmp_path, capsys):
    (tmp_path / "one_row.csv").write_text("0,0.5\n")
    (tmp_path / "backwards.csv").write_text("0,0.5\n2,0.5\n1,0.5\n")
    argv = [a.format(one_row=tmp_path / "one_row.csv",
                     backwards=tmp_path / "backwards.csv") for a in argv]
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and not out.exists()


def _table_rows(path):
    p = prof.parse_profile(f"table:{path}")
    return p.taus.tolist(), p.rates.tolist()


def _coupling_rows(path):
    kappa_fn, t_end = cli._load_kappa_csv(str(path))
    taus = [0.0, 1.0, t_end]
    return taus, [kappa_fn(t) for t in taus]


@pytest.mark.parametrize("load", [_table_rows, _coupling_rows],
                         ids=["profile-table", "coupling-file"])
def test_two_column_loaders_read_the_same_file(tmp_path, load):
    path = tmp_path / "two.csv"
    path.write_text('tau,"value"\n0.0,"0.5"\n\n1.0,0.25\n"2.0",0.125\n')
    assert load(path) == ([0.0, 1.0, 2.0], [0.5, 0.25, 0.125])


def test_two_column_loaders_keep_their_non_finite_policy(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("tau,value\n0.0,0.5\n1.0,nan\n2.0,0.125\n")
    kappa_fn, _ = cli._load_kappa_csv(str(path))   # drops the nan row
    assert kappa_fn(2.0) == 0.125
    with pytest.raises(DomainError):               # tables reject it
        prof.parse_profile(f"table:{path}")


def test_coupling_file_is_scipys_pchip_bit_for_bit(tmp_path):
    """Inside the file's span the coupling is scipy's PCHIP through the
    clipped rows, evaluated by `profiles._Piecewise.at`, bit for bit."""
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(7)
    taus = np.cumsum(rng.uniform(0.01, 0.5, 400))
    kappas = np.minimum(1.0, np.abs(np.sin(taus)) * 1.2)
    path = tmp_path / "kappa.csv"
    path.write_text("tau,kappa\n" + "".join(
        f"{t!r},{k!r}\n" for t, k in zip(taus.tolist(), kappas.tolist())))
    kappa_fn, t_end = cli._load_kappa_csv(str(path))
    pp = PchipInterpolator(taus, kappas, extrapolate=False)
    for t in rng.uniform(taus[0], t_end, 2000).tolist():
        assert kappa_fn(t) == min(1.0, max(0.0, float(pp(t)))), t


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_with_explicit_grids(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    rc = cli.main(["sweep", "--profile", "exp",
                   "--grid-ki", "1e-4:1e-3:2:log",
                   "--grid-r", "0.1:0.3:3:lin",
                   "--out", str(out)])
    assert rc == 0
    assert "6 cells, 0 failed" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "kappa_i,r,fidelity,tau_c,tau_max"
    assert len(lines) == 7


def test_sweep_reruns_identically(tmp_path):
    args = ["sweep", "--profile", "gauss",
            "--grid-ki", "1e-4,1e-3", "--grid-r", "0.1,0.2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main([*args, "--out", str(a)]) == 0
    assert cli.main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_needs_both_grid_flags(tmp_path):
    assert cli.main(["sweep", "--profile", "exp",
                     "--grid-ki", "1e-4",
                     "--out", str(tmp_path / "s.csv")]) == 1


def test_sweep_bad_grid_literal(tmp_path):
    assert cli.main(["sweep", "--profile", "exp",
                     "--grid-ki", "1e-4:1e-3:2:cubic",
                     "--grid-r", "0.1,0.2",
                     "--out", str(tmp_path / "s.csv")]) == 1


def test_sweep_records_degenerate_gauss_rates_as_failed_cells(tmp_path, capsys):
    # r = 0 and r = 1e-300 raised ZeroDivisionError with a traceback (exit 1).
    # The out-of-range grid warns in a plain line, as `schedule` does: no
    # install path, no line number of cli.py.
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--profile", "gauss", "--grid-ki", "1e-4",
                     "--grid-r", "0,1e-300,0.5", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: grid extends beyond the standard "
                            "ranges kappa_i <= 1e-2, r in [0.05, 1]\n")
    assert "3 cells, 2 failed" in captured.out
    rows = out.read_text().strip().split("\n")[1:]
    assert [row.split(",")[2] == "nan" for row in rows] == [True, True, False]


@pytest.mark.parametrize("grid", [("1e-4,1e-3", "0.1,nan"),
                                  ("nan,1e-3", "0.1,0.2"),
                                  ("1e-4,inf", "0.1,0.2"),
                                  ("1e-4,1e-3", "-inf,0.2")],
                         ids=["r-nan", "ki-nan", "ki-inf", "r-inf"])
def test_sweep_non_finite_grid_is_input_error(grid, tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--profile", "gauss", f"--grid-ki={grid[0]}",
                     f"--grid-r={grid[1]}", "--out", str(out)]) == 1
    assert "grid values must be finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all_passes(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "all", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert len(payload["checks"]) == 12
    assert all(c["pass"] for c in payload["checks"])
    assert captured.count("PASS") == 12
    names = {c["name"] for c in payload["checks"]}
    assert "master-equation/exp/reduction" in names
    assert "semiclassical/gauss/coupling-deviation" in names


def test_master_equation_checks_equal_per_sample_loops(monkeypatch):
    """The reduction, trace and ground-state checks take the states as one
    array; they equal per-sample loops over it, bit for bit."""
    runs = {}

    def record(name):
        run = getattr(dynamics, name)

        def recorded(*args, **kwargs):
            runs[name] = run(*args, **kwargs)
            return runs[name]
        monkeypatch.setattr(dynamics, name, recorded)
    record("simulate_master_equation")
    record("simulate_amplitudes")
    checks = {c["name"].rsplit("/", 1)[1]: c["value"]
              for c in cli._master_equation_checks("exp", 1.0)}
    rho, traj = runs["simulate_master_equation"], runs["simulate_amplitudes"]
    reduction = trace = ground = 0.0
    for i in range(len(rho)):
        psi = np.array([traj.beta1[i], traj.beta[i]])
        reduction = max(reduction, float(np.max(np.abs(
            rho[i, 1:, 1:] - np.outer(psi, psi)))))
        trace = max(trace, abs(float(np.real(np.trace(rho[i]))) - 1.0))
        ground = max(ground, abs(rho[i, 0, 0].real - (
            traj.cum_reflection[i] + traj.cum_intrinsic[i])))
    assert (checks["reduction"], checks["trace"],
            checks["ground-state-bookkeeping"]) == (reduction, trace, ground)


def test_verify_fault_injection_detected(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = cli.main(["verify", "semiclassical",
                   "--inject-kappa-scale", "1.01", "--out", str(out)])
    assert rc == 4
    payload = json.loads(out.read_text())
    assert payload["pass"] is False
    assert payload["kappa_scale"] == pytest.approx(1.01)
    assert "FAIL" in capsys.readouterr().out
    # a 1% coupling error shows up as ~1% relative deviation
    dev = payload["checks"][0]["value"]
    assert 5e-3 < dev < 2e-2


def test_verify_zero_kappa_scale_fails(tmp_path, capsys):
    # a zero coupling leaves no sample to compare: that is a failed check,
    # not a deviation of 0 (it used to print PASS and exit 0)
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "semiclassical", "--inject-kappa-scale", "0",
                     "--out", str(out)]) == 4
    payload = json.loads(out.read_text())
    assert payload["pass"] is False
    assert [c["value"] for c in payload["checks"]] == ["inf", "inf"]
    captured = capsys.readouterr().out
    assert captured.count("FAIL semiclassical/") == 2
    assert "PASS" not in captured


def test_verify_rejects_unknown_target(tmp_path):
    assert cli.main(["verify", "everything",
                     "--out", str(tmp_path / "v.json")]) == 1


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-1", "10.5",
                                   "1e300"])
def test_verify_rejects_bad_kappa_scale(scale, tmp_path, capsys, monkeypatch):
    # nan and inf used to spin in DOP853 for minutes, -1 died in math.sqrt;
    # the solve stiffens with the scale (1e300 did not finish in 120 s), and
    # past ten times kappa_max it is no fault injection
    _no_solve(monkeypatch)
    out = tmp_path / "v.json"
    assert cli.main(["verify", f"--inject-kappa-scale={scale}",
                     "--out", str(out)]) == 1
    assert "--inject-kappa-scale must be finite and >= 0" \
        in capsys.readouterr().err
    assert not out.exists()


def test_verify_takes_kappa_scale_ten(tmp_path, monkeypatch):
    # ten times kappa_max is the largest injected fault: it passes the flag
    # check and reaches the first solve
    _no_solve(monkeypatch)
    with pytest.raises(AssertionError, match="a solve started"):
        cli.main(["verify", "--inject-kappa-scale=10",
                  "--out", str(tmp_path / "v.json")])
