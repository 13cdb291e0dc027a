"""Command-line interface: exit codes, file outputs and round trips.

Everything runs in-process through `cli.main` so coverage and monkeypatching
work; one subprocess test confirms the module entry point is wired up.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from pulsecatch import cli, closedform
from pulsecatch import profiles as prof
from pulsecatch import protocol
from pulsecatch.errors import (DomainError, NoPeak, NoThreshold,
                               SingularCoupling, StepFailure)

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

    monkeypatch.setattr(cli.protocol, "build_schedule", raise_nothreshold)
    rc = cli.main(["schedule", *EXP_OP, "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err


def test_step_failure_maps_to_step_exit(tmp_path, monkeypatch, capsys):
    def raise_stepfailure(*args, **kwargs):
        raise StepFailure("synthetic", tau=1.0)

    monkeypatch.setattr(cli.dynamics, "simulate_amplitudes", raise_stepfailure)
    rc = cli.main(["simulate", *EXP_OP, "--out", str(tmp_path / "t.csv")])
    assert rc == 3
    assert "integration failure" in capsys.readouterr().err


def test_singular_coupling_maps_to_infeasible_exit(tmp_path, capsys):
    # kappa_i = 0.9 drains the stage-2 population to zero while the input
    # still arrives, so the zero-reflection coupling is undefined.
    rc = cli.main(["simulate", "--profile", "exp:r=0.05", "--kappa-i", "0.9",
                   "--samples", "201", "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "infeasible:" in capsys.readouterr().err


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
    # both polishes of tau_c refuse the scan's bracket (see test_protocol)
    monkeypatch.setattr(protocol, "_stage1_anchored",
                        lambda *args: (lambda t: 1.0))
    monkeypatch.setattr(protocol, "_float_dense", lambda sol: (lambda t: 1.0))
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
                            lambda *args: -1.0)
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


def test_unwritable_output_is_input_error(tmp_path):
    rc = cli.main(["schedule", *EXP_OP,
                   "--out", str(tmp_path / "no" / "such" / "dir" / "s")])
    assert rc == 1


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "pulsecatch", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pulsecatch" in proc.stdout


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


def test_schedule_lossless_infinite_peak_is_json_safe(tmp_path):
    out = tmp_path / "lossless"
    assert cli.main(["schedule", "--profile", "exp:r=0.2",
                     "--out", str(out)]) == 0
    payload = json.loads(out.with_suffix(".json").read_text())
    # non-finite floats are carried as strings so the JSON stays parseable
    assert payload["tau_max"] == "inf"
    assert 0.92 < payload["fidelity"] < 0.93


def test_schedule_singular_rows_are_nan(tmp_path):
    # kappa_i = 0.9 drains the population while input still arrives: the
    # file carries nan in kappa and r_out exactly where kappa is undefined.
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


def test_simulate_round_trip_through_schedule_file(tmp_path):
    # export the schedule, feed it back via --kappa file:, compare
    sched = tmp_path / "sched"
    traj_inline = tmp_path / "inline.csv"
    traj_file = tmp_path / "fromfile.csv"
    assert cli.main(["schedule", *EXP_OP, "--out", str(sched)]) == 0
    common = ["--tol", "1e-11", "--samples", "20001"]
    assert cli.main(["simulate", *EXP_OP, *common,
                     "--out", str(traj_inline)]) == 0
    assert cli.main(["simulate", *EXP_OP, *common,
                     "--kappa", f"file:{sched}.csv",
                     "--out", str(traj_file)]) == 0
    a = _read_csv(traj_inline)
    b = _read_csv(traj_file)
    assert a.shape == b.shape
    # the exported coupling reproduces the internal schedule essentially exactly
    assert np.max(np.abs(a[:, 2] - b[:, 2])) <= 1e-9   # beta
    assert abs(a[-1, 6] - b[-1, 6]) <= 1e-9            # cum_reflection


def test_simulate_residual_shrinks_with_tol(tmp_path, capsys):
    residuals = []
    for tol in ("1e-8", "1e-10"):
        out = tmp_path / f"t{tol}.csv"
        assert cli.main(["simulate", *EXP_OP, "--tol", tol,
                         "--out", str(out)]) == 0
        residuals.append(_stdout_value(capsys.readouterr().out,
                                       "energy balance residual"))
    assert residuals[1] < 0.5 * residuals[0]


def test_simulate_bad_kappa_literals(tmp_path):
    assert cli.main(["simulate", *EXP_OP, "--kappa", "const:1.5",
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert cli.main(["simulate", *EXP_OP, "--kappa", "warp:9",
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert cli.main(["simulate", *EXP_OP, "--kappa", "file:/no/such.csv",
                     "--out", str(tmp_path / "x.csv")]) == 1


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


def test_verify_rejects_unknown_target(tmp_path):
    assert cli.main(["verify", "everything",
                     "--out", str(tmp_path / "v.json")]) == 1
