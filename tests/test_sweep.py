"""Fidelity surfaces, loss budgets per cell, and the loss-optimal input rate."""
from __future__ import annotations

import math
import os
import stat
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from pulsecatch import profiles as prof
from pulsecatch import protocol
from pulsecatch import sweep
from pulsecatch.errors import BoundaryMaximumWarning, DomainError, NoThreshold


def _budget_defect(rep: protocol.TransferReport) -> float:
    return abs(rep.fidelity + rep.loss_stage1_reflection + rep.loss_intrinsic
               + rep.loss_unabsorbed - 1.0)


# ---------------------------------------------------------------------------
# single cells
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ki", [1e-5, 1e-4, 1e-2])
@pytest.mark.parametrize("r", [0.05, 0.5, 1.0])
def test_exp_cell_budget_closes(r, ki):
    # the r -> 1, kappa_i -> 0 corner is the cancellation-prone one
    assert _budget_defect(sweep._exp_cell(r, ki)) <= 1e-12


@pytest.mark.parametrize("ki", [1e-5, 1e-2])
@pytest.mark.parametrize("r", [0.05, 0.1533, 1.0])
def test_gauss_cell_budget_closes(r, ki):
    assert _budget_defect(sweep._gauss_cell(r, ki)) <= 1e-12


@pytest.mark.parametrize("r,ki,tau_c", [
    (1.0, 0.0, 1.0),            # s = 1 + ki - r = 0 exactly
    (0.3, 5e-3, 1.9),
    (1.0, 1e-5, 1.0000067),
    (0.05, 1e-2, 0.73),
])
def test_exp_stage1_integrals_match_quadrature(r, ki, tau_c):
    s = 1.0 + ki - r

    def phi(t: float) -> float:
        return t if s == 0.0 else -2.0 * math.expm1(-0.5 * s * t) / s

    want_pop = quad(lambda t: r * math.exp(-r * t) * phi(t) ** 2,
                    0.0, tau_c, epsabs=1e-15, epsrel=1e-13)[0]
    want_out = quad(lambda t: r * math.exp(-r * t) * (1.0 - phi(t)) ** 2,
                    0.0, tau_c, epsabs=1e-15, epsrel=1e-13)[0]
    got_pop, got_out = sweep._exp_stage1_integrals(r, ki, tau_c)
    assert got_pop == pytest.approx(want_pop, abs=1e-12)
    assert got_out == pytest.approx(want_out, abs=1e-12)


@pytest.mark.parametrize("r,ki", [(0.1, 1e-4), (0.7, 2e-3)])
def test_exp_cell_agrees_with_generic_solver(r, ki):
    fast = sweep._exp_cell(r, ki)
    slow = sweep._generic_cell(prof.exponential(r), ki)
    assert fast.tau_c == pytest.approx(slow.tau_c, abs=1e-9)
    assert fast.fidelity == pytest.approx(slow.fidelity, abs=1e-9)
    assert fast.tau_max == pytest.approx(slow.tau_max, abs=1e-5)
    assert fast.loss_stage1_reflection == pytest.approx(
        slow.loss_stage1_reflection, abs=1e-7)
    assert fast.loss_intrinsic == pytest.approx(slow.loss_intrinsic, abs=1e-7)


def test_gauss_cell_agrees_with_generic_solver():
    r, ki = 0.1533, 1e-4
    fast = sweep._gauss_cell(r, ki)
    slow = sweep._generic_cell(prof.gaussian(r=r), ki)
    assert fast.tau_c == pytest.approx(slow.tau_c, abs=1e-9)
    assert fast.fidelity == pytest.approx(slow.fidelity, abs=1e-9)
    assert fast.loss_stage1_reflection == pytest.approx(
        slow.loss_stage1_reflection, abs=1e-7)


def test_exp_cell_falls_back_when_closed_form_inapplicable():
    # kappa_i >= r: exp_report raises, the sweep silently reroutes
    rep = sweep._evaluate_cell("exp", 0.05, 1e-2)
    assert isinstance(rep, protocol.TransferReport)
    assert math.isfinite(rep.tau_max)
    assert 0.0 < rep.fidelity < 1.0


# ---------------------------------------------------------------------------
# surface evaluation
# ---------------------------------------------------------------------------

def test_surface_shape_and_indexing():
    kis = (1e-4, 1e-3)
    rs = (0.1, 0.3, 0.6)
    grid = sweep.fidelity_surface("exp", grid=(kis, rs))
    assert grid.family == "exp"
    assert grid.kappa_is == kis and grid.rs == rs
    mat = grid.fidelity_matrix()
    assert mat.shape == (2, 3)
    assert np.all(np.isfinite(mat))
    # spot check one cell against the direct evaluation
    direct = sweep._exp_cell(0.3, 1e-3)
    assert mat[1, 1] == pytest.approx(direct.fidelity, rel=1e-14)


def test_surface_records_failures_as_nan():
    def spiky(r):
        if r > 0.5:
            raise DomainError("no profile past 0.5")
        return prof.exponential(r)

    grid = sweep.fidelity_surface(spiky, grid=([1e-4], [0.1, 0.4, 0.7]))
    assert grid.family == "spiky"
    mat = grid.fidelity_matrix()
    assert np.isfinite(mat[0, :2]).all()
    assert np.isnan(mat[0, 2])
    failure = grid.results[0][2]
    assert isinstance(failure, sweep.CellFailure)
    assert "no profile past 0.5" in failure.error


def test_surface_records_typed_errors_only():
    def no_threshold(r):
        raise NoThreshold("never reaches the threshold")

    grid = sweep.fidelity_surface(no_threshold, grid=([1e-4], [0.1]))
    failure = grid.results[0][0]
    assert isinstance(failure, sweep.CellFailure)
    assert failure.error == "NoThreshold: never reaches the threshold"

    def buggy(r):
        raise TypeError("a bug, not a cell failure")

    with pytest.raises(TypeError, match="a bug"):
        sweep.fidelity_surface(buggy, grid=([1e-4], [0.1]))


def test_gauss_closed_form_overflow_is_a_typed_cell_failure():
    # sigma = 399 and kappa_i = 0.26: e^{kappa_i^2 sigma^2/4} overflows.
    with pytest.warns(UserWarning, match="beyond the standard ranges"):
        grid = sweep.fidelity_surface("gauss", grid=([0.26], [0.001, 0.1]))
    failure, cell = grid.results[0]
    assert isinstance(failure, sweep.CellFailure)
    assert failure.error.startswith("DomainError: Gaussian closed form overflows")
    assert not isinstance(cell, sweep.CellFailure)


def test_surface_monotone_in_kappa_i():
    # more intrinsic loss can never help, at any rate, for either family
    kis = np.geomspace(1e-5, 1e-2, 5)
    rs = np.linspace(0.05, 1.0, 9)
    for family in ("exp", "gauss"):
        mat = sweep.fidelity_surface(family, grid=(kis, rs)).fidelity_matrix()
        assert np.all(np.diff(mat, axis=0) < 0.0), family


def test_surface_rows_unimodal():
    kis = (1e-3,)
    rs = np.linspace(0.05, 1.0, 24)
    for family in ("exp", "gauss"):
        row = sweep.fidelity_surface(family, grid=(kis, rs)).fidelity_matrix()[0]
        drops = np.diff(row) < 0.0
        # once the row starts falling it never rises again
        first_drop = int(np.argmax(drops)) if drops.any() else len(row)
        assert np.all(drops[first_drop:]), family


@pytest.mark.parametrize("bad_grid", [
    ((), (0.1,)),
    ((1e-4,), ()),
    ((0.0, 1e-3), (0.1,)),          # kappa_i must be positive
    ((1e-3, 1e-4), (0.1,)),         # descending
    ((1e-4,), (0.3, 0.1)),          # descending
])
def test_surface_rejects_bad_grids(bad_grid):
    with pytest.raises(DomainError):
        sweep.fidelity_surface("exp", grid=bad_grid)


def test_surface_warns_beyond_standard_ranges():
    with pytest.warns(UserWarning, match="beyond the standard ranges"):
        sweep.fidelity_surface("exp", grid=((2e-2,), (0.1,)))
    with pytest.warns(UserWarning, match="beyond the standard ranges"):
        sweep.fidelity_surface("exp", grid=((1e-4,), (0.01,)))


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        sweep.fidelity_surface("lorentz", grid=((1e-4,), (0.1,)))
    with pytest.raises(DomainError):
        sweep.fidelity_surface(42, grid=((1e-4,), (0.1,)))


def test_family_aliases():
    a = sweep.fidelity_surface("exponential", grid=((1e-4,), (0.2,)))
    b = sweep.fidelity_surface("exp", grid=((1e-4,), (0.2,)))
    assert a.fidelity_matrix()[0, 0] == b.fidelity_matrix()[0, 0]


# ---------------------------------------------------------------------------
# optimal rate
# ---------------------------------------------------------------------------

def test_optimal_rate_interior_exponential():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no boundary warning expected here
        r_star, f_star = sweep.optimal_rate("exp", 1e-3)
    assert r_star == pytest.approx(0.10061, abs=2e-3)
    assert f_star == pytest.approx(0.919368, abs=1e-4)


def test_optimal_rate_interior_gaussian():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r_star, f_star = sweep.optimal_rate("gauss", 1e-4)
    assert r_star == pytest.approx(0.15336, abs=2e-3)
    assert f_star == pytest.approx(0.998749, abs=1e-4)


def test_optimal_rate_warns_on_boundary():
    # at kappa_i = 1e-4 the exponential optimum sits below r = 0.05
    with pytest.warns(BoundaryMaximumWarning):
        r_star, _ = sweep.optimal_rate("exp", 1e-4)
    assert r_star < 0.051


def test_optimal_rate_monotone_in_kappa_i():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryMaximumWarning)
        stars = [sweep.optimal_rate("gauss", ki)[0] for ki in (1e-5, 1e-4, 1e-3)]
    assert stars[0] <= stars[1] <= stars[2]


@pytest.mark.parametrize("ki", [0.0, -1e-3, 2e-2])
def test_optimal_rate_domain(ki):
    with pytest.raises(DomainError):
        sweep.optimal_rate("exp", ki)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_surface_csv_round_trip(tmp_path):
    kis = (1e-4, 1e-3)
    rs = (0.1, 0.4)
    grid = sweep.fidelity_surface("exp", grid=(kis, rs))
    path = tmp_path / "surface.csv"
    sweep.write_surface_csv(grid, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "kappa_i,r,fidelity,tau_c,tau_max"
    assert len(lines) == 1 + len(kis) * len(rs)
    # row-major order and full precision
    first = lines[1].split(",")
    assert float(first[0]) == kis[0] and float(first[1]) == rs[0]
    assert float(first[2]) == grid.fidelity_matrix()[0, 0]


def test_surface_csv_deterministic(tmp_path):
    grid1 = sweep.fidelity_surface("gauss", grid=((1e-4,), (0.1, 0.2)))
    grid2 = sweep.fidelity_surface("gauss", grid=((1e-4,), (0.1, 0.2)))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep.write_surface_csv(grid1, p1)
    sweep.write_surface_csv(grid2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_surface_csv_failed_cells_are_nan(tmp_path):
    def broken(r):
        raise NoThreshold("always fails")

    grid = sweep.fidelity_surface(broken, grid=((1e-4,), (0.1,)))
    path = tmp_path / "failed.csv"
    sweep.write_surface_csv(grid, path)
    row = path.read_text().strip().split("\n")[1].split(",")
    assert row[2] == "nan" and row[3] == "nan" and row[4] == "nan"


def test_surface_csv_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    grid = sweep.fidelity_surface("exp", grid=((1e-4,), (0.1,)))
    path = tmp_path / "surface.csv"
    path.write_text("previous\n")

    def failing_replace(src, dst):
        raise OSError("synthetic rename failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        sweep.write_surface_csv(grid, path)
    assert path.read_text() == "previous\n"
    assert not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600),
                                         (0o002, 0o664)],
                         ids=["022", "077", "002"])
def test_surface_csv_mode_follows_umask(tmp_path, umask, mode):
    grid = sweep.fidelity_surface("exp", grid=((1e-4,), (0.1,)))
    path = tmp_path / "surface.csv"
    previous = os.umask(umask)
    try:
        sweep.write_surface_csv(grid, path)
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode
