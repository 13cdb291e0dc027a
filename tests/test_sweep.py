"""Fidelity surfaces, loss budgets per cell, and the loss-optimal input rate."""
from __future__ import annotations

import math
import os
import stat
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from pulsecatch import closedform as cf
from pulsecatch import profiles as prof
from pulsecatch import protocol
from pulsecatch import sweep
from pulsecatch.errors import (BoundaryMaximumWarning, DomainError, NoThreshold,
                               PulsecatchError)


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
    """Not an independent check any more: `closedform.gauss_losses` takes
    every term from one cumulative and takes beta^2(tau_max) from F, so the
    budget closes by algebra. The losses' own oracles are quadratures in
    test_closedform."""
    assert _budget_defect(*sweep._cells("gauss", (ki,), (r,))) <= 1e-12


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
    got_pop, got_out = cf._exp_stage1_integrals(r, ki, tau_c)
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
    (fast,) = sweep._cells("gauss", (ki,), (r,))
    slow = sweep._generic_cell(prof.gaussian(r=r), ki)
    assert fast.tau_c == pytest.approx(slow.tau_c, abs=1e-9)
    assert fast.fidelity == pytest.approx(slow.fidelity, abs=1e-9)
    assert fast.loss_stage1_reflection == pytest.approx(
        slow.loss_stage1_reflection, abs=1e-7)


def test_exp_cell_falls_back_when_closed_form_inapplicable():
    # kappa_i >= r: exp_report raises, the sweep silently reroutes
    (rep,) = sweep._cells("exp", (1e-2,), (0.05,))
    assert isinstance(rep, protocol.TransferReport)
    assert math.isfinite(rep.tau_max)
    assert 0.0 < rep.fidelity < 1.0


def test_exp_surface_falls_back_to_the_generic_cell():
    """In a surface, an exp cell with kappa_i >= r is the generic solver's
    report, bit for bit, flagged kappa_i_ge_r; the cell with kappa_i < r
    keeps its closed form."""
    with pytest.warns(UserWarning, match="beyond the standard ranges"):
        grid = sweep.fidelity_surface("exp", ([0.2], [0.1, 0.5]))
    generic, closed = grid.results[0]
    assert generic == sweep._generic_cell(prof.exponential(0.1), 0.2)
    assert generic.flags == ("kappa_i_ge_r",)
    assert closed == sweep._exp_cell(0.5, 0.2) and closed.flags == ()


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


def _cell_fields(cell) -> tuple:
    """A cell's values as bit patterns, or its failure text."""
    if isinstance(cell, sweep.CellFailure):
        return (cell.error,)
    return tuple(float(v).hex() for v in (
        cell.tau_c, cell.tau_max, cell.fidelity, cell.loss_stage1_reflection,
        cell.loss_intrinsic, cell.loss_unabsorbed))


def _scalar_cell(r: float, ki: float) -> tuple:
    """_cell_fields of the cell as the scalar closed forms give it."""
    n = prof.DEFAULT_GAUSSIAN_OFFSET
    with np.errstate(divide="ignore"):
        sigma = float(1.0 / (np.float64(r) * cf.SQRT_2PI))
    try:
        tau_c = cf.gauss_constants(sigma, n, ki).tau_c
        tau_max, fid = cf.gauss_report(sigma, n, ki)
        losses = cf.gauss_losses(sigma, n, ki, tau_max)
    except PulsecatchError as exc:
        return (f"{type(exc).__name__}: {exc}",)
    return tuple(float(v).hex() for v in (tau_c, tau_max, fid, *losses))


@pytest.mark.parametrize("kis,rs", [
    (sweep.DEFAULT_KAPPA_I_GRID, sweep.DEFAULT_R_GRID),
    # r = 0 and 1e-300 (domain), kappa_i sigma = 104 (0.26, 0.001) and 7.0
    # (0.7109514, 0.0404634), and narrow pulses beside them
    ((0.26, 0.7109514), (0.0, 1e-300, 0.001, 0.0404634, 1.0)),
], ids=["default", "edge"])
def test_gauss_grid_cells_equal_single_cells(kis, rs):
    # A Gaussian grid is one array evaluation; each of its cells is what the
    # scalar closed forms give that cell alone, bit for bit, and a failed
    # cell carries the error they raise, word for word.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        grid = sweep.fidelity_surface("gauss", grid=(kis, rs))
    for ki, row in zip(grid.kappa_is, grid.results):
        for r, cell in zip(grid.rs, row):
            assert _cell_fields(cell) == _scalar_cell(r, ki), (ki, r)
    assert sum(isinstance(c, sweep.CellFailure) for row in grid.results
               for c in row) == (0 if len(rs) == 40 else 4)


def test_gauss_degenerate_rates_are_typed_cell_failures():
    # r = 0 gives sigma = inf, and r = 1e-300 a b = 1/(4 sigma^2) that
    # underflows to 0: both raised ZeroDivisionError out of the sweep. A
    # pulse so wide that its threshold search cannot settle on the bracket
    # [0, tau0 + 10 sigma] raised brentq's bare RuntimeError.
    with pytest.warns(UserWarning, match="beyond the standard ranges"):
        grid = sweep.fidelity_surface("gauss", grid=([1e-4], [0.0, 1e-300, 0.5]))
    zero, tiny, fine = grid.results[0]
    assert zero.error == "DomainError: sigma must be positive and finite, got inf"
    assert tiny.error.startswith("DomainError: b = 1/(4 sigma^2) is not a "
                                 "normal float")
    assert isinstance(fine, protocol.TransferReport)
    with pytest.raises(DomainError, match="did not settle"):
        cf.gauss_report(1e150, 4.0, 1e-4)


def test_gauss_closed_form_overflow_is_a_typed_cell_failure():
    # sigma = 399 and kappa_i = 0.26: the stage-2 weight e^{kappa_i^2
    # sigma^2/2} overflows (this cell was a DomainError, hence the name).
    # The erfcx form never forms it, so both cells are results.
    with pytest.warns(UserWarning, match="beyond the standard ranges"):
        grid = sweep.fidelity_surface("gauss", grid=([0.26], [0.001, 0.1]))
    assert all(isinstance(cell, protocol.TransferReport)
               for cell in grid.results[0])


def test_gauss_closed_form_digit_loss_is_a_typed_cell_failure():
    # kappa_i*sigma = 7.0: the stage-2 erf difference keeps no digit (this
    # cell was a DomainError, hence the name). The erfcx form gives the
    # generic solver's F.
    with pytest.warns(UserWarning, match="beyond the standard ranges"):
        grid = sweep.fidelity_surface("gauss", grid=([0.7109514], [0.0404634]))
    cell = grid.results[0][0]
    assert isinstance(cell, protocol.TransferReport)
    slow = sweep._generic_cell(prof.gaussian(r=0.0404634), 0.7109514)
    assert abs(cell.fidelity - slow.fidelity) <= 1e-14


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


@pytest.mark.parametrize("bad_grid", [
    ((1e-4, 1e-3), (0.1, math.nan)),
    ((math.nan, 1e-3), (0.1,)),
    ((1e-4, math.inf), (0.1,)),
    ((1e-4,), (-math.inf, 0.1)),
    ((1e-4,), (0.1, math.inf)),
], ids=["r-nan", "ki-nan", "ki-inf", "r-minus-inf", "r-inf"])
@pytest.mark.parametrize("family", ["exp", "gauss"])
def test_surface_rejects_non_finite_grid_values(family, bad_grid):
    # nan passes both `k <= 0` and the sortedness check: it used to give
    # nan rows and a "failed" count, with exit 0 from the CLI
    with pytest.raises(DomainError, match="grid values must be finite"):
        sweep.fidelity_surface(family, grid=bad_grid)


def test_surface_takes_at_most_max_cells():
    """A 257 x 256 Gaussian grid is one row past the cap, 2^16 cells (about
    320 MB of tracemalloc at 4.9 KB a cell): a DomainError before any
    cell."""
    grid = (np.geomspace(1e-5, 1e-2, 257), np.linspace(0.05, 1.0, 256))
    with pytest.raises(DomainError, match="at most 65,536 cells"):
        sweep.fidelity_surface("gauss", grid=grid)


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


def test_optimal_rate_raises_a_failed_cells_error():
    """A cell's typed error ends the search: here every pulse of the family
    fails its offset check."""
    with pytest.raises(DomainError, match="offset multiplier"):
        sweep.optimal_rate(lambda r: prof.gaussian(r=r, n=2.0), 1e-4)


@pytest.mark.parametrize("ki", [1e-5, 1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("fam", ["exp", "gauss"])
def test_optimal_rate_matches_dense_row(fam, ki):
    """r* lies within 1e-4 of the best of 19,001 rates 5e-5 apart, and F*
    is at most 1e-9 below it. At kappa_i = 1e-5 the exponential maximum is
    the r = 0.05 edge, which the search returns exactly."""
    rs = np.linspace(*sweep.R_RANGE, 19001)
    row = sweep.fidelity_surface(fam, ((ki,), rs)).fidelity_matrix()[0]
    j = int(np.argmax(row))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryMaximumWarning)
        r_star, f_star = sweep.optimal_rate(fam, ki)
    assert abs(r_star - rs[j]) <= 1e-4
    assert f_star >= row[j] - 1e-9


def test_gauss_optimal_rate_takes_few_grid_calls(monkeypatch):
    """The scan and each rescan are one `gauss_grid` call: 7 in all."""
    calls, inner = [], cf.gauss_grid

    def counted(sigma, *args, **kwargs):
        calls.append(np.size(sigma))
        return inner(sigma, *args, **kwargs)

    monkeypatch.setattr(cf, "gauss_grid", counted)
    sweep.optimal_rate("gauss", 1e-4)
    assert len(calls) <= 8, calls


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

_EDGE_CELLS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
               -2.2250738585072014e-308, 1e-310, 1e300, -1e-300, 1e308,
               0.1, 1.0 / 3.0, np.float64(-0.0), np.float64(math.nan),
               np.float64(2.5e-320), np.float64(1e300), 0, -7, 2 ** 60,
               np.int64(-3), True]


def _per_cell_csv(header: str, rows) -> str:
    return "".join(line + "\n" for line in [header] + [
        ",".join(format(float(v), ".17g") for v in row) for row in rows])


@given(cells=st.lists(st.one_of(st.floats(), st.integers(-2 ** 70, 2 ** 70),
                                st.sampled_from(_EDGE_CELLS)),
                      min_size=0, max_size=60))
def test_csv_text_is_per_cell_format(cells):
    """One "%.17g" template per row gives the bytes of format(float(v),
    ".17g") per cell: nan, signed infinities and zeros, subnormals and
    ints included."""
    rows = [tuple(cells[i:i + 3]) for i in range(0, len(cells) - 2, 3)]
    assert sweep._csv_text("a,b,c", rows) == _per_cell_csv("a,b,c", rows)


def test_csv_text_of_edge_cells():
    rows = [(v, v, -v if not isinstance(v, (bool, np.bool_)) else v)
            for v in _EDGE_CELLS]
    text = sweep._csv_text("x,y,z", iter(rows))
    assert text == _per_cell_csv("x,y,z", rows)
    assert "-0,-0,0\n" in text and "nan,nan,nan\n" in text \
        and "-inf,-inf,inf\n" in text and "4.9406564584124654e-324," in text
    assert sweep._csv_text("x", []) == "x\n"


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
