"""Fidelity surfaces over (kappa_i, r) grids and the loss-optimal input rate.

The built-in families evaluate through `closedform`, loss budget included
(`exp_losses`, `gauss_grid`: closed forms and, for a Gaussian, one Kronrod
sum; no adaptive quadrature, so a sweep loads no scipy.integrate); anything
else goes through the generic `protocol` solver. Surfaces and the scans of
`optimal_rate` take their cells by one route, `_cells`: one by one in index
order, or a whole Gaussian grid in one elementwise array evaluation. Either
way a cell's result depends on its own (kappa_i, r) alone, bit for bit.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import closedform as cf
from . import profiles as prof
from . import protocol
from .errors import (MAX_CELLS, BoundaryMaximumWarning, DomainError,
                     PulsecatchError)
from .profiles import KAPPA_I_RANGE, R_RANGE, _atomic_write, _csv_text

DEFAULT_KAPPA_I_GRID = tuple(np.geomspace(1e-5, 1e-2, 25))
DEFAULT_R_GRID = tuple(np.linspace(0.05, 1.0, 40))

_FAMILIES = {"exp": "exp", "exponential": "exp",
             "gauss": "gauss", "gaussian": "gauss"}


@dataclass(frozen=True)
class CellFailure:
    """Error captured while evaluating one sweep cell."""

    kappa_i: float
    r: float
    error: str


@dataclass(frozen=True)
class SweepGrid:
    """Fidelity surface: results[i][j] belongs to (kappa_is[i], rs[j]).

    Each cell is a TransferReport, or a CellFailure if that cell's
    evaluation raised; a failed cell never aborts the sweep.
    """

    family: str
    kappa_is: tuple[float, ...]
    rs: tuple[float, ...]
    results: tuple[tuple[object, ...], ...]

    def fidelity_matrix(self) -> np.ndarray:
        """Fidelities with NaN in failed cells."""
        out = np.full((len(self.kappa_is), len(self.rs)), math.nan)
        for i, row in enumerate(self.results):
            for j, cell in enumerate(row):
                if isinstance(cell, protocol.TransferReport):
                    out[i, j] = cell.fidelity
        return out


def _report(tau_c: float, tau_max: float, fidelity: float,
            losses) -> protocol.TransferReport:
    refl, intrinsic, unabsorbed = losses
    return protocol.TransferReport(
        tau_c=tau_c, tau_max=tau_max, fidelity=fidelity,
        loss_stage1_reflection=refl, loss_intrinsic=intrinsic,
        loss_unabsorbed=unabsorbed)


def _exp_cell(r: float, kappa_i: float) -> protocol.TransferReport:
    tau_max, fidelity = cf.exp_report(r, kappa_i)
    return _report(cf.exp_constants(r, kappa_i).tau_c, tau_max, fidelity,
                   cf.exp_losses(r, kappa_i, tau_max))


def _gauss_cells(kis, rs) -> list:
    """Each cell of the Gaussian grid kis x rs, row-major, from one
    `closedform.gauss_grid` call: a TransferReport, or the typed error that
    the cell's scalar closed forms raise."""
    ki, r = (a.ravel() for a in np.meshgrid(kis, rs, indexing="ij"))
    with np.errstate(divide="ignore"):      # r = 0: sigma = inf, a DomainError
        sigma = 1.0 / (r * cf.SQRT_2PI)
    tau_c, tau_max, fid, losses, errors = cf.gauss_grid(
        sigma, prof.DEFAULT_GAUSSIAN_OFFSET, ki)
    return [err or _report(tc, tm, f, rest) for err, tc, tm, f, *rest in zip(
        errors, tau_c.tolist(), tau_max.tolist(), fid.tolist(),
        *(v.tolist() for v in losses))]


def _generic_cell(profile: prof.InputProfile,
                  kappa_i: float) -> protocol.TransferReport:
    params = prof.MemoryParams(kappa_i=kappa_i)
    schedule = protocol.build_schedule(profile, params)
    return protocol.peak_time_and_fidelity(profile, params, schedule)


def _cells(fam, kis, rs) -> list:
    """Each cell of the grid kis x rs, row-major: a TransferReport, or the
    PulsecatchError that the cell raised (anything else is a bug)."""
    if fam == "gauss":
        return _gauss_cells(kis, rs)

    def cell(ki: float, r: float):
        try:
            if fam != "exp":
                return _generic_cell(fam(r), ki)
            try:
                return _exp_cell(r, ki)
            except DomainError:
                # closed-form validity needs kappa_i < r; outside that, fall back
                return _generic_cell(prof.exponential(r), ki)
        except PulsecatchError as exc:
            return exc
    return [cell(ki, r) for ki in kis for r in rs]


def _resolve_family(family):
    if isinstance(family, str):
        try:
            return _FAMILIES[family.lower()]
        except KeyError:
            raise DomainError(f"unknown profile family: {family!r}") from None
    if callable(family):
        return family
    raise DomainError("family must be 'exp', 'gauss', or a callable r -> profile")


def fidelity_surface(family, grid: tuple[Sequence[float], Sequence[float]]
                     | None = None) -> SweepGrid:
    """Evaluate the transfer fidelity over a (kappa_i, r) grid.

    `family` is "exp", "gauss", or a callable mapping r to an InputProfile
    (the generic solver handles the latter). `grid` is (kappa_i values,
    r values), both ascending, at most `MAX_CELLS` (65,536) cells; None
    uses the default desk-scale grids.
    Values beyond the standard ranges are allowed but warned about.
    """
    fam = _resolve_family(family)
    kis, rs = grid if grid is not None else (DEFAULT_KAPPA_I_GRID,
                                             DEFAULT_R_GRID)
    kis = tuple(float(k) for k in kis)
    rs = tuple(float(r) for r in rs)
    if not kis or not rs:
        raise DomainError("grid axes must be non-empty")
    if len(kis) * len(rs) > MAX_CELLS:
        raise DomainError(f"a surface takes at most {MAX_CELLS:,} cells")
    if not all(map(math.isfinite, kis + rs)):
        raise DomainError("grid values must be finite")
    if any(k <= 0.0 for k in kis):
        raise DomainError("kappa_i grid values must be positive")
    if list(kis) != sorted(kis) or list(rs) != sorted(rs):
        raise DomainError("grid axes must be ascending")
    if kis[-1] > KAPPA_I_RANGE[1] or rs[0] < R_RANGE[0] or rs[-1] > R_RANGE[1]:
        warnings.warn("grid extends beyond the standard ranges "
                      "kappa_i <= 1e-2, r in [0.05, 1]", stacklevel=2)

    cells = iter(_cells(fam, kis, rs))
    rows = tuple(tuple(
        cell if isinstance(cell, protocol.TransferReport) else CellFailure(
            kappa_i=ki, r=r, error=f"{type(cell).__name__}: {cell}")
        for r, cell in zip(rs, cells)) for ki in kis)
    name = fam if isinstance(fam, str) else getattr(fam, "__name__", "custom")
    return SweepGrid(family=name, kappa_is=kis, rs=rs, results=rows)


def optimal_rate(family, kappa_i: float) -> tuple[float, float]:
    """Loss-optimal input rate: maximize F over r in [0.05, 1] for fixed kappa_i.

    A 33-point scan brackets the maximum between the best point's
    neighbours; each rescan of the bracket at 9 points (F at its ends
    reused, the rest one `_cells` call) narrows it 4x, until a rescan spans
    at most 1e-4. Returns the best point of the last rescan, with its F. If
    that sits on a range edge a BoundaryMaximumWarning is emitted (the true
    optimum lies outside).
    """
    if not (0.0 < kappa_i <= KAPPA_I_RANGE[1]):
        raise DomainError("optimal_rate requires kappa_i in (0, 1e-2]")
    fam = _resolve_family(family)

    def fidelities(rs: list) -> list:
        cells = _cells(fam, (kappa_i,), rs)
        for error in (c for c in cells if isinstance(c, PulsecatchError)):
            raise error
        return [cell.fidelity for cell in cells]

    lo, hi = R_RANGE
    scan = np.linspace(lo, hi, 33).tolist()
    fids = fidelities(scan)
    while True:
        k = max(range(len(scan)), key=fids.__getitem__)    # the first maximum
        if scan[-1] - scan[0] <= 1e-4:
            break
        i, j = max(k - 1, 0), min(k + 1, len(scan) - 1)
        inner = [scan[i] + (scan[j] - scan[i]) * m / 8 for m in range(1, 8)]
        scan, fids = ([scan[i], *inner, scan[j]],
                      [fids[i], *fidelities(inner), fids[j]])
    r_star, f_star = scan[k], fids[k]
    if r_star - lo < 2e-4 or hi - r_star < 2e-4:
        warnings.warn(f"fidelity maximum at the edge of [{lo}, {hi}] "
                      f"(r* = {r_star:.6g})", BoundaryMaximumWarning,
                      stacklevel=2)
    return r_star, f_star


def write_surface_csv(grid: SweepGrid, path) -> None:
    """Long-format surface CSV, row-major over (kappa_i, r); failed cells NaN.
    Written atomically: a failed write leaves any previous file intact."""
    rows = []
    for i, ki in enumerate(grid.kappa_is):
        for j, r in enumerate(grid.rs):
            cell = grid.results[i][j]
            if isinstance(cell, protocol.TransferReport):
                rows.append((ki, r, cell.fidelity, cell.tau_c, cell.tau_max))
            else:
                rows.append((ki, r, math.nan, math.nan, math.nan))
    _atomic_write(path, _csv_text("kappa_i,r,fidelity,tau_c,tau_max", rows))
