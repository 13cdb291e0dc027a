"""Fidelity surfaces over (kappa_i, r) grids and the loss-optimal input rate.

The built-in families evaluate through `closedform` (microseconds per cell);
anything else goes through the generic `protocol` solver. Cells are pure and
independent — the engine fills the matrix serially in index order, so output
is deterministic and any future parallel fill must assemble by index to keep
that property.
"""
from __future__ import annotations

import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from . import closedform as cf
from . import profiles as prof
from . import protocol
from .errors import BoundaryMaximumWarning, DomainError, PulsecatchError

R_RANGE = (0.05, 1.0)
KAPPA_I_RANGE = (0.0, 1e-2)          # open below: cells require kappa_i > 0
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


def _exp_stage1_integrals(r: float, kappa_i: float,
                          tau_c: float) -> tuple[float, float]:
    """(int beta^2, int r_out) over the stage-1 window [0, tau_c], in closed form.

    With s = 1 + kappa_i - r and phi(tau) = 2(1 - e^{-s tau/2})/s, the stage-1
    amplitude is beta = -sqrt(r_in) phi and the reflected amplitude is
    sqrt(r_in) (1 - phi); phi hits exactly 1 at the threshold. Expanding the
    naive closed forms in powers of 1/s loses ~s^-2 digits near r = 1,
    kappa_i = 0, so both integrals use integration-by-parts recurrences on
    moments of phi and psi = 1 - phi instead (phi' = 1 - (s/2) phi).
    """
    s = 1.0 + kappa_i - r
    e_rt = math.exp(-r * tau_c)
    phi_t = tau_c if s == 0.0 else -2.0 * math.expm1(-0.5 * s * tau_c) / s
    psi_t = 1.0 - phi_t

    # K_k = int_0^tau_c e^{-r t} phi^k dt
    k0 = (1.0 - e_rt) / r
    k1 = (k0 - e_rt * phi_t) / (0.5 * s + r)
    k2 = (2.0 * k1 - e_rt * phi_t * phi_t) / (s + r)
    beta_sq = r * k2

    # J_k = int_0^tau_c e^{-r t} psi^k dt;  psi' = -(1 - s/2) - (s/2) psi
    j1 = (1.0 - e_rt * psi_t - (1.0 - 0.5 * s) * k0) / (0.5 * s + r)
    j2 = (1.0 - e_rt * psi_t * psi_t - 2.0 * (1.0 - 0.5 * s) * j1) / (s + r)
    r_out = r * j2
    return beta_sq, r_out


def _exp_cell(r: float, kappa_i: float) -> protocol.TransferReport:
    cst = cf.exp_constants(r, kappa_i)
    tau_max, fidelity = cf.exp_report(r, kappa_i)
    beta_sq_1, refl = _exp_stage1_integrals(r, kappa_i, cst.tau_c)
    # Stage-2 population A1 e^{-k_i tau} - A2 e^{-r tau}; the intrinsic loss
    # kappa_i * int beta^2 needs no division by kappa_i in this form.
    e_ki = math.exp(-kappa_i * cst.tau_c) - math.exp(-kappa_i * tau_max)
    e_r = math.exp(-r * cst.tau_c) - math.exp(-r * tau_max)
    intrinsic = kappa_i * beta_sq_1 + cst.a1 * e_ki - (kappa_i / r) * cst.a2 * e_r
    return protocol.TransferReport(
        tau_c=cst.tau_c, tau_max=tau_max, fidelity=fidelity,
        loss_stage1_reflection=refl, loss_intrinsic=intrinsic,
        loss_unabsorbed=math.exp(-r * tau_max))


def _gauss_cell(r: float, kappa_i: float) -> protocol.TransferReport:
    sigma = 1.0 / (r * math.sqrt(2.0 * math.pi))
    n = prof.DEFAULT_GAUSSIAN_OFFSET
    cst = cf.gauss_constants(sigma, n, kappa_i)
    tau_max, fidelity = cf.gauss_report(sigma, n, kappa_i)

    def pop(t: float) -> float:
        return cf.gauss_population(sigma, n, kappa_i, t)

    def r_out(t: float) -> float:
        w = math.sqrt(cf.gauss_rate(sigma, n, t)) - math.sqrt(pop(t))
        return w * w

    refl = quad(r_out, 0.0, cst.tau_c, limit=200, epsabs=1e-12)[0]
    upper = tau_max if math.isfinite(tau_max) else cst.tau0 + 10.0 * sigma
    intr = kappa_i * (quad(pop, 0.0, cst.tau_c, limit=200, epsabs=1e-12)[0]
                      + quad(pop, cst.tau_c, upper, limit=200,
                             points=[cst.tau0] if cst.tau_c < cst.tau0 < upper
                             else None, epsabs=1e-12)[0])
    # cumulative(inf) already excludes the left-truncation deficit, so this
    # term carries both the not-yet-arrived input and the truncated mass.
    unabs = 1.0 - prof.cumulative(prof.gaussian(r=r), float(upper))
    return protocol.TransferReport(
        tau_c=cst.tau_c, tau_max=tau_max, fidelity=fidelity,
        loss_stage1_reflection=refl, loss_intrinsic=intr,
        loss_unabsorbed=unabs)


def _generic_cell(profile: prof.InputProfile,
                  kappa_i: float) -> protocol.TransferReport:
    params = prof.MemoryParams(kappa_i=kappa_i)
    schedule = protocol.build_schedule(profile, params)
    return protocol.peak_time_and_fidelity(profile, params, schedule)


def _evaluate_cell(family, r: float, kappa_i: float) -> protocol.TransferReport:
    if family == "exp":
        try:
            return _exp_cell(r, kappa_i)
        except DomainError:
            # closed-form validity needs kappa_i < r; outside that, fall back
            return _generic_cell(prof.exponential(r), kappa_i)
    if family == "gauss":
        return _gauss_cell(r, kappa_i)
    return _generic_cell(family(r), kappa_i)


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
    r values), both ascending; None uses the default desk-scale grids.
    Values beyond the standard ranges are allowed but warned about.
    """
    fam = _resolve_family(family)
    kis, rs = grid if grid is not None else (DEFAULT_KAPPA_I_GRID,
                                             DEFAULT_R_GRID)
    kis = tuple(float(k) for k in kis)
    rs = tuple(float(r) for r in rs)
    if not kis or not rs:
        raise DomainError("grid axes must be non-empty")
    if any(k <= 0.0 for k in kis):
        raise DomainError("kappa_i grid values must be positive")
    if list(kis) != sorted(kis) or list(rs) != sorted(rs):
        raise DomainError("grid axes must be ascending")
    if kis[-1] > KAPPA_I_RANGE[1] or rs[0] < R_RANGE[0] or rs[-1] > R_RANGE[1]:
        warnings.warn("grid extends beyond the standard ranges "
                      "kappa_i <= 1e-2, r in [0.05, 1]", stacklevel=2)

    rows = []
    for ki in kis:
        row = []
        for r in rs:
            try:
                row.append(_evaluate_cell(fam, r, ki))
            except PulsecatchError as exc:  # record; anything else is a bug
                row.append(CellFailure(kappa_i=ki, r=r,
                                       error=f"{type(exc).__name__}: {exc}"))
        rows.append(tuple(row))
    name = fam if isinstance(fam, str) else getattr(fam, "__name__", "custom")
    return SweepGrid(family=name, kappa_is=kis, rs=rs, results=tuple(rows))


def optimal_rate(family, kappa_i: float) -> tuple[float, float]:
    """Loss-optimal input rate: maximize F over r in [0.05, 1] for fixed kappa_i.

    Coarse scan to bracket the maximum, then golden-section refinement to
    |delta r| <= 1e-4. If the maximizer sits on a range edge a
    BoundaryMaximumWarning is emitted (the true optimum lies outside).
    """
    if not (0.0 < kappa_i <= KAPPA_I_RANGE[1]):
        raise DomainError("optimal_rate requires kappa_i in (0, 1e-2]")
    fam = _resolve_family(family)

    def f_of(r: float) -> float:
        return _evaluate_cell(fam, r, kappa_i).fidelity

    lo, hi = R_RANGE
    scan = np.linspace(lo, hi, 33)
    vals = [f_of(float(r)) for r in scan]
    k = int(np.argmax(vals))
    a = float(scan[max(k - 1, 0)])
    b = float(scan[min(k + 1, len(scan) - 1)])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f_of(x1), f_of(x2)
    while b - a > 1e-4:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f_of(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f_of(x1)
    r_star = 0.5 * (a + b)
    f_star = f_of(r_star)
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


def _fmt(v) -> str:
    """17-significant-digit text, so files round-trip doubles (`inf`, `-inf`, `nan`)."""
    return format(float(v), ".17g")


def _csv_text(header: str, rows) -> str:
    """The header line, then one line of `_fmt` values per row."""
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _atomic_write(path, text: str) -> None:
    """Write text to `path` via a sibling temp file and an atomic rename.

    The file gets the mode a plain `open` would give it, 0o666 less the
    umask, rather than the owner-only mode of the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
