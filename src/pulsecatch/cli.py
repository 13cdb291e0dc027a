"""Command-line front end: build schedules, simulate, sweep, verify.

Subcommands
-----------
schedule   build the optimal coupling schedule for a profile; write CSV + JSON
simulate   integrate the amplitude dynamics under a schedule or override
sweep      fill a fidelity surface over (kappa_i, r); write long-format CSV
verify     run the master-equation and semiclassical cross-checks

Exit codes: 0 success, 1 input error, 2 infeasible schedule or singular
coupling, 3 integrator step failure, 4 verification bound violated.

All emitted numbers carry 17 significant digits so files round-trip doubles
losslessly, and every file is written atomically (temp file + rename).
Output depends only on the flags: no wall clock, locale, or environment
values leak into the files.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import closedform
from . import dynamics
from . import profiles as prof
from . import protocol
from . import semiclassical
from . import sweep as sweepmod
from .errors import (
    DomainError,
    InfeasibleSchedule,
    NoPeak,
    NoThreshold,
    SingularCoupling,
    StepFailure,
)
from .sweep import _atomic_write, _csv_text, _fmt

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_STEP = 3
EXIT_VIOLATION = 4

# Benchmark operating points exercised by `verify` (kappa_i = 1e-4).
OPERATING_POINTS = {
    "exp": "exp:r=0.036",
    "gauss": "gauss:r=0.1533,n=4",
}
_VERIFY_KAPPA_I = 1e-4
# Rows per array evaluation in `_schedule_rows`: large enough that each
# segment's dense output is called a handful of times per file, small enough
# that the row tuples of one chunk stay a few hundred kilobytes.
_ROW_CHUNK = 2048


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _json_text(value, indent: int = 0) -> str:
    """Tiny JSON writer so floats carry exactly 17 significant digits.

    Non-finite floats are emitted as quoted strings ("inf", "nan") because
    bare IEEE specials are not valid JSON.
    """
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{pad}  "{k}": {_json_text(v, indent + 2)}'
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [pad + "  " + _json_text(v, indent + 2) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"' + value + '"'
    if isinstance(value, int):
        return str(value)
    v = float(value)
    if math.isinf(v) or math.isnan(v):
        return '"' + _fmt(v) + '"'
    return _fmt(v)


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def _parse_grid(text: str) -> tuple[float, ...]:
    """Grid literal: comma-separated values, or `lo:hi:n:lin` / `lo:hi:n:log`."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 4 or parts[3] not in ("lin", "log"):
            raise DomainError(
                f"grid literal must be lo:hi:n:lin or lo:hi:n:log, got {text!r}"
            )
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise DomainError(f"bad number in grid literal {text!r}") from exc
        if n < 1 or not (hi > lo):
            raise DomainError(f"grid literal needs hi > lo and n >= 1: {text!r}")
        if parts[3] == "log":
            if lo <= 0.0:
                raise DomainError("log grids need lo > 0")
            return tuple(float(v) for v in np.geomspace(lo, hi, n))
        return tuple(float(v) for v in np.linspace(lo, hi, n))
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise DomainError(f"bad number in grid literal {text!r}") from exc
    if not values:
        raise DomainError("empty grid literal")
    return values


def _load_kappa_csv(path: str):
    """Coupling interpolant from a schedule CSV (first two columns tau, kappa).

    Rows with non-finite kappa (undefined coupling in dead regions) are
    skipped. Outside the tabulated span the edge values extend as constants;
    inside, a monotonicity-preserving cubic avoids overshoot above 1 at the
    stage boundary plateaus.
    """
    rows = [(t, k) for t, k in prof._read_pairs(path, "coupling file")
            if math.isfinite(k)]
    if len(rows) < 2:
        raise DomainError(f"coupling file {path} needs at least two finite rows")
    ta = np.asarray([t for t, _ in rows])
    ka = np.clip(np.asarray([k for _, k in rows]), 0.0, 1.0)
    if np.any(np.diff(ta) <= 0.0):
        raise DomainError(f"coupling file {path} taus must be strictly increasing")
    interp = PchipInterpolator(ta, ka, extrapolate=False)
    t0, t1 = float(ta[0]), float(ta[-1])
    k0, k1 = float(ka[0]), float(ka[-1])

    def kappa_fn(t: float) -> float:
        if t <= t0:
            return k0
        if t >= t1:
            return k1
        return min(1.0, max(0.0, float(interp(t))))

    # Plateau boundaries (kappa pegged at 1) are derivative kinks; exposing
    # them lets the integrator restart there instead of stepping across.
    plateau = ka >= 1.0 - 1e-12
    edges = np.flatnonzero(np.diff(plateau.astype(int)) != 0)
    kinks = [float(ta[i]) if plateau[i] else float(ta[i + 1]) for i in edges]
    kappa_fn.breakpoints = lambda: kinks

    return kappa_fn, t1


def _parse_kappa_override(text: str):
    """`const:<v>` or `file:<path>` -> (kappa_fn, tau_end or None)."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise DomainError(f"--kappa takes const:<value> or file:<path>, got {text!r}")
    if head == "const":
        try:
            v = float(rest)
        except ValueError as exc:
            raise DomainError(f"bad constant coupling {rest!r}") from exc
        if not (0.0 <= v <= 1.0) or not math.isfinite(v):
            raise DomainError(f"constant coupling must lie in [0, 1], got {v}")
        return (lambda t: v), None
    if head == "file":
        return _load_kappa_csv(rest.strip())
    raise DomainError(f"--kappa takes const:<value> or file:<path>, got {text!r}")


def _require_valid(profile: prof.InputProfile) -> None:
    report = prof.validate(profile)
    if not report.ok:
        raise DomainError("invalid profile: " + "; ".join(report.failures))


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def _schedule_rows(schedule: protocol.CouplingSchedule, n: int):
    """Yield (tau, kappa, r_in, beta1_sq, beta_sq, r_out) rows over [0, horizon].

    The grid is the union of `n` uniform samples with the curvature-adaptive
    grid the simulator itself uses, so an interpolant through the file
    reproduces kappa(tau) well below the 1e-9 round-trip budget; segment
    boundaries are inserted as exact knots so the stage-1 plateau ends
    precisely at tau_c in the file. Where the coupling is numerically
    undefined (population underflowed to zero while the rate has not) the
    kappa and r_out cells hold `nan`.
    """
    knots = [schedule.tau_c] + schedule.breakpoints()
    adaptive = dynamics._default_samples(schedule.profile, schedule,
                                         schedule.horizon)
    ts = np.unique(np.concatenate([np.linspace(0.0, schedule.horizon, n),
                                   adaptive, np.asarray(knots)]))
    profile = schedule.profile
    for start in range(0, len(ts), _ROW_CHUNK):
        t = ts[start:start + _ROW_CHUNK]
        rate = prof._pointwise(prof.rate_at, profile, t)
        remaining = 1.0 - prof._pointwise(prof.cumulative, profile, t)
        bsq = schedule.beta_sq(t)
        kap = schedule.kappa(t, nan_if_singular=True)
        w = -np.sqrt(bsq * kap) + np.sqrt(rate)
        yield from zip(t.tolist(), kap.tolist(), rate.tolist(),
                       np.where(remaining > 0.0, remaining, 0.0).tolist(),
                       bsq.tolist(), (w * w).tolist())


def cmd_schedule(args) -> int:
    profile = prof.parse_profile(args.profile)
    _require_valid(profile)
    params = prof.MemoryParams(kappa_i=args.kappa_i)
    schedule = protocol.build_schedule(profile, params)
    report = protocol.peak_time_and_fidelity(profile, params, schedule)

    _atomic_write(args.out + ".csv",
                  _csv_text("tau,kappa,r_in,beta1_sq,beta_sq,r_out",
                            _schedule_rows(schedule, args.samples)))

    payload = {
        "profile": args.profile,
        "kappa_i": args.kappa_i,
        "tau_c": report.tau_c,
        "tau_max": report.tau_max,
        "fidelity": report.fidelity,
        "loss_stage1_reflection": report.loss_stage1_reflection,
        "loss_intrinsic": report.loss_intrinsic,
        "loss_unabsorbed": report.loss_unabsorbed,
        "flags": list(report.flags),
    }
    _atomic_write(args.out + ".json", _json_text(payload) + "\n")

    print(f"tau_c = {_fmt(report.tau_c)}")
    print(f"tau_max = {_fmt(report.tau_max)}")
    print(f"fidelity = {_fmt(report.fidelity)}")
    print(f"wrote {args.out}.csv and {args.out}.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    profile = prof.parse_profile(args.profile)
    _require_valid(profile)
    params = prof.MemoryParams(kappa_i=args.kappa_i)

    tau_c = None
    if args.kappa is not None:
        coupling, file_end = _parse_kappa_override(args.kappa)
        tau_end = file_end if file_end is not None else prof.horizon(profile)
    else:
        schedule = protocol.build_schedule(profile, params)
        coupling = schedule
        tau_end = schedule.horizon
        tau_c = schedule.tau_c

    traj = dynamics.simulate_amplitudes(profile, params, coupling, tau_end,
                                        tol=args.tol, samples=args.samples)

    rows = zip(traj.taus, traj.beta1, traj.beta, traj.kappa, traj.r_in,
               traj.r_out, traj.cum_reflection, traj.cum_intrinsic)
    _atomic_write(args.out, _csv_text(
        "tau,beta1,beta,kappa,r_in,r_out,cum_reflection,cum_intrinsic", rows))

    residual = dynamics.energy_balance_residual(traj)
    print(f"energy balance residual = {_fmt(residual)}")
    if tau_c is not None:
        mask = traj.taus >= tau_c
        print(f"max stage-2 r_out = {_fmt(float(np.max(traj.r_out[mask])))}")
    else:
        print(f"max r_out = {_fmt(float(np.max(traj.r_out)))}")
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    grid = None
    if (args.grid_ki is None) != (args.grid_r is None):
        raise DomainError("give both --grid-ki and --grid-r, or neither")
    if args.grid_ki is not None:
        grid = (_parse_grid(args.grid_ki), _parse_grid(args.grid_r))
    surface = sweepmod.fidelity_surface(args.family, grid)

    failures = sum(1 for row in surface.results
                   for cell in row if not isinstance(cell, protocol.TransferReport))
    sweepmod.write_surface_csv(surface, args.out)
    cells = len(surface.kappa_is) * len(surface.rs)
    print(f"wrote {args.out}: {cells} cells, {failures} failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _master_equation_checks(family: str, scale: float) -> list[dict]:
    """Lindblad-vs-amplitude cross-checks at one operating point.

    `scale` multiplies the coupling fed to both solvers; 1.0 is the honest
    build, anything else is the fault-injection hook and should trip the
    reflection/fidelity detectors.
    """
    profile = prof.parse_profile(OPERATING_POINTS[family])
    params = prof.MemoryParams(kappa_i=_VERIFY_KAPPA_I)
    schedule = protocol.build_schedule(profile, params)
    if family == "exp":
        tau_max, f_closed = closedform.exp_report(profile.r, params.kappa_i)
    else:
        tau_max, f_closed = closedform.gauss_report(profile.sigma, profile.n,
                                                    params.kappa_i)
    coupling = schedule if scale == 1.0 \
        else (lambda t: scale * schedule.kappa(t))
    tau_end = min(schedule.horizon, tau_max + 10.0)
    ts = np.unique(np.concatenate([np.linspace(0.0, tau_end, 801), [tau_max]]))

    states = dynamics.simulate_master_equation(profile, params, coupling,
                                               tau_end, tol=1e-10, samples=ts)
    traj = dynamics.simulate_amplitudes(profile, params, coupling, tau_end,
                                        tol=1e-10, samples=ts)

    reduction = dynamics._reduction_deviation(states, traj)
    trace_dev = 0.0
    ground_dev = 0.0
    for i, dm in enumerate(states):
        trace_dev = max(trace_dev, abs(dm.trace - 1.0))
        ground_dev = max(ground_dev,
                         abs(dm.rho[0, 0].real
                             - (traj.cum_reflection[i] + traj.cum_intrinsic[i])))

    stage2 = traj.taus >= schedule.tau_c
    max_r_out = float(np.max(traj.r_out[stage2]))
    peak = float(traj.beta[np.searchsorted(traj.taus, tau_max)] ** 2)

    name = f"master-equation/{family}"
    return [
        {"name": f"{name}/reduction", "value": reduction, "bound": 1e-8},
        {"name": f"{name}/trace", "value": trace_dev, "bound": 1e-10},
        {"name": f"{name}/ground-state-bookkeeping", "value": ground_dev,
         "bound": 1e-8},
        {"name": f"{name}/stage2-reflection", "value": max_r_out, "bound": 1e-7},
        {"name": f"{name}/fidelity-vs-closed-form",
         "value": abs(peak - f_closed), "bound": 1e-5},
    ]


def _semiclassical_checks(family: str, scale: float) -> list[dict]:
    """Semiclassical coupling cross-check at one operating point; `scale`
    multiplies the quantum coupling (fault injection when not 1.0)."""
    profile = prof.parse_profile(OPERATING_POINTS[family])
    dev = semiclassical.compare_with_full_quantum(profile, kappa_scale=scale)
    return [{"name": f"semiclassical/{family}/coupling-deviation",
             "value": dev, "bound": 1e-9}]


def cmd_verify(args) -> int:
    checks: list[dict] = []
    if args.target in ("master-equation", "all"):
        for family in ("exp", "gauss"):
            checks.extend(_master_equation_checks(family, args.inject_kappa_scale))
    if args.target in ("semiclassical", "all"):
        for family in ("exp", "gauss"):
            checks.extend(_semiclassical_checks(family, args.inject_kappa_scale))

    for check in checks:
        check["pass"] = bool(check["value"] <= check["bound"])
    all_pass = all(c["pass"] for c in checks)

    payload = {
        "target": args.target,
        "kappa_scale": args.inject_kappa_scale,
        "checks": checks,
        "pass": all_pass,
    }
    _atomic_write(args.out, _json_text(payload) + "\n")

    for check in checks:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"{status} {check['name']}: value={_fmt(check['value'])} "
              f"bound={_fmt(check['bound'])}")
    print(f"wrote {args.out}")
    return EXIT_OK if all_pass else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsecatch",
        description="Optimal coupling schedules for catching single-excitation "
                    "pulses in a lossy resonator memory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sched = sub.add_parser("schedule", help="build a coupling schedule")
    p_sched.add_argument("--profile", required=True,
                         help="exp:r=<v> | gauss:r=<v>[,n=<v>] | table:<csv>")
    p_sched.add_argument("--kappa-i", type=float, default=0.0,
                         dest="kappa_i", help="intrinsic loss rate (default 0)")
    p_sched.add_argument("--samples", type=int, default=4001,
                         help="rows in the schedule CSV (default 4001)")
    p_sched.add_argument("--out", default="schedule",
                         help="output prefix: writes <out>.csv and <out>.json")
    p_sched.set_defaults(func=cmd_schedule)

    p_sim = sub.add_parser("simulate", help="integrate the amplitude dynamics")
    p_sim.add_argument("--profile", required=True,
                       help="exp:r=<v> | gauss:r=<v>[,n=<v>] | table:<csv>")
    p_sim.add_argument("--kappa-i", type=float, default=0.0, dest="kappa_i")
    p_sim.add_argument("--tol", type=float, default=1e-11,
                       help="integration tolerance in [1e-13, 1e-6]")
    p_sim.add_argument("--samples", type=int, default=None,
                       help="uniform output samples (default: adaptive grid)")
    p_sim.add_argument("--kappa", default=None,
                       help="coupling override: const:<v> or file:<path>")
    p_sim.add_argument("--out", default="trajectory.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="fidelity surface over (kappa_i, r)")
    p_sweep.add_argument("--profile", required=True, dest="family",
                         help="profile family: exp or gauss")
    p_sweep.add_argument("--grid-ki", default=None, dest="grid_ki",
                         help="kappa_i grid: v1,v2,... or lo:hi:n:log")
    p_sweep.add_argument("--grid-r", default=None, dest="grid_r",
                         help="r grid: v1,v2,... or lo:hi:n:lin")
    p_sweep.add_argument("--out", default="surface.csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run physics cross-checks")
    p_ver.add_argument("target", nargs="?", default="all",
                       choices=["master-equation", "semiclassical", "all"])
    p_ver.add_argument("--inject-kappa-scale", type=float, default=1.0,
                       dest="inject_kappa_scale",
                       help="fault-injection hook: multiply the coupling")
    p_ver.add_argument("--out", default="verify.json")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NoThreshold, InfeasibleSchedule, SingularCoupling, NoPeak) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except StepFailure as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_STEP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
