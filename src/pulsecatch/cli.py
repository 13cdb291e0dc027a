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
values leak into the files. Each command imports the modules it runs when
it runs, so `--help` loads no numpy and `schedule` none of the closed
forms, the sweep or the cross-checks.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import (
    MAX_CELLS,
    MAX_COUNT,
    DomainError,
    InfeasibleSchedule,
    NoPeak,
    NoThreshold,
    SingularCoupling,
    StepFailure,
)

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
# `_schedule_grid`'s three constants.
_FAN_START = 1e-3
_FAN_GROWTH = 1.1
_BODY_PER_T = 20.0


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _json_text(value, indent: int = 0) -> str:
    """Tiny JSON writer so floats carry exactly 17 significant digits.

    Non-finite floats are emitted as quoted strings ("inf", "nan") because
    bare IEEE specials are not valid JSON.
    """
    from .profiles import _fmt
    pad = " " * indent
    if isinstance(value, dict):
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
        return json.dumps(value, ensure_ascii=False)
    v = float(value)
    if math.isinf(v) or math.isnan(v):
        return '"' + _fmt(v) + '"'
    return _fmt(v)


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def _parse_grid(text: str) -> tuple[float, ...]:
    """Grid literal: comma-separated values, or `lo:hi:n:lin` / `lo:hi:n:log`."""
    import numpy as np
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
        if not 1 <= n <= MAX_COUNT or not hi > lo:
            raise DomainError(f"grid literal needs hi > lo and n >= 1 "
                              f"(n <= {MAX_COUNT:,}): {text!r}")
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
    import numpy as np
    from . import profiles as prof
    rows = [(t, k) for t, k in prof._read_pairs(path, "coupling file")
            if math.isfinite(k)]
    if len(rows) < 2:
        raise DomainError(f"coupling file {path} needs at least two finite rows")
    ta = np.asarray([t for t, _ in rows])
    ka = np.clip(np.asarray([k for _, k in rows]), 0.0, 1.0)
    if not (np.isfinite(ta).all() and (np.diff(ta) > 0.0).all()):
        raise DomainError(f"coupling file {path} taus must be finite and "
                          "strictly increasing")
    interp = prof._pchip(ta, ka)
    t0, t1 = float(ta[0]), float(ta[-1])
    k0, k1 = float(ka[0]), float(ka[-1])

    def kappa_fn(t: float) -> float:
        if t <= t0:
            return k0
        if t >= t1:
            return k1
        return min(1.0, max(0.0, interp.at(t)))

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


def _memory_params(kappa_i: float) -> prof.MemoryParams:
    """MemoryParams for --kappa-i, with a warning on stderr above the range
    the closed-form oracles are validated on (0 is the lossless limit)."""
    from . import profiles as prof
    params = prof.MemoryParams(kappa_i=kappa_i)
    if kappa_i > prof.KAPPA_I_RANGE[1]:
        print(f"warning: --kappa-i {kappa_i!r} lies above the validated "
              f"range kappa_i <= {prof.KAPPA_I_RANGE[1]!r}", file=sys.stderr)
    return params


def _require_valid(profile: prof.InputProfile) -> None:
    from . import profiles as prof
    report = prof.validate(profile)
    if not report.ok:
        raise DomainError("invalid profile: " + "; ".join(report.failures))


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def _schedule_grid(schedule: protocol.CouplingSchedule, n: int) -> np.ndarray:
    """Rows of the schedule CSV: strictly increasing taus on [0, horizon].

    Every segment end (0, tau_c, the breakpoints, the horizon) is a row.
    From each end a fan of rows runs into its segment, spaced `_FAN_START`
    at first and `_FAN_GROWTH` times wider per row, up to the segment's
    midpoint or the body spacing: right after an end kappa moves on the
    memory's own time scale (kappa ~ 1/(1 + tau - tau_c) for slow pulses).
    Between the fans the rows are uniform at the body spacing, the pulse's
    time scale T (1/r or sigma) over `_BODY_PER_T`, or horizon/(n - 1) where
    that is finer. A table's knots are rows and its body is horizon/(n - 1):
    a record can far outlast its pulse, and T/20 would grow its CSV without
    bound. The reflection is stationary in kappa along the schedule, so a
    PCHIP through the rows moves beta only at second order in its error.
    """
    import numpy as np
    from . import profiles as prof
    profile, end = schedule.profile, schedule.horizon
    ends = prof._unique([0.0, schedule.tau_c, *schedule.breakpoints(), end])
    h = math.inf
    if profile.kind == prof.EXPONENTIAL:
        h = 1.0 / (profile.r * _BODY_PER_T)
    elif profile.kind == prof.GAUSSIAN:
        h = profile.sigma / _BODY_PER_T
    if n >= 2:
        h = min(h, end / (n - 1))
    # offset 0, then steps below min(h, horizon): enough to pass any midpoint
    steps = math.ceil(math.log(min(h, end) / _FAN_START) / math.log(_FAN_GROWTH))
    fan = np.cumsum(np.r_[0.0, _FAN_START * _FAN_GROWTH ** np.arange(steps)])
    pieces = [profile.taus[profile.taus <= end]] \
        if profile.kind == prof.TABULATED else []
    for a, b in zip(ends[:-1], ends[1:]):
        offsets = fan[fan < 0.5 * (b - a)]
        body = max(1, math.ceil((b - a - 2.0 * offsets[-1]) / h))
        pieces += [a + offsets, b - offsets,
                   np.linspace(a + offsets[-1], b - offsets[-1], body + 1)]
    return prof._unique(np.concatenate(pieces))


def _schedule_rows(schedule: protocol.CouplingSchedule, n: int):
    """(tau, kappa, r_in, beta1_sq, beta_sq, r_out) rows over [0, horizon].

    The rows are `_schedule_grid`'s, so that `simulate --kappa file:`
    reproduces the schedule well within its 1e-9 round-trip budget and the
    stage-1 plateau ends exactly at tau_c in the file. Where the coupling is
    numerically undefined (population underflowed to zero while the rate
    has not) the kappa and r_out cells hold `nan`.
    """
    import numpy as np
    from . import profiles as prof
    t = _schedule_grid(schedule, n)
    rate = prof.rate_at(schedule.profile, t)
    remaining = 1.0 - prof.cumulative(schedule.profile, t)
    bsq = schedule.beta_sq(t)
    kap = schedule.kappa(t, nan_if_singular=True)
    w = -np.sqrt(bsq * kap) + np.sqrt(rate)
    return zip(t.tolist(), kap.tolist(), rate.tolist(),
               np.where(remaining > 0.0, remaining, 0.0).tolist(),
               bsq.tolist(), (w * w).tolist())


def cmd_schedule(args) -> int:
    from . import profiles as prof
    from . import protocol
    from .profiles import _atomic_write, _csv_text, _fmt
    if not 0 <= args.samples <= MAX_COUNT:
        raise DomainError(f"--samples must be >= 0 and <= {MAX_COUNT:,}, "
                          f"got {args.samples}")
    profile = prof.parse_profile(args.profile)
    _require_valid(profile)
    params = _memory_params(args.kappa_i)
    schedule = protocol.build_schedule(profile, params)
    report = protocol.peak_time_and_fidelity(profile, params, schedule)

    _atomic_write(args.out + ".csv",
                  _csv_text("tau,kappa,r_in,beta1_sq,beta_sq,r_out",
                            _schedule_rows(schedule, args.samples)))

    payload = {"profile": args.profile, "kappa_i": args.kappa_i, **vars(report)}
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
    import numpy as np
    from . import dynamics
    from . import profiles as prof
    from . import protocol
    from .profiles import _atomic_write, _csv_text, _fmt
    if args.samples is not None and args.samples < 3:
        # the energy balance differences at least 3 samples
        raise DomainError(f"--samples must be >= 3, got {args.samples}")
    profile = prof.parse_profile(args.profile)
    _require_valid(profile)
    params = _memory_params(args.kappa_i)

    schedule = None
    if args.kappa is not None:
        coupling, file_end = _parse_kappa_override(args.kappa)
        tau_end = file_end if file_end is not None else prof.horizon(profile)
    else:
        schedule = protocol.build_schedule(profile, params)
        coupling, tau_end = schedule, schedule.horizon

    traj = dynamics.simulate_amplitudes(profile, params, coupling, tau_end,
                                        tol=args.tol, samples=args.samples)
    residual = dynamics.energy_balance_residual(traj)

    rows = zip(traj.taus, traj.beta1, traj.beta, traj.kappa, traj.r_in,
               traj.r_out, traj.cum_reflection, traj.cum_intrinsic)
    _atomic_write(args.out, _csv_text(
        "tau,beta1,beta,kappa,r_in,r_out,cum_reflection,cum_intrinsic", rows))

    print(f"energy balance residual = {_fmt(residual)}")
    if schedule is not None:
        mask = schedule.stage(traj.taus) == 2
        print(f"max stage-2 r_out = {_fmt(float(np.max(traj.r_out[mask])))}")
    else:
        print(f"max r_out = {_fmt(float(np.max(traj.r_out)))}")
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    import warnings
    from . import protocol
    from . import sweep as sweepmod
    grid = None
    if (args.grid_ki is None) != (args.grid_r is None):
        raise DomainError("give both --grid-ki and --grid-r, or neither")
    if args.grid_ki is not None:
        grid = (_parse_grid(args.grid_ki), _parse_grid(args.grid_r))
    # the library's UserWarning, printed as `schedule` prints its warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        surface = sweepmod.fidelity_surface(args.family, grid)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)

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
    import numpy as np
    from . import closedform
    from . import dynamics
    from . import profiles as prof
    from . import protocol
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
    ts = prof._unique(np.concatenate([np.linspace(0.0, tau_end, 801), [tau_max]]))

    rho = dynamics.simulate_master_equation(profile, params, coupling,
                                            tau_end, tol=1e-10, samples=ts)
    traj = dynamics.simulate_amplitudes(profile, params, coupling, tau_end,
                                        tol=1e-10, samples=ts)

    reduction = dynamics._reduction_deviation(rho, traj)
    real = rho.real
    trace_dev = float(np.max(np.abs(
        (real[:, 0, 0] + real[:, 1, 1]) + real[:, 2, 2] - 1.0)))
    ground_dev = float(np.max(np.abs(
        real[:, 0, 0] - (traj.cum_reflection + traj.cum_intrinsic))))

    stage2 = schedule.stage(traj.taus) == 2
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
    from . import profiles as prof
    from . import semiclassical
    profile = prof.parse_profile(OPERATING_POINTS[family])
    dev = semiclassical.compare_with_full_quantum(profile, kappa_scale=scale)
    return [{"name": f"semiclassical/{family}/coupling-deviation",
             "value": dev, "bound": 1e-9}]


def cmd_verify(args) -> int:
    from .profiles import _atomic_write, _fmt
    scale = args.inject_kappa_scale
    if not 0.0 <= scale <= 10.0:
        # a nan or a large coupling stalls the integrators (the solve
        # stiffens with the scale); a negative one has no square root
        raise DomainError(
            f"--inject-kappa-scale must be finite and >= 0 and <= 10, "
            f"got {scale!r}")
    checks: list[dict] = []
    if args.target in ("master-equation", "all"):
        for family in ("exp", "gauss"):
            checks.extend(_master_equation_checks(family, scale))
    if args.target in ("semiclassical", "all"):
        for family in ("exp", "gauss"):
            checks.extend(_semiclassical_checks(family, scale))

    for check in checks:
        check["pass"] = bool(check["value"] <= check["bound"])
    all_pass = all(c["pass"] for c in checks)

    payload = {
        "target": args.target,
        "kappa_scale": scale,
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
                         help="caps the schedule CSV's body spacing at "
                              "horizon/(samples - 1); below 2 the pulse's "
                              "time scale alone sets it (default 4001, "
                              f"at most {MAX_COUNT:,})")
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
                       help=f"uniform output samples, 3 to {MAX_COUNT:,} "
                            "(default: a uniform grid per segment between "
                            "tau_c, the coupling's breaks and a table's "
                            "knots, spaced from --tol)")
    p_sim.add_argument("--kappa", default=None,
                       help="coupling override: const:<v> or file:<path>")
    p_sim.add_argument("--out", default="trajectory.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="fidelity surface over (kappa_i, "
                             f"r), at most {MAX_CELLS:,} cells")
    p_sweep.add_argument("--profile", required=True, dest="family",
                         help="profile family: exp or gauss")
    p_sweep.add_argument("--grid-ki", default=None, dest="grid_ki",
                         help="kappa_i grid: v1,v2,... or lo:hi:n:log "
                              f"(n <= {MAX_COUNT:,})")
    p_sweep.add_argument("--grid-r", default=None, dest="grid_r",
                         help="r grid: v1,v2,... or lo:hi:n:lin "
                              f"(n <= {MAX_COUNT:,})")
    p_sweep.add_argument("--out", default="surface.csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run physics cross-checks")
    p_ver.add_argument("target", nargs="?", default="all",
                       choices=["master-equation", "semiclassical", "all"])
    p_ver.add_argument("--inject-kappa-scale", type=float, default=1.0,
                       dest="inject_kappa_scale",
                       help="fault-injection hook: multiply the coupling "
                            "by this value in [0, 10]")
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
