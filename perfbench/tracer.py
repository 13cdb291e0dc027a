"""Spans and counters around the package's public functions, for the traced run.

The traced run replaces each target below with a wrapper that records one
span per call: its duration, and its self time (duration minus the time its
child spans cover). Spans are aggregated per key as they close, so memory
stays flat however many millions of calls a run makes; the per-op breakdown
is the difference of the totals before and after the op.

Every wrapper is installed from the benchmark's own files; nothing in the
package is edited. A required target that is missing stops the run with
`MissingTarget`, so a refactor that renames or removes a function cannot
silently zero its counter.
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.integrate

from pulsecatch import (cli, closedform, dynamics, profiles, protocol,
                        semiclassical, sweep)

ROOT_KEY = "bench.unattributed"


class MissingTarget(RuntimeError):
    """A function, method or imported scipy name the trace expects is gone."""


class Tracer:
    """Per-key self time, call counts and work counters for wrapped calls."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._depth: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self.optional_missing: list[str] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, key: str, *, group: str | None = None,
             outer_only: bool = False, hook=None):
        """Return a wrapper of `fn` that records spans under `key`.

        `<key>.calls` counts every call, or with `outer_only` only calls not
        nested in another call of the same key (one logical query through
        several schedule methods counts once). `<group>.calls` always counts
        outermost entries into the group. `hook(args, kwargs, result)`
        returns extra counter increments and runs for every counted call.
        """
        stack, depth = self._stack, self._depth
        self_s, counts = self.self_s, self.counts
        calls_key = key + ".calls"
        group_calls = group + ".calls" if group else None

        def wrapper(*args, **kwargs):
            counted = not outer_only or depth[key] == 0
            if counted:
                counts[calls_key] += 1
            if group_calls and depth[group] == 0:
                counts[group_calls] += 1
            depth[key] += 1
            if group:
                depth[group] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[key] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                depth[key] -= 1
                if group:
                    depth[group] -= 1
            if hook is not None and counted:
                for name, inc in hook(args, kwargs, result).items():
                    counts[name] += inc
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, key: str, *, required: bool = True,
              **opts) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            if required:
                raise MissingTarget(f"trace target {label} is missing")
            self.optional_missing.append(label)
            return
        setattr(owner, attr, self.wrap(original, key, **opts))
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every target; if a required one is gone, undo all and raise."""
        self.optional_missing = []
        try:
            _install(self)
        except MissingTarget:
            self.uninstall()
            raise

    @staticmethod
    def clear_caches(payload=()) -> None:
        """Empty the closed-form memo caches and drop the PCHIP interpolants
        cached on the op's profiles, so paired runs both start cold."""
        for name in ("exp_constants", "gauss_constants"):
            fn = getattr(closedform, name, None)
            if not hasattr(fn, "cache_clear"):   # traced: look through the wrapper
                fn = getattr(fn, "__wrapped__", fn)
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        for item in payload if isinstance(payload, (tuple, list)) else ():
            if isinstance(item, profiles.InputProfile):
                for attr in ("_interp", "_interp_cum"):
                    item.__dict__.pop(attr, None)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- ops --------------------------------------------------------------

    def run_op(self, fn):
        """Run `fn` as one op under a root span and return its result.

        The root span's self time is the op's unattributed time: work in the
        benchmark's own code and in package code between wrapped calls.
        """
        before = dict(self.self_s)
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            wall = perf_counter() - t0
            self._stack.pop()
            self.self_s[ROOT_KEY] += wall - frame[0]
            self._last_op = (wall, {
                k: v - before.get(k, 0.0) for k, v in self.self_s.items()
                if v != before.get(k, 0.0)})

    def last_breakdown(self) -> dict[str, float]:
        """Self time per key gained during the last op; they must add up to
        the op's wall time, or the span bookkeeping is broken."""
        wall, breakdown = self._last_op
        covered = sum(breakdown.values())
        if abs(covered - wall) > 1e-6 * wall + 1e-9:
            raise RuntimeError(f"span accounting broken: self times sum to "
                               f"{covered!r} s of a {wall!r} s op")
        return breakdown


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

def _points(tau) -> int:
    return 1 if isinstance(tau, (float, int)) else int(np.size(tau))


def _rate_points(args, kwargs, result):
    return {"profiles.rate_at.points": _points(args[1] if len(args) > 1
                                               else kwargs["tau"])}


def _schedule_points(args, kwargs, result):
    return {"protocol.schedule_eval.points": _points(args[1] if len(args) > 1
                                                     else kwargs["tau"])}


def _dense_points(args, kwargs, result):
    return {"scipy.dense.points": _points(args[1] if len(args) > 1
                                          else kwargs["t"])}


def _nfev(args, kwargs, result):
    return {"scipy.solve_ivp.nfev": int(result.nfev)}


def _schedule_shape(args, kwargs, result):
    return {"protocol.segments": len(result.segments),
            "protocol.resumed_schedules":
                int("feasibility_resumed" in result.flags)}


def _samples(args, kwargs, result):
    return {"dynamics.simulate_amplitudes.samples": len(result)}


def _cells(args, kwargs, result):
    cells = [c for row in result.results for c in row]
    return {"sweep.fidelity_surface.cells": len(cells),
            "sweep.fidelity_surface.cell_failures":
                sum(isinstance(c, sweep.CellFailure) for c in cells)}


SCHEDULE_METHODS = ("kappa", "beta", "beta_sq", "stage2_kappa", "reflection")
CLOSEDFORM_FUNCTIONS = ("exp_tau_c", "exp_constants", "exp_population",
                        "exp_coupling", "exp_report", "gauss_constants",
                        "gauss_rate", "gauss_population", "gauss_coupling",
                        "gauss_report")
CLI_COMMANDS = ("schedule", "simulate", "sweep", "verify")
# scipy names each module binds at import; the solver modules must keep them.
SCIPY_REQUIRED = ((profiles, "quad"), (protocol, "quad"),
                  (protocol, "solve_ivp"), (protocol, "brentq"),
                  (dynamics, "solve_ivp"))
SCIPY_OPTIONAL = ((closedform, "brentq"), (sweep, "quad"),
                  (semiclassical, "quad"))


def _install(t: Tracer) -> None:
    t.patch(profiles, "rate_at", "profiles.rate_at", hook=_rate_points)
    t.patch(profiles, "cumulative", "profiles.cumulative")
    t.patch(profiles, "total_excitation", "profiles.total_excitation")

    t.patch(protocol, "build_schedule", "protocol.build_schedule",
            hook=_schedule_shape)
    t.patch(protocol, "peak_time_and_fidelity", "protocol.peak_time_and_fidelity")
    t.patch(protocol, "stage2_population", "protocol.stage2_population")
    for name in SCHEDULE_METHODS:
        t.patch(protocol.CouplingSchedule, name, "protocol.schedule_eval",
                outer_only=True, hook=_schedule_points)

    for owner, name in SCIPY_REQUIRED:
        t.patch(owner, name, f"scipy.{name}",
                hook=_nfev if name == "solve_ivp" else None)
    for owner, name in SCIPY_OPTIONAL:
        t.patch(owner, name, f"scipy.{name}", required=False)
    t.patch(scipy.integrate.OdeSolution, "__call__", "scipy.dense",
            hook=_dense_points)

    t.patch(dynamics, "simulate_amplitudes", "dynamics.simulate_amplitudes",
            hook=_samples)
    t.patch(dynamics, "simulate_master_equation",
            "dynamics.simulate_master_equation")
    t.patch(dynamics, "energy_balance_residual",
            "dynamics.energy_balance_residual")

    for name in CLOSEDFORM_FUNCTIONS:
        t.patch(closedform, name, f"closedform.{name}", group="closedform")

    t.patch(sweep, "fidelity_surface", "sweep.fidelity_surface", hook=_cells)
    t.patch(sweep, "optimal_rate", "sweep.optimal_rate")
    t.patch(sweep, "write_surface_csv", "sweep.write_surface_csv")

    t.patch(semiclassical, "compare_with_full_quantum",
            "semiclassical.compare_with_full_quantum")

    for name in CLI_COMMANDS:
        t.patch(cli, f"cmd_{name}", f"cli.{name}")
