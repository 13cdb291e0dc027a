"""Generic two-stage transfer solver for arbitrary validated input profiles.

Stage 1 holds the coupling at its maximum (kappa = 1) from tau = 0 until the
stored population first reaches the threshold beta^2 = r_in; from that
threshold time tau_c on, stage 2 applies the zero-reflection law
kappa(tau) = r_in(tau)/beta^2(tau), under which the memory absorbs the rest of
the input without reflecting anything.

The solver works for any profile through adaptive quadrature and bracketed
root-finding; the closed forms in `closedform` are its oracles for the two
analytic families. Sign conventions: the source amplitude beta1 is >= 0 and
the memory amplitude beta is <= 0 everywhere.

For inputs that rise too steeply the zero-reflection law can demand
kappa > kappa_max after a first, tangential threshold. `build_schedule`
detects that, reverts to stage 1 at the violation point and hunts for the
next threshold, producing a piecewise schedule with more than two segments;
such schedules are flagged.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.integrate import quad
# Not called here: the benchmark's tracer (perfbench/tracer.py) wraps it by name.
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.integrate._ivp import dop853_coefficients as _DOP
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq

from . import profiles as prof
from .errors import (DomainError, InfeasibleSchedule, NoPeak, NoThreshold,
                     SingularCoupling, brackets_root)

_ODE_RTOL = 1e-12
_ODE_ATOL = 1e-14
_KAPPA_SLACK = 1e-9       # feasibility slack on kappa <= 1
_MAX_SEGMENTS = 32
_DAMP_CUT = 80.0          # exp(-80) below double-precision noise floor
_EPS = np.finfo(float).eps


def _stage1_beta_quad(profile: prof.InputProfile, kappa_i: float,
                      t0: float, beta0: float, tau: float) -> float:
    """Stage-1 memory amplitude by damped-kernel quadrature.

    beta(tau) = beta0 e^{-a(tau-t0)} - int_{t0}^{tau} e^{-a(tau-s)} sqrt(r_in(s)) ds
    with a = (1+kappa_i)/2. The kernel window is truncated where the weight
    has decayed below double precision, which keeps the integrand bounded for
    arbitrarily large tau. epsabs is 1e-13: at 1e-12, quad missed the
    integral of a table piece rising from a zero sample by 2.5e-13.
    """
    a = 0.5 * (1.0 + kappa_i)
    lo = max(t0, tau - _DAMP_CUT / a)
    f = lambda s: math.exp(-a * (tau - s)) * math.sqrt(prof.rate_at(profile, s))
    fv = None
    if profile.kind == prof.TABULATED:
        fv = lambda s: prof._map(math.exp, -a * (tau - s)) \
            * np.sqrt(prof.rate_at(profile, s))
    integral = prof._quad_chunked(
        f, lo, tau, prof._interior_breaks(profile, lo, tau), 1e-13, fv)
    boundary = beta0 * math.exp(-a * (tau - t0)) if beta0 != 0.0 else 0.0
    return boundary - integral


def stage1_amplitude(profile: prof.InputProfile, params: prof.MemoryParams,
                     tau: float) -> float:
    """Memory amplitude beta(tau) <= 0 under stage-1 dynamics (kappa = 1)."""
    if tau < 0.0:
        raise DomainError("stage1_amplitude requires tau >= 0")
    if tau == 0.0:
        return 0.0
    return _stage1_beta_quad(profile, params.kappa_i, 0.0, 0.0, tau)


def stage2_population(profile: prof.InputProfile, params: prof.MemoryParams,
                      tau_c: float, tau: float) -> float:
    """Zero-reflection population beta^2(tau) for tau >= tau_c.

    beta^2(tau) = e^{-k_i(tau-tau_c)} r_in(tau_c)
                + int_{tau_c}^{tau} e^{-k_i(tau-s)} r_in(s) ds
    evaluated with the decaying weight inside the integral so nothing
    overflows however large tau gets.
    """
    if tau < tau_c:
        raise DomainError("stage2_population requires tau >= tau_c")
    return _stage2_pop(profile, params.kappa_i, tau_c,
                       prof.rate_at(profile, tau_c), tau)


def _stage2_pop(profile: prof.InputProfile, k: float, t0: float, pop0: float,
                tau: float) -> float:
    """Stage-2 population beta^2(tau) from beta^2(t0) = pop0."""
    seed = pop0 * math.exp(-k * (tau - t0))
    f = lambda s: math.exp(-k * (tau - s)) * prof.rate_at(profile, s)
    fv = None
    if profile.kind == prof.TABULATED:
        fv = lambda s: prof._map(math.exp, -k * (tau - s)) \
            * prof.rate_at(profile, s)
    integral = prof._quad_chunked(
        f, t0, tau, prof._interior_breaks(profile, t0, tau), 1e-12, fv)
    return seed + integral


# Both stage equations are linear, so a quadrature form can restart at any
# t_a from its value there. A root polish on [lo, hi] anchors at the last
# table knot in (t0, lo), else t0, with one quadrature from t0; each
# evaluation then integrates only from t_a. Analytic profiles have no breaks:
# t_a = t0 with the exact seed, so every value is the full-window one.

def _stage1_anchored(profile: prof.InputProfile, kappa_i: float, t0: float,
                     beta0: float, lo: float) -> Callable[[float], float]:
    """tau -> stage-1 beta(tau) for tau >= lo from beta(t0) = beta0."""
    t_a = (_knots(profile, t0, lo) or [t0])[-1]
    beta_a = _stage1_beta_quad(profile, kappa_i, t0, beta0, t_a)
    return lambda t: _stage1_beta_quad(profile, kappa_i, t_a, beta_a, t)


def _stage2_anchored(profile: prof.InputProfile, params: prof.MemoryParams,
                     t0: float, lo: float) -> Callable[[float], float]:
    """tau -> beta^2(tau) for tau >= lo in the stage-2 stretch from t0."""
    t_a = (_knots(profile, t0, lo) or [t0])[-1]
    pop_a = stage2_population(profile, params, t0, t_a)
    return lambda t: _stage2_pop(profile, params.kappa_i, t_a, pop_a, t)


# ---------------------------------------------------------------------------
# threshold search
# ---------------------------------------------------------------------------

def _activation_time(profile: prof.InputProfile) -> float | None:
    """Earliest tau from which r_in is not identically zero (None if never)."""
    if profile.kind != prof.TABULATED:
        return 0.0
    positive = np.nonzero(profile.rates > 0.0)[0]
    if len(positive) == 0:
        return None
    i = int(positive[0])
    return float(profile.taus[max(i - 1, 0)])


def _dop853_row(d: Dop853DenseOutput) -> tuple[float, ...]:
    """(t_old, h, the rows of F from the last, y_old) of one DOP853 step."""
    return (float(d.t_old), float(d.h), *d.F[::-1, 0].tolist(),
            float(d.y_old[0]))


def _dop853_at(t, t_old, h, f6, f5, f4, f3, f2, f1, f0, y_old):
    """One DOP853 step's dense output at t (a float or an array) from its
    `_dop853_row`: Dop853DenseOutput._call_impl's sequence, from y = 0
    adding the rows of F from the last one, multiplying by x and 1 - x in
    turn, then adding y_old (DOP853 dense output has 7 rows of F)."""
    x = (t - t_old) / h
    xm = 1 - x
    return (((((((0.0 + f6) * x + f5) * xm + f4) * x + f3) * xm + f2) * x
             + f1) * xm + f0) * x + y_old


class _Steps:
    """DOP853 steps as one table of their `_dop853_row`s, with
    `_ExactLinear`'s interface: `ts` runs from the start through the step
    ends (a cut ends it inside the last step), and a point takes the step
    of `ts` holding it as OdeSolution does. `at` (floats) and `dense`
    (arrays) run `_dop853_at`'s arithmetic: OdeSolution's, bit for bit."""

    def __init__(self, ts: list[float], rows: list[tuple[float, ...]]):
        self.ts = np.array(ts)
        self._knots = ts
        self._rows = rows
        self._last = len(rows) - 1

    @cached_property
    def _columns(self) -> np.ndarray:
        return np.array(self._rows).T

    def cut(self, n: int, end: float) -> _Steps:
        """The first n steps, the last of them ending at end."""
        return _Steps(self._knots[:n] + [end], self._rows[:n])

    def at(self, t: float) -> float:
        i = bisect_left(self._knots, t) - 1
        return _dop853_at(t, *self._rows[0 if i < 0 else self._last
                                         if i > self._last else i])

    def dense(self, t: np.ndarray) -> np.ndarray:
        # `_dop853_at` with each row of the table gathered only when the
        # sum reaches it, so no (10, n) block is built
        columns = self._columns
        i = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, self._last)
        x = (t - columns[0][i]) / columns[1][i]
        xm = 1 - x
        y = 0.0 + columns[2][i]
        for row, w in zip(columns[3:9], (x, xm, x, xm, x, xm)):
            y = y * w + row[i]
        return y * x + columns[9][i]


def _knots(profile: prof.InputProfile, a: float, b: float) -> list[float]:
    """The table knots in (a, b), where the PCHIP rate is only C1 and the
    polishes anchor. Analytic profiles have none."""
    if profile.kind != prof.TABULATED:
        return []
    return prof._interior_breaks(profile, a, b)


def _rms(x: float) -> float:
    """np.linalg.norm of a 1-element array: sqrt(x.dot(x))."""
    return math.sqrt(x * x)


def _dop853_steps(fun, t0: float, y0: float, end: float,
                  fail: Callable[[float], Exception]):
    """Accepted DOP853 steps (t, y, dense) of the scalar ODE y' = fun(t, y)
    from t0 to end >= t0.

    This is scipy 1.17.1's DOP853 with `solve_ivp`'s settings (Hairer,
    Norsett and Wanner, Solving ODEs I, II.4-II.5), operation for operation
    on a 1-element state: each weighted stage sum is scipy's own `np.dot`
    call with its operand shapes, on views of one (16, 1) stage array, and
    everything else (step control, error norm, initial step, dense-output
    rows 0-2) is the same float arithmetic on Python floats, so the steps
    and dense outputs are those of `solve_ivp` bit for bit. A failed step
    raises fail(t) at the last accepted t.
    """
    n, dot, C = _DOP.N_STAGES, np.dot, _DOP.C.tolist()
    K = np.empty((_DOP.N_STAGES_EXTENDED, 1))
    k = K[:, 0]
    # (stage, K[:s].T, A[s, :s], C[s]): rk_step's stages, then dense output's
    stages = [(s, K[:s].T, _DOP.A[s, :s], C[s]) for s in range(len(K))]
    trial, extra, KB, KE = stages[1:n], stages[n + 1:], K[:n].T, K[:n + 1].T
    t, y, end = float(t0), float(y0), float(end)
    f = fun(t, y)
    # common.select_initial_step (RMS norms of n = 1)
    span = end - t
    if span == 0.0:
        return
    scale = _ODE_ATOL + abs(y) * _ODE_RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 \
        else (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, span)
    while t < end:
        # RungeKutta._step_impl and rk_step
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise fail(t)
            t_new = min(t + h_abs, end)
            h = h_abs = t_new - t
            k[0] = f
            for s, KT, a, c in trial:
                k[s] = fun(t + c * h, y + dot(KT, a).item() * h)
            y_new = y + h * dot(KB, _DOP.B).item()
            k[n] = f_new = fun(t + h, y_new)
            scale = _ODE_ATOL + max(abs(y), abs(y_new)) * _ODE_RTOL
            e5 = _rms(dot(KE, _DOP.E5).item() / scale) ** 2
            e3 = _rms(dot(KE, _DOP.E3).item() / scale) ** 2
            err = 0.0 if e5 == 0 and e3 == 0 else \
                h * e5 / math.sqrt(e5 + 0.01 * e3)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        # DOP853._dense_output_impl
        for s, KT, a, c in extra:
            k[s] = fun(t + c * h, y + dot(KT, a).item() * h)
        F = np.empty((_DOP.INTERPOLATOR_POWER, 1))
        F[3:] = h * dot(_DOP.D, K)
        dy = y_new - y
        F[:3, 0] = dy, h * f - dy, 2 * dy - h * (f_new + f)
        yield t_new, y_new, Dop853DenseOutput(t, t_new, np.array([y]), F)
        t, y, f = t_new, y_new, f_new


def _stage1_rhs(profile, kappa_i):
    """Right-hand side of beta' = -sqrt(r_in) - (1+kappa_i)/2 beta, the
    stage-1 memory amplitude under kappa = 1."""
    a = 0.5 * (1.0 + kappa_i)
    return lambda t, y: -math.sqrt(prof.rate_at(profile, t)) - a * y


def _down(g: np.ndarray) -> np.ndarray:
    """Indices i of the downward zero crossings g[i] > 0 >= g[i + 1]."""
    return np.flatnonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))


def _threshold_bracket(profile: prof.InputProfile, kappa_i: float,
                       t_start: float, beta_start: float, end: float):
    """Grid bracket (lo, hi) of the first downward crossing of
    g(tau) = sqrt(r_in(tau)) + beta(tau) past t_start, and the stage-1
    solution from t_start up to the part holding hi.

    The fixed 8193-point grid runs from t0 to end: t0 is t_start or, past a
    leading stretch where r_in vanishes identically (g would sit at 0 for a
    fresh memory), the input's activation. The scan is deliberate: slowly
    varying inputs make g dip below zero and come back, and a solver's
    steps can stride across the whole dip. It stops at the first crossing.
    A table is propagated exactly in chunks of pieces (`_ExactLinear`); an
    analytic profile is stepped by DOP853 as `solve_ivp` would, each step's
    grid points (those in (t_old, t], plus t0 in the first step, as
    OdeSolution assigns them) evaluated by its dense output (`_dop853_at`).
    """
    activation = _activation_time(profile)
    if activation is None:
        raise NoThreshold("input profile carries no excitation")
    t0 = max(t_start, activation)
    if t0 >= end:
        raise NoThreshold("input activates only beyond the search horizon")
    parts, ends = [], [t0]      # a table's chunks, or a solve's step rows

    def stretches():
        """(t, beta on the grid points in (the last t, t]) in order of t."""
        if profile.kind == prof.TABULATED:
            for chunk in _ExactLinear.stage1(profile, kappa_i, t_start,
                                             beta_start, t0, end):
                parts.append(chunk)
                yield chunk.ts[-1], chunk.dense
            return
        for t, _, dense in _dop853_steps(
                _stage1_rhs(profile, kappa_i), t0, beta_start, end,
                lambda t: NoThreshold(
                    f"stage-1 integration failed near tau = {t}")):
            row = _dop853_row(dense)
            parts.append(row)
            ends.append(t)
            yield t, lambda s, row=row: _dop853_at(s, *row)

    grid = np.linspace(t0, end, 8193)
    done = 0            # grid points scanned so far
    g_last = 0.0        # g at the last of them
    for t, beta in stretches():
        stop = int(np.searchsorted(grid, t, side="right"))
        if stop == done:
            continue
        g = np.sqrt(prof.rate_at(profile, grid[done:stop])) \
            + beta(grid[done:stop])
        if done:
            g = np.concatenate(([g_last], g))
        down = _down(g)
        if len(down):
            i = max(done - 1, 0) + int(down[0])
            sol = _ExactLinear.join(parts) if profile.kind == prof.TABULATED \
                else _Steps(ends, parts)
            return float(grid[i]), float(grid[i + 1]), sol
        done, g_last = stop, float(g[-1])
    raise NoThreshold(
        f"stage-1 population never reaches the threshold in [{t0}, {end}]"
    )


def _first_threshold(profile: prof.InputProfile, kappa_i: float,
                     t_start: float, beta_start: float, end: float):
    """(tau_c, sol): the first tau_c > t_start where the stored population
    reaches beta^2 = r_in, and the stage 1 from t_start to tau_c: the scan's
    propagation (`_threshold_bracket`) cut at tau_c.

    `_threshold_bracket`'s crossing of g = sqrt(r_in) + beta (beta <= 0, so
    g hits zero exactly at the threshold) is polished on the quadrature
    form of g, which the quadrature oracle checks. The polish anchors at
    the last table knot before the bracket (`_stage1_anchored`), so each
    step integrates from there; an analytic profile anchors at t_start
    with beta_start as the exact seed, so its root is the full-window one
    bitwise.
    """
    lo, hi, sol = _threshold_bracket(profile, kappa_i, t_start, beta_start,
                                     end)
    beta_quad = _stage1_anchored(profile, kappa_i, t_start, beta_start, lo)
    g_quad = lambda t: math.sqrt(prof.rate_at(profile, t)) + beta_quad(t)

    if g_quad(lo) > 0.0 > g_quad(hi):
        tau_c = brentq(g_quad, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    else:
        # Quadrature disagrees about the bracket (possible only within its
        # own ~1e-12 error of a tangency); fall back to the propagated
        # dynamics. The scan took its signs from array evaluations, so
        # check them on floats.
        g_dense = lambda t: math.sqrt(prof.rate_at(profile, t)) + sol.at(t)
        if not brackets_root(g_dense(lo), g_dense(hi)):
            raise NoThreshold(f"threshold residual does not change sign on "
                              f"the bracket [{lo!r}, {hi!r}]")
        tau_c = brentq(g_dense, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    return tau_c, sol.cut(max(bisect_left(sol._knots, tau_c), 1), tau_c)


def threshold_time(profile: prof.InputProfile, params: prof.MemoryParams) -> float:
    """Smallest tau_c > 0 with beta^2(tau_c) = r_in(tau_c) under stage 1."""
    return _first_threshold(profile, params.kappa_i, 0.0, 0.0,
                            prof.horizon(profile))[0]


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Segment:
    stage: int              # 1: kappa = 1 builds the seed; 2: zero reflection
    t0: float
    t1: float
    # beta (stage 1) or beta^2 (stage 2): an analytic profile's DOP853 steps
    # (`_Steps`) or a table's exact propagation (`_ExactLinear`), whose `at`
    # (floats) and `dense` (arrays) agree bit for bit
    sol: _Steps | _ExactLinear

    @cached_property
    def at(self) -> Callable[[float], float]:
        return self.sol.at

    @cached_property
    def dense(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.sol.dense

    def beta_sq(self, t: float) -> float:
        """Stored population at a float t inside the segment."""
        val = self.at(t)
        return val * val if self.stage == 1 else max(val, 0.0)

    def beta_sq_array(self, ts: np.ndarray) -> np.ndarray:
        """`beta_sq` at each t of an array, bitwise."""
        val = self.dense(ts)
        return val * val if self.stage == 1 else np.where(val < 0.0, 0.0, val)


@dataclass(frozen=True, eq=False)
class CouplingSchedule:
    """Piecewise coupling schedule: kappa = 1 before tau_c, r_in/beta^2 after.

    `segments` covers [0, horizon]; evaluations beyond the horizon fall back
    to direct quadrature of the stage-2 population. Schedules with more than
    one stage-1 segment arise from the feasibility guard and carry the
    "feasibility_resumed" flag.

    The evaluation methods take a float or an array (`_dispatch`). An array
    costs one dense-output call per segment it touches, and each of its
    values equals the float call bitwise.
    """

    profile: prof.InputProfile
    params: prof.MemoryParams
    tau_c: float
    segments: tuple[_Segment, ...]
    horizon: float
    flags: tuple[str, ...] = ()

    @property
    def last_tau_c(self) -> float:
        return self.segments[-1].t0

    @cached_property
    def _inner_ends(self) -> list[float]:
        """Ends of every segment but the last: the segment lookup's edges."""
        return [seg.t1 for seg in self.segments[:-1]]

    @cached_property
    def _stages(self) -> np.ndarray:
        return np.array([seg.stage for seg in self.segments])

    def _segment_at(self, tau: float) -> _Segment:
        """The segment holding tau: the first one ending after it, else the
        last."""
        return self.segments[bisect_right(self._inner_ends, tau)]

    def _dense(self, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stage and dense-output value (beta in stage 1, beta^2 in stage 2)
        at each sample, with one dense-output call per segment."""
        idx = np.searchsorted(self._inner_ends, taus, side="right")
        vals = np.empty(taus.shape)
        for i, seg in enumerate(self.segments):
            mask = idx == i
            if mask.any():
                vals[mask] = seg.dense(taus[mask])
        return self._stages[idx], vals

    def _sampled(self, taus: np.ndarray):
        """(stage, dense value, beta^2) at each sample; past the horizon the
        stage is 2, the dense value nan and beta^2 comes from quadrature."""
        inside = taus <= self.horizon
        stages = np.full(taus.shape, 2)
        vals = np.full(taus.shape, math.nan)
        stages[inside], vals[inside] = self._dense(taus[inside])
        pop = np.where(stages == 1, vals * vals, np.where(vals < 0.0, 0.0, vals))
        for i in np.flatnonzero(~inside).tolist():
            pop[i] = stage2_population(self.profile, self.params,
                                       self.last_tau_c, float(taus[i]))
        return stages, vals, pop

    def _dispatch(self, name: str, tau, on_float, on_array, **kw):
        """An evaluator's call at anything but a float in its domain: a 0-d
        tau goes to on_float as a float, an array to on_array as a float
        array (each with **kw), once tau >= 0 (`stage2_kappa`: tau >= tau_c)
        is checked."""
        scalar = isinstance(tau, float) or np.ndim(tau) == 0
        tau = float(tau) if scalar else np.asarray(tau, dtype=float)
        floor = self.tau_c if name == "stage2_kappa" else 0.0
        if (tau < floor) if scalar else np.any(tau < floor):
            raise DomainError(f"{name} requires tau >= "
                              f"{'tau_c' if floor else 0}")
        return (on_float if scalar else on_array)(tau, **kw)

    # Each evaluator's body is its float path; every other call goes through
    # `_dispatch`, so a float in the domain costs one type check. The bodies
    # make no closure: that would put self in a cell on every call.

    def beta_sq(self, tau):
        """Stored population beta^2 at any tau >= 0 (a float or an array)."""
        if not isinstance(tau, float) or tau < 0.0:
            return self._dispatch("beta_sq", tau, self.beta_sq,
                                  self._beta_sq_array)
        if tau > self.horizon:
            return stage2_population(self.profile, self.params,
                                     self.last_tau_c, tau)
        return self._segment_at(tau).beta_sq(tau)

    def beta(self, tau):
        """Memory amplitude (<= 0) at any tau >= 0 (a float or an array)."""
        if not isinstance(tau, float) or tau < 0.0:
            return self._dispatch("beta", tau, self.beta, self._beta_array)
        if tau <= self.horizon:
            seg = self._segment_at(tau)
            if seg.stage == 1:
                return seg.at(tau)
        return -math.sqrt(self.beta_sq(tau))

    def stage2_kappa(self, tau):
        """Zero-reflection coupling r_in/beta^2 for tau >= tau_c (a float or
        an array)."""
        if not isinstance(tau, float) or tau < self.tau_c:
            return self._dispatch("stage2_kappa", tau, self.stage2_kappa,
                                  self._stage2_kappa_array)
        rate = prof.rate_at(self.profile, tau)
        if rate == 0.0:
            return 0.0
        pop = self.beta_sq(tau)
        if pop <= 0.0:
            raise SingularCoupling(
                f"population numerically null at tau = {tau}; coupling undefined"
            )
        return rate / pop

    def kappa(self, tau, *, nan_if_singular: bool = False):
        """Full piecewise coupling: 1 in stage-1 segments, r_in/beta^2 after.

        tau is a float or an array. Where the zero-reflection law is singular
        (see `stage2_kappa`) the value is nan with `nan_if_singular`;
        otherwise SingularCoupling is raised.
        """
        if not isinstance(tau, float) or tau < 0.0:
            return self._dispatch("kappa", tau, self.kappa, self._kappa_array,
                                  nan_if_singular=nan_if_singular)
        if tau <= self.horizon and self._segment_at(tau).stage == 1:
            return 1.0
        try:
            return self.stage2_kappa(tau)
        except SingularCoupling:
            if nan_if_singular:
                return math.nan
            raise

    def reflection(self, tau):
        """Instantaneous reflection rate r_out = (beta sqrt(kappa) + sqrt(r_in))^2
        (tau a float or an array)."""
        if not isinstance(tau, float) or tau < 0.0:
            return self._dispatch("reflection", tau, self.reflection,
                                  self._reflection_array)
        w = self.beta(tau) * math.sqrt(self.kappa(tau)) \
            + math.sqrt(prof.rate_at(self.profile, tau))
        return w * w

    def _beta_sq_array(self, taus: np.ndarray) -> np.ndarray:
        return self._sampled(taus)[2]

    def _beta_array(self, taus: np.ndarray) -> np.ndarray:
        stages, vals, pop = self._sampled(taus)
        return np.where(stages == 1, vals, -np.sqrt(pop))

    def _zero_reflection(self, taus: np.ndarray, pop: np.ndarray,
                         nan_if_singular: bool = False) -> np.ndarray:
        """r_in/beta^2 at each sample, 0 where r_in = 0; where beta^2 <= 0
        while r_in is not, raise SingularCoupling or give nan."""
        rate = prof.rate_at(self.profile, taus)
        singular = (rate != 0.0) & (pop <= 0.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.where(rate == 0.0, 0.0, rate / pop)
        if singular.any():
            if not nan_if_singular:
                raise SingularCoupling(
                    f"population numerically null at tau = "
                    f"{float(taus[singular][0])}; coupling undefined")
            out[singular] = math.nan
        return out

    def _stage2_kappa_array(self, taus: np.ndarray) -> np.ndarray:
        return self._zero_reflection(taus, self._sampled(taus)[2])

    def _kappa_array(self, taus: np.ndarray, *,
                     nan_if_singular: bool = False) -> np.ndarray:
        stages, _, pop = self._sampled(taus)
        two = stages == 2
        out = np.ones(taus.shape)
        out[two] = self._zero_reflection(taus[two], pop[two], nan_if_singular)
        return out

    def _reflection_array(self, taus: np.ndarray) -> np.ndarray:
        w = self._beta_array(taus) * np.sqrt(self._kappa_array(taus)) \
            + np.sqrt(prof.rate_at(self.profile, taus))
        return w * w

    def breakpoints(self) -> list[float]:
        """Segment boundary times (kappa is non-smooth there)."""
        return [seg.t0 for seg in self.segments[1:]]


_TAIL = 2.0 ** -60       # series terms below this share of the leading one are cut
_SPREAD = 0.5            # largest sum_j |c_j| h^j / c_0 of a square-root piece
_MAX_TERMS = 60          # longest square-root series
_CHUNK = 256             # pieces of the first stage-1 chunk; each next doubles


def _horner(coefs, v):
    """sum_m coefs[m] v^(m+1) by Horner's rule, from the top coefficient.
    Each coefficient is a float or an array; the arithmetic is the same on
    floats and elementwise on arrays."""
    acc = coefs[-1]
    for c in coefs[-2::-1]:
        acc = acc * v + c
    return acc * v


def _recentred(table: prof._Piecewise, piece: np.ndarray,
               starts: np.ndarray) -> list[np.ndarray]:
    """[c_0, .., c_3]: the cubic of knot interval piece[i] re-centred at
    starts[i], r_in(starts[i] + v) = sum_j c_j[i] v^j."""
    c0, c1, c2, c3 = table.pp.c[::-1][:, piece]
    s = starts - table.pp.x[piece]
    return [((c3 * s + c2) * s + c1) * s + c0,
            (3.0 * c3 * s + 2.0 * c2) * s + c1, 3.0 * c3 * s + c2, c3]


def _pieces(profile, starts: list[float], end: float, parts):
    """(ts, knot interval of each piece) for the pieces from `starts` to
    end, each cut into parts(starts, h, piece) equal parts."""
    table = profile._interp
    starts = np.array(starts)
    # the piece scipy's search gives the start: x[i] <= t < x[i+1]
    piece = np.clip(np.searchsorted(table.pp.x, starts, side="right") - 1,
                    0, table.last)
    h = np.append(starts[1:], end) - starts
    n = parts(starts, h, piece).astype(int)
    if n.max() > 1:
        at = np.repeat(np.arange(len(starts)), n)
        share = (np.arange(len(at)) - np.repeat(np.cumsum(n) - n, n)) / n[at]
        starts, piece = starts[at] + h[at] * share, piece[at]
    return np.append(starts, end), piece


def _spread(c: list[np.ndarray], h: np.ndarray) -> np.ndarray:
    """sum_j |c_j| h^j / c_0 on each piece: inf where c_0 <= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ((np.abs(c[3]) * h + np.abs(c[2])) * h + np.abs(c[1])) * h / c[0]
    return np.where(c[0] > 0.0, out, np.inf)


def _root_series(c: list[np.ndarray], h: np.ndarray, ok: np.ndarray):
    """(rows s_0, s_1, .., terms, passed): the Taylor series of
    sqrt(sum_j c_j v^j) on each piece, s_0 = sqrt(c_0) and
    s_n = (c_n - sum_{j=1}^{n-1} s_j s_{n-j}) / (2 s_0).

    A piece marked ok (0 throughout, or c_0 > 0 and sum_j |c_j| h^j <=
    c_0/2) keeps its terms up to the first n where s_{n-2}, s_{n-1} and
    s_n are each at most 2^-64 s_0 at v = h, and passes; its later rows
    hold 0. The rest of its series is then below 2^-60 s_0 on the piece:
    s solves 2 q s' = q' s for the cubic q, so for n >= 2
    |s_{n+1}| h^(n+1) <= sum_j |c_j| h^j / c_0 |s_{n+1-j}| h^(n+1-j)."""
    c = [np.where(ok, cj, 0.0) for cj in c]
    rows = [np.sqrt(c[0])]
    twice = np.where(rows[0] > 0.0, 2.0 * rows[0], 1.0)
    small, hn = _TAIL / 16.0 * rows[0], np.ones_like(h)
    run, terms = np.zeros(len(h), dtype=int), np.where(ok, 0, 1)
    with np.errstate(all="ignore"):
        for n in range(1, _MAX_TERMS):
            # the products s_j s_{n-j} in order of j: each pair twice
            conv = rows[n // 2] * rows[n // 2] if n % 2 == 0 else 0.0
            for j in range(1, (n + 1) // 2):
                conv = conv + 2.0 * (rows[j] * rows[n - j])
            rows.append(((c[n] if n < 4 else 0.0) - conv) / twice)
            hn = hn * h
            run = np.where(np.abs(rows[-1]) * hn <= small, run + 1, 0)
            terms = np.where((terms == 0) & (run >= 3), n + 1, terms)
            if terms.all():
                break
    rows = [np.where(n < terms, row, 0.0) for n, row in enumerate(rows)]
    return rows, terms, ok & (terms > 0) & np.isfinite(rows).all(axis=0)


def _phi_series(p: list, k: float, m: int) -> list:
    """Rows d_1..d_m of S(v) = sum_m d_m v^m, the solution of
    S' = sum_j p_j v^j - k S from S(0) = 0: d_m = b_m/m! with b_1 = p_0,
    b_m = (m-1)! p_{m-1} - k b_{m-1} (p_j = 0 past the last row)."""
    b = [p[0]]
    for j in range(1, m):
        b.append((float(math.factorial(j)) * p[j] if j < len(p) else 0.0)
                 - k * b[-1])
    return [bj / float(math.factorial(j)) for j, bj in enumerate(b, 1)]


class _ExactLinear:
    """y' = p(v) - k y propagated exactly over pieces, where from each
    piece's start o, p(o + v) = sum_j p_j v^j: a table's stage-2 population
    (p = r_in, k = kappa_i) and stage-1 amplitude (p = -sqrt(r_in),
    k = (1 + kappa_i)/2). With y = y(o), the exponential integrator's phi
    functions (Hochbruck and Ostermann, Acta Numerica 19, 2010) give

        y(o + v) = y + (expm1(-k v) y + S(v)),
        S(v) = sum_j j! p_j v^(j+1) phi_{j+1}(-k v),  phi_m(z) = sum_n z^n/(n+m)!

    two power series in v, with coefficients g_m = (-k)^m/m! and d_m
    (`_phi_series`). A point takes the piece of `ts` that holds it, the
    earlier one at a piece end, clamped to the first and last pieces. `at`
    (floats) and `dense` (arrays) run the same arithmetic, bit for bit, and
    at a piece end give the recurrence y_{i+1} = y_i + (expm1(-k h_i) y_i +
    S_i(h_i)), which carries each rounding error on (TwoSum). A `fallback`
    piece (stage 1 where r_in reaches 0 inside it or at its start, a branch
    point of the square root) takes the quadrature form `quad(o, y, t)`.
    """

    def __init__(self, ts: np.ndarray, y: list[float], lo: list[float],
                 d: list[np.ndarray], g: list[float],
                 fallback: tuple[int, ...] = (), quad=None):
        self.ts = ts
        self._knots = ts.tolist()
        self._last = len(y) - 1
        self._y, self._y_array = y, np.array(y)
        self._lo, self._lo_array = lo, np.array(lo)
        self._d = d                 # rows d_1..d_M, each over the pieces
        self._g = g
        self.fallback = fallback    # indices of the quadrature pieces
        self._quad = quad

    @cached_property
    def _d_pieces(self) -> list[list[float]]:
        """[d_1, .., d_M] of each piece, for `at`."""
        return np.array(self._d).T.tolist()

    @classmethod
    def _propagated(cls, ts, y0, lo0, d, g, fallback=(), quad=None):
        """(the pieces between `ts` from y(ts[0]) = y0 + lo0, the recurrence's
        values at `ts`, the rounding error of the last)."""
        h = ts[1:] - ts[:-1]
        ys, los = [y0], [lo0]
        for i, (e, s_h) in enumerate(zip(_horner(g, h).tolist(),
                                         _horner(d, h).tolist())):
            y, lo = ys[-1], los[-1]
            if i in fallback:
                ys.append(quad(float(ts[i]), y, float(ts[i + 1])))
                los.append(0.0)
                continue
            inc = lo + (e * y + s_h)
            y_new = y + inc
            back = y_new - y
            ys.append(y_new)
            los.append((y - (y_new - back)) + (inc - back))
        return cls(ts, ys[:-1], los[:-1], d, g, fallback, quad), ys, los[-1]

    @classmethod
    def stage2(cls, profile: prof.InputProfile, k: float, t0: float,
               y0: float, end: float) -> tuple[_ExactLinear, list[float]]:
        """The stage-2 population from beta^2(t0) = y0 to end, and beta^2 at
        each entry of its `ts`. The pieces are the knot intervals from t0,
        cut in equal parts so that k h <= 1/2; the series stop at the first
        term M with 24 (k h)^(M-3)/(M+1)! below 2^-60 for the longest piece
        h: the tail relative to the cubic's term."""
        ts, piece = _pieces(profile, [t0] + prof._interior_breaks(
            profile, t0, end), end, lambda _, h, __: np.maximum(np.ceil(
                2.0 * k * h), 1.0))
        rho = k * float(np.diff(ts).max())
        m = 4
        while 24.0 * rho ** (m - 3) > _TAIL * math.factorial(m + 1):
            m += 1
        d = _phi_series(_recentred(profile._interp, piece, ts[:-1]), k, m)
        g = [(-k) ** j / math.factorial(j) for j in range(1, m + 1)]
        return cls._propagated(ts, y0, 0.0, d, g)[:2]

    @classmethod
    def stage1(cls, profile: prof.InputProfile, kappa_i: float,
               t_start: float, beta_start: float, t0: float, end: float):
        """The stage-1 amplitude from beta(t_start) = beta_start towards
        end, in chunks of 256, 512, .. pieces, each an `_ExactLinear` going
        on from the last. r_in is 0 before t0: [t_start, t0] is one piece
        with p = 0. From t0 the pieces are the knot intervals, cut in equal
        parts so that k h <= 1/2 and, up to 32 parts, sum_j |c_j| h^j <=
        c_0/4 (`_spread`). A piece falls back to `_stage1_beta_quad` where
        its series fails `_root_series`. expm1's series has the first
        length M with (k h)^M/(M+1)! below 2^-60 for the longest h, S's the
        longer of M and one more than the square root's, so no piece
        depends on its chunk."""
        k = 0.5 * (1.0 + kappa_i)
        table = profile._interp

        def parts(starts, h, piece):
            spread = np.where(starts < t0, 0.0,
                              _spread(_recentred(table, piece, starts), h))
            need = np.where(np.isfinite(spread), np.minimum(np.ceil(
                spread / (0.5 * _SPREAD)), 32.0), 1.0)
            return np.maximum(np.maximum(np.ceil(2.0 * k * h), need), 1.0)

        ts, piece = _pieces(profile, [t_start] * (t_start < t0) + [t0]
                            + prof._interior_breaks(profile, t0, end), end,
                            parts)
        h = np.diff(ts)
        c = [np.where(ts[:-1] < t0, 0.0, cj)
             for cj in _recentred(table, piece, ts[:-1])]
        ok = (_spread(c, h) <= _SPREAD) | ~np.any(c, axis=0)
        rho = k * float(h.max())
        m = 1
        while rho ** m > _TAIL * math.factorial(m + 1):
            m += 1
        g = [(-k) ** j / math.factorial(j) for j in range(1, m + 1)]
        quad = lambda o, y, t: _stage1_beta_quad(profile, kappa_i, o, y, t)
        y, lo, i, size = beta_start, 0.0, 0, _CHUNK
        while i < len(h):
            j = min(i + size, len(h))
            rows, terms, passed = _root_series([cj[i:j] for cj in c], h[i:j],
                                               ok[i:j])
            with np.errstate(over="ignore", invalid="ignore"):
                d = _phi_series([-row for row in rows], k,
                                max(len(rows) + 1, m))
            # b_m = (m-1)! p_{m-1} - k b_{m-1} can overflow on a very short
            # piece with a long series: that piece falls back too
            passed &= np.isfinite(d).all(axis=0)
            d = [np.where(passed & (n < np.maximum(terms + 1, m)), row, 0.0)
                 for n, row in enumerate(d)]
            sol, ys, lo = cls._propagated(
                ts[i:j + 1], y, lo, d, g,
                tuple(np.flatnonzero(~passed).tolist()), quad)
            yield sol
            y, i, size = ys[-1], j, 2 * size

    @classmethod
    def join(cls, parts: list[_ExactLinear]) -> _ExactLinear:
        """Consecutive propagations as one, each piece bitwise as it was."""
        rows, sizes = max(len(p._d) for p in parts), [len(p._y) for p in parts]
        d = [np.concatenate([p._d[n] if n < len(p._d) else np.zeros(size)
                             for p, size in zip(parts, sizes)])
             for n in range(rows)]
        starts = np.cumsum([0] + sizes)
        return cls(np.concatenate([p.ts[:-1] for p in parts]
                                  + [parts[-1].ts[-1:]]),
                   [v for p in parts for v in p._y],
                   [v for p in parts for v in p._lo], d, parts[0]._g,
                   tuple(int(o) + i for p, o in zip(parts, starts)
                         for i in p.fallback), parts[0]._quad)

    def cut(self, n: int, end: float) -> _ExactLinear:
        """The first n pieces, the last of them ending at end."""
        return _ExactLinear(np.append(self.ts[:n], end), self._y[:n],
                            self._lo[:n], [row[:n] for row in self._d],
                            self._g, tuple(i for i in self.fallback if i < n),
                            self._quad)

    def at(self, t: float) -> float:
        i = bisect_left(self._knots, t) - 1
        i = 0 if i < 0 else self._last if i > self._last else i
        v, y = t - self._knots[i], self._y[i]
        if i in self.fallback:
            return self._quad(self._knots[i], y, t)
        return y + (self._lo[i] + (_horner(self._g, v) * y
                                   + _horner(self._d_pieces[i], v)))

    def dense(self, t: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, self._last)
        v, y = t - self.ts[i], self._y_array[i]
        # _horner on the rows of the pieces at i, each gathered as it is
        # reached, so no (M, n) block is built
        s = self._d[-1][i]
        for row in self._d[-2::-1]:
            s = s * v + row[i]
        out = y + (self._lo_array[i] + (_horner(self._g, v) * y + s * v))
        if self.fallback:
            for j in np.flatnonzero(np.isin(i, self.fallback)).tolist():
                out[j] = self.at(float(t[j]))
        return out


def _integrate_stage2(profile, kappa_i, tau_c, end):
    """Solve beta^2' = r_in - kappa_i beta^2 from beta^2 = r_in at tau_c,
    up to end or to the first point where the zero-reflection law would
    need kappa above 1: (solution, that point or None).

    The violation function triggers at half the feasibility slack and
    carries an additive floor of 1e-13: once both the population and the
    input rate have decayed below the integrator's absolute tolerance, the
    ratio r_in/beta^2 is pure noise and must not be mistaken for a
    violation. A table is propagated exactly over its PCHIP pieces, an
    analytic profile stepped by DOP853 up to the first step that ends past
    a violation. As in `solve_ivp`, the violation lies in the first piece or
    step whose end values have g >= 0 >= g_new; `brentq` finds it there on
    the exact form or the step's dense output, and the solution ends there.
    """
    def violation(t, y):
        return (1.0 + 0.5 * _KAPPA_SLACK) * y - prof.rate_at(profile, t) + 1e-13

    y0 = prof.rate_at(profile, tau_c)
    if profile.kind == prof.TABULATED:
        sol, ys = _ExactLinear.stage2(profile, kappa_i, tau_c, y0, end)
        at = sol.at
    else:
        ts, ys, rows = [tau_c], [y0], []
        for t, y, dense in _dop853_steps(
                lambda t, y: prof.rate_at(profile, t) - kappa_i * y,
                tau_c, y0, end, lambda t: InfeasibleSchedule(
                    f"stage-2 integration failed near tau = {t}")):
            ts.append(t)
            ys.append(y)
            rows.append(_dop853_row(dense))
            if violation(ts[-2], ys[-2]) >= 0.0 >= violation(t, y):
                break
        sol = _Steps(ts, rows)
        at = lambda s: _dop853_at(s, *rows[-1])
    g = violation(sol.ts, np.array(ys))
    down = np.flatnonzero((g[:-1] >= 0.0) & (g[1:] <= 0.0))
    if not len(down):
        return sol, None
    i = int(down[0])
    lo = sol._knots[i]
    root = brentq(lambda s: violation(s, at(s)), lo, sol._knots[i + 1],
                  xtol=4 * _EPS, rtol=4 * _EPS)
    # as solve_ivp: a root at the piece's start ends the piece before
    return sol.cut(i if root == lo and i > 0 else i + 1, root), root


def build_schedule(profile: prof.InputProfile,
                   params: prof.MemoryParams) -> CouplingSchedule:
    """Construct the optimal piecewise coupling schedule for a profile."""
    end = prof.horizon(profile)
    segments: list[_Segment] = []
    flags: list[str] = []
    t_start, beta_start = 0.0, 0.0

    while len(segments) < _MAX_SEGMENTS:
        tau_c, sol1 = _first_threshold(profile, params.kappa_i, t_start,
                                       beta_start, end)
        segments.append(_Segment(1, t_start, tau_c, sol1))
        sol2, t_violation = _integrate_stage2(profile, params.kappa_i, tau_c, end)
        if t_violation is None:
            segments.append(_Segment(2, tau_c, end, sol2))
            break
        segments.append(_Segment(2, tau_c, t_violation, sol2))
        flags.append("feasibility_resumed")
        # At the violation kappa = r_in/beta^2 = 1, so beta^2 = r_in there and
        # stage 1 continues with the same amplitude.
        t_start = t_violation
        beta_start = -math.sqrt(segments[-1].at(t_violation))
    else:
        raise InfeasibleSchedule(
            f"no feasible schedule within {_MAX_SEGMENTS} segments"
        )

    if params.kappa_i > 0.0 and profile.kind == prof.EXPONENTIAL \
            and params.kappa_i >= profile.r:
        flags.append("kappa_i_ge_r")

    return CouplingSchedule(profile=profile, params=params,
                            tau_c=segments[0].t1,
                            segments=tuple(segments), horizon=end,
                            flags=tuple(dict.fromkeys(flags)))


# ---------------------------------------------------------------------------
# peak time, fidelity and loss bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferReport:
    """Transfer figures of merit and the loss breakdown.

    The four contributions fidelity + loss_stage1_reflection + loss_intrinsic
    + loss_unabsorbed account for the full input excitation; each is computed
    by an independent quadrature, so their sum reaching 1 is a genuine
    cross-check rather than an identity.
    """

    tau_c: float
    tau_max: float
    fidelity: float
    loss_stage1_reflection: float
    loss_intrinsic: float
    loss_unabsorbed: float
    flags: tuple[str, ...] = ()


def _losses(schedule: CouplingSchedule, tau_max: float) -> tuple[float, float]:
    """Stage-1 reflection, the integral of r_out over the stage-1 parts of
    [0, tau_max], and intrinsic loss, kappa_i times the integral of beta^2."""
    profile, k = schedule.profile, schedule.params.kappa_i
    table = profile.kind == prof.TABULATED
    reflection = intrinsic = 0.0
    for seg in schedule.segments:
        hi = min(seg.t1, tau_max)
        if hi <= seg.t0:
            break
        breaks = prof._interior_breaks(profile, seg.t0, hi)
        if seg.stage == 1:

            def r_out(s, _beta=seg.at):
                w = _beta(s) + math.sqrt(prof.rate_at(profile, s))
                return w * w

            def r_out_array(s, _beta=seg.dense):
                w = _beta(s) + np.sqrt(prof.rate_at(profile, s))
                return w * w

            reflection += prof._quad_chunked(
                r_out, seg.t0, hi, breaks, 1e-12, r_out_array if table else None)
        if k != 0.0:
            # Quadrature nodes lie inside (t0, hi), so this is schedule.beta_sq.
            intrinsic += prof._quad_chunked(
                seg.beta_sq, seg.t0, hi, breaks, 1e-12,
                seg.beta_sq_array if table else None)
    if k != 0.0 and tau_max > schedule.horizon:
        # The input is extinct past the horizon: one interval, no breaks.
        # beta^2 there is anchored once, before the horizon (on an analytic
        # profile at last_tau_c, so it is schedule.beta_sq bitwise).
        pop = _stage2_anchored(profile, schedule.params, schedule.last_tau_c,
                               schedule.horizon)
        intrinsic += quad(pop, schedule.horizon, tau_max,
                          limit=200, epsabs=1e-10, epsrel=1e-12)[0]
    return reflection, k * intrinsic


def _slope(schedule: CouplingSchedule, ts: np.ndarray) -> np.ndarray:
    """Population slope d(beta^2)/dtau = r_in - r_out - kappa_i beta^2 at
    each sample.

    In stage-2 regions r_out = 0 by construction; in stage-1 regions it is
    (beta + sqrt(r_in))^2. Evaluated without dividing by the population,
    which decays below the integrator noise floor in the far tail.
    """
    k = schedule.params.kappa_i
    stages, b = schedule._dense(ts)
    rate = prof.rate_at(schedule.profile, ts)
    w = b + np.sqrt(rate)
    return np.where(stages == 1, rate - k * b * b - w * w,
                    rate - k * np.where(b < 0.0, 0.0, b))


def _local_maxima(schedule: CouplingSchedule) -> list[tuple[float, float]]:
    """(tau, beta^2(tau)) at every tau in [tau_c, horizon] where the slope
    crosses zero downward.

    Log-spaced offsets from tau_c: the peak can sit anywhere between just
    past the threshold (strong damping) and far in the tail (weak damping),
    and a uniform grid over a long horizon would step right over early ones.
    A multi-hump input can produce several local maxima (population dips in
    resumed stage-1 windows), so all crossings are collected.

    In a stage-2 stretch the root of r_in - kappa_i beta^2 is polished with
    beta^2 by quadrature, not by the dense ODE output, which the quadrature
    oracle checks. It anchors once per bracket at the last table knot before
    it (`_stage2_anchored`), and the peak's beta^2 comes from that anchor; an
    analytic profile anchors at the threshold, bitwise the full window.
    """
    profile, params = schedule.profile, schedule.params
    lo, hi = schedule.tau_c, schedule.horizon
    delta0 = 1e-6 * max(lo, 1.0)
    ts = lo + np.geomspace(delta0, hi - lo, 4097)
    peaks = []
    for i in _down(_slope(schedule, ts)).tolist():
        a, b = float(ts[i]), float(ts[i + 1])
        seg = schedule._segment_at(0.5 * (a + b))
        root = None
        if seg.stage == 2:
            pop = _stage2_anchored(profile, params, seg.t0, a)
            h = lambda t: prof.rate_at(profile, t) - params.kappa_i * pop(t)
            if h(a) > 0.0 >= h(b):
                root = brentq(h, a, b, xtol=1e-10, rtol=8.9e-16, maxiter=200)
        if root is None:
            root = brentq(lambda t: float(_slope(schedule, np.array([t]))[0]),
                          a, b, xtol=1e-10, rtol=8.9e-16, maxiter=200)
        root = float(root)
        in_seg = seg.stage == 2 and schedule._segment_at(root) is seg
        peaks.append((root, pop(root) if in_seg
                      else _population_at(schedule, root)))
        if len(peaks) >= 64:
            break
    return peaks


def _tail_peak(schedule: CouplingSchedule) -> tuple[float, float]:
    """(tau, beta^2(tau)) at the peak past the horizon, where the input is
    effectively extinct; beta^2 is anchored once, before the horizon."""
    pop = _stage2_anchored(schedule.profile, schedule.params,
                           schedule.last_tau_c, schedule.horizon)
    tail_slope = lambda t: prof.rate_at(schedule.profile, t) \
        - schedule.params.kappa_i * pop(t)
    left = schedule.horizon
    width = max(schedule.horizon - schedule.tau_c, 1.0)
    for _ in range(64):
        ts = np.linspace(left, left + width, 65)
        down = _down(prof._map(tail_slope, ts))
        if len(down):
            i = int(down[0])
            t = brentq(tail_slope, float(ts[i]), float(ts[i + 1]),
                       xtol=1e-10, rtol=8.9e-16, maxiter=200)
            return t, pop(t)
        left += width
        width *= 2.0
    raise NoPeak("population slope never crosses zero")


def _population_at(schedule: CouplingSchedule, tau: float) -> float:
    """beta^2(tau) for tau <= horizon, via quadrature when tau lies in a
    stage-2 region so the reported fidelity does not depend on the dense ODE
    output."""
    seg = schedule._segment_at(tau)
    if seg.stage == 2:
        return stage2_population(schedule.profile, schedule.params,
                                 seg.t0, tau)
    return schedule.beta_sq(tau)


def peak_time_and_fidelity(profile: prof.InputProfile, params: prof.MemoryParams,
                           schedule: CouplingSchedule) -> TransferReport:
    """Global population peak, fidelity F = beta^2(tau_max), loss breakdown.

    Multi-hump inputs can produce transient local maxima (the population
    leaks back out while the schedule waits at kappa = 1 for the next hump),
    so all slope crossings are compared and the global maximum wins. Without
    intrinsic loss the tau -> inf limit is a candidate too, since the
    population never decreases after the last threshold.
    """
    k = params.kappa_i
    flags = schedule.flags

    candidates = _local_maxima(schedule)
    if k == 0.0:
        tau_c_last = schedule.last_tau_c
        total = prof.total_excitation(profile, math.inf)
        limit = prof.rate_at(profile, tau_c_last) \
            + (total - prof.total_excitation(profile, tau_c_last))
        candidates.append((math.inf, limit))
    elif not candidates:
        candidates.append(_tail_peak(schedule))

    # On exact ties, prefer the earliest attainment.
    tau_max, fidelity = max(candidates, key=lambda tf: (tf[1], -tf[0]))

    reflection, intrinsic = _losses(schedule, tau_max)
    return TransferReport(
        tau_c=schedule.tau_c,
        tau_max=tau_max,
        fidelity=fidelity,
        loss_stage1_reflection=reflection,
        loss_intrinsic=intrinsic,
        loss_unabsorbed=1.0 - prof.total_excitation(profile, tau_max),
        flags=flags,
    )
