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
from scipy.integrate import OdeSolution, quad
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
                      t0: float, beta0: float, tau: float,
                      epsabs: float = 1e-12) -> float:
    """Stage-1 memory amplitude by damped-kernel quadrature.

    beta(tau) = beta0 e^{-a(tau-t0)} - int_{t0}^{tau} e^{-a(tau-s)} sqrt(r_in(s)) ds
    with a = (1+kappa_i)/2. The kernel window is truncated where the weight
    has decayed below double precision, which keeps the integrand bounded for
    arbitrarily large tau.
    """
    a = 0.5 * (1.0 + kappa_i)
    lo = max(t0, tau - _DAMP_CUT / a)
    f = lambda s: math.exp(-a * (tau - s)) * math.sqrt(prof.rate_at(profile, s))
    fv = None
    if profile.kind == prof.TABULATED:
        fv = lambda s: _decay(-a, tau, s) * np.sqrt(prof.rate_at(profile, s))
    integral = prof._quad_chunked(
        f, lo, tau, prof._interior_breaks(profile, lo, tau), epsabs, fv)
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
        fv = lambda s: _decay(-k, tau, s) * prof.rate_at(profile, s)
    integral = prof._quad_chunked(
        f, t0, tau, prof._interior_breaks(profile, t0, tau), 1e-12, fv)
    return seed + integral


def _decay(c: float, tau: float, s: np.ndarray) -> np.ndarray:
    """math.exp(c * (tau - s)) at each s of an array, the quadrature kernels'
    weight: np.exp differs from math.exp in the last bit on some inputs."""
    return np.fromiter(map(math.exp, (c * (tau - s)).tolist()), float, len(s))


# Both stage equations are linear, so a quadrature form can restart at any
# t_a from its value there. A root polish on [lo, hi] anchors at the last ODE
# break (table knot) in (t0, lo), else t0, with one quadrature from t0; each
# evaluation then integrates only from t_a. Analytic profiles have no breaks:
# t_a = t0 with the exact seed, so every value is the full-window one.

def _stage1_anchored(profile: prof.InputProfile, kappa_i: float, t0: float,
                     beta0: float, lo: float) -> Callable[[float], float]:
    """tau -> stage-1 beta(tau) for tau >= lo from beta(t0) = beta0."""
    t_a = (_ode_breaks(profile, t0, lo) or [t0])[-1]
    beta_a = _stage1_beta_quad(profile, kappa_i, t0, beta0, t_a, epsabs=1e-13)
    return lambda t: _stage1_beta_quad(profile, kappa_i, t_a, beta_a, t,
                                       epsabs=1e-13)


def _stage2_anchored(profile: prof.InputProfile, params: prof.MemoryParams,
                     t0: float, lo: float) -> Callable[[float], float]:
    """tau -> beta^2(tau) for tau >= lo in the stage-2 stretch from t0."""
    t_a = (_ode_breaks(profile, t0, lo) or [t0])[-1]
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


def _dense_output(sol) -> tuple[Callable[[float], float],
                                Callable[[np.ndarray], np.ndarray]]:
    """(t -> float(sol(t)[0]), ts -> sol(ts)[0]) for a float t and a 1-d
    array ts, where sol is a DOP853 OdeSolution.

    Both run on one table of the steps' t_old, h, rows of F and y_old, with
    scipy's arithmetic operation for operation, so every value is bitwise
    the same, without OdeSolution's per-call and per-step array overhead.
    Any other interpolant keeps the OdeSolution call.
    """
    steps = sol.interpolants
    if not steps or not (sol.ascending
                         and getattr(sol, "side", "left") == "left") or any(
            type(d) is not Dop853DenseOutput for d in steps):
        return lambda t: float(sol(t)[0]), lambda ts: sol(ts)[0]
    ts = sol.ts
    knots = ts.tolist()
    last = len(steps) - 1
    rows = [(float(d.t_old), float(d.h), *d.F[::-1, 0].tolist(),
             float(d.y_old[0])) for d in steps]
    columns = np.array(rows).T

    # Dop853DenseOutput._call_impl: from y = 0, add the rows of F from the
    # last one, multiplying by x and 1 - x in turn; then add y_old. DOP853
    # dense output has 7 rows of F.
    def horner(t, t_old, h, f6, f5, f4, f3, f2, f1, f0, y_old):
        x = (t - t_old) / h
        xm = 1 - x
        return (((((((0.0 + f6) * x + f5) * xm + f4) * x + f3) * xm + f2) * x
                 + f1) * xm + f0) * x + y_old

    # OdeSolution: the step holding t (the earlier one at a step boundary),
    # clamped to the first and last steps.
    def at(t: float) -> float:
        i = bisect_left(knots, t) - 1
        return horner(t, *rows[0 if i < 0 else last if i > last else i])

    def on_array(t: np.ndarray) -> np.ndarray:
        i = np.searchsorted(ts, t, side="left") - 1
        return horner(t, *columns[:, np.clip(i, 0, last)])

    return at, on_array


def _float_dense(sol) -> Callable[[float], float]:
    """t -> float(sol(t)[0]) for a float t (see `_dense_output`)."""
    return _dense_output(sol)[0]


def _ode_breaks(profile: prof.InputProfile, a: float, b: float) -> list[float]:
    """Where an ODE solve over [a, b] must end a step: the table knots inside,
    at which the PCHIP rate is only C1. Analytic profiles have none."""
    if profile.kind != prof.TABULATED:
        return []
    return prof._interior_breaks(profile, a, b)


def _rms(x: float) -> float:
    """np.linalg.norm of a 1-element array: sqrt(x.dot(x))."""
    return math.sqrt(x * x)


def _dop853_steps(fun, t0: float, y0: float, end: float, breaks: list[float],
                  fail: Callable[[float], Exception]):
    """Accepted DOP853 steps (t, y, dense) of the scalar ODE y' = fun(t, y)
    from t0 to end >= t0, ending a step exactly at every break in (t0, end).

    This is scipy 1.17.1's DOP853 with `solve_ivp`'s settings (Hairer,
    Norsett and Wanner, Solving ODEs I, II.4-II.6), operation for operation
    on a 1-element state: each weighted stage sum is scipy's own `np.dot`
    call with its operand shapes, on views of one (16, 1) stage array, and
    everything else (step control, error norm, initial step, dense-output
    rows 0-2) is the same float arithmetic on Python floats. The step bound
    starts at the first break; on landing there it moves to the next one
    and stepping runs on with the step size it has (II.6: restart at known
    discontinuities, here with no new set-up). With no breaks the steps and
    dense outputs are those of `solve_ivp` bit for bit. A failed step raises
    fail(t) at the last accepted t.
    """
    n, dot, C = _DOP.N_STAGES, np.dot, _DOP.C.tolist()
    K = np.empty((_DOP.N_STAGES_EXTENDED, 1))
    k = K[:, 0]
    # (stage, K[:s].T, A[s, :s], C[s]): rk_step's stages, then dense output's
    stages = [(s, K[:s].T, _DOP.A[s, :s], C[s]) for s in range(len(K))]
    trial, extra, KB, KE = stages[1:n], stages[n + 1:], K[:n].T, K[:n + 1].T
    bounds = [b for b in breaks if t0 < b < end] + [float(end)]
    t, y = float(t0), float(y0)
    f = fun(t, y)
    # common.select_initial_step towards the first bound (RMS norms of n = 1)
    span = bounds[0] - t
    if span == 0.0:
        return
    scale = _ODE_ATOL + abs(y) * _ODE_RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 \
        else (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, span)
    for bound in bounds:
        while t < bound:
            # RungeKutta._step_impl and rk_step
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise fail(t)
                t_new = min(t + h_abs, bound)
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


def _integrate_stage1(profile, kappa_i, t0, beta0, t1) -> OdeSolution:
    """Dense solve of stage 1 over [t0, t1]."""
    ts, steps = [t0], []
    for t, _, dense in _dop853_steps(
            _stage1_rhs(profile, kappa_i), t0, beta0, t1,
            _ode_breaks(profile, t0, t1),
            lambda t: InfeasibleSchedule(
                f"stage-1 integration failed near tau = {t}")):
        ts.append(t)
        steps.append(dense)
    return OdeSolution(ts, steps)


def _threshold_bracket(profile: prof.InputProfile, kappa_i: float,
                       t0: float, beta0: float,
                       end: float) -> tuple[float, float, OdeSolution]:
    """Grid bracket (lo, hi) of the first downward crossing of
    g(tau) = sqrt(r_in(tau)) + beta(tau) on [t0, end], and the stage-1
    solution up to the step holding hi.

    Steps DOP853 from t0 towards end with `_dop853_steps` (for an analytic
    profile exactly as `solve_ivp` would; a table's steps end at its
    knots), and after each step evaluates g with that step's dense output on
    the points of the fixed 8193-point grid it covers: those in (t_old, t],
    plus t0 in the first step, as OdeSolution assigns them. The scan is
    deliberate: slowly varying inputs make g dip below zero and come back,
    and the integrator's own steps can stride across the whole dip. Stepping
    stops at the first crossing instead of running to the horizon.
    """
    grid = np.linspace(t0, end, 8193)
    ts, steps = [t0], []
    done = 0            # grid points scanned so far
    g_last = 0.0        # g at the last of them
    for t, _, dense in _dop853_steps(
            _stage1_rhs(profile, kappa_i), t0, beta0, end,
            _ode_breaks(profile, t0, end),
            lambda t: NoThreshold(f"stage-1 integration failed near tau = {t}")):
        ts.append(t)
        steps.append(dense)
        stop = int(np.searchsorted(grid, t, side="right"))
        if stop == done:
            continue
        g = np.sqrt(prof.rate_at(profile, grid[done:stop])) \
            + dense(grid[done:stop])[0]
        if done:
            g = np.concatenate(([g_last], g))
        down = np.flatnonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))
        if len(down):
            i = max(done - 1, 0) + int(down[0])
            return float(grid[i]), float(grid[i + 1]), OdeSolution(ts, steps)
        done, g_last = stop, float(g[-1])
    raise NoThreshold(
        f"stage-1 population never reaches the threshold in [{t0}, {end}]"
    )


def _first_threshold(profile: prof.InputProfile, kappa_i: float,
                     t_start: float, beta_start: float, end: float) -> float:
    """First tau > t_start where the stored population reaches beta^2 = r_in.

    `_threshold_bracket` steps the stage-1 amplitude only until the grid
    scan of g(tau) = sqrt(r_in(tau)) + beta(tau) finds its first downward
    crossing (beta <= 0, so g hits zero exactly at the threshold). The
    bracketed root is then polished on the quadrature form of g, not on the
    dense ODE output, which the quadrature oracle checks. The polish anchors
    at the last table knot before the bracket (`_stage1_anchored`), so each
    step integrates from there, not from t_start; an analytic profile
    anchors at t_start with beta_start as the exact seed, so its root is the
    full-window one bitwise.
    """
    a = 0.5 * (1.0 + kappa_i)

    # Skip any leading stretch where r_in vanishes identically: beta only
    # decays there (exactly, by e^{-a dt}) and the threshold event function
    # would sit at 0 for a fresh memory, which root-finders misread.
    activation = _activation_time(profile)
    if activation is None:
        raise NoThreshold("input profile carries no excitation")
    t0 = max(t_start, activation)
    beta0 = beta_start * math.exp(-a * (t0 - t_start)) if t0 > t_start else beta_start
    if t0 >= end:
        raise NoThreshold("input activates only beyond the search horizon")

    lo, hi, sol = _threshold_bracket(profile, kappa_i, t0, beta0, end)
    beta_quad = _stage1_anchored(profile, kappa_i, t_start, beta_start, lo)
    g_quad = lambda t: math.sqrt(prof.rate_at(profile, t)) + beta_quad(t)

    if g_quad(lo) > 0.0 > g_quad(hi):
        return brentq(g_quad, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    # Quadrature disagrees about the bracket (possible only within its own
    # ~1e-12 error of a tangency); fall back to the integrated dynamics. The
    # scan took its signs from array evaluations, so check them on floats.
    beta = _float_dense(sol)
    g_dense = lambda t: math.sqrt(prof.rate_at(profile, t)) + beta(t)
    if not brackets_root(g_dense(lo), g_dense(hi)):
        raise NoThreshold(f"threshold residual does not change sign on the "
                          f"bracket [{lo!r}, {hi!r}]")
    return brentq(g_dense, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)


def threshold_time(profile: prof.InputProfile, params: prof.MemoryParams) -> float:
    """Smallest tau_c > 0 with beta^2(tau_c) = r_in(tau_c) under stage 1."""
    return _first_threshold(profile, params.kappa_i, 0.0, 0.0,
                            prof.horizon(profile))


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Segment:
    stage: int              # 1: kappa = 1 builds the seed; 2: zero reflection
    t0: float
    t1: float
    sol: object             # OdeSolution for beta (stage 1) or beta^2 (stage 2)

    @cached_property
    def _evaluators(self):
        return _dense_output(self.sol)

    @cached_property
    def at(self) -> Callable[[float], float]:
        """Float evaluation of `sol`, bitwise equal to float(sol(t)[0])."""
        return self._evaluators[0]

    @cached_property
    def dense(self) -> Callable[[np.ndarray], np.ndarray]:
        """Array evaluation of `sol`, bitwise equal to sol(ts)[0]."""
        return self._evaluators[1]

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

    The evaluation methods take a float or an array. An array costs one
    dense-output call per segment it touches, and each of its values equals
    the float call bitwise.
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

    def _segment_index(self, tau):
        """Index of the segment holding tau, the first one ending after it or
        else the last; tau is a float or an array."""
        if isinstance(tau, float):
            return bisect_right(self._inner_ends, tau)
        return np.searchsorted(self._inner_ends, tau, side="right")

    def _segment_at(self, tau: float) -> _Segment:
        return self.segments[self._segment_index(tau)]

    def _dense(self, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stage and dense-output value (beta in stage 1, beta^2 in stage 2)
        at each sample, with one dense-output call per segment."""
        idx = self._segment_index(taus)
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

    def _zero_reflection(self, taus: np.ndarray, pop: np.ndarray,
                         nan_if_singular: bool) -> np.ndarray:
        """r_in/beta^2 at each sample, 0 where r_in = 0; where beta^2 <= 0
        while r_in is not, raise SingularCoupling or give nan."""
        rate = prof._pointwise(prof.rate_at, self.profile, taus)
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

    def beta_sq(self, tau):
        """Stored population beta^2 at any tau >= 0 (a float or an array)."""
        if not isinstance(tau, float):
            if np.ndim(tau) == 0:
                return self.beta_sq(float(tau))
            taus = np.asarray(tau, dtype=float)
            if np.any(taus < 0.0):
                raise DomainError("beta_sq requires tau >= 0")
            return self._sampled(taus)[2]
        if tau < 0.0:
            raise DomainError("beta_sq requires tau >= 0")
        if tau > self.horizon:
            return stage2_population(self.profile, self.params,
                                     self.last_tau_c, tau)
        return self._segment_at(tau).beta_sq(tau)

    def beta(self, tau):
        """Memory amplitude (<= 0) at any tau >= 0 (a float or an array)."""
        if not isinstance(tau, float):
            if np.ndim(tau) == 0:
                return self.beta(float(tau))
            stages, vals, pop = self._sampled(np.asarray(tau, dtype=float))
            return np.where(stages == 1, vals, -np.sqrt(pop))
        if tau <= self.horizon:
            seg = self._segment_at(tau)
            if seg.stage == 1:
                return seg.at(tau)
        return -math.sqrt(self.beta_sq(tau))

    def stage2_kappa(self, tau):
        """Zero-reflection coupling r_in/beta^2 for tau >= tau_c (a float or
        an array)."""
        if not isinstance(tau, float):
            if np.ndim(tau) == 0:
                return self.stage2_kappa(float(tau))
            taus = np.asarray(tau, dtype=float)
            if np.any(taus < self.tau_c):
                raise DomainError("stage2_kappa requires tau >= tau_c")
            return self._zero_reflection(taus, self._sampled(taus)[2], False)
        if tau < self.tau_c:
            raise DomainError("stage2_kappa requires tau >= tau_c")
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
        if not isinstance(tau, float):
            if np.ndim(tau) == 0:
                return self.kappa(float(tau), nan_if_singular=nan_if_singular)
            taus = np.asarray(tau, dtype=float)
            if np.any(taus < 0.0):
                raise DomainError("kappa requires tau >= 0")
            out = np.ones(taus.shape)
            two = (taus > self.horizon) \
                | (self._stages[self._segment_index(taus)] == 2)
            out[two] = self._zero_reflection(
                taus[two], self._sampled(taus[two])[2], nan_if_singular)
            return out
        if tau < 0.0:
            raise DomainError("kappa requires tau >= 0")
        if tau <= self.horizon:
            seg = self._segment_at(tau)
            if seg.stage == 1:
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
        if not isinstance(tau, float):
            if np.ndim(tau) == 0:
                return self.reflection(float(tau))
            taus = np.asarray(tau, dtype=float)
            w = self.beta(taus) * np.sqrt(self.kappa(taus)) \
                + np.sqrt(prof._pointwise(prof.rate_at, self.profile, taus))
            return w * w
        w = self.beta(tau) * math.sqrt(self.kappa(tau)) \
            + math.sqrt(prof.rate_at(self.profile, tau))
        return w * w

    def breakpoints(self) -> list[float]:
        """Segment boundary times (kappa is non-smooth there)."""
        return [seg.t0 for seg in self.segments[1:]]


def _integrate_stage2(profile, kappa_i, tau_c, end):
    """Integrate beta^2' = r_in - kappa_i beta^2 with a terminal event where
    the zero-reflection law would need kappa above 1.

    The event triggers at half the feasibility slack and carries an additive
    floor of 1e-13: once both the population and the input rate have decayed
    below the integrator's absolute tolerance, the ratio r_in/beta^2 is pure
    noise and must not be mistaken for a violation. It is located by
    `solve_ivp`'s rule: in the first step with g >= 0 >= g_new, by `brentq`
    on that step's dense output; the solution then ends at the root.
    """
    rhs = lambda t, y: prof.rate_at(profile, t) - kappa_i * y

    def violation(t, y):
        return (1.0 + 0.5 * _KAPPA_SLACK) * y - prof.rate_at(profile, t) + 1e-13

    y0 = prof.rate_at(profile, tau_c)
    ts, steps = [tau_c], []
    g = violation(tau_c, y0)
    for t, y, dense in _dop853_steps(
            rhs, tau_c, y0, end, _ode_breaks(profile, tau_c, end),
            lambda t: InfeasibleSchedule(
                f"stage-2 integration failed near tau = {t}")):
        steps.append(dense)
        g_new = violation(t, y)
        if g >= 0.0 >= g_new:
            root = brentq(lambda s: violation(s, dense(s)[0]), dense.t_old, t,
                          xtol=4 * _EPS, rtol=4 * _EPS)
            if root == ts[-1] and len(ts) > 1:
                # solve_ivp's rule for a root at the step's start
                steps.pop()
            else:
                ts.append(root)
            return OdeSolution(ts, steps), root
        ts.append(t)
        g = g_new
    return OdeSolution(ts, steps), None


def build_schedule(profile: prof.InputProfile,
                   params: prof.MemoryParams) -> CouplingSchedule:
    """Construct the optimal piecewise coupling schedule for a profile."""
    end = prof.horizon(profile)
    segments: list[_Segment] = []
    flags: list[str] = []
    t_start, beta_start = 0.0, 0.0
    first_tau_c = None

    while len(segments) < _MAX_SEGMENTS:
        tau_c = _first_threshold(profile, params.kappa_i, t_start, beta_start, end)
        if first_tau_c is None:
            first_tau_c = tau_c
        sol1 = _integrate_stage1(profile, params.kappa_i, t_start, beta_start,
                                 tau_c)
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

    return CouplingSchedule(profile=profile, params=params, tau_c=first_tau_c,
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
        intrinsic += quad(schedule.beta_sq, schedule.horizon, tau_max,
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
    rate = prof._pointwise(prof.rate_at, schedule.profile, ts)
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
    vals = _slope(schedule, ts)
    down = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))

    peaks = []
    for i in down.tolist():
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
        right = left + width
        ts = np.linspace(left, right, 65)
        vals = [tail_slope(t) for t in ts]
        for i in range(1, len(ts)):
            if vals[i - 1] > 0.0 >= vals[i]:
                t = brentq(tail_slope, float(ts[i - 1]), float(ts[i]),
                           xtol=1e-10, rtol=8.9e-16, maxiter=200)
                return t, pop(t)
        left = right
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
