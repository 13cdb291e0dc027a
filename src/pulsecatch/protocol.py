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
from scipy.integrate import quad, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq

from . import profiles as prof
from .errors import (DomainError, InfeasibleSchedule, NoPeak, NoThreshold,
                     SingularCoupling)

_ODE_RTOL = 1e-12
_ODE_ATOL = 1e-14
_KAPPA_SLACK = 1e-9       # feasibility slack on kappa <= 1
_MAX_SEGMENTS = 32
_DAMP_CUT = 80.0          # exp(-80) below double-precision noise floor


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
    integral = prof._quad_chunked(f, lo, tau,
                                  prof._interior_breaks(profile, lo, tau), epsabs)
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
    k = params.kappa_i
    seed = prof.rate_at(profile, tau_c) * math.exp(-k * (tau - tau_c))
    f = lambda s: math.exp(-k * (tau - s)) * prof.rate_at(profile, s)
    integral = prof._quad_chunked(f, tau_c, tau,
                                  prof._interior_breaks(profile, tau_c, tau))
    return seed + integral


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


def _float_dense(sol) -> Callable[[float], float]:
    """t -> float(sol(t)[0]) for a float t, where sol is a DOP853
    OdeSolution: scipy's arithmetic operation for operation, so every value is
    bitwise the same, without its per-call array overhead. Any other
    interpolant keeps the OdeSolution call.
    """
    steps = sol.interpolants
    if not (sol.ascending and getattr(sol, "side", "left") == "left") or any(
            type(d) is not Dop853DenseOutput for d in steps):
        return lambda t: float(sol(t)[0])
    ts = sol.ts.tolist()
    last = len(steps) - 1
    coefs = [(float(d.t_old), float(d.h), *d.F[::-1, 0].tolist(),
              float(d.y_old[0])) for d in steps]

    def at(t: float) -> float:
        # OdeSolution._call_single: the step holding t (the earlier one at a
        # step boundary), clamped to the first and last steps.
        i = bisect_left(ts, t) - 1
        # DOP853 dense output has 7 rows of F.
        t_old, h, f6, f5, f4, f3, f2, f1, f0, y_old = \
            coefs[0 if i < 0 else last if i > last else i]
        # Dop853DenseOutput._call_impl: from y = 0, add the rows of F from
        # the last one, multiplying by x and 1 - x in turn; then add y_old.
        x = (t - t_old) / h
        xm = 1 - x
        return (((((((0.0 + f6) * x + f5) * xm + f4) * x + f3) * xm + f2) * x
                 + f1) * xm + f0) * x + y_old

    return at


def _integrate_stage1(profile, kappa_i, t0, beta0, t1):
    """Dense solve of beta' = -sqrt(r_in) - (1+kappa_i)/2 beta (stage 1,
    kappa = 1) over [t0, t1]; the caller checks the returned status."""
    a = 0.5 * (1.0 + kappa_i)
    rhs = lambda t, y: [-math.sqrt(prof.rate_at(profile, t)) - a * y[0]]
    return solve_ivp(rhs, (t0, t1), [beta0], method="DOP853",
                     rtol=_ODE_RTOL, atol=_ODE_ATOL, dense_output=True)


def _first_threshold(profile: prof.InputProfile, kappa_i: float,
                     t_start: float, beta_start: float, end: float) -> float:
    """First tau > t_start where the stored population reaches beta^2 = r_in.

    Integrates the stage-1 amplitude over the whole window with dense output
    and scans g(tau) = sqrt(r_in(tau)) + beta(tau) on a fine grid for its
    first downward crossing (beta <= 0, so g hits zero exactly at the
    threshold). The scan is deliberate: slowly varying inputs make g dip
    below zero and come back, and the integrator's own steps can stride
    across the whole dip. The bracketed root is then polished on the
    quadrature form of g, making the result independent of the ODE route.
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

    sol = _integrate_stage1(profile, kappa_i, t0, beta0, end)
    if sol.status < 0:
        raise NoThreshold(
            f"stage-1 integration failed near tau = {sol.t[-1]}"
        )
    ts = np.linspace(t0, float(sol.t[-1]), 8193)
    g_vals = np.sqrt(prof.rate_at(profile, ts)) + sol.sol(ts)[0]
    down = np.flatnonzero((g_vals[:-1] > 0.0) & (g_vals[1:] <= 0.0))
    if len(down) == 0:
        raise NoThreshold(
            f"stage-1 population never reaches the threshold in [{t0}, {end}]"
        )
    lo, hi = float(ts[down[0]]), float(ts[down[0] + 1])

    def g_quad(t):
        beta = _stage1_beta_quad(profile, kappa_i, t_start, beta_start, t,
                                 epsabs=1e-13)
        return math.sqrt(prof.rate_at(profile, t)) + beta

    if g_quad(lo) > 0.0 > g_quad(hi):
        return brentq(g_quad, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    # Quadrature disagrees about the bracket (possible only within its own
    # ~1e-12 error of a tangency); fall back to the integrated dynamics.
    beta = _float_dense(sol.sol)
    return brentq(lambda t: math.sqrt(prof.rate_at(profile, t)) + beta(t),
                  lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)


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
    def at(self) -> Callable[[float], float]:
        """Float evaluation of `sol`, bitwise equal to float(sol(t)[0])."""
        return _float_dense(self.sol)


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
        at each sample, with one OdeSolution call per segment."""
        idx = self._segment_index(taus)
        vals = np.empty(taus.shape)
        for i, seg in enumerate(self.segments):
            mask = idx == i
            if mask.any():
                vals[mask] = seg.sol(taus[mask])[0]
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
        seg = self._segment_at(tau)
        val = seg.at(tau)
        if seg.stage == 1:
            return val * val
        return max(val, 0.0)

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
    noise and must not be mistaken for a violation.
    """
    rhs = lambda t, y: [prof.rate_at(profile, t) - kappa_i * y[0]]

    def violation(t, y):
        return (1.0 + 0.5 * _KAPPA_SLACK) * y[0] - prof.rate_at(profile, t) + 1e-13

    violation.terminal = True
    violation.direction = -1.0

    sol = solve_ivp(rhs, (tau_c, end), [prof.rate_at(profile, tau_c)],
                    method="DOP853", rtol=_ODE_RTOL, atol=_ODE_ATOL,
                    dense_output=True, events=violation)
    if sol.status < 0:
        raise InfeasibleSchedule(f"stage-2 integration failed near tau = {sol.t[-1]}")
    t_violation = float(sol.t_events[0][0]) if len(sol.t_events[0]) else None
    return sol.sol, t_violation


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
        if sol1.status < 0:
            raise InfeasibleSchedule(
                f"stage-1 integration failed near tau = {sol1.t[-1]}")
        segments.append(_Segment(1, t_start, tau_c, sol1.sol))
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


def _reflection_loss(schedule: CouplingSchedule, tau_max: float) -> float:
    """Integral of r_out over the stage-1 parts of [0, tau_max]."""
    total = 0.0
    profile = schedule.profile
    for seg in schedule.segments:
        hi = min(seg.t1, tau_max)
        if hi <= seg.t0:
            break
        if seg.stage != 1:
            continue

        def r_out(s, _beta=seg.at):
            w = _beta(s) + math.sqrt(prof.rate_at(profile, s))
            return w * w

        total += prof._quad_chunked(r_out, seg.t0, hi,
                                    prof._interior_breaks(profile, seg.t0, hi))
    return total


def _intrinsic_loss(schedule: CouplingSchedule, tau_max: float) -> float:
    k = schedule.params.kappa_i
    if k == 0.0:
        return 0.0
    total = 0.0
    for seg in schedule.segments:
        hi = min(seg.t1, tau_max)
        if hi <= seg.t0:
            break
        total += prof._quad_chunked(
            lambda s: schedule.beta_sq(s), seg.t0, hi,
            prof._interior_breaks(schedule.profile, seg.t0, hi))
        if hi < seg.t1:
            break
    if tau_max > schedule.horizon:
        # The input is extinct past the horizon: one interval, no breaks.
        total += quad(lambda s: schedule.beta_sq(s), schedule.horizon, tau_max,
                      limit=200, epsabs=1e-10, epsrel=1e-12)[0]
    return k * total


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


def _stage2_slope(schedule: CouplingSchedule, tau_c: float, t: float) -> float:
    """Stage-2 slope r_in - kappa_i beta^2 (r_out = 0) with beta^2 taken by
    quadrature from the threshold tau_c, independent of the dense ODE output."""
    return prof.rate_at(schedule.profile, t) - schedule.params.kappa_i \
        * stage2_population(schedule.profile, schedule.params, tau_c, t)


def _local_maxima(schedule: CouplingSchedule) -> list[float]:
    """All taus in [tau_c, horizon] where the slope crosses zero downward.

    Log-spaced offsets from tau_c: the peak can sit anywhere between just
    past the threshold (strong damping) and far in the tail (weak damping),
    and a uniform grid over a long horizon would step right over early ones.
    A multi-hump input can produce several local maxima (population dips in
    resumed stage-1 windows), so all crossings are collected.
    """
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
            # Polish on the quadrature form so the result does not depend on
            # the dense ODE output.
            h = lambda t: _stage2_slope(schedule, seg.t0, t)
            if h(a) > 0.0 >= h(b):
                root = brentq(h, a, b, xtol=1e-10, rtol=8.9e-16, maxiter=200)
        if root is None:
            root = brentq(lambda t: float(_slope(schedule, np.array([t]))[0]),
                          a, b, xtol=1e-10, rtol=8.9e-16, maxiter=200)
        peaks.append(float(root))
        if len(peaks) >= 64:
            break
    return peaks


def _tail_peak(schedule: CouplingSchedule) -> float:
    """Peak search past the horizon, where the input is effectively extinct."""
    tail_slope = lambda t: _stage2_slope(schedule, schedule.last_tau_c, t)
    left = schedule.horizon
    width = max(schedule.horizon - schedule.tau_c, 1.0)
    for _ in range(64):
        right = left + width
        ts = np.linspace(left, right, 65)
        vals = [tail_slope(t) for t in ts]
        for i in range(1, len(ts)):
            if vals[i - 1] > 0.0 >= vals[i]:
                return brentq(tail_slope, float(ts[i - 1]), float(ts[i]),
                              xtol=1e-10, rtol=8.9e-16, maxiter=200)
        left = right
        width *= 2.0
    raise NoPeak("population slope never crosses zero")


def _population_at(schedule: CouplingSchedule, tau: float) -> float:
    """beta^2(tau), via quadrature when tau lies in a stage-2 region so the
    reported fidelity does not depend on the dense ODE output."""
    if tau > schedule.horizon:
        return stage2_population(schedule.profile, schedule.params,
                                 schedule.last_tau_c, tau)
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

    candidates = [(t, _population_at(schedule, t))
                  for t in _local_maxima(schedule)]
    if k == 0.0:
        tau_c_last = schedule.last_tau_c
        total = prof.total_excitation(profile, math.inf)
        limit = prof.rate_at(profile, tau_c_last) \
            + (total - prof.total_excitation(profile, tau_c_last))
        candidates.append((math.inf, limit))
    elif not candidates:
        t = _tail_peak(schedule)
        candidates.append((t, _population_at(schedule, t)))

    # On exact ties, prefer the earliest attainment.
    tau_max, fidelity = max(candidates, key=lambda tf: (tf[1], -tf[0]))

    if math.isinf(tau_max):
        unabsorbed = 1.0 - prof.total_excitation(profile, math.inf)
        intrinsic = 0.0
    else:
        unabsorbed = 1.0 - prof.total_excitation(profile, tau_max)
        intrinsic = _intrinsic_loss(schedule, tau_max)

    return TransferReport(
        tau_c=schedule.tau_c,
        tau_max=tau_max,
        fidelity=fidelity,
        loss_stage1_reflection=_reflection_loss(schedule, tau_max),
        loss_intrinsic=intrinsic,
        loss_unabsorbed=unabsorbed,
        flags=flags,
    )
