"""Generic two-stage schedule construction and transfer bookkeeping.

Cross-route agreement is the core idea: everything the generic ODE/quadrature
machinery produces for exponential and Gaussian inputs is compared against the
closed-form module, and tabulated re-samplings of analytic profiles must land
on the same schedule.
"""
from __future__ import annotations

import functools
import math
import random

import numpy as np
import pytest
from scipy.integrate import DOP853, DenseOutput, OdeSolution, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq

from pulsecatch import closedform as cf
from pulsecatch import profiles as prof
from pulsecatch import protocol as proto
from pulsecatch.errors import (DomainError, InfeasibleSchedule, NoThreshold,
                               SingularCoupling)


def _params(ki: float = 1e-4) -> prof.MemoryParams:
    return prof.MemoryParams(kappa_i=ki)


def _double_hump() -> prof.InputProfile:
    """A faint early hump followed by the main pulse, normalized on [0, 40]."""
    taus = np.linspace(0.0, 40.0, 2001)
    rates = 0.03 * np.exp(-0.5 * (taus - 4.0) ** 2) \
        + 0.97 * np.exp(-0.5 * (taus - 22.0) ** 2)
    rates /= np.trapezoid(rates, taus)
    return prof.tabulated(taus, rates)


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [0.05, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("ki", [0.0, 1e-4, 5e-3])
def test_threshold_matches_closed_form_exponential(r, ki):
    tc = proto.threshold_time(prof.exponential(r), _params(ki))
    assert tc == pytest.approx(cf.exp_tau_c(r, ki), abs=1e-10)


@pytest.mark.parametrize("sigma", [0.8, 2.6, 7.978845608028654])
@pytest.mark.parametrize("ki", [0.0, 1e-4])
def test_threshold_matches_closed_form_gaussian(sigma, ki):
    tc = proto.threshold_time(prof.gaussian(sigma=sigma), _params(ki))
    assert tc == pytest.approx(cf.gauss_constants(sigma, 4.0, ki).tau_c, abs=1e-10)


def test_threshold_is_population_crossing():
    p = prof.exponential(0.2)
    params = _params(1e-3)
    tc = proto.threshold_time(p, params)
    beta = proto.stage1_amplitude(p, params, tc)
    assert beta <= 0.0
    assert beta * beta == pytest.approx(prof.rate_at(p, tc), rel=1e-10)


def test_stage1_amplitude_shape():
    p = prof.exponential(0.3)
    params = _params()
    assert proto.stage1_amplitude(p, params, 0.0) == 0.0
    assert proto.stage1_amplitude(p, params, 0.5) < 0.0
    with pytest.raises(DomainError):
        proto.stage1_amplitude(p, params, -0.2)


def test_no_threshold_for_empty_profile():
    silent = prof.tabulated([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(NoThreshold, match="no excitation"):
        proto.threshold_time(silent, _params())


def test_no_threshold_when_activation_beyond_horizon():
    # a single positive sample at the very end: activation == horizon
    taus = np.linspace(0.0, 10.0, 11)
    rates = np.zeros(11)
    rates[-1] = 1.0
    p = prof.tabulated(taus, rates)
    with pytest.raises(NoThreshold):
        proto.threshold_time(p, _params())


def _delayed_table() -> prof.InputProfile:
    """A pulse that switches on at tau = 5, normalized on [0, 30]."""
    taus = np.linspace(0.0, 30.0, 1501)
    rates = np.where(taus < 5.0, 0.0, np.exp(-0.5 * ((taus - 10.0) / 1.5) ** 2))
    rates /= np.trapezoid(rates, taus)
    return prof.tabulated(taus, rates)


def test_threshold_waits_for_delayed_activation():
    p = _delayed_table()
    tc = proto.threshold_time(p, _params())
    assert tc > 5.0
    assert tc == pytest.approx(8.652812544578246, abs=1e-6)


def test_tabulated_resampling_reproduces_exponential_threshold():
    # feed the generic machinery a dense table of the analytic profile; it
    # may only differ through the interpolation error of the table itself
    r = 0.2
    taus = np.linspace(0.0, prof.horizon(prof.exponential(r)), 6001)
    table = prof.tabulated(taus, r * np.exp(-r * taus))
    tc = proto.threshold_time(table, _params(1e-3))
    assert tc == pytest.approx(cf.exp_tau_c(r, 1e-3), abs=2e-8)


def _whole_window_threshold(profile, kappa_i, t_start, beta_start, end):
    """The threshold search done the long way: one dense stage-1 solve over
    the whole window [t0, end], a scan of g = sqrt(r_in) + beta on 8193
    points, and the same polish. Returns (t0, beta0, lo, hi, tau_c, sol).

    An analytic profile is solved by `solve_ivp` and polished on the
    quadrature from t_start. A table is solved by the knot-aligned stage-1
    solve, run to the end of the window, and polished on the quadrature
    picked up at its last knot before lo."""
    a = 0.5 * (1.0 + kappa_i)
    t0 = max(t_start, proto._activation_time(profile))
    beta0 = beta_start * math.exp(-a * (t0 - t_start)) if t0 > t_start else beta_start
    if profile.kind == prof.TABULATED:
        whole = proto._integrate_stage1(profile, kappa_i, t0, beta0, end)
    else:
        rhs = lambda t, y: [-math.sqrt(prof.rate_at(profile, t)) - a * y[0]]
        ivp = solve_ivp(rhs, (t0, end), [beta0], method="DOP853", rtol=1e-12,
                        atol=1e-14, dense_output=True)
        assert ivp.status == 0
        whole = ivp.sol
    ts = np.linspace(t0, float(whole.ts[-1]), 8193)
    g = np.sqrt(prof.rate_at(profile, ts)) + whole(ts)[0]
    i = int(np.flatnonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))[0])
    lo, hi = float(ts[i]), float(ts[i + 1])
    t_a, beta_a = t_start, beta_start
    if profile.kind == prof.TABULATED:
        t_a = max([t_start] + [t for t in profile.taus.tolist() if t < lo])
        beta_a = proto._stage1_beta_quad(profile, kappa_i, t_start, beta_start,
                                         t_a, epsabs=1e-13)

    def g_quad(t):
        return math.sqrt(prof.rate_at(profile, t)) + proto._stage1_beta_quad(
            profile, kappa_i, t_a, beta_a, t, epsabs=1e-13)

    if g_quad(lo) > 0.0 > g_quad(hi):
        tau_c = brentq(g_quad, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    else:
        beta = proto._float_dense(whole)
        tau_c = brentq(lambda t: math.sqrt(prof.rate_at(profile, t)) + beta(t),
                       lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    return t0, beta0, lo, hi, tau_c, whole


@pytest.mark.parametrize("case", ["exp_point", "gauss", "delayed", "resumed"])
def test_threshold_scan_equals_whole_window_scan(case):
    """Stepping only to the first crossing finds the same bracket, threshold
    and fallback dynamics, bit for bit, as scanning the whole window."""
    params = _params()
    t_start, beta_start = 0.0, 0.0
    if case == "delayed":
        profile = _delayed_table()
    elif case == "resumed":
        # the second threshold search, from the feasibility violation
        sch = _schedule("resumed")
        profile = sch.profile
        t_start = sch.segments[2].t0
        beta_start = -math.sqrt(sch.segments[1].at(t_start))
    else:
        profile = _schedule(case).profile
    end = prof.horizon(profile)
    t0, beta0, lo, hi, tau_c, whole = _whole_window_threshold(
        profile, params.kappa_i, t_start, beta_start, end)
    if case in ("delayed", "resumed"):
        assert t0 > 0.0

    got_lo, got_hi, sol = proto._threshold_bracket(profile, params.kappa_i,
                                                   t0, beta0, end)
    assert (got_lo, got_hi) == (lo, hi)
    assert proto._first_threshold(profile, params.kappa_i, t_start,
                                  beta_start, end) == tau_c
    if case == "resumed":
        assert sch.segments[2].t1 == tau_c
    else:
        assert proto.threshold_time(profile, params) == tau_c
    # the steps taken are the whole-window solve's first ones, and stop at hi
    assert np.array_equal(sol.ts, whole.ts[:len(sol.ts)])
    assert sol.ts[-2] < hi <= sol.ts[-1] < end
    steps = whole.ts[(whole.ts > lo) & (whole.ts < hi)]
    probes = np.concatenate([np.linspace(lo, hi, 65), steps,
                             np.nextafter(steps, -np.inf),
                             np.nextafter(steps, np.inf)])
    new, old = proto._float_dense(sol), proto._float_dense(whole)
    for t in probes.tolist():
        assert new(t) == old(t), t


def test_threshold_scan_reaching_end_raises():
    # sqrt(r_in) grows as e^tau, faster than the stage-1 amplitude can follow
    taus = np.linspace(0.0, 10.0, 101)
    rates = np.exp(2.0 * taus)
    p = prof.tabulated(taus, rates / np.trapezoid(rates, taus))
    with pytest.raises(NoThreshold, match=r"never reaches the threshold in "
                                          r"\[0\.0, 10\.0\]"):
        proto.threshold_time(p, _params())


def test_stage1_solver_failure_is_no_threshold(monkeypatch):
    rhs = proto._stage1_rhs

    def broken(profile, kappa_i):
        f = rhs(profile, kappa_i)
        return lambda t, y: math.nan if t > 0.5 else f(t, y)

    monkeypatch.setattr(proto, "_stage1_rhs", broken)
    p = prof.exponential(0.036)      # tau_c = 1.36 with a working right-hand side
    with pytest.raises(NoThreshold, match="stage-1 integration failed") as exc:
        proto.threshold_time(p, _params())
    assert float(str(exc.value).rsplit("= ", 1)[1]) <= 0.5
    with pytest.raises(NoThreshold, match="stage-1 integration failed"):
        proto.build_schedule(p, _params())


def test_same_sign_dense_bracket_is_no_threshold(monkeypatch):
    """Where the quadrature form refuses the scan's bracket and the dense
    output does too, scipy's brentq would raise a bare ValueError; the
    solver raises NoThreshold naming the bracket."""
    monkeypatch.setattr(proto, "_stage1_anchored",
                        lambda *args: (lambda t: 1.0))
    monkeypatch.setattr(proto, "_float_dense", lambda sol: (lambda t: 1.0))
    with pytest.raises(NoThreshold, match=r"does not change sign on the "
                       r"bracket \[[0-9.e-]+, [0-9.e-]+\]"):
        proto.threshold_time(prof.exponential(0.036), _params())


# ---------------------------------------------------------------------------
# knot-aligned stepping
# ---------------------------------------------------------------------------

def _catch_table(seed: int, faint: bool) -> prof.InputProfile:
    """The benchmark's tabulated two-hump pulse (`multi_hump` in
    perfbench/workloads.py) for random.Random(seed): knots every 0.02 on
    [0, 30]; a faint early hump resumes stage 1."""
    rng = random.Random(seed)
    taus = np.linspace(0.0, 30.0, 1501)
    c1, c2 = rng.uniform(3.0, 5.0), rng.uniform(17.0, 22.0)
    w1, w2 = rng.uniform(0.9, 1.2), rng.uniform(0.9, 1.2)
    a1 = rng.uniform(0.01, 0.06) if faint else rng.uniform(0.3, 0.6)
    rates = a1 * np.exp(-0.5 * ((taus - c1) / w1) ** 2) \
        + (1.0 - a1) * np.exp(-0.5 * ((taus - c2) / w2) ** 2)
    rates /= np.trapezoid(rates, taus)
    return prof.tabulated(taus, rates)


def _coarse_table(seed: int) -> tuple[prof.InputProfile, prof.MemoryParams]:
    """Two Gaussian humps sampled every 0.1 (401 knots on [0, 40]), widths
    0.8-1.5, with a log-uniform kappa_i in [1e-5, 1e-2]."""
    rng = np.random.default_rng(seed)
    taus = np.linspace(0.0, 40.0, 401)
    c1, c2 = rng.uniform(3.0, 8.0), rng.uniform(15.0, 30.0)
    w1, w2 = rng.uniform(0.8, 1.5, size=2)
    a1 = rng.uniform(0.02, 0.6)
    rates = a1 * np.exp(-0.5 * ((taus - c1) / w1) ** 2) \
        + (1.0 - a1) * np.exp(-0.5 * ((taus - c2) / w2) ** 2)
    ki = 10.0 ** rng.uniform(-5.0, -2.0)
    return (prof.tabulated(taus, rates / np.trapezoid(rates, taus)),
            prof.MemoryParams(kappa_i=ki))


def _solve_ivp_segment(profile, kappa_i, seg, beta0, end):
    """A schedule segment solved by `solve_ivp`: stage 1 over [t0, t1] from
    beta0, stage 2 from t0 towards end with the kappa > 1 violation event."""
    opts = dict(method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True)
    if seg.stage == 1:
        a = 0.5 * (1.0 + kappa_i)
        return solve_ivp(
            lambda t, y: [-math.sqrt(prof.rate_at(profile, t)) - a * y[0]],
            (seg.t0, seg.t1), [beta0], **opts)

    def violation(t, y):
        return (1.0 + 0.5 * 1e-9) * y[0] - prof.rate_at(profile, t) + 1e-13

    violation.terminal = True
    violation.direction = -1.0
    return solve_ivp(lambda t, y: [prof.rate_at(profile, t) - kappa_i * y[0]],
                     (seg.t0, end), [prof.rate_at(profile, seg.t0)],
                     events=violation, **opts)


@pytest.mark.parametrize("case", ["exp_point", "gauss", "resumed"])
def test_stepping_without_breaks_equals_solve_ivp(case, monkeypatch):
    """With no break points every stage solve is `solve_ivp` bit for bit:
    the same steps, dense output, violation time and status. The double hump
    (a table) is built here without its knots; its first stage-2 solve ends
    at the violation event."""
    monkeypatch.setattr(proto, "_ode_breaks", lambda profile, a, b: [])
    profile, params = _schedule(case).profile, _params()
    sch = proto.build_schedule(profile, params)
    if case == "resumed":
        assert [seg.stage for seg in sch.segments] == [1, 2, 1, 2]
    beta0 = 0.0
    for i, seg in enumerate(sch.segments):
        ref = _solve_ivp_segment(profile, params.kappa_i, seg, beta0,
                                 sch.horizon)
        assert np.array_equal(seg.sol.ts, ref.t), i
        ends = ref.t
        old = proto._float_dense(ref.sol)
        for t in np.concatenate([ends, np.nextafter(ends, -np.inf),
                                 np.nextafter(ends, np.inf)]).tolist():
            assert seg.at(t) == old(t), (i, t)
        if seg.stage == 2 and i < len(sch.segments) - 1:
            assert ref.status == 1
            assert seg.t1 == ref.t_events[0][0]
            beta0 = -math.sqrt(seg.at(seg.t1))
        else:
            assert ref.status == 0 and seg.t1 == ref.t[-1]


def test_table_steps_end_at_knots():
    """No step of the threshold scan or of any segment straddles a knot, and
    every knot inside a segment is one of its step ends."""
    sch = _schedule("resumed")
    knots = sch.profile.taus
    scan = proto._threshold_bracket(sch.profile, sch.params.kappa_i, 0.0, 0.0,
                                    sch.horizon)[2]
    for sol in [scan] + [seg.sol for seg in sch.segments]:
        for step in sol.interpolants:
            assert not np.any((knots > step.t_old) & (knots < step.t))
    for seg in sch.segments:
        inside = knots[(knots > seg.t0) & (knots < seg.t1)]
        assert np.isin(inside, seg.sol.ts).all()


def test_table_steps_are_rarely_rejected(monkeypatch):
    """On the benchmark's faint two-hump table, at most 1.1 trial steps are
    taken per accepted step (stepping across the knots took about 2.3).
    Counted at the right-hand side: each trial makes 12 calls, each accepted
    step 3 more for its dense output, and each solve 2 for its initial
    step."""
    stepping = proto._dop853_steps
    rhs_calls, accepted, solves = [0], [0], [0]

    def counting_stepping(fun, *args):
        def counted(t, y):
            rhs_calls[0] += 1
            return fun(t, y)

        solves[0] += 1
        for step in stepping(counted, *args):
            accepted[0] += 1
            yield step

    monkeypatch.setattr(proto, "_dop853_steps", counting_stepping)
    sch = proto.build_schedule(_catch_table(3, faint=True), _params())
    assert "feasibility_resumed" in sch.flags
    assert accepted[0] > 1000
    trials = (rhs_calls[0] - 2 * solves[0] - 3 * accepted[0]) / 12
    assert accepted[0] <= trials <= 1.1 * accepted[0]


def _scipy_dop853_steps(fun, t0, y0, end, breaks, fail):
    """The stepping helper written with scipy's `DOP853` solver, whose
    t_bound moves from break to break: the reference that
    `proto._dop853_steps` reproduces bit for bit."""
    bounds = [b for b in breaks if t0 < b < end] + [float(end)]
    solver = DOP853(lambda t, y: [fun(t, y[0])], float(t0), [y0], bounds[0],
                    rtol=proto._ODE_RTOL, atol=proto._ODE_ATOL)
    t_last = solver.t
    for bound in bounds:
        solver.t_bound, solver.status = bound, "running"
        while solver.status == "running":
            solver.step()
            if solver.status == "failed":
                raise fail(solver.t)
            if solver.t != t_last:
                t_last = solver.t
                yield t_last, float(solver.y[0]), solver.dense_output()


class _Failed(Exception):
    """fail(t) of a solve under test."""


def _solve_record(stepping, fun, t0, y0, end, breaks):
    """Every right-hand-side call (t, y), every accepted step (t, y, t_old,
    h, F rows, y_old) and the failure time (None) of one solve, run to its
    end."""
    calls, steps, failed = [], [], None

    def counted(t, y):
        calls.append((t, y))
        return fun(t, y)

    try:
        for t, y, dense in stepping(counted, t0, y0, end, breaks, _Failed):
            assert type(dense) is Dop853DenseOutput
            steps.append((t, y, dense.t_old, dense.h, *dense.F[:, 0].tolist(),
                          float(dense.y_old[0])))
    except _Failed as exc:
        failed = exc.args[0]
    return np.array(calls).reshape(-1, 2), np.array(steps), failed


def _recorded_solves(profile, params, monkeypatch):
    """(fun, t0, y0, end, breaks) of every stage solve of build_schedule."""
    stepping, solves = proto._dop853_steps, []

    def recording(fun, t0, y0, end, breaks, fail):
        solves.append((fun, t0, y0, end, breaks))
        return stepping(fun, t0, y0, end, breaks, fail)

    with monkeypatch.context() as m:
        m.setattr(proto, "_dop853_steps", recording)
        proto.build_schedule(profile, params)
    return solves


@pytest.mark.parametrize("case", ["exp_point", "exp", "gauss", "faint", "twin",
                                  "coarse", "zero_length", "nan_rhs"])
def test_stepper_equals_scipy_dop853(case, monkeypatch):
    """The in-module DOP853 stepper is scipy's `DOP853` bit for bit: the
    same right-hand-side calls, accepted steps, dense outputs and failure
    time. Every stage solve of a schedule is run to its end: the threshold
    scans and stage 1 from beta = 0 or a resumed beta < 0, stage 2 from
    beta^2 = r_in, so both branches of the initial step run."""
    exp = prof.exponential(0.036)
    stage1 = proto._stage1_rhs(exp, 1e-4)
    if case == "zero_length":
        solves = [(stage1, 2.0, -0.1, 2.0, []), (stage1, 2.0, -0.1, 2.0, [2.0])]
    elif case == "nan_rhs":
        broken = lambda t, y: math.nan if t > 0.5 else stage1(t, y)
        solves = [(broken, 0.0, 0.0, 10.0, []),
                  (broken, 0.0, 0.0, 10.0, [0.25, 0.5, 0.75])]
    else:
        if case in ("faint", "twin"):
            profile, params = _catch_table(3, case == "faint"), _params()
        elif case == "coarse":
            profile, params = _coarse_table(0)
        else:
            profile, params = _schedule(case).profile, _schedule(case).params
        solves = _recorded_solves(profile, params, monkeypatch)
        assert {y0 == 0.0 for _, _, y0, _, _ in solves} == {True, False}
    rejected = 0
    for solve in solves:
        calls, steps, failed = _solve_record(proto._dop853_steps, *solve)
        ref_calls, ref_steps, ref_failed = _solve_record(_scipy_dop853_steps,
                                                         *solve)
        assert np.array_equal(calls, ref_calls, equal_nan=True)
        assert np.array_equal(steps, ref_steps)
        assert failed == ref_failed
        assert (failed is not None) == (case == "nan_rhs")
        if case == "zero_length":
            assert len(calls) == 1 and len(steps) == 0
        else:
            # 12 calls a trial step, 3 for each dense output, 2 to start
            rejected += (len(calls) - 2 - 15 * len(steps)) // 12
    if case == "coarse":
        assert rejected > 0


def _segment_end_gaps(sch: proto.CouplingSchedule):
    """(stage, dense value, quadrature value) at the end of each segment:
    beta by `_stage1_beta_quad` from the segment's start, beta^2 by
    `stage2_population`."""
    for seg in sch.segments:
        if seg.stage == 1:
            quad_value = proto._stage1_beta_quad(
                sch.profile, sch.params.kappa_i, seg.t0, seg.at(seg.t0), seg.t1)
        else:
            quad_value = proto.stage2_population(sch.profile, sch.params,
                                                 seg.t0, seg.t1)
        yield seg.stage, seg.at(seg.t1), quad_value


def _budget_total(sch: proto.CouplingSchedule) -> float:
    rep = proto.peak_time_and_fidelity(sch.profile, sch.params, sch)
    return (rep.fidelity + rep.loss_stage1_reflection + rep.loss_intrinsic
            + rep.loss_unabsorbed)


@pytest.mark.parametrize("case", ["resumed", "faint", "twin"])
def test_table_segment_ends_match_quadrature(case):
    """Tables with knots every 0.02: the dense solution ends every segment
    within 1e-13 of its quadrature form."""
    if case == "resumed":
        sch = _schedule("resumed")
    else:
        sch = proto.build_schedule(_catch_table(3, faint=case == "faint"),
                                   _params())
    for stage, dense, quad_value in _segment_end_gaps(sch):
        assert abs(dense - quad_value) <= 1e-13, stage
    assert _budget_total(sch) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("seed", range(6))
def test_coarse_table_closes_loss_budget(seed):
    """Two-hump tables sampled every 0.1 close the loss budget within the
    1e-8 contract. Each stage-2 segment ends within 1e-13 of
    `stage2_population`; each stage-1 segment within the integrator's
    relative tolerance of `_stage1_beta_quad` (its steps are shorter than a
    knot interval here, so the global error builds up to about 1e-13)."""
    sch = proto.build_schedule(*_coarse_table(seed))
    assert _budget_total(sch) == pytest.approx(1.0, abs=1e-8)
    for stage, dense, quad_value in _segment_end_gaps(sch):
        bound = 1e-13 if stage == 2 else proto._ODE_RTOL * abs(quad_value)
        assert abs(dense - quad_value) <= bound, stage


def test_stage_solver_failures_are_infeasible(monkeypatch):
    p = prof.exponential(0.036)
    rhs, rate = proto._stage1_rhs, prof.rate_at

    def broken(profile, kappa_i):
        f = rhs(profile, kappa_i)
        return lambda t, y: math.nan if t > 0.5 else f(t, y)

    monkeypatch.setattr(proto, "_stage1_rhs", broken)
    with pytest.raises(InfeasibleSchedule,
                       match="stage-1 integration failed") as exc:
        proto._integrate_stage1(p, 1e-4, 0.0, 0.0, 1.0)
    assert float(str(exc.value).rsplit("= ", 1)[1]) <= 0.5
    monkeypatch.setattr(prof, "rate_at", lambda profile, t: math.nan
                        if t > 2.0 else rate(profile, t))
    with pytest.raises(InfeasibleSchedule,
                       match="stage-2 integration failed") as exc:
        proto._integrate_stage2(p, 1e-4, 1.0, 50.0)
    assert 1.0 < float(str(exc.value).rsplit("= ", 1)[1]) <= 2.0


# ---------------------------------------------------------------------------
# anchored quadrature polish
# ---------------------------------------------------------------------------

def _resumed_analytic() -> proto.CouplingSchedule:
    """The Gauss operating point with a resumed stage 1: stage 2 from the
    first threshold to the pulse centre, stage 1 again from beta = -0.2
    there, and stage 2 from the second threshold. Analytic pulses never
    violate kappa <= 1 themselves; this gives their polishes a stretch that
    starts at a resumed threshold."""
    sch = _schedule("gauss")
    profile, k, end = sch.profile, sch.params.kappa_i, sch.horizon
    t_v, beta_v = profile.tau0, -0.2
    tau_c2 = proto._first_threshold(profile, k, t_v, beta_v, end)
    sol2, violation = proto._integrate_stage2(profile, k, tau_c2, end)
    assert violation is None
    first, second = sch.segments
    segments = (first, proto._Segment(2, second.t0, t_v, second.sol),
                proto._Segment(1, t_v, tau_c2, proto._integrate_stage1(
                    profile, k, t_v, beta_v, tau_c2)),
                proto._Segment(2, tau_c2, end, sol2))
    return proto.CouplingSchedule(profile, sch.params, sch.tau_c, segments,
                                  end, ("feasibility_resumed",))


def _maxima_brackets(sch: proto.CouplingSchedule):
    """`_local_maxima`'s brackets: the downward slope crossings on its
    log-spaced grid, each with the segment holding its midpoint."""
    lo, hi = sch.tau_c, sch.horizon
    ts = lo + np.geomspace(1e-6 * max(lo, 1.0), hi - lo, 4097)
    vals = proto._slope(sch, ts)
    for i in np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0)).tolist():
        a, b = float(ts[i]), float(ts[i + 1])
        yield a, b, sch._segment_at(0.5 * (a + b))


def _full_window_peaks(sch: proto.CouplingSchedule):
    """The stage-2 peak polish before anchoring: every slope r_in - kappa_i
    beta^2 and the peak's population take beta^2 by `stage2_population`
    from the stretch's threshold. Past the horizon, the same on
    `_tail_peak`'s scan."""
    profile, params = sch.profile, sch.params

    def polish(t0, a, b):
        pop = lambda t: proto.stage2_population(profile, params, t0, t)
        h = lambda t: prof.rate_at(profile, t) - params.kappa_i * pop(t)
        if not h(a) > 0.0 >= h(b):
            return None
        root = brentq(h, a, b, xtol=1e-10, rtol=8.9e-16, maxiter=200)
        return root, pop(root)

    peaks = []
    for a, b, seg in _maxima_brackets(sch):
        assert seg.stage == 2
        peaks.append(polish(seg.t0, a, b))
        assert sch._segment_at(peaks[-1][0]) is seg
    if peaks:
        return peaks
    left, width = sch.horizon, max(sch.horizon - sch.tau_c, 1.0)
    while width < 1e6:
        ts = np.linspace(left, left + width, 65).tolist()
        for a, b in zip(ts, ts[1:]):
            peak = polish(sch.last_tau_c, a, b)
            if peak is not None:
                return [peak]
        left, width = left + width, 2.0 * width
    raise AssertionError("no tail peak")


@pytest.mark.parametrize("case", ["exp_point", "gauss", "gauss_resumed",
                                  "exp_tail", "gauss_tail"])
def test_anchored_polish_equals_full_window_on_analytic_profiles(case):
    """Analytic profiles have no knots, so each polish anchors at its
    stretch's start with the exact seed: tau_c, every peak root (past the
    horizon too, with kappa_i = 1e-26) and the peak population equal the
    full-window quadrature route's bit for bit."""
    starts = [(0.0, 0.0)]
    if case == "gauss_resumed":
        sch = _resumed_analytic()
        starts.append((sch.profile.tau0, -0.2))
    elif case.endswith("_tail"):
        profile = (prof.exponential(0.2) if case == "exp_tail"
                   else prof.gaussian(r=0.1533, n=4))
        sch = proto.build_schedule(profile, _params(1e-26))
    else:
        sch = _schedule(case)
    profile, params = sch.profile, sch.params
    stage1_ends = [seg.t1 for seg in sch.segments if seg.stage == 1]
    for (t_start, beta_start), tau_c in zip(starts, stage1_ends, strict=True):
        old = _whole_window_threshold(profile, params.kappa_i, t_start,
                                      beta_start, sch.horizon)[4]
        assert proto._first_threshold(profile, params.kappa_i, t_start,
                                      beta_start, sch.horizon) == old == tau_c
    old = _full_window_peaks(sch)
    new = proto._local_maxima(sch) or [proto._tail_peak(sch)]
    assert new == old
    assert case.endswith("_tail") == (old[0][0] > sch.horizon)
    rep = proto.peak_time_and_fidelity(profile, params, sch)
    assert (rep.tau_max, rep.fidelity) == max(old, key=lambda p: (p[1], -p[0]))


def _table_case(case: str) -> tuple[prof.InputProfile, prof.MemoryParams]:
    if case == "coarse":
        return _coarse_table(0)
    if case == "resumed":
        return _double_hump(), _params()
    return _catch_table(3, faint=case == "faint"), _params()


@pytest.mark.parametrize("case", ["faint", "twin", "coarse"])
def test_anchored_polish_matches_full_window_on_tables(case):
    """On tables the anchored quadratures of beta (in g, each threshold
    polish) and beta^2 (in h, each stage-2 peak polish) lie within 1e-13 of
    the full-window ones at the bracket's ends and 5 points inside."""
    profile, params = _table_case(case)
    sch = proto.build_schedule(profile, params)
    k, checked = params.kappa_i, []
    for seg in sch.segments:
        if seg.stage != 1:
            continue
        beta0 = seg.at(seg.t0)
        lo, hi, _ = proto._threshold_bracket(profile, k, seg.t0, beta0,
                                             sch.horizon)
        assert lo <= seg.t1 <= hi
        checked.append((lo, hi, seg.t0,
                        proto._stage1_anchored(profile, k, seg.t0, beta0, lo),
                        functools.partial(proto._stage1_beta_quad, profile, k,
                                          seg.t0, beta0, epsabs=1e-13)))
    for a, b, seg in _maxima_brackets(sch):
        assert seg.stage == 2
        checked.append((a, b, seg.t0,
                        proto._stage2_anchored(profile, params, seg.t0, a),
                        functools.partial(proto.stage2_population, profile,
                                          params, seg.t0)))
    assert len(checked) >= 2
    for lo, hi, t0, anchored, full_window in checked:
        assert proto._ode_breaks(profile, t0, lo)      # the anchor is a knot
        for t in np.linspace(lo, hi, 7).tolist():
            assert abs(anchored(t) - full_window(t)) <= 1e-13, (lo, t)


@pytest.mark.parametrize("case", ["faint", "twin", "resumed"])
def test_table_polish_integrates_from_the_anchor(case, monkeypatch):
    """Work-count guard: in each table polish every quadrature after the
    first (the one that takes the value at the anchor) spans at most 8 knot
    intervals, where the full-window polish integrated from the stretch's
    start at every root-finder step."""
    profile, params = _table_case(case)
    sch = proto.build_schedule(profile, params)
    groups = []
    quad_chunked, stage2_anchored = prof._quad_chunked, proto._stage2_anchored

    def recording(f, a, b, *rest):
        groups[-1].append(b - a)
        return quad_chunked(f, a, b, *rest)

    def marking(*args):
        groups.append([])
        return stage2_anchored(*args)

    monkeypatch.setattr(prof, "_quad_chunked", recording)
    monkeypatch.setattr(proto, "_stage2_anchored", marking)
    for seg in sch.segments:
        if seg.stage == 1:
            groups.append([])
            proto._first_threshold(profile, params.kappa_i, seg.t0,
                                   seg.at(seg.t0), sch.horizon)
    proto._local_maxima(sch)
    knot_interval = float(np.diff(profile.taus).max())
    assert len(groups) >= 2
    for spans in groups:
        assert spans[0] > 8 * knot_interval and len(spans) >= 3
        assert max(spans[1:]) <= 8 * knot_interval, spans


# ---------------------------------------------------------------------------
# schedule structure
# ---------------------------------------------------------------------------

def test_schedule_two_segments_for_single_pulse():
    p = prof.exponential(0.036)
    sch = proto.build_schedule(p, _params())
    assert [seg.stage for seg in sch.segments] == [1, 2]
    assert sch.flags == ()
    assert sch.last_tau_c == sch.tau_c == sch.segments[1].t0
    assert sch.breakpoints() == [sch.tau_c]


def test_schedule_couplings():
    p = prof.exponential(0.036)
    sch = proto.build_schedule(p, _params())
    tc = sch.tau_c
    assert sch.kappa(0.5 * tc) == 1.0
    assert sch.stage2_kappa(tc) == pytest.approx(1.0, abs=1e-9)
    taus = np.linspace(tc, sch.horizon, 150)
    ks = np.array([sch.kappa(float(t)) for t in taus])
    assert np.all(ks <= 1.0 + 1e-9)
    with pytest.raises(DomainError):
        sch.stage2_kappa(0.5 * tc)
    with pytest.raises(DomainError):
        sch.kappa(-1.0)


def test_schedule_zero_reflection_in_stage2():
    p = prof.gaussian(r=0.1533, n=4)
    sch = proto.build_schedule(p, _params())
    taus = np.linspace(sch.tau_c * 1.0000001, sch.horizon, 200)
    refl = np.array([sch.reflection(float(t)) for t in taus])
    assert refl.max() <= 1e-9
    # while stage 1 genuinely reflects
    assert sch.reflection(0.5 * sch.tau_c) > 1e-6


def test_schedule_population_continuity_at_threshold():
    p = prof.exponential(0.2)
    sch = proto.build_schedule(p, _params(1e-3))
    tc = sch.tau_c
    eps = 1e-9
    assert sch.beta_sq(tc - eps) == pytest.approx(sch.beta_sq(tc + eps), rel=1e-6)
    assert sch.beta(tc + eps) <= 0.0


def test_schedule_population_matches_closed_form():
    r, ki = 0.036, 1e-4
    p = prof.exponential(r)
    sch = proto.build_schedule(p, _params(ki))
    for tau in (0.4, sch.tau_c, 3.0, 40.0, 150.0):
        assert sch.beta_sq(tau) == pytest.approx(
            cf.exp_population(r, ki, tau), abs=1e-11)


def test_schedule_extends_beyond_horizon():
    p = prof.exponential(0.5)
    sch = proto.build_schedule(p, _params(1e-3))
    tau = sch.horizon + 10.0
    assert sch.beta_sq(tau) == pytest.approx(
        cf.exp_population(0.5, 1e-3, tau), rel=1e-8)


# ---------------------------------------------------------------------------
# feasibility guard (multi-hump inputs)
# ---------------------------------------------------------------------------

def test_double_hump_resumes_stage1():
    p = _double_hump()
    sch = proto.build_schedule(p, _params())
    assert "feasibility_resumed" in sch.flags
    assert [seg.stage for seg in sch.segments] == [1, 2, 1, 2]
    # second stage-1 window must open while the main hump arrives
    resumed = sch.segments[2]
    assert 19.0 < resumed.t0 < 22.0
    # coupling is pinned back at 1 inside the resumed window
    assert sch.kappa(0.5 * (resumed.t0 + resumed.t1)) == 1.0


def test_double_hump_report():
    p = _double_hump()
    params = _params()
    sch = proto.build_schedule(p, params)
    rep = proto.peak_time_and_fidelity(p, params, sch)
    assert rep.tau_c == pytest.approx(3.786493, abs=1e-4)
    # the global peak sits after the main hump, not after the faint one
    assert rep.tau_max == pytest.approx(26.065787, abs=1e-4)
    assert rep.fidelity == pytest.approx(0.99564457, abs=1e-6)
    total = (rep.fidelity + rep.loss_stage1_reflection
             + rep.loss_intrinsic + rep.loss_unabsorbed)
    assert total == pytest.approx(1.0, abs=1e-8)
    assert "feasibility_resumed" in rep.flags


# ---------------------------------------------------------------------------
# array evaluation
# ---------------------------------------------------------------------------

_SCHEDULE_METHODS = ("beta_sq", "beta", "kappa", "stage2_kappa", "reflection")


@functools.lru_cache(maxsize=None)
def _schedule(case: str) -> proto.CouplingSchedule:
    if case == "exp":
        return proto.build_schedule(prof.exponential(0.5), _params(1e-3))
    if case == "exp_point":
        return proto.build_schedule(prof.exponential(0.036), _params())
    if case == "gauss":
        return proto.build_schedule(prof.gaussian(r=0.1533, n=4), _params())
    if case == "resumed":
        return proto.build_schedule(_double_hump(), _params())
    return proto.build_schedule(prof.exponential(0.05), _params(0.9))


def _probe_taus(sch: proto.CouplingSchedule) -> np.ndarray:
    """A grid over [0, horizon] plus every segment end, tau_c and its
    neighbours, and samples beyond the horizon."""
    edges = [seg.t1 for seg in sch.segments] + [sch.tau_c, sch.horizon]
    near = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    return np.concatenate([np.linspace(0.0, sch.horizon, 61), edges, near,
                           [sch.horizon + 0.5]])


def _float_values(sch, method, taus):
    return np.array([getattr(sch, method)(t) for t in taus.tolist()])


@pytest.mark.parametrize("method", _SCHEDULE_METHODS)
@pytest.mark.parametrize("case", ["exp", "gauss", "resumed"])
def test_array_evaluation_equals_float_calls(case, method):
    sch = _schedule(case)
    taus = _probe_taus(sch)
    if method == "stage2_kappa":
        taus = taus[taus >= sch.tau_c]
    if case == "resumed":
        assert [seg.stage for seg in sch.segments] == [1, 2, 1, 2]
    got = getattr(sch, method)(taus)
    assert isinstance(got, np.ndarray) and got.shape == taus.shape
    assert np.array_equal(got, _float_values(sch, method, taus))
    # shuffled samples land on the same values
    order = np.random.default_rng(7).permutation(len(taus))
    assert np.array_equal(getattr(sch, method)(taus[order]), got[order])


def _same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("case", ["exp_point", "gauss", "resumed"])
def test_float_dense_output_is_bitwise_scipy(case):
    """A segment's float evaluator equals its OdeSolution call bit for bit at
    every step boundary, the segment ends, one ulp either side of each and
    between steps."""
    sch = _schedule(case)
    for seg in sch.segments:
        ts = seg.sol.ts
        knots = np.concatenate([ts, [seg.t0, seg.t1]])
        probes = np.concatenate([knots, np.nextafter(knots, -np.inf),
                                 np.nextafter(knots, np.inf),
                                 0.5 * (ts[1:] + ts[:-1])])
        for t in probes.tolist():
            assert _same_float(seg.at(t), float(seg.sol(t)[0])), (seg.stage, t)


def test_float_dense_output_falls_back_for_other_interpolants():
    seg = _schedule("gauss").segments[1]
    calls = []

    class Wrapped(DenseOutput):
        """Not a DOP853 interpolant: delegates, counting calls."""

        def __init__(self, inner):
            super().__init__(inner.t_old, inner.t)
            self.inner = inner

        def _call_impl(self, t):
            calls.append(t)
            return self.inner._call_impl(t)

    steps = list(seg.sol.interpolants)
    steps[3] = Wrapped(steps[3])
    other = proto._Segment(seg.stage, seg.t0, seg.t1,
                           OdeSolution(seg.sol.ts, steps))
    inside = 0.5 * float(seg.sol.ts[3] + seg.sol.ts[4])
    for t in (inside, float(seg.sol.ts[1]), seg.t1):
        assert other.at(t) == float(seg.sol(t)[0])
    assert calls == [inside]


def test_table_ending_at_zero():
    # PCHIP rounds to -1.4e-17 at the last knot; math.sqrt of it in the
    # stage-1 right-hand side used to raise "math domain error".
    taus = [0.0, 3.225580565561099, 6.451161131122198]
    p = prof.tabulated(taus, [0.19930189806940551, 0.18743571933252437, 0.0])
    assert float(p._interp.pp(taus[-1])) < 0.0
    assert prof.rate_at(p, taus[-1]) == 0.0
    sch = proto.build_schedule(p, _params())
    rep = proto.peak_time_and_fidelity(p, _params(), sch)
    total = (rep.fidelity + rep.loss_stage1_reflection
             + rep.loss_intrinsic + rep.loss_unabsorbed)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_array_evaluation_of_zero_dim_input_is_a_float():
    sch = _schedule("exp")
    for method in _SCHEDULE_METHODS:
        got = getattr(sch, method)(np.float64(3.0).reshape(()))
        assert isinstance(got, float)
        assert got == getattr(sch, method)(3.0)
    assert sch.kappa(3) == sch.kappa(3.0)


@pytest.mark.parametrize("method", ["kappa", "stage2_kappa"])
def test_array_coupling_raises_where_float_call_does(method):
    sch = _schedule("singular")
    taus = np.linspace(sch.tau_c, sch.horizon, 401)
    singular = np.zeros(taus.shape, dtype=bool)
    for i, t in enumerate(taus.tolist()):
        try:
            getattr(sch, method)(t)
        except SingularCoupling:
            singular[i] = True
    assert singular.any() and not singular.all()
    for i in np.flatnonzero(singular)[::40].tolist():
        with pytest.raises(SingularCoupling):
            getattr(sch, method)(taus[i - 1:i + 2])
    regular = taus[~singular]
    assert np.array_equal(getattr(sch, method)(regular),
                          _float_values(sch, method, regular))
    if method == "kappa":
        masked = sch.kappa(taus, nan_if_singular=True)
        assert np.array_equal(np.isnan(masked), singular)
        assert math.isnan(sch.kappa(float(taus[singular][0]),
                                    nan_if_singular=True))


def test_array_evaluation_rejects_out_of_domain_taus():
    sch = _schedule("exp")
    for method in ("beta_sq", "kappa"):
        with pytest.raises(DomainError):
            getattr(sch, method)(np.array([1.0, -1e-3]))
    with pytest.raises(DomainError):
        sch.stage2_kappa(np.array([sch.tau_c, 0.5 * sch.tau_c]))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_exponential_report_matches_closed_form():
    r, ki = 0.036, 1e-4
    p = prof.exponential(r)
    sch = proto.build_schedule(p, _params(ki))
    rep = proto.peak_time_and_fidelity(p, _params(ki), sch)
    tau_ref, fid_ref = cf.exp_report(r, ki)
    assert rep.tau_c == pytest.approx(cf.exp_tau_c(r, ki), abs=1e-9)
    assert rep.tau_max == pytest.approx(tau_ref, abs=1e-6)
    assert rep.fidelity == pytest.approx(fid_ref, abs=1e-9)


def test_gaussian_report_matches_closed_form():
    sigma = 1.0 / (0.1533 * math.sqrt(2.0 * math.pi))
    p = prof.gaussian(r=0.1533, n=4)
    sch = proto.build_schedule(p, _params())
    rep = proto.peak_time_and_fidelity(p, _params(), sch)
    tau_ref, fid_ref = cf.gauss_report(sigma, 4.0, 1e-4)
    assert rep.tau_max == pytest.approx(tau_ref, abs=1e-6)
    assert rep.fidelity == pytest.approx(fid_ref, abs=1e-9)


def test_report_values_are_reproducible():
    # determinism anchor for the generic route at the exponential point
    p = prof.exponential(0.036)
    sch = proto.build_schedule(p, _params())
    rep = proto.peak_time_and_fidelity(p, _params(), sch)
    assert rep.tau_c == pytest.approx(1.3647475707458272, abs=1e-8)
    assert rep.tau_max == pytest.approx(164.34060877877471, abs=1e-5)
    assert rep.fidelity == pytest.approx(0.97029232725224135, abs=1e-9)


def test_loss_budget_closes_for_exponential():
    p = prof.exponential(0.036)
    sch = proto.build_schedule(p, _params())
    rep = proto.peak_time_and_fidelity(p, _params(), sch)
    total = (rep.fidelity + rep.loss_stage1_reflection
             + rep.loss_intrinsic + rep.loss_unabsorbed)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert rep.loss_stage1_reflection > 0.0
    assert rep.loss_intrinsic > 0.0
    assert rep.loss_unabsorbed > 0.0


def test_lossless_peak_is_asymptotic():
    r = 0.2
    p = prof.exponential(r)
    params = _params(0.0)
    sch = proto.build_schedule(p, params)
    rep = proto.peak_time_and_fidelity(p, params, sch)
    assert math.isinf(rep.tau_max)
    _, a1 = cf.exp_report(r, 0.0)
    assert rep.fidelity == pytest.approx(a1, abs=1e-9)
    assert rep.loss_intrinsic == 0.0


def test_heavy_loss_regime_is_flagged_not_failed():
    # kappa_i >= r: the closed-form peak formula does not apply, but the
    # generic route must still produce a finite, flagged answer
    p = prof.exponential(0.3)
    params = prof.MemoryParams(kappa_i=0.3)
    sch = proto.build_schedule(p, params)
    rep = proto.peak_time_and_fidelity(p, params, sch)
    assert "kappa_i_ge_r" in rep.flags
    assert rep.tau_c == pytest.approx(2.0 * math.log(2.0), abs=1e-10)
    assert rep.tau_max == pytest.approx(3.7196276944757107, abs=1e-6)
    assert rep.fidelity == pytest.approx(0.32762411836316285, abs=1e-7)
    with pytest.raises(DomainError):
        cf.exp_report(0.3, 0.3)


def test_stage2_population_requires_tau_past_threshold():
    p = prof.exponential(0.2)
    with pytest.raises(DomainError):
        proto.stage2_population(p, _params(), 2.0, 1.0)
