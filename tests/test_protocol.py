"""Generic two-stage schedule construction and transfer bookkeeping.

Cross-route agreement is the core idea: everything the generic ODE/quadrature
machinery produces for exponential and Gaussian inputs is compared against the
closed-form module, and tabulated re-samplings of analytic profiles must land
on the same schedule.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import os
import pickle
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp.rk import RungeKutta
from scipy.optimize import brentq

from pulsecatch import closedform as cf
from pulsecatch import profiles as prof
from pulsecatch import protocol as proto
from pulsecatch.errors import (DomainError, InfeasibleSchedule, NoThreshold,
                               PulsecatchError, SingularCoupling)
from test_batched import _same_bits, narrow_tables, odesolution


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


@pytest.mark.parametrize("r", [0.005, 0.002])
def test_threshold_matches_closed_form_wide_gaussian(r):
    # sigma = 80 and 199: e^{-A^2} underflows, and the closed form's
    # unscaled residual, 0.0 at tau = 0, once gave tau_c = 0.0; its
    # exponent B^2 - A^2, a difference of two numbers near 1,760, once put
    # tau_c 5e-13 off
    tc = proto.threshold_time(prof.gaussian(r=r), _params())
    sigma = 1.0 / (r * math.sqrt(2.0 * math.pi))
    assert abs(cf.gauss_constants(sigma, 4.0, 1e-4).tau_c - tc) <= 1e-14


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
    """The threshold search done the long way: stage 1 propagated over the
    whole window [t0, end] in one object (all chunks joined), a scan of
    g = sqrt(r_in) + beta on its `samples` of (1 - k) beta - beta' (k =
    (1 + kappa_i)/2), and the same polish on the exact form. Returns (t0,
    lo, hi, tau_c, sol, and tau_c polished in the bracket of the
    8193-point grid on [t0, end] that the scan used before)."""
    t0 = max(t_start, proto._activation_time(profile))
    whole = proto._ExactLinear.join(list(proto._ExactLinear.stage1(
        profile, kappa_i, t_start, beta_start, t0, end)))
    assert whole.ts[-1] == end

    def scan(ts):
        g = np.sqrt(prof.rate_at(profile, ts)) + whole.dense(ts)
        i = int(np.flatnonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))[0])
        lo, hi = float(ts[i]), float(ts[i + 1])
        return lo, hi, brentq(
            lambda t: math.sqrt(prof.rate_at(profile, t)) + whole.at(t),
            lo, hi, xtol=1e-300, rtol=4 * _EPS, maxiter=200)

    ts, y = whole.samples(0.5 * (1.0 - kappa_i), -1.0, 0.0, t0)
    assert y.tobytes() == whole.dense(ts).tobytes()
    lo, hi, tau_c = scan(ts)
    return t0, lo, hi, tau_c, whole, scan(np.linspace(t0, end, 8193))[2]


@pytest.mark.parametrize("case", ["exp_point", "gauss", "delayed", "resumed"])
def test_threshold_scan_equals_whole_window_scan(case):
    """Propagating stage 1 in chunks only to the first crossing finds the
    same bracket, threshold and propagation, bit for bit, as scanning the
    whole window's samples; tau_c lies within 8 eps tau_c of the root
    polished in the old 8193-point grid's bracket."""
    params = _params()
    t_start, beta_start = 0.0, 0.0
    if case == "delayed":
        profile = _delayed_table()
    elif case == "resumed":
        # the second threshold search, from the feasibility violation
        sch = _schedule("resumed")
        profile = sch.profile
        t_start = sch.segments[2].t0
        beta_start = -math.sqrt(sch.segments[1].sol.at(t_start))
    else:
        profile = _schedule(case).profile
    end = prof.horizon(profile)
    t0, lo, hi, tau_c, whole, grid_tau_c = _whole_window_threshold(
        profile, params.kappa_i, t_start, beta_start, end)
    if case in ("delayed", "resumed"):
        assert t0 > 0.0
    assert abs(tau_c - grid_tau_c) <= 8 * _EPS * tau_c

    got_lo, got_hi, sol = proto._threshold_bracket(profile, params.kappa_i,
                                                   t_start, beta_start, end)
    assert (got_lo, got_hi) == (lo, hi)
    assert proto._first_threshold(profile, params.kappa_i, t_start,
                                  beta_start, end)[0] == tau_c
    if case == "resumed":
        assert sch.segments[2].t1 == tau_c
    else:
        assert proto.threshold_time(profile, params) == tau_c
    # the pieces taken are the whole window's first ones, up to the end of
    # the chunk holding hi
    assert isinstance(sol, proto._ExactLinear)
    assert np.array_equal(sol.ts, whole.ts[:len(sol.ts)])
    assert hi <= sol.ts[-1] < end and len(sol.ts) < len(whole.ts)
    pieces = whole.ts[(whole.ts > lo) & (whole.ts < hi)]
    probes = np.concatenate([np.linspace(lo, hi, 65), pieces,
                             np.nextafter(pieces, -np.inf),
                             np.nextafter(pieces, np.inf)])
    for t in probes.tolist():
        assert sol.at(t) == whole.at(t), t


def test_threshold_scan_reaching_end_raises():
    # sqrt(r_in) grows as e^tau, faster than the stage-1 amplitude can follow
    taus = np.linspace(0.0, 10.0, 101)
    rates = np.exp(2.0 * taus)
    p = prof.tabulated(taus, rates / np.trapezoid(rates, taus))
    with pytest.raises(NoThreshold, match=r"never reaches the threshold in "
                                          r"\[0\.0, 10\.0\]"):
        proto.threshold_time(p, _params())


def test_threshold_notch_between_grid_points_is_found():
    """The benchmark's twin table (`multi_hump` for default_rng(3)) with
    r_in dipping to 0 at one knot, 0.0009 from its neighbours, midway
    between the points around 0.6 tau_c of the 8193-point grid the scan
    used. sqrt(r_in) falls below |beta| inside the dip: that is the first
    threshold, which the grid stepped over (tau_c 2.74741)."""
    rng = np.random.default_rng(3)
    taus = np.linspace(0.0, 30.0, 1501)
    c1, c2 = rng.uniform(3.0, 5.0), rng.uniform(17.0, 22.0)
    w1, w2 = rng.uniform(0.9, 1.2), rng.uniform(0.9, 1.2)
    a1 = rng.uniform(0.3, 0.6)
    rates = a1 * np.exp(-0.5 * ((taus - c1) / w1) ** 2) \
        + (1.0 - a1) * np.exp(-0.5 * ((taus - c2) / w2) ** 2)
    twin, params = prof.tabulated(taus, rates / np.trapezoid(rates, taus)), \
        _params()
    grid = np.linspace(0.0, 30.0, 8193)
    j = int(np.searchsorted(grid, 0.6 * proto.threshold_time(twin, params)))
    notch = 0.5 * (grid[j - 1] + grid[j])
    taus = np.sort(np.append(taus, [notch - 9e-4, notch, notch + 9e-4]))
    rates = np.where(taus == notch, 0.0, prof.rate_at(twin, taus))
    rates /= prof.total_excitation(prof.tabulated(taus, rates), math.inf)
    tau_c = proto.threshold_time(prof.tabulated(taus, rates), params)
    assert notch - 9e-4 < tau_c < notch


def _rate_nan_past(monkeypatch, t_bad: float) -> None:
    """`rate_at` gives nan on arrays past t_bad (the series' leading terms),
    and its usual values on floats."""
    rate = prof.rate_at

    def broken(profile, tau):
        out = rate(profile, tau)
        return np.where(np.asarray(tau) > t_bad, math.nan, out) \
            if np.ndim(tau) else out

    monkeypatch.setattr(prof, "rate_at", broken)


def test_stage1_solver_failure_is_no_threshold(monkeypatch):
    """A stage-1 series that is not finite raises NoThreshold, naming the
    start of the first piece where it failed, in the scan and in a build."""
    _rate_nan_past(monkeypatch, 0.5)
    p = prof.exponential(0.036)      # pieces 1 long; tau_c = 1.36 otherwise
    with pytest.raises(NoThreshold, match="stage-1 series failed") as exc:
        proto.threshold_time(p, _params())
    assert 0.5 < float(str(exc.value).rsplit("= ", 1)[1]) <= 1.5
    with pytest.raises(NoThreshold, match="stage-1 series failed"):
        proto.build_schedule(p, _params())


def test_same_sign_dense_bracket_is_no_threshold(monkeypatch):
    """Where the exact form refuses the scan's bracket, scipy's brentq would
    raise a bare ValueError; the solver raises NoThreshold naming the
    bracket."""
    monkeypatch.setattr(proto._ExactLinear, "at", lambda self, t: 1.0)
    with pytest.raises(NoThreshold, match=r"does not change sign on the "
                       r"bracket \[[0-9.e-]+, [0-9.e-]+\]"):
        proto.threshold_time(prof.exponential(0.036), _params())


# ---------------------------------------------------------------------------
# exact stages
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


def _refuse_ode(monkeypatch) -> None:
    """Fail the test on any ODE solve: `protocol.solve_ivp` and every step
    of scipy's Runge-Kutta solvers are refused."""
    def refuse(*args, **kwargs):
        raise AssertionError("ODE solve")

    monkeypatch.setattr(proto, "solve_ivp", refuse)
    monkeypatch.setattr(RungeKutta, "_step_impl", refuse)


def _solve_ivp_segment(profile, kappa_i, seg, end):
    """A schedule segment solved by `solve_ivp`'s DOP853, stepping over
    knots and pieces alike: stage 1 over [t0, end] from the segment's start
    value, stage 2 from r_in(t0) towards end with the kappa > 1 violation
    event."""
    opts = dict(method="DOP853", rtol=1e-12, atol=1e-14)
    if seg.stage == 1:
        a = 0.5 * (1.0 + kappa_i)
        return solve_ivp(
            lambda t, y: [-math.sqrt(prof.rate_at(profile, t)) - a * y[0]],
            (seg.t0, end), [seg.sol.at(seg.t0)], **opts)

    def violation(t, y):
        return (1.0 + 0.5 * 1e-9) * y[0] - prof.rate_at(profile, t) + 1e-13

    violation.terminal = True
    violation.direction = -1.0
    return solve_ivp(lambda t, y: [prof.rate_at(profile, t) - kappa_i * y[0]],
                     (seg.t0, end), [prof.rate_at(profile, seg.t0)],
                     events=violation, **opts)


@pytest.mark.parametrize("case", ["exp_point", "gauss", "resumed"])
def test_stepping_without_breaks_equals_solve_ivp(case):
    """Every segment is `solve_ivp`'s DOP853 solve of its stage (rtol
    1e-12), which steps without breaks at knots or pieces, to that solve's
    error: at each of its step ends inside the segment within 1e-12
    max(1, |y|) on the analytic pulses (seen: 7.3e-14). On the double hump
    (a table) solve_ivp steps across the PCHIP knots, where its error
    control is blind to the jumps in r_in'': there the bound is 1e-8 (seen:
    1.5e-9), and solve_ivp's stage 2 meets the same violation, placed only
    to its error across the knots (2.5e-8). The last stage 2 runs to the
    horizon with no violation, as solve_ivp's."""
    sch = _schedule(case)
    profile, params = sch.profile, sch.params
    bound = 1e-8 if case == "resumed" else 1e-12
    if case == "resumed":
        assert [seg.stage for seg in sch.segments] == [1, 2, 1, 2]
    for i, seg in enumerate(sch.segments):
        ref = _solve_ivp_segment(profile, params.kappa_i, seg,
                                 seg.t1 if seg.stage == 1 else sch.horizon)
        t = ref.t[ref.t <= seg.t1]
        assert len(t) > 5
        want = ref.y[0, :len(t)]
        assert np.all(np.abs(seg.sol.dense(t) - want)
                      <= bound * np.maximum(1.0, np.abs(want))), i
        if seg.stage == 2 and i < len(sch.segments) - 1:
            assert ref.status == 1
            assert abs(ref.t_events[0][0] - seg.t1) <= 1e-7
        else:
            assert ref.status == 0 and ref.t[-1] == seg.t1


@pytest.mark.parametrize("case", ["exp_point", "exp", "gauss",
                                  "gauss_resumed"])
def test_analytic_stage1_is_the_scan_cut_at_tau_c(case):
    """An analytic stage-1 segment is the threshold scan's exact
    propagation cut at tau_c: it ends at tau_c, its pieces are the scan's,
    and on 257 points it is the scan's propagation bit for bit. At tau_c it
    lies within 1e-14 of `_stage1_beta_quad` from the segment's start (the
    DOP853 dense output it replaced was 1.4e-13 off on `exp` and 1.0e-12 on
    the resumed stretch)."""
    sch = _resumed_analytic() if case == "gauss_resumed" else _schedule(case)
    profile, k = sch.profile, sch.params.kappa_i
    stage1 = [seg for seg in sch.segments if seg.stage == 1]
    assert len(stage1) == (2 if case == "gauss_resumed" else 1)
    for seg in stage1:
        sol, beta0 = seg.sol, seg.sol.at(seg.t0)
        assert isinstance(sol, proto._ExactLinear)
        assert (sol.ts[0], sol.ts[-1]) == (seg.t0, seg.t1)
        scan = proto._threshold_bracket(profile, k, seg.t0, beta0,
                                        sch.horizon)[2]
        n = len(sol.ts) - 1
        assert np.array_equal(sol.ts[:n], scan.ts[:n]) and scan.ts[n] >= seg.t1
        grid = np.linspace(seg.t0, seg.t1, 257)
        assert _same_bits(sol.dense(grid), scan.dense(grid))
        want = proto._stage1_beta_quad(profile, k, seg.t0, beta0, seg.t1)
        assert abs(sol.at(seg.t1) - want) <= 1e-14


_EPS = 2.0 ** -52       # machine epsilon, the knot-value checks' scale


def _pieces(sol: proto._ExactLinear) -> np.ndarray:
    return np.stack([sol.ts[:-1], sol.ts[1:]], axis=1)


def test_table_steps_end_at_knots():
    """No table segment is stepped: each is an exact propagation whose
    pieces never straddle a knot and end at every knot inside it. Stage 2's
    pieces are exactly its knot intervals; stage 1's are too, cut in equal
    parts only where the square root needs it (none here)."""
    sch = _schedule("resumed")
    knots = sch.profile.taus
    for seg in sch.segments:
        assert isinstance(seg.sol, proto._ExactLinear)
        assert (seg.sol.ts[0], seg.sol.ts[-1]) == (seg.t0, seg.t1)
        for a, b in _pieces(seg.sol).tolist():
            assert not np.any((knots > a) & (knots < b))
        inside = knots[(knots > seg.t0) & (knots < seg.t1)]
        assert np.array_equal(seg.sol.ts, np.concatenate(
            ([seg.t0], inside, [seg.t1])))
        assert not seg.sol._branch.any()


def test_table_steps_are_rarely_rejected(monkeypatch):
    """On the benchmark's faint two-hump table no step is taken, so none is
    rejected: the build makes no ODE solve. Each stage-1 piece instead
    lands within 2^-52 max(1, |beta|) of `_stage1_beta_quad` from the value
    at its start, over the 130-900 pieces of its two stage-1 stretches (the
    knot-aligned DOP853 took 1.1 trials per accepted step and ended a
    stretch within 6e-16)."""
    _refuse_ode(monkeypatch)
    profile, params = _catch_table(3, faint=True), _params()
    sch = proto.build_schedule(profile, params)
    assert "feasibility_resumed" in sch.flags
    stage1 = [seg for seg in sch.segments if seg.stage == 1]
    assert len(stage1) == 2
    for seg in stage1:
        ts = seg.sol.ts.tolist()
        assert len(ts) > 50
        for a, b in zip(ts, ts[1:]):
            want = proto._stage1_beta_quad(profile, params.kappa_i, a,
                                           seg.sol.at(a), b)
            assert abs(seg.sol.at(b) - want) <= _EPS * max(1.0, abs(want)), b


def _segment_end_gaps(sch: proto.CouplingSchedule):
    """(stage, dense value, quadrature value) at the end of each segment:
    beta by `_stage1_beta_quad` from the segment's start, beta^2 by
    `stage2_population`."""
    for seg in sch.segments:
        if seg.stage == 1:
            quad_value = proto._stage1_beta_quad(
                sch.profile, sch.params.kappa_i, seg.t0, seg.sol.at(seg.t0), seg.t1)
        else:
            quad_value = proto.stage2_population(sch.profile, sch.params,
                                                 seg.t0, seg.t1)
        yield seg.stage, seg.sol.at(seg.t1), quad_value


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
    `stage2_population`; each stage-1 segment within 1e-12 |beta| of
    `_stage1_beta_quad`, the relative tolerance of the DOP853 solve the
    exact propagation replaced."""
    sch = proto.build_schedule(*_coarse_table(seed))
    assert _budget_total(sch) == pytest.approx(1.0, abs=1e-8)
    for stage, dense, quad_value in _segment_end_gaps(sch):
        bound = 1e-13 if stage == 2 else 1e-12 * abs(quad_value)
        assert abs(dense - quad_value) <= bound, stage


def test_stage_solver_failures_are_infeasible(monkeypatch):
    """A stage-2 series that is not finite raises InfeasibleSchedule,
    naming the start of the first piece where it failed. Stage 1 is solved
    only by the threshold scan, where a failure is NoThreshold
    (`test_stage1_solver_failure_is_no_threshold`)."""
    _rate_nan_past(monkeypatch, 2.0)
    p = prof.exponential(0.036)
    with pytest.raises(InfeasibleSchedule,
                       match="stage-2 series failed") as exc:
        proto._integrate_stage2(p, 1e-4, 1.0, 50.0)
    # four pieces 12.25 long from 1.0: the second is the first past 2.0
    assert float(str(exc.value).rsplit("= ", 1)[1]) == 13.25


# ---------------------------------------------------------------------------
# root polishes on the exact forms
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
    tau_c2, sol1 = proto._first_threshold(profile, k, t_v, beta_v, end)
    sol2, violation = proto._integrate_stage2(profile, k, tau_c2, end)
    assert violation is None
    first, second = sch.segments
    segments = (first, proto._Segment(2, second.t0, t_v, second.sol),
                proto._Segment(1, t_v, tau_c2, sol1),
                proto._Segment(2, tau_c2, end, sol2))
    return proto.CouplingSchedule(profile, sch.params, sch.tau_c, segments,
                                  end, ("feasibility_resumed",))


def _maxima_brackets(sch: proto.CouplingSchedule):
    """The oracle's brackets: the downward slope crossings on the 4097-point
    log-spaced grid `_local_maxima` used to scan, each with the segment
    holding its midpoint. Each polish runs to a few ulps, so its root does
    not depend on the bracket."""
    lo, hi = sch.tau_c, sch.horizon
    ts = lo + np.geomspace(1e-6 * max(lo, 1.0), hi - lo, 4097)
    vals = proto._slope(sch, ts, *sch._sampled(ts)[:2])
    for i in np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0)).tolist():
        a, b = float(ts[i]), float(ts[i + 1])
        yield a, b, sch._segment_at(0.5 * (a + b))


def _full_window_peaks(sch: proto.CouplingSchedule):
    """The stage-2 peaks on the quadrature route: every slope r_in -
    kappa_i beta^2 and the peak's population take beta^2 by
    `stage2_population` from the stretch's threshold, and each root is
    polished to a few ulps, as `_local_maxima` polishes. Past the horizon,
    the same on 64-point windows that double from it."""
    profile, params = sch.profile, sch.params

    def polish(t0, a, b):
        pop = lambda t: proto.stage2_population(profile, params, t0, t)
        h = lambda t: prof.rate_at(profile, t) - params.kappa_i * pop(t)
        if not h(a) > 0.0 >= h(b):
            return None
        root = brentq(h, a, b, xtol=1e-300, rtol=4 * _EPS, maxiter=200)
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


def _quadrature_threshold(profile, kappa_i, t_start, beta_start, end):
    """tau_c polished on the quadrature form of g = sqrt(r_in) + beta from
    (t_start, beta_start), in the scan's bracket."""
    lo, hi, _ = proto._threshold_bracket(profile, kappa_i, t_start,
                                         beta_start, end)
    g = lambda t: math.sqrt(prof.rate_at(profile, t)) \
        + proto._stage1_beta_quad(profile, kappa_i, t_start, beta_start, t)
    return brentq(g, lo, hi, xtol=1e-300, rtol=4 * _EPS, maxiter=200)


def _assert_peaks_match(new, old):
    """Peak times within 1e-14 max(1, tau), populations within 1e-15."""
    assert len(new) == len(old)
    for (t, f), (t_old, f_old) in zip(new, old):
        assert abs(t - t_old) <= 1e-14 * max(1.0, t_old)
        assert abs(f - f_old) <= 1e-15


@pytest.mark.parametrize("case", ["exp_point", "gauss", "gauss_resumed",
                                  "exp_tail", "gauss_tail"])
def test_anchored_polish_equals_full_window_on_analytic_profiles(case):
    """Each polish runs on the exact forms, anchored at the start of the
    piece holding its point: tau_c on the stage-1 propagation, every peak
    on its stage-2 segment (past the horizon, with kappa_i = 1e-26, on the
    tail propagated from the horizon). They equal the full-window quadrature
    route to rounding: tau_c within 1e-14 of the root polished on
    `_stage1_beta_quad` from the stretch's start, and each peak time within
    1e-14 max(1, tau) and its population within 1e-15 of the route through
    `stage2_population`. The stage-1 solution that comes with tau_c is the
    segment's, ending at tau_c."""
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
    stage1 = [seg for seg in sch.segments if seg.stage == 1]
    for (t_start, beta_start), seg in zip(starts, stage1, strict=True):
        old = _quadrature_threshold(profile, params.kappa_i, t_start,
                                    beta_start, sch.horizon)
        tau_c, sol = proto._first_threshold(profile, params.kappa_i, t_start,
                                            beta_start, sch.horizon)
        assert tau_c == seg.t1 == sol.ts[-1] and abs(tau_c - old) <= 1e-14
        assert np.array_equal(sol.ts, seg.sol.ts)
    old = _full_window_peaks(sch)
    new = proto._local_maxima(sch)
    _assert_peaks_match(new, old)
    assert case.endswith("_tail") == (old[0][0] > sch.horizon)
    rep = proto.peak_time_and_fidelity(profile, params, sch)
    assert (rep.tau_max, rep.fidelity) == max(new, key=lambda p: (p[1], -p[0]))


def _table_case(case: str) -> tuple[prof.InputProfile, prof.MemoryParams]:
    if case == "coarse":
        return _coarse_table(0)
    if case == "resumed":
        return _double_hump(), _params()
    return _catch_table(3, faint=case == "faint"), _params()


@pytest.mark.parametrize("case", ["faint", "twin", "coarse"])
def test_anchored_polish_matches_full_window_on_tables(case):
    """On tables each polish is anchored at the start of the exact piece
    holding its point, a knot or an equal part of a knot interval: the
    exact forms of beta (in g, each threshold polish) and beta^2 (in h,
    each stage-2 peak polish) lie within 1e-13 of the full-window
    quadratures at the bracket's ends and 5 points inside, and the polished
    tau_c and peaks match the quadrature route's as on analytic
    profiles."""
    profile, params = _table_case(case)
    sch = proto.build_schedule(profile, params)
    k, checked = params.kappa_i, []
    for seg in sch.segments:
        if seg.stage != 1:
            continue
        beta0 = seg.sol.at(seg.t0)
        lo, hi, sol = proto._threshold_bracket(profile, k, seg.t0, beta0,
                                               sch.horizon)
        assert lo <= seg.t1 <= hi
        assert abs(seg.t1 - _quadrature_threshold(
            profile, k, seg.t0, beta0, sch.horizon)) <= 1e-14
        checked.append((lo, hi, sol.at, functools.partial(
            proto._stage1_beta_quad, profile, k, seg.t0, beta0)))
    for a, b, seg in _maxima_brackets(sch):
        assert seg.stage == 2
        checked.append((a, b, seg.sol.at, functools.partial(
            proto.stage2_population, profile, params, seg.t0)))
    assert len(checked) >= 2
    for lo, hi, exact, full_window in checked:
        for t in np.linspace(lo, hi, 7).tolist():
            assert abs(exact(t) - full_window(t)) <= 1e-13, (lo, t)
    _assert_peaks_match(proto._local_maxima(sch), _full_window_peaks(sch))


@pytest.mark.parametrize("case", ["faint", "twin", "resumed"])
def test_table_polish_integrates_from_the_anchor(case, monkeypatch):
    """Work-count guard: each threshold polish and each stage-2 peak polish
    evaluates the exact forms, which integrate from the anchor, the start
    of the piece holding the point, over at most one knot interval. No
    polish calls a quadrature, where the polishes before integrated from
    the stretch's start, or later from a knot, at every root-finder
    step."""
    profile, params = _table_case(case)
    sch = proto.build_schedule(profile, params)
    calls, spans = [], []
    quad_chunked, at = prof._quad_chunked, proto._ExactLinear.at
    monkeypatch.setattr(prof, "_quad_chunked", lambda *args: (
        calls.append(args[1:3]), quad_chunked(*args))[1])

    def recording(sol, t):
        i = np.searchsorted(sol.ts, t, side="left") - 1
        spans.append(t - sol.ts[min(max(i, 0), len(sol.ts) - 2)])
        return at(sol, t)

    monkeypatch.setattr(proto._ExactLinear, "at", recording)
    for seg in sch.segments:
        if seg.stage == 1:
            proto._first_threshold(profile, params.kappa_i, seg.t0,
                                   seg.sol.at(seg.t0), sch.horizon)
    assert len(proto._local_maxima(sch)) >= 1
    assert calls == [] and len(spans) >= 2
    assert 0.0 <= min(spans) and max(spans) <= np.diff(profile.taus).max()


def _ci_zero_run_table() -> prof.InputProfile:
    """CI's zero-run table: two humps on 1,001 knots over [0, 20], 0 at the
    first and last samples and on (9.5, 10.5). Its stage 1 has branch
    pieces at the zero first sample, one of them anchored off its start."""
    t = np.linspace(0.0, 20.0, 1001)
    r = np.exp(-0.5 * ((t - 5.0) / 0.8) ** 2) \
        + np.exp(-0.5 * ((t - 15.0) / 0.8) ** 2)
    r[0] = r[-1] = 0.0
    r[(t > 9.5) & (t < 10.5)] = 0.0
    return prof.tabulated(t, r / np.trapezoid(r, t))


def _scanned():
    """(name, propagation, the scan's alpha, beta, const): every stage-1
    chunk and the stage-2 propagation of both operating points; the stage
    1 of a table with crowded pieces and of one with branch pieces, joined
    and cut; and the tail at kappa_i = 1e-26."""
    for case in ("exp_point", "gauss"):
        sch = _schedule(case)
        profile, k = sch.profile, sch.params.kappa_i
        for i, chunk in enumerate(proto._ExactLinear.stage1(
                profile, k, 0.0, 0.0, 0.0, sch.horizon)):
            yield f"{case} chunk {i}", chunk, (0.5 * (1.0 - k), -1.0, 0.0)
        yield f"{case} stage 2", proto._ExactLinear.stage2(
            profile, k, sch.tau_c, prof.rate_at(profile, sch.tau_c),
            sch.horizon)[0], (1.0 + 0.5 * proto._KAPPA_SLACK - k, -1.0, 1e-13)
    for name, table in (("delayed", _delayed_table()),
                        ("zero_run", _ci_zero_run_table())):
        whole = proto._ExactLinear.join(list(proto._ExactLinear.stage1(
            table, 1e-4, 0.0, 0.0, 0.0, float(table.taus[-1]))))
        form = (0.5 * (1.0 - 1e-4), -1.0, 0.0)
        yield f"{name} join", whole, form
        for n in (1, 3, len(whole.ts) // 2):
            end = 0.5 * (whole.ts[n - 1] + whole.ts[n])
            yield f"{name} cut {n}", whole.cut(n, end), form
        sch = proto.build_schedule(table, _params())
        yield f"{name} stage-1 segment", sch.segments[0].sol, form
    sch = proto.build_schedule(prof.exponential(0.2), _params(1e-26))
    yield "tail", sch._tail.sol, (0.0, 1.0, 0.0)


def test_samples_values_are_dense_bit_for_bit():
    """`samples` returns the propagation at its samples, `dense`'s bit for
    bit: the recurrence's value at each inner piece end, `at`'s at the first
    and last, and `dense`'s from a crowded piece's start on, on joined and
    cut propagations, crowded and branch pieces, a moved anchor and the
    tail too, from the first piece start and from inside the stretch."""
    seen = {"crowded": 0, "branch": 0, "moved": 0}
    for name, sol, form in _scanned():
        for first in (sol.ts[0], sol.ts[len(sol.ts) // 2] - 1e-3):
            ts, y = sol.samples(*form, first)
            assert ts[0] >= first and np.all(np.diff(ts) > 0.0), name
            assert y.tobytes() == sol.dense(ts).tobytes(), name
        seen["crowded"] += len(ts) > np.count_nonzero(sol.ts >= first)
        seen["branch"] += bool(sol._branch.any())
        seen["moved"] += bool(np.any(sol._o != sol.ts[:-1]))
    assert min(seen.values()) >= 1, seen


@pytest.mark.parametrize("case", ["exp", "exp_point", "gauss", "resumed",
                                  "gauss_resumed"])
def test_peak_scan_reads_the_schedules_values(case):
    """The peak scan's samples run from its start to the horizon, every
    segment end among them, and each takes the stage and dense value
    `_sampled` gives it: the slope is `_slope`'s bit for bit."""
    sch = _resumed_analytic() if case == "gauss_resumed" else _schedule(case)
    first = sch.tau_c + 1e-6 * max(sch.tau_c, min(sch.horizon - sch.tau_c,
                                                  1.0))
    ts, stages, b = proto._peak_samples(sch, first)
    assert ts[0] == first and ts[-1] == sch.horizon
    assert np.all(np.diff(ts) > 0.0)
    assert set(sch.breakpoints()[1:]) <= set(ts.tolist())
    want_stages, want_b, _ = sch._sampled(ts)
    assert np.array_equal(stages, want_stages)
    assert b.tobytes() == want_b.tobytes()
    assert proto._slope(sch, ts, stages, b).tobytes() \
        == proto._slope(sch, ts, *sch._sampled(ts)[:2]).tobytes()


@pytest.mark.parametrize("case", ["exp_point", "gauss", "twin", "faint",
                                  "resumed", "delayed", "exp_tail",
                                  "gauss_tail"])
def test_scans_call_dense_only_on_crowded_pieces(case, monkeypatch):
    """Work-count guard: the threshold, violation and peak scans read the
    propagation's own values at the piece ends and call `dense` only on a
    crowded piece's 64 samples from its start: never on the operating
    points, the benchmark's tables or the double hump, which have no
    crowded piece, and on 64 samples per crowded piece on the delayed
    table. At kappa_i = 1e-26 the peak lies past the horizon, and the
    tail's scan reads its own values too: no call, and the same peaks bit
    for bit."""
    profile, params = {
        "exp_point": (prof.exponential(0.036), _params()),
        "gauss": (prof.gaussian(r=0.1533, n=4), _params()),
        "delayed": (_delayed_table(), _params()),
        "exp_tail": (prof.exponential(0.2), _params(1e-26)),
        "gauss_tail": (prof.gaussian(r=0.1533, n=4), _params(1e-26)),
    }.get(case) or _table_case(case)
    calls, dense = [], proto._ExactLinear.dense
    monkeypatch.setattr(proto._ExactLinear, "dense", lambda sol, t: (
        calls.append(len(t)), dense(sol, t))[1])
    peaks = proto._local_maxima(proto.build_schedule(profile, params))
    if case == "delayed":
        assert calls and all(n % 64 == 0 for n in calls)
    else:
        assert calls == []
    want = {"exp_tail": [(291.65432880250063, 0.9295160030897801)],
            "gauss_tail": [(38.43584032927007, 0.9998085642683066)]}
    if case in want:
        assert [(t.hex(), f.hex()) for t, f in peaks] \
            == [(t.hex(), f.hex()) for t, f in want[case]]


def test_cut_owns_its_arrays():
    """A cut propagation copies its pieces: its arrays and series rows own
    their data, so none keeps the whole propagation alive, and it gives
    the values a cut of views of the whole gives, bit for bit."""
    for case in ("exp_point", "resumed"):
        for seg in _schedule(case).segments[:-1]:
            sol = seg.sol
            assert all(x.base is None for x in (sol.ts, sol._y, sol._lo,
                                                sol._o, sol._branch, *sol._d))
    table = _ci_zero_run_table()
    whole = proto._ExactLinear.join(list(proto._ExactLinear.stage1(
        table, 1e-4, 0.0, 0.0, 0.0, float(table.taus[-1]))))
    n = len(whole.ts) // 2
    end = 0.5 * (whole.ts[n - 1] + whole.ts[n])
    views = proto._ExactLinear(
        np.append(whole.ts[:n], end), whole._y[:n], whole._lo[:n],
        [row[:n] for row in whole._d], whole._g, whole._o[:n],
        whole._branch[:n])
    cut = whole.cut(n, end)
    probes = np.concatenate([views.ts, np.linspace(0.0, end, 1001)])
    assert cut.dense(probes).tobytes() == views.dense(probes).tobytes()
    assert [cut.at(t) for t in probes.tolist()] \
        == [views.at(t) for t in probes.tolist()]


@pytest.mark.parametrize("n", [1, 2, 5, 27, 60])
def test_bernstein_coefficients_give_the_polynomial(n):
    """`_bernstein(n) @ f` are the Bernstein coefficients of sum_j f_j u^j:
    sum_i b_i C(n-1, i) u^i (1 - u)^(n-1-i) is the polynomial on [0, 1],
    within 1e-14 of sum_j |f_j|, and b_0, b_{n-1} are its end values."""
    f = np.random.default_rng(n).normal(size=n)
    b = proto._bernstein(n) @ f
    u = np.linspace(0.0, 1.0, 101)
    basis = np.array([math.comb(n - 1, i) * u ** i * (1.0 - u) ** (n - 1 - i)
                      for i in range(n)])
    want = np.polynomial.polynomial.polyval(u, f)
    assert np.abs(b @ basis - want).max() <= 1e-14 * np.abs(f).sum()
    assert b[0] == f[0] and abs(b[-1] - f.sum()) <= 1e-14 * np.abs(f).sum()


def _spiked_table(faint: bool, knot: int) -> prof.InputProfile:
    """`_catch_table(3, faint)` with its rates scaled by 0.995 and 0.25
    added at one knot late in the main hump: a one-knot spike that lifts
    the population to a higher, narrow peak."""
    base = _catch_table(3, faint)
    rates = base.rates * 0.995
    rates[knot] += 0.25
    return prof.tabulated(base.taus, rates)


def _assert_global_peak(sch: proto.CouplingSchedule,
                        rep: proto.TransferReport, near: bool = True):
    """F is at least the largest beta^2 on 300,001 points over [tau_c,
    horizon], less 1e-12, and (with near) tau_max lies within two grid
    steps of that point."""
    grid = np.linspace(sch.tau_c, sch.horizon, 300001)
    pop = sch.beta_sq(grid)
    j = int(pop.argmax())
    assert rep.fidelity >= pop[j] - 1e-12, (rep.tau_max, grid[j])
    if near:
        assert abs(rep.tau_max - grid[j]) <= 2.0 * (grid[1] - grid[0])


@pytest.mark.parametrize("knot", [1300, 1350])
@pytest.mark.parametrize("faint", [False, True], ids=["twin", "faint"])
def test_narrow_spike_peak_is_not_missed(faint, knot):
    """A spike one knot wide (tau = 26.0 or 27.0) raises the population
    past the main hump's peak. The report finds that peak: the slope is
    sampled where its roots are isolated on the pieces, not on a fixed
    grid, which put F at the earlier, lower peak (0.98125 instead of
    0.98607 on the twin table)."""
    table, params = _spiked_table(faint, knot), _params()
    sch = proto.build_schedule(table, params)
    assert ("feasibility_resumed" in sch.flags) == faint
    _assert_global_peak(sch, proto.peak_time_and_fidelity(table, params, sch))


def test_peak_at_the_horizon_is_not_missed():
    """A table whose last rate is far from 0, with a zero sample at its
    second knot: the population peaks early at 6e-5 (the zero sample),
    then rises to 0.78 at the horizon, where the input stops. The report
    compares the peak past the horizon too, where the population still
    rises at the horizon; it used to report the early peak. The peak is
    the horizon itself (the tail polish put it at 2.0000000000567)."""
    taus = np.linspace(0.0, 2.0, 41)
    rates = np.exp(-0.5 * ((taus - 1.0) / 0.5) ** 2)
    rates[1] = 0.0
    table, params = prof.tabulated(taus, rates / np.trapezoid(rates, taus)), \
        _params()
    sch = proto.build_schedule(table, params)
    rep = proto.peak_time_and_fidelity(table, params, sch)
    assert rep.fidelity > 0.78 and rep.tau_max == sch.horizon
    _assert_global_peak(sch, rep)


@settings(max_examples=40, deadline=None)
@given(table=narrow_tables())
def test_peak_is_the_global_maximum_on_narrow_tables(table):
    """On tables with humps down to 1.5 knot spacings wide, F is at least
    the population's maximum over [tau_c, horizon] on a fine grid."""
    params = _params()
    try:
        sch = proto.build_schedule(table, params)
        rep = proto.peak_time_and_fidelity(table, params, sch)
    except PulsecatchError:
        return
    _assert_global_peak(sch, rep, near=False)


# ---------------------------------------------------------------------------
# schedule structure
# ---------------------------------------------------------------------------

def _normalized(taus, rates) -> prof.InputProfile:
    rates = np.asarray(rates, dtype=float)
    return prof.tabulated(taus, rates / prof.total_excitation(
        prof.tabulated(taus, rates), math.inf))


def _stage2_points(sch: proto.CouplingSchedule):
    """(tau, r_in, beta^2) on 60,001 points over each stage-2 segment
    (stage 1 holds kappa = 1)."""
    for seg in sch.segments:
        if seg.stage == 2:
            taus = np.linspace(seg.t0, seg.t1, 60001)
            yield taus, prof.rate_at(sch.profile, taus), sch.beta_sq(taus)


def test_violation_inside_a_piece_is_found():
    """On a coarse table the zero-reflection law asks for kappa > 1 from
    tau 2.55 on, and again below 1 within the same knot interval: both
    piece ends pass. The violation is sought on the samples that bracket
    its roots, so stage 1 resumes there (kappa reached 9.41 at tau 2.716
    when only the piece ends were checked)."""
    profile = _normalized(
        [0, 2.51, 4.83, 5.35, 7.78, 11.67, 13.56, 14.11, 15.47, 19.28, 22.92,
         25.07], [0.002, 0, 0.949, 0, 0.117, 0.068, 0.448, 0, 0.124, 0.642,
                  0.07, 0.469])
    sch = proto.build_schedule(profile, _params())
    assert "feasibility_resumed" in sch.flags
    for taus, _, _ in _stage2_points(sch):
        assert sch.kappa(taus).max() <= 1.0 + 1e-9


@st.composite
def coarse_tables(draw):
    """4 to 11 knots spaced 0.5-4 apart and rates u^3, u in [0, 1], the
    largest u above 1e-100."""
    n = draw(st.integers(4, 11))
    gaps = draw(st.lists(st.floats(0.5, 4.0), min_size=n - 1,
                         max_size=n - 1))
    rates = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    assume(max(rates) > 1e-100)
    return np.concatenate(([0.0], np.cumsum(gaps))), np.array(rates) ** 3


@settings(max_examples=40, deadline=None)
@given(table=coarse_tables())
def test_coupling_stays_feasible_on_coarse_tables(table):
    """kappa = r_in/beta^2 <= 1 + 1e-9 on every schedule built over a
    coarse table, up to the violation's floor of 1e-13 (below it
    r_in/beta^2 is noise, as where r_in = 7e-16 and beta^2 = 2.7e-22) and
    the rounding of its polished root: r_in - (1 + 1e-9) beta^2 <= 1e-13
    + 1e-15."""
    try:
        sch = proto.build_schedule(_normalized(*table), _params())
    except PulsecatchError:
        return
    for _, rate, pop in _stage2_points(sch):
        assert (rate - (1.0 + 1e-9) * pop).max() <= 1e-13 + 1e-15


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
    """Past the horizon beta^2 is the closed form's: 10 past it, and 10
    past the tail's end U, where r_in is 0.0 and beta^2 decays; there the
    float and array calls agree bit for bit."""
    p = prof.exponential(0.5)
    sch = proto.build_schedule(p, _params(1e-3))
    tau = sch.horizon + 10.0
    assert sch.beta_sq(tau) == pytest.approx(
        cf.exp_population(0.5, 1e-3, tau), rel=1e-8)
    far = sch._tail.t1 + 10.0
    assert sch._tail.t1 > tau and prof.rate_at(p, sch._tail.t1) == 0.0
    assert sch.beta_sq(np.array([far])).tolist() == [sch.beta_sq(far)]
    assert sch.beta_sq(far) == pytest.approx(
        cf.exp_population(0.5, 1e-3, far), rel=1e-8)


@pytest.mark.parametrize("case", ["exp_point", "gauss", "resumed",
                                  "heavy_loss"])
def test_population_is_continuous_at_the_horizon(case):
    """Past the horizon beta^2 goes on from the last segment's value there
    (`CouplingSchedule._tail`): one ulp past the horizon it lies within 2
    ulp, plus its slope times that step, of the value at the horizon, on
    floats and arrays alike. They agree bit for bit 10 past the tail's end
    U too, where beta^2 decays, and match the closed form there within
    1e-14 relative; on a table (U is the horizon) and at heavy loss (where
    the closed form overflows) they equal the quadrature form `_stage2_pop`
    from the horizon."""
    sch = _schedule(case)
    h, k = sch.horizon, sch.params.kappa_i
    past = math.nextafter(h, math.inf)
    at, after = sch.beta_sq(h), sch.beta_sq(past)
    slope = prof.rate_at(sch.profile, h) + k * at
    assert abs(after - at) <= 2.0 * math.ulp(at) + slope * (past - h)
    assert sch.beta_sq(np.array([h, past])).tolist() == [at, after]
    profile, far = sch.profile, sch._tail.t1 + 10.0
    pop = sch.beta_sq(far)
    assert sch.beta_sq(np.array([h, far])).tolist() == [at, pop]
    if case in ("resumed", "heavy_loss"):
        assert pop == proto._stage2_pop(profile, k, h,
                                        sch.segments[-1].sol.at(h), far)
    elif profile.kind == prof.EXPONENTIAL:
        assert pop == pytest.approx(cf.exp_population(profile.r, k, far),
                                    rel=1e-14)
    else:
        assert pop == pytest.approx(cf.gauss_population(
            profile.sigma, profile.n, k, far), rel=1e-14)


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
    assert case == "heavy_loss"
    return proto.build_schedule(prof.exponential(0.05), _params(0.9))


class _Drained:
    """A stage-2 solution whose population is forced to 0 from t_zero on:
    a population that underflows while the input still arrives. Its pieces
    and series (`ts`, `_branch`, the rows the report reads) are those of
    the solution it wraps."""

    def __init__(self, sol, t_zero: float):
        self.sol, self.t_zero = sol, t_zero

    def __getattr__(self, name: str):
        return getattr(self.sol, name)

    def at(self, t: float) -> float:
        return 0.0 if t >= self.t_zero else self.sol.at(t)

    def dense(self, t: np.ndarray) -> np.ndarray:
        return np.where(t >= self.t_zero, 0.0, self.sol.dense(t))


def _drained(sch: proto.CouplingSchedule) -> proto.CouplingSchedule:
    """`sch` with the population of its last segment forced to 0 from the
    middle of that segment on, where the coupling law is singular."""
    last = sch.segments[-1]
    seg = proto._Segment(2, last.t0, last.t1,
                         _Drained(last.sol, 0.5 * (last.t0 + last.t1)))
    return dataclasses.replace(sch, segments=sch.segments[:-1] + (seg,))


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
    # a 2-D array keeps its shape, each value the 1-D array's
    rows = got[:len(taus) // 2 * 2].reshape(2, -1)
    grid = getattr(sch, method)(taus[:rows.size].reshape(rows.shape))
    assert grid.shape == rows.shape and np.array_equal(grid, rows)


def _same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("case", ["exp_point", "gauss", "resumed"])
def test_float_dense_output_is_bitwise_scipy(case):
    """Every segment, analytic or tabulated, is an exact propagation whose
    float evaluator equals scipy's OdeSolution over its pieces
    (`test_batched.odesolution`) and the array evaluator bit for bit, sign
    bits included, at every piece end, the segment ends, one ulp either
    side of each and between pieces. At every tenth piece end of stage 1 it
    lies within 2^-52 max(1, |beta|) of `_stage1_beta_quad` from the
    segment's start."""
    sch = _schedule(case)
    for seg in sch.segments:
        assert isinstance(seg.sol, proto._ExactLinear)
        ts = seg.sol.ts
        knots = np.concatenate([ts, [seg.t0, seg.t1]])
        probes = np.concatenate([knots, np.nextafter(knots, -np.inf),
                                 np.nextafter(knots, np.inf),
                                 0.5 * (ts[1:] + ts[:-1])])
        ref = odesolution(seg.sol)
        got = seg.sol.dense(probes).tolist()
        for t, v in zip(probes.tolist(), got):
            assert _same_float(seg.sol.at(t), float(ref(t)[0])), (seg.stage, t)
            assert _same_float(seg.sol.at(t), v), (seg.stage, t)
        if seg.stage == 1:
            for t in ts[::10].tolist() + [seg.t1]:
                want = proto._stage1_beta_quad(sch.profile, sch.params.kappa_i,
                                               seg.t0, seg.sol.at(seg.t0), t)
                assert abs(seg.sol.at(t) - want) <= _EPS * max(1.0, abs(want)), t


def test_table_ending_at_zero():
    # PCHIP rounds to -1.4e-17 at the last knot; math.sqrt of it in the
    # stage-1 right-hand side used to raise "math domain error".
    taus = [0.0, 3.225580565561099, 6.451161131122198]
    p = prof.tabulated(taus, [0.19930189806940551, 0.18743571933252437, 0.0])
    from scipy.interpolate import PchipInterpolator
    want = float(PchipInterpolator(taus, p.rates)(taus[-1]))
    assert want < 0.0 and p._interp.at(taus[-1]) == want
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
    sch = _drained(_schedule("heavy_loss"))
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
    """Every evaluator rejects tau < 0 (`stage2_kappa`: tau < tau_c) on a
    float and in an array; `beta` used to extrapolate the first DOP853
    step there."""
    sch = _schedule("exp")
    for method in _SCHEDULE_METHODS:
        for tau in (-1.0, np.array([-1.0]), np.array([1.0, -1e-3])):
            with pytest.raises(DomainError, match=f"{method} requires tau"):
                getattr(sch, method)(tau)
    for tau in (0.5 * sch.tau_c, np.array([sch.tau_c, 0.5 * sch.tau_c])):
        with pytest.raises(DomainError, match="tau >= tau_c"):
            sch.stage2_kappa(tau)


def test_stage_is_the_law_of_the_segment_holding_each_tau():
    """`stage` reads the segments: 2 from tau_c on, 1 again in the resumed
    stage-1 window, 2 past the horizon; a float or 0-d tau gives an int."""
    sch = _schedule("resumed")
    taus = _probe_taus(sch)
    want = [sch._segment_at(t).stage for t in taus.tolist()]
    got = sch.stage(taus)
    assert got.tolist() == want
    resumed = sch.segments[2]
    assert resumed.stage == 1 and resumed.t0 > sch.tau_c
    assert np.array_equal(got == 2, (taus >= sch.tau_c) & ~(
        (taus >= resumed.t0) & (taus < resumed.t1)))
    order = np.random.default_rng(11).permutation(len(taus))
    assert np.array_equal(sch.stage(taus[order]), got[order])
    for t in (0.5 * sch.tau_c, sch.tau_c, 0.5 * (resumed.t0 + resumed.t1),
              sch.horizon + 1.0):
        one = sch.stage(t)
        assert type(one) is int and one == sch.stage(np.float64(t).reshape(()))
        assert one == sch._segment_at(t).stage
    for tau in (-1.0, np.array([1.0, -1e-3])):
        with pytest.raises(DomainError, match="stage requires tau >= 0"):
            sch.stage(tau)


def test_peak_in_a_stage1_segment_is_polished_on_the_slope():
    """A schedule held at kappa = 1 throughout: its one peak lies in a
    stage-1 segment, so `_local_maxima` polishes it on the slope. For an
    exponential input beta = -sqrt(r) (e^{-r t/2} - e^{-a t})/(a - r/2),
    a = (1 + kappa_i)/2, peaks at t* = ln(2a/r)/(a - r/2)."""
    r, ki = 0.5, 1e-3
    p = prof.exponential(r)
    sch = proto.build_schedule(p, _params(ki))
    sol = proto._ExactLinear.join(list(proto._ExactLinear.stage1(
        p, ki, 0.0, 0.0, 0.0, sch.horizon)))
    held = dataclasses.replace(sch, segments=(
        proto._Segment(1, 0.0, sch.horizon, sol),))
    (tau, f), = proto._local_maxima(held)
    a = 0.5 * (1.0 + ki)
    t_star = math.log(2.0 * a / r) / (a - 0.5 * r)
    beta = -math.sqrt(r) * (math.exp(-0.5 * r * t_star) - math.exp(-a * t_star)) \
        / (a - 0.5 * r)
    assert tau == pytest.approx(t_star, abs=1e-12)
    assert f == sol.at(tau) ** 2 == pytest.approx(beta * beta, abs=1e-14)
    rep = proto.peak_time_and_fidelity(p, _params(ki), held)
    assert (rep.tau_max, rep.fidelity) == (tau, f)
    total = (rep.fidelity + rep.loss_stage1_reflection + rep.loss_intrinsic
             + rep.loss_unabsorbed)
    assert total == pytest.approx(1.0, abs=1e-8)


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


@pytest.mark.parametrize("pulse, ki", [
    *[(f"gauss:sigma={s}", 1e-4) for s in ("1e-9", "1e-8", "1e-7", "1e-6",
                                           "1e-5")],
    ("gauss:sigma=1e-9", 1e-26), ("gauss:sigma=1e-9", 0.0),
    ("exp:r=1e9", 1e-4), ("exp:r=1e7", 1e-4), ("exp:r=1e9", 1e-26)])
def test_narrow_pulses_give_a_report(pulse, ki):
    """Pulses far narrower than the memory's time scale: the peak search
    starts inside (tau_c, H) and the tail's window is H - tau_c wide, where
    1e-6 max(tau_c, 1) and a window of at least 1 used to leave the search
    past the peak and the tail with about 1/(sigma/4) pieces (a multi-GiB
    allocation). The peak lies in (tau_c, H), past H at kappa_i = 1e-26 and
    at infinity without loss; a Gaussian's report agrees with the closed
    forms, whose absolute xtol is 1e-14."""
    p = prof.parse_profile(pulse)
    sch = proto.build_schedule(p, _params(ki))
    rep = proto.peak_time_and_fidelity(p, _params(ki), sch)
    total = (rep.fidelity + rep.loss_stage1_reflection + rep.loss_intrinsic
             + rep.loss_unabsorbed)
    assert total == pytest.approx(1.0, abs=1e-8)
    if ki == 0.0:
        assert rep.tau_max == math.inf
    elif ki == 1e-26:
        assert rep.tau_max > sch.horizon
    else:
        assert sch.tau_c < rep.tau_max < sch.horizon
    if p.kind == prof.GAUSSIAN and ki > 0.0:
        tau_max, fid = cf.gauss_report(p.sigma, p.n, ki)
        assert rep.tau_max == pytest.approx(tau_max, rel=1e-6)
        assert rep.fidelity == pytest.approx(fid, rel=1e-6)


def test_oversized_grids_are_domain_errors():
    """An input whose pieces would number over 2^20 in one grid raises
    DomainError before the grid is built, in a fresh interpreter capped at
    2 GB of address space: stage 2 of slow exponentials (1e7 pieces at r =
    1e-9, 1e298 at 1e-300) and a slow Gaussian at kappa_i = 1e-4, and the
    stage-1 cuts of a table with knots 1e9 apart (2e9 pieces). Each used to
    end in a MemoryError or numpy's size ValueError."""
    code = textwrap.dedent("""\
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))
        from pulsecatch import profiles as prof, protocol as proto
        for text in sys.argv[1:]:
            p = prof.tabulated([0.0, 1e9, 2e9], [0.0, 7.5e-10, 0.0]) \\
                if text == "table" else prof.parse_profile(text)
            try:
                proto.build_schedule(p, prof.MemoryParams(kappa_i=1e-4))
                print("built")
            except Exception as exc:
                print(type(exc).__name__, exc)
        """)
    src = str(Path(proto.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    inputs = ["exp:r=1e-9", "exp:r=1e-10", "gauss:r=1e-10", "exp:r=1e-300",
              "table"]
    proc = subprocess.run([sys.executable, "-c", code, *inputs],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(inputs)
    for line in lines:
        assert line.startswith("DomainError "), line
        assert "more than 1,048,576" in line and len(line) < 120, line


def test_unpickled_table_reports_as_made():
    """A table pickled before its cubic is built and unpickled in a fresh
    interpreter that never calls `tabulated` builds the cubic on first use
    and evaluates, schedules and reports as the table it was pickled from,
    bit for bit."""
    values = textwrap.dedent("""\
        def values(p):
            ts = [0.0, 0.013, 4.2, 17.0, 29.99, 30.0, 31.0]
            params = prof.MemoryParams(kappa_i=1e-4)
            rep = proto.peak_time_and_fidelity(
                p, params, proto.build_schedule(p, params))
            return repr([[prof.rate_at(p, t) for t in ts],
                         prof.rate_at(p, np.array(ts)).tolist(),
                         [prof.cumulative(p, t) for t in ts],
                         prof.cumulative(p, np.array(ts)).tolist(),
                         dataclasses.astuple(rep)])
        """)
    code = textwrap.dedent("""\
        import dataclasses, pickle, sys
        import numpy as np
        from pulsecatch import profiles as prof, protocol as proto
        p = pickle.loads(sys.stdin.buffer.read())
        assert "scipy.interpolate" not in sys.modules
        """) + values + "print(values(p))\n"
    p = _catch_table(3, faint=True)
    assert "_interp" not in p.__dict__
    src = str(Path(proto.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(p),
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    here = {"dataclasses": dataclasses, "np": np, "prof": prof, "proto": proto}
    exec(values, here)
    assert proc.stdout.decode().strip() == here["values"](p)


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
