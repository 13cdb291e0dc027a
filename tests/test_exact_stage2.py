"""A table's stage 2 is propagated exactly over its PCHIP pieces.

`protocol._ExactLinear.stage2` solves beta^2' = r_in - kappa_i beta^2 in
closed form on each piece, where r_in is a cubic. Its knot values are
checked against the quadrature oracle `stage2_population` and, without
loss, against the antiderivative `cumulative`; its float and array
evaluations against each other; its violation times against the
knot-aligned DOP853 solve it replaced (scipy's `DOP853`, its bound moved
from knot to knot). No build, analytic or tabulated, steps an ODE.
"""
from __future__ import annotations

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import DOP853
from scipy.optimize import brentq

from pulsecatch import profiles as prof
from pulsecatch import protocol as proto
from test_batched import narrow_tables
from test_protocol import (_catch_table, _coarse_table, _double_hump,
                           _refuse_ode)

# solve_ivp's tolerances in the DOP853 reference solves
_RTOL, _ATOL = 1e-12, 1e-14


def _params(kappa_i: float = 1e-4) -> prof.MemoryParams:
    return prof.MemoryParams(kappa_i=kappa_i)


def _tables():
    yield "faint", _catch_table(3, faint=True)
    yield "twin", _catch_table(3, faint=False)
    yield "coarse", _coarse_table(0)[0]


def _propagate(profile: prof.InputProfile, k: float, share: float = 0.37):
    """The exact stage 2 from a point `share` of the way along the table to
    its end, and its values at its piece ends."""
    t0 = float(profile.taus[0]) + share * float(profile.taus[-1]
                                                - profile.taus[0])
    return t0, *proto._ExactLinear.stage2(
        profile, k, t0, prof.rate_at(profile, t0), float(profile.taus[-1]))


@settings(max_examples=25, deadline=None)
@given(table=narrow_tables(), share=st.floats(0.0, 0.9))
@pytest.mark.parametrize("kappa_i", [0.0, 1e-3, 0.5])
def test_knot_values_match_quadrature(kappa_i, table, share):
    """Every piece-end value lies within 1e-13 max(1, beta^2) of
    `stage2_population`, on tables of 1 to 81 uneven knot intervals, where
    at kappa_i = 0.5 a long interval is cut into pieces."""
    t0, sol, ys = _propagate(table, kappa_i, share)
    knots = table.taus[(table.taus > t0) & (table.taus < table.taus[-1])]
    assert np.isin(knots, sol.ts).all()
    for t, y in zip(sol.ts.tolist(), ys):
        want = proto.stage2_population(table, _params(kappa_i), t0, t)
        assert abs(y - want) <= 1e-13 * max(1.0, want), (t, y, want)


def test_long_pieces_are_cut():
    """A piece longer than 1/(2 kappa_i) is cut into equal parts, so that
    the series in kappa_i v stay short and exact."""
    taus = np.linspace(0.0, 20.0, 3)
    table = prof.tabulated(taus, [0.0, 0.1, 0.0])
    t0, sol, ys = _propagate(table, 0.5, share=0.0)
    assert len(sol.ts) == 21 and np.all(np.diff(sol.ts) <= 1.0)
    assert np.isin(taus, sol.ts).all()
    for t, y in zip(sol.ts.tolist(), ys):
        want = proto.stage2_population(table, _params(0.5), t0, t)
        assert abs(y - want) <= 1e-15


@pytest.mark.parametrize("name, table", list(_tables()))
def test_lossless_propagation_is_the_antiderivative(name, table):
    """At kappa_i = 0, beta^2 - beta^2(t0) at each knot equals the
    difference of `cumulative` to rounding."""
    t0, sol, ys = _propagate(table, 0.0)
    grown = np.array(ys) - ys[0]
    cum = prof.cumulative(table, sol.ts) - prof.cumulative(table, t0)
    assert np.abs(grown - cum).max() <= 1e-14


def _probes(sol) -> np.ndarray:
    ts = sol.ts
    return np.concatenate([ts, 0.5 * (ts[1:] + ts[:-1]),
                           np.nextafter(ts, -np.inf), np.nextafter(ts, np.inf),
                           [ts[0] - 1.0, ts[-1] + 1.0]])


@pytest.mark.parametrize("kappa_i", [0.0, 1e-4, 0.5])
@pytest.mark.parametrize("name, table", list(_tables()))
def test_float_and_array_evaluations_agree(name, table, kappa_i):
    """`at` on each float equals `dense` on the array with `==`, at the
    piece ends, the midpoints, one ulp either side of the ends and outside
    the stretch; at a piece end both give the recurrence's value."""
    _, sol, ys = _propagate(table, kappa_i)
    probes = _probes(sol)
    assert [sol.at(t) for t in probes.tolist()] == sol.dense(probes).tolist()
    assert sol.dense(sol.ts).tolist() == ys
    assert sol.dense(probes[::-1]).tolist() == sol.dense(probes).tolist()[::-1]


@pytest.mark.parametrize("case", ["faint", "twin", "resumed", "coarse"])
def test_schedule_segments_agree(case):
    """In a table schedule, each stage-2 segment is exact, its float and
    array evaluations agree at its piece ends, midpoints and segment ends,
    and every tenth knot value and its end lie within 5e-16 of
    `stage2_population`: the recurrence carries its rounding errors, so
    they do not build up over the 1,500 knots."""
    if case == "resumed":
        profile, params = _double_hump(), _params()
    elif case == "coarse":
        profile, params = _coarse_table(0)
    else:
        profile, params = _catch_table(3, faint=case == "faint"), _params()
    sch = proto.build_schedule(profile, params)
    stage2 = [seg for seg in sch.segments if seg.stage == 2]
    assert stage2
    for seg in stage2:
        assert isinstance(seg.sol, proto._ExactLinear)
        assert (seg.sol.ts[0], seg.sol.ts[-1]) == (seg.t0, seg.t1)
        probes = np.concatenate([_probes(seg.sol), [seg.t0, seg.t1]])
        assert [seg.sol.at(t) for t in probes.tolist()] \
            == seg.sol.dense(probes).tolist()
        for t in seg.sol.ts[::10].tolist() + [seg.t1]:
            want = proto.stage2_population(profile, params, seg.t0, t)
            assert abs(seg.sol.at(t) - want) <= 5e-16, t


def _knot_aligned_steps(fun, t0, y0, end, breaks):
    """(t, y, dense) of scipy's `DOP853` with `solve_ivp`'s tolerances,
    its bound moved from break to break: each step ends at every break, and
    stepping runs on across it with the step size it has."""
    bounds = [b for b in breaks if t0 < b < end] + [float(end)]
    solver = DOP853(lambda t, y: [fun(t, y[0])], float(t0), [y0], bounds[0],
                    rtol=_RTOL, atol=_ATOL)
    for bound in bounds:
        solver.t_bound, solver.status = bound, "running"
        while solver.status == "running":
            t_last = solver.t
            solver.step()
            assert solver.status != "failed"
            if solver.t != t_last:
                yield solver.t, float(solver.y[0]), solver.dense_output()


def _knot_aligned_violation(profile, kappa_i, tau_c, end):
    """The violation time of the knot-aligned DOP853 stage-2 solve that the
    exact propagation replaced: solve_ivp's event rule on its steps."""
    def violation(t, y):
        return (1.0 + 0.5 * proto._KAPPA_SLACK) * y \
            - prof.rate_at(profile, t) + 1e-13

    y0 = prof.rate_at(profile, tau_c)
    g = violation(tau_c, y0)
    for t, y, dense in _knot_aligned_steps(
            lambda t, y: prof.rate_at(profile, t) - kappa_i * y, tau_c, y0,
            end, prof._interior_breaks(profile, tau_c, end)):
        g_new = violation(t, y)
        if g >= 0.0 >= g_new:
            return brentq(lambda s: violation(s, dense(s)[0]), dense.t_old, t,
                          xtol=4 * proto._EPS, rtol=4 * proto._EPS)
        g = g_new
    return None


@pytest.mark.parametrize("case", ["faint", "resumed", "seed_5", "seed_8"])
def test_violation_matches_knot_aligned_dop853(case):
    """Each feasibility violation lies within 1e-12 of the one the
    knot-aligned DOP853 solve finds from the same threshold."""
    if case == "resumed":
        profile = _double_hump()
    else:
        seed = 3 if case == "faint" else int(case.split("_")[1])
        profile = _catch_table(seed, faint=True)
    params = _params()
    sch = proto.build_schedule(profile, params)
    assert "feasibility_resumed" in sch.flags
    for seg, nxt in zip(sch.segments, sch.segments[1:]):
        if seg.stage == 2:
            old = _knot_aligned_violation(profile, params.kappa_i, seg.t0,
                                          sch.horizon)
            assert old is not None and abs(seg.t1 - old) <= 1e-12
            assert nxt.t0 == seg.t1


@pytest.mark.parametrize("profile", [prof.exponential(0.036),
                                     prof.exponential(0.5),
                                     prof.gaussian(r=0.1533, n=4)],
                         ids=["exp_point", "exp", "gauss"])
def test_analytic_schedules_make_no_ode_solve(profile, monkeypatch):
    """An analytic schedule steps no ODE: its two segments are exact
    propagations, stage 1 the threshold scan's cut at tau_c and stage 2
    from r_in(tau_c) to the horizon, on equal pieces (cut further where the
    series needs it) with kappa_i h <= 1/2."""
    _refuse_ode(monkeypatch)
    params = _params()
    sch = proto.build_schedule(profile, params)
    assert [seg.stage for seg in sch.segments] == [1, 2]
    assert all(isinstance(seg.sol, proto._ExactLinear) for seg in sch.segments)
    first, second = sch.segments
    assert (first.sol.ts[0], first.sol.ts[-1]) == (0.0, sch.tau_c)
    assert (second.sol.ts[0], second.sol.ts[-1]) == (sch.tau_c, sch.horizon)
    assert second.sol._y[0] == prof.rate_at(profile, sch.tau_c)
    assert np.all(params.kappa_i * np.diff(second.sol.ts) <= 0.5)


@pytest.mark.parametrize("faint", [True, False], ids=["faint", "twin"])
def test_table_stage2_makes_no_rhs_call(faint, monkeypatch):
    """A table's stage 2 calls no ODE right-hand side: its schedule makes
    no DOP853 solve at all, and the stage-2 solve evaluates r_in once on
    the array of its piece ends, once at tau_c, and otherwise only in the
    violation's root polish."""
    profile, params = _catch_table(3, faint=faint), _params()
    _refuse_ode(monkeypatch)
    sch = proto.build_schedule(profile, params)

    rate, calls = prof.rate_at, []

    def counted(p, tau):
        calls.append(np.ndim(tau))
        return rate(p, tau)

    monkeypatch.setattr(prof, "rate_at", counted)
    brentq_calls = []
    monkeypatch.setattr(proto, "brentq", lambda f, *args, **kw: (
        brentq_calls.append(1), brentq(f, *args, **kw))[1])
    sol, violation = proto._integrate_stage2(profile, params.kappa_i,
                                             sch.segments[1].t0, sch.horizon)
    assert (violation is not None) == faint == bool(brentq_calls)
    assert calls.count(1) == 1
    if not faint:
        assert calls == [0, 1]


def _tail_table() -> prof.InputProfile:
    """A table cut off at a nonzero rate (3.2e-3 at its last knot), so that
    the population peaks at its horizon, where the input stops."""
    rng = np.random.default_rng(147)
    gaps = rng.uniform(0.25, 1.0, 41)
    taus = 5.0 + np.concatenate(([0.0], np.cumsum(gaps))) * 23.0 / gaps.sum()
    rates = np.exp(-0.5 * ((taus - rng.uniform(12.0, 26.0))
                           / rng.uniform(1.5, 5.0)) ** 2)
    return prof.tabulated(taus, rates / np.trapezoid(rates, taus))


def test_past_horizon_loss_tail_is_quiet():
    """The intrinsic loss past the horizon is the tail's closed integral:
    a table's input stops there, so beta^2 decays from its value at the
    horizon. No quadrature runs (a full-window quadrature at each node once
    made quad warn here; pytest turns IntegrationWarning into an error).
    The report takes the peak at the horizon itself, where the input stops
    (a tail polish once put it 1e-10 past), so the losses are also taken to
    1 past the horizon."""
    profile, params = _tail_table(), _params(1e-3)
    assert profile.rates[-1] > 1e-3
    sch = proto.build_schedule(profile, params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = proto.peak_time_and_fidelity(profile, params, sch)
        past = proto._losses(sch, sch.horizon + 1.0)[1]
    assert rep.tau_max == sch.horizon
    total = (rep.fidelity + rep.loss_stage1_reflection + rep.loss_intrinsic
             + rep.loss_unabsorbed)
    assert abs(total - 1.0) <= 1e-14
    assert math.isfinite(rep.loss_intrinsic) and rep.loss_intrinsic > 0.0
    assert math.isfinite(past) and past > rep.loss_intrinsic



def _stage2_loss(sch: proto.CouplingSchedule, sol: proto._ExactLinear):
    """`_losses`' intrinsic loss of a schedule whose one segment is sol, a
    stage-2 propagation, over all its pieces."""
    t0, t1 = float(sol.ts[0]), float(sol.ts[-1])
    alone = SimpleNamespace(profile=sch.profile, params=sch.params,
                            horizon=math.inf, segments=(SimpleNamespace(
                                t0=t0, t1=t1, stage=2, sol=sol),))
    return proto._losses(alone, t1)[1]



@pytest.mark.parametrize("profile", [prof.exponential(0.036),
                                     prof.gaussian(r=0.1533, n=4)],
                         ids=["exp", "gauss"])
def test_stage2_piece_loss_is_the_same_alone_or_in_a_batch(profile):
    """A stage-2 piece's loss integral sums its series' terms in term order,
    so it does not depend on the pieces beside it (numpy's sum along the
    terms is pairwise for one piece and row by row for a batch). With y = 0
    a piece's integral is its terms' sum: each piece of an analytic stage 2
    (over 20 terms) gives the same loss bit for bit alone and in the batch
    of all pieces, the others' rows 0."""
    sch = proto.build_schedule(profile, _params(1e-3))
    sol = next(seg.sol for seg in sch.segments if seg.stage == 2)
    n = len(sol.ts) - 1
    assert len(sol._a()) > 20

    def bare(i: int, j: int, d: list[np.ndarray]) -> proto._ExactLinear:
        return proto._ExactLinear(sol.ts[i:j + 1], [0.0] * (j - i),
                                  [0.0] * (j - i), d, sol._g)

    for i in range(n):
        alone = bare(i, i + 1, [row[i:i + 1] for row in sol._d])
        batch = bare(0, n, [np.where(np.arange(n) == i, row, 0.0)
                            for row in sol._d])
        assert _stage2_loss(sch, alone) == _stage2_loss(sch, batch)
