"""The batched table quadrature and the stacked dense output equal scipy's
routes bit for bit.

`profiles._quad_chunked` settles every chunk that QUADPACK's first pass
would accept with one vectorized dqk21 pass, when its caller also gives the
integrand on arrays (tabulated profiles only); `protocol._dense_output`
evaluates a DOP853 OdeSolution on arrays from one stacked table of its
steps. Each is compared with `==` against the scalar route it replaces.
"""
from __future__ import annotations

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import OdeSolution, quad
from scipy.integrate._ivp.rk import Dop853DenseOutput

from pulsecatch import profiles as prof
from pulsecatch import protocol as proto
from pulsecatch.errors import PulsecatchError

KAPPA_I = 1e-4


@contextlib.contextmanager
def _scalar_route():
    """Every `_quad_chunked` call without its array integrand: one `quad`
    call per chunk, the route the batched pass replaces."""
    batched = prof._quad_chunked
    prof._quad_chunked = lambda f, a, b, breaks, epsabs=1e-12, fv=None: \
        batched(f, a, b, breaks, epsabs)
    try:
        yield
    finally:
        prof._quad_chunked = batched


@contextlib.contextmanager
def _quad_calls():
    """The (a, b) of every `quad` call `profiles` makes inside the block."""
    calls = []
    inner = prof.quad

    def counted(f, a, b, *args, **kwargs):
        calls.append((a, b))
        return inner(f, a, b, *args, **kwargs)

    prof.quad = counted
    try:
        yield calls
    finally:
        prof.quad = inner


@st.composite
def narrow_tables(draw):
    """Multi-hump tables with 1, 40, 41 or 81 knot intervals (around the
    40-interval chunk of `_quad_chunked`), uneven knot spacing and humps
    down to 1.5 mean knot spacings wide."""
    n = draw(st.sampled_from([1, 40, 41, 81]))
    gaps = np.array(draw(st.lists(st.floats(0.25, 1.0), min_size=n,
                                  max_size=n)))
    start = draw(st.floats(0.0, 5.0))
    span = draw(st.floats(2.0, 30.0))
    taus = start + np.concatenate(([0.0], np.cumsum(gaps))) * (span / gaps.sum())
    rates = np.zeros(n + 1)
    for _ in range(draw(st.integers(1, 3))):
        centre = draw(st.floats(start, start + span))
        width = draw(st.floats(1.5, 8.0)) * span / n
        rates += draw(st.floats(0.05, 1.0)) \
            * np.exp(-0.5 * ((taus - centre) / width) ** 2)
    return prof.tabulated(taus, rates / np.trapezoid(rates, taus))


def _two_hump(faint: bool) -> prof.InputProfile:
    """A tabulated two-hump pulse like the benchmark's: knots every 0.02 on
    [0, 30]; a faint early hump makes the schedule resume stage 1."""
    taus = np.linspace(0.0, 30.0, 1501)
    a1 = 0.03 if faint else 0.45
    rates = a1 * np.exp(-0.5 * ((taus - 4.1) / 1.05) ** 2) \
        + (1.0 - a1) * np.exp(-0.5 * ((taus - 19.7) / 1.1) ** 2)
    return prof.tabulated(taus, rates / np.trapezoid(rates, taus))


def _quadratures(table: prof.InputProfile, a: float, b: float):
    """Every quadrature form that takes the batched route on a table, and
    the warnings quad gives on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = [prof._quad_rate(table, a, b),
                  prof.total_excitation(table, b),
                  proto._stage1_beta_quad(table, KAPPA_I, a, -0.3, b),
                  proto._stage1_beta_quad(table, 0.5, a, 0.0, b, epsabs=1e-13),
                  proto._stage2_pop(table, KAPPA_I, a, 0.2, b),
                  proto._stage2_pop(table, 0.0, a, 0.0, b)]
    return values, [str(w.message) for w in caught]


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_kronrod_nodes_are_quads():
    """quad's 21 nodes on [-1, 1], in the order QUADPACK's dqk21 evaluates
    and sums them: the centre, then each pair of `_XGK_SUM`."""
    nodes = []
    quad(lambda x: nodes.append(x) or x * x, -1.0, 1.0)
    pairs = [v for x in prof._XGK_SUM[:, 0].tolist() for v in (-x, x)]
    assert nodes == [0.0] + pairs
    assert sorted(prof._XGK.tolist()) == sorted(abs(v) for v in nodes[::2])


@pytest.mark.parametrize("name", ["smooth", "oscillating", "kink", "table"])
def test_qk21_is_quadpacks_per_interval(name):
    """Each interval's dqk21 result and abserr equal QUADPACK's first-pass
    rlist and elist bit for bit, wherever quad stops after that pass."""
    table = _two_hump(False)
    f = {"smooth": lambda s: math.exp(-s * s) * math.cos(3.0 * s),
         "oscillating": lambda s: math.sin(40.0 * s) / (1.0 + s),
         "kink": lambda s: math.sqrt(abs(s - 1.7)) + 1e-3 * s ** 3,
         "table": lambda s: prof.rate_at(table, s)}[name]
    fv = lambda s: np.array([f(t) for t in s.tolist()])
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(40):
        gaps = rng.uniform(0.02, 0.3, rng.integers(1, 40))
        edges = rng.uniform(0.0, 20.0) + np.concatenate(([0.0], np.cumsum(gaps)))
        result, abserr, _ = prof._qk21(fv, edges[:-1], edges[1:])
        info = quad(f, edges[0], edges[-1], points=edges[1:-1], full_output=1,
                    limit=200, epsabs=1e-9, epsrel=1e-9)[2]
        nint = len(edges) - 1
        if info["last"] == nint and not info["ndin"][:nint].any():
            assert result == info["rlist"][:nint].tolist()
            assert abserr == info["elist"][:nint].tolist()
            checked += 1
    assert checked >= 10


@settings(max_examples=40, deadline=None)
@given(table=narrow_tables(), cut=st.tuples(st.floats(0.0, 1.0),
                                            st.floats(0.0, 1.0)))
@example(table=prof.tabulated([0.0, 1.0], [1.0, 1.0]), cut=(0.0, 1.0))
def test_batched_quadratures_equal_scalar_route(table, cut):
    """Each table quadrature, over the whole table and over a window that
    may start before or end past it, equals the `quad` route with `==` and
    warns alike."""
    lo, hi = float(table.taus[0]), float(table.taus[-1])
    a = min(cut) * (hi + 1.0)
    b = a + (max(cut) - min(cut)) * (hi + 1.0 - a)
    for window in ((lo, hi), (a, b)):
        batched = _quadratures(table, *window)
        with _scalar_route():
            assert batched == _quadratures(table, *window), window


@settings(max_examples=20, deadline=None)
@given(table=narrow_tables())
def test_batched_losses_equal_scalar_route(table):
    """The loss budget's reflection and intrinsic integrals (dense output
    on arrays) and the whole report equal the `quad` route with `==`, and
    quad warns in both routes alike."""
    params = prof.MemoryParams(kappa_i=1e-3)
    try:
        sch = proto.build_schedule(table, params)
    except PulsecatchError:
        return
    ends = [sch.horizon, 0.5 * (sch.tau_c + sch.horizon), sch.tau_c]

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            losses = [proto._losses(sch, t) for t in ends]
            try:
                report = proto.peak_time_and_fidelity(table, params, sch)
            except PulsecatchError as exc:
                report = repr(exc)
        return losses, report, [str(w.message) for w in caught]

    batched = run()
    with _scalar_route():
        assert batched == run()


@pytest.mark.parametrize("faint", [True, False], ids=["faint", "twin"])
def test_benchmark_like_tables_settle_in_the_first_pass(faint):
    """On benchmark-like tables no chunk falls back to quad, and the
    schedule and report equal the `quad` route's."""
    table, params = _two_hump(faint), prof.MemoryParams(kappa_i=KAPPA_I)
    with _quad_calls() as calls:
        sch = proto.build_schedule(table, params)
        report = proto.peak_time_and_fidelity(table, params, sch)
    assert calls == []
    assert ("feasibility_resumed" in sch.flags) == faint
    with _scalar_route(), _quad_calls() as calls:
        assert report == proto.peak_time_and_fidelity(
            table, params, proto.build_schedule(table, params))
    assert len(calls) > 50


@pytest.mark.parametrize("case", ["spike", "oscillating"])
def test_rejected_chunks_fall_back_to_quad(case):
    """Of three chunks, the first pass must reject the middle one, [40, 80]:
    it alone goes to quad, the sum equals the `quad` route's, and quad warns
    (only) where the route warns."""
    if case == "spike":     # centred in [53, 54], where dqk21 sees it whole
        f = lambda s: math.exp(-((s - 53.5) / 1e-2) ** 2)
    else:                   # far too many periods for 200 subintervals
        f = lambda s: math.sin(1e4 * s) if 40.0 < s < 80.0 else 0.0
    fv = lambda s: np.array([f(t) for t in s.tolist()])
    edges = [float(t) for t in range(101)]
    first = prof._first_pass(fv, edges, 1e-12)
    assert [val is None for val in first] == [False, True, False]

    def run(*extra):
        with warnings.catch_warnings(record=True) as caught, \
                _quad_calls() as calls:
            warnings.simplefilter("always")
            val = prof._quad_chunked(f, 0.0, 100.0, edges[1:-1], 1e-12, *extra)
        return val, calls, [(w.category, str(w.message)) for w in caught]

    batched, calls, warned = run(fv)
    assert calls == [(40.0, 80.0)]
    assert (batched, warned) == run()[::2]
    assert bool(warned) == (case == "oscillating")


def test_one_interval_chunk_takes_dqagse_rule():
    """A one-interval chunk goes to dqagse, which also needs abserr !=
    resasc. An integrand that only one Kronrod node sees has abserr ==
    resasc below epsabs: dqagpe's rule accepts dqk21's value, dqagse's
    bisects on, and quad returns 0."""
    node = float(prof._XGK[0])
    f = lambda s: 1e-15 if s == node else 0.0
    fv = lambda s: np.where(s == node, 1e-15, 0.0)
    assert prof._first_pass(fv, [-1.0, 1.0, 3.0], 1e-12)[0] > 0.0
    assert prof._first_pass(fv, [-1.0, 1.0], 1e-12) == [None]
    # 41 intervals of width 2: the second chunk is [-1, 1] alone
    edges = [float(t) for t in range(-81, 2, 2)]
    assert prof._first_pass(fv, edges, 1e-12) == [0.0, None]
    for a, b in ((-1.0, 1.0), (-81.0, 1.0)):
        breaks = [t for t in edges if a < t < b]
        batched = prof._quad_chunked(f, a, b, breaks, 1e-12, fv)
        assert batched == prof._quad_chunked(f, a, b, breaks, 1e-12) == 0.0


def test_analytic_profiles_never_take_the_first_pass(monkeypatch):
    """Only a table's rate is bitwise the same on arrays as on floats, so
    exp and Gauss pulses keep the scalar `quad` route."""
    def refuse(*args):
        raise AssertionError("first pass on an analytic profile")

    monkeypatch.setattr(prof, "_first_pass", refuse)
    for profile in (prof.exponential(0.036), prof.gaussian(r=0.1533, n=4)):
        params = prof.MemoryParams(kappa_i=KAPPA_I)
        sch = proto.build_schedule(profile, params)
        proto.peak_time_and_fidelity(profile, params, sch)
        prof.total_excitation(profile, math.inf)


@settings(max_examples=60, deadline=None)
@given(table=narrow_tables(), a=st.floats(-1.0, 40.0), b=st.floats(-1.0, 40.0),
       knot=st.integers(0, 81))
def test_interior_breaks_are_the_knots_inside(table, a, b, knot):
    knots = table.taus.tolist()
    on_knot = knots[min(knot, len(knots) - 1)]
    for lo, hi in ((a, b), (on_knot, b), (a, on_knot), (-math.inf, math.inf)):
        assert prof._interior_breaks(table, lo, hi) \
            == [float(t) for t in table.taus if lo < t < hi]


# ---------------------------------------------------------------------------
# stacked dense output
# ---------------------------------------------------------------------------

def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _schedules():
    params = prof.MemoryParams(kappa_i=KAPPA_I)
    for profile in (prof.exponential(0.036), prof.gaussian(r=0.1533, n=4),
                    _two_hump(True)):
        yield proto.build_schedule(profile, params)


def _probes(ts: np.ndarray) -> np.ndarray:
    """Step ends, one ulp either side, midpoints, and points before the
    first step and after the last."""
    return np.concatenate([ts, np.nextafter(ts, -np.inf),
                           np.nextafter(ts, np.inf), 0.5 * (ts[1:] + ts[:-1]),
                           [ts[0] - 1.0, ts[0] - 1e-300, ts[-1] + 1.0,
                            ts[-1] + 1e3]])


def test_stacked_dense_output_is_odesolution():
    for sch in _schedules():
        for seg in sch.segments:
            probes = _probes(seg.sol.ts)
            assert _same_bits(seg.dense(probes), seg.sol(probes)[0])
            assert _same_bits(seg.dense(probes[::-1]), seg.sol(probes[::-1])[0])
            assert [seg.at(t) for t in probes.tolist()] \
                == seg.dense(probes).tolist()


def test_stacked_dense_output_on_one_step():
    profile = prof.exponential(0.5)
    sol = proto._integrate_stage1(profile, KAPPA_I, 1.0, -0.2, 1.0 + 1e-7)
    assert len(sol.interpolants) == 1
    at, on_array = proto._dense_output(sol)
    probes = _probes(sol.ts)
    assert _same_bits(on_array(probes), sol(probes)[0])
    assert [at(t) for t in probes.tolist()] == on_array(probes).tolist()


def test_stacked_dense_output_takes_odesolutions_step_at_a_boundary():
    """At a step end OdeSolution evaluates the earlier step. Two synthetic
    DOP853 steps that disagree there tell the steps apart."""
    rng = np.random.default_rng(3)
    steps = [Dop853DenseOutput(t0, t0 + 1.0, np.array([y0]),
                               rng.normal(size=(7, 1)))
             for t0, y0 in ((0.0, 0.5), (1.0, -2.0))]
    sol = OdeSolution([0.0, 1.0, 2.0], steps)
    at, on_array = proto._dense_output(sol)
    probes = _probes(sol.ts)
    assert steps[0](1.0)[0] != steps[1](1.0)[0]
    assert _same_bits(on_array(probes), sol(probes)[0])
    assert [at(t) for t in probes.tolist()] == on_array(probes).tolist()


def test_schedule_dense_makes_no_odesolution_call(monkeypatch):
    sch = next(_schedules())
    taus = np.linspace(0.0, sch.horizon, 4097)
    want = sch._dense(taus)

    def refuse(self, t):
        raise AssertionError("OdeSolution call")

    monkeypatch.setattr(type(sch.segments[0].sol), "__call__", refuse)
    got = sch._dense(taus)
    assert np.array_equal(got[0], want[0]) and _same_bits(got[1], want[1])
