"""The batched table quadrature and the stacked dense output equal scipy's
routes bit for bit.

`profiles._quad_chunked` settles every chunk that QUADPACK's first pass
would accept with one vectorized dqk21 pass, when its caller also gives the
integrand on arrays (tabulated profiles only); `protocol._ExactLinear`
evaluates its pieces on floats and arrays from one stacked table of their
series rows. Each is compared with `==` against the scipy route it stands
in for (`quad`, and `OdeSolution` over the same pieces one by one).
"""
from __future__ import annotations

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import DenseOutput, OdeSolution, quad
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
    down to 1.5 mean knot spacings wide. Some open with a faint hump, after
    which a schedule may resume stage 1; some have leading zero samples, or
    a run of zero samples inside, where r_in touches 0."""
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
    if draw(st.booleans()):
        width = draw(st.floats(1.5, 4.0)) * span / n
        rates += 0.02 * rates.max() * np.exp(
            -0.5 * ((taus - start - draw(st.floats(0.0, 0.3)) * span)
                    / width) ** 2)
    lead = draw(st.integers(0, 3)) if draw(st.booleans()) else 0
    hole = draw(st.tuples(st.integers(1, n), st.integers(1, 4))) \
        if draw(st.booleans()) else (0, 0)
    kept = rates.copy()
    kept[:lead] = 0.0
    kept[hole[0]:hole[0] + hole[1]] = 0.0
    if kept.max() > 0.0:
        rates = kept
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
                  proto._stage1_beta_quad(table, 0.5, a, 0.0, b),
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
    """Piece ends, one ulp either side, midpoints, and points before the
    first piece and after the last."""
    return np.concatenate([ts, np.nextafter(ts, -np.inf),
                           np.nextafter(ts, np.inf), 0.5 * (ts[1:] + ts[:-1]),
                           [ts[0] - 1.0, ts[0] - 1e-300, ts[-1] + 1.0,
                            ts[-1] + 1e3]])


class _Piece(DenseOutput):
    """Piece i of an exact propagation on its own, as scipy dense output:
    the propagation's rows of that piece alone, evaluated wherever asked
    (`at` on floats, `dense` on arrays)."""

    def __init__(self, sol: proto._ExactLinear, i: int):
        super().__init__(float(sol.ts[i]), float(sol.ts[i + 1]))
        self.one = proto._ExactLinear(
            sol.ts[i:i + 2], sol._y[i:i + 1], sol._lo[i:i + 1],
            [row[i:i + 1] for row in sol._d], sol._g,
            (0,) if i in sol.fallback else (), sol._quad)

    def _call_impl(self, t):
        if t.ndim == 0:
            return np.array([self.one.at(float(t))])
        return self.one.dense(t)[np.newaxis]


def odesolution(sol: proto._ExactLinear) -> OdeSolution:
    """scipy's OdeSolution over the pieces of an exact propagation, each
    evaluated on its own: OdeSolution picks the piece."""
    return OdeSolution(sol.ts, [_Piece(sol, i) for i in range(len(sol._y))])


def _assert_is_odesolution(table: proto._ExactLinear, sol: OdeSolution):
    """`at` and `dense` equal the OdeSolution call bit for bit on `_probes`
    of its pieces, sorted and reversed."""
    probes = _probes(sol.ts)
    assert _same_bits(table.dense(probes), sol(probes)[0])
    assert _same_bits(table.dense(probes[::-1]), sol(probes[::-1])[0])
    assert all(_same_bits(np.array([table.at(t)]), sol(t))
               for t in probes.tolist())


def test_stacked_dense_output_is_odesolution():
    """Every segment, analytic or tabulated, is an exact propagation that
    evaluates as OdeSolution over its pieces: the same piece for every
    point, and on it the same value as the piece alone."""
    for sch in _schedules():
        for seg in sch.segments:
            assert isinstance(seg.sol, proto._ExactLinear)
            assert len(seg.sol._y) > 1
            _assert_is_odesolution(seg.sol, odesolution(seg.sol))


def test_stacked_dense_output_on_one_step():
    """A propagation of one piece is evaluated on that piece everywhere,
    before and past it too."""
    sol = next(proto._ExactLinear.stage1(prof.exponential(0.5), KAPPA_I, 1.0,
                                         -0.2, 1.0, 1.0 + 1e-7))
    assert len(sol._y) == 1
    _assert_is_odesolution(sol, odesolution(sol))


def test_stacked_dense_output_takes_odesolutions_step_at_a_boundary():
    """At a piece end OdeSolution evaluates the earlier piece. Two
    synthetic pieces that disagree there tell the pieces apart."""
    rng = np.random.default_rng(3)
    sol = proto._ExactLinear(np.array([0.0, 1.0, 2.0]), [0.5, -2.0],
                             [0.0, 0.0], list(rng.normal(size=(7, 2))),
                             [-0.5, 0.125, -1.0 / 48.0])
    ends = [_Piece(sol, i).one.at(1.0) for i in (0, 1)]
    assert ends[0] != ends[1] and sol.at(1.0) == ends[0]
    _assert_is_odesolution(sol, odesolution(sol))


def test_schedule_dense_makes_no_odesolution_call(monkeypatch):
    """Neither a build nor its dense output calls OdeSolution or
    Dop853DenseOutput."""
    sch = next(_schedules())
    taus = np.linspace(0.0, sch.horizon, 4097)
    want = sch._dense(taus)

    def refuse(self, t):
        raise AssertionError("scipy dense-output call")

    monkeypatch.setattr(OdeSolution, "__call__", refuse)
    monkeypatch.setattr(Dop853DenseOutput, "__call__", refuse)
    sch = proto.build_schedule(sch.profile, sch.params)
    got = sch._dense(taus)
    assert np.array_equal(got[0], want[0]) and _same_bits(got[1], want[1])
