"""The batched table quadrature agrees with a Gauss-Legendre oracle, and
the stacked dense output equals scipy's route bit for bit.

On a table, `profiles._kronrod` integrates r_in with one 21-point Kronrod
rule per knot interval, in array calls of up to `_BLOCK` intervals, and
the losses with one rule per stage-1 piece and the stage-2 series' exact
integral.
The r_in quadratures are compared with a 20-point Gauss-Legendre rule on
every knot interval of the same integrand, the losses with the same rule
on every knot interval cut at the schedule's pieces, each summed by
math.fsum. `protocol._ExactLinear` evaluates its pieces on floats and
arrays from one stacked table of their series rows, and is compared with
`==` against `OdeSolution` over the same pieces one by one.
"""
from __future__ import annotations

import contextlib
import math
from bisect import bisect_right
import tracemalloc
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


_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_GL_U, _GL_W = ((1.0 + _GL_X) / 2.0).tolist(), (_GL_W / 2.0).tolist()  # on [0, 1]


def _legendre(f, a: float, b: float) -> list[float]:
    """The terms of a 20-point Gauss-Legendre rule for f over [a, b]. Each
    node is a + (b - a) u: its rounding is its own, where a centre plus an
    offset (QUADPACK's nodes) would shift all the nodes by the centre's
    rounding and bias the sum by that times f(b) - f(a)."""
    return [w * (b - a) * f(a + (b - a) * u) for u, w in zip(_GL_U, _GL_W)]


@contextlib.contextmanager
def _scalar_route():
    """Every `_kronrod` interval integrated by `_legendre` instead, its
    terms summed by math.fsum, on the same integrand taken one float at a
    time. Yields the number of intervals it integrated."""
    batched, done = prof._kronrod, [0]

    def scalar(integrand, edges):
        f = lambda t: float(integrand(np.array([t]))[0])
        out = [math.fsum(_legendre(f, a, b))
               for a, b in zip(edges[:-1], edges[1:])]
        done[0] += len(out)
        return np.array(out)

    prof._kronrod = scalar
    try:
        yield done
    finally:
        prof._kronrod = batched


def _adaptive(f, a: float, b: float) -> list[float]:
    """One term: adaptive `quad` to 1e-17 absolute or 1e-14 relative."""
    return [quad(f, a, b, limit=200, epsabs=1e-17, epsrel=1e-14)[0]]


def _scalar_losses(sch: proto.CouplingSchedule, tau_max: float):
    """`proto._losses` on the schedule's float evaluators (r_out and beta^2
    of the segment), segment by segment up to tau_max, and in a segment on
    each knot interval cut at the starts of its pieces, where beta takes
    another series. Each cut takes a 20-point Gauss-Legendre rule
    (`_legendre`), to about 1e-17; a branch piece (a square-root branch
    point of r_in at its anchor, `_ExactLinear._branch`) takes adaptive
    `quad`, and so does the population past the
    horizon, in the quadrature form `_stage2_pop` from the schedule's value
    at the horizon. quad's warnings are muted. The terms are summed by
    math.fsum."""
    profile, k = sch.profile, sch.params.kappa_i
    reflection, intrinsic = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seg in sch.segments:
            hi = min(seg.t1, tau_max)
            if hi <= seg.t0:
                break
            starts = seg.sol._knots
            edges = sorted({seg.t0, hi,
                            *prof._interior_breaks(profile, seg.t0, hi),
                            *(t for t in starts if seg.t0 < t < hi)})
            r_out = lambda s, seg=seg: (
                seg.sol.at(s) + math.sqrt(prof.rate_at(profile, s))) ** 2
            for a, b in zip(edges[:-1], edges[1:]):
                piece = min(max(bisect_right(starts, a) - 1, 0),
                            len(starts) - 2)
                rule = _adaptive if seg.sol._branch[piece] else _legendre
                if seg.stage == 1:
                    reflection += rule(r_out, a, b)
                if k != 0.0:
                    intrinsic += rule(seg.beta_sq, a, b)
        if k != 0.0 and tau_max > sch.horizon:
            h = sch.horizon
            intrinsic += _adaptive(lambda t: proto._stage2_pop(
                profile, k, h, sch.beta_sq(h), t), h, tau_max)
    return math.fsum(reflection), k * math.fsum(intrinsic)


def _scalar_absorbed(profile: prof.InputProfile, tau: float) -> float:
    """The integral of r_in over [0, tau]: `_legendre` on each knot
    interval, exact on the cubics, summed by math.fsum."""
    edges = [0.0] + prof._interior_breaks(profile, 0.0, tau) + [tau]
    return math.fsum(term for a, b in zip(edges[:-1], edges[1:]) for term in
                     _legendre(lambda s: prof.rate_at(profile, s), a, b))


@contextlib.contextmanager
def _quad_calls():
    """The (a, b) of every `quad` call `profiles` and `protocol` make inside
    the block."""
    calls = []
    inner = prof.quad

    def counted(f, a, b, *args, **kwargs):
        calls.append((a, b))
        return inner(f, a, b, *args, **kwargs)

    prof.quad = proto.quad = counted
    try:
        yield calls
    finally:
        prof.quad = proto.quad = inner


def _close(got, want, bound: float = 1e-15) -> bool:
    """Equal-length sequences of floats within bound of each other."""
    return len(got) == len(want) and all(
        abs(g - w) <= bound for g, w in zip(got, want))


@st.composite
def narrow_tables(draw):
    """Multi-hump tables with 1, 40, 41 or 81 knot intervals (around the
    40-interval chunk of `_quad_chunked`, the oracles' route), uneven knot
    spacing and humps down to 1.5 mean knot spacings wide. Some open with a faint hump, after
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


def _two_hump(faint: bool, knots: int = 1501) -> prof.InputProfile:
    """A tabulated two-hump pulse like the benchmark's: knots every 0.02 on
    [0, 30] by default; a faint early hump makes the schedule resume stage 1."""
    taus = np.linspace(0.0, 30.0, knots)
    a1 = 0.03 if faint else 0.45
    rates = a1 * np.exp(-0.5 * ((taus - 4.1) / 1.05) ** 2) \
        + (1.0 - a1) * np.exp(-0.5 * ((taus - 19.7) / 1.1) ** 2)
    return prof.tabulated(taus, rates / np.trapezoid(rates, taus))


def _quadratures(table: prof.InputProfile, a: float, b: float):
    """Every quadrature form over [a, b] on a table, and the warnings quad
    gives on the way: r_in by `_kronrod`, and the adaptive oracles, which
    take it only on a window too short for quad."""
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

@pytest.mark.parametrize("degree", [0, 1, 3, 20, 31])
def test_kronrod_is_exact_on_polynomials(degree):
    """The rule integrates a polynomial of degree <= 31 exactly, to
    rounding, on every interval at once, and asks for the nodes in one
    array, the node axis first."""
    rng = np.random.default_rng(degree)
    coefs = rng.normal(size=degree + 1)
    antider = np.polynomial.Polynomial(coefs).integ()
    edges = np.concatenate(([-1.5], np.sort(rng.uniform(-1.5, 2.0, 6)), [2.0]))
    shapes = []

    def fv(s):
        shapes.append(s.shape)
        return np.polynomial.polynomial.polyval(s, coefs)

    got = prof._kronrod(fv, edges)
    want = antider(edges[1:]) - antider(edges[:-1])
    assert shapes == [(21, len(edges) - 1)]
    scale = np.abs(coefs).sum() * 2.0 ** (degree + 1)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


@pytest.mark.parametrize("intervals", [1, prof._BLOCK - 1, prof._BLOCK,
                                       prof._BLOCK + 1, 2 * prof._BLOCK + 1])
def test_kronrod_interval_is_the_same_alone_or_in_a_batch(intervals):
    """An interval's integral does not depend on the intervals beside it or
    on the blocks of `_BLOCK` intervals the rule takes at a time: alone and
    in a 1-D batch it is the same bit for bit, and so is each row of an f
    that gives rows (`protocol._losses`' shape) and each column of 2-D edges
    with a parameter per column (`closedform._gauss_stage1_integral`'s)."""
    rng = np.random.default_rng(35)
    edges = -5.0 + np.cumsum(np.append(0.0, rng.uniform(0.01, 3.0, intervals)))
    f = lambda s, c=1.0: np.exp(np.sin(7.0 * s)) * 1e3 + np.cos(c * s)

    def alone(g, e):
        return [prof._kronrod(g, e[i:i + 2])[0] for i in range(intervals)]

    single = alone(f, edges)
    assert np.array_equal(prof._kronrod(f, edges), single)
    rows = prof._kronrod(lambda s: np.array([f(s), s * s]), edges)
    assert rows.shape == (2, intervals)
    assert np.array_equal(rows[0], single)
    assert np.array_equal(rows[1], alone(lambda s: s * s, edges))
    c = np.array([0.5, 1.0, 3.0])
    columns = edges[:, None] + np.array([0.0, 0.25, -1.0])
    got = prof._kronrod(lambda s: f(s, c), columns)
    assert got.shape == (intervals, 3)
    for j in range(3):
        assert np.array_equal(got[:, j],
                              alone(lambda s: f(s, c[j]), columns[:, j]))


def test_table_integral_memory_does_not_grow_with_its_knots():
    """`total_excitation` on a 30,001-knot table takes its Kronrod rules in
    blocks, so its tracemalloc peak stays under 4 MB (one node array over
    all 30,000 intervals would take 5 MB), and the result is `np.sum` of
    the rules taken one knot interval at a time, bit for bit. The table's
    cubic, which it keeps (about 2 MB here), is built before the count."""
    table = _two_hump(False, 30001)
    table._interp
    tracemalloc.start()
    try:
        total = prof.total_excitation(table, math.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    x = table.taus
    single = [prof._kronrod(lambda s: prof.rate_at(table, s), x[i:i + 2])[0]
              for i in range(len(x) - 1)]
    assert total == np.sum(single)


def test_table_cubics_keep_each_float_once():
    """A 30,001-knot table's cubic and its antiderivative keep their arrays
    and one knot list, which they share: under 4 MB of tracemalloc together
    (16.6 MB with a list copy of every knot and coefficient). `at` reads a
    piece's floats from the arrays when it first reaches the piece, and
    equals `__call__` bit for bit on 2,000 seeded points, then on the same
    points again, each on a piece reached before."""
    table = _two_hump(False, 30001)
    tracemalloc.start()
    try:
        cubics = table._interp, table._interp_cum
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 4e6
    assert cubics[1].x is cubics[0].x and cubics[1].knots is cubics[0].knots
    t = np.random.default_rng(46).uniform(0.0, 30.0, 2000)
    for cubic in cubics:
        for _ in range(2):
            got = np.array([cubic.at(s) for s in t.tolist()])
            assert got.tobytes() == cubic(t).tobytes()


def test_table_schedule_keeps_each_float_once():
    """A 30,001-knot two-hump schedule and its report keep under 4 MB of
    tracemalloc, the table's cubics built first: no propagation keeps its
    rows a_m = g_m y_i + d_m (`_ExactLinear._a`) beside y and d, which they
    are built from where they are read. Each stage-2 propagation cached
    them, and the two kept 4.65 MB."""
    table = _two_hump(False, 30001)
    table._interp, table._interp_cum
    params = prof.MemoryParams(kappa_i=KAPPA_I)
    tracemalloc.start()
    try:
        sch = proto.build_schedule(table, params)
        proto.peak_time_and_fidelity(table, params, sch)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 4e6
    assert not any("_a" in vars(seg.sol) for seg in sch.segments)


@settings(max_examples=40, deadline=None)
@given(table=narrow_tables(), cut=st.tuples(st.floats(0.0, 1.0),
                                            st.floats(0.0, 1.0)))
@example(table=prof.tabulated([0.0, 1.0], [1.0, 1.0]), cut=(0.0, 1.0))
def test_batched_quadratures_equal_scalar_route(table, cut):
    """Each table quadrature, over the whole table and over a window that
    may start before or end past it, lies within 1e-15 of a Gauss-Legendre
    rule on each knot interval (`_scalar_route`) and warns alike."""
    lo, hi = float(table.taus[0]), float(table.taus[-1])
    a = min(cut) * (hi + 1.0)
    b = a + (max(cut) - min(cut)) * (hi + 1.0 - a)
    for window in ((lo, hi), (a, b)):
        batched, warned = _quadratures(table, *window)
        with _scalar_route() as done:
            scalar, scalar_warned = _quadratures(table, *window)
        assert done[0] > 0 or window[1] <= window[0], window
        assert _close(batched, scalar) and warned == scalar_warned, window


@settings(max_examples=20, deadline=None)
@given(table=narrow_tables())
def test_batched_losses_equal_scalar_route(table):
    """The loss budget's reflection and intrinsic integrals (a Kronrod rule
    per stage-1 piece, the series' integral in stage 2) and the report's
    losses lie within 1e-15 of a Gauss-Legendre rule on each knot interval
    cut at the pieces (`_scalar_losses`, `_scalar_absorbed`)."""
    params = prof.MemoryParams(kappa_i=1e-3)
    try:
        sch = proto.build_schedule(table, params)
    except PulsecatchError:
        return
    for t in (sch.horizon, 0.5 * (sch.tau_c + sch.horizon), sch.tau_c):
        assert _close(proto._losses(sch, t), _scalar_losses(sch, t)), t
    try:
        report = proto.peak_time_and_fidelity(table, params, sch)
    except PulsecatchError:
        return
    assert _close(_loss_fields(report),
                  [*_scalar_losses(sch, report.tau_max),
                   1.0 - _scalar_absorbed(table, report.tau_max)])


def _loss_fields(report: proto.TransferReport) -> tuple:
    return (report.loss_stage1_reflection, report.loss_intrinsic,
            report.loss_unabsorbed)


@pytest.mark.parametrize("faint", [True, False], ids=["faint", "twin"])
def test_benchmark_like_tables_settle_in_the_first_pass(faint):
    """A benchmark-like table's build and report make no `quad` call: every
    table integral of the report is a Kronrod rule."""
    table, params = _two_hump(faint), prof.MemoryParams(kappa_i=KAPPA_I)
    with _quad_calls() as calls:
        sch = proto.build_schedule(table, params)
        proto.peak_time_and_fidelity(table, params, sch)
    assert calls == []
    assert ("feasibility_resumed" in sch.flags) == faint


def test_analytic_profiles_never_take_the_first_pass():
    """An analytic pulse's build and report make no `quad` call: the exp
    and Gauss operating points and the Gauss pulse with a resumed stage 1
    (`test_protocol._resumed_analytic`) read their losses off the pieces
    and their unabsorbed input off `cumulative`."""
    from test_protocol import _resumed_analytic

    for profile in (prof.exponential(0.036), prof.gaussian(r=0.1533, n=4)):
        params = prof.MemoryParams(kappa_i=KAPPA_I)
        with _quad_calls() as calls:
            sch = proto.build_schedule(profile, params)
            proto.peak_time_and_fidelity(profile, params, sch)
        assert calls == [], profile.kind
    sch = _resumed_analytic()
    with _quad_calls() as calls:
        proto.peak_time_and_fidelity(sch.profile, sch.params, sch)
    assert calls == []


@pytest.mark.parametrize("profile", [prof.exponential(0.036),
                                     prof.gaussian(r=0.1533, n=4)],
                         ids=["exp", "gauss"])
def test_lossless_analytic_reports_make_no_quad_call(profile):
    """Without intrinsic loss the report's tau -> inf candidate takes the
    input still to come from `cumulative`, as the unabsorbed loss does.
    At kappa_i = 1e-26 the peak lies past the horizon, where the tail is
    propagated exactly and its losses read off its pieces."""
    for kappa_i in (0.0, 1e-26):
        params = prof.MemoryParams(kappa_i=kappa_i)
        with _quad_calls() as calls:
            sch = proto.build_schedule(profile, params)
            report = proto.peak_time_and_fidelity(profile, params, sch)
        assert calls == [], kappa_i
        if kappa_i == 0.0:
            assert report.tau_max == math.inf
        else:
            assert sch.horizon < report.tau_max < math.inf


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
            [row[i:i + 1] for row in sol._d], sol._g, sol._o[i:i + 1],
            sol._branch[i:i + 1])

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
    want = sch._sampled(taus)

    def refuse(self, t):
        raise AssertionError("scipy dense-output call")

    monkeypatch.setattr(OdeSolution, "__call__", refuse)
    monkeypatch.setattr(Dop853DenseOutput, "__call__", refuse)
    sch = proto.build_schedule(sch.profile, sch.params)
    got = sch._sampled(taus)
    assert np.array_equal(got[0], want[0]) and _same_bits(got[1], want[1])
