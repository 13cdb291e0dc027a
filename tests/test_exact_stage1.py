"""A table's stage 1 is propagated exactly over its PCHIP pieces.

`protocol._ExactLinear.stage1` solves beta' = -sqrt(r_in) - a beta,
a = (1 + kappa_i)/2, with the Taylor series of the square root of each
piece's cubic. Its knot values are checked against the quadrature oracle
`_stage1_beta_quad`; its float and array evaluations against each other;
its pieces against the tail test that keeps every series inside its radius
of convergence; its chunks against one build. Where r_in reaches 0 the
pieces take its root's own form (`protocol._root_form`): no build or report
calls `quad`, and none steps an ODE.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import OdeSolution
from scipy.integrate._ivp.rk import Dop853DenseOutput

from pulsecatch import profiles as prof
from pulsecatch import protocol as proto
from pulsecatch.errors import PulsecatchError
from test_batched import (_close, _quad_calls, _scalar_absorbed,
                          _scalar_losses, narrow_tables)
from test_exact_stage2 import _knot_aligned_steps
from test_protocol import (_catch_table, _coarse_table, _delayed_table,
                           _double_hump, _refuse_ode, _whole_window_threshold)


def _params(kappa_i: float = 1e-4) -> prof.MemoryParams:
    return prof.MemoryParams(kappa_i=kappa_i)


def _zero_run_table() -> prof.InputProfile:
    """Two humps on 0.1-spaced knots with zero samples before, between and
    after them, so that r_in reaches 0 at knots inside the table."""
    taus = np.linspace(0.0, 20.0, 201)
    rates = np.exp(-0.5 * ((taus - 4.0) / 0.7) ** 2) \
        + np.exp(-0.5 * ((taus - 12.0) / 1.0) ** 2)
    rates[(rates < 1e-3) | (taus < 1.0)] = 0.0
    return prof.tabulated(taus, rates / np.trapezoid(rates, taus))


def _long_piece_table() -> prof.InputProfile:
    """Eight knots 3 apart: long pieces, one rising from 0, one falling
    to 0 and one between two small rates."""
    taus = np.arange(0.0, 24.0, 3.0)
    rates = np.array([0.0, 0.3, 1.0, 0.02, 0.001, 0.5, 0.0, 0.0])
    return prof.tabulated(taus, rates / np.trapezoid(rates, taus))


def _sqrt_edge_table() -> prof.InputProfile:
    """Two humps on 42 uneven knots (a hypothesis find): rates down to
    5e-16 between them and a zero sample at 13.6, where sqrt(r_in) has
    square-root edges. From t = 2^-24 * 17.67, `_stage1_beta_quad` over the
    whole window is 3.6e-13 from a 40-digit reference at kappa_i = 0 (at
    t = 14.19): its relative tolerance, 1e-12
    of |beta| > 0.1, outweighs its epsabs of 1e-13. The exact propagation
    is within 1.1e-16 of the reference, and so is the chained quadrature
    (`_chained_quad`)."""
    taus = [0.0, 0.55465801, 1.1889755, 1.7357646, 1.91890547, 2.31307051,
            2.99446995, 3.7039363, 4.12113085, 4.69312942, 4.8762703,
            5.51664091, 5.97731095, 6.49214183, 7.00262177, 7.73200387,
            8.33102544, 8.51416632, 8.69730719, 9.4298707, 10.00791769,
            10.44433019, 10.62747107, 10.81061195, 11.26251242, 11.66823329,
            11.85137417, 12.31194082, 12.8154774, 12.99861827, 13.42325519,
            13.60639606, 14.01977809, 14.46042245, 14.9581331, 15.14127398,
            15.63000594, 15.81314682, 16.46047934, 16.64362021, 17.10861918,
            17.67442775]
    rates = [0.0, 1.72745253e-01, 2.09822885e-01, 1.14617530e-01,
             7.97756975e-02, 2.78593841e-02, 1.88151089e-03, 3.49432651e-05,
             1.91106254e-06, 1.80728594e-08, 3.44418341e-09, 5.57016038e-12,
             2.98202003e-14, 4.84092089e-16, 2.11897603e-13, 4.94453324e-10,
             1.11407130e-07, 4.91864917e-07, 2.00419981e-06, 2.47710710e-04,
             4.47965599e-03, 2.34723062e-02, 4.10665750e-02, 6.63106850e-02,
             1.53469333e-01, 2.15036704e-01, 2.20105842e-01, 1.63745504e-01,
             6.67806119e-02, 4.23081417e-02, 1.81892429e-02, 0.0,
             5.70364521e-02, 1.34912798e-01, 2.06598997e-01, 2.08223006e-01,
             1.43574430e-01, 1.07813758e-01, 2.05952206e-02, 1.07494940e-02,
             1.43847631e-03, 6.19658258e-05]
    return prof.tabulated(taus, rates)


def _close_knot_table() -> prof.InputProfile:
    """400 knots 1e-10 apart from tau = 5, zero up to the 50th, then a
    Gaussian hump: pieces so short that a long square-root series on them
    would overflow the phi recurrence."""
    taus = 5.0 + 1e-10 * np.arange(400)
    x = np.arange(400)
    rates = np.where(x < 50, 0.0, np.exp(-0.5 * ((x - 250) / 60) ** 2))
    return prof.tabulated(taus, rates / np.trapezoid(rates, taus))


def _chained_quad(table, kappa_i: float, ts: list[float],
                  beta0: float) -> list[float]:
    """`_stage1_beta_quad` at each of ts, each from the value at the one
    before, from beta(ts[0]) = beta0. Each quadrature spans one piece, so
    its relative tolerance (1e-12 of that piece's integral) stays far below
    the tests' 1e-13 bound. One quadrature over the whole window can miss
    it: by 3.6e-13 on `_sqrt_edge_table`, and by 2.9e-11 at t = 18.34 on a
    linear ramp from 0 over one knot interval of 19 (kappa_i = 0.5), where
    a 40-digit reference puts the exact propagation and this chain within
    1.2e-16."""
    out = [beta0]
    for a, b in zip(ts, ts[1:]):
        out.append(proto._stage1_beta_quad(table, kappa_i, a, out[-1], b))
    return out


def _stage1(profile, kappa_i, t_start=None, beta_start=0.0, end=None):
    """The exact stage 1 from t_start to end (the table's), in one object."""
    t_start = float(profile.taus[0]) if t_start is None else t_start
    end = float(profile.taus[-1]) if end is None else end
    t0 = max(t_start, proto._activation_time(profile))
    return proto._ExactLinear.join(list(proto._ExactLinear.stage1(
        profile, kappa_i, t_start, beta_start, t0, end)))


def _tables():
    yield "faint", _catch_table(3, faint=True)
    yield "twin", _catch_table(3, faint=False)
    yield "coarse", _coarse_table(0)[0]
    yield "delayed", _delayed_table()
    yield "zero_run", _zero_run_table()
    yield "long_pieces", _long_piece_table()


def _probes(sol) -> np.ndarray:
    ts = sol.ts
    return np.concatenate([ts, 0.5 * (ts[1:] + ts[:-1]),
                           np.nextafter(ts, -np.inf), np.nextafter(ts, np.inf),
                           [ts[0] - 1.0, ts[-1] + 1.0]])


def _gap_bound(beta: float) -> float:
    return 1e-13 * max(1.0, abs(beta))


@settings(max_examples=25, deadline=None)
@given(table=narrow_tables(), share=st.floats(0.0, 0.9),
       beta_start=st.floats(-1.0, 0.0))
@example(table=_zero_run_table(), share=0.0, beta_start=0.0)
@example(table=_long_piece_table(), share=0.1, beta_start=-0.3)
@example(table=prof.tabulated([0.3988650287793968, 2.398865028779397],
                              [0.0, 1.0]), share=0.0, beta_start=0.0)
@example(table=_sqrt_edge_table(), share=2.0 ** -24, beta_start=0.0)
@example(table=prof.tabulated([0.0, 19.0], [0.0, 2.0 / 19.0]), share=0.0,
         beta_start=0.0)
@pytest.mark.parametrize("kappa_i", [0.0, 1e-3, 0.5])
def test_knot_values_match_quadrature(kappa_i, table, share, beta_start):
    """Every piece-end value lies within 1e-13 max(1, |beta|) of
    `_stage1_beta_quad` chained from piece end to piece end
    (`_chained_quad`), from any start value, on tables with leading and
    inner zeros, where the pieces take the root's own form."""
    lo, hi = float(table.taus[0]), float(table.taus[-1])
    t_start = max(0.0, lo - 1.0) + share * (hi - max(0.0, lo - 1.0))
    if max(t_start, proto._activation_time(table)) >= hi:
        return
    sol = _stage1(table, kappa_i, t_start, beta_start)
    assert (sol.ts[0], sol.ts[-1]) == (t_start, hi)
    ts = sol.ts.tolist()
    for t, y, want in zip(ts, sol.dense(sol.ts).tolist(),
                          _chained_quad(table, kappa_i, ts, beta_start)):
        assert abs(y - want) <= _gap_bound(want), (t, y, want)


@settings(max_examples=25, deadline=None)
@given(table=narrow_tables())
def test_schedule_stage1_matches_quadrature(table):
    """In a table schedule, first and resumed stage-1 segments alike, every
    piece end lies within 1e-13 max(1, |beta|) of `_stage1_beta_quad`
    chained from the segment's start (`_chained_quad`), and the float and
    array evaluations agree."""
    params = _params(1e-3)
    try:
        sch = proto.build_schedule(table, params)
    except PulsecatchError:
        return
    for seg in sch.segments:
        if seg.stage != 1:
            continue
        assert isinstance(seg.sol, proto._ExactLinear)
        ts = seg.sol.ts.tolist()
        for t, want in zip(ts, _chained_quad(table, params.kappa_i, ts,
                                             seg.sol.at(seg.t0))):
            assert abs(seg.sol.at(t) - want) <= _gap_bound(want), t
        probes = _probes(seg.sol)
        assert [seg.sol.at(t) for t in probes.tolist()] \
            == seg.sol.dense(probes).tolist()


@pytest.mark.parametrize("kappa_i", [0.0, 1e-4, 0.5])
@pytest.mark.parametrize("name, table", list(_tables()))
def test_float_and_array_evaluations_agree(name, table, kappa_i):
    """`at` on each float equals `dense` on the array with `==` at the
    piece ends, the midpoints, one ulp either side of the ends and outside
    the stretch, on branch pieces too; at each piece's anchor both give the
    recurrence's value."""
    sol = _stage1(table, kappa_i, beta_start=-0.1)
    probes = _probes(sol)
    assert [sol.at(t) for t in probes.tolist()] == sol.dense(probes).tolist()
    assert sol.dense(probes[::-1]).tolist() == sol.dense(probes).tolist()[::-1]
    assert sol.dense(sol._o[1:]).tobytes() == sol._y[1:].tobytes()
    assert sol._branch.any() == (name == "long_pieces")


@pytest.mark.parametrize("name, table", list(_tables()))
def test_chunks_equal_one_build(name, table, monkeypatch):
    """The chunks, joined, are the propagation built in one chunk, bit for
    bit: each piece's series has its own length."""
    sol = _stage1(table, 1e-4, beta_start=-0.2)
    monkeypatch.setattr(proto, "_CHUNK", 10 ** 6)
    whole = _stage1(table, 1e-4, beta_start=-0.2)
    assert np.array_equal(sol.ts, whole.ts)
    assert [a.tobytes() for a in (sol._y, sol._lo, sol._o, sol._branch)] \
        == [a.tobytes() for a in (whole._y, whole._lo, whole._o, whole._branch)]
    probes = _probes(sol)
    assert sol.dense(probes).tolist() == whole.dense(probes).tolist()


@pytest.mark.parametrize("name, table", list(_tables()))
def test_pieces_are_cut_or_fall_back(name, table):
    """No series is used past its radius of convergence. Every piece has
    k h <= 1/2. A piece of the first cut has a cubic that is 0 throughout or
    positive at its start with sum_j |c_j| h^j <= c_0/2; a piece cut again
    (`protocol._refined`) has its `_root_form` q positive at its anchor
    with sum_j |q_j| h^j <= q_0/8 over the piece seen from there, or r_in
    so small on it that h sqrt(sum_j |c_j| h^j) <= 2^-70, and p = 0. The
    series' polynomial stays positive on the whole piece. A piece near a
    zero first or last sample with a nonzero slope, a square-root branch
    point, is anchored there; every other piece at its start. No piece
    falls back to a quadrature."""
    k = 0.5 * (1.0 + 1e-4)
    sol = _stage1(table, 1e-4)
    starts, ends, h = sol.ts[:-1], sol.ts[1:], np.diff(sol.ts)
    assert np.all(k * h <= 0.5)
    # before activation (t0) r_in is 0: one piece; from there the knots
    t0 = max(float(table.taus[0]), proto._activation_time(table))
    knots = table.taus
    assert np.isin(knots[(knots > t0) & (knots < sol.ts[-1])], sol.ts).all()
    table_pp = table._interp
    piece = np.clip(np.searchsorted(table_pp.knots, starts, side="right") - 1,
                    0, table_pp.last)
    c = proto._recentred(table_pp, piece, starts)
    flat = (starts < t0) | ((c[0] == 0) & (c[1] == 0) & (c[2] == 0)
                            & (c[3] == 0))
    first = flat | (proto._spread(c, h) <= 0.5)
    tiny = h * h * sum(np.abs(cj) * h ** j for j, cj in enumerate(c)) \
        <= 2.0 ** -140
    assert not np.array(sol._d)[:, ~first & tiny].any()
    o, branch, _, q = proto._root_form(table, starts, ends, piece)
    reach = np.maximum(abs(starts - o), abs(ends - o))
    series = ~first & ~tiny
    assert np.all(proto._spread(q, reach)[series] <= 0.125)
    # the anchors: a piece's start, or a branch point
    assert np.array_equal(sol._branch, series & branch)
    assert np.array_equal(sol._o, np.where(sol._branch, o, starts))
    # sampled on each piece, the series' polynomial stays positive (or 0)
    u = np.linspace(0.0, 1.0, 33)[:, None] * h + (starts - sol._o)
    poly = np.where(series, ((q[3] * u + q[2]) * u + q[1]) * u + q[0],
                    ((c[3] * u + c[2]) * u + c[1]) * u + c[0])
    assert np.all((flat | (~first & tiny)) | (poly > 0.0).all(axis=0))
    # branch pieces sit at the zero first sample with a nonzero slope
    assert set(sol._o[sol._branch].tolist()) \
        == ({0.0} if name == "long_pieces" else set())


def test_quadrature_pieces_are_the_quadrature_form():
    """On the delayed table r_in rises from the activation knot z, whose
    sample is 0 and PCHIP's slope too: a double root, so sqrt(r_in) =
    (t - z) sqrt(q) with q linear is analytic there. That knot interval
    is cut into series pieces, each anchored at its start and in that
    factored form, and their values lie within 1e-13 of
    `_stage1_beta_quad` from z, where beta is 0."""
    profile, params = _delayed_table(), _params()
    sch = proto.build_schedule(profile, params)
    sol = sch.segments[0].sol
    t_act = proto._activation_time(profile)
    knot = int(np.searchsorted(profile.taus, t_act))
    i, j = (int(np.flatnonzero(sol.ts == t)[0])
            for t in (t_act, profile.taus[knot + 1]))
    assert j - i > 1 and not sol._branch.any()
    assert np.array_equal(sol._o, sol.ts[:-1]) and sol._y[i] == 0.0
    lam = proto._root_form(profile, sol.ts[i:j], sol.ts[i + 1:j + 1],
                           np.full(j - i, knot))[2]
    assert np.array_equal(lam[0], sol.ts[i:j] - t_act) and np.all(lam[1] == 1)
    for t in np.linspace(t_act, sol.ts[j], 9)[1:].tolist():
        want = proto._stage1_beta_quad(profile, params.kappa_i, t_act, 0.0, t)
        assert abs(sol.at(t) - want) <= _gap_bound(want)
        assert sol.at(t) == sol.dense(np.array([t]))[0]
    # before activation beta stays exactly 0
    assert not np.any(sol.dense(np.linspace(0.0, t_act, 50)))


@pytest.mark.parametrize("name, kappa_i", [
    ("delayed", 1e-4), ("zero_run", 1e-4), ("zero_run", 0.5),
    ("long_pieces", 1e-4), ("long_pieces", 0.5), ("sqrt_edge", 1e-4),
    ("sqrt_edge", 0.5)])
def test_losses_take_quad_on_quadrature_pieces(name, kappa_i, monkeypatch):
    """`_losses` calls no quadrature: each stage-1 piece takes one Kronrod
    rule, a branch piece (anchored at a square-root branch point o) in
    s = sqrt|t - o|, where the integrand is smooth. The losses up to the
    horizon and the input absorbed by the peak lie within 1e-15 of their
    oracles (`_scalar_losses`, `_scalar_absorbed`: Gauss-Legendre on every
    knot interval cut at the pieces, and adaptive `quad` on the branch
    pieces)."""
    table = {"delayed": _delayed_table, "zero_run": _zero_run_table,
             "long_pieces": _long_piece_table,
             "sqrt_edge": _sqrt_edge_table}[name]()
    params = _params(kappa_i)
    sch = proto.build_schedule(table, params)
    report = proto.peak_time_and_fidelity(table, params, sch)
    branch = [seg.sol._o[j] for seg in sch.segments
              for j in np.flatnonzero(seg.sol._branch).tolist()]
    assert set(branch) == ({0.0} if name in ("long_pieces", "sqrt_edge")
                           else set())
    calls, inner = [], prof._quad_chunked

    def recording(f, a, b, breaks, epsabs=1e-12):
        calls.append((a, b))
        return inner(f, a, b, breaks, epsabs)

    monkeypatch.setattr(prof, "_quad_chunked", recording)
    losses = proto._losses(sch, sch.horizon)
    assert calls == []
    monkeypatch.setattr(prof, "_quad_chunked", inner)
    assert _close(losses, _scalar_losses(sch, sch.horizon))
    assert _close([_scalar_absorbed(table, report.tau_max)],
                  [1.0 - report.loss_unabsorbed])


@pytest.mark.parametrize("case", ["faint", "twin", "resumed", "coarse",
                                  "delayed", "zero_run"])
def test_table_build_makes_no_dop853_solve(case, monkeypatch):
    """A table's threshold scans, stage-1 and stage-2 segments step no
    ODE: neither `solve_ivp` nor any scipy Runge-Kutta step is called."""
    profile, params = {
        "faint": (_catch_table(3, True), _params()),
        "twin": (_catch_table(3, False), _params()),
        "resumed": (_double_hump(), _params()),
        "coarse": _coarse_table(0),
        "delayed": (_delayed_table(), _params()),
        "zero_run": (_zero_run_table(), _params()),
    }[case]
    _refuse_ode(monkeypatch)
    sch = proto.build_schedule(profile, params)
    assert all(isinstance(seg.sol, proto._ExactLinear) for seg in sch.segments)
    assert ("feasibility_resumed" in sch.flags) == (case in ("faint",
                                                             "resumed"))


def test_overflowing_series_fall_back():
    """On knots 1e-10 apart (`_close_knot_table`) a long square-root series
    overflows the phi recurrence b_m = (m-1)! p_{m-1} - ..; the pieces that
    would need one are cut again instead, so every piece is a series piece
    with finite rows, and every value lies within 1e-13 of
    `_stage1_beta_quad`."""
    table = _close_knot_table()
    sol = _stage1(table, 1e-4, t_start=5.0)
    assert len(sol._y) > 349 and not sol._branch.any()
    assert np.isfinite(np.array(sol._d)).all()
    for t, y in zip(sol.ts.tolist()[::10], sol.dense(sol.ts[::10]).tolist()):
        want = proto._stage1_beta_quad(table, 1e-4, 5.0, 0.0, t)
        assert abs(y - want) <= _gap_bound(want), t


@settings(max_examples=25, deadline=None)
@given(table=narrow_tables())
@example(table=_zero_run_table())
@example(table=_delayed_table())
@example(table=_long_piece_table())
@example(table=_sqrt_edge_table())
@example(table=_close_knot_table())
def test_builds_and_reports_call_no_quad(table):
    """Every stage-1 piece of a table is a series piece, whatever its
    samples: no build or report calls `quad`, on zero samples, on tails
    down to 1e-300 and on knots 1e-10 apart."""
    params = _params()
    with _quad_calls() as calls:
        try:
            sch = proto.build_schedule(table, params)
            proto.peak_time_and_fidelity(table, params, sch)
        except PulsecatchError:
            pass
    assert calls == []


@pytest.mark.parametrize("profile", [_zero_run_table(), _catch_table(3, True),
                                     prof.exponential(0.036),
                                     prof.gaussian(r=0.1533, n=4)],
                         ids=["zero_run", "faint", "exp", "gauss"])
def test_short_windows_do_not_warn(profile):
    """A quadrature window a few hundred ulps wide, such as the oracle's
    over a piece one ulp past its start, is one Kronrod rule: QUADPACK
    would stop bisecting it at once and warn (pytest makes that an error).
    The value is the boundary term less about w sqrt(r_in)."""
    for o in (1.0, 3.0, 4.3, 12.0):
        for ulps in (1, 2, 7, 50, 181, 999):
            w = ulps * math.ulp(o)
            beta = proto._stage1_beta_quad(profile, 1e-3, o, -0.1, o + w)
            kernel = math.sqrt(max(prof.rate_at(profile, o),
                                   prof.rate_at(profile, o + w)))
            assert abs(beta + 0.1) <= 1.01 * w * (kernel + 0.1), (o, ulps)
            pop = proto._stage2_pop(profile, 1e-3, o, 0.3, o + w)
            assert abs(pop - 0.3) <= 1.01 * w * (kernel ** 2 + 0.3)


def _dop853_knot_gap(profile, kappa_i, t0, beta0, t1) -> float:
    """The largest gap to `_stage1_beta_quad` of the knot-aligned DOP853
    stage-1 solve over [t0, t1] that the exact propagation replaced."""
    a = 0.5 * (1.0 + kappa_i)
    rhs = lambda t, y: -math.sqrt(prof.rate_at(profile, t)) - a * y
    gap = 0.0
    for t, y, _ in _knot_aligned_steps(rhs, t0, beta0, t1,
                                       prof._interior_breaks(profile, t0, t1)):
        want = proto._stage1_beta_quad(profile, kappa_i, t0, beta0, t)
        gap = max(gap, abs(y - want))
    return gap


@pytest.mark.parametrize("faint", [True, False], ids=["faint", "twin"])
def test_knot_gap_is_no_larger_than_dop853s(faint):
    """On the benchmark's tables every stage-1 segment stays within 5e-16
    of `_stage1_beta_quad` at its knots, and no further from it than the
    knot-aligned DOP853 solve it replaced."""
    profile, params = _catch_table(3, faint), _params()
    sch = proto.build_schedule(profile, params)
    for seg in sch.segments:
        if seg.stage != 1:
            continue
        beta0 = seg.sol.at(seg.t0)
        gap = max(abs(seg.sol.at(t) - proto._stage1_beta_quad(
            profile, params.kappa_i, seg.t0, beta0, t))
            for t in seg.sol.ts.tolist())
        assert gap <= 5e-16
        assert gap <= _dop853_knot_gap(profile, params.kappa_i, seg.t0, beta0,
                                       seg.t1)


@pytest.mark.parametrize("profile", [prof.exponential(0.036),
                                     prof.gaussian(r=0.1533, n=4)],
                         ids=["exp", "gauss"])
def test_analytic_scan_makes_no_dense_output_call(profile, monkeypatch):
    """The analytic threshold scan steps no ODE and calls no scipy dense
    output (`OdeSolution`, `Dop853DenseOutput`): with them refused, its
    bracket and tau_c are those of the whole-window scan, and every
    segment of a build is an exact propagation."""
    params = _params()
    end = prof.horizon(profile)
    _, lo, hi, tau_c, _, grid_tau_c = _whole_window_threshold(
        profile, params.kappa_i, 0.0, 0.0, end)
    assert abs(tau_c - grid_tau_c) <= 8 * proto._EPS * tau_c

    def refuse(self, t):
        raise AssertionError("scipy dense-output call")

    _refuse_ode(monkeypatch)
    monkeypatch.setattr(OdeSolution, "__call__", refuse)
    monkeypatch.setattr(Dop853DenseOutput, "__call__", refuse)
    assert proto._threshold_bracket(profile, params.kappa_i, 0.0, 0.0,
                                    end)[:2] == (lo, hi)
    sch = proto.build_schedule(profile, params)
    assert sch.tau_c == tau_c and lo <= sch.tau_c <= hi
    assert all(isinstance(seg.sol, proto._ExactLinear) for seg in sch.segments)


def _float_loop(fn, profile, taus: np.ndarray) -> np.ndarray:
    return np.array([fn(profile, t) for t in taus.ravel().tolist()],
                    dtype=float).reshape(taus.shape)


def _gauss_n(r: float, n: float) -> prof.InputProfile:
    """A Gaussian of peak rate r centred at n sigma; n = 1 is below the
    constructor's floor of 3 and is built directly, for the arithmetic."""
    sigma = 1.0 / (r * prof.SQRT_2PI)
    return prof.InputProfile(kind=prof.GAUSSIAN, r=r, sigma=sigma, n=n)


@pytest.mark.parametrize("fn", [prof.rate_at, prof.cumulative],
                         ids=["rate_at", "cumulative"])
@pytest.mark.parametrize("profile", [
    prof.exponential(0.036), prof.exponential(0.9), _gauss_n(0.1533, 1.0),
    _gauss_n(0.1533, 4.0), _gauss_n(0.9, 4.0), _catch_table(3, True)],
    ids=["exp_point", "exp", "gauss_n1", "gauss_n4", "gauss_narrow", "table"])
def test_pointwise_is_the_float_loop(profile, fn):
    """`rate_at` and `cumulative` on 0-d, 1-d and 2-d arrays equal the
    float calls bit for bit, sign bits included: at tau = 0, on both sides
    of tau0, past a table's ends and on a fine uniform row grid (57,001
    rows, more than `schedule` writes). A 0-d array gives a float."""
    end = prof.horizon(profile)
    taus = [np.array([0.0, 5e-324, 1e-300]),
            np.linspace(0.0, end, 57_001),
            np.geomspace(1e-9, end, 4097).reshape(17, 241),
            np.array([[0.0, 1.0], [end, 2.0 * end]])]
    if profile.kind == prof.GAUSSIAN:
        t0 = profile.tau0
        taus.append(t0 + np.array([-1.0, -1e-12, 0.0, 1e-12, 1.0]) * t0)
        taus.append(np.nextafter(t0, [-np.inf, np.inf]))
    for ts in taus:
        got = fn(profile, ts)
        assert got.shape == ts.shape
        assert got.tobytes() == _float_loop(fn, profile, ts).tobytes()
    for t in (0.0, 0.5 * end, 1.5 * end):
        got = fn(profile, np.array(t))
        assert type(got) is float
        assert np.array(got).tobytes() == np.array(fn(profile, t)).tobytes()
