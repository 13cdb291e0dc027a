"""An analytic profile's stages are propagated exactly over its Taylor series.

For the exponential and Gaussian pulses r_in is entire, so
`protocol._ExactLinear` propagates both stages on uniform pieces with the
Taylor series of r_in (stage 2) or sqrt(r_in) (stage 1) at each piece start
(`protocol._taylor`). The segments are checked against the quadrature
oracles, the series against r_in itself and their tail test, the chunks
against one build, and the feasibility violations against `solve_ivp`'s
event search.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pulsecatch import profiles as prof
from pulsecatch import protocol as proto
from test_protocol import _resumed_analytic, _same_bits, _schedule


def _case(case: str) -> proto.CouplingSchedule:
    return _resumed_analytic() if case == "gauss_resumed" else _schedule(case)


def _chained_quad(sch, t0: float, beta0: float, ts: list[float]):
    """`_stage1_beta_quad` at each of ts from the value at the one before,
    from beta(t0) = beta0: each quadrature spans a short piece, so its
    relative tolerance stays far below the bound checked."""
    out, t_last = [], t0
    for t in ts:
        beta0 = proto._stage1_beta_quad(sch.profile, sch.params.kappa_i,
                                        t_last, beta0, t)
        out.append(beta0)
        t_last = t
    return np.array(out)


@pytest.mark.parametrize("case", ["exp_point", "exp", "gauss",
                                  "gauss_resumed", "heavy_loss"])
def test_segments_match_quadrature(case):
    """Every segment lies within the tables' bound, 1e-13 max(1, |y|), of
    its quadrature oracle on 257 points: stage 1 of `_stage1_beta_quad`
    chained along them from the segment's start, stage 2 of
    `stage2_population` from its threshold."""
    sch = _case(case)
    for seg in sch.segments:
        grid = np.linspace(seg.t0, seg.t1, 257)
        got = seg.sol.dense(grid)
        if seg.stage == 1:
            want = _chained_quad(sch, seg.t0, seg.sol.at(seg.t0), grid.tolist())
        else:
            want = np.array([proto.stage2_population(sch.profile, sch.params,
                                                     seg.t0, t)
                             for t in grid.tolist()])
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0,
                                                                np.abs(want)))


def _series_cases():
    for case in ("exp_point", "exp", "gauss", "heavy_loss"):
        sch = _schedule(case)
        k1 = 0.5 * (1.0 + sch.params.kappa_i)
        yield case, sch.profile, k1, 0.0, sch.horizon, True
        yield case, sch.profile, sch.params.kappa_i, sch.tau_c, sch.horizon, \
            False


@pytest.mark.parametrize("case, profile, k, t0, end, root",
                         list(_series_cases()),
                         ids=[f"{c}-{'stage1' if r else 'stage2'}"
                              for c, *_, r in _series_cases()])
def test_series_stay_inside_their_pieces(case, profile, k, t0, end, root):
    """The pieces are [t0, end] in equal parts with k h <= 1/2, each cut
    further so that its series' terms sum to at most twice its value
    (sum_n |c_n| h^n <= 2 c_0). Each series passes its tail test (its last
    three kept terms at most 2^-64 c_0 at v = h, the rest 0) and sums to
    r_in, or sqrt(r_in), at the piece end within 1e-13 of it (`rate_at`
    itself carries the rounding of its exponent, up to 50 ulps)."""
    n, h_max, chunk = proto._uniform(profile, k, t0, end, root)
    ts, rows, terms, passed = chunk(0, n)
    h = np.diff(ts)
    assert (ts[0], ts[-1]) == (t0, end) and passed.all()
    assert np.all(h <= h_max * (1.0 + 1e-12))
    assert np.all(k * h <= 0.5 * (1.0 + 1e-12))     # to rounding
    assert np.isin(t0 + (end - t0) * (np.arange(n) / n), ts).all()
    c = np.array(rows)
    powers = h ** np.arange(len(c))[:, None]
    assert np.all(np.abs(c * powers).sum(axis=0) <= 2.0 * (1.0 + 1e-12) * c[0])
    for i in range(len(h)):
        m = int(terms[i])
        assert 3 < m <= len(c)
        assert np.all(np.abs(c[m - 3:m, i]) * powers[m - 3:m, i]
                      <= 2.0 ** -64 * c[0, i])
        assert not np.any(c[m:, i])
    want = prof.rate_at(profile, ts[1:])
    want = np.sqrt(want) if root else want
    got = (c * powers).sum(axis=0)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


@pytest.mark.parametrize("case", ["exp_point", "gauss", "gauss_resumed"])
def test_chunks_equal_one_build(case, monkeypatch):
    """The stage-1 chunks, joined, are the propagation built in one chunk,
    bit for bit: each piece's series has its own length."""
    sch = _case(case)
    k, end = sch.params.kappa_i, sch.horizon
    for seg in (seg for seg in sch.segments if seg.stage == 1):
        args = (sch.profile, k, seg.t0, seg.sol.at(seg.t0), seg.t0, end)
        chunks = list(proto._ExactLinear.stage1(*args))
        assert len(chunks) > 1
        sol = proto._ExactLinear.join(chunks)
        monkeypatch.setattr(proto, "_CHUNK", 10 ** 6)
        whole, = proto._ExactLinear.stage1(*args)
        monkeypatch.undo()
        assert np.array_equal(sol.ts, whole.ts)
        assert (sol._y.tobytes(), sol._lo.tobytes()) \
            == (whole._y.tobytes(), whole._lo.tobytes())
        probes = np.linspace(seg.t0, end, 4097)
        assert _same_bits(sol.dense(probes), whole.dense(probes))


def _gauss_started_early(ratio: float) -> tuple[prof.InputProfile, float]:
    """The Gauss operating point with stage 2 started where r_in'/r_in =
    ratio > 1: beta^2 = r_in there, but r_in rises faster than beta^2 can
    follow with kappa <= 1, so the zero-reflection law soon needs kappa > 1.
    An analytic pulse never meets that from its own threshold."""
    profile = prof.gaussian(r=0.1533, n=4)
    return profile, profile.tau0 - ratio * profile.sigma ** 2


@pytest.mark.parametrize("case", ["gauss_1.1", "gauss_1.5", "exp_point"])
def test_violation_matches_solve_ivp_event(case):
    """Each feasibility violation lies within 1e-12 of the one `solve_ivp`'s
    DOP853 event search finds from the same start, and where it finds none
    there is none."""
    k = 1e-4
    if case == "exp_point":
        profile, t0 = prof.exponential(0.036), _schedule("exp_point").tau_c
    else:
        profile, t0 = _gauss_started_early(float(case.split("_")[1]))
    end = prof.horizon(profile)

    def violation(t, y):
        return (1.0 + 0.5 * proto._KAPPA_SLACK) * y[0] \
            - prof.rate_at(profile, t) + 1e-13

    violation.terminal, violation.direction = True, -1.0
    ref = solve_ivp(lambda t, y: [prof.rate_at(profile, t) - k * y[0]],
                    (t0, end), [prof.rate_at(profile, t0)], method="DOP853",
                    rtol=1e-12, atol=1e-14, events=violation)
    sol, t_violation = proto._integrate_stage2(profile, k, t0, end)
    if case == "exp_point":
        assert t_violation is None and ref.status == 0
        return
    assert ref.status == 1 and t_violation is not None
    assert abs(t_violation - ref.t_events[0][0]) <= 1e-12
    assert sol.ts[-1] == t_violation
    assert violation(t_violation, [sol.at(t_violation)]) <= 0.0


def test_stage1_amplitude_is_chained():
    """`stage1_amplitude` chains its quadrature: on a table ramping
    linearly from 0 over one knot interval of 19 (kappa_i = 0.5), where one
    quadrature over [0, 18.34] is 2.9e-11 off, it lies within 1e-15 of the
    exact propagation (itself within 5e-18 of a 40-digit reference)."""
    table = prof.tabulated([0.0, 19.0], [0.0, 2.0 / 19.0])
    params = prof.MemoryParams(kappa_i=0.5)
    exact = proto._ExactLinear.join(list(proto._ExactLinear.stage1(
        table, 0.5, 0.0, 0.0, 0.0, 19.0)))
    assert abs(proto.stage1_amplitude(table, params, 18.34)
               - exact.at(18.34)) <= 1e-15
    for profile in (prof.exponential(0.5), prof.gaussian(r=0.1533, n=4)):
        sch = proto.build_schedule(profile, params)
        t = 0.5 * sch.tau_c
        assert abs(proto.stage1_amplitude(profile, params, t)
                   - sch.beta(t)) <= 1e-15
    assert proto.stage1_amplitude(table, params, 0.0) == 0.0
    assert math.isfinite(proto.stage1_amplitude(prof.exponential(0.036),
                                                params, 1e3))


@pytest.mark.parametrize("case", ["exp_point", "exp", "gauss", "narrow_gauss"])
def test_loss_budget_closes_to_rounding(case):
    """tau_c is polished to a few ulps on the exact form, so stage 1 meets
    beta^2 = r_in there to rounding, stage 2 starts from it, and the four
    parts of the budget add up to 1 within 2e-15. Polished to 1e-13 in
    tau, a narrow Gaussian (r = 0.9985, kappa_i = 3.4e-4) missed it by
    5.0e-14."""
    if case == "narrow_gauss":
        sch = proto.build_schedule(prof.gaussian(r=0.9985285025969529),
                                   prof.MemoryParams(kappa_i=3.353e-4))
    else:
        sch = _schedule(case)
    first = sch.segments[0]
    rate = prof.rate_at(sch.profile, sch.tau_c)
    assert abs(first.sol.at(sch.tau_c) ** 2 - rate) <= 8 * np.spacing(rate)
    rep = proto.peak_time_and_fidelity(sch.profile, sch.params, sch)
    total = (rep.fidelity + rep.loss_stage1_reflection + rep.loss_intrinsic
             + rep.loss_unabsorbed)
    assert abs(total - 1.0) <= 2e-15


@pytest.mark.parametrize("shift", [None, 0.5, "per piece"])
def test_phi_rows_satisfy_their_recurrence(shift):
    """Each row of `_phi_series` is (p_{m-1} - k d_{m-1}) / (m + s), d_0 =
    0, bit for bit, past the last row of p too: s = 0 (the default), s =
    1/2 and s per piece (1/2 on a branch piece)."""
    rng = np.random.default_rng(36)
    p = list(rng.standard_normal((6, 50)) * 10.0 ** rng.uniform(-3, 3, 50))
    if shift == "per piece":
        shift = 0.5 * (rng.uniform(size=50) < 0.5)
    k = 0.50005
    d = proto._phi_series(p, k, 14, *([] if shift is None else [shift]))
    shift = 0.0 if shift is None else shift
    assert len(d) == 14
    before = np.zeros(50)
    for m, row in enumerate(d, start=1):
        p_m = p[m - 1] if m <= len(p) else 0.0
        assert _same_bits(row, (p_m - k * before) / (m + shift))
        before = row


def test_phi_rows_of_a_short_piece_with_a_long_series_are_finite():
    """A piece 5e-8 long of r_in = 1e8 e^{-1e8 v}: its Taylor series keeps
    over 40 terms, and (m-1)! p_{m-1} overflows (the old factorial-scaled
    rows were inf and failed the piece), but p_{m-1} and the rows d_m do
    not. The rows pass, and S(h) lies within 1e-14 of r_in's integral
    against e^{-k (h - v)}, which is closed for an exponential."""
    a, h, k = 1e8, np.array([5e-8]), 0.5
    rows, terms = proto._series(np.array([a]), lambda rows, n:
                                rows[-1] * -a / n, h, np.zeros(1, bool))
    assert terms[0] > 40
    assert any(math.isinf(math.factorial(j) * float(row[0]))
               for j, row in enumerate(rows))
    d, passed = proto._phi_rows(rows, terms, np.ones(1, bool), k,
                                len(proto._expm1_rows(k, float(h[0]))))
    assert passed.all() and np.isfinite(d).all()
    want = a * (math.exp(-k * 5e-8) - math.exp(-a * 5e-8)) / (a - k)
    assert abs(proto._horner(d, h)[0] - want) <= 1e-14 * want


def test_expm1_rows_keep_the_old_lengths():
    """`_expm1_rows` stops where the tail against its lead term is below
    2^-60: with lead 0, where (k h)^M/(M+1)! is (the analytic pieces'
    rule), with lead 3, where 24 (k h)^(M-3)/(M+1)! is (the table's stage 2,
    which had its own loop). Both are inlined here as they were, on k h
    from 1e-12 to 1/2, and give the same rows."""
    for rho in np.geomspace(1e-12, 0.5, 400).tolist():
        k, h = 0.75, rho / 0.75
        m = 1
        while (k * h) ** m > 2.0 ** -60 * math.factorial(m + 1):
            m += 1
        table = 4
        while 24.0 * (k * h) ** (table - 3) > 2.0 ** -60 \
                * math.factorial(table + 1):
            table += 1
        for lead, want in ((0, m), (3, table)):
            assert proto._expm1_rows(k, h, lead) == [
                (-k) ** j / math.factorial(j) for j in range(1, want + 1)]
