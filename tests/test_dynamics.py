"""Generic amplitude integrator, energy bookkeeping and the Lindblad oracle."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulsecatch import dynamics as dyn
from pulsecatch import profiles as prof
from pulsecatch import protocol as proto
from pulsecatch.errors import DomainError, StepFailure
from test_protocol import _catch_table, _double_hump

KI_OP = 1e-4


def _exp_setup(r: float = 0.036, ki: float = KI_OP):
    p = prof.exponential(r)
    params = prof.MemoryParams(kappa_i=ki)
    return p, params, proto.build_schedule(p, params)


def _unitarity_defect(tr: dyn.Trajectory) -> float:
    total = tr.beta1**2 + tr.beta**2 + tr.cum_reflection + tr.cum_intrinsic
    return float(np.max(np.abs(total - 1.0)))


# ---------------------------------------------------------------------------
# energy balance on the optimal schedules
# ---------------------------------------------------------------------------

def test_energy_balance_exponential_operating_point():
    p, params, sch = _exp_setup()
    tr = dyn.simulate_amplitudes(p, params, sch, 164.4, tol=1e-10)
    assert dyn.energy_balance_residual(tr) <= 50 * tr.tol
    assert _unitarity_defect(tr) <= 1e-9


def test_energy_balance_gaussian_operating_point():
    p = prof.gaussian(r=0.1533, n=4)
    params = prof.MemoryParams(kappa_i=KI_OP)
    sch = proto.build_schedule(p, params)
    tr = dyn.simulate_amplitudes(p, params, sch, prof.horizon(p), tol=1e-10)
    assert dyn.energy_balance_residual(tr) <= 50 * tr.tol
    assert _unitarity_defect(tr) <= 1e-9


def test_energy_balance_lossless():
    p, params, sch = _exp_setup(r=0.2, ki=0.0)
    tr = dyn.simulate_amplitudes(p, params, sch, prof.horizon(p), tol=1e-10)
    assert dyn.energy_balance_residual(tr) <= 50 * tr.tol
    assert _unitarity_defect(tr) <= 1e-9
    assert np.all(tr.cum_intrinsic == 0.0)


def test_residual_shrinks_with_tolerance():
    p, params, sch = _exp_setup()
    defects = []
    residuals = []
    for tol in (1e-6, 1e-8, 1e-10):
        tr = dyn.simulate_amplitudes(p, params, sch, 164.4, tol=tol)
        defects.append(_unitarity_defect(tr))
        residuals.append(dyn.energy_balance_residual(tr))
    assert defects[0] > defects[1] > defects[2]
    assert defects[0] > 10.0 * defects[1]
    assert residuals[0] > residuals[1] > residuals[2]


def test_residual_detects_violations():
    # zero out the reflected channel of a healthy run: the bookkeeping
    # identity must break by roughly the stage-1 reflection scale
    p, params, sch = _exp_setup()
    tr = dyn.simulate_amplitudes(p, params, sch, 10.0, tol=1e-10, samples=2001)
    broken = dyn.Trajectory(
        taus=tr.taus.copy(), beta1=tr.beta1.copy(), beta=tr.beta.copy(),
        kappa=tr.kappa.copy(), r_in=tr.r_in.copy(),
        r_out=np.zeros_like(tr.r_out),
        cum_reflection=tr.cum_reflection.copy(),
        cum_intrinsic=tr.cum_intrinsic.copy(),
        kappa_i=tr.kappa_i, tol=tr.tol)
    # the healthy residual is ~1e-10 on this uniform grid; the broken one is
    # off by the stage-1 reflection scale
    assert dyn.energy_balance_residual(tr) < 1e-5
    assert dyn.energy_balance_residual(broken) > 1e-4


# ---------------------------------------------------------------------------
# closed-form oracles for the integrator itself
# ---------------------------------------------------------------------------

def test_seeded_memory_decays_exactly():
    # no input, constant kappa: beta(t) = beta0 e^{-(kappa+kappa_i)t/2} and
    # both loss integrals have elementary closed forms
    silent = prof.tabulated([0.0, 50.0], [0.0, 0.0])
    ki, kap, b0 = 2e-3, 0.3, -0.6
    params = prof.MemoryParams(kappa_i=ki)
    ts = np.linspace(0.0, 20.0, 2001)
    tr = dyn.simulate_amplitudes(silent, params, lambda t: kap, 20.0,
                                 tol=1e-11, samples=ts, beta0=b0)
    lam = kap + ki
    decay = b0 * np.exp(-0.5 * lam * ts)
    np.testing.assert_allclose(tr.beta, decay, atol=1e-10)
    scale = b0 * b0 * (1.0 - np.exp(-lam * ts)) / lam
    np.testing.assert_allclose(tr.cum_intrinsic, ki * scale, atol=1e-10)
    np.testing.assert_allclose(tr.cum_reflection, kap * scale, atol=1e-10)
    # the emitted power is kappa beta^2 when nothing arrives
    np.testing.assert_allclose(tr.r_out, kap * tr.beta**2, atol=1e-12)


def test_closed_coupler_reflects_everything():
    p = prof.exponential(0.3)
    params = prof.MemoryParams(kappa_i=0.0)
    tr = dyn.simulate_amplitudes(p, params, lambda t: 0.0, 30.0,
                                 tol=1e-11, samples=3001)
    assert np.max(np.abs(tr.beta)) == 0.0
    np.testing.assert_allclose(tr.r_out, tr.r_in, atol=1e-14)
    assert tr.cum_reflection[-1] == pytest.approx(
        prof.cumulative(p, 30.0), abs=1e-9)


def test_trajectory_matches_closed_population():
    from pulsecatch import closedform as cf
    p, params, sch = _exp_setup(r=0.2, ki=1e-3)
    ts = np.linspace(0.0, 40.0, 1501)
    tr = dyn.simulate_amplitudes(p, params, sch, 40.0, tol=1e-11, samples=ts)
    pops = np.array([cf.exp_population(0.2, 1e-3, float(t)) for t in ts])
    np.testing.assert_allclose(tr.beta**2, pops, atol=5e-10)
    assert np.all(tr.beta <= 0.0)
    assert np.all(np.diff(tr.beta1) <= 1e-15)  # source only empties


def test_callable_coupling_with_breakpoints_matches_schedule():
    p, params, sch = _exp_setup(r=0.2, ki=1e-3)

    def kappa_fn(t):
        return sch.kappa(t)

    kappa_fn.breakpoints = sch.breakpoints
    ts = np.linspace(0.0, 30.0, 1201)
    tr_sched = dyn.simulate_amplitudes(p, params, sch, 30.0, tol=1e-11, samples=ts)
    tr_call = dyn.simulate_amplitudes(p, params, kappa_fn, 30.0, tol=1e-11, samples=ts)
    np.testing.assert_allclose(tr_call.beta, tr_sched.beta, atol=1e-11)
    np.testing.assert_allclose(tr_call.cum_reflection, tr_sched.cum_reflection,
                               atol=1e-11)


def test_reflection_rate_interference():
    # a loaded memory with beta = -sqrt(r_in/kappa) cancels the output exactly
    assert dyn.reflection_rate(-math.sqrt(0.04), 1.0, 0.04) == pytest.approx(0.0, abs=1e-18)
    assert dyn.reflection_rate(0.0, 0.7, 0.04) == pytest.approx(0.04)
    out = dyn.reflection_rate(np.array([-0.2, 0.0]), np.array([1.0, 1.0]),
                              np.array([0.04, 0.04]))
    assert out[0] == pytest.approx(0.0, abs=1e-18)


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------

def test_simulate_rejects_bad_arguments():
    p, params, sch = _exp_setup()
    with pytest.raises(DomainError):
        dyn.simulate_amplitudes(p, params, sch, 10.0, tol=1e-14)
    with pytest.raises(DomainError):
        dyn.simulate_amplitudes(p, params, sch, 10.0, tol=1e-5)
    with pytest.raises(DomainError):
        dyn.simulate_amplitudes(p, params, sch, -1.0)
    for beta0 in (0.5, math.nan, -math.inf):
        with pytest.raises(DomainError, match="convention is beta <= 0"):
            dyn.simulate_amplitudes(p, params, sch, 10.0, beta0=beta0)
    with pytest.raises(DomainError):
        dyn.simulate_amplitudes(p, params, "not-a-coupling", 10.0)
    for bad in ([5.0, 1.0], [-1.0, 2.0], [0.0, 20.0], [3.0]):
        with pytest.raises(DomainError):
            dyn.simulate_amplitudes(p, params, sch, 10.0, samples=bad)


@pytest.mark.parametrize("simulate", [dyn.simulate_amplitudes,
                                      dyn.simulate_master_equation])
def test_simulators_share_argument_checks(simulate):
    p, params, sch = _exp_setup()
    with pytest.raises(DomainError):
        simulate(p, params, sch, 40.0, samples=[30.0, 5.0, 60.0])
    with pytest.raises(DomainError):
        simulate(p, params, sch, 40.0, samples=[5.0, 30.0, 60.0])
    with pytest.raises(DomainError):
        simulate(p, params, sch, -1.0)
    # a run to tau_end = inf never ends, and its int grid was all nan
    for samples in (None, 11):
        with pytest.raises(DomainError, match="tau_end"):
            simulate(p, params, sch, math.inf, samples=samples)
    with pytest.raises(DomainError):
        simulate(p, params, sch, 10.0, tol=1e-5)
    # an int grid takes at least 2 samples, as an explicit one does
    for bad in (0, 1, -1):
        with pytest.raises(DomainError, match="samples"):
            simulate(p, params, sch, 10.0, samples=bad)


def test_numpy_integer_samples_are_a_count():
    """A numpy integer is a count, as an int is, not an explicit grid; a
    bool is out of the count's range."""
    p, params, sch = _exp_setup()
    want = dyn.simulate_amplitudes(p, params, sch, 40.0, samples=201)
    got = dyn.simulate_amplitudes(p, params, sch, 40.0, samples=np.int64(201))
    for field in dataclasses.fields(want):
        assert np.asarray(getattr(got, field.name)).tobytes() \
            == np.asarray(getattr(want, field.name)).tobytes(), field.name
    rho = dyn.simulate_master_equation(p, params, sch, 40.0,
                                       samples=np.int64(11))
    assert rho.shape == (11, 3, 3)
    with pytest.raises(DomainError, match="samples must lie in"):
        dyn.simulate_amplitudes(p, params, sch, 10.0, samples=True)


def test_residual_needs_three_samples():
    p, params, sch = _exp_setup()
    tr = dyn.simulate_amplitudes(p, params, sch, 10.0, samples=[0.0, 10.0])
    with pytest.raises(DomainError):
        dyn.energy_balance_residual(tr)


def _synthetic(ts, beta_sq, rate, edges=()):
    """A lossless Trajectory with beta^2, r_in as given and r_out = 0, so
    its energy balance is r_in = d(beta^2)/dtau."""
    zeros = np.zeros_like(ts)
    return dyn.Trajectory(taus=ts, beta1=zeros.copy(), beta=-np.sqrt(beta_sq),
                          kappa=zeros.copy(), r_in=rate, r_out=zeros.copy(),
                          cum_reflection=zeros.copy(),
                          cum_intrinsic=zeros.copy(), kappa_i=0.0, tol=1e-10,
                          edges=edges)


def test_fornberg_weights_of_uniform_stencils():
    # the tabulated 6th-order weights: centred and fully one-sided
    x = np.arange(7.0)[None, :]
    np.testing.assert_allclose(
        dyn._fornberg(np.array([3.0]), x)[0],
        [-1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60], atol=1e-15)
    np.testing.assert_allclose(
        dyn._fornberg(np.array([0.0]), x)[0],
        [-49 / 20, 6.0, -15 / 2, 20 / 3, -15 / 4, 6 / 5, -1 / 6], rtol=1e-14)


@settings(max_examples=200, deadline=None)
@given(gaps=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
       start=st.floats(-5.0, 5.0),
       where=st.floats(-1.0, 7.0),
       coefs=st.lists(st.floats(-2.0, 2.0), min_size=7, max_size=7))
def test_fornberg_weights_exact_on_polynomials(gaps, start, where, coefs):
    # uneven nodes, z anywhere from inside to one side of all of them
    x = start + np.concatenate([[0.0], np.cumsum(gaps)])
    z = start + where * float(np.mean(gaps))
    poly = np.polynomial.Polynomial(coefs)
    w = dyn._fornberg(np.array([z]), x[None, :])[0]
    terms = w * poly(x)
    scale = float(np.sum(np.abs(terms))) + abs(float(poly.deriv()(z)))
    assert abs(float(np.sum(terms)) - float(poly.deriv()(z))) \
        <= 1e-12 * scale
    # each power of (x - z) up to the 6th on its own
    for k in range(7):
        mono = np.polynomial.Polynomial.basis(k)
        assert abs(float(np.sum(w * mono(x - z))) - (k == 1)) \
            <= 1e-12 * float(np.sum(np.abs(w * mono(x - z))) + 1.0)


def test_kink_at_an_edge_does_not_enter_residual():
    # beta^2 = t^2 up to 1, then 1 + 2 (t-1) + 3 (t-1)^2: the slope is
    # continuous and the curvature jumps, as at tau_c
    ts = np.linspace(0.0, 2.0, 41)
    u = ts - 1.0
    beta_sq = np.where(u > 0.0, 1.0 + 2.0 * u + 3.0 * u * u, ts * ts)
    rate = np.where(u > 0.0, 2.0 + 6.0 * u, 2.0 * ts)
    assert dyn.energy_balance_residual(
        _synthetic(ts, beta_sq, rate, (0.0, 1.0, 2.0))) <= 1e-12
    assert dyn.energy_balance_residual(_synthetic(ts, beta_sq, rate)) > 1e-3
    # on a simulated run, tau_c is an edge; across it the residual is large
    p, params, sch = _exp_setup()
    tr = dyn.simulate_amplitudes(p, params, sch, sch.horizon, tol=1e-11)
    assert sch.tau_c in tr.edges
    healthy = dyn.energy_balance_residual(tr)
    assert healthy <= 50 * tr.tol
    assert dyn.energy_balance_residual(
        dataclasses.replace(tr, edges=())) > 1e3 * healthy


def test_residual_needs_a_segment_of_three_samples():
    # three segments of at most 2 samples each: nothing to difference
    ts = np.array([0.0, 0.5, 1.5, 2.0])
    tr = _synthetic(ts, ts * ts, 2.0 * ts, (0.0, 1.0, 1.7, 2.0))
    with pytest.raises(DomainError):
        dyn.energy_balance_residual(tr)
    # one segment of 3 samples takes a 3-node stencil, exact on t^2
    tr = _synthetic(ts, ts * ts, 2.0 * ts, (0.0, 1.0, 2.0))
    assert dyn.energy_balance_residual(
        dataclasses.replace(tr, edges=(0.0, 2.0))) <= 1e-14


def test_residual_keeps_a_nan():
    # segments of 3 and of 39 samples take stencils of different sizes; a
    # nan in either is the result, not dropped by the max
    ts = np.linspace(0.0, 2.0, 41)
    for bad in (1, 30):
        rate = 2.0 * ts
        rate[bad] = np.nan
        tr = _synthetic(ts, ts * ts, rate, (0.0, 0.1, 2.0))
        assert math.isnan(dyn.energy_balance_residual(tr))


def test_trajectory_without_edges_is_one_segment():
    # a coupling without breaks: the run's edges are just its ends, and a
    # Trajectory built without edges reads the same residual
    p = prof.exponential(0.2)
    params = prof.MemoryParams(kappa_i=1e-3)
    tr = dyn.simulate_amplitudes(p, params, lambda t: 0.3, 20.0, tol=1e-11,
                                 samples=401)
    assert tr.edges == (0.0, 20.0)
    bare = dyn.Trajectory(
        taus=tr.taus, beta1=tr.beta1, beta=tr.beta, kappa=tr.kappa,
        r_in=tr.r_in, r_out=tr.r_out, cum_reflection=tr.cum_reflection,
        cum_intrinsic=tr.cum_intrinsic, kappa_i=tr.kappa_i, tol=tr.tol)
    assert bare.edges == ()
    assert dyn.energy_balance_residual(bare) \
        == dyn.energy_balance_residual(tr)


def _two_hump() -> prof.InputProfile:
    """CI's two-hump table: knots every 0.02 on [0, 30], humps at 4 and 19."""
    taus = np.linspace(0.0, 30.0, 1501)
    rates = 0.4 * np.exp(-0.5 * (taus - 4.0) ** 2) \
        + 0.6 * np.exp(-0.5 * ((taus - 19.0) / 1.1) ** 2)
    return prof.tabulated(taus, rates / np.trapezoid(rates, taus))


def _schedule_edges(p: prof.InputProfile, sch) -> tuple[float, ...]:
    knots = p.taus[(p.taus > 0.0) & (p.taus < sch.horizon)].tolist() \
        if p.kind == prof.TABULATED else []
    return tuple(sorted({0.0, *sch.breakpoints(), *knots, sch.horizon}))


@pytest.mark.parametrize("make", [lambda: prof.exponential(0.036),
                                  lambda: prof.gaussian(r=0.1533, n=4),
                                  pytest.param(_two_hump, id="table")])
def test_default_grid_is_uniform_per_segment(make):
    p = make()
    params = prof.MemoryParams(kappa_i=KI_OP)
    sch = proto.build_schedule(p, params)
    sizes = []
    for tol in (1e-10, 1e-11):
        tr = dyn.simulate_amplitudes(p, params, sch, sch.horizon, tol=tol)
        assert tr.edges == _schedule_edges(p, sch)
        for a, b in zip(tr.edges[:-1], tr.edges[1:]):
            seg = tr.taus[(tr.taus >= a) & (tr.taus <= b)]
            assert seg[0] == a and seg[-1] == b
            assert len(seg) >= dyn._STENCIL
            np.testing.assert_allclose(np.diff(seg), (b - a) / (len(seg) - 1),
                                       rtol=1e-9)
        sizes.append(len(tr))
    if p.kind == prof.TABULATED:
        # T is 1 over the peak rate, longer than a knot interval: each
        # interval gets the stencil's 7 samples, whatever the tol
        rule = (len(tr.edges) - 1) * (dyn._STENCIL - 1) + 1
        assert sizes[0] == sizes[1] <= rule
    else:
        assert sizes[0] < sizes[1] < 5000


@pytest.mark.parametrize("tol", [1e-7, 1e-9, 1e-11, 1e-13])
@pytest.mark.parametrize("make, bound",
                         [(lambda: prof.exponential(0.036), 2.0),
                          (lambda: prof.gaussian(r=0.1533, n=4), 2.0),
                          (_two_hump, 50.0)],
                         ids=["exp", "gauss", "table"])
def test_default_residual_tracks_tol(make, bound, tol):
    # grid and Gaussian step cap both follow tol: an analytic pulse's
    # residual stays near tol itself, far inside 50 tol. A fixed sigma/3
    # cap left a 4.1e-10 floor on the Gaussian whatever the tol. A table's
    # stencils sit inside 0.02 knot intervals and read beta^2's rounding,
    # about 2e-12 at every tol, so its bound is the 50 tol contract.
    p = make()
    params = prof.MemoryParams(kappa_i=KI_OP)
    sch = proto.build_schedule(p, params)
    tr = dyn.simulate_amplitudes(p, params, sch, sch.horizon, tol=tol)
    assert dyn.energy_balance_residual(tr) <= bound * tol


@pytest.mark.parametrize("make", [lambda: prof.exponential(0.036),
                                  lambda: prof.gaussian(r=0.1533, n=4),
                                  _two_hump], ids=["exp", "gauss", "table"])
def test_default_grid_values_equal_sampled_runs(make):
    # the solver's steps do not depend on the samples, so every value on the
    # default grid is the value a run sampled at that time alone reads
    p = make()
    params = prof.MemoryParams(kappa_i=KI_OP)
    sch = proto.build_schedule(p, params)
    tr = dyn.simulate_amplitudes(p, params, sch, sch.horizon, tol=1e-11)
    pick = np.r_[np.arange(0, len(tr) - 1, 5), len(tr) - 1]
    sub = dyn.simulate_amplitudes(p, params, sch, sch.horizon, tol=1e-11,
                                  samples=tr.taus[pick])
    for field in ("taus", "beta1", "beta", "kappa", "r_in", "r_out",
                  "cum_reflection", "cum_intrinsic"):
        assert np.array_equal(getattr(tr, field)[pick], getattr(sub, field))


def _knot_table() -> prof.InputProfile:
    taus = np.linspace(0.0, 10.0, 11)
    rates = np.exp(-0.5 * (taus - 4.0) ** 2)
    return prof.tabulated(taus, rates / np.trapezoid(rates, taus))


def test_table_knots_are_edges():
    # r_in's second derivative jumps at a PCHIP knot: stencils stop there
    p = _knot_table()
    taus = p.taus
    params = prof.MemoryParams(kappa_i=KI_OP)
    sch = proto.build_schedule(p, params)
    tr = dyn.simulate_amplitudes(p, params, sch, sch.horizon, tol=1e-10)
    assert set(taus.tolist()) <= set(tr.edges)
    assert set(tr.edges) <= set(tr.taus.tolist())


def test_sliver_segment_holds_just_its_ends():
    # a coupling break 1e-12 past a knot: seven samples on that segment
    # would read rounding far over 50 tol, so it gets its two ends and the
    # residual skips it
    p = _two_hump()
    params = prof.MemoryParams(kappa_i=KI_OP)
    sch = proto.build_schedule(p, params)
    knot = float(p.taus[750])

    def kappa(t):
        return sch.kappa(t)

    kappa.breakpoints = lambda: [*sch.breakpoints(), knot + 1e-12]
    tr = dyn.simulate_amplitudes(p, params, kappa, sch.horizon, tol=1e-11)
    assert knot in tr.edges and knot + 1e-12 in tr.edges
    sliver = tr.taus[(tr.taus >= knot) & (tr.taus <= knot + 1e-12)]
    assert sliver.tolist() == [knot, knot + 1e-12]
    assert dyn.energy_balance_residual(tr) <= 50 * tr.tol


def test_default_grid_of_slivers_is_refused_before_any_solve(monkeypatch):
    """`test_cli`'s table of slivers, two humps every 0.005 on [0, 10]: at
    tol 1e-13 every knot interval is shorter than the sliver span (7.4e-3),
    so no residual could be taken on the default grid. `simulate_amplitudes`
    raises the DomainError that names the least tol before any solve."""
    taus = np.linspace(0.0, 10.0, 2001)
    rates = 0.4 * np.exp(-0.5 * (taus - 3.0) ** 2) \
        + 0.6 * np.exp(-0.5 * ((taus - 6.5) / 1.1) ** 2)
    p = prof.tabulated(taus, rates / np.trapezoid(rates, taus))
    params = prof.MemoryParams(kappa_i=KI_OP)
    sch = proto.build_schedule(p, params)
    solves, solve = [], dyn.solve_ivp
    monkeypatch.setattr(dyn, "solve_ivp",
                        lambda *a, **k: solves.append(a[1]) or solve(*a, **k))
    with pytest.raises(DomainError, match="shorter than 0.00739") as err:
        dyn.simulate_amplitudes(p, params, sch, sch.horizon, tol=1e-13)
    assert "at tol 1e-13" in str(err.value)
    assert "tol >= 1.48e-13" in str(err.value)
    assert solves == []


def test_all_zero_table_has_a_trajectory():
    # no positive sample: T is inf, and the memory's own time spaces the grid
    p = prof.tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0])
    tr = dyn.simulate_amplitudes(p, prof.MemoryParams(kappa_i=KI_OP),
                                 lambda s: 0.5, 3.0)
    assert tr.edges == (0.0, 1.0, 2.0, 3.0)
    assert len(tr) == 3 * (math.ceil(1.0 / dyn._spacing(tr.tol)) + 1) - 2
    assert np.all(tr.beta == 0.0) and np.all(tr.r_out == 0.0)
    assert dyn.energy_balance_residual(tr) == 0.0


def test_breaks_repeated_unsorted_and_at_the_ends_are_edges_once():
    # breaks given unsorted, repeated, and at 0 and tau_end run through both
    # simulators bit for bit like the same breaks sorted and deduplicated;
    # a repeated break used to hand DOP853 an empty span and raise
    p, params, sch = _exp_setup(r=0.2, ki=1e-3)
    tau_c = sch.breakpoints()[0]

    def messy(t):
        return sch.kappa(t)

    def tidy(t):
        return sch.kappa(t)

    messy.breakpoints = lambda: [30.0, tau_c, 7.5, 0.0, tau_c]
    tidy.breakpoints = lambda: sorted([7.5, tau_c])
    ts = np.linspace(0.0, 30.0, 301)
    runs = [dyn.simulate_amplitudes(p, params, k, 30.0, tol=1e-10, samples=ts)
            for k in (messy, tidy)]
    assert runs[0].edges == runs[1].edges \
        == (0.0, *sorted([7.5, tau_c]), 30.0)
    for field in dataclasses.fields(dyn.Trajectory):
        assert np.array_equal(getattr(runs[0], field.name),
                              getattr(runs[1], field.name))
    rhos = [dyn.simulate_master_equation(p, params, k, 30.0, samples=ts)
            for k in (messy, tidy)]
    assert np.array_equal(rhos[0], rhos[1])


@pytest.mark.parametrize("case", ["table", "resumed"])
def test_solves_restart_exactly_at_the_edges(case, monkeypatch):
    # every solve of both simulators spans two consecutive edges of the run,
    # in order: the integrator has no list of restarts of its own. Both
    # runs end before the master equation's source rate blows up in the
    # pulse's tail.
    profile, tau_end = {"table": (_knot_table(), 8.0),
                        "resumed": (_double_hump(), 25.0)}[case]
    params = prof.MemoryParams(kappa_i=KI_OP)
    sch = proto.build_schedule(profile, params)
    spans = []
    solve = dyn.solve_ivp

    def recorded(fun, t_span, *args, **kwargs):
        spans.append(tuple(t_span))
        return solve(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(dyn, "solve_ivp", recorded)
    tr = dyn.simulate_amplitudes(profile, params, sch, tau_end, samples=201)
    pairs = list(zip(tr.edges[:-1], tr.edges[1:]))
    assert set(sch.breakpoints()) <= set(tr.edges)
    assert set(profile.taus[profile.taus < tau_end].tolist()) <= set(tr.edges)
    assert spans == pairs
    spans.clear()
    dyn.simulate_master_equation(profile, params, sch, tau_end, samples=201)
    assert spans == pairs


@pytest.mark.parametrize("faint", [True, False], ids=["faint", "twin"])
def test_table_residual_meets_bound_at_the_defaults(faint):
    # the benchmark's tables at simulate's default --tol and grid: stepping
    # across the knots left 2e-7 to 5e-7 here, against 50 tol = 5e-10
    profile, params = _catch_table(3, faint), prof.MemoryParams(kappa_i=KI_OP)
    sch = proto.build_schedule(profile, params)
    tr = dyn.simulate_amplitudes(profile, params, sch, sch.horizon, tol=1e-11)
    assert dyn.energy_balance_residual(tr) <= 50 * tr.tol


@pytest.mark.parametrize("faint", [True, False], ids=["faint", "twin"])
def test_table_is_exact_reduction_of_master_equation(faint):
    profile, params = _catch_table(3, faint), prof.MemoryParams(kappa_i=KI_OP)
    sch = proto.build_schedule(profile, params)
    assert dyn.verify_nonhermitian_reduction(profile, params, sch, 20.0) \
        <= 1e-8


def test_master_equation_over_a_leading_zero_run():
    # r_in is 0 up to tau = 3: the source's decay rate is 0 there, not
    # 0/(1 - C), and the reduction holds through the run and the pulse
    taus = np.linspace(0.0, 20.0, 201)
    rates = np.where(taus < 3.0, 0.0, np.exp(-0.5 * ((taus - 8.0) / 1.2) ** 2))
    profile = prof.tabulated(taus, rates / np.trapezoid(rates, taus))
    params = prof.MemoryParams(kappa_i=KI_OP)
    assert all(dyn._kappa_1(profile, t) == 0.0
               for t in np.linspace(0.0, 2.9, 30).tolist())
    sch = proto.build_schedule(profile, params)
    assert dyn.verify_nonhermitian_reduction(profile, params, sch, 12.0) \
        <= 1e-8


@pytest.mark.parametrize("simulate, what", [
    (dyn.simulate_amplitudes, "integrator"),
    (dyn.simulate_master_equation, "master equation")])
def test_step_failure_carries_tau(simulate, what, monkeypatch):
    # a solve that stops short raises StepFailure at the last time it reached
    p, params, sch = _exp_setup()
    solve = dyn.solve_ivp

    def stalled(fun, t_span, *args, **kwargs):
        sol = solve(fun, (t_span[0], 0.5 * (t_span[0] + t_span[1])), *args,
                    **kwargs)
        sol.status, sol.message = -1, "step size too small"
        return sol

    monkeypatch.setattr(dyn, "solve_ivp", stalled)
    with pytest.raises(StepFailure, match=f"{what} failed: step size too "
                                          f"small") as caught:
        simulate(p, params, sch, 5.0, samples=11)
    assert caught.value.tau == 0.5 * sch.tau_c


_EVALUATORS = ("beta_sq", "beta", "stage", "kappa", "stage2_kappa",
               "reflection")


@pytest.mark.parametrize("call", [
    *(pytest.param(lambda p, m, s, name=name: getattr(s, name)(math.nan),
                   id=f"{name}-float") for name in _EVALUATORS),
    *(pytest.param(lambda p, m, s, name=name:
                   getattr(s, name)(np.array([s.tau_c, math.nan])),
                   id=f"{name}-array") for name in _EVALUATORS),
    *(pytest.param(lambda p, m, s, fn=fn, tau=tau, table=table:
                   fn(_double_hump() if table else p, tau),
                   id=f"{fn.__name__}-{'table-' * table}{kind}")
      for fn in (prof.rate_at, prof.cumulative) for table in (False, True)
      for kind, tau in (("float", math.nan),
                        ("array", np.array([1.0, math.nan])))),
    pytest.param(lambda p, m, s: prof.total_excitation(p, math.nan),
                 id="total_excitation"),
    pytest.param(lambda p, m, s: proto.stage1_amplitude(p, m, math.nan),
                 id="stage1_amplitude"),
    pytest.param(lambda p, m, s: proto.stage2_population(p, m, s.tau_c,
                                                         math.nan),
                 id="stage2_population"),
    *(pytest.param(lambda p, m, s, sim=sim: sim(p, m, s, math.nan),
                   id=f"{sim.__name__}-tau_end")
      for sim in (dyn.simulate_amplitudes, dyn.simulate_master_equation)),
    *(pytest.param(lambda p, m, s, sim=sim:
                   sim(p, m, s, 10.0, samples=[0.0, math.nan, 10.0]),
                   id=f"{sim.__name__}-samples")
      for sim in (dyn.simulate_amplitudes, dyn.simulate_master_equation)),
])
def test_nan_time_is_a_domain_error(call):
    """Each entry point that takes a time rejects a nan one, in an array
    too: a check written `tau < 0` lets nan through, and an array holding a
    nan never reads as sorted to the schedule's evaluators."""
    with pytest.raises(DomainError):
        call(*_exp_setup())


def test_trajectory_is_immutable():
    p, params, sch = _exp_setup()
    tr = dyn.simulate_amplitudes(p, params, sch, 5.0, samples=11)
    assert len(tr) == 11
    with pytest.raises(ValueError):
        tr.beta[0] = 1.0


# ---------------------------------------------------------------------------
# Lindblad oracle
# ---------------------------------------------------------------------------

def test_master_equation_state_invariants():
    p, params, sch = _exp_setup(r=0.2, ki=1e-3)
    rho = dyn.simulate_master_equation(p, params, sch, 40.0, tol=1e-10,
                                       samples=201)
    assert len(rho) == 201
    assert rho[0, 1, 1] == pytest.approx(1.0)
    for i in range(0, 201, 10):
        assert float(np.real(np.trace(rho[i]))) == pytest.approx(1.0, abs=1e-10)
        assert float(np.max(np.abs(rho[i] - rho[i].conj().T))) <= 1e-12
        assert float(np.min(np.linalg.eigvalsh(
            0.5 * (rho[i] + rho[i].conj().T)))) >= -1e-10


def test_master_equation_ground_state_collects_losses():
    p, params, sch = _exp_setup(r=0.2, ki=1e-3)
    ts = np.linspace(0.0, 40.0, 201)
    rho = dyn.simulate_master_equation(p, params, sch, 40.0, tol=1e-10,
                                       samples=ts)
    tr = dyn.simulate_amplitudes(p, params, sch, 40.0, tol=1e-10, samples=ts)
    for i in range(len(ts)):
        lost = tr.cum_reflection[i] + tr.cum_intrinsic[i]
        assert float(np.real(rho[i, 0, 0])) == pytest.approx(lost, abs=1e-8)


def test_master_equation_states_are_one_read_only_array():
    p, params, sch = _exp_setup(r=0.2, ki=1e-3)
    rho = dyn.simulate_master_equation(p, params, sch, 10.0, samples=11)
    assert rho.shape == (11, 3, 3) and rho.dtype == complex
    with pytest.raises(ValueError):
        rho[0, 0, 0] = 1.0


def test_amplitudes_are_exact_reduction_of_master_equation():
    p, params, sch = _exp_setup(r=0.2, ki=1e-3)
    dev = dyn.verify_nonhermitian_reduction(p, params, sch, 40.0)
    assert dev <= 1e-8


def test_master_equation_rejects_bad_tol():
    p, params, sch = _exp_setup()
    with pytest.raises(DomainError):
        dyn.simulate_master_equation(p, params, sch, 10.0, tol=1e-15)


def _matrix_generator(rho: np.ndarray, kap: float, kap1: float,
                      k_i: float) -> np.ndarray:
    """The Lindblad right-hand side as matrix products: the cascaded
    Hamiltonian H = (i/2) sqrt(kappa_1 kappa) (|10><01| - |01><10|), the
    collective jump L = sqrt(kappa)|00><01| + sqrt(kappa_1)|00><10| and the
    memory's intrinsic jump sqrt(kappa_i)|00><01|."""
    e_01 = np.zeros((3, 3), dtype=complex); e_01[0, 1] = 1.0   # |00><10|
    e_02 = np.zeros((3, 3), dtype=complex); e_02[0, 2] = 1.0   # |00><01|
    h = np.zeros((3, 3), dtype=complex)
    h[1, 2] = 0.5j * math.sqrt(kap1 * kap)
    h[2, 1] = -0.5j * math.sqrt(kap1 * kap)
    drho = -1j * (h @ rho - rho @ h)
    for l_op in (math.sqrt(kap) * e_02 + math.sqrt(kap1) * e_01,
                 math.sqrt(k_i) * e_02):
        ldag = l_op.conj().T
        ldl = ldag @ l_op
        drho += l_op @ rho @ ldag - 0.5 * (ldl @ rho + rho @ ldl)
    return drho


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parts=st.lists(st.floats(-1.0, 1.0), min_size=18, max_size=18),
       kap=st.floats(0.0, 1.0), kap1=st.floats(0.0, 1.0),
       k_i=st.floats(0.0, 1.0))
def test_written_out_generator_equals_matrix_form(parts, kap, kap1, k_i):
    """`dynamics._generator` against the matrix products on Hermitian,
    positive, unit-trace states."""
    a = np.array(parts[:9]).reshape(3, 3) + 1j * np.array(parts[9:]).reshape(3, 3)
    rho = a @ a.conj().T
    if np.trace(rho).real == 0.0:
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    rho /= np.trace(rho).real
    got = np.array(dyn._generator(rho.reshape(9), kap, kap1, k_i))
    want = _matrix_generator(rho, kap, kap1, k_i).reshape(9)
    assert np.max(np.abs(got - want)) <= 1e-15
