"""Generic two-stage schedule construction and transfer bookkeeping.

Cross-route agreement is the core idea: everything the generic ODE/quadrature
machinery produces for exponential and Gaussian inputs is compared against the
closed-form module, and tabulated re-samplings of analytic profiles must land
on the same schedule.
"""
from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from scipy.integrate import DenseOutput, OdeSolution

from pulsecatch import closedform as cf
from pulsecatch import profiles as prof
from pulsecatch import protocol as proto
from pulsecatch.errors import DomainError, NoThreshold, SingularCoupling


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


def test_threshold_waits_for_delayed_activation():
    taus = np.linspace(0.0, 30.0, 1501)
    rates = np.where(taus < 5.0, 0.0, np.exp(-0.5 * ((taus - 10.0) / 1.5) ** 2))
    rates /= np.trapezoid(rates, taus)
    p = prof.tabulated(taus, rates)
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
