"""Analytic two-stage solutions for exponential and Gaussian inputs.

The oracles here are deliberately independent of the implementation:
textbook algebra evaluated inline, direct quadrature of the stage-2
variation-of-constants integral, and finite-difference checks of the
energy-bookkeeping ODE.
"""
from __future__ import annotations

import decimal
import functools
import math
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erf, erfcx

from pulsecatch import closedform as cf
from pulsecatch import profiles as prof
from pulsecatch import protocol as proto
from pulsecatch.errors import DomainError, NoPeak, NoThreshold, SingularCoupling
from pulsecatch.sweep import DEFAULT_KAPPA_I_GRID, DEFAULT_R_GRID, _generic_cell

# gaussian operating shape used throughout: peak rate 0.1533, center 4*sigma
SIGMA_OP = 1.0 / (0.1533 * math.sqrt(2.0 * math.pi))


# ---------------------------------------------------------------------------
# domain validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r,ki", [(0.0, 0.0), (-0.1, 0.0), (1.5, 0.0),
                                  (0.3, -0.1), (0.3, 1.0)])
def test_exp_domain_rejected(r, ki):
    with pytest.raises(DomainError):
        cf.exp_tau_c(r, ki)


@pytest.mark.parametrize("sigma,n,ki", [(0.0, 4.0, 0.0), (-2.0, 4.0, 0.0),
                                        (2.0, 2.5, 0.0), (2.0, 4.0, 1.0)])
def test_gauss_domain_rejected(sigma, n, ki):
    with pytest.raises(DomainError):
        cf.gauss_constants(sigma, n, ki)


def test_population_needs_nonnegative_time():
    with pytest.raises(DomainError):
        cf.exp_population(0.2, 1e-4, -1.0)
    with pytest.raises(DomainError):
        cf.gauss_population(SIGMA_OP, 4.0, 1e-4, -0.5)


def test_coupling_is_stage2_only():
    tau_c = cf.exp_tau_c(0.2, 1e-4)
    with pytest.raises(DomainError):
        cf.exp_coupling(0.2, 1e-4, 0.5 * tau_c)
    g = cf.gauss_constants(SIGMA_OP, 4.0, 1e-4)
    with pytest.raises(DomainError):
        cf.gauss_coupling(SIGMA_OP, 4.0, 1e-4, 0.5 * g.tau_c)


@pytest.mark.parametrize("at_time", [
    functools.partial(cf.exp_population, 0.2, 1e-4),
    functools.partial(cf.exp_coupling, 0.2, 1e-4),
    functools.partial(cf.gauss_population, SIGMA_OP, 4.0, 1e-4),
    functools.partial(cf.gauss_coupling, SIGMA_OP, 4.0, 1e-4)],
    ids=["exp_population", "exp_coupling", "gauss_population",
         "gauss_coupling"])
def test_time_functions_reject_nan_time(at_time):
    with pytest.raises(DomainError):
        at_time(math.nan)


def test_exp_report_needs_kappa_i_below_r():
    with pytest.raises(DomainError):
        cf.exp_report(0.05, 0.05)
    with pytest.raises(DomainError):
        cf.exp_report(0.05, 0.2)


# ---------------------------------------------------------------------------
# exponential family against hand algebra
# ---------------------------------------------------------------------------

def test_exp_tau_c_hand_values():
    # 2/(1+ki-r) * ln(2/(1-ki+r)) evaluated longhand
    assert cf.exp_tau_c(0.2, 0.0) == pytest.approx(2.5 * math.log(2.0 / 1.2), rel=1e-15)
    assert cf.exp_tau_c(0.036, 1e-4) == pytest.approx(
        (2.0 / (1.0 + 1e-4 - 0.036)) * math.log(2.0 / (1.0 - 1e-4 + 0.036)), rel=1e-15)


def test_exp_tau_c_smooth_through_r_eq_one():
    # s -> 0 limit is exactly 1, approached smoothly
    assert cf.exp_tau_c(1.0, 0.0) == 1.0
    assert cf.exp_tau_c(1.0 - 1e-9, 0.0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("r,expected", [
    (0.05, 0.9811431670198254),
    (0.2, 0.92951600308978),
    (0.5, 0.84375),  # (1+r)*((1+r)/2)**(2r/(1-r)) is exact here
])
def test_lossless_fidelity_closed_algebra(r, expected):
    assert expected == pytest.approx((1 + r) * ((1 + r) / 2) ** (2 * r / (1 - r)), rel=1e-15)
    tau_max, fid = cf.exp_report(r, 0.0)
    assert math.isinf(tau_max)
    assert fid == pytest.approx(expected, rel=1e-14)


def test_exp_population_continuous_at_threshold():
    r, ki = 0.036, 1e-4
    tau_c = cf.exp_tau_c(r, ki)
    below = cf.exp_population(r, ki, tau_c * (1.0 - 1e-12))
    at = cf.exp_population(r, ki, tau_c)
    assert at == pytest.approx(below, rel=1e-9)
    # the threshold is defined by beta^2 * kappa_max = r_in
    assert at == pytest.approx(r * math.exp(-r * tau_c), rel=1e-14)


def test_exp_coupling_unit_at_threshold_then_decreasing():
    r, ki = 0.28, 2e-3
    tau_c = cf.exp_tau_c(r, ki)
    assert cf.exp_coupling(r, ki, tau_c) == 1.0
    taus = np.linspace(tau_c, tau_c + 40.0, 200)
    ks = np.array([cf.exp_coupling(r, ki, float(t)) for t in taus])
    assert np.all(ks <= 1.0 + 1e-12)
    assert np.all(np.diff(ks) < 0.0)


def test_exp_stage2_population_matches_quadrature():
    # beta^2(tau) = e^{-ki (tau-tau_c)} beta^2(tau_c)
    #             + int_tau_c^tau e^{-ki (tau-s)} r_in(s) ds
    r, ki = 0.14, 3e-3
    tau_c = cf.exp_tau_c(r, ki)
    seed = r * math.exp(-r * tau_c)
    for tau in (tau_c + 0.5, tau_c + 4.0, tau_c + 25.0):
        integral, _ = quad(lambda s: math.exp(-ki * (tau - s)) * r * math.exp(-r * s),
                           tau_c, tau, epsabs=1e-14, epsrel=1e-13)
        expect = math.exp(-ki * (tau - tau_c)) * seed + integral
        assert cf.exp_population(r, ki, tau) == pytest.approx(expect, rel=1e-12)


def test_exp_stage1_bookkeeping_ode():
    # r_in - d(beta^2)/dtau - ki*beta^2 must equal the reflected intensity
    # (sqrt(r_in) - beta)^2 with kappa = 1 and beta = -sqrt(beta^2).
    r, ki = 0.3, 5e-3
    tau_c = cf.exp_tau_c(r, ki)
    h = 1e-5
    for tau in (0.3 * tau_c, 0.6 * tau_c, 0.9 * tau_c):
        pop = cf.exp_population(r, ki, tau)
        dpop = (cf.exp_population(r, ki, tau + h)
                - cf.exp_population(r, ki, tau - h)) / (2.0 * h)
        r_in = r * math.exp(-r * tau)
        refl = (math.sqrt(r_in) - math.sqrt(pop)) ** 2
        assert r_in - dpop - ki * pop == pytest.approx(refl, abs=1e-8)


def test_exp_stage2_zero_reflection_ode():
    # in stage 2 the same balance closes with no reflected term
    r, ki = 0.3, 5e-3
    tau_c = cf.exp_tau_c(r, ki)
    h = 1e-5
    for tau in (tau_c + 1.0, tau_c + 6.0):
        dpop = (cf.exp_population(r, ki, tau + h)
                - cf.exp_population(r, ki, tau - h)) / (2.0 * h)
        r_in = r * math.exp(-r * tau)
        assert dpop == pytest.approx(r_in - ki * cf.exp_population(r, ki, tau), abs=1e-9)


def test_exp_peak_stationarity():
    r, ki = 0.036, 1e-4
    tau_max, fid = cf.exp_report(r, ki)
    assert tau_max > cf.exp_tau_c(r, ki)
    # peak condition: r_in(tau_max) = ki * beta^2(tau_max)
    assert r * math.exp(-r * tau_max) == pytest.approx(ki * fid, rel=1e-10)
    assert fid == pytest.approx(cf.exp_population(r, ki, tau_max), rel=1e-12)
    assert fid > cf.exp_population(r, ki, tau_max - 1.0)
    assert fid > cf.exp_population(r, ki, tau_max + 1.0)


def test_exp_population_approaches_lossless_fidelity():
    r = 0.2
    _, a1 = cf.exp_report(r, 0.0)
    assert cf.exp_population(r, 0.0, 200.0 / r) == pytest.approx(a1, rel=1e-10)


def test_degenerate_rate_equals_loss_stays_finite():
    # a1 and a2 diverge at r == kappa_i; the evaluators must not
    r = 0.3
    cst = cf.exp_constants(r, r)
    assert math.isinf(cst.a1) and math.isinf(cst.a2)
    tau_c = cf.exp_tau_c(r, r)
    assert tau_c == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
    for tau in (0.5, 2.0, 6.0):
        pop = cf.exp_population(r, r, tau)
        nearby = cf.exp_population(r, r * (1.0 - 1e-11), tau)
        assert pop == pytest.approx(nearby, rel=1e-9)
    assert cf.exp_coupling(r, r, tau_c) == 1.0
    assert 0.0 < cf.exp_coupling(r, r, tau_c + 3.0) < 1.0


def _decimal_exp_population(r: float, kappa_i: float, tau_c: float,
                            delta: float) -> float:
    """seed [e^{-kappa_i delta} + (e^{-r delta} - e^{-kappa_i delta}) /
    (kappa_i - r)], seed = r e^{-r tau_c}, in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        r_, k, d = Decimal(r), Decimal(kappa_i), Decimal(delta)
        seed = r_ * (-r_ * Decimal(tau_c)).exp()
        decay = (-k * d).exp()
        return float(seed * (decay + ((-r_ * d).exp() - decay) / (k - r_)))


def test_heavy_loss_population_does_not_overflow():
    """kappa_i > r: e^{(kappa_i - r) delta} overflows about 835 past tau_c
    at r = 0.05, kappa_i = 0.9, and the population takes the form with
    e^{-kappa_i delta} multiplied through; it used to raise OverflowError."""
    r, ki = 0.05, 0.9
    tau_c = cf.exp_tau_c(r, ki)
    profile = prof.exponential(r)
    assert cf.exp_population(r, ki, 15967.99) == 0.0
    assert proto._stage2_pop(profile, ki, tau_c, prof.rate_at(profile, tau_c),
                             15967.99) == 0.0
    tau = tau_c + 1000.0
    want = _decimal_exp_population(r, ki, tau_c, tau - tau_c)
    assert want == pytest.approx(9.9e-24, rel=0.01)
    assert cf.exp_population(r, ki, tau) == pytest.approx(want, rel=1e-12)
    # the division by r - kappa_i alone overflowed here: the population was nan
    tau = tau_c + 834.9
    assert cf.exp_population(r, ki, tau) == pytest.approx(
        _decimal_exp_population(r, ki, tau_c, tau - tau_c), rel=1e-12)


def test_heavy_loss_coupling_tends_to_the_loss_excess():
    r, ki = 0.05, 0.9
    tau_c = cf.exp_tau_c(r, ki)
    for delta in (834.9, 1000.0, 15967.99):
        kappa = cf.exp_coupling(r, ki, tau_c + delta)
        assert math.isfinite(kappa)
        assert kappa == pytest.approx(ki - r, rel=1e-14)


@pytest.mark.parametrize("r,ki", [(0.05, 0.9), (0.3, 0.5), (0.2, 1e-4)])
def test_forms_without_overflow_stay_bit_for_bit(r, ki):
    """Up to where e^{(kappa_i - r) delta} overflows, the coupling is the
    (1 + Phi) form, operation for operation, and so is the population
    wherever the decayed seed e^{-kappa_i delta} seed is a normal float.
    Where it is subnormal (kappa_i > r: 800 past tau_c at r = 0.05,
    kappa_i = 0.9), the population is the form with e^{-kappa_i delta}
    multiplied through, operation for operation."""
    tau_c = cf.exp_tau_c(r, ki)
    x = r - ki
    seed = r * math.exp(-r * tau_c)
    subnormal = []
    for delta in (0.0, 1e-3, 0.7, 5.0, 60.0, 400.0, 800.0):
        d = (tau_c + delta) - tau_c
        phi = -math.expm1(-x * d) / x
        assert math.isfinite(phi)
        decay = math.exp(-ki * d)
        if decay * seed >= sys.float_info.min:
            assert cf.exp_population(r, ki, tau_c + delta) == \
                decay * seed * (1.0 + phi)
        else:
            subnormal.append(delta)
            assert cf.exp_population(r, ki, tau_c + delta) == \
                seed * (decay + (math.exp(-r * d) - decay) / (ki - r))
        assert cf.exp_coupling(r, ki, tau_c + delta) == \
            math.exp(-x * d) / (1.0 + phi)
    assert subnormal == ([800.0] if (r, ki) == (0.05, 0.9) else [])


def test_heavy_loss_population_keeps_its_digits():
    """kappa_i > r: e^{-kappa_i delta} seed goes subnormal about 786 past
    tau_c at r = 0.05, kappa_i = 0.9, where the (1 + Phi) form kept ever
    fewer digits (0.8% off at 820, and 0.0 at 834 for 3.97e-20)."""
    r, ki = 0.05, 0.9
    tau_c = cf.exp_tau_c(r, ki)
    for delta in (786.0, 787.0, 800.0, 820.0, 834.0):
        tau = tau_c + delta
        assert cf.exp_population(r, ki, tau) == pytest.approx(
            _decimal_exp_population(r, ki, tau_c, tau - tau_c), rel=1e-14)


# ---------------------------------------------------------------------------
# Gaussian family
# ---------------------------------------------------------------------------

def test_gauss_constants_basic_shape():
    cst = cf.gauss_constants(SIGMA_OP, 4.0, 1e-4)
    assert cst.a == pytest.approx(0.5 * (1.0 + 1e-4))
    assert cst.b == pytest.approx(0.25 / SIGMA_OP**2)
    assert cst.tau0 == pytest.approx(4.0 * SIGMA_OP)
    assert 0.0 < cst.tau_c < cst.tau0


def test_gauss_threshold_identity():
    # just below tau_c the stage-1 bracket [...] equals 1, so beta^2 = r_in
    for sigma, ki in ((SIGMA_OP, 1e-4), (2.0, 1e-3), (0.8, 0.0)):
        cst = cf.gauss_constants(sigma, 4.0, ki)
        pop = cf.gauss_population(sigma, 4.0, ki, cst.tau_c * (1.0 - 1e-13))
        assert pop / cf.gauss_rate(sigma, 4.0, cst.tau_c) == pytest.approx(1.0, abs=1e-9)


def test_gauss_threshold_identity_wide_pulses():
    # wide pulses push the erf-form threshold equation into a regime where
    # erf saturates to 1.0 in double precision; the evaluation must survive it
    for sigma in (6.0, 8.0, 12.0, 20.0):
        cst = cf.gauss_constants(sigma, 4.0, 1e-5)
        pop = cf.gauss_population(sigma, 4.0, 1e-5, cst.tau_c * (1.0 - 1e-13))
        assert pop / cf.gauss_rate(sigma, 4.0, cst.tau_c) == pytest.approx(1.0, abs=1e-9)


def test_gauss_wide_pulse_threshold_pinned():
    # regression anchor for the saturation regime (peak rate 0.05)
    sigma = 1.0 / (0.05 * math.sqrt(2.0 * math.pi))
    cst = cf.gauss_constants(sigma, 4.0, 1e-5)
    assert cst.tau_c == pytest.approx(1.8218761646829067, abs=1e-9)


def test_gauss_coupling_unit_at_threshold():
    cst = cf.gauss_constants(SIGMA_OP, 4.0, 1e-4)
    assert cf.gauss_coupling(SIGMA_OP, 4.0, 1e-4, cst.tau_c) == pytest.approx(1.0, abs=1e-13)
    taus = np.linspace(cst.tau_c, cst.tau0 + 8.0 * SIGMA_OP, 300)
    ks = np.array([cf.gauss_coupling(SIGMA_OP, 4.0, 1e-4, float(t)) for t in taus])
    assert np.all(ks <= 1.0 + 1e-12)


def test_gauss_stage2_population_matches_quadrature():
    sigma, n, ki = SIGMA_OP, 4.0, 1e-4
    cst = cf.gauss_constants(sigma, n, ki)
    seed = cf.gauss_rate(sigma, n, cst.tau_c)
    for tau in (cst.tau_c + 1.0, cst.tau0, cst.tau0 + 3.0 * sigma):
        integral, _ = quad(
            lambda s: math.exp(-ki * (tau - s)) * cf.gauss_rate(sigma, n, s),
            cst.tau_c, tau, epsabs=1e-14, epsrel=1e-13)
        expect = math.exp(-ki * (tau - cst.tau_c)) * seed + integral
        assert cf.gauss_population(sigma, n, ki, tau) == pytest.approx(expect, rel=1e-12)


def test_gauss_peak_stationarity():
    sigma, n, ki = SIGMA_OP, 4.0, 1e-4
    tau_max, fid = cf.gauss_report(sigma, n, ki)
    cst = cf.gauss_constants(sigma, n, ki)
    assert tau_max > cst.tau0  # peak lies on the falling edge
    assert cf.gauss_rate(sigma, n, tau_max) == pytest.approx(ki * fid, rel=1e-9)
    assert fid == pytest.approx(cf.gauss_population(sigma, n, ki, tau_max), rel=1e-12)
    assert fid > cf.gauss_population(sigma, n, ki, tau_max - 1.0)
    assert fid > cf.gauss_population(sigma, n, ki, tau_max + 1.0)


def test_gauss_peak_past_the_horizon():
    """At kappa_i = 1e-26 the input rate falls below the intrinsic-loss rate
    only past tau0 + 10 sigma: the peak search doubles its window beyond
    that horizon, and the closed form agrees with the generic solver's
    exact tail (`protocol.CouplingSchedule._tail`)."""
    profile = prof.gaussian(r=0.1533, n=4)
    params = prof.MemoryParams(kappa_i=1e-26)
    tau_max, fid = cf.gauss_report(profile.sigma, profile.n, params.kappa_i)
    report = proto.peak_time_and_fidelity(
        profile, params, proto.build_schedule(profile, params))
    assert tau_max > prof.horizon(profile) + 2.0
    assert abs(tau_max - report.tau_max) <= 2e-16 * tau_max
    assert abs(fid - report.fidelity) <= 2e-16


def test_gauss_lossless_limit():
    tau_max, fid = cf.gauss_report(SIGMA_OP, 4.0, 0.0)
    assert math.isinf(tau_max)
    far = cf.gauss_population(SIGMA_OP, 4.0, 0.0, 4.0 * SIGMA_OP + 9.5 * SIGMA_OP)
    assert fid == pytest.approx(far, abs=1e-12)
    assert 0.99 < fid < 1.0


def test_gauss_stage2_coupling_positive_until_pop_collapses():
    # with kappa_i = 0 the population never collapses, coupling stays finite
    cst = cf.gauss_constants(2.0, 4.0, 0.0)
    k = cf.gauss_coupling(2.0, 4.0, 0.0, cst.tau0 + 12.0)
    assert k > 0.0


def test_singular_coupling_raised_when_population_exhausted():
    # heavy intrinsic loss drains the memory long after the pulse: the
    # stage-2 population underflows to zero and the coupling law must say so
    with pytest.raises(SingularCoupling):
        cf.gauss_coupling(2.0, 4.0, 0.9, 2000.0)


@pytest.fixture
def fresh_gauss_constants():
    cf.gauss_constants.cache_clear()
    yield
    cf.gauss_constants.cache_clear()


def test_same_sign_threshold_bracket_is_no_threshold(monkeypatch,
                                                     fresh_gauss_constants):
    # The search takes g(0) > 0 on trust; were g negative there, the bracket
    # [0, tau0 + 10 sigma] would have one sign, which the root search cannot
    # take. Each cell of a grid fails alone, with the scalar path's text.
    monkeypatch.setattr(cf, "_gauss_threshold_residual",
                        lambda a, b, tau0, tau: np.full_like(tau, -1.0))
    with pytest.raises(NoThreshold, match=r"does not change sign on the "
                       r"bracket \[0\.0, [0-9.]+\]") as raised:
        cf.gauss_constants(2.6, 4.0, 1e-4)
    *_, errors = cf.gauss_grid([2.6, 1.0, 2.6], 4.0, [1e-4, 1e-4, 1e-3])
    assert [type(e) for e in errors] == [NoThreshold] * 3
    assert str(errors[0]) == str(raised.value)


def test_same_sign_peak_bracket_is_no_peak(monkeypatch, fresh_gauss_constants):
    # The peak search takes h(tau_c) > 0 on trust in the same way.
    monkeypatch.setattr(cf, "_gauss_stage2", lambda *args: 1e300)
    with pytest.raises(NoPeak, match=r"does not change sign on the "
                       r"bracket \[[0-9.]+, [0-9.]+\]") as raised:
        cf.gauss_report(2.6, 4.0, 1e-4)
    tau_c, tau_max, fid, _, errors = cf.gauss_grid([2.6, 2.6], 4.0, [1e-4, 0.0])
    assert isinstance(errors[0], NoPeak) and str(errors[0]) == str(raised.value)
    assert math.isnan(tau_max[0]) and math.isfinite(tau_c[0])
    assert errors[1] is None and tau_max[1] == math.inf   # no peak search


def test_gauss_stage2_digit_loss_is_domain_error():
    # kappa_i*sigma = 7.0: both stage-2 erf values sit next to -1, and their
    # difference keeps no digit (this cell was a DomainError, hence the
    # name). The erfcx form matches the generic solver here.
    r, n, ki = 0.0404634, 3.0, 0.7109514
    tau_max, fid = cf.gauss_report(1.0 / (r * math.sqrt(2.0 * math.pi)), n, ki)
    slow = _generic_cell(prof.gaussian(r=r, n=n), ki)
    assert abs(fid - slow.fidelity) <= 1e-14
    assert abs(tau_max - slow.tau_max) <= 1e-12 * max(1.0, slow.tau_max)


def test_gauss_root_searches_take_few_residual_calls(monkeypatch,
                                                     fresh_gauss_constants):
    # Each root is searched on the bracket its residual's shape proves, with
    # no scan, for all cells of a grid at once: the sweep's default grid
    # takes at most 20 array evaluations of each residual (the grid scans
    # took up to 191 and 159 per cell, the per-cell brentq polishes up to 40).
    calls = {"threshold": 0, "peak": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cf, "_gauss_threshold_residual",
                        counted("threshold", cf._gauss_threshold_residual))
    monkeypatch.setattr(cf, "_gauss_stage2", counted("peak", cf._gauss_stage2))
    ki, r = (a.ravel() for a in np.meshgrid(DEFAULT_KAPPA_I_GRID, DEFAULT_R_GRID,
                                            indexing="ij"))
    *_, errors = cf.gauss_grid(1.0 / (r * math.sqrt(2.0 * math.pi)), 4.0, ki)
    assert errors == [None] * 1000
    # the peak's count also takes in F's and the loss budget's call
    assert calls["threshold"] <= 20 and calls["peak"] <= 20, calls


def _first_grid_root(f, lo, hi, xtol):
    """The root polished inside the first sign change of f, positive at lo,
    on an 8,193-point grid of [lo, hi]: the brackets' own oracle. f takes
    the grid as one array, and floats."""
    ts = np.linspace(lo, hi, 8193)
    k = int(np.argmax(f(ts[1:]) <= 0.0))    # the first grid point at or past 0
    assert f(ts[k + 1]) <= 0.0, "no sign change on the grid"
    return brentq(f, ts[k], ts[k + 1], xtol=xtol, rtol=8.9e-16, maxiter=200)


@settings(max_examples=30, deadline=None)
@given(r=st.floats(min_value=0.05, max_value=1.0),
       log_ki=st.floats(min_value=math.log(1e-5), max_value=math.log(1e-2)),
       n=st.floats(min_value=3.0, max_value=8.0))
def test_gauss_brackets_land_on_the_first_root(r, log_ki, n):
    # tau_c and tau_max are polished on the brackets the residuals' shapes
    # prove, [0, tau0 + 10 sigma] and the peak search's doubling window; each
    # lies within 2 (xtol + rtol |tau|) of the first root on a fine grid.
    sigma, ki = 1.0 / (r * math.sqrt(2.0 * math.pi)), math.exp(log_ki)
    cst = cf.gauss_constants(sigma, n, ki)
    end = cst.tau0 + 10.0 * sigma
    g = lambda t: cf._gauss_threshold_residual(cst.a, cst.b, cst.tau0, t)
    tau_c = _first_grid_root(g, 0.0, end, 1e-14)
    assert abs(cst.tau_c - tau_c) <= 2.0 * (1e-14 + 8.9e-16 * tau_c)
    tau_max, _ = cf.gauss_report(sigma, n, ki)
    # gauss_population on [tau_c, end], where it is the stage-2 form
    h = lambda t: cf.gauss_rate(sigma, n, t) \
        - ki * cf._gauss_stage2(sigma, n, ki, cst.tau_c, t)
    peak = _first_grid_root(h, cst.tau_c, end, 1e-12)
    assert abs(tau_max - peak) <= 2.0 * (1e-12 + 8.9e-16 * peak)


# ---------------------------------------------------------------------------
# Gaussian loss budget against quadrature
# ---------------------------------------------------------------------------

def _quad_pieces(f, a: float, b: float, width: float) -> float:
    """quad of f on equal pieces of [a, b] at most `width` wide, each at
    epsabs 1e-15: over a whole stage QUADPACK stalls on roundoff first."""
    m = max(1, math.ceil((b - a) / width))
    edges = np.linspace(a, b, m + 1).tolist()
    return sum(quad(f, lo, hi, limit=400, epsabs=1e-15, epsrel=2e-14)[0]
               for lo, hi in zip(edges, edges[1:]))


def _gauss_stage2_oracle(cst: cf.GaussConstants, tau: float) -> float:
    """Stage-2 beta^2 written apart from the library's form, with no erf at
    all. With g = e^{-(tau - tau0)^2/(2 sigma^2)}, b2 = (tau - tau0)/(sigma
    sqrt 2) - kappa_i sigma/sqrt 2, x, y = b2(tau), b2(tau_c), d = e^{-kappa_i
    (tau - tau_c)} g(tau_c) and w = e^{-kappa_i (tau - tau0) + kappa_i^2
    sigma^2/2} = e^{x^2} g(tau), it is d (r - erfcx(-y)/2) + erfcx(-x) g/2.
    Every erfcx of a positive argument is written by erfcx(-u) = 2 e^{u^2} -
    erfcx(u), so that no erfcx exceeds 1 (erfcx(-u) carries the rounding of
    u^2 times u^2, and d erfcx(-y) cancels against the rest for y > 0):
    y > 0 (so x >= y): d (r + erfcx(y)/2) - erfcx(x) g/2, as d e^{y^2} = w;
    y <= 0 < x: d (r - erfcx(-y)/2) + w - erfcx(x) g/2."""
    s, k = cst.sigma, cst.kappa_i
    b2 = lambda t: (t - cst.tau0) / (s * math.sqrt(2.0)) - k * s / math.sqrt(2.0)
    g = lambda t: math.exp(-0.5 * ((t - cst.tau0) / s) ** 2)
    r = 1.0 / (s * math.sqrt(2.0 * math.pi))
    x, y = b2(tau), b2(cst.tau_c)
    decay = math.exp(-k * (tau - cst.tau_c))
    if y > 0.0:
        return decay * (g(cst.tau_c) * (r + 0.5 * erfcx(y))) - 0.5 * erfcx(x) * g(tau)
    head = decay * (g(cst.tau_c) * (r - 0.5 * erfcx(-y)))
    if x <= 0.0:
        return head + 0.5 * erfcx(-x) * g(tau)
    w = math.exp(-k * (tau - cst.tau0) + 0.5 * (k * s) ** 2)
    return head + w - 0.5 * erfcx(x) * g(tau)


def _check_gauss_losses(r: float, ki: float, n: float) -> None:
    sigma = 1.0 / (r * math.sqrt(2.0 * math.pi))
    cst = cf.gauss_constants(sigma, n, ki)
    tau_max, fid = cf.gauss_report(sigma, n, ki)
    refl, intr, unabs = cf.gauss_losses(sigma, n, ki, tau_max)
    upper = tau_max if math.isfinite(tau_max) else cst.tau0 + 10.0 * sigma

    pop1 = lambda t: cf.gauss_population(sigma, n, ki, t)
    rate = lambda t: cf.gauss_rate(sigma, n, t)
    s1 = _quad_pieces(pop1, 0.0, cst.tau_c, sigma)
    want_refl = _quad_pieces(
        lambda t: (math.sqrt(rate(t)) - math.sqrt(pop1(t))) ** 2,
        0.0, cst.tau_c, sigma)
    s2 = _quad_pieces(lambda t: _gauss_stage2_oracle(cst, t),
                      cst.tau_c, upper, 2.0 * sigma)
    # before tau = 0 (the truncated head) and after the upper limit
    want_unabs = (_quad_pieces(rate, cst.tau0 - 40.0 * sigma, 0.0, 2.0 * sigma)
                  + _quad_pieces(rate, upper, cst.tau0 + 40.0 * sigma,
                                 2.0 * sigma))

    # the Kronrod sum's population is the one the oracle integrates, bit for
    # bit: one form, elementwise
    ts = np.linspace(0.0, cst.tau_c, 65)[1:-1]
    np.testing.assert_array_equal(cf._gauss_stage1(sigma, n, ki, ts),
                                  [pop1(t) for t in ts.tolist()])
    got_s1 = cf._gauss_stage1_integral(*(np.array([v]) for v in (sigma, n, ki,
                                                                 cst.tau_c)))
    assert got_s1[0] == pytest.approx(s1, rel=1e-13, abs=0.0)
    assert abs(refl - want_refl) <= 1e-13
    assert abs(unabs - want_unabs) <= 1e-13
    # The intrinsic loss takes beta^2(tau_max) from F, so that the budget
    # closes: it is held to its integral directly, and with F.
    assert abs(intr - ki * (s1 + s2)) <= 1e-13
    # With the oracle's population free of cancellation, 2,000 draws of the
    # hypothesis strategy below and the 24 corners reach 5.6e-16 here.
    want_fid = _gauss_stage2_oracle(cst, upper)
    assert abs((intr + fid) - (ki * (s1 + s2) + want_fid)) <= 1e-15


@pytest.mark.parametrize("n", [3.0, 4.0, 6.0, 8.0])
@pytest.mark.parametrize("ki", [0.0, DEFAULT_KAPPA_I_GRID[0], DEFAULT_KAPPA_I_GRID[-1]])
@pytest.mark.parametrize("r", [DEFAULT_R_GRID[0], DEFAULT_R_GRID[-1]])
def test_gauss_losses_match_quadrature_on_grid_corners(r, ki, n):
    _check_gauss_losses(r, ki, n)


@settings(max_examples=200, deadline=None)
@given(r=st.floats(min_value=0.005, max_value=3.0),
       log_ki=st.floats(min_value=math.log(1e-9), max_value=math.log(0.9)),
       n=st.sampled_from([3.0, 4.0, 6.0, 8.0]))
# one piece over [0, tau_c] missed S1 by 2.6e-10 here: beta's transient
@example(r=0.009765625, log_ki=-0.125, n=6.0)
def test_gauss_losses_match_quadrature(r, log_ki, n):
    _check_gauss_losses(r, math.exp(log_ki), n)


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(r=st.floats(min_value=0.02, max_value=1.0),
       ki=st.floats(min_value=0.0, max_value=9e-3))
def test_exp_threshold_and_coupling_properties(r, ki):
    tau_c = cf.exp_tau_c(r, ki)
    assert tau_c > 0.0
    # threshold identity
    assert cf.exp_population(r, ki, tau_c) == pytest.approx(
        r * math.exp(-r * tau_c), rel=1e-12)
    # physical coupling never exceeds the maximum
    for dt in (0.0, 0.7, 3.0, 11.0):
        assert cf.exp_coupling(r, ki, tau_c + dt) <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(sigma=st.floats(min_value=0.3, max_value=12.0),
       ki=st.floats(min_value=0.0, max_value=9e-3))
def test_gauss_threshold_properties(sigma, ki):
    cst = cf.gauss_constants(sigma, 4.0, ki)
    assert 0.0 < cst.tau_c < cst.tau0 + 10.0 * sigma
    pop = cf.gauss_population(sigma, 4.0, ki, cst.tau_c * (1.0 - 1e-13))
    assert pop / cf.gauss_rate(sigma, 4.0, cst.tau_c) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# erf and erfcx: closedform's own, held to scipy.special
# ---------------------------------------------------------------------------

# Against 40-digit mpmath on about 20,000 points each, closedform's erfcx was
# within 4 ulps on [0, 1e8] and its erf within 1 on [-40, 40]; scipy's within
# 8 and 2. So the bounds leave room for both sides' rounding.
ERFCX_ULPS = 10
ERF_ULPS = 4


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_erf_erfcx_match_scipy():
    """erfcx on [0, 1e8], log-spaced and uniform, and erf on [-40, 40] are
    scipy.special's within the stated ulps: the closed forms take erfcx of
    -x, x <= 0, but for the stage-1 bracket past tau0 + a/(2b)."""
    x = np.concatenate([np.geomspace(1e-300, 1e8, 150_001),
                        np.linspace(0.0, 1e8, 50_001),
                        np.linspace(0.0, 10.0, 100_001)])
    assert _ulps(cf.erfcx(x), erfcx(x)).max() <= ERFCX_ULPS
    tiny = np.geomspace(1e-300, 1.0, 50_001)
    x = np.concatenate([np.linspace(-40.0, 40.0, 400_001), tiny, -tiny])
    assert _ulps(cf.erf(x), erf(x)).max() <= ERF_ULPS


def test_erf_erfcx_special_values():
    """The limits exactly, nan for nan, and for a negative erfcx argument a
    positive value, inf past the float range, with no exception or
    warning."""
    assert cf.erfcx(0.0) == 1.0 and cf.erfcx(np.inf) == 0.0
    assert cf.erf(0.0) == 0.0 and cf.erf(np.inf) == 1.0 and cf.erf(-np.inf) == -1.0
    assert np.isnan(cf.erfcx(np.nan)) and np.isnan(cf.erf(np.nan))
    neg = -np.concatenate([np.geomspace(1e-300, 1e300, 1001), [np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = cf.erfcx(neg)
    assert np.all(values > 0.0)
    assert np.all(np.isfinite(values) | (values == np.inf))
    assert values[-1] == np.inf


def test_erf_erfcx_are_elementwise():
    """An element's value does not depend on the array around it (the grid's
    cells equal single cells bit for bit): each element of an array longer
    than one evaluation block, in any shape, equals the element alone; erf
    is odd bit for bit."""
    x = np.linspace(-9.0, 45.0, 3 * cf._BLOCK + 7)
    for f in (cf.erf, cf.erfcx):
        whole = f(x.reshape(5, -1)).ravel()
        assert np.array_equal(whole, np.concatenate(
            [f(x[i:i + 1000]) for i in range(0, x.size, 1000)]))
        assert np.array_equal(whole[::7], [f(float(v)) for v in x[::7]])
        assert isinstance(f(1.5), float) and f(x.reshape(5, -1)).shape == (5, x.size // 5)
    assert np.array_equal(cf.erf(-x), -cf.erf(x))
