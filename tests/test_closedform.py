"""Analytic two-stage solutions for exponential and Gaussian inputs.

The oracles here are deliberately independent of the implementation:
textbook algebra evaluated inline, direct quadrature of the stage-2
variation-of-constants integral, and finite-difference checks of the
energy-bookkeeping ODE.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from pulsecatch import closedform as cf
from pulsecatch.errors import DomainError, NoPeak, NoThreshold, SingularCoupling

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
    # The scan takes g(0) > 0 on trust; were g negative there, the bracket
    # [0, first grid point] would have one sign, which brentq rejects with
    # a bare ValueError.
    monkeypatch.setattr(cf, "_gauss_threshold_residual", lambda *args: -1.0)
    with pytest.raises(NoThreshold, match=r"does not change sign on the "
                       r"bracket \[0\.0, [0-9.]+\]"):
        cf.gauss_constants(2.6, 4.0, 1e-4)


def test_same_sign_peak_bracket_is_no_peak(monkeypatch, fresh_gauss_constants):
    # The peak scan takes h(tau_c) > 0 on trust in the same way.
    monkeypatch.setattr(cf, "_gauss_stage2", lambda *args: 1e300)
    with pytest.raises(NoPeak, match=r"does not change sign on the "
                       r"bracket \[[0-9.]+, [0-9.]+\]"):
        cf.gauss_report(2.6, 4.0, 1e-4)


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
