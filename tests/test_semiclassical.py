"""Classical output-nulling coupling law and its agreement with the
zero-reflection quantum schedule (lossless case)."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulsecatch import profiles as prof
from pulsecatch import semiclassical as sc
from pulsecatch.errors import DomainError, SingularCoupling


def _const_field(c: float = 0.5, a0: float = 0.8, tau_i: float = 1.0) -> sc.ClassicalField:
    return sc.ClassicalField(a_in=lambda s: c, cumulative=lambda s: c * c * s,
                             a0=a0, tau_i=tau_i)


def test_constant_field_closed_form():
    # A_in = c: population = a0^2 + c^2 (tau - tau_i), coupling is their ratio
    c, a0, t0 = 0.5, 0.8, 1.0
    f = _const_field(c, a0, t0)
    for tau in (1.0, 2.0, 7.5):
        pop = a0 * a0 + c * c * (tau - t0)
        assert sc.semiclassical_population(f, tau) == pytest.approx(pop, rel=1e-12)
        assert sc.semiclassical_coupling(f, tau) == pytest.approx(c * c / pop, rel=1e-12)
        assert sc.stored_amplitude(f, tau) == pytest.approx(-math.sqrt(pop), rel=1e-12)


def test_output_is_nulled():
    f = _const_field()
    for tau in (1.0, 3.0, 9.0):
        assert sc.output_amplitude(f, tau) == pytest.approx(0.0, abs=1e-12)
    g = sc.field_from_profile(prof.gaussian(sigma=1.5, n=4), 2.0, 0.3)
    for tau in (2.0, 5.0, 8.0):
        assert sc.output_amplitude(g, tau) == pytest.approx(0.0, abs=1e-12)


def test_zero_stored_power_is_an_error():
    f = sc.ClassicalField(a_in=lambda s: 0.0, cumulative=lambda s: 0.0,
                          a0=0.0)
    with pytest.raises(SingularCoupling, match="stored power is zero"):
        sc.semiclassical_coupling(f, 2.0)


def test_negative_seed_rejected():
    with pytest.raises(DomainError):
        sc.ClassicalField(a_in=lambda s: 1.0, cumulative=lambda s: s, a0=-0.1)


def test_field_needs_its_cumulative():
    with pytest.raises(TypeError):
        sc.ClassicalField(a_in=lambda s: 1.0, a0=0.5)


def test_power_integral_domain():
    f = _const_field(tau_i=2.0)
    with pytest.raises(DomainError):
        f.power_integral(1.0)
    assert f.power_integral(2.0) == 0.0


def test_power_integral_memoization_consistency():
    # a field keeps no state: sweeping forward, moving backward and fresh
    # fields all give cumulative(tau) - cumulative(tau_i), bit for bit
    p = prof.gaussian(sigma=1.2, n=4)
    swept = sc.field_from_profile(p, 0.0, 0.1)
    taus = np.linspace(0.5, 11.0, 24).tolist()
    want = [prof.cumulative(p, t) - prof.cumulative(p, 0.0) for t in taus]
    assert [swept.power_integral(t) for t in taus] == want
    assert [swept.power_integral(t) for t in taus[::-1]] == want[::-1]
    assert [sc.field_from_profile(p, 0.0, 0.1).power_integral(t)
            for t in taus] == want


def test_field_from_profile_breakpoints():
    # A_in is sqrt(r_in) and the power integral the cumulative's difference,
    # across a Gaussian's centre and a table's knots
    gp = prof.gaussian(sigma=2.0, n=4)
    g = sc.field_from_profile(gp, 0.0, 0.0)
    tab = prof.tabulated([0.0, 1.0, 2.0], [0.2, 0.6, 0.2])
    t = sc.field_from_profile(tab, 0.0, 0.0)
    for p, f, taus in ((gp, g, (3.0, 8.0, 12.5)), (tab, t, (0.5, 1.0, 2.0))):
        for tau in taus:
            assert f.a_in(tau) == math.sqrt(prof.rate_at(p, tau))
            assert f.power_integral(tau) == \
                prof.cumulative(p, tau) - prof.cumulative(p, 0.0)
    assert t.a_in(1.0) == pytest.approx(math.sqrt(0.6), rel=1e-12)


@pytest.mark.parametrize("make,bound", [
    (lambda: prof.exponential(0.036), 1e-9),
    (lambda: prof.gaussian(r=0.1533, n=4), 1e-9),
])
def test_quantum_agreement_analytic_families(make, bound):
    assert sc.compare_with_full_quantum(make()) <= bound


def test_comparison_of_no_sample_is_inf():
    # kappa_scale = 0 zeroes every quantum coupling, so no sample has a
    # relative deviation: the comparison must fail, not return 0
    assert sc.compare_with_full_quantum(prof.exponential(0.2),
                                        kappa_scale=0.0) == math.inf


def test_quantum_agreement_tabulated():
    r = 0.2
    taus = np.linspace(0.0, prof.horizon(prof.exponential(r)), 6001)
    table = prof.tabulated(taus, r * np.exp(-r * taus))
    assert sc.compare_with_full_quantum(table) <= 1e-6


@settings(max_examples=30, deadline=None)
@given(split=st.floats(min_value=1.1, max_value=9.9),
       end=st.floats(min_value=10.0, max_value=14.0))
def test_power_integral_additivity(split, end):
    # int_{tau_i}^{end} = int_{tau_i}^{split} + int_{split}^{end}, evaluated
    # through independent field objects
    p = prof.gaussian(sigma=1.0, n=5)
    head = sc.field_from_profile(p, 1.0, 0.0).power_integral(split)
    tail = sc.field_from_profile(p, split, 0.0).power_integral(end)
    whole = sc.field_from_profile(p, 1.0, 0.0).power_integral(end)
    assert head + tail == pytest.approx(whole, abs=5e-11)


def _two_humps() -> prof.InputProfile:
    """A faint early hump and the main one, 301 knots on [0, 30]."""
    taus = np.linspace(0.0, 30.0, 301)
    rates = 0.04 * np.exp(-0.5 * ((taus - 4.0) / 1.1) ** 2) \
        + 0.96 * np.exp(-0.5 * (taus - 19.0) ** 2)
    return prof.tabulated(taus, rates / np.trapezoid(rates, taus))


@pytest.mark.parametrize("make", [
    lambda: prof.exponential(0.036),
    lambda: prof.gaussian(r=0.1533, n=4),
    _two_humps,
], ids=["exp", "gauss", "table"])
def test_power_integral_from_cumulative_matches_quadrature(make):
    """`field_from_profile` differences `profiles.cumulative`; the
    quadrature of A_in^2 over the same interval, split where r_in is not
    smooth, agrees within 1e-13."""
    p = make()
    end = prof.horizon(p)
    for tau_i in (0.0, 0.3 * end):
        field = sc.field_from_profile(p, tau_i, 0.2)
        for tau in np.linspace(tau_i, end, 17)[1:].tolist():
            breaks = list(prof._interior_breaks(p, tau_i, tau))
            quad = prof._quad_chunked(lambda s: field.a_in(s) ** 2, tau_i,
                                      tau, breaks)
            assert field.power_integral(tau) == pytest.approx(quad, abs=1e-13)
