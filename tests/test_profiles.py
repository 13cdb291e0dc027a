"""Input-profile constructors, evaluation, normalization and parsing."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pulsecatch import profiles as prof
from pulsecatch.errors import DomainError


def _bump_table(n_samples: int = 401, center: float = 5.0, width: float = 1.2):
    """Smooth normalized single-bump table on [0, 12]."""
    taus = np.linspace(0.0, 12.0, n_samples)
    rates = np.exp(-0.5 * ((taus - center) / width) ** 2)
    rates /= np.trapezoid(rates, taus)
    return taus, rates


class TestConstructors:
    def test_exponential_stores_rate(self):
        p = prof.exponential(0.25)
        assert p.kind == prof.EXPONENTIAL
        assert p.r == 0.25
        assert p.sigma is None and p.taus is None

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_exponential_rejects_nonpositive_rate(self, bad):
        with pytest.raises(DomainError):
            prof.exponential(bad)

    def test_gaussian_peak_rate_sigma_round_trip(self):
        p = prof.gaussian(r=0.1533)
        assert p.sigma == pytest.approx(1.0 / (0.1533 * math.sqrt(2 * math.pi)), rel=1e-15)
        q = prof.gaussian(sigma=p.sigma)
        assert q.r == pytest.approx(0.1533, rel=1e-14)
        assert p.tau0 == pytest.approx(4.0 * p.sigma)

    def test_gaussian_requires_exactly_one_of_r_sigma(self):
        with pytest.raises(DomainError):
            prof.gaussian()
        with pytest.raises(DomainError):
            prof.gaussian(r=0.1, sigma=2.0)

    @pytest.mark.parametrize("n", [2.9, 0.0, -4.0, math.nan])
    def test_gaussian_offset_floor(self, n):
        with pytest.raises(DomainError):
            prof.gaussian(r=0.2, n=n)

    def test_gaussian_default_offset_is_four_sigma(self):
        assert prof.gaussian(r=0.2).n == 4.0
        assert prof.gaussian(r=0.2, n=5).n == 5.0

    def test_tau0_undefined_off_gaussian(self):
        with pytest.raises(DomainError):
            prof.exponential(0.1).tau0

    def test_tabulated_accepts_negative_rates_for_validate(self):
        # Construction succeeds; `validate` is the layer that names the violation.
        p = prof.tabulated([0.0, 1.0, 2.0], [0.5, -0.1, 0.5])
        assert not prof.validate(p).ok

    @pytest.mark.parametrize(
        "taus,rates",
        [
            ([0.0], [1.0]),                       # too few samples
            ([0.0, 1.0], [1.0, 2.0, 3.0]),        # shape mismatch
            ([0.0, 1.0, 1.0], [0.1, 0.2, 0.3]),   # not strictly increasing
            ([-0.5, 1.0], [0.1, 0.2]),            # negative start
            ([0.0, math.inf], [0.1, 0.2]),        # non-finite tau
            ([0.0, 1.0], [0.1, math.nan]),        # non-finite rate
        ],
    )
    def test_tabulated_rejects_bad_samples(self, taus, rates):
        with pytest.raises(DomainError):
            prof.tabulated(taus, rates)

    def test_tabulated_arrays_are_frozen(self):
        p = prof.tabulated([0.0, 1.0, 2.0], [0.2, 0.6, 0.2])
        with pytest.raises(ValueError):
            p.taus[0] = 5.0


class TestMemoryParams:
    def test_defaults(self):
        params = prof.MemoryParams(kappa_i=1e-4)
        assert params.kappa_i == 1e-4

    @pytest.mark.parametrize("ki", [-1e-9, 1.0, 2.0])
    def test_kappa_i_range(self, ki):
        with pytest.raises(DomainError):
            prof.MemoryParams(kappa_i=ki)


class TestEvaluation:
    def test_exponential_rate_and_cumulative(self):
        p = prof.exponential(0.3)
        assert prof.rate_at(p, 0.0) == pytest.approx(0.3)
        assert prof.rate_at(p, 2.0) == pytest.approx(0.3 * math.exp(-0.6), rel=1e-15)
        assert prof.cumulative(p, 2.0) == pytest.approx(1.0 - math.exp(-0.6), rel=1e-14)

    def test_gaussian_rate_peaks_at_center(self):
        p = prof.gaussian(sigma=2.0, n=4)
        assert prof.rate_at(p, p.tau0) == pytest.approx(p.r, rel=1e-15)
        assert prof.rate_at(p, p.tau0 + 2.0) == pytest.approx(p.r * math.exp(-0.5), rel=1e-14)

    def test_scalar_and_array_paths_agree(self):
        taus = np.linspace(0.0, 30.0, 57)
        for p in (prof.exponential(0.17), prof.gaussian(sigma=1.4, n=4),
                  prof.tabulated(*_bump_table())):
            arr_rate = prof.rate_at(p, taus)
            arr_cum = prof.cumulative(p, taus)
            for i, t in enumerate(taus):
                assert prof.rate_at(p, float(t)) == pytest.approx(arr_rate[i], abs=1e-15)
                assert prof.cumulative(p, float(t)) == pytest.approx(arr_cum[i], abs=1e-13)

    def test_negative_time_rejected(self):
        p = prof.exponential(0.5)
        with pytest.raises(DomainError):
            prof.rate_at(p, -0.1)
        with pytest.raises(DomainError):
            prof.cumulative(p, np.array([0.0, -1.0]))

    def test_tabulated_vanishes_outside_support(self):
        p = prof.tabulated([1.0, 2.0, 3.0], [0.5, 1.0, 0.5])
        assert prof.rate_at(p, 0.5) == 0.0
        assert prof.rate_at(p, 4.0) == 0.0
        out = prof.rate_at(p, np.array([0.0, 2.0, 10.0]))
        assert out[0] == 0.0 and out[2] == 0.0 and out[1] > 0.0

    def test_horizon_per_family(self):
        assert prof.horizon(prof.exponential(0.1)) == pytest.approx(500.0)
        g = prof.gaussian(sigma=2.0, n=4)
        assert prof.horizon(g) == pytest.approx(g.tau0 + 20.0)
        t = prof.tabulated([0.0, 4.5, 9.0], [0.1, 0.2, 0.1])
        assert prof.horizon(t) == 9.0

    def test_cumulative_matches_quadrature(self):
        # cumulative() is analytic (or an exact antiderivative); total_excitation()
        # integrates numerically. They must agree without sharing code.
        for p in (prof.exponential(0.45), prof.gaussian(r=0.1533, n=4),
                  prof.tabulated(*_bump_table())):
            for t in (0.7, 3.0, prof.horizon(p)):
                assert prof.total_excitation(p, t) == pytest.approx(
                    prof.cumulative(p, t), abs=5e-11)


class TestValidate:
    def test_exponential_is_normalized(self):
        rep = prof.validate(prof.exponential(0.036))
        assert rep.ok
        assert rep.total == pytest.approx(1.0, abs=1e-9)
        assert rep.deficit_bound == 0.0

    def test_gaussian_truncation_deficit_band(self):
        rep = prof.validate(prof.gaussian(r=0.1533, n=4))
        assert rep.ok
        deficit = 1.0 - rep.total
        assert 0.0 < deficit <= rep.deficit_bound + 1e-12
        assert rep.deficit_bound == pytest.approx(0.5 * math.erfc(4.0 / math.sqrt(2.0)))

    def test_unnormalized_table_flagged(self):
        taus, rates = _bump_table()
        rep = prof.validate(prof.tabulated(taus, 3.0 * rates))
        assert not rep.ok
        assert any("normalization" in f for f in rep.failures)

    def test_negative_table_flagged_by_name(self):
        p = prof.tabulated([0.0, 1.0, 2.0, 3.0], [0.4, -0.05, 0.4, 0.25])
        rep = prof.validate(p)
        assert "nonnegativity" in rep.failures


class TestParsing:
    def test_exp_literal(self):
        p = prof.parse_profile("exp:r=0.036")
        assert p.kind == prof.EXPONENTIAL and p.r == 0.036

    def test_gauss_literal_variants(self):
        p = prof.parse_profile("gauss:r=0.1533,n=4")
        assert p.kind == prof.GAUSSIAN and p.n == 4.0
        q = prof.parse_profile(f"gauss:sigma={p.sigma}")
        assert q.r == pytest.approx(p.r, rel=1e-15)

    def test_table_literal_with_header(self, tmp_path):
        taus, rates = _bump_table(51)
        path = tmp_path / "pulse.csv"
        lines = ["tau,r_in"] + [f"{t},{v}" for t, v in zip(taus, rates)]
        path.write_text("\n".join(lines) + "\n")
        p = prof.parse_profile(f"table:{path}")
        assert p.kind == prof.TABULATED
        assert p.taus.size == 51
        np.testing.assert_allclose(p.rates, rates)

    @pytest.mark.parametrize(
        "text",
        [
            "exp",                       # no separator
            "exp:r=fast",                # bad number
            "exp:r=0.1,n=4",             # stray key
            "exp:",                      # missing key
            "gauss:r=0.1,sigma=2",       # over-determined
            "gauss:mu=3",                # unknown key
            "lorentz:r=0.1",             # unknown family
            "table:/nonexistent/x.csv",  # missing file
        ],
    )
    def test_malformed_literals(self, text):
        with pytest.raises(DomainError):
            prof.parse_profile(text)

    def test_table_with_garbage_row_fails(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.5\noops,0.5\n1.0,0.5\n")
        with pytest.raises(DomainError):
            prof.parse_profile(f"table:{path}")

    def test_table_too_short(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("tau,r_in\n0.0,1.0\n")
        with pytest.raises(DomainError):
            prof.parse_profile(f"table:{path}")


@given(r=st.floats(min_value=1e-3, max_value=10.0))
def test_exponential_cumulative_saturates(r):
    p = prof.exponential(r)
    h = prof.horizon(p)
    assert prof.cumulative(p, h) == pytest.approx(1.0, abs=1e-12)
    # monotone in tau
    ts = np.linspace(0.0, h, 64)
    assert np.all(np.diff(prof.cumulative(p, ts)) >= 0.0)


@given(sigma=st.floats(min_value=0.05, max_value=20.0),
       n=st.floats(min_value=3.0, max_value=8.0))
def test_gaussian_scalar_array_consistency(sigma, n):
    p = prof.gaussian(sigma=sigma, n=n)
    ts = np.linspace(0.0, prof.horizon(p), 33)
    arr = prof.rate_at(p, ts)
    scalars = np.array([prof.rate_at(p, float(t)) for t in ts])
    # math.exp and np.exp may round the last bit differently
    np.testing.assert_allclose(arr, scalars, rtol=5e-16, atol=0.0)


@given(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=3, max_size=12))
# A secant slope of 5e-309 overflows scipy's harmonic mean of the knot slopes.
@example(raw_rates=[0.0, 1e-308, 2e-308, 1.0])
def test_tabulated_cumulative_monotone(raw_rates):
    taus = np.linspace(0.0, 6.0, len(raw_rates))
    p = prof.tabulated(taus, raw_rates)
    ts = np.linspace(0.0, 7.0, 40)
    cums = prof.cumulative(p, ts)
    assert np.all(np.diff(cums) >= -1e-12)
    assert cums[0] == 0.0
    rates = prof.rate_at(p, np.concatenate([ts, taus]))
    assert np.all(np.isfinite(rates)) and np.all(rates >= 0.0)


@st.composite
def _tables(draw):
    """Tables with runs of equal rates (zero runs among them, of either
    sign), tiny and subnormal rates, and uneven knot spacing."""
    runs = draw(st.lists(
        st.tuples(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 2.0)),
                  st.integers(1, 4)),
        min_size=1, max_size=12))
    rates = [v for v, k in runs for _ in range(k)]
    if len(rates) < 2:
        rates.append(draw(st.floats(0.0, 2.0)))
    gaps = draw(st.lists(st.floats(1e-3, 3.0), min_size=len(rates) - 1,
                         max_size=len(rates) - 1))
    start = draw(st.floats(0.0, 5.0))
    return prof.tabulated(start + np.concatenate([[0.0], np.cumsum(gaps)]),
                          rates)


def _same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@given(_tables())
@example(prof.tabulated([0.0, 2.0, 4.0, 6.0], [0.0, 1e-308, 2e-308, 1.0]))
@example(prof.tabulated([0.0, 3.0, 6.0], [1.71875, 0.5, 0.0]))
def test_table_float_path_is_bitwise_scipy(p):
    """The float path of rate_at and cumulative on a table reproduces the
    scipy PPoly evaluation bit for bit: at every knot (the last one is in
    the closed last piece), one ulp either side of it and between knots.
    rate_at reads rounding negatives as 0, on both paths."""
    pp, cum = p._interp.pp, p._interp_cum.pp
    knots = p.taus.tolist()
    t0, t1 = knots[0], knots[-1]
    mids = (0.5 * (p.taus[1:] + p.taus[:-1])).tolist()
    probes = knots + mids + [math.nextafter(t, d) for t in knots
                             for d in (-math.inf, math.inf)]
    probes = [t for t in probes if t >= 0.0]
    arr = prof.rate_at(p, np.array(probes))
    for t, from_array in zip(probes, arr.tolist()):
        got = prof.rate_at(p, t)
        assert _same_float(got, from_array), t
        c = min(max(t, t0), t1)
        assert _same_float(prof.cumulative(p, t), float(cum(c) - cum(t0))), t
        if t < t0 or t > t1:
            assert got == 0.0
            continue
        want = float(pp(t))
        assert _same_float(p._interp.at(t), want), t
        assert _same_float(got, 0.0 if want < 0.0 else want), t
        assert _same_float(p._interp_cum.at(t), float(cum(t))), t
