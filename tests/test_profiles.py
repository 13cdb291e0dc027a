"""Input-profile constructors, evaluation, normalization and parsing."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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

    # 1e-320: the horizon 50/r is inf
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e-320])
    def test_exponential_rejects_nonpositive_rate(self, bad):
        with pytest.raises(DomainError):
            prof.exponential(bad)

    def test_gaussian_peak_rate_sigma_round_trip(self):
        p = prof.gaussian(r=0.1533)
        assert p.sigma == pytest.approx(1.0 / (0.1533 * math.sqrt(2 * math.pi)), rel=1e-15)
        q = prof.gaussian(sigma=p.sigma)
        assert q.r == pytest.approx(0.1533, rel=1e-14)
        assert p.tau0 == pytest.approx(4.0 * p.sigma)

    # sigma = 1e-200 and r = 1e200: 1/(4 sigma^2) is inf, as sigma^2 is 0
    @pytest.mark.parametrize("bad", [
        {"sigma": 0.0}, {"sigma": -1.0}, {"sigma": math.nan},
        {"sigma": math.inf}, {"sigma": 1e-200},
        {"r": 0.0}, {"r": math.inf}, {"r": 1e200}])
    def test_gaussian_rejects_unrepresentable_width(self, bad):
        with pytest.raises(DomainError):
            prof.gaussian(**bad)

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
        """A float's value is its array value bit for bit, on each family."""
        taus = np.linspace(0.0, 30.0, 57)
        for p in (prof.exponential(0.17), prof.gaussian(sigma=1.4, n=4),
                  prof.tabulated(*_bump_table())):
            for f in (prof.rate_at, prof.cumulative):
                floats = np.array([f(p, float(t)) for t in taus])
                assert floats.tobytes() == f(p, taus).tobytes()

    def test_negative_time_rejected(self):
        p = prof.exponential(0.5)
        for call in (lambda: prof.rate_at(p, -0.1),
                     lambda: prof.rate_at(p, np.array([0.0, -1.0])),
                     lambda: prof.cumulative(p, -1.0),
                     lambda: prof.cumulative(p, np.array([0.0, -1.0])),
                     lambda: prof.total_excitation(p, -1.0)):
            with pytest.raises(DomainError):
                call()

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


def test_table_not_made_by_tabulated_evaluates():
    """`tabulated` loads scipy's PCHIP; a table made without it (here in a
    fresh interpreter, as an unpickled one would be) loads it on its first
    evaluation."""
    taus, rates = _bump_table(51)
    code = ("import sys, numpy as np; from pulsecatch import profiles as prof; "
            "p = prof.InputProfile(kind=prof.TABULATED, "
            "taus=np.linspace(0.0, 12.0, 51), rates=np.array(eval(sys.argv[1]))); "
            "print(repr(prof.rate_at(p, 5.3)))")
    src = str(Path(prof.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, repr(rates.tolist())],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == prof.rate_at(prof.tabulated(taus, rates), 5.3)


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
            "exp:r0.1",                  # item without '='
            "gauss:r=0.1,n4",            # second item without '='
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
    assert arr.tobytes() == scalars.tobytes()


@settings(deadline=None)
@given(family=st.sampled_from(["exp", "gauss"]),
       r=st.floats(min_value=1e-3, max_value=10.0),
       n=st.floats(min_value=3.0, max_value=8.0))
def test_validate_total_is_the_quadrature_of_rate_at(family, r, n):
    """`validate` takes an analytic family's normalization from its closed
    form (`cumulative` at inf); the quadrature of `rate_at` agrees with it."""
    p = prof.exponential(r) if family == "exp" else prof.gaussian(r=r, n=n)
    assert prof.validate(p).total == prof.cumulative(p, math.inf)
    assert abs(prof.validate(p).total
               - prof.total_excitation(p, math.inf)) <= 1e-12


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


def _scipy_pchip(p: prof.InputProfile):
    """The oracle: scipy's PCHIP through a table's samples, and its
    antiderivative."""
    from scipy.interpolate import PchipInterpolator
    with np.errstate(divide="ignore", over="ignore"):   # as `_pchip`
        pp = PchipInterpolator(p.taus, p.rates, extrapolate=False)
    return pp, pp.antiderivative()


# Tables the port must meet scipy on beyond the drawn ones: 2 and 3 knots,
# secant slopes in the denormal range, and zero runs at both ends.
_PCHIP_EXAMPLES = [
    ([0.0, 1.0], [0.25, 0.75]),
    ([0.5, 2.0], [1.0, 0.0]),
    ([0.0, 1.5, 2.0], [0.0, 1.0, 0.5]),
    ([0.0, 3.225580565561099, 6.451161131122198],
     [0.19930189806940551, 0.18743571933252437, 0.0]),
    ([0.0, 2.0, 4.0, 6.0], [0.0, 1e-308, 2e-308, 1.0]),
    ([0.0, 1.0, 2.0, 3.0, 4.0], [1e-308, 2e-308, 5e-324, 3e-308, 0.0]),
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 1.0, -0.0, 0.0, 0.0]),
]


def _coefs_are_scipys(p):
    for table, pp in zip((p._interp, p._interp_cum), _scipy_pchip(p)):
        assert table.knots.tobytes() == pp.x.tobytes()
        assert table.coefs.shape == pp.c.shape
        assert table.coefs.tobytes() == pp.c[::-1].tobytes()


@given(_tables())
def test_table_cubic_layout_is_scipys(p):
    """`knots` and `coefs` are scipy's PPoly x and its c reversed (row j the
    coefficients of (t - x_i)^j), bit for bit, for the cubic and its
    antiderivative; the antiderivative is 0.0 at the first knot, on a float
    and on an array."""
    _coefs_are_scipys(p)
    t0 = float(p.taus[0])
    assert _same_float(prof.cumulative(p, t0), 0.0)
    assert _same_float(float(prof.cumulative(p, np.array([t0]))[0]), 0.0)


def _array_path_is_scipys(p, rng):
    pp, cum = _scipy_pchip(p)
    t0, t1 = float(p.taus[0]), float(p.taus[-1])
    ts = np.concatenate([p.taus, rng.uniform(t0, t1, 500), [t1],
                         0.5 * (p.taus[1:] + p.taus[:-1])])
    for table, ref in ((p._interp, pp), (p._interp_cum, cum)):
        assert table(ts).tobytes() == ref(ts).tobytes()
        assert table(ts.reshape(-1, 1)).tobytes() == ref(ts).tobytes()
    assert prof.cumulative(p, ts).tobytes() == cum(ts).tobytes()
    want = pp(ts)
    assert prof.rate_at(p, ts).tobytes() \
        == np.where(want < 0.0, 0.0, want).tobytes()


@given(_tables(), st.integers(0, 2 ** 32 - 1))
def test_table_array_path_is_bitwise_scipy(p, seed):
    """`_Piecewise` evaluates arrays as scipy's PPoly does, bit for bit:
    the cubic and its antiderivative at every knot, between knots, at the
    last knot (in the closed last piece), in any shape; so do `rate_at`
    and `cumulative`."""
    _array_path_is_scipys(p, np.random.default_rng(seed))


@given(st.integers(1, 6), st.integers(1, 5), st.data())
def test_piecewise_evaluation_is_ppolys(pieces, order, data):
    """On any coefficients (signed zeros, subnormals and overflow among
    them) `_Piecewise` evaluates floats and arrays as scipy's PPoly: a sum
    that is -0.0 throughout reads +0.0, as its leading 0.0 + c_0 gives."""
    from scipy.interpolate import PPoly
    coef = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 5e-324,
                            -5e-324, 1e300, -1e300])
    coefs = np.array(data.draw(st.lists(
        st.lists(coef, min_size=pieces, max_size=pieces),
        min_size=order, max_size=order)))
    knots = np.concatenate([[0.0], np.cumsum(data.draw(st.lists(
        st.sampled_from([0.25, 1.0, 3.0]), min_size=pieces,
        max_size=pieces)))])
    table, pp = prof._Piecewise(knots, coefs), PPoly(coefs[::-1], knots)
    ts = np.concatenate([knots, 0.5 * (knots[1:] + knots[:-1])])
    with np.errstate(over="ignore", invalid="ignore"):
        want = pp(ts)
        assert table(ts).tobytes() == want.tobytes()
        assert np.array([table.at(t) for t in ts.tolist()]).tobytes() \
            == want.tobytes()


@pytest.mark.parametrize("taus, rates", _PCHIP_EXAMPLES)
def test_short_and_denormal_tables_are_scipys(taus, rates):
    p = prof.tabulated(taus, rates)
    _coefs_are_scipys(p)
    _array_path_is_scipys(p, np.random.default_rng(len(taus)))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("faint", [False, True])
def test_benchmark_tables_are_scipys(seed, faint):
    """The benchmark's two-hump tables, 1,501 knots each."""
    from test_protocol import _catch_table
    p = _catch_table(seed, faint)
    _coefs_are_scipys(p)
    _array_path_is_scipys(p, np.random.default_rng(seed))


@pytest.mark.parametrize("taus, rates", [
    ([0.0, 1.0, 2.0], [0.0, 1e308, 0.0]),
    ([0.0, 1e-308, 2e-308, 3.0], [0.0, 1.0, 0.0, 0.0]),
    ([0.0, 1e-309], [0.0, 1.0]),
])
def test_overflowing_slopes_are_scipys_error(taus, rates):
    """Samples whose knot slopes are not finite floats are a DomainError
    that carries scipy's ValueError text."""
    from scipy.interpolate import PchipInterpolator
    with np.errstate(all="ignore"), pytest.raises(ValueError) as want:
        PchipInterpolator(taus, rates, extrapolate=False)
    with pytest.raises(DomainError) as got:
        prof._pchip(taus, rates)
    assert str(got.value) == f"no PCHIP through these samples: {want.value}"


def test_tabulated_loads_scipy_interpolate():
    """A table loads no scipy module: not where it is made, not where its
    cubic and antiderivative are built and evaluated, on floats or arrays."""
    code = ("import sys; import numpy as np; "
            "from pulsecatch import profiles as prof; "
            "p = prof.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]); "
            "[f(p, t) for f in (prof.rate_at, prof.cumulative) "
            "for t in (0.5, np.array([0.5, 2.0]))]; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(prof.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e-300,
                                 math.inf, -math.inf]), max_size=30))
@example([0.0, -0.0, 0.0, -0.0])
@example([-0.0, 0.0, 3.0, 3.0])
@example([])
def test_unique_is_numpys(values):
    """`_unique` gives np.unique's array bit for bit (which zero of a run
    of ±0.0 it keeps included), on lists and arrays."""
    want = np.unique(np.array(values, dtype=float))
    assert prof._unique(values).tobytes() == want.tobytes()
    assert prof._unique(np.array(values, dtype=float)).tobytes() \
        == want.tobytes()


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
    pp, cum = _scipy_pchip(p)
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
