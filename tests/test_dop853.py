"""The package's solve_ivp against scipy's DOP853 with dense output: the
same tableau, last step, final state, dense output at the samples and
right-hand-side count bit for bit, on every solve the simulators make and
on random linear systems, and the same failure."""
from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from scipy.integrate._ivp import dop853_coefficients

from pulsecatch import _dop853, _scipy, cli, dynamics
from pulsecatch import profiles as prof
from pulsecatch import protocol as proto

EXP = prof.exponential(0.036)
GAUSS = prof.gaussian(r=0.1533, n=4)
LOSSY = prof.MemoryParams(kappa_i=1e-4)


def _two_humps() -> prof.InputProfile:
    """A faint early hump and the main one, 301 knots on [0, 30]."""
    taus = np.linspace(0.0, 30.0, 301)
    rates = 0.04 * np.exp(-0.5 * ((taus - 4.0) / 1.1) ** 2) \
        + 0.96 * np.exp(-0.5 * ((taus - 19.0) / 1.0) ** 2)
    return prof.tabulated(taus, rates / np.trapezoid(rates, taus))


def test_tableau_equals_scipys():
    """The committed constants are the slices scipy's DOP853 reads from its
    coefficient file, in shape, value and sign bit."""
    c, n = dop853_coefficients, dop853_coefficients.N_STAGES
    assert (_dop853.N_STAGES, _dop853.N_STAGES_EXTENDED,
            _dop853.INTERPOLATOR_POWER) == (12, 16, 7) \
        == (n, c.N_STAGES_EXTENDED, c.INTERPOLATOR_POWER)
    slices = dict(A=c.A[:n, :n], B=c.B, C=c.C[:n], E3=c.E3, E5=c.E5, D=c.D,
                  A_EXTRA=c.A[n + 1:], C_EXTRA=c.C[n + 1:])
    for name, want in slices.items():
        got = getattr(_dop853, name)
        assert got.dtype == want.dtype == np.float64, name
        assert got.shape == want.shape, name
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


def _scipys(fun, t_span, y0, **kwargs):
    """scipy's solve_ivp on the path the port always takes."""
    return scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853",
                                     dense_output=True, **kwargs)


def _assert_same(got, want, samples, again) -> None:
    """The port's run `got` with `samples` is scipy's run `want`: status,
    message, nfev, the last step's end and state, and the values at the
    samples as `want.sol` reads them (those the run reached). `again(ts)`,
    a second port run, reads them at scipy's step ends, at its step
    midpoints and just past its step ends."""
    assert (got.status, got.message, got.nfev) == \
        (want.status, want.message, want.nfev)
    assert got.t == want.t[-1]
    assert got.y.dtype == want.y.dtype and np.array_equal(got.y,
                                                          want.y[:, -1])
    reached = samples <= want.t[-1]
    assert got.values.dtype == want.y.dtype
    assert got.values.shape == (len(want.y), len(samples))
    assert np.array_equal(got.values[:, reached], want.sol(samples[reached]))
    inner = 0.5 * (want.t[:-1] + want.t[1:])
    ts = np.concatenate([want.t, inner, np.nextafter(want.t, np.inf)])
    ts = np.sort(ts[ts <= want.t[-1]])
    assert np.array_equal(again(ts).values, want.sol(ts))


def _run(fun, t_span, y0, samples, **kwargs):
    """`_assert_same`'s arguments for one solve."""
    again = functools.partial(_scipy.solve_ivp, fun, t_span, y0, **kwargs)
    return again(samples), _scipys(fun, t_span, y0, **kwargs), samples, again


@pytest.fixture
def both(monkeypatch):
    """Make `dynamics` solve with the port and with scipy; each solve is
    recorded as `_assert_same`'s arguments and the port's result is used."""
    runs = []

    def solve(fun, t_span, y0, samples, **kwargs):
        runs.append(_run(fun, t_span, y0, samples, **kwargs))
        return runs[-1][0]

    monkeypatch.setattr(dynamics, "solve_ivp", solve)
    return runs


def _coupling(tmp_path, kind):
    """The coupling `simulate --kappa <kind>` builds, and its tau_end."""
    if kind == "const":
        kappa, _ = cli._parse_kappa_override("const:0.05")
        return kappa, prof.horizon(EXP)
    assert cli.main(["schedule", "--profile", "exp:r=0.036", "--kappa-i",
                     "1e-4", "--out", str(tmp_path / "s")]) == 0
    return cli._parse_kappa_override(f"file:{tmp_path / 's.csv'}")


@pytest.mark.parametrize("case", ["exp", "gauss", "table", "const", "file"])
def test_amplitude_solves_equal_scipys(case, both, tmp_path):
    """Every segment between the coupling's breaks that
    `simulate_amplitudes` solves at `simulate`'s default tolerance (1e-9 on
    the table), the Gaussian's with its step cap."""
    profile = {"gauss": GAUSS, "table": _two_humps()}.get(case, EXP)
    if case in ("const", "file"):
        coupling, tau_end = _coupling(tmp_path, case)
    else:
        coupling = proto.build_schedule(profile, LOSSY)
        tau_end = coupling.horizon
    dynamics.simulate_amplitudes(profile, LOSSY, coupling, tau_end,
                                 1e-9 if case == "table" else 1e-11)
    assert both
    caps = {again.keywords["max_step"] for *_, again in both}
    assert (caps != {math.inf}) == (case == "gauss")
    for run in both:
        _assert_same(*run)


def test_master_equation_solves_equal_scipys(both):
    """The complex 9-vector state, as `verify master-equation` solves it."""
    schedule = proto.build_schedule(EXP, LOSSY)
    dynamics.simulate_master_equation(EXP, LOSSY, schedule, 120.0,
                                      tol=1e-10)
    assert both and all(got.y.dtype == complex for got, *_ in both)
    for run in both:
        _assert_same(*run)


def _linear(m: np.ndarray, b: np.ndarray):
    return lambda t, y: m @ y + b * math.sin(t)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), complex_=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1),
       rtol=st.sampled_from([1e-12, 1e-10, 1e-7, 1e-4]),
       max_step=st.sampled_from([math.inf, 0.37, 3.0]),
       end=st.floats(0.01, 30.0))
def test_linear_systems_equal_scipys(n, complex_, seed, rtol, max_step, end):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) - 1.5 * np.eye(n)
    b = rng.normal(size=n)
    y0 = rng.normal(size=n)
    if complex_:
        m = m + 1j * rng.normal(size=(n, n))
        y0 = y0 + 1j * rng.normal(size=n)
    samples = np.sort(np.concatenate([[0.0, end], rng.uniform(0.0, end, 5)]))
    _assert_same(*_run(_linear(m, b), (0.0, end), y0, samples, rtol=rtol,
                       atol=rtol * 1e-3, max_step=max_step))


def _nan_past_1(t, y):
    return [math.nan if t > 1.0 else -y[0]]


def test_failed_step_equals_scipys():
    """A right-hand side that turns nan past t = 1: the steps shrink onto 1
    until one is below the spacing of the floats there."""
    run = _run(_nan_past_1, (0.0, 5.0), np.array([1.0]),
               np.linspace(0.0, 5.0, 11), rtol=1e-10, atol=1e-13)
    got = run[0]
    assert got.status == -1 and got.t < 1.0
    assert got.message == "Required step size is less than spacing between " \
                          "numbers."
    _assert_same(*run)


def test_samples_on_step_ends_take_the_step_ending_there():
    """A sample at t0 takes the first step's interpolant, and one on a step
    end the interpolant of the step that ends there. No samples give an
    empty `values`, and a failed run ends at its last accepted step."""
    fun = lambda t, y: -y + np.sin(3.0 * t)
    kwargs = dict(rtol=1e-6, atol=1e-9)
    want = _scipys(fun, (0.0, 10.0), np.array([1.0]), **kwargs)
    ends, pieces = want.t, want.sol.interpolants
    got = _scipy.solve_ivp(fun, (0.0, 10.0), np.array([1.0]), ends, **kwargs)
    ending = [pieces[0](ends[:1])] + [p(ends[k + 1:k + 2])
                                      for k, p in enumerate(pieces)]
    assert np.array_equal(got.values, np.hstack(ending))

    empty = _scipy.solve_ivp(fun, (0.0, 10.0), np.array([1.0]), [], **kwargs)
    assert empty.values.shape == (1, 0)
    assert (empty.t, empty.nfev) == (got.t, got.nfev)
    assert np.array_equal(empty.y, got.y)

    failed = _scipy.solve_ivp(_nan_past_1, (0.0, 5.0), np.array([1.0]),
                              [0.0, 0.5, 2.0], **kwargs)
    want = _scipys(_nan_past_1, (0.0, 5.0), np.array([1.0]), **kwargs)
    assert failed.status == -1 and failed.t == want.t[-1] < 1.0
    assert np.array_equal(failed.y, want.y[:, -1])
    assert np.array_equal(failed.values[:, :2], want.sol([0.0, 0.5]))


@pytest.mark.parametrize("kwargs", [
    dict(method="RK45"),
    dict(dense_output=False),
    dict(t_eval=[0.5]),
    dict(events=lambda t, y: y[0]),
    dict(first_step=0.1),
    dict(vectorized=True),
], ids=["rk45", "no-dense", "t_eval", "events", "first_step", "vectorized"])
def test_what_is_not_ported_is_a_type_error(kwargs):
    """The port is always DOP853 with dense output and takes no argument
    to choose otherwise: each of these is an unexpected keyword."""
    with pytest.raises(TypeError, match="unexpected keyword"):
        _scipy.solve_ivp(lambda t, y: -y, (0.0, 1.0), np.array([1.0]), [],
                         **kwargs)


def test_solve_loads_no_scipy_module():
    """The tableau is the package's own (`_dop853`): a solve runs with scipy
    unimportable and loads no scipy module. It ended in an AttributeError
    when the tableau was read from scipy's coefficient file."""
    src = str(Path(_scipy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, numpy as np\n"
            "sys.modules['scipy'] = None\n"
            "from pulsecatch._scipy import solve_ivp\n"
            "r = solve_ivp(lambda t, y: -y, (0.0, 2.0), np.array([1.0]),\n"
            "              [1.0], rtol=1e-10, atol=1e-13)\n"
            "assert r.status == 0\n"
            "assert abs(r.values[0, 0] - np.exp(-1.0)) < 1e-9\n"
            "print(sorted(m for m, v in sys.modules.items()\n"
            "             if m.split('.')[0] == 'scipy' and v is not None))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
