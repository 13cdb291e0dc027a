"""The package's brentq against scipy's: the same root bit for bit, the same
exception type where scipy raises, and always a Python float."""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from pulsecatch import closedform as cf
from pulsecatch import profiles as prof
from pulsecatch import protocol as proto
from pulsecatch._scipy import brentq
from pulsecatch.errors import PulsecatchError
from test_batched import narrow_tables
from test_protocol import _double_hump

_EPS = np.finfo(float).eps

# f(x; c) on [-1.4, 1.4]: smooth, steep, flat (equal values, so the C code
# divides by zero), oscillating with several roots, and values so small
# that the product of the two end values underflows.
FAMILIES = {
    "linear": lambda c: lambda x: x - c,
    "cubic": lambda c: lambda x: (x - c) ** 3 + 0.1 * c * (x - c),
    "tan": lambda c: lambda x: math.tan(x) - c,
    "exp": lambda c: lambda x: math.exp(x) - 1.0 - c * x * x - c,
    "steep": lambda c: lambda x: math.atan(1e6 * (x - c)),
    "flat": lambda c: lambda x: (x - c) ** 9,
    "wave": lambda c: lambda x: math.sin(5.0 * x) + c * x - 0.3,
    "tiny": lambda c: lambda x: 1e-200 * (x - c),
}
TOLERANCES = st.sampled_from([
    (2e-12, 4 * _EPS), (1e-300, 4 * _EPS), (1e-14, 8.9e-16),
    (4 * _EPS, 4 * _EPS), (1e-12, 8.9e-16), (1e-8, 1e-10), (1e-3, 1e-6),
    (np.float64(1e-300), np.float64(4 * _EPS)),     # numpy scalars
    (np.float64(1e-12), 4 * np.finfo(float).eps),
])


def _outcome(solver, f, a, b, **kwargs):
    """The root, or the type of the exception the solver raised."""
    try:
        return solver(f, a, b, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _assert_same(f, a, b, **kwargs) -> None:
    want = _outcome(scipy.optimize.brentq, f, a, b, **kwargs)
    got = _outcome(brentq, f, a, b, **kwargs)
    if isinstance(want, type):
        assert got is want
    else:
        assert type(got) is float
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@settings(max_examples=600, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), c=st.floats(-1.0, 1.0),
       a=st.floats(-1.4, 1.4), b=st.floats(-1.4, 1.4), tols=TOLERANCES,
       maxiter=st.sampled_from([100, 200, 4]))
@example(family="flat", c=0.25, a=-1.0, b=1.0, tols=(1e-300, 4 * _EPS),
         maxiter=200)
@example(family="tiny", c=0.3, a=0.0, b=1.0, tols=(2e-12, 4 * _EPS),
         maxiter=100)
def test_root_is_scipys_bit_for_bit(family, c, a, b, tols, maxiter):
    xtol, rtol = tols
    _assert_same(FAMILIES[family](c), a, b, xtol=xtol, rtol=rtol,
                 maxiter=maxiter)


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(["linear", "cubic", "flat", "tiny"]),
       c=st.floats(-1.0, 1.0), b=st.floats(-1.4, 1.4), tols=TOLERANCES,
       first=st.booleans())
@example(family="cubic", c=0.0, b=1.6051046620692697e-233,
         tols=(2e-12, 4 * _EPS), first=False)        # f(b) underflows to 0
def test_bracket_with_a_zero_end(family, c, b, tols, first):
    """These families vanish exactly at c: a bracket ending there returns
    an end where f is 0 (the other one, if f underflows to 0 there too), as
    scipy does."""
    f = FAMILIES[family](c)
    a, b = (c, b) if first else (b, c)
    _assert_same(f, a, b, xtol=tols[0], rtol=tols[1])
    root = brentq(f, a, b, xtol=tols[0], rtol=tols[1])
    assert root in (a, b) and f(root) == 0.0


@pytest.mark.parametrize("a, b", [(0.5, 1.0), (-1.0, -0.5)])
def test_same_sign_bracket_raises_as_scipy(a, b):
    f = lambda x: x * x - 0.01
    with pytest.raises(ValueError):
        scipy.optimize.brentq(f, a, b)
    with pytest.raises(ValueError):
        brentq(f, a, b)


@pytest.mark.parametrize("bad", ["a", "b", "inside"])
def test_nan_value_raises_as_scipy(bad):
    def f(x):
        if (bad == "a" and x == -1.0) or (bad == "b" and x == 2.0) \
                or (bad == "inside" and -1.0 < x < 2.0):
            return math.nan
        return x - 0.3

    _assert_same(f, -1.0, 2.0)
    with pytest.raises(ValueError):
        brentq(f, -1.0, 2.0)


@pytest.mark.parametrize("kwargs", [{"xtol": 0.0}, {"xtol": -1e-12},
                                    {"rtol": _EPS}, {"rtol": 0.0},
                                    {"maxiter": -1}])
def test_bad_arguments_raise_as_scipy(kwargs):
    f = lambda x: x - 0.3
    with pytest.raises(ValueError):
        scipy.optimize.brentq(f, 0.0, 1.0, **kwargs)
    with pytest.raises(ValueError):
        brentq(f, 0.0, 1.0, **kwargs)


def test_numpy_scalar_arguments_give_a_float():
    """`protocol` passes numpy tolerances (4 eps as np.float64): the root is
    a Python float, here where the last step is one of the tolerance."""
    _assert_same(lambda x: math.tan(x) - 0.3, np.float64(0.0),
                 np.float64(1.0), xtol=np.float64(1e-300),
                 rtol=4 * np.finfo(float).eps)


def test_solvers_bind_the_port():
    # protocol polishes with the port; closedform searches whole grids of
    # cells with its own array root finder and binds no brentq at all
    assert proto.brentq is brentq and not hasattr(cf, "brentq")


@settings(max_examples=40, deadline=None)
@given(table=narrow_tables())
@example(table=_double_hump())
def test_schedule_times_are_floats(table):
    """tau_c, tau_max and every segment end are Python floats, on a
    resumed table too (`_double_hump`), where violation roots start
    stage-1 segments and `_ExactLinear.stage1` builds lists of them
    (`[t_start] * (t_start < t0)` fails on a numpy bool)."""
    params = prof.MemoryParams(kappa_i=1e-4)
    try:
        sch = proto.build_schedule(table, params)
        rep = proto.peak_time_and_fidelity(table, params, sch)
    except PulsecatchError:
        return
    times = [sch.tau_c, rep.tau_c, rep.tau_max] \
        + [t for seg in sch.segments for t in (seg.t0, seg.t1)]
    assert all(type(t) is float for t in times), [type(t) for t in times]

