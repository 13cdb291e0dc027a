"""The scipy names the solvers bind, without importing scipy at import time.

`brentq` is a port of scipy's C `brentq` (scipy/optimize/Zeros/brentq.c;
Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 4),
operation for operation, so it returns scipy's root bit for bit. `quad` and
`solve_ivp` import scipy.integrate on each call: `pulsecatch schedule` on an
analytic pulse and a closed-form `pulsecatch sweep` cell never call them,
and scipy.integrate costs 0.2-0.3 s to import on top of scipy.special, which
the Gaussian closed forms load. Each module binds these names itself, so
replacing one module's binding (as a tracer or a test does) leaves the
others alone; the wrappers never rebind a module's name.
"""
from __future__ import annotations

import math
import sys

_RTOL_MIN = 4.0 * sys.float_info.epsilon      # scipy's rtol floor


def _value(f, x: float) -> float:
    fx = float(f(x))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; "
                         f"solver cannot continue.")
    return fx


def brentq(f, a: float, b: float, xtol: float = 2e-12,
           rtol: float = _RTOL_MIN, maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, as
    `scipy.optimize.brentq` finds it. Raises ValueError on a bracket
    without a sign change, a nan value of f or a bad tolerance, and
    RuntimeError if maxiter iterations do not converge."""
    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    if xtol <= 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL_MIN:g})")
    if maxiter < 0:
        raise ValueError("maxiter should be > 0")
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 \
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:        # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                   # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides on to an inf or nan step, which fails the test
                # below: it bisects
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry         # good short step
            else:
                spre = scur = sbis              # bisect
        else:
            spre = scur = sbis                  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def quad(*args, **kwargs):
    """`scipy.integrate.quad`, imported on the call."""
    from scipy.integrate import quad
    return quad(*args, **kwargs)


def solve_ivp(*args, **kwargs):
    """`scipy.integrate.solve_ivp`, imported on the call."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)
