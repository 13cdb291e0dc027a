"""The scipy names the solvers bind, without importing scipy at import time.

`brentq` is a port of scipy's C `brentq` (scipy/optimize/Zeros/brentq.c;
Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 4),
operation for operation, so it returns scipy's root bit for bit.
`solve_ivp` is a port of scipy's `solve_ivp` on its DOP853 path with dense
output, the only path it takes (scipy/integrate/_ivp: `ivp.py`, `rk.py`,
`common.py`, `base.py`; Hairer, Norsett and Wanner, *Solving Ordinary
Differential Equations I*, sec. II.4-II.6), with the same numpy calls on
the same operand shapes, so its steps, `nfev` and dense output are scipy's
bit for bit. It reads the dense output at the caller's samples as it
steps, as scipy's `OdeSolution` would read it after the solve, and keeps
no step history. Its preconditions are not checked: `dynamics` builds
its arguments and checks what a caller passes in. Its Butcher tableau is
`_dop853`'s literals, scipy's own numbers bit for bit, which a solve
imports on its first call.
`quad` imports scipy.integrate on each call. Only the quadrature oracles
call it; scipy comes with the test extra, and without it `quad` raises
ModuleNotFoundError naming that extra. So the runtime needs numpy alone,
and no command loads scipy: `closedform` has its own erf and erfcx, and
`profiles` its own PCHIP. Each module binds these names itself, so
replacing one module's binding (as a tracer or a test does) leaves the
others alone; the wrappers never rebind a module's name.
"""
from __future__ import annotations

import math
import sys
from types import SimpleNamespace

import numpy as np

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
    """`scipy.integrate.quad`, imported on the call: only the quadrature
    oracles call it, and scipy comes with the test extra."""
    try:
        from scipy.integrate import quad
    except ModuleNotFoundError as exc:
        raise ModuleNotFoundError(
            "the quadrature oracles (total_excitation on an analytic pulse, "
            "stage1_amplitude, stage2_population) need scipy, which the "
            "test extra installs: pip install 'pulsecatch[test]'",
            name=exc.name) from exc
    return quad(*args, **kwargs)


# ---------------------------------------------------------------------------
# DOP853 (scipy/integrate/_ivp)
# ---------------------------------------------------------------------------

SAFETY = 0.9        # multiplies the steps the error's asymptotics suggest
MIN_FACTOR = 0.2    # the least and largest factors of one step change
MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / (7 + 1)      # the error estimator's order is 7
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_FINISHED = "The solver successfully reached the end of the integration " \
    "interval."


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, max_step, f0, rtol, atol):
    """`select_initial_step` forward in time, for the error estimator's
    order 7."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (7 + 1))
    return min(100 * h0, h1, interval_length, max_step)


def _rk_stages(fun, t, y, h, K, A, C, first: int) -> None:
    """Stages `first` on of K: K[s] = fun(t + c_s h, y + h sum_j a_sj K[j])."""
    for s, (a, c) in enumerate(zip(A, C), start=first):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)


def _error_norm(K, h, scale, tab) -> float:
    """DOP853's `_estimate_error_norm`: the 5th-order error estimate, damped
    by the 3rd-order one, as an RMS norm relative to `scale`."""
    err5 = np.dot(K.T, tab.E5) / scale
    err3 = np.dot(K.T, tab.E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def solve_ivp(fun, t_span, y0, samples, *, rtol=1e-3, atol=1e-6,
              max_step=math.inf) -> SimpleNamespace:
    """`scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853",
    dense_output=True, rtol=rtol, atol=atol, max_step=max_step)`, bit for
    bit, with its dense output read at `samples`. Its preconditions are
    not checked; `dynamics` builds them: an increasing t_span, a finite,
    non-empty 1-D y0 (float or complex), rtol >= 100 eps, atol > 0,
    max_step > 0 and samples sorted inside t_span. It is always DOP853
    with dense output: nothing else is ported, so `method`,
    `dense_output`, events, t_eval, first_step or vectorized are
    TypeErrors, as unexpected keywords.

    Each accepted step reads the samples it covers as it is taken, by
    `OdeSolution`'s rule: a sample on a step end takes the step that ends
    there, and one at t_span[0] the first step. The result has t and y (the
    last accepted step's end and state), values (the states at the samples,
    shape (n, len(samples)); those past a failed run's t are unset), status
    (0 at the end, -1 when a step failed), message and nfev (the right-hand
    side's evaluations, scipy's count with dense output).
    """
    t0, tf = map(float, t_span)
    # check_arguments: the state's dtype is complex or float
    y = np.asarray(y0)
    dtype = complex if np.issubdtype(y.dtype, np.complexfloating) else float
    y = y.astype(dtype, copy=False)

    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=dtype)

    from . import _dop853 as tab
    fy = f(t0, y)
    h_abs = _initial_step(f, t0, y, tf, max_step, fy, rtol, atol)
    K_ext = np.empty((tab.N_STAGES_EXTENDED, y.size), dtype=dtype)
    K = K_ext[:tab.N_STAGES + 1]
    t, i0 = t0, 0
    samples = np.asarray(samples, dtype=float)
    values = np.empty((y.size, len(samples)), dtype=dtype)
    status, message = None, _FINISHED
    while status is None:
        # RungeKutta._step_impl
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                status, message = -1, _TOO_SMALL_STEP
                break
            t_new = min(t + h_abs, tf)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = fy               # rk_step
            _rk_stages(f, t, y, h, K, tab.A[1:], tab.C[1:], 1)
            y_new = y + h * np.dot(K[:-1].T, tab.B)
            f_new = f(t + h, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale, tab)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else \
                    min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break
        t_old, y_old = t, y
        t, y, fy = t_new, y_new, f_new
        if t >= tf:
            status = 0
        # DOP853._dense_output_impl: its stages run on every step, so nfev
        # is scipy's count with dense output
        _rk_stages(f, t_old, y_old, h, K_ext, tab.A_EXTRA, tab.C_EXTRA,
                   tab.N_STAGES + 1)
        i1 = int(np.searchsorted(samples, t, side="right"))
        if i1 > i0:
            F = np.empty((tab.INTERPOLATOR_POWER, y.size), dtype=dtype)
            delta_y = y - y_old
            F[0] = delta_y
            F[1] = h * K_ext[0] - delta_y
            F[2] = 2 * delta_y - h * (fy + K_ext[0])
            F[3:] = h * np.dot(tab.D, K_ext)
            # Dop853DenseOutput at the samples in (t_old, t]
            x = ((samples[i0:i1] - t_old) / h)[:, None]
            out = np.zeros((i1 - i0, y.size), dtype=dtype)
            for k, f_k in enumerate(reversed(F)):
                out += f_k
                out *= x if k % 2 == 0 else 1 - x
            out += y_old
            values[:, i0:i1] = out.T
            i0 = i1
    return SimpleNamespace(t=t, y=y, values=values, status=status,
                           message=message, nfev=nfev)
