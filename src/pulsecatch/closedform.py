"""Analytic evaluators for exponential and Gaussian input pulses.

These closed forms serve two purposes: they are the fast path for parameter
sweeps, and they are independent oracles for the generic solver in
`protocol`, which propagates both stages exactly over power-series pieces.
All expressions are dimensionless (kappa_max = 1) and overflow-safe (expm1,
log1p, and one erfcx identity in place of each Gaussian erf difference), so
they hold for pulse times up to ~1e4, for any kappa_i sigma, and where the
textbook expressions degenerate to 0/0.

The Gaussian forms take arrays of cells: `gauss_grid` finds every cell's
threshold and peak with one bracketed array root search each (Chandrupatla's
method, no `brentq`; `protocol` keeps its own), and the scalar entry points
are that code on one cell.

`erf` and `erfcx` are this module's own numpy code, with no scipy: Taylor
series about the centres k/128 whose coefficients follow from the functions'
ODEs, and erfc's continued fraction past 8. Against 40-digit mpmath erfcx is
within 4 ulps on [0, 1e8] and erf within 1 on [-40, 40] (scipy.special: 8
and 2); the tests hold them to scipy.special within 10 and 4 ulps.

Conventions: the memory amplitude beta is <= 0, populations are its square.
Stage 1 is [0, tau_c) at kappa = 1; stage 2 is the zero-reflection schedule
kappa(tau) = r_in(tau)/beta^2(tau).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import profiles as prof
from .errors import (DomainError, NoPeak, NoThreshold, SingularCoupling,
                     brackets_root)

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# erf and erfcx: Taylor series about the nearest k/_M, from their ODEs
# ---------------------------------------------------------------------------

_M, _BLOCK = 128, 4096                 # centres k/_M; elements per pass
_ROUND = 1.5 * 2.0 ** 52               # x + _ROUND is x rounded to an integer
_ROUND_BITS = int(np.float64(_ROUND).view(np.int64))


def _taylor_table(span: float, degree: int, seed, step) -> np.ndarray:
    """Row j: a_n _M^-n, n = degree - j, of a function's Taylor series about
    each c = k/_M on [0, span]; seed(c) = (a_0, a_1), and the function's ODE
    gives (n + 1) a_{n+1} = step(n, c, a_n, a_{n-1})."""
    c = np.arange(int(span * _M) + 1) / _M
    a = [np.array(v) for v in zip(*map(seed, c.tolist()))]
    for n in range(1, degree):
        a.append(step(n, c, a[n], a[n - 1]) / (n + 1))
    return np.array([a[n] * _M ** -float(n) for n in range(degree, -1, -1)])


# erfcx' = 2x erfcx - 2/sqrt(pi) and erf'' = -2x erf' (c*c is exact)
_ERFCX = _taylor_table(8.0, 6, lambda c: (e := math.exp(c * c) * math.erfc(c),
                                          2.0 * c * e - 2.0 / SQRT_PI),
                       lambda n, c, a, b: 2.0 * c * a + 2.0 * b)
_ERF = _taylor_table(6.0, 7, lambda c: (math.erf(c), 2.0 / SQRT_PI * math.exp(-c * c)),
                     lambda n, c, a, b: -2.0 * c * a - 2.0 * (n - 1) / n * b)


def _taylor(table, t):
    """`table`'s series about the centre k/_M nearest each t of a 1-D array
    (t _M rounded by adding _ROUND), by Horner's rule in u = _M t - k, exact;
    _BLOCK elements at a time, so that the temporaries stay small."""
    if t.size > _BLOCK:
        return np.concatenate([_taylor(table, t[s:s + _BLOCK])
                               for s in range(0, t.size, _BLOCK)])
    tm = t * _M
    r = tm + _ROUND
    k, u = r.view(np.int64) - _ROUND_BITS, tm - (r - _ROUND)
    p = table[0].take(k, mode="clip")                # nan: any row, u is nan
    for row in table[1:]:
        p *= u
        p += row.take(k, mode="clip")
    return p


def erfcx(x):
    """e^{x^2} erfc(x), elementwise: the series about the nearest k/128 to
    degree 6 on [0, 8], erfc's continued fraction (DLMF 7.9.2) to 12 terms
    above, and 2 e^{x^2} - erfcx(-x) below 0 (inf below -26.6)."""
    x = np.asarray(x, dtype=float)
    t = x.reshape(-1)
    a = np.abs(t)
    p = _taylor(_ERFCX, np.minimum(a, 8.0))
    far, neg = a > 8.0, t < 0.0
    if np.count_nonzero(far):
        y = f = a[far]
        for j in range(12, 0, -1):
            f = y + 0.5 * j / f
        p[far] = 1.0 / (SQRT_PI * f)
    if np.count_nonzero(neg):
        y = t[neg]
        with np.errstate(over="ignore"):
            p[neg] = 2.0 * np.exp(y * y) - p[neg]
    return p.reshape(x.shape)[()]


def erf(x):
    """erf(x), elementwise: the series of erf |x| about the nearest k/128 to
    degree 7, with the sign of x, and +-1 past 6, where erf rounds to it."""
    x = np.asarray(x, dtype=float)
    t = np.minimum(np.abs(x), 6.0).reshape(-1)
    return np.copysign(_taylor(_ERF, t).reshape(x.shape), x)[()]


def _both(f, x, y):
    """(f(x), f(y)) from one call of the elementwise f."""
    x, y = np.asarray(x), np.asarray(y)
    v = f(np.concatenate([x.ravel(), y.ravel()]))
    return v[:x.size].reshape(x.shape), v[x.size:].reshape(y.shape)


# ---------------------------------------------------------------------------
# exponential input: r_in(tau) = r * exp(-r*tau)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpConstants:
    """Constants of the exponential-input solution.

    The stage-2 population is beta^2(tau) = a1*exp(-kappa_i*tau) - a2*exp(-r*tau)
    with a2 = 1/(1 - kappa_i/r). Both constants diverge on the degenerate set
    r == kappa_i; the evaluator functions below remain finite there because
    they work with uniformly stable forms rather than with a1/a2 directly.
    """

    r: float
    kappa_i: float
    tau_c: float
    a1: float
    a2: float


def _check_exp_domain(r: float, kappa_i: float) -> None:
    if not (0.0 < r <= 1.0):
        raise DomainError(f"exponential rate r must lie in (0, 1], got {r}")
    if not (0.0 <= kappa_i < 1.0):
        raise DomainError(f"kappa_i must lie in [0, 1), got {kappa_i}")


def exp_tau_c(r: float, kappa_i: float) -> float:
    """Threshold time 2/(1+kappa_i-r) * ln(2/(1-kappa_i+r)).

    Evaluated through log1p so the removable singularity at
    r -> 1, kappa_i -> 0 goes to its limit (exactly 1) smoothly.
    """
    _check_exp_domain(r, kappa_i)
    s = 1.0 + kappa_i - r
    if s == 0.0:
        return 1.0
    return -(2.0 / s) * math.log1p(-0.5 * s)


@lru_cache(maxsize=1024)
def exp_constants(r: float, kappa_i: float) -> ExpConstants:
    """Threshold time and stage-2 population constants for an exponential input."""
    tau_c = exp_tau_c(r, kappa_i)
    if kappa_i == r:
        # a1, a2 individually diverge; population/coupling/report use limits.
        return ExpConstants(r=r, kappa_i=kappa_i, tau_c=tau_c,
                            a1=math.inf, a2=math.inf)
    a2 = 1.0 / (1.0 - kappa_i / r)
    a1 = (r + a2) * math.exp(-(r - kappa_i) * tau_c)
    return ExpConstants(r=r, kappa_i=kappa_i, tau_c=tau_c, a1=a1, a2=a2)


def _phi(x: float, delta: float) -> float:
    """Integral of exp(-x*u) over [0, delta]; finite and smooth through x = 0.
    Raises OverflowError where it passes the float range (x < 0, large
    delta), also where only the division by x does."""
    if x == 0.0:
        return delta
    phi = -math.expm1(-x * delta) / x
    if phi == math.inf:
        raise OverflowError("math range error")
    return phi


def exp_population(r: float, kappa_i: float, tau: float) -> float:
    """Memory population beta^2(tau) under the optimal two-stage schedule."""
    _check_exp_domain(r, kappa_i)
    if tau < 0.0:
        raise DomainError("tau must be >= 0")
    tau_c = exp_tau_c(r, kappa_i)
    if tau < tau_c:
        s = 1.0 + kappa_i - r
        # beta = -2*sqrt(r)*exp(-r*tau/2) * (1 - exp(-s*tau/2))/s
        fac = 0.5 * tau if s == 0.0 else -math.expm1(-0.5 * s * tau) / s
        root = 2.0 * math.sqrt(r) * math.exp(-0.5 * r * tau) * fac
        return root * root
    delta = tau - tau_c
    seed = r * math.exp(-r * tau_c)  # = r_in(tau_c), the threshold population
    decay = math.exp(-kappa_i * delta)
    # kappa_i > r: where e^{(kappa_i - r) delta} overflows, or where the
    # decayed seed is subnormal and keeps few digits, the same value with
    # e^{-kappa_i delta} multiplied through
    if kappa_i <= r or decay * seed >= sys.float_info.min:
        try:
            return decay * seed * (1.0 + _phi(r - kappa_i, delta))
        except OverflowError:
            pass
    return seed * (decay + (math.exp(-r * delta) - decay) / (kappa_i - r))


def exp_coupling(r: float, kappa_i: float, tau: float) -> float:
    """Stage-2 coupling kappa(tau) = r_in(tau)/beta^2(tau) = r/(a1*e^{(r-k_i)tau} - a2).

    Computed as exp(-(r-kappa_i)*(tau-tau_c)) / (1 + Phi), exactly 1 at
    tau = tau_c. Where kappa_i > r and that overflows, both are multiplied
    by e^{(r-kappa_i) delta}: the coupling tends to kappa_i - r.
    """
    _check_exp_domain(r, kappa_i)
    tau_c = exp_tau_c(r, kappa_i)
    if tau < tau_c - 1e-12:
        raise DomainError("exp_coupling is the stage-2 law; needs tau >= tau_c")
    delta = max(tau - tau_c, 0.0)
    x = r - kappa_i
    try:
        denom = 1.0 + _phi(x, delta)
        if denom <= 0.0:
            raise SingularCoupling(f"population not positive at tau = {tau}")
        return math.exp(-x * delta) / denom
    except OverflowError:
        return 1.0 / (math.exp(x * delta) + math.expm1(x * delta) / x)


def exp_report(r: float, kappa_i: float) -> tuple[float, float]:
    """Peak time and fidelity (tau_max, F) for an exponential input.

    kappa_i = 0 has no interior peak: returns (inf, A1). The formula requires
    kappa_i < r; beyond that the population peak is not given by this closed
    form and callers must use the generic solver (the regime is flagged there).
    """
    _check_exp_domain(r, kappa_i)
    cst = exp_constants(r, kappa_i)
    if kappa_i == 0.0:
        return math.inf, cst.a1
    if kappa_i >= r:
        raise DomainError(
            f"closed-form peak needs kappa_i < r (got kappa_i={kappa_i}, r={r})"
        )
    x = r - kappa_i
    log_ratio = math.log(kappa_i * cst.a1 / (r * cst.a2))  # < 0
    tau_max = -log_ratio / x
    fid = cst.a1 * (1.0 - kappa_i / r) * math.exp(kappa_i / x * log_ratio)
    return tau_max, fid


# ---------------------------------------------------------------------------
# Gaussian input: r_in(tau) = r * exp(-(tau-tau0)^2/(2 sigma^2)), tau0 = n*sigma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussConstants:
    """Constants of the Gaussian-input solution.

    a = (1+kappa_i)/2 and b = 1/(4 sigma^2) parametrize the erf-form threshold
    equation exp(-B(tau)^2) = sqrt(pi)/(2 sqrt(b)) * (erf(B(tau)) + erf(A))
    with B(tau) = sqrt(b)(tau - tau0) - a/(2 sqrt(b)) and A = -B(0).
    """

    sigma: float
    n: float
    kappa_i: float
    a: float
    b: float
    tau0: float
    tau_c: float


_RTOL = 4.0 * sys.float_info.epsilon     # the root searches' relative tolerance
_MAXITER = 200                           # residual evaluations per root, at most


def _gauss_domain_error(sigma: float, n: float, kappa_i: float):
    """The DomainError of a cell outside the closed forms' domain, or None.
    b = 1/(4 sigma^2) must be a normal float: the forms divide by sqrt(b)."""
    if not (sigma > 0.0) or not math.isfinite(sigma):
        return DomainError(f"sigma must be positive and finite, got {sigma}")
    if n < 3.0:
        return DomainError(f"Gaussian offset multiplier n must be >= 3, got {n}")
    if not (0.0 <= kappa_i < 1.0):
        return DomainError(f"kappa_i must lie in [0, 1), got {kappa_i}")
    square = sigma * sigma
    if not (square > 0.0 and sys.float_info.min <= 0.25 / square < math.inf):
        return DomainError(f"b = 1/(4 sigma^2) is not a normal float at "
                           f"sigma = {sigma}")
    return None


def _live(errors: list) -> np.ndarray:
    """Indices of the cells that no step has failed yet."""
    return np.flatnonzero([e is None for e in errors])


def _fail(errors: list, cells: np.ndarray, make, *columns) -> None:
    """Give each of `cells` that no step has failed yet the error make(*row),
    row its values in `columns` (as Python floats)."""
    for c, *row in zip(cells.tolist(), *(v.tolist() for v in columns)):
        if errors[c] is None:
            errors[c] = make(*row)


def _erf_gap(x, y, gap):
    """e^{x^2} (erf x - erf y) = erfcx(-x) - erfcx(-y) e^{(x+y) gap}, y <= x <= 0
    (DLMF 7.2): no factor overflows, and gap = x - y, taken exact, cancels nothing.
    For x > 0 it holds too, with erfcx(-x) = 2 e^{x^2} - erfcx(x)."""
    ex, ey = _both(erfcx, -x, -y)
    return ex - ey * np.exp((x + y) * gap)


@np.errstate(all="ignore")
def _gauss_bracket(a, b, tau0, tau):
    """C e^{B^2} (erf B + erf A), C = sqrt(pi)/(2 sqrt(b)): the stage-1 bracket,
    exactly 1 at the threshold time, as `_erf_gap` with x = B, y = -A and
    x - y = sqrt(b) tau. For tau in [0, tau0 + a/(2b)] we have B <= 0 and
    |B| <= A, which keeps every factor in range; up to tau0 + 10 sigma, the
    end of the threshold search's bracket, B <= 5 and erfcx(-B) < 2 e^25."""
    rb = np.sqrt(b)
    big_a = rb * tau0 + 0.5 * a / rb
    big_b = rb * (tau - tau0) - 0.5 * a / rb
    return 0.5 * SQRT_PI / rb * _erf_gap(big_b, -big_a, rb * tau)


def _gauss_threshold_residual(a, b, tau0, tau):
    """e^{B^2} g(tau) = 1 - C e^{B^2} (erf B + erf A), C = sqrt(pi)/(2 sqrt(b)).

    g = e^{-B^2} - C (erf B + erf A) is the threshold residual; its root is
    tau_c. Scaled by e^{B^2} it keeps g's sign and root, equals 1 exactly at
    tau = 0 (where B = -A), and takes `_gauss_bracket`'s overflow-safe form.
    """
    return 1.0 - _gauss_bracket(a, b, tau0, tau)


def _gauss_stage1(sigma, n, kappa_i, tau):
    """beta^2 = r_in (C e^{B^2}(erf B + erf A))^2 on [0, tau_c]."""
    bracket = _gauss_bracket(0.5 * (1.0 + kappa_i), 0.25 / (sigma * sigma),
                             n * sigma, tau)
    return gauss_rate(sigma, n, tau) * bracket * bracket


@np.errstate(all="ignore")
def _gauss_stage2(sigma, n, kappa_i, tau_c, tau):
    """beta^2 = e^{-k (tau - tau_c)} r_in(tau_c) + w (erf x - erf y)/2, k = kappa_i,
    w = e^{-k (tau - tau0) + k^2 sigma^2/2}, x, y = b2(tau), b2(tau_c), b2(s) = (s - tau0
    - k sigma^2)/(sigma sqrt 2). For x <= 0 the erf term is g(tau) `_erf_gap`/2 with gap
    (tau - tau_c)/(sigma sqrt 2), g = w e^{-x^2} = e^{-(tau - tau0)^2/(2 sigma^2)}; for
    x > 0, w <= 1. No overflow or cancellation next to -1, for any kappa_i sigma. Each
    cell takes the branch of its own x's sign; a branch no cell takes is not run."""
    k, tau0, b = kappa_i, n * sigma, 0.25 / (sigma * sigma)
    seed = gauss_rate(sigma, n, tau_c)
    rt2b = np.sqrt(2.0 * b)  # = 1/(sigma*sqrt(2))
    x = rt2b * (tau - tau0) - 0.5 * k / rt2b
    y = rt2b * (tau_c - tau0) - 0.5 * k / rt2b
    z = (tau - tau0) / sigma
    head = lambda: np.exp(-0.5 * z * z) * _erf_gap(x, y, rt2b * (tau - tau_c))
    tail = lambda: (np.exp(-k * (tau - tau0) + 0.125 * k * k / b)
                    * np.subtract(*_both(erf, x, y)))
    heads = np.count_nonzero(x <= 0.0)
    term = (head() if heads == np.size(x) else tail() if heads == 0
            else np.where(x <= 0.0, head(), tail()))
    return np.exp(-k * (tau - tau_c)) * seed + 0.5 * term


@np.errstate(all="ignore")
def _roots(f, j, x1, x2, f1, f2, xtol: float) -> np.ndarray:
    """A root of f in each bracket [x1, x2] whose ends' values f1, f2 pass
    `brackets_root`, within xtol + 4 eps |root|, by Chandrupatla's method
    (Adv. Eng. Softw. 28, 145 (1997)): inverse quadratic interpolation where
    it is safe, bisection elsewhere, each step half the tolerance or more
    inside the bracket. f(j, x) is the residual of cells j at x. A cell that
    settles is not evaluated again, so its root is the one it gets alone;
    nan where f turned nan or _MAXITER evaluations did not settle it."""
    root = np.full(j.shape, np.nan)
    at = np.arange(j.size)                 # each searching cell's place in root
    x3, f3, t = x2, f2, 0.5
    for step in range(_MAXITER + 1):
        near = np.abs(f1) < np.abs(f2)
        xm = np.where(near, x1, x2)
        dx = np.abs(x2 - x1)
        tol = xtol + _RTOL * np.abs(xm)
        done = (dx < tol) | (np.where(near, f1, f2) == 0.0)
        root[at[done]] = xm[done]
        go = ~done & (f1 == f1)
        if step == _MAXITER or not go.any():
            return root
        if not go.all():
            at, j, x1, x2, x3, f1, f2, f3, dx, tol = (
                v[go] for v in (at, j, x1, x2, x3, f1, f2, f3, dx, tol))
        if step:    # the first step bisects: x3 is no point of the search yet
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                         - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3),
                         0.5)
            t = np.clip(t, 0.5 * tol / dx, 1.0 - 0.5 * tol / dx)
        x = x1 + t * (x2 - x1)
        fx = f(j, x)
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx


def _gauss_thresholds(sigma, n, kappa_i, errors: list):
    """(tau_c,) of the cells that `errors` does not fail, nan in the others;
    first, the cells outside the domain fail.

    dg/dtau = -sqrt(b) e^{-B^2} (2B + 1/sqrt(b)): g rises up to
    tau0 - (1 - kappa_i) sigma^2 and falls after, and it starts at
    g(0) = e^{-A^2} > 0, so it has one root and [0, tau0 + 10 sigma] brackets
    it. The bracket is checked before the search, in case rounding disagrees.
    """
    for c, (s, k) in enumerate(zip(sigma.tolist(), kappa_i.tolist())):
        errors[c] = errors[c] or _gauss_domain_error(s, n, k)
    tau_c = np.full(sigma.shape, np.nan)
    i = _live(errors)
    s, k = sigma[i], kappa_i[i]
    a, b, tau0 = 0.5 * (1.0 + k), 0.25 / (s * s), n * s
    end = tau0 + 10.0 * s
    g = lambda j, t: _gauss_threshold_residual(a[j], b[j], tau0[j], t)
    g0, g1 = np.split(g(np.tile(np.arange(i.size), 2),
                        np.concatenate([np.zeros(i.size), end])), 2)
    ok = brackets_root(g0, g1)
    _fail(errors, i[~ok], lambda e: NoThreshold(
        f"threshold residual does not change sign on the bracket [0.0, {e!r}]"),
        end[~ok])
    j = np.flatnonzero(ok)
    tau_c[i[j]] = root = _roots(g, j, np.zeros(j.size), end[j], g0[j], g1[j], 1e-14)
    _fail(errors, i[j][np.isnan(root)], lambda e: DomainError(
        f"the threshold search did not settle on [0.0, {e!r}]"),
        end[j][np.isnan(root)])
    return (tau_c,)


def _gauss_peaks(sigma, n, kappa_i, tau_c, errors: list):
    """(tau_max, F) of the cells that `errors` does not fail, nan in the others.

    The peak solves h = r_in - kappa_i beta^2 = 0 on the falling edge of the
    pulse; kappa_i = 0 gives (inf, beta^2(inf)). h is the slope of beta^2,
    so at any root h' = r_in'. Before tau0 r_in' > 0, and h, positive at
    tau_c, cannot reach 0 on [tau_c, tau0]; after tau0 r_in' < 0, and h
    crosses zero once, downward. The doubling from max(tau_c, tau0) stops at
    the first window whose right end has h < 0, which brackets that root.
    """
    tau_max, fid = np.full(sigma.shape, np.nan), np.full(sigma.shape, np.nan)
    live = _live(errors)
    i = live[kappa_i[live] == 0.0]
    s, tc = sigma[i], tau_c[i]
    tau_max[i] = math.inf
    fid[i] = gauss_rate(s, n, tc) + 0.5 * (
        1.0 - erf(np.sqrt(2.0 * (0.25 / (s * s))) * (tc - n * s)))

    i = live[kappa_i[live] > 0.0]
    s, k, tc = sigma[i], kappa_i[i], tau_c[i]
    h = lambda j, t: gauss_rate(s[j], n, t) \
        - k[j] * _gauss_stage2(s[j], n, k[j], tc[j], t)
    # The doubling reaches past the nominal horizon if the intrinsic loss is
    # so small that the crossing is later.
    lo, hi = np.maximum(tc, n * s), n * s + 10.0 * s
    width = hi - lo
    h_lo, h_hi = np.split(h(np.tile(np.arange(i.size), 2),
                            np.concatenate([lo, hi])), 2)
    rising = np.flatnonzero(~(h_hi < 0.0))
    for _ in range(63):
        if not rising.size:
            break
        lo[rising], h_lo[rising] = hi[rising], h_hi[rising]
        width[rising] *= 2.0
        hi[rising] = lo[rising] + width[rising]
        h_hi[rising] = h(rising, hi[rising])
        rising = rising[~(h_hi[rising] < 0.0)]
    _fail(errors, i[rising], lambda: NoPeak(
        "input rate never falls below the intrinsic-loss rate"))
    ok = brackets_root(h_lo, h_hi)
    _fail(errors, i[~ok], lambda a, b: NoPeak(
        f"peak residual does not change sign on the bracket [{a!r}, {b!r}]"),
        lo[~ok], hi[~ok])
    ok[rising] = False
    j = np.flatnonzero(ok)
    tau_max[i[j]] = root = _roots(h, j, lo[j], hi[j], h_lo[j], h_hi[j], 1e-14)
    fid[i[j]] = _gauss_stage2(s[j], n, k[j], tc[j], root)
    bad = j[np.isnan(root)]
    _fail(errors, i[bad], lambda a, b: DomainError(
        f"the peak search did not settle on [{a!r}, {b!r}]"), lo[bad], hi[bad])
    return tau_max, fid


def _one_cell(stage, sigma: float, n: float, kappa_i: float, *values):
    """`stage` on the one cell (sigma, n, kappa_i) with its `values`: the
    results as Python floats, or the cell's error raised."""
    errors = [None]
    cell = lambda v: np.array([v], dtype=float)
    out = stage(cell(sigma), n, cell(kappa_i), *map(cell, values), errors)
    if errors[0] is not None:
        raise errors[0]
    return tuple(float(v[0]) for v in out)


@lru_cache(maxsize=1024)
def gauss_constants(sigma: float, n: float, kappa_i: float) -> GaussConstants:
    """a, b, tau0 and the root tau_c of the erf-form threshold equation
    (`_gauss_thresholds` on one cell)."""
    (tau_c,) = _one_cell(_gauss_thresholds, sigma, n, kappa_i)
    return GaussConstants(sigma=sigma, n=n, kappa_i=kappa_i,
                          a=0.5 * (1.0 + kappa_i), b=0.25 / (sigma * sigma),
                          tau0=n * sigma, tau_c=tau_c)


def gauss_rate(sigma, n, tau):
    """r_in(tau) for the Gaussian family (peak rate from sigma), elementwise."""
    r = 1.0 / (sigma * SQRT_2PI)
    z = (tau - n * sigma) / sigma
    return r * np.exp(-0.5 * z * z)


def gauss_population(sigma: float, n: float, kappa_i: float, tau: float) -> float:
    """Memory population beta^2(tau) for the Gaussian input, both stages."""
    cst = gauss_constants(sigma, n, kappa_i)
    if tau < 0.0:
        raise DomainError("tau must be >= 0")
    if tau < cst.tau_c:
        # the stage-1 bracket is exactly 1 at the threshold
        return float(_gauss_stage1(sigma, n, kappa_i, tau))
    return float(_gauss_stage2(sigma, n, kappa_i, cst.tau_c, tau))


def gauss_coupling(sigma: float, n: float, kappa_i: float, tau: float) -> float:
    """Stage-2 coupling r_in(tau)/beta^2(tau) for the Gaussian input."""
    cst = gauss_constants(sigma, n, kappa_i)
    if tau < cst.tau_c - 1e-12:
        raise DomainError("gauss_coupling is the stage-2 law; needs tau >= tau_c")
    pop = float(_gauss_stage2(sigma, n, kappa_i, cst.tau_c, max(tau, cst.tau_c)))
    if pop <= 0.0:
        raise SingularCoupling(f"population not positive at tau = {tau}")
    return float(gauss_rate(sigma, n, tau)) / pop


def gauss_report(sigma: float, n: float, kappa_i: float) -> tuple[float, float]:
    """Peak time and fidelity (tau_max, F) for the Gaussian input
    (`_gauss_peaks` on one cell); kappa_i = 0 returns (inf, beta^2(inf))."""
    tau_c = gauss_constants(sigma, n, kappa_i).tau_c
    return _one_cell(_gauss_peaks, sigma, n, kappa_i, tau_c)


# ---------------------------------------------------------------------------
# loss budgets: d(beta^2)/dtau = r_in - r_out - kappa_i beta^2
# ---------------------------------------------------------------------------

def _exp_stage1_integrals(r: float, kappa_i: float,
                          tau_c: float) -> tuple[float, float]:
    """(int beta^2, int r_out) over the stage-1 window [0, tau_c], in closed form.

    With s = 1 + kappa_i - r and phi(tau) = 2(1 - e^{-s tau/2})/s, the stage-1
    amplitude is beta = -sqrt(r_in) phi and the reflected amplitude is
    sqrt(r_in) (1 - phi); phi hits exactly 1 at the threshold. Expanding the
    naive closed forms in powers of 1/s loses ~s^-2 digits near r = 1,
    kappa_i = 0, so both integrals use integration-by-parts recurrences on
    moments of phi and psi = 1 - phi instead (phi' = 1 - (s/2) phi).
    """
    s = 1.0 + kappa_i - r
    e_rt = math.exp(-r * tau_c)
    phi_t = tau_c if s == 0.0 else -2.0 * math.expm1(-0.5 * s * tau_c) / s
    psi_t = 1.0 - phi_t

    # K_k = int_0^tau_c e^{-r t} phi^k dt
    k0 = (1.0 - e_rt) / r
    k1 = (k0 - e_rt * phi_t) / (0.5 * s + r)
    k2 = (2.0 * k1 - e_rt * phi_t * phi_t) / (s + r)
    beta_sq = r * k2

    # J_k = int_0^tau_c e^{-r t} psi^k dt;  psi' = -(1 - s/2) - (s/2) psi
    j1 = (1.0 - e_rt * psi_t - (1.0 - 0.5 * s) * k0) / (0.5 * s + r)
    j2 = (1.0 - e_rt * psi_t * psi_t - 2.0 * (1.0 - 0.5 * s) * j1) / (s + r)
    r_out = r * j2
    return beta_sq, r_out


def exp_losses(r: float, kappa_i: float,
               tau_max: float) -> tuple[float, float, float]:
    """(stage-1 reflection, intrinsic loss, unabsorbed input) up to tau_max
    for an exponential input, every term in closed form."""
    cst = exp_constants(r, kappa_i)
    beta_sq_1, refl = _exp_stage1_integrals(r, kappa_i, cst.tau_c)
    # Stage-2 population A1 e^{-k_i tau} - A2 e^{-r tau}; the intrinsic loss
    # kappa_i * int beta^2 needs no division by kappa_i in this form.
    e_ki = math.exp(-kappa_i * cst.tau_c) - math.exp(-kappa_i * tau_max)
    e_r = math.exp(-r * cst.tau_c) - math.exp(-r * tau_max)
    intrinsic = kappa_i * beta_sq_1 + cst.a1 * e_ki - (kappa_i / r) * cst.a2 * e_r
    return refl, intrinsic, math.exp(-r * tau_max)


def _gauss_cumulative(sigma, n, tau):
    """The input's integral over [0, tau]: `profiles.cumulative`'s formula,
    with this module's erf where it takes `math.erf`, so the two can differ
    in the last bit (1,778 of 10,000 sampled points, by at most 1.1e-16)."""
    root2 = math.sqrt(2.0)
    tau0 = n * sigma
    return 0.5 * (erf((tau - tau0) / (sigma * root2)) + erf(tau0 / (sigma * root2)))


def _gauss_stage1_integral(sigma, n, kappa_i, tau_c):
    """S1 = int_0^tau_c beta^2 of each cell: `profiles._kronrod` on equal
    pieces no wider than 2 sigma (one rule over [0, tau_c] keeps ~12 digits
    at n = 8) or 16 decay times 2/(1 + kappa_i) of beta's transient from 0
    (one 2 sigma piece kept ~9 at sigma = 72, kappa_i = 0.9). A cell with
    fewer pieces pads with empty ones at tau_c, and its pieces sum in order
    (`cumsum`), so that its S1 does not depend on the cells beside it."""
    width = np.minimum(2.0 * sigma, 32.0 / (1.0 + kappa_i))
    pieces = np.maximum(1.0, np.ceil(tau_c / width))
    step = tau_c / pieces
    p = np.arange(int(pieces.max(initial=1.0)) + 1)[:, None]
    edges = np.where(p < pieces, p * step, tau_c)
    return prof._kronrod(lambda s: _gauss_stage1(sigma, n, kappa_i, s),
                         edges).cumsum(axis=0)[-1]


def _gauss_budget(sigma, n, kappa_i, tau_c, tau_max, errors: list):
    """(stage-1 reflection, intrinsic loss, unabsorbed input) up to tau_max of
    the cells that `errors` does not fail, nan in the others; up to
    tau0 + 10 sigma where tau_max is inf (kappa_i = 0).

    The energy balance integrated over each stage leaves one integral,
    S1 = int_0^tau_c beta^2. Stage 1 ends at beta^2 = r_in(tau_c), so its
    reflection is C(tau_c) - r_in(tau_c) - kappa_i S1, with C the input's
    cumulative. Stage 2 reflects nothing, so its intrinsic loss is
    C(upper) - C(tau_c) - (beta^2(upper) - r_in(tau_c)). All terms share
    one C and one r_in(tau_c), and beta^2(tau_max) is the fidelity of
    `gauss_report` bit for bit, so the budget closes to rounding.
    """
    out = np.full((3,) + sigma.shape, np.nan)
    i = _live(errors)
    s, k, tc = sigma[i], kappa_i[i], tau_c[i]
    upper = np.where(np.isfinite(tau_max[i]), tau_max[i], n * s + 10.0 * s)
    c_tc, c_up = _gauss_cumulative(s, n, tc), _gauss_cumulative(s, n, upper)
    seed = gauss_rate(s, n, tc)
    s1 = _gauss_stage1_integral(s, n, k, tc)
    stage2 = (c_up - c_tc) - (_gauss_stage2(s, n, k, tc, upper) - seed)
    # C(inf) already excludes the left-truncation deficit, so the unabsorbed
    # term carries both the not-yet-arrived input and the truncated mass.
    out[:, i] = c_tc - seed - k * s1, k * s1 + stage2, 1.0 - c_up
    return tuple(out)


def gauss_losses(sigma: float, n: float, kappa_i: float,
                 tau_max: float) -> tuple[float, float, float]:
    """(stage-1 reflection, intrinsic loss, unabsorbed input) up to tau_max
    for a Gaussian input (`_gauss_budget` on one cell)."""
    tau_c = gauss_constants(sigma, n, kappa_i).tau_c
    return _one_cell(_gauss_budget, sigma, n, kappa_i, tau_c, tau_max)


def gauss_grid(sigma, n: float, kappa_i):
    """tau_c, tau_max, F and the loss budget of every cell (sigma[i], n,
    kappa_i[i]) of two 1-D arrays, each stage run on all cells at once.

    Returns (tau_c, tau_max, fidelity, (reflection, intrinsic, unabsorbed),
    errors): arrays over the cells, nan where a cell failed, and each cell's
    typed error or None. A cell's values and error are those the scalar
    entry points give it (or raise), bit for bit and word for word.
    """
    sigma = np.asarray(sigma, dtype=float)
    kappa_i = np.asarray(kappa_i, dtype=float)
    errors = [None] * sigma.size
    (tau_c,) = _gauss_thresholds(sigma, n, kappa_i, errors)
    tau_max, fid = _gauss_peaks(sigma, n, kappa_i, tau_c, errors)
    losses = _gauss_budget(sigma, n, kappa_i, tau_c, tau_max, errors)
    return tau_c, tau_max, fid, losses, errors
