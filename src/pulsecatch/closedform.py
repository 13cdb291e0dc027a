"""Analytic evaluators for exponential and Gaussian input pulses.

These closed forms serve two purposes: they are the fast path for parameter
sweeps, and they are independent oracles for the generic quadrature solver in
`protocol`. All expressions are dimensionless (kappa_max = 1) and are written
in overflow-safe form (expm1/log1p, scaled complementary error functions) so
they stay accurate for pulse times up to ~1e4 and through the parameter sets
where the textbook expressions degenerate to 0/0.

Conventions: the memory amplitude beta is <= 0, populations are its square.
Stage 1 is [0, tau_c) at kappa = 1; stage 2 is the zero-reflection schedule
kappa(tau) = r_in(tau)/beta^2(tau).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.optimize import brentq
from scipy.special import erf, erfcx

from .errors import (DomainError, NoPeak, NoThreshold, SingularCoupling,
                     brackets_root)

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)


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
    """Integral of exp(-x*u) over [0, delta]; finite and smooth through x = 0."""
    if x == 0.0:
        return delta
    return -math.expm1(-x * delta) / x


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
    return math.exp(-kappa_i * delta) * seed * (1.0 + _phi(r - kappa_i, delta))


def exp_coupling(r: float, kappa_i: float, tau: float) -> float:
    """Stage-2 coupling kappa(tau) = r_in(tau)/beta^2(tau) = r/(a1*e^{(r-k_i)tau} - a2).

    Computed as exp(-(r-kappa_i)*(tau-tau_c)) / (1 + Phi) which cannot
    overflow; exactly 1 at tau = tau_c.
    """
    _check_exp_domain(r, kappa_i)
    tau_c = exp_tau_c(r, kappa_i)
    if tau < tau_c - 1e-12:
        raise DomainError("exp_coupling is the stage-2 law; needs tau >= tau_c")
    delta = max(tau - tau_c, 0.0)
    denom = 1.0 + _phi(r - kappa_i, delta)
    if denom <= 0.0:
        raise SingularCoupling(f"population not positive at tau = {tau}")
    return math.exp(-(r - kappa_i) * delta) / denom


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


def _check_gauss_domain(sigma: float, n: float, kappa_i: float) -> None:
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise DomainError(f"sigma must be positive, got {sigma}")
    if n < 3.0:
        raise DomainError(f"Gaussian offset multiplier n must be >= 3, got {n}")
    if not (0.0 <= kappa_i < 1.0):
        raise DomainError(f"kappa_i must lie in [0, 1), got {kappa_i}")


def _exp_b2_s(a: float, b: float, tau0: float, tau: float) -> float:
    """Return exp(B^2) * (erf(B) + erf(A)) without overflow for B <= 0.

    This is the bracket whose value is 1 exactly at the threshold time. For
    tau in [0, tau0 + a/(2b)] we have B <= 0 and |B| <= A, and the scaled
    complementary error function keeps every factor in range.
    """
    rb = math.sqrt(b)
    big_b = rb * (tau - tau0) - 0.5 * a / rb
    big_a = rb * tau0 + 0.5 * a / rb
    if big_b <= 0.0:
        # e^{B^2}(erf(B)+erf(A)) = erfcx(-B) - erfcx(A) e^{B^2-A^2}
        return erfcx(-big_b) - erfcx(big_a) * math.exp(big_b * big_b - big_a * big_a)
    return math.exp(big_b * big_b) * (erf(big_b) + erf(big_a))


def _gauss_threshold_residual(a: float, b: float, tau0: float, tau: float) -> float:
    """g(tau) = e^{-B^2} - sqrt(pi)/(2 sqrt(b)) (erf B + erf A); root marks tau_c.

    For B <= 0 the erf sum is a difference of near-saturated values — for wide
    pulses both sit at 1.0 in double precision and the naive form is pure
    noise — so it is folded into scaled complementary error functions:
    g = e^{-B^2} (1 - C erfcx(-B)) + C erfcx(A) e^{-A^2}, C = sqrt(pi)/(2 sqrt(b)).
    """
    rb = math.sqrt(b)
    big_b = rb * (tau - tau0) - 0.5 * a / rb
    big_a = rb * tau0 + 0.5 * a / rb
    c = 0.5 * SQRT_PI / rb
    if big_b <= 0.0:
        return math.exp(-big_b * big_b) * (1.0 - c * erfcx(-big_b)) \
            + c * erfcx(big_a) * math.exp(-big_a * big_a)
    return math.exp(-big_b * big_b) - c * (erf(big_b) + erf(big_a))


@lru_cache(maxsize=1024)
def gauss_constants(sigma: float, n: float, kappa_i: float) -> GaussConstants:
    """a, b, tau0 and the root tau_c of the erf-form threshold equation."""
    _check_gauss_domain(sigma, n, kappa_i)
    a = 0.5 * (1.0 + kappa_i)
    b = 0.25 / (sigma * sigma)
    tau0 = n * sigma
    end = tau0 + 10.0 * sigma

    g = lambda t: _gauss_threshold_residual(a, b, tau0, t)
    # g(0) = e^{-A^2} > 0 analytically; scan for the first sign change. The
    # bracket is checked before the polish, in case rounding disagrees.
    grid = [end * k / 512.0 for k in range(513)]
    lo = 0.0
    hi = None
    for t in grid[1:]:
        if g(t) <= 0.0:
            hi = t
            break
        lo = t
    if hi is None:
        raise NoThreshold(f"no threshold crossing in [0, {end}]")
    if not brackets_root(g(lo), g(hi)):
        raise NoThreshold(f"threshold residual does not change sign on the "
                          f"bracket [{lo!r}, {hi!r}]")
    tau_c = brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    return GaussConstants(sigma=sigma, n=n, kappa_i=kappa_i,
                          a=a, b=b, tau0=tau0, tau_c=tau_c)


def gauss_rate(sigma: float, n: float, tau: float) -> float:
    """r_in(tau) for the Gaussian family (peak rate from sigma)."""
    r = 1.0 / (sigma * SQRT_2PI)
    z = (tau - n * sigma) / sigma
    return r * math.exp(-0.5 * z * z)


def gauss_population(sigma: float, n: float, kappa_i: float, tau: float) -> float:
    """Memory population beta^2(tau) for the Gaussian input, both stages."""
    cst = gauss_constants(sigma, n, kappa_i)
    if tau < 0.0:
        raise DomainError("tau must be >= 0")
    if tau < cst.tau_c:
        # beta^2 = r_in * [sqrt(pi)/(2 sqrt(b)) e^{B^2}(erf B + erf A)]^2;
        # the square bracket is exactly 1 at the threshold.
        bracket = 0.5 * SQRT_PI / math.sqrt(cst.b) * _exp_b2_s(cst.a, cst.b, cst.tau0, tau)
        return gauss_rate(sigma, n, tau) * bracket * bracket
    return _gauss_stage2(cst, sigma, n, tau)


def _gauss_stage2(cst: GaussConstants, sigma: float, n: float, tau: float) -> float:
    k = cst.kappa_i
    seed = gauss_rate(sigma, n, cst.tau_c)
    rt2b = math.sqrt(2.0 * cst.b)  # = 1/(sigma*sqrt(2))
    b2 = lambda s: rt2b * (s - cst.tau0) - 0.5 * k / rt2b
    try:
        weight = math.exp(-k * (tau - cst.tau0) + 0.125 * k * k / cst.b)
    except OverflowError:
        # e^{k^2 sigma^2/4} overflows long before the erf difference it
        # multiplies underflows: kappa_i*sigma is beyond this form's range.
        raise DomainError(
            f"Gaussian closed form overflows at kappa_i = {k}, sigma = {sigma}, "
            f"tau = {tau}") from None
    integral = 0.5 * weight * (erf(b2(tau)) - erf(b2(cst.tau_c)))
    return math.exp(-k * (tau - cst.tau_c)) * seed + integral


def gauss_coupling(sigma: float, n: float, kappa_i: float, tau: float) -> float:
    """Stage-2 coupling r_in(tau)/beta^2(tau) for the Gaussian input."""
    cst = gauss_constants(sigma, n, kappa_i)
    if tau < cst.tau_c - 1e-12:
        raise DomainError("gauss_coupling is the stage-2 law; needs tau >= tau_c")
    pop = _gauss_stage2(cst, sigma, n, max(tau, cst.tau_c))
    if pop <= 0.0:
        raise SingularCoupling(f"population not positive at tau = {tau}")
    return gauss_rate(sigma, n, tau) / pop


def gauss_report(sigma: float, n: float, kappa_i: float) -> tuple[float, float]:
    """Peak time and fidelity (tau_max, F) for the Gaussian input.

    The peak solves r_in(tau_max) = kappa_i * beta^2(tau_max) on the falling
    edge of the pulse; kappa_i = 0 returns (inf, beta^2(inf)).
    """
    cst = gauss_constants(sigma, n, kappa_i)
    if kappa_i == 0.0:
        rt2b = math.sqrt(2.0 * cst.b)
        seed = gauss_rate(sigma, n, cst.tau_c)
        fid = seed + 0.5 * (1.0 - erf(rt2b * (cst.tau_c - cst.tau0)))
        return math.inf, fid

    h = lambda t: gauss_rate(sigma, n, t) - kappa_i * _gauss_stage2(cst, sigma, n, t)
    # h(tau_c) = (1 - kappa_i) * beta^2(tau_c) > 0; expand past the nominal
    # horizon if the intrinsic loss is so small that the crossing is later.
    lo = cst.tau_c
    hi = cst.tau0 + 10.0 * sigma
    width = hi - lo
    for _ in range(64):
        if h(hi) < 0.0:
            break
        lo = hi
        width *= 2.0
        hi = lo + width
    else:
        raise NoPeak("input rate never falls below the intrinsic-loss rate")
    # first sign change inside [lo, hi]
    steps = 256
    prev = lo
    for k in range(1, steps + 1):
        t = lo + (hi - lo) * k / steps
        if h(t) < 0.0:
            hi = t
            break
        prev = t
    if not brackets_root(h(prev), h(hi)):
        raise NoPeak(f"peak residual does not change sign on the bracket "
                     f"[{prev!r}, {hi!r}]")
    tau_max = brentq(h, prev, hi, xtol=1e-12, rtol=8.9e-16, maxiter=200)
    return tau_max, _gauss_stage2(cst, sigma, n, tau_max)
