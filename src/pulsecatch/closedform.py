"""Analytic evaluators for exponential and Gaussian input pulses.

These closed forms serve two purposes: they are the fast path for parameter
sweeps, and they are independent oracles for the generic solver in
`protocol`, which propagates both stages exactly over power-series pieces.
All expressions are dimensionless (kappa_max = 1) and overflow-safe (expm1,
log1p, and one erfcx identity in place of each Gaussian erf difference), so
they hold for pulse times up to ~1e4, for any kappa_i sigma, and where the
textbook expressions degenerate to 0/0.

Conventions: the memory amplitude beta is <= 0, populations are its square.
Stage 1 is [0, tau_c) at kappa = 1; stage 2 is the zero-reflection schedule
kappa(tau) = r_in(tau)/beta^2(tau).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import profiles as prof
from ._scipy import brentq
from .errors import (DomainError, NoPeak, NoThreshold, SingularCoupling,
                     brackets_root)

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def _load_special() -> None:
    """Bind `erf` and `erfcx` to scipy's on the first Gaussian evaluation:
    only the Gaussian forms need scipy.special, and a sweep calls them
    about 10^5 times, so they are bound once instead of imported per call."""
    global erf, erfcx
    from scipy.special import erf, erfcx


def erf(x):
    _load_special()
    return erf(x)


def erfcx(x):
    _load_special()
    return erfcx(x)


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


def _erf_gap(x, y, gap, exp=math.exp):
    """e^{x^2} (erf x - erf y) = erfcx(-x) - erfcx(-y) e^{(x+y) gap}, y <= x <= 0
    (DLMF 7.2): no factor overflows, and gap = x - y, taken exact, cancels nothing."""
    return erfcx(-x) - erfcx(-y) * exp((x + y) * gap)


def _exp_b2_s(a: float, b: float, tau0: float, tau: float) -> float:
    """Return exp(B^2) * (erf(B) + erf(A)) without overflow for B <= 0.

    This is the bracket whose value is 1 exactly at the threshold time. For
    tau in [0, tau0 + a/(2b)] we have B <= 0 and |B| <= A, and `_erf_gap`
    with x = B, y = -A and x - y = sqrt(b) tau keeps every factor in range.
    """
    rb = math.sqrt(b)
    big_b = rb * (tau - tau0) - 0.5 * a / rb
    big_a = rb * tau0 + 0.5 * a / rb
    if big_b <= 0.0:
        return _erf_gap(big_b, -big_a, rb * tau)
    return math.exp(big_b * big_b) * (erf(big_b) + erf(big_a))


def _gauss_threshold_residual(a: float, b: float, tau0: float, tau: float) -> float:
    """e^{B^2} g(tau) = 1 - C e^{B^2} (erf B + erf A), C = sqrt(pi)/(2 sqrt(b)).

    g = e^{-B^2} - C (erf B + erf A) is the threshold residual; its root is
    tau_c. Scaled by e^{B^2} it keeps g's sign and root, equals 1 exactly at
    tau = 0 (where B = -A), and takes `_exp_b2_s`'s overflow-safe form.
    """
    return 1.0 - 0.5 * SQRT_PI / math.sqrt(b) * _exp_b2_s(a, b, tau0, tau)


@lru_cache(maxsize=1024)
def gauss_constants(sigma: float, n: float, kappa_i: float) -> GaussConstants:
    """a, b, tau0 and the root tau_c of the erf-form threshold equation.

    dg/dtau = -sqrt(b) e^{-B^2} (2B + 1/sqrt(b)): g rises up to
    tau0 - (1 - kappa_i) sigma^2 and falls after, and it starts at
    g(0) = e^{-A^2} > 0, so it has one root and [0, tau0 + 10 sigma] brackets
    it. The bracket is checked before the polish, in case rounding disagrees.
    """
    _check_gauss_domain(sigma, n, kappa_i)
    a = 0.5 * (1.0 + kappa_i)
    b = 0.25 / (sigma * sigma)
    tau0 = n * sigma
    end = tau0 + 10.0 * sigma

    g = lambda t: _gauss_threshold_residual(a, b, tau0, t)
    if not brackets_root(g(0.0), g(end)):
        raise NoThreshold(f"threshold residual does not change sign on the "
                          f"bracket [0.0, {end!r}]")
    tau_c = brentq(g, 0.0, end, xtol=1e-14, rtol=8.9e-16, maxiter=200)
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
    """beta^2 = e^{-k (tau - tau_c)} r_in(tau_c) + w (erf x - erf y)/2, k = kappa_i,
    w = e^{-k (tau - tau0) + k^2 sigma^2/2}, x, y = b2(tau), b2(tau_c), b2(s) = (s - tau0
    - k sigma^2)/(sigma sqrt 2). For x <= 0 the erf term is g(tau) `_erf_gap`/2 with gap
    (tau - tau_c)/(sigma sqrt 2), g = w e^{-x^2} = e^{-(tau - tau0)^2/(2 sigma^2)}; for
    x > 0, w <= 1. No overflow or cancellation next to -1, for any kappa_i sigma."""
    k = cst.kappa_i
    seed = gauss_rate(sigma, n, cst.tau_c)
    rt2b = math.sqrt(2.0 * cst.b)  # = 1/(sigma*sqrt(2))
    b2 = lambda s: rt2b * (s - cst.tau0) - 0.5 * k / rt2b
    x, y = b2(tau), b2(cst.tau_c)
    if x <= 0.0:
        z = (tau - cst.tau0) / sigma
        integral = math.exp(-0.5 * z * z) * _erf_gap(x, y, rt2b * (tau - cst.tau_c))
    else:
        weight = math.exp(-k * (tau - cst.tau0) + 0.125 * k * k / cst.b)
        integral = weight * (erf(x) - erf(y))
    return math.exp(-k * (tau - cst.tau_c)) * seed + 0.5 * integral


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

    The peak solves h = r_in - kappa_i beta^2 = 0 on the falling edge of the
    pulse; kappa_i = 0 returns (inf, beta^2(inf)). h is the slope of beta^2,
    so at any root h' = r_in'. Before tau0 r_in' > 0, and h, positive at
    tau_c, cannot reach 0 on [tau_c, tau0]; after tau0 r_in' < 0, and h
    crosses zero once, downward. The doubling from max(tau_c, tau0) stops at
    the first window whose right end has h < 0, which brackets that root.
    """
    cst = gauss_constants(sigma, n, kappa_i)
    if kappa_i == 0.0:
        rt2b = math.sqrt(2.0 * cst.b)
        seed = gauss_rate(sigma, n, cst.tau_c)
        fid = seed + 0.5 * (1.0 - erf(rt2b * (cst.tau_c - cst.tau0)))
        return math.inf, fid

    h = lambda t: gauss_rate(sigma, n, t) - kappa_i * _gauss_stage2(cst, sigma, n, t)
    # The doubling reaches past the nominal horizon if the intrinsic loss is
    # so small that the crossing is later.
    lo = max(cst.tau_c, cst.tau0)
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
    if not brackets_root(h(lo), h(hi)):
        raise NoPeak(f"peak residual does not change sign on the bracket "
                     f"[{lo!r}, {hi!r}]")
    tau_max = brentq(h, lo, hi, xtol=1e-12, rtol=8.9e-16, maxiter=200)
    return tau_max, _gauss_stage2(cst, sigma, n, tau_max)


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


def _gauss_stage1_population(cst: GaussConstants, tau: np.ndarray) -> np.ndarray:
    """beta^2 = r_in (C e^{B^2}(erf B + erf A))^2 at each tau in [0, tau_c],
    C = sqrt(pi)/(2 sqrt(b)): `gauss_population`'s stage-1 form on an array,
    so that one Kronrod sum takes all its nodes in a few numpy calls. Each
    branch of `_exp_b2_s` sees only the B of its own sign, so neither
    overflows."""
    rb = math.sqrt(cst.b)
    big_a = rb * cst.tau0 + 0.5 * cst.a / rb
    big_b = rb * (tau - cst.tau0) - 0.5 * cst.a / rb
    neg, pos = np.minimum(big_b, 0.0), np.maximum(big_b, 0.0)
    scaled = np.where(big_b <= 0.0, _erf_gap(neg, -big_a, rb * tau, np.exp),
                      np.exp(pos * pos) * (erf(pos) + erf(big_a)))
    bracket = 0.5 * SQRT_PI / rb * scaled
    z = (tau - cst.tau0) / cst.sigma
    return np.exp(-0.5 * z * z) / (cst.sigma * SQRT_2PI) * bracket * bracket


def _gauss_stage1_integral(cst: GaussConstants) -> float:
    """S1 = int_0^tau_c beta^2: the 21-point Kronrod rule on equal pieces at
    most 2 sigma wide (one rule over all of [0, tau_c] keeps only ~12 digits
    of a pulse with n = 8)."""
    pieces = max(1, math.ceil(cst.tau_c / (2.0 * cst.sigma)))
    edges = np.linspace(0.0, cst.tau_c, pieces + 1)
    return float(prof._kronrod(lambda t: _gauss_stage1_population(cst, t),
                               edges).sum())


def gauss_losses(sigma: float, n: float, kappa_i: float,
                 tau_max: float) -> tuple[float, float, float]:
    """(stage-1 reflection, intrinsic loss, unabsorbed input) up to tau_max
    for a Gaussian input; up to tau0 + 10 sigma when tau_max is inf
    (kappa_i = 0).

    The energy balance integrated over each stage leaves one integral,
    S1 = int_0^tau_c beta^2. Stage 1 ends at beta^2 = r_in(tau_c), so its
    reflection is C(tau_c) - r_in(tau_c) - kappa_i S1, with C the input's
    cumulative. Stage 2 reflects nothing, so its intrinsic loss is
    C(upper) - C(tau_c) - (beta^2(upper) - r_in(tau_c)). All terms share
    one C and one r_in(tau_c), and beta^2(tau_max) is the fidelity of
    `gauss_report` bit for bit, so the budget closes to rounding.
    """
    cst = gauss_constants(sigma, n, kappa_i)
    upper = tau_max if math.isfinite(tau_max) else cst.tau0 + 10.0 * sigma
    profile = prof.gaussian(sigma=sigma, n=n)
    c_tc = prof.cumulative(profile, cst.tau_c)
    c_up = prof.cumulative(profile, upper)
    seed = gauss_rate(sigma, n, cst.tau_c)
    s1 = _gauss_stage1_integral(cst)
    stage2 = (c_up - c_tc) - (float(_gauss_stage2(cst, sigma, n, upper)) - seed)
    # cumulative(inf) already excludes the left-truncation deficit, so the
    # unabsorbed term carries both the not-yet-arrived input and the
    # truncated mass.
    return c_tc - seed - kappa_i * s1, kappa_i * s1 + stage2, 1.0 - c_up
