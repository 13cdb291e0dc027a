"""Normalized input intensity profiles r_in(tau) and resonator memory parameters.

Everything in this package is dimensionless: times are measured in units of
1/kappa_max and rates in units of kappa_max, so kappa_max itself is always 1.
A profile carries one excitation in total, i.e. the integral of r_in over
[0, inf) equals 1 (up to the truncation deficit of a Gaussian cut at tau = 0).
"""
from __future__ import annotations

import csv
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import repeat
from operator import add
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import erf

from .errors import DomainError

SQRT_2PI = math.sqrt(2.0 * math.pi)

EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"
TABULATED = "tabulated"

# Default Gaussian delay in units of sigma; covers 99.997% of the pulse.
DEFAULT_GAUSSIAN_OFFSET = 4.0
MIN_GAUSSIAN_OFFSET = 3.0


@dataclass(frozen=True, eq=False)
class InputProfile:
    """Input intensity profile r_in(tau), tau >= 0.

    Use the module-level constructors `exponential`, `gaussian` and
    `tabulated` instead of instantiating this class directly.

    Attributes:
        kind: one of "exponential", "gaussian", "tabulated".
        r: initial rate (exponential) or peak rate 1/(sigma*sqrt(2*pi))
            (Gaussian); None for tabulated profiles.
        sigma: Gaussian standard deviation; None otherwise.
        n: Gaussian offset multiplier, tau_0 = n*sigma; None otherwise.
        taus, rates: sample arrays for tabulated profiles; None otherwise.
    """

    kind: str
    r: float | None = None
    sigma: float | None = None
    n: float | None = None
    taus: np.ndarray | None = None
    rates: np.ndarray | None = None

    @property
    def tau0(self) -> float:
        """Pulse-center delay n*sigma (Gaussian only)."""
        if self.kind != GAUSSIAN:
            raise DomainError("tau0 is only defined for Gaussian profiles")
        return self.n * self.sigma

    @cached_property
    def _interp(self) -> _Piecewise:
        # Shape-preserving cubic keeps the interpolant inside the local data
        # range, up to rounding: `rate_at` reads the few-ulp negatives it can
        # leave next to a zero sample as 0. Where a secant slope is tiny (say
        # 5e-309 between rates 1e-308 and 2e-308), scipy's weighted harmonic
        # mean of the neighbouring slopes overflows to inf and the knot slope
        # becomes 1/inf = 0, the limit the formula tends to; the overflow
        # warning is noise.
        with np.errstate(divide="ignore", over="ignore"):
            pp = PchipInterpolator(self.taus, self.rates, extrapolate=False)
        return _Piecewise(pp)

    @cached_property
    def _interp_cum(self) -> _Piecewise:
        return _Piecewise(self._interp.pp.antiderivative())


class _Piecewise:
    """A scipy piecewise polynomial with plain-list copies of its knots and
    coefficients, so that `at` evaluates a float without array overhead.

    `at(t)` is bitwise equal to `float(pp(t))` for t in [x[0], x[-1]]: it
    takes the piece scipy's interval search takes (x[i] <= t < x[i+1], the
    last piece closed) and sums the power basis in the order of scipy's
    `evaluate_poly1`, from the constant term up. Arrays go to `pp`.
    """

    __slots__ = ("pp", "x", "c", "last")

    def __init__(self, pp):
        self.pp = pp
        self.x = pp.x.tolist()
        self.c = pp.c[::-1].T.tolist()      # per piece, constant term first
        self.last = len(self.c) - 1

    def at(self, t: float) -> float:
        i = bisect_right(self.x, t) - 1
        if i > self.last:
            i = self.last
        s = t - self.x[i]
        # The leading 0.0 is scipy's too: 0.0 + (-0.0) gives +0.0.
        res = 0.0
        z = 1.0
        for coef in self.c[i]:
            res = res + coef * z
            z *= s
        return res


def exponential(r: float) -> InputProfile:
    """Profile r_in(tau) = r * exp(-r*tau)."""
    if not (r > 0.0) or not math.isfinite(r):
        raise DomainError(f"exponential profile needs r > 0, got {r}")
    return InputProfile(kind=EXPONENTIAL, r=float(r))


def gaussian(r: float | None = None, sigma: float | None = None,
             n: float = DEFAULT_GAUSSIAN_OFFSET) -> InputProfile:
    """Gaussian profile with peak rate r = 1/(sigma*sqrt(2*pi)), centered at n*sigma.

    Exactly one of `r` (peak rate) or `sigma` must be given; the other is
    derived from the peak relation. The pulse is truncated at tau = 0 and is
    deliberately not renormalized; the missing tail erfc(n/sqrt(2))/2 is
    accounted for by `validate` and in loss bookkeeping.
    """
    if (r is None) == (sigma is None):
        raise DomainError("give exactly one of r or sigma for a Gaussian profile")
    if r is not None:
        if not (r > 0.0) or not math.isfinite(r):
            raise DomainError(f"gaussian profile needs r > 0, got {r}")
        sigma = 1.0 / (float(r) * SQRT_2PI)
    else:
        if not (sigma > 0.0) or not math.isfinite(sigma):
            raise DomainError(f"gaussian profile needs sigma > 0, got {sigma}")
        r = 1.0 / (float(sigma) * SQRT_2PI)
    n = float(n)
    if not math.isfinite(n) or n < MIN_GAUSSIAN_OFFSET:
        raise DomainError(
            f"gaussian offset multiplier n must be >= {MIN_GAUSSIAN_OFFSET}, got {n}"
        )
    return InputProfile(kind=GAUSSIAN, r=float(r), sigma=float(sigma), n=n)


def tabulated(taus, rates) -> InputProfile:
    """Tabulated profile from strictly increasing (tau_k, r_k) samples.

    Negative r_k are accepted at construction so that `validate` can name the
    violated invariant; every downstream solver requires a validated profile.
    """
    taus = np.asarray(taus, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if taus.ndim != 1 or taus.shape != rates.shape or taus.size < 2:
        raise DomainError("tabulated profile needs matching 1-d tau/rate arrays, >= 2 samples")
    if not np.all(np.isfinite(taus)) or not np.all(np.isfinite(rates)):
        raise DomainError("tabulated profile samples must be finite")
    if taus[0] < 0.0:
        raise DomainError("tabulated profile samples must start at tau >= 0")
    if not np.all(np.diff(taus) > 0.0):
        raise DomainError("tabulated profile taus must be strictly increasing")
    taus = taus.copy()
    rates = rates.copy()
    taus.setflags(write=False)
    rates.setflags(write=False)
    return InputProfile(kind=TABULATED, taus=taus, rates=rates)


@dataclass(frozen=True)
class MemoryParams:
    """Resonator memory parameters: intrinsic loss rate in units of kappa_max.

    kappa_max = 1 is the rate unit: every rate in this package is measured
    in it, so it is not a field.
    """

    kappa_i: float

    def __post_init__(self):
        if not (0.0 <= self.kappa_i < 1.0):
            raise DomainError(f"kappa_i must lie in [0, 1), got {self.kappa_i}")


def rate_at(profile: InputProfile, tau):
    """Evaluate r_in(tau); tau may be a scalar or an array, all entries >= 0."""
    if isinstance(tau, float) or isinstance(tau, int):
        # Scalar fast path: integrators and quadratures call this millions of
        # times, so the analytic families skip the array machinery entirely.
        if tau < 0.0:
            raise DomainError("rate_at requires tau >= 0")
        if profile.kind == EXPONENTIAL:
            return profile.r * math.exp(-profile.r * tau)
        if profile.kind == GAUSSIAN:
            z = (tau - profile.tau0) / profile.sigma
            return profile.r * math.exp(-0.5 * z * z)
        table = profile._interp
        if tau < table.x[0] or tau > table.x[-1]:
            return 0.0
        val = table.at(tau)
        return 0.0 if val < 0.0 else val
    arr = np.asarray(tau, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("rate_at requires tau >= 0")
    if profile.kind == EXPONENTIAL:
        out = profile.r * np.exp(-profile.r * arr)
    elif profile.kind == GAUSSIAN:
        z = (arr - profile.tau0) / profile.sigma
        out = profile.r * np.exp(-0.5 * z * z)
    else:
        out = profile._interp.pp(np.clip(arr, profile.taus[0], profile.taus[-1]))
        out = np.where((arr < profile.taus[0]) | (arr > profile.taus[-1])
                       | (out < 0.0), 0.0, out)
    if np.ndim(tau) == 0:
        return float(out)
    return out


def cumulative(profile: InputProfile, tau):
    """Analytic integral of r_in over [0, tau] (antiderivative for tabulated data).

    This is the closed-form companion to `total_excitation`, which integrates
    numerically; the two are cross-checked in the test suite rather than
    defined in terms of each other.
    """
    if isinstance(tau, float) or isinstance(tau, int):
        if tau < 0.0:
            raise DomainError("cumulative requires tau >= 0")
        if profile.kind == EXPONENTIAL:
            return -math.expm1(-profile.r * tau)
        if profile.kind == GAUSSIAN:
            root2 = math.sqrt(2.0)
            lo = math.erf(profile.tau0 / (profile.sigma * root2))
            return 0.5 * (math.erf((tau - profile.tau0) / (profile.sigma * root2)) + lo)
        table = profile._interp_cum
        t0, t1 = table.x[0], table.x[-1]
        return table.at(min(max(tau, t0), t1)) - table.at(t0)
    arr = np.asarray(tau, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("cumulative requires tau >= 0")
    if profile.kind == EXPONENTIAL:
        out = -np.expm1(-profile.r * arr)
    elif profile.kind == GAUSSIAN:
        root2 = math.sqrt(2.0)
        lo = erf(profile.tau0 / (profile.sigma * root2))
        out = 0.5 * (erf((arr - profile.tau0) / (profile.sigma * root2)) + lo)
    else:
        t0, t1 = profile.taus[0], profile.taus[-1]
        base = profile._interp_cum.pp(t0)
        out = profile._interp_cum.pp(np.clip(arr, t0, t1)) - base
    if np.ndim(tau) == 0:
        return float(out)
    return out


def _pointwise(fn, profile: InputProfile, taus: np.ndarray) -> np.ndarray:
    """fn(profile, tau) at each tau of an array, bitwise equal to calling fn
    on each float (fn is `rate_at` or `cumulative`).

    np.exp and scipy's erf differ from math.exp and math.erf in the last bit
    on a few percent of inputs, so the analytic families take the scalar path
    point by point; a table runs the same PCHIP arithmetic either way.
    """
    if profile.kind == TABULATED:
        return np.asarray(fn(profile, taus), dtype=float)
    return np.array([fn(profile, t) for t in taus.tolist()], dtype=float)


def horizon(profile: InputProfile) -> float:
    """Time by which the profile has delivered essentially all of its excitation.

    Used to bound every root search: tau_0 + 10*sigma for a Gaussian, 50/r for
    an exponential, the last sample for tabulated data.
    """
    if profile.kind == EXPONENTIAL:
        return 50.0 / profile.r
    if profile.kind == GAUSSIAN:
        return profile.tau0 + 10.0 * profile.sigma
    return float(profile.taus[-1])


def _interior_breaks(profile: InputProfile, a: float, b: float) -> list[float]:
    """Points in (a, b) where r_in is not smooth: the Gaussian centre, table knots."""
    if profile.kind == GAUSSIAN and a < profile.tau0 < b:
        return [profile.tau0]
    if profile.kind == TABULATED:
        x = profile._interp.x
        return x[bisect_right(x, a):bisect_left(x, b)]
    return []


# QUADPACK's dqk21 (Piessens et al., QUADPACK, 1983): the non-negative
# abscissae of the 21-point Kronrod rule on [-1, 1], the centre last, their
# weights, and the weights of the embedded 10-point Gauss rule, whose
# abscissae are _XGK[1], _XGK[3], ...
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980316775, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# dqk21 adds the node pairs into its sums in this order: first the Gauss
# abscissae, then the others; _NODE_ORDER restores the order of _XGK.
_SUM_ORDER = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]
_XGK_SUM, _WGK_SUM = _XGK[_SUM_ORDER, None], _WGK[_SUM_ORDER, None]
_NODE_ORDER = np.argsort(_SUM_ORDER)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_CHUNK = 40          # intervals per quad call, which caps its break points
_EPSREL = 1e-12


def _sum_down(first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """first + rows[0] + rows[1] + ..., added in that order elementwise."""
    return np.add.accumulate(np.concatenate((first[None], rows)))[-1]


def _qk21(fv: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
          hi: np.ndarray) -> tuple[list[float], list[float], list[float]]:
    """dqk21 on every interval [lo[i], hi[i]] at once: the lists of its
    result, abserr and resasc, each elementwise operation in dqk21's order.

    fv takes all 21 nodes of every interval in one array and must give,
    bitwise, the values the scalar integrand gives there. Row k of fv1 and
    fv2 holds the node pair dqk21 adds k-th into its running sums.
    """
    m = len(lo)
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    absc = hlgth * _XGK_SUM
    fx = fv(np.concatenate((centr, (centr - absc).ravel(),
                            (centr + absc).ravel()))).reshape(21, m)
    fc, fv1, fv2 = fx[0], fx[1:11], fx[11:]
    fsum = fv1 + fv2
    resk0 = _WGK[10] * fc
    resg = _sum_down(np.zeros(m), _WG[:, None] * fsum[:5])
    resk = _sum_down(resk0, _WGK_SUM * fsum)
    resabs = _sum_down(np.abs(resk0), _WGK_SUM * (np.abs(fv1) + np.abs(fv2)))
    reskh = resk * 0.5
    resasc = _sum_down(_WGK[10] * np.abs(fc - reskh), (_WGK_SUM * (
        np.abs(fv1 - reskh) + np.abs(fv2 - reskh)))[_NODE_ORDER])
    dhlgth = np.abs(hlgth)
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = np.flatnonzero((resasc != 0.0) & (abserr != 0.0))
    if len(scaled):
        # C pow, as QUADPACK calls it: numpy's power may use other code.
        q = (200.0 * abserr[scaled] / resasc[scaled]).tolist()
        abserr[scaled] = resasc[scaled] * np.minimum(1.0, np.fromiter(
            map(math.pow, q, repeat(1.5)), float, len(q)))
    big = resabs > _UFLOW / (50.0 * _EPMACH)
    abserr[big] = np.maximum((_EPMACH * 50.0) * resabs[big], abserr[big])
    return (resk * hlgth).tolist(), abserr.tolist(), resasc.tolist()


def _first_pass(fv: Callable[[np.ndarray], np.ndarray], edges: list[float],
                epsabs: float) -> list[float | None]:
    """Per chunk of `_quad_chunked`: the value `quad` returns when its
    first pass already meets the tolerance, else None.

    With break points `quad` runs QUADPACK's dqagpe: dqk21 on each interval
    of the chunk, then a return iff the summed abserr is at most
    max(epsabs, epsrel |summed result|), the sums taken in interval order
    from 0. A one-interval chunk runs dqagse instead, which also asks that
    abserr differ from resasc unless it is 0.
    """
    n = len(edges) - 1
    e = np.array(edges)
    result, abserr, resasc = _qk21(fv, e[:-1], e[1:])
    out: list[float | None] = []
    for i in range(0, n, _CHUNK):
        j = min(i + _CHUNK, n)
        val = reduce(add, result[i:j], 0.0)
        ok = reduce(add, abserr[i:j], 0.0) <= max(epsabs, _EPSREL * abs(val))
        if j == i + 1:
            ok = (ok and abserr[i] != resasc[i]) or abserr[i] == 0.0
        out.append(val if ok else None)
    return out


def _quad_chunked(f: Callable[[float], float], a: float, b: float,
                  breaks: list[float], epsabs: float = 1e-12,
                  fv: Callable[[np.ndarray], np.ndarray] | None = None) -> float:
    """Adaptive quadrature of f over [a, b], split at the interior `breaks` in
    chunks of 40 (quad caps its break points; tables are only C1 at knots).

    fv, if given, is f on arrays, bitwise equal to f at each point. One
    vectorized dqk21 pass over every interval then settles each chunk that
    QUADPACK's first pass would accept, with quad's value to the bit; only
    the others call quad, so they keep its value and its warnings.
    """
    if b <= a:
        return 0.0
    edges = [a] + breaks + [b]
    n = len(edges) - 1
    starts = range(0, n, _CHUNK)
    first = [None] * len(starts) if fv is None else _first_pass(fv, edges, epsabs)
    total = 0.0
    for i, val in zip(starts, first):
        if val is None:
            j = min(i + _CHUNK, n)
            val, _ = quad(f, edges[i], edges[j], points=edges[i + 1:j] or None,
                          limit=200, epsabs=epsabs, epsrel=_EPSREL)
        total += val
    return total


def _quad_rate(profile: InputProfile, a: float, b: float) -> float:
    """Adaptive quadrature of rate_at over [a, b] to ~1e-12 absolute error."""
    f = lambda s: rate_at(profile, s)       # a table's is bitwise on arrays
    return _quad_chunked(f, a, b, _interior_breaks(profile, a, b), 1e-13,
                         f if profile.kind == TABULATED else None)


def total_excitation(profile: InputProfile, tau_end: float) -> float:
    """Numerically integrate r_in over [0, tau_end] (tau_end may be inf)."""
    if tau_end < 0.0:
        raise DomainError("total_excitation requires tau_end >= 0")
    if tau_end == 0.0:
        return 0.0
    if math.isinf(tau_end):
        if profile.kind == TABULATED:
            return _quad_rate(profile, 0.0, float(profile.taus[-1]))
        cut = horizon(profile)
        head = _quad_rate(profile, 0.0, cut)
        tail, _ = quad(lambda s: rate_at(profile, s), cut, np.inf,
                       limit=200, epsabs=1e-13, epsrel=1e-12)
        return head + tail
    return _quad_rate(profile, 0.0, float(tau_end))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of `validate`: pass/fail plus the violated invariants by name."""

    ok: bool
    failures: tuple[str, ...]
    total: float
    deficit_bound: float


def validate(profile: InputProfile) -> ValidationReport:
    """Check the profile invariants; failures are reported, never raised."""
    failures: list[str] = []

    total = total_excitation(profile, math.inf)
    if profile.kind == GAUSSIAN:
        deficit_bound = 0.5 * math.erfc(profile.n / math.sqrt(2.0))
        if not (-1e-9 <= 1.0 - total <= deficit_bound + 1e-9):
            failures.append(f"normalization ≈ {total:.9g}")
    else:
        deficit_bound = 0.0
        if abs(total - 1.0) > 1e-6:
            failures.append(f"normalization ≈ {total:.9g}")

    if profile.kind == TABULATED:
        if np.any(profile.rates < 0.0):
            failures.append("nonnegativity")
    # Analytic families are nonnegative by construction; n >= 3 is enforced
    # structurally for Gaussians, so nothing further to check here.

    return ValidationReport(ok=not failures, failures=tuple(failures),
                            total=total, deficit_bound=deficit_bound)


def parse_profile(text: str) -> InputProfile:
    """Parse a profile literal: `exp:r=0.036`, `gauss:r=0.1533,n=4`, `table:<path.csv>`.

    Gaussian literals accept `sigma=` in place of `r=`; the table CSV has two
    columns `tau,r_in` with an optional header row.
    """
    head, sep, rest = text.partition(":")
    if not sep:
        raise DomainError(f"malformed profile literal {text!r}")
    head = head.strip().lower()
    if head == "table":
        return _load_table(rest.strip())
    kv: dict[str, float] = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise DomainError(f"malformed profile literal {text!r}")
            try:
                kv[key.strip().lower()] = float(val)
            except ValueError as exc:
                raise DomainError(f"bad number in profile literal {text!r}") from exc
    if head == "exp":
        if set(kv) != {"r"}:
            raise DomainError("exponential literal takes exactly r=<rate>")
        return exponential(kv["r"])
    if head == "gauss":
        extra = set(kv) - {"r", "sigma", "n"}
        if extra:
            raise DomainError(f"unknown gaussian parameters {sorted(extra)}")
        return gaussian(r=kv.get("r"), sigma=kv.get("sigma"),
                        n=kv.get("n", DEFAULT_GAUSSIAN_OFFSET))
    raise DomainError(f"unknown profile family {head!r}")


def _read_pairs(path_text: str, what: str) -> list[tuple[float, float]]:
    """The (x, y) rows of a two-column CSV file, in file order.

    Blank rows are skipped, and so are rows that do not parse before the
    first one that does (a header); after it, such a row is an error. Cells
    may be quoted. Non-finite values are kept for the caller to judge.
    """
    path = Path(path_text)
    if not path.is_file():
        raise DomainError(f"{what} not found: {path}")
    pairs: list[tuple[float, float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            try:
                pairs.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                if pairs:
                    raise DomainError(f"bad row in {what} {path}: {row!r}")
    return pairs


def _load_table(path_text: str) -> InputProfile:
    pairs = _read_pairs(path_text, "profile table")
    if len(pairs) < 2:
        raise DomainError(f"profile table {path_text} needs at least two samples")
    taus, rates = zip(*pairs)
    return tabulated(taus, rates)
