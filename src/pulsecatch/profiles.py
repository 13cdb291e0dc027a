"""Normalized input intensity profiles r_in(tau) and resonator memory parameters.

Everything in this package is dimensionless: times are measured in units of
1/kappa_max and rates in units of kappa_max, so kappa_max itself is always 1.
A profile carries one excitation in total, i.e. the integral of r_in over
[0, inf) equals 1 (up to the truncation deficit of a Gaussian cut at tau = 0).
The package's one CSV reader (`_read_pairs`) and writer (`_fmt`,
`_csv_text`, `_atomic_write`) live here, since every command loads this module.
"""
from __future__ import annotations

import csv
import math
import os
import sys
import tempfile
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from ._scipy import quad
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
        # `rate_at` reads the few-ulp negatives that the cubic can leave next
        # to a zero sample as 0.
        return _pchip(self.taus, self.rates)

    @cached_property
    def _interp_cum(self) -> _Piecewise:
        # scipy's PPoly.antiderivative: row j over j + 1, and each piece's
        # constant the previous piece at its length (its `fix_continuity`),
        # summed as `_Piecewise.at` sums; 0.0 on the first piece.
        table = self._interp
        coefs = np.zeros((5, table.coefs.shape[1]))
        coefs[1:] = table.coefs / np.array([[1.0], [2.0], [3.0], [4.0]])
        # c_j s^j on each piece but the last, s its length, s^j as in `at`
        terms = coefs[1:, :-1] * np.cumprod([np.diff(table.knots[:-1])] * 4, 0)
        const, consts = 0.0, [0.0]
        for t1, t2, t3, t4 in zip(*terms.tolist()):
            const = 0.0 + const + t1 + t2 + t3 + t4
            consts.append(const)
        coefs[0] = consts
        return _Piecewise(table.knots, coefs, table.x)


class _Piecewise:
    """A table's cubic, and the one place that knows how it is stored.

    `knots` are the breakpoints x_0 < .. < x_n, and row j of `coefs` holds
    the coefficients of (t - x_i)^j on each piece i, constant term first;
    `x` lists the knots for `at(t)`, which reads a piece's coefficients as
    floats when it first reaches that piece. Floats and arrays (`__call__`)
    are evaluated as scipy's PPoly evaluates them, bit for bit for t in
    [x[0], x[-1]]: on the piece scipy's interval search takes (x[i] <= t <
    x[i+1], the last piece closed), summing the power basis in the order of
    its `evaluate_poly1`, from the constant term up.
    """

    __slots__ = ("knots", "coefs", "x", "last", "_pieces")

    def __init__(self, knots: np.ndarray, coefs: np.ndarray, x=None):
        self.knots = knots
        self.coefs = coefs
        self.x = knots.tolist() if x is None else x
        self.last = coefs.shape[1] - 1
        self._pieces: dict[int, list[float]] = {}

    def at(self, t: float) -> float:
        i = bisect_right(self.x, t) - 1
        if i > self.last:
            i = self.last
        try:
            c = self._pieces[i]
        except KeyError:        # read once, when `at` first reaches piece i
            c = self._pieces[i] = self.coefs[:, i].tolist()
        s = t - self.x[i]
        # The leading 0.0 is scipy's too: 0.0 + (-0.0) gives +0.0.
        res, z = 0.0, 1.0
        for coef in c:
            res = res + coef * z
            z *= s
        return res

    def __call__(self, t: np.ndarray) -> np.ndarray:
        i = np.searchsorted(self.knots[1:-1], t, side="right")
        s = t - self.knots.take(i)
        res, z = 0.0 + self.coefs[0].take(i), 1.0
        for row in self.coefs[1:]:
            z = z * s
            res += row.take(i) * z
        return res


def _pchip(x, y) -> _Piecewise:
    """Shape-preserving cubic through strictly increasing, finite (x, y):
    scipy's PchipInterpolator, bit for bit, on the same numpy operations
    (Fritsch and Carlson, SIAM J. Numer. Anal. 17, 238 (1980); the knot
    slopes are Fritsch and Butland's weighted harmonic means, the end slopes
    Moler's one-sided estimate, `_pchip_edge`). It lies inside the local
    data range up to rounding (a table's rates, a coupling file's kappa).
    Where a secant slope is tiny (5e-309 between 1e-308 and 2e-308), the
    harmonic mean overflows and the knot slope is 1/inf = 0, the formula's
    limit; the overflow warning is noise. Samples whose slopes are not
    finite floats (a secant of 1e308 per unit) are a DomainError."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        h = np.diff(x)
        m = (y[1:] - y[:-1]) / h
        if len(x) == 2:
            d = np.array([m[0], m[0]])
        else:
            sign = np.sign(m)
            flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            with np.errstate(invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d = np.zeros_like(y)
            d[1:-1][~flat] = 1.0 / whmean[~flat]
            d[0] = _pchip_edge(h[0], h[1], m[0], m[1])
            d[-1] = _pchip_edge(h[-1], h[-2], m[-1], m[-2])
        if not np.isfinite(d).all():
            raise DomainError("no PCHIP through these samples: `dydx` must "
                              "contain only finite values.")
        # CubicHermiteSpline's power form; its secant slopes are m
        t = (d[:-1] + d[1:] - 2 * m) / h
        coefs = np.stack((y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h))
    return _Piecewise(x, coefs)


def _pchip_edge(h0, h1, m0, m1) -> float:
    """An end slope: the one-sided three-point estimate, 0 where its sign
    is not the end secant's, 3 m0 where the secants change sign and it
    exceeds 3 |m0|."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def exponential(r: float) -> InputProfile:
    """Profile r_in(tau) = r * exp(-r*tau)."""
    if not (0.0 < r < math.inf and 50.0 / r < math.inf):
        raise DomainError(f"exponential profile needs r > 0 and a finite "
                          f"horizon 50/r, got {r}")
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
    given = float(sigma if r is None else r)
    if not (given > 0.0):
        raise DomainError(f"gaussian profile needs r or sigma > 0, got {given}")
    if r is None:
        sigma, r = given, 1.0 / (given * SQRT_2PI)
    else:
        sigma = 1.0 / (given * SQRT_2PI)
    square = sigma * sigma
    if not (square > 0.0 and sys.float_info.min <= 0.25 / square < math.inf):
        raise DomainError(f"gaussian profile needs a normal 1/(4 sigma^2), "
                          f"got sigma = {sigma}")
    n = float(n)
    if not math.isfinite(n) or n < MIN_GAUSSIAN_OFFSET:
        raise DomainError(
            f"gaussian offset multiplier n must be >= {MIN_GAUSSIAN_OFFSET}, got {n}"
        )
    return InputProfile(kind=GAUSSIAN, r=float(r), sigma=float(sigma), n=n)


def tabulated(taus, rates) -> InputProfile:
    """Tabulated profile from strictly increasing (tau_k, r_k) samples.

    r_in between the samples is their PCHIP cubic (`_pchip`), built on first
    use, as its antiderivative is; neither loads scipy. Negative r_k are
    accepted at construction so that `validate` can name the violated
    invariant; every downstream solver requires a validated profile.
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


# The standard ranges: the closed-form oracles are validated for kappa_i up
# to KAPPA_I_RANGE[1], and sweeps beyond either range warn.
R_RANGE = (0.05, 1.0)
KAPPA_I_RANGE = (0.0, 1e-2)          # open below: sweep cells require kappa_i > 0


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
    """Evaluate r_in(tau); tau may be a scalar or an array, all entries >= 0.

    Each analytic family's formula is written once: `_checked` pairs a
    float with `math` and an array with `_MAPPED`, which maps math.exp over
    its floats (np.exp differs in the last bit on a few percent of inputs),
    so each array value is the float call's bit for bit. A table's float
    and array evaluations are `_Piecewise.at` and `__call__`."""
    tau, m = _checked(tau, "rate_at")
    if profile.kind == EXPONENTIAL:
        return profile.r * m.exp(-profile.r * tau)
    if profile.kind == GAUSSIAN:
        z = (tau - profile.tau0) / profile.sigma
        return profile.r * m.exp(-0.5 * z * z)
    table = profile._interp
    if m is math:
        if tau < table.x[0] or tau > table.x[-1]:
            return 0.0
        val = table.at(tau)
        return 0.0 if val < 0.0 else val
    out = table(np.clip(tau, profile.taus[0], profile.taus[-1]))
    return np.where((tau < profile.taus[0]) | (tau > profile.taus[-1])
                    | (out < 0.0), 0.0, out)


def cumulative(profile: InputProfile, tau):
    """Analytic integral of r_in over [0, tau] (antiderivative for tabulated data).

    This is the closed-form companion to `total_excitation`, which integrates
    numerically; the two are cross-checked in the test suite rather than
    defined in terms of each other. Floats and arrays share each formula,
    math.expm1 and math.erf, as in `rate_at`.
    """
    tau, m = _checked(tau, "cumulative")
    if profile.kind == EXPONENTIAL:
        return -m.expm1(-profile.r * tau)
    if profile.kind == GAUSSIAN:
        root2 = math.sqrt(2.0)
        lo = math.erf(profile.tau0 / (profile.sigma * root2))
        return 0.5 * (m.erf((tau - profile.tau0) / (profile.sigma * root2)) + lo)
    table = profile._interp_cum
    if m is math:
        return table.at(min(max(tau, table.x[0]), table.x[-1]))
    return table(np.clip(tau, profile.taus[0], profile.taus[-1]))


def _map(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """fn at each float of an array, in its shape."""
    return np.fromiter(map(fn, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


# math's exp, expm1 and erf, each mapped over an array's floats
_MAPPED = SimpleNamespace(exp=partial(_map, math.exp),
                          expm1=partial(_map, math.expm1),
                          erf=partial(_map, math.erf))


def _checked(tau, name: str):
    """tau as a float, with the math module, or if it has dimensions as a
    float array, with `_MAPPED`; a DomainError unless all of it is >= 0."""
    scalar = isinstance(tau, (float, int)) or np.ndim(tau) == 0
    tau, m = (float(tau), math) if scalar else (np.asarray(tau, float), _MAPPED)
    if not (tau >= 0.0 if scalar else np.all(tau >= 0.0)):
        raise DomainError(f"{name} requires tau >= 0")
    return tau, m


def _unique(values) -> np.ndarray:
    """The sorted distinct values, as np.unique finds them (its `_unique1d`:
    sort, then keep each value that differs from the one before), without
    the numpy.ma import np.unique makes; -0.0 and 0.0 are one value, and
    NaNs, which the package never passes, are not merged."""
    a = np.sort(np.ravel(values))
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


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
    """Where the adaptive oracles split (a, b): the Gaussian's peak, table knots."""
    if profile.kind == GAUSSIAN and a < profile.tau0 < b:
        return [profile.tau0]
    if profile.kind == TABULATED:
        x = profile._interp.x
        return x[bisect_right(x, a):bisect_left(x, b)]
    return []


# The 21-point Kronrod rule on [-1, 1] (QUADPACK's dqk21, Piessens et al.,
# 1983): its non-negative abscissae, the centre last, and their weights.
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
_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))     # ascending
_WEIGHTS = np.concatenate((_WGK, _WGK[-2::-1]))
_EPMACH = sys.float_info.epsilon
_CHUNK = 40          # intervals per quad call, which caps its break points
_EPSREL = 1e-12
_BLOCK = 256         # intervals per Kronrod pass, which bounds its node arrays


def _kronrod(f: Callable[[np.ndarray], np.ndarray], edges) -> np.ndarray:
    """The 21-point Kronrod rule on each interval between `edges`, the
    intervals along their first axis: the integral of f there. f takes the
    nodes as one array of shape (21,) + the intervals' shape, so that
    per-interval parameters broadcast, and gives its value at each, or rows
    of such values. Nodes are a + h (1 + x), h the half length: at a centre
    plus an offset (QUADPACK's) they would all shift with the centre's
    rounding and bias the sum. Each interval's 21 terms are summed in node
    order, so its integral is the same bit for bit alone or in a batch.

    f gets at most `_BLOCK` intervals of the first axis per call, so the
    node arrays keep one size however many knots a table has, and the
    blocks' integrals are joined along that axis. So a per-interval
    parameter that f captures may vary only along the trailing interval
    axes, never along the first."""
    e = np.asarray(edges, dtype=float)
    if len(e) > _BLOCK + 1:
        return np.concatenate([_kronrod(f, e[i:i + _BLOCK + 1])
                               for i in range(0, len(e) - 1, _BLOCK)],
                              axis=-e.ndim)
    hlgth, ax = 0.5 * (e[1:] - e[:-1]), -e.ndim - 1
    x, w = (v.reshape((-1,) + (1,) * e.ndim) for v in (_NODES, _WEIGHTS))
    fx = np.cumsum(w * f(e[:-1] + hlgth * (1.0 + x)), axis=ax)
    return hlgth * fx.take(-1, axis=ax)


def _quad_chunked(f: Callable[[float], float], a: float, b: float,
                  breaks: list[float], epsabs: float = 1e-12) -> float:
    """Adaptive quadrature of f over [a, b], split at the interior `breaks` in
    chunks of 40 (quad caps its break points; tables are only C1 at knots)."""
    if b <= a:
        return 0.0
    if b - a <= 1e3 * _EPMACH * max(abs(a), abs(b)):
        # Too short for QUADPACK to bisect: it would stop at once with its
        # "extremely bad integrand" warning. One rule is exact to rounding.
        return float(_kronrod(lambda s: _map(f, s), [a, b])[0])
    edges = [a] + breaks + [b]
    n = len(edges) - 1
    total = 0.0
    for i in range(0, n, _CHUNK):
        j = min(i + _CHUNK, n)
        total += quad(f, edges[i], edges[j], points=edges[i + 1:j] or None,
                      limit=200, epsabs=epsabs, epsrel=_EPSREL)[0]
    return total


def total_excitation(profile: InputProfile, tau_end: float) -> float:
    """Numerically integrate r_in over [0, tau_end] (tau_end may be inf).

    On a table this is one Kronrod rule per knot interval, exact to rounding
    on its cubics, and needs numpy alone. On an analytic pulse it is an
    oracle for `cumulative`, by scipy's adaptive `quad` to ~1e-13 absolute
    error (chunked, and past the horizon a tail): it needs the test extra,
    which installs scipy, and raises ModuleNotFoundError naming it without."""
    if not tau_end >= 0.0:
        raise DomainError("total_excitation requires tau_end >= 0")
    end = horizon(profile) if math.isinf(tau_end) else float(tau_end)
    f, breaks = partial(rate_at, profile), _interior_breaks(profile, 0.0, end)
    if profile.kind == TABULATED:
        return float(_kronrod(f, [0.0, *breaks, end]).sum())
    head = _quad_chunked(f, 0.0, end, breaks, 1e-13)
    if not math.isinf(tau_end):
        return head
    return head + quad(f, end, np.inf, limit=200, epsabs=1e-13, epsrel=1e-12)[0]


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

    # An analytic family's normalization is its closed form; a table's is
    # its Kronrod integral, which needs no scipy either.
    total = total_excitation(profile, math.inf) if profile.kind == TABULATED \
        else cumulative(profile, math.inf)
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
        pairs = _read_pairs(rest.strip(), "profile table")
        if len(pairs) < 2:
            raise DomainError(f"profile table {rest.strip()} needs at least "
                              "two samples")
        return tabulated(*zip(*pairs))
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


def _fmt(v) -> str:
    """17-significant-digit text, so files round-trip doubles (`inf`, `-inf`, `nan`)."""
    return format(float(v), ".17g")


def _csv_text(header: str, rows) -> str:
    """The header line, then one line per row, each value spelled as `_fmt`
    spells it: "%.17g" converts each value with float(), as `_fmt` does."""
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    return header + "\n" + "".join([line % tuple(row) for row in rows])


def _atomic_write(path, text: str) -> None:
    """Write text to `path` via a sibling temp file and an atomic rename.

    The file gets the mode a plain `open` would give it, 0o666 less the
    umask, rather than the owner-only mode of the temp file. A failed write
    leaves no temp file behind, and an OSError that names a file names
    `path`: the temp file's random name means nothing to the caller.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                                   suffix=os.path.basename(path))
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError) and exc.filename is not None:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise
