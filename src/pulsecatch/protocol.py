"""Generic two-stage transfer solver for arbitrary validated input profiles.

Stage 1 holds the coupling at its maximum (kappa = 1) from tau = 0 until the
stored population first reaches the threshold beta^2 = r_in; from that
threshold time tau_c on, stage 2 applies the zero-reflection law
kappa(tau) = r_in(tau)/beta^2(tau), under which the memory absorbs the rest of
the input without reflecting anything.

Both stages solve y' = p(tau) - k y, which the solver propagates exactly
over pieces where p is a power series (`_ExactLinear`). Each root sought
(threshold, feasibility violation, peak) is one of a linear form in y and
y' there, bracketed piece by piece (`_ExactLinear.samples`) and polished
on the exact forms; `stage1_amplitude`, `stage2_population` and
`closedform` are its oracles. Sign conventions: the source amplitude
beta1 is >= 0 and the memory amplitude beta is <= 0 everywhere.

For inputs that rise too steeply the zero-reflection law can demand
kappa > kappa_max after a first, tangential threshold. `build_schedule`
detects that, reverts to stage 1 at the violation point and hunts for the
next threshold, producing a piecewise schedule with more than two segments;
such schedules are flagged.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import profiles as prof
# Neither quad nor solve_ivp is called here: the tracer wraps them by name.
from ._scipy import brentq, quad, solve_ivp  # noqa: F401
from .errors import (DomainError, InfeasibleSchedule, NoThreshold,
                     SingularCoupling, brackets_root)

_KAPPA_SLACK = 1e-9       # feasibility slack on kappa <= 1
_MAX_SEGMENTS = 32
_DAMP_CUT = 80.0          # exp(-80) below double-precision noise floor
_EPS = np.finfo(float).eps


def _stage1_beta_quad(profile: prof.InputProfile, kappa_i: float,
                      t0: float, beta0: float, tau: float) -> float:
    """Stage-1 memory amplitude by damped-kernel quadrature.

    beta(tau) = beta0 e^{-a(tau-t0)} - int_{t0}^{tau} e^{-a(tau-s)} sqrt(r_in(s)) ds
    with a = (1+kappa_i)/2. The kernel window is truncated where the weight
    has decayed below double precision, which keeps the integrand bounded for
    arbitrarily large tau. epsabs is 1e-13: at 1e-12, quad missed the
    integral of a table piece rising from a zero sample by 2.5e-13.
    """
    a = 0.5 * (1.0 + kappa_i)
    lo = max(t0, tau - _DAMP_CUT / a)
    f = lambda s: math.exp(-a * (tau - s)) * math.sqrt(prof.rate_at(profile, s))
    integral = prof._quad_chunked(
        f, lo, tau, prof._interior_breaks(profile, lo, tau), 1e-13)
    boundary = beta0 * math.exp(-a * (tau - t0)) if beta0 != 0.0 else 0.0
    return boundary - integral


def stage1_amplitude(profile: prof.InputProfile, params: prof.MemoryParams,
                     tau: float) -> float:
    """Memory amplitude beta(tau) <= 0 under stage-1 dynamics (kappa = 1).

    `_stage1_beta_quad` is chained from knot to knot over the kernel's
    window, the last 80/a before tau (a = (1 + kappa_i)/2), each link cut
    into pieces with a h <= 1/2 and started from the value at the last: one
    quadrature over a window where sqrt(r_in) has a square-root edge can
    miss it by far more than its tolerance. An oracle, by scipy's adaptive
    `quad`: it needs the test extra, which installs scipy, and raises
    ModuleNotFoundError naming it without."""
    if not tau >= 0.0:
        raise DomainError("stage1_amplitude requires tau >= 0")
    a = 0.5 * (1.0 + params.kappa_i)
    o, beta = max(0.0, tau - _DAMP_CUT / a), 0.0
    for t in prof._interior_breaks(profile, o, tau) + [tau] * (tau > o):
        for s in np.linspace(o, t, math.ceil(2.0 * a * (t - o)) + 1)[1:]:
            beta, o = _stage1_beta_quad(profile, params.kappa_i, o, beta,
                                        float(s)), float(s)
    return beta


def stage2_population(profile: prof.InputProfile, params: prof.MemoryParams,
                      tau_c: float, tau: float) -> float:
    """Zero-reflection population beta^2(tau) for tau >= tau_c.

    beta^2(tau) = e^{-k_i(tau-tau_c)} r_in(tau_c)
                + int_{tau_c}^{tau} e^{-k_i(tau-s)} r_in(s) ds
    evaluated with the decaying weight inside the integral so nothing
    overflows however large tau gets. An oracle, by scipy's adaptive
    `quad`: it needs the test extra, which installs scipy, and raises
    ModuleNotFoundError naming it without.
    """
    if not tau >= tau_c:
        raise DomainError("stage2_population requires tau >= tau_c")
    return _stage2_pop(profile, params.kappa_i, tau_c,
                       prof.rate_at(profile, tau_c), tau)


def _stage2_pop(profile: prof.InputProfile, k: float, t0: float, pop0: float,
                tau: float) -> float:
    """Stage-2 population beta^2(tau) from beta^2(t0) = pop0."""
    seed = pop0 * math.exp(-k * (tau - t0))
    f = lambda s: math.exp(-k * (tau - s)) * prof.rate_at(profile, s)
    integral = prof._quad_chunked(
        f, t0, tau, prof._interior_breaks(profile, t0, tau), 1e-12)
    return seed + integral


# ---------------------------------------------------------------------------
# threshold search
# ---------------------------------------------------------------------------

def _activation_time(profile: prof.InputProfile) -> float | None:
    """Earliest tau from which r_in is not identically zero (None if never)."""
    if profile.kind != prof.TABULATED:
        return 0.0
    positive = np.nonzero(profile.rates > 0.0)[0]
    if len(positive) == 0:
        return None
    i = int(positive[0])
    return float(profile.taus[max(i - 1, 0)])


def _down(g: np.ndarray) -> np.ndarray:
    """Indices i of the downward zero crossings g[i] > 0 >= g[i + 1]."""
    return np.flatnonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))


def _threshold_bracket(profile: prof.InputProfile, kappa_i: float,
                       t_start: float, beta_start: float, end: float):
    """Bracket (lo, hi) of the first downward crossing of
    g(tau) = sqrt(r_in(tau)) + beta(tau) past t_start, and the stage-1
    solution from t_start up to the chunk holding hi.

    The scan runs from t0 to end: t0 is t_start or, past a leading stretch
    where r_in vanishes identically (g would sit at 0 for a fresh memory),
    the input's activation. Stage 1 is propagated exactly in chunks
    (`_ExactLinear.stage1`), and the scan stops at the first chunk holding
    a crossing. There sqrt(r_in) = -beta' - k beta (k = (1 + kappa_i)/2),
    so g = (1 - k) beta - beta', and the chunk's `samples` of it bracket
    every root: no dip of g, however narrow, falls between two of them.
    """
    activation = _activation_time(profile)
    if activation is None:
        raise NoThreshold("input profile carries no excitation")
    t0 = max(t_start, activation)
    if t0 >= end:
        raise NoThreshold("input activates only beyond the search horizon")
    parts = []
    for chunk in _ExactLinear.stage1(profile, kappa_i, t_start, beta_start,
                                     t0, end):
        ts, y = chunk.samples(0.5 * (1.0 - kappa_i), -1.0, 0.0, t0)
        g = np.sqrt(prof.rate_at(profile, ts)) + y
        if parts:       # the last chunk's end, as the scan saw it there
            g[0] = g_last
        parts.append(chunk)
        down = _down(g)
        if len(down):
            i = int(down[0])
            return float(ts[i]), float(ts[i + 1]), _ExactLinear.join(parts)
        g_last = g[-1]
    raise NoThreshold(
        f"stage-1 population never reaches the threshold in [{t0}, {end}]"
    )


def _first_threshold(profile: prof.InputProfile, kappa_i: float,
                     t_start: float, beta_start: float, end: float):
    """(tau_c, sol): the first tau_c > t_start where the stored population
    reaches beta^2 = r_in, and the stage 1 from t_start to tau_c: the scan's
    propagation (`_threshold_bracket`) cut at tau_c.

    `_threshold_bracket`'s crossing of g = sqrt(r_in) + beta (beta <= 0, so
    g hits zero exactly at the threshold) is polished on the exact form of
    g. The scan took its signs from array evaluations, so they are checked
    on floats first.
    """
    lo, hi, sol = _threshold_bracket(profile, kappa_i, t_start, beta_start,
                                     end)
    g = lambda t: math.sqrt(prof.rate_at(profile, t)) + sol.at(t)
    if not brackets_root(g(lo), g(hi)):
        raise NoThreshold(f"threshold residual does not change sign on "
                          f"the bracket [{lo!r}, {hi!r}]")
    tau_c = brentq(g, lo, hi, xtol=1e-300, rtol=4 * _EPS, maxiter=200)
    return tau_c, sol.cut(max(bisect_left(sol._knots, tau_c), 1), tau_c)


def threshold_time(profile: prof.InputProfile, params: prof.MemoryParams) -> float:
    """Smallest tau_c > 0 with beta^2(tau_c) = r_in(tau_c) under stage 1."""
    return _first_threshold(profile, params.kappa_i, 0.0, 0.0,
                            prof.horizon(profile))[0]


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Segment:
    stage: int              # 1: kappa = 1 builds the seed; 2: zero reflection
    t0: float
    t1: float
    sol: _ExactLinear       # the exact beta (stage 1) or beta^2 (stage 2)

    def beta_sq(self, t: float) -> float:
        """Stored population at a float t inside the segment."""
        val = self.sol.at(t)
        return val * val if self.stage == 1 else max(val, 0.0)


def _amplitude(taus, stages: np.ndarray, vals: np.ndarray,
               pop: np.ndarray) -> np.ndarray:
    """beta <= 0 at `CouplingSchedule._sampled`'s samples: the dense value
    in stage 1, -sqrt(beta^2) in stage 2."""
    return np.where(stages == 1, vals, -np.sqrt(pop))


@dataclass(frozen=True, eq=False)
class CouplingSchedule:
    """Piecewise coupling schedule: kappa = 1 before tau_c, r_in/beta^2 after.

    `segments` covers [0, horizon], each starting where the one before it
    ends, so `_inner_ends` are the boundaries; past the horizon beta^2 is
    `_tail`'s, the stage-2 population propagated exactly on from the last
    segment's value there. Schedules with more than one stage-1 segment
    arise from the feasibility guard and carry the "feasibility_resumed"
    flag.

    The evaluation methods take a float or an array (`_answer`). An array
    costs one dense-output call per segment it touches. A float is a
    one-element array, but to `kappa`, whose float path gives the array's
    value bit for bit.
    """

    profile: prof.InputProfile
    params: prof.MemoryParams
    tau_c: float
    segments: tuple[_Segment, ...]
    horizon: float
    flags: tuple[str, ...] = ()

    @property
    def last_tau_c(self) -> float:
        return self.segments[-1].t0

    @cached_property
    def _tail(self) -> _Segment:
        """The stage-2 segment past the horizon H, built on first use:
        `_Tail` from the last segment's value at H to U, the first of
        H + w (2^j - 1), w = H - tau_c, where r_in is 0.0 (on a table,
        whose r_in is 0 past its last knot, H itself)."""
        profile, k, h = self.profile, self.params.kappa_i, self.horizon
        end, width = h, h - self.tau_c
        while profile.kind != prof.TABULATED \
                and prof.rate_at(profile, end) != 0.0:
            end, width = end + width, 2.0 * width
        tail, ys = _Tail.stage2(profile, k, h, self.segments[-1].sol.at(h), end)
        tail._k, tail._end, tail._y_end = k, end, ys[-1]
        return _Segment(2, h, end, tail)

    @cached_property
    def _inner_ends(self) -> list[float]:
        """Ends of every segment but the last: the segment lookup's edges."""
        return [seg.t1 for seg in self.segments[:-1]]

    def _segment_at(self, tau: float) -> _Segment:
        """The segment holding tau: the first one ending after it, else the
        last; past the horizon, the tail."""
        if tau > self.horizon:
            return self._tail
        return self.segments[bisect_right(self._inner_ends, tau)]

    def _sampled(self, taus: np.ndarray):
        """(stage, dense value, beta^2) at each sample, in taus' shape. Each
        sample takes `_segment_at`'s segment (index len(segments): the
        tail), with one dense call per segment touched; `dense` works
        element by element, so no value depends on the samples around it."""
        index = np.searchsorted(self._inner_ends, taus, side="right")
        index[taus > self.horizon] = len(self.segments)
        stage, vals = np.empty(taus.shape, dtype=int), np.empty(taus.shape)
        for i in np.flatnonzero(np.bincount(index.ravel())).tolist():
            seg = self._tail if i == len(self.segments) else self.segments[i]
            at = index == i
            stage[at], vals[at] = seg.stage, seg.sol.dense(taus[at])
        return stage, vals, np.where(stage == 1, vals * vals,
                                     np.where(vals < 0.0, 0.0, vals))

    def _answer(self, name: str, tau, compute, floor: float = 0.0, **kw):
        """compute(taus, stage, dense value, beta^2, **kw), the last three
        `_sampled`'s, at tau as a float array, once tau >= floor (0;
        `stage2_kappa`: tau_c) is checked: an array of tau's shape, and at
        a float or 0-d tau its one value as a Python scalar."""
        taus = np.asarray(tau, dtype=float)
        if not np.all(taus >= floor):
            raise DomainError(f"{name} requires tau >= "
                              f"{'tau_c' if floor else 0}")
        flat = np.atleast_1d(taus)
        out = compute(flat, *self._sampled(flat), **kw)
        return out.item() if taus.ndim == 0 else out

    # Each evaluator is one array computation through `_answer`. `kappa`
    # alone keeps a float path, for the simulators' right-hand sides; it
    # makes no closure, which would put self in a cell on every call.

    def beta_sq(self, tau):
        """Stored population beta^2 at any tau >= 0 (a float or an array)."""
        return self._answer("beta_sq", tau, lambda t, stage, v, pop: pop)

    def beta(self, tau):
        """Memory amplitude (<= 0) at any tau >= 0 (a float or an array)."""
        return self._answer("beta", tau, _amplitude)

    def stage(self, tau):
        """The stage, 1 or 2, of the segment holding each tau >= 0 (a float
        or an array); past the horizon 2."""
        return self._answer("stage", tau, lambda t, stage, v, pop: stage)

    def stage2_kappa(self, tau):
        """Zero-reflection coupling r_in/beta^2 for tau >= tau_c (a float or
        an array)."""
        return self._answer("stage2_kappa", tau, lambda t, stage, v, pop:
                            self._coupling(t, np.full_like(stage, 2), v, pop),
                            self.tau_c)

    def kappa(self, tau, *, nan_if_singular: bool = False):
        """Full piecewise coupling: 1 in stage-1 segments, r_in/beta^2 after.

        tau is a float or an array. Where the zero-reflection law is singular
        (see `stage2_kappa`) the value is nan with `nan_if_singular`;
        otherwise SingularCoupling is raised.
        """
        if not (isinstance(tau, float) and tau >= 0.0):
            return self._answer("kappa", tau, self._coupling,
                                nan_if_singular=nan_if_singular)
        seg = self._segment_at(tau)
        if seg.stage == 1:
            return 1.0
        rate = prof.rate_at(self.profile, tau)
        if rate == 0.0:
            return 0.0
        pop = seg.sol.at(tau)       # stage 2's beta^2, unclipped
        if pop <= 0.0:
            if nan_if_singular:
                return math.nan
            raise SingularCoupling(f"population numerically null at tau = "
                                   f"{tau}; coupling undefined")
        return rate / pop

    def reflection(self, tau):
        """Instantaneous reflection rate r_out = (beta sqrt(kappa) + sqrt(r_in))^2
        (tau a float or an array)."""
        def compute(t, stage, v, pop):
            w = _amplitude(t, stage, v, pop) \
                * np.sqrt(self._coupling(t, stage, v, pop)) \
                + np.sqrt(prof.rate_at(self.profile, t))
            return w * w
        return self._answer("reflection", tau, compute)

    def _coupling(self, taus: np.ndarray, stages: np.ndarray,
                  vals: np.ndarray, pop: np.ndarray,
                  nan_if_singular: bool = False) -> np.ndarray:
        """kappa at each sample: 1 in stage 1; in stage 2 r_in/beta^2, 0
        where r_in = 0, and where beta^2 <= 0 while r_in is not,
        SingularCoupling raised or nan."""
        two = stages == 2
        taus, pop = taus[two], pop[two]
        rate = prof.rate_at(self.profile, taus)
        singular = (rate != 0.0) & (pop <= 0.0)
        if singular.any() and not nan_if_singular:
            raise SingularCoupling(f"population numerically null at tau = "
                                   f"{float(taus[singular][0])}; coupling "
                                   f"undefined")
        out = np.ones(two.shape)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out[two] = np.where(singular, math.nan,
                                np.where(rate == 0.0, 0.0, rate / pop))
        return out

    def breakpoints(self) -> list[float]:
        """Segment boundary times (kappa is non-smooth there)."""
        return list(self._inner_ends)


_TAIL = 2.0 ** -60       # series terms below this share of the leading one are cut
_SPREAD = 0.5            # largest sum_j |c_j| h^j / c_0 of a table's root piece
_FINE = 0.125            # the same on a piece cut again (`_refined`)
_MAX_SPLIT = 4096        # most pieces `_refined` halves at once
_MAX_TERMS = 60          # longest series
_MAX_PIECES = 2 ** 20    # most pieces in one grid (`_check_pieces`)
_CHUNK = 32              # pieces of the first stage-1 chunk; each next doubles
_FILL = np.arange(64.0) / 64.0  # a crowded piece's start and 63 inner samples


def _horner(coefs, v):
    """sum_m coefs[m] v^(m+1) by Horner's rule, from the top coefficient.
    Each coefficient is a float or an array; the arithmetic is the same on
    floats and elementwise on arrays."""
    acc = coefs[-1]
    for c in coefs[-2::-1]:
        acc = acc * v + c
    return acc * v


def _shift(c, s) -> list[np.ndarray]:
    """[c_0, .., c_3] re-centred by s: sum_j c_j (s + v)^j = sum_j out_j v^j."""
    c0, c1, c2, c3 = c
    return [((c3 * s + c2) * s + c1) * s + c0,
            (3.0 * c3 * s + 2.0 * c2) * s + c1, 3.0 * c3 * s + c2, c3]


def _recentred(table: prof._Piecewise, piece: np.ndarray,
               starts: np.ndarray) -> list[np.ndarray]:
    """[c_0, .., c_3]: the cubic of knot interval piece[i] re-centred at
    starts[i], r_in(starts[i] + v) = sum_j c_j[i] v^j."""
    return _shift(table.coefs[:, piece], starts - table.knots[piece])


def _check_pieces(n, t: float):
    """DomainError before a grid of n > `_MAX_PIECES` pieces from t exists."""
    if n > _MAX_PIECES:
        raise DomainError(f"the series need {float(n):.3g} pieces from tau = "
                          f"{t:.6g}, more than {_MAX_PIECES:,}")


def _cut(starts: np.ndarray, h: np.ndarray, n: np.ndarray, end: float):
    """(ts, the index of the piece each part comes from): the pieces from
    starts, h long, each cut into n equal parts, the last ending at end."""
    _check_pieces(n.sum(), starts[0])
    n = n.astype(int)
    at = np.arange(len(starts))
    if n.max() > 1:
        at = np.repeat(at, n)
        share = (np.arange(len(at)) - np.repeat(np.cumsum(n) - n, n)) / n[at]
        starts = starts[at] + h[at] * share
    return np.append(starts, end), at


def _pieces(profile, starts: list[float], end: float, parts):
    """(ts, knot interval of each piece) for the pieces from `starts` to
    end, each cut into parts(starts, h, piece) equal parts."""
    table = profile._interp
    starts = np.array(starts)
    # the piece scipy's search gives the start: x[i] <= t < x[i+1]
    piece = np.clip(np.searchsorted(table.knots, starts, side="right") - 1,
                    0, table.last)
    h = np.append(starts[1:], end) - starts
    ts, at = _cut(starts, h, parts(starts, h, piece), end)
    return ts, piece[at]


def _spread(c: list[np.ndarray], h: np.ndarray) -> np.ndarray:
    """sum_j |c_j| h^j / c_0 on each piece: inf where c_0 <= 0."""
    with np.errstate(all="ignore"):
        out = ((np.abs(c[3]) * h + np.abs(c[2])) * h + np.abs(c[1])) * h / c[0]
    return np.where(c[0] > 0.0, out, np.inf)


def _series(first: np.ndarray, nxt, h: np.ndarray, done: np.ndarray):
    """(rows, terms): the power series with rows first, nxt(rows, 1),
    nxt(rows, 2), .. (rows holding those before) on each piece. A piece
    keeps its terms up to the first n where rows n-2, n-1 and n are each at
    most 2^-64 first at v = h (terms = n + 1), and holds 0 after; terms is
    0 where no n below `_MAX_TERMS` passes, and 1 from the start where
    done."""
    rows = [first]
    small, hn = _TAIL / 16.0 * first, np.ones_like(h)
    tiny = []       # row n small at v = h, n = 1, 2, ..
    with np.errstate(all="ignore"):
        for n in range(1, _MAX_TERMS):
            rows.append(nxt(rows, n))
            hn = hn * h
            tiny.append(np.abs(rows[-1]) * hn <= small)
            # a done piece's rows are 0 (`_root_series`), so small too
            if n >= 3 and tiny[-1].all() and tiny[-2].all() and tiny[-3].all():
                break
    tiny = np.array(tiny)
    run = tiny[2:] & tiny[1:-1] & tiny[:-2]     # rows j+1, j+2, j+3 small
    terms = np.where(done, 1, np.where(run.any(axis=0),
                                       run.argmax(axis=0) + 4, 0))
    rows = np.array(rows[:max(int(terms.max()), 2)])
    rows[np.arange(len(rows))[:, None] >= terms] = 0.0
    return list(rows), terms


def _root_series(c: list[np.ndarray], h: np.ndarray, ok: np.ndarray):
    """(rows s_0, s_1, .., terms, passed): the Taylor series of
    sqrt(sum_j c_j v^j) on each piece, s_0 = sqrt(c_0) and
    s_n = (c_n - sum_{j=1}^{n-1} s_j s_{n-j}) / (2 s_0), cut by `_series`.

    A piece marked ok (0 throughout, or c_0 > 0 and sum_j |c_j| h^j <=
    c_0/2) passes once its series is cut. The rest of its series is then
    below 2^-60 s_0 on the piece: s solves 2 q s' = q' s for the cubic q,
    so for n >= 2 |s_{n+1}| h^(n+1) <= sum_j |c_j| h^j / c_0
    |s_{n+1-j}| h^(n+1-j)."""
    c = [np.where(ok, cj, 0.0) for cj in c]
    first = np.sqrt(c[0])
    twice = np.where(first > 0.0, 2.0 * first, 1.0)

    def nxt(rows, n):
        # the products s_j s_{n-j} in order of j: each pair twice
        conv = rows[n // 2] * rows[n // 2] if n % 2 == 0 else 0.0
        for j in range(1, (n + 1) // 2):
            conv = conv + 2.0 * (rows[j] * rows[n - j])
        return ((c[n] if n < 4 else 0.0) - conv) / twice

    rows, terms = _series(first, nxt, h, ~ok)
    return rows, terms, ok & (terms > 0) & np.isfinite(rows).all(axis=0)


def _taylor(profile: prof.InputProfile, grid: np.ndarray, root: bool):
    """(ts, rows c_0, c_1, .., terms, passed): the pieces between the points
    of grid, each cut into equal parts where the terms of its series could
    sum to more than twice its value, sum_n |c_n| h^n > 2 c_0 (on a falling
    flank the terms alternate, and the cut keeps them from cancelling), and
    the Taylor series at each piece start o of an analytic r_in, or with
    root of sqrt(r_in), cut by `_series`.

    r_in(o + v) = c_0 exp(-a v - b v^2/2), with a = r, b = 0 for an
    exponential and a = x/sigma^2, b = 1/sigma^2, x = o - tau0, for a
    Gaussian; the root halves a and b. The sum is at most
    c_0 exp(|a| h + b h^2/2), and log2 of that many parts bring it to 2.
    The series: c_0 = r_in(o) (or its root), n c_n = -(a c_{n-1} + b c_{n-2}).
    """
    half = 0.5 if root else 1.0
    h = np.diff(grid)
    if profile.kind == prof.EXPONENTIAL:
        a = half * profile.r
        log_sum = a * h
    else:
        b = half / profile.sigma ** 2
        log_sum = b * (np.abs(grid[:-1] - profile.tau0) * h + 0.5 * h * h)
    ts = _cut(grid[:-1], h, np.maximum(np.ceil(log_sum / math.log(2.0)),
                                       1.0), float(grid[-1]))[0]
    first = prof.rate_at(profile, ts[:-1])
    if root:
        first = np.sqrt(first)
    if profile.kind == prof.EXPONENTIAL:
        nxt = lambda rows, n: rows[-1] * -a / n
    else:
        na, nb = -b * (ts[:-1] - profile.tau0), -b
        nxt = lambda rows, n: (na * rows[-1] + nb * rows[-2]) / n if n > 1 \
            else na * rows[-1]
    rows, terms = _series(first, nxt, np.diff(ts), np.zeros(len(ts) - 1,
                                                            dtype=bool))
    return ts, rows, terms, (terms > 0) & np.isfinite(rows).all(axis=0)


def _uniform(profile: prof.InputProfile, k: float, t0: float, end: float,
             root: bool):
    """(n, h, chunk): [t0, end] cut into n equal pieces of length h, at
    most 1/(2k) and the profile's own scale (sigma/4 for a Gaussian; for an
    exponential the length over which the series, of sqrt(r_in) with root,
    grows by e^(1/2)), and chunk(i, j), `_taylor` on pieces i to
    j - 1, the last ending at end."""
    scale = profile.sigma / 4.0 if profile.kind == prof.GAUSSIAN \
        else (1.0 if root else 0.5) / profile.r
    n = max(math.ceil((end - t0) / min(scale, 0.5 / k if k else math.inf)),
            1)

    def chunk(i: int, j: int):
        _check_pieces(j - i, t0 + (end - t0) * i / n)
        ts = t0 + (end - t0) * (np.arange(i, j + 1) / n)
        if j == n:
            ts[-1] = end
        return _taylor(profile, ts, root)

    return n, (end - t0) / n, chunk


def _phi_series(p: list, k: float, m: int, shift=0.0) -> list:
    """Rows d_1..d_m of S(v) = |v|^shift sum_m d_m v^m, the solution of
    S' = |v|^shift sum_j p_j v^j - k S from S(0) = 0, for v of either sign:
    (m + shift) d_m = p_{m-1} - k d_{m-1}, d_0 = 0 (p_j = 0 past the last
    row). The shift is 0, or per piece 1/2 on a branch piece (`_refined`)."""
    d = [p[0] / (1.0 + shift)]
    for j in range(2, m + 1):
        d.append(((p[j - 1] if j <= len(p) else 0.0) - k * d[-1])
                 / (j + shift))
    return d


def _phi_rows(p: list, terms: np.ndarray, passed: np.ndarray, k: float,
              m: int, shift=0.0):
    """(d, passed): `_phi_series` of each piece's series p, with its first
    max(terms + 1, m) rows kept and the others 0. A piece whose rows are
    not finite fails: a very short piece's series can have rows near the
    largest float, and p_{m-1} - k d_{m-1} overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.array(_phi_series(p, k, max(len(p) + 1, m), shift))
    passed = passed & np.isfinite(d).all(axis=0)
    d[(np.arange(len(d))[:, None] >= np.maximum(terms + 1, m)) | ~passed] = 0.0
    return list(d), passed


def _root_form(profile: prof.InputProfile, a: np.ndarray, b: np.ndarray,
               kp: np.ndarray):
    """(o, branch, lam, q): sqrt(r_in(o + u)) = |u|^(1/2 if branch) (lam_0
    + lam_1 u) sqrt(q(u)) on each piece [a, b] of knot interval kp, q a
    cubic. At a zero sample z of the interval, r_in(z + u) = u^m q_z(u),
    m counting the cubic's coefficients at z below 2^-46 of its sum there.
    An interior zero knot has PCHIP slope 0, so m = 2: sqrt(r_in) =
    |t - z| sqrt(q_z) on the whole interval. An odd m (a zero first or last
    sample with a nonzero slope) is a branch point, the anchor of a piece
    no further from it than its length, q = sign(u)^m q_z. Any other piece
    takes its own cubic, o = a."""
    x = profile._interp.knots
    left = profile.rates[kp] == 0.0
    z = np.where(left, x[kp], x[kp + 1])
    e = _recentred(profile._interp, kp, z)
    e[0] = np.zeros(len(kp))
    mag = [abs(ej) * (x[kp + 1] - x[kp]) ** j for j, ej in enumerate(e)]
    tiny = [mj <= 2.0 ** -46 * sum(mag) for mj in mag]
    m = np.where(left | (profile.rates[kp + 1] == 0.0),
                 1 + tiny[1] + (tiny[1] & tiny[2]), 0)
    m[(m % 2 == 1) & (np.minimum(abs(a - z), abs(b - z)) > b - a)] = 0
    z = np.where(m > 0, z, x[kp])
    e = np.where(m > 0, e, profile._interp.coefs[:, kp])
    branch, sign = m % 2 == 1, np.where(a < z, -1.0, 1.0)
    o = np.where(branch, z, a)
    up = np.arange(4)[:, None] + m                  # q_z: e shifted down by m
    q = np.where(up < 4, e[np.minimum(up, 3), np.arange(len(m))], 0.0)
    lam = [np.where(m > 1, sign * (o - z), 1.0), np.where(m > 1, sign, 0.0)]
    return o, branch, lam, _shift(q * np.where(branch, sign, 1.0), o - z)


def _refined(profile: prof.InputProfile, k: float, m: int, a: np.ndarray,
             b: np.ndarray, kp: np.ndarray) -> list:
    """`_merged`'s parts, (starts, d rows, anchors, branch) per round, of
    the pieces [a, b] (knot intervals kp) whose series failed, each in its
    `_root_form` and halved until its q spreads at most `_FINE` from its
    anchor and its series passes: hp refinement towards each root or branch
    point (Babuska and Guo, Comput. Mech. 1, 1986). Where h sqrt(sum_j
    |c_j| h^j) <= 2^-70 (r_in's cubic near underflow or its own rounding),
    p = 0. More than `_MAX_SPLIT` pieces to halve, or 60 halvings, raise
    NoThreshold."""
    parts = []
    for _ in range(61):
        if not len(a):
            return parts
        o, branch, lam, q = _root_form(profile, a, b, kp)
        h = np.maximum(abs(a - o), abs(b - o))
        s, terms, passed = _root_series(q, h, _spread(q, h) <= _FINE)
        p = [-(lam[0] * sj + lam[1] * before)
             for sj, before in zip(s + [0.0], [0.0] + s)]
        d, passed = _phi_rows(p, terms + 1, passed, k, m, 0.5 * branch)
        c, w = _recentred(profile._interp, kp, a), b - a
        zero = ~passed & (w * w * sum(abs(cj) * w ** j for j, cj
                                      in enumerate(c)) <= 2.0 ** -140)
        keep = passed | zero        # d is 0 on a failed piece
        parts.append((a[keep], [row[keep] for row in d],
                      np.where(zero, a, o)[keep], (branch & ~zero)[keep]))
        a, b, kp = a[~keep], b[~keep], kp[~keep]
        if len(a) > _MAX_SPLIT:
            break
        a, b, kp = (np.concatenate((a, 0.5 * (a + b))),
                    np.concatenate((0.5 * (a + b), b)), np.tile(kp, 2))
    raise NoThreshold(f"stage-1 series failed near tau = {a[0]}")


def _merged(parts: list, end: float):
    """(ts, d, o, branch) of the pieces of `parts`, each (starts, d rows,
    anchors, branch), in the order of their starts, the last ending at end;
    a part's missing rows are 0."""
    starts = np.concatenate([part[0] for part in parts])
    order = np.argsort(starts, kind="stable")
    d = [np.concatenate([part[1][n] if n < len(part[1])
                         else np.zeros(len(part[0])) for part in parts])[order]
         for n in range(max(len(part[1]) for part in parts))]
    return (np.append(starts[order], end), d,
            *(np.concatenate([part[n] for part in parts])[order]
              for n in (2, 3)))


def _expm1_rows(k: float, h: float, lead: int = 0) -> list[float]:
    """Rows g_1..g_M of expm1(-k v) = sum_m g_m v^m, g_m = (-k)^m/m!, with
    the first M > lead where the tail against the term of degree lead,
    (lead+1)! (k h)^(M-lead)/(M+1)!, is below 2^-60 on the longest piece h."""
    m, scale = lead + 1, math.factorial(lead + 1)
    while scale * (k * h) ** (m - lead) > _TAIL * math.factorial(m + 1):
        m += 1
    return [(-k) ** j / math.factorial(j) for j in range(1, m + 1)]


class _ExactLinear:
    """y' = p(v) - k y propagated exactly over pieces, where from each
    piece's anchor o, p(o + v) = sum_j p_j v^j: the stage-2 population
    (p = r_in, k = kappa_i) and the stage-1 amplitude (p = -sqrt(r_in),
    k = (1 + kappa_i)/2), on a table's PCHIP pieces and on an analytic
    profile's Taylor series. With y = y(o), the exponential integrator's
    phi functions (Hochbruck and Ostermann, Acta Numerica 19, 2010) give

        y(o + v) = y + (expm1(-k v) y + S(v)),
        S(v) = sum_j j! p_j v^(j+1) phi_{j+1}(-k v),  phi_m(z) = sum_n z^n/(n+m)!

    two power series in v, with coefficients g_m = (-k)^m/m!
    (`_expm1_rows`) and d_m (`_phi_series`). A piece is anchored at its
    start, but for a table's stage 1 at a square-root branch point of r_in
    (a zero first or last sample with a nonzero slope, `_root_form`), at
    the piece's start or end: there p(o + v) = |v|^(1/2) sum_j p_j v^j,
    and S takes the same factor (`branch`). A point takes the piece of `ts`
    that holds it, the earlier one at a piece end, clamped to the first and
    last pieces. `at` (floats) and `dense` (arrays) run the same
    arithmetic, bit for bit, and at a piece end give the recurrence y_{i+1}
    = y_i + (expm1(-k h_i) y_i + S_i(h_i)), which carries each rounding
    error on (TwoSum).
    """

    def __init__(self, ts: np.ndarray, y, lo, d: list[np.ndarray],
                 g: list[float], o=None, branch=None):
        self.ts = ts
        self._knots = ts.tolist()       # `at`'s lookup
        self._last = len(ts) - 2
        self._y = np.asarray(y, dtype=float)        # y at each anchor
        self._lo = np.asarray(lo, dtype=float)
        self._d = d                 # rows d_1..d_M, each over the pieces
        self._g = g
        self._o = ts[:-1] if o is None else o       # each piece's anchor
        self._branch = np.zeros(len(ts) - 1, bool) if branch is None else branch
        self._any_branch = bool(self._branch.any())
        self._pieces: dict[int, tuple] = {}         # `at`'s floats

    def _a(self) -> np.ndarray:
        """Rows a_1..a_M over the pieces, a_m = g_m y_i + d_m: on a piece
        but a branch one, y(o + v) = y_i + lo_i + sum_m a_m v^m."""
        a = np.zeros((max(len(self._g), len(self._d)), len(self._y)))
        a[:len(self._g)] = np.multiply.outer(self._g, self._y)
        a[:len(self._d)] += self._d
        return a

    @classmethod
    def _propagated(cls, ts, y0, lo0, d, g, o=None, branch=None):
        """(the pieces between `ts` from y(ts[0]) = y0 + lo0, the recurrence's
        values at `ts`, the rounding error of the last). A piece anchored
        off its start takes y at its anchor first, from y(ts[i]) = y (1 + e)
        + S, e and S its forms at ts[i]."""
        o = ts[:-1] if o is None else o

        def forms(v):
            s = _horner(d, v)
            if branch is not None:
                s = s * np.where(branch, np.sqrt(np.abs(v)), 1.0)
            return _horner(g, v).tolist(), s.tolist()

        moved = (o != ts[:-1]).tolist()
        ends = forms(ts[1:] - o)
        starts = forms(ts[:-1] - o) if any(moved) else ends
        ys, los = [y0], [lo0]
        for e, s_v, e0, s0, off in zip(*ends, *starts, moved):
            y, lo = ys[-1], los[-1]
            if off:
                y, lo = (y + lo - s0) / (1.0 + e0), 0.0
                ys[-1], los[-1] = y, lo
            inc = lo + (e * y + s_v)
            y_new = y + inc
            back = y_new - y
            ys.append(y_new)
            los.append((y - (y_new - back)) + (inc - back))
        return cls(ts, ys[:-1], los[:-1], d, g, o, branch), ys, los[-1]

    @classmethod
    def stage2(cls, profile: prof.InputProfile, k: float, t0: float,
               y0: float, end: float) -> tuple[_ExactLinear, list[float]]:
        """The stage-2 population from beta^2(t0) = y0 to end, and beta^2 at
        each entry of its `ts`. A table's pieces are the knot intervals from
        t0, cut in equal parts so that k h <= 1/2, and p is each cubic; the
        series stop where `_expm1_rows` puts the tail below 2^-60 of the
        cubic's term (lead 3). An analytic profile's pieces are `_uniform`,
        and a piece whose series fails raises InfeasibleSchedule."""
        if profile.kind != prof.TABULATED:
            n, h, chunk = _uniform(profile, k, t0, end, False)
            ts, rows, terms, passed = chunk(0, n)
            g = _expm1_rows(k, h)
            d, passed = _phi_rows(rows, terms, passed, k, len(g))
            if not passed.all():
                raise InfeasibleSchedule(f"stage-2 series failed near tau = "
                                         f"{ts[np.flatnonzero(~passed)[0]]}")
            return cls._propagated(ts, y0, 0.0, d, g)[:2]
        ts, piece = _pieces(profile, [t0] + prof._interior_breaks(
            profile, t0, end), end, lambda _, h, __: np.maximum(np.ceil(
                2.0 * k * h), 1.0))
        g = _expm1_rows(k, float(np.diff(ts).max()), 3)
        d = _phi_series(_recentred(profile._interp, piece, ts[:-1]), k,
                        len(g))
        return cls._propagated(ts, y0, 0.0, d, g)[:2]

    @classmethod
    def stage1(cls, profile: prof.InputProfile, kappa_i: float,
               t_start: float, beta_start: float, t0: float, end: float):
        """The stage-1 amplitude from beta(t_start) = beta_start towards
        end, in chunks of `_CHUNK`, twice as many, .. pieces, each an
        `_ExactLinear` going on from the last. On a table r_in is 0 before
        t0: [t_start, t0] is one piece with p = 0. From t0 the pieces are
        the knot intervals, cut in equal parts so that k h <= 1/2 and, up to
        32 parts, sum_j |c_j| h^j <= c_0/4 (`_spread`), and a piece whose
        series fails `_root_series` is cut again (`_refined`). An analytic
        profile's pieces are `_uniform`, and a piece whose series fails
        raises NoThreshold. expm1's series has the first length M with
        (k h)^M/(M+1)! below 2^-60 for the longest h of the first cut, S's
        the longer of M and one more than the square root's, so no piece
        depends on its chunk."""
        k = 0.5 * (1.0 + kappa_i)
        if profile.kind == prof.TABULATED:
            table = profile._interp

            def parts(starts, h, piece):
                spread = np.where(starts < t0, 0.0,
                                  _spread(_recentred(table, piece, starts), h))
                need = np.where(np.isfinite(spread), np.ceil(np.minimum(
                    spread, 16.0 * _SPREAD) / (0.5 * _SPREAD)), 1.0)
                return np.maximum(np.maximum(np.ceil(2.0 * k * h), need), 1.0)

            ts, piece = _pieces(profile, [t_start] * (t_start < t0) + [t0]
                                + prof._interior_breaks(profile, t0, end),
                                end, parts)
            h = np.diff(ts)
            c = [np.where(ts[:-1] < t0, 0.0, cj)
                 for cj in _recentred(table, piece, ts[:-1])]
            ok = (_spread(c, h) <= _SPREAD) | ~np.any(c, axis=0)
            n, h_max = len(h), float(h.max())
            chunk = lambda i, j: (ts[i:j + 1], *_root_series(
                [cj[i:j] for cj in c], h[i:j], ok[i:j]))
        else:
            n, h_max, chunk = _uniform(profile, k, t0, end, True)
        g = _expm1_rows(k, h_max)
        y, lo, i, size = beta_start, 0.0, 0, _CHUNK
        while i < n:
            j = min(i + size, n)
            ts_j, rows, terms, passed = chunk(i, j)
            d, passed = _phi_rows([-row for row in rows], terms, passed, k,
                                  len(g))
            o = branch = None
            if not passed.all():
                if profile.kind != prof.TABULATED:
                    raise NoThreshold(f"stage-1 series failed near tau = "
                                      f"{ts_j[np.flatnonzero(~passed)[0]]}")
                a, cut = ts_j[:-1], ~passed
                ts_j, d, o, branch = _merged(
                    [(a[passed], [row[passed] for row in d], a[passed],
                      cut[passed])] + _refined(profile, k, len(g), a[cut],
                                               ts_j[1:][cut], piece[i:j][cut]),
                    ts_j[-1])
            sol, ys, lo = cls._propagated(ts_j, y, lo, d, g, o, branch)
            yield sol
            y, i, size = ys[-1], j, 2 * size

    @classmethod
    def join(cls, parts: list[_ExactLinear]) -> _ExactLinear:
        """Consecutive propagations as one, each piece bitwise as it was."""
        ts, d, o, branch = _merged([(p.ts[:-1], p._d, p._o, p._branch)
                                    for p in parts], parts[-1].ts[-1])
        return cls(ts, np.concatenate([p._y for p in parts]),
                   np.concatenate([p._lo for p in parts]), d, parts[0]._g, o,
                   branch)

    def cut(self, n: int, end: float) -> _ExactLinear:
        """The first n pieces, the last of them ending at end: copies, so
        that no view keeps the whole propagation alive."""
        y, lo, o, branch, *d = (x[:n].copy() for x in (
            self._y, self._lo, self._o, self._branch, *self._d))
        return _ExactLinear(np.append(self.ts[:n], end), y, lo, d, self._g, o,
                            branch)

    def at(self, t: float) -> float:
        i = bisect_left(self._knots, t) - 1
        i = 0 if i < 0 else self._last if i > self._last else i
        try:
            piece = self._pieces[i]
        except KeyError:        # read once, when `at` first reaches piece i
            piece = self._pieces[i] = (
                float(self._o[i]), float(self._y[i]), float(self._lo[i]),
                bool(self._branch[i]), [float(row[i]) for row in self._d])
        o, y, lo, root, d = piece
        v = t - o
        s = _horner(d, v)
        if root:
            s = s * math.sqrt(abs(v))
        return y + (lo + (_horner(self._g, v) * y + s))

    def dense(self, t: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, self._last)
        v, y = t - self._o[i], self._y[i]
        # _horner on the rows of the pieces at i, each gathered as it is
        # reached, so no (M, n) block is built
        s = self._d[-1][i]
        for row in self._d[-2::-1]:
            s = s * v + row[i]
        s = s * v
        if self._any_branch:
            s = np.where(self._branch[i], s * np.sqrt(np.abs(v)), s)
        return y + (self._lo[i] + (_horner(self._g, v) * y + s))

    def samples(self, alpha: float, beta: float, const: float,
                first: float) -> tuple[np.ndarray, np.ndarray]:
        """(ts, y): sorted samples at or past first, every piece start and
        end among them, that bracket every root of f = alpha y + beta y' +
        const, and y there, `dense`'s bit for bit. On a piece f(o + v) =
        sum_j c_j v^j, c_0 = alpha (y_i + lo_i) + beta a_1 + const, c_j =
        alpha a_j + beta (j + 1) a_{j+1}.
        The Bernstein coefficients of f(o + h u) on [0, 1] change sign at
        least as often as f has roots (Collins and Akritas, Proc. ACM
        SYMSAC 1976). If they change sign at most once, none within 1e-13
        sum_j |c_j| h^j of 0, the piece ends bracket its one root; any
        other piece, or a branch one, is crowded: it gets 63 interior
        samples too. y is the recurrence's y_i at an inner piece end,
        `at`'s at the first and last, and `dense`'s from a crowded piece's
        start on, which covers each anchor moved off its piece's start."""
        h, a = np.diff(self.ts), self._a()
        n = len(a) + (alpha != 0.0)         # alpha a_M is the top row
        c = np.zeros((n, len(h)))
        c[0] = alpha * (self._y + self._lo) + const
        c[:len(a)] += beta * np.arange(1.0, len(a) + 1.0)[:, None] * a
        c[1:] += alpha * a[:n - 1]
        with np.errstate(all="ignore"):
            f = c * h ** np.arange(n)[:, None]
            b = _bernstein(n) @ f
            sign = np.sign(b)
            crowded = ((sign[1:] != sign[:-1]).sum(axis=0) > 1) \
                | (np.abs(b) <= 1e-13 * np.abs(f).sum(axis=0)).any(axis=0) \
                | ~np.isfinite(b).all(axis=0) | self._branch
        i = np.flatnonzero(crowded)
        fill = (self.ts[i, None] + h[i, None] * _FILL).ravel()
        ts = np.concatenate((fill, self.ts))
        y = np.concatenate((self.dense(fill) if len(i) else fill,
                            [self.at(float(self.ts[0]))], self._y[1:],
                            [self.at(float(self.ts[-1]))]))
        order = np.argsort(ts, kind="stable")   # a fill sample first
        ts, y = ts[order], y[order]
        keep = np.append(True, ts[1:] != ts[:-1]) & (ts >= first)
        return ts[keep], y[keep]


class _Tail(_ExactLinear):
    """The stage-2 population past the horizon (`CouplingSchedule._tail`):
    `stage2`'s pieces up to their end U, where r_in is 0.0, and past U the
    exact solution there, y(U) e^{-k (t - U)}, on floats and arrays alike.
    `CouplingSchedule._tail` sets k, U and y(U) (_k, _end and _y_end)."""

    def at(self, t: float) -> float:
        if t <= self._end:
            return super().at(t)
        return self._y_end * math.exp(-self._k * (t - self._end))

    def dense(self, t: np.ndarray) -> np.ndarray:
        out, past = super().dense(np.minimum(t, self._end)), t > self._end
        out[past] = self._y_end * prof._map(math.exp,
                                            -self._k * (t[past] - self._end))
        return out


def _integrate_stage2(profile, kappa_i, tau_c, end):
    """Solve beta^2' = r_in - kappa_i beta^2 from beta^2 = r_in at tau_c,
    up to end or to the first point where the zero-reflection law would
    need kappa above 1: (solution, that point or None).

    The violation function triggers at half the feasibility slack and
    carries an additive floor of 1e-13: once both the population and the
    input rate have decayed below it, the ratio r_in/beta^2 is noise and
    must not be mistaken for a violation. Stage 2 is propagated exactly
    (`_ExactLinear.stage2`); there r_in = y' + kappa_i y (y = beta^2), so
    the violation is (1 + slack/2 - kappa_i) y - y' + 1e-13, and `samples`
    of it bracket each root, inside a piece too. The first lies between
    the first samples with g > 0 >= g_next (`_down`; g > 0 at tau_c),
    `brentq` finds it there on the exact form, and the solution ends there.
    """
    def violation(t, y):
        return (1.0 + 0.5 * _KAPPA_SLACK) * y - prof.rate_at(profile, t) + 1e-13

    sol = _ExactLinear.stage2(profile, kappa_i, tau_c,
                              prof.rate_at(profile, tau_c), end)[0]
    ts, y = sol.samples(1.0 + 0.5 * _KAPPA_SLACK - kappa_i, -1.0, 1e-13,
                        tau_c)
    down = _down(violation(ts, y))
    if not len(down):
        return sol, None
    i = int(down[0])
    root = brentq(lambda s: violation(s, sol.at(s)), float(ts[i]),
                  float(ts[i + 1]), xtol=4 * _EPS, rtol=4 * _EPS)
    # as solve_ivp: a root at a piece's start ends the piece before
    return sol.cut(max(bisect_left(sol._knots, root), 1), root), root


def build_schedule(profile: prof.InputProfile,
                   params: prof.MemoryParams) -> CouplingSchedule:
    """Construct the optimal piecewise coupling schedule for a profile."""
    end = prof.horizon(profile)
    segments: list[_Segment] = []
    flags: list[str] = []
    t_start, beta_start = 0.0, 0.0

    while len(segments) < _MAX_SEGMENTS:
        tau_c, sol1 = _first_threshold(profile, params.kappa_i, t_start,
                                       beta_start, end)
        segments.append(_Segment(1, t_start, tau_c, sol1))
        sol2, t_violation = _integrate_stage2(profile, params.kappa_i, tau_c, end)
        if t_violation is None:
            segments.append(_Segment(2, tau_c, end, sol2))
            break
        segments.append(_Segment(2, tau_c, t_violation, sol2))
        flags.append("feasibility_resumed")
        # At the violation kappa = r_in/beta^2 = 1, so beta^2 = r_in there and
        # stage 1 continues with the same amplitude.
        t_start = t_violation
        beta_start = -math.sqrt(segments[-1].sol.at(t_violation))
    else:
        raise InfeasibleSchedule(
            f"no feasible schedule within {_MAX_SEGMENTS} segments"
        )

    if params.kappa_i > 0.0 and profile.kind == prof.EXPONENTIAL \
            and params.kappa_i >= profile.r:
        flags.append("kappa_i_ge_r")

    return CouplingSchedule(profile=profile, params=params,
                            tau_c=segments[0].t1,
                            segments=tuple(segments), horizon=end,
                            flags=tuple(dict.fromkeys(flags)))


# ---------------------------------------------------------------------------
# peak time, fidelity and loss bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferReport:
    """Transfer figures of merit and the loss breakdown.

    The four contributions fidelity + loss_stage1_reflection + loss_intrinsic
    + loss_unabsorbed account for the full input excitation. F is beta^2 at
    the peak, read off the exact forms. The losses (`_losses`) take one
    Kronrod rule per stage-1 piece and the exact integral of stage 2's
    series, past the horizon too; the unabsorbed input is 1 less
    `cumulative` (analytic pulses) or `total_excitation` (tables) at
    tau_max. None is derived from the others, so their sum reaching 1
    checks F and the stage-2 series against the integral of r_in, and
    stage 1 against the rule.
    """

    tau_c: float
    tau_max: float
    fidelity: float
    loss_stage1_reflection: float
    loss_intrinsic: float
    loss_unabsorbed: float
    flags: tuple[str, ...] = ()


def _losses(schedule: CouplingSchedule, tau_max: float) -> tuple[float, float]:
    """Stage-1 reflection, the integral of r_out over the stage-1 parts of
    [0, tau_max], and intrinsic loss, kappa_i times the integral of beta^2:
    in stage 1 one Kronrod rule per piece, and on a branch piece, anchored
    at o, one in s = sqrt|t - o|, where f(o +- s^2) 2 s is smooth; in stage 2
    the series' integral over piece i up to w_i = min(h_i, tau_max - t_i),
    w_i (y_i + lo_i) + sum_m a_m w_i^(m+1)/(m+1) in term order (the same
    alone or in a batch). Past the horizon the tail (`CouplingSchedule._tail`)
    is one more stage-2 segment up to U, and past U its decay integrates in
    closed form, y(U) (1 - e^{-kappa_i (tau_max - U)})/kappa_i."""
    profile, k = schedule.profile, schedule.params.kappa_i
    reflection = intrinsic = 0.0
    tail = (schedule._tail,) if k != 0.0 and tau_max > schedule.horizon \
        else ()
    for seg in schedule.segments + tail:
        hi = min(seg.t1, tau_max)
        if hi <= seg.t0:
            break
        sol = seg.sol
        n = bisect_left(sol._knots, hi)
        edges = sol._knots[:n] + [hi]
        if seg.stage == 2:         # no branch piece
            if k != 0.0:
                a = sol._a()[:, :n]
                w, m = np.diff(edges), np.arange(1.0, len(a) + 1.0)[:, None]
                y = sol._y[:n] + sol._lo[:n]
                terms = (a * w ** m / (m + 1.0)).cumsum(axis=0)
                intrinsic += float(np.sum(w * (y + terms[-1])))
            continue

        def r_out_beta_sq(s, _beta=sol.dense):
            # Nodes lie inside (t0, hi), so b * b is schedule.beta_sq.
            b = _beta(s)
            w = b + np.sqrt(prof.rate_at(profile, s))
            return np.array([w * w, b * b])

        parts = prof._kronrod(r_out_beta_sq, edges)
        for i in np.flatnonzero(sol._branch[:n]).tolist():
            o = float(sol._o[i])
            sign = 1.0 if o <= edges[i] else -1.0
            parts[:, i] = prof._kronrod(lambda s: r_out_beta_sq(
                o + sign * s * s) * (2.0 * s), sorted(
                    math.sqrt(abs(t - o)) for t in edges[i:i + 2]))[:, 0]
        reflection += float(parts[0].sum())
        intrinsic += float(parts[1].sum())
    for seg in tail:        # past U: the decay
        intrinsic -= seg.sol._y_end * math.expm1(
            -k * max(tau_max - seg.t1, 0.0)) / k
    return reflection, k * intrinsic


def _slope(schedule: CouplingSchedule, ts: np.ndarray, stages,
           b: np.ndarray) -> np.ndarray:
    """Population slope d(beta^2)/dtau = r_in - r_out - kappa_i beta^2 at
    each sample, of the given stages (an array, or one for all) and dense
    values b.

    In stage-2 regions r_out = 0 by construction; in stage-1 regions it is
    (beta + sqrt(r_in))^2. Evaluated without dividing by the population,
    which underflows in the far tail.
    """
    k = schedule.params.kappa_i
    rate = prof.rate_at(schedule.profile, ts)
    w = b + np.sqrt(rate)
    return np.where(stages == 1, rate - k * b * b - w * w,
                    rate - k * np.where(b < 0.0, 0.0, b))


@lru_cache(maxsize=None)
def _bernstein(n: int) -> np.ndarray:
    """T @ f: the Bernstein coefficients on [0, 1] of sum_j f_j u^j, j < n."""
    return np.array([[math.comb(i, j) / math.comb(n - 1, j)
                      for j in range(n)] for i in range(n)])


def _peak_samples(schedule: CouplingSchedule, first: float):
    """(ts, stage, dense value): sorted samples from first to the horizon,
    each piece start and segment end among them, that bracket every root of
    the slope: first, and on each segment `_ExactLinear.samples` of y'
    (y = beta^2, stage 2) or -y' (y = beta < 0, stage 1), whose sign the
    slope has, with their values: those past first that `_sampled` gives
    the segment, short of its end (the next one's start) but on the last."""
    seg = schedule._segment_at(first)
    parts = [([first], [seg.stage], [seg.sol.at(first)])]
    for seg, end in zip(schedule.segments, schedule._inner_ends + [math.inf]):
        if seg.t1 > first:
            t, y = seg.sol.samples(0.0, 1.0 if seg.stage == 2 else -1.0, 0.0,
                                   first)
            held = (t > first) & (t < end)
            parts.append((t[held], np.full(held.sum(), seg.stage), y[held]))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _local_maxima(schedule: CouplingSchedule) -> list[tuple[float, float]]:
    """(tau, beta^2(tau)) at every tau past tau_c where the slope crosses
    zero downward.

    The slope is sampled where `_peak_samples` isolates its roots, from
    1e-6 max(tau_c, min(H - tau_c, 1)) past tau_c to the horizon H: no
    fixed grid steps over a narrow peak, and the start lies before H
    however narrow the pulse. A multi-hump input can produce several local
    maxima (population dips in resumed stage-1 windows), so all crossings
    are collected. With kappa_i > 0, where beta^2 still rises at the horizon or
    no crossing came before it, so are the tail's (`CouplingSchedule._tail`,
    read off its own samples and values). Its slope is > 0 just past the
    horizon, else the peak is the horizon itself (a table, whose input stops
    there), and -kappa_i beta^2 <= 0 at its end, where r_in is 0.0.

    In a stage-2 stretch, the tail's too, the root of r_in - kappa_i beta^2
    is polished on the segment's exact form to a few ulps, as tau_c is, and
    the peak's beta^2 is the schedule's there; a bracket that form does not
    take is polished on the slope itself.
    """
    profile, k = schedule.profile, schedule.params.kappa_i
    pop = lambda t: schedule._segment_at(t).beta_sq(t)

    def slope_at(t: float) -> float:
        one = np.array([t])
        return float(_slope(schedule, one, *schedule._sampled(one)[:2])[0])

    def polish(ts: np.ndarray, i: int) -> tuple[float, float]:
        a, b = float(ts[i]), float(ts[i + 1])
        seg = schedule._segment_at(0.5 * (a + b))
        h = lambda t: prof.rate_at(profile, t) - k * seg.sol.at(t)
        f = h if seg.stage == 2 and h(a) > 0.0 >= h(b) else slope_at
        root = brentq(f, a, b, xtol=1e-300, rtol=4 * _EPS, maxiter=200)
        return float(root), pop(float(root))

    ts, stages, b = _peak_samples(schedule, schedule.tau_c + 1e-6 * max(
        schedule.tau_c, min(schedule.horizon - schedule.tau_c, 1.0)))
    slope = _slope(schedule, ts, stages, b)
    peaks = [polish(ts, i) for i in _down(slope)[:64].tolist()]
    if k != 0.0 and (slope[-1] > 0.0 or not peaks):
        end = schedule.horizon
        past = math.nextafter(end, math.inf)
        if prof.rate_at(profile, past) - k * pop(past) <= 0.0:
            peaks.append((end, pop(end)))
        else:
            ts, y = schedule._tail.sol.samples(0.0, 1.0, 0.0, end)
            peaks.append(polish(ts, int(_down(_slope(schedule, ts, 2, y))[0])))
    return peaks


def peak_time_and_fidelity(profile: prof.InputProfile, params: prof.MemoryParams,
                           schedule: CouplingSchedule) -> TransferReport:
    """Global population peak, fidelity F = beta^2(tau_max), loss breakdown.

    Multi-hump inputs can produce transient local maxima (the population
    leaks back out while the schedule waits at kappa = 1 for the next hump),
    so all slope crossings are compared and the global maximum wins. Without
    intrinsic loss the tau -> inf limit is a candidate too, since the
    population never decreases after the last threshold.
    """
    k = params.kappa_i
    integral = (prof.cumulative if profile.kind != prof.TABULATED
                else prof.total_excitation)
    candidates = _local_maxima(schedule)
    if k == 0.0:
        tau_c_last = schedule.last_tau_c
        limit = prof.rate_at(profile, tau_c_last) + (
            integral(profile, math.inf) - integral(profile, tau_c_last))
        candidates.append((math.inf, limit))

    # On exact ties, prefer the earliest attainment.
    tau_max, fidelity = max(candidates, key=lambda tf: (tf[1], -tf[0]))

    reflection, intrinsic = _losses(schedule, tau_max)
    absorbed = integral(profile, tau_max)
    return TransferReport(
        tau_c=schedule.tau_c,
        tau_max=tau_max,
        fidelity=fidelity,
        loss_stage1_reflection=reflection,
        loss_intrinsic=intrinsic,
        loss_unabsorbed=1.0 - absorbed,
        flags=schedule.flags,
    )
