"""Time-domain simulators for the single-excitation transfer dynamics.

Two independent routes through the same physics:

* `simulate_amplitudes` integrates the coupled amplitude equations
  (a non-Hermitian, purely-decaying picture) for an arbitrary coupling
  schedule, tracking the source amplitude beta1 >= 0, the memory amplitude
  beta <= 0 and the cumulative reflected / intrinsically-lost excitation.

* `simulate_master_equation` evolves the full 3-level Lindblad master
  equation on span{|00>, |10>, |01>} (ground, source excited, memory
  excited), with the cascaded-coupling Hamiltonian and collective jump
  operator, its generator written out element by element (`_generator`).
  `verify_nonhermitian_reduction` pins the two routes against each other.

Both integrate with `_scipy.solve_ivp`, a port of scipy's DOP853 that takes
scipy's steps bit for bit and reads its dense output at the samples as it
steps, on the package's own copy of DOP853's tableau (`_dop853`), so
neither needs scipy. Both restart it at each of the
run's edges (`_coupling`): the coupling's breaks and a table's knots, where
the right-hand side is not smooth.

The source is an imaginary emitter releasing the prescribed input: its decay
rate is kappa_1(tau) = r_in/beta1^2, and beta1^2 = 1 - int r_in holds exactly,
so the simulator uses that identity instead of integrating beta1 (the product
sqrt(kappa_1) beta1 = sqrt(r_in) is all the memory equation ever needs, which
also removes the 0/0 as the input exhausts).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import profiles as prof
from ._scipy import solve_ivp
from .errors import MAX_COUNT, DomainError, StepFailure
from .protocol import CouplingSchedule

_DEFAULT_TOL = 1e-10
# Nodes of the energy-balance stencil: first derivatives of 6th order.
_STENCIL = 7
_BOUND = 50.0       # the energy-balance contract: residual <= 50 tol


def reflection_rate(beta, kappa, r_in):
    """Instantaneous reflection rate r_out = (beta sqrt(kappa) + sqrt(r_in))^2.

    Accepts scalars or arrays. The memory amplitude convention is beta <= 0,
    so a loaded memory interferes destructively with the incoming field.
    """
    w = beta * np.sqrt(kappa) + np.sqrt(r_in)
    return w * w


@dataclass(frozen=True)
class Trajectory:
    """Sampled amplitude dynamics of one simulation run.

    All arrays share one length. beta1 is the source amplitude (>= 0,
    non-increasing from 1), beta the memory amplitude (<= 0),
    cum_reflection and cum_intrinsic the excitation lost to reflection and
    to intrinsic decay up to each sample. At every sample
    beta1^2 + beta^2 + cum_reflection + cum_intrinsic equals the initial
    excitation to within the integration tolerance.

    `edges` are the points where the right-hand side is not smooth (0, the
    coupling's breaks, a table's knots, the end), in order. The integrator
    restarts at each, and `energy_balance_residual` keeps its stencils
    between them. Empty means one smooth segment over the samples.
    """

    taus: np.ndarray
    beta1: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    r_in: np.ndarray
    r_out: np.ndarray
    cum_reflection: np.ndarray
    cum_intrinsic: np.ndarray
    kappa_i: float
    tol: float
    edges: tuple[float, ...] = ()

    def __post_init__(self):
        for arr in (self.taus, self.beta1, self.beta, self.kappa, self.r_in,
                    self.r_out, self.cum_reflection, self.cum_intrinsic):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.taus)


def _coupling(profile: prof.InputProfile, params: prof.MemoryParams,
              schedule_or_kappa, tau_end: float
              ) -> tuple[Callable[[float], float], tuple[float, ...]]:
    """The coupling argument as (kappa(tau), edges). The edges are 0, the
    coupling's breaks, a table's knots and tau_end, each once and in order:
    the points where the right-hand side is not smooth. The coupling has a
    kink at a break (beta^2 has one in its second derivative), and PCHIP's
    r_in one in its second derivative at a knot. A schedule must have been
    built for `profile` and `params` (DomainError otherwise)."""
    if isinstance(schedule_or_kappa, CouplingSchedule):
        schedule_or_kappa._require_inputs(profile, params)
        kappa_fn, breaks = schedule_or_kappa.kappa, schedule_or_kappa.breakpoints()
    elif callable(schedule_or_kappa):
        breaks = getattr(schedule_or_kappa, "breakpoints", None)
        kappa_fn, breaks = schedule_or_kappa, breaks() if callable(breaks) else []
    else:
        raise DomainError("expected a CouplingSchedule or a callable kappa(tau)")
    inner = [b for b in breaks if 0.0 < b < tau_end]
    if profile.kind == prof.TABULATED:
        inner += [t for t in profile.taus.tolist() if 0.0 < t < tau_end]
    return kappa_fn, (0.0, *sorted(set(inner)), float(tau_end))


def _spacing(tol: float) -> float:
    """Grid spacing per unit of the pulse's time scale T.

    A 7-node stencil is off by at most about h^6 |f^(7)| / 7 (its one-sided
    end), and |f^(7)| of beta^2 is about T^-7 (`_segment_grid`'s T), so
    h = T (7 tol)^(1/6) holds the stencil's error near tol / T.
    """
    return (7.0 * tol) ** (1.0 / 6.0)


def _segment_grid(profile: prof.InputProfile, edges: Sequence[float],
                  tol: float) -> np.ndarray:
    """One uniform grid per segment between consecutive edges, each edge a
    sample, for stencils of `_STENCIL` nodes that stay inside a segment.

    A segment's spacing is `_spacing(tol)` times the pulse's time scale T
    (1/r, sigma, or 1 over a table's largest sample, where its PCHIP peaks;
    inf if none is positive) or the segment's length where shorter, but no
    less than 1, the memory's own time (kappa <= 1): stage 1 of a long
    exponential pulse lasts about 1.4, and there kappa = 1 sets the pace.
    Every segment gets at least `_STENCIL` samples but a sliver, one shorter
    than `_sliver_span(tol)` (a break 1e-12 past a knot): just its ends,
    skipped by the residual.
    """
    a, b = np.asarray(edges[:-1]), np.asarray(edges[1:])
    span = b - a
    if profile.kind == prof.TABULATED:
        peak = float(np.max(profile.rates))
        scale = 1.0 / peak if peak > 0.0 else math.inf
    else:
        scale = profile.sigma if profile.kind == prof.GAUSSIAN else 1.0 / profile.r
    step = _spacing(tol) * np.minimum(scale, np.maximum(span, 1.0))
    counts = np.where(span < _sliver_span(tol), 2,
                      np.maximum(np.ceil(span / step) + 1, _STENCIL))
    pieces = [np.linspace(t0, t1, n)[:-1]
              for t0, t1, n in zip(a.tolist(), b.tolist(),
                                   counts.astype(int).tolist())]
    return np.concatenate(pieces + [np.array([edges[-1]])])


def _sliver_span(tol: float) -> float:
    """The span under which a segment is a sliver at `tol`: seven samples on
    it would read beta^2's rounding (eps) times the stencil's weights (up to
    `gain` / span) past `_BOUND` tol. It is 7.4e-3 at tol = 1e-13."""
    x = np.linspace(0.0, 1.0, _STENCIL)
    gain = np.abs(_fornberg(x[:1], x[None, :])).sum()    # 166.4, one-sided
    return gain * math.ulp(1.0) / (_BOUND * tol)


def _require_stencil(edges: Sequence[float], tol: float) -> None:
    """DomainError, naming the least tol that gives the longest segment a
    stencil, where every segment between `edges` is a sliver at `tol`: then
    no residual can be taken on `_segment_grid`'s samples."""
    spans = np.diff(edges)
    sliver = _sliver_span(tol)
    if np.all(spans < sliver):
        raise DomainError(
            f"every segment between the trajectory's edges is shorter "
            f"than {sliver:.3g}, where a stencil reads rounding past "
            f"{_BOUND:g} tol at tol {tol:.3g}: no residual can be taken. "
            f"The longest gets a stencil at tol >= "
            f"{tol * sliver / float(np.max(spans)):.3g}")


def _checked_grid(tol: float, tau_end: float,
                  samples: int | Sequence[float] | None) -> np.ndarray | None:
    """Check the arguments both simulators share; return the requested output
    grid, or None when the caller should use its own default."""
    if not (1e-13 <= tol <= 1e-6):
        raise DomainError("tol must lie in [1e-13, 1e-6]")
    if not 0.0 < tau_end < math.inf:
        raise DomainError("tau_end must be positive and finite")
    if samples is None:
        return None
    if isinstance(samples, (int, np.integer)):   # a bool fails the range
        if not 2 <= samples <= MAX_COUNT:
            raise DomainError(f"samples must lie in [2, {MAX_COUNT:,}]")
        return np.linspace(0.0, tau_end, samples)
    ts = np.asarray(samples, dtype=float)
    if ts.ndim != 1 or len(ts) < 2 or not ts[0] >= 0.0 \
            or not ts[-1] <= tau_end or not np.all(np.diff(ts) > 0.0):
        raise DomainError("samples must be increasing within [0, tau_end]")
    return ts


def _integrate_segments(rhs, y0: np.ndarray, edges: Sequence[float],
                        ts: np.ndarray, tol: float, max_step: float,
                        what: str) -> np.ndarray:
    """Integrate y' = rhs(t, y) from edges[0] to edges[-1], restarting at
    every edge (the right-hand side is not smooth there); each segment's
    solve reads its dense output at the ts it covers, a sample on an
    interior edge taking the segment after it; shape (len(y0), len(ts))."""
    y = y0
    out = np.empty((len(y0), len(ts)), dtype=y0.dtype)
    cuts = np.searchsorted(ts, edges).tolist()
    cuts[-1] = len(ts)
    for a, b, i0, i1 in zip(edges[:-1], edges[1:], cuts[:-1], cuts[1:]):
        sol = solve_ivp(rhs, (a, b), y, ts[i0:i1], rtol=tol,
                        atol=tol * 1e-3, max_step=max_step)
        if sol.status < 0:
            raise StepFailure(f"{what} failed: {sol.message}",
                              tau=float(sol.t))
        out[:, i0:i1], y = sol.values, sol.y
    return out


def simulate_amplitudes(profile: prof.InputProfile, params: prof.MemoryParams,
                        schedule_or_kappa, tau_end: float,
                        tol: float = _DEFAULT_TOL, *,
                        samples: int | Sequence[float] | None = None,
                        beta0: float = 0.0) -> Trajectory:
    """Integrate the amplitude dynamics under a given coupling.

    d(beta)/dtau = -sqrt(kappa r_in) - (kappa + kappa_i)/2 beta, together
    with running integrals of the reflected power (beta sqrt(kappa) +
    sqrt(r_in))^2 and the intrinsic loss kappa_i beta^2. The source amplitude
    is the exact beta1 = sqrt(max(0, 1 - int r_in)).

    `schedule_or_kappa` is either a CouplingSchedule or any callable
    kappa(tau) in [0, 1]. `samples` selects the output grid: None for one
    uniform grid per segment between the trajectory's `edges`, spaced from
    `tol` and the pulse's time scale (`_segment_grid`; DomainError if all
    are slivers), an int for uniform sampling, or an explicit array. A
    Gaussian's integrator step is capped at one stencil's width of it.
    `beta0` (finite and <= 0) seeds the memory, for decay tests against
    closed forms.
    """
    ts = _checked_grid(tol, tau_end, samples)
    if not -math.inf < beta0 <= 0.0:
        raise DomainError("beta0 must be finite; the memory amplitude "
                          "convention is beta <= 0")

    kappa_fn, edges = _coupling(profile, params, schedule_or_kappa, tau_end)
    k_i = params.kappa_i
    if ts is None:
        _require_stencil(edges, tol)
        ts = _segment_grid(profile, edges, tol)

    # Steps spanning a large fraction of a Gaussian pulse make the
    # dense-output interpolant's error the dominant term in the energy
    # residual: no step spans more than one stencil of the default grid.
    step_cap = (_STENCIL - 1) * _spacing(tol) * profile.sigma \
        if profile.kind == prof.GAUSSIAN else math.inf

    def rhs(t, y):
        beta = y[0]
        rate = prof.rate_at(profile, t)
        kap = kappa_fn(t)
        w = beta * math.sqrt(kap) + math.sqrt(rate)
        return (-math.sqrt(kap * rate) - 0.5 * (kap + k_i) * beta,
                w * w,
                k_i * beta * beta)

    out = _integrate_segments(rhs, np.array([beta0, 0.0, 0.0]), edges, ts,
                              tol, step_cap, "integrator")
    beta = out[0].copy()
    r_in = np.asarray(prof.rate_at(profile, ts), dtype=float)
    if isinstance(schedule_or_kappa, CouplingSchedule):
        kappa = schedule_or_kappa.kappa(ts)
    else:
        kappa = np.array([kappa_fn(t) for t in ts])
    beta1 = np.sqrt(np.maximum(0.0, 1.0 - prof.cumulative(profile, ts)))
    r_out = reflection_rate(beta, kappa, r_in)
    return Trajectory(taus=ts, beta1=beta1, beta=beta, kappa=kappa,
                      r_in=r_in, r_out=r_out,
                      cum_reflection=out[1].copy(),
                      cum_intrinsic=out[2].copy(),
                      kappa_i=k_i, tol=tol, edges=edges)


def _fornberg(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """First-derivative weights at z[i] on the nodes x[i, :], by Fornberg's
    recursion (Math. Comp. 51, 1988) for derivative orders 0 and 1, one
    stencil per row: sum_j w[i, j] f(x[i, j]) = f'(z[i]) for every
    polynomial f of degree < x.shape[1]. The nodes may be spaced unevenly
    and lie on one side of z."""
    c0 = np.zeros(x.shape)          # interpolation weights
    c1 = np.zeros(x.shape)          # first-derivative weights
    c0[:, 0] = 1.0
    prod = np.ones(len(z))
    dz = x[:, 0] - z
    for i in range(1, x.shape[1]):
        p = np.ones(len(z))
        dz_prev, dz = dz, x[:, i] - z
        for j in range(i):
            dx = x[:, i] - x[:, j]
            p = p * dx
            if j == i - 1:
                c1[:, i] = prod * (c0[:, j] - dz_prev * c1[:, j]) / p
                c0[:, i] = -prod * dz_prev * c0[:, j] / p
            c1[:, j] = (dz * c1[:, j] - c0[:, j]) / dx
            c0[:, j] = dz * c0[:, j] / dx
        prod = p
    return c1


def energy_balance_residual(trajectory: Trajectory) -> float:
    """Max over samples of |r_in - d(beta^2)/dtau - k_i beta^2 - r_out|.

    d(beta^2)/dtau takes Fornberg weights on `_STENCIL` = 7 neighbouring
    samples (6th order), centred where the segment allows and one-sided near
    its ends. A stencil never crosses one of the trajectory's `edges`, so a
    kink of the coupling (at tau_c, say) does not enter the result; a
    segment with 3 to 6 samples takes all of them, and one with fewer is
    skipped; DomainError if no segment has 3, which names the least tol
    that gives one a stencil where all are slivers. On `simulate_amplitudes`'
    default grid the stencil's error is about tol / T (`_spacing`), or
    rounding (2e-12 on a table's 0.02 knot intervals), and the result stays
    within `_BOUND` tol at both operating points and the benchmark's tables.
    """
    taus = trajectory.taus
    beta_sq = trajectory.beta * trajectory.beta
    balance = trajectory.r_in - trajectory.kappa_i * beta_sq - trajectory.r_out
    edges = trajectory.edges or (taus[0], taus[-1])
    lo = np.searchsorted(taus, edges[:-1])
    hi = np.searchsorted(taus, edges[1:], side="right")
    stencils: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for i0, i1 in zip(lo.tolist(), hi.tolist()):
        k = min(_STENCIL, i1 - i0)
        if k >= 3:
            rows = np.arange(i0, i1)
            stencils.setdefault(k, []).append(
                (rows, np.clip(rows - k // 2, i0, i1 - k)))
    if not stencils:
        _require_stencil(edges, trajectory.tol)
        raise DomainError("no segment between the trajectory's edges (its "
                          "coupling breaks and table knots) holds 3 samples")
    worst = []
    for k, parts in stencils.items():
        rows = np.concatenate([r for r, _ in parts])
        nodes = np.concatenate([s for _, s in parts])[:, None] + np.arange(k)
        d_beta_sq = np.sum(_fornberg(taus[rows], taus[nodes])
                           * beta_sq[nodes], axis=1)
        worst.append(np.max(np.abs(balance[rows] - d_beta_sq)))
    return float(np.max(worst))     # a nan anywhere is the result


# ---------------------------------------------------------------------------
# 3-level Lindblad oracle
# ---------------------------------------------------------------------------

def _kappa_1(profile: prof.InputProfile, t: float) -> float:
    """Decay rate of the imaginary source emitting the prescribed input."""
    rate = prof.rate_at(profile, t)
    if rate == 0.0:
        return 0.0
    remaining = max(1.0 - prof.cumulative(profile, t), 1e-30)
    return rate / remaining


def _generator(y: np.ndarray, kap: float, kap1: float,
               k_i: float) -> tuple[complex, ...]:
    """d(rho)/dtau, row by row, for rho = y.reshape(3, 3).

    In the cascaded frame the effective generator G = -iH - (1/2) sum L^dag L
    is real and lower triangular: G11 = -kappa_1/2, G21 = -sqrt(kappa_1
    kappa), G22 = -(kappa + kappa_i)/2. So d(rho) = G rho + rho G^T +
    |00><00| (v^T rho v + kappa_i rho22), with v = (0, sqrt(kappa_1),
    sqrt(kappa)) the collective jump's row, written out element by element.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = y.tolist()
    g1, g2 = -0.5 * kap1, -0.5 * (kap + k_i)
    g21 = -math.sqrt(kap1 * kap)
    v1, v2 = math.sqrt(kap1), math.sqrt(kap)
    jump = v1 * (v1 * r11 + v2 * r12) + v2 * (v1 * r21 + v2 * r22) \
        + k_i * r22
    return (jump, g1 * r01, g21 * r01 + g2 * r02,
            g1 * r10, 2.0 * g1 * r11, g21 * r11 + (g1 + g2) * r12,
            g21 * r10 + g2 * r20, g21 * r11 + (g1 + g2) * r21,
            g21 * (r12 + r21) + 2.0 * g2 * r22)


def simulate_master_equation(profile: prof.InputProfile,
                             params: prof.MemoryParams,
                             schedule_or_kappa, tau_end: float,
                             tol: float = _DEFAULT_TOL, *,
                             samples: int | Sequence[float] | None = 801
                             ) -> np.ndarray:
    """Evolve the full master equation from the pure state |10> (source loaded).

    Returns the density matrices on span{|00>, |10>, |01>} at the samples,
    as one read-only complex array of shape (n, 3, 3) in sample order.
    `samples` is the grid: an int n means np.linspace(0, tau_end, n) (801
    by default), or an explicit increasing array within [0, tau_end].

    The generator combines the cascaded-coupling Hamiltonian
    H = (i/2) sqrt(kappa_1 kappa) (|10><01| - |01><10|), the collective decay
    L = sqrt(kappa)|00><01| + sqrt(kappa_1)|00><10| into the shared line, and
    the intrinsic decay L_i = sqrt(kappa_i)|00><01| of the memory
    (`_generator` writes it out). The trace is preserved to ~1e-10 and the
    state stays Hermitian and positive.
    """
    ts = _checked_grid(tol, tau_end, 801 if samples is None else samples)
    kappa_fn, edges = _coupling(profile, params, schedule_or_kappa, tau_end)
    k_i = params.kappa_i

    def rhs(t, y):
        return _generator(y, kappa_fn(t), _kappa_1(profile, t), k_i)

    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[1, 1] = 1.0
    out = _integrate_segments(rhs, rho0.reshape(9), edges, ts, tol, math.inf,
                              "master equation")
    rho = out.T.reshape(len(ts), 3, 3)
    rho.setflags(write=False)
    return rho


def verify_nonhermitian_reduction(profile: prof.InputProfile,
                                  params: prof.MemoryParams,
                                  schedule_or_kappa, tau_end: float) -> float:
    """Max deviation between the Lindblad singly-excited block and psi psi^dag.

    Runs both routes at tol = 1e-10 on a shared grid and compares the 2x2
    block over {|10>, |01>} of the density matrix against the outer product
    of the amplitude vector (beta1, beta). Values ~1e-8 or below confirm
    that the amplitude picture is the exact reduction of the master equation
    for a single excitation.
    """
    ts = np.linspace(0.0, tau_end, 801)
    rho = simulate_master_equation(profile, params, schedule_or_kappa,
                                   tau_end, tol=1e-10, samples=ts)
    traj = simulate_amplitudes(profile, params, schedule_or_kappa, tau_end,
                               tol=1e-10, samples=ts)
    return _reduction_deviation(rho, traj)


def _reduction_deviation(rho: np.ndarray, traj: Trajectory) -> float:
    """Max over shared samples of |rho block over {|10>, |01>} - psi psi^dag|,
    with rho the states stacked (shape (n, 3, 3)) and psi = (beta1, beta)
    from the amplitude run; a nan anywhere is the result."""
    psi = np.stack([traj.beta1, traj.beta], axis=1)
    return float(np.max(np.abs(rho[:, 1:, 1:]
                               - psi[:, :, None] * psi[:, None, :])))
