"""Optimal coupling for a classical field amplitude, and its quantum cross-check.

A variational treatment of a classical amplitude A(tau) absorbing a real
input A_in(tau) with zero output yields the same coupling law as the quantum
zero-reflection schedule in the lossless case:

    kappa(tau) = A_in^2(tau) / (A0^2 + int_{tau_i}^{tau} A_in^2(s) ds)

with the stored power A^2(tau) equal to the denominator. The branch with
A' = 0 (which maximizes, rather than nulls, the output) is deliberately not
implemented. The sign convention A <= 0 mirrors the quantum memory amplitude.

These are deliberately separate code paths from `protocol`: agreement between
the two (see `compare_with_full_quantum`) is a cross-check of both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import profiles as prof
from . import protocol
from .errors import DomainError, SingularCoupling


@dataclass(frozen=True)
class ClassicalField:
    """Real input amplitude A_in(tau) plus the seed stored in the memory.

    Attributes:
        a_in: real-valued input amplitude; A_in^2 is the input power.
        cumulative: an antiderivative of A_in^2; the power integral is its
            difference. Where A_in^2 has no closed antiderivative, pass a
            quadrature of it from a fixed start.
        a0: initial stored amplitude (>= 0); a0 > 0 keeps the coupling
            finite at tau_i when the input starts from zero.
        tau_i: time at which the absorption stage begins.
    """

    a_in: Callable[[float], float]
    cumulative: Callable[[float], float]
    a0: float
    tau_i: float = 0.0

    def __post_init__(self):
        if self.a0 < 0.0:
            raise DomainError("the seed amplitude a0 must be >= 0")

    def power_integral(self, tau: float) -> float:
        """int_{tau_i}^{tau} A_in^2(s) ds, as cumulative(tau) -
        cumulative(tau_i): exactly 0.0 at tau_i."""
        if tau < self.tau_i:
            raise DomainError("tau must be >= tau_i")
        return self.cumulative(tau) - self.cumulative(self.tau_i)


def field_from_profile(profile: prof.InputProfile, tau_i: float,
                       a0: float) -> ClassicalField:
    """Classical field with A_in = sqrt(r_in) of a (real) input profile, whose
    cumulative is `profiles.cumulative`: the closed form of an analytic
    pulse, a table's PCHIP antiderivative."""
    return ClassicalField(a_in=lambda s: math.sqrt(prof.rate_at(profile, s)),
                          cumulative=lambda s: prof.cumulative(profile, s),
                          a0=a0, tau_i=tau_i)


def semiclassical_population(field: ClassicalField, tau: float) -> float:
    """Stored power A^2(tau) = A0^2 + int_{tau_i}^tau A_in^2."""
    return field.a0 ** 2 + field.power_integral(tau)


def semiclassical_coupling(field: ClassicalField, tau: float) -> float:
    """Output-nulling coupling kappa(tau) = A_in^2(tau) / A^2(tau); raises
    SingularCoupling where the stored power is zero."""
    num = field.a_in(tau) ** 2
    den = semiclassical_population(field, tau)
    if den == 0.0:
        raise SingularCoupling(
            "stored power is zero: no seed and no input up to this tau"
        )
    return num / den


def stored_amplitude(field: ClassicalField, tau: float) -> float:
    """A(tau) <= 0, mirroring the quantum memory sign convention."""
    return -math.sqrt(semiclassical_population(field, tau))


def output_amplitude(field: ClassicalField, tau: float) -> float:
    """A_out = A_in + sqrt(kappa) A; identically zero under the optimal law."""
    return field.a_in(tau) + math.sqrt(semiclassical_coupling(field, tau)) \
        * stored_amplitude(field, tau)


def compare_with_full_quantum(profile: prof.InputProfile, *,
                              kappa_scale: float = 1.0) -> float:
    """Max relative deviation between quantum and semiclassical couplings.

    Builds the lossless (kappa_i = 0) quantum schedule, seeds the classical
    field at the threshold with A0^2 = beta^2(tau_c) = r_in(tau_c), and
    compares the two coupling laws at 201 evenly spaced times on [tau_c,
    horizon]. They are algebraically identical for real inputs without
    intrinsic loss, so the return value measures only the numerical routes
    (~1e-12 for the analytic families, interpolation-limited for tabulated
    data). `kappa_scale` multiplies the quantum coupling; any value but 1 is a
    deliberate fault the comparison must detect. Samples where the quantum
    coupling is 0 have no relative deviation; when every sample is such
    (`kappa_scale = 0`), nothing was compared and the result is inf.
    """
    params = prof.MemoryParams(kappa_i=0.0)
    schedule = protocol.build_schedule(profile, params)
    tau_c = schedule.last_tau_c
    seed_sq = prof.rate_at(profile, tau_c)
    field = field_from_profile(profile, tau_c, math.sqrt(seed_sq))

    taus = np.linspace(tau_c, prof.horizon(profile), 201)
    k_quantum = kappa_scale * schedule.stage2_kappa(taus)
    return max((abs(k_q - semiclassical_coupling(field, tau)) / k_q
                for tau, k_q in zip(taus.tolist(), k_quantum.tolist())
                if k_q != 0.0), default=math.inf)
