"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line with the measured numbers so a full run
documents the build; the assertions carry the same bounds as the printout.
"""
from __future__ import annotations

import math
import time
import warnings

import numpy as np

from pulsecatch import closedform as cf
from pulsecatch import dynamics as dyn
from pulsecatch import profiles as prof
from pulsecatch import protocol as proto
from pulsecatch import sweep
from pulsecatch.errors import BoundaryMaximumWarning

KI_OP = 1e-4
R_EXP_OP = 0.036
R_GAUSS_OP = 0.1533
SIGMA_OP = 1.0 / (R_GAUSS_OP * math.sqrt(2.0 * math.pi))


def _gate(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} [{label}] {detail}")
    assert ok, f"[{label}] {detail}"


def _generic_report(profile: prof.InputProfile, ki: float) -> proto.TransferReport:
    params = prof.MemoryParams(kappa_i=ki)
    schedule = proto.build_schedule(profile, params)
    return proto.peak_time_and_fidelity(profile, params, schedule)


def _unimodal(row: np.ndarray) -> tuple[bool, int]:
    """(is unimodal, argmax): rises to the peak, then falls."""
    j = int(np.argmax(row))
    rising = np.all(np.diff(row[: j + 1]) > 0.0)
    falling = np.all(np.diff(row[j:]) < 0.0)
    return bool(rising and falling), j


def test_exponential_operating_point_both_solvers():
    t0 = time.perf_counter()
    tau_closed, f_closed = cf.exp_report(R_EXP_OP, KI_OP)
    rep = _generic_report(prof.exponential(R_EXP_OP), KI_OP)
    elapsed = time.perf_counter() - t0

    ok = (abs(f_closed - 0.970) <= 0.005
          and abs(rep.fidelity - 0.970) <= 0.005
          and abs(tau_closed - 164.3) <= 1.5
          and abs(rep.tau_max - 164.3) <= 1.5
          and elapsed < 1.0)
    _gate("exp-operating-point", ok,
          f"closed F={f_closed:.6f} tau_max={tau_closed:.2f}; "
          f"generic F={rep.fidelity:.6f} tau_max={rep.tau_max:.2f}; "
          f"bands 0.970+-0.005 / 164.3+-1.5; {elapsed:.2f}s < 1s")


def test_gaussian_operating_point():
    t0 = time.perf_counter()
    assert prof.DEFAULT_GAUSSIAN_OFFSET in (4.0, 5.0)
    # both supported pulse delays hit the fidelity band; the peak-time band
    # is pinned at the default delay n = 4
    results = {n: cf.gauss_report(SIGMA_OP, float(n), KI_OP) for n in (4, 5)}
    rep = _generic_report(prof.gaussian(r=R_GAUSS_OP, n=4), KI_OP)
    elapsed = time.perf_counter() - t0

    f_ok = all(abs(f - 0.9987) <= 8e-4 for _, f in results.values()) \
        and abs(rep.fidelity - 0.9987) <= 8e-4
    tau_ok = abs(results[4][0] - 20.4) <= 0.8 and abs(rep.tau_max - 20.4) <= 0.8
    ok = f_ok and tau_ok and elapsed < 5.0
    _gate("gauss-operating-point", ok,
          f"F(n=4)={results[4][1]:.6f} F(n=5)={results[5][1]:.6f} "
          f"generic F={rep.fidelity:.6f} (band 0.9987+-0.0008); "
          f"tau_max(n=4)={results[4][0]:.3f} generic {rep.tau_max:.3f} "
          f"(band 20.4+-0.8); {elapsed:.2f}s < 5s")


def test_stage2_output_suppressed():
    t0 = time.perf_counter()
    worst = {}
    for name, profile in (("exp", prof.exponential(R_EXP_OP)),
                          ("gauss", prof.gaussian(r=R_GAUSS_OP, n=4))):
        params = prof.MemoryParams(kappa_i=KI_OP)
        schedule = proto.build_schedule(profile, params)
        traj = dyn.simulate_amplitudes(profile, params, schedule,
                                       schedule.horizon, tol=1e-10)
        stage2 = traj.taus > schedule.tau_c
        worst[name] = float(np.max(traj.r_out[stage2]))
    elapsed = time.perf_counter() - t0

    ok = worst["exp"] <= 1e-7 and worst["gauss"] <= 1e-7 and elapsed < 10.0
    _gate("zero-reflection", ok,
          f"max r_out past the threshold: exp {worst['exp']:.3e}, "
          f"gauss {worst['gauss']:.3e} (bound 1e-7); {elapsed:.2f}s < 10s")


def test_lossless_energy_bookkeeping():
    details = []
    ok = True
    for r in (0.05, 0.2, 0.5):
        profile = prof.exponential(r)
        params = prof.MemoryParams(kappa_i=0.0)
        schedule = proto.build_schedule(profile, params)
        traj = dyn.simulate_amplitudes(profile, params, schedule,
                                       prof.horizon(profile), tol=1e-10)
        total = traj.beta1**2 + traj.beta**2 + traj.cum_reflection
        defect = float(np.max(np.abs(total - 1.0)))

        rep = proto.peak_time_and_fidelity(profile, params, schedule)
        a1 = (1.0 + r) * ((1.0 + r) / 2.0) ** (2.0 * r / (1.0 - r))
        f_err = abs(rep.fidelity - a1)

        ok = ok and defect <= 1e-6 and f_err <= 1e-6
        details.append(f"r={r}: unitarity {defect:.2e}, |F-A1| {f_err:.2e}")
    _gate("lossless-bookkeeping", ok, "; ".join(details) + " (bounds 1e-6)")


def test_master_equation_reduction():
    details = []
    ok = True
    for name, profile, (tau_peak, _) in (
            ("exp", prof.exponential(R_EXP_OP), cf.exp_report(R_EXP_OP, KI_OP)),
            ("gauss", prof.gaussian(r=R_GAUSS_OP, n=4),
             cf.gauss_report(SIGMA_OP, 4.0, KI_OP))):
        params = prof.MemoryParams(kappa_i=KI_OP)
        schedule = proto.build_schedule(profile, params)
        tau_end = min(schedule.horizon, tau_peak + 10.0)
        ts = np.linspace(0.0, tau_end, 801)
        rho = dyn.simulate_master_equation(profile, params, schedule,
                                           tau_end, tol=1e-10, samples=ts)
        traj = dyn.simulate_amplitudes(profile, params, schedule, tau_end,
                                       tol=1e-10, samples=ts)
        reduction = trace_dev = ground_dev = 0.0
        for i in range(len(ts)):
            psi = np.array([traj.beta1[i], traj.beta[i]])
            reduction = max(reduction, float(np.max(np.abs(
                rho[i, 1:, 1:] - np.outer(psi, psi)))))
            trace_dev = max(trace_dev,
                            abs(float(np.real(np.trace(rho[i]))) - 1.0))
            ground_dev = max(ground_dev, abs(
                rho[i, 0, 0].real - (traj.cum_reflection[i] + traj.cum_intrinsic[i])))
        ok = ok and reduction <= 1e-8 and trace_dev <= 1e-10 \
            and ground_dev <= 1e-8
        details.append(f"{name}: block {reduction:.2e} (1e-8), "
                       f"trace {trace_dev:.2e} (1e-10), "
                       f"ground {ground_dev:.2e} (1e-8)")
    _gate("master-equation", ok, "; ".join(details))


def test_semiclassical_coupling_agreement():
    from pulsecatch import semiclassical as sc
    devs = {
        "exp": sc.compare_with_full_quantum(prof.exponential(R_EXP_OP)),
        "gauss": sc.compare_with_full_quantum(prof.gaussian(r=R_GAUSS_OP, n=4)),
    }
    ok = devs["exp"] <= 1e-9 and devs["gauss"] <= 1e-9
    _gate("semiclassical", ok,
          f"max relative coupling deviation: exp {devs['exp']:.3e}, "
          f"gauss {devs['gauss']:.3e} (bound 1e-9)")


def test_fidelity_surface_shape_defaults():
    t0 = time.perf_counter()
    surfaces = {fam: sweep.fidelity_surface(fam).fidelity_matrix()
                for fam in ("exp", "gauss")}

    ok = True
    notes = []
    boundary_rows = 0
    for fam, mat in surfaces.items():
        if np.isnan(mat).any():
            ok = False
            notes.append(f"{fam}: failed cells")
            continue
        # more intrinsic loss never helps, at any rate
        if not np.all(np.diff(mat, axis=0) < 0.0):
            ok = False
            notes.append(f"{fam}: not monotone in kappa_i")
        for i in range(mat.shape[0]):
            uni, j = _unimodal(mat[i])
            if not uni:
                ok = False
                notes.append(f"{fam}: row {i} not unimodal")
            interior = 0 < j < mat.shape[1] - 1
            if fam == "gauss" and not interior:
                ok = False
                notes.append(f"gauss: row {i} maximizer at the edge")
            if fam == "exp" and not interior:
                # slow-pulse regime: the true optimum lies below the r range
                # and the whole row falls away from the edge (flagged, and
                # consistent with the boundary warning from optimal_rate)
                boundary_rows += 1
                if j != 0:
                    ok = False
                    notes.append(f"exp: row {i} pinned at the upper edge")

    # the optimal rate moves up with the loss rate for both families
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryMaximumWarning)
        for fam in ("exp", "gauss"):
            stars = [sweep.optimal_rate(fam, ki)[0]
                     for ki in (1e-5, 1e-4, 1e-3)]
            if not (stars[0] <= stars[1] <= stars[2]):
                ok = False
                notes.append(f"{fam}: r* not non-decreasing {stars}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0

    _gate("surface-shape", ok,
          f"25x40 defaults: monotone in kappa_i, rows unimodal; "
          f"gauss maximizers all interior; exp has {boundary_rows} slow-pulse "
          f"rows peaking below r=0.05 (flagged); r* non-decreasing; "
          f"{elapsed:.1f}s < 60s"
          + ("; " + "; ".join(notes) if notes else ""))


def test_solver_routes_agree_on_subgrid():
    kis = np.geomspace(1e-5, 1e-2, 10)
    rs = np.linspace(0.05, 1.0, 10)
    worst_tc = 0.0
    worst_f = 0.0
    for ki in kis:
        for r in rs:
            fast_e = sweep._exp_cell(float(r), float(ki))
            slow_e = sweep._generic_cell(prof.exponential(float(r)), float(ki))
            (fast_g,) = sweep._cells("gauss", (float(ki),), (float(r),))
            slow_g = sweep._generic_cell(prof.gaussian(r=float(r)), float(ki))
            worst_tc = max(worst_tc,
                           abs(fast_e.tau_c - slow_e.tau_c),
                           abs(fast_g.tau_c - slow_g.tau_c))
            worst_f = max(worst_f,
                          abs(fast_e.fidelity - slow_e.fidelity),
                          abs(fast_g.fidelity - slow_g.fidelity))
    ok = worst_tc <= 1e-8 and worst_f <= 1e-6
    _gate("route-agreement", ok,
          f"10x10 grid, both families: max |dtau_c| = {worst_tc:.3e} (1e-8), "
          f"max |dF| = {worst_f:.3e} (1e-6)")
