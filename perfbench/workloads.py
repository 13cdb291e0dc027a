"""The workloads: seeded inputs, the op under test, and its output check.

Every input comes from the numpy generator the caller seeds; the package
receives only profiles, memory parameters and CLI argv. Ops come in rounds of
a fixed mix of kinds, so runs of any seed measure the same mix and a median
lands inside one kind's cluster instead of on the edge between two.
`round_s` is the nominal time of one round on the reference machine (2 vCPU
Intel Xeon VM); a run does `--seconds / round_s` rounds, so every run of a
workload times the same number of ops whatever the machine's speed.

Check bounds are the ones the test suite and acceptance gates use:
closed-form route agreement |dtau_c| <= 1e-8 and |dF| <= 1e-6, loss budget
closure 1e-8.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pulsecatch import cli, closedform, profiles, protocol

TAU_C_TOL = 1e-8
FIDELITY_TOL = 1e-6
BUDGET_TOL = 1e-8

KAPPA_I_OP = 1e-4
EXP_OP = 0.036
GAUSS_OP = 0.1533


@dataclass
class Op:
    kind: str
    desc: dict            # JSON description of the input, for the detail file
    payload: object


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _sha(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _report_text(rep: protocol.TransferReport) -> str:
    fields = (rep.tau_c, rep.tau_max, rep.fidelity, rep.loss_stage1_reflection,
              rep.loss_intrinsic, rep.loss_unabsorbed)
    return ",".join(_fmt(v) for v in fields) + ";" + ",".join(rep.flags)


def _budget_failures(rep: protocol.TransferReport) -> list[str]:
    total = (rep.fidelity + rep.loss_stage1_reflection + rep.loss_intrinsic
             + rep.loss_unabsorbed)
    if abs(total - 1.0) > BUDGET_TOL:
        return [f"loss budget sums to {total!r}, off by more than {BUDGET_TOL}"]
    return []


def _closed_form(profile: profiles.InputProfile, kappa_i: float):
    """(tau_c, fidelity) of an analytic profile from `closedform`."""
    if profile.kind == profiles.EXPONENTIAL:
        return (closedform.exp_tau_c(profile.r, kappa_i),
                closedform.exp_report(profile.r, kappa_i)[1])
    cst = closedform.gauss_constants(profile.sigma, profile.n, kappa_i)
    return cst.tau_c, closedform.gauss_report(profile.sigma, profile.n,
                                              kappa_i)[1]


def _agreement_failures(tau_c, fidelity, ref_tau_c, ref_fidelity) -> list[str]:
    out = []
    if not abs(tau_c - ref_tau_c) <= TAU_C_TOL:
        out.append(f"tau_c {tau_c!r} vs closed form {ref_tau_c!r}")
    if not abs(fidelity - ref_fidelity) <= FIDELITY_TOL:
        out.append(f"fidelity {fidelity!r} vs closed form {ref_fidelity!r}")
    return out


class Workload:
    """Interface the runner drives; subclasses set the class attributes.

    kinds: the op kinds of one round, in order. round_s: nominal seconds
    per round. trace_rounds: rounds in a traced run. setup_code: the one-off
    warm-up a fresh interpreter runs before the first op (also `setup_s`).
    """

    name = ""
    kinds: tuple[str, ...] = ()
    round_s = 1.0
    trace_rounds = 1
    setup_code = "import pulsecatch\n"
    in_process = True        # False: ops run in child processes
    clock = None             # run.Clock of an untimed-phase run, if any

    @property
    def setup_argv(self) -> tuple[str, ...]:
        return ("-c", self.setup_code)

    def make_round(self, rng) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> list[str]:
        """Failure messages; empty when the result is correct."""
        raise NotImplementedError

    def digest(self, op: Op, result) -> str:
        raise NotImplementedError

    def observe(self, op: Op, result) -> dict:
        """Extra facts about the result for the run record."""
        return {}

    def bytes_written(self, result) -> int:
        return 0

    def cleanup(self, result) -> None:
        pass


# ---------------------------------------------------------------------------
# catch
# ---------------------------------------------------------------------------

def multi_hump(rng, faint: bool) -> profiles.InputProfile:
    """Two Gaussian humps tabulated every 0.02 on [0, 30], normalized.

    Modelled on the test suite's double hump (same knot spacing, unit-scale
    widths). A faint early hump trips the first threshold early, so the main
    hump's rise needs kappa > 1 and the schedule resumes stage 1
    (`feasibility_resumed`); two comparable humps give a plain two-segment
    schedule over a multi-hump profile.
    """
    taus = np.linspace(0.0, 30.0, 1501)
    c1, c2 = rng.uniform(3.0, 5.0), rng.uniform(17.0, 22.0)
    w1, w2 = rng.uniform(0.9, 1.2), rng.uniform(0.9, 1.2)
    a1 = rng.uniform(0.01, 0.06) if faint else rng.uniform(0.3, 0.6)
    rates = a1 * np.exp(-0.5 * ((taus - c1) / w1) ** 2) \
        + (1.0 - a1) * np.exp(-0.5 * ((taus - c2) / w2) ** 2)
    rates /= np.trapezoid(rates, taus)
    return profiles.tabulated(taus, rates)


class Catch(Workload):
    """build_schedule + peak_time_and_fidelity for one seeded pulse."""

    name = "catch"
    # 22 analytic ops and two tabulated ones (~6-9 s) per round. The
    # tabulated ops carry most of the busy time and so move ops_per_s. The
    # median of a 2-round run (48 ops) falls among the 28 random analytic
    # and 4 Gauss operating-point ops (~0.2 s). The tail (10 ops from the
    # top: the 4 tables and 6 others) falls in the middle of the 12 exp
    # operating-point ops (~0.45 s, long horizon), on fixed inputs, and not
    # on the edge of a cluster where one op's timing error moves it.
    kinds = ("exp", "gauss") * 4 + ("exp_op", "gauss_op", "exp_op") \
        + ("exp", "gauss") * 3 + ("exp_op", "gauss_op", "exp_op") \
        + ("exp_op", "exp_op") + ("table_faint", "table_twin")
    round_s = 20.0
    trace_rounds = 1
    setup_code = ("import pulsecatch\n"
                  "from pulsecatch import profiles as p, protocol as q\n"
                  "m = p.MemoryParams(kappa_i=1e-3); f = p.exponential(1.0)\n"
                  "q.peak_time_and_fidelity(f, m, q.build_schedule(f, m))\n")

    def make_round(self, rng) -> list[Op]:
        ops = []
        for kind in self.kinds:
            if kind in ("exp", "gauss"):
                r = float(rng.uniform(0.05, 1.0))
                ki = _log_uniform(rng, 1e-5, 1e-2)
                profile = profiles.exponential(r) if kind == "exp" \
                    else profiles.gaussian(r=r)
                desc = {"profile": f"{kind}:r={r!r}", "kappa_i": ki}
            elif kind == "exp_op":
                ki, profile = KAPPA_I_OP, profiles.exponential(EXP_OP)
                desc = {"profile": f"exp:r={EXP_OP}", "kappa_i": ki}
            elif kind == "gauss_op":
                ki, profile = KAPPA_I_OP, profiles.gaussian(r=GAUSS_OP, n=4)
                desc = {"profile": f"gauss:r={GAUSS_OP},n=4", "kappa_i": ki}
            else:
                ki = KAPPA_I_OP
                profile = multi_hump(rng, faint=kind == "table_faint")
                desc = {"profile": f"table:{kind}", "kappa_i": ki,
                        "rates_sha256": _sha(profile.rates.tobytes())}
            ops.append(Op(kind, desc, (profile,
                                       profiles.MemoryParams(kappa_i=ki))))
        return ops

    def execute(self, op: Op):
        profile, params = op.payload
        schedule = protocol.build_schedule(profile, params)
        return protocol.peak_time_and_fidelity(profile, params, schedule)

    def check(self, op: Op, rep) -> list[str]:
        failures = _budget_failures(rep)
        profile, params = op.payload
        if profile.kind != profiles.TABULATED:
            failures += _agreement_failures(rep.tau_c, rep.fidelity,
                                            *_closed_form(profile,
                                                          params.kappa_i))
        return failures

    def digest(self, op: Op, rep) -> str:
        return _sha(_report_text(rep))

    def observe(self, op: Op, rep) -> dict:
        return {"flags": list(rep.flags)}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    workdir: Path


class Cli(Workload):
    """One `python -m pulsecatch` process per op, in a fresh temp directory.

    The traced run calls `cli.main(argv)` in-process instead, so that spans
    can be recorded; the argv and the files written are the same.
    """

    name = "cli"
    kinds = ("sweep", "verify", "simulate", "schedule_exp", "schedule_gauss")
    round_s = 12.5
    trace_rounds = 1
    setup_code = ""
    setup_argv = ("-m", "pulsecatch", "--help")
    in_process = False

    def __init__(self, workroot: Path, env: dict):
        self.workroot = workroot
        self.env = env
        self._library: dict[tuple[str, float], protocol.TransferReport] = {}

    def make_round(self, rng) -> list[Op]:
        ops = []
        for kind in self.kinds:
            if kind.startswith("schedule"):
                literal = f"exp:r={EXP_OP}" if kind == "schedule_exp" \
                    else f"gauss:r={GAUSS_OP},n=4"
                argv = ["schedule", "--profile", literal, "--kappa-i",
                        repr(KAPPA_I_OP), "--samples",
                        str(int(rng.integers(3001, 5002)))]
            elif kind == "simulate":
                r = EXP_OP * float(rng.uniform(0.95, 1.05))
                argv = ["simulate", "--profile", f"exp:r={r!r}", "--kappa-i",
                        repr(KAPPA_I_OP)]
            elif kind == "sweep":
                k_lo = _log_uniform(rng, 1e-5, 2e-5)
                k_hi = _log_uniform(rng, 5e-3, 1e-2)
                r_lo = float(rng.uniform(0.05, 0.1))
                r_hi = float(rng.uniform(0.9, 1.0))
                argv = ["sweep", "--profile", "gauss",
                        "--grid-ki", f"{k_lo!r}:{k_hi!r}:25:log",
                        "--grid-r", f"{r_lo!r}:{r_hi!r}:40:lin"]
            else:
                argv = ["verify", "all"]
            ops.append(Op(kind, {"argv": argv}, argv))
        return ops

    def execute(self, op: Op) -> CliResult:
        workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.workroot))
        if not self.in_process:
            return run_child([sys.executable, "-m", "pulsecatch",
                              *op.payload], workdir, self.env, self.clock)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.payload))
        finally:
            os.chdir(cwd)
        return CliResult(code, out.getvalue(), err.getvalue(), workdir)

    def _library_report(self, literal: str, kappa_i: float):
        key = (literal, kappa_i)
        if key not in self._library:
            profile = profiles.parse_profile(literal)
            params = profiles.MemoryParams(kappa_i=kappa_i)
            self._library[key] = protocol.peak_time_and_fidelity(
                profile, params, protocol.build_schedule(profile, params))
        return self._library[key]

    def check(self, op: Op, res: CliResult) -> list[str]:
        """Checks after a zero exit; the runner reports other exit codes."""
        argv = op.payload
        if op.kind == "verify":
            payload = json.loads((res.workdir / "verify.json").read_text())
            failed = [c["name"] for c in payload["checks"] if not c["pass"]]
            return [] if payload["pass"] is True \
                else [f"verify failed: {failed}"]
        if op.kind == "sweep":
            return [] if ", 0 failed" in res.stdout \
                else [f"sweep reported failed cells: {res.stdout.strip()}"]
        if op.kind.startswith("schedule"):
            payload = json.loads((res.workdir / "schedule.json").read_text())
            ref = self._library_report(argv[2], float(argv[4]))
            failures = _agreement_failures(payload["tau_c"],
                                           payload["fidelity"],
                                           ref.tau_c, ref.fidelity)
            total = sum(float(payload[k]) for k in (
                "fidelity", "loss_stage1_reflection", "loss_intrinsic",
                "loss_unabsorbed"))
            if abs(total - 1.0) > BUDGET_TOL:
                failures.append(f"schedule.json loss budget sums to {total!r}")
            return failures
        return []

    def files(self, res: CliResult) -> dict[str, str]:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(res.workdir.iterdir()) if p.is_file()}

    def digest(self, op: Op, res: CliResult) -> str:
        return _sha(";".join(f"{k}:{v}" for k, v in self.files(res).items()))

    def bytes_written(self, res: CliResult) -> int:
        return sum(p.stat().st_size for p in res.workdir.iterdir()
                   if p.is_file())

    def observe(self, op: Op, res: CliResult) -> dict:
        out = {"exit": res.code, "files": self.files(res)}
        if op.kind == "simulate":
            for line in res.stdout.splitlines():
                if line.startswith("energy balance residual"):
                    out["residual"] = float(line.split("=")[1])
        return out

    def cleanup(self, res: CliResult) -> None:
        shutil.rmtree(res.workdir, ignore_errors=True)


def run_child(argv: list[str], cwd: Path, env: dict, clock=None,
              timeout: float = 150.0) -> CliResult:
    """Run a child process to its end, capturing its output. While it runs,
    `clock` knows its pid, so that a calibration sample can stop it."""
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        if clock is not None:
            clock.child = proc.pid
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:
            proc.kill()
            raise
        finally:
            if clock is not None:
                clock.child = None
    return CliResult(proc.returncode, out, err, cwd)


def get(name: str, workroot: Path, env: dict):
    if name == "cli":
        return Cli(workroot, env)
    return Catch()


NAMES = ("catch", "cli")
