"""pulsecatch benchmark: one workload, one seed, one timed phase, one JSON line.

    python3 perfbench/run.py --workload catch --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. A single client drives the package in a closed loop (each op starts
after the previous one ends) with BLAS/OpenMP pinned to one thread. Ops run
in whole rounds of the workload's fixed mix; `--seconds` sets how many
(see workloads.py), so a seed fixes exactly which ops a run times. Output
checks, digests and clean-up run between ops, outside the timed spans.

`--trace 0` reports the end-to-end metrics, in reference time: each timed
span is scaled by how fast the machine ran a fixed calibration kernel
before, during and after it (see Clock). `--trace 1` reports the
per-layer metrics instead, over a fixed number of rounds per workload
(`trace_rounds`; `--seconds` does not apply): each op runs once untraced and
once with every public function wrapped (see tracer.py), and the difference
is the tracing overhead. Per-layer numbers come only from traced runs.

The last stdout line is {"correct", "attempted", "failed", "metrics"}. The
full record (per-op inputs, times, checks, sha256 digests of every result,
warnings, errors and run metadata) goes to .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:   # before numpy loads its BLAS
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5
IMPORT_REPS = 3
CALIB_REF_S = 0.05     # the calibration kernel's time on the reference scale
SAMPLE_INTERVAL_S = 0.25   # kernel samples taken inside a timed span

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("ok_ratio", "ratio"),
              ("peak_rss_mb", "MB"))

ERROR_TYPES = ("DomainError", "NoThreshold", "InfeasibleSchedule",
               "SingularCoupling", "StepFailure", "NoPeak", "CheckFailed",
               "CliExit", "Other")

PER_LAYER = (
    ("profiles.rate_at.calls", "count"), ("profiles.rate_at.points", "count"),
    ("profiles.rate_at.self_s", "s"),
    ("profiles.cumulative.calls", "count"), ("profiles.cumulative.self_s", "s"),
    ("profiles.total_excitation.calls", "count"),
    ("profiles.total_excitation.self_s", "s"),
    ("protocol.build_schedule.calls", "count"),
    ("protocol.build_schedule.self_s", "s"),
    ("protocol.peak_time_and_fidelity.calls", "count"),
    ("protocol.peak_time_and_fidelity.self_s", "s"),
    ("protocol.stage2_population.calls", "count"),
    ("protocol.stage2_population.self_s", "s"),
    ("protocol.schedule_eval.calls", "count"),
    ("protocol.schedule_eval.points", "count"),
    ("protocol.schedule_eval.self_s", "s"),
    ("protocol.segments", "count"), ("protocol.resumed_schedules", "count"),
    ("scipy.solve_ivp.calls", "count"), ("scipy.solve_ivp.nfev", "count"),
    ("scipy.solve_ivp.self_s", "s"),
    ("scipy.dense.calls", "count"), ("scipy.dense.points", "count"),
    ("scipy.dense.self_s", "s"),
    ("scipy.quad.calls", "count"), ("scipy.quad.self_s", "s"),
    ("scipy.brentq.calls", "count"), ("scipy.brentq.self_s", "s"),
    ("dynamics.simulate_amplitudes.calls", "count"),
    ("dynamics.simulate_amplitudes.self_s", "s"),
    ("dynamics.simulate_amplitudes.samples", "count"),
    ("dynamics.simulate_master_equation.calls", "count"),
    ("dynamics.simulate_master_equation.self_s", "s"),
    ("dynamics.energy_balance_residual.self_s", "s"),
    ("closedform.calls", "count"), ("closedform.self_s", "s"),
    ("closedform.gauss_constants.self_s", "s"),
    ("closedform.gauss_report.self_s", "s"),
    ("sweep.fidelity_surface.calls", "count"),
    ("sweep.fidelity_surface.self_s", "s"),
    ("sweep.fidelity_surface.cells", "count"),
    ("sweep.fidelity_surface.cell_failures", "count"),
    ("sweep.optimal_rate.calls", "count"), ("sweep.optimal_rate.self_s", "s"),
    ("sweep.write_surface_csv.self_s", "s"),
    ("semiclassical.compare_with_full_quantum.calls", "count"),
    ("semiclassical.compare_with_full_quantum.self_s", "s"),
    ("cli.schedule.self_s", "s"), ("cli.simulate.self_s", "s"),
    ("cli.sweep.self_s", "s"), ("cli.verify.self_s", "s"),
    ("cli.bytes_written", "B"), ("import.s", "s"),
    ("bench.tracing_overhead_s", "s"), ("bench.unattributed_s", "s"),
    ("bench.warnings", "count"),
) + tuple((f"bench.errors.{t}", "count") for t in ERROR_TYPES)

_CHILD_WARNING = re.compile(r"\b\w*Warning: ")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it) at the highest percentile that has
    at least 10 ops beyond it. With fewer than 21 ops that rank would not lie
    above the median, so the tail is then the 90th percentile, interpolated
    between the two ranks around it."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 21:
        rank = n - 11
        return ordered[rank], 100.0 * rank / (n - 1), n - 1 - rank
    if n == 1:
        return ordered[0], 100.0, 0
    value = statistics.quantiles(ordered, n=10, method="inclusive")[-1]
    return value, 90.0, sum(v > value for v in ordered)


# ---------------------------------------------------------------------------
# reference time
# ---------------------------------------------------------------------------

def calibration_kernel() -> float:
    """Fixed work that does not touch the package, in the mix its ops do:
    interpreted Python, small numpy array operations, solve_ivp and quad."""
    import numpy as np
    from scipy.integrate import quad, solve_ivp
    acc = 0.0
    for i in range(20000):
        acc += (i * 0.5) ** 0.5
    x = np.linspace(0.0, 10.0, 2000)
    for _ in range(200):
        acc += float(np.sum(np.exp(-x) * np.sin(x)))
    sol = solve_ivp(lambda t, y: -0.3 * y + np.sin(t), (0.0, 50.0), [1.0],
                    rtol=1e-9, atol=1e-12)
    acc += float(sol.y[0, -1])
    acc += quad(lambda t: np.exp(-t) * t * t, 0.0, 20.0)[0]
    return acc


class Clock:
    """Times spans in reference time.

    The machine the benchmark was tuned on changes speed by up to 2x for
    fractions of a second up to minutes, with CPU time following wall time,
    so raw wall times of one commit differ more between runs than the
    bounds allow. A span is therefore timed together with samples of the
    calibration kernel: one just before it, one just after it, and one every
    SAMPLE_INTERVAL_S while it runs, from a SIGALRM handler that interrupts
    the span (and stops the span's child process, if it has one, for the
    sample's duration). The pauses are taken out of the span's wall time,
    and each second of what is left counts CALIB_REF_S over the kernel's
    time, averaged over the samples. A program change moves reference time
    as it moves wall time, and the machine's speed changes cancel out.
    """

    def __init__(self):
        calibration_kernel()             # imports and first-call costs
        self.samples: list[float] = []   # every kernel time, for the record
        self.child: int | None = None    # pid to stop while a sample runs
        self._pauses: list[tuple[float, float, float]] = []

    def _sample(self) -> float:
        t0 = perf_counter()
        calibration_kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        pid = self.child
        if pid is not None:
            try:
                os.kill(pid, signal.SIGSTOP)
            except ProcessLookupError:   # ended and reaped already
                pid = None
        try:
            dt = self._sample()
        finally:
            if pid is not None:
                os.kill(pid, signal.SIGCONT)
        self._pauses.append((t0, perf_counter(), dt))

    def span(self, fn) -> tuple[object, Exception | None, float, float]:
        """Run fn(); return (result, error, wall_s, ref_s)."""
        rates = [CALIB_REF_S / self._sample()]
        self._pauses = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        t0 = perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:         # recorded by the caller
            result, error = None, exc
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        wall = t1 - t0
        for start, end, dt in self._pauses:
            if start < t1:
                wall -= min(end, t1) - start
                rates.append(CALIB_REF_S / dt)
        rates.append(CALIB_REF_S / self._sample())
        return result, error, wall, wall * statistics.fmean(rates)


# ---------------------------------------------------------------------------
# run environment
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    import numpy
    import scipy
    h = hashlib.sha256()
    for path in sorted((SRC / "pulsecatch").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": _git_commit(), "src_sha256": h.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def setup_times(workload, env: dict, clock: Clock) -> list[float]:
    """Reference times of fresh interpreters that import the package and run
    the workload's one-off warm-up (for cli: `python -m pulsecatch --help`)."""
    import workloads as wl
    argv = [sys.executable, *workload.setup_argv]
    times = []
    for _ in range(SETUP_REPS):
        child, error, _, ref = clock.span(
            lambda: wl.run_child(argv, OUT, env, clock))
        if error is not None or child.code != 0:
            detail = error or child.stderr.strip()[-500:]
            raise RuntimeError(f"set-up child failed: {detail}")
        times.append(ref)
    return times


def import_seconds(env: dict) -> float:
    code = ("import time; t = time.perf_counter(); import pulsecatch; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=OUT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import child failed: {proc.stderr[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

class Run:
    """Executes ops, checks them outside the timed span, keeps the record."""

    def __init__(self, workload, tracer=None, clock=None):
        self.w = workload
        self.tracer = tracer
        self.clock = clock
        self.records: list[dict] = []
        self.warnings: Counter = Counter()
        self.errors: Counter = Counter()
        self.overhead_s = 0.0
        self.bytes_written = 0

    def _execute(self, op, traced: bool):
        """Run the op; return (result, wall, error, caught warnings, ref)."""
        if traced:
            def fn():
                return self.tracer.run_op(lambda: self.w.execute(op))
        else:
            def fn():
                return self.w.execute(op)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if self.clock is not None:
                result, error, wall, ref = self.clock.span(fn)
            else:
                ref = None
                t0 = perf_counter()
                try:
                    result, error = fn(), None
                except Exception as exc:   # record it; the run goes on
                    result, error = None, exc
                wall = perf_counter() - t0
        return result, wall, error, list(caught), ref

    def step(self, op) -> dict:
        rec = {"kind": op.kind, "input": op.desc}
        if self.tracer is not None:
            self.tracer.clear_caches(op.payload)
            plain, plain_wall, plain_error, _, _ = self._execute(op, False)
            plain_digest = None
            if plain_error is None:
                plain_digest = self.w.digest(op, plain)
                self.w.cleanup(plain)
            self.tracer.clear_caches(op.payload)
            self.tracer.install()
            try:
                result, wall, error, caught, _ = self._execute(op, True)
            finally:
                self.tracer.uninstall()
            self.overhead_s += wall - plain_wall
            rec["untraced_wall_s"] = plain_wall
            rec["self_s"] = self.tracer.last_breakdown()
        else:
            result, wall, error, caught, rec["ref_s"] = \
                self._execute(op, False)
        rec["wall_s"] = wall

        problems: list[tuple[str, str]] = []
        if error is not None:
            kind = type(error).__name__ \
                if type(error).__name__ in ERROR_TYPES else "Other"
            problems.append((kind, f"{type(error).__name__}: {error}"))
        else:
            exit_code = getattr(result, "code", 0)
            if exit_code != 0:
                problems.append(("CliExit", f"exit code {exit_code}: "
                                 f"{result.stderr.strip()[-300:]}"))
            else:
                problems += [("CheckFailed", msg)
                             for msg in self.w.check(op, result)]
            rec["sha256"] = self.w.digest(op, result)
            if self.tracer is not None and rec["sha256"] != plain_digest:
                problems.append(("CheckFailed",
                                 "traced and untraced results differ"))
            rec.update(self.w.observe(op, result))
            self.bytes_written += self.w.bytes_written(result)
            if not self.w.in_process:
                for line in result.stderr.splitlines():
                    if _CHILD_WARNING.search(line):
                        self.warnings[line.strip()] += 1
                        rec["warnings"] = rec.get("warnings", 0) + 1
            self.w.cleanup(result)

        for w in caught:
            text = f"{w.category.__name__}: {w.message}"
            self.warnings[text] += 1
        if caught:
            rec["warnings"] = rec.get("warnings", 0) + len(caught)
        for kind, msg in problems:
            self.errors[kind] += 1
        rec["ok"] = not problems
        if problems:
            rec["errors"] = [msg for _, msg in problems]
        self.records.append(rec)
        return rec

    def timed_phase(self, rng, seconds: float) -> None:
        """Untraced: `seconds / round_s` whole rounds, at least one. Traced:
        the workload's `trace_rounds`. Either way a seed fixes the ops."""
        rounds = self.w.trace_rounds if self.tracer is not None \
            else max(1, round(seconds / self.w.round_s))
        for _ in range(rounds):
            for op in self.w.make_round(rng):
                self.step(op)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(run: Run, setup: list[float], workload) -> tuple[dict, dict]:
    walls = [r["ref_s"] for r in run.records]
    tail_value, pct, beyond = tail(walls)
    who = resource.RUSAGE_SELF if workload.in_process \
        else resource.RUSAGE_CHILDREN
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_ms": 1e3 * statistics.median(walls),
        "op_tail_ms": 1e3 * tail_value,
        "ok_ratio": sum(r["ok"] for r in run.records) / len(walls),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    extra = {"setup_samples_s": setup, "tail_percentile": pct,
             "tail_ops_beyond": beyond, "ops": len(walls),
             "timed_ref_s": sum(walls),
             "timed_wall_s": sum(r["wall_s"] for r in run.records),
             "calibration_s": run.clock.samples}
    return values, extra


def per_layer(run: Run, import_s: float) -> dict:
    t = run.tracer
    values = {}
    for name, _ in PER_LAYER:
        if name == "closedform.self_s":
            values[name] = sum(v for k, v in t.self_s.items()
                               if k.startswith("closedform."))
        elif name.endswith(".self_s"):
            values[name] = t.self_s.get(name[:-len(".self_s")], 0.0)
        else:
            values[name] = t.counts.get(name, 0)
    values["cli.bytes_written"] = run.bytes_written
    values["import.s"] = import_s
    values["bench.tracing_overhead_s"] = run.overhead_s
    values["bench.unattributed_s"] = t.self_s.get("bench.unattributed", 0.0)
    values["bench.warnings"] = sum(run.warnings.values())
    for kind in ERROR_TYPES:
        values[f"bench.errors.{kind}"] = run.errors.get(kind, 0)
    return values


def main(argv=None) -> int:
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the ops, their child processes and the calibration kernel.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import numpy as np
    import pulsecatch
    if Path(pulsecatch.__file__).resolve().parent != (SRC / "pulsecatch").resolve():
        print(f"error: pulsecatch imported from {pulsecatch.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = child_env()
    workroot = Path(tempfile.mkdtemp(dir=OUT))
    workload = wl.get(args.workload, workroot, env)
    meta = metadata(args)
    rng = np.random.default_rng(args.seed)

    tracer = None
    if args.trace:
        import tracer as tr
        tracer = tr.Tracer()
        tracer.install()         # fail before any work if a target is gone
        tracer.uninstall()
        import_s = import_seconds(env)
        if isinstance(workload, wl.Cli):
            workload.in_process = True
        clock = None
    else:
        clock = Clock()
        workload.clock = clock
        setup = setup_times(workload, env, clock)
    exec(compile(workload.setup_code, "<warm-up>", "exec"), {})

    run = Run(workload, tracer, clock)
    try:
        run.timed_phase(rng, args.seconds)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    if tracer is None:
        values, extra = end_to_end(run, setup, workload)
        units = dict(END_TO_END)
    else:
        values, extra = per_layer(run, import_s), {
            "optional_targets_missing": tracer.optional_missing}
        units = dict(PER_LAYER)

    run_digest = hashlib.sha256(
        "\n".join(r.get("sha256", "-") for r in run.records).encode()
    ).hexdigest()
    failed = sum(not r["ok"] for r in run.records)
    detail = {"meta": meta, "metrics": values, **extra,
              "run_sha256": run_digest, "warnings": dict(run.warnings),
              "errors": dict(run.errors), "records": run.records}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str) + "\n")

    for text, count in run.warnings.items():
        print(f"warning x{count}: {text}", file=sys.stderr)
    for rec in run.records:
        for msg in rec.get("errors", ()):
            print(f"failed {rec['kind']} {rec['input']}: {msg}",
                  file=sys.stderr)
    print(f"{args.workload}: {len(run.records)} ops, {failed} failed, "
          f"digest {run_digest[:16]}, record {path.relative_to(ROOT)}",
          file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0, "attempted": len(run.records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "pulsecatch" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a pulsecatch "
              "checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
