"""The package namespace: every public name resolves, on first access, to
its module's object, and importing the package loads none of them."""
from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pulsecatch as pc
from pulsecatch import dynamics, profiles, protocol

SRC = str(Path(pc.__file__).resolve().parents[1])


def test_public_names_are_their_modules_objects():
    assert len(pc.__all__) == len(set(pc.__all__))
    for module, names in pc._EXPORTS.items():
        owner = importlib.import_module(f"pulsecatch.{module}")
        for name in names:
            assert getattr(pc, name) is getattr(owner, name), name
            assert getattr(owner, name).__module__ == owner.__name__, name
    assert pc.build_schedule is protocol.build_schedule


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from pulsecatch import *", namespace)
    assert {name: namespace[name] for name in pc.__all__} \
        == {name: getattr(pc, name) for name in pc.__all__}


def test_dir_lists_every_public_name():
    assert set(pc.__all__) <= set(dir(pc))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pc.no_such_name
    assert not hasattr(pc, "cmd_schedule")
    with pytest.raises(ImportError):
        exec("from pulsecatch import no_such_name", {})


def test_quick_start_in_a_fresh_interpreter():
    """README's quick start reaches `profiles`, `protocol` and `dynamics`
    through the package alone, where `import pulsecatch` loaded no numpy
    and none of them."""
    code = (
        "import sys\n"
        "import pulsecatch as pc\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'numpy' or m.startswith('pulsecatch.')))\n"
        "profile = pc.profiles.exponential(0.036)\n"
        "params = pc.profiles.MemoryParams(kappa_i=1e-4)\n"
        "schedule = pc.protocol.build_schedule(profile, params)\n"
        "report = pc.protocol.peak_time_and_fidelity(profile, params, schedule)\n"
        "traj = pc.dynamics.simulate_amplitudes(profile, params, schedule,\n"
        "                                       schedule.horizon, tol=1e-10,\n"
        "                                       samples=101)\n"
        "print(repr(report.fidelity), repr(float(traj.beta[-1])))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    loaded, values = proc.stdout.splitlines()
    assert loaded == "[]"

    profile = profiles.exponential(0.036)
    params = profiles.MemoryParams(kappa_i=1e-4)
    schedule = protocol.build_schedule(profile, params)
    report = protocol.peak_time_and_fidelity(profile, params, schedule)
    traj = dynamics.simulate_amplitudes(profile, params, schedule,
                                        schedule.horizon, tol=1e-10,
                                        samples=101)
    assert values == f"{report.fidelity!r} {float(traj.beta[-1])!r}"


def test_runtime_runs_without_scipy():
    """With scipy unimportable, `validate`, `build_schedule` and
    `peak_time_and_fidelity` return the same results on every family, and
    so does `total_excitation` on a table, and over [0, 0] on any family.
    Each quadrature oracle raises ModuleNotFoundError naming the test extra,
    which installs scipy."""
    code = (
        "import json, math, sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import pulsecatch as pc\n"
        "taus = np.linspace(0.0, 30.0, 301)\n"
        "rates = np.exp(-0.5 * ((taus - 12.0) / 2.0) ** 2)\n"
        "table = pc.tabulated(taus, rates / np.trapezoid(rates, taus))\n"
        "params = pc.MemoryParams(kappa_i=1e-4)\n"
        "exp = pc.exponential(0.036)\n"
        "out = {}\n"
        "for name, p in [('exp', exp), ('table', table),\n"
        "                ('gauss', pc.gaussian(r=0.1533, n=4))]:\n"
        "    s = pc.build_schedule(p, params)\n"
        "    r = pc.peak_time_and_fidelity(p, params, s)\n"
        "    out[name] = [pc.validate(p).ok, s.tau_c, r.tau_max, r.fidelity,\n"
        "                 pc.total_excitation(p, 0.0)]\n"
        "out['total'] = [pc.total_excitation(table, math.inf),\n"
        "                pc.total_excitation(table, 12.0)]\n"
        "for name, call in [\n"
        "        ('total_excitation', lambda: pc.total_excitation(exp, 5.0)),\n"
        "        ('stage1_amplitude', lambda: pc.stage1_amplitude(exp, params,\n"
        "                                                        1.0)),\n"
        "        ('stage2_population', lambda: pc.stage2_population(\n"
        "            exp, params, 2.0, 5.0))]:\n"
        "    try:\n"
        "        call()\n"
        "    except ModuleNotFoundError as exc:\n"
        "        out[name] = str(exc)\n"
        "print(json.dumps(out))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)

    taus = np.linspace(0.0, 30.0, 301)
    rates = np.exp(-0.5 * ((taus - 12.0) / 2.0) ** 2)
    table = profiles.tabulated(taus, rates / np.trapezoid(rates, taus))
    params = profiles.MemoryParams(kappa_i=1e-4)
    for name, p in [("exp", profiles.exponential(0.036)), ("table", table),
                    ("gauss", profiles.gaussian(r=0.1533, n=4))]:
        s = protocol.build_schedule(p, params)
        r = protocol.peak_time_and_fidelity(p, params, s)
        assert got[name] == [True, s.tau_c, r.tau_max, r.fidelity, 0.0], name
    assert got["total"] == [profiles.total_excitation(table, math.inf),
                            profiles.total_excitation(table, 12.0)]
    for name in ("total_excitation", "stage1_amplitude", "stage2_population"):
        assert "pip install 'pulsecatch[test]'" in got[name], name
