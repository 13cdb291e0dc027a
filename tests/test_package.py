"""The package namespace: every public name resolves, on first access, to
its module's object, and importing the package loads none of them."""
from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

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
