"""Plain helpers the test modules import by name.

They live outside `conftest.py` so that `from helpers import ...` finds
this module also when one run collects `tests/` and `bench/tests/`,
each of which has a `conftest.py` of its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import htfid
from htfid import HtfidError, integrate, run_experiments
from htfid.cli import BLAS_THREAD_VARIABLES
from htfid.model import steps_in
from htfid.sim import _regula_falsi

#: The directory that holds the package under test.
SRC = str(Path(htfid.__file__).resolve().parents[1])


def relerr(a, b):
    """Elementwise |a - b| / |b| as plain float array."""
    a = np.asarray(a)
    b = np.asarray(b)
    return np.abs(a - b) / np.abs(b)


def sample_buffer(a):
    """The array that owns the memory `a` views."""
    while a.base is not None:
        a = a.base
    return a


def refuses(call) -> bool:
    """Whether `call()` raises one of the package's errors."""
    try:
        call()
    except HtfidError:
        return True
    return False


def fresh_process(args, env=None):
    """The finished ``python *args`` run by a new interpreter that imports
    this checkout.

    The child gets this environment with `SRC` first on PYTHONPATH and
    none of the BLAS thread variables, and then the entries of `env`.
    The test fails with the child's stderr unless the child exits 0.
    """
    child = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, child.get("PYTHONPATH")]))
    child.update(env or {})
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=child)
    assert proc.returncode == 0, proc.stderr
    return proc


def fresh_python(code, env=None):
    """Stdout of `code` run by `fresh_process`."""
    return fresh_process(["-c", code], env).stdout.strip()


def locate_crossing(probe, h, value_lo, value_hi, landing):
    """`htfid.sim._regula_falsi` driven by a plain function.

    ``probe(s)`` returns ``(value, payload)`` for an RK4 sub-step of length
    s; the other arguments and the result ``(s, payload)`` are those of
    the search, which `integrate` drives as a coroutine instead.
    """
    search = _regula_falsi(h, value_lo, value_hi, landing)
    s = next(search)
    while True:
        try:
            s = search.send(probe(s))
        except StopIteration as found:
            return found.value


class _Captured(Exception):
    """Stops `run_experiments` at its `integrate` call."""


def records_with_velocity(model, cycle, plan):
    """The deviations ``(xi, xi_dot)`` of `run_experiments`' records, velocity included.

    The records keep positions only.  This runs the same batch, the
    arguments of `run_experiments`' one `integrate` call, again with the
    velocities stored, and subtracts the orbit from both over the captured
    plays as `run_experiments` does from the positions.  Each array has one
    row per record.
    """
    calls = []

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Captured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("htfid.excite.integrate", capture)
        with pytest.raises(_Captured):
            run_experiments(model, cycle, plan)
    [(args, kwargs)] = calls
    traj = integrate(*args, **{**kwargs, "velocity": True})
    n = steps_in(plan.segment_duration, cycle.dt)
    xi, xi_dot = traj.x[:, :n], traj.xdot[:, :n]
    cycle.subtract(xi, xi_dot, kwargs["t0"], kwargs["skip"])
    return xi, xi_dot
