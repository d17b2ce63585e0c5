"""Plain helpers the test modules import by name.

They live outside `conftest.py` so that `from helpers import ...` finds
this module also when one run collects `tests/` and `bench/tests/`,
each of which has a `conftest.py` of its own.
"""

import numpy as np

from htfid import HtfidError


def relerr(a, b):
    """Elementwise |a - b| / |b| as plain float array."""
    a = np.asarray(a)
    b = np.asarray(b)
    return np.abs(a - b) / np.abs(b)


def refuses(call) -> bool:
    """Whether `call()` raises one of the package's errors."""
    try:
        call()
    except HtfidError:
        return True
    return False
