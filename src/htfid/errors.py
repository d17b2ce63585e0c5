"""Exception and warning types shared across the package, and the two
rules of a scalar input: `check_integer` for a count, `check_real` for a
number.  Both refuse a bool (Python counts it as an int) and a numpy bool."""

import math
import operator
import sys

#: The largest count: the largest index of a Python sequence, which is
#: also numpy's (`np.intp`); a larger one sizes no array.
MAX_COUNT = sys.maxsize


class HtfidError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(HtfidError, ValueError):
    """An argument violates a documented precondition."""


def check_integer(name: str, value, low: int, high: int = MAX_COUNT) -> None:
    """Refuse `value` unless it is an integer (a Python or numpy int, not a
    bool) of at least `low` and at most `high`, by default `MAX_COUNT`."""
    try:
        ok = not isinstance(value, bool) and low <= operator.index(value) <= high
    except TypeError:
        ok = False
    if not ok:
        span = f"in {low}..{high}" if low > -math.inf else f"at most {high}"
        raise InvalidInputError(f"{name} must be an integer {span}, not {value!r}")


def check_real(name: str, value, low: float = -math.inf, strict: bool = False) -> None:
    """Refuse `value` unless it is a finite real number (not a bool, numpy
    bool or complex) of at least `low`, or above `low` if `strict`.  An
    integer beyond the float range is refused too."""
    # A numpy bool is known by its dtype, so that this module need not import numpy.
    kind = getattr(getattr(value, "dtype", None), "kind", "")
    try:
        ok = not isinstance(value, (bool, complex)) and kind != "b" and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not (ok and (value > low if strict else value >= low)):
        bound = "" if low == -math.inf else f" {'greater than' if strict else 'at least'} {low}"
        raise InvalidInputError(f"{name} must be a finite number{bound}, not {value!r}")


class ConfigError(HtfidError):
    """A run configuration file is missing, malformed, or inconsistent."""


class DivergenceError(HtfidError):
    """The integrator produced a non-finite state."""


class EventLocalizationError(HtfidError):
    """The integrator's regula falsi (`sim._regula_falsi`) failed to localize a crossing."""


class AmbiguousSwitchingError(HtfidError):
    """A periodic orbit does not have exactly two threshold crossings."""


class NotSettledError(HtfidError):
    """The trajectory did not reach a periodic orbit within tolerance."""


class ResamplingRequiredError(HtfidError):
    """Sample grids are incompatible and silent resampling is refused."""


class AliasingError(HtfidError):
    """The requested signal content exceeds the Nyquist rate."""


class SingularFrequencyError(HtfidError):
    """The harmonic balance system is singular at a grid frequency."""


class IllConditionedError(HtfidError):
    """A least-squares normal matrix is too ill-conditioned to trust."""


class NoDataError(HtfidError):
    """No usable frequency bins remain after excitation screening."""


class PerturbationSizeWarning(UserWarning):
    """A perturbation response is large enough to strain linearization."""


class DegenerateSwitchingWarning(UserWarning):
    """A switching pattern is degenerate and the system is effectively LTI."""
