"""Exception and warning types shared across the package."""


class HtfidError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(HtfidError, ValueError):
    """An argument violates a documented precondition."""


class ConfigError(HtfidError):
    """A run configuration file is missing, malformed, or inconsistent."""


class DivergenceError(HtfidError):
    """The integrator produced a non-finite state."""


class EventLocalizationError(HtfidError):
    """Bisection failed to localize a threshold crossing."""


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
