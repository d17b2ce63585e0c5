"""Harmonic transfer function identification for a hybrid oscillator.

A mass-spring system with a one-way damper, driven at 1 Hz, settles on a
limit cycle along which the damper switches twice per period.  Around
that orbit the deviation dynamics are linear time-periodic; this package
computes their harmonic transfer functions from harmonic balance,
estimates the same functions from chirp experiments via regularized
least squares, and fits stiffness and damping to the result.

The public names load lazily (PEP 562): ``import htfid`` imports no
submodule and so not numpy, which lets ``htfid.cli`` choose numpy's BLAS
thread count before numpy loads.  A name's module is imported the first
time the name is read.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_MODULES = {
    "errors": (
        "AliasingError",
        "AmbiguousSwitchingError",
        "ConfigError",
        "DivergenceError",
        "EventLocalizationError",
        "HtfidError",
        "IllConditionedError",
        "InvalidInputError",
        "NoDataError",
        "NotSettledError",
        "ResamplingRequiredError",
        "SingularFrequencyError",
    ),
    "model": ("HybridModel", "ModelParams", "SwitchedLinearization", "linearize"),
    "sim": ("LimitCycle", "Trajectory", "error_trajectory", "integrate", "settle_limit_cycle"),
    "hss": (
        "FourierMatrixSeries",
        "HarmonicTransferSet",
        "TruncatedHSS",
        "build_hss",
        "default_grid",
        "eval_htf",
        "fourier_series",
        "read_htf_csv",
        "square_wave_coeffs",
        "write_htf_csv",
    ),
    "excite": (
        "ChirpPlan",
        "ExperimentRecord",
        "chirp_value",
        "clock_phases",
        "run_experiments",
    ),
    "estimate": (
        "EstimationProblem",
        "SpectrumRecord",
        "build_regressor",
        "cost",
        "estimate_htf",
        "second_difference",
        "spectra",
    ),
    "fit": ("FitResult", "fit_parameters"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # A public name, or one of the modules above, on its first read.
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
