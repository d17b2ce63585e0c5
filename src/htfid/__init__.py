"""Harmonic transfer function identification for a hybrid oscillator.

A mass-spring system with a one-way damper, driven at 1 Hz, settles on a
limit cycle along which the damper switches twice per period.  Around
that orbit the deviation dynamics are linear time-periodic; this package
computes their harmonic transfer functions from harmonic balance,
estimates the same functions from chirp experiments via regularized
least squares, and fits stiffness and damping to the result.
"""

from .errors import (
    AliasingError,
    AmbiguousSwitchingError,
    ConfigError,
    DivergenceError,
    EventLocalizationError,
    HtfidError,
    IllConditionedError,
    InvalidInputError,
    NoDataError,
    NotSettledError,
    ResamplingRequiredError,
    SingularFrequencyError,
)
from .model import HybridModel, ModelParams, SwitchedLinearization, linearize
from .sim import (
    LimitCycle,
    Trajectory,
    error_trajectory,
    integrate,
    settle_limit_cycle,
)
from .hss import (
    FourierMatrixSeries,
    HarmonicTransferSet,
    TruncatedHSS,
    build_hss,
    default_grid,
    eval_htf,
    fourier_series,
    read_htf_csv,
    square_wave_coeffs,
    write_htf_csv,
)
from .excite import (
    ChirpPlan,
    ExperimentRecord,
    chirp_value,
    clock_phases,
    gen_chirp,
    run_experiments,
)
from .estimate import (
    EstimationProblem,
    SpectrumRecord,
    build_regressor,
    cost,
    estimate_htf,
    second_difference,
    spectra,
)
from .fit import FitResult, fit_objective, fit_parameters

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "AmbiguousSwitchingError",
    "ChirpPlan",
    "ConfigError",
    "DivergenceError",
    "EstimationProblem",
    "EventLocalizationError",
    "ExperimentRecord",
    "FitResult",
    "FourierMatrixSeries",
    "HarmonicTransferSet",
    "HtfidError",
    "HybridModel",
    "IllConditionedError",
    "InvalidInputError",
    "LimitCycle",
    "ModelParams",
    "NoDataError",
    "NotSettledError",
    "ResamplingRequiredError",
    "SingularFrequencyError",
    "SpectrumRecord",
    "SwitchedLinearization",
    "Trajectory",
    "TruncatedHSS",
    "build_hss",
    "build_regressor",
    "chirp_value",
    "clock_phases",
    "cost",
    "default_grid",
    "error_trajectory",
    "estimate_htf",
    "eval_htf",
    "fit_objective",
    "fit_parameters",
    "fourier_series",
    "gen_chirp",
    "integrate",
    "linearize",
    "read_htf_csv",
    "run_experiments",
    "second_difference",
    "settle_limit_cycle",
    "spectra",
    "square_wave_coeffs",
    "write_htf_csv",
]
