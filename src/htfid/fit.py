"""Grey-box fit of stiffness and damping to harmonic transfer data.

The decision variables are (k, c) only; the switching pattern (duty and
engagement phase) is frozen at the values measured on the nominal orbit,
and mass, gravity and rest length are not fitted.  The objective is the
RMS complex mismatch between the model's harmonic transfer functions and
the target for orders n in {-1, 0, 1} over the target grid, minimized
with a Nelder-Mead simplex in variables scaled by the initial guess.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import InvalidInputError
from .hss import HarmonicTransferSet, build_hss, eval_htf, fourier_series
from .model import SwitchedLinearization

#: Relative simplex size and objective change at which the search stops.
XTOL_REL = 1e-4
FTOL_ABS = 1e-8
#: Harmonic truncation used when evaluating the model during the fit.
FIT_N_H = 10


@dataclass(frozen=True)
class FitResult:
    k_hat: float
    c_hat: float
    objective: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "k_hat": self.k_hat,
            "c_hat": self.c_hat,
            "objective": self.objective,
            "iterations": self.iterations,
            "converged": self.converged,
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")


def fit_objective(
    k: float,
    c: float,
    target: HarmonicTransferSet,
    duty: float,
    t_hat: float,
    T: float,
    m: float = 1.0,
    n_h: int = FIT_N_H,
) -> float:
    """RMS harmonic transfer mismatch of a (k, c) candidate.

    Evaluates the switched model with the given stiffness and damping on
    the target's grid and convention, then returns

        sqrt(mean over n in {-1,0,1} and grid points of |dG|^2).
    """
    if k <= 0.0 or c < 0.0:
        raise InvalidInputError("need k > 0 and c >= 0")
    for n in (-1, 0, 1):
        if n not in target.harmonics:
            raise InvalidInputError(f"target is missing harmonic {n}")
    lin = SwitchedLinearization.oscillator(m, k, c, duty, t_hat, T)
    theory = eval_htf(
        build_hss(fourier_series(lin, n_h)),
        target.omega_grid,
        n_keep=1,
        convention=target.convention,
    )
    total = 0.0
    count = 0
    for n in (-1, 0, 1):
        diff = theory.harmonics[n] - target.harmonics[n]
        total += float(np.sum(np.abs(diff) ** 2))
        count += diff.shape[0]
    return math.sqrt(total / count)


def fit_parameters(
    target: HarmonicTransferSet,
    init,
    duty: float,
    t_hat: float,
    T: float,
    m: float = 1.0,
    max_iter: int = 500,
    n_h: int = FIT_N_H,
    progress=None,
) -> FitResult:
    """Minimize the harmonic transfer mismatch over (k, c).

    Derivative-free Nelder-Mead in variables scaled by the (positive)
    initial guess, so the stopping tolerance 1e-4 acts relatively on
    each parameter.  Candidates outside k > 0, c >= 0 are rejected with
    a large penalty instead of being evaluated.  `progress`, if given,
    is called once per iteration with the current best (k, c, objective).
    """
    k0, c0 = float(init[0]), float(init[1])
    if k0 <= 0.0 or c0 <= 0.0:
        raise InvalidInputError("initial k and c must be positive")

    def scaled_objective(p):
        k, c = p[0] * k0, p[1] * c0
        if k <= 0.0 or c < 0.0:
            return 1e6 * (1.0 + float(np.sum(np.abs(p))))
        return fit_objective(k, c, target, duty, t_hat, T, m=m, n_h=n_h)

    callback = None
    if progress is not None:
        callback = lambda p: progress(
            p[0] * k0, p[1] * c0, scaled_objective(p)
        )

    result = minimize(
        scaled_objective,
        x0=np.array([1.0, 1.0]),
        method="Nelder-Mead",
        callback=callback,
        options={
            "xatol": XTOL_REL,
            "fatol": FTOL_ABS,
            "maxiter": max_iter,
            "maxfev": 4 * max_iter,
        },
    )
    return FitResult(
        k_hat=float(result.x[0] * k0),
        c_hat=float(result.x[1] * c0),
        objective=float(result.fun),
        iterations=int(result.nit),
        converged=bool(result.success),
    )
