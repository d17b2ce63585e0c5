"""Grey-box fit of stiffness and damping to harmonic transfer data.

The decision variables are (k, c) only; the switching pattern (duty and
engagement phase) is frozen at the values measured on the nominal orbit,
and mass, gravity and rest length are not fitted.  The residuals are the
complex mismatches G_n(k, c) - target_n between the model's harmonic
transfer functions and the target for orders n in {-1, 0, 1} over the
target grid; the objective is their RMS.  It is minimized by
Levenberg-Marquardt (Marquardt, SIAM J. Appl. Math. 1963) in variables
scaled by the initial guess.  The harmonic state-space operator is
affine in (k, c), so the same `eval_htf` call that gives the residuals
also gives their exact Jacobian, dG_n/dtheta = C_n M^-1 (dA/dtheta) M^-1 B.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError
from .hss import HarmonicTransferSet, build_hss, eval_htf, fourier_series
from .model import SwitchedLinearization

#: Step length, in variables scaled by the initial guess, at which the
#: fit stops.
STEP_TOL = 1e-8
#: Harmonic truncation used when evaluating the model during the fit.
FIT_N_H = 10
#: Harmonic orders whose mismatch the fit minimizes.
_ORDERS = (-1, 0, 1)
#: Initial Levenberg-Marquardt damping and its factor per rejected
#: (multiply) or accepted (divide) step.
_DAMPING = 1e-2
_DAMPING_FACTOR = 10.0


@dataclass(frozen=True)
class FitResult:
    k_hat: float
    c_hat: float
    objective: float
    iterations: int
    converged: bool

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(asdict(self), handle, indent=2)
            handle.write("\n")


def _parameter_directions(m, duty, t_hat, T, n_h):
    """dA/dk and dA/dc of the stacked harmonic state operator.

    The operator is affine in (k, c), so each derivative is the operator
    at a unit parameter minus the operator at k = c = 0.
    """

    def operator(k, c):
        lin = SwitchedLinearization.oscillator(m, k, c, duty, t_hat, T)
        return build_hss(fourier_series(lin, n_h)).A

    zero = operator(0.0, 0.0)
    return [operator(1.0, 0.0) - zero, operator(0.0, 1.0) - zero]


def _residuals(k, c, target, duty, t_hat, T, m, n_h, dA=()):
    """Stacked residuals G_n(k, c) - target_n over `_ORDERS`, and their
    derivatives along each of `dA` as the columns of a Jacobian."""
    for n in _ORDERS:
        if n not in target.harmonics:
            raise InvalidInputError(f"target is missing harmonic {n}")
    lin = SwitchedLinearization.oscillator(m, k, c, duty, t_hat, T)
    theory = eval_htf(
        build_hss(fourier_series(lin, n_h)),
        target.omega_grid,
        n_keep=1,
        convention=target.convention,
        dA=dA,
    )
    residual = np.concatenate(
        [theory.harmonics[n] - target.harmonics[n] for n in _ORDERS]
    )
    jac = [np.concatenate([s[n] for n in _ORDERS]) for s in theory.sensitivities]
    return residual, np.transpose(jac)


def _rms(residual: np.ndarray) -> float:
    return math.sqrt(float(np.vdot(residual, residual).real) / residual.size)


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

        sqrt(mean over n in {-1,0,1} and grid points of |dG|^2),

    the RMS of the residuals `fit_parameters` minimizes.
    """
    if k <= 0.0 or c < 0.0:
        raise InvalidInputError("need k > 0 and c >= 0")
    return _rms(_residuals(k, c, target, duty, t_hat, T, m, n_h)[0])


def fit_parameters(
    target: HarmonicTransferSet,
    init,
    duty: float,
    t_hat: float,
    T: float,
    m: float = 1.0,
    max_iter: int = 500,
    n_h: int = FIT_N_H,
) -> FitResult:
    """Minimize the harmonic transfer mismatch over (k, c).

    Levenberg-Marquardt on the real and imaginary parts of the residuals,
    in variables p = (k/k0, c/c0) scaled by the (positive) initial guess.
    Each iteration solves the damped 2x2 normal equations

        (J^T J + lambda diag(J^T J)) dp = -J^T r

    with the analytic Jacobian J.  A trial point outside k > 0, c >= 0,
    or one that does not lower the objective, is rejected and lambda is
    raised tenfold; an accepted one lowers it tenfold.  The fit converges
    when |dp| falls below `STEP_TOL`; `max_iter` caps the number of trial
    steps.
    """
    k0, c0 = float(init[0]), float(init[1])
    if k0 <= 0.0 or c0 <= 0.0:
        raise InvalidInputError("initial k and c must be positive")
    if duty == 0.0:
        # the damper never engages, so no data can determine c
        raise InvalidInputError("duty must be positive to fit c")
    scale = np.array([k0, c0])
    dA = _parameter_directions(m, duty, t_hat, T, n_h)

    def linearize_at(theta):
        residual, jac = _residuals(*theta, target, duty, t_hat, T, m, n_h, dA)
        # J^T J and J^T r of the stacked real and imaginary parts
        J = jac * scale
        return _rms(residual), (J.conj().T @ J).real, (J.conj().T @ residual).real

    theta = scale
    objective, hess, grad = linearize_at(theta)
    damping = _DAMPING
    iterations = 0
    converged = False
    while iterations < max_iter:
        iterations += 1
        # Cramer's rule: np.linalg.solve would be the one call in
        # `identify` to page in real LAPACK (+0.2 MiB peak RSS)
        (h00, h01), (h10, h11) = hess + damping * np.diag(np.diag(hess))
        det = h00 * h11 - h01 * h10
        step = np.array([h01 * grad[1] - h11 * grad[0], h10 * grad[0] - h00 * grad[1]]) / det
        if math.hypot(*step) < STEP_TOL:
            converged = True
            break
        trial = theta + step * scale
        if trial[0] > 0.0 and trial[1] >= 0.0:
            trial_fit = linearize_at(trial)
            if trial_fit[0] < objective:
                theta = trial
                objective, hess, grad = trial_fit
                damping /= _DAMPING_FACTOR
                continue
        damping *= _DAMPING_FACTOR
    return FitResult(
        k_hat=float(theta[0]),
        c_hat=float(theta[1]),
        objective=objective,
        iterations=iterations,
        converged=converged,
    )
