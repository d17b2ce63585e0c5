"""Grey-box recovery of (k, c) from harmonic transfer targets."""

import math

import numpy as np
import pytest

from htfid import (
    InvalidInputError,
    build_hss,
    eval_htf,
    fit_objective,
    fit_parameters,
    fourier_series,
)
from htfid.model import SwitchedLinearization


def make_target(k, c, duty, t_hat, grid):
    lin = SwitchedLinearization(
        A_on=np.array([[0.0, 1.0], [-k, -c]]),
        A_off=np.array([[0.0, 1.0], [-k, 0.0]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[1.0, 0.0]]),
        D=np.array([[0.0]]),
        duty=duty,
        t_hat=t_hat,
        T=1.0,
    )
    return eval_htf(
        build_hss(fourier_series(lin, 10)), grid, n_keep=1, convention="output"
    )


@pytest.fixture(scope="module")
def crime_target(lab_cycle):
    grid = np.arange(1, 211) * 2.0 * math.pi / 30.0
    return make_target(200.0, 2.0, lab_cycle.duty, lab_cycle.t_hat, grid)


def test_objective_zero_at_truth(crime_target, lab_cycle):
    val = fit_objective(
        200.0, 2.0, crime_target, lab_cycle.duty, lab_cycle.t_hat, 1.0
    )
    assert val == 0.0


def test_objective_positive_away_from_truth(crime_target, lab_cycle):
    val = fit_objective(
        180.0, 2.0, crime_target, lab_cycle.duty, lab_cycle.t_hat, 1.0
    )
    assert val > 1e-6


def test_inverse_crime_recovery(crime_target, lab_cycle):
    res = fit_parameters(
        crime_target, (150.0, 1.0), lab_cycle.duty, lab_cycle.t_hat, 1.0
    )
    assert res.converged
    assert abs(res.k_hat - 200.0) / 200.0 < 1e-3
    assert abs(res.c_hat - 2.0) / 2.0 < 1e-3


def test_iteration_cap(crime_target, lab_cycle):
    res = fit_parameters(
        crime_target,
        (150.0, 1.0),
        lab_cycle.duty,
        lab_cycle.t_hat,
        1.0,
        max_iter=2,
    )
    assert not res.converged
    assert res.iterations <= 2
    assert np.isfinite(res.objective)


def test_fit_validation(crime_target, lab_cycle):
    with pytest.raises(InvalidInputError):
        fit_parameters(
            crime_target, (0.0, 1.0), lab_cycle.duty, lab_cycle.t_hat, 1.0
        )
    with pytest.raises(InvalidInputError):
        fit_parameters(
            crime_target, (150.0, -1.0), lab_cycle.duty, lab_cycle.t_hat, 1.0
        )


def test_grid_has_single_basin(crime_target, lab_cycle):
    """Coarse objective landscape: one interior local minimum, at truth."""
    ks = np.linspace(150.0, 250.0, 21)
    cs = np.linspace(1.0, 3.0, 21)
    Z = np.array(
        [
            [
                fit_objective(
                    k, c, crime_target, lab_cycle.duty, lab_cycle.t_hat, 1.0
                )
                for c in cs
            ]
            for k in ks
        ]
    )
    minima = []
    for i in range(1, 20):
        for j in range(1, 20):
            patch = Z[i - 1 : i + 2, j - 1 : j + 2]
            if Z[i, j] == patch.min() and np.count_nonzero(patch == Z[i, j]) == 1:
                minima.append((float(ks[i]), float(cs[j])))
    assert len(minima) == 1
    assert minima[0][0] == pytest.approx(200.0, abs=1e-9)
    assert minima[0][1] == pytest.approx(2.0, abs=1e-9)
