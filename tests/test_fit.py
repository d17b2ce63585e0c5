"""Grey-box recovery of (k, c) from harmonic transfer targets."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import htfid
import htfid.fit
from htfid import (
    InvalidInputError,
    build_hss,
    eval_htf,
    fit_objective,
    fit_parameters,
    fourier_series,
)
from htfid.model import SwitchedLinearization


def oscillator(k, c, duty, t_hat):
    return SwitchedLinearization(
        A_on=np.array([[0.0, 1.0], [-k, -c]]),
        A_off=np.array([[0.0, 1.0], [-k, 0.0]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[1.0, 0.0]]),
        D=np.array([[0.0]]),
        duty=duty,
        t_hat=t_hat,
        T=1.0,
    )


def make_target(k, c, duty, t_hat, grid):
    return eval_htf(
        build_hss(fourier_series(oscillator(k, c, duty, t_hat), 10)),
        grid,
        n_keep=1,
        convention="output",
    )


@pytest.fixture
def count_evals(monkeypatch):
    """Count the model evaluations the fit makes through its binding."""
    calls = []
    original = htfid.fit.eval_htf

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(htfid.fit, "eval_htf", counting)
    return calls


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
    with pytest.raises(InvalidInputError):
        fit_parameters(crime_target, (150.0, 1.0), 0.0, lab_cycle.t_hat, 1.0)
    partial = dataclasses.replace(crime_target, harmonics={0: crime_target.harmonics[0]})
    with pytest.raises(InvalidInputError, match="missing harmonic"):
        fit_parameters(partial, (150.0, 1.0), lab_cycle.duty, lab_cycle.t_hat, 1.0)
    with pytest.raises(InvalidInputError, match="missing harmonic"):
        fit_objective(200.0, 2.0, partial, lab_cycle.duty, lab_cycle.t_hat, 1.0)


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


@pytest.mark.parametrize("convention", ["input", "output"])
@pytest.mark.parametrize("k, c", [(170.0, 1.2), (235.0, 3.5)])
def test_sensitivities_match_central_differences(lab_cycle, convention, k, c):
    """dG_n/dk and dG_n/dc from the kept inverse against finite differences."""
    duty, t_hat = lab_cycle.duty, lab_cycle.t_hat
    grid = np.linspace(0.5, 40.0, 57)

    def gains(k, c, dA=()):
        hss = build_hss(fourier_series(oscillator(k, c, duty, t_hat), 10))
        return eval_htf(hss, grid, n_keep=1, convention=convention, dA=dA)

    directions = htfid.fit._parameter_directions(1.0, duty, t_hat, 1.0, 10)
    exact = gains(k, c, directions)
    assert len(exact.sensitivities) == 2
    # central differences are O(h^2) accurate: about 6e-8 relative at
    # h = 1e-5 next to the resonance, far below the 1e-6 bound
    for i, (dk, dc) in enumerate([(1e-5 * k, 0.0), (0.0, 1e-5 * c)]):
        plus, minus = gains(k + dk, c + dc), gains(k - dk, c - dc)
        for n in (-1, 0, 1):
            fd = (plus.harmonics[n] - minus.harmonics[n]) / (2.0 * (dk + dc))
            analytic = exact.sensitivities[i][n]
            assert np.max(np.abs(analytic - fd)) <= 1e-6 * np.max(np.abs(analytic))


def test_default_eval_has_no_sensitivities(lab_hss10):
    hts = eval_htf(lab_hss10, np.linspace(1.0, 30.0, 7), n_keep=1)
    assert hts.sensitivities == []


@pytest.fixture(scope="module")
def lab_fit(lab_cycle, lab_estimate):
    return fit_parameters(
        lab_estimate, (150.0, 1.0), lab_cycle.duty, lab_cycle.t_hat, lab_cycle.T
    )


def test_fit_objective_is_the_reported_objective(lab_fit, lab_cycle, lab_estimate):
    args = (lab_estimate, lab_cycle.duty, lab_cycle.t_hat, lab_cycle.T)
    assert lab_fit.converged
    assert fit_objective(lab_fit.k_hat, lab_fit.c_hat, *args) == lab_fit.objective


def test_fit_is_a_local_minimum(lab_fit, lab_cycle, lab_estimate):
    args = (lab_estimate, lab_cycle.duty, lab_cycle.t_hat, lab_cycle.T)
    k, c = lab_fit.k_hat, lab_fit.c_hat
    for scale in (1.0 - 1e-6, 1.0 + 1e-6):
        assert fit_objective(k * scale, c, *args) >= lab_fit.objective
        assert fit_objective(k, c * scale, *args) >= lab_fit.objective


def test_small_damping_recovery_keeps_c_feasible(lab_cycle, count_evals):
    """From (150, 1) the search proposes c < 0 on the way to c = 0.05."""
    grid = np.arange(1, 211) * 2.0 * math.pi / 30.0
    target = make_target(200.0, 0.05, lab_cycle.duty, lab_cycle.t_hat, grid)
    res = fit_parameters(target, (150.0, 1.0), lab_cycle.duty, lab_cycle.t_hat, 1.0)
    assert res.converged
    assert res.c_hat >= 0.0
    assert abs(res.k_hat - 200.0) / 200.0 < 1e-3
    assert abs(res.c_hat - 0.05) / 0.05 < 1e-3
    # one evaluation per trial step plus the start, less the final step
    # (below tolerance, never evaluated): more iterations than evaluations
    # means some trial left the feasible set and was rejected unevaluated
    assert res.iterations > len(count_evals)


def test_inverse_crime_fit_evaluation_budget(crime_target, lab_cycle, count_evals):
    res = fit_parameters(
        crime_target, (150.0, 1.0), lab_cycle.duty, lab_cycle.t_hat, 1.0
    )
    assert res.converged
    assert len(count_evals) <= 25


def test_cli_import_leaves_out_scipy_optimize():
    src = os.path.dirname(os.path.dirname(htfid.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, htfid.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert proc.stdout.strip() == "False"
