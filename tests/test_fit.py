"""Grey-box recovery of (k, c) from harmonic transfer targets."""

import argparse
import dataclasses
import math
import warnings

import numpy as np
import pytest

import htfid.fit
from htfid import (
    InvalidInputError,
    commands,
    build_hss,
    eval_htf,
    fit_parameters,
    fourier_series,
)
from htfid.model import SwitchedLinearization

from helpers import fresh_python, refuses


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


def objective(target, duty, t_hat, T):
    """The RMS mismatch `fit_parameters` minimizes, as a function of (k, c),
    on one affine HSS assembled for `target`."""
    zero, dA = htfid.fit._affine_hss(1.0, duty, t_hat, T, htfid.fit.FIT_N_H)
    return lambda k, c: htfid.fit._rms(htfid.fit._residuals(k, c, target, zero, dA)[0])


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
    assert objective(crime_target, lab_cycle.duty, lab_cycle.t_hat, 1.0)(200.0, 2.0) == 0.0


def test_objective_positive_away_from_truth(crime_target, lab_cycle):
    assert objective(crime_target, lab_cycle.duty, lab_cycle.t_hat, 1.0)(180.0, 2.0) > 1e-6


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


def test_fit_validation(crime_target, lab_cycle, monkeypatch):
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

    def no_hss(*args):
        raise AssertionError("an HSS was built for a partial target")

    monkeypatch.setattr(htfid.fit, "build_hss", no_hss)
    with pytest.raises(InvalidInputError, match="missing harmonic"):
        fit_parameters(partial, (150.0, 1.0), lab_cycle.duty, lab_cycle.t_hat, 1.0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda t, a: fit_parameters(t, (math.nan, 1.0), *a), "initial k"),
        (lambda t, a: fit_parameters(t, (150.0, math.inf), *a), "initial c"),
        (lambda t, a: fit_parameters(t, (150.0, 1.0), *a, max_iter=0), "max_iter"),
        (lambda t, a: fit_parameters(t, (150.0, 1.0), *a, max_iter=-1), "max_iter"),
    ],
)
def test_fit_refuses_nonfinite_inputs_by_name(crime_target, lab_cycle, call, name):
    # nan passed the sign checks and failed deep in the series with a
    # RuntimeWarning; max_iter < 1 returned an unconverged result
    args = (lab_cycle.duty, lab_cycle.t_hat, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=f"^{name} must be"):
            call(crime_target, args)


@pytest.mark.parametrize(
    "setting, name",
    [
        ({"m": 0.0}, "m"),  # was a bare ZeroDivisionError
        ({"m": -1.0}, "m"),  # was accepted
        ({"m": math.nan}, "m"),
        ({"n_h": 0}, "n_h"),  # was refused as "n_keep must be ..."
        ({"n_h": 1.5}, "n_h"),
    ],
    ids=["m-zero", "m-negative", "m-nan", "n-h-zero", "n-h-fraction"],
)
def test_fit_checks_its_mass_and_truncation(crime_target, lab_cycle, monkeypatch, setting, name):
    def no_hss(*args):
        raise AssertionError("an HSS was built for a bad setting")

    monkeypatch.setattr(htfid.fit, "build_hss", no_hss)
    args = (lab_cycle.duty, lab_cycle.t_hat, 1.0)
    with pytest.raises(InvalidInputError, match=f"^{name} must be"):
        fit_parameters(crime_target, (150.0, 1.0), *args, **setting)


def test_fit_assembles_the_hss_once(crime_target, lab_cycle, count_evals, monkeypatch):
    builds = []
    original = htfid.fit.build_hss

    def counting(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(htfid.fit, "build_hss", counting)
    fit_parameters(crime_target, (150.0, 1.0), lab_cycle.duty, lab_cycle.t_hat, 1.0)
    # k = c = 0 and the two unit directions, however many evaluations
    assert len(builds) == 3
    assert len(count_evals) > 3


@pytest.mark.parametrize("m", [1.0, 2.5])
def test_affine_operator_is_the_built_one(lab_cycle, m):
    duty, t_hat = lab_cycle.duty, lab_cycle.t_hat
    zero, dA = htfid.fit._affine_hss(m, duty, t_hat, 1.0, 10)
    for k, c in [(200.0, 2.0), (173.3, 0.37)]:
        lin = SwitchedLinearization.oscillator(m, k, c, duty, t_hat, 1.0)
        built = build_hss(fourier_series(lin, 10)).generator
        affine = htfid.fit._hss_at(k, c, zero, dA).generator
        if m == 1.0:
            # every entry is one product, rounded alike
            assert np.array_equal(affine, built)
        else:
            assert np.max(np.abs(affine - built)) <= 1e-15 * np.max(np.abs(built))


@pytest.mark.parametrize("n_h", [0, 1])
def test_cli_checks_the_fits_orders(crime_target, lab_cycle, n_h):
    # truncation and target must reach the orders the fit reads; the
    # pre-flight refuses both settings just where the fit would
    refused = n_h < max(htfid.fit.ORDERS)
    cfg = commands.load_config()
    cfg["fit"]["n_h"] = n_h
    simulate = argparse.Namespace(command="simulate", alpha=None, nh=None, dt=None)
    identify = argparse.Namespace(command="identify", alpha=None, nh=n_h, dt=None)
    target = dataclasses.replace(
        crime_target, harmonics={n: g for n, g in crime_target.harmonics.items() if abs(n) <= n_h}
    )
    args = (lab_cycle.duty, lab_cycle.t_hat, 1.0)
    sites = [
        lambda: commands._check_config(cfg, simulate),  # fit.n_h
        lambda: commands._check_config(commands.load_config(), identify),  # estimate.n_harmonics
        lambda: fit_parameters(crime_target, (150.0, 1.0), *args, n_h=n_h),
        lambda: fit_parameters(target, (150.0, 1.0), *args),
    ]
    assert [refuses(site) for site in sites] == [refused] * len(sites)


def test_grid_has_single_basin(crime_target, lab_cycle):
    """Coarse objective landscape: one interior local minimum, at truth."""
    ks = np.linspace(150.0, 250.0, 21)
    cs = np.linspace(1.0, 3.0, 21)
    at = objective(crime_target, lab_cycle.duty, lab_cycle.t_hat, 1.0)
    Z = np.array([[at(k, c) for c in cs] for k in ks])
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

    directions = htfid.fit._affine_hss(1.0, duty, t_hat, 1.0, 10)[1]
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
    at = objective(lab_estimate, lab_cycle.duty, lab_cycle.t_hat, lab_cycle.T)
    assert lab_fit.converged
    assert at(lab_fit.k_hat, lab_fit.c_hat) == lab_fit.objective


def test_fit_is_a_local_minimum(lab_fit, lab_cycle, lab_estimate):
    at = objective(lab_estimate, lab_cycle.duty, lab_cycle.t_hat, lab_cycle.T)
    k, c = lab_fit.k_hat, lab_fit.c_hat
    for scale in (1.0 - 1e-6, 1.0 + 1e-6):
        assert at(k * scale, c) >= lab_fit.objective
        assert at(k, c * scale) >= lab_fit.objective


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


SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_cli_import_leaves_out_scipy_optimize():
    # No scipy at all: the package runs on numpy alone.
    assert fresh_python("import sys, htfid.cli\n" + SCIPY_LOADED) == "[]"


def test_htf_theory_run_loads_no_scipy(tmp_path):
    code = (
        "import sys\n"
        "from htfid import cli\n"
        f"assert cli.main(['htf-theory', '--nh', '3', '--out', {str(tmp_path)!r}]) == 0\n"
        + SCIPY_LOADED
    )
    assert fresh_python(code).splitlines()[-1] == "[]"


def test_estimate_loads_no_scipy():
    code = (
        "import math, sys\n"
        "from htfid import ChirpPlan, EstimationProblem, HybridModel, estimate_htf\n"
        "from htfid import run_experiments, settle_limit_cycle, spectra\n"
        "model = HybridModel()\n"
        "cycle = settle_limit_cycle(model)\n"
        "plan = ChirpPlan(segment_duration=2.0, n_segments=3)\n"
        "records = spectra(run_experiments(model, cycle, plan))\n"
        "problem = EstimationProblem(records, n_harmonics=1, pump=2.0 * math.pi / cycle.T)\n"
        "print(estimate_htf(problem).diagnostics['cond_estimate'] > 0.0)\n"
        + SCIPY_LOADED
    )
    # The coupled solve ran (a condition figure) and loaded no scipy module.
    assert fresh_python(code).splitlines() == ["True", "[]"]


def test_identify_runs_without_scipy(tmp_path):
    # `python -m htfid.cli identify` in an interpreter where scipy cannot be imported
    code = (
        "import runpy, sys\n"
        "sys.modules['scipy'] = None\n"
        f"sys.argv = ['htfid', 'identify', '--out', {str(tmp_path)!r}]\n"
        "runpy.run_module('htfid.cli', run_name='__main__', alter_sys=True)\n"
    )
    fresh_python(code)  # raises unless the run exits 0
    assert (tmp_path / "fit.json").is_file()
