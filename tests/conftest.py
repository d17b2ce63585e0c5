"""Shared fixtures for the study configuration (m=1, k=200, c=2).

Everything expensive (settling, the nine chirp records, the empirical
estimate) is session-scoped so the suite simulates each of them once.
"""

import math

import pytest

from htfid import (
    ChirpPlan,
    EstimationProblem,
    HybridModel,
    build_hss,
    estimate_htf,
    eval_htf,
    fourier_series,
    linearize,
    run_experiments,
    settle_limit_cycle,
    spectra,
)

from helpers import records_with_velocity


@pytest.fixture(scope="session")
def lab_model():
    return HybridModel()


@pytest.fixture(scope="session")
def lab_cycle(lab_model):
    return settle_limit_cycle(lab_model, n_cycles=30, dt=1e-3, tol=1e-6)


@pytest.fixture(scope="session")
def lab_lin(lab_model, lab_cycle):
    return linearize(lab_model, lab_cycle)


@pytest.fixture(scope="session")
def lab_hss10(lab_lin):
    return build_hss(fourier_series(lab_lin, 10))


@pytest.fixture(scope="session")
def lab_records(lab_model, lab_cycle):
    # Nine 30 s chirp segments, amplitude 0.004, one warm-up play each.
    return run_experiments(lab_model, lab_cycle, ChirpPlan(warmup_periods=1))


@pytest.fixture(scope="session")
def lab_record_velocities(lab_model, lab_cycle):
    """`lab_records`' deviations (xi, xi_dot), from their batch run with velocities."""
    return records_with_velocity(lab_model, lab_cycle, ChirpPlan(warmup_periods=1))


@pytest.fixture(scope="session")
def lab_spectra(lab_records):
    return spectra(lab_records)


@pytest.fixture(scope="session")
def lab_problem(lab_spectra, lab_cycle):
    return EstimationProblem(
        records=lab_spectra,
        n_harmonics=3,
        pump=2.0 * math.pi / lab_cycle.T,
    )


@pytest.fixture(scope="session")
def lab_estimate(lab_problem):
    return estimate_htf(lab_problem)


@pytest.fixture(scope="session")
def lab_theory_on_estimate_grid(lab_hss10, lab_estimate):
    """Theoretical HTFs sampled on the estimator's bin grid.

    Output convention to match what the estimator returns: the value at
    omega is the gain onto the output line at omega from the input line
    at omega - n*w_p.
    """
    return eval_htf(
        lab_hss10,
        lab_estimate.omega_grid,
        n_keep=lab_estimate.n_h_kept,
        convention="output",
    )
