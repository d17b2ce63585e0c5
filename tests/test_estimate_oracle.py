"""The estimator against the exact HTF of the linearization.

The records keep the simulated chirp spectra U; their outputs are built
in the frequency domain from the exact HTF of `bench/oracle.py` (imported
by path, so there is one oracle), as the estimator's own regressor says
they should be: ``Y_r(w) = sum_n G_n(w) exp(j*n*w_p*phi_r) U(w - n*w_p)``.
The distortion share alone estimates from simulated outputs.  Violations are counted by criterion 4's rules (5 % / 5 deg on excited
bins, +/-0.5 rad/s around the resonance sqrt(200) left out), against the
exact HTF rather than the n_h = 10 theory.
"""

import cmath
import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from htfid import (
    ChirpPlan,
    EstimationProblem,
    estimate_htf,
    linearize,
    run_experiments,
    settle_limit_cycle,
    spectra,
)
from htfid.estimate import DEFAULT_ALPHA, _at_bins, _candidate_bins, _regressor_tensor


def load_oracle():
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load_oracle()


def with_outputs(problem, bins, y):
    """`problem` with each record's output spectrum y[:, r] at `bins` and zero elsewhere."""
    records = []
    for r, spectrum in enumerate(problem.records):
        Y = np.zeros_like(spectrum.Y)
        Y[bins] = y[:, r]
        records.append(dataclasses.replace(spectrum, Y=Y))
    return dataclasses.replace(problem, records=records)


def violations(est, exact):
    """Criterion 4's counts on G_-1, G_0, G_+1 against `exact`."""
    keep = np.abs(est.omega_grid - math.sqrt(200.0)) > 0.5
    counts = []
    for n in (-1, 0, 1):
        live = est.excitation_mask[n] & keep
        g_est, g_exact = est.harmonics[n][live], exact[n][live]
        mag = np.abs(np.abs(g_est) - np.abs(g_exact)) / np.abs(g_exact)
        phase = np.abs((np.degrees(np.angle(g_est) - np.angle(g_exact)) + 180.0) % 360.0 - 180.0)
        counts.append(int(np.sum((mag > 0.05) | (phase > 5.0))))
    return tuple(counts)


@pytest.fixture(scope="module")
def orders_3(lab_spectra, lab_lin, lab_cycle):
    """Records of true orders |n| <= 3 as an alpha = 0 problem, its grid and the exact HTF."""
    orders = range(-3, 4)
    problem = EstimationProblem(
        records=lab_spectra, n_harmonics=3, pump=2.0 * math.pi / lab_cycle.T, alpha=0.0
    )
    bins = _candidate_bins(problem)
    omega = bins * lab_spectra[0].bin_spacing
    exact = oracle.exact_htf(lab_lin, omega, orders, convention="output")
    Phi, _, _ = _regressor_tensor(problem, bins)
    y = Phi @ np.stack([exact[n] for n in orders], axis=1)[:, :, None]
    return with_outputs(problem, bins, y[:, :, 0]), omega, exact


def test_estimator_recovers_the_exact_htf_of_its_own_orders(orders_3):
    # True orders |n| <= 3, estimated at alpha = 0: nothing but rounding
    # separates the estimate from the oracle (2.1e-15 of max|G_0| measured).
    problem, omega, exact = orders_3
    est = estimate_htf(problem)
    assert np.array_equal(est.omega_grid, omega)
    scale = np.max(np.abs(exact[0]))
    for n in exact:
        excited = est.excitation_mask[n]
        assert excited.any(), n
        error = np.max(np.abs(est.harmonics[n] - exact[n])[excited]) / scale
        assert error <= 1e-13, (n, error)


def test_default_penalty_keeps_its_own_orders_within_criterion_4(orders_3):
    # The default alpha = 1e-8 biases the estimate (up to 0.64 % of
    # max|G_0| measured) but leaves no bin outside criterion 4's rules.
    problem, _, exact = orders_3
    est = estimate_htf(dataclasses.replace(problem, alpha=1e-8))
    assert violations(est, exact) == (0, 0, 0)


@pytest.fixture(scope="module")
def orders_10(lab_spectra, lab_lin, lab_cycle):
    """Records of true orders |n| <= 10 through every input line as an
    alpha = 0 problem of orders |n| <= 3, its bins, the exact HTF and the
    shared input spectrum at ``bins - n*pump_bins`` for each order n."""
    problem = EstimationProblem(
        records=lab_spectra, n_harmonics=3, pump=2.0 * math.pi / lab_cycle.T, alpha=0.0
    )
    bins = _candidate_bins(problem)
    omega = bins * lab_spectra[0].bin_spacing
    exact = oracle.exact_htf(lab_lin, omega, range(-10, 11), convention="output")
    n_fft = lab_spectra[0].n_bins
    y = np.zeros((bins.size, len(lab_spectra)), dtype=complex)
    for r, spectrum in enumerate(lab_spectra):
        for n, g in exact.items():
            shifted = _at_bins(spectrum.U, bins - n * problem.pump_bins, n_fft)
            y[:, r] += g * cmath.exp(1j * n * problem.pump * spectrum.clock_phase) * shifted
    inputs = {n: _at_bins(lab_spectra[0].U, bins - n * problem.pump_bins, n_fft) for n in exact}
    return with_outputs(problem, bins, y), exact, inputs


def test_estimator_aliases_orders_nine_apart_in_closed_form(orders_10):
    # The nine records start at clock phases k/9 and play one input U, so
    # the regressor column of order m = n + 9l is that of order n times
    # U(w - m*w_p) / U(w - n*w_p), and orders +/-4, +/-5 fall in residue
    # classes no estimated order shares (orthogonal across the records).
    # At alpha = 0 the estimate of order n is therefore
    #   sum over m = n (mod 9) of G_m U(w - m*w_p) / U(w - n*w_p)
    # (2.2e-15 of max|G_0| measured, worst over |n| <= 3).
    problem, exact, inputs = orders_10
    est = estimate_htf(problem)
    scale = np.max(np.abs(exact[0]))
    for n in range(-3, 4):
        aliased = sum(exact[m] * inputs[m] for m in exact if (m - n) % 9 == 0) / inputs[n]
        excited = est.excitation_mask[n]
        assert excited.any(), n
        error = np.max(np.abs(est.harmonics[n] - aliased)[excited]) / scale
        assert error <= 1e-13, (n, error)


def test_aliasing_share_of_criterion_4(orders_10):
    # True orders |n| <= 10 through every input line, estimated with
    # orders |n| <= 3 at the default alpha: orders n and n +/- 9 share a
    # regressor column across the nine records, so this is the part of
    # criterion 4's count that aliasing alone explains.  A report, not a gate.
    problem, exact, _ = orders_10
    est = estimate_htf(dataclasses.replace(problem, alpha=DEFAULT_ALPHA))
    print(
        "ALIASING SHARE: true orders |n| <= 10, alpha = 1e-8: G_-1/G_0/G_+1 %d/%d/%d "
        "(criterion 4, simulated records: 71/0/69)" % violations(est, exact)
    )


def simulated_counts(model, cycle, plan):
    """Criterion 4's counts on simulated records of `plan`, against the
    exact HTF of the cycle's linearization, with alpha = 1e-8 scaled by
    (amplitude / 0.004)^2 so that the penalty keeps its weight against
    the data."""
    problem = EstimationProblem(
        records=spectra(run_experiments(model, cycle, plan)),
        n_harmonics=3,
        pump=2.0 * math.pi / cycle.T,
        alpha=DEFAULT_ALPHA * (plan.amplitude / 0.004) ** 2,
    )
    est = estimate_htf(problem)
    exact = oracle.exact_htf(linearize(model, cycle), est.omega_grid, (-1, 0, 1), "output")
    return violations(est, exact)


def test_distortion_share_of_criterion_4(lab_model, lab_cycle):
    # Criterion 4's records at a quarter of the amplitude, and at half the
    # step.  The counts fall towards the aliasing floor as the amplitude
    # falls, so the rest at A = 0.004 grows with the amplitude: distortion
    # of the hybrid plant.  Halving the step moves no count, so the
    # integrator adds none.  A report, not a gate.
    quarter = simulated_counts(lab_model, lab_cycle, ChirpPlan(amplitude=0.001))
    fine = simulated_counts(lab_model, settle_limit_cycle(lab_model, dt=5e-4), ChirpPlan())
    print(
        "DISTORTION SHARE: G_-1/G_0/G_+1 %d/%d/%d at A = 0.001 (alpha 6.25e-10), "
        "%d/%d/%d at dt = 0.5 ms (criterion 4, A = 0.004 and dt = 1 ms: 71/0/69; "
        "aliasing alone: 58/0/26)" % (quarter + fine)
    )
