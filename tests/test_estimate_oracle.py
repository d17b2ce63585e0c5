"""The estimator against the exact HTF of the linearization.

The records keep the simulated chirp spectra U; their outputs are built
in the frequency domain from the exact HTF of `bench/oracle.py` (imported
by path, so there is one oracle), as the estimator's own regressor says
they should be: ``Y_r(w) = sum_n G_n(w) exp(j*n*w_p*phi_r) U(w - n*w_p)``.
"""

import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np

from htfid import EstimationProblem, estimate_htf
from htfid.estimate import _candidate_bins, _regressor_tensor


def load_oracle():
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load_oracle()


def test_estimator_recovers_the_exact_htf_of_its_own_orders(lab_spectra, lab_lin, lab_cycle):
    # True orders |n| <= 3, estimated at alpha = 0: nothing but rounding
    # separates the estimate from the oracle (2.1e-15 of max|G_0| measured).
    orders = range(-3, 4)
    problem = EstimationProblem(
        records=lab_spectra, n_harmonics=3, pump=2.0 * math.pi / lab_cycle.T, alpha=0.0
    )
    bins = _candidate_bins(problem)
    omega = bins * lab_spectra[0].bin_spacing
    exact = oracle.exact_htf(lab_lin, omega, orders, convention="output")
    Phi, _, _ = _regressor_tensor(problem, bins)
    y = Phi @ np.stack([exact[n] for n in orders], axis=1)[:, :, None]
    records = []
    for r, spectrum in enumerate(lab_spectra):
        Y = np.zeros_like(spectrum.Y)
        Y[bins] = y[:, r, 0]
        records.append(dataclasses.replace(spectrum, Y=Y))
    est = estimate_htf(dataclasses.replace(problem, records=records))
    assert np.array_equal(est.omega_grid, omega)
    scale = np.max(np.abs(exact[0]))
    for n in orders:
        excited = est.excitation_mask[n]
        assert excited.any(), n
        error = np.max(np.abs(est.harmonics[n] - exact[n])[excited]) / scale
        assert error <= 1e-13, (n, error)
