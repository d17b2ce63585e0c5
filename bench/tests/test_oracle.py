"""The exact-HTF oracle against closed forms and against HSS convergence."""

import math
from dataclasses import replace

import numpy as np
import pytest

from htfid import HybridModel, build_hss, eval_htf, fourier_series, linearize, settle_limit_cycle
from oracle import exact_htf, relative_error


@pytest.fixture(scope="module")
def lab_lin():
    model = HybridModel()
    return linearize(model, settle_limit_cycle(model))


# Away from w = +/-sqrt(200) modulo the pump, where the undamped periodic
# steady state is not unique.
UNDAMPED_GRID = np.array([0.3, 0.9, 2.5, 3.3, 6.0, 8.5, 10.0, 12.0, 17.0])


@pytest.mark.parametrize("convention", ["input", "output"])
def test_undamped_is_the_spring_frf(lab_lin, convention):
    # c = 0 makes both charts equal, so the system is LTI:
    # G_0 = 1/(k - m w^2) and every other harmonic vanishes.
    lin = replace(lab_lin, A_on=lab_lin.A_off.copy())
    g = exact_htf(lin, UNDAMPED_GRID, range(-3, 4), convention)
    frf = 1.0 / (200.0 - UNDAMPED_GRID**2)
    np.testing.assert_allclose(g[0], frf, rtol=1e-10, atol=0.0)
    scale = np.max(np.abs(frf))
    for n in (-3, -2, -1, 1, 2, 3):
        assert np.max(np.abs(g[n])) < 1e-12 * scale


def test_undamped_with_mass_and_stiffness(lab_lin):
    m, k = 2.0, 50.0
    A = np.array([[0.0, 1.0], [-k / m, 0.0]])
    lin = replace(lab_lin, A_on=A, A_off=A.copy(), B=np.array([[0.0], [1.0 / m]]))
    w = np.array([0.5, 1.7, 3.9, 7.5])
    g = exact_htf(lin, w, [0], "input")
    np.testing.assert_allclose(g[0], 1.0 / (k - m * w**2), rtol=1e-10, atol=0.0)


def test_output_convention_shifts_the_input_frequency(lab_lin):
    w_p = 2.0 * math.pi / lab_lin.T
    w = np.array([1.0, 5.0, 9.0])
    out = exact_htf(lab_lin, w, [-2, 1], "output")
    for n in (-2, 1):
        shifted = exact_htf(lab_lin, w - n * w_p, [n], "input")[n]
        np.testing.assert_allclose(out[n], shifted, rtol=1e-12, atol=0.0)


def test_conjugate_symmetry(lab_lin):
    w = np.array([0.7, 4.0, 11.0])
    pos = exact_htf(lab_lin, w, range(-2, 3))
    neg = exact_htf(lab_lin, -w, range(-2, 3))
    for n in range(-2, 3):
        np.testing.assert_allclose(neg[-n], np.conj(pos[n]), rtol=1e-10, atol=1e-16)


def test_hss_converges_to_the_exact_htf(lab_lin):
    grid = np.linspace(0.5, 44.0, 24)
    exact = exact_htf(lab_lin, grid, range(-3, 4))
    errors = []
    for n_h in (3, 10, 20):
        hss = eval_htf(build_hss(fourier_series(lab_lin, n_h)), grid, n_keep=3)
        errors.append(relative_error(exact, hss.harmonics))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 2e-5
