"""Chart matrices, parameter validation, and the switched linearization."""

import numpy as np
import pytest

from htfid import (
    AmbiguousSwitchingError,
    HybridModel,
    InvalidInputError,
    LimitCycle,
    ModelParams,
    linearize,
)
from htfid.model import chart_matrices


def chart_rhs(p, engaged, x, v, drive):
    """d/dt (x, xdot) from `chart_matrices` at an absolute state."""
    A_off, A_on, B = chart_matrices(p.m, p.k, p.c)
    A = A_on if engaged else A_off
    return A @ [x - p.equilibrium, v] + B[:, 0] * drive


def docstring_rhs(p, engaged, x, v, drive):
    """The model docstring's ODE, m*xddot = -m*g - c*xdot - k*(x - x0) + F + u."""
    damper = p.c * v if engaged else 0.0
    return np.array([v, (-p.m * p.g - damper - p.k * (x - p.x0) + drive) / p.m])


def test_chart_damper_engaged():
    p = ModelParams()
    # -g - c*v - k*(x - x0) + cos(0) = -9.81 - 2 + 0 + 1
    rhs = chart_rhs(p, True, 0.2, 1.0, p.forcing(0.0))
    assert rhs == pytest.approx([1.0, -10.81], abs=1e-12)


def test_chart_damper_released():
    p = ModelParams()
    # damper off on the downstroke: -9.81 - 0 + 0 + 1
    rhs = chart_rhs(p, False, 0.2, -1.0, p.forcing(0.0))
    assert rhs == pytest.approx([-1.0, -8.81], abs=1e-12)


def test_chart_equilibrium_balance():
    p = ModelParams()
    x_eq = p.x0 - p.g * p.m / p.k
    # quarter period: the cosine forcing passes through zero there
    for engaged in (False, True):
        assert np.max(np.abs(chart_rhs(p, engaged, x_eq, 0.0, p.forcing(0.25)))) < 1e-12


@pytest.mark.parametrize("engaged", [False, True])
def test_chart_matrices_state_the_docstring_ode(engaged):
    p = ModelParams(m=1.7, k=230.0, c=3.1, g=9.0, x0=0.35, forcing_amplitude=0.8)
    for x, v, t, u in [(0.2, 1.0, 0.0, 0.0), (0.31, -0.4, 0.3, 0.02), (0.4, 2.5, 0.8, -0.1)]:
        drive = p.forcing(t) + u
        expected = docstring_rhs(p, engaged, x, v, drive)
        assert chart_rhs(p, engaged, x, v, drive) == pytest.approx(expected, rel=1e-12)


def test_chart_zero_velocity_is_lossless():
    # c enters the engaged chart's damping entry only, so at the
    # switching boundary (zero velocity) its value cannot matter.
    light, heavy = chart_matrices(1.0, 200.0, 0.0), chart_matrices(1.0, 200.0, 1e6)
    assert np.array_equal(light[0], heavy[0]) and np.array_equal(light[2], heavy[2])
    changed = light[1] != heavy[1]
    assert changed[1, 1] and np.count_nonzero(changed) == 1
    assert np.array_equal(light[1] @ [0.3, 0.0], heavy[1] @ [0.3, 0.0])


def test_params_validation():
    with pytest.raises(InvalidInputError):
        ModelParams(m=0.0)
    with pytest.raises(InvalidInputError):
        ModelParams(k=-5.0)
    with pytest.raises(InvalidInputError):
        ModelParams(c=-1.0)
    with pytest.raises(InvalidInputError):
        ModelParams(forcing_freq=0.0)


def test_params_dict_roundtrip():
    p = ModelParams(k=150.0, c=0.5)
    q = ModelParams.from_dict(p.to_dict())
    assert q == p
    with pytest.raises(InvalidInputError):
        ModelParams.from_dict({"k": 200.0, "stiffness": 1.0})


def test_params_derived_quantities():
    p = ModelParams()
    assert p.period == 1.0
    assert p.equilibrium == pytest.approx(0.2 - 9.81 / 200.0, abs=1e-15)
    assert p.forcing(0.0) == 1.0
    assert p.forcing(0.25) == pytest.approx(0.0, abs=1e-15)


def test_linearize_matrices(lab_lin):
    assert np.array_equal(lab_lin.A_on, [[0.0, 1.0], [-200.0, -2.0]])
    assert np.array_equal(lab_lin.A_off, [[0.0, 1.0], [-200.0, 0.0]])
    assert np.array_equal(lab_lin.B, [[0.0], [1.0]])
    assert np.array_equal(lab_lin.C, [[1.0, 0.0]])
    assert float(lab_lin.D) == 0.0


def test_linearize_switching_geometry(lab_lin):
    # Reported orbit geometry for the study configuration.
    assert lab_lin.T == 1.0
    assert lab_lin.t_hat == pytest.approx(0.498059, abs=5e-6)
    assert lab_lin.duty == pytest.approx(0.512503, abs=5e-6)


def test_linearize_matrices_ignore_gravity_and_offset(lab_cycle):
    # g and x0 shift the orbit but never enter the deviation dynamics.
    other = HybridModel(ModelParams(g=5.0, x0=0.35))
    lin = linearize(other, lab_cycle)
    assert np.array_equal(lin.A_on, [[0.0, 1.0], [-200.0, -2.0]])
    assert np.array_equal(lin.A_off, [[0.0, 1.0], [-200.0, 0.0]])


def test_linearize_undamped_charts_coincide(lab_cycle):
    lin = linearize(HybridModel(ModelParams(c=0.0)), lab_cycle)
    assert np.array_equal(lin.A_on, lin.A_off)


def test_linearize_rejects_multi_crossing_cycle(lab_model, lab_cycle):
    fake = LimitCycle(
        T=lab_cycle.T,
        dt=lab_cycle.dt,
        x=lab_cycle.x,
        xdot=lab_cycle.xdot,
        t_hat=lab_cycle.t_hat,
        duty=lab_cycle.duty,
        residual=lab_cycle.residual,
        n_crossings=4,
    )
    with pytest.raises(AmbiguousSwitchingError):
        linearize(lab_model, fake)


def test_duty_matches_velocity_sign_fraction(lab_cycle):
    # duty comes from the localized crossings; the sampled sign fraction
    # can only differ by the crossing quantization, ~dt/T per crossing.
    frac = float(np.mean(lab_cycle.xdot > 0.0))
    assert abs(lab_cycle.duty - frac) < 1.5 * lab_cycle.dt / lab_cycle.T
