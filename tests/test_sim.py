"""Integrator order, conservation laws and settling."""

import inspect
import math

import numpy as np
import pytest

from htfid import (
    ChirpPlan,
    HybridModel,
    InvalidInputError,
    ModelParams,
    NotSettledError,
    ResamplingRequiredError,
    chirp_value,
    error_trajectory,
    integrate,
    settle_limit_cycle,
)
from htfid.sim import EVENT_MAX_ITER, EVENT_TOL


def total_energy(p, x, v):
    return 0.5 * p.m * v**2 + 0.5 * p.k * (x - p.x0) ** 2 + p.m * p.g * x


def test_energy_conservation_lossless():
    # c=0 and no forcing: the oscillator is Hamiltonian and RK4 should
    # hold the energy to well below the 1e-6 relative budget over 10 s.
    p = ModelParams(c=0.0, forcing_amplitude=0.0)
    tr = integrate(HybridModel(p), (0.25, 0.0), None, 10.0, 1e-3)
    energy = total_energy(p, tr.x, tr.xdot)
    drift = np.max(np.abs(energy - energy[0])) / abs(energy[0])
    assert drift < 1e-6


def test_damped_closed_form():
    # Pin the threshold high so the damper never releases; the model is
    # then an ordinary damped oscillator with a known solution.
    p = ModelParams(forcing_amplitude=0.0)
    model = HybridModel(p, threshold=lambda x, v: 1.0)
    a = 0.05
    x_eq = p.x0 - (p.m * p.g) / p.k  # rest point with the damper inactive force-wise
    tr = integrate(model, (x_eq + a, 0.0), None, 5.0, 1e-3)
    t = tr.times()
    zeta = p.c / (2.0 * p.m)
    w_d = math.sqrt(p.k / p.m - zeta**2)
    closed = x_eq + np.exp(-zeta * t) * (
        a * np.cos(w_d * t) + (zeta * a / w_d) * np.sin(w_d * t)
    )
    assert np.max(np.abs(tr.x - closed)) < 1e-6


def test_rk4_order():
    model = HybridModel()
    ref = integrate(model, (0.17, 0.05), None, 2.0, 1e-3 / 8.0)

    def end_err(dt):
        tr = integrate(model, (0.17, 0.05), None, 2.0, dt)
        return abs(tr.x[-1] - ref.x[-1])

    e1, e2, e3 = end_err(4e-3), end_err(2e-3), end_err(1e-3)
    # fourth order would give 16x per halving; allow a generous window
    assert 8.0 < e1 / e2 < 32.0
    assert 8.0 < e2 / e3 < 32.0


def test_integrate_is_deterministic():
    model = HybridModel()
    a = integrate(model, (0.18, 0.0), lambda t: np.sin(3.0 * t), 2.0, 1e-3)
    b = integrate(model, (0.18, 0.0), lambda t: np.sin(3.0 * t), 2.0, 1e-3)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.xdot, b.xdot)
    assert np.array_equal(a.chart, b.chart)


def test_integrate_validation():
    model = HybridModel()
    with pytest.raises(InvalidInputError):
        integrate(model, (0.2, float("nan")), None, 1.0, 1e-3)
    with pytest.raises(InvalidInputError):
        integrate(model, (0.2, 0.0), None, 1.0, -1e-3)


def test_settle_study_cycle(lab_cycle):
    assert lab_cycle.T == 1.0
    assert lab_cycle.n_crossings == 2
    assert max(lab_cycle.residual) < 1e-6
    assert lab_cycle.amplitude == pytest.approx(6.188e-3, rel=1e-3)
    # mean height sits below the static equilibrium: the one-way damper
    # saps energy only on the way up
    assert lab_cycle.x.mean() < 0.2 - 9.81 / 200.0


def test_settle_requires_two_cycles(lab_model):
    with pytest.raises(InvalidInputError):
        settle_limit_cycle(lab_model, n_cycles=1)


def test_settle_requires_dt_dividing_period(lab_model):
    with pytest.raises(InvalidInputError):
        settle_limit_cycle(lab_model, n_cycles=5, dt=3.3e-4)


def test_settle_reports_unsettled(lab_model):
    with pytest.raises(NotSettledError):
        settle_limit_cycle(lab_model, n_cycles=2, dt=1e-3, tol=1e-6)


def test_settle_independent_of_initial_condition(lab_model, lab_cycle):
    other = settle_limit_cycle(
        lab_model, x_init=(lab_cycle.x[0] + 0.05, 0.3)
    )
    assert np.max(np.abs(other.x - lab_cycle.x)) < 1e-5
    assert np.max(np.abs(other.xdot - lab_cycle.xdot)) < 1e-5


def test_settle_restart_on_cycle(lab_model, lab_cycle):
    again = settle_limit_cycle(
        lab_model, n_cycles=2, x_init=lab_cycle.state_at(0.0)
    )
    assert max(again.residual) < 1e-6


def test_impulse_deviation_decays(lab_model, lab_cycle):
    x0, v0 = lab_cycle.state_at(0.0)
    tr = integrate(lab_model, (x0, v0 + 1e-3), None, 10.0, lab_cycle.dt)
    dev = error_trajectory(tr, lab_cycle)
    per_period = [
        np.max(np.abs(dev.x[i * 1000 : (i + 1) * 1000])) for i in range(10)
    ]
    assert per_period[-1] < 0.05 * per_period[0]


def test_error_trajectory_on_orbit_is_zero(lab_model, lab_cycle):
    tr = integrate(lab_model, lab_cycle.state_at(0.0), None, 3.0, lab_cycle.dt)
    dev = error_trajectory(tr, lab_cycle)
    assert np.max(np.abs(dev.x)) < 1e-6
    assert np.array_equal(dev.u, np.zeros_like(dev.u))


def test_error_trajectory_rejects_dt_mismatch(lab_model, lab_cycle):
    tr = integrate(lab_model, lab_cycle.state_at(0.0), None, 1.0, 2e-3)
    with pytest.raises(ResamplingRequiredError):
        error_trajectory(tr, lab_cycle)


def test_chart_flags_alternate(lab_model, lab_cycle):
    tr = integrate(lab_model, lab_cycle.state_at(0.0), None, 3.0, lab_cycle.dt)
    flags = tr.chart
    assert set(np.unique(flags)) == {0.0, 1.0}
    # two engage/release events per forcing period
    switches = int(np.sum(np.abs(np.diff(flags)) > 0))
    assert switches == 6


def scalar_integrate(model, x_init, u, duration, dt, t0=0.0):
    """Reference RK4 with event splitting, one forcing/input call per stage.

    A transcription of the integrator as it was before the forcing and the
    input were tabulated: the same stage times, bisection and 16-split cap.
    F and u are evaluated one Python float at a time through the same numpy
    functions the integrator uses, so only the RK4 and event logic differ.
    """
    p, thr = model.params, model.threshold
    u_fn = u if u is not None else (lambda t: 0.0)

    def accel(t, x, v):
        f = -p.m * p.g - p.k * (x - p.x0) + p.forcing(t) + u_fn(t)
        if thr(x, v) > 0.0:
            f -= p.c * v
        return f / p.m

    def rk4(t, x, v, h):
        k1x = v
        k1v = accel(t, x, v)
        th = t + 0.5 * h
        k2x = v + 0.5 * h * k1v
        k2v = accel(th, x + 0.5 * h * k1x, k2x)
        k3x = v + 0.5 * h * k2v
        k3v = accel(th, x + 0.5 * h * k2x, k3x)
        k4x = v + h * k3v
        k4v = accel(t + h, x + h * k3x, k4x)
        return (
            x + h / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x),
            v + h / 6.0 * (k1v + 2.0 * (k2v + k3v) + k4v),
        )

    def locate_crossing(t, x, v, h):
        side0 = thr(x, v) > 0.0
        lo, hi = 0.0, h
        for _ in range(EVENT_MAX_ITER):
            if hi - lo < EVENT_TOL:
                return hi
            mid = 0.5 * (lo + hi)
            xm, vm = rk4(t, x, v, mid)
            if (thr(xm, vm) > 0.0) == side0:
                lo = mid
            else:
                hi = mid
        raise AssertionError("crossing not localized")

    def advance(t, x, v, h):
        for _ in range(16):
            x2, v2 = rk4(t, x, v, h)
            if (thr(x2, v2) > 0.0) == (thr(x, v) > 0.0) or h <= EVENT_TOL:
                return x2, v2
            h_ev = locate_crossing(t, x, v, h)
            x, v = rk4(t, x, v, h_ev)
            t += h_ev
            h -= h_ev
            if h <= 0.0:
                return x, v
        raise AssertionError("more than 16 crossings in one step")

    n_steps = int(round(duration / dt))
    xs, vs, us, charts = [], [], [], []
    x, v = float(x_init[0]), float(x_init[1])
    for i in range(n_steps + 1):
        t = t0 + i * dt
        xs.append(x)
        vs.append(v)
        us.append(u_fn(t))
        charts.append(1 if thr(x, v) > 0.0 else 0)
        if i == n_steps:
            break
        x, v = advance(t, x, v, dt)
    return np.array(xs), np.array(vs), np.array(us, dtype=float), np.array(charts)


def assert_matches_scalar_reference(model, x_init, u, duration, dt, t0=0.0):
    tr = integrate(model, x_init, u, duration, dt, t0=t0)
    ref = scalar_integrate(model, x_init, u, duration, dt, t0=t0)
    for name, want in zip(("x", "xdot", "u", "chart"), ref):
        assert np.array_equal(getattr(tr, name), want), name
    return tr


def test_integrate_matches_scalar_reference_chirp(lab_model, lab_cycle):
    # 3 s of the experiment's chirp from on the orbit: three periods of
    # event-split steps, and more than one 4096-step table chunk at dt/2.
    plan = ChirpPlan()
    u = lambda t: chirp_value(plan, np.remainder(t - 0.3, plan.segment_duration))
    tr = assert_matches_scalar_reference(
        lab_model, lab_cycle.state_at(0.3), u, 3.0, lab_cycle.dt / 2.0, t0=0.3
    )
    assert int(np.sum(np.diff(tr.chart.astype(int)) != 0)) >= 6


def test_integrate_matches_scalar_reference_without_input(lab_model):
    assert_matches_scalar_reference(lab_model, (0.17, 0.05), None, 3.0, 1e-3)


def test_integrate_matches_scalar_reference_always_engaged():
    model = HybridModel(threshold=lambda x, v: 1.0)
    u = lambda t: 0.01 * np.sin(5.0 * t)
    assert_matches_scalar_reference(model, (0.17, 0.05), u, 3.0, 1e-3)


def test_integrate_rejects_input_of_wrong_shape(lab_model):
    with pytest.raises(InvalidInputError):
        integrate(lab_model, (0.17, 0.0), lambda t: 0.0, 1.0, 1e-3)


def test_integrate_signature_has_duration_and_dt():
    # The benchmark's trace hook binds these two arguments to count steps.
    params = inspect.signature(integrate).parameters
    assert "duration" in params and "dt" in params
