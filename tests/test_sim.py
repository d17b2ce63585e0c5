"""Integrator order, conservation laws and settling."""

import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import htfid
from htfid import (
    AmbiguousSwitchingError,
    ChirpPlan,
    DivergenceError,
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
from htfid.model import chart_matrices
from htfid.sim import _CHUNK_STEPS, EVENT_TOL, _ChartRecurrence, locate_crossing


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_integrate_reports_divergence():
    # dt = 0.5 s is far outside RK4's stability region at omega = sqrt(200);
    # numpy warns of the overflow on the way to the typed error.
    with pytest.raises(DivergenceError):
        integrate(HybridModel(), (0.17, 0.0), None, 500.0, 0.5)


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


def test_settle_always_engaged_threshold_has_no_crossings():
    # The velocity changes sign twice a period, the threshold never.
    model = HybridModel(threshold=lambda x, v: 1.0)
    with pytest.raises(AmbiguousSwitchingError, match="0 threshold crossings"):
        settle_limit_cycle(model, n_cycles=30, dt=1e-3)


def test_settle_crossings_follow_the_threshold():
    # A damper engaged on the downstroke: t_hat is where -xdot turns
    # positive, and [t_hat, t_hat + duty*T) is the engaged window.
    model = HybridModel(threshold=lambda x, v: -v)
    cycle = settle_limit_cycle(model, n_cycles=30, dt=1e-3)
    phases = cycle.dt * np.arange(cycle.n_samples)
    window = np.mod(phases - cycle.t_hat, cycle.T) < cycle.duty * cycle.T
    engaged = model.engaged(cycle.x, cycle.xdot)
    far = np.ones(cycle.n_samples, dtype=bool)
    for switch in (cycle.t_hat, cycle.t_hat + cycle.duty * cycle.T):
        lag = np.mod(phases - switch, cycle.T)
        far &= np.minimum(lag, cycle.T - lag) > cycle.dt
    assert np.count_nonzero(far) >= cycle.n_samples - 4
    assert np.array_equal(window[far], engaged[far])


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


def test_orbit_spline_matches_scipy_periodic_spline(lab_cycle):
    from scipy.interpolate import CubicSpline

    n, dt, T = lab_cycle.n_samples, lab_cycle.dt, lab_cycle.T
    knots = np.arange(n + 1) * dt
    phases = (np.arange(10_000) + 0.5) * (T / 10_000)
    x, xdot = lab_cycle.state_at(phases)
    for got, samples in ((x, lab_cycle.x), (xdot, lab_cycle.xdot)):
        want = CubicSpline(knots, np.append(samples, samples[0]), bc_type="periodic")(phases)
        amplitude = 0.5 * (samples.max() - samples.min())
        assert np.max(np.abs(got - want)) <= 1e-14 * amplitude
    x, xdot = lab_cycle.state_at(knots[:-1])
    assert np.array_equal(x, lab_cycle.x) and np.array_equal(xdot, lab_cycle.xdot)


def test_chirp_records_leave_out_scipy_interpolate_and_optimize():
    src = os.path.dirname(os.path.dirname(htfid.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from htfid import ChirpPlan, HybridModel, run_experiments, settle_limit_cycle\n"
        "model = HybridModel()\n"
        "cycle = settle_limit_cycle(model)\n"
        "run_experiments(model, cycle, ChirpPlan(segment_duration=2.0, n_segments=2))\n"
        "print([m for m in ('scipy.interpolate', 'scipy.optimize') if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_chart_flags_alternate(lab_model, lab_cycle):
    tr = integrate(lab_model, lab_cycle.state_at(0.0), None, 3.0, lab_cycle.dt)
    flags = tr.chart
    assert set(np.unique(flags)) == {0.0, 1.0}
    # two engage/release events per forcing period
    switches = int(np.sum(np.abs(np.diff(flags)) > 0))
    assert switches == 6


def scalar_integrate(model, x_init, u, duration, dt, t0=0.0, real=float):
    """Reference RK4 with event splitting, one step at a time, in `real` arithmetic.

    A transcription of the scheme `integrate` implements: the same stage
    times in float64 (grid step i at ``t0 + j*(dt/2)`` for j = 2i, 2i+1,
    2i+2; a split sub-step of length h from t at ``t``, ``t + h/2``,
    ``t + h``), each stage on the chart of its own state, and a step whose
    endpoint changes the sign of the threshold split at the crossings
    `locate_crossing` finds, at most 16 times.  F + u is evaluated in float64 at those times through the same
    numpy functions and then converted, so with ``real=np.longdouble`` this
    is an oracle for the integrator's rounding alone.  Also counts the steps
    whose stages leave the chart while the endpoint does not ("mixed") and
    the crossings split ("splits").
    """
    p, thr = model.params, model.threshold
    m, k, c, x0, g = (real(value) for value in (p.m, p.k, p.c, p.x0, p.g))
    u_fn = u if u is not None else (lambda t: np.zeros_like(t))
    stats = {"mixed": 0, "splits": 0}

    def on(x, v):
        return bool(thr(x, v) > 0.0)

    def accel(x, v, drive):
        a = -m * g - k * (x - x0) + drive
        if on(x, v):
            a -= c * v
        return a / m

    def sub_times(t, h):
        return np.array([t, t + 0.5 * h, t + h])

    def rk4(times, x, v, h):
        f0, fh, fe = (real(value) for value in p.forcing(times) + u_fn(times))
        h = real(h)
        k1x = v
        k1v = accel(x, v, f0)
        k2x = v + 0.5 * h * k1v
        k2v = accel(x + 0.5 * h * k1x, k2x, fh)
        k3x = v + 0.5 * h * k2v
        k3v = accel(x + 0.5 * h * k2x, k3x, fh)
        k4x = v + h * k3v
        k4v = accel(x + h * k3x, k4x, fe)
        stages = [(x + 0.5 * h * k1x, k2x), (x + 0.5 * h * k2x, k3x), (x + h * k3x, k4x)]
        end = (
            x + h / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x),
            v + h / 6.0 * (k1v + 2.0 * (k2v + k3v) + k4v),
        )
        if on(*end) == on(x, v) and any(on(*s) != on(x, v) for s in stages):
            stats["mixed"] += 1
        return end

    def advance(times, x, v, h):
        end = rk4(times, x, v, h)
        t = times[0]
        for _ in range(16):
            if on(*end) == on(x, v) or h <= EVENT_TOL:
                return end
            stats["splits"] += 1

            def probe(s):
                reached = rk4(sub_times(t, s), x, v, s)
                return thr(*reached), reached

            h_ev, (x, v) = locate_crossing(probe, h, thr(x, v), thr(*end), end)
            t += h_ev
            h -= h_ev
            if h <= 0.0:
                return x, v
            end = rk4(sub_times(t, h), x, v, h)
        raise AssertionError("more than 16 crossings in one step")

    n_steps = int(round(duration / dt))
    xs, vs, charts = [], [], []
    x, v = real(x_init[0]), real(x_init[1])
    for i in range(n_steps + 1):
        xs.append(x)
        vs.append(v)
        charts.append(1 if on(x, v) else 0)
        if i < n_steps:
            x, v = advance(t0 + np.arange(2 * i, 2 * i + 3) * (0.5 * dt), x, v, dt)
    u_grid = u_fn(t0 + np.arange(n_steps + 1) * dt)
    return np.array(xs), np.array(vs), u_grid, np.array(charts), stats


def assert_matches_long_double_oracle(model, x_init, u, duration, dt, t0=0.0):
    """`integrate` against `scalar_integrate` in long double arithmetic.

    The integrator's largest error in x and in xdot must stay within twice
    that of the float64 `scalar_integrate`, and below 2e-15 and 5e-14.
    Returns the oracle's step statistics.
    """
    tr = integrate(model, x_init, u, duration, dt, t0=t0)
    x_o, v_o, u_o, chart_o, stats = scalar_integrate(
        model, x_init, u, duration, dt, t0=t0, real=np.longdouble
    )
    x_r, v_r, _, _, _ = scalar_integrate(model, x_init, u, duration, dt, t0=t0)
    assert np.array_equal(tr.chart, chart_o)
    assert np.array_equal(tr.u, u_o)
    for got, ref, oracle, ceiling in ((tr.x, x_r, x_o, 2e-15), (tr.xdot, v_r, v_o, 5e-14)):
        err = float(np.max(np.abs(got - oracle)))
        ref_err = float(np.max(np.abs(ref - oracle)))
        assert err <= 2.0 * ref_err and err <= ceiling, (err, ref_err)
    return stats


def test_integrate_matches_scalar_reference_chirp(lab_model, lab_cycle):
    # 3 s of the experiment's chirp from on the orbit: three periods of
    # event-split steps, and more than one table chunk at dt/2.
    plan = ChirpPlan()
    u = lambda t: chirp_value(plan, np.remainder(t - 0.3, plan.segment_duration))
    stats = assert_matches_long_double_oracle(
        lab_model, lab_cycle.state_at(0.3), u, 3.0, lab_cycle.dt / 2.0, t0=0.3
    )
    assert stats["splits"] >= 6


def test_integrate_matches_scalar_reference_without_input(lab_model):
    assert_matches_long_double_oracle(lab_model, (0.17, 0.05), None, 3.0, 1e-3)


def test_integrate_matches_scalar_reference_always_engaged():
    model = HybridModel(threshold=lambda x, v: 1.0)
    u = lambda t: 0.01 * np.sin(5.0 * t)
    assert_matches_long_double_oracle(model, (0.17, 0.05), u, 3.0, 1e-3)


def test_integrate_grazing_threshold_takes_mixed_and_split_steps():
    # A position threshold just below the free oscillation's peak: the
    # first peak sits mid-step, so only the half-step stage rises above
    # the threshold (a mixed step); later peaks straddle grid points and
    # split steps at both crossings.
    p = ModelParams(forcing_amplitude=0.0)
    a, dt = 0.01, 0.01
    theta = 0.5 * math.sqrt(p.k / p.m) * dt
    level = p.equilibrium + a * math.cos(0.5 * theta)
    model = HybridModel(p, threshold=lambda x, v: x - level)
    x_init = (p.equilibrium + a * math.cos(theta), a * math.sqrt(p.k / p.m) * math.sin(theta))
    stats = assert_matches_long_double_oracle(model, x_init, None, 3.0, dt)
    assert stats["mixed"] >= 1
    assert stats["splits"] >= 2


def test_particular_scan_matches_long_double_recurrence():
    # Chunk lengths with no scan pass, a partial last pass and a full
    # chunk, against RK4 stage by stage in long double on each chart,
    # driven by the experiment's forcing plus chirp on the half-step grid.
    p, dt, ld = ModelParams(), 1e-3, np.longdouble
    t = np.arange(2 * _CHUNK_STEPS + 1) * (0.5 * dt)
    g = p.forcing(t) + chirp_value(ChirpPlan(), t)
    A_off, A_on, B = chart_matrices(p.m, p.k, p.c)
    for A in (A_off, A_on):
        A_ld, b_ld, h = A.astype(ld), B[:, 0].astype(ld), ld(dt)
        e = np.zeros(2, dtype=ld)
        oracle = [e]
        for i in range(_CHUNK_STEPS):
            g0, gh, g1 = (ld(value) for value in g[2 * i : 2 * i + 3])
            k1 = A_ld @ e + b_ld * g0
            k2 = A_ld @ (e + h / 2 * k1) + b_ld * gh
            k3 = A_ld @ (e + h / 2 * k2) + b_ld * gh
            k4 = A_ld @ (e + h * k3) + b_ld * g1
            e = e + h / 6 * (k1 + 2 * (k2 + k3) + k4)
            oracle.append(e)
        oracle = np.array(oracle).T
        run = _ChartRecurrence(A, B[:, 0], dt, _CHUNK_STEPS)
        for n in (1, 2, 3, _CHUNK_STEPS - 1, _CHUNK_STEPS):
            particular, stage_drive = run.tabulate(g[: 2 * n + 1])
            assert particular.shape == (2, n + 1) and stage_drive.shape == (6, n)
            err = np.abs(particular - oracle[:, : n + 1]).max(axis=1)
            assert err[0] <= 2e-15 and err[1] <= 5e-14, (n, err)


def test_boolean_threshold_localizes_crossings(lab_model, lab_cycle):
    # A True/False threshold gives regula falsi no slope to work with; the
    # bisection safeguard still localizes every crossing.
    boolean = HybridModel(lab_model.params, threshold=lambda x, v: v > 0.0)
    x_init = lab_cycle.state_at(0.0)
    a = integrate(lab_model, x_init, None, 3.0, lab_cycle.dt)
    b = integrate(boolean, x_init, None, 3.0, lab_cycle.dt)
    assert np.array_equal(a.chart, b.chart)
    assert np.max(np.abs(a.x - b.x)) < 1e-12
    assert np.max(np.abs(a.xdot - b.xdot)) < 1e-12


def test_integrate_rejects_threshold_of_wrong_shape():
    model = HybridModel(threshold=lambda x, v: np.zeros(3))
    with pytest.raises(InvalidInputError):
        integrate(model, (0.17, 0.0), None, 1.0, 1e-3)


def test_integrate_rejects_input_of_wrong_shape(lab_model):
    with pytest.raises(InvalidInputError):
        integrate(lab_model, (0.17, 0.0), lambda t: 0.0, 1.0, 1e-3)


def test_integrate_signature_has_duration_and_dt():
    # The benchmark's trace hook binds these two arguments to count steps.
    params = inspect.signature(integrate).parameters
    assert "duration" in params and "dt" in params
