"""Integrator order, conservation laws and settling."""

import inspect
import math
import re
import warnings

import numpy as np
import pytest

from htfid import (
    AmbiguousSwitchingError,
    ChirpPlan,
    DivergenceError,
    EventLocalizationError,
    ExperimentRecord,
    HybridModel,
    InvalidInputError,
    ModelParams,
    NotSettledError,
    ResamplingRequiredError,
    Trajectory,
    chirp_value,
    clock_phases,
    LimitCycle,
    error_trajectory,
    integrate,
    run_experiments,
    settle_limit_cycle,
    spectra,
)
from htfid.errors import MAX_COUNT
from htfid.model import chart_matrices, steps_in
from htfid.sim import _CHUNK_STEPS, EVENT_TOL, _ChartRecurrence

from helpers import fresh_python, locate_crossing, refuses


def engaged(model, states):
    """Whether the damper is engaged at each of the samples of `states`."""
    return model.switching(states.x, states.xdot) > 0.0


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
    assert np.array_equal(engaged(model, a), engaged(model, b))


@pytest.mark.filterwarnings("error")
def test_integrate_reports_divergence():
    # dt = 0.5 s is far outside RK4's stability region at omega = sqrt(200);
    # the overflow on the way to the typed error raises no numpy warning.
    with pytest.raises(DivergenceError):
        integrate(HybridModel(), (0.17, 0.0), None, 500.0, 0.5)
    # From 1.3e307 the velocity overflows from about 0.097 s to 0.126 s,
    # inside one chart run whose last state, at 0.15 s, is finite again:
    # the window's recurrence steps over the overflow from its start state.
    with pytest.raises(DivergenceError, match="member 0 "):
        integrate(HybridModel(), (1.3e307, -1.0), None, 0.15, 1e-3)


def test_integrate_passes_on_the_input_s_warnings():
    # the integrator quiets only its own overflow: one inside u still warns
    def u(tau):
        np.multiply(np.full(tau.shape, 1e308), 10.0)
        return np.zeros(tau.shape)

    with pytest.warns(RuntimeWarning, match="overflow"):
        integrate(HybridModel(), (0.17, 0.0), u, 0.1, 1e-3)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        integrate(HybridModel(), (0.17, 0.0), u, 0.1, 1e-3)


def test_integrate_validation():
    model = HybridModel()
    with pytest.raises(InvalidInputError):
        integrate(model, (0.2, float("nan")), None, 1.0, 1e-3)
    with pytest.raises(InvalidInputError):
        integrate(model, (0.2, 0.0), None, 1.0, -1e-3)
    # a fractional skip used to escape as numpy's TypeError
    with pytest.raises(InvalidInputError, match="skip"):
        integrate(model, (0.2, 0.0), None, 1.0, 1e-3, skip=1.5)


def test_settle_study_cycle(lab_cycle):
    assert lab_cycle.T == 1.0
    assert lab_cycle.n_crossings == 2
    assert max(lab_cycle.residual) < 1e-6
    assert lab_cycle.amplitude == pytest.approx(6.188e-3, rel=1e-3)
    # mean height sits below the static equilibrium: the one-way damper
    # saps energy only on the way up
    assert lab_cycle.x.mean() < 0.2 - 9.81 / 200.0


@pytest.mark.parametrize("excess, refused", [(2.5e-10, False), (7.5e-10, True)])
# the records run off a stand-in orbit, so their deviation is not small
@pytest.mark.filterwarnings("ignore::htfid.errors.PerturbationSizeWarning")
def test_every_span_takes_one_divisibility_rule(excess, refused):
    # 500 steps that overrun a 0.5 s span by `excess`: under 1 s, a bound
    # of 1e-9 s and one of 1e-9 of the span tell these two cases apart
    span = 0.5
    dt = (span + excess) / 500
    model = HybridModel(ModelParams(forcing_freq=1.0 / span))
    plan = ChirpPlan(segment_duration=span, n_segments=1)
    zeros = np.zeros(500)
    cycle = LimitCycle(
        T=span, dt=dt, x=zeros, xdot=zeros, t_hat=0.0, duty=0.5, residual=(0.0, 0.0), n_crossings=2
    )
    sites = [
        lambda: steps_in(span, dt),
        lambda: integrate(model, (0.17, 0.0), None, span, dt),
        lambda: settle_limit_cycle(model, n_cycles=2, dt=dt, tol=1.0),  # passes any residual here
        lambda: run_experiments(model, cycle, plan),
    ]
    assert [refuses(site) for site in sites] == [refused] * len(sites)


@pytest.mark.parametrize("span, dt", [(1e308, 1e-3), (1.0, 1e-300), (2.0**63, 1e-3)])
def test_steps_in_refuses_a_count_no_array_can_index(span, dt):
    # Each once passed, to end in an OverflowError (int of inf) or in
    # numpy's ValueError when the samples were allocated.
    assert MAX_COUNT == np.iinfo(np.intp).max
    with pytest.raises(InvalidInputError, match="more than an array can index"):
        steps_in(span, dt)


def test_runs_of_more_steps_than_an_array_can_index_are_refused(lab_model, lab_cycle):
    # Refused before any array is allocated: by the step count, or by the
    # count of cycles or warm-up plays itself.
    sites = [
        lambda: integrate(lab_model, (0.17, 0.0), None, 2.0**63, 1e-3),
        lambda: settle_limit_cycle(lab_model, n_cycles=2**62),
        lambda: settle_limit_cycle(lab_model, n_cycles=2**63),
        lambda: run_experiments(lab_model, lab_cycle, ChirpPlan(warmup_periods=2**62)),
        lambda: ChirpPlan(warmup_periods=2**63),
    ]
    for site in sites:
        with pytest.raises(InvalidInputError):
            site()


def test_settle_requires_two_cycles(lab_model):
    with pytest.raises(InvalidInputError):
        settle_limit_cycle(lab_model, n_cycles=1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": math.nan},  # `res > nan` is False: nothing would be checked
        {"tol": -1.0},  # a bad argument, not an orbit that failed to settle
        {"tol": 0.0},
        {"tol": math.inf},
        {"n_cycles": 2.5},  # would integrate 2.5 cycles
        {"n_cycles": True},
    ],
    ids=["tol-nan", "tol-negative", "tol-zero", "tol-inf", "n-cycles-fraction", "n-cycles-bool"],
)
def test_settle_refuses_bad_arguments(lab_model, kwargs):
    with pytest.raises(InvalidInputError, match="tol|n_cycles"):
        settle_limit_cycle(lab_model, **{"n_cycles": 2, **kwargs})


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
    on = engaged(model, cycle)
    far = np.ones(cycle.n_samples, dtype=bool)
    for switch in (cycle.t_hat, cycle.t_hat + cycle.duty * cycle.T):
        lag = np.mod(phases - switch, cycle.T)
        far &= np.minimum(lag, cycle.T - lag) > cycle.dt
    assert np.count_nonzero(far) >= cycle.n_samples - 4
    assert np.array_equal(window[far], on[far])


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
    code = (
        "import sys\n"
        "from htfid import ChirpPlan, HybridModel, run_experiments, settle_limit_cycle\n"
        "model = HybridModel()\n"
        "cycle = settle_limit_cycle(model)\n"
        "run_experiments(model, cycle, ChirpPlan(segment_duration=2.0, n_segments=2))\n"
        "print([m for m in ('scipy.interpolate', 'scipy.optimize') if m in sys.modules])\n"
    )
    assert fresh_python(code) == "[]"


def test_chart_flags_alternate(lab_model, lab_cycle):
    tr = integrate(lab_model, lab_cycle.state_at(0.0), None, 3.0, lab_cycle.dt)
    flags = engaged(lab_model, tr)
    assert set(np.unique(flags)) == {0.0, 1.0}
    # two engage/release events per forcing period
    switches = int(np.sum(np.abs(np.diff(flags)) > 0))
    assert switches == 6


def scalar_integrate(model, x_init, u, duration, dt, t0=0.0, real=float):
    """Reference RK4 with event splitting, one step at a time, in `real` arithmetic.

    A transcription of the scheme `integrate` implements: the same stage
    times in float64, as elapsed times tau since t0 (grid step i at
    ``j*(dt/2)`` for j = 2i, 2i+1, 2i+2; a split sub-step of length h from
    tau at ``tau``, ``tau + h/2``, ``tau + h``), each stage on the chart of
    its own state, and a step whose endpoint changes the sign of the
    threshold split at the crossings `locate_crossing` finds, at most 16
    times.  F at ``t0 + tau`` and u at tau are evaluated in float64 through
    the same numpy functions and then converted, so with
    ``real=np.longdouble`` this is an oracle for the integrator's rounding
    alone.  Also counts the steps
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

    def sub_times(tau, h):
        return np.array([tau, tau + 0.5 * h, tau + h])

    def rk4(times, x, v, h):
        f0, fh, fe = (real(value) for value in p.forcing(t0 + times) + u_fn(times))
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
        tau = times[0]
        for _ in range(16):
            if on(*end) == on(x, v) or h <= EVENT_TOL:
                return end
            stats["splits"] += 1

            def probe(s):
                reached = rk4(sub_times(tau, s), x, v, s)
                return thr(*reached), reached

            h_ev, (x, v) = locate_crossing(probe, h, thr(x, v), thr(*end), end)
            tau += h_ev
            h -= h_ev
            if h <= 0.0:
                return x, v
            end = rk4(sub_times(tau, h), x, v, h)
        raise AssertionError("more than 16 crossings in one step")

    n_steps = int(round(duration / dt))
    xs, vs, charts = [], [], []
    x, v = real(x_init[0]), real(x_init[1])
    for i in range(n_steps + 1):
        xs.append(x)
        vs.append(v)
        charts.append(1 if on(x, v) else 0)
        if i < n_steps:
            x, v = advance(np.arange(2 * i, 2 * i + 3) * (0.5 * dt), x, v, dt)
    u_grid = u_fn(np.arange(n_steps + 1) * dt)
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
    assert np.array_equal(engaged(model, tr), chart_o)
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
    u = lambda tau: chirp_value(plan, np.remainder(tau, plan.segment_duration))
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
            particular = run.tabulate(g[: 2 * n + 1])
            assert particular.shape == (2, n + 1)
            err = np.abs(particular - oracle[:, : n + 1]).max(axis=1)
            assert err[0] <= 2e-15 and err[1] <= 5e-14, (n, err)


def test_boolean_threshold_localizes_crossings(lab_model, lab_cycle):
    # A True/False threshold gives regula falsi no slope to work with; the
    # bisection safeguard still localizes every crossing.
    boolean = HybridModel(lab_model.params, threshold=lambda x, v: v > 0.0)
    x_init = lab_cycle.state_at(0.0)
    a = integrate(lab_model, x_init, None, 3.0, lab_cycle.dt)
    b = integrate(boolean, x_init, None, 3.0, lab_cycle.dt)
    assert np.array_equal(engaged(lab_model, a), engaged(boolean, b))
    assert np.max(np.abs(a.x - b.x)) < 1e-12
    assert np.max(np.abs(a.xdot - b.xdot)) < 1e-12


def test_integrate_rejects_threshold_of_wrong_shape():
    model = HybridModel(threshold=lambda x, v: np.zeros(3))
    with pytest.raises(InvalidInputError):
        integrate(model, (0.17, 0.0), None, 1.0, 1e-3)


def test_integrate_rejects_input_of_wrong_shape(lab_model):
    with pytest.raises(InvalidInputError):
        integrate(lab_model, (0.17, 0.0), lambda t: 0.0, 1.0, 1e-3)
    # nor values that are not real numbers: a complex input once ran with
    # its imaginary part dropped, under a ComplexWarning
    for u in (lambda t: np.exp(1j * t), lambda t: t + 0j, lambda t: t > 0.5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="not real numbers"):
                integrate(lab_model, (0.17, 0.0), u, 1.0, 1e-3)


def test_integrate_signature_has_duration_and_dt():
    # The benchmark's trace hook binds these two arguments to count steps.
    params = inspect.signature(integrate).parameters
    assert "duration" in params and "dt" in params


def chirp_batch(cycle, plan):
    """Start states, start times and shared input of a plan's records' runs."""
    phases = clock_phases(plan, cycle.T)
    x_init = np.stack(cycle.state_at(phases), axis=1)
    u = lambda tau: chirp_value(plan, np.remainder(tau, plan.segment_duration))
    return x_init, phases, u


def test_batch_equals_its_members_one_at_a_time(lab_model, lab_cycle):
    # The nine records' whole runs, warm-up play included, in lockstep and
    # one by one: elementwise arithmetic gives the same bits either way.
    plan = ChirpPlan()
    x_init, phases, u = chirp_batch(lab_cycle, plan)
    duration = 2 * plan.segment_duration
    batch = integrate(lab_model, x_init, u, duration, lab_cycle.dt, t0=phases)
    assert batch.x.shape == (9, 60_001) and np.array_equal(batch.t0, phases)
    for k, phase in enumerate(phases):
        alone = integrate(lab_model, x_init[k], u, duration, lab_cycle.dt, t0=phase)
        for field in ("x", "xdot", "u"):
            assert np.array_equal(getattr(batch, field)[k], getattr(alone, field)), (k, field)


def test_batch_keeps_the_samples_after_skip(lab_model, lab_cycle):
    x_init, phases, u = chirp_batch(lab_cycle, ChirpPlan(n_segments=3))
    whole = integrate(lab_model, x_init, u, 3.0, lab_cycle.dt, t0=phases)
    tail = integrate(lab_model, x_init, u, 3.0, lab_cycle.dt, t0=phases, skip=1234)
    for field in ("x", "xdot", "u"):
        assert np.array_equal(getattr(whole, field)[:, 1234:], getattr(tail, field))
    assert np.array_equal(tail.t0, phases + 1234 * lab_cycle.dt)


def test_position_only_runs_serve_every_consumer(lab_model, lab_cycle):
    # `velocity=False` stores the same positions and no velocity, and every
    # consumer of a trajectory or a record takes such a run: the orbit's
    # subtraction, the deviation trajectory and the spectra.
    x_init, phases, u = chirp_batch(lab_cycle, ChirpPlan(n_segments=3))
    run = lambda x0, **kwargs: integrate(lab_model, x0, u, 3.0, lab_cycle.dt, **kwargs)
    whole = run(x_init, t0=phases, skip=1234)
    lean = run(x_init, t0=phases, skip=1234, velocity=False)
    assert lean.xdot is None and lean.x.shape == whole.x.shape
    assert np.array_equal(lean.x, whole.x) and np.array_equal(lean.u, whole.u)
    assert np.array_equal(lean.t0, whole.t0)
    alone = run(x_init[1], t0=phases[1], velocity=False)
    assert alone.xdot is None and np.array_equal(alone.x[1234:], whole.x[1])
    dev, lean_dev = error_trajectory(whole, lab_cycle), error_trajectory(lean, lab_cycle)
    assert lean_dev.xdot is None and np.array_equal(lean_dev.x, dev.x)
    x = lean.x.copy()
    lab_cycle.subtract(x, None, lean.t0)
    assert np.array_equal(x, dev.x)

    def records(d, velocities):
        return [
            ExperimentRecord(k, t0 % lab_cycle.T, Trajectory(d.dt, t0, d.x[k], v, d.u[k]))
            for k, (t0, v) in enumerate(zip(d.t0.tolist(), velocities))
        ]

    both = spectra(records(dev, dev.xdot)), spectra(records(lean_dev, [None] * 3))
    for full, positions in zip(*both):
        assert np.array_equal(full.Y, positions.Y) and np.array_equal(full.U, positions.U)


@pytest.mark.parametrize(
    "start, part",
    [((1.5e307, -1.0), "trips"), ((-1.5e307, 1.0), "trips"), ((0.15, 1e307), "due_steps")],
    ids=["chart-run", "damped-run", "scalar-step"],
)
@pytest.mark.filterwarnings("error")
def test_batch_names_the_member_that_diverges(lab_model, lab_cycle, start, part):
    # Only member 2 starts far enough out to overflow.  Displaced by
    # 1.5e307, its velocity overflows a sixth of a period later, inside a
    # run of the lossless chart; displaced the other way and moving up,
    # inside a run of the damped chart; kicked to 1e307, its spring force
    # overflows in the scalar step that reverses it.  The error names
    # member 2 and the time that member 2 reports alone.
    phases = np.arange(4) / 4.0
    x_init = np.stack(lab_cycle.state_at(phases), axis=1)
    u = lambda tau: 0.004 * np.sin(3.0 * tau)
    dt = lab_cycle.dt
    # from the orbit the same batch runs through
    assert np.isfinite(integrate(lab_model, x_init, u, 3.0, dt, t0=phases).x).all()
    x_init[2] = start
    with pytest.raises(DivergenceError, match="member 2 ") as caught:
        integrate(lab_model, x_init, u, 3.0, dt, t0=phases)
    assert caught.traceback[-1].name == part
    with pytest.raises(DivergenceError, match="member 0 ") as alone:
        integrate(lab_model, x_init[2], u, 3.0, dt, t0=phases[2])
    batch_t, alone_t = (float(re.search(r"t=(\S+)", str(e.value)).group(1)) for e in (caught, alone))
    assert batch_t == alone_t and phases[2] < batch_t < phases[2] + 0.25


def test_batch_refuses_input_of_the_wrong_shape(lab_model, lab_cycle):
    x_init = np.stack(lab_cycle.state_at(np.arange(3) / 3.0), axis=1)
    for u in (lambda t: np.sin(t[0]), lambda t: np.sin(np.arange(3)[:, None] * t)):
        with pytest.raises(InvalidInputError, match="u returned shape"):
            integrate(lab_model, x_init, u, 1.0, 1e-3, t0=np.arange(3) / 3.0)
    with pytest.raises(InvalidInputError):
        integrate(lab_model, x_init, None, 1.0, 1e-3, t0=np.arange(2) / 3.0)
    with pytest.raises(InvalidInputError):
        integrate(lab_model, x_init, None, 1.0, 1e-3, skip=1001)


def test_tiled_phases_match_long_double_phases(lab_cycle):
    # Each record's capture, samples skip .. skip + n - 1 of a run that
    # starts at its clock phase, against t0 + dt*i mod T in long double.
    ld, dt, T = np.longdouble, lab_cycle.dt, lab_cycle.T
    phases = clock_phases(ChirpPlan(), T)
    skip, n = 30_000, 30_000
    tiled = lab_cycle.grid_phases(phases, skip, n)
    i = np.arange(skip, skip + n, dtype=ld)
    exact = np.mod(phases.astype(ld)[:, None] + ld(dt) * i, ld(T))
    off = np.abs(tiled.astype(ld) - exact)
    off = np.minimum(off, ld(T) - off)  # a phase just below T against one just above 0
    assert float(off.max()) <= 2e-15


def test_tiled_subtraction_moves_records_by_rounding(lab_cycle, lab_records, lab_record_velocities):
    # Against the orbit evaluated at np.mod(t0 + dt*i, T) on the whole
    # run's grid, one spline evaluation per sample.  The records hold
    # positions only; their batch run with velocities has the same ones.
    dt, skip, n = lab_cycle.dt, 30_000, 30_000
    for rec, x, xdot in zip(lab_records, *lab_record_velocities):
        assert np.array_equal(rec.traj.x, x)
        start = rec.clock_phase  # the capture starts a whole number of periods after t0
        tiled = np.zeros(n), np.zeros(n)
        lab_cycle.subtract(*tiled, start, skip)  # leaves minus the orbit
        direct = lab_cycle.state_at(np.mod(start + dt * np.arange(skip, skip + n), lab_cycle.T))
        for got, want, xi in zip(tiled, direct, (x, xdot)):
            rms = float(np.sqrt(np.mean(xi**2)))
            assert float(np.max(np.abs(got + want))) <= 1e-11 * rms


def test_subtract_is_the_orbit_at_grid_phases_in_place(lab_cycle):
    # One start per row, a nonzero first sample and two and a half
    # periods of columns: bit for bit the orbit at `grid_phases`,
    # subtracted from the given view only.
    rng = np.random.default_rng(7)
    t0 = np.array([0.0, 0.3, 0.71])
    first, n = 1234, 5 * lab_cycle.n_samples // 2
    x, xdot = rng.standard_normal((2, 3, n + 1))
    before = x.copy(), xdot.copy(), t0.copy(), lab_cycle.x.copy(), lab_cycle.xdot.copy()
    x_bar, v_bar = lab_cycle.state_at(lab_cycle.grid_phases(t0, first, n))
    lab_cycle.subtract(x[:, :n], xdot[:, :n], t0, first)
    assert np.array_equal(x[:, :n], before[0][:, :n] - x_bar)
    assert np.array_equal(xdot[:, :n], before[1][:, :n] - v_bar)
    assert np.array_equal(x[:, n], before[0][:, n]) and np.array_equal(xdot[:, n], before[1][:, n])
    for got, want in zip((t0, lab_cycle.x, lab_cycle.xdot), before[2:]):
        assert np.array_equal(got, want)


def test_batch_names_the_member_whose_crossing_is_not_localized(monkeypatch):
    # Without forcing, members 0 and 2 rest at the equilibrium and never
    # cross the threshold (the velocity); member 1 is kicked and reverses
    # after about a quarter period.  With one regula falsi iteration
    # allowed, localizing that crossing fails, and the error names member
    # 1 and the start of the step it reverses in.
    model = HybridModel(ModelParams(forcing_amplitude=0.0))
    x_eq = model.params.equilibrium
    x_init = np.array([[x_eq, 0.0], [x_eq, 0.1], [x_eq, 0.0]])
    alone = integrate(model, x_init[1], None, 1.0, 1e-3)
    reversal = int(np.argmax(alone.xdot[1:] < 0.0))
    monkeypatch.setattr("htfid.sim.EVENT_MAX_ITER", 1)
    with pytest.raises(EventLocalizationError, match="member 1, step from t=") as caught:
        integrate(model, x_init, None, 1.0, 1e-3)
    reported = float(re.search(r"t=(\S+):", str(caught.value)).group(1))
    assert reported == pytest.approx(reversal * 1e-3, abs=1e-12)


def test_batch_calls_u_once_per_chunk_on_one_elapsed_grid(lab_cycle):
    # The always-engaged damper never leaves its chart, so no split step
    # calls u off the grid: one call per chunk, on the chunk's elapsed
    # times j*dt/2, whatever the members' starts.
    model = HybridModel(threshold=lambda x, v: 1.0)
    phases = np.arange(3) / 3.0
    x_init = np.stack(lab_cycle.state_at(phases), axis=1)
    calls = []

    def u(tau):
        calls.append(tau.copy())
        return 0.004 * np.sin(3.0 * tau)

    dt, n_steps = lab_cycle.dt, 10_000
    integrate(model, x_init, u, n_steps * lab_cycle.dt, dt, t0=phases)
    assert len(calls) == math.ceil((n_steps + 1) / _CHUNK_STEPS)
    for c, tau in enumerate(calls):
        c0, c1 = c * _CHUNK_STEPS, min((c + 1) * _CHUNK_STEPS, n_steps + 1)
        assert np.array_equal(tau, np.arange(2 * c0, 2 * c1 + 1) * (0.5 * dt))


def test_forcing_column_at_t0_zero_is_the_forcing(lab_cycle):
    # At t0 = 0 the weights are exactly (1, 0), so a lone member without
    # input is driven by `ModelParams.forcing` itself: the same run with
    # the forcing moved into u, and none left in the model, takes the
    # same bits.
    p = ModelParams()
    tau = np.arange(2 * _CHUNK_STEPS + 1) * 5e-4
    (cos_w, sin_w), (f_cos, f_sin) = p.forcing_weights(0.0), p.forcing_columns(tau)
    assert (cos_w, sin_w) == (1.0, 0.0)
    assert np.array_equal(cos_w * f_cos - sin_w * f_sin, p.forcing(tau))
    x_init = lab_cycle.state_at(0.0)
    forced = integrate(HybridModel(p), x_init, None, 3.0, lab_cycle.dt)
    unforced = HybridModel(ModelParams(forcing_amplitude=0.0))
    moved = integrate(unforced, x_init, p.forcing, 3.0, lab_cycle.dt)
    for field in ("x", "xdot"):
        assert np.array_equal(getattr(forced, field), getattr(moved, field)), field


def test_angle_addition_forcing_is_as_accurate_as_direct_cosine():
    # At t = t0 + tau up to 60 s, against cos(w*t) in long double at the
    # exact times, with the model's own float64 w: the weighted columns are
    # no further off than the cosine of the rounded sum t0 + tau.
    p, ld = ModelParams(), np.longdouble
    t0 = clock_phases(ChirpPlan(), p.period)
    tau = 60.0 - np.arange(2001) * 5e-4
    cos_w, sin_w = p.forcing_weights(t0)
    f_cos, f_sin = p.forcing_columns(tau)
    added = cos_w[:, None] * f_cos - sin_w[:, None] * f_sin
    direct = p.forcing(t0[:, None] + tau)
    exact_t = t0.astype(ld)[:, None] + tau.astype(ld)
    exact = ld(p.forcing_amplitude) * np.cos(ld(2.0 * math.pi * p.forcing_freq) * exact_t)
    added_err = float(np.max(np.abs(added - exact)))
    direct_err = float(np.max(np.abs(direct - exact)))
    assert added_err <= direct_err, (added_err, direct_err)


def test_split_rounds_evaluate_u_for_the_pending_members_only():
    # Members 0 and 2 rest at the equilibrium and never cross the
    # threshold (the velocity); member 1 is kicked and splits a step at
    # each reversal.  Off the chunk grid, u is called only at the two
    # stage times of member 1's sub-step in each round.
    model = HybridModel(ModelParams(forcing_amplitude=0.0))
    x_eq = model.params.equilibrium
    x_init = np.array([[x_eq, 0.0], [x_eq, 0.1], [x_eq, 0.0]])
    sizes = []

    def u(tau):
        sizes.append(tau.size)
        return np.zeros_like(tau)

    batch = integrate(model, x_init, u, 1.0, 1e-3)
    off_grid = sizes[1:]  # the first call is the one chunk's grid
    assert off_grid and set(off_grid) == {2}
    alone = integrate(model, x_init[1], u, 1.0, 1e-3)
    assert np.array_equal(batch.x[1], alone.x) and np.array_equal(batch.xdot[1], alone.xdot)


@pytest.mark.parametrize("shared", [None, "chirp"])
def test_batch_stores_a_shared_input_once(lab_model, lab_cycle, shared):
    # No input, or one every member plays, is kept as one row and handed
    # out as a read-only broadcast of it.
    plan = ChirpPlan(n_segments=3)
    x_init, phases, u = chirp_batch(lab_cycle, plan)
    u = u if shared else None
    batch = integrate(lab_model, x_init, u, 3.0, lab_cycle.dt, t0=phases)
    assert batch.u.shape == batch.x.shape and batch.u.strides[0] == 0
    assert not batch.u.flags.writeable
    alone = integrate(lab_model, x_init[1], u, 3.0, lab_cycle.dt, t0=phases[1])
    assert np.array_equal(batch.u[2], alone.u) and alone.u.flags.writeable


def test_records_share_one_input_row(lab_records):
    # The nine records play one chirp, held once.
    first = lab_records[0].u
    assert all(np.shares_memory(rec.u, first) for rec in lab_records)
    assert not any(rec.u.flags.writeable for rec in lab_records)
