"""Fixed-step integration of the hybrid oscillator and orbit extraction.

The integrator is a classical fourth-order Runge-Kutta scheme on a
uniform grid in which each stage takes the chart of its own state.  On
one chart the model is linear and time-invariant, so between switches
`integrate` advances chart runs: a window of steps at a time, as the
exact affine recurrence RK4 is on that chart (`_ChartRecurrence`, whose
particular solution is a log-depth prefix scan over a chunk of steps),
keeping every step up to the first one whose stage states or endpoint
leave the chart.  That step takes the scalar path: stage by stage, and,
when the threshold changes sign, split at the crossing, which
`locate_crossing` localizes to `EVENT_TOL` by safeguarded regula falsi,
so every partial step stays on a single chart and the scheme keeps its
order between events.  The test suite checks the result against the same
scheme run step by step in long double arithmetic.  Everything is
deterministic: same inputs, bit-identical outputs.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (
    AmbiguousSwitchingError,
    DivergenceError,
    EventLocalizationError,
    InvalidInputError,
    NotSettledError,
    ResamplingRequiredError,
)
from .model import HybridModel, chart_matrices, steps_in

#: Width (seconds) to which a threshold crossing is localized.
EVENT_TOL = 1e-10
#: Iteration cap for localizing one threshold crossing.
EVENT_MAX_ITER = 100
#: Default periodicity tolerance per state component.
SETTLE_TOL = 1e-6
#: Steps of one chart run that `integrate` advances in one numpy window.
_WINDOW_STEPS = 256
#: Grid steps whose forcing and input `integrate` tabulates at a time.
_CHUNK_STEPS = 4096


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution on a uniform time grid.

    `chart[i]` is 1 when the damper is engaged at sample i, 0 otherwise.
    """

    dt: float
    t0: float
    x: np.ndarray
    xdot: np.ndarray
    u: np.ndarray
    chart: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_samples)


@dataclass(frozen=True)
class LimitCycle:
    """One settled period of the forced response.

    Samples cover clock phases ``j*dt`` for ``j = 0 .. T/dt - 1``; the
    clock origin is the forcing cosine maximum.  `t_hat` is the phase at
    which the damper engages (the switching threshold turns positive),
    `duty` the fraction of the period it stays engaged, and `residual` the
    per-component peak difference between the last two integrated
    periods.
    """

    T: float
    dt: float
    x: np.ndarray
    xdot: np.ndarray
    t_hat: float
    duty: float
    residual: tuple
    n_crossings: int

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @cached_property
    def _spline(self):
        # Periodic cubic spline through the samples.  Its second derivatives
        # M solve M[j-1] + 4 M[j] + M[j+1] = 6 (y[j+1] - 2 y[j] + y[j-1]) / dt^2
        # around the period; the system is circulant, so the FFT solves it.
        # Returns the knots and, per component and interval j, the
        # coefficients of y[j] + d (c1 + d (c2 + d c3)), d = phase - knot[j].
        dt, n = self.dt, self.n_samples
        y = np.stack([self.x, self.xdot])
        y_next = np.roll(y, -1, axis=1)
        rhs = 6.0 / dt**2 * (y_next - 2.0 * y + np.roll(y, 1, axis=1))
        eigenvalues = 4.0 + 2.0 * np.cos(2.0 * math.pi * np.arange(n // 2 + 1) / n)
        M = np.fft.irfft(np.fft.rfft(rhs, axis=1) / eigenvalues, n, axis=1)
        M_next = np.roll(M, -1, axis=1)
        c1 = (y_next - y) / dt - dt * (2.0 * M + M_next) / 6.0
        c3 = (M_next - M) / (6.0 * dt)
        return np.arange(n + 1) * dt, np.stack([y, c1, 0.5 * M, c3], axis=1)

    def state_at(self, phase):
        """Orbit state (x_bar, xdot_bar) at arbitrary clock phase.

        Periodic cubic interpolation of the stored samples; exact at the
        sample phases.  Accepts scalars or arrays.
        """
        knots, coefficients = self._spline
        ph = np.mod(phase, self.T)
        j = np.clip(np.searchsorted(knots, ph, side="right") - 1, 0, self.n_samples - 1)
        d = ph - knots[j]
        c = np.take(coefficients, j, axis=2)
        x, xdot = c[:, 0] + d * (c[:, 1] + d * (c[:, 2] + d * c[:, 3]))
        return x, xdot

    @property
    def amplitude(self) -> float:
        """Half the peak-to-peak excursion of x over the period."""
        return 0.5 * (float(np.max(self.x)) - float(np.min(self.x)))


class _ChartRecurrence:
    """One chart's RK4 step as an affine recurrence.

    In offset coordinates ``e = (x - x_eq, xdot)`` a chart reads
    ``e' = A e + b g(t)`` with ``g = F + u`` (see `model.chart_matrices`),
    so an RK4 step of length h is exactly

        e[i+1] = P e[i] + q0 g(t_i) + qh g(t_i + h/2) + q1 g(t_i + h)

    with ``P = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24``.  Hence
    ``e[i+l] = P^l (e[i] - p[i]) + p[i+l]`` for the particular solution p
    of a chunk of steps (zero state at the chunk start), which `tabulate`
    builds as an inclusive prefix scan of the per-step drives (Hillis and
    Steele): after the pass of span s, each p[i] holds the drives of its
    last 2s steps, so ceil(log2 n) vectorised passes cover n steps.
    `powers` holds ``P^l`` for l up to `n_powers`, enough for both the
    windows of `integrate` and the scan's spans.  P, the q and the powers
    are formed in long double and rounded once.  `stages` and
    `stage_drive` give the three inner RK4 stage states of a step as the
    same kind of affine map of its start state; they only serve to check
    that a run stays on its chart.
    """

    def __init__(self, A, b, h, n_powers):
        ld = np.longdouble
        hA = ld(h) * A.astype(ld)
        hb = ld(h) * b.astype(ld)
        eye = np.eye(2, dtype=ld)
        hA2 = hA @ hA
        hA3 = hA2 @ hA
        P = eye + hA + hA2 / 2 + hA3 / 6 + hA3 @ hA / 24
        q = np.stack(
            [(eye + hA + hA2 / 2 + hA3 / 4) @ hb, (4 * eye + 2 * hA + hA2 / 2) @ hb, hb]
        ) / 6
        powers = np.empty((n_powers + 1, 2, 2), dtype=ld)
        powers[0] = eye
        known = 1
        while known < powers.shape[0]:
            # P^(known + l) = P^l P^known, doubling the table each pass.
            top = min(2 * known, powers.shape[0])
            powers[known:top] = powers[: top - known] @ (powers[known - 1] @ P)
            known = top
        #: P^l[r, c] at [r, l, c].
        self.powers = powers.transpose(1, 0, 2).astype(float)
        #: (q0, qh, q1) as the columns of a 2 x 3 matrix.
        self.q = q.T.astype(float)
        # Stage states s2, s3, s4 of a step from e with drives g0, gh:
        # rows (x2, v2, x3, v3, x4, v4) = stages @ e + stage_drive.T @ (g0, gh).
        half = 0.5 * h
        T2 = np.eye(2) + half * A
        T3 = np.eye(2) + half * A @ T2
        self.stages = np.concatenate([T2, T3, np.eye(2) + h * A @ T3])
        Ab = A @ b
        self.stage_drive = np.stack(
            [
                np.concatenate([half * b, half**2 * Ab, h * half**2 * A @ Ab]),
                np.concatenate([np.zeros(2), half * b, h * (half * Ab + b)]),
            ]
        )

    def tabulate(self, g):
        """Chunk tables for the drive g on the half-step grid, 2n + 1 points.

        Step i reads its stage drives at points 2i, 2i + 1 and 2i + 2.
        Returns the particular states p, shape (2, n + 1), and the drive
        part of the inner stage states, shape (6, n).
        """
        stage_g = np.stack([g[:-1:2], g[1::2], g[2::2]])
        n_steps = stage_g.shape[1]
        particular = np.zeros((2, n_steps + 1))
        particular[:, 1:] = self.q @ stage_g
        span = 1
        while span < n_steps:
            particular[:, span:] += self.powers[:, span] @ particular[:, :-span]
            span *= 2
        return particular, self.stage_drive.T @ stage_g[:2]


def locate_crossing(probe, h, value_lo, value_hi, landing):
    """A sign change of the threshold along one step of length h.

    ``probe(s)`` returns ``(value, payload)``: the threshold value at the
    state an RK4 sub-step of length s reaches, and whatever the caller
    needs of that sub-step.  `value_lo` and `value_hi` are the values at 0
    and h, on opposite sides of the threshold, and `landing` is the
    payload at h.  The crossing is bracketed by safeguarded Illinois
    regula falsi: a probe keeps a quarter of `EVENT_TOL` from the bracket
    ends, and a bisection follows whenever two probes have not halved the
    bracket.  Returns ``(s, payload)`` for the bracket end just past the
    crossing, once the bracket is narrower than `EVENT_TOL`.
    """
    side_lo = value_lo > 0.0
    lo, hi = 0.0, h
    width_2, width_1 = math.inf, math.inf  # bracket widths before the last two probes
    moved = None
    for _ in range(EVENT_MAX_ITER):
        width = hi - lo
        if width < EVENT_TOL:
            return hi, landing
        s = lo + width * float(value_lo / (value_lo - value_hi))
        s = min(max(s, lo + 0.25 * EVENT_TOL), hi - 0.25 * EVENT_TOL)
        if width > 0.5 * width_2 or not lo < s < hi:
            s = lo + 0.5 * width
        width_2, width_1 = width_1, width
        value, payload = probe(s)
        if (value > 0.0) == side_lo:
            lo, value_lo = s, value
            if moved == "lo":
                value_hi *= 0.5
            moved = "lo"
        else:
            hi, value_hi, landing = s, value, payload
            if moved == "hi":
                value_lo *= 0.5
            moved = "hi"
    raise EventLocalizationError(
        f"threshold crossing not localized in {EVENT_MAX_ITER} iterations"
    )


def integrate(
    model: HybridModel,
    x_init,
    u: Optional[Callable[[np.ndarray], np.ndarray]],
    duration: float,
    dt: float,
    t0: float = 0.0,
) -> Trajectory:
    """Integrate the hybrid model over [t0, t0 + duration].

    Parameters
    ----------
    model : HybridModel
    x_init : (x, xdot) initial state
    u : callable or None
        Extra input force as a function of absolute time.  It is called
        with an array of times and must return an array of the same
        shape; None means no input.
    duration, dt : float
        Total span and step; dt must divide duration.
    t0 : float
        Start time.  The forcing phase is referenced to absolute time,
        so trajectories started at different t0 see different clock
        phases.

    Returns
    -------
    Trajectory with ``round(duration/dt) + 1`` samples, chart flags set
    from the sign of the switching threshold at each sample.

    Notes
    -----
    The forcing and the input are tabulated with numpy, a chunk of grid
    steps at a time, once on the half-step grid ``t0 + j*(0.5*dt)``: step
    i takes its three RK4 stage times at j = 2i, 2i + 1 and 2i + 2, so the
    end of one step and the start of the next share one evaluation.
    Between switches the steps are advanced as chart runs (see
    `_ChartRecurrence`): the chunk's particular solution on the run's
    chart is one prefix scan, and from it follow up to `_WINDOW_STEPS`
    states at once from the run's current state, of which every step is
    kept up to the first one whose four stage states or endpoint leave
    the run's chart.  The state is carried as the offset from the static
    equilibrium, which keeps the rounding of the recurrence at the scale
    of the motion.  That step alone goes through the scalar path, where
    each RK4 stage takes the chart of its own state and a step that
    changes the sign of the threshold is split at the crossing
    (`locate_crossing`); the split steps evaluate the forcing and the
    input at their own times.
    """
    n_steps = steps_in(duration, dt)
    if len(x_init) != 2 or not all(math.isfinite(float(s)) for s in x_init):
        raise InvalidInputError("initial state must be a finite (x, xdot) pair")

    p = model.params
    forcing = p.forcing
    switching = model.switching
    x_eq = p.equilibrium
    A_off, A_on, B = chart_matrices(p.m, p.k, p.c)
    runs = [_ChartRecurrence(A, B[:, 0], dt, _CHUNK_STEPS) for A in (A_off, A_on)]
    # The velocity row of each chart, for the scalar path.
    stiffness, damping, gain = float(A_off[1, 0]), float(A_on[1, 1]), float(B[1, 0])

    def inputs(times):
        # Drive g = F + u and input u at an array of times.
        values = np.zeros_like(times) if u is None else np.asarray(u(times), dtype=float)
        if values.shape != times.shape:
            raise InvalidInputError(
                f"u returned shape {values.shape} for times of shape {times.shape}"
            )
        return forcing(times) + values, values

    def value(ex, v):
        # Threshold value at one state in offset coordinates.
        return float(switching(ex + x_eq, v))

    def accel(ex, v, g):
        # Acceleration at one state in offset coordinates, on its own chart.
        a = stiffness * ex + gain * g
        if value(ex, v) > 0.0:
            a += damping * v
        return a

    def rk4(ex, v, h, g0, gh, ge):
        # One RK4 step in offset coordinates, each stage on its own chart.
        k1v = accel(ex, v, g0)
        k2x = v + 0.5 * h * k1v
        k2v = accel(ex + 0.5 * h * v, k2x, gh)
        k3x = v + 0.5 * h * k2v
        k3v = accel(ex + 0.5 * h * k2x, k3x, gh)
        k4x = v + h * k3v
        k4v = accel(ex + h * k3x, k4x, ge)
        return (
            ex + h / 6.0 * (v + 2.0 * (k2x + k3x) + k4x),
            v + h / 6.0 * (k1v + 2.0 * (k2v + k3v) + k4v),
        )

    def sub_step(t, state, h, g0):
        # An RK4 step of any length h from t, off the tabulated grid, given
        # the drive g0 at t.  Returns the state and the drive at t + h.
        gh, ge = inputs(np.array([t + 0.5 * h, t + h]))[0].tolist()
        return rk4(*state, h, g0, gh, ge), ge

    def advance(t, state, h, g0, end, ge):
        # The step of length h from `state` at t, split at each threshold
        # crossing; `end` is where the unsplit step lands.
        for _ in range(16):
            value0, value1 = value(*state), value(*end)
            if (value1 > 0.0) == (value0 > 0.0) or h <= EVENT_TOL:
                return end

            def probe(s):
                reached, g_reached = sub_step(t, state, s, g0)
                return value(*reached), (reached, g_reached)

            h_ev, (state, g0) = locate_crossing(probe, h, value0, value1, (end, ge))
            t += h_ev
            h -= h_ev
            if h <= 0.0:
                return state
            end, ge = sub_step(t, state, h, g0)
        raise EventLocalizationError(f"more than 16 threshold crossings inside one step at t={t}")

    xs = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1)
    us = np.empty(n_steps + 1)

    ex, v = float(x_init[0]) - x_eq, float(x_init[1])
    xs[0], vs[0] = ex, v
    on = value(ex, v) > 0.0
    for c0 in range(0, n_steps + 1, _CHUNK_STEPS):
        c1 = min(c0 + _CHUNK_STEPS, n_steps + 1)
        t = t0 + np.arange(2 * c0, 2 * c1 + 1) * (0.5 * dt)
        drive, uu = inputs(t)
        us[c0:c1] = uu[: 2 * (c1 - c0) : 2]
        n_chunk = min(c1, n_steps) - c0
        drive = drive[: 2 * n_chunk + 1]
        tables = [None, None]
        n = c0
        while n < c0 + n_chunk:
            run = runs[on]
            if tables[on] is None:
                tables[on] = run.tabulate(drive)
            particular, stage_drive = tables[on]
            j = n - c0
            m = min(_WINDOW_STEPS, n_chunk - j)
            # States n .. n+m of the run, then the inner stage states of its
            # m steps, and whether any of them leaves the run's chart.
            offset = np.array([ex - particular[0, j], v - particular[1, j]])
            states = run.powers[:, : m + 1] @ offset
            states += particular[:, j : j + m + 1]
            points = np.empty((4, 2, m))
            points[0] = states[:, 1:]
            inner = points[1:].reshape(6, m)
            np.matmul(run.stages, states[:, :-1], out=inner)
            inner += stage_drive[:, j : j + m]
            leaves = (switching(points[:, 0] + x_eq, points[:, 1]) > 0.0) != on
            leaves = leaves.any(axis=0)
            kept = int(np.argmax(leaves)) if leaves.any() else m
            if kept:
                xs[n + 1 : n + kept + 1], vs[n + 1 : n + kept + 1] = states[:, 1 : kept + 1]
                n += kept
                ex, v = float(states[0, kept]), float(states[1, kept])
            if kept < m:
                # The step leaving the chart: stage by stage, split at a
                # crossing of the threshold.
                j = n - c0
                g0, gh, ge = drive[2 * j : 2 * j + 3].tolist()
                end = rk4(ex, v, dt, g0, gh, ge)
                if (value(*end) > 0.0) != on:
                    end = advance(t[2 * j], (ex, v), dt, g0, end, ge)
                ex, v = end
                on = value(ex, v) > 0.0
                n += 1
                xs[n], vs[n] = ex, v
            if not (math.isfinite(ex) and math.isfinite(v)):
                finite = np.isfinite(xs[: n + 1]) & np.isfinite(vs[: n + 1])
                raise DivergenceError(f"non-finite state at t={t0 + np.argmin(finite) * dt}")

    xs += x_eq
    charts = model.engaged(xs, vs).astype(np.uint8)
    return Trajectory(dt=dt, t0=t0, x=xs, xdot=vs, u=us, chart=charts)


def _cyclic_crossings(value: np.ndarray, dt: float, T: float):
    """Linear-interpolated threshold crossing phases of a sampled period.

    `value` holds the switching threshold at the samples.  Returns
    (upward, downward) lists of phases in [0, T); "upward" means the
    threshold turns positive (the damper engages).
    """
    n = value.shape[0]
    pos = value > 0.0
    ups, downs = [], []
    for j in range(n):
        j2 = (j + 1) % n
        if pos[j] == pos[j2]:
            continue
        v0, v1 = value[j], value[j2]
        frac = v0 / (v0 - v1) if v0 != v1 else 0.0
        phase = ((j + frac) * dt) % T
        (ups if pos[j2] else downs).append(phase)
    return ups, downs


def settle_limit_cycle(
    model: HybridModel,
    n_cycles: int = 30,
    dt: float = 1e-3,
    tol: float = SETTLE_TOL,
    x_init=None,
) -> LimitCycle:
    """Run the forced model until periodic and return the final period.

    Integrates `n_cycles` forcing periods with u = 0, starting from rest
    at the static equilibrium unless `x_init` is given, and takes the
    last period as the orbit.  The residual against the previous period
    must stay below `tol` in both components.

    Raises
    ------
    NotSettledError
        If the last two periods differ by more than `tol`.
    AmbiguousSwitchingError
        If the settled period does not show exactly two crossings.
    """
    if n_cycles < 2:
        raise InvalidInputError("need at least 2 cycles to measure periodicity")
    p = model.params
    T = p.period
    samples_per_period = steps_in(T, dt)
    if x_init is None:
        x_init = (p.equilibrium, 0.0)

    traj = integrate(model, x_init, None, n_cycles * T, dt)

    last = slice(traj.n_samples - samples_per_period - 1, traj.n_samples)
    prev = slice(traj.n_samples - 2 * samples_per_period - 1, traj.n_samples - samples_per_period)
    res_x = float(np.max(np.abs(traj.x[last] - traj.x[prev])))
    res_v = float(np.max(np.abs(traj.xdot[last] - traj.xdot[prev])))
    if res_x > tol or res_v > tol:
        raise NotSettledError(
            f"periodicity residual ({res_x:.3e}, {res_v:.3e}) exceeds tol={tol:.3e} "
            f"after {n_cycles} cycles"
        )

    start = traj.n_samples - 1 - samples_per_period
    x_per = traj.x[start : start + samples_per_period].copy()
    v_per = traj.xdot[start : start + samples_per_period].copy()
    # The slice starts at an integer multiple of T, so sample j sits at
    # clock phase j*dt.

    ups, downs = _cyclic_crossings(model.switching(x_per, v_per), dt, T)
    n_crossings = len(ups) + len(downs)
    if n_crossings != 2:
        raise AmbiguousSwitchingError(
            f"settled period has {n_crossings} threshold crossings, expected 2"
        )
    t_hat = ups[0]
    duty = ((downs[0] - ups[0]) % T) / T

    return LimitCycle(
        T=T,
        dt=dt,
        x=x_per,
        xdot=v_per,
        t_hat=t_hat,
        duty=duty,
        residual=(res_x, res_v),
        n_crossings=n_crossings,
    )


def error_trajectory(traj: Trajectory, cycle: LimitCycle) -> Trajectory:
    """Deviation of a trajectory from the periodic orbit.

    Subtracts the orbit at matching clock phase, ``xi(t) = state(t) -
    x_bar(t mod T)``, keeping the input and chart columns.  The
    trajectory must be sampled at the cycle's own dt; anything else
    would need resampling, which is refused.
    """
    if not math.isclose(traj.dt, cycle.dt, rel_tol=1e-12, abs_tol=0.0):
        raise ResamplingRequiredError(f"trajectory dt={traj.dt} differs from cycle dt={cycle.dt}")
    phases = np.mod(traj.t0 + traj.dt * np.arange(traj.n_samples), cycle.T)
    x_bar, v_bar = cycle.state_at(phases)
    return Trajectory(
        dt=traj.dt,
        t0=traj.t0,
        x=traj.x - x_bar,
        xdot=traj.xdot - v_bar,
        u=traj.u.copy(),
        chart=traj.chart.copy(),
    )
