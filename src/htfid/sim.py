"""Fixed-step integration of the hybrid oscillator and orbit extraction.

The integrator is a classical fourth-order Runge-Kutta scheme on a
uniform grid.  Whenever the switching threshold changes sign inside a
step, the crossing is localized by bisection (to 1e-10 s) and the step
is split there, so every partial step stays on a single chart and the
scheme keeps its order between events.  Everything is deterministic:
same inputs, bit-identical outputs.
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
from .model import HybridModel, chart_accel

#: Width (seconds) to which a threshold crossing is localized.
EVENT_TOL = 1e-10
#: Bisection iteration cap before giving up on an event.
EVENT_MAX_ITER = 100
#: Default periodicity tolerance per state component.
SETTLE_TOL = 1e-6
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
    which the damper engages (upward velocity crossing), `duty` the
    fraction of the period it stays engaged, and `residual` the
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
    def _splines(self):
        # Imported here: only the chirp experiments need the orbit between
        # samples, and scipy.interpolate is slow to import.
        from scipy.interpolate import CubicSpline

        phases = np.arange(self.n_samples + 1) * self.dt
        wrap = lambda a: np.concatenate([a, a[:1]])
        return (
            CubicSpline(phases, wrap(self.x), bc_type="periodic"),
            CubicSpline(phases, wrap(self.xdot), bc_type="periodic"),
        )

    def state_at(self, phase):
        """Orbit state (x_bar, xdot_bar) at arbitrary clock phase.

        Periodic cubic interpolation of the stored samples; exact at the
        sample phases.  Accepts scalars or arrays.
        """
        sx, sv = self._splines
        ph = np.mod(phase, self.T)
        return sx(ph), sv(ph)

    @property
    def amplitude(self) -> float:
        """Half the peak-to-peak excursion of x over the period."""
        return 0.5 * (float(np.max(self.x)) - float(np.min(self.x)))


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
    steps at a time, at the RK4 stage times ``t = t0 + i*dt``,
    ``t + 0.5*dt`` and ``t + dt`` of every step; only the steps split at
    a threshold crossing evaluate them at other times.
    """
    if dt <= 0.0 or duration <= 0.0:
        raise InvalidInputError("dt and duration must be positive")
    n_steps = int(round(duration / dt))
    if abs(n_steps * dt - duration) > 1e-9 * max(1.0, abs(duration)):
        raise InvalidInputError(f"dt={dt} does not divide duration={duration}")
    if len(x_init) != 2 or not all(math.isfinite(float(s)) for s in x_init):
        raise InvalidInputError("initial state must be a finite (x, xdot) pair")

    thr = model.threshold
    forcing = model.params.forcing
    accel = chart_accel(model)

    def inputs(times):
        # Forcing and input at an array of times, as two float arrays.
        values = np.zeros_like(times) if u is None else np.asarray(u(times), dtype=float)
        if values.shape != times.shape:
            raise InvalidInputError(
                f"u returned shape {values.shape} for times of shape {times.shape}"
            )
        return forcing(times), values

    def rk4(x, v, h, f0, u0, fh, uh, fe, ue):
        k1x = v
        k1v = accel(x, v, f0, u0)
        k2x = v + 0.5 * h * k1v
        k2v = accel(x + 0.5 * h * k1x, k2x, fh, uh)
        k3x = v + 0.5 * h * k2v
        k3v = accel(x + 0.5 * h * k2x, k3x, fh, uh)
        k4x = v + h * k3v
        k4v = accel(x + h * k3x, k4x, fe, ue)
        return (
            x + h / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x),
            v + h / 6.0 * (k1v + 2.0 * (k2v + k3v) + k4v),
        )

    def sub_step(t, x, v, h):
        # An RK4 step of any length h from t, off the tabulated grid.
        f, uu = inputs(np.array([t, t + 0.5 * h, t + h]))
        (f0, fh, fe), (u0, uh, ue) = f.tolist(), uu.tolist()
        return rk4(x, v, h, f0, u0, fh, uh, fe, ue)

    def locate_crossing(t, x, v, h):
        # First sign change of the threshold along the step, assuming the
        # endpoint signs differ.  Returns the sub-step length to land just
        # past the crossing.
        side0 = thr(x, v) > 0.0
        lo, hi = 0.0, h
        for _ in range(EVENT_MAX_ITER):
            if hi - lo < EVENT_TOL:
                return hi
            mid = 0.5 * (lo + hi)
            xm, vm = sub_step(t, x, v, mid)
            if (thr(xm, vm) > 0.0) == side0:
                lo = mid
            else:
                hi = mid
        raise EventLocalizationError(
            f"threshold crossing near t={t} not localized in {EVENT_MAX_ITER} bisections"
        )

    def advance(t, x, v, h):
        # One step with event splitting, for the grid steps whose unsplit
        # step changes the sign of the threshold.
        for _ in range(16):
            x2, v2 = sub_step(t, x, v, h)
            if (thr(x2, v2) > 0.0) == (thr(x, v) > 0.0) or h <= EVENT_TOL:
                return x2, v2
            h_ev = locate_crossing(t, x, v, h)
            x, v = sub_step(t, x, v, h_ev)
            t += h_ev
            h -= h_ev
            if h <= 0.0:
                return x, v
        raise EventLocalizationError(f"more than 16 threshold crossings inside one step at t={t}")

    xs = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1)
    us = np.empty(n_steps + 1)
    charts = np.empty(n_steps + 1, dtype=np.uint8)

    x, v = float(x_init[0]), float(x_init[1])
    for i0 in range(0, n_steps + 1, _CHUNK_STEPS):
        i1 = min(i0 + _CHUNK_STEPS, n_steps + 1)
        t = t0 + np.arange(i0, i1) * dt
        f, uu = inputs(np.stack([t, t + 0.5 * dt, t + dt]))
        us[i0:i1] = uu[0]
        ts = t.tolist()
        (f0s, fhs, fes), (u0s, uhs, ues) = f.tolist(), uu.tolist()
        x_chunk, v_chunk, on_chunk = [], [], []
        for j in range(i1 - i0):
            on = thr(x, v) > 0.0
            x_chunk.append(x)
            v_chunk.append(v)
            on_chunk.append(on)
            if i0 + j == n_steps:
                break
            x2, v2 = rk4(x, v, dt, f0s[j], u0s[j], fhs[j], uhs[j], fes[j], ues[j])
            if (thr(x2, v2) > 0.0) != on:
                x2, v2 = advance(ts[j], x, v, dt)
            x, v = x2, v2
            if not (math.isfinite(x) and math.isfinite(v)):
                raise DivergenceError(f"non-finite state at t={ts[j] + dt}")
        xs[i0:i1] = x_chunk
        vs[i0:i1] = v_chunk
        charts[i0:i1] = on_chunk

    return Trajectory(dt=dt, t0=t0, x=xs, xdot=vs, u=us, chart=charts)


def _cyclic_crossings(xdot: np.ndarray, dt: float, T: float):
    """Linear-interpolated threshold crossing phases of a sampled period.

    Returns (upward, downward) lists of phases in [0, T); "upward" means
    the velocity turns positive (damper engages).
    """
    n = xdot.shape[0]
    pos = xdot > 0.0
    ups, downs = [], []
    for j in range(n):
        j2 = (j + 1) % n
        if pos[j] == pos[j2]:
            continue
        v0, v1 = xdot[j], xdot[j2]
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
    samples_per_period = int(round(T / dt))
    if abs(samples_per_period * dt - T) > 1e-9 * T:
        raise InvalidInputError(f"dt={dt} does not divide the forcing period T={T}")
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

    ups, downs = _cyclic_crossings(v_per, dt, T)
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
        raise ResamplingRequiredError(
            f"trajectory dt={traj.dt} differs from cycle dt={cycle.dt}"
        )
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
