"""Fixed-step integration of the hybrid oscillator and orbit extraction.

The integrator is a classical fourth-order Runge-Kutta scheme on a
uniform grid in which each stage takes the chart of its own state.  On
one chart the model is linear and time-invariant, so between switches
`integrate` advances chart runs by the exact affine recurrence RK4 is
on that chart (`_ChartRecurrence`, `_Lockstep.trips`).  A step whose
stage states or endpoint leave the chart takes the scalar path
(`_scalar_path`): stage by stage, and split at a threshold crossing,
which `_regula_falsi` localizes to `EVENT_TOL`, so every partial step
stays on a single chart and the scheme keeps its order between events.
The test suite checks the result against the same scheme run step by
step in long double arithmetic.  Everything is deterministic: same
inputs, bit-identical outputs.  A batch of S trajectories on one grid
with one input runs in lockstep (`_Lockstep`); a single (x, xdot) pair
is the batch of one.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AmbiguousSwitchingError,
    DivergenceError,
    EventLocalizationError,
    InvalidInputError,
    NotSettledError,
    ResamplingRequiredError,
    check_integer,
    check_real,
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
#: Windows by which `integrate` advances a member in one trip of its loop.
_TRIP_WINDOWS = 2
#: Grid steps whose forcing and input `integrate` tabulates at a time.
_CHUNK_STEPS = 4096


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution on a uniform time grid.

    A batch of S trajectories on one grid holds rows: `x`, `xdot` and
    `u` of shape (S, n) and one start time per row in `t0`.  Its members
    play one input, stored once: `u` is a read-only broadcast of that one
    row.  `xdot` is None when only positions were stored
    (``integrate(..., velocity=False)``).
    """

    dt: float
    t0: float
    x: np.ndarray
    xdot: Optional[np.ndarray]
    u: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.x.shape[-1]

    def times(self) -> np.ndarray:
        return np.asarray(self.t0)[..., None] + self.dt * np.arange(self.n_samples)


@dataclass(frozen=True)
class LimitCycle:
    """One settled period of the forced response.

    Samples cover clock phases ``j*dt`` for ``j = 0 .. T/dt - 1``; the
    clock origin is the forcing cosine maximum.  `t_hat` is the phase at
    which the damper engages (the switching threshold turns positive),
    `duty` the fraction of the period it stays on, and `residual` the
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

    def grid_phases(self, t0, first: int, n: int) -> np.ndarray:
        """Clock phases of samples first .. first + n - 1 of the grid t0 + i*dt.

        The grid steps by the cycle's own dt; t0 is a float or an array
        of starts, one per row of the result.  One period of phases,
        ``((t0 mod T) + j*dt) mod T`` for ``j < T/dt``, serves every period
        of the grid: sample i takes the phase of j = i mod (T/dt).  Each
        phase is then off the exact one by the rounding of one such sum
        plus i*dt/T times the rounding of T/dt steps against T, well
        below the rounding of ``(t0 + i*dt) mod T`` for long grids.
        """
        start = np.mod(np.asarray(t0, dtype=float), self.T)[..., None]
        period = np.mod(start + self.dt * np.arange(self.n_samples), self.T)
        return period[..., (first + np.arange(n)) % self.n_samples]

    def subtract(self, x, xdot, t0, first: int = 0) -> None:
        """Subtract the orbit in place from samples first, first + 1, ... of the grid t0 + i*dt.

        One row of `x` and `xdot` per start in `t0`; `xdot` None means
        positions only, from which x_bar alone is subtracted.  The spline is
        evaluated at one period of `grid_phases`, which is subtracted a
        period at a time.
        """
        x_bar, v_bar = self.state_at(self.grid_phases(t0, first, self.n_samples))
        n, m = x.shape[-1], self.n_samples
        for start in range(0, n, m):
            x[..., start : start + m] -= x_bar[..., : n - start]
            if xdot is not None:
                xdot[..., start : start + m] -= v_bar[..., : n - start]

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
    last 2s steps, so ceil(log2 n) vectorised passes cover n steps.  p is
    linear in g, so the table of a weighted sum of drives is the same sum
    of their tables, up to rounding.  `powers` holds ``P^l`` for l up to
    `n_powers`, enough for both the windows of `_Lockstep.trips` and the
    scan's spans.  P, the q and the powers are formed in long double and
    rounded once.  `stages` gives the three inner RK4 stage states of a
    step as the same kind of affine map of its start state and first two
    stage drives; they only serve to check that a run stays on its chart.
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
        # rows (x2, v2, x3, v3, x4, v4) = stages @ (e, g0, gh).
        half = 0.5 * h
        T2 = np.eye(2) + half * A
        T3 = np.eye(2) + half * A @ T2
        Ab = A @ b
        drives = [
            np.concatenate([half * b, half**2 * Ab, h * half**2 * A @ Ab]),
            np.concatenate([np.zeros(2), half * b, h * (half * Ab + b)]),
        ]
        self.stages = np.column_stack([np.concatenate([T2, T3, np.eye(2) + h * A @ T3])] + drives)

    def tabulate(self, g):
        """Particular states p of a chunk, shape (2, n + 1), for the drive g.

        g lies on the half-step grid, 2n + 1 points; step i reads its
        stage drives at points 2i, 2i + 1 and 2i + 2.
        """
        stage_g = np.stack([g[:-1:2], g[1::2], g[2::2]])
        n_steps = stage_g.shape[-1]
        particular = np.zeros((2, n_steps + 1))
        particular[:, 1:] = self.q @ stage_g
        span = 1
        while span < n_steps:
            particular[:, span:] += self.powers[:, span] @ particular[:, :-span]
            span *= 2
        return particular


def _regula_falsi(h, value_lo, value_hi, landing):
    """A sign change of the threshold along one step of length h.

    A coroutine: yields each probe length s and is sent ``(value, payload)``,
    the threshold where an RK4 sub-step of length s lands and whatever the
    caller needs of it.  `value_lo`, `value_hi` are the values at 0 and h,
    on opposite sides, and `landing` the payload at h.  Safeguarded Illinois
    regula falsi: probes keep EVENT_TOL/4 from the bracket ends, and a
    bisection follows whenever two probes have not halved the bracket.
    Returns ``(s, payload)`` at the bracket end past the crossing once the
    bracket is below `EVENT_TOL`; raises `EventLocalizationError` after
    `EVENT_MAX_ITER` probes.
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
        value, payload = yield s
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
    raise EventLocalizationError(f"threshold crossing not localized in {EVENT_MAX_ITER} iterations")


def _scalar_path(model: HybridModel, dt: float):
    """``(value, rk4, split_step)``: the scalar path of `integrate`, in Python floats.

    States are offsets ``(x - x_eq, xdot)``.  ``value(ex, v)`` is the
    threshold; ``rk4(ex, v, h, g0, gh, ge)`` an RK4 step, each stage on the
    chart of its own state.  The coroutine ``split_step(tau, state, g0, end,
    ge)``, the step of length dt from elapsed time tau that lands on `end`
    unsplit, splits it at each crossing (`_regula_falsi`): it yields each
    sub-step ``(tau, state, h, g0)``, is sent the state reached and the
    drive at tau + h, and returns where the step lands.
    """
    p = model.params
    threshold, x_eq = model.threshold, p.equilibrium
    A_off, A_on, B = chart_matrices(p.m, p.k, p.c)
    stiffness, damping, gain = float(A_off[1, 0]), float(A_on[1, 1]), float(B[1, 0])

    def value(ex, v):
        # The shape contract of `switching` has been checked on the batch's arrays.
        return float(threshold(ex + x_eq, v))

    def accel(ex, v, g):
        a = stiffness * ex + gain * g
        if value(ex, v) > 0.0:
            a += damping * v
        return a

    def rk4(ex, v, h, g0, gh, ge):
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

    def split_step(tau, state, g0, end, ge):
        h = dt
        for _ in range(16):
            value0, value1 = value(*state), value(*end)
            if (value1 > 0.0) == (value0 > 0.0) or h <= EVENT_TOL:
                return end
            search = _regula_falsi(h, value0, value1, (end, ge))
            s = next(search)
            while True:
                reached, g_reached = yield tau, state, s, g0
                try:
                    s = search.send((value(*reached), (reached, g_reached)))
                except StopIteration as found:
                    h_ev, (state, g0) = found.value
                    break
            tau += h_ev
            h -= h_ev
            if h <= 0.0:
                return state
            end, ge = yield tau, state, h, g0
        raise EventLocalizationError("more than 16 threshold crossings inside one step")

    return value, rk4, split_step


def _superpose(out, weights, drive, first):
    """``out[s] (+)= weights[s] * drive`` in place, member by member.

    The first drive sets `out`; each later one adds to it.  Taking one
    member's row at a time forms no temporary of out's shape.
    """
    for row, weight in zip(out, weights.tolist()):
        if first:
            np.multiply(drive, weight, out=row)
        else:
            row += weight * drive


class _Lockstep:
    """The S members of one `integrate` call, advanced in lockstep.

    Each member has its own state `y` (offset from the static equilibrium,
    and xdot), step pointer `n` and chart.  Per chunk of grid steps,
    `tables` runs once, then `trips` and `due_steps` take turns until no
    member is due.  Each member's arithmetic is elementwise or a small
    matrix product of its own: it gets the same bits in a batch as alone.

    Buffers: `samples` holds every stored state, its position only (one
    row per member) unless the velocity is asked for too, and `us` the
    input; the result keeps both.  Per chunk, `stage_g` holds each
    member's stage drives, one table per member, and `particular` its
    particular solutions on both charts; `states`, `stage_in` and
    `points` are a trip's scratch.  `trajectory` frees the chunk buffers
    and the trip scratch, with their window views, before it assembles
    the result.
    """

    # Here, in `tables` and in `trips`, a diverging member or a step too long
    # for the chart's transition powers overflows on its way to the
    # DivergenceError: numpy need not warn first.  `u` is not quieted.
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, model, x_init, starts, u, dt, n_steps, skip, velocity):
        p = self.params = model.params
        self.switching, self.x_eq, self.u, self.starts = model.switching, p.equilibrium, u, starts
        self.dt, self.n_steps, self.skip = dt, n_steps, skip
        self.value, self.rk4, self.split_step = _scalar_path(model, dt)
        A_off, A_on, B = chart_matrices(p.m, p.k, p.c)
        # Powers up to the longest window and the longest scan span.
        n_powers = max(_WINDOW_STEPS, _CHUNK_STEPS // 2)
        self.runs = [_ChartRecurrence(A, B[:, 0], dt, n_powers) for A in (A_off, A_on)]
        # Per chart, gathered by each member's chart index.
        self.powers = np.stack([run.powers[:, : _WINDOW_STEPS + 1] for run in self.runs])
        self.stages = np.stack([run.stages for run in self.runs])
        S = len(x_init)
        self.members = np.arange(S)
        cos_w, sin_w = p.forcing_weights(starts)
        # Each member's weights of the shared drives (cos, sin, u).
        self.weights = (cos_w, -sin_w, np.ones(S))
        # (offset, xdot) of every sample, or the offset alone: the first
        # `stored` components of each state.  A trip stores all its states,
        # sample i at column max(i - skip + span, 0): the warm-up goes to the
        # first `span` columns, which are dropped, and the states past a
        # member's first leaving step are overwritten as it moves on (into
        # `span` columns of room at the end).
        span = self.span = _TRIP_WINDOWS * _WINDOW_STEPS
        self.stored = 2 if velocity else 1
        self.us = np.zeros(n_steps + 1 - skip)  # the input, one row for all members
        self.samples = np.empty((S, self.stored, span + len(self.us) + span))
        self.trip_samples = sliding_window_view(self.samples, span, axis=2, writeable=True)
        # The chunk's particular solutions on both charts, member s on chart c
        # at row c*S + s, and each member's stage drives: g0 at step i's start
        # (row 0, column i; the step ends at column i + 1) and gh at its
        # midpoint (row 1).  Both have room for one trip past the chunk end;
        # the states of that room are never kept.
        n_table = min(_CHUNK_STEPS, n_steps)
        self.particular = np.zeros((2 * S, 2, n_table + 1 + span))
        self.particular_trips = sliding_window_view(self.particular, span + 1, axis=2)
        self.stage_g = np.zeros((S, 2, n_table + span))
        self.stage_g_trips = sliding_window_view(self.stage_g, span, axis=2)
        # A trip's states, its steps' stage inputs (e, g0, gh), end and inner
        # stage states, and which steps leave the chart (the last column never).
        self.states = np.empty((S, 2, span + 1))
        self.stage_in = np.empty((S, 4, span))
        self.points = np.empty((S, 4, 2, span))
        self.inner = self.points[:, 1:].reshape(S, 6, span)
        self.leaves = np.ones((S, span + 1), dtype=bool)
        self.y = np.stack([x_init[:, 0] - self.x_eq, x_init[:, 1]], axis=1)
        self.samples[:, :, max(span - skip, 0)] = self.y[:, : self.stored]
        self.n = np.zeros(S, dtype=np.intp)
        self.due = np.zeros(S, dtype=bool)

    def _input_at(self, tau):
        # u at the 1-D elapsed times tau, one waveform for all members.
        values = np.asarray(self.u(tau))
        if values.shape != tau.shape:
            raise InvalidInputError(
                f"u returned shape {values.shape} for elapsed times of shape {tau.shape}"
            )
        if values.dtype.kind not in "iuf":
            raise InvalidInputError(f"u returned {values.dtype} values, not real numbers")
        return values.astype(float, copy=False)

    def _time(self, k, j):
        # Absolute time of point j of the chunk's half-step grid for member k.
        return self.starts[k] + self.tau[j]

    def tables(self, c0, c1):
        """Tabulate grid samples c0 .. c1 - 1 and store their input; returns the step count.

        The drive ``g = F + u`` lives on the half-step grid of elapsed times
        ``tau_j = j*dt/2``, which all members share (step i at j = 2i, 2i + 1,
        2i + 2); `u` is called once on it and F taken from ``A cos(w*tau)``
        and ``A sin(w*tau)`` (`ModelParams.forcing_columns`).  RK4 on a chart
        is linear in its drive, so each member's drive and tables are these
        drives' and their tables' sum weighted by ``cos(w*t0)``, ``-sin(w*t0)``
        and 1.  The shared drives are tabulated and added one at a time, each
        straight into the rows of `stage_g` (the points 2i into row 0, up to
        the chunk's end point 2·n_chunk, and the points 2i + 1 into row 1),
        and a drive whose weights are all zero (the sine of runs that start
        at t0 = 0) is skipped.
        """
        self.c0, self.end = c0, min(c1, self.n_steps)
        self.tau = tau = np.arange(2 * c0, 2 * c1 + 1) * (0.5 * self.dt)
        shared = list(self.params.forcing_columns(tau))
        if self.u is not None:
            shared.append(self._input_at(tau))
            first = max(c0, self.skip)
            if first < c1:
                kept = shared[2][2 * (first - c0) : 2 * (c1 - c0) : 2]
                self.us[first - self.skip : c1 - self.skip] = kept
        n_chunk = self.end - c0
        if n_chunk:
            S = len(self.members)
            rows = self.stage_g[:, 0, : n_chunk + 1], self.stage_g[:, 1, :n_chunk]
            live = [(w, d[: 2 * n_chunk + 1]) for w, d in zip(self.weights, shared) if w.any()]
            with np.errstate(over="ignore", invalid="ignore"):
                for i, (weights, drive) in enumerate(live):
                    for row, points in zip(rows, (drive[::2], drive[1::2])):
                        _superpose(row, weights, points, i == 0)
                    for c, run in enumerate(self.runs):
                        part = self.particular[c * S : (c + 1) * S, :, : n_chunk + 1]
                        _superpose(part, weights, run.tabulate(drive), i == 0)
        return n_chunk

    @np.errstate(over="ignore", invalid="ignore")
    def trips(self):
        """Advance the members that are not due along their chart runs; returns whether any is due.

        A trip takes a member `_TRIP_WINDOWS` windows of `_WINDOW_STEPS` steps
        on, each window at once from the state the one before reached, as
        ``e[i+l] = P^l (e[i] - p[i]) + p[i+l]`` (`_ChartRecurrence`).  The
        member keeps every step up to the first whose four stage states or
        endpoint leave its chart, which is then due for the scalar path.
        Trips run until every member is due or done with the chunk.
        """
        members, x_eq, span, due = self.members, self.x_eq, self.span, self.due
        states, points, stage_in = self.states, self.points, self.stage_in
        # A member's chart changes only at a due step.
        on = self.on = self.switching(self.y[:, 0] + x_eq, self.y[:, 1]) > 0.0
        chart = on.astype(np.intp)
        rows = chart * len(members) + members
        chart_powers, chart_stages = self.powers[chart], self.stages[chart]
        while True:
            m = np.minimum(span, self.end - self.n)
            m[due] = 0
            if not np.count_nonzero(m):
                return bool(due.any())
            j = self.n - self.c0
            part = self.particular_trips[rows, :, j]
            states[:, :, 0] = self.y
            for w in range(0, span, _WINDOW_STEPS):
                offset = states[:, :, w] - part[:, :, w]
                window = (chart_powers @ offset[:, None, :, None])[..., 0]
                window += part[:, :, w : w + _WINDOW_STEPS + 1]
                states[:, :, w + 1 : w + _WINDOW_STEPS + 1] = window[:, :, 1:]
            points[:, 0] = states[:, :, 1:]
            stage_in[:, :2] = states[:, :, :-1]
            stage_in[:, 2:] = self.stage_g_trips[members, :, j]
            np.matmul(chart_stages, stage_in, out=self.inner)
            above = self.switching(points[:, :, 0] + x_eq, points[:, :, 1]) > 0.0
            np.logical_or.reduce(above != on[:, None, None], axis=1, out=self.leaves[:, :-1])
            stop = np.argmax(self.leaves, axis=1)
            kept = np.minimum(stop, m)
            at = np.maximum(self.n + (1 - self.skip + span), 0)
            self.trip_samples[members, :, at] = states[:, : self.stored, 1:]
            self.y = states[members, :, kept]
            if not np.isfinite(states).all():
                # Any non-finite kept state, not only the last: a window's
                # recurrence steps over an overflow from the window's start.
                finite = np.isfinite(states[:, :, 1:]).all(axis=1)
                bad = np.argmin(finite, axis=1)  # each member's first non-finite state
                diverged = np.flatnonzero(~finite[members, bad] & (bad < kept))
                if diverged.size:
                    k = int(diverged[0])
                    t = self._time(k, 2 * (j[k] + bad[k] + 1))
                    raise DivergenceError(f"non-finite state in member {k} at t={t}")
            self.n += kept
            due |= stop < m

    def due_steps(self):
        """Take the due members' steps on the scalar path, one member at a time.

        Step i of the chunk reads its drives from the member's `stage_g`:
        g0 and gh at column i, and ge at row 0, column i + 1, where the next
        step starts.  A step that changes the sign of the threshold is split
        at the crossing.  The split steps run as coroutines whose sub-steps are
        taken in rounds: one evaluation of F at ``t0 + tau`` and of `u` at
        tau, at the times of that round's sub-steps only, serves them all.
        """
        pending = {}
        for k in np.flatnonzero(self.due).tolist():
            i = int(self.n[k]) - self.c0
            j = 2 * i
            state = tuple(self.y[k].tolist())
            g0, gh = self.stage_g[k, :, i].tolist()
            ge = float(self.stage_g[k, 0, i + 1])
            self.y[k] = end = self.rk4(*state, self.dt, g0, gh, ge)
            if not all(map(math.isfinite, end)):
                raise DivergenceError(f"non-finite state in member {k} at t={self._time(k, j + 2)}")
            if (self.value(*end) > 0.0) != self.on[k]:
                step = self.split_step(float(self.tau[j]), state, g0, end, ge)
                self._resume(pending, k, step, None)
        while pending:
            ks, steps = list(pending), [request for _, request in pending.values()]
            tau = np.array([(tau_k + 0.5 * h_k, tau_k + h_k) for tau_k, _, h_k, _ in steps])
            u = np.zeros(tau.shape) if self.u is None else self._input_at(tau.ravel())
            g_round = self.params.forcing(self.starts[ks, None] + tau) + u.reshape(tau.shape)
            for k, (_, state, h_k, g0), g_k in zip(ks, steps, g_round.tolist()):
                self._resume(pending, k, pending[k][0], (self.rk4(*state, h_k, g0, *g_k), g_k[1]))
        self.n += self.due
        # Every other member rewrites its sample n with the same value.
        at = np.maximum(self.n - self.skip + self.span, 0)
        self.samples[self.members, :, at] = self.y[:, : self.stored]
        self.due[:] = False

    def _resume(self, pending, k, step, reply):
        # Send `reply` to member k's split step, then keep the sub-step it
        # asks for next in `pending`, or take the state it lands on.
        try:
            pending[k] = step, step.send(reply)
        except StopIteration as landed:
            pending.pop(k, None)
            self.y[k] = landed.value
            if not np.isfinite(self.y[k]).all():
                t = self._time(k, 2 * (self.n[k] - self.c0 + 1))
                raise DivergenceError(f"non-finite state in member {k} at t={t}") from None
        except EventLocalizationError as exc:
            t = self._time(k, 2 * (self.n[k] - self.c0))
            raise EventLocalizationError(f"member {k}, step from t={t}: {exc}") from None

    def trajectory(self, batch):
        """The stored samples as a `Trajectory`, rows of them for a batch.

        Frees the chunk buffers and the trip scratch first: the chunks are
        done, and the result should not sit beside them.
        """
        del self.particular, self.particular_trips, self.stage_g, self.stage_g_trips
        del self.states, self.stage_in, self.points, self.inner, self.tau
        us, t_first = self.us, self.starts + self.skip * self.dt
        kept = self.samples[:, :, self.span : self.span + len(us)]
        if batch:
            us = np.broadcast_to(us, kept[:, 0].shape)  # one read-only row for all
        else:
            kept, t_first = kept[0], float(t_first[0])
        xs = kept[..., 0, :]
        xs += self.x_eq
        vs = kept[..., 1, :] if self.stored == 2 else None
        return Trajectory(dt=self.dt, t0=t_first, x=xs, xdot=vs, u=us)


def integrate(
    model: HybridModel,
    x_init,
    u: Optional[Callable[[np.ndarray], np.ndarray]],
    duration: float,
    dt: float,
    t0=0.0,
    skip: int = 0,
    velocity: bool = True,
) -> Trajectory:
    """Integrate the hybrid model over [t0, t0 + duration], one run or a batch.

    Parameters
    ----------
    model : HybridModel
    x_init : (x, xdot) initial state, or an (S, 2) array of them
        A batch of S members runs in lockstep on one grid (dt and
        duration) with one input; each has its own start time and chart.
    u : callable or None
        Extra input force of the time since the start, ``tau = t - t0``:
        called with a 1-D array of such times, it returns an array of that
        shape and of real numbers, which every member plays; any other
        shape or a complex, bool or non-numeric dtype raises
        `InvalidInputError`.  None means no input.
    duration, dt : float
        Total span and step; dt must divide duration.
    t0 : float or array of S floats
        Start time, one per member or one for all.  The forcing phase is
        referenced to absolute time.
    skip : int
        Samples integrated but not stored, such as a warm-up: the result
        starts at sample `skip`, time ``t0 + skip*dt``.
    velocity : bool
        Whether to store xdot too.  False stores the positions only, for a
        caller that reads no velocity: half the samples, and the result's
        `xdot` is None.  The positions are the same bits either way.

    Returns
    -------
    Trajectory with ``round(duration/dt) + 1 - skip`` samples (rows of
    them for a batch, whose `u` is a read-only broadcast of one row).

    Raises
    ------
    DivergenceError, EventLocalizationError
        With the index of the member that failed and its time.

    Notes
    -----
    Chart runs (`_Lockstep.trips`) advance from drive tables of
    `_CHUNK_STEPS` grid steps at a time (`_Lockstep.tables`); a step that
    leaves its chart takes the scalar path (`_Lockstep.due_steps`).
    """
    n_steps = steps_in(duration, dt)
    try:
        x_init = np.asarray(x_init, dtype=float)
        starts = np.broadcast_to(np.asarray(t0, dtype=float), x_init.shape[:-1])
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"initial states and start times do not match: {exc}") from None
    if x_init.ndim not in (1, 2) or x_init.shape[-1] != 2 or not x_init.size:
        raise InvalidInputError("initial state must be an (x, xdot) pair or an (S, 2) array")
    if not (np.isfinite(x_init).all() and np.isfinite(starts).all()):
        raise InvalidInputError("initial states and start times must be finite")
    check_integer("skip", skip, 0, n_steps)
    lab = _Lockstep(
        model, x_init.reshape(-1, 2), starts.reshape(-1), u, dt, n_steps, skip, velocity
    )
    for c0 in range(0, n_steps + 1, _CHUNK_STEPS):
        if lab.tables(c0, min(c0 + _CHUNK_STEPS, n_steps + 1)):
            while lab.trips():
                lab.due_steps()
    return lab.trajectory(x_init.ndim == 2)


def _cyclic_crossings(value: np.ndarray, dt: float, T: float):
    """Linear-interpolated threshold crossing phases of a sampled period.

    `value` holds the switching threshold at the samples.  Returns
    (upward, downward) lists of phases in [0, T); "upward" means the
    threshold turns positive (the damper engages).
    """
    pos = value > 0.0
    after = np.roll(pos, -1)
    j = np.flatnonzero(pos != after)  # sample j and the next lie on opposite sides
    v0, v1 = value[j], np.roll(value, -1)[j]
    phases = ((j + v0 / (v0 - v1)) * dt) % T
    return list(phases[after[j]]), list(phases[~after[j]])


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
    InvalidInputError
        Unless `n_cycles` is an integer >= 2 and `tol` finite and positive.
    NotSettledError
        If the last two periods differ by more than `tol`.
    AmbiguousSwitchingError
        If the settled period does not show exactly two crossings.
    """
    check_integer("n_cycles", n_cycles, 2)
    check_real("tol", tol, 0.0, strict=True)
    p, T = model.params, model.params.period
    samples_per_period = steps_in(T, dt)
    if x_init is None:
        x_init = (p.equilibrium, 0.0)
    # Only the last two periods are stored: the orbit and the one before.
    skip = steps_in(n_cycles * T, dt) - 2 * samples_per_period
    traj = integrate(model, x_init, None, n_cycles * T, dt, skip=skip)
    last = slice(traj.n_samples - samples_per_period - 1, traj.n_samples)
    prev = slice(traj.n_samples - 2 * samples_per_period - 1, traj.n_samples - samples_per_period)
    res_x = float(np.max(np.abs(traj.x[last] - traj.x[prev])))
    res_v = float(np.max(np.abs(traj.xdot[last] - traj.xdot[prev])))
    if res_x > tol or res_v > tol:
        raise NotSettledError(
            f"periodicity residual ({res_x:.3e}, {res_v:.3e}) exceeds tol={tol:.3e} "
            f"after {n_cycles} cycles"
        )
    # The orbit starts at an integer multiple of T, so sample j sits at clock phase j*dt.
    start = traj.n_samples - 1 - samples_per_period
    x_per = traj.x[start : start + samples_per_period].copy()
    v_per = traj.xdot[start : start + samples_per_period].copy()
    ups, downs = _cyclic_crossings(model.switching(x_per, v_per), dt, T)
    n_crossings = len(ups) + len(downs)
    if n_crossings != 2:
        raise AmbiguousSwitchingError(
            f"settled period has {n_crossings} threshold crossings, expected 2"
        )
    duty = ((downs[0] - ups[0]) % T) / T
    return LimitCycle(
        T=T, dt=dt, x=x_per, xdot=v_per, t_hat=ups[0], duty=duty, residual=(res_x, res_v),
        n_crossings=n_crossings,
    )


def error_trajectory(traj: Trajectory, cycle: LimitCycle) -> Trajectory:
    """Deviation of a trajectory from the periodic orbit.

    Subtracts the orbit at matching clock phase, ``xi(t) = state(t) -
    x_bar(t mod T)`` (`LimitCycle.subtract`, on copies of the state
    columns), keeping the input column; a batch is taken row by row.  A
    position-only trajectory (`xdot` None) gives a position-only deviation.
    The trajectory must be sampled at the cycle's own dt; anything else
    would need resampling, which is refused.
    """
    if not math.isclose(traj.dt, cycle.dt, rel_tol=1e-12, abs_tol=0.0):
        raise ResamplingRequiredError(f"trajectory dt={traj.dt} differs from cycle dt={cycle.dt}")
    x, u = traj.x.copy(), traj.u.copy()
    xdot = None if traj.xdot is None else traj.xdot.copy()
    cycle.subtract(x, xdot, traj.t0)
    return Trajectory(dt=traj.dt, t0=traj.t0, x=x, xdot=xdot, u=u)
