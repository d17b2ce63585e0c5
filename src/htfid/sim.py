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

`integrate` takes a batch of S trajectories on one grid (one dt, one
duration): ``x_init`` of shape (S, 2), one ``t0`` per member, and an input
``u(tau)`` of the time since each member's start, called with the 1-D
grid of such times that all members share.  The members run in
lockstep, each with its own step pointer and chart: the chunk tables of
both charts are scanned once for the drives the members share (the two
forcing columns and a shared input) and superposed per member, each trip
of the loop advances every member by its own windows, and the members'
due scalar steps are taken together.  A single (x, xdot) pair is the
batch of one.
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

    `chart[i]` is 1 when the damper is engaged at sample i, 0 otherwise.
    A batch of S trajectories on one grid holds rows: `x`, `xdot`, `u`
    and `chart` of shape (S, n) and one start time per row in `t0`.
    """

    dt: float
    t0: float
    x: np.ndarray
    xdot: np.ndarray
    u: np.ndarray
    chart: np.ndarray

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

    def on_grid(self, t0, first: int, n: int):
        """Orbit states (x_bar, xdot_bar) at the samples of `grid_phases`.

        The spline is evaluated at one period of phases per start and
        the period repeated over the n samples.
        """
        x, xdot = self.state_at(self.grid_phases(t0, 0, self.n_samples))
        index = (first + np.arange(n)) % self.n_samples
        return x[..., index], xdot[..., index]

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
    of their tables, up to rounding.  `powers` holds ``P^l`` for l up to `n_powers`, enough for both the
    windows of `integrate` and the scan's spans.  P, the q and the powers
    are formed in long double and rounded once.  `stages` gives the three
    inner RK4 stage states of a step as the same kind of affine map of its
    start state and first two stage drives; they only serve to check that
    a run stays on its chart.
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
        stage drives at points 2i, 2i + 1 and 2i + 2.  A batch of drives,
        g of shape (S, 2n + 1), gives p of shape (S, 2, n + 1), each row
        the table of its own drive.
        """
        stage_g = np.stack([g[..., :-1:2], g[..., 1::2], g[..., 2::2]], axis=-2)
        n_steps = stage_g.shape[-1]
        particular = np.zeros(g.shape[:-1] + (2, n_steps + 1))
        particular[..., 1:] = self.q @ stage_g
        span = 1
        while span < n_steps:
            particular[..., span:] += self.powers[:, span] @ particular[..., :-span]
            span *= 2
        return particular


def _regula_falsi(h, value_lo, value_hi, landing):
    """`locate_crossing` as a coroutine: yields each probe length s and is
    sent that probe's ``(value, payload)``; returns ``(s, payload)``."""
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
    raise EventLocalizationError(
        f"threshold crossing not localized in {EVENT_MAX_ITER} iterations"
    )


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
    `integrate` runs the same search as a coroutine, so that the searches
    of a batch's members probe together.
    """
    search = _regula_falsi(h, value_lo, value_hi, landing)
    s = next(search)
    while True:
        try:
            s = search.send(probe(s))
        except StopIteration as found:
            return found.value


def integrate(
    model: HybridModel,
    x_init,
    u: Optional[Callable[[np.ndarray], np.ndarray]],
    duration: float,
    dt: float,
    t0=0.0,
    skip: int = 0,
) -> Trajectory:
    """Integrate the hybrid model over [t0, t0 + duration], one run or a batch.

    Parameters
    ----------
    model : HybridModel
    x_init : (x, xdot) initial state, or an (S, 2) array of them
        An (S, 2) array integrates a batch of S members in lockstep.  The
        members share the grid (dt and duration); each has its own start
        time, input and chart.
    u : callable or None
        Extra input force as a function of the time since the start,
        ``tau = t - t0``.  It is called with a 1-D array of such times,
        the same for every member, and returns either an array of that
        shape, one waveform that every member plays, or one of shape
        (S, n), row s for member s; anything else raises
        `InvalidInputError`.  None means no input.
    duration, dt : float
        Total span and step; dt must divide duration.
    t0 : float or array of S floats
        Start time, one per member or one for all.  The forcing phase is
        referenced to absolute time, so trajectories started at
        different t0 see different clock phases.
    skip : int
        Samples integrated but not stored, such as a warm-up: the result
        starts at sample `skip`, time ``t0 + skip*dt``.

    Returns
    -------
    Trajectory with ``round(duration/dt) + 1 - skip`` samples (rows of
    them for a batch), chart flags set from the sign of the switching
    threshold at each sample.

    Raises
    ------
    DivergenceError, EventLocalizationError
        With the index of the member that failed and its time.

    Notes
    -----
    The drive ``g = F + u`` is tabulated a chunk of grid steps at a time
    on the half-step grid of elapsed times ``tau_j = j*(0.5*dt)``, which
    every member shares: step i takes its three RK4 stage times at j = 2i,
    2i + 1 and 2i + 2, so the end of one step and the start of the next
    share one evaluation.  `u` is called once per chunk on that grid, and
    the forcing comes from its two columns ``A cos(w*tau)`` and
    ``A sin(w*tau)`` (`ModelParams.forcing_columns`), which each member
    weighs by ``cos(w*t0)`` and ``sin(w*t0)`` of its own start.
    Between switches the steps are advanced as chart runs (see
    `_ChartRecurrence`).  RK4 on one chart is linear in its drive, so the
    chunk's particular solutions are scanned once per chart for the
    shared drives only (the two forcing columns and a shared `u`, at most
    three), and each member's table is their superposition
    ``cos(w*t0)*p_cos - sin(w*t0)*p_sin + p_u``, formed in place.  From it
    follow a window of up to `_WINDOW_STEPS` states at once from a
    member's current state.  A trip of `_TRIP_WINDOWS` windows, each from
    the state the one before reached, keeps every step up to the first
    one whose four stage states or endpoint leave the member's chart.
    The state is carried as the offset from the static equilibrium, which
    keeps the rounding of the recurrence at the scale of the motion.  That
    step alone goes through the scalar path, where each RK4 stage takes
    the chart of its own state and a step that changes the sign of the
    threshold is split at the crossing (`locate_crossing`); the split
    steps evaluate the forcing at their own times ``t0 + tau`` and the
    input at their own elapsed times ``tau``.

    The loop runs trips until every member is due for such a step or done
    with the chunk, then takes the due steps one member at a time in
    Python floats.  The split steps run as coroutines, whose sub-steps
    are taken in rounds: one evaluation of the forcing and `u` per round
    serves all of them.  Every operation on a member's numbers is
    elementwise or a small matrix product of its own, so a member gets the
    same bits in a batch as alone.  A lone member at t0 = 0 has the
    weights (1, 0), so its drive and its tables are those of the forcing
    column alone, bit for bit.
    """
    n_steps = steps_in(duration, dt)
    try:
        x_init = np.asarray(x_init, dtype=float)
        starts = np.broadcast_to(np.asarray(t0, dtype=float), x_init.shape[:-1])
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"initial states and start times do not match: {exc}") from None
    batch = x_init.ndim == 2
    if x_init.ndim not in (1, 2) or x_init.shape[-1] != 2 or not x_init.size:
        raise InvalidInputError("initial state must be an (x, xdot) pair or an (S, 2) array")
    if not (np.isfinite(x_init).all() and np.isfinite(starts).all()):
        raise InvalidInputError("initial states and start times must be finite")
    if not 0 <= skip <= n_steps:
        raise InvalidInputError(f"skip={skip} outside 0..{n_steps}")
    x_init, starts = x_init.reshape(-1, 2), starts.reshape(-1)

    p = model.params
    switching, threshold = model.switching, model.threshold
    x_eq = p.equilibrium
    A_off, A_on, B = chart_matrices(p.m, p.k, p.c)
    # Powers up to the longest window and the longest scan span.
    n_powers = max(_WINDOW_STEPS, _CHUNK_STEPS // 2)
    runs = [_ChartRecurrence(A, B[:, 0], dt, n_powers) for A in (A_off, A_on)]
    # Per chart, gathered by each member's chart index.
    powers = np.stack([run.powers[:, : _WINDOW_STEPS + 1] for run in runs])
    stages = np.stack([run.stages for run in runs])
    # The velocity row of each chart, for the scalar path.
    stiffness, damping, gain = float(A_off[1, 0]), float(A_on[1, 1]), float(B[1, 0])
    n_members = len(x_init)
    members = np.arange(n_members)
    # Each member's weights of the two forcing columns.  When every member
    # starts at t0 = 0, every pair is exactly (1, 0), and the cosine column,
    # which is `forcing` itself, is the whole forcing.
    cos_w, sin_w = p.forcing_weights(starts)
    rotated = bool(np.any(sin_w != 0.0))

    def input_at(tau):
        # u at the 1-D elapsed times tau: one row for all members, shape
        # tau.shape, or one per member, shape (S,) + tau.shape.
        values = np.asarray(u(tau), dtype=float)
        if values.shape not in (tau.shape, (n_members,) + tau.shape):
            raise InvalidInputError(
                f"u returned shape {values.shape} for elapsed times of shape {tau.shape}"
            )
        return values

    def drives_at(tau):
        # Drive g = F + u of every member at its own elapsed times, an
        # (S, m) array: F at the absolute times t0 + tau, and u called once
        # on all of them, of which member s reads its own.
        values = np.zeros(tau.shape)
        if u is not None:
            values = input_at(tau.ravel())
            if values.ndim == 2:
                values = values.reshape(n_members, n_members, -1)[members, members]
        return p.forcing(starts[:, None] + tau) + values.reshape(tau.shape)

    def value(ex, v):
        # Threshold value at one state in offset coordinates.  The shape
        # contract of `switching` has been checked on the batch's arrays.
        return float(threshold(ex + x_eq, v))

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

    def split_step(tau, state, g0, end, ge):
        # The step of length dt from `state` at elapsed time tau, split at
        # each threshold crossing; `end` is where the unsplit step lands.
        # A coroutine: it yields each sub-step (tau, state, h, g0) it needs,
        # an RK4 step of length h off the tabulated grid given the drive g0
        # at tau, and is sent the state reached and the drive at tau + h.
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

    def resume(k, reply):
        # Send `reply` to member k's split step in the loop below, then keep
        # the sub-step it asks for next in `pending`, or take the state it
        # lands on.
        try:
            pending[k] = split[k].send(reply)
        except StopIteration as landed:
            pending.pop(k, None)
            y[k] = landed.value
            if not np.isfinite(y[k]).all():
                raise DivergenceError(
                    f"non-finite state in member {k} at t={at(k, 2 * (n[k] - c0 + 1))}"
                ) from None
        except EventLocalizationError as exc:
            raise EventLocalizationError(
                f"member {k}, step from t={at(k, 2 * (n[k] - c0))}: {exc}"
            ) from None

    def at(k, j):
        # Absolute time of point j of the chunk's half-step grid for member k.
        return starts[k] + tau[j]

    def superpose(out, scratch, rows, u_part):
        # Member by member along the first axis, in place: out = cos(w*t0) *
        # rows[0] - sin(w*t0) * rows[1] + u_part, with u_part None for no
        # input; unrotated weights (1, 0) give rows[0] exactly.
        if rotated:
            weight = (slice(None),) + (None,) * (out.ndim - 1)
            np.multiply(cos_w[weight], rows[0], out=out)
            out -= np.multiply(sin_w[weight], rows[1], out=scratch[..., : out.shape[-1]])
        else:
            out[...] = rows[0]
        if u_part is not None:
            out += u_part

    n_keep = n_steps + 1 - skip
    # (offset, xdot) of every sample.  A trip stores all the states it
    # computes, sample i at column max(i - skip + pad, 0): the warm-up goes
    # to the first `pad` columns, which are dropped, and the states past a
    # member's first leaving step are overwritten as the member moves on,
    # the last ones into `pad` columns of room past the final sample.
    span = _TRIP_WINDOWS * _WINDOW_STEPS  # steps a member advances by in one trip
    pad = span
    samples = np.empty((n_members, 2, pad + n_keep + pad))
    trip_samples = sliding_window_view(samples, span, axis=2, writeable=True)
    us = np.zeros((n_members, n_keep))
    # The chunk's drive of every member, and its particular solutions on
    # both charts, member s on chart c at row c*S + s, with scratch of each
    # shape for the sine terms.  The drives of the stages (e, g0, gh) of
    # each step have room for one trip past the chunk end; the states of
    # that room are never kept.
    n_table = min(_CHUNK_STEPS, n_steps)
    drive, drive_sin = np.empty((2, n_members, 2 * n_table + 1))
    particular = np.zeros((2 * n_members, 2, n_table + 1 + span))
    particular_trips = sliding_window_view(particular, span + 1, axis=2)
    particular_sin = np.empty((n_members, 2, n_table + 1))
    stage_g = np.zeros((n_members, 2, n_table + span))
    stage_g_trips = sliding_window_view(stage_g, span, axis=2)
    # A trip's states, the stage inputs (e, g0, gh) of its steps, their
    # endpoints and inner stage states, and which of them leave the chart,
    # the last column never.
    states = np.empty((n_members, 2, span + 1))
    stage_in = np.empty((n_members, 4, span))
    points = np.empty((n_members, 4, 2, span))
    inner = points[:, 1:].reshape(n_members, 6, span)
    leaves = np.ones((n_members, span + 1), dtype=bool)

    y = np.stack([x_init[:, 0] - x_eq, x_init[:, 1]], axis=1)  # offset from x_eq, and xdot
    samples[:, :, max(pad - skip, 0)] = y
    n = np.zeros(n_members, dtype=np.intp)  # each member's step pointer
    for c0 in range(0, n_steps + 1, _CHUNK_STEPS):
        c1 = min(c0 + _CHUNK_STEPS, n_steps + 1)
        tau = np.arange(2 * c0, 2 * c1 + 1) * (0.5 * dt)
        uu = None if u is None else input_at(tau)
        first = max(c0, skip)
        if first < c1 and uu is not None:
            us[:, first - skip : c1 - skip] = uu[..., 2 * (first - c0) : 2 * (c1 - c0) : 2]
        end = min(c1, n_steps)
        n_chunk = end - c0
        if not n_chunk:
            continue
        # The drives every member shares, the forcing columns and u if it
        # is one row, are scanned once per chart, and each member's drive
        # and tables are their weighted sums.
        g = drive[:, : 2 * n_chunk + 1]
        shared_u = uu is not None and uu.ndim == 1
        shared = list(p.forcing_columns(tau)) if rotated else [p.forcing(tau)]
        if shared_u:
            shared.append(uu)
        shared = np.stack(shared)[:, : g.shape[1]]
        superpose(g, drive_sin, shared, None if uu is None else uu[..., : g.shape[1]])
        for c, run in enumerate(runs):
            table = run.tabulate(shared)
            u_table = None
            if shared_u:
                u_table = table[-1]
            elif uu is not None:
                u_table = run.tabulate(uu[:, : g.shape[1]])
            part = particular[c * n_members : (c + 1) * n_members, :, : n_chunk + 1]
            superpose(part, particular_sin, table, u_table)
        stage_g[:, 0, :n_chunk], stage_g[:, 1, :n_chunk] = g[:, :-1:2], g[:, 1::2]
        due = np.zeros(n_members, dtype=bool)
        while True:
            # A member's chart changes only at a due step.
            on = switching(y[:, 0] + x_eq, y[:, 1]) > 0.0
            chart = on.astype(np.intp)
            rows = chart * n_members + members
            chart_powers, chart_stages = powers[chart], stages[chart]
            while True:
                # One trip of every member that is neither due nor done
                # with the chunk: states n .. n+m of its run, each window
                # of them from the state the one before reached, then the
                # inner stage states of its m steps, and the first of them
                # that leaves the member's chart.  The other members
                # (m = 0) are carried along and change nothing.
                m = np.minimum(span, end - n)
                m[due] = 0
                if not np.count_nonzero(m):
                    break
                j = n - c0
                part = particular_trips[rows, :, j]
                states[:, :, 0] = y
                for w in range(0, span, _WINDOW_STEPS):
                    offset = states[:, :, w] - part[:, :, w]
                    window = (chart_powers @ offset[:, None, :, None])[..., 0]
                    window += part[:, :, w : w + _WINDOW_STEPS + 1]
                    states[:, :, w + 1 : w + _WINDOW_STEPS + 1] = window[:, :, 1:]
                points[:, 0] = states[:, :, 1:]
                stage_in[:, :2] = states[:, :, :-1]
                stage_in[:, 2:] = stage_g_trips[members, :, j]
                np.matmul(chart_stages, stage_in, out=inner)
                above = switching(points[:, :, 0] + x_eq, points[:, :, 1]) > 0.0
                np.logical_or.reduce(above != on[:, None, None], axis=1, out=leaves[:, :-1])
                stop = np.argmax(leaves, axis=1)
                kept = np.minimum(stop, m)
                trip_samples[members, :, np.maximum(n + (1 - skip + pad), 0)] = states[:, :, 1:]
                y = states[members, :, kept]
                if not np.isfinite(y).all():
                    k = int(np.argmin(np.isfinite(y).all(axis=1)))
                    bad = int(np.argmin(np.isfinite(states[k, :, 1:]).all(axis=0)))
                    raise DivergenceError(
                        f"non-finite state in member {k} at t={at(k, 2 * (j[k] + bad + 1))}"
                    )
                n += kept
                due |= stop < m
            if not due.any():
                break
            # Every member is due or done with the chunk.  The steps leaving
            # their charts take the scalar path, one member at a time, stage
            # by stage, and split at a crossing of the threshold; the
            # sub-steps of the split steps are taken in rounds, one
            # evaluation of the forcing and the input per round.
            split, pending = {}, {}
            for k in np.flatnonzero(due).tolist():
                j = 2 * (int(n[k]) - c0)
                state = tuple(y[k].tolist())
                g0, gh, ge = g[k, j : j + 3].tolist()
                y[k] = end_state = rk4(*state, dt, g0, gh, ge)
                if not all(map(math.isfinite, end_state)):
                    raise DivergenceError(f"non-finite state in member {k} at t={at(k, j + 2)}")
                if (value(*end_state) > 0.0) != on[k]:
                    split[k] = split_step(float(tau[j]), state, g0, end_state, ge)
                    resume(k, None)
            # Members not in a round read the drive at their chunk's start.
            times = np.tile(tau[:2], (n_members, 1))
            while pending:
                for k, (tau_k, _, h_k, _) in pending.items():
                    times[k] = tau_k + 0.5 * h_k, tau_k + h_k
                g_round = drives_at(times).tolist()
                for k, (_, state, h_k, g0) in list(pending.items()):
                    resume(k, (rk4(*state, h_k, g0, *g_round[k]), g_round[k][1]))
            n += due
            # Every other member rewrites its sample n with the same value.
            samples[members, :, np.maximum(n - skip + pad, 0)] = y
            due[:] = False

    xs, vs = samples[:, 0, pad : pad + n_keep], samples[:, 1, pad : pad + n_keep]
    xs += x_eq
    charts = model.engaged(xs, vs).astype(np.uint8)
    t_first = starts + skip * dt
    if not batch:
        xs, vs, us, charts, t_first = xs[0], vs[0], us[0], charts[0], float(t_first[0])
    return Trajectory(dt=dt, t0=t_first, x=xs, xdot=vs, u=us, chart=charts)


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
    x_bar(t mod T)`` (`LimitCycle.on_grid`), keeping the input and chart
    columns; a batch is taken row by row.  The trajectory must be
    sampled at the cycle's own dt; anything else would need resampling,
    which is refused.
    """
    if not math.isclose(traj.dt, cycle.dt, rel_tol=1e-12, abs_tol=0.0):
        raise ResamplingRequiredError(f"trajectory dt={traj.dt} differs from cycle dt={cycle.dt}")
    x_bar, v_bar = cycle.on_grid(traj.t0, 0, traj.n_samples)
    return Trajectory(
        dt=traj.dt,
        t0=traj.t0,
        x=traj.x - x_bar,
        xdot=traj.xdot - v_bar,
        u=traj.u.copy(),
        chart=traj.chart.copy(),
    )
