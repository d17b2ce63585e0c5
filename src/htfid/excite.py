"""Chirp experiment generation on the settled orbit.

Each record plays the same linear chirp

    u(t) = amplitude * sin(pi*(f_hi - f_lo)/segment_duration * t**2
                           + 2*pi*f_lo * t)

(t measured from the record start), but record k begins at clock phase
k*T/n_segments, with the system placed exactly on the periodic orbit at
that phase.  The chirp is replayed periodically and the record captured
after a warm-up play, so the captured deviation is the steady response
to a periodic input and satisfies the periodicity the DFT assumes; the
evenly spread clock phases make the harmonic columns of the estimation
regressor mutually orthogonal, like a small DFT across records.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AliasingError,
    InvalidInputError,
    PerturbationSizeWarning,
    check_integer,
    check_real,
)
from .model import HybridModel, steps_in
from .sim import LimitCycle, Trajectory, integrate

#: Fraction of the orbit amplitude beyond which the deviation response
#: is considered too large for the small-signal model.
PERTURBATION_LIMIT = 0.1


@dataclass(frozen=True)
class ChirpPlan:
    """Sweep band, amplitude, segments and warm-up plays of the experiment."""

    amplitude: float = 0.004
    f_lo: float = 0.0
    f_hi: float = 7.0
    segment_duration: float = 30.0
    n_segments: int = 9
    warmup_periods: int = 1

    def __post_init__(self):
        # amplitude 0 is a legal null experiment: the records come out
        # empty and the estimator reports no usable data downstream.
        check_real("amplitude", self.amplitude, 0.0)
        check_real("f_lo", self.f_lo, 0.0)
        check_real("f_hi", self.f_hi)
        if not self.f_lo < self.f_hi:
            raise InvalidInputError(f"need f_lo < f_hi, not {self.f_lo!r} and {self.f_hi!r}")
        check_real("segment_duration", self.segment_duration, 0.0, strict=True)
        check_integer("n_segments", self.n_segments, 1)
        check_integer("warmup_periods", self.warmup_periods, 0)


def chirp_value(plan: ChirpPlan, t):
    """Chirp waveform at time t since the start of a record."""
    rate = (plan.f_hi - plan.f_lo) / plan.segment_duration
    phase = math.pi * rate * np.square(t) + 2.0 * math.pi * plan.f_lo * np.asarray(t)
    return plan.amplitude * np.sin(phase)


def clock_phases(plan: ChirpPlan, T: float) -> np.ndarray:
    """Record start phases k*T/n_segments, k = 0 .. n_segments-1."""
    return T * np.arange(plan.n_segments) / plan.n_segments


def check_nyquist(plan: ChirpPlan, dt: float) -> None:
    """Raise `AliasingError` unless the sweep top lies below the Nyquist rate of dt."""
    if plan.f_hi >= 0.5 / dt:
        raise AliasingError(
            f"f_hi={plan.f_hi} Hz is not below the Nyquist rate {0.5 / dt} Hz"
        )


@dataclass(frozen=True)
class ExperimentRecord:
    """Deviation response to one chirp record.

    `traj` holds the position deviation from the orbit (xi1 in its `x`;
    its `xdot` is None, as the estimator reads the output y = x - x_bar
    alone) together with the applied input; `clock_phase` is the clock
    phase of the record start in [0, T).
    """

    index: int
    clock_phase: float
    traj: Trajectory

    @property
    def u(self) -> np.ndarray:
        return self.traj.u

    @property
    def xi1(self) -> np.ndarray:
        return self.traj.x

    @property
    def dt(self) -> float:
        return self.traj.dt


def run_experiments(model: HybridModel, cycle: LimitCycle, plan: ChirpPlan) -> list:
    """Simulate all chirp records and return deviation responses.

    Record k starts on the orbit at clock phase ``k*T/n_segments`` and
    plays the chirp as a periodic waveform of period `segment_duration`;
    after ``plan.warmup_periods`` full plays, the next play is captured as
    the record, and the orbit is subtracted at matching clock phase.
    During the warm-up the start-up deviation transient decays at the
    orbit's Floquet rate, so the captured record is (to that decay) a
    segment of the steady periodic response and satisfies the periodicity
    the DFT assumes.  With ``warmup_periods=0`` the capture starts
    immediately at the on-orbit initial condition, which is
    transient-free at the start but wraps a residual transient at the
    record end.  Records are half-open (the final boundary sample is
    dropped) so their length matches the DFT analysis window.

    A warning is issued when the peak deviation exceeds 10% of the orbit
    amplitude, since the small-signal model is then questionable.

    Records are sampled at the cycle's own step.  Before any record is
    integrated, raises `AliasingError` when the sweep reaches its Nyquist
    rate and `InvalidInputError` when the step does not divide
    `segment_duration`.

    All records run in lockstep, as one batch of one `sim.integrate`
    call, which stores only the positions of the captured play of each:
    the warm-up states are dropped as they pass, and no velocity is kept.
    They all play one waveform, so the chirp is one input of the time
    since each record's start: `integrate` evaluates it once per point of
    the batch's shared grid, scans its particular solutions once per
    chart, and superposes them with those of the two shared forcing
    columns, weighted by each record's start phase.  The orbit's position
    is subtracted from the stored samples in place, at the clock phases
    of the run's own grid (`LimitCycle.subtract`).
    """
    dt = cycle.dt
    check_nyquist(plan, dt)
    duration, warmup_periods = plan.segment_duration, plan.warmup_periods
    n_per = steps_in(duration, dt)
    skip = warmup_periods * n_per
    phases = clock_phases(plan, cycle.T)
    x_init = np.stack(cycle.state_at(phases), axis=1)
    u_fn = lambda tau: chirp_value(plan, np.remainder(tau, duration))
    traj = integrate(
        model, x_init, u_fn, (warmup_periods + 1) * duration, dt, t0=phases, skip=skip,
        velocity=False,
    )
    # The capture is the first n_per stored samples; the boundary sample
    # after it is dropped so records match the DFT analysis window.
    xi = traj.x[:, :n_per]
    cycle.subtract(xi, None, phases, skip)
    records = []
    for k, start in enumerate((phases + warmup_periods * duration).tolist()):
        dev = Trajectory(dt=dt, t0=start, x=xi[k], xdot=None, u=traj.u[k, :n_per])
        peak = float(np.max(np.abs(dev.x)))
        if peak > PERTURBATION_LIMIT * cycle.amplitude:
            warnings.warn(
                f"record {k}: peak deviation {peak:.3e} exceeds "
                f"{PERTURBATION_LIMIT:.0%} of the orbit amplitude {cycle.amplitude:.3e}",
                PerturbationSizeWarning,
                stacklevel=2,
            )
        records.append(ExperimentRecord(index=k, clock_phase=start % cycle.T, traj=dev))
    return records
