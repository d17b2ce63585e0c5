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

import json
import math
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, InvalidInputError, PerturbationSizeWarning
from .model import HybridModel
from .sim import LimitCycle, Trajectory, error_trajectory, integrate, read_trajectory_csv, write_trajectory_csv

#: Fraction of the orbit amplitude beyond which the deviation response
#: is considered too large for the small-signal model.
PERTURBATION_LIMIT = 0.1


@dataclass(frozen=True)
class ChirpPlan:
    """Sweep band, amplitude and segmentation of the experiment."""

    amplitude: float = 0.004
    f_lo: float = 0.0
    f_hi: float = 7.0
    segment_duration: float = 30.0
    n_segments: int = 9

    def __post_init__(self):
        # amplitude 0 is a legal null experiment: the records come out
        # empty and the estimator reports no usable data downstream.
        if self.amplitude < 0.0:
            raise InvalidInputError("amplitude must be non-negative")
        if not 0.0 <= self.f_lo < self.f_hi:
            raise InvalidInputError("need 0 <= f_lo < f_hi")
        if self.segment_duration <= 0.0:
            raise InvalidInputError("segment_duration must be positive")
        if self.n_segments < 1:
            raise InvalidInputError("n_segments must be at least 1")

    def to_dict(self) -> dict:
        return {
            "amplitude": self.amplitude,
            "f_lo": self.f_lo,
            "f_hi": self.f_hi,
            "segment_duration": self.segment_duration,
            "n_segments": self.n_segments,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChirpPlan":
        return cls(
            amplitude=float(data["amplitude"]),
            f_lo=float(data["f_lo"]),
            f_hi=float(data["f_hi"]),
            segment_duration=float(data["segment_duration"]),
            n_segments=int(data["n_segments"]),
        )


def chirp_value(plan: ChirpPlan, t):
    """Chirp waveform at time t since the start of a record."""
    rate = (plan.f_hi - plan.f_lo) / plan.segment_duration
    phase = math.pi * rate * np.square(t) + 2.0 * math.pi * plan.f_lo * np.asarray(t)
    return plan.amplitude * np.sin(phase)


def clock_phases(plan: ChirpPlan, T: float) -> np.ndarray:
    """Record start phases k*T/n_segments, k = 0 .. n_segments-1."""
    return T * np.arange(plan.n_segments) / plan.n_segments


def gen_chirp(plan: ChirpPlan, k: int, dt: float) -> np.ndarray:
    """Sampled input for record k on the half-open grid [0, duration).

    All records share the same waveform; what distinguishes record k is
    the clock phase at which it starts (see `run_experiments`).
    """
    if not 0 <= k < plan.n_segments:
        raise InvalidInputError(f"record index {k} outside 0..{plan.n_segments - 1}")
    if dt <= 0.0:
        raise InvalidInputError("dt must be positive")
    if plan.f_hi >= 0.5 / dt:
        raise AliasingError(
            f"f_hi={plan.f_hi} Hz is not below the Nyquist rate {0.5 / dt} Hz"
        )
    n = int(round(plan.segment_duration / dt))
    if abs(n * dt - plan.segment_duration) > 1e-9 * plan.segment_duration:
        raise InvalidInputError(f"dt={dt} does not divide segment_duration")
    return chirp_value(plan, dt * np.arange(n))


@dataclass(frozen=True)
class ExperimentRecord:
    """Deviation response to one chirp record.

    `traj` holds the deviation from the orbit (xi in the x/xdot columns)
    together with the applied input; `clock_phase` is the clock phase of
    the record start in [0, T).
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


def run_experiments(
    model: HybridModel,
    cycle: LimitCycle,
    plan: ChirpPlan,
    dt: float | None = None,
    warmup_periods: int = 1,
) -> list:
    """Simulate all chirp records and return deviation responses.

    Record k starts on the orbit at clock phase ``k*T/n_segments`` and
    plays the chirp as a periodic waveform of period `segment_duration`;
    after `warmup_periods` full plays, the next play is captured as the
    record, and the orbit is subtracted at matching clock phase.  During
    the warm-up the start-up deviation transient decays at the orbit's
    Floquet rate, so the captured record is (to that decay) a segment of
    the steady periodic response and satisfies the periodicity the DFT
    assumes.  With `warmup_periods=0` the capture starts immediately at
    the on-orbit initial condition, which is transient-free at the start
    but wraps a residual transient at the record end.  Records are
    half-open (the final boundary sample is dropped) so their length
    matches the DFT analysis window.

    A warning is issued when the peak deviation exceeds 10% of the orbit
    amplitude, since the small-signal model is then questionable.
    """
    if dt is None:
        dt = cycle.dt
    if warmup_periods < 0:
        raise InvalidInputError("warmup_periods must be non-negative")
    duration = plan.segment_duration
    n_per = int(round(duration / dt))
    skip = warmup_periods * n_per
    phases = clock_phases(plan, cycle.T)
    records = []
    for k in range(plan.n_segments):
        phase = float(phases[k])
        x_init = cycle.state_at(phase)
        u_fn = lambda t, _phase=phase: chirp_value(
            plan, np.remainder(t - _phase, duration)
        )
        traj = integrate(
            model, x_init, u_fn, (warmup_periods + 1) * duration, dt, t0=phase
        )
        # The orbit is subtracted on the whole run's phase grid (a grid
        # restarted at the capture rounds differently), then the capture
        # is copied out so the warm-up samples can be freed.
        dev = error_trajectory(traj, cycle)
        dev = Trajectory(
            dt=dev.dt,
            t0=dev.t0 + warmup_periods * duration,
            x=dev.x[skip : skip + n_per].copy(),
            xdot=dev.xdot[skip : skip + n_per].copy(),
            u=dev.u[skip : skip + n_per].copy(),
            chart=dev.chart[skip : skip + n_per].copy(),
        )
        phase = (phase + warmup_periods * duration) % cycle.T
        peak = float(np.max(np.abs(dev.x)))
        if peak > PERTURBATION_LIMIT * cycle.amplitude:
            warnings.warn(
                f"record {k}: peak deviation {peak:.3e} exceeds "
                f"{PERTURBATION_LIMIT:.0%} of the orbit amplitude {cycle.amplitude:.3e}",
                PerturbationSizeWarning,
                stacklevel=2,
            )
        records.append(ExperimentRecord(index=k, clock_phase=phase, traj=dev))
    return records


def write_bundle(records: list, plan: ChirpPlan, out_dir) -> None:
    """Write rec_<k>.csv per record plus plan.json."""
    os.makedirs(out_dir, exist_ok=True)
    meta = plan.to_dict()
    meta["dt"] = records[0].dt if records else None
    meta["clock_phases"] = [rec.clock_phase for rec in records]
    with open(os.path.join(out_dir, "plan.json"), "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2)
        handle.write("\n")
    for rec in records:
        write_trajectory_csv(rec.traj, os.path.join(out_dir, f"rec_{rec.index}.csv"))


def read_bundle(out_dir):
    """Load a bundle written by `write_bundle`.

    Returns (records, plan).
    """
    with open(os.path.join(out_dir, "plan.json"), "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    plan = ChirpPlan.from_dict(meta)
    phases = meta["clock_phases"]
    records = []
    names = [f for f in os.listdir(out_dir) if re.fullmatch(r"rec_\d+\.csv", f)]
    for name in sorted(names, key=lambda s: int(re.findall(r"\d+", s)[0])):
        k = int(re.findall(r"\d+", name)[0])
        traj = read_trajectory_csv(os.path.join(out_dir, name))
        records.append(ExperimentRecord(index=k, clock_phase=float(phases[k]), traj=traj))
    if len(records) != plan.n_segments:
        raise InvalidInputError(
            f"{out_dir}: found {len(records)} records, plan expects {plan.n_segments}"
        )
    return records, plan
