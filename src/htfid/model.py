"""Vertically forced mass-spring oscillator with a one-way damper.

The plant is a single mass hanging on a spring with a damper that only
engages while the mass moves upward:

    m*xddot = -m*g - c*xdot - k*(x - x0) + F(t) + u(t)   if xdot > 0
    m*xddot = -m*g           - k*(x - x0) + F(t) + u(t)  otherwise

with F(t) = forcing_amplitude * cos(2*pi*forcing_freq * t) and u an
optional extra input.  The two charts share the identity transition map;
switching is triggered by the sign of a scalar threshold function of the
state (the velocity, by default).

Around a periodic orbit x_bar(t) the deviation xi = x - x_bar obeys, to
first order, a linear time-periodic system whose only time dependence is
the on/off square wave of the damper:

    A_on  = [[0, 1], [-k/m, -c/m]]     while the damper is engaged
    A_off = [[0, 1], [-k/m,  0  ]]     while it is not
    B = [0, 1/m],  C = [1, 0],  D = 0

`linearize` packages those matrices together with the duty cycle and the
engagement phase measured from the periodic orbit.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AmbiguousSwitchingError, InvalidInputError

#: JSON keys accepted (and required) for model parameters.
PARAM_KEYS = ("m", "k", "c", "g", "x0", "forcing_amplitude", "forcing_freq")


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the oscillator.

    Defaults correspond to the unit-mass laboratory configuration used
    throughout the tests: a 200 N/m spring, a 2 N s/m one-way damper and
    a unit-amplitude 1 Hz cosine forcing.
    """

    m: float = 1.0
    k: float = 200.0
    c: float = 2.0
    g: float = 9.81
    x0: float = 0.2
    forcing_amplitude: float = 1.0
    forcing_freq: float = 1.0

    def __post_init__(self):
        if self.m <= 0.0 or self.k <= 0.0:
            raise InvalidInputError("mass and stiffness must be positive")
        if self.c < 0.0:
            raise InvalidInputError("damping must be non-negative")
        if self.forcing_freq <= 0.0:
            raise InvalidInputError("forcing frequency must be positive")

    @property
    def period(self) -> float:
        """Forcing period; also the clock period of the system."""
        return 1.0 / self.forcing_freq

    @property
    def equilibrium(self) -> float:
        """Static rest position x0 - m*g/k of the (lossless) spring."""
        return self.x0 - self.m * self.g / self.k

    def forcing(self, t):
        """External forcing F(t) = amplitude * cos(2*pi*freq*t).

        Accepts scalars or arrays; `sim.integrate` tabulates it on arrays
        of stage times.
        """
        return self.forcing_amplitude * np.cos(2.0 * math.pi * self.forcing_freq * t)

    def to_dict(self) -> dict:
        return {key: float(getattr(self, key)) for key in PARAM_KEYS}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        unknown = set(data) - set(PARAM_KEYS)
        if unknown:
            raise InvalidInputError(f"unknown model parameter(s): {sorted(unknown)}")
        return cls(**{key: float(value) for key, value in data.items()})

    @classmethod
    def from_json(cls, path) -> "ModelParams":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def _velocity_threshold(x: float, xdot: float) -> float:
    return xdot


@dataclass(frozen=True)
class HybridModel:
    """Parameters plus the scalar switching function.

    The damper engages while ``threshold(x, xdot) > 0``.  A tie
    (threshold exactly zero) selects the lossless chart.  Passing a
    custom threshold gives variants such as a permanently engaged damper
    (``lambda x, v: 1.0``), which is handy for closed-form checks.
    """

    params: ModelParams = field(default_factory=ModelParams)
    threshold: Callable[[float, float], float] = _velocity_threshold

    def chart(self, x: float, xdot: float) -> int:
        """1 while the damper is engaged, 0 otherwise."""
        return 1 if self.threshold(x, xdot) > 0.0 else 0


def chart_accel(model: HybridModel):
    """Right-hand side of the active chart, as a function accel(x, xdot, f, u).

    The function returns the acceleration under the chart selected by
    the sign of the threshold function at (x, xdot), given the values of
    the cosine forcing ``f = params.forcing(t)`` and of the extra input
    force u at the same time.  The velocity row of the state equation is
    xdot itself.
    """
    p = model.params
    m, k, c, x0 = p.m, p.k, p.c, p.x0
    weight = -m * p.g
    thr = model.threshold

    def accel(x, v, f, u):
        a = weight - k * (x - x0) + f + u
        if thr(x, v) > 0.0:
            a -= c * v
        return a / m

    return accel


@dataclass(frozen=True)
class SwitchedLinearization:
    """LTP small-signal model around a periodic orbit.

    The damper flag s(t) is 1 on one interval per period, starting at
    clock phase `t_hat` and lasting `duty * T` seconds, so that

        A(t) = A_off + (A_on - A_off) * s(t).

    `t_hat` is referenced to the same clock origin as the orbit itself
    (the forcing cosine maximum); re-originating time at the engagement
    instant recovers the convention in which the damper is on over
    [0, duty*T) and duty*T is the hand-off phase.
    """

    A_on: np.ndarray
    A_off: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: float
    duty: float
    t_hat: float
    T: float

    def __post_init__(self):
        if not 0.0 <= self.duty <= 1.0:
            raise InvalidInputError("duty must lie in [0, 1]")
        if not 0.0 <= self.t_hat < self.T:
            raise InvalidInputError("t_hat must lie in [0, T)")

    @classmethod
    def oscillator(
        cls, m: float, k: float, c: float, duty: float, t_hat: float, T: float
    ) -> "SwitchedLinearization":
        """The one-way-damper matrices of the module docstring."""
        return cls(
            A_on=np.array([[0.0, 1.0], [-k / m, -c / m]]),
            A_off=np.array([[0.0, 1.0], [-k / m, 0.0]]),
            B=np.array([[0.0], [1.0 / m]]),
            C=np.array([[1.0, 0.0]]),
            D=0.0,
            duty=duty,
            t_hat=t_hat,
            T=T,
        )


def linearize(model: HybridModel, cycle) -> SwitchedLinearization:
    """Small-signal LTP model of the deviation from a settled orbit.

    Parameters
    ----------
    model : HybridModel
    cycle : LimitCycle
        Settled orbit as produced by `sim.settle_limit_cycle`; supplies
        the period, the damper engagement phase and the duty cycle.
    """
    if cycle.n_crossings != 2:
        raise AmbiguousSwitchingError(
            f"expected exactly 2 threshold crossings per period, found {cycle.n_crossings}"
        )
    p = model.params
    return SwitchedLinearization.oscillator(
        p.m, p.k, p.c, cycle.duty, cycle.t_hat, cycle.T
    )
