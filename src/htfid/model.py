"""Vertically forced mass-spring oscillator with a one-way damper.

The plant is a single mass hanging on a spring with a damper that only
engages while the mass moves upward:

    m*xddot = -m*g - c*xdot - k*(x - x0) + F(t) + u(t)   if xdot > 0
    m*xddot = -m*g           - k*(x - x0) + F(t) + u(t)  otherwise

with F(t) = forcing_amplitude * cos(2*pi*forcing_freq * t) and u an
optional extra input.  The two charts share the identity transition map;
switching is triggered by the sign of a threshold function of the state
(the velocity, by default).

Around a periodic orbit x_bar(t) the deviation xi = x - x_bar obeys, to
first order, a linear time-periodic system whose only time dependence is
the on/off square wave of the damper:

    A_on  = [[0, 1], [-k/m, -c/m]]     while the damper acts
    A_off = [[0, 1], [-k/m,  0  ]]     while it is not
    B = [0, 1/m],  C = [1, 0],  D = 0

`linearize` packages those matrices together with the duty cycle and the
engagement phase measured from the periodic orbit.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import MAX_COUNT, AmbiguousSwitchingError, InvalidInputError, check_real

#: JSON keys accepted for model parameters; `ModelParams.from_dict`
#: gives a missing one its default.
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
        for key in ("m", "k", "forcing_freq"):
            check_real(key, getattr(self, key), 0.0, strict=True)
        check_real("c", self.c, 0.0)
        for key in ("g", "x0", "forcing_amplitude"):
            check_real(key, getattr(self, key))

    @property
    def period(self) -> float:
        """Forcing period; also the clock period of the system."""
        return 1.0 / self.forcing_freq

    @property
    def equilibrium(self) -> float:
        """Static rest position x0 - m*g/k of the (lossless) spring."""
        return self.x0 - self.m * self.g / self.k

    def _angle(self, t):
        # The forcing's argument w*t, w = 2*pi*freq, in one rounding order.
        return 2.0 * math.pi * self.forcing_freq * t

    def forcing(self, t):
        """External forcing F(t) = amplitude * cos(2*pi*freq*t).

        Accepts scalars or arrays; `sim.integrate` evaluates it at the
        off-grid times of its split steps.
        """
        return self.forcing_amplitude * np.cos(self._angle(t))

    def forcing_columns(self, tau):
        """The forcing's two quadratures ``(A cos(w*tau), A sin(w*tau))``.

        A run started at t0 sees, at the time tau since its start,

            F(t0 + tau) = cos(w*t0) * A cos(w*tau) - sin(w*t0) * A sin(w*tau),

        with the weights ``forcing_weights(t0)``; so the two columns on one
        grid of elapsed times serve runs of every start.  At t0 = 0 the
        weights are exactly (1, 0), and the first column is `forcing`
        itself, bit for bit.
        """
        angle = self._angle(tau)
        return self.forcing_amplitude * np.cos(angle), self.forcing_amplitude * np.sin(angle)

    def forcing_weights(self, t0):
        """``(cos(w*t0), sin(w*t0))``, the weights of `forcing_columns`."""
        angle = self._angle(t0)
        return np.cos(angle), np.sin(angle)

    def to_dict(self) -> dict:
        return {key: float(getattr(self, key)) for key in PARAM_KEYS}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        unknown = set(data) - set(PARAM_KEYS)
        if unknown:
            raise InvalidInputError(f"unknown model parameter(s): {sorted(unknown)}")
        return cls(**data)


def count_steps(span: float, dt: float) -> float:
    """``span / dt``, refused unless an array can index that many steps:
    finite and at most `MAX_COUNT`."""
    ratio = span / dt
    if not ratio <= MAX_COUNT:  # inf too
        raise InvalidInputError(
            f"a span of {span} takes {ratio:.3g} steps of dt={dt}, more than an array can index"
        )
    return ratio


def steps_in(span: float, dt: float) -> int:
    """Steps of `dt` in `span`: both positive, as many as an array can index
    (`count_steps`), and the steps cover the span to 1e-9 of it.  The one
    rule for the period, a record and a run."""
    check_real("dt", dt, 0.0, strict=True)
    check_real("span", span, 0.0, strict=True)
    n = int(round(count_steps(span, dt)))
    if abs(n * dt - span) > 1e-9 * span:
        raise InvalidInputError(f"dt={dt} does not divide the span {span}")
    return n


def _velocity_threshold(x, xdot):
    return xdot


@dataclass(frozen=True)
class HybridModel:
    """Parameters plus the switching function.

    The damper engages while ``threshold(x, xdot) > 0``.  A tie
    (threshold exactly zero) selects the lossless chart.  The threshold
    is evaluated elementwise: it receives two numpy arrays of one shape
    (or two floats) and returns values of that shape, or a single scalar
    that then applies to every state.  `sim.integrate` calls it on
    whole blocks of stage states.  Passing a custom threshold gives
    variants such as a damper that never releases (``lambda x, v: 1.0``),
    which is handy for closed-form checks.
    """

    params: ModelParams = field(default_factory=ModelParams)
    threshold: Callable = _velocity_threshold

    def switching(self, x, xdot) -> np.ndarray:
        """Threshold values at the states (x, xdot), as floats of their shape.

        Raises `InvalidInputError` when the threshold returns an array of
        another shape.
        """
        value = np.asarray(self.threshold(x, xdot), dtype=float)
        shape = getattr(x, "shape", ())
        if value.shape != shape:
            if value.ndim:
                raise InvalidInputError(
                    f"threshold returned shape {value.shape} for states of shape {shape}"
                )
            value = np.broadcast_to(value, shape)
        return value


def chart_matrices(m: float, k: float, c: float):
    """State matrices ``(A_off, A_on)`` and input column B of the two charts.

    With ``x_eq = x0 - m*g/k`` the static equilibrium, each chart reads

        d/dt (x - x_eq, xdot) = A (x - x_eq, xdot) + B (F(t) + u(t)),

    so gravity and the spring offset only place x_eq, and the same
    matrices govern the deviation from a periodic orbit.  This is the one
    statement of the vector field: `sim.integrate` steps it, and the fit
    differentiates the harmonic state operator built from it.
    """
    A_off = np.array([[0.0, 1.0], [-k / m, 0.0]])
    A_on = np.array([[0.0, 1.0], [-k / m, -c / m]])
    B = np.array([[0.0], [1.0 / m]])
    return A_off, A_on, B


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
        A_off, A_on, B = chart_matrices(m, k, c)
        return cls(
            A_on=A_on,
            A_off=A_off,
            B=B,
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
