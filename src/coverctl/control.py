"""Unprojected additive calibration engine.

The single mechanism shared by every controller in this package: a scalar
state (a dual price, a score threshold, a probing budget, or an inventory
level) moves each step by ``eta_t * (phi - Y_t)``, where ``Y_t`` in [0, 1]
is the observed success feedback and ``phi`` is the coverage target. The
state is never clamped here; any boundary handling belongs to the module
that consumes the state. Keeping the update raw is what makes the coverage
ledger identity exact for any schedule and any feedback: split a window of
L steps into maximal segments that each applied one step size eta, and

    mean(Y) - phi == -sum over segments of (state_end - state_start) / eta / L

up to floating-point rounding. A constant step is one segment. The driver
loop in :mod:`coverctl.runner` keeps that ledger; :attr:`ControllerState.eta`
tells it where a segment ends.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field


class InvariantViolation(RuntimeError):
    """A checked quantity left its band: ``value`` outside ``band`` at ``step``.

    Raised instead of ``assert`` so the state bands and the no-returns identity
    stay enforced under ``python -O``.
    """

    def __init__(self, step: int, value: float, band: tuple[float, float],
                 name: str = "state"):
        super().__init__(step, value, band, name)  # args, so pool workers can pickle it
        self.step, self.value, self.band, self.name = step, value, band, name

    def __str__(self) -> str:
        lo, hi = self.band
        return f"{self.name} {self.value} escaped [{lo}, {hi}] at step {self.step}"


@dataclass(frozen=True)
class StepSchedule:
    """Step-size sequence eta_t = c * (t + index_offset)**(-p) for t >= 1.

    p = 0 is the constant step eta_t = c; p in (0, 1) decays, non-increasing
    in t (a step that is not a positive float raises ValueError). A schedule
    like 5/sqrt(t+1) is ``power(c=5, p=0.5, index_offset=1)``.
    """

    c: float
    p: float = 0.0
    index_offset: int = 0

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"p must lie in [0, 1), got {self.p}")
        if not 0 <= self.index_offset < math.inf:
            raise ValueError(f"index_offset must be finite and >= 0, got {self.index_offset}")

    @classmethod
    def constant(cls, c: float) -> "StepSchedule":
        return cls(c)

    @classmethod
    def power(cls, c: float, p: float, index_offset: int = 0) -> "StepSchedule":
        return cls(c, p, index_offset)

    def eta(self, t: int) -> float:
        """Step size at update index t (1-based)."""
        if t < 1:
            raise ValueError("step index starts at 1")
        if self.p == 0.0:
            return self.c
        index = t + self.index_offset  # an int, which may exceed every float
        eta = self.c * float(index) ** (-self.p) if index <= sys.float_info.max else 0.0
        if eta == 0.0:
            raise ValueError(f"the step at t = {t} is not a positive float")
        return eta

    def max_eta(self) -> float:
        """Largest step size the schedule ever produces (eta_1)."""
        return self.eta(1)


@dataclass
class ControllerState:
    """The controlled scalar, its target, and its position in the schedule."""

    value: float
    phi: float
    schedule: StepSchedule
    step_index: int = field(default=1, init=False)
    eta: float = field(init=False)  # the latest update's step size; before any, the first's

    def __post_init__(self):
        # every driver builds its state from its config's phi, so the configs leave phi
        # unchecked; only BanditConfig checks it too, as its cap default divides by 1 - phi
        if not 0.0 < self.phi < 1.0:
            raise ValueError(f"coverage target must lie strictly in (0, 1), got {self.phi}")
        if not math.isfinite(self.value):
            raise ValueError(f"initial state must be finite, got {self.value}")
        self.eta = self.schedule.eta(self.step_index)

    def drift(self, amount: float) -> float:
        """Move the state by eta_t * amount and advance the step index.

        Returns the step size that was applied, which ``eta`` records too.
        This is the raw primitive; use :func:`aci_update` for the standard
        (phi - reward) form.
        """
        eta = self.eta = self.schedule.eta(self.step_index)
        self.value += eta * amount
        self.step_index += 1
        return eta


def aci_update(state: ControllerState, reward: float) -> ControllerState:
    """Apply one additive calibration step: value += eta_t * (phi - reward).

    ``reward`` must lie in [0, 1]; it is binary in most settings but
    fractional success rates are accepted everywhere. No projection or
    clamping is ever applied to the state.
    """
    if not 0.0 <= reward <= 1.0:
        raise ValueError(f"reward must lie in [0, 1], got {reward}")
    state.drift(state.phi - reward)
    return state

