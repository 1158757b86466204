"""Unprojected additive calibration engine.

The single mechanism shared by every controller in this package: a scalar
state (a dual price, a score threshold, a probing budget, or an inventory
level) moves each step by ``eta_t * (phi - Y_t)``, where ``Y_t`` in [0, 1]
is the observed success feedback and ``phi`` is the coverage target. The
state is never clamped here; any boundary handling belongs to the module
that consumes the state. Keeping the update raw is what makes the coverage
ledger identity exact: over any window driven with a constant step size,

    mean(Y) - phi == -(state_end - state_start) / (eta * L)

up to floating-point rounding. The driver loop keeps that ledger as two
numbers, the window's reward sum and its step count, and
:func:`telescoping_check` evaluates the identity from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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

    p = 0 is the constant step eta_t = c; p in (0, 1) decays, strictly
    positive and non-increasing in t. ``index_offset`` shifts the decay
    index; a schedule like 5/sqrt(t+1) is ``power(c=5, p=0.5, index_offset=1)``.
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

    @property
    def is_constant(self) -> bool:
        return self.p == 0.0

    def eta(self, t: int) -> float:
        """Step size at update index t (1-based)."""
        if t < 1:
            raise ValueError("step index starts at 1")
        if self.p == 0.0:
            return self.c
        return self.c * float(t + self.index_offset) ** (-self.p)

    def max_eta(self) -> float:
        """Largest step size the schedule ever produces (eta_1)."""
        return self.eta(1)


@dataclass
class ControllerState:
    """The controlled scalar, its target, and its position in the schedule."""

    value: float
    phi: float
    schedule: StepSchedule
    step_index: int = 1

    def __post_init__(self):
        # every driver builds its state from its config's phi, so the configs leave phi
        # unchecked; only BanditConfig checks it too, as its cap default divides by 1 - phi
        if not 0.0 < self.phi < 1.0:
            raise ValueError(f"coverage target must lie strictly in (0, 1), got {self.phi}")
        if not math.isfinite(self.value):
            raise ValueError(f"initial state must be finite, got {self.value}")

    def drift(self, amount: float) -> float:
        """Move the state by eta_t * amount and advance the step index.

        Returns the step size that was applied. This is the raw primitive;
        use :func:`aci_update` for the standard (phi - reward) form.
        """
        eta = self.schedule.eta(self.step_index)
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


def telescoping_check(state: ControllerState, state_start: float, reward_sum: float,
                      steps: int) -> float:
    """Residual of the exact coverage identity over a window of ``steps``
    updates whose rewards sum to ``reward_sum`` and that moved ``state`` from
    ``state_start`` to its current value.

    Returns ((reward_sum / L) - phi) + (state_end - state_start) / (eta * L).
    For any window driven exclusively by :func:`aci_update` with a constant
    step size the residual is zero up to accumulated floating rounding
    (<= 1e-9 for windows up to 1e6 steps with states of magnitude <= 100).
    Decaying schedules are rejected: the identity is only stated for a
    constant step.
    """
    if not state.schedule.is_constant:
        raise ValueError("telescoping identity requires a constant step size")
    if steps < 1:
        raise ValueError("ledger window is empty")
    drift_term = (state.value - state_start) / (state.schedule.eta(1) * steps)
    return (reward_sum / steps - state.phi) + drift_term
