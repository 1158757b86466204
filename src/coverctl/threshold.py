"""Memoryless scalar controllers: threshold calibration and inventory.

Both apply the additive update directly to the acted-upon quantity. The raw
state is never clamped — only the action submitted to the world is. For the
threshold controller the submitted action is clamp(tau, tau_min, tau_max);
for the inventory controller the stocked level is min(q, D). Keeping the
state raw preserves the exact coverage ledger identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .control import ControllerState, InvariantViolation, StepSchedule, aci_update


@dataclass(frozen=True)
class ThresholdConfig:
    tau_min: float
    tau_max: float
    phi: float
    schedule: StepSchedule

    def __post_init__(self):
        if not self.tau_min < self.tau_max:
            raise ValueError("tau_max must exceed tau_min")


def threshold_step(tau: ControllerState, cfg: ThresholdConfig, env) -> tuple:
    """Submit the clamped threshold, observe the binary outcome, update raw.

    The environment is queried at tau_eff = clamp(tau, tau_min, tau_max) and
    must return a success bit in {0, 1} plus a cost. On any input sequence
    satisfying the monotone-step model the raw state then stays inside
    [tau_min - eta_max, tau_max + eta_max]. Returns the row
    ``(tau_eff, y, cost, decision-time tau, 1.0 if tau is outside the range)``.
    """
    t = tau.step_index
    raw = tau.value
    tau_eff = min(max(raw, cfg.tau_min), cfg.tau_max)
    y, cost = env.evaluate(t, tau_eff)
    if y not in (0, 1):
        raise ValueError(f"threshold feedback must be binary, got {y!r}")
    aci_update(tau, float(y))
    boundary = raw < cfg.tau_min or raw > cfg.tau_max
    return float(tau_eff), float(y), float(cost), raw, 1.0 if boundary else 0.0


@dataclass(frozen=True)
class NewsvendorConfig:
    """Inventory controller parameters.

    ``demand_cap`` is D: per-step demand lives in [1, D] and stocked
    inventory is capped at D. With ``dynamic_carryover`` the leftover
    (q_eff - a)^+ persists to the next period, which requires every step
    size to lie in (0, 1) so the prescribed level is always reachable by
    ordering non-negative stock.
    """

    demand_cap: float
    phi: float
    schedule: StepSchedule
    dynamic_carryover: bool = False

    def __post_init__(self):
        if not 1.0 <= self.demand_cap:
            raise ValueError("demand cap D must be at least 1")
        if self.dynamic_carryover and self.schedule.max_eta() >= 1.0:
            raise ValueError(
                "dynamic carry-over requires step sizes in (0, 1); "
                f"schedule starts at {self.schedule.max_eta()}"
            )


def newsvendor_step(q: ControllerState, cfg: NewsvendorConfig, demand: float) -> tuple:
    """One inventory period: stock min(q, D), serve min(demand, stocked).

    Updates q by eta_t * (phi * a - y). The drift is strictly positive at
    empty inventory and strictly negative above D, so the state needs no
    projection. In dynamic mode the no-returns identity
    q_next - leftover = y (1 - eta) + eta phi a >= 0
    is checked on every step (:class:`~coverctl.control.InvariantViolation`).
    Returns the row ``(stock, y / a, stock, decision-time q, a, leftover, y)``
    for demand ``a`` and sales ``y``.
    """
    if not 1.0 <= demand <= cfg.demand_cap:
        raise ValueError(f"demand {demand} outside [1, {cfg.demand_cap}]")
    t = q.step_index
    raw = q.value
    q_eff = min(raw, cfg.demand_cap)
    y = min(demand, q_eff)
    leftover = max(q_eff - demand, 0.0)
    eta = q.drift(q.phi * demand - y)
    if cfg.dynamic_carryover:
        order_up = y * (1.0 - eta) + eta * q.phi * demand
        if order_up < 0.0:
            raise InvariantViolation(t, order_up, (0.0, math.inf), "no-returns order")
        if q.value - leftover < -1e-9:
            raise InvariantViolation(t, q.value - leftover, (-1e-9, math.inf),
                                     "prescribed level over carried inventory")
    return (float(q_eff), float(y / demand), float(q_eff), raw,
            float(demand), float(leftover), float(y))

