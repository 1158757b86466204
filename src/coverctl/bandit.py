"""Primal-dual arm selection with an unprojected dual price.

A Lagrangian rule picks arms from optimistic reward and pessimistic cost
estimates while the dual price moves by the raw additive calibration update.
The dual is never projected; instead, explicit boundary arms absorb it:
when the price is at or above its cap the guaranteed-success arm is forced,
and when it is at or below zero the null arm is forced. A projected-dual
variant (the classical construction) is included as an ablation baseline;
it keeps the price in [0, cap] by clamping after the same increment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import ControllerState, StepSchedule, aci_update

BOUNDARY_RULE = "boundary"
PROJECTED_BASELINE = "projected"


class FeedbackError(RuntimeError):
    """The environment returned feedback outside its declared range."""


@dataclass
class BanditConfig:
    """Static parameters of one primal-dual run.

    ``i_min`` must index an arm with cost 0 and reward 0 always, ``i_max``
    one with cost c_max and reward 1 always (the environment constructors
    enforce this). ``lambda_cap`` defaults to c_max / (1 - phi).
    """

    n: int
    c_max: float
    phi: float
    horizon_T: int
    i_min: int
    i_max: int
    lambda_cap: float | None = None
    mode: str = BOUNDARY_RULE

    def __post_init__(self):
        if not 0.0 < self.phi < 1.0:
            raise ValueError("phi must lie strictly in (0, 1)")
        if not 0.0 < self.c_max < math.inf:
            raise ValueError(f"c_max must be positive and finite, got {self.c_max}")
        if self.n * self.horizon_T < 3:
            raise ValueError("n * horizon_T must be at least 3")
        if not (0 <= self.i_min < self.n and 0 <= self.i_max < self.n):
            raise ValueError("boundary arm indices out of range")
        if self.mode not in (BOUNDARY_RULE, PROJECTED_BASELINE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.lambda_cap is None:
            self.lambda_cap = self.c_max / (1.0 - self.phi)
        if not 0.0 < self.lambda_cap < math.inf:
            raise ValueError(f"lambda_cap must be positive and finite, got {self.lambda_cap}")


class BanditState:
    """Dual price plus per-arm statistics and confidence bounds.

    ``plays``, ``mean_reward`` and ``mean_cost`` are Python lists, read and
    written one entry per step. ``reward_ucb`` and ``cost_lcb`` are flat
    arrays, because :func:`select_arm` takes its argmin over them: the
    optimistic reward and pessimistic cost of each arm, the mean plus (minus
    c_max times) the confidence width sqrt(2 log(nT) / plays). ``record``
    refreshes them for the played arm only, the one arm whose statistics
    change; an unplayed arm holds the bounds of zero plays, +inf and -inf.
    """

    def __init__(self, cfg: BanditConfig, schedule: StepSchedule):
        self.dual = ControllerState(value=0.0, phi=cfg.phi, schedule=schedule)
        self.plays = [0] * cfg.n
        self.mean_reward = [0.0] * cfg.n
        self.mean_cost = [0.0] * cfg.n
        self.reward_ucb = np.full(cfg.n, np.inf)
        self.cost_lcb = np.full(cfg.n, -np.inf)
        self.step = 1
        self._c_max = cfg.c_max
        self._log_term = 2.0 * math.log(cfg.n * cfg.horizon_T)

    def record(self, arm: int, reward: float, cost: float) -> None:
        # Python scalars for speed: each operation rounds as its numpy form would
        k = self.plays[arm] = self.plays[arm] + 1
        r, c = self.mean_reward[arm], self.mean_cost[arm]
        r = self.mean_reward[arm] = r + (reward - r) / k
        c = self.mean_cost[arm] = c + (cost - c) / k
        delta = math.sqrt(self._log_term / k)
        self.reward_ucb[arm] = r + delta
        self.cost_lcb[arm] = c - self._c_max * delta


def select_arm(state: BanditState, cfg: BanditConfig) -> int:
    """Pick the next arm once the warm-up pass (steps 1..n) is over.

    Boundary mode: price >= cap forces i_max, price <= 0 forces i_min,
    otherwise the Lagrangian argmin of cost_lcb - price * reward_ucb over
    the raw (unclipped) bounds, ties broken by lowest arm index. The
    projected baseline always plays the argmin and relies on the
    post-update projection instead; as in the projected-dual algorithms it
    stands in for, its argmin caps the optimistic reward at 1 so a
    never-played arm cannot look better than a guaranteed success.
    """
    if state.step <= cfg.n:
        raise ValueError("warm-up pass incomplete: some arm has never been played")
    lam = state.dual.value
    reward_ucb = state.reward_ucb
    if cfg.mode == BOUNDARY_RULE:
        if lam >= cfg.lambda_cap:
            return cfg.i_max
        if lam <= 0.0:
            return cfg.i_min
    else:
        reward_ucb = np.minimum(reward_ucb, 1.0)
    return int((state.cost_lcb - lam * reward_ucb).argmin())


def bandit_step(state: BanditState, cfg: BanditConfig, env) -> tuple:
    """Play one step: warm-up plays arms 0..n-1 in index order, then the
    selection rule takes over. The played arm's statistics are updated on
    every play (boundary arms included); the dual moves only once the
    warm-up pass is over, so it starts the controlled phase at exactly its
    initial value and stays inside its band for any step size. Returns the
    row ``(arm, reward, cost, decision-time dual, 1.0 if a boundary arm was forced)``.
    """
    t = state.step
    lam = state.dual.value
    if t <= cfg.n:
        arm = t - 1
        boundary = False
    else:
        arm = select_arm(state, cfg)
        boundary = cfg.mode == BOUNDARY_RULE and (lam >= cfg.lambda_cap or lam <= 0.0)
    reward, cost = env.pull(t, arm)
    if not 0.0 <= reward <= 1.0:  # checked here too: the warm-up pass skips aci_update's check
        raise FeedbackError(f"arm {arm} returned reward {reward} outside [0, 1] at step {t}")
    if not -1e-9 <= cost <= cfg.c_max + 1e-9:
        raise FeedbackError(
            f"arm {arm} returned cost {cost} outside [0, {cfg.c_max}] at step {t}"
        )
    state.record(arm, reward, cost)
    if t > cfg.n:
        aci_update(state.dual, reward)
        if cfg.mode == PROJECTED_BASELINE:
            state.dual.value = min(max(state.dual.value, 0.0), cfg.lambda_cap)
    state.step += 1
    return arm, float(reward), float(cost), lam, 1.0 if boundary else 0.0
