"""Budgeted greedy chain selection with semi-bandit marginal-gain learning.

A continuous budget variable theta moves by the additive calibration update
on the observed set value; the discrete probe budget is K = min(n, ceil(theta)).
An expert chain fills the K slots greedily by optimistic marginal-gain
scores. Statistics can be keyed by the exact prefix set (the full contextual
variant) or by position only (the simplified learning-to-rank variant, which
the OR-style environments collapse to).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .control import ControllerState, aci_update
from .metrics import TraceRecord

PREFIX_KEYED = "prefix"
POSITION_KEYED = "position"

# plays injected by prime(); large enough that confidence widths are
# negligible yet identical across arms, so score order equals mean order.
_EXACT_PLAYS = 10**18


class NonMonotoneFeedbackWarning(UserWarning):
    """The environment reported a strictly negative marginal gain."""


class ChainStats:
    """Per-(position, prefix) running means of observed marginal gains.

    Unplayed (context, arm) pairs score +inf, which forces exploration and
    replaces any explicit warm-up pass.
    """

    def __init__(self, n: int, horizon_T: int, variant: str = PREFIX_KEYED):
        if variant not in (PREFIX_KEYED, POSITION_KEYED):
            raise ValueError(f"unknown variant {variant!r}")
        if n < 1:
            raise ValueError("need at least one arm")
        if n * horizon_T < 3:
            raise ValueError("n * horizon_T must be at least 3")
        self.n = n
        self.horizon_T = horizon_T
        self.variant = variant
        self._log_term = 2.0 * math.log(n * horizon_T)
        self._table: dict = {}
        # read, never written, for a context with no plays yet: every arm scores +inf
        self._unplayed = (np.zeros(n), np.zeros(n))

    def _key(self, position: int, prefix) -> object:
        if self.variant == POSITION_KEYED:
            return position
        return tuple(sorted(prefix))

    def _context(self, key):
        ctx = self._table.get(key)
        if ctx is None:
            ctx = (np.zeros(self.n), np.zeros(self.n))
            self._table[key] = ctx
        return ctx

    def record(self, position: int, prefix, arm: int, gain: float) -> None:
        plays, mean = self._context(self._key(position, prefix))
        plays[arm] += 1.0
        mean[arm] += (gain - mean[arm]) / plays[arm]

    def prime(self, position: int, prefix, means) -> None:
        """Inject exact statistics (oracle means, negligible widths)."""
        plays, mean = self._context(self._key(position, prefix))
        plays[:] = float(_EXACT_PLAYS)
        mean[:] = np.asarray(means, dtype=float)


def select_chain(stats: ChainStats, budget: int) -> list[int]:
    """Greedy fill of ``budget`` slots by optimistic marginal-gain score.

    Ties (including between unplayed pairs, which all score +inf) break to
    the lowest arm index.
    """
    if not 0 <= budget <= stats.n:
        raise ValueError(f"budget {budget} outside [0, {stats.n}]")
    chain: list[int] = []
    chosen = np.zeros(stats.n, dtype=bool)
    for position in range(1, budget + 1):
        plays, mean = stats._table.get(stats._key(position, chain), stats._unplayed)
        with np.errstate(divide="ignore"):
            score = mean + np.sqrt(stats._log_term / plays)
        score[chosen] = -np.inf
        arm = int(np.argmax(score))
        chain.append(arm)
        chosen[arm] = True
    return chain


def budget_from_theta(theta: float, n: int) -> int:
    """Discrete budget min(n, ceil(theta)); the drift argument keeps
    theta > -1, so the result is never negative."""
    if theta < -1.0:
        raise ValueError(f"theta {theta} below -1; controller state corrupted")
    return min(n, math.ceil(theta))


@dataclass(frozen=True)
class ChainConfig:
    n: int
    phi: float
    horizon_T: int


def acog_step(theta: ControllerState, stats: ChainStats, cfg: ChainConfig, env) -> TraceRecord:
    """Probe the chain of budget K = budget_from_theta(theta), update experts
    from realized marginal gains, then move theta by the calibration update on
    the observed set value.

    The environment returns the value of every prefix of the played ordered
    chain (semi-bandit feedback). Strictly negative marginals indicate a
    non-monotone environment; they are warned about and recorded as-is.
    """
    t = theta.step_index
    theta_now = theta.value
    k_now = budget_from_theta(theta_now, cfg.n)
    chain = select_chain(stats, k_now)
    prefix_values = env.probe(t, chain)
    if len(prefix_values) != len(chain):
        raise ValueError("environment must return one value per chain prefix")
    y = float(prefix_values[-1]) if chain else 0.0
    prev = 0.0
    for position, arm in enumerate(chain, start=1):
        val = float(prefix_values[position - 1])
        gain = val - prev
        if gain < -1e-12:
            warnings.warn(
                f"negative marginal gain {gain} at step {t}, position {position}",
                NonMonotoneFeedbackWarning,
                stacklevel=2,
            )
        stats.record(position, chain[: position - 1], arm, gain)
        prev = val
    aci_update(theta, y)
    return TraceRecord(
        t=t,
        action=tuple(chain),
        reward=y,
        cost=float(k_now),
        state=theta_now,
        k=k_now,
        extras={"boundary": 1.0 if k_now in (0, cfg.n) else 0.0},
    )
