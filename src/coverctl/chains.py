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

PREFIX_KEYED = "prefix"
POSITION_KEYED = "position"

# plays injected by prime(); large enough that confidence widths are
# negligible yet identical across arms, so score order equals mean order.
_EXACT_PLAYS = 10**18


class NonMonotoneFeedbackWarning(UserWarning):
    """The environment reported a strictly negative marginal gain."""


class ChainStats:
    """Per-(position, prefix) running means of observed marginal gains.

    Each context holds (plays, mean, score) arrays over the arms, where
    score is the optimistic mean + sqrt(2 log(nT) / plays). ``record``
    refreshes the score of the one pair it updates. Unplayed (context, arm)
    pairs score +inf, which forces exploration and replaces any explicit
    warm-up pass.
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
        self._unplayed = self._fresh()

    def _fresh(self) -> tuple:
        return np.zeros(self.n), np.zeros(self.n), np.full(self.n, np.inf)

    def _key(self, position: int, prefix) -> object:
        if self.variant == POSITION_KEYED:
            return position
        return tuple(sorted(prefix))

    def _context(self, key):
        ctx = self._table.get(key)
        if ctx is None:
            ctx = self._table[key] = self._fresh()
        return ctx

    def record(self, position: int, prefix, arm: int, gain: float) -> None:
        plays, mean, score = self._context(self._key(position, prefix))
        # Python scalars for speed: each operation rounds as its numpy form would
        k = plays[arm] = float(plays[arm]) + 1.0
        m = float(mean[arm])
        m = mean[arm] = m + (gain - m) / k
        score[arm] = m + math.sqrt(self._log_term / k)

    def prime(self, position: int, prefix, means) -> None:
        """Inject exact statistics (oracle means, negligible widths)."""
        plays, mean, score = self._context(self._key(position, prefix))
        plays[:] = float(_EXACT_PLAYS)
        mean[:] = np.asarray(means, dtype=float)
        score[:] = mean + np.sqrt(self._log_term / plays)


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
        score = stats._table.get(stats._key(position, chain), stats._unplayed)[2]
        arm = int(np.where(chosen, -np.inf, score).argmax())
        chain.append(arm)
        chosen[arm] = True
    return chain


def budget_from_theta(theta: float, n: int) -> int:
    """Discrete budget ceil(theta) clipped to [0, n]. ``runner.drive_acog``
    bounds theta below by -eta_max * (1 - phi) only, so a large step can take
    it below -1, and above by nothing; every theta <= 0 probes the empty
    chain."""
    return max(0, min(n, math.ceil(theta)))


@dataclass(frozen=True)
class ChainConfig:
    n: int
    phi: float
    horizon_T: int


def acog_step(theta: ControllerState, stats: ChainStats, cfg: ChainConfig, env) -> tuple:
    """Probe the chain of budget K = budget_from_theta(theta), update experts
    from realized marginal gains, then move theta by the calibration update on
    the observed set value.

    The environment returns the value of every prefix of the played ordered
    chain (semi-bandit feedback). Strictly negative marginals indicate a
    non-monotone environment; they are warned about and recorded as-is.
    Returns the row ``(chain, set value, K as the cost, decision-time theta,
    1.0 if K is 0 or n)``.
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
    return tuple(chain), y, float(k_now), theta_now, 1.0 if k_now in (0, cfg.n) else 0.0
