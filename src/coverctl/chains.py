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
from bisect import insort
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

    Each context holds (plays, mean, score) as Python float lists over the
    arms, where score is the optimistic mean + sqrt(2 log(nT) / plays).
    ``record_chain`` refreshes the score of each pair it updates. Unplayed
    (context, arm) pairs score +inf, which forces exploration and replaces
    any explicit warm-up pass.
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
        return [0.0] * self.n, [0.0] * self.n, [math.inf] * self.n

    def _key(self, position: int, prefix) -> object:
        if self.variant == POSITION_KEYED:
            return position
        return tuple(sorted(prefix))

    def record_chain(self, chain, prefix_values, t: int) -> None:
        """Record every probed slot of step ``t``: the arm in slot i gained
        ``prefix_values[i] - prefix_values[i - 1]`` (the first slot gains its
        own value) in the context of position i + 1 and the arms before it.

        One prefix value per chain arm, each in [0, 1]: a count mismatch, or a
        value outside, NaN included, raises ValueError before any statistic
        moves. A strictly negative marginal is warned about, at the caller of
        ``acog_step``, and recorded as-is.
        """
        values = [float(v) for v in prefix_values]
        if len(values) != len(chain):
            raise ValueError(f"{len(values)} prefix values for {len(chain)} chain arms at step {t}")
        for position, val in enumerate(values, start=1):
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"prefix value {val} at step {t}, position {position} "
                                 f"outside [0, 1]")
        table = self._table
        log_term = self._log_term
        by_position = self.variant == POSITION_KEYED
        prev = 0.0
        prefix: list[int] = []  # the arms before the slot, sorted: its context key
        for position, (arm, val) in enumerate(zip(chain, values), start=1):
            gain = val - prev
            if gain < -1e-12:
                warnings.warn(
                    f"negative marginal gain {gain} at step {t}, position {position}",
                    NonMonotoneFeedbackWarning,
                    stacklevel=3,
                )
            if by_position:
                key = position
            else:
                key = tuple(prefix)
                insort(prefix, arm)
            ctx = table.get(key)
            if ctx is None:
                ctx = table[key] = self._fresh()
            plays, mean, score = ctx
            k = plays[arm] = plays[arm] + 1.0
            m = mean[arm]
            m = mean[arm] = m + (gain - m) / k
            score[arm] = m + math.sqrt(log_term / k)
            prev = val

    def prime(self, position: int, prefix, means) -> None:
        """Inject exact statistics (oracle means, negligible widths): one
        finite mean per arm."""
        mean = np.asarray(means, dtype=float)
        if mean.shape != (self.n,) or not np.isfinite(mean).all():
            raise ValueError(f"prime needs {self.n} finite means")
        plays = np.full(self.n, float(_EXACT_PLAYS))
        score = mean + np.sqrt(self._log_term / plays)
        self._table[self._key(position, prefix)] = plays.tolist(), mean.tolist(), score.tolist()


def select_chain(stats: ChainStats, budget: int) -> list[int]:
    """Greedy fill of ``budget`` slots by optimistic marginal-gain score,
    read from the score lists of ``stats``.

    Ties (including between unplayed pairs, which all score +inf) break to
    the lowest arm index: ``max`` keeps the first maximum of the free arms,
    which it visits in index order.
    """
    if not 0 <= budget <= stats.n:
        raise ValueError(f"budget {budget} outside [0, {stats.n}]")
    table, unplayed = stats._table, stats._unplayed
    by_position = stats.variant == POSITION_KEYED
    free = list(range(stats.n))
    chain: list[int] = []
    for position in range(1, budget + 1):
        key = position if by_position else tuple(sorted(chain))
        arm = max(free, key=table.get(key, unplayed)[2].__getitem__)
        chain.append(arm)
        free.remove(arm)
    return chain


def budget_from_theta(theta: float, n: int) -> int:
    """Discrete budget ceil(theta) clipped to [0, n], for any theta but NaN.
    ``runner.drive_acog`` bounds theta below by -eta_max * (1 - phi), which a
    large step takes below -1, and above by no finite number: a theta that
    overflows to inf probes n arms before the driver loop refuses it."""
    return math.ceil(max(min(theta, n), 0))


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
    chain (semi-bandit feedback). Anything but one value per prefix, each in
    [0, 1] (NaN fails), raises ValueError naming the step before the
    statistics or theta move. Strictly negative marginals indicate a
    non-monotone environment; they are warned about and recorded as-is.
    Returns the row ``(chain, set value, K as the cost, decision-time theta,
    1.0 if K is 0 or n)``.
    """
    t = theta.step_index
    theta_now = theta.value
    k_now = budget_from_theta(theta_now, cfg.n)
    chain = select_chain(stats, k_now)
    prefix_values = env.probe(t, chain)
    stats.record_chain(chain, prefix_values, t)
    y = float(prefix_values[-1]) if chain else 0.0
    aci_update(theta, y)
    return tuple(chain), y, float(k_now), theta_now, 1.0 if k_now in (0, cfg.n) else 0.0
