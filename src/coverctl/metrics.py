"""Validity and efficiency accounting over per-step traces, each one set of
columns (:class:`Trace`). A run may be read whole or one chunk of steps at a
time: :class:`MetricsReport` holds a run's running sums, from which the
cumulative series of its next chunk continue, and checks chunk by chunk."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


@dataclass
class Trace:
    """A run's per-step output as columns; row i is step t = i + 1.

    ``action`` holds the arm index, the effective threshold, the stocked
    level, or the probed chain as a tuple of arm indices, by setting.
    ``state`` is the raw controller value at decision time. ``extras`` maps
    each setting-specific column (``boundary``, or ``a``, ``leftover``, ``y``
    for inventory runs) to its values, in CSV order.
    """

    action: list
    reward: np.ndarray
    cost: np.ndarray
    state: np.ndarray
    extras: dict

    @classmethod
    def from_rows(cls, rows, extras) -> "Trace":
        """Transpose ``(action, reward, cost, state, *extras)`` rows, as the
        step functions return them, into columns named ``extras``."""
        action, *floats = list(zip(*rows)) or [()] * (4 + len(extras))
        reward, cost, state, *rest = (np.array(col, dtype=float) for col in floats)
        return cls(list(action), reward, cost, state, dict(zip(extras, rest, strict=True)))

    def __len__(self) -> int:
        return len(self.action)

    def __getitem__(self, rows: slice) -> "Trace":
        """The rows ``rows`` of every column, as a trace."""
        return Trace(self.action[rows], self.reward[rows], self.cost[rows], self.state[rows],
                     {name: col[rows] for name, col in self.extras.items()})

    @property
    def k(self) -> np.ndarray:
        """The probing budget K per step: in chain settings the cost, which
        is the probed chain's length; 0 in every other setting."""
        if self.action and isinstance(self.action[0], tuple):
            return self.cost.astype(np.int64)
        return np.zeros(len(self), dtype=np.int64)


@dataclass(slots=True)
class TraceRecord:
    """One row of a :class:`Trace`, read by step: ``k`` is the probing budget
    (0 outside chain settings) and ``extras`` the setting-specific columns."""

    t: int
    action: object
    reward: float
    cost: float
    state: float
    k: int
    extras: dict


def _running(values, start: float) -> tuple[np.ndarray, float]:
    """The running sums of ``values`` continued from ``start``, and the last
    of them (``start`` when ``values`` is empty): one left-to-right sum, so
    chunk after chunk gives the bits of one sum over the whole run."""
    sums = np.cumsum(np.concatenate(([start], values)))
    return sums[1:], float(sums[-1])


def coverage_series(trace: Trace, carry: MetricsReport | None = None) -> np.ndarray:
    """Running coverage of a trace, served over asked, by the trace's columns.

    A trace with ``y`` and ``a`` columns (an inventory run) serves y_s of a_s
    asked: sum_{s<=t} y_s / sum_{s<=t} a_s. Any other trace asks one unit a
    step and serves Y_s of it: (1/t) * sum_{s<=t} Y_s. This is the one
    statement of the rule; the ledger of :func:`coverctl.runner._drive` reads
    its sums. With ``carry`` the trace is a chunk of a run: the series
    continues from the run's sums and advances them.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    carry = MetricsReport() if carry is None else carry
    first = carry.steps + 1
    carry.steps += len(trace)
    if "a" in trace.extras:
        served, carry.served = _running(trace.extras["y"], carry.served)
        asked, carry.asked = _running(trace.extras["a"], carry.asked)
        return served / asked
    served, carry.served = _running(trace.reward, carry.served)
    carry.asked += len(trace)
    return served / np.arange(first, carry.steps + 1)


def regret_series(trace: Trace, c_star,
                  carry: MetricsReport | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative sums of the gap cost_t - c_star: ``(plain, positive_part)``,
    the second clipped at 0 per step.

    ``c_star`` may be a scalar or a per-step array (phase-wise benchmarks).
    With ``carry`` the trace is a chunk of a run, as in :func:`coverage_series`.
    """
    gap = trace.cost - np.asarray(c_star, dtype=float)
    if gap.shape != trace.cost.shape:
        raise ValueError("benchmark array length does not match the trace")
    carry = MetricsReport() if carry is None else carry
    plain, carry.regret = _running(gap, carry.regret)
    positive_part, carry.regret_pos = _running(np.maximum(gap, 0.0), carry.regret_pos)
    return plain, positive_part


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r2: float
    clipped: bool


def sublinearity_fit(end_regrets) -> SlopeFit:
    """Least-squares fit of log(regret) on log(T).

    ``end_regrets`` is a sequence of (T, regret) pairs from at least three
    horizons. Non-positive regrets are clipped to 1 and the clip is recorded
    on the returned fit.
    """
    pts = list(end_regrets)
    if len(pts) < 3:
        raise ValueError("need at least 3 horizons for a slope fit")
    ts = np.array([float(t) for t, _ in pts])
    rs = np.array([float(r) for _, r in pts])
    clipped = bool(np.any(rs < 1.0))
    rs = np.maximum(rs, 1.0)
    x = np.log(ts)
    y = np.log(rs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return SlopeFit(float(slope), float(intercept), r2, clipped)


def deviation_counter(trace: Trace, report, order_sensitive: bool = False) -> int:
    """Count steps whose played chain differs from the greedy prefix.

    The primary comparison is set-based: the reward depends only on which
    arms were probed, so an order-swapped prefix with identical contents
    does not count. Pass ``order_sensitive=True`` for the stricter count.
    Steps with an empty budget never count. Each chain is compared, in C, with
    the greedy prefix of its length, precomputed as a tuple or a frozenset.
    """
    chains = trace.action
    if not set().union(*chains) <= set(range(len(report.chain))):
        raise ValueError("trace chain references an arm outside the benchmark's arm set")
    lengths = list(map(len, chains))
    # an empty chain equals the empty prefix
    prefixes = [report.chain[:k] for k in range(max(lengths, default=0) + 1)]
    if not order_sensitive:
        prefixes = [frozenset(prefix) for prefix in prefixes]
        chains = map(frozenset, chains)
    return sum(map(operator.ne, chains, map(prefixes.__getitem__, lengths)))


class MetricsReport:
    """A run's running state, fed its trace a chunk at a time by :meth:`add`
    (a whole run is one chunk): the steps, the boundary count, and the
    served, asked, regret and positive-part regret sums that the series
    continue from. A sum starts at -0.0, which adds to any x as x, so a
    one-chunk run's sums are the plain ones. Every chunk's series are checked
    for the structural invariants: coverage stays in [0, 1] and positive-part
    regret never decreases (plain regret may), from one chunk to the next
    too. ``extras`` joins the summary.
    """

    def __init__(self, extras: dict | None = None):
        self.steps = self.boundary_steps = 0
        self.served = self.asked = self.regret = self.regret_pos = -0.0
        self.extras = {} if extras is None else extras

    def add(self, chunk: Trace, c_star) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Continue the run's coverage, regret and positive-part regret series
        over ``chunk`` against ``c_star`` (see :func:`regret_series`), check
        them and return them."""
        regret_pos_before = self.regret_pos
        coverage = coverage_series(chunk, self)
        regret, regret_pos = regret_series(chunk, c_star, self)
        if float(coverage.min()) < -1e-12 or float(coverage.max()) > 1 + 1e-12:
            raise ValueError("coverage series escaped [0, 1]")
        if float(np.diff(regret_pos, prepend=regret_pos_before).min()) < -1e-9:
            raise ValueError("positive-part regret series must be non-decreasing")
        self.boundary_steps += int(np.sum(chunk.extras.get("boundary", 0.0)))
        return coverage, regret, regret_pos

    def summary(self) -> dict:
        if not self.steps:
            raise ValueError("empty coverage series")
        return {
            "steps": self.steps,
            "coverage_final": self.served / self.asked,
            "regret_final": self.regret,
            "regret_pos_final": self.regret_pos,
            "boundary_steps": self.boundary_steps,
            **self.extras,
        }
