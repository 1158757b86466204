"""Validity and efficiency accounting over per-step traces, each one set of
columns (:class:`Trace`). A run may be read whole or one chunk of steps at a
time: the cumulative series continue across chunks from a :class:`Carry`, and
:class:`MetricsReport` checks and sums chunk by chunk."""

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


@dataclass
class Carry:
    """Where the cumulative series of a run's next chunk continue from: the
    steps before it and the running sums over them. A sum starts at -0.0,
    which adds to any x as x, so a one-chunk run's sums are the plain ones."""

    steps: int = 0
    served: float = -0.0
    asked: float = -0.0
    regret: float = -0.0
    regret_pos: float = -0.0


def _running(values, start: float) -> tuple[np.ndarray, float]:
    """The running sums of ``values`` continued from ``start``, and the last
    of them (``start`` when ``values`` is empty): one left-to-right sum, so
    chunk after chunk gives the bits of one sum over the whole run."""
    sums = np.cumsum(np.concatenate(([start], values)))
    return sums[1:], sums[-1]


def coverage_series(trace: Trace, carry: Carry | None = None) -> np.ndarray:
    """Running coverage of a trace, served over asked, by the trace's columns.

    A trace with ``y`` and ``a`` columns (an inventory run) serves y_s of a_s
    asked: sum_{s<=t} y_s / sum_{s<=t} a_s. Any other trace asks one unit a
    step and serves Y_s of it: (1/t) * sum_{s<=t} Y_s. This is the rule of the
    ledger that :func:`coverctl.runner._drive` keeps. With ``carry`` the trace
    is a chunk of a run: the series continues from it and advances it.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    carry = Carry() if carry is None else carry
    first = carry.steps + 1
    carry.steps += len(trace)
    if "a" in trace.extras:
        served, carry.served = _running(trace.extras["y"], carry.served)
        asked, carry.asked = _running(trace.extras["a"], carry.asked)
        return served / asked
    served, carry.served = _running(trace.reward, carry.served)
    return served / np.arange(first, carry.steps + 1)


def regret_series(trace: Trace, c_star, positive_part: bool = False,
                  carry: Carry | None = None) -> np.ndarray:
    """Cumulative sum of (cost_t - c_star), optionally clipped at 0 per step.

    ``c_star`` may be a scalar or a per-step array (phase-wise benchmarks).
    With ``carry`` the trace is a chunk of a run, as in :func:`coverage_series`.
    """
    gap = trace.cost - np.asarray(c_star, dtype=float)
    if gap.shape != trace.cost.shape:
        raise ValueError("benchmark array length does not match the trace")
    carry = Carry() if carry is None else carry
    if positive_part:
        series, carry.regret_pos = _running(np.maximum(gap, 0.0), carry.regret_pos)
    else:
        series, carry.regret = _running(gap, carry.regret)
    return series


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
    """Per-run summary, fed the run's cumulative series a chunk at a time by
    :meth:`add` (a whole run is one chunk); ``extras`` joins the summary.

    Every chunk is checked for the structural invariants: coverage stays in
    [0, 1] and positive-part regret never decreases (plain regret may), from
    one chunk to the next too.
    """

    def __init__(self, extras: dict | None = None):
        self.steps = self.boundary_steps = 0
        self.extras = {} if extras is None else extras

    def add(self, coverage_cum, regret_cum, regret_pos_cum, boundary_steps: int) -> None:
        if coverage_cum.size == 0:
            raise ValueError("empty coverage series")
        if float(coverage_cum.min()) < -1e-12 or float(coverage_cum.max()) > 1 + 1e-12:
            raise ValueError("coverage series escaped [0, 1]")
        if self.steps:  # the last chunk's final value leads this one
            regret_pos_cum = np.concatenate(([self.regret_pos_final], regret_pos_cum))
        if regret_pos_cum.size and float(np.diff(regret_pos_cum).min(initial=0.0)) < -1e-9:
            raise ValueError("positive-part regret series must be non-decreasing")
        self.steps += coverage_cum.size
        self.boundary_steps += int(boundary_steps)
        self.coverage_final = float(coverage_cum[-1])
        self.regret_final = float(regret_cum[-1])
        self.regret_pos_final = float(regret_pos_cum[-1])

    def summary(self) -> dict:
        if not self.steps:
            raise ValueError("empty coverage series")
        out = {
            "steps": self.steps,
            "coverage_final": self.coverage_final,
            "regret_final": self.regret_final,
            "regret_pos_final": self.regret_pos_final,
            "boundary_steps": self.boundary_steps,
        }
        out.update(self.extras)
        return out
