"""Exact offline benchmarks for the regret metrics.

Every benchmark here consumes true environment parameters, never samples.
The linear program over arm mixtures is solved by support-2 enumeration
(one coverage constraint plus the simplex constraint admit an optimal basic
solution mixing at most two arms), which keeps the solution exact without a
solver dependency.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


_FLOAT_MAX = int(sys.float_info.max)  # the largest float, as an exact integer
_BETA_SHAPES = 64  # (a, b) shapes whose beta_cdf coefficients are kept


class InfeasibleBenchmarkError(ValueError):
    """No policy of the benchmark class can reach the coverage target."""


@dataclass(frozen=True)
class LpSolution:
    """Cheapest arm mixture meeting the coverage target in expectation."""

    c_star: float
    mixture: tuple[float, ...]


def lp_benchmark(p, omega, phi: float) -> LpSolution:
    """Minimize sum x_i omega_i over the simplex s.t. sum x_i p_i >= phi.

    Exact: enumerates every single arm with p_i >= phi and every pair mixed
    to meet the coverage constraint with equality, and returns the cheapest.

    Parameters
    ----------
    p, omega : sequences of true mean rewards and mean costs per arm.
    phi : coverage target; phi <= 0 makes the constraint vacuous.

    Raises
    ------
    InfeasibleBenchmarkError
        If no mixture reaches phi (i.e. max_i p_i < phi).
    """
    p = [float(x) for x in p]
    omega = [float(x) for x in omega]
    if len(p) != len(omega) or not p:
        raise ValueError("p and omega must be equal-length, non-empty")
    n = len(p)
    tol = 1e-9
    best_cost, best = math.inf, None  # best: {arm: weight} of the cheapest mixture so far
    for i in range(n):
        if p[i] >= phi - tol and omega[i] < best_cost:
            best_cost, best = omega[i], {i: 1.0}
    for i in range(n):
        for j in range(n):
            if i == j or p[i] <= p[j]:
                continue
            # weight on the higher-reward arm i to meet the target exactly
            x = (phi - p[j]) / (p[i] - p[j])
            if x < 0.0 or x > 1.0:
                continue
            cost = x * omega[i] + (1.0 - x) * omega[j]
            if cost < best_cost - 1e-15:
                best_cost, best = cost, {i: x, j: 1.0 - x}
    if best is None:
        raise InfeasibleBenchmarkError(
            f"arm-mixture benchmark infeasible: no mixture reaches phi={phi}"
        )
    return LpSolution(c_star=float(best_cost), mixture=tuple(best.get(i, 0.0) for i in range(n)))


def beta_cdf(x: float, a: int, b: int) -> float:
    """CDF of Beta(a, b) for integer shapes, in closed form: the a-th smallest
    of a+b-1 uniforms is Beta(a, b), so I_x(a, b) is the binomial tail
    P(at least a of them fall below x)."""
    x, n = min(max(x, 0.0), 1.0), a + b - 1
    return sum(c * x**j * (1.0 - x) ** (n - j) for j, c in enumerate(beta_coefficients(a, b), a))


@lru_cache(maxsize=_BETA_SHAPES)
def beta_coefficients(a: int, b: int) -> tuple[float, ...]:
    """The floats C(n, j), n = a+b-1, j = a .. n, that :func:`beta_cdf` sums. ValueError
    unless a and b are integers >= 1 and no such C(n, j) exceeds the largest float. The
    loop runs in exact integers down from C(n, n) = 1, and C(n, j) rises as j falls to
    n/2, so it stops at the first coefficient past the bound."""
    if not all(1 <= s < math.inf and int(s) == s for s in (a, b)):
        raise ValueError(f"beta point distribution needs integer shapes >= 1, got {a}, {b}")
    n, c, coefficients = int(a) + int(b) - 1, 1, [1.0]
    for j in range(n, int(a), -1):
        c = c * j // (n - j + 1)  # C(n, j - 1), exactly
        if c > _FLOAT_MAX:
            raise ValueError(f"beta shapes {a}, {b} out of range: a coefficient"
                             f" C(a+b-1, j), j >= a, of beta_cdf exceeds the largest float")
        coefficients.append(float(c))
    return tuple(reversed(coefficients))


def _bisect(f, target: float, lo: float, hi: float, tol: float) -> float:
    """Midpoint of the bracket [lo, hi] of f(x) = target for a non-decreasing
    f, halved until it is no wider than ``tol``."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def threshold_benchmark(r_curve, phi: float, tau_min: float, tau_max: float) -> float:
    """Cheapest stationary threshold meeting the target in expectation.

    ``r_curve`` must be continuous and non-decreasing on [tau_min, tau_max]
    with r(tau_min) <= phi <= r(tau_max); the root tau* of r(tau) = phi is
    located by bisection to 1e-10 and returned. A threshold is its own cost
    in the score world, so tau* is also the cost benchmark c*.
    """
    r_lo, r_hi = r_curve(tau_min), r_curve(tau_max)
    if not r_lo <= phi <= r_hi:
        raise InfeasibleBenchmarkError(
            f"threshold benchmark infeasible: phi={phi} outside [{r_lo}, {r_hi}]"
        )
    return _bisect(r_curve, phi, tau_min, tau_max, 1e-10)


@dataclass(frozen=True)
class IntervalBenchmark:
    """Optimal grid interval plus the continuous optimum as metadata."""

    lo: float
    hi: float
    c_star: float
    continuous_c_star: float

    @property
    def discretization_gap(self) -> float:
        return self.c_star - self.continuous_c_star


_RESOLUTION = 2000  # grid cells of the continuous interval optimum


def _continuous_interval_optimum(point_cdf, phi: float) -> float:
    """Shortest window [l, l+w] with mass >= phi, to ~1/_RESOLUTION accuracy."""
    grid = np.linspace(0.0, 1.0, _RESOLUTION + 1)
    cdf = np.array([point_cdf(x) for x in grid])
    lo_w, hi_w = 0.0, 1.0
    for _ in range(40):
        w = 0.5 * (lo_w + hi_w)
        offset = int(round(w * _RESOLUTION))  # w < 1, so at most _RESOLUTION
        best = float(np.max(cdf[offset:] - cdf[: _RESOLUTION + 1 - offset]))
        if best >= phi:
            hi_w = w
        else:
            lo_w = w
    return hi_w


def grid_cells(delta: float) -> int:
    """The cell count m of the grid of [0, 1] with step ``delta``; ValueError unless
    m * delta is within 1e-12 of 1 (NaN, infinities and overflowing 1/delta fail)."""
    m = round(1.0 / delta) if 0.0 < delta and 1.0 / delta < math.inf else 0
    if not abs(m * delta - 1.0) <= 1e-12:
        raise ValueError(f"delta={delta} does not divide 1")
    return m


def interval_benchmark(delta: float, point_cdf, phi: float) -> IntervalBenchmark:
    """Shortest grid interval with true mass at least phi.

    Enumerates all intervals [i delta, j delta]; ties break to the smallest
    left endpoint. This discrete optimum is the regret benchmark; the
    continuous optimum is reported alongside so the rounding loss is visible
    separately. InfeasibleBenchmarkError if even [0, 1] has mass below phi.
    """
    m = grid_cells(delta)
    cdf = [point_cdf(i * delta) for i in range(m + 1)]
    best = None
    for j_minus_i in range(1, m + 1):
        for i in range(0, m + 1 - j_minus_i):
            mass = cdf[i + j_minus_i] - cdf[i]
            if mass >= phi - 1e-12:
                best = (i * delta, (i + j_minus_i) * delta, j_minus_i * delta)
                break
        if best is not None:
            break
    if best is None:
        raise InfeasibleBenchmarkError(
            f"grid-interval benchmark infeasible: mass {cdf[-1] - cdf[0]} of [0, 1] below phi={phi}"
        )
    cont = _continuous_interval_optimum(point_cdf, phi)
    return IntervalBenchmark(lo=best[0], hi=best[1], c_star=best[2], continuous_c_star=cont)


def newsvendor_benchmark(pmf, phi: float) -> tuple[float, float]:
    """Base-stock level whose expected fulfillment is phi times mean demand.

    ``pmf`` is a dict mapping demand values to probabilities. The expected fulfillment
    r(q) = E[min(a, q)] is piecewise linear and concave; the root of
    r(q) = phi * mu is found by bisection to 1e-8. Returns (q_star, mu).
    """
    items = sorted(pmf.items())
    total = sum(w for _, w in items)
    if not abs(total - 1.0) <= 1e-9:  # a NaN total fails too
        raise ValueError(f"pmf weights sum to {total}, expected 1")
    mu = sum(v * w for v, w in items)

    def r(q: float) -> float:
        return sum(w * min(v, q) for v, w in items)

    target = phi * mu
    # r at the largest demand is mu, term for term: the most any level fulfills
    if target > mu + 1e-12:
        raise InfeasibleBenchmarkError(
            f"inventory benchmark infeasible: phi*mu={target} exceeds E[a]={mu}"
        )
    return _bisect(r, target, 0.0, items[-1][0], 1e-8), mu


@dataclass(frozen=True)
class GreedyReport:
    """Greedy chain of a monotone set function with its value profile.

    ``prefix_values[k]`` is the true expected value of the first k chain
    arms (prefix_values[0] == 0). ``gap_delta`` is the smallest positional
    gap between the chosen arm and any competitor; None for one arm, which
    has no competitor. ``budget_for`` refuses a target that no prefix reaches.
    """

    chain: tuple[int, ...]
    prefix_values: tuple[float, ...]
    gap_delta: float | None

    def budget_for(self, rho: float) -> int:
        """Minimum prefix length whose value reaches rho (InfeasibleBenchmarkError if none)."""
        for k, v in enumerate(self.prefix_values):
            if v >= rho:
                return k
        raise InfeasibleBenchmarkError(f"greedy-chain benchmark infeasible: full-set value "
                                       f"{self.prefix_values[-1]:.4f} below phi={rho}")

    def is_degenerate(self, phi: float) -> bool:
        """True unless the prefix one past :meth:`budget_for`'s budget (whose error it
        raises) exceeds phi by more than 1e-6; also True when no such prefix exists."""
        k = self.budget_for(phi)
        return k + 1 >= len(self.prefix_values) or self.prefix_values[k + 1] - phi <= 1e-6


def greedy_chain(f_oracle, n: int) -> GreedyReport:
    """Build the full greedy ordering under the true expected set value.

    ``f_oracle`` evaluates the expected value of an arm subset exactly.
    Ties break to the lowest arm index. Rejects non-monotone value profiles.
    """
    if n < 1:
        raise ValueError("need at least one arm")
    chain: list[int] = []
    values = [0.0]
    remaining = list(range(n))
    gaps: list[float] = []
    for _ in range(n):
        scored = [(f_oracle(chain + [i]), i) for i in remaining]
        best_val, best_arm = max(scored, key=lambda vi: (vi[0], -vi[1]))
        # positional gap: chosen value minus the best alternative extension;
        # extending by an arm already in the prefix leaves the union unchanged
        alternatives = [v for v, i in scored if i != best_arm]
        if chain:
            alternatives.append(values[-1])
        if alternatives:
            gaps.append(best_val - max(alternatives))
        if best_val < values[-1] - 1e-12:
            raise ValueError("set function is not monotone along the greedy chain")
        chain.append(best_arm)
        remaining.remove(best_arm)
        values.append(best_val)
    return GreedyReport(
        chain=tuple(chain),
        prefix_values=tuple(values),
        gap_delta=min(gaps, default=None),
    )
