"""Simulated worlds for every controller.

All randomness is counter-based (see :mod:`coverctl.rng`): an observation is
a pure function of (seed, step, action), so replaying a run with the same
seed and action sequence reproduces it exactly, and components never
perturb each other's streams.

Feedback is deliberately minimal. An arm or score world answers a play with
a plain ``(reward, cost)`` pair and nothing more; in particular the interval
world never reveals the arriving point, only the containment bit. True laws
are read through benchmark-only methods that no controller touches.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .oracles import beta_cdf, beta_coefficients, grid_cells
from .rng import uniform, uniforms

# component ids for substream separation
_C_REWARD = 1
_C_COST = 2
_C_POINT = 3
_C_SCORE = 4
_C_DEMAND = 5
_C_SETUP = 6
_C_BITS = 7

# uniforms per block of a multi-lane world: its rows are this over the lane
# count, but at least one, so a block stays near 0.5 MB up to 65536 lanes
_BLOCK_CELLS = 65536
# and at most this many rows: a replica consumes its steps runner._CHUNK_ROWS
# at a time, so a longer block is held for no chunk's sake; a one-lane block
# (a world with one draw a step) is capped here, not at _BLOCK_CELLS rows
_BLOCK_ROWS = 2048


class _StepBlocks:
    """Per-step rows of a multi-lane world, computed a block of steps at a time.

    A block of steps t0 .. t0+steps-1 draws
    ``uniforms(seed, component, t0, steps, lanes)``, maps it through ``rows``,
    the world's row transform, to an array of one row per step, and keeps the
    rows as Python lists. Blocks start at multiples of ``steps``; asking for a
    step outside the current block refills it with the block that holds the
    step. A row depends only on its step, so steps may be read in any order.
    """

    def __init__(self, seed: int, component: int, lanes: int, rows):
        self._draw = (seed, component)
        self._lanes = lanes
        self._transform = rows
        self.steps = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // max(1, lanes)))
        self._t0 = 0
        self._rows: list = []

    def __getitem__(self, t: int):
        i = t - self._t0
        if not 0 <= i < len(self._rows):
            i = t % self.steps
            self._t0 = t - i
            block = uniforms(*self._draw, self._t0, self.steps, self._lanes)
            self._rows = self._transform(block).tolist()
        return self._rows[i]


@dataclass(frozen=True)
class ArmSpec:
    """One i.i.d. arm: success probability and a fixed or uniform cost.

    ``cost`` is either a number (fixed) or a (lo, hi) pair sampled uniformly
    per step; the mean cost is then the midpoint.
    """

    p: float
    cost: object

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"success probability {self.p} outside [0, 1]")
        lo, hi = self.cost if isinstance(self.cost, (tuple, list)) else (self.cost, self.cost)
        if not 0.0 <= lo <= hi < math.inf:
            raise ValueError(f"cost {self.cost!r} must be finite, >= 0 and, as a range, lo <= hi")

    @property
    def mean_cost(self) -> float:
        if isinstance(self.cost, (tuple, list)):
            lo, hi = self.cost
            return 0.5 * (lo + hi)
        return float(self.cost)

    @property
    def max_cost(self) -> float:
        if isinstance(self.cost, (tuple, list)):
            return float(self.cost[1])
        return float(self.cost)


class IidArmWorld:
    """Independent Bernoulli rewards per arm; only the played arm's draw is
    revealed. If the spec list lacks a null arm (p=0, cost 0) or a
    guaranteed arm (p=1, the largest spec cost c_max) they are appended."""

    def __init__(self, specs, seed: int):
        specs = list(specs)
        if not specs:
            raise ValueError("need at least one arm spec")
        c_max = max(max(s.max_cost for s in specs), 1e-12)
        i_min = next((i for i, s in enumerate(specs) if s.p == 0.0 and s.max_cost == 0.0), None)
        i_max = next((i for i, s in enumerate(specs) if s.p == 1.0 and s.cost == c_max), None)
        if i_min is None:
            specs.append(ArmSpec(0.0, 0.0))
            i_min = len(specs) - 1
        if i_max is None:
            specs.append(ArmSpec(1.0, c_max))
            i_max = len(specs) - 1
        self.specs = specs
        self.seed = seed
        self.n = len(specs)
        self.c_max = float(c_max)
        self.i_min = i_min
        self.i_max = i_max

    def pull(self, t: int, arm: int) -> tuple[float, float]:
        spec = self.specs[arm]
        r = 1.0 if uniform(self.seed, _C_REWARD, t, arm) < spec.p else 0.0
        if isinstance(spec.cost, (tuple, list)):
            lo, hi = spec.cost
            c = lo + (hi - lo) * uniform(self.seed, _C_COST, t, arm)
        else:
            c = float(spec.cost)
        return r, c

    def means(self) -> tuple[list[float], list[float]]:
        """True (p, mean cost) vectors, for benchmarks only."""
        return [s.p for s in self.specs], [s.mean_cost for s in self.specs]


class IntervalWorld:
    """Interval selection over a delta grid of sub-intervals of [0, 1].

    ``arms`` is the empty null arm (None) and then every (i*delta, j*delta)
    with 0 <= i < j <= m = 1/delta in (i, j) order; index m is [0, 1], the
    guaranteed arm. Playing an arm reveals only whether the hidden point
    landed in that closed interval, plus the interval's length as cost.
    The point law is ``("beta", a, b)``, or ``("uniform",)``, which is Beta(1, 1);
    :func:`~coverctl.oracles.beta_coefficients` holds the coefficients of its
    closed-form CDF and the rule of which shapes are in range.
    """

    i_min = 0

    def __init__(self, delta: float, point_dist, seed: int):
        m = grid_cells(delta)
        self.delta = delta
        self.arms = [None] + [(i * delta, j * delta)
                              for i in range(m) for j in range(i + 1, m + 1)]
        self.seed = seed
        kind, *shape = ("beta", 1, 1) if tuple(point_dist) == ("uniform",) else point_dist
        if kind != "beta" or len(shape) != 2:
            raise ValueError(f"unknown point distribution {point_dist!r}")
        beta_coefficients(*shape)  # ValueError unless beta_cdf can evaluate Beta(a, b)
        self._shape = a, b = tuple(map(int, shape))
        # the a-th smallest of a+b-1 uniforms has the Beta(a, b) law
        self._points = _StepBlocks(seed, _C_POINT, a + b - 1,
                                   lambda u: np.partition(u, a - 1, axis=1)[:, a - 1])
        self.n = len(self.arms)
        self.c_max = m * delta
        self.i_max = m

    def pull(self, t: int, arm: int) -> tuple[float, float]:
        y = self._points[t]
        if self.arms[arm] is None:
            return 0.0, 0.0
        lo, hi = self.arms[arm]
        return 1.0 if lo <= y <= hi else 0.0, hi - lo

    def cdf(self, x: float) -> float:
        """True CDF of the hidden point, for benchmarks only."""
        return beta_cdf(x, *self._shape)


class TrapWorld:
    """Deterministic three-arm world for the projection ablation.

    Arm 0 is safe (cost 1, reward 1 always; the guaranteed arm), arm 1 is a
    cheap trap (cost 0.05; reward 1 outside the scripted window, 0 inside),
    arm 2 is the null arm (cost 0, reward 0). Non-i.i.d. by construction:
    it exercises adversarial validity only.
    """

    SAFE, TRAP, ZERO = 0, 1, 2
    n = 3
    c_max = 1.0
    i_min = ZERO
    i_max = SAFE
    trap_cost = 0.05

    def __init__(self, window: tuple[int, int]):
        start, end = window
        if not 0 <= start < end < math.inf:
            raise ValueError(f"window must satisfy 0 <= start < end < inf, got {window!r}")
        self.window = (int(start), int(end))

    def pull(self, t: int, arm: int) -> tuple[float, float]:
        if arm == self.SAFE:
            return 1.0, 1.0
        if arm == self.ZERO:
            return 0.0, 0.0
        start, end = self.window
        failing = start <= t < end
        return 0.0 if failing else 1.0, self.trap_cost

    def means(self, T: int) -> tuple[list[float], list[float]]:
        """Average (reward, cost) per arm over steps 1..T, for benchmarks only."""
        start, end = self.window
        fail = max(0, min(end, T + 1) - max(start, 1))
        return [1.0, 1.0 - fail / T, 0.0], [1.0, self.trap_cost, 0.0]


class ScoreWorld:
    """Monotone score-threshold world with uniform cutoffs.

    Each step hides a cutoff tau_x uniform on [0, 1]; the submitted
    threshold succeeds iff it reaches the cutoff (success at equality), so
    for fixed context the outcome is a single-jump non-decreasing step
    function of the threshold. The cost is the submitted threshold. The
    expected reward is r(tau) = tau, so the reward margin constant is 1 and
    the cost Lipschitz constant is 1.
    """

    tau_min = 0.0
    tau_max = 1.0

    def __init__(self, seed: int):
        self.seed = seed

    def evaluate(self, t: int, tau: float) -> tuple[float, float]:
        tau_x = uniform(self.seed, _C_SCORE, t, 0)
        return 1.0 if tau >= tau_x else 0.0, float(tau)

    def expected_reward(self, tau: float) -> float:
        """True success probability r(tau), for benchmarks only."""
        return min(max(tau, self.tau_min), self.tau_max)


uniform_score_world = ScoreWorld  # the name acceptance criterion 10 builds its worlds by


def clamped_poisson(lam: float, cap: float) -> dict[int, float]:
    """Law of clamp(Poisson(lam), 1, int(cap)) as {demand: probability}, in demand order,
    from the terms k < int(cap) up to the first that underflows to 0.0. ValueError for a cap
    not in [1, inf) or a rate not positive with exp(-lam) a normal float (lam <= ~708.4)."""
    if not 1 <= cap < math.inf:
        raise ValueError(f"cap must be finite and at least 1, got {cap}")
    if not (0 < lam and math.exp(-lam) >= sys.float_info.min):
        raise ValueError(f"Poisson rate must be positive with exp(-rate) a normal float"
                         f" (rate at most about 708.4), got {lam}")
    top = int(cap)
    term = total = math.exp(-lam)
    law = {1: term}
    for k in range(1, top):
        if term == 0.0:
            break
        term *= lam / k
        law[k] = law.get(k, 0.0) + term
        total += term
    law[top] = law.get(top, 0.0) + max(1.0 - total, 0.0)
    return law


class PoissonDemand:
    """Truncated Poisson demand with a mid-horizon rate shift.

    a_t = clamp(Poisson(lam_t), 1, int(cap)) with lam_t = ``before`` for t <= shift_t
    and ``after`` beyond, drawn by inverting the running sums of the law that
    :func:`clamped_poisson` states (and checks the rates and cap of), which ``pmf`` returns.
    """

    def __init__(self, before: float, after: float, shift_t: int, cap: float, seed: int):
        self.before = before
        self.after = after
        self.shift_t = shift_t
        self.cap = cap
        self.seed = seed
        laws = {lam: clamped_poisson(lam, cap) for lam in (before, after)}
        # each rate's demands, and the running sums of their probabilities
        self._inverse = {lam: (list(law), list(accumulate(law.values())))
                         for lam, law in laws.items()}

    def rate(self, t: int) -> float:
        return self.before if t <= self.shift_t else self.after

    def draw(self, t: int) -> float:
        demands, sums = self._inverse[self.rate(t)]
        return float(demands[min(bisect_left(sums, uniform(self.seed, _C_DEMAND, t, 0)),
                                 len(sums) - 1)])

    def pmf(self, lam: float) -> dict[int, float]:
        """The law that ``draw`` samples at rate lam, for benchmarks only."""
        return clamped_poisson(lam, self.cap)


class OrWorld:
    """Set-function world: each arm succeeds independently with its own
    probability, and a probed set's value is 1 if any member succeeded.

    ``probe`` returns the realized value of every prefix of the played
    ordered chain (semi-bandit feedback). The expected value of a set S is
    1 - prod_{i in S} (1 - p_i).
    """

    def __init__(self, p, seed: int):
        p = [float(x) for x in p]
        if any(not 0.0 <= x <= 1.0 for x in p):
            raise ValueError("success probabilities must lie in [0, 1]")
        self.p = p
        self.n = len(p)
        self.seed = seed
        # row t, column i: whether arm i succeeds at step t
        p = np.asarray(p)
        self._bits = _StepBlocks(seed, _C_BITS, self.n, lambda u: u < p)

    def probe(self, t: int, chain) -> list[float]:
        values = []
        hit = 0.0
        bits = self._bits[t]
        for arm in chain:
            if bits[arm]:
                hit = 1.0
            values.append(hit)
        return values

    def value_oracle(self):
        """True expected set value, for benchmarks only.

        The oracle keeps the running product of prod (1 - p_i) over the
        prefix (all but the last arm) it was last asked about, and extends
        it where the next subset's prefix extends that one. A greedy chain
        asks about its prefix plus each free arm in turn, so each call does
        O(1) float work, the same left-to-right product as from scratch.
        """
        p = self.p
        last = [(), 1.0]  # a prefix and its running product

        def f(subset) -> float:
            subset = tuple(subset)
            prefix, prod = last
            if subset[:len(prefix)] != prefix or len(prefix) >= len(subset):
                prefix, prod = (), 1.0
            for i in subset[len(prefix):-1]:
                prod *= 1.0 - p[i]
            last[:] = subset[:-1], prod
            for i in subset[-1:]:
                prod *= 1.0 - p[i]
            return 1.0 - prod

        return f


def draw_or_probabilities(n: int, lo: float, hi: float, seed: int) -> list[float]:
    """Per-arm success probabilities uniform on [lo, hi], derived from the
    run seed so the environment is reproducible from the config alone. A range
    outside 0 <= lo <= hi <= 1, NaN included, raises ValueError."""
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"probability range [{lo}, {hi}] must satisfy 0 <= lo <= hi <= 1")
    return [lo + (hi - lo) * uniform(seed, _C_SETUP, 0, i) for i in range(n)]

