import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverctl.bandit import (
    BOUNDARY_RULE,
    PROJECTED_BASELINE,
    BanditConfig,
    BanditState,
    bandit_step,
    select_arm,
)
import coverctl
from coverctl.control import InvariantViolation, StepSchedule
from coverctl.environments import TrapWorld
from coverctl.runner import _TOL, drive_bandit


def _loaded_state(cfg, bounds):
    """State past its warm-up pass whose (reward_ucb, cost_lcb) are
    approximately ``bounds``."""
    state = BanditState(cfg, StepSchedule.constant(0.1))
    state.plays[:] = [10**12] * cfg.n
    width = math.sqrt(state._log_term / 10**12)  # ~ 1e-5
    for i, (r_ucb, c_lcb) in enumerate(bounds):
        state.mean_reward[i] = r_ucb
        state.mean_cost[i] = c_lcb
        state.reward_ucb[i] = r_ucb + width
        state.cost_lcb[i] = c_lcb - cfg.c_max * width
    state.step = cfg.n + 1
    return state


def test_select_boundary_forcing():
    cfg = BanditConfig(n=4, c_max=1.0, phi=0.5, horizon_T=100, i_min=3, i_max=0)
    state = _loaded_state(cfg, [(1, 1), (0.9, 0.1), (0.9, 0.2), (0, 0)])
    state.dual.value = cfg.lambda_cap  # 2.0
    assert select_arm(state, cfg) == 0
    state.dual.value = -0.001
    assert select_arm(state, cfg) == 3
    state.dual.value = 0.0
    assert select_arm(state, cfg) == 3


def test_select_lagrangian_argmin_first_on_tie():
    cfg = BanditConfig(n=2, c_max=1.0, phi=0.5, horizon_T=100, i_min=0, i_max=1,
                      lambda_cap=5.0)
    state = _loaded_state(cfg, [(0.9, 0.5), (0.3, 0.2)])
    state.dual.value = 1.0
    # scores ~ (0.5 - 0.9) = -0.4 vs (0.2 - 0.3) = -0.1
    assert select_arm(state, cfg) == 0


def test_select_projected_ignores_boundaries():
    cfg = BanditConfig(n=3, c_max=1.0, phi=0.5, horizon_T=100, i_min=2, i_max=0,
                      mode=PROJECTED_BASELINE)
    state = _loaded_state(cfg, [(1.0, 1.0), (0.9, 0.05), (0.0, 0.0)])
    state.dual.value = 0.0
    # at zero price the argmin is the cheapest arm, not the forced null arm
    assert select_arm(state, cfg) == 2
    state.dual.value = cfg.lambda_cap
    assert select_arm(state, cfg) in (0, 1)  # argmin, never a forced branch


def test_select_requires_warm_up():
    cfg = BanditConfig(n=2, c_max=1.0, phi=0.5, horizon_T=100, i_min=0, i_max=1)
    state = BanditState(cfg, StepSchedule.constant(0.1))
    with pytest.raises(ValueError):
        select_arm(state, cfg)


@settings(max_examples=100, deadline=None)
@given(plays=st.lists(st.tuples(st.integers(0, 5), st.sampled_from([0.0, 1.0]),
                                st.floats(0.0, 2.0)), max_size=60))
def test_cached_bounds_equal_a_recomputation_from_the_statistics(plays):
    # arms never played keep the zero-play bounds, +inf and -inf
    cfg = BanditConfig(n=6, c_max=2.0, phi=0.5, horizon_T=100, i_min=0, i_max=1)
    state = BanditState(cfg, StepSchedule.constant(0.1))
    for arm, reward, cost in plays:
        state.record(arm, reward, cost)
    with np.errstate(divide="ignore"):
        delta = np.sqrt(state._log_term / np.asarray(state.plays))
    np.testing.assert_array_equal(state.reward_ucb, np.asarray(state.mean_reward) + delta)
    np.testing.assert_array_equal(state.cost_lcb,
                                  np.asarray(state.mean_cost) - cfg.c_max * delta)


class _ArrayStatistics:
    """Reference: the per-arm statistics as numpy arrays, updated through
    numpy scalars, as BanditState kept them before its lists."""

    def __init__(self, cfg, log_term):
        self.plays = np.zeros(cfg.n, dtype=np.int64)
        self.mean_reward = np.zeros(cfg.n)
        self.mean_cost = np.zeros(cfg.n)
        self.reward_ucb = np.full(cfg.n, np.inf)
        self.cost_lcb = np.full(cfg.n, -np.inf)
        self._c_max = cfg.c_max
        self._log_term = log_term

    def record(self, arm, reward, cost):
        k = self.plays[arm] = int(self.plays[arm]) + 1
        r, c = float(self.mean_reward[arm]), float(self.mean_cost[arm])
        r = self.mean_reward[arm] = r + (reward - r) / k
        c = self.mean_cost[arm] = c + (cost - c) / k
        delta = math.sqrt(self._log_term / k)
        self.reward_ucb[arm] = r + delta
        self.cost_lcb[arm] = c - self._c_max * delta


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c_max=st.floats(0.01, 5.0),
       plays=st.lists(st.tuples(st.integers(0, 4), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                      max_size=80))
def test_list_statistics_give_the_bounds_of_array_statistics(c_max, plays):
    cfg = BanditConfig(n=5, c_max=c_max, phi=0.5, horizon_T=1000, i_min=0, i_max=1)
    state = BanditState(cfg, StepSchedule.constant(0.1))
    reference = _ArrayStatistics(cfg, state._log_term)
    for arm, reward, cost_share in plays:
        state.record(arm, reward, cost_share * c_max)
        reference.record(arm, reward, cost_share * c_max)
    # bit for bit, the infinities of unplayed arms included
    for name in ("reward_ucb", "cost_lcb", "mean_reward", "mean_cost", "plays"):
        ours = np.asarray(getattr(state, name))
        assert ours.dtype == getattr(reference, name).dtype, name
        assert ours.tobytes() == getattr(reference, name).tobytes(), name
    assert all(type(k) is int for k in state.plays)
    assert all(type(x) is float for x in state.mean_reward + state.mean_cost)


class _ConstantWorld:
    """Deterministic arm table for driver tests."""

    def __init__(self, table):
        self.table = table

    def pull(self, t, arm):
        return self.table[arm]


def test_bandit_step_warm_up_order_and_frozen_dual():
    cfg = BanditConfig(n=3, c_max=1.0, phi=0.8, horizon_T=10, i_min=2, i_max=0)
    env = _ConstantWorld({0: (1.0, 1.0), 1: (0.0, 0.4), 2: (0.0, 0.0)})
    state = BanditState(cfg, StepSchedule.constant(0.1))
    arms = [bandit_step(state, cfg, env)[0] for _ in range(3)]
    assert arms == [0, 1, 2]
    assert np.all(np.asarray(state.plays) == 1)
    # the dual sits still until the warm-up pass completes
    assert state.dual.value == 0.0
    bandit_step(state, cfg, env)
    assert state.dual.value != 0.0


def test_bandit_step_failure_raises_dual():
    cfg = BanditConfig(n=2, c_max=1.0, phi=0.8, horizon_T=10, i_min=0, i_max=1)
    env = _ConstantWorld({0: (0.0, 0.0), 1: (1.0, 1.0)})
    state = BanditState(cfg, StepSchedule.constant(0.1))
    bandit_step(state, cfg, env)
    bandit_step(state, cfg, env)
    before = 0.5
    state.dual.value = before
    _, reward, *_ = bandit_step(state, cfg, env)
    if reward == 0.0:
        assert state.dual.value == pytest.approx(before + 0.1 * 0.8, abs=1e-12)


def test_bandit_step_rejects_cost_out_of_range():
    cfg = BanditConfig(n=2, c_max=1.0, phi=0.5, horizon_T=10, i_min=0, i_max=1)
    env = _ConstantWorld({0: (0.0, 5.0), 1: (1.0, 1.0)})
    state = BanditState(cfg, StepSchedule.constant(0.1))
    with pytest.raises(ValueError, match=r"arm 0 returned cost 5.0 outside \[0, 1.0\] at step 1"):
        bandit_step(state, cfg, env)


def test_bandit_step_rejects_a_reward_out_of_range_during_the_warm_up_pass():
    cfg = BanditConfig(n=3, c_max=1.0, phi=0.5, horizon_T=3, i_min=0, i_max=1)
    env = _ConstantWorld(dict.fromkeys(range(3), (2.5, 0.0)))
    state = BanditState(cfg, StepSchedule.constant(0.1))
    with pytest.raises(ValueError, match=r"arm 0 returned reward 2.5 .* at step 1"):
        bandit_step(state, cfg, env)
    assert state.plays == [0, 0, 0] and state.mean_reward == [0.0, 0.0, 0.0]


def test_projected_mode_clamps_dual():
    cfg = BanditConfig(n=2, c_max=1.0, phi=0.8, horizon_T=10, i_min=0, i_max=1,
                      lambda_cap=0.05, mode=PROJECTED_BASELINE)
    env = _ConstantWorld({0: (0.0, 0.0), 1: (1.0, 1.0)})
    state = BanditState(cfg, StepSchedule.constant(0.1))
    for _ in range(6):
        bandit_step(state, cfg, env)
        assert 0.0 <= state.dual.value <= 0.05


def test_deterministic_replay_matches():
    def run():
        cfg = BanditConfig(n=3, c_max=1.0, phi=0.5, horizon_T=10, i_min=2, i_max=0)
        env = TrapWorld((4, 8))
        state = BanditState(cfg, StepSchedule.constant(0.2))
        return [bandit_step(state, cfg, env) for _ in range(10)]

    assert run() == run()


def test_boundary_plays_update_stats():
    cfg = BanditConfig(n=3, c_max=1.0, phi=0.8, horizon_T=50, i_min=2, i_max=0)
    env = _ConstantWorld({0: (1.0, 1.0), 1: (0.0, 0.4), 2: (0.0, 0.0)})
    state = BanditState(cfg, StepSchedule.constant(0.5))
    for _ in range(20):
        bandit_step(state, cfg, env)
    assert np.asarray(state.plays).sum() == 20
    assert state.mean_reward[0] == 1.0


def test_coverage_identity_on_trap_run():
    cfg = BanditConfig(n=3, c_max=1.0, phi=0.5, horizon_T=5000, i_min=2, i_max=0)
    sim = drive_bandit(cfg, StepSchedule.constant(0.02), TrapWorld((2000, 3200)), 5000)
    # the ledger window starts once the warm-up pass (and with it the
    # controlled dual) begins: only steps t > n count
    eta_max = 0.02
    window = sim.trace.state[cfg.n:]
    assert (-eta_max - 1e-12 <= window).all() and (window <= cfg.lambda_cap + eta_max + 1e-12).all()
    assert sim.info["window_coverage"] == sum(sim.trace.reward[cfg.n:].tolist()) / (5000 - cfg.n)
    assert sim.info["window_len"] == 5000 - cfg.n
    assert abs(sim.info["ledger_residual"]) <= 1e-9
    # the same identity read off the trace: the dual starts the window at 0
    reference = (sim.info["window_coverage"] - cfg.phi) + sim.final_state / (eta_max * 4997)
    assert abs(reference) <= 1e-9


def test_ucb_concentration_on_bernoulli_draws():
    # 1000 independent runs of 1000 pulls: the truth should sit inside the
    # confidence band at all but a vanishing share of (run, step) pairs
    rng = np.random.default_rng(2024)
    runs, horizon, n_arms = 1000, 1000, 2
    width_scale = math.sqrt(2.0 * math.log(n_arms * horizon))
    violations = 0
    for p in (0.3, 0.7):
        draws = rng.random((runs, horizon)) < p
        counts = np.arange(1, horizon + 1)
        means = np.cumsum(draws, axis=1) / counts
        delta = width_scale / np.sqrt(counts)
        violations += int(np.sum(np.abs(means - p) > delta))
    assert violations / (runs * horizon * n_arms) < 0.05


class _ScriptedTrap:
    """Arm 0 always succeeds at cost 1, arm 2 never does at cost 0, and arm 1
    (cost 0.05) succeeds on the steps whose scripted bit is set."""

    def __init__(self, script):
        self.script = script

    def pull(self, t, arm):
        if arm == 1:
            return (1.0 if self.script[(t - 1) % len(self.script)] else 0.0), 0.05
        return (1.0, 1.0) if arm == 0 else (0.0, 0.0)


# constant steps, and t^-p steps with p in (0, 1) and an index offset
SCHEDULES = st.builds(StepSchedule, st.floats(1e-3, 0.5),
                      st.one_of(st.just(0.0), st.floats(0.01, 0.99)), st.integers(0, 100))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(phi=st.floats(0.01, 0.99), schedule=SCHEDULES,
       script=st.lists(st.booleans(), min_size=1, max_size=64))
def test_ledger_and_band_hold_for_any_reward_script(phi, schedule, script):
    cfg = BanditConfig(n=3, c_max=1.0, phi=phi, horizon_T=300, i_min=2, i_max=0)
    sim = drive_bandit(cfg, schedule, _ScriptedTrap(script), 300)
    eta = schedule.max_eta()
    assert abs(sim.info["ledger_residual"]) <= 1e-9
    assert -eta <= sim.final_state <= cfg.lambda_cap + eta
    assert abs(sim.info["window_coverage"] - phi) <= sim.info["coverage_bound"]
    # and at every step t of the window (warm-up excluded), with the band width W:
    # |coverage_t - phi| <= W / (eta_t * t)
    t = np.arange(1, 300 - cfg.n + 1)
    bound = (cfg.lambda_cap + 2 * (eta + _TOL)) / (np.array([schedule.eta(s) for s in t]) * t)
    assert bound[-1] == pytest.approx(sim.info["coverage_bound"], rel=1e-12)
    coverage = np.cumsum(sim.trace.reward[cfg.n:]) / t
    assert (abs(coverage - phi) <= bound + 1e-9).all()


class _AdaptiveArms:
    """An adversary over four arms that picks each reward from the arm just
    played and the one before it: ``table[t % len][previous arm][arm]``. Under
    the model's rule arm 0, the guaranteed arm (cost 1), always succeeds and
    arm 3, the null arm (cost 0), never does; ``broken`` lets arm 0 fail too.
    Arms 1 and 2 cost ``costs``."""

    def __init__(self, table, costs, broken=False):
        self.table, self.costs, self.broken, self.prev = table, costs, broken, 0

    def pull(self, t, arm):
        bit = self.table[t % len(self.table)][self.prev][arm]
        self.prev = arm
        if arm == 0 and not self.broken:
            bit = True
        elif arm == 3:
            bit = False
        return (1.0 if bit else 0.0), (1.0, *self.costs, 0.0)[arm]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(phi=st.floats(0.01, 0.99), schedule=SCHEDULES,
       costs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       table=st.lists(st.lists(st.lists(st.booleans(), min_size=4, max_size=4),
                               min_size=4, max_size=4), min_size=1, max_size=6))
def test_coverage_bound_holds_at_every_step_against_an_adaptive_adversary(
        phi, schedule, costs, table):
    cfg = BanditConfig(n=4, c_max=1.0, phi=phi, horizon_T=300, i_min=3, i_max=0)
    sim = drive_bandit(cfg, schedule, _AdaptiveArms(table, costs), 300)
    # |coverage_t - phi| <= W / (eta_t * t) at every step t of the window, W the
    # driver's band width
    t = np.arange(1, 300 - cfg.n + 1)
    eta = schedule.max_eta()
    bound = (cfg.lambda_cap + 2 * (eta + _TOL)) / (np.array([schedule.eta(s) for s in t]) * t)
    assert bound[-1] == pytest.approx(sim.info["coverage_bound"], rel=1e-12)
    coverage = np.cumsum(sim.trace.reward[cfg.n:]) / t
    assert (abs(coverage - phi) <= bound + 1e-9).all()


class _Bait:
    """Three arms: arm 0 guaranteed (cost 1), arm 1 a cheap bait (cost 0.01)
    that succeeds for its first ``m`` plays and then always fails, arm 2 null.
    The bait's high mean keeps it in the argmin while its failures push the
    dual up to the cap."""

    def __init__(self, m):
        self.m, self.plays = m, 0

    def pull(self, t, arm):
        if arm == 1:
            self.plays += 1
            return (1.0 if self.plays <= self.m else 0.0), 0.01
        return (1.0, 1.0) if arm == 0 else (0.0, 0.0)


# m per phi from a scan over 10 .. 12000 plays at T = 20000, eta = 0.01; at
# phi 0.2, m 1000 reads 0.808, 2000 0.964 and 3000 0.984, and from 5000 on the
# bait never loses the argmin (0.005), so the cap c_max / (1 - phi) is reached
# at a low phi too
@pytest.mark.parametrize("phi,m", [(0.2, 3000), (0.5, 3000), (0.8, 8000)])
def test_a_bait_adversary_reaches_the_coverage_bound_from_below(phi, m):
    # |coverage_t - phi| over the window comes within 5 % of W / (eta * t) at
    # some step, W the driver's band width; a band widened by mistake raises
    # W, and the realized ratio falls below 0.95
    T = 20000
    cfg = BanditConfig(n=3, c_max=1.0, phi=phi, horizon_T=T, i_min=2, i_max=0)
    sim = drive_bandit(cfg, StepSchedule.constant(0.01), _Bait(m), T)
    t = np.arange(1, T - cfg.n + 1)
    bound = sim.info["coverage_bound"] * (T - cfg.n) / t
    coverage = np.cumsum(sim.trace.reward[cfg.n:]) / t
    ratio = float(np.max(abs(coverage - phi) / bound))
    assert 0.95 <= ratio <= 1.0, ratio


_BROKEN_GUARANTEE = """
from coverctl.bandit import BanditConfig
from coverctl.control import InvariantViolation, StepSchedule
from coverctl.runner import drive_bandit


class EveryArmFails:
    def pull(self, t, arm):
        return 0.0, (1.0, 0.5, 0.5, 0.0)[arm]


assert not __debug__, "asserts are on"
cfg = BanditConfig(n=4, c_max=1.0, phi=0.5, horizon_T=300, i_min=3, i_max=0)
try:
    drive_bandit(cfg, StepSchedule.constant(0.1), EveryArmFails(), 300)
except InvariantViolation as err:
    print(err.step)
"""


def test_a_guaranteed_arm_that_fails_is_caught_in_every_mode():
    # every arm fails, the guaranteed one too: from step 5, after the warm-up pass,
    # the dual rises by eta * phi = 0.05 a step, and at the cap c_max / (1 - phi) = 2
    # the forced guaranteed arm fails as well, so the dual leaves the band's
    # 2 + eta at step 48
    cfg = BanditConfig(n=4, c_max=1.0, phi=0.5, horizon_T=300, i_min=3, i_max=0)
    world = _AdaptiveArms([[[False] * 4] * 4], (0.5, 0.5), broken=True)
    with pytest.raises(InvariantViolation) as err:
        drive_bandit(cfg, StepSchedule.constant(0.1), world, 300)
    assert err.value.step == 48 and err.value.band[1] == pytest.approx(2.1)
    # python -O strips assert statements; the band check must not be one
    env = dict(os.environ, PYTHONPATH=str(Path(coverctl.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN_GUARANTEE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["48"]
