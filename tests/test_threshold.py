import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverctl
from coverctl import runner
from coverctl.control import ControllerState, InvariantViolation, StepSchedule
from coverctl.environments import PoissonDemand, ScoreWorld
from coverctl.metrics import coverage_series
from coverctl.runner import drive_newsvendor, drive_threshold
from coverctl.threshold import (
    NewsvendorConfig,
    ThresholdConfig,
    newsvendor_step,
    threshold_step,
)


class _ScriptedScores:
    """Hidden cutoffs from a fixed list; cost equals the submitted value."""

    def __init__(self, cutoffs):
        self.cutoffs = cutoffs

    def evaluate(self, t, tau):
        tau_x = self.cutoffs[(t - 1) % len(self.cutoffs)]
        return (1.0 if tau >= tau_x else 0.0, tau)


class _ScriptedDemand:
    """Demand a_t read from a fixed list, one entry per period."""

    def __init__(self, demands):
        self.demands = demands

    def draw(self, t):
        return self.demands[t - 1]


def test_threshold_step_basic_update():
    cfg = ThresholdConfig(0.0, 1.0, 0.8, StepSchedule.constant(0.1))
    tau = ControllerState(0.5, 0.8, cfg.schedule)
    action, reward, *_ = threshold_step(tau, cfg, _ScriptedScores([0.2]))  # tau >= cutoff
    assert reward == 1.0
    assert action == 0.5
    assert tau.value == pytest.approx(0.48, abs=1e-12)


def test_threshold_below_range_submits_floor_and_drifts_up():
    cfg = ThresholdConfig(0.0, 1.0, 0.8, StepSchedule.constant(0.1))
    tau = ControllerState(-0.05, 0.8, cfg.schedule)
    # no cutoff sits at the floor, so the clamped action always fails
    action, reward, *_ = threshold_step(tau, cfg, _ScriptedScores([0.4]))
    assert action == 0.0
    assert reward == 0.0
    assert tau.value == pytest.approx(-0.05 + 0.1 * 0.8, abs=1e-12)


def test_threshold_rejects_non_binary_feedback():
    class Fuzzy:
        def evaluate(self, t, tau):
            return (0.5, tau)

    cfg = ThresholdConfig(0.0, 1.0, 0.8, StepSchedule.constant(0.1))
    tau = ControllerState(0.5, 0.8, cfg.schedule)
    with pytest.raises(ValueError):
        threshold_step(tau, cfg, Fuzzy())


def test_threshold_coverage_identity_and_bounds():
    cfg = ThresholdConfig(0.0, 1.0, 0.7, StepSchedule.constant(0.05))
    env = ScoreWorld(99)
    sim = drive_threshold(cfg, env, 4000)
    assert abs(sim.info["ledger_residual"]) <= 1e-9
    assert -0.05 - 1e-12 <= sim.trace.state.min() <= sim.trace.state.max() <= 1.05 + 1e-12


def test_threshold_adversarial_cutoffs_stay_bounded():
    # worst-case scripted cutoffs: long all-fail and all-succeed stretches
    cutoffs = [1.0] * 500 + [1e-9] * 500 + [1.0, 1e-9] * 250
    cfg = ThresholdConfig(0.0, 1.0, 0.5, StepSchedule.constant(0.2))
    sim = drive_threshold(cfg, _ScriptedScores(cutoffs), 20000)
    # the driver asserts the [-eta, 1 + eta] band on every step
    assert len(sim.trace) == 20000


def test_final_state_outside_the_band_raises_at_step_t_plus_1():
    # every threshold fails, even tau_max: the decision-time states 0, 0.9 and
    # 1.8 lie in the band (-1, 2], and the state after the last update, 2.7, not
    cfg = ThresholdConfig(0.0, 1.0, 0.9, StepSchedule(1.0))
    with pytest.raises(InvariantViolation) as err:
        drive_threshold(cfg, _ScriptedScores([2.0]), 3)
    assert err.value.step == 4 and err.value.value == pytest.approx(2.7)


def _schedules(c_max):
    """Constant steps, and t^-p steps with p in (0, 1) and an index offset."""
    return st.builds(StepSchedule, st.floats(1e-3, c_max),
                     st.one_of(st.just(0.0), st.floats(0.01, 0.99)), st.integers(0, 100))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(phi=st.floats(0.01, 0.99), schedule=_schedules(0.5),
       script=st.lists(st.booleans(), min_size=1, max_size=64))
def test_ledger_and_band_hold_for_any_reward_script(phi, schedule, script):
    # bit 1: a cutoff every threshold above the floor reaches; bit 0: one only
    # the ceiling reaches. Away from the clamps the reward is the scripted bit.
    cutoffs = [1e-9 if bit else 1.0 for bit in script]
    cfg = ThresholdConfig(0.0, 1.0, phi, schedule)
    sim = drive_threshold(cfg, _ScriptedScores(cutoffs), 500)
    eta = schedule.max_eta()
    assert abs(sim.info["ledger_residual"]) <= 1e-9
    assert cfg.tau_min - eta <= sim.final_state <= cfg.tau_max + eta
    assert abs(sim.info["coverage"] - phi) <= sim.info["coverage_bound"]
    # and at every step t, with the band width W: |coverage_t - phi| <= W / (eta_t * t)
    t = np.arange(1, 501)
    width = cfg.tau_max - cfg.tau_min + 2 * (eta + runner._TOL)
    bound = width / (np.array([schedule.eta(s) for s in t]) * t)
    assert bound[-1] == pytest.approx(sim.info["coverage_bound"], rel=1e-12)
    assert (abs(coverage_series(sim.trace) - phi) <= bound + 1e-9).all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(phi=st.floats(0.01, 0.99), schedule=_schedules(1.0), q_init=st.floats(0.0, 40.0),
       demands=st.lists(st.floats(1.0, 40.0), min_size=1, max_size=64))
def test_inventory_ledger_and_band_hold_for_any_demand_script(phi, schedule, q_init, demands):
    # steps up to 1 keep the level in [0, max(q_init, phi * D)] for any demand in [1, D]
    cfg = NewsvendorConfig(40.0, phi, schedule)
    sim = drive_newsvendor(cfg, _ScriptedDemand(demands * 300), 300, q_init=q_init)
    top = max(q_init, 40.0 * phi)
    assert abs(sim.info["ledger_residual"]) <= 1e-9
    levels = [*sim.trace.state, sim.final_state]
    assert 0.0 <= min(levels) and max(levels) <= top
    # the ledger's coverage is the fill rate, served over asked totals
    assert sim.info["coverage"] == coverage_series(sim.trace)[-1]
    assert abs(sim.info["coverage"] - phi) <= sim.info["coverage_bound"]
    # and at every period t, with the band width W and L_t the demand asked up
    # to t: |coverage_t - phi| <= W / (eta_t * L_t)
    width = top * (1.0 + 2 * runner._TOL)
    etas = np.array([schedule.eta(s) for s in range(1, 301)])
    bound = width / (etas * np.cumsum(sim.trace.extras["a"]))
    assert bound[-1] == pytest.approx(sim.info["coverage_bound"], rel=1e-12)
    assert (abs(coverage_series(sim.trace) - phi) <= bound + 1e-9).all()


class _AdaptiveScores:
    """An adversary that picks each success bit from the threshold just
    submitted and the one before it: ``table[t % len][previous cell][cell]``,
    over four equal cells of [0, 1]. Under the model's rule tau_max = 1 always
    succeeds and tau_min = 0 never does; ``broken`` names the end that breaks it."""

    def __init__(self, table, broken=None):
        self.table, self.broken, self.prev = table, broken, 0

    def evaluate(self, t, tau):
        cell = min(int(tau * 4), 3)
        bit = self.table[t % len(self.table)][self.prev][cell]
        self.prev = cell
        if tau >= 1.0:
            bit = self.broken != "tau_max"
        elif tau <= 0.0:
            bit = self.broken == "tau_min"
        return (1.0 if bit else 0.0), tau


# adversary tables: one or more steps of 4 x 4 bits
_TABLES = st.lists(st.lists(st.lists(st.booleans(), min_size=4, max_size=4),
                            min_size=4, max_size=4), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(phi=st.floats(0.01, 0.99), schedule=_schedules(0.5), table=_TABLES)
def test_coverage_bound_holds_at_every_step_against_an_adaptive_adversary(phi, schedule, table):
    cfg = ThresholdConfig(0.0, 1.0, phi, schedule)
    sim = drive_threshold(cfg, _AdaptiveScores(table), 400)
    # |coverage_t - phi| <= W / (eta_t * t) at every step t, W the driver's band width
    t = np.arange(1, 401)
    width = cfg.tau_max - cfg.tau_min + 2 * (schedule.max_eta() + runner._TOL)
    bound = width / (np.array([schedule.eta(s) for s in t]) * t)
    assert bound[-1] == pytest.approx(sim.info["coverage_bound"], rel=1e-12)
    assert (abs(coverage_series(sim.trace) - phi) <= bound + 1e-9).all()


@pytest.mark.parametrize("phi", [0.2, 0.8])
def test_a_band_riding_adversary_reaches_the_coverage_bound_from_below(phi):
    # every threshold below tau_max fails and tau_max succeeds, as the model
    # allows: the threshold rides its band, and |coverage_t - phi| comes within
    # 5 % of W / (eta * t) at some step; a band constant widened by mistake
    # raises W, and the realized ratio falls below 0.95
    cfg = ThresholdConfig(0.0, 1.0, phi, StepSchedule.constant(0.01))
    sim = drive_threshold(cfg, _AdaptiveScores([[[False] * 4] * 4]), 4000)
    # W / (eta * t) with W from the driver's band: its coverage bound is W / (eta * T)
    bound = sim.info["coverage_bound"] * 4000 / np.arange(1, 4001)
    ratio = float(np.max(abs(coverage_series(sim.trace) - phi) / bound))
    assert 0.95 <= ratio <= 1.0, ratio


@pytest.mark.parametrize("broken,escape_step,side", [("tau_max", 24, 1), ("tau_min", 4, 0)])
def test_an_adversary_breaking_the_threshold_rule_is_caught(broken, escape_step, side):
    # from tau = 0: a tau_max that fails, with every other threshold failing too,
    # drives tau up by eta * phi = 0.05 a step, past the band's 1 + eta at step 24;
    # a tau_min that succeeds, as every other threshold does, drives it down by
    # eta * (1 - phi) = 0.05 a step, past -eta at step 4
    cfg = ThresholdConfig(0.0, 1.0, 0.5, StepSchedule.constant(0.1))
    bit = broken == "tau_min"
    table = [[[bit] * 4] * 4]
    with pytest.raises(InvariantViolation) as err:
        drive_threshold(cfg, _AdaptiveScores(table, broken), 400)
    assert err.value.step == escape_step
    assert err.value.band[side] == pytest.approx((-0.1, 1.1)[side])


def test_newsvendor_step_served_and_update():
    cfg = NewsvendorConfig(100.0, 0.9, StepSchedule.constant(0.5))
    q = ControllerState(20.0, 0.9, cfg.schedule)
    *_, a, leftover, y = newsvendor_step(q, cfg, 25.0)
    assert (a, y) == (25.0, 20.0)
    assert leftover == 0.0
    assert q.value == pytest.approx(21.25, abs=1e-12)


def test_newsvendor_positive_drift_at_empty():
    cfg = NewsvendorConfig(100.0, 0.9, StepSchedule.constant(0.5))
    q = ControllerState(0.0, 0.9, cfg.schedule)
    *_, y = newsvendor_step(q, cfg, 5.0)
    assert y == 0.0
    assert q.value == pytest.approx(2.25, abs=1e-12)


def test_newsvendor_caps_stock_at_demand_cap():
    cfg = NewsvendorConfig(30.0, 0.9, StepSchedule.constant(0.5))
    q = ControllerState(45.0, 0.9, cfg.schedule)
    action, *_, leftover, y = newsvendor_step(q, cfg, 10.0)
    assert action == 30.0
    assert y == 10.0
    assert leftover == 20.0


def test_newsvendor_rejects_demand_outside_range():
    cfg = NewsvendorConfig(50.0, 0.9, StepSchedule.constant(0.5))
    q = ControllerState(0.0, 0.9, cfg.schedule)
    with pytest.raises(ValueError):
        newsvendor_step(q, cfg, 0.5)
    with pytest.raises(ValueError):
        newsvendor_step(q, cfg, 60.0)


@pytest.mark.parametrize("phi", [0.0, 1.0, -0.5, float("nan")])
def test_drivers_refuse_phi_outside_the_open_unit_interval(phi):
    # the configs hold phi unchecked; the controller state the driver builds checks it
    schedule = StepSchedule.constant(0.1)
    with pytest.raises(ValueError, match="coverage target"):
        drive_threshold(ThresholdConfig(0.0, 1.0, phi, schedule), ScoreWorld(1), 5)
    with pytest.raises(ValueError, match="coverage target"):
        drive_newsvendor(NewsvendorConfig(50.0, phi, schedule), _ScriptedDemand([10.0] * 5), 5)


def test_dynamic_mode_requires_small_steps():
    with pytest.raises(ValueError):
        NewsvendorConfig(50.0, 0.9, StepSchedule.constant(1.0), dynamic_carryover=True)
    with pytest.raises(ValueError):
        NewsvendorConfig(50.0, 0.9, StepSchedule.power(5.0, 0.5, index_offset=1),
                         dynamic_carryover=True)
    NewsvendorConfig(50.0, 0.9, StepSchedule.constant(0.99), dynamic_carryover=True)


def test_no_returns_identity_exact():
    cfg = NewsvendorConfig(40.0, 0.9, StepSchedule.constant(0.5), dynamic_carryover=True)
    q = ControllerState(20.0, 0.9, cfg.schedule)
    *_, leftover, _ = newsvendor_step(q, cfg, 25.0)
    # next level minus carried stock equals y(1 - eta) + eta phi a
    assert q.value - leftover == pytest.approx(20.0 * 0.5 + 0.5 * 0.9 * 25.0, abs=1e-12)
    assert leftover <= q.value


def test_nonnegative_inventory_under_small_steps():
    rng = random.Random(5)
    cfg = NewsvendorConfig(60.0, 0.85, StepSchedule.constant(0.9), dynamic_carryover=True)
    q = ControllerState(0.0, 0.85, cfg.schedule)
    for _ in range(5000):
        newsvendor_step(q, cfg, rng.uniform(1.0, 60.0))
        assert q.value >= 0.0


def test_fill_rate_identity_single_step():
    cfg = NewsvendorConfig(100.0, 0.9, StepSchedule.constant(0.5))
    sim = drive_newsvendor(cfg, _ScriptedDemand([25.0]), 1, q_init=20.0)
    assert coverage_series(sim.trace)[-1] == pytest.approx(0.8, abs=1e-12)
    rhs = 0.9 - (sim.final_state - 20.0) / (0.5 * 25.0)
    assert rhs == pytest.approx(0.8, abs=1e-12)


def test_fill_rate_identity_long_run():
    rng = random.Random(11)
    demands = [rng.uniform(1.0, 80.0) for _ in range(20000)]
    cfg = NewsvendorConfig(80.0, 0.9, StepSchedule.constant(0.3))
    sim = drive_newsvendor(cfg, _ScriptedDemand(demands), len(demands))
    rhs = 0.9 - (sim.final_state - 0.0) / (0.3 * sum(demands))
    assert coverage_series(sim.trace)[-1] == pytest.approx(rhs, abs=1e-9)


def test_fill_rate_full_service_when_stocked():
    cfg = NewsvendorConfig(100.0, 0.9, StepSchedule.constant(0.5))
    sim = drive_newsvendor(cfg, _ScriptedDemand([10.0, 12.0, 9.0]), 3, q_init=90.0)
    assert coverage_series(sim.trace)[-1] == 1.0
    values = sim.trace.state.tolist()
    assert values == sorted(values, reverse=True)  # state falls while over-serving


def test_fill_rate_positive_after_two_steps():
    # the positive drift at empty inventory makes an all-zero fill impossible
    cfg = NewsvendorConfig(50.0, 0.9, StepSchedule.constant(0.5))
    sim = drive_newsvendor(cfg, _ScriptedDemand([10.0, 10.0]), 2)
    assert coverage_series(sim.trace)[-1] > 0.0


def test_fill_rate_rejects_empty_trace():
    cfg = NewsvendorConfig(50.0, 0.9, StepSchedule.constant(0.5))
    with pytest.raises(ValueError):
        coverage_series(drive_newsvendor(cfg, _ScriptedDemand([]), 0).trace)


def test_inventory_level_escaping_its_upper_band_raises():
    # a step that leaves the level past max(q_init, phi * D * max(1, eta_max))
    # is caught at the next decision, which names its step
    cfg = NewsvendorConfig(50.0, 0.9, StepSchedule.constant(0.5))
    step = runner.newsvendor_step

    def pushed(q, cfg, demand):
        row = step(q, cfg, demand)
        if q.step_index == 8:  # the update of step 7
            q.value = 45.0 * (1.0 + 1e-9)
        return row

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "newsvendor_step", pushed)
        with pytest.raises(InvariantViolation, match="at step 8$") as err:
            drive_newsvendor(cfg, _ScriptedDemand([10.0] * 20), 20, q_init=20.0)
    assert err.value.step == 8 and err.value.band[1] == pytest.approx(45.0, rel=1e-11)
    # the same run stays inside without the push
    assert drive_newsvendor(cfg, _ScriptedDemand([10.0] * 20), 20, q_init=20.0).final_state < 45.0


@pytest.mark.parametrize("cap", [100.0, 1e12])
@pytest.mark.parametrize("phi,schedule", [
    (0.9, StepSchedule.power(5.0, 0.5, index_offset=1)),  # the newsvendor-shift steps
    (0.8, StepSchedule.constant(0.5)),
    (0.5, StepSchedule.constant(0.05)),
    (0.5, StepSchedule.constant(2.0)),
], ids=["preset", "eta-0.5", "eta-0.05", "eta-2"])
def test_inventory_band_riding_demand_reaches_the_upper_edge(phi, schedule, cap):
    # demand D at every period from an empty stock: a first step eta_1 > 1 jumps
    # to eta_1 * phi * D at once, and steps up to 1 climb toward phi * D
    cfg = NewsvendorConfig(cap, phi, schedule)
    sim = drive_newsvendor(cfg, _ScriptedDemand([cap] * 300), 300)
    top = phi * cap * max(1.0, schedule.max_eta())
    assert 0.99 * top <= max(*sim.trace.state, sim.final_state) <= top


def _edge_schedule(phi):
    """The largest constant step eta with eta * (1 - phi) <= 1."""
    eta = 1.0 / (1.0 - phi)
    while eta * (1.0 - phi) > 1.0:
        eta = math.nextafter(eta, 0.0)
    return StepSchedule.constant(eta)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(phi=st.floats(0.01, 0.99), q_init=st.floats(0.0, 1e12),
       demands=st.lists(st.floats(1.0, 1e12), min_size=1, max_size=16))
def test_inventory_band_holds_at_the_step_rule_edge_with_a_cap_of_1e12(phi, q_init, demands):
    # an adversary asking for the level itself whenever it is a legal demand
    # lands on both edges of the band; their rounding, at values near 1e12,
    # stays inside the band's relative slack
    cfg = NewsvendorConfig(1e12, phi, _edge_schedule(phi))
    step = runner.newsvendor_step

    def riding(q, cfg, demand):
        return step(q, cfg, q.value if 1.0 <= q.value <= cfg.demand_cap else demand)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "newsvendor_step", riding)
        sim = drive_newsvendor(cfg, _ScriptedDemand(demands * 200), 200, q_init=q_init)
    assert abs(sim.info["ledger_residual"]) <= 1e-9


_OVERSHOOT = """
from coverctl.control import InvariantViolation, StepSchedule
from coverctl.environments import PoissonDemand
from coverctl.runner import drive_newsvendor
from coverctl.threshold import NewsvendorConfig

assert not __debug__, "asserts are on"
cfg = NewsvendorConfig(100, 0.9, StepSchedule.constant(50.0))
try:
    drive_newsvendor(cfg, PoissonDemand(20, 50, 500, 100, seed=1), 1000)
except InvariantViolation as err:
    print(err.step)
"""


def test_negative_inventory_raises_in_every_mode():
    # a step of 50 overshoots: the level goes negative within a few periods
    cfg = NewsvendorConfig(100, 0.9, StepSchedule.constant(50.0))
    with pytest.raises(InvariantViolation) as err:
        drive_newsvendor(cfg, PoissonDemand(20, 50, 500, 100, seed=1), 1000)
    assert err.value.value < 0.0
    # python -O strips assert statements; the check must not be one
    env = dict(os.environ, PYTHONPATH=str(Path(coverctl.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", _OVERSHOOT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [str(err.value.step)]
