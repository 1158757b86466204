import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverctl.control import (
    ControllerState,
    InvariantViolation,
    StepSchedule,
    aci_update,
)
from coverctl.runner import _drive, _simulate


def make_state(value, phi, eta):
    return ControllerState(value=value, phi=phi, schedule=StepSchedule.constant(eta))


def ledger(s, rewards):
    """Apply ``aci_update`` once per reward through the driver loop, from the
    state's current value, and return the loop's ledger ``info``."""
    rewards = list(rewards)
    feed = iter(rewards)

    def step():
        raw, y = s.value, next(feed)
        aci_update(s, y)
        return raw, y, 0.0, raw

    return _simulate(_drive(step, s, len(rewards), (-math.inf, math.inf), ())).info


def test_update_moves_against_success():
    s = make_state(0.0, 0.8, 0.1)
    aci_update(s, 1.0)
    assert s.value == pytest.approx(-0.02, abs=1e-15)


def test_update_moves_toward_target_on_failure():
    s = make_state(0.0, 0.8, 0.1)
    aci_update(s, 0.0)
    assert s.value == pytest.approx(0.08, abs=1e-15)


def test_decaying_schedule_indexing():
    # 5 / sqrt(t + 1) at t = 24 is exactly 1
    sched = StepSchedule.power(5.0, 0.5, index_offset=1)
    assert sched.eta(24) == pytest.approx(1.0, abs=1e-12)
    s = ControllerState(0.5, 0.9, sched)
    s.step_index = 24  # as after 23 updates
    aci_update(s, 1.0)
    assert s.value == pytest.approx(0.4, abs=1e-12)
    assert s.step_index == 25


def test_step_index_starts_at_one():
    sched = StepSchedule.power(2.0, 0.5)
    assert sched.eta(1) == pytest.approx(2.0)
    s = ControllerState(0.0, 0.5, sched)
    assert s.step_index == 1
    with pytest.raises(TypeError):  # no state starts mid-schedule
        ControllerState(0.0, 0.5, sched, step_index=5)


def test_reward_range_validated():
    s = make_state(0.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        aci_update(s, 1.5)
    with pytest.raises(ValueError):
        aci_update(s, -0.01)


def test_schedule_validation():
    # each error is a ValueError that names the out-of-range field
    for args, field in (((0.0,), "c"), ((-1.0, 0.5), "c"), ((1.0, 1.0), "p"),
                        ((1.0, -0.1), "p"), ((1.0, 0.0, -1), "index_offset"),
                        ((math.nan,), "c"), ((math.inf, 0.5), "c")):
        with pytest.raises(ValueError, match=f"^{field} "):
            StepSchedule(*args)


@settings(max_examples=300, deadline=None)
@given(c=st.floats(1e-6, 1e6), p=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
       offset=st.integers(0, 10**6), t=st.integers(1, 10**9), later=st.integers(0, 10**9))
def test_eta_is_one_formula(c, p, offset, t, later):
    # p = 0 is the constant step; otherwise c * (t + offset)**-p, bit for bit
    sched = StepSchedule(c, p, offset)
    expected = c if p == 0.0 else c * float(t + offset) ** -p
    assert sched.eta(t).hex() == expected.hex()
    # a state records the step size its next update applies, then the applied one
    state = ControllerState(0.0, 0.5, sched)
    assert state.eta == sched.eta(1) == state.drift(0.0) == state.eta
    state.step_index = t  # as after t - 1 updates
    assert sched.eta(t) == state.drift(0.0) == state.eta
    assert 0.0 < sched.eta(t + later) <= sched.eta(t) <= sched.max_eta() == sched.eta(1)


def test_phi_strictly_interior():
    with pytest.raises(ValueError):
        ControllerState(0.0, 1.0, StepSchedule.constant(0.1))
    with pytest.raises(ValueError):
        ControllerState(0.0, 0.0, StepSchedule.constant(0.1))


def test_telescoping_three_step_example():
    # Y = (1, 0, 1), phi = 0.5, eta = 0.2: state walks 0 -> -0.1 -> 0 -> -0.1
    s = make_state(0.0, 0.5, 0.2)
    info = ledger(s, (1.0, 0.0, 1.0))
    assert s.value == pytest.approx(-0.1, abs=1e-15)
    assert info["coverage"] == 2.0 / 3.0
    assert info["ledger_residual"] == pytest.approx(0.0, abs=1e-12)


def test_telescoping_zero_drift_with_fractional_rewards():
    s = make_state(0.3, 0.6, 0.05)
    info = ledger(s, [0.6] * 50)  # reward equals the target: exactly no motion
    assert s.value == 0.3
    assert info["ledger_residual"] == pytest.approx(0.0, abs=1e-12)


def test_telescoping_constant_failure_stream():
    s = make_state(0.0, 0.8, 0.1)
    info = ledger(s, [1.0] * 10)
    assert s.value == pytest.approx(-0.2, abs=1e-12)
    assert info["ledger_residual"] == pytest.approx(0.0, abs=1e-12)


def test_telescoping_holds_for_a_decaying_schedule():
    # the driver sums (state_end - state_start) / eta over each run of equal
    # step sizes; p = 1e-16 makes runs of 1, 4, 11, 32, ... steps
    rng = random.Random(7)
    rewards = [float(rng.random() < 0.7) for _ in range(3000)]
    for schedule in (StepSchedule.power(1.0, 0.5), StepSchedule.power(5.0, 0.5, index_offset=1),
                     StepSchedule.power(1.0, 1e-16)):
        s = ControllerState(0.0, 0.5, schedule)
        states = [s.value]
        for y in rewards:
            aci_update(s, y)
            states.append(s.value)
        drift = sum((b - a) / schedule.eta(t)
                    for t, (a, b) in enumerate(zip(states, states[1:]), start=1))
        info = ledger(ControllerState(0.0, 0.5, schedule), rewards)
        assert info["ledger_residual"] == pytest.approx(0.0, abs=1e-12)
        assert info["ledger_residual"] == pytest.approx(
            sum(rewards) / 3000 - 0.5 + drift / 3000, abs=1e-12)
        if schedule.p == 0.5:  # one constant-step segment would miss the decay
            assert abs(sum(rewards) / 3000 - 0.5 + s.value / schedule.eta(3000) / 3000) > 1e-3


def test_telescoping_empty_window_has_no_ledger():
    assert ledger(make_state(0.0, 0.5, 0.1), []) == {}


def test_telescoping_residual_small_on_long_random_runs():
    rng = random.Random(123)
    for trial in range(5):
        eta = rng.choice([0.01, 0.1, 1.0])
        phi = rng.uniform(0.1, 0.9)
        s = make_state(rng.uniform(-50, 50), phi, eta)
        rewards = [rng.random() if rng.random() < 0.3 else float(rng.random() < phi)
                   for _ in range(100_000)]
        assert abs(ledger(s, rewards)["ledger_residual"]) <= 1e-9


def test_update_symmetry_around_target():
    s = make_state(0.37, 0.6, 0.11)
    aci_update(s, 0.6 + 0.25)
    aci_update(s, 0.6 - 0.25)
    assert s.value == pytest.approx(0.37, abs=1e-15)


def test_no_internal_clamping_under_constant_failures():
    s = make_state(2.0, 0.7, 0.05)
    n = 20_000
    for _ in range(n):
        aci_update(s, 0.0)
    assert s.value == pytest.approx(2.0 + 0.05 * 0.7 * n, rel=1e-12)


def test_power_decay_positive_and_nonincreasing():
    sched = StepSchedule.power(3.0, 0.7, index_offset=2)
    prev = math.inf
    t = 1
    while t <= 10_000_000:
        eta = sched.eta(t)
        assert 0.0 < eta <= prev
        prev = eta
        t = max(t + 1, int(t * 1.37))


def test_a_decaying_step_that_is_not_a_positive_float_raises():
    tiny = StepSchedule.power(5e-324, 0.5)
    assert tiny.eta(3) == 5e-324
    with pytest.raises(ValueError, match="step at t = 4 "):  # rounds to 0.0
        tiny.eta(4)
    with pytest.raises(ValueError, match="step at t = 1 "):  # 1 + 10**400 is past every float
        StepSchedule.power(1.0, 0.5, index_offset=10**400).eta(1)
    # a constant step is c at every t
    assert StepSchedule(5e-324, 0.0, 10**400).eta(10**9) == 5e-324


def test_ledger_window_started_mid_run():
    # a window may open at any step: its identity uses the state at the
    # window's first step, not the controller's initial value
    s = make_state(0.0, 0.5, 0.1)
    for y in (1.0, 1.0, 0.0):
        aci_update(s, y)
    assert ledger(s, (0.0, 1.0))["ledger_residual"] == pytest.approx(0.0, abs=1e-12)


def test_schedule_round_trip():
    # a schedule is its three fields, and the named constructors only fill them in
    sched = StepSchedule.power(5.0, 0.5, index_offset=1)
    assert StepSchedule(**dataclasses.asdict(sched)) == sched == StepSchedule(5.0, 0.5, 1)
    assert StepSchedule.constant(0.3) == StepSchedule(0.3) == StepSchedule.power(0.3, 0.0)


def test_invariant_violation_names_step_and_survives_pickling():
    import pickle

    err = InvariantViolation(12, -90.5, (-1e-9, math.inf))
    assert str(err) == "state -90.5 escaped [-1e-09, inf] at step 12"
    back = pickle.loads(pickle.dumps(err))  # pool workers send errors this way
    assert (back.step, back.value, back.band, str(back)) == (12, -90.5, (-1e-9, math.inf), str(err))
