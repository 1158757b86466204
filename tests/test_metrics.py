import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverctl.metrics import (
    Trace,
    coverage_series,
    deviation_counter,
    regret_series,
    sublinearity_fit,
)
from coverctl.oracles import GreedyReport


def trace_of(reward=None, cost=None, action=None, **extras):
    """A trace from whole columns; an omitted column is zero (action: arm 0)."""
    n = len(next(col for col in (reward, cost, action) if col is not None))
    zeros = np.zeros(n)
    return Trace(list(action or [0] * n), np.array(reward if reward is not None else zeros),
                 np.array(cost if cost is not None else zeros), zeros,
                 {name: np.array(col) for name, col in extras.items()})


def test_coverage_series_all_ones():
    trace = trace_of(reward=[1.0] * 10)
    assert np.all(coverage_series(trace) == 1.0)


def test_coverage_series_alternating():
    trace = trace_of(reward=[float(t % 2) for t in range(1, 101)])
    cov = coverage_series(trace)
    assert cov[-1] == pytest.approx(0.5)
    assert all(cov[2 * k - 1] == pytest.approx(0.5) for k in range(1, 51))


def test_coverage_series_fill_mode():
    # a trace with y and a columns gives served over asked totals: large
    # demands weigh more than they would in a per-step mean of the rewards
    trace = trace_of(reward=[0.5, 1.0], y=[5.0, 30.0], a=[10.0, 30.0])
    assert coverage_series(trace).tolist() == [0.5, 35.0 / 40.0]
    with pytest.raises(ValueError):
        coverage_series(trace_of(reward=[], y=[], a=[]))


def test_series_equal_running_sums_exactly():
    # the trace CSV columns come from these series; a left-to-right Python
    # accumulation is the reference and must match bit for bit
    rng = random.Random(3)
    cols = [(float(rng.random() < 0.7), rng.uniform(0, 2), rng.uniform(0, 5), rng.uniform(5, 9))
            for _ in range(3000)]
    reward, cost, y, a = (list(col) for col in zip(*cols))
    trace = trace_of(reward=reward, cost=cost, y=y, a=a)
    c_star = [rng.uniform(0, 2) for _ in cols]
    num = served = asked = cum = cum_pos = 0.0
    mean, fill, plain, pos = [], [], [], []
    for idx in range(len(cols)):
        num += reward[idx]
        served += y[idx]
        asked += a[idx]
        gap = cost[idx] - c_star[idx]
        cum += gap
        cum_pos += max(gap, 0.0)
        mean.append(num / (idx + 1.0))
        fill.append(served / asked)
        plain.append(cum)
        pos.append(cum_pos)
    assert coverage_series(trace_of(reward=reward)).tolist() == mean
    assert coverage_series(trace).tolist() == fill
    assert regret_series(trace, c_star).tolist() == plain
    assert regret_series(trace, c_star, positive_part=True).tolist() == pos


def test_regret_series_zero_at_benchmark():
    trace = trace_of(cost=[0.4] * 20)
    assert np.all(regret_series(trace, 0.4) == pytest.approx(0.0))


def test_regret_series_single_overshoot():
    trace = trace_of(cost=[1.4])
    assert regret_series(trace, 0.4)[-1] == pytest.approx(1.0)


def test_regret_series_positive_part_monotone():
    rng = random.Random(0)
    trace = trace_of(cost=[rng.uniform(0, 1) for _ in range(2000)])
    plain = regret_series(trace, 0.5)
    pos = regret_series(trace, 0.5, positive_part=True)
    assert np.all(np.diff(pos) >= 0.0)
    assert np.all(pos >= plain - 1e-12)


def test_regret_series_phase_benchmark():
    trace = trace_of(cost=[1.0] * 4)
    out = regret_series(trace, [1.0, 0.5, 1.0, 0.0])
    assert out[-1] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        regret_series(trace, [1.0, 0.5])


def test_slope_fit_recovers_exact_power_laws():
    pts = [(T, math.sqrt(T)) for T in (100, 400, 1600)]
    fit = sublinearity_fit(pts)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert not fit.clipped
    linear = sublinearity_fit([(T, float(T)) for T in (10, 100, 1000, 10000)])
    assert linear.slope == pytest.approx(1.0, abs=1e-12)


def test_slope_fit_clips_nonpositive_points():
    fit = sublinearity_fit([(100, -5.0), (400, 20.0), (1600, 80.0)])
    assert fit.clipped


def test_slope_fit_needs_three_points():
    with pytest.raises(ValueError):
        sublinearity_fit([(100, 1.0), (200, 2.0)])


def _report(chain, values):
    return GreedyReport(chain=tuple(chain), prefix_values=tuple(values), gap_delta=0.1)


def test_deviation_counter_set_based():
    report = _report([2, 0, 1], [0.0, 0.5, 0.7, 0.8])
    trace = trace_of(action=[
        (2, 0),  # matches as a set
        (0, 2),  # order swap still matches as a set
        (1, 2),  # wrong membership
        (),      # empty budget never counts
    ])
    assert deviation_counter(trace, report) == 1
    assert deviation_counter(trace, report, order_sensitive=True) == 2


def test_deviation_counter_rejects_foreign_arms():
    report = _report([0, 1], [0.0, 0.5, 0.7])
    with pytest.raises(ValueError):
        deviation_counter(trace_of(action=[(5,)]), report)
    # in either mode, an arm at n, above it or below 0, also after valid rows
    for bad in (2, 3, -1):
        for order_sensitive in (False, True):
            with pytest.raises(ValueError):
                deviation_counter(trace_of(action=[(0, 1), (), (1, bad)]), report,
                                  order_sensitive)


def _loop_deviation_counter(trace, report, order_sensitive=False):
    """The per-row loop that deviation_counter replaced."""
    n = len(report.chain)
    count = 0
    for chain in trace.action:
        if any(a >= n or a < 0 for a in chain):
            raise ValueError("trace chain references an arm outside the benchmark's arm set")
        prefix = report.chain[: len(chain)]
        if order_sensitive:
            mismatch = chain != prefix
        else:
            mismatch = set(chain) != set(prefix)
        if mismatch:
            count += 1
    return count


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 6), order_sensitive=st.booleans())
def test_deviation_counter_matches_the_per_row_loop(data, n, order_sensitive):
    greedy = data.draw(st.permutations(range(n)))
    # arms in [-1, n]: the out-of-range ones must raise in both versions
    arms = st.integers(-1, n) if data.draw(st.booleans()) else st.integers(0, n - 1)
    chains = data.draw(st.lists(st.one_of(
        st.lists(arms, max_size=n, unique=True).map(tuple),
        st.integers(0, n).map(lambda k: tuple(greedy[:k])),  # the greedy prefix itself
    ), max_size=30))
    report = _report(greedy, [0.0] * (n + 1))
    trace = trace_of(action=chains)
    try:
        expected = _loop_deviation_counter(trace, report, order_sensitive)
    except ValueError:
        with pytest.raises(ValueError):
            deviation_counter(trace, report, order_sensitive)
    else:
        assert deviation_counter(trace, report, order_sensitive) == expected


def test_metrics_report_checks_invariants():
    from coverctl.metrics import MetricsReport

    good = MetricsReport()
    good.add(np.array([1.0, 0.5, 0.5]), np.array([0.1, -0.2, 0.3]), np.array([0.1, 0.1, 0.6]), 0)
    assert good.summary()["regret_pos_final"] == pytest.approx(0.6)
    assert good.summary()["coverage_final"] == 0.5
    with pytest.raises(ValueError):
        MetricsReport().add(np.array([1.2]), np.array([0.0]), np.array([0.0]), 0)
    with pytest.raises(ValueError):
        MetricsReport().add(np.array([0.5, 0.5]), np.array([0.0, 0.0]),
                            np.array([1.0, 0.5]), 0)  # decreasing
    with pytest.raises(ValueError, match="empty"):
        MetricsReport().summary()


def test_metrics_report_sums_its_chunks_and_checks_across_them():
    from coverctl.metrics import MetricsReport

    report = MetricsReport(extras={"k": 1})
    report.add(np.array([1.0, 0.5]), np.array([0.1, -0.2]), np.array([0.1, 0.1]), 1)
    report.add(np.array([0.5]), np.array([0.3]), np.array([0.6]), 2)
    assert report.summary() == {"steps": 3, "coverage_final": 0.5, "regret_final": 0.3,
                                "regret_pos_final": 0.6, "boundary_steps": 3, "k": 1}
    # each chunk alone rises, but the second starts below where the first ended
    with pytest.raises(ValueError, match="non-decreasing"):
        report.add(np.array([0.5, 0.5]), np.array([0.0, 0.0]), np.array([0.5, 0.7]), 0)


def test_deviation_rate_falls_across_quarters():
    # on a well-separated any-success world the chain learner drifts toward
    # the greedy prefix, so per-quarter deviation counts shrink
    import math

    from coverctl.chains import ChainConfig, ChainStats, acog_step
    from coverctl.control import ControllerState, StepSchedule
    from coverctl.environments import OrWorld
    from coverctl.oracles import greedy_chain
    from coverctl.rng import replica_seed

    p = [0.55, 0.40, 0.28, 0.18, 0.10, 0.05]
    n, horizon = len(p), 30000
    world = OrWorld(p, replica_seed(7, 0))
    report = greedy_chain(world.value_oracle(), n)
    cfg = ChainConfig(n=n, phi=0.8, horizon_T=horizon)
    theta = ControllerState(0.0, 0.8, StepSchedule.constant(n / (2 * math.sqrt(horizon))))
    stats = ChainStats(n, horizon)
    rows = [acog_step(theta, stats, cfg, world) for _ in range(horizon)]
    quarter = horizon // 4
    counts = [deviation_counter(Trace.from_rows(rows[i * quarter:(i + 1) * quarter],
                                                ("boundary",)), report)
              for i in range(4)]
    assert counts[0] > counts[1] > counts[3]
    assert counts[2] >= counts[3]


def test_coverage_identity_against_controller_state():
    # cross-check: cumulative coverage error equals the scaled state motion
    from coverctl.control import ControllerState, StepSchedule, aci_update

    rng = random.Random(9)
    eta, phi = 0.03, 0.65
    s = ControllerState(0.0, phi, StepSchedule.constant(eta))
    rewards = []
    for _ in range(50_000):
        y = float(rng.random() < 0.6) if rng.random() < 0.9 else rng.random()
        rewards.append(y)
        aci_update(s, y)
    cov = coverage_series(trace_of(reward=rewards))
    lhs = cov[-1] - phi
    rhs = -(s.value - 0.0) / (eta * len(rewards))
    assert lhs == pytest.approx(rhs, abs=1e-9)
