import math
import random

import numpy as np
import pytest

from coverctl.metrics import (
    TraceRecord,
    coverage_series,
    deviation_counter,
    regret_series,
    sublinearity_fit,
)
from coverctl.oracles import GreedyReport


def rec(t, reward=0.0, cost=0.0, action=0, state=0.0, k=0, extras=None):
    return TraceRecord(t=t, action=action, reward=reward, cost=cost, state=state,
                       k=k, extras=extras)


def test_coverage_series_all_ones():
    trace = [rec(t, reward=1.0) for t in range(1, 11)]
    assert np.all(coverage_series(trace) == 1.0)


def test_coverage_series_alternating():
    trace = [rec(t, reward=float(t % 2)) for t in range(1, 101)]
    cov = coverage_series(trace)
    assert cov[-1] == pytest.approx(0.5)
    assert all(cov[2 * k - 1] == pytest.approx(0.5) for k in range(1, 51))


def test_coverage_series_fill_mode():
    # served over asked totals: large demands weigh more than a per-step mean
    trace = [rec(1, reward=0.5, extras={"y": 5.0, "a": 10.0}),
             rec(2, reward=1.0, extras={"y": 30.0, "a": 30.0})]
    assert coverage_series(trace, "fill").tolist() == [0.5, 35.0 / 40.0]
    assert coverage_series(trace).tolist() == [0.5, 0.75]
    with pytest.raises(ValueError):
        coverage_series(trace, "median")
    with pytest.raises(ValueError):
        coverage_series([], "fill")


def test_series_equal_running_sums_exactly():
    # the trace CSV columns come from these series; a left-to-right Python
    # accumulation is the reference and must match bit for bit
    rng = random.Random(3)
    trace = [rec(t, reward=float(rng.random() < 0.7), cost=rng.uniform(0, 2),
                 extras={"y": rng.uniform(0, 5), "a": rng.uniform(5, 9)})
             for t in range(1, 3001)]
    c_star = [rng.uniform(0, 2) for _ in trace]
    num = served = asked = cum = cum_pos = 0.0
    mean, fill, plain, pos = [], [], [], []
    for idx, r in enumerate(trace):
        num += r.reward
        served += r.extras["y"]
        asked += r.extras["a"]
        gap = r.cost - c_star[idx]
        cum += gap
        cum_pos += max(gap, 0.0)
        mean.append(num / (idx + 1.0))
        fill.append(served / asked)
        plain.append(cum)
        pos.append(cum_pos)
    assert coverage_series(trace).tolist() == mean
    assert coverage_series(trace, "fill").tolist() == fill
    assert regret_series(trace, c_star).tolist() == plain
    assert regret_series(trace, c_star, positive_part=True).tolist() == pos


def test_regret_series_zero_at_benchmark():
    trace = [rec(t, cost=0.4) for t in range(1, 21)]
    assert np.all(regret_series(trace, 0.4) == pytest.approx(0.0))


def test_regret_series_single_overshoot():
    trace = [rec(1, cost=1.4)]
    assert regret_series(trace, 0.4)[-1] == pytest.approx(1.0)


def test_regret_series_positive_part_monotone():
    rng = random.Random(0)
    trace = [rec(t, cost=rng.uniform(0, 1)) for t in range(1, 2001)]
    plain = regret_series(trace, 0.5)
    pos = regret_series(trace, 0.5, positive_part=True)
    assert np.all(np.diff(pos) >= 0.0)
    assert np.all(pos >= plain - 1e-12)


def test_regret_series_phase_benchmark():
    trace = [rec(t, cost=1.0) for t in range(1, 5)]
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
    trace = [
        rec(1, action=(2, 0), k=2),  # matches as a set
        rec(2, action=(0, 2), k=2),  # order swap still matches as a set
        rec(3, action=(1, 2), k=2),  # wrong membership
        rec(4, action=(), k=0),      # empty budget never counts
    ]
    assert deviation_counter(trace, report) == 1
    assert deviation_counter(trace, report, order_sensitive=True) == 2


def test_deviation_counter_rejects_foreign_arms():
    report = _report([0, 1], [0.0, 0.5, 0.7])
    with pytest.raises(ValueError):
        deviation_counter([rec(1, action=(5,), k=1)], report)


def test_metrics_report_checks_invariants():
    from coverctl.metrics import MetricsReport

    good = MetricsReport(
        coverage_cum=np.array([1.0, 0.5, 0.5]),
        regret_cum=np.array([0.1, -0.2, 0.3]),
        regret_pos_cum=np.array([0.1, 0.1, 0.6]),
        boundary_steps=0,
    )
    assert good.summary()["regret_pos_final"] == pytest.approx(0.6)
    assert good.summary()["coverage_final"] == 0.5
    with pytest.raises(ValueError):
        MetricsReport(
            coverage_cum=np.array([1.2]),
            regret_cum=np.array([0.0]), regret_pos_cum=np.array([0.0]),
            boundary_steps=0,
        )
    with pytest.raises(ValueError):
        MetricsReport(
            coverage_cum=np.array([0.5, 0.5]),
            regret_cum=np.array([0.0, 0.0]),
            regret_pos_cum=np.array([1.0, 0.5]),  # decreasing
            boundary_steps=0,
        )


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
    trace = [acog_step(theta, stats, cfg, world) for _ in range(horizon)]
    quarter = horizon // 4
    counts = [deviation_counter(trace[i * quarter:(i + 1) * quarter], report)
              for i in range(4)]
    assert counts[0] > counts[1] > counts[3]
    assert counts[2] >= counts[3]


def test_coverage_identity_against_controller_state():
    # cross-check: cumulative coverage error equals the scaled state motion
    from coverctl.control import ControllerState, StepSchedule, aci_update

    rng = random.Random(9)
    eta, phi = 0.03, 0.65
    s = ControllerState(0.0, phi, StepSchedule.constant(eta))
    trace = []
    for t in range(1, 50_001):
        y = float(rng.random() < 0.6) if rng.random() < 0.9 else rng.random()
        trace.append(rec(t, reward=y, state=s.value))
        aci_update(s, y)
    cov = coverage_series(trace)
    lhs = cov[-1] - phi
    rhs = -(s.value - trace[0].state) / (eta * len(trace))
    assert lhs == pytest.approx(rhs, abs=1e-9)
