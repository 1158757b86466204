import dataclasses
import math
import re
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverctl.environments import OrWorld, PoissonDemand
from coverctl.oracles import (
    GreedyReport,
    InfeasibleBenchmarkError,
    LpSolution,
    beta_cdf,
    beta_coefficients,
    greedy_chain,
    interval_benchmark,
    lp_benchmark,
    newsvendor_benchmark,
    threshold_benchmark,
)


def closed_form_beta_cdf(x, a, b):
    # beta_cdf as it was when it computed every math.comb(n, j) at each point,
    # kept as a bit-exact reference
    x = min(max(x, 0.0), 1.0)
    n = a + b - 1
    return sum(math.comb(n, j) * x**j * (1.0 - x) ** (n - j) for j in range(a, n + 1))


def _former_range_loop(a, b):
    # the range rule as it was, a loop of its own up the binomial row, kept as a reference
    n, c = a + b - 1, 1
    for i in range(1, min(b - 1, (n + 1) // 2) + 1):
        c = c * (n - i + 1) // i  # C(n, i), exactly
        if c > sys.float_info.max:
            return False
    return True


def test_beta_cdf_matches_closed_form():
    for a, b in ((2, 5), (1, 1), (3, 3), (5, 2)):
        for x in np.linspace(0.0, 1.0, 41):
            assert beta_cdf(float(x), a, b) == pytest.approx(
                closed_form_beta_cdf(float(x), a, b), abs=1e-9
            )
    assert beta_cdf(0.45, 2, 5) == pytest.approx(0.836432578125, abs=1e-9)
    # independent reference
    scipy_beta = pytest.importorskip("scipy.stats").beta
    for a in range(1, 7):
        for b in range(1, 7):
            for x in np.linspace(0.0, 1.0, 41):
                assert beta_cdf(float(x), a, b) == pytest.approx(
                    scipy_beta.cdf(x, a, b), abs=1e-12)


def test_beta_cdf_equals_the_per_point_comb_formula_bit_for_bit():
    # every shape with a + b <= 61 on a 201-point subgrid of the 2001 points the
    # interval oracle reads, and the whole 2001-point grid for a + b <= 11
    grid = [float(x) for x in np.linspace(0.0, 1.0, 2001)]
    for a, b in ((a, s - a) for s in range(2, 62) for a in range(1, s)):
        n = a + b - 1
        assert beta_coefficients(a, b) == tuple(float(math.comb(n, j)) for j in range(a, n + 1))
        for x in grid if a + b <= 11 else grid[::10]:
            assert beta_cdf(x, a, b) == closed_form_beta_cdf(x, a, b), (x, a, b)


def test_lp_benchmark_two_point_mixture():
    sol = lp_benchmark([1.0, 0.0], [1.0, 0.0], 0.8)
    assert sol.c_star == pytest.approx(0.8, abs=1e-12)
    assert sol.mixture == pytest.approx((0.8, 0.2))


def test_lp_benchmark_three_arm_instance():
    sol = lp_benchmark([1.0, 0.5, 0.0], [1.0, 0.2, 0.0], 0.8)
    assert sol.c_star == pytest.approx(0.68, abs=1e-12)
    assert sol.mixture == pytest.approx((0.6, 0.4, 0.0))


def test_lp_benchmark_slack_constraint():
    sol = lp_benchmark([1.0, 0.2, 0.0], [1.0, 0.1, 0.0], 0.0)
    assert sol.c_star == 0.0


def test_lp_benchmark_infeasible():
    with pytest.raises(InfeasibleBenchmarkError):
        lp_benchmark([0.5, 0.3], [0.2, 0.1], 0.9)


def test_lp_benchmark_matches_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        p = rng.uniform(0, 1, n)
        omega = rng.uniform(0, 1, n)
        p[0], omega[0] = 1.0, 1.0
        phi = float(rng.uniform(0.05, 0.95))
        sol = lp_benchmark(p, omega, phi)
        res = linprog(c=omega, A_ub=[-p], b_ub=[-phi], A_eq=[np.ones(n)],
                      b_eq=[1.0], bounds=[(0, 1)] * n, method="highs")
        assert sol.c_star == pytest.approx(res.fun, abs=1e-9)
        mix = np.array(sol.mixture)
        assert mix.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(mix @ p) >= phi - 1e-9


def _list_built_lp_benchmark(p, omega, phi):
    # lp_benchmark as it was when it built a fresh mixture list for every
    # improvement, kept as a bit-exact reference
    p = [float(x) for x in p]
    omega = [float(x) for x in omega]
    n = len(p)
    best_cost, best_mix = math.inf, None
    for i in range(n):
        if p[i] >= phi - 1e-9 and omega[i] < best_cost:
            best_cost = omega[i]
            best_mix = [0.0] * n
            best_mix[i] = 1.0
    for i in range(n):
        for j in range(n):
            if i == j or p[i] <= p[j]:
                continue
            x = (phi - p[j]) / (p[i] - p[j])
            if x < 0.0 or x > 1.0:
                continue
            cost = x * omega[i] + (1.0 - x) * omega[j]
            if cost < best_cost - 1e-15:
                best_cost = cost
                best_mix = [0.0] * n
                best_mix[i] = x
                best_mix[j] = 1.0 - x
    if best_mix is None:
        raise InfeasibleBenchmarkError(
            f"arm-mixture benchmark infeasible: no mixture reaches phi={phi}")
    return LpSolution(c_star=float(best_cost), mixture=tuple(best_mix))


# rates and costs from a coarse grid, so that ties between arms and pairs are common
_LP_VALUES = st.one_of(st.sampled_from([0.0, 0.2, 0.25, 0.5, 0.8, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(arms=st.lists(st.tuples(_LP_VALUES, _LP_VALUES), min_size=1, max_size=7),
       phi=st.one_of(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), st.floats(-0.1, 1.1)))
def test_lp_benchmark_matches_the_list_built_reference_bit_for_bit(arms, phi):
    p, omega = zip(*arms)
    try:
        expected = repr(_list_built_lp_benchmark(p, omega, phi))  # repr keeps -0.0 apart
    except InfeasibleBenchmarkError as err:
        with pytest.raises(InfeasibleBenchmarkError, match=re.escape(str(err))):
            lp_benchmark(p, omega, phi)
    else:
        assert repr(lp_benchmark(p, omega, phi)) == expected


def _refused(a, b):
    try:
        beta_coefficients(a, b)
    except ValueError:
        return True
    return False


def test_beta_coefficients_refuses_the_shapes_the_former_range_loop_refused():
    # C(1029, 514) is below the largest float and C(1030, 515) above it; past
    # the middle only the coefficients from j = a on count
    for n in (1, 2, 7, 1028, 1029, 1030, 1031, 1200, 2100):
        for a in {1, 2, n // 2, n // 2 + 1, n // 2 + 2, n - 300, n - 1, n} & set(range(1, n + 1)):
            try:
                closed_form_beta_cdf(0.5, a, n + 1 - a)
                evaluable = True
            except OverflowError:
                evaluable = False
            assert _former_range_loop(a, n + 1 - a) == evaluable, (a, n + 1 - a)
            assert _refused(a, n + 1 - a) == (not evaluable), (a, n + 1 - a)
            if evaluable:
                assert beta_cdf(0.5, a, n + 1 - a) == closed_form_beta_cdf(0.5, a, n + 1 - a)
            else:
                with pytest.raises(ValueError, match="out of range"):
                    beta_cdf(0.5, a, n + 1 - a)
    # shapes far past the float range are refused at once, not after computing C(n, j)
    for a, b in ((2, 5), (1, 1), (10**6, 1), (1, 10**6), (10**4000, 10**4000)):
        assert _refused(a, b) == (not _former_range_loop(a, b)), (a, b)
    assert beta_coefficients(10**6, 1) == (1.0,) and _refused(1, 10**6)


def test_beta_coefficients_refuses_shapes_that_are_not_integers_of_at_least_one():
    for a, b in ((0, 1), (2.5, 3), (2, 0), (-1, 5), (math.nan, 2), (2, math.inf)):
        with pytest.raises(ValueError, match="integer shapes >= 1"):
            beta_coefficients(a, b)
    assert beta_coefficients(2.0, 5) == beta_coefficients(2, 5) == (15.0, 20.0, 15.0, 6.0, 1.0)


def test_threshold_benchmark_identity_curve():
    assert threshold_benchmark(lambda t: t, 0.8, 0.0, 1.0) == pytest.approx(0.8, abs=1e-9)
    # the root is searched on the bracket the caller passes
    assert threshold_benchmark(lambda t: t / 2, 0.8, 0.0, 2.0) == pytest.approx(1.6, abs=1e-9)


def test_threshold_benchmark_quadratic_reward():
    assert threshold_benchmark(lambda t: t * t, 0.25, 0.0, 1.0) == pytest.approx(0.5, abs=1e-9)


def test_threshold_benchmark_infeasible():
    with pytest.raises(InfeasibleBenchmarkError):
        threshold_benchmark(lambda t: 0.5 * t, 0.9, 0.0, 1.0)


def test_grid_right_endpoint_for_skewed_points():
    # smallest right endpoint on the 0.05 grid with CDF(0, r) >= 0.8
    rights = [k * 0.05 for k in range(1, 21)]
    feasible = [r for r in rights if beta_cdf(r, 2, 5) >= 0.8]
    assert min(feasible) == pytest.approx(0.45)
    assert beta_cdf(0.40, 2, 5) < 0.8


def test_interval_benchmark_uniform():
    bench = interval_benchmark(0.05, lambda x: min(max(x, 0.0), 1.0), 0.8)
    assert bench.c_star == pytest.approx(0.8, abs=1e-9)
    assert bench.lo == pytest.approx(0.0)  # ties break to the smallest left end
    assert bench.continuous_c_star == pytest.approx(0.8, abs=1e-3)


def test_interval_benchmark_full_interval_at_phi_one():
    bench = interval_benchmark(0.25, lambda x: min(max(x, 0.0), 1.0), 0.999999999)
    assert bench.c_star == pytest.approx(1.0)
    # the continuous search reaches the whole interval, offset _RESOLUTION
    assert bench.continuous_c_star == pytest.approx(1.0, abs=1e-3)


def test_interval_benchmark_refuses_a_target_above_the_whole_mass():
    with pytest.raises(InfeasibleBenchmarkError, match="mass 0.5 of .* below phi=0.8"):
        interval_benchmark(0.25, lambda x: 0.5 * x, 0.8)


def test_interval_benchmark_skewed_points():
    bench = interval_benchmark(0.05, lambda x: beta_cdf(x, 2, 5), 0.8)
    assert (bench.lo, bench.hi) == (pytest.approx(0.05), pytest.approx(0.45))
    assert bench.c_star == pytest.approx(0.40)
    assert 0.0 < bench.continuous_c_star <= bench.c_star + 1e-9
    assert bench.discretization_gap >= -1e-9


def test_interval_benchmark_rejects_bad_delta():
    with pytest.raises(ValueError):
        interval_benchmark(0.3, lambda x: x, 0.8)


def test_newsvendor_benchmark_deterministic_demand():
    q_star, mu = newsvendor_benchmark({10.0: 1.0}, 0.9)
    assert q_star == pytest.approx(9.0, abs=1e-6)
    assert mu == pytest.approx(10.0)


def test_newsvendor_benchmark_three_point_demand():
    # E[min(a, q)] is piecewise linear: (3 + q)/3 on [2, 3], root at 2.4
    q_star, mu = newsvendor_benchmark({1: 1 / 3, 2: 1 / 3, 3: 1 / 3}, 0.9)
    assert mu == pytest.approx(2.0)
    assert q_star == pytest.approx(2.4, abs=1e-6)


def test_newsvendor_benchmark_refuses_a_target_above_the_mean_demand():
    # the most any level fulfills is E[min(a, max a)] = E[a] = 2
    with pytest.raises(InfeasibleBenchmarkError,
                       match=re.escape("phi*mu=3.0 exceeds E[a]=2.0")):
        newsvendor_benchmark({1: 0.5, 3: 0.5}, 1.5)
    assert newsvendor_benchmark({1: 0.5, 3: 0.5}, 1.0) == (pytest.approx(3.0), 2.0)


def test_newsvendor_benchmark_full_service_limit():
    q_star, _ = newsvendor_benchmark({1: 0.5, 3: 0.5}, 0.9999999)
    assert q_star == pytest.approx(3.0, abs=1e-4)


def test_newsvendor_benchmark_infeasible_weights():
    with pytest.raises(ValueError):
        newsvendor_benchmark({1: 0.4, 2: 0.4}, 0.9)


def test_truncated_poisson_pmf_mass_and_mean():
    pmf = PoissonDemand(20.0, 20.0, 0, 100.0, seed=0).pmf(20.0)
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
    assert min(pmf) == 1 and max(pmf) == 100
    mean = sum(v * w for v, w in pmf.items())
    assert mean == pytest.approx(20.0, abs=1e-6)  # truncation negligible here


def test_expected_fulfillment_concave_for_poisson():
    pmf = PoissonDemand(20.0, 20.0, 0, 100.0, seed=0).pmf(20.0)

    def r(q):
        return sum(w * min(v, q) for v, w in pmf.items())

    values = [r(q) for q in range(0, 101)]
    second = np.diff(values, n=2)
    assert np.all(second <= 1e-12)


def test_greedy_chain_uniform_probabilities():
    f = OrWorld([0.5, 0.5, 0.5], seed=0).value_oracle()
    report = greedy_chain(f, 3)
    assert report.prefix_values == pytest.approx((0.0, 0.5, 0.75, 0.875))
    assert report.budget_for(0.8) == 3
    assert report.budget_for(0.0) == 0


def test_greedy_chain_single_sufficient_arm():
    f = OrWorld([0.9], seed=0).value_oracle()
    report = greedy_chain(f, 1)
    assert report.budget_for(0.8) == 1


def test_greedy_chain_orders_by_marginal_gain():
    f = OrWorld([0.3, 0.2, 0.1], seed=0).value_oracle()
    report = greedy_chain(f, 3)
    assert report.chain == (0, 1, 2)
    with pytest.raises(InfeasibleBenchmarkError, match="below phi=0.9"):
        report.budget_for(0.9)  # full set tops out below 0.9


def test_greedy_budget_monotone_in_target():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        f = OrWorld(list(rng.uniform(0.05, 0.6, n)), seed=0).value_oracle()
        report = greedy_chain(f, n)
        budgets = [report.budget_for(rho) for rho in np.linspace(0, report.prefix_values[-1], 17)]
        assert budgets == sorted(budgets)


def test_greedy_chain_approximation_ratio_on_coverage_instances():
    # weighted-coverage set functions where greedy is genuinely suboptimal
    rng = np.random.default_rng(11)
    floor = 1.0 - 1.0 / math.e
    for _ in range(30):
        n, universe = 6, 8
        weights = rng.uniform(0.1, 1.0, universe)
        covers = [set(rng.choice(universe, size=rng.integers(1, 5), replace=False))
                  for _ in range(n)]

        def f(subset):
            covered = set().union(*(covers[i] for i in subset)) if subset else set()
            return float(sum(weights[list(covered)])) if covered else 0.0

        report = greedy_chain(f, n)
        for k in range(1, n + 1):
            best = max(f(list(s)) for s in combinations(range(n), k))
            assert report.prefix_values[k] >= floor * best - 1e-9


def test_greedy_chain_rejects_decreasing_values():
    table = {(): 0.0, (0,): 0.5, (1,): 0.4, (0, 1): 0.2}

    def f(subset):
        return table[tuple(sorted(subset))]

    with pytest.raises(ValueError):
        greedy_chain(f, 2)


def test_greedy_margin_flags():
    f = OrWorld([0.5, 0.5], seed=0).value_oracle()
    report = greedy_chain(f, 2)
    # budget_for(0.5) = 1; prefix value one past it is 0.75, a margin of 0.25
    assert report.prefix_values[2] - 0.5 == pytest.approx(0.25)
    assert not report.is_degenerate(0.5)
    assert report.is_degenerate(0.75)  # no prefix beyond the full set
    with pytest.raises(InfeasibleBenchmarkError):
        report.is_degenerate(0.9)  # the target is never reached
    # a margin at or below 1e-6 is degenerate, one above it is not
    for margin, degenerate in ((0.25, False), (2e-6, False), (5e-7, True), (0.0, True)):
        values = (0.0, 0.5, 0.5 + margin)
        assert dataclasses.replace(report, prefix_values=values).is_degenerate(0.5) == degenerate
