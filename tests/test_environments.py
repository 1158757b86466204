import math
import random
from bisect import bisect_left
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverctl import environments, runner
from coverctl.environments import (
    ArmSpec,
    IidArmWorld,
    IntervalWorld,
    OrWorld,
    PoissonDemand,
    ScoreWorld,
    TrapWorld,
    _C_BITS,
    _C_DEMAND,
    _BLOCK_CELLS,
    _BLOCK_ROWS,
    _C_POINT,
    _StepBlocks,
    draw_or_probabilities,
)
from coverctl.oracles import greedy_chain, newsvendor_benchmark
from coverctl.rng import uniform

# Beta(2, 5) CDF in closed form (order statistics of six uniforms); this is
# the independent reference the sampled worlds are checked against.
def beta25_cdf(x):
    return 1.0 - (1.0 - x) ** 6 - 6.0 * x * (1.0 - x) ** 5


def test_observation_carries_exactly_reward_and_cost():
    answers = [IidArmWorld([ArmSpec(0.5, (0.2, 0.6))], seed=1).pull(2, 0),
               IntervalWorld(0.25, ("uniform",), seed=1).pull(2, 3),
               TrapWorld((1, 5)).pull(2, TrapWorld.TRAP),
               ScoreWorld(1).evaluate(2, 0.5)]
    for answer in answers:
        assert type(answer) is tuple and len(answer) == 2


def test_iid_world_degenerate_arms():
    world = IidArmWorld([ArmSpec(0.0, 0.0), ArmSpec(1.0, 1.0), ArmSpec(0.5, 0.3)], seed=1)
    for t in range(1, 200):
        assert world.pull(t, 0)[0] == 0.0
        assert world.pull(t, 1) == (1.0, 1.0)
    assert world.i_min == 0 and world.i_max == 1


def test_iid_world_appends_missing_anchor_arms():
    world = IidArmWorld([ArmSpec(0.4, 0.2)], seed=3)
    assert world.n == 3
    assert world.specs[world.i_min].p == 0.0
    assert world.specs[world.i_max].p == 1.0
    assert world.specs[world.i_max].cost == world.c_max


def test_iid_world_empirical_mean_concentrates():
    world = IidArmWorld([ArmSpec(0.3, 0.1), ArmSpec(0.0, 0.0), ArmSpec(1.0, 1.0)], seed=13)
    n = 100_000
    hits = sum(world.pull(t, 0)[0] for t in range(1, n + 1))
    tol = 3.0 * math.sqrt(0.3 * 0.7 / n)
    assert abs(hits / n - 0.3) < tol


def test_iid_world_rejects_bad_probability():
    with pytest.raises(ValueError):
        IidArmWorld([ArmSpec(1.2, 0.5)], seed=1)


def test_iid_world_stochastic_costs_stay_in_support():
    world = IidArmWorld([ArmSpec(0.5, (0.2, 0.6)), ArmSpec(0.0, 0.0), ArmSpec(1.0, 0.6)],
                        seed=4)
    costs = [world.pull(t, 0)[1] for t in range(1, 3000)]
    assert all(0.2 <= c <= 0.6 for c in costs)
    assert abs(np.mean(costs) - 0.4) < 0.01


def test_interval_world_anchor_arms():
    world = IntervalWorld(0.25, ("beta", 2, 5), seed=2)
    for t in range(1, 100):
        full = world.pull(t, world.i_max)
        empty = world.pull(t, world.i_min)
        assert full == (1.0, 1.0)
        assert empty == (0.0, 0.0)


def test_interval_world_containment_rate_matches_cdf():
    world = IntervalWorld(0.05, ("beta", 2, 5), seed=8)
    # arm [0, 0.45]: true containment probability is the Beta(2,5) CDF there
    arm = next(i for i, a in enumerate(world.arms)
               if a is not None and a[0] == 0.0 and abs(a[1] - 0.45) < 1e-12)
    n = 100_000
    hits = sum(world.pull(t, arm)[0] for t in range(1, n + 1))
    truth = beta25_cdf(0.45)
    assert truth == pytest.approx(0.836432578125, abs=1e-12)
    assert abs(hits / n - truth) < 3.0 * math.sqrt(truth * (1 - truth) / n)
    law = IntervalWorld(0.05, ("beta", 2, 5), 1).cdf
    for x in np.linspace(-0.1, 1.1, 49):
        assert law(float(x)) == pytest.approx(beta25_cdf(min(max(x, 0.0), 1.0)), abs=1e-12)


def test_interval_world_uniform_points():
    world = IntervalWorld(0.25, ("uniform",), seed=5)
    n = 50_000
    arm = world.arms.index((0.25, 0.75))
    hits = sum(world.pull(t, arm)[0] for t in range(1, n + 1))
    assert abs(hits / n - 0.5) < 3.0 * math.sqrt(0.25 / n)


def test_interval_world_debug_point_not_in_observation():
    world = IntervalWorld(0.5, ("uniform",), seed=6)
    obs = world.pull(17, world.i_max)
    assert obs == (1.0, 1.0)  # nothing but the bit and the cost


def test_interval_world_arm_grid():
    assert len(IntervalWorld(1.0, ("uniform",), seed=1).arms) == 2
    assert len(IntervalWorld(0.05, ("uniform",), seed=1).arms) == 211
    world = IntervalWorld(0.25, ("uniform",), seed=1)
    assert len(world.arms) == 11
    assert world.arms[world.i_min] is None
    assert world.arms[world.i_max] == (0.0, 1.0)
    assert world.arms[1:] == sorted(world.arms[1:])  # ordered by (i, j)
    with pytest.raises(ValueError):
        IntervalWorld(0.3, ("uniform",), seed=1)
    with pytest.raises(ValueError):
        IntervalWorld(0.0, ("uniform",), seed=1)


def test_interval_world_arm_costs_are_lengths():
    world = IntervalWorld(0.2, ("uniform",), seed=1)
    assert world.pull(1, world.i_min)[1] == 0.0
    for arm, (lo, hi) in enumerate(world.arms[1:], start=1):
        assert world.pull(arm, arm)[1] == hi - lo
    assert world.c_max == pytest.approx(1.0)


def test_interval_world_rejects_bad_dist():
    with pytest.raises(ValueError):
        IntervalWorld(0.25, ("beta", 1.5, 5), seed=1)
    with pytest.raises(ValueError):
        IntervalWorld(0.25, ("triangle",), seed=1)
    with pytest.raises(ValueError):
        IntervalWorld(0.25, ("uniform", 3), seed=1)
    with pytest.raises(ValueError):
        IntervalWorld(0.25, ("beta", 2), seed=1)


def test_interval_world_uniform_is_beta_one_one():
    uni = IntervalWorld(0.1, ("uniform",), seed=8)
    beta = IntervalWorld(0.1, ("beta", 1, 1), seed=8)
    for t in range(1, 4001):
        arm = t % uni.n
        assert uni.pull(t, arm) == beta.pull(t, arm)
    for x in np.linspace(-0.5, 1.5, 41):
        assert uni.cdf(x) == beta.cdf(x) == min(max(x, 0.0), 1.0)


def _reference_pull(world, t, arm):
    # the per-step scalar draw IntervalWorld.pull replaced, kept as a bit-exact reference
    a, b = world._shape
    y = sorted(uniform(world.seed, _C_POINT, t, lane) for lane in range(a + b - 1))[a - 1]
    if world.arms[arm] is None:
        return 0.0, 0.0
    lo, hi = world.arms[arm]
    return 1.0 if lo <= y <= hi else 0.0, hi - lo


def _reference_probe(world, t, chain):
    # the per-step scalar draw OrWorld.probe replaced, kept as a bit-exact reference
    values, hit = [], 0.0
    for arm in chain:
        if uniform(world.seed, _C_BITS, t, arm) < world.p[arm]:
            hit = 1.0
        values.append(hit)
    return values


def _visit_orders(block):
    """Step sequences that read blocks forwards, backwards, and across an edge."""
    return [range(1, 60), range(block - 40, block + 40), range(block + 40, block - 40, -1),
            range(60, 0, -1), [block - 1, block, block + 1, 1]]


def test_interval_world_blocks_match_the_scalar_draws_in_any_step_order():
    for dist in (("beta", 2, 5), ("uniform",), ("beta", 3, 1)):
        world = IntervalWorld(0.1, dist, seed=2**63 + 11)
        for order in _visit_orders(world._points.steps):
            for t in order:
                arm = (t * 7) % world.n
                assert world.pull(t, arm) == _reference_pull(world, t, arm), (dist, t)


def test_interval_world_with_more_lanes_than_a_block_holds_reads_one_step_blocks():
    # Beta(70000, 1) draws 70000 lanes a step, more than one block's cells
    world = IntervalWorld(1.0, ("beta", 70000, 1), seed=5)
    assert world.pull(1, 1) == (1.0, 1.0)
    assert world._points.steps == 1
    # the 70000th smallest of 70000 uniforms is their maximum
    assert world._points[1] == max(uniform(5, _C_POINT, 1, lane) for lane in range(70000))


def test_or_world_blocks_match_the_scalar_draws_in_any_step_order():
    world = OrWorld([0.55, 0.4, 0.28, 0.18, 0.1, 0.05, 0.9, 0.0, 1.0, 0.3], seed=77)
    chain = [3, 0, 8, 5, 1]
    for order in _visit_orders(world._bits.steps):
        for t in order:
            assert world.probe(t, chain) == _reference_probe(world, t, chain), t
            assert world.probe(t, []) == []


@pytest.mark.parametrize("lanes,steps", [(1, _BLOCK_ROWS), (6, _BLOCK_ROWS), (20, _BLOCK_ROWS),
                                         (10**4, 6), (10**5, 1)])
def test_a_block_holds_at_most_a_chunk_of_rows(lanes, steps):
    # a replica consumes its steps one runner chunk at a time: a block longer
    # than that holds rows no chunk needs yet
    assert _BLOCK_ROWS == runner._CHUNK_ROWS
    block = _StepBlocks(3, _C_POINT, lanes, lambda u: u)
    assert block.steps == min(_BLOCK_ROWS, max(1, _BLOCK_CELLS // lanes)) == steps


@pytest.mark.parametrize("make,blocks", [
    (lambda: IntervalWorld(0.1, ("beta", 2, 5), seed=2**63 + 11), "_points"),
    (lambda: OrWorld([0.55, 0.4, 0.28, 0.18, 0.1, 0.05, 0.9, 0.0, 1.0, 0.3], seed=77), "_bits"),
], ids=["interval", "or"])
def test_block_rows_do_not_depend_on_the_block_length(monkeypatch, make, blocks):
    # a row depends only on its step: 5000 steps read in order, and 500 of them
    # in a shuffled order (each read may refill a block), give the same bits
    # with blocks of 2048 rows and of 7
    steps = range(1, 5001)
    orders = (steps, random.Random(5).sample(steps, 500))

    def reads(rows):
        monkeypatch.setattr(environments, "_BLOCK_ROWS", rows)
        out = []
        for order in orders:
            block = getattr(make(), blocks)
            assert block.steps == rows
            out.append({t: repr(block[t]) for t in order})
        return out

    (in_order, shuffled), (in_order_7, shuffled_7) = reads(2048), reads(7)
    assert in_order == in_order_7 and shuffled == shuffled_7
    assert shuffled.items() <= in_order.items()


def test_trap_world_schedule():
    world = TrapWorld((50, 100))
    assert world.pull(10, world.TRAP) == (1.0, 0.05)
    assert world.pull(50, world.TRAP) == (0.0, 0.05)
    assert world.pull(99, world.TRAP) == (0.0, 0.05)
    assert world.pull(100, world.TRAP) == (1.0, 0.05)
    for t in (1, 75, 200):
        assert world.pull(t, world.SAFE) == (1.0, 1.0)
        assert world.pull(t, world.ZERO) == (0.0, 0.0)
    # steps 50..99 fail: a quarter of 1..200, none of 1..49
    assert world.means(200) == ([1.0, 0.75, 0.0], [1.0, 0.05, 0.0])
    assert world.means(49) == ([1.0, 1.0, 0.0], [1.0, 0.05, 0.0])


def test_score_world_boundaries_and_rate():
    world = ScoreWorld(21)
    n = 50_000
    assert all(world.evaluate(t, 1.0)[0] == 1.0 for t in range(1, 500))
    assert sum(world.evaluate(t, 0.0)[0] for t in range(1, 5000)) == 0.0
    hits = sum(world.evaluate(t, 0.8)[0] for t in range(1, n + 1))
    assert abs(hits / n - 0.8) < 3.0 * math.sqrt(0.16 / n)
    assert world.evaluate(3, 0.8)[1] == 0.8


def test_score_world_monotone_step_in_threshold():
    world = ScoreWorld(33)
    for t in range(1, 200):
        outcomes = [world.evaluate(t, tau)[0] for tau in np.linspace(0, 1, 21)]
        assert outcomes == sorted(outcomes)  # single upward jump


def test_poisson_demand_clamps():
    tiny = PoissonDemand(0.01, 0.01, 10, 100.0, seed=3)
    draws = [tiny.draw(t) for t in range(1, 2000)]
    assert min(draws) == 1.0  # zero draws forced up to 1
    squeezed = PoissonDemand(50.0, 50.0, 10, 10.0, seed=3)
    draws = [squeezed.draw(t) for t in range(1, 500)]
    assert max(draws) == 10.0 and min(draws) >= 1.0


def _loop_draw(stream, t):
    # the sequential inversion loop PoissonDemand.draw replaced, kept as a
    # bit-exact reference
    lam = stream.rate(t)
    u = uniform(stream.seed, _C_DEMAND, t, 0)
    k, term = 0, math.exp(-lam)
    cum = term
    top = int(stream.cap)
    while u > cum and k < top:
        k += 1
        term *= lam / k
        cum += term
    return float(min(max(k, 1), stream.cap))


def _reference_pmf(lam, cap):
    # the former oracles.truncated_poisson_pmf, kept as a bit-exact reference
    term = math.exp(-lam)
    pmf = {1: term}  # P(X = 0) clamps up to 1
    cum = term
    for k in range(1, cap):
        term *= lam / k
        pmf[k] = pmf.get(k, 0.0) + term
        cum += term
    pmf[cap] = pmf.get(cap, 0.0) + max(1.0 - cum, 0.0)
    return pmf


def test_poisson_demand_matches_the_sequential_loop_exactly():
    # at rate 0.5 the terms underflow to 0.0 near k = 157, far below caps
    # 2000 and 1e12; the running sum reaches 1.0 there, so the loop ends
    for stream in (PoissonDemand(20.0, 50.0, 2500, 100.0, seed=9),
                   PoissonDemand(0.5, 8.0, 2500, 10.5, seed=4),
                   PoissonDemand(50.0, 0.5, 2500, 1.0, seed=2),
                   PoissonDemand(0.5, 0.5, 2500, 2000.0, seed=5),
                   PoissonDemand(0.5, 0.5, 2500, 1e12, seed=5)):
        assert all(stream.draw(t) == _loop_draw(stream, t) for t in range(1, 5001))


def test_poisson_pmf_matches_the_reference_exactly():
    for lam in (0.5, 20.0, 50.0):
        for cap in (1, 2, 100):
            assert PoissonDemand(lam, lam, 0, float(cap), seed=1).pmf(lam) == _reference_pmf(lam, cap)


def _nonzero(law):
    return {k: w for k, w in law.items() if w != 0.0}


def test_poisson_law_stops_at_underflow():
    # past the underflow the reference only adds zero-probability demands
    ref = _reference_pmf(0.5, 2000)
    short = PoissonDemand(0.5, 0.5, 0, 2000.0, seed=1)
    assert _nonzero(short.pmf(0.5)) == _nonzero(ref)
    assert newsvendor_benchmark(short.pmf(0.5), 0.9) == newsvendor_benchmark(ref, 0.9)
    # at cap 1e12 the same tail mass sits on demand 10**12
    moved = {k: w for k, w in ref.items() if k != 2000} | {10**12: ref[2000]}
    huge = PoissonDemand(0.5, 0.5, 0, 1e12, seed=1)
    assert _nonzero(huge.pmf(0.5)) == _nonzero(moved)
    assert newsvendor_benchmark(huge.pmf(0.5), 0.9) == newsvendor_benchmark(moved, 0.9)
    # the law, and with it the inversion table, ends at the first zero term, whatever the cap
    assert len(short.pmf(0.5)) == len(huge.pmf(0.5)) < 200


def _former_poisson_terms(lam, n):
    # the terms and running sums PoissonDemand inverted before its draw read
    # the law that pmf returns, kept as a bit-exact reference
    terms = [math.exp(-lam)]
    for k in range(1, n):
        if terms[-1] == 0.0:
            break
        terms.append(terms[-1] * (lam / k))
    return terms, list(accumulate(terms))


def _former_draw(stream, cdfs, t):
    cdf = cdfs[stream.rate(t)]
    k = bisect_left(cdf, uniform(stream.seed, _C_DEMAND, t, 0))
    return float(min(max(k, 1), stream.cap) if k < len(cdf) else int(stream.cap))


def _former_pmf(lam, cap):
    top = int(cap)
    terms, cdf = _former_poisson_terms(lam, top)
    law = {1: terms[0]}
    for k in range(1, len(terms)):
        law[k] = law.get(k, 0.0) + terms[k]
    law[top] = law.get(top, 0.0) + max(1.0 - cdf[-1], 0.0)
    return law


_RATES = st.one_of(st.sampled_from([1e-300, 1e-9, 0.01, 0.5, 20.0, 50.0, 700.0, 708.39]),
                   st.floats(1e-6, 708.0))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(before=_RATES, after=_RATES, shift=st.integers(0, 1500),
       cap=st.one_of(st.floats(1.0, 2.0), st.integers(1, 3000).map(float), st.floats(1.0, 3000.0),
                     st.just(1e12)),
       seed=st.integers(0, 2**32))
def test_poisson_demand_matches_the_former_inversion_bit_for_bit(before, after, shift, cap, seed):
    stream = PoissonDemand(before, after, shift, cap, seed)
    cdfs = {lam: _former_poisson_terms(lam, int(cap))[1] for lam in (before, after)}
    assert [stream.draw(t) for t in range(1, 3001)] == [_former_draw(stream, cdfs, t)
                                                        for t in range(1, 3001)]
    for lam in (before, after):
        law = stream.pmf(lam)
        assert repr(law) == repr(_former_pmf(lam, cap))  # same keys, order and float bits
        assert list(law) == sorted(law)  # in demand order


def test_poisson_rate_whose_exp_is_subnormal_is_refused():
    # exp(-rate) leaves the normal floats just past rate 708.396: from there the
    # terms lose precision, and from about 745.1 every one of them is 0.0
    assert PoissonDemand(708.39, 708.39, 0, 2000.0, seed=1).pmf(708.39)
    for before, after in ((708.4, 20.0), (20.0, 740.0), (800.0, 800.0)):
        with pytest.raises(ValueError, match="exp\\(-rate\\) a normal float"):
            PoissonDemand(before, after, 0, 2000.0, seed=1)


def test_poisson_demand_mean_and_shift():
    stream = PoissonDemand(20.0, 50.0, 500, 100.0, seed=9)
    n = 100_000
    early = [stream.draw(t) for t in range(1, 501)]
    late = [stream.draw(t) for t in range(501, 2001)]
    assert abs(np.mean(early) - 20.0) < 1.0
    assert abs(np.mean(late) - 50.0) < 1.0
    big = [stream.draw(t) for t in range(2001, 2001 + n)]
    assert abs(np.mean(big) - 50.0) < 3.0 * math.sqrt(50.0 / n)


def test_or_world_prefix_values():
    world = OrWorld([0.5, 0.5, 0.5], seed=12)
    assert world.probe(1, []) == []
    n = 100_000
    sums = np.zeros(3)
    for t in range(1, n + 1):
        sums += world.probe(t, [0, 1, 2])
    truth = np.array([0.5, 0.75, 0.875])
    for k in range(3):
        se = math.sqrt(truth[k] * (1 - truth[k]) / n)
        assert abs(sums[k] / n - truth[k]) < 3.0 * se


def test_or_world_certain_arm():
    world = OrWorld([1.0], seed=1)
    assert all(world.probe(t, [0]) == [1.0] for t in range(1, 200))


def test_or_world_prefix_values_monotone():
    world = OrWorld([0.2, 0.7, 0.1, 0.4], seed=44)
    for t in range(1, 500):
        vals = world.probe(t, [3, 0, 2, 1])
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_or_world_value_oracle():
    f = OrWorld([0.3, 0.2, 0.1], seed=0).value_oracle()
    assert f([]) == 0.0
    assert f([0]) == pytest.approx(0.3)
    assert f([0, 1]) == pytest.approx(1 - 0.7 * 0.8)
    assert f([0, 1, 2]) == pytest.approx(1 - 0.7 * 0.8 * 0.9)


def _plain_product_oracle(p):
    """The product from scratch at every call, as the oracle took it before
    it kept the running product of its last prefix."""
    def f(subset):
        prod = 1.0
        for i in subset:
            prod *= 1.0 - p[i]
        return 1.0 - prod

    return f


@pytest.mark.parametrize("n", [1, 2, 7, 30, 60])
def test_running_product_oracle_gives_the_plain_greedy_report(n):
    # ties too: a range of one value makes every arm equal
    for seed, (lo, hi) in enumerate([(0.05, 0.9), (0.05, 0.3), (0.4, 0.4)]):
        p = draw_or_probabilities(n, lo, hi, seed)
        assert (greedy_chain(OrWorld(p, seed).value_oracle(), n)
                == greedy_chain(_plain_product_oracle(p), n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 8))
def test_running_product_oracle_equals_the_plain_product_in_any_call_order(data, n):
    p = draw_or_probabilities(n, 0.05, 0.95, n)
    running, plain = OrWorld(p, 0).value_oracle(), _plain_product_oracle(p)
    subsets = data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n), max_size=12))
    for subset in subsets:
        assert running(subset) == plain(subset), subset


def test_replay_determinism():
    a = IntervalWorld(0.05, ("beta", 2, 5), seed=77)
    b = IntervalWorld(0.05, ("beta", 2, 5), seed=77)
    seq = [(t, (t * 13) % 211) for t in range(1, 2000)]
    assert [a.pull(t, arm) for t, arm in seq] == [b.pull(t, arm) for t, arm in seq]
    c = IntervalWorld(0.05, ("beta", 2, 5), seed=78)
    assert any(a.pull(t, arm) != c.pull(t, arm) for t, arm in seq)


def test_draw_or_probabilities_reproducible_and_in_range():
    p1 = draw_or_probabilities(20, 0.05, 0.30, seed=123)
    p2 = draw_or_probabilities(20, 0.05, 0.30, seed=123)
    p3 = draw_or_probabilities(20, 0.05, 0.30, seed=124)
    assert p1 == p2 and p1 != p3
    assert all(0.05 <= x <= 0.30 for x in p1)
