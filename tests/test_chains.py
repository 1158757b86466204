import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverctl.chains import (
    POSITION_KEYED,
    PREFIX_KEYED,
    ChainConfig,
    ChainStats,
    NonMonotoneFeedbackWarning,
    acog_step,
    budget_from_theta,
    select_chain,
)
from coverctl.control import ControllerState, StepSchedule
from coverctl.environments import OrWorld
from coverctl.oracles import greedy_chain
from coverctl.rng import replica_seed
from coverctl.metrics import coverage_series
from coverctl.runner import _TOL, drive_acog


def _cell(stats, position, prefix, arm):
    """(plays, mean gain) of one (context, arm) pair, read from the chain
    table's per-context float lists."""
    ctx = stats._table.get(stats._key(position, prefix))
    return (0.0, 0.0) if ctx is None else (ctx[0][arm], ctx[1][arm])


def test_budget_from_theta():
    assert budget_from_theta(2.3, 20) == 3
    assert budget_from_theta(-0.04, 20) == 0
    assert budget_from_theta(25.0, 20) == 20
    assert budget_from_theta(0.0, 20) == 0
    assert budget_from_theta(-1.5, 20) == 0
    # a state that overflowed: the driver loop refuses it once the step returns
    assert budget_from_theta(math.inf, 20) == 20
    assert budget_from_theta(-math.inf, 20) == 0
    with pytest.raises(ValueError):
        budget_from_theta(math.nan, 20)


def test_select_chain_empty_budget():
    stats = ChainStats(5, 100)
    assert select_chain(stats, 0) == []


def test_select_chain_unplayed_ties_take_lowest_indices():
    # on an empty table every arm scores +inf, so each slot takes the
    # lowest arm not yet chosen
    for variant in (PREFIX_KEYED, POSITION_KEYED):
        stats = ChainStats(5, 100, variant)
        for k in range(6):
            assert select_chain(stats, k) == list(range(k))
        assert stats._table == {}


def test_select_chain_budget_validation():
    stats = ChainStats(3, 100)
    with pytest.raises(ValueError):
        select_chain(stats, 4)


def _prime_greedy_path(stats, f, chain_order, n):
    prefix = []
    for k in range(1, n + 1):
        base = f(prefix)
        means = [f(prefix + [i]) - base if i not in prefix else -1.0 for i in range(n)]
        stats.prime(k, prefix, means)
        prefix.append(chain_order[k - 1])


def test_select_chain_with_exact_statistics_is_greedy():
    p = [0.3, 0.2, 0.1]
    f = OrWorld(p, 0).value_oracle()
    report = greedy_chain(f, 3)
    assert report.chain == (0, 1, 2)
    for variant in (PREFIX_KEYED, POSITION_KEYED):
        stats = ChainStats(3, 1000, variant)
        _prime_greedy_path(stats, f, report.chain, 3)
        assert select_chain(stats, 2) == [0, 1]
        assert select_chain(stats, 3) == [0, 1, 2]


class _ScriptedSets:
    """Prefix values from a fixed per-step table."""

    def __init__(self, rows):
        self.rows = rows

    def probe(self, t, chain):
        row = self.rows[(t - 1) % len(self.rows)]
        return [row[k] for k in range(len(chain))]


def test_acog_step_marginal_gains_and_theta():
    cfg = ChainConfig(n=3, phi=0.8, horizon_T=100)
    sched = StepSchedule.constant(0.1)
    theta = ControllerState(1.2, 0.8, sched)
    stats = ChainStats(3, 100)
    env = _ScriptedSets([[0.0, 1.0, 1.0]])  # second element flips the set value
    action, reward, k, *_ = acog_step(theta, stats, cfg, env)
    assert k == 2
    assert reward == 1.0
    chain = list(action)
    assert len(chain) == 2
    assert _cell(stats, 2, chain[:1], chain[1])[1] == 1.0
    assert _cell(stats, 1, [], chain[0]) == (1.0, 0.0)
    assert theta.value == pytest.approx(1.2 + 0.1 * (0.8 - 1.0), abs=1e-12)


def test_acog_positive_drift_at_empty_budget():
    cfg = ChainConfig(n=3, phi=0.8, horizon_T=100)
    theta = ControllerState(-0.05, 0.8, StepSchedule.constant(0.1))
    stats = ChainStats(3, 100)
    action, reward, k, *_ = acog_step(theta, stats, cfg, _ScriptedSets([[1.0, 1.0, 1.0]]))
    assert k == 0
    assert action == ()
    assert reward == 0.0
    assert theta.value == pytest.approx(-0.05 + 0.08, abs=1e-12)


def test_acog_warns_on_negative_marginal():
    cfg = ChainConfig(n=2, phi=0.5, horizon_T=100)
    theta = ControllerState(1.5, 0.5, StepSchedule.constant(0.1))
    stats = ChainStats(2, 100)
    env = _ScriptedSets([[0.8, 0.3]])  # value drops along the chain
    with pytest.warns(NonMonotoneFeedbackWarning, match=r"at step 1, position 2") as caught:
        acog_step(theta, stats, cfg, env)
    # attributed to the code that called acog_step, not to coverctl
    assert [w.filename for w in caught] == [__file__]


@pytest.mark.parametrize("bad", [math.nan, 1.5, -0.1])
@pytest.mark.parametrize("variant", [PREFIX_KEYED, POSITION_KEYED])
def test_acog_rejects_prefix_values_outside_unit_interval(variant, bad):
    cfg = ChainConfig(n=3, phi=0.5, horizon_T=100)
    theta = ControllerState(2.5, 0.5, StepSchedule.constant(0.1))
    stats = ChainStats(3, 100, variant)
    stats.record_chain([2, 0], [0.25, 0.5], 1)
    before = copy.deepcopy(stats._table)
    # the bad value sits in the middle slot, after a valid one
    with pytest.raises(ValueError, match=r"step 1, position 2"):
        acog_step(theta, stats, cfg, _ScriptedSets([[0.5, bad, 1.0]]))
    assert stats._table == before
    assert theta.value == 2.5 and theta.step_index == 1


def test_acog_fractional_rewards_keep_ledger_exact():
    cfg = ChainConfig(n=4, phi=0.6, horizon_T=2000)
    rows = [[0.1, 0.35, 0.5, 0.5], [0.0, 0.7, 0.7, 0.9], [0.25, 0.25, 0.8, 1.0]]
    sim = drive_acog(cfg, StepSchedule.constant(0.05), _ScriptedSets(rows), 2000)
    assert (-0.05 - 1e-12 <= sim.trace.state).all() and (sim.trace.state <= 4 + 1e-12).all()
    assert sim.info["coverage"] == sum(sim.trace.reward.tolist()) / 2000
    assert abs(sim.info["ledger_residual"]) <= 1e-9
    # the same identity read off the trace: theta starts at 0
    assert abs((sim.info["coverage"] - 0.6) + sim.final_state / (0.05 * 2000)) <= 1e-9


def test_budget_never_exceeds_arm_count():
    # only the full probe set succeeds: theta climbs to the top and then
    # oscillates, never leaving [-eta, n]
    cfg = ChainConfig(n=3, phi=0.2, horizon_T=1000)
    theta = ControllerState(0.0, 0.2, StepSchedule.constant(0.3))
    stats = ChainStats(3, 1000)
    env = _ScriptedSets([[0.0, 0.0, 1.0]])
    saw_full = False
    for _ in range(1000):
        _, _, k, state, _ = acog_step(theta, stats, cfg, env)
        assert -0.3 - 1e-12 <= state <= 3 + 1e-12
        assert 0 <= k <= 3
        saw_full = saw_full or k == 3
        assert k == budget_from_theta(state, 3)
    assert saw_full


def test_variant_tables_key_independently():
    pos = ChainStats(4, 100, POSITION_KEYED)
    pre = ChainStats(4, 100, PREFIX_KEYED)
    # arm 0 gains 0.5 in slot 3, after the prefix [3, 1]
    pos.record_chain([3, 1, 0], [0.25, 0.25, 0.75], 1)
    pre.record_chain([3, 1, 0], [0.25, 0.25, 0.75], 1)
    # position-keyed merges across prefixes, prefix-keyed does not
    assert _cell(pos, 3, [1, 2], 0)[0] == 1
    assert _cell(pre, 3, [1, 2], 0)[0] == 0
    assert _cell(pre, 3, [1, 3], 0) == (1, 0.5)


def test_ucb_scores_unplayed_infinite():
    stats = ChainStats(3, 100)
    stats.record_chain([0], [0.4], 1)
    # arm 0 now has a finite score; the unplayed arms 1 and 2 tie at +inf
    assert select_chain(stats, 1) == [1]


# one step's probed chain (distinct arms of 5) and its prefix values in [0, 1],
# which may fall along the chain: marginal gains span [-1, 1]
_STEPS = st.lists(st.integers(0, 4), max_size=5, unique=True).flatmap(
    lambda chain: st.tuples(st.just(chain), st.lists(st.floats(0.0, 1.0), min_size=len(chain),
                                                     max_size=len(chain))))


def _record_quietly(stats, chain, values, t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonMonotoneFeedbackWarning)
        stats.record_chain(chain, values, t)


@settings(max_examples=100, deadline=None)
@given(variant=st.sampled_from([PREFIX_KEYED, POSITION_KEYED]),
       steps=st.lists(_STEPS, max_size=60))
def test_cached_scores_equal_a_recomputation_from_the_statistics(variant, steps):
    stats = ChainStats(5, 100, variant)
    for t, (chain, values) in enumerate(steps, start=1):
        _record_quietly(stats, chain, values, t)
    stats.prime(4, [0, 1, 2], [0.1, 0.2, 0.3, 0.4, 0.5])
    for plays, mean, score in [*stats._table.values(), stats._unplayed]:
        assert all(type(v) is float for v in [*plays, *mean, *score])
        with np.errstate(divide="ignore"):
            np.testing.assert_array_equal(
                score, np.asarray(mean) + np.sqrt(stats._log_term / np.asarray(plays)))


def _numpy_select_chain(stats, budget):
    """The greedy fill over numpy score arrays that select_chain replaced: mask
    the chosen arms with -inf and take the first argmax."""
    chain = []
    chosen = np.zeros(stats.n, dtype=bool)
    for position in range(1, budget + 1):
        score = np.asarray(stats._table.get(stats._key(position, chain), stats._unplayed)[2])
        arm = int(np.where(chosen, -np.inf, score).argmax())
        chain.append(arm)
        chosen[arm] = True
    return chain


# a tie-prone mean: a few repeated values, or any finite float
_MEANS = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 1.0]), st.floats(-1.0, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(variant=st.sampled_from([PREFIX_KEYED, POSITION_KEYED]),
       calls=st.lists(st.one_of(
           st.tuples(st.just("record"), _STEPS),
           st.tuples(st.just("prime"), st.tuples(
               st.lists(st.integers(0, 4), max_size=4, unique=True),
               st.lists(_MEANS, min_size=5, max_size=5)))), max_size=40))
def test_select_chain_matches_the_numpy_greedy_loop(variant, calls):
    stats = ChainStats(5, 100, variant)
    for budget in range(6):  # all unplayed: every slot ties at +inf
        assert select_chain(stats, budget) == _numpy_select_chain(stats, budget)
    for t, (kind, (arms, values)) in enumerate(calls, start=1):
        if kind == "record":
            _record_quietly(stats, arms, values, t)
        else:
            stats.prime(len(arms) + 1, arms, values)
        for budget in range(6):
            assert select_chain(stats, budget) == _numpy_select_chain(stats, budget)


@pytest.mark.parametrize("means", [[0.1, math.nan, 0.2], [0.1, math.inf, 0.2],
                                   [-math.inf, 0.1, 0.2], [0.3], [0.1, 0.2],
                                   [0.1, 0.2, 0.3, 0.4]])
def test_prime_rejects_non_finite_or_missized_means(means):
    stats = ChainStats(3, 100)
    with pytest.raises(ValueError):
        stats.prime(1, [], means)
    assert stats._table == {}


@pytest.mark.parametrize("variant", [POSITION_KEYED, PREFIX_KEYED])
@pytest.mark.parametrize("chain, values", [([0, 1, 2], [0.5, 0.7]), ([0], [0.5, 0.7])],
                         ids=["short-values", "long-values"])
def test_record_chain_refuses_a_count_mismatch_before_any_update(variant, chain, values):
    stats = ChainStats(3, 100, variant)
    with pytest.raises(ValueError, match="step 1"):
        stats.record_chain(chain, values, 1)
    assert stats._table == {}


def _ranked_by_learned_means(stats, budget):
    """Greedy fill of ``budget`` slots by learned means alone (unplayed pairs
    score -inf, ties break to the lowest index): the converged chain without
    the exploration bonus."""
    chain = []
    for position in range(1, budget + 1):
        ctx = stats._table.get(stats._key(position, chain))
        if ctx is None:
            arm = next(a for a in range(stats.n) if a not in chain)
        else:
            plays, mean = np.asarray(ctx[0]), np.asarray(ctx[1])
            score = np.where(plays > 0, mean, -np.inf)
            score[chain] = -np.inf
            arm = int(np.argmax(score))
        chain.append(arm)
    return chain


def test_variants_converge_to_matching_mean_rankings():
    # Learned-mean selections at a matched budget coincide on nearly every
    # step after burn-in; instantaneous UCB picks keep churning by design,
    # so the comparison reads out the converged rankings.
    p = [0.55, 0.40, 0.28, 0.18, 0.10, 0.05]
    n, horizon, burn = len(p), 30000, 5000
    world = OrWorld(p, replica_seed(7, 0))
    k_star = greedy_chain(world.value_oracle(), n).budget_for(0.8)
    eta = n / (2.0 * math.sqrt(horizon))
    cfgs, thetas, tables = {}, {}, {}
    for variant in (POSITION_KEYED, PREFIX_KEYED):
        cfgs[variant] = ChainConfig(n=n, phi=0.8, horizon_T=horizon)
        thetas[variant] = ControllerState(0.0, 0.8, StepSchedule.constant(eta))
        tables[variant] = ChainStats(n, horizon, variant)
    agree = total = 0
    for t in range(horizon):
        if t >= burn:
            s_pos = set(_ranked_by_learned_means(tables[POSITION_KEYED], k_star))
            s_pre = set(_ranked_by_learned_means(tables[PREFIX_KEYED], k_star))
            agree += s_pos == s_pre
            total += 1
        for variant in (POSITION_KEYED, PREFIX_KEYED):
            acog_step(thetas[variant], tables[variant], cfgs[variant], world)
    assert agree / total >= 0.95


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainStats(0, 100)
    with pytest.raises(ValueError):
        ChainStats(3, 100, "both")


class _ScriptedMonotoneSets:
    """On a step whose scripted bit is set every prefix succeeds; otherwise
    only the full n-arm chain does. Monotone, and the full set never fails."""

    def __init__(self, n, script):
        self.n = n
        self.script = script

    def probe(self, t, chain):
        hit = self.script[(t - 1) % len(self.script)]
        return [1.0 if hit or k == self.n else 0.0 for k in range(1, len(chain) + 1)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(phi=st.floats(0.01, 0.99), schedule=st.builds(
           StepSchedule, st.floats(1e-3, 0.5), st.one_of(st.just(0.0), st.floats(0.01, 0.99)),
           st.integers(0, 100)),
       script=st.lists(st.booleans(), min_size=1, max_size=64))
def test_ledger_and_band_hold_for_any_reward_script(phi, schedule, script):
    cfg = ChainConfig(n=3, phi=phi, horizon_T=300)
    sim = drive_acog(cfg, schedule, _ScriptedMonotoneSets(3, script), 300)
    eta = schedule.max_eta()
    assert abs(sim.info["ledger_residual"]) <= 1e-9
    # theta falls only from above 0, by at most eta * (1 - phi); the full set
    # never fails here, so theta also stays at or below n
    assert -eta * (1 - phi) <= sim.final_state <= cfg.n
    assert -eta * (1 - phi) <= sim.trace.state.min()
    # each step probes the budget its decision-time theta gives
    assert all(rec.k == budget_from_theta(rec.state, cfg.n) for rec in sim.records)


class _AdaptiveChains:
    """An adversary that picks the first succeeding slot of each probed chain
    from its length K and the previous chain's: ``table[t % len][previous K][K]``,
    a slot in 1..n, or n + 1 for none, so the prefix values are monotone bits.
    Under the model's rule the full n-arm chain always succeeds; ``broken``
    lets it fail."""

    def __init__(self, n, table, broken=False):
        self.n, self.table, self.broken, self.prev = n, table, broken, 0

    def probe(self, t, chain):
        k = len(chain)
        first = self.table[t % len(self.table)][self.prev][k]
        self.prev = k
        if k == self.n and not self.broken:
            first = min(first, k)
        return [1.0 if slot >= first else 0.0 for slot in range(1, k + 1)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(phi=st.floats(0.01, 0.99), schedule=st.builds(
           StepSchedule, st.floats(1e-3, 0.5), st.one_of(st.just(0.0), st.floats(0.01, 0.99)),
           st.integers(0, 100)),
       variant=st.sampled_from([PREFIX_KEYED, POSITION_KEYED]),
       table=st.lists(st.lists(st.lists(st.integers(1, 4), min_size=4, max_size=4),
                               min_size=4, max_size=4), min_size=1, max_size=6))
def test_coverage_bound_holds_at_every_step_against_an_adaptive_adversary(
        phi, schedule, variant, table):
    cfg = ChainConfig(n=3, phi=phi, horizon_T=300)
    sim = drive_acog(cfg, schedule, _AdaptiveChains(3, table), 300, variant=variant)
    # where the full chain never fails, theta stays in [-eta_max * (1 - phi),
    # n - 1 + eta_max * phi]: above n - 1 it probes the full chain, which succeeds
    eta = schedule.max_eta()
    lo, hi = -eta * (1 - phi) - _TOL, cfg.n - 1 + eta * phi + _TOL
    assert lo <= sim.trace.state.min() and max(sim.trace.state.max(), sim.final_state) <= hi
    # so |coverage_t - phi| <= W / (eta_t * t) at every step t, with W = hi - lo
    t = np.arange(1, 301)
    bound = (hi - lo) / (np.array([schedule.eta(s) for s in t]) * t)
    assert (abs(coverage_series(sim.trace) - phi) <= bound + 1e-9).all()


def test_a_full_chain_that_fails_breaks_the_coverage_bound():
    # the chain's band is open above, so the driver raises nothing; the test names
    # the bounds that no longer hold. Every chain fails, the full one too: theta
    # climbs by eta * phi = 0.05 a step, past n - 1 + eta * phi, and with the
    # coverage at 0 the bound W / (eta * t), W = n - 1 + eta, falls below phi from
    # t > W / (eta * phi) = 42 on
    cfg = ChainConfig(n=3, phi=0.5, horizon_T=300)
    world = _AdaptiveChains(3, [[[4] * 4] * 4], broken=True)
    sim = drive_acog(cfg, StepSchedule.constant(0.1), world, 300)
    assert sim.final_state == pytest.approx(15.0) and sim.final_state > 3 - 1 + 0.1 * 0.5
    t = np.arange(1, 301)
    bound = (3 - 1 + 0.1 + 2 * _TOL) / (0.1 * t)
    broken = abs(coverage_series(sim.trace) - 0.5) > bound + 1e-9
    assert np.flatnonzero(broken)[0] + 1 == 43 and broken[42:].all()
