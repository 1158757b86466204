import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverctl.rng import _PREFIXES, _prefix, mix, uniform, uniforms


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), component=st.integers(0, 16),
       t0=st.integers(0, 2**40), steps=st.integers(1, 8), lanes=st.integers(1, 32))
@example(seed=2**63, component=3, t0=2**40, steps=2, lanes=6)
@example(seed=2**64 - 1, component=7, t0=0, steps=3, lanes=32)
def test_uniforms_match_the_scalar_draw_bit_for_bit(seed, component, t0, steps, lanes):
    block = uniforms(seed, component, t0, steps, lanes)
    assert block.shape == (steps, lanes) and block.dtype == np.float64
    for i in range(steps):
        for j in range(lanes):
            assert block[i, j] == uniform(seed, component, t0 + i, j)


def _reference(seed, component, step, lane):
    return (mix(seed, component, step, lane) >> 11) * 2.0**-53


# mix masks every part to 64 bits, so parts at or above 2**64 and negative
# parts are keys as well
_PART = st.integers(-2**66, 2**66)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1) | _PART, component=st.integers(0, 16) | _PART,
       step=st.integers(0, 2**40) | _PART, lane=st.integers(0, 64) | _PART)
@example(seed=2**64 - 1, component=7, step=2**64, lane=2**64 - 1)
@example(seed=-1, component=-3, step=-(2**64) - 1, lane=2**65 + 5)
def test_uniform_matches_the_mix_reference_bit_for_bit(seed, component, step, lane):
    assert uniform(seed, component, step, lane) == _reference(seed, component, step, lane)


def test_uniform_is_unchanged_when_its_prefix_memo_evicts():
    # one pair more than the memo holds, visited in a cycle: from the second
    # round on, every visit evicts the pair visited next, so each draw refolds
    pairs = [(2**64 - 1 - k, k % 8) for k in range(_PREFIXES + 1)]
    for _ in range(2):
        misses = _prefix.cache_info().misses
        for seed, component in pairs:
            for step, lane in ((2**64 + 9, 3), (-5, 2**64)):
                assert uniform(seed, component, step, lane) == _reference(seed, component,
                                                                           step, lane)
    assert _prefix.cache_info().misses - misses == len(pairs)
    assert _prefix.cache_info().currsize == _PREFIXES
