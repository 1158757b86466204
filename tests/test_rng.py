import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverctl.rng import uniform, uniforms


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
