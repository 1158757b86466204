"""Counter-based random substreams.

Every stochastic component derives each draw by hashing
(master_seed, component_id, step, lane) through the splitmix64 finalizer.
A draw therefore depends only on those integers, never on how many draws
other components consumed, so replaying a run with the same seed and the
same action sequence reproduces every observation bit-for-bit.
"""

from functools import lru_cache

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# (seed, component) prefixes that :func:`uniform` keeps folded; a replica's
# worlds draw from a handful of components of one seed
_PREFIXES = 64


def _finalize(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _finalize_array(z: np.ndarray) -> np.ndarray:
    """:func:`_finalize` on a uint64 array, in place: uint64 arithmetic wraps
    modulo 2**64, which is the masking the scalar version does."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def mix(*parts: int) -> int:
    """Fold integers into one well-mixed 64-bit value."""
    h = 0x8A5CD789635D2DFF
    for p in parts:
        h = _finalize(h + _GOLDEN + (p & _MASK))
    return h


@lru_cache(maxsize=_PREFIXES)
def _prefix(seed: int, component: int) -> int:
    return mix(seed, component) + _GOLDEN


def uniform(seed: int, component: int, step: int, lane: int) -> float:
    """Uniform draw in [0, 1) keyed by (seed, component, step, lane): equals
    ``(mix(seed, component, step, lane) >> 11) * 2**-53`` bit for bit."""
    # the (seed, component) prefix folds once per pair; the step and lane
    # folds are :func:`_finalize` inline, and adding a part then masking is
    # the same sum modulo 2**64 as adding it masked
    z = (_prefix(seed, component) + step) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z = ((z ^ (z >> 31)) + _GOLDEN + lane) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def uniforms(seed: int, component: int, t0: int, steps: int, lanes: int) -> np.ndarray:
    """(steps x lanes) float array whose entry [i, j] is
    ``uniform(seed, component, t0 + i, j)``, bit for bit."""
    # the (seed, component) prefix folds once; the step and lane folds run on
    # uint64 arrays, where adding the part is the scalar fold's & _MASK
    base = (_prefix(seed, component) + t0) & _MASK
    rows = _finalize_array(np.uint64(base) + np.arange(steps, dtype=np.uint64))
    z = rows[:, None] + (np.uint64(_GOLDEN) + np.arange(lanes, dtype=np.uint64))
    return (_finalize_array(z) >> 11) * 2.0**-53


def replica_seed(master_seed: int, replica: int) -> int:
    """Seed for replica ``replica`` of a run started from ``master_seed``."""
    return mix(master_seed, replica)
