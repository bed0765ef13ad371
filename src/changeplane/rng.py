"""Deterministic RNG stream derivation.

All randomness in the package funnels through a master seed.  Independent
streams are derived with counter-style keys so that replicates can run on
any worker in any order and still reproduce bit-identically.

``child_rng`` defines the stream (seed, *key): a numpy ``SeedSequence``
with the key as its spawn key, seeding a ``PCG64``.  ``child_rngs`` gives
the streams (seed, *prefix, k) for a range of keys k bit for bit as
``child_rng`` does, with SeedSequence's hash run once over an array of keys
instead of once per stream.
"""

from __future__ import annotations

from collections.abc import Iterator

# numpy loads numpy.random on first use; importing it here puts that cost
# in the package's start-up, which every test run pays anyway, and not in
# the first test.
import numpy as np
from numpy.random import PCG64, Generator, SeedSequence, default_rng
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError

__all__ = ["check_counts", "check_seed", "child_rng", "child_rngs", "child_seed_sequence"]

# SeedSequence's pool size and the constants of its hash (O'Neill's seed_seq).
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def check_seed(seed) -> None:
    """The rule for a master seed: a non-negative integer, and not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")


def check_counts(**counts) -> None:
    """The rule for a count (replicates, draws, directions, workers): an
    integer >= 1, and not a bool."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")


def child_seed_sequence(seed: int, *key: int) -> SeedSequence:
    """SeedSequence for the stream identified by (seed, *key)."""
    return SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))


def child_rng(seed: int, *key: int) -> Generator:
    """Generator for the stream identified by (seed, *key)."""
    return default_rng(child_seed_sequence(seed, *key))


class _State(ISeedSequence):
    """The four 64-bit words a ``PCG64`` is seeded with, derived already:
    all that ``PCG64`` asks of its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64):
        return self.words


def _words(value: int) -> list[int]:
    """``value`` as SeedSequence reads an integer: 32-bit words, least first."""
    value = int(value)
    words = [value & _MASK]
    while value := value >> 32:
        words.append(value & _MASK)
    return words


def child_rngs(seed: int, *prefix: int, keys: range) -> Iterator[Generator]:
    """An iterator over ``child_rng(seed, *prefix, k)`` for k in ``keys``,
    bit for bit, each generator built only when it is reached.

    SeedSequence hashes the words of the seed, padded to its pool of four,
    of ``prefix`` and of k into the pool, then draws PCG64's four 64-bit
    words from the pool.  The hash constants do not depend on the words, so
    here the words are Python ints until k's enter as one uint32 array, one
    lane per key, and every stream's state is derived in one pass.  Keys
    must lie in [0, 2^32), where k is one word.
    """
    check_seed(seed)
    ends = (keys[0], keys[-1]) if keys else (0,)
    if min((*prefix, *ends)) < 0 or max(ends) > _MASK:
        raise ParameterError(f"stream keys must be non-negative, and those of the range "
                             f"below 2^32, got {prefix} and {keys}")
    run = _words(seed)
    entropy = [*run, *[0] * (_POOL - len(run)), *[w for k in prefix for w in _words(k)],
               np.array(keys, np.uint32)]
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = (value ^ h) * (h := h * _MULT_A & _MASK) & _MASK
        return value ^ value >> 16

    def mix(x, y):
        result = ((_MIX_L * x & _MASK) - (_MIX_R * y & _MASK)) & _MASK
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    state, h = [], _INIT_B
    for i in range(2 * _POOL):  # generate_state(4, uint64): eight 32-bit words
        value = (pool[i % _POOL] ^ h) * (h := h * _MULT_B & _MASK) & _MASK
        state.append(value ^ value >> 16)
    words = np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)
    return (Generator(PCG64(_State(row))) for row in words)
