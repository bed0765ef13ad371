"""Deterministic RNG stream derivation.

All randomness in the package funnels through a master seed.  Independent
streams are derived with counter-style keys so that replicates can run on
any worker in any order and still reproduce bit-identically.
"""

from __future__ import annotations

# numpy loads numpy.random on first use; importing it here puts that cost
# in the package's start-up, which every test run pays anyway, and not in
# the first test.
from numpy.random import Generator, SeedSequence, default_rng

__all__ = ["child_rng", "child_seed_sequence"]


def child_seed_sequence(seed: int, *key: int) -> SeedSequence:
    """SeedSequence for the stream identified by (seed, *key)."""
    return SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))


def child_rng(seed: int, *key: int) -> Generator:
    """Generator for the stream identified by (seed, *key)."""
    return default_rng(child_seed_sequence(seed, *key))
