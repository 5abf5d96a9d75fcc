"""Seeded, counter-based random number streams.

Every stochastic routine in the package takes either a seed or a
``numpy.random.Generator``.  Streams are built on Philox so that replicas
with distinct keys are independent and reproducible regardless of thread
scheduling.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


def make_rng(seed: int) -> np.random.Generator:
    """Return a Philox-backed generator keyed by ``seed << 16``.

    Distinct nonnegative seeds give statistically independent streams;
    identical seeds give identical output on every platform.
    """
    seed = int(seed)
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed << 16))


def as_rng(seed_or_rng) -> np.random.Generator:
    """Coerce an int seed or an existing Generator into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return make_rng(int(seed_or_rng))
