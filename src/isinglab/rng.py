"""Seeded, counter-based random number streams.

Every stochastic routine in the package takes either a seed or a
``numpy.random.Generator``.  ``make_rng`` is the one builder of streams: it
derives them all from Philox, so replicas on distinct (seed, stream) pairs
are independent and reproducible regardless of thread scheduling.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return stream ``stream`` of the Philox sequence keyed by ``seed << 16``.

    Stream s is the key's sequence jumped by s * 2^128 draws, so no two
    (seed, stream) pairs share draws; stream 0 is the unjumped sequence.
    Seeds fit the 128-bit key below 2^112; a jump by 2^128 streams wraps the
    256-bit counter back to stream 0.  Identical arguments give identical
    output on every platform.
    """
    seed, stream = int(seed), int(stream)
    if not (0 <= seed < 1 << 112 and 0 <= stream < 1 << 128):
        raise InvalidInputError("need 0 <= seed < 2^112 and 0 <= stream < 2^128, "
                                f"got {seed}, {stream}")
    return np.random.Generator(np.random.Philox(key=seed << 16).jumped(stream))


def as_rng(seed_or_rng) -> np.random.Generator:
    """Coerce an int seed or an existing Generator into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return make_rng(int(seed_or_rng))
