import numpy as np
import pytest

from isinglab.errors import InvalidInputError
from isinglab.rng import as_rng, make_rng


def test_stream_keyed_by_shifted_seed():
    expected = np.random.Generator(np.random.Philox(key=7 << 16)).random(5)
    assert np.array_equal(make_rng(7).random(5), expected)
    assert np.array_equal(as_rng(7).random(5), expected)


def test_negative_seed_rejected():
    with pytest.raises(InvalidInputError):
        make_rng(-1)


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_stream_zero_is_the_unjumped_key(seed):
    expected = np.random.Generator(np.random.Philox(key=seed << 16)).random(8)
    assert np.array_equal(make_rng(seed).random(8), expected)
    assert np.array_equal(make_rng(seed, 0).random(8), expected)


def test_streams_do_not_alias_seeds():
    # a key of (seed << 16) + stream would make these two the same stream
    assert not np.array_equal(make_rng(1, 0).random(8), make_rng(0, 65536).random(8))


def test_seed_stream_pairs_draw_distinct_values():
    draws = np.concatenate([make_rng(seed, stream).random(8)
                            for seed in range(4) for stream in range(4)])
    assert len(np.unique(draws)) == draws.size


def test_negative_stream_rejected():
    with pytest.raises(InvalidInputError):
        make_rng(0, -1)


@pytest.mark.parametrize("seed,stream", [(2**112, 0), (0, 2**128)])
def test_seed_and_stream_bounded(seed, stream):
    # a larger seed overflows the 128-bit Philox key, and a jump by 2^128
    # streams wraps the 256-bit counter back to stream 0
    with pytest.raises(InvalidInputError):
        make_rng(seed, stream)
    top = make_rng(2**112 - 1, 2**128 - 1).random(8)
    assert not np.array_equal(top, make_rng(2**112 - 1, 0).random(8))
