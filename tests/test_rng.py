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
